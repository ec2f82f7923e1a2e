//! PAX-style columnar pages (the zero-row-decode layout).
//!
//! A [`ColPage`] is an 8 KiB page that stores its rows column-major instead
//! of slot-by-slot: fixed-width columns are raw little-endian `i64` / `f64` /
//! `i32` value regions, strings are a page-local dictionary plus a per-row
//! code region, and NULLs live in per-column bitmaps. A page header records
//! the row count and a per-column directory of `(type, offsets)` entries, so
//! materializing the page into a [`ColBatch`] is a handful of bulk region
//! reads — no per-tuple tag parsing, and a string column *is* the page's
//! dictionary (one `Arc<str>` per distinct value) plus its rows' codes.
//!
//! This is the layout the shared circular scanner exploits: one decode-free
//! materialization feeds every attached consumer at once (paper §4.3.1 — the
//! per-page cost is multiplied by the number of consumers, so it has to be
//! small). A page carries a per-column decode cache from construction —
//! the one both layouts keep, read and filled by
//! [`Block::decode`](crate::disk::Block::decode) — and every clone shares
//! it. The disk's stored copy is one of those clones: each read hands out a
//! clone of it (`SimDisk::issue_read`), so each column of a page is decoded
//! at most once per *run*, not once per residency, whichever columns a scan
//! prunes to. A page evicted from the buffer pool and read back arrives with
//! what was decoded; every access to a decoded column is a refcount bump.
//! The decoders themselves ([`ColPage::decode`], [`ColPage::decode_cols`])
//! read no cache. (A corrupted copy, [`ColPage::corrupted_copy`], starts
//! with an empty cache.)
//!
//! ## On-page layout (all integers little-endian)
//!
//! ```text
//! 0..2   magic (0xC01A)
//! 2..4   num_rows  (u16)
//! 4..6   num_cols  (u16)
//! 6..    directory, 8 bytes per column:
//!          +0 u8  type tag (0 Int, 1 Float, 2 Str, 3 Date)
//!          +1 u8  flags (bit 0: column has NULLs)
//!          +2 u16 null bitmap offset (always reserved, ceil(rows/8) bytes)
//!          +4 u16 data offset (values region, or string codes)
//!          +6 u16 aux offset (strings: dictionary region; others: 0)
//! ```
//!
//! A string column's data region holds `num_rows` u16 dictionary codes; its
//! aux region holds `dict_len: u16`, then `dict_len` cumulative u16 end
//! offsets, then the dictionary bytes back to back.

use crate::disk::ColCache;
use crate::page::PAGE_SIZE;
use qpipe_common::colbatch::{ColBatch, Column, ColumnData, NullBitmap};
use qpipe_common::{DataType, QError, QResult, Schema, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Page magic marking the columnar layout.
pub const COLPAGE_MAGIC: u16 = 0xC01A;

const HEADER_BYTES: usize = 6;
const DIR_ENTRY_BYTES: usize = 8;

const TY_INT: u8 = 0;
const TY_FLOAT: u8 = 1;
const TY_STR: u8 = 2;
const TY_DATE: u8 = 3;

const FLAG_HAS_NULLS: u8 = 1;

fn ty_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => TY_INT,
        DataType::Float => TY_FLOAT,
        DataType::Str => TY_STR,
        DataType::Date => TY_DATE,
    }
}

fn corrupt(what: &str) -> QError {
    QError::Storage(format!("corrupt columnar page: {what}"))
}

/// An immutable columnar page: raw bytes plus a per-column decode cache.
/// Clones share both — the disk's stored page and every copy read from it
/// included — so each column is decoded at most once per run, however often
/// the page is evicted and read.
#[derive(Debug, Clone)]
pub struct ColPage {
    data: Arc<Vec<u8>>,
    rows: u16,
    cols: u16,
    /// Checksum of `data`, sealed at construction (columnar pages are
    /// immutable, so the seal never goes stale).
    sum: u64,
    pub(crate) cache: Arc<ColCache>,
}

impl ColPage {
    /// Wrap raw page bytes, validating the header.
    pub fn from_bytes(data: Arc<Vec<u8>>) -> QResult<Self> {
        if data.len() != PAGE_SIZE {
            return Err(corrupt("wrong page size"));
        }
        if read_u16(&data, 0) != COLPAGE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let rows = read_u16(&data, 2);
        let cols = read_u16(&data, 4);
        if HEADER_BYTES + cols as usize * DIR_ENTRY_BYTES > PAGE_SIZE {
            return Err(corrupt("directory exceeds page"));
        }
        let sum = qpipe_common::sim::page_sum(&data);
        Ok(Self { data, rows, cols, sum, cache: Arc::default() })
    }

    /// Verify the sealed checksum against the page bytes.
    pub fn verify_checksum(&self) -> bool {
        self.sum == qpipe_common::sim::page_sum(&self.data)
    }

    /// Return a clone with one bit of the page bytes flipped and the seal
    /// left intact — a detectably corrupt page for fault injection. The
    /// clone gets a fresh decode cache so the clean page's cached columns
    /// are never served for the corrupted bytes.
    pub fn corrupted_copy(&self, bit: u64) -> Self {
        let bit = bit % (PAGE_SIZE as u64 * 8);
        let mut data = (*self.data).clone();
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
        Self {
            data: Arc::new(data),
            rows: self.rows,
            cols: self.cols,
            sum: self.sum,
            cache: Arc::default(),
        }
    }

    /// Number of rows stored on the page.
    pub fn num_rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of columns stored on the page.
    pub fn num_cols(&self) -> usize {
        self.cols as usize
    }

    /// Decode the page into a fresh [`ColBatch`] straight from the byte
    /// regions (bulk reads per column — the zero-row-decode path).
    pub fn decode(&self) -> QResult<ColBatch> {
        self.decode_cols(None)
    }

    /// Decode the named columns (every column for `None`), in the given
    /// order: only their byte regions are read. The result has the page's
    /// full row count.
    pub fn decode_cols(&self, cols: Option<&[usize]>) -> QResult<ColBatch> {
        let order: Vec<usize> =
            cols.map_or_else(|| (0..self.num_cols()).collect(), <[usize]>::to_vec);
        if order.is_empty() {
            return Ok(ColBatch::empty_rows(self.num_rows()));
        }
        let out = order.iter().map(|&c| self.decode_col(c)).collect::<QResult<Vec<_>>>()?;
        Ok(ColBatch::from_columns(out))
    }

    /// Decode one column from its byte regions.
    fn decode_col(&self, c: usize) -> QResult<Column> {
        if c >= self.cols as usize {
            return Err(corrupt(&format!("column {c} beyond page width {}", self.cols)));
        }
        let rows = self.rows as usize;
        let data: &[u8] = &self.data;
        let dir = HEADER_BYTES + c * DIR_ENTRY_BYTES;
        let ty = data[dir];
        let flags = data[dir + 1];
        let null_off = read_u16(data, dir + 2) as usize;
        let data_off = read_u16(data, dir + 4) as usize;
        let aux_off = read_u16(data, dir + 6) as usize;
        let nulls = if flags & FLAG_HAS_NULLS != 0 {
            let n = rows.div_ceil(8);
            let region = region(data, null_off, n, "null bitmap")?;
            Some(NullBitmap::from_packed_bytes(region, rows))
        } else {
            None
        };
        let payload = match ty {
            TY_INT => {
                let region = region(data, data_off, rows * 8, "int region")?;
                ColumnData::Int64(
                    region.as_chunks::<8>().0.iter().map(|&b| i64::from_le_bytes(b)).collect(),
                )
            }
            TY_FLOAT => {
                let region = region(data, data_off, rows * 8, "float region")?;
                ColumnData::Float64(
                    region.as_chunks::<8>().0.iter().map(|&b| f64::from_le_bytes(b)).collect(),
                )
            }
            TY_DATE => {
                let region = region(data, data_off, rows * 4, "date region")?;
                ColumnData::Date(
                    region.as_chunks::<4>().0.iter().map(|&b| i32::from_le_bytes(b)).collect(),
                )
            }
            TY_STR => decode_strings(data, data_off, aux_off, rows, &nulls)?,
            other => return Err(corrupt(&format!("unknown column type tag {other}"))),
        };
        Ok(Column::new(payload, nulls))
    }

    /// The raw page bytes (tests / forensics).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

fn read_u16(data: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([data[off], data[off + 1]])
}

fn region<'a>(data: &'a [u8], off: usize, len: usize, what: &str) -> QResult<&'a [u8]> {
    data.get(off..off + len).ok_or_else(|| corrupt(&format!("{what} out of bounds")))
}

/// Decode a string column: the page-local dictionary becomes the column's
/// (one `Arc<str>` per distinct value, built once per decode), and the
/// per-row `u16` codes become `u32` codes — 0 at a NULL row, and checked
/// against the dictionary everywhere else.
fn decode_strings(
    data: &[u8],
    codes_off: usize,
    aux_off: usize,
    rows: usize,
    nulls: &Option<NullBitmap>,
) -> QResult<ColumnData> {
    let codes = region(data, codes_off, rows * 2, "string codes")?;
    let dict_len = read_u16(region(data, aux_off, 2, "dict header")?, 0) as usize;
    let ends = region(data, aux_off + 2, dict_len * 2, "dict offsets")?;
    let bytes_off = aux_off + 2 + dict_len * 2;
    let mut start = 0usize;
    let mut dict = ends
        .as_chunks::<2>()
        .0
        .iter()
        .map(|&end| {
            let end = u16::from_le_bytes(end) as usize;
            if end < start {
                return Err(corrupt("dict offsets not monotone"));
            }
            let bytes = region(data, bytes_off + start, end - start, "dict entry")?;
            let s = std::str::from_utf8(bytes).map_err(|_| corrupt("dict entry not utf8"))?;
            start = end;
            Ok(Arc::from(s))
        })
        .collect::<QResult<Arc<[Arc<str>]>>>()?;
    let mut out = Vec::with_capacity(rows);
    for (r, &code) in codes.as_chunks::<2>().0.iter().enumerate() {
        let code = u16::from_le_bytes(code) as u32;
        if nulls.as_ref().is_some_and(|b| b.get(r)) {
            out.push(0);
        } else if (code as usize) < dict.len() {
            out.push(code);
        } else {
            return Err(corrupt("string code out of dictionary"));
        }
    }
    if dict.is_empty() && rows > 0 {
        // Every row is NULL: one placeholder entry, so every code indexes it.
        dict = Arc::from([Arc::from("")]);
    }
    Ok(ColumnData::Str { dict, codes: out })
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

enum BuilderCol {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Date(Vec<i32>),
    Str { codes: Vec<u16>, dict: Vec<Arc<str>>, index: HashMap<Arc<str>, u16>, dict_bytes: usize },
}

impl BuilderCol {
    fn new(ty: DataType) -> Self {
        match ty {
            DataType::Int => BuilderCol::Int(Vec::new()),
            DataType::Float => BuilderCol::Float(Vec::new()),
            DataType::Date => BuilderCol::Date(Vec::new()),
            DataType::Str => BuilderCol::Str {
                codes: Vec::new(),
                dict: Vec::new(),
                index: HashMap::new(),
                dict_bytes: 0,
            },
        }
    }

    /// Bytes this column's regions occupy with `rows` rows (excluding the
    /// always-reserved null bitmap, accounted for by the builder).
    fn payload_bytes(&self, rows: usize) -> usize {
        match self {
            BuilderCol::Int(_) | BuilderCol::Float(_) => rows * 8,
            BuilderCol::Date(_) => rows * 4,
            BuilderCol::Str { dict, dict_bytes, .. } => rows * 2 + 2 + dict.len() * 2 + dict_bytes,
        }
    }

    /// Extra dictionary bytes appending `v` would add (strings only).
    fn dict_growth(&self, v: &Value) -> usize {
        match (self, v) {
            (BuilderCol::Str { index, .. }, Value::Str(s)) => {
                if index.contains_key(s.as_ref() as &str) {
                    0
                } else {
                    2 + s.len()
                }
            }
            _ => 0,
        }
    }
}

/// Accumulates schema-conformant tuples and serializes them into one
/// [`ColPage`]. The write-path analogue of building up a slotted [`Page`]
/// record by record.
pub struct ColPageBuilder {
    types: Vec<DataType>,
    cols: Vec<BuilderCol>,
    nulls: Vec<Vec<bool>>,
    any_null: Vec<bool>,
    rows: usize,
}

impl ColPageBuilder {
    pub fn new(schema: &Schema) -> Self {
        let types: Vec<DataType> = schema.columns().iter().map(|c| c.ty).collect();
        Self {
            cols: types.iter().map(|&t| BuilderCol::new(t)).collect(),
            nulls: vec![Vec::new(); types.len()],
            any_null: vec![false; types.len()],
            types,
            rows: 0,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Serialized size of the page if `tuple` were appended (`None` skips the
    /// hypothetical row — the current size).
    fn size_with(&self, tuple: Option<&Tuple>) -> usize {
        let rows = self.rows + usize::from(tuple.is_some());
        let mut size =
            HEADER_BYTES + self.cols.len() * DIR_ENTRY_BYTES + self.cols.len() * rows.div_ceil(8); // null bitmaps, always reserved
        for (i, col) in self.cols.iter().enumerate() {
            size += col.payload_bytes(rows);
            if let Some(t) = tuple {
                size += col.dict_growth(&t[i]);
            }
        }
        size
    }

    /// Whether `tuple` fits on this page.
    pub fn fits(&self, tuple: &Tuple) -> bool {
        tuple.len() == self.types.len()
            && self.rows < u16::MAX as usize
            && self.size_with(Some(tuple)) <= PAGE_SIZE
    }

    /// Rejections that no amount of page rotation can cure: schema
    /// non-conformance (wrong width, wrong type) and single-row overflow (the
    /// tuple would not fit even on an empty page). Callers that rotate full
    /// pages (the columnar heap's tail) check this *before* flushing, so a
    /// doomed tuple never has the side effect of an undersized on-disk page.
    pub fn validate(&self, tuple: &Tuple) -> QResult<()> {
        if tuple.len() != self.types.len() {
            return Err(QError::Storage(format!(
                "tuple width {} does not match columnar schema width {}",
                tuple.len(),
                self.types.len()
            )));
        }
        let mut one_row = HEADER_BYTES + self.types.len() * (DIR_ENTRY_BYTES + 1);
        for (i, (v, ty)) in tuple.iter().zip(&self.types).enumerate() {
            if !ty.admits(v) {
                return Err(QError::Storage(format!(
                    "value {v:?} does not conform to {ty:?} in columnar column {i}"
                )));
            }
            one_row += match (ty, v) {
                (DataType::Int | DataType::Float, _) => 8,
                (DataType::Date, _) => 4,
                // codes + dict header + one dict entry offset + bytes.
                (DataType::Str, Value::Str(s)) => 2 + 2 + 2 + s.len(),
                (DataType::Str, _) => 2 + 2,
            };
        }
        if one_row > PAGE_SIZE {
            return Err(QError::Storage(format!(
                "tuple of {one_row} bytes exceeds columnar page size"
            )));
        }
        Ok(())
    }

    /// Append a tuple; errors when it does not fit or does not conform to the
    /// page schema (columnar pages are strictly typed; NULL is always valid).
    pub fn append(&mut self, tuple: &Tuple) -> QResult<u16> {
        self.validate(tuple)?;
        if !self.fits(tuple) {
            return Err(QError::Storage(format!(
                "tuple does not fit columnar page ({} of {PAGE_SIZE} bytes used)",
                self.size_with(None)
            )));
        }
        for (i, v) in tuple.iter().enumerate() {
            let null = v.is_null();
            self.nulls[i].push(null);
            self.any_null[i] |= null;
            match &mut self.cols[i] {
                BuilderCol::Int(vals) => vals.push(v.as_int().unwrap_or(0)),
                BuilderCol::Float(vals) => vals.push(v.as_float().unwrap_or(0.0)),
                BuilderCol::Date(vals) => vals.push(match v {
                    Value::Date(d) => *d,
                    _ => 0,
                }),
                BuilderCol::Str { codes, dict, index, dict_bytes } => match v {
                    Value::Str(s) => {
                        let code = *index.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            *dict_bytes += s.len();
                            (dict.len() - 1) as u16
                        });
                        codes.push(code);
                    }
                    _ => codes.push(0),
                },
            }
        }
        let slot = self.rows as u16;
        self.rows += 1;
        Ok(slot)
    }

    /// Serialize into an immutable [`ColPage`], leaving the builder empty.
    pub fn finish(&mut self) -> ColPage {
        let rows = self.rows;
        let mut data = vec![0u8; PAGE_SIZE];
        data[0..2].copy_from_slice(&COLPAGE_MAGIC.to_le_bytes());
        data[2..4].copy_from_slice(&(rows as u16).to_le_bytes());
        data[4..6].copy_from_slice(&(self.cols.len() as u16).to_le_bytes());
        let mut cursor = HEADER_BYTES + self.cols.len() * DIR_ENTRY_BYTES;
        let bitmap_bytes = rows.div_ceil(8);
        for (i, col) in self.cols.iter().enumerate() {
            let dir = HEADER_BYTES + i * DIR_ENTRY_BYTES;
            data[dir] = ty_tag(self.types[i]);
            data[dir + 1] = if self.any_null[i] { FLAG_HAS_NULLS } else { 0 };
            // Null bitmap (reserved even when clear, so sizing is exact).
            let null_off = cursor;
            for (r, &is_null) in self.nulls[i].iter().enumerate() {
                if is_null {
                    data[null_off + r / 8] |= 1 << (r % 8);
                }
            }
            cursor += bitmap_bytes;
            data[dir + 2..dir + 4].copy_from_slice(&(null_off as u16).to_le_bytes());
            data[dir + 4..dir + 6].copy_from_slice(&(cursor as u16).to_le_bytes());
            match col {
                BuilderCol::Int(vals) => {
                    for v in vals {
                        data[cursor..cursor + 8].copy_from_slice(&v.to_le_bytes());
                        cursor += 8;
                    }
                }
                BuilderCol::Float(vals) => {
                    for v in vals {
                        data[cursor..cursor + 8].copy_from_slice(&v.to_le_bytes());
                        cursor += 8;
                    }
                }
                BuilderCol::Date(vals) => {
                    for v in vals {
                        data[cursor..cursor + 4].copy_from_slice(&v.to_le_bytes());
                        cursor += 4;
                    }
                }
                BuilderCol::Str { codes, dict, .. } => {
                    for c in codes {
                        data[cursor..cursor + 2].copy_from_slice(&c.to_le_bytes());
                        cursor += 2;
                    }
                    let aux = cursor;
                    data[dir + 6..dir + 8].copy_from_slice(&(aux as u16).to_le_bytes());
                    data[cursor..cursor + 2].copy_from_slice(&(dict.len() as u16).to_le_bytes());
                    cursor += 2;
                    let mut end = 0usize;
                    for s in dict {
                        end += s.len();
                        data[cursor..cursor + 2].copy_from_slice(&(end as u16).to_le_bytes());
                        cursor += 2;
                    }
                    for s in dict {
                        data[cursor..cursor + s.len()].copy_from_slice(s.as_bytes());
                        cursor += s.len();
                    }
                }
            }
        }
        debug_assert!(cursor <= PAGE_SIZE);
        let ncols = self.cols.len() as u16;
        self.cols = self.types.iter().map(|&t| BuilderCol::new(t)).collect();
        self.nulls = vec![Vec::new(); self.types.len()];
        self.any_null = vec![false; self.types.len()];
        self.rows = 0;
        let sum = qpipe_common::sim::page_sum(&data);
        ColPage { data: Arc::new(data), rows: rows as u16, cols: ncols, sum, cache: Arc::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Block;
    use qpipe_common::DataType;

    fn rows_of(page: &ColPage) -> Vec<Tuple> {
        page.decode().unwrap().to_rows()
    }

    fn schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("d", DataType::Date),
        ])
    }

    fn sample_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                vec![
                    if i % 7 == 0 { Value::Null } else { Value::Int(i) },
                    Value::Float(i as f64 * 0.5),
                    if i % 5 == 0 { Value::Null } else { Value::str(format!("s{}", i % 3)) },
                    Value::Date((i % 900) as i32),
                ]
            })
            .collect()
    }

    #[test]
    fn round_trip_with_nulls_and_dictionary() {
        let rows = sample_rows(100);
        let mut b = ColPageBuilder::new(&schema());
        for r in &rows {
            b.append(r).unwrap();
        }
        let page = b.finish();
        assert_eq!(page.num_rows(), 100);
        assert_eq!(rows_of(&page), rows);
        // The decoded batch is typed, not Mixed.
        let batch = page.decode().unwrap();
        assert!(matches!(batch.col(0).unwrap().data(), ColumnData::Int64(_)));
        assert!(matches!(batch.col(2).unwrap().data(), ColumnData::Str { .. }));
    }

    /// Each column is cached on its own and shared by every clone: a
    /// pruned decode fills the cache, a clone's second decode of a column
    /// shares it, and a decode of the whole page takes the cached ones.
    #[test]
    fn decoded_columns_are_cached_and_shared_by_clones() {
        let mut b = ColPageBuilder::new(&schema());
        for r in sample_rows(10) {
            b.append(&r).unwrap();
        }
        let page = b.finish();
        let decode = |cols: Option<&[usize]>| Block::from(page.clone()).decode(cols).unwrap();
        let pruned = decode(Some(&[3, 0]));
        let again = decode(Some(&[3]));
        assert!(
            Arc::ptr_eq(&pruned.columns()[0], &again.columns()[0]),
            "a pruned decode is cached"
        );
        let all = decode(None);
        assert!(Arc::ptr_eq(&all.columns()[3], &pruned.columns()[0]));
        assert!(Arc::ptr_eq(&all.columns()[0], &pruned.columns()[1]));
        for (x, y) in all.columns().iter().zip(decode(None).columns()) {
            assert!(Arc::ptr_eq(x, y), "clones share each decoded column");
        }
    }

    #[test]
    fn dictionary_interns_distinct_strings_once() {
        let mut b = ColPageBuilder::new(&Schema::of(&[("s", DataType::Str)]));
        for i in 0..200 {
            b.append(&vec![Value::str(if i % 2 == 0 { "even" } else { "odd" })]).unwrap();
        }
        let page = b.finish();
        let batch = page.decode().unwrap();
        let col = batch.col(0).unwrap();
        let ColumnData::Str { dict, codes } = col.data() else { panic!("typed str col") };
        assert_eq!(codes[0], codes[198], "equal strings share one code");
        assert_ne!(codes[0], codes[1]);
        assert_eq!(dict.len(), 2, "the dictionary holds each distinct value once");
        assert_eq!(col.value(1), Value::str("odd"));
    }

    #[test]
    fn builder_rejects_nonconformant_tuples() {
        let mut b = ColPageBuilder::new(&schema());
        assert!(b.append(&vec![Value::Int(1)]).is_err(), "wrong width");
        assert!(
            b.append(&vec![Value::str("x"), Value::Float(0.0), Value::str("y"), Value::Date(0)])
                .is_err(),
            "type mismatch"
        );
        // NULL conforms everywhere.
        b.append(&vec![Value::Null, Value::Null, Value::Null, Value::Null]).unwrap();
    }

    #[test]
    fn page_fills_up_and_fits_is_exact() {
        let mut b = ColPageBuilder::new(&schema());
        let row = vec![Value::Int(1), Value::Float(2.0), Value::str("abcdefgh"), Value::Date(3)];
        let mut n = 0;
        while b.fits(&row) {
            b.append(&row).unwrap();
            n += 1;
        }
        assert!(n > 300, "8 KiB should hold hundreds of 22-byte rows, got {n}");
        assert!(b.append(&row).is_err());
        let page = b.finish();
        assert_eq!(page.num_rows(), n);
        assert_eq!(rows_of(&page).len(), n);
    }

    #[test]
    fn empty_page_round_trips() {
        let mut b = ColPageBuilder::new(&schema());
        let page = b.finish();
        assert_eq!(page.num_rows(), 0);
        assert!(rows_of(&page).is_empty());
    }

    #[test]
    fn builder_is_reusable_after_finish() {
        let mut b = ColPageBuilder::new(&schema());
        b.append(&sample_rows(1)[0]).unwrap();
        let first = b.finish();
        assert_eq!(first.num_rows(), 1);
        assert_eq!(b.num_rows(), 0);
        b.append(&sample_rows(1)[0]).unwrap();
        assert_eq!(b.finish().num_rows(), 1);
    }

    #[test]
    fn corrupt_pages_error_not_panic() {
        assert!(ColPage::from_bytes(Arc::new(vec![0u8; 16])).is_err(), "short buffer");
        assert!(ColPage::from_bytes(Arc::new(vec![0u8; PAGE_SIZE])).is_err(), "bad magic");
        // Valid header, garbage directory: decode must error.
        let mut data = vec![0u8; PAGE_SIZE];
        data[0..2].copy_from_slice(&COLPAGE_MAGIC.to_le_bytes());
        data[2..4].copy_from_slice(&100u16.to_le_bytes()); // 100 rows
        data[4..6].copy_from_slice(&1u16.to_le_bytes()); // 1 col
        data[6] = 99; // unknown type tag
        let page = ColPage::from_bytes(Arc::new(data)).unwrap();
        assert!(page.decode().is_err());
        // Out-of-bounds data offset.
        let mut data = vec![0u8; PAGE_SIZE];
        data[0..2].copy_from_slice(&COLPAGE_MAGIC.to_le_bytes());
        data[2..4].copy_from_slice(&2000u16.to_le_bytes());
        data[4..6].copy_from_slice(&1u16.to_le_bytes());
        data[6] = TY_INT;
        data[10..12].copy_from_slice(&8000u16.to_le_bytes()); // int region past EOF
        let page = ColPage::from_bytes(Arc::new(data)).unwrap();
        assert!(page.decode().is_err());
    }

    #[test]
    fn checksum_detects_single_bit_corruption() {
        let mut b = ColPageBuilder::new(&schema());
        for r in sample_rows(50) {
            b.append(&r).unwrap();
        }
        let page = b.finish();
        assert!(page.verify_checksum());
        Block::from(page.clone()).decode(None).unwrap(); // warm the clean page's decode cache
        let bad = page.corrupted_copy(12345);
        assert!(!bad.verify_checksum(), "flipped bit must fail verification");
        assert!(page.verify_checksum(), "clean page unaffected");
        assert!(bad.cache.get().is_none(), "corrupt copy must not inherit the clean decode cache");
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let mut b = ColPageBuilder::new(&schema());
        for r in sample_rows(50) {
            b.append(&r).unwrap();
        }
        let mut page = b.finish();
        for bit in 0..PAGE_SIZE * 8 {
            let flip =
                |page: &mut ColPage| Arc::make_mut(&mut page.data)[bit / 8] ^= 1 << (bit % 8);
            flip(&mut page);
            assert!(!page.verify_checksum(), "bit {bit}");
            flip(&mut page);
        }
        assert!(page.verify_checksum(), "every flip undone");
    }

    #[test]
    fn all_null_string_column_round_trips() {
        let mut b = ColPageBuilder::new(&Schema::of(&[("s", DataType::Str)]));
        for _ in 0..9 {
            b.append(&vec![Value::Null]).unwrap();
        }
        let page = b.finish();
        assert_eq!(rows_of(&page), vec![vec![Value::Null]; 9]);
    }
}
