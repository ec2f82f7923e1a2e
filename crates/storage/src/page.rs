//! Slotted pages and the binary tuple codec.
//!
//! Pages are the unit of disk I/O and of buffer-pool caching. A page holds
//! variable-length records in a classic slotted layout: records grow from the
//! front, a slot directory of `(offset, len)` pairs grows from the back.
//! Tuples are serialized with a compact tagged binary codec so that page
//! occupancy — and therefore block counts, the paper's Figure 8 metric — is
//! realistic for the workload schemas.
//!
//! Reads walk that codec in one place (`RecordReader`) and come out in two
//! shapes: tuples ([`Page::decode_tuples`], the iterator engine's path) or,
//! for the staged engine's scanner, typed columns of just the columns asked
//! for ([`Page::decode_cols`]) — no tuple per row on the way.
//!
//! Both reads are pure decoders. A slotted page carries a decode cache only
//! as the buffer pool's resident copy (its *frame*): every clone of the
//! frame shares it, and [`Block::decode`](crate::disk::Block::decode) — the
//! one routine a columnar page's cache goes through too — serves a column
//! some visit decoded as an `Arc` bump. Any other page — one being built,
//! the disk's stored copy, the copy a missing reader is handed — has no
//! cache. The tuple path never reads or fills it.

use crate::disk::ColCache;
use qpipe_common::colbatch::{ColBatch, Column, ColumnBuilder};
use qpipe_common::sim::{fnv_word, page_sum};
use qpipe_common::{QError, QResult, Tuple, Value};
use std::sync::Arc;

/// Page size in bytes (8 KiB, BerkeleyDB's default).
pub const PAGE_SIZE: usize = 8192;

const SLOT_BYTES: usize = 4; // u16 offset + u16 len

/// The largest record an empty page holds.
pub(crate) const MAX_RECORD: usize = PAGE_SIZE - SLOT_BYTES;

/// A slotted page.
#[derive(Debug, Clone)]
pub struct Page {
    data: Arc<Vec<u8>>,
    /// (offset, len) per record, kept decoded for fast access.
    slots: Vec<(u16, u16)>,
    /// Next free byte at the front.
    free_start: usize,
    /// Checksum sealed at disk-write time; `None` while the page is still
    /// being built (mutations invalidate any seal).
    stored_sum: Option<u64>,
    /// The decode cache, shared by every clone of a buffer-pool frame
    /// ([`framed`](Self::framed)); `None` on any other page.
    pub(crate) cache: Option<Arc<ColCache>>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    pub fn new() -> Self {
        Self {
            data: Arc::new(vec![0; PAGE_SIZE]),
            slots: Vec::new(),
            free_start: 0,
            stored_sum: None,
            cache: None,
        }
    }

    /// A copy with an empty decode cache — what the buffer pool installs as
    /// a page's frame. Its clones share the cache.
    pub(crate) fn framed(&self) -> Self {
        Self { cache: Some(Arc::default()), ..self.clone() }
    }

    /// Checksum over payload bytes and the slot directory: [`page_sum`] of
    /// the payload, then each `(offset, len)` slot folded in as one word.
    fn compute_sum(&self) -> u64 {
        let h = page_sum(&self.data[..self.free_start]);
        self.slots
            .iter()
            .fold(h, |h, &(off, len)| fnv_word(h, u64::from(off) | u64::from(len) << 16))
    }

    /// Seal the page: record its current checksum (called by the disk on
    /// write, the moment the page becomes durable).
    pub fn seal(&mut self) {
        self.stored_sum = Some(self.compute_sum());
    }

    /// Verify the sealed checksum against the current contents. Unsealed
    /// pages (never written through the disk) trivially pass.
    pub fn verify_checksum(&self) -> bool {
        self.stored_sum.is_none_or(|s| s == self.compute_sum())
    }

    /// Flip one payload bit without touching the seal — test/fault-injection
    /// hook producing a detectably corrupt page.
    pub fn corrupt_bit(&mut self, bit: u64) {
        let span = self.free_start.max(1) as u64 * 8;
        let bit = bit % span;
        let data = Arc::make_mut(&mut self.data);
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
        self.cache = None; // nothing decoded from the old bytes is served
    }

    /// Number of records on the page.
    pub fn num_records(&self) -> usize {
        self.slots.len()
    }

    /// Free space remaining, accounting for one more slot entry.
    pub fn free_space(&self) -> usize {
        PAGE_SIZE
            .saturating_sub(self.free_start)
            .saturating_sub((self.slots.len() + 1) * SLOT_BYTES)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len <= self.free_space()
    }

    /// Append a record; errors if it does not fit.
    pub fn append_record(&mut self, rec: &[u8]) -> QResult<u16> {
        if !self.fits(rec.len()) {
            return Err(QError::Storage(format!(
                "record of {} bytes does not fit ({} free)",
                rec.len(),
                self.free_space()
            )));
        }
        if rec.len() > u16::MAX as usize {
            return Err(QError::Storage("record larger than 64 KiB".into()));
        }
        let data = Arc::make_mut(&mut self.data);
        data[self.free_start..self.free_start + rec.len()].copy_from_slice(rec);
        let slot = self.slots.len() as u16;
        self.slots.push((self.free_start as u16, rec.len() as u16));
        self.free_start += rec.len();
        self.stored_sum = None; // mutation invalidates any seal
        self.cache = None;
        Ok(slot)
    }

    /// Read record `slot`.
    pub fn record(&self, slot: u16) -> QResult<&[u8]> {
        let (off, len) = *self
            .slots
            .get(slot as usize)
            .ok_or_else(|| QError::Storage(format!("no slot {slot}")))?;
        Ok(&self.data[off as usize..(off + len) as usize])
    }

    /// Iterate over all records.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.slots.iter().map(move |&(off, len)| &self.data[off as usize..(off + len) as usize])
    }

    /// Decode every record on the page as a tuple (the iterator engine's
    /// read path, through `Block::rows`).
    pub fn decode_tuples(&self) -> QResult<Vec<Tuple>> {
        self.records().map(decode_tuple).collect()
    }

    /// The widest record's arity: the column count of
    /// `ColBatch::from_rows(&self.decode_tuples()?)`. Errs on a record whose
    /// header is truncated or claims more values than its bytes can hold —
    /// `decode_tuples` fails on such a record too.
    pub fn width(&self) -> QResult<usize> {
        self.records().try_fold(0, |width, rec| {
            let arity = RecordReader::new(rec)?.left;
            if arity > rec.len() - 2 {
                return Err(QError::Storage(format!(
                    "tuple header claims {arity} values in {} bytes",
                    rec.len()
                )));
            }
            Ok(width.max(arity))
        })
    }

    /// Decode the named columns (every column for `None`), in the given
    /// order, straight into typed columns — the slotted twin of
    /// [`ColPage::decode_cols`](crate::colpage::ColPage::decode_cols). It
    /// reads no cache: [`Block::decode`](crate::disk::Block::decode) keeps
    /// one over it for the pool's frame.
    ///
    /// Each record's tag stream is walked once. Values of columns not named
    /// are stepped over, but their tags, lengths and UTF-8 are checked all
    /// the same, so this fails exactly when `decode_tuples` does — and also
    /// when a named column is at or past [`width`](Self::width). A record
    /// shorter than a named column yields NULL there. The result equals
    /// `ColBatch::from_rows(&self.decode_tuples()?)` projected onto `cols`,
    /// `ColumnData` variant for variant ([`ColumnBuilder::push`]'s rule);
    /// only the allocations differ: no tuple per row, and each string goes
    /// straight from the page bytes into its column's dictionary
    /// ([`ColumnBuilder::push_str`]) — one `Arc<str>` per distinct string of
    /// a column, and a `u32` code per row. A column named twice is decoded
    /// once and shared by both positions.
    pub fn decode_cols(&self, cols: Option<&[usize]>) -> QResult<ColBatch> {
        let width = self.width()?;
        let order: Vec<usize> = cols.map_or_else(|| (0..width).collect(), <[usize]>::to_vec);
        if let Some(&c) = order.iter().find(|&&c| c >= width) {
            return Err(QError::Storage(format!("column {c} beyond slotted page width {width}")));
        }
        let mut distinct = order.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let decoded: Vec<Arc<Column>> =
            self.decode_columns(width, &distinct)?.into_iter().map(Arc::new).collect();
        let columns = order
            .iter()
            .filter_map(|c| distinct.binary_search(c).ok().map(|k| decoded[k].clone()))
            .collect();
        Ok(ColBatch::from_shared(self.num_records(), columns))
    }

    /// Decode the distinct columns `cols`, each below `width`, in one walk
    /// of every record — which checks every value, named or not.
    fn decode_columns(&self, width: usize, cols: &[usize]) -> QResult<Vec<Column>> {
        let mut builder_of: Vec<Option<usize>> = vec![None; width];
        for (k, &c) in cols.iter().enumerate() {
            builder_of[c] = Some(k);
        }
        let rows = self.num_records();
        let mut builders: Vec<ColumnBuilder> =
            cols.iter().map(|_| ColumnBuilder::with_capacity(rows)).collect();
        for rec in self.records() {
            let mut reader = RecordReader::new(rec)?;
            let arity = reader.left;
            let mut c = 0;
            while let Some(slot) = reader.next_slot()? {
                if let Some(k) = builder_of[c] {
                    match slot {
                        Slot::Str(s) => builders[k].push_str(s),
                        other => builders[k].push(other.into_value()),
                    }
                }
                c += 1;
            }
            for (&col, builder) in cols.iter().zip(&mut builders) {
                if col >= arity {
                    builder.push(Value::Null);
                }
            }
        }
        Ok(builders.into_iter().map(ColumnBuilder::finish).collect())
    }
}

// ---------------------------------------------------------------------------
// Tuple codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

/// Serialize a tuple into `out` (cleared first is the caller's business).
pub fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for v in tuple {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
}

/// Serialized length of a tuple without encoding it.
pub fn encoded_len(tuple: &Tuple) -> usize {
    2 + tuple
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Str(s) => 3 + s.len(),
            Value::Date(_) => 5,
        })
        .sum::<usize>()
}

/// Deserialize a tuple from bytes.
pub fn decode_tuple(buf: &[u8]) -> QResult<Tuple> {
    let mut reader = RecordReader::new(buf)?;
    let mut tuple = Vec::with_capacity(reader.left);
    while let Some(slot) = reader.next_slot()? {
        tuple.push(slot.into_value());
    }
    Ok(tuple)
}

/// One value of a record, borrowed from the page bytes.
enum Slot<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Date(i32),
}

impl Slot<'_> {
    fn into_value(self) -> Value {
        match self {
            Slot::Null => Value::Null,
            Slot::Int(x) => Value::Int(x),
            Slot::Float(x) => Value::Float(x),
            Slot::Str(s) => Value::str(s),
            Slot::Date(d) => Value::Date(d),
        }
    }
}

/// A cursor over one record's tag stream — the codec's one statement of
/// what a well-formed record is. Every slot it yields has had its tag, its
/// length and (strings) its UTF-8 checked, so a reader that drops a slot has
/// still validated it: the tuple and the column decoder fail on exactly the
/// same records.
struct RecordReader<'a> {
    buf: &'a [u8],
    /// Values not yet read (the header's arity before the first read).
    left: usize,
}

impl<'a> RecordReader<'a> {
    fn new(buf: &'a [u8]) -> QResult<Self> {
        let (arity, buf) = buf
            .split_first_chunk::<2>()
            .ok_or_else(|| QError::Storage("truncated tuple header".into()))?;
        Ok(Self { buf, left: u16::from_le_bytes(*arity) as usize })
    }

    fn next_slot(&mut self) -> QResult<Option<Slot<'a>>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let tag = self.take::<1>("truncated tuple value tag")?[0];
        Ok(Some(match tag {
            TAG_NULL => Slot::Null,
            TAG_INT => Slot::Int(i64::from_le_bytes(self.take("truncated int")?)),
            TAG_FLOAT => Slot::Float(f64::from_le_bytes(self.take("truncated float")?)),
            TAG_STR => {
                let len = u16::from_le_bytes(self.take("truncated string length")?) as usize;
                let (body, rest) = self
                    .buf
                    .split_at_checked(len)
                    .ok_or_else(|| QError::Storage("truncated string body".into()))?;
                self.buf = rest;
                Slot::Str(
                    std::str::from_utf8(body)
                        .map_err(|e| QError::Storage(format!("invalid utf8: {e}")))?,
                )
            }
            TAG_DATE => Slot::Date(i32::from_le_bytes(self.take("truncated date")?)),
            other => return Err(QError::Storage(format!("unknown value tag {other}"))),
        }))
    }

    fn take<const N: usize>(&mut self, truncated: &str) -> QResult<[u8; N]> {
        let (head, rest) =
            self.buf.split_first_chunk::<N>().ok_or_else(|| QError::Storage(truncated.into()))?;
        self.buf = rest;
        Ok(*head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> Tuple {
        vec![
            Value::Int(-42),
            Value::Float(3.5),
            Value::str("hello world"),
            Value::Date(12345),
            Value::Null,
        ]
    }

    #[test]
    fn codec_round_trip() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        assert_eq!(buf.len(), encoded_len(&t));
        let back = decode_tuple(&buf).unwrap();
        assert_eq!(back, t);
    }

    /// The record format, byte for byte: a `u16` arity, then per value a tag
    /// and its little-endian payload.
    #[test]
    fn encoding_is_tagged_little_endian() {
        let t =
            vec![Value::Int(-2), Value::Float(0.5), Value::str("ab"), Value::Date(3), Value::Null];
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let mut want = vec![5, 0, TAG_INT, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff];
        want.extend([TAG_FLOAT, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f, TAG_STR, 2, 0, b'a', b'b']);
        want.extend([TAG_DATE, 3, 0, 0, 0, TAG_NULL]);
        assert_eq!(buf, want);
    }

    #[test]
    fn decode_rejects_truncation() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(decode_tuple(&buf[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn page_append_and_read() {
        let mut p = Page::new();
        let s0 = p.append_record(b"abc").unwrap();
        let s1 = p.append_record(b"defg").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.record(0).unwrap(), b"abc");
        assert_eq!(p.record(1).unwrap(), b"defg");
        assert!(p.record(2).is_err());
        assert_eq!(p.records().count(), 2);
    }

    #[test]
    fn page_fills_up() {
        let mut p = Page::new();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.append_record(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 7, "expected at least 7 x 1000B records in 8 KiB, got {n}");
        assert!(p.append_record(&rec).is_err());
        // Small record still fits in the tail.
        assert!(p.fits(10));
    }

    #[test]
    fn page_tuples_round_trip() {
        let mut p = Page::new();
        let mut buf = Vec::new();
        for i in 0..10 {
            buf.clear();
            encode_tuple(&vec![Value::Int(i), Value::str(format!("row{i}"))], &mut buf);
            p.append_record(&buf).unwrap();
        }
        let tuples = p.decode_tuples().unwrap();
        assert_eq!(tuples.len(), 10);
        assert_eq!(tuples[3][0], Value::Int(3));
        assert_eq!(tuples[9][1], Value::str("row9"));
    }

    #[test]
    fn checksum_seal_verify_and_corrupt() {
        let mut p = Page::new();
        p.append_record(b"hello").unwrap();
        assert!(p.verify_checksum(), "unsealed page trivially passes");
        p.seal();
        assert!(p.verify_checksum());
        // Mutation invalidates the seal (page goes back to trivially-valid).
        let mut grown = p.clone();
        grown.append_record(b"more").unwrap();
        assert!(grown.verify_checksum());
        // A flipped bit under an intact seal is detected.
        let mut bad = p.clone();
        bad.corrupt_bit(3);
        assert!(!bad.verify_checksum(), "corruption must fail verification");
        assert!(p.verify_checksum(), "clone corruption must not leak back");
    }

    fn page_of(rows: &[Tuple]) -> Page {
        let mut p = Page::new();
        let mut buf = Vec::new();
        for r in rows {
            buf.clear();
            encode_tuple(r, &mut buf);
            p.append_record(&buf).unwrap();
        }
        p
    }

    #[test]
    fn decode_cols_is_from_rows_of_decode_tuples_projected() {
        use qpipe_common::colbatch::ColumnData;
        // Ragged records; column 1 two-typed, column 2 NULL-leading then
        // typed, column 3 present in one record only.
        let rows = vec![
            vec![Value::Int(1), Value::str("a"), Value::Null],
            vec![Value::Int(2), Value::Int(7), Value::Date(3), Value::Float(0.5)],
            vec![Value::Null],
            vec![Value::Int(4), Value::str("a"), Value::Date(5)],
        ];
        let p = page_of(&rows);
        let full = ColBatch::from_rows(&p.decode_tuples().unwrap());
        assert_eq!(p.width().unwrap(), 4);
        assert_eq!(p.decode_cols(None).unwrap(), full);
        for cols in [vec![], vec![3], vec![2, 0], vec![1, 1, 3]] {
            let got = p.decode_cols(Some(&cols)).unwrap();
            assert_eq!(got, full.project(&cols), "{cols:?}");
            assert_eq!(got.len(), 4);
        }
        let typed = p.decode_cols(Some(&[2])).unwrap();
        assert!(matches!(typed.col(0).unwrap().data(), ColumnData::Date(_)));
        assert!(typed.col(0).unwrap().is_null(0) && typed.col(0).unwrap().is_null(2));
        assert!(matches!(
            p.decode_cols(Some(&[1])).unwrap().col(0).unwrap().data(),
            ColumnData::Mixed(_)
        ));
        assert!(p.decode_cols(Some(&[4])).is_err(), "past the widest record");
        assert!(Page::new().decode_cols(Some(&[0])).is_err(), "an empty page has width 0");
        assert_eq!(Page::new().decode_cols(None).unwrap().len(), 0);
    }

    #[test]
    fn decode_cols_interns_strings_per_column() {
        use qpipe_common::colbatch::ColumnData;
        let rows: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::str(["AIR", "MAIL", "SHIP"][i % 3]), Value::str(format!("c{i}"))])
            .collect();
        let p = page_of(&rows);
        let b = p.decode_cols(None).unwrap();
        let ColumnData::Str { dict, codes } = b.col(0).unwrap().data() else { panic!("typed str") };
        assert!(codes[0] == codes[3] && codes[1] == codes[97], "equal strings share one code");
        assert_eq!(dict.len(), 3, "the dictionary holds each distinct value once");
        let ColumnData::Str { dict, .. } = b.col(1).unwrap().data() else { panic!("typed str") };
        assert_eq!(dict.len(), 100);
        assert_eq!(b, ColBatch::from_rows(&rows));
    }

    #[test]
    fn decode_cols_fails_where_decode_tuples_fails_even_on_skipped_columns() {
        let mut rec = Vec::new();
        encode_tuple(&vec![Value::Int(1), Value::str("ok"), Value::Date(2)], &mut rec);
        let at = rec.len() - 5 - 2; // the string body
        rec[at] = 0xFF; // not UTF-8
        let mut p = page_of(&[vec![Value::Int(0), Value::str("x"), Value::Date(1)]]);
        p.append_record(&rec).unwrap();
        assert!(p.decode_tuples().is_err());
        assert!(p.decode_cols(Some(&[0])).is_err(), "the skipped string is still checked");
        let mut q = Page::new();
        q.append_record(&[0xFF, 0xFF, 0x01]).unwrap(); // claims 65535 values
        assert!(q.decode_tuples().is_err() && q.width().is_err() && q.decode_cols(None).is_err());
    }

    #[test]
    fn a_frame_decodes_each_column_once_and_still_checks_the_width() {
        use crate::disk::Block;
        use std::sync::OnceLock;
        let read = |p: &Page, cols: Option<&[usize]>| Block::Slotted(p.clone()).decode(cols);
        let rows = vec![
            vec![Value::Int(1), Value::str("a"), Value::Null],
            vec![Value::Int(2), Value::Int(7), Value::Date(3)],
            vec![Value::Null],
        ];
        let uncached = page_of(&rows);
        let (x, y) = (read(&uncached, Some(&[0])).unwrap(), read(&uncached, Some(&[0])).unwrap());
        assert!(!Arc::ptr_eq(&x.columns()[0], &y.columns()[0]), "no cache, no sharing");
        let frame = uncached.framed();
        let a = read(&frame, Some(&[2])).unwrap();
        let b = read(&frame, Some(&[0, 2, 0])).unwrap();
        assert!(Arc::ptr_eq(&a.columns()[0], &b.columns()[1]), "a clone shares the cache");
        assert!(Arc::ptr_eq(&b.columns()[0], &b.columns()[2]), "a repeat is one decode");
        assert_eq!(*b, uncached.decode_cols(Some(&[0, 2, 0])).unwrap());
        assert!(read(&frame, Some(&[0, 3])).is_err(), "past the width, cached or not");
        assert_eq!(*read(&frame, None).unwrap(), uncached.decode_cols(None).unwrap());
        let mut grown = frame.clone();
        grown.append_record(&[1, 0, TAG_INT, 9, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        let col = read(&grown, Some(&[0])).unwrap();
        assert_eq!(col.len(), 4, "a mutated page drops its cache");

        let mut bad = page_of(&rows);
        bad.append_record(&[1, 0, 0xEE]).unwrap(); // an unknown tag
        let bad = bad.framed();
        for cols in [Some(&[0][..]), Some(&[][..]), None] {
            assert!(read(&bad, cols).is_err(), "{cols:?}");
        }
        assert!(bad.cache.as_deref().and_then(OnceLock::get).is_none(), "a failure caches nothing");
    }

    #[test]
    fn checksum_catches_every_single_bit_flip_and_slot_change() {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| vec![Value::Int(i), Value::str(format!("r{i}")), Value::Float(i as f64)])
            .collect();
        let mut p = page_of(&rows);
        p.seal();
        for bit in 0..p.free_start as u64 * 8 {
            p.corrupt_bit(bit);
            assert!(!p.verify_checksum(), "bit {bit}");
            p.corrupt_bit(bit);
        }
        assert!(p.verify_checksum(), "every flip undone");
        for i in [0, 17, 39] {
            let mut q = p.clone();
            q.slots[i].1 -= 1;
            assert!(!q.verify_checksum(), "slot {i} length");
            let mut q = p.clone();
            q.slots.swap(i, (i + 1) % 40);
            assert!(!q.verify_checksum(), "slot {i} order");
        }
    }

    #[test]
    fn clone_is_cheap_and_cow() {
        let mut p = Page::new();
        p.append_record(b"x").unwrap();
        let snapshot = p.clone();
        p.append_record(b"y").unwrap();
        assert_eq!(snapshot.num_records(), 1);
        assert_eq!(p.num_records(), 2);
    }
}
