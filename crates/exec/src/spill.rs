//! Temp-file spill for the staged engine's external sort and grace hash join.
//!
//! Spilled runs are written as pages to freshly created files on the
//! simulated disk and read back sequentially. Temp reads bypass the buffer
//! pool (like real engines, which use private I/O buffers for sort runs) but
//! still charge disk latency and count as I/O.
//!
//! There is one run format, the **columnar run** ([`ColRunWriter`] /
//! [`ColRunHandle`] / [`ColRunReader`]): pages of *chunk* records, each a
//! serialized [`ColBatch`] slice (typed value regions + packed null bitmaps;
//! `Mixed` columns reuse the tuple value codec).
//! [`VecSort`](crate::vsort::VecSort) and
//! [`grace_hash_join`](crate::viter::grace_hash_join) spill these without
//! materializing tuples.
//!
//! **Lifecycle:** every run file is owned by an [`Arc`]`<TempFile>` that
//! deletes the file from the disk when the last handle (writer, run handle,
//! or reader — cloned freely) drops. Completed, cancelled, and failed
//! queries all return spill storage to baseline; nothing leaks for the life
//! of the engine.

use qpipe_common::colbatch::{ColBatch, Column, ColumnBuilder, ColumnData, NullBitmap};
use qpipe_common::{QError, QResult, Tuple};
use qpipe_storage::page::{decode_tuple, encode_tuple, Page};
use qpipe_storage::{FileId, SimDisk};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The name prefix every run file carries, and no table's name does.
pub const RUN_FILE_PREFIX: &str = "__tmp.";

/// Create a uniquely named temp file on the disk.
fn create_temp(disk: &Arc<SimDisk>, label: &str) -> QResult<FileId> {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    disk.create_file(&format!("{RUN_FILE_PREFIX}{label}.{n}"))
}

/// The names of the run files live on `disk`, sorted: empty once every
/// spilling operator has dropped its runs.
pub fn run_files(disk: &SimDisk) -> Vec<String> {
    let mut runs: Vec<String> =
        disk.file_names().into_iter().filter(|n| n.starts_with(RUN_FILE_PREFIX)).collect();
    runs.sort();
    runs
}

/// RAII handle to one temp file: the file is deleted from the disk when the
/// last clone of the owning `Arc` drops. Writers hold it directly (so a
/// half-written run from a failed push cleans itself up); `finish()` moves
/// it into the run handle, which shares it with every reader.
#[derive(Debug)]
struct TempFile {
    disk: Arc<SimDisk>,
    file: FileId,
}

impl TempFile {
    fn create(disk: Arc<SimDisk>, label: &str) -> QResult<Self> {
        let file = create_temp(&disk, label)?;
        Ok(Self { disk, file })
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        // Engine-owned temp: nothing else holds this FileId, and a missing
        // file (disk torn down first in tests) is not an error worth
        // surfacing from a destructor.
        let _ = self.disk.delete_file(self.file);
    }
}

/// Preferred rows per serialized chunk (halved when a chunk's encoding
/// overflows a page — e.g. very wide strings).
const COL_CHUNK_ROWS: usize = 256;

// Column tags of the chunk record format.
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_DATE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_MIXED: u8 = 4;

/// Writes [`ColBatch`] chunks into pages of a temp file. Each page holds one
/// or more *chunk records*: `u32 nrows, u32 ncols`, then per column a type
/// tag, an optional packed null bitmap, and the raw value region (`Mixed`
/// columns serialize through the tuple value codec).
pub struct ColRunWriter {
    temp: TempFile,
    page: Page,
    buf: Vec<u8>,
    rows: u64,
}

impl ColRunWriter {
    pub fn create(disk: Arc<SimDisk>, label: &str) -> QResult<Self> {
        Ok(Self {
            temp: TempFile::create(disk, label)?,
            page: Page::new(),
            buf: Vec::new(),
            rows: 0,
        })
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Append every row of `batch`, chunking adaptively so each record fits
    /// a page. Errs when a single row's encoding exceeds an empty page; the
    /// temp file then deletes itself when this writer drops.
    pub fn push_batch(&mut self, batch: &ColBatch) -> QResult<()> {
        let mut start = 0;
        // The adapted chunk size carries across windows: once the row width
        // forces a halving, later windows start from the size that fit
        // instead of re-descending (and re-encoding) the whole ladder.
        let mut n = COL_CHUNK_ROWS;
        while start < batch.len() {
            n = n.min(batch.len() - start);
            self.buf.clear();
            encode_chunk(batch, start, n, &mut self.buf);
            loop {
                if self.page.fits(self.buf.len()) {
                    self.page.append_record(&self.buf)?;
                    break;
                }
                if self.page.num_records() > 0 {
                    // Flushing frees a whole page; `buf` is unchanged, so no
                    // re-encode is needed before retrying.
                    let full = std::mem::take(&mut self.page);
                    self.temp.disk.append_block(self.temp.file, full)?;
                    continue;
                }
                if n > 1 {
                    n /= 2;
                    self.buf.clear();
                    encode_chunk(batch, start, n, &mut self.buf);
                    continue;
                }
                return Err(QError::Exec(format!(
                    "spill row of {} encoded bytes exceeds the page size",
                    self.buf.len()
                )));
            }
            start += n;
            self.rows += n as u64;
        }
        Ok(())
    }

    /// Flush the tail page and return the run handle.
    pub fn finish(mut self) -> QResult<ColRunHandle> {
        if self.page.num_records() > 0 {
            let tail = std::mem::take(&mut self.page);
            self.temp.disk.append_block(self.temp.file, tail)?;
        }
        Ok(ColRunHandle { file: Arc::new(self.temp), rows: self.rows })
    }
}

/// A completed columnar run. Clones share the underlying temp file; it is
/// deleted when the last handle (or reader) drops.
#[derive(Debug, Clone)]
pub struct ColRunHandle {
    file: Arc<TempFile>,
    rows: u64,
}

impl ColRunHandle {
    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn reader(&self) -> ColRunReader {
        ColRunReader { file: self.file.clone(), next_block: 0, pending: VecDeque::new() }
    }
}

/// Sequential batch reader over a columnar run.
pub struct ColRunReader {
    file: Arc<TempFile>,
    next_block: u64,
    pending: VecDeque<ColBatch>,
}

impl ColRunReader {
    /// Pull the next chunk as a [`ColBatch`]; `None` at end of run.
    pub fn next_batch(&mut self) -> QResult<Option<ColBatch>> {
        loop {
            if let Some(b) = self.pending.pop_front() {
                return Ok(Some(b));
            }
            let (disk, file) = (&self.file.disk, self.file.file);
            if self.next_block >= disk.num_blocks(file)? {
                return Ok(None);
            }
            let page = disk.read_block(file, self.next_block)?.into_slotted()?;
            self.next_block += 1;
            for rec in page.records() {
                self.pending.push_back(decode_chunk(rec)?);
            }
        }
    }
}

/// Serialize rows `[start, start + n)` of `batch` as one chunk record.
fn encode_chunk(batch: &ColBatch, start: usize, n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(batch.num_cols() as u32).to_le_bytes());
    for col in batch.columns() {
        let rows = start..start + n;
        match col.data() {
            ColumnData::Mixed(v) => {
                out.push(TAG_MIXED);
                // A column slice *is* a Vec<Value>, which is what the tuple
                // codec serializes — reuse it (handles inline NULLs).
                let values: Tuple = v[rows].to_vec();
                let mark = out.len();
                out.extend_from_slice(&0u32.to_le_bytes());
                encode_tuple(&values, out);
                let len = (out.len() - mark - 4) as u32;
                out[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
            }
            ColumnData::Int64(v) => {
                typed_header(col, TAG_INT, start, n, out);
                v[rows].iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
            }
            ColumnData::Float64(v) => {
                typed_header(col, TAG_FLOAT, start, n, out);
                v[rows].iter().for_each(|x| out.extend_from_slice(&x.to_bits().to_le_bytes()));
            }
            ColumnData::Date(v) => {
                typed_header(col, TAG_DATE, start, n, out);
                v[rows].iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
            }
            ColumnData::Str { dict, codes } => {
                typed_header(col, TAG_STR, start, n, out);
                // Each row's string in full; a NULL row's is empty.
                for (r, &code) in rows.clone().zip(&codes[rows]) {
                    let s: &str = if col.is_null(r) { "" } else { &dict[code as usize] };
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

/// A typed column's chunk header: its tag, whether any of rows
/// `[start, start + n)` is NULL, and if so their packed null bitmap.
fn typed_header(col: &Column, tag: u8, start: usize, n: usize, out: &mut Vec<u8>) {
    out.push(tag);
    let any_null = (0..n).any(|i| col.is_null(start + i));
    out.push(any_null as u8);
    if any_null {
        let mut bits = vec![0u8; n.div_ceil(8)];
        for i in 0..n {
            if col.is_null(start + i) {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bits);
    }
}

/// Decode one chunk record back into a [`ColBatch`]. A string column reloads
/// through [`ColumnBuilder::push_str`], so it has one dictionary per chunk,
/// and stays `Str` when every row of the chunk is NULL.
fn decode_chunk(mut rec: &[u8]) -> QResult<ColBatch> {
    fn truncated() -> QError {
        QError::Storage("truncated spill chunk record".into())
    }
    fn take<'a>(rec: &mut &'a [u8], n: usize) -> QResult<&'a [u8]> {
        let (head, tail) = rec.split_at_checked(n).ok_or_else(truncated)?;
        *rec = tail;
        Ok(head)
    }
    fn take_n<const N: usize>(rec: &mut &[u8]) -> QResult<[u8; N]> {
        let (head, tail) = rec.split_first_chunk::<N>().ok_or_else(truncated)?;
        *rec = tail;
        Ok(*head)
    }
    fn take_u32(rec: &mut &[u8]) -> QResult<u32> {
        Ok(u32::from_le_bytes(take_n(rec)?))
    }
    let n = take_u32(&mut rec)? as usize;
    let ncols = take_u32(&mut rec)? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let [tag] = take_n(&mut rec)?;
        if tag == TAG_MIXED {
            let len = take_u32(&mut rec)? as usize;
            let values = decode_tuple(take(&mut rec, len)?)?;
            if values.len() != n {
                return Err(QError::Storage("spill chunk column length mismatch".into()));
            }
            cols.push(Column::new(ColumnData::Mixed(values), None));
            continue;
        }
        let [any_null] = take_n(&mut rec)?;
        let nulls = if any_null != 0 {
            Some(NullBitmap::from_packed_bytes(take(&mut rec, n.div_ceil(8))?, n))
        } else {
            None
        };
        let data = match tag {
            TAG_INT => ColumnData::Int64(
                take(&mut rec, n * 8)?
                    .as_chunks()
                    .0
                    .iter()
                    .map(|&c| i64::from_le_bytes(c))
                    .collect(),
            ),
            TAG_FLOAT => ColumnData::Float64(
                take(&mut rec, n * 8)?
                    .as_chunks()
                    .0
                    .iter()
                    .map(|&c| f64::from_bits(u64::from_le_bytes(c)))
                    .collect(),
            ),
            TAG_DATE => ColumnData::Date(
                take(&mut rec, n * 4)?
                    .as_chunks()
                    .0
                    .iter()
                    .map(|&c| i32::from_le_bytes(c))
                    .collect(),
            ),
            TAG_STR => {
                let mut col = ColumnBuilder::with_capacity(n);
                for i in 0..n {
                    let len = take_u32(&mut rec)? as usize;
                    let s = std::str::from_utf8(take(&mut rec, len)?)
                        .map_err(|_| QError::Storage("spill chunk string not UTF-8".into()))?;
                    match &nulls {
                        Some(bits) if bits.get(i) => col.push_null_str(),
                        _ => col.push_str(s),
                    }
                }
                cols.push(col.finish());
                continue;
            }
            other => {
                return Err(QError::Storage(format!("unknown spill chunk column tag {other}")))
            }
        };
        cols.push(Column::new(data, nulls));
    }
    // Zero-column chunks still carry their row count.
    if cols.is_empty() {
        return Ok(ColBatch::empty_rows(n));
    }
    Ok(ColBatch::from_columns(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::colbatch::ColBatchBuilder;
    use qpipe_common::{Metrics, Value};
    use qpipe_storage::DiskConfig;

    fn disk() -> Arc<SimDisk> {
        SimDisk::new(DiskConfig::instant(), Metrics::new())
    }

    #[test]
    fn temp_names_unique() {
        let disk = disk();
        let baseline = disk.file_count();
        let run = || ColRunWriter::create(disk.clone(), "x").unwrap().finish().unwrap();
        let (a, b) = (run(), run());
        assert_ne!(a.file.file, b.file.file);
        assert_eq!(disk.file_count(), baseline + 2, "one file per run under a shared label");
    }

    #[test]
    fn run_file_deleted_when_last_handle_drops() {
        let disk = disk();
        let baseline = disk.file_count();
        let mut w = ColRunWriter::create(disk.clone(), "lease").unwrap();
        w.push_batch(&ColBatch::from_rows(&[vec![Value::Int(1)]])).unwrap();
        assert_eq!(disk.file_count(), baseline + 1);
        let run = w.finish().unwrap();
        let clone = run.clone();
        let reader = run.reader();
        drop(run);
        assert_eq!(disk.file_count(), baseline + 1, "clone + reader keep the file alive");
        drop(clone);
        assert_eq!(disk.file_count(), baseline + 1, "reader keeps the file alive");
        drop(reader);
        assert_eq!(disk.file_count(), baseline, "last handle dropped ⇒ file deleted");
    }

    #[test]
    fn col_run_round_trips_all_column_shapes() {
        let disk = disk();
        let rows: Vec<Tuple> = (0..700i64)
            .map(|i| {
                vec![
                    if i % 7 == 0 { Value::Null } else { Value::Int(i) },
                    Value::Float(i as f64 * 0.5),
                    if i % 5 == 0 { Value::Null } else { Value::str(format!("s{i}")) },
                    Value::Date(i as i32),
                    // Mixed column with inline NULLs.
                    match i % 3 {
                        0 => Value::Int(i),
                        1 => Value::str("m"),
                        _ => Value::Null,
                    },
                ]
            })
            .collect();
        let batch = ColBatch::from_rows(&rows);
        let mut w = ColRunWriter::create(disk.clone(), "colrun").unwrap();
        w.push_batch(&batch).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 700);
        let mut r = run.reader();
        let mut got: Vec<Tuple> = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            assert!(matches!(b.col(0).unwrap().data(), ColumnData::Int64(_)), "stays typed");
            got.extend(b.to_rows());
        }
        assert_eq!(got, rows);
        drop(r);
        let baseline = disk.file_count();
        drop(run);
        assert_eq!(disk.file_count(), baseline - 1, "columnar run deleted on drop");
    }

    #[test]
    fn col_run_reloads_an_all_null_string_chunk_typed() {
        let disk = disk();
        // The first chunk is NULL in every row, the second holds strings.
        let rows: Vec<Tuple> = (0..COL_CHUNK_ROWS + 40)
            .map(|i| {
                vec![if i < COL_CHUNK_ROWS { Value::Null } else { Value::str(format!("s{i}")) }]
            })
            .collect();
        let mut w = ColRunWriter::create(disk, "nullstr").unwrap();
        w.push_batch(&ColBatch::from_rows(&rows)).unwrap();
        let run = w.finish().unwrap();
        let mut r = run.reader();
        let mut chunks = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            assert!(matches!(b.col(0).unwrap().data(), ColumnData::Str { .. }), "stays typed");
            chunks.push(b);
        }
        assert_eq!(chunks.len(), 2);
        assert!((0..COL_CHUNK_ROWS).all(|i| chunks[0].col(0).unwrap().is_null(i)));
        // A run merge re-emits the rows one slot at a time; the output column
        // stays `Str` across the all-NULL chunk.
        let mut merged = ColBatchBuilder::new();
        for b in &chunks {
            for i in 0..b.len() {
                assert!(merged.push_row_from(b, i));
            }
        }
        let merged = merged.finish();
        assert!(matches!(merged.col(0).unwrap().data(), ColumnData::Str { .. }));
        assert_eq!(merged.to_rows(), rows);
    }

    #[test]
    fn col_run_halves_chunks_for_wide_strings() {
        let disk = disk();
        // ~1 KiB strings: 256 rows ≈ 256 KiB per chunk — far beyond a page,
        // so the writer must recursively halve until chunks fit.
        let rows: Vec<Tuple> = (0..40).map(|i| vec![Value::str(format!("{i:01000}"))]).collect();
        let batch = ColBatch::from_rows(&rows);
        let mut w = ColRunWriter::create(disk, "wide").unwrap();
        w.push_batch(&batch).unwrap();
        let run = w.finish().unwrap();
        let mut r = run.reader();
        let mut got = Vec::new();
        while let Some(b) = r.next_batch().unwrap() {
            got.extend(b.to_rows());
        }
        assert_eq!(got, rows);
    }

    #[test]
    fn col_run_oversized_row_errors_and_deletes_file() {
        let disk = disk();
        let baseline = disk.file_count();
        let rows = vec![vec![Value::str("y".repeat(64 * 1024))]];
        let batch = ColBatch::from_rows(&rows);
        let mut w = ColRunWriter::create(disk.clone(), "huge").unwrap();
        assert!(w.push_batch(&batch).is_err(), "row larger than a page must fail");
        drop(w);
        assert_eq!(disk.file_count(), baseline, "partial columnar run deleted on drop");
    }

    #[test]
    fn col_run_zero_width_batch_keeps_cardinality() {
        let disk = disk();
        let batch = ColBatch::empty_rows(5);
        let mut w = ColRunWriter::create(disk, "zw").unwrap();
        w.push_batch(&batch).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 5);
        let mut r = run.reader();
        let mut rows = 0;
        while let Some(b) = r.next_batch().unwrap() {
            assert_eq!(b.num_cols(), 0);
            rows += b.len();
        }
        assert_eq!(rows, 5);
    }
}
