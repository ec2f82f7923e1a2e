//! Heap files: append-only files of pages holding tuples, in either page
//! layout.
//!
//! A heap file's open tail is a slotted [`Page`] or a [`ColPageBuilder`],
//! chosen by the table's [`StorageLayout`] at [`HeapFile::create`]; that
//! tail is the only place the two layouts differ. Bulk loading packs tuples
//! densely into the tail, which goes to disk as an immutable block when it
//! fills or on [`HeapFile::flush`], so loads are O(1) amortized per tuple.
//! Reading goes through the buffer pool (callers fetch pages by number and
//! decode).

use crate::catalog::StorageLayout;
use crate::colpage::ColPageBuilder;
use crate::disk::{Block, FileId, SimDisk};
use crate::page::{encode_tuple, encoded_len, Page, MAX_RECORD};
use parking_lot::Mutex;
use qpipe_common::{QError, QResult, Schema, Tuple};
use std::sync::Arc;

/// Record identifier: page number + slot within the page (a columnar
/// page's slot is the row's index on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: u64,
    pub slot: u16,
}

/// An append-only heap file of tuples.
pub struct HeapFile {
    disk: Arc<SimDisk>,
    file: FileId,
    tail: Mutex<TailState>,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("file", &self.file)
            .field("tuples", &self.num_tuples())
            .finish_non_exhaustive()
    }
}

/// The page being filled, in the file's layout.
enum Tail {
    Slotted(Page),
    Columnar(ColPageBuilder),
}

impl Tail {
    /// Append `tuple` if it fits, returning its slot; `None` when the page
    /// is too full for it. An error is what no page rotation can cure — a
    /// tuple too large for an empty page, or (columnar) one the schema does
    /// not admit — so a doomed append never flushes the tail as a side
    /// effect.
    fn try_append(&mut self, tuple: &Tuple) -> QResult<Option<u16>> {
        match self {
            Tail::Slotted(p) => {
                let len = encoded_len(tuple);
                if len > MAX_RECORD {
                    return Err(QError::Storage(format!("tuple of {len} bytes exceeds page size")));
                }
                if !p.fits(len) {
                    return Ok(None);
                }
                let mut buf = Vec::with_capacity(len);
                encode_tuple(tuple, &mut buf);
                p.append_record(&buf).map(Some)
            }
            Tail::Columnar(b) => {
                b.validate(tuple)?;
                if !b.fits(tuple) {
                    return Ok(None);
                }
                b.append(tuple).map(Some)
            }
        }
    }

    /// The filled page, leaving the tail empty; `None` when it holds nothing.
    fn take(&mut self) -> Option<Block> {
        match self {
            Tail::Slotted(p) if p.num_records() > 0 => Some(std::mem::take(p).into()),
            Tail::Columnar(b) if b.num_rows() > 0 => Some(b.finish().into()),
            _ => None,
        }
    }
}

struct TailState {
    page: Tail,
    /// Block number the tail page will occupy once flushed.
    block_no: u64,
    tuple_count: u64,
}

impl HeapFile {
    /// Create a new heap file named `name` on `disk`, of `layout` pages.
    /// Columnar pages are strictly typed by `schema`.
    pub fn create(
        disk: Arc<SimDisk>,
        name: &str,
        layout: StorageLayout,
        schema: &Schema,
    ) -> QResult<Self> {
        let file = disk.create_file(name)?;
        let page = match layout {
            StorageLayout::Row => Tail::Slotted(Page::new()),
            StorageLayout::Columnar => Tail::Columnar(ColPageBuilder::new(schema)),
        };
        Ok(Self { disk, file, tail: Mutex::new(TailState { page, block_no: 0, tuple_count: 0 }) })
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// The page layout the file was created with.
    pub fn layout(&self) -> StorageLayout {
        match self.tail.lock().page {
            Tail::Slotted(_) => StorageLayout::Row,
            Tail::Columnar(_) => StorageLayout::Columnar,
        }
    }

    /// Append one tuple, returning its RID. The tuple lands on disk once the
    /// page fills or [`flush`](Self::flush) is called.
    pub fn append(&self, tuple: &Tuple) -> QResult<Rid> {
        let mut tail = self.tail.lock();
        let slot = match tail.page.try_append(tuple)? {
            Some(slot) => slot,
            None => {
                self.flush_tail(&mut tail)?;
                let slot = tail.page.try_append(tuple)?;
                slot.ok_or_else(|| QError::Storage("tuple does not fit an empty page".into()))?
            }
        };
        tail.tuple_count += 1;
        Ok(Rid { page: tail.block_no, slot })
    }

    /// Flush the tail page to disk (no-op when empty).
    pub fn flush(&self) -> QResult<()> {
        self.flush_tail(&mut self.tail.lock())
    }

    fn flush_tail(&self, tail: &mut TailState) -> QResult<()> {
        if let Some(block) = tail.page.take() {
            self.disk.append_block(self.file, block)?;
            tail.block_no += 1;
        }
        Ok(())
    }

    /// Number of flushed pages (call [`flush`](Self::flush) first when loading).
    pub fn num_pages(&self) -> QResult<u64> {
        self.disk.num_blocks(self.file)
    }

    /// Total tuples appended.
    pub fn num_tuples(&self) -> u64 {
        self.tail.lock().tuple_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use qpipe_common::{DataType, Metrics, Value};

    const LAYOUTS: [StorageLayout; 2] = [StorageLayout::Row, StorageLayout::Columnar];

    fn make(layout: StorageLayout) -> (Arc<SimDisk>, HeapFile) {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
        let hf = HeapFile::create(disk.clone(), "t", layout, &schema).unwrap();
        (disk, hf)
    }

    fn row(i: i64) -> Tuple {
        vec![Value::Int(i), Value::str(format!("payload-{:03}", i % 40))]
    }

    #[test]
    fn append_flush_read_back() {
        for layout in LAYOUTS {
            let (disk, hf) = make(layout);
            assert_eq!(hf.layout(), layout);
            let n = 3000;
            for i in 0..n {
                hf.append(&row(i)).unwrap();
            }
            hf.flush().unwrap();
            assert_eq!(hf.num_tuples(), n as u64);
            assert!(hf.num_pages().unwrap() > 1, "{layout:?}: should span pages");
            let mut seen = 0;
            for b in 0..hf.num_pages().unwrap() {
                let page = disk.read_block(hf.file_id(), b).unwrap();
                let columnar = matches!(page, Block::Columnar(_));
                assert_eq!(columnar, layout == StorageLayout::Columnar, "{layout:?}");
                for t in page.rows().unwrap() {
                    assert_eq!(t, row(seen), "{layout:?}");
                    seen += 1;
                }
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn rids_are_monotone() {
        for layout in LAYOUTS {
            let (_disk, hf) = make(layout);
            let mut last = Rid { page: 0, slot: 0 };
            for i in 0..5000 {
                let rid = hf.append(&row(i)).unwrap();
                if i > 0 {
                    assert!(rid > last, "{layout:?}: rid must increase: {rid:?} after {last:?}");
                }
                last = rid;
            }
            assert!(last.page > 0, "{layout:?}: should have spilled to multiple pages");
        }
    }

    #[test]
    fn flush_idempotent() {
        for layout in LAYOUTS {
            let (_disk, hf) = make(layout);
            hf.append(&row(1)).unwrap();
            hf.flush().unwrap();
            let pages = hf.num_pages().unwrap();
            hf.flush().unwrap();
            assert_eq!(hf.num_pages().unwrap(), pages, "{layout:?}");
        }
    }

    #[test]
    fn nonconformant_tuple_rejected() {
        let (_disk, hf) = make(StorageLayout::Columnar);
        assert!(hf.append(&vec![Value::str("x"), Value::str("y")]).is_err());
        assert!(hf.append(&vec![Value::Int(1)]).is_err());
        // The file still works after rejected appends.
        hf.append(&row(1)).unwrap();
        assert_eq!(hf.num_tuples(), 1);
    }

    #[test]
    fn rejected_append_does_not_flush_partial_tail() {
        for layout in LAYOUTS {
            let (_disk, hf) = make(layout);
            for i in 0..50 {
                hf.append(&row(i)).unwrap();
            }
            // Incurable tuples must fail WITHOUT rotating the buffered tail
            // page to disk (no fragmentation side effect from a failed append).
            let huge = vec![Value::Int(1), Value::str("x".repeat(9000))];
            assert!(hf.append(&huge).is_err(), "{layout:?}: oversized tuple rejected");
            if layout == StorageLayout::Columnar {
                assert!(hf.append(&vec![Value::str("bad"), Value::str("shape")]).is_err());
            }
            assert_eq!(hf.num_pages().unwrap(), 0, "{layout:?}: tail stays buffered");
            hf.flush().unwrap();
            assert_eq!(hf.num_pages().unwrap(), 1, "{layout:?}: all 50 rows on one page");
            assert_eq!(hf.num_tuples(), 50, "{layout:?}");
        }
    }
}
