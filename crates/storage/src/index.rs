//! Bulk-loaded indexes.
//!
//! The paper's operator inventory (§3.2) distinguishes *clustered* index
//! scans (table stored in key order — linear or spike overlap, like file
//! scans) from *unclustered* index scans (two phases: probe the index and
//! build a RID list — full overlap — then fetch pages in ascending page
//! order — linear/spike).
//!
//! Both index kinds here are bulk-loaded at table-creation time, which is
//! exactly the data-warehouse lifecycle the paper targets (§1: periodic bulk
//! load, then read-only querying).
//!
//! The staged engine's `viter::PageRangeReader` is the one reader of
//! [`ClusteredIndex::page_range`] and [`UnclusteredIndex::rid_list`]. The
//! iterator engine, which the parity tests take as ground truth, reads no
//! index: it answers an index scan with a filtered sequential scan, so a
//! wrong fence-key lookup here shows as rows the engine loses against it.

use crate::bufferpool::BufferPool;
use crate::disk::{FileId, SimDisk};
use crate::heap::Rid;
use crate::page::{decode_tuple, encode_tuple, Page};
use qpipe_common::{QError, QResult, Value};
use std::sync::Arc;

/// Clustered index: the heap file is physically sorted on the key column;
/// the index is a fence-key directory mapping each page to its first key.
#[derive(Debug, Clone)]
pub struct ClusteredIndex {
    key_col: usize,
    /// `fences[i]` = first key on page `i`.
    fences: Vec<Value>,
}

impl ClusteredIndex {
    /// Build from the fence keys gathered during bulk load.
    pub fn new(key_col: usize, fences: Vec<Value>) -> Self {
        Self { key_col, fences }
    }

    pub fn key_col(&self) -> usize {
        self.key_col
    }

    pub fn num_pages(&self) -> u64 {
        self.fences.len() as u64
    }

    /// First page that may contain a key `>= lo` (pages before it cannot).
    pub fn first_page_ge(&self, lo: &Value) -> u64 {
        // partition_point: first page whose fence > lo, minus one page to be
        // safe (the matching key may start mid-previous-page).
        let idx = self.fences.partition_point(|f| f <= lo);
        (idx.saturating_sub(1)) as u64
    }

    /// One past the last page that may contain a key `<= hi`.
    pub fn last_page_le(&self, hi: &Value) -> u64 {
        self.fences.partition_point(|f| f <= hi) as u64
    }

    /// Page range `[start, end)` covering keys in `[lo, hi]`; `None` bounds
    /// mean unbounded.
    pub fn page_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> (u64, u64) {
        let start = lo.map_or(0, |v| self.first_page_ge(v));
        let end = hi.map_or(self.num_pages(), |v| self.last_page_le(v));
        (start, end.max(start))
    }
}

/// Unclustered index: a separate paged file of `(key, rid)` entries sorted by
/// key, with an in-memory fence directory over the entry pages.
#[derive(Debug)]
pub struct UnclusteredIndex {
    key_col: usize,
    file: FileId,
    fences: Vec<Value>,
}

impl UnclusteredIndex {
    /// Bulk-build over `entries` (will be sorted by key here).
    pub fn build(
        disk: &Arc<SimDisk>,
        name: &str,
        key_col: usize,
        mut entries: Vec<(Value, Rid)>,
    ) -> QResult<Self> {
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let file = disk.create_file(name)?;
        let mut fences = Vec::new();
        let mut page = Page::new();
        let mut buf = Vec::new();
        for (key, rid) in &entries {
            buf.clear();
            // Entry encoded as a 3-column tuple: key, page, slot.
            encode_tuple(
                &vec![key.clone(), Value::Int(rid.page as i64), Value::Int(rid.slot as i64)],
                &mut buf,
            );
            if !page.fits(buf.len()) {
                let full = std::mem::take(&mut page);
                disk.append_block(file, full)?;
                page.append_record(&buf)?;
            } else {
                page.append_record(&buf)?;
            }
            if page.num_records() == 1 {
                fences.push(key.clone());
            }
        }
        if page.num_records() > 0 {
            disk.append_block(file, page)?;
        }
        Ok(Self { key_col, file, fences })
    }

    pub fn key_col(&self) -> usize {
        self.key_col
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    pub fn num_pages(&self) -> u64 {
        self.fences.len() as u64
    }

    /// Phase 1 of an unclustered index scan: probe for all keys in
    /// `[lo, hi]` and return the matching RIDs **sorted by page number** (the
    /// paper: "the list is then sorted on ascending page number to avoid
    /// multiple visits on the same page").
    ///
    /// Index pages are fetched through the buffer pool so probes cost I/O.
    pub fn rid_list(
        &self,
        pool: &BufferPool,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> QResult<Vec<Rid>> {
        let start = lo.map_or(0, |v| self.fences.partition_point(|f| f < v).saturating_sub(1));
        let end = hi.map_or(self.fences.len(), |v| self.fences.partition_point(|f| f <= v));
        let mut rids = Vec::new();
        for block in start as u64..end.max(start) as u64 {
            let page = pool.get(self.file, block)?.into_slotted()?;
            for rec in page.records() {
                let entry = decode_tuple(rec)?;
                let key = &entry[0];
                if lo.is_some_and(|v| key < v) {
                    continue;
                }
                if hi.is_some_and(|v| key > v) {
                    break;
                }
                let page_no = entry[1]
                    .as_int()
                    .ok_or_else(|| QError::Storage("corrupt index entry: page".into()))?
                    as u64;
                let slot = entry[2]
                    .as_int()
                    .ok_or_else(|| QError::Storage("corrupt index entry: slot".into()))?
                    as u16;
                rids.push(Rid { page: page_no, slot });
            }
        }
        rids.sort();
        Ok(rids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::{BufferPoolConfig, PolicyKind};
    use crate::disk::DiskConfig;
    use qpipe_common::Metrics;

    #[test]
    fn clustered_page_range() {
        // Pages with fences 0, 10, 20, 30 (keys ascending).
        let idx = ClusteredIndex::new(
            0,
            vec![Value::Int(0), Value::Int(10), Value::Int(20), Value::Int(30)],
        );
        assert_eq!(idx.page_range(None, None), (0, 4));
        assert_eq!(idx.page_range(Some(&Value::Int(15)), None), (1, 4));
        assert_eq!(idx.page_range(None, Some(&Value::Int(15))), (0, 2));
        assert_eq!(idx.page_range(Some(&Value::Int(10)), Some(&Value::Int(10))), (1, 2));
        // Out-of-range low bound clamps.
        assert_eq!(idx.page_range(Some(&Value::Int(100)), None).0, 3);
    }

    #[test]
    fn unclustered_probe_finds_all_matches() {
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics);
        let entries: Vec<(Value, Rid)> = (0..2000)
            .map(|i| (Value::Int(i % 100), Rid { page: (i / 7) as u64, slot: (i % 7) as u16 }))
            .collect();
        let idx = UnclusteredIndex::build(&disk, "idx", 0, entries).unwrap();
        assert!(idx.num_pages() > 1, "index should span pages");
        let pool = BufferPool::new(disk, BufferPoolConfig::new(64, PolicyKind::Lru));
        let rids = idx.rid_list(&pool, Some(&Value::Int(5)), Some(&Value::Int(5))).unwrap();
        assert_eq!(rids.len(), 20, "each key 0..100 appears 20 times");
        // Sorted by page then slot.
        for w in rids.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn unclustered_unbounded_probe() {
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics);
        let entries: Vec<(Value, Rid)> =
            (0..50).map(|i| (Value::Int(i), Rid { page: i as u64, slot: 0 })).collect();
        let idx = UnclusteredIndex::build(&disk, "idx", 0, entries).unwrap();
        let pool = BufferPool::new(disk, BufferPoolConfig::new(16, PolicyKind::Lru));
        assert_eq!(idx.rid_list(&pool, None, None).unwrap().len(), 50);
        assert_eq!(idx.rid_list(&pool, Some(&Value::Int(40)), None).unwrap().len(), 10);
    }

    #[test]
    fn probe_charges_io() {
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics.clone());
        let entries: Vec<(Value, Rid)> =
            (0..5000).map(|i| (Value::Int(i), Rid { page: i as u64, slot: 0 })).collect();
        let idx = UnclusteredIndex::build(&disk, "idx", 0, entries).unwrap();
        let pool = BufferPool::new(disk, BufferPoolConfig::new(128, PolicyKind::Lru));
        let before = metrics.snapshot().disk_blocks_read;
        idx.rid_list(&pool, None, None).unwrap();
        assert!(metrics.snapshot().disk_blocks_read > before, "index probe reads blocks");
    }
}
