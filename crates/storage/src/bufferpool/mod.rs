//! Buffer pool with the two replacement policies the evaluated systems run.
//!
//! The paper's core observation (§1.1, §3.1) is that the buffer pool is the
//! *only* cross-query sharing mechanism in a conventional engine, and that
//! its effectiveness is extremely sensitive to query arrival timing. This
//! module provides the buffer pool both engines run on: plain LRU for QPipe
//! and the Baseline (BerkeleyDB's), scan-resistant 2Q for DBMS X — the
//! Baseline/DBMS-X gap of Figure 12.
//!
//! Concurrency: page reads are *single-flighted* — when two queries miss the
//! same page simultaneously only one disk read is issued; the second thread
//! waits and reuses the result. Pages are immutable snapshots (`Arc`-backed),
//! so `get` returns a cheap clone and no pin/unpin protocol is needed for
//! readers; eviction can never invalidate a page a reader already holds.

pub mod policy;

use crate::disk::{Block, FileId, SimDisk};
use parking_lot::{Condvar, Mutex};
use policy::{new_policy, PageKey, ReplacementPolicy};
use qpipe_common::{Metrics, QError, QResult};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Which replacement policy a pool instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (QPipe, Baseline).
    Lru,
    /// 2Q (Johnson & Shasha, §2.1 ref \[18\]; DBMS X).
    TwoQ,
}

/// Bounded retry with exponential backoff for disk reads. Every read error —
/// injected transient fault or checksum mismatch — is retried up to
/// `max_attempts` times; transient faults heal invisibly (`io_retries`
/// metric), permanent ones propagate to the caller after the last attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per read (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff: Duration::from_micros(500) }
    }
}

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Capacity in pages.
    pub capacity: usize,
    pub policy: PolicyKind,
    pub retry: RetryPolicy,
}

impl BufferPoolConfig {
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        Self { capacity, policy, retry: RetryPolicy::default() }
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self::new(1024, PolicyKind::Lru)
    }
}

struct PoolState {
    resident: HashMap<PageKey, Block>,
    pending: HashSet<PageKey>,
    policy: Box<dyn ReplacementPolicy>,
}

/// A shared buffer pool over a [`SimDisk`].
pub struct BufferPool {
    disk: Arc<SimDisk>,
    capacity: usize,
    policy: PolicyKind,
    retry: RetryPolicy,
    state: Mutex<PoolState>,
    pending_cv: Condvar,
    metrics: Metrics,
}

/// Removes a key from the single-flight pending set. A read that succeeds
/// clears it with [`PendingGuard::resident`], under the lock that makes the
/// page resident, so a woken waiter always finds the page. A read that fails
/// — including by panic (an injected fault can panic the reading thread) —
/// clears it on drop, so waiters never wedge on an entry nobody will clear.
struct PendingGuard<'a> {
    pool: &'a BufferPool,
    key: PageKey,
    armed: bool,
}

impl PendingGuard<'_> {
    fn clear(&self, st: &mut PoolState) {
        st.pending.remove(&self.key);
        self.pool.pending_cv.notify_all();
    }

    /// The page is resident in `st`: clear the entry in the same critical
    /// section.
    fn resident(mut self, st: &mut PoolState) {
        self.clear(st);
        self.armed = false;
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.clear(&mut self.pool.state.lock());
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

impl BufferPool {
    pub fn new(disk: Arc<SimDisk>, config: BufferPoolConfig) -> Arc<Self> {
        let metrics = disk.metrics().clone();
        Arc::new(Self {
            disk,
            capacity: config.capacity.max(1),
            policy: config.policy,
            retry: config.retry,
            state: Mutex::new(PoolState {
                resident: HashMap::new(),
                pending: HashSet::new(),
                policy: new_policy(config.policy, config.capacity.max(1)),
            }),
            pending_cv: Condvar::new(),
            metrics,
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// Fetch a page, via the cache. Columnar blocks carry their decoded
    /// [`ColBatch`](qpipe_common::ColBatch) cache with them, so a resident
    /// columnar page is materialized at most once per residency.
    pub fn get(&self, file: FileId, block: u64) -> QResult<Block> {
        self.get_observed(file, block).map(|(page, _)| page)
    }

    /// [`BufferPool::get`] plus the number of extra read attempts the fetch
    /// needed (0 on a cache hit or a clean first read) — the observability
    /// layer turns nonzero retry counts into per-query trace events.
    pub fn get_observed(&self, file: FileId, block: u64) -> QResult<(Block, u64)> {
        let key = PageKey { file, block };
        loop {
            {
                let mut st = self.state.lock();
                if let Some(page) = st.resident.get(&key) {
                    let page = page.clone();
                    st.policy.on_access(key, true);
                    self.metrics.add_bp_hit();
                    return Ok((page, 0));
                }
                if !st.pending.contains(&key) {
                    // We take ownership of the read.
                    st.pending.insert(key);
                    st.policy.on_access(key, false);
                    self.metrics.add_bp_miss();
                    break;
                }
                // Someone else is reading this page; wait for them.
                let mut st = st;
                self.pending_cv.wait(&mut st);
                // Loop and re-check.
            }
        }
        // Perform the disk read outside the lock so other pages stream in
        // parallel (the RAID-0 substitute). The guard clears the pending
        // entry even if the read fails or panics.
        let started = std::time::Instant::now();
        let guard = PendingGuard { pool: self, key, armed: true };
        let read = self.read_verified(file, block);
        self.metrics.record_bp_fetch(started.elapsed().as_micros() as u64);
        let (page, retries) = read?;
        let mut st = self.state.lock();
        // Make room and insert.
        while st.resident.len() >= self.capacity {
            match st.policy.victim() {
                Some(v) => {
                    st.resident.remove(&v);
                }
                None => break, // policy empty (capacity 0 edge); just over-admit
            }
        }
        st.resident.insert(key, page.clone());
        st.policy.on_insert(key);
        guard.resident(&mut st);
        Ok((page, retries))
    }

    /// One disk read with checksum verification, retried per the pool's
    /// [`RetryPolicy`]; returns the block plus how many retries it took. A
    /// corrupt page is *never* returned: verification failure counts as a
    /// read error (`checksum_failures` metric) and is retried like any other
    /// — transient corruption heals, persistent corruption surfaces as
    /// `QError::Storage`.
    fn read_verified(&self, file: FileId, block: u64) -> QResult<(Block, u64)> {
        let mut backoff = self.retry.backoff;
        let mut last_err = None;
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                self.metrics.add_io_retry();
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
            match self.disk.read_block(file, block) {
                Ok(page) if page.verify_checksum() => return Ok((page, attempt as u64)),
                Ok(_) => {
                    self.metrics.add_checksum_failure();
                    last_err = Some(QError::Storage(format!(
                        "checksum mismatch on block {block} of file {file:?}"
                    )));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| QError::Storage("disk read failed".into())))
    }

    /// True if the page is currently cached (no policy side effects).
    pub fn contains(&self, file: FileId, block: u64) -> bool {
        self.state.lock().resident.contains_key(&PageKey { file, block })
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.state.lock().resident.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached page (used between experiment runs).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        let keys: Vec<PageKey> = st.resident.keys().copied().collect();
        for k in keys {
            st.resident.remove(&k);
        }
        st.policy = new_policy(self.policy, self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use crate::page::Page;
    use qpipe_common::Metrics;

    fn setup(
        capacity: usize,
        policy: PolicyKind,
        blocks: u64,
    ) -> (Arc<SimDisk>, Arc<BufferPool>, FileId) {
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics);
        let f = disk.create_file("t").unwrap();
        for i in 0..blocks {
            let mut p = Page::new();
            p.append_record(&i.to_le_bytes()).unwrap();
            disk.append_block(f, p).unwrap();
        }
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(capacity, policy));
        (disk, pool, f)
    }

    #[test]
    fn caches_within_capacity() {
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 5);
        for b in 0..5 {
            pool.get(f, b).unwrap();
        }
        let before = disk.metrics().snapshot().disk_blocks_read;
        for b in 0..5 {
            pool.get(f, b).unwrap();
        }
        assert_eq!(disk.metrics().snapshot().disk_blocks_read, before, "all hits");
        assert_eq!(pool.len(), 5);
    }

    #[test]
    fn evicts_beyond_capacity() {
        let (_disk, pool, f) = setup(4, PolicyKind::Lru, 10);
        for b in 0..10 {
            pool.get(f, b).unwrap();
        }
        assert_eq!(pool.len(), 4);
        // LRU: last four blocks resident.
        for b in 6..10 {
            assert!(pool.contains(f, b), "block {b} should be resident");
        }
        assert!(!pool.contains(f, 0));
    }

    #[test]
    fn lru_access_refreshes() {
        let (_disk, pool, f) = setup(3, PolicyKind::Lru, 5);
        pool.get(f, 0).unwrap();
        pool.get(f, 1).unwrap();
        pool.get(f, 2).unwrap();
        pool.get(f, 0).unwrap(); // refresh 0
        pool.get(f, 3).unwrap(); // evicts 1
        assert!(pool.contains(f, 0));
        assert!(!pool.contains(f, 1));
    }

    #[test]
    fn hit_miss_metrics() {
        let (disk, pool, f) = setup(10, PolicyKind::TwoQ, 3);
        for b in 0..3 {
            pool.get(f, b).unwrap();
        }
        for b in 0..3 {
            pool.get(f, b).unwrap();
        }
        let s = disk.metrics().snapshot();
        assert_eq!(s.bp_misses, 3);
        assert_eq!(s.bp_hits, 3);
    }

    #[test]
    fn clear_empties_pool() {
        let (_disk, pool, f) = setup(10, PolicyKind::TwoQ, 5);
        for b in 0..5 {
            pool.get(f, b).unwrap();
        }
        pool.clear();
        assert!(pool.is_empty());
        // Still works after clear.
        pool.get(f, 0).unwrap();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn single_flight_under_concurrency() {
        let (disk, pool, f) = setup(64, PolicyKind::Lru, 32);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for b in 0..32 {
                    pool.get(f, b).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All 8 threads scanned all 32 blocks but at most 32 disk reads
        // happened thanks to caching + single flight.
        assert_eq!(disk.metrics().snapshot().disk_blocks_read, 32);
    }

    fn columnar_setup(
        capacity: usize,
        policy: PolicyKind,
        rows: i64,
    ) -> (Arc<SimDisk>, Arc<BufferPool>, FileId, u64) {
        use qpipe_common::{DataType, Schema, Value};
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics);
        let hf = crate::colheap::ColHeapFile::create(
            disk.clone(),
            "ct",
            Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]),
        )
        .unwrap();
        for i in 0..rows {
            hf.append(&vec![Value::Int(i), Value::str(format!("r{}", i % 5))]).unwrap();
        }
        hf.flush().unwrap();
        let blocks = hf.num_pages().unwrap();
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(capacity, policy));
        (disk, pool, hf.file_id(), blocks)
    }

    #[test]
    fn columnar_pages_cache_and_hit() {
        for policy in [PolicyKind::Lru, PolicyKind::TwoQ] {
            let (disk, pool, f, blocks) = columnar_setup(64, policy, 5000);
            assert!(blocks >= 4, "need several columnar pages, got {blocks}");
            for b in 0..blocks {
                let block = pool.get(f, b).unwrap();
                assert!(block.as_columnar().is_ok(), "{policy:?}: blocks are columnar");
            }
            let before = disk.metrics().snapshot().disk_blocks_read;
            let mut total = 0usize;
            for b in 0..blocks {
                total += pool.get(f, b).unwrap().as_columnar().unwrap().num_rows();
            }
            assert_eq!(
                disk.metrics().snapshot().disk_blocks_read,
                before,
                "{policy:?}: second pass must be all hits"
            );
            assert_eq!(total, 5000, "{policy:?}: every row resident");
        }
    }

    #[test]
    fn columnar_pages_evict_beyond_capacity() {
        for policy in [PolicyKind::Lru, PolicyKind::TwoQ] {
            let (_disk, pool, f, blocks) = columnar_setup(2, policy, 5000);
            for b in 0..blocks {
                pool.get(f, b).unwrap();
            }
            assert_eq!(pool.len(), 2, "{policy:?}: pool bounded");
            // An evicted-then-refetched page still materializes correctly.
            let batch = pool.get(f, 0).unwrap().as_columnar().unwrap().materialize().unwrap();
            assert!(!batch.is_empty());
        }
    }

    #[test]
    fn evicted_columnar_page_decoded_batch_survives_in_readers() {
        // Eviction must never invalidate what a reader already materialized
        // (pages are immutable snapshots; the decoded cache rides the Arc).
        let (_disk, pool, f, blocks) = columnar_setup(1, PolicyKind::Lru, 4000);
        let first = pool.get(f, 0).unwrap();
        let held = first.as_columnar().unwrap().materialize().unwrap();
        for b in 0..blocks {
            pool.get(f, b).unwrap(); // churn the pool, evicting page 0
        }
        assert!(!pool.contains(f, 0) || blocks == 1);
        assert_eq!(held.len(), first.num_records(), "held batch unaffected by eviction");
    }

    #[test]
    fn transient_fault_heals_via_retry() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            5,
            vec![FaultRule::new(FaultKind::Transient).on_op(FaultOp::Read).times(2)],
        ))));
        let block = pool.get(f, 0).unwrap();
        assert!(block.verify_checksum());
        let s = disk.metrics().snapshot();
        assert_eq!(s.io_retries, 2, "two failed attempts retried, third healed");
    }

    #[test]
    fn transient_corruption_heals_and_permanent_corruption_errors() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        // Corruption that heals after one serve: retry gets the clean block.
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            6,
            vec![FaultRule::new(FaultKind::Corrupt).on_op(FaultOp::Read).times(1)],
        ))));
        let block = pool.get(f, 0).unwrap();
        assert!(block.verify_checksum(), "retry must serve the clean block");
        let s = disk.metrics().snapshot();
        assert_eq!(s.checksum_failures, 1);
        assert_eq!(s.io_retries, 1);
        // Corruption that outlasts every attempt: surfaced as an error, the
        // corrupt block is never returned as data.
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            7,
            vec![FaultRule::new(FaultKind::Corrupt).on_op(FaultOp::Read).times(100)],
        ))));
        let err = pool.get(f, 1).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got: {err}");
    }

    #[test]
    fn permanent_fault_exhausts_retries_then_errors() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            8,
            vec![FaultRule::new(FaultKind::Permanent).on_op(FaultOp::Read)],
        ))));
        let err = pool.get(f, 0).unwrap_err();
        assert!(err.to_string().contains("injected I/O error"), "got: {err}");
        assert_eq!(disk.metrics().snapshot().io_retries, 2, "3 attempts = 2 retries");
        // The failed key must not be stuck pending: a later fault-free get
        // succeeds (single-flight entry was cleared).
        disk.set_fault_injector(None);
        assert!(pool.get(f, 0).is_ok());
    }

    #[test]
    fn panic_during_read_does_not_wedge_single_flight() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            9,
            vec![FaultRule::new(FaultKind::Panic).on_op(FaultOp::Read).on_blocks(0..1)],
        ))));
        let p2 = pool.clone();
        let r = std::thread::spawn(move || p2.get(f, 0)).join();
        assert!(r.is_err(), "injected panic propagates out of the reading thread");
        // The pending guard must have cleared the entry: another reader of
        // the same key proceeds instead of waiting forever.
        disk.set_fault_injector(None);
        assert!(pool.get(f, 0).is_ok());
    }

    #[test]
    fn all_policies_smoke() {
        for kind in [PolicyKind::Lru, PolicyKind::TwoQ] {
            let (_disk, pool, f) = setup(8, kind, 40);
            for round in 0..3 {
                for b in 0..40 {
                    pool.get(f, b).unwrap();
                }
                assert!(pool.len() <= 8, "{kind:?} round {round} overflowed: {}", pool.len());
            }
        }
    }
}
