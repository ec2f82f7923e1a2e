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
//! waits and reuses the result. A read in flight belongs to the pool, not to
//! the thread that issued it: [`BufferPool::prefetch`] issues a page's read
//! and returns, and whichever thread next asks for the page — the issuer or
//! any other — waits out only what is left of its charge and installs it. So
//! no reader waits on an issuer that may be parked elsewhere (on a full
//! pipe, say), and the waits-for graph needs no edge for a read ahead.
//! Pages are immutable snapshots (`Arc`-backed),
//! so `get` returns a cheap clone and no pin/unpin protocol is needed for
//! readers; eviction can never invalidate a page a reader already holds.
//!
//! Frames: the copy of a page the pool keeps resident is its *frame*, and a
//! hit hands out a clone of it, so every hit shares the frame's decode
//! cache (one per-column cache for both layouts, read and filled by
//! `Block::decode`; where it attaches is stated once, on `Block::framed`).
//! A slotted page gets its cache here: the frame is installed with an empty
//! one, and the reader that missed gets the copy it read, with none — on a
//! pool smaller than its working set nearly every visit misses, and caching
//! those decodes would only hold memory until eviction. So hits fill it. A
//! columnar page brings its own cache, shared with the disk's stored copy.
//! A frame's columns live as long as its residency (and any reader still
//! holding it); evicted frames are dropped after the pool lock is released,
//! so freeing their columns holds up no reader.

pub mod policy;

use crate::disk::{Block, FileId, IssuedRead, SimDisk};
use parking_lot::{Condvar, Mutex};
use policy::{new_policy, PageKey, ReplacementPolicy};
use qpipe_common::{Metrics, QError, QResult};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which replacement policy a pool instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (QPipe, Baseline).
    Lru,
    /// 2Q (Johnson & Shasha, §2.1 ref \[18\]; DBMS X).
    TwoQ,
}

/// Bounded retry with exponential backoff for disk reads: every read error —
/// injected transient fault or checksum mismatch — is retried, up to
/// `READ_ATTEMPTS` attempts in all; transient faults heal invisibly
/// (`io_retries` metric), permanent ones propagate to the caller after the
/// last attempt.
const READ_ATTEMPTS: u32 = 3;

/// The sleep before a read's first retry; it doubles on each later one.
const RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Capacity in pages.
    pub capacity: usize,
    pub policy: PolicyKind,
}

impl BufferPoolConfig {
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        Self { capacity, policy }
    }
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        Self::new(1024, PolicyKind::Lru)
    }
}

/// A page read under way.
enum Flight {
    /// A thread is reading the page; others wait until it installs the page
    /// or clears the entry.
    Owned,
    /// Issued ahead ([`BufferPool::prefetch`]) and owned by nobody: the
    /// outcome of the read's first attempt — a panic included — and when it
    /// was issued. The next thread to ask for the page takes it over.
    Issued { read: std::thread::Result<QResult<IssuedRead>>, at: Instant },
}

struct PoolState {
    resident: HashMap<PageKey, Block>,
    in_flight: HashMap<PageKey, Flight>,
    policy: Box<dyn ReplacementPolicy>,
}

/// A shared buffer pool over a [`SimDisk`].
pub struct BufferPool {
    disk: Arc<SimDisk>,
    capacity: usize,
    policy: PolicyKind,
    state: Mutex<PoolState>,
    pending_cv: Condvar,
    metrics: Metrics,
}

/// Removes a key from the single-flight in-flight map. A read that succeeds
/// clears it with [`PendingGuard::resident`], under the lock that makes the
/// page resident, so a woken waiter always finds the page; a read issued
/// ahead leaves it to the next reader with [`PendingGuard::hand_over`]. A
/// read that fails — including by panic (an injected fault can panic the
/// reading thread) — clears it on drop, so waiters never wedge on an entry
/// nobody will clear.
struct PendingGuard<'a> {
    pool: &'a BufferPool,
    key: PageKey,
    armed: bool,
}

impl PendingGuard<'_> {
    fn clear(&self, st: &mut PoolState) {
        st.in_flight.remove(&self.key);
        self.pool.pending_cv.notify_all();
    }

    /// The page is resident in `st`: clear the entry in the same critical
    /// section.
    fn resident(mut self, st: &mut PoolState) {
        self.clear(st);
        self.armed = false;
    }

    /// The read was issued ahead: leave its outcome to whoever next asks
    /// for the page.
    fn hand_over(mut self, read: std::thread::Result<QResult<IssuedRead>>, at: Instant) {
        let mut st = self.pool.state.lock();
        st.in_flight.insert(self.key, Flight::Issued { read, at });
        self.pool.pending_cv.notify_all();
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
            state: Mutex::new(PoolState {
                resident: HashMap::new(),
                in_flight: HashMap::new(),
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

    /// Fetch a page, via the cache. A hit returns the page's frame, so it
    /// shares the columns the frame's decode cache holds
    /// ([`Block::decode`](crate::disk::Block::decode)). A miss installs the
    /// page read as the frame (`Block::framed`) and hands its reader the
    /// copy it read: a slotted page's with no cache, a columnar page's with
    /// the cache it carries.
    pub fn get(&self, file: FileId, block: u64) -> QResult<Block> {
        self.get_observed(file, block).map(|(page, _)| page)
    }

    /// [`BufferPool::get`] plus the number of extra read attempts the fetch
    /// needed (0 on a cache hit or a clean first read) — the observability
    /// layer turns nonzero retry counts into per-query trace events.
    pub fn get_observed(&self, file: FileId, block: u64) -> QResult<(Block, u64)> {
        let key = PageKey { file, block };
        let issued = {
            let mut st = self.state.lock();
            loop {
                if let Some(page) = st.resident.get(&key) {
                    let page = page.clone();
                    st.policy.on_access(key, true);
                    self.metrics.add_bp_hit();
                    return Ok((page, 0));
                }
                // Take the read over: with no entry it is a miss we read
                // ourselves; an issued read we finish (its miss was counted
                // at issue); one another thread owns we wait for, then
                // re-check.
                match st.in_flight.insert(key, Flight::Owned) {
                    None => {
                        st.policy.on_access(key, false);
                        self.metrics.add_bp_miss();
                        break None;
                    }
                    Some(Flight::Issued { read, at }) => break Some((read, at)),
                    Some(Flight::Owned) => self.pending_cv.wait(&mut st),
                }
            }
        };
        // Perform the disk read outside the lock so other pages stream in
        // parallel (the RAID-0 substitute). The guard clears the entry even
        // if the read fails or panics.
        let guard = PendingGuard { pool: self, key, armed: true };
        let started = issued.as_ref().map_or_else(Instant::now, |(_, at)| *at);
        let issued = issued.map(|(read, _)| match read {
            Ok(read) => read,
            // The issue panicked: its read meets the panic here, as a
            // synchronous one would have, and the guard clears the entry.
            Err(panic) => std::panic::resume_unwind(panic),
        });
        let read = self.read_verified(file, block, issued);
        // Device time: from the issue to the instant the served block was
        // ready, however late its reader came for it.
        let done = read.as_ref().map_or_else(|_| Instant::now(), |(_, _, ready)| *ready);
        self.metrics.record_bp_fetch(done.saturating_duration_since(started).as_micros() as u64);
        let (page, retries, _) = read?;
        // The frame gets an empty decode cache; the reader that missed keeps
        // the copy it read, which has none.
        let frame = page.framed();
        let mut victims = Vec::new();
        {
            let mut st = self.state.lock();
            // Make room and insert.
            while st.resident.len() >= self.capacity {
                match st.policy.victim() {
                    Some(v) => victims.extend(st.resident.remove(&v)),
                    None => break, // policy empty (capacity 0 edge); just over-admit
                }
            }
            st.resident.insert(key, frame);
            st.policy.on_insert(key);
            guard.resident(&mut st);
        }
        // A victim may be the last owner of its decoded columns: free them
        // outside the lock.
        drop(victims);
        Ok((page, retries))
    }

    /// Issue the page's read and return without waiting for it, unless the
    /// page is resident or already being read. Returns whether a read was
    /// issued. The read then belongs to the pool: the next [`get`] of the
    /// page, on any thread, waits out what is left of its charge, verifies
    /// and installs it. The miss counts now; the issue is the read's first
    /// attempt, so a failed one is retried in that `get` ([`READ_ATTEMPTS`]),
    /// counted exactly as a synchronous read's. So is a panic during
    /// the issue: it is kept with the read, not raised here — the caller is
    /// serving another page — and the page's own `get` meets it.
    ///
    /// [`get`]: BufferPool::get
    pub fn prefetch(&self, file: FileId, block: u64) -> bool {
        let key = PageKey { file, block };
        {
            let mut st = self.state.lock();
            if st.resident.contains_key(&key) || st.in_flight.contains_key(&key) {
                return false;
            }
            st.in_flight.insert(key, Flight::Owned);
            st.policy.on_access(key, false);
            self.metrics.add_bp_miss();
        }
        let guard = PendingGuard { pool: self, key, armed: true };
        let at = Instant::now();
        guard.hand_over(catch_unwind(AssertUnwindSafe(|| self.disk.issue_read(file, block))), at);
        true
    }

    /// One disk read with checksum verification, retried up to
    /// [`READ_ATTEMPTS`] attempts; returns the block, how many retries it took and the
    /// instant its charge ended. `issued` is a read issued ahead: its
    /// outcome is the first attempt. A corrupt page is *never* returned:
    /// verification failure counts as a read error (`checksum_failures`
    /// metric) and is retried like any other — transient corruption heals,
    /// persistent corruption surfaces as `QError::Storage`.
    fn read_verified(
        &self,
        file: FileId,
        block: u64,
        mut issued: Option<QResult<IssuedRead>>,
    ) -> QResult<(Block, u64, Instant)> {
        let mut backoff = RETRY_BACKOFF;
        let mut last_err = None;
        for attempt in 0..READ_ATTEMPTS {
            if attempt > 0 {
                self.metrics.add_io_retry();
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match issued.take().unwrap_or_else(|| self.disk.issue_read(file, block)) {
                Ok(read) => {
                    let ready = read.ready_at();
                    let page = read.wait();
                    if page.verify_checksum() {
                        return Ok((page, attempt as u64, ready));
                    }
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

    /// Drop every cached page, and every read issued ahead that nobody took
    /// (used between experiment runs).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.resident.clear();
        st.in_flight.retain(|_, f| matches!(f, Flight::Owned));
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
        setup_on(DiskConfig::instant(), capacity, policy, blocks)
    }

    fn setup_on(
        config: DiskConfig,
        capacity: usize,
        policy: PolicyKind,
        blocks: u64,
    ) -> (Arc<SimDisk>, Arc<BufferPool>, FileId) {
        let metrics = Metrics::new();
        let disk = SimDisk::new(config, metrics);
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
        use crate::catalog::StorageLayout;
        use qpipe_common::{DataType, Schema, Value};
        let metrics = Metrics::new();
        let disk = SimDisk::new(DiskConfig::instant(), metrics);
        let schema = Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]);
        let hf =
            crate::heap::HeapFile::create(disk.clone(), "ct", StorageLayout::Columnar, &schema)
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
            let batch = pool.get(f, 0).unwrap().decode(None).unwrap();
            assert!(!batch.is_empty());
        }
    }

    #[test]
    fn evicted_columnar_page_decoded_batch_survives_in_readers() {
        // Eviction must never invalidate what a reader already materialized
        // (pages are immutable snapshots; the decoded cache rides the Arc).
        let (_disk, pool, f, blocks) = columnar_setup(1, PolicyKind::Lru, 4000);
        let first = pool.get(f, 0).unwrap();
        let held = first.decode(None).unwrap();
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

    fn in_flight(pool: &BufferPool) -> usize {
        pool.state.lock().in_flight.len()
    }

    /// A read issued ahead belongs to the pool: a thread other than the
    /// issuer completes and installs it, and the page is read from disk once.
    #[test]
    fn another_thread_completes_a_read_issued_ahead() {
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        assert!(pool.prefetch(f, 1), "a cold page is issued");
        assert!(!pool.prefetch(f, 1), "a page in flight is not issued again");
        let p2 = pool.clone();
        let page = std::thread::spawn(move || p2.get(f, 1)).join().unwrap().unwrap();
        assert_eq!(page.as_slotted().unwrap().record(0).unwrap(), 1u64.to_le_bytes());
        assert!(pool.contains(f, 1), "the completing thread installed the page");
        assert!(!pool.prefetch(f, 1), "a resident page is not issued");
        pool.get(f, 1).unwrap();
        let s = disk.metrics().snapshot();
        assert_eq!(s.disk_blocks_read, 1, "one disk read in total");
        assert_eq!((s.bp_misses, s.bp_hits), (1, 1), "a miss at issue, no hit to complete");
        assert_eq!(in_flight(&pool), 0);
    }

    /// The device time runs from the issue: whether the page's reader comes
    /// at once or the read was issued ahead, nothing is handed over before
    /// the charge has elapsed since the issue.
    #[test]
    fn no_read_returns_before_its_charge_has_elapsed_since_its_issue() {
        let charge = Duration::from_millis(2);
        let config = DiskConfig {
            seq_read_latency: charge,
            rand_read_latency: charge,
            write_latency: Duration::ZERO,
        };
        let (_disk, pool, f) = setup_on(config, 10, PolicyKind::Lru, 3);
        let issued = Instant::now();
        pool.get(f, 0).unwrap();
        assert!(issued.elapsed() >= charge, "a synchronous read");
        let issued = Instant::now();
        assert!(pool.prefetch(f, 1));
        pool.get(f, 1).unwrap();
        assert!(issued.elapsed() >= charge, "a read issued ahead, completed at once");
        let issued = Instant::now();
        assert!(pool.prefetch(f, 2));
        let p2 = pool.clone();
        std::thread::spawn(move || p2.get(f, 2)).join().unwrap().unwrap();
        assert!(issued.elapsed() >= charge, "a read issued ahead, completed by another thread");
    }

    /// A fault the issue meets is the read's first attempt: the `get` that
    /// completes it goes on with the remaining attempts, and every counter
    /// reads as it does for the same read done synchronously.
    #[test]
    fn a_healing_fault_met_by_a_read_ahead_counts_as_a_synchronous_one() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        for (kind, times) in [(FaultKind::Transient, 2), (FaultKind::Corrupt, 1)] {
            let run = |ahead: bool| {
                let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
                disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
                    5,
                    vec![FaultRule::new(kind).on_op(FaultOp::Read).times(times)],
                ))));
                if ahead {
                    assert!(pool.prefetch(f, 0));
                }
                let (block, retries) = pool.get_observed(f, 0).unwrap();
                assert!(block.verify_checksum(), "{kind:?}: the healed read is served");
                assert_eq!(in_flight(&pool), 0);
                let s = disk.metrics().snapshot();
                (retries, s.io_retries, s.checksum_failures, s.faults_injected, s.disk_blocks_read)
            };
            let (sync, ahead) = (run(false), run(true));
            assert_eq!(sync.0, times as u64, "{kind:?}");
            assert_eq!(ahead, sync, "{kind:?}: retries, checksum failures, faults, blocks");
        }
    }

    #[test]
    fn a_permanent_fault_met_by_a_read_ahead_errors_and_leaves_no_entry() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            8,
            vec![FaultRule::new(FaultKind::Permanent).on_op(FaultOp::Read)],
        ))));
        assert!(pool.prefetch(f, 0), "a failed issue is still the read's first attempt");
        let err = pool.get(f, 0).unwrap_err();
        assert!(err.to_string().contains("injected I/O error"), "got: {err}");
        assert_eq!(disk.metrics().snapshot().io_retries, 2, "3 attempts = 2 retries");
        assert_eq!(in_flight(&pool), 0, "no entry outlives the failure");
        disk.set_fault_injector(None);
        assert!(pool.get(f, 0).is_ok());
    }

    /// A panic during the issue stays with the read: the issuer goes on, and
    /// the page's own reader meets it, once, as a synchronous read would.
    #[test]
    fn a_panic_during_a_read_ahead_is_met_by_the_pages_reader() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = setup(10, PolicyKind::Lru, 3);
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            9,
            vec![FaultRule::new(FaultKind::Panic).on_op(FaultOp::Read).on_blocks(1..2)],
        ))));
        assert!(pool.prefetch(f, 1), "the issuer does not panic");
        assert!(pool.get(f, 0).is_ok(), "the page the issuer serves is unaffected");
        let p2 = pool.clone();
        assert!(std::thread::spawn(move || p2.get(f, 1)).join().is_err(), "the reader panics");
        assert_eq!(in_flight(&pool), 0, "the reader's guard cleared the entry");
        assert_eq!(disk.metrics().snapshot().faults_injected, 1);
        assert!(pool.get(f, 1).is_ok(), "the fault healed after one panic");
    }

    /// A pool over `blocks` slotted pages of encoded `(Int, Str)` tuples.
    fn tuple_setup(capacity: usize, blocks: u64) -> (Arc<SimDisk>, Arc<BufferPool>, FileId) {
        use crate::page::encode_tuple;
        use qpipe_common::Value;
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let f = disk.create_file("t").unwrap();
        let mut rec = Vec::new();
        for b in 0..blocks as i64 {
            let mut p = Page::new();
            for i in 0..50 {
                rec.clear();
                encode_tuple(
                    &vec![Value::Int(b * 100 + i), Value::str(format!("s{}", i % 7))],
                    &mut rec,
                );
                p.append_record(&rec).unwrap();
            }
            disk.append_block(f, p).unwrap();
        }
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(capacity, PolicyKind::Lru));
        (disk, pool, f)
    }

    /// Column `c` of the block, through the scanner's decode.
    fn column(block: &Block, c: usize) -> Arc<qpipe_common::colbatch::Column> {
        block.decode(Some(&[c])).unwrap().columns()[0].clone()
    }

    #[test]
    fn a_miss_hands_out_a_copy_with_no_cache_and_leaves_the_frame_empty() {
        let (_disk, pool, f) = tuple_setup(10, 2);
        let missed = pool.get(f, 0).unwrap();
        let (a, b) = (column(&missed, 0), column(&missed, 0));
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(&a, &b), "the miss's copy decodes on every call");
        let hit = pool.get(f, 0).unwrap();
        assert!(!Arc::ptr_eq(&column(&hit, 0), &a), "the miss filled nothing in the frame");
    }

    #[test]
    fn two_hits_share_a_decoded_column() {
        let (_disk, pool, f) = tuple_setup(10, 2);
        pool.get(f, 1).unwrap();
        let first = pool.get(f, 1).unwrap().decode(None).unwrap();
        let second = pool.get(f, 1).unwrap().decode(Some(&[1, 0])).unwrap();
        assert!(Arc::ptr_eq(&first.columns()[0], &second.columns()[1]));
        assert!(Arc::ptr_eq(&first.columns()[1], &second.columns()[0]));
        let clean = pool.disk().read_block(f, 1).unwrap().decode(None).unwrap();
        assert_eq!(*second, clean.project(&[1, 0]), "the cache serves what the page holds");
    }

    #[test]
    fn a_read_healed_after_corruption_caches_only_the_clean_bytes() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        let (disk, pool, f) = tuple_setup(10, 2);
        let clean = disk.read_block(f, 0).unwrap().decode(None).unwrap();
        disk.set_fault_injector(Some(Arc::new(FaultInjector::new(
            6,
            vec![FaultRule::new(FaultKind::Corrupt).on_op(FaultOp::Read).times(1)],
        ))));
        let healed = pool.get(f, 0).unwrap();
        assert_eq!(disk.metrics().snapshot().checksum_failures, 1);
        assert_eq!(*healed.decode(None).unwrap(), *clean);
        let frame = pool.get(f, 0).unwrap();
        assert_eq!(*frame.decode(None).unwrap(), *clean, "the frame holds the clean page");
        let cached = column(&frame, 0);
        // Bytes changed under a frame are never served from its cache.
        let corrupt = frame.corrupted_copy(40);
        assert!(corrupt
            .decode(Some(&[0]))
            .map_or(true, |b| !Arc::ptr_eq(&b.columns()[0], &cached)));
        assert!(Arc::ptr_eq(&column(&pool.get(f, 0).unwrap(), 0), &cached));
    }

    #[test]
    fn an_evicted_page_read_back_decodes_afresh() {
        let (disk, pool, f) = tuple_setup(1, 2);
        pool.get(f, 0).unwrap();
        let before = column(&pool.get(f, 0).unwrap(), 0);
        pool.get(f, 1).unwrap(); // evicts page 0
        assert!(!pool.contains(f, 0));
        let missed = column(&pool.get(f, 0).unwrap(), 0);
        let after = column(&pool.get(f, 0).unwrap(), 0);
        assert_eq!(*after, *before);
        assert!(!Arc::ptr_eq(&missed, &before) && !Arc::ptr_eq(&after, &before));
        assert!(Arc::ptr_eq(&column(&pool.get(f, 0).unwrap(), 0), &after));
        assert_eq!(disk.metrics().snapshot().disk_blocks_read, 3);
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
