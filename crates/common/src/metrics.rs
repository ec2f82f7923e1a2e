//! Global execution metrics.
//!
//! Every experiment in the paper reports either disk blocks read (Figure 8),
//! wall-clock response time (Figures 9–11, 13), or throughput (Figures 1b,
//! 12). [`Metrics`] collects the raw counters that back those plots, plus
//! counters that expose *how* QPipe got there: buffer-pool hits/misses, OSP
//! attaches per operator, circular-scan wrap-arounds, deadlocks resolved.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of sub-buckets per power of two (2^SUB_BITS per octave).
const HIST_SUB_BITS: u32 = 3;
/// Bucket count covering the full u64 range: 8 exact values below 8, then
/// 8 sub-buckets per octave for exponents 3..=63.
const HIST_BUCKETS: usize = 496;

/// Lock-free log-bucketed latency histogram (HDR-style: 8 sub-buckets per
/// power of two, ~6% relative error). Values are recorded in whatever unit
/// the caller picks (microseconds throughout this crate) and clamped to a
/// minimum of 1 so any histogram with a nonzero count reports nonzero
/// percentiles — the CI smoke wiring guard relies on that invariant.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        if v < 8 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros() as usize;
            (exp - 2) * 8 + ((v >> (exp as u32 - HIST_SUB_BITS)) & 7) as usize
        }
    }

    /// Representative value (sub-bucket midpoint) for bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        if idx < 8 {
            idx as u64
        } else {
            let exp = idx / 8 + 2;
            let width = 1u64 << (exp as u32 - HIST_SUB_BITS);
            (1u64 << exp) + (idx % 8) as u64 * width + width / 2
        }
    }

    /// Record one observation (clamped to >= 1).
    pub fn record(&self, v: u64) {
        let idx = Self::bucket_index(v.max(1));
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold the buckets into count + nearest-rank p50/p95/p99.
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64 * q).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return Self::bucket_value(i);
                }
            }
            Self::bucket_value(HIST_BUCKETS - 1)
        };
        HistogramSummary { count, p50: pct(0.50), p95: pct(0.95), p99: pct(0.99) }
    }
}

/// Point-in-time percentile summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSummary {
    /// Delta for interval reporting: counts subtract; the percentile fields
    /// stay cumulative (percentiles of a difference are not recoverable from
    /// two summaries, so the latest cumulative value is the honest answer).
    fn delta_since(&self, earlier: &HistogramSummary) -> HistogramSummary {
        HistogramSummary { count: self.count.saturating_sub(earlier.count), ..*self }
    }
}

/// Add `by` to `map[key]`, allocating the owned key only on its first insert.
fn add_keyed(map: &Mutex<HashMap<String, u64>>, key: &str, by: u64) {
    let mut map = map.lock();
    match map.get_mut(key) {
        Some(v) => *v += by,
        None => {
            map.insert(key.to_owned(), by);
        }
    }
}

/// Shared counter bundle; cheap to clone (Arc inside).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    disk_blocks_read: AtomicU64,
    disk_seq_reads: AtomicU64,
    disk_blocks_written: AtomicU64,
    bp_hits: AtomicU64,
    bp_misses: AtomicU64,
    osp_attaches: AtomicU64,
    osp_rejections: AtomicU64,
    circular_wraps: AtomicU64,
    deadlocks_resolved: AtomicU64,
    vec_fallbacks: AtomicU64,
    pruned_pages: AtomicU64,
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
    mem_granted: AtomicU64,
    mem_waited: AtomicU64,
    mem_peak: AtomicU64,
    config_clamps: AtomicU64,
    tuples_produced: AtomicU64,
    io_retries: AtomicU64,
    checksum_failures: AtomicU64,
    worker_panics: AtomicU64,
    faults_injected: AtomicU64,
    pool_queue_depth: AtomicU64,
    morsels_dispatched: AtomicU64,
    scan_pages_read_ahead: AtomicU64,
    worker_busy_ns: AtomicU64,
    query_latency_us: Histogram,
    admission_wait_us: Histogram,
    bp_fetch_us: Histogram,
    pool_queue_wait_us: Histogram,
    per_file_reads: Mutex<HashMap<String, u64>>,
    per_engine_attaches: Mutex<HashMap<String, u64>>,
    per_engine_busy_ns: Mutex<HashMap<String, u64>>,
}

/// Point-in-time snapshot of all counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub disk_blocks_read: u64,
    /// Disk reads that continued their file's sequential run (the block
    /// right after the file's previous read) and were charged the
    /// sequential latency, not a seek.
    pub disk_seq_reads: u64,
    pub disk_blocks_written: u64,
    pub bp_hits: u64,
    pub bp_misses: u64,
    pub osp_attaches: u64,
    pub osp_rejections: u64,
    pub circular_wraps: u64,
    pub deadlocks_resolved: u64,
    /// Grace fallbacks taken: hash-join builds the governor refused to
    /// cover, handed to the grace join, which partitions both inputs to
    /// columnar runs.
    pub vec_fallbacks: u64,
    /// Always 0. It counted batches flattened to `Vec<Tuple>` inside the
    /// staged engine; every operator now runs on batches, so none is. The
    /// field stays because the frozen end-to-end harness (`e2e/`) reads it.
    pub col_rowified_batches: u64,
    /// Columnar pages materialized with column pruning (only the referenced
    /// columns decoded).
    pub pruned_pages: u64,
    /// Queries admitted to execution by the admission controller.
    pub admitted: u64,
    /// Queries that had to wait in an admission queue before dispatch.
    pub queued: u64,
    /// Queries settled without running: refused outright (admission queue
    /// full) or cancelled by the client while still queued.
    pub rejected: u64,
    /// Memory units (tuples) the governor granted to operator leases,
    /// cumulative.
    pub mem_granted: u64,
    /// Grant requests the governor denied — the operator spilled, fell back,
    /// or proceeded degraded instead.
    pub mem_waited: u64,
    /// High-water mark of concurrently granted memory units (gauge; its
    /// delta is growth of the mark, not a count).
    pub mem_peak: u64,
    /// Misconfigured budgets/depths clamped to their minimum at validation
    /// (warning-level: each one masks a configuration mistake).
    pub config_clamps: u64,
    pub tuples_produced: u64,
    /// Disk reads retried by the buffer pool's retry policy (transient I/O
    /// faults and checksum failures that healed on a later attempt).
    pub io_retries: u64,
    /// Pages whose checksum verification failed on fetch (corruption was
    /// detected and surfaced as an error, never served as data).
    pub checksum_failures: u64,
    /// Operator worker / dispatcher / scanner panics contained by
    /// `catch_unwind` and converted to packet failures.
    pub worker_panics: u64,
    /// Faults the injector delivered (errors, corruptions, delays, panics).
    pub faults_injected: u64,
    /// High-water mark of jobs queued in any single worker pool (gauge; its
    /// delta is growth of the mark, not a count).
    pub pool_queue_depth: u64,
    /// Pages the circular scanners claimed: one per page a scanner thread
    /// takes under its group lock, fetches and serves to its consumers.
    pub morsels_dispatched: u64,
    /// Pages whose read a scanner issued before claiming them: the read of
    /// page p + 1, issued while page p is decoded and served.
    pub scan_pages_read_ahead: u64,
    /// Nanoseconds pool workers spent executing jobs, summed across every
    /// pool (per-µEngine split in `per_engine_busy_ns`).
    pub worker_busy_ns: u64,
    /// End-to-end latency of completed queries (µs), p50/p95/p99.
    pub query_latency_us: HistogramSummary,
    /// Time queries spent in the admission queue before dispatch (µs).
    pub admission_wait_us: HistogramSummary,
    /// Buffer-pool miss-path fetch latency — disk read + checksum verify,
    /// including retry backoff (µs).
    pub bp_fetch_us: HistogramSummary,
    /// Time pool jobs waited in a worker queue before a worker picked them
    /// up (µs).
    pub pool_queue_wait_us: HistogramSummary,
    pub per_file_reads: HashMap<String, u64>,
    pub per_engine_attaches: HashMap<String, u64>,
    /// Worker-busy nanoseconds per µEngine packet pool.
    pub per_engine_busy_ns: HashMap<String, u64>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_disk_read(&self, file: &str, blocks: u64) {
        self.inner.disk_blocks_read.fetch_add(blocks, Ordering::Relaxed);
        add_keyed(&self.inner.per_file_reads, file, blocks);
    }

    pub fn add_disk_seq_read(&self) {
        self.inner.disk_seq_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_disk_write(&self, blocks: u64) {
        self.inner.disk_blocks_written.fetch_add(blocks, Ordering::Relaxed);
    }

    pub fn add_bp_hit(&self) {
        self.inner.bp_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_bp_miss(&self) {
        self.inner.bp_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_osp_attach(&self, engine: &str) {
        self.inner.osp_attaches.fetch_add(1, Ordering::Relaxed);
        add_keyed(&self.inner.per_engine_attaches, engine, 1);
    }

    pub fn add_osp_rejection(&self) {
        self.inner.osp_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_circular_wrap(&self) {
        self.inner.circular_wraps.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_deadlock_resolved(&self) {
        self.inner.deadlocks_resolved.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_vec_fallback(&self) {
        self.inner.vec_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_pruned_page(&self) {
        self.inner.pruned_pages.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_admitted(&self) {
        self.inner.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_queued(&self) {
        self.inner.queued.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_rejected(&self) {
        self.inner.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_mem_granted(&self, units: u64) {
        self.inner.mem_granted.fetch_add(units, Ordering::Relaxed);
    }

    pub fn add_mem_waited(&self) {
        self.inner.mem_waited.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the granted-memory high-water mark to `units` if higher.
    pub fn note_mem_peak(&self, units: u64) {
        self.inner.mem_peak.fetch_max(units, Ordering::Relaxed);
    }

    pub fn add_config_clamp(&self) {
        self.inner.config_clamps.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_tuples(&self, n: u64) {
        self.inner.tuples_produced.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_io_retry(&self) {
        self.inner.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_checksum_failure(&self) {
        self.inner.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_worker_panic(&self) {
        self.inner.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_fault_injected(&self) {
        self.inner.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the pool queue-depth high-water mark to `depth` if higher.
    pub fn note_pool_queue_depth(&self, depth: u64) {
        self.inner.pool_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Count one page a circular scanner claimed (`morsels_dispatched`).
    pub fn add_scan_page_claimed(&self) {
        self.inner.morsels_dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one page whose read a scanner issued ahead of its claim
    /// (`scan_pages_read_ahead`).
    pub fn add_scan_page_read_ahead(&self) {
        self.inner.scan_pages_read_ahead.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `ns` nanoseconds of job execution on pool `name`'s workers.
    pub fn add_worker_busy_ns(&self, name: &str, ns: u64) {
        self.inner.worker_busy_ns.fetch_add(ns, Ordering::Relaxed);
        add_keyed(&self.inner.per_engine_busy_ns, name, ns);
    }

    /// Record a completed query's end-to-end latency (µs).
    pub fn record_query_latency(&self, us: u64) {
        self.inner.query_latency_us.record(us);
    }

    /// Record time a query spent in the admission queue (µs).
    pub fn record_admission_wait(&self, us: u64) {
        self.inner.admission_wait_us.record(us);
    }

    /// Record a buffer-pool miss-path fetch duration (µs).
    pub fn record_bp_fetch(&self, us: u64) {
        self.inner.bp_fetch_us.record(us);
    }

    /// Record time a job waited in a worker-pool queue (µs).
    pub fn record_pool_queue_wait(&self, us: u64) {
        self.inner.pool_queue_wait_us.record(us);
    }

    /// Prometheus-style text exposition of every counter and histogram.
    pub fn render_text(&self) -> String {
        let s = self.snapshot();
        let mut out = String::new();
        for (name, v) in [
            ("disk_blocks_read", s.disk_blocks_read),
            ("disk_seq_reads", s.disk_seq_reads),
            ("disk_blocks_written", s.disk_blocks_written),
            ("bp_hits", s.bp_hits),
            ("bp_misses", s.bp_misses),
            ("osp_attaches", s.osp_attaches),
            ("osp_rejections", s.osp_rejections),
            ("circular_wraps", s.circular_wraps),
            ("deadlocks_resolved", s.deadlocks_resolved),
            ("vec_fallbacks", s.vec_fallbacks),
            ("col_rowified_batches", s.col_rowified_batches),
            ("pruned_pages", s.pruned_pages),
            ("admitted", s.admitted),
            ("queued", s.queued),
            ("rejected", s.rejected),
            ("mem_granted", s.mem_granted),
            ("mem_waited", s.mem_waited),
            ("mem_peak", s.mem_peak),
            ("config_clamps", s.config_clamps),
            ("tuples_produced", s.tuples_produced),
            ("io_retries", s.io_retries),
            ("checksum_failures", s.checksum_failures),
            ("worker_panics", s.worker_panics),
            ("faults_injected", s.faults_injected),
            ("pool_queue_depth", s.pool_queue_depth),
            ("morsels_dispatched", s.morsels_dispatched),
            ("scan_pages_read_ahead", s.scan_pages_read_ahead),
            ("worker_busy_ns", s.worker_busy_ns),
        ] {
            let _ = writeln!(out, "# TYPE qpipe_{name} counter");
            let _ = writeln!(out, "qpipe_{name} {v}");
        }
        for (file, v) in &s.per_file_reads {
            let _ = writeln!(out, "qpipe_per_file_reads{{file=\"{file}\"}} {v}");
        }
        for (engine, v) in &s.per_engine_attaches {
            let _ = writeln!(out, "qpipe_per_engine_attaches{{engine=\"{engine}\"}} {v}");
        }
        for (engine, v) in &s.per_engine_busy_ns {
            let _ = writeln!(out, "qpipe_per_engine_busy_ns{{engine=\"{engine}\"}} {v}");
        }
        for (name, h) in s.histograms() {
            let _ = writeln!(out, "# TYPE qpipe_{name} summary");
            let _ = writeln!(out, "qpipe_{name}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "qpipe_{name}{{quantile=\"0.95\"}} {}", h.p95);
            let _ = writeln!(out, "qpipe_{name}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "qpipe_{name}_count {}", h.count);
        }
        out
    }

    pub fn osp_attaches(&self) -> u64 {
        self.inner.osp_attaches.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let i = &self.inner;
        MetricsSnapshot {
            disk_blocks_read: i.disk_blocks_read.load(Ordering::Relaxed),
            disk_seq_reads: i.disk_seq_reads.load(Ordering::Relaxed),
            disk_blocks_written: i.disk_blocks_written.load(Ordering::Relaxed),
            bp_hits: i.bp_hits.load(Ordering::Relaxed),
            bp_misses: i.bp_misses.load(Ordering::Relaxed),
            osp_attaches: i.osp_attaches.load(Ordering::Relaxed),
            osp_rejections: i.osp_rejections.load(Ordering::Relaxed),
            circular_wraps: i.circular_wraps.load(Ordering::Relaxed),
            deadlocks_resolved: i.deadlocks_resolved.load(Ordering::Relaxed),
            vec_fallbacks: i.vec_fallbacks.load(Ordering::Relaxed),
            col_rowified_batches: 0,
            pruned_pages: i.pruned_pages.load(Ordering::Relaxed),
            admitted: i.admitted.load(Ordering::Relaxed),
            queued: i.queued.load(Ordering::Relaxed),
            rejected: i.rejected.load(Ordering::Relaxed),
            mem_granted: i.mem_granted.load(Ordering::Relaxed),
            mem_waited: i.mem_waited.load(Ordering::Relaxed),
            mem_peak: i.mem_peak.load(Ordering::Relaxed),
            config_clamps: i.config_clamps.load(Ordering::Relaxed),
            tuples_produced: i.tuples_produced.load(Ordering::Relaxed),
            io_retries: i.io_retries.load(Ordering::Relaxed),
            checksum_failures: i.checksum_failures.load(Ordering::Relaxed),
            worker_panics: i.worker_panics.load(Ordering::Relaxed),
            faults_injected: i.faults_injected.load(Ordering::Relaxed),
            pool_queue_depth: i.pool_queue_depth.load(Ordering::Relaxed),
            morsels_dispatched: i.morsels_dispatched.load(Ordering::Relaxed),
            scan_pages_read_ahead: i.scan_pages_read_ahead.load(Ordering::Relaxed),
            worker_busy_ns: i.worker_busy_ns.load(Ordering::Relaxed),
            query_latency_us: i.query_latency_us.summary(),
            admission_wait_us: i.admission_wait_us.summary(),
            bp_fetch_us: i.bp_fetch_us.summary(),
            pool_queue_wait_us: i.pool_queue_wait_us.summary(),
            per_file_reads: i.per_file_reads.lock().clone(),
            per_engine_attaches: i.per_engine_attaches.lock().clone(),
            per_engine_busy_ns: i.per_engine_busy_ns.lock().clone(),
        }
    }
}

impl MetricsSnapshot {
    /// Every histogram summary by exposition name — lets callers (the smoke
    /// wiring guard) iterate them without naming each field.
    pub fn histograms(&self) -> Vec<(&'static str, HistogramSummary)> {
        vec![
            ("query_latency_us", self.query_latency_us),
            ("admission_wait_us", self.admission_wait_us),
            ("bp_fetch_us", self.bp_fetch_us),
            ("pool_queue_wait_us", self.pool_queue_wait_us),
        ]
    }

    /// Buffer-pool hit ratio in [0, 1]; 0 when no accesses were made.
    pub fn bp_hit_ratio(&self) -> f64 {
        let total = self.bp_hits + self.bp_misses;
        if total == 0 {
            0.0
        } else {
            self.bp_hits as f64 / total as f64
        }
    }

    /// Counter deltas `self - earlier` (per-file maps subtracted keywise).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut per_file = HashMap::new();
        for (k, v) in &self.per_file_reads {
            let e = earlier.per_file_reads.get(k).copied().unwrap_or(0);
            per_file.insert(k.clone(), v.saturating_sub(e));
        }
        let mut per_engine = HashMap::new();
        for (k, v) in &self.per_engine_attaches {
            let e = earlier.per_engine_attaches.get(k).copied().unwrap_or(0);
            per_engine.insert(k.clone(), v.saturating_sub(e));
        }
        let mut per_busy = HashMap::new();
        for (k, v) in &self.per_engine_busy_ns {
            let e = earlier.per_engine_busy_ns.get(k).copied().unwrap_or(0);
            per_busy.insert(k.clone(), v.saturating_sub(e));
        }
        MetricsSnapshot {
            disk_blocks_read: self.disk_blocks_read - earlier.disk_blocks_read,
            disk_seq_reads: self.disk_seq_reads - earlier.disk_seq_reads,
            disk_blocks_written: self.disk_blocks_written - earlier.disk_blocks_written,
            bp_hits: self.bp_hits - earlier.bp_hits,
            bp_misses: self.bp_misses - earlier.bp_misses,
            osp_attaches: self.osp_attaches - earlier.osp_attaches,
            osp_rejections: self.osp_rejections - earlier.osp_rejections,
            circular_wraps: self.circular_wraps - earlier.circular_wraps,
            deadlocks_resolved: self.deadlocks_resolved - earlier.deadlocks_resolved,
            vec_fallbacks: self.vec_fallbacks - earlier.vec_fallbacks,
            col_rowified_batches: 0,
            pruned_pages: self.pruned_pages - earlier.pruned_pages,
            admitted: self.admitted - earlier.admitted,
            queued: self.queued - earlier.queued,
            rejected: self.rejected - earlier.rejected,
            mem_granted: self.mem_granted - earlier.mem_granted,
            mem_waited: self.mem_waited - earlier.mem_waited,
            mem_peak: self.mem_peak.saturating_sub(earlier.mem_peak),
            config_clamps: self.config_clamps - earlier.config_clamps,
            tuples_produced: self.tuples_produced - earlier.tuples_produced,
            io_retries: self.io_retries - earlier.io_retries,
            checksum_failures: self.checksum_failures - earlier.checksum_failures,
            worker_panics: self.worker_panics - earlier.worker_panics,
            faults_injected: self.faults_injected - earlier.faults_injected,
            pool_queue_depth: self.pool_queue_depth.saturating_sub(earlier.pool_queue_depth),
            morsels_dispatched: self.morsels_dispatched - earlier.morsels_dispatched,
            scan_pages_read_ahead: self.scan_pages_read_ahead - earlier.scan_pages_read_ahead,
            worker_busy_ns: self.worker_busy_ns - earlier.worker_busy_ns,
            query_latency_us: self.query_latency_us.delta_since(&earlier.query_latency_us),
            admission_wait_us: self.admission_wait_us.delta_since(&earlier.admission_wait_us),
            bp_fetch_us: self.bp_fetch_us.delta_since(&earlier.bp_fetch_us),
            pool_queue_wait_us: self.pool_queue_wait_us.delta_since(&earlier.pool_queue_wait_us),
            per_file_reads: per_file,
            per_engine_attaches: per_engine,
            per_engine_busy_ns: per_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_disk_read("lineitem", 10);
        m.add_disk_read("lineitem", 5);
        m.add_disk_read("orders", 2);
        m.add_bp_hit();
        m.add_bp_miss();
        let s = m.snapshot();
        assert_eq!(s.disk_blocks_read, 17);
        assert_eq!(s.per_file_reads["lineitem"], 15);
        assert_eq!(s.per_file_reads["orders"], 2);
        assert!((s.bp_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_keywise() {
        let m = Metrics::new();
        m.add_disk_read("a", 5);
        let before = m.snapshot();
        m.add_disk_read("a", 7);
        m.add_disk_read("b", 3);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.disk_blocks_read, 10);
        assert_eq!(d.per_file_reads["a"], 7);
        assert_eq!(d.per_file_reads["b"], 3);
    }

    #[test]
    fn clone_shares_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.add_circular_wrap();
        assert_eq!(m.snapshot().circular_wraps, 1);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.p50, 4);
        assert_eq!(s.p99, 7);
    }

    #[test]
    fn histogram_percentiles_within_bucket_error() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        // Log-bucketed: <= ~6.25% relative error per observation.
        for (got, want) in [(s.p50, 500.0), (s.p95, 950.0), (s.p99, 990.0)] {
            let rel = (got as f64 - want).abs() / want;
            assert!(rel < 0.07, "got {got}, want ~{want}");
        }
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn histogram_zero_clamps_to_one() {
        let h = Histogram::default();
        h.record(0);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!(s.p50 >= 1, "nonzero count must yield nonzero percentiles");
        assert!(s.p99 >= 1);
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(1);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert!(s.p99 > 1u64 << 62);
    }

    #[test]
    fn query_latency_histogram_records_every_query() {
        let m = Metrics::new();
        for us in [100, 200, 300] {
            m.record_query_latency(us);
        }
        let s = m.snapshot();
        assert_eq!(s.query_latency_us.count, 3);
        // Log-bucketed: the median 200 µs lands within one sub-bucket.
        let rel = (s.query_latency_us.p50 as f64 - 200.0).abs() / 200.0;
        assert!(rel < 0.07, "p50 {} for 100/200/300 µs", s.query_latency_us.p50);
    }

    #[test]
    fn histogram_delta_subtracts_counts_keeps_percentiles() {
        let m = Metrics::new();
        m.record_admission_wait(50);
        let before = m.snapshot();
        m.record_admission_wait(70);
        m.record_admission_wait(90);
        let d = m.snapshot().delta_since(&before);
        assert_eq!(d.admission_wait_us.count, 2);
        assert!(d.admission_wait_us.p50 > 0);
    }

    #[test]
    fn render_text_exposes_counters_and_quantiles() {
        let m = Metrics::new();
        m.add_bp_hit();
        m.record_bp_fetch(42);
        m.record_pool_queue_wait(10);
        let text = m.render_text();
        assert!(text.contains("qpipe_bp_hits 1"));
        assert!(text.contains("# TYPE qpipe_bp_fetch_us summary"));
        assert!(text.contains("qpipe_bp_fetch_us{quantile=\"0.99\"}"));
        assert!(text.contains("qpipe_bp_fetch_us_count 1"));
        assert!(text.contains("qpipe_pool_queue_wait_us_count 1"));
    }

    #[test]
    fn snapshot_histograms_lists_all_four() {
        let s = Metrics::new().snapshot();
        let names: Vec<_> = s.histograms().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"query_latency_us"));
        assert!(names.contains(&"pool_queue_wait_us"));
    }
}
