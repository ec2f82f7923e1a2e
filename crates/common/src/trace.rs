//! Per-query tracing and per-operator profiling.
//!
//! QPipe's operator-centric argument is that an engine organised around
//! µEngines can show *where* work happens and *what* gets shared. This
//! module supplies the per-query half of that story, complementing the
//! engine-global counters in [`crate::metrics`]:
//!
//! - [`QueryTrace`] — a bounded, Arc-shared ring buffer of typed
//!   [`TraceEvent`]s with microsecond timestamps relative to submission.
//!   One per query, allocated only when `ExecConfig::tracing` is on.
//! - [`OpProbe`] — a bundle of relaxed atomics one per plan operator,
//!   incremented from the hot path without locking. Snapshots fold into
//!   an [`OpStats`].
//! - [`ProbeNode`] / [`QueryProfile`] — a tree of probes mirroring the
//!   `PlanNode` shape, and its plain-data snapshot returned by
//!   `QueryHandle::profile()`.
//!
//! When tracing is off every probe/trace handle is `None`, so the hot
//! path pays a branch on an `Option` and nothing else: no allocation,
//! no atomics, no lock traffic per batch.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-query event capacity. Past this the ring drops the
/// oldest events and counts them in [`QueryTrace::dropped`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One typed event in a query's journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The query entered the admission queue.
    Enqueued,
    /// Admission granted after `waited_us` in the queue.
    Admitted { waited_us: u64 },
    /// A packet for operator `op` was handed to its µEngine.
    PacketDispatched { op: &'static str },
    /// An operator drained its inputs and closed its output.
    OperatorFinished {
        op: &'static str,
        rows: u64,
        batches: u64,
        busy_ns: u64,
        pipe_wait_ns: u64,
        io_wait_ns: u64,
    },
    /// This query attached as a satellite to an in-flight host on `engine`.
    OspAttach { engine: &'static str },
    /// A satellite detached (normally, at completion) having received
    /// `pages_from_host` pages without touching disk.
    OspDetach { engine: &'static str, pages_from_host: u64 },
    /// A bufferpool read needed `retries` extra attempts (transient I/O
    /// faults, checksum rejects).
    BufferpoolRetry { retries: u64 },
    /// The memory governor denied an operator's working-set lease, forcing
    /// a partitioned/spill fallback.
    MemDenied { op: &'static str },
    /// The query failed; `error` is the rendered `QError`.
    QueryFailed { error: String },
}

impl TraceEvent {
    /// The [`OperatorFinished`](TraceEvent::OperatorFinished) entry of
    /// operator `op` whose probe reads `s`.
    pub fn finished(op: &'static str, s: OpStats) -> Self {
        let (rows, batches, busy_ns) = (s.rows, s.batches, s.busy_ns);
        let (pipe_wait_ns, io_wait_ns) = (s.pipe_wait_ns, s.io_wait_ns);
        TraceEvent::OperatorFinished { op, rows, batches, busy_ns, pipe_wait_ns, io_wait_ns }
    }
}

/// A [`TraceEvent`] stamped with microseconds since query submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    pub at_us: u64,
    pub event: TraceEvent,
}

#[derive(Debug)]
struct TraceRing {
    events: VecDeque<TimedEvent>,
    dropped: u64,
    cap: usize,
}

/// Per-query event journal: a bounded ring of [`TimedEvent`]s behind a
/// cheap mutex. Shared by `Arc` between the handle and every packet.
#[derive(Debug)]
pub struct QueryTrace {
    origin: Instant,
    inner: Mutex<TraceRing>,
}

impl QueryTrace {
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        QueryTrace {
            origin: Instant::now(),
            inner: Mutex::new(TraceRing {
                events: VecDeque::with_capacity(cap.min(64)),
                dropped: 0,
                cap,
            }),
        }
    }

    /// Append an event stamped with the current offset from submission.
    pub fn push(&self, event: TraceEvent) {
        let at_us = self.origin.elapsed().as_micros() as u64;
        let mut st = self.inner.lock();
        if st.events.len() >= st.cap {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(TimedEvent { at_us, event });
    }

    /// Snapshot the journal in arrival order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the journal as a human-readable dump, one event per line.
    pub fn render(&self) -> String {
        let (events, dropped) = {
            let st = self.inner.lock();
            (st.events.iter().cloned().collect::<Vec<_>>(), st.dropped)
        };
        let mut out = String::new();
        if dropped > 0 {
            let _ = writeln!(out, "  ... {dropped} earlier event(s) dropped by ring bound ...");
        }
        for ev in &events {
            let _ = writeln!(out, "  [{:>10} us] {:?}", ev.at_us, ev.event);
        }
        out
    }
}

impl Default for QueryTrace {
    fn default() -> Self {
        QueryTrace::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// Hot-path counters for one plan operator. All relaxed atomics: writers
/// never synchronise with each other, readers snapshot after the fact.
#[derive(Debug, Default)]
pub struct OpProbe {
    rows: AtomicU64,
    batches: AtomicU64,
    total_ns: AtomicU64,
    pipe_wait_ns: AtomicU64,
    io_wait_ns: AtomicU64,
    mem_denied: AtomicU64,
    pages_from_host: AtomicU64,
    pages_from_disk: AtomicU64,
}

impl OpProbe {
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_batches(&self, n: u64) {
        self.batches.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_total_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn add_pipe_wait_ns(&self, ns: u64) {
        self.pipe_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn add_io_wait_ns(&self, ns: u64) {
        self.io_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn add_mem_denied(&self) {
        self.mem_denied.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_pages_from_host(&self, n: u64) {
        self.pages_from_host.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_pages_from_disk(&self, n: u64) {
        self.pages_from_disk.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold the counters into a plain snapshot. Busy time is derived:
    /// total wall-clock inside the operator minus time provably spent
    /// blocked on an input pipe or a page fetch.
    pub fn stats(&self) -> OpStats {
        let total_ns = self.total_ns.load(Ordering::Relaxed);
        let pipe_wait_ns = self.pipe_wait_ns.load(Ordering::Relaxed);
        let io_wait_ns = self.io_wait_ns.load(Ordering::Relaxed);
        OpStats {
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            busy_ns: total_ns.saturating_sub(pipe_wait_ns).saturating_sub(io_wait_ns),
            pipe_wait_ns,
            io_wait_ns,
            mem_denied: self.mem_denied.load(Ordering::Relaxed),
            pages_from_host: self.pages_from_host.load(Ordering::Relaxed),
            pages_from_disk: self.pages_from_disk.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of one operator's probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    pub rows: u64,
    pub batches: u64,
    pub busy_ns: u64,
    pub pipe_wait_ns: u64,
    pub io_wait_ns: u64,
    pub mem_denied: u64,
    pub pages_from_host: u64,
    pub pages_from_disk: u64,
}

/// Live probe tree mirroring the `PlanNode` shape. Built by the engine at
/// submit time when tracing is on; each packet carries the `Arc<OpProbe>`
/// of its own operator.
#[derive(Debug, Clone)]
pub struct ProbeNode {
    pub op: &'static str,
    pub probe: Arc<OpProbe>,
    pub children: Vec<ProbeNode>,
}

impl ProbeNode {
    pub fn new(op: &'static str, children: Vec<ProbeNode>) -> Self {
        ProbeNode { op, probe: Arc::new(OpProbe::default()), children }
    }

    /// Snapshot the whole tree into a [`QueryProfile`].
    pub fn snapshot(&self) -> QueryProfile {
        QueryProfile {
            op: self.op,
            stats: self.probe.stats(),
            children: self.children.iter().map(ProbeNode::snapshot).collect(),
        }
    }
}

/// Immutable per-operator profile tree returned by `QueryHandle::profile()`
/// and rendered by `PlanNode::explain_analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    pub op: &'static str,
    pub stats: OpStats,
    pub children: Vec<QueryProfile>,
}

impl QueryProfile {
    /// Sum of `rows` over every operator in the tree.
    pub fn total_rows(&self) -> u64 {
        self.stats.rows + self.children.iter().map(QueryProfile::total_rows).sum::<u64>()
    }

    /// Sum of `pages_from_host` over every operator in the tree.
    pub fn total_pages_from_host(&self) -> u64 {
        self.stats.pages_from_host
            + self.children.iter().map(QueryProfile::total_pages_from_host).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let tr = QueryTrace::new(3);
        for i in 0..5 {
            tr.push(TraceEvent::BufferpoolRetry { retries: i });
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let evs = tr.events();
        assert_eq!(evs[0].event, TraceEvent::BufferpoolRetry { retries: 2 });
        assert_eq!(evs[2].event, TraceEvent::BufferpoolRetry { retries: 4 });
    }

    #[test]
    fn timestamps_are_monotonic() {
        let tr = QueryTrace::new(16);
        tr.push(TraceEvent::Enqueued);
        std::thread::sleep(Duration::from_millis(2));
        tr.push(TraceEvent::Admitted { waited_us: 7 });
        let evs = tr.events();
        assert!(evs[1].at_us >= evs[0].at_us);
        assert!(evs[1].at_us >= 1_000, "second event should be >= 1ms after origin");
    }

    #[test]
    fn render_includes_events_and_drop_note() {
        let tr = QueryTrace::new(1);
        tr.push(TraceEvent::Enqueued);
        tr.push(TraceEvent::QueryFailed { error: "boom".into() });
        let text = tr.render();
        assert!(text.contains("1 earlier event(s) dropped"));
        assert!(text.contains("QueryFailed"));
        assert!(text.contains("boom"));
    }

    #[test]
    fn probe_busy_is_total_minus_waits() {
        let p = OpProbe::default();
        p.add_rows(10);
        p.add_batches(2);
        p.add_total_ns(1_000);
        p.add_pipe_wait_ns(300);
        p.add_io_wait_ns(200);
        p.add_mem_denied();
        let s = p.stats();
        assert_eq!(s.rows, 10);
        assert_eq!(s.batches, 2);
        assert_eq!(s.busy_ns, 500);
        assert_eq!(s.mem_denied, 1);
    }

    #[test]
    fn probe_busy_saturates_when_waits_exceed_total() {
        let p = OpProbe::default();
        p.add_total_ns(100);
        p.add_pipe_wait_ns(400);
        assert_eq!(p.stats().busy_ns, 0);
    }

    #[test]
    fn probe_tree_snapshots_and_sums() {
        let leaf = ProbeNode::new("scan", vec![]);
        leaf.probe.add_rows(100);
        leaf.probe.add_pages_from_host(4);
        let root = ProbeNode::new("agg", vec![leaf]);
        root.probe.add_rows(1);
        let prof = root.snapshot();
        assert_eq!(prof.op, "agg");
        assert_eq!(prof.children[0].op, "scan");
        assert_eq!(prof.total_rows(), 101);
        assert_eq!(prof.total_pages_from_host(), 4);
    }
}
