//! Intermediate buffers.
//!
//! QPipe µEngines exchange data through dedicated buffers (paper §4.2,
//! Figure 5b). A [`Pipe`] is a bounded queue of `Arc<ColBatch>`es — the one
//! batch format of the staged engine — from one producer to one consumer.
//! [`Pipe::pair`] is the only way to build one and returns both ends; neither
//! end can be cloned, so a pipe never has a second producer or a second
//! consumer. Fan-out is a producer holding several pipes, as the paper's
//! host copies its output into each satellite's own buffer (§4.3,
//! Figure 6b): an OSP host ([`SharedHost`](crate::host::SharedHost)) keeps
//! one pipe per query it serves, a circular scanner one per consumer, and the
//! `Arc` makes those copies (and a host's replay history) share one batch.
//!
//! * The producer blocks while the queue is full and its consumer is still
//!   attached. A host pushes to its outputs in turn, so "if any of the
//!   consumers is slower than the producer, all queries will eventually
//!   adjust their consuming speed to the speed of the slowest consumer"
//!   (§4.3) holds there.
//! * A pipe keeps nothing beyond its queue. The paper's **buffering** WoP
//!   enhancement (§3.2, Figure 4b) — replaying recent output to a late
//!   satellite — is stated once, in the OSP host's history.
//! * A pipe can be **materialized** — its bound lifted so the producer never
//!   blocks again — which is exactly the deadlock-resolution action of §4.3.3.
//! * Every blocking wait registers one waits-for edge, holding a weak handle
//!   to this pipe, with the [`deadlock`](crate::deadlock) registry; the
//!   waiter whose edge closes a cycle breaks the deadlock itself.
//! * A stream ends exactly one of two ways: [`PipeProducer::finish`] (clean
//!   EOF) or a failure ([`PipeProducer::fail`] / [`Pipe::fail`]). A producer
//!   that is merely *dropped* fails its pipe — a packet that vanished on the
//!   way (dropped unrun by a pool at shutdown, lost with a panicking thread)
//!   must read as an error downstream, never as a complete empty result.
//! * A consumer runs the σ/π nodes fused into its reader on each batch.

use crate::deadlock::{NodeId, WaitEdge, WaitKind, WaitRegistry};
use parking_lot::{Condvar, Mutex, MutexGuard};
use qpipe_common::trace::{OpProbe, ProbeNode, QueryTrace, TraceEvent};
use qpipe_common::{ColBatch, QError, QResult, Tuple};
use qpipe_exec::plan::PlanNode;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Pipe configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipeConfig {
    /// Queue capacity in batches.
    pub capacity: usize,
}

impl Default for PipeConfig {
    fn default() -> Self {
        Self { capacity: 8 }
    }
}

#[derive(Debug)]
struct PipeState {
    queue: VecDeque<Arc<ColBatch>>,
    /// Set when the consumer dropped its end: nobody reads any more, and the
    /// producer never blocks again.
    detached: bool,
    /// Total batches ever produced.
    produced: u64,
    eof: bool,
    /// Set when the producer failed; the consumer observes the error instead
    /// of a truncated-but-clean EOF (no silent data loss).
    error: Option<QError>,
    materialized: bool,
    /// Node id of the producing packet.
    producer_node: NodeId,
}

/// Shared pipe internals.
#[derive(Debug)]
pub struct Pipe {
    config: PipeConfig,
    /// Node id of the packet draining this pipe (for waits-for edges).
    consumer_node: NodeId,
    state: Mutex<PipeState>,
    /// The producer waits here for queue space.
    space: Condvar,
    /// The consumer waits here for data.
    data: Condvar,
    registry: Arc<WaitRegistry>,
}

impl Pipe {
    /// Build a pipe from `producer_node` to `consumer_node` and return its
    /// two ends. Blocked waits on it are reported to `registry`.
    pub fn pair(
        config: PipeConfig,
        producer_node: NodeId,
        consumer_node: NodeId,
        registry: Arc<WaitRegistry>,
    ) -> (PipeProducer, PipeConsumer) {
        let pipe = Arc::new(Self {
            config,
            consumer_node,
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                detached: false,
                produced: 0,
                eof: false,
                error: None,
                materialized: false,
                producer_node,
            }),
            space: Condvar::new(),
            data: Condvar::new(),
            registry,
        });
        (PipeProducer { pipe: pipe.clone() }, PipeConsumer { pipe, probe: None, fused: Vec::new() })
    }

    /// Lift the capacity bound permanently (deadlock resolution: the paper
    /// materializes the blocking node's output, §4.3.3).
    pub fn materialize(&self) {
        let mut st = self.state.lock();
        st.materialized = true;
        drop(st);
        self.space.notify_all();
    }

    /// Estimated cost of materializing this pipe now (queued batches); the
    /// deadlock resolver picks the minimum-cost victim.
    pub fn materialize_cost(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Is the waits-for edge `e` (registered by a waiter on this pipe) still
    /// the wait it was registered as: its condition holds, and nothing was
    /// produced since? A woken waiter clears its edge only after it runs
    /// again, so the resolver asks the pipe before it believes one.
    pub(crate) fn edge_holds(&self, e: &WaitEdge) -> bool {
        self.holds(&self.state.lock(), e)
    }

    /// [`edge_holds`](Self::edge_holds) over already-locked state.
    fn holds(&self, st: &PipeState, e: &WaitEdge) -> bool {
        st.produced == e.produced
            && !st.detached
            && match e.kind {
                WaitKind::ProducerFull => {
                    !st.materialized && st.queue.len() >= self.config.capacity
                }
                WaitKind::ConsumerEmpty => {
                    !st.eof
                        && st.error.is_none()
                        && st.producer_node == e.holder
                        && st.queue.is_empty()
                }
            }
    }

    /// True once the producer closed the pipe.
    fn is_eof(&self) -> bool {
        self.state.lock().eof
    }

    /// Re-point this pipe's producer identity in the waits-for graph (used
    /// when a host adopts a satellite's output pipe, or a circular scanner
    /// adopts a scan packet's pipe: all outputs of one executing thread must
    /// share one graph node for cycles to be visible). A consumer already
    /// blocked on the empty pipe registered its wait against the old node;
    /// it is woken so it re-registers against the new one — otherwise the
    /// edge stays stale for as long as no data arrives, which in a deadlock
    /// is forever.
    pub fn set_producer_node(&self, node: NodeId) {
        self.state.lock().producer_node = node;
        self.data.notify_all();
    }

    /// Block on `cond` with `waiter → holder` registered as a waits-for edge,
    /// cleared once the waiter runs again. A waiter whose edge closes a cycle
    /// resolves it first, without its own pipe lock, and may return without
    /// sleeping: callers re-test their condition around every call.
    fn wait<'a>(
        self: &'a Arc<Self>,
        mut st: MutexGuard<'a, PipeState>,
        cond: &Condvar,
        (waiter, holder): (NodeId, NodeId),
        kind: WaitKind,
    ) -> MutexGuard<'a, PipeState> {
        let edge =
            WaitEdge { waiter, holder, pipe: Arc::downgrade(self), kind, produced: st.produced };
        if let Some(cycle) = self.registry.add_edge(edge) {
            drop(st);
            self.registry.resolve(&cycle);
            st = self.state.lock();
            // Sleep while this waiter's own wait holds: a cycle skipped for a
            // stale edge is found again when that edge's waiter re-blocks, and
            // looping here would spin against it.
            if !cycle.first().is_some_and(|own| self.holds(&st, own)) {
                self.registry.remove_edge(waiter);
                return st;
            }
        }
        cond.wait(&mut st);
        self.registry.remove_edge(waiter);
        st
    }

    fn send(self: &Arc<Self>, batch: Arc<ColBatch>) {
        let mut st = self.state.lock();
        while !st.materialized && !st.detached && st.queue.len() >= self.config.capacity {
            let nodes = (st.producer_node, self.consumer_node);
            st = self.wait(st, &self.space, nodes, WaitKind::ProducerFull);
        }
        st.produced += 1;
        if !st.detached {
            st.queue.push_back(batch);
        }
        drop(st);
        self.data.notify_all();
    }

    fn close(&self) {
        let mut st = self.state.lock();
        st.eof = true;
        drop(st);
        self.data.notify_all();
        self.space.notify_all();
    }

    /// Poison the pipe: the consumer's next receive observes `error` instead
    /// of EOF (the producer's packet failed — §4.3.4 analogue of a storage
    /// fault surfacing mid-scan).
    pub fn fail(&self, error: QError) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(error);
        }
        st.eof = true;
        drop(st);
        self.data.notify_all();
        self.space.notify_all();
    }

    fn detach(&self) {
        let mut st = self.state.lock();
        st.detached = true;
        st.queue.clear();
        drop(st);
        self.space.notify_all();
    }
}

/// Producer handle: push batches, then [`finish`](Self::finish) or
/// [`fail`](Self::fail). Dropping it any other way fails the pipe.
pub struct PipeProducer {
    pipe: Arc<Pipe>,
}

impl PipeProducer {
    /// Push a batch this producer owns.
    pub fn push_cols(&mut self, batch: ColBatch) {
        self.pipe.send(Arc::new(batch));
    }

    /// Push an already-shared batch without copying (a host's broadcast, and
    /// a columnar page's pool-resident batch).
    pub fn push_shared(&mut self, batch: Arc<ColBatch>) {
        self.pipe.send(batch);
    }

    /// Mark end-of-stream.
    pub fn finish(self) {
        self.pipe.close();
    }

    /// Fail the stream: the consumer observes `error` instead of EOF.
    pub fn fail(self, error: QError) {
        self.pipe.fail(error);
    }

    /// True when nobody reads this producer's pipe any more — its consumer
    /// detached. This is the sharing rule's test: a cancelled packet stops
    /// only when its output is abandoned, because a cancel token says the
    /// packet's *own* query stopped caring, not that no other query rides
    /// the same output (see [`SharedHost::close_if_unwanted`]).
    ///
    /// [`SharedHost::close_if_unwanted`]: crate::host::SharedHost::close_if_unwanted
    pub fn abandoned(&self) -> bool {
        self.pipe.state.lock().detached
    }

    pub fn pipe(&self) -> &Arc<Pipe> {
        &self.pipe
    }
}

impl Drop for PipeProducer {
    fn drop(&mut self) {
        // `finish` and `fail` end the stream before they drop `self`; only
        // this producer can end it cleanly, so the unlocked check is exact.
        if !self.pipe.is_eof() {
            self.pipe.fail(QError::Exec("producer dropped without finishing".into()));
        }
    }
}

type Traced = (Arc<OpProbe>, Arc<QueryTrace>);

/// Consumer handle: pull batches; detaches on drop.
pub struct PipeConsumer {
    pipe: Arc<Pipe>,
    /// When set, time spent blocked waiting for data is charged to this
    /// probe as pipe-wait (the consuming operator's input starvation).
    probe: Option<Arc<OpProbe>>,
    /// The σ/π nodes run on each batch taken, innermost first, each with its
    /// probe and the query's journal when tracing is on.
    fused: Vec<(Arc<PlanNode>, Option<Traced>)>,
}

impl PipeConsumer {
    /// Charge this consumer's blocking waits to `probe` (tracing on).
    pub fn set_probe(&mut self, probe: Option<Arc<OpProbe>>) {
        self.probe = probe;
    }

    /// Fuse the σ/π chain atop `plan` into this reader ([`ops`](crate::ops),
    /// "σ and π run in their reader"): the node below it, its probe, and its
    /// parent's op — the chain's last node's, or `parent`.
    pub(crate) fn fuse(
        &mut self,
        mut plan: Arc<PlanNode>,
        mut probe: Option<ProbeNode>,
        mut parent: Option<&'static str>,
        trace: Option<&Arc<QueryTrace>>,
    ) -> (Arc<PlanNode>, Option<ProbeNode>, Option<&'static str>) {
        while let Some(input) = crate::ops::fused_input(&plan).cloned() {
            parent = Some(plan.op_name());
            let obs = probe.as_ref().zip(trace).map(|(p, t)| (p.probe.clone(), t.clone()));
            self.fused.insert(0, (plan, obs));
            probe = probe.and_then(|p| p.children.into_iter().next());
            plan = input;
        }
        (plan, probe, parent)
    }

    /// Blocking receive; `Ok(None)` at end of stream, `Err` when the producer
    /// failed the pipe or a fused kernel failed (the results are incomplete).
    pub fn recv(&self) -> QResult<Option<Arc<ColBatch>>> {
        let pipe = &self.pipe;
        let mut st = pipe.state.lock();
        loop {
            // A failed producer fails the consumer promptly — queued batches
            // belong to a packet that can no longer deliver complete results.
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if let Some(batch) = st.queue.pop_front() {
                drop(st);
                pipe.space.notify_all();
                let got = self.run_fused(batch);
                if !got.as_ref().is_ok_and(|b| b.is_empty()) {
                    return got.map(Some);
                }
                st = pipe.state.lock();
                continue;
            }
            if st.eof {
                return Ok(None);
            }
            let nodes = (pipe.consumer_node, st.producer_node);
            let blocked = self.probe.as_ref().map(|_| Instant::now());
            st = pipe.wait(st, &pipe.data, nodes, WaitKind::ConsumerEmpty);
            if let (Some(p), Some(blocked)) = (&self.probe, blocked) {
                p.add_pipe_wait_ns(blocked.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Drain everything into a vector of tuples — the client result
    /// boundary. Errs when the producer failed mid-stream — a failed packet
    /// never passes off partial output as complete results.
    pub fn collect_tuples(self) -> QResult<Vec<Tuple>> {
        let mut out = Vec::new();
        while let Some(b) = self.recv()? {
            out.extend(b.to_rows());
        }
        Ok(out)
    }

    /// Pass `batch` through the fused nodes. A node's kernel time is its busy
    /// time and the reader's pipe wait.
    fn run_fused(&self, mut batch: Arc<ColBatch>) -> QResult<Arc<ColBatch>> {
        for (plan, obs) in &self.fused {
            let started = obs.as_ref().map(|(p, _)| (p, Instant::now()));
            batch = Arc::new(crate::ops::fused_map(plan, &batch)?);
            if let Some((p, started)) = started {
                let ns = started.elapsed().as_nanos() as u64;
                p.add_total_ns(ns);
                self.probe.iter().for_each(|reader| reader.add_pipe_wait_ns(ns));
                p.add_rows(batch.len() as u64);
                p.add_batches(u64::from(!batch.is_empty()));
            }
        }
        Ok(batch)
    }
}

impl Drop for PipeConsumer {
    fn drop(&mut self) {
        self.pipe.detach();
        // A fused node's run ends with its reader's, as a host's with its
        // packet's.
        for (plan, obs) in &self.fused {
            if let Some((probe, trace)) = obs {
                trace.push(TraceEvent::finished(plan.op_name(), probe.stats()));
            }
        }
    }
}

/// Test feed shared by this crate's unit suites: push `rows` as
/// [`ColBatch::DEFAULT_CAPACITY`]-row batches: full ones, the last shorter,
/// as every engine producer's output arrives.
#[cfg(test)]
pub(crate) fn push_rows(producer: &mut PipeProducer, rows: &[Tuple]) {
    for chunk in rows.chunks(ColBatch::DEFAULT_CAPACITY) {
        producer.push_cols(ColBatch::from_rows(chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Value;
    use std::time::Duration;

    fn registry() -> Arc<WaitRegistry> {
        Arc::new(WaitRegistry::default())
    }

    fn pair(capacity: usize, registry: Arc<WaitRegistry>) -> (PipeProducer, PipeConsumer) {
        Pipe::pair(PipeConfig { capacity }, NodeId(1), NodeId(2), registry)
    }

    fn tuple(i: i64) -> Tuple {
        vec![Value::Int(i)]
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(tuple).collect()
    }

    #[test]
    fn single_consumer_round_trip() {
        let (mut producer, consumer) = pair(8, registry());
        push_rows(&mut producer, &tuples(1000));
        producer.finish();
        let rows = consumer.collect_tuples().unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[999], tuple(999));
    }

    #[test]
    fn materialize_unblocks_producer() {
        let (mut producer, stuck) = pair(1, registry());
        let pipe = producer.pipe().clone();
        let h = std::thread::spawn(move || {
            push_rows(&mut producer, &tuples(2000));
            producer.finish();
        });
        std::thread::sleep(Duration::from_millis(30));
        pipe.materialize();
        h.join().unwrap();
        assert_eq!(stuck.collect_tuples().unwrap().len(), 2000);
    }

    #[test]
    fn consumer_sees_eof_without_data() {
        let (producer, c) = pair(8, registry());
        producer.finish();
        assert!(c.recv().unwrap().is_none());
    }

    /// A producer that goes away without `finish()` — its packet was dropped
    /// somewhere, or its thread died — must not read as a complete result.
    #[test]
    fn dropped_producer_fails_the_pipe() {
        let (mut p, c) = pair(8, registry());
        push_rows(&mut p, &tuples(1));
        drop(p);
        let err = c.collect_tuples().expect_err("a dropped producer is not a clean EOF");
        assert!(matches!(err, QError::Exec(_)), "got {err:?}");
        // A finished stream keeps its clean ending when the handle drops.
        let (p, c) = pair(8, registry());
        p.finish();
        assert_eq!(c.collect_tuples().unwrap(), Vec::<Tuple>::new());
    }

    #[test]
    fn failed_pipe_surfaces_error_not_eof() {
        let (mut producer, c) = pair(8, registry());
        push_rows(&mut producer, &tuples(1));
        producer.fail(QError::Storage("bad page".into()));
        let err = c.collect_tuples().expect_err("failure must not look like EOF");
        assert_eq!(err, QError::Storage("bad page".into()));
    }

    #[test]
    fn failed_pipe_unblocks_waiting_consumer() {
        let (producer, c) = pair(8, registry());
        let h = std::thread::spawn(move || c.collect_tuples());
        std::thread::sleep(Duration::from_millis(20));
        producer.fail(QError::Storage("mid-stream fault".into()));
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn waits_for_edges_appear_and_clear() {
        let reg = registry();
        let (mut producer, slow) = pair(1, reg.clone());
        let n = ColBatch::DEFAULT_CAPACITY as i64 * 8;
        let h = std::thread::spawn(move || {
            push_rows(&mut producer, &tuples(n));
            producer.finish();
        });
        // Wait until the producer blocks.
        let mut saw_edge = false;
        for _ in 0..200 {
            if !reg.edges().is_empty() {
                saw_edge = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(saw_edge, "blocked producer must register a waits-for edge");
        let rows = slow.collect_tuples().unwrap();
        h.join().unwrap();
        assert_eq!(rows.len(), n as usize);
        assert!(reg.edges().is_empty(), "edges must clear after unblock");
    }

    /// A fused filter runs on the reader's thread: empty batches are
    /// skipped, its kernel time is its busy time and at least that much is
    /// the reader's pipe wait, and it journals its end once, when its reader
    /// lets go of the pipe.
    #[test]
    fn a_fused_filter_charges_its_kernel_to_its_busy_and_the_readers_pipe_wait() {
        use qpipe_exec::expr::Expr;
        let (mut producer, mut consumer) = pair(8, registry());
        let reader = Arc::new(OpProbe::default());
        let probes = ProbeNode::new("filter", vec![ProbeNode::new("scan", vec![])]);
        let trace = Arc::new(QueryTrace::default());
        consumer.set_probe(Some(reader.clone()));
        let plan = Arc::new(PlanNode::scan("t").filter(Expr::col(0).lt(Expr::lit(100))));
        let (below, probe, parent) = consumer.fuse(plan, Some(probes.clone()), None, Some(&trace));
        assert_eq!(
            (below.op_name(), probe.map(|p| p.op), parent),
            ("scan", Some("scan"), Some("filter"))
        );
        let filter = probes.probe.clone();
        push_rows(&mut producer, &tuples(1000));
        producer.finish();
        assert_eq!(consumer.recv().unwrap().unwrap().to_rows(), tuples(100));
        assert!(consumer.recv().unwrap().is_none(), "three emptied batches are skipped");
        assert!(consumer.recv().unwrap().is_none());
        drop(consumer);
        let (f, r) = (filter.stats(), reader.stats());
        assert_eq!((f.rows, f.batches, f.pipe_wait_ns), (100, 1, 0));
        assert!(f.busy_ns > 0, "{f:?}");
        assert!(r.pipe_wait_ns >= f.busy_ns, "{r:?} against {f:?}");
        let ends = trace.events().into_iter().filter(|e| {
            matches!(e.event, TraceEvent::OperatorFinished { op: "filter", rows: 100, .. })
        });
        assert_eq!(ends.count(), 1, "{}", trace.render());
    }

    /// Two producers feed two consumers that read them in opposite orders
    /// through capacity-1 pipes: each producer fills its pipe to the
    /// consumer still reading the other, a four-edge cycle. With no service
    /// thread, the waiter whose edge closes it materializes one pipe, once.
    #[test]
    fn opposite_order_readers_deadlock_once_and_the_closing_waiter_breaks_it() {
        use qpipe_common::Metrics;
        use std::sync::mpsc;
        for round in 0..200 {
            let metrics = Metrics::new();
            let reg = Arc::new(WaitRegistry::new(metrics.clone()));
            let cfg = PipeConfig { capacity: 1 };
            let (a, b, q1, q2) = (NodeId(1), NodeId(2), NodeId(3), NodeId(4));
            let (a_q1, q1_a) = Pipe::pair(cfg, a, q1, reg.clone());
            let (a_q2, q2_a) = Pipe::pair(cfg, a, q2, reg.clone());
            let (b_q1, q1_b) = Pipe::pair(cfg, b, q1, reg.clone());
            let (b_q2, q2_b) = Pipe::pair(cfg, b, q2, reg.clone());
            let (done, finished) = mpsc::channel();
            for mut outs in [[a_q1, a_q2], [b_q1, b_q2]] {
                let done = done.clone();
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let batch = Arc::new(ColBatch::from_rows(&[tuple(i)]));
                        outs.iter_mut().for_each(|out| out.push_shared(batch.clone()));
                    }
                    outs.into_iter().for_each(PipeProducer::finish);
                    done.send(32).unwrap();
                });
            }
            for [first, second] in [[q1_a, q1_b], [q2_b, q2_a]] {
                let done = done.clone();
                std::thread::spawn(move || {
                    let rows = first.collect_tuples().unwrap().len();
                    done.send(rows + second.collect_tuples().unwrap().len()).unwrap();
                });
            }
            for _ in 0..4 {
                let rows = finished.recv_timeout(Duration::from_secs(10));
                assert_eq!(rows, Ok(32), "round {round} wedged or lost rows");
            }
            assert_eq!(metrics.snapshot().deadlocks_resolved, 1, "round {round}");
        }
    }
}
