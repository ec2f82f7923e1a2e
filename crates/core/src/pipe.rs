//! Intermediate buffers.
//!
//! QPipe µEngines exchange data through dedicated buffers (paper §4.2,
//! Figure 5b). A [`Pipe`] is a bounded 1-producer-N-consumer broadcast
//! channel of `Arc<ColBatch>`es — the one batch format of the staged engine.
//! Every producer (scanner, operator worker, OSP host, the row bridge) sends
//! whole columnar batches; the `Arc` is what makes a broadcast to N consumers
//! (and a host's replay history) share one copy:
//!
//! * The producer blocks while **any** attached consumer's queue is full —
//!   "if any of the consumers is slower than the producer, all queries will
//!   eventually adjust their consuming speed to the speed of the slowest
//!   consumer" (§4.3).
//! * A pipe keeps nothing once every consumer has it: a consumer that
//!   attaches mid-stream receives what is produced from then on. The paper's
//!   **buffering** WoP enhancement (§3.2, Figure 4b) — replaying recent
//!   output to a late satellite — is stated once, in the OSP host's history
//!   ([`SharedHost`](crate::host::SharedHost)).
//! * Pipe state (empty / full / non-empty per consumer) is observable, and a
//!   pipe can be **materialized** — its bound lifted so the producer never
//!   blocks again — which is exactly the deadlock-resolution action of §4.3.3.
//! * Every blocking wait registers a waits-for edge with the
//!   [`deadlock`](crate::deadlock) registry so real deadlocks are detected.
//! * A stream ends exactly one of two ways: [`PipeProducer::finish`] (clean
//!   EOF) or a failure ([`PipeProducer::fail`] / [`Pipe::fail`]). A producer
//!   that is merely *dropped* fails its pipe — a packet that vanished on the
//!   way (dropped unrun by a pool at shutdown, lost with a panicking thread)
//!   must read as an error downstream, never as a complete empty result.

use crate::deadlock::{NodeId, WaitEdge, WaitKind, WaitRegistry};
use parking_lot::{Condvar, Mutex};
use qpipe_common::trace::OpProbe;
use qpipe_common::{ColBatch, QError, QResult, Tuple};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

static NEXT_PIPE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_CONSUMER_ID: AtomicUsize = AtomicUsize::new(1);

/// Pipe configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipeConfig {
    /// Per-consumer queue capacity in batches.
    pub capacity: usize,
}

impl Default for PipeConfig {
    fn default() -> Self {
        Self { capacity: 8 }
    }
}

#[derive(Debug)]
struct ConsumerQueue {
    queue: VecDeque<Arc<ColBatch>>,
    detached: bool,
    /// Node id of the packet draining this queue (for waits-for edges).
    node: NodeId,
}

#[derive(Debug)]
struct PipeState {
    consumers: HashMap<usize, ConsumerQueue>,
    /// Total batches ever produced.
    produced: u64,
    eof: bool,
    /// Set when the producer failed; consumers observe the error instead of
    /// a truncated-but-clean EOF (no silent data loss).
    error: Option<QError>,
    materialized: bool,
    /// Node id of the producing packet.
    producer_node: NodeId,
}

/// Shared pipe internals.
#[derive(Debug)]
pub struct Pipe {
    id: u64,
    config: PipeConfig,
    state: Mutex<PipeState>,
    /// Producer waits here for queue space.
    space: Condvar,
    /// Consumers wait here for data.
    data: Condvar,
    registry: Arc<WaitRegistry>,
}

impl Pipe {
    /// Create a pipe; returns the shared handle. Producer/consumer handles
    /// are created from it. The pipe enters itself in `registry` (and leaves
    /// on drop), so the deadlock detector can break any pipe it can see.
    pub fn new(
        config: PipeConfig,
        producer_node: NodeId,
        registry: Arc<WaitRegistry>,
    ) -> Arc<Self> {
        let pipe = Arc::new(Self {
            id: NEXT_PIPE_ID.fetch_add(1, Ordering::Relaxed),
            config,
            state: Mutex::new(PipeState {
                consumers: HashMap::new(),
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
        pipe.registry.track_pipe(&pipe);
        pipe
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a new consumer; it receives every batch produced from now on.
    pub fn attach_consumer(self: &Arc<Self>, node: NodeId) -> PipeConsumer {
        let id = NEXT_CONSUMER_ID.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        st.consumers.insert(id, ConsumerQueue { queue: VecDeque::new(), detached: false, node });
        drop(st);
        self.data.notify_all();
        PipeConsumer { pipe: self.clone(), id, node, probe: None }
    }

    /// Create the producer handle.
    pub fn producer(self: &Arc<Self>) -> PipeProducer {
        PipeProducer { pipe: self.clone() }
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
    /// deadlock resolver picks the minimum-cost victim set.
    pub fn materialize_cost(&self) -> usize {
        let st = self.state.lock();
        st.consumers.values().map(|c| c.queue.len()).max().unwrap_or(0)
    }

    /// Is the waits-for edge `e` (registered by a waiter on this pipe) still
    /// the wait it was registered as: its condition holds, and nothing was
    /// produced since? A woken waiter clears its edge only after it runs
    /// again, so the detector asks the pipe before it believes one.
    pub(crate) fn edge_holds(&self, e: &WaitEdge) -> bool {
        let st = self.state.lock();
        let mut queues = st.consumers.values().filter(|c| !c.detached);
        st.produced == e.produced
            && match e.kind {
                WaitKind::ProducerFull => {
                    let full = |c: &ConsumerQueue| c.queue.len() >= self.config.capacity;
                    !st.materialized && queues.any(|c| c.node == e.holder && full(c))
                }
                WaitKind::ConsumerEmpty => {
                    !st.eof
                        && st.error.is_none()
                        && st.producer_node == e.holder
                        && queues.any(|c| c.node == e.waiter && c.queue.is_empty())
                }
            }
    }

    /// True once the producer closed the pipe.
    pub fn is_eof(&self) -> bool {
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

    /// Consumers currently attached (not detached).
    pub fn active_consumers(&self) -> usize {
        self.state.lock().consumers.values().filter(|c| !c.detached).count()
    }

    fn send(&self, batch: Arc<ColBatch>) {
        let mut st = self.state.lock();
        loop {
            if st.materialized {
                break;
            }
            // Collect every full, attached consumer: the producer waits for
            // all of them (multi-consumer waits-for model, §4.3.3 / [30]).
            let full: Vec<NodeId> = st
                .consumers
                .values()
                .filter(|c| !c.detached && c.queue.len() >= self.config.capacity)
                .map(|c| c.node)
                .collect();
            if full.is_empty() {
                break;
            }
            let producer_node = st.producer_node;
            let kind = WaitKind::ProducerFull;
            self.registry.add_edges(producer_node, &full, self.id, kind, st.produced);
            self.space.wait(&mut st);
            self.registry.remove_edge(producer_node);
        }
        st.produced += 1;
        for c in st.consumers.values_mut() {
            if !c.detached {
                c.queue.push_back(batch.clone());
            }
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

    /// Poison the pipe: every consumer's next receive observes `error`
    /// instead of EOF (the producer's packet failed — §4.3.4 analogue of a
    /// storage fault surfacing mid-scan).
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

    /// The error the producer failed with, if any.
    pub fn error(&self) -> Option<QError> {
        self.state.lock().error.clone()
    }

    fn recv(
        &self,
        id: usize,
        node: NodeId,
        probe: Option<&OpProbe>,
    ) -> QResult<Option<Arc<ColBatch>>> {
        let mut st = self.state.lock();
        loop {
            // A failed producer fails the consumer promptly — queued batches
            // belong to a packet that can no longer deliver complete results.
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            let Some(c) = st.consumers.get_mut(&id) else { return Ok(None) };
            if let Some(batch) = c.queue.pop_front() {
                drop(st);
                self.space.notify_all();
                return Ok(Some(batch));
            }
            if st.eof {
                return Ok(None);
            }
            let producer_node = st.producer_node;
            let kind = WaitKind::ConsumerEmpty;
            self.registry.add_edges(node, &[producer_node], self.id, kind, st.produced);
            match probe {
                Some(p) => {
                    let blocked = Instant::now();
                    self.data.wait(&mut st);
                    p.add_pipe_wait_ns(blocked.elapsed().as_nanos() as u64);
                }
                None => {
                    self.data.wait(&mut st);
                }
            }
            self.registry.remove_edge(node);
        }
    }

    fn detach(&self, id: usize) {
        let mut st = self.state.lock();
        if let Some(c) = st.consumers.get_mut(&id) {
            c.detached = true;
            c.queue.clear();
        }
        st.consumers.remove(&id);
        drop(st);
        self.space.notify_all();
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        self.registry.untrack_pipe(self.id);
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

    /// Push an already-shared batch without copying (broadcast path, and a
    /// columnar page's pool-resident batch).
    pub fn push_shared(&mut self, batch: Arc<ColBatch>) {
        self.pipe.send(batch);
    }

    /// Mark end-of-stream.
    pub fn finish(self) {
        self.pipe.close();
    }

    /// Fail the stream: consumers observe `error` instead of EOF.
    pub fn fail(self, error: QError) {
        self.pipe.fail(error);
    }

    /// True when nobody reads this producer's pipe any more — every consumer
    /// detached. This is the sharing rule's test: a cancelled packet stops
    /// only when its output is abandoned, because a cancel token says the
    /// packet's *own* query stopped caring, not that no other query rides
    /// the same output (see [`SharedHost::close_if_unwanted`]).
    ///
    /// [`SharedHost::close_if_unwanted`]: crate::host::SharedHost::close_if_unwanted
    pub fn abandoned(&self) -> bool {
        self.pipe.active_consumers() == 0
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

/// Consumer handle: pull batches; detaches on drop.
pub struct PipeConsumer {
    pipe: Arc<Pipe>,
    id: usize,
    node: NodeId,
    /// When set, time spent blocked waiting for data is charged to this
    /// probe as pipe-wait (the consuming operator's input starvation).
    probe: Option<Arc<OpProbe>>,
}

impl PipeConsumer {
    /// Charge this consumer's blocking waits to `probe` (tracing on).
    pub fn set_probe(&mut self, probe: Option<Arc<OpProbe>>) {
        self.probe = probe;
    }

    /// Blocking receive; `Ok(None)` at end of stream, `Err` when the
    /// producer failed the pipe (the packet's results are incomplete).
    pub fn recv(&self) -> QResult<Option<Arc<ColBatch>>> {
        self.pipe.recv(self.id, self.node, self.probe.as_deref())
    }

    pub fn pipe(&self) -> &Arc<Pipe> {
        &self.pipe
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
}

impl Drop for PipeConsumer {
    fn drop(&mut self) {
        self.pipe.detach(self.id);
    }
}

/// Test feed shared by this crate's unit suites: push `rows` as
/// [`ColBatch::DEFAULT_CAPACITY`]-row batches, the way every engine producer
/// cuts its output.
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
        Arc::new(WaitRegistry::new())
    }

    fn tuple(i: i64) -> Tuple {
        vec![Value::Int(i)]
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(tuple).collect()
    }

    #[test]
    fn single_consumer_round_trip() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let consumer = pipe.attach_consumer(NodeId(2));
        let mut producer = pipe.producer();
        push_rows(&mut producer, &tuples(1000));
        producer.finish();
        let rows = consumer.collect_tuples().unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[999], tuple(999));
    }

    #[test]
    fn broadcast_to_three_consumers() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let consumers: Vec<_> = (0..3).map(|i| pipe.attach_consumer(NodeId(10 + i))).collect();
        let mut producer = pipe.producer();
        let handle = std::thread::spawn(move || {
            push_rows(&mut producer, &tuples(600));
            producer.finish();
        });
        let mut joins = Vec::new();
        for c in consumers {
            joins.push(std::thread::spawn(move || c.collect_tuples().unwrap().len()));
        }
        handle.join().unwrap();
        for j in joins {
            assert_eq!(j.join().unwrap(), 600);
        }
    }

    #[test]
    fn producer_blocks_on_slow_consumer_until_detach() {
        let pipe = Pipe::new(PipeConfig { capacity: 1 }, NodeId(1), registry());
        let slow = pipe.attach_consumer(NodeId(2));
        let fast = pipe.attach_consumer(NodeId(3));
        let mut producer = pipe.producer();
        let producer_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = producer_done.clone();
        let h = std::thread::spawn(move || {
            push_rows(&mut producer, &tuples(2000));
            producer.finish();
            flag.store(true, Ordering::SeqCst);
        });
        // Fast consumer drains in its own thread.
        let fh = std::thread::spawn(move || fast.collect_tuples().unwrap().len());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!producer_done.load(Ordering::SeqCst), "slow consumer must throttle producer");
        drop(slow); // detaching unblocks the producer
        h.join().unwrap();
        assert_eq!(fh.join().unwrap(), 2000);
    }

    #[test]
    fn materialize_unblocks_producer() {
        let pipe = Pipe::new(PipeConfig { capacity: 1 }, NodeId(1), registry());
        let stuck = pipe.attach_consumer(NodeId(2));
        let mut producer = pipe.producer();
        let pipe2 = pipe.clone();
        let h = std::thread::spawn(move || {
            push_rows(&mut producer, &tuples(2000));
            producer.finish();
        });
        std::thread::sleep(Duration::from_millis(30));
        pipe2.materialize();
        h.join().unwrap();
        assert_eq!(stuck.collect_tuples().unwrap().len(), 2000);
    }

    #[test]
    fn consumer_sees_eof_without_data() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let c = pipe.attach_consumer(NodeId(2));
        let producer = pipe.producer();
        producer.finish();
        assert!(c.recv().unwrap().is_none());
    }

    /// A producer that goes away without `finish()` — its packet was dropped
    /// somewhere, or its thread died — must not read as a complete result.
    #[test]
    fn dropped_producer_fails_the_pipe() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let c = pipe.attach_consumer(NodeId(2));
        {
            let mut p = pipe.producer();
            push_rows(&mut p, &tuples(1));
        }
        let err = c.collect_tuples().expect_err("a dropped producer is not a clean EOF");
        assert!(matches!(err, QError::Exec(_)), "got {err:?}");
        // A finished stream keeps its clean ending when the handle drops.
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let c = pipe.attach_consumer(NodeId(2));
        pipe.producer().finish();
        assert_eq!(c.collect_tuples().unwrap(), Vec::<Tuple>::new());
    }

    #[test]
    fn failed_pipe_surfaces_error_not_eof() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let c = pipe.attach_consumer(NodeId(2));
        let mut producer = pipe.producer();
        push_rows(&mut producer, &tuples(1));
        producer.fail(QError::Storage("bad page".into()));
        let err = c.collect_tuples().expect_err("failure must not look like EOF");
        assert_eq!(err, QError::Storage("bad page".into()));
        // Late attachers observe the same failure.
        let late = pipe.attach_consumer(NodeId(3));
        assert!(late.recv().is_err());
    }

    #[test]
    fn failed_pipe_unblocks_waiting_consumer() {
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry());
        let c = pipe.attach_consumer(NodeId(2));
        let producer = pipe.producer();
        let h = std::thread::spawn(move || c.collect_tuples());
        std::thread::sleep(Duration::from_millis(20));
        producer.fail(QError::Storage("mid-stream fault".into()));
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn waits_for_edges_appear_and_clear() {
        let reg = registry();
        let pipe = Pipe::new(PipeConfig { capacity: 1 }, NodeId(1), reg.clone());
        let slow = pipe.attach_consumer(NodeId(2));
        let mut producer = pipe.producer();
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
}
