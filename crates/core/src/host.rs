//! OSP host state and the per-µEngine sharing registry.
//!
//! When a µEngine executes a packet whose operator is shareable, it registers
//! a [`SharedHost`] under the packet's subtree signature. A later packet with
//! the same signature becomes a *satellite*: its output pipe is handed to the
//! host, which then broadcasts every batch to all attached outputs (paper
//! §4.3, Figure 6b). The engine dispatches a plan top-down and runs this
//! check before a packet's children exist, so a satellite's subtree is never
//! dispatched — there is nothing below it to terminate.
//!
//! A host is open to satellites while everything it has emitted is still in
//! its replay history — the paper's *buffering* enhancement (§3.2,
//! Figure 4b), and the only place the engine retains output for a late
//! attacher. The history's capacity is the operator's window
//! (`ops::attach_window` picks it):
//! * [`AttachWindow::UntilFirstOutput`] — step-overlap operators (joins,
//!   range index scans): "first output" really means "more output than the
//!   host's replay history retains". The history counts batches, and every
//!   batch a host sends but its last holds at least
//!   [`ColBatch::DEFAULT_CAPACITY`] rows (`ops.rs`, "Delivery: full
//!   batches"). The history holds `backfill` batches, the capacity of the
//!   host's output pipe (`PipeConfig::capacity`), as the paper sizes it by
//!   the output buffer, so it covers at least `backfill × 256` rows of
//!   output. Rows a host holds pending are not output yet: they go to every
//!   output attached at their push.
//! * [`AttachWindow::WholeLifetime`] — full-overlap operators (aggregates,
//!   sort — whose output is materialized anyway, giving the materialization
//!   enhancement for free).
//! * no window — a host no satellite can reach (OSP off):
//!   it keeps no history and is never registered.
//!
//! # The cancellation rule
//!
//! A packet's cancel token fires when *its own* query stops needing it — the
//! client cancelled it or dropped its handle. That says nothing about the
//! other queries whose satellites ride this host. So
//! a cancelled host stops **only when no attached output has a reader left**,
//! and [`SharedHost::close_if_unwanted`] is the one place that decides it:
//! it tests the outputs and closes the host under the same lock
//! [`try_attach`](SharedHost::try_attach) takes, so a satellite either
//! attaches before the test (and keeps the host running) or finds the host
//! closed and gets its packet back to run on its own — it can never attach
//! to a host that is about to stop and read the truncated stream as a
//! complete result.

use crate::packet::Packet;
use crate::pipe::PipeProducer;
use parking_lot::Mutex;
use qpipe_common::trace::{OpProbe, TraceEvent};
use qpipe_common::{ColBatch, Metrics, QError};
use std::collections::HashMap;
use std::sync::Arc;

/// How long after operator start a satellite may still attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachWindow {
    /// Attach allowed while every batch produced so far is still replayable
    /// from the host's history (history capacity = `backfill` batches, so
    /// at least `backfill` × [`ColBatch::DEFAULT_CAPACITY`] rows: every batch
    /// but a host's last is full).
    UntilFirstOutput,
    /// Attach allowed for the host's entire lifetime; the full output is
    /// retained and replayed to late attachers.
    WholeLifetime,
}

/// One attached output stream (the host's own query or a satellite's),
/// paired with that query's operator probe so broadcast batches are
/// attributed per query.
struct HostOutput {
    producer: PipeProducer,
    probe: Option<Arc<OpProbe>>,
}

impl HostOutput {
    fn count(&self, batch: &ColBatch) {
        if let Some(p) = &self.probe {
            p.add_rows(batch.len() as u64);
            p.add_batches(1);
        }
    }
}

struct HostState {
    outputs: Vec<HostOutput>,
    /// The first batches emitted, for replay to late attachers (at most the
    /// host's `retain`).
    history: Vec<Arc<ColBatch>>,
    emitted: u64,
    closed: bool,
    /// True while `push_cols` holds the outputs outside the lock (a
    /// `close_if_unwanted` during a broadcast must not mistake the empty vec
    /// for abandonment).
    broadcasting: bool,
}

impl HostState {
    /// Refuse further attaches and end every output: cleanly, or with `error`.
    fn settle(&mut self, error: Option<&QError>) {
        self.closed = true;
        self.history.clear();
        for out in self.outputs.drain(..) {
            match error {
                Some(e) => out.producer.fail(e.clone()),
                None => out.producer.finish(),
            }
        }
    }
}

/// Shared state of one in-progress operation: its outputs (the host's own
/// query and any satellites) and, when it has an attach window, its replay
/// history.
pub struct SharedHost {
    /// History capacity in batches; `None` for a host no satellite can
    /// reach, which keeps no history and refuses every attach.
    retain: Option<usize>,
    /// Waits-for-graph identity of the executing host packet. Every output
    /// pipe is re-pointed to this node so blocked pushes on *any* output
    /// appear as waits by the same node.
    node: crate::deadlock::NodeId,
    state: Mutex<HostState>,
    engine: &'static str,
    metrics: Metrics,
}

impl SharedHost {
    /// `backfill` is the history capacity of an
    /// [`UntilFirstOutput`](AttachWindow::UntilFirstOutput) window.
    pub fn new(
        window: Option<AttachWindow>,
        backfill: usize,
        node: crate::deadlock::NodeId,
        first_output: PipeProducer,
        engine: &'static str,
        metrics: Metrics,
        probe: Option<Arc<OpProbe>>,
    ) -> Arc<Self> {
        first_output.pipe().set_producer_node(node);
        let retain = window.map(|w| match w {
            AttachWindow::UntilFirstOutput => backfill,
            AttachWindow::WholeLifetime => usize::MAX,
        });
        Arc::new(Self {
            retain,
            node,
            state: Mutex::new(HostState {
                outputs: vec![HostOutput { producer: first_output, probe }],
                history: Vec::new(),
                emitted: 0,
                closed: false,
                broadcasting: false,
            }),
            engine,
            metrics,
        })
    }

    /// Try to attach `packet` as a satellite. On success the packet's output
    /// is absorbed (history replayed first); on failure the packet is handed
    /// back for independent execution.
    #[allow(clippy::result_large_err)] // the Err *is* the packet, by design
    pub fn try_attach(&self, mut packet: Packet) -> Result<(), Packet> {
        let mut st = self.state.lock();
        if st.closed || self.retain.is_none() {
            return Err(packet);
        }
        if st.history.len() as u64 != st.emitted {
            // The window closed: output went out that history cannot replay.
            self.metrics.add_osp_rejection();
            return Err(packet);
        }
        let Some(producer) = packet.output.take() else { return Err(packet) };
        producer.pipe().set_producer_node(self.node);
        if !st.history.is_empty() {
            // The replay runs on the dispatching thread — a submitting client,
            // or one whose finished query freed an admission slot — which
            // must not block before it goes on to drain its own root pipe.
            // Unbound the pipe — this is the paper's *materialization*
            // enhancement, and costs no extra memory: the queued batches are
            // the same `Arc`s the host history already retains.
            producer.pipe().materialize();
        }
        let mut out = HostOutput { producer, probe: packet.probe.clone() };
        for batch in &st.history {
            out.count(batch);
            out.producer.push_shared(batch.clone());
        }
        st.outputs.push(out);
        self.metrics.add_osp_attach(self.engine);
        if let Some(tr) = &packet.trace {
            tr.push(TraceEvent::OspAttach { engine: self.engine });
        }
        Ok(())
    }

    /// Broadcast a batch to every attached output (host + satellites).
    ///
    /// The state lock is **not** held across the (possibly blocking) pipe
    /// sends: a host stalled on a slow consumer must never wedge
    /// `try_attach`, which runs on a client's dispatching thread under its
    /// µEngine's registry lock. Satellites
    /// that attach mid-push receive this batch through the history replay
    /// (the history entry is recorded before the lock is released), so no
    /// output is ever missed or duplicated.
    pub fn push_cols(&self, batch: Arc<ColBatch>) {
        let mut outputs = {
            let mut st = self.state.lock();
            st.broadcasting = true;
            st.emitted += 1;
            if self.retain.is_some_and(|n| st.history.len() < n) {
                st.history.push(batch.clone());
            }
            // Take the outputs; attaches during the send append to the
            // (now empty) list and replay history themselves.
            std::mem::take(&mut st.outputs)
        };
        for out in &mut outputs {
            out.count(&batch);
            out.producer.push_shared(batch.clone());
        }
        let mut st = self.state.lock();
        let newly_attached = std::mem::replace(&mut st.outputs, outputs);
        st.outputs.extend(newly_attached);
        st.broadcasting = false;
    }

    /// The cancellation rule (module docs): if no attached output has a
    /// reader left, close the host — refuse further attaches, fail the
    /// abandoned outputs — and return `true`; the caller stops working.
    /// Otherwise change nothing and return `false`: a packet whose cancel
    /// token fired (its own query was cancelled) keeps executing while it is
    /// a host other queries depend on. Test and close happen under one lock,
    /// so they are atomic
    /// with respect to [`try_attach`](Self::try_attach).
    pub fn close_if_unwanted(&self) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return true;
        }
        if st.broadcasting || st.outputs.iter().any(|o| !o.producer.abandoned()) {
            return false;
        }
        st.settle(Some(&QError::Cancelled));
        true
    }

    /// Number of queries currently served (host + satellites).
    pub fn fanout(&self) -> usize {
        self.state.lock().outputs.len()
    }

    /// Finish: close every output and refuse further attaches.
    pub fn finish(&self) {
        self.state.lock().settle(None);
    }

    /// Fail: poison every output with `error` so the host's queries (and any
    /// attached satellites) observe the failure instead of a truncated EOF.
    pub fn fail(&self, error: &QError) {
        self.state.lock().settle(Some(error));
    }
}

/// Per-µEngine registry of in-progress shareable operations, keyed by
/// subtree signature.
#[derive(Default)]
pub struct ShareRegistry {
    active: Mutex<HashMap<u64, Arc<SharedHost>>>,
}

impl ShareRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The OSP check for one packet, in one critical section per µEngine:
    /// attach `packet` to the in-flight host of its signature (`None`), or —
    /// no such host, or its window closed — build the packet's own host with
    /// `make_host` and, when that says the host is shareable, register it
    /// before the lock is released, so a burst of identical packets all find
    /// the first one's host. `make_host` returns `None` for a packet with no
    /// output to host. The guard unregisters the host on drop.
    pub fn attach_or_host(
        self: &Arc<Self>,
        packet: Packet,
        make_host: impl FnOnce(&mut Packet) -> Option<(Arc<SharedHost>, bool)>,
    ) -> Option<(Packet, Arc<SharedHost>, Option<RegistryGuard>)> {
        let mut active = self.active.lock();
        let mut packet = match active.get(&packet.signature) {
            Some(host) => host.try_attach(packet).err()?,
            None => packet,
        };
        let (host, shareable) = make_host(&mut packet)?;
        let sig = packet.signature;
        let guard = shareable.then(|| {
            active.insert(sig, host.clone());
            RegistryGuard { registry: self.clone(), sig }
        });
        Some((packet, host, guard))
    }

    /// Look up an in-progress host for `sig`.
    pub fn lookup(&self, sig: u64) -> Option<Arc<SharedHost>> {
        self.active.lock().get(&sig).cloned()
    }

    pub fn len(&self) -> usize {
        self.active.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Unregisters a host when the operation completes.
pub struct RegistryGuard {
    registry: Arc<ShareRegistry>,
    sig: u64,
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        self.registry.active.lock().remove(&self.sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::packet::{CancelToken, QueryId};
    use crate::pipe::{Pipe, PipeConfig, PipeConsumer};
    use qpipe_common::Value;
    use qpipe_exec::plan::PlanNode;
    use std::time::Duration;

    fn pipe_pair(capacity: usize) -> (PipeProducer, PipeConsumer) {
        Pipe::pair(PipeConfig { capacity }, NodeId(1), NodeId(2), Arc::new(WaitRegistry::default()))
    }

    fn make_packet() -> (Packet, PipeConsumer) {
        let (producer, consumer) = pipe_pair(1024);
        let plan = Arc::new(PlanNode::scan("t"));
        let packet = Packet {
            query: QueryId::fresh(),
            node: NodeId(99),
            signature: plan.signature(),
            plan,
            output: Some(producer),
            children: vec![],
            cancel: CancelToken::new(),
            probe: None,
            trace: None,
            split_side: None,
        };
        (packet, consumer)
    }

    fn batch_of(vals: &[i64]) -> Arc<ColBatch> {
        Arc::new(ColBatch::from_rows(
            &vals.iter().map(|&v| vec![Value::Int(v)]).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn attach_before_output_gets_everything() {
        let (host_prod, host_cons) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::UntilFirstOutput),
            4,
            NodeId(500),
            host_prod,
            "test",
            Metrics::new(),
            None,
        );
        let (packet, sat_cons) = make_packet();
        host.try_attach(packet).expect("window open");
        host.push_cols(batch_of(&[1, 2]));
        host.push_cols(batch_of(&[3]));
        host.finish();
        assert_eq!(host_cons.collect_tuples().unwrap().len(), 3);
        assert_eq!(sat_cons.collect_tuples().unwrap().len(), 3);
    }

    #[test]
    fn attach_within_backfill_replays_history() {
        let (host_prod, host_cons) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::UntilFirstOutput),
            4,
            NodeId(500),
            host_prod,
            "test",
            Metrics::new(),
            None,
        );
        host.push_cols(batch_of(&[1]));
        host.push_cols(batch_of(&[2]));
        let (packet, sat_cons) = make_packet();
        host.try_attach(packet).expect("2 batches <= backfill 4");
        host.push_cols(batch_of(&[3]));
        host.finish();
        assert_eq!(host_cons.collect_tuples().unwrap().len(), 3);
        assert_eq!(sat_cons.collect_tuples().unwrap().len(), 3, "history replayed");
    }

    #[test]
    fn attach_rejected_after_window() {
        let m = Metrics::new();
        let (host_prod, _host_cons) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::UntilFirstOutput),
            2,
            NodeId(500),
            host_prod,
            "test",
            m.clone(),
            None,
        );
        for i in 0..3 {
            host.push_cols(batch_of(&[i]));
        }
        let (packet, _sat_cons) = make_packet();
        assert!(host.try_attach(packet).is_err(), "window expired");
        assert_eq!(m.snapshot().osp_rejections, 1);
        host.finish();
    }

    #[test]
    fn whole_lifetime_attach_late() {
        let (host_prod, _hc) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            host_prod,
            "sort",
            Metrics::new(),
            None,
        );
        for i in 0..50 {
            host.push_cols(batch_of(&[i]));
        }
        let (packet, sat_cons) = make_packet();
        host.try_attach(packet).expect("whole-lifetime window");
        host.finish();
        assert_eq!(sat_cons.collect_tuples().unwrap().len(), 50);
    }

    #[test]
    fn attach_after_finish_rejected() {
        let (host_prod, _hc) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            host_prod,
            "sort",
            Metrics::new(),
            None,
        );
        host.finish();
        let (packet, _sc) = make_packet();
        assert!(host.try_attach(packet).is_err());
    }

    /// A host no satellite can reach (OSP off) keeps no history: a batch it
    /// broadcast lives only as long as a reader holds it, and an attach gets
    /// its packet back.
    #[test]
    fn unshared_host_retains_nothing() {
        let m = Metrics::new();
        let (host_prod, host_cons) = pipe_pair(1024);
        let host = SharedHost::new(None, 4, NodeId(500), host_prod, "filter", m.clone(), None);
        host.push_cols(batch_of(&[1, 2]));
        let batch = host_cons.recv().unwrap().expect("the pushed batch");
        assert_eq!(Arc::strong_count(&batch), 1, "the reader holds the only reference");
        let (packet, _sat_cons) = make_packet();
        let back = host.try_attach(packet).expect_err("an unshared host refuses attaches");
        assert!(back.output.is_some(), "the packet keeps its output");
        assert_eq!(m.snapshot().osp_attaches, 0);
        host.finish();
    }

    /// The first packet of a signature hosts and registers; an identical one
    /// attaches to it; the guard's drop unregisters.
    #[test]
    fn registry_register_lookup_unregister() {
        let reg = Arc::new(ShareRegistry::new());
        let host_of = |p: &mut Packet| {
            let out = p.output.take()?;
            let window = Some(AttachWindow::WholeLifetime);
            Some((SharedHost::new(window, 0, p.node, out, "agg", Metrics::new(), None), true))
        };
        let (first, _c1) = make_packet();
        let sig = first.signature;
        let (_, host, guard) = reg.attach_or_host(first, host_of).expect("first packet hosts");
        assert!(reg.lookup(sig).is_some());
        assert!(reg.lookup(sig + 1).is_none());
        let (second, _c2) = make_packet();
        assert!(reg.attach_or_host(second, host_of).is_none(), "an identical packet attaches");
        assert_eq!(host.fanout(), 2);
        drop(guard);
        assert!(reg.lookup(sig).is_none(), "guard drop unregisters");
        host.finish();
    }

    #[test]
    fn attach_never_blocks_behind_a_stalled_push() {
        // Regression test: a host blocked pushing to a full consumer must
        // not hold its state lock, or try_attach wedges the dispatching
        // thread and, with it, its µEngine's registry (observed as a fig10
        // hang at interarrival 120).
        let (out, slow_consumer) = pipe_pair(1);
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            out,
            "sort",
            Metrics::new(),
            None,
        );
        let h2 = host.clone();
        let pusher = std::thread::spawn(move || {
            for i in 0..40 {
                h2.push_cols(batch_of(&[i]));
            }
            h2.finish();
        });
        std::thread::sleep(Duration::from_millis(30)); // pusher is now stalled
        let (packet, sat_cons) = make_packet();
        let t = std::time::Instant::now();
        host.try_attach(packet).expect("attach while host stalled");
        assert!(t.elapsed() < Duration::from_millis(250), "attach must not block");
        // Drain both consumers; everything completes.
        let drain = std::thread::spawn(move || slow_consumer.collect_tuples().unwrap().len());
        assert_eq!(sat_cons.collect_tuples().unwrap().len(), 40);
        assert_eq!(drain.join().unwrap(), 40);
        pusher.join().unwrap();
    }

    /// The paper's rate rule (§4.3): a host pushes each batch to every
    /// output in turn, so one slow reader throttles it — and the fast
    /// reader with it — until that reader detaches.
    #[test]
    fn slowest_output_throttles_the_host_until_it_detaches() {
        let reg = Arc::new(WaitRegistry::default());
        let (slow_out, slow) =
            Pipe::pair(PipeConfig { capacity: 1 }, NodeId(1), NodeId(2), reg.clone());
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            slow_out,
            "sort",
            Metrics::new(),
            None,
        );
        let (packet, fast) = make_packet();
        host.try_attach(packet).expect("window open");
        let h2 = host.clone();
        let pusher = std::thread::spawn(move || {
            for i in 0..2000 {
                h2.push_cols(batch_of(&[i]));
            }
            h2.finish();
        });
        let fast = std::thread::spawn(move || fast.collect_tuples().unwrap().len());
        // The host parks on the slow output's full pipe, and nothing drains it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while reg.edges().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "the host never waited for the slow output"
            );
            std::thread::yield_now();
        }
        assert!(!pusher.is_finished(), "slow output must throttle");
        drop(slow); // detaching unblocks the host
        pusher.join().unwrap();
        assert_eq!(fast.join().unwrap(), 2000);
    }

    #[test]
    fn fanout_counts_attachers() {
        let (host_prod, _hc) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            host_prod,
            "agg",
            Metrics::new(),
            None,
        );
        assert_eq!(host.fanout(), 1);
        let (p1, _c1) = make_packet();
        host.try_attach(p1).unwrap();
        assert_eq!(host.fanout(), 2);
        host.finish();
    }

    /// Regression: a host whose own query was cancelled must keep running
    /// while any output still has a live consumer — a satellite's query
    /// reads it too (a cancelled join host with an attached satellite once
    /// silently emptied both queries).
    #[test]
    fn close_if_unwanted_tracks_live_consumers_not_cancellation() {
        let (host_prod, host_cons) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::UntilFirstOutput),
            4,
            NodeId(500),
            host_prod,
            "hashjoin",
            Metrics::new(),
            None,
        );
        let (packet, sat_cons) = make_packet();
        host.try_attach(packet).unwrap();
        // Both consumers attached: a cancelled host is still wanted.
        assert!(!host.close_if_unwanted(), "live consumers keep a cancelled host running");
        drop(host_cons);
        assert!(!host.close_if_unwanted(), "the satellite's consumer alone keeps it running");
        host.push_cols(batch_of(&[1]));
        drop(sat_cons);
        assert!(host.close_if_unwanted(), "no consumers ⇒ closed");
        assert_eq!(host.fanout(), 0, "abandoned outputs are settled, not kept");
        host.finish(); // the worker's epilogue is a no-op on a closed host
    }

    /// The close is atomic with the test: a satellite that loses the race
    /// gets its packet back and runs on its own, instead
    /// of attaching to a host that stops and reading a truncated stream as
    /// EOF.
    #[test]
    fn try_attach_after_close_if_unwanted_hands_the_packet_back() {
        let m = Metrics::new();
        let (host_prod, host_cons) = pipe_pair(1024);
        let host = SharedHost::new(
            Some(AttachWindow::WholeLifetime),
            0,
            NodeId(500),
            host_prod,
            "agg",
            m.clone(),
            None,
        );
        drop(host_cons);
        assert!(host.close_if_unwanted());
        let (packet, sat_cons) = make_packet();
        let back = host.try_attach(packet).expect_err("a closed host refuses attaches");
        assert!(back.output.is_some(), "the packet keeps its output");
        assert_eq!(m.snapshot().osp_attaches, 0);
        // The refused packet's pipe is untouched: it can still run and finish.
        back.output.expect("checked above").finish();
        assert_eq!(sat_cons.collect_tuples().unwrap(), Vec::<qpipe_common::Tuple>::new());
    }
}
