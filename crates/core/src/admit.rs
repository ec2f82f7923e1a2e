//! Admission control: bounded per-µEngine concurrency for multi-query load.
//!
//! The engine used to dispatch every submitted plan immediately: a burst of
//! clients claimed packets, pipes, and operator memory without bound,
//! drowning the shared-scan benefit the paper measures. Every query now
//! passes through the [`AdmissionController`] before dispatch:
//!
//! * **Bounded depth per µEngine** — at most [`AdmitConfig::queue_depth`]
//!   queries may concurrently *use* any one µEngine. A query counts against
//!   every µEngine its plan touches and is admitted atomically (all engines
//!   or none), so partial admission can never deadlock two queries against
//!   each other.
//! * **Ticketed waiting, FIFO within class** — excess queries wait as
//!   [`QueryTicket`]s in two queues: [`QueryClass::Interactive`] drains
//!   ahead of [`QueryClass::Batch`], and within a class, queries contending
//!   for the same µEngine are admitted strictly in arrival order. Queries
//!   whose engine sets are disjoint from every earlier waiter may overtake
//!   (no cross-engine head-of-line blocking).
//! * **Backpressure & cancellation** — the waiting room itself is bounded
//!   ([`AdmitConfig::max_queued`]; beyond it `submit` fails fast with
//!   [`QError::Admission`]), queued queries are cancellable (the ticket is
//!   withdrawn without ever dispatching a packet), and a configurable
//!   [`AdmitConfig::queue_timeout`] rejects tickets that waited too long —
//!   in every case the ticket's slots and the client's pipe are settled.
//!
//! A query's slots release when its handle is consumed or dropped
//! (`QueryHandle` holds the ticket); the release pumps the queues, so
//! admission needs no thread of its own: queue timeouts and execution
//! deadlines are enforced by [`AdmissionController::sweep`], which the
//! engine's service thread runs whenever the last sweep said one falls due.
//! Clients must drain their handles concurrently (every driver in this repo
//! does): a handle left uncollected keeps its slots, which is admission's
//! backpressure working as intended.
//!
//! The depth bound is *slot accounting*, enforced at admit/release points.
//! Cancellation is cooperative (workers observe their tokens at batch and
//! receive boundaries), so a cancelled or dropped query's packets may
//! overlap briefly with a successor admitted into its freed slot; for
//! normally completed queries the window is the moment between the root
//! pipe's EOF and the worker thread unwinding. Tracking live worker exit
//! per query would close the window at the cost of a join barrier on every
//! release — out of proportion for a simulator whose workers yield at
//! batch granularity.
//!
//! Lock order: the controller lock is always taken *before* any ticket's
//! state lock, and neither is held across a dispatch, a pipe failure, or a
//! cancel-token fire.

use crate::packet::CancelToken;
use crate::pipe::Pipe;
use parking_lot::Mutex;
use qpipe_common::trace::{QueryTrace, TraceEvent};
use qpipe_common::{Metrics, QError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmitConfig {
    /// Queries that may concurrently use any one µEngine; excess waits.
    pub queue_depth: usize,
    /// Waiting-room bound across both classes; beyond it submissions are
    /// rejected outright.
    pub max_queued: usize,
    /// A ticket queued longer than this is rejected (its slots were never
    /// taken; its pipe fails with [`QError::Admission`]) by the sweep that
    /// runs when it falls due. `None` = wait forever.
    pub queue_timeout: Option<Duration>,
}

impl Default for AdmitConfig {
    fn default() -> Self {
        Self { queue_depth: 64, max_queued: 1024, queue_timeout: None }
    }
}

impl AdmitConfig {
    /// Clamp degenerate values (a depth of 0 would admit nothing, ever);
    /// each clamp counts against the warning-level `config_clamps` metric.
    pub fn validated(mut self, metrics: &Metrics) -> Self {
        if self.queue_depth == 0 {
            self.queue_depth = 1;
            metrics.add_config_clamp();
        }
        if self.max_queued == 0 {
            self.max_queued = 1;
            metrics.add_config_clamp();
        }
        self
    }
}

/// Scheduling class of a submitted query (FIFO within class; interactive
/// drains ahead of batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryClass {
    #[default]
    Interactive,
    Batch,
}

impl QueryClass {
    fn index(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Batch => 1,
        }
    }
}

/// Runs the query's packet dispatch once admitted; returns the subtree's
/// cancel tokens so a later [`QueryHandle::cancel`](crate::engine::QueryHandle::cancel)
/// can terminate the running plan.
pub type DispatchFn = Box<dyn FnOnce() -> Vec<CancelToken> + Send>;

enum TicketState {
    Queued {
        since: Instant,
        dispatch: DispatchFn,
        /// Root pipe, failed on rejection/timeout so the client observes the
        /// refusal instead of a clean-but-empty EOF.
        pipe: Arc<Pipe>,
    },
    Running {
        cancels: Vec<CancelToken>,
        /// When the query was admitted (execution-deadline clock).
        since: Instant,
        /// Root pipe, failed with [`QError::Timeout`] when the deadline
        /// sweep terminates an overdue query.
        pipe: Arc<Pipe>,
    },
    Finished,
}

/// One submitted query's admission state, shared between the controller's
/// queues and the query handle.
pub struct QueryTicket {
    class: QueryClass,
    /// Deduplicated µEngines the plan touches (its slot footprint).
    engines: Vec<&'static str>,
    /// The query's event journal (`None` when tracing is off); admission
    /// stamps `Enqueued`/`Admitted` events here.
    trace: Option<Arc<QueryTrace>>,
    state: Mutex<TicketState>,
}

impl QueryTicket {
    pub fn new(
        class: QueryClass,
        engines: Vec<&'static str>,
        dispatch: DispatchFn,
        pipe: Arc<Pipe>,
    ) -> Arc<Self> {
        Self::new_traced(class, engines, dispatch, pipe, None)
    }

    /// Like [`QueryTicket::new`], carrying the query's trace journal; the
    /// `Enqueued` event is stamped immediately.
    pub fn new_traced(
        class: QueryClass,
        engines: Vec<&'static str>,
        dispatch: DispatchFn,
        pipe: Arc<Pipe>,
        trace: Option<Arc<QueryTrace>>,
    ) -> Arc<Self> {
        if let Some(tr) = &trace {
            tr.push(TraceEvent::Enqueued);
        }
        Arc::new(Self {
            class,
            engines,
            trace,
            state: Mutex::new(TicketState::Queued { since: Instant::now(), dispatch, pipe }),
        })
    }

    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// Still waiting for admission?
    pub fn is_queued(&self) -> bool {
        matches!(*self.state.lock(), TicketState::Queued { .. })
    }
}

#[derive(Default)]
struct CtrlState {
    /// Queries currently admitted, per µEngine.
    in_flight: HashMap<&'static str, usize>,
    /// High-water mark of `in_flight`, per µEngine.
    peak: HashMap<&'static str, usize>,
    /// Waiting rooms: `[interactive, batch]`.
    queues: [VecDeque<Arc<QueryTicket>>; 2],
    /// Tickets currently in `Running` state, scanned by the deadline
    /// sweep. Maintained only when a deadline is configured.
    running: Vec<Arc<QueryTicket>>,
}

/// Deferred side effects collected under the locks, performed outside them.
#[derive(Default)]
struct Actions {
    dispatch: Vec<(Arc<QueryTicket>, DispatchFn)>,
    fail: Vec<(Arc<Pipe>, QError)>,
    fire: Vec<CancelToken>,
    /// Never-dispatched closures of withdrawn/rejected tickets. Dropping one
    /// drops its root `PipeProducer`, which *closes* the pipe — so the drop
    /// must happen strictly **after** `fail` poisons it, or a concurrently
    /// blocked consumer could wake on the clean EOF and report a cancelled
    /// query as a successful empty result.
    discard: Vec<DispatchFn>,
}

impl Actions {
    fn run(self) {
        for (pipe, err) in self.fail {
            pipe.fail(err);
        }
        drop(self.discard);
        for token in self.fire {
            token.cancel();
        }
        for (ticket, dispatch) in self.dispatch {
            let cancels = dispatch();
            let mut st = ticket.state.lock();
            match &mut *st {
                TicketState::Running { cancels: slot, .. } => *slot = cancels,
                // Cancelled while the dispatch ran: terminate the plan now.
                // (A dispatched ticket is never queued again.)
                TicketState::Finished | TicketState::Queued { .. } => {
                    drop(st);
                    for t in cancels {
                        t.cancel();
                    }
                }
            }
        }
    }
}

/// The admission controller. One per engine; shared with every handle.
pub struct AdmissionController {
    config: AdmitConfig,
    /// Per-query execution deadline; running queries that exceed it are
    /// terminated by the sweep with [`QError::Timeout`].
    deadline: Option<Duration>,
    metrics: Metrics,
    state: Mutex<CtrlState>,
}

impl AdmissionController {
    pub fn new(config: AdmitConfig, metrics: Metrics) -> Arc<Self> {
        Self::with_deadline(config, None, metrics)
    }

    /// Controller with an execution deadline: [`sweep`](Self::sweep) fires
    /// the plan's cancel tokens and fails the root pipe with
    /// [`QError::Timeout`] once a running query exceeds `deadline`.
    pub fn with_deadline(
        config: AdmitConfig,
        deadline: Option<Duration>,
        metrics: Metrics,
    ) -> Arc<Self> {
        let config = config.validated(&metrics);
        Arc::new(Self { config, deadline, metrics, state: Mutex::new(CtrlState::default()) })
    }

    pub fn config(&self) -> AdmitConfig {
        self.config
    }

    /// Queries currently admitted against `engine`.
    pub fn in_flight(&self, engine: &str) -> usize {
        self.state.lock().in_flight.get(engine).copied().unwrap_or(0)
    }

    /// High-water mark of concurrent queries against `engine` since boot.
    pub fn peak(&self, engine: &str) -> usize {
        self.state.lock().peak.get(engine).copied().unwrap_or(0)
    }

    /// All µEngine high-water marks observed so far.
    pub fn peaks(&self) -> HashMap<&'static str, usize> {
        self.state.lock().peak.clone()
    }

    /// Total admission slots currently held, summed over µEngines. A single
    /// admitted query touching k µEngines contributes k — this is a
    /// slot-occupancy gauge, not a query count (0 ⇔ fully idle).
    pub fn running(&self) -> usize {
        self.state.lock().in_flight.values().sum()
    }

    /// Tickets waiting in either class queue.
    pub fn queue_len(&self) -> usize {
        let st = self.state.lock();
        st.queues[0].len() + st.queues[1].len()
    }

    /// Enqueue a ticket and pump. Fails fast when the ticket would have to
    /// *wait* in a full waiting room — the bound is tested after the pump,
    /// so a query whose µEngines are idle is admitted even when the room is
    /// full (the no-cross-engine-head-of-line promise holds at the submit
    /// boundary too).
    pub fn submit(&self, ticket: Arc<QueryTicket>) -> Result<(), QError> {
        let (actions, verdict) = {
            let mut st = self.state.lock();
            st.queues[ticket.class.index()].push_back(ticket.clone());
            let mut actions = self.pump_locked(&mut st);
            let waiting = st.queues[0].len() + st.queues[1].len();
            let verdict = if waiting > self.config.max_queued && ticket.is_queued() {
                for q in &mut st.queues {
                    q.retain(|other| !Arc::ptr_eq(other, &ticket));
                }
                let mut t = ticket.state.lock();
                if let TicketState::Queued { dispatch, .. } =
                    std::mem::replace(&mut *t, TicketState::Finished)
                {
                    // Never dispatched; nobody holds the handle yet, so the
                    // pipe just closes when the producer drops (after any
                    // unrelated fails, per `Actions::discard`).
                    actions.discard.push(dispatch);
                }
                drop(t);
                self.metrics.add_rejected();
                Err(QError::Admission(format!(
                    "queue full: {} queries already waiting",
                    waiting - 1
                )))
            } else {
                Ok(())
            };
            (actions, verdict)
        };
        if verdict.is_ok() && ticket.is_queued() {
            self.metrics.add_queued();
        }
        actions.run();
        verdict
    }

    /// Settle a ticket when its handle is consumed, dropped, or cancelled.
    /// `reason` poisons the pipe of a still-queued ticket (cancellation);
    /// `fire` additionally terminates a running plan's packet subtree.
    pub fn finish(&self, ticket: &Arc<QueryTicket>, reason: Option<QError>, fire: bool) {
        let mut actions = Actions::default();
        {
            let mut st = self.state.lock();
            let mut t = ticket.state.lock();
            match std::mem::replace(&mut *t, TicketState::Finished) {
                TicketState::Queued { pipe, dispatch, .. } => {
                    drop(t);
                    for q in &mut st.queues {
                        q.retain(|other| !Arc::ptr_eq(other, ticket));
                    }
                    if let Some(err) = reason {
                        self.metrics.add_rejected();
                        actions.fail.push((pipe, err));
                    }
                    // Deferred: dropping the closure drops the root producer,
                    // closing the pipe for a silently-withdrawn handle — and
                    // only after `fail` poisoned a cancelled one (see
                    // `Actions::discard`).
                    actions.discard.push(dispatch);
                }
                TicketState::Running { cancels, pipe, .. } => {
                    drop(t);
                    if let Some(err) = reason {
                        actions.fail.push((pipe, err));
                    }
                    if fire {
                        actions.fire.extend(cancels);
                    }
                    for e in &ticket.engines {
                        if let Some(n) = st.in_flight.get_mut(e) {
                            *n = n.saturating_sub(1);
                        }
                    }
                    st.running.retain(|other| !Arc::ptr_eq(other, ticket));
                    let mut pumped = self.pump_locked(&mut st);
                    actions.dispatch.append(&mut pumped.dispatch);
                }
                TicketState::Finished => {}
            }
        }
        actions.run();
    }

    /// Reject queued tickets that outstayed `queue_timeout`, and terminate
    /// running queries older than the deadline: their cancel tokens fire and
    /// their root pipes fail with [`QError::Timeout`] (slots release when the
    /// handle settles, as for any failed query). Returns when the next sweep
    /// is due: the earliest `since + queue_timeout` (queued) or `since +
    /// deadline` (running) of a ticket it kept, capped at `now +
    /// min(deadline, queue_timeout)`, before which no later ticket can fall
    /// due. `None` when neither is set.
    pub fn sweep(&self) -> Option<Instant> {
        let now = Instant::now();
        let mut due = now + self.config.queue_timeout.into_iter().chain(self.deadline).min()?;
        let mut actions = Actions::default();
        {
            let mut st = self.state.lock();
            if let Some(timeout) = self.config.queue_timeout {
                for q in &mut st.queues {
                    q.retain(|ticket| {
                        let mut t = ticket.state.lock();
                        match std::mem::replace(&mut *t, TicketState::Finished) {
                            TicketState::Queued { since, dispatch, pipe }
                                if now.duration_since(since) < timeout =>
                            {
                                due = due.min(since + timeout);
                                *t = TicketState::Queued { since, dispatch, pipe };
                                true
                            }
                            TicketState::Queued { since, dispatch, pipe } => {
                                self.metrics.add_rejected();
                                let waited = now.duration_since(since);
                                let err = format!("queued {waited:?} > timeout {timeout:?}");
                                actions.fail.push((pipe, QError::Admission(err)));
                                actions.discard.push(dispatch);
                                false
                            }
                            // Settled elsewhere; drop it from the queue.
                            settled => {
                                *t = settled;
                                false
                            }
                        }
                    });
                }
            }
            if let Some(deadline) = self.deadline {
                st.running.retain(|ticket| match &mut *ticket.state.lock() {
                    TicketState::Running { since, .. } if now.duration_since(*since) < deadline => {
                        due = due.min(*since + deadline);
                        true
                    }
                    // Overdue: poison + cancel, but leave the ticket Running —
                    // the handle's guard releases the slots.
                    TicketState::Running { cancels, pipe, .. } => {
                        self.metrics.add_query_timeout();
                        actions.fail.push((pipe.clone(), QError::Timeout));
                        actions.fire.append(&mut std::mem::take(cancels));
                        false
                    }
                    // Settled elsewhere; drop it from the running list.
                    _ => false,
                });
            }
        }
        actions.run();
        Some(due)
    }

    /// Admit every eligible waiter. Interactive scans first; within a class,
    /// a ticket blocked on capacity shadows its engines so later same-class
    /// (and any batch) tickets cannot overtake it on a shared µEngine.
    fn pump_locked(&self, st: &mut CtrlState) -> Actions {
        let mut actions = Actions::default();
        let mut blocked: HashSet<&'static str> = HashSet::new();
        let mut queues = std::mem::take(&mut st.queues);
        for q in &mut queues {
            let mut keep = VecDeque::with_capacity(q.len());
            for ticket in q.drain(..) {
                let mut t = ticket.state.lock();
                let eligible = ticket.engines.iter().all(|e| {
                    !blocked.contains(e)
                        && st.in_flight.get(e).copied().unwrap_or(0) < self.config.queue_depth
                });
                let (dispatch, since) = match std::mem::replace(&mut *t, TicketState::Finished) {
                    TicketState::Queued { dispatch, since, pipe } if eligible => {
                        *t = TicketState::Running {
                            cancels: Vec::new(),
                            since: Instant::now(),
                            pipe,
                        };
                        (dispatch, since)
                    }
                    queued @ TicketState::Queued { .. } => {
                        *t = queued;
                        drop(t);
                        blocked.extend(&ticket.engines);
                        keep.push_back(ticket);
                        continue;
                    }
                    // Settled elsewhere (cancelled/timed out): drop it.
                    settled => {
                        *t = settled;
                        continue;
                    }
                };
                drop(t);
                let waited_us = since.elapsed().as_micros() as u64;
                self.metrics.record_admission_wait(waited_us);
                if let Some(tr) = &ticket.trace {
                    tr.push(TraceEvent::Admitted { waited_us });
                }
                for e in &ticket.engines {
                    let n = st.in_flight.entry(e).or_insert(0);
                    *n += 1;
                    let p = st.peak.entry(e).or_insert(0);
                    *p = (*p).max(*n);
                }
                if self.deadline.is_some() {
                    st.running.push(ticket.clone());
                }
                self.metrics.add_admitted();
                actions.dispatch.push((ticket, dispatch));
            }
            *q = keep;
        }
        st.queues = queues;
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::pipe::{Pipe, PipeConfig, PipeConsumer, PipeProducer};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn metrics() -> Metrics {
        Metrics::new()
    }

    fn pipe_pair() -> (PipeProducer, PipeConsumer) {
        let reg = Arc::new(WaitRegistry::default());
        Pipe::pair(PipeConfig { capacity: 8 }, NodeId(1), NodeId(2), reg)
    }

    /// A ticket whose "dispatch" just bumps a counter and closes the pipe.
    fn counting_ticket(
        class: QueryClass,
        engines: &[&'static str],
        dispatched: &Arc<AtomicUsize>,
    ) -> (Arc<QueryTicket>, PipeConsumer) {
        let (producer, consumer) = pipe_pair();
        let pipe = producer.pipe().clone();
        let d = dispatched.clone();
        let dispatch: DispatchFn = Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
            producer.finish();
            vec![]
        });
        (QueryTicket::new(class, engines.to_vec(), dispatch, pipe), consumer)
    }

    #[test]
    fn admits_up_to_depth_then_queues_fifo() {
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 2, ..AdmitConfig::default() },
            metrics(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<_> = (0..5)
            .map(|_| counting_ticket(QueryClass::Interactive, &["sort"], &dispatched))
            .collect();
        for (t, _) in &tickets {
            ctrl.submit(t.clone()).unwrap();
        }
        assert_eq!(dispatched.load(Ordering::SeqCst), 2, "depth 2 admits exactly 2");
        assert_eq!(ctrl.in_flight("sort"), 2);
        assert_eq!(ctrl.queue_len(), 3);
        // Releasing one admits exactly the FIFO head.
        ctrl.finish(&tickets[0].0, None, false);
        assert_eq!(dispatched.load(Ordering::SeqCst), 3);
        assert_eq!(ctrl.peak("sort"), 2, "never more than depth concurrently");
        for (t, _) in &tickets[1..] {
            ctrl.finish(t, None, false);
        }
        assert_eq!(ctrl.in_flight("sort"), 0, "all slots returned");
        assert_eq!(ctrl.queue_len(), 0);
        assert_eq!(dispatched.load(Ordering::SeqCst), 5, "every query eventually ran");
    }

    #[test]
    fn interactive_overtakes_batch_but_not_same_class() {
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 1, ..AdmitConfig::default() },
            metrics(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(QueryClass::Batch, &["scan"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (batch, _c1) = counting_ticket(QueryClass::Batch, &["scan"], &dispatched);
        ctrl.submit(batch.clone()).unwrap();
        let (inter, _c2) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(inter.clone()).unwrap();
        assert_eq!(dispatched.load(Ordering::SeqCst), 1);
        // Release: the interactive newcomer beats the earlier batch waiter.
        ctrl.finish(&running, None, false);
        assert!(!inter.is_queued(), "interactive admitted first");
        assert!(batch.is_queued(), "batch still waiting");
        ctrl.finish(&inter, None, false);
        assert!(!batch.is_queued());
        ctrl.finish(&batch, None, false);
        assert_eq!(ctrl.in_flight("scan"), 0);
    }

    #[test]
    fn disjoint_engines_overtake_blocked_head() {
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 1, ..AdmitConfig::default() },
            metrics(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (a, _ca) = counting_ticket(QueryClass::Interactive, &["sort"], &dispatched);
        ctrl.submit(a.clone()).unwrap();
        let (b, _cb) = counting_ticket(QueryClass::Interactive, &["sort"], &dispatched);
        ctrl.submit(b.clone()).unwrap();
        // A scan-only query must not wait behind the sort-blocked head.
        let (c, _cc) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(c.clone()).unwrap();
        assert!(b.is_queued(), "same-engine waiter blocked");
        assert!(!c.is_queued(), "disjoint engine set admitted immediately");
        ctrl.finish(&a, None, false);
        ctrl.finish(&b, None, false);
        ctrl.finish(&c, None, false);
    }

    #[test]
    fn queue_bound_rejects_and_cancel_while_queued_settles() {
        let m = metrics();
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 1, max_queued: 1, ..AdmitConfig::default() },
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(QueryClass::Interactive, &["agg"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, wc) = counting_ticket(QueryClass::Interactive, &["agg"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        let (overflow, _c2) = counting_ticket(QueryClass::Interactive, &["agg"], &dispatched);
        let err = ctrl.submit(overflow).expect_err("waiting room bound");
        assert!(matches!(err, QError::Admission(_)));
        // Cancel the waiter while queued: slots never taken, pipe poisoned.
        ctrl.finish(&waiting, Some(QError::Cancelled), false);
        assert_eq!(ctrl.queue_len(), 0);
        assert_eq!(wc.collect_tuples().expect_err("cancelled"), QError::Cancelled);
        ctrl.finish(&running, None, false);
        assert_eq!(ctrl.in_flight("agg"), 0);
        assert_eq!(dispatched.load(Ordering::SeqCst), 1, "cancelled ticket never dispatched");
        let s = m.snapshot();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 2, "queue-full + cancelled-while-queued");
    }

    /// Regression: the waiting-room bound must not reintroduce cross-engine
    /// head-of-line blocking — a query whose µEngines are idle is admitted
    /// straight through a full waiting room (it never waits in it).
    #[test]
    fn full_waiting_room_still_admits_idle_engine_query() {
        let m = metrics();
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 1, max_queued: 1, ..AdmitConfig::default() },
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(QueryClass::Interactive, &["sort"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, _c1) = counting_ticket(QueryClass::Interactive, &["sort"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        assert!(waiting.is_queued(), "waiting room is now full");
        // Idle engine set ⇒ admitted despite the full room.
        let (scan, _c2) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(scan.clone()).expect("idle-engine query must not be bounced");
        assert!(!scan.is_queued());
        // A query that would actually wait is still bounced.
        let (bounced, _c3) = counting_ticket(QueryClass::Interactive, &["sort"], &dispatched);
        let err = ctrl.submit(bounced).expect_err("sort waiter exceeds the room");
        assert!(matches!(err, QError::Admission(_)));
        for t in [&running, &waiting, &scan] {
            ctrl.finish(t, None, false);
        }
        assert_eq!(ctrl.queue_len(), 0);
        assert_eq!(m.snapshot().rejected, 1);
    }

    /// Regression: cancelling a queued ticket while its consumer is already
    /// blocked in `recv` must surface the error, never a clean EOF — the
    /// ticket's producer closes the pipe when the dispatch closure drops, so
    /// the poison has to land first (see `Actions::discard`).
    #[test]
    fn cancel_while_consumer_blocked_surfaces_error_not_eof() {
        for _ in 0..50 {
            let ctrl = AdmissionController::new(
                AdmitConfig { queue_depth: 1, ..AdmitConfig::default() },
                metrics(),
            );
            let dispatched = Arc::new(AtomicUsize::new(0));
            let (running, _c0) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
            ctrl.submit(running.clone()).unwrap();
            let (waiting, wc) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
            ctrl.submit(waiting.clone()).unwrap();
            let collector = std::thread::spawn(move || wc.collect_tuples());
            // Let the collector reach the blocking recv, then cancel.
            std::thread::sleep(Duration::from_micros(200));
            ctrl.finish(&waiting, Some(QError::Cancelled), false);
            assert_eq!(
                collector.join().unwrap().expect_err("cancellation must not look like EOF"),
                QError::Cancelled
            );
            ctrl.finish(&running, None, false);
        }
    }

    #[test]
    fn execution_deadline_times_out_running_query() {
        let m = metrics();
        let ctrl = AdmissionController::with_deadline(
            AdmitConfig::default(),
            Some(Duration::from_millis(5)),
            m.clone(),
        );
        let (producer, consumer) = pipe_pair();
        let pipe = producer.pipe().clone();
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        // A "stuck" plan: admitted, never produces, never finishes its pipe.
        let dispatch: DispatchFn = Box::new(move || vec![c2]);
        let ticket = QueryTicket::new(QueryClass::Interactive, vec!["scan"], dispatch, pipe);
        ctrl.submit(ticket.clone()).unwrap();
        assert!(!ticket.is_queued(), "admitted immediately");
        std::thread::sleep(Duration::from_millis(10));
        ctrl.sweep();
        assert!(cancel.is_cancelled(), "deadline fires the plan's cancel tokens");
        assert_eq!(consumer.collect_tuples().expect_err("timed out"), QError::Timeout);
        ctrl.finish(&ticket, None, false);
        assert_eq!(ctrl.in_flight("scan"), 0, "slots released on settle");
        assert_eq!(m.snapshot().query_timeouts, 1);
    }

    #[test]
    fn deadline_spares_queries_within_budget() {
        let m = metrics();
        let ctrl = AdmissionController::with_deadline(
            AdmitConfig::default(),
            Some(Duration::from_secs(3600)),
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (t, c) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(t.clone()).unwrap();
        ctrl.sweep();
        assert!(c.collect_tuples().is_ok(), "young query untouched by the sweep");
        ctrl.finish(&t, None, false);
        assert_eq!(m.snapshot().query_timeouts, 0);
    }

    #[test]
    fn queue_timeout_rejects_with_admission_error() {
        let m = metrics();
        let ctrl = AdmissionController::new(
            AdmitConfig {
                queue_depth: 1,
                queue_timeout: Some(Duration::from_millis(5)),
                ..AdmitConfig::default()
            },
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, wc) = counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        ctrl.sweep();
        let err = wc.collect_tuples().expect_err("timed out while queued");
        assert!(matches!(err, QError::Admission(_)), "got {err:?}");
        assert_eq!(ctrl.queue_len(), 0);
        ctrl.finish(&running, None, false);
        assert_eq!(m.snapshot().rejected, 1);
    }

    /// `sweep` says when the next sweep is due: `now + min(D, T)` with
    /// nothing pending, else the earliest `since + T` of a queued ticket or
    /// `since + D` of a running one — never later than `now + min(D, T)`.
    #[test]
    fn sweep_returns_when_the_next_ticket_falls_due() {
        let within = |due: Option<Instant>, lo: Instant, hi: Instant, what: &str| {
            let due = due.expect("a timeout or a deadline is set");
            assert!(lo <= due && due <= hi, "{what}: {due:?} outside {lo:?}..={hi:?}");
        };
        let (t, d) = (Duration::from_secs(60), Duration::from_secs(120));
        let queue_timeout =
            AdmitConfig { queue_depth: 1, queue_timeout: Some(t), ..Default::default() };
        let queued_only = AdmissionController::new(queue_timeout, metrics());
        let deadline_only =
            AdmissionController::with_deadline(AdmitConfig::default(), Some(t), metrics());
        let both = AdmissionController::with_deadline(queue_timeout, Some(d), metrics());
        let neither = AdmissionController::new(AdmitConfig::default(), metrics());
        assert_eq!(neither.sweep(), None, "nothing ever falls due");
        for ctrl in [&queued_only, &deadline_only, &both] {
            let before = Instant::now();
            let due = ctrl.sweep();
            within(due, before + t, Instant::now() + t, "nothing pending");
        }
        let dispatched = Arc::new(AtomicUsize::new(0));
        let ticket = || counting_ticket(QueryClass::Interactive, &["scan"], &dispatched);
        let sweep_later = |ctrl: &AdmissionController| {
            // Later than any `since` below, so `now + min(D, T)` is too.
            std::thread::sleep(Duration::from_millis(5));
            ctrl.sweep()
        };

        // A queued ticket falls due `T` after it was submitted.
        let (running, _c0) = ticket();
        queued_only.submit(running).unwrap();
        let before = Instant::now();
        let (waiting, _c1) = ticket();
        let after = Instant::now();
        queued_only.submit(waiting.clone()).unwrap();
        assert!(waiting.is_queued());
        within(sweep_later(&queued_only), before + t, after + t, "queued: since + T");

        // A running ticket falls due `D` after it was admitted.
        let before = Instant::now();
        let (admitted, _c2) = ticket();
        deadline_only.submit(admitted.clone()).unwrap();
        let after = Instant::now();
        assert!(!admitted.is_queued());
        within(sweep_later(&deadline_only), before + t, after + t, "running: since + D");

        // ...unless a ticket submitted or admitted right after this sweep
        // could fall due sooner: with D > T, `now + T` caps `since + D`.
        let (admitted, _c3) = ticket();
        both.submit(admitted).unwrap();
        let before = Instant::now();
        let due = sweep_later(&both);
        within(due, before + t, Instant::now() + t, "capped at now + min(D, T)");
    }
}
