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
//! * **One FIFO waiting room** — excess queries wait as [`QueryTicket`]s in
//!   one queue, as each of the paper's µEngines serves its packets from one
//!   queue: queries contending for the same µEngine are admitted strictly
//!   in arrival order, and no query outranks another. Queries whose engine
//!   sets are disjoint from every earlier waiter may overtake (no
//!   cross-engine head-of-line blocking).
//! * **Backpressure & cancellation** — the waiting room itself is bounded
//!   ([`AdmitConfig::max_queued`]; beyond it `submit` fails fast with
//!   [`QError::Admission`]), queued queries are cancellable (the ticket is
//!   withdrawn without ever dispatching a packet), and a configurable
//!   [`AdmitConfig::queue_timeout`] rejects tickets that waited too long —
//!   in every case the ticket's slots and the client's pipe are settled.
//!
//! A query's slots release when its handle is consumed or dropped
//! (`QueryHandle` holds the ticket); the release pumps the queues, so
//! admission needs no thread of its own. Nor do queue timeouts and execution
//! deadlines: [`AdmissionController::due`] says when a ticket falls due, the
//! client's blocking read gives up at that instant, and
//! [`AdmissionController::expire`] settles the ticket if it is still overdue.
//! Clients must drain their handles concurrently (every driver in this repo
//! does): a handle left uncollected keeps its slots, which is admission's
//! backpressure working as intended — and, with a timeout or deadline set,
//! expires only at its next read.
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
//! [`QueryClass`] carries no policy. It is a one-variant enum that exists
//! only because the `e2e/` benchmark, whose sources are frozen, still
//! passes `QueryClass::Interactive` to the workload driver's submit calls.
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
    /// Waiting-room bound; beyond it submissions are rejected outright.
    pub max_queued: usize,
    /// A ticket queued longer than this is rejected (its slots were never
    /// taken; its pipe fails with [`QError::Admission`]) when its client's
    /// read gives up on it. `None` = wait forever.
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

/// A query class with one variant and no policy: admission keeps one queue.
/// Only the frozen `e2e/` benchmark names it, as the ignored class argument
/// of the workload driver's `submit_with` and `submit_sql`.
#[derive(Debug, Clone, Copy)]
pub enum QueryClass {
    Interactive,
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
        /// Root pipe, failed with [`QError::Timeout`] when an overdue query
        /// expires.
        pipe: Arc<Pipe>,
    },
    Finished,
}

/// One submitted query's admission state, shared between the controller's
/// queue and the query handle.
pub struct QueryTicket {
    /// Deduplicated µEngines the plan touches (its slot footprint).
    engines: Vec<&'static str>,
    /// The query's event journal (`None` when tracing is off); admission
    /// stamps `Enqueued`/`Admitted` events here.
    trace: Option<Arc<QueryTrace>>,
    state: Mutex<TicketState>,
}

impl QueryTicket {
    /// A queued ticket for a plan touching `engines`; with a trace journal,
    /// its `Enqueued` event is stamped immediately.
    pub fn new(
        engines: Vec<&'static str>,
        dispatch: DispatchFn,
        pipe: Arc<Pipe>,
        trace: Option<Arc<QueryTrace>>,
    ) -> Arc<Self> {
        if let Some(tr) = &trace {
            tr.push(TraceEvent::Enqueued);
        }
        Arc::new(Self {
            engines,
            trace,
            state: Mutex::new(TicketState::Queued { since: Instant::now(), dispatch, pipe }),
        })
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
    /// The waiting room, in arrival order.
    queue: VecDeque<Arc<QueryTicket>>,
}

/// Deferred side effects collected under the locks, performed outside them.
#[derive(Default)]
struct Actions {
    dispatch: Vec<(Arc<QueryTicket>, DispatchFn)>,
    fail: Vec<(Arc<Pipe>, QError)>,
    fire: Vec<CancelToken>,
    /// Root pipes of tickets just admitted under a deadline: their readers
    /// re-read when they fall due.
    wake: Vec<Arc<Pipe>>,
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
        for pipe in self.wake {
            pipe.wake_reader();
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
    /// Per-query execution deadline, measured from admission; a running
    /// query that exceeds it expires with [`QError::Timeout`].
    deadline: Option<Duration>,
    metrics: Metrics,
    state: Mutex<CtrlState>,
}

impl AdmissionController {
    /// A controller; with a `deadline`, [`expire`](Self::expire) fires the
    /// plan's cancel tokens and fails the root pipe with [`QError::Timeout`]
    /// once a running query exceeds it.
    pub fn new(config: AdmitConfig, deadline: Option<Duration>, metrics: Metrics) -> Arc<Self> {
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

    /// Tickets waiting for admission.
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Enqueue a ticket and pump. Fails fast when the ticket would have to
    /// *wait* in a full waiting room — the bound is tested after the pump,
    /// so a query whose µEngines are idle is admitted even when the room is
    /// full (the no-cross-engine-head-of-line promise holds at the submit
    /// boundary too).
    pub fn submit(&self, ticket: Arc<QueryTicket>) -> Result<(), QError> {
        let (actions, verdict) = {
            let mut st = self.state.lock();
            st.queue.push_back(ticket.clone());
            let mut actions = self.pump_locked(&mut st);
            let waiting = st.queue.len();
            let verdict = if waiting > self.config.max_queued && ticket.is_queued() {
                st.queue.retain(|other| !Arc::ptr_eq(other, &ticket));
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
        self.settle(ticket, |_| Some((reason, fire)));
    }

    /// When `ticket` falls due: `queue_timeout` after it was queued while it
    /// waits, the deadline after it was admitted while it runs. `None` when
    /// that limit is unset or the ticket has settled — and, with neither
    /// set, without taking a lock or reading the clock.
    pub fn due(&self, ticket: &QueryTicket) -> Option<Instant> {
        if self.config.queue_timeout.is_none() && self.deadline.is_none() {
            return None;
        }
        self.due_of(&ticket.state.lock())
    }

    fn due_of(&self, state: &TicketState) -> Option<Instant> {
        match state {
            TicketState::Queued { since, .. } => Some(*since + self.config.queue_timeout?),
            TicketState::Running { since, .. } => Some(*since + self.deadline?),
            TicketState::Finished => None,
        }
    }

    /// Settle `ticket` if it is overdue, deciding under its lock: a ticket
    /// admitted since its queued [`due`](Self::due) was read is left running.
    /// An overdue queued ticket is rejected with [`QError::Admission`]; an
    /// overdue running query has its cancel tokens fired and its root pipe
    /// failed with [`QError::Timeout`].
    pub fn expire(&self, ticket: &Arc<QueryTicket>) {
        let now = Instant::now();
        self.settle(ticket, |state| match state {
            _ if self.due_of(state).is_none_or(|due| now < due) => None,
            TicketState::Queued { since, .. } => {
                let waited = now.duration_since(*since);
                let timeout = self.config.queue_timeout?;
                let err = format!("queued {waited:?} > timeout {timeout:?}");
                Some((Some(QError::Admission(err)), false))
            }
            _ => {
                self.metrics.add_query_timeout();
                Some((Some(QError::Timeout), true))
            }
        });
    }

    /// Settle `ticket` as `verdict`, read under the ticket's lock, says:
    /// `None` leaves it alone, `Some((reason, fire))` is [`finish`](Self::finish)'s.
    fn settle(
        &self,
        ticket: &Arc<QueryTicket>,
        verdict: impl FnOnce(&TicketState) -> Option<(Option<QError>, bool)>,
    ) {
        let mut actions = Actions::default();
        {
            let mut st = self.state.lock();
            let mut t = ticket.state.lock();
            let Some((reason, fire)) = verdict(&t) else { return };
            match std::mem::replace(&mut *t, TicketState::Finished) {
                TicketState::Queued { pipe, dispatch, .. } => {
                    drop(t);
                    st.queue.retain(|other| !Arc::ptr_eq(other, ticket));
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
                    let mut pumped = self.pump_locked(&mut st);
                    actions.dispatch.append(&mut pumped.dispatch);
                    actions.wake.append(&mut pumped.wake);
                }
                TicketState::Finished => {}
            }
        }
        actions.run();
    }

    /// Admit every eligible waiter, front to back. A ticket blocked on
    /// capacity shadows its engines, so no later ticket overtakes it on a
    /// shared µEngine.
    fn pump_locked(&self, st: &mut CtrlState) -> Actions {
        let mut actions = Actions::default();
        let mut blocked: HashSet<&'static str> = HashSet::new();
        for ticket in std::mem::take(&mut st.queue) {
            let mut t = ticket.state.lock();
            let eligible = ticket.engines.iter().all(|e| {
                !blocked.contains(e)
                    && st.in_flight.get(e).copied().unwrap_or(0) < self.config.queue_depth
            });
            let (dispatch, since) = match std::mem::replace(&mut *t, TicketState::Finished) {
                TicketState::Queued { dispatch, since, pipe } if eligible => {
                    if self.deadline.is_some() {
                        actions.wake.push(pipe.clone());
                    }
                    *t = TicketState::Running { cancels: Vec::new(), since: Instant::now(), pipe };
                    (dispatch, since)
                }
                queued @ TicketState::Queued { .. } => {
                    *t = queued;
                    drop(t);
                    blocked.extend(&ticket.engines);
                    st.queue.push_back(ticket);
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
            self.metrics.add_admitted();
            actions.dispatch.push((ticket, dispatch));
        }
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
        (QueryTicket::new(engines.to_vec(), dispatch, pipe, None), consumer)
    }

    #[test]
    fn admits_up_to_depth_then_queues_fifo() {
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 2, ..AdmitConfig::default() },
            None,
            metrics(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<_> = (0..5).map(|_| counting_ticket(&["sort"], &dispatched)).collect();
        for (t, _) in &tickets {
            ctrl.submit(t.clone()).unwrap();
        }
        assert_eq!(dispatched.load(Ordering::SeqCst), 2, "depth 2 admits exactly 2");
        assert_eq!(ctrl.in_flight("sort"), 2);
        assert_eq!(ctrl.queue_len(), 3);
        // A release admits exactly the FIFO head: ticket 2, then 3, then 4.
        let queued = |i: usize| tickets[i].0.is_queued();
        ctrl.finish(&tickets[0].0, None, false);
        assert_eq!(dispatched.load(Ordering::SeqCst), 3);
        assert!(!queued(2) && queued(3) && queued(4), "the release admits ticket 2");
        ctrl.finish(&tickets[1].0, None, false);
        assert!(!queued(3) && queued(4), "ticket 3 goes before ticket 4");
        assert_eq!(ctrl.peak("sort"), 2, "never more than depth concurrently");
        for (t, _) in &tickets[2..] {
            ctrl.finish(t, None, false);
        }
        assert_eq!(ctrl.in_flight("sort"), 0, "all slots returned");
        assert_eq!(ctrl.queue_len(), 0);
        assert_eq!(dispatched.load(Ordering::SeqCst), 5, "every query eventually ran");
    }

    #[test]
    fn disjoint_engines_overtake_blocked_head() {
        let ctrl = AdmissionController::new(
            AdmitConfig { queue_depth: 1, ..AdmitConfig::default() },
            None,
            metrics(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (a, _ca) = counting_ticket(&["sort"], &dispatched);
        ctrl.submit(a.clone()).unwrap();
        let (b, _cb) = counting_ticket(&["sort"], &dispatched);
        ctrl.submit(b.clone()).unwrap();
        // A scan-only query must not wait behind the sort-blocked head.
        let (c, _cc) = counting_ticket(&["scan"], &dispatched);
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
            None,
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(&["agg"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, wc) = counting_ticket(&["agg"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        let (overflow, _c2) = counting_ticket(&["agg"], &dispatched);
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
            None,
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(&["sort"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, _c1) = counting_ticket(&["sort"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        assert!(waiting.is_queued(), "waiting room is now full");
        // Idle engine set ⇒ admitted despite the full room.
        let (scan, _c2) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(scan.clone()).expect("idle-engine query must not be bounced");
        assert!(!scan.is_queued());
        // A query that would actually wait is still bounced.
        let (bounced, _c3) = counting_ticket(&["sort"], &dispatched);
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
                None,
                metrics(),
            );
            let dispatched = Arc::new(AtomicUsize::new(0));
            let (running, _c0) = counting_ticket(&["scan"], &dispatched);
            ctrl.submit(running.clone()).unwrap();
            let (waiting, wc) = counting_ticket(&["scan"], &dispatched);
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
        let ctrl = AdmissionController::new(
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
        let ticket = QueryTicket::new(vec!["scan"], dispatch, pipe, None);
        ctrl.submit(ticket.clone()).unwrap();
        assert!(!ticket.is_queued(), "admitted immediately");
        std::thread::sleep(Duration::from_millis(10));
        ctrl.expire(&ticket);
        assert!(cancel.is_cancelled(), "deadline fires the plan's cancel tokens");
        assert_eq!(consumer.collect_tuples().expect_err("timed out"), QError::Timeout);
        assert_eq!(ctrl.in_flight("scan"), 0, "slots released on expiry");
        ctrl.expire(&ticket);
        ctrl.finish(&ticket, None, false);
        assert_eq!(m.snapshot().query_timeouts, 1);
    }

    #[test]
    fn deadline_spares_queries_within_budget() {
        let m = metrics();
        let ctrl = AdmissionController::new(
            AdmitConfig::default(),
            Some(Duration::from_secs(3600)),
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (t, c) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(t.clone()).unwrap();
        ctrl.expire(&t);
        assert!(c.collect_tuples().is_ok(), "a query within its budget does not expire");
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
            None,
            m.clone(),
        );
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, wc) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        ctrl.expire(&running);
        assert_eq!(ctrl.in_flight("scan"), 1, "without a deadline, a running query never expires");
        ctrl.expire(&waiting);
        let err = wc.collect_tuples().expect_err("timed out while queued");
        assert!(matches!(err, QError::Admission(_)), "got {err:?}");
        assert_eq!(ctrl.queue_len(), 0);
        ctrl.finish(&running, None, false);
        assert_eq!(m.snapshot().rejected, 1);
    }

    /// A ticket falls due `T` after it was queued while it waits and `D`
    /// after it was admitted while it runs; never when that limit is unset
    /// or once it has settled.
    #[test]
    fn due_is_queued_since_plus_t_then_admitted_since_plus_d() {
        let (t, d) = (Duration::from_secs(60), Duration::from_secs(120));
        let depth_one = AdmitConfig { queue_depth: 1, ..AdmitConfig::default() };
        let timeout = AdmitConfig { queue_timeout: Some(t), ..depth_one };
        let dispatched = Arc::new(AtomicUsize::new(0));
        let ticket = || counting_ticket(&["scan"], &dispatched);
        for (config, deadline) in [(timeout, Some(d)), (timeout, None), (depth_one, Some(d))] {
            let ctrl = AdmissionController::new(config, deadline, metrics());
            let (running, _c0) = ticket();
            ctrl.submit(running.clone()).unwrap();
            let before = Instant::now();
            let (waiting, _c1) = ticket();
            let queued = Instant::now();
            ctrl.submit(waiting.clone()).unwrap();
            assert!(waiting.is_queued());
            match ctrl.due(&waiting) {
                Some(due) => assert!(before + t <= due && due <= queued + t, "queued: since + T"),
                None => assert_eq!(config.queue_timeout, None, "queued without T"),
            }
            let before = Instant::now();
            ctrl.finish(&running, None, false);
            let admitted = Instant::now();
            assert!(!waiting.is_queued());
            match ctrl.due(&waiting) {
                Some(due) => {
                    assert!(before + d <= due && due <= admitted + d, "running: admitted + D")
                }
                None => assert_eq!(deadline, None, "running without D"),
            }
            ctrl.finish(&waiting, None, false);
            assert_eq!(ctrl.due(&waiting), None, "a settled ticket never falls due");
        }
        let neither = AdmissionController::new(AdmitConfig::default(), None, metrics());
        let (t, _c) = ticket();
        neither.submit(t.clone()).unwrap();
        assert_eq!(neither.due(&t), None, "no limit, no due");
    }

    /// A reader whose queued `due` passed gives up and calls `expire` — but
    /// the ticket was admitted in the meantime, so it is no longer overdue.
    #[test]
    fn expire_leaves_a_ticket_admitted_after_its_queued_due_was_read() {
        let m = metrics();
        let config = AdmitConfig {
            queue_depth: 1,
            queue_timeout: Some(Duration::from_millis(1)),
            ..AdmitConfig::default()
        };
        let ctrl = AdmissionController::new(config, Some(Duration::from_secs(3600)), m);
        let dispatched = Arc::new(AtomicUsize::new(0));
        let (running, _c0) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(running.clone()).unwrap();
        let (waiting, wc) = counting_ticket(&["scan"], &dispatched);
        ctrl.submit(waiting.clone()).unwrap();
        let due = ctrl.due(&waiting).expect("queued under a timeout");
        while Instant::now() < due {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctrl.finish(&running, None, false);
        ctrl.expire(&waiting);
        assert!(!waiting.is_queued());
        assert_eq!(ctrl.in_flight("scan"), 1, "still running");
        assert!(wc.collect_tuples().is_ok(), "its pipe was not failed");
        let s = ctrl.metrics.snapshot();
        assert_eq!((s.rejected, s.query_timeouts), (0, 0));
        ctrl.finish(&waiting, None, false);
    }
}
