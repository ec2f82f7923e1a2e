//! The closed loop every run uses (the paper's Figure 12 client model):
//! [`CLIENTS`] threads with zero think time; each submits a query of its
//! slice of the pool, drains it, checks it against the oracle, then submits
//! the next. A slow system therefore receives less load.
//!
//! The loop never calls `collect()` or `Driver::run`, which panic on a
//! failed query: errors, refusals and wrong answers are counted.

use crate::oracle;
use crate::procfs::{self, ProcSample};
use crate::workload::{PoolQuery, CLIENTS};
use qpipe_common::trace::{QueryProfile, TimedEvent};
use qpipe_common::{MetricsSnapshot, QResult, Tuple};
use qpipe_core::QueryClass;
use qpipe_exec::iter::ExecContext;
use qpipe_planner::PlannerOptions;
use qpipe_workloads::harness::Driver;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How the clients run a query on the driver's system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Submit to the staged engine (QPipe w/OSP or Baseline) and drain.
    Staged,
    /// As `Staged`, and record benchmark-side spans and keep the engine's
    /// probe tree and journal (the engine must be booted with tracing on).
    Traced,
    /// Run the iterator engine over the driver's catalog on the client
    /// thread (DBMS X, which has no asynchronous submission path).
    Iterator,
}

/// Start and end of one benchmark-side span, in ns since the loop started.
pub type Interval = (u64, u64);

/// What a traced query leaves behind for the span log.
#[derive(Debug)]
pub struct QueryTraceRecord {
    pub plan: Option<Interval>,
    pub submit: Interval,
    pub collect: Interval,
    pub verify: Interval,
    pub profile: Option<QueryProfile>,
    pub events: Vec<TimedEvent>,
    pub dropped_events: u64,
}

/// One query a client attempted.
#[derive(Debug)]
pub struct Sample {
    pub slot: usize,
    /// Submission, in ns since the loop started.
    pub start_ns: u64,
    /// Last row drained (or the failure observed).
    pub done_ns: u64,
    /// `Err` carries the refusal, execution error or oracle mismatch.
    pub outcome: Result<(), String>,
    pub trace: Option<Box<QueryTraceRecord>>,
}

/// Everything one loop produced. Only samples that finished inside
/// `window` count towards the metrics.
pub struct LoopResult {
    pub samples: Vec<Sample>,
    pub window: Interval,
    /// Engine counters over the window.
    pub delta: MetricsSnapshot,
    /// Engine counters when the window closed, for high-water marks.
    pub after: MetricsSnapshot,
    pub proc_start: ProcSample,
    pub proc_end: ProcSample,
}

impl LoopResult {
    pub fn in_window(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.done_ns >= self.window.0 && s.done_ns <= self.window.1)
    }

    pub fn window_secs(&self) -> f64 {
        (self.window.1 - self.window.0) as f64 / 1e9
    }

    pub fn attempted(&self) -> u64 {
        self.in_window().count() as u64
    }

    pub fn completed(&self) -> u64 {
        self.in_window().filter(|s| s.outcome.is_ok()).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.attempted() - self.completed()
    }

    pub fn throughput_qps(&self) -> f64 {
        self.completed() as f64 / self.window_secs()
    }

    /// Submission → last row drained of each completed query, ascending, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .in_window()
            .filter(|s| s.outcome.is_ok())
            .map(|s| (s.done_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::stats::sort(&mut v);
        v
    }

    /// Disk blocks read per completed query (the paper's Figure 8/10 axis).
    pub fn blocks_per_query(&self) -> f64 {
        self.delta.disk_blocks_read as f64 / self.completed().max(1) as f64
    }
}

/// What a client thread needs to run one query.
struct Client<'a> {
    driver: &'a Driver,
    mode: Mode,
    /// For [`Mode::Iterator`]: the iterator engine over the driver's catalog.
    ctx: ExecContext,
    origin: Instant,
}

impl Client<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn run_one(&self, slot: usize, query: &PoolQuery, expected: &[Tuple]) -> Sample {
        let opts = PlannerOptions::default();
        let start_ns = self.now_ns();
        let (rows, mut trace) = match self.mode {
            Mode::Iterator => {
                let rows = match &query.sql {
                    Some(sql) => self
                        .driver
                        .plan_sql(sql, &opts)
                        .and_then(|planned| qpipe_exec::iter::run(&planned.plan, &self.ctx)),
                    None => qpipe_exec::iter::run(&query.plan, &self.ctx),
                };
                (rows, None)
            }
            Mode::Staged => {
                let class = QueryClass::Interactive;
                let handle = match &query.sql {
                    Some(sql) => self.driver.submit_sql(sql, class, &opts),
                    None => self.driver.submit_with((*query.plan).clone(), class),
                };
                (handle.expect("staged driver").and_then(|h| h.try_collect()), None)
            }
            Mode::Traced => self.run_traced(query, start_ns),
        };
        let done_ns = self.now_ns();
        let outcome =
            rows.map_err(|e| e.to_string()).and_then(|rows| oracle::check(expected, rows));
        if let Some(record) = &mut trace {
            record.verify = (done_ns, self.now_ns());
        }
        Sample { slot, start_ns, done_ns, outcome, trace }
    }

    /// The traced path plans SQL itself, so that planning and submission get
    /// separate spans; `submit_sql` does the same two steps in one call.
    fn run_traced(
        &self,
        query: &PoolQuery,
        start_ns: u64,
    ) -> (QResult<Vec<Tuple>>, Option<Box<QueryTraceRecord>>) {
        let (plan, planned_at) = match &query.sql {
            Some(sql) => match self.driver.plan_sql(sql, &PlannerOptions::default()) {
                Ok(planned) => ((*planned.plan).clone(), Some(self.now_ns())),
                Err(e) => return (Err(e), None),
            },
            None => ((*query.plan).clone(), None),
        };
        let submit_start = planned_at.unwrap_or(start_ns);
        let handle = match self.driver.submit_with(plan, QueryClass::Interactive) {
            Some(Ok(handle)) => handle,
            Some(Err(e)) => return (Err(e), None),
            None => panic!("traced runs need a staged driver"),
        };
        let submitted = self.now_ns();
        let (probes, journal) = (handle.probe_tree(), handle.trace());
        let rows = handle.try_collect();
        let collected = self.now_ns();
        let record = QueryTraceRecord {
            plan: planned_at.map(|end| (start_ns, end)),
            submit: (submit_start, submitted),
            collect: (submitted, collected),
            verify: (collected, collected),
            profile: probes.map(|p| p.snapshot()),
            events: journal.as_ref().map(|j| j.events()).unwrap_or_default(),
            dropped_events: journal.map_or(0, |j| j.dropped()),
        };
        (rows, Some(Box::new(record)))
    }
}

/// Run the closed loop: `warmup` untimed, then a `window` in which finished
/// queries count. `expected[slot]` is the oracle's canonical result.
pub fn run_loop(
    driver: &Driver,
    mode: Mode,
    pool: &[PoolQuery],
    expected: &[Vec<Tuple>],
    warmup: Duration,
    window: Duration,
) -> std::io::Result<LoopResult> {
    let client = Client {
        driver,
        mode,
        ctx: ExecContext::new(driver.catalog().clone()),
        origin: Instant::now(),
    };
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (client, stop, barrier) = (&client, &stop, &barrier);
                s.spawn(move || {
                    let mut samples = Vec::new();
                    barrier.wait();
                    // A client cycles through its own slots in order, so
                    // the mix of work in any window is the same.
                    for slot in (id..pool.len()).step_by(CLIENTS).cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        samples.push(client.run_one(slot, &pool[slot], &expected[slot]));
                    }
                    samples
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(warmup);
        let before = driver.metrics().snapshot();
        let proc_start = procfs::sample();
        let w0 = client.now_ns();
        std::thread::sleep(window);
        let w1 = client.now_ns();
        let after = driver.metrics().snapshot();
        let proc_end = procfs::sample();
        stop.store(true, Ordering::Relaxed);
        let samples =
            threads.into_iter().flat_map(|t| t.join().expect("client thread panicked")).collect();
        Ok(LoopResult {
            samples,
            window: (w0, w1),
            delta: after.delta_since(&before),
            after,
            proc_start: proc_start?,
            proc_end: proc_end?,
        })
    })
}
