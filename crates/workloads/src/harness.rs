//! Multi-client experiment harness (paper §5 methodology).
//!
//! Builds the three systems the paper compares —
//! * **QPipe w/OSP** — the staged engine with on-demand simultaneous
//!   pipelining,
//! * **Baseline** — the same engine with OSP disabled (sharing only through
//!   the buffer pool),
//! * **DBMS X** — our stand-in for the unnamed commercial system: Baseline's
//!   engine (OSP off) over a scan-resistant (2Q) buffer pool, so it differs
//!   from Baseline in buffer management alone — the paper's explanation of
//!   the gap between them in Figure 12,
//!
//! and drives them with open-loop runs, in which query i arrives at
//! i × interarrival whatever has completed (the staggered arrivals of
//! Figures 8–11 and the admission bursts), and closed-loop multi-client runs
//! (Figures 1b/12/13). [`await_idle`] is the one check that a run left
//! nothing behind. All time parameters are in *paper seconds*, converted
//! through a [`TimeScale`].

use qpipe_common::sim::TimeScale;
use qpipe_common::{HistogramSummary, Metrics, MetricsSnapshot, QError, QResult};
use qpipe_core::engine::{QPipe, QPipeConfig, QueryHandle};
use qpipe_core::QueryClass;
use qpipe_exec::plan::PlanNode;
use qpipe_planner::{PlannedQuery, PlannerOptions};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hardware/time profile for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct SystemProfile {
    pub disk: DiskConfig,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    pub time_scale: TimeScale,
}

impl SystemProfile {
    /// The default figure-reproduction profile: latency-charging disk, a
    /// buffer pool ≈¼ of the default TPC-H dataset, 1 paper second = 0.4 real
    /// milliseconds.
    pub fn experiment() -> Self {
        Self {
            disk: DiskConfig::experiment(),
            pool_pages: 192,
            time_scale: TimeScale::paper_sec_is_ms(0.4),
        }
    }

    /// Latency-free profile for functional tests.
    pub fn instant() -> Self {
        Self {
            disk: DiskConfig::instant(),
            pool_pages: 256,
            time_scale: TimeScale::paper_sec_is_ms(0.05),
        }
    }
}

/// The three systems of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    QPipeOsp,
    Baseline,
    DbmsX,
}

impl System {
    pub fn label(&self) -> &'static str {
        match self {
            System::QPipeOsp => "QPipe w/OSP",
            System::Baseline => "Baseline",
            System::DbmsX => "DBMS X",
        }
    }
}

/// A bootable system: catalog + engine.
pub struct Driver {
    pub system: System,
    metrics: Metrics,
    catalog: Arc<Catalog>,
    engine: Arc<QPipe>,
}

impl Driver {
    /// Build a fresh catalog for `system` under `profile` and populate it
    /// with `load` (e.g. `tpch::build_tpch` or `wisconsin::build_wisconsin`).
    pub fn build(
        system: System,
        profile: SystemProfile,
        load: impl FnOnce(&Arc<Catalog>) -> QResult<()>,
    ) -> QResult<Driver> {
        Self::build_with_config(system, profile, QPipeConfig::default(), load)
    }

    /// [`build`](Self::build) with explicit engine knobs (admission depth,
    /// memory budgets, ...). `config.osp` is overridden to match `system`.
    pub fn build_with_config(
        system: System,
        profile: SystemProfile,
        config: QPipeConfig,
        load: impl FnOnce(&Arc<Catalog>) -> QResult<()>,
    ) -> QResult<Driver> {
        let metrics = Metrics::new();
        let disk = SimDisk::new(profile.disk, metrics.clone());
        // DBMS X differs from Baseline only in its scan-resistant pool (the
        // better buffer manager behind Figure 12's Baseline-vs-X gap);
        // QPipe/Baseline get BerkeleyDB's plain LRU.
        let policy = match system {
            System::DbmsX => PolicyKind::TwoQ,
            System::QPipeOsp | System::Baseline => PolicyKind::Lru,
        };
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(profile.pool_pages, policy));
        let catalog = Catalog::new(disk, pool);
        load(&catalog)?;
        let osp = system == System::QPipeOsp;
        let engine = QPipe::new(catalog.clone(), QPipeConfig { osp, ..config });
        Ok(Driver { system, metrics, catalog, engine })
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The staged engine every system runs on.
    pub fn engine(&self) -> &Arc<QPipe> {
        &self.engine
    }

    /// Submit without waiting for completion: the query passes through
    /// admission and the returned handle blocks until its results stream.
    /// Always `Some`; the `Option` stays only because the `e2e/` benchmark's
    /// client calls `.expect` on it. The class is ignored: admission keeps
    /// one queue (see [`QueryClass`]).
    pub fn submit_with(&self, plan: PlanNode, _class: QueryClass) -> Option<QResult<QueryHandle>> {
        Some(self.engine.submit(plan))
    }

    /// Plan SQL text against this driver's catalog without running it.
    /// `opts` is ignored (see [`PlannerOptions`]).
    pub fn plan_sql(&self, sql: &str, opts: &PlannerOptions) -> QResult<PlannedQuery> {
        qpipe_planner::plan_sql(self.catalog.as_ref(), sql, opts)
    }

    /// Submit SQL text without waiting for completion. Always `Some`, and
    /// the class ignored, as with [`submit_with`](Self::submit_with); the
    /// planner options are ignored too.
    pub fn submit_sql(
        &self,
        sql: &str,
        _class: QueryClass,
        _opts: &PlannerOptions,
    ) -> Option<QResult<QueryHandle>> {
        Some(self.engine.submit_sql(sql))
    }

    /// Run one query to completion on the calling thread; returns row count.
    /// A failed query (a storage fault, a cancel) returns its error.
    pub fn run(&self, plan: PlanNode) -> QResult<usize> {
        Ok(self.engine.submit(plan)?.try_collect()?.len())
    }
}

/// Result of a closed-loop run (Figures 1b/12/13).
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    pub completed: u64,
    /// Queries per hour of *paper* time.
    pub qph: f64,
    /// Mean response time in paper seconds.
    pub avg_response_paper_secs: f64,
    pub delta: MetricsSnapshot,
}

/// `clients` closed-loop clients each repeatedly run a query drawn from
/// `plan_gen(client, iteration)`, with `think_paper` seconds of think time
/// between queries, for `duration_paper` seconds.
pub fn closed_loop(
    driver: &Driver,
    plan_gen: &(impl Fn(usize, u64) -> PlanNode + Sync),
    clients: usize,
    duration_paper: f64,
    think_paper: f64,
    scale: TimeScale,
) -> ClosedLoopResult {
    let before = driver.metrics().snapshot();
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let response_us = AtomicU64::new(0);
    let deadline = scale.to_real(duration_paper);
    let think = scale.to_real(think_paper);
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let stop = &stop;
            let completed = &completed;
            let response_us = &response_us;
            s.spawn(move || {
                let mut iteration = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let plan = plan_gen(client, iteration);
                    iteration += 1;
                    let q_start = Instant::now();
                    if driver.run(plan).is_ok() && !stop.load(Ordering::Relaxed) {
                        completed.fetch_add(1, Ordering::Relaxed);
                        response_us
                            .fetch_add(q_start.elapsed().as_micros() as u64, Ordering::Relaxed);
                    }
                    if !think.is_zero() {
                        std::thread::sleep(think);
                    }
                }
            });
        }
        // Timer thread flips the stop flag.
        let stop = &stop;
        s.spawn(move || {
            std::thread::sleep(deadline);
            stop.store(true, Ordering::Relaxed);
        });
    });
    let elapsed_paper = scale.to_paper(start.elapsed());
    let completed = completed.load(Ordering::Relaxed);
    let avg_response_paper_secs = match response_us.load(Ordering::Relaxed).checked_div(completed) {
        None | Some(0) => 0.0,
        Some(mean_us) => scale.to_paper(Duration::from_micros(mean_us)),
    };
    ClosedLoopResult {
        completed,
        qph: completed as f64 / (elapsed_paper / 3600.0),
        avg_response_paper_secs,
        delta: driver.metrics().snapshot().delta_since(&before),
    }
}

/// Per-query outcome of an [`open_loop`] run, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenLoopOutcome {
    /// Completed with this many result rows.
    Completed(usize),
    /// Refused by admission (waiting room full).
    Rejected(String),
    /// Failed during execution.
    Failed(QError),
}

/// Result of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    pub outcomes: Vec<OpenLoopOutcome>,
    /// Per-query response time in paper seconds (submission → last row),
    /// aligned with `outcomes`; `None` where rejected/failed.
    pub latencies_paper: Vec<Option<f64>>,
    pub completed: u64,
    pub rejected: u64,
    /// Paper seconds from the first arrival to the last query settling.
    pub elapsed_paper_secs: f64,
    /// Queries per hour of paper time (completed only).
    pub qph: f64,
    pub delta: MetricsSnapshot,
    /// Rendered trace journals of queries that settled `Failed`, in arrival
    /// order. Empty unless the engine ran with `ExecConfig::tracing` on.
    pub failed_journals: Vec<String>,
}

impl OpenLoopResult {
    /// Completed-query row counts, `None` where rejected/failed.
    pub fn row_counts(&self) -> Vec<Option<usize>> {
        self.outcomes
            .iter()
            .map(|o| match o {
                OpenLoopOutcome::Completed(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    /// The run itself if every query completed, else the first refusal or
    /// failure as an error: what a figure, whose every query must finish,
    /// propagates.
    pub fn all_completed(self) -> QResult<Self> {
        for o in &self.outcomes {
            match o {
                OpenLoopOutcome::Completed(_) => {}
                OpenLoopOutcome::Rejected(msg) => return Err(QError::Admission(msg.clone())),
                OpenLoopOutcome::Failed(e) => return Err(e.clone()),
            }
        }
        Ok(self)
    }

    /// Completed-query latency through the shared log-bucketed
    /// [`qpipe_common::Histogram`]: `count` queries, p50/p95/p99 in paper
    /// microseconds.
    pub fn latency(&self) -> HistogramSummary {
        let hist = qpipe_common::Histogram::default();
        for secs in self.latencies_paper.iter().flatten() {
            hist.record((secs * 1e6) as u64);
        }
        hist.summary()
    }
}

/// Open-loop (arrival-driven) multi-client run: `plans[i]` *arrives* at time
/// `i × interarrival` regardless of completions — the traffic shape that
/// oversubscribes an unprotected engine and that the admission controller
/// exists for. Each arrival is submitted asynchronously (the admission queue
/// absorbs the burst, rejects overflow, and bounds per-µEngine concurrency);
/// every accepted query is drained by its own collector thread — the client
/// model admission assumes. An arrival the engine refuses settles on the
/// spot — `Rejected` for an admission error, `Failed` for any other.
/// Collectors time submission → last row, the per-query response latency
/// [`OpenLoopResult::latency`] summarizes. When the engine traces, a failed
/// query's journal rides along for the post-mortem dump.
pub fn open_loop(
    driver: &Driver,
    plans: Vec<PlanNode>,
    interarrival_paper: f64,
    scale: TimeScale,
) -> OpenLoopResult {
    let before = driver.metrics().snapshot();
    let start = Instant::now();
    let n = plans.len();
    // One settled arrival: outcome, submission→last-row wall time, and (for
    // traced failures) the rendered trace journal.
    type Settled = (OpenLoopOutcome, Option<Duration>, Option<String>);
    let settled: Vec<Settled> = std::thread::scope(|s| {
        let mut pending: Vec<Result<_, OpenLoopOutcome>> = Vec::with_capacity(n);
        for (i, plan) in plans.into_iter().enumerate() {
            let due = scale.to_real(interarrival_paper * i as f64);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let submitted = Instant::now();
            pending.push(match driver.engine().submit(plan) {
                Ok(handle) => Ok(s.spawn(move || {
                    let trace = handle.trace();
                    match handle.try_collect() {
                        Ok(rows) => (
                            OpenLoopOutcome::Completed(rows.len()),
                            Some(submitted.elapsed()),
                            None,
                        ),
                        Err(QError::Admission(msg)) => (OpenLoopOutcome::Rejected(msg), None, None),
                        Err(e) => (OpenLoopOutcome::Failed(e), None, trace.map(|t| t.render())),
                    }
                })),
                Err(QError::Admission(msg)) => Err(OpenLoopOutcome::Rejected(msg)),
                Err(e) => Err(OpenLoopOutcome::Failed(e)),
            });
        }
        pending
            .into_iter()
            .map(|p| match p {
                Ok(h) => h.join().expect("client thread"),
                Err(settled) => (settled, None, None),
            })
            .collect()
    });
    let elapsed_paper = scale.to_paper(start.elapsed());
    let mut outcomes = Vec::with_capacity(n);
    let mut latencies_paper = Vec::with_capacity(n);
    let mut failed_journals = Vec::new();
    for (o, d, journal) in settled {
        outcomes.push(o);
        latencies_paper.push(d.map(|d| scale.to_paper(d)));
        failed_journals.extend(journal);
    }
    let completed =
        outcomes.iter().filter(|o| matches!(o, OpenLoopOutcome::Completed(_))).count() as u64;
    let rejected =
        outcomes.iter().filter(|o| matches!(o, OpenLoopOutcome::Rejected(_))).count() as u64;
    OpenLoopResult {
        outcomes,
        latencies_paper,
        completed,
        rejected,
        elapsed_paper_secs: elapsed_paper,
        qph: completed as f64 / (elapsed_paper / 3600.0),
        delta: driver.metrics().snapshot().delta_since(&before),
        failed_journals,
    }
}

/// How long [`await_idle`] gives a settled engine to wind down: a worker may
/// still be a few instructions from dropping its last lease or run file when
/// the query's last row reaches its client.
const IDLE_BOUND: Duration = Duration::from_secs(5);

/// The check that a run left nothing behind, for a caller whose every query
/// handle has settled: empty when every admission slot, queued ticket,
/// governor lease and spill run file is back to idle, else one line per
/// thing that leaked. Admission is read once, at once — a handle gives its
/// slots back in the call that settles it, so a slot or ticket still held
/// now is a leak however soon it would go. Leases and run files get
/// [`IDLE_BOUND`]: [`QPipe::leftovers`] is polled until it is empty or the
/// bound has passed.
pub fn await_idle(engine: &QPipe) -> Vec<String> {
    let mut left = engine.admission().leftovers();
    let start = Instant::now();
    loop {
        let now = engine.leftovers();
        if now.is_empty() || start.elapsed() >= IDLE_BOUND {
            for l in now {
                if !left.contains(&l) {
                    left.push(l);
                }
            }
            return left;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{build_tpch, q6, TpchScale};
    use qpipe_common::Tuple;
    use qpipe_exec::iter::ExecContext;

    fn tiny_driver(system: System) -> Driver {
        Driver::build(system, SystemProfile::instant(), |c| build_tpch(c, TpchScale::tiny(), 42))
            .unwrap()
    }

    /// The oracle's answer to `plan` over `d`'s catalog, rows sorted.
    fn oracle_rows(d: &Driver, plan: &PlanNode) -> Vec<Tuple> {
        let mut rows = qpipe_exec::iter::run(plan, &ExecContext::new(d.catalog().clone())).unwrap();
        rows.sort();
        rows
    }

    /// `d`'s answer to `plan`, rows sorted.
    fn engine_rows(d: &Driver, plan: &PlanNode) -> Vec<Tuple> {
        let mut rows = d.engine().submit(plan.clone()).unwrap().try_collect().unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn all_three_systems_answer_identically() {
        let plan = q6(100, 0.05, 30);
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            assert_eq!(engine_rows(&d, &plan), oracle_rows(&d, &plan), "{}", system.label());
        }
    }

    #[test]
    fn a_failed_query_is_an_error_not_a_panic() {
        use qpipe_common::{FaultInjector, FaultKind, FaultOp, FaultRule};
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            d.catalog().pool().clear();
            d.catalog().disk().set_fault_injector(Some(Arc::new(FaultInjector::new(
                1,
                vec![FaultRule::new(FaultKind::Permanent).on_file("region").on_op(FaultOp::Read)],
            ))));
            let err = d.run(PlanNode::scan("region")).expect_err("region never reads");
            assert!(matches!(err, QError::Storage(_)), "{}: got {err:?}", system.label());
            let r = closed_loop(
                &d,
                &|_c, _i| PlanNode::scan("region"),
                2,
                1000.0,
                0.0,
                SystemProfile::instant().time_scale,
            );
            assert_eq!(r.completed, 0, "{}", system.label());
            let scale = SystemProfile::instant().time_scale;
            let r = open_loop(&d, vec![PlanNode::scan("region")], 0.0, scale).all_completed();
            assert!(
                matches!(r, Err(QError::Storage(_))),
                "{}: a figure fails loudly",
                system.label()
            );
        }
    }

    #[test]
    fn a_staggered_open_loop_reports_counts_elapsed_time_and_delta() {
        let d = tiny_driver(System::QPipeOsp);
        let plans = vec![q6(100, 0.05, 30), q6(200, 0.04, 35)];
        let scale = SystemProfile::instant().time_scale;
        let r = open_loop(&d, plans, 100.0, scale).all_completed().unwrap();
        assert_eq!(r.row_counts().len(), 2);
        assert!(r.delta.disk_blocks_read > 0);
        assert!(r.elapsed_paper_secs >= 100.0, "the second query arrives 100 paper s in");
        assert!(await_idle(d.engine()).is_empty());
    }

    #[test]
    fn open_loop_bounds_engine_concurrency_and_completes_everything() {
        use qpipe_core::admit::AdmitConfig;
        let depth = 2;
        let config = QPipeConfig {
            admit: AdmitConfig { queue_depth: depth, ..AdmitConfig::default() },
            ..QPipeConfig::default()
        };
        let d =
            Driver::build_with_config(System::QPipeOsp, SystemProfile::instant(), config, |c| {
                build_tpch(c, TpchScale::tiny(), 42)
            })
            .unwrap();
        let plans = (0..10).map(|i| q6((i % 5) * 100, 0.05, 30)).collect();
        let r = open_loop(&d, plans, 0.0, SystemProfile::instant().time_scale);
        assert_eq!(r.completed, 10, "everything admitted eventually completes: {:?}", r.outcomes);
        assert_eq!(r.rejected, 0);
        for (name, peak) in d.engine().admission().peaks() {
            assert!(peak <= depth, "µEngine {name} ran {peak} > depth {depth} concurrently");
        }
        assert!(r.delta.admitted == 10 && r.delta.queued > 0, "burst must queue: {:?}", r.delta);
    }

    #[test]
    fn open_loop_queue_bound_rejects_overflow() {
        use qpipe_core::admit::AdmitConfig;
        let config = QPipeConfig {
            admit: AdmitConfig { queue_depth: 1, max_queued: 2 },
            ..QPipeConfig::default()
        };
        let d =
            Driver::build_with_config(System::QPipeOsp, SystemProfile::instant(), config, |c| {
                build_tpch(c, TpchScale::tiny(), 7)
            })
            .unwrap();
        let plans = (0..8).map(|i| q6(i * 50, 0.05, 30)).collect();
        let r = open_loop(&d, plans, 0.0, SystemProfile::instant().time_scale);
        assert_eq!(r.completed + r.rejected, 8, "every arrival is settled: {:?}", r.outcomes);
        assert!(r.rejected > 0, "a 2-deep waiting room must reject an 8-query burst");
        assert_eq!(r.delta.rejected, r.rejected);
    }

    #[test]
    fn sql_agrees_with_hand_built_plan_on_all_engines() {
        let sql = crate::sql::q6_sql(100, 0.05, 30).canonical();
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            let by_sql = d.engine().submit_sql(&sql).unwrap().try_collect().unwrap().len();
            let by_plan = d.run(q6(100, 0.05, 30)).unwrap();
            assert_eq!(by_sql, by_plan, "{}", system.label());
        }
    }

    #[test]
    fn closed_loop_completes_queries() {
        let plan = |i: u64| q6((i % 5) as i32 * 100, 0.05, 30);
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            let r = closed_loop(
                &d,
                &|_c, i| plan(i),
                2,
                4000.0, // paper seconds; at the instant profile this is 200 ms real
                0.0,
                SystemProfile::instant().time_scale,
            );
            assert!(r.completed > 0, "{}: clients should finish a query", system.label());
            assert!(r.qph > 0.0);
            // The loop left the engine answering like the oracle.
            for p in (0..5).map(plan) {
                assert_eq!(engine_rows(&d, &p), oracle_rows(&d, &p), "{}", system.label());
            }
        }
    }
}
