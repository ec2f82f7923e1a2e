//! Multi-client experiment harness (paper §5 methodology).
//!
//! Builds the three systems the paper compares —
//! * **QPipe w/OSP** — the staged engine with on-demand simultaneous
//!   pipelining,
//! * **Baseline** — the same engine with OSP disabled (sharing only through
//!   the buffer pool),
//! * **DBMS X** — our stand-in for the unnamed commercial system: the
//!   conventional one-query-many-operators iterator engine with a
//!   scan-resistant (2Q) buffer pool,
//!
//! and drives them with staggered-arrival runs (Figures 8–11) and
//! closed-loop multi-client runs (Figures 1b/12/13). All time parameters are
//! in *paper seconds*, converted through a [`TimeScale`].

use qpipe_common::sim::TimeScale;
use qpipe_common::{HistogramSummary, Metrics, MetricsSnapshot, QError, QResult};
use qpipe_core::engine::{QPipe, QPipeConfig, QueryHandle};
use qpipe_core::QueryClass;
use qpipe_exec::iter::{run as exec_run, ExecContext};
use qpipe_exec::plan::PlanNode;
use qpipe_planner::{PlannedQuery, PlannerOptions};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    inner: DriverImpl,
}

enum DriverImpl {
    Staged(Arc<QPipe>),
    Iterator(ExecContext),
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
    /// memory budgets, ...). `config.osp` is overridden to match `system`;
    /// DBMS X takes only `config.exec`.
    pub fn build_with_config(
        system: System,
        profile: SystemProfile,
        config: QPipeConfig,
        load: impl FnOnce(&Arc<Catalog>) -> QResult<()>,
    ) -> QResult<Driver> {
        let metrics = Metrics::new();
        let disk = SimDisk::new(profile.disk, metrics.clone());
        // DBMS X gets the scan-resistant pool (its better buffer manager is
        // visible in Figure 12's Baseline-vs-X gap); QPipe/Baseline get
        // BerkeleyDB's plain LRU.
        let policy = match system {
            System::DbmsX => PolicyKind::TwoQ,
            System::QPipeOsp | System::Baseline => PolicyKind::Lru,
        };
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(profile.pool_pages, policy));
        let catalog = Catalog::new(disk, pool);
        load(&catalog)?;
        let inner = match system {
            System::QPipeOsp => {
                DriverImpl::Staged(QPipe::new(catalog.clone(), QPipeConfig { osp: true, ..config }))
            }
            System::Baseline => DriverImpl::Staged(QPipe::new(
                catalog.clone(),
                QPipeConfig { osp: false, ..config },
            )),
            System::DbmsX => {
                DriverImpl::Iterator(ExecContext::with_config(catalog.clone(), config.exec))
            }
        };
        Ok(Driver { system, metrics, catalog, inner })
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The staged engine, when this driver wraps one (QPipe/Baseline).
    pub fn engine(&self) -> Option<&Arc<QPipe>> {
        match &self.inner {
            DriverImpl::Staged(e) => Some(e),
            DriverImpl::Iterator(_) => None,
        }
    }

    /// Submit without waiting for completion (staged engines only): the
    /// query passes through admission and the returned handle blocks until
    /// its results stream. `None` for the iterator engine, which has no
    /// asynchronous submission path. The class is ignored: admission keeps
    /// one queue (see [`QueryClass`]).
    pub fn submit_with(&self, plan: PlanNode, _class: QueryClass) -> Option<QResult<QueryHandle>> {
        match &self.inner {
            DriverImpl::Staged(e) => Some(e.submit(plan)),
            DriverImpl::Iterator(_) => None,
        }
    }

    /// Plan SQL text against this driver's catalog without running it.
    pub fn plan_sql(&self, sql: &str, opts: &PlannerOptions) -> QResult<PlannedQuery> {
        qpipe_planner::plan_sql(self.catalog.as_ref(), sql, opts)
    }

    /// Submit SQL text without waiting for completion (staged engines only;
    /// `None` for the iterator engine, and the class ignored, as with
    /// [`submit_with`](Self::submit_with)).
    pub fn submit_sql(
        &self,
        sql: &str,
        _class: QueryClass,
        opts: &PlannerOptions,
    ) -> Option<QResult<QueryHandle>> {
        match &self.inner {
            DriverImpl::Staged(e) => Some(e.submit_sql_opts(sql, opts)),
            DriverImpl::Iterator(_) => None,
        }
    }

    /// Run one SQL query to completion on the calling thread; returns row
    /// count. Both engines plan through the canonicalizing front end; the
    /// staged path additionally records the signature for the
    /// `plan_canonical_hits` metric.
    pub fn run_sql(&self, sql: &str) -> QResult<usize> {
        match &self.inner {
            DriverImpl::Staged(engine) => Ok(engine.submit_sql(sql)?.collect().len()),
            DriverImpl::Iterator(ctx) => {
                let planned = self.plan_sql(sql, &PlannerOptions::default())?;
                let start = Instant::now();
                let rows = exec_run(&planned.plan, ctx)?;
                self.metrics.add_query_completion(start.elapsed().as_micros() as u64);
                Ok(rows.len())
            }
        }
    }

    /// Run one query to completion on the calling thread; returns row count.
    pub fn run(&self, plan: PlanNode) -> QResult<usize> {
        match &self.inner {
            DriverImpl::Staged(engine) => Ok(engine.submit(plan)?.collect().len()),
            DriverImpl::Iterator(ctx) => {
                let start = Instant::now();
                let rows = exec_run(&plan, ctx)?;
                self.metrics.add_query_completion(start.elapsed().as_micros() as u64);
                Ok(rows.len())
            }
        }
    }
}

/// Result of a staggered-arrival run (Figures 8–11).
#[derive(Debug, Clone)]
pub struct StaggeredResult {
    /// Wall time from first submission to last completion, in paper seconds.
    pub total_paper_secs: f64,
    /// Metrics delta over the run.
    pub delta: MetricsSnapshot,
    /// Row counts per query, in submission order (for correctness checks).
    pub row_counts: Vec<usize>,
}

/// Submit `plans[i]` at time `i × interarrival` (paper seconds) and wait for
/// all to finish.
pub fn staggered_run(
    driver: &Driver,
    plans: Vec<PlanNode>,
    interarrival_paper: f64,
    scale: TimeScale,
) -> QResult<StaggeredResult> {
    let before = driver.metrics().snapshot();
    let start = Instant::now();
    // Every client counts its offset from one release point, so a thread
    // that starts late (spawning is not free) does not arrive late.
    let release = &std::sync::Barrier::new(plans.len());
    let results: Vec<QResult<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let delay = scale.to_real(interarrival_paper * i as f64);
                s.spawn(move || {
                    release.wait();
                    std::thread::sleep(delay);
                    driver.run(plan)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let total = start.elapsed();
    let mut row_counts = Vec::with_capacity(results.len());
    for r in results {
        row_counts.push(r?);
    }
    Ok(StaggeredResult {
        total_paper_secs: scale.to_paper(total),
        delta: driver.metrics().snapshot().delta_since(&before),
        row_counts,
    })
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
        Some(mean_us) => scale.to_paper(std::time::Duration::from_micros(mean_us)),
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
    /// Refused by admission (queue full / queue timeout).
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
/// exists for. Staged engines submit asynchronously (the admission queue
/// absorbs the burst, rejects overflow, and bounds per-µEngine concurrency);
/// every accepted query is drained by its own collector thread — the client
/// model admission assumes. The iterator engine (DBMS X) spawns one thread
/// per arrival, unbounded: it has no admission layer, which is exactly the
/// comparison point.
pub fn open_loop(
    driver: &Driver,
    plans: Vec<PlanNode>,
    interarrival_paper: f64,
    scale: TimeScale,
) -> OpenLoopResult {
    run_open_loop(driver, plans, interarrival_paper, scale, |plan| match driver.engine() {
        Some(engine) => engine.submit(plan).map(Arrival::Handle),
        None => Ok(Arrival::Run(plan)),
    })
}

/// How one arrival entered the system.
enum Arrival {
    /// Accepted by the staged engine's admission queue.
    Handle(QueryHandle),
    /// For the iterator engine: the plan to run on a thread of its own.
    Run(PlanNode),
}

/// The open loop behind [`open_loop`] and [`open_loop_sql`]: `queries[i]`
/// arrives at `i × interarrival` and enters the system through `submit`.
/// Every accepted query gets a collector thread; an arrival `submit` refuses
/// settles on the spot — `Rejected` for an admission error, `Failed` for any
/// other. Collectors time submission → last row, the per-query response
/// latency [`OpenLoopResult::latency`] summarizes. When the engine
/// traces, a failed query's journal rides along for the post-mortem dump.
fn run_open_loop<Q>(
    driver: &Driver,
    queries: Vec<Q>,
    interarrival_paper: f64,
    scale: TimeScale,
    submit: impl Fn(Q) -> QResult<Arrival>,
) -> OpenLoopResult {
    let before = driver.metrics().snapshot();
    let start = Instant::now();
    let n = queries.len();
    let settled: Vec<Settled> = std::thread::scope(|s| {
        let mut pending: Vec<Result<_, OpenLoopOutcome>> = Vec::with_capacity(n);
        for (i, query) in queries.into_iter().enumerate() {
            let due = scale.to_real(interarrival_paper * i as f64);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let submitted = Instant::now();
            pending.push(match submit(query) {
                Ok(Arrival::Handle(handle)) => Ok(s.spawn(move || {
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
                Ok(Arrival::Run(plan)) => Ok(s.spawn(move || match driver.run(plan) {
                    Ok(rows) => (OpenLoopOutcome::Completed(rows), Some(submitted.elapsed()), None),
                    Err(e) => (OpenLoopOutcome::Failed(e), None, None),
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
    finish_open_loop(settled, elapsed_paper, scale, driver, before)
}

/// One settled arrival: outcome, submission→last-row wall time, and (for
/// traced failures) the rendered trace journal.
type Settled = (OpenLoopOutcome, Option<std::time::Duration>, Option<String>);

/// Assemble an [`OpenLoopResult`] from per-arrival outcomes + latencies.
fn finish_open_loop(
    settled: Vec<Settled>,
    elapsed_paper: f64,
    scale: TimeScale,
    driver: &Driver,
    before: MetricsSnapshot,
) -> OpenLoopResult {
    let mut outcomes = Vec::with_capacity(settled.len());
    let mut latencies_paper = Vec::with_capacity(settled.len());
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
        qph: completed as f64 / (elapsed_paper / 3600.0),
        delta: driver.metrics().snapshot().delta_since(&before),
        failed_journals,
    }
}

/// [`open_loop`] over SQL text: `queries[i]` arrives at `i × interarrival`
/// and is planned through the front end with `opts` before submission.
/// Planner errors settle the arrival as `Failed` without occupying a
/// collector. The iterator engine plans eagerly and runs each query on its
/// own unbounded thread, as in [`open_loop`].
pub fn open_loop_sql(
    driver: &Driver,
    queries: Vec<String>,
    interarrival_paper: f64,
    scale: TimeScale,
    opts: &PlannerOptions,
) -> OpenLoopResult {
    run_open_loop(driver, queries, interarrival_paper, scale, |sql| match driver.engine() {
        Some(engine) => engine.submit_sql_opts(&sql, opts).map(Arrival::Handle),
        None => driver.plan_sql(&sql, opts).map(|planned| Arrival::Run((*planned.plan).clone())),
    })
}

/// One leg of a [`mixed_phrasing_storm`].
#[derive(Debug, Clone)]
pub struct PhrasingLeg {
    pub result: OpenLoopResult,
}

impl PhrasingLeg {
    /// Total cross-client sharing observed: OSP attaches.
    pub fn shared(&self) -> u64 {
        self.result.delta.osp_attaches
    }
}

/// A/B report from [`mixed_phrasing_storm`]: the same SQL storm planned
/// without (`raw`) and with (`canonical`) plan canonicalization.
#[derive(Debug, Clone)]
pub struct PhrasingStormReport {
    pub raw: PhrasingLeg,
    pub canonical: PhrasingLeg,
}

/// The mixed-phrasing sharing experiment: every client submits the *same
/// logical query* phrased differently (shuffled FROM order, shuffled and
/// commuted conjuncts — see [`crate::sql::SqlQuery::shuffled`]). Each leg
/// gets a fresh engine built by `load` under `config`, then replays the
/// identical `queries` batch open-loop — once with `canonicalize: false`
/// (plans follow the written phrasing, so signatures scatter) and once with
/// the canonicalizing planner (every phrasing lands on one signature, so
/// concurrent repeats attach to one host). The report carries
/// both legs' sharing counters, including `delta.plan_canonical_hits`.
pub fn mixed_phrasing_storm(
    system: System,
    profile: SystemProfile,
    config: QPipeConfig,
    load: impl Fn(&Arc<Catalog>) -> QResult<()>,
    queries: &[String],
    interarrival_paper: f64,
) -> QResult<PhrasingStormReport> {
    let mut legs = Vec::with_capacity(2);
    for canonicalize in [false, true] {
        let driver = Driver::build_with_config(system, profile, config, |c| load(c))?;
        let result = open_loop_sql(
            &driver,
            queries.to_vec(),
            interarrival_paper,
            profile.time_scale,
            &PlannerOptions { canonicalize },
        );
        legs.push(PhrasingLeg { result });
    }
    let canonical = legs.pop().expect("two legs");
    let raw = legs.pop().expect("two legs");
    Ok(PhrasingStormReport { raw, canonical })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{build_tpch, q6, TpchScale};

    fn tiny_driver(system: System) -> Driver {
        Driver::build(system, SystemProfile::instant(), |c| build_tpch(c, TpchScale::tiny(), 42))
            .unwrap()
    }

    #[test]
    fn all_three_systems_answer_identically() {
        let plan = q6(100, 0.05, 30);
        let mut counts = Vec::new();
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            counts.push(d.run(plan.clone()).unwrap());
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn staggered_run_reports_counts_and_delta() {
        let d = tiny_driver(System::QPipeOsp);
        let plans = vec![q6(100, 0.05, 30), q6(200, 0.04, 35)];
        let r = staggered_run(&d, plans, 0.0, SystemProfile::instant().time_scale).unwrap();
        assert_eq!(r.row_counts.len(), 2);
        assert!(r.delta.disk_blocks_read > 0);
        assert!(r.total_paper_secs > 0.0);
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
        let engine = d.engine().unwrap();
        for (name, peak) in engine.admission().peaks() {
            assert!(peak <= depth, "µEngine {name} ran {peak} > depth {depth} concurrently");
        }
        assert!(r.delta.admitted == 10 && r.delta.queued > 0, "burst must queue: {:?}", r.delta);
    }

    #[test]
    fn open_loop_queue_bound_rejects_overflow() {
        use qpipe_core::admit::AdmitConfig;
        let config = QPipeConfig {
            admit: AdmitConfig { queue_depth: 1, max_queued: 2, ..AdmitConfig::default() },
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
    fn run_sql_agrees_with_hand_built_plan_on_all_engines() {
        let sql = crate::sql::q6_sql(100, 0.05, 30).canonical();
        for system in [System::QPipeOsp, System::Baseline, System::DbmsX] {
            let d = tiny_driver(system);
            let by_sql = d.run_sql(&sql).unwrap();
            let by_plan = d.run(q6(100, 0.05, 30)).unwrap();
            assert_eq!(by_sql, by_plan, "{}", system.label());
        }
    }

    #[test]
    fn mixed_phrasing_storm_counts_canonical_hits() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let shape = crate::sql::q3_sql(3, 1200);
        let mut rng = StdRng::seed_from_u64(17);
        let queries: Vec<String> = (0..8).map(|_| shape.shuffled(&mut rng)).collect();
        let report = mixed_phrasing_storm(
            System::QPipeOsp,
            SystemProfile::instant(),
            QPipeConfig::default(),
            |c| build_tpch(c, TpchScale::tiny(), 42),
            &queries,
            0.0,
        )
        .unwrap();
        assert_eq!(report.canonical.result.completed, 8, "{:?}", report.canonical.result.outcomes);
        assert_eq!(report.raw.result.completed, 8, "{:?}", report.raw.result.outcomes);
        // Every distinct phrasing of the one logical query collides on one
        // signature under canonicalization.
        assert!(
            report.canonical.result.delta.plan_canonical_hits
                > report.raw.result.delta.plan_canonical_hits,
            "canonical {} vs raw {}",
            report.canonical.result.delta.plan_canonical_hits,
            report.raw.result.delta.plan_canonical_hits,
        );
    }

    #[test]
    fn closed_loop_completes_queries() {
        let d = tiny_driver(System::DbmsX);
        let r = closed_loop(
            &d,
            &|_c, i| q6((i % 5) as i32 * 100, 0.05, 30),
            2,
            4000.0, // paper seconds; at the instant profile this is 200 ms real
            0.0,
            SystemProfile::instant().time_scale,
        );
        assert!(r.completed > 0, "clients should finish at least one query");
        assert!(r.qph > 0.0);
    }
}
