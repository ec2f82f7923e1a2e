//! The two kinds of run. Both set up, build the oracle, warm up and then run
//! the closed loop of [`crate::client`]:
//!
//! * [`measured`] — tracing off, one long window: the end-to-end metrics.
//! * [`traced`] — an untraced window for the engine's always-on counters, a
//!   traced window for spans and probe trees, the layer probes, and the
//!   Baseline and DBMS X reference windows: the per-layer metrics.

use crate::client::{run_loop, LoopResult, Mode};
use crate::report::{Metric, RunOutput};
use crate::workload::{PoolQuery, Workload};
use crate::{layers, oracle, probes, procfs, stats};
use qpipe_common::Tuple;
use qpipe_exec::iter::ExecContext;
use qpipe_workloads::harness::{Driver, System};
use std::path::Path;
use std::time::{Duration, Instant};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Fresh catalog-load + engine-boot cycles `setup_s` is the median of.
const SETUP_CYCLES: usize = 15;
/// Untimed lead-in of the measured window (buffer pool and thread pools warm).
const WARMUP: Duration = Duration::from_secs(2);
/// Lead-in of the shorter windows of a traced run.
const SHORT_WARMUP: Duration = Duration::from_secs(1);
/// Shares of `--seconds` a traced run gives its four windows.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.3;
const REFERENCE_SHARE: f64 = 0.2;
/// Failed queries printed per window.
const FAILURES_SHOWN: usize = 5;

/// Run every pool query once through the iterator engine on the workload's
/// own catalog: the expected results, and how long each took.
fn oracle_pass(driver: &Driver, pool: &[PoolQuery]) -> BenchResult<(Vec<Vec<Tuple>>, Vec<f64>)> {
    let ctx = ExecContext::new(driver.catalog().clone());
    let mut expected = Vec::with_capacity(pool.len());
    let mut millis = Vec::with_capacity(pool.len());
    for query in pool {
        let start = Instant::now();
        let rows = qpipe_exec::iter::run(&query.plan, &ctx)?;
        millis.push(start.elapsed().as_secs_f64() * 1e3);
        expected.push(oracle::canonical(rows));
    }
    Ok((expected, millis))
}

/// Print what failed in a window (to stderr; stdout carries the metrics).
fn report_failures(label: &str, run: &LoopResult, pool: &[PoolQuery]) {
    let failures = run.in_window().filter_map(|s| Some((s.slot, s.outcome.as_ref().err()?)));
    for (slot, why) in failures.take(FAILURES_SHOWN) {
        eprintln!("[{label}] FAILED slot {slot}: {why}\n  {}", pool[slot].describe());
    }
    eprintln!(
        "[{label}] {} completed, {} failed in {:.2} s",
        run.completed(),
        run.failed(),
        run.window_secs()
    );
}

/// `a / b`, or 0 when a window completed nothing (JSON has no infinity).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end run: tracing off.
pub fn measured(workload: Workload, seed: u64, seconds: u64) -> BenchResult<RunOutput> {
    let mut setup_secs = Vec::with_capacity(SETUP_CYCLES);
    let mut driver = None;
    for _ in 0..SETUP_CYCLES {
        drop(driver.take());
        let start = Instant::now();
        driver = Some(workload.boot(System::QPipeOsp, false)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let driver = driver.expect("at least one set-up cycle");
    let pool = workload.pool(seed, driver.catalog())?;
    let (expected, _) = oracle_pass(&driver, &pool)?;

    let run =
        run_loop(&driver, Mode::Staged, &pool, &expected, WARMUP, Duration::from_secs(seconds))?;
    report_failures("measured", &run, &pool);
    let latencies = run.latencies_ms();
    if !stats::supports(latencies.len(), 0.95) {
        eprintln!("[measured] only {} samples: p95 has fewer than 10 beyond it", latencies.len());
    }
    eprintln!("[measured] latency samples: {}", latencies.len());
    Ok(RunOutput {
        attempted: run.attempted(),
        failed: run.failed(),
        metrics: vec![
            Metric::new("setup_s", stats::median(&setup_secs), "s"),
            Metric::new("throughput_qps", run.throughput_qps(), "1/s"),
            Metric::new("latency_p50_ms", stats::percentile(&latencies, 0.50), "ms"),
            Metric::new("latency_p95_ms", stats::percentile(&latencies, 0.95), "ms"),
            // Offset by one so that the metric is never 0 where the data
            // fits in the cache; `storage.disk.blocks_per_query` is the
            // plain value.
            Metric::new("blocks_per_query_plus1", run.blocks_per_query() + 1.0, "blocks"),
            Metric::new("peak_rss_mb", procfs::peak_rss_mb()?, "MiB"),
        ],
    })
}

/// The per-layer run. Writes the span log to `out_dir/trace-<workload>.json`.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
) -> BenchResult<RunOutput> {
    let window = |share: f64| Duration::from_secs_f64(seconds as f64 * share);
    let driver = workload.boot(System::QPipeOsp, false)?;
    let pool = workload.pool(seed, driver.catalog())?;
    let (expected, oracle_ms) = oracle_pass(&driver, &pool)?;

    let untraced =
        run_loop(&driver, Mode::Staged, &pool, &expected, WARMUP, window(UNTRACED_SHARE))?;
    report_failures("untraced", &untraced, &pool);
    let mut metrics = layers::engine_metrics(&untraced);

    let traced = {
        let driver = workload.boot(System::QPipeOsp, true)?;
        run_loop(&driver, Mode::Traced, &pool, &expected, SHORT_WARMUP, window(TRACED_SHARE))?
    };
    report_failures("traced", &traced, &pool);
    let (trace_metrics, spans) = layers::trace_metrics(&traced);
    metrics.extend(trace_metrics);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ratio(traced.throughput_qps(), untraced.throughput_qps()),
        "ratio",
    ));
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("trace-{}.json", workload.name())),
        spans.to_json().render(),
    )?;

    metrics.extend(probes::run(workload, &driver, &pool)?);
    metrics.push(Metric::new("exec.iter.query_p50_ms", stats::median(&oracle_ms), "ms"));
    drop(driver);

    let mut reference = |system, mode, label: &str| -> BenchResult<LoopResult> {
        let driver = workload.boot(system, false)?;
        let run = run_loop(&driver, mode, &pool, &expected, SHORT_WARMUP, window(REFERENCE_SHARE))?;
        report_failures(label, &run, &pool);
        metrics.push(Metric::new(
            format!("ref.{label}.throughput_qps"),
            run.throughput_qps(),
            "1/s",
        ));
        metrics.push(Metric::new(
            format!("ref.{label}.blocks_per_query"),
            run.blocks_per_query(),
            "blocks",
        ));
        Ok(run)
    };
    let baseline = reference(System::Baseline, Mode::Staged, "baseline")?;
    let dbmsx = reference(System::DbmsX, Mode::Iterator, "dbmsx")?;
    // Same window length, same process, same pool: the OSP gain on this workload.
    metrics.push(Metric::new(
        "osp.speedup_vs_baseline",
        ratio(untraced.throughput_qps(), baseline.throughput_qps()),
        "ratio",
    ));
    let runs = [untraced, traced, baseline, dbmsx];
    let attempted: u64 = runs.iter().map(LoopResult::attempted).sum();
    let failed: u64 = runs.iter().map(LoopResult::failed).sum();
    metrics.push(Metric::new("bench.failed_frac", ratio(failed as f64, attempted as f64), "ratio"));
    Ok(RunOutput { attempted, failed, metrics })
}
