//! CI chaos-smoke: a fixed-seed fault schedule replayed under a
//! multi-client open-loop burst against a small TPC-H catalog.
//!
//! Run by the `chaos-smoke` CI job under a wall-clock bound (`timeout`).
//! Exits non-zero when the failure-containment contract breaks:
//!
//! * every arrival settles — completed, rejected, or cleanly failed,
//! * transient I/O faults heal through the buffer-pool retry path
//!   (`io_retries > 0`) without failing their queries,
//! * single-bit corruption is caught by page checksums (`QError::Storage`,
//!   never silent garbage),
//! * an injected operator panic is contained (caught exactly once, its
//!   queries failed, the engine keeps serving),
//! * admission slots, governor leases, and spill temp files return to
//!   baseline after the burst drains.

use qpipe_common::{FaultKind, FaultOp, FaultRule, QError};
use qpipe_core::engine::QPipeConfig;
use qpipe_exec::iter::ExecConfig;
use qpipe_workloads::chaos::{run_chaos, ChaosConfig};
use qpipe_workloads::harness::{Driver, OpenLoopOutcome, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch, q13, q6, TpchScale};

fn main() {
    let driver = Driver::build_with_config(
        System::QPipeOsp,
        SystemProfile::instant(),
        QPipeConfig {
            exec: ExecConfig { tracing: true, ..ExecConfig::default() },
            ..QPipeConfig::default()
        },
        |c| build_tpch(c, TpchScale::tiny(), 42),
    )
    .expect("build driver");

    // The fixed schedule: transient read faults on the first lineitem blocks
    // (heal within the retry budget), permanent corruption of an orders
    // block (checksum-detected), and exactly one injected panic.
    let rules = vec![
        FaultRule::new(FaultKind::Transient)
            .on_file("lineitem")
            .on_blocks(0..3)
            .on_op(FaultOp::Read)
            .times(2),
        FaultRule::new(FaultKind::Corrupt)
            .on_file("orders")
            .on_blocks(0..1)
            .on_op(FaultOp::Read)
            .times(u32::MAX),
        FaultRule::new(FaultKind::Panic)
            .on_file("lineitem")
            .on_blocks(4..5)
            .on_op(FaultOp::Read)
            .times(1),
    ];
    let config = ChaosConfig { interarrival_paper: 300.0, ..ChaosConfig::new(0xC4A05, rules) };
    let n = 24;
    // Every sixth query scans the corrupted table; the rest scan lineitem and
    // ride through the transient/panic schedule.
    let plans: Vec<_> = (0..n)
        .map(|i| if i % 6 == 5 { q13() } else { q6((i % 5) as i32 * 100, 0.05, 30) })
        .collect();
    let report = run_chaos(&driver, plans, &config);

    let mut failures = Vec::new();
    if report.result.outcomes.len() != n {
        failures.push(format!("unsettled arrivals: {:?}", report.result.outcomes));
    }
    if report.faults_injected == 0 {
        failures.push("schedule injected nothing — smoke is vacuous".into());
    }
    if report.result.delta.io_retries == 0 {
        failures.push("transient faults never exercised the retry path".into());
    }
    if report.result.delta.checksum_failures == 0 {
        failures.push("corruption was never detected by a checksum".into());
    }
    if report.result.delta.worker_panics != 1 {
        failures.push(format!(
            "expected exactly 1 contained panic, saw {}",
            report.result.delta.worker_panics
        ));
    }
    if report.completed() == 0 {
        failures.push("no query completed under the schedule".into());
    }
    // Corruption must surface as a checksum/storage error on the affected
    // queries, never as silently wrong rows.
    let bad_failures: Vec<_> = report
        .result
        .outcomes
        .iter()
        .filter_map(|o| match o {
            OpenLoopOutcome::Failed(e) if !matches!(e, QError::Storage(_) | QError::Exec(_)) => {
                Some(format!("{e:?}"))
            }
            _ => None,
        })
        .collect();
    if !bad_failures.is_empty() {
        failures.push(format!("unexpected failure kinds: {bad_failures:?}"));
    }
    if !report.leaked_tmp_files.is_empty() {
        failures.push(format!("temp files leaked: {:?}", report.leaked_tmp_files));
    }
    if report.governor_in_use != 0 {
        failures.push(format!("{} memory units still leased", report.governor_in_use));
    }
    if !report.busy_engines.is_empty() {
        failures.push(format!("admission slots leaked: {:?}", report.busy_engines));
    }

    println!(
        "chaos-smoke: {n} submitted, {} completed, {} failed, {} rejected; \
         {} faults injected, {} retries, {} checksum rejections, {} contained panic(s)",
        report.completed(),
        report.failed(),
        report.result.rejected,
        report.faults_injected,
        report.result.delta.io_retries,
        report.result.delta.checksum_failures,
        report.result.delta.worker_panics,
    );
    let l = report.result.latency();
    println!(
        "  latency: {} completed, p50 {:.1}s / p95 {:.1}s / p99 {:.1}s (paper time)",
        l.count,
        l.p50 as f64 / 1e6,
        l.p95 as f64 / 1e6,
        l.p99 as f64 / 1e6,
    );
    // Wiring regression guard: a recorded histogram whose percentiles read
    // zero means a record site went dead or the snapshot plumbing broke.
    for (name, h) in driver.metrics().snapshot().histograms() {
        if h.count > 0 && (h.p50 == 0 || h.p95 == 0 || h.p99 == 0) {
            failures.push(format!(
                "histogram {name} has count {} but a zero percentile (p50 {} p95 {} p99 {})",
                h.count, h.p50, h.p95, h.p99
            ));
        }
    }
    println!("--- metrics ---");
    print!("{}", driver.metrics().render_text());
    // Failed queries are expected here (that's the point of the schedule);
    // their journals are the post-mortem artifact this smoke exists to prove.
    for journal in &report.result.failed_journals {
        println!("--- failed-query journal ---\n{journal}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("chaos-smoke: OK");
}
