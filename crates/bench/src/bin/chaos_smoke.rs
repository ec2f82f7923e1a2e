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
//! * admission slots, queued tickets, governor leases and spill run files
//!   return to idle after the burst drains (a small sort budget makes the
//!   burst's lineitem sorts spill, so a leaked run file shows).

use qpipe_common::{FaultKind, FaultOp, FaultRule, QError};
use qpipe_core::engine::QPipeConfig;
use qpipe_exec::iter::ExecConfig;
use qpipe_exec::plan::{PlanNode, SortKey};
use qpipe_workloads::chaos::{run_chaos, ChaosConfig};
use qpipe_workloads::harness::{Driver, OpenLoopOutcome, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch, cols, q13, q6, TpchScale};

fn main() {
    let driver = Driver::build_with_config(
        System::QPipeOsp,
        SystemProfile::instant(),
        QPipeConfig {
            exec: ExecConfig { sort_budget: 2048, tracing: true, ..ExecConfig::default() },
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
    // ride through the transient/panic schedule, and of those every sixth
    // sorts the whole table, spilling runs.
    let plans: Vec<_> = (0..n)
        .map(|i| match i % 6 {
            5 => q13(),
            2 => PlanNode::scan("lineitem").sort(vec![SortKey::asc(cols::L_EXTENDEDPRICE)]),
            _ => q6((i % 5) as i32 * 100, 0.05, 30),
        })
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
    // Failed queries are expected here (that's the point of the schedule);
    // their journals are the post-mortem artifact this smoke exists to prove.
    qpipe_bench::end_smoke("chaos-smoke", &report.result, &driver, report.leftovers, failures);
}
