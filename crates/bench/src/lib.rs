//! Shared helpers for the figure-reproduction binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation (§5);
//! `wop_table` prints Figure 4's model, `ablation` isolates three design
//! choices, and the `*_smoke` and `planner_fuzz` binaries are CI harnesses.

use qpipe_common::{MetricsSnapshot, QResult};
use qpipe_workloads::harness::{Driver, OpenLoopResult, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch, TpchScale};
use qpipe_workloads::wisconsin::{build_wisconsin, WisconsinScale};

/// Default figure profile.
pub fn profile() -> SystemProfile {
    SystemProfile::experiment()
}

/// Build a TPC-H driver at experiment scale for `system`.
pub fn tpch_driver(system: System) -> QResult<Driver> {
    Driver::build(system, profile(), |c| build_tpch(c, TpchScale::experiment(), 20050614))
}

/// Build a Wisconsin driver at experiment scale for `system`.
pub fn wisconsin_driver(system: System) -> QResult<Driver> {
    Driver::build(system, profile(), |c| build_wisconsin(c, WisconsinScale::experiment()))
}

/// The smokes' wiring regression guard: a recorded histogram whose
/// percentiles read zero means a record site went dead or the snapshot
/// plumbing broke. One failure line per such histogram.
pub fn zero_percentile_histograms(snapshot: &MetricsSnapshot) -> Vec<String> {
    snapshot
        .histograms()
        .into_iter()
        .filter(|(_, h)| h.count > 0 && (h.p50 == 0 || h.p95 == 0 || h.p99 == 0))
        .map(|(name, h)| {
            format!(
                "histogram {name} has count {} but a zero percentile (p50 {} p95 {} p99 {})",
                h.count, h.p50, h.p95, h.p99
            )
        })
        .collect()
}

/// The smokes' shared tail, after each smoke's own checks: print the
/// burst's latency line, add a failure for each of `leftovers` (what
/// [`qpipe_workloads::harness::await_idle`] found after the burst) and for
/// each [`zero_percentile_histograms`] finding, dump the metrics and the
/// failed queries' journals when the engine traces, then exit 1 after
/// printing every failure, or print `{name}: OK`.
pub fn end_smoke(
    name: &str,
    r: &OpenLoopResult,
    driver: &Driver,
    leftovers: Vec<String>,
    mut failures: Vec<String>,
) {
    let l = r.latency();
    println!(
        "  latency: {} completed, p50 {:.1}s / p95 {:.1}s / p99 {:.1}s (paper time)",
        l.count,
        l.p50 as f64 / 1e6,
        l.p95 as f64 / 1e6,
        l.p99 as f64 / 1e6,
    );
    failures.extend(leftovers.into_iter().map(|l| format!("not idle: {l}")));
    failures.extend(zero_percentile_histograms(&driver.metrics().snapshot()));
    if driver.engine().config().exec.tracing {
        println!("--- metrics ---");
        print!("{}", driver.metrics().render_text());
        for journal in &r.failed_journals {
            println!("--- failed-query journal ---\n{journal}");
        }
    }
    if failures.is_empty() {
        println!("{name}: OK");
        return;
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(1);
}

/// Print a padded table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> =
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = *w)).collect();
    println!("{}", line.join("  "));
}

/// Print a header + underline.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Format a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a count with thousands separators.
pub fn thousands(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_histogram_with_a_zero_percentile_fails_the_guard() {
        let metrics = qpipe_common::Metrics::new();
        assert!(zero_percentile_histograms(&metrics.snapshot()).is_empty(), "nothing recorded");
        metrics.record_query_latency(250);
        let mut snapshot = metrics.snapshot();
        assert!(zero_percentile_histograms(&snapshot).is_empty());
        snapshot.pool_queue_wait_us.count = 3; // samples whose percentiles went missing
        assert_eq!(
            zero_percentile_histograms(&snapshot),
            ["histogram pool_queue_wait_us has count 3 but a zero percentile (p50 0 p95 0 p99 0)"]
        );
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(1234567), "1,234,567");
    }
}
