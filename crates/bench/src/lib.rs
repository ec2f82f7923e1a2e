//! Shared helpers for the figure-reproduction binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper's evaluation (§5);
//! `wop_table` prints Figure 4's model, `ablation` isolates three design
//! choices, and the `*_smoke` and `planner_fuzz` binaries are CI harnesses.

use qpipe_common::QResult;
use qpipe_workloads::harness::{Driver, System, SystemProfile};
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
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(1234567), "1,234,567");
    }
}
