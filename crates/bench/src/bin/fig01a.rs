//! Figure 1a: time breakdown for five representative TPC-H queries (Q8, Q12,
//! Q13, Q14, Q19) with respect to the tables they read during execution, on
//! DBMS X: Baseline's engine (no sharing) on the 2Q pool. Each query runs
//! alone, so the breakdown is that of a conventional engine.
//!
//! I/O dominates at the paper's scale, so the per-table share of disk blocks
//! read is the per-table share of execution time. Paper takeaway: although
//! the queries compute different things, they all spend most of their time
//! reading the same few tables (LINEITEM, ORDERS, PART) — the sharing
//! opportunity QPipe exploits.

use qpipe_bench::{print_header, print_row, tpch_driver};
use qpipe_workloads::harness::System;
use qpipe_workloads::tpch::{q12, q13, q14, q19, q8};

fn main() {
    println!("Figure 1a: normalized time breakdown by table read (conventional engine)\n");
    let queries: Vec<(&str, qpipe_exec::plan::PlanNode)> = vec![
        ("Q8", q8(2, "ECONOMY ANODIZED STEEL")),
        ("Q12", q12("RAIL", "SHIP", 400)),
        ("Q13", q13()),
        ("Q14", q14(600)),
        ("Q19", q19("Brand#23", "Brand#34", 5)),
    ];
    let widths = [6, 10, 10, 8, 8, 10];
    print_header(&["query", "lineitem", "orders", "part", "other", "blocks"], &widths);
    for (name, plan) in queries {
        let driver = tpch_driver(System::DbmsX).expect("build driver");
        let before = driver.metrics().snapshot();
        driver.run(plan).expect("query");
        let delta = driver.metrics().snapshot().delta_since(&before);
        let total = delta.disk_blocks_read.max(1) as f64;
        let get = |t: &str| delta.per_file_reads.get(t).copied().unwrap_or(0) as f64;
        let (li, or, pa) = (get("lineitem"), get("orders"), get("part"));
        let other = (total - li - or - pa).max(0.0);
        print_row(
            &[
                name.to_string(),
                format!("{:.0}%", 100.0 * li / total),
                format!("{:.0}%", 100.0 * or / total),
                format!("{:.0}%", 100.0 * pa / total),
                format!("{:.0}%", 100.0 * other / total),
                format!("{}", delta.disk_blocks_read),
            ],
            &widths,
        );
    }
}
