//! Figure 10: reusing computation in sort-merge joins. Two similar Wisconsin
//! 3-way join queries (same BIG1/BIG2 predicates, different SMALL predicate)
//! submitted at increasing intervals; total response time for Baseline vs
//! QPipe w/OSP.
//!
//! Paper result: sort is a full + linear overlap, so QPipe shares the BIG1/
//! BIG2 sorts (and the merge phase when the second query arrives before the
//! first output) for most of the query lifetime — the w/OSP curve stays flat
//! for a long interval, yielding ≈2x speedup.

use qpipe_bench::{f1, print_header, print_row, profile, wisconsin_driver};
use qpipe_workloads::harness::{open_loop, System};
use qpipe_workloads::wisconsin::three_way_join;

fn main() {
    let scale = profile().time_scale;
    println!("Figure 10: total response time (paper s) — 2 x Wisconsin 3-way sort-merge join\n");
    let widths = [14, 12, 14, 12];
    print_header(&["interarrival_s", "Baseline", "QPipe w/OSP", "attaches"], &widths);
    for ia in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0] {
        let mut totals = Vec::new();
        let mut attaches = 0;
        for system in [System::Baseline, System::QPipeOsp] {
            let driver = wisconsin_driver(system).expect("build driver");
            // Same big predicates, different small predicate (paper setup).
            let plans = vec![three_way_join(0, 3), three_way_join(0, 7)];
            let r = open_loop(&driver, plans, ia, scale).all_completed().expect("run");
            if system == System::QPipeOsp {
                attaches = r.delta.osp_attaches;
            }
            totals.push(r.elapsed_paper_secs);
        }
        print_row(
            &[format!("{ia:.0}"), f1(totals[0]), f1(totals[1]), attaches.to_string()],
            &widths,
        );
    }
}
