//! Figure 9: sharing order-sensitive clustered index scans. Two instances of
//! TPC-H Q4 implemented with a merge join over ordered scans of ORDERS and
//! LINEITEM, submitted at increasing intervals; total response time for
//! Baseline vs QPipe w/OSP.
//!
//! Paper result: although the ordered scans have spike overlap, the
//! merge-join's parent (an aggregate) is order-insensitive, so QPipe attaches
//! the second query's large scan to the one in progress and performs two
//! merge joins (re-reading the small side). The w/OSP curve stays well below
//! the Baseline until the interarrival exceeds the query duration.

use qpipe_bench::{f1, print_header, print_row, profile, tpch_driver};
use qpipe_workloads::harness::{open_loop, System};
use qpipe_workloads::tpch::{q4, JoinFlavor};

fn main() {
    let scale = profile().time_scale;
    println!("Figure 9: total response time (paper s) — 2 x Q4 (merge-join plan)\n");
    let widths = [14, 12, 14, 12];
    print_header(&["interarrival_s", "Baseline", "QPipe w/OSP", "attaches"], &widths);
    for ia in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0] {
        let mut totals = Vec::new();
        let mut attaches = 0;
        for system in [System::Baseline, System::QPipeOsp] {
            let driver = tpch_driver(system).expect("build driver");
            let plans = vec![q4(400, JoinFlavor::Merge), q4(700, JoinFlavor::Merge)];
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
