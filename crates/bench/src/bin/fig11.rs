//! Figure 11: sharing the build phase of a hash join. Two instances of
//! TPC-H Q4 implemented with a hybrid hash join, submitted at increasing
//! intervals; total response time for Baseline vs QPipe w/OSP.
//!
//! Paper result: the build phase is a full overlap, so while the first
//! query is still building (or before the probe emits its first tuples) the
//! second query shares the entire join; after that window closes it still
//! shares the in-progress LINEITEM scan, so w/OSP stays below Baseline until
//! the curves converge past the query duration.
//!
//! The `interarrival_s = 0` row swings about 2× between runs of one build
//! (Baseline read 73.2, 39.9, 34.0 and 35.8 paper s over four runs), while the
//! rows at 20 s and beyond move a few percent: judge that row over several
//! runs per commit, alternating commits.

use qpipe_bench::{f1, print_header, print_row, profile, tpch_driver};
use qpipe_workloads::harness::{open_loop, System};
use qpipe_workloads::tpch::{q4, JoinFlavor};

fn main() {
    let scale = profile().time_scale;
    println!("Figure 11: total response time (paper s) — 2 x Q4 (hash-join plan)\n");
    let widths = [14, 12, 14, 12];
    print_header(&["interarrival_s", "Baseline", "QPipe w/OSP", "attaches"], &widths);
    for ia in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0] {
        let mut totals = Vec::new();
        let mut attaches = 0;
        for system in [System::Baseline, System::QPipeOsp] {
            let driver = tpch_driver(system).expect("build driver");
            let plans = vec![q4(400, JoinFlavor::Hash), q4(400, JoinFlavor::Hash)];
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
