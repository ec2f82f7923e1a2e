//! Figure 8: total disk blocks read for 2/4/8 concurrent clients running
//! TPC-H Query 6, varying interarrival time (0–100 paper seconds), for
//! Baseline vs QPipe w/OSP.
//!
//! Paper result: the Baseline only shares via buffer-pool timing, so blocks
//! read grow with interarrival time and plateau at clients × table size;
//! QPipe w/OSP keeps the curve near one table read until the interarrival
//! time exceeds a single scan's duration. At 20 s interarrival the paper
//! saves up to 63% of I/O.

use qpipe_bench::{print_header, print_row, profile, thousands, tpch_driver};
use qpipe_workloads::harness::{open_loop, System};
use qpipe_workloads::tpch::q6;

fn main() {
    let scale = profile().time_scale;
    let interarrivals = [0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0];
    println!("Figure 8: total disk blocks read — TPC-H Q6, varying interarrival time\n");
    for clients in [2usize, 4, 8] {
        println!("== {clients} clients ==");
        let widths = [14, 16, 16, 10];
        print_header(&["interarrival_s", "Baseline", "QPipe w/OSP", "saved_%"], &widths);
        for ia in interarrivals {
            let mut blocks = Vec::new();
            for system in [System::Baseline, System::QPipeOsp] {
                let driver = tpch_driver(system).expect("build driver");
                // Distinct qgen-style predicates per client (same table).
                let plans: Vec<_> = (0..clients)
                    .map(|c| q6((c as i32 * 137) % 1800, 0.02 + 0.01 * c as f64, 30 + c as i64))
                    .collect();
                let r = open_loop(&driver, plans, ia, scale).all_completed().expect("run");
                blocks.push(r.delta.disk_blocks_read);
            }
            let saved = 100.0 * (1.0 - blocks[1] as f64 / blocks[0].max(1) as f64);
            print_row(
                &[
                    format!("{ia:.0}"),
                    thousands(blocks[0]),
                    thousands(blocks[1]),
                    format!("{saved:.0}"),
                ],
                &widths,
            );
        }
        println!();
    }
}
