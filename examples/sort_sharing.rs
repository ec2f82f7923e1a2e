//! Work sharing beyond scans: two reporting queries that sort the same big
//! joined input but filter a small dimension differently. QPipe shares the
//! expensive sorts (full-overlap window) between them — the Figure 10 effect.
//!
//! ```sh
//! cargo run --release --example sort_sharing
//! ```

use qpipe_common::QResult;
use qpipe_workloads::harness::{open_loop, Driver, System, SystemProfile};
use qpipe_workloads::wisconsin::{build_wisconsin, three_way_join, WisconsinScale};

fn main() -> QResult<()> {
    let profile = SystemProfile::experiment();
    println!("Two 3-way sort-merge join queries, second submitted 20 paper-s after the first.\n");
    println!(
        "{:<14} {:>18} {:>14} {:>14}",
        "system", "total time (s)", "blocks read", "osp attaches"
    );
    println!("{}", "-".repeat(64));
    for system in [System::Baseline, System::QPipeOsp] {
        let driver =
            Driver::build(system, profile, |c| build_wisconsin(c, WisconsinScale::experiment()))?;
        // Same BIG1/BIG2 predicates; different SMALL predicate.
        let plans = vec![three_way_join(0, 3), three_way_join(0, 7)];
        let r = open_loop(&driver, plans, 20.0, profile.time_scale).all_completed()?;
        println!(
            "{:<14} {:>18.1} {:>14} {:>14}",
            system.label(),
            r.elapsed_paper_secs,
            r.delta.disk_blocks_read,
            r.delta.osp_attaches
        );
    }
    println!("\nQPipe w/OSP shares the BIG1/BIG2 sorts between the two queries;");
    println!("the Baseline runs every operator twice.");
    Ok(())
}
