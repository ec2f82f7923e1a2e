//! Ablation studies for three design choices:
//!
//! 1. **Buffer-pool policy** under the Figure-8 workload: Baseline (LRU)
//!    against DBMS X, which is Baseline's engine on the 2Q pool — so the
//!    two rows differ in the replacement policy alone. Does the
//!    Baseline/DBMS-X gap really come from the replacement policy?
//! 2. **Pipe capacity** (how much queue space does simultaneous pipelining
//!    need before the slowest-consumer coupling stops hurting?), with the
//!    hosts' replay history — the buffering WoP enhancement — sized to match.
//!    Capacity counts batches of `ColBatch::DEFAULT_CAPACITY` rows, so each
//!    row also shows the rows in flight and marks the default depth.
//! 3. **Circular scans on/off** (OSP with sharing restricted to stateful
//!    operators only — isolates how much of the win is scan sharing).
//!
//! Every system is built through `Driver`.

use qpipe_bench::{f1, print_header, print_row, profile, thousands, tpch_driver};
use qpipe_common::{ColBatch, QResult};
use qpipe_core::engine::QPipeConfig;
use qpipe_core::pipe::PipeConfig;
use qpipe_exec::plan::PlanNode;
use qpipe_workloads::harness::{open_loop, Driver, System};
use qpipe_workloads::tpch::{build_tpch, q4, q6, JoinFlavor, TpchScale};

/// Client `c`'s Q6 in Ablations 1 and 3.
fn q6_client(c: usize) -> PlanNode {
    q6((c as i32 * 137) % 1800, 0.02 + 0.01 * c as f64, 30 + c as i64)
}

fn pool_policy_ablation() -> QResult<()> {
    println!("Ablation 1: buffer-pool replacement policy, Baseline engine,");
    println!("4 clients x Q6 at 30s interarrival (Figure 8 workload)\n");
    let scale = profile().time_scale;
    let widths = [10, 14, 12];
    print_header(&["policy", "blocks read", "hit ratio"], &widths);
    for (policy, system) in [("Lru", System::Baseline), ("TwoQ", System::DbmsX)] {
        let driver = tpch_driver(system)?;
        let r = open_loop(&driver, (0..4).map(q6_client).collect(), 30.0, scale).all_completed()?;
        print_row(
            &[
                policy.to_string(),
                thousands(r.delta.disk_blocks_read),
                format!("{:.2}", r.delta.bp_hit_ratio()),
            ],
            &widths,
        );
    }
    println!();
    Ok(())
}

fn pipe_capacity_ablation() -> QResult<()> {
    println!("Ablation 2: intermediate-buffer capacity (batches/consumer),");
    println!("2 x Q4 hash-join plan at 20s interarrival, QPipe w/OSP\n");
    let prof = profile();
    let default = PipeConfig::default().capacity;
    let widths = [14, 16, 16, 10];
    print_header(&["capacity", "rows in flight", "total time (s)", "attaches"], &widths);
    for capacity in [1usize, 2, 4, 8, 16, 64] {
        let config = QPipeConfig { pipe: PipeConfig { capacity }, ..QPipeConfig::default() };
        let driver = Driver::build_with_config(System::QPipeOsp, prof, config, |c| {
            build_tpch(c, TpchScale::experiment(), 20050614)
        })?;
        let plans = vec![q4(400, JoinFlavor::Hash), q4(400, JoinFlavor::Hash)];
        let r = open_loop(&driver, plans, 20.0, prof.time_scale).all_completed()?;
        let mark = if capacity == default { " (default)" } else { "" };
        print_row(
            &[
                format!("{capacity}{mark}"),
                thousands((capacity * ColBatch::DEFAULT_CAPACITY) as u64),
                f1(r.elapsed_paper_secs),
                r.delta.osp_attaches.to_string(),
            ],
            &widths,
        );
    }
    println!();
    Ok(())
}

fn scan_sharing_ablation() -> QResult<()> {
    println!("Ablation 3: contribution of circular-scan sharing,");
    println!("4 clients x Q6 at 20s interarrival\n");
    let prof = profile();
    let widths = [26, 14, 16];
    print_header(&["configuration", "blocks read", "total time (s)"], &widths);
    for (label, system) in
        [("Baseline (no sharing)", System::Baseline), ("QPipe w/OSP", System::QPipeOsp)]
    {
        let driver = tpch_driver(system)?;
        let r = open_loop(&driver, (0..4).map(q6_client).collect(), 20.0, prof.time_scale)
            .all_completed()?;
        print_row(
            &[label.to_string(), thousands(r.delta.disk_blocks_read), f1(r.elapsed_paper_secs)],
            &widths,
        );
    }
    println!("(Q6 is scan-only, so the Baseline→OSP delta here *is* the circular-scan win;");
    println!(" stateful-operator sharing is isolated by fig10/fig11.)");
    Ok(())
}

fn main() -> QResult<()> {
    pool_policy_ablation()?;
    pipe_capacity_ablation()?;
    scan_sharing_ablation()
}
