//! Ablation studies for three design choices:
//!
//! 1. **Buffer-pool policy** under the Figure-8 workload: the Baseline engine
//!    on each of the two policies the systems run — LRU (QPipe, Baseline)
//!    and 2Q (DBMS X). Does the Baseline/DBMS-X gap really come from the
//!    replacement policy?
//! 2. **Pipe capacity** (how much queue space does simultaneous pipelining
//!    need before the slowest-consumer coupling stops hurting?), with the
//!    hosts' replay history — the buffering WoP enhancement — sized to match.
//! 3. **Circular scans on/off** (OSP with sharing restricted to stateful
//!    operators only — isolates how much of the win is scan sharing).

use qpipe_bench::{f1, print_header, print_row, profile, thousands};
use qpipe_common::{Metrics, QResult};
use qpipe_core::engine::{QPipe, QPipeConfig};
use qpipe_core::pipe::PipeConfig;
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, PolicyKind, SimDisk};
use qpipe_workloads::harness::{staggered_run, Driver, System};
use qpipe_workloads::tpch::{build_tpch, q4, q6, JoinFlavor, TpchScale};
use std::sync::Arc;

/// A staged engine over an experiment-scale TPC-H catalog whose pool runs
/// `policy`, plus the metrics its disk and pool report to.
fn tpch_engine(policy: PolicyKind, config: QPipeConfig) -> QResult<(Arc<QPipe>, Metrics)> {
    let prof = profile();
    let metrics = Metrics::new();
    let disk = SimDisk::new(prof.disk, metrics.clone());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(prof.pool_pages, policy));
    let catalog = Catalog::new(disk, pool);
    build_tpch(&catalog, TpchScale::experiment(), 20050614)?;
    Ok((QPipe::new(catalog, config), metrics))
}

fn pool_policy_ablation() -> QResult<()> {
    println!("Ablation 1: buffer-pool replacement policy, Baseline engine,");
    println!("4 clients x Q6 at 30s interarrival (Figure 8 workload)\n");
    let scale = profile().time_scale;
    let widths = [10, 14, 12];
    print_header(&["policy", "blocks read", "hit ratio"], &widths);
    for policy in [PolicyKind::Lru, PolicyKind::TwoQ] {
        let (engine, metrics) = tpch_engine(policy, QPipeConfig::baseline())?;
        let before = metrics.snapshot();
        // Client c submits at c × 30 paper seconds, as `staggered_run` does.
        let runs: Vec<QResult<usize>> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..4)
                .map(|c| {
                    let engine = &engine;
                    s.spawn(move || {
                        std::thread::sleep(scale.to_real(30.0 * c as f64));
                        let plan = q6((c * 137) % 1800, 0.02 + 0.01 * c as f64, 30 + c as i64);
                        engine.submit(plan).map(|h| h.collect().len())
                    })
                })
                .collect();
            clients.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        runs.into_iter().collect::<QResult<Vec<_>>>()?;
        let delta = metrics.snapshot().delta_since(&before);
        print_row(
            &[
                format!("{policy:?}"),
                thousands(delta.disk_blocks_read),
                format!("{:.2}", delta.bp_hit_ratio()),
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
    let widths = [10, 16, 10];
    print_header(&["capacity", "total time (s)", "attaches"], &widths);
    for capacity in [1usize, 2, 4, 8, 16, 64] {
        let config = QPipeConfig { pipe: PipeConfig { capacity }, ..QPipeConfig::default() };
        let (engine, metrics) = tpch_engine(PolicyKind::Lru, config)?;
        let before = metrics.snapshot();
        let start = std::time::Instant::now();
        let h1 = engine.submit(q4(400, JoinFlavor::Hash))?;
        let e2 = engine.clone();
        let t2 = std::thread::spawn(move || {
            std::thread::sleep(prof.time_scale.to_real(20.0));
            e2.submit(q4(400, JoinFlavor::Hash)).map(|h| h.collect().len())
        });
        h1.collect();
        t2.join().expect("client thread")?;
        let total = prof.time_scale.to_paper(start.elapsed());
        let delta = metrics.snapshot().delta_since(&before);
        print_row(&[capacity.to_string(), f1(total), delta.osp_attaches.to_string()], &widths);
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
        let driver =
            Driver::build(system, prof, |c| build_tpch(c, TpchScale::experiment(), 20050614))?;
        let plans: Vec<_> =
            (0..4).map(|c| q6((c * 137) % 1800, 0.02 + 0.01 * c as f64, 30 + c as i64)).collect();
        let r = staggered_run(&driver, plans, 20.0, prof.time_scale)?;
        print_row(
            &[label.to_string(), thousands(r.delta.disk_blocks_read), f1(r.total_paper_secs)],
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
