//! Cross-crate integration: the three systems (DBMS X stand-in, Baseline,
//! QPipe w/OSP) must produce identical answers for the full TPC-H query mix
//! under concurrency, and the sharing metrics must tell the expected story.

mod common;

use common::assert_rows_equivalent;
use qpipe::prelude::*;
use qpipe::workloads::harness::{staggered_run, Driver, System, SystemProfile};
use qpipe::workloads::tpch::{build_tpch, query, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn driver(system: System) -> Driver {
    Driver::build(system, SystemProfile::instant(), |c| build_tpch(c, TpchScale::tiny(), 99))
        .unwrap()
}

#[test]
fn full_mix_identical_across_systems() {
    let mut rng = StdRng::seed_from_u64(5);
    let plans: Vec<PlanNode> = MIX.iter().map(|&q| query(q, &mut rng)).collect();
    // Reference: conventional engine, sequential.
    let x = driver(System::DbmsX);
    let reference: Vec<usize> = plans.iter().map(|p| x.run(p.clone()).unwrap()).collect();
    for system in [System::Baseline, System::QPipeOsp] {
        let d = driver(system);
        let r = staggered_run(&d, plans.clone(), 0.0, SystemProfile::instant().time_scale).unwrap();
        assert_eq!(r.row_counts, reference, "{:?} row counts differ", system.label());
    }
}

#[test]
fn identical_query_burst_shares_and_matches() {
    let mut rng = StdRng::seed_from_u64(11);
    let plan = query(6, &mut rng);
    let d = driver(System::QPipeOsp);
    let engine = d.engine().expect("a QPipe driver has an engine");
    let reference = engine.submit(plan.clone()).unwrap().collect();
    let before = d.metrics().snapshot();
    // Every scan of the burst waits at lineitem's lock, so all four queries
    // are in flight together before any reads a page: the overlap holds by
    // construction, not by timing.
    let lock = d.catalog().locks().lock_exclusive("lineitem");
    let burst: Vec<_> = (0..4).map(|_| engine.submit(plan.clone()).unwrap()).collect();
    drop(lock);
    for (i, handle) in burst.into_iter().enumerate() {
        assert_rows_equivalent(handle.collect(), reference.clone(), &format!("query {i}"));
    }
    let delta = d.metrics().snapshot().delta_since(&before);
    assert!(delta.osp_attaches >= 3, "burst should share: {} attaches", delta.osp_attaches);
}

#[test]
fn osp_reduces_io_for_concurrent_scans() {
    // Same workload on Baseline vs OSP — OSP must read fewer or equal blocks.
    let mk_plans = || {
        let mut rng = StdRng::seed_from_u64(3);
        vec![query(6, &mut rng), query(6, &mut rng), query(6, &mut rng)]
    };
    let scale = SystemProfile::instant().time_scale;
    let base = driver(System::Baseline);
    // Stagger beyond pool-trailing distance (instant disk: any stagger works
    // because scans finish instantly; use 0 so both systems see a burst).
    let b = staggered_run(&base, mk_plans(), 0.0, scale).unwrap();
    let osp = driver(System::QPipeOsp);
    let o = staggered_run(&osp, mk_plans(), 0.0, scale).unwrap();
    assert_eq!(b.row_counts, o.row_counts);
    assert!(
        o.delta.disk_blocks_read <= b.delta.disk_blocks_read,
        "OSP {} blocks vs baseline {}",
        o.delta.disk_blocks_read,
        b.delta.disk_blocks_read
    );
}

#[test]
fn wisconsin_three_way_join_identical_across_systems() {
    use qpipe::workloads::wisconsin::{build_wisconsin, three_way_join, WisconsinScale};
    let build = |system| {
        Driver::build(system, SystemProfile::instant(), |c| {
            build_wisconsin(c, WisconsinScale::tiny())
        })
        .unwrap()
    };
    let x = build(System::DbmsX);
    let expected = x.run(three_way_join(0, 3)).unwrap();
    for system in [System::Baseline, System::QPipeOsp] {
        let d = build(system);
        let plans = vec![three_way_join(0, 3), three_way_join(0, 7)];
        let r = staggered_run(&d, plans, 0.0, SystemProfile::instant().time_scale).unwrap();
        assert_eq!(r.row_counts[0], expected, "{}", system.label());
    }
}

#[test]
fn repeated_bursts_keep_engine_healthy() {
    // Regression guard against leaked scan groups / stuck hosts: many rounds
    // of concurrent submissions on one engine instance.
    let d = driver(System::QPipeOsp);
    let scale = SystemProfile::instant().time_scale;
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..5 {
        let plans: Vec<PlanNode> = (0..6)
            .map(|_| {
                let q = MIX[rng.gen_range_usize(MIX.len())];
                query(q, &mut rng)
            })
            .collect();
        let r = staggered_run(&d, plans, 0.0, scale).unwrap();
        assert_eq!(r.row_counts.len(), 6, "round {round}");
    }
}

trait RngExt {
    fn gen_range_usize(&mut self, n: usize) -> usize;
}
impl RngExt for StdRng {
    fn gen_range_usize(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.gen_range(0..n)
    }
}
