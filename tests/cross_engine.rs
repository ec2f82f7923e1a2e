//! Cross-crate integration: the three systems — Baseline, DBMS X (Baseline's
//! staged engine on the 2Q pool) and QPipe w/OSP — must answer the full
//! TPC-H query mix under concurrency as the iterator engine, the test oracle
//! only, does, and the sharing metrics must tell the expected story.

mod common;

use common::assert_rows_equivalent;
use qpipe::prelude::*;
use qpipe::workloads::harness::{await_idle, open_loop, Driver, System, SystemProfile};
use qpipe::workloads::tpch::{build_tpch, query, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn driver(system: System) -> Driver {
    Driver::build(system, SystemProfile::instant(), |c| build_tpch(c, TpchScale::tiny(), 99))
        .unwrap()
}

/// Run `plans` concurrently on `d`'s engine, each drained on its own
/// thread, and check every answer against the oracle's over `d`'s catalog.
fn assert_concurrent_answers_match_oracle(d: &Driver, plans: &[PlanNode]) {
    let ctx = ExecContext::new(d.catalog().clone());
    let expected: Vec<Vec<Tuple>> =
        plans.iter().map(|p| qpipe::exec::iter::run(p, &ctx).unwrap()).collect();
    let handles: Vec<QueryHandle> =
        plans.iter().map(|p| d.engine().submit(p.clone()).unwrap()).collect();
    let answers: Vec<Vec<Tuple>> = std::thread::scope(|s| {
        let threads: Vec<_> =
            handles.into_iter().map(|h| s.spawn(move || h.try_collect().unwrap())).collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (i, (got, want)) in answers.into_iter().zip(expected).enumerate() {
        assert_rows_equivalent(got, want, &format!("{} query {i}", d.system.label()));
    }
}

#[test]
fn full_mix_identical_across_systems() {
    let mut rng = StdRng::seed_from_u64(5);
    let plans: Vec<PlanNode> = MIX.iter().map(|&q| query(q, &mut rng)).collect();
    for system in [System::DbmsX, System::Baseline, System::QPipeOsp] {
        assert_concurrent_answers_match_oracle(&driver(system), &plans);
    }
}

#[test]
fn identical_query_burst_shares_and_matches() {
    let mut rng = StdRng::seed_from_u64(11);
    let plan = query(6, &mut rng);
    let d = driver(System::QPipeOsp);
    let engine = d.engine();
    let reference = engine.submit(plan.clone()).unwrap().try_collect().unwrap();
    let before = d.metrics().snapshot();
    // Every scan of the burst waits at lineitem's lock, so all four queries
    // are in flight together before any reads a page: the overlap holds by
    // construction, not by timing.
    let lock = d.catalog().locks().lock_exclusive("lineitem");
    let burst: Vec<_> = (0..4).map(|_| engine.submit(plan.clone()).unwrap()).collect();
    drop(lock);
    for (i, handle) in burst.into_iter().enumerate() {
        assert_rows_equivalent(
            handle.try_collect().unwrap(),
            reference.clone(),
            &format!("query {i}"),
        );
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
    let b = open_loop(&base, mk_plans(), 0.0, scale).all_completed().unwrap();
    let osp = driver(System::QPipeOsp);
    let o = open_loop(&osp, mk_plans(), 0.0, scale).all_completed().unwrap();
    assert_eq!(b.row_counts(), o.row_counts());
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
    let plans = [three_way_join(0, 3), three_way_join(0, 7)];
    for system in [System::DbmsX, System::Baseline, System::QPipeOsp] {
        assert_concurrent_answers_match_oracle(&build(system), &plans);
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
        let r = open_loop(&d, plans, 0.0, scale).all_completed().unwrap();
        assert_eq!(r.row_counts().len(), 6, "round {round}");
        assert_eq!(await_idle(d.engine()), Vec::<String>::new(), "round {round}");
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
