//! CI parallel-smoke: a long open-loop burst exercising the on-demand
//! µEngine packet pools and the circular scanner threads under a wall-clock
//! bound.
//!
//! Run by the `parallel-smoke` CI job. Exits non-zero when the pool layer
//! misbehaves:
//!
//! * every arrival settles (completed + rejected = submitted),
//! * zero worker panics across the whole burst (fault-free run),
//! * the packet pools accumulated busy time,
//! * admission slots and memory leases return to baseline.
//!
//! Also prints the burst's p50/p95/p99 response latency, so the job's log
//! doubles as a quick latency regression eyeball.

use qpipe_core::admit::AdmitConfig;
use qpipe_core::engine::QPipeConfig;
use qpipe_workloads::harness::{open_loop, Driver, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch, query, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let queries = 480;
    let config = QPipeConfig {
        admit: AdmitConfig { max_queued: 600, ..AdmitConfig::default() },
        ..QPipeConfig::default()
    };
    let profile = SystemProfile::instant();
    let driver = Driver::build_with_config(System::QPipeOsp, profile, config, |c| {
        build_tpch(c, TpchScale::tiny(), 1)
    })
    .expect("build driver");

    let mut rng = StdRng::seed_from_u64(0x9A7A11E1);
    let plans = (0..queries).map(|i| query(MIX[i % MIX.len()], &mut rng)).collect();
    let r = open_loop(&driver, plans, 0.5, profile.time_scale);

    let engine = driver.engine().expect("staged driver");
    let gov = engine.governor();
    let admit = engine.admission();
    let mut failures = Vec::new();
    if r.completed + r.rejected != queries as u64 {
        failures.push(format!(
            "unsettled arrivals: completed {} + rejected {} != {queries}",
            r.completed, r.rejected
        ));
    }
    if r.completed == 0 {
        failures.push("no query completed".into());
    }
    if r.delta.worker_panics != 0 {
        failures.push(format!(
            "{} worker panic(s) caught during a fault-free run",
            r.delta.worker_panics
        ));
    }
    if r.delta.worker_busy_ns == 0 {
        failures.push("pool workers accumulated no busy time".into());
    }
    for (name, _) in admit.peaks() {
        if admit.in_flight(name) != 0 {
            failures.push(format!("µEngine {name} slots not returned to baseline"));
        }
    }
    for _ in 0..500 {
        if gov.in_use() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    if gov.in_use() != 0 {
        failures.push(format!("{} memory units still leased", gov.in_use()));
    }

    println!(
        "parallel-smoke: {} submitted, {} completed, {} rejected; \
         pool queue depth peak {}, {} scan pages claimed, {:.1} ms worker busy",
        queries,
        r.completed,
        r.rejected,
        r.delta.pool_queue_depth,
        r.delta.morsels_dispatched,
        r.delta.worker_busy_ns as f64 / 1e6,
    );
    let l = r.latency();
    println!(
        "  latency: {} completed, p50 {:.1}s / p95 {:.1}s / p99 {:.1}s (paper time)",
        l.count,
        l.p50 as f64 / 1e6,
        l.p95 as f64 / 1e6,
        l.p99 as f64 / 1e6,
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("parallel-smoke: OK");
}
