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
//! * admission slots, queued tickets, memory leases and spill run files
//!   return to idle,
//! * no recorded histogram reads a zero percentile.
//!
//! Also prints the burst's p50/p95/p99 response latency, so the job's log
//! doubles as a quick latency regression eyeball.

use qpipe_core::admit::AdmitConfig;
use qpipe_core::engine::QPipeConfig;
use qpipe_workloads::harness::{await_idle, open_loop, Driver, System, SystemProfile};
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
    let leftovers = await_idle(driver.engine());

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
    qpipe_bench::end_smoke("parallel-smoke", &r, &driver, leftovers, failures);
}
