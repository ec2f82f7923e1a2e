//! CI stress-smoke: an open-loop multi-client burst against a small TPC-H
//! catalog under a deliberately tight admission + memory configuration.
//!
//! Run by the `stress-smoke` CI job under a wall-clock bound (`timeout`).
//! Exits non-zero when any oversubscription invariant breaks:
//!
//! * every arrival settles (completed + rejected = submitted),
//! * no µEngine ever runs more than `queue_depth` queries concurrently,
//! * governor-granted memory never exceeds the global budget,
//! * all admission slots and memory leases return to baseline.

use qpipe_core::admit::AdmitConfig;
use qpipe_core::engine::QPipeConfig;
use qpipe_exec::iter::ExecConfig;
use qpipe_workloads::harness::{open_loop, Driver, System, SystemProfile};
use qpipe_workloads::tpch::{build_tpch, query, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let depth = 3;
    let global_mem = 16 * 1024;
    let queries = 48;
    let config = QPipeConfig {
        exec: ExecConfig {
            sort_budget: 2048,
            hash_budget: 2048,
            global_budget: global_mem,
            tracing: true,
            ..ExecConfig::default()
        },
        admit: AdmitConfig { queue_depth: depth, max_queued: 40, ..AdmitConfig::default() },
        ..QPipeConfig::default()
    };
    let profile = SystemProfile::instant();
    let driver = Driver::build_with_config(System::QPipeOsp, profile, config, |c| {
        build_tpch(c, TpchScale::tiny(), 1)
    })
    .expect("build driver");

    let mut rng = StdRng::seed_from_u64(0x57E55);
    let plans = (0..queries).map(|i| query(MIX[i % MIX.len()], &mut rng)).collect();
    let r = open_loop(&driver, plans, 2.0, profile.time_scale);

    let engine = driver.engine().expect("staged driver");
    let gov = engine.governor();
    let admit = engine.admission();
    let mut failures = Vec::new();
    if r.completed + r.rejected != queries as u64 {
        failures.push(format!(
            "unsettled arrivals: completed {} + rejected {} != {queries} ({:?})",
            r.completed, r.rejected, r.outcomes
        ));
    }
    if r.completed == 0 {
        failures.push("no query completed".into());
    }
    for (name, peak) in admit.peaks() {
        if peak > depth {
            failures.push(format!("µEngine {name} ran {peak} > depth {depth} concurrently"));
        }
        if admit.in_flight(name) != 0 {
            failures.push(format!("µEngine {name} slots not returned to baseline"));
        }
    }
    if admit.queue_len() != 0 {
        failures.push(format!("{} tickets left waiting", admit.queue_len()));
    }
    // Worker threads may outlive result delivery briefly.
    for _ in 0..500 {
        if gov.in_use() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    if gov.in_use() != 0 {
        failures.push(format!("{} memory units still leased", gov.in_use()));
    }
    if gov.peak() > global_mem as u64 {
        failures
            .push(format!("granted memory peaked at {} > global budget {global_mem}", gov.peak()));
    }
    // No faults are injected here, so any caught panic is a genuine operator
    // bug that containment masked into a query failure — fail loudly.
    if r.delta.worker_panics != 0 {
        failures.push(format!(
            "{} worker panic(s) caught during a fault-free run",
            r.delta.worker_panics
        ));
    }

    println!(
        "stress-smoke: {} submitted, {} completed, {} rejected, {} queued; \
         governor peak {}/{} units, {} grants denied",
        queries,
        r.completed,
        r.rejected,
        r.delta.queued,
        gov.peak(),
        global_mem,
        r.delta.mem_waited,
    );
    let mut peaks: Vec<_> = admit.peaks().into_iter().collect();
    peaks.sort();
    for (name, peak) in peaks {
        println!("  µEngine {name:>10}: peak {peak}/{depth} concurrent queries");
    }
    println!(
        "  pools: queue depth peak {}, {} scan pages claimed, {:.1} ms worker busy",
        r.delta.pool_queue_depth,
        r.delta.morsels_dispatched,
        r.delta.worker_busy_ns as f64 / 1e6,
    );
    let mut busy: Vec<_> = r.delta.per_engine_busy_ns.iter().collect();
    busy.sort();
    for (name, ns) in busy {
        println!("  pool {name:>10}: {:.1} ms busy", *ns as f64 / 1e6);
    }
    let l = r.latency();
    println!(
        "  latency: {} completed, p50 {:.1}s / p95 {:.1}s / p99 {:.1}s (paper time)",
        l.count,
        l.p50 as f64 / 1e6,
        l.p95 as f64 / 1e6,
        l.p99 as f64 / 1e6,
    );
    // Wiring regression guard: a recorded histogram whose percentiles read
    // zero means a record site went dead or the snapshot plumbing broke.
    for (name, h) in driver.metrics().snapshot().histograms() {
        if h.count > 0 && (h.p50 == 0 || h.p95 == 0 || h.p99 == 0) {
            failures.push(format!(
                "histogram {name} has count {} but a zero percentile (p50 {} p95 {} p99 {})",
                h.count, h.p50, h.p95, h.p99
            ));
        }
    }
    println!("--- metrics ---");
    print!("{}", driver.metrics().render_text());
    for journal in &r.failed_journals {
        eprintln!("--- failed-query journal ---\n{journal}");
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("stress-smoke: OK");
}
