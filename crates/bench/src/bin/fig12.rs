//! Figures 1b / 12: TPC-H throughput (queries per paper-hour) for 1–12
//! concurrent clients with zero think time, running a random mix of TPC-H
//! queries {1, 4, 6, 8, 12, 13, 14, 19} with qgen-randomized predicates, on
//! DBMS X vs Baseline vs QPipe w/OSP.
//!
//! Paper result: all three are disk-bound and equal at 1 client; beyond ~6
//! clients DBMS X saturates while QPipe w/OSP keeps scaling to ≈2x X;
//! Baseline trails X (X's buffer pool shares better than BerkeleyDB's LRU).
//! Our DBMS X is Baseline's engine on the 2Q pool, so the two differ in
//! buffer management alone — the paper's explanation of the gap.

use qpipe_bench::{f1, print_header, print_row, profile, tpch_driver};
use qpipe_workloads::harness::{closed_loop, System};
use qpipe_workloads::tpch::{query, MIX};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = profile().time_scale;
    let duration_paper = 2400.0;
    println!("Figure 12: TPC-H mix throughput (queries/hour, paper time), zero think time\n");
    let widths = [8, 12, 12, 14];
    print_header(&["clients", "DBMS X", "Baseline", "QPipe w/OSP"], &widths);
    for clients in 1..=12usize {
        let mut qph = Vec::new();
        for system in [System::DbmsX, System::Baseline, System::QPipeOsp] {
            let driver = tpch_driver(system).expect("build driver");
            let r = closed_loop(
                &driver,
                &|client, iteration| {
                    let seed = (client as u64) * 1_000_003 + iteration * 7919;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let q = MIX[(seed % MIX.len() as u64) as usize];
                    query(q, &mut rng)
                },
                clients,
                duration_paper,
                0.0,
                scale,
            );
            qph.push(r.qph);
        }
        print_row(&[clients.to_string(), f1(qph[0]), f1(qph[1]), f1(qph[2])], &widths);
    }
}
