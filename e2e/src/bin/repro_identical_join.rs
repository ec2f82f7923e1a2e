//! Reproducer for a finding on the seed (see README.md, "Findings on the
//! seed"); not part of `run.sh`.
//!
//! Two clients repeatedly submit the *same* two-table join at the same time.
//! About once per 1–3 thousand submissions both in-flight copies fail with
//! `execution error: join key 0 out of range`. The benchmark's pools never
//! hold two identical queries, which is why its workloads do not hit this.
//!
//! Exits 1 when the failure reproduced, 0 when `LIMIT` submissions passed.

use qpipe_core::QueryClass;
use qpipe_e2e::workload::{Workload, CLIENTS};
use qpipe_planner::PlannerOptions;
use qpipe_workloads::harness::System;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

const SQL: &str = "SELECT n_name, COUNT(*) FROM nation, region \
                   WHERE n_regionkey = r_regionkey AND r_regionkey = 4 GROUP BY n_name";
/// Submissions per client before giving up.
const LIMIT: usize = 20_000;

fn main() {
    // Tracing on, so that a failed query's journal can be printed.
    let driver = Workload::SqlShort.boot(System::QPipeOsp, true).expect("boot the engine");
    let failed = AtomicBool::new(false);
    let submitted = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (driver, failed, submitted, barrier) = (&driver, &failed, &submitted, &barrier);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..LIMIT {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let n = submitted.fetch_add(1, Ordering::Relaxed) + 1;
                    let handle = driver
                        .submit_sql(SQL, QueryClass::Interactive, &PlannerOptions::default())
                        .expect("staged driver");
                    let handle = match handle {
                        Ok(handle) => handle,
                        Err(e) => {
                            failed.store(true, Ordering::Relaxed);
                            println!("client {client}: submission {n} refused: {e}");
                            break;
                        }
                    };
                    let journal = handle.trace();
                    if let Err(e) = handle.try_collect() {
                        failed.store(true, Ordering::Relaxed);
                        println!("client {client}: submission {n} failed: {e}");
                        if let Some(journal) = journal {
                            println!("{}", journal.render());
                        }
                    }
                }
            });
        }
    });
    let total = submitted.load(Ordering::Relaxed);
    if failed.load(Ordering::Relaxed) {
        println!("reproduced after {total} submissions of:\n  {SQL}");
        std::process::exit(1);
    }
    println!("not reproduced in {total} submissions");
}
