//! CI planner-fuzz-smoke: seeded random SQL against the front end.
//!
//! Run by the `planner-fuzz-smoke` CI job under a wall-clock bound
//! (`timeout`). Two passes, both fully deterministic in the seed:
//!
//! * **Structured pass** — random TPC-H-shaped queries with random
//!   parameters. Each must plan `Ok`; two independently shuffled phrasings
//!   must land on the canonical plan's signature; a sample executes and the
//!   phrasings must agree on row count.
//! * **Mutation pass** — canonical query text mangled byte-wise (truncated,
//!   spliced, overwritten). Each mutant must yield `Ok` or a clean
//!   `Err` — never a panic (`catch_unwind` holds the line).
//!
//! Exits non-zero on any violation.

use qpipe_common::Metrics;
use qpipe_exec::iter::{run as exec_run, ExecContext};
use qpipe_planner::{plan_sql, PlannerOptions};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
use qpipe_workloads::sql::random_shape;
use qpipe_workloads::tpch::{build_tpch, TpchScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SEED: u64 = 0xF0_22;
const STRUCTURED: usize = 250;
const EXEC_EVERY: usize = 10;
const MUTANTS: usize = 600;

/// Byte-level mutations over ASCII query text (our generators emit ASCII
/// only, so the mutants stay valid UTF-8).
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let garbage = b"()'%,.<>=*;#\0 SELECTFROMWHEREANDORIN0123456789";
    for _ in 0..rng.gen_range(1..=4usize) {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0..4u32) {
            // Truncate.
            0 => bytes.truncate(rng.gen_range(0..bytes.len())),
            // Delete a span.
            1 => {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..=8.min(bytes.len() - at));
                bytes.drain(at..at + len);
            }
            // Overwrite one byte.
            2 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = garbage[rng.gen_range(0..garbage.len())];
            }
            // Duplicate a span somewhere else.
            _ => {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(1..=8.min(bytes.len() - at));
                let span: Vec<u8> = bytes[at..at + len].to_vec();
                let dst = rng.gen_range(0..=bytes.len());
                bytes.splice(dst..dst, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn main() {
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(512, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);
    build_tpch(&catalog, TpchScale::tiny(), 42).expect("load tpch");
    let ctx = ExecContext::new(catalog.clone());
    let opts = PlannerOptions;
    let mut rng = StdRng::seed_from_u64(SEED);

    // Structured pass.
    let mut executed = 0usize;
    for i in 0..STRUCTURED {
        let shape = random_shape(&mut rng);
        let canon_text = shape.canonical();
        let canon = plan_sql(catalog.as_ref(), &canon_text, &opts)
            .unwrap_or_else(|e| panic!("canonical text must plan: {canon_text}: {e}"));
        let mut rows_expected: Option<usize> = None;
        if i % EXEC_EVERY == 0 {
            let rows = exec_run(&canon.plan, &ctx)
                .unwrap_or_else(|e| panic!("canonical plan must execute: {canon_text}: {e}"));
            rows_expected = Some(rows.len());
            executed += 1;
        }
        for _ in 0..2 {
            let variant = shape.shuffled(&mut rng);
            let vp = plan_sql(catalog.as_ref(), &variant, &opts)
                .unwrap_or_else(|e| panic!("shuffled text must plan: {variant}: {e}"));
            assert_eq!(
                vp.signature, canon.signature,
                "phrasings must share a signature:\n  {canon_text}\n  {variant}"
            );
            if let Some(expected) = rows_expected {
                let rows = exec_run(&vp.plan, &ctx)
                    .unwrap_or_else(|e| panic!("shuffled plan must execute: {variant}: {e}"));
                assert_eq!(rows.len(), expected, "row count diverged: {variant}");
                executed += 1;
            }
        }
    }

    // Mutation pass: Ok or Err, never a panic.
    let mut planned_ok = 0usize;
    for _ in 0..MUTANTS {
        let mutant = mutate(&random_shape(&mut rng).canonical(), &mut rng);
        let catalog = Arc::clone(&catalog);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            plan_sql(catalog.as_ref(), &mutant, &opts).map(|p| p.signature)
        }));
        match outcome {
            Ok(Ok(_)) => planned_ok += 1,
            Ok(Err(_)) => {}
            Err(_) => {
                eprintln!("FAIL: planner panicked on mutant: {mutant:?}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "planner fuzz OK: {STRUCTURED} structured shapes ({} executions), \
         {MUTANTS} mutants ({planned_ok} still planned clean)",
        executed
    );
}
