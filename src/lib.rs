//! # qpipe — umbrella crate
//!
//! Rust reproduction of *QPipe: A Simultaneously Pipelined Relational Query
//! Engine* (Harizopoulos, Ailamaki, Shkapenyuk — SIGMOD 2005).
//!
//! This crate re-exports the workspace members under one roof and provides a
//! [`prelude`] plus a [`quick_system`] helper for getting an engine running
//! in a few lines. See the `examples/` directory for runnable walkthroughs
//! and `crates/bench` for the per-figure reproduction harnesses.
//!
//! ## Layered architecture
//!
//! * [`common`] — values, schemas, tuples, columnar batches, metrics,
//!   simulated time.
//! * [`storage`] — simulated disk, pages, heap files, buffer pool (LRU for
//!   QPipe and Baseline, 2Q for DBMS X), bulk-loaded indexes, catalog, table
//!   locks.
//! * [`exec`] — the conventional one-query-many-operators iterator engine
//!   (also the per-packet kernels inside µEngines).
//! * [`planner`] — SQL-ish front end and statistics-free greedy planner
//!   that canonicalizes plans so equivalent phrasings share signatures.
//! * [`core`] — the QPipe engine: µEngines, packets, pipes, OSP, circular
//!   scans, deadlock detection.
//! * [`workloads`] — TPC-H-style + Wisconsin generators, query plans, and
//!   the multi-client experiment harness.

pub use qpipe_common as common;
pub use qpipe_core as core;
pub use qpipe_exec as exec;
pub use qpipe_planner as planner;
pub use qpipe_storage as storage;
pub use qpipe_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use qpipe_common::{
        sim::TimeScale, ColBatch, DataType, FaultInjector, FaultKind, FaultOp, FaultRule,
        MemoryGovernor, Metrics, QError, QResult, Schema, Tuple, Value,
    };
    pub use qpipe_core::admit::AdmitConfig;
    pub use qpipe_core::engine::{QPipe, QPipeConfig, QueryHandle};
    pub use qpipe_exec::expr::Expr;
    pub use qpipe_exec::iter::{ExecConfig, ExecContext};
    pub use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
    pub use qpipe_planner::{plan_sql, PlannedQuery, PlannerOptions};
    pub use qpipe_storage::{
        BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk,
    };
}

use prelude::*;
use std::sync::Arc;

/// Build a ready-to-use storage stack: simulated disk (instant by default),
/// buffer pool, and catalog.
pub fn quick_system(disk_config: DiskConfig, pool_pages: usize) -> Arc<Catalog> {
    let disk = SimDisk::new(disk_config, Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(pool_pages, PolicyKind::Lru));
    Catalog::new(disk, pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_system_boots_an_engine() {
        let catalog = quick_system(DiskConfig::instant(), 64);
        catalog
            .create_table(
                "t",
                Schema::of(&[("k", DataType::Int)]),
                (0..100).map(|i| vec![Value::Int(i)]).collect(),
                None,
            )
            .unwrap();
        let engine = QPipe::new(catalog, QPipeConfig::default());
        let rows = engine
            .submit(PlanNode::scan("t").aggregate(vec![], vec![AggSpec::count_star()]))
            .unwrap()
            .collect();
        assert_eq!(rows[0][0], Value::Int(100));
    }
}
