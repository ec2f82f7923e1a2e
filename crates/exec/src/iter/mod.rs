//! The conventional "one-query, many-operators" engine (paper §4.1).
//!
//! A classic Volcano-style pull iterator tree: each query gets a private
//! operator instance tree and (in the multi-client harness) its own thread.
//! Queries interact only through the shared buffer pool — exactly the
//! sharing-through-timing behaviour §1.1 and Figure 3 describe. This engine
//! is the test oracle only — DBMS X is Baseline's staged engine on the 2Q
//! pool — and the staged engine runs none of its operators. Its sort and
//! hash join work in memory: they take no governor lease and never spill.
//! It has one scan, [`SeqScanIter`], and no index code: an index scan is
//! answered by reading every page and checking each row's key against the
//! range, so the staged engine's index reads are checked, not shared.

mod agg;
mod join;
mod scan;
mod sort;

pub use agg::{AggState, AggregateIter};
pub use join::{HashJoinIter, MergeJoinIter, NestedLoopJoinIter};
pub use scan::SeqScanIter;
pub use sort::{cmp_keys, SortIter};

use crate::expr::Expr;
use crate::plan::PlanNode;
use qpipe_common::{MemoryGovernor, Metrics, QResult, Tuple};
use qpipe_storage::Catalog;
use std::sync::Arc;

/// Per-engine execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Tuples a staged sort may hold in memory before spilling a run
    /// (the paper gives each client 128 MB of sort heap; this is the scaled
    /// equivalent). Enforced per operator instance by the memory governor.
    pub sort_budget: usize,
    /// Tuples a staged hash-join build side may hold before going grace
    /// (partitioned). Enforced per operator instance by the memory governor.
    pub hash_budget: usize,
    /// Tuples all concurrently running operators may hold *in total*; the
    /// governor denies growth past it regardless of per-operator budgets.
    /// Effectively unbounded by default (single-query behavior unchanged).
    pub global_budget: usize,
    /// Per-query tracing and profiling. When `true` every submitted query
    /// gets a `QueryTrace` event journal and an `OpProbe` tree behind
    /// `QueryHandle::profile()`. When `false` (default) no probe or trace
    /// is allocated and the hot path pays only an `Option` branch per
    /// batch — no allocation, no atomics.
    pub tracing: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            sort_budget: 64 * 1024,
            hash_budget: 64 * 1024,
            global_budget: usize::MAX >> 2,
            tracing: false,
        }
    }
}

impl ExecConfig {
    /// Validate the budgets, clamping degenerate values to their minimum
    /// (a sort/hash budget of 0 or 1 cannot hold a comparison's worth of
    /// state). Each clamp counts against `config_clamps` — a warning-level
    /// signal that a misconfigured budget is being masked, replacing the
    /// silent `.max(2)` the operators used to apply inline.
    fn validated(mut self, metrics: &Metrics) -> Self {
        let clamp = |v: &mut usize, min: usize| {
            if *v < min {
                *v = min;
                metrics.add_config_clamp();
            }
        };
        clamp(&mut self.sort_budget, 2);
        clamp(&mut self.hash_budget, 2);
        let floor = self.sort_budget.max(self.hash_budget);
        clamp(&mut self.global_budget, floor);
        self
    }
}

/// Everything an operator needs at run time.
#[derive(Clone)]
pub struct ExecContext {
    pub catalog: Arc<Catalog>,
    pub config: ExecConfig,
    /// Memory governor shared by every operator running under this context
    /// (clones share it): sort/hash budgets are acquired as leases, and the
    /// global budget bounds their sum.
    pub governor: MemoryGovernor,
}

impl ExecContext {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_config(catalog, ExecConfig::default())
    }

    /// A context whose `config` is `config` validated — the one place an
    /// `ExecConfig` is validated — and whose governor enforces its budgets.
    pub fn with_config(catalog: Arc<Catalog>, config: ExecConfig) -> Self {
        let metrics = catalog.disk().metrics().clone();
        let config = config.validated(&metrics);
        let (global, sort, hash) = (config.global_budget, config.sort_budget, config.hash_budget);
        let governor = MemoryGovernor::new(global as u64, sort as u64, hash as u64, metrics);
        Self { catalog, config, governor }
    }
}

/// A pull-based tuple iterator (Volcano's `next()`).
pub trait TupleIter: Send {
    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self) -> QResult<Option<Tuple>>;
}

impl TupleIter for Box<dyn TupleIter> {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        (**self).next()
    }
}

/// Drain an iterator into a vector (tests and single-threaded clients).
pub fn collect(mut it: Box<dyn TupleIter>) -> QResult<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(t) = it.next()? {
        out.push(t);
    }
    Ok(out)
}

/// Build an operator tree for `plan`. A scan is refused with `QError::Plan`
/// before any page is read if it names a column its table lacks, or an index
/// the table lacks (see [`SeqScanIter::open`]).
pub fn build(plan: &PlanNode, ctx: &ExecContext) -> QResult<Box<dyn TupleIter>> {
    Ok(match plan {
        PlanNode::TableScan { .. }
        | PlanNode::ClusteredIndexScan { .. }
        | PlanNode::UnclusteredIndexScan { .. } => Box::new(SeqScanIter::open(plan, ctx)?),
        PlanNode::Filter { input, predicate } => {
            Box::new(FilterIter { input: build(input, ctx)?, predicate: predicate.clone() })
        }
        PlanNode::Project { input, exprs } => {
            Box::new(ProjectIter { input: build(input, ctx)?, exprs: exprs.clone() })
        }
        PlanNode::Sort { input, keys } => Box::new(SortIter::new(build(input, ctx)?, keys.clone())),
        PlanNode::Aggregate { input, group_by, aggs } => {
            Box::new(AggregateIter::new(build(input, ctx)?, group_by.clone(), aggs.clone()))
        }
        PlanNode::HashJoin { left, right, left_key, right_key } => Box::new(HashJoinIter::new(
            build(left, ctx)?,
            build(right, ctx)?,
            *left_key,
            *right_key,
        )),
        PlanNode::MergeJoin { left, right, left_key, right_key } => Box::new(MergeJoinIter::new(
            build(left, ctx)?,
            build(right, ctx)?,
            *left_key,
            *right_key,
        )),
        PlanNode::NestedLoopJoin { left, right, predicate } => Box::new(NestedLoopJoinIter::new(
            build(left, ctx)?,
            build(right, ctx)?,
            predicate.clone(),
        )),
    })
}

/// Run a plan to completion and return its rows.
pub fn run(plan: &PlanNode, ctx: &ExecContext) -> QResult<Vec<Tuple>> {
    collect(build(plan, ctx)?)
}

/// Filter operator.
pub struct FilterIter {
    input: Box<dyn TupleIter>,
    predicate: Expr,
}

impl TupleIter for FilterIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        while let Some(t) = self.input.next()? {
            if self.predicate.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

/// Projection operator.
pub struct ProjectIter {
    input: Box<dyn TupleIter>,
    exprs: Vec<Expr>,
}

impl TupleIter for ProjectIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        match self.input.next()? {
            None => Ok(None),
            Some(t) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    out.push(e.eval(&t)?);
                }
                Ok(Some(out))
            }
        }
    }
}

/// In-memory iterator over a vector (tests, buffered intermediates).
pub struct VecIter {
    rows: std::vec::IntoIter<Tuple>,
}

impl VecIter {
    pub fn new(rows: Vec<Tuple>) -> Self {
        Self { rows: rows.into_iter() }
    }
}

impl TupleIter for VecIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        Ok(self.rows.next())
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn degenerate_budgets_clamp_with_warning_metric() {
        let m = Metrics::new();
        let cfg =
            ExecConfig { sort_budget: 0, hash_budget: 1, global_budget: 1, ..Default::default() }
                .validated(&m);
        assert_eq!(cfg.sort_budget, 2);
        assert_eq!(cfg.hash_budget, 2);
        assert_eq!(cfg.global_budget, 2, "global floor = max per-operator budget");
        assert_eq!(m.snapshot().config_clamps, 3, "each masked misconfiguration is counted");
    }

    #[test]
    fn valid_config_passes_through_untouched() {
        let m = Metrics::new();
        let cfg = ExecConfig::default().validated(&m);
        assert_eq!(cfg.sort_budget, ExecConfig::default().sort_budget);
        assert_eq!(m.snapshot().config_clamps, 0);
    }
}
