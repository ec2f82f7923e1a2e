//! µEngine operator workers.
//!
//! Each worker executes one *host* packet to completion: it pulls
//! `Arc<ColBatch>`es from the packet's child pipes, evaluates the relational
//! operator, and broadcasts output batches through a [`SharedHost`] so
//! satellites attached by the OSP coordinator receive the same stream (paper
//! Figure 6b step 4).
//!
//! Filter, projection, hash join, aggregation and sort are batch-native
//! (`qpipe-exec`'s `vexpr`/`viter`/`vsort` kernels) and have exactly one
//! body each. The operators that still run iterator kernels — nested-loop
//! join, merge join, range-bounded index scans, and the grace hash join a
//! refused build hands over to — live behind [`rowbridge`](crate::rowbridge);
//! nothing in this file touches a `Tuple`.
//!
//! Every worker loop polls the cancellation rule the same way: `cancel` fired
//! *and* [`SharedHost::close_if_unwanted`] — see `host.rs` for why the token
//! alone never stops a host.

use crate::host::{AttachWindow, RegistryGuard, ShareRegistry, SharedHost};
use crate::packet::{CancelToken, Packet};
use crate::pipe::PipeConsumer;
use crate::rowbridge;
use qpipe_common::colbatch::SelVec;
use qpipe_common::trace::{OpProbe, QueryTrace, TraceEvent};
use qpipe_common::{ColBatch, MemClass, Metrics, QError, QResult};
use qpipe_exec::expr::Expr;
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_exec::vexpr::project_batch;
use qpipe_exec::viter::{HashAgg, HashJoinBuild};
use qpipe_exec::vsort::VecSort;
use std::sync::Arc;

/// Shared environment handed to every worker.
pub struct OpEnv {
    pub ctx: qpipe_exec::iter::ExecContext,
    pub metrics: Metrics,
    /// OSP on/off; when off, no hosts are registered and no attaching occurs.
    pub osp: bool,
    /// Host history window in batches (buffering enhancement).
    pub backfill: usize,
}

/// The OSP check for one packet (§4.3): attach it as a satellite of the
/// in-flight host with its signature, or build its own [`SharedHost`] and —
/// when the operator has an attach window — register it under the signature.
/// Both happen under the µEngine registry's one lock
/// ([`ShareRegistry::attach_or_host`]), so a burst of identical packets
/// dispatched from different threads all find the first one's host. `None`
/// when the packet attached: nothing of it, or below it, runs.
pub fn prepare(
    packet: Packet,
    registry: &Arc<ShareRegistry>,
    env: &OpEnv,
) -> Option<(Packet, Arc<SharedHost>, Option<RegistryGuard>)> {
    let window = attach_window(&packet.plan, env.osp);
    registry.attach_or_host(packet, |packet| {
        let output = packet.output.take()?;
        let host = SharedHost::new(
            window,
            env.backfill,
            packet.node,
            output,
            packet.plan.op_name(),
            env.metrics.clone(),
            packet.probe.clone(),
        );
        Some((host, window.is_some()))
    })
}

/// Per-packet observability handles threaded into the operator workers that
/// can be denied memory. Both fields are `None` when tracing is off.
struct Obs<'a> {
    probe: Option<&'a Arc<OpProbe>>,
    trace: Option<&'a Arc<QueryTrace>>,
    op: &'static str,
}

impl Obs<'_> {
    /// Count a memory-governor denial against the operator's probe; the
    /// journal records only the first one (an aggregate past its lease is
    /// denied on every batch — one event tells the story, thousands would
    /// evict everything else from the ring).
    fn mem_denied(&self) {
        let first = match self.probe {
            Some(p) => {
                p.add_mem_denied();
                p.stats().mem_denied == 1
            }
            None => true,
        };
        if first {
            if let Some(t) = self.trace {
                t.push(TraceEvent::MemDenied { op: self.op });
            }
        }
    }
}

/// Execute a prepared packet on the calling thread.
pub fn execute(mut packet: Packet, host: Arc<SharedHost>, env: &OpEnv) {
    if stop(&packet.cancel, &host) {
        return;
    }
    let children = std::mem::take(&mut packet.children);
    let cancel = packet.cancel.clone();
    let plan = packet.plan.clone();
    let obs =
        Obs { probe: packet.probe.as_ref(), trace: packet.trace.as_ref(), op: plan.op_name() };
    let started = (packet.probe.is_some() || packet.trace.is_some()).then(std::time::Instant::now);
    let result = run_operator(&plan, children, &host, &cancel, env, &obs);
    if let Some(started) = started {
        if let Some(p) = &packet.probe {
            p.add_total_ns(started.elapsed().as_nanos() as u64);
        }
        if let Some(t) = &packet.trace {
            let s = packet.probe.as_ref().map(|p| p.stats()).unwrap_or_default();
            t.push(TraceEvent::OperatorFinished {
                op: plan.op_name(),
                rows: s.rows,
                batches: s.batches,
                busy_ns: s.busy_ns,
                pipe_wait_ns: s.pipe_wait_ns,
                io_wait_ns: s.io_wait_ns,
            });
        }
    }
    if let Err(e) = result {
        // Poison the outputs: consumers (including attached satellites)
        // observe the error rather than mistaking truncated output for a
        // complete result. Plans are validated at submit time, so runtime
        // errors here indicate storage failures mid-execution.
        host.fail(&e);
        return;
    }
    host.finish();
}

/// The attach rule, stated once (§3.2 → host windows): the window a
/// packet's host is open to satellites for, or `None` when no satellite may
/// ever reach it — OSP off, or a filter or projection, which never host.
pub(crate) fn attach_window(plan: &PlanNode, osp: bool) -> Option<AttachWindow> {
    match plan {
        _ if !osp => None,
        PlanNode::Filter { .. } | PlanNode::Project { .. } => None,
        // Sort materializes its output (runs/sorted vector) — late attachers
        // replay it: whole-lifetime window (full overlap + materialization).
        PlanNode::Sort { .. } => Some(AttachWindow::WholeLifetime),
        // Single aggregates are full overlap; group-by is step but only emits
        // at the end, so the window is identical in practice.
        PlanNode::Aggregate { .. } => Some(AttachWindow::WholeLifetime),
        _ => Some(AttachWindow::UntilFirstOutput),
    }
}

/// The cancellation rule, as every worker loop polls it: this packet was
/// cancelled *and* nobody reads any output of its host any more (in which
/// case the host is now closed and the worker returns).
pub(crate) fn stop(cancel: &CancelToken, host: &SharedHost) -> bool {
    cancel.is_cancelled() && host.close_if_unwanted()
}

fn run_operator(
    plan: &PlanNode,
    mut children: Vec<PipeConsumer>,
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    match plan {
        PlanNode::Sort { keys, .. } => run_sort(children.remove(0), keys, host, cancel, env),
        PlanNode::Aggregate { group_by, aggs, .. } => {
            run_aggregate(children.remove(0), group_by, aggs, host, cancel, env, obs)
        }
        PlanNode::HashJoin { left_key, right_key, .. } => {
            run_hash_join(children, *left_key, *right_key, host, cancel, env, obs)
        }
        PlanNode::NestedLoopJoin { predicate, .. } => {
            rowbridge::run_nested_loop_join(children, predicate, host, cancel, env)
        }
        PlanNode::MergeJoin { left, right, left_key, right_key } => rowbridge::run_merge_join(
            children,
            (left, *left_key),
            (right, *right_key),
            host,
            cancel,
            env,
        ),
        PlanNode::Filter { predicate, .. } => {
            run_filter(children.remove(0), predicate, host, cancel)
        }
        PlanNode::Project { exprs, .. } => run_project(children.remove(0), exprs, host, cancel),
        // Range-bounded index scans (unbounded ones are handed to the
        // circular ScanManager by the engine and never reach here).
        PlanNode::UnclusteredIndexScan { .. } | PlanNode::ClusteredIndexScan { .. } => {
            rowbridge::run_index_scan(plan, host, cancel, env)
        }
        PlanNode::TableScan { .. } => {
            Err(QError::Exec("table scan dispatched past the ScanManager".into()))
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized hash join / aggregation
// ---------------------------------------------------------------------------

/// Hash join over `Arc<ColBatch>` streams: build accumulates the batches
/// without materializing a single `Tuple`, probe matches whole batches
/// through the `viter` kernels. A build side the governor refuses to cover
/// (hash budget reached, or the global budget exhausted by concurrent
/// queries) is handed to the grace join behind the row bridge.
fn run_hash_join(
    mut children: Vec<PipeConsumer>,
    left_key: usize,
    right_key: usize,
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    let left = children.remove(0);
    let right = children.remove(0);
    let mut lease = env.ctx.governor.lease(MemClass::Hash);
    let mut build = HashJoinBuild::new(left_key);
    loop {
        if stop(cancel, host) {
            return Ok(());
        }
        let Some(batch) = left.recv()? else { break };
        build.add(&batch)?;
        if !lease.covers(build.rows()) {
            obs.mem_denied();
            env.metrics.add_vec_fallback();
            // The grace join acquires its own lease; hand ours back first so
            // the partition loads see the released headroom.
            drop(lease);
            let keys = (left_key, right_key);
            return rowbridge::run_grace_hash_join(build, left, right, keys, host, cancel, env);
        }
    }
    let table = build.finish()?;
    while let Some(batch) = right.recv()? {
        if stop(cancel, host) {
            return Ok(());
        }
        table.probe(&batch, right_key, ColBatch::DEFAULT_CAPACITY, |out| host.push_cols(out))?;
    }
    Ok(())
}

/// Hash aggregation over `Arc<ColBatch>` streams: batches fold through
/// [`HashAgg`]'s column-run update, serially and in stream order. The group
/// table grows under a governor lease (aggregation has no spill path, so a
/// denied grant is counted as `mem_waited` and the update proceeds —
/// overshoot is visible rather than silent). Output is built as a `ColBatch`
/// and emitted in pipe-granularity slices, so agg → sort plans stay columnar.
fn run_aggregate(
    input: PipeConsumer,
    group_by: &[usize],
    aggs: &[AggSpec],
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
    obs: &Obs<'_>,
) -> QResult<()> {
    let mut lease = env.ctx.governor.lease(MemClass::Agg);
    let mut agg = HashAgg::new(group_by.to_vec(), aggs.to_vec());
    while let Some(batch) = input.recv()? {
        if stop(cancel, host) {
            return Ok(());
        }
        agg.update_cols(&batch)?;
        if !lease.covers(agg.num_groups()) {
            obs.mem_denied();
        }
    }
    let out = agg.finish_cols();
    let mut at = 0;
    while at < out.len() {
        let n = (out.len() - at).min(ColBatch::DEFAULT_CAPACITY);
        host.push_cols(out.slice(at, n));
        at += n;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Vectorized filter / projection / sort
// ---------------------------------------------------------------------------

/// Filter over `Arc<ColBatch>` streams: each batch runs the selection-vector
/// kernels (`Expr::eval_filter`) and is compacted once (`gather`) before
/// broadcast — no `Tuple` is ever materialized.
fn run_filter(
    input: PipeConsumer,
    predicate: &Expr,
    host: &SharedHost,
    cancel: &CancelToken,
) -> QResult<()> {
    while let Some(batch) = input.recv()? {
        if stop(cancel, host) {
            return Ok(());
        }
        let sel = predicate.eval_filter(&batch)?;
        if !sel.is_empty() {
            host.push_cols(batch.gather(&sel));
        }
    }
    Ok(())
}

/// Projection over `Arc<ColBatch>` streams: the expression list is evaluated
/// column-at-a-time (`project_batch` — an `Arc`-bump gather for plain column
/// references).
fn run_project(
    input: PipeConsumer,
    exprs: &[Expr],
    host: &SharedHost,
    cancel: &CancelToken,
) -> QResult<()> {
    while let Some(batch) = input.recv()? {
        if stop(cancel, host) {
            return Ok(());
        }
        let out = project_batch(exprs, &batch, &SelVec::all(batch.len()))?;
        if !out.is_empty() {
            host.push_cols(out);
        }
    }
    Ok(())
}

/// Sort over `Arc<ColBatch>` streams: [`VecSort`] accumulates the batches,
/// sorts a permutation over the key columns, and spills/merges columnar runs
/// — output order is bit-identical to the iterator engine's `SortIter`.
fn run_sort(
    input: PipeConsumer,
    keys: &[SortKey],
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let mut sort = VecSort::new(keys, env.ctx.clone());
    loop {
        if stop(cancel, host) {
            return Ok(());
        }
        let Some(batch) = input.recv()? else { break };
        sort.push_cols(&batch)?;
    }
    sort.finish(|out| {
        if stop(cancel, host) {
            return false;
        }
        host.push_cols(out);
        true
    })
}
