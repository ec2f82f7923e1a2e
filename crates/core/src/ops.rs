//! µEngine operator workers.
//!
//! Each worker executes one *host* packet to completion: it pulls
//! `Arc<ColBatch>`es from the packet's child pipes, evaluates the relational
//! operator, and broadcasts output batches through a [`SharedHost`] so
//! satellites attached by the OSP coordinator receive the same stream (paper
//! Figure 6b step 4).
//!
//! Every operator is batch-native (`qpipe-exec`'s `vexpr`/`viter`/`vsort`
//! kernels) and has exactly one body: hash join and its grace fallback,
//! merge join with wrap restart (§4.3.2), nested-loop join, aggregation,
//! sort and range-bounded index scans. No `Tuple` is built between a scan
//! and the client.
//!
//! # σ and π run in their reader
//!
//! A `Filter` or `Project` node is no packet but a kernel ([`fused_map`])
//! run by the thread that reads its input — the parent's packet, or the
//! client's `QueryHandle` at the root — from the pipe below it. It has no
//! µEngine, host or admission slot; the parent's signature, the parent op
//! the node below sees and its own probe stay as they were.
//!
//! Every worker loop polls the cancellation rule the same way: `cancel` fired
//! *and* [`SharedHost::close_if_unwanted`] — see `host.rs` for why the token
//! alone never stops a host. A body polls it once per input batch, and a
//! push that finds it fired ends the body's output.
//!
//! # Delivery: full batches
//!
//! Every body sends its output through [`into_host`], the one caller of
//! [`SharedHost::push_cols`], so a host follows the scanner's delivery rule
//! ([`Rechunk`](qpipe_exec::viter::Rechunk)): no batch it sends is short but
//! its last. A join matching a few rows per probe batch holds its output
//! pending until it has
//! [`ColBatch::DEFAULT_CAPACITY`] rows. Pending rows are safe:
//!
//! * A pending row is not emitted yet: a host's history and emitted count
//!   cover only what was pushed, so the attach rule is unchanged, and a
//!   satellite attached while rows are pending gets them in the next push.
//! * The cancellation rule is polled per input batch, not per output batch,
//!   so a host whose output is all pending still stops.
//! * Pending rows cannot wedge a query. A host blocks only on its own pipes:
//!   a receive from an input, or a send to an output. A consumer waiting for
//!   rows that sit pending keeps its waits-for edge to the host, which waits
//!   on its own input in turn; such edges lead from consumer to producer and
//!   end at a scanner, which never waits to receive. So any cycle through the
//!   host passes through a full pipe, which the waits-for graph materializes
//!   as for any producer (`scan.rs`, "Pending rows cannot wedge a query").

use crate::host::{AttachWindow, RegistryGuard, ShareRegistry, SharedHost};
use crate::packet::{CancelToken, Packet};
use crate::pipe::PipeConsumer;
use qpipe_common::colbatch::SelVec;
use qpipe_common::trace::{OpProbe, QueryTrace, TraceEvent};
use qpipe_common::{ColBatch, MemClass, Metrics, QError, QResult};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_exec::vexpr::project_batch;
use qpipe_exec::viter::{self, BatchSource, HashAgg, HashJoinBuild, Output, PageRangeReader};
use qpipe_exec::vsort::VecSort;
use std::sync::Arc;

/// Shared environment handed to every worker.
pub struct OpEnv {
    pub ctx: qpipe_exec::iter::ExecContext,
    pub metrics: Metrics,
    /// OSP on/off; when off, no hosts are registered and no attaching occurs.
    pub osp: bool,
    /// A host's `UntilFirstOutput` replay history in batches (buffering
    /// enhancement): the capacity of its output pipe.
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
    let result = run_operator(&plan, packet.split_side, children, &host, &cancel, env, &obs);
    if let Some(started) = started {
        if let Some(p) = &packet.probe {
            p.add_total_ns(started.elapsed().as_nanos() as u64);
        }
        if let Some(t) = &packet.trace {
            let s = packet.probe.as_ref().map(|p| p.stats()).unwrap_or_default();
            t.push(TraceEvent::finished(plan.op_name(), s));
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
/// packet's host is open to satellites for, or `None` when OSP is off.
pub(crate) fn attach_window(plan: &PlanNode, osp: bool) -> Option<AttachWindow> {
    match plan {
        _ if !osp => None,
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
    split_side: Option<usize>,
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
            into_host(host, cancel, |out| viter::nested_loop_join(inputs(children), predicate, out))
        }
        PlanNode::MergeJoin { left, right, left_key, right_key } => {
            let plans = [left, right];
            let reread = |side: usize| -> QResult<viter::Source<'_>> {
                Ok(Box::new(PageRangeReader::open(plans[side], &env.ctx)?))
            };
            into_host(host, cancel, |out| {
                let keys = [*left_key, *right_key];
                viter::merge_join(inputs(children), keys, split_side, reread, out)
            })
        }
        // Range-bounded index scans (unbounded ones are handed to the
        // circular ScanManager by the engine and never reach here).
        PlanNode::UnclusteredIndexScan { .. } | PlanNode::ClusteredIndexScan { .. } => {
            let mut reader = PageRangeReader::open(plan, &env.ctx)?;
            into_host(host, cancel, |out| {
                while let Some(batch) = reader.next_batch()?.filter(|_| out.is_open()) {
                    out.push(batch)?;
                }
                Ok(())
            })
        }
        PlanNode::TableScan { .. } | PlanNode::Filter { .. } | PlanNode::Project { .. } => {
            Err(QError::Exec(format!("{} dispatched as a packet", plan.op_name())))
        }
    }
}

/// The input of a σ or π node, which runs in the reader of that input's
/// pipe; `None` for every node that runs as a packet.
pub(crate) fn fused_input(plan: &PlanNode) -> Option<&Arc<PlanNode>> {
    match plan {
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => Some(input),
        _ => None,
    }
}

/// A fused σ or π node's kernel over one batch, column at a time: the
/// predicate's selection and one `gather`, or `project_batch`.
pub(crate) fn fused_map(plan: &PlanNode, batch: &ColBatch) -> QResult<ColBatch> {
    match plan {
        PlanNode::Filter { predicate, .. } => Ok(batch.gather(&predicate.eval_filter(batch)?)),
        PlanNode::Project { exprs, .. } => project_batch(exprs, batch, &SelVec::all(batch.len())),
        _ => Err(QError::Exec(format!("{} is not fused into its reader", plan.op_name()))),
    }
}

impl BatchSource for PipeConsumer {
    fn next_batch(&mut self) -> QResult<Option<Arc<ColBatch>>> {
        self.recv()
    }
}

/// Run a kernel into the host, its output folded under the delivery rule
/// ([`Output`]) and cut off once the cancellation rule fires.
fn into_host<'a>(
    host: &'a SharedHost,
    cancel: &'a CancelToken,
    kernel: impl FnOnce(&mut Output<'a>) -> QResult<()>,
) -> QResult<()> {
    let mut out = Output::new(move |batch| {
        host.push_cols(batch);
        !stop(cancel, host)
    });
    kernel(&mut out)?;
    out.finish();
    Ok(())
}

/// A body's next input batch, the cancellation rule polled first; a stop is
/// `QError::Cancelled`, which the closed host already carries.
fn next_input(
    input: &PipeConsumer,
    cancel: &CancelToken,
    host: &SharedHost,
) -> QResult<Option<Arc<ColBatch>>> {
    if stop(cancel, host) {
        return Err(QError::Cancelled);
    }
    input.recv()
}

/// A join packet's two child pipes as its kernel's inputs.
fn inputs(mut children: Vec<PipeConsumer>) -> [viter::Source<'static>; 2] {
    [children.remove(0), children.remove(0)].map(|pipe| -> viter::Source { Box::new(pipe) })
}

// ---------------------------------------------------------------------------
// Vectorized hash join / aggregation
// ---------------------------------------------------------------------------

/// Hash join over `Arc<ColBatch>` streams: build accumulates the batches
/// without materializing a single `Tuple`, probe matches whole batches
/// through the `viter` kernels. A build side the governor refuses to cover
/// (hash budget reached, or the global budget exhausted by concurrent
/// queries) is handed to the grace join, which partitions both inputs.
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
    while let Some(batch) = next_input(&left, cancel, host)? {
        build.add(&batch)?;
        if !lease.covers(build.rows()) {
            obs.mem_denied();
            env.metrics.add_vec_fallback();
            // The grace join acquires its own lease; hand ours back first so
            // the partition loads see the released headroom.
            drop(lease);
            return into_host(host, cancel, |out| {
                viter::grace_hash_join(build, inputs(vec![left, right]), right_key, &env.ctx, out)
            });
        }
    }
    let table = build.finish()?;
    into_host(host, cancel, |out| {
        while let Some(batch) = next_input(&right, cancel, host)?.filter(|_| out.is_open()) {
            table.probe_into(&batch, right_key, out)?;
        }
        Ok(())
    })
}

/// Hash aggregation over `Arc<ColBatch>` streams: batches fold through
/// [`HashAgg`]'s column-run update, serially and in stream order. The group
/// table grows under a governor lease (aggregation has no spill path, so a
/// denied grant is counted as `mem_waited` and the update proceeds —
/// overshoot is visible rather than silent). Output is built as one
/// `ColBatch`, so agg → sort plans stay columnar.
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
    while let Some(batch) = next_input(&input, cancel, host)? {
        agg.update_cols(&batch)?;
        if !lease.covers(agg.num_groups()) {
            obs.mem_denied();
        }
    }
    into_host(host, cancel, |out| out.push(agg.finish_cols()))
}

// ---------------------------------------------------------------------------
// Vectorized sort
// ---------------------------------------------------------------------------

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
    while let Some(batch) = next_input(&input, cancel, host)? {
        sort.add(&batch)?;
    }
    into_host(host, cancel, |out| {
        let mut pushed = Ok(());
        sort.finish(|batch| {
            pushed = out.push(batch);
            pushed.is_ok() && out.is_open()
        })?;
        pushed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::packet::QueryId;
    use crate::pipe::{Pipe, PipeConfig, PipeProducer};
    use qpipe_common::Value;

    fn pipe_pair(capacity: usize) -> (PipeProducer, PipeConsumer) {
        Pipe::pair(PipeConfig { capacity }, NodeId(1), NodeId(2), Arc::new(WaitRegistry::default()))
    }

    /// A batch of one `Int` column holding `vals`.
    fn ints(vals: std::ops::Range<i64>) -> Arc<ColBatch> {
        Arc::new(ColBatch::from_rows(&vals.map(|v| vec![Value::Int(v)]).collect::<Vec<_>>()))
    }

    fn values(reader: PipeConsumer) -> Vec<i64> {
        let rows = reader.collect_tuples().unwrap();
        rows.iter().map(|r| if let Value::Int(v) = r[0] { v } else { panic!("{r:?}") }).collect()
    }

    /// A host that passes every row on, run on a thread of its own.
    fn pass(
        input: PipeConsumer,
        host: &Arc<SharedHost>,
        cancel: &CancelToken,
    ) -> std::thread::JoinHandle<QResult<()>> {
        let (host, cancel) = (host.clone(), cancel.clone());
        std::thread::spawn(move || {
            into_host(&host, &cancel, |out| {
                while let Some(batch) = next_input(&input, &cancel, &host)? {
                    out.push(batch)?;
                }
                Ok(())
            })
        })
    }

    /// A cancelled host whose output is all pending — fewer rows than one
    /// batch — still stops reading its input at its next input batch.
    #[test]
    fn a_cancelled_host_with_only_pending_output_stops_reading() {
        let (mut input, rx) = pipe_pair(1);
        let (output, reader) = pipe_pair(8);
        let host = SharedHost::new(None, 0, NodeId(3), output, "filter", Metrics::new(), None);
        let cancel = CancelToken::new();
        let worker = pass(rx, &host, &cancel);
        // The second send returns only once the body took the first.
        input.push_shared(ints(0..1));
        input.push_shared(ints(1..2));
        cancel.cancel();
        drop(reader);
        let mut sent = 2;
        while !input.abandoned() && sent < 200 {
            input.push_shared(ints(sent..sent + 1));
            sent += 1;
        }
        input.finish();
        let result = worker.join().unwrap();
        assert!(matches!(result, Err(QError::Cancelled)), "{result:?}");
        assert!(sent < 200, "the cancelled host read all {sent} input batches");
    }

    /// A satellite that attaches while the host's rows are pending gets
    /// them in the host's next push: every row exactly once, in order, as
    /// the host's own reader does.
    #[test]
    fn a_satellite_attached_while_rows_are_pending_gets_every_row_once() {
        let (mut input, rx) = pipe_pair(1);
        let (output, own) = pipe_pair(64);
        let window = Some(AttachWindow::UntilFirstOutput);
        let host = SharedHost::new(window, 1, NodeId(3), output, "filter", Metrics::new(), None);
        let worker = pass(rx, &host, &CancelToken::new());
        // A send returns once the body took the batch before it, so the
        // body has read past the first batch, whose 20 rows are pending, when
        // the satellite attaches.
        for at in [0, 20, 40] {
            input.push_shared(ints(at..at + 20));
        }
        let (sat_out, sat) = pipe_pair(64);
        let plan = Arc::new(PlanNode::scan("t"));
        let packet = Packet {
            query: QueryId::fresh(),
            node: NodeId(4),
            signature: plan.signature(),
            plan,
            output: Some(sat_out),
            children: vec![],
            cancel: CancelToken::new(),
            probe: None,
            trace: None,
            split_side: None,
        };
        host.try_attach(packet).expect("nothing emitted yet: the window is open");
        for at in (60..600).step_by(20) {
            input.push_shared(ints(at..at + 20));
        }
        input.finish();
        worker.join().unwrap().unwrap();
        host.finish();
        let all: Vec<i64> = (0..600).collect();
        assert_eq!(values(sat), all, "the satellite");
        assert_eq!(values(own), all, "the host's own reader");
    }
}
