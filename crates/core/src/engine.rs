//! The QPipe engine facade: µEngines, packet dispatcher, and query handles.
//!
//! `QPipe::new` sets up one µEngine per relational operator (paper §4.2,
//! Figure 5b) but σ and π, which run in their reader ([`ops`](crate::ops)):
//! its OSP registry and its packet pool, and no thread of its own. Once
//! admission lets a query in, the packet dispatcher walks the plan
//! *top-down* on the thread that admitted it. At each node it performs the
//! OSP check — "every time a new packet queues up in a µEngine, we scan the
//! queue with the existing packets to check for overlapping work" (§4.3) —
//! under the µEngine registry's lock: a packet that finds an in-flight host
//! attaches as a satellite, and its subtree is never dispatched. The paper
//! queues every packet of a plan at once and so has to terminate that
//! subtree afterwards (Figure 6b). Otherwise the node registers its host,
//! its children are wired with pipes and dispatched the same way, and the
//! host goes to the µEngine's pool. Scans go to the scan manager — the scan
//! µEngine — which applies the same check per table and runs each scan
//! group's scanner as a job on its pool. An engine owns no thread besides
//! its pools' workers: a deadlock is broken by the waiter whose edge closes
//! it. A query ends by completing, by failing, or by its client cancelling
//! ([`QueryHandle::cancel`]) or dropping its handle; no clock ends one.

use crate::admit::{AdmissionController, AdmitConfig, DispatchFn, QueryTicket};
use crate::deadlock::{NodeId, WaitRegistry};
use crate::host::ShareRegistry;
use crate::ops::{self, OpEnv};
use crate::packet::{fresh_node, CancelToken, Packet, QueryId};
use crate::pipe::{Pipe, PipeConfig, PipeConsumer, PipeProducer};
use crate::pool::WorkerPool;
use crate::scan::{ScanManager, ScanRequest};
use qpipe_common::trace::{ProbeNode, QueryProfile, QueryTrace, TraceEvent};
use qpipe_common::{Metrics, QError, QResult, Tuple};
use qpipe_exec::iter::{ExecConfig, ExecContext};
use qpipe_exec::liveness::prune_columns;
use qpipe_exec::plan::PlanNode;
use qpipe_exec::viter::ScanKernel;
use qpipe_planner::{PlannedQuery, PlannerOptions};
use qpipe_storage::Catalog;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Engine-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct QPipeConfig {
    /// On-demand simultaneous pipelining on/off ("QPipe w/OSP" vs "Baseline").
    pub osp: bool,
    /// Intermediate buffer sizing. A host's `UntilFirstOutput` replay
    /// history (the buffering enhancement, §3.2) holds as many batches as
    /// its output pipe does: every batch a host sends but its last holds at
    /// least `ColBatch::DEFAULT_CAPACITY` rows, so the window covers at
    /// least `pipe.capacity × 1 024` rows of output — 2 048 by default
    /// (`PipeConfig::ROWS_IN_FLIGHT`).
    pub pipe: PipeConfig,
    /// Memory budgets for sort / hash join.
    pub exec: ExecConfig,
    /// Admission control: per-µEngine concurrency bound and waiting-room
    /// size. Every submitted query passes through it.
    pub admit: AdmitConfig,
}

impl Default for QPipeConfig {
    fn default() -> Self {
        Self {
            osp: true,
            pipe: PipeConfig::default(),
            exec: ExecConfig::default(),
            admit: AdmitConfig::default(),
        }
    }
}

impl QPipeConfig {
    /// The paper's Baseline: same engine, OSP disabled.
    pub fn baseline() -> Self {
        Self { osp: false, ..Self::default() }
    }
}

/// The µEngine names QPipe boots (cf. Figure 5b); σ and π run in their reader.
pub const ENGINE_NAMES: [&str; 8] =
    ["scan", "iscan", "uiscan", "sort", "agg", "hashjoin", "mergejoin", "nljoin"];

/// One µEngine: the in-flight hosts its packets may attach to, and the pool
/// its hosts run on. The scan µEngine is the [`ScanManager`]: its scan
/// groups are what a scan attaches to, and its pool runs their scanners.
struct MicroEngine {
    share: Arc<ShareRegistry>,
    pool: WorkerPool,
}

/// The QPipe engine.
pub struct QPipe {
    ctx: ExecContext,
    config: QPipeConfig,
    registry: Arc<WaitRegistry>,
    scan_mgr: Arc<ScanManager>,
    /// What every operator worker reads: context, metrics, OSP on/off.
    env: Arc<OpEnv>,
    engines: HashMap<&'static str, MicroEngine>,
    metrics: Metrics,
    admit: Arc<AdmissionController>,
    /// Self-reference for deferred dispatch closures (admission tickets).
    self_weak: Weak<QPipe>,
}

impl QPipe {
    /// Boot the engine over a catalog. Boot starts no thread: every pool,
    /// the scan µEngine's included, starts empty and spawns its workers as
    /// jobs need them.
    pub fn new(catalog: Arc<Catalog>, config: QPipeConfig) -> Arc<Self> {
        let metrics = catalog.disk().metrics().clone();
        // Each constructor validates its own config once; the stored config
        // reports the effective values they settled on.
        let ctx = ExecContext::with_config(catalog, config.exec);
        let admit = AdmissionController::new(config.admit, metrics.clone());
        let config = QPipeConfig { exec: ctx.config, admit: admit.config(), ..config };
        let registry = Arc::new(WaitRegistry::new(metrics.clone()));
        let scan_mgr = ScanManager::new(ctx.clone(), config.osp, metrics.clone());
        let env = Arc::new(OpEnv {
            ctx: ctx.clone(),
            metrics: metrics.clone(),
            osp: config.osp,
            backfill: config.pipe.capacity,
        });
        let engines = ENGINE_NAMES
            .into_iter()
            .filter(|&name| name != "scan")
            .map(|name| {
                let share = Arc::new(ShareRegistry::new());
                (name, MicroEngine { share, pool: WorkerPool::new(name, metrics.clone()) })
            })
            .collect();
        Arc::new_cyclic(|self_weak| Self {
            ctx,
            config,
            registry,
            scan_mgr,
            env,
            engines,
            metrics,
            admit,
            self_weak: self_weak.clone(),
        })
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.ctx.catalog
    }

    pub fn config(&self) -> &QPipeConfig {
        &self.config
    }

    /// The admission controller (observability / tests).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admit
    }

    /// The memory governor every operator of this engine leases from.
    pub fn governor(&self) -> &qpipe_common::MemoryGovernor {
        &self.ctx.governor
    }

    /// Everything not back to idle, one line each: admission slots in
    /// flight per µEngine, tickets still queued, governor units leased and
    /// spill run files on the disk. Empty once every query has settled and
    /// its workers have wound down; anything else after that is a leak.
    pub fn leftovers(&self) -> Vec<String> {
        let mut left = self.admit.leftovers();
        let leased = self.governor().in_use();
        if leased > 0 {
            left.push(format!("{leased} memory unit(s) still leased"));
        }
        let runs = qpipe_exec::spill::run_files(self.catalog().disk());
        left.extend(runs.into_iter().map(|f| format!("spill run file {f}")));
        left
    }

    /// Submit a query plan; returns a handle streaming the root's output.
    /// The query passes through the admission controller: it dispatches
    /// immediately when every µEngine it touches has headroom, otherwise it
    /// waits in the ticketed queue (the returned handle blocks
    /// transparently). `Err(Admission)` when the waiting room is full.
    /// Dropping the handle withdraws a queued query; [`QueryHandle::cancel`]
    /// does so explicitly and also terminates an already-running plan.
    pub fn submit(&self, plan: PlanNode) -> QResult<QueryHandle> {
        // The query's latency covers everything below: validation, pruning,
        // the probe tree and, for a query admitted at once, its dispatch.
        let submitted = Instant::now();
        self.validate(&plan)?;
        let query = QueryId::fresh();
        let client_node = fresh_node();
        let root_node = fresh_node();
        let (producer, mut consumer) =
            Pipe::pair(self.config.pipe, root_node, client_node, self.registry.clone());
        let root_pipe = producer.pipe().clone();
        // Column liveness: from here on the engine runs the plan whose scans
        // emit only the columns something above them reads; packets carry the
        // pruned subtrees' signatures.
        let catalog = &self.ctx.catalog;
        let plan =
            Arc::new(prune_columns(plan, &|t| catalog.table(t).ok().map(|info| info.schema.len())));
        let engines = plan_engines(&plan);
        // Tracing on: one journal per query and one probe per operator,
        // pre-wired to mirror the plan shape. Off (the default): both stay
        // `None` everywhere and the hot path pays a single `Option` branch.
        let trace = self.config.exec.tracing.then(|| Arc::new(QueryTrace::default()));
        let profile = self.config.exec.tracing.then(|| build_probe_tree(&plan));
        // A σ/π chain at the root runs on the client thread that reads it.
        let (plan, probe, parent) = consumer.fuse(plan, profile.clone(), None, trace.as_ref());
        // Deferred dispatch: runs on whichever thread frees the admitting
        // slot (or inline below when capacity is available right now).
        let weak = self.self_weak.clone();
        let fail_pipe = root_pipe.clone();
        let dispatch_trace = trace.clone();
        let dispatch: DispatchFn = Box::new(move || {
            let Some(engine) = weak.upgrade() else {
                fail_pipe.fail(QError::Exec("engine shut down".into()));
                return Vec::new();
            };
            let mut q = QueryDispatch { query, trace: dispatch_trace.as_ref(), tokens: Vec::new() };
            let probe = probe.as_ref();
            // Containment: a panic while dispatching unwinds through every
            // packet built so far — a dropped producer fails its pipe, and a
            // registered host's `AbandonGuard` fails it, satellites included.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.dispatch(&mut q, plan, producer, parent, false, root_node, probe);
            }));
            if caught.is_err() {
                engine.metrics.add_worker_panic();
                fail_pipe.fail(QError::Exec("packet dispatch panicked".into()));
            }
            q.tokens
        });
        let ticket = QueryTicket::new(engines, dispatch, root_pipe, trace.clone());
        self.admit.submit(ticket.clone())?;
        Ok(QueryHandle {
            consumer,
            ticket: TicketGuard { ctrl: self.admit.clone(), ticket },
            submitted,
            metrics: self.metrics.clone(),
            trace,
            profile,
        })
    }

    /// Plan SQL text with the canonicalizing planner, without submitting —
    /// for `EXPLAIN`-style inspection ([`PlannedQuery::explain`]).
    pub fn plan_sql(&self, sql: &str) -> QResult<PlannedQuery> {
        qpipe_planner::plan_sql(self.ctx.catalog.as_ref(), sql, &PlannerOptions)
    }

    /// Submit SQL text. The text is parsed, bound against the catalog, and
    /// planned by the statistics-free greedy planner; because the planner
    /// canonicalizes, differently-phrased variants of one logical query
    /// share a plan signature and therefore OSP windows.
    pub fn submit_sql(&self, sql: &str) -> QResult<QueryHandle> {
        self.submit(Arc::unwrap_or_clone(self.plan_sql(sql)?.plan))
    }

    /// Cheap plan validation at submit time: every scan's table and index
    /// exist, and its [`ScanKernel`] builds — its predicate and projection
    /// name only columns the table has (the iterator engine errs on such a
    /// plan too).
    fn validate(&self, plan: &PlanNode) -> QResult<()> {
        let (table, predicate, projection) = match plan {
            PlanNode::TableScan { table, predicate, projection, .. }
            | PlanNode::ClusteredIndexScan { table, predicate, projection, .. }
            | PlanNode::UnclusteredIndexScan { table, predicate, projection, .. } => {
                (table, predicate, projection)
            }
            _ => return plan.children().into_iter().try_for_each(|c| self.validate(c)),
        };
        let info = self.ctx.catalog.table(table)?;
        match plan {
            PlanNode::ClusteredIndexScan { .. } if info.clustered.is_none() => {
                return Err(QError::Plan(format!("{table} has no clustered index")));
            }
            PlanNode::UnclusteredIndexScan { column, .. } => {
                info.unclustered_index(column)
                    .ok_or_else(|| QError::Plan(format!("no index {table}.{column}")))?;
            }
            _ => {}
        }
        ScanKernel::new(info.schema.len(), predicate.as_ref(), projection.as_deref(), None)
            .map(drop)
    }

    /// The packet dispatcher, for one node of a query's plan and everything
    /// below it, on the calling thread. A managed scan goes to the scan
    /// manager, which applies the scan's attach rule; any other node meets
    /// its µEngine's OSP check ([`ops::prepare`]). A node that attached as a
    /// satellite is done: its subtree is never dispatched. Otherwise its
    /// child pipes are wired (a σ/π chain [fused](PipeConsumer::fuse) into
    /// its reader), the nodes below dispatched, and its host handed to the
    /// µEngine's pool. `split_ok` is the flag a merge-join parent chose for
    /// this node (§4.3.2); `probe` is its place in the query's probe tree
    /// (`None` when tracing is off).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        q: &mut QueryDispatch<'_>,
        plan: Arc<PlanNode>,
        output: PipeProducer,
        parent_op: Option<&'static str>,
        split_ok: bool,
        node: NodeId,
        probe: Option<&ProbeNode>,
    ) {
        let op = plan.op_name();
        if let Some(tr) = q.trace {
            tr.push(TraceEvent::PacketDispatched { op });
        }
        // The circular scan manager takes all table scans, and clustered index
        // scans over the full key range (range-restricted ones run in a worker).
        if let PlanNode::TableScan { table, predicate, projection, ordered }
        | PlanNode::ClusteredIndexScan {
            table,
            predicate,
            projection,
            ordered,
            lo: None,
            hi: None,
            ..
        } = &*plan
        {
            let req = ScanRequest {
                table: table.clone(),
                predicate: predicate.clone(),
                projection: projection.clone(),
                output,
                ordered: *ordered,
                split_ok,
                probe: probe.map(|p| p.probe.clone()),
                trace: q.trace.cloned(),
            };
            // Submit errs only on what `validate` refuses; the request's
            // pipe has failed by then.
            let _ = self.scan_mgr.submit(req);
            return;
        }
        let Some(engine) = self.engines.get(op) else {
            output.fail(QError::Plan(format!("no µEngine for {op}")));
            return;
        };
        let cancel = CancelToken::new();
        let split_side = match (&*plan, parent_order_insensitive(parent_op)) {
            (PlanNode::MergeJoin { left, right, .. }, true) => self.pick_split_side(left, right),
            _ => None,
        };
        let packet = Packet {
            query: q.query,
            node,
            signature: plan.signature(),
            plan: plan.clone(),
            output: Some(output),
            children: Vec::new(),
            cancel: cancel.clone(),
            probe: probe.map(|p| p.probe.clone()),
            trace: q.trace.cloned(),
            split_side,
        };
        let Some((mut packet, host, guard)) = ops::prepare(packet, &engine.share, &self.env) else {
            return;
        };
        // Two failure paths poison the host's outputs: an operator panic
        // inside the job, and the job never running at all — a panic below,
        // or a pool that refuses it (the guard fires when the unrun closure
        // drops). A truncated stream must read as an error, never as a
        // complete result.
        let abandon = AbandonGuard { host, name: op, armed: true };
        for (idx, child) in plan.children_shared().into_iter().enumerate() {
            let child_node = fresh_node();
            let (out, mut consumer) =
                Pipe::pair(self.config.pipe, child_node, node, self.registry.clone());
            // The consumer end belongs to *this* operator: time it spends
            // blocked on the child's pipe is this operator's pipe-wait.
            consumer.set_probe(packet.probe.clone());
            let child_probe = probe.and_then(|p| p.children.get(idx)).cloned();
            let (child, child_probe, parent) = consumer.fuse(child, child_probe, Some(op), q.trace);
            packet.children.push(consumer);
            let split = split_side == Some(idx);
            self.dispatch(q, child, out, parent, split, child_node, child_probe.as_ref());
        }
        q.tokens.push(cancel);
        let env = self.env.clone();
        engine.pool.execute(move || {
            let host = abandon.defuse();
            // Containment: an operator panic (a bug, or an injected fault)
            // must not unwind across the host — it would strand attached
            // satellites mid-stream and kill a pool worker other packets
            // need. Poison every output instead, then let the registry guard
            // deregister the host as usual.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ops::execute(packet, host.clone(), &env);
            }));
            if caught.is_err() {
                env.metrics.add_worker_panic();
                host.fail(&QError::Exec(format!("operator worker panicked in {op} µEngine")));
            }
            drop(guard);
        });
    }

    /// For a merge join with order-insensitive parent: which child (0/1) may
    /// be served by a wrapped circular scan. Only when both are ordered
    /// full-range scans, so the re-read of the other is a scan; then the
    /// larger, so the doubly-read side is the smaller (§4.3.2 cost rule).
    fn pick_split_side(&self, left: &PlanNode, right: &PlanNode) -> Option<usize> {
        let size = |p: &PlanNode| -> Option<u64> {
            match p {
                PlanNode::ClusteredIndexScan {
                    table, lo: None, hi: None, ordered: true, ..
                }
                | PlanNode::TableScan { table, ordered: true, .. } => {
                    self.ctx.catalog.table(table).ok().map(|t| t.num_tuples())
                }
                _ => None,
            }
        };
        Some(usize::from(size(left)? < size(right)?))
    }

    /// Route an update through the dedicated no-OSP path (§4.3.4): takes an
    /// exclusive table lock and appends `rows` to the heap's backing file as
    /// raw writes. Scans (and their satellites) wait for the lock.
    pub fn submit_update(&self, table: &str, blocks: u64) -> QResult<()> {
        let info = self.ctx.catalog.table(table)?;
        let _x = self.ctx.catalog.locks().lock_exclusive(table);
        // Simulate the write cost block by block (the storage manager charges
        // write latency and counts the I/O).
        let disk = self.ctx.catalog.disk();
        for _ in 0..blocks {
            // Overwrite block 0 in place as a stand-in for logged updates;
            // content is unchanged so concurrent readers stay consistent.
            let page = disk.read_block(info.file_id(), 0)?;
            disk.write_block(info.file_id(), 0, page)?;
        }
        Ok(())
    }
}

/// Mirror the plan tree as probe nodes — one [`OpProbe`](qpipe_common::trace::OpProbe)
/// per operator, shaped exactly like the plan so [`QueryHandle::profile`]
/// snapshots align with [`PlanNode::explain_analyze`].
fn build_probe_tree(plan: &PlanNode) -> ProbeNode {
    let children = plan.children().into_iter().map(build_probe_tree).collect();
    ProbeNode::new(plan.op_name(), children)
}

/// The deduplicated set of µEngines `plan` touches — the query's admission
/// footprint (a query counts once per engine, however many packets it has
/// there; a fused σ/π node has no µEngine).
fn plan_engines(plan: &PlanNode) -> Vec<&'static str> {
    fn walk(p: &PlanNode, out: &mut Vec<&'static str>) {
        out.extend(ops::fused_input(p).is_none().then(|| p.op_name()));
        for c in p.children() {
            walk(c, out);
        }
    }
    let mut v = Vec::new();
    walk(plan, &mut v);
    v.sort_unstable();
    v.dedup();
    v
}

/// One query's dispatch: what each of its packets carries, and the cancel
/// tokens of those that run (fired when the client cancels or drops the
/// query).
struct QueryDispatch<'a> {
    query: QueryId,
    trace: Option<&'a Arc<QueryTrace>>,
    tokens: Vec<CancelToken>,
}

/// Is `parent_op` indifferent to its input order?
fn parent_order_insensitive(parent_op: Option<&'static str>) -> bool {
    matches!(
        parent_op,
        Some("agg") | Some("sort") | Some("hashjoin") | Some("filter") | Some("project")
    )
}

/// Fails a prepared host when its job is dropped unrun — its children could
/// not be dispatched, the pool refused it (engine shut down, or no thread to
/// be had) or discarded it at pool shutdown. The executing worker defuses it
/// first thing.
struct AbandonGuard {
    host: Arc<crate::host::SharedHost>,
    name: &'static str,
    armed: bool,
}

impl AbandonGuard {
    fn defuse(mut self) -> Arc<crate::host::SharedHost> {
        self.armed = false;
        self.host.clone()
    }
}

impl Drop for AbandonGuard {
    fn drop(&mut self) {
        if self.armed {
            self.host.fail(&QError::Exec(format!("{} µEngine shut down", self.name)));
        }
    }
}

/// Handle to a submitted query.
pub struct QueryHandle {
    consumer: PipeConsumer,
    ticket: TicketGuard,
    submitted: Instant,
    metrics: Metrics,
    /// The query's event journal (`None` unless `ExecConfig::tracing`).
    trace: Option<Arc<QueryTrace>>,
    /// Root of the query's probe tree; snapshot via [`QueryHandle::profile`].
    profile: Option<ProbeNode>,
}

/// Releases the query's admission slots when the handle settles (consumed,
/// dropped, or cancelled) — the release pumps the waiting queues.
struct TicketGuard {
    ctrl: Arc<AdmissionController>,
    ticket: Arc<QueryTicket>,
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        self.ctrl.finish(&self.ticket, None, false);
    }
}

impl QueryHandle {
    /// Snapshot the per-operator execution profile (rows, batches, busy and
    /// wait times per plan node, mirroring the plan shape — feed it to
    /// [`PlanNode::explain_analyze`]). `None` unless the engine was booted
    /// with `ExecConfig::tracing`. Valid at any time; a snapshot taken
    /// before the query drains shows partial counts.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.profile.as_ref().map(ProbeNode::snapshot)
    }

    /// The live probe tree behind [`profile`](Self::profile). The clone
    /// shares the underlying atomics, so — like [`trace`](Self::trace) —
    /// grab it before [`try_collect`](Self::try_collect) and snapshot it
    /// afterwards for the query's final per-operator counts.
    pub fn probe_tree(&self) -> Option<ProbeNode> {
        self.profile.clone()
    }

    /// The query's event journal, `None` unless tracing is on. Grab the
    /// `Arc` before [`try_collect`](Self::try_collect) (which consumes the
    /// handle) to render a failure journal afterwards.
    pub fn trace(&self) -> Option<Arc<QueryTrace>> {
        self.trace.clone()
    }

    /// True while the query is still waiting for admission.
    pub fn is_queued(&self) -> bool {
        self.ticket.ticket.is_queued()
    }

    /// Cancel the query. A still-queued query is withdrawn without ever
    /// dispatching a packet (its ticket settles and its slots were never
    /// taken); a running query's packet subtree is terminated via its cancel
    /// tokens and winds down as soon as no shared host still wants its
    /// output. Either way the admission slots and the root pipe are settled.
    pub fn cancel(self) {
        let g = &self.ticket;
        g.ctrl.finish(&g.ticket, Some(QError::Cancelled), true);
        // Dropping `self` detaches the consumer (a running plan stops once
        // no one wants its output) and settles the ticket guard (no-op).
    }

    /// Block until the query finishes; returns all result tuples and records
    /// the response time. `Err` when a packet feeding this query failed
    /// (e.g. a codec error on a scanned page) — partial output is never
    /// passed off as a complete result.
    pub fn try_collect(self) -> QResult<Vec<Tuple>> {
        // Hold the admission slots until the stream is drained, then release
        // them (pumping waiters).
        let result = self.consumer.collect_tuples();
        drop(self.ticket);
        match result {
            Ok(rows) => {
                let elapsed_us = self.submitted.elapsed().as_micros() as u64;
                self.metrics.add_tuples(rows.len() as u64);
                self.metrics.record_query_latency(elapsed_us);
                Ok(rows)
            }
            Err(e) => {
                if let Some(tr) = &self.trace {
                    tr.push(TraceEvent::QueryFailed { error: e.to_string() });
                }
                Err(e)
            }
        }
    }

    /// Elapsed wall time since submission.
    pub fn elapsed(&self) -> Duration {
        self.submitted.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_exec::expr::Expr;
    use qpipe_exec::plan::AggSpec;

    /// A fused σ or π node takes no admission slot: the footprints of
    /// Q19's shape — an aggregate over a filter over a hash join of two
    /// scans — and Q14's — the same with a projection for the filter — name
    /// only the µEngines whose packets run.
    #[test]
    fn admission_counts_no_slot_for_filter_or_project() {
        let join = PlanNode::scan("part").hash_join(PlanNode::scan("lineitem"), 0, 1);
        let agg = vec![AggSpec::sum(Expr::col(0))];
        let q19 = join.clone().filter(Expr::col(2).lt(Expr::lit(5))).aggregate(vec![], agg.clone());
        let q14 = join.project(vec![Expr::col(3), Expr::col(4)]).aggregate(vec![], agg);
        assert_eq!(plan_engines(&q19), ["agg", "hashjoin", "scan"]);
        assert_eq!(plan_engines(&q14), ["agg", "hashjoin", "scan"]);
        let chain = PlanNode::scan("t").filter(Expr::col(0).lt(Expr::lit(1))).project(vec![]);
        assert_eq!(plan_engines(&chain), ["scan"]);
    }

    /// A query admitted at once is dispatched inside `submit`, and its
    /// elapsed time covers that dispatch: every packet the journal saw
    /// dispatched before `submit` returned lies inside `elapsed()`. (The
    /// journal's clock starts inside `submit`, after the handle's, so no
    /// event's offset can exceed the handle's elapsed time.)
    #[test]
    fn a_query_admitted_at_once_is_timed_from_the_start_of_submit() {
        use qpipe_common::{DataType, Metrics, Schema, Value};
        use qpipe_storage::{BufferPool, BufferPoolConfig, DiskConfig, PolicyKind, SimDisk};
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
        let catalog = Catalog::new(disk, pool);
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        for t in ["a", "b"] {
            let rows = (0..500).map(|i| vec![Value::Int(i), Value::Int(i % 7)]).collect();
            catalog.create_table(t, schema.clone(), rows, Some(0)).unwrap();
        }
        let exec = ExecConfig { tracing: true, ..ExecConfig::default() };
        let engine = QPipe::new(catalog, QPipeConfig { exec, ..QPipeConfig::default() });
        let plan = PlanNode::scan("a")
            .hash_join(PlanNode::scan("b"), 0, 0)
            .aggregate(vec![1], vec![AggSpec::count_star()])
            .sort(vec![qpipe_exec::plan::SortKey::asc(0)]);
        let handle = engine.submit(plan).unwrap();
        let elapsed = handle.elapsed();
        assert!(!handle.is_queued(), "capacity was free");
        let dispatched: Vec<u64> = handle
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::PacketDispatched { .. }))
            .map(|e| e.at_us)
            .collect();
        assert_eq!(dispatched.len(), 5, "sort, aggregate, join and two scans");
        let last = Duration::from_micros(dispatched.iter().copied().max().unwrap_or(0));
        assert!(elapsed >= last, "elapsed {elapsed:?}, last packet dispatched at {last:?}");
        assert_eq!(handle.try_collect().unwrap().len(), 7);
    }
}
