//! Per-layer metrics. A layer is named after the module that does the work
//! (`storage.bufferpool`, `core.scan`, ...). Counts and times are per
//! completed query unless the name says otherwise.

use crate::client::{LoopResult, QueryTraceRecord};
use crate::report::Metric;
use crate::span::SpanLog;
use qpipe_common::trace::{QueryProfile, TimedEvent, TraceEvent};

/// Worker pools whose busy time is reported (`core.pool.busy_ms.<pool>`).
pub const POOLS: [&str; 7] =
    ["scan-tasks", "tasks", "filter", "project", "sort", "agg", "hashjoin"];
/// Operators whose probes are folded (`core.ops.<op>.busy_ms` / `.pipe_wait_ms`).
pub const OPS: [&str; 5] = ["filter", "project", "sort", "agg", "hashjoin"];

/// Layer metrics of an untraced run: the engine's always-on counters over
/// the window, and the process's own.
///
/// The percentiles come from the engine's cumulative histograms (a
/// `MetricsSnapshot` delta subtracts counts, not buckets), so they cover
/// everything since the engine booted, warm-up included.
pub fn engine_metrics(run: &LoopResult) -> Vec<Metric> {
    let d = &run.delta;
    let n = run.completed().max(1) as f64;
    let per_query = |count: u64| count as f64 / n;
    let mut out = vec![
        Metric::new("storage.disk.blocks_per_query", run.blocks_per_query(), "blocks"),
        Metric::new("storage.bufferpool.hit_ratio", d.bp_hit_ratio(), "ratio"),
        Metric::new("storage.bufferpool.miss_fetch_p50_us", d.bp_fetch_us.p50 as f64, "us"),
        Metric::new("storage.bufferpool.miss_fetch_p99_us", d.bp_fetch_us.p99 as f64, "us"),
        Metric::new("core.osp.attaches", per_query(d.osp_attaches), "count"),
        Metric::new("core.osp.rejections", per_query(d.osp_rejections), "count"),
        Metric::new("core.scan.wraps", per_query(d.circular_wraps), "count"),
        Metric::new("core.scan.morsels", per_query(d.morsels_dispatched), "count"),
        Metric::new("core.scan.pruned_pages", per_query(d.pruned_pages), "count"),
        Metric::new("core.pool.queue_wait_p50_us", d.pool_queue_wait_us.p50 as f64, "us"),
        Metric::new("core.pool.queue_wait_p99_us", d.pool_queue_wait_us.p99 as f64, "us"),
        // A high-water mark since boot, not a per-query count.
        Metric::new("core.pool.queue_depth_peak", run.after.pool_queue_depth as f64, "count"),
    ];
    for pool in POOLS {
        let busy_ns = d.per_engine_busy_ns.get(pool).copied().unwrap_or(0);
        out.push(Metric::new(format!("core.pool.busy_ms.{pool}"), busy_ns as f64 / 1e6 / n, "ms"));
    }
    out.extend([
        Metric::new("core.admit.wait_p50_us", d.admission_wait_us.p50 as f64, "us"),
        Metric::new("core.admit.wait_p99_us", d.admission_wait_us.p99 as f64, "us"),
        Metric::new("core.admit.queued", per_query(d.queued), "count"),
        Metric::new("core.deadlock.resolved", per_query(d.deadlocks_resolved), "count"),
        Metric::new("exec.vec_fallbacks", per_query(d.vec_fallbacks), "count"),
        Metric::new("exec.rowified_batches", per_query(d.col_rowified_batches), "count"),
        // The governor's high-water mark since boot, in tuples.
        Metric::new("common.govern.mem_peak", run.after.mem_peak as f64, "tuples"),
        Metric::new("process.cpu_ms", (run.proc_end.cpu_ms - run.proc_start.cpu_ms) / n, "ms"),
        Metric::new(
            "process.ctx_switches",
            per_query(run.proc_end.ctx_switches.saturating_sub(run.proc_start.ctx_switches)),
            "count",
        ),
        Metric::new(
            "process.threads_peak",
            run.proc_start.threads.max(run.proc_end.threads) as f64,
            "count",
        ),
    ]);
    out
}

/// Sums over the traced queries of a window.
#[derive(Default)]
struct Fold {
    queries: u64,
    plan_ns: u64,
    submit_ns: u64,
    collect_ns: u64,
    verify_ns: u64,
    query_ns: u64,
    root_ns: u64,
    admit_wait_us: u64,
    dropped: u64,
    op_busy_ns: [u64; OPS.len()],
    op_pipe_wait_ns: [u64; OPS.len()],
    scan_busy_ns: u64,
    scan_io_wait_ns: u64,
    pages_from_host: u64,
    pages_from_disk: u64,
}

impl Fold {
    fn profile(&mut self, node: &QueryProfile) {
        let s = &node.stats;
        if node.op == "scan" {
            self.scan_busy_ns += s.busy_ns;
            self.scan_io_wait_ns += s.io_wait_ns;
            self.pages_from_host += s.pages_from_host;
            self.pages_from_disk += s.pages_from_disk;
        } else if let Some(i) = OPS.iter().position(|op| *op == node.op) {
            self.op_busy_ns[i] += s.busy_ns;
            self.op_pipe_wait_ns[i] += s.pipe_wait_ns;
        }
        node.children.iter().for_each(|c| self.profile(c));
    }
}

/// Time an operator's probe accounts for: busy plus its two kinds of wait.
fn total_ns(node: &QueryProfile) -> u64 {
    node.stats.busy_ns + node.stats.pipe_wait_ns + node.stats.io_wait_ns
}

/// Add `node` and its subtree to the log as children of `parent`.
///
/// Probes carry durations, not timestamps. An operator's end is taken from
/// its `OperatorFinished` journal entry (stamped relative to submission,
/// `origin_ns`) when one matches its counters, else from `fallback_end`;
/// its start is that end minus the probe's total.
fn push_operator_spans(
    log: &mut SpanLog,
    node: &QueryProfile,
    parent: usize,
    query: u64,
    origin_ns: u64,
    fallback_end: u64,
    finished: &mut Vec<&TimedEvent>,
) {
    let matches = |ev: &TimedEvent| match &ev.event {
        TraceEvent::OperatorFinished { op, rows, batches, busy_ns, pipe_wait_ns, io_wait_ns } => {
            *op == node.op
                && (*rows, *batches, *busy_ns, *pipe_wait_ns, *io_wait_ns)
                    == (
                        node.stats.rows,
                        node.stats.batches,
                        node.stats.busy_ns,
                        node.stats.pipe_wait_ns,
                        node.stats.io_wait_ns,
                    )
        }
        _ => false,
    };
    let end = match finished.iter().position(|ev| matches(ev)) {
        Some(i) => origin_ns + finished.swap_remove(i).at_us * 1000,
        None => fallback_end,
    };
    let id = log.push(
        format!("core.ops.{}", node.op),
        end.saturating_sub(total_ns(node)),
        end,
        Some(parent),
        query,
    );
    for child in &node.children {
        push_operator_spans(log, child, id, query, origin_ns, fallback_end, finished);
    }
}

fn push_query_spans(
    log: &mut SpanLog,
    fold: &mut Fold,
    query: u64,
    start_ns: u64,
    rec: &QueryTraceRecord,
) {
    let dur = |(s, e): (u64, u64)| e - s;
    let root = log.push("query", start_ns, rec.verify.1, None, query);
    if let Some(plan) = rec.plan {
        log.push("planner.plan", plan.0, plan.1, Some(root), query);
        fold.plan_ns += dur(plan);
    }
    log.push("core.engine.submit", rec.submit.0, rec.submit.1, Some(root), query);
    log.push("core.engine.collect", rec.collect.0, rec.collect.1, Some(root), query);
    log.push("bench.verify", rec.verify.0, rec.verify.1, Some(root), query);
    if let Some(profile) = &rec.profile {
        let mut finished: Vec<&TimedEvent> = rec
            .events
            .iter()
            .filter(|ev| matches!(ev.event, TraceEvent::OperatorFinished { .. }))
            .collect();
        push_operator_spans(log, profile, root, query, rec.submit.0, rec.collect.1, &mut finished);
        fold.profile(profile);
        fold.root_ns += total_ns(profile);
    }
    fold.queries += 1;
    fold.submit_ns += dur(rec.submit);
    fold.collect_ns += dur(rec.collect);
    fold.verify_ns += dur(rec.verify);
    fold.query_ns += rec.verify.1 - start_ns;
    fold.dropped += rec.dropped_events;
    fold.admit_wait_us += rec
        .events
        .iter()
        .map(|ev| match ev.event {
            TraceEvent::Admitted { waited_us } => waited_us,
            _ => 0,
        })
        .sum::<u64>();
}

/// Fold the completed queries of a traced run into the span log and the
/// traced per-layer metrics.
pub fn trace_metrics(run: &LoopResult) -> (Vec<Metric>, SpanLog) {
    let mut log = SpanLog::default();
    let mut fold = Fold::default();
    let mut roots = Vec::new();
    for (query, sample) in run.in_window().filter(|s| s.outcome.is_ok()).enumerate() {
        if let Some(rec) = &sample.trace {
            roots.push(log.spans().len());
            push_query_spans(&mut log, &mut fold, query as u64, sample.start_ns, rec);
        }
    }
    let self_ns = log.self_times_ns();
    let unattributed_ns: u64 = roots.iter().map(|&r| self_ns[r]).sum();

    let n = fold.queries.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let mut out = vec![
        Metric::new("planner.plan_ms", ms(fold.plan_ns), "ms"),
        Metric::new("core.engine.submit_ms", ms(fold.submit_ns), "ms"),
        Metric::new("core.engine.collect_ms", ms(fold.collect_ns), "ms"),
        Metric::new("bench.verify_ms", ms(fold.verify_ns), "ms"),
    ];
    for (i, op) in OPS.iter().enumerate() {
        out.push(Metric::new(format!("core.ops.{op}.busy_ms"), ms(fold.op_busy_ns[i]), "ms"));
        out.push(Metric::new(
            format!("core.ops.{op}.pipe_wait_ms"),
            ms(fold.op_pipe_wait_ns[i]),
            "ms",
        ));
    }
    let pages = fold.pages_from_host + fold.pages_from_disk;
    out.extend([
        Metric::new("core.scan.busy_ms", ms(fold.scan_busy_ns), "ms"),
        Metric::new("core.scan.io_wait_ms", ms(fold.scan_io_wait_ns), "ms"),
        Metric::new(
            "core.scan.pages_from_host_frac",
            fold.pages_from_host as f64 / pages.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.admit.wait_ms", fold.admit_wait_us as f64 / 1e3 / n, "ms"),
        Metric::new(
            "trace.root_coverage",
            fold.root_ns as f64 / fold.query_ns.max(1) as f64,
            "ratio",
        ),
        Metric::new("trace.unattributed_ms", ms(unattributed_ns), "ms"),
        Metric::new("trace.dropped_events", fold.dropped as f64, "count"),
    ]);
    (out, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::trace::OpStats;

    /// The driver refuses a run that lacks a metric `BENCHMARK.json` lists,
    /// so every name produced here must be declared there.
    #[test]
    fn every_layer_metric_is_declared_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let empty = LoopResult {
            samples: Vec::new(),
            window: (0, 1),
            delta: Default::default(),
            after: Default::default(),
            proc_start: Default::default(),
            proc_end: Default::default(),
        };
        let (traced, log) = trace_metrics(&empty);
        assert!(log.spans().is_empty());
        for m in engine_metrics(&empty).into_iter().chain(traced) {
            let entry = format!(r#"{{"name": "{}", "unit": "{}", "#, m.name, m.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(m.value.is_finite(), "{} on an empty window", m.name);
        }
    }

    fn node(
        op: &'static str,
        busy: u64,
        pipe: u64,
        io: u64,
        children: Vec<QueryProfile>,
    ) -> QueryProfile {
        QueryProfile {
            op,
            stats: OpStats {
                busy_ns: busy,
                pipe_wait_ns: pipe,
                io_wait_ns: io,
                ..OpStats::default()
            },
            children,
        }
    }

    #[test]
    fn operator_spans_end_at_their_journal_entry_and_nest_like_the_plan() {
        let profile = node("agg", 100, 800, 0, vec![node("scan", 0, 0, 600, vec![])]);
        let finished = |op, at_us, busy_ns, pipe_wait_ns, io_wait_ns| TimedEvent {
            at_us,
            event: TraceEvent::OperatorFinished {
                op,
                rows: 0,
                batches: 0,
                busy_ns,
                pipe_wait_ns,
                io_wait_ns,
            },
        };
        let rec = QueryTraceRecord {
            plan: Some((1_000, 2_000)),
            submit: (2_000, 3_000),
            collect: (3_000, 4_000_000),
            verify: (4_000_000, 4_001_000),
            profile: Some(profile),
            events: vec![
                TimedEvent { at_us: 1, event: TraceEvent::Admitted { waited_us: 7 } },
                finished("scan", 3, 0, 0, 600),
                finished("agg", 4, 100, 800, 0),
            ],
            dropped_events: 2,
        };
        let mut log = SpanLog::default();
        let mut fold = Fold::default();
        push_query_spans(&mut log, &mut fold, 9, 1_000, &rec);

        let by_name = |name: &str| log.spans().iter().position(|s| s.name == name).unwrap();
        let (agg, scan) = (by_name("core.ops.agg"), by_name("core.ops.scan"));
        assert_eq!(log.spans()[agg].parent, Some(by_name("query")));
        assert_eq!(log.spans()[scan].parent, Some(agg));
        // Ends are the journal stamps (µs after submission), starts are end − total.
        assert_eq!(
            (log.spans()[agg].start_ns, log.spans()[agg].end_ns),
            (2_000 + 4_000 - 900, 6_000)
        );
        assert_eq!(
            (log.spans()[scan].start_ns, log.spans()[scan].end_ns),
            (2_000 + 3_000 - 600, 5_000)
        );
        assert!(log.spans().iter().all(|s| s.query == 9));

        assert_eq!((fold.queries, fold.dropped, fold.admit_wait_us), (1, 2, 7));
        assert_eq!((fold.root_ns, fold.scan_io_wait_ns), (900, 600));
        assert_eq!(fold.op_pipe_wait_ns[OPS.iter().position(|o| *o == "agg").unwrap()], 800);
        assert_eq!(fold.query_ns, 4_000_000);
    }
}
