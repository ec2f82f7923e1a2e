//! The row bridge: the one place the staged engine meets tuples.
//!
//! Pipes carry `Arc<ColBatch>` and nothing else, but four operators still run
//! the iterator-model kernels of `qpipe_exec::iter` — nested-loop join, merge
//! join with wrap restart (§4.3.2), range-bounded index scans, and the grace
//! hash join taken when the governor refuses a vectorized build. No benchmark
//! workload plans any of them, so they keep their kernels and cross here:
//!
//! * **in** — [`PipeIter`] flattens each arriving batch to tuples and counts
//!   it (`Metrics::col_rowified_batches`: "batches that crossed the row
//!   bridge"; 0 for every plan without one of these operators);
//! * **out** — [`drain_into_host`] cuts the kernel's tuple stream into
//!   [`ColBatch::DEFAULT_CAPACITY`]-row chunks and broadcasts each as
//!   `ColBatch::from_rows`.
//!
//! This file is the only one in `qpipe-core` that names `TupleIter` or an
//! `exec::iter` operator (CI greps for it); vectorizing one of the four means
//! deleting its function here.

use crate::host::SharedHost;
use crate::ops::{stop, OpEnv};
use crate::packet::CancelToken;
use crate::pipe::PipeConsumer;
use qpipe_common::{ColBatch, Metrics, QResult, Tuple, Value};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::{
    build, HashJoinIter, MergeJoinIter, NestedLoopJoinIter, TupleIter, VecIter,
};
use qpipe_exec::plan::PlanNode;
use qpipe_exec::viter::HashJoinBuild;

/// A pipe consumer as a pull iterator: columns → tuples, one counted batch
/// at a time.
struct PipeIter {
    consumer: PipeConsumer,
    current: std::vec::IntoIter<Tuple>,
    metrics: Metrics,
}

impl PipeIter {
    fn new(consumer: PipeConsumer, metrics: &Metrics) -> Self {
        Self { consumer, current: Vec::new().into_iter(), metrics: metrics.clone() }
    }
}

impl TupleIter for PipeIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.current.next() {
                return Ok(Some(t));
            }
            let Some(batch) = self.consumer.recv()? else { return Ok(None) };
            self.metrics.add_col_rowified();
            self.current = batch.to_rows().into_iter();
        }
    }
}

/// Sources drained in order, front to back: what a refused hash-join build
/// had buffered, then the rest of its pipe.
struct SeqIter(Vec<Box<dyn TupleIter>>);

impl TupleIter for SeqIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        while let Some(first) = self.0.first_mut() {
            if let Some(t) = first.next()? {
                return Ok(Some(t));
            }
            self.0.remove(0);
        }
        Ok(None)
    }
}

/// Drive an iterator kernel to completion: tuples → `ColBatch` chunks,
/// broadcast through the host.
fn drain_into_host(mut it: impl TupleIter, host: &SharedHost, cancel: &CancelToken) -> QResult<()> {
    let mut rows: Vec<Tuple> = Vec::with_capacity(ColBatch::DEFAULT_CAPACITY);
    loop {
        if stop(cancel, host) {
            return Ok(());
        }
        match it.next()? {
            Some(t) => {
                rows.push(t);
                if rows.len() == ColBatch::DEFAULT_CAPACITY {
                    host.push_cols(ColBatch::from_rows(&rows));
                    rows.clear();
                }
            }
            None => {
                if !rows.is_empty() {
                    host.push_cols(ColBatch::from_rows(&rows));
                }
                return Ok(());
            }
        }
    }
}

pub(crate) fn run_nested_loop_join(
    mut children: Vec<PipeConsumer>,
    predicate: &Expr,
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let left = Box::new(PipeIter::new(children.remove(0), &env.metrics));
    let right = Box::new(PipeIter::new(children.remove(0), &env.metrics));
    drain_into_host(NestedLoopJoinIter::new(left, right, predicate.clone()), host, cancel)
}

/// Range-bounded clustered and unclustered index scans: nothing to flatten
/// on the way in (the kernel reads the table itself), batches on the way out.
pub(crate) fn run_index_scan(
    plan: &PlanNode,
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    drain_into_host(build(plan, &env.ctx)?, host, cancel)
}

/// Grace hash join over a build the governor refused: everything `buffered`
/// so far is replayed in front of the rest of the `left` pipe, and the
/// iterator engine's `HashJoinIter` partitions and spills as it always has.
pub(crate) fn run_grace_hash_join(
    buffered: HashJoinBuild,
    left: PipeConsumer,
    right: PipeConsumer,
    (left_key, right_key): (usize, usize),
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let l = Box::new(SeqIter(vec![
        Box::new(VecIter::new(buffered.into_rows())),
        Box::new(PipeIter::new(left, &env.metrics)),
    ]));
    let r = Box::new(PipeIter::new(right, &env.metrics));
    let it = HashJoinIter::new(l, r, left_key, right_key, env.ctx.clone());
    drain_into_host(it, host, cancel)
}

// ---------------------------------------------------------------------------
// Merge join with wrap restart (§4.3.2)
// ---------------------------------------------------------------------------

/// Pull iterator that stops at a *wrap* — the point where the key strictly
/// decreases — and can be resumed for the wrapped segment.
struct WrapSplitIter {
    inner: PipeIter,
    key: usize,
    last_key: Option<Value>,
    pending: Option<Tuple>,
    wrapped: bool,
    exhausted: bool,
}

impl WrapSplitIter {
    fn new(inner: PipeIter, key: usize) -> Self {
        Self { inner, key, last_key: None, pending: None, wrapped: false, exhausted: false }
    }

    /// Begin the post-wrap segment.
    fn resume(&mut self) {
        self.wrapped = false;
        self.last_key = None;
    }

    fn has_wrapped(&self) -> bool {
        self.wrapped
    }

    #[cfg(test)]
    fn is_exhausted(&self) -> bool {
        self.exhausted && self.pending.is_none()
    }
}

impl TupleIter for WrapSplitIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        if self.wrapped {
            return Ok(None); // segment boundary; call resume() to continue
        }
        let t = match self.pending.take() {
            Some(t) => Some(t),
            None => self.inner.next()?,
        };
        let Some(t) = t else {
            self.exhausted = true;
            return Ok(None);
        };
        let k = t[self.key].clone();
        if let Some(last) = &self.last_key {
            if k < *last {
                // Wrap detected: hold the tuple for the next segment.
                self.pending = Some(t);
                self.wrapped = true;
                return Ok(None);
            }
        }
        self.last_key = Some(k);
        Ok(Some(t))
    }
}

/// Merge join that tolerates one circular wrap on either input.
///
/// When an input wraps (its satellite scan attached mid-file, §4.3.2), the
/// OSP strategy is: finish joining segment 1 against the other relation, then
/// re-read the other relation *from its plan* (the paper's "worst case ...
/// reading the non-shared relation twice") and join segment 2 against it.
pub(crate) fn run_merge_join(
    mut children: Vec<PipeConsumer>,
    (left_plan, left_key): (&PlanNode, usize),
    (right_plan, right_key): (&PlanNode, usize),
    host: &SharedHost,
    cancel: &CancelToken,
    env: &OpEnv,
) -> QResult<()> {
    let left = PipeIter::new(children.remove(0), &env.metrics);
    let right = PipeIter::new(children.remove(0), &env.metrics);
    let mut lsplit = WrapSplitIter::new(left, left_key);
    let mut rsplit = WrapSplitIter::new(right, right_key);

    // Segment 1: both inputs until wrap/EOF.
    {
        let it =
            MergeJoinIter::new(TakeRef(&mut lsplit), TakeRef(&mut rsplit), left_key, right_key);
        drain_into_host(it, host, cancel)?;
    }
    let lwrap = lsplit.has_wrapped();
    let rwrap = rsplit.has_wrapped();
    if !lwrap && !rwrap {
        return Ok(());
    }
    // Drain the pre-wrap remainder of whichever side the merge join did not
    // fully consume is unnecessary: a wrapped side stops at the boundary, the
    // other side is simply dropped (detaching from its pipe/scan).
    if lwrap && rwrap {
        // The dispatcher marks at most one input as wrap-capable; if both
        // wrapped anyway (defensive), fall back to a full re-read of both.
        let fresh_l = build(left_plan, &env.ctx)?;
        let fresh_r = build(right_plan, &env.ctx)?;
        let it = MergeJoinIter::new(fresh_l, fresh_r, left_key, right_key);
        return drain_into_host(it, host, cancel);
    }
    if lwrap {
        lsplit.resume();
        let fresh_right = build(right_plan, &env.ctx)?;
        let it = MergeJoinIter::new(lsplit, fresh_right, left_key, right_key);
        drain_into_host(it, host, cancel)?;
    } else {
        rsplit.resume();
        let fresh_left = build(left_plan, &env.ctx)?;
        let it = MergeJoinIter::new(fresh_left, rsplit, left_key, right_key);
        drain_into_host(it, host, cancel)?;
    }
    Ok(())
}

/// Borrowing adapter so a `WrapSplitIter` can feed a `MergeJoinIter` and be
/// inspected/resumed afterwards.
struct TakeRef<'a>(&'a mut WrapSplitIter);

impl TupleIter for TakeRef<'_> {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock::{NodeId, WaitRegistry};
    use crate::pipe::{push_rows, Pipe, PipeConfig};
    use std::sync::Arc;

    fn feed(rows: Vec<Tuple>, metrics: &Metrics) -> PipeIter {
        let reg = Arc::new(WaitRegistry::default());
        let (mut p, consumer) =
            Pipe::pair(PipeConfig { capacity: 1024 }, NodeId(1), NodeId(2), reg);
        push_rows(&mut p, &rows);
        p.finish();
        PipeIter::new(consumer, metrics)
    }

    fn row(k: i64) -> Tuple {
        vec![Value::Int(k)]
    }

    #[test]
    fn pipe_iter_flattens_and_counts_every_batch() {
        let m = Metrics::new();
        let n = ColBatch::DEFAULT_CAPACITY as i64 * 2 + 10;
        let mut it = feed((0..n).map(row).collect(), &m);
        let mut next = 0;
        while let Some(t) = it.next().unwrap() {
            assert_eq!(t, row(next));
            next += 1;
        }
        assert_eq!(next, n);
        assert_eq!(m.snapshot().col_rowified_batches, 3, "one count per batch crossing");
    }

    #[test]
    fn wrap_split_detects_boundary() {
        let rows: Vec<Tuple> = [5, 6, 7, 1, 2, 3].iter().map(|&k| row(k)).collect();
        let mut w = WrapSplitIter::new(feed(rows, &Metrics::new()), 0);
        let mut seg1 = Vec::new();
        while let Some(t) = w.next().unwrap() {
            seg1.push(t[0].as_int().unwrap());
        }
        assert_eq!(seg1, vec![5, 6, 7]);
        assert!(w.has_wrapped());
        w.resume();
        let mut seg2 = Vec::new();
        while let Some(t) = w.next().unwrap() {
            seg2.push(t[0].as_int().unwrap());
        }
        assert_eq!(seg2, vec![1, 2, 3]);
        assert!(!w.has_wrapped());
        assert!(w.is_exhausted());
    }

    #[test]
    fn wrap_split_no_wrap() {
        let rows: Vec<Tuple> = [1, 2, 2, 3].iter().map(|&k| row(k)).collect();
        let mut w = WrapSplitIter::new(feed(rows, &Metrics::new()), 0);
        let mut all = Vec::new();
        while let Some(t) = w.next().unwrap() {
            all.push(t[0].as_int().unwrap());
        }
        assert_eq!(all, vec![1, 2, 2, 3]);
        assert!(!w.has_wrapped());
        assert!(w.is_exhausted());
    }

    #[test]
    fn wrap_split_empty_input() {
        let mut w = WrapSplitIter::new(feed(vec![], &Metrics::new()), 0);
        assert!(w.next().unwrap().is_none());
        assert!(w.is_exhausted());
        assert!(!w.has_wrapped());
    }
}
