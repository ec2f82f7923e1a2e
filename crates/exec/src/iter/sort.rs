//! External merge sort.
//!
//! Phase 1 (run generation) accumulates up to the memory budget, sorts, and
//! spills runs to temp files; phase 2 k-way-merges the runs. When the input
//! fits in budget the sort stays fully in memory. The paper treats sort as a
//! two-phase operator (§3.2): phase 1 is a *full* overlap (any newcomer can
//! share), phase 2 pipelines like a file scan.

use super::spill::{RunHandle, RunReader, RunWriter};
use super::{ExecContext, TupleIter};
use crate::plan::SortKey;
use qpipe_common::{MemClass, MemLease, QResult, Tuple};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Compare two tuples on a key list.
pub fn cmp_keys(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.col].cmp(&b[k.col]);
        let ord = if k.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

enum SortState {
    /// Not yet executed: the unread input.
    Pending(Box<dyn TupleIter>),
    /// Fully in-memory result.
    Memory(std::vec::IntoIter<Tuple>),
    /// Merging spilled runs.
    Merge(MergeState),
    Done,
}

pub struct SortIter {
    keys: Vec<SortKey>,
    ctx: ExecContext,
    /// Governor lease covering the in-memory buffer; released when the
    /// operator drops (or shrunk after each spilled run).
    lease: MemLease,
    state: SortState,
}

impl SortIter {
    pub fn new(input: Box<dyn TupleIter>, keys: Vec<SortKey>, ctx: ExecContext) -> Self {
        let lease = ctx.governor.lease(MemClass::Sort);
        Self { keys, ctx, lease, state: SortState::Pending(input) }
    }

    /// Phase 1: consume the input, producing either an in-memory sorted
    /// vector or a set of spilled runs. The run buffer grows under a
    /// governor lease; a denied grant (sort budget reached, or no global
    /// headroom left under concurrent queries) spills the run.
    fn run_phase1(&mut self, mut input: Box<dyn TupleIter>) -> QResult<SortState> {
        let floor = self.ctx.config.sort_budget.min(super::MIN_SPILL_ROWS);
        let mut buf: Vec<Tuple> = Vec::new();
        let mut runs: Vec<RunHandle> = Vec::new();
        while let Some(t) = input.next()? {
            buf.push(t);
            if buf.len() >= floor && !self.lease.covers(buf.len()) {
                buf.sort_by(|a, b| cmp_keys(a, b, &self.keys));
                let mut w = RunWriter::create(self.ctx.catalog.disk().clone(), "sortrun")?;
                for t in buf.drain(..) {
                    w.push(&t)?;
                }
                runs.push(w.finish()?);
                self.lease.shrink_to(0);
            }
        }
        buf.sort_by(|a, b| cmp_keys(a, b, &self.keys));
        if runs.is_empty() {
            return Ok(SortState::Memory(buf.into_iter()));
        }
        if !buf.is_empty() {
            let mut w = RunWriter::create(self.ctx.catalog.disk().clone(), "sortrun")?;
            for t in buf.drain(..) {
                w.push(&t)?;
            }
            runs.push(w.finish()?);
        }
        Ok(SortState::Merge(MergeState::open(runs, self.keys.clone())?))
    }
}

impl TupleIter for SortIter {
    fn next(&mut self) -> QResult<Option<Tuple>> {
        loop {
            match &mut self.state {
                SortState::Pending(_) => {
                    if let SortState::Pending(input) =
                        std::mem::replace(&mut self.state, SortState::Done)
                    {
                        self.state = self.run_phase1(input)?;
                    }
                }
                SortState::Memory(it) => {
                    return Ok(match it.next() {
                        Some(t) => Some(t),
                        None => {
                            self.state = SortState::Done;
                            None
                        }
                    })
                }
                SortState::Merge(m) => {
                    return Ok(match m.next()? {
                        Some(t) => Some(t),
                        None => {
                            self.state = SortState::Done;
                            None
                        }
                    })
                }
                SortState::Done => return Ok(None),
            }
        }
    }
}

/// Heap entry ordering for the k-way merge (min-heap via reversed compare).
struct HeapEntry {
    tuple: Tuple,
    run: usize,
    keys: std::sync::Arc<[SortKey]>,
}

impl PartialEq for HeapEntry {
    /// Consistent with [`Ord`]: equality requires key-equality *and* the same
    /// run index. (Comparing keys only while `cmp` tie-breaks on run index
    /// violated the `Ord` contract — `a == b` with `a.cmp(b) != Equal`.)
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on run index for stability.
        cmp_keys(&other.tuple, &self.tuple, &self.keys).then_with(|| other.run.cmp(&self.run))
    }
}

pub(crate) struct MergeState {
    readers: Vec<RunReader>,
    heap: BinaryHeap<HeapEntry>,
    keys: std::sync::Arc<[SortKey]>,
}

impl MergeState {
    fn open(runs: Vec<RunHandle>, keys: Vec<SortKey>) -> QResult<Self> {
        let keys: std::sync::Arc<[SortKey]> = keys.into();
        let mut readers: Vec<RunReader> = runs.iter().map(|r| r.reader()).collect();
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(t) = r.next()? {
                heap.push(HeapEntry { tuple: t, run: i, keys: keys.clone() });
            }
        }
        Ok(Self { readers, heap, keys })
    }

    fn next(&mut self) -> QResult<Option<Tuple>> {
        let Some(top) = self.heap.pop() else {
            return Ok(None);
        };
        let run = top.run;
        if let Some(t) = self.readers[run].next()? {
            self.heap.push(HeapEntry { tuple: t, run, keys: self.keys.clone() });
        }
        Ok(Some(top.tuple))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Value;

    /// Regression: `HeapEntry::eq` compared keys only while `cmp` tie-broke
    /// on run index, so two entries could be `==` yet not `cmp == Equal`.
    #[test]
    fn heap_entry_eq_is_consistent_with_ord() {
        let keys: std::sync::Arc<[SortKey]> = vec![SortKey::asc(0)].into();
        let entry = |v: i64, run: usize| HeapEntry {
            tuple: vec![Value::Int(v), Value::Int(run as i64)],
            run,
            keys: keys.clone(),
        };
        let (a, b) = (entry(5, 0), entry(5, 1));
        assert_ne!(a.cmp(&b), Ordering::Equal, "run index tie-breaks");
        assert!(a != b, "eq must agree with cmp (Ord contract)");
        assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
        // Same key, same run: genuinely equal both ways.
        let c = entry(5, 0);
        assert!(a == c && a.cmp(&c) == Ordering::Equal);
        // Min-heap order: smaller key pops first; equal keys pop in run
        // order (the merge's stability tie-break) — unchanged by the fix.
        let mut heap = BinaryHeap::new();
        heap.push(entry(9, 0));
        heap.push(entry(3, 2));
        heap.push(entry(3, 1));
        let order: Vec<(i64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.tuple[0].as_int().unwrap(), e.run))
            .collect();
        assert_eq!(order, vec![(3, 1), (3, 2), (9, 0)]);
    }
}
