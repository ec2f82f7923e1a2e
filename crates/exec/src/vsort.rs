//! Vectorized (batch-native) external sort over [`ColBatch`]es.
//!
//! [`SortIter`](crate::iter::SortIter) pulls one `Tuple` at a time, which
//! forced the sort µEngine to flatten every columnar batch arriving from the
//! vectorized scan/filter/project/join path back into `Vec<Tuple>`.
//! [`VecSort`] keeps the whole pipeline columnar:
//!
//! * **Accumulate** — input batches concatenate into one growing
//!   [`ColBatch`] (typed column extends via [`ColBatchBuilder`], no row
//!   materialization).
//! * **Sort** — a stable *permutation* is sorted over the key columns only
//!   ([`ColBatch::sort_perm`]: typed comparators per column —
//!   int/float/date/str, asc/desc, NULLs first exactly like
//!   [`Value::total_cmp`](qpipe_common::Value::total_cmp)); payload columns
//!   move once, gathered by [`ColBatch::take`].
//! * **Spill** — when the accumulator exceeds `sort_budget`, the sorted run
//!   is written as a *columnar* run ([`ColRunWriter`]: typed value regions
//!   and packed null bitmaps per chunk) and the runs are k-way merged
//!   batch-at-a-time, emitting through per-column slot appends
//!   ([`ColBatchBuilder::push_row_from`]) that keep the typed
//!   representation.
//!
//! **Output order is bit-identical to `SortIter`**: the permutation sort is
//! stable, runs are consecutive input chunks, and the merge tie-breaks equal
//! keys on run index — together that is exactly the stable total order the
//! row path produces, independent of where the run boundaries fall. The
//! seeded property suite in `tests/properties.rs` pins the two engines to
//! each other over multi-key asc/desc, NULLs, cross-type numeric extremes at
//! the 2^53 boundary, duplicate keys, and budget-forced spills.
//!
//! Temp-file lifecycle: columnar runs delete themselves when the last handle
//! drops (see [`spill`](crate::spill)), so a cancelled or failed sort
//! leaks nothing.

use crate::iter::ExecContext;
use crate::plan::SortKey;
use crate::spill::{ColRunHandle, ColRunReader, ColRunWriter};
use qpipe_common::colbatch::{ColBatch, ColBatchBuilder};
use qpipe_common::{MemClass, MemLease, QError, QResult};
use std::cmp::Ordering;

/// Rows per emitted output batch (the pipe-granularity chunk size).
const OUT_CHUNK: usize = ColBatch::DEFAULT_CAPACITY;

/// Minimum rows a sort buffers before a governor denial may spill a run
/// (clamped to the sort budget so tiny configured budgets keep their exact
/// spill points). Under sustained global-budget starvation a denial can
/// arrive at every row; without this floor each row would become its own
/// run file and the k-way merge fan-in would explode. The floor bounds the
/// overshoot at one small run per sort operator.
const MIN_SPILL_ROWS: usize = 64;

/// Batch-native external sort; the vectorized analogue of
/// [`SortIter`](crate::iter::SortIter). See the module docs for the phase
/// structure and the bit-identical-order guarantee.
pub struct VecSort {
    keys: Vec<SortKey>,
    ctx: ExecContext,
    builder: ColBatchBuilder,
    runs: Vec<ColRunHandle>,
    /// Governor lease covering the accumulator; a denied grant spills a run.
    lease: MemLease,
    /// Width established by the first non-empty batch. Tracked here (not
    /// just in `builder`, which resets after every spill) so a batch of
    /// another width arriving between runs is still refused.
    width: Option<usize>,
}

impl VecSort {
    pub fn new(keys: &[SortKey], ctx: ExecContext) -> Self {
        let keys = keys.to_vec();
        let lease = ctx.governor.lease(MemClass::Sort);
        Self { keys, ctx, builder: ColBatchBuilder::new(), runs: Vec::new(), lease, width: None }
    }

    /// Rows accumulated so far (buffered + spilled).
    pub fn rows(&self) -> u64 {
        self.builder.len() as u64 + self.runs.iter().map(|r| r.rows()).sum::<u64>()
    }

    /// Append one columnar batch. Errs (appending nothing) when the batch's
    /// width disagrees with earlier input: one stream has one width, so a
    /// mismatch is a broken producer and fails the sort rather than misalign
    /// columns.
    pub fn add(&mut self, batch: &ColBatch) -> QResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let width = *self.width.get_or_insert(batch.num_cols());
        if width != batch.num_cols() || !self.builder.append(batch) {
            return Err(QError::Exec(format!(
                "sort input changed width from {width} to {} columns mid-stream",
                batch.num_cols()
            )));
        }
        self.maybe_spill()
    }

    /// Spill when the governor refuses to cover the accumulator — either
    /// this sort reached its own budget, or concurrent queries exhausted the
    /// global memory budget (overflow-to-spill is a governor decision). A
    /// denied accumulator below the minimum-run floor keeps growing instead
    /// of spilling (see [`MIN_SPILL_ROWS`] — bounds run fan-out under
    /// sustained starvation).
    fn maybe_spill(&mut self) -> QResult<()> {
        let floor = self.ctx.config.sort_budget.min(MIN_SPILL_ROWS);
        if self.builder.len() < floor || self.lease.covers(self.builder.len()) {
            return Ok(());
        }
        self.spill_run()?;
        self.lease.shrink_to(0);
        Ok(())
    }

    /// Sort the accumulator into a columnar run on disk.
    fn spill_run(&mut self) -> QResult<()> {
        let batch = std::mem::take(&mut self.builder).finish();
        let perm = batch.sort_perm(&self.keys);
        let sorted = batch.take(&perm);
        let mut w = ColRunWriter::create(self.ctx.catalog.disk().clone(), "vsortrun")?;
        w.push_batch(&sorted)?;
        self.runs.push(w.finish()?);
        Ok(())
    }

    /// Phase 2: emit the fully sorted stream as `≤ OUT_CHUNK`-row columnar
    /// batches through `emit`. `emit` returns `false` to stop early (the
    /// caller's cancellation hook). Consumes the sort; spilled runs delete
    /// their temp files as the merge drops them.
    pub fn finish(mut self, mut emit: impl FnMut(ColBatch) -> bool) -> QResult<()> {
        if self.runs.is_empty() {
            // Fully in-memory: one permutation sort, gathered chunk-wise.
            let batch = self.builder.finish();
            if batch.is_empty() {
                return Ok(());
            }
            let perm = batch.sort_perm(&self.keys);
            for chunk in perm.chunks(OUT_CHUNK) {
                if !emit(batch.take(chunk)) {
                    return Ok(());
                }
            }
            return Ok(());
        }
        if !self.builder.is_empty() {
            self.spill_run()?;
        }
        // One cursor per run with rows, in run order.
        let mut cursors = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            cursors.extend(Cursor::open(run.reader())?);
        }
        // Index min-heap over the live cursors, ordered by (head-row keys,
        // cursor index) — O(log k) per emitted row. Cursors keep run order,
        // so ties break on the lower run index, exactly the row-path merge
        // heap's stability rule.
        let mut heap: Vec<usize> = (0..cursors.len()).collect();
        for i in (0..heap.len() / 2).rev() {
            sift_down(&mut heap, &cursors, &self.keys, i);
        }
        let mut out = ColBatchBuilder::new();
        while let Some(&top) = heap.first() {
            let c = &mut cursors[top];
            let appended = out.push_row_from(&c.batch, c.pos);
            debug_assert!(appended, "runs share one width by construction");
            if !c.advance()? {
                // Run exhausted: drop it from the heap.
                let last = heap.len() - 1;
                heap.swap(0, last);
                heap.pop();
            }
            sift_down(&mut heap, &cursors, &self.keys, 0);
            if out.len() >= OUT_CHUNK && !emit(std::mem::take(&mut out).finish()) {
                return Ok(());
            }
        }
        if !out.is_empty() && !emit(out.finish()) {
            return Ok(());
        }
        Ok(())
    }
}

/// `cursors[a]`'s head row strictly before `cursors[b]`'s, tie-breaking on
/// the cursor index (run order).
fn head_less(cursors: &[Cursor], keys: &[SortKey], a: usize, b: usize) -> bool {
    let (ca, cb) = (&cursors[a], &cursors[b]);
    match ca.batch.cmp_rows(ca.pos, &cb.batch, cb.pos, keys) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a < b,
    }
}

/// Restore the min-heap property downward from `i`.
fn sift_down(heap: &mut [usize], cursors: &[Cursor], keys: &[SortKey], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut m = i;
        if l < heap.len() && head_less(cursors, keys, heap[l], heap[m]) {
            m = l;
        }
        if r < heap.len() && head_less(cursors, keys, heap[r], heap[m]) {
            m = r;
        }
        if m == i {
            return;
        }
        heap.swap(i, m);
        i = m;
    }
}

/// Read position within one spilled run during the k-way merge: always at
/// a row.
struct Cursor {
    reader: ColRunReader,
    batch: ColBatch,
    pos: usize,
}

impl Cursor {
    /// A cursor at the run's first row; `None` for a run with no rows.
    fn open(reader: ColRunReader) -> QResult<Option<Self>> {
        let mut c = Cursor { reader, batch: ColBatch::empty_rows(0), pos: 0 };
        Ok(c.fill()?.then_some(c))
    }

    /// Step to the next row; `false` once the run is exhausted.
    fn advance(&mut self) -> QResult<bool> {
        self.pos += 1;
        self.fill()
    }

    /// Load chunks until `pos` is a row, skipping empty ones (the writer
    /// never emits them); `false` at the run's end.
    fn fill(&mut self) -> QResult<bool> {
        while self.pos >= self.batch.len() {
            let Some(batch) = self.reader.next_batch()? else {
                return Ok(false);
            };
            (self.batch, self.pos) = (batch, 0);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::{ExecConfig, SortIter, TupleIter, VecIter};
    use qpipe_common::{Metrics, Tuple, Value};
    use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};

    fn ctx_with_budget(budget: usize) -> ExecContext {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
        let catalog = Catalog::new(disk, pool);
        ExecContext::with_config(
            catalog,
            ExecConfig { sort_budget: budget, ..ExecConfig::default() },
        )
    }

    fn reference_sort(rows: Vec<Tuple>, keys: &[SortKey]) -> Vec<Tuple> {
        let mut it = SortIter::new(Box::new(VecIter::new(rows)), keys.to_vec());
        let mut out = Vec::new();
        while let Some(t) = it.next().unwrap() {
            out.push(t);
        }
        out
    }

    fn vec_sort(rows: &[Tuple], keys: &[SortKey], ctx: &ExecContext, chunk: usize) -> Vec<Tuple> {
        let mut vs = VecSort::new(keys, ctx.clone());
        for window in rows.chunks(chunk.max(1)) {
            vs.add(&ColBatch::from_rows(window)).unwrap();
        }
        let mut out = Vec::new();
        vs.finish(|b| {
            out.extend(b.to_rows());
            true
        })
        .unwrap();
        out
    }

    fn adversarial_rows(n: i64) -> Vec<Tuple> {
        let big = 1i64 << 53;
        (0..n)
            .map(|i| {
                let key = match i % 7 {
                    0 => Value::Null,
                    1 => Value::Int(i % 5),
                    2 => Value::Float((i % 5) as f64),
                    3 => Value::Int(big + (i % 3)),
                    4 => Value::Float((big + (i % 3)) as f64),
                    5 => Value::Date((i % 4) as i32),
                    _ => Value::str(format!("s{}", i % 6)),
                };
                vec![key, Value::Int(i % 3), Value::Int(i)]
            })
            .collect()
    }

    #[test]
    fn in_memory_sort_is_bit_identical_to_sort_iter() {
        let ctx = ctx_with_budget(1 << 20);
        let rows = adversarial_rows(500);
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        assert_eq!(vec_sort(&rows, &keys, &ctx, 64), reference_sort(rows.clone(), &keys));
    }

    #[test]
    fn spilled_sort_is_bit_identical_to_sort_iter() {
        // Budget of 37 forces many runs; duplicate keys make stability (and
        // the run-index tie-break) observable through the payload column.
        let ctx = ctx_with_budget(37);
        let rows = adversarial_rows(600);
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        let disk = ctx.catalog.disk().clone();
        let baseline = disk.file_count();
        assert_eq!(vec_sort(&rows, &keys, &ctx, 50), reference_sort(rows.clone(), &keys));
        assert_eq!(disk.file_count(), baseline, "all spill temps deleted");
    }

    #[test]
    fn early_stop_drops_runs_and_their_files() {
        let ctx = ctx_with_budget(16);
        let disk = ctx.catalog.disk().clone();
        let baseline = disk.file_count();
        let mut vs = VecSort::new(&[SortKey::asc(0)], ctx.clone());
        let rows: Vec<Tuple> = (0..200).map(|i| vec![Value::Int(i)]).collect();
        for window in rows.chunks(50) {
            vs.add(&ColBatch::from_rows(window)).unwrap();
        }
        assert!(disk.file_count() > baseline, "runs spilled");
        let mut emitted = 0;
        vs.finish(|_| {
            emitted += 1;
            false // cancelled after the first batch
        })
        .unwrap();
        assert_eq!(emitted, 1);
        assert_eq!(disk.file_count(), baseline, "cancelled merge deletes every run");
    }

    #[test]
    fn width_change_fails_the_sort_even_across_a_spill() {
        let ctx = ctx_with_budget(8);
        let mut vs = VecSort::new(&[SortKey::asc(0)], ctx);
        let wide: Vec<Tuple> = (0..20).map(|i| vec![Value::Int(i), Value::Int(0)]).collect();
        vs.add(&ColBatch::from_rows(&wide)).unwrap();
        let err = vs.add(&ColBatch::from_rows(&[vec![Value::Int(1)]])).unwrap_err();
        assert!(matches!(err, QError::Exec(_)), "got {err:?}");
        assert_eq!(vs.rows(), 20, "the refused batch appended nothing");
    }

    #[test]
    fn empty_input_emits_nothing() {
        let ctx = ctx_with_budget(8);
        let vs = VecSort::new(&[SortKey::asc(0)], ctx);
        let mut n = 0;
        vs.finish(|_| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 0);
    }
}
