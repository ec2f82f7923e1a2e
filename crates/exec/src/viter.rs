//! Vectorized (batch-native) operators over [`ColBatch`]es.
//!
//! The iterator operators in [`iter`](crate::iter) pull one `Tuple` at a
//! time, which forces every columnar batch arriving from the shared-scan hot
//! path to be flattened back into `Vec<Tuple>` at the operator boundary —
//! throwing away the kernel wins the scan paid for. The operators here
//! consume whole [`ColBatch`]es:
//!
//! * [`HashJoinBuild`] / [`HashJoinTable`] — build accumulates the left
//!   input into one contiguous batch (typed column concatenation, no row
//!   materialization), then [`HashJoinTable::probe`] matches an entire probe
//!   batch against it: key hashes come from the [`vexpr`](crate::vexpr)
//!   kernels over primitive slices, match pairs become index vectors, and
//!   the joined output is `take`-gathers plus an `hcat` — `Arc` bumps and
//!   primitive copies only.
//! * [`HashAgg`] — grouped aggregate update over column runs: group ids
//!   come from typed key hashes and typed slot equality (a key becomes
//!   `Value`s once per group, never per row), aggregate inputs are evaluated
//!   once per batch as columns ([`Expr::eval_project`](crate::expr::Expr),
//!   a plain column read in place), and `SUM`/`AVG`/`COUNT` over numeric
//!   columns fold primitive slices directly.
//!
//! Semantics are identical to [`HashJoinIter`] /
//! [`AggregateIter`](crate::iter::AggregateIter): NULL keys never join,
//! NULL aggregate inputs are skipped, group output is sorted by key — the
//! cross-operator parity suite in `tests/` holds them to it.
//!
//! [`HashJoinIter`]: crate::iter::HashJoinIter

use crate::plan::{AggFunc, AggSpec};
use crate::vexpr::{hash_key_column, key_eq, slot_eq_value};
use qpipe_common::colbatch::{ColBatch, ColBatchBuilder, Column, ColumnData, SelVec};
use qpipe_common::{QError, QResult, Tuple, Value};

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Accumulates the build (left) side of a hash join as one growing columnar
/// batch. The caller enforces its memory budget and hands over to the grace
/// (row-path) join on overflow — spilling is unchanged by vectorization.
pub struct HashJoinBuild {
    key: usize,
    builder: ColBatchBuilder,
}

impl HashJoinBuild {
    pub fn new(key: usize) -> Self {
        Self { key, builder: ColBatchBuilder::new() }
    }

    /// Append one build batch. Errs when the batch's width disagrees with
    /// earlier input: one stream has one width, so a mismatch is a broken
    /// producer and fails the join rather than misalign columns.
    pub fn add(&mut self, batch: &ColBatch) -> QResult<()> {
        if self.builder.append(batch) {
            return Ok(());
        }
        Err(QError::Exec(format!(
            "hash-join build input changed width to {} columns mid-stream",
            batch.num_cols()
        )))
    }

    /// Rows accumulated so far (budget checks).
    pub fn rows(&self) -> usize {
        self.builder.len()
    }

    /// Flatten what was accumulated back into tuples — the hand-off when the
    /// caller abandons the vectorized path (budget overflow → grace join).
    pub fn into_rows(self) -> Vec<Tuple> {
        self.builder.finish().to_rows()
    }

    /// Freeze the build side into a probe-ready hash table. Rows enter their
    /// bucket's chain in ascending order, each at the head, so a chain walks
    /// in descending row order — the row path's LIFO match order.
    pub fn finish(self) -> QResult<HashJoinTable> {
        let (build, key) = (self.builder.finish(), self.key);
        let empty = |build| HashJoinTable {
            build,
            key,
            hashes: Vec::new(),
            head: Vec::new(),
            next: Vec::new(),
        };
        if build.is_empty() {
            // Zero rows (and zero columns when the build input never sent a
            // batch): an empty table, against which every probe is empty.
            return Ok(empty(build));
        }
        let kc = key_col(&build, key)?;
        let live = (0..build.len()).filter(|&i| !kc.is_null(i)).count();
        if live == 0 {
            return Ok(empty(build));
        }
        let hashes = hash_key_column(kc);
        let mask = (live * 2).next_power_of_two() - 1;
        let mut head = vec![NO_ROW; mask + 1];
        let mut next = vec![NO_ROW; build.len()];
        for (i, &h) in hashes.iter().enumerate() {
            if !kc.is_null(i) {
                let bucket = &mut head[h as usize & mask];
                next[i] = *bucket;
                *bucket = i as u32;
            }
        }
        Ok(HashJoinTable { build, key, hashes, head, next })
    }
}

/// End of a bucket chain.
const NO_ROW: u32 = u32::MAX;

/// A frozen hash-join build side: the concatenated build batch, each build
/// row's key hash, and the bucket chains as two flat arrays.
pub struct HashJoinTable {
    build: ColBatch,
    key: usize,
    /// Per build row: its key hash (checked before the keys are compared).
    hashes: Vec<u64>,
    /// Per bucket (a power of two of them, at least twice the non-NULL build
    /// rows; none when there are no such rows): the first row of its chain.
    head: Vec<u32>,
    /// Per build row: the next row of its bucket's chain.
    next: Vec<u32>,
}

impl HashJoinTable {
    /// Rows on the build side.
    pub fn build_rows(&self) -> usize {
        self.build.len()
    }

    /// Probe a whole batch: emit joined batches (build columns then probe
    /// columns, the row path's `concat(left, right)` layout) of at most
    /// `chunk` rows each through `out`.
    ///
    /// Match order per probe row follows the row path exactly (it pops its
    /// per-tuple match list LIFO, so candidates come out in reverse build
    /// order) — downstream float aggregation then folds in the same order
    /// and row/vectorized results stay bit-identical, not just set-equal.
    pub fn probe(
        &self,
        probe: &ColBatch,
        key: usize,
        chunk: usize,
        mut out: impl FnMut(ColBatch),
    ) -> QResult<()> {
        if self.head.is_empty() {
            return Ok(()); // empty (or all-NULL-key) build side joins nothing
        }
        let pk = key_col(probe, key)?;
        let bk = key_col(&self.build, self.key)?;
        let hashes = hash_key_column(pk);
        let mask = self.head.len() - 1;
        let mut bidx: Vec<u32> = Vec::new();
        let mut pidx: Vec<u32> = Vec::new();
        for (j, &h) in hashes.iter().enumerate() {
            if pk.is_null(j) {
                continue;
            }
            let mut bi = self.head[h as usize & mask];
            while bi != NO_ROW {
                if self.hashes[bi as usize] == h && key_eq(bk, bi as usize, pk, j) {
                    bidx.push(bi);
                    pidx.push(j as u32);
                }
                bi = self.next[bi as usize];
            }
        }
        let chunk = chunk.max(1);
        let mut at = 0;
        while at < bidx.len() {
            let end = (at + chunk).min(bidx.len());
            let left = self.build.take(&bidx[at..end]);
            let right = probe.take(&pidx[at..end]);
            out(ColBatch::hcat(&left, &right));
            at = end;
        }
        Ok(())
    }
}

fn key_col(batch: &ColBatch, key: usize) -> QResult<&Column> {
    batch.col(key).ok_or_else(|| QError::Exec(format!("join key {key} out of range")))
}

// ---------------------------------------------------------------------------
// Hash aggregation
// ---------------------------------------------------------------------------

use crate::iter::AggState;

/// Batch-native hash aggregation: the vectorized analogue of
/// [`AggregateIter`](crate::iter::AggregateIter), updating grouped
/// [`AggState`]s from column runs instead of tuples.
///
/// Group ids come from the key columns' typed hashes
/// ([`hash_key_column`], bit-equal to `Value::stable_hash`), combined across
/// key columns and probed in an open-addressing table; a hash hit is
/// confirmed by typed slot-vs-stored-key equality (`slot_eq_value`:
/// `Value::eq`, so NULL = NULL groups and `Int(2)` = `Float(2.0)`). A key is
/// materialized as `Value`s once per *group* (the first-seen key, as the
/// row operator's map keeps it), never per row.
pub struct HashAgg {
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Open-addressing table of group ids ([`EMPTY`] = free), linear
    /// probing, a power-of-two length kept at most half full.
    table: Vec<u32>,
    /// Per group: its combined key hash (cheap reject, and re-insertion when
    /// the table grows).
    hashes: Vec<u64>,
    /// Per group: its key, `group_by.len()` values at `gid × width`.
    keys: Vec<Value>,
    /// Per group: its aggregate states, at `gid × aggs.len() + s`.
    states: Vec<AggState>,
    /// Scratch: per-row group ids for the batch being folded.
    gids: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// Fold the next key column's hash into a row's combined hash. Keys equal
/// under `Value::eq` hash equal column by column, hence combined.
#[inline]
fn combine(h: u64, next: u64) -> u64 {
    (h.rotate_left(5) ^ next).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl HashAgg {
    pub fn new(group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let mut agg = Self {
            group_by,
            aggs,
            table: vec![EMPTY; 16],
            hashes: Vec::new(),
            keys: Vec::new(),
            states: Vec::new(),
            gids: Vec::new(),
        };
        if agg.group_by.is_empty() {
            // Single-result aggregates emit one row even on empty input.
            agg.new_group(0);
        }
        agg
    }

    /// Append a group with combined hash `h` (its key values are pushed by
    /// the caller) and enter it in the table.
    fn new_group(&mut self, h: u64) -> u32 {
        let g = self.hashes.len() as u32;
        self.hashes.push(h);
        self.states.extend(self.aggs.iter().map(|a| AggState::new(a.func)));
        if self.hashes.len() * 2 > self.table.len() {
            self.table = vec![EMPTY; self.table.len() * 2];
            for g in 0..self.hashes.len() {
                self.enter(g as u32);
            }
        } else {
            self.enter(g);
        }
        g
    }

    /// Put group `g` in the first free slot of its probe sequence.
    fn enter(&mut self, g: u32) {
        let mask = self.table.len() - 1;
        let mut at = self.hashes[g as usize] as usize & mask;
        while self.table[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.table[at] = g;
    }

    /// Fold a whole columnar batch into the group states.
    pub fn update_cols(&mut self, batch: &ColBatch) -> QResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.assign_group_ids(batch)?;
        let sel = SelVec::all(batch.len());
        let width = self.aggs.len();
        for s in 0..width {
            if self.aggs[s].func == AggFunc::CountStar {
                for &g in &self.gids {
                    self.states[g as usize * width + s].update_int(1);
                }
                continue;
            }
            // One column evaluation per (spec, batch): a plain Col reference
            // is the batch's own column, anything else is evaluated
            // column-at-a-time — no input tuple either way.
            let input = self.aggs[s].expr.eval_project(batch, &sel)?;
            self.fold_column(s, &input);
        }
        Ok(())
    }

    /// Compute `self.gids[i]` = group of row `i`.
    fn assign_group_ids(&mut self, batch: &ColBatch) -> QResult<()> {
        let n = batch.len();
        self.gids.clear();
        if self.group_by.is_empty() {
            self.gids.resize(n, 0);
            return Ok(());
        }
        let cols: Vec<&Column> = self
            .group_by
            .iter()
            .map(|&c| {
                batch.col(c).ok_or_else(|| QError::Exec(format!("group column {c} out of range")))
            })
            .collect::<QResult<_>>()?;
        let mut hashes = vec![0u64; n];
        for col in &cols {
            let typed = hash_key_column(col);
            for (i, (h, t)) in hashes.iter_mut().zip(typed).enumerate() {
                // A typed vector holds a placeholder at a NULL slot.
                *h = combine(*h, if col.is_null(i) { Value::hash_null() } else { t });
            }
        }
        for (i, &h) in hashes.iter().enumerate() {
            let mask = self.table.len() - 1;
            let mut at = h as usize & mask;
            let g = loop {
                let g = self.table[at];
                if g == EMPTY {
                    self.keys.extend(cols.iter().map(|c| c.value(i)));
                    break self.new_group(h);
                }
                let key = &self.keys[g as usize * cols.len()..][..cols.len()];
                if self.hashes[g as usize] == h
                    && cols.iter().zip(key).all(|(c, k)| slot_eq_value(c, i, k))
                {
                    break g;
                }
                at = (at + 1) & mask;
            };
            self.gids.push(g);
        }
        Ok(())
    }

    /// Fold one evaluated input column into state `s` of every row's group,
    /// with primitive inner loops for the numeric shapes. A NULL input is
    /// skipped by every aggregate function.
    fn fold_column(&mut self, s: usize, input: &Column) {
        let width = self.aggs.len();
        let states = &mut self.states;
        let live = self.gids.iter().enumerate().filter(|(i, _)| !input.is_null(*i));
        match input.data() {
            ColumnData::Int64(v) => {
                live.for_each(|(i, &g)| states[g as usize * width + s].update_int(v[i]))
            }
            ColumnData::Float64(v) => {
                live.for_each(|(i, &g)| states[g as usize * width + s].update_float(v[i]))
            }
            _ => live.for_each(|(i, &g)| states[g as usize * width + s].update(&input.value(i))),
        }
    }

    /// Groups accumulated so far.
    pub fn num_groups(&self) -> usize {
        self.hashes.len()
    }

    /// Finish into a columnar batch: key columns then aggregate columns,
    /// groups sorted by key ascending — the same deterministic order
    /// [`AggregateIter`](crate::iter::AggregateIter) produces. Columns are
    /// built straight from the per-group key slots and aggregate states
    /// (typed representation when a column is uniform), so agg → sort plans
    /// stay columnar on the output side too; no row `Tuple` is materialized.
    pub fn finish_cols(self) -> ColBatch {
        let (width, aggs) = (self.group_by.len(), self.aggs.len());
        let n = self.num_groups();
        let key = |g: u32| &self.keys[g as usize * width..][..width];
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by(|&a, &b| key(a).cmp(key(b)));
        let mut cols = Vec::with_capacity(width + aggs);
        for c in 0..width {
            let vals: Vec<Value> = perm.iter().map(|&g| key(g)[c].clone()).collect();
            cols.push(Column::from_values(&vals));
        }
        for s in 0..aggs {
            let vals: Vec<Value> =
                perm.iter().map(|&g| self.states[g as usize * aggs + s].finish()).collect();
            cols.push(Column::from_values(&vals));
        }
        if cols.is_empty() {
            return ColBatch::empty_rows(n);
        }
        ColBatch::from_columns(cols)
    }

    /// Finish: one row per group, in [`finish_cols`](Self::finish_cols)
    /// order (the typed column round-trip is value-exact).
    pub fn finish(self) -> Vec<Tuple> {
        self.finish_cols().to_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn batch(rows: &[Vec<Value>]) -> ColBatch {
        ColBatch::from_rows(rows)
    }

    #[test]
    fn probe_matches_row_join_semantics() {
        let build = batch(&[
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Null, Value::str("n")],
            vec![Value::Int(2), Value::str("b2")],
        ]);
        let mut b = HashJoinBuild::new(0);
        b.add(&build).unwrap();
        let table = b.finish().unwrap();
        let probe = batch(&[
            vec![Value::Int(2), Value::Float(0.5)],
            vec![Value::Null, Value::Float(1.5)],
            vec![Value::Int(9), Value::Float(2.5)],
            vec![Value::Int(1), Value::Float(3.5)],
        ]);
        let mut rows = Vec::new();
        table.probe(&probe, 0, 256, |out| rows.extend(out.to_rows())).unwrap();
        // Probe row 0 (key 2) matches build rows 3 then 1 (LIFO like the row
        // path), probe row 3 (key 1) matches build row 0. NULLs never join.
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(2), Value::str("b2"), Value::Int(2), Value::Float(0.5)],
                vec![Value::Int(2), Value::str("b"), Value::Int(2), Value::Float(0.5)],
                vec![Value::Int(1), Value::str("a"), Value::Int(1), Value::Float(3.5)],
            ]
        );
    }

    #[test]
    fn empty_build_side_joins_nothing() {
        // No batch ever added: the frozen build has zero rows AND zero
        // columns, so key column 1 does not exist on it.
        let table = HashJoinBuild::new(1).finish().unwrap();
        assert_eq!(table.build_rows(), 0);
        let probe = batch(&[vec![Value::Int(2)], vec![Value::Null]]);
        let mut rows = Vec::new();
        table.probe(&probe, 0, 256, |out| rows.extend(out.to_rows())).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn cross_type_keys_join_exactly() {
        let big = 1i64 << 53;
        let build = batch(&[
            vec![Value::Int(big), Value::str("exact")],
            vec![Value::Int(big + 1), Value::str("above")],
            vec![Value::Int(7), Value::str("seven")],
        ]);
        let mut b = HashJoinBuild::new(0);
        b.add(&build).unwrap();
        let table = b.finish().unwrap();
        // Float probe keys: 2^53.0 must match Int(2^53) but NOT Int(2^53+1).
        let probe = batch(&[vec![Value::Float(big as f64)], vec![Value::Float(7.0)]]);
        let mut rows = Vec::new();
        table.probe(&probe, 0, 256, |out| rows.extend(out.to_rows())).unwrap();
        let tags: Vec<String> = rows.iter().map(|r| r[1].to_string()).collect();
        assert_eq!(tags, vec!["exact", "seven"]);
    }

    #[test]
    fn probe_chunks_output() {
        let build = batch(&[vec![Value::Int(1)]]);
        let mut b = HashJoinBuild::new(0);
        b.add(&build).unwrap();
        let table = b.finish().unwrap();
        let probe = batch(&(0..10).map(|_| vec![Value::Int(1)]).collect::<Vec<_>>());
        let mut sizes = Vec::new();
        table.probe(&probe, 0, 4, |out| sizes.push(out.len())).unwrap();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn ragged_build_width_rejected() {
        let mut b = HashJoinBuild::new(0);
        b.add(&batch(&[vec![Value::Int(1), Value::Int(2)]])).unwrap();
        let err = b.add(&batch(&[vec![Value::Int(1)]])).expect_err("width mismatch must refuse");
        assert!(matches!(err, QError::Exec(_)), "got {err:?}");
        assert_eq!(b.rows(), 1, "the refused batch appended nothing");
    }

    #[test]
    fn hash_agg_matches_aggregate_iter() {
        use crate::iter::{AggregateIter, TupleIter, VecIter};
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::Float(10.0)],
            vec![Value::Int(2), Value::Float(20.0)],
            vec![Value::Int(1), Value::Float(30.0)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Null, Value::Float(5.0)],
        ];
        let aggs = vec![
            AggSpec::count_star(),
            AggSpec::sum(Expr::col(1)),
            AggSpec::min(Expr::col(1)),
            AggSpec::avg(Expr::col(1)),
            AggSpec::count(Expr::col(1)),
        ];
        let mut it =
            AggregateIter::new(Box::new(VecIter::new(rows.clone())), vec![0], aggs.clone());
        let mut expected = Vec::new();
        while let Some(t) = it.next().unwrap() {
            expected.push(t);
        }
        let mut agg = HashAgg::new(vec![0], aggs);
        agg.update_cols(&ColBatch::from_rows(&rows)).unwrap();
        assert_eq!(agg.finish(), expected);
    }

    #[test]
    fn groups_follow_value_equality_across_types_and_batches() {
        // 2, 2.0 and day 2 are one group (first-seen key kept), NULL groups
        // with NULL, and the key column changes type from batch to batch.
        let mut agg = HashAgg::new(vec![0, 1], vec![AggSpec::count_star()]);
        let batches = [
            vec![vec![Value::Int(2), Value::str("a")], vec![Value::Null, Value::str("a")]],
            vec![vec![Value::Float(2.0), Value::str("a")], vec![Value::Float(2.5), Value::Null]],
            vec![vec![Value::Date(2), Value::str("a")], vec![Value::Null, Value::str("a")]],
            vec![vec![Value::Float(2.5), Value::Null], vec![Value::Int(2), Value::str("b")]],
        ];
        for rows in &batches {
            agg.update_cols(&batch(rows)).unwrap();
        }
        assert_eq!(agg.num_groups(), 4);
        let rows = agg.finish();
        assert_eq!(
            rows,
            vec![
                vec![Value::Null, Value::str("a"), Value::Int(2)],
                vec![Value::Int(2), Value::str("a"), Value::Int(3)],
                vec![Value::Int(2), Value::str("b"), Value::Int(1)],
                vec![Value::Float(2.5), Value::Null, Value::Int(2)],
            ]
        );
        assert!(matches!(rows[1][0], Value::Int(2)), "the first-seen key is the one kept");
    }

    #[test]
    fn empty_input_single_aggregate_emits_row() {
        let agg = HashAgg::new(vec![], vec![AggSpec::count_star()]);
        assert_eq!(agg.finish(), vec![vec![Value::Int(0)]]);
        let agg = HashAgg::new(vec![0], vec![AggSpec::count_star()]);
        assert_eq!(agg.finish(), Vec::<Tuple>::new());
    }
}
