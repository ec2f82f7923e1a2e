//! Vectorized (batch-native) operators over [`ColBatch`]es: every operator
//! the staged engine runs. The iterator operators in [`iter`](crate::iter)
//! are the test oracle.
//!
//! * [`HashJoinBuild`] / [`HashJoinTable`] — build accumulates the left
//!   input into one contiguous batch, then [`HashJoinTable::probe`] matches
//!   a whole probe batch: key hashes from the [`vexpr`](crate::vexpr)
//!   kernels, match pairs as index vectors, output as `take`-gathers plus an
//!   `hcat`. A build the governor refuses goes to [`grace_hash_join`].
//! * [`merge_join`] (restarting at a circular scan's wrap, §4.3.2) and
//!   [`nested_loop_join`] emit the same `take` + `hcat` shape into an
//!   [`Output`], which folds it under [`Rechunk`] — the delivery rule every
//!   producer follows, the scanner included.
//! * [`ScanKernel`] — what one base-table scan reads of a page and keeps of
//!   it: the circular scanner runs one per consumer over its shared page,
//!   and [`PageRangeReader`] (index scans, the merge join's re-read) one
//!   over the pages it reads itself.
//! * [`HashAgg`] — grouped aggregate update over column runs: group ids
//!   come from typed key hashes and typed slot equality (a key becomes
//!   `Value`s once per group, never per row), aggregate inputs are evaluated
//!   once per batch as columns ([`Expr::eval_project`](crate::expr::Expr),
//!   a plain column read in place), and `SUM`/`AVG`/`COUNT` over numeric
//!   columns fold primitive slices directly.
//!
//! Semantics are identical to the iterator operators: NULL keys never join,
//! NULL aggregate inputs are skipped, group output is sorted by key — the
//! cross-operator parity suite in `tests/` holds them to it.

use crate::expr::Expr;
use crate::iter::ExecContext;
use crate::plan::{AggFunc, AggSpec, PlanNode};
use crate::spill::{ColRunHandle, ColRunWriter};
use crate::vexpr::{hash_key_column, key_eq, slot_eq_value};
use qpipe_common::colbatch::{ColBatch, ColBatchBuilder, Column, ColumnData, SelVec};
use qpipe_common::{MemClass, QError, QResult, Tuple, Value};
use qpipe_storage::{BufferPool, FileId, Rid, SimDisk, TableLockGuard};
use std::cmp::Ordering;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Accumulates the build (left) side of a hash join as one growing columnar
/// batch. The caller enforces its memory budget and hands what it holds to
/// [`grace_hash_join`] on overflow, which spills it as columnar partitions.
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

    /// [`probe`](Self::probe) into `out`, cut only past the probe batch's
    /// length: a 1:1 join sends one batch per probe batch, never cut and
    /// then copied back together.
    pub fn probe_into(&self, probe: &ColBatch, key: usize, out: &mut Output<'_>) -> QResult<()> {
        let mut pushed = Ok(());
        self.probe(probe, key, probe.len().max(ColBatch::DEFAULT_CAPACITY), |joined| {
            if pushed.is_ok() {
                pushed = out.push(joined);
            }
        })?;
        pushed
    }
}

/// Partitions per input of a grace hash join.
const GRACE_PARTITIONS: usize = 8;

fn key_col(batch: &ColBatch, key: usize) -> QResult<&Column> {
    batch.col(key).ok_or_else(|| QError::Exec(format!("join key {key} out of range")))
}

/// Grace hash join over a build the governor refused. Both inputs are
/// partitioned by key hash into [`GRACE_PARTITIONS`] spilled runs each — the
/// build side is what `buffered` holds, then the rest of `left` — and NULL
/// keys are dropped. Each partition pair is then joined in memory through
/// [`HashJoinBuild`] and [`HashJoinTable::probe`]. A partition load takes a
/// lease, but partitions are already the fallback: a denial is counted and
/// the load proceeds.
pub fn grace_hash_join(
    buffered: HashJoinBuild,
    [mut left, mut right]: [Source<'_>; 2],
    right_key: usize,
    ctx: &ExecContext,
    out: &mut Output<'_>,
) -> QResult<()> {
    let (left_key, disk) = (buffered.key, ctx.catalog.disk());
    let build = std::iter::once(Ok(Arc::new(buffered.builder.finish()))).chain(batches(&mut *left));
    let build = partition(disk, "hj-build", left_key, build)?;
    let probe = partition(disk, "hj-probe", right_key, batches(&mut *right))?;
    let mut lease = ctx.governor.lease(MemClass::Hash);
    for (b, p) in build.iter().zip(&probe) {
        lease.shrink_to(0);
        let _ = lease.covers((b.rows() + p.rows()) as usize);
        let mut table = HashJoinBuild::new(left_key);
        let mut reader = b.reader();
        while let Some(batch) = reader.next_batch()? {
            table.add(&batch)?;
        }
        let (table, mut reader) = (table.finish()?, p.reader());
        while let Some(batch) = reader.next_batch()?.filter(|_| out.is_open()) {
            table.probe_into(&batch, right_key, out)?;
        }
    }
    Ok(())
}

/// A source as an iterator of batches.
fn batches<'s>(
    src: &'s mut (dyn BatchSource + 's),
) -> impl Iterator<Item = QResult<Arc<ColBatch>>> + 's {
    std::iter::from_fn(|| src.next_batch().transpose())
}

/// Spill each input row with a non-NULL key to its key-hash bucket's run.
fn partition(
    disk: &Arc<SimDisk>,
    label: &str,
    key: usize,
    input: impl Iterator<Item = QResult<Arc<ColBatch>>>,
) -> QResult<Vec<ColRunHandle>> {
    let runs = (0..GRACE_PARTITIONS).map(|_| ColRunWriter::create(disk.clone(), label));
    let mut runs = runs.collect::<QResult<Vec<_>>>()?;
    for batch in input {
        let batch = batch?;
        if batch.is_empty() {
            continue;
        }
        let (kc, mut buckets) = (key_col(&batch, key)?, vec![Vec::new(); GRACE_PARTITIONS]);
        for (i, h) in hash_key_column(kc).into_iter().enumerate().filter(|&(i, _)| !kc.is_null(i)) {
            buckets[(h % GRACE_PARTITIONS as u64) as usize].push(i as u32);
        }
        for (run, rows) in runs.iter_mut().zip(buckets).filter(|(_, rows)| !rows.is_empty()) {
            run.push_batch(&batch.take(&rows))?;
        }
    }
    runs.into_iter().map(ColRunWriter::finish).collect()
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

// ---------------------------------------------------------------------------
// Batch streams in, full batches out; page-range reads
// ---------------------------------------------------------------------------

/// A stream of batches a join kernel reads: a pipe, or a [`PageRangeReader`].
pub trait BatchSource {
    /// The next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> QResult<Option<Arc<ColBatch>>>;
}

/// An owned [`BatchSource`].
pub type Source<'a> = Box<dyn BatchSource + 'a>;

/// The delivery rule every batch producer follows, stated once: a batch of
/// at least [`ColBatch::DEFAULT_CAPACITY`] rows arriving with nothing pending
/// goes out as it is, the same `Arc`; any other joins the pending rows, which
/// go out as one batch once they hold that many, or at the end of the stream
/// ([`Rechunk::take`]). So no batch on a pipe is short but a stream's last. A
/// short batch waits as it came, copied only when another has to join it.
#[derive(Default)]
pub struct Rechunk {
    pending: Pending,
}

/// The rows a [`Rechunk`] has not sent yet.
#[derive(Default)]
enum Pending {
    #[default]
    None,
    Tail(Arc<ColBatch>),
    Joined(ColBatchBuilder),
}

impl Rechunk {
    /// Fold `batch` in: the batch to send now, if the rule sends one. Errs
    /// when the width changes: one output stream has one width.
    pub fn push(&mut self, batch: Arc<ColBatch>) -> QResult<Option<Arc<ColBatch>>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let mut joined = match std::mem::take(&mut self.pending) {
            Pending::None if batch.len() >= ColBatch::DEFAULT_CAPACITY => return Ok(Some(batch)),
            Pending::None => {
                self.pending = Pending::Tail(batch);
                return Ok(None);
            }
            Pending::Tail(tail) => {
                let mut joined = ColBatchBuilder::new();
                let _fresh_builder_takes_any_width = joined.append(&tail);
                joined
            }
            Pending::Joined(joined) => joined,
        };
        if !joined.append(&batch) {
            let width = batch.num_cols();
            return Err(QError::Exec(format!("output changed width to {width} columns")));
        }
        if joined.len() < ColBatch::DEFAULT_CAPACITY {
            self.pending = Pending::Joined(joined);
            return Ok(None);
        }
        Ok(Some(Arc::new(joined.finish())))
    }

    /// The rows still pending, as one batch: the end of the stream.
    pub fn take(&mut self) -> Option<Arc<ColBatch>> {
        match std::mem::take(&mut self.pending) {
            Pending::None => None,
            Pending::Tail(tail) => Some(tail),
            Pending::Joined(joined) => Some(Arc::new(joined.finish())),
        }
    }
}

/// A kernel's output: its batches folded under [`Rechunk`]'s rule on their
/// way to a sink that answers `false` once nobody wants more.
pub struct Output<'a> {
    rule: Rechunk,
    sink: Box<dyn FnMut(Arc<ColBatch>) -> bool + 'a>,
    open: bool,
}

impl<'a> Output<'a> {
    pub fn new(sink: impl FnMut(Arc<ColBatch>) -> bool + 'a) -> Self {
        Self { rule: Rechunk::default(), sink: Box::new(sink), open: true }
    }

    /// Whether the sink still takes output.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Fold `batch` in and send what the rule sends.
    pub fn push(&mut self, batch: impl Into<Arc<ColBatch>>) -> QResult<()> {
        if let Some(full) = self.rule.push(batch.into())?.filter(|_| self.open) {
            self.open = (self.sink)(full);
        }
        Ok(())
    }

    /// Send the pending rows: the end of the stream.
    pub fn finish(mut self) {
        if let Some(last) = self.rule.take().filter(|_| self.open) {
            (self.sink)(last);
        }
    }
}

/// One scan's page kernel, the one statement of how a base-table scan reads
/// a page: the table columns it decodes, and its predicate and projection
/// over them. Built from the scan's predicate and projection against its
/// table's width, it refuses any column at or past the width
/// (`QError::Plan`), so a scan naming a column its table lacks fails before
/// it reads a page.
pub struct ScanKernel {
    /// The table columns the scan reads, sorted (`None`: all of them, for a
    /// scan without a projection).
    cols: Option<Vec<usize>>,
    /// The predicate and projection re-indexed onto `cols`; no projection
    /// when the scan outputs `cols` as they are.
    predicate: Option<Expr>,
    projection: Option<Vec<usize>>,
}

impl ScanKernel {
    /// The kernel of a scan over a table of `width` columns. `key` is a
    /// column the caller reads from the page itself (a range's clustered
    /// key), so `cols` includes it.
    pub fn new(
        width: usize,
        predicate: Option<&Expr>,
        projection: Option<&[usize]>,
        key: Option<usize>,
    ) -> QResult<Self> {
        let mut cols = projection.map_or_else(Vec::new, <[usize]>::to_vec);
        cols.extend(key);
        if let Some(p) = predicate {
            p.collect_cols(&mut cols);
        }
        if let Some(c) = cols.iter().find(|&&c| c >= width) {
            return Err(QError::Plan(format!(
                "scan column {c} out of range for a table of {width} columns"
            )));
        }
        let Some(projection) = projection else {
            return Ok(Self { cols: None, predicate: predicate.cloned(), projection: None });
        };
        cols.sort_unstable();
        cols.dedup();
        let at = |c| position(Some(&cols), c);
        let projection: Vec<usize> = projection.iter().map(|&c| at(c)).collect();
        let identity = projection.iter().copied().eq(0..cols.len());
        Ok(Self {
            predicate: predicate.map(|p| p.map_cols(&at)),
            projection: (!identity).then_some(projection),
            cols: Some(cols),
        })
    }

    /// The table columns the scan reads, sorted; `None`: all of them.
    pub fn cols(&self) -> Option<&[usize]> {
        self.cols.as_deref()
    }

    /// The scan's columns out of `page`, a batch of the table columns
    /// `decoded` (`None`: all of them), which include the scan's: `page`
    /// itself when they are all its columns, else one `project`, an `Arc`
    /// bump per column.
    pub fn pick(&self, page: &Arc<ColBatch>, decoded: Option<&[usize]>) -> Arc<ColBatch> {
        match &self.cols {
            Some(cols) if cols.len() < page.num_cols() => {
                let at: Vec<usize> = cols.iter().map(|&c| position(decoded, c)).collect();
                Arc::new(page.project(&at))
            }
            _ => page.clone(),
        }
    }

    /// The scan's share of `batch`, a batch of its `cols`: the predicate's
    /// rows, projected. `None` when no row survives; `batch` itself when the
    /// kernel neither filters nor projects. An evaluation error is the
    /// scan's error.
    pub fn apply(&self, batch: &Arc<ColBatch>) -> QResult<Option<Arc<ColBatch>>> {
        let sel = match &self.predicate {
            Some(p) => p.eval_filter(batch)?,
            None => SelVec::all(batch.len()),
        };
        if sel.is_empty() {
            return Ok(None);
        }
        Ok(Some(match &self.projection {
            None if sel.is_all(batch.len()) => batch.clone(),
            None => Arc::new(batch.gather(&sel)),
            // Project first (`Arc` bumps), then gather only the kept columns.
            Some(projection) => Arc::new(batch.project(projection).gather(&sel)),
        }))
    }
}

/// Where table column `c` sits in a batch of the sorted table columns
/// `within` (`None`: all of them), which include it.
fn position(within: Option<&[usize]>, c: usize) -> usize {
    within.map_or(c, |cols| cols.partition_point(|&x| x < c))
}

/// A base-table scan read as batches, a page at a time in page order: a
/// clustered index scan's range, an unclustered one's RID list, or a whole
/// table (the merge join's re-read, §4.3.2). It decodes only its kernel's
/// columns, which include the clustered key when a range bounds the read,
/// and runs the kernel over the rows it takes from each page. It holds the
/// table's shared lock while it lives, as the iterator's sequential scan
/// does. It issues the next listed page's read before it decodes the current
/// page when it is certain to read that page: always for a whole table or a
/// RID list; in a range bounded above, once the current page has not passed
/// `hi`.
pub struct PageRangeReader {
    pool: Arc<BufferPool>,
    file: FileId,
    /// The pages left to read, each with the slots to take from it (`None`:
    /// the rows within `bounds`).
    pages: std::vec::IntoIter<(u64, Option<Vec<u32>>)>,
    /// A clustered range on a key column: rows keyed below `lo` are skipped,
    /// and the first keyed above `hi` ends the read.
    bounds: Option<(usize, Option<Value>, Option<Value>)>,
    kernel: ScanKernel,
    _lock: TableLockGuard,
}

impl PageRangeReader {
    pub fn open(plan: &PlanNode, ctx: &ExecContext) -> QResult<Self> {
        let (table, predicate, projection) = match plan {
            PlanNode::TableScan { table, predicate, projection, .. }
            | PlanNode::ClusteredIndexScan { table, predicate, projection, .. }
            | PlanNode::UnclusteredIndexScan { table, predicate, projection, .. } => {
                (table, predicate, projection)
            }
            _ => return Err(QError::Exec(format!("{} is not a table scan", plan.op_name()))),
        };
        let info = ctx.catalog.table(table)?;
        let lock = ctx.catalog.locks().lock_shared(table);
        let pool = ctx.catalog.pool().clone();
        let whole = |(start, end): (u64, u64)| (start..end).map(|page| (page, None)).collect();
        let (pages, bounds): (Vec<_>, _) = match plan {
            PlanNode::ClusteredIndexScan { lo, hi, .. } => {
                let ci = info.clustered.as_ref().ok_or_else(|| {
                    QError::Plan(format!("table {table:?} has no clustered index"))
                })?;
                let bounds = (ci.key_col(), lo.clone(), hi.clone());
                (whole(ci.page_range(lo.as_ref(), hi.as_ref())), Some(bounds))
            }
            PlanNode::UnclusteredIndexScan { column, lo, hi, .. } => {
                let idx = info.unclustered_index(column).ok_or_else(|| {
                    QError::Plan(format!("no unclustered index on {table}.{column}"))
                })?;
                let rids = idx.rid_list(&pool, lo.as_ref(), hi.as_ref())?;
                let slots = |run: &[Rid]| Some(run.iter().map(|r| u32::from(r.slot)).collect());
                (
                    rids.chunk_by(|a, b| a.page == b.page)
                        .map(|run| (run[0].page, slots(run)))
                        .collect(),
                    None,
                )
            }
            _ => (whole((0, info.num_pages()?)), None),
        };
        let key = bounds.as_ref().map(|&(key, ..)| key);
        let kernel =
            ScanKernel::new(info.schema.len(), predicate.as_ref(), projection.as_deref(), key)?;
        let pages = pages.into_iter();
        Ok(Self { pool, file: info.file_id(), pages, bounds, kernel, _lock: lock })
    }

    /// Issue the read of the next listed page, if any.
    fn read_ahead(&self) {
        if let Some(&(next, _)) = self.pages.as_slice().first() {
            self.pool.prefetch(self.file, next);
        }
    }
}

impl BatchSource for PageRangeReader {
    /// The kernel's share of the next page that has one: the page's slots,
    /// or its rows within bounds, then [`ScanKernel::apply`].
    fn next_batch(&mut self) -> QResult<Option<Arc<ColBatch>>> {
        // Bounded above, a page may end the read: read ahead only past one
        // that did not.
        let bounded = self.bounds.as_ref().is_some_and(|(_, _, hi)| hi.is_some());
        while let Some((page_no, slots)) = self.pages.next() {
            let block = self.pool.get(self.file, page_no)?;
            if !bounded {
                self.read_ahead();
            }
            let page = block.decode(self.kernel.cols())?;
            let rows = match (slots, &self.bounds) {
                (Some(slots), _) => match slots.iter().find(|&&s| s as usize >= page.len()) {
                    Some(slot) => {
                        return Err(QError::Storage(format!("no slot {slot} on page {page_no}")))
                    }
                    None => Arc::new(page.take(&slots)),
                },
                (None, None) => page,
                (None, Some((key, lo, hi))) => {
                    let kc = key_col(&page, position(self.kernel.cols(), *key))?;
                    let stop =
                        (0..page.len()).find(|&i| hi.as_ref().is_some_and(|h| kc.value(i) > *h));
                    if stop.is_some() {
                        self.pages = Vec::new().into_iter();
                    } else if bounded {
                        self.read_ahead();
                    }
                    let keep = (0..stop.unwrap_or(page.len()) as u32)
                        .filter(|&i| lo.as_ref().is_none_or(|l| kc.value(i as usize) >= *l));
                    Arc::new(page.gather(&SelVec::from_sorted(keep.collect())))
                }
            };
            if let Some(share) = self.kernel.apply(&rows)? {
                return Ok(Some(share));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Merge join with wrap restart (§4.3.2), and nested-loop join
// ---------------------------------------------------------------------------

/// Merge join over two key-ordered batch streams that tolerates one circular
/// wrap (§4.3.2), on side `split` (`None`: neither may wrap). Segment 1 joins
/// both inputs up to a wrap, and reads `split` to its end, to see whether it
/// wrapped; the side that wrapped then joins its rows past the wrap against
/// `reread(other side)` — the paper's "reading the non-shared relation
/// twice". NULL keys never join; a key group's cross product comes out left
/// row by left row, as the iterator's merge join emits it.
pub fn merge_join<'a>(
    [left, right]: [Source<'a>; 2],
    [left_key, right_key]: [usize; 2],
    split: Option<usize>,
    mut reread: impl FnMut(usize) -> QResult<Source<'a>>,
    out: &mut Output<'_>,
) -> QResult<()> {
    let sides = [MergeSide::new(left, left_key), MergeSide::new(right, right_key)];
    let mut join = MergeJoin { sides, pairs: [Vec::new(), Vec::new()] };
    join.segment(out, [split == Some(0), split == Some(1)])?;
    let wrapped = match join.sides.each_ref().map(|s| s.held.is_some()) {
        [false, false] => return Ok(()),
        [true, true] => return Err(QError::Exec("both merge-join inputs wrapped".into())),
        [left, _] => usize::from(!left),
    };
    let other = 1 - wrapped;
    // Segment 2 starts past the wrap; what is left of segment 1 is dropped.
    let side = &mut join.sides[wrapped];
    (side.cur, side.pos, side.last, side.ended) =
        (Arc::new(ColBatch::empty_rows(0)), 0, None, false);
    join.sides[other] = MergeSide::new(reread(other)?, join.sides[other].key);
    join.segment(out, [other == 1, other == 0])?;
    if join.sides[wrapped].held.is_some() {
        return Err(QError::Exec("a merge-join input wrapped twice".into()));
    }
    Ok(())
}

/// One merge-join input, read a segment at a time. A segment ends at the
/// end of the stream or at a *wrap*: the first row whose key is strictly
/// below the previous row's, where a circular scan that attached mid-table
/// comes back to the table's first page. A scanner sends the rows on both
/// sides of its wrap in one batch, so the batch is split there.
struct MergeSide<'a> {
    src: Source<'a>,
    key: usize,
    /// The window: the current batch, or a key group's rows carried over
    /// with the batch after it. Rows before `pos` are consumed.
    cur: Arc<ColBatch>,
    pos: usize,
    /// The key of the last row read, as a one-row column.
    last: Option<Column>,
    /// Rows past a wrap, held for the next segment (set: this one ended so).
    held: Option<Arc<ColBatch>>,
    /// The batch after the window, read to see where a key group ends.
    ahead: Option<Arc<ColBatch>>,
    ended: bool,
}

impl<'a> MergeSide<'a> {
    fn new(src: Source<'a>, key: usize) -> Self {
        let cur = Arc::new(ColBatch::empty_rows(0));
        Self { src, key, cur, pos: 0, last: None, held: None, ahead: None, ended: false }
    }

    /// The batch after the window: the one read ahead, or the next fetched.
    fn next(&mut self) -> QResult<Option<Arc<ColBatch>>> {
        self.ahead.take().map_or_else(|| self.fetch(), |b| Ok(Some(b)))
    }

    /// The segment's next non-empty batch, cut at a wrap; `None` at its end.
    fn fetch(&mut self) -> QResult<Option<Arc<ColBatch>>> {
        while !self.ended {
            let next = self.held.take().map_or_else(|| self.src.next_batch(), |b| Ok(Some(b)));
            let Some(batch) = next? else { break };
            if batch.is_empty() {
                continue;
            }
            let kc = key_col(&batch, self.key)?;
            let last = self.last.as_ref();
            let wrap = (0..batch.len()).find(|&i| match i.checked_sub(1) {
                Some(prev) => kc.cmp_values(i, kc, prev).is_lt(),
                None => last.is_some_and(|l| kc.cmp_values(0, l, 0).is_lt()),
            });
            let Some(at) = wrap else {
                self.last = Some(kc.take(&[batch.len() as u32 - 1]));
                return Ok(Some(batch));
            };
            self.ended = true;
            self.held = Some(Arc::new(batch.slice(at, batch.len() - at)));
            if at > 0 {
                return Ok(Some(Arc::new(batch.slice(0, at))));
            }
        }
        self.ended = true;
        Ok(None)
    }
}

/// Both sides and the matched row pairs, indices into the two windows, that
/// are not emitted yet. A window moves on only after the pairs are flushed.
struct MergeJoin<'a> {
    sides: [MergeSide<'a>; 2],
    pairs: [Vec<u32>; 2],
}

impl MergeJoin<'_> {
    fn flush(&mut self, out: &mut Output<'_>) -> QResult<()> {
        if self.pairs[0].is_empty() {
            return Ok(());
        }
        let [l, r] = &self.sides;
        let joined = ColBatch::hcat(&l.cur.take(&self.pairs[0]), &r.cur.take(&self.pairs[1]));
        self.pairs.iter_mut().for_each(Vec::clear);
        out.push(joined)
    }

    /// Make row `pos` of side `s` readable; `false` at the segment's end.
    fn ready(&mut self, s: usize, out: &mut Output<'_>) -> QResult<bool> {
        while self.sides[s].pos >= self.sides[s].cur.len() {
            self.flush(out)?;
            let Some(batch) = self.sides[s].next()? else { return Ok(false) };
            (self.sides[s].cur, self.sides[s].pos) = (batch, 0);
        }
        Ok(true)
    }

    /// One past side `s`'s key group at `pos`. A group that runs on into the
    /// batches after the window carries over: the window becomes the group
    /// plus those batches, each appended once.
    fn group_end(&mut self, s: usize, out: &mut Output<'_>) -> QResult<usize> {
        let side = &self.sides[s];
        let (pos, kc) = (side.pos, key_col(&side.cur, side.key)?);
        let group = kc.take(&[pos as u32]);
        let run = |c: &Column, from: usize| {
            (from..c.len()).find(|&i| c.cmp_values(i, &group, 0).is_ne()).unwrap_or(c.len())
        };
        let mut end = run(kc, pos + 1);
        if end < side.cur.len() {
            return Ok(end);
        }
        self.flush(out)?;
        let mut carried = ColBatchBuilder::new();
        loop {
            let side = &mut self.sides[s];
            let Some(next) = side.next()? else { break };
            let n = run(key_col(&next, side.key)?, 0);
            if n == 0 {
                side.ahead = Some(next);
                break;
            }
            if carried.is_empty() {
                let _fresh_builder_takes_any_width =
                    carried.append(&side.cur.slice(pos, end - pos));
                end -= pos;
            }
            if !carried.append(&next) {
                return Err(QError::Exec("a merge-join input changed width mid-stream".into()));
            }
            end += n;
            if n < next.len() {
                break;
            }
        }
        if !carried.is_empty() {
            let side = &mut self.sides[s];
            (side.cur, side.pos) = (Arc::new(carried.finish()), 0);
        }
        Ok(end)
    }

    /// Join the two current segments, then read those named in `drain` to
    /// their ends while output is wanted: whether a segment ended at a wrap
    /// is known only there. (A re-read of a sorted table is read no further
    /// than the join needs.)
    fn segment(&mut self, out: &mut Output<'_>, drain: [bool; 2]) -> QResult<()> {
        while out.is_open() && self.ready(0, out)? && self.ready(1, out)? {
            let [l, r] = &self.sides;
            let (lk, rk) = (key_col(&l.cur, l.key)?, key_col(&r.cur, r.key)?);
            // A NULL left key joins nothing; a NULL right key sorts first.
            let null = lk.is_null(l.pos);
            match if null { Ordering::Less } else { lk.cmp_values(l.pos, rk, r.pos) } {
                Ordering::Less => self.sides[0].pos += 1,
                Ordering::Greater => self.sides[1].pos += 1,
                Ordering::Equal => {
                    let ends = [self.group_end(0, out)?, self.group_end(1, out)?];
                    let starts = self.sides.each_ref().map(|s| s.pos);
                    for li in starts[0]..ends[0] {
                        for ri in starts[1]..ends[1] {
                            self.pairs[0].push(li as u32);
                            self.pairs[1].push(ri as u32);
                            if self.pairs[0].len() == ColBatch::DEFAULT_CAPACITY {
                                self.flush(out)?;
                            }
                        }
                    }
                    (self.sides[0].pos, self.sides[1].pos) = (ends[0], ends[1]);
                }
            }
        }
        self.flush(out)?;
        for (side, drain) in self.sides.iter_mut().zip(drain) {
            while drain && out.is_open() && side.next()?.is_some() {}
        }
        Ok(())
    }
}

/// Nested-loop join: the right input is buffered as full batches
/// ([`Rechunk`]), then each left row is crossed with every one of them and
/// the joined rows filtered by `predicate` — left row by left row, as the
/// iterator's nested-loop join emits them.
pub fn nested_loop_join(
    [mut left, mut right]: [Source<'_>; 2],
    predicate: &Expr,
    out: &mut Output<'_>,
) -> QResult<()> {
    let (mut slices, mut rule) = (Vec::new(), Rechunk::default());
    while let Some(batch) = right.next_batch()? {
        slices.extend(rule.push(batch)?);
    }
    slices.extend(rule.take());
    while let Some(batch) = left.next_batch()? {
        for row in 0..batch.len() as u32 {
            for slice in &slices {
                if !out.is_open() {
                    return Ok(());
                }
                let joined = ColBatch::hcat(&batch.take(&vec![row; slice.len()]), slice);
                let sel = predicate.eval_filter(&joined)?;
                out.push(joined.gather(&sel))?;
            }
        }
    }
    Ok(())
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

    /// A batch stream for the join kernels.
    struct Batches(std::vec::IntoIter<ColBatch>);

    impl BatchSource for Batches {
        fn next_batch(&mut self) -> QResult<Option<Arc<ColBatch>>> {
            Ok(self.0.next().map(Arc::new))
        }
    }

    /// Batches of `[key, tag]` rows, tags counting up from `tag`.
    fn keyed(batches: &[&[i64]], tag: i64) -> Vec<ColBatch> {
        let mut next = tag;
        let mut row = |k: i64| {
            next += 1;
            vec![Value::Int(k), Value::Int(next)]
        };
        batches
            .iter()
            .map(|keys| batch(&keys.iter().map(|&k| row(k)).collect::<Vec<_>>()))
            .collect()
    }

    fn rows_of(batches: &[ColBatch]) -> Vec<Tuple> {
        batches.iter().flat_map(ColBatch::to_rows).collect()
    }

    /// The batch merge join's output rows and batch sizes, `split` the side
    /// that may wrap; a re-read returns that side's rows in key order, as a
    /// fresh scan of a sorted table does.
    fn merge(
        left: Vec<ColBatch>,
        right: Vec<ColBatch>,
        split: Option<usize>,
    ) -> QResult<(Vec<Tuple>, Vec<usize>)> {
        let tables = [&left, &right].map(|side| {
            let mut rows = rows_of(side);
            rows.sort_by(|a, b| a[0].cmp(&b[0]));
            rows
        });
        let src =
            |batches: Vec<ColBatch>| -> Source<'static> { Box::new(Batches(batches.into_iter())) };
        let mut outputs = Vec::new();
        let mut out = Output::new(|b| {
            outputs.push(Arc::unwrap_or_clone(b));
            true
        });
        let reread = |side: usize| Ok(src(vec![batch(&tables[side])]));
        merge_join([src(left), src(right)], [0, 0], split, reread, &mut out)?;
        out.finish();
        Ok((rows_of(&outputs), outputs.iter().map(ColBatch::len).collect()))
    }

    /// The iterator engine's merge join over the same rows, in its order.
    fn merge_iter(left: &[ColBatch], right: &[ColBatch]) -> Vec<Tuple> {
        use crate::iter::{collect, MergeJoinIter, VecIter};
        let [l, r] = [left, right].map(|side| Box::new(VecIter::new(rows_of(side))));
        collect(Box::new(MergeJoinIter::new(l, r, 0, 0))).unwrap()
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn merge_join_restarts_at_a_wrap_inside_a_batch() {
        // A scan that attached at key 5: the end of the table, then its
        // start, with the wrap (7 → 1) in the middle of the second batch.
        let left = keyed(&[&[5, 6], &[7, 1, 2], &[3, 4]], 0);
        let right = keyed(&[&[1, 2, 3], &[4, 5, 6, 7]], 100);
        let mut table = rows_of(&left);
        table.sort_by(|a, b| a[0].cmp(&b[0]));
        let expected = merge_iter(&[batch(&table)], &right);
        assert_eq!(expected.len(), 7);
        let (got, _) = merge(left.clone(), right.clone(), Some(0)).unwrap();
        assert_eq!(sorted(got), sorted(expected.clone()), "left wrapped");
        // The right side wrapping instead joins the same pairs.
        let (got, _) = merge(right.clone(), left.clone(), Some(1)).unwrap();
        let swapped = |r: &Tuple| vec![r[2].clone(), r[3].clone(), r[0].clone(), r[1].clone()];
        assert_eq!(sorted(got), sorted(expected.iter().map(swapped).collect()), "right wrapped");
        // A wrap past the other side's last key is found only by reading on.
        let short = keyed(&[&[1, 2, 3]], 0);
        let late = keyed(&[&[2, 3, 4], &[5, 1, 2]], 100);
        let mut table = rows_of(&late);
        table.sort_by(|a, b| a[0].cmp(&b[0]));
        let expected = merge_iter(&short, &[batch(&table)]);
        assert_eq!(expected.len(), 4);
        let (got, _) = merge(short, late, Some(1)).unwrap();
        assert_eq!(sorted(got), sorted(expected), "wrap past the last left key");
        // A wrap on both sides has no fresh side to re-read.
        let err = merge(left.clone(), keyed(&[&[5, 6, 7, 1], &[2]], 100), Some(0)).unwrap_err();
        assert!(matches!(err, QError::Exec(_)), "{err:?}");
    }

    #[test]
    fn merge_join_groups_span_batches_on_both_sides() {
        let left = keyed(&[&[1, 2, 2], &[2, 2], &[2, 3], &[5; 80], &[5; 40], &[6]], 0);
        let right = keyed(&[&[0, 2], &[2], &[2, 2, 4], &[5; 15], &[5, 5, 5, 5, 5, 6]], 100);
        let (got, sizes) = merge(left.clone(), right.clone(), None).unwrap();
        let expected = merge_iter(&left, &right);
        assert_eq!(expected.len(), 5 * 4 + 120 * 20 + 1);
        assert_eq!(got, expected, "same pairs, left row by left row");
        assert_eq!(sizes, [1044, 1024, 353], "full batches, the last one shorter");
    }

    #[test]
    fn merge_join_with_an_empty_side_is_empty() {
        let some = keyed(&[&[1, 2], &[3]], 0);
        for (left, right) in [(vec![], some.clone()), (some.clone(), vec![]), (vec![], vec![])] {
            assert_eq!(merge(left, right, Some(0)).unwrap(), (vec![], vec![]));
        }
        let empty_batches = vec![ColBatch::empty_rows(0), batch(&[])];
        assert_eq!(merge(empty_batches, some, Some(1)).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn rechunk_sends_full_batches_and_copies_only_to_join_short_ones() {
        let run = |sizes: &[usize]| {
            let mut sent = Vec::new();
            let mut out = Output::new(|b| {
                sent.push((b.len(), b.columns()[0].value(0)));
                true
            });
            let mut next = 0;
            for &n in sizes {
                let rows = (next..next + n as i64).map(|v| vec![Value::Int(v)]).collect::<Vec<_>>();
                out.push(batch(&rows)).unwrap();
                next += n as i64;
            }
            out.finish();
            sent
        };
        let int = Value::Int;
        assert_eq!(run(&[40]), [(40, int(0))], "a short batch alone goes out as it came");
        assert_eq!(run(&[2400]), [(2400, int(0))], "a long batch goes out whole");
        assert_eq!(run(&[800, 400, 0, 1200]), [(1200, int(0)), (1200, int(1200))]);
        // With nothing pending, a full batch and a lone short one go out uncopied.
        let mut rule = Rechunk::default();
        let full = Arc::new(batch(&(0..1024).map(|v| vec![int(v)]).collect::<Vec<_>>()));
        let sent = rule.push(full.clone()).unwrap().expect("a full batch goes out at once");
        assert!(Arc::ptr_eq(&sent, &full), "the full batch was copied");
        let short = Arc::new(batch(&[vec![int(1)]]));
        assert!(rule.push(short.clone()).unwrap().is_none(), "a short batch waits");
        assert!(Arc::ptr_eq(&rule.take().expect("the tail"), &short), "the tail was copied");
        let mut out = Output::new(|_| true);
        out.push(batch(&[vec![int(1)]])).unwrap();
        let err = out.push(batch(&[vec![int(1), int(2)]])).unwrap_err();
        assert!(matches!(err, QError::Exec(_)), "one stream, one width: {err:?}");
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
