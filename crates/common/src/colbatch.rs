//! Columnar batches and selection vectors.
//!
//! [`ColBatch`] is the one unit of data flow in the staged engine: every
//! pipe, every OSP host history and every scan delivery carries
//! `Arc<ColBatch>`, so simultaneous pipelining to N consumers shares one
//! copy, and a columnar page's pool-resident batch goes on the wire as it
//! is. A [`ColBatch`] stores one typed [`Column`] per attribute — a
//! primitive slice (`i64` / `f64` / `i32` days, or `u32` codes into a
//! shared string dictionary) plus an optional null bitmap — so predicate
//! kernels can compare against contiguous memory with no per-row allocation,
//! no `Value` cloning and no per-row refcount.
//!
//! ## Layout
//!
//! * Columns are `Arc`-shared: projecting a `ColBatch` bumps refcounts, it
//!   never copies data.
//! * NULLs live in a side bitmap ([`NullBitmap`]); the typed vector holds a
//!   placeholder at null slots. A column whose non-null values are not all of
//!   one primitive type degrades to [`ColumnData::Mixed`], which vectorized
//!   kernels treat as a scalar-fallback region.
//! * A [`SelVec`] is a sorted list of live row indices (selection vector).
//!   Filters *refine* selection vectors instead of copying rows; payload data
//!   is only moved by an explicit [`ColBatch::gather`] at the end of a kernel
//!   chain.
//!
//! In the staged engine, row materialization ([`ColBatch::to_rows`],
//! [`ColBatch::row`]) happens at the client result boundary only: every
//! operator is batch-native. The iterator engine (the test oracle)
//! flattens the batches it reads from columnar pages and index scans.

use crate::batch::Tuple;
use crate::sim::fnv1a;
use crate::value::{cmp_i64_f64, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Sort key: column index + direction. Plans name it as
/// `qpipe_exec::plan::SortKey`; [`ColBatch`]'s sorts take it as it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub asc: bool,
}

impl SortKey {
    pub fn asc(col: usize) -> Self {
        Self { col, asc: true }
    }

    pub fn desc(col: usize) -> Self {
        Self { col, asc: false }
    }
}

/// Bitmap marking NULL slots of one column (bit set ⇒ NULL).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    bits: Vec<u64>,
}

impl NullBitmap {
    pub fn with_len(len: usize) -> Self {
        Self { bits: vec![0; len.div_ceil(64)] }
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Set every bit that is set in `other` (a bitmap of the same length):
    /// the NULLs of `a ⊕ b` are the NULLs of `a` and of `b`.
    pub fn union_with(&mut self, other: &NullBitmap) {
        debug_assert_eq!(self.bits.len(), other.bits.len());
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    /// Rebuild from a little-endian packed byte region (bit `i` of byte
    /// `i / 8` ⇒ slot `i` is NULL) — the on-page format columnar pages use.
    pub fn from_packed_bytes(bytes: &[u8], len: usize) -> Self {
        let mut out = Self::with_len(len);
        for i in 0..len {
            if bytes[i / 8] & (1 << (i % 8)) != 0 {
                out.set(i);
            }
        }
        out
    }
}

/// The typed payload of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Dictionary-coded strings: row `i` is `dict[codes[i]]`. A page's
    /// decoders hand over the dictionary the page stores, and gathering
    /// copies `u32` codes and clones the dictionary's `Arc` once per column —
    /// no refcount is written per row. Every code indexes `dict` (a NULL slot
    /// holds 0, and a column with rows never has an empty dictionary), and
    /// `dict` holds each value once, so on one dictionary equal codes are
    /// equal strings.
    Str {
        dict: Arc<[Arc<str>]>,
        codes: Vec<u32>,
    },
    /// Days since epoch.
    Date(Vec<i32>),
    /// Heterogeneously-typed column; kernels fall back to scalar evaluation.
    Mixed(Vec<Value>),
}

/// The dictionary of a `Str` payload that holds no string yet.
fn empty_dict() -> Arc<[Arc<str>]> {
    Arc::from([])
}

impl ColumnData {
    /// An empty payload of the representation a column holding `v` takes
    /// (`Mixed` for NULL).
    fn empty_for(v: &Value) -> Self {
        match v {
            Value::Int(_) => ColumnData::Int64(Vec::new()),
            Value::Float(_) => ColumnData::Float64(Vec::new()),
            Value::Str(_) => ColumnData::Str { dict: empty_dict(), codes: Vec::new() },
            Value::Date(_) => ColumnData::Date(Vec::new()),
            Value::Null => ColumnData::Mixed(Vec::new()),
        }
    }

    /// Append a NULL slot: a placeholder in a typed payload (the bitmap
    /// records it), an inline NULL in `Mixed`.
    fn push_null(&mut self) {
        match self {
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Str { codes, .. } => codes.push(0),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Mixed(v) => v.push(Value::Null),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

/// One attribute of a [`ColBatch`]: typed data plus optional null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `None` ⇒ no NULLs in this column.
    nulls: Option<NullBitmap>,
}

/// Value equality: the same NULL slots and the same value in every other
/// slot. Two `Str` columns compare their strings, whatever dictionaries
/// hold them.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        if self.nulls != other.nulls {
            return false;
        }
        match (&self.data, &other.data) {
            (ColumnData::Str { dict: d, codes: x }, ColumnData::Str { dict: e, codes: y }) => {
                x.len() == y.len()
                    && (0..x.len()).all(|i| self.is_null(i) || d[x[i] as usize] == e[y[i] as usize])
            }
            (a, b) => a == b,
        }
    }
}

impl Column {
    pub fn new(data: ColumnData, nulls: Option<NullBitmap>) -> Self {
        if let ColumnData::Str { dict, codes } = &data {
            debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()), "code past dictionary");
        }
        Self { data, nulls }
    }

    /// Column-ify `values` under [`ColumnBuilder::push`]'s rule: typed when
    /// every non-null value shares one primitive type, otherwise (two types,
    /// or no non-null value at all) [`ColumnData::Mixed`].
    pub fn from_values(values: &[Value]) -> Self {
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push(v.clone());
        }
        b.finish()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap, if any slot is NULL.
    pub fn nulls(&self) -> Option<&NullBitmap> {
        self.nulls.as_ref()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match (&self.data, &self.nulls) {
            (ColumnData::Mixed(v), _) => v[i].is_null(),
            (_, Some(b)) => b.get(i),
            (_, None) => false,
        }
    }

    /// Materialize one slot as a [`Value`] (for a string, one `Arc` bump of
    /// its dictionary entry) — the client boundary's read.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Str { dict, codes } => Value::Str(dict[codes[i] as usize].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// New column containing the slots named by `idx`, in order. Unlike
    /// [`gather`](Self::gather), `idx` may repeat and reorder rows — the
    /// shape a vectorized join probe produces (one entry per match).
    pub fn take(&self, idx: &[u32]) -> Column {
        fn pick<T: Clone>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| v[i as usize].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(pick(v, idx)),
            ColumnData::Float64(v) => ColumnData::Float64(pick(v, idx)),
            ColumnData::Str { dict, codes } => {
                ColumnData::Str { dict: dict.clone(), codes: pick(codes, idx) }
            }
            ColumnData::Date(v) => ColumnData::Date(pick(v, idx)),
            ColumnData::Mixed(v) => ColumnData::Mixed(pick(v, idx)),
        };
        let nulls = self.nulls.as_ref().map(|b| {
            let mut out = NullBitmap::with_len(idx.len());
            for (new_i, &old_i) in idx.iter().enumerate() {
                if b.get(old_i as usize) {
                    out.set(new_i);
                }
            }
            out
        });
        // Drop an all-clear bitmap so is_null can stay on the fast path.
        let nulls = nulls.filter(|b| !b.is_empty());
        Column { data, nulls }
    }

    /// New column containing the slots named by `sel`, in order
    /// (selection-vector form of [`take`](Self::take)).
    pub fn gather(&self, sel: &SelVec) -> Column {
        self.take(sel.as_slice())
    }

    /// Total-order comparison of slot `i` of this column against slot `j` of
    /// `other`, **exactly** matching [`Value::total_cmp`]: NULLs first,
    /// Int↔Float exact via [`cmp_i64_f64`], Date through its Int embedding,
    /// floats by `f64::total_cmp`. Typed column pairs compare straight off
    /// the primitive slices; anything else (Mixed, cross-rank pairs) falls
    /// back to materializing the two `Value`s — semantics are identical
    /// either way, the fast paths only skip the `Value` construction.
    pub fn cmp_values(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        use ColumnData::*;
        match (&self.data, &other.data) {
            (Int64(x), Int64(y)) => x[i].cmp(&y[j]),
            (Float64(x), Float64(y)) => x[i].total_cmp(&y[j]),
            (Int64(x), Float64(y)) => cmp_i64_f64(x[i], y[j]),
            (Float64(x), Int64(y)) => cmp_i64_f64(y[j], x[i]).reverse(),
            (Date(x), Date(y)) => x[i].cmp(&y[j]),
            (Date(x), Int64(y)) => (x[i] as i64).cmp(&y[j]),
            (Int64(x), Date(y)) => x[i].cmp(&(y[j] as i64)),
            (Date(x), Float64(y)) => cmp_i64_f64(x[i] as i64, y[j]),
            (Float64(x), Date(y)) => cmp_i64_f64(y[j] as i64, x[i]).reverse(),
            (Str { dict: d, codes: x }, Str { dict: e, codes: y }) => {
                d[x[i] as usize].cmp(&e[y[j] as usize])
            }
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }
}

/// A selection vector: sorted, deduplicated indices of live rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    idx: Vec<u32>,
}

impl SelVec {
    /// Select every row of a batch of `n` rows.
    pub fn all(n: usize) -> Self {
        Self { idx: (0..n as u32).collect() }
    }

    pub fn empty() -> Self {
        Self { idx: Vec::new() }
    }

    /// Build from indices; caller guarantees sorted ascending + unique.
    pub fn from_sorted(idx: Vec<u32>) -> Self {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "SelVec must be sorted unique");
        Self { idx }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// True iff all `n` rows of the batch are selected.
    pub fn is_all(&self, n: usize) -> bool {
        self.idx.len() == n
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.idx
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.idx.iter().map(|&i| i as usize)
    }

    /// Keep only indices for which `keep` returns true.
    pub fn refine(&self, mut keep: impl FnMut(usize) -> bool) -> SelVec {
        SelVec { idx: self.idx.iter().copied().filter(|&i| keep(i as usize)).collect() }
    }

    /// Set union (both inputs sorted ⇒ linear merge).
    pub fn union(&self, other: &SelVec) -> SelVec {
        let (a, b) = (&self.idx, &other.idx);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        SelVec { idx: out }
    }

    /// Set difference `self \ other` (both sorted ⇒ linear).
    pub fn difference(&self, other: &SelVec) -> SelVec {
        let mut out = Vec::with_capacity(self.idx.len());
        let mut j = 0;
        for &i in &self.idx {
            while j < other.idx.len() && other.idx[j] < i {
                j += 1;
            }
            if j >= other.idx.len() || other.idx[j] != i {
                out.push(i);
            }
        }
        SelVec { idx: out }
    }
}

/// A batch in columnar layout: one `Arc`-shared [`Column`] per attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ColBatch {
    len: usize,
    cols: Vec<Arc<Column>>,
}

impl ColBatch {
    /// Rows per batch on the wire: the fill target of the delivery rule
    /// every producer follows (`qpipe_exec::viter::Rechunk`). A producer
    /// holds short output back until it has this many rows to send, so no
    /// batch on a pipe is shorter but a stream's last. It is not a cap: a
    /// longer batch — one probe batch's join output — goes out whole. Most
    /// pages hold fewer rows (a lineitem page about 100, a one-integer
    /// columnar page about 1 000), and such a page is joined with the next
    /// like any short batch.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Column-ify `rows`. Short rows are padded with NULL so every column has
    /// the batch's full length (heap pages always yield uniform rows).
    pub fn from_rows(rows: &[Tuple]) -> Self {
        let len = rows.len();
        let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut scratch: Vec<Value> = Vec::with_capacity(len);
        let cols = (0..width)
            .map(|c| {
                scratch.clear();
                scratch.extend(rows.iter().map(|r| r.get(c).cloned().unwrap_or(Value::Null)));
                Arc::new(Column::from_values(&scratch))
            })
            .collect();
        Self { len, cols }
    }

    /// Build directly from columns (benches/tests).
    pub fn from_columns(cols: Vec<Column>) -> Self {
        let len = cols.first().map_or(0, |c| c.len());
        Self::from_shared(len, cols.into_iter().map(Arc::new).collect())
    }

    /// Build from shared columns of `len` rows each — `Arc` bumps, no copy.
    /// With no column it is [`empty_rows`](Self::empty_rows).
    pub fn from_shared(len: usize, cols: Vec<Arc<Column>>) -> Self {
        assert!(cols.iter().all(|c| c.len() == len), "ragged columns");
        Self { len, cols }
    }

    /// A zero-column batch that still has `len` rows (`to_rows` yields `len`
    /// empty tuples) — the result of projecting an empty expression list.
    pub fn empty_rows(len: usize) -> Self {
        Self { len, cols: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    pub fn col(&self, i: usize) -> Option<&Column> {
        self.cols.get(i).map(|c| c.as_ref())
    }

    pub fn columns(&self) -> &[Arc<Column>] {
        &self.cols
    }

    /// Materialize one row (Arc bumps only, no payload copies).
    pub fn row(&self, i: usize) -> Tuple {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize every row — the row-engine boundary adapter.
    pub fn to_rows(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Keep only the named columns, in order. `Arc` bumps — never copies.
    pub fn project(&self, cols: &[usize]) -> ColBatch {
        ColBatch { len: self.len, cols: cols.iter().map(|&c| self.cols[c].clone()).collect() }
    }

    /// Copy out the selected rows into a dense batch.
    ///
    /// When `sel` covers every row this is a refcount bump, not a copy.
    pub fn gather(&self, sel: &SelVec) -> ColBatch {
        if sel.is_all(self.len) {
            return self.clone();
        }
        self.take(sel.as_slice())
    }

    /// Copy out the rows named by `idx` (repeats and arbitrary order
    /// allowed) — the join-probe shape [`SelVec`] cannot express.
    pub fn take(&self, idx: &[u32]) -> ColBatch {
        ColBatch { len: idx.len(), cols: self.cols.iter().map(|c| Arc::new(c.take(idx))).collect() }
    }

    /// Horizontal concatenation: the joined batch `left ++ right` (pure
    /// `Arc` bumps — the shape a vectorized join emits after taking each
    /// side's match rows). Both inputs must have the same row count.
    pub fn hcat(left: &ColBatch, right: &ColBatch) -> ColBatch {
        assert_eq!(left.len, right.len, "hcat row counts must agree");
        ColBatch { len: left.len, cols: left.cols.iter().chain(&right.cols).cloned().collect() }
    }

    /// Dense copy of the half-open row range `[offset, offset + len)` —
    /// typed sub-range copies per column (general-purpose batch splitting,
    /// e.g. re-chunking an oversized batch to pipe granularity).
    pub fn slice(&self, offset: usize, len: usize) -> ColBatch {
        assert!(offset + len <= self.len, "slice out of range");
        if offset == 0 && len == self.len {
            return self.clone();
        }
        let cols = self
            .cols
            .iter()
            .map(|c| {
                let data = match c.data() {
                    ColumnData::Int64(v) => ColumnData::Int64(v[offset..offset + len].to_vec()),
                    ColumnData::Float64(v) => ColumnData::Float64(v[offset..offset + len].to_vec()),
                    ColumnData::Str { dict, codes } => ColumnData::Str {
                        dict: dict.clone(),
                        codes: codes[offset..offset + len].to_vec(),
                    },
                    ColumnData::Date(v) => ColumnData::Date(v[offset..offset + len].to_vec()),
                    ColumnData::Mixed(v) => ColumnData::Mixed(v[offset..offset + len].to_vec()),
                };
                let nulls = c
                    .nulls()
                    .map(|b| {
                        let mut out = NullBitmap::with_len(len);
                        for i in 0..len {
                            if b.get(offset + i) {
                                out.set(i);
                            }
                        }
                        out
                    })
                    .filter(|b| !b.is_empty());
                Arc::new(Column::new(data, nulls))
            })
            .collect();
        ColBatch { len, cols }
    }

    /// Compare row `i` of `self` against row `j` of `other` on `keys`
    /// (direction-aware), with [`Value::total_cmp`] semantics per column —
    /// the comparator both the permutation sort and the k-way run merge use.
    ///
    /// Panics when a key column is out of range (same contract as the row
    /// path, which indexes `tuple[key.col]`).
    pub fn cmp_rows(&self, i: usize, other: &ColBatch, j: usize, keys: &[SortKey]) -> Ordering {
        for k in keys {
            let ord = self.cols[k.col].cmp_values(i, &other.cols[k.col], j);
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Stable permutation sorting this batch's rows by `keys`: returns the
    /// row indices in sorted order (ties keep input order). Only the key
    /// columns are touched — payload columns move once, when the caller
    /// gathers them with [`take`](Self::take).
    pub fn sort_perm(&self, keys: &[SortKey]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.len as u32).collect();
        perm.sort_by(|&a, &b| self.cmp_rows(a as usize, self, b as usize, keys));
        perm
    }
}

/// Accumulates one column — whole columns ([`append`](Self::append)), one
/// slot of a column ([`push_slot`](Self::push_slot)) or one value
/// ([`push`](Self::push)) at a time — keeping the typed representation while
/// the input agrees on it and degrading to [`ColumnData::Mixed`] otherwise.
/// A vectorized join build concatenates its input stream with it, a run merge
/// emits its winners with it, and a slotted page decodes straight into it
/// ([`push_str`](Self::push_str)).
///
/// A `Str` column builds one dictionary: a whole incoming column is remapped
/// once per source dictionary (the last remap is reused while
/// `Arc::ptr_eq` says the dictionary repeats — the batches of one page), and
/// a single slot or value is interned on its own.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    /// `None` until a representation is chosen: so far only NULLs, every one
    /// of them in `null_rows`. A `Str` payload's codes index `strs` until
    /// the builder finishes.
    data: Option<ColumnData>,
    strs: DictBuilder,
    /// Row indices that are NULL (typed representations and the untyped
    /// start; `Mixed` carries NULLs inline).
    null_rows: Vec<u32>,
    len: usize,
    /// Rows reserved once a representation is chosen.
    cap: usize,
}

impl ColumnBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder that reserves room for `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        Self { cap, ..Self::default() }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one value. This is the column-typing rule, one value at a time
    /// ([`Column::from_values`] is a loop over it): NULLs before the first
    /// non-null value wait untyped, the first non-null value picks the typed
    /// representation, a non-null value of another type turns the column
    /// `Mixed` for good, and a column that never sees a non-null value
    /// finishes `Mixed`.
    pub fn push(&mut self, v: Value) {
        match (&mut self.data, v) {
            (Some(ColumnData::Int64(d)), Value::Int(x)) => d.push(x),
            (Some(ColumnData::Float64(d)), Value::Float(x)) => d.push(x),
            (Some(ColumnData::Str { codes, .. }), Value::Str(s)) => {
                codes.push(self.strs.code(&s, || s.clone()))
            }
            (Some(ColumnData::Date(d)), Value::Date(x)) => d.push(x),
            (Some(ColumnData::Mixed(d)), v) => d.push(v),
            (data, Value::Null) => {
                if let Some(d) = data {
                    d.push_null();
                }
                self.null_rows.push(self.len as u32);
            }
            (None, v) => {
                self.start(&ColumnData::empty_for(&v));
                return self.push(v);
            }
            (Some(_), v) => self.push_mixed([v]),
        }
        self.len += 1;
    }

    /// Append one string borrowed from elsewhere (a slotted page's bytes):
    /// [`push`](Self::push) of `Value::str(s)`, but a string already in the
    /// column's dictionary allocates nothing.
    pub fn push_str(&mut self, s: &str) {
        match &mut self.data {
            Some(ColumnData::Str { codes, .. }) => {
                codes.push(self.strs.code(s, || Arc::from(s)));
                self.len += 1;
            }
            None => {
                self.start(&ColumnData::Str { dict: empty_dict(), codes: Vec::new() });
                self.push_str(s)
            }
            Some(_) => self.push(Value::str(s)),
        }
    }

    /// Append a NULL to a column of strings: [`push`](Self::push) of
    /// `Value::Null`, except that a column with no value yet turns `Str`, so
    /// a column of only NULL strings finishes typed rather than `Mixed`.
    pub fn push_null_str(&mut self) {
        if self.data.is_none() {
            self.start(&ColumnData::Str { dict: empty_dict(), codes: Vec::new() });
        }
        self.push(Value::Null);
    }

    /// Append every slot of `col`. A `Str` column whose dictionary
    /// outnumbers its rows (a selective gather of a page) is interned row by
    /// row, so the dictionary built follows the rows kept, not the rows
    /// scanned; any other is remapped a dictionary entry at a time.
    pub fn append(&mut self, col: &Column) {
        let n = col.len();
        match (&mut self.data, col.data()) {
            (Some(ColumnData::Int64(v)), ColumnData::Int64(o)) => v.extend_from_slice(o),
            (Some(ColumnData::Float64(v)), ColumnData::Float64(o)) => v.extend_from_slice(o),
            (Some(ColumnData::Str { codes, .. }), ColumnData::Str { dict, codes: o }) => {
                let null = |i: usize| col.nulls().is_some_and(|b| b.get(i));
                if dict.len() > n {
                    let strs = &mut self.strs;
                    codes.extend(o.iter().enumerate().map(|(i, &c)| {
                        let s = &dict[c as usize];
                        if null(i) {
                            0
                        } else {
                            strs.code(s, || s.clone())
                        }
                    }));
                } else {
                    let map = self.strs.remap(dict);
                    codes.extend(o.iter().enumerate().map(|(i, &c)| {
                        if null(i) {
                            0
                        } else {
                            map[c as usize]
                        }
                    }));
                }
            }
            (Some(ColumnData::Date(v)), ColumnData::Date(o)) => v.extend_from_slice(o),
            (Some(ColumnData::Mixed(v)), _) => v.extend((0..n).map(|i| col.value(i))),
            (None, like) => {
                self.start(like);
                return self.append(col);
            }
            (Some(_), _) => self.push_mixed((0..n).map(|i| col.value(i))),
        }
        if let (false, Some(b)) = (self.is_mixed(), col.nulls()) {
            let base = self.len as u32;
            self.null_rows.extend((0..n).filter(|&i| b.get(i)).map(|i| base + i as u32));
        }
        self.len += n;
    }

    /// Append a single slot of `col`, keeping the typed representation when
    /// the variant matches what was accumulated so far (the k-way run-merge
    /// emit path: one winning row at a time, no intermediate `Value` for
    /// typed columns).
    pub fn push_slot(&mut self, col: &Column, i: usize) {
        let null = col.is_null(i);
        match (&mut self.data, col.data()) {
            (Some(ColumnData::Int64(v)), ColumnData::Int64(o)) => {
                v.push(if null { 0 } else { o[i] })
            }
            (Some(ColumnData::Float64(v)), ColumnData::Float64(o)) => {
                v.push(if null { 0.0 } else { o[i] })
            }
            (Some(ColumnData::Str { codes, .. }), ColumnData::Str { dict, codes: o }) => {
                let s = &dict[o[i] as usize];
                codes.push(if null { 0 } else { self.strs.code(s, || s.clone()) })
            }
            (Some(ColumnData::Date(v)), ColumnData::Date(o)) => v.push(if null { 0 } else { o[i] }),
            (Some(ColumnData::Mixed(v)), _) => v.push(col.value(i)),
            (None, like) => {
                self.start(like);
                return self.push_slot(col, i);
            }
            (Some(_), _) => self.push_mixed([col.value(i)]),
        }
        if null && !self.is_mixed() {
            self.null_rows.push(self.len as u32);
        }
        self.len += 1;
    }

    fn is_mixed(&self) -> bool {
        matches!(self.data, Some(ColumnData::Mixed(_)))
    }

    /// Leave the untyped start for `like`'s representation: the NULLs so far
    /// become placeholders under the bitmap, or inline NULLs in `Mixed`.
    fn start(&mut self, like: &ColumnData) {
        fn filled<T: Clone>(fill: T, n: usize, cap: usize) -> Vec<T> {
            let mut v = Vec::with_capacity(cap.max(n));
            v.resize(n, fill);
            v
        }
        let (n, cap) = (self.len, self.cap);
        self.data = Some(match like {
            ColumnData::Int64(_) => ColumnData::Int64(filled(0, n, cap)),
            ColumnData::Float64(_) => ColumnData::Float64(filled(0.0, n, cap)),
            ColumnData::Str { .. } => {
                ColumnData::Str { dict: empty_dict(), codes: filled(0, n, cap) }
            }
            ColumnData::Date(_) => ColumnData::Date(filled(0, n, cap)),
            ColumnData::Mixed(_) => {
                self.null_rows.clear();
                ColumnData::Mixed(filled(Value::Null, n, cap))
            }
        });
    }

    /// Move the payload out, a `Str` payload with its dictionary frozen in
    /// (the one entry `""` when every row is NULL, so every code indexes it).
    fn take_data(&mut self) -> Option<ColumnData> {
        let mut data = self.data.take()?;
        if let ColumnData::Str { dict, codes } = &mut data {
            *dict = self.strs.freeze();
            if dict.is_empty() && !codes.is_empty() {
                *dict = Arc::from([Arc::from("")]);
            }
        }
        Some(data)
    }

    /// Turn the column `Mixed` (if it is not already), then append `more`.
    fn push_mixed(&mut self, more: impl IntoIterator<Item = Value>) {
        let mut values = match self.take_data() {
            Some(ColumnData::Mixed(v)) => v,
            Some(data) => {
                let typed = Column::new(data, self.bitmap());
                (0..self.len).map(|i| typed.value(i)).collect()
            }
            None => vec![Value::Null; self.len],
        };
        values.extend(more);
        self.data = Some(ColumnData::Mixed(values));
        self.null_rows.clear();
    }

    fn bitmap(&self) -> Option<NullBitmap> {
        if self.null_rows.is_empty() {
            return None;
        }
        let mut b = NullBitmap::with_len(self.len);
        for &i in &self.null_rows {
            b.set(i as usize);
        }
        Some(b)
    }

    pub fn finish(mut self) -> Column {
        let nulls = self.bitmap();
        match self.take_data() {
            Some(data) => Column { data, nulls },
            // Never typed — only NULLs, or nothing: `Mixed`, so `value()` is
            // exact (`from_values` of an all-NULL or empty slice).
            None => Column { data: ColumnData::Mixed(vec![Value::Null; self.len]), nulls: None },
        }
    }
}

/// The dictionary a [`ColumnBuilder`] grows for a `Str` column: each
/// distinct string gets the next code and is found again through a flat
/// open-addressing table keyed by [`fnv1a`] (linear probing, a power-of-two
/// length kept at most half full).
#[derive(Debug, Default)]
struct DictBuilder {
    /// `(string, code)` per occupied slot.
    slots: Vec<Option<(Arc<str>, u32)>>,
    len: usize,
    /// The source dictionary [`remap`](Self::remap) translated last (kept
    /// alive, so its address cannot be reused by another), and the code here
    /// of each of its entries.
    last: Option<Arc<[Arc<str>]>>,
    last_map: Vec<u32>,
}

impl DictBuilder {
    /// The code of `s`, entering `make()` as a new entry when `s` is not in
    /// the dictionary yet.
    fn code(&mut self, s: &str, make: impl FnOnce() -> Arc<str>) -> u32 {
        if self.slots.is_empty() {
            self.slots = vec![None; 16];
        }
        let mut at = self.home(s);
        while let Some((kept, code)) = &self.slots[at] {
            if **kept == *s {
                return *code;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
        let code = self.len as u32;
        self.slots[at] = Some((make(), code));
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let grown = vec![None; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, grown);
            for (s, code) in old.into_iter().flatten() {
                let mut at = self.home(&s);
                while self.slots[at].is_some() {
                    at = (at + 1) & (self.slots.len() - 1);
                }
                self.slots[at] = Some((s, code));
            }
        }
        code
    }

    /// The first slot of `s`'s probe sequence: the hash's top bits, its best
    /// mixed.
    fn home(&self, s: &str) -> usize {
        (fnv1a(s.as_bytes()) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The code here of each entry of `dict`, in `dict`'s order: computed
    /// once per source dictionary, and reused while the same dictionary comes
    /// back.
    fn remap(&mut self, dict: &Arc<[Arc<str>]>) -> &[u32] {
        if !self.last.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict)) {
            self.last_map.clear();
            for s in dict.iter() {
                let code = self.code(s, || s.clone());
                self.last_map.push(code);
            }
            self.last = Some(dict.clone());
        }
        &self.last_map
    }

    /// The dictionary in code order, leaving this builder empty.
    fn freeze(&mut self) -> Arc<[Arc<str>]> {
        let taken = std::mem::take(self);
        let mut by_code: Vec<Option<Arc<str>>> = vec![None; taken.len];
        for (s, code) in taken.slots.into_iter().flatten() {
            by_code[code as usize] = Some(s);
        }
        by_code.into_iter().flatten().collect()
    }
}

/// Concatenate a stream of [`ColBatch`]es into one contiguous batch (the
/// vectorized join's build-side accumulator). All inputs must share a width.
#[derive(Debug, Default)]
pub struct ColBatchBuilder {
    cols: Vec<ColumnBuilder>,
    len: usize,
}

impl ColBatchBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append all rows of `batch`. Returns `false` (appending nothing) when
    /// the width disagrees with what was accumulated so far — the caller
    /// fails its operator rather than silently misaligning columns.
    #[must_use]
    pub fn append(&mut self, batch: &ColBatch) -> bool {
        if self.cols.is_empty() && self.len == 0 {
            self.cols = (0..batch.num_cols()).map(|_| ColumnBuilder::new()).collect();
        } else if batch.num_cols() != self.cols.len() {
            return false;
        }
        for (builder, col) in self.cols.iter_mut().zip(batch.columns()) {
            builder.append(col);
        }
        self.len += batch.len();
        true
    }

    /// Append one row of `batch` slot-by-slot (the run-merge emit path).
    /// Returns `false` (appending nothing) on a width mismatch, like
    /// [`append`](Self::append).
    #[must_use]
    pub fn push_row_from(&mut self, batch: &ColBatch, i: usize) -> bool {
        if self.cols.is_empty() && self.len == 0 {
            self.cols = (0..batch.num_cols()).map(|_| ColumnBuilder::new()).collect();
        } else if batch.num_cols() != self.cols.len() {
            return false;
        }
        for (builder, col) in self.cols.iter_mut().zip(batch.columns()) {
            builder.push_slot(col, i);
        }
        self.len += 1;
        true
    }

    pub fn finish(self) -> ColBatch {
        let len = self.len;
        if self.cols.is_empty() {
            return ColBatch::empty_rows(len);
        }
        ColBatch { len, cols: self.cols.into_iter().map(|c| Arc::new(c.finish())).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Tuple> {
        vec![
            vec![Value::Int(1), Value::Float(1.5), Value::str("ab"), Value::Date(10)],
            vec![Value::Int(2), Value::Null, Value::str("cd"), Value::Date(20)],
            vec![Value::Null, Value::Float(3.5), Value::Null, Value::Date(30)],
        ]
    }

    #[test]
    fn round_trip_rows() {
        let rs = rows();
        let cb = ColBatch::from_rows(&rs);
        assert_eq!(cb.len(), 3);
        assert_eq!(cb.num_cols(), 4);
        assert_eq!(cb.to_rows(), rs);
    }

    #[test]
    fn typed_columns_detected() {
        let cb = ColBatch::from_rows(&rows());
        assert!(matches!(cb.col(0).unwrap().data(), ColumnData::Int64(_)));
        assert!(matches!(cb.col(1).unwrap().data(), ColumnData::Float64(_)));
        assert!(matches!(cb.col(2).unwrap().data(), ColumnData::Str { .. }));
        assert!(matches!(cb.col(3).unwrap().data(), ColumnData::Date(_)));
        assert!(cb.col(0).unwrap().is_null(2));
        assert!(!cb.col(0).unwrap().is_null(0));
    }

    #[test]
    fn mixed_column_degrades() {
        let rs = vec![vec![Value::Int(1)], vec![Value::str("x")]];
        let cb = ColBatch::from_rows(&rs);
        assert!(matches!(cb.col(0).unwrap().data(), ColumnData::Mixed(_)));
        assert_eq!(cb.to_rows(), rs);
    }

    #[test]
    fn all_null_column_round_trips() {
        let rs = vec![vec![Value::Null], vec![Value::Null]];
        let cb = ColBatch::from_rows(&rs);
        assert_eq!(cb.to_rows(), rs);
    }

    #[test]
    fn ragged_rows_pad_with_null() {
        let rs = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
        let cb = ColBatch::from_rows(&rs);
        assert_eq!(cb.row(1), vec![Value::Int(3), Value::Null]);
    }

    #[test]
    fn gather_and_project() {
        let cb = ColBatch::from_rows(&rows());
        let sel = SelVec::from_sorted(vec![0, 2]);
        let g = cb.gather(&sel);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(1)[3], Value::Date(30));
        assert!(g.col(0).unwrap().is_null(1));
        let p = cb.project(&[3, 0]);
        assert_eq!(p.row(0), vec![Value::Date(10), Value::Int(1)]);
    }

    #[test]
    fn gather_all_is_arc_bump() {
        let cb = ColBatch::from_rows(&rows());
        let g = cb.gather(&SelVec::all(3));
        assert!(Arc::ptr_eq(&cb.columns()[0], &g.columns()[0]));
    }

    #[test]
    fn null_bitmap_from_packed_bytes() {
        // Bit i of byte i/8 ⇒ slot i NULL (the on-page columnar format).
        let b = NullBitmap::from_packed_bytes(&[0b0000_0101, 0b1000_0000], 16);
        let nulls: Vec<usize> = (0..16).filter(|&i| b.get(i)).collect();
        assert_eq!(nulls, vec![0, 2, 15]);
        assert!(NullBitmap::from_packed_bytes(&[0], 8).is_empty());
        // Trailing bits past `len` are ignored.
        let b = NullBitmap::from_packed_bytes(&[0b1111_1111], 3);
        assert_eq!((0..3).filter(|&i| b.get(i)).count(), 3);
    }

    #[test]
    fn take_repeats_and_reorders() {
        let cb = ColBatch::from_rows(&rows());
        let t = cb.take(&[2, 0, 0, 1]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.row(0)[3], Value::Date(30));
        assert_eq!(t.row(1), t.row(2));
        assert_eq!(t.row(3)[0], Value::Int(2));
        assert!(t.col(0).unwrap().is_null(0), "null bitmap follows the take");
        assert!(!t.col(0).unwrap().is_null(1));
    }

    #[test]
    fn slice_and_hcat() {
        let cb = ColBatch::from_rows(&rows());
        let s = cb.slice(1, 2);
        assert_eq!(s.to_rows(), rows()[1..3].to_vec());
        let j = ColBatch::hcat(&s, &s);
        assert_eq!(j.num_cols(), 8);
        assert_eq!(j.len(), 2);
        let mut expect = rows()[1].clone();
        expect.extend(rows()[1].clone());
        assert_eq!(j.row(0), expect);
    }

    #[test]
    fn batch_builder_concatenates_typed() {
        let a = ColBatch::from_rows(&rows());
        let b = ColBatch::from_rows(&rows());
        let mut builder = ColBatchBuilder::new();
        assert!(builder.append(&a));
        assert!(builder.append(&b));
        let out = builder.finish();
        let mut expect = rows();
        expect.extend(rows());
        assert_eq!(out.to_rows(), expect);
        assert!(matches!(out.col(0).unwrap().data(), ColumnData::Int64(_)), "stays typed");
        assert!(out.col(0).unwrap().is_null(2) && out.col(0).unwrap().is_null(5));
    }

    #[test]
    fn batch_builder_degrades_mismatched_column_types() {
        let ints = ColBatch::from_rows(&[vec![Value::Int(1)], vec![Value::Null]]);
        let floats = ColBatch::from_rows(&[vec![Value::Float(2.5)]]);
        let mut builder = ColBatchBuilder::new();
        assert!(builder.append(&ints));
        assert!(builder.append(&floats));
        let out = builder.finish();
        assert!(matches!(out.col(0).unwrap().data(), ColumnData::Mixed(_)));
        assert_eq!(
            out.to_rows(),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Float(2.5)]]
        );
    }

    #[test]
    fn batch_builder_rejects_ragged_widths() {
        let two = ColBatch::from_rows(&[vec![Value::Int(1), Value::Int(2)]]);
        let one = ColBatch::from_rows(&[vec![Value::Int(1)]]);
        let mut builder = ColBatchBuilder::new();
        assert!(builder.append(&two));
        assert!(!builder.append(&one));
        assert_eq!(builder.finish().len(), 1, "rejected batch appended nothing");
    }

    #[test]
    fn sort_perm_matches_row_sort_with_nulls_and_cross_types() {
        // Key column deliberately mixed-type (Int/Float/Date/Null) so both
        // the Mixed fallback and total_cmp semantics are exercised; second
        // key descending breaks ties.
        let big = 1i64 << 53;
        let rs: Vec<Tuple> = vec![
            vec![Value::Int(big + 1), Value::Int(0)],
            vec![Value::Float(big as f64), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(big), Value::Int(3)],
            vec![Value::Date(5), Value::Int(4)],
            vec![Value::Float(5.0), Value::Int(5)],
            vec![Value::Float(-0.0), Value::Int(6)],
            vec![Value::Int(0), Value::Int(7)],
        ];
        let cb = ColBatch::from_rows(&rs);
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        let perm = cb.sort_perm(&keys);
        let got: Vec<Tuple> = perm.iter().map(|&i| cb.row(i as usize)).collect();
        let mut expect = rs.clone();
        expect.sort_by(|a, b| a[0].total_cmp(&b[0]).then_with(|| a[1].total_cmp(&b[1]).reverse()));
        assert_eq!(got, expect);
    }

    #[test]
    fn sort_perm_is_stable_on_duplicate_keys() {
        let rs: Vec<Tuple> = (0..40).map(|i| vec![Value::Int(i % 3), Value::Int(i)]).collect();
        let cb = ColBatch::from_rows(&rs);
        let perm = cb.sort_perm(&[SortKey::asc(0)]);
        // Within each key group, payload (= input position) stays ascending.
        let mut last = std::collections::HashMap::new();
        for &i in &perm {
            let key = cb.row(i as usize)[0].clone();
            let pos = cb.row(i as usize)[1].as_int().unwrap();
            if let Some(prev) = last.insert(key.as_int().unwrap(), pos) {
                assert!(prev < pos, "stable sort keeps input order within a key group");
            }
        }
    }

    #[test]
    fn cmp_values_matches_total_cmp_across_column_types() {
        // One single-row column per shape; compare every pair both ways.
        let cols: Vec<Column> = vec![
            Column::from_values(&[Value::Int(5)]),
            Column::from_values(&[Value::Float(5.5)]),
            Column::from_values(&[Value::Date(5)]),
            Column::from_values(&[Value::str("5")]),
            Column::from_values(&[Value::Null]),
            Column::from_values(&[Value::Int(5), Value::str("x")]), // Mixed
            Column::from_values(&[Value::Float((1i64 << 53) as f64)]),
            Column::from_values(&[Value::Int((1 << 53) + 1)]),
        ];
        for a in &cols {
            for b in &cols {
                assert_eq!(
                    a.cmp_values(0, b, 0),
                    a.value(0).total_cmp(&b.value(0)),
                    "{:?} vs {:?}",
                    a.value(0),
                    b.value(0)
                );
            }
        }
    }

    #[test]
    fn push_slot_round_trips_and_stays_typed() {
        let cb = ColBatch::from_rows(&rows());
        let mut out = ColBatchBuilder::new();
        for i in [2, 0, 1, 0] {
            assert!(out.push_row_from(&cb, i));
        }
        let got = out.finish();
        assert_eq!(got.to_rows(), vec![cb.row(2), cb.row(0), cb.row(1), cb.row(0)]);
        assert!(matches!(got.col(0).unwrap().data(), ColumnData::Int64(_)), "stays typed");
        assert!(got.col(0).unwrap().is_null(0), "null bitmap follows the slot");
    }

    #[test]
    fn push_slot_degrades_on_variant_mismatch() {
        let ints = Column::from_values(&[Value::Int(1)]);
        let strs = Column::from_values(&[Value::str("s")]);
        let mut b = ColumnBuilder::new();
        b.push_slot(&ints, 0);
        b.push_slot(&strs, 0);
        let col = b.finish();
        assert!(matches!(col.data(), ColumnData::Mixed(_)));
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::str("s"));
    }

    #[test]
    fn push_is_the_from_values_rule_one_value_at_a_time() {
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Int(3), Value::Null, Value::Int(4)],
            vec![Value::Null, Value::str("a"), Value::str("")],
            vec![Value::Float(-0.0), Value::Null, Value::Float(2.5)],
            vec![Value::Null, Value::Date(1), Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::Float(1.0), Value::str("x")],
        ];
        for values in cases {
            let col = Column::from_values(&values);
            let mut b = ColumnBuilder::new();
            values.iter().for_each(|v| b.push(v.clone()));
            assert_eq!(b.finish(), col, "{values:?}");
            assert_eq!((0..col.len()).map(|i| col.value(i)).collect::<Vec<_>>(), values);
        }
        let typed = Column::from_values(&[Value::Null, Value::Int(3)]);
        assert!(matches!(typed.data(), ColumnData::Int64(_)) && typed.is_null(0));
        let mixed = Column::from_values(&[Value::Null, Value::Int(3), Value::Date(3)]);
        assert!(matches!(mixed.data(), ColumnData::Mixed(_)) && mixed.nulls().is_none());
        assert!(matches!(Column::from_values(&[Value::Null]).data(), ColumnData::Mixed(_)));
    }

    #[test]
    fn leading_pushed_nulls_survive_a_column_append() {
        let ints = Column::from_values(&[Value::Int(1), Value::Null]);
        let mut b = ColumnBuilder::new();
        b.push(Value::Null);
        b.append(&ints);
        b.push_slot(&ints, 0);
        let col = b.finish();
        assert!(matches!(col.data(), ColumnData::Int64(_)), "stays typed");
        let want = [Value::Null, Value::Int(1), Value::Null, Value::Int(1)];
        assert_eq!((0..4).map(|i| col.value(i)).collect::<Vec<_>>(), want);
    }

    #[test]
    fn string_columns_share_one_dictionary_and_compare_by_value() {
        let strs =
            |vals: &[&str]| Column::from_values(&vals.iter().map(Value::str).collect::<Vec<_>>());
        let (a, b) = (strs(&["x", "y", "x"]), strs(&["y", "z"]));
        let ColumnData::Str { dict, codes } = a.data() else { panic!("typed str") };
        assert_eq!((dict.len(), codes.as_slice()), (2, &[0, 1, 0][..]), "one entry per value");
        // Gathering keeps the dictionary; appending remaps it once.
        let t = a.take(&[2, 1]);
        let ColumnData::Str { dict: kept, .. } = t.data() else { panic!("typed str") };
        assert!(Arc::ptr_eq(dict, kept));
        let mut builder = ColumnBuilder::new();
        builder.push(Value::Null);
        for col in [&a, &b, &a] {
            builder.append(col);
        }
        let joined = builder.finish();
        let ColumnData::Str { dict, codes } = joined.data() else { panic!("typed str") };
        assert_eq!(dict.iter().map(|s| &**s).collect::<Vec<_>>(), ["x", "y", "z"]);
        assert_eq!(codes[0], 0, "a NULL slot holds code 0");
        // Equal values compare equal across dictionaries.
        assert_eq!(joined.take(&[2, 3]), strs(&["y", "x"]));
        assert_ne!(joined.take(&[2, 3]), strs(&["y", "y"]));
    }

    #[test]
    fn appending_a_selective_gather_keeps_only_the_strings_it_holds() {
        let values: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
        let wide = Column::from_values(&values);
        let mut builder = ColumnBuilder::new();
        builder.append(&wide.take(&[7, 3, 7]));
        builder.push_null_str();
        builder.append(&wide.take(&[3]));
        let kept = builder.finish();
        let ColumnData::Str { dict, codes } = kept.data() else { panic!("typed str") };
        assert_eq!(dict.iter().map(|s| &**s).collect::<Vec<_>>(), ["v7", "v3"]);
        assert_eq!(codes.as_slice(), &[0, 1, 0, 0, 1]);
        assert!(kept.is_null(3) && (0..5).filter(|&i| kept.is_null(i)).count() == 1);
        // A column of only NULL strings stays typed.
        let mut nulls = ColumnBuilder::new();
        nulls.push_null_str();
        nulls.push_null_str();
        let nulls = nulls.finish();
        assert!(matches!(nulls.data(), ColumnData::Str { .. }));
        assert_eq!((nulls.value(0), nulls.value(1)), (Value::Null, Value::Null));
    }

    #[test]
    fn selvec_set_ops() {
        let a = SelVec::from_sorted(vec![0, 2, 4, 6]);
        let b = SelVec::from_sorted(vec![1, 2, 3, 6]);
        assert_eq!(a.union(&b).as_slice(), &[0, 1, 2, 3, 4, 6]);
        assert_eq!(a.difference(&b).as_slice(), &[0, 4]);
        assert!(SelVec::all(3).is_all(3));
        assert_eq!(SelVec::all(0).len(), 0);
        assert_eq!(a.refine(|i| i > 2).as_slice(), &[4, 6]);
    }
}
