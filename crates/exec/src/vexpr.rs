//! Column-at-a-time expression evaluation over columnar batches.
//!
//! The scalar interpreter in [`expr`](crate::expr) walks the `Expr` tree once
//! per tuple, cloning `Value`s as it goes — fine for the iterator engine,
//! ruinous on the shared-scan hot path where one scanner thread evaluates
//! *per-consumer* predicates over every page (paper §4.3.1: the per-tuple
//! cost is multiplied by the number of attached consumers), and in an
//! aggregate whose inputs are arithmetic (Q1's `sum(price * (1 - disc))`).
//! Here every `Expr` node evaluates over a whole [`ColBatch`]:
//!
//! * [`Expr::eval_filter`] refines a [`SelVec`] — comparisons run over
//!   primitive slices (`&[i64]`, `&[i32]`, `&[f64]`) with no per-row
//!   allocation and no `Value` construction; a string test runs once per
//!   dictionary entry and each row looks its `u32` code up (see
//!   [`str_refine`]). Conjunctions shrink the selection progressively, so
//!   later terms only touch surviving rows.
//! * [`Expr::eval_project`] evaluates to one dense [`Column`] over the
//!   selection: a column reference is read in place (borrowed) or gathered,
//!   arithmetic over `Int64`/`Float64`/`Date` columns and numeric literals
//!   runs typed loops (a literal is a scalar broadcast, never a column), and
//!   a boolean node used as a number is its filter result written as 0/1.
//!
//! There is no row fallback: a predicate over a computed operand evaluates
//! the operand to a column first and runs the same comparison kernels, and
//! an operand pair without a typed loop (`Str`, [`ColumnData::Mixed`],
//! cross-rank pairs like Str⋄Int) goes *slot by slot* through the scalar
//! operators the interpreter itself calls ([`ArithOp::apply`],
//! `CmpOp::test`) — so results, float bits included, are identical to
//! `Expr::eval` by construction; property-tested in `tests/properties.rs`.

use crate::expr::{is_truthy, ArithOp, CmpOp, Expr};
use qpipe_common::colbatch::{ColBatch, Column, ColumnData, NullBitmap, SelVec};
use qpipe_common::{cmp_i64_f64, QError, QResult, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// One evaluated operand of an operator node, addressed by whatever selection
/// the caller evaluated it under.
enum Operand<'c, 'v> {
    Col(Cow<'c, Column>),
    /// The same value in every slot: a scalar broadcast, never materialized.
    Lit(Cow<'v, Value>),
}

impl Operand<'_, '_> {
    fn value(&self, i: usize) -> Value {
        match self {
            Operand::Col(c) => c.value(i),
            Operand::Lit(v) => Value::clone(v),
        }
    }
}

/// All of `sel` or none of it: a predicate whose operands are all literals.
fn keep_if(sel: &SelVec, pass: bool) -> SelVec {
    if pass {
        sel.clone()
    } else {
        SelVec::empty()
    }
}

/// Comparison kernel: `col[i] op lit` for every selected row, with the
/// column's nulls dropping out (SQL: NULL comparisons are not true). Typed
/// column/literal pairs compare off the primitive slice; any other pair
/// reads the slot and runs [`CmpOp::test`].
fn cmp_col_lit(col: &Column, op: CmpOp, lit: &Value, sel: &SelVec) -> SelVec {
    // NULL literal: comparison is never true, regardless of column contents.
    if lit.is_null() {
        return SelVec::empty();
    }
    let no_nulls = col.nulls().is_none();
    macro_rules! kernel {
        ($data:expr, $to:expr) => {{
            let data = $data;
            let to = $to;
            if no_nulls {
                sel.refine(|i| op.matches(to(&data[i])))
            } else {
                sel.refine(|i| !col.is_null(i) && op.matches(to(&data[i])))
            }
        }};
    }
    match (col.data(), lit) {
        (ColumnData::Int64(v), Value::Int(x)) => {
            let x = *x;
            kernel!(v, move |a: &i64| a.cmp(&x))
        }
        (ColumnData::Int64(v), Value::Float(x)) => {
            let x = *x;
            kernel!(v, move |a: &i64| cmp_i64_f64(*a, x))
        }
        // Int column vs Date literal compares numerically (Value::total_cmp).
        (ColumnData::Int64(v), Value::Date(d)) => {
            let d = *d as i64;
            kernel!(v, move |a: &i64| a.cmp(&d))
        }
        (ColumnData::Float64(v), Value::Float(x)) => {
            let x = *x;
            kernel!(v, move |a: &f64| a.total_cmp(&x))
        }
        (ColumnData::Float64(v), Value::Int(x)) => {
            let x = *x;
            kernel!(v, move |a: &f64| cmp_i64_f64(x, *a).reverse())
        }
        (ColumnData::Date(v), Value::Date(d)) => {
            let d = *d;
            kernel!(v, move |a: &i32| a.cmp(&d))
        }
        (ColumnData::Date(v), Value::Int(x)) => {
            let x = *x;
            kernel!(v, move |a: &i32| (*a as i64).cmp(&x))
        }
        (ColumnData::Str { dict, codes }, Value::Str(s)) => {
            str_refine(col, dict, codes, sel, false, |a| op.matches(a.cmp(s)))
        }
        _ => sel.refine(|i| op.test(&col.value(i), lit)),
    }
}

/// The rows of `sel` whose string passes `test`, over a dictionary-coded
/// column; a NULL row passes iff `null_passes`. Each dictionary entry is
/// tested once and each row looks its code up — unless the dictionary
/// outnumbers the selected rows, when each selected row is tested directly.
fn str_refine(
    col: &Column,
    dict: &[Arc<str>],
    codes: &[u32],
    sel: &SelVec,
    null_passes: bool,
    test: impl Fn(&str) -> bool,
) -> SelVec {
    let nulls = col.nulls();
    if dict.len() > sel.len() {
        return sel.refine(|r| match nulls {
            Some(b) if b.get(r) => null_passes,
            _ => test(&dict[codes[r] as usize]),
        });
    }
    let pass: Vec<bool> = dict.iter().map(|s| test(s)).collect();
    match nulls {
        None => sel.refine(|r| pass[codes[r] as usize]),
        Some(b) => sel.refine(|r| if b.get(r) { null_passes } else { pass[codes[r] as usize] }),
    }
}

/// Comparison kernel: `a[i] op b[i]` for every selected row. A row where
/// either side is NULL never matches. Typed column pairs compare off both
/// primitive slices (string equality on one dictionary compares codes, any
/// other string pair the strings); `Mixed` columns and cross-rank pairs like
/// Str⋄Int go through [`Column::cmp_values`] — `Value::total_cmp` either way.
fn cmp_col_col(a: &Column, b: &Column, op: CmpOp, sel: &SelVec) -> SelVec {
    macro_rules! kernel {
        ($x:expr, $y:expr, $ord:expr) => {{
            let (x, y) = ($x, $y);
            let ord = $ord;
            if a.nulls().is_none() && b.nulls().is_none() {
                sel.refine(|i| op.matches(ord(&x[i], &y[i])))
            } else {
                sel.refine(|i| !a.is_null(i) && !b.is_null(i) && op.matches(ord(&x[i], &y[i])))
            }
        }};
    }
    match (a.data(), b.data()) {
        (ColumnData::Int64(x), ColumnData::Int64(y)) => {
            kernel!(x, y, |p: &i64, q: &i64| p.cmp(q))
        }
        (ColumnData::Int64(x), ColumnData::Float64(y)) => {
            kernel!(x, y, |p: &i64, q: &f64| cmp_i64_f64(*p, *q))
        }
        (ColumnData::Float64(x), ColumnData::Int64(y)) => {
            kernel!(x, y, |p: &f64, q: &i64| cmp_i64_f64(*q, *p).reverse())
        }
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            kernel!(x, y, |p: &f64, q: &f64| p.total_cmp(q))
        }
        (ColumnData::Date(x), ColumnData::Date(y)) => {
            kernel!(x, y, |p: &i32, q: &i32| p.cmp(q))
        }
        (ColumnData::Date(x), ColumnData::Int64(y)) => {
            kernel!(x, y, |p: &i32, q: &i64| (*p as i64).cmp(q))
        }
        (ColumnData::Int64(x), ColumnData::Date(y)) => {
            kernel!(x, y, |p: &i64, q: &i32| p.cmp(&(*q as i64)))
        }
        (ColumnData::Str { dict: dx, codes: x }, ColumnData::Str { dict: dy, codes: y }) => {
            if Arc::ptr_eq(dx, dy) && matches!(op, CmpOp::Eq | CmpOp::Ne) {
                kernel!(x, y, |p: &u32, q: &u32| p.cmp(q))
            } else {
                kernel!(x, y, |p: &u32, q: &u32| dx[*p as usize].cmp(&dy[*q as usize]))
            }
        }
        _ => sel.refine(|i| !a.is_null(i) && !b.is_null(i) && op.matches(a.cmp_values(i, b, i))),
    }
}

/// `a op b` over two evaluated operands, for the rows of `sel`.
fn cmp_operands(op: CmpOp, a: &Operand<'_, '_>, b: &Operand<'_, '_>, sel: &SelVec) -> SelVec {
    match (a, b) {
        (Operand::Col(x), Operand::Lit(v)) => cmp_col_lit(x, op, v, sel),
        // Literal-column: flip the operator and reuse the kernel.
        (Operand::Lit(v), Operand::Col(y)) => cmp_col_lit(y, op.mirror(), v, sel),
        (Operand::Col(x), Operand::Col(y)) => cmp_col_col(x, y, op, sel),
        (Operand::Lit(x), Operand::Lit(y)) => keep_if(sel, op.test(x, y)),
    }
}

/// `e LIKE 'prefix%'` over an evaluated operand.
fn starts_with(e: &Operand<'_, '_>, prefix: &str, sel: &SelVec) -> SelVec {
    let col = match e {
        Operand::Col(col) => col,
        Operand::Lit(v) => return keep_if(sel, v.as_str().is_some_and(|s| s.starts_with(prefix))),
    };
    match col.data() {
        ColumnData::Str { dict, codes } => {
            str_refine(col, dict, codes, sel, false, |s| s.starts_with(prefix))
        }
        // Non-string typed columns can never match a prefix.
        ColumnData::Int64(_) | ColumnData::Float64(_) | ColumnData::Date(_) => SelVec::empty(),
        ColumnData::Mixed(v) => {
            sel.refine(|r| v[r].as_str().is_some_and(|s| s.starts_with(prefix)))
        }
    }
}

/// `e IN (list)` over an evaluated operand (`Value::eq` membership, under
/// which a NULL slot matches a NULL list entry — the interpreter's rule).
fn in_list(e: &Operand<'_, '_>, list: &[Value], sel: &SelVec) -> SelVec {
    let col = match e {
        Operand::Col(col) => col,
        Operand::Lit(v) => return keep_if(sel, list.contains(v)),
    };
    match col.data() {
        // Int64 column, all-Int list (so a NULL slot never matches).
        ColumnData::Int64(v) if list.iter().all(|x| matches!(x, Value::Int(_))) => {
            let set: Vec<i64> = list.iter().filter_map(|x| x.as_int()).collect();
            return sel.refine(|r| !col.is_null(r) && set.contains(&v[r]));
        }
        // A string equals only an equal string; a NULL slot, a NULL entry.
        ColumnData::Str { dict, codes } => {
            let null_in = list.iter().any(Value::is_null);
            return str_refine(col, dict, codes, sel, null_in, |s| {
                list.iter().any(|x| x.as_str() == Some(s))
            });
        }
        _ => {}
    }
    // Generic: per-row Value (Arc bump at worst), no tuple.
    sel.refine(|r| list.contains(&col.value(r)))
}

// ---------------------------------------------------------------------------
// Arithmetic kernels
// ---------------------------------------------------------------------------

/// The numbers of one arithmetic operand: a primitive slice or a constant.
enum Vals<'a, T: Clone> {
    Slice(Cow<'a, [T]>),
    Const(T),
}

/// A numeric operand by the rank it computes at: `Int64` and `Date` columns
/// and literals are integers (a date is its day number), `Float64` floats.
enum Num<'a> {
    Int(Vals<'a, i64>),
    Float(Vals<'a, f64>),
}

impl<'a> Num<'a> {
    /// `None` for an operand the typed loops do not cover (`Str`, `Mixed`).
    fn of(o: &'a Operand<'_, '_>) -> Option<Num<'a>> {
        Some(match o {
            Operand::Lit(v) => match v.as_ref() {
                Value::Int(x) => Num::Int(Vals::Const(*x)),
                Value::Date(d) => Num::Int(Vals::Const(*d as i64)),
                Value::Float(x) => Num::Float(Vals::Const(*x)),
                Value::Str(_) | Value::Null => return None,
            },
            Operand::Col(c) => match c.data() {
                ColumnData::Int64(v) => Num::Int(Vals::Slice(Cow::Borrowed(v))),
                ColumnData::Date(v) => Num::Int(Vals::Slice(v.iter().map(|&d| d as i64).collect())),
                ColumnData::Float64(v) => Num::Float(Vals::Slice(Cow::Borrowed(v))),
                ColumnData::Str { .. } | ColumnData::Mixed(_) => return None,
            },
        })
    }

    /// Promote to floats — `x as f64`, the interpreter's own widening.
    fn into_floats(self) -> Vals<'a, f64> {
        match self {
            Num::Float(v) => v,
            Num::Int(Vals::Const(x)) => Vals::Const(x as f64),
            Num::Int(Vals::Slice(v)) => Vals::Slice(v.iter().map(|&x| x as f64).collect()),
        }
    }
}

/// `out[i] = f(x[i], y[i])` over `n` slots; a `None` (division by zero)
/// leaves a placeholder and marks the slot in `nulls`.
fn zip_with<T: Copy + Default>(
    x: &Vals<'_, T>,
    y: &Vals<'_, T>,
    n: usize,
    nulls: &mut Option<NullBitmap>,
    f: impl Fn(T, T) -> Option<T>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    let mut push = |v: Option<T>| {
        if v.is_none() {
            nulls.get_or_insert_with(|| NullBitmap::with_len(n)).set(out.len());
        }
        out.push(v.unwrap_or_default());
    };
    match (x, y) {
        (Vals::Slice(x), Vals::Slice(y)) => {
            x.iter().zip(y.iter()).for_each(|(&p, &q)| push(f(p, q)))
        }
        (Vals::Slice(x), Vals::Const(q)) => x.iter().for_each(|&p| push(f(p, *q))),
        (Vals::Const(p), Vals::Slice(y)) => y.iter().for_each(|&q| push(f(*p, q))),
        (Vals::Const(p), Vals::Const(q)) => (0..n).for_each(|_| push(f(*p, *q))),
    }
    out
}

/// `a op b` over `n` slots, exactly [`ArithOp::apply`] per slot: integers
/// with integers stay `Int64`, anything with a float is `Float64` (the same
/// IEEE operations in the same order, so results are bit-equal), NULLs are
/// the union of the operands' bitmaps plus the division-by-zero slots.
fn arith(op: ArithOp, a: &Operand<'_, '_>, b: &Operand<'_, '_>, n: usize) -> Column {
    let (Some(x), Some(y)) = (Num::of(a), Num::of(b)) else {
        // No typed loop for this pair: the scalar operator, slot by slot.
        let vals: Vec<Value> = (0..n).map(|i| op.apply(&a.value(i), &b.value(i))).collect();
        return Column::from_values(&vals);
    };
    let mut nulls: Option<NullBitmap> = None;
    for o in [a, b] {
        if let Operand::Col(c) = o {
            if let Some(bits) = c.nulls() {
                match &mut nulls {
                    Some(acc) => acc.union_with(bits),
                    None => nulls = Some(bits.clone()),
                }
            }
        }
    }
    let data = match (x, y) {
        (Num::Int(x), Num::Int(y)) => {
            ColumnData::Int64(zip_with(&x, &y, n, &mut nulls, |p, q| op.ints(p, q)))
        }
        (x, y) => {
            let (x, y) = (x.into_floats(), y.into_floats());
            ColumnData::Float64(zip_with(&x, &y, n, &mut nulls, |p, q| op.floats(p, q)))
        }
    };
    Column::new(data, nulls)
}

impl Expr {
    /// Vectorized predicate evaluation: the selected subset of `batch` for
    /// which this expression is truthy (same semantics as
    /// [`eval_bool`](Expr::eval_bool) row-by-row).
    pub fn eval_filter(&self, batch: &ColBatch) -> QResult<SelVec> {
        self.filter_sel(batch, SelVec::all(batch.len()))
    }

    /// Refine `sel` to the rows where this predicate holds.
    fn filter_sel(&self, batch: &ColBatch, sel: SelVec) -> QResult<SelVec> {
        if sel.is_empty() {
            return Ok(sel);
        }
        match self {
            // Conjunction: thread the shrinking selection through each term.
            Expr::And(parts) => {
                let mut sel = sel;
                for p in parts {
                    sel = p.filter_sel(batch, sel)?;
                    if sel.is_empty() {
                        break;
                    }
                }
                Ok(sel)
            }
            // Disjunction: each term filters the same input; union results.
            Expr::Or(parts) => {
                let mut acc = SelVec::empty();
                for p in parts {
                    // Only rows not yet accepted need testing.
                    let remaining = sel.difference(&acc);
                    if remaining.is_empty() {
                        break;
                    }
                    acc = acc.union(&p.filter_sel(batch, remaining)?);
                }
                Ok(acc)
            }
            Expr::Not(e) => {
                let pass = e.filter_sel(batch, sel.clone())?;
                Ok(sel.difference(&pass))
            }
            Expr::Cmp(op, a, b) => Ok(match (a.in_place(batch)?, b.in_place(batch)?) {
                (Some(x), Some(y)) => cmp_operands(*op, &x, &y, &sel),
                _ => {
                    let (x, y) = (a.operand(batch, &sel)?, b.operand(batch, &sel)?);
                    lift(&sel, |dense| cmp_operands(*op, &x, &y, dense))
                }
            }),
            Expr::IsNull(e) => e.test_operand(batch, &sel, |x, s| match x {
                Operand::Col(col) => s.refine(|r| col.is_null(r)),
                Operand::Lit(v) => keep_if(s, v.is_null()),
            }),
            Expr::StartsWith(e, prefix) => {
                e.test_operand(batch, &sel, |x, s| starts_with(x, prefix, s))
            }
            Expr::In(e, list) => e.test_operand(batch, &sel, |x, s| in_list(x, list, s)),
            // A bare column, literal or arithmetic result used as a predicate.
            Expr::Col(_) | Expr::Lit(_) | Expr::Arith(..) => {
                self.test_operand(batch, &sel, |x, s| match x {
                    Operand::Col(col) => s.refine(|r| is_truthy(&col.value(r))),
                    Operand::Lit(v) => keep_if(s, is_truthy(v)),
                })
            }
        }
    }

    /// Run a predicate kernel over this expression as its operand, with the
    /// selection that addresses it. A column or literal is read in place
    /// under `sel` itself (the scan hot path: nothing is copied); anything
    /// computed is evaluated densely over `sel` and the passing slots are
    /// mapped back to row ids.
    fn test_operand(
        &self,
        batch: &ColBatch,
        sel: &SelVec,
        test: impl FnOnce(&Operand<'_, '_>, &SelVec) -> SelVec,
    ) -> QResult<SelVec> {
        Ok(match self.in_place(batch)? {
            Some(x) => test(&x, sel),
            None => {
                let x = self.operand(batch, sel)?;
                lift(sel, |dense| test(&x, dense))
            }
        })
    }

    /// This expression as an operand read where it lies — a batch column or
    /// a literal, addressed by row id under any selection. `None` for an
    /// expression that has to be computed.
    fn in_place<'c, 'v>(&'v self, batch: &'c ColBatch) -> QResult<Option<Operand<'c, 'v>>> {
        Ok(match self {
            Expr::Col(i) => Some(Operand::Col(Cow::Borrowed(col_at(batch, *i)?))),
            Expr::Lit(v) => Some(Operand::Lit(Cow::Borrowed(v))),
            _ => None,
        })
    }

    /// Evaluate over the rows of `sel`: a literal stays a scalar, anything
    /// else is a dense column whose slot `k` belongs to row `sel[k]`.
    fn operand<'c, 'v>(&'v self, batch: &'c ColBatch, sel: &SelVec) -> QResult<Operand<'c, 'v>> {
        Ok(match self {
            Expr::Col(i) => {
                let col = col_at(batch, *i)?;
                // Every row selected ⇒ the column is dense as it stands.
                Operand::Col(if sel.is_all(batch.len()) {
                    Cow::Borrowed(col)
                } else {
                    Cow::Owned(col.gather(sel))
                })
            }
            Expr::Lit(v) => Operand::Lit(Cow::Borrowed(v)),
            Expr::Arith(op, a, b) => match (a.operand(batch, sel)?, b.operand(batch, sel)?) {
                (Operand::Lit(x), Operand::Lit(y)) => Operand::Lit(Cow::Owned(op.apply(&x, &y))),
                (x, y) => Operand::Col(Cow::Owned(arith(*op, &x, &y, sel.len()))),
            },
            // A boolean node used as a number (Q14's `volume * (p_type LIKE
            // 'PROMO%')`) is its filter result written as 0/1.
            _ => {
                let pass = self.filter_sel(batch, sel.clone())?;
                let mut hits = pass.as_slice().iter().peekable();
                let bits = sel.as_slice().iter().map(|r| hits.next_if_eq(&r).is_some() as i64);
                Operand::Col(Cow::Owned(Column::new(ColumnData::Int64(bits.collect()), None)))
            }
        })
    }

    /// Vectorized projection: evaluate this expression for the selected rows
    /// into one dense [`Column`] (slot `k` = row `sel[k]`) — borrowed when it
    /// is a plain column reference under an all-rows selection, so an
    /// aggregate folds its input column where it lies.
    pub fn eval_project<'a>(&self, batch: &'a ColBatch, sel: &SelVec) -> QResult<Cow<'a, Column>> {
        // Nothing selected ⇒ nothing evaluated (matches the row interpreter,
        // which never touches an expression when there are no input rows).
        if sel.is_empty() {
            return Ok(Cow::Owned(Column::from_values(&[])));
        }
        Ok(match self.operand(batch, sel)? {
            Operand::Col(col) => col,
            Operand::Lit(v) => Cow::Owned(Column::from_values(&vec![v.into_owned(); sel.len()])),
        })
    }
}

/// Run `test` in the dense space of operands evaluated over `sel` (slot `k`
/// = row `sel[k]`) and map the slots that pass back to row ids.
fn lift(sel: &SelVec, test: impl FnOnce(&SelVec) -> SelVec) -> SelVec {
    let rows = sel.as_slice();
    let pass = test(&SelVec::all(rows.len()));
    SelVec::from_sorted(pass.iter().map(|k| rows[k]).collect())
}

#[inline]
fn col_at(batch: &ColBatch, i: usize) -> QResult<&Column> {
    batch.col(i).ok_or_else(|| QError::Exec(format!("column {i} out of range")))
}

// ---------------------------------------------------------------------------
// Key-hash kernels (vectorized join build/probe, hash aggregation)
// ---------------------------------------------------------------------------

/// Per-row [`Value::stable_hash`] over a whole column, computed from the
/// primitive slices without constructing a single `Value`; a string column
/// hashes each dictionary entry once and each row looks its code up, unless
/// the dictionary outnumbers the rows. NULL slots get an arbitrary hash (the
/// typed vectors hold placeholders there) — callers must consult
/// `col.is_null` before using a slot, exactly as the row operators skip NULL
/// join keys.
pub fn hash_key_column(col: &Column) -> Vec<u64> {
    match col.data() {
        ColumnData::Int64(v) => v.iter().map(|&x| Value::hash_int(x)).collect(),
        ColumnData::Float64(v) => v.iter().map(|&x| Value::hash_float(x)).collect(),
        ColumnData::Date(v) => v.iter().map(|&x| Value::hash_date(x)).collect(),
        ColumnData::Str { dict, codes } if dict.len() > codes.len() => {
            codes.iter().map(|&c| Value::hash_str(&dict[c as usize])).collect()
        }
        ColumnData::Str { dict, codes } => {
            let hashes: Vec<u64> = dict.iter().map(|s| Value::hash_str(s)).collect();
            codes.iter().map(|&c| hashes[c as usize]).collect()
        }
        ColumnData::Mixed(v) => v.iter().map(|x| x.stable_hash()).collect(),
    }
}

/// Exact key equality between one slot of each column — the hash-collision
/// confirmation a join probe runs, with the same cross-type numeric
/// semantics as `Value::total_cmp` (and therefore `Value::eq`); two strings
/// on one dictionary compare codes. Neither slot may be NULL (callers skip
/// NULL keys before probing).
#[inline]
pub fn key_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    use ColumnData::*;
    match (a.data(), b.data()) {
        (Int64(x), Int64(y)) => x[i] == y[j],
        (Float64(x), Float64(y)) => x[i].total_cmp(&y[j]).is_eq(),
        (Int64(x), Float64(y)) => cmp_i64_f64(x[i], y[j]).is_eq(),
        (Float64(x), Int64(y)) => cmp_i64_f64(y[j], x[i]).is_eq(),
        (Date(x), Date(y)) => x[i] == y[j],
        (Date(x), Int64(y)) => x[i] as i64 == y[j],
        (Int64(x), Date(y)) => x[i] == y[j] as i64,
        (Date(x), Float64(y)) => cmp_i64_f64(x[i] as i64, y[j]).is_eq(),
        (Float64(x), Date(y)) => cmp_i64_f64(y[j] as i64, x[i]).is_eq(),
        (Str { dict: d, codes: x }, Str { dict: e, codes: y }) => {
            if Arc::ptr_eq(d, e) {
                x[i] == y[j]
            } else {
                d[x[i] as usize] == e[y[j] as usize]
            }
        }
        _ => a.value(i) == b.value(j),
    }
}

/// Exact equality between one slot of a column and a stored key value — the
/// hash-hit confirmation a group-by probe runs, with `Value::eq` semantics
/// (NULL equals NULL; numerics compare cross-type exactly). Same-type pairs
/// compare off the primitive slice — a string is first checked for being
/// the very dictionary entry the key was read from — and anything else is
/// `Value::eq` itself.
#[inline]
pub(crate) fn slot_eq_value(col: &Column, i: usize, v: &Value) -> bool {
    if col.is_null(i) {
        return v.is_null();
    }
    match (col.data(), v) {
        (ColumnData::Int64(x), Value::Int(y)) => x[i] == *y,
        (ColumnData::Float64(x), Value::Float(y)) => x[i].total_cmp(y).is_eq(),
        (ColumnData::Date(x), Value::Date(y)) => x[i] == *y,
        (ColumnData::Str { dict, codes }, Value::Str(y)) => {
            let x = &dict[codes[i] as usize];
            Arc::ptr_eq(x, y) || x == y
        }
        _ => col.value(i) == *v,
    }
}

/// Project a whole expression list into a new [`ColBatch`] (the vectorized
/// analogue of `ProjectIter`).
pub fn project_batch(exprs: &[Expr], batch: &ColBatch, sel: &SelVec) -> QResult<ColBatch> {
    if exprs.is_empty() {
        // Zero-column projection still has the selection's cardinality
        // (ProjectIter over k rows yields k empty tuples).
        return Ok(ColBatch::empty_rows(sel.len()));
    }
    let cols = exprs
        .iter()
        .map(|e| e.eval_project(batch, sel).map(Cow::into_owned))
        .collect::<QResult<Vec<_>>>()?;
    Ok(ColBatch::from_columns(cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Tuple;

    fn batch() -> ColBatch {
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(10), Value::Float(1.0), Value::str("widget-a"), Value::Date(100)],
            vec![Value::Int(20), Value::Null, Value::str("gadget-b"), Value::Date(200)],
            vec![Value::Null, Value::Float(3.0), Value::str("widget-c"), Value::Date(300)],
            vec![Value::Int(40), Value::Float(4.0), Value::Null, Value::Date(400)],
        ];
        ColBatch::from_rows(&rows)
    }

    fn filter_rows(e: &Expr, b: &ColBatch) -> Vec<usize> {
        e.eval_filter(b).unwrap().iter().collect()
    }

    /// The ground truth: scalar eval_bool row-at-a-time.
    fn scalar_rows(e: &Expr, b: &ColBatch) -> Vec<usize> {
        (0..b.len()).filter(|&i| e.eval_bool(&b.row(i)).unwrap()).collect()
    }

    fn assert_parity(e: Expr) {
        let b = batch();
        assert_eq!(filter_rows(&e, &b), scalar_rows(&e, &b), "expr: {e:?}");
    }

    #[test]
    fn int_comparisons_match_scalar() {
        assert_parity(Expr::col(0).gt(Expr::lit(10)));
        assert_parity(Expr::col(0).ge(Expr::lit(20)));
        assert_parity(Expr::col(0).eq(Expr::lit(40)));
        assert_parity(Expr::col(0).ne(Expr::lit(10)));
        assert_parity(Expr::lit(20).le(Expr::col(0)));
    }

    #[test]
    fn float_date_str_comparisons_match_scalar() {
        assert_parity(Expr::col(1).lt(Expr::lit(3.5)));
        assert_parity(Expr::col(1).ge(Expr::lit(3)));
        assert_parity(Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::col(3)),
            Box::new(Expr::Lit(Value::Date(200))),
        ));
        assert_parity(Expr::col(3).lt(Expr::lit(300)));
        assert_parity(Expr::col(2).gt(Expr::Lit(Value::str("h"))));
    }

    #[test]
    fn null_literal_never_matches() {
        assert_parity(Expr::col(0).eq(Expr::Lit(Value::Null)));
        assert_parity(Expr::col(0).ne(Expr::Lit(Value::Null)));
    }

    #[test]
    fn connectives_match_scalar() {
        let p = Expr::and([
            Expr::col(0).ge(Expr::lit(10)),
            Expr::or([Expr::col(1).gt(Expr::lit(2.0)), Expr::col(3).le(Expr::lit(100))]),
        ]);
        assert_parity(p.clone());
        assert_parity(Expr::Not(Box::new(p)));
        assert_parity(Expr::and([]));
        assert_parity(Expr::or([]));
    }

    #[test]
    fn is_null_and_starts_with_match_scalar() {
        assert_parity(Expr::IsNull(Box::new(Expr::col(1))));
        assert_parity(Expr::IsNull(Box::new(Expr::col(2))));
        assert_parity(Expr::StartsWith(Box::new(Expr::col(2)), "widget".into()));
        assert_parity(Expr::StartsWith(Box::new(Expr::col(0)), "widget".into()));
    }

    #[test]
    fn in_list_matches_scalar() {
        assert_parity(Expr::In(Box::new(Expr::col(0)), vec![Value::Int(10), Value::Int(40)]));
        assert_parity(Expr::In(Box::new(Expr::col(0)), vec![Value::Null, Value::Int(20)]));
        assert_parity(Expr::In(
            Box::new(Expr::col(2)),
            vec![Value::str("widget-a"), Value::str("nope")],
        ));
    }

    #[test]
    fn col_col_comparisons_match_scalar() {
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::Int(2), Value::Float(1.5), Value::Date(3), Value::str("a")],
            vec![Value::Int(5), Value::Int(5), Value::Float(4.0), Value::Date(5), Value::str("b")],
            vec![Value::Null, Value::Int(9), Value::Null, Value::Date(-1), Value::str("a")],
            vec![Value::Int(7), Value::Null, Value::Float(7.0), Value::Null, Value::Null],
        ];
        let b = ColBatch::from_rows(&rows);
        let pairs =
            [(0, 1), (0, 2), (2, 0), (2, 2), (3, 3), (3, 0), (0, 3), (4, 4), (4, 0), (1, 4)];
        for (i, j) in pairs {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let e = Expr::Cmp(op, Box::new(Expr::col(i)), Box::new(Expr::col(j)));
                assert_eq!(filter_rows(&e, &b), scalar_rows(&e, &b), "cols ({i},{j}) op {op:?}");
            }
        }
    }

    #[test]
    fn predicates_over_computed_operands_match_scalar() {
        assert_parity(Expr::col(0).add(Expr::lit(5)).gt(Expr::lit(20)));
        assert_parity(Expr::col(0).mul(Expr::col(3)).ge(Expr::lit(4000)));
        assert_parity(Expr::lit(30).lt(Expr::col(0).add(Expr::col(1))));
        assert_parity(Expr::col(0).sub(Expr::col(1)).eq(Expr::col(0).sub(Expr::col(1))));
        assert_parity(Expr::IsNull(Box::new(Expr::col(0).add(Expr::col(1)))));
        assert_parity(Expr::In(Box::new(Expr::col(0).sub(Expr::lit(10))), vec![Value::Int(10)]));
        assert_parity(Expr::StartsWith(Box::new(Expr::col(2).add(Expr::lit(1))), "w".into()));
        // Bare values as predicates: non-null and non-zero.
        assert_parity(Expr::col(0).sub(Expr::lit(10)));
        assert_parity(Expr::col(2));
        assert_parity(Expr::lit(0.0));
        // Under a selection the first conjunct already shrank.
        assert_parity(Expr::and([
            Expr::col(3).ge(Expr::lit(200)),
            Expr::col(0).add(Expr::lit(1)).gt(Expr::col(1)),
        ]));
    }

    /// Slot by slot against the interpreter, by type tag and bits.
    fn assert_project_parity(e: Expr, b: &ColBatch, sel: &SelVec) -> Column {
        let col = e.eval_project(b, sel).unwrap().into_owned();
        assert_eq!(col.len(), sel.len());
        for (k, i) in sel.iter().enumerate() {
            let (got, want) = (col.value(k), e.eval(&b.row(i)).unwrap());
            let same = match (&got, &want) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Null, Value::Null) => true,
                _ => false,
            };
            assert!(same, "{e}, row {i}: column says {got:?}, interpreter {want:?}");
        }
        col
    }

    #[test]
    fn arithmetic_runs_typed_and_matches_the_interpreter() {
        let div = |a: Expr, b: Expr| Expr::Arith(ArithOp::Div, Box::new(a), Box::new(b));
        let b = batch();
        let all = SelVec::all(b.len());
        let some = SelVec::from_sorted(vec![1, 3]);
        for sel in [&all, &some] {
            // Int ⊕ Int stays Int64; NULLs are the operands'.
            let c = assert_project_parity(Expr::col(0).add(Expr::lit(5)), &b, sel);
            assert!(matches!(c.data(), ColumnData::Int64(_)));
            // Anything with a float is Float64; both bitmaps union.
            let c = assert_project_parity(Expr::col(0).mul(Expr::col(1)), &b, sel);
            assert!(matches!(c.data(), ColumnData::Float64(_)));
            // A date is its day number: Int64, not NaN.
            let c = assert_project_parity(div(Expr::col(3), Expr::lit(150)), &b, sel);
            assert!(matches!(c.data(), ColumnData::Int64(_)));
            assert_project_parity(Expr::col(3).sub(Expr::col(1)), &b, sel);
            // Division by zero is a NULL slot, by a literal or a column.
            assert_project_parity(div(Expr::col(0), Expr::lit(0)), &b, sel);
            assert_project_parity(div(Expr::col(1), Expr::col(0).sub(Expr::lit(20))), &b, sel);
            // Q1's shape, and Q14's boolean factor (0/1).
            let volume = Expr::col(1).mul(Expr::lit(1.0).sub(Expr::col(1)));
            assert_project_parity(volume.clone().mul(Expr::lit(1.0).add(Expr::col(0))), &b, sel);
            let promo = Expr::StartsWith(Box::new(Expr::col(2)), "widget".into());
            assert_project_parity(volume.mul(promo), &b, sel);
            // No typed loop for strings: the scalar operator slot by slot.
            assert_project_parity(Expr::col(2).add(Expr::lit(1)), &b, sel);
            assert_project_parity(Expr::col(0).add(Expr::Lit(Value::Null)), &b, sel);
        }
        // Integer overflow wraps (it used to panic in debug builds).
        let edge = ColBatch::from_rows(&[vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MIN)]]);
        let all = SelVec::all(2);
        assert_project_parity(Expr::col(0).add(Expr::lit(1)), &edge, &all);
        assert_project_parity(div(Expr::col(0), Expr::lit(-1)), &edge, &all);
    }

    #[test]
    fn plain_column_under_all_rows_is_read_in_place() {
        let b = batch();
        let got = Expr::col(1).eval_project(&b, &SelVec::all(b.len())).unwrap();
        assert!(matches!(got, Cow::Borrowed(_)), "an aggregate folds the batch's own column");
        let some = SelVec::from_sorted(vec![0, 2]);
        assert_eq!(Expr::col(1).eval_project(&b, &some).unwrap().len(), 2);
    }

    #[test]
    fn out_of_range_column_errors_like_scalar() {
        let b = batch();
        assert!(Expr::col(9).eq(Expr::lit(1)).eval_filter(&b).is_err());
    }

    #[test]
    fn projection_gathers_and_computes() {
        let b = batch();
        let sel = Expr::col(0).ge(Expr::lit(20)).eval_filter(&b).unwrap();
        let out =
            project_batch(&[Expr::col(0), Expr::col(0).add(Expr::lit(1)), Expr::lit(7)], &b, &sel)
                .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0), vec![Value::Int(20), Value::Int(21), Value::Int(7)]);
        assert_eq!(out.row(1), vec![Value::Int(40), Value::Int(41), Value::Int(7)]);
    }

    #[test]
    fn empty_projection_keeps_cardinality() {
        // ProjectIter over k rows with no exprs yields k empty tuples; the
        // vectorized analogue must not collapse to 0 rows.
        let b = batch();
        let sel = Expr::col(0).ge(Expr::lit(20)).eval_filter(&b).unwrap();
        let out = project_batch(&[], &b, &sel).unwrap();
        assert_eq!(out.len(), sel.len());
        assert_eq!(out.to_rows(), vec![Vec::new(); sel.len()]);
    }

    #[test]
    fn empty_batch_filters_to_empty() {
        let b = ColBatch::from_rows(&[]);
        assert!(Expr::col(0).eq(Expr::lit(1)).eval_filter(&b).unwrap().is_empty());
    }
}
