//! Expression canonicalization.
//!
//! [`Expr::normalize`] rewrites an expression into a canonical form so that
//! syntactic variants of the same computation encode to the same signature —
//! the property OSP sharing keys on. Every rewrite is
//! **value-preserving**: the normalized expression evaluates to the same
//! [`Value`] as the original for every tuple (not merely the same truth
//! value), because normalization also runs on projection and aggregate
//! expressions whose outputs are user-visible.
//!
//! Rewrites performed, bottom-up:
//!
//! * **Constant folding** — any column-free subtree collapses to its literal
//!   value (evaluation is deterministic and total over column-free trees).
//! * **Comparison canonicalization** — operands of a comparison are put in a
//!   canonical order (swapping mirrors the operator), so `10 <= c` becomes
//!   `c >= 10` and `b = a` matches `a = b`.
//! * **NULL-literal comparisons** — a comparison against a literal NULL is
//!   constant false (`Expr::eval` returns 0 for NULL operands) and folds.
//! * **Commutative arithmetic** — `Add`/`Mul` operands are ordered
//!   canonically (IEEE addition and multiplication are commutative).
//! * **AND/OR flattening** — nested conjunctions/disjunctions are flattened,
//!   constant-true/false members folded, duplicate members dropped, and the
//!   remainder sorted by canonical encoding. `AND(a, b)` ≡ `AND(b, a)`.
//! * **IN-list canonicalization** — membership lists are sorted and
//!   deduplicated (`contains` is order-insensitive).
//! * **Contradiction detection** — a conjunction whose constant bounds on a
//!   single column are unsatisfiable (`c > 5 AND c < 3`, `c = 1 AND c = 2`)
//!   folds to constant false. The planner uses this to prove intermediates
//!   empty without any statistics.
//!
//! Rewrites deliberately **not** performed (not value-preserving here):
//! `NOT NOT x → x` (NOT booleanizes), `AND(x) → x` for non-boolean `x`, and
//! `IN`-to-`=` (single-element lists keep `contains` semantics).

use crate::expr::{ArithOp, CmpOp, Expr};
use qpipe_common::Value;

impl Expr {
    /// True iff the expression references no columns (so its value is a
    /// runtime constant).
    pub fn is_const(&self) -> bool {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        cols.is_empty()
    }

    /// The canonical encoding bytes of this expression — the total order
    /// normalization sorts operands and conjuncts by.
    fn sig_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_sig(&mut out);
        out
    }

    /// Truthiness of a constant expression, when it is constant.
    fn const_truth(&self) -> Option<bool> {
        match self {
            Expr::Lit(Value::Int(v)) => Some(*v != 0),
            Expr::Lit(Value::Float(v)) => Some(*v != 0.0),
            Expr::Lit(Value::Null) => Some(false),
            Expr::Lit(_) => Some(true),
            _ => None,
        }
    }

    /// Canonicalize this expression. See the module docs for the rewrite
    /// catalogue; the result evaluates identically on every tuple.
    pub fn normalize(&self) -> Expr {
        let e = match self {
            Expr::Col(_) | Expr::Lit(_) => self.clone(),
            Expr::Cmp(op, a, b) => {
                let (a, b) = (a.normalize(), b.normalize());
                // A literal NULL operand makes the comparison constant false.
                if matches!(a, Expr::Lit(Value::Null)) || matches!(b, Expr::Lit(Value::Null)) {
                    return Expr::Lit(Value::Int(0));
                }
                if a.sig_bytes() > b.sig_bytes() {
                    Expr::Cmp(op.mirror(), Box::new(b), Box::new(a))
                } else {
                    Expr::Cmp(*op, Box::new(a), Box::new(b))
                }
            }
            Expr::And(parts) => {
                let mut flat = Vec::new();
                if !flatten_and(parts, &mut flat) {
                    return Expr::Lit(Value::Int(0));
                }
                canonical_connective(flat, true)
            }
            Expr::Or(parts) => {
                let mut flat = Vec::new();
                if !flatten_or(parts, &mut flat) {
                    return Expr::Lit(Value::Int(1));
                }
                canonical_connective(flat, false)
            }
            Expr::Not(e) => Expr::Not(Box::new(e.normalize())),
            Expr::Arith(op, a, b) => {
                let (a, b) = (a.normalize(), b.normalize());
                if matches!(op, ArithOp::Add | ArithOp::Mul) && a.sig_bytes() > b.sig_bytes() {
                    Expr::Arith(*op, Box::new(b), Box::new(a))
                } else {
                    Expr::Arith(*op, Box::new(a), Box::new(b))
                }
            }
            Expr::In(e, list) => {
                let mut list = list.clone();
                list.sort();
                list.dedup();
                Expr::In(Box::new(e.normalize()), list)
            }
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.normalize())),
            Expr::StartsWith(e, p) => Expr::StartsWith(Box::new(e.normalize()), p.clone()),
        };
        // Constant folding last: any column-free subtree collapses to its
        // value (evaluation of a column-free tree cannot fail).
        if !matches!(e, Expr::Lit(_)) && e.is_const() {
            if let Ok(v) = e.eval(&Vec::new()) {
                return Expr::Lit(v);
            }
        }
        e
    }

    /// True iff the expression always evaluates to a falsy constant — the
    /// planner's "provably empty" test (run it on a [`normalize`]d
    /// expression, which folds constants and contradictions first).
    ///
    /// [`normalize`]: Expr::normalize
    pub fn is_const_false(&self) -> bool {
        self.const_truth() == Some(false)
    }

    /// True iff the expression always evaluates to a truthy constant — used
    /// by the planner to drop vacuous filters after normalization.
    pub fn is_const_true(&self) -> bool {
        self.const_truth() == Some(true)
    }
}

/// Flatten nested ANDs, normalizing members; returns false when a member is
/// constant false (the whole conjunction is false). Truthy constants drop.
fn flatten_and(parts: &[Expr], out: &mut Vec<Expr>) -> bool {
    for p in parts {
        match p.normalize() {
            Expr::And(inner) => {
                // Already normalized: flat, sorted, constant-free.
                out.extend(inner);
            }
            e => match e.const_truth() {
                Some(true) => {}
                Some(false) => return false,
                None => out.push(e),
            },
        }
    }
    true
}

/// Dual of [`flatten_and`]: returns false when a member is constant true.
fn flatten_or(parts: &[Expr], out: &mut Vec<Expr>) -> bool {
    for p in parts {
        match p.normalize() {
            Expr::Or(inner) => out.extend(inner),
            e => match e.const_truth() {
                Some(false) => {}
                Some(true) => return false,
                None => out.push(e),
            },
        }
    }
    true
}

/// Sort + dedup connective members and rebuild the canonical node. `and` sets
/// AND semantics (empty ≡ true, contradiction check applies).
fn canonical_connective(mut flat: Vec<Expr>, and: bool) -> Expr {
    flat.sort_by_cached_key(|e| e.sig_bytes());
    flat.dedup();
    if and && conjuncts_contradict(&flat) {
        return Expr::Lit(Value::Int(0));
    }
    match flat.len() {
        0 => Expr::Lit(Value::Int(if and { 1 } else { 0 })),
        // Unwrapping a 1-element connective is value-preserving only when the
        // member itself is boolean-valued (already 0/1 like the connective).
        1 if returns_bool(&flat[0]) => flat.swap_remove(0),
        _ if and => Expr::And(flat),
        _ => Expr::Or(flat),
    }
}

/// Expressions that always evaluate to Int(0)/Int(1).
fn returns_bool(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::In(..)
            | Expr::IsNull(_)
            | Expr::StartsWith(..)
    )
}

/// One column's accumulated constant constraints: an interval with open/closed
/// ends, intersected across conjuncts.
#[derive(Clone)]
struct Bounds {
    lo: Option<(Value, bool)>, // (bound, strict)
    hi: Option<(Value, bool)>,
}

impl Bounds {
    fn new() -> Self {
        Self { lo: None, hi: None }
    }

    fn tighten_lo(&mut self, v: &Value, strict: bool) {
        let replace = match &self.lo {
            None => true,
            Some((cur, cur_strict)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => strict && !cur_strict,
                std::cmp::Ordering::Less => false,
            },
        };
        if replace {
            self.lo = Some((v.clone(), strict));
        }
    }

    fn tighten_hi(&mut self, v: &Value, strict: bool) {
        let replace = match &self.hi {
            None => true,
            Some((cur, cur_strict)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => strict && !cur_strict,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            self.hi = Some((v.clone(), strict));
        }
    }

    fn empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some((lo, lo_strict)), Some((hi, hi_strict))) => match lo.total_cmp(hi) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *lo_strict || *hi_strict,
                std::cmp::Ordering::Less => false,
            },
            _ => false,
        }
    }
}

/// Do constant bounds on any single column make these conjuncts
/// unsatisfiable? Only `col ⋄ lit` shapes participate (NULL comparisons are
/// already folded by then); a NULL column value falsifies every comparison,
/// so an unsatisfiable interval means the conjunction is false for every
/// tuple.
fn conjuncts_contradict(parts: &[Expr]) -> bool {
    use std::collections::HashMap;
    let mut per_col: HashMap<usize, Bounds> = HashMap::new();
    for p in parts {
        let Expr::Cmp(op, a, b) = p else { continue };
        let (Expr::Col(c), Expr::Lit(v)) = (a.as_ref(), b.as_ref()) else { continue };
        let bounds = per_col.entry(*c).or_insert_with(Bounds::new);
        match op {
            CmpOp::Eq => {
                bounds.tighten_lo(v, false);
                bounds.tighten_hi(v, false);
            }
            CmpOp::Lt => bounds.tighten_hi(v, true),
            CmpOp::Le => bounds.tighten_hi(v, false),
            CmpOp::Gt => bounds.tighten_lo(v, true),
            CmpOp::Ge => bounds.tighten_lo(v, false),
            CmpOp::Ne => {}
        }
        if bounds.empty() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Tuple;

    fn sig(e: &Expr) -> Vec<u8> {
        let mut out = Vec::new();
        e.encode_sig(&mut out);
        out
    }

    fn rows() -> Vec<Tuple> {
        vec![
            vec![Value::Int(10), Value::Float(2.5), Value::str("widget"), Value::Null],
            vec![Value::Int(-3), Value::Float(0.0), Value::str("gadget"), Value::Int(7)],
            vec![Value::Null, Value::Float(9.5), Value::Null, Value::Int(0)],
        ]
    }

    /// Normalization must be value-preserving on every row.
    fn assert_equivalent(e: &Expr) {
        let n = e.normalize();
        for t in rows() {
            assert_eq!(e.eval(&t).unwrap(), n.eval(&t).unwrap(), "{e:?} vs {n:?} on {t:?}");
        }
    }

    #[test]
    fn lit_col_commutes_to_col_lit() {
        let a = Expr::lit(10).le(Expr::col(0));
        let b = Expr::col(0).ge(Expr::lit(10));
        assert_eq!(sig(&a.normalize()), sig(&b.normalize()));
        assert_equivalent(&a);
    }

    #[test]
    fn and_order_is_canonical() {
        let p = Expr::col(0).ge(Expr::lit(5));
        let q = Expr::col(1).lt(Expr::lit(3.0));
        let a = Expr::and([p.clone(), q.clone()]);
        let b = Expr::and([q, p]);
        assert_eq!(sig(&a.normalize()), sig(&b.normalize()));
        assert_equivalent(&a);
    }

    #[test]
    fn nested_and_flattens_and_dedups() {
        let p = Expr::col(0).ge(Expr::lit(5));
        let q = Expr::col(1).lt(Expr::lit(3.0));
        let nested = Expr::and([Expr::and([p.clone(), q.clone()]), p.clone()]);
        let flat = Expr::and([p, q]);
        assert_eq!(sig(&nested.normalize()), sig(&flat.normalize()));
        assert_equivalent(&nested);
    }

    #[test]
    fn constant_folding() {
        let e = Expr::lit(2).add(Expr::lit(3)).mul(Expr::lit(4));
        assert_eq!(e.normalize(), Expr::Lit(Value::Int(20)));
        let cmp = Expr::lit(2).lt(Expr::lit(3));
        assert_eq!(cmp.normalize(), Expr::Lit(Value::Int(1)));
    }

    #[test]
    fn true_conjuncts_drop_false_wins() {
        let p = Expr::col(0).ge(Expr::lit(5));
        let with_true = Expr::and([Expr::lit(1).eq(Expr::lit(1)), p.clone()]);
        assert_eq!(sig(&with_true.normalize()), sig(&p.normalize()));
        let with_false = Expr::and([p, Expr::lit(1).eq(Expr::lit(2))]);
        assert_eq!(with_false.normalize(), Expr::Lit(Value::Int(0)));
        assert_equivalent(&with_false);
    }

    #[test]
    fn or_duals() {
        let p = Expr::col(0).ge(Expr::lit(5));
        let with_false = Expr::or([Expr::lit(0), p.clone()]);
        assert_eq!(sig(&with_false.normalize()), sig(&p.normalize()));
        let with_true = Expr::or([p, Expr::lit(1)]);
        assert_eq!(with_true.normalize(), Expr::Lit(Value::Int(1)));
    }

    #[test]
    fn contradictory_ranges_fold_to_false() {
        let e = Expr::and([Expr::col(0).gt(Expr::lit(5)), Expr::col(0).lt(Expr::lit(3))]);
        assert_eq!(e.normalize(), Expr::Lit(Value::Int(0)));
        let eqs = Expr::and([Expr::col(0).eq(Expr::lit(1)), Expr::col(0).eq(Expr::lit(2))]);
        assert_eq!(eqs.normalize(), Expr::Lit(Value::Int(0)));
        let half_open = Expr::and([Expr::col(0).ge(Expr::lit(5)), Expr::col(0).lt(Expr::lit(5))]);
        assert_eq!(half_open.normalize(), Expr::Lit(Value::Int(0)));
        assert_equivalent(&e);
        assert_equivalent(&eqs);
        assert_equivalent(&half_open);
    }

    #[test]
    fn satisfiable_ranges_survive() {
        let e = Expr::and([Expr::col(0).ge(Expr::lit(3)), Expr::col(0).lt(Expr::lit(5))]);
        assert!(matches!(e.normalize(), Expr::And(_)));
        // Closed-closed single point is satisfiable.
        let point = Expr::and([Expr::col(0).ge(Expr::lit(5)), Expr::col(0).le(Expr::lit(5))]);
        assert!(matches!(point.normalize(), Expr::And(_)));
    }

    #[test]
    fn null_literal_comparison_is_false() {
        let e = Expr::col(0).eq(Expr::Lit(Value::Null));
        assert_eq!(e.normalize(), Expr::Lit(Value::Int(0)));
        assert_equivalent(&e);
    }

    #[test]
    fn commutative_arith_orders() {
        let a = Expr::col(0).add(Expr::col(1));
        let b = Expr::col(1).add(Expr::col(0));
        assert_eq!(sig(&a.normalize()), sig(&b.normalize()));
        let am = Expr::col(0).mul(Expr::col(1));
        let bm = Expr::col(1).mul(Expr::col(0));
        assert_eq!(sig(&am.normalize()), sig(&bm.normalize()));
        // Sub/Div must NOT commute.
        let s1 = Expr::col(0).sub(Expr::col(1));
        let s2 = Expr::col(1).sub(Expr::col(0));
        assert_ne!(sig(&s1.normalize()), sig(&s2.normalize()));
    }

    #[test]
    fn in_list_sorted_and_deduped() {
        let a = Expr::In(Box::new(Expr::col(0)), vec![Value::Int(3), Value::Int(1), Value::Int(3)]);
        let b = Expr::In(Box::new(Expr::col(0)), vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(sig(&a.normalize()), sig(&b.normalize()));
        assert_equivalent(&a);
    }

    #[test]
    fn single_member_connective_unwraps_only_booleans() {
        let cmp = Expr::col(0).ge(Expr::lit(5));
        assert_eq!(sig(&Expr::and([cmp.clone()]).normalize()), sig(&cmp.normalize()));
        // AND(col) booleanizes a non-boolean member; it must stay wrapped.
        let non_bool = Expr::and([Expr::col(0), Expr::col(0)]);
        assert!(matches!(non_bool.normalize(), Expr::And(_)));
        assert_equivalent(&non_bool);
    }

    #[test]
    fn not_is_preserved() {
        // NOT(x = y) is NOT equivalent to x <> y under NULLs; normalization
        // must keep the NOT.
        let e = Expr::Not(Box::new(Expr::col(3).eq(Expr::lit(7))));
        assert!(matches!(e.normalize(), Expr::Not(_)));
        assert_equivalent(&e);
    }

    #[test]
    fn is_const_false_detects_folded_contradictions() {
        let e = Expr::and([Expr::col(0).gt(Expr::lit(5)), Expr::col(0).lt(Expr::lit(3))]);
        assert!(e.normalize().is_const_false());
        assert!(!Expr::col(0).gt(Expr::lit(5)).normalize().is_const_false());
    }
}
