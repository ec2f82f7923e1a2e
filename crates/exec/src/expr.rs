//! Scalar expressions and predicates.
//!
//! Both engines evaluate the same [`Expr`] tree per tuple. Expressions also
//! know how to serialize themselves into a canonical byte string
//! ([`Expr::encode_sig`]) — the packet dispatcher hashes these encodings to
//! detect overlapping work across queries (paper §4.3: "a quick check of the
//! encoded argument list for each packet").

use qpipe_common::{QResult, Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether an ordering of the two operands satisfies this operator.
    #[inline]
    pub(crate) fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// `a op b` on two values: never true when either side is NULL,
    /// otherwise [`Value::total_cmp`]. The one statement of comparison
    /// semantics — [`Expr::eval`] and the column kernels' untyped slots both
    /// call it.
    #[inline]
    pub(crate) fn test(self, a: &Value, b: &Value) -> bool {
        !a.is_null() && !b.is_null() && self.matches(a.total_cmp(b))
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.mirror() a`.
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// `a op b` on two values — the one statement of arithmetic semantics:
    /// [`Expr::eval`] calls it per tuple, and the column kernels in
    /// [`vexpr`](crate::vexpr) replicate it over primitive slices (and call
    /// it slot by slot where they have no typed loop).
    ///
    /// NULL in, NULL out. A `Date` is its day number (the `Int` embedding
    /// `Value::total_cmp` and `Value::hash_date` use). Int⊕Int stays `Int`
    /// and wraps on overflow; any other pair computes in `f64` (a
    /// non-numeric operand is NaN). Division by zero is NULL.
    pub fn apply(self, a: &Value, b: &Value) -> Value {
        fn days(v: &Value) -> Option<i64> {
            match v {
                Value::Int(x) => Some(*x),
                Value::Date(d) => Some(*d as i64),
                _ => None,
            }
        }
        if a.is_null() || b.is_null() {
            return Value::Null;
        }
        if let (Some(x), Some(y)) = (days(a), days(b)) {
            return self.ints(x, y).map_or(Value::Null, Value::Int);
        }
        let float = |v: &Value| match v {
            Value::Date(d) => *d as f64,
            _ => v.as_float().unwrap_or(f64::NAN),
        };
        self.floats(float(a), float(b)).map_or(Value::Null, Value::Float)
    }

    /// Int⊕Int: wrapping, `None` for division by zero.
    #[inline]
    pub(crate) fn ints(self, x: i64, y: i64) -> Option<i64> {
        match self {
            ArithOp::Add => Some(x.wrapping_add(y)),
            ArithOp::Sub => Some(x.wrapping_sub(y)),
            ArithOp::Mul => Some(x.wrapping_mul(y)),
            ArithOp::Div => (y != 0).then(|| x.wrapping_div(y)),
        }
    }

    /// Float⊕Float: IEEE, `None` for division by (either) zero.
    #[inline]
    pub(crate) fn floats(self, x: f64, y: f64) -> Option<f64> {
        match self {
            ArithOp::Add => Some(x + y),
            ArithOp::Sub => Some(x - y),
            ArithOp::Mul => Some(x * y),
            ArithOp::Div => (y != 0.0).then(|| x / y),
        }
    }
}

/// A value used as a predicate: truthy iff non-null and non-zero.
pub(crate) fn is_truthy(v: &Value) -> bool {
    match v {
        Value::Int(v) => *v != 0,
        Value::Float(v) => *v != 0.0,
        Value::Null => false,
        _ => true,
    }
}

/// A scalar expression over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary comparison producing Int(0)/Int(1) (NULL operands → 0).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Membership in a literal list.
    In(Box<Expr>, Vec<Value>),
    /// NULL test.
    IsNull(Box<Expr>),
    /// String prefix test (`LIKE 'foo%'`).
    StartsWith(Box<Expr>, String),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }

    pub fn and(parts: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::And(parts.into_iter().collect())
    }

    pub fn or(parts: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Or(parts.into_iter().collect())
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> QResult<Value> {
        Ok(match self {
            Expr::Col(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| qpipe_common::QError::Exec(format!("column {i} out of range")))?,
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, a, b) => Value::Int(op.test(&a.eval(tuple)?, &b.eval(tuple)?) as i64),
            Expr::And(parts) => {
                for p in parts {
                    if !p.eval_bool(tuple)? {
                        return Ok(Value::Int(0));
                    }
                }
                Value::Int(1)
            }
            Expr::Or(parts) => {
                for p in parts {
                    if p.eval_bool(tuple)? {
                        return Ok(Value::Int(1));
                    }
                }
                Value::Int(0)
            }
            Expr::Not(e) => Value::Int(!e.eval_bool(tuple)? as i64),
            Expr::Arith(op, a, b) => op.apply(&a.eval(tuple)?, &b.eval(tuple)?),
            Expr::In(e, list) => {
                let v = e.eval(tuple)?;
                Value::Int(list.contains(&v) as i64)
            }
            Expr::IsNull(e) => Value::Int(e.eval(tuple)?.is_null() as i64),
            Expr::StartsWith(e, prefix) => {
                let v = e.eval(tuple)?;
                Value::Int(v.as_str().is_some_and(|s| s.starts_with(prefix.as_str())) as i64)
            }
        })
    }

    /// Evaluate as a predicate: truthy iff non-null and non-zero.
    pub fn eval_bool(&self, tuple: &Tuple) -> QResult<bool> {
        Ok(is_truthy(&self.eval(tuple)?))
    }

    /// Collect every column index this expression references into `out`
    /// (duplicates allowed; callers sort/dedup). Drives page-level column
    /// pruning: a scan only decodes columns some consumer expression names.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::And(parts) | Expr::Or(parts) => {
                for p in parts {
                    p.collect_cols(out);
                }
            }
            Expr::Not(e) | Expr::In(e, _) | Expr::IsNull(e) | Expr::StartsWith(e, _) => {
                e.collect_cols(out);
            }
        }
    }

    /// Rewrite every column reference through `f` (used to re-index
    /// expressions onto a pruned batch whose columns were renumbered).
    pub fn map_cols(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(a.map_cols(f)), Box::new(b.map_cols(f))),
            Expr::And(parts) => Expr::And(parts.iter().map(|p| p.map_cols(f)).collect()),
            Expr::Or(parts) => Expr::Or(parts.iter().map(|p| p.map_cols(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.map_cols(f))),
            Expr::Arith(op, a, b) => {
                Expr::Arith(*op, Box::new(a.map_cols(f)), Box::new(b.map_cols(f)))
            }
            Expr::In(e, list) => Expr::In(Box::new(e.map_cols(f)), list.clone()),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_cols(f))),
            Expr::StartsWith(e, p) => Expr::StartsWith(Box::new(e.map_cols(f)), p.clone()),
        }
    }

    /// Canonical signature encoding for overlap detection.
    pub fn encode_sig(&self, out: &mut Vec<u8>) {
        fn val(out: &mut Vec<u8>, v: &Value) {
            out.extend_from_slice(&v.stable_hash().to_le_bytes());
        }
        match self {
            Expr::Col(i) => {
                out.push(1);
                out.extend_from_slice(&(*i as u32).to_le_bytes());
            }
            Expr::Lit(v) => {
                out.push(2);
                val(out, v);
            }
            Expr::Cmp(op, a, b) => {
                out.push(3);
                out.push(*op as u8);
                a.encode_sig(out);
                b.encode_sig(out);
            }
            Expr::And(parts) => {
                out.push(4);
                out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
                for p in parts {
                    p.encode_sig(out);
                }
            }
            Expr::Or(parts) => {
                out.push(5);
                out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
                for p in parts {
                    p.encode_sig(out);
                }
            }
            Expr::Not(e) => {
                out.push(6);
                e.encode_sig(out);
            }
            Expr::Arith(op, a, b) => {
                out.push(7);
                out.push(*op as u8);
                a.encode_sig(out);
                b.encode_sig(out);
            }
            Expr::In(e, list) => {
                out.push(8);
                e.encode_sig(out);
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for v in list {
                    val(out, v);
                }
            }
            Expr::IsNull(e) => {
                out.push(9);
                e.encode_sig(out);
            }
            Expr::StartsWith(e, p) => {
                out.push(10);
                e.encode_sig(out);
                out.extend_from_slice(p.as_bytes());
                out.push(0);
            }
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// SQL-ish rendering for EXPLAIN output: columns print positionally (`#2`),
/// strings are quoted, compound operands parenthesized.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn atom(f: &mut fmt::Formatter<'_>, e: &Expr) -> fmt::Result {
            match e {
                Expr::Col(_) | Expr::Lit(_) | Expr::IsNull(_) | Expr::In(..) => write!(f, "{e}"),
                _ => write!(f, "({e})"),
            }
        }
        fn lit(f: &mut fmt::Formatter<'_>, v: &Value) -> fmt::Result {
            match v {
                Value::Str(s) => write!(f, "'{s}'"),
                _ => write!(f, "{v}"),
            }
        }
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(v) => lit(f, v),
            Expr::Cmp(op, a, b) => {
                atom(f, a)?;
                write!(f, " {op} ")?;
                atom(f, b)
            }
            Expr::And(parts) | Expr::Or(parts) => {
                let sep = if matches!(self, Expr::And(_)) { " AND " } else { " OR " };
                if parts.is_empty() {
                    return f.write_str(if matches!(self, Expr::And(_)) {
                        "TRUE"
                    } else {
                        "FALSE"
                    });
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(sep)?;
                    }
                    atom(f, p)?;
                }
                Ok(())
            }
            Expr::Not(e) => {
                f.write_str("NOT ")?;
                atom(f, e)
            }
            Expr::Arith(op, a, b) => {
                atom(f, a)?;
                write!(f, " {op} ")?;
                atom(f, b)
            }
            Expr::In(e, list) => {
                atom(f, e)?;
                f.write_str(" IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    lit(f, v)?;
                }
                f.write_str(")")
            }
            Expr::IsNull(e) => {
                atom(f, e)?;
                f.write_str(" IS NULL")
            }
            Expr::StartsWith(e, p) => {
                atom(f, e)?;
                write!(f, " LIKE '{p}%'")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        vec![Value::Int(10), Value::Float(2.5), Value::str("widget-a"), Value::Null]
    }

    #[test]
    fn comparisons() {
        assert!(Expr::col(0).eq(Expr::lit(10)).eval_bool(&t()).unwrap());
        assert!(Expr::col(0).gt(Expr::lit(5)).eval_bool(&t()).unwrap());
        assert!(!Expr::col(0).lt(Expr::lit(5)).eval_bool(&t()).unwrap());
        assert!(Expr::col(1).le(Expr::lit(2.5)).eval_bool(&t()).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        assert!(!Expr::col(3).eq(Expr::col(3)).eval_bool(&t()).unwrap());
        assert!(Expr::IsNull(Box::new(Expr::col(3))).eval_bool(&t()).unwrap());
        assert!(!Expr::IsNull(Box::new(Expr::col(0))).eval_bool(&t()).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let p = Expr::and([
            Expr::col(0).ge(Expr::lit(10)),
            Expr::or([Expr::col(1).gt(Expr::lit(99.0)), Expr::col(1).lt(Expr::lit(3.0))]),
        ]);
        assert!(p.eval_bool(&t()).unwrap());
        assert!(!Expr::Not(Box::new(p)).eval_bool(&t()).unwrap());
        // Empty AND is true, empty OR is false (SQL convention for our use).
        assert!(Expr::and([]).eval_bool(&t()).unwrap());
        assert!(!Expr::or([]).eval_bool(&t()).unwrap());
    }

    #[test]
    fn arithmetic() {
        let e = Expr::col(0).add(Expr::lit(5)).mul(Expr::lit(2));
        assert_eq!(e.eval(&t()).unwrap(), Value::Int(30));
        let f = Expr::col(1).mul(Expr::lit(4));
        assert_eq!(f.eval(&t()).unwrap(), Value::Float(10.0));
        // Division by zero yields NULL, not a panic.
        let z = Expr::Arith(ArithOp::Div, Box::new(Expr::lit(1)), Box::new(Expr::lit(0)));
        assert!(z.eval(&t()).unwrap().is_null());
        // NULL propagates through arithmetic.
        assert!(Expr::col(3).add(Expr::lit(1)).eval(&t()).unwrap().is_null());
    }

    /// Regression: a `Date` operand went through `as_float()` (which a date
    /// does not have) and came out NaN, so `tpch::q8`'s `o_orderdate / 365`
    /// put every row in one NaN group; `i64::MIN / -1` panicked in release
    /// and `i64::MAX + 1` in debug.
    #[test]
    fn date_arithmetic_is_its_day_number_and_ints_wrap() {
        let div = |a: Value, b: Value| ArithOp::Div.apply(&a, &b);
        assert!(matches!(div(Value::Date(1000), Value::Int(365)), Value::Int(2)));
        assert!(matches!(
            ArithOp::Add.apply(&Value::Date(1000), &Value::Int(30)),
            Value::Int(1030)
        ));
        assert!(matches!(div(Value::Date(1000), Value::Float(8.0)), Value::Float(x) if x == 125.0));
        assert!(matches!(div(Value::Int(i64::MIN), Value::Int(-1)), Value::Int(i64::MIN)));
        assert!(matches!(
            ArithOp::Add.apply(&Value::Int(i64::MAX), &Value::Int(1)),
            Value::Int(i64::MIN)
        ));
        assert!(div(Value::Date(7), Value::Int(0)).is_null());
        // Through the interpreter too.
        let t = vec![Value::Date(1000)];
        let year = Expr::Arith(ArithOp::Div, Box::new(Expr::col(0)), Box::new(Expr::lit(365)));
        assert!(matches!(year.eval(&t).unwrap(), Value::Int(2)));
    }

    #[test]
    fn in_list_and_prefix() {
        let e = Expr::In(Box::new(Expr::col(0)), vec![Value::Int(9), Value::Int(10)]);
        assert!(e.eval_bool(&t()).unwrap());
        let s = Expr::StartsWith(Box::new(Expr::col(2)), "widget".into());
        assert!(s.eval_bool(&t()).unwrap());
        let s2 = Expr::StartsWith(Box::new(Expr::col(2)), "gadget".into());
        assert!(!s2.eval_bool(&t()).unwrap());
    }

    #[test]
    fn out_of_range_column_errors() {
        assert!(Expr::col(9).eval(&t()).is_err());
    }

    #[test]
    fn display_is_sql_ish() {
        let e = Expr::and([
            Expr::col(0).ge(Expr::lit(10)),
            Expr::col(2).eq(Expr::lit(Value::str("widget"))),
        ]);
        assert_eq!(e.to_string(), "(#0 >= 10) AND (#2 = 'widget')");
        let i = Expr::In(Box::new(Expr::col(1)), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(i.to_string(), "#1 IN (1, 2)");
        assert_eq!(Expr::and([]).to_string(), "TRUE");
        let s = Expr::StartsWith(Box::new(Expr::col(2)), "PROMO".into());
        assert_eq!(s.to_string(), "#2 LIKE 'PROMO%'");
    }

    #[test]
    fn signatures_distinguish_and_match() {
        let a = Expr::col(0).eq(Expr::lit(10));
        let a2 = Expr::col(0).eq(Expr::lit(10));
        let b = Expr::col(0).eq(Expr::lit(11));
        let (mut sa, mut sa2, mut sb) = (Vec::new(), Vec::new(), Vec::new());
        a.encode_sig(&mut sa);
        a2.encode_sig(&mut sa2);
        b.encode_sig(&mut sb);
        assert_eq!(sa, sa2);
        assert_ne!(sa, sb);
    }
}
