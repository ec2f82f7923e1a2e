//! Runtime values.
//!
//! QPipe stores and processes rows of [`Value`]s. The variant set covers what
//! the Wisconsin and TPC-H workloads need: 64-bit integers, 64-bit floats,
//! interned strings, dates (days since epoch) and SQL NULL.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single runtime value.
///
/// `Str` uses `Arc<str>` so that broadcasting batches to many consumers
/// (simultaneous pipelining) never deep-copies string payloads.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Interned immutable string.
    Str(Arc<str>),
    /// Date as days since 1970-01-01 (the TPC-H generator emits these).
    Date(i32),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float content; integers widen losslessly.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering used by sort operators and merge joins.
    ///
    /// NULLs sort first; numeric types compare cross-type **exactly** (see
    /// [`cmp_i64_f64`]) — an `i64 → f64` cast would silently round above
    /// 2^53 and break `Ord` transitivity; mismatched non-numeric types
    /// compare by type tag so that sorting is always total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_i64_f64(*a, *b),
            (Float(a), Int(b)) => cmp_i64_f64(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Date(a), Int(b)) => (*a as i64).cmp(b),
            (Int(a), Date(b)) => a.cmp(&(*b as i64)),
            // Date must agree with its Int embedding, or Date(d) == Int(d)
            // == Float(d as f64) would violate transitivity.
            (Date(a), Float(b)) => cmp_i64_f64(*a as i64, *b),
            (Float(a), Date(b)) => cmp_i64_f64(*b as i64, *a).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Date(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Stable 64-bit hash used for hash joins / hash aggregation and for
    /// packet signatures. Int/Float/Date that compare equal hash equal.
    ///
    /// The per-type helpers (`hash_int`, `hash_float`, …) are public so the
    /// vectorized key-hash kernels can hash primitive column slices without
    /// constructing `Value`s, while provably agreeing with this function.
    pub fn stable_hash(&self) -> u64 {
        match self {
            Value::Null => Self::hash_null(),
            Value::Int(v) => Self::hash_int(*v),
            Value::Date(v) => Self::hash_date(*v),
            Value::Float(v) => Self::hash_float(*v),
            Value::Str(s) => Self::hash_str(s),
        }
    }

    #[inline]
    pub fn hash_null() -> u64 {
        mix(HASH_SEED)
    }

    #[inline]
    pub fn hash_int(v: i64) -> u64 {
        mix(v as u64 ^ HASH_SEED.rotate_left(1))
    }

    /// Dates hash through their integer embedding: `Date(d) == Int(d)`.
    #[inline]
    pub fn hash_date(d: i32) -> u64 {
        Self::hash_int(d as i64)
    }

    /// Hash floats through their integer value when they compare Equal to
    /// that integer under `total_cmp`, so Int(2) and Float(2.0) join keys
    /// collide as they compare. The bound is exact: a float equals an i64
    /// iff it is integral and lies in [-2^63, 2^63) (`i64::MAX as f64`
    /// rounds *up* to 2^63, so an `abs() < i64::MAX as f64` guard would
    /// wrongly include 2^63 and wrongly exclude -2^63 = Int(i64::MIN)).
    #[inline]
    pub fn hash_float(v: f64) -> u64 {
        if float_as_exact_i64(v).is_some() {
            Self::hash_int(v as i64)
        } else {
            mix(v.to_bits() ^ HASH_SEED.rotate_left(2))
        }
    }

    #[inline]
    pub fn hash_str(s: &str) -> u64 {
        let mut h = HASH_SEED;
        for b in s.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
        }
        mix(h)
    }
}

const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// 2^63 — exactly representable as `f64`; the first float strictly above
/// every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact comparison of an `i64` against an `f64`, without the lossy
/// `i64 → f64` cast (which rounds above 2^53, making e.g. `Int(2^53 + 1)`
/// compare Equal to `Float(2^53)`). The result orders `a` and `b` as real
/// numbers; NaNs sort where `f64::total_cmp` puts them (negative NaN below
/// every real, positive NaN above), and `Int(0)` sorts between `-0.0` and
/// `+0.0` (equal to `+0.0`) so the order stays consistent with
/// `f64::total_cmp` on the float side.
pub fn cmp_i64_f64(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return if b.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    if b >= TWO_POW_63 {
        return Ordering::Less; // covers +inf
    }
    if b < -TWO_POW_63 {
        return Ordering::Greater; // covers -inf
    }
    // b is finite in [-2^63, 2^63), so its truncation fits i64 exactly.
    let bt = b.trunc() as i64;
    match a.cmp(&bt) {
        Ordering::Equal => {
            let frac = b - b.trunc();
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 || (a == 0 && b.is_sign_negative()) {
                // Below either way: a trails b's fraction, or b is -0.0 and
                // 0 sorts strictly above it, matching f64::total_cmp.
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        other => other,
    }
}

/// The unique `i64` a float compares `Equal` to under [`cmp_i64_f64`], if
/// any. This is the hash-side mirror of the comparison: `stable_hash` routes
/// exactly these floats through the integer hash.
pub fn float_as_exact_i64(v: f64) -> Option<i64> {
    if v.is_finite() && v.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&v) {
        // -0.0 is not Equal to Int(0) (it sorts strictly below), but hashing
        // it with 0 is a harmless collision, not a contract violation.
        Some(v as i64)
    } else {
        None
    }
}

impl std::hash::Hash for Value {
    /// Consistent with `Eq`: values that compare equal (including
    /// cross-numeric-type equality) produce identical hashes.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.stable_hash());
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "d{d}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(-1));
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn date_int_interop() {
        assert_eq!(Value::Date(10), Value::Int(10));
        assert!(Value::Date(9) < Value::Int(10));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(Value::Int(42).stable_hash(), Value::Float(42.0).stable_hash());
        assert_eq!(Value::str("abc").stable_hash(), Value::str("abc").stable_hash());
        assert_ne!(Value::str("abc").stable_hash(), Value::str("abd").stable_hash());
    }

    /// Regression: `Int` vs `Float` compared through a lossy `i64 → f64`
    /// cast, so every i64 in [2^53, 2^53 + 2] collapsed onto the same float
    /// and `Ord` transitivity broke at the boundary.
    #[test]
    fn int_float_compare_is_exact_at_2p53() {
        let b = 1i64 << 53; // 9007199254740992: last contiguously exact f64 integer
        assert_eq!(Value::Int(b), Value::Float(b as f64));
        assert!(Value::Int(b + 1) > Value::Float(b as f64), "2^53+1 must not equal 2^53.0");
        assert!(Value::Float(b as f64) < Value::Int(b + 1));
        assert!(Value::Int(b + 1) < Value::Float((b + 2) as f64));
        // Transitivity at the boundary: Int(b) == Float(b.0) < Int(b+1).
        assert!(Value::Int(b) < Value::Int(b + 1));
    }

    #[test]
    fn int_float_compare_is_exact_at_i64_extremes() {
        // i64::MAX as f64 rounds *up* to 2^63 — strictly above every i64.
        assert!(Value::Int(i64::MAX) < Value::Float(i64::MAX as f64));
        assert!(Value::Float(i64::MAX as f64) > Value::Int(i64::MAX));
        // i64::MIN is -2^63, exactly representable.
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Float(f64::INFINITY) > Value::Int(i64::MAX));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Int(i64::MIN));
        assert!(Value::Int(0) > Value::Float(-0.5));
        assert!(Value::Int(0) > Value::Float(-0.0), "0 sits above -0.0 like f64::total_cmp");
        assert_eq!(Value::Int(0), Value::Float(0.0));
    }

    /// After the comparison fix, hash must follow: values that compare Equal
    /// hash equal, including the extremes the old `abs() < i64::MAX as f64`
    /// guard got wrong.
    #[test]
    fn hash_agrees_with_exact_equality_at_extremes() {
        let cases = [
            (Value::Int(i64::MIN), Value::Float(i64::MIN as f64)),
            (Value::Int(1 << 53), Value::Float((1i64 << 53) as f64)),
            (Value::Int(0), Value::Float(0.0)),
            (Value::Date(10), Value::Float(10.0)),
        ];
        for (a, b) in cases {
            assert_eq!(a, b, "{a} == {b}");
            assert_eq!(a.stable_hash(), b.stable_hash(), "hash({a}) == hash({b})");
        }
        // 2^63 is above every i64: bit-hashed, and never Equal to an Int.
        assert_ne!(Value::Int(i64::MAX), Value::Float(i64::MAX as f64));
    }

    #[test]
    fn date_float_interop_is_transitive() {
        // Date(d) == Int(d) == Float(d.0) must close the triangle.
        assert_eq!(Value::Date(100), Value::Float(100.0));
        assert!(Value::Date(100) < Value::Float(100.5));
        assert!(Value::Float(99.5) < Value::Date(100));
    }

    #[test]
    fn display_round_trip_smoke() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("x").to_string(), "x");
    }
}
