//! Correctness oracle: every result the staged engine returns is compared,
//! as a multiset of rows, with what the iterator engine returned for the
//! same query on the same catalog.

use qpipe_common::{Tuple, Value};

/// Floats may differ by this relative amount: a mid-scan OSP attach makes the
/// staged engine add a float `SUM` in a different order than the iterator.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// Sort rows into the canonical order results are compared in.
pub fn canonical(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Compare a result with the oracle's canonical rows; `Err` says where they
/// first differ.
pub fn check(expected: &[Tuple], got: Vec<Tuple>) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), expected.len()));
    }
    let got = canonical(got);
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        if e.len() != g.len() || !e.iter().zip(g).all(|(a, b)| value_matches(a, b)) {
            return Err(format!("row {i}: got {g:?}, oracle has {e:?}"));
        }
    }
    Ok(())
}

fn value_matches(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // `Value` equality is a total order, under which NaN equals NaN
        // (TPC-H Q8 groups by a date divided by an integer, which is NaN).
        (Value::Float(x), Value::Float(y)) => {
            a == b || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, f: f64) -> Tuple {
        vec![Value::Int(k), Value::Float(f), Value::str("x")]
    }

    #[test]
    fn order_does_not_matter_but_multiplicity_does() {
        let expected = canonical(vec![row(2, 1.0), row(1, 1.0), row(1, 1.0)]);
        assert!(check(&expected, vec![row(1, 1.0), row(2, 1.0), row(1, 1.0)]).is_ok());
        assert!(check(&expected, vec![row(1, 1.0), row(2, 1.0), row(2, 1.0)]).is_err());
        assert!(check(&expected, vec![row(1, 1.0), row(2, 1.0)]).is_err());
    }

    #[test]
    fn floats_compare_with_relative_tolerance() {
        let expected = canonical(vec![row(1, 1.0e12)]);
        assert!(check(&expected, vec![row(1, 1.0e12 + 100.0)]).is_ok(), "1e-10 relative");
        assert!(check(&expected, vec![row(1, 1.0e12 + 1.0e5)]).is_err(), "1e-7 relative");
        let zero = canonical(vec![row(1, 0.0)]);
        assert!(check(&zero, vec![row(1, 0.0)]).is_ok());
        assert!(check(&zero, vec![row(1, -0.0)]).is_ok());
        assert!(check(&zero, vec![row(1, 1e-12)]).is_err(), "no absolute slack");
        let nan = canonical(vec![row(1, f64::NAN)]);
        assert!(check(&nan, vec![row(1, f64::NAN)]).is_ok(), "NaN group keys match themselves");
        assert!(check(&nan, vec![row(1, 1.0)]).is_err());
    }

    #[test]
    fn other_types_compare_exactly() {
        let expected = canonical(vec![vec![Value::Int(3), Value::Date(10), Value::Null]]);
        assert!(check(&expected, vec![vec![Value::Int(3), Value::Date(10), Value::Null]]).is_ok());
        assert!(check(&expected, vec![vec![Value::Int(4), Value::Date(10), Value::Null]]).is_err());
        assert!(check(&expected, vec![vec![Value::Int(3), Value::Date(10)]]).is_err());
    }
}
