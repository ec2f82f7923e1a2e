//! Helpers shared by the integration tests (`mod common;` in each file that
//! uses them).

use qpipe::prelude::*;

/// Compare result multisets. Rows are matched by their non-float columns
/// (the group keys, which are unique per row in every query used here);
/// floats compare with a relative tolerance because different join orders
/// — and different batchings of one stream — sum them in different sequence.
pub fn assert_rows_equivalent(mut a: Vec<Tuple>, mut b: Vec<Tuple>, ctx: &str) {
    let key = |r: &Tuple| -> Vec<String> {
        r.iter().filter(|v| !matches!(v, Value::Float(_))).map(|v| format!("{v:?}")).collect()
    };
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a.len(), b.len(), "{ctx}: row counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.len(), y.len(), "{ctx}: row widths differ");
        for (vx, vy) in x.iter().zip(y) {
            match (vx, vy) {
                (Value::Float(p), Value::Float(q)) => {
                    let tol = 1e-9 * p.abs().max(q.abs()).max(1.0);
                    assert!((p - q).abs() <= tol, "{ctx}: {p} vs {q} in {x:?} / {y:?}");
                }
                _ => assert_eq!(vx, vy, "{ctx}: {x:?} vs {y:?}"),
            }
        }
    }
}
