//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties run over deterministic seeded-random cases (the `rand`
//! shim): same spirit — randomized inputs, universally-quantified assertions —
//! with reproducible failures (every case derives from the fixed seeds below).

use qpipe::common::colbatch::{ColBatch, ColumnData, SelVec};
use qpipe::exec::vexpr::project_batch;
use qpipe::prelude::*;
use qpipe_storage::page::{decode_tuple, encode_tuple, encoded_len, Page};
use qpipe_storage::Block;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Random generators
// ---------------------------------------------------------------------------

/// Cross-type numeric extremes: the values where a lossy `i64 ↔ f64` cast
/// breaks ordering transitivity or the `Eq ⇒ hash-equal` contract. Every
/// ordering/hash property runs over these so the 2^53 class of bug cannot
/// silently return.
fn arb_extreme_numeric(rng: &mut StdRng) -> Value {
    const BIG: i64 = 1 << 53;
    const INTS: [i64; 9] =
        [BIG - 1, BIG, BIG + 1, BIG + 2, -BIG, -BIG - 1, i64::MIN, i64::MAX, i64::MAX - 1];
    let floats = [
        BIG as f64,
        (BIG + 2) as f64,
        -(BIG as f64),
        i64::MIN as f64,
        i64::MAX as f64, // = 2^63, strictly above every i64
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        (BIG as f64) + 0.5,
    ];
    if rng.gen_bool(0.5) {
        Value::Int(INTS[rng.gen_range(0..INTS.len())])
    } else {
        Value::Float(floats[rng.gen_range(0..floats.len())])
    }
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Int(rng.gen_range(i64::MIN / 2..i64::MAX / 2)),
        // Finite floats only: NaN breaks round-trip equality on purpose.
        1 => Value::Float(rng.gen_range(-1e12..1e12)),
        2 => {
            let len = rng.gen_range(0..=12);
            let s: String = (0..len)
                .map(|_| {
                    let alphabet = b"abcdefgh XYZ01_-";
                    alphabet[rng.gen_range(0..alphabet.len())] as char
                })
                .collect();
            Value::str(s)
        }
        3 => Value::Date(rng.gen_range(i32::MIN..i32::MAX)),
        4 => arb_extreme_numeric(rng),
        _ => Value::Null,
    }
}

fn arb_tuple(rng: &mut StdRng) -> Tuple {
    let n = rng.gen_range(0..12);
    (0..n).map(|_| arb_value(rng)).collect()
}

/// Uniform-width batch with per-column type discipline *most* of the time
/// (mirrors heap pages), NULL-dense, occasionally mixed-type on purpose.
fn arb_batch(rng: &mut StdRng) -> Vec<Tuple> {
    let rows = rng.gen_range(0..=80);
    let cols = rng.gen_range(1..=5);
    let kinds: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..5)).collect();
    (0..rows)
        .map(|_| {
            kinds
                .iter()
                .map(|&k| {
                    if rng.gen_bool(0.15) {
                        return Value::Null;
                    }
                    // 5% chance: break the column's type (Mixed fallback).
                    let k = if rng.gen_bool(0.05) { rng.gen_range(0..4) } else { k };
                    match k {
                        0 => Value::Int(rng.gen_range(-100..100)),
                        1 => Value::Float(rng.gen_range(-100.0..100.0)),
                        2 => {
                            let prefixes = ["widget", "gadget", "wid", ""];
                            let p = prefixes[rng.gen_range(0..prefixes.len())];
                            Value::str(format!("{p}{}", rng.gen_range(0..10)))
                        }
                        3 => Value::Date(rng.gen_range(-500..500)),
                        _ => Value::Null,
                    }
                })
                .collect()
        })
        .collect()
}

/// Random predicate over `cols` columns, exercising every kernel shape:
/// comparisons (both literal sides), connectives, IS NULL, prefix, IN,
/// arithmetic (scalar-fallback territory).
fn arb_pred(rng: &mut StdRng, cols: usize, depth: usize) -> Expr {
    let col = |rng: &mut StdRng| Expr::col(rng.gen_range(0..cols.max(1)));
    let lit = |rng: &mut StdRng| match rng.gen_range(0..5) {
        0 => Expr::lit(rng.gen_range(-100i64..100)),
        1 => Expr::lit(rng.gen_range(-100.0f64..100.0)),
        2 => Expr::Lit(Value::str(format!("widget{}", rng.gen_range(0..10)))),
        3 => Expr::Lit(Value::Date(rng.gen_range(-500..500))),
        _ => Expr::Lit(Value::Null),
    };
    let cmp = |rng: &mut StdRng, a: Expr, b: Expr| match rng.gen_range(0..6) {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    };
    if depth == 0 {
        return match rng.gen_range(0..6) {
            0 => {
                let (a, b) = (col(rng), lit(rng));
                if rng.gen_bool(0.5) {
                    cmp(rng, a, b)
                } else {
                    cmp(rng, b, a)
                }
            }
            5 => {
                let (a, b) = (col(rng), lit(rng));
                let arith = a.add(b);
                let c = lit(rng);
                cmp(rng, arith, c)
            }
            1 => Expr::IsNull(Box::new(col(rng))),
            2 => Expr::StartsWith(Box::new(col(rng)), "wid".into()),
            3 => {
                let list = (0..rng.gen_range(0..4))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => Value::Int(rng.gen_range(-100..100)),
                        1 => Value::str(format!("widget{}", rng.gen_range(0..10))),
                        _ => Value::Null,
                    })
                    .collect();
                Expr::In(Box::new(col(rng)), list)
            }
            _ => {
                let (a, b) = (col(rng), col(rng));
                cmp(rng, a, b)
            }
        };
    }
    match rng.gen_range(0..3) {
        0 => Expr::and((0..rng.gen_range(0..=3)).map(|_| arb_pred(rng, cols, depth - 1))),
        1 => Expr::or((0..rng.gen_range(0..=3)).map(|_| arb_pred(rng, cols, depth - 1))),
        _ => Expr::Not(Box::new(arb_pred(rng, cols, depth - 1))),
    }
}

/// Batch for the arithmetic properties: one kind per column — small `Int`
/// and `Float` (zeros included: division by zero), `Str`, `Date`, all-NULL,
/// and the cross-type extremes as a typed `Int` column, a typed `Float`
/// column and a `Mixed` one — NULL-dense, 5% of slots off-type.
fn arb_numeric_batch(rng: &mut StdRng) -> Vec<Tuple> {
    let rows = rng.gen_range(0..=80);
    let cols = rng.gen_range(1..=5);
    let kinds: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..8)).collect();
    (0..rows)
        .map(|_| {
            kinds
                .iter()
                .map(|&k| {
                    if rng.gen_bool(0.15) {
                        return Value::Null;
                    }
                    let k = if rng.gen_bool(0.05) { rng.gen_range(0..4) } else { k };
                    match k {
                        0 => Value::Int(rng.gen_range(-3..4)),
                        1 => match rng.gen_range(0..6) {
                            0 => Value::Float(0.0),
                            1 => Value::Float(-0.0),
                            _ => Value::Float(rng.gen_range(-100.0..100.0)),
                        },
                        2 => Value::str(format!("wid{}", rng.gen_range(0..10))),
                        3 => Value::Date(rng.gen_range(-500..500)),
                        4 => Value::Null,
                        5 => arb_extreme_numeric(rng),
                        6 => loop {
                            if let v @ Value::Int(_) = arb_extreme_numeric(rng) {
                                break v;
                            }
                        },
                        _ => loop {
                            if let v @ Value::Float(_) = arb_extreme_numeric(rng) {
                                break v;
                            }
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Random arithmetic tree of depth ≤ `depth` over `cols` columns: all four
/// operators; leaves are columns, numeric / date / string / NULL literals
/// (zero divisors included), the cross-type extremes, and boolean nodes used
/// as numbers.
fn arb_arith(rng: &mut StdRng, cols: usize, depth: usize) -> Expr {
    use qpipe::exec::expr::ArithOp;
    if depth == 0 || rng.gen_bool(0.2) {
        return match rng.gen_range(0..12) {
            0..=4 => Expr::col(rng.gen_range(0..cols.max(1))),
            5 => Expr::lit(rng.gen_range(-2i64..3)),
            6 => Expr::lit([0.0, -0.0, 0.5, -365.25][rng.gen_range(0..4)]),
            7 => Expr::Lit(Value::Date(rng.gen_range(-500..500))),
            8 => Expr::Lit(arb_extreme_numeric(rng)),
            9 => Expr::Lit(Value::Null),
            10 => Expr::Lit(Value::str("wid3")),
            _ => arb_pred(rng, cols, 0),
        };
    }
    let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(0..4)];
    Expr::Arith(
        op,
        Box::new(arb_arith(rng, cols, depth - 1)),
        Box::new(arb_arith(rng, cols, depth - 1)),
    )
}

/// Random predicate whose operands are arithmetic: `Cmp`, `IS NULL`, `IN`
/// and prefix tests over computed columns, and a bare arithmetic result used
/// as a predicate, under the connectives.
fn arb_arith_pred(rng: &mut StdRng, cols: usize, depth: usize) -> Expr {
    use qpipe::exec::expr::CmpOp;
    if depth == 0 {
        let a = arb_arith(rng, cols, 2);
        return match rng.gen_range(0..6) {
            0 | 1 => {
                let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
                let b_depth = rng.gen_range(0..=2);
                let b = arb_arith(rng, cols, b_depth);
                let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                Expr::Cmp(ops[rng.gen_range(0..6)], Box::new(a), Box::new(b))
            }
            2 => Expr::IsNull(Box::new(a)),
            3 => {
                let list = (0..rng.gen_range(0..4))
                    .map(|_| match rng.gen_range(0..4) {
                        0 => Value::Int(rng.gen_range(-3..4)),
                        1 => Value::Float(rng.gen_range(-3..4) as f64),
                        2 => Value::str("wid3"),
                        _ => Value::Null,
                    })
                    .collect();
                Expr::In(Box::new(a), list)
            }
            4 => Expr::StartsWith(Box::new(a), "wid".into()),
            _ => a,
        };
    }
    match rng.gen_range(0..3) {
        0 => Expr::and((0..rng.gen_range(0..=3)).map(|_| arb_arith_pred(rng, cols, depth - 1))),
        1 => Expr::or((0..rng.gen_range(0..=3)).map(|_| arb_arith_pred(rng, cols, depth - 1))),
        _ => Expr::Not(Box::new(arb_arith_pred(rng, cols, depth - 1))),
    }
}

/// Equal by type tag and bits — stricter than `Value ==`, under which
/// `Int(2) == Float(2.0)` and `Date(5) == Int(5)`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Value / codec properties
// ---------------------------------------------------------------------------

#[test]
fn codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..500 {
        let tuple = arb_tuple(&mut rng);
        let mut buf = Vec::new();
        encode_tuple(&tuple, &mut buf);
        assert_eq!(buf.len(), encoded_len(&tuple));
        let back = decode_tuple(&buf).unwrap();
        assert_eq!(back, tuple);
    }
}

#[test]
fn truncated_encodings_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7A0C);
    for _ in 0..500 {
        let tuple = arb_tuple(&mut rng);
        let mut buf = Vec::new();
        encode_tuple(&tuple, &mut buf);
        let cut = rng.gen_range(0..64usize).min(buf.len());
        // A strict prefix must produce an error, not a panic.
        let r = decode_tuple(&buf[..cut]);
        if cut < buf.len() {
            assert!(r.is_err() || encoded_len(&tuple) <= cut);
        }
    }
}

#[test]
fn value_ordering_is_total_and_consistent_with_hash() {
    use std::cmp::Ordering;
    let mut rng = StdRng::seed_from_u64(0x0DD);
    for _ in 0..2000 {
        let (a, b) = (arb_value(&mut rng), arb_value(&mut rng));
        // Antisymmetry.
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse());
        // Eq ⇒ equal hashes.
        if ab == Ordering::Equal {
            assert_eq!(a.stable_hash(), b.stable_hash());
        }
    }
}

#[test]
fn value_ordering_transitive() {
    let mut rng = StdRng::seed_from_u64(0x7A2);
    for _ in 0..2000 {
        let mut v = [arb_value(&mut rng), arb_value(&mut rng), arb_value(&mut rng)];
        v.sort();
        assert!(v[0] <= v[1] && v[1] <= v[2]);
    }
}

/// The headline-bugfix property: over adversarial Int/Float pairs at the
/// 2^53 boundary and the i64 extremes, ordering stays a genuine total order
/// (antisymmetric + transitive) and `a == b ⇒ hash(a) == hash(b)`. Under
/// the old lossy `i64 → f64` comparison, `Int(2^53 + 1) == Float(2^53.0)`
/// while `Int(2^53 + 1) > Int(2^53)` — sorted runs and join groups at the
/// boundary silently corrupted.
#[test]
fn value_ordering_total_over_cross_type_extremes() {
    use std::cmp::Ordering;
    let mut rng = StdRng::seed_from_u64(0x2F53);
    for _ in 0..4000 {
        let a = arb_extreme_numeric(&mut rng);
        let b = arb_extreme_numeric(&mut rng);
        let c = arb_extreme_numeric(&mut rng);
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse(), "{a} vs {b}");
        if a.total_cmp(&b) == Ordering::Equal {
            assert_eq!(a.stable_hash(), b.stable_hash(), "{a} == {b} must hash equal");
        }
        // Transitivity over every permutation of the triple.
        if a <= b && b <= c {
            assert!(a <= c, "{a} <= {b} <= {c} but {a} > {c}");
        }
        if a >= b && b >= c {
            assert!(a >= c, "{a} >= {b} >= {c} but {a} < {c}");
        }
    }
}

/// Distinct i64s near the exactness boundary must never collapse onto one
/// float: equality across Int/Float is exact, both ways.
#[test]
fn boundary_ints_stay_distinct_from_rounded_floats() {
    let big = 1i64 << 53;
    for d in -3i64..=3 {
        let int = Value::Int(big + d);
        let float = Value::Float((big + d) as f64); // rounds for odd d
        let eq = int == float;
        let exact = (big + d) as f64 as i64 == big + d;
        assert_eq!(
            eq,
            exact,
            "Int({}) vs Float({}): equality must track exactness",
            big + d,
            (big + d) as f64
        );
        if eq {
            assert_eq!(int.stable_hash(), float.stable_hash());
        }
    }
}

// ---------------------------------------------------------------------------
// Page properties
// ---------------------------------------------------------------------------

#[test]
fn page_preserves_record_contents() {
    let mut rng = StdRng::seed_from_u64(0x9A6E);
    for _ in 0..60 {
        let records: Vec<Vec<u8>> = (0..rng.gen_range(0..40))
            .map(|_| (0..rng.gen_range(0..256)).map(|_| rng.gen_range(0..=255u64) as u8).collect())
            .collect();
        let mut page = Page::new();
        let mut stored = Vec::new();
        for r in &records {
            if page.fits(r.len()) {
                page.append_record(r).unwrap();
                stored.push(r.clone());
            }
        }
        assert_eq!(page.num_records(), stored.len());
        for (i, r) in stored.iter().enumerate() {
            assert_eq!(page.record(i as u16).unwrap(), &r[..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Slotted page → columns: `Page::decode_cols` is `from_rows(decode_tuples)`,
// projected, slot for slot — and fails exactly where `decode_tuples` fails.
// ---------------------------------------------------------------------------

/// One slot value of kind `kind` (0 Int, 1 Float, 2 Str, 3 Date), edge
/// cases included: integer and float extremes, NaN, −0.0, ±∞, empty,
/// multibyte and long strings.
fn arb_slot(rng: &mut StdRng, kind: u8) -> Value {
    match kind {
        0 if rng.gen_bool(0.2) => Value::Int([i64::MIN, i64::MAX, 0, -1][rng.gen_range(0..4)]),
        0 => Value::Int(rng.gen_range(-1000..1000)),
        1 => {
            let edges = [
                f64::NAN,
                -0.0,
                0.0,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                f64::INFINITY,
                -f64::INFINITY,
            ];
            if rng.gen_bool(0.3) {
                Value::Float(edges[rng.gen_range(0..edges.len())])
            } else {
                Value::Float(rng.gen_range(-1e6..1e6))
            }
        }
        2 => {
            let len =
                if rng.gen_bool(0.05) { rng.gen_range(100..=300) } else { rng.gen_range(0..=8) };
            let alphabet = ['a', 'Z', ' ', '_', 'é', '€', '𝄞', 'ß'];
            Value::str(
                (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect::<String>(),
            )
        }
        _ => Value::Date(rng.gen_range(i32::MIN..i32::MAX)),
    }
}

/// A slotted page of ragged records (arity 0–8) whose columns are each
/// uniform, NULL-leading, two-typed or all-NULL; returns the page and the
/// rows it holds.
fn arb_slotted_page(rng: &mut StdRng) -> (Page, Vec<Tuple>) {
    let width = rng.gen_range(0..=8);
    // (shape, kind, second kind, leading NULLs) per column.
    let shapes: Vec<(u8, u8, u8, usize)> = (0..width)
        .map(|_| {
            (rng.gen_range(0..4), rng.gen_range(0..4), rng.gen_range(0..4), rng.gen_range(0..20))
        })
        .collect();
    let mut page = Page::new();
    let mut rows = Vec::new();
    let mut buf = Vec::new();
    for r in 0..rng.gen_range(0..=90) {
        let arity = if rng.gen_bool(0.3) { rng.gen_range(0..=width) } else { width };
        let row: Tuple = shapes[..arity]
            .iter()
            .map(|&(shape, kind, other, lead)| match shape {
                0 if rng.gen_bool(0.2) => Value::Null,
                0 => arb_slot(rng, kind),
                1 if r < lead || rng.gen_bool(0.1) => Value::Null,
                1 => arb_slot(rng, kind),
                2 if rng.gen_bool(0.15) => Value::Null,
                2 => {
                    let kind = if rng.gen_bool(0.5) { kind } else { other };
                    arb_slot(rng, kind)
                }
                _ => Value::Null,
            })
            .collect();
        buf.clear();
        encode_tuple(&row, &mut buf);
        if !page.fits(buf.len()) {
            break;
        }
        page.append_record(&buf).unwrap();
        rows.push(row);
    }
    (page, rows)
}

/// `got` equals `want` column for column: same `ColumnData` variant, and
/// every slot the same NULL bit, type tag and bits.
fn assert_same_columns(got: &ColBatch, want: &ColBatch, what: &str) {
    assert_eq!((got.len(), got.num_cols()), (want.len(), want.num_cols()), "{what}: shape");
    for c in 0..want.num_cols() {
        let (g, w) = (got.col(c).unwrap(), want.col(c).unwrap());
        assert_eq!(
            std::mem::discriminant(g.data()),
            std::mem::discriminant(w.data()),
            "{what}: column {c} representation"
        );
        for i in 0..want.len() {
            assert_eq!(g.is_null(i), w.is_null(i), "{what}: column {c} row {i} null bit");
            assert!(same_bits(&g.value(i), &w.value(i)), "{what}: column {c} row {i}");
        }
    }
}

#[test]
fn slotted_decode_cols_agrees_with_decode_tuples() {
    let mut rng = StdRng::seed_from_u64(0x0510_77ED);
    let mut typed_cols = 0;
    for case in 0..500 {
        let (page, rows) = arb_slotted_page(&mut rng);
        let tuples = page.decode_tuples().unwrap();
        assert_eq!(tuples.len(), rows.len());
        let full = ColBatch::from_rows(&tuples);
        let width = full.num_cols();
        assert_eq!(page.width().unwrap(), width, "case {case}");
        assert_same_columns(&page.decode_cols(None).unwrap(), &full, &format!("case {case} None"));
        let subset: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.5)).collect();
        for cols in [vec![], subset.clone(), (0..width).collect()] {
            let got = page.decode_cols(Some(&cols)).unwrap();
            assert_same_columns(&got, &full.project(&cols), &format!("case {case} {cols:?}"));
        }
        typed_cols += (0..width)
            .filter(|&c| !matches!(full.col(c).unwrap().data(), ColumnData::Mixed(_)))
            .count();
        let mut past = subset;
        past.push(width + rng.gen_range(0..3));
        assert!(page.decode_cols(Some(&past)).is_err(), "case {case}: {past:?} past width {width}");
    }
    assert!(typed_cols > 300, "typed columns exercised: {typed_cols}");
}

/// The same records re-packed, some truncated or garbled (the page is never
/// sealed: this is the codec's check, not the checksum's).
fn garbled(rng: &mut StdRng, clean: &Page) -> Page {
    let mut page = Page::new();
    for rec in clean.records() {
        let mut rec = rec.to_vec();
        match rng.gen_range(0..4) {
            0 => rec.truncate(rng.gen_range(0..=rec.len())),
            1 => {
                for _ in 0..rng.gen_range(1..=3) {
                    let at = rng.gen_range(0..rec.len());
                    rec[at] = rng.gen_range(0..=255u64) as u8;
                }
            }
            _ => {}
        }
        page.append_record(&rec).unwrap();
    }
    page
}

#[test]
fn slotted_decode_cols_fails_exactly_when_decode_tuples_fails() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_5107);
    let mut failures = 0;
    for case in 0..400 {
        let (clean, rows) = arb_slotted_page(&mut rng);
        let page = garbled(&mut rng, &clean);
        let tuples = page.decode_tuples();
        failures += usize::from(tuples.is_err());
        assert_eq!(
            page.decode_cols(None).is_err(),
            tuples.is_err(),
            "case {case} ({} rows)",
            rows.len()
        );
        let Ok(width) = page.width() else {
            assert!(tuples.is_err(), "case {case}: width failed on a decodable page");
            continue;
        };
        let cols: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.3)).collect();
        let got = page.decode_cols(Some(&cols));
        assert_eq!(got.is_err(), tuples.is_err(), "case {case}: {cols:?}");
        if let (Ok(got), Ok(tuples)) = (got, tuples) {
            let want = ColBatch::from_rows(&tuples).project(&cols);
            assert_same_columns(&got, &want, &format!("case {case} garbled"));
        }
    }
    assert!(failures > 100, "garbled pages that fail to decode: {failures}");
}

// ---------------------------------------------------------------------------
// The decode cache: whatever columns earlier calls left in it, a page read
// through `Block::decode` answers as its layout's uncached decoder — a
// slotted frame and a columnar page alike.
// ---------------------------------------------------------------------------

/// A column request on a page of width `width`: every column, none, a
/// repeat, columns out of order, or a list that may reach past the width.
fn arb_request(rng: &mut StdRng, width: usize) -> Option<Vec<usize>> {
    let any = |rng: &mut StdRng| rng.gen_range(0..width.max(1));
    match rng.gen_range(0..5) {
        0 => None,
        1 => Some(vec![]),
        2 => {
            let c = any(rng);
            Some(vec![c, any(rng), c])
        }
        3 => {
            let mut cols: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.5)).collect();
            cols.reverse();
            Some(cols)
        }
        _ => Some((0..rng.gen_range(1..=4)).map(|_| rng.gen_range(0..width + 2)).collect()),
    }
}

/// A columnar page of random schema-typed rows, as many as fit.
fn arb_colpage(rng: &mut StdRng) -> qpipe_storage::ColPage {
    let (schema, rows) = arb_typed_batch(rng);
    let mut builder = qpipe_storage::ColPageBuilder::new(&schema);
    for r in &rows {
        if !builder.fits(r) {
            break;
        }
        builder.append(r).unwrap();
    }
    builder.finish()
}

/// The layout's decoder, which reads no cache.
fn uncached(block: &Block, cols: Option<&[usize]>) -> QResult<ColBatch> {
    match block {
        Block::Slotted(p) => p.decode_cols(cols),
        Block::Columnar(p) => p.decode_cols(cols),
    }
}

/// Whether a cached decode answered as the uncached decoder did: the same
/// columns, or an error exactly when the decoder errs.
fn agrees(got: QResult<Arc<ColBatch>>, want: QResult<ColBatch>, what: &str) -> bool {
    assert_eq!(got.is_err(), want.is_err(), "{what}");
    if let (Ok(got), Ok(want)) = (got, want) {
        assert_same_columns(&got, &want, what);
        true
    } else {
        false
    }
}

#[test]
fn a_frames_decode_cache_answers_as_the_uncached_page() {
    let mut rng = StdRng::seed_from_u64(0xF8A3_EC0D);
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let file = disk.create_file("pages").unwrap();
    // Slotted pages (a quarter garbled) and columnar pages, alternately.
    let pages: Vec<Block> = (0..600)
        .map(|i| {
            let page: Block = if i % 2 == 0 {
                let (clean, _) = arb_slotted_page(&mut rng);
                if rng.gen_bool(0.25) { garbled(&mut rng, &clean) } else { clean }.into()
            } else {
                arb_colpage(&mut rng).into()
            };
            disk.append_block(file, page.clone()).unwrap();
            page
        })
        .collect();
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(pages.len(), PolicyKind::Lru));
    let mut tally = [[0; 3]; 2]; // pool hits per layout: answered, failed, shared
    let mut clones = [0; 2]; // columnar clones: answered, failed
    for (block, page) in pages.iter().enumerate() {
        let (block, columnar) = (block as u64, matches!(page, Block::Columnar(_)));
        let tally = &mut tally[usize::from(columnar)];
        pool.get(file, block).unwrap(); // the miss installs the frame
        let width = page.num_cols().unwrap_or(3);
        for step in 0..8 {
            let cols = arb_request(&mut rng, width);
            let hit = pool.get(file, block).unwrap();
            let what = format!("page {block} hit {step} {cols:?}");
            let ok = agrees(hit.decode(cols.as_deref()), uncached(page, cols.as_deref()), &what);
            tally[usize::from(!ok)] += 1;
        }
        // Every column a hit decoded is the one the next hit gets.
        let hit = |cols: &[usize]| pool.get(file, block).unwrap().decode(Some(cols));
        if let (Ok(a), Ok(b)) = (hit(&[0]), hit(&[0])) {
            assert!(Arc::ptr_eq(&a.columns()[0], &b.columns()[0]), "page {block}");
            tally[2] += 1;
        }

        // Clones of one columnar page that never enters the pool: a copy
        // read from the disk, sometimes with a bit flipped under its seal.
        let Block::Columnar(read) = disk.read_block(file, block).unwrap() else { continue };
        let lone =
            if rng.gen_bool(0.3) { read.corrupted_copy(rng.gen_range(0..65_536)) } else { read };
        let lone = Block::Columnar(lone);
        for step in 0..6 {
            let cols = arb_request(&mut rng, width);
            let what = format!("page {block} clone {step} {cols:?}");
            let got = lone.clone().decode(cols.as_deref());
            clones[usize::from(!agrees(got, uncached(&lone, cols.as_deref()), &what))] += 1;
        }
    }
    let [[rows_ok, rows_err, rows_shared], [cols_ok, cols_err, cols_shared]] = tally;
    assert!(rows_ok > 1000 && rows_err > 300 && rows_shared > 150, "slotted {tally:?}");
    assert!(cols_ok > 1500 && cols_err > 200 && cols_shared > 250, "columnar {tally:?}");
    assert!(clones[0] > 1000 && clones[1] > 150, "columnar clones {clones:?}");
}

// ---------------------------------------------------------------------------
// Columnar page codec properties: random NULL-dense, schema-typed batches
// must survive rows → ColPage → ColBatch → rows exactly, and agree with the
// slotted-page codec over the same rows (cross-codec parity).
// ---------------------------------------------------------------------------

/// Random schema + conformant NULL-dense rows (columnar pages are strictly
/// typed, so unlike `arb_batch` no type-breaking values are injected).
fn arb_typed_batch(rng: &mut StdRng) -> (qpipe::common::Schema, Vec<Tuple>) {
    use qpipe::common::{ColumnDef, DataType};
    let kinds = [DataType::Int, DataType::Float, DataType::Str, DataType::Date];
    let cols = rng.gen_range(1..=6);
    let schema = qpipe::common::Schema::new(
        (0..cols)
            .map(|i| ColumnDef::new(format!("c{i}"), kinds[rng.gen_range(0..kinds.len())]))
            .collect(),
    );
    let rows = rng.gen_range(0..=120);
    let rows = (0..rows)
        .map(|_| {
            schema
                .columns()
                .iter()
                .map(|c| {
                    if rng.gen_bool(0.25) {
                        return Value::Null; // NULL-dense on purpose
                    }
                    match c.ty {
                        DataType::Int => Value::Int(rng.gen_range(i64::MIN / 2..i64::MAX / 2)),
                        DataType::Float => Value::Float(rng.gen_range(-1e12..1e12)),
                        DataType::Str => {
                            let len = rng.gen_range(0..=10);
                            Value::str(
                                (0..len)
                                    .map(|_| {
                                        let alphabet = b"abcd XY9_";
                                        alphabet[rng.gen_range(0..alphabet.len())] as char
                                    })
                                    .collect::<String>(),
                            )
                        }
                        DataType::Date => Value::Date(rng.gen_range(i32::MIN..i32::MAX)),
                    }
                })
                .collect()
        })
        .collect();
    (schema, rows)
}

#[test]
fn colpage_round_trips_and_matches_slotted_codec() {
    use qpipe_storage::colpage::ColPageBuilder;
    let mut rng = StdRng::seed_from_u64(0xC01A6E);
    for case in 0..300 {
        let (schema, rows) = arb_typed_batch(&mut rng);
        // Pack the same prefix of rows into one columnar and one slotted
        // page; stop at whichever page layout fills first.
        let mut builder = ColPageBuilder::new(&schema);
        let mut page = Page::new();
        let mut stored: Vec<Tuple> = Vec::new();
        let mut buf = Vec::new();
        for r in &rows {
            buf.clear();
            encode_tuple(r, &mut buf);
            if !builder.fits(r) || !page.fits(buf.len()) {
                break;
            }
            builder.append(r).unwrap();
            page.append_record(&buf).unwrap();
            stored.push(r.clone());
        }
        let colpage = builder.finish();
        let via_columnar = colpage.decode().unwrap().to_rows();
        let via_slotted = page.decode_tuples().unwrap();
        assert_eq!(via_columnar, stored, "case {case}: columnar round trip");
        assert_eq!(via_slotted, stored, "case {case}: slotted round trip");
        assert_eq!(via_columnar, via_slotted, "case {case}: cross-codec parity");
    }
}

#[test]
fn colpage_batch_agrees_with_from_rows_semantics() {
    // The materialized ColBatch must behave like ColBatch::from_rows over
    // the same tuples under the vectorized kernels (same filter results).
    use qpipe_storage::colpage::ColPageBuilder;
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..150 {
        let (schema, rows) = arb_typed_batch(&mut rng);
        let mut builder = ColPageBuilder::new(&schema);
        let mut stored: Vec<Tuple> = Vec::new();
        for r in &rows {
            if !builder.fits(r) {
                break;
            }
            builder.append(r).unwrap();
            stored.push(r.clone());
        }
        let from_page = builder.finish().decode().unwrap();
        let depth = rng.gen_range(0..=2);
        let pred = arb_pred(&mut rng, schema.len(), depth);
        let scalar: Vec<usize> = stored
            .iter()
            .enumerate()
            .filter(|(_, t)| pred.eval_bool(t).unwrap())
            .map(|(i, _)| i)
            .collect();
        let vectorized: Vec<usize> = pred.eval_filter(&from_page).unwrap().iter().collect();
        assert_eq!(vectorized, scalar, "case {case}: predicate {pred:?}");
    }
}

// ---------------------------------------------------------------------------
// Expression properties (scalar)
// ---------------------------------------------------------------------------

#[test]
fn not_not_is_identity() {
    let mut rng = StdRng::seed_from_u64(0x1407);
    for _ in 0..500 {
        let t: Tuple = vec![Value::Int(rng.gen_range(-100..100))];
        let p = Expr::col(0).lt(Expr::lit(rng.gen_range(-100i64..100)));
        let np = Expr::Not(Box::new(Expr::Not(Box::new(p.clone()))));
        assert_eq!(p.eval_bool(&t).unwrap(), np.eval_bool(&t).unwrap());
    }
}

#[test]
fn de_morgan() {
    let mut rng = StdRng::seed_from_u64(0xDE40);
    for _ in 0..500 {
        let t: Tuple = vec![Value::Int(rng.gen_range(-100..100))];
        let p = Expr::col(0).lt(Expr::lit(rng.gen_range(-100i64..100)));
        let q = Expr::col(0).gt(Expr::lit(rng.gen_range(-100i64..100)));
        let lhs = Expr::Not(Box::new(Expr::and([p.clone(), q.clone()])));
        let rhs = Expr::or([Expr::Not(Box::new(p)), Expr::Not(Box::new(q))]);
        assert_eq!(lhs.eval_bool(&t).unwrap(), rhs.eval_bool(&t).unwrap());
    }
}

#[test]
fn signature_equality_iff_structural() {
    let mut rng = StdRng::seed_from_u64(0x516);
    for _ in 0..500 {
        let (a, b) = (rng.gen_range(-50i64..50), rng.gen_range(-50i64..50));
        let pa = PlanNode::scan_filtered("t", Expr::col(0).eq(Expr::lit(a)));
        let pb = PlanNode::scan_filtered("t", Expr::col(0).eq(Expr::lit(b)));
        assert_eq!(pa.signature() == pb.signature(), a == b);
    }
}

// ---------------------------------------------------------------------------
// Scalar / vectorized parity (the load-bearing property for the columnar
// scan path: Expr::eval_filter must agree with row-at-a-time eval_bool on
// every batch — NULLs, string prefixes, mixed-type columns and all).
// ---------------------------------------------------------------------------

#[test]
fn eval_filter_agrees_with_eval_bool() {
    let mut rng = StdRng::seed_from_u64(0xF117E2);
    for case in 0..400 {
        let rows = arb_batch(&mut rng);
        let cols = rows.first().map_or(1, |r| r.len());
        let depth = rng.gen_range(0..=2);
        let pred = arb_pred(&mut rng, cols, depth);
        let batch = ColBatch::from_rows(&rows);
        let scalar: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, t)| pred.eval_bool(t).unwrap())
            .map(|(i, _)| i)
            .collect();
        let vectorized: Vec<usize> = pred.eval_filter(&batch).unwrap().iter().collect();
        assert_eq!(vectorized, scalar, "case {case}: predicate {pred:?} over {rows:?}");
    }
    // Predicates over computed operands: the operand is evaluated to a
    // column and meets the same comparison kernels.
    for case in 0..400 {
        let rows = arb_numeric_batch(&mut rng);
        let cols = rows.first().map_or(1, |r| r.len());
        let depth = rng.gen_range(0..=2);
        let pred = arb_arith_pred(&mut rng, cols, depth);
        let batch = ColBatch::from_rows(&rows);
        let scalar: Vec<usize> =
            (0..rows.len()).filter(|&i| pred.eval_bool(&rows[i]).unwrap()).collect();
        let vectorized: Vec<usize> = pred.eval_filter(&batch).unwrap().iter().collect();
        assert_eq!(vectorized, scalar, "arith case {case}: predicate {pred} over {rows:?}");
    }
}

#[test]
fn eval_project_agrees_with_scalar_eval() {
    let mut rng = StdRng::seed_from_u64(0x9205EC7);
    let mut typed_results = 0;
    for case in 0..500 {
        let rows = arb_numeric_batch(&mut rng);
        let ncols = rows.first().map_or(1, |r| r.len());
        let batch = ColBatch::from_rows(&rows);
        // Every row, a predicate's survivors, or a random subset.
        let sel = match rng.gen_range(0..3) {
            0 => SelVec::all(rows.len()),
            1 => arb_pred(&mut rng, ncols, 1).eval_filter(&batch).unwrap(),
            _ => {
                SelVec::from_sorted((0..rows.len() as u32).filter(|_| rng.gen_bool(0.5)).collect())
            }
        };
        let exprs = vec![
            Expr::col(rng.gen_range(0..ncols.max(1))),
            arb_arith(&mut rng, ncols, 1),
            arb_arith(&mut rng, ncols, 3),
            arb_arith_pred(&mut rng, ncols, 1),
        ];
        let projected = project_batch(&exprs, &batch, &sel).unwrap();
        assert_eq!(projected.len(), sel.len());
        for (c, e) in exprs.iter().enumerate() {
            let col = projected.col(c).unwrap();
            typed_results += !matches!(col.data(), ColumnData::Mixed(_)) as usize;
            for (k, i) in sel.iter().enumerate() {
                // Type tag and bits: `Value ==` would let Int(2) pass for
                // Float(2.0). (The column's variant may differ from
                // `from_values` of the expected values only when every slot
                // is NULL, which `value()` does not show.)
                let (got, want) = (col.value(k), e.eval(&rows[i]).unwrap());
                assert!(
                    same_bits(&got, &want),
                    "case {case}, row {i}: {e} = {want:?}, column says {got:?}; rows {rows:?}"
                );
            }
        }
    }
    assert!(typed_results > 500, "the typed kernels must be what ran ({typed_results})");
}

/// The typed group-by against the row operator it replaces in the staged
/// engine: same groups (`Value::eq` on the key — NULL = NULL, 2 = 2.0), the
/// first-seen key kept, the same fold order within a group (float `SUM` /
/// `AVG` compared by bits), the same output order.
#[test]
fn hash_agg_agrees_with_aggregate_iter() {
    use qpipe::exec::iter::{AggregateIter, TupleIter, VecIter};
    use qpipe::exec::viter::HashAgg;
    let mut rng = StdRng::seed_from_u64(0xA66_1D5);
    let mut most_groups = 0;
    for case in 0..400 {
        let nkeys = rng.gen_range(1..=3);
        // Every 40th case has ≥ 2 000 groups, so the table grows many times.
        let (domain, nrows) =
            if case % 40 == 0 { (3000i64, 6000usize) } else { (rng.gen_range(1..12), 300) };
        let nrows = rng.gen_range(0..=nrows);
        let batch_len = rng.gen_range(1..=256);
        // A key column's kind may change from one batch to the next (the
        // numeric kinds keep naming the same groups: 2, 2.0 and day 2).
        let mut kinds: Vec<u8> = (0..nkeys).map(|_| rng.gen_range(0..5)).collect();
        let mut rows: Vec<Tuple> = Vec::with_capacity(nrows);
        for i in 0..nrows {
            if i % batch_len == 0 && rng.gen_bool(0.3) {
                let c = rng.gen_range(0..nkeys);
                kinds[c] = rng.gen_range(0..5);
            }
            let mut row: Tuple = kinds
                .iter()
                .map(|&k| {
                    let x = rng.gen_range(0..domain);
                    if rng.gen_bool(0.1) {
                        return Value::Null;
                    }
                    match k {
                        0 => Value::Int(x),
                        1 => Value::Float(x as f64),
                        2 => Value::Date(x as i32),
                        3 => Value::str(format!("k{x}")),
                        // Mixed: Int/Float-equal keys side by side.
                        _ if rng.gen_bool(0.5) => Value::Int(x),
                        _ => Value::Float(x as f64),
                    }
                })
                .collect();
            // Inputs: an Int, a NULL-dense Float, a Str, and an off-type slot.
            row.push(Value::Int(rng.gen_range(-1000..1000)));
            row.push(if rng.gen_bool(0.2) {
                Value::Null
            } else {
                Value::Float(rng.gen_range(-1e6..1e6))
            });
            row.push(Value::str(format!("s{}", rng.gen_range(0..50))));
            row.push(match rng.gen_range(0..4) {
                0 => Value::Int(rng.gen_range(-5..5)),
                1 => Value::Float(rng.gen_range(-5.0..5.0)),
                2 => Value::Date(rng.gen_range(-5..5)),
                _ => Value::Null,
            });
            rows.push(row);
        }
        let (int, float, text, mixed) = (nkeys, nkeys + 1, nkeys + 2, nkeys + 3);
        let aggs = vec![
            AggSpec::count_star(),
            AggSpec::count(Expr::col(float)),
            AggSpec::sum(Expr::col(int)),
            AggSpec::sum(Expr::col(float)),
            AggSpec::sum(Expr::col(float).mul(Expr::lit(1.0).sub(Expr::col(int)))),
            AggSpec::avg(Expr::col(float)),
            AggSpec::avg(Expr::col(mixed)),
            AggSpec::min(Expr::col(text)),
            AggSpec::max(Expr::col(float)),
            AggSpec::min(Expr::col(mixed)),
            AggSpec::max(Expr::col(int).add(Expr::col(mixed))),
        ];
        let group_by: Vec<usize> = (0..nkeys).collect();
        let mut it = AggregateIter::new(
            Box::new(VecIter::new(rows.clone())),
            group_by.clone(),
            aggs.clone(),
        );
        let mut expected = Vec::new();
        while let Some(t) = it.next().unwrap() {
            expected.push(t);
        }
        let mut agg = HashAgg::new(group_by, aggs);
        for chunk in rows.chunks(batch_len) {
            agg.update_cols(&ColBatch::from_rows(chunk)).unwrap();
        }
        assert_eq!(agg.num_groups(), expected.len(), "case {case}");
        most_groups = most_groups.max(expected.len());
        let got = agg.finish();
        for (g, w) in got.iter().zip(&expected) {
            assert!(
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same_bits(a, b)),
                "case {case}: typed group-by says {g:?}, AggregateIter {w:?}"
            );
        }
    }
    assert!(most_groups >= 2000, "some case must grow the table ({most_groups} groups)");
}

#[test]
fn colbatch_round_trip_and_gather_preserve_rows() {
    let mut rng = StdRng::seed_from_u64(0x6A7E3);
    for _ in 0..300 {
        let rows = arb_batch(&mut rng);
        let batch = ColBatch::from_rows(&rows);
        assert_eq!(batch.to_rows(), rows, "to_rows must invert from_rows");
        // Gathering a random subset equals indexing the row vector.
        let idx: Vec<u32> = (0..rows.len() as u32).filter(|_| rng.gen_bool(0.4)).collect();
        let sel = SelVec::from_sorted(idx.clone());
        let gathered = batch.gather(&sel);
        let expected: Vec<Tuple> = idx.iter().map(|&i| rows[i as usize].clone()).collect();
        assert_eq!(gathered.to_rows(), expected);
    }
}

// ---------------------------------------------------------------------------
// Engine-level properties (smaller case counts: each case builds a system)
// ---------------------------------------------------------------------------

fn tiny_catalog(rows: &[i64]) -> std::sync::Arc<Catalog> {
    let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
    catalog
        .create_table(
            "t",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
            rows.iter().map(|&k| vec![Value::Int(k), Value::Int(k % 7)]).collect(),
            None,
        )
        .unwrap();
    catalog
}

fn arb_keys(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range(0..max_len);
    (0..n).map(|_| rng.gen_range(-1000..1000)).collect()
}

#[test]
fn sort_operator_agrees_with_std_sort() {
    let mut rng = StdRng::seed_from_u64(0x5027);
    for _ in 0..24 {
        let mut rows = arb_keys(&mut rng, 400);
        let catalog = tiny_catalog(&rows);
        let ctx = ExecContext::new(catalog);
        let sorted = qpipe::exec::iter::run(
            &PlanNode::scan("t").sort(vec![SortKey::asc(0), SortKey::desc(1)]),
            &ctx,
        )
        .unwrap();
        rows.sort_by(|a, b| (a, std::cmp::Reverse(a % 7)).cmp(&(b, std::cmp::Reverse(b % 7))));
        let got: Vec<i64> = sorted.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, rows);
    }
}

#[test]
fn filter_count_matches_manual() {
    let mut rng = StdRng::seed_from_u64(0xF117);
    for _ in 0..24 {
        let rows = arb_keys(&mut rng, 400);
        let bound = rng.gen_range(-1000..1000);
        let catalog = tiny_catalog(&rows);
        let ctx = ExecContext::new(catalog);
        let got = qpipe::exec::iter::run(
            &PlanNode::scan_filtered("t", Expr::col(0).lt(Expr::lit(bound))),
            &ctx,
        )
        .unwrap()
        .len();
        let expected = rows.iter().filter(|&&k| k < bound).count();
        assert_eq!(got, expected);
    }
}

#[test]
fn qpipe_agrees_with_iterator_engine() {
    let mut rng = StdRng::seed_from_u64(0x06E);
    for _ in 0..24 {
        let mut rows = arb_keys(&mut rng, 300);
        if rows.is_empty() {
            rows.push(rng.gen_range(-1000..1000));
        }
        let bound = rng.gen_range(-1000..1000);
        let catalog = tiny_catalog(&rows);
        let plan = PlanNode::scan_filtered("t", Expr::col(0).ge(Expr::lit(bound))).aggregate(
            vec![],
            vec![AggSpec::count_star(), AggSpec::min(Expr::col(0)), AggSpec::max(Expr::col(0))],
        );
        let expected = qpipe::exec::iter::run(&plan, &ExecContext::new(catalog.clone())).unwrap();
        let engine = QPipe::new(catalog, QPipeConfig::default());
        let got = engine.submit(plan).unwrap().try_collect().unwrap();
        assert_eq!(got, expected);
    }
}

#[test]
fn hash_join_is_exact_cartesian_of_key_groups() {
    let mut rng = StdRng::seed_from_u64(0x704A);
    for _ in 0..24 {
        let left: Vec<i64> = (0..rng.gen_range(0..100)).map(|_| rng.gen_range(0..20)).collect();
        let right: Vec<i64> = (0..rng.gen_range(0..100)).map(|_| rng.gen_range(0..20)).collect();
        let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
        let mk =
            |rows: &[i64]| -> Vec<Tuple> { rows.iter().map(|&k| vec![Value::Int(k)]).collect() };
        catalog.create_table("l", Schema::of(&[("k", DataType::Int)]), mk(&left), None).unwrap();
        catalog.create_table("r", Schema::of(&[("k", DataType::Int)]), mk(&right), None).unwrap();
        let ctx = ExecContext::new(catalog);
        let got =
            qpipe::exec::iter::run(&PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0), &ctx)
                .unwrap()
                .len();
        let expected: usize = (0..20)
            .map(|k| {
                left.iter().filter(|&&x| x == k).count() * right.iter().filter(|&&x| x == k).count()
            })
            .sum();
        assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Shared-scan parity: random per-consumer predicates (the Figure 12 mix
// shape) must produce identical cardinalities with OSP on and off.
// ---------------------------------------------------------------------------

#[test]
fn shared_scan_cardinalities_match_osp_on_and_off() {
    let mut rng = StdRng::seed_from_u64(0xF1612);
    let rows: Vec<i64> = (0..4000).map(|_| rng.gen_range(-1000..1000)).collect();
    let bounds: Vec<i64> = (0..6).map(|_| rng.gen_range(-1000..1000)).collect();
    let run = |osp: bool| -> Vec<usize> {
        let catalog = tiny_catalog(&rows);
        let config = if osp { QPipeConfig::default() } else { QPipeConfig::baseline() };
        let engine = QPipe::new(catalog, config);
        // Drain concurrently: satellites of one shared scanner must all be
        // consumed or the scanner (correctly) throttles on the slowest queue.
        let threads: Vec<_> = bounds
            .iter()
            .map(|&b| {
                let h = engine
                    .submit(PlanNode::scan_filtered("t", Expr::col(0).ge(Expr::lit(b))))
                    .unwrap();
                std::thread::spawn(move || h.try_collect().unwrap().len())
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };
    let on = run(true);
    let off = run(false);
    let expected: Vec<usize> =
        bounds.iter().map(|&b| rows.iter().filter(|&&k| k >= b).count()).collect();
    assert_eq!(on, expected, "OSP-on cardinalities");
    assert_eq!(off, expected, "OSP-off cardinalities");
}

// ---------------------------------------------------------------------------
// Vectorized sort ≡ SortIter (bit-identical, spill path included)
// ---------------------------------------------------------------------------

/// Sortable adversarial value for one key column: NULL-dense, duplicate-rich,
/// cross-type Int/Float/Date at the 2^53 exactness boundary and the i64
/// extremes — everything that distinguishes an exact `total_cmp` from a
/// lossy one.
fn arb_sort_key(rng: &mut StdRng) -> Value {
    const BIG: i64 = 1 << 53;
    match rng.gen_range(0..9) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-3..3)),
        2 => Value::Float(rng.gen_range(-3..3) as f64),
        3 => Value::Int(BIG + rng.gen_range(-1..=1)),
        4 => Value::Float((BIG + rng.gen_range(-1..=1)) as f64),
        5 => Value::Int(*[i64::MIN, i64::MAX].get(rng.gen_range(0..2)).unwrap()),
        6 => Value::Float(*[-0.0, 0.0, i64::MIN as f64].get(rng.gen_range(0..3)).unwrap()),
        7 => Value::Date(rng.gen_range(-2..3)),
        _ => Value::str(["a", "b", "ab", ""][rng.gen_range(0..4)]),
    }
}

/// The vectorized sort must produce the row-path `SortIter`'s output
/// **bit-identically** — same values, same order — over multi-key asc/desc
/// mixes, NULLs, cross-type numeric extremes, duplicate keys (stability +
/// run-index tie-break observable through the unique payload column), and a
/// tiny `sort_budget` that forces the columnar spill/merge path. `SortIter`
/// sorts in memory, so the spilling `VecSort` is held to a reference that
/// shares none of its run or merge code.
#[test]
fn vectorized_sort_is_bit_identical_to_sort_iter() {
    use qpipe::exec::iter::{SortIter, TupleIter, VecIter};
    use qpipe::exec::vsort::VecSort;
    for seed in [1u64, 7, 42, 0x50F7] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(150..400);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                vec![
                    arb_sort_key(&mut rng),
                    arb_sort_key(&mut rng),
                    Value::Int(i as i64), // unique payload exposes order
                ]
            })
            .collect();
        // 1–2 random keys, random directions, over the two key columns.
        let mut keys: Vec<SortKey> = (0..rng.gen_range(1..=2))
            .map(|c| if rng.gen_bool(0.5) { SortKey::asc(c) } else { SortKey::desc(c) })
            .collect();
        if rng.gen_bool(0.3) {
            keys.reverse();
        }
        let mut reference = Vec::new();
        let mut it = SortIter::new(Box::new(VecIter::new(rows.clone())), keys.clone());
        while let Some(t) = it.next().unwrap() {
            reference.push(t);
        }
        // usize::MAX/2 keeps the whole input in memory; 7 forces dozens of
        // spilled columnar runs through the k-way merge.
        for budget in [usize::MAX / 2, 7] {
            let catalog = qpipe::quick_system(DiskConfig::instant(), 64);
            let disk = catalog.disk().clone();
            let ctx = ExecContext::with_config(
                catalog,
                ExecConfig { sort_budget: budget, ..ExecConfig::default() },
            );
            let mut vs = VecSort::new(&keys, ctx);
            // Random batch boundaries: run cuts land mid-batch and at batch
            // edges across seeds.
            let mut at = 0;
            while at < rows.len() {
                let take = rng.gen_range(1..=40).min(rows.len() - at);
                use qpipe::common::colbatch::ColBatch;
                vs.add(&ColBatch::from_rows(&rows[at..at + take])).unwrap();
                at += take;
            }
            let mut got = Vec::new();
            vs.finish(|b| {
                got.extend(b.to_rows());
                true
            })
            .unwrap();
            assert_eq!(
                got, reference,
                "seed {seed} budget {budget}: vectorized sort diverges from SortIter"
            );
            let leaked = qpipe::exec::spill::run_files(&disk);
            assert!(leaked.is_empty(), "seed {seed}: leaked spill files {leaked:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Dictionary-coded strings: a `Str` column is a shared dictionary plus `u32`
// codes, and every operation over it must read as the strings themselves.
// ---------------------------------------------------------------------------

fn column_values(col: &qpipe::common::colbatch::Column) -> Vec<Value> {
    (0..col.len()).map(|i| col.value(i)).collect()
}

/// A `Str` column grown from pieces that each carry their own dictionary
/// over overlapping vocabularies, NULLs included, through `append`,
/// `push_slot` and `push` at random; returns it with the values it must hold.
fn arb_str_column(
    rng: &mut StdRng,
    words: &[String],
) -> (qpipe::common::colbatch::Column, Vec<Value>) {
    use qpipe::common::colbatch::{Column, ColumnBuilder};
    let vocab = rng.gen_range(1..=words.len());
    let mut builder = ColumnBuilder::new();
    let mut want = Vec::new();
    if rng.gen_bool(0.3) {
        builder.push(Value::Null); // NULLs before the column is typed
        want.push(Value::Null);
    }
    for _ in 0..rng.gen_range(1..=4) {
        let len = rng.gen_range(1..=40);
        // The first slot is a string, so no piece is all-NULL (`Mixed`).
        let vals: Vec<Value> = (0..len)
            .map(|i| {
                if i > 0 && rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::str(&words[rng.gen_range(0..vocab)])
                }
            })
            .collect();
        let piece = Column::from_values(&vals);
        match rng.gen_range(0..4) {
            0 => builder.append(&piece),
            1 => (0..piece.len()).for_each(|i| builder.push_slot(&piece, i)),
            2 => vals.iter().for_each(|v| builder.push(v.clone())),
            _ => {
                // A few rows of the piece, whose dictionary mostly outnumbers them.
                let idx: Vec<u32> =
                    (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..len as u32)).collect();
                builder.append(&piece.take(&idx));
                want.extend(idx.iter().map(|&i| vals[i as usize].clone()));
                continue;
            }
        }
        want.extend(vals);
    }
    (builder.finish(), want)
}

#[test]
fn dictionary_coded_strings_read_as_their_values() {
    use qpipe::common::colbatch::{Column, ColumnData};
    use qpipe::exec::expr::CmpOp;
    use qpipe::exec::vexpr::hash_key_column;
    let mut rng = StdRng::seed_from_u64(0xD1C7);
    let words: Vec<String> =
        (0..48).map(|i| format!("{}{i}", ["widget", "gadget", "wid", ""][i % 4])).collect();
    // Views whose dictionary outnumbers their rows, and views where it does not.
    let mut sides = [0usize; 2];
    for case in 0..300 {
        let (col, want) = arb_str_column(&mut rng, &words);
        assert_eq!(column_values(&col), want, "case {case}: append / push_slot / push");
        assert!(matches!(col.data(), ColumnData::Str { .. }), "case {case}: stays typed");
        assert_eq!(col, Column::from_values(&want), "case {case}: equal across dictionaries");

        // take, gather and slice round-trip to the same values.
        let n = col.len() as u32;
        let idx: Vec<u32> = (0..rng.gen_range(0..=12)).map(|_| rng.gen_range(0..n)).collect();
        let taken = col.take(&idx);
        let picked: Vec<Value> = idx.iter().map(|&i| want[i as usize].clone()).collect();
        assert_eq!(column_values(&taken), picked, "case {case}: take");
        let sel = SelVec::from_sorted((0..n).filter(|_| rng.gen_bool(0.3)).collect());
        let gathered: Vec<Value> = sel.iter().map(|i| want[i].clone()).collect();
        assert_eq!(column_values(&col.gather(&sel)), gathered, "case {case}: gather");
        let at = rng.gen_range(0..=want.len());
        let len = rng.gen_range(0..=want.len() - at);
        let sliced = ColBatch::from_columns(vec![col.clone()]).slice(at, len);
        assert_eq!(column_values(sliced.col(0).unwrap()), want[at..at + len], "case {case}: slice");

        // The kernels, over the whole column and over a few taken rows (whose
        // dictionary is the whole column's).
        for view in [col.clone(), taken] {
            let ColumnData::Str { dict, .. } = view.data() else { continue };
            sides[usize::from(dict.len() > view.len())] += 1;
            let vals = column_values(&view);
            // Column 1 shares the dictionary (reversed rows); column 2 has its own.
            let rev: Vec<u32> = (0..view.len() as u32).rev().collect();
            let mut shuffled = vals.clone();
            shuffled.rotate_left(usize::from(!vals.is_empty()));
            let batch = ColBatch::from_columns(vec![
                view.clone(),
                view.take(&rev),
                Column::from_values(&shuffled),
            ]);
            let word = |rng: &mut StdRng| {
                let w = &words[rng.gen_range(0..words.len())];
                Expr::Lit(Value::str(if rng.gen_bool(0.2) { format!("{w}~") } else { w.clone() }))
            };
            let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            let mut preds = Vec::new();
            for op in ops {
                let cmp = |a: Expr, b: Expr| Expr::Cmp(op, Box::new(a), Box::new(b));
                preds.push(cmp(Expr::col(0), word(&mut rng)));
                preds.push(cmp(word(&mut rng), Expr::col(0)));
                preds.push(cmp(Expr::col(0), Expr::col(1)));
                preds.push(cmp(Expr::col(1), Expr::col(2)));
            }
            let list = (0..rng.gen_range(0..4))
                .map(|_| match rng.gen_range(0..4) {
                    0 => Value::Null,
                    1 => Value::Int(3),
                    _ => Value::str(&words[rng.gen_range(0..words.len())]),
                })
                .collect();
            preds.push(Expr::In(Box::new(Expr::col(0)), list));
            for prefix in ["wid", "widget", "gad", "", "zz"] {
                preds.push(Expr::StartsWith(Box::new(Expr::col(2)), prefix.into()));
                // Under a selection the first conjunct already shrank.
                preds.push(Expr::and([
                    Expr::col(1).ne(word(&mut rng)),
                    Expr::StartsWith(Box::new(Expr::col(0)), prefix.into()),
                ]));
            }
            for pred in &preds {
                let vectorized: Vec<usize> = pred.eval_filter(&batch).unwrap().iter().collect();
                let scalar: Vec<usize> =
                    (0..batch.len()).filter(|&i| pred.eval_bool(&batch.row(i)).unwrap()).collect();
                assert_eq!(vectorized, scalar, "case {case}: {pred} over {vals:?}");
            }
            let hashes = hash_key_column(&view);
            for (i, v) in vals.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                assert_eq!(hashes[i], v.stable_hash(), "case {case}: hash of row {i}");
            }
            if let Some(i) = vals.iter().position(|v| !v.is_null()) {
                let mut other = vals.clone();
                other[i] = Value::str("not-a-word");
                assert_ne!(view, Column::from_values(&other), "case {case}: one value differs");
            }
        }
    }
    assert!(sides.iter().all(|&n| n > 50), "both sides of the size rule: {sides:?}");
}
