//! Cross-operator join parity and the vectorized-boundary acceptance bar.
//!
//! 1. Hash, merge, and block-nested-loop joins must produce identical result
//!    multisets on identical inputs — including NULL keys, duplicate keys,
//!    and cross-type Int/Float keys at the 2^53 boundary where the old lossy
//!    `i64 → f64` comparison silently merged distinct keys.
//! 2. The QPipe engine's vectorized join/agg µEngine workers must agree with
//!    the row-path iterator operators on the whole TPC-H mix.
//! 3. A TPC-H Q12-shaped join+agg plan over columnar storage must execute
//!    its probe and aggregate update over `ColBatch`es with **zero**
//!    `Vec<Tuple>` materialization between scan and agg (metrics-asserted).

use qpipe::prelude::*;
use qpipe::quick_system;
use qpipe::storage::StorageLayout;
use qpipe::workloads::tpch::{self, build_tpch_with_layout, TpchScale, MIX};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows
}

/// Adversarial join keys: NULLs, dense duplicates, and Int/Float values
/// straddling the 2^53 exactness boundary and the i64 extremes.
fn adversarial_key(rng: &mut StdRng) -> Value {
    let big = 1i64 << 53;
    match rng.gen_range(0..8) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-4..4)),
        2 => Value::Float(rng.gen_range(-4..4) as f64),
        3 => Value::Int(big + rng.gen_range(-2..=2)),
        4 => Value::Float((big + rng.gen_range(-2..=2)) as f64),
        5 => Value::Int(*[i64::MIN, i64::MAX, 0].get(rng.gen_range(0..3)).unwrap()),
        6 => Value::Float(
            *[i64::MIN as f64, i64::MAX as f64, -0.0, 0.5, (big + 1) as f64]
                .get(rng.gen_range(0..5))
                .unwrap(),
        ),
        _ => Value::Int(rng.gen_range(-4..4)),
    }
}

fn key_table(rng: &mut StdRng, n: usize, tag_base: i64) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> =
        (0..n).map(|i| vec![adversarial_key(rng), Value::Int(tag_base + i as i64)]).collect();
    // Merge join needs key-ordered inputs; NULLs sort first and are skipped
    // by every join flavor.
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    rows
}

/// Ground truth: the exact cartesian product of equal-key groups, NULLs
/// never joining, with `Value` equality (cross-type exact).
fn reference_join(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        if l[0].is_null() {
            continue;
        }
        for r in right {
            if l[0] == r[0] {
                let mut row = l.clone();
                row.extend(r.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

#[test]
fn hash_merge_bnl_join_parity_on_adversarial_keys() {
    for seed in [1u64, 7, 42, 0xBEEF] {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = key_table(&mut rng, 120, 0);
        let right = key_table(&mut rng, 90, 1000);
        let catalog = quick_system(DiskConfig::instant(), 128);
        let schema = || Schema::of(&[("k", DataType::Int), ("tag", DataType::Int)]);
        catalog.create_table("l", schema(), left.clone(), None).unwrap();
        catalog.create_table("r", schema(), right.clone(), None).unwrap();
        let ctx = ExecContext::new(catalog.clone());
        let expected = sorted(reference_join(&left, &right));
        // QPipe at its defaults, then with a build budget far below the
        // 120-row build side so the hash join goes grace.
        let small = ExecConfig { hash_budget: 64, ..ExecConfig::default() };
        let engines = [ExecConfig::default(), small].map(|exec| {
            QPipe::new(catalog.clone(), QPipeConfig { exec, ..QPipeConfig::default() })
        });

        let hash = PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0);
        let merge = PlanNode::scan("l").merge_join(PlanNode::scan("r"), 0, 0);
        let bnl = PlanNode::NestedLoopJoin {
            left: Arc::new(PlanNode::scan("l")),
            right: Arc::new(PlanNode::scan("r")),
            predicate: Expr::col(0).eq(Expr::col(2)),
        };
        for (name, plan) in [("hash", hash), ("merge", merge), ("bnl", bnl)] {
            let got = sorted(qpipe::exec::iter::run(&plan, &ctx).unwrap());
            assert_eq!(got, expected, "seed {seed}: {name} join diverges from reference");
            for (engine, grace) in engines.iter().zip([false, true]) {
                let at = format!("seed {seed}: QPipe {name} join, grace budget {grace}");
                let before = engine.metrics().snapshot();
                let got = engine.submit(plan.clone()).unwrap().try_collect();
                let got = got.unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(sorted(got), expected, "{at}");
                let delta = engine.metrics().snapshot().delta_since(&before);
                assert_eq!(delta.vec_fallbacks, u64::from(grace && name == "hash"), "{at}");
            }
        }
    }
}

/// The same adversarial inputs through the QPipe engine's vectorized hash
/// join (columnar batches from the scanner) must match the row-path
/// iterator result — and actually take the vectorized path.
#[test]
fn vectorized_hash_join_matches_row_path_on_adversarial_keys() {
    let mut rng = StdRng::seed_from_u64(0x2A53);
    let left = key_table(&mut rng, 150, 0);
    let right = key_table(&mut rng, 150, 1000);
    let catalog = quick_system(DiskConfig::instant(), 128);
    let schema = || Schema::of(&[("k", DataType::Int), ("tag", DataType::Int)]);
    catalog.create_table("l", schema(), left.clone(), None).unwrap();
    catalog.create_table("r", schema(), right.clone(), None).unwrap();
    let plan = PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0);
    let expected =
        sorted(qpipe::exec::iter::run(&plan, &ExecContext::new(catalog.clone())).unwrap());
    assert_eq!(expected, sorted(reference_join(&left, &right)));
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let got = sorted(engine.submit(plan).unwrap().try_collect().unwrap());
    assert_eq!(got, expected);
}

#[test]
fn vectorized_and_row_paths_agree_on_tpch_mix() {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, StorageLayout::Columnar).unwrap();
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    for &q in MIX.iter() {
        let plan = tpch::query(q, &mut rng);
        let reference = sorted(qpipe::exec::iter::run(&plan, &ctx).unwrap());
        let got = sorted(engine.submit(plan).unwrap().try_collect().unwrap());
        assert_eq!(got, reference, "Q{q}: vectorized µEngines diverge from row-path operators");
    }
}

/// Acceptance bar: a Q12-shaped join+agg query over columnar storage runs
/// its join probe and aggregate update entirely over `ColBatch`es — no
/// columnar batch is flattened to `Vec<Tuple>` anywhere between the scan
/// and the aggregate.
#[test]
fn q12_shape_executes_columnar_end_to_end() {
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 7, StorageLayout::Columnar).unwrap();
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());
    let mut rng = StdRng::seed_from_u64(3);
    let plan = tpch::query(12, &mut rng);
    let reference = sorted(qpipe::exec::iter::run(&plan, &ctx).unwrap());
    assert!(!reference.is_empty(), "Q12 must produce groups for the test to mean anything");

    let before = engine.metrics().snapshot();
    let got = sorted(engine.submit(plan).unwrap().try_collect().unwrap());
    assert_eq!(got, reference);
    let delta = engine.metrics().snapshot().delta_since(&before);
    assert_eq!(
        delta.col_rowified_batches, 0,
        "no ColBatch may be flattened to rows between scan and agg"
    );
    assert_eq!(delta.vec_fallbacks, 0, "nothing should fall back to the row path");
    // Column liveness: the join reads orders.[0] and lineitem.[0, 12], so the
    // scanners decode those columns only.
    assert!(delta.pruned_pages > 0, "a join plan's scans must decode only live columns");
}

/// Acceptance bar (PR 4): a Q1-shaped scan→filter→project→agg→sort pipeline
/// over columnar storage stays columnar through **every** µEngine boundary —
/// the filter runs selection-vector kernels, the projection evaluates
/// column-at-a-time, the aggregate folds columns, and not a single
/// `ColBatch` is flattened back to `Vec<Tuple>` anywhere in the plan.
#[test]
fn q1_shape_executes_columnar_end_to_end() {
    use qpipe::workloads::tpch::cols::*;
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 11, StorageLayout::Columnar).unwrap();
    let ctx = ExecContext::new(catalog.clone());
    let engine = QPipe::new(catalog, QPipeConfig::default());

    // Q1's body as explicit Filter/Project nodes (the scan carries neither,
    // so the filter and projection µEngines do the work).
    let disc_price = Expr::col(L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(L_DISCOUNT)));
    let charge = disc_price.clone().mul(Expr::lit(1.0).add(Expr::col(L_TAX)));
    let plan = PlanNode::scan("lineitem")
        .filter(Expr::col(L_SHIPDATE).le(Expr::lit(Value::Date(600))))
        .project(vec![
            Expr::col(L_RETURNFLAG),
            Expr::col(L_LINESTATUS),
            Expr::col(L_QUANTITY),
            Expr::col(L_EXTENDEDPRICE),
            disc_price,
            charge,
            Expr::col(L_DISCOUNT),
        ])
        .aggregate(
            vec![0, 1],
            vec![
                AggSpec::sum(Expr::col(2)),
                AggSpec::sum(Expr::col(3)),
                AggSpec::sum(Expr::col(4)),
                AggSpec::sum(Expr::col(5)),
                AggSpec::avg(Expr::col(2)),
                AggSpec::avg(Expr::col(3)),
                AggSpec::avg(Expr::col(6)),
                AggSpec::count_star(),
            ],
        )
        .sort(vec![SortKey::asc(0), SortKey::asc(1)]);
    let reference = qpipe::exec::iter::run(&plan, &ctx).unwrap();
    assert!(!reference.is_empty(), "Q1 shape must produce groups for the test to mean anything");

    let before = engine.metrics().snapshot();
    let got = engine.submit(plan).unwrap().try_collect().unwrap();
    assert_eq!(got, reference, "exact parity incl. ORDER BY output order");
    let delta = engine.metrics().snapshot().delta_since(&before);
    assert_eq!(
        delta.col_rowified_batches, 0,
        "no ColBatch may be flattened to rows anywhere in the plan"
    );
    assert_eq!(delta.vec_fallbacks, 0, "nothing should fall back to the row path");
}

/// ORDER BY directly over columnar operator output (no aggregate in
/// between): the sort µEngine must accumulate `ColBatch`es without
/// flattening, spill columnar runs under a tiny budget, and still match the
/// row-path engine's output bit-for-bit — order included.
#[test]
fn columnar_sort_spills_columnar_runs_and_matches_row_path() {
    use qpipe::workloads::tpch::cols::*;
    let catalog = quick_system(DiskConfig::instant(), 512);
    build_tpch_with_layout(&catalog, TpchScale::tiny(), 23, StorageLayout::Columnar).unwrap();
    let disk = catalog.disk().clone();
    let plan = PlanNode::scan("lineitem")
        .filter(Expr::col(L_QUANTITY).ge(Expr::lit(10)))
        .sort(vec![SortKey::asc(L_RETURNFLAG), SortKey::desc(L_ORDERKEY)]);
    // Tiny sort budget forces the external (spill + k-way merge) path.
    let config = QPipeConfig {
        exec: ExecConfig { sort_budget: 64, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let ctx = ExecContext::with_config(catalog.clone(), config.exec);
    let reference = qpipe::exec::iter::run(&plan, &ctx).unwrap();
    assert!(reference.len() > 256, "need multiple runs for the merge to mean anything");

    let engine = QPipe::new(catalog, config);
    let before = engine.metrics().snapshot();
    let got = engine.submit(plan).unwrap().try_collect().unwrap();
    assert_eq!(got, reference, "spilled vectorized sort must be bit-identical");
    let delta = engine.metrics().snapshot().delta_since(&before);
    assert_eq!(delta.col_rowified_batches, 0, "sort must not flatten its columnar input");
    assert_eq!(delta.vec_fallbacks, 0);
    let leaked = qpipe::exec::spill::run_files(&disk);
    assert!(leaked.is_empty(), "sort runs must delete their temp files: {leaked:?}");
}

/// Regression: a hash join whose build input is empty (here `s_suppkey < 0`
/// filters every supplier out, so the build scan never sends a batch) used
/// to fail with `join key N out of range` — the vectorized build looked the
/// key column up in a zero-column batch. An empty build side is an empty
/// join, exactly as in the iterator engine, with OSP on and off.
#[test]
fn empty_build_side_yields_empty_join() {
    let sql = "SELECT n_name, COUNT(*) FROM supplier, nation \
               WHERE s_nationkey = n_nationkey AND s_suppkey < 0 GROUP BY n_name";
    for (layout, config) in [
        (StorageLayout::Row, QPipeConfig::default()),
        (StorageLayout::Row, QPipeConfig::baseline()),
        (StorageLayout::Columnar, QPipeConfig::default()),
    ] {
        let catalog = quick_system(DiskConfig::instant(), 512);
        build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, layout).unwrap();
        let engine = QPipe::new(catalog.clone(), config);
        let planned = engine.plan_sql(sql).unwrap();
        assert!(!planned.provably_empty, "the planner must not short-circuit the join away");
        let reference =
            sorted(qpipe::exec::iter::run(&planned.plan, &ExecContext::new(catalog)).unwrap());
        assert!(reference.is_empty(), "no supplier has a negative key");
        let got = engine
            .submit_sql(sql)
            .unwrap()
            .try_collect()
            .unwrap_or_else(|e| panic!("{layout:?}, osp {}: {e}", config.osp));
        assert_eq!(sorted(got), reference, "{layout:?}, osp {}", config.osp);
    }
}

// ---------------------------------------------------------------------------
// Merge, nested-loop and grace joins and range-bounded index scans
// ---------------------------------------------------------------------------

fn uses_op(plan: &PlanNode, op: &str) -> bool {
    plan.op_name() == op || plan.children().into_iter().any(|c| uses_op(c, op))
}

fn ordered_full_scan(table: &str) -> PlanNode {
    PlanNode::ClusteredIndexScan {
        table: table.into(),
        lo: None,
        hi: None,
        predicate: None,
        projection: None,
        ordered: true,
    }
}

/// Nested-loop join, merge join with wrap restart, a range-bounded index
/// scan and the grace hash join run on batches like every other operator.
/// Whatever the page layout and with or without OSP, their results equal the
/// iterator engine's as multisets, and the counters say which path ran.
#[test]
fn join_and_range_scan_operators_match_the_iterator_engine() {
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        for osp in [true, false] {
            let at = format!("{layout:?}, osp {osp}");
            let catalog = quick_system(DiskConfig::instant(), 1024);
            build_tpch_with_layout(&catalog, TpchScale::tiny(), 42, layout).unwrap();
            let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
            let big: Vec<Tuple> =
                (0..40_000i64).map(|i| vec![Value::Int(i / 2), Value::Int(i % 7)]).collect();
            let small: Vec<Tuple> =
                (0..500i64).map(|i| vec![Value::Int(i * 31), Value::Int(i)]).collect();
            for (name, rows) in [("big", big), ("small", small)] {
                catalog.create_table_with_layout(name, kv(), rows, Some(0), layout).unwrap();
            }
            // `hash_budget` far below a 4000-row build forces the grace join.
            let exec = ExecConfig { hash_budget: 64, ..ExecConfig::default() };
            let config = QPipeConfig { osp, exec, ..QPipeConfig::default() };
            let ctx = ExecContext::with_config(catalog.clone(), config.exec);
            let engine = QPipe::new(catalog.clone(), config);
            let run_and_compare = |plan: &PlanNode, what: &str| {
                let reference = sorted(qpipe::exec::iter::run(plan, &ctx).unwrap());
                assert!(!reference.is_empty(), "{at}: {what} must have an answer");
                let before = engine.metrics().snapshot();
                let got = engine.submit(plan.clone()).unwrap().try_collect();
                let got = got.unwrap_or_else(|e| panic!("{at}: {what}: {e}"));
                assert_eq!(sorted(got), reference, "{at}: {what}");
                engine.metrics().snapshot().delta_since(&before)
            };

            // 1. A cross product as the planner emits it: nested-loop join.
            let cross = engine
                .plan_sql("SELECT n_name, r_name FROM nation, region WHERE r_regionkey = 4")
                .unwrap();
            assert!(uses_op(&cross.plan, "nljoin"), "{at}:\n{}", cross.plan.explain());
            let delta = run_and_compare(&cross.plan, "cross product");
            assert_eq!(delta.vec_fallbacks, 0, "{at}");

            // 2. Merge join over ordered scans whose big side attaches late.
            // An undrained plain scan of `big` parks its scanner mid-table (the
            // client pipe holds two batches of ≥ 1 024 rows, at most 8 pages,
            // the table far more); the merge join's
            // `split_ok` scan of `big` then attaches at `pages_read > 0`, the
            // scan wraps for it, and the join restarts at the wrap (§4.3.2).
            let pages = catalog.table("big").unwrap().num_pages().unwrap();
            assert!(pages > 1 + 8, "{at}: big must outlast a claimed page + the pipe: {pages}");
            let merge = ordered_full_scan("big")
                .merge_join(ordered_full_scan("small"), 0, 0)
                .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(1))]);
            let reference = qpipe::exec::iter::run(&merge, &ctx).unwrap();
            let before = engine.metrics().snapshot();
            let parked = engine.submit(PlanNode::scan("big")).unwrap();
            // A page is counted after it is claimed: `pages_read > 0` from here.
            while engine.metrics().snapshot().delta_since(&before).morsels_dispatched == 0 {
                std::thread::yield_now();
            }
            let joined = engine.submit(merge).unwrap();
            let drain = std::thread::spawn(move || parked.try_collect().unwrap().len());
            assert_eq!(joined.try_collect().unwrap(), reference, "{at}: merge join");
            assert_eq!(drain.join().unwrap(), 40_000, "{at}");
            let delta = engine.metrics().snapshot().delta_since(&before);
            assert_eq!(delta.osp_attaches, u64::from(osp), "{at}: the late scan rides the first");
            assert_eq!(delta.circular_wraps > 0, osp, "{at}: an attached late scan wraps");

            // 3. A range-bounded clustered index scan: the kernel reads the
            // table's pages itself.
            let range = PlanNode::ClusteredIndexScan {
                table: "big".into(),
                lo: Some(Value::Int(1_000)),
                hi: Some(Value::Int(3_000)),
                predicate: Some(Expr::col(1).ge(Expr::lit(3))),
                projection: Some(vec![1, 0]),
                ordered: true,
            };
            run_and_compare(&range, "range-bounded index scan");
            // A filtered full scan answers the same range without an index.
            let filtered = PlanNode::TableScan {
                table: "big".into(),
                predicate: Some(Expr::and([
                    Expr::col(0).ge(Expr::lit(1_000)),
                    Expr::col(0).le(Expr::lit(3_000)),
                    Expr::col(1).ge(Expr::lit(3)),
                ])),
                projection: Some(vec![1, 0]),
                ordered: false,
            };
            assert_eq!(
                sorted(qpipe::exec::iter::run(&filtered, &ctx).unwrap()),
                sorted(qpipe::exec::iter::run(&range, &ctx).unwrap()),
                "{at}: index range against a filtered scan"
            );

            // 4. Grace overflow: a 4000-row build side under a 64-row budget.
            let grace = PlanNode::scan_filtered("big", Expr::col(0).lt(Expr::lit(2_000)))
                .hash_join(PlanNode::scan("small"), 0, 0);
            let delta = run_and_compare(&grace, "grace hash join");
            assert!(delta.vec_fallbacks > 0, "{at}: the refused build must go grace");
        }
    }
}

/// A wrap on the merge join's right side: the join reads the right side only
/// as far as the left side's keys need, so a wrap past the left side's last
/// key is found only by reading on. The rows past it still join, against a
/// re-read of the left side (§4.3.2).
#[test]
fn merge_join_finds_a_wrap_past_the_last_left_key() {
    for layout in [StorageLayout::Row, StorageLayout::Columnar] {
        let catalog = quick_system(DiskConfig::instant(), 1024);
        let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let big: Vec<Tuple> =
            (0..40_000i64).map(|i| vec![Value::Int(i / 2), Value::Int(i % 7)]).collect();
        // Keys up to 9 269: far below big's last key, above where it wraps.
        let small: Vec<Tuple> =
            (0..300i64).map(|i| vec![Value::Int(i * 31), Value::Int(i)]).collect();
        for (name, rows) in [("big", big), ("small", small)] {
            catalog.create_table_with_layout(name, kv(), rows, Some(0), layout).unwrap();
        }
        let engine = QPipe::new(catalog.clone(), QPipeConfig::default());
        // `big` is the larger side, so its scan is the one that may wrap.
        let merge = ordered_full_scan("small")
            .merge_join(ordered_full_scan("big"), 0, 0)
            .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(3))]);
        let reference = qpipe::exec::iter::run(&merge, &ExecContext::new(catalog)).unwrap();
        // Park a plain scan of `big` mid-table, as the case above does.
        let before = engine.metrics().snapshot();
        let parked = engine.submit(PlanNode::scan("big")).unwrap();
        while engine.metrics().snapshot().delta_since(&before).morsels_dispatched == 0 {
            std::thread::yield_now();
        }
        let joined = engine.submit(merge).unwrap();
        let drain = std::thread::spawn(move || parked.try_collect().unwrap().len());
        assert_eq!(joined.try_collect().unwrap(), reference, "{layout:?}");
        assert_eq!(drain.join().unwrap(), 40_000, "{layout:?}");
        let delta = engine.metrics().snapshot().delta_since(&before);
        assert_eq!(delta.osp_attaches, 1, "{layout:?}: the late scan rides the first");
        assert!(delta.circular_wraps > 0, "{layout:?}: and wraps");
    }
}

/// The grace fallback (hash budget overflow → grace join) still works and
/// still agrees, end to end, when the build side blows the budget — on
/// adversarial cross-type keys.
#[test]
fn join_budget_overflow_falls_back_to_grace_and_agrees() {
    let mut rng = StdRng::seed_from_u64(99);
    let left = key_table(&mut rng, 400, 0);
    let right = key_table(&mut rng, 200, 1000);
    let catalog = quick_system(DiskConfig::instant(), 128);
    let schema = || Schema::of(&[("k", DataType::Int), ("tag", DataType::Int)]);
    catalog.create_table("l", schema(), left.clone(), None).unwrap();
    catalog.create_table("r", schema(), right.clone(), None).unwrap();
    let plan = PlanNode::scan("l").hash_join(PlanNode::scan("r"), 0, 0);
    let expected = sorted(reference_join(&left, &right));
    // Budget far below the 400-row build side forces the grace path.
    let config = QPipeConfig {
        exec: ExecConfig { hash_budget: 64, ..ExecConfig::default() },
        ..QPipeConfig::default()
    };
    let engine = QPipe::new(catalog, config);
    let before = engine.metrics().snapshot();
    let got = sorted(engine.submit(plan).unwrap().try_collect().unwrap());
    assert_eq!(got, expected);
    let delta = engine.metrics().snapshot().delta_since(&before);
    assert!(delta.vec_fallbacks > 0, "overflow must take the row/grace fallback");
}
