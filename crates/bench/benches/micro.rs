//! Criterion micro-benchmarks for the QPipe building blocks, among them:
//!
//! * the two buffer-pool replacement policies the systems run (LRU, 2Q)
//!   under a scan-heavy reference pattern,
//! * an OSP host's broadcast to 1 vs 4 outputs (the fan-out cost of
//!   simultaneous pipelining),
//! * plan-signature computation + OSP registry lookup (the per-packet cost
//!   of run-time overlap detection — the paper's "negligible overhead"),
//! * sort and hash-join kernels over the storage substrate,
//! * dictionary-coded string columns as columnar pages decode them,
//! * a selective scan delivered from the scanner to its consumer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qpipe_common::colbatch::ColBatch;
use qpipe_common::{DataType, Metrics, Schema, Tuple, Value};
use qpipe_core::deadlock::{NodeId, WaitRegistry};
use qpipe_core::host::{AttachWindow, SharedHost};
use qpipe_core::packet::{CancelToken, Packet, QueryId};
use qpipe_core::pipe::{Pipe, PipeConfig};
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::{run, ExecContext};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, PolicyKind, SimDisk};
use std::sync::Arc;

fn pool_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("bufferpool_policy");
    for policy in [PolicyKind::Lru, PolicyKind::TwoQ] {
        // Mixed pattern: repeated scans of 256 pages + a hot set of 16.
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let f = disk.create_file("t").unwrap();
        for _ in 0..256 {
            disk.append_block(f, qpipe_storage::Page::new()).unwrap();
        }
        let pool = BufferPool::new(disk, BufferPoolConfig::new(64, policy));
        g.bench_with_input(BenchmarkId::from_parameter(format!("{policy:?}")), &pool, |b, pool| {
            b.iter(|| {
                for i in 0..256u64 {
                    pool.get(f, i).unwrap();
                    if i % 4 == 0 {
                        pool.get(f, i % 16).unwrap();
                    }
                }
            })
        });
    }
    g.finish();
}

/// The engine's fan-out: an OSP host broadcasting 80 256-row batches (the
/// wire unit — a pipe carries nothing smaller) to 1 and 4 outputs, one pipe
/// per query, each drained on its own thread.
fn host_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("host_broadcast");
    let batches: Vec<ColBatch> = (0..80i64)
        .map(|b| {
            let rows: Vec<Tuple> = (0..ColBatch::DEFAULT_CAPACITY as i64)
                .map(|i| vec![Value::Int(b * ColBatch::DEFAULT_CAPACITY as i64 + i)])
                .collect();
            ColBatch::from_rows(&rows)
        })
        .collect();
    let config = PipeConfig { capacity: 64 };
    for outputs in [1u64, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(outputs), &outputs, |b, &outputs| {
            b.iter(|| {
                let reg = Arc::new(WaitRegistry::default());
                let (first, sink) = Pipe::pair(config, NodeId(1), NodeId(10), reg.clone());
                let window = Some(AttachWindow::WholeLifetime);
                let host =
                    SharedHost::new(window, 0, NodeId(1), first, "agg", Metrics::new(), None);
                let mut sinks = vec![sink];
                for i in 1..outputs {
                    let (out, sink) = Pipe::pair(config, NodeId(1), NodeId(10 + i), reg.clone());
                    let plan = Arc::new(PlanNode::scan("t"));
                    host.try_attach(Packet {
                        query: QueryId::fresh(),
                        node: NodeId(10 + i),
                        signature: plan.signature(),
                        plan,
                        output: Some(out),
                        children: Vec::new(),
                        cancel: CancelToken::new(),
                        probe: None,
                        trace: None,
                        split_side: None,
                    })
                    .expect("a fresh host takes every attach");
                    sinks.push(sink);
                }
                let handles: Vec<_> = sinks
                    .into_iter()
                    .map(|s| {
                        std::thread::spawn(move || {
                            let mut rows = 0;
                            while let Some(b) = s.recv().unwrap() {
                                rows += b.len();
                            }
                            rows
                        })
                    })
                    .collect();
                for batch in &batches {
                    host.push_cols(Arc::new(batch.clone()));
                }
                host.finish();
                handles.into_iter().map(|h| h.join().unwrap()).sum::<usize>()
            })
        });
    }
    g.finish();
}

fn signature_and_lookup(c: &mut Criterion) {
    // The OSP coordinator's per-packet costs.
    let plan = PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(10)))
        .hash_join(PlanNode::scan("orders"), 0, 0)
        .aggregate(vec![1], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))])
        .sort(vec![SortKey::asc(0)]);
    c.bench_function("plan_signature", |b| b.iter(|| std::hint::black_box(&plan).signature()));

    let registry: Arc<qpipe_core::host::ShareRegistry> =
        Arc::new(qpipe_core::host::ShareRegistry::new());
    c.bench_function("osp_registry_miss_lookup", |b| {
        let sig = plan.signature();
        b.iter(|| registry.lookup(std::hint::black_box(sig)))
    });
}

fn exec_kernels(c: &mut Criterion) {
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(2048, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);
    let n = 20_000i64;
    let rows: Vec<Tuple> =
        (0..n).map(|i| vec![Value::Int(i % 997), Value::Int(i), Value::Float(i as f64)]).collect();
    catalog
        .create_table(
            "t",
            Schema::of(&[("k", DataType::Int), ("id", DataType::Int), ("x", DataType::Float)]),
            rows,
            None,
        )
        .unwrap();
    let ctx = ExecContext::new(catalog);

    c.bench_function("sort_20k", |b| {
        let plan = PlanNode::scan("t").sort(vec![SortKey::asc(0), SortKey::desc(1)]);
        b.iter(|| run(&plan, &ctx).unwrap().len())
    });
    c.bench_function("hash_join_selfjoin_20k", |b| {
        let plan = PlanNode::scan("t").hash_join(PlanNode::scan("t"), 1, 1);
        b.iter(|| run(&plan, &ctx).unwrap().len())
    });
    c.bench_function("agg_groupby_20k", |b| {
        let plan = PlanNode::scan("t")
            .aggregate(vec![0], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))]);
        b.iter(|| run(&plan, &ctx).unwrap().len())
    });
}

/// The shared-scan hot path in microcosm: one 256-row page filtered by a
/// per-consumer predicate — row-at-a-time `eval_bool` + `Tuple` clone (the
/// pre-vectorization scanner loop) vs `eval_filter` selection vector +
/// columnar gather. The acceptance bar for the vectorized path is ≥ 2×.
fn scan_filter(c: &mut Criterion) {
    let rows: Vec<Tuple> = (0..ColBatch::DEFAULT_CAPACITY as i64)
        .map(|i| {
            vec![
                Value::Int(i % 997),
                Value::Date((i % 730) as i32),
                Value::Float(i as f64 * 0.5),
                Value::str(if i % 3 == 0 { "widget-a" } else { "gadget-b" }),
            ]
        })
        .collect();
    let cols = ColBatch::from_rows(&rows);

    // ~50% selectivity integer comparison, ~50% date range, and the
    // conjunctive mix the fig12 random-predicate workload generates.
    let preds = [
        ("int_cmp", Expr::col(0).ge(Expr::lit(499))),
        (
            "date_cmp",
            Expr::Cmp(
                qpipe_exec::expr::CmpOp::Lt,
                Box::new(Expr::col(1)),
                Box::new(Expr::Lit(Value::Date(365))),
            ),
        ),
        (
            "conj_mix",
            Expr::and([
                Expr::col(0).ge(Expr::lit(200)),
                Expr::col(1).lt(Expr::lit(600)),
                Expr::StartsWith(Box::new(Expr::col(3)), "widget".into()),
            ]),
        ),
    ];

    let mut g = c.benchmark_group("scan_filter");
    for (name, pred) in &preds {
        g.bench_function(&format!("rowwise_{name}"), |b| {
            b.iter(|| {
                // The old scanner inner loop: per-tuple interpret + clone.
                let mut out: Vec<Tuple> = Vec::new();
                for t in &rows {
                    if pred.eval_bool(t).unwrap_or(false) {
                        out.push(t.clone());
                    }
                }
                out.len()
            })
        });
        g.bench_function(&format!("vectorized_{name}"), |b| {
            b.iter(|| {
                // The new scanner inner loop: kernel filter + gather.
                let sel = pred.eval_filter(&cols).unwrap();
                cols.gather(&sel).len()
            })
        });
    }
    g.finish();
}

/// The per-page cost the columnar page store removes: decoding one full
/// 256-row page for the shared scanner. `slotted_decode` is the tuple path
/// (tag-parsing tuple codec + column-ification); the columnar path
/// materializes the same `ColBatch` straight from the PAX page's typed byte
/// regions. Acceptance bar: columnar ≥ 3× faster. The `slotted_*lineitem*`
/// and `slotted_cols_*` trio measures what row tables pay per page visit
/// (CI: `slotted_cols_q6` ≤ ½ × `slotted_decode_lineitem`);
/// `slotted_resident_q6` what a visit to a resident row page pays.
fn page_decode(c: &mut Criterion) {
    use qpipe_storage::colpage::ColPageBuilder;
    use qpipe_storage::page::{encode_tuple, Page};

    let n = ColBatch::DEFAULT_CAPACITY; // 256 rows — one page in both layouts
    let schema =
        Schema::of(&[("k", DataType::Int), ("d", DataType::Date), ("mode", DataType::Str)]);
    let rows: Vec<Tuple> = (0..n as i64)
        .map(|i| {
            vec![
                Value::Int(i % 997),
                Value::Date((i % 730) as i32),
                Value::str(if i % 3 == 0 { "widget-a" } else { "gadget-b" }),
            ]
        })
        .collect();

    let mut slotted = Page::new();
    let mut buf = Vec::new();
    for r in &rows {
        buf.clear();
        encode_tuple(r, &mut buf);
        slotted.append_record(&buf).expect("256 rows fit one slotted page");
    }
    let mut builder = ColPageBuilder::new(&schema);
    for r in &rows {
        builder.append(r).expect("256 rows fit one columnar page");
    }
    let columnar = builder.finish();
    assert_eq!(slotted.num_records(), n);
    assert_eq!(columnar.num_rows(), n);

    let mut g = c.benchmark_group("page_decode");
    g.bench_function("slotted_decode", |b| {
        b.iter(|| {
            // The tuple path: tuple codec, then column-ify.
            let tuples = slotted.decode_tuples().unwrap();
            ColBatch::from_rows(&tuples).len()
        })
    });
    g.bench_function("columnar_materialize", |b| {
        b.iter(|| {
            // Columnar-table scanner per-page cost: bulk region reads.
            columnar.decode().unwrap().len()
        })
    });
    // What a `mix_io` scan decodes per page miss: a lineitem page. The tip
    // path built tuples and column-ified all 14 columns; the scanner now
    // decodes records straight into the live columns — all of them, or
    // Q6's four (quantity, extendedprice, discount, shipdate).
    let (_, lineitem) = lineitem_pages();
    g.bench_function("slotted_decode_lineitem", |b| {
        b.iter(|| ColBatch::from_rows(&lineitem.decode_tuples().unwrap()).len())
    });
    g.bench_function("slotted_cols_full", |b| b.iter(|| lineitem.decode_cols(None).unwrap().len()));
    g.bench_function("slotted_cols_q6", |b| {
        b.iter(|| lineitem.decode_cols(Some(&[3, 4, 5, 9])).unwrap().len())
    });
    // What a scan of a resident row table pays per page: a pool hit, then
    // Q6's columns from the frame. The page was read twice first — the
    // miss installs the frame, the first hit fills its cache — so each
    // iteration is a hit whose columns are `Arc` bumps.
    let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
    let file = disk.create_file("lineitem").unwrap();
    disk.append_block(file, lineitem).unwrap();
    let pool = BufferPool::new(disk, BufferPoolConfig::new(4, PolicyKind::Lru));
    for _ in 0..2 {
        pool.get(file, 0).unwrap().decode(Some(&[3, 4, 5, 9])).unwrap();
    }
    g.bench_function("slotted_resident_q6", |b| {
        b.iter(|| pool.get(file, 0).unwrap().decode(Some(&[3, 4, 5, 9])).unwrap().len())
    });
    g.finish();
}

/// One lineitem-shaped page in each layout: the 14 TPC-H columns with the
/// value shapes the mix's loader writes, as many rows as fit one slotted
/// page (≈ 62).
fn lineitem_pages() -> (qpipe_storage::ColPage, qpipe_storage::Page) {
    use qpipe_storage::colpage::ColPageBuilder;
    use qpipe_storage::page::{encode_tuple, Page};
    use qpipe_workloads::tpch::{RETURN_FLAGS, SHIPMODES};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let schema = Schema::of(&[
        ("l_orderkey", DataType::Int),
        ("l_partkey", DataType::Int),
        ("l_suppkey", DataType::Int),
        ("l_quantity", DataType::Int),
        ("l_extendedprice", DataType::Float),
        ("l_discount", DataType::Float),
        ("l_tax", DataType::Float),
        ("l_returnflag", DataType::Str),
        ("l_linestatus", DataType::Str),
        ("l_shipdate", DataType::Date),
        ("l_commitdate", DataType::Date),
        ("l_receiptdate", DataType::Date),
        ("l_shipmode", DataType::Str),
        ("l_comment", DataType::Str),
    ]);
    let mut rng = StdRng::seed_from_u64(24);
    let mut slotted = Page::new();
    let mut builder = ColPageBuilder::new(&schema);
    let mut buf = Vec::new();
    for okey in 0.. {
        let ship = rng.gen_range(0..2400);
        let row = vec![
            Value::Int(okey / 4),
            Value::Int(rng.gen_range(0..2000)),
            Value::Int(rng.gen_range(0..100)),
            Value::Int(rng.gen_range(1..=50)),
            Value::Float(rng.gen_range(900.0..105_000.0)),
            Value::Float((rng.gen_range(0..=10) as f64) / 100.0),
            Value::Float((rng.gen_range(0..=8) as f64) / 100.0),
            Value::str(RETURN_FLAGS[rng.gen_range(0..RETURN_FLAGS.len())]),
            Value::str(if rng.gen_bool(0.5) { "O" } else { "F" }),
            Value::Date(ship),
            Value::Date(ship + rng.gen_range(-60..60)),
            Value::Date(ship + rng.gen_range(1..=30)),
            Value::str(SHIPMODES[rng.gen_range(0..SHIPMODES.len())]),
            Value::str("lineitem-comment-padding-pad"),
        ];
        buf.clear();
        encode_tuple(&row, &mut buf);
        if !slotted.fits(buf.len()) {
            break;
        }
        slotted.append_record(&buf).expect("checked by fits");
        builder.append(&row).expect("a slotted page's rows fit one columnar page");
    }
    (builder.finish(), slotted)
}

/// What every page miss pays before it decodes: verifying the page checksum
/// sealed at write time (word-at-a-time FNV-1a over the payload, plus the
/// slot directory on a slotted page).
fn page_verify(c: &mut Criterion) {
    let (columnar, mut slotted) = lineitem_pages();
    slotted.seal();
    let mut g = c.benchmark_group("page_verify");
    g.bench_function("slotted", |b| b.iter(|| std::hint::black_box(&slotted).verify_checksum()));
    g.bench_function("columnar", |b| b.iter(|| std::hint::black_box(&columnar).verify_checksum()));
    g.finish();
}

/// The join/agg operator boundary: the row path ingests tuples one at a
/// time (the iterator engine's kernels, the test oracle's), the vectorized path
/// consumes the same data as 256-row `ColBatch`es (what the scanner actually
/// produces). Same build/probe and group/update work, same results — the
/// difference is the per-row materialization the vectorized operators
/// removed. Acceptance bar: vectorized ≥ 2× on both groups.
fn hash_join_paths(c: &mut Criterion) {
    use qpipe_exec::iter::{HashJoinIter, TupleIter, VecIter};
    use qpipe_exec::viter::HashJoinBuild;

    let left_n = 4096i64;
    let right_n = 16_384i64;
    let left: Vec<Tuple> = (0..left_n)
        .map(|i| vec![Value::Int(i % 512), Value::Int(i), Value::str("build-pay")])
        .collect();
    let right: Vec<Tuple> = (0..right_n)
        .map(|i| vec![Value::Int(i % 2048), Value::Float(i as f64), Value::str("probe-pay")])
        .collect();
    let chunk = ColBatch::DEFAULT_CAPACITY;
    let left_batches: Vec<ColBatch> = left.chunks(chunk).map(ColBatch::from_rows).collect();
    let right_batches: Vec<ColBatch> = right.chunks(chunk).map(ColBatch::from_rows).collect();

    let mut g = c.benchmark_group("hash_join");
    g.bench_function("rowwise_build_probe", |b| {
        b.iter(|| {
            let mut it = HashJoinIter::new(
                Box::new(VecIter::new(left.clone())),
                Box::new(VecIter::new(right.clone())),
                0,
                0,
            );
            let mut n = 0usize;
            while it.next().unwrap().is_some() {
                n += 1;
            }
            n
        })
    });
    g.bench_function("vectorized_build_probe", |b| {
        b.iter(|| {
            let mut build = HashJoinBuild::new(0);
            for batch in &left_batches {
                build.add(batch).unwrap();
            }
            let table = build.finish().unwrap();
            let mut n = 0usize;
            for batch in &right_batches {
                table.probe(batch, 0, chunk, |out| n += out.len()).unwrap();
            }
            n
        })
    });
    // The build side of Q8's and Q12's top join: 8 000 `orders` rows
    // (orderkey, custkey, orderdate, orderpriority) frozen into a table.
    let orders: Vec<ColBatch> = (0..8_000i64)
        .map(|i| {
            vec![
                Value::Int(i * 4),
                Value::Int(i % 800),
                Value::Date((i % 2400) as i32),
                Value::str(
                    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"][i as usize % 5],
                ),
            ]
        })
        .collect::<Vec<Tuple>>()
        .chunks(chunk)
        .map(ColBatch::from_rows)
        .collect();
    g.bench_function("build_8000", |b| {
        b.iter(|| {
            let mut build = HashJoinBuild::new(0);
            for batch in &orders {
                build.add(batch).unwrap();
            }
            build.finish().unwrap().build_rows()
        })
    });
    g.finish();
}

/// Strings as dictionary codes, where the engine meets them: in batches
/// decoded from columnar pages. `take_filter_drop` is Q19's shape — a join
/// probe's `take` of two `Str` columns over 31 823 rows of one page whose
/// dictionaries hold 25 values each, an equality filter over both, and the
/// drop. `q1_keys_page_dict` is Q1's group-by with its keys decoded from
/// columnar pages (one dictionary per page), where
/// `agg_update/q1_shape_vectorized` builds a fresh string per row.
fn str_column(c: &mut Criterion) {
    use qpipe_exec::viter::HashAgg;
    use qpipe_storage::colpage::ColPageBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(19);
    let sizes = ["SM", "MED", "LG", "JUMBO", "WRAP"];
    let kinds = ["CASE", "BOX", "PACK", "PKG", "BAG"];
    let brands: Vec<String> =
        (0..25).map(|i| format!("Brand#{}{}", i / 5 + 1, i % 5 + 1)).collect();
    let containers: Vec<String> =
        (0..25).map(|i| format!("{} {}", sizes[i / 5], kinds[i % 5])).collect();
    let schema = Schema::of(&[("p_brand", DataType::Str), ("p_container", DataType::Str)]);
    let mut builder = ColPageBuilder::new(&schema);
    loop {
        let row = vec![
            Value::str(&brands[rng.gen_range(0..25)]),
            Value::str(&containers[rng.gen_range(0..25)]),
        ];
        if !builder.fits(&row) {
            break;
        }
        builder.append(&row).expect("checked by fits");
    }
    let page = builder.finish().decode().expect("a fresh page decodes");
    let idx: Vec<u32> = (0..31_823).map(|_| rng.gen_range(0..page.len() as u32)).collect();
    let pred = Expr::and([
        Expr::col(0).eq(Expr::Lit(Value::str("Brand#12"))),
        Expr::col(1).eq(Expr::Lit(Value::str("SM CASE"))),
    ]);

    let (rows, aggs) = q1_shape();
    let schema = Schema::of(&[
        ("l_quantity", DataType::Float),
        ("l_extendedprice", DataType::Float),
        ("l_discount", DataType::Float),
        ("l_tax", DataType::Float),
        ("l_returnflag", DataType::Str),
        ("l_linestatus", DataType::Str),
    ]);
    let mut builder = ColPageBuilder::new(&schema);
    let mut pages = Vec::new();
    for row in &rows {
        if !builder.fits(row) {
            pages.push(builder.finish());
        }
        builder.append(row).expect("a row fits an empty page");
    }
    pages.push(builder.finish());
    let batches: Vec<Arc<ColBatch>> =
        pages.iter().map(|p| Arc::new(p.decode().expect("a fresh page decodes"))).collect();

    let mut g = c.benchmark_group("str_column");
    g.bench_function("take_filter_drop", |b| {
        b.iter(|| {
            let taken = page.take(&idx);
            pred.eval_filter(&taken).unwrap().len()
        })
    });
    g.bench_function("q1_keys_page_dict", |b| {
        b.iter(|| {
            let mut agg = HashAgg::new(vec![4, 5], aggs.clone());
            for batch in &batches {
                agg.update_cols(batch).unwrap();
            }
            agg.finish().len()
        })
    });
    g.finish();
}

/// TPC-H Q1's aggregate over 32 768 rows: two low-cardinality `Str` keys (six
/// groups, columns 4 and 5), eight aggregates, two of them over arithmetic.
/// Columns: quantity, price, discount, tax, returnflag, linestatus.
fn q1_shape() -> (Vec<Tuple>, Vec<AggSpec>) {
    let rows = (0..32_768i64)
        .map(|i| {
            vec![
                Value::Float((i % 50 + 1) as f64),
                Value::Float(900.0 + (i % 9973) as f64 * 1.25),
                Value::Float((i % 11) as f64 * 0.01),
                Value::Float((i % 9) as f64 * 0.01),
                Value::str(["A", "N", "R"][(i % 3) as usize]),
                Value::str(["F", "O"][(i % 2) as usize]),
            ]
        })
        .collect();
    let disc_price = Expr::col(1).mul(Expr::lit(1.0).sub(Expr::col(2)));
    let aggs = vec![
        AggSpec::sum(Expr::col(0)),
        AggSpec::sum(Expr::col(1)),
        AggSpec::sum(disc_price.clone()),
        AggSpec::sum(disc_price.mul(Expr::lit(1.0).add(Expr::col(3)))),
        AggSpec::avg(Expr::col(0)),
        AggSpec::avg(Expr::col(1)),
        AggSpec::avg(Expr::col(2)),
        AggSpec::count_star(),
    ];
    (rows, aggs)
}

fn agg_update_paths(c: &mut Criterion) {
    use qpipe_exec::iter::{AggregateIter, TupleIter, VecIter};
    use qpipe_exec::viter::HashAgg;

    let n = 32_768i64;
    // One `Int` key, plain column inputs: the shape the documented "row →
    // vectorized ≈ 2.5×" was measured on. No mix template runs it.
    let plain_rows: Vec<Tuple> = (0..n)
        .map(|i| vec![Value::Int(i % 64), Value::Int(i), Value::Float(i as f64 * 0.25)])
        .collect();
    let plain_aggs = vec![
        AggSpec::count_star(),
        AggSpec::sum(Expr::col(2)),
        AggSpec::min(Expr::col(1)),
        AggSpec::avg(Expr::col(2)),
    ];
    let (q1_rows, q1_aggs) = q1_shape();
    // TPC-H Q13's first aggregate: `count(*) group by custkey` — 8 000
    // joined rows, 800 `Int` groups.
    let q13_rows: Vec<Tuple> =
        (0..8_000i64).map(|i| vec![Value::Int((i * 7919) % 800), Value::Int(i)]).collect();

    let mut g = c.benchmark_group("agg_update");
    for (rowwise, vectorized, rows, group_by, aggs) in [
        ("rowwise_groupby", "vectorized_groupby", &plain_rows, vec![0], plain_aggs),
        ("q1_shape_rowwise", "q1_shape_vectorized", &q1_rows, vec![4, 5], q1_aggs),
        (
            "high_card_rowwise",
            "high_card_vectorized",
            &q13_rows,
            vec![0],
            vec![AggSpec::count_star()],
        ),
    ] {
        let batches: Vec<ColBatch> =
            rows.chunks(ColBatch::DEFAULT_CAPACITY).map(ColBatch::from_rows).collect();
        g.bench_function(rowwise, |b| {
            b.iter(|| {
                let input = Box::new(VecIter::new(rows.clone()));
                let mut it = AggregateIter::new(input, group_by.clone(), aggs.clone());
                let mut out = 0usize;
                while it.next().unwrap().is_some() {
                    out += 1;
                }
                out
            })
        });
        g.bench_function(vectorized, |b| {
            b.iter(|| {
                let mut agg = HashAgg::new(group_by.clone(), aggs.clone());
                for batch in &batches {
                    agg.update_cols(batch).unwrap();
                }
                agg.finish().len()
            })
        });
    }
    g.finish();
}

/// The sort operator boundary: `SortIter` ingests tuples one at a time and
/// sorts them in memory; `VecSort` accumulates the same data as 256-row
/// `ColBatch`es, sorts a key-column permutation, and gathers payload once.
/// `vectorized_spill` runs `VecSort` under a budget that spills columnar
/// runs and k-way merges them; the row path never spills, so it has no
/// spill variant. Acceptance bar: `vectorized_inmem` ≥ 1.4× `rowwise_inmem`
/// (measured ~1.6×; the payload-gather-once structure, not the comparator,
/// is the win — and in the engine the vectorized path additionally skips
/// the row-bridge flattening this harness cannot charge to the row side).
fn sort_paths(c: &mut Criterion) {
    use qpipe_exec::iter::{SortIter, TupleIter, VecIter};
    use qpipe_exec::vsort::VecSort;

    let n = 32_768i64;
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            vec![
                Value::Int((i * 2_654_435_761) % 997),
                Value::Int(i % 13),
                Value::Float(i as f64 * 0.25),
                Value::str("sort-payload"),
            ]
        })
        .collect();
    let batches: Vec<ColBatch> =
        rows.chunks(ColBatch::DEFAULT_CAPACITY).map(ColBatch::from_rows).collect();
    let keys = vec![SortKey::asc(0), SortKey::desc(1)];

    let ctx_with_budget = |budget: usize| {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
        ExecContext::with_config(
            Catalog::new(disk, pool),
            qpipe_exec::iter::ExecConfig {
                sort_budget: budget,
                ..qpipe_exec::iter::ExecConfig::default()
            },
        )
    };

    let mut g = c.benchmark_group("sort_run");
    g.bench_function("rowwise_inmem", |b| {
        b.iter(|| {
            let mut it = SortIter::new(Box::new(VecIter::new(rows.clone())), keys.clone());
            let mut out = 0usize;
            while it.next().unwrap().is_some() {
                out += 1;
            }
            out
        })
    });
    for (label, budget) in [("inmem", usize::MAX / 2), ("spill", 4096)] {
        let ctx = ctx_with_budget(budget);
        g.bench_function(&format!("vectorized_{label}"), |b| {
            b.iter(|| {
                let mut vs = VecSort::new(&keys, ctx.clone());
                for batch in &batches {
                    vs.add(batch).unwrap();
                }
                let mut out = 0usize;
                vs.finish(|b| {
                    out += b.len();
                    true
                })
                .unwrap();
                out
            })
        });
    }
    g.finish();
}

/// The filter and projection kernels: the iterator engine interprets the
/// predicate/projection per row; the staged engine's reader of a fused
/// σ/π chain runs `eval_filter` + `gather` and `project_batch` per 256-row
/// `ColBatch`.
/// Acceptance bar: vectorized ≥ 1.4× (measured ~1.7× with a computed
/// projection column; pure column-reference projections are `Arc` bumps and
/// score far higher).
fn filter_project_paths(c: &mut Criterion) {
    use qpipe_common::colbatch::SelVec;
    use qpipe_exec::vexpr::project_batch;

    let n = 32_768i64;
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i % 997),
                Value::Float(i as f64 * 0.5),
                Value::Date((i % 730) as i32),
                Value::str(if i % 3 == 0 { "widget-a" } else { "gadget-b" }),
            ]
        })
        .collect();
    let batches: Vec<ColBatch> =
        rows.chunks(ColBatch::DEFAULT_CAPACITY).map(ColBatch::from_rows).collect();
    let pred = Expr::and([Expr::col(0).ge(Expr::lit(200)), Expr::col(2).lt(Expr::lit(600))]);
    let exprs = vec![Expr::col(3), Expr::col(0), Expr::col(1).mul(Expr::lit(2.0))];

    let mut g = c.benchmark_group("filter_project");
    g.bench_function("rowwise", |b| {
        b.iter(|| {
            // The old Filter→Project worker pair: per-tuple interpret + clone.
            let mut out = 0usize;
            for t in &rows {
                if pred.eval_bool(t).unwrap() {
                    let mut row = Vec::with_capacity(exprs.len());
                    for e in &exprs {
                        row.push(e.eval(t).unwrap());
                    }
                    out += row.len();
                }
            }
            out
        })
    });
    g.bench_function("vectorized", |b| {
        b.iter(|| {
            // The fused σ/π kernels: selection-vector filter, compacting
            // gather, column-at-a-time projection.
            let mut out = 0usize;
            for batch in &batches {
                let sel = pred.eval_filter(batch).unwrap();
                if sel.is_empty() {
                    continue;
                }
                let filtered = batch.gather(&sel);
                let projected =
                    project_batch(&exprs, &filtered, &SelVec::all(filtered.len())).unwrap();
                out += projected.len() * projected.num_cols();
            }
            out
        })
    });
    // TPC-H Q14's projection: `volume * (p_type LIKE 'widget%')` and
    // `volume`, volume = price * (1 - discount) — arithmetic over two
    // columns and a literal, with a boolean node used as a number.
    let volume = Expr::col(1).mul(Expr::lit(1.0).sub(Expr::col(0).mul(Expr::lit(0.0001))));
    let promo = Expr::StartsWith(Box::new(Expr::col(3)), "widget".into());
    let arith = vec![volume.clone().mul(promo), volume];
    g.bench_function("arith_rowwise", |b| {
        b.iter(|| {
            let mut out = 0usize;
            for t in &rows {
                let row: Tuple = arith.iter().map(|e| e.eval(t).unwrap()).collect();
                out += row.len();
            }
            out
        })
    });
    g.bench_function("arith_vectorized", |b| {
        b.iter(|| {
            let mut out = 0usize;
            for batch in &batches {
                let projected = project_batch(&arith, batch, &SelVec::all(batch.len())).unwrap();
                out += projected.len() * projected.num_cols();
            }
            out
        })
    });
    g.finish();
}

/// A selective scan delivered end to end: `ScanManager` over an in-memory
/// columnar table of 100 000 rows, a 5 %-selective predicate (`m = 0`, one
/// row in twenty on every page), drained by one thread. Each iteration pays
/// the scanner's per-page kernels and every batch's hand-off to the
/// draining thread.
fn scan_deliver(c: &mut Criterion) {
    use qpipe_core::scan::{ScanManager, ScanRequest};
    let metrics = Metrics::new();
    let disk = SimDisk::new(DiskConfig::instant(), metrics.clone());
    let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(512, PolicyKind::Lru));
    let catalog = Catalog::new(disk, pool);
    catalog
        .create_table_with_layout(
            "t",
            Schema::of(&[("k", DataType::Int), ("m", DataType::Int)]),
            (0..100_000).map(|i| vec![Value::Int(i), Value::Int(i % 20)]).collect(),
            Some(0),
            qpipe_storage::StorageLayout::Columnar,
        )
        .unwrap();
    let mgr = ScanManager::new(ExecContext::new(catalog), true, metrics);
    let predicate = Expr::col(1).eq(Expr::lit(0));
    let mut g = c.benchmark_group("scan_deliver");
    g.bench_function("sparse_count", |b| {
        b.iter(|| {
            let reg = Arc::new(WaitRegistry::default());
            let (output, rows) = Pipe::pair(PipeConfig::default(), NodeId(1), NodeId(2), reg);
            mgr.submit(ScanRequest {
                table: "t".into(),
                predicate: Some(predicate.clone()),
                projection: Some(vec![0]),
                output,
                ordered: false,
                split_ok: false,
                probe: None,
                trace: None,
            })
            .unwrap();
            let mut n = 0;
            while let Some(batch) = rows.recv().unwrap() {
                n += batch.len();
            }
            assert_eq!(n, 5_000);
            n
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = pool_policies, host_fanout, signature_and_lookup, exec_kernels, scan_filter,
        page_decode, page_verify, hash_join_paths, agg_update_paths, sort_paths, filter_project_paths,
        str_column, scan_deliver
}
criterion_main!(benches);
