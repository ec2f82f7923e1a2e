//! Scaled TPC-H-style dataset and query plans.
//!
//! The paper runs a 4 GB TPC-H database generated by dbgen, with selection
//! predicates randomized by qgen so that "multiple clients do not run
//! identical queries at the same time" (§5.3). This module is the scaled
//! substitute: the same seven tables the eight benchmark
//! queries touch, with deterministic pseudo-random content whose value
//! distributions drive the same plan shapes and selectivities, at a size
//! configurable via [`TpchScale`].
//!
//! Dates are days since 1992-01-01, spanning seven years (0..=2557) like
//! dbgen's order/ship dates.

use qpipe_common::{DataType, QResult, Schema, Tuple, Value};
use qpipe_exec::expr::Expr;
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use qpipe_storage::{Catalog, StorageLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Dataset size knobs. Lineitem ends up ≈ 4 × orders rows.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    pub orders: usize,
    pub customers: usize,
    pub parts: usize,
    pub suppliers: usize,
}

impl TpchScale {
    /// Small scale for unit tests (fast, still multi-page).
    pub fn tiny() -> Self {
        Self { orders: 1500, customers: 150, parts: 200, suppliers: 20 }
    }

    /// Default experiment scale (a LINEITEM scan takes tens of paper-seconds
    /// at the default disk/time profile).
    pub fn experiment() -> Self {
        Self { orders: 8000, customers: 800, parts: 1000, suppliers: 100 }
    }
}

impl Default for TpchScale {
    fn default() -> Self {
        Self::experiment()
    }
}

pub const DATE_MAX: i32 = 2557; // 7 years of days

pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
pub const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
pub const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
pub const TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "PROMO BURNISHED COPPER",
    "PROMO PLATED BRASS",
    "STANDARD POLISHED TIN",
    "MEDIUM BRUSHED NICKEL",
    "SMALL PLATED COPPER",
];
pub const BRANDS: [&str; 5] = ["Brand#11", "Brand#23", "Brand#34", "Brand#45", "Brand#52"];
pub const CONTAINERS: [&str; 4] = ["SM CASE", "MED BOX", "LG CASE", "JUMBO PKG"];
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
pub const NATIONS: [&str; 10] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
];

/// Column indexes, by table, for readable plan-building code.
pub mod cols {
    // lineitem
    pub const L_ORDERKEY: usize = 0;
    pub const L_PARTKEY: usize = 1;
    pub const L_SUPPKEY: usize = 2;
    pub const L_QUANTITY: usize = 3;
    pub const L_EXTENDEDPRICE: usize = 4;
    pub const L_DISCOUNT: usize = 5;
    pub const L_TAX: usize = 6;
    pub const L_RETURNFLAG: usize = 7;
    pub const L_LINESTATUS: usize = 8;
    pub const L_SHIPDATE: usize = 9;
    pub const L_COMMITDATE: usize = 10;
    pub const L_RECEIPTDATE: usize = 11;
    pub const L_SHIPMODE: usize = 12;
    pub const L_COMMENT: usize = 13;
    pub const L_WIDTH: usize = 14;
    // orders
    pub const O_ORDERKEY: usize = 0;
    pub const O_CUSTKEY: usize = 1;
    pub const O_TOTALPRICE: usize = 2;
    pub const O_ORDERDATE: usize = 3;
    pub const O_ORDERPRIORITY: usize = 4;
    pub const O_COMMENT: usize = 5;
    pub const O_WIDTH: usize = 6;
    // customer
    pub const C_CUSTKEY: usize = 0;
    pub const C_NATIONKEY: usize = 1;
    pub const C_NAME: usize = 2;
    pub const C_WIDTH: usize = 3;
    // part
    pub const P_PARTKEY: usize = 0;
    pub const P_BRAND: usize = 1;
    pub const P_TYPE: usize = 2;
    pub const P_SIZE: usize = 3;
    pub const P_CONTAINER: usize = 4;
    pub const P_COMMENT: usize = 5;
    pub const P_WIDTH: usize = 6;
    // supplier
    pub const S_SUPPKEY: usize = 0;
    pub const S_NATIONKEY: usize = 1;
    pub const S_WIDTH: usize = 2;
    // nation
    pub const N_NATIONKEY: usize = 0;
    pub const N_NAME: usize = 1;
    pub const N_REGIONKEY: usize = 2;
    pub const N_WIDTH: usize = 3;
    // region
    pub const R_REGIONKEY: usize = 0;
    pub const R_NAME: usize = 1;
    pub const R_WIDTH: usize = 2;
}

fn lineitem_schema() -> Schema {
    Schema::of(&[
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
    ])
}

fn orders_schema() -> Schema {
    Schema::of(&[
        ("o_orderkey", DataType::Int),
        ("o_custkey", DataType::Int),
        ("o_totalprice", DataType::Float),
        ("o_orderdate", DataType::Date),
        ("o_orderpriority", DataType::Str),
        ("o_comment", DataType::Str),
    ])
}

/// Populate `catalog` with the seven tables in the row layout. Orders and
/// lineitem are stored sorted on their order key (clustered), as the paper's
/// merge-join plans require ("the base relations are already sorted on a
/// joining key").
pub fn build_tpch(catalog: &Arc<Catalog>, scale: TpchScale, seed: u64) -> QResult<()> {
    build_tpch_with_layout(catalog, scale, seed, StorageLayout::Row)
}

/// Populate `catalog` with the seven tables in an explicit page layout.
/// `StorageLayout::Columnar` stores every table as PAX-style columnar pages,
/// so scans (shared-circular and iterator alike) materialize `ColBatch`es
/// straight from page bytes instead of running the row codec. Identical
/// data, identical query results — only the physical layout differs.
pub fn build_tpch_with_layout(
    catalog: &Arc<Catalog>,
    scale: TpchScale,
    seed: u64,
    layout: StorageLayout,
) -> QResult<()> {
    let mut rng = StdRng::seed_from_u64(seed);

    // region / nation / supplier / customer / part: small dimensions.
    let region: Vec<Tuple> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| vec![Value::Int(i as i64), Value::str(*name)])
        .collect();
    catalog.create_table_with_layout(
        "region",
        Schema::of(&[("r_regionkey", DataType::Int), ("r_name", DataType::Str)]),
        region,
        Some(0),
        layout,
    )?;

    let nation: Vec<Tuple> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![Value::Int(i as i64), Value::str(*name), Value::Int((i % REGIONS.len()) as i64)]
        })
        .collect();
    catalog.create_table_with_layout(
        "nation",
        Schema::of(&[
            ("n_nationkey", DataType::Int),
            ("n_name", DataType::Str),
            ("n_regionkey", DataType::Int),
        ]),
        nation,
        Some(0),
        layout,
    )?;

    let supplier: Vec<Tuple> = (0..scale.suppliers)
        .map(|i| vec![Value::Int(i as i64), Value::Int(rng.gen_range(0..NATIONS.len() as i64))])
        .collect();
    catalog.create_table_with_layout(
        "supplier",
        Schema::of(&[("s_suppkey", DataType::Int), ("s_nationkey", DataType::Int)]),
        supplier,
        Some(0),
        layout,
    )?;

    let customer: Vec<Tuple> = (0..scale.customers)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..NATIONS.len() as i64)),
                Value::str(format!("Customer#{i:09}")),
            ]
        })
        .collect();
    catalog.create_table_with_layout(
        "customer",
        Schema::of(&[
            ("c_custkey", DataType::Int),
            ("c_nationkey", DataType::Int),
            ("c_name", DataType::Str),
        ]),
        customer,
        Some(0),
        layout,
    )?;

    let part: Vec<Tuple> = (0..scale.parts)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::str(BRANDS[rng.gen_range(0..BRANDS.len())]),
                Value::str(TYPES[rng.gen_range(0..TYPES.len())]),
                Value::Int(rng.gen_range(1..=50)),
                Value::str(CONTAINERS[rng.gen_range(0..CONTAINERS.len())]),
                Value::str(format!("part-{i:08}-padding-padding")),
            ]
        })
        .collect();
    catalog.create_table_with_layout(
        "part",
        Schema::of(&[
            ("p_partkey", DataType::Int),
            ("p_brand", DataType::Str),
            ("p_type", DataType::Str),
            ("p_size", DataType::Int),
            ("p_container", DataType::Str),
            ("p_comment", DataType::Str),
        ]),
        part,
        Some(0),
        layout,
    )?;

    // orders + lineitem: the big facts.
    let mut orders = Vec::with_capacity(scale.orders);
    let mut lineitem = Vec::with_capacity(scale.orders * 4);
    for okey in 0..scale.orders as i64 {
        let odate = rng.gen_range(0..=DATE_MAX - 200);
        orders.push(vec![
            Value::Int(okey),
            Value::Int(rng.gen_range(0..scale.customers.max(1) as i64)),
            Value::Float(rng.gen_range(1000.0..500_000.0)),
            Value::Date(odate),
            Value::str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            Value::str("order-comment-padding-padding-padding"),
        ]);
        let lines = rng.gen_range(1..=7);
        for _ in 0..lines {
            let ship = odate + rng.gen_range(1..=121);
            let commit = odate + rng.gen_range(30..=90);
            let receipt = ship + rng.gen_range(1..=30);
            lineitem.push(vec![
                Value::Int(okey),
                Value::Int(rng.gen_range(0..scale.parts.max(1) as i64)),
                Value::Int(rng.gen_range(0..scale.suppliers.max(1) as i64)),
                Value::Int(rng.gen_range(1..=50)),
                Value::Float(rng.gen_range(900.0..105_000.0)),
                Value::Float((rng.gen_range(0..=10) as f64) / 100.0),
                Value::Float((rng.gen_range(0..=8) as f64) / 100.0),
                Value::str(RETURN_FLAGS[rng.gen_range(0..RETURN_FLAGS.len())]),
                Value::str(if rng.gen_bool(0.5) { "O" } else { "F" }),
                Value::Date(ship),
                Value::Date(commit),
                Value::Date(receipt),
                Value::str(SHIPMODES[rng.gen_range(0..SHIPMODES.len())]),
                Value::str("lineitem-comment-padding-pad"),
            ]);
        }
    }
    catalog.create_table_with_layout(
        "orders",
        orders_schema(),
        orders,
        Some(cols::O_ORDERKEY),
        layout,
    )?;
    catalog.create_table_with_layout(
        "lineitem",
        lineitem_schema(),
        lineitem,
        Some(cols::L_ORDERKEY),
        layout,
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Query plans (qgen equivalents)
// ---------------------------------------------------------------------------

use cols::*;

/// Which TPC-H queries the paper's mix uses.
pub const MIX: [u32; 8] = [1, 4, 6, 8, 12, 13, 14, 19];

/// Build query `q` (from [`MIX`]) with qgen-style randomized parameters.
pub fn query(q: u32, rng: &mut StdRng) -> PlanNode {
    match q {
        1 => q1(rng.gen_range(60..=120)),
        4 => q4(rng.gen_range(0..=DATE_MAX - 300), JoinFlavor::Hash),
        6 => q6(
            rng.gen_range(0..=DATE_MAX - 365),
            (rng.gen_range(2..=9) as f64) / 100.0,
            rng.gen_range(24..=50),
        ),
        8 => q8(rng.gen_range(0..REGIONS.len() as i64), TYPES[rng.gen_range(0..TYPES.len())]),
        12 => q12(
            SHIPMODES[rng.gen_range(0..SHIPMODES.len())],
            SHIPMODES[rng.gen_range(0..SHIPMODES.len())],
            rng.gen_range(0..=DATE_MAX - 365),
        ),
        13 => q13(),
        14 => q14(rng.gen_range(0..=DATE_MAX - 30)),
        19 => q19(
            BRANDS[rng.gen_range(0..BRANDS.len())],
            BRANDS[rng.gen_range(0..BRANDS.len())],
            rng.gen_range(1..=20),
        ),
        other => panic!("query {other} is not in the paper's mix"),
    }
}

/// How Q4's order/lineitem join is implemented (Figures 9 vs 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinFlavor {
    /// Merge join over ordered clustered index scans (Figure 9).
    Merge,
    /// Hybrid hash join over unordered scans (Figure 11, §5.3 mix).
    Hash,
}

/// Q1: pricing summary report. Scan LINEITEM, filter on shipdate, group by
/// returnflag/linestatus with the full aggregate battery.
pub fn q1(delta_days: i32) -> PlanNode {
    let disc_price = Expr::col(L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(L_DISCOUNT)));
    let charge = disc_price.clone().mul(Expr::lit(1.0).add(Expr::col(L_TAX)));
    PlanNode::scan_filtered(
        "lineitem",
        Expr::col(L_SHIPDATE).le(Expr::lit(Value::Date(DATE_MAX - delta_days))),
    )
    .aggregate(
        vec![L_RETURNFLAG, L_LINESTATUS],
        vec![
            AggSpec::sum(Expr::col(L_QUANTITY)),
            AggSpec::sum(Expr::col(L_EXTENDEDPRICE)),
            AggSpec::sum(disc_price),
            AggSpec::sum(charge),
            AggSpec::avg(Expr::col(L_QUANTITY)),
            AggSpec::avg(Expr::col(L_EXTENDEDPRICE)),
            AggSpec::avg(Expr::col(L_DISCOUNT)),
            AggSpec::count_star(),
        ],
    )
}

/// Q3 (shape): shipping priority. CUSTOMER ⋈ ORDERS ⋈ LINEITEM — a nation
/// filter stands in for TPC-H's market segment (our customer table carries
/// none) — revenue per undelivered order as of `date`. Not part of the
/// paper's mix; this is the 3-way-join shape the SQL front end is
/// parity-checked against (see [`crate::sql::q3_sql`]).
pub fn q3(nation: i64, date: i32) -> PlanNode {
    let cust = PlanNode::scan_filtered("customer", Expr::col(C_NATIONKEY).eq(Expr::lit(nation)));
    let ord =
        PlanNode::scan_filtered("orders", Expr::col(O_ORDERDATE).lt(Expr::lit(Value::Date(date))));
    let li =
        PlanNode::scan_filtered("lineitem", Expr::col(L_SHIPDATE).gt(Expr::lit(Value::Date(date))));
    let co = cust.hash_join(ord, C_CUSTKEY, O_CUSTKEY);
    // Layout: customer(3) ++ orders(6).
    let all = co.hash_join(li, C_WIDTH + O_ORDERKEY, L_ORDERKEY);
    // Layout: customer(3) ++ orders(6) ++ lineitem(14).
    let l_base = C_WIDTH + O_WIDTH;
    let revenue =
        Expr::col(l_base + L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(l_base + L_DISCOUNT)));
    all.aggregate(vec![C_WIDTH + O_ORDERKEY, C_WIDTH + O_ORDERDATE], vec![AggSpec::sum(revenue)])
        .sort(vec![SortKey::desc(2)])
}

/// Q4: order priority checking. ORDERS ⋈ LINEITEM (commit < receipt),
/// group by priority. `flavor` picks merge join (ordered index scans) or
/// hybrid hash join (unordered scans) — the two variants §5 contrasts.
pub fn q4(date_lo: i32, flavor: JoinFlavor) -> PlanNode {
    let lineitem_pred = Expr::col(L_COMMITDATE).lt(Expr::col(L_RECEIPTDATE));
    let orders_pred = Expr::and([
        Expr::col(O_ORDERDATE).ge(Expr::lit(Value::Date(date_lo))),
        Expr::col(O_ORDERDATE).lt(Expr::lit(Value::Date(date_lo + 90))),
    ]);
    // Priority ends up at joined position O_WIDTH-independent: orders columns
    // first (join build side), so priority = O_ORDERPRIORITY.
    match flavor {
        JoinFlavor::Hash => PlanNode::scan_filtered("orders", orders_pred)
            .hash_join(PlanNode::scan_filtered("lineitem", lineitem_pred), O_ORDERKEY, L_ORDERKEY)
            .aggregate(vec![O_ORDERPRIORITY], vec![AggSpec::count_star()])
            .sort(vec![SortKey::asc(0)]),
        JoinFlavor::Merge => {
            let orders = PlanNode::ClusteredIndexScan {
                table: "orders".into(),
                lo: None,
                hi: None,
                predicate: Some(orders_pred),
                projection: None,
                ordered: true,
            };
            let lineitem = PlanNode::ClusteredIndexScan {
                table: "lineitem".into(),
                lo: None,
                hi: None,
                predicate: Some(lineitem_pred),
                projection: None,
                ordered: true,
            };
            orders
                .merge_join(lineitem, O_ORDERKEY, L_ORDERKEY)
                .aggregate(vec![O_ORDERPRIORITY], vec![AggSpec::count_star()])
                .sort(vec![SortKey::asc(0)])
        }
    }
}

/// Q5 (shape): local supplier volume. The full 6-way join — REGION ⋈ NATION
/// ⋈ SUPPLIER ⋈ LINEITEM ⋈ ORDERS ⋈ CUSTOMER — with the extra
/// `c_nationkey = s_nationkey` equality applied as a post-join filter.
/// Revenue per nation for one region and one order-date year. Front-end
/// parity shape (see [`crate::sql::q5_sql`]).
pub fn q5(region: &str, date_lo: i32) -> PlanNode {
    let reg = PlanNode::scan_filtered("region", Expr::col(R_NAME).eq(Expr::lit(region)));
    let rn = reg.hash_join(PlanNode::scan("nation"), R_REGIONKEY, N_REGIONKEY);
    // Layout: region(2) ++ nation(3).
    let n_base = R_WIDTH;
    let rns = rn.hash_join(PlanNode::scan("supplier"), n_base + N_NATIONKEY, S_NATIONKEY);
    // Layout: ... ++ supplier(2).
    let s_base = n_base + N_WIDTH;
    let rnsl = rns.hash_join(PlanNode::scan("lineitem"), s_base + S_SUPPKEY, L_SUPPKEY);
    // Layout: ... ++ lineitem(14).
    let l_base = s_base + S_WIDTH;
    let ord = PlanNode::scan_filtered(
        "orders",
        Expr::and([
            Expr::col(O_ORDERDATE).ge(Expr::lit(Value::Date(date_lo))),
            Expr::col(O_ORDERDATE).lt(Expr::lit(Value::Date(date_lo + 365))),
        ]),
    );
    let rnslo = rnsl.hash_join(ord, l_base + L_ORDERKEY, O_ORDERKEY);
    // Layout: ... ++ orders(6).
    let o_base = l_base + L_WIDTH;
    let all = rnslo.hash_join(PlanNode::scan("customer"), o_base + O_CUSTKEY, C_CUSTKEY);
    // Layout: ... ++ customer(3).
    let c_base = o_base + O_WIDTH;
    let revenue =
        Expr::col(l_base + L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(l_base + L_DISCOUNT)));
    all.filter(Expr::col(c_base + C_NATIONKEY).eq(Expr::col(s_base + S_NATIONKEY)))
        .aggregate(vec![n_base + N_NAME], vec![AggSpec::sum(revenue)])
        .sort(vec![SortKey::desc(1)])
}

/// Q6: forecasting revenue change. Pure LINEITEM scan + single aggregate —
/// "99% of execution time is spent performing an unordered table scan of
/// LINEITEM" (§5.1.1).
pub fn q6(year_start: i32, discount: f64, qty: i64) -> PlanNode {
    PlanNode::scan_filtered(
        "lineitem",
        Expr::and([
            Expr::col(L_SHIPDATE).ge(Expr::lit(Value::Date(year_start))),
            Expr::col(L_SHIPDATE).lt(Expr::lit(Value::Date(year_start + 365))),
            Expr::col(L_DISCOUNT).ge(Expr::lit(discount - 0.011)),
            Expr::col(L_DISCOUNT).le(Expr::lit(discount + 0.011)),
            Expr::col(L_QUANTITY).lt(Expr::lit(qty)),
        ]),
    )
    .aggregate(vec![], vec![AggSpec::sum(Expr::col(L_EXTENDEDPRICE).mul(Expr::col(L_DISCOUNT)))])
}

/// Q8: national market share (simplified to the same table-access pattern:
/// PART ⋈ LINEITEM ⋈ ORDERS ⋈ CUSTOMER ⋈ NATION ⋈ REGION, volume summed per
/// order year).
pub fn q8(region: i64, ptype: &str) -> PlanNode {
    let part = PlanNode::scan_filtered("part", Expr::col(P_TYPE).eq(Expr::lit(ptype)));
    // part ⋈ lineitem on partkey.
    let pl = part.hash_join(PlanNode::scan("lineitem"), P_PARTKEY, L_PARTKEY);
    // Joined layout: part(6) ++ lineitem(14). Orderkey = 6 + L_ORDERKEY.
    let pl_orderkey = P_WIDTH + L_ORDERKEY;
    let plo = PlanNode::scan("orders").hash_join(pl, O_ORDERKEY, pl_orderkey);
    // Layout: orders(6) ++ part(6) ++ lineitem(14). custkey = O_CUSTKEY.
    let cust = PlanNode::scan("customer");
    let ploc = cust.hash_join(plo, C_CUSTKEY, O_CUSTKEY);
    // Layout: customer(3) ++ orders ++ part ++ lineitem.
    let nation = PlanNode::scan("nation");
    let plocn = nation.hash_join(ploc, N_NATIONKEY, C_NATIONKEY);
    // Layout: nation(3) ++ customer(3) ++ orders(6) ++ part(6) ++ lineitem(14).
    let region_plan =
        PlanNode::scan_filtered("region", Expr::col(R_REGIONKEY).eq(Expr::lit(region)));
    let all = region_plan.hash_join(plocn, R_REGIONKEY, N_REGIONKEY);
    // Layout: region(2) ++ nation(3) ++ customer(3) ++ orders(6) ++ part(6) ++ lineitem(14).
    let o_date = 2 + 3 + 3 + O_ORDERDATE;
    let l_base = 2 + 3 + 3 + O_WIDTH + P_WIDTH;
    let volume =
        Expr::col(l_base + L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(l_base + L_DISCOUNT)));
    // Group by order year (date / 365).
    all.project(vec![
        Expr::Arith(
            qpipe_exec::expr::ArithOp::Div,
            Box::new(Expr::col(o_date)),
            Box::new(Expr::lit(365)),
        ),
        volume,
    ])
    .aggregate(vec![0], vec![AggSpec::sum(Expr::col(1))])
}

/// Q10 (shape): returned item reporting. CUSTOMER ⋈ ORDERS ⋈ LINEITEM ⋈
/// NATION, returned lines only, one quarter of order dates, revenue per
/// customer. Front-end parity shape (see [`crate::sql::q10_sql`]).
pub fn q10(date_lo: i32) -> PlanNode {
    let ord = PlanNode::scan_filtered(
        "orders",
        Expr::and([
            Expr::col(O_ORDERDATE).ge(Expr::lit(Value::Date(date_lo))),
            Expr::col(O_ORDERDATE).lt(Expr::lit(Value::Date(date_lo + 90))),
        ]),
    );
    let co = PlanNode::scan("customer").hash_join(ord, C_CUSTKEY, O_CUSTKEY);
    // Layout: customer(3) ++ orders(6).
    let li = PlanNode::scan_filtered("lineitem", Expr::col(L_RETURNFLAG).eq(Expr::lit("R")));
    let col = co.hash_join(li, C_WIDTH + O_ORDERKEY, L_ORDERKEY);
    // Layout: customer(3) ++ orders(6) ++ lineitem(14).
    let l_base = C_WIDTH + O_WIDTH;
    let all = col.hash_join(PlanNode::scan("nation"), C_NATIONKEY, N_NATIONKEY);
    // Layout: ... ++ nation(3).
    let n_base = l_base + L_WIDTH;
    let revenue =
        Expr::col(l_base + L_EXTENDEDPRICE).mul(Expr::lit(1.0).sub(Expr::col(l_base + L_DISCOUNT)));
    all.aggregate(vec![C_CUSTKEY, C_NAME, n_base + N_NAME], vec![AggSpec::sum(revenue)])
        .sort(vec![SortKey::desc(3)])
}

/// Q12: shipping modes and delivery priority. ORDERS ⋈ LINEITEM (filtered on
/// shipmode + date sanity), group by shipmode.
pub fn q12(mode1: &str, mode2: &str, year_start: i32) -> PlanNode {
    let l_pred = Expr::and([
        Expr::In(Box::new(Expr::col(L_SHIPMODE)), vec![Value::str(mode1), Value::str(mode2)]),
        Expr::col(L_COMMITDATE).lt(Expr::col(L_RECEIPTDATE)),
        Expr::col(L_SHIPDATE).lt(Expr::col(L_COMMITDATE)),
        Expr::col(L_RECEIPTDATE).ge(Expr::lit(Value::Date(year_start))),
        Expr::col(L_RECEIPTDATE).lt(Expr::lit(Value::Date(year_start + 365))),
    ]);
    PlanNode::scan("orders")
        .hash_join(PlanNode::scan_filtered("lineitem", l_pred), O_ORDERKEY, L_ORDERKEY)
        .aggregate(vec![O_WIDTH + L_SHIPMODE], vec![AggSpec::count_star()])
        .sort(vec![SortKey::asc(0)])
}

/// Q13: customer distribution — orders per customer, then distribution of
/// counts.
pub fn q13() -> PlanNode {
    PlanNode::scan("customer")
        .hash_join(PlanNode::scan("orders"), C_CUSTKEY, O_CUSTKEY)
        // customer(3) ++ orders(6); count orders per custkey...
        .aggregate(vec![C_CUSTKEY], vec![AggSpec::count_star()])
        // ...then how many customers share each order count.
        .aggregate(vec![1], vec![AggSpec::count_star()])
        .sort(vec![SortKey::desc(1), SortKey::desc(0)])
}

/// Q14: promotion effect. PART ⋈ LINEITEM (one month of shipdates); ratio of
/// promo revenue to total revenue.
pub fn q14(month_start: i32) -> PlanNode {
    let l_pred = Expr::and([
        Expr::col(L_SHIPDATE).ge(Expr::lit(Value::Date(month_start))),
        Expr::col(L_SHIPDATE).lt(Expr::lit(Value::Date(month_start + 30))),
    ]);
    let joined = PlanNode::scan("part").hash_join(
        PlanNode::scan_filtered("lineitem", l_pred),
        P_PARTKEY,
        L_PARTKEY,
    );
    // Layout: part(6) ++ lineitem(14).
    let volume = Expr::col(P_WIDTH + L_EXTENDEDPRICE)
        .mul(Expr::lit(1.0).sub(Expr::col(P_WIDTH + L_DISCOUNT)));
    let promo = Expr::StartsWith(Box::new(Expr::col(P_TYPE)), "PROMO".into());
    joined
        .project(vec![volume.clone().mul(promo), volume])
        .aggregate(vec![], vec![AggSpec::sum(Expr::col(0)), AggSpec::sum(Expr::col(1))])
}

/// Q19: discounted revenue. PART ⋈ LINEITEM with a disjunction of
/// brand/container/quantity conjuncts.
pub fn q19(brand1: &str, brand2: &str, qty: i64) -> PlanNode {
    let joined = PlanNode::scan("part").hash_join(PlanNode::scan("lineitem"), P_PARTKEY, L_PARTKEY);
    // Layout: part(6) ++ lineitem(14).
    let lq = P_WIDTH + L_QUANTITY;
    let pred = Expr::or([
        Expr::and([
            Expr::col(P_BRAND).eq(Expr::lit(brand1)),
            Expr::col(P_CONTAINER).eq(Expr::lit("SM CASE")),
            Expr::col(lq).ge(Expr::lit(qty)),
            Expr::col(lq).le(Expr::lit(qty + 10)),
            Expr::col(P_SIZE).le(Expr::lit(5)),
        ]),
        Expr::and([
            Expr::col(P_BRAND).eq(Expr::lit(brand2)),
            Expr::col(P_CONTAINER).eq(Expr::lit("MED BOX")),
            Expr::col(lq).ge(Expr::lit(qty + 10)),
            Expr::col(lq).le(Expr::lit(qty + 20)),
            Expr::col(P_SIZE).le(Expr::lit(10)),
        ]),
    ]);
    let volume = Expr::col(P_WIDTH + L_EXTENDEDPRICE)
        .mul(Expr::lit(1.0).sub(Expr::col(P_WIDTH + L_DISCOUNT)));
    joined.filter(pred).aggregate(vec![], vec![AggSpec::sum(volume)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Metrics;
    use qpipe_exec::iter::{run, ExecContext};
    use qpipe_storage::{BufferPool, BufferPoolConfig, DiskConfig, PolicyKind, SimDisk};

    fn catalog() -> Arc<Catalog> {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(512, PolicyKind::Lru));
        let c = Catalog::new(disk, pool);
        build_tpch(&c, TpchScale::tiny(), 42).unwrap();
        c
    }

    #[test]
    fn builder_creates_all_tables() {
        let c = catalog();
        assert_eq!(
            c.table_names(),
            vec!["customer", "lineitem", "nation", "orders", "part", "region", "supplier"]
        );
        let li = c.table("lineitem").unwrap();
        assert!(li.num_tuples() >= 1500, "≈4 lines per order");
        assert!(li.clustered.is_some(), "lineitem clustered on orderkey");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = catalog();
        let b = catalog();
        assert_eq!(
            a.table("orders").unwrap().num_tuples(),
            b.table("orders").unwrap().num_tuples()
        );
        let ctx_a = ExecContext::new(a);
        let ctx_b = ExecContext::new(b);
        let q = q6(100, 0.05, 30);
        assert_eq!(run(&q, &ctx_a).unwrap(), run(&q, &ctx_b).unwrap());
    }

    #[test]
    fn all_mix_queries_execute() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let mut rng = StdRng::seed_from_u64(7);
        for q in MIX {
            let plan = query(q, &mut rng);
            let rows = run(&plan, &ctx).unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
            // Aggregation queries always produce at least one row... except
            // group-bys over empty inputs; just check execution succeeded and
            // single-agg queries produced exactly one row.
            if matches!(q, 6 | 14 | 19) {
                assert_eq!(rows.len(), 1, "Q{q} single aggregate row");
            }
        }
    }

    #[test]
    fn q1_group_count_bounded() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let rows = run(&q1(90), &ctx).unwrap();
        assert!(!rows.is_empty() && rows.len() <= 6, "≤ 3 flags × 2 statuses");
        // sum(qty) positive.
        assert!(rows.iter().all(|r| r[2].as_float().unwrap() > 0.0));
    }

    #[test]
    fn q4_merge_and_hash_agree() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let h = run(&q4(500, JoinFlavor::Hash), &ctx).unwrap();
        let m = run(&q4(500, JoinFlavor::Merge), &ctx).unwrap();
        assert_eq!(h, m, "both Q4 flavors must agree");
        assert!(!h.is_empty());
    }

    #[test]
    fn q6_selectivity_sane() {
        let c = catalog();
        let ctx = ExecContext::new(c.clone());
        let full = c.table("lineitem").unwrap().num_tuples();
        let rows = run(
            &PlanNode::scan_filtered(
                "lineitem",
                Expr::col(L_SHIPDATE).ge(Expr::lit(Value::Date(0))),
            ),
            &ctx,
        )
        .unwrap();
        assert_eq!(rows.len() as u64, full, "date filter at 0 keeps everything");
    }

    #[test]
    fn parity_shapes_execute() {
        let c = catalog();
        let ctx = ExecContext::new(c);
        let r3 = run(&q3(3, 1200), &ctx).unwrap();
        assert!(!r3.is_empty(), "Q3 shape returns revenue rows");
        let r5 = run(&q5("ASIA", 400), &ctx).unwrap();
        assert!(r5.len() <= NATIONS.len(), "Q5 groups by nation");
        let r10 = run(&q10(800), &ctx).unwrap();
        assert!(!r10.is_empty(), "Q10 shape returns customer rows");
        // Sorted descending by the revenue column.
        for (rows, rev_col) in [(&r3, 2), (&r5, 1), (&r10, 3)] {
            for w in rows.windows(2) {
                assert!(w[0][rev_col].as_float().unwrap() >= w[1][rev_col].as_float().unwrap());
            }
        }
    }

    #[test]
    fn q8_join_chain_produces_rows() {
        // Regression: the joined-layout width constants once excluded the
        // trailing comment columns, which made Q8's second join compare
        // o_orderkey against p_comment and return nothing.
        let c = catalog();
        let ctx = ExecContext::new(c);
        let rows = run(&q8(2, TYPES[0]), &ctx).unwrap();
        assert!(!rows.is_empty(), "Q8 must join through to order years");
    }

    #[test]
    fn q13_distribution_totals_match_customers_with_orders() {
        let c = catalog();
        let ctx = ExecContext::new(c.clone());
        let rows = run(&q13(), &ctx).unwrap();
        let customers_counted: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        // Every customer with ≥1 order appears exactly once.
        let with_orders = run(
            &PlanNode::scan("orders").aggregate(vec![O_CUSTKEY], vec![AggSpec::count_star()]),
            &ctx,
        )
        .unwrap()
        .len() as i64;
        assert_eq!(customers_counted, with_orders);
    }
}
