//! SQL text for the query front end.
//!
//! The paper's clients submit precompiled plans; with the `qpipe-planner`
//! front end they can submit *text* instead — and real clients never phrase
//! the same logical query identically. This module generates TPC-H-shaped
//! SQL as a structured [`SqlQuery`] (projection + FROM list + conjuncts)
//! that renders either canonically ([`SqlQuery::canonical`]) or through a
//! seeded phrasing shuffler ([`SqlQuery::shuffled`]): FROM order, conjunct
//! order, and comparison direction are all randomized, plus the occasional
//! redundant `1 = 1`. Every rendering is the same logical query, so the
//! canonicalizing planner lands all of them on one plan signature — the
//! property `tests/planner.rs` and the planner fuzz check.

use crate::tpch::{BRANDS, DATE_MAX, NATIONS, REGIONS, SHIPMODES};
use qpipe_exec::expr::CmpOp;
use rand::rngs::StdRng;
use rand::Rng;

/// One WHERE conjunct.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `lhs op rhs` — commutable by mirroring the operator.
    Cmp { lhs: String, op: CmpOp, rhs: String },
    /// Anything without a mirrored form (`IN`, `LIKE`, OR-groups).
    Raw(String),
}

impl Pred {
    /// Convenience constructor for the common comparison case.
    pub fn cmp(lhs: impl Into<String>, op: CmpOp, rhs: impl Into<String>) -> Pred {
        Pred::Cmp { lhs: lhs.into(), op, rhs: rhs.into() }
    }

    fn render(&self, commute: bool) -> String {
        match self {
            Pred::Cmp { lhs, op, rhs } if commute => {
                format!("{rhs} {} {lhs}", op.mirror())
            }
            Pred::Cmp { lhs, op, rhs } => format!("{lhs} {op} {rhs}"),
            Pred::Raw(s) => s.clone(),
        }
    }
}

/// A SQL query held in pieces so phrasing can vary without changing meaning.
#[derive(Debug, Clone)]
pub struct SqlQuery {
    /// SELECT items, in output order (fixed — output order is meaning).
    pub select: Vec<String>,
    /// FROM entries as `(table, alias)`.
    pub from: Vec<(String, String)>,
    /// WHERE conjuncts, ANDed.
    pub predicates: Vec<Pred>,
    /// GROUP BY column references.
    pub group_by: Vec<String>,
    /// ORDER BY items (already including ASC/DESC).
    pub order_by: Vec<String>,
}

impl SqlQuery {
    /// The canonical rendering: declared FROM order, declared conjunct
    /// order, un-commuted comparisons.
    pub fn canonical(&self) -> String {
        self.render(self.from.clone(), self.predicates.iter().map(|p| p.render(false)).collect())
    }

    /// A random equivalent phrasing: shuffled FROM list, shuffled conjuncts,
    /// each comparison commuted by coin flip, sometimes a redundant `1 = 1`.
    /// Deterministic in `rng`.
    pub fn shuffled(&self, rng: &mut StdRng) -> String {
        let mut from = self.from.clone();
        shuffle(&mut from, rng);
        let mut preds: Vec<String> =
            self.predicates.iter().map(|p| p.render(rng.gen_bool(0.5))).collect();
        if rng.gen_bool(0.3) {
            preds.push("1 = 1".to_string());
        }
        shuffle(&mut preds, rng);
        self.render(from, preds)
    }

    fn render(&self, from: Vec<(String, String)>, preds: Vec<String>) -> String {
        let mut s = format!("SELECT {} FROM ", self.select.join(", "));
        let tables: Vec<String> =
            from.iter().map(|(t, a)| if t == a { t.clone() } else { format!("{t} {a}") }).collect();
        s.push_str(&tables.join(", "));
        if !preds.is_empty() {
            s.push_str(" WHERE ");
            s.push_str(&preds.join(" AND "));
        }
        if !self.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            s.push_str(&self.group_by.join(", "));
        }
        if !self.order_by.is_empty() {
            s.push_str(" ORDER BY ");
            s.push_str(&self.order_by.join(", "));
        }
        s
    }
}

/// Fisher–Yates over the shim RNG.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn table(name: &str, alias: &str) -> (String, String) {
    (name.to_string(), alias.to_string())
}

// ---------------------------------------------------------------------------
// TPC-H query text, matching the plan builders in `crate::tpch`
// ---------------------------------------------------------------------------

/// Q1 text, equivalent to [`crate::tpch::q1`].
pub fn q1_sql(delta_days: i32) -> SqlQuery {
    SqlQuery {
        select: vec![
            "l_returnflag".into(),
            "l_linestatus".into(),
            "SUM(l_quantity)".into(),
            "SUM(l_extendedprice)".into(),
            "SUM(l_extendedprice * (1.0 - l_discount))".into(),
            "SUM(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax))".into(),
            "AVG(l_quantity)".into(),
            "AVG(l_extendedprice)".into(),
            "AVG(l_discount)".into(),
            "COUNT(*)".into(),
        ],
        from: vec![table("lineitem", "lineitem")],
        predicates: vec![Pred::cmp(
            "l_shipdate",
            CmpOp::Le,
            format!("DATE {}", crate::tpch::DATE_MAX - delta_days),
        )],
        group_by: vec!["l_returnflag".into(), "l_linestatus".into()],
        order_by: vec![],
    }
}

/// Q3-shape text, equivalent to [`crate::tpch::q3`].
pub fn q3_sql(nation: i64, date: i32) -> SqlQuery {
    SqlQuery {
        select: vec![
            "o.o_orderkey".into(),
            "o.o_orderdate".into(),
            "SUM(l.l_extendedprice * (1.0 - l.l_discount)) AS revenue".into(),
        ],
        from: vec![table("customer", "c"), table("orders", "o"), table("lineitem", "l")],
        predicates: vec![
            Pred::cmp("c.c_custkey", CmpOp::Eq, "o.o_custkey"),
            Pred::cmp("o.o_orderkey", CmpOp::Eq, "l.l_orderkey"),
            Pred::cmp("c.c_nationkey", CmpOp::Eq, nation.to_string()),
            Pred::cmp("o.o_orderdate", CmpOp::Lt, format!("DATE {date}")),
            Pred::cmp("l.l_shipdate", CmpOp::Gt, format!("DATE {date}")),
        ],
        group_by: vec!["o.o_orderkey".into(), "o.o_orderdate".into()],
        order_by: vec!["revenue DESC".into()],
    }
}

/// Q4 text, equivalent to [`crate::tpch::q4`] (hash flavor).
pub fn q4_sql(date_lo: i32) -> SqlQuery {
    SqlQuery {
        select: vec!["o_orderpriority".into(), "COUNT(*)".into()],
        from: vec![table("orders", "orders"), table("lineitem", "lineitem")],
        predicates: vec![
            Pred::cmp("o_orderkey", CmpOp::Eq, "l_orderkey"),
            Pred::cmp("o_orderdate", CmpOp::Ge, format!("DATE {date_lo}")),
            Pred::cmp("o_orderdate", CmpOp::Lt, format!("DATE {}", date_lo + 90)),
            Pred::cmp("l_commitdate", CmpOp::Lt, "l_receiptdate"),
        ],
        group_by: vec!["o_orderpriority".into()],
        order_by: vec!["o_orderpriority".into()],
    }
}

/// Q5-shape text, equivalent to [`crate::tpch::q5`].
pub fn q5_sql(region: &str, date_lo: i32) -> SqlQuery {
    SqlQuery {
        select: vec![
            "n.n_name".into(),
            "SUM(l.l_extendedprice * (1.0 - l.l_discount)) AS revenue".into(),
        ],
        from: vec![
            table("customer", "c"),
            table("orders", "o"),
            table("lineitem", "l"),
            table("supplier", "s"),
            table("nation", "n"),
            table("region", "r"),
        ],
        predicates: vec![
            Pred::cmp("c.c_custkey", CmpOp::Eq, "o.o_custkey"),
            Pred::cmp("l.l_orderkey", CmpOp::Eq, "o.o_orderkey"),
            Pred::cmp("l.l_suppkey", CmpOp::Eq, "s.s_suppkey"),
            Pred::cmp("c.c_nationkey", CmpOp::Eq, "s.s_nationkey"),
            Pred::cmp("s.s_nationkey", CmpOp::Eq, "n.n_nationkey"),
            Pred::cmp("n.n_regionkey", CmpOp::Eq, "r.r_regionkey"),
            Pred::cmp("r.r_name", CmpOp::Eq, format!("'{region}'")),
            Pred::cmp("o.o_orderdate", CmpOp::Ge, format!("DATE {date_lo}")),
            Pred::cmp("o.o_orderdate", CmpOp::Lt, format!("DATE {}", date_lo + 365)),
        ],
        group_by: vec!["n.n_name".into()],
        order_by: vec!["revenue DESC".into()],
    }
}

/// Q6 text, equivalent to [`crate::tpch::q6`].
pub fn q6_sql(year_start: i32, discount: f64, qty: i64) -> SqlQuery {
    SqlQuery {
        select: vec!["SUM(l_extendedprice * l_discount)".into()],
        from: vec![table("lineitem", "lineitem")],
        predicates: vec![
            Pred::cmp("l_shipdate", CmpOp::Ge, format!("DATE {year_start}")),
            Pred::cmp("l_shipdate", CmpOp::Lt, format!("DATE {}", year_start + 365)),
            Pred::cmp("l_discount", CmpOp::Ge, format!("{:?}", discount - 0.011)),
            Pred::cmp("l_discount", CmpOp::Le, format!("{:?}", discount + 0.011)),
            Pred::cmp("l_quantity", CmpOp::Lt, qty.to_string()),
        ],
        group_by: vec![],
        order_by: vec![],
    }
}

/// Q10-shape text, equivalent to [`crate::tpch::q10`].
pub fn q10_sql(date_lo: i32) -> SqlQuery {
    SqlQuery {
        select: vec![
            "c.c_custkey".into(),
            "c.c_name".into(),
            "n.n_name".into(),
            "SUM(l.l_extendedprice * (1.0 - l.l_discount)) AS revenue".into(),
        ],
        from: vec![
            table("customer", "c"),
            table("orders", "o"),
            table("lineitem", "l"),
            table("nation", "n"),
        ],
        predicates: vec![
            Pred::cmp("c.c_custkey", CmpOp::Eq, "o.o_custkey"),
            Pred::cmp("l.l_orderkey", CmpOp::Eq, "o.o_orderkey"),
            Pred::cmp("c.c_nationkey", CmpOp::Eq, "n.n_nationkey"),
            Pred::cmp("o.o_orderdate", CmpOp::Ge, format!("DATE {date_lo}")),
            Pred::cmp("o.o_orderdate", CmpOp::Lt, format!("DATE {}", date_lo + 90)),
            Pred::cmp("l.l_returnflag", CmpOp::Eq, "'R'"),
        ],
        group_by: vec!["c.c_custkey".into(), "c.c_name".into(), "n.n_name".into()],
        order_by: vec!["revenue DESC".into()],
    }
}

/// Q12 text, equivalent to [`crate::tpch::q12`].
pub fn q12_sql(mode1: &str, mode2: &str, year_start: i32) -> SqlQuery {
    SqlQuery {
        select: vec!["l_shipmode".into(), "COUNT(*)".into()],
        from: vec![table("orders", "orders"), table("lineitem", "lineitem")],
        predicates: vec![
            Pred::cmp("o_orderkey", CmpOp::Eq, "l_orderkey"),
            Pred::Raw(format!("l_shipmode IN ('{mode1}', '{mode2}')")),
            Pred::cmp("l_commitdate", CmpOp::Lt, "l_receiptdate"),
            Pred::cmp("l_shipdate", CmpOp::Lt, "l_commitdate"),
            Pred::cmp("l_receiptdate", CmpOp::Ge, format!("DATE {year_start}")),
            Pred::cmp("l_receiptdate", CmpOp::Lt, format!("DATE {}", year_start + 365)),
        ],
        group_by: vec!["l_shipmode".into()],
        order_by: vec!["l_shipmode".into()],
    }
}

/// Q19 text, equivalent to [`crate::tpch::q19`].
pub fn q19_sql(brand1: &str, brand2: &str, qty: i64) -> SqlQuery {
    let arm = |brand: &str, container: &str, lo: i64, hi: i64, size: i64| {
        format!(
            "(p_brand = '{brand}' AND p_container = '{container}' AND l_quantity >= {lo} \
             AND l_quantity <= {hi} AND p_size <= {size})"
        )
    };
    SqlQuery {
        select: vec!["SUM(l_extendedprice * (1.0 - l_discount))".into()],
        from: vec![table("part", "part"), table("lineitem", "lineitem")],
        predicates: vec![
            Pred::cmp("p_partkey", CmpOp::Eq, "l_partkey"),
            // Outer parens matter: OR binds looser than the AND joining the
            // conjunct list.
            Pred::Raw(format!(
                "({} OR {})",
                arm(brand1, "SM CASE", qty, qty + 10, 5),
                arm(brand2, "MED BOX", qty + 10, qty + 20, 10),
            )),
        ],
        group_by: vec![],
        order_by: vec![],
    }
}

/// One of the eight TPC-H-shaped queries below with qgen-style random
/// parameters — the generator behind the planner fuzz and the column-liveness
/// differential suite.
pub fn random_shape(rng: &mut StdRng) -> SqlQuery {
    match rng.gen_range(0..8u32) {
        0 => q1_sql(rng.gen_range(60..=120)),
        1 => q3_sql(rng.gen_range(0..NATIONS.len() as i64), rng.gen_range(200..=DATE_MAX)),
        2 => q4_sql(rng.gen_range(0..=DATE_MAX - 90)),
        3 => q5_sql(REGIONS[rng.gen_range(0..REGIONS.len())], rng.gen_range(0..=DATE_MAX - 365)),
        4 => q6_sql(
            rng.gen_range(0..=DATE_MAX - 365),
            (rng.gen_range(2..=9) as f64) / 100.0,
            rng.gen_range(24..=50),
        ),
        5 => q10_sql(rng.gen_range(0..=DATE_MAX - 90)),
        6 => q12_sql(
            SHIPMODES[rng.gen_range(0..SHIPMODES.len())],
            SHIPMODES[rng.gen_range(0..SHIPMODES.len())],
            rng.gen_range(0..=DATE_MAX - 365),
        ),
        _ => q19_sql(
            BRANDS[rng.gen_range(0..BRANDS.len())],
            BRANDS[rng.gen_range(0..BRANDS.len())],
            rng.gen_range(1..=20),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn canonical_renders_expected_text() {
        let q = q4_sql(500);
        assert_eq!(
            q.canonical(),
            "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND o_orderdate >= DATE 500 \
             AND o_orderdate < DATE 590 AND l_commitdate < l_receiptdate \
             GROUP BY o_orderpriority ORDER BY o_orderpriority"
        );
    }

    #[test]
    fn shuffled_differs_but_same_pieces() {
        let q = q3_sql(3, 1200);
        let mut rng = StdRng::seed_from_u64(9);
        let variants: Vec<String> = (0..8).map(|_| q.shuffled(&mut rng)).collect();
        // At least one variant differs textually from the canonical form.
        let canon = q.canonical();
        assert!(variants.iter().any(|v| *v != canon), "shuffler never changed phrasing");
        // All variants keep every table and GROUP BY intact.
        for v in &variants {
            for t in ["customer c", "orders o", "lineitem l"] {
                assert!(v.contains(t), "{v}");
            }
            assert!(v.contains("GROUP BY o.o_orderkey, o.o_orderdate"));
        }
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let q = q10_sql(800);
        let a: Vec<String> =
            (0..4).scan(StdRng::seed_from_u64(5), |r, _| Some(q.shuffled(r))).collect();
        let b: Vec<String> =
            (0..4).scan(StdRng::seed_from_u64(5), |r, _| Some(q.shuffled(r))).collect();
        assert_eq!(a, b);
    }
}
