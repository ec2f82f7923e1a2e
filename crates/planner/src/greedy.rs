//! Statistics-free greedy planning.
//!
//! The planner never consults cardinality statistics. Selectivity is read
//! off the *syntax* of each table's local predicates (an equality pins more
//! than a range bound, a range bound more than a bare expression), the most
//! selective pattern is joined first, and provably-empty conjunctions
//! (detected by [`Expr::normalize`]'s constant folding and interval
//! contradiction check) short-circuit to an empty plan without touching the
//! joins at all. This trades optimality for planning speed and — the QPipe
//! payoff — *determinism*: every phrasing of the same logical query lands on
//! the same plan tree, so `PlanNode::signature()` matches and OSP sharing
//! fires across clients that phrase the query differently.
//!
//! Join construction is left-deep with the accumulated side as the hash
//! build side; the canonical equi-join key for a step is the lexicographically
//! smallest `(accumulated position, next-table column)` edge, and any further
//! equality edges become post-join filters.

use crate::bind::{BoundItem, BoundQuery};
use qpipe_common::{QError, QResult, Value};
use qpipe_exec::expr::{CmpOp, Expr};
use qpipe_exec::plan::{AggSpec, PlanNode, SortKey};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Planner options with no field: the planner always canonicalizes. The type
/// and the ignored `opts` argument it fills stay only because the frozen
/// `e2e/` benchmark passes `&PlannerOptions::default()` to `plan_sql`, and to
/// the workload driver's `plan_sql` and `submit_sql`.
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions;

/// A planned query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub plan: Arc<PlanNode>,
    /// `plan.signature()`, precomputed.
    pub signature: u64,
    /// Table bindings in the join order the planner chose.
    pub join_order: Vec<String>,
    /// The WHERE clause was proven unsatisfiable at plan time; the plan is a
    /// constant-empty pipeline that still honors aggregate semantics.
    pub provably_empty: bool,
}

impl PlannedQuery {
    pub fn explain(&self) -> String {
        self.plan.explain()
    }
}

fn plan_err(msg: impl Into<String>) -> QError {
    QError::Plan(format!("plan error: {}", msg.into()))
}

/// Plan a bound query.
pub fn plan_bound(bound: &BoundQuery) -> QResult<PlannedQuery> {
    if bound.tables.is_empty() {
        return Err(plan_err("query references no tables"));
    }

    // 1. The conjunct pool: the whole conjunction normalized, which folds
    // constants, orders conjuncts, and detects contradictions.
    let conjuncts = match Expr::and(bound.conjuncts.clone()).normalize() {
        whole if whole.is_const_false() => return provably_empty(bound),
        Expr::And(parts) => parts,
        e if e.is_const_true() => Vec::new(),
        e => vec![e],
    };

    // 2. Classify conjuncts: per-table local predicates, cross-table equality
    // edges, and residual (anything else spanning several tables).
    let n = bound.tables.len();
    let table_of = |g: usize| -> usize {
        bound.tables.iter().position(|t| t.owns(g)).expect("bound column in range")
    };
    let mut local: Vec<Vec<Expr>> = vec![Vec::new(); n];
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let mut cols = Vec::new();
        c.collect_cols(&mut cols);
        let tset: BTreeSet<usize> = cols.iter().map(|&g| table_of(g)).collect();
        match tset.len() {
            // A column-free conjunct. Normalization folds these to constants,
            // which never reach the pool; should one fold fail, charge it to
            // the first table so it still filters.
            0 => local[0].push(c),
            1 => local[*tset.iter().next().unwrap()].push(c),
            2 => {
                if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
                    if let (Expr::Col(ga), Expr::Col(gb)) = (a.as_ref(), b.as_ref()) {
                        edges.push(JoinEdge { a: *ga, b: *gb });
                        continue;
                    }
                }
                residual.push(c);
            }
            _ => residual.push(c),
        }
    }

    // 3. Base access paths, with local predicates pushed into the scans.
    let mut scans: Vec<PlanNode> = Vec::with_capacity(n);
    let mut scores: Vec<i64> = Vec::with_capacity(n);
    for (i, t) in bound.tables.iter().enumerate() {
        let parts: Vec<Expr> = local[i].iter().map(|e| e.map_cols(&|g| g - t.offset)).collect();
        scores.push(parts.iter().map(selectivity_score).sum());
        let pred = if parts.is_empty() {
            None
        } else {
            let p = Expr::and(parts).normalize();
            if p.is_const_false() {
                // A single table's predicate is unsatisfiable.
                return provably_empty(bound);
            }
            if p.is_const_true() {
                None
            } else {
                Some(p)
            }
        };
        scans.push(match pred {
            Some(p) => PlanNode::scan_filtered(&t.table, p),
            None => PlanNode::scan(&t.table),
        });
    }

    // 4. Join order: greedy most-selective-first. Ties break on binding
    // name, keeping order total.
    let order = greedy_order(bound, &scores, &edges);

    // 5. Left-deep join construction. `layout[g]` maps a global column index
    // to its position in the current intermediate's tuple layout.
    let mut layout: Vec<Option<usize>> = vec![None; bound.global_width()];
    let first = &bound.tables[order[0]];
    for i in 0..first.width() {
        layout[first.offset + i] = Some(i);
    }
    let mut joined: BTreeSet<usize> = BTreeSet::new();
    joined.insert(order[0]);
    let mut acc = scans[order[0]].clone();
    let mut acc_width = first.width();
    let mut edges_left = edges;
    let mut residual_left = residual;

    for &next in &order[1..] {
        let t = &bound.tables[next];
        // Equality edges connecting the joined set to `next`.
        let mut keys: Vec<(usize, usize)> = Vec::new(); // (acc pos, next local)
        edges_left.retain(|e| {
            for (x, y) in [(e.a, e.b), (e.b, e.a)] {
                if t.owns(y) && layout[x].is_some() {
                    keys.push((layout[x].unwrap(), y - t.offset));
                    return false;
                }
            }
            true
        });
        keys.sort_unstable();
        keys.dedup();
        if keys.is_empty() {
            // Disconnected: cross product via a constant-true nested loop.
            acc = PlanNode::NestedLoopJoin {
                left: Arc::new(acc),
                right: Arc::new(scans[next].clone()),
                predicate: Expr::Lit(Value::Int(1)),
            };
        } else {
            let (lk, rk) = keys[0];
            acc = acc.hash_join(scans[next].clone(), lk, rk);
        }
        // Extend the layout with `next`'s columns.
        for i in 0..t.width() {
            layout[t.offset + i] = Some(acc_width + i);
        }
        // Surplus equality edges become filters over the joined layout.
        let mut post: Vec<Expr> =
            keys.iter().skip(1).map(|&(l, r)| Expr::col(l).eq(Expr::col(acc_width + r))).collect();
        acc_width += t.width();
        joined.insert(next);
        // Residual conjuncts apply as soon as every referenced table joined.
        residual_left.retain(|e| {
            let mut cols = Vec::new();
            e.collect_cols(&mut cols);
            if cols.iter().all(|&g| layout[g].is_some()) {
                post.push(e.map_cols(&|g| layout[g].expect("checked")));
                false
            } else {
                true
            }
        });
        if !post.is_empty() {
            let p = Expr::and(post).normalize();
            if !p.is_const_true() {
                acc = acc.filter(p);
            }
        }
    }
    debug_assert!(edges_left.is_empty() && residual_left.is_empty());

    // 6. Output stage over the final layout.
    let remap = |e: &Expr| e.map_cols(&|g| layout[g].expect("column joined"));
    let plan = output_stage(bound, acc, &remap)?;
    let signature = plan.signature();
    Ok(PlannedQuery {
        plan: Arc::new(plan),
        signature,
        join_order: order.iter().map(|&i| bound.tables[i].binding.clone()).collect(),
        provably_empty: false,
    })
}

/// Aggregate / project / sort layers shared by the normal and provably-empty
/// paths. `remap` carries expressions from global indices onto the input's
/// layout.
fn output_stage(
    bound: &BoundQuery,
    input: PlanNode,
    remap: &dyn Fn(&Expr) -> Expr,
) -> QResult<PlanNode> {
    let mut plan = input;

    if bound.has_aggregates() {
        let mut out_pos: Vec<usize> = Vec::with_capacity(bound.items.len());
        // Canonical aggregate: group columns sorted ascending, aggregate
        // specs sorted by signature and deduplicated; a Project on top
        // restores the written SELECT order.
        let mut group_cols: Vec<usize> = bound
            .group_by
            .iter()
            .map(|&g| match remap(&Expr::Col(g)) {
                Expr::Col(p) => p,
                _ => unreachable!("remap maps columns to columns"),
            })
            .collect();
        group_cols.sort_unstable();
        group_cols.dedup();
        let mut specs: Vec<AggSpec> = Vec::new();
        // Output position of each SELECT item, over [groups..., aggs...].
        for item in &bound.items {
            match item {
                BoundItem::Expr(e) => {
                    let Expr::Col(p) = remap(e) else {
                        return Err(plan_err("grouped SELECT items must be columns"));
                    };
                    let gi = group_cols
                        .iter()
                        .position(|&c| c == p)
                        .ok_or_else(|| plan_err("SELECT column not in GROUP BY"))?;
                    out_pos.push(gi);
                }
                BoundItem::Agg(a) => {
                    let spec = AggSpec { func: a.func, expr: remap(&a.expr).normalize() };
                    let ai = match specs.iter().position(|s| s == &spec) {
                        Some(i) => i,
                        None => {
                            specs.push(spec);
                            specs.len() - 1
                        }
                    };
                    out_pos.push(group_cols.len() + ai);
                }
            }
        }
        if specs.len() > 1 {
            // Sort specs canonically, tracking where each lands.
            let mut idx: Vec<usize> = (0..specs.len()).collect();
            idx.sort_by_cached_key(|&i| {
                let mut buf = vec![specs[i].func as u8];
                specs[i].expr.encode_sig(&mut buf);
                buf
            });
            let inv: Vec<usize> = {
                let mut inv = vec![0; idx.len()];
                for (new, &old) in idx.iter().enumerate() {
                    inv[old] = new;
                }
                inv
            };
            specs = idx.iter().map(|&i| specs[i].clone()).collect();
            for p in out_pos.iter_mut() {
                if *p >= group_cols.len() {
                    *p = group_cols.len() + inv[*p - group_cols.len()];
                }
            }
        }
        plan = plan.aggregate(group_cols.clone(), specs.clone());
        // Restore SELECT order unless it already matches the agg output.
        let agg_width = group_cols.len() + specs.len();
        let identity =
            out_pos.len() == agg_width && out_pos.iter().enumerate().all(|(i, &p)| i == p);
        if !identity {
            plan = plan.project(out_pos.iter().map(|&p| Expr::col(p)).collect());
        }
    } else {
        let exprs: Vec<Expr> = bound
            .items
            .iter()
            .map(|item| match item {
                BoundItem::Expr(e) => remap(e).normalize(),
                BoundItem::Agg(_) => unreachable!("no aggregates on this path"),
            })
            .collect();
        // Skip an identity projection over the full joined width (the join
        // of every FROM table always has `global_width` columns).
        let identity = exprs.len() == bound.global_width()
            && exprs.iter().enumerate().all(|(i, e)| matches!(e, Expr::Col(c) if *c == i));
        if !identity {
            plan = plan.project(exprs);
        }
    }

    if !bound.order_by.is_empty() {
        let keys: Vec<SortKey> =
            bound.order_by.iter().map(|&(pos, asc)| SortKey { col: pos, asc }).collect();
        plan = plan.sort(keys);
    }
    Ok(plan)
}

/// The planned form of a query whose WHERE is unsatisfiable: a plan that
/// produces the declared global layout with zero rows. Aggregate semantics
/// still apply (a no-group aggregate over zero rows emits its one NULL/zero
/// row).
fn provably_empty(bound: &BoundQuery) -> QResult<PlannedQuery> {
    let base = PlanNode::scan_filtered(&bound.tables[0].table, Expr::Lit(Value::Int(0)))
        .project(vec![Expr::Lit(Value::Null); bound.global_width()]);
    // Identity remap: the projected layout is the declared global layout.
    let plan = output_stage(bound, base, &|e: &Expr| e.clone())?;
    let signature = plan.signature();
    Ok(PlannedQuery {
        plan: Arc::new(plan),
        signature,
        join_order: Vec::new(),
        provably_empty: true,
    })
}

#[derive(Debug, Clone, Copy)]
struct JoinEdge {
    a: usize,
    b: usize,
}

/// Syntactic selectivity score of one local conjunct — no statistics, just
/// predicate shape: equality pins hardest, then IN, prefix match, IS NULL,
/// individual range bounds, then anything else.
fn selectivity_score(e: &Expr) -> i64 {
    match e {
        Expr::Cmp(CmpOp::Eq, a, b) => {
            if matches!(a.as_ref(), Expr::Lit(_)) || matches!(b.as_ref(), Expr::Lit(_)) {
                8
            } else {
                2
            }
        }
        Expr::In(..) => 6,
        Expr::StartsWith(..) => 5,
        Expr::IsNull(_) => 4,
        Expr::Cmp(..) => 3,
        Expr::And(parts) => parts.iter().map(selectivity_score).sum(),
        _ => 1,
    }
}

/// Greedy join order: start from the highest-scored table, then repeatedly
/// take the highest-scored table connected by an equality edge to the set so
/// far; disconnected tables come last (cross products are the worst case no
/// matter the order). Ties break on binding name so the order is total —
/// determinism is what canonicalization rests on.
fn greedy_order(bound: &BoundQuery, scores: &[i64], edges: &[JoinEdge]) -> Vec<usize> {
    let n = bound.tables.len();
    let table_of = |g: usize| bound.tables.iter().position(|t| t.owns(g)).expect("in range");
    let better = |a: usize, b: usize| -> bool {
        (scores[a], std::cmp::Reverse(&bound.tables[a].binding))
            > (scores[b], std::cmp::Reverse(&bound.tables[b].binding))
    };
    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut start = 0;
    for i in 1..n {
        if better(i, start) {
            start = i;
        }
    }
    remaining.remove(&start);
    let mut order = vec![start];
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                edges.iter().any(|e| {
                    let (ta, tb) = (table_of(e.a), table_of(e.b));
                    (ta == i && order.contains(&tb)) || (tb == i && order.contains(&ta))
                })
            })
            .collect();
        let pool = if connected.is_empty() {
            remaining.iter().copied().collect::<Vec<_>>()
        } else {
            connected
        };
        let mut pick = pool[0];
        for &i in &pool[1..] {
            if better(i, pick) {
                pick = i;
            }
        }
        remaining.remove(&pick);
        order.push(pick);
    }
    order
}
