//! The four workloads: which dataset and system profile each boots, and the
//! seeded pool of queries its clients cycle through.
//!
//! Every workload runs the same closed loop (see [`crate::client`]); they
//! differ in which layers do the work. `README.md` records why each exists.

use qpipe_common::QResult;
use qpipe_core::QPipeConfig;
use qpipe_exec::expr::Expr;
use qpipe_exec::iter::ExecConfig;
use qpipe_exec::plan::{AggSpec, PlanNode};
use qpipe_planner::PlannerOptions;
use qpipe_storage::{Catalog, DiskConfig, StorageLayout};
use qpipe_workloads::harness::{Driver, System, SystemProfile};
use qpipe_workloads::tpch::{self, TpchScale};
use qpipe_workloads::wisconsin::{self, WisconsinScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Closed-loop clients. Fixed here (and recorded in `BENCHMARK.json`), not
/// read from the machine: numbers compare only at the same client count.
pub const CLIENTS: usize = 2;
/// Queries in a workload's pool; client `c` owns `pool[i]` where `i % CLIENTS == c`.
pub const POOL_SIZE: usize = 64;
/// Seed of the datasets. `--seed` varies the queries, never the data.
pub const DATASET_SEED: u64 = 20050614;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MixIo,
    MixCpu,
    NoshareIo,
    SqlShort,
}

/// One query of a pool.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// SQL text when the workload submits text; the plan is then what the
    /// planner made of it (kept for the oracle and the signature).
    pub sql: Option<String>,
    pub plan: Arc<PlanNode>,
}

impl PoolQuery {
    fn from_plan(plan: PlanNode) -> Self {
        PoolQuery { sql: None, plan: Arc::new(plan) }
    }

    /// Text to print when the query fails.
    pub fn describe(&self) -> String {
        self.sql.clone().unwrap_or_else(|| self.plan.explain())
    }
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MixIo, Workload::MixCpu, Workload::NoshareIo, Workload::SqlShort];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixIo => "mix_io",
            Workload::MixCpu => "mix_cpu",
            Workload::NoshareIo => "noshare_io",
            Workload::SqlShort => "sql_short",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn layout(self) -> StorageLayout {
        match self {
            Workload::MixIo | Workload::SqlShort => StorageLayout::Row,
            Workload::MixCpu | Workload::NoshareIo => StorageLayout::Columnar,
        }
    }

    /// Disk and buffer pool. `mix_cpu` gets a free disk and a pool the
    /// 621-page dataset fits in; the others get the charged experiment disk
    /// and a 192-page pool, smaller than either dataset.
    fn profile(self) -> SystemProfile {
        match self {
            Workload::MixCpu => SystemProfile {
                disk: DiskConfig::instant(),
                pool_pages: 4096,
                ..SystemProfile::experiment()
            },
            _ => SystemProfile::experiment(),
        }
    }

    fn load(self, catalog: &Arc<Catalog>) -> QResult<()> {
        match self {
            Workload::NoshareIo => wisconsin::build_wisconsin_with_layout(
                catalog,
                WisconsinScale::experiment(),
                self.layout(),
            ),
            _ => tpch::build_tpch_with_layout(
                catalog,
                TpchScale::experiment(),
                DATASET_SEED,
                self.layout(),
            ),
        }
    }

    /// Load a fresh catalog and boot `system` on it: one set-up cycle.
    pub fn boot(self, system: System, tracing: bool) -> QResult<Driver> {
        let config = QPipeConfig {
            exec: ExecConfig { tracing, ..ExecConfig::default() },
            ..QPipeConfig::default()
        };
        Driver::build_with_config(system, self.profile(), config, |c| self.load(c))
    }

    /// A query the planner proves empty, for the engine's fixed-cost probe.
    pub fn noop_sql(self) -> &'static str {
        match self {
            Workload::NoshareIo => "SELECT COUNT(*) FROM small WHERE two = 0 AND two = 1",
            _ => "SELECT COUNT(*) FROM region WHERE r_regionkey = 0 AND r_regionkey = 1",
        }
    }

    /// The seeded query pool: [`POOL_SIZE`] queries with pairwise distinct
    /// plan signatures, so no two in-flight queries are ever identical.
    /// Slot `i` belongs to client `i % CLIENTS`; the template of each slot
    /// is fixed, only its parameters come from `seed`, so every seed runs
    /// the same mix of work.
    pub fn pool(self, seed: u64, catalog: &Catalog) -> QResult<Vec<PoolQuery>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(POOL_SIZE);
        for slot in 0..POOL_SIZE {
            // Redraw until the signature is new; every template has far
            // more parameter settings than slots.
            let query = (0..10_000)
                .map(|_| self.draw(slot, &mut rng, catalog))
                .find(|q| q.as_ref().map_or(true, |q| seen.insert(q.plan.signature())))
                .expect("a template ran out of distinct parameters")?;
            pool.push(query);
        }
        Ok(pool)
    }

    fn draw(self, slot: usize, rng: &mut StdRng, catalog: &Catalog) -> QResult<PoolQuery> {
        let client = slot % CLIENTS;
        let round = slot / CLIENTS;
        match self {
            Workload::MixIo | Workload::MixCpu => {
                Ok(PoolQuery::from_plan(tpch::query(mix_template(client, round), rng)))
            }
            Workload::NoshareIo => {
                // Client 0 only ever reads big1, client 1 only big2: nothing
                // to share, so OSP is bypassed.
                let table = ["big1", "big2"][client];
                let bound: i64 = rng.gen_range(1..=100);
                let pred = Expr::col(wisconsin::cols::HUNDRED).lt(Expr::lit(bound));
                Ok(PoolQuery::from_plan(
                    PlanNode::scan_filtered(table, pred)
                        .aggregate(vec![], vec![AggSpec::count_star()]),
                ))
            }
            Workload::SqlShort => {
                let sql = short_sql(client, round, rng);
                let planned = qpipe_planner::plan_sql(catalog, &sql, &PlannerOptions::default())?;
                Ok(PoolQuery { sql: Some(sql), plan: planned.plan })
            }
        }
    }
}

/// The TPC-H template of a mix slot. Both clients walk the paper's eight
/// templates in order, client 1 half a cycle ahead. Q13 takes no parameter,
/// so only client 0's first Q13 slot keeps it; every other Q13 slot takes
/// one of the seven parameterised templates in turn.
fn mix_template(client: usize, round: usize) -> u32 {
    let n = tpch::MIX.len();
    let q = tpch::MIX[(round + client * n / 2) % n];
    if q != 13 || (client == 0 && round < n) {
        return q;
    }
    let others: Vec<u32> = tpch::MIX.iter().copied().filter(|&q| q != 13).collect();
    others[(round / n + client * n / 2) % others.len()]
}

/// Tiny SQL over the ≤ 800-row dimension tables. Client `c` only draws
/// literals congruent to `c` modulo [`CLIENTS`], so the two clients never
/// hold the same query. Literals start at [`CLIENTS`], so every predicate
/// keeps some rows: on the seed a join whose filtered input is empty fails
/// (README.md, "Findings on the seed").
fn short_sql(client: usize, round: usize, rng: &mut StdRng) -> String {
    let mut lit = |upper: usize| rng.gen_range(1..upper / CLIENTS) * CLIENTS + client;
    match round % 4 {
        0 => {
            format!("SELECT COUNT(*), MAX(c_custkey) FROM customer WHERE c_custkey < {}", lit(800))
        }
        1 => format!(
            "SELECT n_name, COUNT(*) FROM supplier, nation \
             WHERE s_nationkey = n_nationkey AND s_suppkey < {} GROUP BY n_name",
            lit(100)
        ),
        2 => format!(
            "SELECT c_nationkey, COUNT(*) FROM customer WHERE c_custkey >= {} \
             GROUP BY c_nationkey",
            lit(800)
        ),
        _ => format!(
            "SELECT r_name, COUNT(*) FROM customer, nation, region \
             WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
             AND c_custkey < {} GROUP BY r_name",
            lit(800)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpipe_common::Metrics;
    use qpipe_storage::{BufferPool, BufferPoolConfig, PolicyKind, SimDisk};

    fn tpch_catalog() -> Arc<Catalog> {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let pool = BufferPool::new(disk.clone(), BufferPoolConfig::new(64, PolicyKind::Lru));
        let catalog = Catalog::new(disk, pool);
        tpch::build_tpch(&catalog, TpchScale::tiny(), DATASET_SEED).unwrap();
        catalog
    }

    #[test]
    fn pools_are_full_distinct_and_never_shared_between_clients() {
        let catalog = tpch_catalog();
        for w in Workload::ALL {
            let pool = w.pool(7, &catalog).unwrap();
            assert_eq!(pool.len(), POOL_SIZE, "{}", w.name());
            let all: HashSet<u64> = pool.iter().map(|q| q.plan.signature()).collect();
            assert_eq!(all.len(), POOL_SIZE, "{}: duplicate signature", w.name());
            let of = |c: usize| -> HashSet<u64> {
                pool.iter().skip(c).step_by(CLIENTS).map(|q| q.plan.signature()).collect()
            };
            assert!(of(0).is_disjoint(&of(1)), "{}: clients share a query", w.name());
            assert_eq!(of(0).len() + of(1).len(), POOL_SIZE);
        }
    }

    #[test]
    fn same_seed_same_pool_and_another_seed_another_pool() {
        let catalog = tpch_catalog();
        let sigs = |seed| -> Vec<u64> {
            Workload::MixIo
                .pool(seed, &catalog)
                .unwrap()
                .iter()
                .map(|q| q.plan.signature())
                .collect()
        };
        assert_eq!(sigs(3), sigs(3));
        assert_ne!(sigs(3), sigs(4));
    }

    #[test]
    fn every_seed_runs_the_same_mix_of_templates() {
        let mut counts = std::collections::BTreeMap::new();
        for slot in 0..POOL_SIZE {
            *counts.entry(mix_template(slot % CLIENTS, slot / CLIENTS)).or_insert(0) += 1;
        }
        assert_eq!(counts[&13], 1, "Q13 has one signature, so one slot");
        assert_eq!(counts.len(), tpch::MIX.len());
        assert!(counts.iter().all(|(&q, &n)| q == 13 || n == 9), "{counts:?}");
    }

    #[test]
    fn noshare_clients_read_disjoint_tables() {
        let catalog = tpch_catalog();
        let pool = Workload::NoshareIo.pool(1, &catalog).unwrap();
        for (slot, q) in pool.iter().enumerate() {
            assert_eq!(q.plan.tables(), vec![["big1", "big2"][slot % CLIENTS].to_string()]);
        }
    }

    #[test]
    fn short_sql_literals_stay_in_the_clients_residue_class() {
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..40 {
            for client in 0..CLIENTS {
                let sql = short_sql(client, round, &mut rng);
                let literal: usize = sql
                    .split(|c: char| !c.is_ascii_digit())
                    .find(|t| !t.is_empty())
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(literal % CLIENTS, client, "{sql}");
                assert!(literal >= CLIENTS, "{sql}");
            }
        }
    }
}
