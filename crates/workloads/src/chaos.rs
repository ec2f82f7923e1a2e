//! Chaos mode: replay a seeded fault schedule under a multi-client burst.
//!
//! Couples the [`harness::open_loop`](crate::harness::open_loop) arrival
//! model with the storage layer's deterministic
//! [`FaultInjector`](qpipe_common::FaultInjector) and checks the engine's
//! end-to-end failure-containment contract:
//!
//! * **Every query settles** — completed, rejected, or failed with an error;
//!   nothing hangs and nothing is silently truncated.
//! * **Transient faults heal invisibly** — the buffer pool's retry policy
//!   absorbs them (`io_retries` counts the healing work).
//! * **Corruption is detected** — checksum verification turns flipped bits
//!   into `QError::Storage`, never garbage rows.
//! * **Resources return to idle** — [`await_idle`] finds no admission
//!   slot, queued ticket, governor lease or spill run file left once the
//!   burst drains.
//!
//! The schedule is a plain list of [`FaultRule`]s; with the same seed and
//! rules a run injects exactly the same faults, so chaos failures reproduce.

use crate::harness::{await_idle, open_loop, Driver, OpenLoopOutcome, OpenLoopResult};
use qpipe_common::sim::TimeScale;
use qpipe_common::{FaultInjector, FaultRule};
use qpipe_exec::plan::PlanNode;
use std::sync::Arc;

/// A seeded chaos run: the fault schedule plus the arrival shape.
#[derive(Clone)]
pub struct ChaosConfig {
    /// Injector seed — same seed + same rules ⇒ same faults.
    pub seed: u64,
    /// The fault schedule, replayed deterministically.
    pub rules: Vec<FaultRule>,
    /// Inter-arrival gap of the open-loop burst, in paper seconds.
    pub interarrival_paper: f64,
    pub scale: TimeScale,
}

impl ChaosConfig {
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        Self { seed, rules, interarrival_paper: 0.0, scale: TimeScale::paper_sec_is_ms(0.05) }
    }
}

/// What a chaos run observed, for assertions and reporting.
pub struct ChaosReport {
    pub result: OpenLoopResult,
    /// Faults the injector actually fired during the run.
    pub faults_injected: u64,
    /// What [`await_idle`] found not back to idle after the burst drained
    /// (a leak if any).
    pub leftovers: Vec<String>,
}

impl ChaosReport {
    pub fn completed(&self) -> u64 {
        self.result.completed
    }

    pub fn failed(&self) -> u64 {
        self.result.outcomes.iter().filter(|o| matches!(o, OpenLoopOutcome::Failed(_))).count()
            as u64
    }

    /// Assert the containment contract: every arrival settled and every
    /// resource returned to idle. Panics with the offending evidence.
    pub fn assert_contained(&self, arrivals: usize) {
        assert_eq!(
            self.result.outcomes.len(),
            arrivals,
            "every arrival must settle: {:?}",
            self.result.outcomes
        );
        assert!(self.leftovers.is_empty(), "leaked under faults: {:?}", self.leftovers);
    }
}

/// Run `plans` as an open-loop burst with `config`'s fault schedule active,
/// then wait (bounded) for the engine to return to idle and collect what
/// did not. The injector is detached before returning, so later runs
/// against the same driver are fault-free.
pub fn run_chaos(driver: &Driver, plans: Vec<PlanNode>, config: &ChaosConfig) -> ChaosReport {
    let disk = driver.catalog().disk().clone();
    let injector = Arc::new(FaultInjector::new(config.seed, config.rules.clone()));
    disk.set_fault_injector(Some(injector.clone()));
    let result = open_loop(driver, plans, config.interarrival_paper, config.scale);
    disk.set_fault_injector(None);

    ChaosReport {
        result,
        faults_injected: injector.injected(),
        leftovers: await_idle(driver.engine()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{System, SystemProfile};
    use crate::tpch::{build_tpch, q13, q6, TpchScale};
    use qpipe_common::{FaultKind, FaultOp, QError};
    use qpipe_core::engine::QPipeConfig;

    fn driver() -> Driver {
        Driver::build(System::QPipeOsp, SystemProfile::instant(), |c| {
            build_tpch(c, TpchScale::tiny(), 42)
        })
        .unwrap()
    }

    fn burst(n: usize) -> Vec<PlanNode> {
        (0..n).map(|i| q6((i % 5) as i32 * 100, 0.05, 30)).collect()
    }

    #[test]
    fn transient_faults_heal_and_every_query_completes() {
        let d = driver();
        // Every read of the first three lineitem blocks fails twice, then
        // heals — inside the default 3-attempt retry budget.
        let rules = vec![FaultRule::new(FaultKind::Transient)
            .on_file("lineitem")
            .on_blocks(0..3)
            .on_op(FaultOp::Read)
            .times(2)];
        let cfg = ChaosConfig::new(7, rules);
        let n = 8;
        let report = run_chaos(&d, burst(n), &cfg);
        report.assert_contained(n);
        assert_eq!(report.completed(), n as u64, "transient faults must heal invisibly");
        assert!(report.faults_injected > 0, "the schedule must actually fire");
        assert!(report.result.delta.io_retries > 0, "healing goes through the retry path");
        assert_eq!(report.result.delta.worker_panics, 0);
    }

    #[test]
    fn permanent_corruption_is_detected_and_contained() {
        let d = driver();
        // An orders block returns a flipped bit on every read attempt: the
        // checksum rejects it past the retry budget, failing q13 (which
        // scans orders) while the co-running q6 burst (lineitem) completes.
        let rules = vec![FaultRule::new(FaultKind::Corrupt)
            .on_file("orders")
            .on_blocks(0..1)
            .on_op(FaultOp::Read)
            .times(u32::MAX)];
        let cfg = ChaosConfig::new(11, rules);
        let mut plans = burst(6);
        plans.push(q13());
        let n = plans.len();
        let report = run_chaos(&d, plans, &cfg);
        report.assert_contained(n);
        assert_eq!(report.completed(), 6, "non-faulted subtrees must complete: {:?}", {
            &report.result.outcomes
        });
        let failed: Vec<_> = report
            .result
            .outcomes
            .iter()
            .filter_map(|o| match o {
                OpenLoopOutcome::Failed(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1, "exactly the corrupted-table query fails");
        assert!(
            matches!(&failed[0], QError::Storage(m) if m.contains("checksum")),
            "corruption must surface as a checksum error, got {failed:?}"
        );
        assert!(report.result.delta.checksum_failures > 0);
        assert_eq!(report.result.delta.worker_panics, 0);
    }

    #[test]
    fn injected_operator_panic_is_contained() {
        let d = driver();
        // The first read of lineitem block 0 panics inside the scanner
        // thread; containment fails the attached packets.
        let rules = vec![FaultRule::new(FaultKind::Panic)
            .on_file("lineitem")
            .on_blocks(0..1)
            .on_op(FaultOp::Read)
            .times(1)];
        let n = 3;
        let report = run_chaos(&d, burst(n), &ChaosConfig::new(3, rules));
        report.assert_contained(n);
        assert_eq!(report.result.delta.worker_panics, 1, "one panic, caught once");
        assert!(report.failed() >= 1, "the panicked scan's queries fail cleanly");
        // Later arrivals are sequenced on that failure — the first burst has
        // settled — not spaced from it by wall-clock: however slow the box,
        // none of them can land in the scan that panicked.
        let report = run_chaos(&d, burst(n), &ChaosConfig::new(3, Vec::new()));
        report.assert_contained(n);
        assert_eq!(report.result.delta.worker_panics, 0);
        assert_eq!(
            report.completed(),
            n as u64,
            "arrivals after the panic must complete: {:?}",
            report.result.outcomes
        );
    }

    #[test]
    fn same_seed_injects_identical_fault_counts() {
        let rules = || {
            vec![FaultRule::new(FaultKind::Transient)
                .on_file("lineitem")
                .on_op(FaultOp::Read)
                .with_rate(0.3)
                .times(1)]
        };
        let mut counts = Vec::new();
        for _ in 0..2 {
            let d = driver();
            let report = run_chaos(&d, burst(4), &ChaosConfig::new(99, rules()));
            report.assert_contained(4);
            counts.push(report.faults_injected);
        }
        assert!(counts[0] > 0, "a 30% gate over a whole table must fire somewhere");
        assert_eq!(counts[0], counts[1], "same seed + schedule ⇒ same injections");
    }

    #[test]
    fn chaos_respects_admission_bounds() {
        use qpipe_core::admit::AdmitConfig;
        let depth = 2;
        let config = QPipeConfig {
            admit: AdmitConfig { queue_depth: depth, ..AdmitConfig::default() },
            ..QPipeConfig::default()
        };
        let d =
            Driver::build_with_config(System::QPipeOsp, SystemProfile::instant(), config, |c| {
                build_tpch(c, TpchScale::tiny(), 42)
            })
            .unwrap();
        let rules = vec![FaultRule::new(FaultKind::Transient)
            .on_file("lineitem")
            .on_blocks(0..2)
            .on_op(FaultOp::Read)
            .times(1)];
        let n = 8;
        let report = run_chaos(&d, burst(n), &ChaosConfig::new(5, rules));
        report.assert_contained(n);
        assert_eq!(report.completed(), n as u64);
        for (name, peak) in d.engine().admission().peaks() {
            assert!(peak <= depth, "µEngine {name} exceeded depth under faults: {peak}");
        }
    }
}
