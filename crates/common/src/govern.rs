//! Memory governor: global + per-class memory budgets as revocable leases.
//!
//! The paper sizes each operator's working memory statically ("each client
//! gets 128 MB of sort heap"); under many concurrent queries those static
//! budgets over-commit the machine. [`MemoryGovernor`] turns them into
//! *leases*: every memory-hungry operator instance of the staged engine
//! (sort accumulator, hash join build side, aggregation group table,
//! grace-partition load) holds a [`MemLease`] and asks the governor before
//! growing. (The iterator engine, the test oracle, takes none.) A grant is bounded
//! twice — by the operator class cap (the old `sort_budget`/`hash_budget`)
//! and by the **global** budget shared across every lease of the engine — so
//! total granted memory never exceeds the global budget, no matter how many
//! queries run.
//!
//! Denial is the spill signal: a sort that cannot grow spills a run, a hash
//! join falls back to the grace path. The governor never blocks — operators
//! always have a degradation path, so there is no new deadlock surface.
//! Every denial *episode* is counted once (`mem_waited`, latched per lease
//! until a grant or shrink resets it), every grant accumulates into
//! `mem_granted`, and the in-use high-water mark is mirrored to `mem_peak`,
//! which is how the stress suite asserts the global budget held.
//!
//! Units are tuples (rows). The three caps are `ExecConfig`'s budgets, which
//! state them and their defaults; the governor only enforces them.

use crate::metrics::Metrics;
use parking_lot::Mutex;
use std::sync::Arc;

/// Which per-class cap applies to a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
    /// Sort accumulators (in-memory run buffers).
    Sort,
    /// Hash-join build sides and grace-partition loads.
    Hash,
    /// Aggregation group tables (no spill path; denials are visibility).
    Agg,
}

#[derive(Debug)]
struct GovState {
    in_use: u64,
    peak: u64,
}

#[derive(Debug)]
struct GovInner {
    /// Total units grantable across *all* concurrent leases.
    global_units: u64,
    /// Per-lease cap for [`MemClass::Sort`] leases.
    sort_units: u64,
    /// Per-lease cap for [`MemClass::Hash`] and [`MemClass::Agg`] leases.
    hash_units: u64,
    state: Mutex<GovState>,
    metrics: Metrics,
}

/// Shared governor handle; cheap to clone (Arc inside).
#[derive(Debug, Clone)]
pub struct MemoryGovernor {
    inner: Arc<GovInner>,
}

/// Growth is granted in chunks of this many units so the per-row
/// [`MemLease::covers`] fast path (a field comparison) amortizes the lock.
const GRANT_CHUNK: u64 = 64;

impl MemoryGovernor {
    /// A governor granting at most `global_units` across all leases, and at
    /// most `sort_units` / `hash_units` to any one sort / hash or agg lease.
    pub fn new(global_units: u64, sort_units: u64, hash_units: u64, metrics: Metrics) -> Self {
        Self {
            inner: Arc::new(GovInner {
                global_units,
                sort_units,
                hash_units,
                state: Mutex::new(GovState { in_use: 0, peak: 0 }),
                metrics,
            }),
        }
    }

    /// Units currently granted across all live leases.
    pub fn in_use(&self) -> u64 {
        self.inner.state.lock().in_use
    }

    /// High-water mark of [`in_use`](Self::in_use) since boot.
    pub fn peak(&self) -> u64 {
        self.inner.state.lock().peak
    }

    /// Open a zero-unit lease of `class`. Growth happens through
    /// [`MemLease::covers`]; all held units release when the lease drops.
    pub fn lease(&self, class: MemClass) -> MemLease {
        MemLease { gov: self.clone(), class, held: 0, denied: false }
    }

    fn class_cap(&self, class: MemClass) -> u64 {
        match class {
            MemClass::Sort => self.inner.sort_units,
            MemClass::Hash | MemClass::Agg => self.inner.hash_units,
        }
    }

    /// Grow `held` to cover `need` units. Returns the new holding on grant
    /// (chunk-rounded up to amortize locking, never past the caps), or
    /// `None` on denial. Denial is exact: `need` itself must violate the
    /// class cap or the global headroom. (The `mem_waited` accounting lives
    /// in [`MemLease::covers`], latched per denial episode.)
    fn grow(&self, class: MemClass, held: u64, need: u64) -> Option<u64> {
        let cap = self.class_cap(class);
        if need > cap {
            return None;
        }
        let mut st = self.inner.state.lock();
        let headroom = self.inner.global_units - (st.in_use - held);
        if need > headroom {
            return None;
        }
        // Round the grant up one chunk within both bounds so the next few
        // rows stay on the lock-free fast path.
        let grant = (need + GRANT_CHUNK).min(cap).min(headroom).max(need);
        st.in_use = st.in_use - held + grant;
        if st.in_use > st.peak {
            st.peak = st.in_use;
            self.inner.metrics.note_mem_peak(st.in_use);
        }
        drop(st);
        self.inner.metrics.add_mem_granted(grant - held);
        Some(grant)
    }

    fn release(&self, held: u64, down_to: u64) {
        if held <= down_to {
            return;
        }
        let mut st = self.inner.state.lock();
        st.in_use -= held - down_to;
    }
}

/// One operator instance's memory holding. Not clonable; dropping releases
/// everything held back to the governor.
#[derive(Debug)]
pub struct MemLease {
    gov: MemoryGovernor,
    class: MemClass,
    held: u64,
    /// Latches `mem_waited`: one count per denial *episode*, reset by a
    /// successful grant or a shrink (spill) — a caller with no spill path
    /// (aggregation) that keeps asking as it grows does not inflate the
    /// pressure metric by one per batch.
    denied: bool,
}

impl MemLease {
    /// Units currently held by this lease.
    pub fn held(&self) -> u64 {
        self.held
    }

    /// Ensure the lease covers `need` units, growing it if necessary.
    /// `true` ⇒ the caller may keep `need` units in memory. `false` ⇒ the
    /// governor denied the growth (class cap or global budget): spill, fall
    /// back, or proceed degraded — nothing was acquired. Never blocks.
    #[must_use]
    pub fn covers(&mut self, need: usize) -> bool {
        let need = need as u64;
        if need <= self.held {
            return true;
        }
        match self.gov.grow(self.class, self.held, need) {
            Some(granted) => {
                self.held = granted;
                self.denied = false;
                true
            }
            None => {
                if !self.denied {
                    self.denied = true;
                    self.gov.inner.metrics.add_mem_waited();
                }
                false
            }
        }
    }

    /// Hand back everything above `units` (e.g. after spilling a run).
    pub fn shrink_to(&mut self, units: usize) {
        let units = (units as u64).min(self.held);
        self.gov.release(self.held, units);
        self.held = units;
        self.denied = false;
    }
}

impl Drop for MemLease {
    fn drop(&mut self) {
        self.gov.release(self.held, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(global: u64, sort: u64, hash: u64) -> (MemoryGovernor, Metrics) {
        let m = Metrics::new();
        (MemoryGovernor::new(global, sort, hash, m.clone()), m)
    }

    #[test]
    fn class_cap_denies_and_counts() {
        let (g, m) = gov(1_000_000, 100, 50);
        let mut sort = g.lease(MemClass::Sort);
        assert!(sort.covers(100), "exactly the cap is grantable");
        assert!(!sort.covers(101), "past the cap is denied");
        let mut hash = g.lease(MemClass::Hash);
        assert!(hash.covers(50));
        assert!(!hash.covers(51));
        assert_eq!(m.snapshot().mem_waited, 2);
        assert!(m.snapshot().mem_granted >= 150);
    }

    #[test]
    fn global_budget_bounds_total_and_peak() {
        let (g, m) = gov(150, 100, 100);
        let mut a = g.lease(MemClass::Sort);
        let mut b = g.lease(MemClass::Hash);
        assert!(a.covers(100));
        assert!(!b.covers(100), "only 50 units of global headroom remain");
        assert!(b.covers(50), "an exact-fit request is granted");
        assert!(g.in_use() <= 150);
        drop(a);
        assert!(b.covers(100), "released units become available");
        drop(b);
        assert_eq!(g.in_use(), 0, "all leases returned");
        assert!(g.peak() <= 150, "in-use never exceeded the global budget");
        assert_eq!(m.snapshot().mem_peak, g.peak());
    }

    #[test]
    fn denials_latch_per_episode() {
        let (g, m) = gov(1_000_000, 100, 100);
        let mut a = g.lease(MemClass::Agg);
        assert!(a.covers(100));
        // A caller with no spill path keeps asking as it grows: one count.
        for need in 101..200 {
            assert!(!a.covers(need));
        }
        assert_eq!(m.snapshot().mem_waited, 1, "denial episode counts once");
        // A shrink (spill) resets the latch: new pressure is a new episode.
        a.shrink_to(0);
        assert!(a.covers(100));
        assert!(!a.covers(101));
        assert!(!a.covers(102));
        assert_eq!(m.snapshot().mem_waited, 2);
    }

    #[test]
    fn shrink_returns_units() {
        let (g, _m) = gov(1000, 500, 500);
        let mut a = g.lease(MemClass::Sort);
        assert!(a.covers(400));
        a.shrink_to(0);
        assert_eq!(a.held(), 0);
        assert_eq!(g.in_use(), 0);
        assert!(a.covers(500), "lease is reusable after a spill");
    }

    #[test]
    fn chunked_growth_stays_within_caps() {
        let (g, _m) = gov(1000, 100, 100);
        let mut a = g.lease(MemClass::Sort);
        assert!(a.covers(1));
        assert!(a.held() <= 100, "chunk rounding never exceeds the class cap");
        assert!(a.held() >= 1);
        // The fast path needs no lock until the chunk is consumed.
        let before = g.in_use();
        assert!(a.covers(a.held() as usize));
        assert_eq!(g.in_use(), before);
    }
}
