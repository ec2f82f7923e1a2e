//! Replacement policies.
//!
//! The two eviction policies the evaluated systems run (§5): plain LRU —
//! BerkeleyDB's, under QPipe and the Baseline — and the scan-resistant 2Q
//! (§2.1 ref \[18\]) standing in for DBMS X's better buffer manager. The
//! buffer pool drives them through a small trait: `on_access(key, resident)`
//! on every lookup, `victim()` when a slot is needed, `on_insert(key)` after
//! a miss brings a page in.
//!
//! Both policies only track *keys*; the pool owns the pages.

use crate::disk::FileId;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Cache key: one page of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    pub file: FileId,
    pub block: u64,
}

use super::PolicyKind;

/// Replacement policy driven by the buffer pool.
pub trait ReplacementPolicy: Send {
    /// Record a lookup of `key`. `resident` is true on a cache hit.
    fn on_access(&mut self, key: PageKey, resident: bool);
    /// Choose a resident page to evict and forget it.
    fn victim(&mut self) -> Option<PageKey>;
    /// Record that `key` became resident after a miss.
    fn on_insert(&mut self, key: PageKey);
}

/// Build a policy instance.
pub fn new_policy(kind: PolicyKind, capacity: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new()),
        PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Classic least-recently-used, via a logical timestamp per resident key.
#[derive(Debug, Default)]
pub struct Lru {
    clock: u64,
    stamp: HashMap<PageKey, u64>,
    order: BTreeSet<(u64, PageKey)>,
}

impl Lru {
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, key: PageKey) {
        self.clock += 1;
        if let Some(old) = self.stamp.insert(key, self.clock) {
            self.order.remove(&(old, key));
        }
        self.order.insert((self.clock, key));
    }
}

impl ReplacementPolicy for Lru {
    fn on_access(&mut self, key: PageKey, resident: bool) {
        if resident {
            self.touch(key);
        }
    }

    fn victim(&mut self) -> Option<PageKey> {
        let &(stamp, key) = self.order.iter().next()?;
        self.order.remove(&(stamp, key));
        self.stamp.remove(&key);
        Some(key)
    }

    fn on_insert(&mut self, key: PageKey) {
        self.touch(key);
    }
}

// ---------------------------------------------------------------------------
// 2Q
// ---------------------------------------------------------------------------

/// Simplified full 2Q \[18\]: new pages enter a FIFO probationary queue (A1in);
/// on eviction from A1in their identity moves to a ghost queue (A1out); a
/// reference while in the ghost queue promotes the page to the main LRU (Am).
/// Sequential floods churn A1in and never displace the hot set in Am.
#[derive(Debug)]
pub struct TwoQ {
    a1in_cap: usize,
    a1out_cap: usize,
    a1in: VecDeque<PageKey>,
    a1in_set: HashSet<PageKey>,
    a1out: VecDeque<PageKey>,
    a1out_set: HashSet<PageKey>,
    am: Lru,
    am_set: HashSet<PageKey>,
    /// Keys seen in the ghost queue at miss time, to route the next insert.
    promote_next: HashSet<PageKey>,
}

impl TwoQ {
    pub fn new(capacity: usize) -> Self {
        Self {
            a1in_cap: (capacity / 4).max(1),
            a1out_cap: (capacity / 2).max(1),
            a1in: VecDeque::new(),
            a1in_set: HashSet::new(),
            a1out: VecDeque::new(),
            a1out_set: HashSet::new(),
            am: Lru::new(),
            am_set: HashSet::new(),
            promote_next: HashSet::new(),
        }
    }

    fn ghost_remember(&mut self, key: PageKey) {
        if self.a1out_set.insert(key) {
            self.a1out.push_back(key);
            while self.a1out.len() > self.a1out_cap {
                if let Some(old) = self.a1out.pop_front() {
                    self.a1out_set.remove(&old);
                }
            }
        }
    }
}

impl ReplacementPolicy for TwoQ {
    fn on_access(&mut self, key: PageKey, resident: bool) {
        if resident {
            if self.am_set.contains(&key) {
                self.am.on_access(key, true);
            }
            // A hit in A1in deliberately does nothing (2Q rule): correlated
            // references within the probationary window don't promote.
        } else if self.a1out_set.contains(&key) {
            self.promote_next.insert(key);
        }
    }

    fn victim(&mut self) -> Option<PageKey> {
        if self.a1in.len() >= self.a1in_cap {
            if let Some(key) = self.a1in.pop_front() {
                self.a1in_set.remove(&key);
                self.ghost_remember(key);
                return Some(key);
            }
        }
        if let Some(key) = self.am.victim() {
            self.am_set.remove(&key);
            return Some(key);
        }
        // Fall back to draining A1in even below its nominal size.
        if let Some(key) = self.a1in.pop_front() {
            self.a1in_set.remove(&key);
            self.ghost_remember(key);
            return Some(key);
        }
        None
    }

    fn on_insert(&mut self, key: PageKey) {
        if self.promote_next.remove(&key) {
            // Was in the ghost queue: straight into the hot LRU.
            self.a1out_set.remove(&key);
            self.am.on_insert(key);
            self.am_set.insert(key);
        } else {
            self.a1in.push_back(key);
            self.a1in_set.insert(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(block: u64) -> PageKey {
        PageKey { file: FileId(1), block }
    }

    /// Drive a policy like the pool does, returning the final resident set.
    fn simulate(
        policy: &mut dyn ReplacementPolicy,
        capacity: usize,
        accesses: &[u64],
    ) -> HashSet<u64> {
        let mut resident: HashSet<u64> = HashSet::new();
        for &b in accesses {
            let hit = resident.contains(&b);
            policy.on_access(k(b), hit);
            if !hit {
                while resident.len() >= capacity {
                    let v = policy.victim().expect("victim available");
                    assert!(resident.remove(&v.block), "victim {v:?} must be resident");
                }
                resident.insert(b);
                policy.on_insert(k(b));
            }
        }
        resident
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut p = Lru::new();
        let r = simulate(&mut p, 3, &[1, 2, 3, 1, 4]);
        assert!(r.contains(&1) && r.contains(&3) && r.contains(&4), "{r:?}");
    }

    #[test]
    fn twoq_scan_resistant() {
        let mut p = TwoQ::new(8);
        // Warm the hot set so it reaches Am (needs a ghost round trip):
        let mut accesses = vec![];
        accesses.extend(1..=8); // fill
        accesses.extend(20..40); // flood pushes 1..8 through ghosts
        accesses.extend(1..=4); // ghost hits → Am
        accesses.extend(50..80); // second flood
        accesses.extend(1..=4);
        let r = simulate(&mut p, 8, &accesses);
        assert!((1..=4).all(|b| r.contains(&b)), "2Q should keep ghost-promoted hot pages: {r:?}");
    }

    #[test]
    fn victim_on_empty_is_none() {
        for kind in [PolicyKind::Lru, PolicyKind::TwoQ] {
            let mut p = new_policy(kind, 4);
            assert!(p.victim().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn policies_never_return_nonresident_victims() {
        // Randomized consistency check across both policies.
        let accesses: Vec<u64> = (0..500u64).map(|i| (i * 7919 + i * i * 31) % 37).collect();
        for kind in [PolicyKind::Lru, PolicyKind::TwoQ] {
            let mut p = new_policy(kind, 8);
            // simulate() asserts internally that victims are resident.
            let r = simulate(&mut *p, 8, &accesses);
            assert!(r.len() <= 8);
        }
    }
}
