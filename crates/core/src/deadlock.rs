//! Run-time deadlock detection for simultaneously pipelined plans.
//!
//! Sharing one producer's output among several queries can deadlock (paper
//! §3.3, §4.3.3): if query A needs scan S1 to advance before it consumes from
//! S2, while query B needs the opposite, and both scans are shared, each scan
//! ends up blocked on a full pipe to a query that is itself waiting for the
//! other scan — a cycle.
//!
//! Following the paper (and its companion tech report \[30\]) we model this
//! with a **waits-for graph built from buffer states** rather than static
//! plan analysis: an edge `u → v` exists iff the thread driving packet `u`
//! is *currently blocked* on a pipe whose progress only packet `v` can make
//! (a producer blocked on a full pipe waits for its consumer; a consumer
//! blocked on an empty pipe waits for its producer). A pipe joins one
//! producer to one consumer and a thread blocks on one pipe at a time, so
//! every node has at most one out-edge. A cycle in this graph is a *real*
//! deadlock — no assumptions about producer/consumer rates are needed — and
//! it is resolved by **materializing** (unbounding) the minimum-cost pipe on
//! the cycle, which removes the producer's wait edge.
//!
//! This is the engine's only stall resolver, and it has no thread or tick:
//! a cycle is complete the moment its last edge is added, so the waiter
//! adding it finds it ([`WaitRegistry::add_edge`]) and breaks it
//! ([`WaitRegistry::resolve`]). Every packet and every scanner runs on a
//! pool thread of its own (`pool.rs` grows pools on demand), so "blocked on
//! a pipe" is the only way one waits and a cycle the only way a plan wedges.
//!
//! The registry lags the pipes: a woken waiter clears its edge only once it
//! is scheduled again and has re-taken the pipe lock, so a cycle can run
//! through edges that are no longer true (a notified scan still shows "full"
//! while its join, having drained the queue, already registers "empty"). A
//! cycle is therefore acted on only if every edge on it is still the wait it
//! was registered as, by its pipe's own state (`Pipe::edge_holds`). Such an
//! edge has been true without interruption since it was added, so a cycle of
//! them was all true at once — a deadlock. Skipping a cycle with a stale
//! edge loses nothing: that edge's waiter, once it runs, either makes
//! progress or blocks again, adding an edge that closes the cycle anew.

use crate::pipe::Pipe;
use parking_lot::Mutex;
use qpipe_common::Metrics;
use std::collections::HashMap;
use std::sync::Weak;

/// Identifies a packet (one plan-node execution) in the waits-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Why a thread is blocked on a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Producer blocked: the pipe to `holder` is full. Resolvable by
    /// materializing (unbounding) the pipe.
    ProducerFull,
    /// Consumer blocked: the pipe is empty, waiting for `holder` to produce.
    /// Materialization does not help; the cycle must be broken at one of its
    /// producer edges.
    ConsumerEmpty,
}

/// A waits-for edge: `waiter` is blocked on `pipe`, waiting for `holder`.
#[derive(Debug, Clone)]
pub struct WaitEdge {
    pub waiter: NodeId,
    pub holder: NodeId,
    /// The pipe the wait is on: the resolver re-checks the edge against it
    /// and materializes it. Weak, so a registered wait keeps no pipe alive.
    pub pipe: Weak<Pipe>,
    pub kind: WaitKind,
    /// Batches the pipe had produced when the waiter blocked. Either wait
    /// ends only around a push (a full queue refills, an empty one fills), so
    /// the edge describes the same, uninterrupted wait for exactly as long as
    /// its condition holds and the pipe has produced nothing since.
    pub produced: u64,
}

/// Registry of current waits-for edges; resolves the cycles they close.
#[derive(Debug, Default)]
pub struct WaitRegistry {
    /// A blocked thread's one edge, keyed by waiter; cleared when it wakes.
    edges: Mutex<HashMap<NodeId, WaitEdge>>,
    /// Serializes [`resolve`](Self::resolve) (taken holding no pipe lock), so
    /// two waiters of one cycle cannot both find it intact and break it.
    resolving: Mutex<()>,
    /// Counts `deadlocks_resolved`.
    metrics: Metrics,
}

impl WaitRegistry {
    pub fn new(metrics: Metrics) -> Self {
        Self { metrics, ..Self::default() }
    }

    /// Record that `edge.waiter` is blocked; returns the cycle the edge
    /// closes, starting with `edge`. One out-edge per node makes the walk
    /// from the holder unique: it returns to the waiter within `edges.len()`
    /// steps iff the edge closed a cycle. A walk that ends, or runs into an
    /// older cycle, allocates nothing; only a found cycle is collected.
    pub fn add_edge(&self, edge: WaitEdge) -> Option<Vec<WaitEdge>> {
        let mut edges = self.edges.lock();
        let (waiter, mut node) = (edge.waiter, edge.holder);
        edges.insert(waiter, edge);
        for _ in 0..edges.len() {
            if node == waiter {
                let next = |e: &&WaitEdge| edges.get(&e.holder).filter(|_| e.holder != waiter);
                return Some(std::iter::successors(edges.get(&waiter), next).cloned().collect());
            }
            node = edges.get(&node)?.holder;
        }
        None
    }

    /// Clear `waiter`'s edge (called when it wakes).
    pub fn remove_edge(&self, waiter: NodeId) {
        self.edges.lock().remove(&waiter);
    }

    /// Snapshot of current edges.
    pub fn edges(&self) -> Vec<WaitEdge> {
        self.edges.lock().values().cloned().collect()
    }

    /// Break `cycle` if every edge on it still holds by its pipe's own state
    /// (a deadlock): materialize its minimum-cost producer-wait pipe and
    /// count it. Call holding no pipe lock; `true` when it materialized one.
    pub fn resolve(&self, cycle: &[WaitEdge]) -> bool {
        let _one_at_a_time = self.resolving.lock();
        // A cycle through a stale edge is not a deadlock.
        let holds = |e: &WaitEdge| e.pipe.upgrade().is_some_and(|p| p.edge_holds(e));
        if !cycle.iter().all(holds) {
            return false;
        }
        let cost = |e: &WaitEdge| e.pipe.upgrade().map_or(usize::MAX, |p| p.materialize_cost());
        let Some(pipe) = choose_victim(cycle, cost).and_then(|e| e.pipe.upgrade()) else {
            return false;
        };
        pipe.materialize();
        self.metrics.add_deadlock_resolved();
        true
    }
}

/// Given a cycle, choose the edge whose pipe to materialize: among the
/// cycle's *producer-wait* edges (the only ones materialization can
/// unblock), the one with the smallest materialization cost (paper \[30\]:
/// minimize the cost of the materialized set; one per detected cycle,
/// iterating until acyclic).
pub fn choose_victim(cycle: &[WaitEdge], cost: impl Fn(&WaitEdge) -> usize) -> Option<&WaitEdge> {
    cycle.iter().filter(|e| e.kind == WaitKind::ProducerFull).min_by_key(|e| cost(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn edge(w: u64, h: u64, kind: WaitKind) -> WaitEdge {
        WaitEdge { waiter: NodeId(w), holder: NodeId(h), pipe: Weak::new(), kind, produced: 0 }
    }

    fn e(w: u64, h: u64) -> WaitEdge {
        edge(w, h, WaitKind::ProducerFull)
    }

    fn ce(w: u64, h: u64) -> WaitEdge {
        edge(w, h, WaitKind::ConsumerEmpty)
    }

    fn waiters(cycle: &[WaitEdge]) -> Vec<u64> {
        cycle.iter().map(|x| x.waiter.0).collect()
    }

    /// Insert `edges` in order into a fresh registry; what each insert
    /// returned, as the waiters along the cycle it closed.
    fn inserts(edges: &[WaitEdge]) -> Vec<Option<Vec<u64>>> {
        let r = WaitRegistry::default();
        edges.iter().map(|x| r.add_edge(x.clone()).map(|c| waiters(&c))).collect()
    }

    #[test]
    fn the_edge_that_closes_a_cycle_reports_it() {
        assert_eq!(inserts(&[e(1, 2), e(2, 3)]), [None, None], "a chain");
        assert_eq!(inserts(&[e(1, 2), e(2, 1)]), [None, Some(vec![2, 1])]);
        assert_eq!(inserts(&[e(5, 5)]), [Some(vec![5])], "a self loop");
        // 0 → 1 → 2 → 3 → 1: the cycle is {1, 2, 3}; the tail edge is not on
        // it, and a later edge into the cycle closes nothing.
        let tail = [e(0, 1), e(1, 2), e(2, 3), e(3, 1), e(4, 2)];
        assert_eq!(inserts(&tail), [None, None, None, Some(vec![3, 1, 2]), None]);
    }

    /// Random waits-for graphs with at most one out-edge per node, their
    /// edges inserted in random order: an insert returns a cycle exactly when
    /// a brute-force oracle — walk `n` steps from the new edge's waiter and
    /// see whether it comes back — says the edge closed one, and what it
    /// returns is that cycle, starting at the waiter, edge by edge.
    #[test]
    fn add_edge_agrees_with_walking_n_steps_from_the_waiter() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |bound: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let (mut self_loops, mut closing, mut into_older_cycle) = (0, 0, 0);
        for _ in 0..2000 {
            let n = 1 + rand(10);
            let mut edges = Vec::new();
            for v in 0..n {
                if rand(4) != 0 {
                    edges.push(e(v, rand(n)));
                }
            }
            // Any insertion order: swap each edge with a random earlier one.
            for i in 1..edges.len() {
                edges.swap(i, rand(i as u64 + 1) as usize);
            }
            let registry = WaitRegistry::default();
            let mut next: HashMap<u64, u64> = HashMap::new();
            for new in edges {
                let (w, h) = (new.waiter.0, new.holder.0);
                // Does the walk from the holder run into a cycle of older
                // edges (one the waiter is not on)?
                let mut at = h;
                let older = (0..n).all(|_| match next.get(&at) {
                    Some(&to) => {
                        at = to;
                        true
                    }
                    None => false,
                });
                next.insert(w, h);
                let mut at = w;
                let closes = (0..n).any(|_| match next.get(&at) {
                    Some(&to) => {
                        at = to;
                        at == w
                    }
                    None => false,
                });
                let graph = format!("{next:?} after {w} → {h}");
                let found = registry.add_edge(new);
                assert_eq!(found.is_some(), closes, "{graph}");
                let Some(cycle) = found else {
                    into_older_cycle += older as usize;
                    continue;
                };
                closing += 1;
                self_loops += (w == h) as usize;
                assert_eq!(cycle[0].waiter.0, w, "the cycle starts at the waiter: {graph}");
                for (i, edge) in cycle.iter().enumerate() {
                    let after = &cycle[(i + 1) % cycle.len()];
                    assert_eq!(next.get(&edge.waiter.0), Some(&edge.holder.0), "{graph}");
                    assert_eq!(edge.holder, after.waiter, "edges do not chain: {graph}");
                }
                let distinct: HashSet<NodeId> = cycle.iter().map(|x| x.waiter).collect();
                assert_eq!(distinct.len(), cycle.len(), "a node twice: {graph}");
            }
        }
        assert!(
            self_loops > 0 && closing > self_loops && into_older_cycle > 0,
            "{self_loops} {closing} {into_older_cycle}"
        );
    }

    #[test]
    fn victim_is_min_cost() {
        let cycle = [e(1, 2), e(2, 1)];
        let victim = choose_victim(&cycle, |x| if x.waiter == NodeId(1) { 5 } else { 2 });
        assert_eq!(victim.map(|x| x.waiter), Some(NodeId(2)));
    }

    /// Node 1 produces `full` and `empty`; node 2 reads `empty` first while
    /// its queue on `full` is at capacity — a real deadlock, whose edges hold
    /// in the pipes' own state. The same two edges are stale, and the cycle
    /// no deadlock, as soon as either pipe has moved since they were taken.
    #[test]
    fn cycle_is_resolved_only_while_every_edge_still_holds() {
        use crate::pipe::{push_rows, PipeConfig};
        let metrics = Metrics::new();
        let registry = Arc::new(WaitRegistry::new(metrics.clone()));
        let config = PipeConfig { capacity: 1 };
        let (mut producer, on_full) = Pipe::pair(config, NodeId(1), NodeId(2), registry.clone());
        let (empty_out, _on_empty) = Pipe::pair(config, NodeId(1), NodeId(2), registry.clone());
        let full = Arc::downgrade(producer.pipe());
        let empty = Arc::downgrade(empty_out.pipe());
        let wait = |pipe: &Weak<Pipe>, (w, h), kind, produced| WaitEdge {
            waiter: NodeId(w),
            holder: NodeId(h),
            pipe: pipe.clone(),
            kind,
            produced,
        };
        let mut push = || push_rows(&mut producer, &[vec![qpipe_common::Value::Int(1)]]);
        push();
        assert!(registry.add_edge(wait(&full, (1, 2), WaitKind::ProducerFull, 1)).is_none());
        let cycle = registry.add_edge(wait(&empty, (2, 1), WaitKind::ConsumerEmpty, 0));
        let cycle = cycle.expect("node 2's edge closes the cycle");

        // Node 2 was notified and drained `full`, but the registry still
        // shows both waits.
        assert!(on_full.recv().unwrap().is_some());
        assert!(!registry.resolve(&cycle), "`full` is no longer full");
        // Full again — by a later batch: not the wait that was registered.
        push();
        assert!(!registry.resolve(&cycle), "`full` has moved since node 1 blocked");
        registry.remove_edge(NodeId(1));
        let cycle = registry.add_edge(wait(&full, (1, 2), WaitKind::ProducerFull, 2));
        let cycle = cycle.expect("node 1's new edge closes the cycle");
        assert!(registry.resolve(&cycle), "every edge holds: a deadlock");
        assert!(!registry.resolve(&cycle), "a materialized pipe blocks no producer");
        assert_eq!(metrics.snapshot().deadlocks_resolved, 1);
    }

    #[test]
    fn registry_edge_lifecycle() {
        let r = WaitRegistry::default();
        r.add_edge(e(1, 2));
        assert_eq!(r.edges().len(), 1);
        r.remove_edge(NodeId(1));
        assert!(r.edges().is_empty());
    }

    #[test]
    fn victim_never_a_consumer_wait_pipe() {
        // Mixed cycle: producer edges from 2 and 4, consumer edges from 1
        // and 3. Even though the consumer pipes are empty (cost 0), the
        // victim must be a producer-wait pipe.
        let cycle = [ce(1, 2), e(2, 3), ce(3, 4), e(4, 1)];
        let cost = |x: &WaitEdge| if x.kind == WaitKind::ProducerFull { 5 } else { 0 };
        let victim = choose_victim(&cycle, cost).map(|x| x.waiter);
        assert!(victim == Some(NodeId(2)) || victim == Some(NodeId(4)), "{victim:?}");
        // All-consumer cycle: no resolvable victim.
        assert!(choose_victim(&[ce(1, 2), ce(2, 1)], |_| 0).is_none());
    }
}
