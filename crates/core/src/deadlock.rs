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
//! This is the engine's only stall resolver, and it has no thread of its
//! own: the engine's one service thread (`pool.rs`'s `ServiceThread`) runs a
//! [`resolve_once`] pass every tick. Every packet and every scanner runs on a
//! pool thread of its own (`pool.rs` grows pools on demand), so "blocked on
//! a pipe" is the only way one waits and a cycle the only way a plan wedges.
//!
//! The registry lags the pipes: a woken waiter clears its edge only once it
//! is scheduled again and has re-taken the pipe lock, so a snapshot can hold
//! edges that are no longer true (a notified scan still shows "full" while
//! its join, having drained the queue, already registers "empty"). A cycle is
//! therefore acted on only if every edge on it is still the wait it was
//! registered as, by its pipe's own state (`Pipe::edge_holds`). Such an
//! edge has been true without interruption since before the snapshot, so a
//! cycle of them was all true at the snapshot instant — a deadlock — while
//! the edges of a real deadlock cannot go stale, so skipping a cycle with a
//! stale edge never loses one.

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
    /// The pipe the wait is on: the detector re-checks the edge against it
    /// and materializes it. Weak, so a registered wait keeps no pipe alive.
    pub pipe: Weak<Pipe>,
    pub kind: WaitKind,
    /// Batches the pipe had produced when the waiter blocked. Either wait
    /// ends only around a push (a full queue refills, an empty one fills), so
    /// the edge describes the same, uninterrupted wait for exactly as long as
    /// its condition holds and the pipe has produced nothing since.
    pub produced: u64,
}

/// Registry of current waits-for edges.
#[derive(Debug, Default)]
pub struct WaitRegistry {
    /// A blocked thread's one edge, keyed by waiter; cleared when it wakes.
    edges: Mutex<HashMap<NodeId, WaitEdge>>,
}

impl WaitRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `edge.waiter` is blocked.
    pub fn add_edge(&self, edge: WaitEdge) {
        self.edges.lock().insert(edge.waiter, edge);
    }

    /// Clear `waiter`'s edge (called when it wakes).
    pub fn remove_edge(&self, waiter: NodeId) {
        self.edges.lock().remove(&waiter);
    }

    /// Snapshot of current edges.
    pub fn edges(&self) -> Vec<WaitEdge> {
        self.edges.lock().values().cloned().collect()
    }
}

/// Find one cycle in the waits-for graph; returns the edges along it.
///
/// Every node has at most one out-edge, so from each node there is exactly
/// one walk: it ends at a node that waits for nothing, runs into a node an
/// earlier walk already visited (whose walk found no cycle), or comes back to
/// a node of its own — the cycle. Each node is visited once.
pub fn find_cycle(edges: &[WaitEdge]) -> Option<Vec<WaitEdge>> {
    let next: HashMap<NodeId, &WaitEdge> = edges.iter().map(|e| (e.waiter, e)).collect();
    // The walk that first reached each node.
    let mut walked: HashMap<NodeId, usize> = HashMap::new();
    for (walk, start) in edges.iter().enumerate() {
        let mut path: Vec<&WaitEdge> = Vec::new();
        let mut node = start.waiter;
        loop {
            match walked.get(&node) {
                Some(&w) if w == walk => {
                    let cycle = path.into_iter().skip_while(|e| e.waiter != node);
                    return Some(cycle.cloned().collect());
                }
                Some(_) => break,
                None => {}
            }
            walked.insert(node, walk);
            let Some(&edge) = next.get(&node) else { break };
            path.push(edge);
            node = edge.holder;
        }
    }
    None
}

/// Given a cycle, choose the edge whose pipe to materialize: among the
/// cycle's *producer-wait* edges (the only ones materialization can
/// unblock), the one with the smallest materialization cost (paper \[30\]:
/// minimize the cost of the materialized set; one per detected cycle,
/// iterating until acyclic).
pub fn choose_victim(cycle: &[WaitEdge], cost: impl Fn(&WaitEdge) -> usize) -> Option<&WaitEdge> {
    cycle.iter().filter(|e| e.kind == WaitKind::ProducerFull).min_by_key(|e| cost(e))
}

/// One detection/resolution pass: the engine's service thread runs one per
/// tick (`QPipeConfig::service_interval`).
pub fn resolve_once(registry: &WaitRegistry, metrics: &Metrics) -> bool {
    let edges = registry.edges();
    let Some(cycle) = find_cycle(&edges) else {
        return false;
    };
    // Re-check every edge against its pipe (under the pipe's lock, holding
    // no registry lock): a cycle through a stale edge is not a deadlock.
    let holds = |e: &WaitEdge| e.pipe.upgrade().is_some_and(|p| p.edge_holds(e));
    if !cycle.iter().all(holds) {
        return false;
    }
    let cost = |e: &WaitEdge| e.pipe.upgrade().map_or(usize::MAX, |p| p.materialize_cost());
    if let Some(pipe) = choose_victim(&cycle, cost).and_then(|e| e.pipe.upgrade()) {
        pipe.materialize();
        metrics.add_deadlock_resolved();
        return true;
    }
    false
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
        let mut w: Vec<u64> = cycle.iter().map(|x| x.waiter.0).collect();
        w.sort_unstable();
        w
    }

    #[test]
    fn no_cycle_in_chain() {
        assert!(find_cycle(&[e(1, 2), e(2, 3)]).is_none());
        assert!(find_cycle(&[]).is_none());
    }

    #[test]
    fn two_node_cycle() {
        let cycle = find_cycle(&[e(1, 2), e(2, 1)]).expect("cycle");
        assert_eq!(waiters(&cycle), [1, 2]);
    }

    #[test]
    fn cycle_with_tail() {
        // 0 → 1 → 2 → 3 → 1 : cycle is {1,2,3}.
        let cycle = find_cycle(&[e(0, 1), e(1, 2), e(2, 3), e(3, 1)]).expect("cycle");
        assert_eq!(waiters(&cycle), [1, 2, 3], "tail edge not in cycle");
    }

    #[test]
    fn self_loop() {
        let cycle = find_cycle(&[e(5, 5)]).expect("self loop is a cycle");
        assert_eq!(waiters(&cycle), [5]);
    }

    #[test]
    fn disjoint_components_one_cyclic() {
        let edges = [e(1, 2), e(7, 8), e(8, 7)];
        let cycle = find_cycle(&edges).expect("cycle in second component");
        assert_eq!(waiters(&cycle), [7, 8]);
    }

    /// Random waits-for graphs with at most one out-edge per node: the walk
    /// finds a cycle exactly when a brute-force oracle — walk `n` steps from
    /// every node and see whether it comes back — does, and what it returns
    /// is one of the graph's cycles, edge by edge.
    #[test]
    fn find_cycle_agrees_with_walking_n_steps_from_every_node() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |bound: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let (mut self_loops, mut tails, mut two_cycles) = (0, 0, 0);
        for _ in 0..2000 {
            let n = 1 + rand(10);
            let mut next: HashMap<u64, u64> = HashMap::new();
            for v in 0..n {
                if rand(4) != 0 {
                    next.insert(v, rand(n));
                }
            }
            let mut edges: Vec<WaitEdge> = next.iter().map(|(&w, &h)| e(w, h)).collect();
            // Any start order: swap each edge with a random earlier one.
            for i in 1..edges.len() {
                edges.swap(i, rand(i as u64 + 1) as usize);
            }
            let returns = |v: u64| {
                let mut at = v;
                (0..n).any(|_| match next.get(&at) {
                    Some(&h) => {
                        at = h;
                        at == v
                    }
                    None => false,
                })
            };
            let on_cycle: HashSet<u64> = (0..n).filter(|&v| returns(v)).collect();
            // A cycle is named by its smallest node.
            let name = |v: u64| {
                let (mut at, mut min) = (v, v);
                for _ in 0..n {
                    at = next[&at];
                    min = min.min(at);
                }
                min
            };
            let cycles: HashSet<u64> = on_cycle.iter().map(|&v| name(v)).collect();
            self_loops += next.iter().filter(|(w, h)| w == h).count();
            tails +=
                next.keys().any(|v| !on_cycle.contains(v) && on_cycle.contains(&next[v])) as usize;
            two_cycles += (cycles.len() >= 2) as usize;

            let found = find_cycle(&edges);
            assert_eq!(found.is_some(), !on_cycle.is_empty(), "graph {next:?}");
            let Some(cycle) = found else { continue };
            for (i, edge) in cycle.iter().enumerate() {
                let after = &cycle[(i + 1) % cycle.len()];
                assert_eq!(next.get(&edge.waiter.0), Some(&edge.holder.0), "not an edge: {next:?}");
                assert_eq!(edge.holder, after.waiter, "edges do not chain: {next:?}");
                assert!(on_cycle.contains(&edge.waiter.0), "not on a cycle: {next:?}");
            }
            let distinct: HashSet<NodeId> = cycle.iter().map(|x| x.waiter).collect();
            assert_eq!(distinct.len(), cycle.len(), "a node twice: {next:?}");
        }
        assert!(self_loops > 0 && tails > 0 && two_cycles > 0, "{self_loops} {tails} {two_cycles}");
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
        let registry = Arc::new(WaitRegistry::new());
        let metrics = Metrics::new();
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
        registry.add_edge(wait(&full, (1, 2), WaitKind::ProducerFull, 1));
        registry.add_edge(wait(&empty, (2, 1), WaitKind::ConsumerEmpty, 0));

        // Node 2 was notified and drained `full`, but the registry still
        // shows both waits.
        assert!(on_full.recv().unwrap().is_some());
        assert!(find_cycle(&registry.edges()).is_some());
        assert!(!resolve_once(&registry, &metrics), "`full` is no longer full");
        // Full again — by a later batch: not the wait that was registered.
        push();
        assert!(!resolve_once(&registry, &metrics), "`full` has moved since node 1 blocked");
        registry.remove_edge(NodeId(1));
        registry.add_edge(wait(&full, (1, 2), WaitKind::ProducerFull, 2));
        assert!(resolve_once(&registry, &metrics), "every edge holds: a deadlock");
        assert!(!resolve_once(&registry, &metrics), "a materialized pipe blocks no producer");
        assert_eq!(metrics.snapshot().deadlocks_resolved, 1);
    }

    #[test]
    fn registry_edge_lifecycle() {
        let r = WaitRegistry::new();
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
