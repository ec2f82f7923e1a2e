//! Run-time deadlock detection for simultaneously pipelined plans.
//!
//! Pipelining one producer to N consumers can deadlock (paper §3.3, §4.3.3):
//! if query A needs scan S1 to advance before it consumes from S2, while
//! query B needs the opposite, and both scans are shared, each producer ends
//! up waiting on a consumer that is itself waiting — a cycle.
//!
//! Following the paper (and its companion tech report \[30\]) we model this
//! with a **waits-for graph built from buffer states** rather than static
//! plan analysis: an edge `u → v` exists iff the thread driving packet `u`
//! is *currently blocked* on a pipe whose progress only packet `v` can make
//! (a producer blocked on a full queue waits for that queue's consumer; a
//! consumer blocked on an empty pipe waits for the producer). A cycle in this
//! graph is a *real* deadlock — no assumptions about producer/consumer rates
//! are needed — and it is resolved by **materializing** (unbounding) the
//! minimum-cost pipe on the cycle, which removes the producer's wait edge.
//!
//! This is the engine's only stall resolver. Every packet runs on a thread of
//! its own (`pool.rs` grows packet pools on demand), so "blocked on a pipe" is
//! the only way a packet waits and a cycle the only way a plan wedges.
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
use qpipe_common::{Metrics, QError, QResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Identifies a packet (one plan-node execution) in the waits-for graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Why a thread is blocked on a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Producer blocked: `holder`'s queue on `pipe_id` is full. Resolvable
    /// by materializing (unbounding) the pipe.
    ProducerFull,
    /// Consumer blocked: `pipe_id` is empty, waiting for `holder` to
    /// produce. Materialization does not help; the cycle must be broken at
    /// one of its producer edges.
    ConsumerEmpty,
}

/// A waits-for edge: `waiter` is blocked on `pipe_id`, waiting for `holder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub waiter: NodeId,
    pub holder: NodeId,
    pub pipe_id: u64,
    pub kind: WaitKind,
    /// Batches the pipe had produced when the waiter blocked. Either wait
    /// ends only around a push (a full queue refills, an empty one fills), so
    /// the edge describes the same, uninterrupted wait for exactly as long as
    /// its condition holds and the pipe has produced nothing since.
    pub produced: u64,
}

/// Registry of current waits-for edges plus weak handles to live pipes.
#[derive(Debug, Default)]
pub struct WaitRegistry {
    /// A blocked thread registers edges to every node it waits for (a
    /// producer blocked on a full pipe waits for *all* full consumers),
    /// keyed by waiter; the whole set clears when it wakes.
    edges: Mutex<HashMap<NodeId, Vec<WaitEdge>>>,
    /// Every live pipe: [`Pipe::new`] enters it, `Drop` removes it.
    pipes: Mutex<HashMap<u64, Weak<Pipe>>>,
}

impl WaitRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `waiter` is blocked on `pipe_id` (which has `produced`
    /// batches so far) waiting for each of `holders` (OR-semantics in
    /// resolution; AND for detection safety).
    pub fn add_edges(
        &self,
        waiter: NodeId,
        holders: &[NodeId],
        pipe_id: u64,
        kind: WaitKind,
        produced: u64,
    ) {
        let edge = |&holder| WaitEdge { waiter, holder, pipe_id, kind, produced };
        self.edges.lock().entry(waiter).or_default().extend(holders.iter().map(edge));
    }

    /// Clear `waiter`'s edges (called when it wakes).
    pub fn remove_edge(&self, waiter: NodeId) {
        self.edges.lock().remove(&waiter);
    }

    /// Snapshot of current edges.
    pub fn edges(&self) -> Vec<WaitEdge> {
        self.edges.lock().values().flatten().copied().collect()
    }

    /// Make a new pipe visible to the resolver (called by [`Pipe::new`]).
    pub(crate) fn track_pipe(&self, pipe: &Arc<Pipe>) {
        self.pipes.lock().insert(pipe.id(), Arc::downgrade(pipe));
    }

    /// Forget a pipe (called when it drops).
    pub(crate) fn untrack_pipe(&self, id: u64) {
        self.pipes.lock().remove(&id);
    }

    /// The registry lock is released before the caller touches the pipe: pipe
    /// code takes registry locks while holding its own, never the reverse.
    fn pipe(&self, id: u64) -> Option<Arc<Pipe>> {
        self.pipes.lock().get(&id).and_then(|w| w.upgrade())
    }
}

/// Find one cycle in the waits-for graph; returns the edges along it.
///
/// General iterative DFS with colors (a blocked producer can wait for many
/// consumers at once, so out-degree may exceed 1).
pub fn find_cycle(edges: &[WaitEdge]) -> Option<Vec<WaitEdge>> {
    let mut adj: HashMap<NodeId, Vec<WaitEdge>> = HashMap::new();
    for e in edges {
        adj.entry(e.waiter).or_default().push(*e);
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<NodeId, Color> = HashMap::new();
    let nodes: Vec<NodeId> = adj.keys().copied().collect();
    for &start in &nodes {
        if *color.get(&start).unwrap_or(&Color::White) != Color::White {
            continue;
        }
        // Stack of (node, next-edge-index); path holds the edge taken into
        // each gray node after the first.
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
        let mut path: Vec<WaitEdge> = Vec::new();
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let out = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *idx >= out.len() {
                color.insert(node, Color::Black);
                stack.pop();
                path.pop();
                continue;
            }
            let edge = out[*idx];
            *idx += 1;
            match *color.get(&edge.holder).unwrap_or(&Color::White) {
                Color::Gray => {
                    // Cycle: the suffix of `path` from where `edge.holder`
                    // entered the DFS stack, closed by `edge` itself.
                    let pos = stack.iter().position(|&(n, _)| n == edge.holder);
                    let mut cycle = match pos {
                        Some(pos) => path[pos..].to_vec(),
                        None => Vec::new(),
                    };
                    cycle.push(edge);
                    return Some(cycle);
                }
                Color::Black => {}
                Color::White => {
                    color.insert(edge.holder, Color::Gray);
                    stack.push((edge.holder, 0));
                    path.push(edge);
                }
            }
        }
    }
    None
}

/// Given a cycle, choose the pipe to materialize: among the cycle's
/// *producer-wait* edges (the only ones materialization can unblock), the
/// pipe with the smallest materialization cost (paper \[30\]: minimize the
/// cost of the materialized set; one per detected cycle, iterating until
/// acyclic).
pub fn choose_victim(cycle: &[WaitEdge], cost: impl Fn(u64) -> usize) -> Option<u64> {
    cycle
        .iter()
        .filter(|e| e.kind == WaitKind::ProducerFull)
        .map(|e| e.pipe_id)
        .min_by_key(|&p| cost(p))
}

/// Background detector thread: periodically scans the waits-for graph and
/// materializes the cheapest pipe on any cycle.
pub struct DeadlockDetector {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DeadlockDetector {
    /// `Err` when the OS refuses the detector thread.
    pub fn spawn(
        registry: Arc<WaitRegistry>,
        metrics: Metrics,
        interval: Duration,
    ) -> QResult<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        // lint:allow(R2): the detector owns its JoinHandle; Drop sets the stop flag then joins, so it cannot outlive the engine
        let handle = std::thread::Builder::new()
            .name("qpipe-deadlock".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    resolve_once(&registry, &metrics);
                }
            })
            .map_err(|e| QError::Exec(format!("spawn deadlock detector: {e}")))?;
        Ok(Self { stop, handle: Some(handle) })
    }
}

/// One detection/resolution pass (also used directly by tests).
pub fn resolve_once(registry: &WaitRegistry, metrics: &Metrics) -> bool {
    let edges = registry.edges();
    let Some(cycle) = find_cycle(&edges) else {
        return false;
    };
    // Re-check every edge against its pipe (under the pipe's lock, holding
    // no registry lock): a cycle through a stale edge is not a deadlock.
    let holds = |e: &WaitEdge| registry.pipe(e.pipe_id).is_some_and(|p| p.edge_holds(e));
    if !cycle.iter().all(holds) {
        return false;
    }
    let victim = choose_victim(&cycle, |p| {
        registry.pipe(p).map(|pipe| pipe.materialize_cost()).unwrap_or(usize::MAX)
    });
    if let Some(pipe) = victim.and_then(|id| registry.pipe(id)) {
        pipe.materialize();
        metrics.add_deadlock_resolved();
        return true;
    }
    false
}

impl Drop for DeadlockDetector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(w: u64, h: u64, p: u64) -> WaitEdge {
        let kind = WaitKind::ProducerFull;
        WaitEdge { waiter: NodeId(w), holder: NodeId(h), pipe_id: p, kind, produced: 0 }
    }

    fn ce(w: u64, h: u64, p: u64) -> WaitEdge {
        let kind = WaitKind::ConsumerEmpty;
        WaitEdge { waiter: NodeId(w), holder: NodeId(h), pipe_id: p, kind, produced: 0 }
    }

    #[test]
    fn no_cycle_in_chain() {
        assert!(find_cycle(&[e(1, 2, 10), e(2, 3, 11)]).is_none());
        assert!(find_cycle(&[]).is_none());
    }

    #[test]
    fn two_node_cycle() {
        let cycle = find_cycle(&[e(1, 2, 10), e(2, 1, 11)]).expect("cycle");
        assert_eq!(cycle.len(), 2);
        let pipes: Vec<u64> = cycle.iter().map(|x| x.pipe_id).collect();
        assert!(pipes.contains(&10) && pipes.contains(&11));
    }

    #[test]
    fn cycle_with_tail() {
        // 0 → 1 → 2 → 3 → 1 : cycle is {1,2,3}.
        let cycle =
            find_cycle(&[e(0, 1, 9), e(1, 2, 10), e(2, 3, 11), e(3, 1, 12)]).expect("cycle");
        assert_eq!(cycle.len(), 3);
        assert!(!cycle.iter().any(|x| x.pipe_id == 9), "tail edge not in cycle");
    }

    #[test]
    fn self_loop() {
        let cycle = find_cycle(&[e(5, 5, 42)]).expect("self loop is a cycle");
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle[0].pipe_id, 42);
    }

    #[test]
    fn disjoint_components_one_cyclic() {
        let edges = [e(1, 2, 10), e(7, 8, 20), e(8, 7, 21)];
        let cycle = find_cycle(&edges).expect("cycle in second component");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn victim_is_min_cost() {
        let cycle = [e(1, 2, 10), e(2, 1, 11)];
        let victim = choose_victim(&cycle, |p| if p == 10 { 5 } else { 2 });
        assert_eq!(victim, Some(11));
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
        let full = Pipe::new(config, NodeId(1), registry.clone());
        let empty = Pipe::new(config, NodeId(1), registry.clone());
        let on_full = full.attach_consumer(NodeId(2));
        let _on_empty = empty.attach_consumer(NodeId(2));
        let mut producer = full.producer();
        let mut push = || push_rows(&mut producer, &[vec![qpipe_common::Value::Int(1)]]);
        push();
        registry.add_edges(NodeId(1), &[NodeId(2)], full.id(), WaitKind::ProducerFull, 1);
        registry.add_edges(NodeId(2), &[NodeId(1)], empty.id(), WaitKind::ConsumerEmpty, 0);

        // Node 2 was notified and drained `full`, but the registry still
        // shows both waits.
        assert!(on_full.recv().unwrap().is_some());
        assert!(find_cycle(&registry.edges()).is_some());
        assert!(!resolve_once(&registry, &metrics), "`full` is no longer full");
        // Full again — by a later batch: not the wait that was registered.
        push();
        assert!(!resolve_once(&registry, &metrics), "`full` has moved since node 1 blocked");
        registry.remove_edge(NodeId(1));
        registry.add_edges(NodeId(1), &[NodeId(2)], full.id(), WaitKind::ProducerFull, 2);
        assert!(resolve_once(&registry, &metrics), "every edge holds: a deadlock");
        assert!(!resolve_once(&registry, &metrics), "a materialized pipe blocks no producer");
        assert_eq!(metrics.snapshot().deadlocks_resolved, 1);
    }

    #[test]
    fn dropped_pipe_leaves_the_registry() {
        use crate::pipe::PipeConfig;
        let registry = Arc::new(WaitRegistry::new());
        let pipe = Pipe::new(PipeConfig::default(), NodeId(1), registry.clone());
        let id = pipe.id();
        assert!(registry.pipe(id).is_some(), "Pipe::new registers the pipe");
        drop(pipe);
        assert!(registry.pipes.lock().is_empty());
    }

    #[test]
    fn registry_edge_lifecycle() {
        let r = WaitRegistry::new();
        r.add_edges(NodeId(1), &[NodeId(2)], 7, WaitKind::ProducerFull, 0);
        assert_eq!(r.edges().len(), 1);
        r.remove_edge(NodeId(1));
        assert!(r.edges().is_empty());
    }

    #[test]
    fn victim_never_a_consumer_wait_pipe() {
        // Mixed cycle: producer edges on pipes 11/12, consumer edges on
        // 10/13. Even though the consumer pipes are empty (cost 0), the
        // victim must be a producer-wait pipe.
        let cycle = [ce(1, 2, 10), e(2, 3, 11), ce(3, 4, 13), e(4, 1, 12)];
        let victim = choose_victim(&cycle, |p| if (11..=12).contains(&p) { 5 } else { 0 });
        assert!(victim == Some(11) || victim == Some(12), "{victim:?}");
        // All-consumer cycle: no resolvable victim.
        assert_eq!(choose_victim(&[ce(1, 2, 10), ce(2, 1, 11)], |_| 0), None);
    }
}
