//! Query packets.
//!
//! The packet dispatcher breaks a query plan into one packet per plan node
//! (paper §4.2): "packets mainly specify the input and output tuple buffers
//! and the arguments for the relational operator". Packets also carry the
//! canonical subtree signature used for run-time overlap detection and a
//! cancellation token the query fires when the client cancels or its deadline
//! passes. A satellite needs no token below it: the dispatcher runs the OSP
//! check top-down, so a packet that attaches never has its subtree dispatched
//! (the paper's Figure 6b step 2 terminates it instead).

use crate::deadlock::NodeId;
use crate::pipe::{PipeConsumer, PipeProducer};
use qpipe_common::trace::{OpProbe, QueryTrace};
use qpipe_exec::plan::PlanNode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub u64);

static NEXT_QUERY: AtomicU64 = AtomicU64::new(1);
static NEXT_NODE: AtomicU64 = AtomicU64::new(1);

impl QueryId {
    pub fn fresh() -> Self {
        QueryId(NEXT_QUERY.fetch_add(1, Ordering::Relaxed))
    }
}

/// Fresh packet/node id for the waits-for graph.
pub fn fresh_node() -> NodeId {
    NodeId(NEXT_NODE.fetch_add(1, Ordering::Relaxed))
}

/// Cooperative cancellation flag shared by a packet and its operators.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Work for one µEngine: evaluate `plan`'s root operator, reading from
/// `children` pipes and writing to `output`.
pub struct Packet {
    pub query: QueryId,
    pub node: NodeId,
    /// Plan subtree rooted at this packet's operator.
    pub plan: Arc<PlanNode>,
    /// Stable signature of `plan` (overlap detection key).
    pub signature: u64,
    /// Output buffer for the operator's results (`None` once moved into a
    /// host or the scan manager).
    pub output: Option<PipeProducer>,
    /// Input buffers, one per child, in `plan.children()` order.
    pub children: Vec<PipeConsumer>,
    /// This packet's cancellation token.
    pub cancel: CancelToken,
    /// This operator's profiling probe (rows, batches, busy/wait time).
    /// `None` when `ExecConfig::tracing` is off — the hot path then pays
    /// only an `Option` branch.
    pub probe: Option<Arc<OpProbe>>,
    /// The owning query's event journal; `None` when tracing is off.
    pub trace: Option<Arc<QueryTrace>>,
    /// For a merge join: the child the dispatcher let a circular scan serve
    /// mid-table, the one input that may wrap (§4.3.2).
    pub split_side: Option<usize>,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("query", &self.query)
            .field("node", &self.node)
            .field("op", &self.plan.op_name())
            .field("signature", &self.signature)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_unique() {
        assert_ne!(QueryId::fresh(), QueryId::fresh());
        assert_ne!(fresh_node(), fresh_node());
    }

    #[test]
    fn cancel_token() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
    }
}
