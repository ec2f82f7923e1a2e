//! # QPipe — a simultaneously pipelined relational query engine
//!
//! Rust reproduction of *QPipe: A Simultaneously Pipelined Relational Query
//! Engine* (Harizopoulos, Ailamaki, Shkapenyuk — SIGMOD 2005).
//!
//! QPipe replaces the conventional "one-query, many-operators" execution
//! model with an operator-centric "one-operator, many-queries" design: every
//! relational operator is an independent **µEngine** serving *packets* from a
//! queue, and an **OSP coordinator** detects overlapping work across
//! concurrent queries at run time, pipelining one operator's output to many
//! queries simultaneously.
//!
//! ```no_run
//! use qpipe_core::engine::{QPipe, QPipeConfig};
//! use qpipe_exec::plan::{AggSpec, PlanNode};
//! use qpipe_exec::expr::Expr;
//! # fn main() -> qpipe_common::QResult<()> {
//! # let catalog: std::sync::Arc<qpipe_storage::Catalog> = todo!();
//! let engine = QPipe::new(catalog, QPipeConfig::default());
//! let plan = PlanNode::scan_filtered("lineitem", Expr::col(4).ge(Expr::lit(10)))
//!     .aggregate(vec![], vec![AggSpec::count_star()]);
//! let rows = engine.submit(plan)?.collect();
//! # Ok(()) }
//! ```
//!
//! Module map (paper section in parentheses):
//! * [`pipe`] — bounded one-producer, one-consumer buffers of
//!   `Arc<ColBatch>` (§4.2).
//! * [`packet`] — query packets and cancellation (§4.2).
//! * [`admit`] — admission control: bounded per-µEngine concurrency,
//!   one FIFO ticket queue with cancellation and
//!   timeouts. Every query passes through it before dispatch; together with
//!   the memory governor (`qpipe_common::govern`, leased through
//!   `ExecContext`) it bounds what a multi-query burst can claim.
//! * [`engine`] — µEngines, packet dispatcher, query handles (§4.2–4.3).
//! * [`pool`] — every engine thread: per-µEngine pools grown on demand
//!   (§4.2's "pool of threads").
//! * [`host`] — OSP host/satellite attach machinery (§4.3, Figure 6b) and
//!   the one replay history a late satellite reads (buffering, §3.2).
//! * [`scan`] — circular scans with dynamic termination points: one scanner
//!   job per group on the scan µEngine's pool, reading its table in page
//!   order (§4.3.1).
//! * [`ops`] — the batch-native operator workers, the restarting merge join
//!   (§4.3.2) among them, and the attach rule (`attach_window`: which window
//!   of opportunity each operator's host gets, §3.2 Figure 4).
//! * [`deadlock`] — waits-for-graph deadlock detection/resolution (§4.3.3),
//!   by the waiter whose edge closes the cycle.

pub mod admit;
pub mod deadlock;
pub mod engine;
pub mod host;
pub mod ops;
pub mod packet;
pub mod pipe;
pub mod pool;
pub mod scan;

pub use admit::{AdmissionController, AdmitConfig, QueryClass};
pub use engine::{QPipe, QPipeConfig, QueryHandle};
pub use packet::{CancelToken, Packet, QueryId};
