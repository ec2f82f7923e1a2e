//! Shared foundation types for the QPipe reproduction.
//!
//! This crate holds everything that the storage manager, the conventional
//! iterator engine, and the QPipe staged engine all need to agree on:
//! [`Value`]s, [`Schema`]s, [`Tuple`]s, the columnar [`ColBatch`]/[`SelVec`]
//! batches the staged engine's pipes carry (see [`colbatch`] for the layout
//! contract), error types, global [`metrics`],
//! the memory [`govern`]or that turns operator budgets into leases, the
//! per-query [`trace`] journal and operator probes behind `EXPLAIN
//! ANALYZE`, and the simulated-time facilities in [`sim`].

pub mod batch;
pub mod colbatch;
pub mod error;
pub mod govern;
pub mod metrics;
pub mod schema;
pub mod sim;
pub mod trace;
pub mod value;

pub use batch::Tuple;
pub use colbatch::{
    ColBatch, ColBatchBuilder, Column, ColumnBuilder, ColumnData, NullBitmap, SelVec,
};
pub use error::{QError, QResult};
pub use govern::{MemClass, MemLease, MemoryGovernor};
pub use metrics::{Histogram, HistogramSummary, Metrics, MetricsSnapshot};
pub use schema::{ColumnDef, DataType, Schema};
pub use sim::{FaultAction, FaultInjector, FaultKind, FaultOp, FaultRule};
pub use trace::{
    OpProbe, OpStats, ProbeNode, QueryProfile, QueryTrace, TimedEvent, TraceEvent,
    DEFAULT_TRACE_CAPACITY,
};
pub use value::{cmp_i64_f64, float_as_exact_i64, Value};
