//! Tuples.
//!
//! A [`Tuple`] is one row of [`Value`]s. It is what the iterator engine
//! (`qpipe-exec::iter` — the Baseline/DBMS X comparator and the test oracle)
//! pulls operator to operator, and what a client receives from
//! `QueryHandle::try_collect`. The staged engine does **not** exchange
//! tuples: its pipes carry one format only, `Arc<ColBatch>`
//! ([`colbatch`](crate::colbatch)), filled towards
//! [`ColBatch::DEFAULT_CAPACITY`](crate::ColBatch::DEFAULT_CAPACITY) rows
//! per batch. It builds tuples for the client alone.

use crate::value::Value;

/// A row of values.
pub type Tuple = Vec<Value>;
