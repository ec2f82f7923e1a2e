//! Conventional "one-query, many-operators" engine (paper §4.1).
pub mod expr;
pub mod iter;
pub mod liveness;
pub mod norm;
pub mod plan;
pub mod spill;
pub mod vexpr;
pub mod viter;
pub mod vsort;
