//! Workloads and experiment harness for the QPipe reproduction.
//!
//! * [`tpch`] — scaled TPC-H-style data generator (dbgen equivalent) and the
//!   eight query plans the paper's workload mix uses (Q1, Q4, Q6, Q8, Q12,
//!   Q13, Q14, Q19), with qgen-style randomized predicates.
//! * [`sql`] — SQL text for the same queries, with a seeded phrasing
//!   shuffler for the mixed-phrasing sharing test and the planner fuzz.
//! * [`wisconsin`] — the Wisconsin benchmark tables (BIG1, BIG2, SMALL) and
//!   the 3-way sort-merge join query of Figure 10.
//! * [`harness`] — closed-loop multi-client drivers over both engines, with
//!   interarrival/think-time control and paper-time scaling.

pub mod chaos;
pub mod harness;
pub mod sql;
pub mod tpch;
pub mod wisconsin;
