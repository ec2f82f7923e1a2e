//! The end-to-end QPipe benchmark: four closed-loop workloads, their
//! end-to-end metrics, and a per-layer breakdown from a traced run.
//!
//! It only *calls* the engine's public API; see `README.md` for every
//! metric's definition and for how the layers are expected to interact.

pub mod bench;
pub mod cli;
pub mod client;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod span;
pub mod stats;
pub mod workload;
