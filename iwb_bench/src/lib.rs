//! The workbench fleet benchmark: seeded, closed-loop workloads through
//! routers → replicating backends, checked against an in-process
//! control, with an outside-in per-layer trace. See `BENCHMARK.md`.

pub mod compare;
pub mod control;
pub mod decompose;
pub mod driver;
pub mod fleet;
pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod workload;
