//! Hermetic two-clock benchmark for the Treaty reproduction: the library
//! half, so that `tests/` can hold BENCHMARK.json to the metric catalogue.
//! `main.rs` is the command line; README.md explains what is measured.

pub mod metrics;
pub mod parent;
pub mod probes;
pub mod reference;
pub mod report;
pub mod run;
pub mod spec;
pub mod suite;
pub mod trace;
