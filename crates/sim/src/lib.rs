//! Deterministic discrete-event simulation runtime and cost models for the
//! Treaty reproduction.
//!
//! The Treaty paper (DSN 2022) evaluates on a 3-node Intel SGX cluster.
//! This crate replaces that testbed with a *virtual-time* runtime: the whole
//! cluster (server nodes, clients, the trusted counter service) runs as
//! cooperative [fibers](runtime::spawn) on a single logical timeline, and
//! every hardware effect the paper measures — SGX world switches, SCONE
//! async syscalls, EPC paging, NIC/wire time, SSD flushes, ROTE counter
//! rounds — is charged through an explicit, documented [`CostModel`].
//!
//! Because fibers are scheduled deterministically (FIFO run queue, totally
//! ordered timer heap) a simulation with a fixed seed reproduces the same
//! virtual-time result on every run, which makes the paper's figures
//! regenerable as stable ratios.
//!
//! # Example
//!
//! ```
//! use treaty_sim::runtime::{Sim, sleep, now};
//!
//! let report = Sim::new().run(|| {
//!     sleep(1_000_000); // one virtual millisecond, zero wall time
//!     assert_eq!(now(), 1_000_000);
//! }).unwrap();
//! assert_eq!(report.virtual_ns, 1_000_000);
//! ```

#![deny(unsafe_code)]

pub mod cell;
pub mod costs;
pub mod crashpoint;
pub mod disk;
pub mod obs;
pub mod profile;
pub mod runtime;
// Fiber stacks and the context switch: the one module allowed unsafe_code.
#[allow(unsafe_code)]
mod stack;
pub mod stats;

pub use cell::FiberCell;
pub use costs::{CostModel, Transport};
pub use profile::{SecurityProfile, TeeMode};
pub use runtime::{FiberId, Sim, SimReport};
pub use stats::BenchStats;
pub use treaty_obs::Histogram;

/// Virtual time in nanoseconds since simulation start.
pub type Nanos = u64;

/// One virtual microsecond, in [`Nanos`].
pub const MICROS: Nanos = 1_000;
/// One virtual millisecond, in [`Nanos`].
pub const MILLIS: Nanos = 1_000_000;
/// One virtual second, in [`Nanos`].
pub const SECONDS: Nanos = 1_000_000_000;
