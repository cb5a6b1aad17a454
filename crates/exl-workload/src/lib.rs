//! # exl-workload — reproducible synthetic workloads
//!
//! The Bank of Italy's production data is confidential, so the evaluation
//! runs on synthetic workloads that exercise the same code paths:
//!
//! * [`gdp`] — the paper's running example (§2) at a configurable scale:
//!   daily regional population plus quarterly per-capita GDP, with
//!   trend + seasonality + noise;
//! * [`random`] — seeded random statistical programs plus matching data,
//!   used by the property-based equivalence tests and by the chase
//!   benchmarks;
//! * [`chains`] — deep tuple-level statement chains for the translation
//!   (B1) and fusion (B6) benchmarks;
//! * [`wide`] — million-row wide cubes over a high-cardinality text
//!   dimension, the benchmark's `wide` workload.

#![warn(missing_docs)]

pub mod chains;
pub mod delta;
pub mod gdp;
pub mod random;
pub mod wide;

pub use delta::DeltaGen;
pub use gdp::{gdp_dataset, gdp_scenario, GdpConfig, GDP_PROGRAM};
pub use random::{random_scenario, RandomConfig};
pub use wide::{wide_program, wide_scenario, WideConfig};
