//! The repository benchmark for the Lumina reproduction.
//!
//! A client of the library crates that changes none of them: every layer
//! is measured from outside, by timing calls into public functions. See
//! `BENCHMARK.md` next to this package for the workloads, the metrics and
//! which layer metric is expected to move which end-to-end metric.

pub mod alloc;
pub mod catalog;
pub mod refkernel;
pub mod replica;
pub mod stats;
pub mod workloads;
