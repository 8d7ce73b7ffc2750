//! The IOQL benchmark: three seeded workloads run against the system as
//! it ships (the served, embedded and durable paths), every answer
//! checked against the generator's own data, and a traced replay that
//! splits each request into the layers' public calls.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! how to run it.

// The engine's error types carry rendered context by value; the benchmark
// only passes them through, like the `ioql` crate itself.
#![allow(clippy::result_large_err)]

pub mod gen;
pub mod spans;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workloads;
