//! `cc-perf`: one layered benchmark for the column-combining stack.
//!
//! Six workloads, nine end-to-end metrics every workload reports with
//! tracing off, and per-layer metrics from a separate traced run that
//! times calls into each crate's public functions from here. See
//! `README.md` beside this package for the tables and how to read them.

pub mod compare;
pub mod fixtures;
pub mod inputs;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;
