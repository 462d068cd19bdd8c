//! # mhh-bench — engine micro-workloads
//!
//! The two raw-engine kernels ([`engine_micro`]: a token ring and a
//! dispatcher/worker burst) that the repository's benchmark package
//! (`mhh-benchmark/`, declared by `BENCHMARK.json` at the root) times for
//! its `simnet.engine.*_events_per_s` layer metrics. End-to-end numbers come
//! from that package; nothing is measured here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_micro;
