//! Serving benchmark for the XQSE/ALDSP reproduction.
//!
//! Drives `aldsp::pool::ServePool` the way its clients do — request
//! text in, serialized reply out — with two closed-loop client threads
//! into a two-worker pool, checks every reply, and reports end-to-end
//! metrics (tracing off) or per-layer metrics (traced run). See
//! `README.md` next to this crate for the workloads and metrics.

pub mod bench;
pub mod calib;
pub mod check;
pub mod replay;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
