//! Helpers of the repository benchmark: order statistics, peak-RSS
//! parsing and in-memory spans with self-time accounting. The benchmark
//! itself lives in `main.rs`; these pieces are a library so they can be
//! tested on their own.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod layers;
pub mod rss;
pub mod spans;
pub mod stats;
