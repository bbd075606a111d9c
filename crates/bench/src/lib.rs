//! # softsim-bench — the benchmark harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§IV): Figure 5 (CORDIC time vs P), Figure 7 (matmul time vs N),
//! Table I (resources + simulation times) and Table II (raw simulator
//! speeds), plus the quantitative §IV claims.
//!
//! * `cargo run --release -p softsim-bench --bin tables -- --all`
//!   prints everything (see `EXPERIMENTS.md`);
//! * `cargo bench` runs the wall-clock benchmarks, one per table/figure,
//!   plus the tracing-overhead guard.
//!
//! Every wall-clock number — those benchmarks, the Table I/II times and
//! speeds, and the wall-clock BENCH records — comes from one sampler,
//! [`measure`].
//!
//! The machine-readable `BENCH_00xx.json` records are all built as a
//! [`record::Record`], which also carries the headline series each
//! record declares for the perf [`trajectory`] and its gate.

#![warn(missing_docs)]

pub mod durable;
pub mod faults;
pub mod hotspots;
pub mod measure;
pub mod record;
pub mod recover;
pub mod serve;
pub mod speedup;
pub mod sweep;
pub mod tables;
pub mod trajectory;
pub mod translate;
pub mod workloads;
