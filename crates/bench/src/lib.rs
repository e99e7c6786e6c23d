//! # prodigy-bench — the paper's evaluation, regenerated
//!
//! Every table and figure of the paper's §VI is one entry of the
//! [`experiments::EXPERIMENTS`] registry: a grid of simulation cells
//! (workload rows × hardware variants) and a renderer that prints the same
//! rows/series the paper reports. `DESIGN.md`'s per-experiment index maps
//! paper artifacts to entry names; `EXPERIMENTS.md` compares paper and
//! measured numbers.
//!
//! Run everything with `cargo run --release -p prodigy-bench --bin
//! prodigy-eval` (`--scale N` trades fidelity for speed; larger =
//! smaller/faster; name experiments to run a subset).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellcache;
pub mod compare;
pub mod experiments;
pub mod report;
pub mod sweep;
pub mod workload_set;

pub use cellcache::{code_rev, composite_key, CellCache};
pub use compare::{diff_reports, merge_reports, DiffReport, ReportKind};
pub use experiments::{run_all, Cell, Ctx, ShardSpec};
pub use sweep::{SweepConfig, SweepReport};
pub use workload_set::{WorkloadSpec, GRAPH_ALGS, NON_GRAPH_ALGS};
