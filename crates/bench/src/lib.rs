//! # prodigy-bench — the paper's evaluation, regenerated
//!
//! One experiment function per table and figure of the paper's §VI, each
//! printing the same rows/series the paper reports (see `DESIGN.md`'s
//! per-experiment index and `EXPERIMENTS.md` for paper-vs-measured):
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (configuration) | [`experiments::table1`] |
//! | Table II (data sets) | [`experiments::table2`] |
//! | Fig. 2 (highlight: pr-lj) | [`experiments::fig02`] |
//! | Fig. 4 (baseline CPI stacks) | [`experiments::fig04`] |
//! | Fig. 12 (PFHR sweep) | [`experiments::fig12`] |
//! | Fig. 13 (prefetchable misses) | [`experiments::fig13`] |
//! | Fig. 14 (CPI + speedup vs baseline) | [`experiments::fig14`] |
//! | Fig. 15 (prefetch usefulness) | [`experiments::fig15`] |
//! | Fig. 16 (misses converted) | [`experiments::fig16`] |
//! | Fig. 17 (vs hardware prefetchers) | [`experiments::fig17`] |
//! | Table III (best-reported) | [`experiments::table3`] |
//! | Fig. 18 (HubSort reordering) | [`experiments::fig18`] |
//! | Fig. 19 (energy) | [`experiments::fig19`] |
//! | §VI-C ranged-indirection share | [`experiments::stat_ranged_share`] |
//! | §VI-C software prefetching | [`experiments::stat_software_prefetch`] |
//! | §VI-E storage overhead | [`experiments::table_storage`] |
//! | §VI-F scalability | [`experiments::scalability`] |
//!
//! Run everything with `cargo bench --bench figures` (set `PRODIGY_SCALE`
//! to trade fidelity for speed; larger = smaller/faster).
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
pub use sweep::{CellStats, SweepConfig, SweepReport};
pub use workload_set::{WorkloadSpec, GRAPH_ALGS, NON_GRAPH_ALGS};
