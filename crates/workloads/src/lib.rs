//! # prodigy-workloads — the paper's benchmark suite, rebuilt
//!
//! The paper evaluates Prodigy on five GAP graph kernels (bc, bfs, cc, pr,
//! sssp) over five real-world graphs, two HPCG sparse-linear-algebra kernels
//! (spmv, symgs) and two NAS kernels (cg, is). This crate rebuilds all of
//! it:
//!
//! * [`graph`] — CSR/CSC structures, seeded synthetic data-set generators
//!   standing in for the SNAP/SuiteSparse inputs (Table II), and HubSort
//!   reordering (Fig. 18);
//! * [`kernels`] — each algorithm implemented to *actually run* over the
//!   simulated address space while emitting, phase by phase, the
//!   instruction streams an instrumented binary would execute. Every kernel
//!   returns a verifiable result (BFS depths, PR scores, ...), constructs
//!   its hand-annotated DIG, and the driver cross-checks prefetchers
//!   against the same memory image;
//! * [`runner`] — the workload × prefetcher driver used by examples, tests
//!   and the benchmark harness;
//! * [`swpf`] — the software-prefetching transformation (Ainsworth & Jones,
//!   CGO'17 model): explicit prefetch loads inserted at a static distance.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod graph;
pub mod kernels;
pub mod layout;
pub mod rng;
pub mod runner;
pub mod swpf;

pub use dispatch::AnyPrefetcher;
pub use graph::csr::{Csr, WeightedCsr};
pub use graph::datasets::{Dataset, DATASETS};
pub use kernels::{Kernel, PhaseRunner};
pub use layout::ArrayHandle;
pub use runner::{run_workload, PrefetcherKind, RunConfig, RunOutcome};
