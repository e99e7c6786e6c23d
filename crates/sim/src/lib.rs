//! # prodigy-sim — cycle-approximate multi-core simulator substrate
//!
//! This crate rebuilds, from scratch, the modelling infrastructure the
//! Prodigy paper (HPCA 2021) relies on: an interval-style out-of-order core
//! timing model with CPI-stack accounting (the role Sniper plays in the
//! paper), a three-level inclusive MESI cache hierarchy with MSHRs and
//! prefetch-fill tracking, a bandwidth-limited DRAM model with
//! memory-controller queueing, a TLB, a simulated virtual address space that
//! workloads actually read and write, and a McPAT-style event energy model.
//!
//! The crate is prefetcher-agnostic: anything implementing
//! [`prefetch::Prefetcher`] can snoop L1D demand accesses and prefetch fills
//! and issue non-binding prefetches. The Prodigy prefetcher itself lives in
//! the `prodigy` crate; classic baselines live in `prodigy-prefetchers`.
//!
//! ## Example
//!
//! ```
//! use prodigy_sim::{System, SystemConfig};
//! use prodigy_sim::core::{InsnStream, StreamBuilder};
//!
//! let mut sys = System::new(SystemConfig::scaled(32).with_cores(1));
//! let base = sys.address_space_mut().alloc(4096, 64);
//! let mut b = StreamBuilder::new();
//! for i in 0..64 {
//!     b.load(base + i * 64, 8); // stride through one page
//! }
//! sys.run_phase(vec![b.finish()]);
//! assert!(sys.time() > 0);
//! assert_eq!(sys.stats().loads, 64);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod energy;
pub mod fxhash;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod prefetch;
pub mod stats;
pub mod system;
pub mod telemetry;

pub use config::{CacheConfig, CoreConfig, DramConfig, SystemConfig};
pub use energy::EnergyBreakdown;
pub use mem::address_space::{AddressSpace, Tier, TierMap};
pub use mem::cache::VictimHit;
pub use mem::hierarchy::{AccessKind, AccessResult, MemorySystem, ServedBy};
pub use metrics::{MetricSample, MetricsConfig, MetricsRegistry};
pub use prefetch::{DemandAccess, FillEvent, NullPrefetcher, PrefetchCtx, Prefetcher};
pub use stats::{CpiStack, LevelStats, PrefetchUse, RunTiming, Stats};
pub use system::{RunSummary, System};
pub use telemetry::{
    chrome_trace_json, source_tag_label, AttributionTable, HistQuantiles, LevelOccupancy, Log2Hist,
    OccupancySnapshot, PollutionCounts, SourceCounts, SourceTag, TelemetrySummary, TierSplit,
    TierTelemetry, Timeliness, TraceCategory, TraceEvent, TraceEventKind, Tracer,
};

/// Size of a cache line in bytes throughout the simulator (Table I: 64 B).
pub const LINE_BYTES: u64 = 64;

/// Returns the cache-line-aligned address containing `addr`.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
