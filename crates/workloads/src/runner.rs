//! The workload × prefetcher driver.
//!
//! Builds a simulated [`System`], lets the kernel lay out its data,
//! constructs the requested prefetcher (deriving structure hints from the
//! kernel's DIG for the graph-specific baselines), applies the DIG
//! registration prologue (a no-op for non-Prodigy hardware, exactly like
//! the real API calls), runs the kernel and returns the run summary plus
//! the algorithm checksum — which every experiment cross-checks across
//! prefetchers, proving prefetching never changed program semantics.

use crate::dispatch::AnyPrefetcher;
use crate::kernels::Kernel;
use prodigy::{DigProgram, ProdigyConfig, ProdigyPrefetcher, ProdigyStats};
use prodigy_sim::{
    MetricsConfig, MetricsRegistry, NullPrefetcher, RunSummary, System, SystemConfig,
    TelemetrySummary, TraceEvent,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Which prefetcher to attach to every core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// The non-prefetching baseline.
    None,
    /// Per-PC stride prefetcher.
    Stride,
    /// Next-N-line stream prefetcher.
    Stream,
    /// GHB-based global/delta correlation.
    GhbGdc,
    /// Indirect Memory Prefetcher (MICRO'15).
    Imp,
    /// Ainsworth & Jones' graph prefetcher (ICS'16).
    AinsworthJones,
    /// DROPLET (HPCA'19).
    Droplet,
    /// Prodigy (this paper).
    Prodigy,
}

impl PrefetcherKind {
    /// Every kind, in the order the paper's comparison figures use.
    pub const ALL: [PrefetcherKind; 8] = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::Stream,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Imp,
        PrefetcherKind::AinsworthJones,
        PrefetcherKind::Droplet,
        PrefetcherKind::Prodigy,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::Stream => "stream",
            PrefetcherKind::GhbGdc => "ghb-gdc",
            PrefetcherKind::Imp => "imp",
            PrefetcherKind::AinsworthJones => "ainsworth-jones",
            PrefetcherKind::Droplet => "droplet",
            PrefetcherKind::Prodigy => "prodigy",
        }
    }

    /// Whether this design requires graph-structure knowledge and is
    /// therefore omitted from non-graph workloads in the paper's figures.
    pub fn graph_specific(&self) -> bool {
        matches!(
            self,
            PrefetcherKind::AinsworthJones | PrefetcherKind::Droplet
        )
    }
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Machine configuration.
    pub sys: SystemConfig,
    /// Attached prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Prodigy hardware sizing (PFHR count for Fig. 12).
    pub prodigy: ProdigyConfig,
    /// Install the DIG-bounds LLC-miss classifier, which counts
    /// `llc_misses_prefetchable` and `llc_misses_other` (Figs. 13 and 16).
    /// Every `prodigy-bench` cell sets it. Off by default, so a driver that
    /// repeats this module's steps without it (perfbench's traced pass)
    /// reproduces [`run_workload`]'s stats.
    pub classify_llc: bool,
    /// Deterministic seed of this run, recorded in the outcome for
    /// provenance. Workload inputs are seeded at instantiation time (see
    /// `prodigy-bench`'s `WorkloadSpec::instantiate`); the simulator
    /// itself is deterministic and uses no randomness, so two runs with the
    /// same kernel and config always produce identical [`RunOutcome`] stats
    /// regardless of host, thread, or execution order.
    pub seed: u64,
    /// Collect cycle-level trace events (buffered in memory and returned in
    /// [`RunOutcome::trace`]). Tracing never perturbs `Stats` — only host
    /// time and memory footprint grow.
    pub trace: bool,
    /// Collect a windowed time-series of derived rates (IPC, miss rates,
    /// MLP, prefetch accuracy, ...) in [`RunOutcome::metrics`]. Like
    /// tracing, metering never perturbs `Stats`; unmetered runs allocate
    /// nothing.
    pub metrics: Option<MetricsConfig>,
    /// Cooperative cancellation flag, polled at the phase scheduler's
    /// event-loop boundary. Sweep drivers that abandon a timed-out cell
    /// raise it so the detached worker unwinds promptly (with a
    /// `"run cancelled"` panic, caught by the isolation layer) instead of
    /// simulating to completion. `None` (the default) costs nothing.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sys: SystemConfig::default(),
            prefetcher: PrefetcherKind::None,
            prodigy: ProdigyConfig::default(),
            classify_llc: false,
            seed: 0,
            trace: false,
            metrics: None,
            cancel: None,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Counters + energy + prefetcher name.
    pub summary: RunSummary,
    /// Kernel result checksum (must be identical across prefetchers).
    pub checksum: u64,
    /// Prodigy-internal stats, when Prodigy was attached (summed over
    /// cores).
    pub prodigy: Option<ProdigyStats>,
    /// Prefetcher storage requirement in bits.
    pub storage_bits: u64,
    /// Seed this run was configured with (provenance; see
    /// [`RunConfig::seed`]).
    pub seed: u64,
    /// Host wall-clock time spent simulating. Telemetry only — not part of
    /// the outcome's JSON (see [`prodigy_sim::RunTiming`]).
    pub timing: prodigy_sim::RunTiming,
    /// Always-on telemetry counters (latency histograms, prefetch
    /// timeliness, DIG activity).
    pub telemetry: TelemetrySummary,
    /// Trace events, when [`RunConfig::trace`] was set.
    pub trace: Option<Vec<TraceEvent>>,
    /// Windowed metrics series, when [`RunConfig::metrics`] was set.
    pub metrics: Option<MetricsRegistry>,
}

// The deterministic outcome as JSON: the sweep report splices these fields
// into each cell, and the cell cache stores exactly this object. Host-side
// and opt-in fields are not written and decode as their defaults.
prodigy_sim::json_object!(RunOutcome {
    summary,
    checksum,
    prodigy,
    storage_bits,
    seed,
    telemetry,
    timing: skip,
    trace: skip,
    metrics: skip,
});

/// Runs `kernel` once under `cfg`.
///
/// Thread-safe by construction: every call builds its own [`System`] and
/// touches no shared mutable state, so any number of `run_workload` calls
/// may execute concurrently (the parallel sweep in `prodigy-bench` relies
/// on this). Determinism: given the same kernel state and `cfg`, the
/// returned stats and checksum are bit-identical on every host and under
/// any thread interleaving.
pub fn run_workload(kernel: &mut dyn Kernel, cfg: &RunConfig) -> RunOutcome {
    let host_start = std::time::Instant::now();
    // `System<AnyPrefetcher>`: the per-instruction prefetcher dispatch is a
    // match over a closed enum (see `crate::dispatch`), not a vtable call.
    // A no-op placeholder is attached while the kernel lays out memory.
    let mut sys: System<AnyPrefetcher> =
        System::with_prefetchers(cfg.sys, |_| AnyPrefetcher::None(NullPrefetcher::new()));
    if cfg.trace {
        sys.start_trace();
    }
    if let Some(mcfg) = cfg.metrics {
        sys.install_metrics(mcfg);
    }
    if let Some(flag) = &cfg.cancel {
        sys.set_cancel(Arc::clone(flag));
    }
    let dig = kernel.prepare(sys.address_space_mut());
    if cfg.sys.far.is_some() {
        // Two-tier machine: adopt the kernel's hot/cold placement so the
        // miss path routes line fills to the owning tier's controller.
        // Single-tier machines never consult the map (byte-identity).
        let tiers = sys.address_space().tier_map().clone();
        sys.memory_mut().set_tier_map(tiers);
    }
    let program = DigProgram::from_dig(&dig);

    let prodigy_cfg = cfg.prodigy;
    sys.set_prefetchers(|_| AnyPrefetcher::build(cfg.prefetcher, &dig, prodigy_cfg));
    // The instrumented binary's registration prologue (no-op unless the
    // hardware is Prodigy).
    sys.program_prefetchers(|p| program.apply(p));
    if cfg.classify_llc {
        sys.memory_mut()
            .set_llc_miss_classifier_ranges(program.annotated_ranges());
    }

    let checksum = kernel.run(&mut sys);

    let mut prodigy_stats: Option<ProdigyStats> = None;
    let mut storage_bits = 0;
    sys.program_prefetchers(|p| {
        storage_bits = p.storage_bits();
        if let Some(pp) = p.as_any_mut().downcast_mut::<ProdigyPrefetcher>() {
            let s = pp.prodigy_stats();
            let acc = prodigy_stats.get_or_insert_with(ProdigyStats::default);
            acc.sequences_initiated += s.sequences_initiated;
            acc.sequences_dropped += s.sequences_dropped;
            acc.single_prefetches += s.single_prefetches;
            acc.ranged_prefetches += s.ranged_prefetches;
            acc.trigger_prefetches += s.trigger_prefetches;
            acc.inline_advances += s.inline_advances;
            acc.pfhr_drops += s.pfhr_drops;
            acc.elements_advanced += s.elements_advanced;
            acc.range_elements_tracked += s.range_elements_tracked;
        }
    });

    // Stamp the end-of-run cache occupancy into the summary before
    // harvesting: reports carry the final per-source cache contents.
    sys.memory_mut().capture_occupancy();
    let telemetry = sys.telemetry().clone();
    let metrics = sys.take_metrics();
    let trace = sys.take_trace();

    RunOutcome {
        summary: sys.summary(),
        checksum,
        prodigy: prodigy_stats,
        storage_bits,
        seed: cfg.seed,
        timing: prodigy_sim::RunTiming::from_elapsed(host_start.elapsed()),
        telemetry,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators::rmat;
    use crate::kernels::Bfs;

    fn tiny_cfg(kind: PrefetcherKind) -> RunConfig {
        RunConfig {
            sys: SystemConfig::scaled(64).with_cores(2),
            prefetcher: kind,
            ..RunConfig::default()
        }
    }

    #[test]
    fn checksums_identical_across_all_prefetchers() {
        let g = rmat(512, 4096, 2, (0.57, 0.19, 0.19));
        let mut checksums = Vec::new();
        for kind in PrefetcherKind::ALL {
            let mut k = Bfs::new(g.clone(), 0);
            let out = run_workload(&mut k, &tiny_cfg(kind));
            checksums.push(out.checksum);
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "prefetching must not change program output: {checksums:?}"
        );
    }

    #[test]
    fn prodigy_runs_faster_than_baseline_on_bfs() {
        let g = rmat(2048, 16384, 4, (0.57, 0.19, 0.19));
        let base = {
            let mut k = Bfs::new(g.clone(), 0);
            run_workload(&mut k, &tiny_cfg(PrefetcherKind::None))
        };
        let prodigy = {
            let mut k = Bfs::new(g, 0);
            run_workload(&mut k, &tiny_cfg(PrefetcherKind::Prodigy))
        };
        assert!(prodigy.prodigy.is_some());
        let speedup = base.summary.stats.cycles as f64 / prodigy.summary.stats.cycles as f64;
        assert!(
            speedup > 1.2,
            "Prodigy should clearly beat no-prefetching (got {speedup:.2}x)"
        );
    }

    #[test]
    fn prodigy_stats_report_both_indirection_kinds() {
        let g = rmat(1024, 8192, 6, (0.57, 0.19, 0.19));
        let mut k = Bfs::new(g, 0);
        let out = run_workload(&mut k, &tiny_cfg(PrefetcherKind::Prodigy));
        let ps = out.prodigy.expect("prodigy stats");
        assert!(ps.sequences_initiated > 0);
        assert!(ps.single_prefetches > 0);
        assert!(ps.ranged_prefetches > 0);
        assert!(ps.ranged_share() > 0.0 && ps.ranged_share() < 1.0);
    }

    #[test]
    fn outcome_carries_final_occupancy_snapshot() {
        let g = rmat(512, 4096, 2, (0.57, 0.19, 0.19));
        let mut k = Bfs::new(g, 0);
        let out = run_workload(&mut k, &tiny_cfg(PrefetcherKind::Stride));
        let occ = out
            .telemetry
            .occupancy
            .as_ref()
            .expect("harvest stamps the final cache contents");
        assert!(occ.levels[2].total() > 0, "LLC holds lines at run end");
        assert_eq!(occ.tiers, None, "single-tier machine has no split");
    }

    #[test]
    fn classifier_counts_llc_misses_when_enabled() {
        let g = rmat(1024, 8192, 8, (0.57, 0.19, 0.19));
        let mut k = Bfs::new(g, 0);
        let mut cfg = tiny_cfg(PrefetcherKind::None);
        cfg.classify_llc = true;
        let out = run_workload(&mut k, &cfg);
        let s = &out.summary.stats;
        assert!(s.llc_misses_prefetchable > 0);
        // The paper's Fig. 13: the vast majority of misses fall inside
        // DIG-annotated structures.
        let frac = s.llc_misses_prefetchable as f64
            / (s.llc_misses_prefetchable + s.llc_misses_other).max(1) as f64;
        assert!(frac > 0.8, "prefetchable fraction {frac}");
    }
}
