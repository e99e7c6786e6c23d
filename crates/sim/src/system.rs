//! The full simulated machine: cores + prefetchers + shared memory system +
//! the simulated address space, executed phase by phase.
//!
//! Workloads run as a sequence of *parallel phases* (one per OpenMP
//! parallel-for, BFS level, PageRank iteration, ...). Each phase supplies
//! one instruction stream per participating core; [`System::run_phase`]
//! interleaves the cores in timestamp order against the shared memory
//! system and ends with a barrier, attributing imbalance to the `Other`
//! (synchronisation) CPI bucket — mirroring how the paper's OpenMP-static
//! workloads behave on Sniper (§IV-E).

use crate::config::SystemConfig;
use crate::core::interval::CoreTiming;
use crate::core::InsnStream;
use crate::energy::EnergyBreakdown;
use crate::mem::address_space::AddressSpace;
use crate::mem::hierarchy::MemorySystem;
use crate::metrics::{MetricsConfig, MetricsRegistry};
use crate::prefetch::{FillQueue, NullPrefetcher, PrefetchCtx, Prefetcher};
use crate::stats::Stats;
use crate::telemetry::{TelemetrySummary, TraceEvent, TraceEventKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// End-of-run summary combining counters and derived metrics.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// All raw counters.
    pub stats: Stats,
    /// Energy estimate for the run.
    pub energy: EnergyBreakdown,
    /// Prefetcher name attached to core 0 (all cores are homogeneous).
    pub prefetcher: String,
}

crate::json_object!(RunSummary {
    stats,
    energy,
    prefetcher
});

/// A complete simulated machine.
///
/// Generic over the per-core prefetcher type `P`, so the per-instruction
/// `on_demand`/`on_fill` calls dispatch statically (drivers use an enum over
/// all known prefetchers) instead of through a vtable.
pub struct System<P: Prefetcher> {
    cfg: SystemConfig,
    mem: MemorySystem,
    space: AddressSpace,
    cores: Vec<CoreTiming>,
    prefetchers: Vec<P>,
    fills: Vec<FillQueue>,
    stats: Stats,
    time: u64,
    phase_idx: u64,
    cancel: Option<Arc<AtomicBool>>,
}

impl<P: Prefetcher> std::fmt::Debug for System<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cfg", &self.cfg)
            .field("time", &self.time)
            .field("prefetcher", &self.prefetchers.first().map(|p| p.name()))
            .finish()
    }
}

impl System<NullPrefetcher> {
    /// Builds a system with no prefetching (the paper's baseline).
    pub fn new(cfg: SystemConfig) -> Self {
        Self::with_prefetchers(cfg, |_| NullPrefetcher::new())
    }
}

impl<P: Prefetcher + 'static> System<P> {
    /// Builds a system with one private prefetcher per core, produced by
    /// `factory(core_id)`.
    pub fn with_prefetchers(cfg: SystemConfig, mut factory: impl FnMut(usize) -> P) -> Self {
        let n = cfg.cores as usize;
        System {
            mem: MemorySystem::new(cfg),
            space: AddressSpace::new(),
            cores: (0..n).map(|_| CoreTiming::new(cfg.core)).collect(),
            prefetchers: (0..n).map(&mut factory).collect(),
            fills: (0..n).map(|_| FillQueue::new()).collect(),
            stats: Stats::default(),
            time: 0,
            phase_idx: 0,
            cancel: None,
            cfg,
        }
    }

    /// Installs a cooperative cancellation flag. The phase scheduler polls
    /// it at its event-loop boundary and aborts the run (by unwinding with
    /// a `"run cancelled"` payload, without running the panic hook) once
    /// the flag is raised — a sweep that abandons a timed-out cell uses
    /// this to make the detached worker exit promptly instead of simulating
    /// on.
    pub fn set_cancel(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Starts a trace on the memory system's tracer; every component's
    /// structured [`TraceEvent`]s are buffered from now on.
    pub fn start_trace(&mut self) {
        self.mem.tracer_mut().start_trace();
    }

    /// Stops tracing and returns the buffered events, in emission order,
    /// if a trace was started.
    pub fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.mem.tracer_mut().take_trace()
    }

    /// Installs a windowed [`MetricsRegistry`]; from now on the phase
    /// scheduler samples derived rates (IPC, miss rates, MLP, queue depth,
    /// prefetch accuracy/coverage, throttle level) every
    /// [`MetricsConfig::window_cycles`] cycles. Unmetered runs pay nothing.
    pub fn install_metrics(&mut self, cfg: MetricsConfig) {
        self.mem.tracer_mut().install_metrics(cfg);
    }

    /// Removes and returns the metrics registry, if one was installed.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.mem.tracer_mut().take_metrics()
    }

    /// The run's accumulated telemetry counters (latency histograms and the
    /// prefetch-timeliness breakdown; always collected, never part of
    /// [`Stats`]).
    pub fn telemetry(&self) -> &TelemetrySummary {
        self.mem.telemetry()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Immutable view of the simulated address space.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the simulated address space (workloads allocate
    /// and populate their data structures through this between phases).
    pub fn address_space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// Mutable access to the memory system (e.g. to install the LLC-miss
    /// classifier used by the Fig. 13/16 experiments).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Applies `f` to every core's prefetcher — how software "programs" the
    /// prefetcher (Prodigy's registration API broadcasts DIG entries to all
    /// private prefetcher instances).
    pub fn program_prefetchers(&mut self, mut f: impl FnMut(&mut dyn Prefetcher)) {
        for p in &mut self.prefetchers {
            f(p);
        }
    }

    /// Replaces every core's prefetcher. Used by workload drivers that can
    /// only construct structure-aware prefetchers (Ainsworth & Jones,
    /// DROPLET) after the workload's data layout exists.
    pub fn set_prefetchers(&mut self, mut factory: impl FnMut(usize) -> P) {
        let n = self.cores.len();
        self.prefetchers = (0..n).map(&mut factory).collect();
        self.fills = (0..n).map(|_| FillQueue::new()).collect();
    }

    /// Counters accumulated so far (CPI stacks are merged at phase ends).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current global time (cycle of the last barrier).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Runs one parallel phase. `streams[i]` executes on core `i`; missing
    /// trailing entries mean those cores idle through the phase without
    /// being charged sync time. The phase's cycles and instructions are the
    /// deltas of [`System::time`] and [`System::stats`].
    ///
    /// # Panics
    /// Panics if more streams than cores are supplied.
    pub fn run_phase(&mut self, streams: Vec<InsnStream>) {
        assert!(
            streams.len() <= self.cores.len(),
            "more streams ({}) than cores ({})",
            streams.len(),
            self.cores.len()
        );
        let phase_start = self.time;
        let participating = streams.len();
        for c in 0..participating {
            self.cores[c].begin_phase(phase_start);
        }

        let mut prefetchers = std::mem::take(&mut self.prefetchers);
        let mut fills = std::mem::take(&mut self.fills);
        // One decoding cursor per core; `len()` is what is left to run.
        let mut cursors: Vec<_> = streams.iter().map(|s| s.iter()).collect();

        // Event-driven bookkeeping for the hot loop: instead of consulting
        // the fill heap and the metrics registry every instruction, cache the
        // next "interesting" cycle of each (earliest pending fill per core,
        // next metric-window boundary) and compare against it — a branch on a
        // local `u64` instead of a heap peek / registry call. The caches are
        // refreshed only at the events that can change them (a fill delivery,
        // a prefetch issue, a window close), which preserves behaviour
        // exactly: `next_fill[c] <= now` is the same predicate the heap peek
        // evaluated, and `maybe_sample` was already a no-op before the
        // boundary.
        let mut next_fill: Vec<u64> = (0..participating)
            .map(|c| fills[c].peek().map_or(u64::MAX, |r| r.0.at))
            .collect();
        let mut next_window: u64 = self
            .mem
            .tracer_mut()
            .metrics_mut()
            .map_or(u64::MAX, |m| m.next_sample_at());

        // Timestamp-ordered interleaving: repeatedly advance the earliest
        // unfinished core by a small batch of instructions.
        const BATCH: usize = 8;
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (c, cursor) in cursors.iter().enumerate() {
                if cursor.len() > 0 {
                    let t = self.cores[c].now();
                    if best.map(|(bt, _)| t < bt).unwrap_or(true) {
                        best = Some((t, c));
                    }
                }
            }
            let Some((t, c)) = best else { break };
            // Cooperative cancellation: abandoning callers (sweep timeouts)
            // raise the flag and this unwinds out of the run. The driver
            // catches the unwind; nobody observes partial results.
            if let Some(flag) = &self.cancel {
                if flag.load(Ordering::Relaxed) {
                    cancelled();
                }
            }
            // The earliest-core timestamp is monotone across iterations, so
            // it is a sound clock for closing metric windows. The occupancy
            // gauge is refreshed first (it needs the shared borrow of the
            // memory system) so every closing window sees current cache
            // contents; unmetered runs never reach this branch.
            if t >= next_window {
                let occupancy = self.mem.occupancy();
                if let Some(m) = self.mem.tracer_mut().metrics_mut() {
                    m.set_occupancy(occupancy);
                    m.maybe_sample(t, &self.stats);
                    next_window = m.next_sample_at();
                }
            }

            let cursor = &mut cursors[c];
            for _ in 0..BATCH {
                let Some(insn) = cursor.next() else { break };
                // Deliver matured prefetch fills first so chained prefetch
                // sequences advance at memory speed, not core speed.
                if next_fill[c] <= self.cores[c].now() {
                    Self::deliver_fills(
                        &mut self.mem,
                        &self.space,
                        &mut self.stats,
                        &mut fills[c],
                        &mut prefetchers[c],
                        c,
                        self.cores[c].now(),
                    );
                    next_fill[c] = fills[c].peek().map_or(u64::MAX, |r| r.0.at);
                }
                let step = self.cores[c].step(&insn, &mut self.mem, c, &mut self.stats);
                if let Some(access) = step.demand {
                    let now = self.cores[c].now();
                    let mut ctx = PrefetchCtx::new(
                        c,
                        now,
                        &mut self.mem,
                        &self.space,
                        &mut self.stats,
                        &mut fills[c],
                    );
                    prefetchers[c].on_demand(&mut ctx, &access);
                    next_fill[c] = fills[c].peek().map_or(u64::MAX, |r| r.0.at);
                }
            }
        }

        // Barrier: everyone waits for the slowest participant.
        let barrier = (0..participating)
            .map(|c| self.cores[c].end_time())
            .max()
            .unwrap_or(phase_start);
        for c in 0..participating {
            self.cores[c].end_phase(barrier);
            let cpi = self.cores[c].take_cpi();
            self.stats.cpi.accumulate(&cpi);
        }
        // Flush any fills that matured by the barrier (all cores, so chains
        // started near a phase end still complete).
        for (c, q) in fills.iter_mut().enumerate() {
            Self::deliver_fills(
                &mut self.mem,
                &self.space,
                &mut self.stats,
                q,
                &mut prefetchers[c],
                c,
                barrier,
            );
        }

        self.prefetchers = prefetchers;
        self.fills = fills;
        self.time = barrier;
        let cycles = barrier - phase_start;
        let index = self.phase_idx;
        self.phase_idx += 1;
        self.mem.tracer_mut().emit(|| TraceEvent {
            cycle: phase_start,
            dur: cycles,
            core: 0,
            kind: TraceEventKind::Phase {
                index,
                cores: participating as u32,
            },
        });
        self.stats.cycles += cycles;
    }

    fn deliver_fills(
        mem: &mut MemorySystem,
        space: &AddressSpace,
        stats: &mut Stats,
        queue: &mut FillQueue,
        prefetcher: &mut P,
        core: usize,
        now: u64,
    ) {
        while queue.peek().map(|r| r.0.at <= now).unwrap_or(false) {
            let fill = queue.pop().expect("peeked").0;
            let mut ctx = PrefetchCtx::new(core, fill.at, mem, space, stats, queue);
            prefetcher.on_fill(&mut ctx, &fill);
        }
    }

    /// Produces the end-of-run summary (counters + energy estimate).
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            stats: self.stats.clone(),
            energy: EnergyBreakdown::of(&self.stats, &self.cfg),
            prefetcher: self
                .prefetchers
                .first()
                .map(|p| p.name().to_string())
                .unwrap_or_default(),
        }
    }
}

/// Unwinds out of a cancelled run with a `"run cancelled"` payload.
/// `resume_unwind` skips the panic hook, so a cancel is not reported as a
/// crash; out of line, so the run loop only carries the call.
#[cold]
#[inline(never)]
fn cancelled() -> ! {
    std::panic::resume_unwind(Box::new("run cancelled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::StreamBuilder;
    use crate::prefetch::{DemandAccess, PrefetchCtx};
    use std::any::Any;

    #[test]
    fn single_core_phase_runs_and_counts() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(1));
        let mut b = StreamBuilder::new();
        for i in 0..100u64 {
            b.load_at(1, i * 64, 8, &[]);
        }
        sys.run_phase(vec![b.finish()]);
        assert_eq!(sys.stats().instructions, 100);
        assert!(sys.time() > 0);
        assert_eq!(sys.stats().cycles, sys.time(), "one phase from cycle 0");
        assert_eq!(sys.stats().loads, 100);
    }

    #[test]
    fn phases_accumulate_time_monotonically() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(2));
        for _ in 0..3 {
            let mut b = StreamBuilder::new();
            for i in 0..50u64 {
                b.load_at(1, i * 4096, 8, &[]);
            }
            let t0 = sys.time();
            sys.run_phase(vec![b.finish()]);
            assert!(sys.time() > t0);
        }
        assert_eq!(sys.stats().instructions, 150);
    }

    #[test]
    fn imbalanced_phase_charges_sync_to_other() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(2));
        let mut heavy = StreamBuilder::new();
        for i in 0..2000u64 {
            heavy.load_at(1, i * 1_000_000, 8, &[]);
        }
        let mut light = StreamBuilder::new();
        light.compute(1, &[]);
        sys.run_phase(vec![heavy.finish(), light.finish()]);
        let cpi = &sys.stats().cpi;
        assert!(
            cpi.other > 0.0,
            "idle core should accrue sync time: {cpi:?}"
        );
    }

    /// A prefetcher that fetches the next line on every demand access.
    struct NextLine;
    impl Prefetcher for NextLine {
        fn name(&self) -> &'static str {
            "next-line"
        }
        fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
            ctx.prefetch(a.vaddr + crate::LINE_BYTES, 0);
        }
        fn on_fill(&mut self, _: &mut PrefetchCtx<'_>, _: &crate::prefetch::FillEvent) {}
        fn storage_bits(&self) -> u64 {
            0
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn next_line_prefetcher_speeds_up_streaming() {
        fn stream<P: Prefetcher + 'static>(sys: &mut System<P>) -> u64 {
            let mut b = StreamBuilder::new();
            for i in 0..4000u64 {
                let l = b.load_at(1, 0x10_0000 + i * 64, 8, &[]);
                for _ in 0..6 {
                    b.compute(2, &[l]);
                }
            }
            sys.run_phase(vec![b.finish()]);
            sys.time()
        }
        let mut base = System::new(SystemConfig::scaled(64).with_cores(1));
        let t_base = stream(&mut base);
        let mut pf = System::with_prefetchers(SystemConfig::scaled(64).with_cores(1), |_| NextLine);
        let t_pf = stream(&mut pf);
        assert!(
            t_pf * 10 < t_base * 9,
            "prefetching must help streaming: {t_pf} vs {t_base}"
        );
        assert!(pf.stats().prefetches_issued > 1000);
        assert!(pf.stats().prefetch_use.hit_l1 > 500);
    }

    #[test]
    fn metered_runs_sample_occupancy_at_window_close() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(1));
        sys.install_metrics(MetricsConfig {
            window_cycles: 1_000,
        });
        let mut b = StreamBuilder::new();
        for i in 0..2000u64 {
            b.load_at(1, i * 64, 8, &[]);
        }
        sys.run_phase(vec![b.finish()]);
        let reg = sys.take_metrics().expect("installed");
        let samples = reg.samples();
        assert!(!samples.is_empty(), "run spans at least one window");
        let occ = samples
            .last()
            .unwrap()
            .occupancy
            .as_ref()
            .expect("gauge published at window close");
        assert!(occ.levels[0].total() > 0, "demand lines resident");
        assert_eq!(occ.levels[0].prefetched(), 0, "no prefetcher configured");
    }

    #[test]
    fn summary_reports_energy_and_name() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(1));
        let mut b = StreamBuilder::new();
        for i in 0..100u64 {
            b.load_at(1, i * 64, 8, &[]);
        }
        sys.run_phase(vec![b.finish()]);
        let s = sys.summary();
        assert_eq!(s.prefetcher, "none");
        assert!(s.energy.total() > 0.0);
    }

    #[test]
    fn raised_cancel_flag_aborts_the_phase() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(1));
        let flag = Arc::new(AtomicBool::new(true));
        sys.set_cancel(Arc::clone(&flag));
        let mut b = StreamBuilder::new();
        for i in 0..100u64 {
            b.load_at(1, i * 64, 8, &[]);
        }
        let stream = b.finish();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.run_phase(vec![stream]);
        }))
        .expect_err("a raised flag unwinds out of run_phase");
        assert_eq!(unwound.downcast_ref::<&str>(), Some(&"run cancelled"));
    }

    #[test]
    #[should_panic(expected = "more streams")]
    fn too_many_streams_rejected() {
        let mut sys = System::new(SystemConfig::scaled(64).with_cores(1));
        sys.run_phase(vec![InsnStream::default(), InsnStream::default()]);
    }
}
