//! Run statistics: per-level cache counters, prefetch effectiveness, and the
//! CPI stack used by Figures 4, 14 and 19 of the paper.

/// Where stalled dispatch cycles are attributed, mirroring the paper's CPI
/// stack categories (Fig. 4): no-stall, DRAM, cache, branch, dependency,
/// other (which includes synchronisation idle time at phase barriers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Waiting on a load serviced by DRAM (fully or partially).
    Dram,
    /// Waiting on a load serviced by the L2 or L3 cache.
    Cache,
    /// Front-end redirect after a branch misprediction.
    Branch,
    /// Waiting on a chain of dependent compute instructions.
    Dependency,
    /// Anything else (store-queue pressure, barrier idle time, ...).
    Other,
}

/// Cycle breakdown of one run. All fields are cycle counts; `total()` equals
/// the run's wall-clock cycles (summed over cores when aggregated).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpiStack {
    /// Ideal dispatch cycles (instructions / width).
    pub no_stall: f64,
    /// Cycles stalled on DRAM-serviced loads.
    pub dram: f64,
    /// Cycles stalled on L2/L3-serviced loads.
    pub cache: f64,
    /// Cycles lost to branch mispredictions.
    pub branch: f64,
    /// Cycles stalled on compute dependency chains.
    pub dependency: f64,
    /// Remaining cycles (structural hazards, barriers, rounding).
    pub other: f64,
}

impl CpiStack {
    /// Total cycles represented by the stack.
    pub fn total(&self) -> f64 {
        self.no_stall + self.dram + self.cache + self.branch + self.dependency + self.other
    }

    /// Adds `cycles` to the bucket for `cause`.
    pub fn add(&mut self, cause: StallCause, cycles: f64) {
        match cause {
            StallCause::Dram => self.dram += cycles,
            StallCause::Cache => self.cache += cycles,
            StallCause::Branch => self.branch += cycles,
            StallCause::Dependency => self.dependency += cycles,
            StallCause::Other => self.other += cycles,
        }
    }

    /// Element-wise accumulation (used to aggregate per-core stacks).
    pub fn accumulate(&mut self, o: &CpiStack) {
        self.no_stall += o.no_stall;
        self.dram += o.dram;
        self.cache += o.cache;
        self.branch += o.branch;
        self.dependency += o.dependency;
        self.other += o.other;
    }

    /// Returns the stack normalised so that `total() == 1.0` exactly, or
    /// zeros if empty.
    ///
    /// Naive per-bucket division drifts: with six independent roundings the
    /// bucket sum can miss 1.0 by several ulps, and accumulating many
    /// near-zero stacks (subnormal totals) loses whole bits per division.
    /// Two defences restore the invariant: tiny totals are first rescaled
    /// by an exact power of two so every division happens at full
    /// precision, and the remaining rounding residual is folded into the
    /// largest bucket (changing it by at most a few ulps) until the sum is
    /// exact.
    pub fn normalized(&self) -> CpiStack {
        let mut s = *self;
        let mut t = s.total();
        if t == 0.0 || !t.is_finite() {
            return CpiStack::default();
        }
        // Scaling by a power of two is exact unless it overflows; lift
        // subnormal-range stacks into the well-normalised range first.
        if t < 1e-300 {
            let scale = 2f64.powi(600);
            for b in [
                &mut s.no_stall,
                &mut s.dram,
                &mut s.cache,
                &mut s.branch,
                &mut s.dependency,
                &mut s.other,
            ] {
                *b *= scale;
            }
            t = s.total();
        }
        let mut n = CpiStack {
            no_stall: s.no_stall / t,
            dram: s.dram / t,
            cache: s.cache / t,
            branch: s.branch / t,
            dependency: s.dependency / t,
            other: s.other / t,
        };
        // Pin the bucket sum to exactly 1.0 by recomputing `other` — the
        // *last* term in total()'s fixed summation order — as the
        // complement of the leading partial sum: for partial ∈ [0, 1],
        // `partial + fl(1 - partial)` rounds to exactly 1.0 (Sterbenz for
        // partial ≥ 0.5, sub-half-ulp residual below). When rounding
        // pushed the partial sum above 1, first shave the ulp-level
        // overshoot off the largest leading bucket (≥ partial/5, so the
        // shave is well-conditioned and strictly decreasing).
        for _ in 0..8 {
            let partial = n.no_stall + n.dram + n.cache + n.branch + n.dependency;
            if partial <= 1.0 {
                n.other = 1.0 - partial;
                break;
            }
            *n.largest_leading_mut() -= partial - 1.0;
        }
        n
    }

    /// The largest of the five buckets preceding `other` in summation
    /// order (ties broken in field order).
    fn largest_leading_mut(&mut self) -> &mut f64 {
        let vals = [
            self.no_stall,
            self.dram,
            self.cache,
            self.branch,
            self.dependency,
        ];
        let mut idx = 0;
        for (i, v) in vals.iter().enumerate() {
            if *v > vals[idx] {
                idx = i;
            }
        }
        match idx {
            0 => &mut self.no_stall,
            1 => &mut self.dram,
            2 => &mut self.cache,
            3 => &mut self.branch,
            _ => &mut self.dependency,
        }
    }
}

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Demand accesses that hit at this level.
    pub hits: u64,
    /// Demand accesses that missed at this level.
    pub misses: u64,
    /// Lines written back from this level to the next.
    pub writebacks: u64,
}

impl LevelStats {
    /// Demand accesses observed at this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Where a demanded, previously-prefetched line was found (Fig. 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchUse {
    /// Demanded while resident in L1.
    pub hit_l1: u64,
    /// Demanded while resident in L2.
    pub hit_l2: u64,
    /// Demanded while resident in L3.
    pub hit_l3: u64,
    /// Evicted from the whole hierarchy before being demanded.
    pub evicted_unused: u64,
}

impl PrefetchUse {
    /// Prefetched lines whose fate is known (demanded or evicted).
    pub fn resolved(&self) -> u64 {
        self.hit_l1 + self.hit_l2 + self.hit_l3 + self.evicted_unused
    }

    /// Prefetched lines that were demanded before eviction (at any level).
    pub fn useful(&self) -> u64 {
        self.hit_l1 + self.hit_l2 + self.hit_l3
    }

    /// Fraction of resolved prefetches that were demanded before eviction
    /// (the paper's "accuracy", 62.7% on average for Prodigy). Returns
    /// `None` when no prefetch has resolved yet — a run with no prefetch
    /// activity has *no* accuracy, not a zero one, and conflating the two
    /// silently drags averages down (see [`crate::Stats`] callers and
    /// `report::geomean` for the same convention).
    pub fn accuracy(&self) -> Option<f64> {
        let r = self.resolved();
        if r == 0 {
            return None;
        }
        Some(self.useful() as f64 / r as f64)
    }

    /// The paper's "coverage": the fraction of would-be misses eliminated
    /// by prefetching — prefetch hits over prefetch hits plus the demand
    /// misses that still happened. The caller supplies `demand_misses`
    /// (typically LLC demand misses; see [`Stats::prefetch_coverage`]).
    /// Returns `None` when there were neither useful prefetches nor demand
    /// misses (nothing to cover).
    pub fn coverage(&self, demand_misses: u64) -> Option<f64> {
        let useful = self.useful();
        if useful + demand_misses == 0 {
            return None;
        }
        Some(useful as f64 / (useful + demand_misses) as f64)
    }
}

/// All counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Retired instructions (all cores).
    pub instructions: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Wall-clock cycles of the run (max over cores, summed over phases).
    pub cycles: u64,
    /// L1D counters.
    pub l1d: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
    /// L3 counters.
    pub l3: LevelStats,
    /// DRAM reads (line fills).
    pub dram_reads: u64,
    /// DRAM writes (dirty writebacks).
    pub dram_writes: u64,
    /// Total cycles spent queued at the memory controller.
    pub dram_queue_cycles: u64,
    /// TLB hits (demand side).
    pub tlb_hits: u64,
    /// TLB misses (demand side).
    pub tlb_misses: u64,
    /// Prefetch requests issued by the attached prefetcher.
    pub prefetches_issued: u64,
    /// Prefetch requests dropped (line already resident or in flight).
    pub prefetches_redundant: u64,
    /// Usefulness classification of prefetched lines.
    pub prefetch_use: PrefetchUse,
    /// LLC misses whose address fell inside DIG-annotated structures
    /// (populated only when a classifier is installed; Fig. 13/16).
    pub llc_misses_prefetchable: u64,
    /// LLC misses outside annotated structures.
    pub llc_misses_other: u64,
    /// Aggregated CPI stack over all cores.
    pub cpi: CpiStack,
}

impl Stats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Prefetch coverage over the run: useful prefetches against the LLC
    /// demand misses that still went to memory. `l3.misses` counts only
    /// demand-path lookups (the prefetch path never touches it), so it is
    /// exactly the uncovered-miss term of the paper's Fig. 19 metric.
    /// `None` when the run had neither (see [`PrefetchUse::coverage`]).
    pub fn prefetch_coverage(&self) -> Option<f64> {
        self.prefetch_use.coverage(self.l3.misses)
    }
}

/// Host-side wall-clock timing of one simulated run.
///
/// Deliberately kept *outside* [`Stats`]: timing varies between hosts and
/// between serial and parallel sweeps, while `Stats` must be bit-identical
/// for the same seed. Comparing `Stats` (plus the workload checksum) is the
/// determinism contract; `RunTiming` is telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTiming {
    /// Wall-clock nanoseconds the host spent inside `run_workload`.
    pub host_nanos: u64,
}

impl RunTiming {
    /// Captures an elapsed duration (saturating at `u64::MAX` ns ≈ 584 y).
    pub fn from_elapsed(d: std::time::Duration) -> Self {
        RunTiming {
            host_nanos: u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Milliseconds as a float, for human-facing reports.
    pub fn millis(&self) -> f64 {
        self.host_nanos as f64 / 1e6
    }
}

// The wire form of a run's counters: every field, in declaration order.
// Cycle-stack buckets are stored floats (shortest round-trip text).
crate::json_object!(CpiStack {
    no_stall,
    dram,
    cache,
    branch,
    dependency,
    other
});
crate::json_object!(LevelStats {
    hits,
    misses,
    writebacks
});
crate::json_object!(PrefetchUse {
    hit_l1,
    hit_l2,
    hit_l3,
    evicted_unused
});
crate::json_object!(Stats {
    instructions,
    loads,
    stores,
    branches,
    mispredicts,
    cycles,
    l1d,
    l2,
    l3,
    dram_reads,
    dram_writes,
    dram_queue_cycles,
    tlb_hits,
    tlb_misses,
    prefetches_issued,
    prefetches_redundant,
    prefetch_use,
    llc_misses_prefetchable,
    llc_misses_other,
    cpi
});
crate::json_object!(RunTiming { host_nanos });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_stack_total_and_normalize() {
        let mut s = CpiStack {
            no_stall: 10.0,
            ..CpiStack::default()
        };
        s.add(StallCause::Dram, 30.0);
        s.add(StallCause::Branch, 10.0);
        assert_eq!(s.total(), 50.0);
        let n = s.normalized();
        assert!((n.total() - 1.0).abs() < 1e-12);
        assert!((n.dram - 0.6).abs() < 1e-12);
    }

    #[test]
    fn normalize_empty_stack_is_zero() {
        assert_eq!(CpiStack::default().normalized(), CpiStack::default());
    }

    #[test]
    fn normalized_is_exact_for_accumulated_near_zero_stacks() {
        // Accumulating many near-zero (subnormal-range) stacks used to
        // leave normalized().total() several ulps — or, with subnormal
        // division, whole bits — away from 1.0.
        let tiny = CpiStack {
            no_stall: 3.1e-310,
            dram: 7.3e-312,
            cache: 1.9e-311,
            branch: 4.0e-313,
            dependency: 2.2e-312,
            other: 5.5e-311,
        };
        let mut acc = CpiStack::default();
        for _ in 0..997 {
            acc.accumulate(&tiny);
        }
        let n = acc.normalized();
        assert_eq!(n.total(), 1.0, "bucket sum must be exactly 1.0: {n:?}");
        // Proportions survive the rescale (no precision collapse).
        assert!((n.no_stall / n.dram - 3.1e-310 / 7.3e-312).abs() < 1e-3);
    }

    #[test]
    fn prefetch_accuracy() {
        let p = PrefetchUse {
            hit_l1: 6,
            hit_l2: 1,
            hit_l3: 1,
            evicted_unused: 2,
        };
        assert_eq!(p.resolved(), 10);
        assert_eq!(p.useful(), 8);
        assert!((p.accuracy().unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(
            PrefetchUse::default().accuracy(),
            None,
            "no resolved prefetches means no accuracy, not zero accuracy"
        );
    }

    #[test]
    fn prefetch_coverage_mirrors_paper_averages() {
        // The paper reports ~62.7% average accuracy for Prodigy alongside
        // high miss coverage; a run shaped like that average:
        let p = PrefetchUse {
            hit_l1: 500,
            hit_l2: 80,
            hit_l3: 47,
            evicted_unused: 373,
        };
        assert!((p.accuracy().unwrap() - 0.627).abs() < 1e-3);
        // 627 useful prefetches against 244 remaining demand misses →
        // ~72% of would-be misses covered.
        assert!((p.coverage(244).unwrap() - 627.0 / 871.0).abs() < 1e-12);
        // Edge cases: no activity at all, and full coverage.
        assert_eq!(PrefetchUse::default().coverage(0), None);
        assert_eq!(p.coverage(0), Some(1.0));
    }

    #[test]
    fn stats_level_coverage_uses_llc_misses() {
        let mut s = Stats::default();
        s.prefetch_use.hit_l1 = 30;
        s.l3.misses = 10;
        assert!((s.prefetch_coverage().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(Stats::default().prefetch_coverage(), None);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = Stats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn run_timing_serializes_and_converts() {
        let t = RunTiming::from_elapsed(std::time::Duration::from_micros(1500));
        assert_eq!(t.host_nanos, 1_500_000);
        assert!((t.millis() - 1.5).abs() < 1e-9);
        let j = crate::json::ToJson::to_json(&t);
        assert_eq!(j.to_string(), "{\"host_nanos\":1500000}");
    }
}
