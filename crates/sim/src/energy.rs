//! Event-based energy model (the McPAT substitute).
//!
//! Energy = Σ (event count × per-event energy) + Σ (component static power ×
//! runtime). The per-event constants below are plausible 22 nm-class values;
//! absolute joules are not the point — the paper's Fig. 19 result (1.6×
//! average savings, driven mostly by shorter runtime cutting static energy,
//! §VI-D) depends only on the *relative* weight of static vs dynamic terms,
//! which this model preserves.

use crate::config::SystemConfig;
use crate::stats::Stats;

/// Core dynamic energy per retired instruction (J).
pub const CORE_EPI: f64 = 0.25e-9;
/// L1D energy per access (J).
pub const L1_EPA: f64 = 0.02e-9;
/// L2 energy per access (J).
pub const L2_EPA: f64 = 0.08e-9;
/// L3 energy per access (J).
pub const L3_EPA: f64 = 0.4e-9;
/// DRAM energy per line transfer, read or write (J).
pub const DRAM_EPA: f64 = 15e-9;
/// Static power per core (W).
pub const CORE_STATIC_W: f64 = 0.8;
/// Static power of all caches per core, L1 + L2 + L3 slice (W).
pub const CACHE_STATIC_W: f64 = 0.4;
/// DRAM background and refresh power, whole system (W).
pub const DRAM_STATIC_W: f64 = 2.0;
/// Uncore, NoC and controller power, whole system (W).
pub const OTHER_STATIC_W: f64 = 1.0;

/// Energy split by component, matching Fig. 19's categories.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core static + dynamic energy (J).
    pub core: f64,
    /// Cache static + dynamic energy (J).
    pub cache: f64,
    /// DRAM static + dynamic energy (J).
    pub dram: f64,
    /// Uncore and everything else (J).
    pub other: f64,
}

crate::json_object!(EnergyBreakdown {
    core,
    cache,
    dram,
    other
});

impl EnergyBreakdown {
    /// Evaluates the model over a finished run.
    pub fn of(stats: &Stats, cfg: &SystemConfig) -> EnergyBreakdown {
        let seconds = stats.cycles as f64 / cfg.core.frequency_hz as f64;
        let cores = cfg.cores as f64;
        let l1 = stats.l1d.accesses() + stats.prefetches_issued;
        let l2 = stats.l2.accesses();
        let l3 = stats.l3.accesses();
        let dram = stats.dram_reads + stats.dram_writes;
        EnergyBreakdown {
            core: stats.instructions as f64 * CORE_EPI + CORE_STATIC_W * cores * seconds,
            cache: l1 as f64 * L1_EPA
                + l2 as f64 * L2_EPA
                + l3 as f64 * L3_EPA
                + CACHE_STATIC_W * cores * seconds,
            dram: dram as f64 * DRAM_EPA + DRAM_STATIC_W * seconds,
            other: OTHER_STATIC_W * seconds,
        }
    }

    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.core + self.cache + self.dram + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64, insns: u64, dram: u64) -> Stats {
        let mut s = Stats {
            cycles,
            instructions: insns,
            dram_reads: dram,
            ..Stats::default()
        };
        s.l1d.hits = insns / 2;
        s
    }

    #[test]
    fn shorter_runtime_saves_energy() {
        let cfg = SystemConfig::paper();
        let slow = EnergyBreakdown::of(&stats_with(10_000_000, 1_000_000, 100_000), &cfg);
        let fast = EnergyBreakdown::of(&stats_with(4_000_000, 1_000_000, 100_000), &cfg);
        assert!(fast.total() < slow.total());
        // Same dynamic work, so the gap is entirely static.
        let gap = slow.total() - fast.total();
        let static_w = (CORE_STATIC_W + CACHE_STATIC_W) * 8.0 + DRAM_STATIC_W + OTHER_STATIC_W;
        let expect = static_w * 6_000_000.0 / cfg.core.frequency_hz as f64;
        assert!((gap - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn dram_traffic_costs_energy() {
        let cfg = SystemConfig::paper();
        let light = EnergyBreakdown::of(&stats_with(1_000_000, 1_000_000, 1_000), &cfg);
        let heavy = EnergyBreakdown::of(&stats_with(1_000_000, 1_000_000, 500_000), &cfg);
        assert!(heavy.dram > light.dram * 10.0);
        assert_eq!(heavy.core, light.core);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let cfg = SystemConfig::paper();
        let b = EnergyBreakdown::of(&stats_with(1000, 1000, 10), &cfg);
        let sum = b.core + b.cache + b.dram + b.other;
        assert!((b.total() - sum).abs() < 1e-18);
        assert!(b.total() > 0.0);
    }
}
