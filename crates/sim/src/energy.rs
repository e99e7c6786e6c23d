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

/// Per-event energies (joules) and static powers (watts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Core dynamic energy per retired instruction.
    pub core_epi: f64,
    /// L1D energy per access.
    pub l1_epa: f64,
    /// L2 energy per access.
    pub l2_epa: f64,
    /// L3 energy per access.
    pub l3_epa: f64,
    /// DRAM energy per line transfer (read or write).
    pub dram_epa: f64,
    /// Static power per core.
    pub core_static_w: f64,
    /// Static power of all caches per core (L1+L2+L3 slice).
    pub cache_static_w: f64,
    /// DRAM background/refresh power (whole system).
    pub dram_static_w: f64,
    /// Uncore/NoC/controller power (whole system).
    pub other_static_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_epi: 0.25e-9,
            l1_epa: 0.02e-9,
            l2_epa: 0.08e-9,
            l3_epa: 0.4e-9,
            dram_epa: 15e-9,
            core_static_w: 0.8,
            cache_static_w: 0.4,
            dram_static_w: 2.0,
            other_static_w: 1.0,
        }
    }
}

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
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.core + self.cache + self.dram + self.other
    }
}

impl EnergyModel {
    /// Evaluates the model over a finished run.
    pub fn evaluate(&self, stats: &Stats, cfg: &SystemConfig) -> EnergyBreakdown {
        let seconds = stats.cycles as f64 / cfg.core.frequency_hz as f64;
        let cores = cfg.cores as f64;
        let l1 = stats.l1d.accesses() + stats.prefetches_issued;
        let l2 = stats.l2.accesses();
        let l3 = stats.l3.accesses();
        let dram = stats.dram_reads + stats.dram_writes;
        EnergyBreakdown {
            core: stats.instructions as f64 * self.core_epi + self.core_static_w * cores * seconds,
            cache: l1 as f64 * self.l1_epa
                + l2 as f64 * self.l2_epa
                + l3 as f64 * self.l3_epa
                + self.cache_static_w * cores * seconds,
            dram: dram as f64 * self.dram_epa + self.dram_static_w * seconds,
            other: self.other_static_w * seconds,
        }
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
        let m = EnergyModel::default();
        let cfg = SystemConfig::paper();
        let slow = m.evaluate(&stats_with(10_000_000, 1_000_000, 100_000), &cfg);
        let fast = m.evaluate(&stats_with(4_000_000, 1_000_000, 100_000), &cfg);
        assert!(fast.total() < slow.total());
        // Same dynamic work, so the gap is entirely static.
        let gap = slow.total() - fast.total();
        let static_w =
            (m.core_static_w + m.cache_static_w) * 8.0 + m.dram_static_w + m.other_static_w;
        let expect = static_w * 6_000_000.0 / cfg.core.frequency_hz as f64;
        assert!((gap - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn dram_traffic_costs_energy() {
        let m = EnergyModel::default();
        let cfg = SystemConfig::paper();
        let light = m.evaluate(&stats_with(1_000_000, 1_000_000, 1_000), &cfg);
        let heavy = m.evaluate(&stats_with(1_000_000, 1_000_000, 500_000), &cfg);
        assert!(heavy.dram > light.dram * 10.0);
        assert_eq!(heavy.core, light.core);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let m = EnergyModel::default();
        let cfg = SystemConfig::paper();
        let b = m.evaluate(&stats_with(1000, 1000, 10), &cfg);
        let sum = b.core + b.cache + b.dram + b.other;
        assert!((b.total() - sum).abs() < 1e-18);
        assert!(b.total() > 0.0);
    }
}
