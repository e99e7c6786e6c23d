//! Per-PC stride prefetcher: the classic reference-point design
//! (confidence-gated stride detection, configurable degree).
//!
//! Works well for regular strided loops (dense arrays), and — exactly as
//! the paper argues for conventional prefetchers — contributes almost
//! nothing to data-dependent irregular traversals, whose address deltas
//! carry no repeating stride.

use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use std::any::Any;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u32,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Reference-prediction-table stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: u32,
    confidence_threshold: u8,
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new(256, 4)
    }
}

impl StridePrefetcher {
    /// Creates a prefetcher with `entries` table rows and prefetch `degree`.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, degree: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries],
            degree,
            confidence_threshold: 2,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        let idx = (a.pc as usize) & (self.table.len() - 1);
        let e = &mut self.table[idx];
        if !e.valid || e.pc != a.pc {
            *e = StrideEntry {
                pc: a.pc,
                last_addr: a.vaddr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return;
        }
        let delta = a.vaddr as i64 - e.last_addr as i64;
        e.last_addr = a.vaddr;
        if delta == 0 {
            return;
        }
        if delta == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = delta;
            e.confidence = 0;
        }
        if e.confidence >= self.confidence_threshold {
            let stride = e.stride;
            if e.confidence == self.confidence_threshold {
                ctx.trace_note("stride-lock", a.vaddr);
            }
            for d in 1..=self.degree as i64 {
                let target = a.vaddr as i64 + stride * d;
                if target > 0 {
                    // Attribute the prefetch to its reference-prediction-table
                    // row, giving a per-entry timeliness breakdown.
                    ctx.prefetch(target as u64, idx as u16);
                }
            }
        }
    }

    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _fill: &FillEvent) {}

    fn storage_bits(&self) -> u64 {
        // pc(32) + last_addr(64) + stride(32) + confidence(2) + valid(1)
        self.table.len() as u64 * 131
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rig;

    #[test]
    fn detects_constant_stride_and_prefetches_ahead() {
        let mut rig = Rig::with_scale(8); // roomy L1: no set thrashing
        let mut pf = StridePrefetcher::default();
        for i in 0..8u64 {
            rig.demand(&mut pf, 0x10_0000 + i * 256, 7);
        }
        assert!(rig.stats.prefetches_issued > 0);
        // The next strided addresses should now be resident.
        assert!(rig.mem.l1_contains(0, 0x10_0000 + 8 * 256));
    }

    #[test]
    fn random_addresses_trigger_nothing() {
        let mut rig = Rig::new();
        let mut pf = StridePrefetcher::default();
        let mut x = 99u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rig.demand(&mut pf, (x >> 20) & 0xfff_ffc0, 7);
        }
        assert_eq!(rig.stats.prefetches_issued, 0, "no stride to learn");
    }

    #[test]
    fn distinct_pcs_learn_independently() {
        let mut rig = Rig::with_scale(8);
        let mut pf = StridePrefetcher::default();
        for i in 0..6u64 {
            rig.demand(&mut pf, 0x20_0000 + i * 64, 1);
            rig.demand(&mut pf, 0x40_0000 + i * 128, 2);
        }
        assert!(rig.mem.l1_contains(0, 0x20_0000 + 6 * 64));
        assert!(rig.mem.l1_contains(0, 0x40_0000 + 6 * 128));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        StridePrefetcher::new(100, 2);
    }
}
