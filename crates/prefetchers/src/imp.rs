//! IMP — the Indirect Memory Prefetcher (Yu et al., MICRO 2015).
//!
//! IMP couples a stream detector with an Indirect Pattern Detector: when a
//! PC streams sequentially through an index array `B`, IMP correlates the
//! *values* loaded from `B` with subsequent miss addresses `M`, solving
//! `M = base + (value << shift)` from two confirming observations. Once a
//! coefficient is learned it prefetches `B[i+Δ]` and, on that fill, computes
//! and prefetches `A[B[i+Δ]]`.
//!
//! Limitations the paper exploits in comparison (§VI-C): only `A[B[i]]`
//! single-valued patterns (no ranged indirection, so CSR edge ranges are
//! missed) and at most two levels of indirection.

use crate::stride::StrideTable;
use prodigy_sim::fxhash::FxBuildHasher;
use prodigy_sim::line_of;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::ServedBy;
use std::any::Any;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Candidate {
    shift: u8,
    base: u64,
    hits: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Learned {
    shift: u8,
    base: u64,
}

/// Computes `base + (v << shift)`, rejecting targets that overflow or land
/// outside a plausible 47-bit address space (loaded "index" values may be
/// arbitrary data, e.g. floating-point bit patterns).
fn indirect_target(base: u64, v: u64, shift: u8) -> Option<u64> {
    let scaled = v.checked_shl(shift as u32)?;
    let t = base.checked_add(scaled)?;
    (t < 1 << 47).then_some(t)
}

/// The IMP prefetcher.
#[derive(Debug)]
pub struct ImpPrefetcher {
    streams: StrideTable,
    candidates: HashMap<u32, Vec<Candidate>, FxBuildHasher>,
    learned: HashMap<u32, Learned, FxBuildHasher>,
    recent_values: Vec<(u32, u64)>,
    // Fx-hashed not just for speed: the capacity bound evicts
    // `pending.keys().next()`, and with std's randomized hasher that choice
    // differed run to run. A fixed hasher makes it arbitrary but repeatable.
    pending: HashMap<u64, Vec<(u32, u64, u8)>, FxBuildHasher>,
    distance: u64,
}

impl Default for ImpPrefetcher {
    fn default() -> Self {
        Self::new(16)
    }
}

impl ImpPrefetcher {
    /// Creates an IMP instance prefetching `distance` index elements ahead.
    pub fn new(distance: u64) -> Self {
        ImpPrefetcher {
            streams: StrideTable::new(64),
            candidates: HashMap::default(),
            learned: HashMap::default(),
            recent_values: Vec::new(),
            pending: HashMap::default(),
            distance,
        }
    }

    /// Returns the base of a newly learned (or re-learned) coefficient so
    /// the caller can report the detection.
    fn learn_from_miss(&mut self, miss_addr: u64) -> Option<u64> {
        let mut newly_learned = None;
        for &(spc, v) in &self.recent_values {
            if v >= 1 << 40 {
                continue; // not an index (e.g. raw floating-point bits)
            }
            for shift in 0u8..=3 {
                let scaled = v << shift;
                let Some(base) = miss_addr.checked_sub(scaled) else {
                    continue;
                };
                let cands = self.candidates.entry(spc).or_default();
                if let Some(c) = cands
                    .iter_mut()
                    .find(|c| c.shift == shift && c.base == base)
                {
                    c.hits = c.hits.saturating_add(1);
                    if c.hits >= 2 {
                        let fresh = self.learned.insert(spc, Learned { shift, base });
                        if fresh != Some(Learned { shift, base }) {
                            newly_learned = Some(base);
                        }
                    }
                } else if cands.len() < 16 {
                    cands.push(Candidate {
                        shift,
                        base,
                        hits: 1,
                    });
                }
            }
        }
        newly_learned
    }
}

impl Prefetcher for ImpPrefetcher {
    fn name(&self) -> &'static str {
        "imp"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        if a.is_write {
            return;
        }
        // A "stream" for IMP is a short-stride sequential walk.
        let stream_stride = self
            .streams
            .train(a.pc, a.vaddr)
            .filter(|&(_, stride, confidence)| confidence >= 2 && stride.unsigned_abs() <= 16);
        if let Some((_, stride, _)) = stream_stride {
            // Record the loaded index value for the pattern detector.
            let v = ctx.read_uint(a.vaddr, a.size.min(8));
            self.recent_values.push((a.pc, v));
            if self.recent_values.len() > 4 {
                self.recent_values.remove(0);
            }
            // Prefetch the index stream itself and, if a coefficient is
            // known, arrange the indirect target on the index fill.
            let ahead = a.vaddr as i64 + stride * self.distance as i64;
            if ahead > 0 {
                let ahead = ahead as u64;
                // Tag 0 = index-stream prefetch, 1 = learned indirection.
                ctx.prefetch(ahead, 0);
                if self.learned.contains_key(&a.pc) {
                    let entry = self.pending.entry(line_of(ahead)).or_default();
                    if entry.len() < 16 {
                        entry.push((a.pc, ahead, a.size));
                    }
                    if self.pending.len() > 64 {
                        // Bounded hardware queue: forget the oldest line.
                        if let Some(&k) = self.pending.keys().next() {
                            self.pending.remove(&k);
                        }
                    }
                    // The index element may already be on-chip: chase now.
                    if ctx.l1_contains(ahead) {
                        if let Some(l) = self.learned.get(&a.pc) {
                            let v = ctx.read_uint(ahead, a.size.min(8));
                            if let Some(t) = indirect_target(l.base, v, l.shift) {
                                ctx.prefetch(t, 1);
                            }
                        }
                    }
                }
            }
        } else if matches!(a.served, ServedBy::L3 | ServedBy::Dram) {
            if let Some(base) = self.learn_from_miss(a.vaddr) {
                ctx.trace_note("imp-pattern-learned", base);
            }
        }
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        let Some(waiters) = self.pending.remove(&fill.line_addr) else {
            return;
        };
        for (pc, elem_addr, size) in waiters {
            if let Some(l) = self.learned.get(&pc) {
                let v = ctx.read_uint(elem_addr, size.min(8));
                if let Some(t) = indirect_target(l.base, v, l.shift) {
                    ctx.prefetch(t, 1);
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // Paper §VI-E: IMP ≈ 1.4× Prodigy's storage. Stream table + IPD.
        self.streams.storage_bits() + 16 * (64 + 2 + 2) + 64 * (64 + 32)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rig;

    /// Builds `B` (index array) and a target `A` such that the access
    /// pattern is `A[B[i]]` with 4-byte A elements.
    fn setup(rig: &mut Rig, n: u64) -> (u64, u64) {
        let b = rig.space.alloc(n * 4, 64);
        let a = rig.space.alloc(4096 * 4, 64);
        let mut x = 1234u64;
        for i in 0..n {
            x = x.wrapping_mul(48271) % 0x7fff_ffff;
            rig.space.write_u32(b + i * 4, (x % 4096) as u32);
        }
        (b, a)
    }

    #[test]
    fn learns_a_of_b_pattern_and_prefetches() {
        let mut rig = Rig::new();
        let (b, a) = setup(&mut rig, 256);
        let mut pf = ImpPrefetcher::new(8);
        for i in 0..64u64 {
            rig.demand(&mut pf, b + i * 4, 10); // stream through B
            let v = rig.space.read_u32(b + i * 4) as u64;
            rig.demand(&mut pf, a + v * 4, 20); // indirect access A[B[i]]
            rig.run_fills(&mut pf, rig.now);
        }
        assert!(
            pf.learned.contains_key(&10),
            "coefficient for the B-stream must be learned"
        );
        assert!(rig.stats.prefetches_issued > 10);
        // After training, the indirect target for i+8 should frequently be
        // resident before the demand touches it.
        rig.run_fills(&mut pf, u64::MAX);
        let mut hits = 0;
        for i in 64..72u64 {
            let v = rig.space.read_u32(b + i * 4) as u64;
            if rig.mem.l1_contains(0, a + v * 4) {
                hits += 1;
            }
        }
        assert!(hits >= 4, "only {hits}/8 indirect targets resident");
    }

    #[test]
    fn no_stream_means_no_learning() {
        let mut rig = Rig::new();
        let (_, a) = setup(&mut rig, 64);
        let mut pf = ImpPrefetcher::default();
        let mut x = 5u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rig.demand(&mut pf, a + (x % 4096) * 4, 20);
        }
        assert!(pf.learned.is_empty());
    }

    #[test]
    fn shift_matches_element_size() {
        let mut rig = Rig::new();
        let (b, a) = setup(&mut rig, 128);
        let mut pf = ImpPrefetcher::new(4);
        for i in 0..48u64 {
            rig.demand(&mut pf, b + i * 4, 10);
            let v = rig.space.read_u32(b + i * 4) as u64;
            rig.demand(&mut pf, a + v * 4, 20);
        }
        let l = pf.learned.get(&10).expect("learned");
        assert_eq!(l.shift, 2, "4-byte targets imply shift 2");
        assert_eq!(l.base, a);
    }
}
