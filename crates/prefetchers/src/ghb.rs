//! GHB-based Global/Delta-Correlation (G/DC) prefetcher
//! (Nesbit & Smith, HPCA 2004) — the paper's conventional-prefetcher
//! comparison (§VI-C: "known to predict inaccurate prefetch addresses for
//! irregular memory accesses due to the lack of spatial locality").
//!
//! A circular Global History Buffer records the global L1-miss address
//! stream; an index table keyed by the last two address deltas points at
//! the most recent occurrence of that delta pair. On a miss, the delta
//! history following the previous occurrence predicts the next addresses.

use prodigy_sim::fxhash::FxBuildHasher;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::ServedBy;
use std::any::Any;
use std::collections::HashMap;

/// GHB G/DC prefetcher.
#[derive(Debug)]
pub struct GhbGdcPrefetcher {
    ghb: Vec<u64>,
    head: usize,
    // Fx-hashed: this map is only ever inserted into / probed (never
    // iterated), so the hasher cannot affect behavior — and it sits on the
    // per-miss hot path of the heaviest fig02 cell.
    index: HashMap<(i64, i64), usize, FxBuildHasher>,
    degree: u32,
    last: [u64; 3],
    seen: usize,
}

impl Default for GhbGdcPrefetcher {
    fn default() -> Self {
        Self::new(256, 4)
    }
}

impl GhbGdcPrefetcher {
    /// Creates a G/DC prefetcher with a `capacity`-entry GHB and prefetch
    /// `degree`.
    pub fn new(capacity: usize, degree: u32) -> Self {
        assert!(capacity >= 8, "GHB too small to correlate");
        GhbGdcPrefetcher {
            ghb: vec![0; capacity],
            head: 0,
            index: HashMap::default(),
            degree,
            last: [0; 3],
            seen: 0,
        }
    }

    fn push(&mut self, addr: u64) {
        self.ghb[self.head] = addr;
        self.head = (self.head + 1) % self.ghb.len();
    }

    fn at(&self, pos: usize) -> u64 {
        self.ghb[pos % self.ghb.len()]
    }
}

impl Prefetcher for GhbGdcPrefetcher {
    fn name(&self) -> &'static str {
        "ghb-gdc"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        // G/DC trains on the global miss stream.
        if a.served == ServedBy::L1 {
            return;
        }
        self.last = [self.last[1], self.last[2], a.vaddr];
        self.seen += 1;
        let pos = self.head;
        self.push(a.vaddr);
        if self.seen < 3 {
            return;
        }
        let d1 = self.last[2] as i64 - self.last[1] as i64;
        let d2 = self.last[1] as i64 - self.last[0] as i64;
        let key = (d2, d1);
        let prev = self.index.insert(key, pos);
        // The index keeps every delta pair it has seen, with the GHB slot of
        // the pair's latest occurrence. Nothing checks whether the circular
        // buffer has overwritten that slot since: a hit replays whatever the
        // slots after it hold now. The replay never reads the current slot or
        // a later one, so a hit on the slot just before the current one, or
        // on any later slot, replays nothing.
        if let Some(p) = prev {
            ctx.trace_note("ghb-correlation-hit", a.vaddr);
            // Replay the deltas that followed the previous occurrence.
            let mut predicted = a.vaddr as i64;
            for k in 1..=self.degree as usize {
                let older = self.at(p + k - 1) as i64;
                let newer = self.at(p + k) as i64;
                if p + k >= pos {
                    break;
                }
                let delta = newer - older;
                predicted += delta;
                if predicted > 0 && delta != 0 {
                    // Attribute to the replay depth: how far down the
                    // correlated delta chain this prediction sits.
                    ctx.prefetch_tagged(predicted as u64, k as u16);
                }
            }
        }
    }

    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _fill: &FillEvent) {}

    fn storage_bits(&self) -> u64 {
        // GHB entries (address + link) plus an index table costed at 256
        // entries. The modelled index is unbounded (one entry per distinct
        // delta pair seen), so this is what the accounting assumes, not
        // what the model holds.
        self.ghb.len() as u64 * (64 + 8) + 256 * (32 + 8)
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
    fn learns_repeating_delta_pattern() {
        let mut rig = Rig::new();
        let mut pf = GhbGdcPrefetcher::default();
        // Repeating delta sequence +64, +128, +256 over a miss stream.
        let mut addr = 0x100_0000u64;
        let deltas = [64u64, 128, 256];
        for rep in 0..6 {
            for &d in &deltas {
                rig.demand(&mut pf, addr, 1);
                addr += d;
            }
            let _ = rep;
        }
        assert!(
            rig.stats.prefetches_issued > 0,
            "delta correlation should fire on a repeating pattern"
        );
    }

    #[test]
    fn random_miss_stream_yields_little() {
        let mut rig = Rig::new();
        let mut pf = GhbGdcPrefetcher::default();
        let mut x = 7u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rig.demand(&mut pf, (x >> 16) % (256 << 20), 1);
        }
        // Random deltas never repeat as pairs: (almost) nothing predicted.
        assert!(
            rig.stats.prefetches_issued < 5,
            "issued {} on random stream",
            rig.stats.prefetches_issued
        );
    }

    #[test]
    fn l1_hits_do_not_train() {
        let mut rig = Rig::new();
        let mut pf = GhbGdcPrefetcher::default();
        for i in 0..20u64 {
            rig.notify(&mut pf, 0x50_0000 + i * 64, 1, ServedBy::L1);
        }
        assert_eq!(rig.stats.prefetches_issued, 0);
    }
}

#[cfg(test)]
mod wraparound_tests {
    use super::*;
    use crate::testutil::Rig;

    #[test]
    fn ghb_survives_buffer_wraparound() {
        // Push far more misses than the GHB holds. Index entries then name
        // slots the buffer has overwritten, and hits on them replay the
        // overwritten contents; that must stay in bounds and bounded.
        let mut rig = Rig::new();
        let mut pf = GhbGdcPrefetcher::new(16, 2);
        let mut addr = 0x200_0000u64;
        for i in 0..500u64 {
            rig.demand(&mut pf, addr, 1);
            addr += 64 + (i % 7) * 128; // semi-repeating deltas
        }
        // No assertion beyond "did not panic / did not explode": issue
        // volume stays bounded by degree × misses.
        assert!(rig.stats.prefetches_issued < 2 * 500);
    }

    #[test]
    fn tiny_ghb_rejected() {
        let r = std::panic::catch_unwind(|| GhbGdcPrefetcher::new(4, 2));
        assert!(r.is_err(), "capacity < 8 must be rejected");
    }
}
