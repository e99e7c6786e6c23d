//! GHB-based Global/Delta-Correlation (G/DC) prefetcher
//! (Nesbit & Smith, HPCA 2004) — the paper's conventional-prefetcher
//! comparison (§VI-C: "known to predict inaccurate prefetch addresses for
//! irregular memory accesses due to the lack of spatial locality").
//!
//! A circular Global History Buffer records the global L1-miss address
//! stream; an index table keyed by the last two address deltas points at
//! the most recent occurrence of that delta pair. On a miss, the delta
//! history following the previous occurrence predicts the next addresses.
//!
//! The modelled index is unbounded: it keeps every delta pair it has ever
//! seen, with the GHB slot of the pair's latest occurrence (the hardware
//! accounting in `storage_bits` assumes a 256-entry table instead). On the
//! host the index is a `DeltaIndex`: a flat open-addressed table that packs
//! a pair and its slot into one 8-byte entry, plus an exact fallback map
//! for the rare pairs that do not pack. A pair costs 8 B there (9–18 B
//! counting the table's free entries) against 25 B for a
//! `HashMap<(i64, i64), usize>` bucket, and a training miss touches one
//! host cache line of the index.

use prodigy_sim::fxhash::FxBuildHasher;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::ServedBy;
use std::any::Any;
use std::collections::HashMap;

/// Largest GHB: a slot must fit the index entry's 8-bit slot field.
const MAX_CAPACITY: usize = 1 << SLOT_BITS;

/// GHB G/DC prefetcher.
#[derive(Debug)]
pub struct GhbGdcPrefetcher {
    ghb: Vec<u64>,
    head: usize,
    index: DeltaIndex,
    degree: u32,
    last: [u64; 3],
    seen: usize,
}

/// What one trained miss asks of the memory system, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    /// The miss's delta pair was seen before (a `ghb-correlation-hit` note).
    CorrelationHit,
    /// A prefetch of `addr`, tagged with its replay depth.
    Prefetch { addr: u64, depth: u16 },
}

impl Default for GhbGdcPrefetcher {
    fn default() -> Self {
        Self::new(256, 4)
    }
}

impl GhbGdcPrefetcher {
    /// Creates a G/DC prefetcher with a `capacity`-entry GHB and prefetch
    /// `degree`.
    ///
    /// # Panics
    /// Panics unless `8 <= capacity <= 256`.
    pub fn new(capacity: usize, degree: u32) -> Self {
        assert!(capacity >= 8, "GHB too small to correlate");
        assert!(
            capacity <= MAX_CAPACITY,
            "GHB slots must fit the index's 8-bit slot field"
        );
        GhbGdcPrefetcher {
            ghb: vec![0; capacity],
            head: 0,
            index: DeltaIndex::default(),
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

    /// Trains on the L1 miss at `vaddr` and hands each resulting action to
    /// `out`, in issue order.
    fn train(&mut self, vaddr: u64, mut out: impl FnMut(Output)) {
        self.last = [self.last[1], self.last[2], vaddr];
        self.seen += 1;
        let pos = self.head;
        self.push(vaddr);
        if self.seen < 3 {
            return;
        }
        let d1 = self.last[2] as i64 - self.last[1] as i64;
        let d2 = self.last[1] as i64 - self.last[0] as i64;
        let prev = self.index.insert(d2, d1, pos);
        // The index keeps every delta pair it has seen, with the GHB slot of
        // the pair's latest occurrence. Nothing checks whether the circular
        // buffer has overwritten that slot since: a hit replays whatever the
        // slots after it hold now. The replay never reads the current slot or
        // a later one, so a hit on the slot just before the current one, or
        // on any later slot, replays nothing.
        if let Some(p) = prev {
            out(Output::CorrelationHit);
            // Replay the deltas that followed the previous occurrence.
            let mut predicted = vaddr as i64;
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
                    out(Output::Prefetch {
                        addr: predicted as u64,
                        depth: k as u16,
                    });
                }
            }
        }
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
        self.train(a.vaddr, |o| match o {
            Output::CorrelationHit => ctx.trace_note("ghb-correlation-hit", a.vaddr),
            Output::Prefetch { addr, depth } => {
                ctx.prefetch(addr, depth);
            }
        });
    }

    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _fill: &FillEvent) {}

    fn storage_bits(&self) -> u64 {
        // GHB entries (address + link) plus an index table costed at 256
        // entries. The modelled index is unbounded (one entry per distinct
        // delta pair seen, 8 B each on the host), so this is what the
        // accounting assumes, not what the model holds.
        self.ghb.len() as u64 * (64 + 8) + 256 * (32 + 8)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Bits per delta in a packed entry (signed).
const DELTA_BITS: u32 = 28;
/// Bits of the GHB slot in a packed entry.
const SLOT_BITS: u32 = 8;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// A free table entry. It is also the packed form of the pair (−1, −1) at
/// slot 255, so that pair always lives in the fallback map.
const EMPTY: u64 = u64::MAX;
/// Table size on the first insert.
const MIN_TABLE: usize = 64;

/// The G/DC index: an exact, unbounded map from a delta pair `(d2, d1)` to
/// the GHB slot (< 256) of its latest occurrence.
///
/// A pair whose deltas both fit in 28 signed bits lives in `table`, packed
/// as `d2:28 | d1:28 | slot:8` and placed by linear probing; the table
/// doubles before its load passes 7/8. Every other pair, and the pair
/// (−1, −1) whose packed form could equal [`EMPTY`], lives in `fallback`.
/// Which store holds a pair depends only on the pair, so [`Self::insert`]
/// returns exactly what `HashMap<(i64, i64), usize>::insert` returns.
#[derive(Debug, Default)]
struct DeltaIndex {
    /// Power-of-two length (or empty before the first insert).
    table: Vec<u64>,
    /// Occupied entries of `table`.
    len: usize,
    // Fx-hashed: only ever inserted into (never iterated), so the hasher
    // cannot affect behavior.
    fallback: HashMap<(i64, i64), u8, FxBuildHasher>,
}

impl DeltaIndex {
    /// The pair's packed form with a zero slot field, or `None` for a pair
    /// that belongs in the fallback map.
    fn pack(d2: i64, d1: i64) -> Option<u64> {
        let unused = 64 - DELTA_BITS;
        let fits = |d: i64| (d << unused) >> unused == d;
        if !fits(d2) || !fits(d1) {
            return None;
        }
        let mask = (1u64 << DELTA_BITS) - 1;
        let key =
            ((d2 as u64 & mask) << (DELTA_BITS + SLOT_BITS)) | ((d1 as u64 & mask) << SLOT_BITS);
        (key != EMPTY & !SLOT_MASK).then_some(key)
    }

    /// Home position of a packed key: Fibonacci hashing of the pair bits.
    fn home(&self, key: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        ((key >> SLOT_BITS).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Records `slot` as the latest occurrence of `(d2, d1)`; returns the
    /// slot of the previous occurrence, if any.
    fn insert(&mut self, d2: i64, d1: i64, slot: usize) -> Option<usize> {
        let slot = u8::try_from(slot).expect("GHB capacity is at most 256");
        let Some(key) = Self::pack(d2, d1) else {
            return self.fallback.insert((d2, d1), slot).map(usize::from);
        };
        if self.len * 8 >= self.table.len() * 7 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            let e = self.table[i];
            if e == EMPTY {
                self.table[i] = key | slot as u64;
                self.len += 1;
                return None;
            }
            if e & !SLOT_MASK == key {
                self.table[i] = key | slot as u64;
                return Some((e & SLOT_MASK) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-places every entry.
    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(MIN_TABLE);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; cap]);
        for e in old.into_iter().filter(|&e| e != EMPTY) {
            let mut i = self.home(e & !SLOT_MASK);
            while self.table[i] != EMPTY {
                i = (i + 1) & (cap - 1);
            }
            self.table[i] = e;
        }
    }

    /// Heap bytes held, counting the fallback map's buckets at their size
    /// plus one control byte.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<((i64, i64), u8)>() + 1;
        self.table.capacity() * 8 + self.fallback.capacity() * bucket
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

    #[test]
    fn ghb_wider_than_slot_field_rejected() {
        assert_eq!(GhbGdcPrefetcher::new(256, 2).ghb.len(), 256);
        let r = std::panic::catch_unwind(|| GhbGdcPrefetcher::new(257, 2));
        assert!(r.is_err(), "capacity > 256 must be rejected");
    }
}

/// The index must behave exactly like a `HashMap<(i64, i64), usize>`, alone
/// and inside the prefetcher.
#[cfg(test)]
mod index_tests {
    use super::*;
    use proptest::prelude::*;

    /// Deltas at every boundary of the packed form: each value within 4 of
    /// 0 and of ±2^27, and the extremes (so pairs repeat), or any `i64`.
    fn delta() -> impl Strategy<Value = i64> {
        const EDGE: i64 = 1 << (DELTA_BITS - 1);
        let near: Vec<i64> = [0, EDGE, -EDGE]
            .iter()
            .flat_map(|&c| c - 4..=c + 4)
            .chain([i64::MIN, i64::MAX])
            .collect();
        prop_oneof![prop::sample::select(near), any::<i64>()]
    }

    proptest! {
        #[test]
        fn index_matches_hashmap(
            ops in prop::collection::vec((delta(), delta(), 0usize..256), 1..400)
        ) {
            let mut index = DeltaIndex::default();
            let mut map: HashMap<(i64, i64), usize> = HashMap::new();
            for (d2, d1, slot) in ops {
                prop_assert_eq!(
                    index.insert(d2, d1, slot),
                    map.insert((d2, d1), slot),
                    "insert(({}, {}), {})", d2, d1, slot
                );
            }
        }
    }

    #[test]
    fn minus_one_pair_matches_hashmap_at_every_slot() {
        let mut index = DeltaIndex::default();
        let mut map: HashMap<(i64, i64), usize> = HashMap::new();
        // Interleave with its packed neighbours so a wrong store shows.
        for slot in (0..=255).chain((0..=255).rev()) {
            for pair in [(-1, -1), (-1, 0), (0, -1), (-2, -1)] {
                assert_eq!(
                    index.insert(pair.0, pair.1, slot),
                    map.insert(pair, slot),
                    "insert({pair:?}, {slot})"
                );
            }
        }
        // (-1, -1) lives in the fallback map, its neighbours in the table.
        assert_eq!((index.len, index.fallback.len()), (3, 1));
    }

    #[test]
    fn million_pairs_fit_in_twenty_mib() {
        let mut index = DeltaIndex::default();
        let mut x = 1u64;
        let mut inserted = 0;
        while index.len < 1_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d2 = (x >> 36) as i64 - (1 << 27);
            let d1 = ((x >> 8) & 0xfff_ffff) as i64 - (1 << 27);
            index.insert(d2, d1, inserted % 256);
            inserted += 1;
        }
        // A HashMap<(i64, i64), usize> holds 2^21 buckets of 25 B here
        // (about 50 MiB).
        let mib = index.heap_bytes() as f64 / (1 << 20) as f64;
        assert!(mib <= 20.0, "1M pairs hold {mib:.1} MiB");
    }

    /// The equivalence reference: the same GHB and replay over a plain
    /// `HashMap` index.
    struct HashMapGhb {
        ghb: Vec<u64>,
        head: usize,
        index: HashMap<(i64, i64), usize>,
        degree: u32,
        last: [u64; 3],
        seen: usize,
    }

    impl HashMapGhb {
        fn new(capacity: usize, degree: u32) -> Self {
            HashMapGhb {
                ghb: vec![0; capacity],
                head: 0,
                index: HashMap::new(),
                degree,
                last: [0; 3],
                seen: 0,
            }
        }

        fn at(&self, pos: usize) -> u64 {
            self.ghb[pos % self.ghb.len()]
        }

        fn train(&mut self, vaddr: u64, out: &mut Vec<Output>) {
            self.last = [self.last[1], self.last[2], vaddr];
            self.seen += 1;
            let pos = self.head;
            self.ghb[self.head] = vaddr;
            self.head = (self.head + 1) % self.ghb.len();
            if self.seen < 3 {
                return;
            }
            let d1 = self.last[2] as i64 - self.last[1] as i64;
            let d2 = self.last[1] as i64 - self.last[0] as i64;
            if let Some(p) = self.index.insert((d2, d1), pos) {
                out.push(Output::CorrelationHit);
                let mut predicted = vaddr as i64;
                for k in 1..=self.degree as usize {
                    let older = self.at(p + k - 1) as i64;
                    let newer = self.at(p + k) as i64;
                    if p + k >= pos {
                        break;
                    }
                    let delta = newer - older;
                    predicted += delta;
                    if predicted > 0 && delta != 0 {
                        out.push(Output::Prefetch {
                            addr: predicted as u64,
                            depth: k as u16,
                        });
                    }
                }
            }
        }
    }

    /// Feeds `misses` to both GHBs and asserts identical outputs, miss by
    /// miss. Returns the number of correlation hits.
    fn assert_same_outputs(capacity: usize, degree: u32, misses: &[u64]) -> usize {
        let mut new = GhbGdcPrefetcher::new(capacity, degree);
        let mut reference = HashMapGhb::new(capacity, degree);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut hits = 0;
        for (i, &vaddr) in misses.iter().enumerate() {
            got.clear();
            want.clear();
            new.train(vaddr, |o| got.push(o));
            reference.train(vaddr, &mut want);
            assert_eq!(got, want, "miss {i} at {vaddr:#x}");
            hits += got.contains(&Output::CorrelationHit) as usize;
        }
        hits
    }

    /// L1 misses of the PageRank CSC gather (`kernels::pr`): each offset
    /// and edge-list line once, and every contribution load. Half of those
    /// hit one of 16 hub vertices, as a power-law graph's in-edges do, so
    /// delta pairs recur.
    fn pr_gather_misses(n: usize, seed: u64) -> Vec<u64> {
        let (off, edg, contrib) = (0x10_0000u64, 0x20_0000u64, 0x80_0000u64);
        let mut x = seed;
        let mut rand = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        let (mut misses, mut u, mut w) = (Vec::with_capacity(n), 0u64, 0u64);
        while misses.len() < n {
            if u % 16 == 0 {
                misses.push(off + 4 * u);
            }
            for _ in 0..rand() % 28 {
                if w % 16 == 0 {
                    misses.push(edg + 4 * w);
                }
                let v = match rand() % 2 {
                    0 => rand() % 16 * 6_000,
                    _ => rand() % 96_000,
                };
                misses.push(contrib + 8 * v);
                w += 1;
            }
            u += 1;
        }
        misses
    }

    proptest! {
        #[test]
        fn prefetcher_matches_hashmap_ghb_on_random_misses(
            misses in prop::collection::vec(0u64..1 << 30, 1..600),
            small in any::<bool>(),
        ) {
            let (capacity, degree) = if small { (16, 2) } else { (256, 4) };
            assert_same_outputs(capacity, degree, &misses);
        }

        #[test]
        fn prefetcher_matches_hashmap_ghb_on_repetitive_misses(
            steps in prop::collection::vec(prop::sample::select(vec![0u64, 4, 64, 4096]), 1..600),
        ) {
            // Few distinct deltas: nearly every miss is a correlation hit.
            let mut addr = 1u64 << 29;
            let misses: Vec<u64> = steps.iter().map(|s| { addr += s; addr }).collect();
            assert_same_outputs(16, 2, &misses);
        }
    }

    #[test]
    fn prefetcher_matches_hashmap_ghb_on_pr_gather_misses() {
        for seed in [0x9002, 7, 99] {
            let misses = pr_gather_misses(200_000, seed);
            let hits = assert_same_outputs(256, 4, &misses);
            assert!(hits > 1000, "seed {seed}: only {hits} correlation hits");
        }
    }
}
