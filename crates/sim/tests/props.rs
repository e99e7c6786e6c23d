//! Property-based tests of the simulator's primitive models and of the
//! instruction-stream byte encoding.

use prodigy_sim::core::{Insn, InsnStream, Op, StreamBuilder};
use prodigy_sim::mem::address_space::AddressSpace;
use prodigy_sim::mem::dram::Dram;
use prodigy_sim::mem::tlb::Tlb;
use prodigy_sim::stats::{CpiStack, StallCause};
use prodigy_sim::{
    AccessKind, DramConfig, HistQuantiles, Log2Hist, MemorySystem, Stats, SystemConfig,
};
use proptest::prelude::*;

proptest! {
    /// Address-space reads return exactly what was written, for arbitrary
    /// addresses, sizes and overlapping writes applied in order.
    #[test]
    fn address_space_roundtrips(
        writes in prop::collection::vec((0u64..1u64 << 24, any::<u64>(), prop::sample::select(vec![1u8, 2, 4, 8])), 1..60)
    ) {
        let mut a = AddressSpace::new();
        // Apply all writes, then verify the final value of each location by
        // replaying into a reference byte map.
        let mut reference = std::collections::HashMap::new();
        for &(addr, v, size) in &writes {
            a.write_uint(addr, v, size);
            for i in 0..size as u64 {
                reference.insert(addr + i, (v >> (8 * i)) as u8);
            }
        }
        for (&addr, &byte) in &reference {
            prop_assert_eq!(a.read_u8(addr), byte);
        }
    }

    /// DRAM: latency is never below the uncontended access latency, and
    /// queueing is non-negative and bounded by the backlog we created.
    #[test]
    fn dram_latency_bounds(reqs in prop::collection::vec((0u64..1u64 << 22, 0u64..10_000), 1..100)) {
        let cfg = DramConfig { access_latency: 120, channels: 4, cycles_per_transfer: 13 };
        let mut d = Dram::new(cfg);
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|&(_, t)| t);
        for (i, &(addr, t)) in sorted.iter().enumerate() {
            let r = d.read(addr * 64, t);
            prop_assert!(r.latency >= cfg.access_latency);
            prop_assert!(r.queue_wait <= (i as u64 + 1) * cfg.cycles_per_transfer);
            prop_assert_eq!(r.latency, r.queue_wait + cfg.access_latency);
        }
    }

    /// TLB: an access immediately after an access to the same page hits.
    #[test]
    fn tlb_immediate_rereference_hits(pages in prop::collection::vec(0u64..1u64 << 20, 1..50)) {
        let mut t = Tlb::new(16);
        for &p in &pages {
            t.access(p * 4096);
            prop_assert!(t.access(p * 4096 + 123), "same page must hit");
        }
    }

    /// CPI stacks: accumulate is associative with respect to totals, and
    /// normalization always yields a unit (or zero) total.
    #[test]
    fn cpi_stack_algebra(parts in prop::collection::vec((0u8..5, 0.0f64..1e6), 0..20)) {
        let mut s = CpiStack::default();
        let mut total = 0.0;
        for &(c, v) in &parts {
            let cause = [StallCause::Dram, StallCause::Cache, StallCause::Branch,
                         StallCause::Dependency, StallCause::Other][c as usize % 5];
            s.add(cause, v);
            total += v;
        }
        prop_assert!((s.total() - total).abs() < 1e-6 * total.max(1.0));
        let n = s.normalized();
        if total > 0.0 {
            prop_assert!((n.total() - 1.0).abs() < 1e-9);
        }
    }

    /// Normalization holds its `total() == 1.0` invariant *exactly*, even
    /// when the stack is an accumulation of near-zero (subnormal-range)
    /// contributions — the regime where naive per-bucket division drifts.
    #[test]
    fn cpi_stack_normalized_sum_never_drifts(
        parts in prop::collection::vec((0u8..6, 1.0f64..1000.0), 1..30),
        exponent in -320i32..-250,
        repeats in 1usize..200,
    ) {
        let tiny = 10f64.powi(exponent);
        let mut one = CpiStack::default();
        for &(c, v) in &parts {
            match c % 6 {
                0 => one.no_stall += v * tiny,
                1 => one.dram += v * tiny,
                2 => one.cache += v * tiny,
                3 => one.branch += v * tiny,
                4 => one.dependency += v * tiny,
                _ => one.other += v * tiny,
            }
        }
        let mut acc = CpiStack::default();
        for _ in 0..repeats {
            acc.accumulate(&one);
        }
        if acc.total() > 0.0 {
            let n = acc.normalized();
            prop_assert_eq!(n.total(), 1.0, "bucket-sum drift in {:?}", n);
            // Every bucket stays a sane proportion.
            for b in [n.no_stall, n.dram, n.cache, n.branch, n.dependency, n.other] {
                prop_assert!((0.0..=1.0).contains(&b), "bucket out of range: {:?}", n);
            }
        }
    }

    /// Log2Hist quantiles are monotone in q: a higher quantile can never
    /// report a lower bucket interval (both bounds), and the p50 ≤ p90 ≤
    /// p99 ≤ max chain of the standard set holds.
    #[test]
    fn hist_quantiles_monotone_in_q(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut h = Log2Hist::new();
        for &v in &samples {
            h.record(v);
        }
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let a = h.quantile(lo_q).expect("non-empty");
        let b = h.quantile(hi_q).expect("non-empty");
        prop_assert!(a.0 <= b.0 && a.1 <= b.1, "quantile({lo_q}) = {a:?} above quantile({hi_q}) = {b:?}");
        let q = HistQuantiles::from_hist(&h).expect("non-empty");
        for (low, high) in [(q.p50, q.p90), (q.p90, q.p99), (q.p99, q.max)] {
            prop_assert!(low.0 <= high.0 && low.1 <= high.1, "chain broken in {q:?}");
        }
    }

    /// A quantile's `[lo, hi]` interval brackets the true nearest-rank
    /// value of the recorded samples.
    #[test]
    fn hist_quantile_brackets_true_value(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = Log2Hist::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let (lo, hi) = h.quantile(q).expect("non-empty");
        prop_assert!(
            lo <= truth && truth <= hi,
            "true q={q} value {truth} outside reported [{lo}, {hi}]"
        );
        let (mlo, mhi) = h.max_interval().expect("non-empty");
        let max = *sorted.last().expect("non-empty");
        prop_assert!(mlo <= max && max <= mhi, "max {max} outside [{mlo}, {mhi}]");
    }

    /// When every sample lands in one bucket, every quantile reports
    /// exactly that bucket's interval — and the single-valued buckets
    /// (values 0 and 1) collapse it to an exact point.
    #[test]
    fn hist_quantiles_exact_on_single_bucket(v in 0u64..1u64 << 40, n in 1u64..100) {
        let mut h = Log2Hist::new();
        for _ in 0..n {
            h.record(v);
        }
        let q = HistQuantiles::from_hist(&h).expect("non-empty");
        prop_assert_eq!(q.p50, q.p90);
        prop_assert_eq!(q.p90, q.p99);
        prop_assert_eq!(q.p99, q.max);
        let (lo, hi) = q.max;
        prop_assert!(lo <= v && v <= hi, "{v} outside its own bucket [{lo}, {hi}]");
        if v <= 1 {
            prop_assert_eq!((lo, hi), (v, v), "buckets 0 and 1 are single-valued");
        }
    }

    /// An empty histogram has no quantiles, whatever q is asked for.
    #[test]
    fn hist_quantiles_empty_is_none(q in 0.0f64..1.0) {
        let h = Log2Hist::new();
        prop_assert!(h.quantile(q).is_none());
        prop_assert!(h.max_interval().is_none());
        prop_assert!(HistQuantiles::from_hist(&h).is_none());
    }

    /// Provenance accounting: at every metrics-style sample point of an
    /// arbitrary interleaving of demand accesses and tagged/untagged
    /// prefetches, each level's per-source occupancy buckets (demand +
    /// untagged + every tagged source) sum to exactly the level's resident
    /// line count — the sidecar never loses or double-counts a line.
    #[test]
    fn occupancy_buckets_always_sum_to_resident_lines(
        ops in prop::collection::vec(
            // (op selector, line index, source tag)
            (0u8..4, 0u64..1u64 << 12, 0u16..6), 1..300),
    ) {
        let mut m = MemorySystem::new(SystemConfig::scaled(64).with_cores(2));
        let mut s = Stats::default();
        let mut now = 0u64;
        for (i, &(op, line, tag)) in ops.iter().enumerate() {
            let vaddr = line * 64;
            let core = (line % 2) as usize;
            match op {
                0 => { m.demand_access(core, vaddr, AccessKind::Read, now, &mut s); }
                1 => { m.demand_access(core, vaddr, AccessKind::Write, now, &mut s); }
                2 => { m.prefetch(core, vaddr, now, &mut s, None); }
                _ => { m.prefetch(core, vaddr, now, &mut s, Some(tag)); }
            }
            now += 50;
            // Sample at a metrics-window cadence, not only at the end, so
            // intermediate (mid-eviction) states are checked too.
            if i % 16 == 0 || i == ops.len() - 1 {
                let snap = m.occupancy();
                let resident = m.resident_lines();
                for (lvl, occ) in snap.levels.iter().enumerate() {
                    let bucket_sum =
                        occ.demand + occ.untagged + occ.sources.values().sum::<u64>();
                    prop_assert_eq!(bucket_sum, occ.total(), "level {} buckets", lvl);
                    prop_assert_eq!(occ.total(), resident[lvl], "level {} vs resident", lvl);
                }
                prop_assert!(snap.tiers.is_none(), "single-tier machine");
            }
        }
    }
}

/// One arbitrary instruction, weighted toward the stream codec's edge
/// values: addresses at 0, `u64::MAX` and `1 << 63`, near a common base
/// (small deltas) and anywhere (large forward and backward jumps); pcs
/// around the `u16` escape; sizes, latencies and deps at their limits.
struct AnyInsn;

impl Strategy for AnyInsn {
    type Value = Insn;
    fn sample(&self, rng: &mut TestRng) -> Insn {
        let addr = match rng.index(6) {
            0 => 0,
            1 => u64::MAX,
            2 => 1 << 63,
            3 => 0x1000_0000 + 4 * rng.index(1024) as u64,
            4 => u64::MAX - rng.index(1 << 20) as u64,
            _ => rng.next_u64(),
        };
        let pc = [
            0,
            1,
            0xfffe,
            0xffff,
            0x1_0000,
            u32::MAX,
            rng.next_u64() as u32,
        ][rng.index(7)];
        let size = [0, 1, 4, 8, 255, rng.next_u64() as u8][rng.index(6)];
        let mut dep = || [0, 0, 1, u16::MAX, rng.next_u64() as u16][rng.index(5)];
        let (dep1, dep2) = (dep(), dep());
        let op = match rng.index(5) {
            0 => Op::Load { addr, size, pc },
            1 => Op::Store { addr, size, pc },
            2 => Op::Compute { latency: size },
            3 => Op::Branch {
                pc,
                taken: rng.next_u64() & 1 == 1,
            },
            _ => Op::Prefetch { addr },
        };
        Insn { op, dep1, dep2 }
    }
}

proptest! {
    /// The byte encoding is total: any instruction sequence collected into
    /// a stream decodes back to itself.
    #[test]
    fn insn_stream_round_trips_any_instructions(v in prop::collection::vec(AnyInsn, 0..300)) {
        let s: InsnStream = v.iter().copied().collect();
        prop_assert_eq!(s.len(), v.len());
        prop_assert_eq!(s.iter().len(), v.len());
        prop_assert_eq!(s.iter().collect::<Vec<Insn>>(), v);
    }

    /// Streams emitted through `StreamBuilder` decode to the instructions
    /// emitted, with each dependency as the distance to its producer.
    #[test]
    fn stream_builder_round_trips_any_sequence(
        calls in prop::collection::vec((AnyInsn, any::<u64>(), 0usize..3), 1..300)
    ) {
        let mut b = StreamBuilder::new();
        let mut want = Vec::new();
        for (i, &(insn, r, n)) in calls.iter().enumerate() {
            // Up to two earlier producers, picked from the bits of `r`.
            let deps: Vec<usize> = if i == 0 {
                Vec::new()
            } else {
                (0..n).map(|k| (r >> (32 * k)) as usize % i).collect()
            };
            let dist = |k: usize| deps.get(k).map_or(0, |&d| (i - d) as u16);
            let idx = match insn.op {
                Op::Load { addr, size, pc } => b.load_at(pc, addr, size, &deps),
                Op::Store { addr, size, pc } => b.store_at(pc, addr, size, &deps),
                Op::Compute { latency } => b.compute(latency, &deps),
                Op::Branch { pc, taken } => b.branch(pc, taken, &deps),
                Op::Prefetch { addr } => b.prefetch(addr, &deps),
            };
            prop_assert_eq!(idx, i);
            want.push(Insn { op: insn.op, dep1: dist(0), dep2: dist(1) });
        }
        prop_assert_eq!(b.finish().iter().collect::<Vec<Insn>>(), want);
    }

    /// Loop-nest-shaped streams, whose deps the encoder predicts rather
    /// than stores, decode to the instructions emitted.
    #[test]
    fn stream_builder_round_trips_loop_nests(seed in any::<u64>()) {
        let nest = LoopNest::build(seed);
        let s = nest.b.finish();
        prop_assert_eq!(s.len(), nest.want.len());
        let got: Vec<Insn> = s.iter().collect();
        if let Some(i) = (0..got.len()).find(|&i| got[i] != nest.want[i]) {
            prop_assert_eq!((i, got[i]), (i, nest.want[i]));
        }
    }
}

/// A stream built through `StreamBuilder`'s emitters, with the instructions
/// it must decode to.
struct LoopNest {
    b: StreamBuilder,
    want: Vec<Insn>,
    rng: u64,
}

impl LoopNest {
    /// Emits `op` after producers `deps` and records its expected decoding:
    /// the first two producers as distances, where one further back than
    /// `u16::MAX` is dropped and the next moves up.
    fn emit(&mut self, op: Op, deps: &[usize]) -> usize {
        let i = self.b.next_index();
        let idx = match op {
            Op::Load { addr, size, pc } => self.b.load_at(pc, addr, size, deps),
            Op::Store { addr, size, pc } => self.b.store_at(pc, addr, size, deps),
            Op::Compute { latency } => self.b.compute(latency, deps),
            Op::Branch { pc, taken } => self.b.branch(pc, taken, deps),
            Op::Prefetch { addr } => self.b.prefetch(addr, deps),
        };
        assert_eq!(idx, i);
        let mut near = deps
            .iter()
            .take(2)
            .map(|&p| i - p)
            .filter(|&d| d <= u16::MAX as usize);
        let (dep1, dep2) = (near.next().unwrap_or(0), near.next().unwrap_or(0));
        self.want.push(Insn {
            op,
            dep1: dep1 as u16,
            dep2: dep2 as u16,
        });
        idx
    }

    /// A uniform draw below `n`.
    fn draw(&mut self, n: u64) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 33) % n
    }

    fn load(&mut self, pc: u32, addr: u64, deps: &[usize]) -> usize {
        self.emit(Op::Load { addr, size: 4, pc }, deps)
    }

    fn compute(&mut self, latency: u8, deps: &[usize]) -> usize {
        self.emit(Op::Compute { latency }, deps)
    }

    /// A seeded loop nest: a CSR-style gather whose inner loads depend on
    /// loads before the loop, a loop-carried accumulator, two and then
    /// three compute shapes alternating at one latency, more sites than
    /// the header's template ids hold, and (in one seed in four) producers
    /// `u16::MAX` and `u16::MAX + 1` back.
    fn build(seed: u64) -> LoopNest {
        let mut n = LoopNest {
            b: StreamBuilder::new(),
            want: Vec::new(),
            rng: seed,
        };
        let mut acc = n.compute(1, &[]);
        let mut w = 0;
        for v in 0..1 + n.draw(24) {
            // Offsets loaded before the loop, read by every iteration.
            let lo = n.load(1, 0x10_0000 + 4 * v, &[]);
            let hi = n.load(2, 0x10_0004 + 4 * v, &[]);
            for _ in 0..n.draw(20) {
                let e = n.load(3, 0x20_0000 + 4 * w, &[lo]);
                let val = n.load(4, 0x40_0000 + 8 * w, &[lo, hi]);
                let x = n.draw(1 << 20);
                let x = n.load(5, 0x80_0000 + 8 * x, &[e]);
                // A multiply and the accumulator's add: two shapes at one
                // latency; every third row adds a third.
                let mul = n.compute(4, &[val, x]);
                acc = n.compute(4, &[mul, acc]);
                if v % 3 == 2 {
                    acc = n.compute(4, &[acc, e]);
                }
                let taken = n.draw(2) == 1;
                n.emit(Op::Branch { pc: 6, taken }, &[x]);
                w += 1;
            }
            n.emit(
                Op::Store {
                    addr: 0x30_0000 + 8 * v,
                    size: 8,
                    pc: 7,
                },
                &[acc],
            );
        }
        // Sites past the header's ids, in a loop off one earlier load.
        let base = n.load(8, 0x50_0000, &[]);
        for k in 0..1 + n.draw(4) {
            for pc in 100..117 + n.draw(8) as u32 {
                n.load(pc, 0x60_0000 + 64 * k + pc as u64, &[base]);
            }
        }
        if n.draw(4) == 0 {
            // A loop whose first producer crosses the u16::MAX horizon: it
            // is u16::MAX - 2 ... u16::MAX + 2 back, so the last two
            // instances drop it and their near producer moves into dep1.
            let far = n.load(9, 0x70_0000, &[]);
            while n.b.next_index() - far < u16::MAX as usize - 3 {
                n.compute(1, &[]);
            }
            let near = n.compute(2, &[]);
            for k in 0..5 {
                n.load(10, 0x70_0040 + 4 * k, &[far, near]);
            }
        }
        n
    }
}
