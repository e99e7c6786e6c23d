//! Property-based tests over the core data structures and cross-crate
//! invariants (proptest).

use prodigy::dig::NodeId;
use prodigy::{Dig, EdgeKind, PfhrFile, ProdigyPrefetcher, TriggerSpec};
use prodigy_sim::mem::cache::{demand_line, Cache};
use prodigy_sim::mem::coherence::Mesi;
use prodigy_sim::prefetch::{DemandAccess, FillQueue, PrefetchCtx, Prefetcher};
use prodigy_sim::{
    AccessKind, AddressSpace, CacheConfig, MemorySystem, ServedBy, Stats, SystemConfig,
};
use prodigy_workloads::graph::csr::Csr;
use prodigy_workloads::graph::reorder::{apply, hubsort};
use prodigy_workloads::kernels::{Bfs, FunctionalRunner, Kernel, PhaseRunner};
use proptest::prelude::*;

proptest! {
    /// The cache never exceeds its capacity and always finds what it just
    /// inserted (until evicted), under arbitrary access sequences.
    #[test]
    fn cache_occupancy_and_hit_invariants(addrs in prop::collection::vec(0u64..1u64 << 20, 1..400)) {
        let cfg = CacheConfig { capacity: 4096, ways: 4, data_latency: 1, tag_latency: 1 };
        let capacity_lines = (cfg.capacity / 64) as usize;
        let mut c = Cache::new(&cfg);
        for &a in &addrs {
            c.insert(demand_line(a, Mesi::Exclusive, 0, ServedBy::Dram), None);
            prop_assert!(c.lookup(a).is_some(), "line just inserted must be present");
            prop_assert!(c.len() <= capacity_lines);
        }
    }

    /// The PFHR file never exceeds capacity, and take() returns exactly
    /// what allocate() stored.
    #[test]
    fn pfhr_file_bounded_and_consistent(
        ops in prop::collection::vec((0u8..4, 0u64..1u64 << 16), 1..200)
    ) {
        let mut f = PfhrFile::new(8);
        for (op, addr) in ops {
            match op {
                0 | 1 => {
                    f.allocate(NodeId(op), addr, addr * 4, 4);
                }
                2 => {
                    if let Some(e) = f.take(prodigy_sim::line_of(addr * 4)) {
                        prop_assert!(e.pending_elems().count() >= 1);
                    }
                }
                _ => {
                    f.drop_sequence(addr);
                }
            }
            prop_assert!(f.occupied() <= f.capacity());
        }
    }

    /// A Prodigy prefetcher programmed with an arbitrary valid DIG never
    /// panics and never prefetches outside its registered structures'
    /// lines, for arbitrary demand addresses.
    #[test]
    fn prodigy_never_prefetches_outside_registered_structures(
        seed in 0u64..1000,
        demands in prop::collection::vec(0u64..1u64 << 18, 1..60)
    ) {
        let mut dig = Dig::new();
        let base = 0x10_000 + (seed % 64) * 0x1000;
        let a = dig.node(base, 256, 4);
        let b = dig.node(base + 0x4000, 257, 4);
        let c = dig.node(base + 0x8000, 2048, 4);
        dig.edge(a, b, EdgeKind::SingleValued);
        dig.edge(b, c, EdgeKind::Ranged);
        dig.trigger(a, TriggerSpec::default());
        let mut pf = ProdigyPrefetcher::default();
        pf.program(&dig).unwrap();

        let mut mem = MemorySystem::new(SystemConfig::scaled(64).with_cores(1));
        let mut space = AddressSpace::new();
        // Fill index arrays with arbitrary (possibly out-of-range) values.
        for i in 0..256u64 {
            space.write_u32(base + i * 4, (seed.wrapping_mul(i + 3) % 4096) as u32);
            space.write_u32(base + 0x4000 + i * 4, (seed.wrapping_mul(i) % 4096) as u32);
        }
        let mut stats = Stats::default();
        let mut fills = FillQueue::new();
        for (t, &d) in demands.iter().enumerate() {
            let mut ctx = PrefetchCtx::new(0, t as u64 * 50, &mut mem, &space, &mut stats, &mut fills);
            pf.on_demand(&mut ctx, &DemandAccess {
                vaddr: base + d % 0x9000,
                size: 4,
                is_write: false,
                pc: 1,
                served: ServedBy::Dram,
            });
        }
        // Drain fills.
        while let Some(std::cmp::Reverse(q)) = fills.pop() {
            let within = [(base, 256u64, 4u8), (base + 0x4000, 257, 4), (base + 0x8000, 2048, 4)]
                .iter()
                .any(|&(b0, n, s)| {
                    let lo = prodigy_sim::line_of(b0);
                    let hi = b0 + n * s as u64;
                    (lo..hi).contains(&q.line_addr)
                });
            prop_assert!(within, "prefetched line {:#x} outside DIG structures", q.line_addr);
            let mut ctx = PrefetchCtx::new(0, q.at, &mut mem, &space, &mut stats, &mut fills);
            pf.on_fill(&mut ctx, &q);
        }
    }

    /// Demand accesses through the hierarchy always return bounded,
    /// positive latencies and consistent served levels.
    #[test]
    fn memory_latency_is_bounded(addrs in prop::collection::vec(0u64..1u64 << 22, 1..300)) {
        let cfg = SystemConfig::scaled(64).with_cores(2);
        let mut mem = MemorySystem::new(cfg);
        let mut stats = Stats::default();
        let mut now = 0;
        for (i, &a) in addrs.iter().enumerate() {
            let core = i % 2;
            let kind = if i % 7 == 0 { AccessKind::Write } else { AccessKind::Read };
            let r = mem.demand_access(core, a, kind, now, &mut stats);
            prop_assert!(r.latency >= 1);
            // TLB walk + full miss path + queueing bound.
            prop_assert!(r.latency < 50_000, "latency {} absurd", r.latency);
            if r.served == ServedBy::L1 {
                prop_assert!(r.latency <= cfg.tlb_miss_latency + cfg.l1d.data_latency + 400);
            }
            now += 3;
        }
        prop_assert_eq!(stats.l1d.accesses(), addrs.len() as u64);
    }

    /// BFS results are invariant under HubSort reordering (modulo the
    /// vertex renaming) — the Fig. 18 precondition.
    #[test]
    fn hubsort_preserves_bfs_depth_multiset(seed in 0u64..200) {
        let g = prodigy_workloads::graph::generators::rmat(
            256, 2048, seed, (0.57, 0.19, 0.19));
        let r = hubsort(&g);
        let h = apply(&g, &r);
        let src = 0u32;
        let d1 = Bfs::reference_depths(&g, src);
        let d2 = Bfs::reference_depths(&h, r.mapping[src as usize]);
        let mut m1: Vec<u32> = d1;
        let mut m2: Vec<u32> = d2;
        m1.sort_unstable();
        m2.sort_unstable();
        prop_assert_eq!(m1, m2);
    }

    /// CSR transpose is an involution and preserves the edge count.
    #[test]
    fn transpose_involution(seed in 0u64..200) {
        let g = prodigy_workloads::graph::generators::uniform(128, 512, seed);
        let t = g.transpose();
        prop_assert_eq!(t.m(), g.m());
        prop_assert_eq!(t.transpose(), g.clone());
    }

    /// The BFS kernel's emitted execution matches its pure reference for
    /// arbitrary graphs and core counts.
    #[test]
    fn bfs_kernel_matches_reference(seed in 0u64..100, cores in 1usize..6) {
        let g = prodigy_workloads::graph::generators::rmat(
            200, 1200, seed, (0.57, 0.19, 0.19));
        let reference = Bfs::reference_depths(&g, 0);
        let mut k = Bfs::new(g, 0);
        let mut r = FunctionalRunner::new(cores);
        k.prepare(r.space_mut());
        k.run(&mut r);
        prop_assert_eq!(k.depths, reference);
    }
}

#[test]
fn csr_from_edges_roundtrips_neighbors() {
    let edges = vec![(0u32, 3u32), (1, 2), (0, 1), (3, 0)];
    let g = Csr::from_edges(4, &edges);
    let mut collected: Vec<(u32, u32)> = Vec::new();
    for v in 0..g.n() {
        for &w in g.neighbors(v) {
            collected.push((v, w));
        }
    }
    let mut expect = edges;
    expect.sort_unstable();
    collected.sort_unstable();
    assert_eq!(collected, expect);
}
