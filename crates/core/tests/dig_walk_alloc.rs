//! The Prodigy DIG walker must not allocate per trigger or per fill.
//!
//! Every demand inside the trigger structure drops the sequences the core
//! has passed and starts new ones; every prefetch fill (and every redundant
//! prefetch of a line already on-chip) runs its pending elements through
//! the node's outgoing DIG edges. Both paths run once per simulated event,
//! so a heap operation on either costs more than the walk it serves. This
//! test pins the invariant with a counting global allocator: on a
//! PageRank-shaped DIG over a ring graph, after warm-up, a 10k-demand
//! window and a 100k-demand window, fills included, perform the same
//! number of heap operations.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! concurrently running neighbour test would alias it.

use prodigy::{Dig, EdgeKind, ProdigyPrefetcher, TriggerSpec};
use prodigy_sim::prefetch::{DemandAccess, FillQueue, PrefetchCtx, Prefetcher};
use prodigy_sim::{AccessKind, AddressSpace, MemorySystem, Stats, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation entry point, delegating to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ring-graph vertices; vertex `v`'s out-edges go to `v+1 ..= v+DEG`.
const N: u64 = 4096;
const DEG: u64 = 3;

/// One core's memory system and Prodigy instance, programmed with the
/// PageRank DIG (offsets -ranged-> edges -single-valued-> values) over a
/// ring graph laid out in simulated memory.
struct Rig {
    mem: MemorySystem,
    space: AddressSpace,
    stats: Stats,
    fills: FillQueue,
    pf: ProdigyPrefetcher,
    off: u64,
    now: u64,
    demands: u64,
}

impl Rig {
    fn new() -> Self {
        let mut space = AddressSpace::new();
        let off = space.alloc((N + 1) * 4, 64);
        let edg = space.alloc(N * DEG * 4, 64);
        let val = space.alloc(N * 8, 64);
        for v in 0..=N {
            space.write_u32(off + 4 * v, (v * DEG) as u32);
        }
        for e in 0..N * DEG {
            let dst = (e / DEG + e % DEG + 1) % N;
            space.write_u32(edg + 4 * e, dst as u32);
        }
        let mut dig = Dig::new();
        let n_off = dig.node(off, N + 1, 4);
        let n_edg = dig.node(edg, N * DEG, 4);
        let n_val = dig.node(val, N, 8);
        dig.edge(n_off, n_edg, EdgeKind::Ranged);
        dig.edge(n_edg, n_val, EdgeKind::SingleValued);
        dig.trigger(n_off, TriggerSpec::default());
        let mut pf = ProdigyPrefetcher::default();
        pf.program(&dig).expect("the ring DIG is valid");
        Rig {
            mem: MemorySystem::new(SystemConfig::scaled(16).with_cores(1)),
            space,
            stats: Stats::default(),
            fills: FillQueue::new(),
            pf,
            off,
            now: 0,
            demands: 0,
        }
    }

    /// Delivers every fill due by now, then demands the next vertex's
    /// offset (wrapping around the ring) and lets the prefetcher react.
    fn demand(&mut self) {
        while let Some(&std::cmp::Reverse(q)) = self.fills.peek() {
            if q.at > self.now {
                break;
            }
            self.fills.pop();
            let mut ctx = PrefetchCtx::new(
                0,
                q.at,
                &mut self.mem,
                &self.space,
                &mut self.stats,
                &mut self.fills,
            );
            self.pf.on_fill(&mut ctx, &q);
        }
        let vaddr = self.off + 4 * (self.demands % N);
        self.demands += 1;
        let r = self
            .mem
            .demand_access(0, vaddr, AccessKind::Read, self.now, &mut self.stats);
        let mut ctx = PrefetchCtx::new(
            0,
            self.now,
            &mut self.mem,
            &self.space,
            &mut self.stats,
            &mut self.fills,
        );
        let access = DemandAccess {
            vaddr,
            size: 4,
            is_write: false,
            pc: 0,
            served: r.served,
        };
        self.pf.on_demand(&mut ctx, &access);
        self.now += 4;
    }

    /// Heap operations performed by the next `n` demands.
    fn allocs_in(&mut self, n: u64) -> u64 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for _ in 0..n {
            self.demand();
        }
        ALLOC_CALLS.load(Ordering::Relaxed) - before
    }
}

#[test]
fn dig_walk_allocations_do_not_grow_with_demands() {
    let mut rig = Rig::new();
    // Warm-up: several trips round the ring, so every lazily grown buffer
    // (MSHRs, fill queue, telemetry tables) reaches its steady size.
    rig.allocs_in(10 * N);
    let short = rig.allocs_in(10_000);
    let long = rig.allocs_in(100_000);
    assert_eq!(
        short, long,
        "the DIG walk allocated {short} times in 10k demands but {long} times in 100k"
    );

    // The windows really exercised every walker path.
    let s = rig.pf.prodigy_stats();
    assert!(
        s.sequences_dropped > 0,
        "no stale sequence was dropped: {s:?}"
    );
    assert!(s.ranged_prefetches > 0, "no ranged edge was walked: {s:?}");
    assert!(
        s.single_prefetches > 0,
        "no single-valued edge was walked: {s:?}"
    );
    assert!(s.inline_advances > 0, "no inline advance happened: {s:?}");
}
