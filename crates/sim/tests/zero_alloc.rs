//! The untraced demand path must not allocate.
//!
//! Every simulated load/store walks `MemorySystem::demand_access`; with no
//! trace started and no metrics registry attached, that walk — TLB, caches,
//! MSHR merge, DRAM model, always-on telemetry histograms — runs entirely
//! over preallocated flat storage. A stray allocation there costs more than
//! the work it interrupts, so this test pins the invariant with a counting
//! global allocator: after warm-up (MSHR vectors at steady-state capacity),
//! millions of accesses perform **zero** heap operations.
//!
//! The phase scheduler decodes each core's byte-encoded instruction stream
//! through a cursor on the same path, so `System::run_phase` is pinned too:
//! its heap operations are a fixed per-phase count, the same for a
//! 1k-instruction phase as for a 200k-instruction one.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! concurrently running neighbour test would alias it.

use prodigy_sim::core::{InsnStream, StreamBuilder};
use prodigy_sim::{AccessKind, MemorySystem, Stats, SystemConfig};
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

/// A mix of random reads and writes over `range` bytes (hits and misses at
/// every level, evictions, writebacks, MSHR merges).
fn hammer(m: &mut MemorySystem, s: &mut Stats, n: u64, seed: &mut u64, now: &mut u64) {
    for i in 0..n {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = (*seed >> 16) % (8 << 20);
        let kind = if i % 4 == 3 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let r = m.demand_access(0, addr, kind, *now, s);
        *now += 1 + r.latency / 8;
    }
}

/// `n` instructions of every kind: random loads and stores over 8 MB,
/// dependent compute, data-dependent branches and software prefetches.
fn mixed_stream(n: u64, seed: &mut u64) -> InsnStream {
    let mut b = StreamBuilder::new();
    while (b.len() as u64) < n {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = (*seed >> 16) % (8 << 20);
        let ld = b.load_at(1, addr, 8, &[]);
        let add = b.compute(1, &[ld]);
        b.branch(2, *seed & (1 << 40) != 0, &[add]);
        b.store_at(3, addr ^ 0x40, 8, &[add]);
        b.prefetch(addr + 4096, &[]);
    }
    b.finish()
}

#[test]
fn untraced_demand_path_performs_zero_allocations() {
    let mut m = MemorySystem::new(SystemConfig::scaled(4).with_cores(1));
    let mut s = Stats::default();
    let mut seed = 9u64;
    let mut now = 0u64;

    // Warm-up: let every lazily-grown buffer (MSHR vectors, DRAM queues)
    // reach steady-state capacity.
    hammer(&mut m, &mut s, 200_000, &mut seed, &mut now);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    hammer(&mut m, &mut s, 1_000_000, &mut seed, &mut now);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(
        delta, 0,
        "untraced demand_access allocated {delta} times in 1M accesses"
    );
    assert!(s.dram_reads > 0, "the mix must include real misses");

    // The phase scheduler: after warm-up phases, a short and a long phase
    // perform the same number of heap operations (the per-phase cursor and
    // fill-deadline vectors), so decoding allocates nothing per instruction.
    let mut sys = prodigy_sim::System::new(SystemConfig::scaled(4).with_cores(2));
    let mut seed = 5u64;
    let phase = |n: u64, seed: &mut u64| -> Vec<InsnStream> {
        (0..2).map(|_| mixed_stream(n, seed)).collect()
    };
    for _ in 0..2 {
        let streams = phase(200_000, &mut seed);
        sys.run_phase(streams);
    }
    let mut allocs_in_phase = |streams: Vec<InsnStream>| {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        sys.run_phase(streams);
        ALLOC_CALLS.load(Ordering::Relaxed) - before
    };
    let short = allocs_in_phase(phase(1_000, &mut seed));
    let long = allocs_in_phase(phase(200_000, &mut seed));
    assert_eq!(
        short, long,
        "run_phase allocated {short} times for 1k instructions per core \
         but {long} times for 200k"
    );
}
