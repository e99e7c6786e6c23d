//! Stress tests for the memory hierarchy: inclusion, coherence, MSHR and
//! bandwidth invariants under adversarial access patterns.

use prodigy_sim::core::StreamBuilder;
use prodigy_sim::{AccessKind, MemorySystem, ServedBy, Stats, System, SystemConfig};

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 17
}

#[test]
fn inclusion_holds_under_random_multicore_traffic() {
    let cfg = SystemConfig::scaled(64).with_cores(4);
    let mut mem = MemorySystem::new(cfg);
    let mut stats = Stats::default();
    let mut x = 0xfeed;
    let mut now = 0u64;
    let mut touched = Vec::new();
    for i in 0..20_000 {
        let core = (lcg(&mut x) % 4) as usize;
        let addr = lcg(&mut x) % (4 << 20);
        let kind = if lcg(&mut x).is_multiple_of(5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        mem.demand_access(core, addr, kind, now, &mut stats);
        now += 7;
        if i % 64 == 0 {
            touched.push((core, addr));
        }
    }
    // Inclusive hierarchy: anything in a private cache is in the LLC.
    for &(core, addr) in &touched {
        if mem.l1_contains(core, addr) || mem.l2_contains(core, addr) {
            assert!(mem.llc_contains(addr), "inclusion violated at {addr:#x}");
        }
    }
    assert_eq!(
        stats.l1d.accesses(),
        20_000,
        "every access classified exactly once at L1"
    );
    assert!(stats.l3.misses <= stats.l2.misses);
    assert!(stats.l2.misses <= stats.l1d.misses);
}

#[test]
fn single_writer_invariant_after_rfo_storm() {
    let cfg = SystemConfig::scaled(64).with_cores(4);
    let mut mem = MemorySystem::new(cfg);
    let mut stats = Stats::default();
    let addr = 0x123440;
    let mut now = 0;
    // All cores fight over one line.
    for round in 0..64 {
        let writer = round % 4;
        now += 500;
        mem.demand_access(writer, addr, AccessKind::Write, now, &mut stats);
        // After a write, no *other* core's private caches hold the line.
        for other in 0..4 {
            if other != writer {
                assert!(
                    !mem.l1_contains(other, addr),
                    "core {other} still holds the line core {writer} wrote"
                );
                assert!(!mem.l2_contains(other, addr));
            }
        }
    }
}

#[test]
fn dram_bandwidth_is_respected_under_load() {
    // Hammer DRAM from 8 cores with cold misses and check the achieved
    // bandwidth never exceeds the configured peak.
    let cfg = SystemConfig::scaled(16);
    let mut sys = System::new(cfg);
    let mut streams = Vec::new();
    for c in 0..8u64 {
        let mut b = StreamBuilder::new();
        for i in 0..4000u64 {
            // Disjoint footprints, line-strided: every load is a miss.
            b.load_at(1, (c << 32) + i * 64, 8, &[]);
        }
        streams.push(b.finish());
    }
    sys.run_phase(streams);
    let s = sys.stats();
    let moved = (s.dram_reads + s.dram_writes) as f64 * 64.0;
    let peak = prodigy_sim::MemorySystem::new(cfg).peak_dram_bytes_per_cycle();
    let achieved = moved / s.cycles as f64;
    assert!(
        achieved <= peak * 1.001,
        "achieved {achieved:.1} B/cy exceeds peak {peak:.1}"
    );
    // And the workload should get reasonably close to saturation.
    assert!(
        achieved > peak * 0.3,
        "only {achieved:.1} of {peak:.1} B/cy"
    );
}

#[test]
fn mshr_cap_bounds_observable_memory_parallelism() {
    let mut cfg = SystemConfig::scaled(64).with_cores(1);
    cfg.mshrs = 4;
    let few = run_mlp_probe(cfg);
    cfg.mshrs = 32;
    let many = run_mlp_probe(cfg);
    assert!(
        few > many,
        "4 MSHRs ({few} cycles) must be slower than 32 ({many})"
    );
}

fn run_mlp_probe(cfg: SystemConfig) -> u64 {
    let mut sys = System::new(cfg);
    let mut b = StreamBuilder::new();
    for i in 0..2000u64 {
        b.load_at(1, i * 1_048_576, 8, &[]);
    }
    sys.run_phase(vec![b.finish()]).cycles
}

#[test]
fn prefetch_llc_never_touches_private_caches() {
    let cfg = SystemConfig::scaled(64).with_cores(2);
    let mut mem = MemorySystem::new(cfg);
    let mut stats = Stats::default();
    for i in 0..200u64 {
        let addr = 0x40_0000 + i * 64;
        let issued = mem.prefetch_llc(0, addr, i * 10, &mut stats, Some(0));
        assert!(issued.is_some());
        assert!(mem.llc_contains(addr));
        assert!(!mem.l1_contains(0, addr));
        assert!(!mem.l2_contains(0, addr));
    }
    assert_eq!(stats.prefetches_issued, 200);
}

#[test]
fn served_by_is_monotone_in_rereference_distance() {
    let cfg = SystemConfig::scaled(8).with_cores(1);
    let mut mem = MemorySystem::new(cfg);
    let mut stats = Stats::default();
    let addr = 0x77_0000;
    let first = mem.demand_access(0, addr, AccessKind::Read, 0, &mut stats);
    assert_eq!(first.served, ServedBy::Dram);
    let hot = mem.demand_access(0, addr, AccessKind::Read, 10_000, &mut stats);
    assert_eq!(hot.served, ServedBy::L1);
    // Evict from L1 by filling its sets, then re-touch: L2 or deeper.
    for i in 1..=4096u64 {
        mem.demand_access(
            0,
            addr + i * 64,
            AccessKind::Read,
            10_000 + i * 200,
            &mut stats,
        );
    }
    let later = mem.demand_access(0, addr, AccessKind::Read, 2_000_000, &mut stats);
    assert_ne!(later.served, ServedBy::L1, "line must have left the L1");
}
