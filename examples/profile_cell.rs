//! Component-level host-performance harness (see EXPERIMENTS.md,
//! "Profiling the simulator").
//!
//! Times each layer of a representative heavy cell (pr-lj at scale 1) in
//! isolation: the functional algorithm alone, full simulation under three
//! prefetchers, raw address-space access, `run_phase` instruction costs
//! (compute-only / L1-hit / DRAM-bound), and the bare `demand_access`
//! hierarchy walk across address ranges that separate model cost from
//! host-cache-miss cost. Run it before and after touching the hot path;
//! point `gprofng` at it for function-level attribution.

use prodigy_bench::workload_set::all_29;
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig};
use std::time::Instant;

fn main() {
    let scale = 1u32;
    let spec = all_29(scale)
        .into_iter()
        .find(|s| s.name == "pr-lj")
        .expect("pr-lj");

    // 1. functional-only: algorithm + stream building, no simulation
    {
        use prodigy_workloads::PhaseRunner;
        let t = Instant::now();
        let mut k = spec.instantiate_seeded(0);
        let build = t.elapsed();
        let t = Instant::now();
        let mut r = prodigy_workloads::kernels::FunctionalRunner::new(8);
        k.prepare(r.space_mut());
        let prep = t.elapsed();
        let t = Instant::now();
        k.run(&mut r);
        let func = t.elapsed();
        eprintln!("instantiate: {build:?}  prepare: {prep:?}  functional-run: {func:?}");
    }

    // 2. full simulation, none prefetcher
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Prodigy,
    ] {
        let t = Instant::now();
        let mut k = spec.instantiate_seeded(0);
        let cfg = RunConfig {
            sys: prodigy_sim::SystemConfig::scaled(scale as u64),
            prefetcher: kind,
            ..RunConfig::default()
        };
        let out = run_workload(k.as_mut(), &cfg);
        eprintln!(
            "sim {:?}: {:?}  cycles={} insns={}",
            kind,
            t.elapsed(),
            out.summary.stats.cycles,
            out.summary.stats.instructions
        );
    }

    // 3. address-space write/read throughput
    {
        let mut sp = prodigy_sim::AddressSpace::new();
        let base = sp.alloc(8 << 20, 4096);
        let t = Instant::now();
        let n = 2_000_000u64;
        for i in 0..n {
            sp.write_f64(base + (i % (1 << 20)) * 8, i as f64);
        }
        let w = t.elapsed();
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(sp.read_uint(base + (i % (1 << 20)) * 8, 8));
        }
        let r = t.elapsed();
        eprintln!(
            "space: {n} write_f64 in {w:?} ({:.0}ns/op), {n} read_uint in {r:?} ({:.0}ns/op) [{acc}]",
            w.as_nanos() as f64 / n as f64,
            r.as_nanos() as f64 / n as f64
        );
    }

    // 3.5 core.step throughput: compute-only, then L1-hit loads, then full run_phase
    {
        use prodigy_sim::core::StreamBuilder;
        use prodigy_sim::{System, SystemConfig};
        let cfg = SystemConfig::scaled(1).with_cores(1);
        let n = 4_000_000u64;

        let mut b = StreamBuilder::new();
        for _ in 0..n {
            b.compute(1, &[]);
        }
        let s = b.finish();
        let mut sys = System::new(cfg);
        let t = Instant::now();
        sys.run_phase(vec![s]);
        eprintln!(
            "run_phase compute-only: {n} in {:?} ({:.0}ns/insn)",
            t.elapsed(),
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let mut b = StreamBuilder::new();
        for i in 0..n {
            b.load_at(1, 0x10_0000 + (i % 64) * 64, 8, &[]);
        }
        let s = b.finish();
        let mut sys = System::new(cfg);
        let t = Instant::now();
        sys.run_phase(vec![s]);
        eprintln!(
            "run_phase l1-hit loads: {n} in {:?} ({:.0}ns/insn)",
            t.elapsed(),
            t.elapsed().as_nanos() as f64 / n as f64
        );

        let mut b = StreamBuilder::new();
        let mut x = 12345u64;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (64 << 20);
            b.load_at(2, addr, 4, &[]);
        }
        let s = b.finish();
        let mut sys = System::new(cfg);
        let t = Instant::now();
        sys.run_phase(vec![s]);
        eprintln!(
            "run_phase random DRAM loads: {n} in {:?} ({:.0}ns/insn)",
            t.elapsed(),
            t.elapsed().as_nanos() as f64 / n as f64
        );
    }

    // 4. demand_access L1-hit throughput
    {
        use prodigy_sim::{AccessKind, MemorySystem, Stats, SystemConfig};
        let mut m = MemorySystem::new(SystemConfig::scaled(1).with_cores(1));
        let mut s = Stats::default();
        m.demand_access(0, 0x4000, AccessKind::Read, 0, &mut s);
        let t = Instant::now();
        let n = 10_000_000u64;
        for i in 0..n {
            m.demand_access(0, 0x4000, AccessKind::Read, 1000 + i, &mut s);
        }
        eprintln!(
            "demand_access L1 hit: {n} in {:?} ({:.0}ns/op)",
            t.elapsed(),
            t.elapsed().as_nanos() as f64 / n as f64
        );
    }

    // 5. demand_access random-miss throughput (the hierarchy walk alone,
    // no core model): most accesses miss all levels and go to DRAM.
    {
        use prodigy_sim::{AccessKind, MemorySystem, Stats, SystemConfig};
        for (scale, range_mb) in [(1u64, 64u64), (1, 8), (1, 2), (64, 64)] {
            let mut m = MemorySystem::new(SystemConfig::scaled(scale).with_cores(1));
            let mut s = Stats::default();
            let t = Instant::now();
            let n = 4_000_000u64;
            let mut x = 12345u64;
            let mut now = 0u64;
            for _ in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 16) % (range_mb << 20);
                let r = m.demand_access(0, addr, AccessKind::Read, now, &mut s);
                now += 1 + r.latency / 8;
            }
            eprintln!(
                "demand_access random scale={scale} range={range_mb}MB: {n} in {:?} ({:.0}ns/op) [l3_miss={} dram={}]",
                t.elapsed(),
                t.elapsed().as_nanos() as f64 / n as f64,
                s.l3.misses,
                s.dram_reads,
            );
        }
    }
}
