//! Criterion micro-benchmarks for the performance-critical structures: the
//! PFHR file, the cache array, DIG programming, branch prediction,
//! instruction-stream encoding and decoding (on a PageRank-gather, a
//! NAS-IS-ranking and an HPCG-spmv shape), the hierarchy walk (L1 hits and
//! DRAM misses), GHB G/DC training, input generation (the `lj` stand-in
//! and its transpose), and end-to-end simulator throughput (instructions
//! simulated per second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use prodigy::dig::NodeId;
use prodigy::{Dig, DigProgram, EdgeKind, PfhrFile, ProdigyPrefetcher, TriggerSpec};
use prodigy_prefetchers::GhbGdcPrefetcher;
use prodigy_sim::core::{Gshare, Op, StreamBuilder};
use prodigy_sim::mem::cache::{demand_line, Cache};
use prodigy_sim::mem::coherence::Mesi;
use prodigy_sim::prefetch::{DemandAccess, FillQueue, PrefetchCtx, Prefetcher};
use prodigy_sim::{
    AccessKind, AddressSpace, CacheConfig, MemorySystem, ServedBy, Stats, System, SystemConfig,
};
use prodigy_workloads::Dataset;

fn bench_pfhr(c: &mut Criterion) {
    c.bench_function("pfhr/allocate_take", |b| {
        b.iter_batched(
            || PfhrFile::new(16),
            |mut f| {
                for i in 0..16u64 {
                    f.allocate(NodeId(1), i, i * 64, 4);
                }
                for i in 0..16u64 {
                    f.take(i * 64);
                }
                f
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_cache(c: &mut Criterion) {
    let cfg = CacheConfig {
        capacity: 32 * 1024,
        ways: 4,
        data_latency: 2,
        tag_latency: 1,
    };
    c.bench_function("cache/insert_lookup", |b| {
        b.iter_batched(
            || Cache::new(&cfg),
            |mut cache| {
                for i in 0..512u64 {
                    cache.insert(
                        demand_line(i * 64, Mesi::Exclusive, 0, ServedBy::Dram),
                        None,
                    );
                }
                let mut hits = 0;
                for i in 0..512u64 {
                    hits += cache.lookup(i * 64).is_some() as u32;
                }
                hits
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_dig_programming(c: &mut Criterion) {
    let mut dig = Dig::new();
    let a = dig.node(0x1000, 1000, 4);
    let b_ = dig.node(0x4000, 1001, 4);
    let c_ = dig.node(0x8000, 4000, 4);
    let d = dig.node(0x20000, 1000, 4);
    dig.edge(a, b_, EdgeKind::SingleValued);
    dig.edge(b_, c_, EdgeKind::Ranged);
    dig.edge(c_, d, EdgeKind::SingleValued);
    dig.trigger(a, TriggerSpec::default());
    let program = DigProgram::from_dig(&dig);
    c.bench_function("prodigy/program_dig", |b| {
        b.iter_batched(
            ProdigyPrefetcher::default,
            |mut pf| {
                program.apply(&mut pf);
                pf
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("core/gshare_1k_branches", |b| {
        let mut p = Gshare::new(12);
        let mut x = 1u32;
        b.iter(|| {
            let mut correct = 0u32;
            for _ in 0..1000 {
                x = x.wrapping_mul(48271);
                correct += p.predict_and_update(x & 63, x & 4096 != 0) as u32;
            }
            correct
        })
    });
}

/// Appends PageRank-gather-shaped instructions (the CSC pull loop of
/// `kernels::pr` on a 96k-vertex graph) to `b` until it holds `n`.
fn pr_gather(b: &mut StreamBuilder, n: usize) {
    let (off, edg, contrib, scores) = (0x10_0000u64, 0x20_0000, 0x80_0000, 0xa0_0000);
    let mut x = 0x9002u64;
    let mut rand = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        x >> 33
    };
    let (mut u, mut w) = (0, 0);
    while b.len() < n {
        let lo = b.load_at(40, off + 4 * u, 4, &[]);
        b.load_at(41, off + 4 * (u + 1), 4, &[]);
        let mut acc = b.compute(1, &[]);
        for _ in 0..rand() % 28 {
            let e = b.load_at(42, edg + 4 * w, 4, &[lo]);
            let c = b.load_at(43, contrib + 8 * (rand() % 96_000), 8, &[e]);
            acc = b.compute(4, &[c, acc]);
            w += 1;
        }
        b.store_at(44, scores + 8 * u, 8, &[acc]);
        u += 1;
    }
}

/// Appends NAS-IS-ranking-shaped instructions (the ranking loop of
/// `kernels::is` over 500k buckets: five instruction templates) to `b`
/// until it holds `n`.
fn is_ranking(b: &mut StreamBuilder, n: usize) {
    let (keys, count, rank) = (0x10_0000u64, 0x90_0000, 0x110_0000);
    let mut x = 0x9002u64;
    let mut i = 0;
    while b.len() < n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let k = (x >> 33) % 500_000;
        let ld_k = b.load_at(900, keys + 4 * i, 4, &[]);
        let ld_c = b.load_at(903, count + 4 * k, 4, &[ld_k]);
        let inc = b.compute(1, &[ld_c]);
        b.store_at(904, rank + 4 * i, 4, &[inc]);
        b.store_at(902, count + 4 * k, 4, &[inc]);
        i += 1;
    }
}

/// Appends HPCG-spmv-shaped instructions (the row loop of `kernels::spmv`
/// on a 40³ 27-point stencil: per nonzero a column and a value load off the
/// row's offset load, the x gather, a multiply and an accumulate, whose
/// compute shapes alternate at one latency) to `b` until it holds `n`.
fn spmv_rows(b: &mut StreamBuilder, n: usize) {
    const SIDE: i64 = 40;
    const ROWS: i64 = SIDE * SIDE * SIDE;
    let (off, col, val, x, y) = (0x10_0000u64, 0x20_0000, 0x80_0000, 0x180_0000, 0x1a0_0000);
    let (mut r, mut k) = (0, 0);
    while b.len() < n {
        let lo = b.load_at(20, off + 4 * r as u64, 4, &[]);
        b.load_at(21, off + 4 * (r as u64 + 1), 4, &[]);
        let mut acc = b.compute(1, &[]);
        for nz in 0..27 {
            let (dx, dy, dz) = (nz % 3 - 1, nz / 3 % 3 - 1, nz / 9 - 1);
            let c = (r + dx + SIDE * dy + SIDE * SIDE * dz).rem_euclid(ROWS) as u64;
            let ld_c = b.load_at(22, col + 4 * k, 4, &[lo]);
            let ld_v = b.load_at(23, val + 8 * k, 8, &[lo]);
            let ld_x = b.load_at(24, x + 8 * c, 8, &[ld_c]);
            let mul = b.compute(4, &[ld_v, ld_x]);
            acc = b.compute(4, &[mul, acc]);
            k += 1;
        }
        b.store_at(25, y + 8 * r as u64, 8, &[acc]);
        r = (r + 1) % ROWS;
    }
}

/// Appends a kernel-shaped instruction mix to a builder until it holds
/// the given count.
type Shape = fn(&mut StreamBuilder, usize);

fn bench_stream(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let mut g = c.benchmark_group("stream");
    g.throughput(Throughput::Elements(N as u64));
    let shapes: [(&str, Shape); 3] = [("", pr_gather), ("_is", is_ranking), ("_spmv", spmv_rows)];
    for (suffix, shape) in shapes {
        g.bench_function(&format!("encode{suffix}"), |b| {
            b.iter(|| {
                let mut sb = StreamBuilder::new();
                shape(&mut sb, N);
                sb.finish()
            })
        });
        let mut sb = StreamBuilder::new();
        shape(&mut sb, N);
        let stream = sb.finish();
        g.bench_function(&format!("decode{suffix}"), |b| {
            b.iter(|| {
                // Read every field, as the core model does.
                stream.iter().fold(0u64, |acc, insn| {
                    let v = match insn.op {
                        Op::Load { addr, size, pc } | Op::Store { addr, size, pc } => {
                            addr ^ size as u64 ^ pc as u64
                        }
                        Op::Compute { latency } => latency as u64,
                        Op::Branch { pc, taken } => pc as u64 ^ taken as u64,
                        Op::Prefetch { addr } => addr,
                    };
                    acc.wrapping_add(v ^ insn.dep1 as u64 ^ (insn.dep2 as u64) << 16)
                })
            })
        });
    }
    g.finish();
}

/// L1 misses of the same PageRank gather: each offset and edge-list line
/// once, and every contribution load. Half of those hit one of 16 hub
/// vertices, as a power-law graph's in-edges do, so delta pairs recur.
fn pr_gather_misses(n: usize) -> Vec<u64> {
    let (off, edg, contrib) = (0x10_0000u64, 0x20_0000, 0x80_0000);
    let mut x = 0x9002u64;
    let mut rand = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        x >> 33
    };
    let (mut misses, mut u, mut w) = (Vec::with_capacity(n), 0, 0);
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
    misses.truncate(n);
    misses
}

/// A fresh GHB G/DC prefetcher trained on 1M PageRank-gather L1 misses,
/// its prefetches issued into a one-core `SystemConfig::bench()` memory
/// system: ms/iter is ns per miss.
fn bench_ghb(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let misses = pr_gather_misses(N);
    let mut g = c.benchmark_group("ghb");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("train", |b| {
        b.iter_batched(
            || {
                (
                    GhbGdcPrefetcher::default(),
                    MemorySystem::new(SystemConfig::bench().with_cores(1)),
                )
            },
            |(mut pf, mut mem)| {
                let (space, mut stats, mut fills) =
                    (AddressSpace::new(), Stats::default(), FillQueue::new());
                for (i, &vaddr) in misses.iter().enumerate() {
                    let now = 20 * i as u64;
                    let mut ctx =
                        PrefetchCtx::new(0, now, &mut mem, &space, &mut stats, &mut fills);
                    let miss = DemandAccess {
                        vaddr,
                        size: 8,
                        is_write: false,
                        pc: 43,
                        served: ServedBy::Dram,
                    };
                    pf.on_demand(&mut ctx, &miss);
                    // G/DC ignores its fills.
                    fills.clear();
                }
                stats.prefetches_issued
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Demand reads through an 8-core `SystemConfig::bench()` memory system,
/// 1M per iteration, so ms/iter is ns per access: `l1_hit` re-reads 64
/// lines one core has already loaded; `dram_miss` reads random lines of a
/// 64 MiB region from all eight cores in turn, advancing the clock by each
/// access's latency over 8 as `zero_alloc.rs`'s stream does.
fn bench_hierarchy(c: &mut Criterion) {
    const N: u64 = 1_000_000;
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(N));
    let cfg = SystemConfig::bench();
    let cores = cfg.cores as u64;
    g.bench_function("l1_hit", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut stats) = (MemorySystem::new(cfg), Stats::default());
                for i in 0..64 {
                    mem.demand_access(0, 64 * i, AccessKind::Read, i, &mut stats);
                }
                (mem, stats)
            },
            |(mut mem, mut stats)| {
                let mut now = 1_000;
                for i in 0..N {
                    let r = mem.demand_access(0, 64 * (i % 64), AccessKind::Read, now, &mut stats);
                    now += 1 + r.latency / 8;
                }
                stats.l1d.hits
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("dram_miss", |b| {
        b.iter_batched(
            || (MemorySystem::new(cfg), Stats::default()),
            |(mut mem, mut stats)| {
                let (mut x, mut now) = (0x9002u64, 0);
                for i in 0..N {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = (x >> 16) % (64 << 20);
                    let core = (i % cores) as usize;
                    let r = mem.demand_access(core, addr, AccessKind::Read, now, &mut stats);
                    now += 1 + r.latency / 8;
                }
                stats.l1d.misses
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    const N: u64 = 100_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("run_100k_insns", |b| {
        b.iter_batched(
            || {
                let sys = System::new(SystemConfig::scaled(32).with_cores(1));
                let mut sb = StreamBuilder::new();
                let mut xs = 0x1234u64;
                for _ in 0..N / 4 {
                    xs = xs.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = (xs >> 20) % (8 << 20);
                    let l = sb.load_at(1, addr, 4, &[]);
                    sb.compute(1, &[l]);
                    sb.compute(1, &[]);
                    sb.branch(2, xs & 1 == 0, &[l]);
                }
                (sys, sb.finish())
            },
            |(mut sys, stream)| {
                sys.run_phase(vec![stream]);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The `lj` stand-in at full scale, as every lj cell and perfbench's pr-lj
/// build it: R-MAT sampling, degree cap, id shuffle and CSR build
/// (`rmat_lj`), then the transpose PageRank takes of it (`transpose_lj`).
/// Throughput is in edges (1,344,000), so ns per edge is 1e9 over elem/s.
fn bench_graph(c: &mut Criterion) {
    let lj = Dataset::by_name("lj").expect("lj is a Table II stand-in");
    let g = lj.instantiate(1);
    let mut grp = c.benchmark_group("graph");
    grp.throughput(Throughput::Elements(g.m()));
    grp.bench_function("rmat_lj", |b| b.iter(|| lj.instantiate(1)));
    grp.bench_function("transpose_lj", |b| b.iter(|| g.transpose()));
    grp.finish();
}

criterion_group!(
    benches,
    bench_pfhr,
    bench_cache,
    bench_dig_programming,
    bench_bpred,
    bench_stream,
    bench_hierarchy,
    bench_ghb,
    bench_graph,
    bench_simulator_throughput
);
criterion_main!(benches);
