//! The kernel matrix: every workload kernel × the core invariants —
//! valid DIG, deterministic checksums across core counts, and a real
//! simulated run under Prodigy that matches the functional result.

use prodigy_sim::{SystemConfig, Timeliness};
use prodigy_workloads::graph::csr::{Csr, WeightedCsr};
use prodigy_workloads::graph::generators::{rmat, stencil27, uniform};
use prodigy_workloads::kernels::{
    Bc, Bfs, Cc, Cg, DoBfs, FunctionalRunner, IntSort, Kernel, PageRank, PhaseRunner, Spmv, Sssp,
    Symgs,
};
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig};

fn graph() -> Csr {
    rmat(1024, 8192, 77, (0.57, 0.19, 0.19))
}

type KernelBuilder = Box<dyn Fn() -> Box<dyn Kernel>>;

fn all_kernels() -> Vec<(&'static str, KernelBuilder)> {
    let g = graph();
    let st = stencil27(6, 6, 6);
    let pat = uniform(300, 1800, 5);
    vec![
        (
            "bfs",
            boxed({
                let g = g.clone();
                move || Box::new(Bfs::new(g.clone(), 0)) as _
            }),
        ),
        (
            "dobfs",
            boxed({
                let g = g.clone();
                move || Box::new(DoBfs::new(g.clone(), 0)) as _
            }),
        ),
        (
            "bc",
            boxed({
                let g = g.clone();
                move || Box::new(Bc::new(g.clone(), 0)) as _
            }),
        ),
        (
            "cc",
            boxed({
                let g = g.clone();
                move || Box::new(Cc::new(g.clone(), 6)) as _
            }),
        ),
        (
            "pr",
            boxed({
                let g = g.clone();
                move || Box::new(PageRank::new(g.clone(), 2)) as _
            }),
        ),
        (
            "sssp",
            boxed({
                let g = g.clone();
                move || Box::new(Sssp::new(WeightedCsr::from_csr(g.clone(), 3, 16), 0, 50)) as _
            }),
        ),
        (
            "spmv",
            boxed({
                let s = st.clone();
                move || Box::new(Spmv::new(s.clone(), 9)) as _
            }),
        ),
        (
            "symgs",
            boxed({
                let s = st.clone();
                move || Box::new(Symgs::new(s.clone(), 9)) as _
            }),
        ),
        (
            "cg",
            boxed({
                let p = pat.clone();
                move || Box::new(Cg::new(&p, 3, 9)) as _
            }),
        ),
        ("is", boxed(|| Box::new(IntSort::new(5000, 512, 9)) as _)),
    ]
}

fn boxed(f: impl Fn() -> Box<dyn Kernel> + 'static) -> Box<dyn Fn() -> Box<dyn Kernel>> {
    Box::new(f)
}

fn functional_checksum(make: &dyn Fn() -> Box<dyn Kernel>, cores: usize) -> u64 {
    let mut k = make();
    let mut r = FunctionalRunner::new(cores);
    let dig = k.prepare(r.space_mut());
    dig.validate().expect("DIG must validate");
    k.run(&mut r)
}

#[test]
fn every_kernel_has_a_valid_dig_and_deterministic_result() {
    for (name, make) in all_kernels() {
        if name == "symgs" {
            // Gauss–Seidel is inherently schedule-dependent: partitioned
            // sweeps are block-Jacobi-flavoured, so different core counts
            // legitimately produce (equally valid) different smoothings.
            // Its per-core-count determinism is covered below.
            continue;
        }
        let a = functional_checksum(make.as_ref(), 1);
        let b = functional_checksum(make.as_ref(), 5);
        let c = functional_checksum(make.as_ref(), 8);
        assert_eq!(a, b, "{name}: checksum differs between 1 and 5 cores");
        assert_eq!(a, c, "{name}: checksum differs between 1 and 8 cores");
    }
}

#[test]
fn symgs_is_deterministic_at_fixed_core_count() {
    let st = stencil27(6, 6, 6);
    let run = || {
        let mut k = Symgs::new(st.clone(), 9);
        let mut r = FunctionalRunner::new(5);
        k.prepare(r.space_mut());
        k.run(&mut r)
    };
    assert_eq!(run(), run());
}

#[test]
fn every_kernel_runs_on_the_simulated_machine_unchanged() {
    let sys = SystemConfig::scaled(64).with_cores(2);
    for (name, make) in all_kernels() {
        let functional = functional_checksum(make.as_ref(), 2);
        for kind in [PrefetcherKind::None, PrefetcherKind::Prodigy] {
            let mut k = make();
            let out = run_workload(
                k.as_mut(),
                &RunConfig {
                    sys,
                    prefetcher: kind,
                    ..RunConfig::default()
                },
            );
            assert_eq!(
                out.checksum,
                functional,
                "{name}/{}: simulated result diverged from functional run",
                kind.name()
            );
            assert!(out.summary.stats.cycles > 0);
            assert!(out.summary.stats.instructions > 0);
        }
    }
}

#[test]
fn prodigy_issues_prefetches_on_every_kernel() {
    let sys = SystemConfig::bench().with_cores(2);
    for (name, make) in all_kernels() {
        let mut k = make();
        let out = run_workload(
            &mut *k,
            &RunConfig {
                sys,
                prefetcher: PrefetcherKind::Prodigy,
                ..RunConfig::default()
            },
        );
        assert!(
            out.summary.stats.prefetches_issued > 0,
            "{name}: Prodigy never fired"
        );
        let ps = out.prodigy.expect("prodigy stats present");
        assert!(ps.sequences_initiated > 0, "{name}: no sequences");
    }
}

/// Every hardware prefetcher names the source of each prefetch, and each
/// fate is credited to the source stored with the copy it names, so per
/// category the attribution rows add up to the global Fig. 19 counts.
/// The caches are tiny, so that unused prefetches are evicted too and
/// every category occurs on some run.
#[test]
fn per_source_fates_sum_to_the_global_counts() {
    let sys = SystemConfig::scaled(1024).with_cores(2);
    let g = graph();
    let st = stencil27(6, 6, 6);
    for kind in PrefetcherKind::ALL {
        if kind == PrefetcherKind::None {
            continue;
        }
        let mut kernels: Vec<(&str, Box<dyn Kernel>)> =
            vec![("pr", Box::new(PageRank::new(g.clone(), 2)))];
        if !kind.graph_specific() {
            kernels.push(("spmv", Box::new(Spmv::new(st.clone(), 9))));
        }
        for (name, mut k) in kernels {
            let cfg = RunConfig {
                sys,
                prefetcher: kind,
                ..RunConfig::default()
            };
            let out = run_workload(k.as_mut(), &cfg);
            let (mut sum, mut issued) = (Timeliness::default(), 0);
            for (_, c) in out.telemetry.attribution.iter() {
                sum.timely += c.timely;
                sum.late += c.late;
                sum.inaccurate += c.inaccurate;
                sum.dropped += c.dropped;
                issued += c.issued;
            }
            let what = format!("{name}/{}", kind.name());
            assert_eq!(sum, out.telemetry.timeliness, "{what}");
            assert_eq!(issued, out.summary.stats.prefetches_issued, "{what}");
            assert!(issued > 0, "{what}: no prefetch issued");
        }
    }
}
