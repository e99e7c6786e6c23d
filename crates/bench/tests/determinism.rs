//! Determinism regression tests for the parallel sweep executor: a sweep
//! run with N worker threads must produce results bit-identical to a serial
//! run of the same grid. Host timing is telemetry and is deliberately
//! excluded from the comparison (see `prodigy_sim::RunTiming`).

use prodigy_bench::experiments::{Cell, Ctx};
use prodigy_bench::sweep::SweepConfig;
use prodigy_bench::workload_set::WorkloadSpec;
use prodigy_sim::json::ToJson;
use prodigy_sim::{chrome_trace_json, MetricsConfig, SystemConfig};
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig, RunOutcome};

/// A 12-cell grid: 3 workloads × 4 prefetchers (≥ 8 cells per the
/// acceptance criterion), mixing graph and non-graph kernels.
fn grid(scale: u32) -> Vec<Cell> {
    let specs = [
        WorkloadSpec::graph("bfs", "lj", scale),
        WorkloadSpec::graph("pr", "po", scale),
        WorkloadSpec::plain("is", scale.max(256)),
    ];
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Prodigy,
    ];
    let mut cells = Vec::new();
    for s in &specs {
        for &k in &kinds {
            cells.push(Cell::new(s.clone(), k));
        }
    }
    cells
}

fn ctx_with(threads: usize, base_seed: u64) -> Ctx {
    let mut ctx = Ctx::new(64).with_sweep(SweepConfig {
        threads,
        base_seed,
        cell_timeout: None,
    });
    ctx.sys = SystemConfig::scaled(64).with_cores(2);
    ctx
}

/// The determinism fingerprint of one warmed cell's outcome: everything
/// except host timing. `Stats` carries no `PartialEq` (floats in the CPI
/// stack), so the stable `Debug` rendering is the comparison form.
fn fingerprint(ctx: &Ctx, cell: &Cell) -> String {
    let out = ctx.get(cell).unwrap();
    format!(
        "{}|checksum={}|seed={}|stats={:?}|energy={:?}|storage={}",
        cell.key(),
        out.checksum,
        out.seed,
        out.summary.stats,
        out.summary.energy,
        out.storage_bits,
    )
}

fn sweep_fingerprints(threads: usize, base_seed: u64) -> Vec<String> {
    let ctx = ctx_with(threads, base_seed);
    let cells = grid(64);
    ctx.warm(cells.clone());
    let report = ctx.report();
    assert!(
        report.errors().is_empty(),
        "no cell may fail: {:?}",
        report.errors()
    );
    assert_eq!(report.cells_simulated(), cells.len() as u64);
    cells.iter().map(|c| fingerprint(&ctx, c)).collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = sweep_fingerprints(1, 0);
    let parallel = sweep_fingerprints(4, 0);
    assert_eq!(serial.len(), 12);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "parallel outcome diverged from serial");
    }
}

#[test]
fn nonzero_base_seed_is_deterministic_too() {
    let a = sweep_fingerprints(3, 0xD15EA5E);
    let b = sweep_fingerprints(2, 0xD15EA5E);
    assert_eq!(a, b, "same base seed must give identical results");
}

#[test]
fn base_seed_perturbs_seeded_workloads_only() {
    // `is` (random key stream) must change under a different base seed;
    // the run seed provenance must differ for every workload.
    let ctx0 = ctx_with(1, 0);
    let ctx1 = ctx_with(1, 1);
    let is_cell = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
    let bfs_cell = Cell::new(WorkloadSpec::graph("bfs", "lj", 64), PrefetcherKind::None);
    for ctx in [&ctx0, &ctx1] {
        ctx.warm(vec![is_cell.clone(), bfs_cell.clone()]);
    }
    let c0 = ctx0.get(&is_cell).unwrap();
    let c1 = ctx1.get(&is_cell).unwrap();
    assert_ne!(c0.checksum, c1.checksum, "seeded inputs should differ");
    assert_ne!(c0.seed, c1.seed);
    // Graph topologies model fixed external data sets: identical across
    // base seeds, so cross-version figure tables stay comparable.
    let g0 = ctx0.get(&bfs_cell).unwrap();
    let g1 = ctx1.get(&bfs_cell).unwrap();
    assert_eq!(g0.checksum, g1.checksum, "graphs are not re-randomized");
}

/// One bfs-lj Prodigy run, traced or not, under the determinism machine
/// config used by the sweep tests above.
fn bfs_run(trace: bool) -> RunOutcome {
    let spec = WorkloadSpec::graph("bfs", "lj", 64);
    let mut kernel = spec.instantiate_seeded(0);
    run_workload(
        kernel.as_mut(),
        &RunConfig {
            sys: SystemConfig::scaled(64).with_cores(2),
            prefetcher: PrefetcherKind::Prodigy,
            seed: spec.identity_hash(),
            trace,
            ..RunConfig::default()
        },
    )
}

#[test]
fn traced_runs_are_deterministic_and_do_not_perturb_stats() {
    let untraced = bfs_run(false);
    let a = bfs_run(true);
    let b = bfs_run(true);
    // Tracing must never change simulation results.
    assert!(untraced.trace.is_none());
    assert_eq!(
        format!("{:?}", untraced.summary.stats),
        format!("{:?}", a.summary.stats),
        "tracing perturbed Stats"
    );
    assert_eq!(untraced.checksum, a.checksum);
    // Two same-seed traced runs: identical trace bytes, non-trivial volume.
    let ea = a.trace.expect("traced run collects events");
    let eb = b.trace.expect("traced run collects events");
    assert!(!ea.is_empty());
    assert_eq!(
        chrome_trace_json(&ea, None),
        chrome_trace_json(&eb, None),
        "same-seed trace files must be byte-identical"
    );
    // The always-on telemetry counters are deterministic too.
    assert_eq!(untraced.telemetry, a.telemetry);
    assert_eq!(a.telemetry, b.telemetry);
}

/// Same bfs-lj run with the windowed metrics registry installed (or not).
fn bfs_run_metered(metered: bool) -> RunOutcome {
    let spec = WorkloadSpec::graph("bfs", "lj", 64);
    let mut kernel = spec.instantiate_seeded(0);
    run_workload(
        kernel.as_mut(),
        &RunConfig {
            sys: SystemConfig::scaled(64).with_cores(2),
            prefetcher: PrefetcherKind::Prodigy,
            seed: spec.identity_hash(),
            metrics: metered.then_some(MetricsConfig {
                window_cycles: 5_000,
            }),
            ..RunConfig::default()
        },
    )
}

#[test]
fn metrics_series_is_byte_identical_across_same_seed_runs() {
    let a = bfs_run_metered(true);
    let b = bfs_run_metered(true);
    let ma = a.metrics.as_ref().expect("metered run returns a registry");
    let mb = b.metrics.as_ref().expect("metered run returns a registry");
    assert!(
        !ma.samples().is_empty(),
        "a bfs-lj run must close at least one 5k-cycle window"
    );
    assert_eq!(
        ma.to_json().to_string(),
        mb.to_json().to_string(),
        "same-seed metrics series must be byte-identical"
    );
    // The per-DIG-node attribution table is deterministic and populated.
    assert_eq!(a.telemetry, b.telemetry);
    assert!(
        !a.telemetry.attribution.is_empty(),
        "Prodigy prefetches must be attributed to DIG nodes/edges"
    );
}

#[test]
fn metering_does_not_perturb_stats() {
    let unmetered = bfs_run_metered(false);
    let metered = bfs_run_metered(true);
    assert!(unmetered.metrics.is_none());
    assert_eq!(
        format!("{:?}", unmetered.summary.stats),
        format!("{:?}", metered.summary.stats),
        "the metrics registry perturbed Stats"
    );
    assert_eq!(unmetered.checksum, metered.checksum);
}

#[test]
fn checksums_agree_across_prefetchers_within_a_seed() {
    // The cross-prefetcher output-equality invariant must survive seeding:
    // every prefetcher sees the same workload input for a given base seed.
    for base_seed in [0u64, 42] {
        let ctx = ctx_with(2, base_seed);
        let spec = WorkloadSpec::plain("is", 256);
        let cells: Vec<Cell> = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Prodigy,
        ]
        .into_iter()
        .map(|k| Cell::new(spec.clone(), k))
        .collect();
        ctx.warm(cells.clone());
        let sums: Vec<u64> = cells.iter().map(|c| ctx.get(c).unwrap().checksum).collect();
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "checksum mismatch at base seed {base_seed}: {sums:?}"
        );
    }
}
