//! Integration tests for the persistent cell cache and `--shard K/N`
//! sweeps: a warm cache must satisfy a second context without simulating
//! anything (bit-identically), failures must never reach the disk, and
//! merging shard reports must be byte-identical to merging an unsharded
//! run's report.

use prodigy_bench::compare::{diff_reports, merge_reports};
use prodigy_bench::experiments::{shard_cells, Cell, Ctx, ShardSpec, EXPERIMENTS};
use prodigy_bench::sweep::SweepConfig;
use prodigy_bench::workload_set::WorkloadSpec;
use prodigy_sim::json::{parse_json, ToJson};
use prodigy_sim::SystemConfig;
use prodigy_workloads::PrefetcherKind;
use std::path::PathBuf;

fn ctx_with_scale(threads: usize) -> Ctx {
    let mut ctx = Ctx::new(64).with_sweep(SweepConfig {
        threads,
        base_seed: 0,
        cell_timeout: None,
    });
    ctx.sys = SystemConfig::scaled(64).with_cores(2);
    ctx
}

fn seeded_ctx(threads: usize, base_seed: u64) -> Ctx {
    let mut ctx = ctx_with_scale(threads);
    ctx.sweep.base_seed = base_seed;
    ctx
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("prodigy-cellcache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The determinism fingerprint of one warmed cell's outcome: everything
/// except host timing (which a disk hit legitimately changes).
fn fingerprint(ctx: &Ctx, cell: &Cell) -> String {
    let out = ctx.get(cell).unwrap();
    format!(
        "{}|checksum={}|seed={}|stats={:?}|energy={:?}|storage={}|prodigy={:?}|telemetry={:?}",
        cell.key(&ctx.sys),
        out.checksum,
        out.seed,
        out.summary.stats,
        out.summary.energy,
        out.storage_bits,
        out.prodigy,
        out.telemetry,
    )
}

fn small_grid(scale: u32) -> Vec<Cell> {
    let specs = [
        WorkloadSpec::graph("bfs", "lj", scale),
        WorkloadSpec::plain("is", scale.max(256)),
    ];
    let kinds = [PrefetcherKind::None, PrefetcherKind::Prodigy];
    let mut cells = Vec::new();
    for s in &specs {
        for &k in &kinds {
            cells.push(Cell::new(s.clone(), k));
        }
    }
    cells
}

#[test]
fn warm_disk_cache_satisfies_a_second_context_bit_identically() {
    let dir = tmp_dir("warm");
    let cells = small_grid(64);

    // Cold run: everything simulates, everything persists.
    let cold = ctx_with_scale(2).with_cell_cache(&dir).unwrap();
    cold.warm(cells.clone());
    let cold_report = cold.report();
    assert!(
        cold_report.errors().is_empty(),
        "{:?}",
        cold_report.errors()
    );
    assert_eq!(cold_report.cells_simulated(), cells.len() as u64);
    assert_eq!(cold_report.disk_hits(), 0);
    let cold_prints: Vec<String> = cells.iter().map(|c| fingerprint(&cold, c)).collect();

    // Warm run in a brand-new context: zero cells simulated, all disk hits,
    // outcomes bit-identical to the simulated ones.
    let warm = ctx_with_scale(2).with_cell_cache(&dir).unwrap();
    warm.warm(cells.clone());
    let warm_report = warm.report();
    assert!(
        warm_report.errors().is_empty(),
        "{:?}",
        warm_report.errors()
    );
    assert_eq!(
        warm_report.cells_simulated(),
        0,
        "a warm cache must satisfy every cell from disk"
    );
    assert_eq!(warm_report.disk_hits(), cells.len() as u64);
    assert!(warm_report
        .cells
        .iter()
        .all(|c| c.disk_hit && c.result.is_ok()));
    let warm_prints: Vec<String> = cells.iter().map(|c| fingerprint(&warm, c)).collect();
    assert_eq!(cold_prints, warm_prints, "disk round-trip changed results");

    // A different base seed is a different key: nothing is served stale.
    let other_seed = seeded_ctx(2, 7).with_cell_cache(&dir).unwrap();
    other_seed.warm(cells.clone());
    let r = other_seed.report();
    assert_eq!(r.cells_simulated(), cells.len() as u64);
    assert_eq!(r.disk_hits(), 0, "seed must be part of the cache key");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failures_are_never_persisted_to_the_disk_cache() {
    let dir = tmp_dir("fail");
    let ctx = ctx_with_scale(1).with_cell_cache(&dir).unwrap();
    let good = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
    let bad = Cell::new(WorkloadSpec::plain("no-such-alg", 64), PrefetcherKind::None);
    ctx.warm(vec![good.clone(), bad.clone()]);
    ctx.get(&good).unwrap();
    assert!(ctx.get(&bad).is_err());
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 1, "only the successful cell may reach the disk");

    // A fresh context re-runs the failed cell (no stale failure served)
    // and still loads the good one from disk.
    let again = ctx_with_scale(1).with_cell_cache(&dir).unwrap();
    again.warm(vec![bad.clone(), good.clone()]);
    assert!(again.get(&bad).is_err());
    again.get(&good).unwrap();
    let r = again.report();
    let jobs: u64 = r.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(jobs, 2, "the failed cell was attempted again");
    assert_eq!(
        (r.cells_simulated(), r.errors().len(), r.disk_hits()),
        (0, 1, 1)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_shards_merge_byte_identically_to_an_unsharded_run() {
    let filters = vec!["fig02".to_string()];

    // Unsharded: warm the full fig02 grid directly.
    let full = ctx_with_scale(2);
    let fig02 = EXPERIMENTS.iter().find(|e| e.name == "fig02").unwrap();
    let cells = fig02.cells(full.scale);
    assert_eq!(cells.len(), 4);
    full.warm(cells.clone());
    let full_report = full.report();
    assert!(full_report.errors().is_empty());
    let merged_full =
        merge_reports(&[parse_json(&full_report.to_json().to_string()).unwrap()]).unwrap();

    // Shards 1/2 and 2/2: disjoint, covering, order-insensitive.
    let mut shard_jsons = Vec::new();
    let mut owned_total = 0usize;
    for k in 1..=2usize {
        let shard = ShardSpec::parse(&format!("{k}/2")).unwrap();
        let ctx = ctx_with_scale(2);
        let owned = shard_cells(&ctx, &filters, shard);
        for c in &owned {
            assert!(shard.owns(&c.key(&ctx.sys)));
        }
        owned_total += owned.len();
        ctx.warm(owned);
        let r = ctx.report();
        assert!(r.errors().is_empty());
        shard_jsons.push(parse_json(&r.to_json().to_string()).unwrap());
    }
    assert_eq!(owned_total, cells.len(), "shards must partition the grid");

    let merged_shards = merge_reports(&shard_jsons).unwrap();
    assert_eq!(
        merged_full, merged_shards,
        "merged shard report must be byte-identical to the unsharded merge"
    );
    shard_jsons.reverse();
    assert_eq!(merged_shards, merge_reports(&shard_jsons).unwrap());

    // And prodigy-diff agrees: zero changed metrics vs the unsharded run.
    let d = diff_reports(
        &parse_json(&full_report.to_json().to_string()).unwrap(),
        &parse_json(&merged_shards.to_string()).unwrap(),
        0.02,
    )
    .unwrap();
    assert_eq!(d.changes.len(), 0, "{:?}", d.changes);
    assert!(!d.regressed());
    assert_eq!(d.units_compared, cells.len());
}

#[test]
fn shard_spec_parsing_rejects_nonsense() {
    assert!(ShardSpec::parse("1/2").is_ok());
    assert_eq!(ShardSpec::parse("2/2").unwrap(), ShardSpec { k: 2, n: 2 });
    for bad in ["", "0/2", "3/2", "1/0", "x/2", "1/", "/2", "12"] {
        assert!(ShardSpec::parse(bad).is_err(), "{bad:?} should be rejected");
    }
    // Every key lands on exactly one shard.
    let keys = ["a", "b", "c", "pr-lj|false|prodigy|16|8"];
    for key in keys {
        let owners: Vec<usize> = (1..=3)
            .filter(|&k| ShardSpec { k, n: 3 }.owns(key))
            .collect();
        assert_eq!(owners.len(), 1, "{key} owned by {owners:?}");
    }
}
