//! One function per paper table/figure. Each returns the rendered text it
//! also prints, so integration tests can assert on the series.

use crate::cellcache::{code_rev, composite_key, CellCache};
use crate::report::{geomean, mean, pct, pct_opt, x, x_opt, Table};
use crate::sweep::{
    run_isolated, run_pool, stable_key_hash, CellError, CellStats, CellTiming, SingleFlightCache,
    SweepConfig, SweepReport, WorkerStat, CALLER_THREAD,
};
use crate::workload_set::{all_29, per_algorithm, WorkloadSpec};
use prodigy::{ProdigyConfig, ProdigyPrefetcher};
use prodigy_sim::prefetch::Prefetcher;
use prodigy_sim::SystemConfig;
use prodigy_workloads::kernels::PageRank;
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig, RunOutcome};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One simulation cell: workload × prefetcher × hardware knobs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Prefetcher attached.
    pub kind: PrefetcherKind,
    /// Prodigy PFHR registers.
    pub pfhr: usize,
    /// Install the LLC-miss classifier.
    pub classify: bool,
    /// Core count (0 = context default).
    pub cores: u32,
    /// Far-memory latency scale (0 = single-tier machine, the default; `n ≥
    /// 1` attaches a far tier at `n×` DRAM latency/occupancy and the
    /// kernels' cold arrays are placed there). Appended to the cache key
    /// only when nonzero so legacy single-tier keys — and the disk-cache
    /// entries derived from them — stay unchanged.
    pub far: u64,
}

impl Cell {
    /// A cell with default knobs (16 PFHR entries, no classifier, context
    /// core count).
    pub fn new(spec: WorkloadSpec, kind: PrefetcherKind) -> Self {
        Cell {
            spec,
            kind,
            pfhr: 16,
            classify: false,
            cores: 0,
            far: 0,
        }
    }

    /// Cache key: every knob that affects the simulation result.
    pub fn key(&self) -> String {
        let mut k = format!(
            "{}|{}|{}|{}|{}|{}",
            self.spec.name,
            self.spec.reorder,
            self.kind.name(),
            self.pfhr,
            self.classify,
            self.cores
        );
        if self.far != 0 {
            k.push_str(&format!("|far{}", self.far));
        }
        k
    }
}

/// Shared experiment context: machine configuration, data-set scale, sweep
/// knobs, and a single-flight memoising run cache so figures reuse each
/// other's simulations (including across concurrent workers).
pub struct Ctx {
    /// Data-set scale divisor (bigger = smaller inputs = faster).
    pub scale: u32,
    /// Machine configuration (cache sizes already scaled to match).
    pub sys: SystemConfig,
    /// Sweep execution knobs (threads, base seed, per-cell timeout).
    pub sweep: SweepConfig,
    /// Enable per-component host self-profiling for every simulated cell
    /// (see [`prodigy_sim::hostprof`]). Host telemetry only: simulated
    /// stats, checksums and telemetry are byte-identical either way.
    pub host_profile: bool,
    cache: SingleFlightCache<Arc<RunOutcome>>,
    cell_cache: Option<CellCache>,
    code_rev: String,
    disk_hits: AtomicU64,
    threads_leaked: AtomicU64,
    errors: Mutex<Vec<CellError>>,
    timings: Mutex<Vec<CellTiming>>,
    workers: Mutex<Vec<WorkerStat>>,
    started: Instant,
}

/// Simulates one cell. A free function (not a method) so the isolation
/// layer can move an owned copy of everything into a `'static` closure.
fn execute_cell(
    cell: &Cell,
    sys: SystemConfig,
    base_seed: u64,
    host_profile: bool,
    cancel: Arc<std::sync::atomic::AtomicBool>,
) -> RunOutcome {
    let mut kernel = cell.spec.instantiate_seeded(base_seed);
    let mut sys = if cell.cores == 0 {
        sys
    } else {
        sys.with_cores(cell.cores)
    };
    if cell.far != 0 {
        sys = sys.with_far_scale(cell.far);
    }
    let cfg = RunConfig {
        sys,
        prefetcher: cell.kind,
        prodigy: ProdigyConfig {
            pfhr_entries: cell.pfhr,
            ..ProdigyConfig::default()
        },
        classify_llc: cell.classify,
        seed: cell.spec.identity_hash() ^ base_seed,
        trace: false,
        metrics: None,
        host_profile,
        cancel: Some(cancel),
    };
    run_workload(kernel.as_mut(), &cfg)
}

impl Ctx {
    /// Standard context: the differential-scaled bench machine
    /// ([`SystemConfig::bench`]), data sets scaled by `scale`, default
    /// sweep knobs.
    pub fn new(scale: u32) -> Self {
        Ctx {
            scale,
            sys: SystemConfig::bench(),
            sweep: SweepConfig::default(),
            host_profile: false,
            cache: SingleFlightCache::new(),
            cell_cache: None,
            code_rev: code_rev(),
            disk_hits: AtomicU64::new(0),
            threads_leaked: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
            timings: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// Replaces the sweep knobs (builder style).
    pub fn with_sweep(mut self, sweep: SweepConfig) -> Self {
        self.sweep = sweep;
        self
    }

    /// Attaches a persistent on-disk cell cache rooted at `dir` (builder
    /// style). Successful cells are persisted keyed by
    /// `workload|config|seed|code-rev`; later contexts pointed at the same
    /// directory load them instead of re-simulating.
    pub fn with_cell_cache(mut self, dir: &Path) -> Result<Self, String> {
        self.cell_cache = Some(CellCache::open(dir)?);
        Ok(self)
    }

    /// The composite on-disk cache key for `cell` under this context.
    fn disk_key(&self, cell_key: &str) -> String {
        composite_key(
            cell_key,
            self.scale as u64,
            &self.sys,
            self.sweep.base_seed,
            &self.code_rev,
        )
    }

    /// Whether `cell` already has a completed cache entry.
    pub fn cached(&self, cell: &Cell) -> bool {
        self.cache.contains(&cell.key())
    }

    /// Runs one cell (memoised, single-flight, isolated), returning the
    /// recorded error if the cell panicked or timed out.
    pub fn try_run(&self, cell: &Cell) -> Result<Arc<RunOutcome>, CellError> {
        self.try_run_on(CALLER_THREAD, cell)
    }

    fn try_run_on(&self, worker: usize, cell: &Cell) -> Result<Arc<RunOutcome>, CellError> {
        let key = cell.key();
        self.cache.get_or_run(&key, || {
            let t0 = Instant::now();
            if let Some(cc) = &self.cell_cache {
                if let Some(o) = cc.load(&self.disk_key(&key)) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let o = Arc::new(o);
                    self.timings.lock().unwrap().push(CellTiming {
                        key: key.clone(),
                        timing: prodigy_sim::RunTiming::from_elapsed(t0.elapsed()),
                        worker,
                        disk_hit: true,
                        // Disk hits carry no profile: nothing was simulated
                        // in this process and the cache never persists host
                        // timing.
                        host_profile: None,
                        outcome: Some(Arc::clone(&o)),
                        error: None,
                    });
                    return Ok(o);
                }
            }
            let owned = cell.clone();
            let sys = self.sys;
            let base_seed = self.sweep.base_seed;
            let profile = self.host_profile;
            let out = run_isolated(&key, self.sweep.cell_timeout, move |cancel| {
                execute_cell(&owned, sys, base_seed, profile, cancel)
            });
            let (res, timing) = match out {
                Ok(o) => {
                    if let Some(cc) = &self.cell_cache {
                        if let Err(e) = cc.store(&self.disk_key(&key), &o) {
                            eprintln!("warning: cell cache store failed for {key}: {e}");
                        }
                    }
                    let timing = o.timing;
                    (Ok(Arc::new(o)), timing)
                }
                Err(e) => {
                    // Only truly stuck workers count: a timed-out cell whose
                    // thread honoured the cancel flag inside the grace
                    // window was joined, not leaked.
                    if e.leaked {
                        self.threads_leaked.fetch_add(1, Ordering::Relaxed);
                    }
                    let err = CellError {
                        key: key.clone(),
                        reason: e.reason,
                        timed_out: e.timed_out,
                    };
                    self.errors.lock().unwrap().push(err.clone());
                    (Err(err), prodigy_sim::RunTiming::from_elapsed(t0.elapsed()))
                }
            };
            self.timings.lock().unwrap().push(CellTiming {
                key: key.clone(),
                timing,
                worker,
                disk_hit: false,
                host_profile: res.as_ref().ok().and_then(|o| o.host_profile),
                outcome: res.as_ref().ok().cloned(),
                error: res.as_ref().err().map(|e| e.reason.clone()),
            });
            res
        })
    }

    /// Runs one cell (memoised).
    ///
    /// # Panics
    /// Panics if the cell failed (diverged or panicked); figure functions
    /// assume their cells succeed, and `run_all` catches the panic per
    /// experiment so one bad cell cannot abort the sweep.
    pub fn run(&self, cell: &Cell) -> Arc<RunOutcome> {
        self.try_run(cell).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Warms the cache for many cells on the bounded worker pool.
    ///
    /// Duplicate and already-cached cells are skipped; failures are
    /// recorded (visible via [`Ctx::report`]) without aborting the warm.
    pub fn warm(&self, cells: Vec<Cell>) {
        let mut todo: Vec<Cell> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in cells {
            let k = c.key();
            if !self.cache.contains(&k) && seen.insert(k) {
                todo.push(c);
            }
        }
        if todo.is_empty() {
            return;
        }
        let stats = run_pool(todo, self.sweep.threads, |w, cell: Cell| {
            let _ = self.try_run_on(w, &cell);
        });
        self.workers.lock().unwrap().extend(stats);
    }

    /// Aggregated progress/timing report over everything this context ran.
    pub fn report(&self) -> SweepReport {
        let cell_timings = self.timings.lock().unwrap().clone();
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        SweepReport {
            threads: self.sweep.threads,
            base_seed: self.sweep.base_seed,
            memo_hits: self.cache.hits(),
            disk_hits,
            cells_simulated: self.cache.computes().saturating_sub(disk_hits),
            threads_leaked: self.threads_leaked.load(Ordering::Relaxed),
            errors: self.errors.lock().unwrap().clone(),
            wall: self.started.elapsed(),
            workers: self.workers.lock().unwrap().clone(),
            cell_timings,
        }
    }
}

fn speedup(base: &RunOutcome, v: &RunOutcome) -> f64 {
    assert_eq!(
        base.checksum, v.checksum,
        "prefetching changed program output!"
    );
    base.summary.stats.cycles as f64 / v.summary.stats.cycles.max(1) as f64
}

// ---------------------------------------------------------------- Table I

/// Table I: the modelled system configuration.
pub fn table1(ctx: &Ctx) -> String {
    let p = SystemConfig::paper();
    let s = ctx.sys;
    let mut t = Table::new(&["component", "paper", "this run (scaled)"]);
    t.row(vec![
        "cores".into(),
        format!("{} OoO, {}-wide, ROB {}", p.cores, p.core.width, p.core.rob),
        format!("{} OoO, {}-wide, ROB {}", s.cores, s.core.width, s.core.rob),
    ]);
    t.row(vec![
        "L1D".into(),
        format!(
            "{} KB, {}-way, lat {}",
            p.l1d.capacity / 1024,
            p.l1d.ways,
            p.l1d.data_latency
        ),
        format!(
            "{} B, {}-way, lat {}",
            s.l1d.capacity, s.l1d.ways, s.l1d.data_latency
        ),
    ]);
    t.row(vec![
        "L2".into(),
        format!(
            "{} KB, {}-way, lat {}",
            p.l2.capacity / 1024,
            p.l2.ways,
            p.l2.data_latency
        ),
        format!(
            "{} B, {}-way, lat {}",
            s.l2.capacity, s.l2.ways, s.l2.data_latency
        ),
    ]);
    t.row(vec![
        "L3/slice".into(),
        format!(
            "{} MB, {}-way, lat {}",
            p.l3.capacity / (1024 * 1024),
            p.l3.ways,
            p.l3.data_latency
        ),
        format!(
            "{} B, {}-way, lat {}",
            s.l3.capacity, s.l3.ways, s.l3.data_latency
        ),
    ]);
    t.row(vec![
        "DRAM".into(),
        format!("lat {} + queueing", p.dram.access_latency),
        format!("lat {} + queueing", s.dram.access_latency),
    ]);
    format!("Table I — system configuration\n{}", t.render())
}

// ---------------------------------------------------------------- Table II

/// Table II: data-set stand-ins with footprint-to-LLC ratios.
pub fn table2(ctx: &Ctx) -> String {
    let mut t = Table::new(&["graph", "stands for", "vertices", "edges", "size/LLC"]);
    let llc = ctx.sys.llc_capacity() as f64;
    for d in &prodigy_workloads::graph::datasets::DATASETS {
        let g = crate::workload_set::dataset_graph(d.name, ctx.scale, false);
        t.row(vec![
            d.name.into(),
            d.stands_for.into(),
            format!("{}", g.n()),
            format!("{}", g.m()),
            format!("{:.1}x", g.footprint_bytes() as f64 / llc),
        ]);
    }
    format!(
        "Table II — data sets (scale 1/{})\n{}",
        ctx.scale,
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 2

/// Fig. 2: DRAM-stall reduction and speedup highlight (pr on lj).
pub fn fig02(ctx: &Ctx) -> String {
    let spec = WorkloadSpec::graph("pr", "lj", ctx.scale);
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Droplet,
        PrefetcherKind::Prodigy,
    ];
    warm_for(ctx, "fig02");
    let base = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
    let base_dram = base.summary.stats.cpi.dram.max(1e-9);
    let mut t = Table::new(&["prefetcher", "DRAM-stall (norm)", "speedup"]);
    for k in kinds {
        let out = ctx.run(&Cell::new(spec.clone(), k));
        t.row(vec![
            k.name().into(),
            format!("{:.3}", out.summary.stats.cpi.dram / base_dram),
            x(speedup(&base, &out)),
        ]);
    }
    format!(
        "Fig. 2 — pr-lj highlight (paper: 8.2x stall reduction, 2.9x speedup)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4: baseline (no-prefetch) execution-time breakdown for all 29
/// workloads.
pub fn fig04(ctx: &Ctx) -> String {
    let roster = all_29(ctx.scale);
    warm_for(ctx, "fig04");
    let mut t = Table::new(&[
        "workload", "no-stall", "dram", "cache", "branch", "dep", "other", "stack",
    ]);
    let mut dram_fracs = Vec::new();
    for spec in &roster {
        let out = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
        let n = out.summary.stats.cpi.normalized();
        dram_fracs.push(n.dram);
        t.row(vec![
            spec.name.clone(),
            pct(n.no_stall),
            pct(n.dram),
            pct(n.cache),
            pct(n.branch),
            pct(n.dependency),
            pct(n.other),
            crate::report::cpi_bar(&out.summary.stats.cpi, 32),
        ]);
    }
    format!(
        "Fig. 4 — baseline CPI stacks (paper: DRAM stalls >50% on average; measured mean {})\n{}",
        pct(mean(&dram_fracs)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 12

/// Fig. 12: PFHR file-size design-space exploration (normalised to 4).
pub fn fig12(ctx: &Ctx) -> String {
    let algs = per_algorithm(ctx.scale);
    warm_for(ctx, "fig12");
    let mut t = Table::new(&["workload", "4", "8", "16", "32"]);
    for spec in &algs {
        let get = |pf: usize| {
            let mut c = Cell::new(spec.clone(), PrefetcherKind::Prodigy);
            c.pfhr = pf;
            ctx.run(&c).summary.stats.cycles as f64
        };
        let base = get(4);
        t.row(vec![
            spec.alg.to_string(),
            "1.00".into(),
            format!("{:.2}", base / get(8)),
            format!("{:.2}", base / get(16)),
            format!("{:.2}", base / get(32)),
        ]);
    }
    format!(
        "Fig. 12 — PFHR size sweep, speedup normalised to 4 registers (paper picks 16)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 13

/// Fig. 13: fraction of baseline LLC misses inside DIG-annotated structures.
pub fn fig13(ctx: &Ctx) -> String {
    let cells = experiment_cells("fig13", ctx).expect("fig13 has a cell grid");
    ctx.warm(cells.clone());
    let mut t = Table::new(&["workload", "prefetchable", "non-prefetchable"]);
    let mut fracs = Vec::new();
    for c in &cells {
        let out = ctx.run(c);
        let s = &out.summary.stats;
        let total = (s.llc_misses_prefetchable + s.llc_misses_other).max(1);
        let f = s.llc_misses_prefetchable as f64 / total as f64;
        fracs.push(f);
        t.row(vec![c.spec.alg.to_string(), pct(f), pct(1.0 - f)]);
    }
    format!(
        "Fig. 13 — prefetchable LLC misses (paper avg 96.4%; measured avg {})\n{}",
        pct(mean(&fracs)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 14

/// Fig. 14: CPI stacks and speedup of Prodigy vs the non-prefetching
/// baseline over all 29 workloads.
pub fn fig14(ctx: &Ctx) -> String {
    let roster = all_29(ctx.scale);
    warm_for(ctx, "fig14");
    let mut t = Table::new(&[
        "workload",
        "base dram%",
        "prodigy CPI (norm)",
        "dram cut",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    let mut dram_cuts = Vec::new();
    for spec in &roster {
        let base = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
        let pro = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::Prodigy));
        let sp = speedup(&base, &pro);
        speedups.push(sp);
        let bn = base.summary.stats.cpi.normalized();
        let cut =
            1.0 - (pro.summary.stats.cpi.dram / base.summary.stats.cpi.dram.max(1e-9)).min(1.0);
        dram_cuts.push(cut);
        t.row(vec![
            spec.name.clone(),
            pct(bn.dram),
            format!(
                "{:.2}",
                pro.summary.stats.cycles as f64 / base.summary.stats.cycles.max(1) as f64
            ),
            pct(cut),
            x(sp),
        ]);
    }
    format!(
        "Fig. 14 — Prodigy vs baseline (paper: 2.6x mean speedup, 80.3% DRAM-stall cut; measured geomean {} / mean DRAM cut {})\n{}",
        x_opt(geomean(&speedups)),
        pct(mean(&dram_cuts)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 15

/// Fig. 15: where prefetched data is when demanded.
pub fn fig15(ctx: &Ctx) -> String {
    let algs = per_algorithm(ctx.scale);
    warm_for(ctx, "fig15");
    let mut t = Table::new(&["workload", "L1 hit", "L2 hit", "L3 hit", "evicted unused"]);
    let mut accs = Vec::new();
    for spec in &algs {
        let out = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::Prodigy));
        let u = out.summary.stats.prefetch_use;
        let total = u.resolved().max(1) as f64;
        accs.extend(u.accuracy());
        t.row(vec![
            spec.alg.to_string(),
            pct(u.hit_l1 as f64 / total),
            pct(u.hit_l2 as f64 / total),
            pct(u.hit_l3 as f64 / total),
            pct(u.evicted_unused as f64 / total),
        ]);
    }
    format!(
        "Fig. 15 — prefetch usefulness (paper avg accuracy 62.7%; measured avg {})\n{}",
        pct(mean(&accs)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 16

/// Fig. 16: percentage of prefetchable LLC misses converted into hits.
pub fn fig16(ctx: &Ctx) -> String {
    let algs = per_algorithm(ctx.scale);
    warm_for(ctx, "fig16");
    let mut t = Table::new(&["workload", "converted"]);
    let mut fr = Vec::new();
    for spec in &algs {
        let get = |k| {
            let mut c = Cell::new(spec.clone(), k);
            c.classify = true;
            ctx.run(&c)
        };
        let base = get(PrefetcherKind::None);
        let pro = get(PrefetcherKind::Prodigy);
        let b = base.summary.stats.llc_misses_prefetchable.max(1) as f64;
        let p = pro.summary.stats.llc_misses_prefetchable as f64;
        let conv = (1.0 - p / b).max(0.0);
        fr.push(conv);
        t.row(vec![spec.alg.to_string(), pct(conv)]);
    }
    format!(
        "Fig. 16 — prefetchable misses converted to hits (paper avg 85.1%; measured avg {})\n{}",
        pct(mean(&fr)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 17

/// Fig. 17: Prodigy vs Ainsworth & Jones, DROPLET and IMP.
pub fn fig17(ctx: &Ctx) -> String {
    let algs = per_algorithm(ctx.scale);
    warm_for(ctx, "fig17");
    let mut t = Table::new(&["workload", "A&J", "DROPLET", "IMP", "prodigy"]);
    let mut collect: HashMap<&str, Vec<f64>> = HashMap::new();
    for spec in &algs {
        let base = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
        let sp = |k: PrefetcherKind| -> Option<f64> {
            if k.graph_specific() && !spec.is_graph() {
                return None;
            }
            Some(speedup(&base, &ctx.run(&Cell::new(spec.clone(), k))))
        };
        let aj = sp(PrefetcherKind::AinsworthJones);
        let dr = sp(PrefetcherKind::Droplet);
        let im = sp(PrefetcherKind::Imp);
        let pr = sp(PrefetcherKind::Prodigy);
        for (name, v) in [("aj", aj), ("droplet", dr), ("imp", im), ("prodigy", pr)] {
            if let Some(v) = v {
                collect.entry(name).or_default().push(v);
            }
        }
        let f = |v: Option<f64>| v.map(x).unwrap_or_else(|| "-".into());
        t.row(vec![spec.alg.to_string(), f(aj), f(dr), f(im), f(pr)]);
    }
    let g = |n: &str| geomean(collect.get(n).map(|v| v.as_slice()).unwrap_or(&[]));
    format!(
        "Fig. 17 — speedup over no-prefetching (paper: Prodigy beats A&J 1.5x, DROPLET 1.6x, IMP 2.3x)\n{}\ngeomean: A&J {}  DROPLET {}  IMP {}  prodigy {}\n",
        t.render(),
        x_opt(g("aj")),
        x_opt(g("droplet")),
        x_opt(g("imp")),
        x_opt(g("prodigy")),
    )
}

// ---------------------------------------------------------------- Table III

/// Table III: best-reported speedup comparison against prior work.
pub fn table3(ctx: &Ctx) -> String {
    // Reuses the Fig. 14 roster cache: best data set per algorithm.
    let roster = all_29(ctx.scale);
    warm_for(ctx, "table3");
    let best = |alg: &str| -> f64 {
        roster
            .iter()
            .filter(|s| s.alg == alg)
            .map(|s| {
                let b = ctx.run(&Cell::new(s.clone(), PrefetcherKind::None));
                let p = ctx.run(&Cell::new(s.clone(), PrefetcherKind::Prodigy));
                speedup(&b, &p)
            })
            .fold(0.0, f64::max)
    };
    let rows: [(&str, &[&str], f64); 3] = [
        ("Ainsworth & Jones [6]", &["bc", "bfs", "cc", "pr"], 2.4),
        ("DROPLET [15]", &["bc", "bfs", "cc", "pr", "sssp"], 1.9),
        ("IMP [99]", &["bfs", "pr", "spmv", "symgs"], 1.8),
    ];
    let mut t = Table::new(&[
        "prior work",
        "algorithms",
        "their best",
        "prodigy (measured)",
    ]);
    for (name, algs, theirs) in rows {
        let ours = geomean(&algs.iter().map(|a| best(a)).collect::<Vec<_>>());
        t.row(vec![name.into(), algs.join(","), x(theirs), x_opt(ours)]);
    }
    format!(
        "Table III — best-reported speedups over no-prefetching (paper's Prodigy column: 2.8x / 2.9x / 4.6x)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 18

/// Fig. 18: Prodigy on HubSort-reordered graphs.
pub fn fig18(ctx: &Ctx) -> String {
    let datasets = ["lj", "po"];
    warm_for(ctx, "fig18");
    let mut t = Table::new(&["algorithm", "speedup (reordered graphs)"]);
    let mut all: Vec<Option<f64>> = Vec::new();
    for alg in crate::workload_set::GRAPH_ALGS {
        let mut sps = Vec::new();
        for d in datasets {
            let spec = WorkloadSpec::graph(alg, d, ctx.scale).reordered();
            let b = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
            let p = ctx.run(&Cell::new(spec, PrefetcherKind::Prodigy));
            sps.push(speedup(&b, &p));
        }
        let gm = geomean(&sps);
        all.push(gm);
        t.row(vec![alg.into(), x_opt(gm)]);
    }
    // Overall geomean is poisoned if any per-algorithm geomean is: a
    // degenerate row must not silently vanish from the aggregate.
    let overall = all
        .iter()
        .copied()
        .collect::<Option<Vec<f64>>>()
        .and_then(|v| geomean(&v));
    format!(
        "Fig. 18 — Prodigy on HubSort-reordered graphs (paper geomean 2.3x; measured {})\n{}",
        x_opt(overall),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 19

/// Fig. 19: energy of Prodigy normalised to the baseline.
pub fn fig19(ctx: &Ctx) -> String {
    let roster = all_29(ctx.scale);
    warm_for(ctx, "fig19");
    let mut t = Table::new(&["workload", "core", "cache", "dram", "other", "total (norm)"]);
    let mut savings = Vec::new();
    for spec in &roster {
        let b = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
        let p = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::Prodigy));
        let bt = b.summary.energy.total().max(1e-18);
        let pe = &p.summary.energy;
        savings.push(bt / pe.total().max(1e-18));
        t.row(vec![
            spec.name.clone(),
            format!("{:.3}", pe.core / bt),
            format!("{:.3}", pe.cache / bt),
            format!("{:.3}", pe.dram / bt),
            format!("{:.3}", pe.other / bt),
            format!("{:.3}", pe.total() / bt),
        ]);
    }
    format!(
        "Fig. 19 — Prodigy energy normalised to baseline (paper: 1.6x average savings; measured mean {})\n{}",
        x(mean(&savings)),
        t.render()
    )
}

// ------------------------------------------------------- §VI-C statistics

/// §VI-C: share of Prodigy's indirection prefetches issued through ranged
/// edges (paper: 35.4–75.9%, mean 55.3% on graph algorithms).
pub fn stat_ranged_share(ctx: &Ctx) -> String {
    let algs: Vec<WorkloadSpec> = per_algorithm(ctx.scale)
        .into_iter()
        .filter(|s| s.is_graph())
        .collect();
    warm_for(ctx, "ranged");
    let mut t = Table::new(&["workload", "ranged share"]);
    let mut shares = Vec::new();
    for spec in &algs {
        let out = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::Prodigy));
        let share = out.prodigy.map(|p| p.ranged_share()).unwrap_or(0.0);
        shares.push(share);
        t.row(vec![spec.name.clone(), pct(share)]);
    }
    format!(
        "§VI-C — ranged-indirection share of prefetches (paper mean 55.3%; measured mean {})\n{}",
        pct(mean(&shares)),
        t.render()
    )
}

/// §VI-C: software prefetching vs Prodigy on PageRank.
pub fn stat_software_prefetch(ctx: &Ctx) -> String {
    let spec = WorkloadSpec::graph("pr", "lj", ctx.scale);
    warm_for(ctx, "swpf");
    let base = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
    let pro = ctx.run(&Cell::new(spec, PrefetcherKind::Prodigy));
    // Software-prefetch variant: same graph, instrumented kernel, no
    // hardware prefetcher.
    let g = crate::workload_set::dataset_graph("lj", ctx.scale, false);
    let mut k = PageRank::new((*g).clone(), 3)
        .with_software_prefetch(prodigy_workloads::swpf::SwPrefetchSpec::default().distance);
    let sw = run_workload(
        &mut k,
        &RunConfig {
            sys: ctx.sys,
            prefetcher: PrefetcherKind::None,
            ..RunConfig::default()
        },
    );
    let mut t = Table::new(&["variant", "speedup over baseline"]);
    t.row(vec!["software prefetching".into(), x(speedup(&base, &sw))]);
    t.row(vec!["prodigy".into(), x(speedup(&base, &pro))]);
    format!(
        "§VI-C — software prefetching on pr (paper: +7.6% for software vs ~2x for Prodigy)\n{}",
        t.render()
    )
}

// ------------------------------------------------------------ §VI-E storage

/// §VI-E: hardware storage comparison.
pub fn table_storage(_ctx: &Ctx) -> String {
    let prodigy_bits = prodigy::storage::total_bits(&ProdigyConfig::default());
    let mut t = Table::new(&["prefetcher", "storage", "vs prodigy"]);
    let mut add = |name: &str, bits: u64| {
        t.row(vec![
            name.into(),
            format!("{:.2} KB", bits as f64 / 8192.0),
            format!("{:.1}x", bits as f64 / prodigy_bits as f64),
        ]);
    };
    add("prodigy (this work)", prodigy_bits);
    let pp = ProdigyPrefetcher::default();
    debug_assert_eq!(pp.storage_bits(), prodigy_bits);
    add(
        "stride",
        prodigy_prefetchers::StridePrefetcher::default().storage_bits(),
    );
    add(
        "ghb g/dc",
        prodigy_prefetchers::GhbGdcPrefetcher::default().storage_bits(),
    );
    add(
        "imp (paper: 1.4x)",
        prodigy_prefetchers::ImpPrefetcher::default().storage_bits(),
    );
    // A&J / DROPLET need a layout hint; any valid one reports the design's
    // storage.
    let mut dig = prodigy::Dig::new();
    let a = dig.node(0x1000, 16, 4);
    let b = dig.node(0x2000, 17, 4);
    let c = dig.node(0x3000, 64, 4);
    let d = dig.node(0x4000, 16, 4);
    dig.edge(a, b, prodigy::EdgeKind::SingleValued);
    dig.edge(b, c, prodigy::EdgeKind::Ranged);
    dig.edge(c, d, prodigy::EdgeKind::SingleValued);
    dig.trigger(a, prodigy::TriggerSpec::default());
    add(
        "ainsworth&jones (paper: 2x)",
        prodigy_prefetchers::AinsworthJonesPrefetcher::from_dig(&dig)
            .expect("valid dig")
            .storage_bits(),
    );
    add(
        "droplet (paper: 9.7x)",
        prodigy_prefetchers::DropletPrefetcher::from_dig(&dig)
            .expect("valid dig")
            .storage_bits(),
    );
    format!(
        "§VI-E — storage overhead (paper: Prodigy 0.8 KB = 0.53 KB DIG + 0.26 KB PFHR)\n{}",
        Table::render(&t)
    )
}

// ---------------------------------------------------------- §VI-F scaling

/// §VI-F: core-count scaling of the baseline vs 8-core Prodigy.
pub fn scalability(ctx: &Ctx) -> String {
    let spec = WorkloadSpec::graph("pr", "lj", ctx.scale);
    let counts = [1u32, 2, 4, 8, 16, 32, 40];
    let mut pcell = Cell::new(spec.clone(), PrefetcherKind::Prodigy);
    pcell.cores = 8;
    warm_for(ctx, "scalability");
    let one = {
        let mut c = Cell::new(spec.clone(), PrefetcherKind::None);
        c.cores = 1;
        ctx.run(&c).summary.stats.cycles as f64
    };
    let mut t = Table::new(&["config", "speedup vs 1 core", "DRAM BW util"]);
    let peak = prodigy_sim::MemorySystem::new(ctx.sys).peak_dram_bytes_per_cycle();
    for &c in &counts {
        let mut cell = Cell::new(spec.clone(), PrefetcherKind::None);
        cell.cores = c;
        let out = ctx.run(&cell);
        let s = &out.summary.stats;
        let bw = (s.dram_reads + s.dram_writes) as f64 * 64.0 / s.cycles.max(1) as f64;
        t.row(vec![
            format!("baseline {c} cores"),
            x(one / s.cycles.max(1) as f64),
            pct(bw / peak),
        ]);
    }
    let out = ctx.run(&pcell);
    let s = &out.summary.stats;
    let bw = (s.dram_reads + s.dram_writes) as f64 * 64.0 / s.cycles.max(1) as f64;
    t.row(vec![
        "prodigy 8 cores".into(),
        x(one / s.cycles.max(1) as f64),
        pct(bw / peak),
    ]);
    format!(
        "§VI-F — scalability (paper: 8-core Prodigy ≈ 40-core baseline at 5x less area)\n{}",
        t.render()
    )
}

// ------------------------------------------------------------- extensions

/// Extension (paper §V-B footnote 3): direction-optimizing BFS with
/// runtime DIG reconfiguration at each direction switch.
pub fn ext_dobfs(ctx: &Ctx) -> String {
    use prodigy_workloads::kernels::DoBfs;
    let g = crate::workload_set::dataset_graph("lj", ctx.scale, false);
    let src = crate::workload_set::best_source(&g);
    let mut rows = Vec::new();
    let mut base_cycles = 0u64;
    for kind in [PrefetcherKind::None, PrefetcherKind::Prodigy] {
        let mut k = DoBfs::new((*g).clone(), src, 15);
        let out = run_workload(
            &mut k,
            &RunConfig {
                sys: ctx.sys,
                prefetcher: kind,
                ..RunConfig::default()
            },
        );
        let c = out.summary.stats.cycles;
        if kind == PrefetcherKind::None {
            base_cycles = c;
        }
        rows.push((
            kind.name(),
            c,
            base_cycles as f64 / c.max(1) as f64,
            k.switches,
            k.bottom_up_levels,
        ));
    }
    let mut t = Table::new(&[
        "prefetcher",
        "cycles",
        "speedup",
        "dir switches",
        "bottom-up levels",
    ]);
    for (n, c, s, sw, bu) in rows {
        t.row(vec![
            n.into(),
            c.to_string(),
            x(s),
            sw.to_string(),
            bu.to_string(),
        ]);
    }
    format!(
        "Extension — direction-optimizing BFS with runtime DIG reconfiguration (§V-B fn.3, §IV-F)\n{}",
        t.render()
    )
}

/// §VI-G limitations case study: triangle counting's branch-dependent
/// loads defeat Prodigy's control-flow-blind prefetching.
pub fn limits_tc(ctx: &Ctx) -> String {
    use prodigy_workloads::kernels::{Bfs, Tc};
    // Triangle counting touches Θ(Σ deg²) edge pairs; run it on a smaller
    // instance of the same graph family than the streaming kernels use.
    let g = crate::workload_set::dataset_graph("po", ctx.scale.saturating_mul(8).max(8), false);
    let src = crate::workload_set::best_source(&g);
    let mut t = Table::new(&["workload", "prodigy speedup", "prefetch accuracy"]);
    // Contrast against bfs on the same input.
    let mut rows = Vec::new();
    {
        let base = {
            let mut k = Bfs::new((*g).clone(), src);
            run_workload(
                &mut k,
                &RunConfig {
                    sys: ctx.sys,
                    prefetcher: PrefetcherKind::None,
                    ..RunConfig::default()
                },
            )
        };
        let pro = {
            let mut k = Bfs::new((*g).clone(), src);
            run_workload(
                &mut k,
                &RunConfig {
                    sys: ctx.sys,
                    prefetcher: PrefetcherKind::Prodigy,
                    ..RunConfig::default()
                },
            )
        };
        rows.push((
            "bfs (control)",
            speedup(&base, &pro),
            pro.summary.stats.prefetch_use.accuracy(),
        ));
    }
    {
        let base = {
            let mut k = Tc::new((*g).clone());
            run_workload(
                &mut k,
                &RunConfig {
                    sys: ctx.sys,
                    prefetcher: PrefetcherKind::None,
                    ..RunConfig::default()
                },
            )
        };
        let pro = {
            let mut k = Tc::new((*g).clone());
            run_workload(
                &mut k,
                &RunConfig {
                    sys: ctx.sys,
                    prefetcher: PrefetcherKind::Prodigy,
                    ..RunConfig::default()
                },
            )
        };
        rows.push((
            "tc (branch-dependent)",
            speedup(&base, &pro),
            pro.summary.stats.prefetch_use.accuracy(),
        ));
    }
    for (name, sp, acc) in rows {
        t.row(vec![name.into(), x(sp), pct_opt(acc)]);
    }
    format!(
        "§VI-G — limitations: tc's ID-pruned traversal gives Prodigy less to win (paper predicts muted gains)\n{}",
        t.render()
    )
}

/// Extension (paper §IV-G future work): feedback-directed throttling.
pub fn ext_throttle(ctx: &Ctx) -> String {
    use prodigy::throttle::ThrottleSpec;
    let spec = WorkloadSpec::graph("cc", "lj", ctx.scale);
    let base = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::None));
    let plain = ctx.run(&Cell::new(spec.clone(), PrefetcherKind::Prodigy));
    // Throttled run (not cached: distinct config).
    let mut k = spec.instantiate();
    let throttled = run_workload(
        k.as_mut(),
        &RunConfig {
            sys: ctx.sys,
            prefetcher: PrefetcherKind::Prodigy,
            prodigy: ProdigyConfig {
                throttle: Some(ThrottleSpec::default()),
                ..ProdigyConfig::default()
            },
            classify_llc: false,
            seed: 0,
            trace: false,
            metrics: None,
            host_profile: false,
            cancel: None,
        },
    );
    let mut t = Table::new(&["variant", "speedup", "prefetch accuracy"]);
    let acc = |o: &RunOutcome| pct_opt(o.summary.stats.prefetch_use.accuracy());
    t.row(vec![
        "prodigy".into(),
        x(speedup(&base, &plain)),
        acc(&plain),
    ]);
    t.row(vec![
        "prodigy + FDP throttle".into(),
        x(speedup(&base, &throttled)),
        acc(&throttled),
    ]);
    format!(
        "Extension — feedback-directed throttling (§IV-G future work) on cc-lj\n{}",
        t.render()
    )
}

// ------------------------------------------------------- far-memory tier

/// Far-memory latency scales the `farmem` experiment sweeps. `1` attaches a
/// far tier with the same timing as DRAM — the latency-tolerance baseline —
/// while the DRAM-only machine (no far tier at all) is untouched by this
/// experiment.
pub const FAR_SCALES: [u64; 4] = [1, 2, 4, 8];

/// Prefetchers compared in the far-memory sweep.
pub const FAR_KINDS: [PrefetcherKind; 4] = [
    PrefetcherKind::Prodigy,
    PrefetcherKind::Stride,
    PrefetcherKind::GhbGdc,
    PrefetcherKind::Imp,
];

/// Far-memory/CXL latency-tolerance sweep (Fig. 12-style table): every GAP
/// kernel on `lj` under four prefetchers, with the kernels' cold property
/// arrays placed in a far tier whose latency/occupancy scales 1–8× DRAM.
/// A prefetcher that hides far-memory latency keeps relative IPC flat as
/// the scale grows; the per-tier load-to-use quantiles land in the JSON
/// report for `prodigy-diff --slo far_load_to_use_p99<=N` gating.
pub fn farmem(ctx: &Ctx) -> String {
    warm_for(ctx, "farmem");
    let mut t = Table::new(&[
        "workload",
        "prefetcher",
        "ipc @1x",
        "2x",
        "4x",
        "8x",
        "far load-to-use p99 @8x",
    ]);
    for alg in crate::workload_set::GRAPH_ALGS {
        let spec = WorkloadSpec::graph(alg, "lj", ctx.scale);
        for kind in FAR_KINDS {
            let mut base_ipc = 0.0f64;
            let mut row = vec![format!("{alg}-lj"), kind.name().into()];
            let mut far_p99 = "n/a".to_string();
            for (i, &fs) in FAR_SCALES.iter().enumerate() {
                let mut c = Cell::new(spec.clone(), kind);
                c.far = fs;
                let out = ctx.run(&c);
                let s = &out.summary.stats;
                let ipc = s.instructions as f64 / s.cycles.max(1) as f64;
                if i == 0 {
                    base_ipc = ipc;
                    row.push(format!("{ipc:.3}"));
                } else {
                    row.push(pct(ipc / base_ipc.max(1e-12)));
                }
                if fs == 8 {
                    if let Some(q) = out
                        .telemetry
                        .tiers
                        .and_then(|tt| prodigy_sim::HistQuantiles::from_hist(&tt.far.load_to_use))
                    {
                        far_p99 = format!("{}..{}", q.p99.0, q.p99.1);
                    }
                }
            }
            row.push(far_p99);
            t.row(row);
        }
    }
    format!(
        "Far-memory tier — relative IPC as far latency scales 1x..8x (cold property arrays remote; flat = latency-tolerant)\n{}",
        t.render()
    )
}

// ------------------------------------------------------- cache pollution

/// Cache-pollution sweep (paper Fig. 13 triple): every GAP kernel on `lj`
/// under every prefetcher, reporting prefetch accuracy, coverage and the
/// LLC pollution rate (victim-table demand misses per LLC demand miss)
/// side by side. Sources that issued no prefetches render `n/a`, matching
/// the `accuracy()`/`coverage()` Option convention; the worst per-DIG-edge
/// polluter of each cell is named so a bad DIG annotation is attributable
/// directly from the table. The per-cell `pollution_rate` lands in the
/// JSON report for `prodigy-diff --slo "pollution_rate<=N"` gating.
pub fn pollution(ctx: &Ctx) -> String {
    warm_for(ctx, "pollution");
    let mut t = Table::new(&[
        "workload",
        "prefetcher",
        "accuracy",
        "coverage",
        "pollution",
        "worst source",
    ]);
    for alg in crate::workload_set::GRAPH_ALGS {
        let spec = WorkloadSpec::graph(alg, "lj", ctx.scale);
        for kind in PrefetcherKind::ALL {
            let out = ctx.run(&Cell::new(spec.clone(), kind));
            let s = &out.summary.stats;
            let cs = CellStats::from_outcome(&out);
            // Heaviest polluter by absolute victim-table hits; ties break
            // toward the lower tag (attribution iterates in tag order).
            let worst = out
                .telemetry
                .attribution
                .iter()
                .filter(|(_, c)| c.polluting > 0)
                .max_by_key(|(tag, c)| (c.polluting, std::cmp::Reverse(*tag)))
                .map(|(tag, c)| {
                    format!(
                        "{} ({})",
                        prodigy_sim::source_tag_label(tag),
                        pct_opt(c.pollution())
                    )
                })
                .unwrap_or_else(|| "n/a".to_string());
            t.row(vec![
                format!("{alg}-lj"),
                kind.name().into(),
                pct_opt(s.prefetch_use.accuracy()),
                pct_opt(s.prefetch_coverage()),
                pct_opt(cs.pollution_rate),
                worst,
            ]);
        }
    }
    format!(
        "Cache pollution — accuracy/coverage/pollution per GAP kernel and prefetcher (paper Fig. 13; pollution = prefetch-evicted demand lines re-missed at the LLC)\n{}",
        t.render()
    )
}

// ---------------------------------------------------- enumeration / shards

/// Every experiment name accepted by [`run_all`]'s filters, in run order.
pub const EXPERIMENT_NAMES: &[&str] = &[
    "table1",
    "table2",
    "fig02",
    "fig04",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table3",
    "fig18",
    "fig19",
    "ranged",
    "swpf",
    "storage",
    "scalability",
    "limits_tc",
    "ext_dobfs",
    "ext_throttle",
    "farmem",
    "pollution",
];

fn experiment_fn(name: &str) -> fn(&Ctx) -> String {
    match name {
        "table1" => table1,
        "table2" => table2,
        "fig02" => fig02,
        "fig04" => fig04,
        "fig12" => fig12,
        "fig13" => fig13,
        "fig14" => fig14,
        "fig15" => fig15,
        "fig16" => fig16,
        "fig17" => fig17,
        "table3" => table3,
        "fig18" => fig18,
        "fig19" => fig19,
        "ranged" => stat_ranged_share,
        "swpf" => stat_software_prefetch,
        "storage" => table_storage,
        "scalability" => scalability,
        "limits_tc" => limits_tc,
        "ext_dobfs" => ext_dobfs,
        "ext_throttle" => ext_throttle,
        "farmem" => farmem,
        "pollution" => pollution,
        other => panic!("unknown experiment {other:?}"),
    }
}

/// The full memoised-cell grid one experiment warms and queries, or `None`
/// for experiments that run no memoised cells (pure tables and the
/// uncached extension runs). Figure functions warm exactly this grid (via
/// [`warm_for`]) and shard mode enumerates it, so the two cannot drift.
pub fn experiment_cells(name: &str, ctx: &Ctx) -> Option<Vec<Cell>> {
    let scale = ctx.scale;
    let both = [PrefetcherKind::None, PrefetcherKind::Prodigy];
    let cells = match name {
        "fig02" => {
            let spec = WorkloadSpec::graph("pr", "lj", scale);
            [
                PrefetcherKind::None,
                PrefetcherKind::GhbGdc,
                PrefetcherKind::Droplet,
                PrefetcherKind::Prodigy,
            ]
            .iter()
            .map(|&k| Cell::new(spec.clone(), k))
            .collect()
        }
        "fig04" => all_29(scale)
            .into_iter()
            .map(|s| Cell::new(s, PrefetcherKind::None))
            .collect(),
        "fig12" => {
            let mut cells = Vec::new();
            for spec in per_algorithm(scale) {
                for pf in [4usize, 8, 16, 32] {
                    let mut c = Cell::new(spec.clone(), PrefetcherKind::Prodigy);
                    c.pfhr = pf;
                    cells.push(c);
                }
            }
            cells
        }
        "fig13" => per_algorithm(scale)
            .into_iter()
            .map(|s| {
                let mut c = Cell::new(s, PrefetcherKind::None);
                c.classify = true;
                c
            })
            .collect(),
        "fig14" | "table3" | "fig19" => {
            let mut cells = Vec::new();
            for s in all_29(scale) {
                for k in both {
                    cells.push(Cell::new(s.clone(), k));
                }
            }
            cells
        }
        "fig15" => per_algorithm(scale)
            .into_iter()
            .map(|s| Cell::new(s, PrefetcherKind::Prodigy))
            .collect(),
        "fig16" => {
            let mut cells = Vec::new();
            for s in per_algorithm(scale) {
                for k in both {
                    let mut c = Cell::new(s.clone(), k);
                    c.classify = true;
                    cells.push(c);
                }
            }
            cells
        }
        "fig17" => {
            let mut cells = Vec::new();
            for s in per_algorithm(scale) {
                for k in [
                    PrefetcherKind::None,
                    PrefetcherKind::AinsworthJones,
                    PrefetcherKind::Droplet,
                    PrefetcherKind::Imp,
                    PrefetcherKind::Prodigy,
                ] {
                    if k.graph_specific() && !s.is_graph() {
                        continue;
                    }
                    cells.push(Cell::new(s.clone(), k));
                }
            }
            cells
        }
        "fig18" => {
            let mut cells = Vec::new();
            for alg in crate::workload_set::GRAPH_ALGS {
                for d in ["lj", "po"] {
                    let spec = WorkloadSpec::graph(alg, d, scale).reordered();
                    for k in both {
                        cells.push(Cell::new(spec.clone(), k));
                    }
                }
            }
            cells
        }
        "ranged" => per_algorithm(scale)
            .into_iter()
            .filter(|s| s.is_graph())
            .map(|s| Cell::new(s, PrefetcherKind::Prodigy))
            .collect(),
        "swpf" => {
            let spec = WorkloadSpec::graph("pr", "lj", scale);
            both.iter().map(|&k| Cell::new(spec.clone(), k)).collect()
        }
        "scalability" => {
            let spec = WorkloadSpec::graph("pr", "lj", scale);
            let mut cells: Vec<Cell> = [1u32, 2, 4, 8, 16, 32, 40]
                .iter()
                .map(|&cores| {
                    let mut c = Cell::new(spec.clone(), PrefetcherKind::None);
                    c.cores = cores;
                    c
                })
                .collect();
            let mut p = Cell::new(spec, PrefetcherKind::Prodigy);
            p.cores = 8;
            cells.push(p);
            cells
        }
        "ext_throttle" => {
            let spec = WorkloadSpec::graph("cc", "lj", scale);
            both.iter().map(|&k| Cell::new(spec.clone(), k)).collect()
        }
        "farmem" => {
            let mut cells = Vec::new();
            for alg in crate::workload_set::GRAPH_ALGS {
                let spec = WorkloadSpec::graph(alg, "lj", scale);
                for kind in FAR_KINDS {
                    for &fs in &FAR_SCALES {
                        let mut c = Cell::new(spec.clone(), kind);
                        c.far = fs;
                        cells.push(c);
                    }
                }
            }
            cells
        }
        "pollution" => {
            let mut cells = Vec::new();
            for alg in crate::workload_set::GRAPH_ALGS {
                let spec = WorkloadSpec::graph(alg, "lj", scale);
                for kind in PrefetcherKind::ALL {
                    cells.push(Cell::new(spec.clone(), kind));
                }
            }
            cells
        }
        _ => return None,
    };
    Some(cells)
}

/// Warms the memoised-cell grid of one experiment (see
/// [`experiment_cells`]).
fn warm_for(ctx: &Ctx, name: &str) {
    ctx.warm(experiment_cells(name, ctx).expect("experiment has a cell grid"));
}

/// A `K/N` slice of the deterministic cell grid: shard `K` (1-based) of
/// `N` owns every cell whose stable key hash lands in its residue class.
/// Ownership hashes the cell *key*, not the enumeration index, so it is
/// insensitive to grid ordering and identical across processes and builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index (`1 <= k <= n`).
    pub k: usize,
    /// Total shard count.
    pub n: usize,
}

impl ShardSpec {
    /// Parses `"K/N"` (e.g. `"1/4"`) with `1 <= K <= N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let bad = || format!("bad shard spec {s:?}: expected K/N with 1 <= K <= N, e.g. 1/4");
        let (k, n) = s.split_once('/').ok_or_else(bad)?;
        let k = k.trim().parse::<usize>().map_err(|_| bad())?;
        let n = n.trim().parse::<usize>().map_err(|_| bad())?;
        if k == 0 || n == 0 || k > n {
            return Err(bad());
        }
        Ok(ShardSpec { k, n })
    }

    /// Whether this shard owns the cell with cache key `key`.
    pub fn owns(&self, key: &str) -> bool {
        stable_key_hash(key) % self.n as u64 == (self.k - 1) as u64
    }
}

/// Enumerates, dedupes and shard-filters the memoised cells of every
/// experiment selected by `filters` (same matching rule as [`run_all`]).
pub fn shard_cells(ctx: &Ctx, filters: &[String], shard: ShardSpec) -> Vec<Cell> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for name in EXPERIMENT_NAMES {
        if !filters.is_empty() && !filters.iter().any(|x| name.contains(x.as_str())) {
            continue;
        }
        let Some(cells) = experiment_cells(name, ctx) else {
            continue;
        };
        for c in cells {
            let k = c.key();
            if shard.owns(&k) && seen.insert(k) {
                out.push(c);
            }
        }
    }
    out
}

/// Runs every experiment whose name contains one of `filters` (all when
/// empty), printing and returning the combined report.
pub fn run_all(ctx: &Ctx, filters: &[String]) -> String {
    let mut out = String::new();
    for &name in EXPERIMENT_NAMES {
        if !filters.is_empty() && !filters.iter().any(|x| name.contains(x.as_str())) {
            continue;
        }
        let f = experiment_fn(name);
        let t0 = std::time::Instant::now();
        // One failed cell panics its figure function; isolate the panic to
        // this experiment so the rest of the sweep still completes (the
        // failure itself stays visible in the text and in `Ctx::report`).
        let text = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx))) {
            Ok(text) => text,
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".into());
                format!("{name} — FAILED: {msg}\n")
            }
        };
        println!("{text}");
        println!("[{name}: {:.1}s]\n", t0.elapsed().as_secs_f64());
        out.push_str(&text);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> Ctx {
        // Very small inputs; machine scaled accordingly.
        let mut ctx = Ctx::new(64);
        ctx.sys = SystemConfig::scaled(64).with_cores(2);
        ctx
    }

    #[test]
    fn cells_are_memoised() {
        let ctx = quick_ctx();
        let c = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        let a = ctx.run(&c);
        let b = ctx.run(&c);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn warm_populates_cache_in_parallel() {
        let ctx = quick_ctx();
        let cells: Vec<Cell> = [PrefetcherKind::None, PrefetcherKind::Prodigy]
            .into_iter()
            .map(|k| Cell::new(WorkloadSpec::plain("is", 256), k))
            .collect();
        ctx.warm(cells.clone());
        for c in &cells {
            assert!(ctx.cached(c));
        }
        let report = ctx.report();
        assert_eq!(report.cells_simulated, 2);
        assert!(report.errors.is_empty());
        assert!(!report.workers.is_empty(), "pool accounting recorded");
    }

    #[test]
    fn failing_cell_is_recorded_not_fatal() {
        let ctx = quick_ctx();
        // An unknown algorithm panics inside instantiation; the isolation
        // layer must convert that into a recorded CellError.
        let bad = Cell::new(WorkloadSpec::plain("no-such-alg", 64), PrefetcherKind::None);
        let err = ctx.try_run(&bad).unwrap_err();
        assert!(err.reason.contains("unknown algorithm"), "{}", err.reason);
        // The failure is cached: a retry does not re-simulate.
        let err2 = ctx.try_run(&bad).unwrap_err();
        assert_eq!(err, err2);
        // And healthy cells still run fine afterwards.
        let good = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        assert!(ctx.try_run(&good).is_ok());
        let report = ctx.report();
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].key, bad.key());
    }

    #[test]
    fn warm_survives_failing_cells() {
        let ctx = quick_ctx();
        let cells = vec![
            Cell::new(WorkloadSpec::plain("no-such-alg", 64), PrefetcherKind::None),
            Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None),
        ];
        ctx.warm(cells.clone());
        assert!(ctx.cached(&cells[0]), "failure is cached too");
        assert!(ctx.try_run(&cells[0]).is_err());
        assert!(ctx.try_run(&cells[1]).is_ok());
    }

    #[test]
    fn fig02_reports_four_prefetchers() {
        let ctx = quick_ctx();
        let text = fig02(&ctx);
        for needle in ["none", "ghb-gdc", "droplet", "prodigy", "speedup"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn far_knob_extends_key_and_splits_telemetry() {
        let ctx = quick_ctx();
        let base_cell = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        assert!(
            !base_cell.key().contains("far"),
            "legacy single-tier keys stay unchanged: {}",
            base_cell.key()
        );
        let mut far_cell = base_cell.clone();
        far_cell.far = 8;
        assert!(far_cell.key().ends_with("|far8"), "{}", far_cell.key());
        let base = ctx.run(&base_cell);
        let far = ctx.run(&far_cell);
        assert_eq!(base.checksum, far.checksum, "placement is timing-only");
        assert!(
            far.summary.stats.cycles > base.summary.stats.cycles,
            "8x-latency cold arrays must cost cycles: {} vs {}",
            far.summary.stats.cycles,
            base.summary.stats.cycles
        );
        assert!(base.telemetry.tiers.is_none(), "single-tier: no split");
        let split = far.telemetry.tiers.expect("two-tier: split recorded");
        assert!(split.far.demand_reads > 0);
        let cs = CellStats::from_outcome(&far);
        assert!(cs.far_load_to_use.is_some(), "SLO row populated");
        assert!(CellStats::from_outcome(&base).far_load_to_use.is_none());
    }

    #[test]
    fn farmem_grid_covers_scales_and_prefetchers() {
        let ctx = quick_ctx();
        let cells = experiment_cells("farmem", &ctx).expect("farmem has a grid");
        assert_eq!(
            cells.len(),
            crate::workload_set::GRAPH_ALGS.len() * FAR_KINDS.len() * FAR_SCALES.len()
        );
        for fs in FAR_SCALES {
            assert!(cells.iter().any(|c| c.far == fs));
        }
        for kind in FAR_KINDS {
            assert!(cells.iter().any(|c| c.kind == kind));
        }
    }

    #[test]
    fn pollution_grid_covers_kernels_and_all_prefetchers() {
        let ctx = quick_ctx();
        let cells = experiment_cells("pollution", &ctx).expect("pollution has a grid");
        assert_eq!(
            cells.len(),
            crate::workload_set::GRAPH_ALGS.len() * PrefetcherKind::ALL.len()
        );
        for kind in PrefetcherKind::ALL {
            assert!(cells.iter().any(|c| c.kind == kind));
        }
        assert!(cells.iter().all(|c| c.far == 0), "single-tier machines");
    }

    #[test]
    fn pollution_report_renders_triple_with_na_baseline() {
        let ctx = quick_ctx();
        let text = pollution(&ctx);
        for needle in ["accuracy", "coverage", "pollution", "worst source", "n/a"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn storage_table_shows_prodigy_smallest_of_graph_designs() {
        let ctx = quick_ctx();
        let text = table_storage(&ctx);
        assert!(text.contains("0.8"));
        assert!(text.contains("droplet"));
    }
}
