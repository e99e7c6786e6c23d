//! The paper's evaluation as one registry: each entry of [`EXPERIMENTS`]
//! declares one table or figure's grid of memoised simulation cells
//! (workload rows × hardware variants) and the renderer that turns the
//! warmed grid into the text it prints. Every simulation the evaluation
//! makes is such a cell, so every result runs on the worker pool under the
//! per-cell timeout, through the disk cache and the shard planner, and
//! lands in the `--json` report. [`Ctx`] keeps one record per cell key:
//! [`Ctx::warm`] is the only path that runs a cell, and renderers read the
//! records through [`Ctx::get`], which never simulates. [`run_all`] warms
//! and renders the selected entries; [`shard_cells`] enumerates the same
//! grids for `--shard K/N` sweeps.

use crate::cellcache::{code_rev, composite_key, CellCache};
use crate::compare::{SloStat, SloValue};
use crate::report::{geomean, mean, pct, pct_opt, x, x_opt, Table};
use crate::sweep::{
    panic_message, run_isolated, run_pool, stable_key_hash, CellError, CellRecord, SweepConfig,
    SweepReport, WorkerStat,
};
use crate::workload_set::{all_29, per_algorithm, WorkloadSpec, GRAPH_ALGS};
use prodigy::{ProdigyConfig, ProdigyPrefetcher};
use prodigy_sim::prefetch::Prefetcher;
use prodigy_sim::SystemConfig;
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig, RunOutcome};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The hardware knobs of a simulation cell: everything but its workload.
/// `Copy` with `const` builders, so registry entries declare their
/// variants as constants.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Prefetcher attached.
    pub kind: PrefetcherKind,
    /// Prodigy PFHR registers.
    pub pfhr: usize,
    /// Core count (0 = the context's). The cell key carries the count the
    /// cell runs on, so a variant that names the context's count shares the
    /// default variant's key.
    pub cores: u32,
    /// Far-memory latency scale (0 = single-tier machine, the default; `n ≥
    /// 1` attaches a far tier at `n×` DRAM latency/occupancy and the
    /// kernels' cold arrays are placed there). Appended to the cache key
    /// only when nonzero so legacy single-tier keys — and the disk-cache
    /// entries derived from them — stay unchanged.
    pub far: u64,
}

impl Variant {
    /// `kind` with default knobs (16 PFHR entries, context core count,
    /// single-tier machine).
    pub const fn new(kind: PrefetcherKind) -> Self {
        Variant {
            kind,
            pfhr: 16,
            cores: 0,
            far: 0,
        }
    }

    /// With `pfhr` Prodigy PFHR registers.
    pub const fn with_pfhr(self, pfhr: usize) -> Self {
        Variant { pfhr, ..self }
    }

    /// On a `cores`-core machine.
    pub const fn with_cores(self, cores: u32) -> Self {
        Variant { cores, ..self }
    }

    /// With a far tier at `far`× DRAM latency.
    pub const fn with_far(self, far: u64) -> Self {
        Variant { far, ..self }
    }
}

/// One simulation cell: workload × hardware variant.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Prefetcher and hardware knobs.
    pub variant: Variant,
}

impl Cell {
    /// A cell with default knobs (see [`Variant::new`]).
    pub fn new(spec: WorkloadSpec, kind: PrefetcherKind) -> Self {
        Cell {
            spec,
            variant: Variant::new(kind),
        }
    }

    /// Cache key on machine `sys`: every knob that affects the simulation
    /// result, `workload|reorder|prefetcher|pfhr|cores[|farN]`,
    /// with the core count the cell runs on.
    pub fn key(&self, sys: &SystemConfig) -> String {
        let v = &self.variant;
        let mut k = format!(
            "{}|{}|{}|{}|{}",
            self.spec.name,
            self.spec.reorder,
            v.kind.name(),
            v.pfhr,
            self.run_config(*sys, 0).sys.cores
        );
        if v.far != 0 {
            k.push_str(&format!("|far{}", v.far));
        }
        k
    }

    /// Whether the variant applies to the workload: the graph-specific
    /// prefetchers (A&J, DROPLET) have no layout to walk on non-graph
    /// workloads, and a kernel carrying software prefetches runs without
    /// a hardware prefetcher (§VI-C compares the two, it does not combine
    /// them), so grids skip those cells.
    fn applies(&self) -> bool {
        let kind = self.variant.kind;
        (!kind.graph_specific() || self.spec.is_graph())
            && (!self.spec.software_prefetch || kind == PrefetcherKind::None)
    }

    /// This cell's run on machine `sys` under sweep seed `base_seed`: the
    /// one place a cell's knobs become a [`RunConfig`]. Every cell counts
    /// its LLC misses inside and outside the DIG-annotated structures
    /// (Figs. 13 and 16 read them). Tracing, metering and cancellation are
    /// the caller's to add.
    pub fn run_config(&self, sys: SystemConfig, base_seed: u64) -> RunConfig {
        let v = self.variant;
        let mut sys = if v.cores == 0 {
            sys
        } else {
            sys.with_cores(v.cores)
        };
        if v.far != 0 {
            sys = sys.with_far_scale(v.far);
        }
        RunConfig {
            sys,
            prefetcher: v.kind,
            prodigy: ProdigyConfig {
                pfhr_entries: v.pfhr,
                ..ProdigyConfig::default()
            },
            classify_llc: true,
            seed: self.spec.identity_hash() ^ base_seed,
            ..RunConfig::default()
        }
    }
}

/// Shared experiment context: machine configuration, data-set scale, sweep
/// knobs, and the cell table — one record per cell key, so figures that
/// share a cell read one simulation of it.
pub struct Ctx {
    /// Data-set scale divisor (bigger = smaller inputs = faster).
    pub scale: u32,
    /// Machine configuration (cache sizes already scaled to match).
    pub sys: SystemConfig,
    /// Sweep execution knobs (threads, base seed, per-cell timeout).
    pub sweep: SweepConfig,
    cell_cache: Option<CellCache>,
    code_rev: String,
    /// Cell key → the record its pool worker wrote, once.
    cells: Mutex<BTreeMap<String, CellRecord>>,
    memo_hits: AtomicU64,
    threads_leaked: AtomicU64,
    render_errors: Mutex<Vec<CellError>>,
    workers: Mutex<Vec<WorkerStat>>,
    started: Instant,
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
            cell_cache: None,
            code_rev: code_rev(),
            cells: Mutex::new(BTreeMap::new()),
            memo_hits: AtomicU64::new(0),
            threads_leaked: AtomicU64::new(0),
            render_errors: Mutex::new(Vec::new()),
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

    /// The cell table. Its lock guards only map reads and inserts, which do
    /// not panic.
    fn table(&self) -> MutexGuard<'_, BTreeMap<String, CellRecord>> {
        self.cells
            .lock()
            .expect("no thread panics holding the cell table")
    }

    /// Experiments whose renderer panicked. Its lock guards only a push
    /// and a clone.
    fn render_errors(&self) -> MutexGuard<'_, Vec<CellError>> {
        self.render_errors
            .lock()
            .expect("no thread panics holding the renderer errors")
    }

    /// The warmed result of `cell`: its outcome, or the error it failed
    /// with. Never simulates — a cell no [`Ctx::warm`] ran is an error.
    pub fn get(&self, cell: &Cell) -> Result<Arc<RunOutcome>, CellError> {
        let key = cell.key(&self.sys);
        let table = self.table();
        let Some(record) = table.get(&key) else {
            let reason = "not warmed".to_string();
            return Err(CellError { key, reason });
        };
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        let result = record.result.clone();
        result.map_err(|reason| CellError { key, reason })
    }

    /// Runs every cell whose key the table does not hold yet, once per key,
    /// on the bounded worker pool, and records each outcome or failure
    /// (visible via [`Ctx::report`]) without aborting the warm. The only
    /// path that runs a cell.
    pub fn warm(&self, cells: Vec<Cell>) {
        let todo: Vec<(String, Cell)> = {
            let table = self.table();
            let mut seen = HashSet::new();
            let keyed = cells.into_iter().map(|c| (c.key(&self.sys), c));
            keyed
                .filter(|(k, _)| !table.contains_key(k) && seen.insert(k.clone()))
                .collect()
        };
        let stats = run_pool(todo, self.sweep.threads, |worker, (key, cell)| {
            let record = self.run_cell(worker, &key, cell);
            self.table().insert(key, record);
        });
        self.workers.lock().unwrap().extend(stats);
    }

    /// Pool worker `worker`'s record of `cell`: loaded from the disk cache,
    /// or simulated in isolation under the per-cell timeout (a success is
    /// persisted).
    fn run_cell(&self, worker: usize, key: &str, cell: Cell) -> CellRecord {
        let t0 = Instant::now();
        if let Some(cc) = &self.cell_cache {
            if let Some(o) = cc.load(&self.disk_key(key)) {
                return CellRecord {
                    key: key.to_string(),
                    timing: prodigy_sim::RunTiming::from_elapsed(t0.elapsed()),
                    worker,
                    disk_hit: true,
                    result: Ok(Arc::new(o)),
                };
            }
        }
        let (sys, base_seed) = (self.sys, self.sweep.base_seed);
        let out = run_isolated(key, self.sweep.cell_timeout, move |cancel| {
            let cfg = RunConfig {
                cancel: Some(cancel),
                ..cell.run_config(sys, base_seed)
            };
            run_workload(cell.spec.instantiate(base_seed).as_mut(), &cfg)
        });
        let (timing, result) = match out {
            Ok(o) => {
                if let Some(cc) = &self.cell_cache {
                    if let Err(e) = cc.store(&self.disk_key(key), &o) {
                        eprintln!("warning: cell cache store failed for {key}: {e}");
                    }
                }
                (o.timing, Ok(Arc::new(o)))
            }
            Err(e) => {
                // Only truly stuck workers count: a timed-out cell whose
                // thread honoured the cancel flag inside the grace window
                // was joined, not leaked.
                if e.leaked {
                    self.threads_leaked.fetch_add(1, Ordering::Relaxed);
                }
                let timing = prodigy_sim::RunTiming::from_elapsed(t0.elapsed());
                (timing, Err(e.reason))
            }
        };
        CellRecord {
            key: key.to_string(),
            timing,
            worker,
            disk_hit: false,
            result,
        }
    }

    /// Aggregated progress/timing report over everything this context ran.
    pub fn report(&self) -> SweepReport {
        SweepReport {
            threads: self.sweep.threads,
            base_seed: self.sweep.base_seed,
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            threads_leaked: self.threads_leaked.load(Ordering::Relaxed),
            render_errors: self.render_errors().clone(),
            wall: self.started.elapsed(),
            workers: self.workers.lock().unwrap().clone(),
            cells: self.table().values().cloned().collect(),
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

/// One workload row of an experiment's grid: the workload and the warmed
/// outcome of each of the experiment's variants, in registry order.
struct Row {
    spec: WorkloadSpec,
    variants: &'static [Variant],
    /// `None` where the variant does not apply to the workload.
    outs: Vec<Option<Arc<RunOutcome>>>,
}

impl Row {
    /// The outcome of variant `i`, or `None` where it does not apply.
    fn get(&self, i: usize) -> Option<&RunOutcome> {
        self.outs[i].as_deref()
    }

    /// Every applicable variant with its outcome, in registry order.
    fn iter(&self) -> impl Iterator<Item = (Variant, &RunOutcome)> {
        self.variants
            .iter()
            .zip(&self.outs)
            .filter_map(|(&v, out)| Some((v, out.as_deref()?)))
    }
}

impl std::ops::Index<usize> for Row {
    type Output = RunOutcome;

    fn index(&self, i: usize) -> &RunOutcome {
        self.get(i).expect("variant applies to this row")
    }
}

/// One table or figure of the evaluation: its grid of memoised cells
/// (every row workload under every variant that applies to it) and the
/// renderer that turns the warmed grid into the printed text.
pub struct Experiment {
    /// The name `prodigy-eval`'s experiment filters match.
    pub name: &'static str,
    /// The grid's row workloads at a data-set scale.
    rows: fn(u32) -> Vec<WorkloadSpec>,
    /// The grid's hardware variants, in column order.
    variants: &'static [Variant],
    /// Renders the warmed rows; reads the context only for its machine and
    /// scale.
    render: fn(&Ctx, &[Row]) -> String,
}

impl Experiment {
    const fn new(
        name: &'static str,
        rows: fn(u32) -> Vec<WorkloadSpec>,
        variants: &'static [Variant],
        render: fn(&Ctx, &[Row]) -> String,
    ) -> Self {
        Experiment {
            name,
            rows,
            variants,
            render,
        }
    }

    /// Each row workload at data-set `scale` with its cell per variant
    /// (`None` where the variant does not apply).
    fn grid(&self, scale: u32) -> impl Iterator<Item = (WorkloadSpec, Vec<Option<Cell>>)> + '_ {
        (self.rows)(scale).into_iter().map(|spec| {
            let cells = self.variants.iter().map(|&variant| {
                let cell = Cell {
                    spec: spec.clone(),
                    variant,
                };
                cell.applies().then_some(cell)
            });
            let cells = cells.collect();
            (spec, cells)
        })
    }

    /// The experiment's memoised cells at data-set `scale`, row-major.
    pub fn cells(&self, scale: u32) -> Vec<Cell> {
        self.grid(scale)
            .flat_map(|(_, cells)| cells)
            .flatten()
            .collect()
    }

    /// Warms the grid on the worker pool and renders it. A failed cell
    /// (recorded under its own key) or a renderer panic renders as a
    /// FAILED line; the panic is recorded under the experiment's name, so
    /// it fails the run like a failed cell does.
    fn run(&self, ctx: &Ctx) -> String {
        ctx.warm(self.cells(ctx.scale));
        let row = |(spec, cells): (WorkloadSpec, Vec<Option<Cell>>)| -> Result<Row, CellError> {
            let outs = cells
                .iter()
                .map(|c| c.as_ref().map(|c| ctx.get(c)).transpose());
            Ok(Row {
                spec,
                variants: self.variants,
                outs: outs.collect::<Result<_, _>>()?,
            })
        };
        let rows: Vec<Row> = match self.grid(ctx.scale).map(row).collect() {
            Ok(rows) => rows,
            Err(e) => return format!("{} — FAILED: {e}\n", self.name),
        };
        catch_unwind(AssertUnwindSafe(|| (self.render)(ctx, &rows))).unwrap_or_else(|p| {
            let reason = panic_message(p.as_ref());
            let text = format!("{} — FAILED: {reason}\n", self.name);
            ctx.render_errors().push(CellError {
                key: self.name.into(),
                reason,
            });
            text
        })
    }
}

// ---------------------------------------------------------------- Table I

/// Table I: the modelled system configuration.
fn table1(ctx: &Ctx, _rows: &[Row]) -> String {
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
fn table2(ctx: &Ctx, _rows: &[Row]) -> String {
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
fn fig02(_ctx: &Ctx, rows: &[Row]) -> String {
    let row = &rows[0];
    let base = &row[0];
    let base_dram = base.summary.stats.cpi.dram.max(1e-9);
    let mut t = Table::new(&["prefetcher", "DRAM-stall (norm)", "speedup"]);
    for (v, out) in row.iter() {
        t.row(vec![
            v.kind.name().into(),
            format!("{:.3}", out.summary.stats.cpi.dram / base_dram),
            x(speedup(base, out)),
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
fn fig04(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "workload", "no-stall", "dram", "cache", "branch", "dep", "other", "stack",
    ]);
    let mut dram_fracs = Vec::new();
    for r in rows {
        let out = &r[0];
        let n = out.summary.stats.cpi.normalized();
        dram_fracs.push(n.dram);
        t.row(vec![
            r.spec.name.clone(),
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
fn fig12(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "4", "8", "16", "32"]);
    for r in rows {
        let cycles = |i: usize| r[i].summary.stats.cycles as f64;
        let base = cycles(0);
        t.row(vec![
            r.spec.alg.to_string(),
            "1.00".into(),
            format!("{:.2}", base / cycles(1)),
            format!("{:.2}", base / cycles(2)),
            format!("{:.2}", base / cycles(3)),
        ]);
    }
    format!(
        "Fig. 12 — PFHR size sweep, speedup normalised to 4 registers (paper picks 16)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 13

/// Fig. 13: fraction of baseline LLC misses inside DIG-annotated structures.
fn fig13(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "prefetchable", "non-prefetchable"]);
    let mut fracs = Vec::new();
    for r in rows {
        let s = &r[0].summary.stats;
        let total = (s.llc_misses_prefetchable + s.llc_misses_other).max(1);
        let f = s.llc_misses_prefetchable as f64 / total as f64;
        fracs.push(f);
        t.row(vec![r.spec.alg.to_string(), pct(f), pct(1.0 - f)]);
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
fn fig14(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "workload",
        "base dram%",
        "prodigy CPI (norm)",
        "dram cut",
        "speedup",
    ]);
    let mut speedups = Vec::new();
    let mut dram_cuts = Vec::new();
    for r in rows {
        let (base, pro) = (&r[0], &r[1]);
        let sp = speedup(base, pro);
        speedups.push(sp);
        let bn = base.summary.stats.cpi.normalized();
        let cut =
            1.0 - (pro.summary.stats.cpi.dram / base.summary.stats.cpi.dram.max(1e-9)).min(1.0);
        dram_cuts.push(cut);
        t.row(vec![
            r.spec.name.clone(),
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
fn fig15(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "L1 hit", "L2 hit", "L3 hit", "evicted unused"]);
    let mut accs = Vec::new();
    for r in rows {
        let u = r[0].summary.stats.prefetch_use;
        let total = u.resolved().max(1) as f64;
        accs.extend(u.accuracy());
        t.row(vec![
            r.spec.alg.to_string(),
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
fn fig16(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "converted"]);
    let mut fr = Vec::new();
    for r in rows {
        let b = r[0].summary.stats.llc_misses_prefetchable.max(1) as f64;
        let p = r[1].summary.stats.llc_misses_prefetchable as f64;
        let conv = (1.0 - p / b).max(0.0);
        fr.push(conv);
        t.row(vec![r.spec.alg.to_string(), pct(conv)]);
    }
    format!(
        "Fig. 16 — prefetchable misses converted to hits (paper avg 85.1%; measured avg {})\n{}",
        pct(mean(&fr)),
        t.render()
    )
}

// ---------------------------------------------------------------- Fig. 17

/// Fig. 17: Prodigy vs Ainsworth & Jones, DROPLET and IMP.
fn fig17(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "A&J", "DROPLET", "IMP", "prodigy"]);
    let mut collect: HashMap<&str, Vec<f64>> = HashMap::new();
    for r in rows {
        let sp = |i: usize| r.get(i).map(|out| speedup(&r[0], out));
        let (aj, dr, im, pr) = (sp(1), sp(2), sp(3), sp(4));
        for (name, v) in [("aj", aj), ("droplet", dr), ("imp", im), ("prodigy", pr)] {
            if let Some(v) = v {
                collect.entry(name).or_default().push(v);
            }
        }
        let f = |v: Option<f64>| v.map(x).unwrap_or_else(|| "-".into());
        t.row(vec![r.spec.alg.to_string(), f(aj), f(dr), f(im), f(pr)]);
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
fn table3(_ctx: &Ctx, rows: &[Row]) -> String {
    // Fig. 14's grid: best data set per algorithm.
    let best = |alg: &str| -> f64 {
        rows.iter()
            .filter(|r| r.spec.alg == alg)
            .map(|r| speedup(&r[0], &r[1]))
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
fn fig18(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["algorithm", "speedup (reordered graphs)"]);
    let mut all: Vec<Option<f64>> = Vec::new();
    for alg_rows in rows.chunks(FIG18_DATASETS.len()) {
        let sps: Vec<f64> = alg_rows.iter().map(|r| speedup(&r[0], &r[1])).collect();
        let gm = geomean(&sps);
        all.push(gm);
        t.row(vec![alg_rows[0].spec.alg.into(), x_opt(gm)]);
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
fn fig19(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "core", "cache", "dram", "other", "total (norm)"]);
    let mut savings = Vec::new();
    for r in rows {
        let bt = r[0].summary.energy.total().max(1e-18);
        let pe = &r[1].summary.energy;
        savings.push(bt / pe.total().max(1e-18));
        t.row(vec![
            r.spec.name.clone(),
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
fn stat_ranged_share(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "ranged share"]);
    let mut shares = Vec::new();
    for r in rows {
        let share = r[0].prodigy.map(|p| p.ranged_share()).unwrap_or(0.0);
        shares.push(share);
        t.row(vec![r.spec.name.clone(), pct(share)]);
    }
    format!(
        "§VI-C — ranged-indirection share of prefetches (paper mean 55.3%; measured mean {})\n{}",
        pct(mean(&shares)),
        t.render()
    )
}

/// §VI-C: software prefetching vs Prodigy on PageRank.
fn stat_software_prefetch(_ctx: &Ctx, rows: &[Row]) -> String {
    let (base, pro) = (&rows[0][0], &rows[0][1]);
    // Same graph, instrumented kernel, no hardware prefetcher.
    let sw = &rows[1][0];
    let mut t = Table::new(&["variant", "speedup over baseline"]);
    t.row(vec!["software prefetching".into(), x(speedup(base, sw))]);
    t.row(vec!["prodigy".into(), x(speedup(base, pro))]);
    format!(
        "§VI-C — software prefetching on pr (paper: +7.6% for software vs ~2x for Prodigy)\n{}",
        t.render()
    )
}

// ------------------------------------------------------------ §VI-E storage

/// §VI-E: hardware storage comparison.
fn table_storage(_ctx: &Ctx, _rows: &[Row]) -> String {
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
fn scalability(ctx: &Ctx, rows: &[Row]) -> String {
    let row = &rows[0];
    let one = row[0].summary.stats.cycles as f64;
    let mut t = Table::new(&["config", "speedup vs 1 core", "DRAM BW util"]);
    let peak = prodigy_sim::MemorySystem::new(ctx.sys).peak_dram_bytes_per_cycle();
    for (v, out) in row.iter() {
        let s = &out.summary.stats;
        let bw = (s.dram_reads + s.dram_writes) as f64 * 64.0 / s.cycles.max(1) as f64;
        let who = match v.kind {
            PrefetcherKind::None => "baseline",
            kind => kind.name(),
        };
        t.row(vec![
            format!("{who} {} cores", v.cores),
            x(one / s.cycles.max(1) as f64),
            pct(bw / peak),
        ]);
    }
    format!(
        "§VI-F — scalability (paper: 8-core Prodigy ≈ 40-core baseline at 5x less area)\n{}",
        t.render()
    )
}

// ------------------------------------------------------------- extensions

/// Extension (paper §V-B footnote 3): direction-optimizing BFS with
/// runtime DIG reconfiguration at each direction switch.
fn ext_dobfs(ctx: &Ctx, rows: &[Row]) -> String {
    use prodigy_workloads::kernels::{DoBfs, FunctionalRunner};
    use prodigy_workloads::{Kernel, PhaseRunner};
    let row = &rows[0];
    // The kernel switches direction by comparing frontier edges with m/α,
    // so its switch counts are the algorithm's, not the machine's: one
    // functional run counts them for every row.
    let spec = &row.spec;
    let g = crate::workload_set::dataset_graph(
        spec.dataset.expect("dobfs runs on a data set"),
        spec.scale,
        spec.reorder,
    );
    let mut k = DoBfs::new((*g).clone(), crate::workload_set::best_source(&g));
    let mut runner = FunctionalRunner::new(ctx.sys.cores as usize);
    k.prepare(runner.space_mut());
    k.run(&mut runner);
    let mut t = Table::new(&[
        "prefetcher",
        "cycles",
        "speedup",
        "dir switches",
        "bottom-up levels",
    ]);
    for (v, out) in row.iter() {
        t.row(vec![
            v.kind.name().into(),
            out.summary.stats.cycles.to_string(),
            x(speedup(&row[0], out)),
            k.switches.to_string(),
            k.bottom_up_levels.to_string(),
        ]);
    }
    format!(
        "Extension — direction-optimizing BFS with runtime DIG reconfiguration (§V-B fn.3, §IV-F)\n{}",
        t.render()
    )
}

/// §VI-G limitations case study: triangle counting's branch-dependent
/// loads defeat Prodigy's control-flow-blind prefetching, contrasted with
/// bfs on the same input.
fn limits_tc(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&["workload", "prodigy speedup", "prefetch accuracy"]);
    for (r, name) in rows.iter().zip(["bfs (control)", "tc (branch-dependent)"]) {
        let (base, pro) = (&r[0], &r[1]);
        let acc = pro.summary.stats.prefetch_use.accuracy();
        t.row(vec![name.into(), x(speedup(base, pro)), pct_opt(acc)]);
    }
    format!(
        "§VI-G — limitations: tc's ID-pruned traversal gives Prodigy less to win (paper predicts muted gains)\n{}",
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
fn farmem(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "workload",
        "prefetcher",
        "ipc @1x",
        "2x",
        "4x",
        "8x",
        "far load-to-use p99 @8x",
    ]);
    for r in rows {
        for (k, kind) in FAR_KINDS.iter().enumerate() {
            let mut base_ipc = 0.0f64;
            let mut row = vec![r.spec.name.clone(), kind.name().into()];
            let mut far_p99 = "n/a".to_string();
            for (i, &fs) in FAR_SCALES.iter().enumerate() {
                let out = &r[k * FAR_SCALES.len() + i];
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
fn pollution(_ctx: &Ctx, rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "workload",
        "prefetcher",
        "accuracy",
        "coverage",
        "pollution",
        "worst source",
    ]);
    for r in rows {
        for (v, out) in r.iter() {
            let s = &out.summary.stats;
            let pollution = match SloStat::named("pollution_rate").and_then(|p| p.read(out)) {
                Some(SloValue::Share(rate)) => pct(rate),
                _ => "n/a".to_string(),
            };
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
                r.spec.name.clone(),
                v.kind.name().into(),
                pct_opt(s.prefetch_use.accuracy()),
                pct_opt(s.prefetch_coverage()),
                pollution,
                worst,
            ]);
        }
    }
    format!(
        "Cache pollution — accuracy/coverage/pollution per GAP kernel and prefetcher (paper Fig. 13; pollution = prefetch-evicted demand lines re-missed at the LLC)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------- registry

const NONE: Variant = Variant::new(PrefetcherKind::None);
const PRODIGY: Variant = Variant::new(PrefetcherKind::Prodigy);

/// Data sets of Fig. 18's reordered rows, per GAP kernel.
const FIG18_DATASETS: [&str; 2] = ["lj", "po"];

/// §VI-F's variants: the baseline at each core count, then 8-core Prodigy.
const SCALABILITY: [Variant; 8] = [
    NONE.with_cores(1),
    NONE.with_cores(2),
    NONE.with_cores(4),
    NONE.with_cores(8),
    NONE.with_cores(16),
    NONE.with_cores(32),
    NONE.with_cores(40),
    PRODIGY.with_cores(8),
];

/// The far-memory sweep's variants: each of [`FAR_KINDS`] at each of
/// [`FAR_SCALES`], kind-major.
const FARMEM: [Variant; FAR_KINDS.len() * FAR_SCALES.len()] = {
    let mut v = [NONE; FAR_KINDS.len() * FAR_SCALES.len()];
    let mut i = 0;
    while i < v.len() {
        v[i] = Variant::new(FAR_KINDS[i / FAR_SCALES.len()])
            .with_far(FAR_SCALES[i % FAR_SCALES.len()]);
        i += 1;
    }
    v
};

/// The pollution sweep's variants: every prefetcher.
const EVERY_PREFETCHER: [Variant; PrefetcherKind::ALL.len()] = {
    let mut v = [NONE; PrefetcherKind::ALL.len()];
    let mut i = 0;
    while i < v.len() {
        v[i] = Variant::new(PrefetcherKind::ALL[i]);
        i += 1;
    }
    v
};

fn no_rows(_scale: u32) -> Vec<WorkloadSpec> {
    Vec::new()
}

fn pr_lj(scale: u32) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::graph("pr", "lj", scale)]
}

/// §VI-C's rows: pr on `lj`, then the same kernel with software prefetches.
fn pr_lj_and_swpf(scale: u32) -> Vec<WorkloadSpec> {
    let pr = WorkloadSpec::graph("pr", "lj", scale);
    vec![pr.clone(), pr.with_software_prefetch()]
}

fn dobfs_lj(scale: u32) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::graph("dobfs", "lj", scale)]
}

/// §VI-G's rows: bfs (the control) and tc on `po`. Triangle counting
/// touches Θ(Σ deg²) edge pairs, so both run on an 8× smaller instance of
/// the graph than the streaming kernels use, named apart from fig04's
/// full-size `bfs-po` (a cell key does not carry the scale).
fn po_8x(scale: u32) -> Vec<WorkloadSpec> {
    let scale = scale.saturating_mul(8).max(8);
    let spec = |alg| WorkloadSpec {
        name: format!("{alg}-po-8x"),
        ..WorkloadSpec::graph(alg, "po", scale)
    };
    vec![spec("bfs"), spec("tc")]
}

/// The five GAP kernels on `lj`: the graph rows of [`per_algorithm`].
fn gap_lj(scale: u32) -> Vec<WorkloadSpec> {
    GRAPH_ALGS
        .iter()
        .map(|&alg| WorkloadSpec::graph(alg, "lj", scale))
        .collect()
}

/// Fig. 18's rows: each GAP kernel on each HubSort-reordered data set.
fn gap_reordered(scale: u32) -> Vec<WorkloadSpec> {
    GRAPH_ALGS
        .iter()
        .flat_map(|&alg| FIG18_DATASETS.map(|d| WorkloadSpec::graph(alg, d, scale).reordered()))
        .collect()
}

/// Every experiment, in run order: its name, row workloads, hardware
/// variants and renderer. Cells are memoised by key across the whole run,
/// so grids that entries share (fig14, table3 and fig19 all read `all_29`
/// × {none, prodigy}; fig13 and fig16 read fig04's and fig14's cells;
/// scalability's 8-core cells are fig02's on the default 8-core machine)
/// simulate once, and a cell that fails fails once.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", no_rows, &[], table1),
    Experiment::new("table2", no_rows, &[], table2),
    Experiment::new(
        "fig02",
        pr_lj,
        &[
            NONE,
            Variant::new(PrefetcherKind::GhbGdc),
            Variant::new(PrefetcherKind::Droplet),
            PRODIGY,
        ],
        fig02,
    ),
    Experiment::new("fig04", all_29, &[NONE], fig04),
    Experiment::new(
        "fig12",
        per_algorithm,
        &[
            PRODIGY.with_pfhr(4),
            PRODIGY.with_pfhr(8),
            PRODIGY.with_pfhr(16),
            PRODIGY.with_pfhr(32),
        ],
        fig12,
    ),
    Experiment::new("fig13", per_algorithm, &[NONE], fig13),
    Experiment::new("fig14", all_29, &[NONE, PRODIGY], fig14),
    Experiment::new("fig15", per_algorithm, &[PRODIGY], fig15),
    Experiment::new("fig16", per_algorithm, &[NONE, PRODIGY], fig16),
    Experiment::new(
        "fig17",
        per_algorithm,
        &[
            NONE,
            Variant::new(PrefetcherKind::AinsworthJones),
            Variant::new(PrefetcherKind::Droplet),
            Variant::new(PrefetcherKind::Imp),
            PRODIGY,
        ],
        fig17,
    ),
    Experiment::new("table3", all_29, &[NONE, PRODIGY], table3),
    Experiment::new("fig18", gap_reordered, &[NONE, PRODIGY], fig18),
    Experiment::new("fig19", all_29, &[NONE, PRODIGY], fig19),
    Experiment::new("ranged", gap_lj, &[PRODIGY], stat_ranged_share),
    Experiment::new(
        "swpf",
        pr_lj_and_swpf,
        &[NONE, PRODIGY],
        stat_software_prefetch,
    ),
    Experiment::new("storage", no_rows, &[], table_storage),
    Experiment::new("scalability", pr_lj, &SCALABILITY, scalability),
    Experiment::new("limits_tc", po_8x, &[NONE, PRODIGY], limits_tc),
    Experiment::new("ext_dobfs", dobfs_lj, &[NONE, PRODIGY], ext_dobfs),
    Experiment::new("farmem", gap_lj, &FARMEM, farmem),
    Experiment::new("pollution", gap_lj, &EVERY_PREFETCHER, pollution),
];

/// The experiments `filters` select: every one whose name contains one of
/// the filters, or all of them when `filters` is empty.
fn selected(filters: &[String]) -> impl Iterator<Item = &'static Experiment> + '_ {
    EXPERIMENTS
        .iter()
        .filter(move |e| filters.is_empty() || filters.iter().any(|f| e.name.contains(f.as_str())))
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
    let mut seen = HashSet::new();
    selected(filters)
        .flat_map(|e| e.cells(ctx.scale))
        .filter(|c| {
            let k = c.key(&ctx.sys);
            shard.owns(&k) && seen.insert(k)
        })
        .collect()
}

/// Runs every experiment whose name contains one of `filters` (all when
/// empty), printing and returning the combined report.
pub fn run_all(ctx: &Ctx, filters: &[String]) -> String {
    let mut out = String::new();
    for e in selected(filters) {
        let t0 = Instant::now();
        let text = e.run(ctx);
        println!("{text}");
        println!("[{}: {:.1}s]\n", e.name, t0.elapsed().as_secs_f64());
        out.push_str(&text);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn quick_ctx() -> Ctx {
        // Very small inputs; machine scaled accordingly.
        let mut ctx = Ctx::new(64);
        ctx.sys = SystemConfig::scaled(64).with_cores(2);
        ctx
    }

    fn experiment(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn cells_are_memoised() {
        let ctx = quick_ctx();
        let c = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        // A lookup never simulates: an unwarmed cell is an error.
        assert_eq!(ctx.get(&c).unwrap_err().reason, "not warmed");
        ctx.warm(vec![c.clone()]);
        let a = ctx.get(&c).unwrap();
        let b = ctx.get(&c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let report = ctx.report();
        assert_eq!((report.memo_hits, report.cells.len()), (2, 1));
    }

    #[test]
    fn warm_populates_cache_in_parallel() {
        let ctx = quick_ctx();
        let cells: Vec<Cell> = [PrefetcherKind::None, PrefetcherKind::Prodigy]
            .into_iter()
            .map(|k| Cell::new(WorkloadSpec::plain("is", 256), k))
            .collect();
        ctx.warm(cells.clone());
        let report = ctx.report();
        assert_eq!(report.cells_simulated(), 2);
        assert!(report.errors().is_empty());
        assert!(!report.workers.is_empty(), "pool accounting recorded");
        for c in &cells {
            assert!(ctx.get(c).is_ok());
        }
        let report = ctx.report();
        assert_eq!(report.cells_simulated(), 2, "warmed cells are memo hits");
        assert_eq!(report.memo_hits, 2);
    }

    #[test]
    fn warm_runs_each_key_once() {
        // Each of two cells passed twice, on more threads than keys, and
        // warmed twice: one attempt and one record per key, the failed
        // key included.
        let ctx = quick_ctx().with_sweep(SweepConfig {
            threads: 4,
            base_seed: 0,
            cell_timeout: None,
        });
        let cells = [
            Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None),
            Cell::new(WorkloadSpec::plain("no-such-alg", 64), PrefetcherKind::None),
        ];
        for _ in 0..2 {
            ctx.warm([cells.clone(), cells.clone()].concat());
        }
        let report = ctx.report();
        let jobs: u64 = report.workers.iter().map(|w| w.jobs).sum();
        assert_eq!((jobs, report.cells.len()), (2, 2));
        assert_eq!((report.cells_simulated(), report.errors().len()), (1, 1));
    }

    #[test]
    fn failing_cell_is_recorded_not_fatal() {
        let ctx = quick_ctx();
        // An unknown algorithm panics inside instantiation; the isolation
        // layer must convert that into a recorded CellError.
        let bad = Cell::new(WorkloadSpec::plain("no-such-alg", 64), PrefetcherKind::None);
        let good = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        ctx.warm(vec![bad.clone(), good.clone()]);
        let err = ctx.get(&bad).unwrap_err();
        assert!(err.reason.contains("unknown algorithm"), "{}", err.reason);
        // Every lookup reads the one record.
        assert_eq!(ctx.get(&bad).unwrap_err(), err);
        // And healthy cells still run fine beside it.
        assert!(ctx.get(&good).is_ok());
        let report = ctx.report();
        assert_eq!(report.errors(), [err]);
        assert_eq!(report.cells_simulated(), 1, "a failure is not a simulation");
    }

    #[test]
    fn failed_experiments_fail_the_run_once_each() {
        let ctx = quick_ctx();
        // A renderer panic (such as `speedup`'s checksum assertion) is
        // recorded under the experiment's name.
        let boom = Experiment::new("boom", no_rows, &[], |_, _| panic!("output changed"));
        assert_eq!(boom.run(&ctx), "boom — FAILED: panicked: output changed\n");
        // A failed cell fails its experiment; the cell's own error is the
        // only record.
        let bad = Experiment::new(
            "bad",
            |scale| vec![WorkloadSpec::plain("no-such-alg", scale)],
            &[NONE],
            fig04,
        );
        let key = "no-such-alg|false|none|16|2";
        let text = bad.run(&ctx);
        assert!(
            text.starts_with(&format!("bad — FAILED: cell {key} failed: panicked:")),
            "{text}"
        );
        let errors: Vec<String> = ctx.report().errors().into_iter().map(|e| e.key).collect();
        assert_eq!(errors, [key, "boom"], "failed cells, then failed renderers");
    }

    #[test]
    fn registry_declares_every_grid() {
        let want = [
            ("table1", 0),
            ("table2", 0),
            ("fig02", 4),
            ("fig04", 29),
            ("fig12", 36),
            ("fig13", 9),
            ("fig14", 58),
            ("fig15", 9),
            ("fig16", 18),
            ("fig17", 37),
            ("table3", 58),
            ("fig18", 20),
            ("fig19", 58),
            ("ranged", 5),
            ("swpf", 3),
            ("storage", 0),
            ("scalability", 8),
            ("limits_tc", 4),
            ("ext_dobfs", 2),
            ("farmem", 80),
            ("pollution", 40),
        ];
        let got: Vec<(&str, usize)> = EXPERIMENTS
            .iter()
            .map(|e| (e.name, e.cells(64).len()))
            .collect();
        assert_eq!(got, want);
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "names are unique");

        // One key per simulation: fig13 and fig16 read fig04's and fig14's
        // cells, and scalability's 8-core cells are fig02's.
        let ctx = Ctx::new(64);
        let keys: BTreeSet<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.cells(64))
            .map(|c| c.key(&ctx.sys))
            .collect();
        assert_eq!(keys.len(), 232);
        // Shards 1..3 of 3 partition exactly those keys.
        let mut sharded: Vec<String> = (1..=3)
            .flat_map(|k| shard_cells(&ctx, &[], ShardSpec { k, n: 3 }))
            .map(|c| c.key(&ctx.sys))
            .collect();
        sharded.sort();
        assert_eq!(sharded, keys.into_iter().collect::<Vec<_>>());

        // farmem crosses every far prefetcher with every far scale;
        // pollution runs every prefetcher on a single-tier machine.
        let knobs = |name| -> HashSet<(PrefetcherKind, u64)> {
            experiment(name)
                .cells(64)
                .iter()
                .map(|c| (c.variant.kind, c.variant.far))
                .collect()
        };
        let far = FAR_KINDS.iter().flat_map(|&k| FAR_SCALES.map(|s| (k, s)));
        assert_eq!(knobs("farmem"), far.collect());
        let every = PrefetcherKind::ALL.iter().map(|&k| (k, 0));
        assert_eq!(knobs("pollution"), every.collect());
    }

    #[test]
    fn keys_carry_the_core_count() {
        let sys = SystemConfig::bench();
        let key = |name| -> Vec<String> {
            let cells = experiment(name).cells(64);
            cells.iter().map(|c| c.key(&sys)).collect()
        };
        assert_eq!(
            key("fig02"),
            [
                "pr-lj|false|none|16|8",
                "pr-lj|false|ghb-gdc|16|8",
                "pr-lj|false|droplet|16|8",
                "pr-lj|false|prodigy|16|8",
            ]
        );
        // A variant that names the machine's core count is the default
        // variant's simulation, under its key; another count is another.
        let scalability = key("scalability");
        assert_eq!(scalability[3], "pr-lj|false|none|16|8");
        assert_eq!(scalability[7], "pr-lj|false|prodigy|16|8");
        assert_eq!(scalability[4], "pr-lj|false|none|16|16");
        // The cells of the runs that once bypassed the registry: two of
        // swpf's are fig02's, and limits_tc's 8x rows are named apart from
        // fig04's full-size bfs-po.
        assert_eq!(
            key("swpf"),
            [
                "pr-lj|false|none|16|8",
                "pr-lj|false|prodigy|16|8",
                "pr-lj-swpf|false|none|16|8",
            ]
        );
        assert_eq!(
            key("limits_tc"),
            [
                "bfs-po-8x|false|none|16|8",
                "bfs-po-8x|false|prodigy|16|8",
                "tc-po-8x|false|none|16|8",
                "tc-po-8x|false|prodigy|16|8",
            ]
        );
        assert_eq!(
            key("ext_dobfs"),
            ["dobfs-lj|false|none|16|8", "dobfs-lj|false|prodigy|16|8",]
        );
    }

    #[test]
    fn every_simulation_is_a_cell() {
        let dir = std::env::temp_dir().join(format!("prodigy-every-cell-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let render = |ctx: &Ctx| -> String {
            ["swpf", "limits_tc", "ext_dobfs"]
                .into_iter()
                .map(|name| experiment(name).run(ctx))
                .collect()
        };
        let cold = quick_ctx().with_cell_cache(&dir).unwrap();
        let text = render(&cold);
        let report = cold.report();
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        assert_eq!((report.cells.len(), report.cells_simulated()), (9, 9));
        // A second process on the same disk cache simulates nothing.
        let warm = quick_ctx().with_cell_cache(&dir).unwrap();
        assert_eq!(render(&warm), text);
        let report = warm.report();
        assert_eq!((report.cells_simulated(), report.disk_hits()), (0, 9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cell_runs_once_even_when_it_times_out() {
        let ctx = quick_ctx().with_sweep(SweepConfig {
            threads: 2,
            base_seed: 0,
            cell_timeout: Some(Duration::ZERO),
        });
        // swpf shares two cells with fig02.
        for name in ["fig02", "swpf"] {
            let text = experiment(name).run(&ctx);
            assert!(text.contains("FAILED"), "{text}");
        }
        let report = ctx.report();
        let jobs: u64 = report.workers.iter().map(|w| w.jobs).sum();
        assert_eq!(
            (jobs, report.cells.len()),
            (5, 5),
            "fig02's four cells and swpf's own one, each attempted once"
        );
        assert_eq!(report.cells_simulated(), 0, "no cell finished");
        assert_eq!(report.errors().len(), 5);
    }

    #[test]
    fn fig02_reports_four_prefetchers() {
        let text = experiment("fig02").run(&quick_ctx());
        for needle in ["none", "ghb-gdc", "droplet", "prodigy", "speedup"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn far_knob_extends_key_and_splits_telemetry() {
        let ctx = quick_ctx();
        let base_cell = Cell::new(WorkloadSpec::plain("is", 256), PrefetcherKind::None);
        let base_key = base_cell.key(&ctx.sys);
        assert!(!base_key.contains("far"), "single-tier keys: {base_key}");
        let far_cell = Cell {
            variant: base_cell.variant.with_far(8),
            ..base_cell.clone()
        };
        assert_eq!(far_cell.key(&ctx.sys), format!("{base_key}|far8"));
        ctx.warm(vec![base_cell.clone(), far_cell.clone()]);
        let base = ctx.get(&base_cell).unwrap();
        let far = ctx.get(&far_cell).unwrap();
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
        let p99 = SloStat::named("far_load_to_use_p99").unwrap();
        assert!(p99.read(&far).is_some(), "SLO row populated");
        assert_eq!(p99.read(&base), None, "single-tier: n/a");
    }

    #[test]
    fn pollution_report_renders_triple_with_na_baseline() {
        let text = experiment("pollution").run(&quick_ctx());
        for needle in ["accuracy", "coverage", "pollution", "worst source", "n/a"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn storage_table_shows_prodigy_smallest_of_graph_designs() {
        let text = experiment("storage").run(&quick_ctx());
        assert!(text.contains("0.8"));
        assert!(text.contains("droplet"));
    }
}
