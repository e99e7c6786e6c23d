//! `prodigy-eval` — the evaluation driver: regenerates every table and
//! figure of the paper's evaluation (the `experiments::EXPERIMENTS`
//! registry; see DESIGN.md's per-experiment index).
//!
//! ```text
//! cargo run --release -p prodigy-bench --bin prodigy-eval -- \
//!     [--scale N] [--cores N] [--threads N] [--seed N] \
//!     [--timeout-secs N] [--out report.txt] [--json report.json] \
//!     [--cell-cache DIR] [--shard K/N] \
//!     [--trace trace.json [--trace-events cat,cat]] \
//!     [experiment substrings...]
//! prodigy-eval --merge SHARD.json... [--out merged.json]
//! ```
//!
//! With no experiment names, everything runs. The figure report is printed
//! and, with `--out`, also written to a file; the sweep progress/timing
//! summary goes to stderr and, with `--json`, to a JSON file beside the
//! figure text. The figure tables are deterministic: any `--threads` value
//! produces byte-identical output for the same `--scale`/`--seed`.
//!
//! `--trace FILE` switches to tracing mode: one run of the registry's
//! Prodigy cell of GAP BFS on the scaled LiveJournal graph is captured
//! cycle-by-cycle and written as Chrome trace-event JSON — load it in
//! Perfetto / `chrome://tracing`. The trace is deterministic: same
//! `--scale`/`--cores`/`--seed` → identical bytes. `--trace-events`
//! restricts the output to a comma-separated list of the category names of
//! [`TraceCategory::ALL`] (`--help` lists them). `--trace-workload NAME`
//! swaps the traced workload for any cell of the 29-workload evaluation
//! set (e.g. `pr-tw`, `spmv`).
//!
//! `--metrics FILE` captures the same single run with the windowed metrics
//! registry installed and writes the sampled time-series (IPC, miss rates,
//! MLP, DRAM queue depth, prefetch accuracy/coverage) plus the
//! per-DIG-node/edge prefetch attribution table as JSON. Deterministic
//! like traces; `--metrics-window N` sets the window length in cycles
//! (default 100000). `--trace` and `--metrics` compose: one run feeds both.
//!
//! `--cell-cache DIR` persists every successful cell result on disk, keyed
//! by `workload|config|seed|code-rev`; a later run with the same key loads
//! the result instead of re-simulating (the summary line distinguishes
//! simulated cells from memo and disk hits). Failures are never persisted.
//!
//! `--shard K/N` runs only the cells whose stable key hash falls to shard
//! K of N (independent of enumeration order), skipping figure rendering;
//! point every shard at a shared `--cell-cache` and/or collect their
//! `--json` reports, then stitch with `prodigy-eval --merge a.json b.json
//! --out merged.json`. Merging the shard reports is byte-identical to
//! merging the report of one unsharded run.
//!
//! Each flag belongs to the modes it acts in (experiment sweeps, `--trace`
//! runs, `--metrics` runs, `--merge`); a flag given outside them is a usage
//! error (exit 2), never silently ignored.
#![forbid(unsafe_code)]

use prodigy_bench::compare::merge_reports;
use prodigy_bench::experiments::{run_all, shard_cells, Cell, Ctx, ShardSpec, EXPERIMENTS};
use prodigy_bench::sweep::SweepConfig;
use prodigy_bench::workload_set::{all_29, WorkloadSpec};
use prodigy_sim::json::{parse_json, Json, ToJson};
use prodigy_sim::mem::coherence::Directory;
use prodigy_sim::telemetry::parse_category_filter;
use prodigy_sim::{chrome_trace_json, HistQuantiles, Log2Hist, MetricsConfig, TraceCategory};
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig};
use std::path::Path;
use std::time::Duration;

/// Reports a bad-input error and exits with status 2 (the same convention
/// as `prodigy-diff`).
fn fail(msg: &str) -> ! {
    eprintln!("prodigy-eval: {msg}");
    std::process::exit(2);
}

/// The modes a run can be in, as bits: each argument names the set of
/// modes it acts in. `--trace` and `--metrics` compose, so a single run
/// can be in both of theirs.
const SWEEP: u8 = 1;
const TRACE: u8 = 2;
const METRICS: u8 = 4;
const MERGE: u8 = 8;

/// The set `modes` in words, for usage errors.
fn mode_names(modes: u8) -> String {
    let names: Vec<&str> = [
        (SWEEP, "experiment sweeps"),
        (TRACE, "--trace runs"),
        (METRICS, "--metrics runs"),
        (MERGE, "--merge"),
    ]
    .into_iter()
    .filter(|&(m, _)| modes & m != 0)
    .map(|(_, name)| name)
    .collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

fn main() {
    let mut scale = 8u32;
    let mut cores: Option<u32> = None;
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut trace_events: Option<String> = None;
    let mut trace_workload: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut metrics_window: u64 = MetricsConfig::default().window_cycles;
    let mut cell_cache: Option<String> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut merge = false;
    let mut sweep = SweepConfig::default();
    let mut filters: Vec<String> = Vec::new();
    // Every argument given, with the modes it acts in.
    let mut given: Vec<(String, u8)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let modes = match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--scale needs a number >= 1"));
                SWEEP | TRACE | METRICS
            }
            "--cores" => {
                let max = Directory::MAX_CORES;
                cores = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| (1..=max as u32).contains(&n))
                        .unwrap_or_else(|| usage(&format!("--cores needs a number in 1..={max}"))),
                );
                SWEEP | TRACE | METRICS
            }
            "--threads" => {
                sweep.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a number >= 1"));
                SWEEP
            }
            "--seed" => {
                sweep.base_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
                SWEEP | TRACE | METRICS
            }
            "--timeout-secs" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--timeout-secs needs a number"));
                sweep.cell_timeout = Some(Duration::from_secs(secs));
                SWEEP
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage("--out needs a path")));
                SWEEP | MERGE
            }
            "--json" => {
                json = Some(args.next().unwrap_or_else(|| usage("--json needs a path")));
                SWEEP
            }
            "--trace" => {
                trace = Some(args.next().unwrap_or_else(|| usage("--trace needs a path")));
                TRACE
            }
            "--trace-events" => {
                trace_events = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-events needs a category list")),
                );
                TRACE
            }
            "--trace-workload" => {
                trace_workload = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-workload needs a workload name")),
                );
                TRACE | METRICS
            }
            "--metrics" => {
                metrics = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--metrics needs a path")),
                );
                METRICS
            }
            "--metrics-window" => {
                metrics_window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--metrics-window needs a cycle count >= 1"));
                METRICS
            }
            "--cell-cache" => {
                cell_cache = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--cell-cache needs a directory")),
                );
                SWEEP
            }
            "--shard" => {
                let spec = args.next().unwrap_or_else(|| usage("--shard needs K/N"));
                shard = Some(ShardSpec::parse(&spec).unwrap_or_else(|e| usage(&e)));
                SWEEP
            }
            "--merge" => {
                merge = true;
                MERGE
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            // An experiment name, or under --merge a report path.
            other => {
                filters.push(other.to_string());
                SWEEP | MERGE
            }
        };
        given.push((a, modes));
    }

    // One check of every argument against the mode the run is in, before
    // anything (such as the cell-cache directory) is touched.
    let mode = match (merge, trace.is_some(), metrics.is_some()) {
        (true, ..) => MERGE,
        (false, false, false) => SWEEP,
        (false, t, m) => (if t { TRACE } else { 0 }) | (if m { METRICS } else { 0 }),
    };
    for (arg, modes) in &given {
        if modes & mode == 0 {
            usage(&format!("{arg} applies only to {}", mode_names(*modes)));
        }
    }

    if merge {
        // Merge mode: the positional args are shard report paths.
        if filters.is_empty() {
            usage("--merge needs at least one shard report path");
        }
        let mut parsed = Vec::new();
        for p in &filters {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")));
            parsed.push(
                parse_json(&text).unwrap_or_else(|e| fail(&format!("cannot parse {p}: {e}"))),
            );
        }
        let merged = merge_reports(&parsed)
            .unwrap_or_else(|e| fail(&e))
            .to_string();
        match &out {
            Some(path) => {
                std::fs::write(path, &merged)
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                eprintln!(
                    "prodigy-eval: merged {} report(s) into {path}",
                    parsed.len()
                );
            }
            None => println!("{merged}"),
        }
        return;
    }
    // Every positional arg must select at least one experiment; a typo'd
    // name otherwise silently runs nothing.
    for f in &filters {
        if !EXPERIMENTS.iter().any(|e| e.name.contains(f.as_str())) {
            usage(&format!(
                "unknown experiment {f:?}; valid names: {}",
                experiment_names()
            ));
        }
    }

    let mut ctx = Ctx::new(scale).with_sweep(sweep);
    if let Some(c) = cores {
        ctx.sys = ctx.sys.with_cores(c);
    }
    if let Some(dir) = &cell_cache {
        ctx = ctx
            .with_cell_cache(Path::new(dir))
            .unwrap_or_else(|e| fail(&format!("--cell-cache: {e}")));
    }
    if trace.is_some() || metrics.is_some() {
        let filter = trace_events.as_deref().map(|s| {
            parse_category_filter(s).unwrap_or_else(|e| {
                usage(&format!(
                    "--trace-events: unknown category {e:?}; valid names: {}",
                    category_names()
                ))
            })
        });
        // Default workload: GAP BFS on the scaled LiveJournal graph.
        let spec = match trace_workload.as_deref() {
            None => WorkloadSpec::graph("bfs", "lj", scale),
            Some(name) => all_29(scale)
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| {
                    let names: Vec<String> = all_29(scale).into_iter().map(|s| s.name).collect();
                    usage(&format!(
                        "--trace-workload: unknown workload {name:?}; valid names: {}",
                        names.join(" ")
                    ))
                }),
        };
        run_single(
            &ctx,
            &spec,
            trace.as_deref(),
            filter.as_deref(),
            metrics.as_deref(),
            metrics_window,
        );
        return;
    }
    println!(
        "prodigy-eval: scale 1/{scale}, {} cores, caches scaled 1/{}, {} sweep threads, seed {}\n",
        ctx.sys.cores, ctx.sys.scale, ctx.sweep.threads, ctx.sweep.base_seed
    );
    let report = if let Some(shard) = shard {
        // Shard mode: warm this shard's deterministic slice of the cell
        // grid and emit the sweep report; figures need every cell, so
        // they are rendered from a merged/warm-cache run instead.
        let cells = shard_cells(&ctx, &filters, shard);
        let text = format!(
            "shard {}/{}: {} cell(s) owned by this shard; figures skipped in shard mode\n",
            shard.k,
            shard.n,
            cells.len()
        );
        print!("{text}");
        ctx.warm(cells);
        text
    } else {
        run_all(&ctx, &filters)
    };
    let sweep_report = ctx.report();
    eprint!("{}", sweep_report.render());
    if let Some(path) = out {
        std::fs::write(&path, &report).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("report written to {path}");
    }
    if let Some(path) = json {
        std::fs::write(&path, sweep_report.to_json().to_string()).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("sweep timing written to {path}");
    }
    if !sweep_report.errors().is_empty() {
        std::process::exit(3);
    }
}

/// Single-run mode: one run of `spec`'s Prodigy cell, optionally traced as
/// Chrome trace-event JSON and/or metered as a windowed metrics time-series
/// with per-DIG-node prefetch attribution. Finishes with a timeliness
/// summary on stdout.
fn run_single(
    ctx: &Ctx,
    spec: &WorkloadSpec,
    trace_path: Option<&str>,
    filter: Option<&[TraceCategory]>,
    metrics_path: Option<&str>,
    metrics_window: u64,
) {
    println!(
        "prodigy-eval: {} under prodigy, scale 1/{}, {} cores, seed {}",
        spec.name, ctx.scale, ctx.sys.cores, ctx.sweep.base_seed
    );
    let cell = Cell::new(spec.clone(), PrefetcherKind::Prodigy);
    let base_seed = ctx.sweep.base_seed;
    let outcome = run_workload(
        spec.instantiate(base_seed).as_mut(),
        &RunConfig {
            trace: trace_path.is_some(),
            metrics: metrics_path.map(|_| MetricsConfig {
                window_cycles: metrics_window,
            }),
            ..cell.run_config(ctx.sys, base_seed)
        },
    );
    if let Some(path) = trace_path {
        let events = outcome.trace.as_deref().unwrap_or(&[]);
        let json = chrome_trace_json(events, filter);
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace written to {path} ({} events)", events.len());
    }
    if let Some(path) = metrics_path {
        let reg = outcome.metrics.as_ref().expect("metrics were installed");
        // One object: run identity, the registry's series, the attribution
        // table, and the simulated latency quantiles.
        let tel = &outcome.telemetry;
        let quantiles = |h: &Log2Hist| HistQuantiles::from_hist(h).to_json();
        let mut dump = vec![
            ("workload".to_string(), spec.name.to_json()),
            ("seed".to_string(), ctx.sweep.base_seed.to_json()),
        ];
        if let Json::Obj(series) = reg.to_json() {
            dump.extend(series);
        }
        dump.push(("attribution".to_string(), tel.attribution.to_json()));
        dump.push((
            "latency_quantiles".to_string(),
            Json::obj([
                ("load_to_use", quantiles(&tel.load_to_use)),
                ("fill_to_use", quantiles(&tel.fill_to_use)),
                ("dram_round_trip", quantiles(&tel.dram_round_trip)),
            ]),
        ));
        let json = format!("{}\n", Json::Obj(dump));
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        println!(
            "metrics written to {path} ({} windows of {} cycles, {} attribution sources)",
            reg.windows_closed(),
            reg.config().window_cycles,
            outcome.telemetry.attribution.iter().count(),
        );
    }
    let tel = &outcome.telemetry;
    let t = &tel.timeliness;
    println!(
        "prefetch timeliness: {} timely ({:.1}%), {} late ({:.1}%), {} inaccurate ({:.1}%), {} dropped ({:.1}%)",
        t.timely,
        t.share(t.timely) * 100.0,
        t.late,
        t.share(t.late) * 100.0,
        t.inaccurate,
        t.share(t.inaccurate) * 100.0,
        t.dropped,
        t.share(t.dropped) * 100.0,
    );
    println!(
        "latency: load-to-use mean {:.1} cy ({} samples), dram round-trip mean {:.1} cy, late-prefetch wait mean {:.1} cy",
        tel.load_to_use.mean(),
        tel.load_to_use.count(),
        tel.dram_round_trip.mean(),
        tel.late_wait.mean(),
    );
    // Exact bucket-bound quantile intervals (deterministic; gate them with
    // `prodigy-diff --slo`).
    let qline = |name: &str, h: &Log2Hist| match HistQuantiles::from_hist(h) {
        Some(q) => println!(
            "  {name} quantiles (cy): p50 {} p90 {} p99 {} max {}",
            HistQuantiles::fmt_interval(q.p50),
            HistQuantiles::fmt_interval(q.p90),
            HistQuantiles::fmt_interval(q.p99),
            HistQuantiles::fmt_interval(q.max),
        ),
        None => println!("  {name} quantiles: no samples"),
    };
    qline("load-to-use", &tel.load_to_use);
    qline("fill-to-use", &tel.fill_to_use);
    qline("dram-round-trip", &tel.dram_round_trip);
    println!("activity: {} dig transitions", tel.dig_transitions);
}

/// Every experiment name, space-separated, in run order.
fn experiment_names() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.join(" ")
}

/// Every trace category name, comma-separated, in display order.
fn category_names() -> String {
    let names: Vec<&str> = TraceCategory::ALL.iter().map(TraceCategory::name).collect();
    names.join(",")
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: prodigy-eval [--scale N] [--cores N] [--threads N] [--seed N]\n\
         \x20                  [--timeout-secs N] [--out FILE] [--json FILE]\n\
         \x20                  [--cell-cache DIR] [--shard K/N]\n\
         \x20                  [--trace FILE [--trace-events cat,cat]]\n\
         \x20                  [--metrics FILE [--metrics-window N]]\n\
         \x20                  [--trace-workload NAME] [experiments...]\n\
         \x20      prodigy-eval --merge SHARD.json... [--out merged.json]\n\
         experiments: {}\n\
         --trace FILE: skip the experiments; capture one Prodigy run\n\
         (default bfs-lj) as Chrome trace-event JSON (Perfetto-viewable).\n\
         --trace-events: comma list of {}.\n\
         --metrics FILE: capture the same single run as a windowed metrics\n\
         time-series (IPC, miss rates, MLP, queue depth, accuracy/coverage)\n\
         plus per-DIG-node prefetch attribution, as JSON; composes with\n\
         --trace. --metrics-window: cycles per window (100000).\n\
         --trace-workload NAME: any workload of the 29-cell evaluation set\n\
         (e.g. bfs-lj, pr-tw, spmv) for --trace/--metrics runs.\n\
         --cell-cache DIR: persist successful cell results on disk keyed by\n\
         workload|config|seed|code-rev; identical later runs load instead\n\
         of simulating. failures are never persisted. override the code rev\n\
         with the PRODIGY_CODE_REV environment variable.\n\
         --shard K/N: run only the cells whose stable key hash lands on\n\
         shard K of N (1-based); figures are skipped. stitch the shards'\n\
         --json reports with --merge (byte-identical to merging one\n\
         unsharded run's report).\n\
         a flag given outside the modes it acts in (experiment sweeps,\n\
         --trace runs, --metrics runs, --merge) is a usage error.\n\
         determinism: any --threads value yields byte-identical figure tables\n\
         for the same --scale/--seed, as do traces and metrics; --seed 0\n\
         keeps the seed inputs. exit status 3 if any cell failed (see\n\
         stderr / --json).\n\
         compare two runs: prodigy-diff A.json B.json (sweep --json reports\n\
         or --metrics dumps).",
        experiment_names(),
        category_names()
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
