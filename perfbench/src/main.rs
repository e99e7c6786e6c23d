//! Benchmark of the Prodigy reproduction: simulator speed, simulated
//! speedups and per-layer host time. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <pr-lj|is|nopf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Report lines start with `#`; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod suite;
mod traced;

use prodigy_sim::SystemConfig;
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig, RunOutcome};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use suite::{Alg, Cell, Inputs, Kern};
use traced::median;

const USAGE: &str =
    "usage: perfbench --workload <pr-lj|is|nopf> [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up is repeated at least this often, and until this long, per run.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Cell runs attempted, and how many of them failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        println!("# FAILED {what}: {why}");
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The run configuration of every cell.
fn run_config(kind: PrefetcherKind, seed: u64) -> RunConfig {
    RunConfig {
        sys: SystemConfig::bench(),
        prefetcher: kind,
        seed,
        ..RunConfig::default()
    }
}

/// A workload's inputs plus one constructed kernel per cell.
struct Setup {
    inputs: Inputs,
    kernels: Vec<Option<Kern>>,
    /// Seconds generating the inputs.
    gen_s: f64,
    /// Seconds generating the inputs and constructing every kernel.
    total_s: f64,
}

fn set_up(cells: &[Cell], seed: u64) -> Setup {
    let t = Instant::now();
    let inputs = Inputs::generate(cells, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let kernels = cells.iter().map(|c| Some(inputs.kernel(c.alg))).collect();
    Setup {
        inputs,
        kernels,
        gen_s,
        total_s: t.elapsed().as_secs_f64(),
    }
}

/// Runs `f`, turning a panic into an error message.
fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// The simulated result of one cell, kept from its first good run.
struct CellResult {
    outcome: RunOutcome,
    /// Host seconds inside `run_workload`, one per good run.
    times: Vec<f64>,
}

/// Fig. 2 and Fig. 14 values the repository quotes, printed beside the
/// simulated speedups they correspond to.
fn paper_reference(workload: &str, kind: PrefetcherKind) -> Option<&'static str> {
    if kind != PrefetcherKind::Prodigy {
        return None;
    }
    Some(if workload == "pr-lj" {
        "paper: 2.9x on pr-lj (Fig. 2) and 2.6x geomean over 29 workloads (Fig. 14)"
    } else {
        "paper: 2.6x geomean over 29 workloads (Fig. 14)"
    })
}

/// The untraced pass: every cell through `run_workload`, repeated round
/// robin while the next run still fits in `seconds`.
fn untraced(workload: &str, cells: &[Cell], args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let mut setups = Vec::new();
    let mut setup = set_up(cells, args.seed);
    setups.push(setup.total_s);
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        drop(setup);
        setup = set_up(cells, args.seed);
        setups.push(setup.total_s);
    }
    let setup_s = median(setups.clone());
    println!(
        "# setup: median {setup_s:.6} s over {} set-ups (inputs {:.6} s in the last), \
         peak rss {:.1} MiB",
        setups.len(),
        setup.gen_s,
        host::peak_rss_mib().unwrap_or(0.0)
    );

    let mut results: Vec<Option<CellResult>> = cells.iter().map(|_| None).collect();
    let mut checksums: Vec<(usize, u64)> = Vec::new();
    let start = Instant::now();
    for run in 0.. {
        let i = run % cells.len();
        let cell = cells[i];
        if run >= cells.len() {
            let expected = results[i].as_ref().map_or(0.0, |r| median(r.times.clone()));
            if start.elapsed().as_secs_f64() + expected > args.seconds {
                break;
            }
        }
        let mut kern = setup.kernels[i]
            .take()
            .unwrap_or_else(|| setup.inputs.kernel(cell.alg));
        tally.attempted += 1;
        let cfg = run_config(cell.kind, args.seed);
        let t = Instant::now();
        let out = isolated(|| run_workload(kern.as_kernel(), &cfg));
        let secs = t.elapsed().as_secs_f64();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                tally.fail(&cell.label(), &format!("panicked: {e}"));
                continue;
            }
        };
        if let Err(e) = isolated(|| setup.inputs.check(&kern)).and_then(|r| r) {
            tally.fail(&cell.label(), &e);
            continue;
        }
        checksums.push((i, out.checksum));
        match &mut results[i] {
            Some(r) => {
                let first = &r.outcome;
                if format!("{:?}", first.summary.stats) != format!("{:?}", out.summary.stats)
                    || first.telemetry != out.telemetry
                {
                    tally.fail(&cell.label(), "simulated results differ between runs");
                    continue;
                }
                r.times.push(secs);
            }
            slot => {
                *slot = Some(CellResult {
                    outcome: out,
                    times: vec![secs],
                })
            }
        }
    }
    check_functional(cells, &setup.inputs, &checksums, tally);

    let (mut insns, mut secs) = (0.0, 0.0);
    let base_cycles = |alg: Alg| {
        cells
            .iter()
            .zip(&results)
            .find(|(c, _)| c.alg == alg && c.kind == PrefetcherKind::None)
            .and_then(|(_, r)| r.as_ref())
            .map(|r| r.outcome.summary.stats.cycles)
    };
    for (cell, r) in cells.iter().zip(&results) {
        let Some(r) = r else { continue };
        let s = &r.outcome.summary.stats;
        let t = median(r.times.clone());
        insns += s.instructions as f64;
        secs += t;
        let mut line = format!(
            "# cell {:<13} cycles={} insns={} host_s={t:.4} (median of {}) mips={:.4}",
            cell.label(),
            s.cycles,
            s.instructions,
            r.times.len(),
            s.instructions as f64 / t / 1e6,
        );
        if cell.kind != PrefetcherKind::None {
            if let Some(base) = base_cycles(cell.alg) {
                let speedup = base as f64 / s.cycles as f64;
                line += &format!(" speedup.{}={speedup:.4}", cell.kind.name());
            }
            if let Some(p) = paper_reference(workload, cell.kind) {
                line += &format!(
                    " [{p}; Sniper on the real inputs, not a validation: \
                     this model is unvalidated against hardware]"
                );
            }
        }
        println!("{line}");
    }
    vec![
        metric("sim_mips", ratio(insns, secs) / 1e6, "MIPS"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
    ]
}

/// Every good run of a kernel must reproduce the checksum of that kernel on
/// a `FunctionalRunner`, whatever the prefetcher.
fn check_functional(
    cells: &[Cell],
    inputs: &Inputs,
    checksums: &[(usize, u64)],
    tally: &mut Tally,
) {
    let mut expected: BTreeMap<&str, Result<u64, String>> = BTreeMap::new();
    for &(i, sum) in checksums {
        let alg = cells[i].alg;
        let want = expected
            .entry(alg.name())
            .or_insert_with(|| isolated(|| inputs.functional_checksum(alg)));
        match want {
            Ok(w) if *w == sum => {}
            Ok(w) => tally.fail(
                &cells[i].label(),
                &format!("checksum {sum} differs from the functional run's {w}"),
            ),
            Err(e) => tally.fail(&cells[i].label(), &format!("functional run panicked: {e}")),
        }
    }
}

/// Per-cell measurements of the traced pass, summed over a workload.
#[derive(Default)]
struct Layers {
    prepare_s: f64,
    kernel_self_s: f64,
    insns: f64,
    phases: f64,
    system_self_s: f64,
    pf_calls: f64,
    pf_self_s: f64,
    replay_ns_total: f64,
    replay_accesses: f64,
    none_accesses: f64,
    none_writes: f64,
    traced_s: f64,
    untraced_s: f64,
    l1: [f64; 2],
    l2: [f64; 2],
    l3: [f64; 2],
    dram_reads: f64,
    dram_writes: f64,
    dram_queue_cycles: f64,
    load_to_use: prodigy_sim::Log2Hist,
    none_cpi_dram: f64,
    none_cpi_total: f64,
    pf_issued: f64,
    pf_useful: f64,
    pf_resolved: f64,
    pf_l3_misses: f64,
    pf_pollution: f64,
    late: f64,
    classified: f64,
    pfhr_drops: f64,
    pfhr_attempts: f64,
}

/// The traced pass: each cell once untraced and once traced, compared, then
/// the none cells' demand streams replayed against a fresh hierarchy.
fn traced_pass(cells: &[Cell], args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let t = Instant::now();
    let inputs = Inputs::generate(cells, args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let cost = traced::calibrate();
    println!(
        "# timer: an empty wrapped call reads {:.2} ns inside the wrapper and costs {:.2} ns",
        cost.inside_ns, cost.call_ns
    );
    let mut sum = Layers::default();
    let mut checksums = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        tally.attempted += 1;
        let label = cell.label();
        let mut kern = inputs.kernel(cell.alg);
        let cfg = run_config(cell.kind, args.seed);
        let t = Instant::now();
        let plain = match isolated(|| run_workload(kern.as_kernel(), &cfg)) {
            Ok(out) => out,
            Err(e) => {
                tally.fail(&label, &format!("panicked: {e}"));
                continue;
            }
        };
        let untraced_s = t.elapsed().as_secs_f64();
        let mut tkern = inputs.kernel(cell.alg);
        let record = cell.kind == PrefetcherKind::None;
        let tr = match isolated(|| traced::run_cell(tkern.as_kernel(), cell.kind, record)) {
            Ok(tr) => tr,
            Err(e) => {
                tally.fail(&label, &format!("traced run panicked: {e}"));
                continue;
            }
        };
        let checked = isolated(|| {
            inputs.check(&kern)?;
            inputs.check(&tkern)
        });
        if let Err(e) = checked.and_then(|r| r) {
            tally.fail(&label, &e);
            continue;
        }
        if tr.checksum != plain.checksum
            || format!("{:?}", tr.summary.stats) != format!("{:?}", plain.summary.stats)
            || tr.telemetry != plain.telemetry
            || tr.prodigy != plain.prodigy
        {
            tally.fail(&label, "traced results differ from run_workload's");
            continue;
        }
        checksums.push((i, plain.checksum));

        let s = &plain.summary.stats;
        let tel = &plain.telemetry;
        let insns = s.instructions as f64;
        let calls = tr.pf_calls as f64;
        let pf_self_s = tr.pf_gross_s - calls * cost.inside_ns / 1e9;
        let system_self_s =
            tr.phase_s - tr.pf_gross_s - calls * (cost.call_ns - cost.inside_ns) / 1e9;
        let hierarchy_ns = tr.prefix.as_deref().map(traced::replay);
        let p99 = tel.load_to_use.quantile(0.99).map_or(0, |(_, hi)| hi);
        let miss_rate = |l: &prodigy_sim::LevelStats| ratio(l.misses as f64, l.accesses() as f64);
        let cpi = s.cpi;

        let mut line = format!(
            "# cell {label}: kernels.prepare_s={:.6} kernels.self_s={:.6} \
             kernels.ns_per_insn={:.3} kernels.insns={} kernels.phases={} \
             system.self_s={system_self_s:.6} system.ns_per_insn={:.3} \
             prefetcher.calls.{k}={} prefetcher.self_s.{k}={pf_self_s:.6} \
             prefetcher.ns_per_call.{k}={:.3} \
             l1d.miss_rate={:.6} l2.miss_rate={:.6} l3.miss_rate={:.6} \
             dram.reads={} dram.writes={} dram.queue_cycles={} load_to_use.p99={p99} \
             cpi.dram_share={:.6} trace.overhead={:.4}",
            tr.prepare_s,
            tr.kernel_self_s,
            ratio(tr.kernel_self_s * 1e9, insns),
            s.instructions,
            tr.phases,
            ratio(system_self_s * 1e9, insns),
            tr.pf_calls,
            ratio(pf_self_s * 1e9, calls),
            miss_rate(&s.l1d),
            miss_rate(&s.l2),
            miss_rate(&s.l3),
            s.dram_reads,
            s.dram_writes,
            s.dram_queue_cycles,
            ratio(cpi.dram, cpi.total()),
            tr.total_s / untraced_s,
            k = cell.kind.name(),
        );
        if let Some(ns) = hierarchy_ns {
            let replayed = tr.prefix.as_ref().map_or(0, Vec::len) as f64;
            line += &format!(
                " hierarchy.ns_per_access={ns:.3} (over {replayed} accesses) \
                 hierarchy.write_share={:.6}",
                ratio(tr.writes as f64, tr.accesses as f64)
            );
            sum.replay_ns_total += ns * replayed;
            sum.replay_accesses += replayed;
            sum.none_accesses += tr.accesses as f64;
            sum.none_writes += tr.writes as f64;
            sum.none_cpi_dram += cpi.dram;
            sum.none_cpi_total += cpi.total();
        } else {
            let useful = s.prefetch_use.useful() as f64;
            let resolved = s.prefetch_use.resolved() as f64;
            let l3_misses = s.l3.misses as f64;
            line += &format!(
                " prefetch.issued={} prefetch.accuracy={:.6} prefetch.coverage={:.6} \
                 prefetch.late_share={:.6} pollution_rate={:.6}",
                s.prefetches_issued,
                ratio(useful, resolved),
                ratio(useful, useful + l3_misses),
                tel.timeliness.share(tel.timeliness.late),
                ratio(tel.pollution.l3 as f64, l3_misses),
            );
            sum.pf_useful += useful;
            sum.pf_resolved += resolved;
            sum.pf_l3_misses += l3_misses;
            sum.pf_pollution += tel.pollution.l3 as f64;
            sum.late += tel.timeliness.late as f64;
            sum.classified += tel.timeliness.total() as f64;
        }
        if let Some(p) = &tr.prodigy {
            let attempts =
                p.pfhr_drops + p.single_prefetches + p.ranged_prefetches + p.trigger_prefetches;
            line += &format!(
                " prodigy.pfhr_drop_share={:.6}",
                ratio(p.pfhr_drops as f64, attempts as f64)
            );
            sum.pfhr_drops += p.pfhr_drops as f64;
            sum.pfhr_attempts += attempts as f64;
        }
        println!("{line}");

        sum.prepare_s += tr.prepare_s;
        sum.kernel_self_s += tr.kernel_self_s;
        sum.insns += insns;
        sum.phases += tr.phases as f64;
        sum.system_self_s += system_self_s;
        sum.pf_calls += calls;
        sum.pf_self_s += pf_self_s;
        sum.traced_s += tr.total_s;
        sum.untraced_s += untraced_s;
        for (acc, l) in [
            (&mut sum.l1, s.l1d),
            (&mut sum.l2, s.l2),
            (&mut sum.l3, s.l3),
        ] {
            acc[0] += l.misses as f64;
            acc[1] += l.accesses() as f64;
        }
        sum.dram_reads += s.dram_reads as f64;
        sum.dram_writes += s.dram_writes as f64;
        sum.dram_queue_cycles += s.dram_queue_cycles as f64;
        sum.load_to_use.merge(&tel.load_to_use);
        sum.pf_issued += s.prefetches_issued as f64;
    }
    check_functional(cells, &inputs, &checksums, tally);

    let l = &sum;
    vec![
        metric("graph.gen_s", gen_s, "s"),
        metric("kernels.prepare_s", l.prepare_s, "s"),
        metric("kernels.self_s", l.kernel_self_s, "s"),
        metric(
            "kernels.ns_per_insn",
            ratio(l.kernel_self_s * 1e9, l.insns),
            "ns",
        ),
        metric("kernels.insns", l.insns, "count"),
        metric("kernels.phases", l.phases, "count"),
        metric("system.self_s", l.system_self_s, "s"),
        metric(
            "system.ns_per_insn",
            ratio(l.system_self_s * 1e9, l.insns),
            "ns",
        ),
        metric(
            "hierarchy.ns_per_access",
            ratio(l.replay_ns_total, l.replay_accesses),
            "ns",
        ),
        metric(
            "hierarchy.write_share",
            ratio(l.none_writes, l.none_accesses),
            "ratio",
        ),
        metric("prefetcher.calls", l.pf_calls, "count"),
        metric("prefetcher.self_s", l.pf_self_s, "s"),
        metric(
            "prefetcher.ns_per_call",
            ratio(l.pf_self_s * 1e9, l.pf_calls),
            "ns",
        ),
        metric("l1d.miss_rate", ratio(l.l1[0], l.l1[1]), "ratio"),
        metric("l2.miss_rate", ratio(l.l2[0], l.l2[1]), "ratio"),
        metric("l3.miss_rate", ratio(l.l3[0], l.l3[1]), "ratio"),
        metric("dram.reads", l.dram_reads, "count"),
        metric("dram.writes", l.dram_writes, "count"),
        metric("dram.queue_cycles", l.dram_queue_cycles, "cycles"),
        metric(
            "load_to_use.p99",
            l.load_to_use.quantile(0.99).map_or(0, |(_, hi)| hi) as f64,
            "cycles",
        ),
        metric(
            "cpi.dram_share",
            ratio(l.none_cpi_dram, l.none_cpi_total),
            "ratio",
        ),
        metric("prefetch.issued", l.pf_issued, "count"),
        metric(
            "prefetch.accuracy",
            ratio(l.pf_useful, l.pf_resolved),
            "ratio",
        ),
        metric(
            "prefetch.coverage",
            ratio(l.pf_useful, l.pf_useful + l.pf_l3_misses),
            "ratio",
        ),
        metric("prefetch.late_share", ratio(l.late, l.classified), "ratio"),
        metric(
            "pollution_rate",
            ratio(l.pf_pollution, l.pf_l3_misses),
            "ratio",
        ),
        metric(
            "prodigy.pfhr_drop_share",
            ratio(l.pfhr_drops, l.pfhr_attempts),
            "ratio",
        ),
        metric("trace.timer_ns", cost.inside_ns, "ns"),
        metric("trace.call_ns", cost.call_ns, "ns"),
        metric("trace.overhead", ratio(l.traced_s, l.untraced_s), "ratio"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(cells) = suite::cells(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            suite::WORKLOADS.join(" ")
        );
        std::process::exit(2);
    };
    println!("# {}", host::describe());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let before = host::Counters::now();
    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        traced_pass(&cells, &args, &mut tally)
    } else {
        untraced(&args.workload, &cells, &args, &mut tally)
    };
    let h = before.until(&host::Counters::now());
    println!(
        "# host over the run: runq_wait_s={:.4} steal_s={:.2} steal_share={:.4}",
        h.runq_wait_s, h.steal_s, h.steal_share
    );
    println!(
        "# cells_run={} cells_failed={}",
        tally.attempted, tally.failed
    );
    if args.trace {
        metrics.push(metric("host.runq_wait_s", h.runq_wait_s, "s"));
        metrics.push(metric("host.steal_s", h.steal_s, "s"));
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
}
