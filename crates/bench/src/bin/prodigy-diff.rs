//! Run-to-run diff/regression gate for benchmark artifacts.
//!
//! ```text
//! prodigy-diff OLD.json NEW.json [--threshold FRAC] [--slo SPEC]...
//! prodigy-diff REPORT.json --slo SPEC [--slo SPEC]...
//! ```
//!
//! Compares two sweep reports (`prodigy-eval --json`) or two windowed
//! metrics dumps (`prodigy-eval --metrics FILE`), prints a deterministic
//! per-metric delta report, and exits nonzero when a tier-1 metric
//! regresses past the threshold:
//!
//! - exit 0 — no regression (deltas, if any, are within budget)
//! - exit 1 — regression: a cell's cycle count grew (or a metrics run's
//!   mean IPC fell) beyond `--threshold` (default 0.02 = 2%), the two
//!   runs' result checksums disagree, a cell is present in only one
//!   report, or a `--slo` assertion is violated
//! - exit 2 — usage, I/O, parse, or malformed-SLO error
//!
//! Sweep cells are compared in their canonical form: every field except
//! the host fields (`timing`, `worker`, `disk_hit`, and `host_profile` in
//! older reports), so a same-seed pair diffs to zero changes. For a byte-level identity gate,
//! `cmp` the `prodigy-eval --merge` canonical forms of the two reports.
//!
//! ## Latency SLOs
//!
//! `--slo "load_to_use_p99<=N"` asserts a simulated-latency quantile
//! against every cell of the report under test (the NEW report when two
//! are given; the sole report in single-report mode). Histograms:
//! `load_to_use`, `fill_to_use`, `dram_round_trip`, plus the per-tier
//! `near_load_to_use`/`far_load_to_use` rows that two-tier (far-memory)
//! cells report; quantiles: `p50`, `p90`, `p99`, `max`. Quantiles are
//! bucket-bound intervals `[lo, hi]`;
//! the assertion compares the conservative upper bound `hi`, so a passing
//! SLO holds for the exact (unbucketed) value too. Cells without the
//! quantile (failed cells, empty histograms) are reported as n/a and do
//! not violate.
//!
//! ## Scalar SLOs
//!
//! `--slo "pollution_rate<=0.05"` asserts a per-cell scalar stat with a
//! fractional bound. Scalars: `pollution_rate` and the per-source occupancy
//! shares `l1_prefetch_occupancy`, `l2_prefetch_occupancy`,
//! `l3_prefetch_occupancy`, `l3_top_source_occupancy`. A `null` stat (e.g.
//! a cell whose prefetcher issued nothing) is n/a and does not violate,
//! matching the quantile convention.

use prodigy_bench::compare::diff_reports;
use prodigy_sim::json::{parse_json, Json};
use std::process::ExitCode;

const USAGE: &str = "usage: prodigy-diff OLD.json NEW.json [--threshold FRAC] [--slo SPEC]...
       prodigy-diff REPORT.json --slo SPEC [--slo SPEC]...

  OLD.json / NEW.json   sweep reports (prodigy-eval --json) or metrics
                        dumps (prodigy-eval --metrics FILE); both must be
                        the same kind
  --threshold FRAC      tier-1 regression budget as a fraction
                        (default 0.02 = 2%)
  --slo SPEC            assert a latency quantile or scalar stat on the
                        report under test (NEW.json, or the sole report).
                        Quantile SPEC is <hist>_<quantile><=<cycles>, e.g.
                        load_to_use_p99<=4096 or far_load_to_use_p99<=8192;
                        hist: load_to_use, fill_to_use, dram_round_trip,
                        near_load_to_use, far_load_to_use; quantile: p50,
                        p90, p99, max. Scalar SPEC is <stat><=<fraction>,
                        e.g. pollution_rate<=0.05; stat: pollution_rate,
                        l1/l2/l3_prefetch_occupancy,
                        l3_top_source_occupancy. Repeatable; every spec
                        must hold on every cell that reports the value
                        (null/absent counts as n/a, not a violation).

exit status: 0 ok, 1 regression/checksum mismatch/unaligned cell/SLO
violation, 2 bad input";

fn fail(msg: &str) -> ExitCode {
    eprintln!("prodigy-diff: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// One parsed `--slo` assertion: a latency-quantile bound
/// (`<hist>_<quantile><=<cycles>`) or a scalar-stat bound
/// (`<stat><=<fraction>`).
enum SloKind {
    Quantile {
        hist: String,
        quantile: String,
        bound: u64,
    },
    Scalar {
        key: String,
        bound: f64,
    },
}

struct Slo {
    kind: SloKind,
    raw: String,
}

const SLO_HISTS: &[&str] = &[
    "load_to_use",
    "fill_to_use",
    "dram_round_trip",
    "near_load_to_use",
    "far_load_to_use",
];
const SLO_QUANTILES: &[&str] = &["p50", "p90", "p99", "max"];
/// Gateable per-cell scalar stats (fractions in `[0, 1]`-ish space, so the
/// bound parses as f64 rather than integer cycles).
const SLO_SCALARS: &[&str] = &[
    "pollution_rate",
    "l1_prefetch_occupancy",
    "l2_prefetch_occupancy",
    "l3_prefetch_occupancy",
    "l3_top_source_occupancy",
];

fn parse_slo(spec: &str) -> Result<Slo, String> {
    let bad = |why: &str| {
        format!(
            "malformed --slo {spec:?}: {why} (e.g. load_to_use_p99<=4096 or pollution_rate<=0.05)"
        )
    };
    let (lhs, rhs) = spec
        .split_once("<=")
        .ok_or_else(|| bad("expected <hist>_<quantile><=<cycles> or <stat><=<fraction>"))?;
    let lhs = lhs.trim();
    if SLO_SCALARS.contains(&lhs) {
        let bound = rhs
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|b| b.is_finite() && *b >= 0.0)
            .ok_or_else(|| bad("bound must be a finite non-negative fraction"))?;
        return Ok(Slo {
            kind: SloKind::Scalar {
                key: lhs.to_string(),
                bound,
            },
            raw: spec.to_string(),
        });
    }
    let bound = rhs
        .trim()
        .parse::<u64>()
        .map_err(|_| bad("bound must be a non-negative integer cycle count"))?;
    let (hist, quantile) = lhs
        .rsplit_once('_')
        .ok_or_else(|| bad("expected <hist>_<quantile> before <="))?;
    if !SLO_HISTS.contains(&hist) {
        return Err(bad(&format!(
            "unknown histogram {hist:?}; expected one of {SLO_HISTS:?} (or a scalar of {SLO_SCALARS:?})"
        )));
    }
    if !SLO_QUANTILES.contains(&quantile) {
        return Err(bad(&format!(
            "unknown quantile {quantile:?}; expected one of {SLO_QUANTILES:?}"
        )));
    }
    Ok(Slo {
        kind: SloKind::Quantile {
            hist: hist.to_string(),
            quantile: quantile.to_string(),
            bound,
        },
        raw: spec.to_string(),
    })
}

/// Evaluates every SLO against every cell of a sweep report. Returns the
/// rendered verdict text and whether any assertion was violated; `Err` when
/// the report is not a sweep report.
fn check_slos(report: &Json, slos: &[Slo]) -> Result<(String, bool), String> {
    let Some(cells) = report.get("cells").and_then(Json::as_arr) else {
        return Err("--slo needs a sweep report (prodigy-eval --json), not a metrics dump".into());
    };
    let mut out = String::new();
    let mut violated = false;
    for slo in slos {
        let mut checked = 0usize;
        let mut na = 0usize;
        let mut offenders: Vec<String> = Vec::new();
        let mut worst_txt = "no cell reports this value".to_string();
        match &slo.kind {
            SloKind::Quantile {
                hist,
                quantile,
                bound,
            } => {
                let mut worst: Option<(u64, String)> = None;
                for cell in cells {
                    let key = cell.get("key").and_then(Json::as_str).unwrap_or("?");
                    // stats.<hist> is {"p50":[lo,hi],...} or null.
                    let q = cell
                        .get("stats")
                        .and_then(|s| s.get(hist))
                        .and_then(|h| h.get(quantile))
                        .and_then(Json::as_arr)
                        .filter(|a| a.len() == 2)
                        .and_then(|a| a[1].as_u64());
                    let Some(hi) = q else {
                        na += 1;
                        continue;
                    };
                    checked += 1;
                    if worst.as_ref().is_none_or(|(w, _)| hi > *w) {
                        worst = Some((hi, key.to_string()));
                    }
                    if hi > *bound {
                        violated = true;
                        offenders.push(format!("    VIOLATED: {key} — {hi} > {bound}\n"));
                    }
                }
                if let Some((w, key)) = worst {
                    worst_txt = format!("worst {w} ({key})");
                }
            }
            SloKind::Scalar { key: stat, bound } => {
                let mut worst: Option<(f64, String)> = None;
                for cell in cells {
                    let key = cell.get("key").and_then(Json::as_str).unwrap_or("?");
                    // stats.<stat> is a fraction or null (n/a).
                    let v = cell
                        .get("stats")
                        .and_then(|s| s.get(stat))
                        .and_then(Json::as_f64);
                    let Some(v) = v else {
                        na += 1;
                        continue;
                    };
                    checked += 1;
                    if worst.as_ref().is_none_or(|(w, _)| v > *w) {
                        worst = Some((v, key.to_string()));
                    }
                    if v > *bound {
                        violated = true;
                        offenders.push(format!("    VIOLATED: {key} — {v:.6} > {bound}\n"));
                    }
                }
                if let Some((w, key)) = worst {
                    worst_txt = format!("worst {w:.6} ({key})");
                }
            }
        }
        out.push_str(&format!(
            "slo {}: {} — {checked} cells checked, {na} n/a, {worst_txt}\n",
            slo.raw,
            if offenders.is_empty() {
                "OK"
            } else {
                "VIOLATED"
            },
        ));
        for line in offenders {
            out.push_str(&line);
        }
    }
    Ok((out, violated))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.02f64;
    let mut slos: Vec<Slo> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return fail("--threshold needs a numeric fraction");
                };
                if !(v.is_finite() && v >= 0.0) {
                    return fail("--threshold must be a finite fraction >= 0");
                }
                threshold = v;
                i += 2;
            }
            "--slo" => {
                let Some(spec) = args.get(i + 1) else {
                    return fail("--slo needs a spec like load_to_use_p99<=4096");
                };
                match parse_slo(spec) {
                    Ok(s) => slos.push(s),
                    Err(e) => return fail(&e),
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return fail(&format!("unknown flag {flag}"));
            }
            p => {
                paths.push(p);
                i += 1;
            }
        }
    }
    let single_slo_mode = paths.len() == 1 && !slos.is_empty();
    if paths.len() != 2 && !single_slo_mode {
        return fail("expected exactly two report files (or one with --slo)");
    }

    let mut parsed = Vec::new();
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {p}: {e}")),
        };
        match parse_json(&text) {
            Ok(v) => parsed.push(v),
            Err(e) => return fail(&format!("cannot parse {p}: {e}")),
        }
    }

    let mut bad = false;
    if paths.len() == 2 {
        let report = match diff_reports(&parsed[0], &parsed[1], threshold) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        print!("{}", report.render());
        bad = report.regressed();
    }
    if !slos.is_empty() {
        // SLOs gate the report under test: the NEW report, or the only one.
        let under_test = parsed.last().expect("at least one report");
        let (text, violated) = match check_slos(under_test, &slos) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        print!("{text}");
        bad = bad || violated;
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::parse_slo;

    #[test]
    fn slo_specs_parse_or_fail_cleanly() {
        for (spec, ok) in [
            ("", false),
            ("<=", false),
            ("pollution_rate<=NaN", false),
            ("pollution_rate<=inf", false),
            ("pollution_rate<=-0.5", false),
            ("load_to_use_p99<=-1", false),
            ("load_to_use_p99<=1.5", false),
            ("load_to_use_p99<=18446744073709551616", false),
            ("load_to_use<=5", false),
            ("load_to_use_p42<=5", false),
            ("bogus<=5", false),
            ("load_to_use_p99>=5", false),
            ("load_to_use_p99<=4096", true),
            ("far_load_to_use_max<=18446744073709551615", true),
            (" pollution_rate <= 0.05 ", true),
            ("l3_top_source_occupancy<=1", true),
        ] {
            assert_eq!(parse_slo(spec).is_ok(), ok, "{spec:?}");
        }
    }
}
