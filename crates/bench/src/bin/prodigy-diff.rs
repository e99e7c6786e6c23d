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
//! the host fields (`timing`, `worker`, `disk_hit`), so a same-seed pair
//! diffs to zero changes. For a byte-level identity gate, `cmp` the
//! `prodigy-eval --merge` canonical forms of the two reports.
//!
//! ## SLOs
//!
//! `--slo "load_to_use_p99<=N"` asserts a latency quantile's upper bucket
//! bound, or a share's exact value, against every cell of the report under
//! test (the NEW report when two are given; the sole report in
//! single-report mode). Each cell is decoded to its `RunOutcome` and the
//! value computed from it (`prodigy_bench::compare::SloStat`); the usage
//! text lists every name. A cell without the value is n/a and does not
//! violate.

use prodigy_bench::compare::{check_slos, diff_reports, Slo};
use prodigy_sim::json::parse_json;
use std::process::ExitCode;

const USAGE: &str = "usage: prodigy-diff OLD.json NEW.json [--threshold FRAC] [--slo SPEC]...
       prodigy-diff REPORT.json --slo SPEC [--slo SPEC]...

  OLD.json / NEW.json   sweep reports (prodigy-eval --json) or metrics
                        dumps (prodigy-eval --metrics FILE); both must be
                        the same kind
  --threshold FRAC      tier-1 regression budget as a fraction
                        (default 0.02 = 2%)
  --slo SPEC            assert a latency quantile or a share on the
                        report under test (NEW.json, or the sole report).
                        Quantile SPEC is <hist>_<quantile><=<cycles>, e.g.
                        load_to_use_p99<=4096 or far_load_to_use_p99<=8192;
                        hist: load_to_use, fill_to_use, dram_round_trip,
                        near_load_to_use, far_load_to_use; quantile: p50,
                        p90, p99, max. Share SPEC is <share><=<fraction>,
                        e.g. pollution_rate<=0.05; share: pollution_rate,
                        l1_prefetch_occupancy, l2_prefetch_occupancy,
                        l3_prefetch_occupancy, l3_top_source_occupancy.
                        Repeatable; every spec must hold on every cell
                        that reports the value (a failed cell, an empty
                        histogram or an undefined share is n/a, not a
                        violation).

exit status: 0 ok, 1 regression/checksum mismatch/unaligned cell/SLO
violation, 2 bad input";

fn fail(msg: &str) -> ExitCode {
    eprintln!("prodigy-diff: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
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
                match Slo::parse(spec) {
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
    use super::USAGE;
    use prodigy_bench::compare::{Slo, SloStat};

    /// The names the usage lists after `label`, up to the list's end.
    fn listed(label: &str) -> Vec<&'static str> {
        let at = USAGE.find(label).expect("the usage lists it") + label.len();
        let list = USAGE[at..].split([';', '.']).next().unwrap();
        list.split(',').map(str::trim).collect()
    }

    #[test]
    fn every_slo_name_in_the_usage_resolves() {
        let (hists, quantiles, shares) = (listed("hist:"), listed("quantile:"), listed("share:"));
        assert_eq!((hists.len(), quantiles.len(), shares.len()), (5, 4, 5));
        let quantiles = hists
            .iter()
            .flat_map(|h| quantiles.iter().map(move |q| format!("{h}_{q}")));
        for name in quantiles.chain(shares.into_iter().map(String::from)) {
            assert!(SloStat::named(&name).is_some(), "{name}");
        }
    }

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
            assert_eq!(Slo::parse(spec).is_ok(), ok, "{spec:?}");
        }
    }
}
