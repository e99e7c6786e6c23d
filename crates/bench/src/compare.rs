//! Run-to-run diff/regression analysis, latency and share SLOs, and shard
//! merging for benchmark artifacts.
//!
//! Loads two JSON reports produced by this repo — sweep reports
//! (`prodigy-eval --json`) or windowed metrics dumps (`prodigy-eval
//! --metrics`) — aligns their units by identity (cell key, or window start
//! cycle), and reports every numeric delta plus a tier-1 regression verdict.
//!
//! A sweep cell is compared in its canonical form ([`canonical_cell`]):
//! everything except its host fields, i.e. the full simulated outcome (all
//! counters, energy, Prodigy counters, and telemetry including pollution
//! and occupancy). All of it is deterministic for a seed, and numbers
//! compare by their exact text, so a clean same-seed pair diffs to *zero*
//! changes and any delta is a real behavioural difference. Report-level
//! host counters (wall time, workers, utilization) live outside `cells` and
//! are never compared.
//!
//! SLOs ([`check_slos`]) and merges ([`merge_reports`]) read each cell
//! through [`read_cell`], so they see the decoded [`RunOutcome`] and a cell
//! that does not decode is an error.

use crate::sweep::{canonical_cell, read_cell, CellError};
use prodigy_sim::json::{FromJson, Json, ToJson};
use prodigy_sim::{HistQuantiles, Log2Hist, TelemetrySummary};
use prodigy_workloads::RunOutcome;
use std::collections::{BTreeMap, BTreeSet};

// ------------------------------------------------------------------ diff

/// Which artifact format a report file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A sweep timing report (`prodigy-eval --json`): cells keyed by the
    /// sweep cache key.
    Sweep,
    /// A windowed metrics dump (`prodigy-eval --metrics`): samples keyed
    /// by window start cycle, plus a prefetch-attribution table.
    Metrics,
}

impl ReportKind {
    fn detect(v: &Json) -> Result<ReportKind, String> {
        if v.get("cells").is_some() {
            Ok(ReportKind::Sweep)
        } else if v.get("samples").is_some() {
            Ok(ReportKind::Metrics)
        } else {
            Err(
                "unrecognized report: expected a sweep --json report (\"cells\") \
                 or a --metrics dump (\"samples\")"
                    .to_string(),
            )
        }
    }
}

/// One changed metric in one aligned unit.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Alignment unit (cell key, window label, or attribution source).
    pub unit: String,
    /// Dotted metric path within the unit.
    pub metric: String,
    /// Value in the first (old/baseline) report.
    pub old: f64,
    /// Value in the second (new/candidate) report.
    pub new: f64,
}

impl DiffEntry {
    /// Relative change `(new - old) / old`; infinite when `old == 0`.
    pub fn rel(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.new - self.old) / self.old
        }
    }
}

/// The full deterministic comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Detected artifact format (both inputs must agree).
    pub kind: ReportKind,
    /// Units present in both reports.
    pub units_compared: usize,
    /// Units only in the first report.
    pub only_in_old: Vec<String>,
    /// Units only in the second report.
    pub only_in_new: Vec<String>,
    /// Every metric whose value differs, sorted by unit then metric.
    pub changes: Vec<DiffEntry>,
    /// Units whose result checksum differs — the runs computed different
    /// answers, not just different performance.
    pub checksum_mismatches: Vec<String>,
    /// Geomean of per-cell speedup `old.cycles / new.cycles` (> 1 means the
    /// new run is faster). Sweep reports only.
    pub geomean_speedup: Option<f64>,
    /// Tier-1 regressions: cells whose cycle count grew (or metrics runs
    /// whose mean IPC fell) beyond the threshold.
    pub regressions: Vec<DiffEntry>,
    /// The threshold the regression gate used.
    pub threshold: f64,
}

/// One flattened leaf: its value (for deltas) and its exact text (for
/// equality, so 64-bit counters never compare through a rounded `f64`).
type Leaf = (f64, String);

/// How a leaf absent from one side compares: like `null`.
fn null_leaf() -> Leaf {
    (f64::NAN, "null".to_string())
}

/// Flattens the leaves of `v` into `out` under dotted `prefix` paths. Array
/// elements use their index; `null` (e.g. an n/a accuracy) is NaN so
/// presence changes are visible; strings are labels, not metrics.
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, Leaf>) {
    let leaf = match v {
        Json::Num(n, raw) => (*n, raw.clone()),
        Json::Null => null_leaf(),
        Json::Bool(b) => (u8::from(*b) as f64, b.to_string()),
        Json::Str(_) => return,
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), item, out);
            }
            return;
        }
        Json::Obj(m) => {
            for (k, item) in m {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&p, item, out);
            }
            return;
        }
    };
    out.insert(prefix.to_string(), leaf);
}

/// `(unit label, flattened metrics, raw checksum text)` per alignment unit
/// of a report.
type Unit = (String, BTreeMap<String, Leaf>, Option<String>);

fn units_of(kind: ReportKind, v: &Json) -> Vec<Unit> {
    let mut units = Vec::new();
    match kind {
        ReportKind::Sweep => {
            for cell in v.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
                let Some(key) = cell.get("key").and_then(Json::as_str) else {
                    continue;
                };
                let mut m = BTreeMap::new();
                flatten("", &canonical_cell(cell), &mut m);
                // The checksum is identity, not a metric.
                let checksum = m.remove("checksum").map(|(_, raw)| raw);
                units.push((key.to_string(), m, checksum));
            }
        }
        ReportKind::Metrics => {
            for s in v.get("samples").and_then(Json::as_arr).unwrap_or(&[]) {
                let cycle = s.get("cycle").map_or("?".to_string(), Json::to_string);
                let mut m = BTreeMap::new();
                flatten("", s, &mut m);
                m.remove("cycle");
                units.push((format!("window@{cycle}"), m, None));
            }
            for a in v.get("attribution").and_then(Json::as_arr).unwrap_or(&[]) {
                let label = a.get("label").and_then(Json::as_str).unwrap_or("?");
                let mut m = BTreeMap::new();
                flatten("", a, &mut m);
                m.remove("tag");
                units.push((format!("attribution:{label}"), m, None));
            }
        }
    }
    units
}

/// Mean IPC over a metrics dump's samples (the tier-1 gate for metrics
/// pairs). `None` when there are no samples.
fn mean_ipc(v: &Json) -> Option<f64> {
    let samples = v.get("samples")?.as_arr()?;
    let ipcs: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.get("ipc").and_then(Json::as_f64))
        .collect();
    if ipcs.is_empty() {
        None
    } else {
        Some(ipcs.iter().sum::<f64>() / ipcs.len() as f64)
    }
}

/// Compares two parsed reports. `threshold` is the relative tier-1 budget
/// (0.02 = 2%): a cell whose `summary.stats.cycles` grows past it — or a metrics
/// pair whose mean IPC falls past it — is a regression.
pub fn diff_reports(old: &Json, new: &Json, threshold: f64) -> Result<DiffReport, String> {
    let kind = ReportKind::detect(old)?;
    let new_kind = ReportKind::detect(new)?;
    if kind != new_kind {
        return Err(format!(
            "report kinds differ: {kind:?} vs {new_kind:?} — compare like with like"
        ));
    }

    let old_units = units_of(kind, old);
    let new_units = units_of(kind, new);
    let new_map: BTreeMap<&str, &Unit> = new_units.iter().map(|u| (u.0.as_str(), u)).collect();
    let old_map: BTreeMap<&str, &Unit> = old_units.iter().map(|u| (u.0.as_str(), u)).collect();

    let mut only_in_old: Vec<String> = old_map
        .keys()
        .filter(|k| !new_map.contains_key(*k))
        .map(|k| k.to_string())
        .collect();
    let mut only_in_new: Vec<String> = new_map
        .keys()
        .filter(|k| !old_map.contains_key(*k))
        .map(|k| k.to_string())
        .collect();
    only_in_old.sort();
    only_in_new.sort();

    let mut changes = Vec::new();
    let mut checksum_mismatches = Vec::new();
    let mut regressions = Vec::new();
    let mut speedups = Vec::new();
    let mut units_compared = 0usize;

    for (key, (_, old_m, old_chk)) in &old_map {
        let Some((_, new_m, new_chk)) = new_map.get(key).map(|u| (&u.0, &u.1, &u.2)) else {
            continue;
        };
        units_compared += 1;
        if let (Some(a), Some(b)) = (old_chk, new_chk) {
            if a != b {
                checksum_mismatches.push(key.to_string());
            }
        }
        let mut metrics: Vec<&String> = old_m.keys().chain(new_m.keys()).collect();
        metrics.sort();
        metrics.dedup();
        for metric in metrics {
            let o = old_m.get(metric).cloned().unwrap_or_else(null_leaf);
            let n = new_m.get(metric).cloned().unwrap_or_else(null_leaf);
            if o.1 != n.1 {
                changes.push(DiffEntry {
                    unit: key.to_string(),
                    metric: metric.clone(),
                    old: o.0,
                    new: n.0,
                });
            }
        }
        if kind == ReportKind::Sweep {
            const CYCLES: &str = "summary.stats.cycles";
            if let (Some(&(oc, _)), Some(&(nc, _))) = (old_m.get(CYCLES), new_m.get(CYCLES)) {
                if oc > 0.0 && nc > 0.0 {
                    speedups.push(oc / nc);
                    if nc > oc * (1.0 + threshold) {
                        regressions.push(DiffEntry {
                            unit: key.to_string(),
                            metric: CYCLES.to_string(),
                            old: oc,
                            new: nc,
                        });
                    }
                }
            }
        }
    }

    if kind == ReportKind::Metrics {
        if let (Some(o), Some(n)) = (mean_ipc(old), mean_ipc(new)) {
            if n < o * (1.0 - threshold) {
                regressions.push(DiffEntry {
                    unit: "overall".to_string(),
                    metric: "mean_ipc".to_string(),
                    old: o,
                    new: n,
                });
            }
        }
    }

    changes.sort_by(|a, b| (&a.unit, &a.metric).cmp(&(&b.unit, &b.metric)));
    regressions.sort_by(|a, b| (&a.unit, &a.metric).cmp(&(&b.unit, &b.metric)));
    checksum_mismatches.sort();

    let geomean_speedup = if speedups.is_empty() {
        None
    } else {
        let ln: f64 = speedups.iter().map(|s| s.ln()).sum();
        Some((ln / speedups.len() as f64).exp())
    };

    Ok(DiffReport {
        kind,
        units_compared,
        only_in_old,
        only_in_new,
        changes,
        checksum_mismatches,
        geomean_speedup,
        regressions,
        threshold,
    })
}

impl DiffReport {
    /// Whether the tier-1 gate fails (regressions, result mismatches, or
    /// misaligned unit sets).
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
            || !self.checksum_mismatches.is_empty()
            || !self.only_in_old.is_empty()
            || !self.only_in_new.is_empty()
    }

    /// Renders the deterministic human-readable report.
    pub fn render(&self) -> String {
        let fmt = |v: f64| {
            if v.is_nan() {
                "n/a".to_string()
            } else if v.fract() == 0.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.6}")
            }
        };
        let mut out = format!(
            "prodigy-diff: {} report, {} units aligned, {} changed metrics, threshold {:.1}%\n",
            match self.kind {
                ReportKind::Sweep => "sweep",
                ReportKind::Metrics => "metrics",
            },
            self.units_compared,
            self.changes.len(),
            self.threshold * 100.0,
        );
        if let Some(g) = self.geomean_speedup {
            out.push_str(&format!(
                "geomean speedup (old/new cycles): {g:.4}x {}\n",
                if g >= 1.0 {
                    "(new is faster or equal)"
                } else {
                    "(new is slower)"
                }
            ));
        }
        for u in &self.only_in_old {
            out.push_str(&format!("  only in old: {u}\n"));
        }
        for u in &self.only_in_new {
            out.push_str(&format!("  only in new: {u}\n"));
        }
        for c in &self.checksum_mismatches {
            out.push_str(&format!(
                "  CHECKSUM MISMATCH: {c} — the two runs computed different results\n"
            ));
        }
        for c in &self.changes {
            let rel = c.rel();
            let rel_txt = if rel.is_finite() {
                format!("{:+.2}%", rel * 100.0)
            } else {
                "n/a".to_string()
            };
            out.push_str(&format!(
                "  {} | {}: {} -> {} ({})\n",
                c.unit,
                c.metric,
                fmt(c.old),
                fmt(c.new),
                rel_txt
            ));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION: {} {} {} -> {} ({:+.2}%, budget {:.1}%)\n",
                r.unit,
                r.metric,
                fmt(r.old),
                fmt(r.new),
                r.rel() * 100.0,
                self.threshold * 100.0,
            ));
        }
        if self.changes.is_empty() && self.only_in_old.is_empty() && self.only_in_new.is_empty() {
            out.push_str("  no differences — the runs are identical on every compared metric\n");
        }
        out.push_str(if self.regressed() {
            "verdict: REGRESSED\n"
        } else {
            "verdict: OK\n"
        });
        out
    }
}

// ------------------------------------------------------------------ SLOs

/// A cell value an SLO bounds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum SloValue {
    /// A latency quantile's inclusive upper bucket bound, in cycles. The
    /// bound is conservative: a passing SLO holds for the exact value too.
    Cycles(u64),
    /// A share of misses or of resident lines.
    Share(f64),
}

impl std::fmt::Display for SloValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloValue::Cycles(c) => write!(f, "{c}"),
            SloValue::Share(s) => write!(f, "{s:.6}"),
        }
    }
}

/// Reads one latency histogram of a run, if the run has it.
type HistOf = fn(&TelemetrySummary) -> Option<&Log2Hist>;
/// Picks one quantile's interval.
type QuantileOf = fn(&HistQuantiles) -> (u64, u64);
/// Computes one share of a run, if it is defined.
type ShareOf = fn(&RunOutcome) -> Option<f64>;

/// The histograms whose quantiles an SLO bounds, by name. The tier rows
/// exist only on two-tier machines.
const SLO_HISTS: [(&str, HistOf); 5] = [
    ("load_to_use", |t| Some(&t.load_to_use)),
    ("fill_to_use", |t| Some(&t.fill_to_use)),
    ("dram_round_trip", |t| Some(&t.dram_round_trip)),
    ("near_load_to_use", |t| {
        t.tiers.as_ref().map(|s| &s.near.load_to_use)
    }),
    ("far_load_to_use", |t| {
        t.tiers.as_ref().map(|s| &s.far.load_to_use)
    }),
];

/// The quantiles of each histogram, by name.
const SLO_QUANTILES: [(&str, QuantileOf); 4] = [
    ("p50", |q| q.p50),
    ("p90", |q| q.p90),
    ("p99", |q| q.p99),
    ("max", |q| q.max),
];

/// The shares an SLO bounds, by name.
const SLO_SHARES: [(&str, ShareOf); 5] = [
    // LLC demand misses manufactured by prefetch displacement over all LLC
    // demand misses; n/a for a cell that issued no prefetch.
    ("pollution_rate", |o| {
        let s = &o.summary.stats;
        let polluted = o.telemetry.pollution.l3 as f64;
        (s.prefetches_issued > 0).then(|| polluted / s.l3.misses.max(1) as f64)
    }),
    ("l1_prefetch_occupancy", |o| prefetch_share(o, 0)),
    ("l2_prefetch_occupancy", |o| prefetch_share(o, 1)),
    ("l3_prefetch_occupancy", |o| prefetch_share(o, 2)),
    // The largest single tagged source's share of resident LLC lines: how
    // much cache any one DIG node or edge holds.
    ("l3_top_source_occupancy", |o| {
        let lvl = &o.telemetry.occupancy.as_ref()?.levels[2];
        let top = lvl.sources.values().max().copied()?;
        Some(top as f64 / lvl.total().max(1) as f64)
    }),
];

/// Still-unused prefetches' share of one level's resident lines at run end;
/// `None` without a snapshot or when the level holds no lines.
fn prefetch_share(out: &RunOutcome, level: usize) -> Option<f64> {
    let lvl = &out.telemetry.occupancy.as_ref()?.levels[level];
    (lvl.total() > 0).then(|| lvl.prefetched() as f64 / lvl.total() as f64)
}

/// How an SLO reads its value from a cell's outcome.
#[derive(Debug, Clone, Copy)]
pub enum SloStat {
    /// One quantile of a latency histogram.
    Quantile(HistOf, QuantileOf),
    /// A share.
    Share(ShareOf),
}

impl SloStat {
    /// The stat `name` names: a share, or `<hist>_<quantile>` for a latency
    /// quantile. `None` for a name outside the table.
    pub fn named(name: &str) -> Option<SloStat> {
        fn find<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
            table.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
        }
        if let Some(share) = find(&SLO_SHARES, name) {
            return Some(SloStat::Share(share));
        }
        let (hist, quantile) = name.rsplit_once('_')?;
        Some(SloStat::Quantile(
            find(&SLO_HISTS, hist)?,
            find(&SLO_QUANTILES, quantile)?,
        ))
    }

    /// This stat's value in `out`; `None` (n/a) where the cell does not
    /// report it: an empty histogram, a single-tier cell's tier rows, a
    /// share with nothing to divide.
    pub fn read(self, out: &RunOutcome) -> Option<SloValue> {
        match self {
            SloStat::Quantile(hist, quantile) => {
                let q = HistQuantiles::from_hist(hist(&out.telemetry)?)?;
                Some(SloValue::Cycles(quantile(&q).1))
            }
            SloStat::Share(share) => share(out).map(SloValue::Share),
        }
    }
}

/// One `--slo` assertion: `<name><=<bound>`, a cycle count for a latency
/// quantile and a fraction for a share.
#[derive(Debug, Clone)]
pub struct Slo {
    /// The spec as written.
    pub raw: String,
    stat: SloStat,
    bound: SloValue,
    /// The bound as the violation lines print it.
    bound_text: String,
}

impl Slo {
    /// Parses `<name><=<bound>`.
    pub fn parse(spec: &str) -> Result<Slo, String> {
        let bad = |why: &str| {
            format!(
                "malformed --slo {spec:?}: {why} (e.g. load_to_use_p99<=4096 or pollution_rate<=0.05)"
            )
        };
        let (name, bound) = spec
            .split_once("<=")
            .ok_or_else(|| bad("expected <name><=<bound>"))?;
        let (name, bound) = (name.trim(), bound.trim());
        let stat = SloStat::named(name).ok_or_else(|| {
            bad(&format!(
                "unknown value {name:?}; the usage lists every name"
            ))
        })?;
        let (bound, bound_text) = match stat {
            SloStat::Quantile(..) => {
                let b = bound
                    .parse::<u64>()
                    .map_err(|_| bad("bound must be a non-negative integer cycle count"))?;
                (SloValue::Cycles(b), b.to_string())
            }
            SloStat::Share(_) => {
                let b = bound
                    .parse::<f64>()
                    .ok()
                    .filter(|b| b.is_finite() && *b >= 0.0)
                    .ok_or_else(|| bad("bound must be a finite non-negative fraction"))?;
                (SloValue::Share(b), b.to_string())
            }
        };
        Ok(Slo {
            raw: spec.to_string(),
            stat,
            bound,
            bound_text,
        })
    }
}

/// Evaluates every SLO against every cell of a sweep report. Returns the
/// rendered verdict text and whether any assertion was violated. A cell
/// without the value (a failed cell, or n/a as [`SloStat::read`] says) is
/// counted n/a, never a violation. `Err` when the report is not a sweep
/// report or a cell does not decode.
pub fn check_slos(report: &Json, slos: &[Slo]) -> Result<(String, bool), String> {
    let Some(cells) = report.get("cells").and_then(Json::as_arr) else {
        return Err("--slo needs a sweep report (prodigy-eval --json), not a metrics dump".into());
    };
    let cells = cells.iter().map(read_cell).collect::<Result<Vec<_>, _>>()?;
    let mut out = String::new();
    let mut violated = false;
    for slo in slos {
        let (mut checked, mut na) = (0usize, 0usize);
        let mut worst: Option<(SloValue, &str)> = None;
        let mut offenders = String::new();
        for (key, outcome) in &cells {
            let Some(v) = outcome.as_ref().and_then(|o| slo.stat.read(o)) else {
                na += 1;
                continue;
            };
            checked += 1;
            if worst.is_none_or(|(w, _)| v > w) {
                worst = Some((v, key));
            }
            if v > slo.bound {
                let bound = &slo.bound_text;
                offenders.push_str(&format!("    VIOLATED: {key} — {v} > {bound}\n"));
            }
        }
        violated |= !offenders.is_empty();
        let verdict = if offenders.is_empty() {
            "OK"
        } else {
            "VIOLATED"
        };
        let worst = worst.map_or("no cell reports this value".to_string(), |(w, key)| {
            format!("worst {w} ({key})")
        });
        out.push_str(&format!(
            "slo {}: {verdict} — {checked} cells checked, {na} n/a, {worst}\n{offenders}",
            slo.raw
        ));
    }
    Ok((out, violated))
}

// ----------------------------------------------------------------- merge

/// Stitches shard sweep reports (from `prodigy-eval --shard K/N`) into one
/// *canonical* merged report: `{"base_seed", "errors", "cells"}`.
///
/// The canonical form is partition-invariant: cells are deduped by key,
/// sorted by key and written as [`canonical_cell`]s (no host fields), errors
/// are sorted, report-level host counters are dropped, and numbers re-emit
/// their exact source text. Merging the report of one unsharded run
/// therefore produces *byte-identical* output to merging the reports of its
/// K/N shards, and two same-seed runs canonicalize to identical bytes — the
/// property CI's `cmp` gates lock in.
///
/// Every cell goes through [`read_cell`]: a cell whose outcome does not
/// decode fails the merge, naming the cell. Duplicate keys across inputs
/// keep the resolved (non-error) entry if one exists, else the last
/// occurrence. The merged `errors` name the merged cells that did not
/// resolve, plus the input rows that name no cell (renderer failures), so a
/// cell that failed in one input and resolved in another is not an error.
/// All inputs must be sweep reports with the same `base_seed`.
pub fn merge_reports(reports: &[Json]) -> Result<Json, String> {
    let mut base_seed: Option<&Json> = None;
    // Key → the cell and whether it resolved to an outcome.
    let mut cells: BTreeMap<&str, (&Json, bool)> = BTreeMap::new();
    let mut input_errors = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        let input = |e: String| format!("input #{}: {e}", i + 1);
        if ReportKind::detect(r)? != ReportKind::Sweep {
            return Err(input("only sweep reports (--json) can be merged".into()));
        }
        let seed = r
            .get("base_seed")
            .filter(|s| matches!(s, Json::Num(..)))
            .ok_or_else(|| input("missing base_seed".into()))?;
        match base_seed {
            Some(s) if s != seed => {
                return Err(format!(
                    "base_seed mismatch: {s} vs {seed} — shards of one sweep must share a seed"
                ))
            }
            _ => base_seed = Some(seed),
        }
        for e in r.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
            input_errors.push(CellError::from_json(e).map_err(input)?);
        }
        for cell in r.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            let (key, outcome) = read_cell(cell).map_err(input)?;
            match cells.get(key) {
                // Keep an already-merged resolved result over an error
                // entry for the same cell (e.g. a timeout retried later).
                Some(&(_, true)) if outcome.is_none() => {}
                _ => {
                    cells.insert(key, (cell, outcome.is_some()));
                }
            }
        }
    }
    let base_seed = base_seed.ok_or("nothing to merge: no input reports")?;
    let failed = cells.iter().filter(|(_, &(_, resolved))| !resolved);
    let errors: BTreeSet<CellError> = failed
        .map(|(key, (cell, _))| CellError {
            key: key.to_string(),
            reason: cell
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
        .chain(
            input_errors
                .into_iter()
                .filter(|e| !cells.contains_key(e.key.as_str())),
        )
        .collect();
    Ok(Json::obj([
        ("base_seed", base_seed.clone()),
        (
            "errors",
            Json::Arr(errors.iter().map(ToJson::to_json).collect()),
        ),
        (
            "cells",
            Json::Arr(cells.values().map(|(c, _)| canonical_cell(c)).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{cell, outcome, report};
    use prodigy_sim::json::parse_json;

    const PRODIGY: &str = "bfs|false|prodigy|16|8";
    const NONE: &str = "bfs|false|none|16|8";

    /// A finished run of `cycles` cycles with a 64-bit checksum.
    fn run(cycles: u64) -> Option<RunOutcome> {
        let mut out = outcome();
        out.summary.stats.cycles = cycles;
        out.checksum = 123_456_789_123_456_789;
        Some(out)
    }

    /// A sweep report's text: a prodigy cell of `cycles_a` cycles, then a
    /// baseline cell of `cycles_b`.
    fn sweep_json(cycles_a: u64, cycles_b: u64) -> String {
        let cells = vec![
            cell(PRODIGY, 5, run(cycles_a)),
            cell(NONE, 6, run(cycles_b)),
        ];
        report(cells).to_json().to_string()
    }

    /// The parsed report of `cells`.
    fn report_of(cells: Vec<crate::sweep::CellRecord>) -> Json {
        parse_json(&report(cells).to_json().to_string()).unwrap()
    }

    #[test]
    fn sweep_cells_flatten_everything_but_host_fields() {
        let v = parse_json(&sweep_json(1000, 2000)).unwrap();
        assert_eq!(ReportKind::detect(&v).unwrap(), ReportKind::Sweep);
        let units = units_of(ReportKind::Sweep, &v);
        assert_eq!(units.len(), 2);
        let (key, m, checksum) = &units[0];
        assert_eq!(key, PRODIGY);
        // Raw text kept for 64-bit-exact checksum comparison.
        assert_eq!(checksum.as_deref(), Some("123456789123456789"));
        assert!(!m.contains_key("checksum"), "identity, not a metric");
        assert_eq!(m["summary.stats.cycles"].1, "1000");
        assert!(m.keys().any(|k| k.starts_with("telemetry.")) && m.contains_key("error"));
        assert!(!m.keys().any(|k| k.starts_with("timing") || k == "worker"));
    }

    #[test]
    fn identical_reports_diff_to_zero_and_pass() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let b = parse_json(&sweep_json(1000, 2000)).unwrap();
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert_eq!(d.units_compared, 2);
        assert!(d.changes.is_empty());
        assert!(!d.regressed());
        assert_eq!(d.geomean_speedup, Some(1.0));
        assert!(d.render().contains("verdict: OK"));
    }

    #[test]
    fn five_percent_cycle_regression_trips_the_two_percent_gate() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let b = parse_json(&sweep_json(1050, 2000)).unwrap(); // +5% on one cell
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert!(d.regressed());
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].metric, "summary.stats.cycles");
        assert_eq!(d.regressions[0].unit, PRODIGY);
        assert!(d.render().contains("verdict: REGRESSED"));
        // The change itself is also listed.
        assert!(d.changes.iter().any(|c| c.metric == "summary.stats.cycles"));
    }

    #[test]
    fn one_percent_drift_stays_under_the_two_percent_gate() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let b = parse_json(&sweep_json(1010, 2000)).unwrap(); // +1%
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert!(!d.regressed());
        assert!(!d.changes.is_empty(), "the drift is still reported");
        // A faster run never regresses, at any threshold.
        let c = parse_json(&sweep_json(900, 2000)).unwrap();
        assert!(!diff_reports(&a, &c, 0.0).unwrap().regressed());
    }

    #[test]
    fn checksum_mismatch_is_a_failure_even_with_equal_cycles() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let txt = sweep_json(1000, 2000).replace("123456789123456789", "123456789123456788");
        let b = parse_json(&txt).unwrap();
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert!(d.regressed());
        assert_eq!(d.checksum_mismatches.len(), 2);
        assert!(d.changes.is_empty(), "the checksum is not a metric");
    }

    #[test]
    fn metrics_dumps_align_by_window_and_gate_on_mean_ipc() {
        let m = |ipc1: f64, ipc2: f64| {
            format!(
                r#"{{"workload":"bfs-lj","seed":0,"window_cycles":1000,"windows_closed":2,
                    "samples":[
                      {{"cycle":1000,"instructions":800,"ipc":{ipc1},"l1_miss_rate":0.1,
                        "l2_miss_rate":null,"l3_miss_rate":null,"mlp":0.5,
                        "dram_queue_depth":1.0,"prefetch_accuracy":null,
                        "prefetch_coverage":null}},
                      {{"cycle":2000,"instructions":900,"ipc":{ipc2},"l1_miss_rate":0.1,
                        "l2_miss_rate":null,"l3_miss_rate":null,"mlp":0.5,
                        "dram_queue_depth":1.0,"prefetch_accuracy":0.7,
                        "prefetch_coverage":0.4}}],
                    "attribution":[
                      {{"tag":257,"label":"0->1","issued":100,"timely":80,"late":15,
                        "inaccurate":5,"dropped":2}}]}}"#
            )
        };
        let a = parse_json(&m(0.8, 0.9)).unwrap();
        assert_eq!(ReportKind::detect(&a).unwrap(), ReportKind::Metrics);
        let same = parse_json(&m(0.8, 0.9)).unwrap();
        let d = diff_reports(&a, &same, 0.02).unwrap();
        assert_eq!(d.units_compared, 3, "2 windows + 1 attribution source");
        assert!(d.changes.is_empty() && !d.regressed());
        // A 10% IPC drop trips the 2% gate; 1% does not.
        let slow = parse_json(&m(0.72, 0.81)).unwrap();
        let d = diff_reports(&a, &slow, 0.02).unwrap();
        assert!(d.regressed());
        assert_eq!(d.regressions[0].metric, "mean_ipc");
        let drift = parse_json(&m(0.796, 0.896)).unwrap();
        assert!(!diff_reports(&a, &drift, 0.02).unwrap().regressed());
    }

    #[test]
    fn mismatched_kinds_and_missing_units_are_reported() {
        let sweep = parse_json(&sweep_json(1000, 2000)).unwrap();
        let metrics = parse_json(r#"{"samples":[]}"#).unwrap();
        assert!(diff_reports(&sweep, &metrics, 0.02).is_err());

        let renamed =
            parse_json(&sweep_json(1000, 2000).replace(NONE, "cc|false|none|16|8")).unwrap();
        let d = diff_reports(&sweep, &renamed, 0.02).unwrap();
        assert_eq!(d.units_compared, 1);
        assert_eq!(d.only_in_old, vec![NONE]);
        assert_eq!(d.only_in_new, vec!["cc|false|none|16|8"]);
        assert!(d.regressed(), "unaligned cells fail the gate");
        assert!(d.render().contains("verdict: REGRESSED"));

        // A report missing one cell fails too, in either direction.
        let missing = one_cell(&sweep, 0);
        assert!(diff_reports(&sweep, &missing, 0.02).unwrap().regressed());
        assert!(diff_reports(&missing, &sweep, 0.02).unwrap().regressed());
    }

    /// Replaces the value of `key` in object `v`.
    fn set(v: &mut Json, key: &str, val: Json) {
        let Json::Obj(m) = v else {
            panic!("not an object")
        };
        m.iter_mut().find(|(k, _)| k == key).expect("key present").1 = val;
    }

    /// A copy of `full` whose cell list holds only cell `keep`.
    fn one_cell(full: &Json, keep: usize) -> Json {
        let cells = full.get("cells").unwrap().as_arr().unwrap();
        let mut v = full.clone();
        set(&mut v, "cells", Json::Arr(vec![cells[keep].clone()]));
        v
    }

    #[test]
    fn merging_shards_is_byte_identical_to_merging_the_full_report() {
        let full = parse_json(&sweep_json(1000, 2000)).unwrap();
        let merged_full = merge_reports(std::slice::from_ref(&full)).unwrap();
        // Shards in either order produce the same canonical bytes.
        let s1 = one_cell(&full, 0);
        let s2 = one_cell(&full, 1);
        let a = merge_reports(&[s1.clone(), s2.clone()]).unwrap();
        let b = merge_reports(&[s2, s1]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, merged_full);
        // The canonical form parses, and diffs clean against the original
        // unsharded report: simulated metrics are untouched by the merge.
        // No host fields survive; everything else is re-emitted verbatim.
        let text = a.to_string();
        assert!(!text.contains("timing") && !text.contains("worker"));
        assert!(text.starts_with(&format!(
            "{{\"base_seed\":0,\"errors\":[],\"cells\":[{{\"key\":\"{NONE}\",\"summary\":"
        )));
        let m = parse_json(&text).unwrap();
        let d = diff_reports(&full, &m, 0.02).unwrap();
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert!(!d.regressed());
        assert_eq!(d.units_compared, 2);
        // A merged report merges to itself.
        assert_eq!(merge_reports(&[m]).unwrap(), a);
    }

    #[test]
    fn merge_rejects_mixed_seeds_kinds_and_empty_input() {
        assert!(merge_reports(&[]).is_err());
        let full = parse_json(&sweep_json(1000, 2000)).unwrap();
        let metrics = parse_json(r#"{"samples":[]}"#).unwrap();
        assert!(merge_reports(&[full.clone(), metrics]).is_err());
        let other_seed =
            parse_json(&sweep_json(1000, 2000).replace("\"base_seed\":0", "\"base_seed\":7"))
                .unwrap();
        let err = merge_reports(&[full, other_seed]).unwrap_err();
        assert!(err.contains("base_seed mismatch"), "{err}");
    }

    #[test]
    fn merge_prefers_resolved_cells_over_error_entries() {
        let full = parse_json(&sweep_json(1000, 2000)).unwrap();
        // An error-only record of cell 0 and its error row, as a timed-out
        // first attempt leaves behind.
        let failed = report_of(vec![cell(PRODIGY, 7, None)]);
        let merged = merge_reports(&[failed.clone(), full.clone()]).unwrap();
        let merged_rev = merge_reports(&[full.clone(), failed]).unwrap();
        assert_eq!(merged, merged_rev, "resolved result wins in any order");
        assert_eq!(merged, merge_reports(std::slice::from_ref(&full)).unwrap());
    }

    #[test]
    fn merged_errors_name_only_cells_that_stayed_failed() {
        let full = parse_json(&sweep_json(1000, 2000)).unwrap();
        let errors = |merged: &Json| -> Vec<CellError> {
            let rows = merged.get("errors").unwrap().as_arr().unwrap();
            rows.iter()
                .map(|e| CellError::from_json(e).unwrap())
                .collect()
        };
        let failed = CellError {
            key: PRODIGY.into(),
            reason: "timed out after 1.0s".into(),
        };
        let render_error = CellError {
            key: "fig02".into(),
            reason: "renderer panicked".into(),
        };
        // A timed-out shard: cell 0 failed and a renderer failed, each with
        // its error row.
        let mut shard = report(vec![cell(PRODIGY, 7, None)]);
        shard.render_errors.push(render_error.clone());
        let timed_out = parse_json(&shard.to_json().to_string()).unwrap();
        assert_eq!(errors(&timed_out), [failed.clone(), render_error.clone()]);

        // Retried: the clean re-run resolves the cell, in either order, and
        // only the renderer's row is left.
        let retried = merge_reports(&[timed_out.clone(), full.clone()]).unwrap();
        assert_eq!(
            retried,
            merge_reports(&[full.clone(), timed_out.clone()]).unwrap()
        );
        assert_eq!(errors(&retried), std::slice::from_ref(&render_error));

        // Still failed: the other input holds only the baseline cell, so
        // cell 0's row stays, derived from the merged cell.
        let still = merge_reports(&[timed_out, one_cell(&full, 1)]).unwrap();
        assert_eq!(errors(&still), [failed.clone(), render_error]);
        assert_eq!(still.get("cells").unwrap().as_arr().unwrap().len(), 2);

        // A row whose cell is absent from every input names no cell: kept.
        let mut orphan = one_cell(&full, 1);
        set(&mut orphan, "errors", Json::Arr(vec![failed.to_json()]));
        assert_eq!(errors(&merge_reports(&[orphan]).unwrap()), [failed]);
    }

    #[test]
    fn host_timing_fields_never_produce_changes() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let txt = sweep_json(1000, 2000)
            .replace("\"wall_nanos\":1000000", "\"wall_nanos\":999999")
            .replace("\"host_nanos\":5", "\"host_nanos\":777")
            .replace("\"worker\":0,", "\"worker\":1,");
        assert_ne!(txt, sweep_json(1000, 2000));
        let b = parse_json(&txt).unwrap();
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert!(!d.regressed());
        assert_eq!(merge_reports(&[b]).unwrap(), merge_reports(&[a]).unwrap());
    }

    #[test]
    fn provenance_changes_show_in_the_diff() {
        // Pollution and occupancy are simulated results like any counter:
        // a changed value, or a snapshot present on one side only, is a
        // change the diff reports.
        let with = |polluted: u64, occupancy: bool| {
            let mut out = run(1000).unwrap();
            out.telemetry.pollution.l3 = polluted;
            if !occupancy {
                out.telemetry.occupancy = None;
            }
            report_of(vec![cell(PRODIGY, 5, Some(out))])
        };
        let a = with(3, true);
        assert!(diff_reports(&a, &a, 0.02).unwrap().changes.is_empty());
        let d = diff_reports(&a, &with(6, true), 0.02).unwrap();
        let metrics: Vec<&str> = d.changes.iter().map(|c| c.metric.as_str()).collect();
        assert_eq!(metrics, ["telemetry.pollution.l3"]);
        let d = diff_reports(&with(3, false), &a, 0.02).unwrap();
        assert!(
            d.changes
                .iter()
                .any(|c| c.metric.starts_with("telemetry.occupancy.")),
            "{:?}",
            d.changes
        );
    }

    #[test]
    fn the_slo_table_reads_each_value_from_the_outcome_or_na() {
        let slo = |name: &str, out: &RunOutcome| SloStat::named(name).unwrap().read(out);
        let out = outcome();
        // One 3-cycle load-to-use sample: bucket [2, 3]. No fill-to-use
        // sample, no tier split, no prefetch issued, an empty L2, no
        // tagged source: each of those reads n/a.
        assert_eq!(slo("load_to_use_p99", &out), Some(SloValue::Cycles(3)));
        assert_eq!(
            slo("l1_prefetch_occupancy", &out),
            Some(SloValue::Share(0.25))
        );
        for na in [
            "fill_to_use_p50",
            "near_load_to_use_max",
            "far_load_to_use_p99",
            "pollution_rate",
            "l2_prefetch_occupancy",
            "l3_top_source_occupancy",
        ] {
            assert_eq!(slo(na, &out), None, "{na}");
        }
        let mut other = out;
        let split = other.telemetry.tiers_mut();
        split.near.load_to_use.record(100);
        split.far.load_to_use.record(500);
        other.summary.stats.prefetches_issued = 4;
        other.telemetry.pollution.l3 = 1;
        let occupancy = other.telemetry.occupancy.as_mut().unwrap();
        occupancy.levels[2].sources.insert(0x101, 2);
        assert_eq!(
            slo("near_load_to_use_p99", &other),
            Some(SloValue::Cycles(127))
        );
        assert_eq!(
            slo("far_load_to_use_max", &other),
            Some(SloValue::Cycles(511))
        );
        assert_eq!(slo("pollution_rate", &other), Some(SloValue::Share(0.5)));
        assert_eq!(
            slo("l3_top_source_occupancy", &other),
            Some(SloValue::Share(0.2))
        );
        for name in ["load_to_use", "load_to_use_p42", "pollution", ""] {
            assert!(SloStat::named(name).is_none(), "{name}");
        }
    }

    #[test]
    fn check_slos_counts_failed_cells_na_and_compares_exact_shares() {
        // A third of L1's lines are unused prefetches: 0.333333 as text,
        // above a 0.333333 bound as a value.
        let mut third = outcome();
        let l1 = &mut third.telemetry.occupancy.as_mut().unwrap().levels[0];
        (l1.demand, l1.untagged) = (2, 1);
        let r = report_of(vec![
            cell("a", 1, Some(outcome())),
            cell("b", 1, Some(third)),
            cell("f", 1, None),
        ]);
        let slos = [
            "load_to_use_p99<=2",
            "l1_prefetch_occupancy<=0.333333",
            "fill_to_use_p50<=0",
        ]
        .map(|s| Slo::parse(s).unwrap());
        assert_eq!(
            check_slos(&r, &slos).unwrap(),
            (
                "slo load_to_use_p99<=2: VIOLATED — 2 cells checked, 1 n/a, worst 3 (a)\n\
                 \x20   VIOLATED: a — 3 > 2\n\
                 \x20   VIOLATED: b — 3 > 2\n\
                 slo l1_prefetch_occupancy<=0.333333: VIOLATED — 2 cells checked, 1 n/a, worst 0.333333 (b)\n\
                 \x20   VIOLATED: b — 0.333333 > 0.333333\n\
                 slo fill_to_use_p50<=0: OK — 0 cells checked, 3 n/a, no cell reports this value\n"
                    .to_string(),
                true
            )
        );
        // A metrics dump, or a cell that does not decode, is an error.
        assert!(check_slos(&parse_json(r#"{"samples":[]}"#).unwrap(), &slos).is_err());
        let bad = parse_json(&r.to_string().replacen("\"seed\":3", "\"seed\":-3", 1)).unwrap();
        assert!(check_slos(&bad, &slos).unwrap_err().starts_with("cell a: "));
    }
}
