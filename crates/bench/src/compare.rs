//! Run-to-run diff/regression analysis and shard merging for benchmark
//! artifacts.
//!
//! Loads two JSON reports produced by this repo — sweep reports
//! (`prodigy-eval --json`) or windowed metrics dumps (`prodigy-eval
//! --metrics`) — aligns their units by identity (cell key, or window start
//! cycle), and reports every numeric delta plus a tier-1 regression verdict.
//!
//! A sweep cell is compared in its canonical form ([`canonical_cell`]):
//! everything except its host fields, i.e. the derived `stats` view plus the
//! full simulated outcome (all counters, energy, Prodigy counters, and
//! telemetry including pollution and occupancy). All of it is deterministic
//! for a seed, and numbers compare by their exact text, so a clean same-seed
//! pair diffs to *zero* changes and any delta is a real behavioural
//! difference. Report-level host counters (wall time, workers, utilization)
//! live outside `cells` and are never compared.

use crate::sweep::{canonical_cell, CellError};
use prodigy_sim::json::{FromJson, Json, ToJson};
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
                // The checksum is identity, not a metric (the outcome
                // repeats the `stats` view's copy at the top level).
                m.remove("checksum");
                let checksum = m.remove("stats.checksum").map(|(_, raw)| raw);
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
/// (0.02 = 2%): a cell whose `stats.cycles` grows past it — or a metrics
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
            if let (Some(&(oc, _)), Some(&(nc, _))) =
                (old_m.get("stats.cycles"), new_m.get("stats.cycles"))
            {
                if oc > 0.0 && nc > 0.0 {
                    speedups.push(oc / nc);
                    if nc > oc * (1.0 + threshold) {
                        regressions.push(DiffEntry {
                            unit: key.to_string(),
                            metric: "stats.cycles".to_string(),
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
/// Duplicate keys across inputs keep the resolved (non-error) entry if one
/// exists, else the last occurrence. All inputs must be sweep reports with
/// the same `base_seed`.
pub fn merge_reports(reports: &[Json]) -> Result<Json, String> {
    let mut base_seed: Option<&Json> = None;
    let mut cells: BTreeMap<&str, &Json> = BTreeMap::new();
    let mut errors = BTreeSet::new();
    for (i, r) in reports.iter().enumerate() {
        if ReportKind::detect(r)? != ReportKind::Sweep {
            return Err(format!(
                "input #{}: only sweep reports (--json) can be merged",
                i + 1
            ));
        }
        let seed = r
            .get("base_seed")
            .filter(|s| matches!(s, Json::Num(..)))
            .ok_or_else(|| format!("input #{}: missing base_seed", i + 1))?;
        match base_seed {
            Some(s) if s != seed => {
                return Err(format!(
                    "base_seed mismatch: {s} vs {seed} — shards of one sweep must share a seed"
                ))
            }
            _ => base_seed = Some(seed),
        }
        for e in r.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
            errors.insert(CellError::from_json(e).map_err(|e| format!("input #{}: {e}", i + 1))?);
        }
        for cell in r.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(key) = cell.get("key").and_then(Json::as_str) else {
                continue;
            };
            let resolved = |c: &Json| !matches!(c.get("stats"), None | Some(Json::Null));
            match cells.get(key) {
                // Keep an already-merged resolved result over an error
                // entry for the same cell (e.g. a timeout retried later).
                Some(prev) if resolved(prev) && !resolved(cell) => {}
                _ => {
                    cells.insert(key, cell);
                }
            }
        }
    }
    let base_seed = base_seed.ok_or("nothing to merge: no input reports")?;
    Ok(Json::obj([
        ("base_seed", base_seed.clone()),
        (
            "errors",
            Json::Arr(errors.iter().map(ToJson::to_json).collect()),
        ),
        (
            "cells",
            Json::Arr(cells.values().map(|c| canonical_cell(c)).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_sim::json::parse_json;

    fn sweep_json(cycles_a: u64, cycles_b: u64) -> String {
        format!(
            r#"{{"threads":2,"base_seed":0,"host":{{"cells_simulated":2,"memo_hits":0,
                "wall_nanos":12345,"cells_per_sec":1.0,"utilization":0.5}},
                "workers":[{{"worker":0,"busy_nanos":99,"jobs":2}}],
                "errors":[],
                "cells":[
                  {{"key":"bfs|orig|prodigy|16|plain|0","timing":{{"host_nanos":5}},"worker":0,
                    "stats":{{"cycles":{cycles_a},"instructions":2000,"ipc":1.0,"checksum":123456789123456789,
                             "l1_misses":10,"l2_misses":5,"l3_misses":2,"dram_reads":2,
                             "prefetches_issued":7,"prefetch_accuracy":0.5,"prefetch_coverage":null}},
                    "telemetry":null,"error":null}},
                  {{"key":"bfs|orig|none|16|plain|0","timing":{{"host_nanos":6}},"worker":0,
                    "stats":{{"cycles":{cycles_b},"instructions":2000,"ipc":0.8,"checksum":123456789123456789,
                             "l1_misses":11,"l2_misses":6,"l3_misses":3,"dram_reads":3,
                             "prefetches_issued":0,"prefetch_accuracy":null,"prefetch_coverage":null}},
                    "telemetry":null,"error":null}}
                ]}}"#
        )
    }

    #[test]
    fn sweep_cells_flatten_everything_but_host_fields() {
        let v = parse_json(&sweep_json(1000, 2000)).unwrap();
        assert_eq!(ReportKind::detect(&v).unwrap(), ReportKind::Sweep);
        let units = units_of(ReportKind::Sweep, &v);
        assert_eq!(units.len(), 2);
        let (key, m, checksum) = &units[0];
        assert_eq!(key, "bfs|orig|prodigy|16|plain|0");
        // Raw text kept for 64-bit-exact checksum comparison.
        assert_eq!(checksum.as_deref(), Some("123456789123456789"));
        assert_eq!(m["stats.cycles"].1, "1000");
        assert!(m.contains_key("telemetry") && m.contains_key("error"));
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
        assert_eq!(d.regressions[0].metric, "stats.cycles");
        assert!(d.regressions[0].unit.contains("prodigy"));
        assert!(d.render().contains("verdict: REGRESSED"));
        // The change itself is also listed (cycles + derived ipc).
        assert!(d.changes.iter().any(|c| c.metric == "stats.cycles"));
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
                        "prefetch_coverage":null,"throttle_level":4}},
                      {{"cycle":2000,"instructions":900,"ipc":{ipc2},"l1_miss_rate":0.1,
                        "l2_miss_rate":null,"l3_miss_rate":null,"mlp":0.5,
                        "dram_queue_depth":1.0,"prefetch_accuracy":0.7,
                        "prefetch_coverage":0.4,"throttle_level":4}}],
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

        let mut txt = sweep_json(1000, 2000);
        txt = txt.replace("bfs|orig|none|16|plain|0", "cc|orig|none|16|plain|0");
        let renamed = parse_json(&txt).unwrap();
        let d = diff_reports(&sweep, &renamed, 0.02).unwrap();
        assert_eq!(d.units_compared, 1);
        assert_eq!(d.only_in_old, vec!["bfs|orig|none|16|plain|0"]);
        assert_eq!(d.only_in_new, vec!["cc|orig|none|16|plain|0"]);
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
        assert!(text.starts_with("{\"base_seed\":0,\"errors\":[],\"cells\":[{\"key\":"));
        let m = parse_json(&text).unwrap();
        let d = diff_reports(&full, &m, 0.02).unwrap();
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert!(!d.regressed());
        assert_eq!(d.units_compared, 2);
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
        // An error-only duplicate of cell 0 (stats null), as a timed-out
        // first attempt would leave behind.
        let mut failed = one_cell(&full, 0);
        let mut cell = failed.get("cells").unwrap().as_arr().unwrap()[0].clone();
        set(&mut cell, "stats", Json::Null);
        set(&mut cell, "error", Json::Str("timed out after 1.0s".into()));
        set(&mut failed, "cells", Json::Arr(vec![cell]));
        let merged = merge_reports(&[failed.clone(), full.clone()]).unwrap();
        let merged_rev = merge_reports(&[full.clone(), failed]).unwrap();
        assert_eq!(merged, merged_rev, "resolved result wins in any order");
        assert_eq!(merged, merge_reports(std::slice::from_ref(&full)).unwrap());
    }

    #[test]
    fn host_timing_fields_never_produce_changes() {
        let a = parse_json(&sweep_json(1000, 2000)).unwrap();
        let txt = sweep_json(1000, 2000)
            .replace("\"wall_nanos\":12345", "\"wall_nanos\":999999")
            .replace("\"host_nanos\":5", "\"host_nanos\":777")
            .replace("\"busy_nanos\":99", "\"busy_nanos\":1")
            // Older reports carry a per-cell host_profile section; it must
            // be as invisible to the diff as the rest of the host timing.
            .replace(
                "\"worker\":0,",
                "\"worker\":0,\"host_profile\":{\"host_nanos_total\":777,\"other_ns\":9,\
                 \"components\":{\"kernel\":{\"self_ns\":768,\"allocs\":3}}},",
            );
        let b = parse_json(&txt).unwrap();
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert!(d.changes.is_empty(), "{:?}", d.changes);
        assert!(!d.regressed());
    }

    #[test]
    fn provenance_changes_show_in_the_diff() {
        // Pollution and occupancy are simulated results like any counter:
        // a changed value, or a column present on one side only, is a
        // change the diff reports.
        let with = |rate: &str| {
            sweep_json(1000, 2000)
                .replace(
                    "\"prefetch_coverage\":null}",
                    &format!("\"prefetch_coverage\":null,\"pollution_rate\":{rate}}}"),
                )
                .replace(
                    "\"telemetry\":null",
                    "\"telemetry\":{\"polluting\":6,\"pollution\":{\"l1\":1,\"l2\":2,\"l3\":3}}",
                )
        };
        let a = parse_json(&with("0.250000")).unwrap();
        assert!(diff_reports(&a, &a, 0.02).unwrap().changes.is_empty());
        let b = parse_json(&with("0.500000")).unwrap();
        let d = diff_reports(&a, &b, 0.02).unwrap();
        assert_eq!(d.changes.len(), 2, "{:?}", d.changes);
        assert!(d.changes.iter().all(|c| c.metric == "stats.pollution_rate"));
        let bare = parse_json(&sweep_json(1000, 2000)).unwrap();
        let d = diff_reports(&bare, &a, 0.02).unwrap();
        assert!(d
            .changes
            .iter()
            .any(|c| c.metric == "telemetry.pollution.l3"));
        assert!(d.changes.iter().any(|c| c.metric == "stats.pollution_rate"));
    }
}
