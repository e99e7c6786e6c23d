//! Parallel, deterministic sweep-execution machinery.
//!
//! The evaluation grid (workload × prefetcher × knobs `Cell`s, see
//! [`crate::experiments`]) is embarrassingly parallel: every cell builds its
//! own [`prodigy_sim::System`] and shares nothing. This module holds the
//! sweep executor's two pieces and the report it fills:
//!
//! * [`run_isolated`] — per-cell panic *and* timeout isolation, so one
//!   diverging simulation fails that cell with a recorded error instead of
//!   aborting the whole sweep;
//! * [`run_pool`] — a bounded worker pool over `std::thread::scope`,
//!   reporting per-worker busy time and jobs for the utilization report;
//! * [`SweepReport`] — one [`CellRecord`] per cell the sweep ran, from
//!   which every counter of the report is derived.
//!
//! Determinism: cells are seeded from their spec identity (never from
//! execution order, thread id, or time), so a parallel sweep is
//! bit-identical to a serial one — `tests/determinism.rs` locks this in.

use prodigy_sim::json::{Json, ToJson};
use prodigy_workloads::RunOutcome;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Knobs of a sweep run.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Worker threads for [`run_pool`]-based warming (≥ 1).
    pub threads: usize,
    /// Base seed mixed into every cell's workload seed. 0 keeps the seed
    /// repo's original inputs.
    pub base_seed: u64,
    /// Per-cell wall-clock budget. A cell exceeding it fails with a
    /// recorded error; `None` disables the watchdog (and the extra thread
    /// per cell it requires).
    pub cell_timeout: Option<Duration>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            base_seed: 0,
            cell_timeout: None,
        }
    }
}

/// Why a cell (or an experiment's renderer) failed: panic message or
/// timeout.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellError {
    /// The failing cell's cache key, or the failing experiment's name.
    pub key: String,
    /// Human-readable cause.
    pub reason: String,
}

// `{"key":..,"reason":..}`: the report's `errors` rows.
prodigy_sim::json_object!(CellError { key, reason });

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} failed: {}", self.key, self.reason)
    }
}

/// Structured failure from [`run_isolated`]: the message plus whether a
/// timed-out job's thread had to be detached (see [`run_isolated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolatedError {
    /// Human-readable cause (panic message or timeout notice).
    pub reason: String,
    /// True when the timed-out worker was still running after the
    /// post-cancel grace window and had to be detached. Only these threads
    /// keep burning a core; the caller counts them toward
    /// `threads_leaked`.
    pub leaked: bool,
}

/// How long [`run_isolated`] waits after raising the cancel flag before
/// declaring a timed-out worker truly stuck. A cancel-aware cell unwinds at
/// its next phase-scheduler poll — microseconds of simulated work — so this
/// window is generous; a divergent cell that never polls blows through it
/// and is counted as leaked.
const CANCEL_GRACE: Duration = Duration::from_millis(200);

/// Runs `job`, converting a panic into a structured error and — when
/// `timeout` is set — abandoning it after the budget elapses.
///
/// The job receives a cooperative cancel flag. Cells thread it into
/// [`prodigy_workloads::RunConfig::cancel`] so the phase scheduler polls it;
/// jobs with no cancellation points may ignore it.
///
/// The timeout path runs the job on a dedicated named thread and waits with
/// `recv_timeout`; on expiry the cancel flag is raised and the worker gets a
/// short grace window ([`CANCEL_GRACE`]) to honour it. A cancel-aware job
/// unwinds at its next scheduler boundary, lands inside the window, and is
/// joined — the error then carries `leaked: false`. A truly divergent cell
/// that never reaches a cancellation point is *detached*, not killed (Rust
/// has no safe thread cancellation), and the error carries `leaked: true`
/// so callers can account for the abandonment
/// ([`SweepReport::threads_leaked`]). Without a timeout the job runs inline
/// under `catch_unwind` — no extra thread.
pub fn run_isolated<T: Send + 'static>(
    label: &str,
    timeout: Option<Duration>,
    job: impl FnOnce(Arc<AtomicBool>) -> T + Send + 'static,
) -> Result<T, IsolatedError> {
    let panic_err = |p: Box<dyn std::any::Any + Send>| IsolatedError {
        reason: panic_message(p.as_ref()),
        leaked: false,
    };
    let cancel = Arc::new(AtomicBool::new(false));
    match timeout {
        None => {
            let flag = Arc::clone(&cancel);
            catch_unwind(AssertUnwindSafe(move || job(flag))).map_err(panic_err)
        }
        Some(budget) => {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let thread_name = format!("cell-{}", label.chars().take(24).collect::<String>());
            let flag = Arc::clone(&cancel);
            let handle = std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(move || job(flag))));
                })
                .expect("spawn cell thread");
            match rx.recv_timeout(budget) {
                Ok(Ok(v)) => {
                    let _ = handle.join();
                    Ok(v)
                }
                Ok(Err(p)) => {
                    let _ = handle.join();
                    Err(panic_err(p))
                }
                Err(_) => {
                    // Ask the worker to bail at its next cancellation point,
                    // then give it a short grace window to do so. A
                    // cancel-aware cell unwinds promptly (its "run
                    // cancelled" panic arrives on the channel and is
                    // discarded) and its thread is joined — no leak. Only a
                    // worker still running after the grace window is
                    // detached and counted as leaked.
                    cancel.store(true, Ordering::Relaxed);
                    let leaked = match rx.recv_timeout(CANCEL_GRACE) {
                        Ok(_) => {
                            let _ = handle.join();
                            false
                        }
                        Err(_) => {
                            drop(handle); // detach the runaway thread
                            true
                        }
                    };
                    Err(IsolatedError {
                        reason: format!("timed out after {:.1}s", budget.as_secs_f64()),
                        leaked,
                    })
                }
            }
        }
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// One pool worker's accounting.
#[derive(Debug, Clone, Copy)]
pub struct WorkerStat {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// Time spent executing jobs (excludes idle waits on the queue).
    pub busy: Duration,
    /// Jobs this worker executed.
    pub jobs: u64,
}

/// Runs `f` over `items` on a bounded pool of `threads` scoped workers.
///
/// Workers take the next item from one shared queue, so a slow cell never
/// strands queued work behind one worker. Returns per-worker busy time and
/// job counts (for the utilization report). `f` must not panic — route
/// fallible work through [`run_isolated`].
pub fn run_pool<T, F>(items: Vec<T>, threads: usize, f: F) -> Vec<WorkerStat>
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    let queue = Mutex::new(items.into_iter());
    let stats: Mutex<Vec<WorkerStat>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..threads {
            let (f, queue, stats) = (&f, &queue, &stats);
            s.spawn(move || {
                let mut busy = Duration::ZERO;
                let mut jobs = 0u64;
                loop {
                    // Its own statement, so the queue is unlocked before
                    // the job runs.
                    let next = queue.lock().expect("no job runs under the lock").next();
                    let Some(item) = next else { break };
                    let t0 = Instant::now();
                    f(w, item);
                    busy += t0.elapsed();
                    jobs += 1;
                }
                stats.lock().unwrap().push(WorkerStat {
                    worker: w,
                    busy,
                    jobs,
                });
            });
        }
    });
    let mut v = stats.into_inner().unwrap();
    v.sort_by_key(|s| s.worker);
    v
}

/// Deterministic numeric summary of one successful cell — the values
/// `prodigy-diff` aligns by cell key and compares run-to-run. Everything
/// here comes from simulated [`prodigy_sim::Stats`] (never host timing), so
/// two same-seed sweeps serialize bit-identical `stats` objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Simulated cycles (the tier-1 regression metric).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Kernel result checksum (semantic identity across runs).
    pub checksum: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC misses.
    pub l3_misses: u64,
    /// DRAM read transactions.
    pub dram_reads: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Prefetch accuracy; `None` when no prefetch resolved.
    pub prefetch_accuracy: Option<f64>,
    /// Prefetch coverage; `None` when there was nothing to cover.
    pub prefetch_coverage: Option<f64>,
    /// Load-to-use latency quantiles (bucket-bound intervals, exact and
    /// deterministic); `None` when the histogram recorded no samples.
    pub load_to_use: Option<prodigy_sim::HistQuantiles>,
    /// Fill-to-use timeliness quantiles; `None` when empty.
    pub fill_to_use: Option<prodigy_sim::HistQuantiles>,
    /// DRAM round-trip latency quantiles; `None` when empty.
    pub dram_round_trip: Option<prodigy_sim::HistQuantiles>,
    /// Near-tier (DRAM) demand load-to-use quantiles. `None` on single-tier
    /// runs — the row is then absent from the JSON too, keeping single-tier
    /// reports byte-identical to pre-tier baselines.
    pub near_load_to_use: Option<prodigy_sim::HistQuantiles>,
    /// Far-tier demand load-to-use quantiles; the `prodigy-diff --slo
    /// far_load_to_use_p99<=N` gate reads this row. `None` on single-tier
    /// runs (absent from the JSON).
    pub far_load_to_use: Option<prodigy_sim::HistQuantiles>,
    /// Pollution rate: LLC demand misses manufactured by prefetch
    /// displacement (shadow-victim-table hits) over all LLC demand misses.
    /// `None` when the cell issued no prefetches (matching the
    /// accuracy/coverage n/a convention); gateable via `prodigy-diff --slo
    /// "pollution_rate<=N"`.
    pub pollution_rate: Option<f64>,
    /// Fraction of resident L1 lines that are still-unused prefetches at
    /// run end; `None` when no occupancy snapshot was captured or the
    /// level is empty.
    pub l1_prefetch_occupancy: Option<f64>,
    /// As above, for the L2.
    pub l2_prefetch_occupancy: Option<f64>,
    /// As above, for the LLC.
    pub l3_prefetch_occupancy: Option<f64>,
    /// Largest single tagged source's share of resident LLC lines — the
    /// per-source occupancy assertion `prodigy-diff --slo
    /// "l3_top_source_occupancy<=N"` bounds how much cache any one DIG
    /// node/edge may hold. `None` when no tagged prefetch is resident.
    pub l3_top_source_occupancy: Option<f64>,
}

impl CellStats {
    /// Extracts the summary from a finished run.
    pub fn from_outcome(out: &prodigy_workloads::RunOutcome) -> Self {
        let s = &out.summary.stats;
        CellStats {
            cycles: s.cycles,
            instructions: s.instructions,
            ipc: s.instructions as f64 / s.cycles.max(1) as f64,
            checksum: out.checksum,
            l1_misses: s.l1d.misses,
            l2_misses: s.l2.misses,
            l3_misses: s.l3.misses,
            dram_reads: s.dram_reads,
            prefetches_issued: s.prefetches_issued,
            prefetch_accuracy: s.prefetch_use.accuracy(),
            prefetch_coverage: s.prefetch_coverage(),
            load_to_use: prodigy_sim::HistQuantiles::from_hist(&out.telemetry.load_to_use),
            fill_to_use: prodigy_sim::HistQuantiles::from_hist(&out.telemetry.fill_to_use),
            dram_round_trip: prodigy_sim::HistQuantiles::from_hist(&out.telemetry.dram_round_trip),
            near_load_to_use: out
                .telemetry
                .tiers
                .and_then(|t| prodigy_sim::HistQuantiles::from_hist(&t.near.load_to_use)),
            far_load_to_use: out
                .telemetry
                .tiers
                .and_then(|t| prodigy_sim::HistQuantiles::from_hist(&t.far.load_to_use)),
            pollution_rate: if s.prefetches_issued == 0 {
                None
            } else {
                Some(out.telemetry.pollution.l3 as f64 / s.l3.misses.max(1) as f64)
            },
            l1_prefetch_occupancy: Self::prefetch_share(&out.telemetry.occupancy, 0),
            l2_prefetch_occupancy: Self::prefetch_share(&out.telemetry.occupancy, 1),
            l3_prefetch_occupancy: Self::prefetch_share(&out.telemetry.occupancy, 2),
            l3_top_source_occupancy: out.telemetry.occupancy.as_ref().and_then(|o| {
                let lvl = &o.levels[2];
                let top = lvl.sources.values().max().copied()?;
                Some(top as f64 / lvl.total().max(1) as f64)
            }),
        }
    }

    /// Still-unused-prefetch share of one level's resident lines; `None`
    /// when no snapshot exists or the level holds no lines.
    fn prefetch_share(occ: &Option<prodigy_sim::OccupancySnapshot>, level: usize) -> Option<f64> {
        let lvl = &occ.as_ref()?.levels[level];
        if lvl.total() == 0 {
            None
        } else {
            Some(lvl.prefetched() as f64 / lvl.total() as f64)
        }
    }
}

// The per-cell `stats` view: rates with six decimals, `null` for n/a. The
// per-tier rows exist only for two-tier runs, so single-tier cells keep the
// shape they had before far memory existed.
prodigy_sim::json_object!(CellStats {
    cycles,
    instructions,
    ipc: ratio,
    checksum,
    l1_misses,
    l2_misses,
    l3_misses,
    dram_reads,
    prefetches_issued,
    prefetch_accuracy: ratio,
    prefetch_coverage: ratio,
    load_to_use,
    fill_to_use,
    dram_round_trip,
    pollution_rate: ratio,
    l1_prefetch_occupancy: ratio,
    l2_prefetch_occupancy: ratio,
    l3_prefetch_occupancy: ratio,
    l3_top_source_occupancy: ratio,
    near_load_to_use: omit_none,
    far_load_to_use: omit_none,
});

/// One cell a sweep ran: its host-side record plus its simulated outcome or
/// its failure. The pool worker that simulated or disk-loaded the cell
/// writes it once; everything the report says about cells derives from
/// these records.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell's cache key.
    pub key: String,
    /// Host wall-clock time of the simulation.
    pub timing: prodigy_sim::RunTiming,
    /// The pool worker that ran the cell.
    pub worker: usize,
    /// Whether the result was loaded from the persistent cell cache rather
    /// than simulated (`timing` then measures the disk load, not a run).
    pub disk_hit: bool,
    /// The simulated outcome, or why the cell panicked or timed out.
    pub result: Result<Arc<RunOutcome>, String>,
}

/// A report cell's host fields: how, where and how fast it ran. Every other
/// field of a cell is simulated and deterministic for a given seed.
const CELL_HOST_FIELDS: [&str; 4] = [
    "timing",
    "worker",
    "disk_hit",
    // No longer written; older reports carry it and must still canonicalize.
    "host_profile",
];

/// `{"key", <host fields>, "stats": <CellStats view>, <RunOutcome fields>,
/// "error"}`. A failed cell has `"stats":null` and no outcome fields.
impl ToJson for CellRecord {
    fn to_json(&self) -> Json {
        let outcome = self.result.as_deref().ok();
        let mut o = vec![
            ("key".to_string(), self.key.to_json()),
            ("timing".to_string(), self.timing.to_json()),
            ("worker".to_string(), self.worker.to_json()),
            ("disk_hit".to_string(), self.disk_hit.to_json()),
            (
                "stats".to_string(),
                outcome.map(CellStats::from_outcome).to_json(),
            ),
        ];
        if let Some(Json::Obj(fields)) = outcome.map(ToJson::to_json) {
            o.extend(fields);
        }
        let error = self.result.as_ref().err().cloned();
        o.push(("error".to_string(), error.to_json()));
        Json::Obj(o)
    }
}

/// The deterministic part of a report cell: `cell` without its host fields
/// (`timing`, `worker`, `disk_hit`, and `host_profile` in older reports).
/// `--merge` writes cells in this form and `prodigy-diff` compares it; its
/// outcome fields are exactly the object the cell cache stores.
pub fn canonical_cell(cell: &Json) -> Json {
    match cell {
        Json::Obj(m) => Json::Obj(
            m.iter()
                .filter(|(k, _)| !CELL_HOST_FIELDS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Aggregated progress/timing report of a sweep, rendered to stderr and
/// serialized to JSON beside the figure text.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Worker threads configured.
    pub threads: usize,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Cell lookups answered from the sweep's cell table.
    pub memo_hits: u64,
    /// Threads detached (leaked) by per-cell timeouts this run. Each one
    /// keeps burning a core until its simulation diverges to completion or
    /// the process exits, skewing utilization and cells/s.
    pub threads_leaked: u64,
    /// Experiments whose renderer panicked, each under its name. Failed
    /// cells are among `cells`.
    pub render_errors: Vec<CellError>,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// Per-worker accounting from every pool phase; the summed `jobs` are
    /// the sweep's cell attempts.
    pub workers: Vec<WorkerStat>,
    /// One record per cell the sweep ran, in key order.
    pub cells: Vec<CellRecord>,
}

impl SweepReport {
    /// Cells simulated to an outcome (failures and disk hits excluded).
    pub fn cells_simulated(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.result.is_ok() && !c.disk_hit)
            .count() as u64
    }

    /// Cells loaded from the persistent on-disk cell cache.
    pub fn disk_hits(&self) -> u64 {
        self.cells.iter().filter(|c| c.disk_hit).count() as u64
    }

    /// Every failure: the failed cells in key order, then the experiments
    /// whose renderer panicked.
    pub fn errors(&self) -> Vec<CellError> {
        let cells = self.cells.iter().filter_map(|c| {
            let reason = c.result.as_ref().err()?;
            Some(CellError {
                key: c.key.clone(),
                reason: reason.clone(),
            })
        });
        cells.chain(self.render_errors.iter().cloned()).collect()
    }

    /// Simulated cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cells_simulated() as f64 / secs
        }
    }

    /// Mean worker utilization: busy time over `threads × wall`; 0 when no
    /// worker was busy.
    pub fn utilization(&self) -> f64 {
        let denom = self.threads as f64 * self.wall.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        // Summed as a `Duration`: an empty `f64` sum would be -0.0.
        let busy: Duration = self.workers.iter().map(|w| w.busy).sum();
        (busy.as_secs_f64() / denom).min(1.0)
    }

    /// Total host time spent inside cell simulations (sum over cells; under
    /// an oversubscribed pool this exceeds wall time × cores).
    pub fn total_cell_nanos(&self) -> u128 {
        self.cells.iter().map(|c| c.timing.host_nanos as u128).sum()
    }

    /// Nearest-rank percentile of per-cell host time, in nanoseconds.
    /// `q` in [0, 1]; returns 0 when no cell ran.
    pub fn cell_nanos_percentile(&self, q: f64) -> u64 {
        let mut v: Vec<u64> = self.cells.iter().map(|c| c.timing.host_nanos).collect();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
        v[rank - 1]
    }

    /// The `n` slowest cells, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<&CellRecord> {
        let mut v: Vec<&CellRecord> = self.cells.iter().collect();
        v.sort_by_key(|c| std::cmp::Reverse(c.timing.host_nanos));
        v.truncate(n);
        v
    }

    /// Renders the human-facing progress summary (printed to stderr).
    pub fn render(&self) -> String {
        let errors = self.errors();
        let mut out = format!(
            "sweep: {} cells simulated, {} memo hits, {} disk hits, {} errors | {:.1}s wall, {} threads, {:.0}% utilization, {:.2} cells/s\n",
            self.cells_simulated(),
            self.memo_hits,
            self.disk_hits(),
            errors.len(),
            self.wall.as_secs_f64(),
            self.threads,
            self.utilization() * 100.0,
            self.cells_per_sec(),
        );
        if self.threads_leaked > 0 {
            out.push_str(&format!(
                "  warning: {} timed-out cell thread(s) leaked — they keep burning a core each; utilization and cells/s are skewed\n",
                self.threads_leaked
            ));
        }
        for c in self.slowest(5) {
            out.push_str(&format!(
                "  slow: {:>9.1} ms  {}\n",
                c.timing.millis(),
                c.key
            ));
        }
        for e in &errors {
            out.push_str(&format!("  error: {} — {}\n", e.key, e.reason));
        }
        out
    }
}

/// The `--json` report: the sweep's identity, every host counter under
/// `host`, per-worker accounting, the failures, and every cell's record.
/// Only `errors` and the deterministic part of each cell are simulated
/// results.
impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        let host = Json::obj([
            ("cells_simulated", self.cells_simulated().to_json()),
            ("memo_hits", self.memo_hits.to_json()),
            ("disk_hits", self.disk_hits().to_json()),
            ("threads_leaked", self.threads_leaked.to_json()),
            ("wall_nanos", self.wall.as_nanos().to_json()),
            ("cells_per_sec", Json::fixed(self.cells_per_sec(), 3)),
            ("utilization", Json::fixed(self.utilization(), 4)),
            ("host_nanos_total", self.total_cell_nanos().to_json()),
            (
                "cell_host_nanos_p50",
                self.cell_nanos_percentile(0.50).to_json(),
            ),
            (
                "cell_host_nanos_p99",
                self.cell_nanos_percentile(0.99).to_json(),
            ),
        ]);
        let workers = self.workers.iter().map(|w| {
            Json::obj([
                ("worker", w.worker.to_json()),
                ("busy_nanos", w.busy.as_nanos().to_json()),
                ("jobs", w.jobs.to_json()),
            ])
        });
        Json::obj([
            ("threads", self.threads.to_json()),
            ("base_seed", self.base_seed.to_json()),
            ("host", host),
            ("workers", Json::Arr(workers.collect())),
            ("errors", self.errors().to_json()),
            ("cells", self.cells.to_json()),
        ])
    }
}

/// Stable FNV-1a hash of a string key. Used wherever a cell's identity must
/// hash identically across processes, platforms, and enumeration orders —
/// shard ownership (`--shard K/N`) and persistent cell-cache filenames.
/// Never replace this with `DefaultHasher`: its output is
/// process-randomized, which would silently break shard disjointness.
pub fn stable_key_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_isolated_captures_panics() {
        let r: Result<(), _> = run_isolated("t", None, |_| panic!("kaboom {}", 7));
        let e = r.unwrap_err();
        assert!(e.reason.contains("kaboom 7"));
        assert!(!e.reason.contains("timed out"), "a panic is not a timeout");
        assert!(!e.leaked);
        let ok = run_isolated("t", None, |_| 5u32).unwrap();
        assert_eq!(ok, 5);
    }

    #[test]
    fn run_isolated_times_out_divergent_jobs() {
        let r: Result<(), _> = run_isolated("hang", Some(Duration::from_millis(50)), |_| {
            std::thread::sleep(Duration::from_secs(30));
        });
        let e = r.unwrap_err();
        assert!(e.reason.contains("timed out"), "{}", e.reason);
        assert!(
            e.leaked,
            "a job that ignores the cancel flag outlives the grace window"
        );
        // And a fast job under the same budget succeeds.
        let ok = run_isolated("quick", Some(Duration::from_secs(5)), |_| 9u32).unwrap();
        assert_eq!(ok, 9);
    }

    #[test]
    fn abandoned_workers_observe_the_cancel_flag_and_exit() {
        // A cancel-aware job (like a real cell, whose phase scheduler polls
        // `RunConfig::cancel`) must terminate promptly after the timeout
        // abandons it — the leaked thread exits instead of simulating on.
        let exited = Arc::new(AtomicBool::new(false));
        let witness = Arc::clone(&exited);
        let r: Result<(), _> = run_isolated("coop", Some(Duration::from_millis(50)), move |c| {
            struct ExitWitness(Arc<AtomicBool>);
            impl Drop for ExitWitness {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _w = ExitWitness(witness);
            while !c.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // As the phase scheduler unwinds a cancelled run.
            std::panic::resume_unwind(Box::new("run cancelled"));
        });
        let e = r.unwrap_err();
        assert!(
            e.reason.contains("timed out"),
            "the job still exceeded its budget: {}",
            e.reason
        );
        assert!(
            !e.leaked,
            "a cancel-honouring worker exits in the grace window and is joined, not leaked"
        );
        // The worker saw the raised flag, unwound, and dropped its state
        // before `run_isolated` returned (it was joined).
        assert!(
            exited.load(Ordering::SeqCst),
            "cancelled worker terminated before return"
        );
    }

    #[test]
    fn stable_key_hash_is_fixed_across_builds() {
        // Frozen values: shard ownership and cache filenames depend on this
        // hash never changing.
        assert_eq!(stable_key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            stable_key_hash("pr|false|prodigy|16|false|0"),
            stable_key_hash("pr|false|prodigy|16|false|0")
        );
        assert_ne!(stable_key_hash("a"), stable_key_hash("b"));
    }

    #[test]
    fn pool_executes_every_item_and_accounts_work() {
        let done = AtomicUsize::new(0);
        let stats = run_pool((0..40).collect(), 4, |_w, _item: i32| {
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), 40);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 40);
        assert!(stats.len() <= 4 && !stats.is_empty());
    }

    /// A finished outcome with a few recognisable counters.
    fn outcome() -> RunOutcome {
        let mut out = RunOutcome {
            summary: prodigy_sim::RunSummary {
                stats: prodigy_sim::Stats {
                    cycles: 1000,
                    instructions: 1500,
                    ..Default::default()
                },
                energy: Default::default(),
                prefetcher: "none".into(),
            },
            checksum: 7,
            prodigy: None,
            storage_bits: 0,
            seed: 3,
            timing: Default::default(),
            telemetry: Default::default(),
            trace: None,
            metrics: None,
        };
        out.summary.stats.l1d.misses = 10;
        out.summary.stats.l3.misses = 2;
        out.summary.stats.prefetch_use.hit_l1 = 2;
        out.telemetry.load_to_use.record(3);
        let mut occ = prodigy_sim::OccupancySnapshot::default();
        occ.levels[0].demand = 3;
        occ.levels[0].untagged = 1;
        occ.levels[2].demand = 7;
        occ.levels[2].untagged = 1;
        out.telemetry.occupancy = Some(occ);
        out
    }

    fn cell(key: &str, nanos: u64, outcome: Option<RunOutcome>) -> CellRecord {
        CellRecord {
            key: key.into(),
            timing: prodigy_sim::RunTiming { host_nanos: nanos },
            worker: 0,
            disk_hit: false,
            result: outcome
                .map(Arc::new)
                .ok_or_else(|| "timed out after 1.0s".into()),
        }
    }

    /// A report over `cells` with no worker accounting.
    fn report(cells: Vec<CellRecord>) -> SweepReport {
        SweepReport {
            threads: 2,
            base_seed: 0,
            memo_hits: 0,
            threads_leaked: 0,
            render_errors: vec![],
            wall: Duration::from_millis(1),
            workers: vec![],
            cells,
        }
    }

    #[test]
    fn report_renders_and_serializes() {
        let mut disk = cell("d", 3, Some(outcome()));
        disk.disk_hit = true;
        let report = SweepReport {
            threads: 2,
            base_seed: 7,
            memo_hits: 3,
            threads_leaked: 1,
            render_errors: vec![CellError {
                key: "fig02".into(),
                reason: "panicked: output changed".into(),
            }],
            wall: Duration::from_millis(1500),
            workers: vec![
                WorkerStat {
                    worker: 0,
                    busy: Duration::from_millis(900),
                    jobs: 2,
                },
                WorkerStat {
                    worker: 1,
                    busy: Duration::from_millis(600),
                    jobs: 1,
                },
            ],
            cells: vec![
                cell("bfs|false|prodigy|16|false|0", 9, None),
                disk,
                cell("k", 42, Some(outcome())),
            ],
        };
        // Every counter derives from the records: one simulated, one
        // loaded, one failed.
        assert_eq!((report.cells_simulated(), report.disk_hits()), (1, 1));
        let errors: Vec<String> = report.errors().into_iter().map(|e| e.key).collect();
        assert_eq!(errors, ["bfs|false|prodigy|16|false|0", "fig02"]);
        let text = report.render();
        assert!(text.starts_with(
            "sweep: 1 cells simulated, 3 memo hits, 1 disk hits, 2 errors | 1.5s wall, 2 threads, 50% utilization, 0.67 cells/s\n"
        ));
        assert!(
            text.contains("warning: 1 timed-out cell thread(s) leaked"),
            "leak warning in summary"
        );
        let json = report.to_json().to_string();
        assert!(
            json.starts_with(
                "{\"threads\":2,\"base_seed\":7,\"host\":{\"cells_simulated\":1,\"memo_hits\":3,\
                 \"disk_hits\":1,\"threads_leaked\":1,\"wall_nanos\":1500000000,\"cells_per_sec\":0.667,\
                 \"utilization\":0.5000,\"host_nanos_total\":54,\"cell_host_nanos_p50\":9,\
                 \"cell_host_nanos_p99\":42},\"workers\":[{\"worker\":0,"
            ),
            "every host counter once, under host: {json}"
        );
        assert!(json.contains(
            "\"errors\":[{\"key\":\"bfs|false|prodigy|16|false|0\",\"reason\":\"timed out after 1.0s\"},\
             {\"key\":\"fig02\",\"reason\":\"panicked: output changed\"}],\"cells\":["
        ));
        assert!(
            json.contains(
                "{\"key\":\"k\",\"timing\":{\"host_nanos\":42},\"worker\":0,\"disk_hit\":false,\
                 \"stats\":{\"cycles\":1000,\"instructions\":1500,\"ipc\":1.500000,"
            ),
            "host fields lead the cell, the derived stats view follows: {json}"
        );
        assert!(
            json.contains(
                "\"summary\":{\"stats\":{\"instructions\":1500,\"loads\":0,\"stores\":0,"
            ),
            "then the full outcome: {json}"
        );
        assert!(json.contains("\"checksum\":7,\"prodigy\":null,\"storage_bits\":0,\"seed\":3,"));
        assert!(json.contains("\"telemetry\":{\"timeliness\":{"));
        assert!(
            json.contains(
                "{\"key\":\"bfs|false|prodigy|16|false|0\",\"timing\":{\"host_nanos\":9},\
                 \"worker\":0,\"disk_hit\":false,\"stats\":null,\
                 \"error\":\"timed out after 1.0s\"}"
            ),
            "a failed cell has no outcome: {json}"
        );
    }

    #[test]
    fn a_report_with_no_pool_work_reads_zero() {
        let empty = report(vec![]);
        assert_eq!(
            empty.utilization().to_bits(),
            0.0f64.to_bits(),
            "+0, not -0"
        );
        assert!(empty.render().contains(" 0% utilization, 0.00 cells/s"));
        let json = empty.to_json().to_string();
        assert!(json.contains("\"utilization\":0.0000,"), "{json}");
        assert!(
            json.ends_with("\"workers\":[],\"errors\":[],\"cells\":[]}"),
            "{json}"
        );
    }

    #[test]
    fn canonical_cells_drop_exactly_the_host_fields() {
        let mut c = cell("k", 42, Some(outcome()));
        c.worker = 1;
        c.disk_hit = true;
        let full = c.to_json();
        let canon = canonical_cell(&full);
        let keys: Vec<&str> = canon
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "key",
                "stats",
                "summary",
                "checksum",
                "prodigy",
                "storage_bits",
                "seed",
                "telemetry",
                "error"
            ]
        );
        // The outcome part is byte-identical to what the cell cache stores.
        let Json::Obj(stored) = outcome().to_json() else {
            panic!("outcome is an object")
        };
        assert_eq!(canon.as_obj().unwrap()[2..8], stored[..]);
        // Host fields never change the canonical form.
        let other = cell("k", 7, Some(outcome()));
        assert_eq!(canonical_cell(&other.to_json()), canon);
    }

    #[test]
    fn cell_stats_view_serializes_rates_quantiles_and_tier_rows() {
        let out = outcome();
        let json = CellStats::from_outcome(&out).to_json().to_string();
        assert!(
            json.contains("\"prefetch_accuracy\":1.000000,\"prefetch_coverage\":0.500000"),
            "{json}"
        );
        assert!(
            json.contains("\"load_to_use\":{\"p50\":[2,3]"),
            "quantile intervals serialized: {json}"
        );
        assert!(
            json.contains("\"fill_to_use\":null"),
            "empty histogram quantiles serialize as null"
        );
        assert!(
            json.contains("\"pollution_rate\":null"),
            "no-prefetch cells render pollution n/a, not 0"
        );
        assert!(
            json.contains("\"l1_prefetch_occupancy\":0.250000,\"l2_prefetch_occupancy\":null"),
            "occupancy shares serialized: {json}"
        );
        assert!(json.ends_with("\"l3_top_source_occupancy\":null}"));
        assert!(
            !json.contains("near_load_to_use") && !json.contains("far_load_to_use"),
            "single-tier cells serialize no per-tier rows (baseline byte-identity)"
        );
        let mut tiered = out;
        let split = tiered.telemetry.tiers_mut();
        split.near.load_to_use.record(100);
        split.far.load_to_use.record(500);
        let json = CellStats::from_outcome(&tiered).to_json().to_string();
        assert!(json.contains("\"near_load_to_use\":{\"p50\":"), "{json}");
        assert!(json.contains("\"far_load_to_use\":{\"p50\":"), "{json}");
    }

    #[test]
    fn cell_percentiles_use_nearest_rank() {
        let cell = |nanos: u64| cell("k", nanos, None);
        let report = report(vec![cell(40), cell(10), cell(30), cell(20)]);
        assert_eq!(report.cell_nanos_percentile(0.50), 20);
        assert_eq!(report.cell_nanos_percentile(0.99), 40);
        assert_eq!(report.cell_nanos_percentile(0.0), 10);
        assert_eq!(report.total_cell_nanos(), 100);
        let empty = SweepReport {
            cells: vec![],
            ..report
        };
        assert_eq!(empty.cell_nanos_percentile(0.5), 0);
    }
}
