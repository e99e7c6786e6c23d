//! Windowed metrics registry: a deterministic time-series sampler over the
//! run's counters.
//!
//! The trace layer (see [`crate::telemetry`]) answers "what happened"
//! event-by-event; this module answers "how did the run *evolve*": every
//! `window_cycles` simulated cycles (default 100k) the registry snapshots
//! IPC, per-level miss rates, memory-level parallelism, DRAM queue depth,
//! prefetch accuracy/coverage and the current feedback-throttle level into
//! a bounded ring of [`MetricSample`]s. Samples are derived purely from
//! simulated state (counter deltas and gauges), so two same-seed runs
//! produce byte-identical series — the substrate `prodigy-diff` compares.
//!
//! Like tracing, metering is strictly opt-in: with no registry installed on
//! the [`crate::telemetry::Tracer`], no sample is ever allocated and
//! [`crate::Stats`] stays byte-identical to an unmetered run.

use crate::json::{Json, ToJson};
use crate::stats::Stats;
use crate::telemetry::OccupancySnapshot;

/// Configuration of the windowed sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Simulated cycles per sampling window.
    pub window_cycles: u64,
    /// Maximum retained samples; the ring overwrites the oldest beyond
    /// this (deterministically), bounding memory on long runs.
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            window_cycles: 100_000,
            capacity: 4096,
        }
    }
}

/// One windowed snapshot. All rates are computed from the counter deltas of
/// the window that just closed, not cumulative run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Cycle at which the window closed (multiple of `window_cycles`).
    pub cycle: u64,
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Instructions per cycle over the window.
    pub ipc: f64,
    /// L1D miss rate over the window's demand accesses (`None` if idle).
    pub l1_miss_rate: Option<f64>,
    /// L2 miss rate over the window's demand accesses (`None` if idle).
    pub l2_miss_rate: Option<f64>,
    /// L3 miss rate over the window's demand accesses (`None` if idle).
    pub l3_miss_rate: Option<f64>,
    /// Memory-level parallelism proxy: DRAM service cycles accumulated in
    /// the window divided by the window length (mean outstanding DRAM
    /// requests).
    pub mlp: f64,
    /// Mean memory-controller backlog (in pending line transfers) sampled
    /// at each DRAM read enqueued during the window.
    pub dram_queue_depth: f64,
    /// Prefetch accuracy over the window's resolved prefetches (`None`
    /// when none resolved).
    pub prefetch_accuracy: Option<f64>,
    /// Prefetch coverage over the window (`None` when there was neither a
    /// useful prefetch nor an L3 demand miss).
    pub prefetch_coverage: Option<f64>,
    /// Feedback-throttle aggressiveness (sequences per trigger) at window
    /// close; 0 when no throttle ever reported.
    pub throttle_level: u32,
    /// Per-source cache occupancy at window close (a gauge published by the
    /// memory system); `None` until the first publication, and always
    /// `None` on runs without the occupancy probe, so older dumps keep
    /// their exact shape.
    pub occupancy: Option<OccupancySnapshot>,
}

// One window as a JSON object: rates with six decimals (`null` when the
// window had no data), `occupancy` only once the gauge was published.
crate::json_object!(MetricSample {
    cycle,
    instructions,
    ipc: ratio,
    l1_miss_rate: ratio,
    l2_miss_rate: ratio,
    l3_miss_rate: ratio,
    mlp: ratio,
    dram_queue_depth: ratio,
    prefetch_accuracy: ratio,
    prefetch_coverage: ratio,
    throttle_level,
    occupancy: omit_none,
});

/// Counter snapshot at the close of the previous window; deltas against it
/// yield per-window rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Baseline {
    instructions: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l3_accesses: u64,
    l3_misses: u64,
    pf_useful: u64,
    pf_resolved: u64,
    dram_busy_cycles: u64,
    dram_depth_sum: u64,
    dram_depth_count: u64,
}

impl Baseline {
    fn capture(stats: &Stats, reg: &MetricsRegistry) -> Baseline {
        Baseline {
            instructions: stats.instructions,
            l1_accesses: stats.l1d.accesses(),
            l1_misses: stats.l1d.misses,
            l2_accesses: stats.l2.accesses(),
            l2_misses: stats.l2.misses,
            l3_accesses: stats.l3.accesses(),
            l3_misses: stats.l3.misses,
            pf_useful: stats.prefetch_use.useful(),
            pf_resolved: stats.prefetch_use.resolved(),
            dram_busy_cycles: reg.dram_busy_cycles,
            dram_depth_sum: reg.dram_depth_sum,
            dram_depth_count: reg.dram_depth_count,
        }
    }
}

/// The windowed metrics registry: counters are read from [`Stats`], gauges
/// (throttle level, DRAM backlog) are pushed by the instrumented
/// components, and [`MetricsRegistry::maybe_sample`] closes windows as
/// simulated time advances.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    cfg: MetricsConfig,
    samples: Vec<MetricSample>,
    /// Ring write index once `samples` reached capacity.
    head: usize,
    /// Total windows closed (including overwritten ones).
    windows_closed: u64,
    next_sample_at: u64,
    base: Baseline,
    // Gauges / accumulators fed by the memory system and throttle.
    throttle_level: u32,
    dram_busy_cycles: u64,
    dram_depth_sum: u64,
    dram_depth_count: u64,
    occupancy: Option<OccupancySnapshot>,
}

impl MetricsRegistry {
    /// Creates an empty registry; the first window closes at
    /// `cfg.window_cycles`.
    ///
    /// # Panics
    /// Panics if `window_cycles` is 0 or `capacity` is 0.
    pub fn new(cfg: MetricsConfig) -> Self {
        assert!(cfg.window_cycles > 0, "window must be at least one cycle");
        assert!(cfg.capacity > 0, "need room for at least one sample");
        MetricsRegistry {
            cfg,
            samples: Vec::new(),
            head: 0,
            windows_closed: 0,
            next_sample_at: cfg.window_cycles,
            base: Baseline::default(),
            throttle_level: 0,
            dram_busy_cycles: 0,
            dram_depth_sum: 0,
            dram_depth_count: 0,
            occupancy: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MetricsConfig {
        &self.cfg
    }

    /// Total windows closed so far (may exceed the retained count once the
    /// ring wraps).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Records one DRAM read: its total service latency (queue + access,
    /// the MLP accumulator) and the controller backlog depth (in pending
    /// line transfers) observed at enqueue time.
    #[inline]
    pub fn observe_dram(&mut self, latency: u64, depth: u64) {
        self.dram_busy_cycles = self.dram_busy_cycles.saturating_add(latency);
        self.dram_depth_sum = self.dram_depth_sum.saturating_add(depth);
        self.dram_depth_count += 1;
    }

    /// Publishes the feedback-throttle aggressiveness gauge.
    #[inline]
    pub fn set_throttle_level(&mut self, level: u32) {
        self.throttle_level = level;
    }

    /// Publishes the per-source cache-occupancy gauge. Like the throttle
    /// gauge it holds its last value: each window closed after the first
    /// publication carries the snapshot current at close time.
    #[inline]
    pub fn set_occupancy(&mut self, snapshot: OccupancySnapshot) {
        self.occupancy = Some(snapshot);
    }

    /// The cycle at which the next window closes. [`maybe_sample`] is a
    /// no-op for any `now` strictly before this, so schedulers may skip the
    /// call entirely until simulated time reaches it.
    ///
    /// [`maybe_sample`]: MetricsRegistry::maybe_sample
    #[inline]
    pub fn next_sample_at(&self) -> u64 {
        self.next_sample_at
    }

    /// Closes every window that `now` has passed. Counter deltas since the
    /// previous close are attributed to the first closed window; any
    /// further windows crossed in the same jump record zero activity, so
    /// the series is a deterministic function of the (deterministic)
    /// simulated event sequence alone.
    pub fn maybe_sample(&mut self, now: u64, stats: &Stats) {
        while now >= self.next_sample_at {
            let at = self.next_sample_at;
            self.close_window(at, stats);
            self.next_sample_at += self.cfg.window_cycles;
        }
    }

    fn close_window(&mut self, at: u64, stats: &Stats) {
        let w = self.cfg.window_cycles;
        let b = self.base;
        let rate = |acc: u64, miss: u64| -> Option<f64> {
            if acc == 0 {
                None
            } else {
                Some(miss as f64 / acc as f64)
            }
        };
        let d_insns = stats.instructions - b.instructions;
        let d_l1a = stats.l1d.accesses() - b.l1_accesses;
        let d_l2a = stats.l2.accesses() - b.l2_accesses;
        let d_l3a = stats.l3.accesses() - b.l3_accesses;
        let d_useful = stats.prefetch_use.useful() - b.pf_useful;
        let d_resolved = stats.prefetch_use.resolved() - b.pf_resolved;
        let d_l3_miss = stats.l3.misses - b.l3_misses;
        let d_depth_n = self.dram_depth_count - b.dram_depth_count;
        let sample = MetricSample {
            cycle: at,
            instructions: d_insns,
            ipc: d_insns as f64 / w as f64,
            l1_miss_rate: rate(d_l1a, stats.l1d.misses - b.l1_misses),
            l2_miss_rate: rate(d_l2a, stats.l2.misses - b.l2_misses),
            l3_miss_rate: rate(d_l3a, d_l3_miss),
            mlp: (self.dram_busy_cycles - b.dram_busy_cycles) as f64 / w as f64,
            dram_queue_depth: if d_depth_n == 0 {
                0.0
            } else {
                (self.dram_depth_sum - b.dram_depth_sum) as f64 / d_depth_n as f64
            },
            prefetch_accuracy: if d_resolved == 0 {
                None
            } else {
                Some(d_useful as f64 / d_resolved as f64)
            },
            prefetch_coverage: if d_useful + d_l3_miss == 0 {
                None
            } else {
                Some(d_useful as f64 / (d_useful + d_l3_miss) as f64)
            },
            throttle_level: self.throttle_level,
            occupancy: self.occupancy.clone(),
        };
        self.push(sample);
        self.base = Baseline::capture(stats, self);
        self.windows_closed += 1;
    }

    fn push(&mut self, s: MetricSample) {
        if self.samples.len() < self.cfg.capacity {
            self.samples.push(s);
        } else {
            self.samples[self.head] = s;
            self.head = (self.head + 1) % self.cfg.capacity;
        }
    }

    /// Retained samples in chronological order (oldest first, even after
    /// the ring wrapped).
    pub fn samples(&self) -> Vec<MetricSample> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.head..]);
        out.extend_from_slice(&self.samples[..self.head]);
        out
    }
}

/// `{"window_cycles":N,"windows_closed":N,"samples":[...]}`, samples oldest
/// first.
impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window_cycles", self.cfg.window_cycles.to_json()),
            ("windows_closed", self.windows_closed.to_json()),
            ("samples", self.samples().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_on_schedule_with_deltas() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 100,
            capacity: 16,
        });
        let mut stats = Stats {
            instructions: 50,
            ..Stats::default()
        };
        reg.maybe_sample(99, &stats); // window not closed yet
        assert!(reg.samples().is_empty());
        stats.instructions = 80;
        stats.l1d.hits = 6;
        stats.l1d.misses = 2;
        reg.maybe_sample(100, &stats);
        let s = reg.samples();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].cycle, 100);
        assert_eq!(s[0].instructions, 80);
        assert!((s[0].ipc - 0.8).abs() < 1e-12);
        assert_eq!(s[0].l1_miss_rate, Some(0.25));
        assert_eq!(s[0].l2_miss_rate, None, "no L2 activity in the window");
        // Next window sees only the delta.
        stats.instructions = 90;
        reg.maybe_sample(205, &stats);
        let s = reg.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].instructions, 10);
    }

    #[test]
    fn long_idle_jump_fills_gap_with_empty_windows() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 10,
            capacity: 16,
        });
        let stats = Stats {
            instructions: 7,
            ..Stats::default()
        };
        reg.maybe_sample(35, &stats);
        let s = reg.samples();
        assert_eq!(s.len(), 3, "windows at 10, 20, 30");
        assert_eq!(s[0].instructions, 7, "jump attributed to first window");
        assert_eq!(s[1].instructions, 0);
        assert_eq!(s[2].instructions, 0);
    }

    #[test]
    fn ring_overwrites_oldest_deterministically() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 10,
            capacity: 3,
        });
        let stats = Stats::default();
        reg.maybe_sample(60, &stats);
        assert_eq!(reg.windows_closed(), 6);
        let cycles: Vec<u64> = reg.samples().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![40, 50, 60], "oldest three were evicted");
    }

    #[test]
    fn gauges_feed_mlp_queue_depth_and_throttle() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 100,
            capacity: 4,
        });
        let stats = Stats::default();
        reg.observe_dram(150, 2);
        reg.observe_dram(250, 4);
        reg.set_throttle_level(3);
        reg.maybe_sample(100, &stats);
        let s = reg.samples();
        assert!((s[0].mlp - 4.0).abs() < 1e-12, "400 busy cycles / 100");
        assert!((s[0].dram_queue_depth - 3.0).abs() < 1e-12);
        assert_eq!(s[0].throttle_level, 3);
        // Accumulators are windowed too: a quiet second window reads zero.
        reg.maybe_sample(200, &stats);
        let s = reg.samples();
        assert_eq!(s[1].mlp, 0.0);
        assert_eq!(s[1].dram_queue_depth, 0.0);
        assert_eq!(s[1].throttle_level, 3, "gauge holds its last value");
    }

    #[test]
    fn occupancy_gauge_holds_and_serializes_only_when_published() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 10,
            capacity: 4,
        });
        let stats = Stats::default();
        reg.maybe_sample(10, &stats);
        let mut snap = OccupancySnapshot::default();
        snap.levels[0].count(false, None);
        snap.levels[0].count(true, Some(5));
        reg.set_occupancy(snap);
        reg.maybe_sample(30, &stats);
        let s = reg.samples();
        assert_eq!(s[0].occupancy, None, "window closed before publication");
        let o1 = s[1].occupancy.as_ref().expect("gauge present");
        assert_eq!(o1.levels[0].total(), 2);
        assert_eq!(s[2].occupancy, s[1].occupancy, "gauge holds its value");
        let j = reg.to_json().to_string();
        assert!(j.contains("\"throttle_level\":0}"), "pre-gauge sample bare");
        assert!(j.contains("\"throttle_level\":0,\"occupancy\":{\"l1\":"));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut reg = MetricsRegistry::new(MetricsConfig {
            window_cycles: 10,
            capacity: 4,
        });
        reg.maybe_sample(10, &Stats::default());
        let j = reg.to_json().to_string();
        assert!(j.starts_with("{\"window_cycles\":10,\"windows_closed\":1,"));
        assert!(j.contains("\"l1_miss_rate\":null"));
        assert!(j.contains("\"prefetch_accuracy\":null"));
    }

    #[test]
    #[should_panic(expected = "window must be at least one cycle")]
    fn zero_window_rejected() {
        MetricsRegistry::new(MetricsConfig {
            window_cycles: 0,
            capacity: 1,
        });
    }
}
