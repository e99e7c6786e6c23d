//! No-op-path and determinism guarantees of the telemetry layer:
//! starting a trace must never perturb `Stats`, and traced output must be
//! byte-identical across identically-seeded runs.

use prodigy_sim::core::StreamBuilder;
use prodigy_sim::prefetch::{DemandAccess, PrefetchCtx, Prefetcher};
use prodigy_sim::{chrome_trace_json, Stats, System, SystemConfig, TraceEvent};
use std::any::Any;

/// A deterministic prefetcher that fetches the next two lines on every
/// demand access — enough traffic to exercise issue, use, drop and
/// eviction telemetry paths.
struct NextLines;

impl Prefetcher for NextLines {
    fn name(&self) -> &'static str {
        "next-lines"
    }
    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        ctx.prefetch(a.vaddr + prodigy_sim::LINE_BYTES);
        ctx.prefetch(a.vaddr + 2 * prodigy_sim::LINE_BYTES);
        ctx.trace_note("next-lines-train", a.vaddr);
    }
    fn on_fill(&mut self, _: &mut PrefetchCtx<'_>, _: &prodigy_sim::FillEvent) {}
    fn storage_bits(&self) -> u64 {
        0
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs a fixed two-phase pointer-chase-ish workload; returns the final
/// stats and the events traced (none when `traced` is false).
fn run(traced: bool) -> (Stats, Vec<TraceEvent>) {
    let mut sys = System::with_prefetchers(SystemConfig::scaled(64).with_cores(2), |_| NextLines);
    if traced {
        sys.start_trace();
    }
    for phase in 0..2u64 {
        let mut streams = Vec::new();
        for c in 0..2u64 {
            let mut b = StreamBuilder::new();
            let base = (phase + 1) * 0x10_0000 + c * 0x40_0000;
            for i in 0..600u64 {
                // A mix of strides so some prefetches are used, some are
                // evicted unused, and some demands miss everything.
                let addr = base + i * 192 + (i % 7) * 64;
                let l = b.load_at(1, addr, 8, &[]);
                b.compute(2, &[l]);
            }
            // Revisit early addresses: evicted from the L1 by now but still
            // in L2/L3, producing cache-category demand misses.
            for i in 0..200u64 {
                let l = b.load_at(2, base + i * 192, 8, &[]);
                b.compute(2, &[l]);
            }
            streams.push(b.finish());
        }
        sys.run_phase(streams);
    }
    let stats = sys.stats().clone();
    let events = sys.take_trace().unwrap_or_default();
    (stats, events)
}

#[test]
fn traced_run_is_byte_identical_to_untraced_run() {
    let (untraced, none) = run(false);
    assert!(none.is_empty(), "an untraced run keeps no events");
    let (traced, events) = run(true);
    assert!(!events.is_empty(), "tracing should capture events");
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "starting a trace must not perturb Stats"
    );
}

#[test]
fn two_traced_runs_produce_identical_trace_bytes() {
    let (_, a) = run(true);
    let (_, b) = run(true);
    assert!(!a.is_empty());
    let ja = chrome_trace_json(&a, None);
    let jb = chrome_trace_json(&b, None);
    assert_eq!(ja, jb, "same-seed traces must be byte-identical");
}

#[test]
fn trace_covers_the_major_categories_with_monotonic_cycles() {
    let (stats, events) = run(true);
    let cats: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.category().name()).collect();
    for want in ["cache", "dram", "prefetcher", "core"] {
        assert!(cats.contains(want), "missing category {want}: {cats:?}");
    }
    // The sorted serialization must be monotonically non-decreasing.
    let json = chrome_trace_json(&events, None);
    let mut last = 0u64;
    for line in json.lines().filter(|l| l.contains("\"ts\":")) {
        let ts = line
            .split("\"ts\":")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .and_then(|t| t.parse::<u64>().ok())
            .expect("ts field parses");
        assert!(ts >= last, "cycles must not decrease: {ts} after {last}");
        last = ts;
    }
    assert!(
        stats.prefetch_use.useful() > 0,
        "workload should use some prefetches"
    );
}

#[test]
fn telemetry_counters_match_stats_prefetch_accounting() {
    let mut sys = System::with_prefetchers(SystemConfig::scaled(64).with_cores(1), |_| NextLines);
    let mut b = StreamBuilder::new();
    for i in 0..800u64 {
        let l = b.load_at(1, 0x20_0000 + i * 128, 8, &[]);
        b.compute(2, &[l]);
    }
    sys.run_phase(vec![b.finish()]);
    let tel = sys.telemetry().clone();
    let stats = sys.stats();
    assert_eq!(
        tel.timeliness.timely + tel.timeliness.late,
        stats.prefetch_use.useful(),
        "timely+late must equal used prefetches"
    );
    assert_eq!(tel.timeliness.inaccurate, stats.prefetch_use.evicted_unused);
    assert_eq!(
        tel.timeliness.dropped,
        stats.prefetches_redundant + stats.prefetches_throttled
    );
    assert_eq!(tel.fill_to_use.count(), tel.timeliness.timely);
    assert_eq!(tel.late_wait.count(), tel.timeliness.late);
    assert!(tel.load_to_use.count() >= stats.loads);
    assert_eq!(tel.dram_queue_wait.count(), stats.dram_reads);
}
