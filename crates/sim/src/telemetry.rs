//! Cycle-level telemetry: structured event tracing, log2-bucketed latency
//! histograms, and per-prefetch timeliness attribution.
//!
//! The simulator keeps two tiers of observability:
//!
//! 1. **Always-on counters** ([`TelemetrySummary`]): cheap histograms and
//!    the timely / late / inaccurate / dropped prefetch breakdown (the
//!    paper's Fig. 19 taxonomy). These are collected on every run, but
//!    deliberately kept *outside* [`crate::Stats`] so the determinism
//!    fingerprint of existing runs is byte-for-byte unchanged.
//! 2. **Opt-in event tracing** ([`Tracer::start_trace`]): once a trace is
//!    started, every component (cache hierarchy, DRAM controller, TLB,
//!    prefetchers, the Prodigy DIG walker and throttle) appends structured
//!    [`TraceEvent`]s to the tracer's buffer. With no trace started — the
//!    default — the emit path is a single predicted branch and no event is
//!    even constructed, so untraced runs pay nothing.
//!
//! The per-source [`AttributionTable`] splits the Fig. 19 fates by the
//! static source of each prefetch (a DIG node or edge, a stream slot, ...).
//! The tracer keeps no record of its own of who issued a line: the cache
//! stores the installing source with every copy, and the hierarchy passes
//! each fate the source of the copy it names, so per category the rows sum
//! to [`TelemetrySummary::timeliness`].
//!
//! Traces serialize to Chrome trace-event JSON ([`chrome_trace_json`]),
//! loadable in Perfetto / `chrome://tracing`. Output is fully
//! deterministic: events are ordered by `(cycle, core, sequence)`, IDs are
//! sequential per run, and no host time is ever recorded.

use crate::json::{Fields, FromJson, Json, ToJson};
use crate::mem::hierarchy::ServedBy;
use crate::metrics::{MetricsConfig, MetricsRegistry};
use crate::prefetch::FillEvent;
use std::collections::BTreeMap;

/// Number of buckets in a [`Log2Hist`] (bucket `i` holds values whose
/// bit-length is `i`, i.e. `v in [2^(i-1), 2^i)`; bucket 0 holds zeros).
pub const HIST_BUCKETS: usize = 32;

/// Coarse grouping of trace events, used for filtering (`--trace-events`)
/// and as the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Cache-hierarchy events (demand misses serviced by L2/L3).
    Cache,
    /// DRAM events (memory-serviced misses, controller queue samples).
    Dram,
    /// Prefetcher events (issue, use, eviction, drop, DIG transitions).
    Prefetcher,
    /// Feedback-throttle adaptation events.
    Throttle,
    /// TLB miss events.
    Tlb,
    /// Core/phase structure events (phase spans).
    Core,
}

impl TraceCategory {
    /// Every category, in display order.
    pub const ALL: [TraceCategory; 6] = [
        TraceCategory::Cache,
        TraceCategory::Dram,
        TraceCategory::Prefetcher,
        TraceCategory::Throttle,
        TraceCategory::Tlb,
        TraceCategory::Core,
    ];

    /// Stable lowercase name (the Chrome `cat` string).
    pub fn name(&self) -> &'static str {
        match self {
            TraceCategory::Cache => "cache",
            TraceCategory::Dram => "dram",
            TraceCategory::Prefetcher => "prefetcher",
            TraceCategory::Throttle => "throttle",
            TraceCategory::Tlb => "tlb",
            TraceCategory::Core => "core",
        }
    }

    /// Parses a category name as produced by [`TraceCategory::name`].
    pub fn parse(s: &str) -> Option<TraceCategory> {
        TraceCategory::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// Parses a comma-separated category filter ("cache,dram,prefetcher").
///
/// # Errors
/// Returns the offending token when it names no known category.
pub fn parse_category_filter(s: &str) -> Result<Vec<TraceCategory>, String> {
    let mut out = Vec::new();
    for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match TraceCategory::parse(tok) {
            Some(c) => {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            None => return Err(tok.to_string()),
        }
    }
    Ok(out)
}

/// The payload of one structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A demand access missed the L1 and was serviced deeper in the
    /// hierarchy (`served` is L2/L3/DRAM).
    DemandMiss {
        /// Line-aligned address.
        line: u64,
        /// Level that serviced the miss.
        served: ServedBy,
    },
    /// A prefetch request was accepted; the event spans issue → fill.
    Prefetch {
        /// Sequential per-run prefetch id.
        id: u64,
        /// Line-aligned address.
        line: u64,
        /// Where the data came from.
        served: ServedBy,
    },
    /// A previously-prefetched line was demanded for the first time.
    PrefetchUsed {
        /// Line-aligned address.
        line: u64,
        /// Level the line was found at.
        level: ServedBy,
        /// Residual in-flight wait the demand paid (0 ⇒ timely).
        wait: u64,
    },
    /// A prefetched line left the hierarchy without ever being demanded.
    PrefetchEvictedUnused {
        /// Line-aligned address.
        line: u64,
    },
    /// A prefetch request was dropped before issue (already resident or in
    /// flight).
    PrefetchDropped {
        /// Line-aligned address.
        line: u64,
    },
    /// The feedback throttle published its aggressiveness level
    /// (sequences-per-trigger), either initially or after a window
    /// adaptation.
    ThrottleLevel {
        /// Current sequences-per-trigger.
        level: u32,
        /// Previous level (equal to `level` on the initial report).
        prev: u32,
    },
    /// The Prodigy walker traversed a DIG edge for one element.
    DigTransition {
        /// Source node id.
        src: u16,
        /// Destination node id.
        dst: u16,
        /// Whether the edge is a ranged indirection.
        ranged: bool,
        /// Address of the element that triggered the transition.
        addr: u64,
    },
    /// A free-form single-address prefetcher event (baseline internals:
    /// stride lock, stream allocation, GHB correlation hit, ...).
    PrefetcherNote {
        /// Short static label, used as the Chrome event name.
        label: &'static str,
        /// Address associated with the event.
        addr: u64,
    },
    /// Sample of one DRAM channel's controller backlog, taken after a read
    /// was enqueued.
    DramQueueSample {
        /// Channel index.
        channel: u32,
        /// Backlog in cycles still queued at the controller.
        backlog: u64,
    },
    /// A demand-side TLB miss.
    TlbMiss {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// One parallel phase, spanning start → barrier.
    Phase {
        /// Zero-based phase index.
        index: u64,
        /// Number of participating cores.
        cores: u32,
    },
}

/// One structured telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event begins at.
    pub cycle: u64,
    /// Duration in cycles (0 for instant events).
    pub dur: u64,
    /// Core the event is attributed to (system-wide events use core 0).
    pub core: u32,
    /// The structured payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> TraceCategory {
        match self.kind {
            TraceEventKind::DemandMiss { served, .. } => {
                if served == ServedBy::Dram {
                    TraceCategory::Dram
                } else {
                    TraceCategory::Cache
                }
            }
            TraceEventKind::Prefetch { .. }
            | TraceEventKind::PrefetchUsed { .. }
            | TraceEventKind::PrefetchEvictedUnused { .. }
            | TraceEventKind::PrefetchDropped { .. }
            | TraceEventKind::DigTransition { .. }
            | TraceEventKind::PrefetcherNote { .. } => TraceCategory::Prefetcher,
            TraceEventKind::ThrottleLevel { .. } => TraceCategory::Throttle,
            TraceEventKind::DramQueueSample { .. } => TraceCategory::Dram,
            TraceEventKind::TlbMiss { .. } => TraceCategory::Tlb,
            TraceEventKind::Phase { .. } => TraceCategory::Core,
        }
    }

    /// The Chrome event name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            TraceEventKind::DemandMiss { .. } => "demand-miss",
            TraceEventKind::Prefetch { .. } => "prefetch",
            TraceEventKind::PrefetchUsed { .. } => "prefetch-used",
            TraceEventKind::PrefetchEvictedUnused { .. } => "prefetch-evicted-unused",
            TraceEventKind::PrefetchDropped { .. } => "prefetch-dropped",
            TraceEventKind::ThrottleLevel { .. } => "throttle-level",
            TraceEventKind::DigTransition { .. } => "dig-transition",
            TraceEventKind::PrefetcherNote { label, .. } => label,
            TraceEventKind::DramQueueSample { .. } => "dram-queue",
            TraceEventKind::TlbMiss { .. } => "tlb-miss",
            TraceEventKind::Phase { .. } => "phase",
        }
    }

    fn args_json(&self) -> String {
        fn served(s: ServedBy) -> &'static str {
            match s {
                ServedBy::L1 => "l1",
                ServedBy::L2 => "l2",
                ServedBy::L3 => "l3",
                ServedBy::Dram => "dram",
            }
        }
        match self.kind {
            TraceEventKind::DemandMiss { line, served: s } => {
                format!("{{\"line\":{line},\"served\":\"{}\"}}", served(s))
            }
            TraceEventKind::Prefetch {
                id,
                line,
                served: s,
            } => {
                format!(
                    "{{\"id\":{id},\"line\":{line},\"served\":\"{}\"}}",
                    served(s)
                )
            }
            TraceEventKind::PrefetchUsed { line, level, wait } => format!(
                "{{\"line\":{line},\"level\":\"{}\",\"wait\":{wait},\"timely\":{}}}",
                served(level),
                wait == 0
            ),
            TraceEventKind::PrefetchEvictedUnused { line }
            | TraceEventKind::PrefetchDropped { line } => format!("{{\"line\":{line}}}"),
            TraceEventKind::ThrottleLevel { level, prev } => {
                format!("{{\"level\":{level},\"prev\":{prev}}}")
            }
            TraceEventKind::DigTransition {
                src,
                dst,
                ranged,
                addr,
            } => format!("{{\"src\":{src},\"dst\":{dst},\"ranged\":{ranged},\"addr\":{addr}}}"),
            TraceEventKind::PrefetcherNote { addr, .. } => format!("{{\"addr\":{addr}}}"),
            TraceEventKind::DramQueueSample { channel, backlog } => {
                format!("{{\"channel\":{channel},\"backlog\":{backlog}}}")
            }
            TraceEventKind::TlbMiss { vaddr } => format!("{{\"vaddr\":{vaddr}}}"),
            TraceEventKind::Phase { index, cores } => {
                format!("{{\"index\":{index},\"cores\":{cores}}}")
            }
        }
    }

    /// Serializes to one Chrome trace-event object. Span events (nonzero
    /// duration, and phases) use `ph:"X"`; everything else is an instant.
    pub fn to_chrome_json(&self) -> String {
        let span = self.dur > 0 || matches!(self.kind, TraceEventKind::Phase { .. });
        let ph = if span {
            format!("\"ph\":\"X\",\"dur\":{}", self.dur)
        } else {
            "\"ph\":\"i\",\"s\":\"t\"".to_string()
        };
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",{},\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{}}}",
            self.name(),
            self.category().name(),
            ph,
            self.cycle,
            self.core,
            self.args_json()
        )
    }
}

/// Serializes events to a complete Chrome trace-event JSON document,
/// optionally keeping only the given categories.
///
/// Events are sorted by `(cycle, core, insertion order)`, so output cycles
/// are monotonically non-decreasing and byte-identical across runs with the
/// same seed regardless of emission interleaving.
pub fn chrome_trace_json(events: &[TraceEvent], filter: Option<&[TraceCategory]>) -> String {
    let mut picked: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| filter.map(|f| f.contains(&e.category())).unwrap_or(true))
        .collect();
    picked.sort_by_key(|e| (e.cycle, e.core));
    let mut out = String::with_capacity(64 + picked.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in picked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&e.to_chrome_json());
    }
    out.push_str("\n]}\n");
    out
}

/// A log2-bucketed histogram of cycle counts.
///
/// Bucket `i` (for `i ≥ 1`) counts values with bit-length `i`, i.e. in
/// `[2^(i-1), 2^i)`; bucket 0 counts zeros; values at or beyond
/// `2^(HIST_BUCKETS-1)` land in the last bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Bucket index for `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in `bucket`.
    pub fn bucket(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// Adds another histogram's contents into this one.
    pub fn merge(&mut self, o: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a += *b;
        }
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
    }

    /// Inclusive value interval `[lo, hi]` covered by `bucket`; the last
    /// bucket also holds every larger value, up to `u64::MAX`.
    pub fn bucket_interval(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 0),
            b if b >= HIST_BUCKETS - 1 => (1 << (HIST_BUCKETS - 2), u64::MAX),
            b => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Nearest-rank quantile, reported as the inclusive `[lo, hi]` value
    /// interval of the bucket holding the rank-`⌈q·count⌉` sample. Exact
    /// and deterministic: the true quantile of the recorded values always
    /// lies within the returned interval, and the single-valued buckets
    /// (values 0 and 1) collapse it to a point. `q` is clamped to
    /// `[0, 1]`; an empty histogram returns `None`.
    pub fn quantile(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(Self::bucket_interval(b));
            }
        }
        None
    }

    /// Interval of the highest non-empty bucket (brackets the maximum
    /// recorded value), or `None` when empty.
    pub fn max_interval(&self) -> Option<(u64, u64)> {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(Self::bucket_interval)
    }
}

/// `{"count":N,"sum":N,"buckets":[[bucket,count],...]}` with only the
/// non-empty buckets, in ascending order.
impl ToJson for Log2Hist {
    fn to_json(&self) -> Json {
        let buckets = self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            (
                "buckets",
                Json::Arr(buckets.map(|(i, n)| (i, *n).to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for Log2Hist {
    fn from_json(v: &Json) -> Result<Self, String> {
        let mut r = Fields::new(v, "Log2Hist")?;
        let mut h = Log2Hist {
            count: r.take("count")?,
            sum: r.take("sum")?,
            ..Log2Hist::default()
        };
        let pairs = r.take_with("buckets", |b| b.as_arr().ok_or("expected an array".into()))?;
        r.finish()?;
        let mut next = 0;
        for pair in pairs {
            let (bucket, n) = <(usize, u64)>::from_json(pair)?;
            if bucket < next || bucket >= HIST_BUCKETS || n == 0 {
                return Err(format!("Log2Hist: bad bucket pair [{bucket},{n}]"));
            }
            h.buckets[bucket] = n;
            next = bucket + 1;
        }
        Ok(h)
    }
}

/// The standard quantile set (p50/p90/p99/max) of one [`Log2Hist`], each as
/// an inclusive `[lo, hi]` bucket-bound interval.
///
/// Intervals rather than point estimates keep the numbers exact and
/// deterministic: a log2 histogram only knows which power-of-two bucket a
/// sample fell in, so interpolating a scalar would manufacture precision
/// (and make diffs depend on the interpolation). The bounds are gateable:
/// asserting `hi <= N` is a sound "the true quantile is at most N" check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistQuantiles {
    /// Median interval.
    pub p50: (u64, u64),
    /// 90th-percentile interval.
    pub p90: (u64, u64),
    /// 99th-percentile interval.
    pub p99: (u64, u64),
    /// Interval of the highest non-empty bucket.
    pub max: (u64, u64),
}

impl HistQuantiles {
    /// Extracts the standard quantiles, or `None` for an empty histogram.
    pub fn from_hist(h: &Log2Hist) -> Option<HistQuantiles> {
        Some(HistQuantiles {
            p50: h.quantile(0.50)?,
            p90: h.quantile(0.90)?,
            p99: h.quantile(0.99)?,
            max: h.max_interval()?,
        })
    }

    /// Renders one interval compactly for human-facing tables: `"v"` for a
    /// point interval, `"lo..hi"` otherwise.
    pub fn fmt_interval((lo, hi): (u64, u64)) -> String {
        if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}..{hi}")
        }
    }
}

// `{"p50":[lo,hi],"p90":[lo,hi],"p99":[lo,hi],"max":[lo,hi]}`.
crate::json_object!(HistQuantiles { p50, p90, p99, max });

/// The Fig. 19 prefetch-timeliness taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeliness {
    /// Demanded after the fill completed (full latency hidden).
    pub timely: u64,
    /// Demanded while still in flight (latency partially hidden).
    pub late: u64,
    /// Evicted from the hierarchy without ever being demanded.
    pub inaccurate: u64,
    /// Dropped before issue (already resident or in flight).
    pub dropped: u64,
}

impl Timeliness {
    /// Total classified prefetch requests.
    pub fn total(&self) -> u64 {
        self.timely + self.late + self.inaccurate + self.dropped
    }

    /// `part / total()`, or 0 when nothing was classified.
    pub fn share(&self, part: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            part as f64 / t as f64
        }
    }
}

crate::json_object!(Timeliness {
    timely,
    late,
    inaccurate,
    dropped
});

/// Identifies the static source of a prefetch for attribution: for Prodigy
/// this encodes a DIG node or edge (see `prodigy::edge_tag`), for baseline
/// prefetchers a stream/table index. The encoding is opaque to the
/// simulator; [`source_tag_label`] renders it.
pub type SourceTag = u16;

/// Renders a [`SourceTag`] for reports: a bare index (`"3"`) when the high
/// byte is zero, or an `"src->dst"` edge (`"0->2"`) when the high byte
/// carries a source id offset by one.
pub fn source_tag_label(tag: SourceTag) -> String {
    let (hi, lo) = (tag >> 8, tag & 0xff);
    if hi == 0 {
        format!("{lo}")
    } else {
        format!("{}->{lo}", hi - 1)
    }
}

/// Outcome counts for prefetches issued by one static source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Prefetch requests accepted into the hierarchy.
    pub issued: u64,
    /// Demanded after their fill completed (full latency hidden).
    pub timely: u64,
    /// Demanded while still in flight.
    pub late: u64,
    /// Evicted without ever being demanded.
    pub inaccurate: u64,
    /// Dropped before issue (redundant or backlogged).
    pub dropped: u64,
    /// Pollution events: demand misses on lines this source's prefetches
    /// displaced (shadow-victim-table hits, paper Fig. 13 pollution).
    pub polluting: u64,
}

impl SourceCounts {
    /// Useful prefetches (demanded before eviction).
    pub fn useful(&self) -> u64 {
        self.timely + self.late
    }

    /// Accuracy over this source's resolved prefetches, `None` when none
    /// resolved yet.
    pub fn accuracy(&self) -> Option<f64> {
        let resolved = self.useful() + self.inaccurate;
        if resolved == 0 {
            None
        } else {
            Some(self.useful() as f64 / resolved as f64)
        }
    }

    /// Pollution rate: victim-table demand misses caused per issued
    /// prefetch. `None` when the source never issued (matching the
    /// `accuracy()`/`coverage()` n/a convention).
    pub fn pollution(&self) -> Option<f64> {
        if self.issued == 0 {
            None
        } else {
            Some(self.polluting as f64 / self.issued as f64)
        }
    }
}

crate::json_object!(SourceCounts {
    issued,
    timely,
    late,
    inaccurate,
    dropped,
    polluting
});

/// Per-source prefetch attribution: for every [`SourceTag`] that issued at
/// least one prefetch, the timely/late/inaccurate/dropped breakdown. This
/// is the Pickle-style "which software structure did this prefetch come
/// from" view, keyed by DIG node/edge for Prodigy and by stream/table index
/// for the baselines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionTable {
    entries: BTreeMap<SourceTag, SourceCounts>,
}

impl AttributionTable {
    /// The counts of `tag`, created empty on its first fate. A source
    /// issues before any of its prefetches can be used, evicted or
    /// pollute, so in a run only an issue or a drop opens a row.
    #[inline]
    pub fn row(&mut self, tag: SourceTag) -> &mut SourceCounts {
        self.entries.entry(tag).or_default()
    }

    /// Whether no source ever issued a prefetch.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in ascending tag order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (SourceTag, &SourceCounts)> {
        self.entries.iter().map(|(t, c)| (*t, c))
    }

    /// The counts for one tag, if it ever issued.
    pub fn get(&self, tag: SourceTag) -> Option<&SourceCounts> {
        self.entries.get(&tag)
    }
}

/// Reads the `tag` and `label` that open every per-source row, checking
/// that tags ascend (rows are written in tag order) and that the label is
/// the one [`source_tag_label`] derives.
fn take_tag(r: &mut Fields<'_>, prev: Option<SourceTag>) -> Result<SourceTag, String> {
    let tag: SourceTag = r.take("tag")?;
    let label: String = r.take("label")?;
    if prev.is_some_and(|p| p >= tag) || label != source_tag_label(tag) {
        return Err(format!("source rows: bad tag {tag} / label {label:?}"));
    }
    Ok(tag)
}

/// An array of `{"tag":N,"label":"src->dst",<SourceCounts>}` rows in
/// ascending tag order.
impl ToJson for AttributionTable {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|(tag, c)| {
                    let mut row = vec![
                        ("tag".to_string(), tag.to_json()),
                        ("label".to_string(), source_tag_label(*tag).to_json()),
                    ];
                    if let Json::Obj(counts) = c.to_json() {
                        row.extend(counts);
                    }
                    Json::Obj(row)
                })
                .collect(),
        )
    }
}

impl FromJson for AttributionTable {
    fn from_json(v: &Json) -> Result<Self, String> {
        let mut t = AttributionTable::default();
        for row in v.as_arr().ok_or("attribution: expected an array")? {
            let mut r = Fields::new(row, "attribution row")?;
            let tag = take_tag(&mut r, t.entries.keys().next_back().copied())?;
            t.entries.insert(tag, SourceCounts::from_json(&r.rest())?);
        }
        Ok(t)
    }
}

/// Pollution events per cache level: demand misses that hit the shadow
/// victim table, i.e. misses a prefetch insert manufactured by displacing
/// a useful line. Untagged prefetches count here even though they carry no
/// attribution row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollutionCounts {
    /// Victim-table hits on L1 demand misses.
    pub l1: u64,
    /// Victim-table hits on L2 demand misses.
    pub l2: u64,
    /// Victim-table hits on L3 demand misses.
    pub l3: u64,
}

impl PollutionCounts {
    /// Total pollution events across levels.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3
    }
}

crate::json_object!(PollutionCounts { l1, l2, l3 });

/// Resident-line counts of one cache level (or one memory tier's share of
/// the L3), split by installing source.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelOccupancy {
    /// Lines installed by demand fills, plus prefetched lines already
    /// demanded at least once (their prefetch bit is cleared on first use).
    pub demand: u64,
    /// Still-unused prefetched lines installed without a source tag.
    pub untagged: u64,
    /// Still-unused prefetched lines per tagged source.
    pub sources: BTreeMap<SourceTag, u64>,
}

impl LevelOccupancy {
    /// Still-unused prefetched lines, tagged or not.
    pub fn prefetched(&self) -> u64 {
        self.untagged + self.sources.values().sum::<u64>()
    }

    /// Total resident lines.
    pub fn total(&self) -> u64 {
        self.demand + self.prefetched()
    }

    /// Counts one resident line installed by `src`.
    pub fn count(&mut self, prefetched: bool, src: Option<SourceTag>) {
        if !prefetched {
            self.demand += 1;
        } else {
            match src {
                Some(tag) => *self.sources.entry(tag).or_insert(0) += 1,
                None => self.untagged += 1,
            }
        }
    }
}

/// `{"demand":N,"untagged":N,"total":N,"sources":[{"tag","label","lines"}]}`;
/// `total` is derived and checked on decode.
impl ToJson for LevelOccupancy {
    fn to_json(&self) -> Json {
        let sources = self.sources.iter().map(|(tag, n)| {
            Json::obj([
                ("tag", tag.to_json()),
                ("label", source_tag_label(*tag).to_json()),
                ("lines", n.to_json()),
            ])
        });
        Json::obj([
            ("demand", self.demand.to_json()),
            ("untagged", self.untagged.to_json()),
            ("total", self.total().to_json()),
            ("sources", Json::Arr(sources.collect())),
        ])
    }
}

impl FromJson for LevelOccupancy {
    fn from_json(v: &Json) -> Result<Self, String> {
        let mut r = Fields::new(v, "LevelOccupancy")?;
        let mut occ = LevelOccupancy {
            demand: r.take("demand")?,
            untagged: r.take("untagged")?,
            ..LevelOccupancy::default()
        };
        let total: u64 = r.take("total")?;
        let rows = r.take_with("sources", |s| {
            s.as_arr().ok_or("expected an array".to_string())
        })?;
        r.finish()?;
        let mut sum = Some(occ.demand);
        for row in rows {
            let mut r = Fields::new(row, "occupancy source")?;
            let tag = take_tag(&mut r, occ.sources.keys().next_back().copied())?;
            let lines: u64 = r.take("lines")?;
            r.finish()?;
            occ.sources.insert(tag, lines);
            sum = sum.and_then(|s| s.checked_add(lines));
        }
        if sum.and_then(|s| s.checked_add(occ.untagged)) != Some(total) {
            return Err(format!(
                "LevelOccupancy: total {total} does not match its buckets"
            ));
        }
        Ok(occ)
    }
}

/// A point-in-time scan of cache contents by installing source: one
/// [`LevelOccupancy`] per cache level, plus a near/far split of the L3 on
/// tiered machines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Per-level occupancy, index 0 = L1 (all cores), 1 = L2, 2 = L3.
    pub levels: [LevelOccupancy; 3],
    /// L3 occupancy split by backing memory tier (`[near, far]`), present
    /// only when a far tier is configured.
    pub tiers: Option<[LevelOccupancy; 2]>,
}

/// `{"l1":..,"l2":..,"l3":..}`, plus `"near"`/`"far"` on tiered machines.
impl ToJson for OccupancySnapshot {
    fn to_json(&self) -> Json {
        let [l1, l2, l3] = &self.levels;
        let mut o = vec![
            ("l1".to_string(), l1.to_json()),
            ("l2".to_string(), l2.to_json()),
            ("l3".to_string(), l3.to_json()),
        ];
        if let Some([near, far]) = &self.tiers {
            o.push(("near".to_string(), near.to_json()));
            o.push(("far".to_string(), far.to_json()));
        }
        Json::Obj(o)
    }
}

impl FromJson for OccupancySnapshot {
    fn from_json(v: &Json) -> Result<Self, String> {
        let mut r = Fields::new(v, "OccupancySnapshot")?;
        let levels = [r.take("l1")?, r.take("l2")?, r.take("l3")?];
        let tiers = match (r.take_opt("near")?, r.take_opt("far")?) {
            (Some(near), Some(far)) => Some([near, far]),
            (None, None) => None,
            _ => return Err("OccupancySnapshot: near and far come as a pair".to_string()),
        };
        r.finish()?;
        Ok(OccupancySnapshot { levels, tiers })
    }
}

/// Memory-controller telemetry for one tier (near DRAM or the far pool).
/// Recorded only on machines with a far tier configured, so single-tier
/// runs carry no per-tier section at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTelemetry {
    /// Latency of demand accesses filled from this tier, issue → data.
    pub load_to_use: Log2Hist,
    /// Controller queueing delay per read on this tier.
    pub queue_wait: Log2Hist,
    /// Demand line reads serviced by this tier.
    pub demand_reads: u64,
    /// Prefetch line reads serviced by this tier.
    pub prefetch_reads: u64,
    /// Writeback transfers absorbed by this tier's controller queues.
    pub writebacks: u64,
}

crate::json_object!(TierTelemetry {
    load_to_use,
    queue_wait,
    demand_reads,
    prefetch_reads,
    writebacks
});

/// The near/far split of memory-controller telemetry on a tiered machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSplit {
    /// Local DRAM (hot tier).
    pub near: TierTelemetry,
    /// Far-memory pool (cold tier).
    pub far: TierTelemetry,
}

crate::json_object!(TierSplit { near, far });

/// Always-on telemetry counters for one run: latency histograms plus the
/// timeliness breakdown. Kept outside [`crate::Stats`] so the determinism
/// fingerprint of existing reports never changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Timely/late/inaccurate/dropped prefetch classification.
    pub timeliness: Timeliness,
    /// Latency of every demand access, issue → data (load-to-use).
    pub load_to_use: Log2Hist,
    /// Cycles a prefetched line sat ready in the hierarchy before its first
    /// demand (timely prefetches only).
    pub fill_to_use: Log2Hist,
    /// Residual cycles a demand waited on an in-flight prefetch (late
    /// prefetches only).
    pub late_wait: Log2Hist,
    /// Latency of DRAM-serviced demand accesses (memory round-trip).
    pub dram_round_trip: Log2Hist,
    /// Memory-controller queueing delay per DRAM read.
    pub dram_queue_wait: Log2Hist,
    /// Feedback-throttle aggressiveness increases.
    pub throttle_ups: u64,
    /// Feedback-throttle aggressiveness reductions.
    pub throttle_downs: u64,
    /// DIG edge transitions walked by the Prodigy prefetcher.
    pub dig_transitions: u64,
    /// Per-level pollution events (shadow-victim-table hits on demand
    /// misses).
    pub pollution: PollutionCounts,
    /// Per-source (DIG node/edge or stream/table) prefetch attribution.
    pub attribution: AttributionTable,
    /// Near/far memory-controller split, present only on machines with a
    /// far tier configured. `None` — always the case on single-tier runs —
    /// serializes to nothing, keeping those reports byte-identical to
    /// pre-tier builds.
    pub tiers: Option<TierSplit>,
    /// End-of-run cache-contents scan by installing source, captured by
    /// the runner just before telemetry is harvested. `None` until then.
    pub occupancy: Option<OccupancySnapshot>,
}

impl TelemetrySummary {
    /// The per-tier split, created on first touch. Only the tier-routing
    /// code in the hierarchy calls this, and only on tiered machines.
    pub fn tiers_mut(&mut self) -> &mut TierSplit {
        self.tiers.get_or_insert_with(TierSplit::default)
    }
}

// The per-cell `telemetry` object of sweep reports. `tiers` and
// `occupancy` are written only when present, so single-tier (and
// occupancy-less) runs keep the shape they had before those models existed.
crate::json_object!(TelemetrySummary {
    timeliness,
    load_to_use,
    fill_to_use,
    late_wait,
    dram_round_trip,
    dram_queue_wait,
    throttle_ups,
    throttle_downs,
    dig_transitions,
    pollution,
    tiers: omit_none,
    occupancy: omit_none,
    attribution,
});

/// The telemetry hub owned by the memory system: always-on counters plus an
/// optional event buffer and an optional windowed metrics registry.
#[derive(Default)]
pub struct Tracer {
    counters: TelemetrySummary,
    /// Events in emission order, while a trace is started.
    events: Option<Vec<TraceEvent>>,
    metrics: Option<Box<MetricsRegistry>>,
    /// Id of the next `prefetch` span; counts only while a trace is started.
    next_prefetch_id: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("counters", &self.counters)
            .field("events", &self.events.as_ref().map(Vec::len))
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer with no trace started.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Starts (or restarts) buffering events; emitted events are kept from
    /// now on.
    pub fn start_trace(&mut self) {
        self.events = Some(Vec::new());
    }

    /// Stops tracing and returns the buffered events, if a trace was
    /// started.
    pub fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.events.take()
    }

    /// Whether a trace is started (events are being constructed).
    pub fn is_tracing(&self) -> bool {
        self.events.is_some()
    }

    /// Installs (or replaces) a windowed metrics registry; sampling hooks
    /// are live from now on.
    pub fn install_metrics(&mut self, cfg: MetricsConfig) {
        self.metrics = Some(Box::new(MetricsRegistry::new(cfg)));
    }

    /// Removes and returns the metrics registry, if any.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take().map(|b| *b)
    }

    /// Mutable access to the metrics registry when one is installed (the
    /// sampling/gauge hooks no-op otherwise).
    #[inline]
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    /// The always-on counters.
    pub fn counters(&self) -> &TelemetrySummary {
        &self.counters
    }

    /// Mutable access to the counters (component instrumentation).
    pub fn counters_mut(&mut self) -> &mut TelemetrySummary {
        &mut self.counters
    }

    /// Buffers an event if a trace is started. The closure runs only when
    /// tracing is on, so disabled runs never construct events.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(f());
        }
    }

    /// Records a prefetch `core` issued at `now` and due as `fill`: credits
    /// `issued` to its source, if it names one, and emits the issue→fill
    /// `prefetch` span with the next sequential id when a trace is started.
    #[inline]
    pub fn prefetch_issued(
        &mut self,
        core: usize,
        now: u64,
        fill: FillEvent,
        tag: Option<SourceTag>,
    ) {
        if let Some(tag) = tag {
            self.counters.attribution.row(tag).issued += 1;
        }
        if let Some(events) = &mut self.events {
            events.push(TraceEvent {
                cycle: now,
                dur: fill.at - now,
                core: core as u32,
                kind: TraceEventKind::Prefetch {
                    id: self.next_prefetch_id,
                    line: fill.line_addr,
                    served: fill.served,
                },
            });
            self.next_prefetch_id += 1;
        }
    }

    /// Records a demand access completing: feeds the load-to-use histogram
    /// and, for L1 misses, emits a `demand-miss` span.
    #[inline]
    pub fn demand_done(
        &mut self,
        core: usize,
        issue: u64,
        latency: u64,
        served: ServedBy,
        line: u64,
        l1_miss: bool,
    ) {
        self.counters.load_to_use.record(latency);
        if served == ServedBy::Dram {
            self.counters.dram_round_trip.record(latency);
        }
        if l1_miss {
            self.emit(|| TraceEvent {
                cycle: issue,
                dur: latency,
                core: core as u32,
                kind: TraceEventKind::DemandMiss { line, served },
            });
        }
    }

    /// Records the first demand of a prefetched copy, arriving at `now` at
    /// a copy whose fill lands at `ready_at`: classifies it timely (landed
    /// already) or late, feeds the fill-to-use or late-wait histogram,
    /// credits `src` (the source stored with that copy) and emits a
    /// `prefetch-used` event.
    #[inline]
    pub fn prefetch_used(
        &mut self,
        core: usize,
        now: u64,
        line: u64,
        level: ServedBy,
        ready_at: u64,
        src: Option<SourceTag>,
    ) {
        let residual = ready_at.saturating_sub(now);
        if residual == 0 {
            self.counters.timeliness.timely += 1;
            self.counters.fill_to_use.record(now - ready_at);
            if let Some(tag) = src {
                self.counters.attribution.row(tag).timely += 1;
            }
        } else {
            self.counters.timeliness.late += 1;
            self.counters.late_wait.record(residual);
            if let Some(tag) = src {
                self.counters.attribution.row(tag).late += 1;
            }
        }
        self.emit(|| TraceEvent {
            cycle: now,
            dur: 0,
            core: core as u32,
            kind: TraceEventKind::PrefetchUsed {
                line,
                level,
                wait: residual,
            },
        });
    }

    /// Records a prefetched line leaving the hierarchy unused, credited to
    /// `src`, the source of the copy the verdict names.
    #[inline]
    pub fn prefetch_evicted_unused(&mut self, now: u64, line: u64, src: Option<SourceTag>) {
        self.counters.timeliness.inaccurate += 1;
        if let Some(tag) = src {
            self.counters.attribution.row(tag).inaccurate += 1;
        }
        self.emit(|| TraceEvent {
            cycle: now,
            dur: 0,
            core: 0,
            kind: TraceEventKind::PrefetchEvictedUnused { line },
        });
    }

    /// Records a pollution event: a demand miss at cache level `level`
    /// (0 = L1, 1 = L2, 2 = L3) hit the shadow victim table, meaning the
    /// missing line was displaced earlier by a prefetch from `src`. The
    /// per-level counter always advances; the per-source `polluting`
    /// column only for tagged sources (untagged prefetches have no
    /// attribution row, and pollution must not create one).
    #[inline]
    pub fn prefetch_polluted(&mut self, level: usize, src: Option<SourceTag>) {
        match level {
            0 => self.counters.pollution.l1 += 1,
            1 => self.counters.pollution.l2 += 1,
            _ => self.counters.pollution.l3 += 1,
        }
        if let Some(tag) = src {
            self.counters.attribution.row(tag).polluting += 1;
        }
    }

    /// Records a prefetch request dropped before issue; `tag` attributes
    /// the drop to its static source when the issuer supplied one.
    #[inline]
    pub fn prefetch_dropped(&mut self, core: usize, now: u64, line: u64, tag: Option<SourceTag>) {
        self.counters.timeliness.dropped += 1;
        if let Some(tag) = tag {
            self.counters.attribution.row(tag).dropped += 1;
        }
        self.emit(|| TraceEvent {
            cycle: now,
            dur: 0,
            core: core as u32,
            kind: TraceEventKind::PrefetchDropped { line },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_hist_buckets_and_moments() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2057);
        assert_eq!(h.bucket(0), 1, "zeros");
        assert_eq!(h.bucket(1), 1, "[1,2)");
        assert_eq!(h.bucket(2), 2, "[2,4)");
        assert_eq!(h.bucket(3), 1, "[4,8)");
        assert_eq!(h.bucket(10), 1, "[512,1024)");
        assert_eq!(h.bucket(11), 1, "[1024,2048)");
        assert!((h.mean() - 2057.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn log2_hist_saturates_in_last_bucket() {
        let mut h = Log2Hist::new();
        h.record(u64::MAX);
        assert_eq!(h.bucket(HIST_BUCKETS - 1), 1);
        let (lo, hi) = Log2Hist::bucket_interval(HIST_BUCKETS - 1);
        assert_eq!(lo, 1 << (HIST_BUCKETS - 2));
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn log2_hist_quantiles_are_bucket_bound_intervals() {
        assert_eq!(Log2Hist::new().quantile(0.5), None);
        assert_eq!(Log2Hist::new().max_interval(), None);
        assert_eq!(HistQuantiles::from_hist(&Log2Hist::new()), None);

        // 100 samples: 50 zeros, 40 ones, 9 in [4,8), 1 at 1024.
        let mut h = Log2Hist::new();
        for _ in 0..50 {
            h.record(0);
        }
        for _ in 0..40 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(5);
        }
        h.record(1024);
        assert_eq!(h.quantile(0.50), Some((0, 0)), "rank 50 is a zero");
        assert_eq!(h.quantile(0.90), Some((1, 1)), "rank 90 is a one");
        assert_eq!(h.quantile(0.99), Some((4, 7)), "rank 99 in [4,8)");
        assert_eq!(h.quantile(1.0), Some((1024, 2047)));
        assert_eq!(h.max_interval(), Some((1024, 2047)));
        // Out-of-range q clamps.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));

        let q = HistQuantiles::from_hist(&h).unwrap();
        assert_eq!(q.p50, (0, 0));
        assert_eq!(q.p99, (4, 7));
        assert_eq!(
            q.to_json().to_string(),
            "{\"p50\":[0,0],\"p90\":[1,1],\"p99\":[4,7],\"max\":[1024,2047]}"
        );
        assert_eq!(HistQuantiles::fmt_interval(q.p50), "0");
        assert_eq!(HistQuantiles::fmt_interval(q.p99), "4..7");

        // The overflow bucket's interval stays inclusive of u64::MAX.
        let mut top = Log2Hist::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), Some((1 << (HIST_BUCKETS - 2), u64::MAX)));
    }

    #[test]
    fn log2_hist_merge_and_json() {
        let mut a = Log2Hist::new();
        a.record(5);
        let mut b = Log2Hist::new();
        b.record(5);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(
            a.to_json().to_string(),
            "{\"count\":3,\"sum\":10,\"buckets\":[[0,1],[3,2]]}"
        );
    }

    #[test]
    fn timeliness_shares() {
        let t = Timeliness {
            timely: 6,
            late: 2,
            inaccurate: 1,
            dropped: 1,
        };
        assert_eq!(t.total(), 10);
        assert!((t.share(t.timely) - 0.6).abs() < 1e-12);
        assert_eq!(Timeliness::default().share(0), 0.0);
    }

    #[test]
    fn tracer_disabled_collects_counters_but_no_events() {
        let mut t = Tracer::new();
        assert!(!t.is_tracing());
        t.prefetch_used(0, 100, 0x1000, ServedBy::L1, 93, None);
        t.prefetch_dropped(0, 101, 0x1040, None);
        assert_eq!(t.counters().timeliness.timely, 1);
        assert_eq!(t.counters().timeliness.dropped, 1);
        assert_eq!(t.counters().fill_to_use.count(), 1);
        assert!(t.take_trace().is_none());
    }

    #[test]
    fn started_trace_records_events() {
        let mut t = Tracer::new();
        t.start_trace();
        t.demand_done(1, 10, 150, ServedBy::Dram, 0x2000, true);
        t.prefetch_used(1, 20, 0x2040, ServedBy::Dram, 50, None);
        let events = t.take_trace().expect("trace started");
        assert!(!t.is_tracing());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].category(), TraceCategory::Dram);
        assert_eq!(events[0].dur, 150);
        assert_eq!(events[1].category(), TraceCategory::Prefetcher);
        assert_eq!(t.counters().timeliness.late, 1);
    }

    #[test]
    fn chrome_json_is_cycle_sorted_and_filterable() {
        let ev = |cycle, kind| TraceEvent {
            cycle,
            dur: 0,
            core: 0,
            kind,
        };
        let events = vec![
            ev(30, TraceEventKind::TlbMiss { vaddr: 1 }),
            ev(10, TraceEventKind::PrefetchDropped { line: 64 }),
            ev(
                20,
                TraceEventKind::DramQueueSample {
                    channel: 0,
                    backlog: 5,
                },
            ),
        ];
        let json = chrome_trace_json(&events, None);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        let d = json.find("prefetch-dropped").unwrap();
        let q = json.find("dram-queue").unwrap();
        let t = json.find("tlb-miss").unwrap();
        assert!(d < q && q < t, "events sorted by cycle");
        let only_dram = chrome_trace_json(&events, Some(&[TraceCategory::Dram]));
        assert!(only_dram.contains("dram-queue"));
        assert!(!only_dram.contains("tlb-miss"));
    }

    #[test]
    fn category_filter_parses_and_rejects() {
        assert_eq!(
            parse_category_filter("cache, dram,prefetcher").unwrap(),
            vec![
                TraceCategory::Cache,
                TraceCategory::Dram,
                TraceCategory::Prefetcher
            ]
        );
        assert_eq!(parse_category_filter("bogus").unwrap_err(), "bogus");
        assert!(parse_category_filter("").unwrap().is_empty());
        for c in TraceCategory::ALL {
            assert_eq!(TraceCategory::parse(c.name()), Some(c));
        }
    }

    fn issue(t: &mut Tracer, line: u64, tag: Option<SourceTag>) {
        let fill = FillEvent {
            line_addr: line,
            served: ServedBy::Dram,
            at: 40,
        };
        t.prefetch_issued(0, 10, fill, tag);
    }

    #[test]
    fn attribution_follows_the_prefetch_lifecycle() {
        let mut t = Tracer::new();
        t.start_trace();
        // Edge tag 0->2 issues three lines; one timely, one late, one
        // evicted unused; a fourth request is dropped before issue.
        let tag = (1u16 << 8) | 2;
        for line in [0x1000, 0x1040, 0x1080] {
            issue(&mut t, line, Some(tag));
        }
        t.prefetch_used(0, 50, 0x1000, ServedBy::L1, 40, Some(tag));
        t.prefetch_used(0, 28, 0x1040, ServedBy::Dram, 40, Some(tag));
        t.prefetch_evicted_unused(70, 0x1080, Some(tag));
        t.prefetch_dropped(0, 80, 0x10c0, Some(tag));
        let c = *t.counters().attribution.get(tag).expect("tag present");
        assert_eq!(
            (c.issued, c.timely, c.late, c.inaccurate, c.dropped),
            (3, 1, 1, 1, 1)
        );
        assert_eq!(c.accuracy(), Some(2.0 / 3.0));
        assert_eq!(t.counters().fill_to_use.sum(), 10, "sat ready 50 - 40");
        assert_eq!(t.counters().late_wait.sum(), 12, "waited 40 - 28");
        // Untagged prefetches count globally but never enter the table.
        issue(&mut t, 0x2000, None);
        t.prefetch_used(0, 90, 0x2000, ServedBy::L1, 40, None);
        assert_eq!(t.counters().attribution.iter().count(), 1);
        assert_eq!(t.counters().timeliness.timely, 2);
        // Issue spans carry sequential ids, tagged or not.
        let ids: Vec<u64> = t
            .take_trace()
            .expect("trace started")
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Prefetch { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(source_tag_label(tag), "0->2");
        assert_eq!(source_tag_label(7), "7");
        let j = t.counters().attribution.to_json().to_string();
        assert!(j.contains("\"label\":\"0->2\",\"issued\":3,\"timely\":1"));
    }

    #[test]
    fn attribution_rows_accumulate_per_tag() {
        let mut a = AttributionTable::default();
        a.row(3).issued += 1;
        a.row(3).timely += 1;
        a.row(3).issued += 1;
        a.row(9).dropped += 1;
        assert_eq!(a.get(3).unwrap().issued, 2);
        assert_eq!(a.get(3).unwrap().timely, 1);
        assert_eq!(a.get(9).unwrap().dropped, 1);
        assert_eq!(a.iter().map(|(tag, _)| tag).collect::<Vec<_>>(), [3, 9]);
        assert_eq!(AttributionTable::default().to_json().to_string(), "[]");
        assert!(AttributionTable::default().is_empty());
    }

    #[test]
    fn tracer_metrics_install_and_take() {
        let mut t = Tracer::new();
        assert!(t.metrics_mut().is_none(), "unmetered by default");
        t.install_metrics(crate::metrics::MetricsConfig { window_cycles: 10 });
        t.metrics_mut()
            .expect("installed")
            .maybe_sample(25, &crate::stats::Stats::default());
        let reg = t.take_metrics().expect("taken");
        assert_eq!(reg.windows_closed(), 2);
        assert!(t.take_metrics().is_none());
    }

    #[test]
    fn summary_json_shape() {
        let mut a = TelemetrySummary::default();
        a.timeliness.timely = 2;
        a.timeliness.dropped = 1;
        a.load_to_use.record(4);
        a.dig_transitions = 9;
        assert_eq!(a.timeliness.total(), 3);
        let j = a.to_json().to_string();
        assert!(j.contains("\"timeliness\":{\"timely\":2,"));
        assert!(j.contains("\"dig_transitions\":9"));
        assert!(
            !j.contains("\"tiers\""),
            "single-tier summaries must not serialize a tiers field"
        );
    }

    #[test]
    fn tier_split_is_created_on_touch_and_serializes_only_when_present() {
        let mut a = TelemetrySummary::default();
        assert_eq!(a.tiers, None);
        a.tiers_mut().far.load_to_use.record(500);
        a.tiers_mut().far.demand_reads = 4;
        a.tiers_mut().far.prefetch_reads = 4;
        a.tiers_mut().near.writebacks = 2;
        let t = a.tiers.expect("split present once touched");
        assert_eq!(t.far.demand_reads, 4);
        assert_eq!(t.near.writebacks, 2);
        assert_eq!(t.far.load_to_use.count(), 1);
        let j = a.to_json().to_string();
        assert!(
            j.contains("\"tiers\":{\"near\":{\"load_to_use\""),
            "tiers field precedes attribution: {j}"
        );
        let at = |field: &str| j.find(field).unwrap();
        assert!(at("\"tiers\"") < at("\"attribution\""), "{j}");
        assert!(j.contains("\"demand_reads\":4,\"prefetch_reads\":4"));
    }

    #[test]
    fn pollution_is_counted_per_level_and_per_tagged_source() {
        let mut t = Tracer::new();
        issue(&mut t, 0x1000, Some(7));
        t.prefetch_polluted(0, Some(7));
        t.prefetch_polluted(2, Some(7));
        t.prefetch_polluted(1, None); // untagged: level counter only
        let c = t.counters();
        assert_eq!((c.pollution.l1, c.pollution.l2, c.pollution.l3), (1, 1, 1));
        assert_eq!(c.pollution.total(), 3);
        assert_eq!(c.attribution.get(7).unwrap().polluting, 2);
        assert_eq!(
            c.attribution.iter().count(),
            1,
            "untagged pollution must not create an attribution row"
        );
        // Per-source pollution rate follows the accuracy() n/a convention.
        assert_eq!(c.attribution.get(7).unwrap().pollution(), Some(2.0));
        assert_eq!(SourceCounts::default().pollution(), None);
        let j = c.attribution.to_json().to_string();
        assert!(j.contains("\"dropped\":0,\"polluting\":2"), "{j}");
        let j = c.to_json().to_string();
        assert!(
            j.contains("\"pollution\":{\"l1\":1,\"l2\":1,\"l3\":1}"),
            "{j}"
        );
    }

    #[test]
    fn occupancy_snapshot_counts_and_serializes() {
        let mut o = OccupancySnapshot::default();
        o.levels[0].count(false, None);
        o.levels[0].count(true, Some(7));
        o.levels[0].count(true, Some(7));
        o.levels[0].count(true, None);
        assert_eq!(o.levels[0].demand, 1);
        assert_eq!(o.levels[0].prefetched(), 3);
        assert_eq!(o.levels[0].total(), 4);
        let j = o.to_json().to_string();
        assert!(
            j.starts_with(
                "{\"l1\":{\"demand\":1,\"untagged\":1,\"total\":4,\
                 \"sources\":[{\"tag\":7,\"label\":\"7\",\"lines\":2}]}"
            ),
            "{j}"
        );
        assert!(!j.contains("\"near\""), "tierless snapshot has no tiers");
        // Tiered snapshots append the near/far L3 split.
        o.tiers = Some([LevelOccupancy::default(), LevelOccupancy::default()]);
        let j = o.to_json().to_string();
        assert!(j.contains("\"near\":{\"demand\":0"), "{j}");
        assert!(j.contains("\"far\":{\"demand\":0"), "{j}");

        // A summary serializes occupancy only once captured.
        let mut s = TelemetrySummary::default();
        assert!(!s.to_json().to_string().contains("\"occupancy\""));
        s.occupancy = Some(o);
        assert!(s.to_json().to_string().contains("\"occupancy\":{\"l1\""));
    }
}
