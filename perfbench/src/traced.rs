//! The traced pass: each layer timed from outside, through its public calls.
//!
//! A cell is built from the same public steps `run_workload` takes, with two
//! wrappers added: [`TimedRunner`] around the `System` splits the kernel's
//! own time (`Kernel::run` minus phases) from `System::run_phase`, and
//! [`Timed`] around each core's `AnyPrefetcher` times `on_demand` and
//! `on_fill`. Nothing inside the program is instrumented.

use prodigy::{DigProgram, ProdigyConfig, ProdigyPrefetcher, ProdigyStats};
use prodigy_sim::core::InsnStream;
use prodigy_sim::prefetch::FillQueue;
use prodigy_sim::{
    AccessKind, AddressSpace, DemandAccess, FillEvent, MemorySystem, NullPrefetcher, PrefetchCtx,
    Prefetcher, RunSummary, ServedBy, Stats, System, SystemConfig, TelemetrySummary,
};
use prodigy_workloads::{AnyPrefetcher, Kernel, PhaseRunner, PrefetcherKind};
use std::any::Any;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Demand accesses of a none cell recorded for the hierarchy replay.
const REPLAY_PREFIX: usize = 1_000_000;

/// One demand access as the prefetcher saw it.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    core: u8,
    is_write: bool,
    now: u64,
    vaddr: u64,
}

/// Prefetcher-layer counters shared by every core's wrapper.
///
/// `Prefetcher` requires `Send`, so the counters are atomics; one thread
/// drives a cell, so they are bumped with a plain load and store rather
/// than a locked read-modify-write.
#[derive(Debug, Default)]
struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
    accesses: AtomicU64,
    writes: AtomicU64,
    recording: AtomicBool,
    record: Mutex<Vec<Access>>,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

impl Span {
    /// A span that also records the first [`REPLAY_PREFIX`] demand accesses.
    fn recording() -> Span {
        Span {
            recording: AtomicBool::new(true),
            record: Mutex::new(Vec::with_capacity(REPLAY_PREFIX)),
            ..Span::default()
        }
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        bump(&self.nanos, t.elapsed().as_nanos() as u64);
        bump(&self.calls, 1);
        r
    }

    fn record(&self, access: Access) {
        let mut rec = self.record.lock().expect("recorder never panics");
        rec.push(access);
        if rec.len() == REPLAY_PREFIX {
            self.recording.store(false, Relaxed);
        }
    }
}

/// A prefetcher wrapped so its calls are counted and timed.
struct Timed {
    inner: AnyPrefetcher,
    span: Arc<Span>,
}

impl Prefetcher for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, access: &DemandAccess) {
        let s = &*self.span;
        bump(&s.accesses, 1);
        bump(&s.writes, access.is_write as u64);
        if s.recording.load(Relaxed) {
            s.record(Access {
                core: ctx.core as u8,
                is_write: access.is_write,
                now: ctx.now,
                vaddr: access.vaddr,
            });
        }
        s.time(|| self.inner.on_demand(ctx, access));
    }
    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        self.span.time(|| self.inner.on_fill(ctx, fill));
    }
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        // The inner prefetcher, so `DigProgram::apply` still finds Prodigy.
        self.inner.as_any_mut()
    }
}

/// The kernel's view of the `System`, with each phase timed.
struct TimedRunner<'a> {
    sys: &'a mut System<Timed>,
    phase: Duration,
    phases: u64,
}

impl PhaseRunner for TimedRunner<'_> {
    fn cores(&self) -> usize {
        self.sys.cores()
    }
    fn space(&self) -> &AddressSpace {
        self.sys.space()
    }
    fn space_mut(&mut self) -> &mut AddressSpace {
        self.sys.space_mut()
    }
    fn run_streams(&mut self, streams: Vec<InsnStream>) {
        self.phases += 1;
        let t = Instant::now();
        self.sys.run_phase(streams);
        self.phase += t.elapsed();
    }
    fn reprogram(&mut self, program: &DigProgram) {
        self.sys.reprogram(program);
    }
}

/// What a traced cell produced, simulated and measured.
#[derive(Debug)]
pub struct Traced {
    /// Counters, as `run_workload` reports them.
    pub summary: RunSummary,
    /// Kernel checksum.
    pub checksum: u64,
    /// Telemetry, as `run_workload` reports it.
    pub telemetry: TelemetrySummary,
    /// Prodigy's own counters summed over cores, on Prodigy cells.
    pub prodigy: Option<ProdigyStats>,
    /// Host seconds from building the `System` to the harvest.
    pub total_s: f64,
    /// `Kernel::prepare`.
    pub prepare_s: f64,
    /// `Kernel::run` minus the phases it ran.
    pub kernel_self_s: f64,
    /// `System::run_phase`, prefetcher calls included.
    pub phase_s: f64,
    /// Phases the kernel emitted.
    pub phases: u64,
    /// `on_demand` plus `on_fill` calls.
    pub pf_calls: u64,
    /// Seconds measured inside the prefetcher calls.
    pub pf_gross_s: f64,
    /// Demand accesses seen.
    pub accesses: u64,
    /// Demand writes seen.
    pub writes: u64,
    /// The recorded demand-stream prefix, when asked for.
    pub prefix: Option<Vec<Access>>,
}

/// Runs one cell through `run_workload`'s public steps with both wrappers
/// installed. `record` keeps the demand-stream prefix for [`replay`].
pub fn run_cell(kernel: &mut dyn Kernel, kind: PrefetcherKind, record: bool) -> Traced {
    let span = Arc::new(if record {
        Span::recording()
    } else {
        Span::default()
    });
    let wrap = |inner| Timed {
        inner,
        span: Arc::clone(&span),
    };
    let start = Instant::now();
    let mut sys: System<Timed> = System::with_prefetchers(SystemConfig::bench(), |_| {
        wrap(AnyPrefetcher::None(NullPrefetcher::new()))
    });
    let t = Instant::now();
    let dig = kernel.prepare(sys.address_space_mut());
    let prepare = t.elapsed();
    let program = DigProgram::from_dig(&dig);
    sys.set_prefetchers(|_| wrap(AnyPrefetcher::build(kind, &dig, ProdigyConfig::default())));
    sys.program_prefetchers(|p| program.apply(p));

    let mut runner = TimedRunner {
        sys: &mut sys,
        phase: Duration::ZERO,
        phases: 0,
    };
    let t = Instant::now();
    let checksum = kernel.run(&mut runner);
    let run = t.elapsed();
    let (phase, phases) = (runner.phase, runner.phases);

    let mut prodigy: Option<ProdigyStats> = None;
    sys.program_prefetchers(|p| {
        if let Some(pp) = p.as_any_mut().downcast_mut::<ProdigyPrefetcher>() {
            let s = pp.prodigy_stats();
            let acc = prodigy.get_or_insert_with(ProdigyStats::default);
            acc.sequences_initiated += s.sequences_initiated;
            acc.sequences_dropped += s.sequences_dropped;
            acc.single_prefetches += s.single_prefetches;
            acc.ranged_prefetches += s.ranged_prefetches;
            acc.trigger_prefetches += s.trigger_prefetches;
            acc.inline_advances += s.inline_advances;
            acc.pfhr_drops += s.pfhr_drops;
            acc.elements_advanced += s.elements_advanced;
            acc.range_elements_tracked += s.range_elements_tracked;
        }
    });
    sys.memory_mut().capture_occupancy();
    let telemetry = sys.telemetry().clone();
    let summary = sys.summary();
    let total = start.elapsed();
    drop(sys);

    Traced {
        summary,
        checksum,
        telemetry,
        prodigy,
        total_s: total.as_secs_f64(),
        prepare_s: prepare.as_secs_f64(),
        kernel_self_s: run.saturating_sub(phase).as_secs_f64(),
        phase_s: phase.as_secs_f64(),
        phases,
        pf_calls: span.calls.load(Relaxed),
        pf_gross_s: span.nanos.load(Relaxed) as f64 / 1e9,
        accesses: span.accesses.load(Relaxed),
        writes: span.writes.load(Relaxed),
        prefix: record
            .then(|| std::mem::take(&mut *span.record.lock().expect("recorder never panics"))),
    }
}

/// Cost of the prefetcher wrapper, measured on empty calls.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Nanoseconds an empty call reads as inside the wrapper.
    pub inside_ns: f64,
    /// Nanoseconds an empty wrapped call adds, measured from outside.
    pub call_ns: f64,
}

/// Median of `xs` (which must be non-empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Calibrates [`TimerCost`] by driving a wrapped and a bare
/// `NullPrefetcher` through the same `on_demand` loop.
pub fn calibrate() -> TimerCost {
    const CALLS: u64 = 200_000;
    const BATCHES: usize = 9;
    let mut mem = MemorySystem::new(SystemConfig::bench());
    let space = AddressSpace::new();
    let mut stats = Stats::default();
    let mut fills = FillQueue::new();
    let access = DemandAccess {
        vaddr: 0x1000,
        size: 8,
        is_write: false,
        pc: 1,
        served: ServedBy::L1,
    };
    let mut drive = |p: &mut dyn FnMut(&mut PrefetchCtx<'_>)| {
        let t = Instant::now();
        for now in 0..CALLS {
            let mut ctx = PrefetchCtx::new(0, now, &mut mem, &space, &mut stats, &mut fills);
            p(black_box(&mut ctx));
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let (mut inside, mut call) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let span = Arc::new(Span::default());
        let mut wrapped = Timed {
            inner: AnyPrefetcher::None(NullPrefetcher::new()),
            span: Arc::clone(&span),
        };
        let mut bare = AnyPrefetcher::None(NullPrefetcher::new());
        let wrapped_ns = drive(&mut |ctx| wrapped.on_demand(ctx, black_box(&access)));
        let bare_ns = drive(&mut |ctx| bare.on_demand(ctx, black_box(&access)));
        inside.push(span.nanos.load(Relaxed) as f64 / span.calls.load(Relaxed) as f64);
        call.push(wrapped_ns - bare_ns);
    }
    TimerCost {
        inside_ns: median(inside),
        call_ns: median(call),
    }
}

/// Host nanoseconds per `MemorySystem::demand_access` over `prefix`, on a
/// fresh memory system (median of three replays).
pub fn replay(prefix: &[Access]) -> f64 {
    let times = (0..3)
        .map(|_| {
            let mut mem = MemorySystem::new(SystemConfig::bench());
            let mut stats = Stats::default();
            let t = Instant::now();
            for a in prefix {
                let kind = if a.is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                black_box(mem.demand_access(a.core as usize, a.vaddr, kind, a.now, &mut stats));
            }
            t.elapsed().as_nanos() as f64 / prefix.len().max(1) as f64
        })
        .collect();
    median(times)
}
