//! Host self-profiling: per-component wall-time and allocation accounting.
//!
//! Answers "where does the *host* time go" for a simulated run without
//! perturbing the simulation: RAII [`ScopeGuard`]s mark the simulator's
//! major components (hierarchy walk, prefetcher training, DRAM/TLB ticks,
//! the Prodigy DIG walker, telemetry, the workload kernel, setup) and feed
//! thread-local self-time counters. A binary that installs a counting
//! global allocator can additionally call [`note_alloc`] so heap
//! allocations are attributed to the component that made them.
//!
//! The whole layer is **off by default** and compiled to near-nothing when
//! disabled: entering a scope is a single relaxed atomic load, and no state
//! is touched (the zero-allocation test in `crates/sim/tests/zero_alloc.rs`
//! pins this down). It never reads simulated state, so enabling it cannot
//! change `Stats`, checksums, or telemetry — only the host-side
//! `host_profile` report section.
//!
//! Accounting is *self-time*: a guard subtracts the time spent in nested
//! guards before crediting its own component, so nothing is double-counted
//! and the per-component numbers sum to (at most) the profiled wall time.
//! Counters are thread-local; a run profiled on one thread must be
//! snapshotted on that same thread ([`snapshot_thread`]).

use crate::json::{Json, ToJson};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The simulator components a [`ScopeGuard`] can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Component {
    /// System construction, workload `prepare`, DIG programming.
    Setup = 0,
    /// The workload kernel itself: algorithm work + stream building +
    /// core-model stepping (everything inside `kernel.run` not claimed by
    /// a nested component).
    Kernel = 1,
    /// The cache-hierarchy demand walk (`demand_access` self-time).
    HierarchyWalk = 2,
    /// Prefetcher training: `on_demand`/`on_fill` dispatch and any
    /// non-Prodigy prefetcher's internal logic.
    PrefetchTrain = 3,
    /// Prefetch issue into the hierarchy (`prefetch_tagged` self-time).
    PrefetchIssue = 4,
    /// DRAM controller model (`dram.read`).
    DramTick = 5,
    /// TLB lookup/miss model.
    TlbTick = 6,
    /// The Prodigy DIG walker (sequence init + advance state machine).
    DigWalk = 7,
    /// Telemetry overhead: histogram/attribution updates, event emission,
    /// end-of-run harvest.
    Telemetry = 8,
}

/// Number of distinct [`Component`]s.
pub const COMPONENTS: usize = 9;

/// Every component, in report order.
pub const ALL_COMPONENTS: [Component; COMPONENTS] = [
    Component::Setup,
    Component::Kernel,
    Component::HierarchyWalk,
    Component::PrefetchTrain,
    Component::PrefetchIssue,
    Component::DramTick,
    Component::TlbTick,
    Component::DigWalk,
    Component::Telemetry,
];

impl Component {
    /// Stable snake_case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Component::Setup => "setup",
            Component::Kernel => "kernel",
            Component::HierarchyWalk => "hierarchy_walk",
            Component::PrefetchTrain => "prefetch_train",
            Component::PrefetchIssue => "prefetch_issue",
            Component::DramTick => "dram_tick",
            Component::TlbTick => "tlb_tick",
            Component::DigWalk => "dig_walk",
            Component::Telemetry => "telemetry",
        }
    }
}

/// Sentinel for "not inside any scope" in the CURRENT component slot.
const NO_COMPONENT: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Per-component self-time nanoseconds on this thread.
    static SELF_NS: Cell<[u64; COMPONENTS]> = const { Cell::new([0; COMPONENTS]) };
    /// Per-component allocation counts (+1 unattributed slot at the end).
    static ALLOCS: Cell<[u64; COMPONENTS + 1]> = const { Cell::new([0; COMPONENTS + 1]) };
    /// Nanoseconds consumed by already-closed child scopes of the
    /// innermost open scope (subtracted from its elapsed time on drop).
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
    /// Index of the innermost open scope's component.
    static CURRENT: Cell<usize> = const { Cell::new(NO_COMPONENT) };
}

/// Turns profiling on (process-wide). Guards created from now on record;
/// already-open disabled guards stay inert. Never called on the sweep hot
/// path — drivers enable once up front.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes this thread's counters (call at the start of a profiled run).
pub fn reset_thread() {
    SELF_NS.with(|c| c.set([0; COMPONENTS]));
    ALLOCS.with(|c| c.set([0; COMPONENTS + 1]));
    CHILD_NS.with(|c| c.set(0));
    CURRENT.with(|c| c.set(NO_COMPONENT));
}

/// Snapshots this thread's counters into a [`HostProfile`].
pub fn snapshot_thread() -> HostProfile {
    HostProfile {
        self_ns: SELF_NS.with(|c| c.get()),
        allocs: ALLOCS.with(|c| c.get()),
    }
}

/// Attributes one heap allocation to the innermost open scope's component
/// (or the unattributed slot when no scope is open). Called by a counting
/// global allocator installed in the driver binary; must not allocate.
#[inline]
pub fn note_alloc() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    let slot = if idx < COMPONENTS { idx } else { COMPONENTS };
    ALLOCS.with(|c| {
        let mut a = c.get();
        a[slot] = a[slot].saturating_add(1);
        c.set(a);
    });
}

/// RAII marker for "host time spent here belongs to `component`".
///
/// When profiling is disabled, construction is one relaxed atomic load and
/// drop is a no-op. When enabled, the guard credits its component with the
/// scope's elapsed time minus the time of nested guards (self-time).
#[derive(Debug)]
pub struct ScopeGuard {
    start: Option<Instant>,
    comp: Component,
    outer_child: u64,
    outer_current: usize,
}

impl ScopeGuard {
    /// Opens a profiling scope for `component`.
    #[inline]
    pub fn enter(comp: Component) -> ScopeGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return ScopeGuard {
                start: None,
                comp,
                outer_child: 0,
                outer_current: NO_COMPONENT,
            };
        }
        let outer_child = CHILD_NS.with(|c| c.replace(0));
        let outer_current = CURRENT.with(|c| c.replace(comp as usize));
        ScopeGuard {
            start: Some(Instant::now()),
            comp,
            outer_child,
            outer_current,
        }
    }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        let children = CHILD_NS.with(|c| c.get());
        let own = elapsed.saturating_sub(children);
        SELF_NS.with(|c| {
            let mut a = c.get();
            let i = self.comp as usize;
            a[i] = a[i].saturating_add(own);
            c.set(a);
        });
        // The whole scope (self + children) counts as child time of the
        // enclosing scope, which resumes as the innermost one.
        CHILD_NS.with(|c| c.set(self.outer_child.saturating_add(elapsed)));
        CURRENT.with(|c| c.set(self.outer_current));
    }
}

/// A finished run's per-component host-time/allocation breakdown.
///
/// Host-side measurement only: like `RunTiming`, it is one of a sweep
/// cell's host fields, which `--merge` and `prodigy-diff` leave out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostProfile {
    /// Self-time nanoseconds per component (index = `Component as usize`).
    pub self_ns: [u64; COMPONENTS],
    /// Allocation counts per component; the extra trailing slot counts
    /// allocations made outside any scope.
    pub allocs: [u64; COMPONENTS + 1],
}

impl Default for HostProfile {
    fn default() -> Self {
        HostProfile {
            self_ns: [0; COMPONENTS],
            allocs: [0; COMPONENTS + 1],
        }
    }
}

impl HostProfile {
    /// Sum of all component self-times.
    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Sum of all attributed + unattributed allocation counts.
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Whether nothing was recorded (e.g. the run was not profiled).
    pub fn is_empty(&self) -> bool {
        self.total_self_ns() == 0 && self.total_allocs() == 0
    }

    /// Element-wise accumulation (sweep-wide aggregation across cells).
    pub fn merge(&mut self, o: &HostProfile) {
        for (a, b) in self.self_ns.iter_mut().zip(o.self_ns.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.allocs.iter_mut().zip(o.allocs.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Components with their self-time and allocation count, ranked by
    /// descending self-time (the "where the time goes" order).
    pub fn ranked(&self) -> Vec<(Component, u64, u64)> {
        let mut rows: Vec<(Component, u64, u64)> = ALL_COMPONENTS
            .iter()
            .map(|&c| (c, self.self_ns[c as usize], self.allocs[c as usize]))
            .collect();
        rows.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (a.0 as usize).cmp(&(b.0 as usize)))
        });
        rows
    }

    /// The breakdown as JSON, measured against the run's total host time:
    /// `host_nanos_total` is the enclosing wall measurement (`RunTiming`),
    /// and the residual it does not attribute to any component is reported
    /// explicitly as `other_ns` rather than silently dropped.
    pub fn to_json(&self, host_nanos_total: u64) -> Json {
        let comps = ALL_COMPONENTS.iter().map(|&c| {
            let row = Json::obj([
                ("self_ns", self.self_ns[c as usize].to_json()),
                ("allocs", self.allocs[c as usize].to_json()),
            ]);
            (c.label().to_string(), row)
        });
        Json::obj([
            ("host_nanos_total", host_nanos_total.to_json()),
            (
                "other_ns",
                host_nanos_total
                    .saturating_sub(self.total_self_ns())
                    .to_json(),
            ),
            ("allocs_unattributed", self.allocs[COMPONENTS].to_json()),
            ("components", Json::Obj(comps.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The thread-local store is shared by every test on the same thread,
    // so the suite runs as one test body exercising each property in turn.
    #[test]
    fn scopes_account_self_time_without_double_counting() {
        // Disabled guards record nothing.
        set_enabled(false);
        reset_thread();
        {
            let _g = ScopeGuard::enter(Component::Kernel);
            std::hint::black_box(0u64);
        }
        note_alloc();
        assert!(snapshot_thread().is_empty(), "disabled layer must be inert");

        // Enabled: nested guards subtract from the parent's self-time.
        set_enabled(true);
        reset_thread();
        {
            let _outer = ScopeGuard::enter(Component::Kernel);
            spin(2_000_000);
            {
                let _inner = ScopeGuard::enter(Component::HierarchyWalk);
                spin(2_000_000);
            }
            spin(2_000_000);
        }
        let p = snapshot_thread();
        let k = p.self_ns[Component::Kernel as usize];
        let h = p.self_ns[Component::HierarchyWalk as usize];
        assert!(k > 0 && h > 0, "both components credited: {p:?}");
        // Self-times are exclusive: the sum can't exceed the wall time of
        // the outer scope by construction (saturating arithmetic aside).
        assert!(p.total_self_ns() >= k.max(h));

        // Sequential siblings both roll up into the enclosing scope.
        reset_thread();
        {
            let _outer = ScopeGuard::enter(Component::Kernel);
            {
                let _a = ScopeGuard::enter(Component::DramTick);
                spin(1_000_000);
            }
            {
                let _b = ScopeGuard::enter(Component::TlbTick);
                spin(1_000_000);
            }
        }
        let p = snapshot_thread();
        assert!(p.self_ns[Component::DramTick as usize] > 0);
        assert!(p.self_ns[Component::TlbTick as usize] > 0);

        // Alloc attribution follows the innermost open scope.
        reset_thread();
        {
            let _g = ScopeGuard::enter(Component::Telemetry);
            note_alloc();
            note_alloc();
        }
        note_alloc(); // outside any scope -> unattributed slot
        let p = snapshot_thread();
        assert_eq!(p.allocs[Component::Telemetry as usize], 2);
        assert_eq!(p.allocs[COMPONENTS], 1);
        assert_eq!(p.total_allocs(), 3);

        // Ranked order is by descending self-time; JSON reports the
        // residual explicitly.
        let ranked = p.ranked();
        assert_eq!(ranked.len(), COMPONENTS);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        let js = p.to_json(1_000).to_string();
        assert!(js.contains("\"host_nanos_total\":1000"));
        assert!(js.contains("\"other_ns\":"));
        assert!(js.contains("\"telemetry\":{\"self_ns\":"));

        // Merge accumulates element-wise.
        let mut acc = HostProfile::default();
        acc.merge(&p);
        acc.merge(&p);
        assert_eq!(acc.allocs[Component::Telemetry as usize], 4);

        set_enabled(false);
        reset_thread();
    }

    /// Burns roughly `ns` nanoseconds of host time without sleeping.
    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }
}
