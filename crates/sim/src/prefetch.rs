//! Prefetcher interface.
//!
//! Every prefetcher in the reproduction — Prodigy itself and the baselines
//! (stride, GHB G/DC, IMP, Ainsworth & Jones, DROPLET) — implements
//! [`Prefetcher`] and plugs into the per-core L1D snoop path exactly as the
//! paper's hardware does: it observes demand accesses and prefetch fills,
//! and issues non-binding prefetches through a [`PrefetchCtx`]. The context
//! also exposes the simulated memory *values* ([`PrefetchCtx::read_uint`]),
//! which is what lets data-driven prefetchers chase indirections.

use crate::mem::address_space::AddressSpace;
use crate::mem::hierarchy::{MemorySystem, ServedBy};
use crate::stats::Stats;
use crate::telemetry::{SourceTag, TraceEvent, TraceEventKind};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A demand access observed at the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandAccess {
    /// Virtual address of the access.
    pub vaddr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Whether this was a store.
    pub is_write: bool,
    /// Static instruction id of the access site (stand-in for the PC);
    /// PC-indexed prefetchers key their tables on this.
    pub pc: u32,
    /// Which level serviced the access.
    pub served: ServedBy,
}

/// An accepted prefetch's fill: what the hierarchy returns on issue, what
/// the fill queue holds until the fill completes, and what the issuing
/// prefetcher receives in [`Prefetcher::on_fill`].
///
/// Ordered by completion cycle, then line address — the order the fill
/// queue delivers fills in — while equality compares every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillEvent {
    /// Line-aligned address that was filled.
    pub line_addr: u64,
    /// Where the fill was serviced from (DROPLET keys off this).
    pub served: ServedBy,
    /// Cycle at which the fill completes in the target cache.
    pub at: u64,
}

impl Ord for FillEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.line_addr).cmp(&(other.at, other.line_addr))
    }
}
impl PartialOrd for FillEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of pending fills for one core.
pub type FillQueue = BinaryHeap<Reverse<FillEvent>>;

/// Everything a prefetcher may touch while reacting to an event.
pub struct PrefetchCtx<'a> {
    /// The core this prefetcher is attached to.
    pub core: usize,
    /// Current cycle (the demand access time, or the fill completion time).
    pub now: u64,
    pub(crate) mem: &'a mut MemorySystem,
    pub(crate) space: &'a AddressSpace,
    pub(crate) stats: &'a mut Stats,
    pub(crate) fills: &'a mut FillQueue,
}

impl<'a> PrefetchCtx<'a> {
    /// Creates a context; exposed so unit tests of prefetchers can drive
    /// them without a full [`crate::System`].
    pub fn new(
        core: usize,
        now: u64,
        mem: &'a mut MemorySystem,
        space: &'a AddressSpace,
        stats: &'a mut Stats,
        fills: &'a mut FillQueue,
    ) -> Self {
        PrefetchCtx {
            core,
            now,
            mem,
            space,
            stats,
            fills,
        }
    }

    /// Issues a non-binding prefetch of the line containing `vaddr` into
    /// this core's L1D. `tag` names the structure that generated the
    /// request (DIG edge, stream slot, stride table entry, ...); the
    /// telemetry layer credits the prefetch's fate — timely / late /
    /// inaccurate / dropped — to it. Returns `true` if the request was
    /// accepted (not redundant). The eventual fill will be delivered to
    /// [`Prefetcher::on_fill`].
    pub fn prefetch(&mut self, vaddr: u64, tag: SourceTag) -> bool {
        let fill = self
            .mem
            .prefetch(self.core, vaddr, self.now, self.stats, Some(tag));
        self.schedule_fill(fill)
    }

    /// Issues a memory-side prefetch into the shared LLC only (DRAM-side
    /// designs like DROPLET cannot fill a core's private caches), credited
    /// to `tag` as for [`PrefetchCtx::prefetch`]. The fill is still
    /// delivered to [`Prefetcher::on_fill`].
    pub fn prefetch_llc(&mut self, vaddr: u64, tag: SourceTag) -> bool {
        let fill = self
            .mem
            .prefetch_llc(self.core, vaddr, self.now, self.stats, Some(tag));
        self.schedule_fill(fill)
    }

    /// Queues an accepted prefetch's fill for delivery; `false` if dropped.
    fn schedule_fill(&mut self, fill: Option<FillEvent>) -> bool {
        let Some(fill) = fill else {
            return false;
        };
        self.fills.push(Reverse(fill));
        true
    }

    /// Reads a little-endian unsigned value from simulated memory — the
    /// "snoop on the data response bus" the paper describes (§VI-E).
    pub fn read_uint(&self, vaddr: u64, size: u8) -> u64 {
        self.space.read_uint(vaddr, size)
    }

    /// Whether the line containing `vaddr` is already resident or in flight
    /// in this core's L1D.
    pub fn l1_contains(&self, vaddr: u64) -> bool {
        self.mem.l1_contains(self.core, vaddr)
    }

    /// Records the Prodigy walker traversing a DIG edge for the element at
    /// `addr` (counts it, and emits a `dig-transition` event when tracing).
    pub fn trace_dig_transition(&mut self, src: u16, dst: u16, ranged: bool, addr: u64) {
        let tel = self.mem.tracer_mut();
        tel.counters_mut().dig_transitions += 1;
        let (core, now) = (self.core as u32, self.now);
        tel.emit(|| TraceEvent {
            cycle: now,
            dur: 0,
            core,
            kind: TraceEventKind::DigTransition {
                src,
                dst,
                ranged,
                addr,
            },
        });
    }

    /// Emits a free-form prefetcher event (baseline internals: stride lock,
    /// stream allocation, GHB correlation hit, ...). `label` becomes the
    /// Chrome event name; nothing happens when tracing is off.
    pub fn trace_note(&mut self, label: &'static str, addr: u64) {
        let (core, now) = (self.core as u32, self.now);
        self.mem.tracer_mut().emit(|| TraceEvent {
            cycle: now,
            dur: 0,
            core,
            kind: TraceEventKind::PrefetcherNote { label, addr },
        });
    }
}

/// A hardware prefetcher attached to one core's L1D.
pub trait Prefetcher: Send {
    /// Short human-readable name ("prodigy", "ghb-gdc", ...).
    fn name(&self) -> &'static str;

    /// Called for every demand load/store the core performs.
    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, access: &DemandAccess);

    /// Called when a prefetch previously issued by this prefetcher fills.
    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent);

    /// Storage the hardware implementation would need, in bits (for the
    /// §VI-E overhead comparison).
    fn storage_bits(&self) -> u64;

    /// Downcasting hook so software can "program" a specific prefetcher
    /// (Prodigy's registration API uses this to reach the DIG tables).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The non-prefetching baseline: ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates a no-op prefetcher.
    pub fn new() -> Self {
        NullPrefetcher
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }
    fn on_demand(&mut self, _ctx: &mut PrefetchCtx<'_>, _access: &DemandAccess) {}
    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _fill: &FillEvent) {}
    fn storage_bits(&self) -> u64 {
        0
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    #[test]
    fn ctx_prefetch_schedules_fill() {
        let mut mem = MemorySystem::new(SystemConfig::scaled(64).with_cores(1));
        let space = AddressSpace::new();
        let mut stats = Stats::default();
        let mut fills = FillQueue::new();
        let mut ctx = PrefetchCtx::new(0, 0, &mut mem, &space, &mut stats, &mut fills);
        assert!(ctx.prefetch(0x1234, 0));
        assert!(!ctx.prefetch(0x1236, 0), "same line is redundant");
        assert_eq!(fills.len(), 1);
        let f = fills.pop().unwrap().0;
        assert_eq!(f.line_addr, crate::line_of(0x1234));
        assert!(f.at > 0);
    }

    #[test]
    fn fill_queue_orders_by_time() {
        let mut q = FillQueue::new();
        // Two fills due at cycle 20 on different lines: the lower line is
        // delivered first, whatever the push order or serving level.
        for (at, a, served) in [
            (30u64, 1u64, ServedBy::Dram),
            (20, 5, ServedBy::L2),
            (10, 2, ServedBy::Dram),
            (20, 3, ServedBy::Dram),
        ] {
            q.push(Reverse(FillEvent {
                line_addr: a * 64,
                served,
                at,
            }));
        }
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|r| (r.0.at, r.0.line_addr / 64))).collect();
        assert_eq!(order, vec![(10, 2), (20, 3), (20, 5), (30, 1)]);
    }

    #[test]
    fn null_prefetcher_is_inert() {
        let mut p = NullPrefetcher::new();
        assert_eq!(p.name(), "none");
        assert_eq!(p.storage_bits(), 0);
        assert!(p.as_any_mut().downcast_mut::<NullPrefetcher>().is_some());
    }
}
