//! Shared unit-test harness: owns the pieces a `PrefetchCtx` borrows and
//! drives a prefetcher with synthetic demand accesses and fill delivery.

use prodigy_sim::prefetch::{DemandAccess, FillQueue, PrefetchCtx, Prefetcher};
use prodigy_sim::{AccessKind, AddressSpace, MemorySystem, ServedBy, Stats, SystemConfig};

pub struct Rig {
    pub mem: MemorySystem,
    pub space: AddressSpace,
    pub stats: Stats,
    pub fills: FillQueue,
    pub now: u64,
}

impl Rig {
    pub fn new() -> Self {
        Self::with_scale(64)
    }

    /// A rig with larger caches (smaller `scale`) for tests whose access
    /// patterns would otherwise thrash the tiny default L1.
    pub fn with_scale(scale: u64) -> Self {
        Rig {
            mem: MemorySystem::new(SystemConfig::scaled(scale).with_cores(1)),
            space: AddressSpace::new(),
            stats: Stats::default(),
            fills: FillQueue::new(),
            now: 0,
        }
    }

    /// Performs a real demand access through the memory system (so `served`
    /// is accurate), then notifies the prefetcher. Advances time.
    pub fn demand(&mut self, pf: &mut dyn Prefetcher, vaddr: u64, pc: u32) {
        let res = self
            .mem
            .demand_access(0, vaddr, AccessKind::Read, self.now, &mut self.stats);
        let mut ctx = PrefetchCtx::new(
            0,
            self.now,
            &mut self.mem,
            &self.space,
            &mut self.stats,
            &mut self.fills,
        );
        pf.on_demand(
            &mut ctx,
            &DemandAccess {
                vaddr,
                size: 4,
                is_write: false,
                pc,
                served: res.served,
            },
        );
        self.now += 10;
    }

    /// Notifies the prefetcher of a demand without touching the memory
    /// system (for pure-trigger paths), claiming the given service level.
    pub fn notify(&mut self, pf: &mut dyn Prefetcher, vaddr: u64, pc: u32, served: ServedBy) {
        let mut ctx = PrefetchCtx::new(
            0,
            self.now,
            &mut self.mem,
            &self.space,
            &mut self.stats,
            &mut self.fills,
        );
        pf.on_demand(
            &mut ctx,
            &DemandAccess {
                vaddr,
                size: 4,
                is_write: false,
                pc,
                served,
            },
        );
        self.now += 10;
    }

    /// Delivers all queued fills up to `until`.
    pub fn run_fills(&mut self, pf: &mut dyn Prefetcher, until: u64) {
        while let Some(&std::cmp::Reverse(q)) = self.fills.peek() {
            if q.at > until {
                break;
            }
            self.fills.pop();
            let mut ctx = PrefetchCtx::new(
                0,
                q.at,
                &mut self.mem,
                &self.space,
                &mut self.stats,
                &mut self.fills,
            );
            pf.on_fill(&mut ctx, &q);
        }
    }
}
