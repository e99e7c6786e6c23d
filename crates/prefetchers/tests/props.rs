//! Property-based robustness of the baseline prefetchers: arbitrary demand
//! streams must never panic any of them, and their issue volume must stay
//! bounded relative to the demand volume.

use prodigy_prefetchers::{GhbGdcPrefetcher, ImpPrefetcher, StridePrefetcher};
use prodigy_sim::prefetch::{DemandAccess, FillQueue, PrefetchCtx, Prefetcher};
use prodigy_sim::{AddressSpace, MemorySystem, ServedBy, Stats, SystemConfig};
use proptest::prelude::*;

fn drive(pf: &mut dyn Prefetcher, accesses: &[(u64, u8, bool)]) -> Stats {
    let mut mem = MemorySystem::new(SystemConfig::scaled(64).with_cores(1));
    let space = AddressSpace::new();
    let mut stats = Stats::default();
    let mut fills = FillQueue::new();
    for (t, &(addr, pc, write)) in accesses.iter().enumerate() {
        let now = t as u64 * 20;
        {
            let mut ctx = PrefetchCtx::new(0, now, &mut mem, &space, &mut stats, &mut fills);
            pf.on_demand(
                &mut ctx,
                &DemandAccess {
                    vaddr: addr,
                    size: 4,
                    is_write: write,
                    pc: pc as u32,
                    served: if t % 3 == 0 {
                        ServedBy::Dram
                    } else {
                        ServedBy::L1
                    },
                },
            );
        }
        // Deliver matured fills.
        while fills.peek().map(|r| r.0.at <= now).unwrap_or(false) {
            let fill = fills.pop().unwrap().0;
            let mut ctx = PrefetchCtx::new(0, fill.at, &mut mem, &space, &mut stats, &mut fills);
            pf.on_fill(&mut ctx, &fill);
        }
    }
    stats
}

proptest! {
    #[test]
    fn stride_is_total_and_bounded(
        accesses in prop::collection::vec((0u64..1u64 << 30, any::<u8>(), any::<bool>()), 1..150)
    ) {
        let mut pf = StridePrefetcher::default();
        let stats = drive(&mut pf, &accesses);
        prop_assert!(stats.prefetches_issued <= accesses.len() as u64 * 4);
    }

    #[test]
    fn ghb_is_total_and_bounded(
        accesses in prop::collection::vec((0u64..1u64 << 30, any::<u8>(), any::<bool>()), 1..150)
    ) {
        let mut pf = GhbGdcPrefetcher::default();
        let stats = drive(&mut pf, &accesses);
        prop_assert!(stats.prefetches_issued <= accesses.len() as u64 * 4);
    }

    #[test]
    fn imp_is_total_and_bounded(
        accesses in prop::collection::vec((0u64..1u64 << 30, any::<u8>(), any::<bool>()), 1..150)
    ) {
        let mut pf = ImpPrefetcher::default();
        let stats = drive(&mut pf, &accesses);
        prop_assert!(stats.prefetches_issued <= accesses.len() as u64 * 3);
    }
}
