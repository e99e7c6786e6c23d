//! DROPLET (Basak et al., HPCA 2019) — a data-aware graph prefetcher.
//!
//! DROPLET couples a stream prefetcher on the edge list with a memory-side
//! property prefetcher (MPP) that, when an edge-list line arrives *from
//! DRAM*, reads the vertex ids in it and prefetches their property-array
//! entries. The paper's comparison (§VI-C) exploits two structural limits
//! reproduced here:
//!
//! * only the edge list and property ("visited-like") arrays are prefetched
//!   — no work queue, no offset list;
//! * indirect property prefetches are triggered **only by DRAM-serviced
//!   fills**, so edge data already resident in the cache hierarchy produces
//!   no property prefetching.

use crate::hint::GraphLayoutHint;
use prodigy_sim::line_of;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::{ServedBy, LINE_BYTES};
use std::any::Any;

/// The DROPLET prefetcher.
#[derive(Debug)]
pub struct DropletPrefetcher {
    hint: GraphLayoutHint,
    stream_degree: u64,
}

impl DropletPrefetcher {
    /// Creates DROPLET from the graph-array roles; `stream_degree` is how
    /// many edge-list lines the stream prefetcher runs ahead.
    pub fn new(hint: GraphLayoutHint, stream_degree: u64) -> Self {
        DropletPrefetcher {
            hint,
            stream_degree,
        }
    }

    /// Derives the configuration from a DIG, with the default degree.
    pub fn from_dig(dig: &prodigy::Dig) -> Option<Self> {
        let hint = GraphLayoutHint::from_dig(dig)?;
        hint.edges?;
        Some(Self::new(hint, 4))
    }

    fn prefetch_properties_from_edge_line(&self, ctx: &mut PrefetchCtx<'_>, line: u64) {
        let Some(edges) = self.hint.edges else { return };
        let sz = edges.elem_size as u64;
        let mut ea = line.max(edges.base);
        let end = (line + LINE_BYTES).min(edges.bound);
        while ea + sz <= end {
            let v = ctx.read_uint(ea, edges.elem_size.min(8));
            for (pi, p) in self.hint.properties.iter().enumerate() {
                let t = p.elem_addr(v);
                if p.contains(t) {
                    // Tag 0 = edge stream; 1+i = i-th property array (MPP).
                    ctx.prefetch_llc(t, 1 + pi as u16);
                }
            }
            ea += sz;
        }
    }
}

impl Prefetcher for DropletPrefetcher {
    fn name(&self) -> &'static str {
        "droplet"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        let Some(edges) = self.hint.edges else { return };
        if a.is_write || !edges.contains(a.vaddr) {
            return;
        }
        // DROPLET is a DRAM-side design (its prefetchers sit at the memory
        // controller): only traffic that reaches DRAM is visible to it.
        if a.served != ServedBy::Dram {
            return;
        }
        // Edge-list stream prefetcher: run a few lines ahead.
        for d in 1..=self.stream_degree {
            let next = line_of(a.vaddr) + d * LINE_BYTES;
            if edges.contains(next) {
                ctx.prefetch_llc(next, 0);
            }
        }
        // The demand edge line itself wakes the memory-side property
        // prefetcher.
        self.prefetch_properties_from_edge_line(ctx, line_of(a.vaddr));
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        let Some(edges) = self.hint.edges else { return };
        // The MPP sits at the memory controller: only DRAM-serviced fills
        // of edge-list lines trigger property prefetches.
        if fill.served != ServedBy::Dram || !edges.contains(fill.line_addr) {
            return;
        }
        self.prefetch_properties_from_edge_line(ctx, fill.line_addr);
    }

    fn storage_bits(&self) -> u64 {
        // HPCA'19 design point: ≈ 9.7× Prodigy's 0.8 KB budget (§VI-E).
        (9.7 * 8.0 * 820.0) as u64
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::ArrayRef;
    use crate::testutil::Rig;

    fn setup(rig: &mut Rig, n: u64) -> GraphLayoutHint {
        let edg = rig.space.alloc(n * 16, 64);
        let vis = rig.space.alloc(n * 4, 64);
        for i in 0..n * 4 {
            rig.space.write_u32(edg + i * 4, (i % n) as u32);
        }
        GraphLayoutHint {
            trigger: ArrayRef {
                base: 0x10,
                bound: 0x20,
                elem_size: 4,
            },
            offsets: None,
            edges: Some(ArrayRef {
                base: edg,
                bound: edg + n * 16,
                elem_size: 4,
            }),
            properties: vec![ArrayRef {
                base: vis,
                bound: vis + n * 4,
                elem_size: 4,
            }],
        }
    }

    #[test]
    fn streams_edge_lines_ahead_into_the_llc() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let edg = hint.edges.unwrap();
        let mut pf = DropletPrefetcher::new(hint, 4);
        rig.demand(&mut pf, edg.base, 1);
        for d in 1..=4u64 {
            let addr = edg.base + d * LINE_BYTES;
            assert!(rig.mem.llc_contains(addr), "edge line +{d} not streamed");
            assert!(
                !rig.mem.l1_contains(0, addr),
                "memory-side prefetch must not fill the L1D"
            );
        }
    }

    #[test]
    fn dram_serviced_edge_fill_wakes_property_prefetcher() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let (edg, vis) = (hint.edges.unwrap(), hint.properties[0]);
        let mut pf = DropletPrefetcher::new(hint, 2);
        // Cold demand: serviced by DRAM → streams ahead; the streamed lines
        // come from DRAM → their fills trigger property prefetches.
        rig.demand(&mut pf, edg.base, 1);
        rig.run_fills(&mut pf, u64::MAX);
        // Edge line +1 holds vertex ids 16..31 → their visited entries.
        let v = rig.space.read_u32(edg.base + 16 * 4) as u64;
        assert!(
            rig.mem.llc_contains(vis.elem_addr(v)),
            "property of a streamed edge line must be prefetched into the LLC"
        );
    }

    #[test]
    fn cached_edge_fills_trigger_nothing() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let edg = hint.edges.unwrap();
        let vis = hint.properties[0];
        let mut pf = DropletPrefetcher::new(hint, 0); // no streaming
                                                      // Warm the edge line into the hierarchy first (no prefetcher
                                                      // involvement), then demand it again: served from cache → MPP quiet.
        rig.demand(&mut pf, edg.base, 1); // cold, DRAM — MPP fires once
        let after_cold = rig.stats.prefetches_issued;
        rig.now += 10_000;
        rig.demand(&mut pf, edg.base + 4, 1); // warm, L1 — nothing
        assert_eq!(rig.stats.prefetches_issued, after_cold);
        let _ = vis;
    }

    #[test]
    fn from_dig_requires_an_edge_list() {
        use prodigy::{Dig, EdgeKind, TriggerSpec};
        let mut d = Dig::new();
        let a = d.node(0x1000, 16, 4);
        let b = d.node(0x2000, 16, 4);
        d.edge(a, b, EdgeKind::SingleValued);
        d.trigger(a, TriggerSpec::default());
        assert!(
            DropletPrefetcher::from_dig(&d).is_none(),
            "no CSR, no DROPLET"
        );
    }
}
