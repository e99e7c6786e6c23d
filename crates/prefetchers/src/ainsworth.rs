//! The Ainsworth & Jones graph prefetcher (ICS 2016).
//!
//! A hardware FSM with *baked-in knowledge of BFS-style CSR traversal*:
//! configured with the bounds of the work queue, offset list, edge list and
//! property arrays, it chases `queue[i+Δ] → offsets[v], offsets[v+1] →
//! edges[lo..hi] → properties[w]` off L1 activity. The differences from
//! Prodigy that the paper measures (§VI-C):
//!
//! * one prefetch sequence per trigger event (Prodigy initialises several),
//! * no catch-up drop — when the core overtakes the prefetcher, latency is
//!   only partially hidden,
//! * the traversal pattern is fixed rather than DIG-programmable, so
//!   non-CSR workloads get nothing.

use crate::hint::GraphLayoutHint;
use prodigy_sim::fxhash::FxBuildHasher;
use prodigy_sim::line_of;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::LINE_BYTES;
use std::any::Any;
use std::collections::HashMap;

/// Chain steps awaiting a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// A work-queue element: its value is a vertex id indexing the offsets.
    QueueElem(u64),
    /// An offset-pair address: `(lo, hi)` bound an edge-list range.
    OffsetPair(u64),
    /// An edge-list element: its value indexes the property arrays.
    EdgeElem(u64),
}

/// The A&J graph prefetcher.
#[derive(Debug)]
pub struct AinsworthJonesPrefetcher {
    hint: GraphLayoutHint,
    distance: u64,
    // Fx-hashed: probed/removed by key only, never iterated.
    pending: HashMap<u64, Vec<Action>, FxBuildHasher>,
    max_pending_lines: usize,
    max_range_lines: usize,
}

impl AinsworthJonesPrefetcher {
    /// Creates the prefetcher from array-role configuration. `distance` is
    /// the fixed look-ahead in trigger elements (their EWMA-tuned distance;
    /// 4 is a representative operating point).
    pub fn new(hint: GraphLayoutHint, distance: u64) -> Self {
        AinsworthJonesPrefetcher {
            hint,
            distance,
            pending: HashMap::default(),
            max_pending_lines: 32,
            max_range_lines: 64,
        }
    }

    /// Convenience: derive the configuration from a DIG (the same structure
    /// knowledge Prodigy gets) with the default distance.
    pub fn from_dig(dig: &prodigy::Dig) -> Option<Self> {
        GraphLayoutHint::from_dig(dig).map(|h| Self::new(h, 4))
    }

    fn schedule(&mut self, ctx: &mut PrefetchCtx<'_>, action: Action, addr: u64) {
        let line = line_of(addr);
        // Tag by array role: 0 = work queue, 1 = offset list, 2 = edge
        // list, 3 = property arrays.
        let tag = match action {
            Action::QueueElem(_) => 0,
            Action::OffsetPair(_) => 1,
            Action::EdgeElem(_) => 2,
        };
        let issued = ctx.prefetch(addr, tag);
        if !issued && ctx.l1_contains(addr) && !self.pending.contains_key(&line) {
            // Data already on chip: advance the chain directly.
            self.advance(ctx, action);
            return;
        }
        if self.pending.len() >= self.max_pending_lines && !self.pending.contains_key(&line) {
            return; // bounded request queue
        }
        let acts = self.pending.entry(line).or_default();
        if acts.len() < 16 && !acts.contains(&action) {
            acts.push(action);
        }
    }

    fn advance(&mut self, ctx: &mut PrefetchCtx<'_>, action: Action) {
        match action {
            Action::QueueElem(addr) => {
                let v = ctx.read_uint(addr, self.hint.trigger.elem_size.min(8));
                if let Some(off) = self.hint.offsets {
                    let pair = off.elem_addr(v);
                    if off.contains(pair) && off.contains(pair + off.elem_size as u64) {
                        self.schedule(ctx, Action::OffsetPair(pair), pair);
                        // The pair may straddle a line boundary.
                        let second = pair + off.elem_size as u64;
                        if line_of(second) != line_of(pair) {
                            ctx.prefetch(second, 1);
                        }
                    }
                } else {
                    // No CSR: direct property indirection (A[B[i]]).
                    for p in self.hint.properties.clone() {
                        let t = p.elem_addr(v);
                        if p.contains(t) {
                            ctx.prefetch(t, 3);
                        }
                    }
                }
            }
            Action::OffsetPair(pair) => {
                let off = self.hint.offsets.unwrap_or(self.hint.trigger);
                let sz = off.elem_size as u64;
                let lo = ctx.read_uint(pair, sz.min(8) as u8);
                let hi = ctx.read_uint(pair + sz, sz.min(8) as u8);
                let Some(edges) = self.hint.edges else { return };
                if hi <= lo {
                    return;
                }
                let first = edges.elem_addr(lo);
                let last = edges.elem_addr(hi - 1);
                if !edges.contains(first) || !edges.contains(last) {
                    return;
                }
                let mut line = line_of(first);
                let mut n = 0;
                while line <= last && n < self.max_range_lines {
                    // Track one representative action per in-range element.
                    let esz = edges.elem_size as u64;
                    let e0 = first.max(line);
                    let e1 = last.min(line + LINE_BYTES - 1);
                    let mut ea = line + (e0 - line) / esz * esz;
                    let mut first_elem = true;
                    while ea <= e1 {
                        if first_elem {
                            self.schedule(ctx, Action::EdgeElem(ea), ea);
                            first_elem = false;
                        } else if let Some(acts) = self.pending.get_mut(&line) {
                            let a = Action::EdgeElem(ea);
                            if acts.len() < 16 && !acts.contains(&a) {
                                acts.push(a);
                            }
                        }
                        ea += esz;
                    }
                    line += LINE_BYTES;
                    n += 1;
                }
            }
            Action::EdgeElem(addr) => {
                let edges = self.hint.edges.unwrap_or(self.hint.trigger);
                let v = ctx.read_uint(addr, edges.elem_size.min(8));
                for p in self.hint.properties.clone() {
                    let t = p.elem_addr(v);
                    if p.contains(t) {
                        ctx.prefetch(t, 3);
                    }
                }
            }
        }
    }
}

impl Prefetcher for AinsworthJonesPrefetcher {
    fn name(&self) -> &'static str {
        "ainsworth-jones"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        if a.is_write || !self.hint.trigger.contains(a.vaddr) {
            return;
        }
        let t = self.hint.trigger;
        let sz = t.elem_size as u64;
        let idx = (a.vaddr - t.base) / sz;
        let target = idx + self.distance;
        if target >= t.elems() {
            return;
        }
        let taddr = t.elem_addr(target);
        // Single sequence per trigger event; the element's own fill chains.
        if self.hint.offsets.is_some() || self.hint.edges.is_none() {
            self.schedule(ctx, Action::QueueElem(taddr), taddr);
        } else {
            // Trigger doubles as the offset list (vertex-sequential
            // algorithms): read the pair directly.
            self.schedule(ctx, Action::OffsetPair(taddr), taddr);
        }
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        let Some(actions) = self.pending.remove(&fill.line_addr) else {
            return;
        };
        for a in actions {
            self.advance(ctx, a);
        }
    }

    fn storage_bits(&self) -> u64 {
        // ICS'16 design: address-bound config registers plus an EWMA unit
        // and a request queue — about 2× Prodigy's budget (§VI-E).
        2 * 8 * 820
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

    /// Ring-graph CSR: every vertex has 4 neighbours.
    fn setup(rig: &mut Rig, n: u64) -> GraphLayoutHint {
        let wq = rig.space.alloc(n * 4, 64);
        let off = rig.space.alloc((n + 1) * 4, 64);
        let edg = rig.space.alloc(n * 16, 64);
        let vis = rig.space.alloc(n * 4, 64);
        let mut e = 0u32;
        for v in 0..n {
            rig.space.write_u32(wq + v * 4, v as u32);
            rig.space.write_u32(off + v * 4, e);
            for k in 1..=4u64 {
                rig.space
                    .write_u32(edg + e as u64 * 4, ((v + k) % n) as u32);
                e += 1;
            }
        }
        rig.space.write_u32(off + n * 4, e);
        GraphLayoutHint {
            trigger: ArrayRef {
                base: wq,
                bound: wq + n * 4,
                elem_size: 4,
            },
            offsets: Some(ArrayRef {
                base: off,
                bound: off + (n + 1) * 4,
                elem_size: 4,
            }),
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
    fn chases_the_full_csr_chain() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let (wq, vis) = (hint.trigger, hint.properties[0]);
        let mut pf = AinsworthJonesPrefetcher::new(hint.clone(), 2);
        rig.demand(&mut pf, wq.base, 1); // core at queue[0] → prefetch for queue[2]
        rig.run_fills(&mut pf, u64::MAX);
        // Vertex 2's neighbours are 3,4,5,6 → their visited entries should
        // be resident.
        for w in 3..=6u64 {
            assert!(
                rig.mem.l1_contains(0, vis.elem_addr(w)),
                "visited[{w}] not prefetched"
            );
        }
        // One issue per distinct line: offset pair, edge range, visited.
        assert!(rig.stats.prefetches_issued >= 3);
    }

    #[test]
    fn ignores_accesses_outside_trigger() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let edg = hint.edges.unwrap();
        let mut pf = AinsworthJonesPrefetcher::new(hint, 2);
        rig.demand(&mut pf, edg.base, 9);
        assert_eq!(rig.stats.prefetches_issued, 0);
    }

    #[test]
    fn single_sequence_per_trigger() {
        let mut rig = Rig::new();
        let hint = setup(&mut rig, 64);
        let wq = hint.trigger;
        let mut pf = AinsworthJonesPrefetcher::new(hint, 2);
        rig.demand(&mut pf, wq.base, 1);
        let first = rig.stats.prefetches_issued;
        assert!(first <= 2, "one chain head (plus straddle), got {first}");
    }

    #[test]
    fn from_dig_derives_configuration() {
        use prodigy::{Dig, EdgeKind, TriggerSpec};
        let mut d = Dig::new();
        let a = d.node(0x1000, 16, 4);
        let b = d.node(0x2000, 17, 4);
        let c = d.node(0x3000, 64, 4);
        d.edge(a, b, EdgeKind::SingleValued);
        d.edge(b, c, EdgeKind::Ranged);
        d.trigger(a, TriggerSpec::default());
        let pf = AinsworthJonesPrefetcher::from_dig(&d).expect("configurable");
        assert_eq!(pf.hint.trigger.base, 0x1000);
        assert_eq!(pf.hint.edges.unwrap().base, 0x3000);
    }
}

#[cfg(test)]
mod bounds_tests {
    use super::*;
    use crate::hint::ArrayRef;
    use crate::testutil::Rig;

    /// Garbage index values must never produce out-of-bounds prefetches.
    #[test]
    fn garbage_values_stay_inside_configured_arrays() {
        let mut rig = Rig::new();
        let n = 32u64;
        let wq = rig.space.alloc(n * 4, 64);
        let off = rig.space.alloc((n + 1) * 4, 64);
        let edg = rig.space.alloc(n * 8, 64);
        let vis = rig.space.alloc(n * 4, 64);
        // Fill everything with hostile values.
        for i in 0..n {
            rig.space.write_u32(wq + i * 4, u32::MAX - i as u32);
            rig.space.write_u32(off + i * 4, 0xdead_beef);
            rig.space.write_u32(edg + i * 8, u32::MAX);
        }
        let hint = GraphLayoutHint {
            trigger: ArrayRef {
                base: wq,
                bound: wq + n * 4,
                elem_size: 4,
            },
            offsets: Some(ArrayRef {
                base: off,
                bound: off + (n + 1) * 4,
                elem_size: 4,
            }),
            edges: Some(ArrayRef {
                base: edg,
                bound: edg + n * 8,
                elem_size: 4,
            }),
            properties: vec![ArrayRef {
                base: vis,
                bound: vis + n * 4,
                elem_size: 4,
            }],
        };
        let mut pf = AinsworthJonesPrefetcher::new(hint, 2);
        for i in 0..n {
            rig.demand(&mut pf, wq + i * 4, 1);
            rig.run_fills(&mut pf, u64::MAX);
        }
        // All issued prefetches landed inside the four arrays (the memory
        // system would happily fetch anything; the FSM must bound itself).
        // We can't observe addresses directly, but hostile indices resolve
        // outside every array, so almost nothing beyond the queue itself
        // should have been prefetched.
        assert!(rig.stats.prefetches_issued <= 2 * n);
    }

    #[test]
    fn pending_queue_is_bounded() {
        let mut rig = Rig::new();
        let n = 4096u64;
        let wq = rig.space.alloc(n * 4, 64);
        let off = rig.space.alloc((n + 1) * 4, 64);
        let edg = rig.space.alloc(n * 4, 64);
        for i in 0..n {
            rig.space.write_u32(wq + i * 4, i as u32);
            rig.space.write_u32(off + i * 4, i as u32);
        }
        rig.space.write_u32(off + n * 4, n as u32);
        let hint = GraphLayoutHint {
            trigger: ArrayRef {
                base: wq,
                bound: wq + n * 4,
                elem_size: 4,
            },
            offsets: Some(ArrayRef {
                base: off,
                bound: off + (n + 1) * 4,
                elem_size: 4,
            }),
            edges: Some(ArrayRef {
                base: edg,
                bound: edg + n * 4,
                elem_size: 4,
            }),
            properties: vec![],
        };
        let mut pf = AinsworthJonesPrefetcher::new(hint, 4);
        // Never deliver fills: the pending map must not grow unboundedly.
        for i in 0..n {
            rig.notify(&mut pf, wq + i * 4, 1, prodigy_sim::ServedBy::Dram);
        }
        assert!(
            pf.pending.len() <= 32,
            "pending grew to {}",
            pf.pending.len()
        );
    }
}
