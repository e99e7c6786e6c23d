//! The application↔hardware interface (paper §III-B3, Fig. 8d).
//!
//! An instrumented binary contains a short prologue of registration calls —
//! `registerNode`, `registerTravEdge`, `registerTrigEdge` — that a run-time
//! library translates into stores to the prefetcher's memory-mapped tables.
//! [`DigProgram`] is that prologue, reified: a recorded list of API calls
//! that the compiler pass (or hand annotation) emits and that can be applied
//! to any simulated system. Applying it to a machine whose prefetchers are
//! not Prodigy is a harmless no-op, just as the real calls would be on a
//! CPU without the hardware.

use crate::dig::{Dig, EdgeKind, TriggerSpec};
use crate::prefetcher::ProdigyPrefetcher;
use prodigy_sim::prefetch::Prefetcher;

/// One registration call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApiCall {
    /// `registerNode(base, num_elems, elem_size, node_id)`.
    RegisterNode {
        /// Array base address.
        base: u64,
        /// Number of elements.
        elems: u64,
        /// Element size in bytes.
        elem_size: u8,
        /// Node id.
        id: u8,
    },
    /// `registerTravEdge(src_addr, dst_addr, edge_type)` — addresses are
    /// resolved against the node table at run time (Fig. 8d).
    RegisterTravEdge {
        /// Any address inside the source array (typically its base).
        src_addr: u64,
        /// Any address inside the destination array.
        dst_addr: u64,
        /// `w0` or `w1`.
        kind: EdgeKind,
    },
    /// `registerTrigEdge(addr, w2)`.
    RegisterTrigEdge {
        /// Any address inside the trigger array.
        addr: u64,
        /// Sequence-initialisation parameters.
        spec: TriggerSpec,
    },
}

/// A recorded sequence of registration calls plus the address ranges they
/// describe (used by the Fig. 13/16 "prefetchable" classifier).
///
/// ```
/// use prodigy::{Dig, DigProgram, EdgeKind, ProdigyPrefetcher, TriggerSpec};
/// use prodigy_sim::prefetch::Prefetcher;
///
/// let mut dig = Dig::new();
/// let a = dig.node(0x1000, 64, 4);
/// let b = dig.node(0x2000, 64, 4);
/// dig.edge(a, b, EdgeKind::SingleValued);
/// dig.trigger(a, TriggerSpec::default());
///
/// let prologue = DigProgram::from_dig(&dig);
/// let mut pf = ProdigyPrefetcher::default();
/// prologue.apply(&mut pf);            // programs Prodigy hardware
/// let mut none = prodigy_sim::NullPrefetcher::new();
/// prologue.apply(&mut none);          // harmless on anything else
/// assert_eq!(prologue.annotated_ranges(), [(0x1000, 0x1100), (0x2000, 0x2100)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DigProgram {
    calls: Vec<ApiCall>,
}

impl DigProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the registration prologue for a complete [`Dig`].
    pub fn from_dig(dig: &Dig) -> Self {
        let mut p = DigProgram::new();
        for (i, n) in dig.nodes().iter().enumerate() {
            p.calls.push(ApiCall::RegisterNode {
                base: n.base,
                elems: n.elems,
                elem_size: n.elem_size,
                id: i as u8,
            });
        }
        for e in dig.edges() {
            if let (Some(s), Some(d)) = (dig.get(e.src), dig.get(e.dst)) {
                p.calls.push(ApiCall::RegisterTravEdge {
                    src_addr: s.base,
                    dst_addr: d.base,
                    kind: e.kind,
                });
            }
        }
        if let Some((t, spec)) = dig.trigger_spec() {
            if let Some(n) = dig.get(t) {
                p.calls
                    .push(ApiCall::RegisterTrigEdge { addr: n.base, spec });
            }
        }
        p
    }

    /// Appends a raw call (used by the compiler's codegen).
    pub fn push(&mut self, call: ApiCall) {
        self.calls.push(call);
    }

    /// The recorded calls in program order.
    pub fn calls(&self) -> &[ApiCall] {
        &self.calls
    }

    /// Executes the prologue against one prefetcher. Non-Prodigy prefetchers
    /// ignore it (the downcast fails), mirroring a binary whose API calls hit
    /// an absent device.
    pub fn apply(&self, prefetcher: &mut dyn Prefetcher) {
        let Some(p) = prefetcher.as_any_mut().downcast_mut::<ProdigyPrefetcher>() else {
            return;
        };
        for c in &self.calls {
            match *c {
                ApiCall::RegisterNode {
                    base,
                    elems,
                    elem_size,
                    id,
                } => {
                    p.register_node(base, elems, elem_size, id);
                }
                ApiCall::RegisterTravEdge {
                    src_addr,
                    dst_addr,
                    kind,
                } => {
                    p.register_trav_edge(src_addr, dst_addr, kind);
                }
                ApiCall::RegisterTrigEdge { addr, spec } => {
                    p.register_trig_edge(addr, spec);
                }
            }
        }
    }

    /// Address ranges of all registered nodes, for classifying LLC misses as
    /// prefetchable (inside annotated structures) in Fig. 13/16.
    pub fn annotated_ranges(&self) -> Vec<(u64, u64)> {
        self.calls
            .iter()
            .filter_map(|c| match *c {
                ApiCall::RegisterNode {
                    base,
                    elems,
                    elem_size,
                    ..
                } => Some((base, base + elems * elem_size as u64)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_sim::NullPrefetcher;

    fn sample_dig() -> Dig {
        let mut d = Dig::new();
        let a = d.node(0x1000, 16, 4);
        let b = d.node(0x2000, 16, 4);
        d.edge(a, b, EdgeKind::SingleValued);
        d.trigger(a, TriggerSpec::default());
        d
    }

    #[test]
    fn from_dig_records_all_calls() {
        let p = DigProgram::from_dig(&sample_dig());
        assert_eq!(p.calls().len(), 4); // 2 nodes + 1 edge + 1 trigger
    }

    #[test]
    fn apply_programs_a_prodigy_prefetcher() {
        let p = DigProgram::from_dig(&sample_dig());
        let mut pf = ProdigyPrefetcher::default();
        p.apply(&mut pf);
        assert_eq!(pf.node_table().rows().len(), 2);
        assert_eq!(pf.edge_table().rows().len(), 1);
        assert!(pf.node_table().trigger().is_some());
    }

    #[test]
    fn apply_is_noop_on_other_prefetchers() {
        let p = DigProgram::from_dig(&sample_dig());
        let mut null = NullPrefetcher::new();
        p.apply(&mut null); // must not panic
    }

    #[test]
    fn ranges_cover_both_nodes() {
        let p = DigProgram::from_dig(&sample_dig());
        assert_eq!(
            p.annotated_ranges(),
            vec![(0x1000, 0x1040), (0x2000, 0x2040)]
        );
    }
}
