//! Graph-layout hints for graph-specific prefetchers.
//!
//! Ainsworth & Jones' prefetcher and DROPLET both "assume graph data
//! structure knowledge at hardware" (paper §VII): they must be told which
//! address ranges hold the work queue, the CSR offset and edge lists, and
//! the per-vertex property arrays. [`GraphLayoutHint::from_dig`] derives
//! those roles mechanically from a Prodigy DIG — the trigger node is the
//! work array, the source/destination of a ranged edge are the offset/edge
//! lists, and single-valued destinations reachable from the edge list are
//! properties — so the baselines receive exactly the same information
//! Prodigy does, expressed in their own vocabulary.

use prodigy::{Dig, EdgeKind};

/// An array's bounds and element size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    /// Base address.
    pub base: u64,
    /// One-past-the-end address.
    pub bound: u64,
    /// Element size in bytes.
    pub elem_size: u8,
}

impl ArrayRef {
    /// Whether `addr` falls inside the array.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.bound).contains(&addr)
    }

    /// Number of elements.
    pub fn elems(&self) -> u64 {
        (self.bound - self.base) / self.elem_size as u64
    }

    /// Address of element `i`.
    pub fn elem_addr(&self, i: u64) -> u64 {
        self.base + i * self.elem_size as u64
    }
}

/// Roles of a CSR-style graph workload's arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphLayoutHint {
    /// The array whose demand accesses drive traversal (work queue, or the
    /// offset list itself for vertex-sequential algorithms like PageRank).
    pub trigger: ArrayRef,
    /// CSR offset list, if distinct from the trigger.
    pub offsets: Option<ArrayRef>,
    /// CSR edge (adjacency) list.
    pub edges: Option<ArrayRef>,
    /// Per-vertex property arrays indexed by edge-list values (visited
    /// list, scores, distances, ...).
    pub properties: Vec<ArrayRef>,
}

impl GraphLayoutHint {
    /// Derives roles from a DIG. Returns `None` when the DIG has no trigger
    /// (nothing to drive the FSM with).
    pub fn from_dig(dig: &Dig) -> Option<Self> {
        let (tid, _) = dig.trigger_spec()?;
        let aref = |id| {
            dig.get(id).map(|n| ArrayRef {
                base: n.base,
                bound: n.bound(),
                elem_size: n.elem_size,
            })
        };
        let trigger = aref(tid)?;
        // The ranged edge identifies offsets → edges.
        let ranged = dig.edges().iter().find(|e| e.kind == EdgeKind::Ranged);
        let (offsets, edges, edge_node) = match ranged {
            Some(r) => {
                let off = if r.src == tid { None } else { aref(r.src) };
                (off, aref(r.dst), Some(r.dst))
            }
            None => (None, None, None),
        };
        // Properties: single-valued destinations reachable from the edge
        // list (or from the trigger when there is no CSR structure).
        let prop_src = edge_node.unwrap_or(tid);
        let properties = dig
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::SingleValued && e.src == prop_src)
            .filter_map(|e| aref(e.dst))
            .collect();
        Some(GraphLayoutHint {
            trigger,
            offsets,
            edges,
            properties,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy::TriggerSpec;

    fn bfs_dig() -> Dig {
        let mut d = Dig::new();
        let wq = d.node(0x1000, 64, 4);
        let off = d.node(0x2000, 65, 4);
        let edg = d.node(0x3000, 256, 4);
        let vis = d.node(0x4000, 64, 4);
        d.edge(wq, off, EdgeKind::SingleValued);
        d.edge(off, edg, EdgeKind::Ranged);
        d.edge(edg, vis, EdgeKind::SingleValued);
        d.trigger(wq, TriggerSpec::default());
        d
    }

    #[test]
    fn bfs_roles_extracted() {
        let h = GraphLayoutHint::from_dig(&bfs_dig()).expect("has trigger");
        assert_eq!(h.trigger.base, 0x1000);
        assert_eq!(h.offsets.unwrap().base, 0x2000);
        assert_eq!(h.edges.unwrap().base, 0x3000);
        assert_eq!(h.properties.len(), 1);
        assert_eq!(h.properties[0].base, 0x4000);
        assert!(h.edges.is_some(), "a CSR traversal");
    }

    #[test]
    fn offset_triggered_dig_has_no_separate_offsets() {
        // PageRank-style: the offset list itself is the trigger.
        let mut d = Dig::new();
        let off = d.node(0x2000, 65, 4);
        let edg = d.node(0x3000, 256, 4);
        let scores = d.node(0x5000, 64, 8);
        d.edge(off, edg, EdgeKind::Ranged);
        d.edge(edg, scores, EdgeKind::SingleValued);
        d.trigger(off, TriggerSpec::default());
        let h = GraphLayoutHint::from_dig(&d).unwrap();
        assert!(h.offsets.is_none(), "trigger doubles as offsets");
        assert_eq!(h.edges.unwrap().base, 0x3000);
        assert_eq!(h.properties[0].base, 0x5000);
    }

    #[test]
    fn no_trigger_yields_none() {
        let mut d = Dig::new();
        d.node(0x1000, 4, 4);
        assert!(GraphLayoutHint::from_dig(&d).is_none());
    }

    #[test]
    fn non_csr_dig_is_not_csr_like() {
        let mut d = Dig::new();
        let a = d.node(0x1000, 64, 4);
        let b = d.node(0x2000, 64, 4);
        d.edge(a, b, EdgeKind::SingleValued);
        d.trigger(a, TriggerSpec::default());
        let h = GraphLayoutHint::from_dig(&d).unwrap();
        assert!(h.edges.is_none(), "no CSR structure");
        assert_eq!(h.properties.len(), 1, "A[B[i]] property from trigger");
    }

    #[test]
    fn array_ref_helpers() {
        let a = ArrayRef {
            base: 0x100,
            bound: 0x140,
            elem_size: 4,
        };
        assert_eq!(a.elems(), 16);
        assert_eq!(a.elem_addr(3), 0x10c);
        assert!(a.contains(0x13f) && !a.contains(0x140));
    }
}
