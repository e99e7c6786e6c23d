//! The prefetcher-local memory structures holding the DIG (paper Fig. 9a–c):
//! a node table (base/bound/data-size/trigger per array), an edge table
//! (src/dst base addresses + indirection type), and an edge index table that
//! finds a node's outgoing edges — "mimicking the software offset list in
//! hardware".
//!
//! These are fixed-capacity structures (16 entries each, §VI-E);
//! registration beyond capacity is rejected, exactly as a real SRAM would be.

use crate::dig::{EdgeKind, NodeId, TriggerSpec};

/// Node-table rows of the Prodigy hardware (§VI-E).
pub(crate) const NODE_TABLE_ENTRIES: usize = 16;
/// Edge-table rows of the Prodigy hardware (§VI-E).
pub(crate) const EDGE_TABLE_ENTRIES: usize = 16;

/// One node-table row (Fig. 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// Node id.
    pub id: NodeId,
    /// Base address of the array.
    pub base: u64,
    /// One-past-the-end (bound) address.
    pub bound: u64,
    /// Element size in bytes.
    pub data_size: u8,
    /// Whether this node carries the trigger edge.
    pub trigger: bool,
}

impl NodeRecord {
    /// Whether `addr` falls inside `[base, bound)`.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.bound).contains(&addr)
    }

    /// Number of elements in the array.
    pub fn elems(&self) -> u64 {
        (self.bound - self.base) / self.data_size as u64
    }
}

/// One edge-table row (Fig. 9c). Base addresses, not node ids, key the rows,
/// matching the paper's runtime that resolves addresses by scanning the node
/// table (Fig. 8d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRecord {
    /// Source node id (resolved at registration).
    pub src: NodeId,
    /// Destination node id (resolved at registration).
    pub dst: NodeId,
    /// Indirection type (`w0`/`w1`).
    pub kind: EdgeKind,
}

/// The node table: fixed-capacity array of [`NodeRecord`]s.
#[derive(Debug, Clone)]
pub struct NodeTable {
    rows: Vec<NodeRecord>,
    capacity: usize,
    trigger_spec: Option<TriggerSpec>,
}

impl NodeTable {
    /// Creates a table with room for `capacity` nodes.
    pub fn new(capacity: usize) -> Self {
        NodeTable {
            rows: Vec::with_capacity(capacity),
            capacity,
            trigger_spec: None,
        }
    }

    /// Inserts a node. Returns `false` (and ignores the insert) when the
    /// table is full — the hardware simply cannot describe more structures.
    pub fn insert(&mut self, rec: NodeRecord) -> bool {
        if self.rows.len() >= self.capacity {
            return false;
        }
        self.rows.retain(|r| r.id != rec.id);
        self.rows.push(rec);
        true
    }

    /// Scans for the node containing `addr` (the Fig. 8d
    /// `scan_node_table`). Returns the record.
    pub fn containing(&self, addr: u64) -> Option<&NodeRecord> {
        self.rows.iter().find(|r| r.contains(addr))
    }

    /// Looks up a node by id.
    pub fn by_id(&self, id: NodeId) -> Option<&NodeRecord> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// Marks `id` as the trigger node with `spec`; clears any previous
    /// trigger. Returns `false` if the node is unknown.
    pub fn set_trigger(&mut self, id: NodeId, spec: TriggerSpec) -> bool {
        if self.by_id(id).is_none() {
            return false;
        }
        for r in &mut self.rows {
            r.trigger = r.id == id;
        }
        self.trigger_spec = Some(spec);
        true
    }

    /// The trigger node and spec, if programmed.
    pub fn trigger(&self) -> Option<(&NodeRecord, TriggerSpec)> {
        let spec = self.trigger_spec?;
        self.rows.iter().find(|r| r.trigger).map(|r| (r, spec))
    }

    /// Registered rows.
    pub fn rows(&self) -> &[NodeRecord] {
        &self.rows
    }

    /// Clears all rows (context switch to another DIG, §IV-F).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.trigger_spec = None;
    }
}

/// The edge table plus its index (Fig. 9b/c).
#[derive(Debug, Clone)]
pub struct EdgeTable {
    rows: Vec<EdgeRecord>,
    capacity: usize,
}

impl EdgeTable {
    /// Creates a table with room for `capacity` edges.
    pub fn new(capacity: usize) -> Self {
        EdgeTable {
            rows: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Inserts an edge; `false` when full or duplicate.
    pub fn insert(&mut self, rec: EdgeRecord) -> bool {
        if self.rows.len() >= self.capacity || self.rows.contains(&rec) {
            return false;
        }
        self.rows.push(rec);
        true
    }

    /// Outgoing edges of `src` (what the edge index table accelerates).
    pub fn from(&self, src: NodeId) -> impl Iterator<Item = &EdgeRecord> + '_ {
        self.rows.iter().filter(move |e| e.src == src)
    }

    /// Whether `id` has no outgoing edges (a DIG leaf: its prefetches don't
    /// allocate PFHRs, §IV-D).
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.from(id).next().is_none()
    }

    /// All rows.
    pub fn rows(&self) -> &[EdgeRecord] {
        &self.rows
    }

    /// Clears all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u8, base: u64, elems: u64, size: u8) -> NodeRecord {
        NodeRecord {
            id: NodeId(id),
            base,
            bound: base + elems * size as u64,
            data_size: size,
            trigger: false,
        }
    }

    #[test]
    fn node_table_scan_finds_containing() {
        let mut t = NodeTable::new(4);
        assert!(t.insert(rec(0, 0x1000, 16, 4)));
        assert!(t.insert(rec(1, 0x2000, 8, 8)));
        assert_eq!(t.containing(0x1004).unwrap().id, NodeId(0));
        assert_eq!(t.containing(0x203f).unwrap().id, NodeId(1));
        assert!(t.containing(0x3000).is_none());
    }

    #[test]
    fn node_table_capacity_enforced() {
        let mut t = NodeTable::new(2);
        assert!(t.insert(rec(0, 0, 1, 4)));
        assert!(t.insert(rec(1, 0x100, 1, 4)));
        assert!(!t.insert(rec(2, 0x200, 1, 4)), "third insert rejected");
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn reregistering_a_node_replaces_it() {
        let mut t = NodeTable::new(2);
        t.insert(rec(0, 0x1000, 4, 4));
        t.insert(rec(0, 0x9000, 4, 4));
        assert_eq!(t.rows().len(), 1);
        assert!(t.containing(0x9000).is_some());
    }

    #[test]
    fn trigger_marking() {
        let mut t = NodeTable::new(4);
        t.insert(rec(0, 0, 4, 4));
        t.insert(rec(1, 0x100, 4, 4));
        assert!(t.set_trigger(NodeId(1), TriggerSpec::default()));
        assert_eq!(t.trigger().unwrap().0.id, NodeId(1));
        assert!(t.set_trigger(NodeId(0), TriggerSpec::default()));
        assert_eq!(t.trigger().unwrap().0.id, NodeId(0), "trigger moves");
        assert!(!t.set_trigger(NodeId(7), TriggerSpec::default()));
    }

    #[test]
    fn edge_table_outgoing_and_leaf() {
        let mut e = EdgeTable::new(4);
        assert!(e.insert(EdgeRecord {
            src: NodeId(0),
            dst: NodeId(1),
            kind: EdgeKind::SingleValued
        }));
        assert!(e.insert(EdgeRecord {
            src: NodeId(1),
            dst: NodeId(2),
            kind: EdgeKind::Ranged
        }));
        assert_eq!(e.from(NodeId(0)).count(), 1);
        assert!(!e.is_leaf(NodeId(1)));
        assert!(e.is_leaf(NodeId(2)));
    }

    #[test]
    fn edge_table_rejects_duplicates_and_overflow() {
        let mut e = EdgeTable::new(1);
        let r = EdgeRecord {
            src: NodeId(0),
            dst: NodeId(1),
            kind: EdgeKind::SingleValued,
        };
        assert!(e.insert(r));
        assert!(!e.insert(r), "duplicate");
        assert!(!e.insert(EdgeRecord {
            src: NodeId(1),
            dst: NodeId(2),
            kind: EdgeKind::Ranged
        }));
    }

    #[test]
    fn clear_resets_tables() {
        let mut t = NodeTable::new(2);
        t.insert(rec(0, 0, 4, 4));
        t.set_trigger(NodeId(0), TriggerSpec::default());
        t.clear();
        assert!(t.rows().is_empty());
        assert!(t.trigger().is_none());
    }
}
