//! The Data Indirection Graph (DIG): the compact software-side description
//! of data-structure layout and traversal pattern (paper §III-A, Fig. 5).
//!
//! A DIG is a small weighted directed graph, *unrelated* to any input graph
//! data set: nodes describe arrays, edges describe the two supported
//! data-dependent indirection patterns, and one node carries a trigger
//! self-edge describing how prefetch sequences are initialised.

/// Identifier of a DIG node (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u8);

/// Encodes a DIG edge `src -> dst` as a telemetry source tag: the high byte
/// holds `src + 1` (so it is never zero and edge tags cannot collide with
/// bare node tags), the low byte holds `dst`. Decoded for display by
/// `prodigy_sim::source_tag_label`.
pub fn edge_tag(src: NodeId, dst: NodeId) -> u16 {
    ((src.0 as u16 + 1) << 8) | dst.0 as u16
}

/// Encodes a bare DIG node as a telemetry source tag (high byte zero).
pub fn node_tag(node: NodeId) -> u16 {
    node.0 as u16
}

/// The two data-dependent indirection patterns Prodigy supports (Fig. 5c/d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `w0`: `dst[src[i]]` — one value indexes the destination (e.g. edge
    /// list → visited list in BFS).
    SingleValued,
    /// `w1`: `dst[src[i] .. src[i+1]]` — two consecutive values bound a
    /// streaming range in the destination (e.g. offset list → edge list).
    Ranged,
}

/// Traversal direction of the trigger structure (§IV-C1: ascending or
/// descending order of memory addresses; symgs' backward sweep descends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraversalDirection {
    /// Addresses increase as the algorithm advances.
    #[default]
    Ascending,
    /// Addresses decrease (e.g. a backward Gauss-Seidel sweep).
    Descending,
}

/// Parameters carried by a trigger (`w2`) edge: how many prefetch sequences
/// to initialise per trigger event and from what look-ahead distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriggerSpec {
    /// Look-ahead distance in trigger-structure elements (`j` in Fig. 10).
    /// `None` selects the paper's depth heuristic at programming time.
    pub lookahead: Option<u32>,
    /// Number of sequences initialised per trigger event (`k − j + 1`).
    pub sequences: u32,
    /// Traversal direction.
    pub direction: TraversalDirection,
}

impl Default for TriggerSpec {
    fn default() -> Self {
        TriggerSpec {
            lookahead: None,
            sequences: 4,
            direction: TraversalDirection::Ascending,
        }
    }
}

/// A DIG node: the memory layout of one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigNode {
    /// Base virtual address.
    pub base: u64,
    /// Number of elements.
    pub elems: u64,
    /// Element size in bytes.
    pub elem_size: u8,
}

impl DigNode {
    /// One-past-the-end address.
    pub fn bound(&self) -> u64 {
        self.base + self.elems * self.elem_size as u64
    }

    /// Whether `addr` falls inside the array.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.bound()).contains(&addr)
    }
}

/// A DIG traversal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigEdge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Indirection pattern.
    pub kind: EdgeKind,
}

/// Errors from DIG construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigError {
    /// An edge references a node id that was never registered.
    UnknownNode(NodeId),
    /// No trigger edge was registered.
    MissingTrigger,
    /// The trigger node is unreachable-from/defined on a node with an
    /// incoming traversal edge (triggers must be roots, §III-B2).
    TriggerNotRoot(NodeId),
    /// Element size is not one of 1, 2, 4, 8.
    BadElemSize(u8),
}

impl std::fmt::Display for DigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DigError::UnknownNode(n) => write!(f, "edge references unregistered node {}", n.0),
            DigError::MissingTrigger => write!(f, "no trigger edge registered"),
            DigError::TriggerNotRoot(n) => {
                write!(f, "trigger node {} has an incoming traversal edge", n.0)
            }
            DigError::BadElemSize(s) => write!(f, "unsupported element size {s}"),
        }
    }
}

impl std::error::Error for DigError {}

/// The software-side DIG: what the compiler pass or programmer annotations
/// build, and what gets written into the prefetcher's tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dig {
    nodes: Vec<DigNode>,
    edges: Vec<DigEdge>,
    trigger: Option<(NodeId, TriggerSpec)>,
}

impl Dig {
    /// Creates an empty DIG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node (an array at `base` with `elems` elements of
    /// `elem_size` bytes) and returns its id.
    ///
    /// # Panics
    /// Panics if more than 255 nodes are registered.
    pub fn node(&mut self, base: u64, elems: u64, elem_size: u8) -> NodeId {
        assert!(self.nodes.len() < 256, "too many DIG nodes");
        self.nodes.push(DigNode {
            base,
            elems,
            elem_size,
        });
        NodeId((self.nodes.len() - 1) as u8)
    }

    /// Registers a traversal edge.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) {
        self.edges.push(DigEdge { src, dst, kind });
    }

    /// Registers the trigger edge (a self-edge on `node`), replacing any
    /// earlier one: a DIG has one trigger.
    pub fn trigger(&mut self, node: NodeId, spec: TriggerSpec) {
        self.trigger = Some((node, spec));
    }

    /// All nodes in registration order.
    pub fn nodes(&self) -> &[DigNode] {
        &self.nodes
    }

    /// All traversal edges.
    pub fn edges(&self) -> &[DigEdge] {
        &self.edges
    }

    /// The trigger node and its spec, if registered.
    pub fn trigger_spec(&self) -> Option<(NodeId, TriggerSpec)> {
        self.trigger
    }

    /// Looks up a node by id.
    pub fn get(&self, id: NodeId) -> Option<&DigNode> {
        self.nodes.get(id.0 as usize)
    }

    /// Validates structural invariants (§III): edges reference registered
    /// nodes, a trigger exists, the trigger node has no incoming traversal
    /// edge, and element sizes are power-of-two machine sizes.
    pub fn validate(&self) -> Result<(), DigError> {
        for n in &self.nodes {
            if !matches!(n.elem_size, 1 | 2 | 4 | 8) {
                return Err(DigError::BadElemSize(n.elem_size));
            }
        }
        for e in &self.edges {
            for id in [e.src, e.dst] {
                if self.get(id).is_none() {
                    return Err(DigError::UnknownNode(id));
                }
            }
        }
        let (t, _) = self.trigger.ok_or(DigError::MissingTrigger)?;
        if self.get(t).is_none() {
            return Err(DigError::UnknownNode(t));
        }
        if self.edges.iter().any(|e| e.dst == t) {
            return Err(DigError::TriggerNotRoot(t));
        }
        Ok(())
    }

    /// Length (in nodes) of the longest simple path starting at the trigger
    /// node — the "prefetch depth" that drives the look-ahead heuristic
    /// (§IV-C1). Returns 0 when no trigger is set.
    pub fn depth_from_trigger(&self) -> u32 {
        let Some((t, _)) = self.trigger else { return 0 };
        let mut visited = vec![false; self.nodes.len()];
        self.longest_path(t, &mut visited)
    }

    fn longest_path(&self, from: NodeId, visited: &mut Vec<bool>) -> u32 {
        if visited[from.0 as usize] {
            return 0;
        }
        visited[from.0 as usize] = true;
        let mut best = 0;
        for e in self.edges.iter().filter(|e| e.src == from) {
            best = best.max(self.longest_path(e.dst, visited));
        }
        visited[from.0 as usize] = false;
        1 + best
    }

    /// The paper's look-ahead heuristic (§IV-C1): the distance decreases as
    /// the prefetch depth grows — a deep chain takes long to traverse, so a
    /// short look-ahead already hides the latency, while a shallow chain
    /// must start much further ahead.
    ///
    /// The absolute values are set for this reproduction's scaled machine,
    /// but no sweep per depth backs them: `examples/design_space.rs` sweeps
    /// the distance on BFS alone (depth 4), where shorter distances than
    /// this heuristic's 8 run faster. The paper reports the same monotone
    /// shape with distance 1 at depth ≥ 4 on its full-size system, and
    /// notes ±4× around the ideal barely matters.
    pub fn heuristic_lookahead(depth: u32) -> u32 {
        match depth {
            0..=2 => 64,
            3 => 16,
            4 => 8,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bfs_dig() -> Dig {
        let mut d = Dig::new();
        let wq = d.node(0x1000, 8, 4);
        let off = d.node(0x2000, 9, 4);
        let edg = d.node(0x3000, 16, 4);
        let vis = d.node(0x4000, 8, 4);
        d.edge(wq, off, EdgeKind::SingleValued);
        d.edge(off, edg, EdgeKind::Ranged);
        d.edge(edg, vis, EdgeKind::SingleValued);
        d.trigger(wq, TriggerSpec::default());
        d
    }

    #[test]
    fn bfs_dig_validates_with_depth_four() {
        let d = bfs_dig();
        d.validate().expect("valid");
        assert_eq!(d.depth_from_trigger(), 4);
    }

    #[test]
    fn node_bounds_and_contains() {
        let n = DigNode {
            base: 0x100,
            elems: 4,
            elem_size: 8,
        };
        assert_eq!(n.bound(), 0x120);
        assert!(n.contains(0x100) && n.contains(0x11f));
        assert!(!n.contains(0x120) && !n.contains(0xff));
    }

    #[test]
    fn missing_trigger_rejected() {
        let mut d = Dig::new();
        d.node(0, 1, 4);
        assert_eq!(d.validate(), Err(DigError::MissingTrigger));
    }

    #[test]
    fn trigger_with_incoming_edge_rejected() {
        let mut d = bfs_dig();
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        d.edge(nodes[3], nodes[0], EdgeKind::SingleValued);
        assert_eq!(d.validate(), Err(DigError::TriggerNotRoot(nodes[0])));
    }

    #[test]
    fn bad_elem_size_rejected() {
        let mut d = Dig::new();
        let n = d.node(0, 1, 3);
        d.trigger(n, TriggerSpec::default());
        assert_eq!(d.validate(), Err(DigError::BadElemSize(3)));
    }

    #[test]
    fn unknown_node_in_edge_rejected() {
        let mut d = Dig::new();
        let n = d.node(0, 1, 4);
        d.edge(n, NodeId(9), EdgeKind::Ranged);
        d.trigger(n, TriggerSpec::default());
        assert_eq!(d.validate(), Err(DigError::UnknownNode(NodeId(9))));
    }

    #[test]
    fn depth_handles_cycles_between_non_trigger_nodes() {
        // pr's CSC+CSR DIG can share destination nodes; ensure cycle safety.
        let mut d = Dig::new();
        let a = d.node(0x0, 4, 4);
        let b = d.node(0x100, 4, 4);
        let c = d.node(0x200, 4, 4);
        d.edge(a, b, EdgeKind::SingleValued);
        d.edge(b, c, EdgeKind::SingleValued);
        d.edge(c, b, EdgeKind::SingleValued); // cycle b ↔ c
        d.trigger(a, TriggerSpec::default());
        // a → b → c → b would revisit b, so the longest *simple* path is
        // a → b → c: three nodes.
        assert_eq!(d.depth_from_trigger(), 3);
    }

    #[test]
    fn lookahead_heuristic_decreases_with_depth() {
        let seq: Vec<u32> = (1..=6).map(Dig::heuristic_lookahead).collect();
        assert!(
            seq.windows(2).all(|w| w[0] >= w[1]),
            "distance must not grow with depth: {seq:?}"
        );
        assert!(Dig::heuristic_lookahead(2) >= 4 * Dig::heuristic_lookahead(4));
        assert_eq!(Dig::heuristic_lookahead(11), Dig::heuristic_lookahead(20));
    }
}
