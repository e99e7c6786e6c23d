//! The Prodigy hardware prefetcher state machine (paper §IV, Fig. 11).
//!
//! The prefetcher snoops its core's L1D. Two phases drive it:
//!
//! * **Sequence initialisation** (§IV-C1): a demand load inside the trigger
//!   structure starts prefetch sequences at a look-ahead distance chosen by
//!   the DIG-depth heuristic (deep chains → short look-ahead). Several
//!   sequences start per trigger so some survive even if others are dropped.
//!   When the core's demand stream reaches the *trigger address* of a live
//!   sequence, that sequence is dropped — the prefetcher stays ahead rather
//!   than partially hiding latency.
//! * **Sequence advance** (§IV-C2): a prefetch fill is CAM-matched against
//!   the PFHR file; the fetched values are run through the node's outgoing
//!   DIG edges — single-valued indirection computes `dst.base + v·size`,
//!   ranged indirection streams `dst[v_i .. v_{i+1}]` — and the chain
//!   continues until a leaf node.

use crate::api::DigProgram;
use crate::dig::{edge_tag, node_tag, Dig, EdgeKind, NodeId, TraversalDirection, TriggerSpec};
use crate::pfhr::{PfhrFile, RangeCont};
use crate::tables::{
    EdgeRecord, EdgeTable, NodeRecord, NodeTable, EDGE_TABLE_ENTRIES, NODE_TABLE_ENTRIES,
};
use crate::throttle::FeedbackThrottle;
use prodigy_sim::line_of;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use std::any::Any;

/// Cap on lines expanded per ranged indirection *into a leaf node* (leaf
/// prefetches carry no PFHR, so nothing can stream them).
const MAX_RANGE_LINES: usize = 16;

/// The settable hardware knobs. Defaults are the paper's evaluated design
/// (§VI-E: 16 PFHRs beside the fixed 16-row DIG tables, ≈0.8 KB in all).
/// Fig. 12 sweeps the PFHR count; `range_window` is an ablation of
/// `examples/design_space.rs`; `throttle` turns on the §IV-G extension.
/// Look-ahead distance and sequences per trigger are not hardware knobs:
/// software passes them on the DIG's trigger edge ([`TriggerSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProdigyConfig {
    /// PFHR registers (Fig. 12 explores 4–32; 16 is the chosen design).
    pub pfhr_entries: usize,
    /// Lines issued per ranged-indirection window; the window's last PFHR
    /// carries a continuation, so long ranges (hub vertices) stream through
    /// the bounded register file fill-by-fill instead of burst-issuing.
    pub range_window: usize,
    /// Feedback-directed throttling (§IV-G future work; off in the paper's
    /// evaluated design).
    pub throttle: bool,
}

impl Default for ProdigyConfig {
    fn default() -> Self {
        ProdigyConfig {
            pfhr_entries: 16,
            range_window: 4,
            throttle: false,
        }
    }
}

/// Prefetcher-internal counters (beyond what the simulator records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProdigyStats {
    /// Prefetch sequences initialised.
    pub sequences_initiated: u64,
    /// Sequences dropped because the core caught up (§IV-C1).
    pub sequences_dropped: u64,
    /// Prefetches issued through single-valued (`w0`) edges.
    pub single_prefetches: u64,
    /// Prefetches issued through ranged (`w1`) edges.
    pub ranged_prefetches: u64,
    /// Prefetches of trigger-structure elements themselves.
    pub trigger_prefetches: u64,
    /// Chain advances performed directly from on-chip data (no fill needed).
    pub inline_advances: u64,
    /// Prefetches dropped because the PFHR file was full (Fig. 12's hazard).
    pub pfhr_drops: u64,
    /// Elements run through the sequence-advance state machine.
    pub elements_advanced: u64,
    /// Elements registered for tracking by ranged expansions.
    pub range_elements_tracked: u64,
}

impl ProdigyStats {
    /// Fraction of prefetched *data elements* reached via ranged edges —
    /// the §VI-C statistic (paper: 35.4–75.9 %, 55.3 % average for graph
    /// algorithms).
    pub fn ranged_share(&self) -> f64 {
        let tot = self.single_prefetches + self.range_elements_tracked;
        if tot == 0 {
            0.0
        } else {
            self.range_elements_tracked as f64 / tot as f64
        }
    }
}

prodigy_sim::json_object!(ProdigyStats {
    sequences_initiated,
    sequences_dropped,
    single_prefetches,
    ranged_prefetches,
    trigger_prefetches,
    inline_advances,
    pfhr_drops,
    elements_advanced,
    range_elements_tracked,
});

/// The per-core Prodigy prefetcher instance.
///
/// ```
/// use prodigy::{Dig, EdgeKind, ProdigyPrefetcher, TriggerSpec};
///
/// // Describe an A[B[i]] workload and program the hardware.
/// let mut dig = Dig::new();
/// let b = dig.node(0x1000, 256, 4);
/// let a = dig.node(0x2000, 256, 4);
/// dig.edge(b, a, EdgeKind::SingleValued);
/// dig.trigger(b, TriggerSpec::default());
///
/// let mut pf = ProdigyPrefetcher::default();
/// pf.program(&dig)?;
/// assert_eq!(pf.node_table().rows().len(), 2);
/// # Ok::<(), prodigy::DigError>(())
/// ```
#[derive(Debug)]
pub struct ProdigyPrefetcher {
    cfg: ProdigyConfig,
    nodes: NodeTable,
    edges: EdgeTable,
    pfhr: PfhrFile,
    /// Trigger addresses of the live sequences, sorted ascending. A `Vec`,
    /// not a `BTreeSet`: the set holds about one look-ahead window and
    /// slides along with the demand stream, so a B-tree would split and
    /// merge nodes (heap operations) every few triggers, where the `Vec`
    /// reuses its buffer.
    live: Vec<u64>,
    cached_depth: u32,
    stats: ProdigyStats,
    throttle: Option<FeedbackThrottle>,
    /// Last sequences-per-trigger value reported to the telemetry layer
    /// (None until the first throttled trigger).
    traced_level: Option<u32>,
}

impl Default for ProdigyPrefetcher {
    fn default() -> Self {
        Self::new(ProdigyConfig::default())
    }
}

impl ProdigyPrefetcher {
    /// Creates a prefetcher with the given hardware sizing.
    pub fn new(cfg: ProdigyConfig) -> Self {
        ProdigyPrefetcher {
            nodes: NodeTable::new(NODE_TABLE_ENTRIES),
            edges: EdgeTable::new(EDGE_TABLE_ENTRIES),
            pfhr: PfhrFile::new(cfg.pfhr_entries),
            live: Vec::new(),
            cached_depth: 0,
            stats: ProdigyStats::default(),
            throttle: cfg.throttle.then(FeedbackThrottle::default),
            traced_level: None,
            cfg,
        }
    }

    /// `registerNode` (Fig. 6/8d): describes an array to the hardware.
    /// Returns `false` if the node table is full.
    pub fn register_node(&mut self, base: u64, elems: u64, elem_size: u8, id: u8) -> bool {
        let ok = self.nodes.insert(NodeRecord {
            id: NodeId(id),
            base,
            bound: base + elems * elem_size as u64,
            data_size: elem_size,
            trigger: false,
        });
        self.recompute_depth();
        ok
    }

    /// `registerTravEdge` (Fig. 8d): resolves `src_addr`/`dst_addr` against
    /// the node table and records the edge. Returns `false` when either
    /// address resolves to no registered node or the edge table is full.
    pub fn register_trav_edge(&mut self, src_addr: u64, dst_addr: u64, kind: EdgeKind) -> bool {
        let (Some(src), Some(dst)) = (
            self.nodes.containing(src_addr).map(|r| r.id),
            self.nodes.containing(dst_addr).map(|r| r.id),
        ) else {
            return false;
        };
        let ok = self.edges.insert(EdgeRecord { src, dst, kind });
        self.recompute_depth();
        ok
    }

    /// `registerTrigEdge` (Fig. 8d): marks the structure containing `addr`
    /// as the trigger.
    pub fn register_trig_edge(&mut self, addr: u64, spec: TriggerSpec) -> bool {
        let Some(id) = self.nodes.containing(addr).map(|r| r.id) else {
            return false;
        };
        let ok = self.nodes.set_trigger(id, spec);
        self.recompute_depth();
        ok
    }

    /// Programs the whole DIG at once: validates it, clears the tables and
    /// applies its registration prologue ([`DigProgram::from_dig`], what
    /// the instrumented binary's start-up calls amount to).
    ///
    /// # Errors
    /// Returns the DIG's validation error if it is malformed.
    pub fn program(&mut self, dig: &Dig) -> Result<(), crate::dig::DigError> {
        dig.validate()?;
        self.reset_tables();
        DigProgram::from_dig(dig).apply(self);
        Ok(())
    }

    /// Clears DIG tables and PFHRs (context switch, §IV-F).
    pub fn reset_tables(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.pfhr.clear();
        self.live.clear();
        self.cached_depth = 0;
    }

    /// Internal counters (PFHR structural drops folded in).
    pub fn prodigy_stats(&self) -> ProdigyStats {
        ProdigyStats {
            pfhr_drops: self.pfhr.structural_drops,
            ..self.stats
        }
    }

    /// Read-only view of the node table.
    pub fn node_table(&self) -> &NodeTable {
        &self.nodes
    }

    /// Read-only view of the edge table.
    pub fn edge_table(&self) -> &EdgeTable {
        &self.edges
    }

    fn recompute_depth(&mut self) {
        // Longest simple path from the trigger node over the edge table.
        let Some((t, _)) = self.nodes.trigger() else {
            self.cached_depth = 0;
            return;
        };
        fn walk(edges: &EdgeTable, from: NodeId, seen: &mut Vec<NodeId>) -> u32 {
            if seen.contains(&from) {
                return 0;
            }
            seen.push(from);
            let mut best = 0;
            let outs: Vec<NodeId> = edges.from(from).map(|e| e.dst).collect();
            for d in outs {
                best = best.max(walk(edges, d, seen));
            }
            seen.pop();
            1 + best
        }
        self.cached_depth = walk(&self.edges, t.id, &mut Vec::new());
    }

    /// Issues a prefetch for `elem_addr` of `node`; see
    /// [`ProdigyPrefetcher::request_line`].
    fn request(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        node: NodeRecord,
        elem_addr: u64,
        trigger: u64,
        depth: u32,
        tag: u16,
    ) {
        self.request_line(ctx, node, elem_addr, 1, trigger, depth, None, tag);
    }

    /// Issues one prefetch covering `count` (≥ 1) consecutive elements of
    /// `node` from `first`, all within one cache line, and, for non-leaf
    /// nodes, arranges for the chain to continue through every element:
    /// PFHRs are allocated *before* issue (full file ⇒ the prefetch is
    /// dropped, §VI-A), and if the line is already on-chip the chain
    /// advances immediately for all tracked elements instead of waiting for
    /// a fill that will never come.
    /// `cont` is the range continuation the line's register should carry;
    /// `tag` names the DIG node/edge this request is attributed to.
    #[allow(clippy::too_many_arguments)]
    fn request_line(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        node: NodeRecord,
        first: u64,
        count: u64,
        trigger: u64,
        depth: u32,
        cont: Option<RangeCont>,
        tag: u16,
    ) {
        if depth > 24 {
            return;
        }
        if self.edges.is_leaf(node.id) {
            ctx.prefetch(first, tag);
            return;
        }
        let line = line_of(first);
        let sz = node.data_size as u64;
        debug_assert_eq!(line_of(first + (count - 1) * sz), line);
        let had_entry = self.pfhr.contains_line(line);
        let mut any = false;
        for i in 0..count {
            let ea = first + i * sz;
            let c = if i == 0 { cont } else { None };
            any |= self
                .pfhr
                .allocate_with(node.id, trigger, ea, node.data_size, c);
        }
        if !any {
            return; // structural drop of the whole line (continuation lost)
        }
        let issued = ctx.prefetch(first, tag);
        if issued || had_entry {
            return; // a fill will (eventually) advance the chain
        }
        // Redundant: line already resident on-chip. Retire the register and,
        // if the data is truly there, advance every tracked element in place.
        if let Some(entry) = self.pfhr.take(line) {
            if ctx.l1_contains(first) {
                self.stats.inline_advances += 1;
                for ea in entry.pending_elems() {
                    self.advance_element(ctx, node, ea, trigger, depth + 1);
                }
                if let Some(c) = entry.cont {
                    self.expand_range(
                        ctx,
                        node,
                        c.next_line,
                        c.next_line,
                        c.last_elem,
                        trigger,
                        depth + 1,
                        tag,
                    );
                }
            }
        }
    }

    /// Issues up to one window of a ranged target's lines, tracking every
    /// in-range element; the window's last register carries the rest of the
    /// range as a continuation, so the stream self-sustains fill-by-fill.
    #[allow(clippy::too_many_arguments)]
    fn expand_range(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        dst: NodeRecord,
        from_line: u64,
        first_elem: u64,
        last_elem: u64,
        trigger: u64,
        depth: u32,
        tag: u16,
    ) {
        use prodigy_sim::LINE_BYTES;
        if depth > 24 {
            return;
        }
        if self.edges.is_leaf(dst.id) {
            // No PFHR, no continuation: stream the capped range up front.
            let sz = dst.data_size as u64;
            let mut line = from_line;
            let mut n = 0;
            while line <= last_elem && n < MAX_RANGE_LINES {
                self.stats.ranged_prefetches += 1;
                let e0 = first_elem.max(line);
                let e1 = last_elem.min(line + LINE_BYTES - 1);
                self.stats.range_elements_tracked += (e1 - e0) / sz + 1;
                ctx.prefetch(line, tag);
                line += LINE_BYTES;
                n += 1;
            }
            return;
        }
        let sz = dst.data_size as u64;
        let window = self.cfg.range_window.max(1);
        let mut line = from_line;
        let mut n = 0;
        while line <= last_elem && n < window {
            self.stats.ranged_prefetches += 1;
            // Arrays are line-aligned and element sizes divide the line
            // size, so element boundaries align with line boundaries.
            let e0 = first_elem.max(line);
            let e1 = last_elem.min(line + LINE_BYTES - 1);
            let count = (e1 - e0) / sz + 1;
            self.stats.range_elements_tracked += count;
            let next_line = line + LINE_BYTES;
            let cont = if n == window - 1 && next_line <= last_elem {
                Some(RangeCont {
                    next_line,
                    last_elem,
                })
            } else {
                None
            };
            self.request_line(ctx, dst, e0, count, trigger, depth + 1, cont, tag);
            line = next_line;
            n += 1;
        }
    }

    /// Runs one fetched element through the node's outgoing edges (§IV-C2).
    fn advance_element(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        node: NodeRecord,
        elem_addr: u64,
        trigger: u64,
        depth: u32,
    ) {
        if depth > 24 {
            return;
        }
        self.stats.elements_advanced += 1;
        let value = ctx.read_uint(elem_addr, node.data_size.min(8));
        // Indexed, not iterated: the walk below needs `&mut self`. Nothing
        // it calls changes the edge table.
        for i in 0..self.edges.rows().len() {
            let e = self.edges.rows()[i];
            if e.src != node.id {
                continue;
            }
            let Some(&dst) = self.nodes.by_id(e.dst) else {
                continue;
            };
            match e.kind {
                EdgeKind::SingleValued => {
                    let target = dst.base + value * dst.data_size as u64;
                    if !dst.contains(target) {
                        continue;
                    }
                    self.stats.single_prefetches += 1;
                    ctx.trace_dig_transition(node.id.0 as u16, dst.id.0 as u16, false, elem_addr);
                    self.request(
                        ctx,
                        dst,
                        target,
                        trigger,
                        depth + 1,
                        edge_tag(node.id, dst.id),
                    );
                }
                EdgeKind::Ranged => {
                    // Need the pair (a[i], a[i+1]); skip the last element.
                    let next_addr = elem_addr + node.data_size as u64;
                    if next_addr >= node.bound {
                        continue;
                    }
                    let lo = value;
                    let hi = ctx.read_uint(next_addr, node.data_size.min(8));
                    if hi <= lo {
                        continue;
                    }
                    let first = dst.base + lo * dst.data_size as u64;
                    let last = dst.base + (hi - 1) * dst.data_size as u64;
                    if !dst.contains(first) || !dst.contains(last) {
                        continue;
                    }
                    ctx.trace_dig_transition(node.id.0 as u16, dst.id.0 as u16, true, elem_addr);
                    self.expand_range(
                        ctx,
                        dst,
                        line_of(first),
                        first,
                        last,
                        trigger,
                        depth,
                        edge_tag(node.id, dst.id),
                    );
                }
            }
        }
    }
}

impl Prefetcher for ProdigyPrefetcher {
    fn name(&self) -> &'static str {
        "prodigy"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, access: &DemandAccess) {
        if access.is_write {
            return;
        }
        let Some((trec, spec)) = self.nodes.trigger() else {
            return;
        };
        if !trec.contains(access.vaddr) {
            return;
        }
        let trec = *trec;
        let sz = trec.data_size as u64;
        let idx = (access.vaddr - trec.base) / sz;
        let elem_addr = trec.base + idx * sz;

        // Drop rule (§IV-C1): the demand stream has advanced *past* the
        // start of a live sequence, so whatever is still in flight could
        // only partially hide latency — free its PFHRs and spend them
        // further ahead. "Past" respects the traversal direction; sequences
        // at exactly the demanded element stay alive until the core moves
        // beyond them, so a just-in-time chain finishes its work.
        let stale = match spec.direction {
            TraversalDirection::Ascending => 0..self.live.partition_point(|&t| t < elem_addr),
            TraversalDirection::Descending => {
                self.live.partition_point(|&t| t <= elem_addr)..self.live.len()
            }
        };
        for &t in &self.live[stale.clone()] {
            if self.pfhr.drop_sequence(t) > 0 {
                self.stats.sequences_dropped += 1;
            }
        }
        self.live.drain(stale);

        let lookahead =
            spec.lookahead
                .unwrap_or_else(|| Dig::heuristic_lookahead(self.cached_depth)) as u64;
        let mut sequences = spec.sequences;
        if let Some(t) = &mut self.throttle {
            sequences = t.sequences(sequences, &ctx.prefetch_usefulness());
            // Report the applied aggressiveness to the telemetry layer on
            // the first trigger and whenever a window adaptation moves it.
            if self.traced_level != Some(sequences) {
                ctx.trace_throttle(self.traced_level.unwrap_or(sequences), sequences);
                self.traced_level = Some(sequences);
            }
        }
        let elems = trec.elems();
        for s in 0..sequences as u64 {
            let dist = lookahead + s;
            let target = match spec.direction {
                TraversalDirection::Ascending => {
                    let t = idx + dist;
                    if t >= elems {
                        break;
                    }
                    t
                }
                TraversalDirection::Descending => match idx.checked_sub(dist) {
                    Some(t) => t,
                    None => break,
                },
            };
            let taddr = trec.base + target * sz;
            match self.live.binary_search(&taddr) {
                Ok(_) => continue, // sequence already initiated
                Err(i) => self.live.insert(i, taddr),
            }
            self.stats.sequences_initiated += 1;
            self.stats.trigger_prefetches += 1;
            self.request(ctx, trec, taddr, taddr, 0, node_tag(trec.id));
        }
    }

    fn on_fill(&mut self, ctx: &mut PrefetchCtx<'_>, fill: &FillEvent) {
        let Some(entry) = self.pfhr.take(fill.line_addr) else {
            return; // sequence was dropped, or a leaf fill
        };
        let Some(&node) = self.nodes.by_id(entry.node) else {
            return;
        };
        for ea in entry.pending_elems() {
            self.advance_element(ctx, node, ea, entry.trigger_addr, 0);
        }
        // Self-sustaining ranged stream: this fill issues the next window.
        if let Some(c) = entry.cont {
            self.expand_range(
                ctx,
                node,
                c.next_line,
                c.next_line,
                c.last_elem,
                entry.trigger_addr,
                0,
                node_tag(node.id),
            );
        }
    }

    fn storage_bits(&self) -> u64 {
        crate::storage::total_bits(&self.cfg)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_sim::prefetch::FillQueue;
    use prodigy_sim::{AddressSpace, MemorySystem, Stats, SystemConfig};

    /// Harness that owns the pieces a PrefetchCtx borrows.
    struct Rig {
        mem: MemorySystem,
        space: AddressSpace,
        stats: Stats,
        fills: FillQueue,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                mem: MemorySystem::new(SystemConfig::scaled(64).with_cores(1)),
                space: AddressSpace::new(),
                stats: Stats::default(),
                fills: FillQueue::new(),
            }
        }

        fn demand(&mut self, pf: &mut ProdigyPrefetcher, vaddr: u64, now: u64) {
            let mut ctx = PrefetchCtx::new(
                0,
                now,
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
                    pc: 0,
                    served: prodigy_sim::ServedBy::L1,
                },
            );
        }

        /// Delivers all queued fills up to time `until`.
        fn run_fills(&mut self, pf: &mut ProdigyPrefetcher, until: u64) {
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

    /// Builds the Fig. 3 toy BFS CSR in simulated memory and a programmed
    /// prefetcher for it. Layout: workQueue, offsetList, edgeList, visited.
    fn bfs_setup(rig: &mut Rig) -> (ProdigyPrefetcher, [u64; 4]) {
        let n = 64u64; // vertices
        let wq = rig.space.alloc(n * 4, 64);
        let off = rig.space.alloc((n + 1) * 4, 64);
        let edg = rig.space.alloc(n * 4 * 4, 64);
        let vis = rig.space.alloc(n * 4, 64);
        // Ring graph: vertex v has 4 neighbours v+1..v+4 (mod n).
        let mut e = 0u32;
        for v in 0..n {
            rig.space.write_u32(off + v * 4, e);
            for k in 1..=4u64 {
                rig.space
                    .write_u32(edg + e as u64 * 4, ((v + k) % n) as u32);
                e += 1;
            }
        }
        rig.space.write_u32(off + n * 4, e);
        for v in 0..n {
            rig.space.write_u32(wq + v * 4, v as u32);
        }
        let mut pf = ProdigyPrefetcher::default();
        assert!(pf.register_node(wq, n, 4, 0));
        assert!(pf.register_node(off, n + 1, 4, 1));
        assert!(pf.register_node(edg, n * 4, 4, 2));
        assert!(pf.register_node(vis, n, 4, 3));
        assert!(pf.register_trav_edge(wq, off, EdgeKind::SingleValued));
        assert!(pf.register_trav_edge(off, edg, EdgeKind::Ranged));
        assert!(pf.register_trav_edge(edg, vis, EdgeKind::SingleValued));
        assert!(pf.register_trig_edge(wq, TriggerSpec::default()));
        (pf, [wq, off, edg, vis])
    }

    #[test]
    fn depth_heuristic_uses_lookahead_one_for_bfs_dig() {
        let mut rig = Rig::new();
        let (pf, _) = bfs_setup(&mut rig);
        assert_eq!(pf.cached_depth, 4);
    }

    #[test]
    fn trigger_demand_initiates_sequences() {
        let mut rig = Rig::new();
        let (mut pf, [wq, ..]) = bfs_setup(&mut rig);
        rig.demand(&mut pf, wq, 0);
        let s = pf.prodigy_stats();
        assert_eq!(s.sequences_initiated, 4, "TriggerSpec::default seqs");
        assert!(rig.stats.prefetches_issued >= 1);
    }

    #[test]
    fn non_trigger_demand_does_not_initiate() {
        let mut rig = Rig::new();
        let (mut pf, [_, off, ..]) = bfs_setup(&mut rig);
        rig.demand(&mut pf, off, 0);
        assert_eq!(pf.prodigy_stats().sequences_initiated, 0);
    }

    #[test]
    fn chain_walks_all_four_structures() {
        let mut rig = Rig::new();
        let (mut pf, [wq, off, edg, vis]) = bfs_setup(&mut rig);
        rig.demand(&mut pf, wq, 0);
        rig.run_fills(&mut pf, u64::MAX);
        let s = pf.prodigy_stats();
        assert!(s.single_prefetches > 0, "wq→off and edg→vis edges fired");
        assert!(s.ranged_prefetches > 0, "off→edg edge fired");
        // The visited list (leaf) must have been prefetched: check residency
        // of the neighbour entries of the vertex at look-ahead distance 1.
        let _ = (off, edg);
        let u = rig.space.read_u32(wq + 4) as u64; // wq[1] = vertex 1
        let w0 = rig
            .space
            .read_u32(rig.space.read_u32(off + u * 4) as u64 * 4 + edg) as u64;
        assert!(
            rig.mem.l1_contains(0, vis + w0 * 4),
            "first neighbour's visited entry prefetched"
        );
    }

    #[test]
    fn advancing_past_a_trigger_address_drops_the_live_sequence() {
        let mut rig = Rig::new();
        let (mut pf, [wq, ..]) = bfs_setup(&mut rig);
        let la = prodigy_dig_lookahead();
        rig.demand(&mut pf, wq, 0); // initiates sequences at wq[la..la+4]
        let first = wq + la * 4;
        assert!(pf.live.contains(&first));
        rig.demand(&mut pf, first, 1); // core AT the sequence start: alive
        assert!(pf.live.contains(&first), "just-in-time chain may finish");
        rig.demand(&mut pf, first + 4, 2); // core past it: dropped
        assert!(!pf.live.contains(&first), "sequence no longer live");
        assert!(pf.prodigy_stats().sequences_dropped >= 1);
    }

    fn prodigy_dig_lookahead() -> u64 {
        Dig::heuristic_lookahead(4) as u64 // bfs DIG depth is 4
    }

    #[test]
    fn sequences_not_reinitiated_while_live() {
        let mut rig = Rig::new();
        let (mut pf, [wq, ..]) = bfs_setup(&mut rig);
        rig.demand(&mut pf, wq, 0);
        let first = pf.prodigy_stats().sequences_initiated;
        rig.demand(&mut pf, wq, 10); // same element again
        let second = pf.prodigy_stats().sequences_initiated;
        assert_eq!(first, second, "overlapping sequences deduplicated");
    }

    #[test]
    fn descending_direction_prefetches_backwards() {
        let mut rig = Rig::new();
        let n = 64u64;
        let arr = rig.space.alloc(n * 4, 64);
        let dst = rig.space.alloc(n * 4, 64);
        for i in 0..n {
            rig.space.write_u32(arr + i * 4, (n - 1 - i) as u32);
        }
        let mut pf = ProdigyPrefetcher::default();
        pf.register_node(arr, n, 4, 0);
        pf.register_node(dst, n, 4, 1);
        pf.register_trav_edge(arr, dst, EdgeKind::SingleValued);
        pf.register_trig_edge(
            arr,
            TriggerSpec {
                lookahead: Some(2),
                sequences: 2,
                direction: TraversalDirection::Descending,
            },
        );
        rig.demand(&mut pf, arr + 40 * 4, 0); // at element 40
        assert!(pf.live.contains(&(arr + 38 * 4)));
        assert!(pf.live.contains(&(arr + 37 * 4)));
        // At element 1 nothing fits below: no sequences.
        let before = pf.prodigy_stats().sequences_initiated;
        rig.demand(&mut pf, arr + 4, 1);
        assert_eq!(pf.prodigy_stats().sequences_initiated, before);
    }

    #[test]
    fn pfhr_exhaustion_limits_chaining() {
        // A 1-register file with 40 sequences spanning three cache lines of
        // the trigger structure must hit the structural hazard: same-line
        // requests merge into the single register, but the first request on
        // a *different* line finds the file full and is dropped.
        let mut rig = Rig::new();
        let n = 64u64;
        let wq = rig.space.alloc(n * 4, 64);
        let off = rig.space.alloc((n + 1) * 4, 64);
        for v in 0..n {
            rig.space.write_u32(wq + v * 4, v as u32);
            rig.space.write_u32(off + v * 4, (v * 4) as u32);
        }
        rig.space.write_u32(off + n * 4, (n * 4) as u32);
        let mut pf = ProdigyPrefetcher::new(ProdigyConfig {
            pfhr_entries: 1,
            ..ProdigyConfig::default()
        });
        pf.register_node(wq, n, 4, 0);
        pf.register_node(off, n + 1, 4, 1);
        pf.register_trav_edge(wq, off, EdgeKind::SingleValued);
        pf.register_trig_edge(
            wq,
            TriggerSpec {
                lookahead: Some(1),
                sequences: 40,
                ..TriggerSpec::default()
            },
        );
        rig.demand(&mut pf, wq, 0);
        assert!(
            pf.prodigy_stats().pfhr_drops > 0,
            "1-entry file must overflow"
        );

        // A 32-register file absorbs the same burst without drops.
        let mut big = ProdigyPrefetcher::new(ProdigyConfig {
            pfhr_entries: 32,
            ..ProdigyConfig::default()
        });
        big.register_node(wq, n, 4, 0);
        big.register_node(off, n + 1, 4, 1);
        big.register_trav_edge(wq, off, EdgeKind::SingleValued);
        big.register_trig_edge(
            wq,
            TriggerSpec {
                lookahead: Some(1),
                sequences: 40,
                ..TriggerSpec::default()
            },
        );
        let mut rig2 = Rig::new();
        rig2.space = std::mem::take(&mut rig.space);
        rig2.demand(&mut big, wq, 0);
        assert_eq!(big.prodigy_stats().pfhr_drops, 0);
    }

    #[test]
    fn fill_after_sequence_drop_is_ignored() {
        let mut rig = Rig::new();
        let (mut pf, [wq, ..]) = bfs_setup(&mut rig);
        rig.demand(&mut pf, wq, 0);
        // Drop all live sequences before any fill is processed.
        let live = pf.live.clone();
        for t in live {
            rig.demand(&mut pf, t, 1);
        }
        let issued_before = rig.stats.prefetches_issued;
        rig.run_fills(&mut pf, u64::MAX);
        // Same-line sequence requests merge into one PFHR, so at least the
        // register-backed sequence must have been dropped; the fills that
        // still arrive for freed registers CAM-miss and are ignored.
        let s = pf.prodigy_stats();
        assert!(rig.stats.prefetches_issued >= issued_before);
        assert!(s.sequences_dropped >= 1);
    }

    #[test]
    fn program_from_dig_matches_manual_registration() {
        let mut rig = Rig::new();
        let (manual, [wq, off, edg, vis]) = bfs_setup(&mut rig);
        let mut dig = Dig::new();
        let a = dig.node(wq, 64, 4);
        let b = dig.node(off, 65, 4);
        let c = dig.node(edg, 256, 4);
        let d = dig.node(vis, 64, 4);
        dig.edge(a, b, EdgeKind::SingleValued);
        dig.edge(b, c, EdgeKind::Ranged);
        dig.edge(c, d, EdgeKind::SingleValued);
        dig.trigger(a, TriggerSpec::default());
        let mut programmed = ProdigyPrefetcher::default();
        programmed.program(&dig).expect("valid DIG");
        assert_eq!(
            manual.node_table().rows().len(),
            programmed.node_table().rows().len()
        );
        assert_eq!(manual.edge_table().rows(), programmed.edge_table().rows());
        assert_eq!(manual.cached_depth, programmed.cached_depth);
    }

    #[test]
    fn storage_is_under_one_kilobyte() {
        let pf = ProdigyPrefetcher::default();
        let bits = pf.storage_bits();
        assert!(bits <= 8 * 1024, "paper claims 0.8 KB; got {} bits", bits);
    }
}
