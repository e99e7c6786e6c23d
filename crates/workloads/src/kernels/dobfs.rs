//! Direction-optimizing BFS (Beamer's algorithm, GAP's default) — the
//! extension the paper's §V-B footnote sketches: "Prodigy can also adapt to
//! direction-optimizing BFS by re-configuring the DIG during run-time."
//!
//! Levels run **top-down** (scan the frontier queue's out-edges) while the
//! frontier is small and switch to **bottom-up** (every unvisited vertex
//! scans its in-neighbours for a frontier member) when the frontier's edge
//! count grows past `m/ALPHA` (GAP's default α = 15). The two directions
//! have different DIGs:
//!
//! * top-down: `wq →(w0) off →(w1) edg →(w0) depth`, trigger on the queue;
//! * bottom-up: `off →(w1) edg →(w0) frontier-bitmap`, trigger on the
//!   offset list (vertex-sequential scan).
//!
//! The kernel re-programs the prefetcher at each switch via
//! [`PhaseRunner::reprogram`], exercising §IV-F's runtime reconfiguration.

use super::{load_csr, partition, Kernel, PhaseRunner};
use crate::graph::csr::Csr;
use crate::layout::ArrayHandle;
use prodigy::{Dig, DigProgram, EdgeKind, TriggerSpec};
use prodigy_sim::core::StreamBuilder;
use prodigy_sim::AddressSpace;

const PC_WQ: u32 = 1000;
const PC_OFF_LO: u32 = 1001;
const PC_OFF_HI: u32 = 1002;
const PC_EDG: u32 = 1003;
const PC_DEPTH: u32 = 1004;
const PC_FBM: u32 = 1005;
const PC_BR: u32 = 1006;
const PC_ST: u32 = 1010;

/// The top-down→bottom-up switch threshold α: GAP's default.
const ALPHA: u64 = 15;

/// The direction-optimizing BFS kernel. The input graph is symmetrised so
/// out- and in-neighbours coincide (as GAP's undirected inputs do).
#[derive(Debug)]
pub struct DoBfs {
    graph: Csr,
    source: u32,
    handles: Option<Handles>,
    /// Depth of each vertex after `run` (`u32::MAX` = unreachable).
    pub depths: Vec<u32>,
    /// Number of direction switches performed.
    pub switches: u32,
    /// Levels executed bottom-up.
    pub bottom_up_levels: u32,
}

#[derive(Debug, Clone, Copy)]
struct Handles {
    wq: ArrayHandle,
    off: ArrayHandle,
    edg: ArrayHandle,
    depth: ArrayHandle,
    fbm: ArrayHandle,
}

fn symmetrize(g: &Csr) -> Csr {
    let mut edges = Vec::with_capacity(2 * g.m() as usize);
    for v in 0..g.n() {
        for &w in g.neighbors(v) {
            edges.push((v, w));
            edges.push((w, v));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Csr::from_edges(g.n(), &edges)
}

impl DoBfs {
    /// Creates a direction-optimizing BFS from `source` (the graph is
    /// symmetrised internally).
    pub fn new(graph: Csr, source: u32) -> Self {
        assert!(source < graph.n());
        let graph = symmetrize(&graph);
        let n = graph.n() as usize;
        DoBfs {
            graph,
            source,
            handles: None,
            depths: vec![u32::MAX; n],
            switches: 0,
            bottom_up_levels: 0,
        }
    }

    /// Reference BFS over the symmetrised graph.
    pub fn reference_depths(&self) -> Vec<u32> {
        super::Bfs::reference_depths(&self.graph, self.source)
    }

    fn top_down_dig(&self) -> Dig {
        let h = self.handles.expect("prepared");
        let mut dig = Dig::new();
        let wq = h.wq.dig_node(&mut dig);
        let off = h.off.dig_node(&mut dig);
        let edg = h.edg.dig_node(&mut dig);
        let depth = h.depth.dig_node(&mut dig);
        dig.edge(wq, off, EdgeKind::SingleValued);
        dig.edge(off, edg, EdgeKind::Ranged);
        dig.edge(edg, depth, EdgeKind::SingleValued);
        dig.trigger(wq, TriggerSpec::default());
        dig
    }

    fn bottom_up_dig(&self) -> Dig {
        let h = self.handles.expect("prepared");
        let mut dig = Dig::new();
        let off = h.off.dig_node(&mut dig);
        let edg = h.edg.dig_node(&mut dig);
        let fbm = h.fbm.dig_node(&mut dig);
        dig.edge(off, edg, EdgeKind::Ranged);
        dig.edge(edg, fbm, EdgeKind::SingleValued);
        dig.trigger(off, TriggerSpec::default());
        dig
    }
}

impl Kernel for DoBfs {
    fn name(&self) -> &'static str {
        "dobfs"
    }

    fn prepare(&mut self, space: &mut AddressSpace) -> Dig {
        let n = self.graph.n() as u64;
        let img = load_csr(space, &self.graph);
        let wq = ArrayHandle::alloc(space, n, 4);
        let depth = ArrayHandle::alloc_cold(space, n, 4);
        let fbm = ArrayHandle::alloc_cold(space, n, 4);
        for v in 0..n {
            space.write_u32(depth.addr(v), u32::MAX);
        }
        space.write_u32(depth.addr(self.source as u64), 0);
        wq.write(space, 0, self.source as u64);
        self.handles = Some(Handles {
            wq,
            off: img.off,
            edg: img.edg,
            depth,
            fbm,
        });
        self.top_down_dig()
    }

    fn run(&mut self, runner: &mut dyn PhaseRunner) -> u64 {
        let h = self.handles.expect("prepare() must run first");
        let g = &self.graph;
        let n = g.n() as usize;
        self.depths[self.source as usize] = 0;
        let mut frontier = vec![self.source];
        let mut wq_len = 1u64;
        let mut depth = 0u32;
        let mut bottom_up = false;

        while !frontier.is_empty() {
            // Direction heuristic: frontier out-edges vs m/ALPHA.
            let frontier_edges: u64 = frontier.iter().map(|&v| g.degree(v) as u64).sum();
            let want_bottom_up = frontier_edges > g.m() / ALPHA;
            if want_bottom_up != bottom_up {
                bottom_up = want_bottom_up;
                self.switches += 1;
                let dig = if bottom_up {
                    self.bottom_up_dig()
                } else {
                    self.top_down_dig()
                };
                runner.reprogram(&DigProgram::from_dig(&dig));
            }

            let mut next = Vec::new();
            if bottom_up {
                self.bottom_up_levels += 1;
                // Publish the frontier bitmap for this level.
                for v in 0..n {
                    runner.space_mut().write_u32(h.fbm.addr(v as u64), 0);
                }
                for &u in &frontier {
                    runner.space_mut().write_u32(h.fbm.addr(u as u64), 1);
                }
                let in_frontier: Vec<bool> = {
                    let mut b = vec![false; n];
                    for &u in &frontier {
                        b[u as usize] = true;
                    }
                    b
                };
                let chunks = partition(n as u64, runner.cores());
                let mut streams = Vec::new();
                for chunk in &chunks {
                    let mut b = StreamBuilder::new();
                    for v in chunk.clone() {
                        let ld_d = b.load_at(PC_DEPTH, h.depth.addr(v), 4, &[]);
                        let unvisited = self.depths[v as usize] == u32::MAX;
                        b.branch(PC_BR, unvisited, &[ld_d]);
                        if !unvisited {
                            continue;
                        }
                        let lo_ld = b.load_at(PC_OFF_LO, h.off.addr(v), 4, &[]);
                        b.load_at(PC_OFF_HI, h.off.addr(v + 1), 4, &[]);
                        let (lo, hi) = (
                            g.offsets[v as usize] as u64,
                            g.offsets[v as usize + 1] as u64,
                        );
                        for w in lo..hi {
                            let u = g.edges[w as usize];
                            let ld_e = b.load_at(PC_EDG, h.edg.addr(w), 4, &[lo_ld]);
                            let ld_f = b.load_at(PC_FBM, h.fbm.addr(u as u64), 4, &[ld_e]);
                            let found = in_frontier[u as usize];
                            b.branch(PC_BR + 1, found, &[ld_f]);
                            if found {
                                // Parent found: claim v and stop scanning.
                                self.depths[v as usize] = depth + 1;
                                next.push(v as u32);
                                runner.space_mut().write_u32(h.depth.addr(v), depth + 1);
                                b.store_at(PC_ST, h.depth.addr(v), 4, &[ld_f]);
                                break;
                            }
                        }
                    }
                    streams.push(b.finish());
                }
                runner.run_streams(streams);
            } else {
                let qbase = wq_len - frontier.len() as u64;
                let chunks = partition(frontier.len() as u64, runner.cores());
                let mut appended = 0u64;
                let mut streams = Vec::new();
                for chunk in &chunks {
                    let mut b = StreamBuilder::new();
                    for fo in chunk.clone() {
                        let u = frontier[fo as usize];
                        let ld_u = b.load_at(PC_WQ, h.wq.addr(qbase + fo), 4, &[]);
                        let lo_ld = b.load_at(PC_OFF_LO, h.off.addr(u as u64), 4, &[ld_u]);
                        b.load_at(PC_OFF_HI, h.off.addr(u as u64 + 1), 4, &[ld_u]);
                        let (lo, hi) = (
                            g.offsets[u as usize] as u64,
                            g.offsets[u as usize + 1] as u64,
                        );
                        for w in lo..hi {
                            let v = g.edges[w as usize];
                            let ld_e = b.load_at(PC_EDG, h.edg.addr(w), 4, &[lo_ld]);
                            let ld_d = b.load_at(PC_DEPTH, h.depth.addr(v as u64), 4, &[ld_e]);
                            let newly = self.depths[v as usize] == u32::MAX;
                            b.branch(PC_BR, newly, &[ld_d]);
                            if newly {
                                self.depths[v as usize] = depth + 1;
                                next.push(v);
                                let slot = (wq_len + appended) % h.wq.elems;
                                appended += 1;
                                let space = runner.space_mut();
                                space.write_u32(h.depth.addr(v as u64), depth + 1);
                                space.write_u32(h.wq.addr(slot), v);
                                b.store_at(PC_ST, h.depth.addr(v as u64), 4, &[ld_d]);
                                b.store_at(PC_ST + 1, h.wq.addr(slot), 4, &[ld_e]);
                            }
                        }
                    }
                    streams.push(b.finish());
                }
                runner.run_streams(streams);
                wq_len += appended;
            }
            frontier = next;
            depth += 1;
        }

        self.depths.iter().enumerate().fold(0u64, |acc, (v, &d)| {
            acc.wrapping_add((d as u64).wrapping_mul(v as u64 + 1))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators::rmat;
    use crate::kernels::FunctionalRunner;

    #[test]
    fn matches_reference_and_switches_directions() {
        let g = rmat(2048, 16 * 2048, 19, (0.57, 0.19, 0.19));
        let mut k = DoBfs::new(g, 0);
        let reference = k.reference_depths();
        let mut r = FunctionalRunner::new(4);
        k.prepare(r.space_mut());
        k.run(&mut r);
        assert_eq!(k.depths, reference);
        assert!(k.switches >= 1, "dense mid-levels should go bottom-up");
        assert!(k.bottom_up_levels >= 1);
    }

    #[test]
    fn path_graph_stays_top_down() {
        let g = Csr::from_edges(64, &(0..63u32).map(|v| (v, v + 1)).collect::<Vec<_>>());
        let mut k = DoBfs::new(g, 0);
        let mut r = FunctionalRunner::new(2);
        k.prepare(r.space_mut());
        k.run(&mut r);
        assert_eq!(k.bottom_up_levels, 0, "tiny frontiers never flip");
        assert_eq!(k.depths[63], 63);
    }

    #[test]
    fn digs_differ_between_directions() {
        let g = rmat(128, 512, 3, (0.57, 0.19, 0.19));
        let mut k = DoBfs::new(g, 0);
        let mut r = FunctionalRunner::new(1);
        k.prepare(r.space_mut());
        let td = k.top_down_dig();
        let bu = k.bottom_up_dig();
        assert_eq!(td.depth_from_trigger(), 4);
        assert_eq!(bu.depth_from_trigger(), 3);
        assert_ne!(
            td.trigger_spec().map(|(t, _)| td.get(t).unwrap().base),
            bu.trigger_spec().map(|(t, _)| bu.get(t).unwrap().base),
            "trigger moves from queue to offsets"
        );
    }

    #[test]
    fn checksum_deterministic_across_core_counts() {
        let g = rmat(512, 4096, 23, (0.57, 0.19, 0.19));
        let run = |cores| {
            let mut k = DoBfs::new(g.clone(), 0);
            let mut r = FunctionalRunner::new(cores);
            k.prepare(r.space_mut());
            k.run(&mut r)
        };
        assert_eq!(run(1), run(7));
    }
}
