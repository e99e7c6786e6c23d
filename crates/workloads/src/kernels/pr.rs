//! PageRank (GAP) — pull-style over the transpose (CSC), the implementation
//! the paper notes "uses both CSC and CSR graph data structures" (§VI-C).
//!
//! Per iteration: a dense phase computes each vertex's outgoing
//! contribution (`score/out_degree`), then the irregular phase walks every
//! vertex's *incoming* neighbours through the CSC offset/edge lists and
//! gathers their contributions — ranged indirection into the edge list,
//! single-valued indirection into the contributions array. The trigger is
//! the CSC offset list itself (vertex-sequential traversal).
//!
//! This kernel also hosts the paper's software-only comparison point
//! (§VI-C): software prefetching as Ainsworth & Jones' CGO 2017 compiler
//! pass inserts it. For an indirect access `b[a[i]]` inside a loop the pass
//! emits a `prefetch(&a[i+Δ])`, a plain load of `a[i+Δ]` and a
//! `prefetch(&b[a[i+Δ]])`, all at a *static* look-ahead distance Δ;
//! [`PageRank::with_software_prefetch`] emits exactly that sequence. The
//! paper's finding this models: software prefetching helps a little (+7.6%
//! on pr) but cannot adapt its distance to the machine's runtime pace,
//! while Prodigy gets ≈ 2× on the same workload. The CGO'17 pass also
//! skips dynamically-sized structures it cannot prove safe, which is why
//! only this kernel carries the transform.

use super::{load_csr, partition, Kernel, PhaseRunner};
use crate::graph::csr::Csr;
use crate::layout::ArrayHandle;
use prodigy::{Dig, EdgeKind, TriggerSpec};
use prodigy_sim::core::StreamBuilder;
use prodigy_sim::AddressSpace;

const PC_OFF_LO: u32 = 200;
const PC_OFF_HI: u32 = 201;
const PC_EDG: u32 = 202;
const PC_CONTRIB: u32 = 203;
const PC_ST_SCORE: u32 = 204;
const PC_DENSE: u32 = 210;
const PC_SWPF_IDX: u32 = 220;

const DAMPING: f64 = 0.85;

/// The software prefetches' static look-ahead distance Δ in inner-loop
/// iterations: CGO'17's default heuristic for indirect patterns.
const SW_PREFETCH_DISTANCE: u64 = 16;

/// The PageRank kernel.
#[derive(Debug)]
pub struct PageRank {
    /// Out-degree of each vertex (the CSR is needed for nothing else).
    out_degree: Vec<u32>,
    csc: Csr,
    iterations: u32,
    sw_prefetch: bool,
    handles: Option<Handles>,
    /// Final scores (host copy).
    pub scores: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Handles {
    off: ArrayHandle,
    edg: ArrayHandle,
    contrib: ArrayHandle,
    scores: ArrayHandle,
    degrees: ArrayHandle,
}

impl PageRank {
    /// Creates a PageRank run of `iterations` power iterations.
    pub fn new(graph: Csr, iterations: u32) -> Self {
        let n = graph.n() as usize;
        let csc = graph.transpose();
        PageRank {
            out_degree: (0..graph.n()).map(|v| graph.degree(v)).collect(),
            csc,
            iterations,
            sw_prefetch: false,
            handles: None,
            scores: vec![0.0; n],
        }
    }

    /// Enables the software-prefetching transformation, 16 inner
    /// iterations ahead (no hardware prefetcher required).
    pub fn with_software_prefetch(mut self) -> Self {
        self.sw_prefetch = true;
        self
    }

    /// Reference PageRank for verification.
    pub fn reference_scores(g: &Csr, iterations: u32) -> Vec<f64> {
        let n = g.n() as usize;
        let csc = g.transpose();
        let mut score = vec![1.0 / n as f64; n];
        let base = (1.0 - DAMPING) / n as f64;
        for _ in 0..iterations {
            let contrib: Vec<f64> = (0..n)
                .map(|v| {
                    let d = g.degree(v as u32);
                    if d == 0 {
                        0.0
                    } else {
                        score[v] / d as f64
                    }
                })
                .collect();
            for (u, s) in score.iter_mut().enumerate().take(n) {
                let sum: f64 = csc
                    .neighbors(u as u32)
                    .iter()
                    .map(|&v| contrib[v as usize])
                    .sum();
                *s = base + DAMPING * sum;
            }
        }
        score
    }
}

impl Kernel for PageRank {
    fn name(&self) -> &'static str {
        "pr"
    }

    fn prepare(&mut self, space: &mut AddressSpace) -> Dig {
        let n = self.out_degree.len() as u64;
        let img = load_csr(space, &self.csc);
        let contrib = ArrayHandle::alloc_cold(space, n, 8);
        let scores = ArrayHandle::alloc_cold(space, n, 8);
        let degrees = ArrayHandle::alloc_cold(space, n, 4);
        let init = 1.0 / n as f64;
        for (v, &d) in (0..n).zip(&self.out_degree) {
            space.write_f64(scores.addr(v), init);
            space.write_u32(degrees.addr(v), d);
        }
        self.scores.fill(init);
        self.handles = Some(Handles {
            off: img.off,
            edg: img.edg,
            contrib,
            scores,
            degrees,
        });

        let mut dig = Dig::new();
        let n_off = img.off.dig_node(&mut dig);
        let n_edg = img.edg.dig_node(&mut dig);
        let n_contrib = contrib.dig_node(&mut dig);
        dig.edge(n_off, n_edg, EdgeKind::Ranged);
        dig.edge(n_edg, n_contrib, EdgeKind::SingleValued);
        dig.trigger(n_off, TriggerSpec::default());
        dig
    }

    fn run(&mut self, runner: &mut dyn PhaseRunner) -> u64 {
        let h = self.handles.expect("prepare() must run first");
        let n = self.out_degree.len();
        let base = (1.0 - DAMPING) / n as f64;
        let mut contrib = vec![0.0f64; n];

        for _ in 0..self.iterations {
            // --- dense contribution phase ---
            let chunks = partition(n as u64, runner.cores());
            let mut streams = Vec::new();
            for chunk in &chunks {
                let mut b = StreamBuilder::new();
                for v in chunk.clone() {
                    let d = self.out_degree[v as usize];
                    contrib[v as usize] = if d == 0 {
                        0.0
                    } else {
                        self.scores[v as usize] / d as f64
                    };
                    runner
                        .space_mut()
                        .write_f64(h.contrib.addr(v), contrib[v as usize]);
                    let ls = b.load_at(PC_DENSE, h.scores.addr(v), 8, &[]);
                    let ld = b.load_at(PC_DENSE + 1, h.degrees.addr(v), 4, &[]);
                    let c = b.compute(4, &[ls, ld]); // fp divide (pipelined)
                    b.store_at(PC_DENSE + 2, h.contrib.addr(v), 8, &[c]);
                }
                streams.push(b.finish());
            }
            runner.run_streams(streams);

            // --- irregular gather phase (CSC pull) ---
            let mut streams = Vec::new();
            for chunk in &chunks {
                let mut b = StreamBuilder::new();
                for u in chunk.clone() {
                    let lo_ld = b.load_at(PC_OFF_LO, h.off.addr(u), 4, &[]);
                    let hi_ld = b.load_at(PC_OFF_HI, h.off.addr(u + 1), 4, &[]);
                    let (lo, hi) = (
                        self.csc.offsets[u as usize] as u64,
                        self.csc.offsets[u as usize + 1] as u64,
                    );
                    let mut sum = 0.0f64;
                    let mut acc = b.compute(1, &[]);
                    for w in lo..hi {
                        let v = self.csc.edges[w as usize] as usize;
                        sum += contrib[v];
                        // Software prefetching (CGO'17 shape), staggered:
                        // prefetch the index at 2Δ; at Δ the index line is
                        // already resident, so load it cheaply and prefetch
                        // the indirect target it names.
                        if self.sw_prefetch {
                            let dist = SW_PREFETCH_DISTANCE;
                            if w + 2 * dist < hi {
                                b.prefetch(h.edg.addr(w + 2 * dist), &[]);
                            }
                            let wf = w + dist;
                            if wf < hi {
                                let idx = b.load_at(PC_SWPF_IDX, h.edg.addr(wf), 4, &[]);
                                let vf = self.csc.edges[wf as usize] as u64;
                                b.prefetch(h.contrib.addr(vf), &[idx]);
                            }
                        }
                        let ld_e = b.load_at(PC_EDG, h.edg.addr(w), 4, &[lo_ld]);
                        let ld_c = b.load_at(PC_CONTRIB, h.contrib.addr(v as u64), 8, &[ld_e]);
                        acc = b.compute(4, &[ld_c, acc]); // fp add
                    }
                    let _ = hi_ld;
                    self.scores[u as usize] = base + DAMPING * sum;
                    runner
                        .space_mut()
                        .write_f64(h.scores.addr(u), self.scores[u as usize]);
                    b.store_at(PC_ST_SCORE, h.scores.addr(u), 8, &[acc]);
                }
                streams.push(b.finish());
            }
            runner.run_streams(streams);
        }

        // Checksum: quantised score sum.
        self.scores
            .iter()
            .fold(0u64, |acc, &s| acc.wrapping_add((s * 1e9) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators::{rmat, uniform};
    use crate::kernels::FunctionalRunner;

    #[test]
    fn matches_reference_scores() {
        let g = uniform(128, 1024, 3);
        let reference = PageRank::reference_scores(&g, 4);
        let mut k = PageRank::new(g, 4);
        let mut r = FunctionalRunner::new(4);
        k.prepare(r.space_mut());
        k.run(&mut r);
        for (a, b) in k.scores.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn scores_form_a_distribution() {
        let g = rmat(256, 2048, 9, (0.57, 0.19, 0.19));
        let mut k = PageRank::new(g, 8);
        let mut r = FunctionalRunner::new(2);
        k.prepare(r.space_mut());
        k.run(&mut r);
        let sum: f64 = k.scores.iter().sum();
        // Dangling vertices leak rank; sum stays within (0, 1].
        assert!(sum > 0.3 && sum <= 1.0 + 1e-9, "sum = {sum}");
        assert!(k.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn dig_uses_offset_trigger_and_both_indirections() {
        let g = uniform(64, 256, 1);
        let mut k = PageRank::new(g, 1);
        let mut r = FunctionalRunner::new(1);
        let dig = k.prepare(r.space_mut());
        dig.validate().expect("valid");
        assert_eq!(dig.depth_from_trigger(), 3);
        let (trig, _) = dig.trigger_spec().unwrap();
        assert_eq!(trig, prodigy::NodeId(0), "offset list triggers");
    }

    #[test]
    fn software_prefetch_variant_computes_same_scores() {
        let g = uniform(128, 1024, 3);
        let plain = {
            let mut k = PageRank::new(g.clone(), 3);
            let mut r = FunctionalRunner::new(2);
            k.prepare(r.space_mut());
            k.run(&mut r);
            k.scores
        };
        let mut k = PageRank::new(g, 3).with_software_prefetch();
        let mut r = FunctionalRunner::new(2);
        k.prepare(r.space_mut());
        k.run(&mut r);
        assert_eq!(k.scores, plain);
    }
}
