//! Compressed sparse row (CSR) graphs — the representation the paper's
//! traversals run over (§II, Fig. 3).

/// An unweighted directed graph in CSR form: `offsets[v]..offsets[v+1]`
/// bounds `v`'s out-neighbour slice in `edges`.
///
/// ```
/// use prodigy_workloads::graph::csr::Csr;
///
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(2), 1);
/// assert_eq!(g.transpose().neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Offset list, `n + 1` entries.
    pub offsets: Vec<u32>,
    /// Edge (adjacency) list, `m` entries of destination vertex ids.
    pub edges: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `n` vertices. Edges keep their
    /// multiplicity; per-vertex adjacency is sorted for determinism.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: u32, edge_list: &[(u32, u32)]) -> Self {
        let mut degree = vec![0u32; n as usize];
        for &(s, d) in edge_list {
            assert!(s < n && d < n, "edge ({s},{d}) out of range (n = {n})");
            degree[s as usize] += 1;
        }
        let mut offsets = vec![0u32; n as usize + 1];
        for v in 0..n as usize {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut edges = vec![0u32; edge_list.len()];
        let mut cursor = offsets.clone();
        for &(s, d) in edge_list {
            let c = &mut cursor[s as usize];
            edges[*c as usize] = d;
            *c += 1;
        }
        for v in 0..n as usize {
            edges[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Csr { offsets, edges }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn m(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbour slice of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The transpose (in-edges become out-edges) — this is the CSC view
    /// pull-style PageRank iterates (§VI-C notes pr uses both CSC and CSR).
    ///
    /// A counting sort straight from the rows: in-degrees give the offsets,
    /// then each edge `v → w` appends `v` to row `w`. Sources are visited in
    /// increasing order, so every row comes out sorted (duplicates kept)
    /// with no pair list and no row sort.
    pub fn transpose(&self) -> Csr {
        let n = self.n() as usize;
        let mut offsets = vec![0u32; n + 1];
        for &w in &self.edges {
            offsets[w as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut edges = vec![0u32; self.edges.len()];
        for (v, row) in self.offsets.windows(2).enumerate() {
            for &w in &self.edges[row[0] as usize..row[1] as usize] {
                let c = &mut cursor[w as usize];
                edges[*c as usize] = v as u32;
                *c += 1;
            }
        }
        Csr { offsets, edges }
    }

    /// In-memory footprint in bytes when laid out as 4-byte offset and edge
    /// lists (for Table II's size-vs-LLC ratios).
    pub fn footprint_bytes(&self) -> u64 {
        (self.offsets.len() + self.edges.len()) as u64 * 4
    }
}

/// A CSR with per-edge weights (sssp, spmv, symgs, cg).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCsr {
    /// The structure.
    pub csr: Csr,
    /// Weight of each edge, parallel to `csr.edges`. Integer weights for
    /// sssp; reinterpreted as fixed-point values for the HPC kernels.
    pub weights: Vec<u32>,
}

impl WeightedCsr {
    /// Attaches deterministic pseudo-random weights in `1..=max_weight`.
    pub fn from_csr(csr: Csr, seed: u64, max_weight: u32) -> Self {
        assert!(max_weight >= 1);
        // Mix the seed so adjacent seeds (42 vs 43) diverge immediately.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let weights = (0..csr.edges.len())
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as u32 % max_weight) + 1
            })
            .collect();
        WeightedCsr { csr, weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> Csr {
        // 0→1, 0→2, 1→3, 2→3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1), (2, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn degrees_and_offsets_consistent() {
        let g = diamond();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(*g.offsets.last().unwrap() as u64, g.m());
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.m(), g.m());
        // Transposing twice restores the original (sorted) graph.
        assert_eq!(t.transpose(), g);
    }

    /// The pair-list transpose [`Csr::transpose`] replaces: every edge
    /// reversed into a list, then built by [`Csr::from_edges`].
    fn transpose_pairs(g: &Csr) -> Csr {
        let rev: Vec<(u32, u32)> = (0..g.n())
            .flat_map(|v| g.neighbors(v).iter().map(move |&w| (w, v)))
            .collect();
        Csr::from_edges(g.n(), &rev)
    }

    proptest! {
        #[test]
        fn transpose_matches_the_pair_list_oracle(
            n in 1u32..40,
            picks in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..300),
            dups in 0usize..4,
        ) {
            // Random edges over n vertices, some repeated verbatim.
            let mut edges: Vec<(u32, u32)> = picks.iter().map(|&(s, d)| (s % n, d % n)).collect();
            let repeats: Vec<(u32, u32)> = edges.iter().step_by(dups + 1).copied().collect();
            edges.extend(repeats);
            let g = Csr::from_edges(n, &edges);
            let t = g.transpose();
            prop_assert_eq!(&t, &transpose_pairs(&g));
            prop_assert_eq!(t.transpose(), g);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn weights_are_deterministic_and_positive() {
        let a = WeightedCsr::from_csr(diamond(), 42, 10);
        let b = WeightedCsr::from_csr(diamond(), 42, 10);
        assert_eq!(a, b);
        assert!(a.weights.iter().all(|&w| (1..=10).contains(&w)));
        let c = WeightedCsr::from_csr(diamond(), 43, 10);
        assert_ne!(a.weights, c.weights, "different seed, different weights");
    }
}
