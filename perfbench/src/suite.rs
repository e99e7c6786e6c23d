//! The benchmark's workloads: seeded inputs, the cells each workload runs,
//! and the output checks every cell must pass.

use prodigy_workloads::graph::csr::{Csr, WeightedCsr};
use prodigy_workloads::graph::generators;
use prodigy_workloads::kernels::{Bfs, FunctionalRunner, IntSort, Kernel, PageRank, Spmv, Sssp};
use prodigy_workloads::PrefetcherKind;

/// Every workload the benchmark knows, in the order the docs list them.
pub const WORKLOADS: [&str; 3] = ["pr-lj", "is", "nopf"];

/// Simulated cores of every cell (the paper's Table I machine).
const CORES: usize = 8;

// Legacy generator seeds of the repository's sweeps; seed 0 keeps them.
const LJ_SEED: u64 = 0x9002;
const SSSP_WEIGHT_SEED: u64 = 71;
const SPMV_SEED: u64 = 0xC0FFEE;
const IS_SEED: u64 = 0xBEEF;

// Input sizes: the `lj` stand-in at full scale, NAS IS at the sweep's
// scale-1 size, and HPCG's 27-point stencil on a 40³ grid.
const LJ_VERTICES: u32 = 96_000;
const LJ_DEGREE: u64 = 14;
const PR_ITERATIONS: u32 = 3;
const SSSP_MAX_WEIGHT: u32 = 64;
const SSSP_MAX_ROUNDS: u32 = 24;
const IS_KEYS: u64 = 2_000_000;
const IS_BUCKETS: u32 = 500_000;
const STENCIL_SIDE: u32 = 40;

/// The seed one generator uses under the benchmark seed `seed`: 0 keeps the
/// legacy seed, any other value perturbs it (one SplitMix64 round).
fn derive(seed: u64, legacy: u64) -> u64 {
    if seed == 0 {
        return legacy;
    }
    let mut z = legacy ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The R-MAT graph shaped like the `lj` stand-in; seed 0 is exactly
/// `Dataset::by_name("lj").instantiate(1)`.
fn lj_graph(seed: u64) -> Csr {
    generators::rmat(
        LJ_VERTICES,
        LJ_VERTICES as u64 * LJ_DEGREE,
        derive(seed, LJ_SEED),
        (0.57, 0.19, 0.19),
    )
}

/// Highest-out-degree vertex (the last one on ties), the traversal source
/// the repository's sweeps use.
fn best_source(g: &Csr) -> u32 {
    (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// An algorithm a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// PageRank on the `lj`-shaped graph.
    Pr,
    /// BFS on the `lj`-shaped graph.
    Bfs,
    /// SSSP on the weighted `lj`-shaped graph.
    Sssp,
    /// HPCG spmv on the 27-point stencil.
    Spmv,
    /// NAS integer sort.
    Is,
}

impl Alg {
    /// Kernel name as the repository's figures print it.
    pub fn name(self) -> &'static str {
        match self {
            Alg::Pr => "pr",
            Alg::Bfs => "bfs",
            Alg::Sssp => "sssp",
            Alg::Spmv => "spmv",
            Alg::Is => "is",
        }
    }
}

/// One workload × prefetcher cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// The algorithm.
    pub alg: Alg,
    /// The attached prefetcher.
    pub kind: PrefetcherKind,
}

impl Cell {
    /// `alg.kind`, e.g. `pr.prodigy`.
    pub fn label(&self) -> String {
        format!("{}.{}", self.alg.name(), self.kind.name())
    }
}

/// The cells of `workload`, or `None` for an unknown name.
pub fn cells(workload: &str) -> Option<Vec<Cell>> {
    use PrefetcherKind as K;
    let cell = |alg, kind| Cell { alg, kind };
    Some(match workload {
        "pr-lj" => [K::None, K::GhbGdc, K::Droplet, K::Prodigy]
            .into_iter()
            .map(|k| cell(Alg::Pr, k))
            .collect(),
        "is" => vec![cell(Alg::Is, K::None), cell(Alg::Is, K::Prodigy)],
        "nopf" => vec![
            cell(Alg::Bfs, K::None),
            cell(Alg::Sssp, K::None),
            cell(Alg::Spmv, K::None),
        ],
        _ => return None,
    })
}

/// A workload's generated inputs, shared by all of its cells.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    graph: Option<Csr>,
    weighted: Option<WeightedCsr>,
    stencil: Option<Csr>,
}

impl Inputs {
    /// Generates the inputs `cells` need under `seed`.
    pub fn generate(cells: &[Cell], seed: u64) -> Inputs {
        let needs = |a: &[Alg]| cells.iter().any(|c| a.contains(&c.alg));
        let graph = needs(&[Alg::Pr, Alg::Bfs, Alg::Sssp]).then(|| lj_graph(seed));
        let weighted = needs(&[Alg::Sssp]).then(|| {
            let g = graph.clone().expect("sssp runs on the lj-shaped graph");
            WeightedCsr::from_csr(g, derive(seed, SSSP_WEIGHT_SEED), SSSP_MAX_WEIGHT)
        });
        let stencil = needs(&[Alg::Spmv])
            .then(|| generators::stencil27(STENCIL_SIDE, STENCIL_SIDE, STENCIL_SIDE));
        Inputs {
            seed,
            graph,
            weighted,
            stencil,
        }
    }

    fn graph(&self) -> &Csr {
        self.graph
            .as_ref()
            .expect("graph generated for this workload")
    }

    fn weighted(&self) -> &WeightedCsr {
        self.weighted
            .as_ref()
            .expect("weighted graph generated for this workload")
    }

    /// A fresh kernel for `alg` over these inputs.
    pub fn kernel(&self, alg: Alg) -> Kern {
        match alg {
            Alg::Pr => Kern::Pr(PageRank::new(self.graph().clone(), PR_ITERATIONS)),
            Alg::Bfs => Kern::Bfs(Bfs::new(self.graph().clone(), best_source(self.graph()))),
            Alg::Sssp => {
                let src = best_source(&self.weighted().csr);
                Kern::Sssp(Sssp::new(self.weighted().clone(), src, SSSP_MAX_ROUNDS))
            }
            Alg::Spmv => Kern::Spmv(Spmv::new(
                self.stencil.clone().expect("stencil generated for spmv"),
                derive(self.seed, SPMV_SEED),
            )),
            Alg::Is => Kern::Is(IntSort::new(
                IS_KEYS,
                IS_BUCKETS,
                derive(self.seed, IS_SEED),
            )),
        }
    }

    /// Checksum of `alg` run on a [`FunctionalRunner`] with the cells' core
    /// count: what every simulated cell of `alg` must reproduce.
    pub fn functional_checksum(&self, alg: Alg) -> u64 {
        let mut k = self.kernel(alg);
        let mut runner = FunctionalRunner::new(CORES);
        let kernel = k.as_kernel();
        kernel.prepare(prodigy_workloads::PhaseRunner::space_mut(&mut runner));
        kernel.run(&mut runner)
    }

    /// Compares a finished kernel's result with the kernel's public
    /// reference. spmv keeps its values private, so only its checksum is
    /// checked (against [`Inputs::functional_checksum`]).
    pub fn check(&self, kern: &Kern) -> Result<(), String> {
        let mismatch = |what: &str, at: Option<usize>| match at {
            None => Ok(()),
            Some(i) => Err(format!("{what} differs from the reference at index {i}")),
        };
        match kern {
            Kern::Pr(k) => {
                let reference = PageRank::reference_scores(self.graph(), PR_ITERATIONS);
                mismatch("pr score", first_difference(&k.scores, &reference))
            }
            Kern::Bfs(k) => {
                let reference = Bfs::reference_depths(self.graph(), best_source(self.graph()));
                mismatch("bfs depth", first_difference(&k.depths, &reference))
            }
            Kern::Sssp(k) => {
                let g = self.weighted();
                let reference = Sssp::reference_distances(g, best_source(&g.csr));
                mismatch("sssp distance", first_difference(&k.distances, &reference))
            }
            Kern::Is(k) => mismatch("is rank", first_difference(&k.ranks, &counting_ranks(k))),
            Kern::Spmv(_) => Ok(()),
        }
    }
}

/// Index of the first element where `a` and `b` differ (or of the first
/// missing element when their lengths differ). Floats compare bit for bit.
fn first_difference<T: Copy + PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Host stable counting sort over the kernel's keys: `rank[i]` is key `i`'s
/// position in sorted order.
fn counting_ranks(k: &IntSort) -> Vec<u32> {
    let mut next = vec![0u32; IS_BUCKETS as usize + 1];
    for i in 0..k.len() {
        next[k.key(i) as usize + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    (0..k.len())
        .map(|i| {
            let slot = &mut next[k.key(i) as usize];
            *slot += 1;
            *slot - 1
        })
        .collect()
}

/// A constructed kernel, kept concrete so its result can be checked.
#[derive(Debug)]
pub enum Kern {
    /// PageRank.
    Pr(PageRank),
    /// BFS.
    Bfs(Bfs),
    /// SSSP.
    Sssp(Sssp),
    /// spmv.
    Spmv(Spmv),
    /// Integer sort.
    Is(IntSort),
}

impl Kern {
    /// The kernel as `run_workload` takes it.
    pub fn as_kernel(&mut self) -> &mut dyn Kernel {
        match self {
            Kern::Pr(k) => k,
            Kern::Bfs(k) => k,
            Kern::Sssp(k) => k,
            Kern::Spmv(k) => k,
            Kern::Is(k) => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_workloads::Dataset;

    #[test]
    fn seed_zero_pr_lj_graph_is_the_lj_stand_in() {
        let lj = Dataset::by_name("lj").expect("lj is a Table II stand-in");
        assert_eq!(lj_graph(0), lj.instantiate(1));
    }

    #[test]
    fn other_seeds_perturb_every_generator() {
        for legacy in [LJ_SEED, SSSP_WEIGHT_SEED, SPMV_SEED, IS_SEED] {
            assert_eq!(derive(0, legacy), legacy);
            assert_ne!(derive(1, legacy), legacy);
            assert_ne!(derive(1, legacy), derive(2, legacy));
        }
    }

    #[test]
    fn counting_ranks_sort_stably() {
        let k = IntSort::new(1000, 64, 5);
        let ranks = counting_ranks(&k);
        let mut sorted = vec![u32::MAX; 1000];
        for (i, &r) in ranks.iter().enumerate() {
            sorted[r as usize] = k.key(i);
        }
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn every_workload_has_a_none_cell() {
        for w in WORKLOADS {
            let cells = cells(w).expect("known workload");
            assert!(cells.iter().any(|c| c.kind == PrefetcherKind::None), "{w}");
        }
        assert!(cells("unknown").is_none());
    }
}
