//! The paper's 29-workload roster (§V-B): five GAP graph algorithms × five
//! Table II data sets, plus spmv, symgs, cg and is. Three more workloads
//! serve single experiments: triangle counting (§VI-G), direction-optimizing
//! BFS (§V-B) and PageRank with software prefetches (§VI-C).

use prodigy_workloads::graph::csr::{Csr, WeightedCsr};
use prodigy_workloads::graph::datasets::Dataset;
use prodigy_workloads::graph::generators;
use prodigy_workloads::kernels::{
    Bc, Bfs, Cc, Cg, DoBfs, IntSort, Kernel, PageRank, Spmv, Sssp, Symgs, Tc,
};
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};

/// The five GAP algorithms, in the paper's order.
pub const GRAPH_ALGS: [&str; 5] = ["bc", "bfs", "cc", "pr", "sssp"];
/// The HPCG and NAS kernels.
pub const NON_GRAPH_ALGS: [&str; 4] = ["spmv", "symgs", "cg", "is"];

/// A buildable workload instance: algorithm plus input.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Figure label ("bfs-lj", "spmv", ...).
    pub name: String,
    /// Algorithm ("bfs", ...).
    pub alg: &'static str,
    /// Data set short name for graph algorithms.
    pub dataset: Option<&'static str>,
    /// Scale divisor (larger = smaller input).
    pub scale: u32,
    /// Whether to HubSort-reorder the input graph (Fig. 18).
    pub reorder: bool,
    /// Whether the kernel carries CGO'17 software prefetches (pr only,
    /// §VI-C).
    pub software_prefetch: bool,
}

type GraphCache = Mutex<HashMap<(String, u32, bool), Arc<Csr>>>;

fn graph_cache() -> &'static GraphCache {
    static CACHE: OnceLock<GraphCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Instantiates (and caches) a Table II graph at the given scale.
///
/// # Panics
/// Panics on an unknown data-set name, listing the valid ones. Names reach
/// here from the registry, never from user input.
pub fn dataset_graph(name: &str, scale: u32, reorder: bool) -> Arc<Csr> {
    let key = (name.to_string(), scale, reorder);
    if let Some(g) = graph_cache().lock().unwrap().get(&key) {
        return Arc::clone(g);
    }
    let d = Dataset::by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = prodigy_workloads::graph::datasets::DATASETS
            .iter()
            .map(|d| d.name)
            .collect();
        panic!(
            "unknown dataset {name:?}; valid datasets: {}",
            names.join(" ")
        )
    });
    let mut g = d.instantiate(scale);
    if reorder {
        let r = prodigy_workloads::graph::reorder::hubsort(&g);
        g = prodigy_workloads::graph::reorder::apply(&g, &r);
    }
    let arc = Arc::new(g);
    graph_cache().lock().unwrap().insert(key, Arc::clone(&arc));
    arc
}

/// Vertex with the highest out-degree — the traversal source, so BFS-family
/// runs cover most of the graph.
pub fn best_source(g: &Csr) -> u32 {
    (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

impl WorkloadSpec {
    /// Graph-algorithm instance.
    pub fn graph(alg: &'static str, dataset: &'static str, scale: u32) -> Self {
        WorkloadSpec {
            name: format!("{alg}-{dataset}"),
            alg,
            dataset: Some(dataset),
            scale,
            reorder: false,
            software_prefetch: false,
        }
    }

    /// Non-graph instance.
    pub fn plain(alg: &'static str, scale: u32) -> Self {
        WorkloadSpec {
            name: alg.to_string(),
            alg,
            dataset: None,
            scale,
            reorder: false,
            software_prefetch: false,
        }
    }

    /// Returns a copy operating on the HubSort-reordered input.
    pub fn reordered(mut self) -> Self {
        self.reorder = true;
        self
    }

    /// Returns a copy whose kernel carries CGO'17 software prefetches,
    /// named `<name>-swpf` (PageRank only).
    pub fn with_software_prefetch(mut self) -> Self {
        self.software_prefetch = true;
        self.name.push_str("-swpf");
        self
    }

    /// FNV-1a hash of this spec's *input identity* (name, scale, reorder).
    ///
    /// This is the workload-seed basis for deterministic sweeps. It
    /// deliberately covers only the fields that select the input data — not
    /// the prefetcher or hardware knobs of a `Cell` — because every
    /// prefetcher must run the *same* input for the cross-prefetcher
    /// checksum assertion (`speedup`'s "prefetching never changed program
    /// output") to be meaningful.
    pub fn identity_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .name
            .bytes()
            .chain([b'|'])
            .chain(self.scale.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= self.reorder as u64;
        h.wrapping_mul(0x0000_0100_0000_01B3)
    }

    /// Per-spec workload seed for a sweep run under `base_seed`.
    ///
    /// `base_seed == 0` (the default) keeps the seed repo's original
    /// hard-wired input seeds, so figure tables stay comparable across
    /// versions; any other value perturbs each workload's internal inputs
    /// deterministically and independently of sweep execution order.
    fn derived_seed(&self, base_seed: u64, legacy: u64) -> u64 {
        if base_seed == 0 {
            return legacy;
        }
        // One SplitMix64 mixing round over (legacy, base, identity).
        let mut z = legacy ^ base_seed ^ self.identity_hash();
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Builds a fresh kernel instance, deriving all workload-internal input
    /// seeds (edge weights, vectors, key streams) from `base_seed` and this
    /// spec's identity; 0 keeps the seed repo's inputs. The Table II
    /// stand-in *graphs* are not re-randomized by the sweep seed — they
    /// model fixed external data sets.
    ///
    /// # Panics
    /// Panics on an unknown algorithm or data-set name, listing the valid
    /// ones. Specs come from the registry; `prodigy-eval` resolves a
    /// user-named workload against [`all_29`] first, and a registry cell's
    /// panic is recorded as that cell's error.
    pub fn instantiate(&self, base_seed: u64) -> Box<dyn Kernel + Send> {
        match self.alg {
            "bc" | "bfs" | "cc" | "pr" | "sssp" | "tc" | "dobfs" => {
                let Some(dataset) = self.dataset else {
                    panic!("graph algorithm {:?} needs a dataset", self.alg);
                };
                let g = dataset_graph(dataset, self.scale, self.reorder);
                let src = best_source(&g);
                match self.alg {
                    "bc" => Box::new(Bc::new((*g).clone(), src)) as Box<dyn Kernel + Send>,
                    "bfs" => Box::new(Bfs::new((*g).clone(), src)),
                    "cc" => Box::new(Cc::new((*g).clone(), 6)),
                    "pr" if self.software_prefetch => {
                        Box::new(PageRank::new((*g).clone(), 3).with_software_prefetch())
                    }
                    "pr" => Box::new(PageRank::new((*g).clone(), 3)),
                    "tc" => Box::new(Tc::new((*g).clone())),
                    "dobfs" => Box::new(DoBfs::new((*g).clone(), src)),
                    "sssp" => {
                        let w = self.derived_seed(base_seed, 71);
                        Box::new(Sssp::new(
                            WeightedCsr::from_csr((*g).clone(), w, 64),
                            src,
                            24,
                        ))
                    }
                    _ => unreachable!(),
                }
            }
            "spmv" | "symgs" => {
                // HPCG 27-point stencil problem, dimension scaled.
                let s = ((40.0 / (self.scale as f64).cbrt()).round() as u32).max(8);
                let m = generators::stencil27(s, s, s);
                let seed = self.derived_seed(base_seed, 0xC0FFEE);
                if self.alg == "spmv" {
                    Box::new(Spmv::new(m, seed))
                } else {
                    Box::new(Symgs::new(m, seed))
                }
            }
            "cg" => {
                // NAS CG: random sparse SPD system (75k rows in the paper).
                let n = (75_000 / self.scale).max(256);
                let seed = self.derived_seed(base_seed, 0xCAFE);
                let pattern = generators::uniform(n, n as u64 * 6, seed);
                Box::new(Cg::new(&pattern, 4, seed))
            }
            "is" => {
                // NAS IS: 33M keys in the paper, scaled down.
                let keys = (2_000_000 / self.scale as u64).max(4096);
                let seed = self.derived_seed(base_seed, 0xBEEF);
                Box::new(IntSort::new(keys, (keys / 4).max(64) as u32, seed))
            }
            other => {
                let valid: Vec<&str> = GRAPH_ALGS
                    .iter()
                    .chain(&["tc", "dobfs"])
                    .chain(&NON_GRAPH_ALGS)
                    .copied()
                    .collect();
                panic!(
                    "unknown algorithm {other:?}; valid algorithms: {}",
                    valid.join(" ")
                );
            }
        }
    }

    /// Whether this is a graph workload (A&J/DROPLET applicable).
    pub fn is_graph(&self) -> bool {
        self.dataset.is_some()
    }
}

/// The full 29-workload roster of Figs. 4/14/19.
pub fn all_29(scale: u32) -> Vec<WorkloadSpec> {
    let mut v = Vec::with_capacity(29);
    for alg in GRAPH_ALGS {
        for d in &prodigy_workloads::graph::datasets::DATASETS {
            v.push(WorkloadSpec::graph(alg, d.name, scale));
        }
    }
    for alg in NON_GRAPH_ALGS {
        v.push(WorkloadSpec::plain(alg, scale));
    }
    v
}

/// One workload per algorithm (9 entries, Figs. 12/13/15/16/17): graph
/// algorithms use the `lj` stand-in, matching the paper's per-algorithm
/// aggregation.
pub fn per_algorithm(scale: u32) -> Vec<WorkloadSpec> {
    let mut v: Vec<WorkloadSpec> = GRAPH_ALGS
        .iter()
        .map(|&a| WorkloadSpec::graph(a, "lj", scale))
        .collect();
    v.extend(
        NON_GRAPH_ALGS
            .iter()
            .map(|&a| WorkloadSpec::plain(a, scale)),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy_workloads::kernels::FunctionalRunner;
    use prodigy_workloads::PhaseRunner;

    #[test]
    fn roster_has_29_workloads() {
        let r = all_29(16);
        assert_eq!(r.len(), 29);
        assert_eq!(r.iter().filter(|w| w.is_graph()).count(), 25);
    }

    #[test]
    fn per_algorithm_has_nine() {
        assert_eq!(per_algorithm(16).len(), 9);
    }

    #[test]
    fn every_workload_instantiates_and_validates_its_dig() {
        for spec in per_algorithm(64) {
            let mut k = spec.instantiate(0);
            let mut r = FunctionalRunner::new(2);
            let dig = k.prepare(r.space_mut());
            dig.validate()
                .unwrap_or_else(|e| panic!("{}: invalid DIG: {e}", spec.name));
        }
    }

    #[test]
    fn graph_cache_returns_same_instance() {
        let a = dataset_graph("po", 64, false);
        let b = dataset_graph("po", 64, false);
        assert!(Arc::ptr_eq(&a, &b));
        let c = dataset_graph("po", 64, true);
        assert!(!Arc::ptr_eq(&a, &c), "reordered graph is distinct");
    }

    #[test]
    #[should_panic(expected = "unknown dataset \"no-such-dataset\"; valid datasets: po lj")]
    fn an_unknown_dataset_panics_listing_the_valid_ones() {
        dataset_graph("no-such-dataset", 64, false);
    }

    #[test]
    #[should_panic(expected = "unknown algorithm \"no-such-alg\"; valid algorithms: bc bfs")]
    fn an_unknown_algorithm_panics_listing_the_valid_ones() {
        WorkloadSpec::plain("no-such-alg", 64).instantiate(0);
    }

    #[test]
    fn best_source_picks_max_degree() {
        let g = Csr::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)]);
        assert_eq!(best_source(&g), 2);
    }
}
