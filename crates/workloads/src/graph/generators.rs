//! Seeded synthetic graph generators.
//!
//! The paper uses SNAP/SuiteSparse graphs (pokec, livejournal, orkut,
//! sk-2005, webbase-2001). Those files aren't available here, so the
//! Table II stand-ins are generated with matched *shape* (see DESIGN.md
//! substitution #2): RMAT-style recursive-matrix sampling reproduces the
//! skewed power-law degree distributions of social networks, and a
//! locality-bundled generator mimics web crawls' host-local link structure.
//! What the prefetching experiments need — data-dependent traversals with
//! heavy-tailed ranges and no cache-friendly locality — is preserved.

use super::csr::Csr;
use crate::rng::SimRng;

/// Uniform random directed graph (Erdős–Rényi-ish): `m` edges sampled
/// uniformly, self-loops excluded.
pub fn uniform(n: u32, m: u64, seed: u64) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = SimRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    while (edges.len() as u64) < m {
        let s = rng.gen_range_u32(0, n);
        let d = rng.gen_range_u32(0, n);
        if s != d {
            edges.push((s, d));
        }
    }
    Csr::from_edges(n, &edges)
}

/// RMAT (recursive matrix) generator with Graph500-like skew parameters —
/// produces the heavy-tailed degree distributions of social graphs.
/// `n` is rounded up to a power of two internally but the vertex ids are
/// folded back into `0..n`.
///
/// Two corrections keep the *relative* shape of the real Table II graphs at
/// simulation scale:
///
/// * **degree cap at `n / 128`**: real social graphs' maximum degree is
///   ≈0.4–1.1 % of `n` (livejournal: 20 k of 4.8 M); raw RMAT at small `n`
///   produces hubs holding >10 % of `n`, which distorts every cache-to-hub
///   ratio. Excess edges are redistributed uniformly.
/// * **vertex-id shuffle**: RMAT's quadrant bias packs all hubs into
///   consecutive low ids; real graph ids don't order by degree. A
///   deterministic permutation scatters them.
pub fn rmat(n: u32, m: u64, seed: u64, (a, b, c): (f64, f64, f64)) -> Csr {
    assert!(n >= 2);
    assert!(
        a + b + c < 1.0,
        "quadrant probabilities must leave room for d"
    );
    let scale = 32 - (n - 1).leading_zeros();
    // Each level draws one 53-bit value and picks a quadrant by the first
    // cumulative probability it falls below (a: top-left, b: top-right,
    // c: bottom-left, else bottom-right). Integer thresholds decide as the
    // float comparisons would, for any a, b, c.
    let [ta, tab, tabc] = [a, a + b, a + b + c].map(SimRng::threshold);
    // x and y part only in the b and c quadrants: with neither drawable
    // every edge is a self-loop and the loop below would never end.
    assert!(
        m == 0 || ta < tabc,
        "rmat: b = {b} and c = {c} leave no draw that is not a self-loop"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    while (edges.len() as u64) < m {
        let (mut x, mut y) = (0u64, 0u64);
        for _ in 0..scale {
            let r = rng.next_u53();
            let (past_a, past_ab, past_abc) = (r >= ta, r >= tab, r >= tabc);
            // Bottom half (x): c or d. Right half (y): b or d.
            x = (x << 1) | (past_a & past_ab) as u64;
            y = (y << 1) | (past_a & (!past_ab | past_abc)) as u64;
        }
        // Both are below 2^scale < 2n: one subtraction folds them into 0..n.
        let fold = |v: u64| (v - if v >= n as u64 { n as u64 } else { 0 }) as u32;
        let (s, d) = (fold(x), fold(y));
        if s != d {
            edges.push((s, d));
        }
    }
    cap_and_shuffle(n, edges, rng)
}

/// R-MAT's two corrections (see [`rmat`]) on the sampled `edges`, drawing
/// from `rng` where sampling left it: the degree cap, then the vertex-id
/// shuffle.
fn cap_and_shuffle(n: u32, mut edges: Vec<(u32, u32)>, mut rng: SimRng) -> Csr {
    // Degree cap: redistribute out-edges beyond n/128 uniformly.
    let cap = (n / 128).max(8);
    let mut degree = vec![0u32; n as usize];
    for e in &mut edges {
        if degree[e.0 as usize] >= cap {
            let mut s = rng.gen_range_u32(0, n);
            let mut guard = 0;
            while (degree[s as usize] >= cap || s == e.1) && guard < 64 {
                s = rng.gen_range_u32(0, n);
                guard += 1;
            }
            e.0 = s;
        }
        degree[e.0 as usize] += 1;
    }
    // Deterministic vertex-id shuffle.
    let mut perm: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.gen_index(i + 1);
        perm.swap(i, j);
    }
    for e in &mut edges {
        e.0 = perm[e.0 as usize];
        e.1 = perm[e.1 as usize];
    }
    Csr::from_edges(n, &edges)
}

/// Web-crawl-like generator: vertices are grouped into "hosts"; most links
/// stay within a host's neighbourhood (high locality bursts) with a tail of
/// global links — mimicking sk-2005/webbase-2001 structure.
pub fn webby(n: u32, m: u64, host_size: u32, local_fraction: f64, seed: u64) -> Csr {
    assert!(n >= 2 && host_size >= 1);
    assert!((0.0..=1.0).contains(&local_fraction));
    let local = SimRng::threshold(local_fraction);
    // One-vertex hosts with every link local give d == s on every draw.
    assert!(
        m == 0 || host_size > 1 || local < SimRng::threshold(1.0),
        "webby: host_size = {host_size} and local_fraction = {local_fraction} \
         leave no draw that is not a self-loop"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    while (edges.len() as u64) < m {
        let s = rng.gen_range_u32(0, n);
        let d = if rng.next_u53() < local {
            let host = s / host_size;
            let lo = host * host_size;
            let hi = (lo + host_size).min(n);
            rng.gen_range_u32(lo, hi)
        } else {
            rng.gen_range_u32(0, n)
        };
        if s != d {
            edges.push((s, d));
        }
    }
    Csr::from_edges(n, &edges)
}

/// An HPCG-style sparse matrix: a 3-D 27-point stencil over a
/// `nx × ny × nz` grid, returned as CSR over `nx·ny·nz` rows. This is the
/// matrix shape HPCG's spmv/symgs/cg operate on.
///
/// Rows are emitted in order, and each row's columns in `(z, y, x)` order,
/// which is ascending column order: the CSR is written directly, already
/// sorted.
pub fn stencil27(nx: u32, ny: u32, nz: u32) -> Csr {
    let n = nx * ny * nz;
    let mut offsets = Vec::with_capacity(n as usize + 1);
    let mut edges = Vec::with_capacity(n as usize * 27);
    offsets.push(0);
    // The in-grid neighbours of `i` along an axis of length `len`.
    let span = |i: u32, len: u32| i.saturating_sub(1)..(i + 2).min(len);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                for zz in span(z, nz) {
                    for yy in span(y, ny) {
                        edges.extend(span(x, nx).map(|xx| (zz * ny + yy) * nx + xx));
                    }
                }
                offsets.push(edges.len() as u32);
            }
        }
    }
    Csr { offsets, edges }
}

/// The float sampler and pair-list code the generators replaced, kept
/// as oracles: the generators must build the same graphs bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Uniform `f64` in `[0, 1)` from the top 53 bits of a draw.
    fn gen_f64(rng: &mut SimRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// [`super::rmat`] sampled through a three-way float branch chain per
    /// level, folded with `%`; the corrections after sampling are shared.
    pub fn rmat(n: u32, m: u64, seed: u64, (a, b, c): (f64, f64, f64)) -> Csr {
        assert!(n >= 2);
        assert!(a + b + c < 1.0);
        let scale = 32 - (n - 1).leading_zeros();
        let side = 1u64 << scale;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m as usize);
        while (edges.len() as u64) < m {
            let (mut x, mut y) = (0u64, 0u64);
            let mut half = side / 2;
            while half > 0 {
                let r: f64 = gen_f64(&mut rng);
                if r < a {
                    // top-left: nothing to add
                } else if r < a + b {
                    y += half;
                } else if r < a + b + c {
                    x += half;
                } else {
                    x += half;
                    y += half;
                }
                half /= 2;
            }
            let s = (x % n as u64) as u32;
            let d = (y % n as u64) as u32;
            if s != d {
                edges.push((s, d));
            }
        }
        cap_and_shuffle(n, edges, rng)
    }

    /// [`super::webby`] deciding locality with a float comparison.
    pub fn webby(n: u32, m: u64, host_size: u32, local_fraction: f64, seed: u64) -> Csr {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m as usize);
        while (edges.len() as u64) < m {
            let s = rng.gen_range_u32(0, n);
            let d = if gen_f64(&mut rng) < local_fraction {
                let lo = s / host_size * host_size;
                rng.gen_range_u32(lo, (lo + host_size).min(n))
            } else {
                rng.gen_range_u32(0, n)
            };
            if s != d {
                edges.push((s, d));
            }
        }
        Csr::from_edges(n, &edges)
    }

    /// [`super::stencil27`] as a pair list built by [`Csr::from_edges`].
    pub fn stencil27(nx: u32, ny: u32, nz: u32) -> Csr {
        let n = nx * ny * nz;
        let mut edges = Vec::with_capacity(n as usize * 27);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let row = (z * ny + y) * nx + x;
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                                if xx < 0
                                    || yy < 0
                                    || zz < 0
                                    || xx >= nx as i64
                                    || yy >= ny as i64
                                    || zz >= nz as i64
                                {
                                    continue;
                                }
                                let col = ((zz as u32 * ny + yy as u32) * nx) + xx as u32;
                                edges.push((row, col));
                            }
                        }
                    }
                }
            }
        }
        Csr::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A probability in `[lo, hi)`: uniform, `lo`, or an exact dyadic
    /// `k·2^-53`, where a draw can land on the threshold itself.
    struct Probability(f64, f64);

    impl Strategy for Probability {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (self.0, self.1);
            let one = (1u64 << 53) as f64;
            match rng.index(3) {
                0 => lo + rng.next_f64() * (hi - lo),
                1 => lo,
                _ => {
                    ((lo * one).ceil() + ((rng.next_u64() >> 11) as f64 * (hi - lo)).floor()) / one
                }
            }
        }
    }

    proptest! {
        #[test]
        fn rmat_matches_the_float_sampler(
            n in 2u32..5000,
            m in 0u64..3000,
            seed in any::<u64>(),
            // b > 0 keeps x ≠ y reachable: with b = c = 0 every edge is a
            // self-loop, which `rmat` rejects and the oracle draws forever.
            (a, b, c) in (Probability(0.0, 0.6), Probability(0.05, 0.2), Probability(0.0, 0.2)),
        ) {
            prop_assert_eq!(rmat(n, m, seed, (a, b, c)), oracle::rmat(n, m, seed, (a, b, c)));
        }

        #[test]
        fn webby_matches_the_float_sampler(
            n in 2u32..5000,
            m in 0u64..3000,
            host in 2u32..40,
            local in Probability(0.0, 1.0),
            seed in any::<u64>(),
        ) {
            prop_assert_eq!(
                webby(n, m, host, local, seed),
                oracle::webby(n, m, host, local, seed)
            );
        }

        #[test]
        fn stencil27_matches_the_pair_list(nx in 1u32..7, ny in 1u32..7, nz in 1u32..7) {
            prop_assert_eq!(stencil27(nx, ny, nz), oracle::stencil27(nx, ny, nz));
        }
    }

    #[test]
    fn uniform_has_requested_size_and_is_deterministic() {
        let g1 = uniform(100, 1000, 7);
        let g2 = uniform(100, 1000, 7);
        assert_eq!(g1, g2);
        assert_eq!(g1.n(), 100);
        assert_eq!(g1.m(), 1000);
        assert_ne!(uniform(100, 1000, 8), g1);
    }

    #[test]
    fn rmat_is_skewed_with_realistic_hub_sizes() {
        let n = 1u32 << 14;
        let g = rmat(n, 16 * n as u64, 3, (0.57, 0.19, 0.19));
        let mut degrees: Vec<u32> = (0..g.n()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();
        let top1pct: u64 = degrees[..degrees.len() / 100]
            .iter()
            .map(|&d| d as u64)
            .sum();
        assert!(
            top1pct * 100 / total >= 5,
            "top 1% of vertices should hold ≫1% of edges (got {}%)",
            top1pct * 100 / total
        );
        // More skewed than a uniform graph...
        let u = uniform(n, 16 * n as u64, 3);
        let mut ud: Vec<u32> = (0..u.n()).map(|v| u.degree(v)).collect();
        ud.sort_unstable_by(|a, b| b.cmp(a));
        let utop: u64 = ud[..ud.len() / 100].iter().map(|&d| d as u64).sum();
        assert!(top1pct > utop * 2);
        // ...but with hubs capped at the relative size real social graphs
        // show (max degree ≈ 1% of n, not >10%).
        assert!(degrees[0] <= n / 64, "max degree {} too large", degrees[0]);
        // And hub ids scattered, not clustered at the low end.
        let avg = (total / n as u64) as u32;
        let hub_ids: Vec<u32> = (0..g.n()).filter(|&v| g.degree(v) > 4 * avg).collect();
        if hub_ids.len() >= 8 {
            let mean_id: u64 =
                hub_ids.iter().map(|&v| v as u64).sum::<u64>() / hub_ids.len() as u64;
            assert!(
                (mean_id as i64 - n as i64 / 2).unsigned_abs() < n as u64 / 4,
                "hub ids should be scattered (mean id {mean_id})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rmat: b = 0 and c = 0 leave no draw that is not a self-loop")]
    fn rmat_without_b_or_c_quadrants_is_rejected() {
        rmat(64, 10, 1, (0.5, 0.0, 0.0));
    }

    #[test]
    #[should_panic(
        expected = "webby: host_size = 1 and local_fraction = 1 leave no draw that is not a self-loop"
    )]
    fn webby_with_one_vertex_hosts_and_only_local_links_is_rejected() {
        webby(64, 10, 1, 1.0, 1);
    }

    #[test]
    fn webby_is_mostly_local() {
        let host = 64;
        let g = webby(4096, 40_000, host, 0.9, 11);
        let mut local = 0u64;
        for v in 0..g.n() {
            for &w in g.neighbors(v) {
                if w / host == v / host {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / g.m() as f64;
        assert!(frac > 0.8, "local fraction {frac}");
    }

    #[test]
    fn stencil_interior_rows_have_27_entries() {
        let g = stencil27(5, 5, 5);
        assert_eq!(g.n(), 125);
        // Center vertex (2,2,2) has a full 27-point neighbourhood.
        let center = (2 * 5 + 2) * 5 + 2;
        assert_eq!(g.degree(center), 27);
        // Corner has 8.
        assert_eq!(g.degree(0), 8);
    }
}
