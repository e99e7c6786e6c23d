//! Deterministic, dependency-free PRNG for workload/data-set generation.
//!
//! The build environment has no registry access, so the `rand` crate is
//! unavailable; this SplitMix64 generator replaces `StdRng` everywhere the
//! workloads crate needs randomness. SplitMix64 passes BigCrush, is
//! trivially seedable from a `u64`, and — the property the evaluation grid
//! actually depends on — is *stable*: the same seed produces the same
//! sequence on every platform and every build, so workload checksums are
//! reproducible across serial and parallel sweeps.

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 has no weak states.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The integer form of the probability `p`: `ceil(p · 2^53)`, clamped
    /// to `0..=2^53` (0 for NaN). A draw `r` of [`SimRng::next_u53`] falls
    /// below it exactly when the uniform `f64` `r · 2^-53` is below `p`:
    /// `r · 2^-53` and `p · 2^53` are exact, and an integer is below a real
    /// exactly when it is below that real's ceiling.
    pub fn threshold(p: f64) -> u64 {
        const ONE: u64 = 1 << 53;
        if p >= 1.0 {
            ONE
        } else if p > 0.0 {
            (p * ONE as f64).ceil() as u64
        } else {
            0
        }
    }

    /// The top 53 bits of the next draw: uniform in `0..2^53`.
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform `u32` in the half-open range `[lo, hi)`. Uses Lemire's
    /// multiply-shift reduction (biased by < 2^-32, far below anything the
    /// generators can observe).
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + (((self.next_u64() >> 32) * span) >> 32) as u32
    }

    /// Uniform index in `[0, n)`, for slice/permutation indexing.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    /// The float decision the thresholds replace: a uniform `f64` in
    /// `[0, 1)` built from draw `r`, compared with `p`.
    fn float_below(r: u64, p: f64) -> bool {
        (r as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    #[test]
    fn threshold_decides_exactly_like_the_float_comparison() {
        const ONE: u64 = 1 << 53;
        let dyadic = |k: u64| k as f64 / ONE as f64;
        let mut ps = vec![
            0.0,
            -0.0,
            1.0,
            1.5,
            f64::INFINITY,
            -1e-300,
            -0.25,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            0.57,
            0.57 + 0.19,
            0.57 + 0.19 + 0.19,
            0.85,
            1.0 - f64::EPSILON / 2.0,
        ];
        // Exact dyadics k·2^-53, where a draw can equal the threshold, and
        // their neighbours one ulp away.
        for k in [
            1,
            2,
            3,
            1 << 20,
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            ONE - 1,
        ] {
            let p = dyadic(k);
            ps.extend([
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]);
        }
        for p in ps {
            let t = SimRng::threshold(p);
            assert!(t <= ONE, "p {p}: threshold {t}");
            // Every draw next to the threshold, plus both ends.
            let near = [
                0,
                1,
                2,
                t.saturating_sub(2),
                t.saturating_sub(1),
                t,
                t + 1,
                t + 2,
            ];
            for r in near.into_iter().chain([ONE - 2, ONE - 1]) {
                let r = r.min(ONE - 1);
                assert_eq!(r < t, float_below(r, p), "p {p:e}, draw {r}, threshold {t}");
            }
        }
        assert_eq!(SimRng::threshold(f64::NAN), 0);
        assert_eq!(SimRng::threshold(-0.5), 0);
        assert_eq!(SimRng::threshold(2.0), ONE);
        assert_eq!(SimRng::threshold(dyadic(12345)), 12345);
    }

    #[test]
    fn threshold_draws_like_the_float_sampler() {
        let p = 0.3;
        let t = SimRng::threshold(p);
        let (mut a, mut b) = (SimRng::seed_from_u64(7), SimRng::seed_from_u64(7));
        let mut hits = 0;
        for _ in 0..10_000 {
            let hit = a.next_u53() < t;
            assert_eq!(hit, float_below(b.next_u64() >> 11, p));
            hits += hit as u32;
        }
        assert!((2_800..3_200).contains(&hits), "{hits} hits at p {p}");
        assert_eq!(a.next_u64(), b.next_u64(), "one draw per decision");
    }

    #[test]
    fn ranges_cover_bounds() {
        let mut r = SimRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range_u32(0, 8) as usize] = true;
            let i = r.gen_index(8);
            assert!(i < 8);
        }
        assert!(seen.iter().all(|&s| s));
    }
}
