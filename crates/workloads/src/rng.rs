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

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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

    #[test]
    fn f64_in_unit_interval_and_well_spread() {
        let mut r = SimRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
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
