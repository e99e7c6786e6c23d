//! A fast, deterministic hasher for hot-path `u64`-keyed maps.
//!
//! The standard library's default `SipHash` costs tens of nanoseconds per
//! lookup — measurable on the simulator hot path, where every simulated
//! memory byte-op and every prefetch tag touches a `HashMap`. This is the
//! classic multiply-rotate scheme (the `rustc-hash` construction) written
//! out locally because the offline build vendors no third-party crates.
//!
//! Only safe for maps whose **iteration order is never observed**: the
//! [`crate::AddressSpace`] page table (iterated only for `len()`), the
//! telemetry pending-tag table (pure insert/remove) and
//! [`crate::core::StreamBuilder`]'s site-to-template map (pure
//! lookup/insert). Anything serialized or
//! iterated for output must stay on `BTreeMap` — see `telemetry.rs`'s
//! `AttributionTable`.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` state plug: `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher itself; one `wrapping_mul` per written word.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u64-keyed hot maps): fold bytes
        // into words.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        let mut m: HashMap<u64, u64, FxBuildHasher> = HashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 4096, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let h = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn byte_fallback_covers_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
