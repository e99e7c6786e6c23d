//! Simulated virtual address space.
//!
//! Workloads allocate their data structures here and read/write through it,
//! so the values a prefetcher observes on a prefetch fill (e.g. the indices
//! Prodigy reads to chase an indirection) are bit-accurate with what the
//! algorithm actually computed. Memory is stored as sparse 4 KB pages;
//! untouched memory reads as zero, as freshly-mapped anonymous pages do.

use crate::fxhash::FxBuildHasher;
use std::collections::HashMap;

/// Page size in bytes (4 KB, also the TLB translation granule).
pub const PAGE_BYTES: u64 = 4096;

const PAGE_SHIFT: u32 = 12;
const PAGE_MASK: u64 = PAGE_BYTES - 1;

/// Which memory tier backs an address: local DRAM or the far pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Local DRAM (the hot tier; the default for every address).
    Near,
    /// Far-memory pool (the cold tier; only addresses inside a marked
    /// range).
    Far,
}

/// Range-granular hot/cold placement map: half-open `[lo, hi)` byte ranges
/// marked cold (far tier); everything else is near. An empty map — the
/// default — is the single-tier machine.
///
/// Placement is metadata only: it never changes where data lives in the
/// [`AddressSpace`] or what values reads observe, so marking ranges on a
/// machine without a far tier configured is a no-op for simulated results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierMap {
    cold: Vec<(u64, u64)>,
}

impl TierMap {
    /// Marks `[lo, hi)` as cold (backed by the far tier).
    ///
    /// # Panics
    /// Panics on an empty or inverted range.
    pub fn mark_far(&mut self, lo: u64, hi: u64) {
        assert!(lo < hi, "cold range must be non-empty: {lo:#x}..{hi:#x}");
        self.cold.push((lo, hi));
    }

    /// The tier backing `addr` (near unless inside a cold range).
    #[inline]
    pub fn tier_of(&self, addr: u64) -> Tier {
        // Linear scan, same shape as the LLC-miss classifier's range check:
        // workloads mark a handful of arrays, never thousands.
        for &(lo, hi) in &self.cold {
            if addr >= lo && addr < hi {
                return Tier::Far;
            }
        }
        Tier::Near
    }

    /// Whether any range is marked cold.
    pub fn is_empty(&self) -> bool {
        self.cold.is_empty()
    }

    /// The cold `[lo, hi)` ranges, in marking order.
    pub fn far_ranges(&self) -> &[(u64, u64)] {
        &self.cold
    }
}

/// A sparse, paged, byte-addressable simulated memory with a bump allocator.
///
/// Hot-path note: the page table is keyed with the fast local hasher
/// ([`crate::fxhash`]) and multi-byte accesses resolve their page **once**
/// and copy word-wise — a page-straddling access (rare: all workload arrays
/// are element-aligned) falls back to the byte loop. Page iteration order is
/// never observed, so the hasher choice cannot affect any simulated result.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pages: HashMap<u64, Box<[u8; PAGE_BYTES as usize]>, FxBuildHasher>,
    brk: u64,
    tiers: TierMap,
}

impl AddressSpace {
    /// Creates an empty address space. Allocations start at 64 MB to keep
    /// null-ish addresses invalid, as a real process layout would.
    pub fn new() -> Self {
        AddressSpace {
            pages: HashMap::default(),
            brk: 0x0400_0000,
            tiers: TierMap::default(),
        }
    }

    /// Marks `[lo, hi)` as cold — backed by the far-memory tier when one is
    /// configured. Metadata only: values stored there are unaffected.
    pub fn mark_far(&mut self, lo: u64, hi: u64) {
        self.tiers.mark_far(lo, hi);
    }

    /// The tier backing `addr` under the current placement map.
    #[inline]
    pub fn tier_of(&self, addr: u64) -> Tier {
        self.tiers.tier_of(addr)
    }

    /// The hot/cold placement map accumulated by allocations so far.
    pub fn tier_map(&self) -> &TierMap {
        &self.tiers
    }

    /// Allocates `size` bytes aligned to `align` and returns the base
    /// address. The allocator never reuses freed memory (workload lifetimes
    /// here are whole-run).
    ///
    /// # Panics
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + size.max(1);
        base
    }

    /// Bytes of memory actually touched (pages materialised × page size).
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES as usize]));
        page[(addr & PAGE_MASK) as usize] = v;
    }

    /// Reads a little-endian unsigned integer of `size` ∈ {1, 2, 4, 8} bytes.
    ///
    /// # Panics
    /// Panics if `size` is not 1, 2, 4, or 8.
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u8) -> u64 {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported read size {size}"
        );
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_BYTES as usize {
            // Common case: the access sits inside one page — one map lookup,
            // one word copy.
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..size as usize].copy_from_slice(&p[off..off + size as usize]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..size as u64 {
                v |= (self.read_u8(addr + i) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes a little-endian unsigned integer of `size` ∈ {1, 2, 4, 8} bytes.
    ///
    /// # Panics
    /// Panics if `size` is not 1, 2, 4, or 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, v: u64, size: u8) {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported write size {size}"
        );
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_BYTES as usize {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES as usize]));
            page[off..off + size as usize].copy_from_slice(&v.to_le_bytes()[..size as usize]);
        } else {
            for i in 0..size as u64 {
                self.write_u8(addr + i, (v >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a `u32` (the element type of most CSR structures here).
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_uint(addr, v as u64, 4);
    }

    /// Reads an `f64` stored via [`AddressSpace::write_f64`].
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_uint(addr, 8))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_uint(addr, v.to_bits(), 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let a = AddressSpace::new();
        assert_eq!(a.read_u8(0xdead_beef), 0);
        assert_eq!(a.read_uint(0x1234_5678, 8), 0);
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut a = AddressSpace::new();
        let addr = 2 * PAGE_BYTES - 3; // straddles two pages
        a.write_uint(addr, 0x1122_3344_5566_7788, 8);
        assert_eq!(a.read_uint(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(a.read_u8(addr), 0x88);
    }

    #[test]
    fn straddling_reads_and_writes_match_byte_composition() {
        // The byte-loop fallback must agree with the fast path for every
        // supported size at every offset that crosses the page boundary.
        let mut a = AddressSpace::new();
        let boundary = 7 * PAGE_BYTES;
        for size in [2u8, 4, 8] {
            for back in 1..size as u64 {
                let addr = boundary - back;
                let v = 0x8877_6655_4433_2211u64 & (u64::MAX >> (64 - 8 * size as u32));
                a.write_uint(addr, v, size);
                assert_eq!(a.read_uint(addr, size), v, "size {size} back {back}");
                for i in 0..size as u64 {
                    assert_eq!(a.read_u8(addr + i), (v >> (8 * i)) as u8);
                }
            }
        }
    }

    #[test]
    fn tier_map_defaults_near_and_marks_far_ranges() {
        let mut a = AddressSpace::new();
        assert!(a.tier_map().is_empty());
        assert_eq!(a.tier_of(0x1234), Tier::Near);
        a.mark_far(0x8000, 0x9000);
        assert_eq!(a.tier_of(0x7fff), Tier::Near);
        assert_eq!(a.tier_of(0x8000), Tier::Far);
        assert_eq!(a.tier_of(0x8fff), Tier::Far);
        assert_eq!(a.tier_of(0x9000), Tier::Near, "ranges are half-open");
        assert_eq!(a.tier_map().far_ranges(), &[(0x8000, 0x9000)]);
    }

    #[test]
    fn straddling_access_across_a_tier_boundary_is_value_transparent() {
        // A write straddling two pages where the second page is cold must
        // round-trip exactly: placement is metadata, not storage.
        let mut a = AddressSpace::new();
        let boundary = 4 * PAGE_BYTES;
        a.mark_far(boundary, boundary + PAGE_BYTES);
        let addr = boundary - 3; // bytes 0..3 hot, bytes 3..8 cold
        a.write_uint(addr, 0xa1b2_c3d4_e5f6_0718, 8);
        assert_eq!(a.read_uint(addr, 8), 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(a.tier_of(addr), Tier::Near);
        assert_eq!(a.tier_of(addr + 7), Tier::Far);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_cold_range_rejected() {
        AddressSpace::new().mark_far(0x1000, 0x1000);
    }

    #[test]
    fn alloc_respects_alignment_and_monotonicity() {
        let mut a = AddressSpace::new();
        let x = a.alloc(100, 64);
        let y = a.alloc(8, 4096);
        assert_eq!(x % 64, 0);
        assert_eq!(y % 4096, 0);
        assert!(y >= x + 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alloc_rejects_bad_alignment() {
        AddressSpace::new().alloc(8, 3);
    }

    #[test]
    fn f64_roundtrip() {
        let mut a = AddressSpace::new();
        a.write_f64(0x5000_0000, 0.15 / 7.0);
        assert_eq!(a.read_f64(0x5000_0000), 0.15 / 7.0);
    }

    #[test]
    fn resident_tracks_touched_pages_only() {
        let mut a = AddressSpace::new();
        let base = a.alloc(10 * PAGE_BYTES, PAGE_BYTES);
        assert_eq!(a.resident_bytes(), 0); // allocation alone touches nothing
        a.write_u8(base, 1);
        a.write_u8(base + 5 * PAGE_BYTES, 1);
        assert_eq!(a.resident_bytes(), 2 * PAGE_BYTES);
    }
}
