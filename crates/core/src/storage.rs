//! Hardware storage accounting (paper §VI-E).
//!
//! The paper assumes 48-bit physical / 64-bit virtual addresses and
//! conservatively sizes 16-entry DIG tables plus 16 PFHRs, arriving at
//! ≈ 0.53 KB of DIG storage + 0.26 KB of PFHRs ≈ **0.8 KB** total. The
//! functions here reproduce that arithmetic from a [`ProdigyConfig`], so the
//! overhead table in the benchmarks is computed, not hard-coded.

use crate::prefetcher::ProdigyConfig;
use crate::tables::{EDGE_TABLE_ENTRIES, NODE_TABLE_ENTRIES};

/// Virtual address width assumed by the paper.
pub const VADDR_BITS: u64 = 64;
/// Physical address width assumed by the paper.
pub const PADDR_BITS: u64 = 48;
/// log2(line size): low bits dropped from line-aligned physical addresses.
pub const LINE_SHIFT: u64 = 6;

/// Bits of one node-table row: node id + base + bound (virtual) + data size
/// + trigger flag.
pub fn node_entry_bits() -> u64 {
    4 + VADDR_BITS + VADDR_BITS + 8 + 1
}

/// Bits of one edge-table row: source/destination base addresses (virtual)
/// + 2-bit edge type.
pub fn edge_entry_bits() -> u64 {
    VADDR_BITS + VADDR_BITS + 2
}

/// Bits of one edge-index-table row: first-edge pointer + count.
pub fn edge_index_entry_bits() -> u64 {
    4 + 4
}

/// Bits of one PFHR: free bit + node id + trigger address (virtual) +
/// outstanding line-aligned physical address + 16-bit offset bitmap, plus
/// the ranged-stream continuation this reproduction adds (next line-aligned
/// address + 14-bit remaining-length) — 56 bits over the paper's field
/// list, taking the total from the paper's 0.8 KB to ≈0.9 KB.
pub fn pfhr_entry_bits() -> u64 {
    1 + 4 + VADDR_BITS + (PADDR_BITS - LINE_SHIFT) + 16 + ((PADDR_BITS - LINE_SHIFT) + 14)
}

/// Total DIG-table bits: every node-table row with its edge-index row,
/// plus every edge-table row.
pub fn dig_table_bits() -> u64 {
    NODE_TABLE_ENTRIES as u64 * (node_entry_bits() + edge_index_entry_bits())
        + EDGE_TABLE_ENTRIES as u64 * edge_entry_bits()
}

/// Total PFHR-file bits.
pub fn pfhr_bits(cfg: &ProdigyConfig) -> u64 {
    cfg.pfhr_entries as u64 * pfhr_entry_bits()
}

/// Total prefetcher storage in bits.
pub fn total_bits(cfg: &ProdigyConfig) -> u64 {
    dig_table_bits() + pfhr_bits(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_papers_point_eight_kb() {
        let cfg = ProdigyConfig::default();
        let dig_kb = dig_table_bits() as f64 / 8.0 / 1024.0;
        let pfhr_kb = pfhr_bits(&cfg) as f64 / 8.0 / 1024.0;
        // Paper: DIG tables 0.53 KB, PFHRs 0.26 KB, total 0.8 KB. Our PFHRs
        // carry 56 extra continuation bits each (see pfhr_entry_bits),
        // taking the total to ≈0.9 KB.
        assert!((0.4..0.6).contains(&dig_kb), "DIG tables: {dig_kb} KB");
        assert!((0.25..0.40).contains(&pfhr_kb), "PFHRs: {pfhr_kb} KB");
        let total = total_bits(&cfg) as f64 / 8.0 / 1024.0;
        assert!((0.8..1.0).contains(&total), "total: {total} KB");
    }

    #[test]
    fn storage_scales_with_pfhr_count() {
        let small = ProdigyConfig {
            pfhr_entries: 4,
            ..ProdigyConfig::default()
        };
        let big = ProdigyConfig {
            pfhr_entries: 32,
            ..ProdigyConfig::default()
        };
        assert_eq!(pfhr_bits(&big) - pfhr_bits(&small), 28 * pfhr_entry_bits());
        assert!(total_bits(&big) > total_bits(&small));
    }
}
