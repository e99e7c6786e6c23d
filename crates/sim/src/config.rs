//! System configuration mirroring Table I of the paper, with a scaling knob.
//!
//! The paper simulates 8 out-of-order cores with 32 KB L1D / 256 KB L2
//! private caches and a shared 2 MB-per-slice L3 over real graphs hundreds of
//! megabytes large. Simulating those footprints is unnecessary to reproduce
//! the paper's *shape*: what matters is the ratio of working-set size to LLC
//! capacity (Table II reports 16×–969×). [`SystemConfig::scaled`] shrinks all
//! cache capacities by a factor while data-set generators in
//! `prodigy-workloads` shrink data proportionally, preserving those ratios.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (per core for private levels, per slice for L3).
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Data access latency in cycles (Table I "data access latency").
    pub data_latency: u64,
    /// Tag access latency in cycles, paid on the lookup path of misses.
    pub tag_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by capacity, associativity and the line size.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into at least one set.
    pub fn sets(&self) -> u64 {
        let lines = self.capacity / crate::LINE_BYTES;
        assert!(
            lines >= self.ways as u64,
            "cache too small for its associativity: {self:?}"
        );
        (lines / self.ways as u64).max(1)
    }

    fn scaled(mut self, factor: u64) -> Self {
        let min = crate::LINE_BYTES * self.ways as u64;
        self.capacity = (self.capacity / factor).max(min);
        self
    }
}

/// Core microarchitecture parameters (Table I, "Core").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/issue width in instructions per cycle (paper: 4).
    pub width: u32,
    /// Reorder-buffer entries (paper: 128).
    pub rob: u32,
    /// Load-queue entries (paper: 48).
    pub load_queue: u32,
    /// Store-queue entries (paper: 32).
    pub store_queue: u32,
    /// Branch mispredict front-end redirect penalty in cycles.
    pub mispredict_penalty: u64,
    /// Clock frequency in Hz (paper: 2.66 GHz); used only by the energy model
    /// to convert cycles to seconds.
    pub frequency_hz: u64,
}

/// DRAM / memory-controller parameters (Table I, "Main Memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Uncontended access latency in cycles (paper: 120).
    pub access_latency: u64,
    /// Independent channels; requests hash across them.
    pub channels: u32,
    /// Cycles a channel is occupied per 64 B transfer. Together with
    /// `channels` and the clock this sets peak bandwidth (§VI-F discusses a
    /// 100 GB/s limit; 8 channels × 64 B / 13 cycles ≈ 105 GB/s at 2.66 GHz).
    pub cycles_per_transfer: u64,
}

impl DramConfig {
    /// A controller `k`× slower: latency and per-transfer occupancy scaled
    /// by `k`, the channel count carried over. This derives a far-memory
    /// (CXL-style remote pool) tier from the local DRAM numbers; `k = 1` is
    /// a pool exactly as fast as DRAM, which isolates the routing overhead
    /// (it must be zero).
    pub fn scaled(&self, k: u64) -> Self {
        assert!(k >= 1, "far latency scale must be >= 1");
        DramConfig {
            access_latency: self.access_latency * k,
            channels: self.channels,
            cycles_per_transfer: self.cycles_per_transfer * k,
        }
    }
}

/// Full system configuration (Table I plus prefetcher-neutral knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (paper: 8; at most
    /// [`crate::mem::coherence::Directory::MAX_CORES`]).
    pub cores: u32,
    /// Core parameters.
    pub core: CoreConfig,
    /// Private L1 data cache, per core.
    pub l1d: CacheConfig,
    /// Private L2, per core.
    pub l2: CacheConfig,
    /// Shared L3; `l3.capacity` is *per slice*.
    pub l3: CacheConfig,
    /// Number of L3 slices (banks). Table I pairs 8 cores with 8 slices, but
    /// the two are distinct knobs: a single-core run still spreads lines over
    /// all slices, keeping bank-queueing statistics meaningful.
    pub l3_slices: u32,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Optional far-memory tier: lines whose address ranges are marked cold
    /// in the address-space tier map fill from this second controller
    /// instead of local DRAM. `None` (the default everywhere) models the
    /// single-tier Table I machine; simulated results are then
    /// byte-identical to a build without the tier model at all.
    pub far: Option<DramConfig>,
    /// Demand-miss MSHRs per core (outstanding L1D misses).
    pub mshrs: u32,
    /// Data TLB entries (fully modelled as set-associative, 4-way).
    pub tlb_entries: u32,
    /// TLB miss page-walk latency in cycles.
    pub tlb_miss_latency: u64,
    /// Scale factor this config was derived with (1 = paper-sized caches).
    pub scale: u64,
}

impl SystemConfig {
    /// The paper's Table I configuration, unscaled.
    pub fn paper() -> Self {
        SystemConfig {
            cores: 8,
            core: CoreConfig {
                width: 4,
                rob: 128,
                load_queue: 48,
                store_queue: 32,
                mispredict_penalty: 15,
                frequency_hz: 2_660_000_000,
            },
            l1d: CacheConfig {
                capacity: 32 * 1024,
                ways: 4,
                data_latency: 2,
                tag_latency: 1,
            },
            l2: CacheConfig {
                capacity: 256 * 1024,
                ways: 8,
                data_latency: 4,
                tag_latency: 1,
            },
            l3: CacheConfig {
                capacity: 2 * 1024 * 1024,
                ways: 16,
                data_latency: 27,
                tag_latency: 8,
            },
            l3_slices: 8,
            dram: DramConfig {
                access_latency: 120,
                channels: 8,
                cycles_per_transfer: 13,
            },
            far: None,
            mshrs: 10,
            tlb_entries: 64,
            tlb_miss_latency: 35,
            scale: 1,
        }
    }

    /// Table I scaled down: every cache capacity divided by `factor`
    /// (clamped so each level keeps at least one full set). Latencies,
    /// associativities and core parameters are unchanged, so CPI-stack
    /// behaviour is preserved as long as data sets shrink by the same factor.
    ///
    /// # Panics
    ///
    /// If `factor` is not a nonzero power of two: any other factor leaves
    /// a cache with a set count that is not a power of two (and, for 3,
    /// a TLB of 21 entries), which [`crate::MemorySystem::new`] cannot
    /// build.
    pub fn scaled(factor: u64) -> Self {
        assert!(
            factor.is_power_of_two(),
            "cache scale factor {factor} must be a nonzero power of two"
        );
        let p = Self::paper();
        SystemConfig {
            l1d: p.l1d.scaled(factor),
            l2: p.l2.scaled(factor),
            l3: p.l3.scaled(factor),
            tlb_entries: ((p.tlb_entries as u64 / factor.min(8)).max(8)) as u32,
            scale: factor,
            ..p
        }
    }

    /// The benchmark configuration: capacities shrunk *differentially* so
    /// the paper's governing ratios survive scaling —
    ///
    /// * data-set footprint ≫ LLC (Table II: 16×–969×): the LLC shrinks 16×
    ///   while the synthetic data sets shrink ~50×, so working sets still
    ///   dwarf it;
    /// * prefetcher in-flight working set ≪ private caches and ≪ LLC
    ///   (the paper's look-ahead holds tens of KB against a 32 KB L1 /
    ///   16 MB LLC): the L1D and L2 shrink only 4×.
    ///
    /// Latencies, widths and the core model are untouched.
    pub fn bench() -> Self {
        let p = Self::paper();
        SystemConfig {
            l1d: p.l1d.scaled(2), // 16 KB (prefetch bursts must fit, as in the paper)
            l2: p.l2.scaled(8),   // 32 KB
            l3: p.l3.scaled(32),  // 64 KB/slice → 512 KB LLC at 8 cores
            tlb_entries: 32,
            scale: 32,
            ..p
        }
    }

    /// Returns a copy with a different core count. The shared L3 topology
    /// (`l3_slices`) is deliberately *not* coupled to the core count: a
    /// single-core run of the Table I machine still has an 8-slice LLC.
    pub fn with_cores(mut self, cores: u32) -> Self {
        assert!(cores >= 1, "need at least one core");
        self.cores = cores;
        self
    }

    /// Returns a copy with a far-memory tier whose latency and occupancy
    /// are `far_latency_scale`× the DRAM numbers (see
    /// [`DramConfig::scaled`]).
    pub fn with_far_scale(mut self, far_latency_scale: u64) -> Self {
        self.far = Some(self.dram.scaled(far_latency_scale));
        self
    }

    /// Total shared LLC capacity in bytes (slice size × number of slices).
    pub fn llc_capacity(&self) -> u64 {
        self.l3.capacity * self.l3_slices as u64
    }
}

impl Default for SystemConfig {
    /// Default is the scaled-by-32 configuration used by the test suite.
    fn default() -> Self {
        Self::scaled(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.cores, 8);
        assert_eq!(c.core.width, 4);
        assert_eq!(c.core.rob, 128);
        assert_eq!(c.l1d.capacity, 32 * 1024);
        assert_eq!(c.l2.capacity, 256 * 1024);
        assert_eq!(c.l3.capacity, 2 * 1024 * 1024);
        assert_eq!(c.dram.access_latency, 120);
        assert_eq!(c.llc_capacity(), 16 * 1024 * 1024);
    }

    #[test]
    fn set_counts_are_powers_of_structure() {
        let c = SystemConfig::paper();
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 2048);
    }

    #[test]
    fn scaling_preserves_associativity_and_floors_capacity() {
        let c = SystemConfig::scaled(1 << 20);
        assert_eq!(c.l1d.ways, 4);
        assert_eq!(c.l1d.capacity, crate::LINE_BYTES * 4);
        assert_eq!(c.l1d.sets(), 1);
    }

    #[test]
    fn scaled_by_one_is_paper() {
        assert_eq!(SystemConfig::scaled(1), SystemConfig::paper());
    }

    #[test]
    fn llc_total_follows_slices_not_cores() {
        // Dropping the core count must not shrink the shared LLC: the
        // Table I machine keeps its 8 × 2 MB slices however many cores run.
        let c = SystemConfig::paper().with_cores(1);
        assert_eq!(c.llc_capacity(), 16 * 1024 * 1024);
        let c = SystemConfig {
            l3_slices: 4,
            ..SystemConfig::paper()
        };
        assert_eq!(c.llc_capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn far_scale_multiplies_latency_and_occupancy() {
        let c = SystemConfig::paper().with_far_scale(4);
        let f = c.far.expect("far tier configured");
        assert_eq!(f.access_latency, 480);
        assert_eq!(f.cycles_per_transfer, 52);
        assert_eq!(f.channels, c.dram.channels);
        // The default machine has no far tier at all.
        assert_eq!(SystemConfig::paper().far, None);
        assert_eq!(SystemConfig::bench().far, None);
    }

    #[test]
    #[should_panic(expected = "scale must be >= 1")]
    fn zero_far_scale_rejected() {
        let _ = SystemConfig::paper().with_far_scale(0);
    }

    #[test]
    #[should_panic(expected = "cache scale factor 3 must be a nonzero power of two")]
    fn non_power_of_two_scale_rejected() {
        let _ = SystemConfig::scaled(3);
    }

    #[test]
    #[should_panic(expected = "cache scale factor 0 must be a nonzero power of two")]
    fn zero_scale_rejected() {
        let _ = SystemConfig::scaled(0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SystemConfig::paper().with_cores(0);
    }
}
