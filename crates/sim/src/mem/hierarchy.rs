//! The three-level inclusive cache hierarchy (Table I): private L1D and L2
//! per core, a shared sliced L3 acting as coherence directory, MSHR-limited
//! demand misses, DRAM with controller queueing, and non-binding prefetch
//! insertion with Fig.-15-style usefulness tracking.
//!
//! Timing is timestamp-based: a fill inserts its line immediately with a
//! future `ready_at`; any access arriving earlier pays the residual wait.
//! This models MSHR merges and in-flight prefetches without an event queue.

use super::address_space::{Tier, TierMap};
use super::cache::{Cache, Evicted, Line};
use super::coherence::{Directory, Mesi};
use super::dram::Dram;
use super::tlb::Tlb;
use crate::config::SystemConfig;
use crate::prefetch::FillEvent;
use crate::stats::Stats;
use crate::telemetry::{
    LevelOccupancy, OccupancySnapshot, SourceTag, TelemetrySummary, TraceEvent, TraceEventKind,
    Tracer,
};
use crate::{line_of, LINE_BYTES};

/// Which level ultimately serviced an access (used for CPI-stack
/// attribution: L2/L3 → cache-stall, DRAM → DRAM-stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// L1D hit (no stall attribution).
    L1,
    /// Serviced by the private L2.
    L2,
    /// Serviced by the shared L3 (including cache-to-cache transfers).
    L3,
    /// Serviced by DRAM (including residual waits on DRAM-bound fills).
    Dram,
}

/// Demand access flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate, RFO coherence).
    Write,
}

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles from issue to data return.
    pub latency: u64,
    /// Level that serviced the request.
    pub served: ServedBy,
}

/// The full memory system shared by all cores.
///
/// ```
/// use prodigy_sim::{AccessKind, MemorySystem, ServedBy, Stats, SystemConfig};
///
/// let mut mem = MemorySystem::new(SystemConfig::scaled(32).with_cores(1));
/// let mut stats = Stats::default();
/// let cold = mem.demand_access(0, 0x4000, AccessKind::Read, 0, &mut stats);
/// assert_eq!(cold.served, ServedBy::Dram);
/// let warm = mem.demand_access(0, 0x4000, AccessKind::Read, cold.latency + 1, &mut stats);
/// assert_eq!(warm.served, ServedBy::L1);
/// ```
pub struct MemorySystem {
    cfg: SystemConfig,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    tlb: Vec<Tlb>,
    mshr: Vec<Vec<u64>>,
    dram: Dram,
    /// Far-memory controller, present only when `cfg.far` is set. With no
    /// far tier the placement map is never consulted and every miss takes
    /// the exact pre-tier DRAM path.
    far: Option<Dram>,
    tiers: TierMap,
    /// DIG-annotated `[lo, hi)` ranges that classify LLC misses as
    /// prefetchable or other (Fig. 13/16); `None` counts neither.
    classifier: Option<Vec<(u64, u64)>>,
    tel: Tracer,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cfg", &self.cfg)
            .field("cores", &self.l1d.len())
            .field("classifier", &self.classifier.is_some())
            .finish()
    }
}

impl MemorySystem {
    /// Builds the hierarchy described by `cfg`: one private L1D/L2/TLB per
    /// core, and `cfg.l3_slices` shared L3 slices (decoupled from the core
    /// count — see [`SystemConfig::l3_slices`]).
    ///
    /// # Panics
    /// Panics if `cfg.cores` exceeds [`Directory::MAX_CORES`].
    pub fn new(cfg: SystemConfig) -> Self {
        let n = cfg.cores as usize;
        assert!(
            n <= Directory::MAX_CORES,
            "directory supports up to {} cores, got {n}",
            Directory::MAX_CORES
        );
        let slices = cfg.l3_slices as usize;
        MemorySystem {
            l1d: (0..n).map(|_| Cache::new(&cfg.l1d)).collect(),
            l2: (0..n).map(|_| Cache::new(&cfg.l2)).collect(),
            l3: (0..slices).map(|_| Cache::new(&cfg.l3)).collect(),
            tlb: (0..n).map(|_| Tlb::new(cfg.tlb_entries)).collect(),
            mshr: vec![Vec::new(); n],
            dram: Dram::new(cfg.dram),
            far: cfg.far.map(Dram::new),
            tiers: TierMap::default(),
            classifier: None,
            tel: Tracer::new(),
            cfg,
        }
    }

    /// Installs the hot/cold placement map. Only consulted on machines with
    /// a far tier configured; callers may install it unconditionally.
    pub fn set_tier_map(&mut self, map: TierMap) {
        self.tiers = map;
    }

    /// The tier that services misses to `addr` on this machine (always
    /// near without a far tier configured).
    #[inline]
    pub fn tier_of(&self, addr: u64) -> Tier {
        if self.far.is_some() {
            self.tiers.tier_of(addr)
        } else {
            Tier::Near
        }
    }

    /// Reads `line` from its tier's controller at cycle `at` and books the
    /// read: stats, the queue-wait histogram, the per-tier split (tiered
    /// machines only), the trace's backlog sample and the metrics
    /// registry's MLP and backlog gauges (backlog in pending line transfers:
    /// queueing delay over the tier's per-line transfer time). Returns the
    /// read's latency and tier.
    fn read_memory(
        &mut self,
        core: usize,
        line: u64,
        at: u64,
        demand: bool,
        stats: &mut Stats,
    ) -> (u64, Tier) {
        let tier = self.tier_of(line);
        // Far-tier channels are numbered after the DRAM channels in trace
        // samples, so single-tier traces are unchanged.
        let (ctl, first_channel, per_xfer) = match (tier, &mut self.far, &self.cfg.far) {
            (Tier::Far, Some(far), Some(f)) => (far, self.cfg.dram.channels, f.cycles_per_transfer),
            _ => (&mut self.dram, 0, self.cfg.dram.cycles_per_transfer),
        };
        let dr = ctl.read(line, at);
        let backlog = self.tel.is_tracing().then(|| ctl.queue_backlog(line, at));
        stats.dram_reads += 1;
        stats.dram_queue_cycles += dr.queue_wait;
        self.tel
            .counters_mut()
            .dram_queue_wait
            .record(dr.queue_wait);
        if self.far.is_some() {
            let split = self.tel.counters_mut().tiers_mut();
            let t = match tier {
                Tier::Near => &mut split.near,
                Tier::Far => &mut split.far,
            };
            t.queue_wait.record(dr.queue_wait);
            if demand {
                t.demand_reads += 1;
            } else {
                t.prefetch_reads += 1;
            }
        }
        if let Some((channel, backlog)) = backlog {
            self.tel.emit(|| TraceEvent {
                cycle: at,
                dur: 0,
                core: core as u32,
                kind: TraceEventKind::DramQueueSample {
                    channel: channel + first_channel,
                    backlog,
                },
            });
        }
        if let Some(m) = self.tel.metrics_mut() {
            m.observe_dram(dr.latency, dr.queue_wait / per_xfer.max(1));
        }
        (dr.latency, tier)
    }

    /// The telemetry hub: always-on counters plus the optional event buffer.
    /// Drivers start a trace here, and prefetchers reach it through
    /// [`crate::PrefetchCtx`] to emit their own events.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tel
    }

    /// The run's accumulated telemetry counters (histograms + timeliness).
    pub fn telemetry(&self) -> &TelemetrySummary {
        self.tel.counters()
    }

    /// Classifies LLC misses for Fig. 13/16 from now on: a miss inside any
    /// `[lo, hi)` range (the DIG-annotated structures) counts as
    /// prefetchable, every other miss as other.
    pub fn set_llc_miss_classifier_ranges(&mut self, ranges: Vec<(u64, u64)>) {
        self.classifier = Some(ranges);
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Residual wait on an in-flight fill: cycles remaining between the
    /// request's *arrival at this level* and the line's `ready_at`. Zero
    /// means the fill already landed — the common case, not a silent clamp.
    /// Every call site must pass the arrival time with all latency accrued
    /// so far (`now + lat`, where `lat` includes the TLB walk and each tag
    /// lookup already paid); passing bare `now` would treat in-flight lines
    /// as ready and under-charge merged accesses. Audited sites: L1 hit,
    /// L2 hit, L3 hit, prefetch-promote-from-L2, prefetch-promote-from-L3.
    #[inline]
    fn residual_wait(ready_at: u64, arrival: u64) -> u64 {
        ready_at.saturating_sub(arrival)
    }

    #[inline]
    fn slice_of(&self, line: u64) -> usize {
        ((line / LINE_BYTES) % self.cfg.l3_slices as u64) as usize
    }

    fn tlb_latency(&mut self, core: usize, vaddr: u64, now: u64, stats: &mut Stats) -> u64 {
        if self.tlb[core].access(vaddr) {
            stats.tlb_hits += 1;
            0
        } else {
            stats.tlb_misses += 1;
            self.tel.emit(|| TraceEvent {
                cycle: now,
                dur: 0,
                core: core as u32,
                kind: TraceEventKind::TlbMiss { vaddr },
            });
            self.cfg.tlb_miss_latency
        }
    }

    /// The first demand of a prefetched copy, found at `level` in `slot`:
    /// counts the use at that level, clears the line's prefetched flag at
    /// every level `core` could see it, and classifies the use timely or
    /// late, credited to the source stored with the copy that was hit.
    fn first_use(
        &mut self,
        core: usize,
        line: u64,
        level: ServedBy,
        slot: usize,
        arrival: u64,
        stats: &mut Stats,
    ) {
        let cache = match level {
            ServedBy::L1 => {
                stats.prefetch_use.hit_l1 += 1;
                &self.l1d[core]
            }
            ServedBy::L2 => {
                stats.prefetch_use.hit_l2 += 1;
                &self.l2[core]
            }
            _ => {
                stats.prefetch_use.hit_l3 += 1;
                &self.l3[self.slice_of(line)]
            }
        };
        let src = cache.source(slot);
        let l = cache.slot(slot);
        let (fill_src, ready_at) = (l.fill_src, l.ready_at);
        self.clear_prefetch_flag(core, line);
        self.tel
            .prefetch_used(core, arrival, line, fill_src, ready_at, src);
    }

    /// Books an accepted prefetch: the issue count, its source's `issued`
    /// credit and the issue→fill trace span.
    fn accepted(
        &mut self,
        core: usize,
        now: u64,
        issued: FillEvent,
        tag: Option<SourceTag>,
        stats: &mut Stats,
    ) -> Option<FillEvent> {
        stats.prefetches_issued += 1;
        self.tel.prefetch_issued(core, now, issued, tag);
        Some(issued)
    }

    /// Books a prefetch dropped before issue because its line is already
    /// in the target cache (resident or in flight).
    fn dropped(
        &mut self,
        core: usize,
        now: u64,
        line: u64,
        tag: Option<SourceTag>,
    ) -> Option<FillEvent> {
        self.tel.prefetch_dropped(core, now, line, tag);
        None
    }

    /// Clears the prefetched flag of `line` at every level it could carry it
    /// for `core` (called when the prefetch is first demanded).
    fn clear_prefetch_flag(&mut self, core: usize, line: u64) {
        if let Some(l) = self.l1d[core].peek_mut(line) {
            l.prefetched = false;
        }
        if let Some(l) = self.l2[core].peek_mut(line) {
            l.prefetched = false;
        }
        let s = self.slice_of(line);
        if let Some(l) = self.l3[s].peek_mut(line) {
            l.prefetched = false;
        }
    }

    /// Read-for-ownership: invalidate every other core's private copies of
    /// `line` and take Modified ownership in the L3 directory. Returns the
    /// added latency (zero when nobody else shares the line).
    fn rfo(&mut self, core: usize, line: u64, stats: &mut Stats) -> u64 {
        let slice = self.slice_of(line);
        // Execute-once: locate the L3 line a single time and re-access it by
        // slot. The invalidations below only touch *other* cores' private
        // caches, so the slot cannot move.
        let Some(slot) = self.l3[slice].find_slot(line) else {
            return 0;
        };
        let dir = self.l3[slice].slot_mut(slot).dir;
        let mut penalty = 0;
        let had_remote_dirty = dir.owner().map(|o| o != core).unwrap_or(false);
        for sharer in dir.sharer_iter() {
            if sharer == core {
                continue;
            }
            let mut dirty = false;
            if let Some(l) = self.l1d[sharer].invalidate(line) {
                dirty |= l.dirty;
            }
            if let Some(l) = self.l2[sharer].invalidate(line) {
                dirty |= l.dirty;
            }
            if dirty {
                // Remote dirty data is written back into the L3.
                self.l3[slice].slot_mut(slot).dirty = true;
                stats.l2.writebacks += 1;
            }
            penalty = penalty.max(self.cfg.l3.data_latency);
        }
        if had_remote_dirty {
            penalty = penalty.max(self.cfg.l3.data_latency);
        }
        let mut d = Directory::empty();
        d.set_owner(core);
        self.l3[slice].slot_mut(slot).dir = d;
        penalty
    }

    /// Handles an L1 eviction: propagate dirtiness to the (inclusive) L2.
    fn on_l1_evict(&mut self, core: usize, ev: Evicted, stats: &mut Stats) {
        if ev.dirty {
            stats.l1d.writebacks += 1;
            if let Some(l) = self.l2[core].peek_mut(ev.addr) {
                l.dirty = true;
            }
        }
        // The L2/L3 copies keep the prefetched flag, so no usefulness verdict
        // yet: the line is still resident in the hierarchy.
    }

    /// Handles an L2 eviction: back-invalidate L1 (inclusion) and propagate
    /// dirtiness to the L3.
    fn on_l2_evict(&mut self, core: usize, ev: Evicted, stats: &mut Stats) {
        let mut dirty = ev.dirty;
        if let Some(l1l) = self.l1d[core].invalidate(ev.addr) {
            dirty |= l1l.dirty;
        }
        let slice = self.slice_of(ev.addr);
        if dirty {
            stats.l2.writebacks += 1;
        }
        if let Some(l) = self.l3[slice].peek_mut(ev.addr) {
            l.dirty |= dirty;
            l.dir.remove_sharer(core);
        }
    }

    /// Handles an L3 eviction: back-invalidate every sharer's private caches
    /// (inclusion), write dirty data to DRAM, and close out the prefetch
    /// usefulness record (Fig. 15 "evicted before demanded"). The unused
    /// verdict credits the LLC copy's source when that copy is a prefetch,
    /// else the first still-prefetched private copy's (sharers in core
    /// order, L1 before L2): one credit per verdict.
    fn on_l3_evict(&mut self, ev: Evicted, now: u64, stats: &mut Stats) {
        let mut dirty = ev.dirty;
        let mut unused = ev.prefetched_unused.then_some(ev.src);
        for sharer in ev.dir.sharer_iter() {
            let l1 = self.l1d[sharer].invalidate(ev.addr);
            let l2 = self.l2[sharer].invalidate(ev.addr);
            for copy in [l1, l2].into_iter().flatten() {
                dirty |= copy.dirty;
                if copy.prefetched_unused && unused.is_none() {
                    unused = Some(copy.src);
                }
            }
        }
        if dirty {
            stats.l3.writebacks += 1;
            stats.dram_writes += 1;
            let tier = self.tier_of(ev.addr);
            match tier {
                Tier::Far => {
                    let far = self
                        .far
                        .as_mut()
                        .expect("far tier routed implies far configured");
                    far.write(ev.addr, now);
                }
                Tier::Near => self.dram.write(ev.addr, now),
            }
            if self.far.is_some() {
                let split = self.tel.counters_mut().tiers_mut();
                match tier {
                    Tier::Near => split.near.writebacks += 1,
                    Tier::Far => split.far.writebacks += 1,
                }
            }
        }
        if let Some(src) = unused {
            stats.prefetch_use.evicted_unused += 1;
            self.tel.prefetch_evicted_unused(now, ev.addr, src);
        }
    }

    fn insert_l1(&mut self, core: usize, line: Line, src: Option<SourceTag>, stats: &mut Stats) {
        if let Some(ev) = self.l1d[core].insert(line, src) {
            self.on_l1_evict(core, ev, stats);
        }
    }

    fn insert_l2(&mut self, core: usize, line: Line, src: Option<SourceTag>, stats: &mut Stats) {
        if let Some(ev) = self.l2[core].insert(line, src) {
            self.on_l2_evict(core, ev, stats);
        }
    }

    fn insert_l3(
        &mut self,
        slice: usize,
        line: Line,
        src: Option<SourceTag>,
        now: u64,
        stats: &mut Stats,
    ) {
        if let Some(ev) = self.l3[slice].insert(line, src) {
            self.on_l3_evict(ev, now, stats);
        }
    }

    /// Probes one cache's shadow victim table on a demand miss: a hit
    /// means a prefetch insert displaced this line earlier, so the miss is
    /// a pollution event credited to the evicting source. `level` is
    /// 0/1/2 for L1/L2/L3.
    #[inline]
    fn probe_victim(&mut self, level: usize, cache_idx: usize, line: u64) {
        let cache = match level {
            0 => &mut self.l1d[cache_idx],
            1 => &mut self.l2[cache_idx],
            _ => &mut self.l3[cache_idx],
        };
        if let Some(v) = cache.take_victim(line) {
            self.tel.prefetch_polluted(level, v.evictor);
        }
    }

    /// Performs a demand access by `core` at cycle `now`.
    ///
    /// Returns the latency (including TLB, residual in-flight waits, MSHR
    /// back-pressure and memory-controller queueing) and the level that
    /// serviced the request.
    pub fn demand_access(
        &mut self,
        core: usize,
        vaddr: u64,
        kind: AccessKind,
        now: u64,
        stats: &mut Stats,
    ) -> AccessResult {
        let line = line_of(vaddr);
        let write = kind == AccessKind::Write;
        let mut lat = self.tlb_latency(core, vaddr, now, stats);

        // ---- L1 ----
        if let Some(slot) = self.l1d[core].lookup_slot(vaddr) {
            let arrival = now + lat;
            let l = self.l1d[core].slot_mut(slot);
            let residual = Self::residual_wait(l.ready_at, arrival);
            let was_pf = l.prefetched;
            let fill_src = l.fill_src;
            let state = l.state;
            l.prefetched = false;
            if write {
                l.dirty = true;
                l.state = Mesi::Modified;
            }
            stats.l1d.hits += 1;
            if was_pf {
                self.first_use(core, line, ServedBy::L1, slot, arrival, stats);
            }
            let mut extra = 0;
            if write && !state.can_write_silently() {
                extra = self.rfo(core, line, stats);
            }
            let served = if residual > 0 { fill_src } else { ServedBy::L1 };
            let latency = lat + self.cfg.l1d.data_latency + residual + extra;
            self.tel
                .demand_done(core, now, latency, served, line, false);
            return AccessResult { latency, served };
        }
        stats.l1d.misses += 1;
        self.probe_victim(0, core, line);
        lat += self.cfg.l1d.tag_latency;

        // ---- demand MSHRs (loads only) ----
        //
        // The retire scan stays eager (every miss): the list is bounded by
        // the MSHR capacity, so this is an O(10) pass over a flat `u64`
        // vec. Deferring it is *not* byte-safe — scan times are not
        // monotonic across accesses (TLB hit/miss varies `lat`), so a
        // batched filter could drop entries the eager scans kept.
        if !write {
            let t = now + lat;
            self.mshr[core].retain(|&r| r > t);
            if self.mshr[core].len() >= self.cfg.mshrs as usize {
                let free_at = *self.mshr[core]
                    .iter()
                    .min()
                    .expect("mshr full implies nonempty");
                let wait = free_at.saturating_sub(t);
                lat += wait;
                let t = now + lat;
                self.mshr[core].retain(|&r| r > t);
            }
        }

        // ---- L2 ----
        if let Some(slot) = self.l2[core].lookup_slot(vaddr) {
            let arrival = now + lat;
            let l = self.l2[core].slot_mut(slot);
            let residual = Self::residual_wait(l.ready_at, arrival);
            let was_pf = l.prefetched;
            let fill_src = l.fill_src;
            let state = l.state;
            l.prefetched = false;
            stats.l2.hits += 1;
            if was_pf {
                self.first_use(core, line, ServedBy::L2, slot, arrival, stats);
            }
            let mut extra = 0;
            if write && !state.can_write_silently() {
                extra = self.rfo(core, line, stats);
            }
            lat += self.cfg.l2.data_latency + residual + extra;
            let ready = now + lat;
            let served = if residual > 0 { fill_src } else { ServedBy::L2 };
            let new_state = if write { Mesi::Modified } else { state };
            let mut fill = super::cache::demand_line(line, new_state, ready, served);
            fill.dirty = write;
            self.insert_l1(core, fill, None, stats);
            if !write {
                self.mshr[core].push(ready);
            }
            self.tel.demand_done(core, now, lat, served, line, true);
            return AccessResult {
                latency: lat,
                served,
            };
        }
        stats.l2.misses += 1;
        self.probe_victim(1, core, line);
        lat += self.cfg.l2.tag_latency;

        // ---- L3 ----
        let slice = self.slice_of(line);
        let l3_arrival = now + lat;
        if let Some(slot) = self.l3[slice].lookup_slot(vaddr) {
            // Execute-once: the line is located a single time; the directory
            // update below re-uses the slot instead of a second tag walk
            // (the intervening RFO only invalidates private caches, never
            // this L3 slice's slots).
            let (residual, was_pf, fill_src, dir) = {
                let l = self.l3[slice].slot_mut(slot);
                let residual = Self::residual_wait(l.ready_at, l3_arrival);
                let info = (residual, l.prefetched, l.fill_src, l.dir);
                l.prefetched = false;
                info
            };
            stats.l3.hits += 1;
            if was_pf {
                self.first_use(core, line, ServedBy::L3, slot, l3_arrival, stats);
            }
            // Coherence: a remote Modified owner must supply the data.
            let mut extra = 0;
            if let Some(owner) = dir.owner() {
                if owner != core {
                    extra = self.rfo(core, line, stats);
                    if !write {
                        // Read downgrade: owner could have stayed Shared, but
                        // modelling full downgrade vs invalidate changes
                        // little; we conservatively invalidated. Re-add us.
                    }
                }
            } else if write && dir.shared_by_others(core) {
                extra = self.rfo(core, line, stats);
            }
            lat += self.cfg.l3.data_latency + residual + extra;
            let ready = now + lat;
            let served = if residual > 0 { fill_src } else { ServedBy::L3 };
            {
                let l3l = self.l3[slice].slot_mut(slot);
                if write {
                    l3l.dir.set_owner(core);
                } else {
                    l3l.dir.add_sharer(core);
                }
            }
            let state = if write {
                Mesi::Modified
            } else if dir.is_empty() || !dir.shared_by_others(core) {
                Mesi::Exclusive
            } else {
                Mesi::Shared
            };
            let mut fill = super::cache::demand_line(line, state, ready, served);
            fill.dirty = write;
            self.insert_l2(core, fill, None, stats);
            self.insert_l1(core, fill, None, stats);
            if !write {
                self.mshr[core].push(ready);
            }
            self.tel.demand_done(core, now, lat, served, line, true);
            return AccessResult {
                latency: lat,
                served,
            };
        }
        stats.l3.misses += 1;
        self.probe_victim(2, slice, line);
        lat += self.cfg.l3.tag_latency;
        if let Some(ranges) = &self.classifier {
            if ranges.iter().any(|&(lo, hi)| vaddr >= lo && vaddr < hi) {
                stats.llc_misses_prefetchable += 1;
            } else {
                stats.llc_misses_other += 1;
            }
        }

        // ---- memory (DRAM or far tier) ----
        let (latency, tier) = self.read_memory(core, line, now + lat, true, stats);
        lat += latency;
        if self.far.is_some() {
            let split = self.tel.counters_mut().tiers_mut();
            match tier {
                Tier::Near => split.near.load_to_use.record(lat),
                Tier::Far => split.far.load_to_use.record(lat),
            }
        }
        let ready = now + lat;
        let served = ServedBy::Dram;

        let mut dir = Directory::empty();
        if write {
            dir.set_owner(core);
        } else {
            dir.add_sharer(core);
        }
        let mut l3fill = super::cache::demand_line(line, Mesi::Exclusive, ready, served);
        l3fill.dir = dir;
        self.insert_l3(slice, l3fill, None, now, stats);

        let state = if write {
            Mesi::Modified
        } else {
            Mesi::Exclusive
        };
        let mut fill = super::cache::demand_line(line, state, ready, served);
        fill.dirty = write;
        self.insert_l2(core, fill, None, stats);
        self.insert_l1(core, fill, None, stats);
        if !write {
            self.mshr[core].push(ready);
        }
        self.tel.demand_done(core, now, lat, served, line, true);
        AccessResult {
            latency: lat,
            served,
        }
    }

    /// Issues a non-binding prefetch of the line containing `vaddr` into
    /// `core`'s L1D (the paper places prefetch fills in the L1D, §I).
    /// `tag` names the static source of the request (a DIG node or edge, a
    /// stream slot, ...); the cache stores it with every copy the prefetch
    /// installs, and the attribution table credits the copy's fate to it.
    /// Hardware prefetchers always name one; `None` is a software prefetch
    /// instruction.
    ///
    /// Returns `None` when the prefetch is dropped: the line is already
    /// resident or in flight in the L1 ("redundant"). There is no
    /// memory-controller throttle (§IV-G defers throttling to future work);
    /// congestion is felt through channel occupancy instead.
    pub fn prefetch(
        &mut self,
        core: usize,
        vaddr: u64,
        now: u64,
        stats: &mut Stats,
        tag: Option<SourceTag>,
    ) -> Option<FillEvent> {
        let line = line_of(vaddr);
        if self.l1d[core].contains(line) {
            return self.dropped(core, now, line, tag);
        }
        let mut lat = self.tlb_latency(core, vaddr, now, stats) + self.cfg.l1d.tag_latency;

        // Already in this core's L2: promote to L1.
        if let Some(l) = self.l2[core].peek(line) {
            let residual = Self::residual_wait(l.ready_at, now + lat);
            let state = l.state;
            lat += self.cfg.l2.data_latency + residual;
            let ready = now + lat;
            let mut fill = super::cache::demand_line(line, state, ready, ServedBy::L2);
            fill.prefetched = true;
            self.insert_l1(core, fill, tag, stats);
            let issued = FillEvent {
                line_addr: line,
                served: ServedBy::L2,
                at: ready,
            };
            return self.accepted(core, now, issued, tag, stats);
        }
        lat += self.cfg.l2.tag_latency;

        let slice = self.slice_of(line);
        if let Some(slot) = self.l3[slice].find_slot(line) {
            let (residual, remote_owner) = {
                let l = self.l3[slice].slot_mut(slot);
                (
                    Self::residual_wait(l.ready_at, now + lat),
                    l.dir.owner().map(|o| o != core).unwrap_or(false),
                )
            };
            lat += self.cfg.l3.data_latency + residual;
            if remote_owner {
                // Don't steal remotely-owned dirty lines with a prefetch;
                // fetch a shared copy after a writeback delay.
                lat += self.cfg.l3.data_latency;
            }
            let ready = now + lat;
            self.l3[slice].slot_mut(slot).dir.add_sharer(core);
            let mut fill = super::cache::demand_line(line, Mesi::Shared, ready, ServedBy::L3);
            fill.prefetched = true;
            self.insert_l2(core, fill, tag, stats);
            self.insert_l1(core, fill, tag, stats);
            let issued = FillEvent {
                line_addr: line,
                served: ServedBy::L3,
                at: ready,
            };
            return self.accepted(core, now, issued, tag, stats);
        }
        lat += self.cfg.l3.tag_latency;

        // No memory-controller prefetch throttle: the paper explicitly
        // leaves throttling to future work (§IV-G). Contention is modelled
        // naturally — prefetch transfers occupy memory channels and delay
        // demand fills behind them.
        let (latency, _) = self.read_memory(core, line, now + lat, false, stats);
        let ready = now + lat + latency;

        let mut dir = Directory::empty();
        dir.add_sharer(core);
        let mut l3fill = super::cache::demand_line(line, Mesi::Exclusive, ready, ServedBy::Dram);
        l3fill.dir = dir;
        l3fill.prefetched = true;
        self.insert_l3(slice, l3fill, tag, now, stats);
        let mut fill = super::cache::demand_line(line, Mesi::Exclusive, ready, ServedBy::Dram);
        fill.prefetched = true;
        self.insert_l2(core, fill, tag, stats);
        self.insert_l1(core, fill, tag, stats);
        let issued = FillEvent {
            line_addr: line,
            served: ServedBy::Dram,
            at: ready,
        };
        self.accepted(core, now, issued, tag, stats)
    }

    /// Issues a *memory-side* prefetch: the line is brought into the shared
    /// L3 only, never into private caches. This models DRAM-side designs
    /// like DROPLET, whose prefetchers sit at the memory controller and
    /// cannot push data into a core's L1D — the placement disadvantage the
    /// paper's comparison turns on (§VI-C). `tag` is as for
    /// [`MemorySystem::prefetch`].
    pub fn prefetch_llc(
        &mut self,
        core: usize,
        vaddr: u64,
        now: u64,
        stats: &mut Stats,
        tag: Option<SourceTag>,
    ) -> Option<FillEvent> {
        let line = line_of(vaddr);
        let slice = self.slice_of(line);
        if self.l3[slice].contains(line) {
            return self.dropped(core, now, line, tag);
        }
        let lat = self.cfg.l3.tag_latency;
        let (latency, _) = self.read_memory(core, line, now + lat, false, stats);
        let ready = now + lat + latency;
        let mut l3fill = super::cache::demand_line(line, Mesi::Exclusive, ready, ServedBy::Dram);
        l3fill.prefetched = true;
        l3fill.dir = Directory::empty();
        self.insert_l3(slice, l3fill, tag, now, stats);
        let issued = FillEvent {
            line_addr: line,
            served: ServedBy::Dram,
            at: ready,
        };
        self.accepted(core, now, issued, tag, stats)
    }

    /// Whether the line containing `vaddr` is resident (ready or in flight)
    /// in `core`'s L1D. Prodigy's sequence-drop logic and tests use this.
    pub fn l1_contains(&self, core: usize, vaddr: u64) -> bool {
        self.l1d[core].contains(line_of(vaddr))
    }

    /// Whether the line containing `vaddr` is resident in `core`'s L2.
    pub fn l2_contains(&self, core: usize, vaddr: u64) -> bool {
        self.l2[core].contains(line_of(vaddr))
    }

    /// Whether the line containing `vaddr` is resident in the shared L3.
    pub fn llc_contains(&self, vaddr: u64) -> bool {
        let line = line_of(vaddr);
        self.l3[self.slice_of(line)].contains(line)
    }

    /// Peak DRAM bandwidth in bytes per cycle (for §VI-F).
    pub fn peak_dram_bytes_per_cycle(&self) -> f64 {
        self.dram.peak_bytes_per_cycle()
    }

    /// Scans every cache's provenance sidecar into a point-in-time
    /// occupancy snapshot: resident lines per level split by installing
    /// source (demand vs. each prefetcher source), plus a near/far split
    /// of the L3 on tiered machines. Read-only and allocation-light (one
    /// map entry per distinct live source), so the metrics sampler can
    /// call it every window.
    pub fn occupancy(&self) -> OccupancySnapshot {
        let mut snap = OccupancySnapshot::default();
        for c in &self.l1d {
            c.for_each_resident(|l, src| snap.levels[0].count(l.prefetched, src));
        }
        for c in &self.l2 {
            c.for_each_resident(|l, src| snap.levels[1].count(l.prefetched, src));
        }
        if self.far.is_some() {
            let mut tiers = [LevelOccupancy::default(), LevelOccupancy::default()];
            for c in &self.l3 {
                c.for_each_resident(|l, src| {
                    snap.levels[2].count(l.prefetched, src);
                    let t = match self.tiers.tier_of(l.addr) {
                        Tier::Near => &mut tiers[0],
                        Tier::Far => &mut tiers[1],
                    };
                    t.count(l.prefetched, src);
                });
            }
            snap.tiers = Some(tiers);
        } else {
            for c in &self.l3 {
                c.for_each_resident(|l, src| snap.levels[2].count(l.prefetched, src));
            }
        }
        snap
    }

    /// Total resident lines per level (`[L1, L2, L3]`), independent of the
    /// provenance sidecar — the occupancy property test cross-checks the
    /// snapshot's per-source totals against these counts.
    pub fn resident_lines(&self) -> [u64; 3] {
        [
            self.l1d.iter().map(|c| c.len() as u64).sum(),
            self.l2.iter().map(|c| c.len() as u64).sum(),
            self.l3.iter().map(|c| c.len() as u64).sum(),
        ]
    }

    /// Captures the current occupancy snapshot into the telemetry summary,
    /// so end-of-run reports carry the final cache contents. Runners call
    /// this once just before harvesting [`MemorySystem::telemetry`].
    pub fn capture_occupancy(&mut self) {
        let snap = self.occupancy();
        self.tel.counters_mut().occupancy = Some(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::address_space::PAGE_BYTES;

    fn tiny() -> (MemorySystem, Stats) {
        (
            MemorySystem::new(SystemConfig::scaled(64).with_cores(2)),
            Stats::default(),
        )
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let (mut m, mut s) = tiny();
        let r = m.demand_access(0, 0x1_0000, AccessKind::Read, 0, &mut s);
        assert_eq!(r.served, ServedBy::Dram);
        assert!(r.latency >= m.config().dram.access_latency);
        let t = r.latency + 1;
        let r2 = m.demand_access(0, 0x1_0008, AccessKind::Read, t, &mut s);
        assert_eq!(r2.served, ServedBy::L1);
        assert!(r2.latency <= m.config().l1d.data_latency + m.config().tlb_miss_latency);
    }

    #[test]
    fn early_reaccess_pays_residual_and_counts_as_dram() {
        let (mut m, mut s) = tiny();
        let r = m.demand_access(0, 0x2_0000, AccessKind::Read, 0, &mut s);
        // Access again immediately: line is in flight.
        let r2 = m.demand_access(0, 0x2_0000, AccessKind::Read, 1, &mut s);
        assert_eq!(r2.served, ServedBy::Dram, "merge inherits fill source");
        assert!(r2.latency >= r.latency - 10 && r2.latency < r.latency + 10);
    }

    #[test]
    fn prefetch_then_demand_is_l1_hit_and_counted_useful() {
        let (mut m, mut s) = tiny();
        let p = m.prefetch(0, 0x3_0000, 0, &mut s, None).expect("issued");
        assert_eq!(p.served, ServedBy::Dram);
        let r = m.demand_access(0, 0x3_0000, AccessKind::Read, p.at + 1, &mut s);
        assert_eq!(r.served, ServedBy::L1);
        assert_eq!(s.prefetch_use.hit_l1, 1);
        // A second demand must not double-count usefulness.
        m.demand_access(0, 0x3_0000, AccessKind::Read, p.at + 2, &mut s);
        assert_eq!(s.prefetch_use.hit_l1, 1);
    }

    #[test]
    fn redundant_prefetch_is_dropped() {
        let (mut m, mut s) = tiny();
        m.prefetch(0, 0x4_0000, 0, &mut s, None)
            .expect("first issues");
        assert!(m.prefetch(0, 0x4_0000, 1, &mut s, None).is_none());
        assert_eq!(m.telemetry().timeliness.dropped, 1);
        assert_eq!(s.prefetches_issued, 1);
    }

    #[test]
    fn untimely_prefetch_partially_hides_latency() {
        let (mut m, mut s) = tiny();
        let p = m.prefetch(0, 0x5_0000, 0, &mut s, None).expect("issued");
        let mid = p.at / 2;
        let r = m.demand_access(0, 0x5_0000, AccessKind::Read, mid, &mut s);
        assert_eq!(r.served, ServedBy::Dram, "residual wait attributed to DRAM");
        assert!(r.latency < p.at, "but shorter than a full miss");
        assert!(r.latency >= p.at - mid);
    }

    #[test]
    fn write_by_other_core_invalidates_and_pays_coherence() {
        let (mut m, mut s) = tiny();
        let addr = 0x6_0000;
        let r0 = m.demand_access(0, addr, AccessKind::Write, 0, &mut s);
        let t = r0.latency + 1;
        // Core 1 reads the line core 0 modified: must come via L3 with a
        // coherence penalty, and core 0's copy is invalidated.
        let r1 = m.demand_access(1, addr, AccessKind::Read, t, &mut s);
        assert_eq!(r1.served, ServedBy::L3);
        assert!(r1.latency > m.config().l3.data_latency);
        assert!(!m.l1_contains(0, addr));
    }

    #[test]
    #[should_panic(expected = "directory supports up to 64 cores, got 65")]
    fn core_count_beyond_the_directory_fails_at_construction() {
        let m = MemorySystem::new(SystemConfig::scaled(64).with_cores(64));
        assert_eq!(m.l1d.len(), Directory::MAX_CORES);
        let _ = MemorySystem::new(SystemConfig::scaled(64).with_cores(65));
    }

    #[test]
    fn llc_miss_classifier_counts() {
        let (mut m, mut s) = tiny();
        m.demand_access(0, 0x5_0000, AccessKind::Read, 0, &mut s);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(
            (s.llc_misses_prefetchable, s.llc_misses_other),
            (0, 0),
            "no classifier installed: neither counter moves"
        );
        m.set_llc_miss_classifier_ranges(vec![(0x7_0000, 0x8_0000)]);
        m.demand_access(0, 0x7_0000, AccessKind::Read, 0, &mut s);
        m.demand_access(0, 0x9_0000, AccessKind::Read, 0, &mut s);
        assert_eq!(s.llc_misses_prefetchable, 1);
        assert_eq!(s.llc_misses_other, 1);
        m.set_llc_miss_classifier_ranges(Vec::new());
        m.demand_access(0, 0x7_1000, AccessKind::Read, 0, &mut s);
        assert_eq!(
            (s.llc_misses_prefetchable, s.llc_misses_other),
            (1, 2),
            "an empty range list counts every miss as other"
        );
    }

    #[test]
    fn mshr_pressure_serialises_misses() {
        let mut cfg = SystemConfig::scaled(64).with_cores(1);
        cfg.mshrs = 2;
        let mut m = MemorySystem::new(cfg);
        let mut s = Stats::default();
        let l0 = m
            .demand_access(0, 0x10_0000, AccessKind::Read, 0, &mut s)
            .latency;
        let l1 = m
            .demand_access(0, 0x20_0000, AccessKind::Read, 0, &mut s)
            .latency;
        let l2 = m
            .demand_access(0, 0x30_0000, AccessKind::Read, 0, &mut s)
            .latency;
        assert!(l1 >= l0, "second miss at least as slow (queueing)");
        assert!(l2 > l0, "third miss waits for an MSHR");
    }

    #[test]
    fn capacity_eviction_of_unused_prefetch_is_counted() {
        // 1-core system with tiny caches: stream enough lines through to
        // evict a prefetched-but-never-demanded line from the whole
        // hierarchy.
        // The LLC keeps all `l3_slices` slices even at 1 core, so the
        // stream must cover the *total* LLC footprint to force the
        // prefetched line out of its slice.
        let cfg = SystemConfig::scaled(1024).with_cores(1);
        let lines_in_llc = cfg.llc_capacity() / LINE_BYTES;
        let mut m = MemorySystem::new(cfg);
        let mut s = Stats::default();
        m.prefetch(0, 0, 0, &mut s, None).expect("issued");
        let mut t = 1000;
        for i in 1..=(lines_in_llc * 4) {
            m.demand_access(0, i * LINE_BYTES * 3, AccessKind::Read, t, &mut s);
            t += 200;
        }
        assert_eq!(s.prefetch_use.evicted_unused, 1);
        assert_eq!(s.prefetch_use.hit_l1, 0);
    }

    #[test]
    fn each_first_use_credits_the_source_of_the_copy_it_hit() {
        // Two cores prefetch one line under different sources; each core's
        // first use credits the source stored with its own copy, not the
        // line's last issuer.
        let (mut m, mut s) = tiny();
        let (a, b): (SourceTag, SourceTag) = (1, 2);
        let line = 0x3_0000;
        let pa = m.prefetch(0, line, 0, &mut s, Some(a)).expect("issued");
        let pb = m.prefetch(1, line, 1, &mut s, Some(b)).expect("issued");
        let t = pa.at.max(pb.at) + 1;
        m.demand_access(1, line, AccessKind::Read, t, &mut s);
        m.demand_access(0, line, AccessKind::Read, t + 1, &mut s);
        let tel = m.telemetry();
        assert_eq!(tel.timeliness.timely, 2);
        for tag in [a, b] {
            let c = tel.attribution.get(tag).expect("issued");
            assert_eq!((c.issued, c.timely), (1, 1), "source {tag}");
        }
    }

    #[test]
    fn unused_llc_eviction_credits_the_llc_copy_else_the_first_private_copy() {
        // Cores 0 and 1 hold prefetched copies of line 0 under sources A
        // and B, B issued last; then core 2 streams enough lines through
        // the LLC to evict line 0 from the whole hierarchy.
        const A: SourceTag = 1;
        const B: SourceTag = 2;
        let run = |llc_copy_is_demand: bool| {
            let cfg = SystemConfig::scaled(1024).with_cores(3);
            let lines_in_llc = cfg.llc_capacity() / LINE_BYTES;
            let mut m = MemorySystem::new(cfg);
            let mut s = Stats::default();
            let (a_core, b_core) = if llc_copy_is_demand {
                // Core 2's demand installs the LLC copy.
                m.demand_access(2, 0, AccessKind::Read, 0, &mut s);
                (0, 1)
            } else {
                // A's prefetch installs the LLC copy from core 1.
                (1, 0)
            };
            m.prefetch(a_core, 0, 1000, &mut s, Some(A))
                .expect("issued");
            m.prefetch(b_core, 0, 1001, &mut s, Some(B))
                .expect("issued");
            let mut t = 2000;
            for i in 1..=(lines_in_llc * 4) {
                m.demand_access(2, i * LINE_BYTES * 3, AccessKind::Read, t, &mut s);
                t += 200;
            }
            assert!(!m.llc_contains(0), "line 0 left the LLC");
            assert_eq!(s.prefetch_use.evicted_unused, 1, "one verdict");
            let tel = m.telemetry();
            assert_eq!(tel.timeliness.inaccurate, 1);
            [A, B].map(|tag| tel.attribution.get(tag).expect("issued").inaccurate)
        };
        assert_eq!(run(false), [1, 0], "the LLC copy's source, not core 0's");
        assert_eq!(run(true), [1, 0], "a demand LLC copy: core 0's copy first");
    }

    #[test]
    fn prefetch_evicting_a_hot_demand_line_is_charged_as_pollution() {
        // A deliberately inaccurate stride-like stream of tagged
        // prefetches floods every set and displaces a hot demand line;
        // the next demand miss on that line must be credited to the
        // evicting source's `polluting` column.
        let cfg = SystemConfig::scaled(1024).with_cores(1);
        let lines_in_llc = cfg.llc_capacity() / LINE_BYTES;
        let mut m = MemorySystem::new(cfg);
        let mut s = Stats::default();
        let hot = 0x40;
        let r = m.demand_access(0, hot, AccessKind::Read, 0, &mut s);
        let mut t = r.latency + 1;
        let tag: SourceTag = 7;
        for i in 2..=(lines_in_llc * 4) {
            m.prefetch(0, i * LINE_BYTES, t, &mut s, Some(tag));
            t += 200;
        }
        assert!(!m.l1_contains(0, hot), "flood displaced the hot line");
        assert_eq!(
            m.telemetry().pollution.total(),
            0,
            "no demand miss probed the victim table yet"
        );
        m.demand_access(0, hot, AccessKind::Read, t, &mut s);
        let total = m.telemetry().pollution.total();
        assert!(total >= 1, "the displaced hot line is a pollution event");
        let c = *m.telemetry().attribution.get(tag).expect("tag issued");
        assert_eq!(
            c.polluting, total,
            "every event credited to the evicting source"
        );
        assert!(c.pollution().unwrap() > 0.0);
        // Victim entries are one-shot and the line is resident again: a
        // repeat demand adds nothing.
        m.demand_access(0, hot, AccessKind::Read, t + 1, &mut s);
        assert_eq!(m.telemetry().pollution.total(), total);
    }

    #[test]
    fn occupancy_snapshot_matches_resident_lines_and_sources() {
        let (mut m, mut s) = tiny();
        m.demand_access(0, 0x1_0000, AccessKind::Read, 0, &mut s);
        m.prefetch(0, 0x2_0000, 0, &mut s, Some(3));
        m.prefetch(1, 0x3_0000, 0, &mut s, Some((1 << 8) | 2));
        m.prefetch(1, 0x4_0000, 0, &mut s, None);
        let snap = m.occupancy();
        let resident = m.resident_lines();
        for (lvl, occ) in snap.levels.iter().enumerate() {
            assert_eq!(occ.total(), resident[lvl], "level {lvl} totals agree");
        }
        // L1s across both cores: 1 demand line + 3 unused prefetches.
        assert_eq!(snap.levels[0].demand, 1);
        assert_eq!(snap.levels[0].untagged, 1);
        assert_eq!(snap.levels[0].sources.get(&3), Some(&1));
        assert_eq!(snap.levels[0].sources.get(&((1 << 8) | 2)), Some(&1));
        assert_eq!(snap.tiers, None, "single-tier machine has no split");
        // Demanding a prefetched line moves it to the demand bucket.
        m.demand_access(0, 0x2_0000, AccessKind::Read, 10_000, &mut s);
        let snap = m.occupancy();
        assert_eq!(snap.levels[0].demand, 2);
        assert_eq!(snap.levels[0].sources.get(&3), None);
    }

    #[test]
    fn tiered_occupancy_splits_the_l3_by_tier() {
        let cfg = SystemConfig::scaled(64).with_cores(1).with_far_scale(4);
        let mut m = MemorySystem::new(cfg);
        let mut map = TierMap::default();
        map.mark_far(0x10_0000, 0x20_0000);
        m.set_tier_map(map);
        let mut s = Stats::default();
        m.demand_access(0, 0x1_0000, AccessKind::Read, 0, &mut s);
        m.prefetch(0, 0x11_0000, 0, &mut s, Some(9));
        let snap = m.occupancy();
        let [near, far] = snap.tiers.expect("tiered machine splits the L3");
        assert_eq!(near.total() + far.total(), snap.levels[2].total());
        assert_eq!(near.demand, 1);
        assert_eq!(far.sources.get(&9), Some(&1));
    }

    #[test]
    fn far_tier_misses_pay_scaled_latency_and_split_telemetry() {
        let cfg = SystemConfig::scaled(64).with_cores(2).with_far_scale(4);
        let mut m = MemorySystem::new(cfg);
        let mut map = TierMap::default();
        map.mark_far(0x10_0000, 0x20_0000);
        m.set_tier_map(map);
        let mut s = Stats::default();
        let near = m.demand_access(0, 0x1_0000, AccessKind::Read, 0, &mut s);
        let far = m.demand_access(0, 0x10_0000, AccessKind::Read, 0, &mut s);
        assert_eq!(near.served, ServedBy::Dram);
        assert_eq!(far.served, ServedBy::Dram);
        assert!(
            far.latency >= near.latency + 3 * cfg.dram.access_latency,
            "cold miss pays the 4x pool latency: near {} far {}",
            near.latency,
            far.latency
        );
        // Aggregate stats see both reads; the split attributes them.
        assert_eq!(s.dram_reads, 2);
        let t = m.telemetry().tiers.expect("tiered machine records a split");
        assert_eq!(t.near.demand_reads, 1);
        assert_eq!(t.far.demand_reads, 1);
        assert_eq!(t.far.load_to_use.count(), 1);
        assert!(t.far.load_to_use.sum() >= cfg.far.unwrap().access_latency);
        // Prefetches route and are attributed per tier too.
        m.prefetch(1, 0x11_0000, 0, &mut s, None).expect("issued");
        assert_eq!(m.telemetry().tiers.unwrap().far.prefetch_reads, 1);
    }

    #[test]
    fn single_tier_machine_ignores_tier_map_and_records_no_split() {
        // Marking ranges cold without a far tier configured must change
        // nothing: same latencies as an unmarked machine, no tier split.
        let (mut m, mut s) = tiny();
        let mut map = TierMap::default();
        map.mark_far(0x10_0000, 0x20_0000);
        m.set_tier_map(map);
        let (mut plain, mut s2) = tiny();
        let a = m.demand_access(0, 0x10_0000, AccessKind::Read, 0, &mut s);
        let b = plain.demand_access(0, 0x10_0000, AccessKind::Read, 0, &mut s2);
        assert_eq!(a, b);
        assert_eq!(m.tier_of(0x10_0000), Tier::Near, "no far tier configured");
        assert_eq!(m.telemetry().tiers, None);
        assert_eq!(format!("{s:?}"), format!("{s2:?}"));
    }

    #[test]
    fn far_writebacks_route_to_the_far_controller() {
        // Tiny caches, all addresses cold: dirty L3 evictions must land in
        // the far tier's writeback counter.
        let cfg = SystemConfig::scaled(1024).with_cores(1).with_far_scale(2);
        let lines_in_llc = cfg.llc_capacity() / LINE_BYTES;
        let mut m = MemorySystem::new(cfg);
        let mut map = TierMap::default();
        map.mark_far(0, u64::MAX);
        m.set_tier_map(map);
        let mut s = Stats::default();
        let mut t = 0;
        for i in 0..(lines_in_llc * 4) {
            m.demand_access(0, i * LINE_BYTES * 3, AccessKind::Write, t, &mut s);
            t += 2000;
        }
        assert!(s.dram_writes > 0, "stream of dirty lines forces writebacks");
        let split = m.telemetry().tiers.expect("split present");
        assert_eq!(split.far.writebacks, s.dram_writes);
        assert_eq!(split.near.writebacks, 0);
        assert_eq!(split.near.demand_reads, 0);
    }

    #[test]
    fn tlb_miss_adds_latency_once_per_page() {
        let (mut m, mut s) = tiny();
        let a = PAGE_BYTES * 100;
        m.demand_access(0, a, AccessKind::Read, 0, &mut s);
        assert_eq!(s.tlb_misses, 1);
        m.demand_access(0, a + 64, AccessKind::Read, 500, &mut s);
        assert_eq!(s.tlb_hits, 1);
    }
}
