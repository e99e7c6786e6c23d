//! Set-associative, write-back cache with LRU replacement and per-line
//! metadata for prefetch tracking, in-flight fills, and the L3 directory.
//!
//! Storage is struct-of-arrays: one flat tag array (scanned on every
//! lookup) and a parallel flat [`Line`] array (touched only on hit), with a
//! per-set occupancy count. A miss in a 16-way L3 set then reads two host
//! cache lines of tags instead of walking 16 separately-boxed line structs
//! — the dominant cost of the old `Vec<Vec<Line>>` layout. Replacement
//! order is bit-compatible with that layout: fills append in slot order,
//! invalidation moves the set's last slot into the hole (`swap_remove`),
//! and the victim of a full set is the first slot holding the minimum LRU
//! stamp.

use super::coherence::{Directory, Mesi};
use crate::line_of;
use crate::SourceTag;

/// Shadow victim-table ways per set. Four entries is enough to catch the
/// common pollution pattern (a burst of prefetch fills displacing one or
/// two hot lines per set) without growing the per-set state past one host
/// cache line of addresses.
const VICTIM_WAYS: usize = 4;

/// A demand miss that matched the shadow victim table: the line was
/// displaced earlier by a prefetch insert from `evictor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimHit {
    /// Source of the prefetch that evicted the line (`None`: untagged).
    pub evictor: Option<SourceTag>,
}

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Line-aligned address (we store full addresses rather than tags for
    /// clarity; a real cache would keep `addr >> (set+offset bits)`).
    pub addr: u64,
    /// MESI state (Exclusive/Shared distinction only meaningful in L1/L2).
    pub state: Mesi,
    /// Dirty bit (write-back).
    pub dirty: bool,
    /// Set when the line was brought in by a prefetch and has not yet been
    /// demanded (cleared on first demand hit for Fig. 15 accounting).
    pub prefetched: bool,
    /// Cycle at which the fill completes; accesses before this pay the
    /// residual latency (this is how in-flight fills/MSHR merges are modelled).
    pub ready_at: u64,
    /// Where the fill was served from, for stall attribution of merges.
    pub fill_src: crate::ServedBy,
    /// Directory record (used only in the L3).
    pub dir: Directory,
}

/// A line that left the cache: what `insert` pushed out of the set, or
/// what `invalidate` removed.
#[derive(Debug, Clone, Copy)]
pub struct Evicted {
    /// Address of the evicted line.
    pub addr: u64,
    /// Whether it must be written back.
    pub dirty: bool,
    /// Whether it was a never-demanded prefetch.
    pub prefetched_unused: bool,
    /// Its directory record (meaningful for L3 back-invalidation).
    pub dir: Directory,
    /// The prefetch source that installed it (`None`: a demand fill or an
    /// untagged prefetch).
    pub src: Option<SourceTag>,
}

impl Evicted {
    fn of(l: &Line, src: Option<SourceTag>) -> Evicted {
        Evicted {
            addr: l.addr,
            dirty: l.dirty,
            prefetched_unused: l.prefetched,
            dir: l.dir,
            src,
        }
    }
}

/// A single set-associative cache array (flat struct-of-arrays storage).
#[derive(Debug)]
pub struct Cache {
    /// Line address per slot; slot `s*ways + w` is valid for `w < len[s]`.
    tags: Box<[u64]>,
    /// Per-slot line data, parallel to `tags`.
    lines: Box<[Line]>,
    /// Per-slot LRU stamp, parallel to `tags`. Kept out of [`Line`] so the
    /// victim scan of a full 16-way set reads two host cache lines instead
    /// of walking 16 fat line structs.
    last: Box<[u64]>,
    /// Per-slot install provenance, parallel to `tags`: the tagged
    /// prefetch source that installed the line, `None` for a demand fill
    /// or an untagged prefetch. Sidecar rather than a [`Line`] field so
    /// the hot-path line copies stay the same size as before the
    /// provenance layer existed. It is the only record of a prefetch's
    /// source: the hierarchy reads it to credit a fate, at a prefetched
    /// line's first use and when one leaves unused, and a plain demand hit
    /// never reads it.
    src: Box<[Option<SourceTag>]>,
    /// Occupied ways per set.
    len: Box<[u8]>,
    /// Shadow victim table, [`VICTIM_WAYS`] entries per set: line address
    /// of a demand-installed (or previously-used) line displaced by a
    /// prefetch insert. `u64::MAX` marks an empty entry.
    vt_addr: Box<[u64]>,
    /// Evicting source per victim entry, parallel to `vt_addr`.
    /// `u32::MAX` encodes an untagged prefetch; otherwise a `SourceTag`.
    vt_src: Box<[u32]>,
    /// Per-set FIFO cursor into the victim entries.
    vt_next: Box<[u8]>,
    ways: usize,
    set_mask: u64,
    clock: u64,
}

impl Cache {
    /// Builds a cache from a [`crate::CacheConfig`] geometry.
    pub fn new(cfg: &crate::CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = cfg.ways as usize;
        assert!(ways >= 1 && ways <= u8::MAX as usize, "ways out of range");
        let filler = Line {
            addr: u64::MAX,
            state: Mesi::Invalid,
            dirty: false,
            prefetched: false,
            ready_at: 0,
            fill_src: crate::ServedBy::Dram,
            dir: Directory::empty(),
        };
        Cache {
            tags: vec![u64::MAX; sets * ways].into_boxed_slice(),
            lines: vec![filler; sets * ways].into_boxed_slice(),
            last: vec![0u64; sets * ways].into_boxed_slice(),
            src: vec![None; sets * ways].into_boxed_slice(),
            len: vec![0u8; sets].into_boxed_slice(),
            vt_addr: vec![u64::MAX; sets * VICTIM_WAYS].into_boxed_slice(),
            vt_src: vec![u32::MAX; sets * VICTIM_WAYS].into_boxed_slice(),
            vt_next: vec![0u8; sets].into_boxed_slice(),
            ways,
            set_mask: sets as u64 - 1,
            clock: 0,
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        // XOR-folded index hash (as real LLCs use): keeps striped inputs —
        // e.g. the line-interleaved slice selection of the shared L3 —
        // from clustering into a fraction of the sets.
        let l = line / crate::LINE_BYTES;
        ((l ^ (l >> 7) ^ (l >> 15)) & self.set_mask) as usize
    }

    /// Scans one set's tags for `line`; returns the flat slot index.
    #[inline]
    fn find(&self, idx: usize, line: u64) -> Option<usize> {
        let base = idx * self.ways;
        let n = self.len[idx] as usize;
        self.tags[base..base + n]
            .iter()
            .position(|&t| t == line)
            .map(|w| base + w)
    }

    /// Locates `addr` without touching LRU; the returned slot stays valid
    /// until the next insert/invalidate **on this cache** (other caches'
    /// mutations never move it). Lets the hierarchy re-access a line it
    /// already found without paying a second tag walk.
    #[inline]
    pub(crate) fn find_slot(&self, addr: u64) -> Option<usize> {
        let line = line_of(addr);
        self.find(self.set_index(line), line)
    }

    /// Direct slot access (see [`Cache::find_slot`] for validity rules).
    #[inline]
    pub(crate) fn slot(&self, slot: usize) -> &Line {
        &self.lines[slot]
    }

    /// Mutable [`Cache::slot`].
    #[inline]
    pub(crate) fn slot_mut(&mut self, slot: usize) -> &mut Line {
        &mut self.lines[slot]
    }

    /// Looks up `addr` (any byte address) and refreshes LRU on hit.
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> Option<&mut Line> {
        let slot = self.lookup_slot(addr)?;
        Some(&mut self.lines[slot])
    }

    /// [`Cache::lookup`], returning the slot index instead of the line.
    #[inline]
    pub(crate) fn lookup_slot(&mut self, addr: u64) -> Option<usize> {
        let line = line_of(addr);
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(line);
        let slot = self.find(idx, line)?;
        self.last[slot] = clock;
        Some(slot)
    }

    /// Looks up without disturbing LRU (for snoops and assertions).
    #[inline]
    pub fn peek(&self, addr: u64) -> Option<&Line> {
        let slot = self.find_slot(addr)?;
        Some(&self.lines[slot])
    }

    /// Mutable peek without LRU update (for coherence state changes).
    #[inline]
    pub fn peek_mut(&mut self, addr: u64) -> Option<&mut Line> {
        let slot = self.find_slot(addr)?;
        Some(&mut self.lines[slot])
    }

    /// Whether the line is present (any state).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.find_slot(addr).is_some()
    }

    /// Inserts a line, evicting the LRU way if the set is full. If the line
    /// is already present it is updated in place (state/ready/prefetch are
    /// overwritten only where the new fill is "stronger"; the original
    /// installer keeps the provenance). `src` is the installing prefetch
    /// source (`None`: a demand fill or an untagged prefetch). When a
    /// *prefetch* insert displaces a demand-installed or previously-used
    /// line, the victim is recorded in the set's shadow victim table,
    /// credited to the evicting source.
    pub fn insert(&mut self, mut new: Line, src: Option<SourceTag>) -> Option<Evicted> {
        new.addr = line_of(new.addr);
        self.clock += 1;
        let idx = self.set_index(new.addr);
        let base = idx * self.ways;
        // The line is resident again: whatever pollution history it had is
        // moot, so a stale victim entry must not fire on a later miss.
        self.clear_victim(idx, new.addr);
        if let Some(slot) = self.find(idx, new.addr) {
            self.last[slot] = self.clock;
            let existing = &mut self.lines[slot];
            existing.state = new.state;
            existing.dirty |= new.dirty;
            existing.ready_at = existing.ready_at.min(new.ready_at);
            existing.dir = new.dir;
            return None;
        }
        let n = self.len[idx] as usize;
        if n < self.ways {
            self.tags[base + n] = new.addr;
            self.lines[base + n] = new;
            self.last[base + n] = self.clock;
            self.src[base + n] = src;
            self.len[idx] = (n + 1) as u8;
            return None;
        }
        // Full set: evict the first slot holding the minimum LRU stamp
        // (matches `min_by_key` over the old per-set Vec).
        let mut victim_i = base;
        let mut oldest = self.last[base];
        for slot in base + 1..base + n {
            let lu = self.last[slot];
            if lu < oldest {
                oldest = lu;
                victim_i = slot;
            }
        }
        self.tags[victim_i] = new.addr;
        self.last[victim_i] = self.clock;
        let victim = std::mem::replace(&mut self.lines[victim_i], new);
        let victim_src = std::mem::replace(&mut self.src[victim_i], src);
        // Pollution candidate: a prefetch displacing a line the program
        // actually used (`!prefetched` covers both demand installs and
        // prefetches later demanded, since the first demand hit clears
        // the bit).
        if new.prefetched && !victim.prefetched {
            self.record_victim(idx, victim.addr, src);
        }
        Some(Evicted::of(&victim, victim_src))
    }

    /// Removes a line (back-invalidation) and reports it as [`Cache::insert`]
    /// reports a victim. Compacts by moving the set's last slot into the
    /// hole, exactly as `Vec::swap_remove` did.
    pub fn invalidate(&mut self, addr: u64) -> Option<Evicted> {
        let line = line_of(addr);
        let idx = self.set_index(line);
        let pos = self.find(idx, line)?;
        let base = idx * self.ways;
        let last = base + self.len[idx] as usize - 1;
        let gone = Evicted::of(&self.lines[pos], self.src[pos]);
        self.tags[pos] = self.tags[last];
        self.lines[pos] = self.lines[last];
        self.last[pos] = self.last[last];
        self.src[pos] = self.src[last];
        self.tags[last] = u64::MAX;
        self.len[idx] -= 1;
        Some(gone)
    }

    /// Clears any shadow victim entry for `line` in set `idx`.
    #[inline]
    fn clear_victim(&mut self, idx: usize, line: u64) {
        let base = idx * VICTIM_WAYS;
        for e in base..base + VICTIM_WAYS {
            if self.vt_addr[e] == line {
                self.vt_addr[e] = u64::MAX;
                self.vt_src[e] = u32::MAX;
            }
        }
    }

    /// Records a displaced line in the set's shadow victim table (FIFO
    /// replacement over the [`VICTIM_WAYS`] entries).
    #[inline]
    fn record_victim(&mut self, idx: usize, line: u64, evictor: Option<SourceTag>) {
        let base = idx * VICTIM_WAYS;
        let e = base + self.vt_next[idx] as usize;
        self.vt_addr[e] = line;
        self.vt_src[e] = evictor.map_or(u32::MAX, u32::from);
        self.vt_next[idx] = (self.vt_next[idx] + 1) % VICTIM_WAYS as u8;
    }

    /// Consumes the shadow victim entry for `addr`, if present: a demand
    /// miss landing here is a pollution event. Entries are one-shot so one
    /// displaced line never counts twice.
    pub fn take_victim(&mut self, addr: u64) -> Option<VictimHit> {
        let line = line_of(addr);
        let idx = self.set_index(line);
        let base = idx * VICTIM_WAYS;
        for e in base..base + VICTIM_WAYS {
            if self.vt_addr[e] == line {
                let src = self.vt_src[e];
                self.vt_addr[e] = u64::MAX;
                self.vt_src[e] = u32::MAX;
                let evictor = if src == u32::MAX {
                    None
                } else {
                    Some(src as SourceTag)
                };
                return Some(VictimHit { evictor });
            }
        }
        None
    }

    /// Prefetch source that installed the line at `slot` (see
    /// `Cache::find_slot` for slot-validity rules).
    #[inline]
    pub fn source(&self, slot: usize) -> Option<SourceTag> {
        self.src[slot]
    }

    /// Visits every resident line with its installing source (occupancy
    /// scans). Allocation-free; visit order is set-major, way-minor.
    pub fn for_each_resident(&self, mut f: impl FnMut(&Line, Option<SourceTag>)) {
        for idx in 0..self.len.len() {
            let base = idx * self.ways;
            for slot in base..base + self.len[idx] as usize {
                f(&self.lines[slot], self.src[slot]);
            }
        }
    }

    /// Number of resident lines (for occupancy assertions in tests).
    pub fn len(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Convenience constructor for a resident, demand-filled line.
pub fn demand_line(addr: u64, state: Mesi, ready_at: u64, src: crate::ServedBy) -> Line {
    Line {
        addr: line_of(addr),
        state,
        dirty: false,
        prefetched: false,
        ready_at,
        fill_src: src,
        dir: Directory::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, ServedBy};

    fn small_cache() -> Cache {
        // 2 sets × 2 ways.
        Cache::new(&CacheConfig {
            capacity: 4 * crate::LINE_BYTES,
            ways: 2,
            data_latency: 1,
            tag_latency: 1,
        })
    }

    fn line(addr: u64) -> Line {
        demand_line(addr, Mesi::Exclusive, 0, ServedBy::Dram)
    }

    fn pf_line(addr: u64) -> Line {
        let mut l = line(addr);
        l.prefetched = true;
        l
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small_cache();
        c.insert(line(0x1000), None);
        assert!(c.lookup(0x1010).is_some(), "same line, different byte");
        assert!(c.lookup(0x1040).is_none(), "next line");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Addresses 0x0, 0x80, 0x100 map to set 0 (stride 2 lines).
        c.insert(line(0x000), None);
        c.insert(line(0x080), None);
        c.lookup(0x000); // refresh 0x0
        let ev = c.insert(line(0x100), None).expect("set overflow evicts");
        assert_eq!(ev.addr, 0x080);
        assert!(c.contains(0x000) && c.contains(0x100));
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let mut c = small_cache();
        c.insert(line(0x000), None);
        let mut l = line(0x000);
        l.dirty = true;
        assert!(c.insert(l, None).is_none());
        assert!(c.peek(0x000).unwrap().dirty);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small_cache();
        c.insert(line(0x40), None);
        assert!(c.invalidate(0x40).is_some());
        assert!(!c.contains(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn eviction_reports_prefetched_unused() {
        let mut c = small_cache();
        // 0x000, 0x080 and 0x100 share set 0; the third insert evicts the
        // LRU line, the never-demanded prefetch of 0x000.
        c.insert(pf_line(0x000), Some(3));
        c.insert(line(0x080), None);
        let ev = c.insert(line(0x100), None).expect("set overflow evicts");
        assert_eq!(ev.addr, 0x000);
        assert!(ev.prefetched_unused);
        assert_eq!(ev.src, Some(3), "the victim carries its installer");
        // The next victim, 0x080, was demand-installed.
        let ev = c.insert(line(0x180), None).expect("set overflow evicts");
        assert_eq!(ev.addr, 0x080);
        assert!(!ev.prefetched_unused);
        assert_eq!(ev.src, None);
        // Invalidation reports the line it removes the same way.
        c.insert(pf_line(0x040), Some(4));
        let ev = c.invalidate(0x040).expect("resident");
        assert_eq!(
            (ev.addr, ev.prefetched_unused, ev.src),
            (0x040, true, Some(4))
        );
    }

    #[test]
    fn set_mapping_distributes() {
        let mut c = small_cache();
        c.insert(line(0x000), None); // set 0
        c.insert(line(0x040), None); // set 1
        c.insert(line(0x080), None); // set 0
        c.insert(line(0x0c0), None); // set 1
        assert_eq!(c.len(), 4, "no eviction across distinct sets");
    }

    #[test]
    fn provenance_sidecar_tracks_the_installer() {
        let mut c = small_cache();
        c.insert(pf_line(0x000), Some(0x0102));
        let slot = c.find_slot(0x000).unwrap();
        assert_eq!(c.source(slot), Some(0x0102));
        // An in-place refresh keeps the original installer's source.
        c.insert(line(0x000), None);
        let slot = c.find_slot(0x000).unwrap();
        assert_eq!(c.source(slot), Some(0x0102));
        // swap_remove compaction moves the source with the line.
        c.insert(pf_line(0x080), Some(0x0203));
        c.invalidate(0x000);
        let slot = c.find_slot(0x080).unwrap();
        assert_eq!(c.source(slot), Some(0x0203));
    }

    #[test]
    fn prefetch_evicting_a_used_line_is_recorded_as_a_victim() {
        let mut c = small_cache();
        c.insert(line(0x000), None);
        c.insert(line(0x080), None);
        c.lookup(0x080); // make 0x000 the LRU victim
        c.insert(pf_line(0x100), Some(5));
        let hit = c.take_victim(0x000).expect("victim recorded");
        assert_eq!(hit.evictor, Some(5));
        // One-shot: consumed on the first probe.
        assert!(c.take_victim(0x000).is_none());
    }

    #[test]
    fn demand_evictions_and_prefetch_victims_do_not_pollute() {
        let mut c = small_cache();
        // A demand insert displacing a demand line records nothing.
        c.insert(line(0x000), None);
        c.insert(line(0x080), None);
        c.insert(line(0x100), None);
        assert!(c.take_victim(0x000).is_none());
        // A prefetch displacing an unused prefetch records nothing either.
        let mut c = small_cache();
        c.insert(pf_line(0x000), Some(1));
        c.insert(line(0x080), None);
        c.lookup(0x080);
        c.insert(pf_line(0x100), Some(2));
        assert!(c.take_victim(0x000).is_none());
    }

    #[test]
    fn reinserting_the_victim_clears_its_entry() {
        let mut c = small_cache();
        c.insert(line(0x000), None);
        c.insert(line(0x080), None);
        c.lookup(0x080);
        c.insert(pf_line(0x100), Some(5));
        // 0x000 comes back (e.g. a prefetch re-fill) before any demand
        // miss probes the table: the stale entry must not fire later.
        c.lookup(0x100); // make 0x080 the LRU victim
        c.insert(pf_line(0x000), None);
        assert!(c.take_victim(0x000).is_none());
    }

    #[test]
    fn untagged_evictor_round_trips_as_none() {
        let mut c = small_cache();
        c.insert(line(0x000), None);
        c.insert(line(0x080), None);
        c.lookup(0x080);
        c.insert(pf_line(0x100), None);
        assert_eq!(c.take_victim(0x000).unwrap().evictor, None);
    }

    #[test]
    fn for_each_resident_visits_every_line_once() {
        let mut c = small_cache();
        c.insert(line(0x000), None);
        c.insert(pf_line(0x040), Some(9));
        c.insert(pf_line(0x080), None);
        let mut seen = Vec::new();
        c.for_each_resident(|l, src| seen.push((l.addr, l.prefetched, src)));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0x000, false, None),
                (0x040, true, Some(9)),
                (0x080, true, None)
            ]
        );
    }
}
