//! Instruction representation, stream builder and the stream's byte
//! encoding.
//!
//! Workload kernels compile their algorithms into streams of these abstract
//! instructions. Dependencies are expressed as *relative back-references*
//! (distance to the producing instruction), which keeps instructions compact
//! and lets the timing model use a small completion-time ring buffer: any
//! producer further back than the ROB has necessarily retired.
//!
//! A kernel builds all of a phase's streams before the phase runs, so their
//! host memory grows with the input. An [`InsnStream`] therefore holds no
//! [`Insn`] per instruction (24 bytes each). Kernels repeat a handful of
//! instruction shapes, so each stream keeps a dictionary of *templates*:
//! one `Insn` per site with every field but the memory address (op kind,
//! pc, size or latency, branch direction, dep1 and dep2). A site is an
//! instruction without its address and deps, and its template takes the
//! deps of its first instruction. Deps stay out of the site because a
//! distance can grow with a loop (an inner-loop load that depends on a
//! load before the loop), which would mint a template per iteration. The
//! dictionary therefore holds at most one template per static site, however
//! long the stream.
//!
//! [`StreamBuilder`] appends each instruction as one variable-length byte
//! record: a header byte naming the template (ids from 15 on follow as a
//! `u32`), both deps only when they differ from the template's, and, for a
//! memory operation, the zigzag-encoded delta from the last address in the
//! template's delta slot. There are 16 slots. A template takes slot
//! `id % 16`, or shares the slot whose last address equals its first one (a
//! store back to the address just loaded). A delta equal to the template's
//! last delta (a strided access) takes no bytes. [`InsnStream::iter`] copies each
//! record's template and fills in its deps and address. The bundled kernels
//! encode at 1.7–3.5 bytes per instruction. DESIGN.md §13 gives the record
//! table.

use crate::fxhash::FxBuildHasher;
use std::collections::HashMap;

/// Operation performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A demand load of `size` bytes at `addr`; `pc` identifies the static
    /// access site for PC-indexed prefetchers.
    Load {
        /// Virtual address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Static site id (PC stand-in).
        pc: u32,
    },
    /// A store (write-allocate).
    Store {
        /// Virtual address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Static site id.
        pc: u32,
    },
    /// An arithmetic instruction with the given execution latency.
    Compute {
        /// Execution latency in cycles (1 for ALU, ~4 for FP mul/add).
        latency: u8,
    },
    /// A conditional branch with its actual outcome; the core's branch
    /// predictor decides whether it was mispredicted.
    Branch {
        /// Static site id.
        pc: u32,
        /// Actual direction.
        taken: bool,
    },
    /// A software prefetch instruction (x86 `prefetcht0`): non-binding,
    /// retires in one cycle, brings the line toward the L1D. Used by the
    /// software-prefetching comparison (§VI-C).
    Prefetch {
        /// Virtual address to prefetch.
        addr: u64,
    },
}

/// One instruction: an operation plus up to two producer back-references
/// (`0` = no dependency; otherwise "the instruction `depN` slots earlier").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insn {
    /// The operation.
    pub op: Op,
    /// First producer distance (0 = none).
    pub dep1: u16,
    /// Second producer distance (0 = none).
    pub dep2: u16,
}

// Record layout (DESIGN.md §13): a header byte; only when the header's id
// field is `ID_ESCAPE`, the template id as a `u32`; only when the header's
// deps bit is set, dep1 and dep2 as two `u16`s; and last, for a memory
// operation, the zigzag address delta (0–8 bytes). Every field sits at an
// offset the header fixes, so neither side loops over bytes: both work on
// a fixed-size view of the record and read or write each field with one
// little-endian load or store.
//
// Header: bits 0-2 the address-delta class (0 unless the template is a
// memory operation), bit 3 set when the deps differ from the template's,
// bits 4-7 the template id (`ID_ESCAPE`: the id follows).
const CLASS_MASK: u8 = 0b111;
const DEPS_BIT: u8 = 1 << 3;
const ID_SHIFT: u32 = 4;

/// A header id field equal to this means the template id follows as a
/// `u32`; ids below it are stored in the header itself.
const ID_ESCAPE: u32 = 15;

/// Delta slots (see [`Template::slot`]).
const SLOTS: usize = 16;

/// Longest record: header, escaped id, both deps and an 8-byte delta.
const MAX_RECORD: usize = 17;

/// Zero bytes after a stream's last record. Both sides work on a
/// `MAX_RECORD`-byte view from the start of each record, even a one-byte
/// record, so this much padding keeps every view inside the buffer. It is
/// never decoded.
const PAD: usize = MAX_RECORD;

/// The delta class meaning "the template's last delta again": a strided
/// access takes no delta bytes.
const REPEAT: usize = 5;

/// Bytes the delta takes in each class: 0 is a zero delta, 1–4 and 6 that
/// many bytes, `REPEAT` none, 7 eight bytes.
const DELTA_WIDTH: [usize; 8] = [0, 1, 2, 3, 4, 0, 6, 8];

/// Mask keeping the low `DELTA_WIDTH[class]` bytes of a `u64`.
const DELTA_MASK: [u64; 8] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0,
    0xffff_ffff_ffff,
    u64::MAX,
];

/// The class storing a zigzag delta that needs `n` bytes, by `n`.
const CLASS_OF_BYTES: [u8; 9] = [0, 1, 2, 3, 4, 6, 6, 7, 7];

/// Both deps in one word, as a record stores them: dep1 low, dep2 high.
fn deps_word(insn: &Insn) -> u32 {
    insn.dep1 as u32 | (insn.dep2 as u32) << 16
}

/// One dictionary entry.
#[derive(Debug, Clone, Copy)]
struct Template {
    /// A site's fields and the deps of its first instruction, with the
    /// address left 0.
    insn: Insn,
    /// The delta slot of a memory operation: the slot whose last address
    /// equalled the site's first address, if one did (a store back to the
    /// address just loaded shares the load's slot and takes a zero delta),
    /// else `id % SLOTS`.
    slot: u8,
}

/// The address state the encoder and the decoder keep alike, all 0
/// before the first memory operation.
#[derive(Debug, Clone, Copy, Default)]
struct Deltas {
    /// The last address in each delta slot.
    addr: [u64; SLOTS],
    /// Each template's last delta, by `id % SLOTS`.
    last: [u64; SLOTS],
}

/// An immutable instruction stream for one core in one phase, held as a
/// dictionary of instruction templates plus byte records (see the module
/// docs).
#[derive(Clone, Default)]
pub struct InsnStream {
    /// The records in program order, then `PAD` bytes; empty if no
    /// instruction was ever appended.
    bytes: Vec<u8>,
    /// The templates, indexed by id.
    dict: Box<[Template]>,
    len: usize,
}

impl InsnStream {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes the instructions in program order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bytes: &self.bytes,
            dict: &self.dict,
            pos: 0,
            deltas: Deltas::default(),
            remaining: self.len,
        }
    }
}

impl std::fmt::Debug for InsnStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Insn> for InsnStream {
    fn from_iter<T: IntoIterator<Item = Insn>>(iter: T) -> Self {
        let mut b = StreamBuilder::new();
        for insn in iter {
            b.append(insn);
        }
        b.finish()
    }
}

/// Decoding cursor over an [`InsnStream`], yielding each [`Insn`] by value
/// in program order. [`crate::System::run_phase`] keeps one per core.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bytes: &'a [u8],
    dict: &'a [Template],
    /// Offset of the next record.
    pos: usize,
    deltas: Deltas,
    remaining: usize,
}

impl Iter<'_> {
    /// Decodes the record at `pos`. The buffer and the dictionary are
    /// private to the stream and only [`StreamBuilder`] writes them, so the
    /// records are trusted to be well formed.
    #[inline(always)]
    fn decode(&mut self) -> Insn {
        let at = self.pos;
        let rec: &[u8; MAX_RECORD] = self.bytes[at..at + MAX_RECORD]
            .try_into()
            .expect("padded record view");
        let h = rec[0];
        let u32_at = |i: usize| u32::from_le_bytes(rec[i..i + 4].try_into().expect("4 bytes"));
        let mut id = (h >> ID_SHIFT) as u32;
        let mut n = 1;
        if id == ID_ESCAPE {
            id = u32_at(1);
            n = 5;
        }
        let Template { mut insn, slot } = self.dict[id as usize];
        if h & DEPS_BIT != 0 {
            let deps = u32_at(n);
            insn.dep1 = deps as u16;
            insn.dep2 = (deps >> 16) as u16;
            n += 4;
        }
        if let Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Prefetch { addr } = &mut insn.op
        {
            let class = (h & CLASS_MASK) as usize;
            let z =
                u64::from_le_bytes(rec[n..n + 8].try_into().expect("8 bytes")) & DELTA_MASK[class];
            let (s, d) = (slot as usize % SLOTS, id as usize % SLOTS);
            if class != REPEAT {
                self.deltas.last[d] = (z >> 1) ^ (z & 1).wrapping_neg();
            }
            *addr = self.deltas.addr[s].wrapping_add(self.deltas.last[d]);
            self.deltas.addr[s] = *addr;
            n += DELTA_WIDTH[class];
        }
        self.pos = at + n;
        insn
    }
}

impl Iterator for Iter<'_> {
    type Item = Insn;

    #[inline]
    fn next(&mut self) -> Option<Insn> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.decode())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.remaining
    }
}

/// Entries of [`StreamBuilder`]'s site cache.
const SITE_CACHE: usize = 64;

/// A site: every field of an instruction but its address and deps, packed
/// as op kind (bits 0-7, from 1, so no site is 0), size, latency or branch
/// direction (bits 8-15) and pc (bits 32-63); plus the address, for a
/// memory operation.
fn site(op: &Op) -> (u64, Option<u64>) {
    let pack = |kind: u64, small: u8, pc: u32| kind | (small as u64) << 8 | (pc as u64) << 32;
    match *op {
        Op::Load { addr, size, pc } => (pack(1, size, pc), Some(addr)),
        Op::Store { addr, size, pc } => (pack(2, size, pc), Some(addr)),
        Op::Compute { latency } => (pack(3, latency, 0), None),
        Op::Branch { pc, taken } => (pack(4, taken as u8, pc), None),
        Op::Prefetch { addr } => (pack(5, 0, 0), Some(addr)),
    }
}

/// One site cache entry: a site and its template's id, deps and delta
/// slot. Site 0 marks an empty entry.
#[derive(Debug, Clone, Copy, Default)]
struct CachedSite {
    site: u64,
    id: u32,
    deps: u32,
    slot: u8,
}

/// Incremental builder for an [`InsnStream`]. Emitting methods return the
/// instruction's index, which later instructions can name as a dependency.
///
/// ```
/// use prodigy_sim::core::StreamBuilder;
///
/// // sum += b[a[i]] — a dependent load pair plus the add.
/// let mut b = StreamBuilder::new();
/// let idx = b.load_at(1, 0x1000, 4, &[]);
/// let val = b.load_at(2, 0x2000, 4, &[idx]);
/// b.compute(1, &[val]);
/// assert_eq!(b.finish().len(), 3);
/// ```
#[derive(Debug)]
pub struct StreamBuilder {
    bytes: Vec<u8>,
    len: usize,
    dict: Vec<Template>,
    /// Template id of every site seen, for appends the site cache misses.
    ids: HashMap<u64, u32, FxBuildHasher>,
    /// Direct-mapped (see `append`): the last site seen at each entry, so
    /// the common append finds its template without `ids`.
    cache: [CachedSite; SITE_CACHE],
    deltas: Deltas,
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        StreamBuilder {
            bytes: Vec::new(),
            len: 0,
            dict: Vec::new(),
            ids: HashMap::default(),
            cache: [CachedSite::default(); SITE_CACHE],
            deltas: Deltas::default(),
        }
    }

    /// Index the next emitted instruction will get.
    pub fn next_index(&self) -> usize {
        self.len
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn encode_deps(&self, deps: &[usize]) -> (u16, u16) {
        let here = self.len;
        let mut out = [0u16; 2];
        let mut n = 0;
        for &d in deps.iter().take(2) {
            debug_assert!(d < here, "dependency must reference an earlier instruction");
            let dist = here - d;
            // Producers further back than u16::MAX (≫ ROB size) have retired;
            // dropping the edge cannot change timing.
            if dist <= u16::MAX as usize {
                out[n] = dist as u16;
                n += 1;
            }
        }
        (out[0], out[1])
    }

    /// The template of `insn`'s site, found in or added to the dictionary;
    /// refills the site cache entry `entry`.
    #[cold]
    fn template(&mut self, site: u64, insn: Insn, entry: usize) -> CachedSite {
        let (dict, last_addr) = (&mut self.dict, &self.deltas.addr);
        let id = *self.ids.entry(site).or_insert_with(|| {
            let id = dict.len();
            let mut t = Template {
                insn,
                slot: (id % SLOTS) as u8,
            };
            if let Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Prefetch { addr } =
                &mut t.insn.op
            {
                if let Some(s) = last_addr.iter().position(|&a| a == *addr) {
                    t.slot = s as u8;
                }
                *addr = 0;
            }
            dict.push(t);
            u32::try_from(id).expect("template ids fit a u32")
        });
        let t = self.dict[id as usize];
        let cached = CachedSite {
            site,
            id,
            deps: deps_word(&t.insn),
            slot: t.slot,
        };
        self.cache[entry] = cached;
        cached
    }

    /// Encodes `insn` as the next record. Forced inline: as a call of its
    /// own (the compiler's choice once the dictionary path was added),
    /// encoding took about 27 ns per instruction instead of 8.
    #[inline(always)]
    fn append(&mut self, insn: Insn) {
        let (site, addr) = site(&insn.op);
        // A kernel numbers its static sites consecutively, so the pc's low
        // four bits pick a group of four entries, and the low two bits of
        // kind ^ size (or latency, or direction) tell apart the op kinds,
        // compute latencies and branch directions that share a pc. The
        // bundled kernels' sites then never share an entry.
        let entry = ((site >> 30) + ((site ^ site >> 8) & 3)) as usize % SITE_CACHE;
        let mut t = self.cache[entry];
        if t.site != site {
            t = self.template(site, insn, entry);
        }
        // Room for the longest record, written in place field by field;
        // the room left past the record is cut off at the end.
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; MAX_RECORD]);
        let rec: &mut [u8; MAX_RECORD] =
            (&mut self.bytes[start..]).try_into().expect("record room");
        let mut h = (t.id.min(ID_ESCAPE) as u8) << ID_SHIFT;
        let mut n = 1;
        if t.id >= ID_ESCAPE {
            rec[1..5].copy_from_slice(&t.id.to_le_bytes());
            n = 5;
        }
        let deps = deps_word(&insn);
        if deps != t.deps {
            h |= DEPS_BIT;
            rec[n..n + 4].copy_from_slice(&deps.to_le_bytes());
            n += 4;
        }
        if let Some(addr) = addr {
            let (s, d) = (t.slot as usize % SLOTS, t.id as usize % SLOTS);
            let delta = addr.wrapping_sub(self.deltas.addr[s]);
            let class = if delta == self.deltas.last[d] {
                REPEAT
            } else {
                let d = delta as i64;
                let z = ((d << 1) ^ (d >> 63)) as u64;
                rec[n..n + 8].copy_from_slice(&z.to_le_bytes());
                CLASS_OF_BYTES[(71 - z.leading_zeros() as usize) / 8] as usize
            };
            self.deltas.addr[s] = addr;
            self.deltas.last[d] = delta;
            n += DELTA_WIDTH[class];
            h |= class as u8;
        }
        rec[0] = h;
        self.bytes.truncate(start + n);
        self.len += 1;
    }

    #[inline(always)]
    fn push(&mut self, op: Op, deps: &[usize]) -> usize {
        let (dep1, dep2) = self.encode_deps(deps);
        self.append(Insn { op, dep1, dep2 });
        self.len - 1
    }

    /// Emits a load with no register dependencies.
    pub fn load(&mut self, addr: u64, size: u8) -> usize {
        self.push(Op::Load { addr, size, pc: 0 }, &[])
    }

    /// Emits a load at static site `pc`, depending on up to two producers.
    pub fn load_at(&mut self, pc: u32, addr: u64, size: u8, deps: &[usize]) -> usize {
        self.push(Op::Load { addr, size, pc }, deps)
    }

    /// Emits a store at static site `pc`.
    pub fn store_at(&mut self, pc: u32, addr: u64, size: u8, deps: &[usize]) -> usize {
        self.push(Op::Store { addr, size, pc }, deps)
    }

    /// Emits a compute instruction.
    pub fn compute(&mut self, latency: u8, deps: &[usize]) -> usize {
        self.push(Op::Compute { latency }, deps)
    }

    /// Emits a conditional branch with actual direction `taken`.
    pub fn branch(&mut self, pc: u32, taken: bool, deps: &[usize]) -> usize {
        self.push(Op::Branch { pc, taken }, deps)
    }

    /// Emits a software prefetch of the line containing `addr`.
    pub fn prefetch(&mut self, addr: u64, deps: &[usize]) -> usize {
        self.push(Op::Prefetch { addr }, deps)
    }

    /// Finalises the stream.
    pub fn finish(mut self) -> InsnStream {
        if self.len > 0 {
            self.bytes.resize(self.bytes.len() + PAD, 0);
        }
        InsnStream {
            bytes: self.bytes,
            dict: self.dict.into_boxed_slice(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_encodes_relative_deps() {
        let mut b = StreamBuilder::new();
        let a = b.load(0x100, 8);
        let c = b.compute(1, &[a]);
        b.branch(7, true, &[c, a]);
        let s: Vec<Insn> = b.finish().iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].dep1, 1);
        assert_eq!(s[2].dep1, 1);
        assert_eq!(s[2].dep2, 2);
    }

    #[test]
    fn distant_deps_are_dropped() {
        let mut b = StreamBuilder::new();
        let first = b.load(0, 8);
        for _ in 0..(u16::MAX as usize + 10) {
            b.compute(1, &[]);
        }
        let i = b.load_at(1, 64, 8, &[first]);
        let s = b.finish();
        assert_eq!(s.iter().nth(i).unwrap().dep1, 0, "beyond-ROB dep dropped");
    }

    #[test]
    fn strides_and_stores_back_take_no_delta_bytes() {
        // a[i] += 1 over an 8-byte array. The load's first two deltas are
        // stored (3 and 2 bytes with headers); from then on it repeats its
        // last delta, and the store shares the load's delta slot and
        // repeats its zero delta, so every other record is a header alone.
        let mut b = StreamBuilder::new();
        for i in 0..1000 {
            let ld = b.load_at(1, 0x1000 + 8 * i, 8, &[]);
            let inc = b.compute(1, &[ld]);
            b.store_at(2, 0x1000 + 8 * i, 8, &[inc]);
        }
        let s = b.finish();
        assert_eq!(s.bytes.len() - PAD, 3000 + 2 + 1);
        let last = s.iter().last().map(|insn| insn.op);
        let want = Op::Store {
            addr: 0x1000 + 8 * 999,
            size: 8,
            pc: 2,
        };
        assert_eq!(last, Some(want));
    }

    #[test]
    fn stream_collects_from_iterator() {
        let s: InsnStream = (0..4)
            .map(|i| Insn {
                op: Op::Compute {
                    latency: i as u8 + 1,
                },
                dep1: 0,
                dep2: 0,
            })
            .collect();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_streams_decode_to_nothing() {
        assert_eq!(InsnStream::default().iter().next(), None);
        let s = StreamBuilder::new().finish();
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }

    /// Bytes per instruction of a finished stream, padding and dictionary
    /// included.
    fn bytes_per_insn(s: &InsnStream) -> f64 {
        let dict = std::mem::size_of_val(&*s.dict);
        (s.bytes.len() + dict) as f64 / s.len() as f64
    }

    /// A 64-bit LCG step (the kernels' input generators use the same one).
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    #[test]
    fn pr_gather_stream_encodes_compactly() {
        // PageRank's CSC pull: per vertex two offset loads and an
        // accumulator, per edge an index load, a scattered 8-byte contrib
        // load and an FP add; then the score store.
        const V: u64 = 96_000;
        let (off, edg) = (0x10_0000u64, 0x20_0000u64);
        let (contrib, scores) = (0x80_0000u64, 0xa0_0000u64);
        let mut b = StreamBuilder::new();
        let mut x = 1;
        let mut w = 0;
        for u in 0..20_000 {
            let lo = b.load_at(40, off + 4 * u, 4, &[]);
            b.load_at(41, off + 4 * (u + 1), 4, &[]);
            let mut acc = b.compute(1, &[]);
            for _ in 0..lcg(&mut x) % 28 {
                let e = b.load_at(42, edg + 4 * w, 4, &[lo]);
                let c = b.load_at(43, contrib + 8 * (lcg(&mut x) % V), 8, &[e]);
                acc = b.compute(4, &[c, acc]);
                w += 1;
            }
            b.store_at(44, scores + 8 * u, 8, &[acc]);
        }
        let s = b.finish();
        assert!(s.len() > 500_000);
        let bpi = bytes_per_insn(&s);
        assert!(bpi <= 4.0, "pr gather: {bpi:.2} bytes per instruction");
    }

    #[test]
    fn is_ranking_stream_encodes_compactly() {
        // NAS IS ranking: rank[i] = count[keys[i]]++ over 500k buckets.
        const BUCKETS: u64 = 500_000;
        let (keys, count, rank) = (0x10_0000u64, 0x90_0000u64, 0x110_0000u64);
        let mut b = StreamBuilder::new();
        let mut x = 1;
        for i in 0..200_000 {
            let k = lcg(&mut x) % BUCKETS;
            let ld_k = b.load_at(900, keys + 4 * i, 4, &[]);
            let ld_c = b.load_at(903, count + 4 * k, 4, &[ld_k]);
            let inc = b.compute(1, &[ld_c]);
            b.store_at(904, rank + 4 * i, 4, &[inc]);
            b.store_at(902, count + 4 * k, 4, &[inc]);
        }
        let s = b.finish();
        let bpi = bytes_per_insn(&s);
        assert!(bpi <= 4.0, "is ranking: {bpi:.2} bytes per instruction");
    }
}
