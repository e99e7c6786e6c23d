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
//! load before the loop), which would mint a template per iteration. A
//! site without an address (compute, branch) takes a second template when
//! its deps alternate between two shapes (spmv's multiply and add share a
//! latency), so the dictionary holds at most two templates per static
//! site, however long the stream.
//!
//! [`StreamBuilder`] appends each instruction as one variable-length byte
//! record: a header byte naming the template (ids from 15 on follow as a
//! `u32`), a rule byte only when no template of the site predicts the
//! deps, and, for a memory operation, the zigzag-encoded delta from the
//! last address in the template's delta slot. Each template keeps a deps
//! prediction, alike on both sides: fixed distances, or distances to fixed
//! producers, which grow with the index. A rule byte replaces it with the
//! template's own deps, the producers of its last instance, an explicit
//! pair, or the producers of its own deps at this instruction (a loop
//! entered again). There are 16 delta slots. A template takes slot
//! `id % 16`, or shares the slot whose last address equals its first one
//! (a store back to the address just loaded). A delta equal to the
//! template's last delta (a strided access) takes no bytes.
//! [`InsnStream::iter`] copies each record's template and fills in its
//! deps and address. The bundled kernels encode at 1.2–1.8 bytes per
//! instruction. DESIGN.md §13 gives the record table.

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
// rule bit is set, a rule byte, and after an `EXPLICIT` rule byte dep1 and
// dep2 as two `u16`s; and last, for a memory operation, the zigzag address
// delta (0–8 bytes). Every field sits at an offset the header and the rule
// byte fix, so neither side loops over bytes: both work on a fixed-size
// view of the record and read or write each field with one little-endian
// load or store.
//
// Header: bits 0-2 the address-delta class (0 unless the template is a
// memory operation), bit 3 set when a rule byte follows, bits 4-7 the
// template id (`ID_ESCAPE`: the id follows).
const CLASS_MASK: u8 = 0b111;
const RULE_BIT: u8 = 1 << 3;
const ID_SHIFT: u32 = 4;

/// A header id field equal to this means the template id follows as a
/// `u32`; ids below it are stored in the header itself.
const ID_ESCAPE: u32 = 15;

/// Delta slots (see [`Template::slot`]).
const SLOTS: usize = 16;

// Rule byte: bits 0-1 the rule, bits 2-7 the gap back to the template's
// last instance (`SAME` only). Each template keeps a prediction of its
// instances' deps (see `Prediction`), and a record without a rule byte
// takes it; a rule byte first replaces the prediction, and the record then
// takes the new one.
/// The template's own deps, as a fixed pair: a fixed shape, or the first
/// iteration of a loop whose body depends on an instruction before it.
const OWN: u8 = 0;
/// The producers of the template's last instance, `gap` instructions back:
/// each distance then grows with the index, as in a loop body that depends
/// on an instruction before the loop.
const SAME: u8 = 1;
/// An explicit pair follows the rule byte, and becomes a fixed prediction.
const EXPLICIT: u8 = 2;
/// The template's own deps, whose producers the prediction then names:
/// the next entry into a loop whose body depends on an instruction before
/// it, for a template already predicting from producers.
const ANCHOR: u8 = 3;
const RULE_MASK: u8 = 0b11;
const GAP_SHIFT: u32 = 2;
/// The longest gap a `SAME` rule byte holds.
const MAX_GAP: u16 = 0xff >> GAP_SHIFT;

/// Longest record: header, escaped id, rule byte, both deps and an 8-byte
/// delta.
const MAX_RECORD: usize = 18;

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

/// A template's deps prediction. At instruction index `i` it is, for each
/// dep, `k + (i & grow)` mod 2^16: `grow` is 0 for a fixed pair, and all
/// ones for a dep that names a fixed producer (`k` is then the distance
/// minus the index). The encoder and each decoding cursor keep every
/// template's prediction alike, starting from its own deps; only a rule
/// byte changes it. Working mod 2^16 keeps every prediction a `u16`: a
/// producer more than `u16::MAX` back (where `encode_deps` drops the edge)
/// wraps, but the encoder takes a prediction only when it equals the
/// instruction's pair, so that costs bytes, never exactness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Prediction {
    k: [u16; 2],
    grow: [u16; 2],
}

impl Prediction {
    /// The fixed pair `deps`.
    fn fixed(deps: [u16; 2]) -> Self {
        Prediction {
            k: deps,
            grow: [0; 2],
        }
    }

    /// The deps predicted at instruction index `i` (mod 2^16).
    #[inline(always)]
    fn at(&self, i: u16) -> [u16; 2] {
        [
            self.k[0].wrapping_add(i & self.grow[0]),
            self.k[1].wrapping_add(i & self.grow[1]),
        ]
    }

    /// The prediction naming the producers of `deps` at index `j`: each at
    /// `j - dep` (none when 0).
    #[inline(always)]
    fn producers(deps: [u16; 2], j: u16) -> Self {
        let grow = deps.map(|d| if d == 0 { 0 } else { u16::MAX });
        Prediction {
            k: [0, 1].map(|d| deps[d].wrapping_sub(j) & grow[d]),
            grow,
        }
    }

    /// The prediction the rule byte `byte` at index `i` replaces this one
    /// with, given the template's own deps `own` and the explicit `pair`.
    /// Out of line, so the decoding loop keeps its state in registers.
    #[cold]
    #[inline(never)]
    fn rule(&self, byte: u8, i: u16, own: [u16; 2], pair: [u16; 2]) -> Prediction {
        match byte & RULE_MASK {
            OWN => Prediction::fixed(own),
            SAME => {
                // The last instance, at index `j`.
                let j = i.wrapping_sub((byte >> GAP_SHIFT) as u16);
                Prediction::producers(self.at(j), j)
            }
            EXPLICIT => Prediction::fixed(pair),
            _ => Prediction::producers(own, i),
        }
    }
}

/// Both deps in one word, as a record stores them: dep1 low, dep2 high.
fn deps_word(deps: [u16; 2]) -> u32 {
    deps[0] as u32 | (deps[1] as u32) << 16
}

/// The deps of a [`deps_word`].
fn split(word: u32) -> [u16; 2] {
    [word as u16, (word >> 16) as u16]
}

/// One dictionary entry.
#[derive(Debug, Clone, Copy)]
struct Template {
    /// A site's fields with the address left 0, and as its deps those of
    /// the instruction that minted the template. In a decoding cursor's
    /// copy, the deps and `grow` are the template's current [`Prediction`]
    /// instead.
    insn: Insn,
    /// The delta slot of a memory operation: the slot whose last address
    /// equalled the site's first address, if one did (a store back to the
    /// address just loaded shares the load's slot and takes a zero delta),
    /// else `id % SLOTS`.
    slot: u8,
    /// 0 in the stream's dictionary.
    grow: [u16; 2],
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
            work: self.dict.clone(),
            pos: 0,
            deltas: Deltas::default(),
            count: self.len,
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
    /// The stream's dictionary, for each template's own deps.
    dict: &'a [Template],
    /// A copy of it holding each template's current deps prediction.
    work: Box<[Template]>,
    /// Offset of the next record.
    pos: usize,
    deltas: Deltas,
    /// Instructions in the stream.
    count: usize,
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
        let t = &mut self.work[id as usize];
        if h & RULE_BIT != 0 {
            let (byte, pair) = (rec[n], split(u32_at(n + 1)));
            let i = (self.count - self.remaining - 1) as u16;
            let own = &self.dict[id as usize].insn;
            let pred = Prediction {
                k: [t.insn.dep1, t.insn.dep2],
                grow: t.grow,
            };
            let pred = pred.rule(byte, i, [own.dep1, own.dep2], pair);
            [t.insn.dep1, t.insn.dep2] = pred.k;
            t.grow = pred.grow;
            n += if byte & RULE_MASK == EXPLICIT { 5 } else { 1 };
        }
        let Template {
            mut insn,
            slot,
            grow,
        } = *t;
        if grow != [0; 2] {
            let i = (self.count - self.remaining - 1) as u16;
            insn.dep1 = insn.dep1.wrapping_add(i & grow[0]);
            insn.dep2 = insn.dep2.wrapping_add(i & grow[1]);
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

    /// Forced inline: the decoding loop is its caller's loop.
    #[inline(always)]
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

/// The second id of a site without a second template.
const NO_TWIN: u32 = u32::MAX;

/// A template's deps prediction, as the encoder keeps it, with the indices
/// (mod 2^16) of its last instance and of its last `ANCHOR` record.
#[derive(Debug, Clone, Copy, Default)]
struct Tracked {
    pred: Prediction,
    last: u16,
    anchor: u16,
}

/// One site cache entry: a site, its templates' ids (the second `NO_TWIN`
/// until the site has one) and predictions, and its delta slot. Site 0
/// marks an empty entry. While a site is cached its entry holds its
/// templates' predictions, and `StreamBuilder::work` holds them otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct CachedSite {
    site: u64,
    ids: [u32; 2],
    tracked: [Tracked; 2],
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
    /// Template ids of every site seen (the second `NO_TWIN` until the
    /// site has one), for appends the site cache misses.
    ids: HashMap<u64, [u32; 2], FxBuildHasher>,
    /// Direct-mapped (see `append`): the last site seen at each entry, so
    /// the common append finds its template without `ids`.
    cache: [CachedSite; SITE_CACHE],
    deltas: Deltas,
    /// Each template's prediction while its site is not cached.
    work: Vec<Tracked>,
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
            work: Vec::new(),
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

    /// Adds `insn` as the next template, its address left 0 and its delta
    /// slot `slot`, and returns its id.
    fn mint(&mut self, mut insn: Insn, slot: u8) -> u32 {
        let id = u32::try_from(self.dict.len()).expect("template ids fit a u32");
        if let Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Prefetch { addr } = &mut insn.op
        {
            *addr = 0;
        }
        self.dict.push(Template {
            insn,
            slot,
            grow: [0; 2],
        });
        self.work.push(Tracked {
            pred: Prediction::fixed([insn.dep1, insn.dep2]),
            ..Tracked::default()
        });
        id
    }

    /// Refills the site cache entry `entry` with `insn`'s site, its template
    /// found in or added to the dictionary, first putting back the
    /// predictions of the site it held.
    #[cold]
    fn template(&mut self, site: u64, insn: Insn, entry: usize) {
        let old = self.cache[entry];
        for (&id, &tracked) in old.ids.iter().zip(&old.tracked) {
            if old.site != 0 && id != NO_TWIN {
                self.work[id as usize] = tracked;
            }
        }
        let ids = match self.ids.get(&site) {
            Some(&ids) => ids,
            None => {
                let mut slot = (self.dict.len() % SLOTS) as u8;
                if let (_, Some(addr)) = self::site(&insn.op) {
                    if let Some(s) = self.deltas.addr.iter().position(|&a| a == addr) {
                        slot = s as u8;
                    }
                }
                let ids = [self.mint(insn, slot), NO_TWIN];
                self.ids.insert(site, ids);
                ids
            }
        };
        let tracked = |id: u32| self.work.get(id as usize).copied().unwrap_or_default();
        self.cache[entry] = CachedSite {
            site,
            ids,
            tracked: ids.map(tracked),
            slot: self.dict[ids[0] as usize].slot,
        };
    }

    /// The template and rule byte of `insn`, whose site is cached at
    /// `entry`, when neither of its templates' predictions holds and
    /// `append` did not re-anchor the first, in order of preference: a
    /// second template minted with `insn`'s deps (for a site without an
    /// address and without one yet), a rule byte replacing either
    /// template's prediction, an explicit pair on the first. Applies the
    /// rule byte and records the instance.
    #[cold]
    fn choose(&mut self, entry: usize, insn: Insn) -> (u32, Option<u8>) {
        let (i, want) = (self.len as u16, [insn.dep1, insn.dep2]);
        let t = &mut self.cache[entry];
        if t.ids[1] == NO_TWIN && site(&insn.op).1.is_none() {
            let id = u32::try_from(self.dict.len()).expect("template ids fit a u32");
            t.ids[1] = id;
            t.tracked[1] = Tracked {
                pred: Prediction::fixed(want),
                last: i,
                anchor: 0,
            };
            self.ids.insert(t.site, t.ids);
            self.mint(insn, (id as usize % SLOTS) as u8);
            return (id, None);
        }
        for w in 0..2 {
            let id = t.ids[w];
            if id == NO_TWIN {
                break;
            }
            let own = &self.dict[id as usize].insn;
            let own = [own.dep1, own.dep2];
            let tracked = &mut t.tracked[w];
            if own == want {
                // Predicting from producers, a loop is entered again: keep
                // doing so from the new ones, unless the last entry's
                // anchor was not followed by a hit.
                let byte = if tracked.pred.grow != [0; 2] && tracked.last != tracked.anchor {
                    tracked.anchor = i;
                    ANCHOR
                } else {
                    OWN
                };
                tracked.pred = tracked.pred.rule(byte, i, own, want);
                tracked.last = i;
                return (id, Some(byte));
            }
            // `SAME`: the last instance's deps, each naming a producer that
            // is now `gap` further back.
            let gap = i.wrapping_sub(tracked.last);
            let last = tracked.pred.at(tracked.last);
            let same = last.map(|d| if d == 0 { 0 } else { d.wrapping_add(gap) });
            if (1..=MAX_GAP).contains(&gap) && same == want {
                let byte = SAME | (gap as u8) << GAP_SHIFT;
                tracked.pred = tracked.pred.rule(byte, i, own, want);
                tracked.last = i;
                return (id, Some(byte));
            }
        }
        t.tracked[0].pred = Prediction::fixed(want);
        t.tracked[0].last = i;
        (t.ids[0], Some(EXPLICIT))
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
        if self.cache[entry].site != site {
            self.template(site, insn, entry);
        }
        let (i, deps) = (self.len as u16, [insn.dep1, insn.dep2]);
        let t = &mut self.cache[entry];
        let slot = t.slot;
        let first = &mut t.tracked[0];
        // Most predictions are a fixed pair: compare it without the index.
        let p = &first.pred;
        let hit = if p.grow == [0; 2] {
            p.k == deps
        } else {
            p.at(i) == deps
        };
        let (id, byte) = if hit {
            first.last = i;
            (t.ids[0], None)
        } else if t.ids[1] != NO_TWIN && t.tracked[1].pred.at(i) == deps {
            t.tracked[1].last = i;
            (t.ids[1], None)
        } else if t.tracked[0].pred.grow != [0; 2] && t.tracked[0].last != t.tracked[0].anchor && {
            let own = &self.dict[t.ids[0] as usize].insn;
            [own.dep1, own.dep2] == deps
        } {
            // A loop entered again: `choose`'s `ANCHOR`, without the call.
            t.tracked[0] = Tracked {
                pred: Prediction::producers(deps, i),
                last: i,
                anchor: i,
            };
            (t.ids[0], Some(ANCHOR))
        } else {
            self.choose(entry, insn)
        };
        // Room for the longest record, written in place field by field;
        // the room left past the record is cut off at the end.
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; MAX_RECORD]);
        let rec: &mut [u8; MAX_RECORD] =
            (&mut self.bytes[start..]).try_into().expect("record room");
        let mut h = (id.min(ID_ESCAPE) as u8) << ID_SHIFT;
        let mut n = 1;
        if id >= ID_ESCAPE {
            rec[1..5].copy_from_slice(&id.to_le_bytes());
            n = 5;
        }
        if let Some(byte) = byte {
            h |= RULE_BIT;
            rec[n] = byte;
            if byte == EXPLICIT {
                rec[n + 1..n + 5].copy_from_slice(&deps_word(deps).to_le_bytes());
                n += 4;
            }
            n += 1;
        }
        if let Some(addr) = addr {
            let (s, d) = (slot as usize % SLOTS, id as usize % SLOTS);
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
    fn loop_deps_take_rule_bytes_only_at_loop_entry() {
        // for v { lo = off[v]; hi = off[v + 1]; acc; 4 x ld(edg[w]) after
        // lo }: each edge load depends on the load before its loop.
        let mut b = StreamBuilder::new();
        let mut w = 0;
        for v in 0..100 {
            let lo = b.load_at(1, 0x1000 + 4 * v, 4, &[]);
            b.load_at(2, 0x1004 + 4 * v, 4, &[]);
            b.compute(1, &[]);
            for _ in 0..4 {
                b.load_at(3, 0x8000 + 4 * w, 4, &[lo]);
                w += 1;
            }
        }
        let s = b.finish();
        assert_eq!(s.dict.len(), 4);
        // A header per instruction; the first two deltas of each load site
        // (2 + 1, 2 + 1 and 3 + 1 bytes), then strides; and one rule byte
        // per loop: the first vertex's second edge switches to naming its
        // last instance's producer, and every later vertex's first edge
        // anchors that at its own distance (3) from the new producer. No
        // record stores deps.
        assert_eq!(s.bytes.len() - PAD, 700 + 10 + (1 + 99));
        let edges: Vec<u16> = s.iter().skip(3).take(4).map(|i| i.dep1).collect();
        assert_eq!(edges, [3, 4, 5, 6]);
    }

    #[test]
    fn alternating_shapes_take_at_most_two_templates() {
        // Three compute shapes cycle at one latency: the site gets a second
        // template and no third, and the third shape's deps are explicit.
        let mut b = StreamBuilder::new();
        let mut want = Vec::new();
        let ld = b.load_at(1, 0x1000, 8, &[]);
        for k in 0..300 {
            let deps: &[usize] = match k % 3 {
                0 => &[ld],
                1 => &[b.next_index() - 1, ld],
                _ => &[],
            };
            let i = b.compute(4, deps);
            let d = |j: usize| deps.get(j).map_or(0, |&p| (i - p) as u16);
            want.push(Insn {
                op: Op::Compute { latency: 4 },
                dep1: d(0),
                dep2: d(1),
            });
        }
        let s = b.finish();
        assert_eq!(s.dict.len(), 3, "the load's template and two compute");
        assert_eq!(s.iter().skip(1).collect::<Vec<_>>(), want);
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
        assert!(bpi <= 2.1, "pr gather: {bpi:.2} bytes per instruction");
    }

    #[test]
    fn spmv_row_stream_encodes_compactly() {
        // HPCG spmv on a 27-point stencil: per row two offset loads and an
        // accumulator, per nonzero a column and a value load off the row's
        // offset load, the x gather, a multiply and the accumulate (two
        // compute shapes at one latency); then the y store.
        const SIDE: i64 = 40;
        const ROWS: i64 = SIDE * SIDE * SIDE;
        let (off, col, val) = (0x10_0000u64, 0x20_0000u64, 0x80_0000u64);
        let (x, y) = (0x180_0000u64, 0x1a0_0000u64);
        let mut b = StreamBuilder::new();
        let mut k = 0;
        for r in 0..20_000 {
            let lo = b.load_at(20, off + 4 * r as u64, 4, &[]);
            b.load_at(21, off + 4 * (r as u64 + 1), 4, &[]);
            let mut acc = b.compute(1, &[]);
            for nz in 0..27 {
                let (dx, dy, dz) = (nz % 3 - 1, nz / 3 % 3 - 1, nz / 9 - 1);
                let c = (r + dx + SIDE * dy + SIDE * SIDE * dz).rem_euclid(ROWS) as u64;
                let ld_c = b.load_at(22, col + 4 * k, 4, &[lo]);
                let ld_v = b.load_at(23, val + 8 * k, 8, &[lo]);
                let ld_x = b.load_at(24, x + 8 * c, 8, &[ld_c]);
                let mul = b.compute(4, &[ld_v, ld_x]);
                acc = b.compute(4, &[mul, acc]);
                k += 1;
            }
            b.store_at(25, y + 8 * r as u64, 8, &[acc]);
        }
        let s = b.finish();
        assert!(s.len() > 2_000_000);
        let bpi = bytes_per_insn(&s);
        assert!(bpi <= 1.33, "spmv rows: {bpi:.2} bytes per instruction");
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
