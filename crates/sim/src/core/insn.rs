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
//! [`Insn`] values (24 bytes each): [`StreamBuilder`] appends every
//! instruction as one variable-length byte record, and
//! [`InsnStream::iter`] decodes the records in program order. A record is a
//! header byte followed by only the fields its operation has; a memory
//! address is stored as the zigzag-encoded delta from the previous memory
//! address in the same stream, which mostly needs far fewer than 8 bytes.
//! The bundled kernels encode at 7–9 bytes per instruction. DESIGN.md §13
//! gives the record table.

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

// Record layout (DESIGN.md §13): a header byte, then the fields the
// operation has, in this order: size or latency (1 byte); pc (`u16`);
// the zigzag address delta (0–8 bytes); each nonzero dep (`u16`); and last,
// only when the `u16` pc is `PC_ESCAPE`, the full pc (`u32`). Every field
// but the deps and that rare tail sits at an offset fixed by the op kind,
// so neither side loops over bytes: both work on a fixed-size view of the
// record and read or write each field with one little-endian load or store.
//
// Header: bits 0-2 the op kind, bit 3 set when dep1 is nonzero, bit 4 set
// when dep2 is nonzero, bits 5-7 a field that holds a branch's direction or
// a memory operation's address-delta width class.
const KIND_MASK: u8 = 0b111;
const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_COMPUTE: u8 = 2;
const KIND_BRANCH: u8 = 3;
const KIND_PREFETCH: u8 = 4;
const DEP1_SHIFT: u32 = 3;
const DEP2_SHIFT: u32 = 4;
const FIELD_SHIFT: u32 = 5;

/// A `u16` pc field equal to this means the full `u32` pc ends the record.
const PC_ESCAPE: u16 = u16::MAX;

/// Longest record: header, size, pc, 8-byte address delta, two deps and
/// the escaped pc.
const MAX_RECORD: usize = 20;

/// Zero bytes after a stream's last record. Both sides work on a
/// `MAX_RECORD`-byte view from the start of each record, even a one-byte
/// record, so this much padding keeps every view inside the buffer. It is
/// never decoded.
const PAD: usize = MAX_RECORD;

/// Bytes an address delta takes in each width class.
const DELTA_WIDTH: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 8];

/// Mask keeping the low `DELTA_WIDTH[class]` bytes of a `u64`.
const DELTA_MASK: [u64; 8] = [
    0,
    0xff,
    0xffff,
    0xff_ffff,
    0xffff_ffff,
    0xff_ffff_ffff,
    0xffff_ffff_ffff,
    u64::MAX,
];

/// An immutable instruction stream for one core in one phase, held as
/// byte records (see the module docs).
#[derive(Clone, Default)]
pub struct InsnStream {
    /// The records in program order, then `PAD` bytes; empty if no
    /// instruction was ever appended.
    bytes: Vec<u8>,
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
            pos: 0,
            prev_addr: 0,
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
    /// Offset of the next record.
    pos: usize,
    /// Address of the last memory operation decoded (0 before the first).
    prev_addr: u64,
    remaining: usize,
}

impl Iter<'_> {
    /// Decodes the record at `pos`. The buffer is private to the stream and
    /// only [`StreamBuilder`] writes it, so the records are trusted to be
    /// well formed.
    #[inline(always)]
    fn decode(&mut self) -> Insn {
        let at = self.pos;
        let rec: &[u8; MAX_RECORD] = self.bytes[at..at + MAX_RECORD]
            .try_into()
            .expect("padded record view");
        let h = rec[0];
        let class = (h >> FIELD_SHIFT) as usize;
        let has1 = (h >> DEP1_SHIFT) as usize & 1;
        let has2 = (h >> DEP2_SHIFT) as usize & 1;
        let dep_bytes = 2 * (has1 + has2);
        let u16_at = |i: usize| u16::from_le_bytes([rec[i], rec[i + 1]]);
        let u64_at = |i: usize| u64::from_le_bytes(rec[i..i + 8].try_into().expect("8 bytes"));
        // An escaped pc's `u32` follows the deps of a record whose fields
        // before them take `body` bytes.
        let mut tail = 0;
        let mut pc = |short: u16, body: usize| {
            if short != PC_ESCAPE {
                return short as u32;
            }
            let end = body + dep_bytes;
            tail = 4;
            u32::from_le_bytes(rec[end..end + 4].try_into().expect("4-byte pc"))
        };
        let mut addr = |z: u64| {
            let z = z & DELTA_MASK[class];
            self.prev_addr = self
                .prev_addr
                .wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
            self.prev_addr
        };
        let (op, body) = match h & KIND_MASK {
            KIND_COMPUTE => (Op::Compute { latency: rec[1] }, 2),
            KIND_BRANCH => {
                let (pc, taken) = (pc(u16_at(1), 3), class != 0);
                (Op::Branch { pc, taken }, 3)
            }
            KIND_PREFETCH => {
                let addr = addr(u64_at(1));
                (Op::Prefetch { addr }, 1 + DELTA_WIDTH[class])
            }
            kind => {
                let body = 4 + DELTA_WIDTH[class];
                let (size, pc, addr) = (rec[1], pc(u16_at(2), body), addr(u64_at(4)));
                let op = if kind == KIND_LOAD {
                    Op::Load { addr, size, pc }
                } else {
                    Op::Store { addr, size, pc }
                };
                (op, body)
            }
        };
        // Both deps from one read (`body` is at most 12, so the mask only
        // shows the compiler the read is in bounds): a present dep takes
        // two bytes, an absent one none, and the masks zero what is absent.
        let deps = u32::from_le_bytes(rec[body & 15..][..4].try_into().expect("4 bytes"));
        let dep1 = deps as u16 & (has1 as u16).wrapping_neg();
        let dep2 = (deps >> (16 * has1)) as u16 & (has2 as u16).wrapping_neg();
        self.pos = at + body + dep_bytes + tail;
        Insn { op, dep1, dep2 }
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
#[derive(Debug, Default)]
pub struct StreamBuilder {
    bytes: Vec<u8>,
    len: usize,
    /// Address of the last memory operation appended (0 before the first).
    prev_addr: u64,
}

impl StreamBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
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

    /// Encodes `insn` as the next record.
    #[inline]
    fn append(&mut self, insn: Insn) {
        // The fields the op has: kind, size or latency, pc, address, and
        // the header field (a branch's direction; a delta class set below).
        let (kind, byte, pc, addr, mut field) = match insn.op {
            Op::Load { addr, size, pc } => (KIND_LOAD, Some(size), Some(pc), Some(addr), 0),
            Op::Store { addr, size, pc } => (KIND_STORE, Some(size), Some(pc), Some(addr), 0),
            Op::Compute { latency } => (KIND_COMPUTE, Some(latency), None, None, 0),
            Op::Branch { pc, taken } => (KIND_BRANCH, None, Some(pc), None, taken as u8),
            Op::Prefetch { addr } => (KIND_PREFETCH, None, None, Some(addr), 0),
        };
        // Room for the longest record, written in place field by field;
        // the room left past the record is cut off at the end.
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; MAX_RECORD]);
        let rec: &mut [u8; MAX_RECORD] =
            (&mut self.bytes[start..]).try_into().expect("record room");
        let mut n = 1;
        if let Some(byte) = byte {
            rec[n] = byte;
            n += 1;
        }
        if let Some(pc) = pc {
            let short = pc.min(PC_ESCAPE as u32) as u16;
            rec[n..n + 2].copy_from_slice(&short.to_le_bytes());
            n += 2;
        }
        if let Some(addr) = addr {
            let delta = addr.wrapping_sub(self.prev_addr) as i64;
            self.prev_addr = addr;
            let z = ((delta << 1) ^ (delta >> 63)) as u64;
            // Bytes the delta needs, 0..=8; seven-byte deltas take class 7.
            let class = ((71 - z.leading_zeros()) / 8).min(7);
            rec[n..n + 8].copy_from_slice(&z.to_le_bytes());
            n += DELTA_WIDTH[class as usize];
            field = class as u8;
        }
        let (has1, has2) = (insn.dep1 != 0, insn.dep2 != 0);
        rec[n..n + 2].copy_from_slice(&insn.dep1.to_le_bytes());
        n += 2 * has1 as usize;
        rec[n..n + 2].copy_from_slice(&insn.dep2.to_le_bytes());
        n += 2 * has2 as usize;
        if let Some(pc) = pc.filter(|&pc| pc >= PC_ESCAPE as u32) {
            rec[n..n + 4].copy_from_slice(&pc.to_le_bytes());
            n += 4;
        }
        rec[0] =
            kind | (has1 as u8) << DEP1_SHIFT | (has2 as u8) << DEP2_SHIFT | field << FIELD_SHIFT;
        self.bytes.truncate(start + n);
        self.len += 1;
    }

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

    /// Bytes per instruction of a finished stream, padding included.
    fn bytes_per_insn(s: &InsnStream) -> f64 {
        s.bytes.len() as f64 / s.len() as f64
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
        assert!(bpi <= 10.0, "pr gather: {bpi:.2} bytes per instruction");
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
        assert!(bpi <= 10.0, "is ranking: {bpi:.2} bytes per instruction");
    }
}
