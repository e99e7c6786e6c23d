//! Next-N-line stream prefetcher — the simplest "traditional" design the
//! paper groups with stride/GHB (§VI-C disables exactly this family when
//! Prodigy runs). On an L1 miss it fetches the next `degree` sequential
//! lines; a tiny stream table confirms an ascending pattern first so random
//! pointer chases don't trigger it.

use prodigy_sim::line_of;
use prodigy_sim::prefetch::{DemandAccess, FillEvent, PrefetchCtx, Prefetcher};
use prodigy_sim::{ServedBy, LINE_BYTES};
use std::any::Any;

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last_line: u64,
    confidence: u8,
    valid: bool,
}

/// Next-N-line stream prefetcher with miss-confirmed streams.
#[derive(Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    degree: u64,
}

impl Default for StreamPrefetcher {
    fn default() -> Self {
        Self::new(16, 4)
    }
}

impl StreamPrefetcher {
    /// Creates a prefetcher tracking `slots` concurrent streams, running
    /// `degree` lines ahead.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, degree: u64) -> Self {
        assert!(slots > 0, "need at least one stream slot");
        StreamPrefetcher {
            streams: vec![Stream::default(); slots],
            degree,
        }
    }
}

impl Prefetcher for StreamPrefetcher {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn on_demand(&mut self, ctx: &mut PrefetchCtx<'_>, a: &DemandAccess) {
        // Train on accesses that leave the L1 (misses and deeper hits).
        if a.served == ServedBy::L1 {
            return;
        }
        let line = line_of(a.vaddr);
        // Find a stream this access continues (same or next line).
        if let Some((slot, s)) = self
            .streams
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| s.valid)
            .find(|(_, s)| line == s.last_line || line == s.last_line + LINE_BYTES)
        {
            if line == s.last_line + LINE_BYTES {
                s.confidence = s.confidence.saturating_add(1);
            }
            s.last_line = line;
            if s.confidence == 2 {
                ctx.trace_note("stream-confirmed", a.vaddr);
            }
            if s.confidence >= 2 {
                for d in 1..=self.degree {
                    // Attribute to the stream slot for a per-stream breakdown.
                    ctx.prefetch(line + d * LINE_BYTES, slot as u16);
                }
            }
            return;
        }
        // Allocate (steal the least-confident slot).
        let victim = self
            .streams
            .iter_mut()
            .min_by_key(|s| if s.valid { s.confidence as u32 + 1 } else { 0 })
            .expect("at least one slot");
        *victim = Stream {
            last_line: line,
            confidence: 0,
            valid: true,
        };
    }

    fn on_fill(&mut self, _ctx: &mut PrefetchCtx<'_>, _fill: &FillEvent) {}

    fn storage_bits(&self) -> u64 {
        // line address (42) + confidence (2) + valid (1) per slot.
        self.streams.len() as u64 * 45
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rig;

    #[test]
    fn sequential_misses_trigger_streaming() {
        let mut rig = Rig::with_scale(8);
        let mut pf = StreamPrefetcher::default();
        for i in 0..8u64 {
            rig.demand(&mut pf, 0x80_0000 + i * LINE_BYTES, 1);
        }
        assert!(rig.stats.prefetches_issued > 0);
        assert!(rig.mem.l1_contains(0, 0x80_0000 + 9 * LINE_BYTES));
    }

    #[test]
    fn random_misses_never_stream() {
        let mut rig = Rig::new();
        let mut pf = StreamPrefetcher::default();
        let mut x = 3u64;
        for _ in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rig.demand(&mut pf, (x >> 13) % (512 << 20), 1);
        }
        assert_eq!(rig.stats.prefetches_issued, 0);
    }

    #[test]
    fn tracks_multiple_interleaved_streams() {
        let mut rig = Rig::with_scale(8);
        let mut pf = StreamPrefetcher::new(4, 2);
        for i in 0..8u64 {
            rig.demand(&mut pf, 0x10_0000 + i * LINE_BYTES, 1);
            rig.demand(&mut pf, 0x90_0000 + i * LINE_BYTES, 2);
        }
        assert!(rig.mem.l1_contains(0, 0x10_0000 + 9 * LINE_BYTES));
        assert!(rig.mem.l1_contains(0, 0x90_0000 + 9 * LINE_BYTES));
    }

    #[test]
    #[should_panic(expected = "at least one stream slot")]
    fn zero_slots_rejected() {
        StreamPrefetcher::new(0, 4);
    }
}
