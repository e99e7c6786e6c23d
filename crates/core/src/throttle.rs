//! Feedback-directed prefetch throttling — the paper's explicit future
//! work (§IV-G: "We envision Prodigy to be used alongside a prefetch
//! throttling mechanism similar to [Srinath et al., HPCA'07] that can
//! identify and prevent prefetch-induced cache pollution").
//!
//! The mechanism implemented here follows that FDP shape: the prefetcher
//! periodically samples its own accuracy (the fraction of resolved
//! prefetches that were demanded before eviction, which the cache
//! hierarchy already tracks) and modulates aggressiveness — the number of
//! sequences initialised per trigger — between 1 and the software-requested
//! value. Disabled by default, matching the paper's evaluated design; the
//! `ext_throttle` experiment and `prodigy-eval --trace` turn it on. The
//! paper evaluates no throttle, so its window and bounds are one fixed
//! setting.

use prodigy_sim::stats::PrefetchUse;

/// Re-evaluate after this many newly resolved prefetches.
const WINDOW: u64 = 2048;
/// Below this window accuracy, halve aggressiveness.
const LOW_ACCURACY: f64 = 0.40;
/// Above this window accuracy, restore aggressiveness one step.
const HIGH_ACCURACY: f64 = 0.75;
/// Sequences per trigger before the first adaptation.
const START_LEVEL: u32 = 4;

/// Runtime state of the feedback loop.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackThrottle {
    last_resolved: u64,
    last_useful: u64,
    level: u32,
}

impl Default for FeedbackThrottle {
    fn default() -> Self {
        FeedbackThrottle {
            last_resolved: 0,
            last_useful: 0,
            level: START_LEVEL,
        }
    }
}

impl FeedbackThrottle {
    /// Returns the sequences-per-trigger to use right now, given the
    /// requested maximum and the hierarchy's cumulative usefulness
    /// counters; adapts once per window of resolved prefetches.
    pub fn sequences(&mut self, requested: u32, usefulness: &PrefetchUse) -> u32 {
        let resolved = usefulness.resolved();
        let useful = usefulness.hit_l1 + usefulness.hit_l2 + usefulness.hit_l3;
        if resolved.saturating_sub(self.last_resolved) >= WINDOW {
            let dr = (resolved - self.last_resolved) as f64;
            let du = useful.saturating_sub(self.last_useful) as f64;
            let acc = if dr > 0.0 { du / dr } else { 1.0 };
            if acc < LOW_ACCURACY && self.level > 1 {
                self.level = (self.level / 2).max(1);
            } else if acc > HIGH_ACCURACY && self.level < requested.max(1) {
                self.level += 1;
            }
            self.last_resolved = resolved;
            self.last_useful = useful;
        }
        self.level.min(requested.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn use_counts(useful: u64, evicted: u64) -> PrefetchUse {
        PrefetchUse {
            hit_l1: useful,
            hit_l2: 0,
            hit_l3: 0,
            evicted_unused: evicted,
        }
    }

    /// Usefulness after `windows` full windows of resolved prefetches,
    /// `useful` of them demanded.
    fn after(windows: u64, useful: u64) -> PrefetchUse {
        use_counts(useful, windows * WINDOW - useful)
    }

    #[test]
    fn low_accuracy_halves_aggressiveness() {
        let mut t = FeedbackThrottle::default();
        assert_eq!(t.sequences(4, &after(0, 0)), 4);
        // One window at 10% accuracy → halve.
        assert_eq!(t.sequences(4, &after(1, WINDOW / 10)), 2);
        // Another bad window (5%) → 1, and it floors there.
        assert_eq!(t.sequences(4, &after(2, WINDOW * 15 / 100)), 1);
        assert_eq!(t.sequences(4, &after(3, WINDOW / 5)), 1);
    }

    #[test]
    fn high_accuracy_restores_stepwise() {
        let mut t = FeedbackThrottle::default();
        let bad = WINDOW / 20;
        assert_eq!(t.sequences(4, &after(1, bad)), 2); // 5% window
        assert_eq!(t.sequences(4, &after(2, bad + WINDOW)), 3); // 100% window
        assert_eq!(t.sequences(4, &after(3, bad + 2 * WINDOW)), 4);
        assert_eq!(
            t.sequences(4, &after(4, bad + 3 * WINDOW)),
            4,
            "capped at requested"
        );
    }

    #[test]
    fn no_adaptation_inside_a_window() {
        let mut t = FeedbackThrottle::default();
        for i in 0..10 {
            assert_eq!(t.sequences(4, &use_counts(i, i)), 4);
        }
        // One resolution short of a window, even a useless one changes
        // nothing.
        assert_eq!(t.sequences(4, &use_counts(0, WINDOW - 1)), 4);
    }
}
