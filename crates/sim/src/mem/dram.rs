//! DRAM and memory-controller model.
//!
//! Matches the paper's Table I: a fixed uncontended access latency (120
//! cycles) plus modelled memory-controller queueing. Each channel serialises
//! 64 B transfers at `cycles_per_transfer`, so aggregate bandwidth is
//! `channels × 64 B × f / cycles_per_transfer` — the §VI-F scalability
//! experiment saturates exactly this limit.

use crate::config::DramConfig;

/// Result of a DRAM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Total latency seen by the requester (queue wait + access latency).
    pub latency: u64,
    /// The queueing component alone.
    pub queue_wait: u64,
}

/// Multi-channel DRAM with per-channel occupancy tracking.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    next_free: Vec<u64>,
}

impl Dram {
    /// Creates a DRAM model from its configuration.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            next_free: vec![0; cfg.channels as usize],
            cfg,
        }
    }

    #[inline]
    fn channel(&self, line_addr: u64) -> usize {
        // Hash line address across channels (XOR-fold to avoid power-of-two
        // stride pathologies).
        let l = line_addr / crate::LINE_BYTES;
        ((l ^ (l >> 7) ^ (l >> 17)) % self.cfg.channels as u64) as usize
    }

    /// Performs a read of one line beginning at `now`; occupies the channel.
    pub fn read(&mut self, line_addr: u64, now: u64) -> DramAccess {
        let ch = self.channel(line_addr);
        let start = self.next_free[ch].max(now);
        self.next_free[ch] = start + self.cfg.cycles_per_transfer;
        DramAccess {
            latency: (start - now) + self.cfg.access_latency,
            queue_wait: start - now,
        }
    }

    /// Performs a writeback of one line; occupies the channel but nobody
    /// waits on the result.
    pub fn write(&mut self, line_addr: u64, now: u64) {
        let ch = self.channel(line_addr);
        let start = self.next_free[ch].max(now);
        self.next_free[ch] = start + self.cfg.cycles_per_transfer;
    }

    /// Channel index and controller backlog (in cycles still queued) for
    /// the channel servicing `line_addr` at `now` — the telemetry layer's
    /// queue-depth sample.
    pub fn queue_backlog(&self, line_addr: u64, now: u64) -> (u32, u64) {
        let ch = self.channel(line_addr);
        (ch as u32, self.next_free[ch].saturating_sub(now))
    }

    /// Peak bandwidth in bytes per cycle, for the scalability analysis.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.cfg.channels as f64 * crate::LINE_BYTES as f64 / self.cfg.cycles_per_transfer as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            access_latency: 120,
            channels: 2,
            cycles_per_transfer: 10,
        }
    }

    #[test]
    fn uncontended_read_costs_access_latency() {
        let mut d = Dram::new(cfg());
        let a = d.read(0x1000, 100);
        assert_eq!(a.latency, 120);
        assert_eq!(a.queue_wait, 0);
    }

    #[test]
    fn back_to_back_reads_on_one_channel_queue_up() {
        let mut d = Dram::new(cfg());
        // Same line address → same channel.
        let first = d.read(0x1000, 0);
        let second = d.read(0x1000, 0);
        assert_eq!(first.queue_wait, 0);
        assert_eq!(second.queue_wait, 10);
        assert_eq!(second.latency, 130);
    }

    #[test]
    fn channel_frees_over_time() {
        let mut d = Dram::new(cfg());
        d.read(0x1000, 0);
        let later = d.read(0x1000, 50);
        assert_eq!(later.queue_wait, 0);
    }

    #[test]
    fn read_backlog_builds_and_drains() {
        let mut d = Dram::new(cfg());
        assert_eq!(d.queue_backlog(0x1000, 0).1, 0);
        for _ in 0..6 {
            d.read(0x1000, 0);
        }
        assert_eq!(
            d.queue_backlog(0x1000, 0).1,
            60,
            "six transfers at 10 cycles"
        );
        assert_eq!(d.queue_backlog(0x1000, 60).1, 0, "drains by cycle 60");
    }

    #[test]
    fn writes_occupy_channels() {
        let mut d = Dram::new(cfg());
        d.write(0x1000, 0);
        let r = d.read(0x1000, 0);
        assert_eq!(r.queue_wait, 10, "read waits behind the write transfer");
    }

    #[test]
    fn writeback_storm_delays_demand_reads() {
        // A writeback occupies the channel exactly like a read, so a storm
        // of them must surface in the queue-backlog telemetry and in the
        // next demand read's queue wait: writes cannot starve demand reads
        // unaccounted.
        let mut d = Dram::new(cfg());
        for _ in 0..6 {
            d.write(0x1000, 0);
        }
        let (_, backlog) = d.queue_backlog(0x1000, 0);
        assert_eq!(backlog, 60, "six queued write transfers at 10 cycles");
        let r = d.read(0x1000, 0);
        assert_eq!(r.queue_wait, 60, "demand read pays the write backlog");
        assert_eq!(
            d.queue_backlog(0x1000, 200).1,
            0,
            "drains once channels free up"
        );
    }

    #[test]
    fn queue_backlog_tracks_outstanding_transfers() {
        let mut d = Dram::new(cfg());
        assert_eq!(d.queue_backlog(0x1000, 0).1, 0);
        d.read(0x1000, 0);
        d.read(0x1000, 0);
        let (ch, backlog) = d.queue_backlog(0x1000, 0);
        assert!(ch < 2);
        assert_eq!(backlog, 20, "two queued transfers at 10 cycles each");
        assert_eq!(d.queue_backlog(0x1000, 25).1, 0, "drains by cycle 25");
    }

    #[test]
    fn peak_bandwidth_formula() {
        let d = Dram::new(cfg());
        assert!((d.peak_bytes_per_cycle() - 12.8).abs() < 1e-9);
    }
}
