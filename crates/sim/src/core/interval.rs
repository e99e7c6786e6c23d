//! Interval-style out-of-order core timing model.
//!
//! This plays the role Sniper's interval core model plays in the paper: a
//! fast approximation of an OoO core that still captures the first-order
//! effects Prodigy changes — memory-level parallelism within the ROB window,
//! in-order retirement back-pressure, load-dependent branch resolution, and
//! per-cause CPI-stack attribution.
//!
//! Mechanics: each instruction dispatches in order at `width` per cycle,
//! *issues* when its producers have completed, and *completes* after its
//! latency (loads ask the memory system, at their issue time, how long the
//! access takes — so independent misses overlap naturally). Retirement is in
//! order; when the ROB is full, dispatch stalls until the head retires and
//! the stalled cycles are attributed to whatever made the head slow. This
//! "stall at retire" accounting is the standard way CPI stacks are built.

use super::bpred::Gshare;
use super::insn::{Insn, Op};
use crate::mem::hierarchy::{AccessKind, MemorySystem, ServedBy};
use crate::prefetch::DemandAccess;
use crate::stats::{CpiStack, StallCause, Stats};
use std::collections::VecDeque;

/// Completion-time ring size; must exceed the largest ROB we model so that
/// any dependency outside the ring has provably retired.
const RING: usize = 512;

/// Timing state of one core.
#[derive(Debug)]
pub struct CoreTiming {
    cfg: crate::CoreConfig,
    /// Current dispatch cycle.
    dispatch: u64,
    slots: u32,
    rob: VecDeque<(u64, StallCause)>,
    ring: Vec<u64>,
    count: u64,
    last_retire: u64,
    lq: Vec<(u64, StallCause)>,
    sq: Vec<u64>,
    bpred: Gshare,
    /// CPI stack accumulated since it was last taken.
    pub cpi: CpiStack,
}

/// What a [`CoreTiming::step`] did, for the caller to notify prefetchers.
#[derive(Debug, Clone, Copy)]
pub struct StepResult {
    /// The demand access performed, if the instruction was a load/store.
    pub demand: Option<DemandAccess>,
}

impl CoreTiming {
    /// Creates a core at cycle 0.
    pub fn new(cfg: crate::CoreConfig) -> Self {
        CoreTiming {
            cfg,
            dispatch: 0,
            slots: 0,
            rob: VecDeque::with_capacity(cfg.rob as usize),
            ring: vec![0; RING],
            count: 0,
            last_retire: 0,
            lq: Vec::new(),
            sq: Vec::new(),
            bpred: Gshare::default(),
            cpi: CpiStack::default(),
        }
    }

    /// Current dispatch cycle.
    pub fn now(&self) -> u64 {
        self.dispatch
    }

    /// Cycle at which everything issued so far has retired.
    pub fn end_time(&self) -> u64 {
        self.last_retire.max(self.dispatch)
    }

    fn stall_to(&mut self, t: u64, cause: StallCause) {
        if t > self.dispatch {
            self.cpi.add(cause, (t - self.dispatch) as f64);
            self.dispatch = t;
            self.slots = 0;
        }
    }

    fn dep_ready(&self, insn: &Insn) -> u64 {
        let mut r = 0;
        for d in [insn.dep1, insn.dep2] {
            let d = d as u64;
            if d == 0 || d > self.count || d as usize >= RING {
                continue;
            }
            r = r.max(self.ring[((self.count - d) % RING as u64) as usize]);
        }
        r
    }

    fn served_cause(served: ServedBy) -> StallCause {
        match served {
            ServedBy::Dram => StallCause::Dram,
            ServedBy::L2 | ServedBy::L3 => StallCause::Cache,
            ServedBy::L1 => StallCause::Dependency,
        }
    }

    /// Executes one instruction against the shared memory system.
    pub fn step(
        &mut self,
        insn: &Insn,
        mem: &mut MemorySystem,
        core: usize,
        stats: &mut Stats,
    ) -> StepResult {
        // In-order retirement back-pressure.
        if self.rob.len() >= self.cfg.rob as usize {
            let (retire, cause) = self.rob.pop_front().expect("rob full implies nonempty");
            self.stall_to(retire, cause);
        }

        let dep_ready = self.dep_ready(insn);
        let mut issue = self.dispatch.max(dep_ready);

        let mut demand = None;
        let (complete, cause) = match insn.op {
            Op::Compute { latency } => (issue + latency as u64, StallCause::Dependency),
            Op::Load { addr, size, pc } => {
                // Deferred drain scan: `dispatch` is monotonic, so pruning
                // completed entries only when the raw list reaches capacity
                // leaves the live set (and every stall decision) identical
                // to pruning on every load — completed entries are inert
                // until the next capacity check.
                if self.lq.len() >= self.cfg.load_queue as usize {
                    let t = self.dispatch;
                    self.lq.retain(|&(c, _)| c > t);
                }
                if self.lq.len() >= self.cfg.load_queue as usize {
                    // Attribute the LQ-full wait to whatever is keeping the
                    // oldest-completing load slow (usually DRAM).
                    let &(free, cause) = self
                        .lq
                        .iter()
                        .min_by_key(|(c, _)| *c)
                        .expect("lq full implies nonempty");
                    self.stall_to(free, cause);
                    let t = self.dispatch;
                    self.lq.retain(|&(c, _)| c > t);
                    issue = self.dispatch.max(dep_ready);
                }
                let res = mem.demand_access(core, addr, AccessKind::Read, issue, stats);
                let complete = issue + res.latency;
                self.lq.push((complete, Self::served_cause(res.served)));
                stats.loads += 1;
                demand = Some(DemandAccess {
                    vaddr: addr,
                    size,
                    is_write: false,
                    pc,
                    served: res.served,
                });
                (complete, Self::served_cause(res.served))
            }
            Op::Store { addr, size, pc } => {
                // Same deferred drain scan as the load queue above.
                if self.sq.len() >= self.cfg.store_queue as usize {
                    let t = self.dispatch;
                    self.sq.retain(|&c| c > t);
                }
                if self.sq.len() >= self.cfg.store_queue as usize {
                    let free = *self.sq.iter().min().expect("sq full implies nonempty");
                    self.stall_to(free, StallCause::Other);
                    let t = self.dispatch;
                    self.sq.retain(|&c| c > t);
                    issue = self.dispatch.max(dep_ready);
                }
                let res = mem.demand_access(core, addr, AccessKind::Write, issue, stats);
                // The store drains from the SQ when the write completes, but
                // the core itself only waits one cycle (post-retirement
                // write buffering).
                self.sq.push(issue + res.latency);
                stats.stores += 1;
                demand = Some(DemandAccess {
                    vaddr: addr,
                    size,
                    is_write: true,
                    pc,
                    served: res.served,
                });
                (issue + 1, StallCause::Other)
            }
            Op::Prefetch { addr } => {
                // Non-binding: the fill proceeds in the background, the
                // instruction itself retires immediately. No hardware
                // prefetcher is notified — software owns the chain.
                mem.prefetch(core, addr, issue, stats, None);
                (issue + 1, StallCause::Other)
            }
            Op::Branch { pc, taken } => {
                stats.branches += 1;
                let correct = self.bpred.predict_and_update(pc, taken);
                let resolve = issue + 1;
                if !correct {
                    stats.mispredicts += 1;
                    // Front-end redirect: nothing dispatches until the branch
                    // resolves (which may wait on a load) plus the refill
                    // penalty. Attributed to Branch, matching the paper's
                    // observation about load-dependent branches (§II).
                    self.stall_to(resolve + self.cfg.mispredict_penalty, StallCause::Branch);
                }
                (resolve, StallCause::Branch)
            }
        };

        self.ring[(self.count % RING as u64) as usize] = complete;
        self.count += 1;
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back((retire, cause));

        // Consume a dispatch slot.
        self.slots += 1;
        if self.slots >= self.cfg.width {
            self.dispatch += 1;
            self.slots = 0;
        }
        self.cpi.no_stall += 1.0 / self.cfg.width as f64;
        stats.instructions += 1;

        StepResult { demand }
    }

    /// Begins a new phase at cycle `at` (after a barrier).
    pub fn begin_phase(&mut self, at: u64) {
        debug_assert!(at >= self.dispatch);
        self.dispatch = at;
        self.slots = 0;
        self.last_retire = self.last_retire.max(at);
    }

    /// Drains the ROB, attributing remaining stalls, then idles the core at
    /// the phase `barrier` (idle time attributed to `Other`, i.e.
    /// synchronisation).
    pub fn end_phase(&mut self, barrier: u64) {
        while let Some((retire, cause)) = self.rob.pop_front() {
            if retire > self.dispatch {
                self.cpi.add(cause, (retire - self.dispatch) as f64);
                self.dispatch = retire;
            }
        }
        self.stall_to(barrier, StallCause::Other);
        self.slots = 0;
        self.lq.clear();
        self.sq.clear();
    }

    /// Takes and resets the accumulated CPI stack.
    pub fn take_cpi(&mut self) -> CpiStack {
        std::mem::take(&mut self.cpi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::insn::StreamBuilder;
    use crate::SystemConfig;

    fn setup() -> (CoreTiming, MemorySystem, Stats) {
        let cfg = SystemConfig::scaled(64).with_cores(1);
        (
            CoreTiming::new(cfg.core),
            MemorySystem::new(cfg),
            Stats::default(),
        )
    }

    fn run(
        core: &mut CoreTiming,
        mem: &mut MemorySystem,
        stats: &mut Stats,
        s: &crate::core::InsnStream,
    ) {
        for i in s.iter() {
            core.step(&i, mem, 0, stats);
        }
        let end = core.end_time();
        core.end_phase(end);
    }

    #[test]
    fn width_limits_ideal_ipc() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        for _ in 0..4000 {
            b.compute(1, &[]);
        }
        run(&mut core, &mut mem, &mut stats, &b.finish());
        let cycles = core.end_time();
        // 4000 independent 1-cycle ops at width 4 ≈ 1000 cycles.
        assert!((950..1100).contains(&cycles), "cycles = {cycles}");
    }

    #[test]
    fn dependent_chain_serialises() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        let mut prev = b.compute(1, &[]);
        for _ in 0..999 {
            prev = b.compute(1, &[prev]);
        }
        run(&mut core, &mut mem, &mut stats, &b.finish());
        assert!(core.end_time() >= 999, "chain must take ~1 cycle per op");
    }

    #[test]
    fn independent_misses_overlap_in_rob_window() {
        // Two streams with the same number of DRAM misses: one with
        // independent loads (MLP), one as a dependent pointer chase.
        let make = |dependent: bool| {
            let (mut core, mut mem, mut stats) = setup();
            let mut b = StreamBuilder::new();
            let mut prev = None;
            for i in 0..64u64 {
                let deps: Vec<usize> = match (dependent, prev) {
                    (true, Some(p)) => vec![p],
                    _ => vec![],
                };
                // Large stride → all cold DRAM misses, different channels.
                prev = Some(b.load_at(1, i * 1_048_576, 8, &deps));
            }
            run(&mut core, &mut mem, &mut stats, &b.finish());
            core.end_time()
        };
        let parallel = make(false);
        let chased = make(true);
        assert!(
            chased > parallel * 3,
            "pointer chase ({chased}) must be far slower than MLP ({parallel})"
        );
    }

    #[test]
    fn rob_limits_mlp() {
        // More independent misses than the ROB can hold: time scales with
        // #misses / MLP-per-window rather than being flat.
        let cfg = SystemConfig::scaled(64).with_cores(1);
        let run_n = |n: u64| {
            let mut core = CoreTiming::new(cfg.core);
            let mut mem = MemorySystem::new(cfg);
            let mut stats = Stats::default();
            let mut b = StreamBuilder::new();
            for i in 0..n {
                b.load_at(1, i * 1_048_576, 8, &[]);
                // Pad so the ROB (128) holds only ~16 loads at once.
                for _ in 0..7 {
                    b.compute(1, &[]);
                }
            }
            run(&mut core, &mut mem, &mut stats, &b.finish());
            core.end_time()
        };
        let t1 = run_n(64);
        let t2 = run_n(256);
        assert!(t2 > t1 * 2, "4x misses should take >2x time: {t1} vs {t2}");
    }

    #[test]
    fn mispredicted_branches_cost_cycles_and_fill_branch_bucket() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        let mut x = 1u32;
        for _ in 0..2000 {
            x = x.wrapping_mul(48271) % 0x7fff_ffff;
            b.branch(3, x & 1 == 0, &[]);
        }
        run(&mut core, &mut mem, &mut stats, &b.finish());
        assert!(stats.mispredicts > 400, "random branches mispredict");
        let cpi = core.take_cpi();
        assert!(cpi.branch > cpi.no_stall, "branch stalls dominate: {cpi:?}");
    }

    #[test]
    fn dram_stall_dominates_for_random_loads() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        let mut x = 12345u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (64 << 20);
            let l = b.load_at(2, addr, 4, &[]);
            b.compute(1, &[l]);
        }
        run(&mut core, &mut mem, &mut stats, &b.finish());
        let cpi = core.take_cpi();
        assert!(
            cpi.dram > 0.5 * cpi.total(),
            "random loads over 64 MB must be DRAM-bound: {cpi:?}"
        );
    }

    #[test]
    fn cpi_stack_total_matches_cycles() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        for i in 0..500u64 {
            let l = b.load_at(1, i * 4096, 8, &[]);
            b.compute(2, &[l]);
            b.branch(9, i % 3 == 0, &[l]);
        }
        run(&mut core, &mut mem, &mut stats, &b.finish());
        let end = core.end_time();
        let cpi = core.take_cpi();
        // Fractional dispatch slots discarded at stall points make the stack
        // a slight overestimate; it must stay within ~20% of real cycles.
        let diff = (cpi.total() - end as f64).abs();
        assert!(
            diff <= end as f64 * 0.20 + 4.0,
            "stack ({}) must account for ~all cycles ({end})",
            cpi.total()
        );
    }

    #[test]
    fn phase_barrier_idle_goes_to_other() {
        let (mut core, mut mem, mut stats) = setup();
        let mut b = StreamBuilder::new();
        b.compute(1, &[]);
        for i in b.finish().iter() {
            core.step(&i, &mut mem, 0, &mut stats);
        }
        core.end_phase(1000);
        let cpi = core.take_cpi();
        assert!(cpi.other > 990.0, "idle until barrier: {cpi:?}");
        assert_eq!(core.now(), 1000);
    }
}

#[cfg(test)]
mod prefetch_op_tests {
    use super::*;
    use crate::core::insn::StreamBuilder;
    use crate::SystemConfig;

    #[test]
    fn software_prefetch_warms_the_cache_without_stalling() {
        let cfg = SystemConfig::scaled(64).with_cores(1);
        // Variant A: prefetch each line well ahead of its load.
        let run = |with_pf: bool| {
            let mut core = CoreTiming::new(cfg.core);
            let mut mem = MemorySystem::new(cfg);
            let mut stats = Stats::default();
            let mut b = StreamBuilder::new();
            for i in 0..400u64 {
                if with_pf && i + 8 < 400 {
                    b.prefetch(0x50_0000 + (i + 8) * 4096, &[]);
                }
                let l = b.load_at(1, 0x50_0000 + i * 4096, 8, &[]);
                for _ in 0..24 {
                    b.compute(2, &[l]);
                }
            }
            for insn in b.finish().iter() {
                core.step(&insn, &mut mem, 0, &mut stats);
            }
            let end = core.end_time();
            core.end_phase(end);
            (end, stats)
        };
        let (plain, _) = run(false);
        let (prefetched, stats) = run(true);
        assert!(
            prefetched * 10 < plain * 9,
            "software prefetching must help: {prefetched} vs {plain}"
        );
        assert!(stats.prefetches_issued > 300);
    }

    #[test]
    fn prefetch_op_retires_in_one_cycle() {
        let cfg = SystemConfig::scaled(64).with_cores(1);
        let mut core = CoreTiming::new(cfg.core);
        let mut mem = MemorySystem::new(cfg);
        let mut stats = Stats::default();
        let mut b = StreamBuilder::new();
        for i in 0..1024u64 {
            b.prefetch(i * 1_048_576, &[]); // all cold DRAM fetches
        }
        for insn in b.finish().iter() {
            core.step(&insn, &mut mem, 0, &mut stats);
        }
        let end = core.end_time();
        core.end_phase(end);
        // 1024 non-binding prefetches at width 4 ≈ 256 cycles: no DRAM stall.
        assert!(end < 600, "prefetches must not stall retirement: {end}");
    }
}
