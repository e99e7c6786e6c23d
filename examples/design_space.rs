//! Design-space exploration and ablation of Prodigy's mechanisms on one
//! workload: PFHR file size (the paper's Fig. 12 axis), sequences per
//! trigger, look-ahead distance, and the ranged-stream window — the design
//! choices DESIGN.md calls out. PFHRs and the window are hardware knobs
//! ([`ProdigyConfig`]); sequences and look-ahead are set where software
//! sets them, on the DIG's trigger edge ([`TriggerSpec`]).
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use prodigy::ProdigyConfig;
use prodigy_repro::prelude::*;
use prodigy_sim::AddressSpace;
use prodigy_workloads::graph::datasets::Dataset;
use prodigy_workloads::kernels::Bfs;
use prodigy_workloads::{run_workload, Kernel, PhaseRunner, PrefetcherKind, RunConfig};

/// BFS whose DIG carries `trigger` on its trigger edge in place of the
/// spec BFS registers.
struct Retriggered {
    bfs: Bfs,
    trigger: TriggerSpec,
}

impl Kernel for Retriggered {
    fn name(&self) -> &'static str {
        self.bfs.name()
    }

    fn prepare(&mut self, space: &mut AddressSpace) -> Dig {
        let mut dig = self.bfs.prepare(space);
        let (node, _) = dig.trigger_spec().expect("BFS registers a trigger");
        dig.trigger(node, self.trigger);
        dig
    }

    fn run(&mut self, runner: &mut dyn PhaseRunner) -> u64 {
        self.bfs.run(runner)
    }
}

fn main() {
    let graph = Dataset::by_name("lj").unwrap().instantiate(8);
    let source = (0..graph.n()).max_by_key(|&v| graph.degree(v)).unwrap_or(0);
    let sys = SystemConfig::bench();

    let run = |prodigy: ProdigyConfig, trigger: TriggerSpec| {
        let mut k = Retriggered {
            bfs: Bfs::new(graph.clone(), source),
            trigger,
        };
        run_workload(
            &mut k,
            &RunConfig {
                sys,
                prefetcher: PrefetcherKind::Prodigy,
                prodigy,
                ..RunConfig::default()
            },
        )
        .summary
        .stats
        .cycles
    };
    let baseline = {
        let mut k = Bfs::new(graph.clone(), source);
        run_workload(
            &mut k,
            &RunConfig {
                sys,
                prefetcher: PrefetcherKind::None,
                ..RunConfig::default()
            },
        )
        .summary
        .stats
        .cycles
    };
    println!("bfs-lj/8, baseline {} cycles\n", baseline);
    let sp = |c: u64| baseline as f64 / c as f64;

    println!("PFHR registers (paper Fig. 12; paper picks 16):");
    for pfhr in [4usize, 8, 16, 32] {
        let c = run(
            ProdigyConfig {
                pfhr_entries: pfhr,
                ..ProdigyConfig::default()
            },
            TriggerSpec::default(),
        );
        println!("  {pfhr:>3} PFHRs: {:.2}x", sp(c));
    }

    println!("\nsequences per trigger (paper: multiple for drop resilience):");
    for seqs in [1u32, 2, 4, 8] {
        let c = run(
            ProdigyConfig::default(),
            TriggerSpec {
                sequences: seqs,
                ..TriggerSpec::default()
            },
        );
        println!("  {seqs:>3} sequences: {:.2}x", sp(c));
    }

    println!(
        "\nlook-ahead distance (heuristic picks {} for depth-4 DIGs):",
        Dig::heuristic_lookahead(4)
    );
    for la in [1u32, 2, 4, 8, 16] {
        let c = run(
            ProdigyConfig::default(),
            TriggerSpec {
                lookahead: Some(la),
                ..TriggerSpec::default()
            },
        );
        println!("  {la:>3} elements: {:.2}x", sp(c));
    }

    println!("\nranged-stream window (lines issued per fill):");
    for w in [1usize, 2, 4, 8] {
        let c = run(
            ProdigyConfig {
                range_window: w,
                ..ProdigyConfig::default()
            },
            TriggerSpec::default(),
        );
        println!("  {w:>3} lines: {:.2}x", sp(c));
    }
}
