//! Prefetcher diagnostics: deep per-prefetcher counters for one workload —
//! the tool used to calibrate the reproduction (cache behaviour, prefetch
//! usefulness, Prodigy's internal sequence statistics).
//!
//! ```text
//! cargo run --release -p prodigy-bench --example diagnostics [alg] [dataset] [scale]
//! ```

use prodigy::ProdigyConfig;
use prodigy_bench::workload_set::WorkloadSpec;
use prodigy_sim::{source_tag_label, SystemConfig};
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig};

/// Renders an optional fraction as a fixed-width percentage.
fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:>4.0}%", v * 100.0),
        None => " n/a".to_string(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let alg = args.next().unwrap_or_else(|| "bfs".into());
    let dataset = args.next().unwrap_or_else(|| "lj".into());
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let algs = ["bc", "bfs", "cc", "pr", "sssp"];
    let spec = if algs.contains(&alg.as_str()) {
        WorkloadSpec::graph(
            algs.iter().find(|a| **a == alg).unwrap(),
            match dataset.as_str() {
                "po" => "po",
                "or" => "or",
                "sk" => "sk",
                "wb" => "wb",
                _ => "lj",
            },
            scale,
        )
    } else {
        WorkloadSpec::plain(
            ["spmv", "symgs", "cg", "is"]
                .iter()
                .find(|a| **a == alg)
                .copied()
                .expect("alg must be one of bc/bfs/cc/pr/sssp/spmv/symgs/cg/is"),
            scale,
        )
    };
    println!("workload {} (scale 1/{scale})\n", spec.name);

    let mut base_cycles = 0u64;
    for kind in PrefetcherKind::ALL {
        if kind.graph_specific() && !spec.is_graph() {
            continue;
        }
        let mut kernel = spec.instantiate(0);
        let out = run_workload(
            kernel.as_mut(),
            &RunConfig {
                sys: SystemConfig::bench(),
                prefetcher: kind,
                prodigy: ProdigyConfig::default(),
                classify_llc: false,
                seed: 0,
                trace: false,
                metrics: None,
                cancel: None,
            },
        );
        let s = &out.summary.stats;
        if kind == PrefetcherKind::None {
            base_cycles = s.cycles;
        }
        let n = s.cpi.normalized();
        println!(
            "{:<16} {:>12} cycles  speedup {:>5.2}x  ipc {:>5.2}  dram-stall {:>4.1}%",
            kind.name(),
            s.cycles,
            base_cycles as f64 / s.cycles.max(1) as f64,
            s.ipc(),
            n.dram * 100.0,
        );
        println!(
            "  L1 miss {:>9}  LLC miss {:>9}  pf issued {:>9}  redundant {:>9}  accuracy {}  use L1/L2/L3/evicted {}/{}/{}/{}",
            s.l1d.misses,
            s.l3.misses,
            s.prefetches_issued,
            s.prefetches_redundant,
            pct(s.prefetch_use.accuracy()),
            s.prefetch_use.hit_l1,
            s.prefetch_use.hit_l2,
            s.prefetch_use.hit_l3,
            s.prefetch_use.evicted_unused,
        );
        let t = &out.telemetry.timeliness;
        println!(
            "  timeliness: timely {:>4.1}%  late {:>4.1}%  inaccurate {:>4.1}%  dropped {:>4.1}%  coverage {}  load-to-use mean {:>5.1} cy",
            t.share(t.timely) * 100.0,
            t.share(t.late) * 100.0,
            t.share(t.inaccurate) * 100.0,
            t.share(t.dropped) * 100.0,
            pct(s.prefetch_coverage()),
            out.telemetry.load_to_use.mean(),
        );
        // Per-source attribution: rank DIG nodes/edges (or baseline
        // streams/table rows) by how much of their issue volume was wasted.
        let attr = &out.telemetry.attribution;
        if !attr.is_empty() {
            let mut worst: Vec<_> = attr
                .iter()
                .filter(|(_, c)| c.issued > 0)
                .map(|(tag, c)| {
                    let wasted = (c.late + c.inaccurate + c.dropped) as f64
                        / (c.issued + c.dropped).max(1) as f64;
                    (tag, *c, wasted)
                })
                .collect();
            worst.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
            println!("  worst sources (late+inaccurate+dropped share of issue volume):");
            for (tag, c, wasted) in worst.iter().take(3) {
                println!(
                    "    {:<10} {:>5.1}% wasted  issued {:>8}  timely {:>8}  late {:>7}  inaccurate {:>7}  dropped {:>7}  pollution {}",
                    source_tag_label(*tag),
                    wasted * 100.0,
                    c.issued,
                    c.timely,
                    c.late,
                    c.inaccurate,
                    c.dropped,
                    // n/a (not 0) when the source never issued, matching the
                    // accuracy()/coverage() Option convention.
                    pct(c.pollution()),
                );
            }
            // Top polluters: sources whose prefetches evicted demand lines
            // that later re-missed (victim-table hits), ranked by count.
            let mut polluters: Vec<_> = attr.iter().filter(|(_, c)| c.polluting > 0).collect();
            polluters.sort_by(|a, b| b.1.polluting.cmp(&a.1.polluting).then(a.0.cmp(&b.0)));
            if !polluters.is_empty() {
                let pol = &out.telemetry.pollution;
                println!(
                    "  top polluters (victim-table demand re-misses; L1/L2/L3 {}/{}/{}):",
                    pol.l1, pol.l2, pol.l3,
                );
                for (tag, c) in polluters.iter().take(3) {
                    println!(
                        "    {:<10} polluting {:>7}  rate {}  issued {:>8}",
                        source_tag_label(*tag),
                        c.polluting,
                        pct(c.pollution()),
                        c.issued,
                    );
                }
            }
        }
        // Final cache-contents provenance: who owns the resident lines.
        if let Some(occ) = &out.telemetry.occupancy {
            let l3 = &occ.levels[2];
            println!(
                "  llc occupancy: {} lines — demand {}  prefetched {} (untagged {}, {} tagged sources)",
                l3.total(),
                l3.demand,
                l3.prefetched(),
                l3.untagged,
                l3.sources.len(),
            );
        }
        if let Some(p) = out.prodigy {
            println!(
                "  prodigy: sequences {} (dropped {})  trigger/ranged/single prefetches {}/{}/{}  inline advances {}  PFHR drops {}  ranged share {:.0}%",
                p.sequences_initiated,
                p.sequences_dropped,
                p.trigger_prefetches,
                p.ranged_prefetches,
                p.single_prefetches,
                p.inline_advances,
                p.pfhr_drops,
                p.ranged_share() * 100.0,
            );
        }
    }
}
