//! Host context recorded with every run, so a reader can tell a noisy host
//! from a slow program.

use std::process::Command;

/// Cumulative scheduler and CPU counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Nanoseconds this thread waited on a run queue.
    runq_wait_ns: u64,
    /// Steal time summed over all CPUs, in clock ticks.
    steal_ticks: u64,
    /// All CPU time summed over all CPUs, in clock ticks.
    total_ticks: u64,
}

/// Clock ticks per second of `/proc/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

impl Counters {
    /// Reads the counters now; fields the host does not expose read 0.
    pub fn now() -> Counters {
        let runq_wait_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
            .unwrap_or(0);
        let cpu: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().next()?.to_string();
                Some(
                    line.split_whitespace()
                        .skip(1)
                        .filter_map(|f| f.parse().ok())
                        .collect(),
                )
            })
            .unwrap_or_default();
        Counters {
            runq_wait_ns,
            steal_ticks: cpu.get(7).copied().unwrap_or(0),
            total_ticks: cpu.iter().take(8).sum(),
        }
    }

    /// What happened on the host between `self` and `later`.
    pub fn until(&self, later: &Counters) -> Interval {
        let steal = later.steal_ticks.saturating_sub(self.steal_ticks);
        let total = later.total_ticks.saturating_sub(self.total_ticks);
        Interval {
            runq_wait_s: later.runq_wait_ns.saturating_sub(self.runq_wait_ns) as f64 / 1e9,
            steal_s: steal as f64 / TICKS_PER_S,
            steal_share: if total == 0 {
                0.0
            } else {
                steal as f64 / total as f64
            },
        }
    }
}

/// Host counters over one run.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Seconds the benchmark's thread waited for a CPU.
    pub runq_wait_s: f64,
    /// CPU-seconds the hypervisor stole, summed over all CPUs.
    pub steal_s: f64,
    /// Stolen share of all CPU time.
    pub steal_share: f64,
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// CPU count, compiler and source revision, as one report line.
pub fn describe() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = first_line(Command::new("rustc").arg("--version"))
        .unwrap_or_else(|| "rustc unknown".into());
    // Only the working directory may answer: a checkout that is not a git
    // repository reports no revision instead of an enclosing one.
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_ref().and_then(|d| d.parent()).map(|p| p.to_owned());
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(c) = ceiling {
        git.env("GIT_CEILING_DIRECTORIES", c);
    }
    let rev = first_line(&mut git).unwrap_or_else(|| "unknown".into());
    format!("host: cpus={cpus} {rustc} git_rev={rev}")
}
