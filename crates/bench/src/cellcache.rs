//! Persistent, content-addressed cell cache.
//!
//! Stores each successfully simulated cell's deterministic outcome as one
//! JSON file under a user-supplied directory (`prodigy-eval --cell-cache
//! DIR`), keyed by the full content address
//! `cell-key|scale|system-config|base-seed|code-rev`:
//!
//! * the **cell key** (`workload|reorder|prefetcher|pfhr|cores`, plus a
//!   `|farN` suffix for two-tier cells) names one simulation; `cores` is
//!   the count the cell runs on;
//! * **scale** and the **system-config fingerprint** pin the machine the
//!   cell ran on (the cell key alone does not encode them);
//! * the **base seed** pins the workload inputs;
//! * the **code rev** is a build fingerprint over every crate that can
//!   affect simulated results (see `build.rs`), so a source change
//!   invalidates prior entries instead of silently serving stale numbers.
//!   `PRODIGY_CODE_REV` overrides it at runtime for caches known to span
//!   result-identical builds.
//!
//! Only *successful* results are ever persisted. Failures — panics,
//! timeouts — must never poison the disk cache: within a process a failed
//! cell is not run again, but the next process retries it (the bug may be
//! fixed, the budget bigger). [`CellCache::store`] therefore only accepts a
//! finished [`RunOutcome`].
//!
//! The stored payload is the simulated [`RunOutcome`] as JSON — exactly the
//! outcome fields a sweep report cell carries — and loads back through
//! [`FromJson`], the decoder `--merge` and `prodigy-diff --slo` read report
//! cells with. Host timing is not part of it.
//!
//! Integrity: every entry embeds its composite key and an FNV-1a digest of
//! its payload. [`CellCache::load`] decodes the payload strictly,
//! re-encodes the outcome and compares digests, so a truncated, corrupted,
//! hand-edited, or hash-colliding entry is silently treated as a miss (and
//! re-simulated) — never a crash, never a wrong number. Writes go through a
//! temp file + atomic rename so concurrent shard processes sharing one cache
//! directory can never observe a half-written entry.

use crate::sweep::stable_key_hash;
use prodigy_sim::json::{parse_json, FromJson, Json, ToJson};
use prodigy_sim::SystemConfig;
use prodigy_workloads::RunOutcome;
use std::path::{Path, PathBuf};

/// On-disk entry format version; bumped on any layout change so old entries
/// miss instead of misparse.
const FORMAT_VERSION: u64 = 2;

/// The effective code revision: the compile-time build fingerprint unless
/// the `PRODIGY_CODE_REV` environment variable overrides it.
pub fn code_rev() -> String {
    std::env::var("PRODIGY_CODE_REV").unwrap_or_else(|_| env!("PRODIGY_BUILD_FINGERPRINT").into())
}

/// Builds the composite content address for one cell under one machine +
/// seed + build. Everything that can change the simulated numbers is in
/// here; nothing host-varying is.
pub fn composite_key(
    cell_key: &str,
    scale: u64,
    sys: &SystemConfig,
    base_seed: u64,
    code_rev: &str,
) -> String {
    // The system config participates via a fingerprint of its canonical
    // debug rendering: any field change (core count, cache sizing, DRAM
    // model, ...) produces a new address without this module naming every
    // field.
    let sys_fp = stable_key_hash(&format!("{sys:?}"));
    format!("{cell_key}|scale={scale}|sys={sys_fp:016x}|seed={base_seed}|rev={code_rev}")
}

/// A persistent cell cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Returns a message when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<CellCache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cell cache: cannot create {}: {e}", dir.display()))?;
        Ok(CellCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry file path for a composite key.
    pub fn path_for(&self, composite: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", stable_key_hash(composite)))
    }

    /// Loads the entry for `composite`, or `None` on any miss *or anomaly*
    /// (absent file, unreadable, unparsable, wrong version, key mismatch
    /// from a hash collision, digest mismatch from corruption). Anomalies
    /// are deliberately indistinguishable from misses: the caller
    /// re-simulates and overwrites the bad entry.
    pub fn load(&self, composite: &str) -> Option<RunOutcome> {
        let text = std::fs::read_to_string(self.path_for(composite)).ok()?;
        let v = parse_json(&text).ok()?;
        if v.get("version")?.as_u64()? != FORMAT_VERSION || v.get("key")?.as_str()? != composite {
            return None;
        }
        let out = RunOutcome::from_json(v.get("payload")?).ok()?;
        // Deep integrity: the decoded outcome must re-encode to a payload
        // with the stored digest. This catches bit corruption the strict
        // decoder cannot see (a digit changed inside a counter).
        (digest(&out.to_json()) == v.get("payload_fnv")?.as_str()?).then_some(out)
    }

    /// Persists a *successful* outcome for `composite`. The write is
    /// atomic (temp file + rename), so concurrent shard processes racing
    /// on one key at worst both write the same bytes.
    ///
    /// # Errors
    /// Returns a message when the entry cannot be written.
    pub fn store(&self, composite: &str, out: &RunOutcome) -> Result<(), String> {
        let payload = out.to_json();
        let entry = Json::obj([
            ("version", FORMAT_VERSION.to_json()),
            ("key", composite.to_json()),
            ("payload_fnv", digest(&payload).to_json()),
            ("payload", payload),
        ]);
        let path = self.path_for(composite);
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}",
            stable_key_hash(composite),
            std::process::id()
        ));
        std::fs::write(&tmp, format!("{entry}\n"))
            .map_err(|e| format!("cell cache: cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cell cache: cannot commit {}: {e}", path.display())
        })
    }
}

/// FNV-1a digest of a payload's JSON text, as 16 hex digits.
fn digest(payload: &Json) -> String {
    format!("{:016x}", stable_key_hash(&payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodigy::ProdigyStats;
    use prodigy_sim::{
        AttributionTable, LevelOccupancy, Log2Hist, OccupancySnapshot, RunSummary, SourceCounts,
        TelemetrySummary, TierSplit, TierTelemetry,
    };
    use proptest::TestRng;

    /// A counter of random magnitude, 0 through `u64::MAX`.
    fn count(rng: &mut TestRng) -> u64 {
        rng.next_u64()
            .checked_shr(rng.index(65) as u32)
            .unwrap_or(0)
    }

    /// Any finite float: raw bit patterns (subnormals, huge, negative) or a
    /// plain decimal-looking value.
    fn float(rng: &mut TestRng) -> f64 {
        loop {
            let x = if rng.index(2) == 0 {
                f64::from_bits(rng.next_u64())
            } else {
                rng.next_f64() * 1e6
            };
            if x.is_finite() {
                return x;
            }
        }
    }

    fn hist(rng: &mut TestRng) -> Log2Hist {
        let mut h = Log2Hist::new();
        for _ in 0..rng.index(12) {
            h.record(count(rng));
        }
        h
    }

    fn occupancy_level(rng: &mut TestRng) -> LevelOccupancy {
        // Bounded so `total` cannot overflow.
        let mut occ = LevelOccupancy {
            demand: rng.next_u64() >> 8,
            untagged: rng.next_u64() >> 8,
            ..LevelOccupancy::default()
        };
        for _ in 0..rng.index(4) {
            occ.sources
                .insert(rng.next_u64() as u16, rng.next_u64() >> 8);
        }
        occ
    }

    fn tier(rng: &mut TestRng) -> TierTelemetry {
        TierTelemetry {
            load_to_use: hist(rng),
            queue_wait: hist(rng),
            demand_reads: count(rng),
            prefetch_reads: count(rng),
            writebacks: count(rng),
        }
    }

    /// An arbitrary outcome: random counters and finite floats, with and
    /// without Prodigy stats, memory tiers, occupancy and attribution rows.
    fn arb_outcome(rng: &mut TestRng) -> RunOutcome {
        let mut stats = prodigy_sim::Stats {
            instructions: count(rng),
            loads: count(rng),
            stores: count(rng),
            branches: count(rng),
            mispredicts: count(rng),
            cycles: count(rng),
            dram_reads: count(rng),
            dram_writes: count(rng),
            dram_queue_cycles: count(rng),
            tlb_hits: count(rng),
            tlb_misses: count(rng),
            prefetches_issued: count(rng),
            llc_misses_prefetchable: count(rng),
            llc_misses_other: count(rng),
            ..Default::default()
        };
        for l in [&mut stats.l1d, &mut stats.l2, &mut stats.l3] {
            (l.hits, l.misses, l.writebacks) = (count(rng), count(rng), count(rng));
        }
        let pu = &mut stats.prefetch_use;
        (pu.hit_l1, pu.hit_l2, pu.hit_l3, pu.evicted_unused) =
            (count(rng), count(rng), count(rng), count(rng));
        let c = &mut stats.cpi;
        for b in [
            &mut c.no_stall,
            &mut c.dram,
            &mut c.cache,
            &mut c.branch,
            &mut c.dependency,
            &mut c.other,
        ] {
            *b = float(rng);
        }
        let mut attribution = AttributionTable::default();
        for _ in 0..rng.index(5) {
            let counts = SourceCounts {
                issued: count(rng),
                timely: count(rng),
                late: count(rng),
                inaccurate: count(rng),
                dropped: count(rng),
                polluting: count(rng),
            };
            *attribution.row(rng.next_u64() as u16) = counts;
        }
        let mut telemetry = TelemetrySummary {
            load_to_use: hist(rng),
            fill_to_use: hist(rng),
            late_wait: hist(rng),
            dram_round_trip: hist(rng),
            dram_queue_wait: hist(rng),
            dig_transitions: count(rng),
            attribution,
            ..Default::default()
        };
        let t = &mut telemetry.timeliness;
        (t.timely, t.late, t.inaccurate, t.dropped) =
            (count(rng), count(rng), count(rng), count(rng));
        let p = &mut telemetry.pollution;
        (p.l1, p.l2, p.l3) = (count(rng), count(rng), count(rng));
        let tiered = rng.index(2) == 0;
        if tiered {
            telemetry.tiers = Some(TierSplit {
                near: tier(rng),
                far: tier(rng),
            });
        }
        if rng.index(3) > 0 {
            telemetry.occupancy = Some(OccupancySnapshot {
                levels: [
                    occupancy_level(rng),
                    occupancy_level(rng),
                    occupancy_level(rng),
                ],
                tiers: tiered.then(|| [occupancy_level(rng), occupancy_level(rng)]),
            });
        }
        let prodigy = (rng.index(2) == 0).then(|| ProdigyStats {
            sequences_initiated: count(rng),
            sequences_dropped: count(rng),
            single_prefetches: count(rng),
            ranged_prefetches: count(rng),
            trigger_prefetches: count(rng),
            inline_advances: count(rng),
            pfhr_drops: count(rng),
            elements_advanced: count(rng),
            range_elements_tracked: count(rng),
        });
        let names = ["none", "prodigy", "ghb-gdc", "odd \"name\"\\\n\u{1}é"];
        RunOutcome {
            summary: RunSummary {
                stats,
                energy: prodigy_sim::EnergyBreakdown {
                    core: float(rng),
                    cache: float(rng),
                    dram: float(rng),
                    other: float(rng),
                },
                prefetcher: names[rng.index(names.len())].to_string(),
            },
            checksum: rng.next_u64(),
            prodigy,
            storage_bits: count(rng),
            seed: rng.next_u64(),
            // Host-side: never encoded, so never compared.
            timing: prodigy_sim::RunTiming {
                host_nanos: count(rng),
            },
            telemetry,
            trace: None,
            metrics: None,
        }
    }

    fn temp_cache(tag: &str) -> (PathBuf, CellCache) {
        let dir =
            std::env::temp_dir().join(format!("prodigy-cellcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn arbitrary_outcomes_round_trip_byte_identically() {
        let (dir, cache) = temp_cache("prop");
        proptest::run_cases("cellcache_round_trip", |rng| {
            let out = arb_outcome(rng);
            let text = out.to_json().to_string();
            let back = RunOutcome::from_json(&parse_json(&text).unwrap())
                .unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back.to_json().to_string(), text);
            assert_eq!(back.timing.host_nanos, 0, "host timing is never persisted");
            let key = format!("cell|{}", rng.next_u64());
            cache.store(&key, &out).unwrap();
            let loaded = cache.load(&key).expect("stored entry loads");
            assert_eq!(loaded.to_json().to_string(), text);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_then_load_hits_and_other_keys_miss() {
        let (dir, cache) = temp_cache("keys");
        let out = arb_outcome(&mut TestRng::from_seed(1));
        let cell = "pr|false|prodigy|16|8";
        let sys = SystemConfig::default();
        let key = composite_key(cell, 1, &sys, 0, "testrev");
        assert!(cache.load(&key).is_none(), "cold cache misses");
        cache.store(&key, &out).unwrap();
        let loaded = cache.load(&key).expect("warm cache hits");
        assert_eq!(loaded.to_json(), out.to_json());
        // Changing any component of the address misses.
        for other in [
            composite_key(cell, 1, &sys, 7, "testrev"),
            composite_key(cell, 1, &sys, 0, "otherrev"),
            composite_key(cell, 64, &sys, 0, "testrev"),
            composite_key("pr|false|none|16|8", 1, &sys, 0, "testrev"),
        ] {
            assert_ne!(other, key);
            assert!(cache.load(&other).is_none(), "{other} must miss");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_or_mismatched_entries_are_misses() {
        let (dir, cache) = temp_cache("corrupt");
        let out = arb_outcome(&mut TestRng::from_seed(2));
        let key = "cell|scale=1|sys=0|seed=0|rev=r";
        cache.store(key, &out).unwrap();
        let path = cache.path_for(key);
        let good = std::fs::read_to_string(&path).unwrap();
        let checksum = format!("\"checksum\":{}", out.checksum);
        assert!(good.contains(&checksum));

        // Truncated entry.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(cache.load(key).is_none(), "truncated entry is a miss");

        // A counter changed in place: still decodes, but the digest is stale.
        let tampered = format!("\"checksum\":{}", out.checksum ^ 1);
        std::fs::write(&path, good.replace(&checksum, &tampered)).unwrap();
        assert!(cache.load(key).is_none(), "tampered entry is a miss");

        // Entry whose embedded key disagrees (filename hash collision).
        std::fs::write(&path, good.replace(key, "someone|else=entirely")).unwrap();
        assert!(cache.load(key).is_none(), "key mismatch is a miss");

        // Not JSON at all.
        std::fs::write(&path, "not json {{{").unwrap();
        assert!(cache.load(key).is_none(), "garbage entry is a miss");

        // Wrong format version.
        std::fs::write(&path, good.replace("\"version\":2", "\"version\":999")).unwrap();
        assert!(cache.load(key).is_none(), "future version is a miss");

        // And after all that abuse, re-storing repairs the entry.
        cache.store(key, &out).unwrap();
        assert!(cache.load(key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
