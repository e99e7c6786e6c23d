//! Table-driven fuzz corpus for the JSON input surfaces: the cell-cache
//! loader, `RunOutcome::from_json` and `--merge`'s cell reader.
//!
//! The corpus starts from a real stored cache entry and mutates it:
//! every truncation prefix, single-bit flips, seeded random bytes, deep
//! nesting, duplicate keys, out-of-range numbers, lone surrogates and bad
//! escapes. Each input must give a miss/`Err`, or an outcome that encodes
//! back to the input (for the cache: to the outcome that was stored). None
//! may panic or overflow the stack.

use prodigy_bench::{merge_reports, CellCache};
use prodigy_sim::json::{parse_json, FromJson, Json, ToJson};
use prodigy_sim::SystemConfig;
use prodigy_workloads::graph::generators::rmat;
use prodigy_workloads::kernels::Bfs;
use prodigy_workloads::{run_workload, PrefetcherKind, RunConfig, RunOutcome};
use proptest::TestRng;

/// A small Prodigy run: Prodigy counters, attribution rows and an occupancy
/// snapshot are all present in its JSON.
fn real_outcome() -> RunOutcome {
    let mut k = Bfs::new(rmat(512, 4096, 2, (0.57, 0.19, 0.19)), 0);
    let out = run_workload(
        &mut k,
        &RunConfig {
            sys: SystemConfig::scaled(64).with_cores(2),
            prefetcher: PrefetcherKind::Prodigy,
            ..RunConfig::default()
        },
    );
    assert!(out.prodigy.is_some() && !out.telemetry.attribution.is_empty());
    assert!(out.telemetry.occupancy.is_some());
    out
}

/// Replaces the value of the first `"key":` in `text` with `value`.
fn set_value(text: &str, key: &str, value: &str) -> Vec<u8> {
    let tag = format!("\"{key}\":");
    let at = text.find(&tag).unwrap_or_else(|| panic!("{key} in {text}")) + tag.len();
    let end = at + text[at..].find([',', '}']).expect("value ends");
    format!("{}{value}{}", &text[..at], &text[end..]).into_bytes()
}

/// The mutation table over `good`, the bytes of a valid document.
fn corpus(good: &str) -> Vec<(String, Vec<u8>)> {
    let b = good.as_bytes();
    let mut cases: Vec<(String, Vec<u8>)> = (0..b.len())
        .map(|n| (format!("truncated to {n} bytes"), b[..n].to_vec()))
        .collect();
    for off in (0..b.len()).step_by(5) {
        for bit in 0..8 {
            let mut m = b.to_vec();
            m[off] ^= 1 << bit;
            cases.push((format!("bit {bit} flipped at byte {off}"), m));
        }
    }
    let mut rng = TestRng::from_seed(0x00c0_ffee);
    for i in 0..64 {
        let len = rng.index(600);
        let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
        cases.push((format!("random bytes #{i}"), bytes));
    }
    cases.push(("100 KB of [".into(), b"[".repeat(100_000)));
    cases.push(("100 KB of {\"a\":".into(), b"{\"a\":".repeat(20_000)));
    let table: &[(&str, &str, &str)] = &[
        ("duplicate key", "checksum", "0,\"checksum\":0"),
        ("duplicate object", "prodigy", "null,\"prodigy\":null"),
        ("1e999 float", "no_stall", "1e999"),
        ("1e999 counter", "cycles", "1e999"),
        ("u64 overflow", "cycles", "18446744073709551616"),
        ("negative counter", "cycles", "-1"),
        ("fractional counter", "cycles", "1.5"),
        ("leading zero", "cycles", "01"),
        ("non-canonical float", "no_stall", "1.50"),
        ("lone surrogate", "prefetcher", r#""\ud800""#),
        ("lone low surrogate", "prefetcher", r#""\udc00x""#),
        ("bad escape", "prefetcher", r#""\x41""#),
        ("short \\u escape", "prefetcher", r#""\u12""#),
        ("non-hex \\u escape", "prefetcher", r#""\u00zz""#),
        ("dangling backslash", "prefetcher", r#""prodigy\"#),
        ("raw control char", "prefetcher", "\"pro\u{1}digy\""),
        ("wrong type", "seed", "\"42\""),
        ("nan", "dram", "NaN"),
    ];
    for (name, key, value) in table {
        cases.push((name.to_string(), set_value(good, key, value)));
    }
    cases
}

#[test]
fn outcome_decoder_rejects_or_round_trips_every_mutation() {
    let payload = real_outcome().to_json().to_string();
    let mut accepted = 0;
    for (name, bytes) in corpus(&payload) {
        let Some(v) = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|t| parse_json(t).ok())
        else {
            continue;
        };
        if let Ok(out) = RunOutcome::from_json(&v) {
            // Decoding lost nothing: the outcome encodes back to the input's
            // compact form (the input itself, unless a flip turned a digit
            // into a space).
            assert_eq!(out.to_json().to_string(), v.to_string(), "{name}");
            accepted += 1;
        }
    }
    // Flipped digits inside counters still decode (to other counters).
    assert!(accepted > 0);
    assert!(RunOutcome::from_json(&parse_json(&payload).unwrap()).is_ok());
}

#[test]
fn cache_loader_misses_or_serves_the_stored_outcome() {
    let dir = std::env::temp_dir().join(format!("prodigy-input-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CellCache::open(&dir).unwrap();
    let key = "bfs|false|prodigy|16|2|scale=64|sys=0|seed=0|rev=fuzz";
    let out = real_outcome();
    cache.store(key, &out).unwrap();
    let path = cache.path_for(key);
    let entry = std::fs::read_to_string(&path).unwrap();
    let stored = out.to_json();
    let v = parse_json(&entry).unwrap();
    assert_eq!(v.get("payload"), Some(&stored));
    assert_eq!(format!("{v}\n"), entry, "entries are compact JSON");
    let mut hits = Vec::new();
    for (name, bytes) in corpus(&entry) {
        std::fs::write(&path, &bytes).unwrap();
        if let Some(loaded) = cache.load(key) {
            assert_eq!(loaded.to_json(), stored, "{name} served a wrong outcome");
            hits.push(name);
        }
    }
    // Only dropping the trailing newline leaves a valid entry.
    assert_eq!(hits, [format!("truncated to {} bytes", entry.len() - 1)]);
    // The cache recovers: a fresh store over the garbage loads again.
    cache.store(key, &out).unwrap();
    assert_eq!(cache.load(key).map(|o| o.to_json()), Some(stored));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_a_corrupted_or_truncated_cell_outcome_naming_the_cell() {
    let outcome = real_outcome().to_json();
    let Json::Obj(fields) = &outcome else {
        panic!("an outcome is an object")
    };
    // A one-cell report whose cell holds the fields of `text`, an object.
    let report = |text: &str| {
        let inner = text.strip_prefix('{')?.strip_suffix('}')?;
        let sep = if inner.is_empty() { "" } else { "," };
        let cell = format!(r#"{{"key":"k"{sep}{inner},"error":null}}"#);
        parse_json(&format!(r#"{{"base_seed":0,"cells":[{cell}]}}"#)).ok()
    };
    let truncated = (0..=fields.len()).map(|n| {
        let kept = Json::Obj(fields[..n].to_vec()).to_string();
        (format!("first {n} outcome fields"), kept)
    });
    let corrupted = corpus(&outcome.to_string())
        .into_iter()
        .filter_map(|(name, bytes)| Some((name, String::from_utf8(bytes).ok()?)));
    let (mut rejected, mut accepted) = (0, 0);
    for (name, text) in truncated.chain(corrupted) {
        let Some(v) = report(&text) else {
            continue;
        };
        match merge_reports(std::slice::from_ref(&v)) {
            Err(e) => {
                assert!(e.starts_with("input #1: cell k: "), "{name}: {e}");
                rejected += 1;
            }
            // A flipped digit still decodes: the merge re-emits what it read.
            Ok(merged) => {
                assert_eq!(merged.get("cells"), v.get("cells"), "{name}");
                accepted += 1;
            }
        }
    }
    assert!(
        rejected > fields.len() && accepted > 1,
        "{rejected} rejected, {accepted} accepted"
    );
}
