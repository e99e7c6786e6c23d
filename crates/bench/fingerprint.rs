// Build-fingerprint core, shared by inclusion (so `//` comments only:
// `include!` splices these tokens mid-file).
//
// `build.rs` includes this file to bake `PRODIGY_BUILD_FINGERPRINT` at
// compile time, and `tests/fingerprint.rs` includes it to prove the
// fingerprint domain covers every source root — the vendored stand-in
// crates in particular, which an earlier revision omitted (a cached
// cell produced under a patched vendored crate would have been served
// under an unchanged code rev).

use std::fs;
use std::path::{Path, PathBuf};

/// Source roots (relative to this crate's manifest dir) whose contents
/// determine simulation results. The vendored stand-ins ship inside the
/// repo and are compiled into the workspace, so they are part of the code
/// rev like any first-party crate.
const SOURCE_ROOTS: &[&str] = &[
    "src",
    "../core/src",
    "../sim/src",
    "../prefetchers/src",
    "../compiler/src",
    "../workloads/src",
    "../../vendor/criterion/src",
    "../../vendor/proptest/src",
];

/// FNV-1a over every `.rs` file under `roots`: `rel-path \0 contents \0`
/// per file, path-sorted so the hash is independent of directory-walk
/// order. Paths are taken relative to `manifest` (stable across
/// checkouts); missing roots are fine — the fingerprint simply covers
/// what exists.
fn source_fingerprint(manifest: &Path, roots: &[&str]) -> u64 {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        collect_rs(&manifest.join(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(manifest).unwrap_or(f);
        fnv(rel.to_string_lossy().as_bytes());
        fnv(&[0]);
        fnv(&fs::read(f).unwrap_or_default());
        fnv(&[0]);
    }
    h
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
