//! Bakes a build fingerprint ("code rev") into the bench crate.
//!
//! The persistent cell cache keys every entry by
//! `workload|config|seed|code-rev`: a change to any crate that can affect
//! simulated results must invalidate previously cached cells. The
//! fingerprint is an FNV-1a hash over the sources of every such crate
//! (core, sim, prefetchers, workloads, bench itself, and the vendored
//! stand-ins under `vendor/`), exposed at compile time as
//! `PRODIGY_BUILD_FINGERPRINT`. Users can override the effective code
//! rev at runtime with the `PRODIGY_CODE_REV` environment variable
//! (e.g. to share a cache across builds known to be result-identical).
//!
//! The root list and hash live in `fingerprint.rs`, shared with
//! `tests/fingerprint.rs` so the covered-roots invariant is testable.

include!("fingerprint.rs");

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("manifest dir"));
    for root in SOURCE_ROOTS {
        println!("cargo:rerun-if-changed={}", manifest.join(root).display());
    }
    println!(
        "cargo:rerun-if-changed={}",
        manifest.join("fingerprint.rs").display()
    );
    let h = source_fingerprint(&manifest, SOURCE_ROOTS);
    println!("cargo:rustc-env=PRODIGY_BUILD_FINGERPRINT={h:016x}");
}
