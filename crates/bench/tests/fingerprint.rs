//! Guards the build-fingerprint domain: the code rev baked into the
//! binary must cover every source root — including the vendored
//! stand-in crates, which an earlier revision of `build.rs` omitted.

include!("../fingerprint.rs");

/// Unique scratch dir per test (no wall clock in tests: pid + name).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prodigy-fp-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write(path: &Path, text: &str) {
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, text).expect("write");
}

#[test]
fn perturbing_a_vendored_source_changes_the_fingerprint() {
    // Mirror the real repo shape: the manifest dir is crates/bench, the
    // vendored crates sit two levels up under vendor/.
    let root = scratch("vendor");
    let manifest = root.join("crates/bench");
    write(&manifest.join("src/lib.rs"), "pub fn first_party() {}\n");
    let vendored = root.join("vendor/proptest/src/lib.rs");
    write(&vendored, "pub fn sample() {}\n");

    let before = source_fingerprint(&manifest, SOURCE_ROOTS);
    write(&vendored, "pub fn sample() { /* patched */ }\n");
    let after = source_fingerprint(&manifest, SOURCE_ROOTS);
    assert_ne!(
        before, after,
        "a vendored-source edit must invalidate the code rev"
    );

    // First-party edits still count too.
    write(&manifest.join("src/lib.rs"), "pub fn first_party2() {}\n");
    let third = source_fingerprint(&manifest, SOURCE_ROOTS);
    assert_ne!(after, third);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn baked_fingerprint_matches_a_fresh_walk_over_all_roots() {
    // The env var cargo baked at build time must equal a recomputation
    // over the real manifest with the full root list; combined with the
    // perturbation test above this proves vendored sources are inside
    // the baked fingerprint's domain.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fresh = format!("{:016x}", source_fingerprint(manifest, SOURCE_ROOTS));
    assert_eq!(env!("PRODIGY_BUILD_FINGERPRINT"), fresh);
    // Sanity: the walk actually saw the vendored crates.
    assert!(manifest.join("../../vendor/proptest/src/lib.rs").is_file());
}
