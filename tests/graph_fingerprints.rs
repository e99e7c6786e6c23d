//! The generated inputs' golden fingerprints, run with the tier-1 tests.
//! One source: the tests live beside the generators' crate and are compiled
//! here as a module.

#[path = "../crates/workloads/tests/fingerprints.rs"]
mod fingerprints;
