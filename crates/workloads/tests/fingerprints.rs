//! Golden fingerprints of the generated inputs: an FNV-1a hash over every
//! offset and edge of a CSR. The values were recorded from the float
//! sampler and pair-list code the generators replaced, so a generator
//! change that moves any edge of any stand-in fails here.
//!
//! The divisor-64 stand-ins run with every `cargo test`; the full-size
//! inputs take seconds in a debug build, so they are `#[ignore]`d and run
//! in release mode:
//!
//! ```bash
//! cargo test --release -p prodigy-workloads -- --ignored
//! ```

use prodigy_workloads::graph::csr::Csr;
use prodigy_workloads::graph::generators::stencil27;
use prodigy_workloads::DATASETS;

/// FNV-1a over the little-endian bytes of `offsets`, then of `edges`.
fn fingerprint(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in g.offsets.iter().chain(&g.edges) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checks every Table II stand-in at `divisor` against `golden`, given in
/// `DATASETS` order as `(name, vertices, edges, fingerprint)`.
fn check_stand_ins(divisor: u32, golden: [(&str, u32, u64, u64); 5]) {
    for (d, (name, n, m, fp)) in DATASETS.iter().zip(golden) {
        assert_eq!(d.name, name);
        let g = d.instantiate(divisor);
        assert_eq!(
            (g.n(), g.m(), fingerprint(&g)),
            (n, m, fp),
            "{name} at divisor {divisor}"
        );
    }
}

#[test]
fn stand_ins_at_divisor_64_match_their_golden_fingerprints() {
    check_stand_ins(
        64,
        [
            ("po", 750, 14_250, 0xcd2f_5ffd_33bf_33dc),
            ("lj", 1500, 21_000, 0xd933_25a0_4bc5_5158),
            ("or", 937, 35_606, 0x85cd_dabc_ee9e_8998),
            ("sk", 2000, 76_000, 0x3807_de74_989c_0f92),
            ("wb", 2500, 22_500, 0xd0c7_7ed5_fd3b_3e6f),
        ],
    );
}

#[test]
#[ignore = "full-size inputs: run in release mode with --ignored"]
fn stand_ins_at_divisor_8_match_their_golden_fingerprints() {
    check_stand_ins(
        8,
        [
            ("po", 6000, 114_000, 0x6b02_1d7e_47e6_0b2f),
            ("lj", 12_000, 168_000, 0x3134_c563_8f8a_1451),
            ("or", 7500, 285_000, 0x50c8_9208_9045_2be2),
            ("sk", 16_000, 608_000, 0x5022_bc5b_edf5_51da),
            ("wb", 20_000, 180_000, 0xe9d3_7b82_d316_5d0b),
        ],
    );
}

#[test]
#[ignore = "full-size inputs: run in release mode with --ignored"]
fn stand_ins_at_divisor_1_match_their_golden_fingerprints() {
    check_stand_ins(
        1,
        [
            ("po", 48_000, 912_000, 0x288e_3f79_bc5a_63ab),
            ("lj", 96_000, 1_344_000, 0x4cd3_c4aa_b95e_3f4a),
            ("or", 60_000, 2_280_000, 0x0e02_e111_fc01_6015),
            ("sk", 128_000, 4_864_000, 0xd684_b3e2_621e_0aa2),
            ("wb", 160_000, 1_440_000, 0x7e92_87ce_bda8_79b1),
        ],
    );
}

#[test]
#[ignore = "full-size inputs: run in release mode with --ignored"]
fn stand_in_transposes_at_divisor_1_match_their_golden_fingerprints() {
    let golden = [
        ("po", 0xeef3_36c7_b3e0_d33b),
        ("lj", 0x1d4c_2fc9_be2f_dbaf),
        ("or", 0x15ff_0bc5_2f33_b146),
        ("sk", 0x0b40_632f_b26b_e280),
        ("wb", 0x1d16_144a_ebc1_5061),
    ];
    for (d, (name, fp)) in DATASETS.iter().zip(golden) {
        assert_eq!(d.name, name);
        assert_eq!(fingerprint(&d.instantiate(1).transpose()), fp, "{name}");
    }
}

#[test]
#[ignore = "full-size inputs: run in release mode with --ignored"]
fn stencil27_40_matches_its_golden_fingerprint() {
    let g = stencil27(40, 40, 40);
    assert_eq!(
        (g.n(), g.m(), fingerprint(&g)),
        (64_000, 1_643_032, 0xbf93_d2e4_9f86_3712)
    );
}
