//! Property-based tests of the Prodigy hardware structures.

use prodigy::dig::NodeId;
use prodigy::pfhr::RangeCont;
use prodigy::{Dig, EdgeKind, PfhrFile, ProdigyPrefetcher, TriggerSpec};
use proptest::prelude::*;

fn arb_edge_kind() -> impl Strategy<Value = EdgeKind> {
    prop_oneof![Just(EdgeKind::SingleValued), Just(EdgeKind::Ranged)]
}

proptest! {
    /// Arbitrary DIGs (valid or not) never panic on validate(), and
    /// programming a prefetcher with a *valid* one always succeeds and
    /// registers exactly the DIG's nodes/edges (up to table capacity).
    #[test]
    fn arbitrary_digs_are_safe(
        nodes in prop::collection::vec((0u64..1u64 << 30, 1u64..4096, prop::sample::select(vec![1u8, 2, 4, 8])), 1..12),
        edges in prop::collection::vec((0u8..12, 0u8..12), 0..12),
        kinds in prop::collection::vec(arb_edge_kind(), 12),
        trig in 0u8..12,
    ) {
        let mut dig = Dig::new();
        let ids: Vec<_> = nodes
            .iter()
            .scan(0u64, |cursor, &(gap, elems, size)| {
                // Lay arrays out disjointly.
                let base = 0x1000_0000 + *cursor;
                *cursor += gap % 0x10_0000 + elems * size as u64 + 64;
                Some(dig.node(base, elems, size))
            })
            .collect();
        for (i, &(s, d)) in edges.iter().enumerate() {
            if (s as usize) < ids.len() && (d as usize) < ids.len() {
                dig.edge(ids[s as usize], ids[d as usize], kinds[i]);
            }
        }
        if (trig as usize) < ids.len() {
            dig.trigger(ids[trig as usize], TriggerSpec::default());
        }
        let _depth = dig.depth_from_trigger(); // must not hang on cycles
        if dig.validate().is_ok() {
            let mut pf = ProdigyPrefetcher::default();
            pf.program(&dig).expect("validated DIG must program");
            prop_assert_eq!(pf.node_table().rows().len(), dig.nodes().len().min(16));
        }
    }

    /// The PFHR file's occupancy equals allocations minus takes/drops, and
    /// a sequence drop removes exactly the entries with that trigger.
    #[test]
    fn pfhr_sequence_drop_is_exact(
        allocs in prop::collection::vec((0u64..4, 0u64..1u64 << 12), 1..32)
    ) {
        let mut f = PfhrFile::new(64);
        for &(trig, elem) in &allocs {
            f.allocate(NodeId(0), trig, elem * 4, 4);
        }
        let before = f.occupied();
        let dropped = f.drop_sequence(2);
        prop_assert_eq!(f.occupied(), before - dropped);
        prop_assert_eq!(f.drop_sequence(2), 0, "second drop finds nothing");
    }

    /// Continuations survive merges: the last Some(cont) wins.
    #[test]
    fn pfhr_continuation_overwrite(next in 1u64..1000, last in 1u64..1000) {
        let mut f = PfhrFile::new(4);
        f.allocate_with(NodeId(1), 7, 0x1000, 4, None);
        f.allocate_with(
            NodeId(1),
            7,
            0x1004,
            4,
            Some(RangeCont { next_line: next * 64, last_elem: last * 64 }),
        );
        let e = f.take(0x1000).expect("entry present");
        let c = e.cont.expect("continuation kept");
        prop_assert_eq!(c.next_line, next * 64);
        prop_assert_eq!(c.last_elem, last * 64);
    }

    /// Storage arithmetic: total = DIG tables + PFHRs, monotone in the
    /// PFHR count (the one sized knob; the DIG tables are fixed).
    #[test]
    fn storage_monotone(p in 1usize..64) {
        use prodigy::storage::{dig_table_bits, pfhr_bits, total_bits};
        let base = prodigy::ProdigyConfig::default();
        let cfg = prodigy::ProdigyConfig {
            pfhr_entries: p,
            ..base
        };
        prop_assert_eq!(total_bits(&cfg), dig_table_bits() + pfhr_bits(&cfg));
        let bigger = prodigy::ProdigyConfig {
            pfhr_entries: p + 1,
            ..base
        };
        prop_assert!(total_bits(&bigger) > total_bits(&cfg));
    }
}
