//! Property-based tests for the workload generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ww_model::{NodeId, Tree};
use ww_workload::{leaf_only, shared_zipf_mix, zipf_nodes, DiurnalDrift, RateProcess, Zipf};

fn arb_tree() -> impl Strategy<Value = Tree> {
    (1usize..=25)
        .prop_flat_map(|n| {
            let parents: Vec<BoxedStrategy<Option<usize>>> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Just(None).boxed()
                    } else {
                        (0..i).prop_map(Some).boxed()
                    }
                })
                .collect();
            parents
        })
        .prop_map(|p| Tree::from_parents(&p).expect("valid tree"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zipf probabilities are a decreasing distribution that sums to 1.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..500, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|r| z.probability(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for r in 1..n {
            prop_assert!(z.probability(r - 1) >= z.probability(r) - 1e-12);
        }
    }

    /// Zipf rate splits preserve the total exactly.
    #[test]
    fn zipf_rate_split_total(n in 1usize..200, s in 0.0f64..2.5, total in 0.0f64..1e6) {
        let z = Zipf::new(n, s).unwrap();
        let split = z.rate_split(total);
        prop_assert!((split.iter().sum::<f64>() - total).abs() < 1e-6 * (1.0 + total));
    }

    /// Zipf samples are always in range.
    #[test]
    fn zipf_samples_in_range(n in 1usize..100, s in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// leaf_only puts demand exactly on leaves.
    #[test]
    fn leaf_only_structure(tree in arb_tree(), rate in 0.0f64..100.0) {
        let v = leaf_only(&tree, rate);
        for u in tree.nodes() {
            if tree.is_leaf(u) {
                prop_assert_eq!(v[u], rate);
            } else {
                prop_assert_eq!(v[u], 0.0);
            }
        }
    }

    /// zipf_nodes conserves total demand and validates.
    #[test]
    fn zipf_nodes_conserves(tree in arb_tree(), total in 0.0f64..1e5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = zipf_nodes(&mut rng, &tree, total, 1.0);
        prop_assert!(v.validate_for(&tree).is_ok());
        prop_assert!((v.total() - total).abs() < 1e-6 * (1.0 + total));
    }

    /// shared_zipf_mix preserves each node's total demand across docs.
    #[test]
    fn shared_mix_node_totals(tree in arb_tree(), docs in 1usize..50, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = ww_workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
        let mix = shared_zipf_mix(&tree, &e, docs, 1.0);
        for (node, rate) in e.iter() {
            prop_assert!((mix.node_total(node) - rate).abs() < 1e-6);
        }
        prop_assert!((mix.spontaneous().total() - e.total()).abs() < 1e-6);
    }

    /// Diurnal drift conserves non-negativity and periodicity.
    #[test]
    fn drift_periodic_and_nonnegative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = Tree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let base = ww_workload::random_uniform(&mut rng, &tree, 1.0, 10.0);
        let mut p = DiurnalDrift::new(base, 0.5, 24.0);
        let v0 = p.rates_at(3.0);
        let v24 = p.rates_at(27.0);
        for u in 0..3 {
            let id = NodeId::new(u);
            prop_assert!(v0[id] >= 0.0);
            prop_assert!((v0[id] - v24[id]).abs() < 1e-9, "not periodic at n{u}");
        }
    }

    /// The streaming `documents()` equals collecting, sorting and
    /// deduplicating every `(node, doc)` pair, for rows with arbitrary
    /// (overlapping, disjoint, empty) document subsets; and `clone_from`
    /// into a live mix of another shape equals a fresh clone.
    #[test]
    fn documents_streams_the_sorted_distinct_set(
        rows in proptest::collection::vec(
            proptest::collection::vec((0u64..40, 0.0f64..9.0), 0..12),
            1..20,
        ),
        stale_rows in 0usize..30,
    ) {
        use ww_model::DocId;
        let mut mix = ww_workload::DocMix::new(rows.len());
        let mut all: Vec<DocId> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for &(d, r) in row {
                mix.set(NodeId::new(i), DocId::new(d), r);
                all.push(DocId::new(d));
            }
        }
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(mix.documents(), all);

        let mut live = ww_workload::DocMix::new(stale_rows);
        for i in 0..stale_rows {
            live.set(NodeId::new(i), DocId::new(99), 1.0);
        }
        live.clone_from(&mix);
        prop_assert_eq!(&live, &mix);
    }
}
