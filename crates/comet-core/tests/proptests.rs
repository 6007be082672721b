//! Property-based tests for the COMET framework's core invariants.

use comet_bhive::{generate_source_block, GenConfig, Source};
use comet_core::{
    extract_features, ground_truth, is_accurate, precision, ExplainConfig, ExplainError, Explainer,
    Feature, FeatureSet, PerturbConfig, Perturber,
};
use comet_graph::BlockGraph;
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CostModel, CrudeModel, FaultConfig, FaultyModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_block() -> impl Strategy<Value = BasicBlock> {
    (any::<u64>(), prop_oneof![Just(Source::Clang), Just(Source::OpenBlas)]).prop_map(
        |(seed, source)| {
            let mut rng = StdRng::seed_from_u64(seed);
            generate_source_block(source, GenConfig::default(), &mut rng)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Γ's central guarantee: preserved features always survive, and
    /// the emitted block is always valid — and prints as text that
    /// parses back to the same block, which is how a Γ sample reaches
    /// anything that takes blocks as text (the wire, the store).
    #[test]
    fn perturbation_preserves_requested_features(
        block in arb_block(),
        seed in any::<u64>(),
        pick in any::<prop::sample::Index>(),
    ) {
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let features = perturber.features().to_vec();
        let feature = features[pick.index(features.len())];
        let mut preserve = FeatureSet::new();
        preserve.insert(feature);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let out = perturber.perturb(&preserve, &mut rng);
            prop_assert!(out.block.is_valid());
            prop_assert!(
                preserve.is_subset(&out.surviving),
                "{feature} lost in\n{}",
                out.block
            );
            let text = out.block.to_string();
            let reparsed = comet_isa::parse_block(&text);
            prop_assert!(reparsed.is_ok(), "{:?} in\n{text}", reparsed.err());
            prop_assert_eq!(reparsed.unwrap(), out.block.clone(), "round trip of\n{}", text);
        }
    }

    /// Surviving feature sets are sound: every reported surviving
    /// feature is actually a feature of the perturbed block.
    #[test]
    fn surviving_features_exist_in_perturbed_block(
        block in arb_block(),
        seed in any::<u64>(),
    ) {
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let out = perturber.perturb(&FeatureSet::new(), &mut rng);
        // η survival must match length equality.
        prop_assert_eq!(
            out.surviving.contains(&Feature::NumInstructions),
            out.block.len() == block.len()
        );
        // Dependency survival is checked against a fresh analysis when
        // lengths match (positions are then stable for undeleted
        // prefixes only; full re-mapping is internal, so restrict to
        // the no-deletion case).
        if out.block.len() == block.len() {
            let new_graph = BlockGraph::build(&out.block);
            for feature in &out.surviving {
                if let Feature::Dependency { kind, src, dst } = *feature {
                    prop_assert!(
                        new_graph.find_edge(kind, src, dst).is_some(),
                        "reported surviving {feature} missing in\n{}",
                        out.block
                    );
                }
            }
        }
    }

    /// GT(β) is never empty, contains only block features, and is
    /// self-accurate.
    #[test]
    fn ground_truth_well_formed(block in arb_block()) {
        for march in Microarch::ALL {
            let crude = CrudeModel::new(march);
            let gt = ground_truth(&crude, &block);
            prop_assert!(!gt.is_empty());
            let graph = BlockGraph::build(&block);
            let all: FeatureSet = extract_features(&block, &graph).into_iter().collect();
            prop_assert!(gt.is_subset(&all));
            prop_assert!(is_accurate(&gt, &gt));
        }
    }

    /// The crude model's prediction equals the max of its component
    /// costs and is achieved by every ground-truth feature.
    #[test]
    fn crude_prediction_is_the_feature_max(block in arb_block()) {
        let crude = CrudeModel::new(Microarch::Haswell);
        let total = crude.predict(&block);
        let graph = BlockGraph::build(&block);
        let mut max_cost = crude.cost_eta(block.len());
        for i in 0..block.len() {
            max_cost = max_cost.max(crude.cost_inst(&block, i));
        }
        for edge in graph.edges() {
            max_cost = max_cost.max(crude.cost_dep(&block, edge));
        }
        prop_assert!((total - max_cost).abs() < 1e-12);
    }

    /// KL bounds always bracket the empirical mean and lie in [0, 1].
    #[test]
    fn kl_bounds_bracket_mean(successes in 0u64..200, extra in 0u64..200, beta in 0.01f64..20.0) {
        let n = successes + extra;
        prop_assume!(n > 0);
        let p_hat = successes as f64 / n as f64;
        let lcb = precision::kl_lcb(p_hat, n, beta);
        let ucb = precision::kl_ucb(p_hat, n, beta);
        prop_assert!((0.0..=1.0).contains(&lcb));
        prop_assert!((0.0..=1.0).contains(&ucb));
        prop_assert!(lcb <= p_hat + 1e-9, "lcb {lcb} > mean {p_hat}");
        prop_assert!(ucb >= p_hat - 1e-9, "ucb {ucb} < mean {p_hat}");
    }

    /// Perturbation-space estimates shrink monotonically as features
    /// are pinned.
    #[test]
    fn space_estimates_monotone(block in arb_block(), pick in any::<prop::sample::Index>()) {
        let empty = comet_core::space::estimate_space(&block, &FeatureSet::new());
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let features = perturber.features().to_vec();
        let feature = features[pick.index(features.len())];
        let mut preserve = FeatureSet::new();
        preserve.insert(feature);
        let pinned = comet_core::space::estimate_space(&block, &preserve);
        prop_assert!(pinned <= empty + 1e-9, "{feature}: {pinned} > {empty}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitmask feature-set representation is observationally
    /// equivalent to `BTreeSet<Feature>` under any interleaving of
    /// inserts and removes: same membership, same cardinality, same
    /// iteration order (the seeded-RNG determinism contract), and
    /// lossless conversion both ways.
    #[test]
    fn bitmask_matches_btreeset_semantics(
        block in arb_block(),
        ops in prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..64),
    ) {
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let pool = perturber.pool();
        let n = pool.len();
        let mut mask = pool.empty_mask();
        let mut set = FeatureSet::new();
        for (pick, insert) in ops {
            let index = pick.index(n);
            let feature = pool.feature(index);
            if insert {
                mask.insert(index);
                set.insert(feature);
            } else {
                mask.remove(index);
                set.remove(&feature);
            }
            prop_assert_eq!(mask.len(), set.len());
            prop_assert_eq!(mask.is_empty(), set.is_empty());
        }
        for index in 0..n {
            prop_assert_eq!(mask.contains(index), set.contains(&pool.feature(index)));
        }
        let via_mask: Vec<Feature> = mask.iter().map(|i| pool.feature(i)).collect();
        let via_set: Vec<Feature> = set.iter().copied().collect();
        prop_assert_eq!(via_mask, via_set, "mask iteration must follow Ord order");
        prop_assert_eq!(pool.set_of(&mask), set.clone());
        prop_assert_eq!(pool.mask_of(&set), mask);
    }

    /// `FeatureMask::is_subset` agrees with `BTreeSet::is_subset` for
    /// arbitrary pairs of subsets of one pool.
    #[test]
    fn bitmask_subset_matches_btreeset(
        block in arb_block(),
        picks_a in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
        picks_b in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let perturber = Perturber::new(&block, PerturbConfig::default());
        let pool = perturber.pool();
        let n = pool.len();
        let build = |picks: &[prop::sample::Index]| {
            let mut mask = pool.empty_mask();
            let mut set = FeatureSet::new();
            for pick in picks {
                let index = pick.index(n);
                mask.insert(index);
                set.insert(pool.feature(index));
            }
            (mask, set)
        };
        let (mask_a, set_a) = build(&picks_a);
        let (mask_b, set_b) = build(&picks_b);
        prop_assert_eq!(mask_a.is_subset(&mask_b), set_a.is_subset(&set_b));
        prop_assert_eq!(mask_b.is_subset(&mask_a), set_b.is_subset(&set_a));
        prop_assert_eq!(mask_a == mask_b, set_a == set_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Robustness contract: explaining through a misbehaving model
    /// never panics, never exceeds the query budget, and either yields
    /// a well-formed (possibly degraded) explanation or a typed model
    /// error from the initial prediction.
    #[test]
    fn explain_tolerates_fault_injection(block in arb_block(), seed in any::<u64>()) {
        let faulty = FaultyModel::new(
            CrudeModel::new(Microarch::Haswell),
            FaultConfig {
                nan_rate: 0.05,
                transient_rate: 0.05,
                panic_rate: 0.05,
                seed,
                ..Default::default()
            },
        );
        let config = ExplainConfig {
            coverage_samples: 50,
            max_samples: 40,
            max_total_queries: 600,
            ..ExplainConfig::for_crude_model()
        };
        let explainer = Explainer::new(faulty, config);
        match explainer.explain(&block, seed ^ 0xDEAD_BEEF) {
            Ok(e) => {
                prop_assert!(e.queries <= config.max_total_queries, "budget blown: {}", e.queries);
                prop_assert!(!e.features.is_empty());
                prop_assert!((0.0..=1.0).contains(&e.precision));
                prop_assert!((0.0..=1.0).contains(&e.coverage));
                prop_assert!(e.faults == 0 || e.degraded, "faults without degraded flag");
                prop_assert_eq!(e.faults, explainer.model().stats().total_faults());
            }
            // The model faulted on the original block itself: a typed
            // error, not a panic, is the contract.
            Err(err) => prop_assert!(matches!(err, ExplainError::Model(_)), "unexpected: {err:?}"),
        }
    }
}
