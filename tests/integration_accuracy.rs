//! A miniature Table-2 run as an integration test: COMET must beat the
//! random baseline by a wide margin on the crude model's ground truth.

use comet::bhive::{Corpus, GenConfig};
use comet::core::{ground_truth, is_accurate, BaselineContext, FeatureSet};
use comet::isa::Microarch;
use comet::models::CrudeModel;
use comet::{ExplainConfig, Explainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn comet_beats_random_baseline_on_crude_model() {
    let corpus = Corpus::generate(16, GenConfig::default(), 99);
    let crude = CrudeModel::new(Microarch::Haswell);
    let config = ExplainConfig { coverage_samples: 300, ..ExplainConfig::for_crude_model() };
    let explainer = Explainer::new(crude, config);

    let gts: Vec<FeatureSet> = corpus.iter().map(|e| ground_truth(&crude, &e.block)).collect();
    let baseline = BaselineContext::from_ground_truths(&gts);

    let mut rng = StdRng::seed_from_u64(0);
    let mut comet_hits = 0;
    let mut random_hits = 0;
    for (i, (entry, gt)) in corpus.iter().zip(&gts).enumerate() {
        let explanation = explainer.explain(&entry.block, i as u64).unwrap();
        if is_accurate(&explanation.features, gt) {
            comet_hits += 1;
        }
        if is_accurate(&baseline.random_explanation(&entry.block, &mut rng), gt) {
            random_hits += 1;
        }
    }
    assert!(
        comet_hits >= 10,
        "COMET accurate on only {comet_hits}/16 blocks (random: {random_hits})"
    );
    assert!(comet_hits > random_hits, "COMET {comet_hits} vs random {random_hits}");
}

#[test]
fn explanations_have_meaningful_precision_and_coverage() {
    let corpus = Corpus::generate(8, GenConfig::default(), 101);
    let crude = CrudeModel::new(Microarch::Skylake);
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    let explainer = Explainer::new(crude, config);
    for (i, entry) in corpus.iter().enumerate() {
        let e = explainer.explain(&entry.block, 5 + i as u64).unwrap();
        assert!((0.0..=1.0).contains(&e.precision));
        assert!((0.0..=1.0).contains(&e.coverage));
        assert!(e.queries > 0);
        assert!(!e.features.is_empty());
        assert!(e.features.len() <= 4, "{}", e.display_features());
    }
}
