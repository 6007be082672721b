//! The store's reason to exist, as a test: a built store must be a
//! *bitwise* stand-in for the live batched search. For every block in
//! a freshly built corpus store, re-running the live path with the
//! same (model, config, seed) must produce an `Explanation` equal to
//! the stored one — and the stored float lanes must match to the bit,
//! not just to `==`. The analytics rollups must likewise agree with
//! the eval path's `feature_mix` definition, so the
//! `/analytics/categories` ranking reproduces Figure 3/4.

use comet_bhive::{classify, Category, Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, Explainer};
use comet_eval::figures::feature_mix;
use comet_models::ModelKind;
use comet_store::{build_store, BuildConfig, ExplanationStore};

const BLOCKS: usize = 12;
const CORPUS_SEED: u64 = 0xB10C5;
const SEED: u64 = 0;

fn built_store(dir: &std::path::Path) -> ExplanationStore {
    let out = dir.join("golden.comets");
    let cfg = BuildConfig {
        model: ModelKind::CrudeHaswell,
        blocks: BLOCKS,
        corpus_seed: CORPUS_SEED,
        seed: SEED,
        // Exercise the batched search the same way serving does.
        batch: 16,
        search_pool: 2,
        ..BuildConfig::default()
    };
    let report = build_store(&out, &cfg).expect("golden build succeeds");
    assert_eq!(report.records, BLOCKS);
    ExplanationStore::open(&out).expect("golden store opens")
}

#[test]
fn store_matches_live_search_bitwise() {
    let dir = std::env::temp_dir().join(format!("comet-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = built_store(&dir);

    // The live reference: same model kind, same effective config, same
    // seed, scalar-reference batch geometry (results are invariant to
    // batch/pool, which this also re-checks against the built store).
    let (model, default_epsilon) = ModelKind::CrudeHaswell.build();
    let config = ExplainConfig { epsilon: default_epsilon, ..ExplainConfig::default() };
    assert_eq!(config.epsilon.to_bits(), store.provenance().epsilon_bits);
    let explainer = Explainer::new(model, config);
    let exec = BatchExec::new(1, 1);

    let corpus = Corpus::generate(BLOCKS, GenConfig::default(), CORPUS_SEED);
    assert_eq!(store.len(), BLOCKS);
    for entry in corpus.iter() {
        let text = entry.block.to_string();
        let live = explainer
            .explain_batched(&entry.block, SEED, &exec)
            .expect("live explanation succeeds");
        let stored = store.lookup(&text).expect("every corpus block is in the store");
        assert_eq!(stored, live, "store/live mismatch on block:\n{text}");
        // Beyond PartialEq: the lanes are bit-identical.
        let index = store.lookup_index(&text).unwrap();
        let lanes = store.importance_at(index);
        assert_eq!(lanes[0].to_bits(), live.precision.to_bits());
        assert_eq!(lanes[1].to_bits(), live.coverage.to_bits());
        assert_eq!(lanes[2].to_bits(), live.prediction.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analytics_reproduce_eval_feature_mix() {
    let dir = std::env::temp_dir().join(format!("comet-golden-mix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = built_store(&dir);

    // Reconstruct per-category explanation lists from the store itself
    // and compare the stored rollups against the eval path's
    // feature_mix over the same explanations.
    for (slot, &category) in Category::ALL.iter().enumerate() {
        let explanations: Vec<_> = (0..store.len())
            .filter(|&i| store.category_at(i).unwrap() == category)
            .map(|i| store.explanation_at(i).unwrap())
            .collect();
        let rollup = &store.analytics().categories[slot];
        assert_eq!(rollup.category, category.to_string());
        assert_eq!(rollup.blocks, explanations.len() as u64);
        if explanations.is_empty() {
            continue;
        }
        let mix = feature_mix(&explanations);
        assert_eq!(rollup.pct_eta, mix.eta, "eta% diverges from eval path for {category}");
        assert_eq!(rollup.pct_inst, mix.inst, "inst% diverges from eval path for {category}");
        assert_eq!(rollup.pct_dep, mix.dep, "dep% diverges from eval path for {category}");
    }

    // Categories must also be classify-consistent with the corpus.
    let corpus = Corpus::generate(BLOCKS, GenConfig::default(), CORPUS_SEED);
    for entry in corpus.iter() {
        let index = store.lookup_index(&entry.block.to_string()).unwrap();
        assert_eq!(store.category_at(index).unwrap(), classify(&entry.block));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
