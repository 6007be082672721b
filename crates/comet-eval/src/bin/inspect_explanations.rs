//! Inspect crude-model explanations against analytical ground truth on
//! a small corpus — the fastest way to eyeball COMET's behaviour when
//! tuning perturbation or search parameters.
//!
//! ```text
//! cargo run --release -p comet-eval --bin inspect_explanations
//! ```

use comet_bhive::{Corpus, GenConfig};
use comet_core::{format_feature_set, ground_truth, ExplainConfig, Explainer};
use comet_isa::Microarch;
use comet_models::{CostModel, CrudeModel};

fn main() {
    let corpus = Corpus::generate(10, GenConfig::default(), 0xB10C5);
    let crude = CrudeModel::new(Microarch::Haswell);
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    let explainer = Explainer::new(crude, config);
    for (i, entry) in corpus.iter().enumerate() {
        let gt = ground_truth(&crude, &entry.block);
        println!("=== block {i} (C = {:.2})", crude.predict(&entry.block));
        println!("{}", entry.block);
        println!("GT       : {}", format_feature_set(&gt));
        match explainer.explain(&entry.block, i as u64) {
            Ok(e) => println!(
                "COMET    : {} (prec {:.2}, anchored {}, cov {:.2})",
                e.display_features(),
                e.precision,
                e.anchored,
                e.coverage
            ),
            Err(error) => println!("COMET    : failed ({error})"),
        }
        println!();
    }
}
