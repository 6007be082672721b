//! Model selection by explanation comparison (paper §7): given two
//! cost models with similar headline error, pick the one whose
//! predictions rest on fine-grained block features. Uses the
//! `compare_models` API to find the blocks where the two models
//! disagree about feature granularity.
//!
//! ```text
//! cargo run --release --example model_selection [num_blocks]
//! ```

use comet::bhive::{Corpus, GenConfig};
use comet::core::compare_models;
use comet::isa::Microarch;
use comet::models::{CoarseBaselineModel, UicaSurrogate};
use comet::ExplainConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).map_or(12, |s| s.parse().expect("numeric argument"));
    let corpus = Corpus::generate(n, GenConfig::default(), 17);
    let blocks: Vec<_> = corpus.iter().map(|e| e.block.clone()).collect();

    // Two very different models: a coarse-feature analytical baseline
    // and the fine-grained pipeline simulator.
    let coarse = CoarseBaselineModel::new();
    let uica = UicaSurrogate::new(Microarch::Haswell);

    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_throughput_model() };
    let report = compare_models(&coarse, &uica, &blocks, config, 0)?;

    println!(
        "compared `{}` vs `{}` on {} blocks",
        report.model_a,
        report.model_b,
        report.blocks.len()
    );
    println!("mean explanation agreement (Jaccard): {:.2}\n", report.mean_agreement());

    let disagreements: Vec<_> = report.granularity_disagreements().collect();
    println!(
        "{} block(s) where one model explains with coarse features only:",
        disagreements.len()
    );
    for comparison in disagreements.iter().take(3) {
        println!("---\n{}", comparison.block);
        println!(
            "  {:<16} {:>7.2} cycles  {}",
            report.model_a,
            comparison.prediction_a,
            comparison.explanation_a.display_features()
        );
        println!(
            "  {:<16} {:>7.2} cycles  {}",
            report.model_b,
            comparison.prediction_b,
            comparison.explanation_b.display_features()
        );
    }
    println!(
        "\nA model whose explanations repeatedly collapse to eta(num_insts) is\n\
         ignoring instruction identity and dependencies — exactly the failure\n\
         mode the paper diagnoses in under-trained neural cost models."
    );
    Ok(())
}
