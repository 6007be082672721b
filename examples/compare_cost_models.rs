//! Model-selection workflow (paper §7): compare cost models not only by
//! error but by *what their predictions depend on*. Runs a miniature
//! Figure-2 analysis: MAPE side by side with the fraction of COMET
//! explanations built from coarse (η) vs fine-grained (inst, δ)
//! features.
//!
//! ```text
//! cargo run --release --example compare_cost_models [num_blocks]
//! ```

use comet::bhive::{Corpus, GenConfig};
use comet::core::FeatureKind;
use comet::isa::Microarch;
use comet::models::{mape, CachedModel, CostModel, IthemalConfig, IthemalSurrogate, UicaSurrogate};
use comet::{ExplainConfig, Explainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).map_or(20, |s| s.parse().expect("numeric argument"));
    let march = Microarch::Haswell;

    eprintln!("(generating corpora and training the neural model; ~20s in release)");
    let train = Corpus::generate(1_000, GenConfig::default(), 11);
    let test = Corpus::generate(n, GenConfig::default(), 13);
    let labelled = test.training_pairs(march);

    let ithemal =
        IthemalSurrogate::train(march, &train.training_pairs(march), IthemalConfig::default());
    let uica = UicaSurrogate::new(march);

    println!("{:<14} {:>8}  {:>7} {:>7} {:>7}", "model", "MAPE", "% eta", "% inst", "% dep");
    for model in [&ithemal as &(dyn CostModel + Sync), &uica] {
        let error = mape(&model, &labelled);
        let cached = CachedModel::new(model);
        let explainer = Explainer::new(&cached, ExplainConfig::for_throughput_model());
        let explanations: Vec<_> = test
            .iter()
            .enumerate()
            .map(|(i, entry)| explainer.explain(&entry.block, 3 + i as u64))
            .collect::<Result<_, _>>()?;
        let pct = |kind: FeatureKind| {
            100.0
                * explanations
                    .iter()
                    .filter(|e| e.features.iter().any(|f| f.kind() == kind))
                    .count() as f64
                / explanations.len() as f64
        };
        println!(
            "{:<14} {:>7.2}%  {:>6.1}% {:>6.1}% {:>6.1}%",
            model.name(),
            error,
            pct(FeatureKind::Eta),
            pct(FeatureKind::Inst),
            pct(FeatureKind::Dep),
        );
    }
    println!(
        "\nPaper hypothesis (confirmed in its Figure 2): lower-error models depend\n\
         more on fine-grained features (inst, dep) and less on the coarse\n\
         instruction count."
    );
    Ok(())
}
