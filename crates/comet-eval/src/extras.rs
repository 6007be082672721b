//! Appendix F space-size estimates and the §6.4 case studies.

use comet_core::{space, ExplainConfig, Explainer, Feature, FeatureSet};
use comet_isa::{parse_block, Microarch};
use comet_models::{CachedModel, CostModel};

use crate::context::EvalContext;
use crate::report::Table;

/// Paper Appendix F, Listing 4 (β1).
pub const BETA1: &str = "vdivss xmm0, xmm0, xmm6\nvmulss xmm7, xmm0, xmm0\nvxorps xmm0, xmm0, xmm5\nvaddss xmm7, xmm7, xmm3\nvmulss xmm6, xmm6, xmm7\nvdivss xmm6, xmm3, xmm6\nvmulss xmm0, xmm6, xmm0";

/// Paper Appendix F, Listing 5 (β2).
pub const BETA2: &str = "shl eax, 3\nimul rax, r15\nxor edx, edx\nadd rax, 7\nshr rax, 3\nlea rax, [rbp + rax - 1]\ndiv rbp\nimul rax, rbp\nmov rbp, qword ptr [rsp + 8]\nsub rbp, rax";

/// Paper §6.4, Listing 2 (case study 1).
pub const CASE1: &str = "lea rdx, [rax + 1]\nmov qword ptr [rdi + 24], rdx\nmov byte ptr [rax], 80\nmov rsi, qword ptr [r14 + 32]\nmov rdi, rbp";

/// Paper §6.4, Listing 3 (case study 2).
pub const CASE2: &str =
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx";

/// Appendix F: perturbation-space cardinalities for the paper's two
/// example blocks, with and without preserved features.
pub fn run_appendix_f() -> Table {
    let mut table = Table::new(
        "Appendix F: Perturbation-space size estimates",
        &["Block", "Preserved set", "|Pi-hat(F)| (est.)"],
    );
    let beta1 = parse_block(BETA1).expect("paper listing 4 parses");
    let beta2 = parse_block(BETA2).expect("paper listing 5 parses");
    let mut inst1 = FeatureSet::new();
    inst1.insert(Feature::Instruction(0));
    let mut inst2 = FeatureSet::new();
    inst2.insert(Feature::Instruction(1));
    let cases = [
        ("beta1", &beta1, FeatureSet::new()),
        ("beta1", &beta1, inst1),
        ("beta2", &beta2, FeatureSet::new()),
        ("beta2", &beta2, inst2),
    ];
    for (name, block, preserve) in cases {
        let log10 = space::estimate_space(block, &preserve);
        let label = if preserve.is_empty() {
            "{} (empty)".to_string()
        } else {
            comet_core::format_feature_set(&preserve)
        };
        table.push_row(vec![name.into(), label, space::format_log10(log10)]);
    }
    table
}

/// §6.4 case studies: predictions and explanations of both models for
/// the paper's two example blocks (Haswell).
pub fn run_case_studies(ctx: &EvalContext) -> Table {
    let mut table = Table::new(
        "Case studies (paper Listings 2-3, Haswell)",
        &["Case", "Model", "Prediction (cycles)", "Explanation"],
    );
    let config = ExplainConfig {
        coverage_samples: ctx.scale.coverage_samples,
        ..ExplainConfig::for_throughput_model()
    };
    for (index, (case, text)) in [("1", CASE1), ("2", CASE2)].into_iter().enumerate() {
        let block = parse_block(text).expect("paper listing parses");
        for (label, model) in [
            ("Ithemal", &ctx.ithemal_hsw as &dyn crate::experiments::CostModelSync),
            ("uiCA", &ctx.uica_hsw as &dyn crate::experiments::CostModelSync),
        ] {
            let cached = CachedModel::new(model);
            let prediction = cached.predict(&block);
            let explainer = Explainer::new(&cached, config);
            let rendered = match explainer.explain(&block, 0xCA5E + index as u64) {
                Ok(explanation) => explanation.display_features(),
                Err(error) => {
                    eprintln!("warning: case study {case} ({label}) failed: {error}");
                    format!("(unavailable: {error})")
                }
            };
            table.push_row(vec![case.into(), label.into(), format!("{prediction:.2}"), rendered]);
        }
    }
    table
}

/// The detailed simulator's ("hardware") throughputs for the case-study
/// blocks, for context alongside the model predictions.
pub fn case_study_hardware() -> Table {
    let mut table = Table::new(
        "Case-study hardware reference (detailed simulator, Haswell)",
        &["Case", "Throughput (cycles)"],
    );
    let oracle = comet_models::HardwareOracle::new(Microarch::Haswell);
    for (case, text) in [("1", CASE1), ("2", CASE2)] {
        let block = parse_block(text).expect("listing parses");
        table.push_row(vec![case.into(), format!("{:.2}", oracle.predict(&block))]);
    }
    table
}
