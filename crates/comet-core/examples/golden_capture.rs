//! Prints the exact seeded explanation outputs pinned by
//! `tests/golden.rs`. Run it (`cargo run --release -p comet-core
//! --example golden_capture`) to re-capture the golden values after an
//! *intentional* algorithm change — and bump the `search=` fingerprint
//! tag when you do. Note the printed feature indices are 1-based
//! display form; the test encodes them 0-based.
use comet_core::{ExplainConfig, Explainer};
use comet_isa::{parse_block, Microarch};
use comet_models::CrudeModel;

fn main() {
    let blocks = [
        ("small", "add rcx, rax\nmov rdx, rcx\npop rbx"),
        ("case2", "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx"),
    ];
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    for (name, text) in blocks {
        let block = parse_block(text).unwrap();
        let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
        for seed in [3u64, 7] {
            let e = explainer.explain(&block, seed).unwrap();
            println!(
                "{name} seed={seed}: features={} precision={:?} coverage={:?} prediction={:?} anchored={} queries={}",
                e.display_features(), e.precision, e.coverage, e.prediction, e.anchored, e.queries
            );
        }
    }
}
