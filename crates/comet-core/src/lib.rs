//! # comet-core
//!
//! COMET — the COst Model ExplanaTion framework (Chaudhary et al.,
//! MLSys 2024) — generates faithful, generalizable, and simple
//! explanations for black-box basic-block cost models with query access
//! only.
//!
//! An explanation is a small set of block [`Feature`]s (instructions,
//! data dependencies, instruction count) whose presence suffices to
//! keep the model's prediction within an ε-ball of its prediction for
//! the original block. The search:
//!
//! 1. decomposes the block into a dependency multigraph and extracts
//!    candidate features P̂ ([`extract_features`]);
//! 2. samples feature-preserving perturbations with the Γ algorithm
//!    ([`Perturber`]);
//! 3. estimates each candidate set's *precision* with KL-LUCB Bernoulli
//!    bounds and its *coverage* empirically;
//! 4. runs an Anchors-style beam search for the max-coverage set whose
//!    precision exceeds `1 - δ` ([`Explainer`]).
//!
//! The model is an untrusted black box: [`Explainer::explain`] queries
//! it only through the fallible [`CostModel::try_predict`] and
//! [`CostModel::predict_batch`] entry points and returns
//! `Result<Explanation, ExplainError>` — failures on individual
//! perturbed samples are tolerated (counted in
//! [`Explanation::faults`] and flagged via [`Explanation::degraded`]),
//! while failures on the explained block itself become
//! [`ExplainError::Model`].
//!
//! [`CostModel::try_predict`]: comet_models::CostModel::try_predict
//! [`CostModel::predict_batch`]: comet_models::CostModel::predict_batch
//!
//! # Examples
//!
//! ```
//! use comet_core::{Explainer, ExplainConfig};
//! use comet_models::CrudeModel;
//! use comet_isa::Microarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = comet_isa::parse_block("add rcx, rax\nmov rdx, rcx\npop rbx")?;
//! let model = CrudeModel::new(Microarch::Haswell);
//! let explainer = Explainer::new(model, ExplainConfig::for_crude_model());
//! let explanation = explainer.explain(&block, 0)?;
//! println!("{} explains the prediction", explanation.display_features());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod baselines;
mod bitset;
pub mod cancel;
mod compare;
mod explain;
mod feature;
pub mod par;
mod perturb;
pub mod precision;
pub mod space;
pub mod swap;

pub use baselines::{ground_truth, is_accurate, BaselineContext};
pub use bitset::{splitmix64, FeatureMask, FeaturePool};
pub use cancel::CancelToken;
pub use compare::{compare_models, BlockComparison, ComparisonReport};
pub use explain::{BatchExec, ExplainConfig, ExplainError, Explainer, Explanation};
pub use feature::{extract_features, format_feature_set, Feature, FeatureKind, FeatureSet};
pub use par::{par_map, par_map_cancellable, par_map_strict, ParPanic, WorkerPool};
pub use perturb::{PerturbConfig, PerturbScratch, PerturbedBlock, Perturber, ReplacementScheme};
pub use swap::SwapCell;
