//! # comet-models
//!
//! Cost models for the COMET reproduction, all behind the query-only
//! [`CostModel`] trait exactly as COMET requires (paper §4):
//!
//! * [`CrudeModel`] — the paper's interpretable analytical model C
//!   (eq. 8), the oracle for explanation-accuracy evaluation;
//! * [`IthemalSurrogate`] — a hierarchical LSTM trained from scratch on
//!   a simulator-labelled corpus (substitute for the released Ithemal
//!   checkpoints, see DESIGN.md);
//! * [`UicaSurrogate`] — the pipeline simulator with slightly deviated
//!   tables (substitute for uiCA);
//! * [`HardwareOracle`] — the detailed simulator standing in for real
//!   Haswell/Skylake silicon.
//!
//! Because the explainer treats models as untrusted black boxes, the
//! crate also provides a fault-tolerance layer: a [`ModelError`]
//! taxonomy with the fallible [`CostModel::try_predict`] entry point,
//! the [`ResilientModel`] decorator (retries, circuit breaker,
//! fallback degradation), the [`DeadlineModel`] wall-clock watchdog
//! (abandons stalled queries as [`ModelError::Timeout`]), and the
//! [`FaultyModel`] seeded fault-injection wrapper for robustness
//! testing.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), comet_isa::IsaError> {
//! use comet_models::{CostModel, CrudeModel};
//! use comet_isa::Microarch;
//!
//! let c = CrudeModel::new(Microarch::Haswell);
//! let block = comet_isa::parse_block("div rcx")?;
//! assert!(c.predict(&block) > 20.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod baseline;
mod crude;
mod deadline;
mod error;
mod faulty;
mod ithemal;
mod kind;
mod metrics;
mod registry;
mod resilient;
mod simulated;
mod tokenize;
mod traits;

pub use baseline::{coarse_baseline, CoarseBaselineModel};
pub use crude::CrudeModel;
pub use deadline::DeadlineModel;
pub use error::{catch_prediction, panic_payload_message, ModelError};
pub use faulty::{FaultConfig, FaultStats, FaultyModel};
pub use ithemal::{IthemalConfig, IthemalSurrogate};
pub use kind::ModelKind;
pub use metrics::{mape, mean_std};
pub use registry::{fnv1a64, ModelRegistry, ModelSnapshot, RegistryRecovery, SnapshotInfo};
pub use resilient::{NoFallback, ResilienceReport, ResilientConfig, ResilientModel};
pub use simulated::{HardwareOracle, UicaSurrogate};
pub use tokenize::{Vocab, IMM, MEM_CLOSE, MEM_OPEN, UNK};
pub use traits::{predict_one, CachedModel, CostModel, QueryStats};
