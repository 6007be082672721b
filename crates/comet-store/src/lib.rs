//! Precomputed explanation store (ROADMAP item 4, Thermostat-style):
//! explanations are deterministic given (model version, seed, config,
//! kernel), so this crate computes them *once* over a whole corpus and
//! ships them as a dataset instead of a per-request search.
//!
//! Three pieces:
//!
//! * **Builder** ([`build_store`], `comet-store build`): batch-explains
//!   a BHive corpus through the batched anchors search, write-ahead
//!   journaling every completed block (resumable, crash-safe), then
//!   publishes one columnar file atomically.
//! * **Format** ([`format`](mod@format), COMETS1): checksummed
//!   sections — sorted FNV-1a key index, canonical block texts,
//!   interned feature tables, bit-exact importance lanes, provenance
//!   (model kind/version, ε bits, seed, kernel) — laid out for
//!   binary-search lookup straight over the file bytes.
//! * **Reader + analytics** ([`ExplanationStore`], [`Analytics`]):
//!   validated zero-copy lookups that reconstruct explanations bitwise,
//!   plus build-time per-category and per-opcode importance rollups
//!   (the paper's Figure 3/4 breakdowns) that comet-serve exposes at
//!   `GET /analytics/categories` and `/analytics/opcodes`.
//!
//! Staleness is handled structurally, not by freshness heuristics: the
//! provenance header pins the model version, and the serving read path
//! refuses hits the moment a hot-swap changes the live version.

pub mod analytics;
pub mod builder;
pub mod format;
pub mod reader;

pub use analytics::{compute_analytics, Analytics, CategoryRollup, OpcodeRollup};
pub use builder::{build_store, BuildConfig, BuildError, BuildReport};
pub use format::{store_key, write_store, Provenance, StoreRecord};
pub use reader::{peek_provenance, ExplanationStore, StoreError};
