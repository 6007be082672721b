//! # comet-eval
//!
//! The experiment harness regenerating every table and figure from the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! * Table 2 — explanation accuracy vs random/fixed baselines over the
//!   crude model C;
//! * Table 3 — average precision/coverage for Ithemal and uiCA;
//! * Figures 2–4 — MAPE vs explanation-feature granularity on the full
//!   test set and the source/category partitions;
//! * Figures 5–8 — Appendix E hyperparameter ablations;
//! * Appendix F — perturbation-space size estimates;
//! * §6.4 — the two case studies.
//!
//! Run everything with the `comet-eval` binary:
//!
//! ```text
//! comet-eval --scale standard --exp all --out EXPERIMENTS-results.md
//! ```
//!
//! Long runs are crash-safe and resumable: pass `--journal DIR` to
//! append each completed block explanation to a checksummed
//! write-ahead journal (see [`journal`]). Interrupting the run
//! (Ctrl-C drains in-flight blocks and flushes) and re-running the
//! same command resumes from the journal, skipping completed blocks,
//! and produces output identical to an uninterrupted run.

#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod experiments;
pub mod extras;
pub mod figures;
pub mod journal;
pub mod report;

pub use context::{Durability, EvalContext, Scale};
