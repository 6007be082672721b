//! # comet-bench
//!
//! Measurement binaries for the COMET reproduction: `bench-report`
//! times the hot paths (explanation search, Γ perturbation, neural
//! inference, the prediction cache, store lookups) plus a miniature
//! Table-2 pipeline and writes `BENCH_explain.json`;
//! `chaos-report` drives a fault and abuse storm against `comet-serve`
//! and writes `BENCH_chaos.json`. The end-to-end service benchmark is
//! the standalone `comet-benchmark` package; the full-scale paper
//! regenerators live in the `comet-eval` binary.
