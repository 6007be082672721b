//! # comet-bench
//!
//! The `chaos-report` binary drives a fault and abuse storm against
//! `comet-serve` and writes `BENCH_chaos.json`. `tests/perf_gates.rs`
//! holds the hot path's performance gates: zero steady-state
//! allocations in neural inference (every `cargo test`), and, run in
//! release by CI, batched inference never slower per block than one
//! block at a time and the `explain_small` search within twice its
//! recorded time. Performance is measured by the standalone
//! `comet-benchmark` package; the full-scale paper regenerators live
//! in the `comet-eval` binary.
