//! Performance gates on the explanation hot path, each asserted
//! directly:
//!
//! - steady-state neural inference allocates nothing, one block at a
//!   time or batched (runs with every `cargo test`);
//! - batched inference is never slower per block than one block at a
//!   time (timing, ignored by default);
//! - the small-block anchors search stays within twice its recorded
//!   time (timing, ignored by default).
//!
//! The timing gates need release optimisation and a quiet core:
//!
//! ```text
//! cargo test --release -p comet-bench --test perf_gates -- --ignored --test-threads=1 --nocapture
//! ```
//!
//! End-to-end and per-layer performance is measured by the
//! `comet-benchmark` package, not here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use comet_bhive::{Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, Explainer};
use comet_isa::{parse_block, Microarch};
use comet_models::{CrudeModel, Vocab};
use comet_nn::{kernel, BatchScratch, HierarchicalRegressor, TokenizedBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the heap allocations of each thread, so tests running in
/// parallel cannot pollute each other's counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count touches only a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// An untrained network of the Ithemal surrogate's default shape, and
/// 32 corpus blocks tokenized for it: lanes finish at different
/// instruction and token positions, as they do on real searches.
fn corpus_model() -> (HierarchicalRegressor, Vec<TokenizedBlock>) {
    let vocab = Vocab::standard();
    let model = HierarchicalRegressor::new(vocab.len(), 24, 40, &mut StdRng::seed_from_u64(9));
    let corpus = Corpus::generate(32, GenConfig::default(), 0xB10C5);
    let blocks = corpus.iter().map(|b| vocab.tokenize_block(&b.block)).collect();
    (model, blocks)
}

/// One pass over `blocks` through `predict_batch_with`, `lanes` at a time.
fn predict_in_batches(
    model: &HierarchicalRegressor,
    blocks: &[TokenizedBlock],
    lanes: usize,
    scratch: &mut BatchScratch,
    outs: &mut [f64],
) {
    for chunk in blocks.chunks(lanes) {
        let outs = &mut outs[..chunk.len()];
        model.predict_batch_with(black_box(chunk), scratch, outs);
        black_box(&*outs);
    }
}

#[test]
fn steady_state_inference_allocates_nothing() {
    let (model, blocks) = corpus_model();
    let predict_all = || {
        for block in &blocks {
            black_box(model.predict(black_box(block)));
        }
    };
    // The first pass packs the weights and sizes the scratch buffers.
    predict_all();
    assert_eq!(allocations_in(predict_all), 0, "predict allocated at steady state");

    let mut scratch = BatchScratch::new();
    let mut outs = vec![0.0; blocks.len()];
    for lanes in [1, 8, 32] {
        predict_in_batches(&model, &blocks, lanes, &mut scratch, &mut outs);
        let allocs = allocations_in(|| {
            predict_in_batches(&model, &blocks, lanes, &mut scratch, &mut outs);
        });
        assert_eq!(allocs, 0, "predict_batch_with B={lanes} allocated at steady state");
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Batching exists to be faster, so 8- and 32-lane calls must not lose
/// to one block per call. The widths are timed round by round,
/// interleaved, on the same blocks, so host drift hits all three
/// alike; 1.1 absorbs the noise that is left.
#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn batch_lanes_are_not_slower_per_block_than_one() {
    const WIDTHS: [usize; 3] = [1, 8, 32];
    const ROUNDS: usize = 51;
    let (model, blocks) = corpus_model();
    let mut scratch = BatchScratch::new();
    let mut outs = vec![0.0; blocks.len()];
    let mut ns_per_block: [Vec<f64>; 3] = Default::default();
    // Round 0 warms up and is not recorded.
    for round in 0..=ROUNDS {
        for (samples, lanes) in ns_per_block.iter_mut().zip(WIDTHS) {
            let start = Instant::now();
            predict_in_batches(&model, &blocks, lanes, &mut scratch, &mut outs);
            if round > 0 {
                samples.push(start.elapsed().as_nanos() as f64 / blocks.len() as f64);
            }
        }
    }
    let [b1, b8, b32] = ns_per_block.map(median);
    println!(
        "batch lanes ({}, {} corpus blocks, median of {ROUNDS} rounds): \
         b1 {b1:.0} ns/block, b8 {b8:.0}, b32 {b32:.0}",
        kernel::active().name,
        blocks.len(),
    );
    for (width, per_block) in [("b8", b8), ("b32", b32)] {
        assert!(
            per_block <= 1.1 * b1,
            "{width} is slower per block than b1 ({per_block:.0} vs {b1:.0} ns): \
             the batch path regressed below the one-block path"
        );
    }
}

/// `explain_small`'s time per explanation in the last report of the
/// retired `bench-report` harness, `current.explain_small.ns_per_iter`
/// in `git show f1feb97:BENCH_explain.json` (avx2-v1 kernel, 1 thread).
const EXPLAIN_SMALL_BASELINE_NS: f64 = 590_073.0;

/// A gross-regression gate on the live search: more than 2× the
/// baseline fails, more than 1.25× prints a CI warning annotation. The
/// baseline comes from another machine, so the soft band is wide.
#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn explain_small_is_within_twice_its_baseline() {
    let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
    // Pool 4, clamped to the cores: on an oversubscribed core helper
    // threads spin against the caller instead of helping.
    let pool = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let exec = BatchExec::new(16, pool);
    let explain = || {
        explainer.explain_batched(black_box(&block), 7, &exec).expect("explain");
    };
    explain();
    let mut iters = 0u32;
    let start = Instant::now();
    while iters < 3 || start.elapsed() < Duration::from_millis(200) {
        explain();
        iters += 1;
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    let ratio = ns / EXPLAIN_SMALL_BASELINE_NS;
    println!(
        "explain_small: {ns:.0} ns per explanation over {iters} (batch 16, pool {pool}), \
         {ratio:.2}x its baseline of {EXPLAIN_SMALL_BASELINE_NS:.0} ns"
    );
    if ratio > 1.25 {
        println!(
            "::warning::explain_small is {ratio:.2}x slower than its baseline \
             (soft gate; shared runners are noisy)"
        );
    }
    assert!(ratio <= 2.0, "explain_small regressed {ratio:.2}x against its baseline");
}
