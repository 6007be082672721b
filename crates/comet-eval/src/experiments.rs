//! Shared experiment machinery plus the paper's Table 2 and Table 3.

use std::fmt;

use comet_bhive::BhiveBlock;
use comet_core::par::{par_map_cancellable, ParPanic};
use comet_core::{
    ground_truth, is_accurate, BaselineContext, BatchExec, ExplainConfig, ExplainError, Explainer,
    Explanation, FeatureSet,
};
use comet_isa::{BasicBlock, Microarch};
use comet_models::{mean_std, CachedModel, CostModel, CrudeModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::{Durability, EvalContext};
use crate::journal::{fingerprint, Journal, JournalError, JournalRecord};
use crate::report::{pm, Table};

/// Why one block's explanation failed.
#[derive(Debug)]
pub enum BlockFailure {
    /// The explainer returned a typed error.
    Explain(ExplainError),
    /// The worker thread panicked (caught per-item by `par_map`).
    Panic(ParPanic),
}

impl fmt::Display for BlockFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockFailure::Explain(e) => write!(f, "{e}"),
            BlockFailure::Panic(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for BlockFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockFailure::Explain(e) => Some(e),
            BlockFailure::Panic(p) => Some(p),
        }
    }
}

/// The fingerprint binding a journal to one run: model, config, seed,
/// and the exact block set. Any change to these invalidates resumption.
fn run_fingerprint<M: CostModel>(
    model: &M,
    blocks: &[&BasicBlock],
    config: &ExplainConfig,
    seed: u64,
) -> String {
    let config_json = serde_json::to_string(config).unwrap_or_default();
    let seed_text = seed.to_string();
    // The search-path tag invalidates journals written by earlier
    // search generations: the scalar search's RNG streams differ from
    // the batched search's counter-derived ones, and batched-v2's
    // Newton KL bound inversion can differ from v1's bisection in the
    // last ulps. Mixing such records would silently mix two different
    // (both valid) result sets. Batch and pool sizes are deliberately
    // absent — results are invariant to them. The kernel tag likewise
    // separates runs whose predictions came from different inference
    // kernel variants (scalar vs AVX2 numerics agree only to a ULP
    // bound, not bitwise).
    let search_tag = "search=batched-v2".to_string();
    let kernel_tag = format!("kernel={}", comet_nn::kernel::active().name);
    let mut parts: Vec<String> =
        vec![model.name().to_string(), config_json, seed_text, search_tag, kernel_tag];
    parts.extend(blocks.iter().map(|b| b.to_string()));
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fingerprint(&refs)
}

/// Explain every block in parallel with deterministic per-block seeds,
/// durably and interruptibly:
///
/// * when `durability` names a journal directory, a write-ahead journal
///   at `<dir>/<key>.jsonl` is recovered first (checksums verified,
///   torn tail truncated, config fingerprint required to match) and
///   already-completed blocks are *skipped* — re-running the same
///   command resumes instead of restarting. Each newly completed block
///   is appended and fsynced as soon as it finishes;
/// * workers poll `durability.cancel` before claiming each block, so a
///   Ctrl-C drains in-flight blocks, leaves them journaled, and stops.
///
/// Returns one slot per input block, in order: `Some(Ok)` for a
/// completed explanation (recovered or fresh), `Some(Err)` for a typed
/// failure or worker panic, `None` for a block never started because
/// the run was cancelled. Per-block RNG seeds derive from the block
/// index, so resumed and uninterrupted runs produce identical results.
///
/// Explanations run on the batched anchors search
/// ([`Explainer::explain_batched`]) with `durability.batch` queries per
/// model call and `durability.search_pool` intra-explanation workers;
/// results are invariant to both knobs.
///
/// # Errors
///
/// [`JournalError::FingerprintMismatch`] when the on-disk journal was
/// written under a different (model, config, seed, block set);
/// [`JournalError::Io`] when the journal cannot be created or
/// recovered. Append failures after a block completes are reported on
/// stderr but do not fail the run (durability degrades, results don't).
pub fn try_explain_blocks_durable<M: CostModel + Sync>(
    model: &M,
    blocks: &[&BasicBlock],
    config: ExplainConfig,
    seed: u64,
    durability: &Durability,
    key: &str,
) -> Result<Vec<Option<Result<Explanation, BlockFailure>>>, JournalError> {
    let journal = match &durability.journal_dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{key}.jsonl"));
            let fp = run_fingerprint(model, blocks, &config, seed);
            let (journal, recovery) = Journal::open_or_create(path, &fp)?;
            Some((journal, recovery))
        }
    };

    let mut slots: Vec<Option<Result<Explanation, BlockFailure>>> =
        (0..blocks.len()).map(|_| None).collect();
    if let Some((journal, recovery)) = &journal {
        let mut resumed = 0usize;
        for record in &recovery.records {
            match blocks.get(record.index) {
                Some(block) if block.to_string() == record.block && record.seed == seed => {
                    slots[record.index] = Some(Ok(record.explanation.clone()));
                    resumed += 1;
                }
                // The fingerprint should make this unreachable; recompute
                // rather than trust a record that contradicts the input.
                _ => eprintln!(
                    "warning: journal record {} does not match its block; recomputing",
                    record.index
                ),
            }
        }
        if resumed > 0 || recovery.truncated_bytes > 0 {
            eprintln!(
                "[journal] {}: resuming with {resumed}/{} blocks already complete{}",
                journal.path().display(),
                blocks.len(),
                if recovery.truncated_bytes > 0 {
                    format!(" (truncated {} bytes of torn tail)", recovery.truncated_bytes)
                } else {
                    String::new()
                },
            );
        }
    }

    let pending: Vec<usize> = (0..blocks.len()).filter(|&i| slots[i].is_none()).collect();
    let journal_writer = journal.as_ref().map(|(j, _)| j);
    let explainer = Explainer::new(model, config);
    // One BatchExec per outer worker, checked out per block. With the
    // default `search_pool == 1` the execs own no threads and the
    // checkout only routes counter updates; with a larger pool it keeps
    // each pool's `run` calls on a single outer thread at a time.
    let outer_workers =
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(pending.len().max(1));
    let execs: Vec<std::sync::Mutex<BatchExec>> = (0..outer_workers)
        .map(|_| {
            std::sync::Mutex::new(BatchExec::new(durability.batch.max(1), durability.search_pool))
        })
        .collect();
    let outcomes = par_map_cancellable(&pending, &durability.cancel, |_, &i| {
        let exec = checkout_exec(&execs);
        let block_seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let result = explainer.explain_batched(blocks[i], block_seed, &exec);
        if let (Some(journal), Ok(explanation)) = (journal_writer, &result) {
            let record = JournalRecord {
                index: i,
                block: blocks[i].to_string(),
                seed,
                explanation: explanation.clone(),
            };
            if let Err(error) = journal.append(&record) {
                eprintln!("warning: journal append failed for block {i}: {error}");
            }
        }
        result
    });
    for (&i, outcome) in pending.iter().zip(outcomes) {
        slots[i] = outcome.map(|slot| match slot {
            Ok(Ok(explanation)) => Ok(explanation),
            Ok(Err(error)) => Err(BlockFailure::Explain(error)),
            Err(panic) => Err(BlockFailure::Panic(panic)),
        });
    }

    // Per-batch throughput summary from the explanations' own timing
    // (freshly computed only: journal-recovered records carry no
    // duration). Worker seconds, not wall clock — blocks run in
    // parallel.
    let mut fresh_blocks = 0u64;
    let mut fresh_queries = 0u64;
    let mut fresh_secs = 0.0f64;
    for &i in &pending {
        if let Some(Ok(explanation)) = &slots[i] {
            fresh_blocks += 1;
            fresh_queries += explanation.queries;
            fresh_secs += explanation.duration_secs;
        }
    }
    if fresh_blocks > 0 && fresh_secs > 0.0 {
        let batched: u64 = execs.iter().map(|slot| lock_exec(slot).queries_batched()).sum();
        let chunks: u64 = execs.iter().map(|slot| lock_exec(slot).chunks()).sum();
        let occupancy = if chunks > 0 {
            batched as f64 / (chunks * durability.batch.max(1) as u64) as f64
        } else {
            0.0
        };
        eprintln!(
            "[perf] {}: {fresh_blocks} blocks explained in {fresh_secs:.2}s worker time \
             ({fresh_queries} queries, {:.0} queries/sec; batch occupancy {occupancy:.2})",
            if key.is_empty() { "batch" } else { key },
            fresh_queries as f64 / fresh_secs,
        );
    }
    Ok(slots)
}

/// Grab any momentarily free exec slot: with as many slots as outer
/// workers and each worker holding at most one, a free slot always
/// exists, so the scan terminates quickly.
fn checkout_exec(slots: &[std::sync::Mutex<BatchExec>]) -> std::sync::MutexGuard<'_, BatchExec> {
    loop {
        for slot in slots {
            if let Ok(guard) = slot.try_lock() {
                return guard;
            }
        }
        std::thread::yield_now();
    }
}

fn lock_exec(slot: &std::sync::Mutex<BatchExec>) -> std::sync::MutexGuard<'_, BatchExec> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Explain every block in parallel with deterministic per-block seeds,
/// returning one outcome per input block (order preserved). Neither a
/// typed explainer error nor a worker panic aborts the batch.
pub fn try_explain_blocks<M: CostModel + Sync>(
    model: &M,
    blocks: &[&BasicBlock],
    config: ExplainConfig,
    seed: u64,
) -> Vec<Result<Explanation, BlockFailure>> {
    try_explain_blocks_durable(model, blocks, config, seed, &Durability::default(), "")
        // No journal directory means no journal I/O, hence no error...
        .expect("journal-less explain cannot fail")
        .into_iter()
        // ...and an uncancelled token means every slot is filled.
        .map(|slot| slot.expect("uncancelled explain fills every slot"))
        .collect()
}

/// [`explain_blocks`] with durability: journal-recovered blocks are
/// skipped, fresh completions are journaled, cancellation drains and
/// stops. Cancelled (never-started) blocks are silently absent from
/// the result; failed blocks are reported on stderr and dropped.
///
/// # Errors
///
/// See [`try_explain_blocks_durable`].
pub fn explain_blocks_durable<M: CostModel + Sync>(
    model: &M,
    blocks: &[&BasicBlock],
    config: ExplainConfig,
    seed: u64,
    durability: &Durability,
    key: &str,
) -> Result<Vec<(usize, Explanation)>, JournalError> {
    let slots = try_explain_blocks_durable(model, blocks, config, seed, durability, key)?;
    let mut kept = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(explanation)) => kept.push((i, explanation)),
            Some(Err(failure)) => eprintln!("warning: skipping block {i}: {failure}"),
            None => {} // cancelled before this block started
        }
    }
    Ok(kept)
}

/// Skip-and-report harness entry point: failed blocks are reported on
/// stderr and dropped, and each surviving explanation is paired with
/// its original block index so callers can keep per-block metadata
/// (e.g. ground truths) aligned.
pub fn explain_blocks<M: CostModel + Sync>(
    model: &M,
    blocks: &[&BasicBlock],
    config: ExplainConfig,
    seed: u64,
) -> Vec<(usize, Explanation)> {
    let mut kept = Vec::with_capacity(blocks.len());
    for (i, outcome) in try_explain_blocks(model, blocks, config, seed).into_iter().enumerate() {
        match outcome {
            Ok(explanation) => kept.push((i, explanation)),
            Err(failure) => eprintln!("warning: skipping block {i}: {failure}"),
        }
    }
    kept
}

/// Unwrap a durable-explain result in table runners: a journal error
/// here is unrecoverable operator error (wrong `--journal` directory
/// for this configuration), so fail loudly rather than produce tables
/// from mixed results.
fn durable_or_die(
    result: Result<Vec<(usize, Explanation)>, JournalError>,
    key: &str,
) -> Vec<(usize, Explanation)> {
    result.unwrap_or_else(|error| panic!("cannot run experiment `{key}`: {error}"))
}

/// The explanation config used for the crude-model experiments at the
/// given evaluation scale.
pub fn crude_config(ctx: &EvalContext) -> ExplainConfig {
    ExplainConfig {
        coverage_samples: ctx.scale.coverage_samples,
        ..ExplainConfig::for_crude_model()
    }
}

/// The explanation config used for the practical-model experiments.
pub fn model_config(ctx: &EvalContext) -> ExplainConfig {
    ExplainConfig {
        coverage_samples: ctx.scale.coverage_samples,
        max_samples: 400,
        max_total_queries: 12_000,
        ..ExplainConfig::for_throughput_model()
    }
}

/// Accuracy of a list of explanations against ground truths, in percent.
pub fn accuracy_pct(explanations: &[FeatureSet], ground_truths: &[FeatureSet]) -> f64 {
    assert_eq!(explanations.len(), ground_truths.len());
    let hits = explanations.iter().zip(ground_truths).filter(|(e, gt)| is_accurate(e, gt)).count();
    100.0 * hits as f64 / explanations.len().max(1) as f64
}

/// Result bundle for one (march) column of Table 2.
struct Table2Column {
    random: (f64, f64),
    fixed: f64,
    comet: (f64, f64),
}

/// A filesystem-safe journal key: lowercase alphanumerics and dashes.
fn journal_key(parts: &[&str]) -> String {
    let mut key = String::new();
    for part in parts {
        if !key.is_empty() {
            key.push('-');
        }
        for c in part.chars() {
            key.push(if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' });
        }
    }
    key
}

fn table2_column(ctx: &EvalContext, march: Microarch) -> Table2Column {
    let crude = CrudeModel::new(march);
    let blocks: Vec<&BasicBlock> = ctx.test_corpus.iter().map(|b| &b.block).collect();
    let gts: Vec<FeatureSet> = blocks.iter().map(|b| ground_truth(&crude, b)).collect();
    let baseline_ctx = BaselineContext::from_ground_truths(&gts);

    let mut comet_accs = Vec::new();
    let mut random_accs = Vec::new();
    for seed in 0..ctx.scale.seeds as u64 {
        let key = journal_key(&["table2", &format!("{march:?}"), &format!("seed{seed}")]);
        let survivors = durable_or_die(
            explain_blocks_durable(
                &crude,
                &blocks,
                crude_config(ctx),
                seed + 1,
                &ctx.durability,
                &key,
            ),
            &key,
        );
        let kept_gts: Vec<FeatureSet> = survivors.iter().map(|&(i, _)| gts[i].clone()).collect();
        let sets: Vec<FeatureSet> = survivors.into_iter().map(|(_, e)| e.features).collect();
        comet_accs.push(accuracy_pct(&sets, &kept_gts));

        let mut rng = StdRng::seed_from_u64(seed + 1);
        let random_sets: Vec<FeatureSet> =
            blocks.iter().map(|b| baseline_ctx.random_explanation(b, &mut rng)).collect();
        random_accs.push(accuracy_pct(&random_sets, &gts));
    }
    let fixed_sets: Vec<FeatureSet> =
        blocks.iter().map(|b| baseline_ctx.fixed_explanation(b)).collect();
    Table2Column {
        random: mean_std(&random_accs),
        fixed: accuracy_pct(&fixed_sets, &gts),
        comet: mean_std(&comet_accs),
    }
}

/// Paper Table 2: accuracy of COMET's explanations over the crude
/// interpretable cost model C, against the random and fixed baselines.
pub fn run_table2(ctx: &EvalContext) -> Table {
    let hsw = table2_column(ctx, Microarch::Haswell);
    let skl = table2_column(ctx, Microarch::Skylake);
    let mut table = Table::new(
        "Table 2: Accuracy of COMET's explanations",
        &["Explanation", "Acc.(%) over C_HSW", "Acc.(%) over C_SKL"],
    );
    table.push_row(vec![
        "Random".into(),
        pm(hsw.random.0, hsw.random.1),
        pm(skl.random.0, skl.random.1),
    ]);
    table.push_row(vec!["Fixed".into(), format!("{:.2}", hsw.fixed), format!("{:.2}", skl.fixed)]);
    table.push_row(vec![
        "COMET".into(),
        pm(hsw.comet.0, hsw.comet.1),
        pm(skl.comet.0, skl.comet.1),
    ]);
    table
}

/// Average precision and coverage of a model's explanations over the
/// test set, per seed.
fn precision_coverage<M: CostModel + Sync>(
    ctx: &EvalContext,
    model: &M,
    label: &str,
) -> ((f64, f64), (f64, f64)) {
    let blocks: Vec<&BasicBlock> = ctx.test_corpus.iter().map(|b| &b.block).collect();
    let mut precisions = Vec::new();
    let mut coverages = Vec::new();
    for seed in 0..ctx.scale.seeds as u64 {
        let cached = CachedModel::new(model);
        let key = journal_key(&["table3", label, &format!("seed{seed}")]);
        let explanations = durable_or_die(
            explain_blocks_durable(
                &cached,
                &blocks,
                model_config(ctx),
                seed + 11,
                &ctx.durability,
                &key,
            ),
            &key,
        );
        let n = explanations.len().max(1) as f64;
        let p: f64 = explanations.iter().map(|(_, e)| e.precision).sum::<f64>() / n;
        let c: f64 = explanations.iter().map(|(_, e)| e.coverage).sum::<f64>() / n;
        precisions.push(p);
        coverages.push(c);
        let stats = cached.stats();
        eprintln!(
            "[cache] {label} seed{seed}: {:.1}% hit rate over {} queries, \
             {} entries across {}/{} shards",
            100.0 * stats.hit_rate(),
            stats.total,
            stats.entries,
            stats.occupied_shards,
            stats.shards,
        );
    }
    (mean_std(&precisions), mean_std(&coverages))
}

/// Paper Table 3: average precision and coverage of COMET's
/// explanations for Ithemal (I) and uiCA (U) on Haswell and Skylake.
pub fn run_table3(ctx: &EvalContext) -> Table {
    let mut table = Table::new(
        "Table 3: Average precision and coverage of COMET's explanations",
        &["Model", "Av. Precision", "Av. Coverage"],
    );
    let rows: [(&str, &dyn CostModelSync); 4] = [
        ("I (HSW)", &ctx.ithemal_hsw),
        ("I (SKL)", &ctx.ithemal_skl),
        ("U (HSW)", &ctx.uica_hsw),
        ("U (SKL)", &ctx.uica_skl),
    ];
    for (label, model) in rows {
        let ((p_mean, p_std), (c_mean, c_std)) = precision_coverage(ctx, &model, label);
        table.push_row(vec![
            label.into(),
            format!("{p_mean:.3} +- {p_std:.3}"),
            format!("{c_mean:.3} +- {c_std:.3}"),
        ]);
    }
    table
}

/// Object-safe alias for models usable across threads.
pub trait CostModelSync: CostModel + Sync {}

impl<M: CostModel + Sync> CostModelSync for M {}

// `dyn CostModelSync` automatically implements `CostModel` (supertrait
// object upcasting), so `&dyn CostModelSync` is usable anywhere a
// `CostModel` is expected via the reference blanket impl.

/// MAPE of a model over a partition, against the hardware labels.
pub fn partition_mape<M: CostModel>(model: &M, blocks: &[&BhiveBlock], march: Microarch) -> f64 {
    let labelled: Vec<(BasicBlock, f64)> =
        blocks.iter().map(|b| (b.block.clone(), b.throughput(march))).collect();
    comet_models::mape(model, &labelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_core::Feature;

    #[test]
    fn accuracy_pct_counts_subset_matches() {
        let mut gt = FeatureSet::new();
        gt.insert(Feature::NumInstructions);
        gt.insert(Feature::Instruction(0));
        let mut exact = FeatureSet::new();
        exact.insert(Feature::Instruction(0));
        let mut wrong = FeatureSet::new();
        wrong.insert(Feature::Instruction(1));
        let gts = vec![gt.clone(), gt];
        let explanations = vec![exact, wrong];
        assert_eq!(accuracy_pct(&explanations, &gts), 50.0);
    }

    #[test]
    fn explain_blocks_is_deterministic_and_ordered() {
        let blocks = [
            comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap(),
            comet_isa::parse_block("div rcx\nmov rbx, 1").unwrap(),
        ];
        let refs: Vec<&comet_isa::BasicBlock> = blocks.iter().collect();
        let crude = CrudeModel::new(Microarch::Haswell);
        let config = ExplainConfig {
            coverage_samples: 100,
            max_samples: 80,
            ..ExplainConfig::for_crude_model()
        };
        let a = explain_blocks(&crude, &refs, config, 7);
        let b = explain_blocks(&crude, &refs, config, 7);
        assert_eq!(a.len(), 2);
        assert_eq!((a[0].0, a[1].0), (0, 1));
        assert_eq!(a[0].1.features, b[0].1.features);
        assert_eq!(a[1].1.features, b[1].1.features);
    }

    #[test]
    fn failed_blocks_are_skipped_not_fatal() {
        struct NanOnDiv;
        impl CostModel for NanOnDiv {
            fn name(&self) -> &str {
                "nan-on-div"
            }
            fn predict(&self, block: &BasicBlock) -> f64 {
                if block.iter().any(|i| i.opcode == comet_isa::Opcode::Div) {
                    f64::NAN
                } else {
                    block.len() as f64
                }
            }
        }
        let blocks = [
            comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap(),
            comet_isa::parse_block("div rcx\nmov rbx, 1").unwrap(),
        ];
        let refs: Vec<&comet_isa::BasicBlock> = blocks.iter().collect();
        // Block 1 contains the div, so its *initial* prediction is NaN
        // and the explainer fails it with a typed error; block 0 is
        // unaffected.
        let config = ExplainConfig {
            coverage_samples: 100,
            max_samples: 80,
            ..ExplainConfig::for_crude_model()
        };
        let outcomes = try_explain_blocks(&NanOnDiv, &refs, config, 7);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], Err(BlockFailure::Explain(ExplainError::Model(_)))));
        let survivors = explain_blocks(&NanOnDiv, &refs, config, 7);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].0, 0);
    }

    #[test]
    fn partition_mape_zero_for_oracle() {
        let corpus = comet_bhive::Corpus::generate(5, comet_bhive::GenConfig::default(), 3);
        let blocks: Vec<&BhiveBlock> = corpus.iter().collect();
        let oracle = comet_models::HardwareOracle::new(Microarch::Haswell);
        assert_eq!(partition_mape(&oracle, &blocks, Microarch::Haswell), 0.0);
    }
}
