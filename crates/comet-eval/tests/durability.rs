//! Crash-safety and resumption tests for the evaluation journal:
//!
//! * property test: truncating a journal at *any* byte offset recovers
//!   exactly the prefix of intact records — never a torn or invented
//!   record;
//! * an interrupted run (cooperative cancellation partway through)
//!   re-run with the same command produces results identical to an
//!   uninterrupted run, without re-querying the model for completed
//!   blocks;
//! * resuming under a different configuration is refused.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use comet_core::{CancelToken, ExplainConfig, Explanation, FeatureSet};
use comet_eval::experiments::{explain_blocks, explain_blocks_durable, try_explain_blocks_durable};
use comet_eval::journal::{fingerprint, Journal, JournalError, JournalRecord};
use comet_eval::Durability;
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CostModel, CrudeModel};
use proptest::prelude::*;

/// A unique scratch directory per test (process id keeps parallel CI
/// shards apart; the tag keeps tests within one process apart).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_blocks() -> Vec<BasicBlock> {
    [
        "add rcx, rax\nmov rdx, rcx",
        "sub rax, rbx\nadd rbx, rcx\nmov rax, rbx",
        "imul rdx, rcx\nadd rax, rdx",
        "mov rbx, 7\nadd rax, rbx\nsub rcx, rax",
        "add rax, 1\nadd rbx, 2\nadd rcx, 3",
        "mov rdx, rax\nimul rax, rdx\nmov rcx, rax",
    ]
    .iter()
    .map(|text| comet_isa::parse_block(text).unwrap())
    .collect()
}

fn small_config() -> ExplainConfig {
    ExplainConfig { coverage_samples: 100, max_samples: 80, ..ExplainConfig::for_crude_model() }
}

fn sample_record(index: usize) -> JournalRecord {
    JournalRecord {
        index,
        block: format!("add rcx, rax ; block {index}"),
        seed: 41,
        explanation: Explanation {
            features: FeatureSet::new(),
            precision: 0.125 * index as f64,
            coverage: 0.75,
            prediction: 1.5 + index as f64,
            anchored: index.is_multiple_of(2),
            queries: 100 + index as u64,
            faults: 0,
            retries: 0,
            degraded: false,
            duration_secs: 0.0,
        },
    }
}

/// Byte image of a journal holding `n` records, plus the byte offset at
/// which each line (header first) ends.
fn journal_image(n: usize) -> (Vec<u8>, Vec<usize>) {
    let dir = scratch_dir("image");
    let path = dir.join("image.jsonl");
    let journal = Journal::create(&path, &fingerprint(&["truncation-property"])).unwrap();
    for i in 0..n {
        journal.append(&sample_record(i)).unwrap();
    }
    drop(journal);
    let bytes = fs::read(&path).unwrap();
    let _ = fs::remove_dir_all(&dir);
    let line_ends = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();
    (bytes, line_ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chop a journal at an arbitrary byte offset (simulating a crash
    /// mid-write at any point) and recover: the result must be exactly
    /// the records whose lines fit completely within the kept prefix.
    /// A cut inside the header yields a fresh, empty journal rather
    /// than an error. Recovery must also be idempotent: reopening the
    /// repaired file truncates nothing further.
    #[test]
    fn truncation_at_any_offset_recovers_the_intact_prefix(cut_frac in 0.0f64..=1.0) {
        let (bytes, line_ends) = journal_image(5);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Lines wholly inside `bytes[..cut]`; the first is the header.
        let complete_lines = line_ends.iter().filter(|&&end| end < cut).count();
        let expected_records = complete_lines.saturating_sub(1);

        let dir = scratch_dir(&format!("cut-{cut}"));
        let path = dir.join("journal.jsonl");
        fs::write(&path, &bytes[..cut]).unwrap();

        let fp = fingerprint(&["truncation-property"]);
        let (journal, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        prop_assert_eq!(recovery.records.len(), expected_records);
        for (i, record) in recovery.records.iter().enumerate() {
            prop_assert_eq!(record, &sample_record(i));
        }
        drop(journal);

        let (_again, second) = Journal::open_or_create(&path, &fp).unwrap();
        prop_assert_eq!(second.truncated_bytes, 0);
        prop_assert_eq!(second.records.len(), expected_records);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Crude model that counts every prediction, to prove that resumption
/// serves recovered blocks from the journal instead of recomputing.
struct CountingCrude {
    inner: CrudeModel,
    queries: AtomicU64,
}

impl CountingCrude {
    fn new() -> CountingCrude {
        CountingCrude { inner: CrudeModel::new(Microarch::Haswell), queries: AtomicU64::new(0) }
    }
}

impl CostModel for CountingCrude {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn predict(&self, block: &BasicBlock) -> f64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.predict(block)
    }
}

#[test]
fn interrupted_then_resumed_run_matches_uninterrupted_run() {
    let blocks = sample_blocks();
    let refs: Vec<&BasicBlock> = blocks.iter().collect();
    let config = small_config();
    let seed = 9;

    // The reference: one uninterrupted, journal-less run.
    let reference = explain_blocks(&CrudeModel::new(Microarch::Haswell), &refs, config, seed);
    assert_eq!(reference.len(), refs.len());

    // First attempt: cancelled after two worker polls, so only a couple
    // of blocks complete (and are journaled) before the run stops.
    let dir = scratch_dir("resume");
    let interrupted = Durability {
        journal_dir: Some(dir.clone()),
        cancel: CancelToken::after_polls(2),
        ..Durability::default()
    };
    let model = CountingCrude::new();
    let partial =
        try_explain_blocks_durable(&model, &refs, config, seed, &interrupted, "resume-test")
            .unwrap();
    let done = partial.iter().flatten().count();
    assert!(done >= 1, "poll budget admits at least one block");
    assert!(done < refs.len(), "expected an interrupted run, all blocks completed");
    assert!(interrupted.cancel.is_cancelled());

    // Second attempt: same command, fresh token. It must resume from
    // the journal without re-querying the model for completed blocks,
    // and the final results must be identical to the uninterrupted run.
    let resumed_model = CountingCrude::new();
    let resumed = explain_blocks_durable(
        &resumed_model,
        &refs,
        config,
        seed,
        &Durability {
            journal_dir: Some(dir.clone()),
            cancel: CancelToken::new(),
            ..Durability::default()
        },
        "resume-test",
    )
    .unwrap();
    assert_eq!(resumed, reference);

    // Third run: everything is journaled now, so the model is never
    // queried at all — and the output is still identical.
    let idle_model = CountingCrude::new();
    let replayed = explain_blocks_durable(
        &idle_model,
        &refs,
        config,
        seed,
        &Durability {
            journal_dir: Some(dir.clone()),
            cancel: CancelToken::new(),
            ..Durability::default()
        },
        "resume-test",
    )
    .unwrap();
    assert_eq!(idle_model.queries.load(Ordering::Relaxed), 0);
    assert_eq!(replayed, reference);

    // "Byte-identical tables" reduces to byte-identical serialized
    // explanations, since tables are pure functions of these.
    let a = serde_json::to_string(&resumed.iter().map(|(_, e)| e).collect::<Vec<_>>()).unwrap();
    let b = serde_json::to_string(&reference.iter().map(|(_, e)| e).collect::<Vec<_>>()).unwrap();
    assert_eq!(a, b);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resuming_under_a_different_configuration_is_refused() {
    let blocks = sample_blocks();
    let refs: Vec<&BasicBlock> = blocks.iter().collect();
    let config = small_config();
    let crude = CrudeModel::new(Microarch::Haswell);

    let dir = scratch_dir("mismatch");
    let durability = Durability {
        journal_dir: Some(dir.clone()),
        cancel: CancelToken::new(),
        ..Durability::default()
    };
    try_explain_blocks_durable(&crude, &refs, config, 1, &durability, "mismatch-test").unwrap();

    // Same key, different seed: the fingerprint no longer matches and
    // the run must refuse to mix results rather than resume.
    let outcome =
        try_explain_blocks_durable(&crude, &refs, config, 2, &durability, "mismatch-test");
    match outcome {
        Err(JournalError::FingerprintMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected FingerprintMismatch, got {:?}", other.map(|slots| slots.len())),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_blocks_are_left_pending_not_recorded() {
    let blocks = sample_blocks();
    let refs: Vec<&BasicBlock> = blocks.iter().collect();
    let config = small_config();
    let crude = CrudeModel::new(Microarch::Haswell);

    let dir = scratch_dir("pending");
    let durability = Durability {
        journal_dir: Some(dir.clone()),
        cancel: CancelToken::after_polls(2),
        ..Durability::default()
    };
    let slots =
        try_explain_blocks_durable(&crude, &refs, config, 5, &durability, "pending-test").unwrap();

    // The journal holds exactly the completed blocks, nothing else.
    let fp_probe = fs::read_to_string(dir.join("pending-test.jsonl")).unwrap();
    let journaled_lines = fp_probe.lines().count() - 1; // minus header
    assert_eq!(journaled_lines, slots.iter().flatten().count());
    let _ = fs::remove_dir_all(&dir);
}
