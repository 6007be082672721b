//! The offline bulk builder: batch-explain a BHive corpus through the
//! batched anchors search, journal every completed block write-ahead,
//! and publish the columnar store atomically.
//!
//! Determinism contract: every block is explained with **one constant,
//! request-visible seed** (default 0) and the exact `ExplainConfig`
//! the serving path would use for the same model and ε. That is what
//! makes a store hit *bitwise* substitutable for a live explain — a
//! request for `(block, store-ε, store-seed)` against the same model
//! version and kernel would have produced these exact bytes.
//!
//! Resumability reuses the comet-eval write-ahead journal unchanged:
//! each completed block is appended and fsynced before the next
//! starts, the journal fingerprint binds (model, config, seed, search
//! generation, kernel, block set), and a re-run skips everything the
//! journal already holds. The store file itself is only written at the
//! end, via the journal's atomic tmp+fsync+rename discipline, so a
//! crash mid-build never leaves a torn store — just a journal to
//! resume from.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use comet_bhive::{classify, Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, ExplainError, Explainer, Explanation};
use comet_eval::journal::{atomic_write, fingerprint, Journal, JournalError, JournalRecord};
use comet_models::ModelKind;

use crate::analytics::compute_analytics;
use crate::format::{write_store, Provenance, StoreRecord};
use crate::reader::StoreError;

/// Everything a build run is parameterized by.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Model to explain under. Its label goes into the provenance,
    /// which the serving read path compares with the model it serves
    /// before answering from the store.
    pub model: ModelKind,
    /// Corpus size (blocks to generate and explain).
    pub blocks: usize,
    /// Corpus generation seed (default mirrors comet-eval's corpus).
    pub corpus_seed: u64,
    /// The request-visible explanation seed every block uses.
    pub seed: u64,
    /// ε override; `None` takes the model's paper default.
    pub epsilon: Option<f64>,
    /// Model-call batch size for the batched search (results are
    /// invariant to it).
    pub batch: usize,
    /// Intra-explanation worker-pool size (results invariant).
    pub search_pool: usize,
    /// Journal directory for resumable builds; `None` disables
    /// durability (the store is still written atomically).
    pub journal_dir: Option<PathBuf>,
    /// Model version stamped into provenance. Serving refuses hits
    /// when its live epoch version differs.
    pub model_version: u64,
}

impl Default for BuildConfig {
    fn default() -> BuildConfig {
        BuildConfig {
            model: ModelKind::CrudeHaswell,
            blocks: 64,
            // Same corpus seed comet-eval uses, so store-built and
            // eval-run corpora line up block for block.
            corpus_seed: 0xB10C5,
            seed: 0,
            epsilon: None,
            batch: 16,
            search_pool: 1,
            journal_dir: None,
            model_version: 1,
        }
    }
}

/// What a completed build did.
#[derive(Debug)]
pub struct BuildReport {
    /// Records written to the store.
    pub records: usize,
    /// Blocks recovered from the journal instead of re-explained.
    pub resumed: usize,
    /// Blocks explained fresh this run.
    pub explained: usize,
    /// The run fingerprint (also in provenance).
    pub fingerprint: String,
    /// Where the store landed.
    pub out: PathBuf,
}

/// Why a build failed.
#[derive(Debug)]
pub enum BuildError {
    /// Store serialization or publication failed.
    Store(StoreError),
    /// The write-ahead journal refused (fingerprint mismatch, I/O).
    Journal(JournalError),
    /// The explanation search failed on a block.
    Explain {
        /// Index of the failing block in the corpus.
        index: usize,
        /// The underlying search error.
        source: ExplainError,
    },
    /// Filesystem failure outside the journal.
    Io(std::io::Error),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Store(e) => write!(f, "store build failed: {e}"),
            BuildError::Journal(e) => write!(f, "store build journal failed: {e}"),
            BuildError::Explain { index, source } => {
                write!(f, "explanation failed on corpus block {index}: {source}")
            }
            BuildError::Io(e) => write!(f, "store build i/o failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Store(e) => Some(e),
            BuildError::Journal(e) => Some(e),
            BuildError::Explain { source, .. } => Some(source),
            BuildError::Io(e) => Some(e),
        }
    }
}

impl From<StoreError> for BuildError {
    fn from(e: StoreError) -> BuildError {
        BuildError::Store(e)
    }
}

impl From<JournalError> for BuildError {
    fn from(e: JournalError) -> BuildError {
        BuildError::Journal(e)
    }
}

impl From<std::io::Error> for BuildError {
    fn from(e: std::io::Error) -> BuildError {
        BuildError::Io(e)
    }
}

/// Build a store at `out` per `cfg`: generate the corpus, explain
/// every block (resuming from the journal when one is configured),
/// compute analytics, and publish atomically.
///
/// # Errors
///
/// Any [`BuildError`]; on error nothing is published at `out` (an
/// existing file there is left untouched) and the journal retains all
/// completed blocks for resumption.
pub fn build_store(out: &Path, cfg: &BuildConfig) -> Result<BuildReport, BuildError> {
    let (model, default_epsilon) = cfg.model.build();
    let epsilon = cfg.epsilon.unwrap_or(default_epsilon);
    let config = ExplainConfig { epsilon, ..ExplainConfig::default() };
    let corpus = Corpus::generate(cfg.blocks, GenConfig::default(), cfg.corpus_seed);
    let blocks: Vec<_> = corpus.iter().map(|b| b.block.clone()).collect();
    let texts: Vec<String> = blocks.iter().map(|b| b.to_string()).collect();

    // Fingerprint mirrors comet-eval's run fingerprint (model, config,
    // seed, search generation, kernel, block set) plus a store tag so
    // store journals never cross-resume with eval journals.
    let config_json = serde_json::to_string(&config).unwrap_or_default();
    let mut parts: Vec<String> = vec![
        "comet-store/v1".to_string(),
        cfg.model.label().to_string(),
        config_json,
        cfg.seed.to_string(),
        "search=batched-v2".to_string(),
        format!("kernel={}", comet_nn::kernel::active().name),
    ];
    parts.extend(texts.iter().cloned());
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let run_fingerprint = fingerprint(&refs);

    let mut done: HashMap<usize, Explanation> = HashMap::new();
    let journal = match &cfg.journal_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("comet-store.jsonl");
            let (journal, recovery) = Journal::open_or_create(&path, &run_fingerprint)?;
            for record in recovery.records {
                // The fingerprint already binds the block set; the
                // text cross-check guards against hand-edited files.
                if texts.get(record.index).map(String::as_str) == Some(record.block.as_str())
                    && record.seed == cfg.seed
                {
                    done.insert(record.index, record.explanation);
                }
            }
            Some(journal)
        }
        None => None,
    };
    let resumed = done.len();

    let explainer = Explainer::new(model, config);
    let exec = BatchExec::new(cfg.batch, cfg.search_pool);
    let mut explained = 0usize;
    for (index, block) in blocks.iter().enumerate() {
        if done.contains_key(&index) {
            continue;
        }
        let explanation = explainer
            .explain_batched(block, cfg.seed, &exec)
            .map_err(|source| BuildError::Explain { index, source })?;
        if let Some(journal) = &journal {
            let record = JournalRecord {
                index,
                block: texts[index].clone(),
                seed: cfg.seed,
                explanation: explanation.clone(),
            };
            if let Err(e) = journal.append(&record) {
                // Durability degrades, the build does not.
                eprintln!("warning: journal append failed for block {index}: {e}");
            }
        }
        done.insert(index, explanation);
        explained += 1;
    }

    let records: Vec<StoreRecord> = blocks
        .iter()
        .enumerate()
        .map(|(index, block)| StoreRecord {
            block: block.clone(),
            category: classify(block),
            explanation: done.remove(&index).expect("every index explained or resumed"),
        })
        .collect();

    let analytics = compute_analytics(&records);
    let provenance = Provenance {
        v: 1,
        model_kind: cfg.model.label().to_string(),
        model_version: cfg.model_version,
        epsilon_bits: epsilon.to_bits(),
        seed: cfg.seed,
        kernel: comet_nn::kernel::active().name.to_string(),
        search: "search=batched-v2".to_string(),
        records: records.len() as u64,
        config_fingerprint: run_fingerprint.clone(),
    };
    let bytes = write_store(&records, &provenance, &analytics)?;
    atomic_write(out, &bytes)?;
    Ok(BuildReport {
        records: records.len(),
        resumed,
        explained,
        fingerprint: run_fingerprint,
        out: out.to_path_buf(),
    })
}
