//! Shared experimental setup: corpora, trained surrogates, and scale
//! presets.

use std::path::PathBuf;

use comet_bhive::{Corpus, GenConfig};
use comet_core::cancel::CancelToken;
use comet_isa::Microarch;
use comet_models::{IthemalConfig, IthemalSurrogate, UicaSurrogate};

/// Experiment scale: `paper` replicates the paper's set sizes; `quick`
/// is a minutes-scale smoke configuration for CI and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Blocks in the main explanation test set (paper: 200).
    pub test_blocks: usize,
    /// Blocks per source partition (paper: 100).
    pub source_blocks: usize,
    /// Blocks per category partition (paper: 50).
    pub category_blocks: usize,
    /// Random seeds averaged over (paper: 5).
    pub seeds: usize,
    /// Coverage samples per explanation (paper: 10_000).
    pub coverage_samples: usize,
    /// Training-corpus size for the Ithemal surrogate.
    pub train_blocks: usize,
    /// Training epochs for the Ithemal surrogate.
    pub train_epochs: usize,
    /// Blocks used in the Appendix E ablations (paper: 100).
    pub ablation_blocks: usize,
}

impl Scale {
    /// The paper's experiment sizes.
    pub fn paper() -> Scale {
        Scale {
            test_blocks: 200,
            source_blocks: 100,
            category_blocks: 50,
            seeds: 5,
            coverage_samples: 10_000,
            train_blocks: 5_000,
            train_epochs: 16,
            ablation_blocks: 100,
        }
    }

    /// A reduced preset that preserves every experimental contrast.
    pub fn quick() -> Scale {
        Scale {
            test_blocks: 40,
            source_blocks: 24,
            category_blocks: 12,
            seeds: 2,
            coverage_samples: 600,
            train_blocks: 600,
            train_epochs: 8,
            ablation_blocks: 16,
        }
    }

    /// A middle preset: paper-shaped results in tens of minutes on a
    /// single core.
    pub fn standard() -> Scale {
        Scale {
            test_blocks: 40,
            source_blocks: 25,
            category_blocks: 12,
            seeds: 2,
            coverage_samples: 2_000,
            train_blocks: 2_500,
            train_epochs: 14,
            ablation_blocks: 30,
        }
    }
}

/// Deterministic base seed for all corpora.
const CORPUS_SEED: u64 = 0xB10C5;

/// Run-durability and execution settings shared by the experiments:
/// where (and whether) to journal per-block results, the cooperative
/// cancellation flag workers poll (tripped by Ctrl-C in the
/// `comet-eval` binary), and the batched-search knobs.
///
/// The default is fully transparent: no journal directory, a token
/// nobody cancels, batch 16 with the search on the calling thread.
#[derive(Debug, Clone)]
pub struct Durability {
    /// Directory for write-ahead journals (one `<key>.jsonl` per
    /// experiment/march/seed). `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Cooperative cancellation flag checked by parallel workers.
    pub cancel: CancelToken,
    /// Model-query batch size for the batched anchors search. Results
    /// are invariant to this knob; it only affects throughput.
    pub batch: usize,
    /// Intra-explanation worker-pool size. Defaults to 1 (calling
    /// thread only): the experiments already parallelize across blocks,
    /// so extra per-search threads usually oversubscribe the cores.
    pub search_pool: usize,
}

impl Default for Durability {
    fn default() -> Durability {
        Durability { journal_dir: None, cancel: CancelToken::new(), batch: 16, search_pool: 1 }
    }
}

impl Durability {
    /// Journal into `dir` with a fresh cancellation token.
    pub fn journaling(dir: impl Into<PathBuf>) -> Durability {
        Durability { journal_dir: Some(dir.into()), ..Durability::default() }
    }
}

/// Everything the experiments share: corpora and cost models.
pub struct EvalContext {
    /// Scale preset in use.
    pub scale: Scale,
    /// The main explanation test set (paper §6: 200 random blocks of
    /// 4–10 instructions).
    pub test_corpus: Corpus,
    /// The per-source partitions (Figure 3).
    pub source_corpus: Corpus,
    /// The per-category partitions (Figure 4).
    pub category_corpus: Corpus,
    /// Trained Ithemal surrogate for Haswell.
    pub ithemal_hsw: IthemalSurrogate,
    /// Trained Ithemal surrogate for Skylake.
    pub ithemal_skl: IthemalSurrogate,
    /// uiCA surrogate for Haswell.
    pub uica_hsw: UicaSurrogate,
    /// uiCA surrogate for Skylake.
    pub uica_skl: UicaSurrogate,
    /// Journaling and cancellation settings for long runs.
    pub durability: Durability,
}

impl EvalContext {
    /// Build corpora and train the neural surrogates (the expensive,
    /// one-time part of every experiment binary).
    pub fn build(scale: Scale) -> EvalContext {
        let config = GenConfig::default();
        let test_corpus = Corpus::generate(scale.test_blocks, config, CORPUS_SEED);
        let source_corpus =
            Corpus::generate_by_source(scale.source_blocks, config, CORPUS_SEED + 1);
        let category_corpus =
            Corpus::generate_by_category(scale.category_blocks, config, CORPUS_SEED + 2);
        let train_corpus = Corpus::generate(scale.train_blocks, config, CORPUS_SEED + 3);

        let ithemal_config =
            IthemalConfig { epochs: scale.train_epochs, ..IthemalConfig::default() };
        let ithemal_hsw = IthemalSurrogate::train(
            Microarch::Haswell,
            &train_corpus.training_pairs(Microarch::Haswell),
            ithemal_config,
        );
        let ithemal_skl = IthemalSurrogate::train(
            Microarch::Skylake,
            &train_corpus.training_pairs(Microarch::Skylake),
            ithemal_config,
        );
        EvalContext {
            scale,
            test_corpus,
            source_corpus,
            category_corpus,
            ithemal_hsw,
            ithemal_skl,
            uica_hsw: UicaSurrogate::new(Microarch::Haswell),
            uica_skl: UicaSurrogate::new(Microarch::Skylake),
            durability: Durability::default(),
        }
    }

    /// The Ithemal surrogate for a microarchitecture.
    pub fn ithemal(&self, march: Microarch) -> &IthemalSurrogate {
        match march {
            Microarch::Haswell => &self.ithemal_hsw,
            Microarch::Skylake => &self.ithemal_skl,
        }
    }

    /// The uiCA surrogate for a microarchitecture.
    pub fn uica(&self, march: Microarch) -> &UicaSurrogate {
        match march {
            Microarch::Haswell => &self.uica_hsw,
            Microarch::Skylake => &self.uica_skl,
        }
    }
}
