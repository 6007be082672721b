//! The hierarchical token → instruction → block LSTM regressor — the
//! architecture of the Ithemal cost model (paper §H.2):
//!
//! 1. token embeddings are combined per instruction by a token-level
//!    LSTM into instruction embeddings;
//! 2. an instruction-level LSTM combines those into a block embedding;
//! 3. a linear head regresses the block embedding to a throughput.

use std::cell::RefCell;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::kernel::{self, Kernel, KernelKind};
use crate::layers::{Embedding, Linear};
use crate::lstm::{Lstm, LstmCache, LstmScratch};
use crate::packed::{PackCache, PackedScratch};
use crate::param::{adam_step_all, AdamConfig, Param};

/// A basic block tokenized for the model: one token-id sequence per
/// instruction.
pub type TokenizedBlock = Vec<Vec<usize>>;

/// Regression loss used for training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Loss {
    /// Plain mean squared error on raw targets.
    #[default]
    Squared,
    /// Squared *relative* error `((pred - t) / max(t, 1))²` —
    /// appropriate when targets span orders of magnitude and the
    /// evaluation metric is percentage error (MAPE), as for basic-block
    /// throughputs.
    Relative,
}

/// The hierarchical multiscale RNN regressor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchicalRegressor {
    embedding: Embedding,
    token_lstm: Lstm,
    instr_lstm: Lstm,
    head: Linear,
    /// Per-weight-epoch packed layout for the AVX2 kernel; pure
    /// acceleration state (skipped by serde, emptied by `Clone`),
    /// invalidated by [`params_mut`](HierarchicalRegressor::params_mut).
    #[serde(skip)]
    pack: PackCache,
}

struct ForwardCaches {
    token_embeds: Vec<Vec<Vec<f64>>>,
    token_caches: Vec<LstmCache>,
    instr_inputs: Vec<Vec<f64>>,
    instr_cache: LstmCache,
    block_hidden: Vec<f64>,
    prediction: f64,
}

/// Reusable buffers for allocation-free prediction
/// ([`HierarchicalRegressor::predict_with`]).
///
/// The explainer issues up to 25 000 predictions per explanation; the
/// training-style forward pass allocates caches for every one of them
/// even though inference discards everything but the final scalar.
/// This scratch holds the only state inference needs — one LSTM
/// scratch per level and the head's output — so a warmed-up scratch
/// makes prediction heap-silent.
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    token: LstmScratch,
    instr: LstmScratch,
    output: Vec<f64>,
    packed: PackedScratch,
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> InferScratch {
        InferScratch::default()
    }
}

/// Reusable buffers for allocation-free *batched* prediction
/// ([`HierarchicalRegressor::predict_batch_with`]).
///
/// One scratch serves any number of batches of any size; buffers grow
/// to the largest batch seen and are then reused, so steady-state
/// batched prediction is heap-silent like the scalar path.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// Scalar-path buffers: under the scalar kernel the batch runs
    /// block by block (the lane-staged scalar path never beat it; see
    /// `crates/comet-nn/src/kernel.rs`).
    infer: InferScratch,
    /// Lane-panel buffers for the packed AVX2 forward.
    packed: PackedScratch,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

thread_local! {
    /// Shared inference scratch behind [`HierarchicalRegressor::predict`]:
    /// per-thread so the regressor stays `Sync` with an unchanged API.
    static INFER_SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::new());

    /// Shared batch scratch behind
    /// [`HierarchicalRegressor::predict_batch`], per-thread for the
    /// same reason.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

impl HierarchicalRegressor {
    /// A freshly initialized model.
    pub fn new<R: Rng>(vocab: usize, embed_dim: usize, hidden: usize, rng: &mut R) -> Self {
        HierarchicalRegressor {
            embedding: Embedding::new(vocab, embed_dim, rng),
            token_lstm: Lstm::new(embed_dim, hidden, rng),
            instr_lstm: Lstm::new(hidden, hidden, rng),
            head: Linear::new(hidden, 1, rng),
            pack: PackCache::default(),
        }
    }

    /// Vocabulary size the model was built for.
    pub fn vocab(&self) -> usize {
        self.embedding.vocab()
    }

    fn forward(&self, block: &TokenizedBlock) -> ForwardCaches {
        assert!(!block.is_empty(), "cannot predict an empty block");
        let mut token_embeds = Vec::with_capacity(block.len());
        let mut token_caches = Vec::with_capacity(block.len());
        let mut instr_inputs = Vec::with_capacity(block.len());
        for tokens in block {
            assert!(!tokens.is_empty(), "instruction with no tokens");
            let embeds: Vec<Vec<f64>> =
                tokens.iter().map(|&id| self.embedding.lookup(id)).collect();
            let cache = self.token_lstm.forward(&embeds);
            instr_inputs.push(cache.final_hidden().to_vec());
            token_embeds.push(embeds);
            token_caches.push(cache);
        }
        let instr_cache = self.instr_lstm.forward(&instr_inputs);
        let block_hidden = instr_cache.final_hidden().to_vec();
        let prediction = self.head.forward(&block_hidden)[0];
        ForwardCaches {
            token_embeds,
            token_caches,
            instr_inputs,
            instr_cache,
            block_hidden,
            prediction,
        }
    }

    /// Predict the cost of a tokenized block.
    ///
    /// Runs the allocation-free inference path against a per-thread
    /// [`InferScratch`], so steady-state predictions touch the heap
    /// not at all. Dispatches through the process-wide
    /// [`kernel::active`] variant; under `scalar-v1` the result is
    /// bitwise identical to the training forward pass, under `avx2-v1`
    /// it agrees within the tested ULP bound (see [`crate::kernel`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty block, an empty instruction, or an
    /// out-of-vocabulary token id.
    pub fn predict(&self, block: &TokenizedBlock) -> f64 {
        INFER_SCRATCH.with(|cell| self.predict_with(block, &mut cell.borrow_mut()))
    }

    /// Predict using caller-provided scratch buffers, dispatching
    /// through the process-wide [`kernel::active`] variant.
    ///
    /// # Panics
    ///
    /// Panics on an empty block, an empty instruction, or an
    /// out-of-vocabulary token id.
    pub fn predict_with(&self, block: &TokenizedBlock, scratch: &mut InferScratch) -> f64 {
        self.predict_with_kernel(block, scratch, kernel::active())
    }

    /// Predict with an explicitly chosen kernel variant, bypassing the
    /// process-global dispatch — the hook tests use to compare variants
    /// side by side in one process.
    ///
    /// Under [`KernelKind::Scalar`] this is the interleaved two-level
    /// scalar recurrence, bitwise identical to the training forward
    /// pass. Under [`KernelKind::Avx2`] it is the packed lane forward
    /// with a single active lane — the *same* kernel the batched path
    /// runs, which is what makes the variant's predictions bitwise
    /// batch-size-invariant.
    ///
    /// # Panics
    ///
    /// Panics on an empty block, an empty instruction, or an
    /// out-of-vocabulary token id.
    pub fn predict_with_kernel(
        &self,
        block: &TokenizedBlock,
        scratch: &mut InferScratch,
        kernel: &Kernel,
    ) -> f64 {
        match kernel.kind {
            KernelKind::Scalar => self.predict_scalar_with(block, scratch),
            KernelKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                if let Some(packed) = self.pack.get_or_pack(&self.embedding, &self.token_lstm) {
                    let mut out = [0.0];
                    crate::packed::forward_packed(
                        packed,
                        &self.token_lstm,
                        &self.instr_lstm,
                        &self.head,
                        std::slice::from_ref(block),
                        &mut scratch.packed,
                        &mut out,
                    );
                    return out[0];
                }
                self.predict_scalar_with(block, scratch)
            }
        }
    }

    /// The interleaved scalar inference recurrence: as soon as an
    /// instruction's token LSTM finishes, its final hidden state is fed
    /// to the instruction LSTM and discarded. Every arithmetic kernel
    /// is the one the training pass uses, so the prediction is bitwise
    /// identical to [`forward`]'s.
    fn predict_scalar_with(&self, block: &TokenizedBlock, scratch: &mut InferScratch) -> f64 {
        assert!(!block.is_empty(), "cannot predict an empty block");
        self.instr_lstm.begin(&mut scratch.instr);
        for tokens in block {
            assert!(!tokens.is_empty(), "instruction with no tokens");
            self.token_lstm.begin(&mut scratch.token);
            for &id in tokens {
                self.token_lstm.step(self.embedding.row(id), &mut scratch.token);
            }
            self.instr_lstm.step(scratch.token.hidden_state(), &mut scratch.instr);
        }
        scratch.output.clear();
        scratch.output.resize(self.head.output(), 0.0);
        self.head.forward_into(scratch.instr.hidden_state(), &mut scratch.output);
        scratch.output[0]
    }

    /// Predict the costs of a batch of tokenized blocks, one output per
    /// block, bitwise identical to calling
    /// [`predict`](HierarchicalRegressor::predict) on each.
    ///
    /// Runs the batched inference path against a per-thread
    /// [`BatchScratch`]; see
    /// [`predict_batch_with`](HierarchicalRegressor::predict_batch_with).
    ///
    /// # Panics
    ///
    /// Panics on an empty block, an empty instruction, or an
    /// out-of-vocabulary token id.
    pub fn predict_batch(&self, blocks: &[TokenizedBlock]) -> Vec<f64> {
        let mut outs = vec![0.0; blocks.len()];
        BATCH_SCRATCH
            .with(|cell| self.predict_batch_with(blocks, &mut cell.borrow_mut(), &mut outs));
        outs
    }

    /// Predict a batch using caller-provided scratch buffers, writing
    /// block `b`'s cost to `outs[b]`; dispatches through the
    /// process-wide [`kernel::active`] variant.
    ///
    /// # Panics
    ///
    /// Panics if `outs.len() != blocks.len()`, on an empty block, an
    /// empty instruction, or an out-of-vocabulary token id.
    pub fn predict_batch_with(
        &self,
        blocks: &[TokenizedBlock],
        scratch: &mut BatchScratch,
        outs: &mut [f64],
    ) {
        self.predict_batch_with_kernel(blocks, scratch, outs, kernel::active());
    }

    /// Predict a batch with an explicitly chosen kernel variant.
    ///
    /// Under [`KernelKind::Avx2`] the blocks run as side-by-side lanes
    /// of the packed panel forward (see `crates/comet-nn/src/packed.rs`)
    /// — each weight row traversed once per step for up to four blocks
    /// per vector. Under [`KernelKind::Scalar`] the batch runs block by
    /// block through the scalar recurrence: the lane-staged scalar path
    /// this replaced was *slower* per block than B=1 (commit 074f969,
    /// b8/b32 vs b1), so degrading to the scalar path is exactly the
    /// adaptive fallback — batching can never lose. Either way every
    /// output is bitwise identical to the same-variant single-block
    /// prediction, whatever the batch width.
    ///
    /// # Panics
    ///
    /// Panics if `outs.len() != blocks.len()`, on an empty block, an
    /// empty instruction, or an out-of-vocabulary token id.
    pub fn predict_batch_with_kernel(
        &self,
        blocks: &[TokenizedBlock],
        scratch: &mut BatchScratch,
        outs: &mut [f64],
        kernel: &Kernel,
    ) {
        assert_eq!(outs.len(), blocks.len(), "output slice width mismatch");
        if blocks.is_empty() {
            return;
        }
        if kernel.kind == KernelKind::Avx2 {
            #[cfg(target_arch = "x86_64")]
            if let Some(packed) = self.pack.get_or_pack(&self.embedding, &self.token_lstm) {
                crate::packed::forward_packed(
                    packed,
                    &self.token_lstm,
                    &self.instr_lstm,
                    &self.head,
                    blocks,
                    &mut scratch.packed,
                    outs,
                );
                return;
            }
        }
        for (block, out) in blocks.iter().zip(outs.iter_mut()) {
            *out = self.predict_scalar_with(block, &mut scratch.infer);
        }
    }

    /// One training example: forward, accumulate loss gradients scaled
    /// by `grad_scale` (use `1 / batch_size`), return the loss value.
    pub fn train_example(
        &mut self,
        block: &TokenizedBlock,
        target: f64,
        grad_scale: f64,
        loss: Loss,
    ) -> f64 {
        let caches = self.forward(block);
        let denom = match loss {
            Loss::Squared => 1.0,
            Loss::Relative => target.abs().max(1.0),
        };
        let err = (caches.prediction - target) / denom;
        let dy = vec![2.0 * err * grad_scale / denom];
        let d_block = self.head.backward(&caches.block_hidden, &dy);
        let d_instr_inputs = self.instr_lstm.backward(&caches.instr_cache, &d_block);
        debug_assert_eq!(d_instr_inputs.len(), caches.instr_inputs.len());
        for (i, d_input) in d_instr_inputs.iter().enumerate() {
            let d_embeds = self.token_lstm.backward(&caches.token_caches[i], d_input);
            for (t, d_embed) in d_embeds.iter().enumerate() {
                self.embedding.backward(block[i][t], d_embed);
            }
        }
        let _ = caches.token_embeds;
        err * err
    }

    /// Mutable references to all trainable parameters.
    ///
    /// This is the only gate through which weights change, so it also
    /// invalidates the packed-kernel cache: the next prediction repacks
    /// from the new weights.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.pack.invalidate();
        let mut params = self.embedding.params_mut();
        params.extend(self.token_lstm.params_mut());
        params.extend(self.instr_lstm.params_mut());
        params.extend(self.head.params_mut());
        params
    }

    /// Shared references to all trainable parameters, in the same
    /// order as [`params_mut`](HierarchicalRegressor::params_mut).
    pub fn params(&self) -> Vec<&Param> {
        let mut params = self.embedding.params();
        params.extend(self.token_lstm.params());
        params.extend(self.instr_lstm.params());
        params.extend(self.head.params());
        params
    }

    /// 64-bit FNV-1a fingerprint of every weight's IEEE-754 bit
    /// pattern, in parameter order. Equal fingerprints mean
    /// bitwise-equal weights and therefore bitwise-equal predictions —
    /// the identity the model registry stores with each snapshot so a
    /// recovered model can be proven to be the one that was saved.
    pub fn weights_fingerprint(&self) -> u64 {
        self.params().iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, p| p.fold_fnv(hash))
    }
}

/// Mini-batch Adam trainer for [`HierarchicalRegressor`].
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Optimizer configuration.
    pub config: AdamConfig,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Regression loss.
    pub loss: Loss,
    step: u64,
}

impl Trainer {
    /// A trainer with the given schedule.
    pub fn new(config: AdamConfig, batch_size: usize, epochs: usize) -> Trainer {
        Trainer { config, batch_size, epochs, loss: Loss::Squared, step: 0 }
    }

    /// Use a different regression loss.
    pub fn with_loss(mut self, loss: Loss) -> Trainer {
        self.loss = loss;
        self
    }

    /// Fit the model, returning the mean squared error per epoch.
    pub fn fit<R: Rng>(
        &mut self,
        model: &mut HierarchicalRegressor,
        data: &[(TokenizedBlock, f64)],
        rng: &mut R,
    ) -> Vec<f64> {
        assert!(!data.is_empty(), "training set must be non-empty");
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            order.shuffle(rng);
            let mut total = 0.0;
            for chunk in order.chunks(self.batch_size) {
                let scale = 1.0 / chunk.len() as f64;
                for &idx in chunk {
                    let (block, target) = &data[idx];
                    total += model.train_example(block, *target, scale, self.loss);
                }
                self.step += 1;
                adam_step_all(&mut model.params_mut(), self.config, self.step);
            }
            epoch_losses.push(total / data.len() as f64);
        }
        epoch_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic task: cost = 1 + number of "expensive" tokens (id 1).
    fn synthetic_data(rng: &mut StdRng, n: usize) -> Vec<(TokenizedBlock, f64)> {
        (0..n)
            .map(|_| {
                let insts = rng.gen_range(1..6);
                let mut block = Vec::new();
                let mut cost = 1.0;
                for _ in 0..insts {
                    let expensive = rng.gen_bool(0.3);
                    if expensive {
                        cost += 3.0;
                    }
                    block.push(vec![if expensive { 1 } else { 0 }, rng.gen_range(2..8)]);
                }
                (block, cost)
            })
            .collect()
    }

    #[test]
    fn learns_a_synthetic_cost_function() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = synthetic_data(&mut rng, 300);
        let mut model = HierarchicalRegressor::new(8, 8, 16, &mut rng);
        let mut trainer = Trainer::new(AdamConfig { lr: 5e-3, ..AdamConfig::default() }, 16, 30);
        let losses = trainer.fit(&mut model, &data, &mut rng);
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first * 0.2, "loss did not drop: {first} -> {last}");
        // Spot-check generalization on fresh samples.
        let test = synthetic_data(&mut rng, 50);
        let mse: f64 = test
            .iter()
            .map(|(b, t)| {
                let p = model.predict(b);
                (p - t) * (p - t)
            })
            .sum::<f64>()
            / test.len() as f64;
        assert!(mse < 1.5, "test MSE too high: {mse}");
    }

    /// The scalar-variant inference path and the training forward pass
    /// must produce bitwise-identical predictions. (The AVX2 variant is
    /// only ULP-close to training; its agreement is tested in
    /// `tests/kernels.rs`.)
    #[test]
    fn inference_path_matches_training_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let model = HierarchicalRegressor::new(16, 6, 10, &mut rng);
        let blocks =
            [vec![vec![0, 1]], vec![vec![2, 3, 4], vec![5], vec![6, 7, 8, 9]], vec![vec![15]; 7]];
        let mut scratch = InferScratch::new();
        for block in &blocks {
            let training = model.forward(block).prediction;
            assert_eq!(model.predict_with_kernel(block, &mut scratch, kernel::scalar()), training);
        }
    }

    /// Batched prediction must equal the scalar path bit for bit for
    /// every block, at several batch sizes, with blocks of staggered
    /// instruction counts and token lengths (so lanes drop in and out
    /// of the lock-step loops).
    #[test]
    fn batched_prediction_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = HierarchicalRegressor::new(16, 6, 10, &mut rng);
        let blocks: Vec<TokenizedBlock> = (0..9)
            .map(|b| {
                (0..1 + b % 4)
                    .map(|j| (0..1 + (b + j) % 5).map(|t| (b * 7 + j * 3 + t) % 16).collect())
                    .collect()
            })
            .collect();
        let scalar: Vec<f64> = blocks.iter().map(|b| model.predict(b)).collect();
        let mut scratch = BatchScratch::new();
        for batch_size in [1, 3, 9] {
            for (chunk, expect) in blocks.chunks(batch_size).zip(scalar.chunks(batch_size)) {
                let mut outs = vec![0.0; chunk.len()];
                model.predict_batch_with(chunk, &mut scratch, &mut outs);
                assert_eq!(outs, expect, "batch size {batch_size}");
            }
            assert_eq!(model.predict_batch(&blocks), scalar, "thread-local path");
        }
    }

    #[test]
    fn prediction_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = HierarchicalRegressor::new(8, 4, 8, &mut rng);
        let block = vec![vec![0, 1], vec![2, 3, 4]];
        assert_eq!(model.predict(&block), model.predict(&block));
    }

    #[test]
    #[should_panic(expected = "empty block")]
    fn empty_block_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = HierarchicalRegressor::new(8, 4, 8, &mut rng);
        let _ = model.predict(&vec![]);
    }

    #[test]
    fn longer_blocks_change_prediction() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = HierarchicalRegressor::new(8, 4, 8, &mut rng);
        let short = vec![vec![0, 1]];
        let long = vec![vec![0, 1]; 6];
        assert_ne!(model.predict(&short), model.predict(&long));
    }

    /// The weights fingerprint is stable for a given model, ignores
    /// optimizer state, and moves when any single weight moves.
    #[test]
    fn weights_fingerprint_tracks_weight_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = HierarchicalRegressor::new(8, 4, 8, &mut rng);
        let clone = model.clone();
        assert_eq!(model.weights_fingerprint(), clone.weights_fingerprint());
        assert_ne!(
            model.weights_fingerprint(),
            HierarchicalRegressor::new(8, 4, 8, &mut rng).weights_fingerprint(),
            "a differently initialized model must fingerprint differently"
        );
        // Gradient state is not part of the identity…
        model.params_mut()[0].grad[0] += 1.0;
        assert_eq!(model.weights_fingerprint(), clone.weights_fingerprint());
        // …but the smallest possible weight change is.
        let first = &mut model.params_mut()[0].value[0];
        *first = f64::from_bits(first.to_bits() ^ 1);
        assert_ne!(model.weights_fingerprint(), clone.weights_fingerprint());
    }
}
