//! The query-access-only cost-model abstraction.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use comet_isa::BasicBlock;

use crate::error::{catch_prediction, ModelError};
use crate::resilient::ResilienceReport;

/// A cost model: a function from valid basic blocks to real-valued
/// costs (paper §4). COMET requires nothing else — explanations are
/// generated with query access only.
pub trait CostModel {
    /// Human-readable model name ("Ithemal", "uiCA", …).
    fn name(&self) -> &str;

    /// Predict the cost (throughput in cycles) of a basic block.
    fn predict(&self, block: &BasicBlock) -> f64;

    /// Fallible prediction: the robust entry point the explainer uses.
    ///
    /// The default implementation wraps [`predict`](CostModel::predict)
    /// with a panic guard and a finiteness check, so every existing
    /// model is fallible for free: a panicking model yields
    /// [`ModelError::Panic`] and a NaN/Inf prediction yields
    /// [`ModelError::NonFinite`]. Wrappers with richer failure handling
    /// ([`ResilientModel`](crate::ResilientModel),
    /// [`FaultyModel`](crate::FaultyModel)) override this.
    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        catch_prediction(|| self.predict(block))
    }

    /// Predict the costs of a batch of independent blocks.
    ///
    /// The contract is *per-item equivalence*: for a model without
    /// hidden query-order state, `predict_batch(blocks)[i]` must equal
    /// `try_predict(&blocks[i])`. The default implementation queries
    /// the items strictly in slice order, so even stateful fault
    /// injectors ([`FaultyModel`](crate::FaultyModel)) land their
    /// faults on the same positions a sequential caller would see.
    ///
    /// Overrides exist so batches survive the decorator stack down to
    /// kernels that can amortize work across items (the batched LSTM
    /// forward shares one weight traversal over the whole batch), or so
    /// wrappers can amortize their own bookkeeping (the cache takes one
    /// lock round per shard instead of one lock per item).
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        blocks.iter().map(|block| self.try_predict(block)).collect()
    }

    /// Resilience counters, when the model (or a wrapper in its stack)
    /// tracks them. Plain models report `None`; see
    /// [`ResilientModel::resilience`](crate::ResilientModel).
    fn resilience(&self) -> Option<ResilienceReport> {
        None
    }
}

/// One query as a batch of one: the scalar path of every decorator
/// whose batch path does the real work ([`CachedModel`],
/// [`ResilientModel`](crate::ResilientModel),
/// [`DeadlineModel`](crate::DeadlineModel)), so each keeps one
/// implementation of its query logic. A batch that comes back without
/// a result for its one item yields [`ModelError::Panic`].
pub fn predict_one<M: CostModel + ?Sized>(
    model: &M,
    block: &BasicBlock,
) -> Result<f64, ModelError> {
    model.predict_batch(std::slice::from_ref(block)).pop().unwrap_or_else(|| {
        Err(ModelError::Panic { message: "batch of one returned no result".into() })
    })
}

impl<M: CostModel + ?Sized> CostModel for &M {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        (**self).predict(block)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        (**self).try_predict(block)
    }

    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        (**self).predict_batch(blocks)
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        (**self).resilience()
    }
}

impl<M: CostModel + ?Sized> CostModel for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        (**self).predict(block)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        (**self).try_predict(block)
    }

    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        (**self).predict_batch(blocks)
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        (**self).resilience()
    }
}

/// Number of lock stripes in a [`CachedModel`]. A power of two so
/// shard selection is a shift; 16 stripes keeps contention negligible
/// for the worker counts the evaluation harness uses.
const CACHE_SHARDS: usize = 16;

/// A memoizing wrapper: a repeated query of the same block is answered
/// from the cache instead of the inner model. It pays where blocks
/// repeat and an inner query costs more than a lookup; where blocks
/// seldom repeat, each miss pays for a hash and an insert that no later
/// query reads.
///
/// # Keys
///
/// Entries are keyed by the 64-bit FNV-1a hash of the block's
/// canonical printed text, computed by streaming the `Display` output
/// through the hasher — the block text itself is never materialized or
/// stored, so a steady-state lookup allocates nothing. The price is a
/// theoretical collision: two distinct blocks with the same 64-bit
/// hash would silently share a cached cost. For an explanation run
/// issuing `Q ≤ 25 000` distinct queries, the birthday bound puts the
/// probability of *any* collision below `Q² / 2⁶⁵ ≈ 2 × 10⁻¹¹` — far
/// below the noise floor of the neural models being cached.
///
/// # Locking
///
/// The cache is striped into 16 independently locked shards selected
/// by the key's high bits; counters are atomics, so no lock is ever
/// held while acquiring another. A query takes one lock round per
/// shard its items touch to look up, and another to insert the misses
/// after the inner prediction completes — a lock is never held across
/// the (potentially slow) inner model call. Scalar queries are batches
/// of one ([`predict_one`]).
///
/// Only finite predictions are cached — errors (and NaN/Inf values)
/// are re-queried, so a model recovering from a transient fault is not
/// pinned to its failure.
///
/// # Capacity
///
/// By default the cache grows without bound. [`CachedModel::bounded`]
/// caps the number of live entries; once a shard is full, each new
/// insert evicts one arbitrary resident entry. That eviction is not
/// cheap: the victim is the map's first occupied slot, and the scan
/// for it walks past every slot earlier evictions emptied, so an
/// insert into a full cache costs more the longer the cache has been
/// evicting. A cache sized for its working set never evicts.
#[derive(Debug)]
pub struct CachedModel<M> {
    inner: M,
    shards: [Mutex<Shard>; CACHE_SHARDS],
    /// Per-shard entry cap; `usize::MAX` when unbounded.
    shard_capacity: usize,
    total: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

/// One lock stripe: keys are FNV-1a hashes, already uniformly mixed,
/// so the map hashes them with a pass-through hasher instead of
/// re-running SipHash on every probe.
type Shard = HashMap<u64, f64, BuildHasherDefault<PassThroughHasher>>;

/// Identity hasher for pre-hashed `u64` keys.
#[derive(Debug, Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("cache keys are hashed as u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Streams `fmt::Display` output through FNV-1a without building a
/// `String`.
struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a hash of the block's canonical printed form.
fn block_key(block: &BasicBlock) -> u64 {
    let mut writer = FnvWriter(0xcbf2_9ce4_8422_2325);
    write!(writer, "{block}").expect("hashing writer never fails");
    writer.0
}

/// Counters exposed by [`CachedModel::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total predictions requested.
    pub total: u64,
    /// Predictions answered from the cache.
    pub hits: u64,
    /// Entries evicted by bounded-capacity inserts. Silent eviction
    /// is invisible in hit rates until it has already cost repeat
    /// queries; this counter makes capacity pressure observable
    /// (exported as `comet_cache_evictions_total`).
    pub evictions: u64,
    /// Live cached entries at the time of the snapshot.
    pub entries: u64,
    /// Shards holding at least one entry.
    pub occupied_shards: u32,
    /// Total shard count (the lock-stripe width).
    pub shards: u32,
    /// Model version these entries belong to. The cache itself is
    /// version-agnostic (serve keeps one cache per model epoch); the
    /// owner stamps this so operators can see which version's entries
    /// a hot-swap invalidated. Zero when unversioned.
    pub version: u64,
}

impl QueryStats {
    /// Fraction of queries answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

/// Recover a lock even when a previous holder panicked: every critical
/// section in this module is a plain read or insert, which cannot leave
/// the map in a torn state, so the poison flag carries no information.
fn recover<'a, T>(lock: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<M: CostModel> CachedModel<M> {
    /// Wrap a model with an unbounded prediction cache.
    pub fn new(inner: M) -> CachedModel<M> {
        CachedModel {
            inner,
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_capacity: usize::MAX,
            total: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Wrap a model with a cache holding at most `capacity` entries
    /// (rounded up to a multiple of the shard count). Inserts into a
    /// full shard evict one arbitrary resident entry.
    pub fn bounded(inner: M, capacity: usize) -> CachedModel<M> {
        let mut model = CachedModel::new(inner);
        model.shard_capacity = capacity.div_ceil(CACHE_SHARDS).max(1);
        model
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// A consistent-enough snapshot of the cache counters. Hit/total
    /// counts are exact; occupancy is sampled shard by shard.
    pub fn stats(&self) -> QueryStats {
        let mut entries = 0u64;
        let mut occupied = 0u32;
        for shard in &self.shards {
            let len = recover(shard).len();
            entries += len as u64;
            occupied += u32::from(len > 0);
        }
        QueryStats {
            total: self.total.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            occupied_shards: occupied,
            shards: CACHE_SHARDS as u32,
            version: 0,
        }
    }

    /// Drop all cached predictions *and* reset the hit/total counters,
    /// returning the cache to its freshly-constructed state. (Callers
    /// comparing [`stats`](CachedModel::stats) across a `clear` should
    /// snapshot first.)
    pub fn clear(&self) {
        for shard in &self.shards {
            recover(shard).clear();
        }
        self.total.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// The shard a key lives in. High bits, because the pass-through
/// hasher feeds the key's low bits to the map's bucket index — the two
/// selectors must not overlap or every shard would use only
/// 1/[`CACHE_SHARDS`] of its buckets.
fn shard_index(key: u64) -> usize {
    (key >> (64 - CACHE_SHARDS.trailing_zeros())) as usize
}

/// Capacity-respecting insert under an already-held shard lock, so the
/// batch path can insert a whole shard group in one lock round.
/// Returns whether a resident entry was evicted, so the caller can
/// bump the eviction counter outside the lock. The victim is the first
/// key `shard.keys()` yields, found by a scan that grows with the
/// emptied slots ahead of it (see [`CachedModel`]'s capacity notes).
fn store_locked(shard: &mut Shard, capacity: usize, key: u64, value: f64) -> bool {
    let evict = shard.len() >= capacity && !shard.contains_key(&key);
    if evict {
        if let Some(&victim) = shard.keys().next() {
            shard.remove(&victim);
        }
    }
    shard.insert(key, value);
    evict
}

impl<M: CostModel> CostModel for CachedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Infallible view: failures surface as NaN (callers wanting the
    /// error should use [`try_predict`](CostModel::try_predict)).
    fn predict(&self, block: &BasicBlock) -> f64 {
        self.try_predict(block).unwrap_or(f64::NAN)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        predict_one(self, block)
    }

    /// Batched lookup/miss/store with one lock round per *shard* rather
    /// than one lock per item: items are grouped by shard for the
    /// lookup pass, the misses go to the inner model as one
    /// `predict_batch` call (so batching survives the cache layer), and
    /// the finite results are stored with a second per-shard lock
    /// round.
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        if blocks.is_empty() {
            return Vec::new();
        }
        self.total.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        let keys: Vec<u64> = blocks.iter().map(block_key).collect();
        let mut results: Vec<Option<Result<f64, ModelError>>> = vec![None; blocks.len()];

        // Lookup pass: one lock acquisition per shard that has items.
        let mut hits = 0u64;
        for shard_id in 0..CACHE_SHARDS {
            let mut guard = None;
            for (i, &key) in keys.iter().enumerate() {
                if shard_index(key) != shard_id {
                    continue;
                }
                let shard = guard.get_or_insert_with(|| recover(&self.shards[shard_id]));
                // Cached values are finite by construction; re-check so
                // a stale non-finite entry is re-queried rather than
                // served.
                if let Some(&v) = shard.get(&key) {
                    if v.is_finite() {
                        hits += 1;
                        results[i] = Some(Ok(v));
                    }
                }
            }
        }
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }

        // Miss pass: one inner batch call for all misses. The all-miss
        // case (the common one under an explainer's perturbation
        // stream) forwards the caller's slice without copying.
        let miss_indices: Vec<usize> =
            (0..blocks.len()).filter(|&i| results[i].is_none()).collect();
        if !miss_indices.is_empty() {
            let miss_results = if miss_indices.len() == blocks.len() {
                self.inner.predict_batch(blocks)
            } else {
                let miss_blocks: Vec<BasicBlock> =
                    miss_indices.iter().map(|&i| blocks[i].clone()).collect();
                self.inner.predict_batch(&miss_blocks)
            };
            debug_assert_eq!(miss_results.len(), miss_indices.len());

            // Store pass: again one lock round per shard with items.
            let mut evicted = 0u64;
            for shard_id in 0..CACHE_SHARDS {
                let mut guard = None;
                for (j, &i) in miss_indices.iter().enumerate() {
                    if shard_index(keys[i]) != shard_id {
                        continue;
                    }
                    if let Some(Ok(v)) = miss_results.get(j) {
                        if v.is_finite() {
                            let shard =
                                guard.get_or_insert_with(|| recover(&self.shards[shard_id]));
                            evicted +=
                                u64::from(store_locked(shard, self.shard_capacity, keys[i], *v));
                        }
                    }
                }
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }

            for (j, &i) in miss_indices.iter().enumerate() {
                results[i] = Some(match miss_results[j].clone() {
                    // An overridden inner that leaks a non-finite Ok
                    // becomes a typed error.
                    Ok(v) if v.is_finite() => Ok(v),
                    Ok(v) => Err(ModelError::NonFinite { value: v }),
                    Err(e) => Err(e),
                });
            }
        }
        results.into_iter().map(|r| r.expect("every batch item resolved")).collect()
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        self.inner.resilience()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counting(AtomicU64);

    impl CostModel for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            self.0.fetch_add(1, Ordering::SeqCst);
            block.len() as f64
        }
    }

    #[test]
    fn cache_avoids_repeat_queries() {
        let model = CachedModel::new(Counting(AtomicU64::new(0)));
        let block = comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        assert_eq!(model.predict(&block), 2.0);
        assert_eq!(model.predict(&block), 2.0);
        assert_eq!(model.inner().0.load(Ordering::SeqCst), 1);
        let stats = model.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.occupied_shards, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        model.clear();
        // `clear` resets counters along with the entries.
        assert_eq!(
            model.stats(),
            QueryStats { shards: CACHE_SHARDS as u32, ..QueryStats::default() }
        );
        model.predict(&block);
        assert_eq!(model.inner().0.load(Ordering::SeqCst), 2);
    }

    /// A spread of distinct blocks lands in multiple shards and every
    /// entry stays retrievable (hash keys don't collide in practice).
    #[test]
    fn distinct_blocks_spread_across_shards() {
        let model = CachedModel::new(Counting(AtomicU64::new(0)));
        let blocks: Vec<BasicBlock> = (1..=64)
            .map(|n| {
                let text = (0..n).map(|_| "add rcx, rax").collect::<Vec<_>>().join("\n");
                comet_isa::parse_block(&text).unwrap()
            })
            .collect();
        for block in &blocks {
            model.predict(block);
        }
        for block in &blocks {
            assert_eq!(model.predict(block), block.len() as f64);
        }
        let stats = model.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.hits, 64);
        assert!(stats.occupied_shards > 1, "64 keys all hashed into one shard");
    }

    #[test]
    fn bounded_cache_evicts_instead_of_growing() {
        let model = CachedModel::bounded(Counting(AtomicU64::new(0)), CACHE_SHARDS);
        let blocks: Vec<BasicBlock> = (1..=128)
            .map(|n| {
                let text = (0..n).map(|_| "mov rdx, rcx").collect::<Vec<_>>().join("\n");
                comet_isa::parse_block(&text).unwrap()
            })
            .collect();
        for block in &blocks {
            model.predict(block);
        }
        let stats = model.stats();
        assert!(
            stats.entries <= CACHE_SHARDS as u64,
            "bounded cache grew to {} entries",
            stats.entries
        );
        // Evictions are counted, not silent: everything inserted past
        // the resident set displaced an entry.
        assert_eq!(
            stats.evictions,
            128 - stats.entries,
            "evictions account for every displacement"
        );
        // A resident entry is still a hit; capacity bounds size, not
        // correctness.
        let before = model.stats().hits;
        let resident = blocks.last().unwrap();
        assert_eq!(model.predict(resident), resident.len() as f64);
        assert_eq!(model.stats().hits, before + 1);
    }

    /// The batch path must answer hits from the cache, forward only the
    /// misses to the inner model, and keep every counter exact.
    #[test]
    fn batch_path_partitions_hits_and_misses() {
        let model = CachedModel::new(Counting(AtomicU64::new(0)));
        let blocks: Vec<BasicBlock> = (1..=12)
            .map(|n| {
                let text = (0..n).map(|_| "imul rax, rcx").collect::<Vec<_>>().join("\n");
                comet_isa::parse_block(&text).unwrap()
            })
            .collect();
        // Warm half the keyspace through the scalar path.
        for block in &blocks[..6] {
            model.predict(block);
        }
        let results = model.predict_batch(&blocks);
        for (block, result) in blocks.iter().zip(&results) {
            assert_eq!(*result, Ok(block.len() as f64));
        }
        let stats = model.stats();
        assert_eq!(stats.total, 6 + 12);
        assert_eq!(stats.hits, 6, "warmed entries answered from the cache");
        assert_eq!(model.inner().0.load(Ordering::SeqCst), 12, "only misses reached the inner");
        // A second identical batch is all hits, zero inner calls.
        let again = model.predict_batch(&blocks);
        assert_eq!(again, results);
        assert_eq!(model.inner().0.load(Ordering::SeqCst), 12);
        assert_eq!(model.stats().hits, 18);
    }

    /// Per-item equivalence: the batch default impl and the cache
    /// override agree with sequential `try_predict` calls.
    #[test]
    fn batch_default_matches_sequential_try_predict() {
        let model = Counting(AtomicU64::new(0));
        let blocks: Vec<BasicBlock> = ["nop", "add rcx, rax\nmov rdx, rcx", "div rcx"]
            .iter()
            .map(|t| comet_isa::parse_block(t).unwrap())
            .collect();
        let batched = model.predict_batch(&blocks);
        let sequential: Vec<_> = blocks.iter().map(|b| model.try_predict(b)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn trait_objects_work() {
        let model: Box<dyn CostModel> = Box::new(Counting(AtomicU64::new(0)));
        let block = comet_isa::parse_block("nop").unwrap();
        assert_eq!(model.predict(&block), 1.0);
        assert_eq!(model.name(), "counting");
        assert_eq!(model.try_predict(&block), Ok(1.0));
        assert!(model.resilience().is_none());
    }

    #[test]
    fn default_try_predict_matches_predict_on_healthy_models() {
        let model = Counting(AtomicU64::new(0));
        let block = comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        assert_eq!(model.try_predict(&block), Ok(2.0));
    }

    #[test]
    fn default_try_predict_rejects_non_finite() {
        struct NanModel;
        impl CostModel for NanModel {
            fn name(&self) -> &str {
                "nan"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                f64::NAN
            }
        }
        let block = comet_isa::parse_block("nop").unwrap();
        assert!(matches!(NanModel.try_predict(&block), Err(ModelError::NonFinite { .. })));
    }

    #[test]
    fn default_try_predict_catches_panics() {
        struct PanicModel;
        impl CostModel for PanicModel {
            fn name(&self) -> &str {
                "panic"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                panic!("model exploded")
            }
        }
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let block = comet_isa::parse_block("nop").unwrap();
        let result = PanicModel.try_predict(&block);
        std::panic::set_hook(prev);
        match result {
            Err(ModelError::Panic { message }) => assert!(message.contains("exploded")),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn cache_does_not_pin_non_finite_predictions() {
        struct FlakyNan(AtomicU64);
        impl CostModel for FlakyNan {
            fn name(&self) -> &str {
                "flaky-nan"
            }
            fn predict(&self, block: &BasicBlock) -> f64 {
                // First call yields NaN; later calls are healthy.
                if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                    f64::NAN
                } else {
                    block.len() as f64
                }
            }
        }
        let model = CachedModel::new(FlakyNan(AtomicU64::new(0)));
        let block = comet_isa::parse_block("nop").unwrap();
        assert!(model.predict(&block).is_nan());
        // The NaN was not cached: the retry reaches the inner model.
        assert_eq!(model.try_predict(&block), Ok(1.0));
        // And the recovered value is now served from the cache.
        assert_eq!(model.predict(&block), 1.0);
        assert_eq!(model.inner().0.load(Ordering::SeqCst), 2);
    }

    /// 16 threads hammering a bounded cache with a keyspace several
    /// times its capacity: the bound must hold under concurrent
    /// insert/evict races, and the counters must stay exact —
    /// `inner_calls == total - hits` is an invariant of the miss path
    /// (every miss bumps `total`, skips `hits`, and calls the inner
    /// model exactly once), even when two threads miss the same key
    /// simultaneously and both compute it.
    #[test]
    fn bounded_cache_survives_concurrent_hammering() {
        // Capacity a multiple of the shard count, so `bounded`'s
        // per-shard rounding cannot raise the effective global bound.
        const CAPACITY: usize = 4 * CACHE_SHARDS;
        const KEYSPACE: usize = 10 * CACHE_SHARDS;
        const THREADS: u64 = 16;
        const ITERS: u64 = 2_000;

        let model = CachedModel::bounded(Counting(AtomicU64::new(0)), CAPACITY);
        let blocks: Vec<BasicBlock> = (1..=KEYSPACE)
            .map(|n| {
                let text = (0..n).map(|_| "add rcx, rax").collect::<Vec<_>>().join("\n");
                comet_isa::parse_block(&text).unwrap()
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let model = &model;
                let blocks = &blocks;
                scope.spawn(move || {
                    // Cheap deterministic per-thread stream, biased so
                    // different threads revisit overlapping keys.
                    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                    for _ in 0..ITERS {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let block = &blocks[(state >> 33) as usize % blocks.len()];
                        assert_eq!(model.predict(block), block.len() as f64);
                    }
                });
            }
        });

        let stats = model.stats();
        let inner_calls = model.inner().0.load(Ordering::SeqCst);
        assert_eq!(stats.total, THREADS * ITERS, "every query counted exactly once");
        assert!(stats.entries <= CAPACITY as u64, "bound violated: {} entries", stats.entries);
        assert_eq!(inner_calls, stats.total - stats.hits, "miss-path counter invariant");
        assert!(stats.hits > 0, "a keyspace this small must produce hits");
        // Eviction actually happened: more misses than could ever fit.
        assert!(inner_calls > CAPACITY as u64);
        // Displacements are counted: every store either evicted, added
        // a resident, or overwrote a racing same-key store, so the
        // counter is bounded by inserts − residents and must be hot.
        assert!(stats.evictions > 0, "a keyspace over capacity must evict");
        assert!(stats.evictions <= inner_calls - stats.entries, "evictions over-counted");
    }
}
