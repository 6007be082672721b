//! Dense bitmask representation of feature sets.
//!
//! The explanation search manipulates feature sets millions of times
//! per explanation: candidate construction, beam deduplication,
//! subset-of-surviving checks, coverage counting. Representing every
//! set as a `BTreeSet<Feature>` allocates per node and compares
//! 24-byte enum values; instead, [`FeaturePool`] interns a block's
//! candidate features P̂ into a dense index space once, and
//! [`FeatureMask`] represents any subset as a bitmask — two inline
//! `u64` words for blocks with up to 128 features (virtually all of
//! them), with a heap spill for larger blocks.
//!
//! The pool's index order is the features' `Ord` order:
//! [`extract_features`] emits instructions in position order, then
//! dependency edges sorted by `(kind, src, dst)` (the `BlockGraph`
//! edge order), then η — exactly the derived `Ord` on [`Feature`].
//! Ascending-bit iteration over a mask therefore visits features in
//! the same order as iterating the equivalent `BTreeSet`, which keeps
//! the search's RNG consumption — and hence every seeded explanation —
//! byte-identical to the set-based implementation.
//!
//! [`extract_features`]: crate::feature::extract_features

use crate::feature::{Feature, FeatureSet};

/// Number of bits held inline before spilling to the heap.
const INLINE_BITS: usize = 128;

/// A block's candidate features P̂, interned into a dense `0..len`
/// index space in `Ord` order.
#[derive(Debug, Clone)]
pub struct FeaturePool {
    features: Vec<Feature>,
}

impl FeaturePool {
    /// Intern a sorted, duplicate-free feature list (the output shape
    /// of [`extract_features`](crate::feature::extract_features)).
    pub fn new(features: Vec<Feature>) -> FeaturePool {
        debug_assert!(
            features.windows(2).all(|w| w[0] < w[1]),
            "feature pool must be strictly sorted"
        );
        FeaturePool { features }
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The interned features in index (= `Ord`) order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// The feature at `index`.
    pub fn feature(&self, index: usize) -> Feature {
        self.features[index]
    }

    /// The index of `feature`, if it is in the pool.
    pub fn index_of(&self, feature: &Feature) -> Option<usize> {
        self.features.binary_search(feature).ok()
    }

    /// A mask over this pool with no bits set.
    pub fn empty_mask(&self) -> FeatureMask {
        FeatureMask::with_capacity(self.len())
    }

    /// A mask over this pool with every bit set.
    pub fn full_mask(&self) -> FeatureMask {
        let mut mask = self.empty_mask();
        mask.fill_to(self.len());
        mask
    }

    /// Convert a [`FeatureSet`] into a mask over this pool. Features
    /// absent from the pool are a caller bug (debug-asserted) and are
    /// ignored in release builds.
    pub fn mask_of(&self, set: &FeatureSet) -> FeatureMask {
        let mut mask = self.empty_mask();
        for feature in set {
            match self.index_of(feature) {
                Some(index) => mask.insert(index),
                None => debug_assert!(false, "feature {feature} not in pool"),
            }
        }
        mask
    }

    /// Convert a mask back into the public [`FeatureSet`] form.
    pub fn set_of(&self, mask: &FeatureMask) -> FeatureSet {
        mask.iter().map(|index| self.features[index]).collect()
    }
}

/// A subset of a [`FeaturePool`], as a bitmask.
///
/// Masks are only meaningful relative to the pool that produced them;
/// comparing or combining masks from different pools is a logic error
/// (not detected). All operations are allocation-free for pools of up
/// to 128 features; larger pools allocate once per mask.
///
/// `Eq`/`Hash` are derived, which is sound because all masks of one
/// pool share a representation variant and a word count, and unused
/// high bits are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeatureMask {
    words: MaskWords,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MaskWords {
    /// Up to 128 features, inline.
    Small([u64; 2]),
    /// Heap spill for larger pools; fixed word count per pool.
    Large(Vec<u64>),
}

impl FeatureMask {
    /// An empty mask able to hold indices `0..nbits`.
    pub fn with_capacity(nbits: usize) -> FeatureMask {
        let words = if nbits <= INLINE_BITS {
            MaskWords::Small([0; 2])
        } else {
            MaskWords::Large(vec![0; nbits.div_ceil(64)])
        };
        FeatureMask { words }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            MaskWords::Small(w) => w,
            MaskWords::Large(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            MaskWords::Small(w) => w,
            MaskWords::Large(w) => w,
        }
    }

    /// Set bit `index`.
    pub fn insert(&mut self, index: usize) {
        self.words_mut()[index / 64] |= 1u64 << (index % 64);
    }

    /// Clear bit `index`.
    pub fn remove(&mut self, index: usize) {
        self.words_mut()[index / 64] &= !(1u64 << (index % 64));
    }

    /// Whether bit `index` is set.
    pub fn contains(&self, index: usize) -> bool {
        self.words().get(index / 64).is_some_and(|word| word & (1u64 << (index % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Clear every bit, keeping capacity.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Set bits `0..nbits` (and clear the rest).
    pub fn fill_to(&mut self, nbits: usize) {
        self.clear();
        let words = self.words_mut();
        let full = nbits / 64;
        words[..full].fill(u64::MAX);
        let rem = nbits % 64;
        if rem != 0 {
            words[full] = (1u64 << rem) - 1;
        }
    }

    /// Whether every bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &FeatureMask) -> bool {
        let (a, b) = (self.words(), other.words());
        debug_assert_eq!(a.len(), b.len(), "masks from different pools");
        a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
    }

    /// Overwrite `self` with `other`'s bits, reusing any heap buffer.
    pub fn copy_from(&mut self, other: &FeatureMask) {
        match (&mut self.words, &other.words) {
            (MaskWords::Small(dst), MaskWords::Small(src)) => *dst = *src,
            (MaskWords::Large(dst), MaskWords::Large(src)) => dst.clone_from(src),
            _ => self.words = other.words.clone(),
        }
    }

    /// A process-stable 64-bit hash of the mask's bits, for deriving
    /// deterministic per-candidate RNG streams. Unlike `Hash` through a
    /// `std` `HashMap` (whose hasher is randomized per process), this
    /// folds the words through SplitMix64 and is identical across runs
    /// and machines. Zero words are included, so masks from pools of
    /// different sizes may hash differently — all masks of one
    /// explanation share a pool, which is the only use we need.
    pub fn stable_hash(&self) -> u64 {
        let mut acc = 0x243F_6A88_85A3_08D3u64; // arbitrary non-zero tag
        for &word in self.words() {
            acc = splitmix64(acc ^ word);
        }
        acc
    }

    /// Iterate the set bit indices in ascending order — the pool's
    /// `Ord` order, matching `BTreeSet` iteration over the equivalent
    /// [`FeatureSet`].
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// SplitMix64 finalizer: a cheap, statistically strong bijective mixer
/// (Steele et al., "Fast splittable pseudorandom number generators").
/// Used to derive independent RNG streams from structured counters,
/// and by the serving chaos and supervisor-jitter schedules.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_graph::DepKind;

    fn pool_of(n: usize) -> FeaturePool {
        // Strictly ascending by Ord: instructions, then deps, then η.
        let mut features: Vec<Feature> =
            (0..n.saturating_sub(2)).map(Feature::Instruction).collect();
        if n >= 2 {
            features.push(Feature::Dependency { kind: DepKind::Raw, src: 0, dst: 1 });
        }
        if n >= 1 {
            features.push(Feature::NumInstructions);
        }
        FeaturePool::new(features)
    }

    #[test]
    fn roundtrips_sets_through_masks() {
        let pool = pool_of(7);
        let mut set = FeatureSet::new();
        set.insert(Feature::Instruction(1));
        set.insert(Feature::NumInstructions);
        let mask = pool.mask_of(&set);
        assert_eq!(mask.len(), 2);
        assert_eq!(pool.set_of(&mask), set);
    }

    #[test]
    fn subset_and_membership() {
        let pool = pool_of(10);
        let mut a = pool.empty_mask();
        a.insert(1);
        a.insert(4);
        let mut b = a.clone();
        b.insert(7);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.contains(7) && !a.contains(7));
        b.remove(7);
        assert_eq!(a, b);
        assert!(b.is_subset(&a));
    }

    #[test]
    fn iteration_is_ascending_and_matches_btreeset_order() {
        let pool = pool_of(9);
        let mask = pool.full_mask();
        let via_mask: Vec<Feature> = mask.iter().map(|i| pool.feature(i)).collect();
        let via_set: Vec<Feature> = pool.set_of(&mask).into_iter().collect();
        assert_eq!(via_mask, via_set);
        assert_eq!(mask.len(), pool.len());
    }

    #[test]
    fn large_pools_spill_to_the_heap_and_still_work() {
        let n = 200;
        let features: Vec<Feature> = (0..n).map(Feature::Instruction).collect();
        let pool = FeaturePool::new(features);
        let mut mask = pool.empty_mask();
        mask.insert(0);
        mask.insert(129);
        mask.insert(199);
        assert_eq!(mask.iter().collect::<Vec<_>>(), vec![0, 129, 199]);
        assert!(mask.is_subset(&pool.full_mask()));
        let mut other = pool.empty_mask();
        other.copy_from(&mask);
        assert_eq!(other, mask);
        mask.fill_to(n);
        assert_eq!(mask.len(), n);
        mask.clear();
        assert!(mask.is_empty());
    }

    #[test]
    fn stable_hash_distinguishes_masks_and_is_reproducible() {
        let pool = pool_of(70);
        let mut a = pool.empty_mask();
        let mut b = pool.empty_mask();
        a.insert(3);
        a.insert(65);
        b.insert(3);
        assert_eq!(a.stable_hash(), a.clone().stable_hash());
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_ne!(b.stable_hash(), pool.empty_mask().stable_hash());
        // Pinned value: this hash seeds RNG streams, so it must never
        // drift across refactors without a deliberate golden refresh.
        let mut acc = 0x243F_6A88_85A3_08D3u64;
        for word in [(1u64 << 3), 1u64 << 1] {
            acc = splitmix64(acc ^ word);
        }
        assert_eq!(a.stable_hash(), acc);
    }
}
