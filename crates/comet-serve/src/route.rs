//! Consistent-hash key routing for the sharded serving fleet.
//!
//! A fleet of `M` comet-serve processes partitions the block-text key
//! space: each block's canonical text hashes (FNV-1a) onto a ring of
//! virtual points, and the first point at or after the key names the
//! owning shard. Both sides of the wire compute this independently —
//! `comet-router` to pick the upstream, and a `--shard i/M` server to
//! *enforce* ownership (a block outside its slice is answered `409
//! Conflict` naming the true owner) — so a routing bug is a loud,
//! attributable error instead of silently duplicated cache/store state.
//!
//! Virtual points (256 per shard) smooth the partition: with plain
//! modulo or one point per shard, adding a shard would remap nearly
//! every key; with a ring, joining shard `M` claims ~`1/(M+1)` of each
//! existing slice and nothing else moves.

use comet_models::fnv1a64;

/// The routing key for a request's block text: the canonical
/// (parse → Display) form when the block parses — the same
/// normalization the explain coalescing key uses, so `"ADD  rcx,rax"`
/// and `"add rcx, rax"` land on the same shard — and the trimmed raw
/// text otherwise (unparseable blocks still get a stable owner; their
/// 400 always comes from the same shard).
pub fn block_key(text: &str) -> u64 {
    match comet_isa::parse_block(text) {
        Ok(block) => fnv1a64(block.to_string().as_bytes()),
        Err(_) => fnv1a64(text.trim().as_bytes()),
    }
}

/// Virtual points per shard. 256 keeps the worst-case slice within
/// ~2× of fair share for small fleets — at 64 a 4-shard ring left one
/// shard under 10% of the key space.
const VNODES: u32 = 256;

/// A consistent-hash ring over `M` shards. Construction is pure: every
/// process building `Ring::new(M)` gets the identical ring.
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    shards: u32,
}

impl Ring {
    /// The ring for an `M`-shard fleet (`M` is clamped to at least 1).
    pub fn new(shards: u32) -> Ring {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity((shards * VNODES) as usize);
        for shard in 0..shards {
            for vnode in 0..VNODES {
                let point = fnv1a64(format!("comet-shard-{shard}-vnode-{vnode}").as_bytes());
                points.push((point, shard));
            }
        }
        // Ties (hash collisions between vnode labels) resolve to the
        // lower shard index on every host — sort is total.
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Fleet size this ring was built for.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `key`: the first point clockwise from the key,
    /// wrapping past the top of the hash space to the first point.
    pub fn owner(&self, key: u64) -> u32 {
        let idx = self.points.partition_point(|&(point, _)| point < key);
        self.points[idx % self.points.len()].1
    }

    /// The shard owning `text`'s block key.
    pub fn owner_of_block(&self, text: &str) -> u32 {
        self.owner(block_key(text))
    }
}

/// A parsed `--shard i/M` flag: this process is shard `index` of a
/// `count`-shard fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's slot, `0 ≤ index < count`.
    pub index: u32,
    /// Fleet size.
    pub count: u32,
}

impl ShardSpec {
    /// Parse `"i/M"` (e.g. `"0/2"`). Rejects `index ≥ count` and
    /// zero-sized fleets.
    pub fn parse(s: &str) -> Option<ShardSpec> {
        let (index, count) = s.split_once('/')?;
        let index: u32 = index.trim().parse().ok()?;
        let count: u32 = count.trim().parse().ok()?;
        (count > 0 && index < count).then_some(ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_key_is_canonicalization_invariant() {
        // Same block, different surface syntax → same key.
        assert_eq!(block_key("add rcx, rax"), block_key("ADD   RCX,  RAX"));
        // Different blocks → (virtually certainly) different keys.
        assert_ne!(block_key("add rcx, rax"), block_key("div rcx"));
        // Unparseable text still keys stably on its trimmed form.
        assert_eq!(block_key("  not asm at all  "), block_key("not asm at all"));
    }

    #[test]
    fn ring_ownership_is_deterministic_and_total() {
        let a = Ring::new(4);
        let b = Ring::new(4);
        for i in 0..10_000u64 {
            let key = fnv1a64(&i.to_le_bytes());
            let owner = a.owner(key);
            assert!(owner < 4);
            assert_eq!(owner, b.owner(key), "two rings over the same fleet must agree");
        }
        // Extremes wrap cleanly.
        assert!(a.owner(0) < 4);
        assert!(a.owner(u64::MAX) < 4);
    }

    #[test]
    fn ring_spreads_keys_across_all_shards() {
        let ring = Ring::new(4);
        let mut counts = [0u32; 4];
        for i in 0..10_000u64 {
            counts[ring.owner(fnv1a64(&i.to_le_bytes())) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // 256 vnodes keep the imbalance modest; require every
            // shard to hold at least half its fair share.
            assert!(count > 10_000 / 8, "shard {shard} owns only {count} of 10000 keys");
        }
    }

    #[test]
    fn adding_a_shard_moves_only_a_slice() {
        let four = Ring::new(4);
        let five = Ring::new(5);
        let mut moved = 0u32;
        for i in 0..10_000u64 {
            let key = fnv1a64(&i.to_le_bytes());
            let (before, after) = (four.owner(key), five.owner(key));
            if before != after {
                moved += 1;
                assert_eq!(after, 4, "a key may only move to the new shard, not reshuffle");
            }
        }
        // Expected movement is ~1/5 of keys; anything past 40% means
        // the ring is degenerating toward full remapping.
        assert!(moved < 4_000, "{moved} of 10000 keys moved on scale-out");
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(ShardSpec::parse("0/2"), Some(ShardSpec { index: 0, count: 2 }));
        assert_eq!(ShardSpec::parse("3/4"), Some(ShardSpec { index: 3, count: 4 }));
        assert_eq!(ShardSpec::parse("2/2"), None, "index must be < count");
        assert_eq!(ShardSpec::parse("0/0"), None);
        assert_eq!(ShardSpec::parse("1"), None);
        assert_eq!(ShardSpec::parse("a/b"), None);
        assert_eq!(ShardSpec::parse("1/2").unwrap().to_string(), "1/2");
    }
}
