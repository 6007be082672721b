//! The COMETS1 columnar on-disk format.
//!
//! A store file is one self-describing blob, little-endian throughout:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "COMETS1\0" (8) │ format version u32 │ section count u32│
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: count × { id u32, pad u32, offset u64,        │
//! │                          len u64, fnv1a64 checksum u64 }     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section payloads (order matches the table)                   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Sections (all offsets are absolute file offsets):
//!
//! | id | name         | layout                                         |
//! |----|--------------|------------------------------------------------|
//! | 1  | PROVENANCE   | JSON [`Provenance`]                            |
//! | 2  | KEYS         | n × u64, sorted — FNV-1a of canonical text     |
//! | 3  | TEXT_OFFSETS | (n+1) × u32 into TEXT                          |
//! | 4  | TEXT         | concatenated UTF-8 canonical block texts       |
//! | 5  | FEAT_TABLE   | m × 6 bytes, interned unique features          |
//! | 6  | FEAT_OFFSETS | (n+1) × u32 into FEAT_INDEX (in entries)       |
//! | 7  | FEAT_INDEX   | Σ × u32 indices into FEAT_TABLE                |
//! | 8  | IMPORTANCE   | n × 6 × f64 bits (see [`LANES`])               |
//! | 9  | META         | n × 24 bytes (queries, faults, retries, flags) |
//! | 10 | ANALYTICS    | JSON [`Analytics`]                             |
//!
//! Records are stored in ascending key order so lookups binary-search
//! the KEYS section directly over the raw bytes — no deserialization
//! of anything but the hit. Equal keys (FNV collisions between
//! distinct texts) sit adjacent; the reader scans the run and compares
//! canonical text bytes, so a collision degrades to a short linear
//! scan, never a wrong answer. Floats travel as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`), which is what makes store-served
//! explanations *bitwise* identical to the live search's output.
//!
//! Every section is FNV-1a-checksummed independently, so a flipped
//! byte anywhere — header, keys, payload — fails `open` with a typed
//! [`StoreError`] instead of serving
//! corrupt explanations or panicking.

use comet_bhive::Category;
use comet_core::{Explanation, Feature, FeatureSet};
use comet_graph::DepKind;
use comet_isa::BasicBlock;
use comet_models::fnv1a64;
use serde::{Deserialize, Serialize};

use crate::analytics::Analytics;
use crate::reader::StoreError;

/// File magic: format name + version generation, NUL-padded to 8.
pub const MAGIC: [u8; 8] = *b"COMETS1\0";

/// Format version. Bump on any layout change; readers refuse newer
/// versions rather than guessing.
pub const FORMAT_VERSION: u32 = 1;

/// Importance lanes stored per record, in order:
/// `[precision, coverage, prediction, inst_frac, dep_frac, eta_frac]`.
/// The first three reconstruct the explanation bitwise; the fraction
/// lanes are [`Explanation::kind_fractions`] in `FeatureKind::ALL`
/// order, precomputed so corpus-wide scans never re-walk feature sets.
pub const LANES: usize = 6;

/// Bytes per interned feature in FEAT_TABLE:
/// `[tag, 0, a_lo, a_hi, b_lo, b_hi]`.
pub const FEAT_BYTES: usize = 6;

/// Bytes per META record:
/// `queries u64 | faults u32 | retries u32 | flags u8 | category u8 | pad [u8; 6]`.
pub const META_BYTES: usize = 24;

/// META flags bit: the precision threshold was reached.
pub const FLAG_ANCHORED: u8 = 1 << 0;
/// META flags bit: the explanation was produced under degraded
/// conditions (faulted queries or a degraded model).
pub const FLAG_DEGRADED: u8 = 1 << 1;

pub(crate) const SEC_PROVENANCE: u32 = 1;
pub(crate) const SEC_KEYS: u32 = 2;
pub(crate) const SEC_TEXT_OFFSETS: u32 = 3;
pub(crate) const SEC_TEXT: u32 = 4;
pub(crate) const SEC_FEAT_TABLE: u32 = 5;
pub(crate) const SEC_FEAT_OFFSETS: u32 = 6;
pub(crate) const SEC_FEAT_INDEX: u32 = 7;
pub(crate) const SEC_IMPORTANCE: u32 = 8;
pub(crate) const SEC_META: u32 = 9;
pub(crate) const SEC_ANALYTICS: u32 = 10;

/// All section ids a v1 file must carry, in file order.
pub(crate) const SECTION_IDS: [u32; 10] = [
    SEC_PROVENANCE,
    SEC_KEYS,
    SEC_TEXT_OFFSETS,
    SEC_TEXT,
    SEC_FEAT_TABLE,
    SEC_FEAT_OFFSETS,
    SEC_FEAT_INDEX,
    SEC_IMPORTANCE,
    SEC_META,
    SEC_ANALYTICS,
];

/// Bytes per section-table entry: id u32, pad u32, offset u64, len
/// u64, checksum u64.
pub(crate) const TABLE_ENTRY_BYTES: usize = 32;

/// Fixed header before the section table: magic + version + count.
pub(crate) const HEADER_BYTES: usize = 8 + 4 + 4;

/// The store's lookup key: FNV-1a over the canonical block text. The
/// same hash family as the serving cache and journal checksums —
/// collisions are tolerated (the reader compares texts), not assumed
/// away.
pub fn store_key(canonical_text: &str) -> u64 {
    fnv1a64(canonical_text.as_bytes())
}

/// Provenance header binding a store to the exact serving
/// configuration that can reuse it. The serve read path refuses hits
/// unless model kind, model version, ε bits, and seed all match the
/// live request — a hot-swap bumps the version and structurally
/// invalidates every record without touching the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Provenance schema version (independent of the file format).
    pub v: u32,
    /// Model kind label (`crude-haswell` / `crude-skylake` / `uica`):
    /// a [`ModelKind::label`](comet_models::ModelKind::label).
    pub model_kind: String,
    /// Registry model version the explanations were computed under.
    pub model_version: u64,
    /// IEEE-754 bits of the ε the search ran with (bits, not decimal,
    /// so the match against a request ε is exact).
    pub epsilon_bits: u64,
    /// The request-visible RNG seed every block was explained with.
    pub seed: u64,
    /// Inference kernel variant (`scalar-v1` / `avx2-v1`); kernels
    /// agree only to a ULP bound, so a store is kernel-specific.
    pub kernel: String,
    /// Search-path generation tag (`search=batched-v2`).
    pub search: String,
    /// Record count (cross-checked against every per-record section).
    pub records: u64,
    /// Fingerprint of (model, config, seed, block set) — the same
    /// binding the build journal uses, for operator forensics.
    pub config_fingerprint: String,
}

impl Provenance {
    /// The ε as a float (display only; matching uses the bits).
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.epsilon_bits)
    }
}

/// One record heading into a store: the block, its taxonomy category,
/// and the completed explanation.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// The explained block (canonical text = `block.to_string()`).
    pub block: BasicBlock,
    /// BHive category (from [`comet_bhive::classify`]).
    pub category: Category,
    /// The explanation, diagnostics included.
    pub explanation: Explanation,
}

/// Encode one feature into its fixed 6-byte interned form.
///
/// # Errors
///
/// [`StoreError::Unrepresentable`] when an instruction index exceeds
/// `u16::MAX` — far beyond any basic block this pipeline produces, but
/// refused explicitly rather than truncated silently.
pub fn encode_feature(feature: &Feature) -> Result<[u8; FEAT_BYTES], StoreError> {
    let narrow = |i: usize| -> Result<u16, StoreError> {
        u16::try_from(i).map_err(|_| StoreError::Unrepresentable("instruction index > u16::MAX"))
    };
    let (tag, a, b) = match feature {
        Feature::NumInstructions => (0u8, 0u16, 0u16),
        Feature::Instruction(i) => (1, narrow(*i)?, 0),
        Feature::Dependency { kind, src, dst } => {
            let tag = match kind {
                DepKind::Raw => 2,
                DepKind::War => 3,
                DepKind::Waw => 4,
            };
            (tag, narrow(*src)?, narrow(*dst)?)
        }
    };
    let [a_lo, a_hi] = a.to_le_bytes();
    let [b_lo, b_hi] = b.to_le_bytes();
    Ok([tag, 0, a_lo, a_hi, b_lo, b_hi])
}

/// Decode a 6-byte interned feature.
///
/// # Errors
///
/// [`StoreError::Malformed`] on an unknown tag (which means the table
/// bytes passed their checksum but were written by something newer —
/// refuse rather than misread).
pub fn decode_feature(bytes: [u8; FEAT_BYTES]) -> Result<Feature, StoreError> {
    let a = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    let b = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
    match bytes[0] {
        0 => Ok(Feature::NumInstructions),
        1 => Ok(Feature::Instruction(a)),
        2 => Ok(Feature::Dependency { kind: DepKind::Raw, src: a, dst: b }),
        3 => Ok(Feature::Dependency { kind: DepKind::War, src: a, dst: b }),
        4 => Ok(Feature::Dependency { kind: DepKind::Waw, src: a, dst: b }),
        _ => Err(StoreError::Malformed("unknown feature tag")),
    }
}

/// Category ↔ byte for the META section, indexed into
/// [`Category::ALL`] (stable: the array order is the paper's Figure 4
/// order and part of the format).
pub(crate) fn category_byte(category: Category) -> u8 {
    Category::ALL.iter().position(|c| *c == category).expect("Category::ALL covers every category")
        as u8
}

pub(crate) fn category_from_byte(byte: u8) -> Result<Category, StoreError> {
    Category::ALL
        .get(byte as usize)
        .copied()
        .ok_or(StoreError::Malformed("category byte out of range"))
}

/// Serialize a complete store to bytes: records are sorted by
/// `(key, text)`, exact-duplicate texts are dropped (keeping the
/// first), features are interned, and every section is checksummed.
///
/// The writer is pure (bytes in, bytes out); callers publish the blob
/// with [`comet_eval::journal::atomic_write`] so a crash mid-build
/// never leaves a torn store on disk.
///
/// # Errors
///
/// [`StoreError::Unrepresentable`] for features outside the encoding's
/// range, [`StoreError::Json`] if provenance or analytics fail to
/// serialize, [`StoreError::Unrepresentable`] when text or feature
/// payloads overflow the u32 offset space (≈4 GiB of block text).
pub fn write_store(
    records: &[StoreRecord],
    provenance: &Provenance,
    analytics: &Analytics,
) -> Result<Vec<u8>, StoreError> {
    // Sort once by (key, text); dedup exact texts.
    let mut ordered: Vec<(u64, String, &StoreRecord)> = records
        .iter()
        .map(|r| {
            let text = r.block.to_string();
            (store_key(&text), text, r)
        })
        .collect();
    ordered.sort_by(|x, y| (x.0, x.1.as_str()).cmp(&(y.0, y.1.as_str())));
    ordered.dedup_by(|x, y| x.0 == y.0 && x.1 == y.1);
    let n = ordered.len();

    let mut provenance = provenance.clone();
    provenance.records = n as u64;

    // Intern features across all records, table in first-seen order.
    let mut table: Vec<[u8; FEAT_BYTES]> = Vec::new();
    let mut table_index: std::collections::HashMap<[u8; FEAT_BYTES], u32> =
        std::collections::HashMap::new();
    let mut feat_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut feat_index: Vec<u32> = Vec::new();
    feat_offsets.push(0);
    for (_, _, record) in &ordered {
        for feature in &record.explanation.features {
            let encoded = encode_feature(feature)?;
            let slot = *table_index.entry(encoded).or_insert_with(|| {
                table.push(encoded);
                (table.len() - 1) as u32
            });
            feat_index.push(slot);
        }
        let len = u32::try_from(feat_index.len())
            .map_err(|_| StoreError::Unrepresentable("feature index overflows u32"))?;
        feat_offsets.push(len);
    }

    // Text blob + offsets.
    let mut text_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut text_blob: Vec<u8> = Vec::new();
    text_offsets.push(0);
    for (_, text, _) in &ordered {
        text_blob.extend_from_slice(text.as_bytes());
        let len = u32::try_from(text_blob.len())
            .map_err(|_| StoreError::Unrepresentable("text blob overflows u32"))?;
        text_offsets.push(len);
    }

    // Per-record numeric lanes and metadata.
    let mut keys: Vec<u8> = Vec::with_capacity(n * 8);
    let mut importance: Vec<u8> = Vec::with_capacity(n * LANES * 8);
    let mut meta: Vec<u8> = Vec::with_capacity(n * META_BYTES);
    for (key, _, record) in &ordered {
        keys.extend_from_slice(&key.to_le_bytes());
        let e = &record.explanation;
        let fractions = e.kind_fractions();
        for lane in
            [e.precision, e.coverage, e.prediction, fractions[0], fractions[1], fractions[2]]
        {
            importance.extend_from_slice(&lane.to_bits().to_le_bytes());
        }
        meta.extend_from_slice(&e.queries.to_le_bytes());
        let faults = u32::try_from(e.faults).unwrap_or(u32::MAX);
        let retries = u32::try_from(e.retries).unwrap_or(u32::MAX);
        meta.extend_from_slice(&faults.to_le_bytes());
        meta.extend_from_slice(&retries.to_le_bytes());
        let mut flags = 0u8;
        if e.anchored {
            flags |= FLAG_ANCHORED;
        }
        if e.degraded {
            flags |= FLAG_DEGRADED;
        }
        meta.push(flags);
        meta.push(category_byte(record.category));
        meta.extend_from_slice(&[0u8; 6]);
    }

    let provenance_json = serde_json::to_vec(&provenance)?;
    let analytics_json = serde_json::to_vec(analytics)?;
    let sections: [(u32, Vec<u8>); 10] = [
        (SEC_PROVENANCE, provenance_json),
        (SEC_KEYS, keys),
        (SEC_TEXT_OFFSETS, u32s_to_bytes(&text_offsets)),
        (SEC_TEXT, text_blob),
        (SEC_FEAT_TABLE, table.concat()),
        (SEC_FEAT_OFFSETS, u32s_to_bytes(&feat_offsets)),
        (SEC_FEAT_INDEX, u32s_to_bytes(&feat_index)),
        (SEC_IMPORTANCE, importance),
        (SEC_META, meta),
        (SEC_ANALYTICS, analytics_json),
    ];

    let table_bytes = sections.len() * TABLE_ENTRY_BYTES;
    let mut offset = (HEADER_BYTES + table_bytes) as u64;
    let mut out = Vec::with_capacity(
        HEADER_BYTES + table_bytes + sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (id, payload) in &sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

fn u32s_to_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Rebuild a [`FeatureSet`] from interned indices (used by the reader;
/// public so tests can decode independently).
pub(crate) fn features_from_indices(
    table: &[u8],
    indices: impl Iterator<Item = u32>,
) -> Result<FeatureSet, StoreError> {
    let mut set = FeatureSet::new();
    for index in indices {
        let start = index as usize * FEAT_BYTES;
        let bytes: [u8; FEAT_BYTES] = table
            .get(start..start + FEAT_BYTES)
            .and_then(|s| s.try_into().ok())
            .ok_or(StoreError::Malformed("feature index out of table range"))?;
        set.insert(decode_feature(bytes)?);
    }
    Ok(set)
}
