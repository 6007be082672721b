//! The store read path: open-and-validate once, then binary-search
//! lookups straight over the raw file bytes.
//!
//! [`ExplanationStore::open`] reads the file into one contiguous
//! buffer and validates everything up front — magic, format version,
//! section-table bounds, every section checksum, record-count
//! consistency, key ordering, offset monotonicity. After that, a
//! lookup touches only the KEYS section (binary search over
//! little-endian u64s read in place) and, on a candidate hit, the
//! stored canonical text (byte compare, no allocation); the
//! [`Explanation`] is materialized only for the confirmed hit. Nothing
//! in this module panics on hostile bytes: every malformed input maps
//! to a typed [`StoreError`].

use std::fmt;
use std::path::Path;

use comet_bhive::Category;
use comet_core::Explanation;
use comet_models::fnv1a64;

use crate::analytics::Analytics;
use crate::format::{
    category_from_byte, features_from_indices, store_key, Provenance, FEAT_BYTES, FLAG_ANCHORED,
    FLAG_DEGRADED, FORMAT_VERSION, HEADER_BYTES, LANES, MAGIC, META_BYTES, SECTION_IDS,
    SEC_ANALYTICS, SEC_FEAT_INDEX, SEC_FEAT_OFFSETS, SEC_FEAT_TABLE, SEC_IMPORTANCE, SEC_KEYS,
    SEC_META, SEC_PROVENANCE, SEC_TEXT, SEC_TEXT_OFFSETS, TABLE_ENTRY_BYTES,
};

/// Why a store file could not be opened or decoded. Corruption is a
/// load-time error, never a panic and never a silently wrong record.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file ends before a structure it promised (torn tail).
    Truncated(&'static str),
    /// The file does not start with the COMETS1 magic.
    BadMagic,
    /// The file's format version is not one this reader speaks.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// A section's bytes do not match their table checksum.
    Checksum {
        /// Section id from [`crate::format`].
        section: u32,
    },
    /// Structurally invalid content that passed checksums (written by
    /// a broken or newer writer).
    Malformed(&'static str),
    /// Provenance or analytics JSON failed to parse.
    Json(serde_json::Error),
    /// A value cannot be encoded in the format (builder side).
    Unrepresentable(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o failed: {e}"),
            StoreError::Truncated(what) => {
                write!(f, "store file truncated: {what} extends past end of file")
            }
            StoreError::BadMagic => write!(f, "not a COMETS1 store file (bad magic)"),
            StoreError::Version { found } => write!(
                f,
                "store format version {found} unsupported (this reader speaks {FORMAT_VERSION})"
            ),
            StoreError::Checksum { section } => {
                write!(f, "store section {section} failed its checksum (corrupt bytes)")
            }
            StoreError::Malformed(what) => write!(f, "store file malformed: {what}"),
            StoreError::Json(e) => write!(f, "store metadata JSON invalid: {e}"),
            StoreError::Unrepresentable(what) => {
                write!(f, "value not representable in the store format: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> StoreError {
        StoreError::Json(e)
    }
}

/// Byte range of one section inside the file buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn slice<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.start..self.start + self.len]
    }
}

/// An opened, fully validated explanation store.
#[derive(Debug)]
pub struct ExplanationStore {
    data: Box<[u8]>,
    provenance: Provenance,
    analytics: Analytics,
    keys: Span,
    text_offsets: Span,
    text: Span,
    feat_table: Span,
    feat_offsets: Span,
    feat_index: Span,
    importance: Span,
    meta: Span,
    n: usize,
}

impl ExplanationStore {
    /// Open and validate a store file.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: I/O failures, truncation, bad magic, an
    /// unsupported format version, checksum mismatches, or
    /// structurally inconsistent sections. A failed open leaves
    /// nothing half-initialized.
    pub fn open(path: impl AsRef<Path>) -> Result<ExplanationStore, StoreError> {
        ExplanationStore::from_bytes(std::fs::read(path)?)
    }

    /// Validate a store from an in-memory buffer (the unit the
    /// corruption tests drive directly).
    ///
    /// # Errors
    ///
    /// See [`ExplanationStore::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<ExplanationStore, StoreError> {
        let data = bytes.into_boxed_slice();
        if data.len() < HEADER_BYTES {
            return Err(StoreError::Truncated("file header"));
        }
        if data[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = read_u32(&data, 8)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Version { found: version });
        }
        let count = read_u32(&data, 12)? as usize;
        if count != SECTION_IDS.len() {
            return Err(StoreError::Malformed("unexpected section count"));
        }
        let table_end = HEADER_BYTES + count * TABLE_ENTRY_BYTES;
        if data.len() < table_end {
            return Err(StoreError::Truncated("section table"));
        }

        let mut spans = [Span::default(); SECTION_IDS.len()];
        for (slot, expected_id) in SECTION_IDS.iter().enumerate() {
            let entry = HEADER_BYTES + slot * TABLE_ENTRY_BYTES;
            let id = read_u32(&data, entry)?;
            if id != *expected_id {
                return Err(StoreError::Malformed("section table out of order"));
            }
            let offset = read_u64(&data, entry + 8)?;
            let len = read_u64(&data, entry + 16)?;
            let checksum = read_u64(&data, entry + 24)?;
            let start = usize::try_from(offset)
                .map_err(|_| StoreError::Malformed("section offset overflows usize"))?;
            let len = usize::try_from(len)
                .map_err(|_| StoreError::Malformed("section length overflows usize"))?;
            let end =
                start.checked_add(len).ok_or(StoreError::Malformed("section range overflows"))?;
            if end > data.len() {
                return Err(StoreError::Truncated("section payload"));
            }
            if fnv1a64(&data[start..end]) != checksum {
                return Err(StoreError::Checksum { section: id });
            }
            spans[slot] = Span { start, len };
        }
        let span_of = |id: u32| -> Span {
            let slot = SECTION_IDS.iter().position(|s| *s == id).expect("id is in SECTION_IDS");
            spans[slot]
        };

        let provenance: Provenance = parse_json(span_of(SEC_PROVENANCE).slice(&data))?;
        if provenance.v != 1 {
            return Err(StoreError::Malformed("unknown provenance schema"));
        }
        let analytics: Analytics = parse_json(span_of(SEC_ANALYTICS).slice(&data))?;

        let keys = span_of(SEC_KEYS);
        let text_offsets = span_of(SEC_TEXT_OFFSETS);
        let text = span_of(SEC_TEXT);
        let feat_table = span_of(SEC_FEAT_TABLE);
        let feat_offsets = span_of(SEC_FEAT_OFFSETS);
        let feat_index = span_of(SEC_FEAT_INDEX);
        let importance = span_of(SEC_IMPORTANCE);
        let meta = span_of(SEC_META);

        if keys.len % 8 != 0 {
            return Err(StoreError::Malformed("keys section not u64-aligned"));
        }
        let n = keys.len / 8;
        if provenance.records != n as u64 {
            return Err(StoreError::Malformed("record count disagrees with keys section"));
        }
        let expect = |ok: bool, what: &'static str| -> Result<(), StoreError> {
            if ok {
                Ok(())
            } else {
                Err(StoreError::Malformed(what))
            }
        };
        expect(text_offsets.len == (n + 1) * 4, "text offsets sized wrong")?;
        expect(feat_offsets.len == (n + 1) * 4, "feature offsets sized wrong")?;
        expect(importance.len == n * LANES * 8, "importance section sized wrong")?;
        expect(meta.len == n * META_BYTES, "meta section sized wrong")?;
        expect(feat_table.len % FEAT_BYTES == 0, "feature table not entry-aligned")?;
        expect(feat_index.len % 4 == 0, "feature index not u32-aligned")?;

        let store = ExplanationStore {
            data,
            provenance,
            analytics,
            keys,
            text_offsets,
            text,
            feat_table,
            feat_offsets,
            feat_index,
            importance,
            meta,
            n,
        };

        // Keys must be sorted (binary-search contract) and offset
        // arrays monotone and in range.
        for i in 1..store.n {
            if store.key_at(i - 1) > store.key_at(i) {
                return Err(StoreError::Malformed("keys section not sorted"));
            }
        }
        let feat_entries = store.feat_index.len / 4;
        let table_entries = store.feat_table.len / FEAT_BYTES;
        let mut prev_text = 0usize;
        let mut prev_feat = 0usize;
        for i in 0..=store.n {
            let t = store.text_offset(i)?;
            let f = store.feat_offset(i)?;
            expect(t >= prev_text && t <= store.text.len, "text offsets not monotone")?;
            expect(f >= prev_feat && f <= feat_entries, "feature offsets not monotone")?;
            prev_text = t;
            prev_feat = f;
        }
        expect(prev_text == store.text.len, "text blob length disagrees with offsets")?;
        expect(prev_feat == feat_entries, "feature index length disagrees with offsets")?;
        for slot in 0..feat_entries {
            let index = read_u32(&store.data, store.feat_index.start + slot * 4)? as usize;
            expect(index < table_entries, "feature index points past the table")?;
        }
        // Texts must be valid UTF-8 once, up front, so lookups can
        // compare bytes without re-checking.
        std::str::from_utf8(store.text.slice(&store.data))
            .map_err(|_| StoreError::Malformed("text blob is not UTF-8"))?;

        Ok(store)
    }

    /// Number of records in the store.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The provenance header the store was built under.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// The build-time analytics rollups.
    pub fn analytics(&self) -> &Analytics {
        &self.analytics
    }

    /// Look up a block by canonical text: binary search over the key
    /// index, then an exact text compare (hash collisions degrade to a
    /// scan of the equal-key run, never a wrong record). Returns the
    /// record index.
    pub fn lookup_index(&self, canonical_text: &str) -> Option<usize> {
        let key = store_key(canonical_text);
        let mut lo = 0usize;
        let mut hi = self.n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut i = lo;
        while i < self.n && self.key_at(i) == key {
            if self.text_bytes(i) == Some(canonical_text.as_bytes()) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Look up a block by canonical text and materialize its
    /// explanation. Returns `None` on a miss.
    pub fn lookup(&self, canonical_text: &str) -> Option<Explanation> {
        let index = self.lookup_index(canonical_text)?;
        self.explanation_at(index).ok()
    }

    /// The canonical text of record `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` (validated offsets make the slicing
    /// itself infallible).
    pub fn text_at(&self, index: usize) -> &str {
        assert!(index < self.n, "record index out of range");
        let bytes = self.text_bytes(index).expect("offsets validated at open");
        // UTF-8 was validated for the whole blob at open.
        std::str::from_utf8(bytes).expect("text validated at open")
    }

    /// The stored importance lanes of record `index`
    /// (see [`crate::format::LANES`]).
    pub fn importance_at(&self, index: usize) -> [f64; LANES] {
        assert!(index < self.n, "record index out of range");
        let base = self.importance.start + index * LANES * 8;
        std::array::from_fn(|lane| {
            let bits = read_u64(&self.data, base + lane * 8).expect("sized at open");
            f64::from_bits(bits)
        })
    }

    /// The BHive category of record `index`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] if the category byte is out of range.
    pub fn category_at(&self, index: usize) -> Result<Category, StoreError> {
        assert!(index < self.n, "record index out of range");
        category_from_byte(self.data[self.meta.start + index * META_BYTES + 17])
    }

    /// Materialize the full explanation of record `index`, bitwise
    /// identical to the one the builder journaled.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] if a feature entry decodes to an
    /// unknown tag (possible only for files from a newer writer).
    pub fn explanation_at(&self, index: usize) -> Result<Explanation, StoreError> {
        assert!(index < self.n, "record index out of range");
        let feat_start = self.feat_offset(index)?;
        let feat_end = self.feat_offset(index + 1)?;
        let indices = (feat_start..feat_end).map(|slot| {
            read_u32(&self.data, self.feat_index.start + slot * 4).expect("sized at open")
        });
        let features = features_from_indices(self.feat_table.slice(&self.data), indices)?;
        let lanes = self.importance_at(index);
        let meta = self.meta.start + index * META_BYTES;
        let queries = read_u64(&self.data, meta)?;
        let faults = u64::from(read_u32(&self.data, meta + 8)?);
        let retries = u64::from(read_u32(&self.data, meta + 12)?);
        let flags = self.data[meta + 16];
        Ok(Explanation {
            features,
            precision: lanes[0],
            coverage: lanes[1],
            prediction: lanes[2],
            anchored: flags & FLAG_ANCHORED != 0,
            queries,
            faults,
            retries,
            degraded: flags & FLAG_DEGRADED != 0,
            duration_secs: 0.0,
        })
    }

    /// Iterate over all canonical texts in key order (bench and test
    /// drivers pick their probe blocks from here).
    pub fn iter_texts(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.n).map(|i| self.text_at(i))
    }

    fn key_at(&self, index: usize) -> u64 {
        read_u64(&self.data, self.keys.start + index * 8).expect("sized at open")
    }

    fn text_bytes(&self, index: usize) -> Option<&[u8]> {
        let start = self.text_offset(index).ok()?;
        let end = self.text_offset(index + 1).ok()?;
        self.text.slice(&self.data).get(start..end)
    }

    fn text_offset(&self, index: usize) -> Result<usize, StoreError> {
        Ok(read_u32(&self.data, self.text_offsets.start + index * 4)? as usize)
    }

    fn feat_offset(&self, index: usize) -> Result<usize, StoreError> {
        Ok(read_u32(&self.data, self.feat_offsets.start + index * 4)? as usize)
    }
}

/// Parse just the provenance header out of a store file without full
/// validation — what `readyz` reporting uses when a store fails to
/// open but its header survived. Returns `None` if even that much is
/// unreadable.
pub fn peek_provenance(bytes: &[u8]) -> Option<Provenance> {
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC {
        return None;
    }
    let count = read_u32(bytes, 12).ok()? as usize;
    let table_end = HEADER_BYTES.checked_add(count.checked_mul(TABLE_ENTRY_BYTES)?)?;
    if bytes.len() < table_end {
        return None;
    }
    for slot in 0..count {
        let entry = HEADER_BYTES + slot * TABLE_ENTRY_BYTES;
        if read_u32(bytes, entry).ok()? != SEC_PROVENANCE {
            continue;
        }
        let start = usize::try_from(read_u64(bytes, entry + 8).ok()?).ok()?;
        let len = usize::try_from(read_u64(bytes, entry + 16).ok()?).ok()?;
        let payload = bytes.get(start..start.checked_add(len)?)?;
        return parse_json::<Provenance>(payload).ok();
    }
    None
}

/// The vendored serde_json exposes only `from_str`; store JSON is
/// written by `to_vec` and therefore valid UTF-8.
fn parse_json<T: serde::Deserialize>(payload: &[u8]) -> Result<T, StoreError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| StoreError::Malformed("JSON section is not UTF-8"))?;
    Ok(serde_json::from_str(text)?)
}

fn read_u32(data: &[u8], offset: usize) -> Result<u32, StoreError> {
    data.get(offset..offset + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(StoreError::Truncated("u32 field"))
}

fn read_u64(data: &[u8], offset: usize) -> Result<u64, StoreError> {
    data.get(offset..offset + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or(StoreError::Truncated("u64 field"))
}
