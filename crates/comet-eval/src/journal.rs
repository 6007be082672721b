//! Crash-safe, resumable evaluation runs: a write-ahead result journal.
//!
//! COMET's headline experiments sweep a beam search over an entire
//! corpus; at paper scale that is hours of compute, and a single crash,
//! OOM-kill, or Ctrl-C used to discard every finished explanation. The
//! journal makes per-block results durable:
//!
//! * **Write-ahead append** — as each block's explanation completes,
//!   one checksummed JSONL record ([`JournalRecord`]: block index,
//!   canonical block text, seed, full [`Explanation`] including
//!   diagnostics) is appended, flushed, and fsynced before the run
//!   moves on. A crash loses at most the blocks still in flight.
//! * **Torn-tail recovery** — on startup the journal is re-read,
//!   verifying the per-record FNV-1a checksum; the first torn or
//!   garbled line (the classic crash artifact: a partially flushed
//!   tail) and everything after it is truncated away via an atomic
//!   tmp-file + fsync + rename rewrite, leaving exactly the prefix of
//!   intact records.
//! * **Config fingerprint** — the header line binds the journal to a
//!   fingerprint of (model, config, seed, block set). Re-running with a
//!   different configuration refuses to resume
//!   ([`JournalError::FingerprintMismatch`]) instead of silently mixing
//!   incompatible results.
//!
//! The experiment harness
//! ([`try_explain_blocks_durable`](crate::experiments::try_explain_blocks_durable))
//! recovers the journal before dispatching work and skips
//! already-completed blocks, so re-running the same `comet-eval`
//! command resumes instead of restarting. Because per-block RNG seeds
//! are derived from the block index, a resumed run is byte-identical
//! to an uninterrupted one.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use comet_core::Explanation;
use comet_models::fnv1a64;
use serde::{Deserialize, Serialize};

/// Magic tag opening every journal header line (format version 1).
const MAGIC: &str = "COMETJ1";

/// One durable result: everything needed to skip this block on resume
/// and still reproduce the uninterrupted run's output exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Index of the block in the run's block list.
    pub index: usize,
    /// Canonical text of the block (blocks print canonically), used to
    /// cross-check that a recovered record still describes the same
    /// input.
    pub block: String,
    /// The run seed the explanation was computed under.
    pub seed: u64,
    /// The completed explanation, diagnostics included.
    pub explanation: Explanation,
}

/// Why a journal could not be created, appended to, or recovered.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A record failed to (de)serialize.
    Format(serde_json::Error),
    /// The journal on disk was written under a different configuration;
    /// resuming would silently mix incompatible results, so we refuse.
    FingerprintMismatch {
        /// Fingerprint of the run being started.
        expected: String,
        /// Fingerprint recorded in the journal header.
        found: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::Format(e) => write!(f, "journal record invalid: {e}"),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal was written under a different run configuration \
                 (run fingerprint {expected}, journal fingerprint {found}); \
                 refusing to resume — delete the journal file to start fresh"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Format(e) => Some(e),
            JournalError::FingerprintMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

impl From<serde_json::Error> for JournalError {
    fn from(e: serde_json::Error) -> JournalError {
        JournalError::Format(e)
    }
}

/// What [`Journal::open_or_create`] salvaged from an existing file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn/garbled tail that were truncated away (0 for a
    /// clean journal).
    pub truncated_bytes: u64,
}

/// A fingerprint over the parts of a run's configuration that must
/// match for results to be interchangeable. Parts are length-prefixed
/// before hashing so distinct part lists cannot collide by
/// concatenation.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.len().to_le_bytes().iter().chain(part.as_bytes()) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The write-ahead journal. Appends are internally locked, so workers
/// on multiple threads can share one `&Journal`.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Create a fresh journal at `path` (truncating any existing file)
    /// bound to `fingerprint`. The header is committed with the same
    /// atomic write discipline as recovery rewrites.
    pub fn create(path: impl Into<PathBuf>, fingerprint: &str) -> Result<Journal, JournalError> {
        let path = path.into();
        let header = format!("{MAGIC} {fingerprint}\n");
        atomic_write(&path, header.as_bytes())?;
        Journal::open_append(path)
    }

    /// Open `path` for resumption, creating it when absent:
    /// checksums are verified, a torn tail is truncated away (via an
    /// atomic rewrite of the intact prefix), and the header fingerprint
    /// is required to match.
    ///
    /// # Errors
    ///
    /// [`JournalError::FingerprintMismatch`] when the journal belongs
    /// to a different run configuration; [`JournalError::Io`] on
    /// filesystem failures.
    pub fn open_or_create(
        path: impl Into<PathBuf>,
        fingerprint: &str,
    ) -> Result<(Journal, Recovery), JournalError> {
        let path = path.into();
        if !path.exists() {
            return Ok((Journal::create(path, fingerprint)?, Recovery::default()));
        }
        let bytes = fs::read(&path)?;
        let scan = scan(&bytes);
        match &scan.header_fingerprint {
            // An unreadable header means nothing in the file can be
            // trusted; start the journal over (zero intact records).
            None => return Ok((Journal::create(path, fingerprint)?, Recovery::default())),
            Some(found) if found != fingerprint => {
                return Err(JournalError::FingerprintMismatch {
                    expected: fingerprint.to_string(),
                    found: found.clone(),
                })
            }
            Some(_) => {}
        }
        let truncated_bytes = (bytes.len() - scan.intact_len) as u64;
        if truncated_bytes > 0 {
            // Truncate the torn tail atomically: rewrite the intact
            // prefix to a tmp sibling, fsync, rename into place.
            atomic_write(&path, &bytes[..scan.intact_len])?;
        }
        let records = scan
            .records
            .into_iter()
            .map(|json| serde_json::from_str::<JournalRecord>(&json).map_err(JournalError::from))
            .collect::<Result<Vec<_>, _>>()?;
        let journal = Journal::open_append(path)?;
        Ok((journal, Recovery { records, truncated_bytes }))
    }

    fn open_append(path: PathBuf) -> Result<Journal, JournalError> {
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal { path, writer: Mutex::new(BufWriter::new(file)) })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record write-ahead: serialized, checksummed, flushed,
    /// and fsynced before returning, so a completed block survives any
    /// subsequent crash. Explanations take seconds to minutes each, so
    /// the per-record fsync is noise.
    pub fn append(&self, record: &JournalRecord) -> Result<(), JournalError> {
        let json = serde_json::to_string(record)?;
        let line = format!("{:016x} {json}\n", fnv1a64(json.as_bytes()));
        let mut writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
        Ok(())
    }
}

/// What a byte-level scan of a journal file found.
struct Scan {
    /// The header fingerprint, when the header line is intact.
    header_fingerprint: Option<String>,
    /// JSON payloads of the intact records, in order.
    records: Vec<String>,
    /// Length of the intact prefix (header + intact records) in bytes.
    intact_len: usize,
}

/// Walk the file line by line, stopping at the first line that is torn
/// (no trailing newline), garbled (bad shape), or checksum-mismatched.
/// Everything before that point is the recoverable prefix.
fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut header_fingerprint = None;
    let mut offset = 0;
    let mut first = true;
    while offset < bytes.len() {
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // torn tail: line never finished
        };
        let line = &bytes[offset..offset + nl];
        if first {
            match parse_header(line) {
                Some(fp) => header_fingerprint = Some(fp),
                None => break,
            }
            first = false;
        } else {
            match parse_record_line(line) {
                Some(json) => records.push(json),
                None => break,
            }
        }
        offset += nl + 1;
    }
    Scan { header_fingerprint, records, intact_len: offset }
}

/// Parse `COMETJ1 <fingerprint>`.
fn parse_header(line: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(line).ok()?;
    let rest = text.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    (!rest.is_empty() && rest.chars().all(|c| c.is_ascii_hexdigit())).then(|| rest.to_string())
}

/// Parse and verify `<16-hex-digit checksum> <json>`; returns the JSON
/// payload only when the checksum matches the payload bytes exactly.
fn parse_record_line(line: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(line).ok()?;
    let (checksum, json) = text.split_once(' ')?;
    let expected = u64::from_str_radix(checksum, 16).ok()?;
    (checksum.len() == 16 && fnv1a64(json.as_bytes()) == expected).then(|| json.to_string())
}

/// `*.tmp` sibling + write + fsync + rename + parent-dir fsync: the
/// destination is never observable in a torn state. Public because the
/// precomputed explanation store (`comet-store`) publishes its columnar
/// files with the same discipline.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
            if let Ok(handle) = File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_core::FeatureSet;

    fn record(index: usize) -> JournalRecord {
        JournalRecord {
            index,
            block: format!("add rcx, rax ; block {index}"),
            seed: 7,
            explanation: Explanation {
                features: FeatureSet::new(),
                precision: 0.25 * index as f64,
                coverage: 0.5,
                prediction: 2.0 + index as f64,
                anchored: true,
                queries: 10 * index as u64,
                faults: 0,
                retries: 0,
                degraded: false,
                duration_secs: 0.0,
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("comet-journal-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn append_and_recover_round_trips() {
        let path = temp_path("roundtrip");
        let fp = fingerprint(&["model", "config"]);
        {
            let journal = Journal::create(&path, &fp).unwrap();
            for i in 0..5 {
                journal.append(&record(i)).unwrap();
            }
        }
        let (_journal, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 5);
        for (i, rec) in recovery.records.iter().enumerate() {
            assert_eq!(*rec, record(i));
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_appends_after_recovered_prefix() {
        let path = temp_path("resume-append");
        let fp = fingerprint(&["x"]);
        {
            let journal = Journal::create(&path, &fp).unwrap();
            journal.append(&record(0)).unwrap();
        }
        {
            let (journal, recovery) = Journal::open_or_create(&path, &fp).unwrap();
            assert_eq!(recovery.records.len(), 1);
            journal.append(&record(1)).unwrap();
        }
        let (_j, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.records[1], record(1));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_intact_prefix() {
        let path = temp_path("torn");
        let fp = fingerprint(&["x"]);
        {
            let journal = Journal::create(&path, &fp).unwrap();
            for i in 0..3 {
                journal.append(&record(i)).unwrap();
            }
        }
        // Simulate a crash mid-append: chop the last record in half.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let (_j, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(recovery.records.len(), 2);
        assert!(recovery.truncated_bytes > 0);
        // The rewrite is durable: a second recovery sees a clean file.
        let (_j2, again) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.truncated_bytes, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bitflip_in_a_record_stops_recovery_at_the_flip() {
        let path = temp_path("bitflip");
        let fp = fingerprint(&["x"]);
        {
            let journal = Journal::create(&path, &fp).unwrap();
            for i in 0..4 {
                journal.append(&record(i)).unwrap();
            }
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside record 2's JSON payload (not its newline).
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let target = line_starts[3] + 30; // header is line 0
        bytes[target] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let (_j, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(recovery.records.len(), 2);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let path = temp_path("mismatch");
        {
            let journal = Journal::create(&path, &fingerprint(&["run-a"])).unwrap();
            journal.append(&record(0)).unwrap();
        }
        match Journal::open_or_create(&path, &fingerprint(&["run-b"])) {
            Err(JournalError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected, fingerprint(&["run-b"]));
                assert_eq!(found, fingerprint(&["run-a"]));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        // The journal was not clobbered by the refusal.
        let (_j, recovery) = Journal::open_or_create(&path, &fingerprint(&["run-a"])).unwrap();
        assert_eq!(recovery.records.len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbled_header_restarts_the_journal() {
        let path = temp_path("garbled-header");
        fs::write(&path, "what even is this file\n").unwrap();
        let fp = fingerprint(&["x"]);
        let (journal, recovery) = Journal::open_or_create(&path, &fp).unwrap();
        assert!(recovery.records.is_empty());
        journal.append(&record(0)).unwrap();
        drop(journal);
        let (_j, again) = Journal::open_or_create(&path, &fp).unwrap();
        assert_eq!(again.records.len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprints_are_order_and_boundary_sensitive() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&["a", "b"]), fingerprint(&["b", "a"]));
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
    }
}
