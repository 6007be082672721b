//! Corpus (de)serialization: save generated, labelled corpora to JSON
//! so expensive generation/labelling runs once.
//!
//! Persistence is hardened for exactly that "runs once" property:
//!
//! * **Atomic saves** — [`save_corpus`] writes to a `*.tmp` sibling,
//!   fsyncs, and renames into place, so a crash (or full disk) mid-save
//!   never corrupts a corpus that took hours to label. The previous
//!   file survives intact until the rename commits the new one.
//! * **Record-level quarantine on load** — [`load_corpus`] validates
//!   every record individually. Malformed or implausible entries (bad
//!   JSON shape, non-finite/non-positive throughputs, empty blocks) are
//!   moved to a `<path>.quarantine.jsonl` sidecar with a warning and
//!   the rest of the corpus still loads, instead of one bad entry
//!   poisoning the whole file. Use [`load_corpus_reporting`] to inspect
//!   what was dropped.

use std::fs::{self, File};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

use crate::corpus::{BhiveBlock, Corpus};

/// Errors from corpus persistence.
#[derive(Debug)]
pub enum CorpusIoError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(serde_json::Error),
    /// The file parses as JSON but is not a corpus (e.g. the top-level
    /// `blocks` array is missing).
    Schema {
        /// What was wrong with the document shape.
        message: String,
    },
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Io(e) => write!(f, "corpus i/o failed: {e}"),
            CorpusIoError::Format(e) => write!(f, "corpus format invalid: {e}"),
            CorpusIoError::Schema { message } => write!(f, "corpus schema invalid: {message}"),
        }
    }
}

impl std::error::Error for CorpusIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusIoError::Io(e) => Some(e),
            CorpusIoError::Format(e) => Some(e),
            CorpusIoError::Schema { .. } => None,
        }
    }
}

impl From<std::io::Error> for CorpusIoError {
    fn from(e: std::io::Error) -> CorpusIoError {
        CorpusIoError::Io(e)
    }
}

impl From<serde_json::Error> for CorpusIoError {
    fn from(e: serde_json::Error) -> CorpusIoError {
        CorpusIoError::Format(e)
    }
}

/// What a lenient corpus load kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusLoadReport {
    /// Records loaded into the corpus.
    pub loaded: usize,
    /// Records quarantined (malformed or failing validation).
    pub quarantined: usize,
    /// Where the quarantined records were written, when any were.
    pub quarantine_path: Option<PathBuf>,
}

/// Write `bytes` to `path` atomically: `*.tmp` sibling + fsync +
/// rename, then a best-effort fsync of the parent directory so the
/// rename itself is durable. On any failure the destination is left
/// untouched (either the old content or absent, never torn).
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the caller's error matters more.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The temporary sibling used by [`atomic_write`] (same directory, so
/// the final rename never crosses a filesystem boundary).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsync the directory containing `path` so a freshly committed rename
/// survives power loss. Best-effort: not every platform/filesystem
/// allows opening a directory, and the data fsync has already happened.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Write a corpus as pretty-printed JSON, atomically (temporary file,
/// fsync, rename): a crash mid-save cannot corrupt an existing corpus
/// file.
///
/// # Errors
///
/// Returns [`CorpusIoError::Io`] on filesystem failures.
pub fn save_corpus(corpus: &Corpus, path: impl AsRef<Path>) -> Result<(), CorpusIoError> {
    let json = serde_json::to_vec_pretty(corpus)?;
    atomic_write(path.as_ref(), &json)?;
    Ok(())
}

/// Load a corpus previously written by [`save_corpus`], quarantining
/// bad records to a `<path>.quarantine.jsonl` sidecar instead of
/// failing the load. Emits a warning on stderr when anything is
/// dropped.
///
/// # Errors
///
/// Returns [`CorpusIoError::Io`] on filesystem failures,
/// [`CorpusIoError::Format`] when the file is not JSON at all, and
/// [`CorpusIoError::Schema`] when the document is JSON but not a
/// corpus.
pub fn load_corpus(path: impl AsRef<Path>) -> Result<Corpus, CorpusIoError> {
    load_corpus_reporting(path).map(|(corpus, _)| corpus)
}

/// [`load_corpus`] plus a [`CorpusLoadReport`] describing what was
/// kept and what was quarantined.
///
/// # Errors
///
/// See [`load_corpus`].
pub fn load_corpus_reporting(
    path: impl AsRef<Path>,
) -> Result<(Corpus, CorpusLoadReport), CorpusIoError> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let value: serde_json::Value = serde_json::from_reader(BufReader::new(file))?;
    let entries = value.get("blocks").and_then(|b| b.as_array()).ok_or_else(|| {
        CorpusIoError::Schema { message: "top-level `blocks` array missing".to_string() }
    })?;

    let mut blocks = Vec::with_capacity(entries.len());
    let mut quarantine: Vec<String> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        match serde_json::from_value::<BhiveBlock>(entry.clone()) {
            Ok(block) => match validate(&block) {
                Ok(()) => blocks.push(block),
                Err(reason) => quarantine.push(quarantine_line(i, &reason, entry)),
            },
            Err(e) => quarantine.push(quarantine_line(i, &e.to_string(), entry)),
        }
    }

    let mut report = CorpusLoadReport {
        loaded: blocks.len(),
        quarantined: quarantine.len(),
        quarantine_path: None,
    };
    if !quarantine.is_empty() {
        let sidecar = quarantine_sibling(path);
        let mut body = quarantine.join("\n");
        body.push('\n');
        atomic_write(&sidecar, body.as_bytes())?;
        eprintln!(
            "warning: quarantined {} of {} corpus records from {} into {} (kept {})",
            report.quarantined,
            entries.len(),
            path.display(),
            sidecar.display(),
            report.loaded,
        );
        report.quarantine_path = Some(sidecar);
    }
    Ok((Corpus::from_blocks(blocks), report))
}

/// The quarantine sidecar path for a corpus file:
/// `corpus.json` → `corpus.json.quarantine.jsonl`.
fn quarantine_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".quarantine.jsonl");
    path.with_file_name(name)
}

/// One quarantine sidecar line: the record index, why it was dropped,
/// and the original JSON so nothing is lost.
fn quarantine_line(index: usize, reason: &str, record: &serde_json::Value) -> String {
    serde_json::json!({ "index": index, "reason": reason, "record": record }).to_string()
}

/// Semantic validation beyond JSON shape: labels must be usable by the
/// experiments downstream.
fn validate(block: &BhiveBlock) -> Result<(), String> {
    if block.block.is_empty() {
        return Err("empty basic block".to_string());
    }
    for (march, value) in [("hsw", block.throughput_hsw), ("skl", block.throughput_skl)] {
        if !value.is_finite() || value <= 0.0 {
            return Err(format!("throughput_{march} is not a positive finite number ({value})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("comet-bhive-io-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let corpus = Corpus::generate(6, GenConfig::default(), 31);
        let dir = temp_dir("roundtrip");
        let path = dir.join("corpus.json");
        save_corpus(&corpus, &path).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(corpus.len(), loaded.len());
        for (a, b) in corpus.iter().zip(loaded.iter()) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.category, b.category);
            assert_eq!(a.throughput_hsw, b.throughput_hsw);
        }
        // The atomic-save temporary never survives a successful write.
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let dir = temp_dir("atomic");
        let path = dir.join("corpus.json");
        let old = Corpus::generate(3, GenConfig::default(), 1);
        let new = Corpus::generate(5, GenConfig::default(), 2);
        save_corpus(&old, &path).unwrap();
        save_corpus(&new, &path).unwrap();
        assert_eq!(load_corpus(&path).unwrap().len(), 5);
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = temp_dir("garbage");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(matches!(load_corpus(&path), Err(CorpusIoError::Format(_))));
        std::fs::write(&path, "{\"not_blocks\": []}").unwrap();
        assert!(matches!(load_corpus(&path), Err(CorpusIoError::Schema { .. })));
        assert!(load_corpus(dir.join("missing.json")).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_records_are_quarantined_not_fatal() {
        let corpus = Corpus::generate(5, GenConfig::default(), 8);
        let dir = temp_dir("quarantine");
        let path = dir.join("corpus.json");
        save_corpus(&corpus, &path).unwrap();

        // Corrupt record 1 (unparseable shape) and record 3 (parses,
        // fails validation: NaN serializes as null → parse failure too,
        // so use a negative throughput for the semantic case).
        let mut value: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let blocks = value.get_mut("blocks").unwrap().as_array_mut().unwrap();
        blocks[1] = serde_json::json!({ "what": "is this" });
        blocks[3]["throughput_hsw"] = serde_json::json!(-2.5);
        std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap()).unwrap();

        let (loaded, report) = load_corpus_reporting(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(report.loaded, 3);
        assert_eq!(report.quarantined, 2);
        let sidecar = report.quarantine_path.unwrap();
        let body = std::fs::read_to_string(&sidecar).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let entry: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(entry.get("reason").is_some());
            assert!(entry.get("record").is_some());
        }
        // The quarantined originals are preserved verbatim.
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["index"], 1);
        assert_eq!(first["record"]["what"], "is this");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&sidecar).unwrap();
    }

    #[test]
    fn healthy_loads_produce_no_sidecar() {
        let corpus = Corpus::generate(4, GenConfig::default(), 9);
        let dir = temp_dir("healthy");
        let path = dir.join("corpus.json");
        save_corpus(&corpus, &path).unwrap();
        let (_, report) = load_corpus_reporting(&path).unwrap();
        assert_eq!(report.quarantined, 0);
        assert!(report.quarantine_path.is_none());
        assert!(!quarantine_sibling(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
