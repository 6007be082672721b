//! A versioned, crash-safe on-disk model registry.
//!
//! The registry is a flat directory of immutable, checksummed model
//! snapshots plus a `MANIFEST` naming the last-known-good version:
//!
//! ```text
//! registry/
//!   MANIFEST           COMETR1 <fnv-1a-16hex> {"v":1,"active":3}
//!   v000001.snap       COMETM1 <fnv-1a-16hex> {"v":1,"version":1,...}
//!   v000002.snap
//!   v000003.snap
//!   v000002.snap.quarantine   (a snapshot that failed verification)
//! ```
//!
//! Every write follows the eval journal's durability discipline —
//! write to a `.tmp` sibling, `fsync` the file, `rename` into place,
//! `fsync` the parent directory — so a crash (or `kill -9`) at any
//! instant leaves either the old file or the new file, never a torn
//! one. Each file carries a 64-bit FNV-1a checksum of its payload in
//! the header; [`ModelRegistry::open`] verifies every snapshot and
//! **quarantines** (renames aside, never deletes) anything torn or
//! corrupt, then resolves the active version from the `MANIFEST` —
//! falling back to the newest intact snapshot (and rewriting the
//! `MANIFEST`) when the manifest itself is missing, corrupt, or
//! dangling. Staging a candidate ([`stage`](ModelRegistry::stage))
//! only adds a snapshot file; the `MANIFEST` moves only on
//! [`promote`](ModelRegistry::promote), which the serving layer calls
//! *after* a candidate survives shadow validation and its probation
//! window — so the manifest always names a version that actually
//! served traffic, and recovery after a mid-swap crash lands on the
//! last-known-good model.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Snapshot / manifest record schema version.
const RECORD_V: u32 = 1;
/// Header magic for snapshot files.
const SNAP_MAGIC: &str = "COMETM1";
/// Header magic for the manifest.
const MANIFEST_MAGIC: &str = "COMETR1";
/// The manifest file name.
const MANIFEST: &str = "MANIFEST";

/// 64-bit FNV-1a: the one byte hash of the workspace. Registry
/// records, eval-journal lines and store sections use it as a
/// checksum, the store and the serving fleet's ring as a key. Stable by
/// construction (the constants are the spec), so files written and
/// routers built by older versions still agree.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Atomic, durable file replacement: tmp sibling → write → fsync →
/// rename → fsync parent. Mirrors the eval journal's `atomic_write`
/// (comet-eval sits downstream of this crate, so the helper lives here
/// too).
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
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

/// One immutable model snapshot: what `vNNNNNN.snap` holds.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ModelSnapshot {
    /// Record schema version.
    pub v: u32,
    /// Registry-assigned monotonic version.
    pub version: u64,
    /// Model kind, e.g. `"crude-skylake"` — how to rebuild the model.
    pub kind: String,
    /// Free-form operator note (who staged it, why).
    pub note: String,
    /// Opaque model payload (e.g. serialized network weights); empty
    /// for analytical models rebuilt from `kind` alone.
    pub payload: String,
}

impl ModelSnapshot {
    /// FNV-1a fingerprint of the payload (weights identity).
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.payload.as_bytes())
    }
}

/// Catalog entry for one intact snapshot on disk.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Registry version.
    pub version: u64,
    /// Model kind.
    pub kind: String,
    /// Operator note.
    pub note: String,
    /// Payload fingerprint, `{:016x}`.
    pub fingerprint: String,
}

/// What [`ModelRegistry::open`] had to repair, for surfacing to
/// operators (admin endpoint, chaos harness).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegistryRecovery {
    /// File names renamed to `*.quarantine` (torn or corrupt).
    pub quarantined: Vec<String>,
    /// The manifest was missing, corrupt, or named a missing snapshot
    /// and was rebuilt to point at the newest intact version.
    pub manifest_recovered: bool,
    /// Stray `*.tmp` files (interrupted writes) removed.
    pub removed_tmp: usize,
}

/// Manifest payload: which version is last-known-good.
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    v: u32,
    active: u64,
}

#[derive(Debug, Default)]
struct RegState {
    versions: BTreeMap<u64, SnapshotInfo>,
    active: Option<u64>,
}

/// The registry handle. All methods take `&self`; internal state is
/// mutex-guarded so the serving layer can share one handle across
/// admin requests.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
    state: Mutex<RegState>,
}

/// `v000042.snap` for version 42.
fn snap_name(version: u64) -> String {
    format!("v{version:06}.snap")
}

/// Serialize a record line: `MAGIC <fnv16hex> <json>\n`, checksum over
/// the JSON bytes.
fn encode_record(magic: &str, json: &str) -> String {
    format!("{magic} {:016x} {json}\n", fnv1a64(json.as_bytes()))
}

/// Parse and verify a record line; `None` on any damage (wrong magic,
/// bad checksum, truncation, missing trailing newline).
fn decode_record<'a>(magic: &str, text: &'a str) -> Option<&'a str> {
    let line = text.strip_suffix('\n')?;
    let rest = line.strip_prefix(magic)?.strip_prefix(' ')?;
    let (sum_hex, json) = rest.split_once(' ')?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    (sum == fnv1a64(json.as_bytes())).then_some(json)
}

impl ModelRegistry {
    /// Open (creating if needed) the registry at `dir`: verify every
    /// snapshot, quarantine damage, remove stray tmp files, and
    /// resolve the active version (rebuilding the manifest when it is
    /// missing, corrupt, or dangling).
    pub fn open(dir: &Path) -> io::Result<(ModelRegistry, RegistryRecovery)> {
        fs::create_dir_all(dir)?;
        let mut recovery = RegistryRecovery::default();
        let mut state = RegState::default();

        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                if fs::remove_file(entry.path()).is_ok() {
                    recovery.removed_tmp += 1;
                }
                continue;
            }
            if !(name.starts_with('v') && name.ends_with(".snap")) {
                continue;
            }
            match read_snapshot(&entry.path()) {
                Ok(snapshot) if snap_name(snapshot.version) == name => {
                    state.versions.insert(
                        snapshot.version,
                        SnapshotInfo {
                            version: snapshot.version,
                            kind: snapshot.kind,
                            note: snapshot.note,
                            fingerprint: format!("{:016x}", fnv1a64(snapshot.payload.as_bytes())),
                        },
                    );
                }
                // Damaged, or its recorded version disagrees with its
                // file name: set it aside for forensics, never serve it.
                _ => {
                    let _ =
                        fs::rename(entry.path(), entry.path().with_extension("snap.quarantine"));
                    recovery.quarantined.push(name);
                }
            }
        }

        let manifest_path = dir.join(MANIFEST);
        let manifest_active = fs::read_to_string(&manifest_path).ok().and_then(|text| {
            let json = decode_record(MANIFEST_MAGIC, &text)?;
            serde_json::from_str::<Manifest>(json).ok().map(|m| m.active)
        });
        match manifest_active {
            Some(active) if state.versions.contains_key(&active) => {
                state.active = Some(active);
            }
            other => {
                // Missing/corrupt/dangling manifest: newest intact
                // snapshot becomes last-known-good.
                state.active = state.versions.keys().next_back().copied();
                if let Some(active) = state.active {
                    let json = serde_json::to_string(&Manifest { v: RECORD_V, active })
                        .map_err(io::Error::other)?;
                    atomic_write(&manifest_path, encode_record(MANIFEST_MAGIC, &json).as_bytes())?;
                    recovery.manifest_recovered = true;
                } else if other.is_some() || manifest_path.exists() {
                    // A manifest with nothing intact to point at.
                    let _ = fs::rename(&manifest_path, dir.join("MANIFEST.quarantine"));
                    recovery.manifest_recovered = true;
                }
            }
        }

        Ok((ModelRegistry { dir: dir.to_path_buf(), state: Mutex::new(state) }, recovery))
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably write a new snapshot under the next version number.
    /// The manifest (and thus the active version) is untouched: a
    /// crash after `stage` recovers to the previously active model.
    pub fn stage(&self, kind: &str, note: &str, payload: &str) -> io::Result<ModelSnapshot> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let version = state.versions.keys().next_back().copied().unwrap_or(0) + 1;
        let snapshot = ModelSnapshot {
            v: RECORD_V,
            version,
            kind: kind.to_string(),
            note: note.to_string(),
            payload: payload.to_string(),
        };
        let json = serde_json::to_string(&snapshot).map_err(io::Error::other)?;
        atomic_write(
            &self.dir.join(snap_name(version)),
            encode_record(SNAP_MAGIC, &json).as_bytes(),
        )?;
        state.versions.insert(
            version,
            SnapshotInfo {
                version,
                kind: snapshot.kind.clone(),
                note: snapshot.note.clone(),
                fingerprint: format!("{:016x}", snapshot.fingerprint()),
            },
        );
        Ok(snapshot)
    }

    /// Point the manifest at `version` (which must be an intact staged
    /// snapshot), durably marking it last-known-good.
    pub fn promote(&self, version: u64) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if !state.versions.contains_key(&version) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("registry has no intact snapshot v{version}"),
            ));
        }
        let json = serde_json::to_string(&Manifest { v: RECORD_V, active: version })
            .map_err(io::Error::other)?;
        atomic_write(&self.dir.join(MANIFEST), encode_record(MANIFEST_MAGIC, &json).as_bytes())?;
        state.active = Some(version);
        Ok(())
    }

    /// The last-known-good version per the manifest, if any.
    pub fn active(&self) -> Option<u64> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).active
    }

    /// Catalog of intact snapshots, ascending by version.
    pub fn versions(&self) -> Vec<SnapshotInfo> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).versions.values().cloned().collect()
    }

    /// Re-read and re-verify snapshot `version` from disk. Damage
    /// found now (e.g. corruption after open) quarantines the file and
    /// drops it from the catalog.
    pub fn load(&self, version: u64) -> io::Result<ModelSnapshot> {
        let path = self.dir.join(snap_name(version));
        match read_snapshot(&path) {
            Ok(snapshot) if snapshot.version == version => Ok(snapshot),
            Ok(_) | Err(_) => {
                let _ = fs::rename(&path, path.with_extension("snap.quarantine"));
                let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
                state.versions.remove(&version);
                if state.active == Some(version) {
                    state.active = None;
                }
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("snapshot v{version} failed verification and was quarantined"),
                ))
            }
        }
    }

    /// Load the active snapshot, if the manifest names one.
    pub fn load_active(&self) -> io::Result<Option<ModelSnapshot>> {
        match self.active() {
            Some(version) => self.load(version).map(Some),
            None => Ok(None),
        }
    }
}

/// Read + verify one snapshot file.
fn read_snapshot(path: &Path) -> io::Result<ModelSnapshot> {
    let text = fs::read_to_string(path)?;
    let json = decode_record(SNAP_MAGIC, &text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "torn or corrupt snapshot"))?;
    serde_json::from_str(json)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Fresh per-test scratch directory (no tempfile crate in-tree).
    fn scratch(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "comet-registry-{tag}-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stage_promote_reopen_round_trip() {
        let dir = scratch("roundtrip");
        let (registry, recovery) = ModelRegistry::open(&dir).unwrap();
        assert!(recovery.quarantined.is_empty() && !recovery.manifest_recovered);
        assert_eq!(registry.active(), None);

        let first = registry.stage("crude-haswell", "boot", "").unwrap();
        assert_eq!(first.version, 1);
        // Staged but not promoted: recovery would not serve it yet.
        assert_eq!(registry.active(), None);
        registry.promote(1).unwrap();
        let second = registry.stage("crude-skylake", "candidate", "payload-bytes").unwrap();
        assert_eq!(second.version, 2);
        assert_eq!(registry.active(), Some(1), "staging must not move the manifest");
        registry.promote(2).unwrap();

        let (reopened, recovery) = ModelRegistry::open(&dir).unwrap();
        assert!(recovery.quarantined.is_empty() && !recovery.manifest_recovered);
        assert_eq!(reopened.active(), Some(2));
        let snapshot = reopened.load_active().unwrap().unwrap();
        assert_eq!(snapshot, second);
        assert_eq!(reopened.versions().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_rejects_unknown_versions() {
        let dir = scratch("promote-unknown");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        assert!(registry.promote(7).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_is_quarantined_and_skipped() {
        let dir = scratch("torn");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        registry.stage("crude-haswell", "", "").unwrap();
        registry.promote(1).unwrap();
        registry.stage("crude-skylake", "", "").unwrap();
        registry.promote(2).unwrap();
        // Tear v2: truncate mid-record, as a crash mid-write would
        // without the tmp+rename discipline.
        let v2 = dir.join(snap_name(2));
        let bytes = fs::read(&v2).unwrap();
        fs::write(&v2, &bytes[..bytes.len() / 2]).unwrap();

        let (reopened, recovery) = ModelRegistry::open(&dir).unwrap();
        assert_eq!(recovery.quarantined, vec![snap_name(2)]);
        assert!(recovery.manifest_recovered, "manifest pointed at the torn snapshot");
        assert_eq!(reopened.active(), Some(1), "fell back to the newest intact version");
        assert!(dir.join("v000002.snap.quarantine").exists(), "damage kept for forensics");
        assert!(!v2.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_newest_intact() {
        let dir = scratch("manifest");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        registry.stage("crude-haswell", "", "").unwrap();
        registry.stage("crude-skylake", "", "").unwrap();
        registry.promote(1).unwrap();
        fs::write(dir.join(MANIFEST), b"COMETR1 0000000000000000 {garbage").unwrap();

        let (reopened, recovery) = ModelRegistry::open(&dir).unwrap();
        assert!(recovery.manifest_recovered);
        assert_eq!(reopened.active(), Some(2));
        // The rebuilt manifest is durable: a plain reopen agrees.
        let (again, recovery) = ModelRegistry::open(&dir).unwrap();
        assert!(!recovery.manifest_recovered);
        assert_eq!(again.active(), Some(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_removed() {
        let dir = scratch("tmp");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        registry.stage("crude-haswell", "", "").unwrap();
        fs::write(dir.join("v000009.snap.tmp"), b"half-written").unwrap();
        let (_, recovery) = ModelRegistry::open(&dir).unwrap();
        assert_eq!(recovery.removed_tmp, 1);
        assert!(!dir.join("v000009.snap.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_quarantines_corruption_found_after_open() {
        let dir = scratch("late-corruption");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        registry.stage("crude-haswell", "", "").unwrap();
        registry.promote(1).unwrap();
        // Bit-rot after open: flip a payload byte, keeping the length.
        let path = dir.join(snap_name(1));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(registry.load(1).is_err());
        assert!(registry.versions().is_empty());
        assert_eq!(registry.active(), None);
        assert!(dir.join("v000001.snap.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Neural weights survive the registry: a seeded regressor's
    /// serialized parameters round-trip bitwise through stage → reopen
    /// → load, and the fingerprint pins their identity.
    #[test]
    fn neural_weights_round_trip_bitwise() {
        use comet_nn::HierarchicalRegressor;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(7);
        let model = HierarchicalRegressor::new(32, 8, 8, &mut rng);
        let payload = serde_json::to_string(&model).unwrap();

        let dir = scratch("neural");
        let (registry, _) = ModelRegistry::open(&dir).unwrap();
        let staged = registry.stage("ithemal", "trained weights", &payload).unwrap();
        registry.promote(staged.version).unwrap();

        let (reopened, _) = ModelRegistry::open(&dir).unwrap();
        let snapshot = reopened.load_active().unwrap().unwrap();
        assert_eq!(snapshot.payload, payload, "payload bytes round-trip exactly");
        assert_eq!(snapshot.fingerprint(), staged.fingerprint());
        let restored: HierarchicalRegressor = serde_json::from_str(&snapshot.payload).unwrap();
        assert_eq!(
            restored.weights_fingerprint(),
            model.weights_fingerprint(),
            "restored weights are bitwise-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
