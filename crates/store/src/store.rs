//! Session images and the on-disk store.
//!
//! A [`SessionSnapshot`] is the **image** of one workbench session at a
//! journal watermark `W`: the whole session state after exactly `W`
//! journalled commands, as named segments the capturing host encodes
//! (`iwb_core::persist` writes the blackboard, the manager's trace and
//! each tool's state). Recovery restores the image and replays only
//! the journal records past `W`, so its cost follows the state, not
//! the length of the history. [`crate::snapshot`] handles paging,
//! checksums and the atomic commit.
//!
//! The durability contract is **verify-then-replace**:
//! [`SessionStore::commit`] writes the new image beside the live one,
//! reads it back through every checksum, and only then renames it over
//! the previous image. A commit that fails verification (fault
//! injection may corrupt it in flight) leaves the previous image in
//! place, so the journal prefix a verified image covers may be dropped
//! for good — from disk and from memory.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::fault::FaultPlan;
use crate::snapshot::{self, SnapshotError};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One journalled command, as replayed during recovery: the command
/// line plus an optional heredoc body (schema text for `load`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRecord {
    /// The command line as typed.
    pub command: String,
    /// Heredoc payload, if the command carried one.
    pub heredoc: Option<String>,
}

/// The image of one session at a journal watermark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSnapshot {
    /// Session id (`s1`, `s2`, …).
    pub session_id: String,
    /// Number of journalled mutating commands this image covers.
    /// Recovery replays only the journal records *after* this point.
    pub watermark: u64,
    /// The session state as named segments (everything but `meta`,
    /// which holds the id and watermark).
    pub segments: BTreeMap<String, Vec<u8>>,
}

impl SessionSnapshot {
    /// Reassemble an image from verified segments.
    pub fn from_segments(mut segments: BTreeMap<String, Vec<u8>>) -> Result<Self, CodecError> {
        let meta = segments
            .remove("meta")
            .ok_or(CodecError::Invalid("missing meta segment"))?;
        let mut r = ByteReader::new(&meta);
        let session_id = r.str()?;
        let watermark = r.u64()?;
        Ok(SessionSnapshot {
            session_id,
            watermark,
            segments,
        })
    }

    /// The image as one snapshot file (what [`SessionStore::commit`]
    /// writes and the replication stream ships).
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.str(&self.session_id);
        meta.u64(self.watermark);
        let meta = meta.into_bytes();
        let mut entries: BTreeMap<&str, &[u8]> = self
            .segments
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        entries.insert("meta", &meta);
        snapshot::encode_entries(entries)
    }

    /// Verify and decode a snapshot file image.
    pub fn decode(file: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::from_segments(snapshot::decode(file)?)?)
    }
}

/// Handle on one session's image file inside a store directory.
#[derive(Debug, Clone)]
pub struct SessionStore {
    dir: PathBuf,
    session_id: String,
    /// fsync before rename; tests disable it for speed.
    pub fsync: bool,
}

impl SessionStore {
    /// Create a handle (the directory is created on first commit).
    pub fn new(dir: impl Into<PathBuf>, session_id: impl Into<String>) -> Self {
        SessionStore {
            dir: dir.into(),
            session_id: session_id.into(),
            fsync: true,
        }
    }

    /// Path of this session's image file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.snap", self.session_id))
    }

    /// Write the image, read it back through full verification, and
    /// only then rename it over the previous image. Fault injection
    /// (`snapshot-torn` / `snapshot-bitflip` / `snapshot-stale`)
    /// corrupts the written file; the read-back catches it, the commit
    /// fails with [`io::ErrorKind::InvalidData`] (carrying the
    /// [`SnapshotError`]) and the previous image stays in place.
    pub fn commit(&self, snapshot: &SessionSnapshot, faults: &FaultPlan) -> io::Result<()> {
        self.install(&snapshot.encode(), snapshot.watermark, faults)
    }

    /// [`Self::commit`] for an already encoded image — the bytes a
    /// replication sink receives. The read-back must show this session
    /// at `watermark`.
    pub fn install(&self, image: &[u8], watermark: u64, faults: &FaultPlan) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        snapshot::write_verified(&self.path(), image, self.fsync, faults, |segments| {
            match peek_meta(segments)? {
                (id, w) if id == self.session_id && w == watermark => Ok(()),
                _ => Err(CodecError::Invalid("image names another session or watermark").into()),
            }
        })
        .map_err(into_io)
    }

    /// Load and fully verify this session's image. `Ok(None)` means no
    /// image exists (a fresh or journal-only session).
    pub fn load(&self) -> Result<Option<SessionSnapshot>, SnapshotError> {
        self.read()?
            .map(|file| SessionSnapshot::decode(&file))
            .transpose()
    }

    /// The verified image file and its watermark, for shipping the
    /// image to a replication successor.
    pub fn load_bytes(&self) -> Result<Option<(u64, Vec<u8>)>, SnapshotError> {
        match self.read()? {
            None => Ok(None),
            Some(file) => Ok(Some((peek_meta(&snapshot::verify(&file)?)?.1, file))),
        }
    }

    fn read(&self) -> Result<Option<Vec<u8>>, SnapshotError> {
        match std::fs::read(self.path()) {
            Ok(file) => Ok(Some(file)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Move this image to `to` (a promoted replica's image becomes the
    /// new owner's): a rename, so the verified bytes are not rewritten.
    /// Where the rename fails — the two directories lie on different
    /// filesystems — the image is installed in `to` as a verified copy
    /// ([`Self::install`]) and only then removed here.
    pub fn move_to(&self, to: &SessionStore) -> io::Result<()> {
        std::fs::create_dir_all(&to.dir)?;
        if std::fs::rename(self.path(), to.path()).is_err() {
            self.copy_to(to)?;
            self.discard()?;
        }
        Ok(())
    }

    /// Install a verified copy of this image in `to`.
    fn copy_to(&self, to: &SessionStore) -> io::Result<()> {
        let (watermark, image) = self
            .load_bytes()
            .map_err(into_io)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no image to move"))?;
        to.install(&image, watermark, &FaultPlan::none())
    }

    /// Delete this session's image, if present (session close).
    pub fn discard(&self) -> io::Result<()> {
        let path = self.path();
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Session ids with an image file in `dir`, sorted.
    pub fn scan_dir(dir: &Path) -> Vec<String> {
        let mut ids = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".snap")) {
                    ids.push(id.to_string());
                }
            }
        }
        ids.sort();
        ids
    }
}

/// The session id and watermark in a verified segment map's `meta`
/// (no segment is copied).
fn peek_meta(segments: &BTreeMap<String, &[u8]>) -> Result<(String, u64), SnapshotError> {
    let meta = segments
        .get("meta")
        .ok_or(CodecError::Invalid("missing meta segment"))?;
    let mut r = ByteReader::new(meta);
    Ok((r.str()?, r.u64()?))
}

/// A verification failure as an I/O error of kind `InvalidData` (an
/// I/O failure stays itself).
fn into_io(e: SnapshotError) -> io::Error {
    match e {
        SnapshotError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSpec, SNAPSHOT_TORN};

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iwb-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_snapshot(watermark: u64) -> SessionSnapshot {
        let mut segments = BTreeMap::new();
        segments.insert("blackboard".to_string(), vec![7u8; 5000]);
        segments.insert("tool:harmony".to_string(), vec![1, 2, 3]);
        SessionSnapshot {
            session_id: "s1".to_string(),
            watermark,
            segments,
        }
    }

    #[test]
    fn snapshot_round_trips_through_segments() {
        let snap = sample_snapshot(3);
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn store_commit_load_discard_cycle() {
        let dir = tmpdir("cycle");
        let mut store = SessionStore::new(&dir, "s1");
        store.fsync = false;
        assert!(store.load().unwrap().is_none());
        store
            .commit(&sample_snapshot(3), &FaultPlan::none())
            .unwrap();
        let loaded = store.load().unwrap().expect("snapshot present");
        assert_eq!(loaded.watermark, 3);
        store.discard().unwrap();
        assert!(store.load().unwrap().is_none());
        store.discard().unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_commit_that_fails_verification_keeps_the_previous_image() {
        let dir = tmpdir("replace");
        let mut store = SessionStore::new(&dir, "s1");
        store.fsync = false;
        let torn = FaultSpec::seeded(1).at(SNAPSHOT_TORN, &[1]).build();
        store.commit(&sample_snapshot(3), &torn).unwrap();
        let err = store.commit(&sample_snapshot(9), &torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(store.load().unwrap().unwrap().watermark, 3);
        store.commit(&sample_snapshot(9), &torn).unwrap();
        assert_eq!(store.load().unwrap().unwrap().watermark, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_refuses_an_image_of_another_session() {
        let dir = tmpdir("install");
        let mut store = SessionStore::new(&dir, "s2");
        store.fsync = false;
        let err = store
            .install(&sample_snapshot(3).encode(), 3, &FaultPlan::none())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(store.load().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_move_renames_or_falls_back_to_a_verified_copy() {
        let (from_dir, to_dir) = (tmpdir("move-from"), tmpdir("move-to"));
        let mut from = SessionStore::new(&from_dir, "s1");
        from.fsync = false;
        let mut to = SessionStore::new(&to_dir, "s1");
        to.fsync = false;
        let none = FaultPlan::none();
        from.commit(&sample_snapshot(3), &none).unwrap();
        from.move_to(&to).unwrap();
        assert!(!from.path().exists());
        assert_eq!(to.load().unwrap().unwrap().watermark, 3);
        // The copy a failed rename falls back to reads the source through
        // its checksums: a corrupt source never replaces `to`'s image.
        from.commit(&sample_snapshot(5), &none).unwrap();
        from.copy_to(&to).unwrap();
        assert_eq!(to.load().unwrap().unwrap().watermark, 5);
        from.commit(&sample_snapshot(7), &none).unwrap();
        let mut bytes = std::fs::read(from.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(from.path(), &bytes).unwrap();
        assert!(from.copy_to(&to).is_err());
        assert_eq!(to.load().unwrap().unwrap().watermark, 5);
        // Nothing to move is an error, not an empty image.
        from.discard().unwrap();
        let err = from.move_to(&to).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(to.load().unwrap().unwrap().watermark, 5);
        std::fs::remove_dir_all(&from_dir).ok();
        std::fs::remove_dir_all(&to_dir).ok();
    }

    #[test]
    fn scan_dir_lists_snapshots() {
        let dir = tmpdir("scan");
        for id in ["s2", "s1"] {
            let mut store = SessionStore::new(&dir, id);
            store.fsync = false;
            let mut snap = sample_snapshot(1);
            snap.session_id = id.to_string();
            store.commit(&snap, &FaultPlan::none()).unwrap();
        }
        assert_eq!(SessionStore::scan_dir(&dir), vec!["s1", "s2"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn equal_snapshots_encode_identically() {
        assert_eq!(sample_snapshot(4).encode(), sample_snapshot(4).encode());
    }
}
