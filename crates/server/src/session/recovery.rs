//! Persistence and recovery: sessions as images plus a journal suffix.
//!
//! A session's image (see [`iwb_core::persist`]) is its whole state at
//! a journal watermark `W`. Images are captured under the shell lock
//! every `snapshot_every` journaled commands, on eviction, release and
//! graceful shutdown, and committed one at a time per session: the new image
//! replaces the previous one only after it reads back intact, then the
//! journal drops the records below `W` (from memory and disk) and the
//! image ships to the session's replication successor.
//!
//! Startup recovery, promotion from local evidence and promotion from a
//! replica take one path: pair an image (if any) with the journal
//! records past it ([`History::pair`]), restore the image, replay the
//! suffix, and re-arm the journal at the image's watermark
//! ([`SessionRegistry::rebuild_session`]). Evidence that cannot prove a
//! complete history — a journal truncated past every image that can be
//! found — is refused, never rebuilt wrong.

use super::{recover, Session, SessionRegistry};
use crate::journal::{Journal, JournalConfig, JournalRecord};
use crate::repl::Replicator;
use crate::stats::{Counter, Counters, ServerCounter, ServerStats};
use iwb_core::persist;
use iwb_core::shell::Shell;
use iwb_pool::BackgroundWorker;
use iwb_store::fault::FaultPlan;
use iwb_store::{SessionSnapshot, SessionStore};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the on-disk image store (`workbenchd --store`).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `<session>.snap` image files (usually the
    /// journal directory, so one `--store DIR` names both).
    pub dir: PathBuf,
    /// fsync image files before renaming them into place.
    pub fsync: bool,
    /// Capture an image every N journaled commands (0: only on
    /// eviction, release and graceful shutdown).
    pub snapshot_every: u64,
}

impl StoreConfig {
    /// A store under `dir` with durable defaults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: true,
            snapshot_every: 64,
        }
    }
}

/// The image lifecycle's counters.
#[derive(Debug, Clone, Copy)]
pub enum StoreCounter {
    /// Images committed (written, read back intact, renamed in place).
    Committed,
    /// Image commits that failed verification (torn, bit-flipped,
    /// stale, or an I/O error); the previous image stayed in place.
    VerifyFailed,
    /// Journal truncations performed after a committed image.
    Truncated,
}

impl Counter<3> for StoreCounter {
    const TABLE: [(Self, &'static str, &'static str); 3] = [
        (StoreCounter::Committed, "store", "snapshots_committed"),
        (StoreCounter::VerifyFailed, "store", "snapshots_failed"),
        (StoreCounter::Truncated, "store", "journals_truncated"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Image-lifecycle counters, shared by every session of a registry.
pub type StoreStats = Counters<StoreCounter, 3>;

/// Where one session's images go: the shared worker background
/// commits run on, the cadence, and the commits themselves.
pub(crate) struct Images {
    worker: Arc<BackgroundWorker>,
    pub(super) every: u64,
    commits: Arc<Commits>,
}

impl Images {
    /// The session's image file.
    pub(crate) fn store(&self) -> &SessionStore {
        &self.commits.store
    }

    /// Put a promoted standby's verified image (`from`, at `watermark`)
    /// in place as this session's, in turn with the session's commits:
    /// an image committed meanwhile is newer and stays. `false` when the
    /// image could not be moved; then no image counts as committed, so
    /// the next capture commits whatever its watermark.
    pub(crate) fn adopt(&self, from: &SessionStore, watermark: u64) -> bool {
        let mut committed = recover(self.commits.committed.lock());
        if *committed > watermark {
            return true;
        }
        let moved = from.move_to(&self.commits.store).is_ok();
        *committed = if moved { watermark } else { 0 };
        moved
    }
}

/// A session's image file and its commits, which run one at a time and
/// never replace an image with an older one. Kept apart from the
/// worker: a queued commit must not own the worker it runs on.
struct Commits {
    store: SessionStore,
    stats: Arc<StoreStats>,
    /// Watermark of the image in place (0: none), under the lock that
    /// serializes this session's commits.
    committed: Mutex<u64>,
}

impl Commits {
    /// Commit `image` (write, read back, rename); on success drop the
    /// journal prefix it covers and ship it to the successor. An image
    /// no newer than the one in place is skipped. `true` when an image
    /// at least as new as `image` is in place.
    fn commit(
        &self,
        image: &SessionSnapshot,
        faults: &FaultPlan,
        journal: &Mutex<Option<Journal>>,
        repl: Option<&Replicator>,
    ) -> bool {
        let mut committed = recover(self.committed.lock());
        if image.watermark <= *committed {
            return true;
        }
        let bytes = image.encode();
        if self.store.install(&bytes, image.watermark, faults).is_err() {
            self.stats.add(StoreCounter::VerifyFailed, 1);
            return false;
        }
        *committed = image.watermark;
        self.stats.add(StoreCounter::Committed, 1);
        if let Some(journal) = recover(journal.lock()).as_mut() {
            if journal.truncate_to(image.watermark).is_ok() {
                self.stats.add(StoreCounter::Truncated, 1);
            }
        }
        if let Some(repl) = repl {
            repl.ship_image(&image.session_id, journal, (image.watermark, &bytes));
        }
        true
    }
}

impl Session {
    /// Capture the session's image at `watermark`. Call holding the
    /// shell lock with the journal at `watermark` records.
    pub(super) fn capture_image(&self, shell: &Shell, watermark: u64) -> SessionSnapshot {
        persist::capture(shell).into_snapshot(self.id.clone(), watermark, Vec::new())
    }

    /// Commit a captured image on the registry's background worker.
    pub(super) fn schedule_image(&self, image: SessionSnapshot, faults: &FaultPlan) {
        let Some(images) = &self.images else { return };
        let commits = Arc::clone(&images.commits);
        let faults = faults.clone();
        let journal = Arc::clone(&self.journal);
        let repl = self.repl.clone();
        images.worker.submit(move || {
            commits.commit(&image, &faults, &journal, repl.as_deref());
        });
    }

    /// Capture and commit an image synchronously (eviction, release,
    /// shutdown, promotion); `true` when an image of the session as it
    /// stands is in place.
    pub(super) fn flush_image(&self) -> bool {
        let Some(images) = &self.images else {
            return false;
        };
        let image = {
            let shell = recover(self.shell.lock());
            let Some(watermark) = recover(self.journal.lock())
                .as_ref()
                .map(|j| j.len() as u64)
            else {
                return false;
            };
            self.capture_image(&shell, watermark)
        };
        images.commits.commit(
            &image,
            &FaultPlan::none(),
            &self.journal,
            self.repl.as_deref(),
        )
    }

    /// Delete the session's image file, if any (deliberate close).
    pub(super) fn discard_image(&self) {
        if let Some(images) = &self.images {
            let _ = images.store().discard();
        }
    }
}

/// What `SessionRegistry::recover` (or a promotion) found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions rebuilt.
    pub sessions: usize,
    /// Journal records replayed across all rebuilt sessions (only the
    /// suffix past each image).
    pub replayed: usize,
    /// Journals whose torn/corrupt tail was dropped and healed.
    pub torn_tails: usize,
    /// Sessions skipped (unreadable journal, bad header, incomplete
    /// history, an image that does not restore, duplicate id, or over
    /// the session cap).
    pub skipped: usize,
    /// Replayed commands that errored (should be zero: they succeeded
    /// before the crash).
    pub replay_errors: usize,
    /// Sessions restored from an image.
    pub images: usize,
    /// Images that failed verification (torn, bit-flipped, stale
    /// version) and were bypassed — recoverable only when the journal
    /// still holds the whole history.
    pub snapshot_fallbacks: usize,
}

/// A session's recoverable history: an image (if any) and the journal
/// records past it.
pub(crate) struct History {
    /// The image the history starts from.
    pub(crate) image: Option<SessionSnapshot>,
    /// Watermark of the image (0 without one): the logical index of
    /// `suffix[0]`.
    pub(crate) base: u64,
    /// The records past the image.
    pub(crate) suffix: Vec<JournalRecord>,
}

impl History {
    /// Pair an image (if any) with journal records starting at logical
    /// index `base`. `Err` when the pair cannot prove a complete
    /// history: the journal starts after the image (a newer image
    /// justified that truncation and is gone) or is truncated with no
    /// image at all. A journal that ends before the image (a replica
    /// that received an image ahead of its records) contributes nothing.
    pub(crate) fn pair(
        image: Option<SessionSnapshot>,
        base: u64,
        records: Vec<JournalRecord>,
    ) -> Result<History, String> {
        let watermark = image.as_ref().map_or(0, |img| img.watermark);
        if watermark < base {
            return Err(match image {
                Some(_) => format!(
                    "image watermark {watermark} behind journal base {base}: history incomplete"
                ),
                None => format!("journal truncated to base {base} with no verified image"),
            });
        }
        let skip = ((watermark - base) as usize).min(records.len());
        Ok(History {
            image,
            base: watermark,
            suffix: records.into_iter().skip(skip).collect(),
        })
    }

    /// The logical length of the history.
    pub(crate) fn len(&self) -> u64 {
        self.base + self.suffix.len() as u64
    }
}

/// How long the two rebuild stages took.
pub(crate) struct RebuildTimes {
    pub(crate) restore: Duration,
    pub(crate) replay: Duration,
}

impl SessionRegistry {
    /// Enable the persistent image store: sessions are imaged on
    /// cadence (background), on eviction, release and graceful
    /// shutdown, and [`SessionRegistry::recover`] restores them.
    /// Requires journaling — images cover a journal watermark.
    pub fn with_store(mut self, config: StoreConfig) -> Self {
        self.store = Some((config, Arc::new(BackgroundWorker::new("iwb-snapshot"))));
        self
    }

    /// Image-lifecycle counters (all zero when no store is configured).
    pub fn store_stats(&self) -> &StoreStats {
        &self.store_stats
    }

    /// Block until every scheduled background image commit has run.
    pub fn drain_snapshots(&self) {
        if let Some((_, worker)) = &self.store {
            worker.drain();
        }
    }

    /// Synchronously image every live session (graceful shutdown);
    /// returns how many sessions were flushed. Scheduled background
    /// commits are drained first so the flush is the last word.
    pub fn flush_snapshots(&self) -> usize {
        if self.store.is_none() {
            return 0;
        }
        self.drain_snapshots();
        let sessions: Vec<Arc<Session>> = recover(self.sessions.lock()).values().cloned().collect();
        for session in &sessions {
            session.flush_image();
        }
        sessions.len()
    }

    /// Where images live: the store directory, or the journal
    /// directory when no store is configured (a promoted replica image
    /// still needs a home beside its journal).
    fn image_dir(&self) -> Option<(&Path, bool)> {
        match (&self.store, &self.journal) {
            (Some((store, _)), _) => Some((&store.dir, store.fsync)),
            (None, Some(journal)) => Some((&journal.dir, journal.fsync)),
            (None, None) => None,
        }
    }

    /// `id`'s image file (see `image_dir`).
    pub(super) fn image_store(&self, id: &str) -> Option<SessionStore> {
        let (dir, fsync) = self.image_dir()?;
        let mut store = SessionStore::new(dir, id);
        store.fsync = fsync;
        Some(store)
    }

    /// The per-session image handle, when a store is configured;
    /// `committed` is the watermark of the image already in place.
    pub(super) fn images_for(&self, id: &str, committed: u64) -> Option<Arc<Images>> {
        let (config, worker) = self.store.as_ref()?;
        Some(Arc::new(Images {
            worker: Arc::clone(worker),
            every: config.snapshot_every,
            commits: Arc::new(Commits {
                store: self.image_store(id)?,
                stats: Arc::clone(&self.store_stats),
                committed: Mutex::new(committed),
            }),
        }))
    }

    /// Rebuild sessions from the journal (and image) directory: every
    /// journal plus every image without one, each paired into a
    /// [`History`] and rebuilt. Call before serving traffic.
    pub fn recover(&self, stats: &ServerStats) -> io::Result<RecoveryReport> {
        let Some(config) = self.journal.clone() else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport::default();
        let mut ids = BTreeSet::new();
        for path in Journal::scan_dir(&config.dir)? {
            match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) => {
                    ids.insert(stem.to_owned());
                }
                None => report.skipped += 1,
            }
        }
        if let Some((dir, _)) = self.image_dir() {
            ids.extend(SessionStore::scan_dir(dir));
        }
        for id in ids {
            if !super::valid_id(&id) {
                report.skipped += 1;
                continue;
            }
            let rebuilt = match self.own_history(&config, &id, &mut report) {
                Ok(Some(history)) => self
                    .rebuild_session(&config, &id, history, &mut report, stats)
                    .is_ok(),
                Ok(None) | Err(_) => false,
            };
            if !rebuilt {
                report.skipped += 1;
            }
        }
        stats.recovery(&report);
        Ok(report)
    }

    /// This backend's own evidence for `id`: its journal paired with
    /// its image, or a verified image alone when no journal file
    /// exists. `Ok(None)`: nothing usable is persisted. `Err`: the
    /// journal exists but cannot prove a complete history (unreadable,
    /// its header names another session, or it was truncated under an
    /// image that is gone) — the session is refused, never rebuilt
    /// wrong.
    pub(super) fn own_history(
        &self,
        config: &JournalConfig,
        id: &str,
        report: &mut RecoveryReport,
    ) -> Result<Option<History>, String> {
        let path = Journal::path_for(&config.dir, id);
        if !path.exists() {
            return Ok(self.load_image_for(id, report).map(|image| History {
                base: image.watermark,
                image: Some(image),
                suffix: Vec::new(),
            }));
        }
        let loaded = Journal::load(&path).map_err(|e| format!("journal unreadable: {e}"))?;
        if loaded.session_id != id {
            return Err(format!(
                "journal header names {:?}, not {id:?}",
                loaded.session_id
            ));
        }
        if loaded.torn_tail {
            report.torn_tails += 1;
        }
        let image = self.load_image_for(id, report);
        History::pair(image, loaded.base, loaded.records).map(Some)
    }

    /// Load and verify `id`'s own image. `None` means no usable image:
    /// either none exists, or verification failed (counted as a
    /// fallback; pairing decides whether the journal alone suffices).
    fn load_image_for(&self, id: &str, report: &mut RecoveryReport) -> Option<SessionSnapshot> {
        match self.image_store(id)?.load() {
            Ok(None) => None,
            Ok(Some(image)) if image.session_id == id => Some(image),
            Ok(Some(_)) | Err(_) => {
                report.snapshot_fallbacks += 1;
                None
            }
        }
    }

    /// Recreate one session from its history: restore the image (a
    /// fresh shell without one), replay the suffix, and re-arm the
    /// journal at the image's watermark. `Err` when the session id is
    /// taken, the registry is full, or the image does not restore.
    pub(super) fn rebuild_session(
        &self,
        config: &JournalConfig,
        id: &str,
        history: History,
        report: &mut RecoveryReport,
        stats: &ServerStats,
    ) -> Result<RebuildTimes, String> {
        let started = Instant::now();
        let shell = match &history.image {
            Some(image) => {
                persist::restore(image).map_err(|e| format!("image does not restore: {e}"))?
            }
            None => Shell::new(),
        };
        let session = {
            let mut map = recover(self.sessions.lock());
            if map.contains_key(id) || map.len() >= self.max_sessions {
                return Err(format!("session {id:?} cannot be rebuilt here"));
            }
            let session = Arc::new(Session::new(
                id.to_owned(),
                shell,
                None,
                self.images_for(id, history.base),
                self.replicator.clone(),
            ));
            map.insert(id.to_owned(), Arc::clone(&session));
            session
        };
        if history.image.is_some() {
            report.images += 1;
        }
        let restore = started.elapsed();
        let started = Instant::now();
        for record in &history.suffix {
            let result = session
                .with_shell(|shell| shell.execute(&record.command, record.heredoc.as_deref()));
            report.replayed += 1;
            if result.is_err() {
                report.replay_errors += 1;
            }
        }
        let replay = started.elapsed();
        // Re-arm journaling on a healed file so post-recovery commands
        // keep appending to the same history.
        match Journal::adopt(config, id, history.suffix, history.base) {
            Ok(journal) => *recover(session.journal.lock()) = Some(journal),
            Err(_) => stats.counters.add(ServerCounter::JournalErrors, 1),
        }
        report.sessions += 1;
        Ok(RebuildTimes { restore, replay })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExecOutcome;
    use iwb_store::fault::{FaultSpec, SNAPSHOT_TORN};

    fn exec(
        session: &Session,
        command: &str,
        heredoc: Option<&str>,
        faults: &FaultPlan,
        stats: &ServerStats,
    ) -> ExecOutcome {
        session.execute_command(command, heredoc, faults, 3, stats, None)
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iwb-reg-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_registry(dir: &PathBuf, snapshot_every: u64) -> SessionRegistry {
        SessionRegistry::new(4, Duration::from_secs(60))
            .with_journal(JournalConfig::new(dir))
            .with_store(StoreConfig {
                dir: dir.clone(),
                fsync: false,
                snapshot_every,
            })
    }

    /// The mutating command sequence the image tests run: two loads,
    /// an automatic match, a lock, a learned re-match, an index.
    const WARM_SCRIPT: [(&str, Option<&str>); 6] = [
        (
            "load er a",
            Some("entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" }\n"),
        ),
        (
            "load er b",
            Some("entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" }\n"),
        ),
        ("match a b", None),
        ("accept a b a/SHIPMENT/ship_dt b/DELIVERY/deliver_dt", None),
        ("match a b", None),
        ("index-registry seed 7 scale 0.01", None),
    ];

    fn run_warm_script(session: &Session, stats: &ServerStats) {
        let none = FaultPlan::none();
        for (cmd, heredoc) in WARM_SCRIPT {
            let out = exec(session, cmd, heredoc, &none, stats);
            assert!(matches!(out, ExecOutcome::Output(_)), "{cmd}: {out:?}");
        }
    }

    fn export_of(session: &Session, stats: &ServerStats) -> String {
        match exec(session, "export", None, &FaultPlan::none(), stats) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_sessions_reopen_warm_after_restart() {
        let dir = store_dir("warm");
        let stats = ServerStats::new();
        let reg = store_registry(&dir, 1);
        let s = reg.create(Some("warm")).unwrap();
        run_warm_script(&s, &stats);
        let before = export_of(&s, &stats);
        reg.drain_snapshots();
        assert!(SessionStore::new(&dir, "warm").path().exists());
        assert!(reg.store_stats().get(StoreCounter::Committed) >= 1);
        assert!(reg.store_stats().get(StoreCounter::Truncated) >= 1);
        // The last image covers every record: the journal keeps none.
        let journal = Journal::load(&Journal::path_for(&dir, "warm")).unwrap();
        assert_eq!(
            (journal.base, journal.records.len()),
            (WARM_SCRIPT.len() as u64, 0)
        );
        drop(reg); // simulated crash: image + journal survive

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (
                report.sessions,
                report.images,
                report.replayed,
                report.replay_errors,
                report.snapshot_fallbacks
            ),
            (1, 1, 0, 0, 0),
            "{report:?}"
        );
        // The restore replayed nothing: both matches and the index are
        // state in the image, not commands to re-run.
        let recovered = fresh.get("warm").expect("recovery rebuilt the session");
        assert_eq!(recovered.seq(), WARM_SCRIPT.len() as u64);
        assert_eq!(
            before,
            export_of(&recovered, &stats),
            "a restored session must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicted_store_sessions_are_persisted_not_forgotten() {
        let dir = store_dir("evict");
        let stats = ServerStats::new();
        let reg = SessionRegistry::new(4, Duration::from_millis(0))
            .with_journal(JournalConfig::new(&dir))
            .with_store(StoreConfig {
                dir: dir.clone(),
                fsync: false,
                snapshot_every: 0, // only eviction/shutdown snapshots
            });
        let s = reg.create(Some("idle")).unwrap();
        let out = exec(
            &s,
            "load er po",
            Some("entity A { x : text }\n"),
            &FaultPlan::none(),
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        let before = export_of(&s, &stats);
        drop(s);
        assert!(reg.evict_idle().contains(&"idle".to_owned()));
        assert!(
            SessionStore::new(&dir, "idle").path().exists(),
            "eviction persists the snapshot"
        );
        assert!(
            Journal::path_for(&dir, "idle").exists(),
            "eviction keeps the journal"
        );
        drop(reg);

        let fresh = store_registry(&dir, 0);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!((report.sessions, report.images), (1, 1), "{report:?}");
        let recovered = fresh.get("idle").expect("evicted session reopens");
        assert_eq!(before, export_of(&recovered, &stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closing_a_store_session_deletes_snapshot_and_journal() {
        let dir = store_dir("close");
        let stats = ServerStats::new();
        let reg = store_registry(&dir, 1);
        let s = reg.create(Some("gone")).unwrap();
        let out = exec(
            &s,
            "load er po",
            Some("entity A { x : text }\n"),
            &FaultPlan::none(),
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        reg.drain_snapshots();
        assert!(SessionStore::new(&dir, "gone").path().exists());
        assert!(reg.close("gone"));
        assert!(!SessionStore::new(&dir, "gone").path().exists());
        assert!(!Journal::path_for(&dir, "gone").exists());
        // Nothing resurrects on the next start.
        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(report.sessions, 0, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_journal_replay() {
        for spec in ["snapshot-torn@0", "snapshot-bitflip@0", "snapshot-stale@0"] {
            let tag = spec.split(['-', '@']).nth(1).unwrap();
            let dir = store_dir(tag);
            let stats = ServerStats::new();
            let plan = FaultSpec::parse(&format!("seed=3, {spec}"))
                .unwrap()
                .build();
            // One image commit exactly (after the 3rd journaled
            // command), so fault index 0 corrupts the only one.
            let reg = store_registry(&dir, 3);
            let s = reg.create(Some("c")).unwrap();
            for (cmd, heredoc) in &WARM_SCRIPT[..3] {
                let out = exec(&s, cmd, *heredoc, &plan, &stats);
                assert!(matches!(out, ExecOutcome::Output(_)), "{cmd}: {out:?}");
            }
            let before = export_of(&s, &stats);
            reg.drain_snapshots();
            assert!(
                reg.store_stats().get(StoreCounter::VerifyFailed) >= 1,
                "{spec}: corruption must fail verification"
            );
            // The corrupt image never took the live name, and the
            // journal kept its whole history.
            assert!(!SessionStore::new(&dir, "c").path().exists(), "{spec}");
            assert_eq!(reg.store_stats().get(StoreCounter::Truncated), 0, "{spec}");
            drop(reg);

            let fresh = store_registry(&dir, 1);
            let report = fresh.recover(&stats).unwrap();
            assert_eq!(
                (
                    report.sessions,
                    report.images,
                    report.replayed,
                    report.replay_errors
                ),
                (1, 0, 3, 0),
                "{spec}: {report:?}"
            );
            let recovered = fresh.get("c").expect("journal replay rebuilt the session");
            assert_eq!(before, export_of(&recovered, &stats), "{spec}");
            let _ = std::fs::remove_dir_all(&dir);
        }

        // An image corrupted on disk after it committed fails at
        // recovery instead. Beside a journal truncated under it nothing
        // else proves the first three records: the session is skipped,
        // never rebuilt from the suffix alone.
        let stats = ServerStats::new();
        let dir = store_dir("flipped");
        let reg = store_registry(&dir, 3);
        let s = reg.create(Some("c")).unwrap();
        for (cmd, heredoc) in &WARM_SCRIPT[..3] {
            let out = exec(&s, cmd, *heredoc, &FaultPlan::none(), &stats);
            assert!(matches!(out, ExecOutcome::Output(_)), "{cmd}: {out:?}");
        }
        let before = export_of(&s, &stats);
        reg.drain_snapshots();
        assert_eq!(reg.store_stats().get(StoreCounter::Truncated), 1);
        drop(reg);
        let path = SessionStore::new(&dir, "c").path();
        let mut flipped = std::fs::read(&path).unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (report.sessions, report.skipped, report.snapshot_fallbacks),
            (0, 1, 1),
            "{report:?}"
        );
        assert!(fresh.get("c").is_none());
        let _ = std::fs::remove_dir_all(&dir);

        // The same corrupt image beside a whole journal (base 0, no
        // image ever committed): the journal alone rebuilds the session.
        let dir = store_dir("flipped-whole");
        let reg = store_registry(&dir, 0);
        let s = reg.create(Some("c")).unwrap();
        for (cmd, heredoc) in &WARM_SCRIPT[..3] {
            let out = exec(&s, cmd, *heredoc, &FaultPlan::none(), &stats);
            assert!(matches!(out, ExecOutcome::Output(_)), "{cmd}: {out:?}");
        }
        assert_eq!(export_of(&s, &stats), before);
        drop(reg);
        std::fs::write(SessionStore::new(&dir, "c").path(), &flipped).unwrap();
        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (
                report.sessions,
                report.images,
                report.replayed,
                report.snapshot_fallbacks
            ),
            (1, 0, 3, 1),
            "{report:?}"
        );
        let recovered = fresh.get("c").expect("journal replay rebuilt the session");
        assert_eq!(before, export_of(&recovered, &stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_image_after_truncation_keeps_the_previous_image() {
        // Image 0 commits and truncates the journal to its watermark;
        // image 1 is torn in flight. The torn write must not replace
        // image 0, so image 0 plus the journal suffix still recover the
        // session — the journal never has to widen back.
        let dir = store_dir("window");
        let stats = ServerStats::new();
        let plan = FaultSpec::seeded(5).at(SNAPSHOT_TORN, &[1]).build();
        let reg = store_registry(&dir, 1);
        let s = reg.create(Some("window")).unwrap();

        let out = exec(
            &s,
            "load er a",
            Some("entity A { x : text }\n"),
            &plan,
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        reg.drain_snapshots();
        assert_eq!(reg.store_stats().get(StoreCounter::Truncated), 1);

        let out = exec(
            &s,
            "load er b",
            Some("entity B { y : text }\n"),
            &plan,
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        reg.drain_snapshots();
        assert_eq!(reg.store_stats().get(StoreCounter::VerifyFailed), 1);
        let image = SessionStore::new(&dir, "window").load().unwrap().unwrap();
        assert_eq!(image.watermark, 1, "the previous image stays in place");
        let journal = Journal::load(&Journal::path_for(&dir, "window")).unwrap();
        assert_eq!((journal.base, journal.records.len()), (1, 1));
        let before = export_of(&s, &stats);
        drop(reg); // crash with image 0 and a one-record suffix on disk

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (
                report.sessions,
                report.images,
                report.snapshot_fallbacks,
                report.replayed
            ),
            (1, 1, 0, 1),
            "{report:?}"
        );
        let recovered = fresh.get("window").expect("recovery rebuilt the session");
        assert_eq!(before, export_of(&recovered, &stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_orphaned_snapshot_alone_recovers_the_session() {
        let dir = store_dir("orphan");
        let stats = ServerStats::new();
        let reg = store_registry(&dir, 1);
        let s = reg.create(Some("solo")).unwrap();
        let out = exec(
            &s,
            "load er po",
            Some("entity A { x : text }\n"),
            &FaultPlan::none(),
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        let before = export_of(&s, &stats);
        reg.drain_snapshots();
        drop(reg);
        // Simulate the close-crash window: the journal is gone but the
        // verified image (which holds the whole state) survives.
        std::fs::remove_file(Journal::path_for(&dir, "solo")).unwrap();

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!((report.sessions, report.images), (1, 1), "{report:?}");
        let recovered = fresh.get("solo").expect("image alone recovers");
        assert_eq!(before, export_of(&recovered, &stats));
        // The journal was re-armed: new mutating commands append again.
        assert!(Journal::path_for(&dir, "solo").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bad_journal_beside_a_good_snapshot_is_refused() {
        let stats = ServerStats::new();
        let load = |reg: &SessionRegistry, id: &str| {
            let s = reg.create(Some(id)).unwrap();
            let out = exec(
                &s,
                "load er po",
                Some("entity A { x : text }\n"),
                &FaultPlan::none(),
                &stats,
            );
            assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
            reg.drain_snapshots();
        };
        // A journal whose header names another session, written in a
        // directory of its own.
        let elsewhere = store_dir("bad-journal-src");
        load(&store_registry(&elsewhere, 1), "other");
        let foreign = std::fs::read(Journal::path_for(&elsewhere, "other")).unwrap();
        for (tag, bytes) in [
            ("foreign", foreign),
            ("garbage", b"not a journal\n".to_vec()),
        ] {
            let dir = store_dir(&format!("bad-journal-{tag}"));
            load(&store_registry(&dir, 1), "solo");
            assert!(SessionStore::new(&dir, "solo").path().exists());
            std::fs::write(Journal::path_for(&dir, "solo"), bytes).unwrap();

            // The image alone cannot prove the journal held nothing
            // past its watermark, so neither path rebuilds the session.
            let fresh = store_registry(&dir, 1);
            let report = fresh.recover(&stats).unwrap();
            assert_eq!(
                (report.sessions, report.skipped),
                (0, 1),
                "{tag}: {report:?}"
            );
            assert!(fresh.get("solo").is_none(), "{tag}");
            assert!(fresh.promote("solo", 0, &stats).is_err(), "{tag}");
            assert!(fresh.get("solo").is_none(), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&elsewhere);
    }

    #[test]
    fn a_truncated_journal_keeps_counting_the_whole_history() {
        let dir = store_dir("logical");
        let stats = ServerStats::new();
        let none = FaultPlan::none();
        // A successor that refuses connections: shipping only lags.
        let reg = store_registry(&dir, 2).with_repl(crate::repl::ReplConfig {
            peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            self_index: 0,
        });
        let s = reg.create(Some("t")).unwrap();
        let sexec = |cmd: &str, heredoc: Option<&str>, seq: Option<u64>| {
            s.execute_sequenced(cmd, heredoc, &none, 3, &stats, None, seq)
        };
        for (i, (cmd, heredoc)) in WARM_SCRIPT[..5].iter().enumerate() {
            let out = sexec(cmd, *heredoc, Some(i as u64));
            assert!(matches!(out, ExecOutcome::Output(_)), "{cmd}: {out:?}");
        }
        reg.drain_snapshots();
        {
            let journal = recover(s.journal.lock());
            let journal = journal.as_ref().unwrap();
            assert_eq!((journal.base(), journal.len()), (4, 5));
            // Nothing below the watermark stays in memory.
            assert_eq!(journal.records().len(), 1);
        }
        assert_eq!(s.seq(), 5);
        let status = reg.repl_status().unwrap();
        assert!(
            status.contains("source id=t seq=5 acked=0 lag=5"),
            "{status}"
        );
        match sexec("match a b", None, Some(2)) {
            ExecOutcome::Output(body) => assert!(body.starts_with("DUPLICATE seq=2"), "{body}"),
            other => panic!("{other:?}"),
        }
        match sexec("match a b", None, Some(9)) {
            ExecOutcome::ToolError(body) => {
                assert!(body.starts_with("SEQ-GAP expected=5 got=9"), "{body}")
            }
            other => panic!("{other:?}"),
        }
        let out = sexec(WARM_SCRIPT[5].0, None, Some(5));
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        assert_eq!(s.seq(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
