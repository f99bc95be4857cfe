//! The replication source and the fleet's ownership verbs: shipping a
//! session's commits and images to its rendezvous successor, the sink
//! side of `repl subscribe|range|drop|status` (delegating to
//! [`ReplicaStore`]), and the two ownership changes — `repl promote`
//! and `session release`.
//!
//! Promotion is recovery from whichever evidence is longer: this
//! backend's own image and journal, or the standby a peer streamed here.
//! Both are paired by [`History::pair`] and rebuilt by
//! [`SessionRegistry::rebuild_session`]; a standby's image becomes the
//! new owner's image (moved, or copied and verified where the rename
//! fails; captured afresh if neither works), and a promotion without
//! any image captures one. The standby is dropped only once the owner
//! holds an image covering its journal's base. The new owner then
//! ships image and suffix to its own successor in one frame, so the
//! next failover is warm too.

use super::recovery::History;
use super::{recover, valid_id, RecoveryReport, Session, SessionRegistry};
use crate::repl::{stale_replica, ReplConfig, ReplicaStore, Replicator};
use crate::stats::{PromoteStage, ServerStats};
use iwb_store::fault::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

impl Session {
    /// Stream every unacknowledged journal record (and, when the
    /// successor is behind the journal's base, the image covering it)
    /// to this session's rendezvous successor (no-op outside a fleet).
    pub(super) fn ship_replica(&self, faults: &FaultPlan) {
        if let Some(repl) = &self.repl {
            let images = self.images.as_ref().map(|images| images.store());
            repl.ship_with(&self.id, &self.journal, images, faults);
        }
    }
}

impl SessionRegistry {
    /// Enable streamed journal replication: every journaled commit (and
    /// every committed image) is shipped to the session's rendezvous
    /// successor, and this backend accepts standbys from peers that
    /// rank it next (see [`crate::repl`]). Requires journaling —
    /// replicas *are* journals (callers without a journal config get a
    /// registry with replication silently off; [`crate::serve`] rejects
    /// that combination up front).
    pub fn with_repl(mut self, config: ReplConfig) -> Self {
        if let Some(journal) = &self.journal {
            self.replicas = Some(Arc::new(ReplicaStore::new(journal)));
            self.replicator = Some(Arc::new(Replicator::new(config)));
        }
        self
    }

    /// Whether fleet replication is enabled.
    pub fn replicating(&self) -> bool {
        self.replicator.is_some()
    }

    fn replicas(&self, id: &str) -> Result<&ReplicaStore, String> {
        if !valid_id(id) {
            return Err(format!("invalid session id {id:?}"));
        }
        self.replicas
            .as_deref()
            .ok_or_else(|| "replication disabled".to_owned())
    }

    /// Handshake for an inbound replication stream: open (and heal)
    /// the standby for `id`, discard it if it has diverged past the
    /// source's history, and report how many records it holds — the
    /// source resumes streaming from there.
    pub fn repl_subscribe(&self, id: &str, source_len: u64) -> Result<u64, String> {
        self.replicas(id)?
            .subscribe(id, source_len)
            .map_err(|e| format!("replica journal unavailable: {e}"))
    }

    /// Accept one `repl range` frame — an optional image and the
    /// records from `from` — into `id`'s standby (held records skipped,
    /// gaps refused: see [`ReplicaStore::apply_range`]).
    pub fn repl_range(
        &self,
        id: &str,
        from: u64,
        frame: &[u8],
        faults: &FaultPlan,
    ) -> Result<String, String> {
        self.replicas(id)?.apply_range(id, from, frame, faults)
    }

    /// Drop `id`'s standby: its owner closed the session.
    pub fn repl_drop(&self, id: &str) -> Result<(), String> {
        self.replicas(id)?.remove(id);
        Ok(())
    }

    /// The replication status body: fleet membership, one `source` row
    /// per live journaled session (its seq, how far the successor has
    /// acknowledged, and the lag between them), and one `replica` row
    /// per standby held for peers (its length and image watermark).
    /// `None` when replication is off.
    pub fn repl_status(&self) -> Option<String> {
        let replicator = self.replicator.as_ref()?;
        let config = replicator.config();
        let mut lines = vec![format!(
            "repl self={} peers={}",
            config.self_index,
            config.peers.len()
        )];
        let mut sources: Vec<(String, u64, u64)> = recover(self.sessions.lock())
            .values()
            .filter(|s| recover(s.journal.lock()).is_some())
            .map(|s| {
                let seq = s.seq();
                (s.id().to_owned(), seq, replicator.acked(s.id()).min(seq))
            })
            .collect();
        sources.sort();
        for (id, seq, acked) in sources {
            lines.push(format!(
                "source id={id} seq={seq} acked={acked} lag={}",
                seq - acked
            ));
        }
        if let Some(replicas) = &self.replicas {
            for (id, len, image) in replicas.status() {
                lines.push(format!("replica id={id} seq={len} image={image}"));
            }
        }
        Some(lines.join("\n"))
    }

    /// Promote `id` on this backend from the best local evidence — own
    /// image and journal, or the standby streamed by the owner —
    /// refusing with `STALE-REPLICA` when that evidence is provably
    /// behind `min_seq`, the last seq the router saw acknowledged to a
    /// client. This is the fleet's only way to move a session: crash
    /// failover and planned migration promote on a successor, an
    /// aborted migration promotes the released session back on its old
    /// owner, and a router attaching a session that is live nowhere
    /// promotes it with `min_seq` 0. Idempotent for a session that is
    /// already live (and current). Each stage is timed in `stats`
    /// ([`PromoteStage`]).
    pub fn promote(&self, id: &str, min_seq: u64, stats: &ServerStats) -> Result<u64, String> {
        if !valid_id(id) {
            return Err(format!("invalid session id {id:?}"));
        }
        if let Some(session) = self.get(id) {
            let seq = session.seq();
            if seq >= min_seq {
                return Ok(seq);
            }
            return Err(stale_replica(id, seq, min_seq));
        }
        let Some(config) = self.journal.clone() else {
            return Err("journaling disabled: nothing to promote from".into());
        };
        let started = Instant::now();
        let mut report = RecoveryReport::default();
        // Evidence this backend cannot prove complete counts as none:
        // the replica may still meet the floor.
        let local = self.own_history(&config, id, &mut report).ok().flatten();
        let replica = self
            .replicas
            .as_ref()
            .and_then(|r| r.evidence(id))
            .and_then(|e| History::pair(e.image, e.base, e.records).ok());
        let local_len = local.as_ref().map_or(0, History::len);
        let replica_len = replica.as_ref().map_or(0, History::len);
        if local.is_none() && replica.is_none() {
            if min_seq > 0 {
                return Err(stale_replica(id, 0, min_seq));
            }
            return Err(format!("no persisted state for session {id:?}"));
        }
        let have = local_len.max(replica_len);
        if have < min_seq {
            return Err(stale_replica(id, have, min_seq));
        }
        // Prefer the longer history; ties go to local evidence.
        let from_replica = replica_len > local_len;
        let history = if from_replica { replica } else { local }.expect("evidence present");
        let imaged = history.image.is_some();
        let watermark = history.base;
        let lookup = started.elapsed();
        let times = self
            .rebuild_session(&config, id, history, &mut report, stats)
            .map_err(|e| format!("promotion of session {id:?} was refused: {e}"))?;
        stats.recovery(&report);
        let session = self
            .get(id)
            .ok_or_else(|| format!("promotion of session {id:?} was refused"))?;
        let started = Instant::now();
        if let Some(replicas) = &self.replicas {
            // The standby's image becomes the owner's; the rest of the
            // standby would only diverge from here, and this backend
            // now streams the session onward to its *own* successor.
            // Until the owner holds an image at the journal's base, the
            // standby is the only proof of the history below it.
            let placed = !(from_replica && imaged)
                || self.adopt_standby_image(&session, replicas, watermark);
            if placed {
                replicas.remove(id);
            }
        }
        if !imaged {
            // A first promotion before any image: capture one, so the
            // successor restarts from it and the next promotion is warm.
            session.flush_image();
        }
        stats.record_promote(
            PromoteStage::Restore,
            lookup + times.restore + started.elapsed(),
        );
        stats.record_promote(PromoteStage::Replay, times.replay);
        let started = Instant::now();
        session.ship_replica(&FaultPlan::none());
        stats.record_promote(PromoteStage::Ship, started.elapsed());
        Ok(session.seq())
    }

    /// Make the standby image at `watermark` the promoted session's own:
    /// moved into its store, or — when that fails — a fresh capture.
    /// `false` when neither put an image in place.
    fn adopt_standby_image(
        &self,
        session: &Session,
        replicas: &ReplicaStore,
        watermark: u64,
    ) -> bool {
        let from = replicas.image_file(session.id());
        match &session.images {
            Some(images) => images.adopt(&from, watermark) || session.flush_image(),
            // Without a store the image lives beside the journal, and
            // the session captures none of its own.
            None => self
                .image_store(session.id())
                .is_some_and(|to| from.move_to(&to).is_ok()),
        }
    }

    /// Release a live session for migration: persist its final image,
    /// drain its replication stream, then drop it from the live map
    /// *keeping* its on-disk state (unlike [`SessionRegistry::close`],
    /// which deletes it), so an aborted migration can
    /// [`SessionRegistry::promote`] it back here. Returns the session's
    /// sequence watermark — the router's promotion floor for the
    /// successor. Waits for any in-flight command: the image flush
    /// takes the shell lock, so the command completes (and journals)
    /// first.
    pub fn release(&self, id: &str) -> Result<u64, String> {
        if self.journal.is_none() {
            return Err("journaling disabled: nothing to release".into());
        }
        let session = recover(self.sessions.lock())
            .remove(id)
            .ok_or_else(|| format!("no session {id:?}"))?;
        self.drain_snapshots();
        session.flush_image();
        // Drain the replication stream at the released watermark so a
        // planned migration's successor can promote from its replica
        // with zero lag.
        session.ship_replica(&FaultPlan::none());
        Ok(session.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig, JournalRecord};
    use crate::session::{ExecOutcome, StoreConfig};
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iwb-reg-repl-{tag}-{}-{:?}",
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

    fn exec(
        session: &Session,
        command: &str,
        heredoc: Option<&str>,
        stats: &ServerStats,
    ) -> String {
        match session.execute_command(command, heredoc, &FaultPlan::none(), 3, stats, None) {
            ExecOutcome::Output(out) => out,
            other => panic!("{command}: {other:?}"),
        }
    }

    fn run_warm_script(session: &Session, stats: &ServerStats) {
        for (cmd, heredoc) in WARM_SCRIPT {
            exec(session, cmd, heredoc, stats);
        }
    }

    fn export_of(session: &Session, stats: &ServerStats) -> String {
        exec(session, "export", None, stats)
    }

    #[test]
    fn sequence_guard_acks_duplicates_and_rejects_gaps() {
        let dir = store_dir("seq");
        let stats = ServerStats::new();
        let none = FaultPlan::none();
        let reg =
            SessionRegistry::new(4, Duration::from_secs(60)).with_journal(JournalConfig::new(&dir));
        let s = reg.create(Some("g")).unwrap();

        let sexec = |cmd: &str, heredoc: Option<&str>, seq: Option<u64>| {
            s.execute_sequenced(cmd, heredoc, &none, 3, &stats, None, seq)
        };
        let out = sexec("load er a", Some("entity A { x : text }\n"), Some(0));
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        assert_eq!(s.seq(), 1);

        // Redelivery of the same sequence number is acknowledged, not
        // re-executed: the reply is an *ok* carrying DUPLICATE.
        match sexec("load er a", Some("entity A { x : text }\n"), Some(0)) {
            ExecOutcome::Output(body) => {
                assert!(body.starts_with("DUPLICATE seq=0"), "{body}")
            }
            other => panic!("duplicate must ack, got {other:?}"),
        }
        assert_eq!(s.seq(), 1, "duplicate must not advance the journal");

        // Skipping ahead would fork history: refused as an error.
        match sexec("load er b", Some("entity B { y : text }\n"), Some(5)) {
            ExecOutcome::ToolError(body) => {
                assert!(body.starts_with("SEQ-GAP expected=1 got=5"), "{body}")
            }
            other => panic!("gap must be refused, got {other:?}"),
        }
        assert_eq!(s.seq(), 1);

        // Non-mutating commands are never guarded (they don't journal),
        // and unsequenced mutations still work for plain clients.
        let out = sexec("export", None, Some(40));
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        let out = sexec("load er b", Some("entity B { y : text }\n"), None);
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        assert_eq!(s.seq(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_then_promote_restores_local_evidence() {
        let dir = store_dir("migrate");
        let stats = ServerStats::new();
        let reg = store_registry(&dir, 1);
        let s = reg.create(Some("mig")).unwrap();
        run_warm_script(&s, &stats);
        let before = export_of(&s, &stats);
        drop(s);

        assert!(reg.release("nope").is_err(), "unknown id must fail");
        let seq = reg.release("mig").expect("release persists and detaches");
        assert_eq!(seq as usize, WARM_SCRIPT.len());
        assert!(reg.get("mig").is_none(), "released session leaves the map");
        // Unlike close(), the on-disk state survives the release.
        assert!(Journal::path_for(&dir, "mig").exists());

        // An aborted migration promotes the session back from this
        // backend's own journal and snapshot, at the released floor.
        assert_eq!(reg.promote("mig", seq, &stats), Ok(seq));
        let promoted = reg.get("mig").expect("promotion makes the session live");
        assert_eq!(
            before,
            export_of(&promoted, &stats),
            "promoted state must be byte-identical"
        );
        // Idempotent: a second promote answers from the live session.
        assert_eq!(reg.promote("mig", seq, &stats), Ok(seq));
        assert!(Arc::ptr_eq(&promoted, &reg.get("mig").unwrap()));
        assert!(
            reg.promote("ghost", 0, &stats)
                .unwrap_err()
                .contains("no persisted state"),
            "an id with no evidence must be refused"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An owner that ran the warm script with an image every
    /// `snapshot_every` records: its export and its image file.
    fn owner_image(dir: &PathBuf, snapshot_every: u64, stats: &ServerStats) -> (String, Vec<u8>) {
        let owner = store_registry(dir, snapshot_every);
        let s = owner.create(Some("p")).unwrap();
        run_warm_script(&s, stats);
        owner.drain_snapshots();
        let (_, image) = iwb_store::SessionStore::new(dir, "p")
            .load_bytes()
            .unwrap()
            .unwrap();
        (export_of(&s, stats), image)
    }

    /// A sink whose journals (and standbys) live in `journal_dir` and
    /// whose images live in `store_dir`.
    fn sink_registry(journal_dir: &Path, store_dir: &Path) -> SessionRegistry {
        SessionRegistry::new(4, Duration::from_secs(60))
            .with_journal(JournalConfig::new(journal_dir))
            .with_store(StoreConfig {
                dir: store_dir.to_path_buf(),
                fsync: false,
                snapshot_every: 64,
            })
            .with_repl(ReplConfig {
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                self_index: 1,
            })
    }

    #[test]
    fn promotion_moves_the_standby_image_into_a_separate_store_dir() {
        let owner_dir = store_dir("split-owner");
        let (journal_dir, image_dir) = (store_dir("split-journal"), store_dir("split-images"));
        let stats = ServerStats::new();
        let (before, image) = owner_image(&owner_dir, 6, &stats);
        let sink = sink_registry(&journal_dir, &image_dir);
        assert_eq!(sink.repl_subscribe("p", 6), Ok(0));
        let frame = crate::repl::encode_frame(Some((6, &image)), &[]);
        sink.repl_range("p", 6, &frame, &FaultPlan::none()).unwrap();

        assert_eq!(sink.promote("p", 6, &stats), Ok(6));
        let adopted = iwb_store::SessionStore::new(&image_dir, "p")
            .load()
            .unwrap();
        assert_eq!(adopted.map(|i| i.watermark), Some(6));
        assert!(
            !iwb_store::SessionStore::new(journal_dir.join("replica"), "p")
                .path()
                .exists()
        );
        assert!(!sink.repl_status().unwrap().contains("replica id=p"));
        drop(sink); // crash: the journal at base 6 and the adopted image

        let fresh = sink_registry(&journal_dir, &image_dir);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (report.sessions, report.images, report.replayed),
            (1, 1, 0),
            "{report:?}"
        );
        assert_eq!(before, export_of(&fresh.get("p").unwrap(), &stats));
        for dir in [owner_dir, journal_dir, image_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_standby_image_that_cannot_be_placed_keeps_the_standby() {
        let owner_dir = store_dir("unplaced-owner");
        let sink_dir = store_dir("unplaced-sink");
        let stats = ServerStats::new();
        let (before, image) = owner_image(&owner_dir, 6, &stats);
        let sink = sink_registry(&sink_dir, &sink_dir);
        sink.repl_subscribe("p", 6).unwrap();
        let frame = crate::repl::encode_frame(Some((6, &image)), &[]);
        sink.repl_range("p", 6, &frame, &FaultPlan::none()).unwrap();
        // Nothing can take the owner's image path: neither the move nor a
        // fresh capture puts an image in place.
        let blocked = iwb_store::SessionStore::new(&sink_dir, "p").path();
        std::fs::create_dir_all(blocked.join("in-the-way")).unwrap();

        assert_eq!(sink.promote("p", 6, &stats), Ok(6));
        assert_eq!(export_of(&sink.get("p").unwrap(), &stats), before);
        // The journal now starts at 6 with no image under it, so the
        // standby — the only proof of the first six records — stays.
        let status = sink.repl_status().unwrap();
        assert!(status.contains("replica id=p seq=6 image=6"), "{status}");
        assert!(
            sink.store_stats()
                .get(crate::session::StoreCounter::VerifyFailed)
                >= 1
        );

        // Once the path clears, the next capture commits even at the
        // standby's watermark: the failed move left nothing counted.
        std::fs::remove_dir_all(&blocked).unwrap();
        assert_eq!(sink.flush_snapshots(), 1);
        let placed = iwb_store::SessionStore::new(&sink_dir, "p").load().unwrap();
        assert_eq!(placed.map(|i| i.watermark), Some(6));
        drop(sink);
        let fresh = sink_registry(&sink_dir, &sink_dir);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!((report.sessions, report.images), (1, 1), "{report:?}");
        assert_eq!(before, export_of(&fresh.get("p").unwrap(), &stats));
        let _ = std::fs::remove_dir_all(&owner_dir);
        let _ = std::fs::remove_dir_all(&sink_dir);
    }

    #[test]
    fn promotion_restores_the_standby_image_and_adopts_it() {
        // A sink registry fed by hand: the owner's image at watermark 5
        // plus the sixth record, as one range frame.
        let owner_dir = store_dir("img-owner");
        let sink_dir = store_dir("img-sink");
        let stats = ServerStats::new();
        let owner = store_registry(&owner_dir, 5);
        let s = owner.create(Some("p")).unwrap();
        run_warm_script(&s, &stats);
        owner.drain_snapshots();
        let before = export_of(&s, &stats);
        let (_, image) = iwb_store::SessionStore::new(&owner_dir, "p")
            .load_bytes()
            .unwrap()
            .unwrap();
        let last = JournalRecord {
            command: WARM_SCRIPT[5].0.into(),
            heredoc: None,
        };
        let frame = crate::repl::encode_frame(Some((5, &image)), &[last]);

        let sink = store_registry(&sink_dir, 5).with_repl(ReplConfig {
            peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            self_index: 1,
        });
        assert_eq!(sink.repl_subscribe("p", 6), Ok(0));
        let reply = sink.repl_range("p", 5, &frame, &FaultPlan::none()).unwrap();
        assert_eq!(reply, "repl ranged p have=6 image=5");
        let status = sink.repl_status().unwrap();
        assert!(status.contains("replica id=p seq=6 image=5"), "{status}");

        assert_eq!(sink.promote("p", 6, &stats), Ok(6));
        let promoted = sink.get("p").unwrap();
        assert_eq!(before, export_of(&promoted, &stats));
        // One record replayed, the standby image became the owner's,
        // and the standby is gone.
        let rendered = stats.render(1, &Default::default());
        assert!(rendered.contains("promote.replay count=1"), "{rendered}");
        let adopted = iwb_store::SessionStore::new(&sink_dir, "p").load().unwrap();
        assert_eq!(adopted.map(|i| i.watermark), Some(5));
        assert!(!sink.repl_status().unwrap().contains("replica id=p"));
        assert!(!Journal::path_for(&sink_dir.join("replica"), "p").exists());
        let _ = std::fs::remove_dir_all(&owner_dir);
        let _ = std::fs::remove_dir_all(&sink_dir);
    }
}
