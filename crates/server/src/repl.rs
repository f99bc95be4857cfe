//! Streamed journal replication between fleet backends.
//!
//! Every fleet backend keeps its own `--store` directory. Each backend
//! streams every committed journal record of each session it owns to
//! the session's **rendezvous-next-ranked successor** (the backend the
//! router's failover walk tries first, see
//! [`iwb_store::rendezvous::successor`]), which maintains a warm
//! standby journal per replicated session under
//! `<journal-dir>/replica/`. When the owner dies, the router asks the
//! successor to `repl promote` the session from its local replica — no
//! shared disk anywhere.
//!
//! ## Protocol
//!
//! Replication rides the existing line protocol, backend → backend:
//!
//! * `repl subscribe <session> <source-len>` — handshake. The sink
//!   opens (or creates) its standby journal for the session, heals any
//!   torn tail, and replies `repl subscribed <session> have=<n>`; the
//!   source resumes streaming from `n`. A replica *longer* than the
//!   source has diverged (the session was closed and recreated) and is
//!   discarded, so the reply never points past real history.
//! * `repl append <session> <seq> <command…>` (plus the usual heredoc
//!   framing) — one record at logical index `seq`. The sink enforces
//!   the same exactly-once discipline as the router's `@seq` stamp:
//!   `seq` below the replica length is acknowledged as a structured
//!   `DUPLICATE` without re-appending, above it refused with `SEQ-GAP`
//!   (the source reconnects and re-handshakes rather than forking
//!   replica history).
//! * `repl status` — one `source id=<id> seq=<n> acked=<n> lag=<n>`
//!   row per live journaled session and one `replica id=<id> seq=<n>`
//!   row per standby journal. The router's promotion safety check and
//!   the bench's lag percentiles both read this.
//! * `repl promote <session> <min-seq>` — rebuild the session from the
//!   best local evidence (own journal/snapshot, else the standby
//!   replica). If the best candidate is provably behind `min-seq` —
//!   the last seq the router saw acknowledged to a client — the
//!   promotion is refused with `STALE-REPLICA`: a fleet never serves
//!   silently-wrong state.
//! * `repl drop <session>` — the owner closed the session: the sink
//!   deletes its standby journal and answers `ok`, so no later
//!   promotion can bring the closed session back. The owner sends it
//!   on the session's open stream connection, best effort; a sink that
//!   is down at close time keeps its copy.
//!
//! Shipping is synchronous with the commit (the record is offered to
//! the successor before the client sees `ok`) but **best-effort**: a
//! dead or slow successor degrades durability (the replica lags, and
//! `repl status` says by how much) instead of availability. Every
//! retry path re-handshakes, and the sink's `DUPLICATE` guard makes
//! redelivery idempotent, so a crash anywhere in the stream never
//! duplicates or reorders replica history.
//!
//! Fault injection: [`REPL_DISCONNECT`] drops the stream connection
//! before shipping (the commit still acks; the replica falls behind),
//! [`REPL_LAG`] skips shipping for one commit (heals at the next
//! catch-up), and `promote-stale` (router-side) forces the promotion
//! safety check to take the `STALE-REPLICA` path.

use crate::client::Client;
use crate::journal::{Journal, JournalConfig, JournalRecord};
use iwb_store::fault::{FaultPlan, REPL_DISCONNECT, REPL_LAG};
use iwb_store::rendezvous;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Recover a lock guard even if a previous holder panicked (same
/// policy as the session registry: the data is bookkeeping, poison
/// propagation would turn one fault into an outage).
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Fleet membership as seen by one backend: the full ordered peer
/// list (identical on every backend and on the router — rendezvous
/// ranking only agrees if the slot order does) and this backend's own
/// slot.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// All backend addresses, index-aligned with the router's backend
    /// order.
    pub peers: Vec<String>,
    /// This backend's index in `peers`.
    pub self_index: usize,
}

impl ReplConfig {
    /// The address this backend streams `session`'s journal to, if the
    /// fleet has anywhere to stream (none in a fleet of one, or when
    /// `self_index` is out of range).
    pub fn successor_addr(&self, session: &str) -> Option<&str> {
        let slot = rendezvous::successor(session, self.peers.len(), self.self_index)?;
        self.peers.get(slot).map(String::as_str)
    }
}

/// Per-session outbound stream state: how many records the successor
/// has acknowledged, and the connection (dropped on any error; the
/// next ship re-handshakes).
#[derive(Default)]
struct StreamState {
    acked: u64,
    conn: Option<Client>,
}

/// The outbound half: ships committed journal records to each
/// session's successor. One replicator per registry, shared by every
/// session.
pub struct Replicator {
    config: ReplConfig,
    streams: Mutex<HashMap<String, Arc<Mutex<StreamState>>>>,
}

impl Replicator {
    /// A replicator for this backend's slot in the fleet.
    pub fn new(config: ReplConfig) -> Replicator {
        Replicator {
            config,
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// The fleet membership this replicator streams under.
    pub fn config(&self) -> &ReplConfig {
        &self.config
    }

    /// Records the successor has acknowledged for `session` (0 before
    /// the first handshake — `repl status` reports lag against this).
    pub fn acked(&self, session: &str) -> u64 {
        recover(self.streams.lock())
            .get(session)
            .map_or(0, |state| recover(state.lock()).acked)
    }

    /// Forget a closed session: ask the successor to drop its replica
    /// (`repl drop`) on the stream connection already open — best
    /// effort, no new connection is dialled — then discard the stream
    /// state.
    pub fn forget(&self, session: &str) {
        let Some(state) = recover(self.streams.lock()).remove(session) else {
            return;
        };
        let conn = recover(state.lock()).conn.take();
        if let Some(mut conn) = conn {
            let _ = conn.request(&format!("repl drop {session}"));
        }
    }

    /// Ship every record the successor has not acknowledged yet. Called
    /// after each journaled commit (and once more on release, to drain
    /// before a planned migration). Best-effort: on any connection or
    /// protocol failure the stream is dropped and the records stay
    /// pending for the next ship — the commit already acked, so only
    /// replication lag grows, never client-visible latency or errors.
    pub fn ship(&self, session: &str, journal: &Mutex<Option<Journal>>, faults: &FaultPlan) {
        let Some(target) = self.config.successor_addr(session) else {
            return;
        };
        let state = Arc::clone(
            recover(self.streams.lock())
                .entry(session.to_owned())
                .or_default(),
        );
        let mut st = recover(state.lock());
        if faults.fires(REPL_DISCONNECT).is_some() {
            st.conn = None;
            return;
        }
        if faults.fires(REPL_LAG).is_some() {
            return;
        }
        // Bounded re-handshake attempts: one SEQ-GAP (or a divergent
        // replica) earns a resubscribe, persistent failure leaves lag.
        for _ in 0..3 {
            let (len, pending) = {
                let guard = recover(journal.lock());
                let Some(journal) = guard.as_ref() else {
                    return;
                };
                let len = journal.len() as u64;
                if st.acked >= len {
                    st.acked = len; // a shrunk journal means a new history
                    return;
                }
                (len, journal.records()[st.acked as usize..].to_vec())
            };
            if st.conn.is_none() {
                let Ok(mut conn) = Client::connect(target) else {
                    return;
                };
                let Ok(resp) = conn.request(&format!("repl subscribe {session} {len}")) else {
                    return;
                };
                if !resp.ok {
                    return;
                }
                let Some(have) = parse_field(&resp.body, "have=") else {
                    return;
                };
                st.acked = have.min(len);
                st.conn = Some(conn);
                continue; // re-snapshot pending from the acked point
            }
            let mut conn = st.conn.take().expect("stream connection present");
            let mut resubscribe = false;
            let mut lost = false;
            for record in &pending {
                let line = format!("repl append {session} {} {}", st.acked, record.command);
                let resp = match &record.heredoc {
                    Some(body) => conn.request_with_heredoc(&line, body),
                    None => conn.request(&line),
                };
                match resp {
                    // `ok` covers both a fresh append and a DUPLICATE
                    // ack — either way the sink holds the record.
                    Ok(resp) if resp.ok => st.acked += 1,
                    // The sink is missing history we thought it had
                    // (it crashed and healed a torn tail): re-handshake
                    // from its healed length.
                    Ok(resp) if resp.body.starts_with("SEQ-GAP") => {
                        resubscribe = true;
                        break;
                    }
                    Ok(_) | Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            if lost {
                return; // connection dropped; next ship re-handshakes
            }
            if resubscribe {
                continue;
            }
            st.conn = Some(conn);
            if st.acked >= len {
                return;
            }
        }
    }
}

/// Parse `prefix<u64>` out of a reply body.
fn parse_field(body: &str, prefix: &str) -> Option<u64> {
    body.split_whitespace()
        .find_map(|word| word.strip_prefix(prefix))
        .and_then(|v| v.parse().ok())
}

/// The inbound half: warm standby journals for sessions owned
/// elsewhere, kept under `<journal-dir>/replica/` as ordinary journal
/// files — the same framing, checksums, and torn-tail healing as live
/// session journals, so promotion is just recovery from a different
/// directory.
pub struct ReplicaStore {
    config: JournalConfig,
    open: Mutex<HashMap<String, Journal>>,
}

impl ReplicaStore {
    /// A replica store colocated with (but namespaced away from) the
    /// live journal directory. `fsync` and compaction cadence follow
    /// the live journals: a replica that is not durable is not a
    /// replica.
    pub fn new(journal: &JournalConfig) -> ReplicaStore {
        let mut config = journal.clone();
        config.dir = journal.dir.join("replica");
        ReplicaStore {
            config,
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Open `session`'s standby journal in `map`, loading (and healing
    /// the torn tail of) an existing file or creating a fresh one.
    fn open_locked<'a>(
        &self,
        map: &'a mut HashMap<String, Journal>,
        session: &str,
    ) -> io::Result<&'a mut Journal> {
        if !map.contains_key(session) {
            let path = Journal::path_for(&self.config.dir, session);
            let journal = if path.exists() {
                let loaded = Journal::load(&path)?;
                // Replicas are never snapshot-truncated; a nonzero
                // base would mean the file is not ours.
                Journal::adopt(&self.config, session, loaded.records, 0)?
            } else {
                Journal::create(&self.config, session)?
            };
            map.insert(session.to_owned(), journal);
        }
        Ok(map.get_mut(session).expect("replica just opened"))
    }

    /// Handshake: how many records this replica already holds, after
    /// healing any torn tail. A replica longer than the source's
    /// journal has diverged (the session was closed and recreated
    /// under the same id) and is discarded rather than trusted.
    pub fn subscribe(&self, session: &str, source_len: u64) -> io::Result<u64> {
        let mut map = recover(self.open.lock());
        let journal = self.open_locked(&mut map, session)?;
        if journal.len() as u64 > source_len {
            let stale = map.remove(session).expect("replica just opened");
            stale.discard()?;
            let journal = self.open_locked(&mut map, session)?;
            return Ok(journal.len() as u64);
        }
        Ok(journal.len() as u64)
    }

    /// Append one streamed record at logical index `seq`. Returns the
    /// `ok` reply body, or an `Err` body the server frames as `err` —
    /// the same DUPLICATE/SEQ-GAP discipline as the router's `@seq`
    /// stamp, so redelivery after any crash is idempotent.
    pub fn append(
        &self,
        session: &str,
        seq: u64,
        record: JournalRecord,
        faults: &FaultPlan,
    ) -> Result<String, String> {
        let mut map = recover(self.open.lock());
        let journal = self
            .open_locked(&mut map, session)
            .map_err(|e| format!("replica journal unavailable: {e}"))?;
        let have = journal.len() as u64;
        if seq < have {
            return Ok(iwb_core::proto::RetryableError::Duplicate { seq }.to_string());
        }
        if seq > have {
            return Err(iwb_core::proto::RetryableError::SeqGap {
                expected: have,
                got: seq,
            }
            .to_string());
        }
        journal
            .append(record, faults)
            .map_err(|e| format!("replica append failed: {e}"))?;
        Ok(format!("repl appended {session} seq={seq}"))
    }

    /// One `(session, len)` row per standby journal — every open one
    /// plus any on disk not opened yet.
    pub fn status(&self) -> Vec<(String, u64)> {
        let mut map = recover(self.open.lock());
        if let Ok(paths) = Journal::scan_dir(&self.config.dir) {
            for path in paths {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    let _ = self.open_locked(&mut map, stem);
                }
            }
        }
        let mut rows: Vec<(String, u64)> = map
            .iter()
            .map(|(id, journal)| (id.clone(), journal.len() as u64))
            .collect();
        rows.sort();
        rows
    }

    /// The replica's full record history for `session`, if a standby
    /// journal exists — promotion replays this when it beats (or is
    /// all that is left of) the local journal/snapshot evidence.
    pub fn history(&self, session: &str) -> Option<Vec<JournalRecord>> {
        let mut map = recover(self.open.lock());
        if !map.contains_key(session) && !Journal::path_for(&self.config.dir, session).exists() {
            return None;
        }
        self.open_locked(&mut map, session)
            .ok()
            .map(|journal| journal.records().to_vec())
    }

    /// Drop `session`'s standby journal (the session was promoted here
    /// — the live journal takes over — or deliberately closed).
    pub fn remove(&self, session: &str) {
        let mut map = recover(self.open.lock());
        if let Some(journal) = map.remove(session) {
            let _ = journal.discard();
        } else {
            let _ = std::fs::remove_file(Journal::path_for(&self.config.dir, session));
        }
    }
}

/// Render the `STALE-REPLICA` refusal — a stable, greppable prefix
/// (like `MOVED`/`RETRY-AFTER`) the router matches on to distinguish
/// "this backend cannot *safely* serve the session" from "this backend
/// is down".
pub fn stale_replica(session: &str, have: u64, need: u64) -> String {
    format!(
        "STALE-REPLICA session={session} have={have} need={need}: \
         refusing promotion from a stale replica"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_store::fault::FaultSpec;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iwb-repl-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(command: &str) -> JournalRecord {
        JournalRecord {
            command: command.to_owned(),
            heredoc: None,
        }
    }

    #[test]
    fn replica_append_enforces_duplicate_and_gap_guards() {
        let dir = temp_dir("guards");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        let replicas = ReplicaStore::new(&config);
        let none = FaultPlan::none();

        assert_eq!(replicas.subscribe("s1", 0).unwrap(), 0);
        assert!(replicas.append("s1", 0, rec("load er a"), &none).is_ok());
        assert!(replicas.append("s1", 1, rec("match a b"), &none).is_ok());
        // Redelivery of an already-held record: acknowledged, not
        // re-appended.
        let dup = replicas.append("s1", 0, rec("load er a"), &none).unwrap();
        assert!(dup.starts_with("DUPLICATE"), "{dup}");
        assert_eq!(replicas.status(), vec![("s1".to_owned(), 2)]);
        // A record past the replica's length would fork history.
        let gap = replicas
            .append("s1", 5, rec("accept a.x b.y"), &none)
            .unwrap_err();
        assert!(gap.starts_with("SEQ-GAP"), "{gap}");
        assert_eq!(
            replicas.history("s1").unwrap(),
            vec![rec("load er a"), rec("match a b")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_replica_is_discarded_on_subscribe() {
        let dir = temp_dir("diverge");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        let replicas = ReplicaStore::new(&config);
        let none = FaultPlan::none();
        replicas.subscribe("s1", 0).unwrap();
        for i in 0..3u64 {
            let _ = replicas.append("s1", i, rec("cmd"), &none);
        }
        // The source restarted the session: its journal is shorter
        // than our replica, so ours is a different history.
        assert_eq!(replicas.subscribe("s1", 1).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_replica_append_heals_on_reopen() {
        let dir = temp_dir("torn");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        {
            let replicas = ReplicaStore::new(&config);
            let torn = FaultSpec::parse("seed=1, journal-torn@1").unwrap().build();
            replicas.subscribe("s1", 0).unwrap();
            replicas.append("s1", 0, rec("load er a"), &torn).unwrap();
            // Torn mid-write: disk holds a prefix of this record.
            replicas.append("s1", 1, rec("match a b"), &torn).unwrap();
            // Simulate a crash before the heal-on-next-append: drop
            // the store with the tear still on disk.
        }
        let replicas = ReplicaStore::new(&config);
        // Reopen heals: the torn record is dropped, have=1, and the
        // source re-ships from there without duplicating record 0.
        assert_eq!(replicas.subscribe("s1", 2).unwrap(), 1);
        let dup = replicas
            .append("s1", 0, rec("load er a"), &FaultPlan::none())
            .unwrap();
        assert!(dup.starts_with("DUPLICATE"), "{dup}");
        replicas
            .append("s1", 1, rec("match a b"), &FaultPlan::none())
            .unwrap();
        assert_eq!(
            replicas.history("s1").unwrap(),
            vec![rec("load er a"), rec("match a b")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn successor_addr_follows_rendezvous_rank() {
        let peers: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        let order = iwb_store::rendezvous::rank("s7", 3);
        let owner = ReplConfig {
            peers: peers.clone(),
            self_index: order[0],
        };
        assert_eq!(owner.successor_addr("s7"), Some(peers[order[1]].as_str()));
        // After failover the promoted backend streams onward.
        let promoted = ReplConfig {
            peers: peers.clone(),
            self_index: order[1],
        };
        assert_eq!(
            promoted.successor_addr("s7"),
            Some(peers[order[2]].as_str())
        );
        let solo = ReplConfig {
            peers: vec![peers[0].clone()],
            self_index: 0,
        };
        assert_eq!(solo.successor_addr("s7"), None);
    }
}
