//! Streamed journal replication between fleet backends.
//!
//! Every fleet backend keeps its own `--store` directory. Each backend
//! streams every committed journal record of each session it owns to
//! the session's **rendezvous-next-ranked successor** (the backend the
//! router's failover walk tries first, see
//! [`iwb_store::rendezvous::successor`]), together with every session
//! image the owner commits. The successor keeps a warm standby per
//! replicated session under `<journal-dir>/replica/`: the latest image
//! it received and the journal records past it. When the owner dies,
//! the router asks the successor to `repl promote` the session — which
//! restores the replica image and replays the records past it, exactly
//! as a restart recovers its own sessions: promotion is recovery from a
//! different directory. No shared disk anywhere.
//!
//! ## Protocol
//!
//! Replication rides the existing line protocol, backend → backend:
//!
//! * `repl subscribe <session> <source-len>` — handshake. The sink
//!   opens (or creates) its standby for the session, heals any torn
//!   tail, and replies `repl subscribed <session> have=<n>`; the source
//!   resumes streaming from `n`. A replica *longer* than the source has
//!   diverged (the session was closed and recreated) and is discarded,
//!   so the reply never points past real history.
//! * `repl append <session> <seq> <command…>` (plus the usual heredoc
//!   framing) — one record at logical index `seq`, the steady state of
//!   one commit. The sink enforces the same exactly-once discipline as
//!   the router's `@seq` stamp: `seq` below the replica length is
//!   acknowledged as a structured `DUPLICATE` without re-appending,
//!   above it refused with `SEQ-GAP` (the source re-handshakes rather
//!   than forking replica history).
//! * `repl range <session> <from> <<BYTES <n>` then exactly `n` raw
//!   bytes ([`encode_frame`]): an optional session image, then the
//!   records from logical index `from`, then an FNV-1a64 checksum of
//!   the records (the image bytes carry page checksums of their own). A
//!   source sends one frame, on the session's stream connection, for
//!   every image it commits (with whatever records past it the
//!   successor lacks) and for every catch-up of more than one record —
//!   after a `subscribe` that found the replica behind, all of it: the
//!   image plus the suffix, one round trip and one sink fsync. Nothing
//!   changes unless the frame verifies: a torn or bit-flipped frame is
//!   refused and the standby stays as it was. Under the standby's own
//!   lock, a verified image newer than the sink's replaces it (write,
//!   read back, rename) and truncates the replica journal at its
//!   watermark; the records then append under the `DUPLICATE`/`SEQ-GAP`
//!   rules above. Frames are bounded by [`MAX_FRAME_BYTES`]; a backend
//!   that does not replicate refuses every `<<BYTES` frame, and any
//!   command but `repl range` that carries one is refused. The reply is
//!   `repl ranged <session> have=<n> image=<w>`.
//! * `repl status` — one `source id=<id> seq=<n> acked=<n> lag=<n>`
//!   row per live journaled session and one
//!   `replica id=<id> seq=<n> image=<w>` row per standby (`image=0`:
//!   none yet). The router's promotion safety check and the bench's lag
//!   percentiles both read this.
//! * `repl promote <session> <min-seq>` — rebuild the session from the
//!   best local evidence (own image and journal, else the standby). If
//!   the best candidate is provably behind `min-seq` — the last seq the
//!   router saw acknowledged to a client — the promotion is refused
//!   with `STALE-REPLICA`: a fleet never serves silently-wrong state.
//!   The standby's image becomes the new owner's image, and the new
//!   owner ships image and suffix to its own successor in one frame
//!   before it answers.
//! * `repl drop <session>` — the owner closed the session: the sink
//!   deletes its standby and answers `ok`, so no later promotion can
//!   bring the closed session back. The owner sends it on the
//!   session's open stream connection, best effort; a sink that is down
//!   at close time keeps its copy.
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
use iwb_store::codec::{ByteReader, ByteWriter};
use iwb_store::fault::{fnv1a64, fnv1a64_extend, FaultPlan, REPL_DISCONNECT, REPL_LAG};
use iwb_store::{rendezvous, SessionSnapshot, SessionStore};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bound on one `repl range` frame: an image plus a catch-up range. A
/// source whose frame would exceed it ships nothing and the replica
/// lags; a sink drops a connection that announces more.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Recover a lock guard even if a previous holder panicked (same
/// policy as the session registry: the data is bookkeeping, poison
/// propagation would turn one fault into an outage).
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Encode a `repl range` frame: an optional image (a snapshot file
/// image and its watermark), the records, and an FNV-1a64 checksum of
/// everything but the image bytes, which carry page checksums of their
/// own.
pub fn encode_frame(image: Option<(u64, &[u8])>, records: &[JournalRecord]) -> Vec<u8> {
    let mut head = ByteWriter::new();
    match image {
        None => head.u8(0),
        Some((watermark, bytes)) => {
            head.u8(1);
            head.u64(watermark);
            head.u32(bytes.len() as u32);
        }
    }
    let mut tail = ByteWriter::new();
    tail.u32(records.len() as u32);
    for record in records {
        tail.str(&record.command);
        match &record.heredoc {
            None => tail.u8(0),
            Some(body) => {
                tail.u8(1);
                tail.str(body);
            }
        }
    }
    let (head, tail) = (head.into_bytes(), tail.into_bytes());
    let sum = fnv1a64_extend(fnv1a64(&head), &tail);
    let image = image.map_or(&[][..], |(_, bytes)| bytes);
    let mut frame = Vec::with_capacity(head.len() + image.len() + tail.len() + 8);
    frame.extend_from_slice(&head);
    frame.extend_from_slice(image);
    frame.extend_from_slice(&tail);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// An image in a frame: its declared watermark and bytes.
type FrameImage<'a> = Option<(u64, &'a [u8])>;

/// Decode and checksum an [`encode_frame`] payload.
pub fn decode_frame(frame: &[u8]) -> Result<(FrameImage<'_>, Vec<JournalRecord>), String> {
    let corrupt = |what: &str| format!("repl range refused: {what}");
    let split = frame
        .len()
        .checked_sub(8)
        .ok_or_else(|| corrupt("frame torn"))?;
    let (body, sum) = frame.split_at(split);
    let mut r = ByteReader::new(body);
    let image = read_image(&mut r).map_err(|e| corrupt(&e.to_string()))?;
    let head = image.map_or(1, |_| 13);
    let tail = head + image.map_or(0, |(_, bytes)| bytes.len());
    if fnv1a64_extend(fnv1a64(&body[..head]), &body[tail..]).to_le_bytes() != sum {
        return Err(corrupt("frame checksum mismatch"));
    }
    let records = read_records(&mut r).map_err(|e| corrupt(&e.to_string()))?;
    Ok((image, records))
}

/// The image part of a frame body.
fn read_image<'a>(r: &mut ByteReader<'a>) -> Result<FrameImage<'a>, iwb_store::CodecError> {
    Ok(match r.u8()? {
        0 => None,
        _ => {
            let watermark = r.u64()?;
            Some((watermark, r.bytes()?))
        }
    })
}

/// The records part of a frame body.
fn read_records(r: &mut ByteReader<'_>) -> Result<Vec<JournalRecord>, iwb_store::CodecError> {
    let mut records = Vec::new();
    for _ in 0..r.u32()? {
        let command = r.str()?;
        let heredoc = match r.u8()? {
            0 => None,
            _ => Some(r.str()?),
        };
        records.push(JournalRecord { command, heredoc });
    }
    Ok(records)
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

/// The outbound half: ships committed journal records (and committed
/// images) to each session's successor. One replicator per registry,
/// shared by every session.
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
    /// after each journaled commit. Best-effort: on any connection or
    /// protocol failure the stream is dropped and the records stay
    /// pending for the next ship — the commit already acked, so only
    /// replication lag grows, never client-visible latency or errors.
    /// A successor behind the journal's base needs the image that
    /// covers it, which only [`Replicator::ship_with`] can send.
    pub fn ship(&self, session: &str, journal: &Mutex<Option<Journal>>, faults: &FaultPlan) {
        self.ship_with(session, journal, None, faults);
    }

    /// [`Replicator::ship`] for a session whose images live in `images`:
    /// a successor behind the journal's base is caught up with the
    /// image plus the suffix in one frame.
    pub fn ship_with(
        &self,
        session: &str,
        journal: &Mutex<Option<Journal>>,
        images: Option<&SessionStore>,
        faults: &FaultPlan,
    ) {
        if faults.fires(REPL_DISCONNECT).is_some() {
            if let Some(state) = recover(self.streams.lock()).get(session) {
                recover(state.lock()).conn = None;
            }
            return;
        }
        if faults.fires(REPL_LAG).is_some() {
            return;
        }
        self.stream(session, journal, images, None);
    }

    /// Ship a just-committed image — its watermark and encoded bytes —
    /// on the session's stream, with the records past it the successor
    /// lacks, so the successor's standby restarts from it.
    pub fn ship_image(&self, session: &str, journal: &Mutex<Option<Journal>>, image: (u64, &[u8])) {
        self.stream(session, journal, None, Some(image));
    }

    fn stream(
        &self,
        session: &str,
        journal: &Mutex<Option<Journal>>,
        images: Option<&SessionStore>,
        mut fresh: Option<(u64, &[u8])>,
    ) {
        let Some(target) = self.config.successor_addr(session) else {
            return;
        };
        let state = Arc::clone(
            recover(self.streams.lock())
                .entry(session.to_owned())
                .or_default(),
        );
        let mut st = recover(state.lock());
        // Bounded re-handshake attempts: one SEQ-GAP (or a divergent
        // replica) earns a resubscribe, persistent failure leaves lag.
        for _ in 0..3 {
            let (len, base) = {
                let guard = recover(journal.lock());
                let Some(journal) = guard.as_ref() else {
                    return;
                };
                (journal.len() as u64, journal.base())
            };
            if st.acked > len {
                st.acked = len; // a shrunk journal means a new history
            }
            if st.acked >= len && fresh.is_none() {
                return;
            }
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
                continue; // re-read the pending range from the acked point
            }
            // Records below the base exist only inside an image now.
            let stored = match (fresh, st.acked < base) {
                (None, true) => match images.map(SessionStore::load_bytes) {
                    Some(Ok(Some(image))) => Some(image),
                    _ => return,
                },
                _ => None,
            };
            let image = fresh.or(stored.as_ref().map(|(w, bytes)| (*w, bytes.as_slice())));
            let from = image.map_or(st.acked, |(w, _)| st.acked.max(w));
            let pending: Vec<JournalRecord> = {
                let guard = recover(journal.lock());
                let Some(journal) = guard.as_ref() else {
                    return;
                };
                let Some(skip) = from.checked_sub(journal.base()) else {
                    return; // the image in place predates the base: nothing can bridge
                };
                journal
                    .records()
                    .get(skip as usize..)
                    .unwrap_or_default()
                    .to_vec()
            };
            let frame =
                (image.is_some() || pending.len() > 1).then(|| encode_frame(image, &pending));
            if frame.as_ref().is_some_and(|f| f.len() > MAX_FRAME_BYTES) {
                return;
            }
            let mut conn = st.conn.take().expect("stream connection present");
            let reply = match frame {
                None => {
                    let record = &pending[0];
                    let line = format!("repl append {session} {from} {}", record.command);
                    match &record.heredoc {
                        Some(body) => conn.request_with_heredoc(&line, body),
                        None => conn.request(&line),
                    }
                    .map(|resp| (resp, from + 1))
                }
                Some(frame) => conn
                    .request_with_bytes(&format!("repl range {session} {from}"), &frame)
                    .map(|resp| {
                        let have = parse_field(&resp.body, "have=").unwrap_or(from);
                        (resp, have)
                    }),
            };
            match reply {
                // `ok` covers fresh appends and DUPLICATE acks alike —
                // either way the sink holds the records.
                Ok((resp, have)) if resp.ok => {
                    st.acked = have;
                    st.conn = Some(conn);
                    fresh = None;
                }
                // The sink is missing history we thought it had (it
                // crashed and healed a torn tail): re-handshake from
                // its healed length.
                Ok((resp, _)) if resp.body.starts_with("SEQ-GAP") => {}
                // Connection dropped or the frame was refused: the next
                // ship re-handshakes.
                Ok(_) | Err(_) => return,
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

/// One standby: the replica journal and the replica image beside it.
struct Replica {
    journal: Journal,
    image: SessionStore,
    /// Watermark of the verified image in place (0: none).
    image_at: u64,
}

/// One standby, behind its own lock (`None` until first use loads it
/// from disk).
type ReplicaSlot = Arc<Mutex<Option<Replica>>>;

/// What a standby holds for promotion: its image (if any) and the
/// journal records from logical index `base`.
pub struct ReplicaEvidence {
    /// The standby image, verified.
    pub image: Option<SessionSnapshot>,
    /// Logical index of `records[0]`.
    pub base: u64,
    /// The replica journal's records.
    pub records: Vec<JournalRecord>,
}

/// The inbound half: warm standbys for sessions owned elsewhere, kept
/// under `<journal-dir>/replica/` as ordinary journal and image files —
/// the same framing, checksums, and torn-tail healing as live
/// sessions, so promotion is just recovery from a different directory.
/// The map lock is held only to find or insert a session's slot; every
/// append, image install and truncation runs under that standby's own
/// lock, so one slow standby never stalls the others.
pub struct ReplicaStore {
    config: JournalConfig,
    open: Mutex<HashMap<String, ReplicaSlot>>,
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

    /// `session`'s slot, inserted empty if new (map lock only).
    fn slot(&self, session: &str) -> ReplicaSlot {
        Arc::clone(
            recover(self.open.lock())
                .entry(session.to_owned())
                .or_default(),
        )
    }

    /// `session`'s standby image file.
    pub(crate) fn image_file(&self, session: &str) -> SessionStore {
        let mut store = SessionStore::new(&self.config.dir, session);
        store.fsync = self.config.fsync;
        store
    }

    /// The loaded replica in `slot`: an existing journal (its torn tail
    /// healed) and image, or a fresh journal.
    fn load<'a>(
        &self,
        slot: &'a mut Option<Replica>,
        session: &str,
    ) -> io::Result<&'a mut Replica> {
        if slot.is_none() {
            let path = Journal::path_for(&self.config.dir, session);
            let journal = if path.exists() {
                let loaded = Journal::load(&path)?;
                Journal::adopt(&self.config, session, loaded.records, loaded.base)?
            } else {
                Journal::create(&self.config, session)?
            };
            let image = self.image_file(session);
            let image_at = match image.load_bytes() {
                Ok(Some((watermark, _))) => watermark,
                _ => 0,
            };
            *slot = Some(Replica {
                journal,
                image,
                image_at,
            });
        }
        Ok(slot.as_mut().expect("replica just loaded"))
    }

    /// Run `f` on `session`'s loaded replica under its own lock.
    fn with<R>(
        &self,
        session: &str,
        f: impl FnOnce(&mut Replica) -> Result<R, String>,
    ) -> Result<R, String> {
        let slot = self.slot(session);
        let mut guard = recover(slot.lock());
        let replica = self
            .load(&mut guard, session)
            .map_err(|e| format!("replica journal unavailable: {e}"))?;
        f(replica)
    }

    /// Handshake: how many records this replica already holds, after
    /// healing any torn tail. A replica longer than the source's
    /// journal has diverged (the session was closed and recreated
    /// under the same id) and is discarded rather than trusted.
    pub fn subscribe(&self, session: &str, source_len: u64) -> io::Result<u64> {
        let slot = self.slot(session);
        let mut guard = recover(slot.lock());
        if self.load(&mut guard, session)?.journal.len() as u64 > source_len {
            let stale = guard.take().expect("replica just loaded");
            stale.image.discard()?;
            stale.journal.discard()?;
        }
        Ok(self.load(&mut guard, session)?.journal.len() as u64)
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
        self.with(session, |replica| {
            let have = replica.journal.len() as u64;
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
            replica
                .journal
                .append(record, faults)
                .map_err(|e| format!("replica append failed: {e}"))?;
            Ok(format!("repl appended {session} seq={seq}"))
        })
    }

    /// Apply one `repl range` frame (see the module docs) under the
    /// standby's lock: verify it whole, install a newer image and
    /// truncate the replica journal at its watermark, then append the
    /// records from `from` with one fsync. Nothing changes unless the
    /// frame verifies.
    pub fn apply_range(
        &self,
        session: &str,
        from: u64,
        frame: &[u8],
        faults: &FaultPlan,
    ) -> Result<String, String> {
        let (image, records) = decode_frame(frame)?;
        self.with(session, |replica| {
            if let Some((watermark, bytes)) = image {
                // The install reads the image back through its own
                // checksums, and only then replaces the standby's.
                if watermark > replica.image_at {
                    replica
                        .image
                        .install(bytes, watermark, faults)
                        .map_err(|e| format!("repl range refused: image {e}"))?;
                    replica.image_at = watermark;
                    replica
                        .journal
                        .truncate_to(watermark)
                        .map_err(|e| format!("replica truncate failed: {e}"))?;
                }
            }
            let have = replica.journal.len() as u64;
            if from > have {
                return Err(iwb_core::proto::RetryableError::SeqGap {
                    expected: have,
                    got: from,
                }
                .to_string());
            }
            let fresh: Vec<JournalRecord> =
                records.into_iter().skip((have - from) as usize).collect();
            replica
                .journal
                .append_all(fresh, faults)
                .map_err(|e| format!("replica append failed: {e}"))?;
            Ok(format!(
                "repl ranged {session} have={} image={}",
                replica.journal.len(),
                replica.image_at
            ))
        })
    }

    /// One `(session, len, image watermark)` row per standby — every
    /// open one plus any on disk not opened yet.
    pub fn status(&self) -> Vec<(String, u64, u64)> {
        if let Ok(paths) = Journal::scan_dir(&self.config.dir) {
            for path in paths {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    self.slot(stem);
                }
            }
        }
        let slots: Vec<(String, ReplicaSlot)> = recover(self.open.lock())
            .iter()
            .map(|(id, slot)| (id.clone(), Arc::clone(slot)))
            .collect();
        let mut rows: Vec<(String, u64, u64)> = slots
            .into_iter()
            .filter_map(|(id, slot)| {
                let mut guard = recover(slot.lock());
                let replica = self.load(&mut guard, &id).ok()?;
                Some((id, replica.journal.len() as u64, replica.image_at))
            })
            .collect();
        rows.sort();
        rows
    }

    /// What the standby for `session` holds, if one exists — promotion
    /// restores this when it beats (or is all that is left of) the
    /// local evidence.
    pub fn evidence(&self, session: &str) -> Option<ReplicaEvidence> {
        let exists = recover(self.open.lock()).contains_key(session)
            || Journal::path_for(&self.config.dir, session).exists();
        if !exists {
            return None;
        }
        self.with(session, |replica| {
            let image = match replica.image_at {
                0 => None,
                _ => replica.image.load().ok().flatten(),
            };
            Ok(ReplicaEvidence {
                image,
                base: replica.journal.base(),
                records: replica.journal.records().to_vec(),
            })
        })
        .ok()
    }

    /// Drop `session`'s standby (the session was promoted here — the
    /// live journal takes over — or deliberately closed).
    pub fn remove(&self, session: &str) {
        let slot = recover(self.open.lock())
            .remove(session)
            .unwrap_or_default();
        let loaded = recover(slot.lock()).take();
        match loaded {
            Some(replica) => {
                let _ = replica.journal.discard();
                let _ = replica.image.discard();
            }
            None => {
                let _ = std::fs::remove_file(Journal::path_for(&self.config.dir, session));
                let _ = self.image_file(session).discard();
            }
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
        assert_eq!(replicas.status(), vec![("s1".to_owned(), 2, 0)]);
        // A record past the replica's length would fork history.
        let gap = replicas
            .append("s1", 5, rec("accept a.x b.y"), &none)
            .unwrap_err();
        assert!(gap.starts_with("SEQ-GAP"), "{gap}");
        assert_eq!(
            replicas.evidence("s1").unwrap().records,
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
            replicas.evidence("s1").unwrap().records,
            vec![rec("load er a"), rec("match a b")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_to_one_replica_never_waits_for_another() {
        let dir = temp_dir("locks");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        let replicas = Arc::new(ReplicaStore::new(&config));
        replicas.subscribe("a", 0).unwrap();
        replicas.subscribe("b", 0).unwrap();
        // Hold replica a's own lock, as a slow append would; an append
        // to b must still complete.
        let slot_a = replicas.slot("a");
        let held = slot_a.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let replicas = Arc::clone(&replicas);
            std::thread::spawn(move || {
                let out = replicas.append("b", 0, rec("load er b"), &FaultPlan::none());
                tx.send(out).unwrap();
            })
        };
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("append to b blocked behind replica a's lock");
        assert!(out.is_ok(), "{out:?}");
        drop(held);
        worker.join().unwrap();
        assert_eq!(
            replicas.status(),
            vec![("a".to_owned(), 0, 0), ("b".to_owned(), 1, 0)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn image(session: &str, watermark: u64) -> Vec<u8> {
        let mut segments = std::collections::BTreeMap::new();
        segments.insert("state".to_string(), vec![watermark as u8; 9000]);
        SessionSnapshot {
            session_id: session.to_owned(),
            watermark,
            segments,
        }
        .encode()
    }

    #[test]
    fn a_range_installs_a_newer_image_and_truncates_the_replica() {
        let dir = temp_dir("range");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        let replicas = ReplicaStore::new(&config);
        let none = FaultPlan::none();
        replicas.subscribe("s1", 0).unwrap();
        // Catch-up without an image: three records, one frame.
        let records: Vec<JournalRecord> = (0..3).map(|i| rec(&format!("cmd {i}"))).collect();
        let frame = encode_frame(None, &records);
        assert_eq!(
            replicas.apply_range("s1", 0, &frame, &none),
            Ok("repl ranged s1 have=3 image=0".to_owned())
        );
        // An image at 2 truncates the journal below it; the overlap
        // of the range is acknowledged as already held.
        let frame = encode_frame(Some((2, &image("s1", 2))), &records[2..]);
        assert_eq!(
            replicas.apply_range("s1", 2, &frame, &none),
            Ok("repl ranged s1 have=3 image=2".to_owned())
        );
        let evidence = replicas.evidence("s1").unwrap();
        assert_eq!((evidence.base, evidence.records.len()), (2, 1));
        assert_eq!(evidence.image.unwrap().watermark, 2);
        // A steady-state image — alone, its records already held — keeps
        // the records past it.
        replicas.append("s1", 3, rec("cmd 3"), &none).unwrap();
        let frame = encode_frame(Some((3, &image("s1", 3))), &[]);
        assert_eq!(
            replicas.apply_range("s1", 3, &frame, &none),
            Ok("repl ranged s1 have=4 image=3".to_owned())
        );
        let evidence = replicas.evidence("s1").unwrap();
        assert_eq!(evidence.base, 3);
        assert_eq!(evidence.records, vec![rec("cmd 3")]);
        // An image ahead of the records empties the journal at it.
        let frame = encode_frame(Some((7, &image("s1", 7))), &[]);
        assert_eq!(
            replicas.apply_range("s1", 7, &frame, &none),
            Ok("repl ranged s1 have=7 image=7".to_owned())
        );
        // A range past the replica's length would fork history.
        let gap = replicas
            .apply_range("s1", 9, &encode_frame(None, &records), &none)
            .unwrap_err();
        assert!(gap.starts_with("SEQ-GAP expected=7 got=9"), "{gap}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_or_bit_flipped_frame_changes_nothing() {
        let dir = temp_dir("refuse");
        let mut config = JournalConfig::new(&dir);
        config.fsync = false;
        let replicas = ReplicaStore::new(&config);
        let none = FaultPlan::none();
        replicas.subscribe("s1", 0).unwrap();
        let good = encode_frame(Some((1, &image("s1", 1))), &[rec("cmd 1")]);
        replicas.apply_range("s1", 1, &good, &none).unwrap();
        let before = replicas.status();
        let next = encode_frame(Some((4, &image("s1", 4))), &[rec("cmd 4")]);
        // A flipped record byte: the frame checksum refuses it.
        let mut flipped = next.clone();
        let last = flipped.len() - 9;
        flipped[last] ^= 0x10;
        let torn = next[..next.len() / 2].to_vec();
        // A bit flip inside the image, which the frame checksum leaves
        // to the image's own page checksums.
        let inner = {
            let mut img = image("s1", 4);
            img[200] ^= 0x01;
            encode_frame(Some((4, &img)), &[rec("cmd 4")])
        };
        // An image whose declared watermark is not the one inside it.
        let lying = encode_frame(Some((5, &image("s1", 4))), &[]);
        for bad in [flipped, torn, inner, lying] {
            let err = replicas.apply_range("s1", 4, &bad, &none).unwrap_err();
            assert!(err.starts_with("repl range refused"), "{err}");
            assert_eq!(replicas.status(), before);
        }
        assert_eq!(replicas.evidence("s1").unwrap().image.unwrap().watermark, 1);
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
