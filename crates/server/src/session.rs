//! The session registry: session IDs → live shells.
//!
//! Each session owns a full [`Shell`] (its own
//! [`iwb_core::WorkbenchManager`] and blackboard) behind a `Mutex`, so
//! commands *within* a session are serialized — the manager's
//! transactional invariants (§5.2) hold unchanged — while different
//! sessions execute in parallel on different worker threads. The
//! registry enforces a live-session cap and evicts sessions that have
//! been idle past a configurable timeout.
//!
//! ## Robustness
//!
//! Shell commands execute through [`Session::execute_command`], which
//! wraps the tool invocation in `catch_unwind` *inside* the shell
//! lock's critical section: a panicking tool surfaces as a protocol
//! error instead of killing the worker, and the lock is released
//! cleanly rather than poisoned. Should a lock be poisoned anyway
//! (a panic at some other point), every lock site recovers the guard
//! instead of propagating. After `quarantine_after` consecutive
//! panics a session is quarantined — further commands are rejected
//! with a protocol error while `session close` still works and every
//! other session keeps running.
//!
//! Each command additionally runs under an interruption
//! [`Budget`]: the daemon's `--default-deadline-ms` (or a per-call
//! deadline) bounds wall-clock time, and `cancel <session>` from any
//! connection flips the in-flight command's [`CancelToken`]. Both
//! abort cooperatively with [`ExecOutcome::Interrupted`] — the command
//! writes no partial result and is never journaled, so the session
//! stays attachable with exactly its pre-command state.
//!
//! With journaling enabled (see [`crate::journal`]) each successful
//! mutating command is appended to the session's journal before the
//! response is sent; [`SessionRegistry::recover`] replays journals on
//! startup so a restarted daemon reattaches clients to their
//! pre-crash sessions.

use crate::journal::{Journal, JournalConfig, JournalRecord, LoadedJournal};
use crate::repl::{stale_replica, ReplConfig, ReplicaStore, Replicator};
use crate::stats::{Counter, Counters, ServerCounter, ServerStats};
use iwb_core::persist::{self, SessionState};
use iwb_core::shell::Shell;
use iwb_core::tool::ToolError;
use iwb_pool::{BackgroundWorker, Budget, CancelToken, Deadline, Interrupt};
use iwb_store::fault::{FaultPlan, EXEC_ERROR, EXEC_HANG, EXEC_PANIC, EXEC_SLOW, SHARD_STALL};
use iwb_store::{CommandRecord, SessionSnapshot, SessionStore};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recover a lock guard even if a previous holder panicked: the data
/// under the lock is either the shell (already treated as suspect via
/// quarantine) or plain bookkeeping, so propagating the poison would
/// only turn one fault into a daemon-wide outage.
fn recover<'a, T>(
    result: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The result of running one shell command in a session.
#[derive(Debug)]
pub enum ExecOutcome {
    /// The command succeeded.
    Output(String),
    /// The command failed with a (real or injected) tool error.
    ToolError(String),
    /// The command was aborted cooperatively — cancelled via
    /// [`Session::cancel`] or past its deadline — before writing any
    /// result. Nothing was journaled; session state is untouched.
    Interrupted(Interrupt),
    /// The command panicked; the panic was contained. `quarantined`
    /// reports whether this fault tripped the quarantine threshold.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
        /// Whether the session is now quarantined.
        quarantined: bool,
    },
    /// The session is quarantined; the command was not run.
    Quarantined,
}

/// Configuration of the on-disk snapshot store (`workbenchd --store`).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `<session>.snap` snapshot files (usually the
    /// journal directory, so one `--store DIR` names both).
    pub dir: PathBuf,
    /// fsync snapshot files before renaming them into place.
    pub fsync: bool,
    /// Schedule a background snapshot every N journaled commands
    /// (0: snapshot only on eviction and graceful shutdown).
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

/// The snapshot lifecycle's counters (the commit-then-verify
/// handshake).
#[derive(Debug, Clone, Copy)]
pub enum StoreCounter {
    /// Snapshots committed *and* verified by read-back.
    Committed,
    /// Snapshot commits that failed verification (torn, bit-flipped,
    /// stale, or an I/O error); the journal was kept self-sufficient.
    VerifyFailed,
    /// Journal truncations performed after a verified snapshot.
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

/// Snapshot-lifecycle counters, shared by every session of a registry.
pub type StoreStats = Counters<StoreCounter, 3>;

/// Per-session handle on the snapshot store: the file handle itself,
/// the shared background worker snapshots run on, and the cadence.
struct StoreContext {
    store: SessionStore,
    worker: Arc<BackgroundWorker>,
    snapshot_every: u64,
    stats: Arc<StoreStats>,
}

/// The commit-then-verify handshake: write the snapshot, read it back
/// through full checksum verification, and only then truncate the
/// journal prefix the snapshot covers. On any failure the journal is
/// widened back to a complete history (base 0) — a corrupt commit may
/// have clobbered the snapshot an earlier truncation relied on, and a
/// journal that can replay alone is the one durability anchor fault
/// injection cannot reach.
fn commit_verify_truncate(
    store: &SessionStore,
    snapshot: &SessionSnapshot,
    faults: &FaultPlan,
    journal: &Mutex<Option<Journal>>,
    stats: &StoreStats,
) {
    let verified = store.commit(snapshot, faults).is_ok()
        && matches!(store.load(), Ok(Some(loaded)) if loaded.watermark == snapshot.watermark);
    let mut guard = recover(journal.lock());
    if verified {
        stats.add(StoreCounter::Committed, 1);
        if let Some(journal) = guard.as_mut() {
            if journal.truncate_to(snapshot.watermark).is_ok() {
                stats.add(StoreCounter::Truncated, 1);
            }
        }
    } else {
        stats.add(StoreCounter::VerifyFailed, 1);
        if let Some(journal) = guard.as_mut() {
            let _ = journal.rebase(0);
        }
    }
}

/// One live integration session.
pub struct Session {
    id: String,
    shell: Mutex<Shell>,
    journal: Arc<Mutex<Option<Journal>>>,
    store: Option<StoreContext>,
    /// Streams each journaled commit to the session's rendezvous
    /// successor (see [`crate::repl`]); `None` outside a fleet.
    repl: Option<Arc<Replicator>>,
    last_used: Mutex<Instant>,
    commands: AtomicU64,
    consecutive_panics: AtomicU32,
    quarantined: AtomicBool,
    /// Cancel token of the command in flight right now, if any. Armed
    /// by [`Session::execute_command`] for its duration; another
    /// connection's `cancel <session>` flips it without needing the
    /// shell lock.
    current_cancel: Mutex<Option<CancelToken>>,
}

impl Session {
    fn new(
        id: String,
        journal: Option<Journal>,
        store: Option<StoreContext>,
        repl: Option<Arc<Replicator>>,
    ) -> Self {
        Session {
            id,
            shell: Mutex::new(Shell::new()),
            journal: Arc::new(Mutex::new(journal)),
            store,
            repl,
            last_used: Mutex::new(Instant::now()),
            commands: AtomicU64::new(0),
            consecutive_panics: AtomicU32::new(0),
            quarantined: AtomicBool::new(false),
            current_cancel: Mutex::new(None),
        }
    }

    /// The session id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Run `f` holding this session's shell lock; refreshes the idle
    /// clock and the command counter. Panics inside `f` are *not*
    /// contained here — use [`Session::execute_command`] for tool
    /// commands.
    pub fn with_shell<R>(&self, f: impl FnOnce(&mut Shell) -> R) -> R {
        let mut shell = recover(self.shell.lock());
        let out = f(&mut shell);
        self.commands.fetch_add(1, Ordering::Relaxed);
        *recover(self.last_used.lock()) = Instant::now();
        out
    }

    /// The session's sequence number: how many mutating commands its
    /// journal holds (full history, not just the on-disk suffix). The
    /// fleet router stamps mutating commands `@N` against this counter
    /// so a redelivered command is acknowledged, not re-executed.
    pub fn seq(&self) -> u64 {
        recover(self.journal.lock())
            .as_ref()
            .map_or(0, |j| j.len() as u64)
    }

    /// Execute one shell command with panic isolation, fault
    /// injection, quarantine accounting, and journaling. This is the
    /// daemon's only entry point for tool commands.
    pub fn execute_command(
        &self,
        command: &str,
        heredoc: Option<&str>,
        faults: &FaultPlan,
        quarantine_after: u32,
        stats: &ServerStats,
        deadline: Option<Duration>,
    ) -> ExecOutcome {
        self.execute_sequenced(
            command,
            heredoc,
            faults,
            quarantine_after,
            stats,
            deadline,
            None,
        )
    }

    /// [`Session::execute_command`] with an optional sequence number
    /// (the router's `@N` stamp). For a journaled mutating command the
    /// guard compares `N` against [`Session::seq`]:
    ///
    /// * `N < seq` — the command was already applied by an earlier
    ///   delivery (the backend journaled it, then crashed before the
    ///   ack reached the router). It is acknowledged with a structured
    ///   `DUPLICATE` body and **not** re-executed: exactly-once.
    /// * `N > seq` — some earlier mutation is missing (split routing, a
    ///   stale recovery); executing would fork history, so the command
    ///   is refused with a structured `SEQ-GAP` error.
    /// * `N == seq` — in order; executes normally.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_sequenced(
        &self,
        command: &str,
        heredoc: Option<&str>,
        faults: &FaultPlan,
        quarantine_after: u32,
        stats: &ServerStats,
        deadline: Option<Duration>,
        seq: Option<u64>,
    ) -> ExecOutcome {
        if self.quarantined.load(Ordering::SeqCst) {
            return ExecOutcome::Quarantined;
        }
        if let Some(got) = seq {
            if iwb_core::shell::mutates(command) && recover(self.journal.lock()).is_some() {
                let expected = self.seq();
                if got < expected {
                    return ExecOutcome::Output(
                        iwb_core::proto::RetryableError::Duplicate { seq: got }.to_string(),
                    );
                }
                if got > expected {
                    return ExecOutcome::ToolError(
                        iwb_core::proto::RetryableError::SeqGap { expected, got }.to_string(),
                    );
                }
            }
        }
        let slow = faults.fires(EXEC_SLOW).filter(|&ms| ms > 0);
        let hang = faults.fires(EXEC_HANG).filter(|&ms| ms > 0);
        let stall = faults.fires(SHARD_STALL).filter(|&ms| ms > 0);
        let inject_error = faults.fires(EXEC_ERROR).is_some();
        let inject_panic = faults.fires(EXEC_PANIC).is_some();
        let fired = [
            slow.is_some(),
            hang.is_some(),
            stall.is_some(),
            inject_error,
            inject_panic,
        ]
        .into_iter()
        .filter(|&f| f)
        .count();
        if fired > 0 {
            stats
                .counters
                .add(ServerCounter::FaultsInjected, fired as u64);
        }
        if inject_error {
            return ExecOutcome::ToolError(format!("injected fault: tool failure ({EXEC_ERROR})"));
        }

        // Arm the cancel slot so `cancel <session>` issued on another
        // connection can interrupt this command while it runs.
        let token = CancelToken::new();
        *recover(self.current_cancel.lock()) = Some(token.clone());
        let budget = Budget::new(
            token,
            deadline.map_or_else(Deadline::none, Deadline::within),
        );
        let budget = match stall {
            Some(ms) => budget.with_stall_ms(ms),
            None => budget,
        };

        // The catch_unwind sits *inside* the critical section so an
        // unwinding tool releases (not poisons) the shell lock.
        let result = self.with_shell(|shell| {
            if let Some(ms) = slow {
                std::thread::sleep(Duration::from_millis(ms));
            }
            // An injected hang sleeps in short ticks while watching the
            // budget: a deadline or cancel reaps the command *before*
            // it executes, so nothing mutates and nothing is journaled.
            if let Some(ms) = hang {
                wait_out_hang(ms, &budget)?;
            }
            Ok(catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected fault: panic ({EXEC_PANIC})");
                }
                shell.execute_with_budget(command, heredoc, &budget)
            })))
        });
        *recover(self.current_cancel.lock()) = None;
        match result {
            Ok(Ok(Ok(output))) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                if iwb_core::shell::mutates(command) {
                    self.journal_commit(command, heredoc, faults, stats);
                }
                ExecOutcome::Output(output)
            }
            Err(why) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, why);
                ExecOutcome::Interrupted(why)
            }
            Ok(Ok(Err(ToolError::Cancelled))) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, Interrupt::Cancelled);
                ExecOutcome::Interrupted(Interrupt::Cancelled)
            }
            Ok(Ok(Err(ToolError::DeadlineExceeded))) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, Interrupt::DeadlineExceeded);
                ExecOutcome::Interrupted(Interrupt::DeadlineExceeded)
            }
            Ok(Ok(Err(e))) => ExecOutcome::ToolError(e.to_string()),
            Ok(Err(payload)) => {
                stats.counters.add(ServerCounter::PanicsCaught, 1);
                let n = self.consecutive_panics.fetch_add(1, Ordering::SeqCst) + 1;
                let quarantined = quarantine_after > 0 && n >= quarantine_after;
                if quarantined && !self.quarantined.swap(true, Ordering::SeqCst) {
                    stats.counters.add(ServerCounter::SessionsQuarantined, 1);
                }
                ExecOutcome::Panicked {
                    message: panic_message(payload.as_ref()),
                    quarantined,
                }
            }
        }
    }

    /// Cancel the command currently executing in this session, if any;
    /// `true` when an in-flight command was told to stop. Safe to call
    /// from any thread — it flips the armed [`CancelToken`] without
    /// touching the shell lock.
    pub fn cancel(&self) -> bool {
        match recover(self.current_cancel.lock()).as_ref() {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Append a committed mutating command to the journal (no-op when
    /// journaling is off). Journal I/O failures degrade to a counter:
    /// the command already mutated in-memory state, so the response
    /// stays `ok` and durability weakens rather than the session lying
    /// about a command it did apply.
    fn journal_commit(
        &self,
        command: &str,
        heredoc: Option<&str>,
        faults: &FaultPlan,
        stats: &ServerStats,
    ) {
        let mut snapshot_due = false;
        {
            let mut journal = recover(self.journal.lock());
            if let Some(journal) = journal.as_mut() {
                let record = JournalRecord {
                    command: command.to_owned(),
                    heredoc: heredoc.map(str::to_owned),
                };
                match journal.append(record, faults) {
                    Ok(torn) => {
                        stats.counters.add(ServerCounter::JournalRecords, 1);
                        if torn {
                            stats.counters.add(ServerCounter::JournalTorn, 1);
                        }
                        snapshot_due = self.store.as_ref().is_some_and(|ctx| {
                            ctx.snapshot_every > 0
                                && (journal.len() as u64).is_multiple_of(ctx.snapshot_every)
                        });
                    }
                    Err(_) => stats.counters.add(ServerCounter::JournalErrors, 1),
                }
            }
        }
        // Offer the commit to the session's replication successor
        // before the client sees `ok` — semi-synchronous: a dead
        // successor only grows replication lag (reported by
        // `repl status`), never the client's answer.
        self.ship_replica(faults);
        if snapshot_due {
            self.schedule_snapshot(faults);
        }
    }

    /// Stream every unacknowledged journal record to this session's
    /// rendezvous successor (no-op outside a fleet).
    fn ship_replica(&self, faults: &FaultPlan) {
        if let Some(repl) = &self.repl {
            repl.ship(&self.id, &self.journal, faults);
        }
    }

    /// Capture a consistent snapshot image: shell state and journal
    /// history under both locks (shell first, then journal — the same
    /// order the execute path uses, so no lock-order inversion). `None`
    /// when the session has no journal: the embedded command prefix is
    /// the snapshot's authoritative recovery input, so a snapshot
    /// without one would be unrecoverable decoration.
    fn capture_snapshot(&self) -> Option<SessionSnapshot> {
        let mut shell = recover(self.shell.lock());
        let (watermark, commands) = {
            let journal = recover(self.journal.lock());
            let journal = journal.as_ref()?;
            let commands: Vec<CommandRecord> = journal
                .records()
                .iter()
                .map(|r| CommandRecord {
                    command: r.command.clone(),
                    heredoc: r.heredoc.clone(),
                })
                .collect();
            (journal.len() as u64, commands)
        };
        let state = persist::capture(&mut shell);
        Some(state.into_snapshot(self.id.clone(), watermark, commands))
    }

    /// Schedule a background snapshot (cadence reached). Capture is
    /// synchronous — cheap clones under the locks — while the write,
    /// verify read-back, and journal truncation run on the registry's
    /// shared snapshot worker.
    fn schedule_snapshot(&self, faults: &FaultPlan) {
        let Some(ctx) = &self.store else { return };
        let Some(snapshot) = self.capture_snapshot() else {
            return;
        };
        let store = ctx.store.clone();
        let faults = faults.clone();
        let journal = Arc::clone(&self.journal);
        let stats = Arc::clone(&ctx.stats);
        ctx.worker.submit(move || {
            commit_verify_truncate(&store, &snapshot, &faults, &journal, &stats);
        });
    }

    /// Snapshot synchronously (eviction and graceful shutdown).
    fn flush_snapshot(&self, faults: &FaultPlan) {
        let Some(ctx) = &self.store else { return };
        let Some(snapshot) = self.capture_snapshot() else {
            return;
        };
        commit_verify_truncate(&ctx.store, &snapshot, faults, &self.journal, &ctx.stats);
    }

    /// Delete the session's snapshot file, if any (deliberate close).
    fn discard_store(&self) {
        if let Some(ctx) = &self.store {
            let _ = ctx.store.discard();
        }
    }

    /// Whether the session is quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Remove and delete the session's journal file (clean close or
    /// eviction: there is nothing left worth recovering).
    fn discard_journal(&self) {
        if let Some(journal) = recover(self.journal.lock()).take() {
            let _ = journal.discard();
        }
    }

    /// Time since the last command (or creation).
    pub fn idle_for(&self) -> Duration {
        recover(self.last_used.lock()).elapsed()
    }

    /// Commands executed in this session.
    pub fn command_count(&self) -> u64 {
        self.commands.load(Ordering::Relaxed)
    }

    /// Whether the session is evictable right now: idle past the
    /// timeout *and* not mid-command (the shell lock is free).
    fn evictable(&self, idle_timeout: Duration) -> bool {
        self.shell.try_lock().is_ok() && self.idle_for() >= idle_timeout
    }
}

/// Sleep out an injected `exec-hang` in short ticks, aborting early if
/// the command's budget is cancelled or past its deadline. Polls the
/// token and deadline directly (not [`Budget::check`]) because a
/// concurrent `shard-stall` fault makes `check` itself stall.
fn wait_out_hang(ms: u64, budget: &Budget) -> Result<(), Interrupt> {
    const TICK: Duration = Duration::from_millis(10);
    let end = Instant::now() + Duration::from_millis(ms);
    loop {
        if budget.token().is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if budget.deadline().expired() {
            return Err(Interrupt::DeadlineExceeded);
        }
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        std::thread::sleep((end - now).min(TICK));
    }
}

/// Bump the matching error-budget counter for an interrupted command.
fn record_interrupt(stats: &ServerStats, why: Interrupt) {
    let counter = match why {
        Interrupt::Cancelled => ServerCounter::CommandsCancelled,
        Interrupt::DeadlineExceeded => ServerCounter::CommandsDeadlineExceeded,
    };
    stats.counters.add(counter, 1);
}

/// Render a panic payload (`&str` / `String` payloads; anything else
/// becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("commands", &self.command_count())
            .field("quarantined", &self.is_quarantined())
            .finish_non_exhaustive()
    }
}

/// Why a session could not be created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The live-session cap is reached and nothing is evictable.
    AtCapacity(usize),
    /// The requested id is already in use.
    DuplicateId(String),
    /// The requested id is empty, contains whitespace or path
    /// separators, or starts with a dot (ids name journal files).
    BadId(String),
    /// Opening the session's journal file failed.
    Journal(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::AtCapacity(cap) => {
                write!(f, "session cap reached ({cap} live sessions)")
            }
            RegistryError::DuplicateId(id) => write!(f, "session {id:?} already exists"),
            RegistryError::BadId(id) => write!(f, "bad session id {id:?}"),
            RegistryError::Journal(e) => write!(f, "session journal unavailable: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Whether `id` is acceptable as a session id (and journal file stem).
fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && !id.starts_with('.')
        && !id
            .chars()
            .any(|c| c.is_whitespace() || c == '/' || c == '\\')
}

/// What `SessionRegistry::recover` found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions recreated from journals.
    pub sessions: usize,
    /// Commands replayed across all recovered sessions.
    pub replayed: usize,
    /// Journals whose torn/corrupt tail was dropped and healed.
    pub torn_tails: usize,
    /// Sessions skipped (unreadable journal, bad header, incomplete
    /// history, duplicate id, or over the session cap).
    pub skipped: usize,
    /// Replayed commands that errored (should be zero: they succeeded
    /// before the crash).
    pub replay_errors: usize,
    /// Sessions reopened warm: a verified snapshot primed their match
    /// results, blocking index, and text features before replay.
    pub warm: usize,
    /// Snapshots that failed verification (torn, bit-flipped, stale
    /// version) and were bypassed in favor of plain journal replay.
    pub snapshot_fallbacks: usize,
}

/// A session's replayable history: every command, the journal base a
/// verified snapshot covers, and that snapshot's warm engine state.
type History = (Vec<JournalRecord>, u64, Option<SessionState>);

/// The registry of live sessions.
pub struct SessionRegistry {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    max_sessions: usize,
    idle_timeout: Duration,
    counter: AtomicU64,
    journal: Option<JournalConfig>,
    store: Option<StoreConfig>,
    store_worker: Option<Arc<BackgroundWorker>>,
    store_stats: Arc<StoreStats>,
    /// Outbound journal streaming (fleet mode).
    replicator: Option<Arc<Replicator>>,
    /// Inbound standby journals for sessions owned elsewhere.
    replicas: Option<Arc<ReplicaStore>>,
}

impl SessionRegistry {
    /// A registry holding at most `max_sessions` sessions, evicting
    /// after `idle_timeout` of inactivity.
    pub fn new(max_sessions: usize, idle_timeout: Duration) -> Self {
        SessionRegistry {
            sessions: Mutex::new(HashMap::new()),
            max_sessions: max_sessions.max(1),
            idle_timeout,
            counter: AtomicU64::new(0),
            journal: None,
            store: None,
            store_worker: None,
            store_stats: Arc::new(StoreStats::default()),
            replicator: None,
            replicas: None,
        }
    }

    /// Enable per-session command journaling under `config.dir`.
    pub fn with_journal(mut self, config: JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Enable the persistent snapshot store: sessions snapshot on
    /// cadence (background), on eviction, and on graceful shutdown,
    /// and [`SessionRegistry::recover`] reopens them warm. Requires
    /// journaling — snapshots cover a journal watermark.
    pub fn with_store(mut self, config: StoreConfig) -> Self {
        self.store_worker = Some(Arc::new(BackgroundWorker::new("iwb-snapshot")));
        self.store = Some(config);
        self
    }

    /// Enable streamed journal replication: every journaled commit is
    /// shipped to the session's rendezvous successor, and this backend
    /// accepts standby journals from peers that rank it next (see
    /// [`crate::repl`]). Requires journaling — replicas *are* journals
    /// (callers without a journal config get a registry with
    /// replication silently off; [`crate::serve`] rejects that
    /// combination up front).
    pub fn with_repl(mut self, config: ReplConfig) -> Self {
        if let Some(journal) = &self.journal {
            self.replicas = Some(Arc::new(ReplicaStore::new(journal)));
            self.replicator = Some(Arc::new(Replicator::new(config)));
        }
        self
    }

    /// Whether journaling is enabled.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Whether fleet replication is enabled.
    pub fn replicating(&self) -> bool {
        self.replicator.is_some()
    }

    /// Handshake for an inbound replication stream: open (and heal)
    /// the standby journal for `id`, discard it if it has diverged
    /// past the source's history, and report how many records it
    /// holds — the source resumes streaming from there.
    pub fn repl_subscribe(&self, id: &str, source_len: u64) -> Result<u64, String> {
        if !valid_id(id) {
            return Err(format!("invalid session id {id:?}"));
        }
        let replicas = self.replicas.as_ref().ok_or("replication disabled")?;
        replicas
            .subscribe(id, source_len)
            .map_err(|e| format!("replica journal unavailable: {e}"))
    }

    /// Accept one streamed record at logical index `seq` into `id`'s
    /// standby journal (DUPLICATE/SEQ-GAP guarded — see
    /// [`ReplicaStore::append`]).
    pub fn repl_append(
        &self,
        id: &str,
        seq: u64,
        record: JournalRecord,
        faults: &FaultPlan,
    ) -> Result<String, String> {
        if !valid_id(id) {
            return Err(format!("invalid session id {id:?}"));
        }
        let replicas = self.replicas.as_ref().ok_or("replication disabled")?;
        replicas.append(id, seq, record, faults)
    }

    /// Drop `id`'s standby journal: its owner closed the session.
    pub fn repl_drop(&self, id: &str) -> Result<(), String> {
        if !valid_id(id) {
            return Err(format!("invalid session id {id:?}"));
        }
        let replicas = self.replicas.as_ref().ok_or("replication disabled")?;
        replicas.remove(id);
        Ok(())
    }

    /// The replication status body: fleet membership, one `source` row
    /// per live journaled session (its seq, how far the successor has
    /// acknowledged, and the lag between them), and one `replica` row
    /// per standby journal held for peers. `None` when replication is
    /// off.
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
            for (id, len) in replicas.status() {
                lines.push(format!("replica id={id} seq={len}"));
            }
        }
        Some(lines.join("\n"))
    }

    /// Promote `id` on this backend from the best local evidence — own
    /// journal/snapshot, or the standby replica streamed by the owner —
    /// refusing with `STALE-REPLICA` when that evidence is provably
    /// behind `min_seq`, the last seq the router saw acknowledged to a
    /// client. This is the fleet's only way to move a session: crash
    /// failover and planned migration promote on a successor, an
    /// aborted migration promotes the released session back on its old
    /// owner, and a router attaching a session that is live nowhere
    /// promotes it with `min_seq` 0. Idempotent for a session that is
    /// already live (and current).
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
        let mut report = RecoveryReport::default();
        // Evidence this backend cannot prove complete counts as none:
        // the replica may still meet the floor.
        let local = self.own_history(&config, id, &mut report).ok().flatten();
        let replica = self.replicas.as_ref().and_then(|r| r.history(id));
        let local_len = local.as_ref().map_or(0, |(r, _, _)| r.len() as u64);
        let replica_len = replica.as_ref().map_or(0, |r| r.len() as u64);
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
        // Prefer the longer history; ties go to local evidence, which
        // may carry a warm snapshot the replica cannot.
        if replica_len > local_len {
            let records = replica.expect("replica history present");
            self.rebuild_session(&config, id, records, 0, None, &mut report, stats);
        } else {
            let (records, base, warm) = local.expect("local history present");
            self.rebuild_session(&config, id, records, base, warm, &mut report, stats);
        }
        stats.recovery(&report);
        let session = self
            .get(id)
            .ok_or_else(|| format!("promotion of session {id:?} was refused"))?;
        // The live journal takes over: the local standby copy would
        // only diverge from here, and this backend now streams the
        // session onward to its *own* successor.
        if let Some(replicas) = &self.replicas {
            replicas.remove(id);
        }
        session.ship_replica(&FaultPlan::none());
        Ok(session.seq())
    }

    /// Snapshot-lifecycle counters (all zero when no store is
    /// configured).
    pub fn store_stats(&self) -> &StoreStats {
        &self.store_stats
    }

    /// Block until every scheduled background snapshot has run its
    /// commit-then-verify handshake.
    pub fn drain_snapshots(&self) {
        if let Some(worker) = &self.store_worker {
            worker.drain();
        }
    }

    /// Synchronously snapshot every live session (graceful shutdown);
    /// returns how many sessions were flushed. Scheduled background
    /// snapshots are drained first so the flush is the last word.
    pub fn flush_snapshots(&self) -> usize {
        if self.store.is_none() {
            return 0;
        }
        self.drain_snapshots();
        let sessions: Vec<Arc<Session>> = recover(self.sessions.lock()).values().cloned().collect();
        let mut flushed = 0;
        for session in &sessions {
            if session.store.is_some() {
                session.flush_snapshot(&FaultPlan::none());
                flushed += 1;
            }
        }
        flushed
    }

    /// Build the per-session store handle, when a store is configured.
    fn store_context(&self, id: &str) -> Option<StoreContext> {
        let config = self.store.as_ref()?;
        let worker = self.store_worker.as_ref()?;
        let mut store = SessionStore::new(&config.dir, id);
        store.fsync = config.fsync;
        Some(StoreContext {
            store,
            worker: Arc::clone(worker),
            snapshot_every: config.snapshot_every,
            stats: Arc::clone(&self.store_stats),
        })
    }

    /// Create a session. With `requested: None` an id is minted
    /// (`s1`, `s2`, …). At capacity, idle sessions are evicted first;
    /// if none are evictable the call fails.
    pub fn create(&self, requested: Option<&str>) -> Result<Arc<Session>, RegistryError> {
        let id = match requested {
            Some(name) => {
                if !valid_id(name) {
                    return Err(RegistryError::BadId(name.to_owned()));
                }
                name.to_owned()
            }
            None => format!("s{}", self.counter.fetch_add(1, Ordering::Relaxed) + 1),
        };
        let mut map = recover(self.sessions.lock());
        if map.contains_key(&id) {
            return Err(RegistryError::DuplicateId(id));
        }
        if map.len() >= self.max_sessions {
            self.evict_idle_locked(&mut map);
        }
        if map.len() >= self.max_sessions {
            return Err(RegistryError::AtCapacity(self.max_sessions));
        }
        let journal = match &self.journal {
            Some(config) => Some(
                Journal::create(config, &id).map_err(|e| RegistryError::Journal(e.to_string()))?,
            ),
            None => None,
        };
        let session = Arc::new(Session::new(
            id.clone(),
            journal,
            self.store_context(&id),
            self.replicator.clone(),
        ));
        map.insert(id, Arc::clone(&session));
        Ok(session)
    }

    /// Rebuild sessions from the journal (and snapshot) directory.
    ///
    /// For each readable journal: pair it with its snapshot if a store
    /// is configured. A verified snapshot contributes its embedded
    /// command prefix (so a truncated journal still replays a full
    /// history) and primes the engine — match results and the blocking
    /// index *before* replay, text features *after* — so the replayed
    /// commands reopen warm instead of recomputing. A snapshot that
    /// fails verification (torn, bit-flipped, stale version) is
    /// bypassed: if the journal is self-sufficient (base 0) the
    /// session rebuilds from replay alone; if not, the session is
    /// refused — never silently wrong. Call before serving traffic.
    pub fn recover(&self, stats: &ServerStats) -> io::Result<RecoveryReport> {
        let Some(config) = self.journal.clone() else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport::default();
        // Every journal, plus snapshots without a journal file (a crash
        // between the two deletes of a close, or a pruned directory): a
        // verified snapshot alone still carries the full command history.
        let mut ids = BTreeSet::new();
        for path in Journal::scan_dir(&config.dir)? {
            match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) => {
                    ids.insert(stem.to_owned());
                }
                None => report.skipped += 1,
            }
        }
        if let Some(store_config) = &self.store {
            ids.extend(SessionStore::scan_dir(&store_config.dir));
        }
        for id in ids {
            if !valid_id(&id) {
                report.skipped += 1;
                continue;
            }
            match self.own_history(&config, &id, &mut report) {
                Ok(Some((records, base, warm))) => {
                    self.rebuild_session(&config, &id, records, base, warm, &mut report, stats)
                }
                Ok(None) | Err(_) => report.skipped += 1,
            }
        }
        stats.recovery(&report);
        Ok(report)
    }

    /// Release a live session for migration: persist its final
    /// snapshot, drain its replication stream, then drop it from the
    /// live map *keeping* its on-disk state (unlike
    /// [`SessionRegistry::close`], which deletes it), so an aborted
    /// migration can [`SessionRegistry::promote`] it back here. Returns
    /// the session's sequence watermark — the router's promotion floor
    /// for the successor. Waits for any in-flight command: the snapshot
    /// flush takes the shell lock, so the command completes (and
    /// journals) first.
    pub fn release(&self, id: &str) -> Result<u64, String> {
        if self.journal.is_none() {
            return Err("journaling disabled: nothing to release".into());
        }
        let session = recover(self.sessions.lock())
            .remove(id)
            .ok_or_else(|| format!("no session {id:?}"))?;
        if session.store.is_some() {
            self.drain_snapshots();
            session.flush_snapshot(&FaultPlan::none());
        }
        // Drain the replication stream at the released watermark so a
        // planned migration's successor can promote from its replica
        // with zero lag.
        session.ship_replica(&FaultPlan::none());
        Ok(session.seq())
    }

    /// This backend's own evidence for `id`: its journal paired with
    /// its snapshot, or a verified snapshot alone when no journal file
    /// exists. `Ok(None)`: nothing usable is persisted. `Err`: the
    /// journal exists but cannot prove a complete history (unreadable,
    /// its header names another session, or it was truncated under a
    /// snapshot that is gone) — the session is refused, never rebuilt
    /// wrong.
    fn own_history(
        &self,
        config: &JournalConfig,
        id: &str,
        report: &mut RecoveryReport,
    ) -> Result<Option<History>, String> {
        let path = Journal::path_for(&config.dir, id);
        if !path.exists() {
            return Ok(self
                .load_snapshot_for(id, report)
                .map(Self::snapshot_history));
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
        self.paired_history(loaded, report).map(Some)
    }

    /// Pair a loaded journal with its snapshot (when a store is
    /// configured) into the full replayable history. `Err` means the
    /// combination cannot prove a complete history — a truncated
    /// journal whose covering snapshot is missing, stale, or behind
    /// the journal's base — and the session must be refused.
    fn paired_history(
        &self,
        loaded: LoadedJournal,
        report: &mut RecoveryReport,
    ) -> Result<History, String> {
        match self.load_snapshot_for(&loaded.session_id, report) {
            Some(snap) => {
                if snap.watermark < loaded.base {
                    // The on-disk journal starts *after* this
                    // snapshot's coverage: a newer snapshot justified
                    // that truncation and is now gone. The records in
                    // between are unrecoverable.
                    return Err(format!(
                        "snapshot watermark {} behind journal base {}: history incomplete",
                        snap.watermark, loaded.base
                    ));
                }
                // Full history = the snapshot's embedded prefix + the
                // journal records past the watermark.
                let skip = ((snap.watermark - loaded.base) as usize).min(loaded.records.len());
                let (mut records, base, warm) = Self::snapshot_history(snap);
                records.extend_from_slice(&loaded.records[skip..]);
                Ok((records, base, warm))
            }
            None => {
                if loaded.base > 0 {
                    // The journal prefix was truncated under a
                    // snapshot that is now missing or corrupt: the
                    // history is incomplete, refuse.
                    return Err(format!(
                        "journal truncated to base {} with no verified snapshot",
                        loaded.base
                    ));
                }
                Ok((loaded.records, 0, None))
            }
        }
    }

    /// A verified snapshot's contribution to recovery: its embedded
    /// command prefix, its watermark as the journal base, and the warm
    /// engine state to prime around replay.
    fn snapshot_history(snap: SessionSnapshot) -> History {
        let records: Vec<JournalRecord> = snap
            .commands
            .iter()
            .map(|c| JournalRecord {
                command: c.command.clone(),
                heredoc: c.heredoc.clone(),
            })
            .collect();
        let base = snap.watermark;
        let warm = Some(SessionState::from_snapshot(&snap));
        (records, base, warm)
    }

    /// Load and verify `id`'s snapshot. `None` means no usable
    /// snapshot: either none exists, or verification failed (counted
    /// as a fallback; the caller decides whether the journal alone
    /// suffices).
    fn load_snapshot_for(&self, id: &str, report: &mut RecoveryReport) -> Option<SessionSnapshot> {
        let config = self.store.as_ref()?;
        let mut store = SessionStore::new(&config.dir, id);
        store.fsync = config.fsync;
        match store.load() {
            Ok(None) => None,
            Ok(Some(snap)) if snap.session_id == id => Some(snap),
            Ok(Some(_)) | Err(_) => {
                report.snapshot_fallbacks += 1;
                None
            }
        }
    }

    /// Recreate one session from its full command history, priming
    /// warm state around the replay, and re-arm its journal with
    /// `records[..base]` covered by the verified snapshot.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_session(
        &self,
        config: &JournalConfig,
        id: &str,
        records: Vec<JournalRecord>,
        base: u64,
        warm: Option<SessionState>,
        report: &mut RecoveryReport,
        stats: &ServerStats,
    ) {
        let session = {
            let mut map = recover(self.sessions.lock());
            if map.contains_key(id) || map.len() >= self.max_sessions {
                report.skipped += 1;
                return;
            }
            let session = Arc::new(Session::new(
                id.to_owned(),
                None,
                self.store_context(id),
                self.replicator.clone(),
            ));
            map.insert(id.to_owned(), Arc::clone(&session));
            session
        };
        // Content-keyed artifacts go in *before* replay (replayed
        // commands recognise and reuse them); text features go in
        // *after* (replayed loads emit SchemaGraph events that would
        // wipe an earlier priming).
        if let Some(state) = &warm {
            session.with_shell(|shell| persist::prime_artifacts(shell, state));
        }
        for record in &records {
            let result = session
                .with_shell(|shell| shell.execute(&record.command, record.heredoc.as_deref()));
            report.replayed += 1;
            if result.is_err() {
                report.replay_errors += 1;
            }
        }
        if let Some(state) = &warm {
            session.with_shell(|shell| persist::prime_features(shell, state));
            report.warm += 1;
        }
        // Re-arm journaling on a healed file so post-recovery commands
        // keep appending to the same history.
        match Journal::adopt(config, id, records, base) {
            Ok(journal) => *recover(session.journal.lock()) = Some(journal),
            Err(_) => stats.counters.add(ServerCounter::JournalErrors, 1),
        }
        report.sessions += 1;
    }

    /// Look up a session.
    pub fn get(&self, id: &str) -> Option<Arc<Session>> {
        recover(self.sessions.lock()).get(id).cloned()
    }

    /// Close a session; `true` if it existed. The session's snapshot
    /// and journal files (if any) are deleted — a deliberate close is
    /// not a crash. The snapshot goes first: should the process die
    /// between the two deletes, what remains is a journal that replays
    /// in full, not a snapshot resurrecting a closed session.
    pub fn close(&self, id: &str) -> bool {
        match recover(self.sessions.lock()).remove(id) {
            Some(session) => {
                session.discard_store();
                session.discard_journal();
                if let Some(replicator) = &self.replicator {
                    // The successor drops its replica too, or a router
                    // finding the session live nowhere would promote
                    // the closed session back.
                    replicator.forget(id);
                }
                true
            }
            None => false,
        }
    }

    /// Evict every idle session (idle past the timeout and not
    /// mid-command); returns the evicted ids.
    pub fn evict_idle(&self) -> Vec<String> {
        let mut map = recover(self.sessions.lock());
        self.evict_idle_locked(&mut map)
    }

    fn evict_idle_locked(&self, map: &mut HashMap<String, Arc<Session>>) -> Vec<String> {
        let victims: Vec<String> = map
            .iter()
            .filter(|(_, s)| s.evictable(self.idle_timeout))
            .map(|(id, _)| id.clone())
            .collect();
        for id in &victims {
            if let Some(session) = map.remove(id) {
                if session.store.is_some() {
                    // Under a store, eviction persists instead of
                    // forgetting: the snapshot and journal stay on
                    // disk so recovery reopens the session warm.
                    session.flush_snapshot(&FaultPlan::none());
                } else {
                    session.discard_journal();
                }
            }
        }
        victims
    }

    /// Live sessions right now.
    pub fn len(&self) -> usize {
        recover(self.sessions.lock()).len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One `(id, commands, idle, quarantined)` row per live session,
    /// sorted by id.
    pub fn list(&self) -> Vec<(String, u64, Duration, bool)> {
        let map = recover(self.sessions.lock());
        let mut rows: Vec<(String, u64, Duration, bool)> = map
            .values()
            .map(|s| {
                (
                    s.id().to_owned(),
                    s.command_count(),
                    s.idle_for(),
                    s.is_quarantined(),
                )
            })
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn create_get_close_roundtrip() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let s = reg.create(None).unwrap();
        assert_eq!(s.id(), "s1");
        assert!(reg.get("s1").is_some());
        let named = reg.create(Some("alice")).unwrap();
        assert_eq!(named.id(), "alice");
        assert_eq!(reg.len(), 2);
        assert!(reg.close("alice"));
        assert!(!reg.close("alice"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn duplicate_and_bad_ids_are_rejected() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        reg.create(Some("x")).unwrap();
        assert_eq!(
            reg.create(Some("x")).unwrap_err(),
            RegistryError::DuplicateId("x".into())
        );
        for bad in ["a b", "", "../evil", "a/b", "a\\b", ".hidden"] {
            assert!(
                matches!(reg.create(Some(bad)).unwrap_err(), RegistryError::BadId(_)),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn cap_is_enforced_and_eviction_frees_slots() {
        let reg = SessionRegistry::new(2, Duration::from_millis(0));
        reg.create(Some("a")).unwrap();
        reg.create(Some("b")).unwrap();
        // idle_timeout = 0 means both are instantly evictable, so a
        // third create succeeds by evicting.
        reg.create(Some("c")).unwrap();
        assert!(reg.len() <= 2);

        let strict = SessionRegistry::new(2, Duration::from_secs(3600));
        strict.create(Some("a")).unwrap();
        strict.create(Some("b")).unwrap();
        assert_eq!(
            strict.create(Some("c")).unwrap_err(),
            RegistryError::AtCapacity(2)
        );
    }

    #[test]
    fn sessions_isolate_state_and_count_commands() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let a = reg.create(Some("a")).unwrap();
        let b = reg.create(Some("b")).unwrap();
        let out = a.with_shell(|sh| {
            sh.run_on("load er only_in_a <<EOF\nentity E { f : text }\nEOF\n")
                .transcript
        });
        assert!(out.contains("loaded only_in_a"), "{out}");
        let b_export = b.with_shell(|sh| sh.run_on("export\n").transcript);
        assert!(!b_export.contains("only_in_a"), "leak: {b_export}");
        assert_eq!(a.command_count(), 1);
        assert_eq!(b.command_count(), 1);
    }

    #[test]
    fn busy_sessions_are_not_evicted() {
        let reg = SessionRegistry::new(2, Duration::from_millis(0));
        let a = reg.create(Some("a")).unwrap();
        // Hold a's shell lock: a is "mid-command" and must survive.
        let guard = a.shell.lock().unwrap();
        let evicted = reg.evict_idle();
        assert!(!evicted.contains(&"a".to_owned()));
        drop(guard);
        assert!(reg.evict_idle().contains(&"a".to_owned()));
    }

    #[test]
    fn list_reports_rows_sorted() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        reg.create(Some("zeta")).unwrap();
        reg.create(Some("alpha")).unwrap();
        let rows = reg.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "alpha");
        assert_eq!(rows[1].0, "zeta");
        assert!(!rows[0].3, "fresh sessions are not quarantined");
    }

    #[test]
    fn panic_is_contained_and_session_stays_usable() {
        crate::quiet_injected_panics();
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let stats = ServerStats::new();
        let s = reg.create(Some("x")).unwrap();
        let plan = FaultSpec::seeded(1).at(EXEC_PANIC, &[0]).build();

        match exec(&s, "show coverage", None, &plan, &stats) {
            ExecOutcome::Panicked {
                message,
                quarantined,
            } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(!quarantined);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The lock is not poisoned and the session keeps working.
        match exec(&s, "show coverage", None, &plan, &stats) {
            ExecOutcome::Output(out) => assert!(out.contains("task")),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_panics_quarantine_the_session() {
        crate::quiet_injected_panics();
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let stats = ServerStats::new();
        let s = reg.create(Some("x")).unwrap();
        let plan = FaultSpec::seeded(1).at(EXEC_PANIC, &[0, 1, 2]).build();

        for i in 0..3 {
            match exec(&s, "show coverage", None, &plan, &stats) {
                ExecOutcome::Panicked { quarantined, .. } => {
                    assert_eq!(quarantined, i == 2, "fault {i}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
        assert!(s.is_quarantined());
        assert!(matches!(
            exec(&s, "show coverage", None, &plan, &stats),
            ExecOutcome::Quarantined
        ));
        // Closing a quarantined session still works.
        assert!(reg.close("x"));
    }

    #[test]
    fn a_success_resets_the_panic_streak() {
        crate::quiet_injected_panics();
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let stats = ServerStats::new();
        let s = reg.create(Some("x")).unwrap();
        // Panics at calls 0, 1 then a success at 2, then panics at 3, 4:
        // never three in a row, so never quarantined.
        let plan = FaultSpec::seeded(1).at(EXEC_PANIC, &[0, 1, 3, 4]).build();
        for _ in 0..5 {
            let outcome = exec(&s, "show coverage", None, &plan, &stats);
            assert!(!matches!(outcome, ExecOutcome::Quarantined), "{outcome:?}");
        }
        assert!(!s.is_quarantined());
    }

    #[test]
    fn injected_tool_errors_do_not_quarantine() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let stats = ServerStats::new();
        let s = reg.create(Some("x")).unwrap();
        let plan = FaultSpec::seeded(1).rate(EXEC_ERROR, 1.0).build();
        for _ in 0..5 {
            assert!(matches!(
                exec(&s, "show coverage", None, &plan, &stats),
                ExecOutcome::ToolError(_)
            ));
        }
        assert!(!s.is_quarantined());
    }

    #[test]
    fn a_hung_command_is_reaped_by_the_deadline_and_not_journaled() {
        let dir = std::env::temp_dir().join(format!("iwb-reg-hang-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = JournalConfig::new(&dir);
        let stats = ServerStats::new();
        let reg = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config.clone());
        let s = reg.create(Some("hang")).unwrap();
        // The command would hang for 60 s; a 50 ms deadline must reap
        // it within 2x the deadline, before it executes or journals.
        let plan = FaultSpec::seeded(1)
            .at(EXEC_HANG, &[0])
            .millis(EXEC_HANG, 60_000)
            .build();
        let started = Instant::now();
        let outcome = s.execute_command(
            "load er po",
            Some("entity A { x : text }\n"),
            &plan,
            3,
            &stats,
            Some(Duration::from_millis(50)),
        );
        assert!(
            matches!(
                outcome,
                ExecOutcome::Interrupted(Interrupt::DeadlineExceeded)
            ),
            "{outcome:?}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "reap took {:?}, budget was 50ms",
            started.elapsed()
        );
        assert_eq!(
            stats.counters.get(ServerCounter::CommandsDeadlineExceeded),
            1
        );
        // The session survives and the aborted command left no trace:
        // a restart replays an empty journal.
        let export = match s.execute_command("export", None, &FaultPlan::none(), 3, &stats, None) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        };
        assert!(!export.contains("po"), "aborted load leaked: {export}");
        drop(reg);
        let fresh = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!((report.sessions, report.replayed), (1, 0), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_interrupts_an_in_flight_command_from_another_thread() {
        let reg = SessionRegistry::new(4, Duration::from_secs(60));
        let stats = ServerStats::new();
        let s = reg.create(Some("busy")).unwrap();
        let plan = FaultSpec::seeded(1)
            .at(EXEC_HANG, &[0])
            .millis(EXEC_HANG, 60_000)
            .build();
        let worker = {
            let s = Arc::clone(&s);
            let stats = ServerStats::new();
            std::thread::spawn(move || {
                s.execute_command("show coverage", None, &plan, 3, &stats, None)
            })
        };
        // Spin until the command has armed its cancel token.
        let started = Instant::now();
        while !s.cancel() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "command never armed its cancel token"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let outcome = worker.join().unwrap();
        assert!(
            matches!(outcome, ExecOutcome::Interrupted(Interrupt::Cancelled)),
            "{outcome:?}"
        );
        // With nothing in flight, cancel reports so.
        assert!(!s.cancel());
        // The session remains fully usable.
        let outcome = s.execute_command("show coverage", None, &FaultPlan::none(), 3, &stats, None);
        assert!(matches!(outcome, ExecOutcome::Output(_)), "{outcome:?}");
    }

    #[test]
    fn journaled_sessions_recover_after_restart() {
        let dir = std::env::temp_dir().join(format!("iwb-reg-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = JournalConfig::new(&dir);
        let none = FaultPlan::none();
        let stats = ServerStats::new();

        let reg = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config.clone());
        let s = reg.create(Some("alpha")).unwrap();
        let load = exec(
            &s,
            "load er po",
            Some("entity A { x : text }\n"),
            &none,
            &stats,
        );
        assert!(matches!(load, ExecOutcome::Output(_)), "{load:?}");
        let before = match exec(&s, "export", None, &none, &stats) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        };
        drop(reg); // simulated crash: journal file survives

        let fresh = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (report.sessions, report.replayed, report.replay_errors),
            (1, 1, 0),
            "{report:?}"
        );
        let recovered = fresh.get("alpha").expect("recovery rebuilt the session");
        // `export` is read-only, so it was never journaled — but the
        // mutating prefix rebuilds identical state.
        let after = match exec(&recovered, "export", None, &none, &stats) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        };
        assert_eq!(before, after, "recovered state must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_index_registry_and_serves_candidates() {
        let dir = std::env::temp_dir().join(format!("iwb-reg-blocking-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = JournalConfig::new(&dir);
        let none = FaultPlan::none();
        let stats = ServerStats::new();

        let reg = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config.clone());
        let s = reg.create(Some("blocker")).unwrap();
        let load = exec(
            &s,
            "load er q",
            Some("entity VENDOR { vendor_id : text }\n"),
            &none,
            &stats,
        );
        assert!(matches!(load, ExecOutcome::Output(_)), "{load:?}");
        let indexed = exec(&s, "index-registry seed 7 scale 0.02", None, &none, &stats);
        assert!(matches!(indexed, ExecOutcome::Output(_)), "{indexed:?}");
        let before = match exec(&s, "find-candidates q 3", None, &none, &stats) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        };
        drop(reg); // simulated crash

        let fresh = SessionRegistry::new(4, Duration::from_secs(60)).with_journal(config);
        let report = fresh.recover(&stats).unwrap();
        // Both the load and the index build replay; the read-only
        // `find-candidates` was never journaled.
        assert_eq!(
            (report.sessions, report.replayed, report.replay_errors),
            (1, 2, 0),
            "{report:?}"
        );
        let recovered = fresh.get("blocker").expect("recovery rebuilt the session");
        let after = match exec(&recovered, "find-candidates q 3", None, &none, &stats) {
            ExecOutcome::Output(out) => out,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            before, after,
            "replayed index must rank candidates identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closing_a_journaled_session_deletes_its_file() {
        let dir = std::env::temp_dir().join(format!("iwb-reg-close-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg =
            SessionRegistry::new(4, Duration::from_secs(60)).with_journal(JournalConfig::new(&dir));
        reg.create(Some("gone")).unwrap();
        assert!(Journal::path_for(&dir, "gone").exists());
        assert!(reg.close("gone"));
        assert!(!Journal::path_for(&dir, "gone").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- persistent store (snapshots + warm reopen) ----

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

    /// The mutating command sequence the warm-reopen tests replay:
    /// two loads, an automatic match, a lock, a re-match, an index.
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
        drop(reg); // simulated crash: snapshot + journal survive

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (
                report.sessions,
                report.warm,
                report.replay_errors,
                report.snapshot_fallbacks
            ),
            (1, 1, 0, 0),
            "{report:?}"
        );
        assert_eq!(report.replayed, WARM_SCRIPT.len(), "full history replays");
        let recovered = fresh.get("warm").expect("recovery rebuilt the session");
        // The expensive steps were served from the snapshot, not
        // recomputed: both matches and the index build hit primed state.
        let (match_hits, index_hits) = recovered.with_shell(|shell| {
            let manager = shell.manager_mut();
            let m = manager
                .tool_mut::<iwb_core::tools::HarmonyTool>("harmony")
                .unwrap()
                .primed_hits();
            let b = manager
                .tool_mut::<iwb_core::tools::BlockingTool>("blocking")
                .unwrap()
                .primed_hits();
            (m, b)
        });
        assert_eq!(match_hits, 2, "both replayed matches served warm");
        assert_eq!(index_hits, 1, "index restored from parts, not rebuilt");
        assert_eq!(
            before,
            export_of(&recovered, &stats),
            "warm reopen must be byte-identical"
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
        assert_eq!((report.sessions, report.warm), (1, 1), "{report:?}");
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
            // One snapshot commit exactly (after the 3rd journaled
            // command), so fault index 0 corrupts the only file.
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
            drop(reg);

            let fresh = store_registry(&dir, 1);
            let report = fresh.recover(&stats).unwrap();
            // The corrupt snapshot is detected and bypassed; the
            // journal replays the full history — never silently wrong.
            assert!(report.snapshot_fallbacks >= 1, "{spec}: {report:?}");
            assert_eq!(
                (report.sessions, report.replayed, report.replay_errors),
                (1, 3, 0),
                "{spec}: {report:?}"
            );
            let recovered = fresh.get("c").expect("journal replay rebuilt the session");
            assert_eq!(before, export_of(&recovered, &stats), "{spec}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_corrupt_snapshot_after_truncation_rewidens_the_journal() {
        // The crash-between-snapshot-and-compact window: snapshot 0
        // verifies and truncates the journal to its watermark; snapshot
        // 1 is torn in flight, clobbering the verified file. The failed
        // verify must widen the journal back to a complete history, or
        // the session would be unrecoverable.
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
        let before = export_of(&s, &stats);
        drop(reg); // crash with a corrupt snapshot on disk

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!(
            (
                report.sessions,
                report.warm,
                report.snapshot_fallbacks,
                report.replayed
            ),
            (1, 0, 1, 2),
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
        // verified snapshot (which embeds the command prefix) survives.
        std::fs::remove_file(Journal::path_for(&dir, "solo")).unwrap();

        let fresh = store_registry(&dir, 1);
        let report = fresh.recover(&stats).unwrap();
        assert_eq!((report.sessions, report.warm), (1, 1), "{report:?}");
        let recovered = fresh.get("solo").expect("snapshot alone recovers");
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

            // The snapshot alone cannot prove the journal held nothing
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

    // ---- fleet: sequence guard + single-session migration ----

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
}
