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
//! This module is the session lifecycle (create, execute, evict,
//! close); [`recovery`] persists sessions as images and rebuilds them
//! (image plus journal suffix), and [`replication`] is the fleet side:
//! shipping to the successor, the sink's `repl` verbs, promotion and
//! release.
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
//! mutating command is appended to the session's journal inside the
//! shell lock, before the response is sent — so the journal never lags
//! the shell, and an image captured under that lock is exactly the
//! state at its watermark. [`SessionRegistry::recover`] rebuilds
//! sessions on startup so a restarted daemon reattaches clients to
//! their pre-crash sessions.

mod recovery;
mod replication;

pub use recovery::{RecoveryReport, StoreConfig, StoreCounter, StoreStats};

use crate::journal::{Journal, JournalConfig, JournalRecord};
use crate::repl::{ReplicaStore, Replicator};
use crate::stats::{ServerCounter, ServerStats};
use iwb_core::shell::Shell;
use iwb_core::tool::ToolError;
use iwb_pool::{BackgroundWorker, Budget, CancelToken, Deadline, Interrupt};
use iwb_store::fault::{FaultPlan, EXEC_ERROR, EXEC_HANG, EXEC_PANIC, EXEC_SLOW, SHARD_STALL};
use iwb_store::SessionSnapshot;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// One live integration session.
pub struct Session {
    id: String,
    shell: Mutex<Shell>,
    journal: Arc<Mutex<Option<Journal>>>,
    /// Where the session's images go (see [`recovery`]); `None`
    /// without a store.
    images: Option<Arc<recovery::Images>>,
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
        shell: Shell,
        journal: Option<Journal>,
        images: Option<Arc<recovery::Images>>,
        repl: Option<Arc<Replicator>>,
    ) -> Self {
        Session {
            id,
            shell: Mutex::new(shell),
            journal: Arc::new(Mutex::new(journal)),
            images,
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
    /// history holds (the whole logical history, including the prefix
    /// an image covers). The fleet router stamps mutating commands `@N`
    /// against this counter so a redelivered command is acknowledged,
    /// not re-executed.
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
        let mutates = iwb_core::shell::mutates(command);
        if let Some(got) = seq {
            if mutates && recover(self.journal.lock()).is_some() {
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
        // unwinding tool releases (not poisons) the shell lock, and a
        // successful mutation is journaled before the lock is released.
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
            let out = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected fault: panic ({EXEC_PANIC})");
                }
                shell.execute_with_budget(command, heredoc, &budget)
            }));
            let image = match &out {
                Ok(Ok(_)) if mutates => self.journal_commit(shell, command, heredoc, faults, stats),
                _ => None,
            };
            Ok((out, image))
        });
        *recover(self.current_cancel.lock()) = None;
        match result {
            Ok((Ok(Ok(output)), image)) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                if mutates {
                    // Offer the commit to the session's replication
                    // successor before the client sees `ok` —
                    // semi-synchronous: a dead successor only grows
                    // replication lag (reported by `repl status`),
                    // never the client's answer.
                    self.ship_replica(faults);
                }
                if let Some(image) = image {
                    self.schedule_image(image, faults);
                }
                ExecOutcome::Output(output)
            }
            Err(why) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, why);
                ExecOutcome::Interrupted(why)
            }
            Ok((Ok(Err(ToolError::Cancelled)), _)) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, Interrupt::Cancelled);
                ExecOutcome::Interrupted(Interrupt::Cancelled)
            }
            Ok((Ok(Err(ToolError::DeadlineExceeded)), _)) => {
                self.consecutive_panics.store(0, Ordering::SeqCst);
                record_interrupt(stats, Interrupt::DeadlineExceeded);
                ExecOutcome::Interrupted(Interrupt::DeadlineExceeded)
            }
            Ok((Ok(Err(e)), _)) => ExecOutcome::ToolError(e.to_string()),
            Ok((Err(payload), _)) => {
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
    /// journaling is off), under the shell lock. Journal I/O failures
    /// degrade to a counter: the command already mutated in-memory
    /// state, so the response stays `ok` and durability weakens rather
    /// than the session lying about a command it did apply. Returns the
    /// image to commit when the append reached the image cadence.
    fn journal_commit(
        &self,
        shell: &Shell,
        command: &str,
        heredoc: Option<&str>,
        faults: &FaultPlan,
        stats: &ServerStats,
    ) -> Option<SessionSnapshot> {
        let watermark = {
            let mut journal = recover(self.journal.lock());
            let journal = journal.as_mut()?;
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
                }
                Err(_) => {
                    stats.counters.add(ServerCounter::JournalErrors, 1);
                    return None;
                }
            }
            journal.len() as u64
        };
        let every = self.images.as_ref()?.every;
        (every > 0 && watermark.is_multiple_of(every)).then(|| self.capture_image(shell, watermark))
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

/// The registry of live sessions.
pub struct SessionRegistry {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    max_sessions: usize,
    idle_timeout: Duration,
    counter: AtomicU64,
    journal: Option<JournalConfig>,
    /// The image store and the worker its background commits run on.
    store: Option<(StoreConfig, Arc<BackgroundWorker>)>,
    store_stats: Arc<StoreStats>,
    /// Outbound journal streaming (fleet mode).
    replicator: Option<Arc<Replicator>>,
    /// Inbound standbys for sessions owned elsewhere.
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

    /// Whether journaling is enabled.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
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
        let full = {
            let map = recover(self.sessions.lock());
            if map.contains_key(&id) {
                return Err(RegistryError::DuplicateId(id));
            }
            map.len() >= self.max_sessions
        };
        if full {
            self.evict_idle();
        }
        let mut map = recover(self.sessions.lock());
        if map.contains_key(&id) {
            return Err(RegistryError::DuplicateId(id));
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
            Shell::new(),
            journal,
            self.images_for(&id, 0),
            self.replicator.clone(),
        ));
        map.insert(id, Arc::clone(&session));
        Ok(session)
    }

    /// Look up a session.
    pub fn get(&self, id: &str) -> Option<Arc<Session>> {
        recover(self.sessions.lock()).get(id).cloned()
    }

    /// Close a session; `true` if it existed. The session's image and
    /// journal files (if any) are deleted — a deliberate close is not a
    /// crash. The image goes first: should the process die between the
    /// two deletes, a journal past its base is refused at recovery
    /// rather than an image resurrecting a closed session.
    pub fn close(&self, id: &str) -> bool {
        match recover(self.sessions.lock()).remove(id) {
            Some(session) => {
                session.discard_image();
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
    /// mid-command); returns the evicted ids. Under a store each victim
    /// is imaged first — a disk write and a ship to its successor — with
    /// the session map unlocked, so lookups, attaches and promotions
    /// never wait on it; a victim used meanwhile stays live.
    pub fn evict_idle(&self) -> Vec<String> {
        let idle: Vec<Arc<Session>> = recover(self.sessions.lock())
            .values()
            .filter(|s| s.evictable(self.idle_timeout))
            .cloned()
            .collect();
        for session in &idle {
            if session.images.is_some() {
                // Under a store, eviction persists instead of
                // forgetting: the image and journal stay on disk so
                // recovery restores the session.
                session.flush_image();
            }
        }
        let mut map = recover(self.sessions.lock());
        let mut evicted = Vec::new();
        for session in idle {
            let still_idle = session.evictable(self.idle_timeout)
                && map
                    .get(session.id())
                    .is_some_and(|live| Arc::ptr_eq(live, &session));
            if still_idle {
                map.remove(session.id());
                if session.images.is_none() {
                    session.discard_journal();
                }
                evicted.push(session.id().to_owned());
            }
        }
        evicted
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
    use iwb_store::fault::FaultSpec;

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
    fn eviction_ships_its_image_with_the_session_map_unlocked() {
        use crate::repl::ReplConfig;
        use iwb_store::fault::REPL_LAG;
        // A successor that accepts connections and never answers.
        let wedged = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = std::env::temp_dir().join(format!("iwb-evict-ship-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Arc::new(
            SessionRegistry::new(4, Duration::ZERO)
                .with_journal(JournalConfig::new(&dir))
                .with_store(StoreConfig {
                    dir: dir.clone(),
                    fsync: false,
                    snapshot_every: 0,
                })
                .with_repl(ReplConfig {
                    peers: vec![
                        "127.0.0.1:1".into(),
                        wedged.local_addr().unwrap().to_string(),
                    ],
                    self_index: 0,
                }),
        );
        let stats = ServerStats::new();
        // The command's own ship is skipped: only the eviction ships.
        let lag = FaultSpec::seeded(1).at(REPL_LAG, &[0]).build();
        let s = reg.create(Some("idle")).unwrap();
        let out = exec(
            &s,
            "load er a",
            Some("entity A { x : text }\n"),
            &lag,
            &stats,
        );
        assert!(matches!(out, ExecOutcome::Output(_)), "{out:?}");
        drop(s);

        let evictor = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.evict_idle())
        };
        // The eviction's image is on its way to the wedged successor.
        let (held, _) = wedged.accept().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let found = reg.get("idle").is_some();
                tx.send((found, reg.create(Some("other")).is_ok())).unwrap();
            })
        };
        let seen = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a lookup waited on the eviction's ship");
        assert_eq!(seen, (true, true));
        drop(held); // the successor hangs up: the ship gives up
        assert_eq!(evictor.join().unwrap(), vec!["idle".to_owned()]);
        probe.join().unwrap();
        assert!(reg.get("idle").is_none());
        assert!(iwb_store::SessionStore::new(&dir, "idle").path().exists());
        let _ = std::fs::remove_dir_all(&dir);
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
}
