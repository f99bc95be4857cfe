//! The TCP daemon: acceptor → worker pool.
//!
//! One acceptor thread ([`accept_loop`]) blocks in `accept` and submits
//! each connection to a shared [`iwb_pool::ThreadPool`] (the same pool
//! abstraction the Harmony engine shards match runs over) the moment
//! it arrives; each job serves one connection to completion. A blocked
//! `accept` cannot see a flag, so a [`Shutdown`] request dials the
//! listener once to wake it. Per-session locking lives in
//! [`crate::session`]: workers serving different sessions run fully in
//! parallel, while two connections attached to the same session
//! serialize on its shell lock. Connection sockets carry a short read
//! timeout used as a poll tick, so a stalled client is dropped after
//! `read_timeout` and an idle connection notices shutdown within a
//! tick.
//!
//! Supervision: shell commands run through
//! [`crate::session::Session::execute_command`], which contains panics
//! (`catch_unwind` inside the shell lock), quarantines sessions after
//! repeated faults, journals mutating commands when a journal
//! directory is configured, and honors the configured
//! [`iwb_store::fault::FaultPlan`]. Protocol reads are bounded
//! (`max_line_bytes` / `max_heredoc_bytes`), so a malicious client
//! cannot balloon worker memory.
//!
//! [`accept_loop`] and [`serve_lines`] are the one accept loop and the
//! one connection loop of the line protocol: `workbench-router` serves
//! its clients with them too, at the backend's default bounds, so both
//! binaries accept and frame requests identically. Each binary's
//! dispatcher answers a [`Reply`].
//!
//! Overload and runaway commands are bounded too: the acceptor sheds
//! connections past `max_pending` with a `RETRY-AFTER` protocol error
//! (admission control), every shell command runs under the configured
//! `default_deadline`, and `cancel <session>` interrupts the command
//! in flight on another connection — both aborts are cooperative, so
//! session state stays exactly as before the command.

use crate::client::Response;
use crate::journal::{JournalConfig, JournalRecord};
use crate::repl::{ReplConfig, MAX_FRAME_BYTES};
use crate::session::{ExecOutcome, RecoveryReport, SessionRegistry, StoreConfig};
use crate::stats::{CommandClass, ServerCounter, ServerStats};
use iwb_core::shell::{heredoc_start, HEREDOC_END};
use iwb_pool::ThreadPool;
use iwb_store::fault::FaultPlan;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Socket read-timeout granularity: every blocking read wakes at least
/// this often to check the shutdown flag and the idle budget.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Pause after a hard `accept` error (out of file descriptors, say), so
/// the acceptor does not spin on it.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Budget for the dial that wakes a blocked `accept` on shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How often the housekeeper sweeps for idle sessions.
const SWEEP_TICK: Duration = Duration::from_millis(250);

/// Retry hint (milliseconds) carried by the `RETRY-AFTER` load-shed
/// error a client receives when the pending-connection bound is hit.
const RETRY_AFTER_HINT_MS: u64 = 100;

/// Default bound on one protocol line, in bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Default bound on one heredoc body, in bytes.
pub const MAX_HEREDOC_BYTES: usize = 4 * 1024 * 1024;

/// Marker closing a command line that carries a length-framed binary
/// body: `<command> <<BYTES <n>` is followed by exactly `n` raw bytes.
pub const BYTES_MARKER: &str = "<<BYTES";

/// A request's body.
#[derive(Debug, Clone, Copy)]
pub enum Body<'a> {
    /// A `<<EOF` … `EOF` heredoc.
    Heredoc(&'a str),
    /// A `<<BYTES <n>` binary frame (`repl range`).
    Bytes(&'a [u8]),
}

impl<'a> Body<'a> {
    /// The heredoc text, if this is one.
    pub fn heredoc(self) -> Option<&'a str> {
        match self {
            Body::Heredoc(text) => Some(text),
            Body::Bytes(_) => None,
        }
    }
}

/// If `command` announces a binary frame, the command without the
/// marker and the frame length.
fn frame_start(command: &str) -> Option<(&str, Option<usize>)> {
    let (head, len) = command.rsplit_once(char::is_whitespace)?;
    let head = head.trim_end().strip_suffix(BYTES_MARKER)?;
    Some((head.trim_end(), len.parse().ok()))
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (= max concurrently served connections).
    pub workers: usize,
    /// Cap on live sessions.
    pub max_sessions: usize,
    /// Idle time after which a session is evicted.
    pub session_idle_timeout: Duration,
    /// Idle time after which a silent connection is dropped.
    pub read_timeout: Duration,
    /// Quarantine a session after this many *consecutive* panicking
    /// commands (0 disables quarantine).
    pub quarantine_after: u32,
    /// Reject protocol lines longer than this many bytes.
    pub max_line_bytes: usize,
    /// Reject heredoc bodies larger than this many bytes.
    pub max_heredoc_bytes: usize,
    /// Directory for per-session command journals (`None`: in-memory
    /// sessions only, the pre-journal behavior).
    pub journal_dir: Option<PathBuf>,
    /// Directory for the persistent snapshot store (`workbenchd
    /// --store DIR`). Implies journaling under the same directory when
    /// `journal_dir` is unset: sessions snapshot in the background
    /// every `snapshot_every` journaled commands (plus on eviction and
    /// graceful shutdown) and recovery reopens them warm — snapshot
    /// load plus replay of the journal suffix past the watermark.
    pub store_dir: Option<PathBuf>,
    /// Background-snapshot cadence in journaled commands (0: snapshot
    /// only on eviction and shutdown). Only meaningful with a store.
    pub snapshot_every: u64,
    /// Replay journals found in `journal_dir` on startup.
    pub recover: bool,
    /// fsync each journal record before acknowledging the command.
    pub journal_fsync: bool,
    /// Rewrite a session's journal after this many appends.
    pub journal_compact_every: u64,
    /// Deterministic fault injection (default: inject nothing).
    pub faults: FaultPlan,
    /// Default wall-clock deadline applied to every shell command
    /// (`None`: commands run unbounded). A command past its deadline
    /// aborts cooperatively with a `deadline exceeded` error, leaving
    /// session state untouched.
    pub default_deadline: Option<Duration>,
    /// Admission control: cap on connections pending or being served.
    /// At the cap the acceptor sheds load — the client receives a
    /// `RETRY-AFTER` protocol error instead of queueing unboundedly.
    /// 0 disables shedding.
    pub max_pending: usize,
    /// Fleet replication membership (`workbenchd --repl-peers` /
    /// `--repl-self`): stream every journaled commit to each session's
    /// rendezvous successor and accept standby journals from peers.
    /// Requires `journal_dir` (or `store_dir`) — `serve` refuses the
    /// combination otherwise.
    pub repl: Option<ReplConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 8,
            max_sessions: 64,
            session_idle_timeout: Duration::from_secs(300),
            read_timeout: Duration::from_secs(30),
            quarantine_after: 3,
            max_line_bytes: MAX_LINE_BYTES,
            max_heredoc_bytes: MAX_HEREDOC_BYTES,
            journal_dir: None,
            store_dir: None,
            snapshot_every: 64,
            recover: false,
            journal_fsync: true,
            journal_compact_every: 256,
            faults: FaultPlan::none(),
            default_deadline: None,
            max_pending: 64,
            repl: None,
        }
    }
}

/// A shutdown request for one listener, shared by every thread serving
/// it: the flag each loop checks, and the address that wakes the
/// [`accept_loop`] blocked on that listener — a blocked `accept` cannot
/// see the flag, so [`Shutdown::request`] dials the listener once.
#[derive(Debug, Clone)]
pub struct Shutdown {
    flag: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Shutdown {
    /// A shutdown not yet requested, for the listener bound at `addr`
    /// (an unspecified bind address is woken through loopback).
    pub fn new(addr: SocketAddr) -> Shutdown {
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Shutdown {
            flag: Arc::new(AtomicBool::new(false)),
            wake,
        }
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Request shutdown, then dial the listener so a blocked `accept`
    /// returns and sees the flag. The dial is best effort: when it
    /// fails the listener is either closed already or has a backlog,
    /// and the next accepted connection wakes the loop just the same.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }
}

/// A handle to a running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Shutdown,
    killed: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    pool: Arc<ThreadPool>,
    stats: Arc<ServerStats>,
    registry: Arc<SessionRegistry>,
    recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server stats (shared with the workers).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// The startup recovery report (`Some` iff the config asked for
    /// recovery).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Begin graceful shutdown: stop accepting, let in-flight commands
    /// finish. Returns immediately; use [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shutdown.request();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.requested()
    }

    /// Wait for a shutdown request ([`ServerHandle::shutdown`] or the
    /// `shutdown` protocol command) and for every server thread to exit:
    /// first the acceptor and housekeeper, then the worker pool (which
    /// drains any connections still queued before its threads stop).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.pool.close();
        // With a store, shutdown is graceful for state too: every live
        // session is snapshotted synchronously (after draining the
        // background queue), so the next start reopens warm.
        self.registry.flush_snapshots();
    }

    /// Hard-crash the backend for fleet chaos tests: stop the threads
    /// like [`ServerHandle::join`] but *suppress every response still
    /// unwritten* and skip the graceful snapshot flush. An in-flight
    /// command may complete and journal on disk, yet its client never
    /// sees the ack — exactly the ambiguity window a router must
    /// resolve through the per-session sequence guard (retrying the
    /// same `@N` command yields `DUPLICATE`, never a double execution).
    /// The listener is closed when this returns: dials are refused, and
    /// a restart can bind the address again.
    pub fn kill(self) {
        self.killed.store(true, Ordering::SeqCst);
        self.shutdown.request();
        for t in self.threads {
            let _ = t.join();
        }
        self.pool.close();
        // No flush_snapshots(): a kill is a crash, not a shutdown.
        // Whatever the journal captured is all the successor gets.
    }
}

/// Start the daemon; returns once the listener is bound, recovery (if
/// requested) has replayed every journal, and the threads are running.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let shutdown = Shutdown::new(addr);
    let killed = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::new());
    let mut registry = SessionRegistry::new(config.max_sessions, config.session_idle_timeout);
    // A store implies journaling (snapshots cover a journal
    // watermark); without an explicit journal dir both live together.
    let journal_dir = config
        .journal_dir
        .clone()
        .or_else(|| config.store_dir.clone());
    if let Some(dir) = &journal_dir {
        registry = registry.with_journal(JournalConfig {
            dir: dir.clone(),
            fsync: config.journal_fsync,
            compact_every: config.journal_compact_every,
        });
    }
    if let Some(dir) = &config.store_dir {
        registry = registry.with_store(StoreConfig {
            dir: dir.clone(),
            fsync: config.journal_fsync,
            snapshot_every: config.snapshot_every,
        });
    }
    if let Some(repl) = &config.repl {
        if journal_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication requires a journal (or store) directory: \
                 replicas are journals",
            ));
        }
        if repl.self_index >= repl.peers.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "repl self index {} out of range for {} peers",
                    repl.self_index,
                    repl.peers.len()
                ),
            ));
        }
        registry = registry.with_repl(repl.clone());
    }
    let registry = Arc::new(registry);

    // Crash recovery happens before the listener starts serving, so a
    // reconnecting client never observes a half-replayed session.
    let recovery = if config.recover {
        Some(registry.recover(&stats)?)
    } else {
        None
    };

    let pool = Arc::new(ThreadPool::new(config.workers));
    let mut threads = Vec::new();

    // Acceptor: each accepted connection becomes one pool job served to
    // completion, unless the admission bound sheds it.
    {
        let serve = {
            let shutdown = shutdown.clone();
            let killed = Arc::clone(&killed);
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            let config = config.clone();
            move |stream| serve_connection(stream, &registry, &stats, &shutdown, &killed, &config)
        };
        let shutdown = shutdown.clone();
        let pool = Arc::clone(&pool);
        let stats = Arc::clone(&stats);
        let max_pending = config.max_pending;
        threads.push(thread::spawn(move || {
            let shed = || stats.counters.add(ServerCounter::ConnectionsShed, 1);
            accept_loop(listener, &shutdown, &pool, max_pending, shed, serve);
        }));
    }

    // Housekeeper: idle-session eviction.
    {
        let shutdown = shutdown.clone();
        let registry = Arc::clone(&registry);
        let stats = Arc::clone(&stats);
        threads.push(thread::spawn(move || {
            while !shutdown.requested() {
                thread::sleep(SWEEP_TICK);
                let evicted = registry.evict_idle();
                if !evicted.is_empty() {
                    stats
                        .counters
                        .add(ServerCounter::SessionsEvicted, evicted.len() as u64);
                }
            }
        }));
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        killed,
        threads,
        pool,
        stats,
        registry,
        recovery,
    })
}

/// Accept connections on `listener` until `shutdown` is requested —
/// the one accept loop `workbenchd` and `workbench-router` share. It
/// blocks in `accept` (a [`Shutdown::request`] dials the listener to
/// wake it), checks the flag after every accept, and hands each
/// connection to `pool` as one job running `serve`. With
/// `max_pending > 0` (admission control), a connection that arrives
/// while that many are pending or being served is answered with a
/// `RETRY-AFTER` protocol error and closed instead of queueing
/// unboundedly behind a saturated pool; `shed` counts it. The listener
/// closes when the loop returns.
pub fn accept_loop(
    listener: TcpListener,
    shutdown: &Shutdown,
    pool: &ThreadPool,
    max_pending: usize,
    shed: impl Fn(),
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) {
    let serve = Arc::new(serve);
    let pending = Arc::new(AtomicUsize::new(0));
    loop {
        let accepted = listener.accept();
        if shutdown.requested() {
            return;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let live = pending.load(Ordering::SeqCst);
        if max_pending > 0 && live >= max_pending {
            shed();
            let _ = write_response(
                &mut BufWriter::new(stream),
                false,
                &format!(
                    "RETRY-AFTER {RETRY_AFTER_HINT_MS}ms: server at capacity \
                     ({live} connections pending)"
                ),
            );
            continue;
        }
        pending.fetch_add(1, Ordering::SeqCst);
        let serve = Arc::clone(&serve);
        let pending = Arc::clone(&pending);
        let queued = pool.execute(move || {
            serve(stream);
            pending.fetch_sub(1, Ordering::SeqCst);
        });
        if !queued {
            return; // pool closed under us: shutting down
        }
    }
}

/// One command's reply, framed on the wire as `ok <n>` / `err <n>`
/// plus `n` body lines.
#[derive(Debug)]
pub struct Reply {
    /// `ok` (vs `err`).
    pub ok: bool,
    /// The body; one wire line per line.
    pub body: String,
    /// Close the connection once the reply is written.
    pub close: bool,
}

impl Reply {
    /// An `ok` (`ok == true`) or `err` reply.
    pub fn new(ok: bool, body: impl Into<String>) -> Reply {
        Reply {
            ok,
            body: body.into(),
            close: false,
        }
    }

    /// An `ok` reply.
    pub fn ok(body: impl Into<String>) -> Reply {
        Reply::new(true, body)
    }

    /// An `err` reply.
    pub fn err(body: impl Into<String>) -> Reply {
        Reply::new(false, body)
    }

    /// This reply, closing the connection after it is written.
    pub fn closing(self) -> Reply {
        Reply {
            close: true,
            ..self
        }
    }
}

/// A backend's reply, relayed as is.
impl From<Response> for Reply {
    fn from(resp: Response) -> Reply {
        Reply::new(resp.ok, resp.body)
    }
}

/// Serve one connection's line protocol until the peer leaves, its
/// idle budget runs out, shutdown finds it idle, or a reply closes it —
/// the one loop `workbenchd` and `workbench-router` share. Blank and
/// `#` lines answer an empty `ok`; a heredoc body or a `<<BYTES <n>`
/// binary frame is gathered before its command runs; a line past
/// `max_line_bytes`, a heredoc past `max_heredoc_bytes` or a frame past
/// `max_frame_bytes` (0: frames refused) gets one protocol error and
/// the connection closes (it cannot be resynchronized). `handle` runs
/// each command and returns its reply, or `None` to close without one.
pub fn serve_lines(
    stream: TcpStream,
    shutdown: &Shutdown,
    read_timeout: Duration,
    max_line_bytes: usize,
    max_heredoc_bytes: usize,
    max_frame_bytes: usize,
    mut handle: impl FnMut(&str, Option<Body<'_>>) -> Option<Reply>,
) -> io::Result<()> {
    // The socket poll tick must not exceed the idle budget, or a
    // `read_timeout` shorter than one tick would never be enforced.
    stream.set_read_timeout(Some(
        POLL_TICK.min(read_timeout.max(Duration::from_millis(1))),
    ))?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_protocol_line(&mut reader, shutdown, read_timeout, max_line_bytes)? {
            LineRead::Line(line) => line,
            LineRead::Closed => return Ok(()),
            LineRead::OverLimit => {
                return write_response(
                    &mut writer,
                    false,
                    &format!(
                        "protocol error: line exceeds {max_line_bytes} bytes; closing connection"
                    ),
                )
            }
        };
        let command = line.trim();
        if command.is_empty() || command.starts_with('#') {
            write_response(&mut writer, true, "")?;
            continue;
        }
        let mut frame = None;
        let (command, heredoc) = if let Some((command, len)) = frame_start(command) {
            match len.filter(|&n| max_frame_bytes > 0 && n <= max_frame_bytes) {
                Some(n) => {
                    // The connection died mid-frame: the command never
                    // ran, so nothing was applied.
                    let mut bytes = Vec::new();
                    if !read_protocol_bytes(&mut reader, shutdown, read_timeout, n, &mut bytes)? {
                        return Ok(());
                    }
                    frame = Some(bytes);
                    (command, None)
                }
                None => {
                    let why = match max_frame_bytes {
                        0 => "binary frames are not accepted here".to_owned(),
                        max => format!("binary frame exceeds {max} bytes"),
                    };
                    return write_response(
                        &mut writer,
                        false,
                        &format!("protocol error: {why}; closing connection"),
                    );
                }
            }
        } else {
            match heredoc_start(command) {
                None => (command, None),
                Some(command) => {
                    let mut body = String::new();
                    loop {
                        match read_protocol_line(
                            &mut reader,
                            shutdown,
                            read_timeout,
                            max_line_bytes,
                        )? {
                            LineRead::Line(l) if l.trim() == HEREDOC_END => break,
                            LineRead::Line(l) if body.len() + l.len() < max_heredoc_bytes => {
                                body.push_str(&l);
                                body.push('\n');
                            }
                            // The connection died mid-heredoc: the command
                            // never ran, so no partial state and nothing
                            // journaled.
                            LineRead::Closed => return Ok(()),
                            LineRead::Line(_) | LineRead::OverLimit => {
                                return write_response(
                                    &mut writer,
                                    false,
                                    &format!(
                                    "protocol error: heredoc exceeds {max_heredoc_bytes} bytes; \
                                         closing connection"
                                ),
                                )
                            }
                        }
                    }
                    (command, Some(body))
                }
            }
        };
        let body = match (&heredoc, &frame) {
            (Some(text), _) => Some(Body::Heredoc(text)),
            (None, Some(bytes)) => Some(Body::Bytes(bytes)),
            (None, None) => None,
        };
        let Some(reply) = handle(command, body) else {
            return Ok(());
        };
        write_response(&mut writer, reply.ok, &reply.body)?;
        if reply.close {
            return Ok(());
        }
    }
}

/// Read exactly `n` raw bytes into `out` under the poll tick and the
/// idle budget; `false` when the peer closed (or went idle, or shutdown
/// came) before the frame was complete.
fn read_protocol_bytes(
    reader: &mut BufReader<TcpStream>,
    shutdown: &Shutdown,
    idle_budget: Duration,
    n: usize,
    out: &mut Vec<u8>,
) -> io::Result<bool> {
    out.reserve(n);
    let started = Instant::now();
    while out.len() < n {
        let consumed = match reader.fill_buf() {
            Ok([]) => return Ok(false),
            Ok(available) => {
                let take = available.len().min(n - out.len());
                out.extend_from_slice(&available[..take]);
                take
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.requested() || started.elapsed() >= idle_budget {
                    return Ok(false);
                }
                0
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        reader.consume(consumed);
    }
    Ok(true)
}

/// One bounded protocol read.
enum LineRead {
    /// A complete line (CR/LF stripped).
    Line(String),
    /// Peer closed, idle budget exhausted, or shutdown while idle.
    Closed,
    /// The line exceeded `max_line_bytes`; the connection cannot be
    /// resynchronized and must be dropped after an error reply.
    OverLimit,
}

/// Read one protocol line, honoring the poll tick and the byte bound.
/// Returns [`LineRead::Closed`] when the peer closed, the idle budget
/// ran out, or shutdown was requested while the line buffer was empty
/// (drain semantics: bytes already received still form a served
/// request).
fn read_protocol_line(
    reader: &mut BufReader<TcpStream>,
    shutdown: &Shutdown,
    idle_budget: Duration,
    max_line_bytes: usize,
) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let started = Instant::now();
    loop {
        enum Step {
            Done,
            More,
            Eof,
        }
        let (consumed, step) = match reader.fill_buf() {
            Ok([]) => (0, Step::Eof),
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    (pos + 1, Step::Done)
                }
                None => {
                    buf.extend_from_slice(available);
                    (available.len(), Step::More)
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.requested() && buf.is_empty() {
                    return Ok(LineRead::Closed);
                }
                if started.elapsed() >= idle_budget {
                    return Ok(LineRead::Closed); // stalled client: free the worker
                }
                (0, Step::More)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => (0, Step::More),
            Err(e) => return Err(e),
        };
        reader.consume(consumed);
        if buf.len() > max_line_bytes {
            return Ok(LineRead::OverLimit);
        }
        match step {
            Step::Done => {
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            Step::Eof => {
                return Ok(if buf.is_empty() {
                    LineRead::Closed
                } else {
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                });
            }
            Step::More => {}
        }
    }
}

/// Write one `ok <n>`/`err <n>` framed response.
fn write_response(writer: &mut BufWriter<TcpStream>, ok: bool, body: &str) -> io::Result<()> {
    let lines: Vec<&str> = if body.is_empty() {
        Vec::new()
    } else {
        body.lines().collect()
    };
    writeln!(writer, "{} {}", if ok { "ok" } else { "err" }, lines.len())?;
    for line in lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()
}

/// Serve one connection to completion.
fn serve_connection(
    stream: TcpStream,
    registry: &Arc<SessionRegistry>,
    stats: &Arc<ServerStats>,
    shutdown: &Shutdown,
    killed: &Arc<AtomicBool>,
    config: &ServerConfig,
) {
    stats.counters.add(ServerCounter::ConnectionsTotal, 1);
    stats.counters.add(ServerCounter::ConnectionsLive, 1);
    let ctx = DispatchCtx {
        registry,
        stats,
        shutdown,
        faults: &config.faults,
        quarantine_after: config.quarantine_after,
        default_deadline: config.default_deadline,
    };
    let mut attached = None;
    let _ = serve_lines(
        stream,
        shutdown,
        config.read_timeout,
        config.max_line_bytes,
        config.max_heredoc_bytes,
        // Only a replicating backend takes `repl range` frames.
        if registry.replicating() {
            MAX_FRAME_BYTES
        } else {
            0
        },
        |command, body| {
            let start = Instant::now();
            let reply = dispatch(&ctx, command, body, &mut attached);
            stats.record_command(CommandClass::of(command), start.elapsed(), reply.ok);
            // A hard kill ([`ServerHandle::kill`]) lands *between*
            // dispatch and the response write: the command may have
            // executed and journaled, but the ack is lost — the
            // crash-ambiguity window fleet failover must survive.
            (!killed.load(Ordering::SeqCst)).then_some(reply)
        },
    );
    stats.counters.sub(ServerCounter::ConnectionsLive, 1);
}

/// Everything a command dispatch needs besides the command itself.
struct DispatchCtx<'a> {
    registry: &'a Arc<SessionRegistry>,
    stats: &'a Arc<ServerStats>,
    shutdown: &'a Shutdown,
    faults: &'a FaultPlan,
    quarantine_after: u32,
    default_deadline: Option<Duration>,
}

/// Strip the leading `words` (each preceded by arbitrary whitespace)
/// off `raw` and return the remainder with its own leading whitespace
/// trimmed — how `repl append` recovers the embedded command verbatim
/// instead of re-joining split words.
fn strip_words<'a>(mut raw: &'a str, words: &[&str]) -> Option<&'a str> {
    for word in words {
        raw = raw.trim_start().strip_prefix(word)?;
    }
    Some(raw.trim_start())
}

/// Execute one protocol command.
fn dispatch(
    ctx: &DispatchCtx<'_>,
    command: &str,
    body: Option<Body<'_>>,
    attached: &mut Option<Arc<crate::session::Session>>,
) -> Reply {
    let DispatchCtx {
        registry, stats, ..
    } = ctx;
    let heredoc = body.and_then(Body::heredoc);
    // `@N <command>` stamps a per-session sequence number on a shell
    // command; the session's journal-backed guard acks duplicates and
    // refuses gaps (see `Session::execute_sequenced`). Admin commands
    // ignore the stamp.
    let (command, seq) = match command.strip_prefix('@') {
        Some(rest) => match rest.split_once(char::is_whitespace) {
            Some((n, tail)) if !tail.trim().is_empty() => match n.parse::<u64>() {
                Ok(n) => (tail.trim_start(), Some(n)),
                Err(_) => {
                    return Reply::err("protocol error: bad sequence prefix (use: @N <command>)")
                }
            },
            _ => return Reply::err("protocol error: bad sequence prefix (use: @N <command>)"),
        },
        None => (command, None),
    };
    let words: Vec<&str> = command.split_whitespace().collect();
    if matches!(body, Some(Body::Bytes(_))) && !matches!(words.as_slice(), ["repl", "range", ..]) {
        return Reply::err("protocol error: only repl range takes a <<BYTES frame");
    }
    match words.as_slice() {
        ["session", "new"] | ["session", "new", _] => {
            let requested = words.get(2).copied();
            match registry.create(requested) {
                Ok(session) => {
                    stats.counters.add(ServerCounter::SessionsCreated, 1);
                    let body = format!("session {} created (attached)", session.id());
                    *attached = Some(session);
                    Reply::ok(body)
                }
                Err(e) => Reply::err(e.to_string()),
            }
        }
        ["session", "attach", id] => match registry.get(id) {
            Some(session) => {
                // Under journaling the reply carries the session's
                // sequence watermark, so a router (or reconnecting
                // client) resynchronizes its `@N` stamps exactly.
                let body = if registry.journaling() {
                    format!("session {} attached seq={}", session.id(), session.seq())
                } else {
                    format!("session {} attached", session.id())
                };
                *attached = Some(session);
                Reply::ok(body)
            }
            None => Reply::err(format!("no session {id:?}")),
        },
        ["session", "detach"] => match attached.take() {
            Some(session) => Reply::ok(format!("session {} detached", session.id())),
            None => Reply::err("no session attached"),
        },
        ["session", "close"] | ["session", "close", _] => {
            let id = match words.get(2).copied() {
                Some(id) => id.to_owned(),
                None => match attached.as_ref() {
                    Some(s) => s.id().to_owned(),
                    None => return Reply::err("no session attached; name one: session close <id>"),
                },
            };
            if attached.as_ref().is_some_and(|s| s.id() == id) {
                *attached = None;
            }
            if registry.close(&id) {
                stats.counters.add(ServerCounter::SessionsClosed, 1);
                Reply::ok(format!("session {id} closed"))
            } else {
                Reply::err(format!("no session {id:?}"))
            }
        }
        ["session", "list"] => {
            let rows = registry.list();
            let body = rows
                .iter()
                .map(|(id, commands, idle, quarantined)| {
                    // Under journaling each row carries the session's
                    // sequence watermark: a restarted router rebuilds
                    // placement (and its `@N` stamps) from this list.
                    let seq = if registry.journaling() {
                        registry
                            .get(id)
                            .map(|s| format!(" seq={}", s.seq()))
                            .unwrap_or_default()
                    } else {
                        String::new()
                    };
                    format!(
                        "id={id} commands={commands} idle_ms={}{}{seq}",
                        idle.as_millis(),
                        if *quarantined {
                            " quarantined=true"
                        } else {
                            ""
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            Reply::ok(body)
        }
        ["session", "current"] => match attached.as_ref() {
            Some(s) => Reply::ok(format!("session {}", s.id())),
            None => Reply::ok("none"),
        },
        // Fleet migration, releasing side: persist the session's final
        // snapshot, drain its replication stream, and drop it from the
        // live map *keeping* its on-disk state, so an aborted migration
        // can `repl promote` it back here.
        ["session", "release", id] => {
            if attached.as_ref().is_some_and(|s| s.id() == *id) {
                *attached = None;
            }
            match registry.release(id) {
                Ok(seq) => Reply::ok(format!("session {id} released seq={seq}")),
                Err(e) => Reply::err(e),
            }
        }
        ["session", ..] => Reply::err(
            "usage: session new [id] | attach <id> | detach | close [id] | list | current \
             | release <id>",
        ),
        // Replication handshake, backend → backend: how far does the
        // sink's standby journal reach? The source streams from there.
        ["repl", "subscribe", id, source_len] => match source_len.parse::<u64>() {
            Ok(len) => match registry.repl_subscribe(id, len) {
                Ok(have) => Reply::ok(format!("repl subscribed {id} have={have}")),
                Err(e) => Reply::err(e),
            },
            Err(_) => Reply::err("usage: repl subscribe <session> <source-len>"),
        },
        // One streamed journal record at logical index <seq>. The
        // embedded command is the raw remainder of the line (plus the
        // usual heredoc framing), so any journaled command replicates
        // byte-identically.
        ["repl", "append", id, seq, _, ..] => match seq.parse::<u64>() {
            Ok(seq_no) => {
                let inner = strip_words(command, &["repl", "append", id, seq])
                    .expect("matched words are prefixes of the line");
                let record = JournalRecord {
                    command: inner.to_owned(),
                    heredoc: heredoc.map(str::to_owned),
                };
                match registry.repl_append(id, seq_no, record, ctx.faults) {
                    Ok(body) => Reply::ok(body),
                    Err(e) => Reply::err(e),
                }
            }
            Err(_) => Reply::err("usage: repl append <session> <seq> <command>"),
        },
        // A binary frame: an optional image plus a range of records
        // from logical index <from> (see `crate::repl`).
        ["repl", "range", id, from] => match (from.parse::<u64>(), body) {
            (Ok(from), Some(Body::Bytes(frame))) => {
                match registry.repl_range(id, from, frame, ctx.faults) {
                    Ok(body) => Reply::ok(body),
                    Err(e) => Reply::err(e),
                }
            }
            _ => Reply::err("usage: repl range <session> <from> <<BYTES <n>"),
        },
        // Per-session replication lag (source rows) and standby
        // lengths and image watermarks (replica rows) — the router's promotion safety check
        // and the bench's lag percentiles both read this.
        ["repl", "status"] => match registry.repl_status() {
            Some(body) => Reply::ok(body),
            None => Reply::err("replication disabled (start workbenchd with --repl-peers)"),
        },
        // Every fleet ownership change: rebuild <session> from the best
        // local evidence (own journal/snapshot or the standby replica),
        // refusing with STALE-REPLICA when that evidence is provably
        // behind the router's last acked seq.
        ["repl", "promote", id, min_seq] => match min_seq.parse::<u64>() {
            Ok(min) => match registry.promote(id, min, stats) {
                Ok(seq) => Reply::ok(format!("session {id} promoted seq={seq}")),
                Err(e) => Reply::err(e),
            },
            Err(_) => Reply::err("usage: repl promote <session> <min-seq>"),
        },
        // The owner closed <session>: delete its standby journal here.
        ["repl", "drop", id] => match registry.repl_drop(id) {
            Ok(()) => Reply::ok(format!("repl dropped {id}")),
            Err(e) => Reply::err(e),
        },
        ["repl", ..] => Reply::err(
            "usage: repl subscribe <session> <source-len> | append <session> <seq> <command> \
             | range <session> <from> <<BYTES <n> | status | promote <session> <min-seq> \
             | drop <session>",
        ),
        ["cancel", id] => match registry.get(id) {
            Some(session) => {
                if session.cancel() {
                    Reply::ok(format!("session {id}: cancel requested"))
                } else {
                    Reply::err(format!("session {id} has no command in flight"))
                }
            }
            None => Reply::err(format!("no session {id:?}")),
        },
        ["cancel"] => Reply::err("usage: cancel <session>"),
        ["stats"] => Reply::ok(stats.render(registry.len(), registry.store_stats())),
        ["ping"] => Reply::ok("pong"),
        // Health probe for the fleet router: cheap, allocation-light,
        // and distinct from `ping` so probe traffic is classified (and
        // fault-injected) separately from client liveness checks.
        ["probe"] => Reply::ok(format!("ready sessions={}", registry.len())),
        ["shutdown"] => {
            ctx.shutdown.request();
            Reply::ok("shutting down (draining in-flight requests)").closing()
        }
        ["quit"] => Reply::ok("bye").closing(),
        _ => match attached.as_ref() {
            Some(session) => {
                let outcome = session.execute_sequenced(
                    command,
                    heredoc,
                    ctx.faults,
                    ctx.quarantine_after,
                    stats,
                    ctx.default_deadline,
                    seq,
                );
                match outcome {
                    ExecOutcome::Output(output) => Reply::ok(output),
                    ExecOutcome::ToolError(e) => Reply::err(e),
                    ExecOutcome::Interrupted(why) => Reply::err(format!("command aborted: {why}")),
                    ExecOutcome::Panicked {
                        message,
                        quarantined,
                    } => {
                        let id = session.id();
                        let note = if quarantined {
                            format!(
                                "; session {id} quarantined (close it with: session close {id})"
                            )
                        } else {
                            String::new()
                        };
                        Reply::err(format!("command panicked: {message}{note}"))
                    }
                    ExecOutcome::Quarantined => {
                        let id = session.id();
                        Reply::err(format!(
                            "session {id} is quarantined after repeated faults \
                                 (close it with: session close {id})"
                        ))
                    }
                }
            }
            None => Reply::err("no session attached (use: session new)"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_store::fault::{FaultSpec, EXEC_PANIC};

    struct Ctx {
        registry: Arc<SessionRegistry>,
        stats: Arc<ServerStats>,
        /// The listener a `shutdown` command wakes.
        listener: TcpListener,
        shutdown: Shutdown,
        faults: FaultPlan,
    }

    impl Ctx {
        fn new() -> Ctx {
            Ctx::with_faults(FaultPlan::none())
        }

        fn with_faults(faults: FaultPlan) -> Ctx {
            Ctx::with_registry(SessionRegistry::new(8, Duration::from_secs(60)), faults)
        }

        fn with_registry(registry: SessionRegistry, faults: FaultPlan) -> Ctx {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let shutdown = Shutdown::new(listener.local_addr().unwrap());
            Ctx {
                registry: Arc::new(registry),
                stats: Arc::new(ServerStats::new()),
                listener,
                shutdown,
                faults,
            }
        }

        fn dispatch(
            &self,
            command: &str,
            heredoc: Option<&str>,
            attached: &mut Option<Arc<crate::session::Session>>,
        ) -> (bool, String, bool) {
            self.dispatch_body(command, heredoc.map(Body::Heredoc), attached)
        }

        fn dispatch_body(
            &self,
            command: &str,
            body: Option<Body<'_>>,
            attached: &mut Option<Arc<crate::session::Session>>,
        ) -> (bool, String, bool) {
            let reply = dispatch(
                &DispatchCtx {
                    registry: &self.registry,
                    stats: &self.stats,
                    shutdown: &self.shutdown,
                    faults: &self.faults,
                    quarantine_after: 3,
                    default_deadline: None,
                },
                command,
                body,
                attached,
            );
            (reply.ok, reply.body, reply.close)
        }
    }

    #[test]
    fn dispatch_requires_attachment_for_shell_commands() {
        let ctx = Ctx::new();
        let mut attached = None;
        let (ok, body, _) = ctx.dispatch("show coverage", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("no session attached"));
    }

    #[test]
    fn dispatch_full_session_flow() {
        let ctx = Ctx::new();
        let mut attached = None;
        let (ok, body, _) = ctx.dispatch("session new alpha", None, &mut attached);
        assert!(ok, "{body}");
        assert!(attached.is_some());

        let (ok, body, _) =
            ctx.dispatch("load er po", Some("entity A { x : text }\n"), &mut attached);
        assert!(ok, "{body}");
        assert!(body.contains("loaded po"));

        let (ok, body, _) = ctx.dispatch("session list", None, &mut attached);
        assert!(ok);
        assert!(body.contains("id=alpha commands=1"));

        // Command latency counters are recorded by `serve_connection`
        // (not by `dispatch`), so only the gauges appear here; the
        // client round-trip test covers the full recording path.
        let (ok, body, _) = ctx.dispatch("stats", None, &mut attached);
        assert!(ok);
        assert!(body.contains("sessions live=1"), "{body}");
        assert!(body.contains("created=1"), "{body}");

        let (ok, _, _) = ctx.dispatch("session close", None, &mut attached);
        assert!(ok);
        assert!(attached.is_none());
        assert_eq!(ctx.registry.len(), 0);
    }

    #[test]
    fn shutdown_command_sets_the_flag_and_closes() {
        let ctx = Ctx::new();
        let mut attached = None;
        let (ok, _, close) = ctx.dispatch("shutdown", None, &mut attached);
        assert!(ok);
        assert!(ctx.shutdown.requested());
        assert!(close);
        // The request dialled the listener, so a blocked accept wakes.
        ctx.listener.accept().expect("the wake-up dial is queued");
    }

    #[test]
    fn panicking_command_surfaces_as_protocol_error() {
        crate::quiet_injected_panics();
        let ctx = Ctx::with_faults(FaultSpec::seeded(1).at(EXEC_PANIC, &[0]).build());
        let mut attached = None;
        ctx.dispatch("session new x", None, &mut attached);
        let (ok, body, _) = ctx.dispatch("show coverage", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("command panicked"), "{body}");
        // The session survives the contained panic.
        let (ok, _, _) = ctx.dispatch("show coverage", None, &mut attached);
        assert!(ok);
        assert_eq!(ctx.stats.counters.get(ServerCounter::PanicsCaught), 1);
    }

    #[test]
    fn quarantined_sessions_reject_commands_but_close() {
        crate::quiet_injected_panics();
        let ctx = Ctx::with_faults(FaultSpec::seeded(1).at(EXEC_PANIC, &[0, 1, 2]).build());
        let mut attached = None;
        ctx.dispatch("session new x", None, &mut attached);
        for _ in 0..3 {
            let (ok, _, _) = ctx.dispatch("show coverage", None, &mut attached);
            assert!(!ok);
        }
        let (ok, body, _) = ctx.dispatch("show coverage", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("quarantined"), "{body}");
        let (ok, body, _) = ctx.dispatch("session list", None, &mut attached);
        assert!(ok);
        assert!(body.contains("quarantined=true"), "{body}");
        let (ok, _, _) = ctx.dispatch("session close", None, &mut attached);
        assert!(ok);
    }

    #[test]
    fn dispatch_answers_probes_without_a_session() {
        let ctx = Ctx::new();
        let mut attached = None;
        let (ok, body, _) = ctx.dispatch("probe", None, &mut attached);
        assert!(ok);
        assert_eq!(body, "ready sessions=0");
        ctx.dispatch("session new x", None, &mut attached);
        let (ok, body, _) = ctx.dispatch("probe", None, &mut attached);
        assert!(ok);
        assert_eq!(body, "ready sessions=1");
    }

    #[test]
    fn dispatch_sequences_release_and_repl_promote_a_session() {
        let dir = std::env::temp_dir().join(format!(
            "iwb-dispatch-fleet-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = SessionRegistry::new(8, Duration::from_secs(60))
            .with_journal(JournalConfig::new(&dir))
            .with_store(crate::session::StoreConfig {
                dir: dir.clone(),
                fsync: false,
                snapshot_every: 1,
            });
        let ctx = Ctx::with_registry(registry, FaultPlan::none());
        let mut attached = None;

        let (ok, _, _) = ctx.dispatch("session new m", None, &mut attached);
        assert!(ok);
        let doc = Some("entity A { x : text }\n");
        let (ok, body, _) = ctx.dispatch("@0 load er a", doc, &mut attached);
        assert!(ok, "{body}");
        assert!(body.contains("loaded a"), "{body}");

        // Redelivery acks, gap refuses, malformed prefix is a protocol
        // error — none of them mutate the session.
        let (ok, body, _) = ctx.dispatch("@0 load er a", doc, &mut attached);
        assert!(ok, "{body}");
        assert!(body.starts_with("DUPLICATE seq=0"), "{body}");
        let (ok, body, _) = ctx.dispatch("@7 load er b", doc, &mut attached);
        assert!(!ok);
        assert!(body.starts_with("SEQ-GAP expected=1 got=7"), "{body}");
        let (ok, body, _) = ctx.dispatch("@nope load er b", doc, &mut attached);
        assert!(!ok);
        assert!(body.contains("bad sequence prefix"), "{body}");

        // Attach replies carry the watermark under journaling.
        let mut other = None;
        let (ok, body, _) = ctx.dispatch("session attach m", None, &mut other);
        assert!(ok);
        assert!(body.ends_with("seq=1"), "{body}");

        // Release drops it live-but-persisted; promote brings it back,
        // refusing a floor its evidence cannot meet.
        let (ok, body, _) = ctx.dispatch("session release m", None, &mut attached);
        assert!(ok, "{body}");
        assert!(body.contains("released seq=1"), "{body}");
        assert!(attached.is_none(), "release must detach");
        assert_eq!(ctx.registry.len(), 0);
        let (ok, body, _) = ctx.dispatch("repl promote m 2", None, &mut attached);
        assert!(!ok);
        assert!(
            body.starts_with("STALE-REPLICA session=m have=1 need=2"),
            "{body}"
        );
        assert_eq!(ctx.registry.len(), 0, "a refused promotion stays released");
        let (ok, body, _) = ctx.dispatch("repl promote m 1", None, &mut attached);
        assert!(ok, "{body}");
        assert_eq!(body, "session m promoted seq=1");
        let (ok, body, _) = ctx.dispatch("repl promote ghost 0", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("no persisted state"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strip_words_preserves_the_embedded_command_verbatim() {
        assert_eq!(
            strip_words(
                "repl append s1 4 accept  a.x  b.y",
                &["repl", "append", "s1", "4"]
            ),
            Some("accept  a.x  b.y")
        );
        assert_eq!(strip_words("repl append", &["repl", "append", "s1"]), None);
    }

    #[test]
    fn dispatch_repl_sink_subscribes_appends_and_promotes() {
        let dir = std::env::temp_dir().join(format!(
            "iwb-dispatch-repl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = JournalConfig::new(&dir);
        journal.fsync = false;
        let registry = SessionRegistry::new(8, Duration::from_secs(60))
            .with_journal(journal)
            .with_repl(crate::repl::ReplConfig {
                // Unreachable peers: this test exercises only the sink
                // and promotion paths; shipping fails silently.
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                self_index: 0,
            });
        let ctx = Ctx::with_registry(registry, FaultPlan::none());
        let mut attached = None;

        let (ok, body, _) = ctx.dispatch("repl subscribe r1 5", None, &mut attached);
        assert!(ok, "{body}");
        assert_eq!(body, "repl subscribed r1 have=0");

        let doc = Some("entity A { x : text }\n");
        let (ok, body, _) = ctx.dispatch("repl append r1 0 load er a", doc, &mut attached);
        assert!(ok, "{body}");
        assert_eq!(body, "repl appended r1 seq=0");
        let (ok, body, _) = ctx.dispatch("repl append r1 1 match a a", None, &mut attached);
        assert!(ok, "{body}");
        // Redelivery acks as DUPLICATE; a gap is refused.
        let (ok, body, _) = ctx.dispatch("repl append r1 0 load er a", doc, &mut attached);
        assert!(ok, "{body}");
        assert!(body.starts_with("DUPLICATE seq=0"), "{body}");
        let (ok, body, _) = ctx.dispatch("repl append r1 9 match a a", None, &mut attached);
        assert!(!ok);
        assert!(body.starts_with("SEQ-GAP expected=2 got=9"), "{body}");

        let (ok, body, _) = ctx.dispatch("repl status", None, &mut attached);
        assert!(ok, "{body}");
        assert!(body.contains("repl self=0 peers=2"), "{body}");
        assert!(body.contains("replica id=r1 seq=2"), "{body}");

        // Promotion from the streamed replica: the rebuilt session is
        // live at the replica's watermark; the standby copy is gone.
        let (ok, body, _) = ctx.dispatch("repl promote r1 2", None, &mut attached);
        assert!(ok, "{body}");
        assert_eq!(body, "session r1 promoted seq=2");
        let (ok, body, _) = ctx.dispatch("session attach r1", None, &mut attached);
        assert!(ok, "{body}");
        assert!(body.ends_with("seq=2"), "{body}");
        let (_, body, _) = ctx.dispatch("repl status", None, &mut attached);
        assert!(!body.contains("replica id=r1"), "{body}");
        assert!(body.contains("source id=r1 seq=2"), "{body}");

        // A promotion floor the evidence cannot meet is refused with
        // STALE-REPLICA, never served silently wrong.
        let (ok, body, _) = ctx.dispatch("repl promote ghost 3", None, &mut attached);
        assert!(!ok);
        assert!(
            body.starts_with("STALE-REPLICA session=ghost have=0 need=3"),
            "{body}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_repl_drop_deletes_the_standby_journal() {
        let dir = std::env::temp_dir().join(format!(
            "iwb-dispatch-drop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journal = JournalConfig::new(&dir);
        journal.fsync = false;
        let registry = SessionRegistry::new(8, Duration::from_secs(60))
            .with_journal(journal)
            .with_repl(crate::repl::ReplConfig {
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                self_index: 0,
            });
        let ctx = Ctx::with_registry(registry, FaultPlan::none());
        let mut attached = None;
        ctx.dispatch("repl subscribe d1 1", None, &mut attached);
        let (ok, body, _) = ctx.dispatch("repl append d1 0 match a a", None, &mut attached);
        assert!(ok, "{body}");

        let (ok, body, _) = ctx.dispatch("repl drop d1", None, &mut attached);
        assert!(ok, "{body}");
        assert_eq!(body, "repl dropped d1");
        let (_, body, _) = ctx.dispatch("repl status", None, &mut attached);
        assert!(!body.contains("replica id=d1"), "{body}");
        // Nothing is left to promote, and a second drop is harmless.
        let (ok, body, _) = ctx.dispatch("repl promote d1 0", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("no persisted state"), "{body}");
        assert!(ctx.dispatch("repl drop d1", None, &mut attached).0);
        let (ok, body, _) = ctx.dispatch("repl drop ../x", None, &mut attached);
        assert!(!ok);
        assert!(body.contains("invalid session id"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_refuses_repl_commands_when_replication_is_off() {
        let ctx = Ctx::new();
        let mut attached = None;
        for command in [
            "repl subscribe s1 0",
            "repl append s1 0 load er a",
            "repl status",
            "repl drop s1",
        ] {
            let (ok, body, _) = ctx.dispatch(command, None, &mut attached);
            assert!(!ok, "{command} must be refused");
            assert!(body.contains("replication disabled"), "{command}: {body}");
        }
        let (ok, body, _) = ctx.dispatch("repl subscribe s1", None, &mut attached);
        assert!(!ok);
        assert!(body.starts_with("usage: repl"), "{body}");
    }

    #[test]
    fn only_repl_range_takes_a_binary_frame() {
        let dir = std::env::temp_dir().join(format!("iwb-frame-verbs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = SessionRegistry::new(8, Duration::from_secs(60))
            .with_journal(crate::journal::JournalConfig::new(&dir))
            .with_repl(crate::repl::ReplConfig {
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                self_index: 0,
            });
        let ctx = Ctx::with_registry(registry, FaultPlan::none());
        let mut attached = None;
        let (ok, _, _) = ctx.dispatch("session new s1", None, &mut attached);
        assert!(ok);
        let schema = b"entity A { x : text }\n";
        for command in [
            "load er a",
            "@0 load er a",
            "repl append s1 0 load er a",
            "session new s2",
        ] {
            let (ok, body, _) =
                ctx.dispatch_body(command, Some(Body::Bytes(schema)), &mut attached);
            assert!(!ok, "{command} must refuse a frame");
            assert!(body.contains("only repl range"), "{command}: {body}");
        }
        // Nothing ran.
        assert_eq!(ctx.registry.get("s1").unwrap().seq(), 0);
        assert!(ctx.registry.get("s2").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_backend_that_does_not_replicate_refuses_binary_frames() {
        let handle = serve(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        for len in [0, 4] {
            let mut client = crate::client::Client::connect(handle.addr()).unwrap();
            let resp = client
                .request_with_bytes("repl range s1 0", &b"abcd"[..len])
                .unwrap();
            assert!(!resp.ok);
            assert_eq!(
                resp.body,
                "protocol error: binary frames are not accepted here; closing connection"
            );
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn serve_refuses_replication_without_a_journal_dir() {
        match serve(ServerConfig {
            repl: Some(crate::repl::ReplConfig {
                peers: vec!["127.0.0.1:1".into()],
                self_index: 0,
            }),
            ..ServerConfig::default()
        }) {
            Ok(_) => panic!("replication without a journal dir must be refused"),
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
        }
    }

    #[test]
    fn serve_binds_ephemeral_port_and_shuts_down() {
        let handle = serve(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        assert_ne!(handle.addr().port(), 0);
        assert!(handle.recovery().is_none());
        handle.shutdown();
        handle.join();
    }
}
