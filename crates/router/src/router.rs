//! The fleet router: a thin TCP proxy that consistent-hashes session
//! ids across N `workbenchd` backends.
//!
//! One [`RouterConfig`] names the backends; [`serve`] binds the
//! router's own listener and speaks the existing line protocol
//! transparently — clients `session new` / `session attach` / run
//! shell commands against the router exactly as they would against a
//! single daemon. Client connections are accepted and served by the
//! backend's own loops ([`iwb_server::server::accept_loop`], which
//! blocks in `accept` until a connection or a shutdown request wakes
//! it, and [`iwb_server::server::serve_lines`]), and `stats` renders
//! [`RouterCounter`]s in the backend's format.
//!
//! Design pillars:
//!
//! * **Rendezvous placement, sticky routes.** A session's *preference
//!   order* over backends comes from [`iwb_store::rendezvous::rank`];
//!   its *current owner* lives in the route table. The table is the
//!   source of truth: after a failover the session stays on its
//!   successor even when the original owner is re-admitted, so a
//!   flapping backend can never split a session across two owners.
//! * **Health-checked membership.** One prober thread walks the
//!   backends on a seeded-jitter schedule ([`iwb_pool::ProbeSchedule`];
//!   fixed-rate, so the probe order is deterministic per seed).
//!   `quarantine_after` consecutive failures quarantine a backend;
//!   `readmit_after` consecutive successes re-admit it.
//! * **One failover path: floor-checked promotion.** When the owner
//!   cannot be reached (or `migrate <id>` asks), the router releases
//!   the session on the old owner (best effort — a crashed backend
//!   cannot answer), then walks the old owner's replication successors — the healthy
//!   slots after it in the session's rendezvous order, cyclically, the
//!   order `--repl-peers` streams replicas along — asking each to
//!   `repl promote <id> <seq>` with the last seq it saw acknowledged
//!   to a client as the promotion floor. The backend rebuilds from its
//!   own journal/snapshot or from the standby replica streamed to it,
//!   and *refuses* with `STALE-REPLICA` when that evidence is provably
//!   behind the floor. The router surfaces the refusal rather than
//!   serving silently-wrong state; a route changes owner only after a
//!   successful promotion. An owner that sheds (`RETRY-AFTER`) is
//!   alive, so it is retried with backoff, never failed over: a
//!   promotion beside it would leave it a live copy. An attach that
//!   misses the route table has no floor, so it promotes a session
//!   live nowhere only once every backend has answered: one that
//!   cannot may be the live owner.
//! * **Planned draining.** `migrate --all <backend>` walks every
//!   session routed to one backend through the release → promote
//!   handshake, rate-limited by [`RouterConfig::drain_interval`]. The
//!   walk is resumable: it skips sessions that already moved, so
//!   re-issuing it after a router crash simply continues the drain.
//! * **Restart re-discovery.** On startup the router fans
//!   `session list` and `repl status` out to every backend and rebuilds
//!   its route table from the rows (each carries the session's `seq=`
//!   watermark; when two backends claim one session the higher
//!   watermark wins), so a router crash loses no placement and resumes
//!   stamping `@seq` correctly.
//! * **Exactly-once mutations.** Every mutating command is stamped
//!   `@seq` from the route's sequence number. A retried command that
//!   already executed (the crash ate the ack, not the journal append)
//!   is answered `DUPLICATE` by the backend's guard and *not*
//!   re-executed; a stale backend reached by split routing answers
//!   `SEQ-GAP` and refuses. In-flight commands therefore either
//!   complete on the old backend or fail with a retryable structured
//!   error — never execute twice.

use iwb_core::RetryableError;
use iwb_pool::{ProbeSchedule, ThreadPool};
use iwb_rng::StdRng;
use iwb_server::client::{Backoff, Client, Response};
use iwb_server::server::{
    accept_loop, serve_lines, Body, Reply, Shutdown, MAX_HEREDOC_BYTES, MAX_LINE_BYTES,
};
use iwb_server::stats::{render, Counter, Counters};
use iwb_store::fault::{FaultPlan, MIGRATION_STALL, PROBE_TIMEOUT, PROMOTE_STALE, SPLIT_ROUTING};
use iwb_store::rendezvous;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Prober wake granularity (shutdown latency bound).
const PROBE_TICK: Duration = Duration::from_millis(20);

/// How long a command waits for a route that is mid-migration before
/// giving up with a retryable `MOVED` error.
const ROUTE_LOCK_TIMEOUT: Duration = Duration::from_millis(400);

/// How long `migrate <id>` waits for in-flight commands to drain.
const MIGRATE_LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `workbenchd` addresses. Each runs with `--no-recover`,
    /// its own `--store` directory, and streamed replication
    /// (`--repl-peers` listing these addresses in this order).
    pub backends: Vec<String>,
    /// Worker threads (= max concurrently served client connections).
    pub workers: usize,
    /// Mean delay between two probes of the same backend.
    pub probe_interval: Duration,
    /// Jitter fraction on the probe cadence (`0.2` → ±10%).
    pub probe_jitter: f64,
    /// Per-backend connect/read budget for one probe.
    pub probe_timeout: Duration,
    /// Seed for the probe schedules (per-backend seed is
    /// `probe_seed ^ index`).
    pub probe_seed: u64,
    /// Quarantine a backend after this many consecutive probe
    /// failures.
    pub quarantine_after: u32,
    /// Re-admit a quarantined backend after this many consecutive
    /// probe successes.
    pub readmit_after: u32,
    /// Retry policy for shed (`RETRY-AFTER`) and failed-over commands.
    pub retry: Backoff,
    /// Pause between two sessions of a `migrate --all` drain, bounding
    /// the promote-handshake load a planned drain puts on the fleet.
    pub drain_interval: Duration,
    /// Idle time after which a silent client connection is dropped.
    pub read_timeout: Duration,
    /// Deterministic fleet-level fault injection (`backend-crash`,
    /// `probe-timeout`, `split-routing`, `migration-stall`).
    pub faults: FaultPlan,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            workers: 8,
            probe_interval: Duration::from_millis(100),
            probe_jitter: 0.2,
            probe_timeout: Duration::from_millis(150),
            probe_seed: 0xf1ee7,
            quarantine_after: 2,
            readmit_after: 2,
            retry: Backoff {
                attempts: 6,
                base: Duration::from_millis(20),
                max: Duration::from_millis(250),
                seed: 0x40075,
                cap: None,
            },
            drain_interval: Duration::from_millis(25),
            read_timeout: Duration::from_secs(30),
            faults: FaultPlan::none(),
        }
    }
}

/// The router's counters.
#[derive(Debug, Clone, Copy)]
pub enum RouterCounter {
    /// Client commands served.
    Commands,
    /// Health probes answered.
    ProbesOk,
    /// Health probes lost.
    ProbesFailed,
    /// Backends quarantined after consecutive probe failures.
    Quarantines,
    /// Quarantined backends re-admitted.
    Readmissions,
    /// Sessions failed over from an unreachable owner.
    Failovers,
    /// Successful `repl promote` requests.
    Promotions,
    /// Promotions refused as `STALE-REPLICA`.
    StaleReplicaRefusals,
    /// Planned `migrate` moves.
    Migrations,
    /// Sessions moved by `migrate --all`.
    Drained,
    /// Routes adopted from the backends' books at startup.
    Rediscovered,
    /// Commands refused `MOVED` while their route was locked.
    MovedRefusals,
    /// Redeliveries the backend acknowledged as `DUPLICATE`.
    DuplicateAcks,
    /// Stamped commands a backend refused as `SEQ-GAP`.
    SeqGapRejections,
    /// Commands diverted by the `split-routing` fault.
    SplitDiverts,
}

impl Counter<15> for RouterCounter {
    const TABLE: [(Self, &'static str, &'static str); 15] = [
        (RouterCounter::Commands, "router", "commands"),
        (RouterCounter::ProbesOk, "probes", "ok"),
        (RouterCounter::ProbesFailed, "probes", "failed"),
        (RouterCounter::Quarantines, "probes", "quarantines"),
        (RouterCounter::Readmissions, "probes", "readmissions"),
        (RouterCounter::Failovers, "routes", "failovers"),
        (RouterCounter::Promotions, "routes", "promotions"),
        (
            RouterCounter::StaleReplicaRefusals,
            "routes",
            "stale_replica_refusals",
        ),
        (RouterCounter::Migrations, "routes", "migrations"),
        (RouterCounter::Drained, "routes", "drained"),
        (RouterCounter::Rediscovered, "routes", "rediscovered"),
        (RouterCounter::MovedRefusals, "routes", "moved_refusals"),
        (RouterCounter::DuplicateAcks, "sequence", "duplicate_acks"),
        (
            RouterCounter::SeqGapRejections,
            "sequence",
            "seq_gap_rejections",
        ),
        (RouterCounter::SplitDiverts, "sequence", "split_diverts"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Router-side counters, exposed through the `stats` command and the
/// chaos tests.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Every router counter, indexed by [`RouterCounter`].
    pub counters: Counters<RouterCounter, 15>,
}

impl RouterStats {
    /// Sessions failed over so far.
    pub fn failovers_count(&self) -> u64 {
        self.counters.get(RouterCounter::Failovers)
    }

    /// Successful promotions so far.
    pub fn promotions_count(&self) -> u64 {
        self.counters.get(RouterCounter::Promotions)
    }

    /// `STALE-REPLICA` refusals so far.
    pub fn stale_replica_refusals_count(&self) -> u64 {
        self.counters.get(RouterCounter::StaleReplicaRefusals)
    }

    /// `DUPLICATE` acknowledgements so far.
    pub fn duplicate_acks_count(&self) -> u64 {
        self.counters.get(RouterCounter::DuplicateAcks)
    }

    fn add(&self, counter: RouterCounter) {
        self.counters.add(counter, 1);
    }
}

/// One backend's live view.
struct BackendState {
    addr: String,
    sock: SocketAddr,
    healthy: AtomicBool,
    consecutive_fails: AtomicU32,
    consecutive_oks: AtomicU32,
}

/// A session's pinned owner and sequence watermark. Commands lock the
/// state; migration holds the lock across the whole
/// release → promote → flip handshake, so concurrent commands see
/// either the old owner or the new one — never a half-migrated route.
struct RouteState {
    backend: usize,
    seq: u64,
}

struct RouteEntry {
    state: Mutex<RouteState>,
}

/// The fleet: backend membership + the sticky route table.
pub struct Fleet {
    backends: Vec<BackendState>,
    routes: Mutex<HashMap<String, Arc<RouteEntry>>>,
    minted: AtomicU64,
}

impl Fleet {
    fn new(addrs: &[String]) -> io::Result<Fleet> {
        let mut backends = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let sock = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::other(format!("unresolvable backend {addr:?}")))?;
            backends.push(BackendState {
                addr: addr.clone(),
                sock,
                healthy: AtomicBool::new(true),
                consecutive_fails: AtomicU32::new(0),
                consecutive_oks: AtomicU32::new(0),
            });
        }
        Ok(Fleet {
            backends,
            routes: Mutex::new(HashMap::new()),
            minted: AtomicU64::new(0),
        })
    }

    /// Number of configured backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether no backends are configured.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Whether backend `index` is currently considered healthy.
    pub fn backend_healthy(&self, index: usize) -> bool {
        self.backends[index].healthy.load(Ordering::SeqCst)
    }

    /// The backend a session is currently routed to, if any.
    pub fn routed_backend(&self, id: &str) -> Option<usize> {
        let entry = self.route(id)?;
        let st = entry.state.lock().unwrap_or_else(|p| p.into_inner());
        Some(st.backend)
    }

    /// Live route count.
    pub fn route_count(&self) -> usize {
        self.routes.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn route(&self, id: &str) -> Option<Arc<RouteEntry>> {
        self.routes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(id)
            .cloned()
    }

    fn pin(&self, id: &str, backend: usize, seq: u64) -> Arc<RouteEntry> {
        let mut routes = self.routes.lock().unwrap_or_else(|p| p.into_inner());
        routes
            .entry(id.to_owned())
            .or_insert_with(|| {
                Arc::new(RouteEntry {
                    state: Mutex::new(RouteState { backend, seq }),
                })
            })
            .clone()
    }

    fn unpin(&self, id: &str) {
        self.routes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(id);
    }

    /// Re-discovery pin: adopt `backend` as `id`'s owner unless the
    /// table already holds a claim with a higher `seq` watermark — two
    /// backends can both report a session after a messy failover, and
    /// the longer journal is the one whose mutations were acked.
    fn pin_if_better(&self, id: &str, backend: usize, seq: u64) -> bool {
        let mut routes = self.routes.lock().unwrap_or_else(|p| p.into_inner());
        match routes.entry(id.to_owned()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let mut st = e.get().state.lock().unwrap_or_else(|p| p.into_inner());
                if seq > st.seq {
                    st.backend = backend;
                    st.seq = seq;
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::new(RouteEntry {
                    state: Mutex::new(RouteState { backend, seq }),
                }));
                true
            }
        }
    }

    /// The ids currently routed to `backend`, sorted for a
    /// deterministic drain order.
    fn routed_to(&self, backend: usize) -> Vec<String> {
        let entries: Vec<(String, Arc<RouteEntry>)> = self
            .routes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(id, e)| (id.clone(), Arc::clone(e)))
            .collect();
        let mut ids: Vec<String> = entries
            .into_iter()
            .filter(|(_, e)| e.state.lock().unwrap_or_else(|p| p.into_inner()).backend == backend)
            .map(|(id, _)| id)
            .collect();
        ids.sort();
        ids
    }

    /// The session's backend preference order, healthy slots only.
    fn healthy_rank(&self, id: &str) -> Vec<usize> {
        rendezvous::rank(id, self.backends.len())
            .into_iter()
            .filter(|&b| self.backend_healthy(b))
            .collect()
    }

    /// The healthy slots of [`rendezvous::successors`]: the order the
    /// session's journal streams along after `from`, so the backends
    /// most likely to hold a current replica of a session `from` owned
    /// are asked before any other.
    fn successors(&self, id: &str, from: usize) -> Vec<usize> {
        rendezvous::successors(id, self.backends.len(), from)
            .into_iter()
            .filter(|&b| self.backend_healthy(b))
            .collect()
    }

    fn mark_down(&self, index: usize) {
        self.backends[index].healthy.store(false, Ordering::SeqCst);
        self.backends[index]
            .consecutive_oks
            .store(0, Ordering::SeqCst);
    }

    fn record_probe(&self, index: usize, ok: bool, config: &RouterConfig, stats: &RouterStats) {
        let b = &self.backends[index];
        if ok {
            stats.add(RouterCounter::ProbesOk);
            b.consecutive_fails.store(0, Ordering::SeqCst);
            let oks = b.consecutive_oks.fetch_add(1, Ordering::SeqCst) + 1;
            if !b.healthy.load(Ordering::SeqCst) && oks >= config.readmit_after {
                b.healthy.store(true, Ordering::SeqCst);
                stats.add(RouterCounter::Readmissions);
            }
        } else {
            stats.add(RouterCounter::ProbesFailed);
            b.consecutive_oks.store(0, Ordering::SeqCst);
            let fails = b.consecutive_fails.fetch_add(1, Ordering::SeqCst) + 1;
            if b.healthy.load(Ordering::SeqCst) && fails >= config.quarantine_after.max(1) {
                b.healthy.store(false, Ordering::SeqCst);
                stats.add(RouterCounter::Quarantines);
            }
        }
    }
}

/// Lock a route's state, waiting up to `budget`. `None` means the
/// route is busy (a migration or long command holds it) — the caller
/// answers with a retryable `MOVED`.
fn lock_route(entry: &RouteEntry, budget: Duration) -> Option<MutexGuard<'_, RouteState>> {
    let started = Instant::now();
    loop {
        match entry.state.try_lock() {
            Ok(guard) => return Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => return Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => {
                if started.elapsed() >= budget {
                    return None;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// A handle to a running router.
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Shutdown,
    threads: Vec<JoinHandle<()>>,
    pool: Arc<ThreadPool>,
    stats: Arc<RouterStats>,
    fleet: Arc<Fleet>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Router counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Fleet membership and routing view.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Begin shutdown; use [`RouterHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shutdown.request();
    }

    /// Wait for a shutdown request ([`RouterHandle::shutdown`] or the
    /// `shutdown` protocol command) and for the acceptor, prober, and
    /// workers to exit.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.pool.close();
    }
}

/// Start the router; returns once its listener is bound and the
/// prober and acceptor ([`accept_loop`], with no admission bound)
/// threads are running.
pub fn serve(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(io::Error::other("router needs at least one backend"));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let shutdown = Shutdown::new(addr);
    let stats = Arc::new(RouterStats::default());
    let fleet = Arc::new(Fleet::new(&config.backends)?);
    // Restart re-discovery: before serving, adopt the placement the
    // backends already hold. A router crash loses only the route
    // table, and the backends' own books rebuild it.
    rediscover(&fleet, &stats);
    let pool = Arc::new(ThreadPool::new(config.workers));
    let mut threads = Vec::new();

    // Prober: one thread, per-backend seeded-jitter schedules. The
    // schedule is fixed-rate (next fire = previous fire + jittered
    // delay, not `now + delay`), so the probe *order* across backends
    // is a pure function of the seed — chaos runs replay identically.
    {
        let shutdown = shutdown.clone();
        let stats = Arc::clone(&stats);
        let fleet = Arc::clone(&fleet);
        let config = config.clone();
        threads.push(thread::spawn(move || {
            let mut schedules: Vec<ProbeSchedule> = (0..fleet.len())
                .map(|i| {
                    ProbeSchedule::new(
                        config.probe_seed ^ i as u64,
                        config.probe_interval,
                        config.probe_jitter,
                    )
                })
                .collect();
            let start = Instant::now();
            let mut next: Vec<Instant> =
                schedules.iter_mut().map(|s| start + s.stagger()).collect();
            while !shutdown.requested() {
                let (idx, due) = next
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(i, t)| (t, i))
                    .expect("at least one backend");
                let now = Instant::now();
                if due > now {
                    thread::sleep((due - now).min(PROBE_TICK));
                    continue;
                }
                let ok = probe_backend(&fleet.backends[idx], &config);
                fleet.record_probe(idx, ok, &config, &stats);
                next[idx] = due + schedules[idx].next_delay();
            }
        }));
    }

    // Acceptor: one pool job per client connection. Heredoc bodies are
    // gathered before dispatch and replayed upstream as one unit, so a
    // retry after failover resends the complete command.
    {
        let serve = {
            let shutdown = shutdown.clone();
            let stats = Arc::clone(&stats);
            let fleet = Arc::clone(&fleet);
            move |stream| {
                let mut conn = ClientConn {
                    fleet: &fleet,
                    stats: &stats,
                    config: &config,
                    shutdown: &shutdown,
                    attached: None,
                    upstream: None,
                };
                let _ = serve_lines(
                    stream,
                    &shutdown,
                    config.read_timeout,
                    MAX_LINE_BYTES,
                    MAX_HEREDOC_BYTES,
                    0,
                    |command, body| {
                        stats.add(RouterCounter::Commands);
                        Some(conn.dispatch(command, body.and_then(Body::heredoc)))
                    },
                );
            }
        };
        let shutdown = shutdown.clone();
        let pool = Arc::clone(&pool);
        threads.push(thread::spawn(move || {
            accept_loop(listener, &shutdown, &pool, 0, || {}, serve);
        }));
    }

    Ok(RouterHandle {
        addr,
        shutdown,
        threads,
        pool,
        stats,
        fleet,
    })
}

/// Parse one ownership row — `id=<id> … seq=<n>` (a `session list`
/// line, or the tail of a `repl status` `source` line) — into the
/// session id and its sequence watermark. Rows without a watermark
/// (journaling off) claim `seq=0`.
fn ownership_row(line: &str) -> Option<(String, u64)> {
    let mut id = None;
    let mut seq = None;
    for token in line.split_whitespace() {
        if let Some(v) = token.strip_prefix("id=") {
            id.get_or_insert_with(|| v.to_owned());
        } else if let Some(v) = token.strip_prefix("seq=") {
            if seq.is_none() {
                seq = v.parse().ok();
            }
        }
    }
    Some((id?, seq.unwrap_or(0)))
}

/// Router-restart re-discovery: fan `session list` and `repl status`
/// out to every backend and rebuild the route table from the rows.
/// Live sessions (`session list`) and replication sources
/// (`repl status`) both claim ownership; when two backends claim one
/// session the higher `seq=` watermark wins ([`Fleet::pin_if_better`]).
/// Unreachable backends are skipped — the prober will quarantine them.
fn rediscover(fleet: &Fleet, stats: &RouterStats) {
    for b in 0..fleet.len() {
        let Ok(mut client) = Client::connect(fleet.backends[b].sock) else {
            continue;
        };
        for (command, marker) in [("session list", "id="), ("repl status", "source ")] {
            let Ok(resp) = client.request(command) else {
                break;
            };
            if !resp.ok {
                continue;
            }
            for line in resp.body.lines() {
                let line = line.trim_start();
                if !line.starts_with(marker) {
                    continue;
                }
                if let Some((id, seq)) = ownership_row(line) {
                    if fleet.pin_if_better(&id, b, seq) {
                        stats.add(RouterCounter::Rediscovered);
                    }
                }
            }
        }
    }
}

/// One health probe: dial within the probe budget, send `probe`, and
/// accept any well-formed reply header as liveness — a `RETRY-AFTER`
/// shed still proves the backend is up, just busy. The `probe-timeout`
/// fault point simulates a lost probe without touching the backend.
fn probe_backend(backend: &BackendState, config: &RouterConfig) -> bool {
    if config.faults.fires(PROBE_TIMEOUT).is_some() {
        return false;
    }
    let Ok(stream) = TcpStream::connect_timeout(&backend.sock, config.probe_timeout) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(config.probe_timeout));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    if stream.write_all(b"probe\n").is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    use std::io::BufRead;
    match reader.read_line(&mut header) {
        Ok(n) if n > 0 => header.starts_with("ok") || header.starts_with("err"),
        _ => false,
    }
}

/// An upstream backend connection attached to the client's session.
struct Upstream {
    backend: usize,
    client: Client,
}

/// Per-client-connection proxy state.
struct ClientConn<'a> {
    fleet: &'a Arc<Fleet>,
    stats: &'a Arc<RouterStats>,
    config: &'a RouterConfig,
    shutdown: &'a Shutdown,
    attached: Option<String>,
    upstream: Option<Upstream>,
}

/// Extract the `seq=N` watermark a backend appends to attach/release/
/// promote replies.
fn seq_in(body: &str) -> Option<u64> {
    let (_, tail) = body.rsplit_once("seq=")?;
    tail.split_whitespace().next()?.parse().ok()
}

/// The `repl promote` refusals that mean the backend holds nothing of
/// the session: no persisted state, journaling off, an invalid id.
const NOTHING_TO_PROMOTE: [&str; 3] = [
    "no persisted state",
    "journaling disabled",
    "invalid session id",
];

/// One backend's answer to a `repl promote` request.
enum PromoteOutcome {
    /// Promoted; the backend's post-promotion sequence watermark.
    Promoted(u64),
    /// Refused: the backend's evidence is provably behind the floor.
    /// Carries the backend's `STALE-REPLICA …` body for the client.
    Stale(String),
    /// The backend answered that it holds no evidence for the session
    /// ([`NOTHING_TO_PROMOTE`]).
    Absent,
    /// The backend could not answer (unreachable, shedding, a failed
    /// rebuild): it may still hold the session's history.
    Unavailable,
}

/// How a promotion walk ended.
enum FailoverOutcome {
    /// The route flipped to a promoted successor.
    Flipped,
    /// Every candidate holding evidence was provably stale; the
    /// `STALE-REPLICA` body is surfaced to the client rather than
    /// serving a silently rewound session.
    Stale(String),
    /// No healthy backend could take the session.
    NoBackend,
}

/// How a backend answered `session attach <id>`.
enum Attach {
    /// Attached: the connection and the backend's `seq=` watermark.
    Live(Client, Option<u64>),
    /// The backend answered that the session is not live there.
    NotLive,
    /// The backend is up but shed the attach with a retryable refusal
    /// (its reply body): the session may well be live there.
    Shed(String),
    /// Unreachable, or refused for any other reason.
    Failed(String),
}

impl ClientConn<'_> {
    /// Route one command.
    fn dispatch(&mut self, command: &str, heredoc: Option<&str>) -> Reply {
        let words: Vec<&str> = command.split_whitespace().collect();
        match words.as_slice() {
            ["session", "new"] => self.place_new(None),
            ["session", "new", id] => self.place_new(Some(id)),
            ["session", "attach", id] => self.attach(id),
            ["session", "detach"] => match self.attached.take() {
                Some(id) => {
                    self.upstream = None;
                    Reply::ok(format!("session {id} detached"))
                }
                None => Reply::err("no session attached"),
            },
            ["session", "current"] => match self.attached.as_ref() {
                Some(id) => Reply::ok(format!("session {id}")),
                None => Reply::ok("none"),
            },
            ["session", "close"] | ["session", "close", _] => {
                let id = match words.get(2).copied().map(str::to_owned) {
                    Some(id) => id,
                    None => match self.attached.clone() {
                        Some(id) => id,
                        None => {
                            return Reply::err("no session attached; name one: session close <id>")
                        }
                    },
                };
                self.close_session(&id)
            }
            ["session", "list"] => self.aggregate("session list"),
            ["migrate", "--all", sel] => self.drain_backend(sel),
            ["migrate"] | ["migrate", "--all"] => {
                Reply::err("usage: migrate <session> | migrate --all <backend>")
            }
            ["migrate", id] => self.migrate(id),
            ["cancel", id] => match self.fleet.routed_backend(id) {
                Some(b) => match self.admin_request(b, &format!("cancel {id}")) {
                    Ok(resp) => resp.into(),
                    Err(e) => Reply::err(format!("backend unreachable: {e}")),
                },
                None => Reply::err(format!("no session {id:?}")),
            },
            ["probe"] => {
                let healthy = (0..self.fleet.len())
                    .filter(|&b| self.fleet.backend_healthy(b))
                    .count();
                Reply::new(
                    healthy > 0,
                    format!(
                        "ready backends={healthy}/{} routes={}",
                        self.fleet.len(),
                        self.fleet.route_count()
                    ),
                )
            }
            ["ping"] => Reply::ok("pong"),
            ["stats"] => {
                let scopes: Vec<String> = (0..self.fleet.len())
                    .map(|i| format!("backend.{i}"))
                    .collect();
                let backends = self
                    .fleet
                    .backends
                    .iter()
                    .zip(&scopes)
                    .flat_map(|(b, scope)| {
                        [
                            (scope.as_str(), "addr", b.addr.clone()),
                            (
                                scope.as_str(),
                                "healthy",
                                b.healthy.load(Ordering::SeqCst).to_string(),
                            ),
                        ]
                    });
                Reply::ok(render(self.stats.counters.fields().chain(backends)))
            }
            ["shutdown"] => {
                self.shutdown.request();
                Reply::ok("router shutting down (backends keep running)").closing()
            }
            ["quit"] => Reply::ok("bye").closing(),
            _ => self.forward_shell(command, heredoc),
        }
    }

    /// Place a new session on its rendezvous-ranked owner, walking the
    /// ranking (and retrying with backoff) past shedding backends.
    fn place_new(&mut self, requested: Option<&str>) -> Reply {
        let id = match requested {
            Some(id) => id.to_owned(),
            // Router-minted ids (`r1`, `r2`, …) keep anonymous
            // `session new` collision-free across backends, each of
            // which mints its own `s1`, `s2`, … namespace.
            None => format!("r{}", self.fleet.minted.fetch_add(1, Ordering::Relaxed) + 1),
        };
        if self.fleet.route(&id).is_some() {
            return Reply::err(format!("session id {id:?} already routed"));
        }
        let mut rng = StdRng::seed_from_u64(self.config.retry.seed);
        let mut last = "RETRY-AFTER 100ms: no healthy backend".to_owned();
        for attempt in 0..self.config.retry.attempts.max(1) {
            for b in self.fleet.healthy_rank(&id) {
                match self.dial(b) {
                    Ok(mut client) => match client.request(&format!("session new {id}")) {
                        Ok(resp) if resp.ok => {
                            self.fleet.pin(&id, b, 0);
                            self.attached = Some(id.clone());
                            self.upstream = Some(Upstream { backend: b, client });
                            return Reply::ok(format!("session {id} created (attached)"));
                        }
                        Ok(resp) => {
                            match RetryableError::parse(&resp.body) {
                                // Shed: fall through to the next-ranked
                                // healthy backend.
                                Some(e) if e.is_retryable() => last = resp.body,
                                _ => return resp.into(),
                            }
                        }
                        Err(e) => last = format!("backend {b} unreachable: {e}"),
                    },
                    Err(e) => last = format!("backend {b} unreachable: {e}"),
                }
            }
            if attempt + 1 < self.config.retry.attempts {
                thread::sleep(self.config.retry.delay(attempt, &mut rng));
            }
        }
        Reply::err(last)
    }

    /// Attach to an existing session. On a route hit, an owner that
    /// sheds the attach is retried with backoff, and one that cannot
    /// be reached or no longer holds the session is failed over. A
    /// route miss asks every backend whether the session is live there,
    /// and a session live nowhere is promoted (`repl promote <id> 0`)
    /// on the first ranked backend holding evidence for it.
    fn attach(&mut self, id: &str) -> Reply {
        if let Some(entry) = self.fleet.route(id) {
            let Some(mut st) = lock_route(&entry, ROUTE_LOCK_TIMEOUT) else {
                self.stats.add(RouterCounter::MovedRefusals);
                return Reply::err(
                    RetryableError::Moved {
                        session: id.to_owned(),
                        detail: "session migrating; retry".to_owned(),
                    }
                    .to_string(),
                );
            };
            let mut rng = StdRng::seed_from_u64(self.config.retry.seed ^ 0xa77);
            let mut last = format!("RETRY-AFTER 250ms: no backend attached session {id}");
            for attempt in 0..self.config.retry.attempts.max(1) {
                match self.dial_attached(st.backend, id) {
                    Attach::Live(client, seq) => {
                        if let Some(n) = seq {
                            st.seq = n;
                        }
                        return self.adopt_upstream(id, st.backend, client, st.seq);
                    }
                    Attach::Shed(body) => {
                        self.back_off(attempt, &mut rng, &body);
                        last = body;
                    }
                    Attach::NotLive | Attach::Failed(_) => match self.failover(id, &mut st) {
                        FailoverOutcome::Flipped => {}
                        FailoverOutcome::Stale(body) => return Reply::err(body),
                        FailoverOutcome::NoBackend => {
                            return Reply::err(format!(
                                "RETRY-AFTER 250ms: no healthy backend holds session {id}"
                            ))
                        }
                    },
                }
            }
            return Reply::err(last);
        }
        // Route miss. Floor 0 proves nothing, so a promotion is safe
        // only once every backend has answered: one that cannot (down,
        // quarantined, shedding) may be the live owner, and promoting a
        // replica elsewhere would fork the session's history.
        let unanswered = || {
            Reply::err(format!(
                "RETRY-AFTER 250ms: a backend that may hold session {id} did not answer"
            ))
        };
        let ranked = rendezvous::rank(id, self.fleet.len());
        let mut all_answered = true;
        for &b in &ranked {
            if !self.fleet.backend_healthy(b) {
                all_answered = false;
                continue;
            }
            match self.dial_attached(b, id) {
                Attach::Live(client, seq) => {
                    let seq = seq.unwrap_or(0);
                    self.fleet.pin(id, b, seq);
                    return self.adopt_upstream(id, b, client, seq);
                }
                Attach::NotLive => {}
                Attach::Shed(_) | Attach::Failed(_) => all_answered = false,
            }
        }
        if !all_answered {
            return unanswered();
        }
        for &b in &ranked {
            match self.promote_on(b, id, 0) {
                PromoteOutcome::Promoted(seq) => {
                    self.fleet.pin(id, b, seq);
                    return match self.dial_attached(b, id) {
                        Attach::Live(client, attach_seq) => {
                            self.adopt_upstream(id, b, client, attach_seq.unwrap_or(seq))
                        }
                        Attach::NotLive => Reply::err(format!("no session {id:?}")),
                        Attach::Shed(why) | Attach::Failed(why) => {
                            Reply::err(format!("backend unreachable: {why}"))
                        }
                    };
                }
                PromoteOutcome::Stale(body) => return Reply::err(body),
                PromoteOutcome::Absent => {}
                PromoteOutcome::Unavailable => return unanswered(),
            }
        }
        Reply::err(format!("no session {id:?}"))
    }

    /// Make `client`, attached to `id` on `backend`, this connection's
    /// upstream.
    fn adopt_upstream(&mut self, id: &str, backend: usize, client: Client, seq: u64) -> Reply {
        self.upstream = Some(Upstream { backend, client });
        self.attached = Some(id.to_owned());
        Reply::ok(format!("session {id} attached seq={seq}"))
    }

    fn close_session(&mut self, id: &str) -> Reply {
        if self.attached.as_deref() == Some(id) {
            self.attached = None;
            self.upstream = None;
        }
        let Some(b) = self.fleet.routed_backend(id) else {
            return Reply::err(format!("no session {id:?}"));
        };
        match self.admin_request(b, &format!("session close {id}")) {
            Ok(resp) => {
                if resp.ok {
                    self.fleet.unpin(id);
                }
                resp.into()
            }
            Err(e) => Reply::err(format!("backend unreachable: {e}")),
        }
    }

    /// Fan an admin command out to every healthy backend and join the
    /// reply bodies.
    fn aggregate(&mut self, command: &str) -> Reply {
        let mut lines = Vec::new();
        for b in 0..self.fleet.len() {
            if !self.fleet.backend_healthy(b) {
                continue;
            }
            if let Ok(resp) = self.admin_request(b, command) {
                if resp.ok && !resp.body.is_empty() {
                    lines.push(resp.body);
                }
            }
        }
        Reply::ok(lines.join("\n"))
    }

    /// Planned migration: hold the route lock across the whole
    /// release → (stall) → promote → flip handshake. Concurrent
    /// commands and attaches on this session time out on the lock and
    /// answer `MOVED` — retryable, and correct both before and after
    /// the flip.
    fn migrate(&mut self, id: &str) -> Reply {
        let Some(entry) = self.fleet.route(id) else {
            return Reply::err(format!("no session {id:?}"));
        };
        let Some(mut st) = lock_route(&entry, MIGRATE_LOCK_TIMEOUT) else {
            return Reply::err(format!("session {id} is busy; migration not started"));
        };
        let old = st.backend;
        let release = self.admin_request(old, &format!("session release {id}"));
        let released = release.as_ref().map(|r| r.ok).unwrap_or(false);
        // The promotion floor: everything this router acked, raised to
        // the released watermark when the old owner answered — the
        // successor must prove it holds the complete history before
        // the route flips.
        let floor = release
            .ok()
            .filter(|r| r.ok)
            .and_then(|r| seq_in(&r.body))
            .unwrap_or(0)
            .max(st.seq);
        if let Some(ms) = self.config.faults.fires(MIGRATION_STALL) {
            thread::sleep(Duration::from_millis(ms.max(50)));
        }
        let outcome = self.promote_walk(id, floor, &mut st);
        if let FailoverOutcome::Flipped = outcome {
            self.upstream = None;
            self.stats.add(RouterCounter::Migrations);
            return Reply::ok(format!(
                "session {id} migrated backend {old} -> {} seq={}",
                st.backend, st.seq
            ));
        }
        // No successor took it: promote it back on the old owner, from
        // its own journal, so the session stays live where the route
        // still points.
        if released {
            let _ = self.promote_on(old, id, floor);
        }
        match outcome {
            FailoverOutcome::Stale(body) => Reply::err(body),
            _ => Reply::err(format!(
                "no healthy successor for session {id}; migration aborted"
            )),
        }
    }

    /// Planned drain: walk every session routed to one backend through
    /// the release → promote handshake, pausing
    /// [`RouterConfig::drain_interval`] between sessions so the drain
    /// never stampedes the fleet. Resumable by construction — sessions
    /// that already left the backend (an earlier interrupted drain, or
    /// a concurrent failover) are skipped, so re-issuing the command
    /// after a router crash continues where the last walk stopped.
    fn drain_backend(&mut self, sel: &str) -> Reply {
        let Some(from) = self.resolve_backend(sel) else {
            return Reply::err(format!(
                "no backend {sel:?} (give an index or a configured address)"
            ));
        };
        let ids = self.fleet.routed_to(from);
        let total = ids.len();
        let mut moved = 0usize;
        let mut skipped = 0usize;
        let mut failures = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if self.fleet.routed_backend(id) != Some(from) {
                skipped += 1;
                continue;
            }
            let reply = self.migrate(id);
            if reply.ok {
                moved += 1;
                self.stats.add(RouterCounter::Drained);
            } else {
                failures.push(format!("{id}: {}", reply.body));
            }
            if i + 1 < total {
                thread::sleep(self.config.drain_interval);
            }
        }
        let mut body = format!("drained {moved}/{total} session(s) from backend {from}");
        if skipped > 0 {
            body.push_str(&format!(" ({skipped} already elsewhere)"));
        }
        for f in &failures {
            body.push_str(&format!("\nfailed {f}"));
        }
        Reply::new(failures.is_empty(), body)
    }

    /// A backend named by index (`migrate --all 1`) or by its
    /// configured address (`migrate --all 127.0.0.1:7181`).
    fn resolve_backend(&self, sel: &str) -> Option<usize> {
        if let Ok(i) = sel.parse::<usize>() {
            return (i < self.fleet.len()).then_some(i);
        }
        self.fleet.backends.iter().position(|b| b.addr == sel)
    }

    /// Forward one shell command to the session's owner, stamping
    /// mutating commands with the route's sequence number. An owner
    /// that sheds is retried with backoff; one that cannot be reached
    /// is failed over (release → promote → flip) and the *same* stamp
    /// is retried on the new owner.
    fn forward_shell(&mut self, command: &str, heredoc: Option<&str>) -> Reply {
        let Some(id) = self.attached.clone() else {
            return Reply::err("no session attached (use: session new)");
        };
        let Some(entry) = self.fleet.route(&id) else {
            return Reply::err(format!("no session {id:?}"));
        };
        let Some(mut st) = lock_route(&entry, ROUTE_LOCK_TIMEOUT) else {
            self.stats.add(RouterCounter::MovedRefusals);
            return Reply::err(
                RetryableError::Moved {
                    session: id,
                    detail: "session migrating; retry".to_owned(),
                }
                .to_string(),
            );
        };
        let mutating = iwb_core::shell::mutates(command);
        // The stamp is fixed *once*: every retry of this command —
        // including across a failover — resends the same `@N`, so the
        // backend guard makes redelivery idempotent.
        let stamp = mutating.then_some(st.seq);

        if mutating && self.config.faults.fires(SPLIT_ROUTING).is_some() {
            self.divert_split(&id, st.backend, stamp.unwrap_or(0), command, heredoc);
        }

        let mut rng = StdRng::seed_from_u64(self.config.retry.seed ^ 0x5117);
        let mut last = Reply::err("no healthy backend");
        for attempt in 0..self.config.retry.attempts.max(1) {
            if self.upstream.as_ref().map(|u| u.backend) != Some(st.backend) {
                self.upstream = None;
            }
            if self.upstream.is_none() {
                match self.dial_attached(st.backend, &id) {
                    Attach::Live(client, seq) => {
                        if let (Some(n), None) = (seq, stamp) {
                            st.seq = n;
                        }
                        self.upstream = Some(Upstream {
                            backend: st.backend,
                            client,
                        });
                    }
                    Attach::Shed(body) => {
                        self.back_off(attempt, &mut rng, &body);
                        last = Reply::err(body);
                        continue;
                    }
                    Attach::NotLive | Attach::Failed(_) => {
                        match self.failover(&id, &mut st) {
                            FailoverOutcome::Flipped => {}
                            FailoverOutcome::Stale(body) => return Reply::err(body),
                            FailoverOutcome::NoBackend => {
                                return Reply::err(format!(
                                    "RETRY-AFTER 250ms: no healthy backend for session {id}"
                                ))
                            }
                        }
                        continue;
                    }
                }
            }
            let line = match stamp {
                Some(s) => format!("@{s} {command}"),
                None => command.to_owned(),
            };
            let up = self.upstream.as_mut().expect("ensured above");
            let result = match heredoc {
                Some(body) => up.client.request_with_heredoc(&line, body),
                None => up.client.request(&line),
            };
            match result {
                Ok(resp) => {
                    if resp.ok {
                        if let Some(s) = stamp {
                            if resp.body.starts_with("DUPLICATE") {
                                self.stats.add(RouterCounter::DuplicateAcks);
                                st.seq = st.seq.max(s + 1);
                            } else {
                                st.seq = s + 1;
                            }
                        }
                        return resp.into();
                    }
                    match RetryableError::parse(&resp.body) {
                        Some(RetryableError::RetryAfter { .. }) => {
                            self.back_off(attempt, &mut rng, &resp.body);
                            last = resp.into();
                        }
                        Some(RetryableError::SeqGap { expected, .. }) => {
                            // The pinned owner is *behind* our stamp:
                            // our watermark was wrong (e.g. a stale
                            // route). Trust the backend and resync.
                            self.stats.add(RouterCounter::SeqGapRejections);
                            st.seq = expected;
                            return resp.into();
                        }
                        _ => return resp.into(),
                    }
                }
                // The connection broke mid-flight: the ack (if any) is
                // lost, but the journal record (if reached) survives on
                // the owner and in its successor's replica. Re-dial: a
                // live owner answers the same stamped command again, an
                // unreachable one is failed over first.
                Err(_) => self.upstream = None,
            }
        }
        last
    }

    /// Sleep before retry `attempt` of a backend that shed a request:
    /// the jittered backoff, floored at the refusal's own `RETRY-AFTER`
    /// hint.
    fn back_off(&self, attempt: u32, rng: &mut StdRng, refusal: &str) {
        let hint = RetryableError::parse(refusal)
            .and_then(|e| e.retry_after_ms())
            .unwrap_or(0);
        thread::sleep(
            self.config
                .retry
                .delay(attempt, rng)
                .max(Duration::from_millis(hint)),
        );
    }

    /// Ask backend `b` to promote `id`, refusing below `floor` — the
    /// last seq this router saw acknowledged to a client. The
    /// `promote-stale` fault raises the floor to an unreachable
    /// watermark, forcing the backend's `STALE-REPLICA` refusal path
    /// deterministically (chaos tests prove the refusal is surfaced,
    /// not papered over).
    fn promote_on(&self, b: usize, id: &str, floor: u64) -> PromoteOutcome {
        let floor = match self.config.faults.fires(PROMOTE_STALE) {
            Some(_) => u64::MAX,
            None => floor,
        };
        match self.admin_request(b, &format!("repl promote {id} {floor}")) {
            Ok(resp) if resp.ok => {
                self.stats.add(RouterCounter::Promotions);
                PromoteOutcome::Promoted(seq_in(&resp.body).unwrap_or(floor))
            }
            Ok(resp) if resp.body.starts_with("STALE-REPLICA") => {
                self.stats.add(RouterCounter::StaleReplicaRefusals);
                PromoteOutcome::Stale(resp.body)
            }
            Ok(resp) if NOTHING_TO_PROMOTE.iter().any(|p| resp.body.starts_with(p)) => {
                PromoteOutcome::Absent
            }
            _ => PromoteOutcome::Unavailable,
        }
    }

    /// Crash failover: quarantine the dead owner, release best-effort
    /// (a crashed backend cannot answer; an alive-but-quarantined one
    /// must drop the session so it is never live in two places), then
    /// promote the session on a successor at the route's floor.
    fn failover(&self, id: &str, st: &mut RouteState) -> FailoverOutcome {
        let dead = st.backend;
        self.fleet.mark_down(dead);
        self.stats.add(RouterCounter::Failovers);
        let _ = self.admin_request(dead, &format!("session release {id}"));
        if let Some(ms) = self.config.faults.fires(MIGRATION_STALL) {
            thread::sleep(Duration::from_millis(ms.max(50)));
        }
        self.promote_walk(id, st.seq, st)
    }

    /// The one way a session changes owner: walk the current owner's
    /// successors ([`Fleet::successors`]) asking each to `repl promote`
    /// the session at `floor`, and flip the route to the first that
    /// succeeds. A `STALE-REPLICA` refusal is remembered and surfaced
    /// when nobody can do better. Walking past a backend that cannot
    /// answer is safe here: every candidate must prove `floor`.
    fn promote_walk(&self, id: &str, floor: u64, st: &mut RouteState) -> FailoverOutcome {
        let mut stale = None;
        for b in self.fleet.successors(id, st.backend) {
            match self.promote_on(b, id, floor) {
                PromoteOutcome::Promoted(seq) => {
                    st.backend = b;
                    st.seq = seq.max(st.seq);
                    return FailoverOutcome::Flipped;
                }
                PromoteOutcome::Stale(body) => stale = Some(body),
                PromoteOutcome::Absent | PromoteOutcome::Unavailable => {}
            }
        }
        match stale {
            Some(body) => FailoverOutcome::Stale(body),
            None => FailoverOutcome::NoBackend,
        }
    }

    /// Deliberately route one stamped command to a *non-owner* backend
    /// (the `split-routing` fault): the stale replica must refuse with
    /// `SEQ-GAP` (or ack `DUPLICATE`), proving the sequence guard, not
    /// the router's bookkeeping, is what prevents forked histories.
    fn divert_split(
        &self,
        id: &str,
        pinned: usize,
        seq: u64,
        command: &str,
        heredoc: Option<&str>,
    ) {
        let Some(other) = self
            .fleet
            .healthy_rank(id)
            .into_iter()
            .find(|&b| b != pinned)
        else {
            return;
        };
        self.stats.add(RouterCounter::SplitDiverts);
        let Ok(mut client) = self.dial(other) else {
            return;
        };
        let Ok(attach) = client.request(&format!("session attach {id}")) else {
            return;
        };
        if !attach.ok {
            return; // no replica there: nothing to mis-route to
        }
        let line = format!("@{seq} {command}");
        let result = match heredoc {
            Some(body) => client.request_with_heredoc(&line, body),
            None => client.request(&line),
        };
        if let Ok(resp) = result {
            if resp.body.starts_with("SEQ-GAP") {
                self.stats.add(RouterCounter::SeqGapRejections);
            } else if resp.body.starts_with("DUPLICATE") {
                self.stats.add(RouterCounter::DuplicateAcks);
            }
        }
    }

    fn dial(&self, backend: usize) -> io::Result<Client> {
        Client::connect(self.fleet.backends[backend].sock)
    }

    /// Dial a backend and ask it to attach `id`.
    fn dial_attached(&self, backend: usize, id: &str) -> Attach {
        let mut client = match self.dial(backend) {
            Ok(client) => client,
            Err(e) => return Attach::Failed(format!("backend {backend}: {e}")),
        };
        let resp = match client.request(&format!("session attach {id}")) {
            Ok(resp) => resp,
            Err(e) => return Attach::Failed(format!("backend {backend}: {e}")),
        };
        if resp.ok {
            Attach::Live(client, seq_in(&resp.body))
        } else if resp.body.starts_with("no session ") {
            Attach::NotLive
        } else if RetryableError::parse(&resp.body).is_some_and(|e| e.is_retryable()) {
            Attach::Shed(resp.body)
        } else {
            Attach::Failed(format!("attach {id} on backend {backend}: {}", resp.body))
        }
    }

    /// One short-lived admin request (release/promote/close/cancel) on
    /// its own connection, so admin traffic never disturbs the
    /// attached upstream.
    fn admin_request(&self, backend: usize, command: &str) -> io::Result<Response> {
        let mut client = self.dial(backend)?;
        client.request(command)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_rows_parse_list_and_status_lines() {
        assert_eq!(
            ownership_row("id=r1 commands=4 idle_ms=12 seq=4"),
            Some(("r1".to_owned(), 4))
        );
        assert_eq!(
            ownership_row("id=r2 commands=0 idle_ms=3 quarantined=true"),
            Some(("r2".to_owned(), 0)),
            "journaling-off rows claim seq=0"
        );
        assert_eq!(
            ownership_row("source id=r3 seq=7 acked=5 lag=2"),
            Some(("r3".to_owned(), 7)),
            "only the first seq= token is the watermark"
        );
        assert_eq!(ownership_row("repl self=0 peers=3"), None);
    }

    #[test]
    fn rediscovery_pins_prefer_the_higher_watermark() {
        let fleet = Fleet::new(&["127.0.0.1:1".to_owned(), "127.0.0.1:2".to_owned()]).unwrap();
        assert!(fleet.pin_if_better("s1", 0, 3));
        assert!(
            !fleet.pin_if_better("s1", 1, 3),
            "an equal watermark must not steal the route"
        );
        assert_eq!(fleet.routed_backend("s1"), Some(0));
        assert!(
            fleet.pin_if_better("s1", 1, 5),
            "the longer journal is the acked history"
        );
        assert_eq!(fleet.routed_backend("s1"), Some(1));
        assert_eq!(fleet.routed_to(1), vec!["s1".to_owned()]);
        assert!(fleet.routed_to(0).is_empty());
    }

    #[test]
    fn successors_follow_the_replication_order_after_the_owner() {
        let addrs: Vec<String> = (1..=3).map(|port| format!("127.0.0.1:{port}")).collect();
        let fleet = Fleet::new(&addrs).unwrap();
        let order = rendezvous::rank("s1", 3);
        assert_eq!(fleet.successors("s1", order[0]), vec![order[1], order[2]]);
        assert_eq!(
            fleet.successors("s1", order[1]),
            vec![order[2], order[0]],
            "after a failover the promoted owner's own successor comes first"
        );
        fleet.mark_down(order[2]);
        assert_eq!(fleet.successors("s1", order[1]), vec![order[0]]);
    }
}
