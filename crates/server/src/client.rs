//! A small blocking client for the workbench daemon.
//!
//! Used by the `bench_server` load generator, the integration tests,
//! and scripts. One [`Client`] is one connection; requests are
//! synchronous (write command, read the `ok/err <n>`-framed reply).
//! Each request — a heredoc body included — goes out in one write, and
//! a reply the server sent before closing (a load shed answers before
//! the request is read) is returned even when that write then fails.
//!
//! For long-lived callers the client also knows how to survive a
//! daemon restart: [`Client::connect_with_backoff`] retries the dial
//! with exponential backoff + jitter, and [`Client::reconnect`]
//! re-dials the same peer and safely re-attaches the session the
//! client was using (sessions survive restarts when the daemon runs
//! with `--recover`, so a reconnect usually lands exactly where the
//! crash interrupted).

use iwb_core::RetryableError;
use iwb_rng::StdRng;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

/// One framed server reply.
#[derive(Debug, Clone)]
pub struct Response {
    /// Whether the server answered `ok` (vs `err`).
    pub ok: bool,
    /// The body (joined lines, no trailing newline).
    pub body: String,
}

impl Response {
    /// The body if `ok`, else an `io::Error` carrying the error body.
    pub fn expect_ok(self) -> io::Result<String> {
        if self.ok {
            Ok(self.body)
        } else {
            Err(io::Error::other(format!("server error: {}", self.body)))
        }
    }
}

/// Exponential backoff with jitter for (re)connect attempts.
///
/// Attempt `i` sleeps `min(base * 2^i, max)` scaled by a jitter factor
/// drawn uniformly from `[0.5, 1.0)` — jitter is seeded, so a chaos
/// run's reconnect timing is as reproducible as its fault plan.
///
/// An optional `cap` bounds the *total* retry wall-time: once the
/// budget is spent, no further attempt is made and the last error is
/// returned. Callers holding a command [`iwb_pool::Deadline`] derive
/// the cap from it ([`Backoff::until_deadline`]) so retries can never
/// outlive the command they serve.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Connection attempts before giving up (≥ 1).
    pub attempts: u32,
    /// Delay before the second attempt.
    pub base: Duration,
    /// Cap on any single delay.
    pub max: Duration,
    /// Jitter seed.
    pub seed: u64,
    /// Cap on the total wall-time spent retrying (`None`: only the
    /// attempt count bounds the loop).
    pub cap: Option<Duration>,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            attempts: 8,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
            seed: 0x1b_0ff,
            cap: None,
        }
    }
}

impl Backoff {
    /// Bound the total retry wall-time to `budget`.
    pub fn capped(mut self, budget: Duration) -> Backoff {
        self.cap = Some(budget);
        self
    }

    /// Bound the total retry wall-time to whatever is left of a
    /// command deadline (an unset deadline leaves the backoff
    /// unbounded). Expired deadlines cap at zero: the first failure
    /// is final.
    pub fn until_deadline(self, deadline: &iwb_pool::Deadline) -> Backoff {
        match deadline.remaining() {
            Some(left) => self.capped(left),
            None => self,
        }
    }

    /// The instant the retry budget runs out, if a cap is set.
    fn budget_end(&self) -> Option<Instant> {
        self.cap.map(|budget| Instant::now() + budget)
    }

    /// The jittered delay to sleep after failed attempt `attempt`
    /// (0-based). Public so the fleet router reuses the exact same
    /// jitter curve for its shed/failover retries.
    pub fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.max);
        exp.mul_f64(0.5 + rng.next_f64() / 2.0)
    }

    /// Sleep the jittered delay, truncated to the remaining budget.
    /// Returns `false` when the budget is already exhausted (the
    /// caller must stop retrying).
    fn sleep(&self, attempt: u32, rng: &mut StdRng, budget_end: Option<Instant>) -> bool {
        let mut delay = self.delay(attempt, rng);
        if let Some(end) = budget_end {
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            delay = delay.min(left);
        }
        thread::sleep(delay);
        true
    }
}

/// FNV-1a over a retry-target key, folded into the jitter seed so each
/// target's backoff stream is deterministic but distinct.
fn target_seed(target: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in target.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A blocking connection to `workbenchd`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    session: Option<String>,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A generous client-side timeout so a wedged server surfaces
        // as an error instead of hanging the caller forever.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            peer,
            session: None,
        })
    }

    /// Connect, retrying with exponential backoff + jitter — for
    /// clients that start before the daemon, or reconnect while it is
    /// restarting.
    pub fn connect_with_backoff(addr: impl ToSocketAddrs, backoff: &Backoff) -> io::Result<Client> {
        let mut rng = StdRng::seed_from_u64(backoff.seed);
        let budget_end = backoff.budget_end();
        let mut last_err = io::Error::other("no connection attempts made");
        for attempt in 0..backoff.attempts.max(1) {
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = e,
            }
            if attempt + 1 < backoff.attempts.max(1)
                && !backoff.sleep(attempt, &mut rng, budget_end)
            {
                break; // retry budget exhausted: the deadline wins
            }
        }
        Err(last_err)
    }

    /// The session id this client is attached to (tracked by
    /// [`Client::session_new`] and [`Client::session_attach`]).
    pub fn session(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// Re-dial the same peer (with backoff) and re-attach the tracked
    /// session. If the server no longer knows the session — it crashed
    /// without journaling, or the session was evicted — the tracked id
    /// is cleared and an error naming the lost session is returned, so
    /// the caller can decide between `session new` and giving up.
    ///
    /// Structured retryable refusals are not losses: a `MOVED` hint
    /// (the session is mid-migration behind a fleet router) or a
    /// `RETRY-AFTER` shed makes the attach retry in place — the peer
    /// re-resolves routing once the migration lands — so reconnecting
    /// through a router is idempotent even while the session changes
    /// backends.
    ///
    /// Refusal retries are budgeted *per target*: each distinct `MOVED`
    /// hint gets its own attempt counter, jitter stream, and wall-time
    /// cap (`RETRY-AFTER` sheds share one bucket — they all mean "this
    /// peer, later"). A string of refusals naming one dead backend
    /// therefore cannot exhaust the retries destined for the healthy
    /// target the route flips to next.
    pub fn reconnect(&mut self, backoff: &Backoff) -> io::Result<()> {
        let fresh = Self::connect_with_backoff(self.peer, backoff)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        let Some(id) = self.session.clone() else {
            return Ok(());
        };
        struct Budget {
            attempt: u32,
            rng: StdRng,
            end: Option<Instant>,
        }
        let mut budgets: HashMap<String, Budget> = HashMap::new();
        let attempts = backoff.attempts.max(1);
        // Hard bound across all targets, so a peer minting a fresh
        // target string per refusal cannot spin this loop forever.
        let mut total = attempts.saturating_mul(8);
        let last_refusal = loop {
            let resp = self.request(&format!("session attach {id}"))?;
            if resp.ok {
                return Ok(());
            }
            let err = match RetryableError::parse(&resp.body) {
                Some(err) if err.is_retryable() => err,
                _ => {
                    // A free-form refusal means the session really is
                    // gone, not merely moving.
                    self.session = None;
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("reconnected, but session {id:?} is gone: {}", resp.body),
                    ));
                }
            };
            let refusal = resp.body;
            let target = match &err {
                RetryableError::Moved { detail, .. } => format!("moved {detail}"),
                _ => "retry-after".to_owned(),
            };
            let seed = backoff.seed ^ 0xa77ac4 ^ target_seed(&target);
            let budget = budgets.entry(target).or_insert_with(|| Budget {
                attempt: 0,
                rng: StdRng::seed_from_u64(seed),
                end: backoff.budget_end(),
            });
            budget.attempt += 1;
            total = total.saturating_sub(1);
            if budget.attempt >= attempts || total == 0 {
                break refusal; // this target's budget is spent
            }
            // The server's own retry hint floors the jittered delay;
            // the target's wall-time budget still caps it.
            let hint = Duration::from_millis(err.retry_after_ms().unwrap_or(0));
            let mut delay = backoff.delay(budget.attempt - 1, &mut budget.rng).max(hint);
            if let Some(end) = budget.end {
                let left = end.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break refusal;
                }
                delay = delay.min(left);
            }
            thread::sleep(delay);
        };
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("session {id:?} still migrating: {last_refusal}"),
        ))
    }

    /// Send one single-line command and read the reply.
    pub fn request(&mut self, command: &str) -> io::Result<Response> {
        if command.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "multi-line commands must use request_with_heredoc",
            ));
        }
        self.send(format!("{command}\n").as_bytes())
    }

    /// Send a command with a heredoc body (the `<<EOF` marker is
    /// appended automatically; `body` need not end with a newline).
    pub fn request_with_heredoc(&mut self, command: &str, body: &str) -> io::Result<Response> {
        let mut request = String::with_capacity(command.len() + body.len() + 16);
        request.push_str(command);
        request.push_str(" <<EOF\n");
        for line in body.lines() {
            request.push_str(line);
            request.push('\n');
        }
        request.push_str("EOF\n");
        self.send(request.as_bytes())
    }

    /// Write one whole request with a single `write_all` and read the
    /// reply. A server that sheds the connection answers and closes
    /// before reading anything, so a write refused because the server
    /// has gone still returns the reply it left behind.
    fn send(&mut self, request: &[u8]) -> io::Result<Response> {
        match self.writer.write_all(request) {
            Ok(()) => self.read_response(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::BrokenPipe
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                ) =>
            {
                self.read_response().map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }

    /// `session new [id]`; returns the created session id and tracks
    /// it for [`Client::reconnect`].
    pub fn session_new(&mut self, id: Option<&str>) -> io::Result<String> {
        let command = match id {
            Some(id) => format!("session new {id}"),
            None => "session new".to_owned(),
        };
        let body = self.request(&command)?.expect_ok()?;
        // "session <id> created (attached)"
        let sid = body
            .split_whitespace()
            .nth(1)
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other(format!("malformed reply: {body}")))?;
        self.session = Some(sid.clone());
        Ok(sid)
    }

    /// `session attach <id>`; tracks the id for [`Client::reconnect`].
    pub fn session_attach(&mut self, id: &str) -> io::Result<String> {
        let body = self.request(&format!("session attach {id}"))?.expect_ok()?;
        self.session = Some(id.to_owned());
        Ok(body)
    }

    /// The server's `stats` body.
    pub fn stats(&mut self) -> io::Result<String> {
        self.request("stats")?.expect_ok()
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request("shutdown")
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut header = String::new();
        if self.reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let header = header.trim_end();
        let (status, count) = header
            .split_once(' ')
            .ok_or_else(|| io::Error::other(format!("malformed header: {header:?}")))?;
        let ok = match status {
            "ok" => true,
            "err" => false,
            other => {
                return Err(io::Error::other(format!("malformed status: {other:?}")));
            }
        };
        let n: usize = count
            .parse()
            .map_err(|_| io::Error::other(format!("malformed line count: {count:?}")))?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            lines.push(line);
        }
        Ok(Response {
            ok,
            body: lines.join("\n"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};

    #[test]
    fn client_roundtrip_against_live_server() {
        let handle = serve(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();

        let pong = c.request("ping").unwrap();
        assert!(pong.ok);
        assert_eq!(pong.body, "pong");

        let sid = c.session_new(None).unwrap();
        assert_eq!(sid, "s1");
        assert_eq!(c.session(), Some("s1"));
        let loaded = c
            .request_with_heredoc("load er po", "entity A { x : text }")
            .unwrap();
        assert!(loaded.ok, "{}", loaded.body);
        assert!(loaded.body.contains("loaded po"));

        let schema = c.request("show schema po").unwrap().expect_ok().unwrap();
        assert!(schema.contains("[contains-entity] A"), "{schema}");

        let stats = c.stats().unwrap();
        assert!(stats.contains("cmd.load count=1"), "{stats}");

        let err = c.request("frobnicate").unwrap();
        assert!(!err.ok);

        assert!(c.shutdown().unwrap().ok);
        handle.join();
    }

    #[test]
    fn backoff_delays_grow_and_stay_jittered_under_the_cap() {
        let b = Backoff {
            attempts: 6,
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            seed: 7,
            cap: None,
        };
        let mut rng = StdRng::seed_from_u64(b.seed);
        let delays: Vec<Duration> = (0..6).map(|i| b.delay(i, &mut rng)).collect();
        for (i, d) in delays.iter().enumerate() {
            let ceiling = Duration::from_millis(10 * (1 << i)).min(b.max);
            assert!(*d <= ceiling, "delay {i} {d:?} above {ceiling:?}");
            assert!(
                *d >= ceiling / 2,
                "delay {i} {d:?} below half of {ceiling:?}"
            );
        }
        // Deterministic per seed.
        let mut rng2 = StdRng::seed_from_u64(b.seed);
        assert_eq!(delays[0], b.delay(0, &mut rng2));
    }

    #[test]
    fn connect_with_backoff_survives_a_late_server() {
        // Reserve a port, keep it closed for a moment, then serve.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            serve(ServerConfig {
                addr: addr.to_string(),
                workers: 1,
                ..ServerConfig::default()
            })
            .unwrap()
        });
        let mut c = Client::connect_with_backoff(
            addr,
            &Backoff {
                attempts: 20,
                base: Duration::from_millis(25),
                max: Duration::from_millis(100),
                seed: 3,
                cap: None,
            },
        )
        .expect("backoff should outlast the late bind");
        assert!(c.request("ping").unwrap().ok);
        let handle = server.join().unwrap();
        c.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn backoff_cap_bounds_total_retry_wall_time() {
        // Nothing listens on the reserved-then-dropped port, so every
        // attempt fails fast; without the cap this loop would sleep
        // ~40ms × 1000 attempts. The cap must cut it off.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let backoff = Backoff {
            attempts: 1000,
            base: Duration::from_millis(40),
            max: Duration::from_millis(40),
            seed: 1,
            cap: None,
        }
        .capped(Duration::from_millis(120));
        let start = Instant::now();
        assert!(Client::connect_with_backoff(addr, &backoff).is_err());
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "cap must bound the retry loop, took {elapsed:?}"
        );

        // The cap derives from a command deadline so retries can never
        // outlive the command they serve; no deadline, no cap.
        let deadline = iwb_pool::Deadline::within(Duration::from_millis(80));
        let capped = Backoff::default().until_deadline(&deadline);
        assert!(capped.cap.unwrap() <= Duration::from_millis(80));
        let unbounded = Backoff::default().until_deadline(&iwb_pool::Deadline::none());
        assert!(unbounded.cap.is_none());
    }

    #[test]
    fn reconnect_follows_moved_hints_until_migration_lands() {
        // A scripted peer standing in for a fleet router: the session
        // is "migrating" for two attach attempts, then lands.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let serve_line = |stream: &mut TcpStream,
                              reader: &mut BufReader<TcpStream>,
                              expect: &str,
                              reply: &str| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.trim().starts_with(expect), "{line:?}");
                write!(stream, "{reply}").unwrap();
            };
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            serve_line(
                &mut s,
                &mut r,
                "session new mv",
                "ok 1\nsession mv created (attached)\n",
            );
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            for attempt in 0..3 {
                let reply = if attempt < 2 {
                    "err 1\nMOVED mv: session migrating; retry\n"
                } else {
                    "ok 1\nsession mv attached seq=4\n"
                };
                serve_line(&mut s, &mut r, "session attach mv", reply);
            }
        });
        let mut c = Client::connect(addr).unwrap();
        c.session_new(Some("mv")).unwrap();
        c.reconnect(&Backoff {
            attempts: 5,
            base: Duration::from_millis(5),
            max: Duration::from_millis(20),
            seed: 9,
            cap: Some(Duration::from_secs(5)),
        })
        .expect("MOVED is a hint, not a loss");
        assert_eq!(c.session(), Some("mv"));
        server.join().unwrap();
    }

    #[test]
    fn reconnect_budgets_each_moved_target_separately() {
        // With attempts=2 a *shared* budget dies after two refusals.
        // Here the first refusal names a dead target and the second a
        // different one (the route flipped mid-reconnect); each target
        // has its own budget, so the third attach must still happen —
        // and succeeds.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let serve_line = |stream: &mut TcpStream,
                              reader: &mut BufReader<TcpStream>,
                              expect: &str,
                              reply: &str| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.trim().starts_with(expect), "{line:?}");
                write!(stream, "{reply}").unwrap();
            };
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            serve_line(
                &mut s,
                &mut r,
                "session new pt",
                "ok 1\nsession pt created (attached)\n",
            );
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            for reply in [
                "err 1\nMOVED pt: draining via backend 0\n",
                "err 1\nMOVED pt: draining via backend 1\n",
                "ok 1\nsession pt attached seq=2\n",
            ] {
                serve_line(&mut s, &mut r, "session attach pt", reply);
            }
        });
        let mut c = Client::connect(addr).unwrap();
        c.session_new(Some("pt")).unwrap();
        c.reconnect(&Backoff {
            attempts: 2,
            base: Duration::from_millis(5),
            max: Duration::from_millis(10),
            seed: 11,
            cap: Some(Duration::from_secs(5)),
        })
        .expect("a fresh target must get a fresh retry budget");
        assert_eq!(c.session(), Some("pt"));
        server.join().unwrap();
    }

    #[test]
    fn reconnect_gives_up_once_a_single_target_spends_its_budget() {
        // The same target refusing `attempts` times exhausts *its*
        // budget: the client stops rather than hammering it forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let serve_line = |stream: &mut TcpStream,
                              reader: &mut BufReader<TcpStream>,
                              expect: &str,
                              reply: &str| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.trim().starts_with(expect), "{line:?}");
                write!(stream, "{reply}").unwrap();
            };
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            serve_line(
                &mut s,
                &mut r,
                "session new st",
                "ok 1\nsession st created (attached)\n",
            );
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            for _ in 0..2 {
                serve_line(
                    &mut s,
                    &mut r,
                    "session attach st",
                    "err 1\nMOVED st: stuck on backend 0\n",
                );
            }
        });
        let mut c = Client::connect(addr).unwrap();
        c.session_new(Some("st")).unwrap();
        let err = c
            .reconnect(&Backoff {
                attempts: 2,
                base: Duration::from_millis(5),
                max: Duration::from_millis(10),
                seed: 11,
                cap: Some(Duration::from_secs(5)),
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("stuck on backend 0"), "{err}");
        assert_eq!(
            c.session(),
            Some("st"),
            "the session is not lost, only busy"
        );
        server.join().unwrap();
    }

    #[test]
    fn a_reply_sent_before_the_server_closed_survives_the_write() {
        // A shedding server: it answers and closes before the client
        // sends anything.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"err 1\nRETRY-AFTER 100ms: server at capacity (1 connections pending)\n")
                .unwrap();
        });
        let mut c = Client::connect(addr).unwrap();
        server.join().unwrap();
        let reply = c.request("ping").expect("the shed reply, not BrokenPipe");
        assert!(!reply.ok);
        assert_eq!(
            reply.body,
            "RETRY-AFTER 100ms: server at capacity (1 connections pending)"
        );
    }

    #[test]
    fn reconnect_reports_a_lost_session() {
        let handle = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.session_new(Some("fleeting")).unwrap();
        // Close the session behind the client's back; reconnect must
        // surface the loss rather than silently running detached.
        let mut other = Client::connect(handle.addr()).unwrap();
        other.request("session close fleeting").unwrap();
        let err = c.reconnect(&Backoff::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("fleeting"), "{err}");
        assert_eq!(c.session(), None);
        other.shutdown().unwrap();
        handle.join();
    }
}
