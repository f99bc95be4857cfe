//! One closed-loop client: a single router connection, a log of every
//! command it sent with the reply's hash and round-trip time.

use iwb_rng::StdRng;
use iwb_server::client::Client;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Which part of a run a command belongs to. Only `Measured` commands
/// feed the end-to-end metrics; every command feeds the correctness
/// check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Warmup,
    Measured,
    /// Read-back after the measured phase (final exports).
    Final,
}

/// One acknowledged (or refused) shell command.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into the driver's session list.
    pub session: usize,
    pub command: Arc<str>,
    pub heredoc: Option<Arc<str>>,
    pub phase: Phase,
    pub ok: bool,
    pub reply_hash: u64,
    /// Send time, microseconds since the run's epoch.
    pub start_us: f64,
    pub rtt_ms: f64,
}

impl Op {
    /// The command's verb (`show` for every `show …`).
    pub fn verb(&self) -> &str {
        verb(&self.command)
    }

    pub fn mutates(&self) -> bool {
        iwb_core::shell::mutates(&self.command)
    }
}

pub fn verb(command: &str) -> &str {
    command.split_whitespace().next().unwrap_or("")
}

/// FNV-1a over the reply status and body.
pub fn reply_hash(ok: bool, body: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(ok);
    for &b in body.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A session a driver works on: its id, the schema pair behind it, and
/// its seeded decision stream.
pub struct SessionRef {
    pub id: String,
    pub pair: Arc<crate::inputs::Pair>,
    rng: StdRng,
    /// Workload commands issued so far (drives fixed command mixes).
    pub issued: usize,
    pub closed: bool,
}

impl SessionRef {
    /// The session's next seeded accept/reject command.
    pub fn decision(&mut self) -> String {
        self.pair.decision(&mut self.rng)
    }
}

pub struct Driver {
    pub index: usize,
    client: Client,
    pub sessions: Vec<SessionRef>,
    pub ops: Vec<Op>,
    pub phase: Phase,
    /// First-command-after-kill latencies (attach + first command), ms.
    pub failovers: Vec<f64>,
    /// Schema pairs this client draws curation replays from.
    pub pool: Vec<Arc<crate::inputs::Pair>>,
    epoch: Instant,
    attached: Option<usize>,
}

impl Driver {
    pub fn connect(index: usize, router: SocketAddr, epoch: Instant) -> Result<Driver, String> {
        Ok(Driver {
            index,
            client: Client::connect(router).map_err(|e| format!("connect router: {e}"))?,
            sessions: Vec::new(),
            ops: Vec::new(),
            phase: Phase::Setup,
            failovers: Vec::new(),
            pool: Vec::new(),
            epoch,
            attached: None,
        })
    }

    /// Register a session and create it through the router (attached).
    pub fn new_session(
        &mut self,
        id: String,
        pair: Arc<crate::inputs::Pair>,
        rng: StdRng,
    ) -> Result<usize, String> {
        let resp = self
            .client
            .request(&format!("session new {id}"))
            .map_err(|e| format!("session new {id}: {e}"))?;
        if !resp.ok {
            return Err(format!("session new {id}: {}", resp.body));
        }
        self.sessions.push(SessionRef {
            id,
            pair,
            rng,
            issued: 0,
            closed: false,
        });
        self.attached = Some(self.sessions.len() - 1);
        Ok(self.sessions.len() - 1)
    }

    /// Attach `session` (a no-op when already attached).
    pub fn attach(&mut self, session: usize) -> Result<(), String> {
        if self.attached == Some(session) {
            return Ok(());
        }
        let id = &self.sessions[session].id;
        let resp = self
            .client
            .request(&format!("session attach {id}"))
            .map_err(|e| format!("session attach {id}: {e}"))?;
        if !resp.ok {
            return Err(format!("session attach {id}: {}", resp.body));
        }
        self.attached = Some(session);
        Ok(())
    }

    /// Forget the current attachment, so the next command re-attaches
    /// through the router (after a backend was killed).
    pub fn detach_local(&mut self) {
        self.attached = None;
    }

    pub fn close(&mut self, session: usize) -> Result<(), String> {
        let id = &self.sessions[session].id;
        let resp = self
            .client
            .request(&format!("session close {id}"))
            .map_err(|e| format!("session close {id}: {e}"))?;
        if !resp.ok {
            return Err(format!("session close {id}: {}", resp.body));
        }
        if self.attached == Some(session) {
            self.attached = None;
        }
        self.sessions[session].closed = true;
        Ok(())
    }

    /// Send one shell command to `session` and log it.
    pub fn exec(
        &mut self,
        session: usize,
        command: &str,
        heredoc: Option<&Arc<str>>,
    ) -> Result<String, String> {
        self.attach(session)?;
        let sent = Instant::now();
        let resp = match heredoc {
            Some(body) => self.client.request_with_heredoc(command, body),
            None => self.client.request(command),
        }
        .map_err(|e| format!("{command}: {e}"))?;
        let rtt = sent.elapsed();
        self.ops.push(Op {
            session,
            command: command.into(),
            heredoc: heredoc.cloned(),
            phase: self.phase,
            ok: resp.ok,
            reply_hash: reply_hash(resp.ok, &resp.body),
            start_us: sent.duration_since(self.epoch).as_secs_f64() * 1e6,
            rtt_ms: rtt.as_secs_f64() * 1e3,
        });
        if resp.ok {
            Ok(resp.body)
        } else {
            Err(resp.body)
        }
    }

    /// The first command to a session whose backend was killed: the
    /// re-attach (where the router fails the session over) plus the
    /// command, timed as one failover sample.
    pub fn exec_after_failover(&mut self, session: usize, command: &str) -> Result<String, String> {
        let started = Instant::now();
        self.detach_local();
        self.attach(session)?;
        let out = self.exec(session, command, None);
        self.failovers.push(started.elapsed().as_secs_f64() * 1e3);
        out
    }
}
