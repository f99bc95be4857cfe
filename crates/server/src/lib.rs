//! # iwb-server — the multi-session workbench service
//!
//! The paper's workbench is explicitly single-user: one engineer per
//! workbench instance (§5.2, Figure 4). This crate turns the
//! reproduction into a servable system: `workbenchd` is a TCP daemon
//! that multiplexes many independent integration sessions — each one a
//! full [`iwb_core::shell::Shell`] over its own blackboard — behind
//! the existing line-oriented shell command language.
//!
//! Architecture:
//!
//! * [`session`] — the session registry: IDs → live shells, with
//!   create/attach/close, an idle-eviction sweep, a cap on live
//!   sessions, panic isolation (`catch_unwind` inside the shell lock)
//!   and per-session quarantine after repeated faults;
//! * [`server`] — the daemon: an acceptor feeding a worker thread pool,
//!   per-session locking (sessions run in parallel, commands within a
//!   session stay serialized), and graceful drain on shutdown; plus the
//!   line-protocol core `workbench-router` runs too —
//!   [`server::accept_loop`], the one accept loop (a blocking `accept`
//!   with optional admission control, woken on shutdown by a
//!   [`server::Shutdown`] request), [`server::serve_lines`], the one
//!   connection loop (bounded line reads, idle timeouts, heredocs,
//!   framing), and the [`server::Reply`] both dispatchers return;
//! * [`journal`] — append-only per-session command journals (fsync on
//!   commit, periodic compaction, truncation behind a session image)
//!   and the crash recovery behind `workbenchd --recover`: restore the
//!   session's image, replay the journal suffix past it;
//! * [`repl`] — streamed replication between fleet backends, each on
//!   its own store: each backend ships committed records and images to
//!   the session's rendezvous successor, keeps standbys (image plus
//!   journal suffix) for its peers, and promotes from them when the
//!   router moves a session (`repl promote`) — refusing with
//!   `STALE-REPLICA` when the replica is provably behind the last acked
//!   client mutation;
//! * [`stats`] — the counter registry both binaries declare their
//!   counters with ([`stats::Counters`], indexed by a per-binary enum),
//!   fixed-bucket latency histograms, and [`stats::render`], the one
//!   `stats` format: every line is `<scope> key=value …`;
//! * [`client`] — a small blocking client used by the `bench_server`
//!   load generator and the integration tests, with exponential
//!   backoff + jitter reconnects that safely re-attach their session.
//!
//! ## Wire protocol
//!
//! Requests are the shell command language, one command per line;
//! `load … <<EOF` opens a heredoc terminated by a line holding `EOF`,
//! exactly as in scripts. The server adds session and admin commands:
//!
//! ```text
//! session new [id]      create a session and attach this connection
//! session attach <id>   attach to an existing session
//! session detach        detach (the session stays alive)
//! session close [id]    close a session (default: the attached one)
//! session list          one line per live session
//! session current       the attached session id
//! session release <id>  persist a session and drop it live (files kept)
//! repl subscribe <id> <len>   replication handshake (backend → backend)
//! repl append <id> <seq> <c>  stream one journal record to a replica
//! repl range <id> <from> <<BYTES <n>  an image and/or records from
//!                       <from> as one binary frame (n raw bytes)
//! repl status           per-session replication lag + standbys (length, image)
//! repl promote <id> <min-seq> rebuild from the best local evidence, or
//!                       refuse with STALE-REPLICA if provably behind
//! repl drop <id>        delete a standby (its owner closed it)
//! cancel <id>           interrupt the command in flight in a session
//! stats                 counters + latency percentiles, `<scope> key=value …` lines
//! ping                  liveness probe
//! probe                 health probe (used by `workbench-router`)
//! shutdown              begin graceful shutdown (drains in-flight)
//! quit                  close this connection
//! ```
//!
//! Every response is `ok <n>` or `err <n>` followed by exactly `n`
//! body lines, so multi-line transcripts need no escaping. A command
//! that panics server-side answers `err` with a `command panicked: …`
//! body — the connection, the worker, and every other session keep
//! running.
//!
//! A shell command may carry a sequence stamp: `@N <command>`. With
//! journaling enabled the session refuses a *mutating* stamped command
//! unless `N` equals its journal length — a replayed stamp answers
//! `ok` with a `DUPLICATE seq=N` body **without re-executing**, a
//! stamp from the future answers `err SEQ-GAP expected=E got=N`. This
//! is what makes fleet failover retries (`iwb-router`) exactly-once:
//! redelivery of a command whose ack was lost in a crash is
//! acknowledged from the journal, and a stale backend reached by split
//! routing refuses to fork the history. `repl promote` is the only way
//! a session moves between backends: the router promotes it on a
//! successor after a crash or a `session release`, and back on the
//! releasing backend when a migration aborts (see
//! `workbenchd --no-recover`).
//!
//! ## Deadlines, cancellation, admission control
//!
//! Every shell command runs under an interruption budget: the daemon's
//! `--default-deadline-ms` bounds wall-clock time, and `cancel <id>`
//! from any connection interrupts the command in flight in session
//! `<id>`. Both abort cooperatively — the reply is `err` with a
//! `command aborted: cancelled` / `command aborted: deadline exceeded`
//! body, nothing is journaled, and session state is exactly as before
//! the command (completed runs stay byte-identical; there are no
//! partial results). When more than `--max-pending` connections are
//! pending or being served, new connections are shed with an `err`
//! reply whose body starts with `RETRY-AFTER <ms>` instead of
//! queueing unboundedly.

pub mod client;
pub mod journal;
pub mod repl;
pub mod server;
pub mod session;
pub mod stats;

pub use client::{Backoff, Client, Response};
pub use journal::{Journal, JournalConfig, JournalRecord};
pub use repl::{ReplConfig, ReplicaStore, Replicator};
pub use server::{serve, ServerConfig, ServerHandle};
pub use session::{ExecOutcome, RecoveryReport, Session, SessionRegistry, StoreConfig, StoreStats};
pub use stats::{CommandClass, ServerStats};

/// The fault plan's old path, kept only for `iwb_bench/src/layers.rs`;
/// everything else imports [`iwb_store::fault`].
pub mod fault {
    pub use iwb_store::fault::FaultPlan;
}

/// Install a process-wide panic hook that stays silent for *injected*
/// panics (payloads mentioning `injected fault`) and defers to the
/// previous hook for everything else. Chaos tests and
/// `bench_server --faults` call this so deliberately injected panics
/// do not flood stderr with backtrace noise; real panics still print.
pub fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}
