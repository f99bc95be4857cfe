//! `workbenchd` — the multi-session workbench daemon.
//!
//! ```sh
//! cargo run --release -p iwb-server --bin workbenchd -- --addr 127.0.0.1:7171
//! ```
//!
//! Options:
//!
//! * `--addr HOST:PORT`        bind address (default `127.0.0.1:7171`;
//!   port `0` picks an ephemeral port and prints it)
//! * `--workers N`             worker threads (default 8)
//! * `--max-sessions N`        live-session cap (default 64)
//! * `--idle-timeout SECS`     session idle eviction (default 300)
//! * `--read-timeout SECS`     stalled-connection drop (default 30)
//! * `--journal DIR`           journal every session's mutating
//!   commands under DIR (fsync on commit)
//! * `--recover DIR`           like `--journal DIR`, plus replay the
//!   journals found there on startup — sessions survive a daemon
//!   crash and clients re-`session attach` their old ids
//! * `--store DIR`             persistent match store: like
//!   `--recover DIR`, plus sessions snapshot their warm state
//!   (schema graphs + text features, match results, the blocking
//!   index) under DIR in the background and on eviction/shutdown;
//!   recovery loads the verified snapshot and replays only the
//!   journal suffix past its watermark, reopening sessions warm
//! * `--snapshot-every N`      background-snapshot cadence in
//!   journaled commands (default 64; 0 snapshots only on
//!   eviction/shutdown; needs `--store`)
//! * `--no-recover`            skip the startup journal sweep even
//!   with `--store`/`--recover`. Fleet backends behind a
//!   `workbench-router` run this way: the router promotes each session
//!   where it routes it (`repl promote <id> <floor>`), and a sweep
//!   would revive sessions that have since moved to another backend
//!   as a second, stale live copy
//! * `--quarantine-after N`    quarantine a session after N
//!   consecutive panicking commands (default 3; 0 disables)
//! * `--max-line-bytes N`      protocol line bound (default 65536)
//! * `--max-heredoc-bytes N`   heredoc body bound (default 4194304)
//! * `--default-deadline-ms N` wall-clock deadline for every shell
//!   command; a command past it aborts cooperatively with
//!   `command aborted: deadline exceeded` (default: unbounded; 0
//!   means unbounded)
//! * `--max-pending N`         admission control: shed connections
//!   with a `RETRY-AFTER` protocol error once N are pending or being
//!   served (default 64; 0 disables shedding)
//! * `--repl-peers A,B,…`      fleet replication: the full ordered
//!   backend address list (identical on every backend and on the
//!   router — rendezvous ranking only agrees if the order does).
//!   Every journaled commit streams to the session's rendezvous
//!   successor, which keeps a warm standby journal; on backend death
//!   the router promotes from that replica (`repl promote`) with no
//!   shared disk. Requires `--journal`/`--recover`/`--store` and
//!   `--repl-self`
//! * `--repl-self N`           this backend's index in the
//!   `--repl-peers` list
//! * `--faults SPEC`           deterministic fault injection, e.g.
//!   `seed=42,exec-panic=0.01,exec-slow=0.05:20,journal-torn=0.02`
//!   (chaos testing; see `iwb_store::fault`)
//!
//! The daemon exits after a client issues the `shutdown` protocol
//! command (graceful: in-flight requests drain first).

use iwb_server::server::{serve, ServerConfig};
use iwb_store::fault::FaultSpec;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: workbenchd [--addr HOST:PORT] [--workers N] [--max-sessions N] \
         [--idle-timeout SECS] [--read-timeout SECS] [--journal DIR] [--recover DIR] \
         [--store DIR] [--snapshot-every N] [--no-recover] \
         [--quarantine-after N] [--max-line-bytes N] [--max-heredoc-bytes N] \
         [--default-deadline-ms N] [--max-pending N] \
         [--repl-peers A,B,…] [--repl-self N] [--faults SPEC]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..ServerConfig::default()
    };
    let mut no_recover = false;
    let mut repl_peers: Option<Vec<String>> = None;
    let mut repl_self: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("missing value for {flag}");
                usage();
            }
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--max-sessions" => match value("--max-sessions").parse() {
                Ok(n) if n > 0 => config.max_sessions = n,
                _ => usage(),
            },
            "--idle-timeout" => match value("--idle-timeout").parse() {
                Ok(secs) => config.session_idle_timeout = Duration::from_secs(secs),
                _ => usage(),
            },
            "--read-timeout" => match value("--read-timeout").parse() {
                Ok(secs) => config.read_timeout = Duration::from_secs(secs),
                _ => usage(),
            },
            "--journal" => config.journal_dir = Some(PathBuf::from(value("--journal"))),
            "--recover" => {
                config.journal_dir = Some(PathBuf::from(value("--recover")));
                config.recover = true;
            }
            "--store" => {
                config.store_dir = Some(PathBuf::from(value("--store")));
                config.recover = true;
            }
            "--snapshot-every" => match value("--snapshot-every").parse() {
                Ok(n) => config.snapshot_every = n,
                _ => usage(),
            },
            "--no-recover" => no_recover = true,
            "--quarantine-after" => match value("--quarantine-after").parse() {
                Ok(n) => config.quarantine_after = n,
                _ => usage(),
            },
            "--max-line-bytes" => match value("--max-line-bytes").parse() {
                Ok(n) if n > 0 => config.max_line_bytes = n,
                _ => usage(),
            },
            "--max-heredoc-bytes" => match value("--max-heredoc-bytes").parse() {
                Ok(n) if n > 0 => config.max_heredoc_bytes = n,
                _ => usage(),
            },
            "--default-deadline-ms" => match value("--default-deadline-ms").parse::<u64>() {
                Ok(ms) => config.default_deadline = (ms > 0).then(|| Duration::from_millis(ms)),
                _ => usage(),
            },
            "--max-pending" => match value("--max-pending").parse() {
                Ok(n) => config.max_pending = n,
                _ => usage(),
            },
            "--repl-peers" => {
                let peers: Vec<String> = value("--repl-peers")
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
                if peers.is_empty() {
                    usage();
                }
                repl_peers = Some(peers);
            }
            "--repl-self" => match value("--repl-self").parse() {
                Ok(n) => repl_self = Some(n),
                _ => usage(),
            },
            "--faults" => match FaultSpec::parse(&value("--faults")) {
                Ok(spec) => config.faults = spec.build(),
                Err(e) => {
                    eprintln!("bad --faults spec: {e}");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if no_recover {
        config.recover = false;
    }
    match (repl_peers, repl_self) {
        (Some(peers), Some(self_index)) => {
            if self_index >= peers.len() {
                eprintln!(
                    "--repl-self {self_index} out of range for {} peer(s)",
                    peers.len()
                );
                usage();
            }
            config.repl = Some(iwb_server::ReplConfig { peers, self_index });
        }
        (None, None) => {}
        _ => {
            eprintln!("--repl-peers and --repl-self go together");
            usage();
        }
    }
    config
}

fn main() {
    let config = parse_args();
    let workers = config.workers;
    let max_sessions = config.max_sessions;
    if config.faults.is_active() {
        // Injected panics are part of the chaos plan, not crashes
        // worth a backtrace each.
        iwb_server::quiet_injected_panics();
    }
    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("workbenchd: startup failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(report) = handle.recovery() {
        println!(
            "workbenchd: recovered {} session(s) ({} warm from snapshots, {} command(s) replayed, \
             {} torn tail(s) healed, {} snapshot fallback(s), {} file(s) skipped)",
            report.sessions,
            report.warm,
            report.replayed,
            report.torn_tails,
            report.snapshot_fallbacks,
            report.skipped
        );
    }
    println!(
        "workbenchd listening on {} (workers={workers} max-sessions={max_sessions})",
        handle.addr()
    );
    handle.join();
    println!("workbenchd: drained and stopped");
}
