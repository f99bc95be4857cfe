//! `workbench-router` — a health-checked consistent-hashing front for
//! a fleet of `workbenchd` backends.
//!
//! ```sh
//! workbenchd --addr 127.0.0.1:7181 --store /var/iwb-0 --no-recover \
//!     --repl-peers 127.0.0.1:7181,127.0.0.1:7182 --repl-self 0 &
//! workbenchd --addr 127.0.0.1:7182 --store /var/iwb-1 --no-recover \
//!     --repl-peers 127.0.0.1:7181,127.0.0.1:7182 --repl-self 1 &
//! cargo run --release -p iwb-router --bin workbench-router -- \
//!     --addr 127.0.0.1:7171 --backend 127.0.0.1:7181 --backend 127.0.0.1:7182
//! ```
//!
//! Clients speak the ordinary `workbenchd` line protocol to the
//! router; session ids are rendezvous-hashed across the backends, and
//! a prober quarantines/re-admits them. Each backend keeps its own
//! `--store` and streams journal records to each session's rendezvous
//! successor (`--repl-peers`/`--repl-self`, listing the backends in
//! the router's order); on backend death or `migrate <id>` the router
//! moves the session with a floor-checked `repl promote` on a
//! successor (see `iwb_router::router`).
//!
//! `migrate --all <backend>` (by index or address) drains a backend
//! session by session for planned maintenance, and a restarted router
//! re-discovers placement from the backends' `session list` /
//! `repl status` books before accepting clients.
//!
//! Options:
//!
//! * `--addr HOST:PORT`         bind address (default `127.0.0.1:7171`)
//! * `--backend HOST:PORT`      one backend; repeat for each member
//! * `--backends A,B,...`       comma-separated alternative
//! * `--workers N`              worker threads (default 8)
//! * `--probe-interval-ms N`    mean per-backend probe cadence
//!   (default 100)
//! * `--probe-jitter F`         jitter fraction on the cadence
//!   (default 0.2)
//! * `--probe-timeout-ms N`     per-probe connect/read budget
//!   (default 150)
//! * `--probe-seed N`           probe-schedule seed (default 0xf1ee7)
//! * `--quarantine-after N`     consecutive probe failures before
//!   quarantine (default 2)
//! * `--readmit-after N`        consecutive probe successes before
//!   re-admission (default 2)
//! * `--retries N`              shed/failover retry attempts
//!   (default 6)
//! * `--drain-interval-ms N`    pause between two sessions of a
//!   `migrate --all` drain (default 25)
//! * `--read-timeout SECS`      stalled-client drop (default 30)
//! * `--faults SPEC`            fleet-level fault injection, e.g.
//!   `seed=7,probe-timeout=1.0,migration-stall=0:150`
//!   (`backend-crash`, `probe-timeout`, `split-routing`,
//!   `migration-stall`; see `iwb_store::fault`)
//!
//! The router exits after a client issues the `shutdown` command; the
//! backends keep running.

use iwb_router::router::{serve, RouterConfig};
use iwb_store::fault::FaultSpec;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: workbench-router --backend HOST:PORT [--backend HOST:PORT ...] \
         [--addr HOST:PORT] [--workers N] [--probe-interval-ms N] [--probe-jitter F] \
         [--probe-timeout-ms N] [--probe-seed N] [--quarantine-after N] \
         [--readmit-after N] [--retries N] [--drain-interval-ms N] [--read-timeout SECS] \
         [--faults SPEC]"
    );
    std::process::exit(2);
}

fn parse_args() -> RouterConfig {
    let mut config = RouterConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..RouterConfig::default()
    };
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
            "--backend" => config.backends.push(value("--backend")),
            "--backends" => config
                .backends
                .extend(value("--backends").split(',').map(str::to_owned)),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--probe-interval-ms" => match value("--probe-interval-ms").parse() {
                Ok(ms) if ms > 0 => config.probe_interval = Duration::from_millis(ms),
                _ => usage(),
            },
            "--probe-jitter" => match value("--probe-jitter").parse() {
                Ok(f) if (0.0..=1.0).contains(&f) => config.probe_jitter = f,
                _ => usage(),
            },
            "--probe-timeout-ms" => match value("--probe-timeout-ms").parse() {
                Ok(ms) if ms > 0 => config.probe_timeout = Duration::from_millis(ms),
                _ => usage(),
            },
            "--probe-seed" => match value("--probe-seed").parse() {
                Ok(seed) => config.probe_seed = seed,
                _ => usage(),
            },
            "--quarantine-after" => match value("--quarantine-after").parse() {
                Ok(n) if n > 0 => config.quarantine_after = n,
                _ => usage(),
            },
            "--readmit-after" => match value("--readmit-after").parse() {
                Ok(n) if n > 0 => config.readmit_after = n,
                _ => usage(),
            },
            "--retries" => match value("--retries").parse() {
                Ok(n) if n > 0 => config.retry.attempts = n,
                _ => usage(),
            },
            "--drain-interval-ms" => match value("--drain-interval-ms").parse() {
                Ok(ms) => config.drain_interval = Duration::from_millis(ms),
                _ => usage(),
            },
            "--read-timeout" => match value("--read-timeout").parse() {
                Ok(secs) => config.read_timeout = Duration::from_secs(secs),
                _ => usage(),
            },
            "--faults" => match FaultSpec::parse(&value("--faults")) {
                Ok(spec) => config.faults = spec.build(),
                Err(e) => {
                    eprintln!("bad --faults spec: {e}");
                    usage();
                }
            },
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    if config.backends.is_empty() {
        eprintln!("at least one --backend is required");
        usage();
    }
    config
}

fn main() {
    let config = parse_args();
    let backends = config.backends.clone();
    match serve(config) {
        Ok(handle) => {
            println!(
                "workbench-router listening on {} ({} backends: {})",
                handle.addr(),
                backends.len(),
                backends.join(", ")
            );
            handle.join();
        }
        Err(e) => {
            eprintln!("workbench-router: {e}");
            std::process::exit(1);
        }
    }
}
