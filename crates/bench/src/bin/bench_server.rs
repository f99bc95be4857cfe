//! Load generator for the workbench daemon.
//!
//! Spawns an in-process `iwb-server` (or targets an external one via
//! `--addr`), drives N concurrent client sessions — each loading its
//! own pair of generated ER schemata, matching them, and issuing a
//! read-heavy command mix — then reports client-side throughput and
//! the server's own latency histogram (`stats` command), verifies
//! zero cross-session schema leakage, and writes a machine-readable
//! report to `BENCH_server.json`.
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_server -- \
//!     --sessions 8 --commands 200
//! ```
//!
//! With `--faults SPEC` the in-process daemon runs under deterministic
//! fault injection (see `iwb_store::fault`) and the report adds the
//! chaos view: protocol errors observed, recovery latency (first error
//! to the next successful command, per incident), quarantine events
//! handled by close-and-recreate, and the server's error-budget
//! counters:
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_server -- \
//!     --sessions 8 --commands 200 \
//!     --faults seed=42,exec-panic=0.02,exec-slow=0.05:5
//! ```
//!
//! With `--deadline-ms N` the in-process daemon applies a default
//! deadline to every shell command; commands reaped by it come back
//! as `command aborted: deadline exceeded` and are counted instead of
//! failing the run. `--max-pending N` enables admission control.
//!
//! With `--cancel-storm` the tool switches workloads entirely: every
//! session issues one command that hangs (via the `exec-hang` fault
//! point), an admin connection cancels each in turn, and the report
//! measures cancel latency (cancel issued → command aborted), the
//! shed rate under a concurrent connection burst, and that no session
//! leaks — every stormed session must remain attachable and close
//! cleanly afterwards.
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_server -- \
//!     --cancel-storm --sessions 8
//! ```
//!
//! With `--fleet` the tool spins up three `--no-recover` backends —
//! each with its **own** store directory, streaming every committed
//! journal record to its rendezvous successor — behind two in-process
//! `workbench-router`s, runs the session workload twice (a baseline
//! pass, then a pass with the most-loaded backend hard-killed
//! mid-run so failover must promote from the successors' local
//! replicas), and writes `BENCH_fleet.json` gating **zero session
//! loss** and **bounded steady-state replication lag**, reporting
//! command p50/p99 with vs without failover plus replication-lag
//! percentiles sampled from `repl status`. `--quick` shrinks it to a
//! CI smoke.
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_server -- --fleet
//! ```

use iwb_loaders::to_er_text;
use iwb_registry::GeneratorConfig;
use iwb_server::client::Client;
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use iwb_server::stats::ServerCounter;
use iwb_store::fault::{FaultSpec, EXEC_HANG};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

struct Args {
    sessions: usize,
    commands: usize,
    workers: usize,
    seed: u64,
    scale: f64,
    addr: Option<String>,
    faults: Option<String>,
    /// Default per-command deadline applied by the in-process daemon.
    deadline_ms: Option<u64>,
    /// Admission-control bound for the in-process daemon.
    max_pending: Option<usize>,
    /// Run the cancel-storm workload instead of the load mix.
    cancel_storm: bool,
    /// Run the fleet workload (3 backends behind a `workbench-router`)
    /// instead of the load mix: a baseline pass, then a pass with the
    /// most-loaded backend hard-killed mid-run, gating zero session
    /// loss and reporting p50/p99 with vs without failover.
    fleet: bool,
    /// Shrink the fleet workload to a CI smoke.
    quick: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 8,
            commands: 200,
            workers: 8,
            seed: 42,
            scale: 0.0005,
            addr: None,
            faults: None,
            deadline_ms: None,
            max_pending: None,
            cancel_storm: false,
            fleet: false,
            quick: false,
            out: "BENCH_server.json".to_owned(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_server [--sessions N] [--commands N] [--workers N] \
         [--seed N] [--scale F] [--addr HOST:PORT] [--faults SPEC] \
         [--deadline-ms N] [--max-pending N] [--cancel-storm] \
         [--fleet [--quick]] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--sessions" => out.sessions = value().parse().unwrap_or_else(|_| usage()),
            "--commands" => out.commands = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => out.workers = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => out.scale = value().parse().unwrap_or_else(|_| usage()),
            "--addr" => out.addr = Some(value()),
            "--faults" => out.faults = Some(value()),
            "--deadline-ms" => out.deadline_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--max-pending" => out.max_pending = Some(value().parse().unwrap_or_else(|_| usage())),
            "--cancel-storm" => out.cancel_storm = true,
            "--fleet" => out.fleet = true,
            "--quick" => out.quick = true,
            "--out" => out.out = value(),
            _ => usage(),
        }
    }
    if out.sessions == 0 || out.commands < 4 {
        usage();
    }
    if out.fleet && (out.addr.is_some() || out.cancel_storm || out.faults.is_some()) {
        eprintln!("--fleet spins up its own in-process fleet; it cannot combine with --addr, --cancel-storm, or --faults");
        usage();
    }
    if out.addr.is_some() && (out.faults.is_some() || out.cancel_storm || out.deadline_ms.is_some())
    {
        eprintln!(
            "--faults/--deadline-ms/--cancel-storm configure the in-process daemon; \
             they cannot target --addr"
        );
        usage();
    }
    out
}

/// What one session observed.
struct SessionReport {
    issued: u64,
    errors: u64,
    quarantines: u64,
    /// Commands reaped by the server's default deadline.
    deadline_aborts: u64,
    /// Error → next-success gaps, one per incident.
    recoveries: Vec<Duration>,
    /// The final export (`None` if the session never reached one).
    export: Option<String>,
}

/// One session's workload: its own schema pair plus the command loop.
/// Under `chaos`, protocol errors are expected: they are counted, the
/// first error of an incident starts a recovery clock that the next
/// success stops, and a quarantined session is closed and recreated.
/// Under `deadline`, `command aborted: deadline exceeded` replies are
/// likewise expected and tallied separately.
fn run_session(
    addr: SocketAddr,
    index: usize,
    commands: usize,
    seed: u64,
    scale: f64,
    chaos: bool,
    deadline: bool,
) -> SessionReport {
    let tag = format!("bench{index}");
    let left = format!("{tag}_left");
    let right = format!("{tag}_right");

    // Two small generated ER models, distinct per session.
    let config = GeneratorConfig {
        models: 2,
        ..GeneratorConfig::scaled(seed ^ (index as u64).wrapping_mul(0x9e37_79b9), scale)
    };
    let registry = iwb_registry::generate_registry(config);
    let left_text = to_er_text(&registry.models[0]);
    let right_text = to_er_text(&registry.models[1]);

    let mut client = Client::connect(addr).expect("connect");
    client.session_new(Some(&tag)).expect("session new");

    let mut report = SessionReport {
        issued: 0,
        errors: 0,
        quarantines: 0,
        deadline_aborts: 0,
        recoveries: Vec::new(),
        export: None,
    };
    let mut error_since: Option<Instant> = None;

    // Issue one request; returns the body on success. Under chaos an
    // `err` reply feeds the incident clock instead of aborting; under
    // a deadline, reaped commands are tallied and skipped.
    #[allow(clippy::too_many_arguments)]
    fn step(
        client: &mut Client,
        report: &mut SessionReport,
        error_since: &mut Option<Instant>,
        chaos: bool,
        deadline: bool,
        tag: &str,
        reload: &[(String, String)],
        run: impl FnOnce(&mut Client) -> std::io::Result<iwb_server::client::Response>,
    ) -> Option<String> {
        let resp = run(client).expect("request io");
        report.issued += 1;
        if resp.ok {
            if let Some(start) = error_since.take() {
                report.recoveries.push(start.elapsed());
            }
            return Some(resp.body);
        }
        if resp.body.contains("command aborted: deadline exceeded") {
            assert!(
                deadline || chaos,
                "session {tag}: unexpected deadline abort: {}",
                resp.body
            );
            report.deadline_aborts += 1;
            return None;
        }
        assert!(chaos, "session {tag}: server error: {}", resp.body);
        report.errors += 1;
        error_since.get_or_insert_with(Instant::now);
        if resp.body.contains("quarantined") {
            // The supervision contract: quarantined sessions reject
            // commands but still close. Recreate and reload to keep
            // the load alive.
            report.quarantines += 1;
            client
                .request(&format!("session close {tag}"))
                .expect("close quarantined");
            client.session_new(Some(tag)).expect("recreate session");
            for (command, body) in reload {
                let _ = client.request_with_heredoc(command, body);
            }
        }
        None
    }

    let reload = [
        (format!("load er {left}"), left_text.clone()),
        (format!("load er {right}"), right_text.clone()),
    ];
    let mut run = |report: &mut SessionReport,
                   error_since: &mut Option<Instant>,
                   command: String,
                   heredoc: Option<&str>|
     -> Option<String> {
        step(
            &mut client,
            report,
            error_since,
            chaos,
            deadline,
            &tag,
            &reload,
            |c| match heredoc {
                Some(body) => c.request_with_heredoc(&command, body),
                None => c.request(&command),
            },
        )
    };

    run(
        &mut report,
        &mut error_since,
        format!("load er {left}"),
        Some(&left_text),
    );
    run(
        &mut report,
        &mut error_since,
        format!("load er {right}"),
        Some(&right_text),
    );
    run(
        &mut report,
        &mut error_since,
        format!("match {left} {right}"),
        None,
    );

    // Read-heavy steady state, with a periodic re-match.
    while report.issued < commands.saturating_sub(1) as u64 {
        let command = match report.issued % 5 {
            0 => format!("show matrix {left} {right}"),
            1 => "show coverage".to_owned(),
            2 => format!("show schema {left}"),
            3 => "query ?s ?p ?o".to_owned(),
            _ => format!("match {left} {right}"),
        };
        run(&mut report, &mut error_since, command, None);
    }
    report.export = run(&mut report, &mut error_since, "export".to_owned(), None);
    report
}

/// What the cancel-storm observed.
struct StormReport {
    /// Cancel acknowledged → `command aborted: cancelled` reply, per victim.
    latencies: Vec<Duration>,
    /// RETRY-AFTER rejections seen by the concurrent probe burst.
    probes_shed: u64,
    probes_total: u64,
    /// Stormed sessions that failed to re-attach or close afterwards.
    leaks: usize,
    elapsed: Duration,
}

/// Cancel-storm workload: every victim session issues one command
/// that the `exec-hang` fault point parks for 60 s, a probe burst
/// measures the shed rate while all victims are in flight, then an
/// admin connection cancels each victim and the time from the cancel
/// being acknowledged to the victim's command aborting is recorded.
fn run_cancel_storm(args: &Args, handle: &ServerHandle) -> StormReport {
    let victims = args.sessions;
    let addr = handle.addr();
    let started = Instant::now();

    // All victims arm their hang together; main passes the barrier to
    // know the storm is underway.
    let barrier = Arc::new(Barrier::new(victims + 1));
    let joins: Vec<_> = (0..victims)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("victim connect");
                client
                    .session_new(Some(&format!("storm{i}")))
                    .expect("victim session");
                barrier.wait();
                // Parks on the exec-hang fault until cancelled.
                let resp = client.request("show coverage").expect("victim request io");
                let returned = Instant::now();
                assert!(
                    !resp.ok && resp.body.contains("command aborted: cancelled"),
                    "victim storm{i}: expected a cancel abort, got: {}",
                    resp.body
                );
                returned
            })
        })
        .collect();
    barrier.wait();
    // Give the hang commands time to reach the server and arm their
    // cancel tokens before probing and cancelling.
    thread::sleep(Duration::from_millis(50));

    // Overload burst: with every victim parked, concurrent probes past
    // the admission bound must be shed with RETRY-AFTER, not queued.
    let probes_total = (victims as u64).max(8) * 2;
    let probe_joins: Vec<_> = (0..probes_total)
        .map(|_| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("probe connect");
                match c.request("ping") {
                    Ok(r) if r.ok => 0u64,
                    Ok(r) if r.body.starts_with("RETRY-AFTER") => 1,
                    Ok(r) => panic!("probe: unexpected error: {}", r.body),
                    // The acceptor may close a shed connection before
                    // the probe's request is read.
                    Err(_) => 1,
                }
            })
        })
        .collect();
    let probes_shed: u64 = probe_joins
        .into_iter()
        .map(|j| j.join().expect("probe thread"))
        .sum();

    // Cancel each victim and time cancel-ack → abort.
    let mut admin = Client::connect(addr).expect("admin connect");
    let mut cancel_issued = vec![started; victims];
    for (i, slot) in cancel_issued.iter_mut().enumerate() {
        loop {
            let before = Instant::now();
            let resp = admin
                .request(&format!("cancel storm{i}"))
                .expect("cancel io");
            if resp.ok {
                *slot = before;
                break;
            }
            assert!(
                resp.body.contains("no command in flight"),
                "cancel storm{i}: {}",
                resp.body
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    let latencies: Vec<Duration> = joins
        .into_iter()
        .zip(&cancel_issued)
        .map(|(j, &issued)| {
            let returned = j.join().expect("victim thread");
            returned.saturating_duration_since(issued)
        })
        .collect();

    // Zero session leakage: every stormed session must still be
    // attachable (alive, not quarantined) and close cleanly.
    let mut leaks = 0usize;
    for i in 0..victims {
        let attach = admin
            .request(&format!("session attach storm{i}"))
            .expect("attach io");
        let close = admin
            .request(&format!("session close storm{i}"))
            .expect("close io");
        if !attach.ok || !close.ok {
            eprintln!(
                "LEAK: storm{i} attach ok={} close ok={}: {} / {}",
                attach.ok, close.ok, attach.body, close.body
            );
            leaks += 1;
        }
    }

    StormReport {
        latencies,
        probes_shed,
        probes_total,
        leaks,
        elapsed: started.elapsed(),
    }
}

/// Fixed tiny schema pair for the fleet workload: the measurement
/// target is routing and failover latency, not matcher throughput.
const FLEET_SCHEMA_A: &str =
    "entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" }";
const FLEET_SCHEMA_B: &str =
    "entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" }";

/// What one fleet pass observed client-side.
struct FleetPhase {
    /// Per-command round-trip latencies (successful commands only).
    latencies: Vec<Duration>,
    errors: u64,
    elapsed: Duration,
}

/// Reserve `n` concrete loopback addresses: replication peers must be
/// known before any backend starts, so ephemeral `:0` binding is not
/// an option. Each listener is dropped immediately; the tiny window
/// until the backend rebinds is safe on loopback in a single process.
fn reserve_addrs(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .expect("reserve addr")
                .local_addr()
                .expect("local addr")
                .to_string()
        })
        .collect()
}

/// Spawn one replicating fleet backend per peer address, each with its
/// own store under `scratch` (no startup sweep — the router promotes
/// each session where it routes it, from the successor's streamed
/// replica).
fn fleet_backends(scratch: &std::path::Path, peers: &[String]) -> Vec<Option<ServerHandle>> {
    use iwb_server::repl::ReplConfig;
    peers
        .iter()
        .enumerate()
        .map(|(slot, addr)| {
            let store = scratch.join(format!("b{slot}"));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match serve(ServerConfig {
                    addr: addr.clone(),
                    store_dir: Some(store.clone()),
                    recover: false,
                    repl: Some(ReplConfig {
                        peers: peers.to_vec(),
                        self_index: slot,
                    }),
                    ..ServerConfig::default()
                }) {
                    Ok(handle) => break Some(handle),
                    Err(_) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => panic!("bind fleet backend {addr}: {e}"),
                }
            }
        })
        .collect()
}

/// Poll every backend's `repl status` and collect each source row's
/// replication lag (records committed locally but not yet acknowledged
/// by the successor's replica). Dead backends are skipped, not errors
/// — the sampler outlives the kill.
fn sample_repl_lag(peers: &[String], stop: &std::sync::atomic::AtomicBool) -> Vec<u64> {
    use std::sync::atomic::Ordering;
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        for addr in peers {
            let Ok(mut c) = Client::connect(addr.as_str()) else {
                continue;
            };
            let Ok(resp) = c.request("repl status") else {
                continue;
            };
            if !resp.ok {
                continue;
            }
            for line in resp.body.lines() {
                let Some(fields) = line.trim().strip_prefix("source ") else {
                    continue;
                };
                if let Some(lag) = fields
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("lag="))
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    samples.push(lag);
                }
            }
        }
        thread::sleep(Duration::from_millis(5));
    }
    samples
}

/// Percentile over an unsorted integer sample set (sorts in place).
fn pctl_u64(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// Drive `sessions` concurrent sessions through the routers (session
/// `i` uses router `i % routers`): per session one unmeasured warm-up
/// (two loads and a match), then `commands` measured commands, every
/// 4th mutating. `progress` counts measured commands fleet-wide so
/// the caller can time a kill.
fn run_fleet_phase(
    addrs: Arc<Vec<SocketAddr>>,
    sessions: usize,
    commands: usize,
    progress: Arc<std::sync::atomic::AtomicU64>,
) -> FleetPhase {
    use std::sync::atomic::Ordering;
    let started = Instant::now();
    let joins: Vec<_> = (0..sessions)
        .map(|i| {
            let progress = Arc::clone(&progress);
            let addr = addrs[i % addrs.len()];
            thread::spawn(move || {
                let mut latencies = Vec::with_capacity(commands);
                let mut errors = 0u64;
                let mut c = Client::connect(addr).expect("connect router");
                c.session_new(Some(&format!("f{i}")))
                    .expect("place session");
                for (cmd, body) in [
                    ("load er a", Some(FLEET_SCHEMA_A)),
                    ("load er b", Some(FLEET_SCHEMA_B)),
                    ("match a b", None),
                ] {
                    let resp = match body {
                        Some(b) => c.request_with_heredoc(cmd, b),
                        None => c.request(cmd),
                    };
                    resp.expect("warm-up request").expect_ok().expect("warm-up");
                }
                for k in 0..commands {
                    let cmd = if k % 4 == 0 {
                        "match a b"
                    } else {
                        "show coverage"
                    };
                    let t = Instant::now();
                    match c.request(cmd) {
                        Ok(resp) if resp.ok => latencies.push(t.elapsed()),
                        _ => errors += 1,
                    }
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                (latencies, errors)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for j in joins {
        let (lat, err) = j.join().expect("fleet session thread");
        latencies.extend(lat);
        errors += err;
    }
    FleetPhase {
        latencies,
        errors,
        elapsed: started.elapsed(),
    }
}

/// Percentile in microseconds over a sorted-in-place sample set.
fn pctl_us(samples: &mut [Duration], p: f64) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx].as_micros()
}

/// Router-side counters summed over every router in a pass.
#[derive(Default)]
struct PassCounters {
    failovers: u64,
    promotions: u64,
    stale_replica_refusals: u64,
    duplicate_acks: u64,
}

/// The fleet workload: a baseline pass (3 replicating `--no-recover`
/// backends, one store each, behind 2 in-process routers), then an
/// identical pass with the most-loaded backend hard-killed once half
/// the measured commands have completed — failover must promote from
/// the successors' streamed replicas. Gates zero session loss, at least one failover and
/// promotion, no stale-replica refusals, and bounded steady-state
/// replication lag; reports p50/p99 with vs without failover plus
/// replication-lag percentiles.
fn run_fleet(args: &Args) {
    use iwb_router::router::{serve as serve_router, RouterConfig};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let backends_n = 3usize;
    let routers_n = 2usize;
    let (sessions, commands) = if args.quick {
        (4, 16)
    } else {
        (args.sessions, args.commands)
    };
    let out = if args.out == "BENCH_server.json" {
        "BENCH_fleet.json".to_owned()
    } else {
        args.out.clone()
    };
    println!(
        "bench_server: fleet, {sessions} sessions x {commands} commands over \
         {backends_n} replicating backends / {routers_n} routers"
    );

    let scratch = std::env::temp_dir().join(format!("iwb-bench-fleet-{}", std::process::id()));

    let run_pass = |tag: &str, kill: bool| -> (FleetPhase, PassCounters, Vec<u64>, usize) {
        let pass_dir = scratch.join(tag);
        let _ = std::fs::remove_dir_all(&pass_dir);
        let peers = reserve_addrs(backends_n);
        let mut backends = fleet_backends(&pass_dir, &peers);
        let routers: Vec<_> = (0..routers_n)
            .map(|_| {
                serve_router(RouterConfig {
                    backends: peers.clone(),
                    ..RouterConfig::default()
                })
                .expect("bind router")
            })
            .collect();
        let addrs = Arc::new(routers.iter().map(|r| r.addr()).collect::<Vec<_>>());

        // Replication-lag sampler: polls `repl status` on every live
        // backend for the whole pass.
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let peers = peers.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || sample_repl_lag(&peers, &stop))
        };

        let progress = Arc::new(AtomicU64::new(0));
        let phase = {
            let progress = Arc::clone(&progress);
            let addrs = Arc::clone(&addrs);
            thread::spawn(move || run_fleet_phase(addrs, sessions, commands, progress))
        };
        if kill {
            let mut owned = vec![0usize; backends_n];
            for i in 0..sessions {
                owned[iwb_store::rendezvous::rank(&format!("f{i}"), backends_n)[0]] += 1;
            }
            let victim = (0..backends_n).max_by_key(|&b| owned[b]).unwrap();
            let half = (sessions * commands) as u64 / 2;
            while progress.load(Ordering::Relaxed) < half {
                thread::sleep(Duration::from_millis(2));
            }
            println!(
                "  [{tag}] killing backend {victim} (owns {} of {sessions} sessions)",
                owned[victim]
            );
            backends[victim].take().unwrap().kill();
        }
        let phase = phase.join().expect("fleet phase");
        stop.store(true, Ordering::Relaxed);
        let lag_samples = sampler.join().expect("lag sampler");

        // Zero-loss sweep: every session must re-attach and export
        // (through either router — use the first).
        let mut lost = 0usize;
        for i in 0..sessions {
            let id = format!("f{i}");
            let survived = Client::connect(addrs[0])
                .ok()
                .and_then(|mut c| {
                    c.session_attach(&id).ok()?;
                    c.request("export").ok().filter(|r| r.ok)
                })
                .is_some();
            if !survived {
                eprintln!("  [{tag}] LOST session {id}");
                lost += 1;
            }
        }
        let mut counters = PassCounters::default();
        for r in &routers {
            counters.failovers += r.stats().failovers_count();
            counters.promotions += r.stats().promotions_count();
            counters.stale_replica_refusals += r.stats().stale_replica_refusals_count();
            counters.duplicate_acks += r.stats().duplicate_acks_count();
        }
        for r in routers {
            r.shutdown();
            r.join();
        }
        for b in backends.into_iter().flatten() {
            b.shutdown();
            b.join();
        }
        let _ = std::fs::remove_dir_all(&pass_dir);
        (phase, counters, lag_samples, lost)
    };

    let (mut base, _, mut base_lag, base_lost) = run_pass("baseline", false);
    let (mut fail, counters, mut fail_lag, lost) = run_pass("failover", true);
    let _ = std::fs::remove_dir_all(&scratch);

    let base_p50 = pctl_us(&mut base.latencies, 0.50);
    let base_p99 = pctl_us(&mut base.latencies, 0.99);
    let fail_p50 = pctl_us(&mut fail.latencies, 0.50);
    let fail_p99 = pctl_us(&mut fail.latencies, 0.99);
    let errors = base.errors + fail.errors;
    // Steady-state lag comes from the healthy baseline pass; the
    // failover pass also reports its max, which includes sources whose
    // successor was the victim (their lag grows until the pass ends —
    // expected, and visible rather than hidden).
    let lag_p50 = pctl_u64(&mut base_lag, 0.50);
    let lag_p99 = pctl_u64(&mut base_lag, 0.99);
    let lag_max = base_lag.last().copied().unwrap_or(0);
    let fail_lag_max = pctl_u64(&mut fail_lag, 1.0);
    println!(
        "  baseline: p50 {base_p50} us, p99 {base_p99} us over {} commands ({:.3}s)",
        base.latencies.len(),
        base.elapsed.as_secs_f64()
    );
    println!(
        "  failover: p50 {fail_p50} us, p99 {fail_p99} us over {} commands ({:.3}s), \
         {} failovers, {} promotions, {} stale refusals, {} duplicate acks",
        fail.latencies.len(),
        fail.elapsed.as_secs_f64(),
        counters.failovers,
        counters.promotions,
        counters.stale_replica_refusals,
        counters.duplicate_acks
    );
    println!(
        "  replication lag (records): p50 {lag_p50}, p99 {lag_p99}, max {lag_max} over {} \
         samples (failover-pass max {fail_lag_max})",
        base_lag.len()
    );
    println!("  sessions lost: {lost} (baseline {base_lost})");

    let json = format!(
        "{{\n  \"mode\": \"fleet\",\n  \"backends\": {backends_n},\n  \"routers\": {routers_n},\n  \
         \"sessions\": {sessions},\n  \
         \"commands_per_session\": {commands},\n  \"baseline_p50_us\": {base_p50},\n  \
         \"baseline_p99_us\": {base_p99},\n  \"failover_p50_us\": {fail_p50},\n  \
         \"failover_p99_us\": {fail_p99},\n  \"failovers\": {},\n  \
         \"promotions\": {},\n  \"stale_replica_refusals\": {},\n  \
         \"duplicate_acks\": {},\n  \"protocol_errors\": {errors},\n  \
         \"repl_lag_samples\": {},\n  \"repl_lag_p50\": {lag_p50},\n  \
         \"repl_lag_p99\": {lag_p99},\n  \"repl_lag_max\": {lag_max},\n  \
         \"failover_repl_lag_max\": {fail_lag_max},\n  \
         \"sessions_lost\": {}\n}}\n",
        counters.failovers,
        counters.promotions,
        counters.stale_replica_refusals,
        counters.duplicate_acks,
        base_lag.len(),
        lost + base_lost,
    );
    std::fs::write(&out, &json).expect("write report");
    println!("report written to {out}");

    // Shipping is synchronous with the commit, so a healthy fleet's
    // lag should hover at zero; a small allowance covers samples taken
    // inside the commit window. STALE-REPLICA must never fire here:
    // every acked mutation was offered to the successor before its ack.
    let lag_bound = 4u64;
    if lost + base_lost > 0
        || counters.failovers == 0
        || counters.promotions == 0
        || counters.stale_replica_refusals > 0
        || errors > 0
        || lag_max > lag_bound
    {
        eprintln!(
            "bench_server: FAILED — fleet invariants violated (lost={}, failovers={}, \
             promotions={}, stale={}, errors={errors}, lag_max={lag_max} bound {lag_bound})",
            lost + base_lost,
            counters.failovers,
            counters.promotions,
            counters.stale_replica_refusals,
        );
        std::process::exit(1);
    }
    println!(
        "bench_server: ok — fleet failover from streamed replicas, zero session loss, \
         steady-state lag <= {lag_bound}"
    );
}

fn mean_max_us(samples: &[Duration]) -> (u128, u128) {
    if samples.is_empty() {
        return (0, 0);
    }
    (
        samples.iter().map(Duration::as_micros).sum::<u128>() / samples.len() as u128,
        samples.iter().map(Duration::as_micros).max().unwrap_or(0),
    )
}

fn main() {
    let args = parse_args();
    let fault_plan = args.faults.as_deref().map(|spec| {
        FaultSpec::parse(spec)
            .unwrap_or_else(|e| {
                eprintln!("bad --faults spec: {e}");
                usage();
            })
            .build()
    });
    let chaos = fault_plan.as_ref().is_some_and(|p| p.is_active());
    if chaos {
        iwb_server::quiet_injected_panics();
    }

    if args.fleet {
        run_fleet(&args);
        return;
    }

    if args.cancel_storm {
        // The storm parks one worker per victim, so the daemon needs
        // headroom for the admin connection, and the admission bound
        // sits just above the victims so the probe burst sheds.
        let handle = serve(ServerConfig {
            workers: args.sessions + 2,
            max_sessions: args.sessions + 4,
            max_pending: args.max_pending.unwrap_or(args.sessions + 2),
            faults: FaultSpec::seeded(args.seed)
                .rate(EXEC_HANG, 1.0)
                .millis(EXEC_HANG, 60_000)
                .build(),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = handle.addr();
        println!(
            "bench_server: cancel-storm, {} victims against {addr} (seed {})",
            args.sessions, args.seed
        );

        let report = run_cancel_storm(&args, &handle);
        let (mean_us, max_us) = mean_max_us(&report.latencies);
        let cancelled = handle
            .stats()
            .counters
            .get(ServerCounter::CommandsCancelled);
        let shed = handle.stats().counters.get(ServerCounter::ConnectionsShed);
        let shed_rate = report.probes_shed as f64 / report.probes_total as f64;
        println!(
            "cancel latency: mean {mean_us} us, max {max_us} us over {} cancels",
            report.latencies.len()
        );
        println!(
            "admission: {}/{} probes shed ({:.0}% shed rate), server shed counter {shed}",
            report.probes_shed,
            report.probes_total,
            shed_rate * 100.0
        );
        println!(
            "sessions: {} stormed, {} leaked, server cancelled counter {cancelled}",
            args.sessions, report.leaks
        );

        let json = format!(
            "{{\n  \"mode\": \"cancel-storm\",\n  \"seed\": {},\n  \"sessions\": {},\n  \
             \"elapsed_s\": {:.3},\n  \"cancel_latency_mean_us\": {mean_us},\n  \
             \"cancel_latency_max_us\": {max_us},\n  \"probes_shed\": {},\n  \
             \"probes_total\": {},\n  \"shed_rate\": {shed_rate:.3},\n  \
             \"server_cancelled\": {cancelled},\n  \"server_shed\": {shed},\n  \
             \"session_leaks\": {}\n}}\n",
            args.seed,
            args.sessions,
            report.elapsed.as_secs_f64(),
            report.probes_shed,
            report.probes_total,
            report.leaks,
        );
        std::fs::write(&args.out, &json).expect("write report");
        println!("report written to {}", args.out);

        let mut admin = Client::connect(addr).expect("admin connect");
        println!("server stats:");
        for line in admin.stats().expect("stats").lines() {
            println!("  {line}");
        }
        admin.shutdown().expect("shutdown");
        handle.join();

        let ok = report.leaks == 0
            && cancelled >= args.sessions as u64
            && report.probes_shed > 0
            && report.latencies.len() == args.sessions;
        if !ok {
            eprintln!("bench_server: FAILED — cancel-storm invariants violated");
            std::process::exit(1);
        }
        println!("bench_server: ok — cancel-storm, zero session leakage");
        return;
    }

    // Either target an external daemon or spin one up in-process.
    let mut local: Option<ServerHandle> = None;
    let addr: SocketAddr = match &args.addr {
        Some(a) => a.parse().expect("bad --addr"),
        None => {
            let handle = serve(ServerConfig {
                workers: args.workers,
                max_sessions: args.sessions + 4,
                faults: fault_plan.unwrap_or_default(),
                default_deadline: args.deadline_ms.map(Duration::from_millis),
                max_pending: args.max_pending.unwrap_or(0),
                ..ServerConfig::default()
            })
            .expect("bind ephemeral port");
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };

    println!(
        "bench_server: {} sessions x {} commands against {addr} (seed {}{}{})",
        args.sessions,
        args.commands,
        args.seed,
        match &args.faults {
            Some(spec) => format!(", faults {spec}"),
            None => String::new(),
        },
        match args.deadline_ms {
            Some(ms) => format!(", deadline {ms} ms"),
            None => String::new(),
        }
    );

    let started = Instant::now();
    let deadline = args.deadline_ms.is_some();
    let joins: Vec<_> = (0..args.sessions)
        .map(|i| {
            let (commands, seed, scale) = (args.commands, args.seed, args.scale);
            thread::spawn(move || run_session(addr, i, commands, seed, scale, chaos, deadline))
        })
        .collect();
    let results: Vec<SessionReport> = joins
        .into_iter()
        .map(|j| j.join().expect("session thread"))
        .collect();
    let elapsed = started.elapsed();

    // Zero cross-session leakage: session i's export must not mention
    // any other session's schema ids. Under chaos only sessions whose
    // final export succeeded are checkable.
    let mut leaks = 0usize;
    for (i, report) in results.iter().enumerate() {
        let Some(export) = &report.export else {
            continue;
        };
        for j in 0..args.sessions {
            if j != i && export.contains(&format!("bench{j}_")) {
                eprintln!("LEAK: session {i} export mentions bench{j}_*");
                leaks += 1;
            }
        }
    }

    let total: u64 = results.iter().map(|r| r.issued).sum();
    let secs = elapsed.as_secs_f64();
    println!(
        "client side: {total} commands in {secs:.3}s  ({:.0} cmd/s, {:.0} cmd/s/session)",
        total as f64 / secs,
        total as f64 / secs / args.sessions as f64
    );

    let errors: u64 = results.iter().map(|r| r.errors).sum();
    let quarantines: u64 = results.iter().map(|r| r.quarantines).sum();
    let deadline_aborts: u64 = results.iter().map(|r| r.deadline_aborts).sum();
    if chaos {
        let recoveries: Vec<Duration> = results
            .iter()
            .flat_map(|r| r.recoveries.iter().copied())
            .collect();
        let (mean_us, max_us) = mean_max_us(&recoveries);
        println!(
            "chaos: {errors} protocol errors, {quarantines} quarantines handled, \
             {} recoveries (mean {mean_us} us, max {max_us} us)",
            recoveries.len()
        );
    }
    if deadline {
        println!(
            "deadline: {deadline_aborts} commands reaped by the {} ms default",
            args.deadline_ms.unwrap_or(0)
        );
    }

    let (cancelled, deadline_exceeded, shed) = match &local {
        Some(handle) => (
            handle
                .stats()
                .counters
                .get(ServerCounter::CommandsCancelled),
            handle
                .stats()
                .counters
                .get(ServerCounter::CommandsDeadlineExceeded),
            handle.stats().counters.get(ServerCounter::ConnectionsShed),
        ),
        None => (0, 0, 0),
    };
    let json = format!(
        "{{\n  \"mode\": \"load\",\n  \"seed\": {},\n  \"sessions\": {},\n  \
         \"commands\": {},\n  \"workers\": {},\n  \"chaos\": {chaos},\n  \
         \"deadline_ms\": {},\n  \"elapsed_s\": {secs:.3},\n  \
         \"commands_total\": {total},\n  \"cmd_per_s\": {:.1},\n  \
         \"protocol_errors\": {errors},\n  \"quarantines\": {quarantines},\n  \
         \"deadline_aborts\": {deadline_aborts},\n  \"server_cancelled\": {cancelled},\n  \
         \"server_deadline_exceeded\": {deadline_exceeded},\n  \"server_shed\": {shed},\n  \
         \"cross_session_leaks\": {leaks}\n}}\n",
        args.seed,
        args.sessions,
        args.commands,
        args.workers,
        match args.deadline_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        },
        total as f64 / secs,
    );
    std::fs::write(&args.out, &json).expect("write report");
    println!("report written to {}", args.out);

    let mut admin = Client::connect(addr).expect("admin connect");
    println!("server stats:");
    for line in admin.stats().expect("stats").lines() {
        println!("  {line}");
    }

    if local.is_some() {
        admin.shutdown().expect("shutdown");
    }
    if let Some(handle) = local {
        handle.join();
    }

    if leaks > 0 {
        eprintln!("bench_server: FAILED — {leaks} cross-session leak(s)");
        std::process::exit(1);
    }
    let checked = results.iter().filter(|r| r.export.is_some()).count();
    println!(
        "bench_server: ok — zero cross-session leakage ({checked}/{} exports checked)",
        results.len()
    );
}
