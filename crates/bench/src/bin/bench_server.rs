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
            out: "BENCH_server.json".to_owned(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_server [--sessions N] [--commands N] [--workers N] \
         [--seed N] [--scale F] [--addr HOST:PORT] [--faults SPEC] \
         [--deadline-ms N] [--max-pending N] [--cancel-storm] [--out FILE]"
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
            "--out" => out.out = value(),
            _ => usage(),
        }
    }
    if out.sessions == 0 || out.commands < 4 {
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
