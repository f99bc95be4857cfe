//! Chaos integration tests: deterministic fault injection against a
//! live daemon.
//!
//! Every test runs with a fixed seed, so a failure reproduces exactly
//! — rerunning replays the same faults at the same per-point call
//! indices regardless of worker interleaving. Covered:
//!
//! * a panicking command answers a protocol error while the session
//!   stays usable and *other* sessions are unaffected;
//! * quarantine after repeated panics, then `session close`;
//! * crash + `--recover` restart restores a journaled session
//!   byte-identically (stats-visible state and query results);
//! * a torn final journal record recovers the un-torn prefix;
//! * client reconnect (backoff + re-attach) across the restart;
//! * a connection dying mid-heredoc journals nothing;
//! * a `shard-stall`ed match is reaped by the deadline within 2x the
//!   budget, the session survives, and the journal replays cleanly;
//! * `cancel <session>` from another connection interrupts a hung
//!   mutating command, which is never journaled;
//! * past `max_pending` connections are shed with `RETRY-AFTER`.

use iwb_server::client::{Backoff, Client};
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use iwb_server::stats::ServerCounter;
use iwb_store::fault::{FaultSpec, EXEC_HANG, EXEC_PANIC, JOURNAL_TORN, SHARD_STALL};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SCHEMA_A: &str = "entity Customer \"A customer.\" { name : text \"Full name.\" }";
const SCHEMA_B: &str = "entity Client { client_name : text }";

/// A scratch journal directory, cleaned on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("iwb-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve_config(config: ServerConfig) -> ServerHandle {
    serve(config).expect("bind ephemeral port")
}

/// Restart "the daemon" on the same address with recovery enabled.
/// The old listener must be fully closed first, so this retries the
/// bind briefly.
fn restart_with_recovery(addr: &str, journal_dir: &Path) -> ServerHandle {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match serve(ServerConfig {
            addr: addr.to_owned(),
            journal_dir: Some(journal_dir.to_path_buf()),
            recover: true,
            ..ServerConfig::default()
        }) {
            Ok(handle) => return handle,
            Err(e) if std::time::Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

/// Everything `stats`-visible and query-visible about a session's
/// integration state, for byte-identical comparison across a restart.
fn observable_state(c: &mut Client) -> String {
    let export = c.request("export").unwrap().expect_ok().unwrap();
    let coverage = c.request("show coverage").unwrap().expect_ok().unwrap();
    format!("{export}\n---\n{coverage}")
}

/// A synthetic registry-style ER schema: `entities` entities of
/// `fields` fields each, names prefixed so source and target overlap
/// without being identical (the match has real work to do).
fn synthetic_registry(prefix: &str, entities: usize, fields: usize) -> String {
    let mut out = String::new();
    for e in 0..entities {
        out.push_str(&format!(
            "entity {prefix}Reg{e} \"Registry entry {e}.\" {{\n"
        ));
        for f in 0..fields {
            out.push_str(&format!(
                "  {prefix}_field_{e}_{f} : text \"Attribute {f} of entry {e}.\"\n"
            ));
        }
        out.push_str("}\n");
    }
    out
}

#[test]
fn stalled_match_is_reaped_by_the_deadline_and_the_session_survives() {
    let dir = TempDir::new("stall");
    const DEADLINE: Duration = Duration::from_millis(2_000);
    // The fifth shell command (the match; two loads and the two
    // state-capture reads come first) stalls its in-engine budget
    // checks for 60 s — far past the 2 s default deadline. The
    // deadline must reap it within 2x the budget.
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        default_deadline: Some(DEADLINE),
        faults: FaultSpec::seeded(23)
            .at(SHARD_STALL, &[4])
            .millis(SHARD_STALL, 60_000)
            .build(),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("reg")).unwrap();
    c.request_with_heredoc("load er src", &synthetic_registry("s", 16, 5))
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er dst", &synthetic_registry("d", 16, 5))
        .unwrap()
        .expect_ok()
        .unwrap();
    let before = observable_state(&mut c);

    let started = Instant::now();
    let reaped = c.request("match src dst").unwrap();
    let elapsed = started.elapsed();
    assert!(!reaped.ok, "stalled match must abort: {}", reaped.body);
    assert!(
        reaped.body.contains("command aborted: deadline exceeded"),
        "{}",
        reaped.body
    );
    assert!(
        elapsed < DEADLINE * 2,
        "reap took {elapsed:?}, budget was {DEADLINE:?}"
    );

    // The abort is stats-visible and left no partial state behind.
    let stats = c.stats().unwrap();
    assert!(stats.contains("deadline_exceeded=1"), "{stats}");
    assert_eq!(observable_state(&mut c), before, "aborted match leaked");

    // The session stays attachable from a fresh connection, and the
    // fault plan only stalls command index 2 — a rerun completes.
    let mut second = Client::connect(&addr).unwrap();
    second.session_attach("reg").unwrap();
    let rerun = second.request("match src dst").unwrap();
    assert!(rerun.ok, "{}", rerun.body);
    assert!(rerun.body.contains("cells updated"), "{}", rerun.body);
    let after_rerun = observable_state(&mut second);

    // Crash + recover: the journal holds the two loads and the one
    // *successful* match (never the reaped one) and replays cleanly.
    handle.shutdown();
    drop(c);
    drop(second);
    handle.join();
    let restarted = restart_with_recovery(&addr, &dir.0);
    let report = restarted.recovery().expect("recovery ran").clone();
    assert_eq!(report.sessions, 1, "{report:?}");
    assert_eq!(report.replayed, 3, "load, load, rerun match: {report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    let mut c = Client::connect(&addr).unwrap();
    c.session_attach("reg").unwrap();
    assert_eq!(observable_state(&mut c), after_rerun, "replay drifted");

    c.shutdown().unwrap();
    restarted.join();
}

#[test]
fn cancel_from_another_connection_interrupts_a_hung_command() {
    let dir = TempDir::new("cancel");
    // The third shell command (a mutating match) hangs for 60 s; a
    // `cancel` issued on a second connection must interrupt it, and the
    // cancelled command must never reach the journal.
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        faults: FaultSpec::seeded(31)
            .at(EXEC_HANG, &[2])
            .millis(EXEC_HANG, 60_000)
            .build(),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("hung")).unwrap();
    c.request_with_heredoc("load er src", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er dst", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();

    let hung = std::thread::spawn(move || {
        let reply = c.request("match src dst").unwrap();
        (c, reply)
    });

    // From a second connection, cancel the in-flight command. Retry
    // until the hung command has armed its token (cancel errs with
    // "no command in flight" before that).
    let mut admin = Client::connect(&addr).unwrap();
    let started = Instant::now();
    let issued = loop {
        let reply = admin.request("cancel hung").unwrap();
        if reply.ok {
            break Instant::now();
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancel never landed: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    let (mut c, reply) = hung.join().unwrap();
    assert!(!reply.ok, "cancelled command must err: {}", reply.body);
    assert!(
        reply.body.contains("command aborted: cancelled"),
        "{}",
        reply.body
    );
    assert!(
        issued.elapsed() < Duration::from_secs(2),
        "cancel-to-abort latency {:?}",
        issued.elapsed()
    );
    let stats = admin.stats().unwrap();
    assert!(stats.contains("cancelled=1"), "{stats}");

    // The session still works on the original connection...
    let rerun = c.request("match src dst").unwrap();
    assert!(rerun.ok, "{}", rerun.body);

    // ...and after a crash the journal replays the loads and the
    // successful rerun — never the cancelled attempt.
    handle.shutdown();
    drop(c);
    drop(admin);
    handle.join();
    let restarted = restart_with_recovery(&addr, &dir.0);
    let report = restarted.recovery().expect("recovery ran").clone();
    assert_eq!(report.replayed, 3, "load, load, rerun match: {report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    restarted.join();
}

#[test]
fn connections_past_the_pending_bound_are_shed_with_retry_after() {
    let handle = serve_config(ServerConfig {
        workers: 2,
        max_pending: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // First connection fills the single admission slot...
    let mut first = Client::connect(&addr).unwrap();
    assert!(first.request("ping").unwrap().ok);

    // ...so the next one is shed by the acceptor with a structured
    // RETRY-AFTER error instead of queueing.
    let mut shed = Client::connect(&addr).unwrap();
    let reply = shed.request("ping").unwrap();
    assert!(!reply.ok, "expected load shed, got: {}", reply.body);
    assert!(reply.body.starts_with("RETRY-AFTER "), "{}", reply.body);
    assert_eq!(
        handle.stats().counters.get(ServerCounter::ConnectionsShed),
        1
    );

    // Honoring the hint works: once the first connection closes, a
    // retry is admitted (retries racing the slot release may be shed
    // again, bumping the counter) and the sheds are stats-visible.
    drop(first);
    drop(shed);
    let started = Instant::now();
    let stats = loop {
        let mut retry = Client::connect(&addr).unwrap();
        let reply = retry.request("stats").unwrap();
        if reply.ok {
            break reply.body;
        }
        assert!(
            reply.body.starts_with("RETRY-AFTER "),
            "unexpected error: {}",
            reply.body
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "slot never freed"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let shed_total = handle.stats().counters.get(ServerCounter::ConnectionsShed);
    assert!(shed_total >= 1);
    assert!(stats.contains(&format!("shed={shed_total}")), "{stats}");

    handle.shutdown();
    handle.join();
}

#[test]
fn panicking_command_is_isolated_and_other_sessions_keep_working() {
    iwb_server::quiet_injected_panics();
    // Fixed seed; panic on exactly the third shell command the daemon
    // executes (victim's `match`), nowhere else.
    let handle = serve_config(ServerConfig {
        faults: FaultSpec::seeded(42).at(EXEC_PANIC, &[2]).build(),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut victim = Client::connect(addr).unwrap();
    victim.session_new(Some("victim")).unwrap();
    victim
        .request_with_heredoc("load er src", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    victim
        .request_with_heredoc("load er dst", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();

    let boom = victim.request("match src dst").unwrap();
    assert!(!boom.ok, "fault index 2 must fire: {}", boom.body);
    assert!(boom.body.contains("command panicked"), "{}", boom.body);

    // The victim session survives the contained panic...
    let retry = victim.request("match src dst").unwrap();
    assert!(retry.ok, "session unusable after panic: {}", retry.body);
    assert!(retry.body.contains("cells updated"), "{}", retry.body);

    // ...and a session created *after* the fault is fully healthy.
    let mut bystander = Client::connect(addr).unwrap();
    bystander.session_new(Some("bystander")).unwrap();
    bystander
        .request_with_heredoc("load er other", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    let export = bystander.request("export").unwrap().expect_ok().unwrap();
    assert!(export.contains("other"), "{export}");
    assert!(!export.contains("src"), "bystander sees victim state");

    let stats = bystander.stats().unwrap();
    assert!(stats.contains("panics_caught=1"), "{stats}");
    assert!(stats.contains("faults injected=1"), "{stats}");

    bystander.shutdown().unwrap();
    handle.join();
}

#[test]
fn quarantine_after_repeated_panics_then_close() {
    iwb_server::quiet_injected_panics();
    let handle = serve_config(ServerConfig {
        quarantine_after: 2,
        faults: FaultSpec::seeded(7).at(EXEC_PANIC, &[0, 1]).build(),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    c.session_new(Some("sick")).unwrap();

    let first = c.request("show coverage").unwrap();
    assert!(
        !first.ok && first.body.contains("command panicked"),
        "{}",
        first.body
    );
    let second = c.request("show coverage").unwrap();
    assert!(second.body.contains("quarantined"), "{}", second.body);

    // Quarantined: commands rejected without running...
    let rejected = c.request("show coverage").unwrap();
    assert!(!rejected.ok);
    assert!(
        rejected.body.contains("is quarantined"),
        "{}",
        rejected.body
    );

    // ...other sessions unaffected, and `session close` still works.
    let mut healthy = Client::connect(handle.addr()).unwrap();
    healthy.session_new(Some("fine")).unwrap();
    assert!(healthy.request("show coverage").unwrap().ok);

    let stats = healthy.stats().unwrap();
    assert!(stats.contains("quarantined=1"), "{stats}");
    assert!(c.request("session close sick").unwrap().ok);

    healthy.shutdown().unwrap();
    handle.join();
}

#[test]
fn recover_restores_a_journaled_session_byte_identically() {
    let dir = TempDir::new("recover");
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("work")).unwrap();
    c.request_with_heredoc("load er src", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er dst", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request("match src dst").unwrap().expect_ok().unwrap();
    let before = observable_state(&mut c);
    let matrix_before = c
        .request("show matrix src dst")
        .unwrap()
        .expect_ok()
        .unwrap();

    // "Crash": shut the daemon down without closing the session, so
    // its journal file stays behind.
    handle.shutdown();
    drop(c);
    handle.join();

    let restarted = restart_with_recovery(&addr, &dir.0);
    let report = restarted.recovery().expect("recovery ran").clone();
    assert_eq!(report.sessions, 1, "{report:?}");
    assert_eq!(report.replayed, 3, "load, load, match: {report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");

    let mut c = Client::connect(&addr).unwrap();
    c.session_attach("work").unwrap();
    assert_eq!(
        observable_state(&mut c),
        before,
        "state drifted across recovery"
    );
    let matrix_after = c
        .request("show matrix src dst")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert_eq!(matrix_after, matrix_before);

    // The replayed command count is stats-visible on `session list`.
    let list = c.request("session list").unwrap().expect_ok().unwrap();
    assert!(list.contains("id=work"), "{list}");
    let stats = c.stats().unwrap();
    assert!(stats.contains("recovered_sessions=1"), "{stats}");
    assert!(stats.contains("replayed=3"), "{stats}");

    c.shutdown().unwrap();
    restarted.join();
}

#[test]
fn torn_final_journal_record_recovers_the_prefix() {
    let dir = TempDir::new("torn");
    // Tear exactly the third journal append (the `match`): the two
    // loads commit cleanly, the match's record is half-written.
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        faults: FaultSpec::seeded(11).at(JOURNAL_TORN, &[2]).build(),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("frayed")).unwrap();
    c.request_with_heredoc("load er src", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er dst", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    // The command itself succeeds — only its durability record tears.
    c.request("match src dst").unwrap().expect_ok().unwrap();

    handle.shutdown();
    drop(c);
    handle.join();

    let restarted = restart_with_recovery(&addr, &dir.0);
    let report = restarted.recovery().expect("recovery ran").clone();
    assert_eq!(report.sessions, 1, "{report:?}");
    assert_eq!(
        report.torn_tails, 1,
        "torn tail must be detected: {report:?}"
    );
    assert_eq!(
        report.replayed, 2,
        "only the clean prefix replays: {report:?}"
    );

    let mut c = Client::connect(&addr).unwrap();
    c.session_attach("frayed").unwrap();
    let export = c.request("export").unwrap().expect_ok().unwrap();
    assert!(export.contains("src"), "{export}");
    assert!(export.contains("dst"), "{export}");
    // The torn match is gone — and can simply be rerun.
    let rematch = c.request("match src dst").unwrap();
    assert!(rematch.ok, "{}", rematch.body);
    let stats = c.stats().unwrap();
    assert!(
        stats.contains("torn=1") || stats.contains("recovered_sessions=1"),
        "{stats}"
    );

    c.shutdown().unwrap();
    restarted.join();
}

#[test]
fn client_reconnects_and_reattaches_across_a_restart() {
    let dir = TempDir::new("reconnect");
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("sticky")).unwrap();
    c.request_with_heredoc("load er src", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    let before = observable_state(&mut c);

    handle.shutdown();
    handle.join();
    // The daemon is dead: requests now fail.
    assert!(c.request("ping").is_err());

    let restarted = restart_with_recovery(&addr, &dir.0);
    c.reconnect(&Backoff {
        attempts: 40,
        base: Duration::from_millis(25),
        max: Duration::from_millis(200),
        seed: 99,
        cap: None,
    })
    .expect("reconnect + re-attach");
    assert_eq!(c.session(), Some("sticky"));
    assert_eq!(observable_state(&mut c), before);

    c.shutdown().unwrap();
    restarted.join();
}

#[test]
fn dying_mid_heredoc_journals_nothing() {
    let dir = TempDir::new("midheredoc");
    let handle = serve_config(ServerConfig {
        journal_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.session_new(Some("partial")).unwrap();
    c.request_with_heredoc("load er whole", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();

    // A raw connection that opens a heredoc and dies before the
    // terminator: the command must never execute, so nothing lands in
    // the journal.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(b"session attach partial\n").unwrap();
        raw.write_all(b"load er torn <<EOF\nentity Half {\n")
            .unwrap();
        raw.flush().unwrap();
        // Drop without sending EOF.
    }
    // Give the worker a moment to notice the dead connection.
    std::thread::sleep(Duration::from_millis(200));

    handle.shutdown();
    drop(c);
    handle.join();

    let restarted = restart_with_recovery(&addr, &dir.0);
    let report = restarted.recovery().expect("recovery ran").clone();
    assert_eq!(report.replayed, 1, "only the completed load: {report:?}");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    let mut c = Client::connect(&addr).unwrap();
    c.session_attach("partial").unwrap();
    let export = c.request("export").unwrap().expect_ok().unwrap();
    assert!(export.contains("whole"), "{export}");
    assert!(
        !export.contains("torn"),
        "half-received command leaked: {export}"
    );

    c.shutdown().unwrap();
    restarted.join();
}
