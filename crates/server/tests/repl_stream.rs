//! Streamed-replication integration tests over live `workbenchd`
//! pairs: a source backend ships every journaled commit to its
//! successor's standby journal as a `repl range` frame, and the stream
//! survives sink crashes — including a crash that tears the *replica*
//! journal mid-append. Deterministic fault seeds throughout.

use iwb_server::client::Client;
use iwb_server::journal::JournalRecord;
use iwb_server::repl::{encode_frame, ReplConfig};
use iwb_server::server::{serve, ServerConfig, ServerHandle, MAX_LINE_BYTES};
use iwb_store::fault::{FaultPlan, FaultSpec};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SCHEMA_A: &str =
    "entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" }";
const SCHEMA_B: &str =
    "entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" }";
const ACCEPT: &str = "accept a b a/SHIPMENT/ship_dt b/DELIVERY/deliver_dt";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("iwb-repl-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reserve a concrete loopback address: replication peers must be
/// known before any backend starts, so ephemeral `:0` binding is not
/// an option. The listener is dropped immediately; the tiny window
/// until the backend rebinds is safe on loopback in a single process.
fn reserve_addr() -> String {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string()
}

/// One replicating backend: its own store, no startup sweep, fixed
/// slot in the peer list.
fn spawn(
    addr: &str,
    store: &Path,
    peers: &[String],
    slot: usize,
    faults: FaultPlan,
) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match serve(ServerConfig {
            addr: addr.to_owned(),
            store_dir: Some(store.to_path_buf()),
            recover: false,
            faults: faults.clone(),
            repl: Some(ReplConfig {
                peers: peers.to_vec(),
                self_index: slot,
            }),
            ..ServerConfig::default()
        }) {
            Ok(handle) => return handle,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not bind {addr}: {e}"),
        }
    }
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The `repl status` body of the backend at `addr`.
fn repl_status(addr: &str) -> String {
    let mut c = Client::connect(addr).unwrap();
    c.request("repl status").unwrap().expect_ok().unwrap()
}

/// Everything export- and query-visible about a session.
fn observable_state(c: &mut Client) -> String {
    let export = c.request("export").unwrap().expect_ok().unwrap();
    let coverage = c.request("show coverage").unwrap().expect_ok().unwrap();
    format!("{export}\n---\n{coverage}")
}

/// The satellite scenario end to end: the successor crashes with a
/// torn record at the tail of its *replica* journal, restarts, heals
/// the tear on reopen, and the source resubscribes from the healed
/// length — record 0 is never re-appended (the sink skips the records
/// it holds), and promotion from the caught-up replica reproduces the
/// source session byte for byte.
#[test]
fn torn_replica_tail_heals_on_sink_restart_and_catchup_is_exact() {
    let store_src = TempDir::new("torn-src");
    let store_sink = TempDir::new("torn-sink");
    let peers = vec![reserve_addr(), reserve_addr()];

    // In a fleet of two, the successor of slot 0 is slot 1 for every
    // session id — no rendezvous gymnastics needed.
    let source = spawn(&peers[0], &store_src.0, &peers, 0, FaultPlan::none());
    // The sink's second replica append (per-point index 1) tears: a
    // prefix of the record reaches disk, then the "machine" dies.
    let torn = FaultSpec::parse("seed=1,journal-torn@1").unwrap().build();
    let sink = spawn(&peers[1], &store_sink.0, &peers, 1, torn);

    let mut c = Client::connect(&peers[0]).unwrap();
    c.session_new(Some("rs")).unwrap();
    c.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    // This commit's replica append is the torn one — the sink still
    // acks it (the tear models a crash *after* the ack was sent), so
    // the source believes the replica holds 2 records.
    c.request_with_heredoc("load er b", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(
        repl_status(&peers[0]).contains("source id=rs seq=2 acked=2 lag=0"),
        "shipping is synchronous with the commit: {}",
        repl_status(&peers[0])
    );

    // Crash the sink before any further append can heal the tear by
    // compaction — the torn bytes are what restart finds on disk.
    sink.kill();
    let sink = spawn(&peers[1], &store_sink.0, &peers, 1, FaultPlan::none());

    // Reopen healed the tail: the torn record 1 and everything the
    // crashed sink wrote after it are gone; only record 0 survives.
    assert!(
        repl_status(&peers[1]).contains("replica id=rs seq=1"),
        "healed replica must hold exactly the clean prefix: {}",
        repl_status(&peers[1])
    );

    // The healed replica still refuses to fork or duplicate history:
    // a redelivered frame of record 0 appends nothing and answers the
    // held length, a frame from the future is refused.
    let mut raw = Client::connect(&peers[1]).unwrap();
    let record = |command: &str, heredoc: Option<&str>| JournalRecord {
        command: command.to_owned(),
        heredoc: heredoc.map(|body| format!("{body}\n")),
    };
    let frame = encode_frame(None, &[record("load er a", Some(SCHEMA_A))]);
    let dup = raw.request_with_bytes("repl range rs 0", &frame).unwrap();
    assert!(
        dup.ok && dup.body == "repl ranged rs have=1 image=0",
        "{}",
        dup.body
    );
    let frame = encode_frame(None, &[record("match a b", None)]);
    let gap = raw.request_with_bytes("repl range rs 7", &frame).unwrap();
    assert!(!gap.ok && gap.body.starts_with("SEQ-GAP"), "{}", gap.body);
    assert!(
        repl_status(&peers[1]).contains("replica id=rs seq=1"),
        "guard probes must not move the replica: {}",
        repl_status(&peers[1])
    );

    // The source's stream socket died with the sink. The next commit's
    // ship fails over it, the one after re-handshakes: the sink
    // reports have=1 and the source re-ships records 1.. — never 0.
    c.request("match a b").unwrap().expect_ok().unwrap(); // ship lost
    c.request(ACCEPT).unwrap().expect_ok().unwrap(); // resubscribe
    wait_until("replica catch-up", Duration::from_secs(5), || {
        repl_status(&peers[1]).contains("replica id=rs seq=4")
    });
    assert!(
        repl_status(&peers[0]).contains("source id=rs seq=4 acked=4 lag=0"),
        "{}",
        repl_status(&peers[0])
    );

    // Promotion fidelity: rebuilding from the caught-up replica yields
    // the same observable session the source serves.
    let expected = observable_state(&mut c);
    let mut on_sink = Client::connect(&peers[1]).unwrap();
    let resp = on_sink.request("repl promote rs 4").unwrap();
    assert!(resp.ok, "promotion from a caught-up replica: {}", resp.body);
    on_sink.session_attach("rs").unwrap();
    assert_eq!(observable_state(&mut on_sink), expected);

    source.shutdown();
    source.join();
    sink.shutdown();
    sink.join();
}

/// `REPL_LAG` skips shipping for one commit (the replica falls one
/// record behind, and `repl status` says so); the next commit's ship
/// drains the backlog.
#[test]
fn repl_lag_fault_shows_in_status_and_heals_at_the_next_commit() {
    let store_src = TempDir::new("lag-src");
    let store_sink = TempDir::new("lag-sink");
    let peers = vec![reserve_addr(), reserve_addr()];

    // The second ship (per-point index 1) skips — commit 2 is not
    // offered to the successor until commit 3 catches it up.
    let lag = FaultSpec::parse("seed=9,repl-lag@1").unwrap().build();
    let source = spawn(&peers[0], &store_src.0, &peers, 0, lag);
    let sink = spawn(&peers[1], &store_sink.0, &peers, 1, FaultPlan::none());

    let mut c = Client::connect(&peers[0]).unwrap();
    c.session_new(Some("lg")).unwrap();
    c.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er b", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(
        repl_status(&peers[0]).contains("source id=lg seq=2 acked=1 lag=1"),
        "the skipped ship must be visible as lag, not hidden: {}",
        repl_status(&peers[0])
    );

    c.request("match a b").unwrap().expect_ok().unwrap();
    assert!(
        repl_status(&peers[0]).contains("source id=lg seq=3 acked=3 lag=0"),
        "the next commit must drain the backlog: {}",
        repl_status(&peers[0])
    );
    assert!(repl_status(&peers[1]).contains("replica id=lg seq=3"));

    source.shutdown();
    source.join();
    sink.shutdown();
    sink.join();
}

/// A mutating line within a few bytes of the owner's line bound reaches
/// the successor before its `ok` returns: the record rides a
/// `repl range` frame, so no longer text line can overflow the sink's
/// own bound and leave the acked record behind until the next commit.
#[test]
fn a_record_at_the_line_bound_is_on_the_successor_when_its_ok_returns() {
    let store_src = TempDir::new("bound-src");
    let store_sink = TempDir::new("bound-sink");
    let peers = vec![reserve_addr(), reserve_addr()];
    let source = spawn(&peers[0], &store_src.0, &peers, 0, FaultPlan::none());
    let sink = spawn(&peers[1], &store_sink.0, &peers, 1, FaultPlan::none());

    let mut c = Client::connect(&peers[0]).unwrap();
    c.session_new(Some("wide")).unwrap();
    let command = format!("load er {}", "n".repeat(65_520));
    let line = format!("{command} <<EOF");
    assert!(line.len() <= MAX_LINE_BYTES && MAX_LINE_BYTES - line.len() < 30);
    c.request_with_heredoc(&command, SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(
        repl_status(&peers[0]).contains("source id=wide seq=1 acked=1 lag=0"),
        "the acked record must already be on the successor: {}",
        repl_status(&peers[0])
    );
    assert!(
        repl_status(&peers[1]).contains("replica id=wide seq=1 "),
        "{}",
        repl_status(&peers[1])
    );

    source.shutdown();
    source.join();
    sink.shutdown();
    sink.join();
}

/// Every acknowledged record is on the successor, with sessions
/// committing side by side: four sessions on one owner, driven in
/// parallel, each make 80 mutations (two loads, then alternating
/// accept and reject). That crosses the 64-record image cadence, so
/// image ships run beside the commits. Each `ok` finds its record
/// acknowledged (`lag=0` for that session), a sampler polling the
/// owner's `repl status` throughout never sees a `source` row lag by
/// more than 4 records, and the successor ends up holding every
/// session's whole history.
#[test]
fn every_acked_record_is_on_the_successor_under_concurrent_sessions() {
    const SESSIONS: usize = 4;
    const MUTATIONS: u64 = 80;
    const LAG_BOUND: u64 = 4;
    let store_src = TempDir::new("acked-src");
    let store_sink = TempDir::new("acked-sink");
    let peers = vec![reserve_addr(), reserve_addr()];
    let source = spawn(&peers[0], &store_src.0, &peers, 0, FaultPlan::none());
    let sink = spawn(&peers[1], &store_sink.0, &peers, 1, FaultPlan::none());
    let owner = peers[0].as_str();
    let reject = ACCEPT.replacen("accept", "reject", 1);

    let (mut samples, mut worst) = (0usize, 0u64);
    std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let reject = reject.as_str();
                scope.spawn(move || {
                    let id = format!("cs{i}");
                    let mut c = Client::connect(owner).unwrap();
                    c.session_new(Some(&id)).unwrap();
                    for n in 1..=MUTATIONS {
                        let resp = match n {
                            1 => c.request_with_heredoc("load er a", SCHEMA_A),
                            2 => c.request_with_heredoc("load er b", SCHEMA_B),
                            n if n % 2 == 1 => c.request(ACCEPT),
                            _ => c.request(reject),
                        };
                        resp.unwrap().expect_ok().unwrap();
                        let want = format!("source id={id} seq={n} acked={n} lag=0");
                        let status = repl_status(owner);
                        assert!(
                            status.lines().any(|row| row == want),
                            "record {n} of {id} must be acked when its ok returns: {status}"
                        );
                    }
                })
            })
            .collect();
        while !drivers.iter().all(|d| d.is_finished()) {
            for row in repl_status(owner).lines() {
                let Some(fields) = row.strip_prefix("source ") else {
                    continue;
                };
                let lag = fields
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix("lag="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("unparsable source row: {row}"));
                samples += 1;
                worst = worst.max(lag);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    assert!(samples > 0, "the sampler must have seen source rows");
    assert!(
        worst <= LAG_BOUND,
        "replication lag reached {worst} records over {samples} samples (bound {LAG_BOUND})"
    );

    let status = repl_status(&peers[1]);
    for i in 0..SESSIONS {
        assert!(
            status.contains(&format!("replica id=cs{i} seq={MUTATIONS} ")),
            "the successor must hold all of cs{i}: {status}"
        );
    }
    // The image committed at record 64 reached the successor too.
    wait_until(
        "every image on the successor",
        Duration::from_secs(10),
        || {
            let status = repl_status(&peers[1]);
            (0..SESSIONS)
                .all(|i| status.contains(&format!("replica id=cs{i} seq={MUTATIONS} image=64")))
        },
    );

    source.shutdown();
    source.join();
    sink.shutdown();
    sink.join();
}
