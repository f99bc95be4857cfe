//! Fleet chaos tests: a live router in front of `workbenchd` backends,
//! each on its **own** store directory. Durability comes from streamed
//! journal replication (`--repl-peers`), and every ownership change is
//! a floor-checked `repl promote` on a successor. Every scenario runs
//! with fixed fault seeds, so a failure reproduces exactly. Covered:
//!
//! * a backend hard-killed while a mutating command is in flight: the
//!   command is acked exactly once through failover, and the promoted
//!   state is byte-identical to a fault-free control run;
//! * an iwb-eval curation replay with the owner killed mid-curation:
//!   per-round metrics, weights and export are byte-identical to the
//!   in-process run;
//! * split routing (the same stamped command delivered to a stale
//!   non-owner) is refused by the backend's sequence guard — the fork
//!   never applies;
//! * probe timeouts quarantine a backend (placements shed with a
//!   retryable error) and sustained probe successes re-admit it;
//! * planned `migrate <id>` with an injected stall: concurrent
//!   commands answer retryable `MOVED`, `Client::reconnect` follows
//!   the hint, and the session lands on the successor intact;
//! * a replica held behind by `repl-disconnect` refuses promotion as
//!   `STALE-REPLICA`, and the router-side `promote-stale` fault forces
//!   one refusal before the next attempt recovers;
//! * a successor that cannot promote never takes the route: the
//!   promotion floor has no way around it;
//! * a router with no route for a session promotes it only when every
//!   backend answered that it is live nowhere — a shedding or down
//!   backend may be the owner, so the attach is told to retry;
//! * an owner that sheds (`RETRY-AFTER`) is retried, never failed over:
//!   only an owner that cannot be reached loses the session;
//! * a closed session is not promoted back: closing it drops the
//!   successor's replica (`repl drop`), so a later attach finds it
//!   nowhere;
//! * failover asks the dead owner's replication successor first, so a
//!   backend restarted on an empty store is not asked ahead of the
//!   replica;
//! * planned draining (`migrate --all`) and router restart
//!   re-discovery: a fresh router rebuilds placement from the
//!   backends' books and does not re-drain already-moved sessions.

use iwb_eval::domains::{generate_case, DomainKnobs, FINANCE};
use iwb_eval::replay::{run_replay, ClientTransport, OracleConfig, ReplayOutcome, ShellTransport};
use iwb_eval::EvalCase;
use iwb_router::router::{serve as serve_router, RouterConfig, RouterCounter, RouterHandle};
use iwb_server::client::{Backoff, Client};
use iwb_server::repl::ReplConfig;
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use iwb_server::stats::ServerCounter;
use iwb_store::fault::{
    FaultPlan, FaultSpec, MIGRATION_STALL, PROBE_TIMEOUT, PROMOTE_STALE, SPLIT_ROUTING,
};
use iwb_store::rendezvous;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SCHEMA_A: &str =
    "entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" }";
const SCHEMA_B: &str =
    "entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" }";
const ACCEPT: &str = "accept a b a/SHIPMENT/ship_dt b/DELIVERY/deliver_dt";

/// A scratch store directory, cleaned on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("iwb-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reserve concrete loopback addresses: the replication peer list must
/// be identical on every backend *before* any of them starts.
fn reserve_addrs(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// One fleet member: its own store directory, replication to its
/// rendezvous successor, no startup sweep (the router promotes each
/// session where it routes it). Retries the bind while a killed
/// predecessor still holds the address.
fn spawn_backend(
    addr: &str,
    store: &Path,
    peers: &[String],
    slot: usize,
    faults: FaultPlan,
) -> ServerHandle {
    spawn_backend_imaging(addr, store, peers, slot, faults, 64)
}

/// [`spawn_backend`] taking an image every `snapshot_every` records.
fn spawn_backend_imaging(
    addr: &str,
    store: &Path,
    peers: &[String],
    slot: usize,
    faults: FaultPlan,
    snapshot_every: u64,
) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match serve(ServerConfig {
            addr: addr.to_owned(),
            store_dir: Some(store.to_path_buf()),
            snapshot_every,
            recover: false,
            faults: faults.clone(),
            repl: Some(ReplConfig {
                peers: peers.to_vec(),
                self_index: slot,
            }),
            ..ServerConfig::default()
        }) {
            Ok(handle) => return handle,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("could not bind {addr}: {e}"),
        }
    }
}

/// A replicated fleet of `n` backends, each on its own store.
fn spawn_fleet(
    tag: &str,
    n: usize,
    faults_for: impl Fn(usize) -> FaultPlan,
) -> (Vec<String>, Vec<TempDir>, Vec<Option<ServerHandle>>) {
    spawn_imaging_fleet(tag, n, 64, faults_for)
}

/// [`spawn_fleet`] with every backend taking an image every
/// `snapshot_every` records.
fn spawn_imaging_fleet(
    tag: &str,
    n: usize,
    snapshot_every: u64,
    faults_for: impl Fn(usize) -> FaultPlan,
) -> (Vec<String>, Vec<TempDir>, Vec<Option<ServerHandle>>) {
    let peers = reserve_addrs(n);
    let stores: Vec<TempDir> = (0..n).map(|i| TempDir::new(&format!("{tag}{i}"))).collect();
    let backends = (0..n)
        .map(|i| {
            Some(spawn_backend_imaging(
                &peers[i],
                &stores[i].0,
                &peers,
                i,
                faults_for(i),
                snapshot_every,
            ))
        })
        .collect();
    (peers, stores, backends)
}

fn spawn_router(peers: &[String], config: RouterConfig) -> RouterHandle {
    serve_router(RouterConfig {
        backends: peers.to_vec(),
        ..config
    })
    .expect("bind router")
}

/// Shut the router and every surviving backend down.
fn stop(router: RouterHandle, backends: Vec<Option<ServerHandle>>) {
    router.shutdown();
    router.join();
    for b in backends.into_iter().flatten() {
        b.shutdown();
        b.join();
    }
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Everything export- and query-visible about a session, for
/// byte-identical comparison across a failover.
fn observable_state(c: &mut Client) -> String {
    let export = c.request("export").unwrap().expect_ok().unwrap();
    let coverage = c.request("show coverage").unwrap().expect_ok().unwrap();
    format!("{export}\n---\n{coverage}")
}

/// Load two schemas and match them (3 mutating commands).
fn warm(c: &mut Client) {
    c.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er b", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request("match a b").unwrap().expect_ok().unwrap();
}

fn small_case() -> EvalCase {
    let knobs = DomainKnobs {
        entities: 5,
        attrs_per_entity: 3.0,
        ..iwb_eval::default_knobs(&FINANCE)
    };
    generate_case(&FINANCE, &knobs, 90210)
}

/// Per-round tuples for bitwise comparison across transports.
fn round_bits(outcome: &ReplayOutcome) -> Vec<(usize, usize, usize, u64, u64)> {
    outcome
        .rounds
        .iter()
        .map(|r| {
            (
                r.accepted,
                r.rejected,
                r.noisy_accepts,
                r.metrics.f1().to_bits(),
                r.max_weight_delta.to_bits(),
            )
        })
        .collect()
}

/// A line-protocol stand-in for a backend: `reply` maps each received
/// line to a whole framed reply (`ok N` / `err N` plus N body lines). It
/// records every line it receives and serves one connection at a time.
struct FakeBackend {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<String>>,
}

impl FakeBackend {
    fn spawn(addr: &str, reply: impl Fn(&str) -> String + Send + 'static) -> FakeBackend {
        let listener = TcpListener::bind(addr).expect("bind fake backend");
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut lines = Vec::new();
            while !stopping.load(Ordering::SeqCst) {
                let Ok((stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                };
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let framed = reply(&line);
                    lines.push(line);
                    if writer.write_all(framed.as_bytes()).is_err() {
                        break;
                    }
                }
            }
            lines
        });
        FakeBackend { stop, thread }
    }

    /// Stop serving and return every line received, in order.
    fn stop(self) -> Vec<String> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("fake backend thread")
    }
}

/// `ok` to `probe`, so the router counts the fake as healthy.
fn probe_ok(line: &str) -> Option<String> {
    (line == "probe").then(|| "ok 1\nready sessions=0\n".to_owned())
}

#[test]
fn killed_backend_mid_command_fails_over_with_zero_session_loss() {
    iwb_server::quiet_injected_panics();
    let owner = rendezvous::rank("victim", 3)[0];
    // Every command on the victim runs slow, so the kill lands while
    // the accept is mid-execution and its ack is provably lost.
    let slow = FaultSpec::parse("seed=11,exec-slow=1.0:250")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("kill", 3, |i| {
        if i == owner {
            slow.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());

    // Control: the same script against a fault-free single daemon.
    let (_, _control_store, control) = spawn_fleet("kill-control", 1, |_| FaultPlan::none());
    let expected = {
        let mut c = Client::connect(control[0].as_ref().unwrap().addr()).unwrap();
        c.session_new(Some("victim")).unwrap();
        warm(&mut c);
        c.request(ACCEPT).unwrap().expect_ok().unwrap();
        observable_state(&mut c)
    };
    for b in control.into_iter().flatten() {
        b.shutdown();
        b.join();
    }

    // A bystander session owned by a *different* backend must ride
    // through the kill untouched.
    let bystander = (0..)
        .map(|i| format!("by{i}"))
        .find(|id| rendezvous::rank(id, 3)[0] != owner)
        .unwrap();
    let mut by = Client::connect(router.addr()).unwrap();
    by.session_new(Some(&bystander)).unwrap();
    by.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("victim")).unwrap();
    warm(&mut c);
    assert_eq!(
        router.fleet().routed_backend("victim"),
        Some(owner),
        "rendezvous placement must pick the top-ranked backend"
    );

    // Fire the mutating command, kill the owner mid-execution.
    let in_flight = std::thread::spawn(move || c.request(ACCEPT).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    backends[owner].take().unwrap().kill();

    let resp = in_flight.join().unwrap();
    assert!(
        resp.ok,
        "in-flight command must be acked exactly once through failover: {}",
        resp.body
    );
    assert!(router.stats().failovers_count() >= 1);
    let landed = router.fleet().routed_backend("victim").unwrap();
    assert_eq!(
        landed,
        rendezvous::rank("victim", 3)[1],
        "failover must promote the session's own second choice"
    );

    // Zero loss, byte-identical: the promoted state matches the
    // fault-free control run exactly.
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_attach("victim").unwrap();
    assert_eq!(observable_state(&mut c), expected);

    // The bystander neither moved nor lost state.
    let mut by2 = Client::connect(router.addr()).unwrap();
    by2.session_attach(&bystander).unwrap();
    by2.request("show coverage").unwrap().expect_ok().unwrap();
    assert_ne!(router.fleet().routed_backend(&bystander), Some(owner));

    stop(router, backends);
}

#[test]
fn curation_replay_survives_a_mid_run_backend_kill_byte_identically() {
    iwb_server::quiet_injected_panics();
    let case = small_case();
    let cfg = OracleConfig {
        rounds: 3,
        noise: 0.1,
        ..OracleConfig::default()
    };

    // The in-process control run: ground truth for every round.
    let mut control = ShellTransport::new();
    let expected = run_replay(&mut control, &case, &cfg).expect("control replay");
    // trim_end: the wire protocol frames bodies line-wise, so the
    // client side never sees the shell's trailing newline.
    let expected_export = control
        .shell
        .execute("export", None)
        .expect("export")
        .trim_end()
        .to_owned();

    // The owner of the curation session runs every command slow so the
    // kill provably lands mid-curation.
    let owner = rendezvous::rank("cur", 3)[0];
    let slow = FaultSpec::parse("seed=21,exec-slow=1.0:40")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("replay", 3, |i| {
        if i == owner {
            slow.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());
    let router_addr = router.addr();

    let replay = std::thread::spawn(move || {
        let mut c = Client::connect(router_addr).unwrap();
        c.session_new(Some("cur")).unwrap();
        let outcome = run_replay(&mut ClientTransport(&mut c), &case, &cfg).expect("fleet replay");
        let export = c.request("export").unwrap().expect_ok().unwrap();
        (outcome, export.trim_end().to_owned())
    });

    // Kill the owner while the oracle is mid-session (~40ms per
    // command guarantees the replay is still far from done).
    std::thread::sleep(Duration::from_millis(500));
    backends[owner].take().unwrap().kill();

    let (outcome, export) = replay.join().unwrap();
    assert_eq!(
        round_bits(&outcome),
        round_bits(&expected),
        "per-round metrics must survive the failover bit for bit"
    );
    assert_eq!(outcome.rounds_to_plateau, expected.rounds_to_plateau);
    assert_eq!(
        outcome.weights, expected.weights,
        "voter weights must survive the failover"
    );
    assert_eq!(export, expected_export, "exported state diverged");

    assert!(router.stats().failovers_count() >= 1);
    assert!(
        router.stats().promotions_count() >= 1,
        "failover must promote from the streamed replica"
    );
    assert_eq!(router.stats().stale_replica_refusals_count(), 0);
    let landed = router.fleet().routed_backend("cur").unwrap();
    assert_ne!(landed, owner, "route must flip off the killed backend");

    stop(router, backends);
}

#[test]
fn split_routing_is_rejected_by_the_sequence_guard() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("split", 2, |_| FaultPlan::none());
    let owner = rendezvous::rank("sp", 2)[0];
    let other = 1 - owner;
    // The 6th mutating command (per-point index 5) is delivered to the
    // stale non-owner as well as the owner.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(7).at(SPLIT_ROUTING, &[5]).build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("sp")).unwrap();
    warm(&mut c); // mutating commands 0..3 → seq 3

    // Fork a stale copy: promote the non-owner's replica directly,
    // behind the router's back, frozen at seq 3.
    let mut stale = Client::connect(peers[other].as_str()).unwrap();
    let body = stale
        .request("repl promote sp 0")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(body.ends_with("seq=3"), "stale copy watermark: {body}");

    // Two more mutations through the router (owner reaches seq 5),
    // then the diverted one (stamped @5; the stale copy expects 3).
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    c.request("match a b").unwrap().expect_ok().unwrap();
    let resp = c.request("match a b").unwrap();
    assert!(resp.ok, "pinned owner must still apply it: {}", resp.body);

    assert_eq!(router.stats().counters.get(RouterCounter::SplitDiverts), 1);
    assert!(
        router.stats().counters.get(RouterCounter::SeqGapRejections) >= 1,
        "the stale copy must refuse the diverted command with SEQ-GAP"
    );

    // Exactly-once: the owner applied all 6 mutations, the stale copy
    // applied none past its promotion point.
    let mut on_owner = Client::connect(peers[owner].as_str()).unwrap();
    let body = on_owner.session_attach("sp").unwrap();
    assert!(body.ends_with("seq=6"), "owner watermark: {body}");
    let mut on_other = Client::connect(peers[other].as_str()).unwrap();
    let body = on_other.session_attach("sp").unwrap();
    assert!(body.ends_with("seq=3"), "stale watermark: {body}");

    stop(router, backends);
}

#[test]
fn probe_timeouts_quarantine_then_readmit_a_backend() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("probe", 1, |_| FaultPlan::none());
    // The first 10 probes are swallowed; everything after succeeds.
    let router = spawn_router(
        &peers,
        RouterConfig {
            probe_interval: Duration::from_millis(40),
            quarantine_after: 2,
            readmit_after: 2,
            retry: Backoff {
                attempts: 2,
                base: Duration::from_millis(10),
                max: Duration::from_millis(20),
                seed: 0x9,
                cap: None,
            },
            faults: FaultSpec::seeded(5)
                .at(PROBE_TIMEOUT, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
                .build(),
            ..RouterConfig::default()
        },
    );

    wait_until("quarantine", Duration::from_secs(5), || {
        !router.fleet().backend_healthy(0)
    });
    assert!(router.stats().counters.get(RouterCounter::Quarantines) >= 1);

    // While the whole fleet is quarantined, placement sheds with a
    // retryable error — the client is told to come back, not failed.
    let mut c = Client::connect(router.addr()).unwrap();
    let resp = c.request("session new q1").unwrap();
    assert!(!resp.ok);
    let err = iwb_core::RetryableError::parse(&resp.body)
        .unwrap_or_else(|| panic!("shed must be structured/retryable: {}", resp.body));
    assert!(err.is_retryable());

    wait_until("re-admission", Duration::from_secs(5), || {
        router.fleet().backend_healthy(0)
    });
    assert!(router.stats().counters.get(RouterCounter::Readmissions) >= 1);
    c.session_new(Some("q1")).unwrap();

    stop(router, backends);
}

#[test]
fn planned_migration_stalls_answer_moved_and_reconnect_follows() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("migrate", 2, |_| FaultPlan::none());
    let owner = rendezvous::rank("mig", 2)[0];
    // The first migration stalls 700ms between release and promote —
    // long enough that concurrent commands exhaust the route-lock
    // budget and answer MOVED.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(3)
                .at(MIGRATION_STALL, &[0])
                .millis(MIGRATION_STALL, 700)
                .build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("mig")).unwrap();
    warm(&mut c);
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    let before = observable_state(&mut c);

    let mut admin = Client::connect(router.addr()).unwrap();
    let migration = std::thread::spawn(move || admin.request("migrate mig").unwrap());
    std::thread::sleep(Duration::from_millis(150));

    // Mid-handshake: the command times out on the route lock and gets
    // a retryable MOVED, not a hang and not a wrong answer.
    let resp = c.request("export").unwrap();
    assert!(!resp.ok);
    assert!(
        resp.body.starts_with("MOVED"),
        "expected a MOVED refusal mid-migration, got: {}",
        resp.body
    );
    assert!(router.stats().counters.get(RouterCounter::MovedRefusals) >= 1);

    // Reconnect follows the hint with backoff until the migration
    // lands, then re-attaches idempotently.
    c.reconnect(&Backoff {
        attempts: 20,
        base: Duration::from_millis(50),
        max: Duration::from_millis(200),
        seed: 0x717,
        cap: None,
    })
    .unwrap();

    let resp = migration.join().unwrap();
    assert!(resp.ok, "migration must land: {}", resp.body);
    assert!(resp.body.contains("migrated"), "{}", resp.body);
    assert_eq!(router.stats().counters.get(RouterCounter::Migrations), 1);
    assert_eq!(
        router.fleet().routed_backend("mig"),
        Some(1 - owner),
        "the session must land on the other backend"
    );
    assert_eq!(
        observable_state(&mut c),
        before,
        "migration must preserve the session byte-for-byte"
    );

    stop(router, backends);
}

#[test]
fn a_replica_held_behind_by_disconnects_refuses_promotion_as_stale() {
    iwb_server::quiet_injected_panics();
    let owner = rendezvous::rank("st", 2)[0];
    // Every ship from the owner drops the stream before sending: the
    // successor's standby journal never receives a single record.
    let cut = FaultSpec::parse("seed=5,repl-disconnect=1.0")
        .unwrap()
        .build();
    let (peers, _stores, mut backends) = spawn_fleet("stale", 2, |i| {
        if i == owner {
            cut.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("st")).unwrap();
    warm(&mut c); // 3 acked mutations the replica never saw

    backends[owner].take().unwrap().kill();

    // The failover walk finds the successor, but its evidence is
    // provably behind the last acked mutation: the router surfaces the
    // refusal instead of serving an empty session as if it were real.
    let resp = c.request("export").unwrap();
    assert!(!resp.ok, "a stale promotion must not ack: {}", resp.body);
    assert!(
        resp.body.starts_with("STALE-REPLICA"),
        "expected the structured refusal, got: {}",
        resp.body
    );
    assert!(router.stats().stale_replica_refusals_count() >= 1);
    assert_eq!(
        router.stats().promotions_count(),
        0,
        "nothing may be promoted from a stale replica"
    );

    // Still refused on re-attach — the refusal is sticky, not racy.
    let mut again = Client::connect(router.addr()).unwrap();
    let resp = again.request("session attach st").unwrap();
    assert!(
        !resp.ok && resp.body.starts_with("STALE-REPLICA"),
        "{}",
        resp.body
    );

    stop(router, backends);
}

#[test]
fn promote_stale_fault_forces_one_deterministic_refusal_then_recovers() {
    iwb_server::quiet_injected_panics();
    let owner = rendezvous::rank("ps", 2)[0];
    let (peers, _stores, mut backends) = spawn_fleet("pstale", 2, |_| FaultPlan::none());
    // The router's *first* promotion safety check is forced down the
    // STALE-REPLICA path even though the replica is fully caught up.
    let router = spawn_router(
        &peers,
        RouterConfig {
            faults: FaultSpec::seeded(13).at(PROMOTE_STALE, &[0]).build(),
            ..RouterConfig::default()
        },
    );

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("ps")).unwrap();
    warm(&mut c);
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    let before = {
        let mut direct = Client::connect(router.addr()).unwrap();
        direct.session_attach("ps").unwrap();
        observable_state(&mut direct)
    };

    backends[owner].take().unwrap().kill();

    // First command after the kill: the injected check refuses.
    let resp = c.request("export").unwrap();
    assert!(
        !resp.ok && resp.body.starts_with("STALE-REPLICA"),
        "{}",
        resp.body
    );
    assert_eq!(router.stats().stale_replica_refusals_count(), 1);

    // The refusal is evidence-scoped, not terminal: the next attempt
    // re-runs the un-faulted check and promotes the current replica.
    let resp = c.request("export").unwrap();
    assert!(resp.ok, "recovery after the forced refusal: {}", resp.body);
    assert!(router.stats().promotions_count() >= 1);
    assert_eq!(
        observable_state(&mut c),
        before,
        "promoted state must match the pre-kill session byte for byte"
    );

    stop(router, backends);
}

#[test]
fn a_successor_that_cannot_promote_never_takes_the_route() {
    iwb_server::quiet_injected_panics();
    let peers = reserve_addrs(2);
    let owner = rendezvous::rank("w0", 2)[0];
    // Healthy, but answers every promotion with RETRY-AFTER.
    let fake = FakeBackend::spawn(&peers[1 - owner], |line| {
        probe_ok(line).unwrap_or_else(|| {
            if line.starts_with("repl promote ") {
                "err 1\nRETRY-AFTER 100ms: promotion unavailable\n".to_owned()
            } else {
                "ok 0\n".to_owned()
            }
        })
    });
    let store = TempDir::new("floor");
    let backend = spawn_backend(&peers[owner], &store.0, &peers, owner, FaultPlan::none());
    let router = spawn_router(&peers, RouterConfig::default());

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("w0")).unwrap();
    warm(&mut c);
    c.request(ACCEPT).unwrap().expect_ok().unwrap(); // 4 acked mutations

    backend.kill();

    // The next mutation is stamped @4. The only successor answers the
    // floor-checked promotion with RETRY-AFTER, so nothing may serve
    // the session: the client gets a retryable refusal, not an ack.
    let resp = c.request("match a b").unwrap();
    assert!(!resp.ok, "no backend proved seq 4: {}", resp.body);
    assert!(
        iwb_core::RetryableError::parse(&resp.body).is_some_and(|e| e.is_retryable()),
        "{}",
        resp.body
    );
    assert_eq!(
        router.fleet().routed_backend("w0"),
        Some(owner),
        "the route must not flip to a backend that never promoted"
    );
    assert_eq!(router.stats().promotions_count(), 0);

    router.shutdown();
    router.join();
    let lines = fake.stop();
    assert!(
        lines.iter().any(|l| l == "repl promote w0 4"),
        "the walk must ask the successor at the floor: {lines:?}"
    );
    assert!(
        !lines
            .iter()
            .any(|l| l.starts_with("session attach") || l.starts_with('@')),
        "a successor that never promoted must never serve the session: {lines:?}"
    );
}

#[test]
fn a_route_miss_never_promotes_past_a_backend_that_cannot_answer() {
    iwb_server::quiet_injected_panics();
    let peers = reserve_addrs(2);
    // Slot 0 is alive but sheds every request — it may be the owner of
    // any session. Slot 1 holds a replica of everything and would
    // promote it at floor 0.
    let shedding = FakeBackend::spawn(&peers[0], |_| {
        "err 1\nRETRY-AFTER 100ms: shedding\n".to_owned()
    });
    let holder = FakeBackend::spawn(&peers[1], |line| {
        probe_ok(line).unwrap_or_else(|| {
            if let Some(id) = line.strip_prefix("session attach ") {
                format!("err 1\nno session {id:?}\n")
            } else if let Some(rest) = line.strip_prefix("repl promote ") {
                let id = rest.split(' ').next().unwrap_or_default();
                format!("ok 1\nsession {id} promoted seq=3\n")
            } else {
                "ok 0\n".to_owned()
            }
        })
    });
    let router = spawn_router(&peers, RouterConfig::default());
    // This router never saw either session: one ranks the shedding
    // backend first, the other ranks it second.
    let ids: Vec<String> = [0, 1]
        .iter()
        .map(|&first| {
            (0..)
                .map(|i| format!("m{i}"))
                .find(|id| rendezvous::rank(id, 2)[0] == first)
                .unwrap()
        })
        .collect();
    let attach_is_retryable = |id: &str| {
        let mut c = Client::connect(router.addr()).unwrap();
        let resp = c.request(&format!("session attach {id}")).unwrap();
        assert!(
            !resp.ok,
            "{id}: attached past a silent backend: {}",
            resp.body
        );
        assert!(
            iwb_core::RetryableError::parse(&resp.body).is_some_and(|e| e.is_retryable()),
            "{id}: {}",
            resp.body
        );
        assert_eq!(router.fleet().routed_backend(id), None, "{id} got a route");
    };
    for id in &ids {
        attach_is_retryable(id);
    }

    // The shedding backend disappears and is quarantined: a backend
    // that is down may be the owner just as well.
    shedding.stop();
    wait_until("quarantine", Duration::from_secs(5), || {
        !router.fleet().backend_healthy(0)
    });
    for id in &ids {
        attach_is_retryable(id);
    }
    assert_eq!(router.stats().promotions_count(), 0);

    router.shutdown();
    router.join();
    let lines = holder.stop();
    assert!(
        lines.iter().any(|l| l.starts_with("session attach ")),
        "the live search must ask the holder: {lines:?}"
    );
    assert!(
        !lines.iter().any(|l| l.starts_with("repl promote ")),
        "the holder must never be asked to promote: {lines:?}"
    );
}

#[test]
fn a_shedding_owner_is_retried_not_failed_over() {
    let peers = reserve_addrs(2);
    let id = "busy";
    let owner = rendezvous::rank(id, 2)[0];
    // The owner placed the session and stays alive, but sheds every
    // attach and release from then on: failing it over would leave it
    // a live copy beside the promoted one.
    let owner_fake = FakeBackend::spawn(&peers[owner], |line| {
        probe_ok(line).unwrap_or_else(|| match line.strip_prefix("session new ") {
            Some(id) => format!("ok 1\nsession {id} created (attached)\n"),
            None => "err 1\nRETRY-AFTER 100ms: shedding\n".to_owned(),
        })
    });
    // The successor would promote and serve anything it is asked to.
    let successor = FakeBackend::spawn(&peers[1 - owner], |line| {
        probe_ok(line).unwrap_or_else(|| {
            if let Some(rest) = line.strip_prefix("repl promote ") {
                let id = rest.split(' ').next().unwrap_or_default();
                format!("ok 1\nsession {id} promoted seq=0\n")
            } else if let Some(id) = line.strip_prefix("session attach ") {
                format!("ok 1\nsession {id} attached seq=0\n")
            } else {
                "ok 1\nserved by the successor\n".to_owned()
            }
        })
    });
    let router = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some(id)).unwrap();
    assert_eq!(router.fleet().routed_backend(id), Some(owner));
    let is_retryable =
        |body: &str| iwb_core::RetryableError::parse(body).is_some_and(|e| e.is_retryable());

    // A route hit whose owner sheds the attach.
    let mut other = Client::connect(router.addr()).unwrap();
    let resp = other.request(&format!("session attach {id}")).unwrap();
    assert!(!resp.ok && is_retryable(&resp.body), "{}", resp.body);
    // A command whose upstream connection broke (the fake drops it
    // once idle) re-dials the owner, which sheds it too.
    let resp = c.request("show coverage").unwrap();
    assert!(!resp.ok && is_retryable(&resp.body), "{}", resp.body);

    assert_eq!(router.stats().failovers_count(), 0);
    assert_eq!(router.stats().promotions_count(), 0);
    assert_eq!(router.fleet().routed_backend(id), Some(owner));
    router.shutdown();
    router.join();
    let attaches = owner_fake
        .stop()
        .iter()
        .filter(|l| l.starts_with("session attach "))
        .count();
    assert!(
        attaches > 2,
        "the owner must be retried: {attaches} attach(es)"
    );
    let lines = successor.stop();
    assert!(
        !lines.iter().any(|l| l.starts_with("repl promote ")),
        "the successor must never be asked to promote: {lines:?}"
    );
}

#[test]
fn a_route_miss_promotes_a_session_live_nowhere_once_every_backend_answers() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("miss", 2, |_| FaultPlan::none());
    let owner = rendezvous::rank("rm", 2)[0];
    let router = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("rm")).unwrap();
    warm(&mut c);
    let before = observable_state(&mut c);
    drop(c);
    router.shutdown();
    router.join();

    // Released (as by an aborted migration whose promote-back was
    // lost): persisted on the owner, replicated to the other backend,
    // live on neither.
    let mut direct = Client::connect(peers[owner].as_str()).unwrap();
    let body = direct
        .request("session release rm")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert!(body.ends_with("seq=3"), "{body}");

    // A fresh router has no route and finds it live nowhere. Both
    // backends answer, so it promotes on the first ranked one.
    let fresh = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(fresh.addr()).unwrap();
    let body = c.session_attach("rm").unwrap();
    assert!(body.ends_with("seq=3"), "{body}");
    assert_eq!(fresh.fleet().routed_backend("rm"), Some(owner));
    assert_eq!(fresh.stats().promotions_count(), 1);
    assert_eq!(observable_state(&mut c), before);

    // An id no backend accepts is answered as absent, not retried.
    let resp = c.request("session attach no/such").unwrap();
    assert_eq!(
        (resp.ok, resp.body.as_str()),
        (false, "no session \"no/such\"")
    );

    stop(fresh, backends);
}

#[test]
fn a_closed_session_is_not_promoted_back() {
    let (peers, _stores, backends) = spawn_fleet("closed", 2, |_| FaultPlan::none());
    let successor = rendezvous::rank("cz", 2)[1];
    let router = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("cz")).unwrap();
    warm(&mut c);
    let mut direct = Client::connect(peers[successor].as_str()).unwrap();
    let status = direct.request("repl status").unwrap().expect_ok().unwrap();
    assert!(status.contains("replica id=cz seq=3"), "{status}");

    c.request("session close cz").unwrap().expect_ok().unwrap();
    // The route is gone and the session is live nowhere, so the attach
    // walks the promotion path: nothing may be left to promote.
    let resp = c.request("session attach cz").unwrap();
    assert_eq!((resp.ok, resp.body.as_str()), (false, "no session \"cz\""));
    assert_eq!(router.stats().promotions_count(), 0);
    let status = direct.request("repl status").unwrap().expect_ok().unwrap();
    assert!(!status.contains("replica id=cz"), "{status}");

    stop(router, backends);
}

#[test]
fn failover_asks_the_dead_owners_replication_successor_first() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, mut backends) = spawn_fleet("walk", 3, |_| FaultPlan::none());
    let router = spawn_router(&peers, RouterConfig::default());
    let order = rendezvous::rank("wk", 3);

    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("wk")).unwrap();
    warm(&mut c);

    // First failover: rank[0] dies, rank[1] promotes its replica and
    // from then on streams the session to rank[2].
    backends[order[0]].take().unwrap().kill();
    c.request(ACCEPT).unwrap().expect_ok().unwrap();
    assert_eq!(router.fleet().routed_backend("wk"), Some(order[1]));
    let before = observable_state(&mut c);

    // rank[0] comes back on an empty store and is re-admitted.
    let empty = TempDir::new("walk-empty");
    backends[order[0]] = Some(spawn_backend(
        &peers[order[0]],
        &empty.0,
        &peers,
        order[0],
        FaultPlan::none(),
    ));
    wait_until("re-admission", Duration::from_secs(5), || {
        router.fleet().backend_healthy(order[0])
    });

    // Second failover: rank[1] dies. Its replication successor is
    // rank[2]; the empty rank[0] must not be asked first.
    backends[order[1]].take().unwrap().kill();
    assert_eq!(observable_state(&mut c), before);
    assert_eq!(router.fleet().routed_backend("wk"), Some(order[2]));
    assert_eq!(router.stats().promotions_count(), 2);
    assert_eq!(
        router.stats().stale_replica_refusals_count(),
        0,
        "the restarted empty backend was asked ahead of the replica"
    );

    stop(router, backends);
}

#[test]
fn drain_then_router_restart_rediscovers_placement_without_redraining() {
    iwb_server::quiet_injected_panics();
    let (peers, _stores, backends) = spawn_fleet("drain", 3, |_| FaultPlan::none());
    let router = spawn_router(
        &peers,
        RouterConfig {
            drain_interval: Duration::from_millis(1),
            ..RouterConfig::default()
        },
    );

    // Two sessions owned by backend 0 (the drain target) and one owned
    // elsewhere, found by scanning ids against the rendezvous ranking.
    let mut on_zero = Vec::new();
    let mut elsewhere = None;
    for i in 0.. {
        let id = format!("s{i}");
        if rendezvous::rank(&id, 3)[0] == 0 {
            if on_zero.len() < 2 {
                on_zero.push(id);
            }
        } else if elsewhere.is_none() {
            elsewhere = Some(id);
        }
        if on_zero.len() == 2 && elsewhere.is_some() {
            break;
        }
    }
    let elsewhere = elsewhere.unwrap();

    let mut states = std::collections::HashMap::new();
    for id in on_zero.iter().chain([&elsewhere]) {
        let mut c = Client::connect(router.addr()).unwrap();
        c.session_new(Some(id)).unwrap();
        warm(&mut c);
        states.insert(id.clone(), observable_state(&mut c));
    }
    assert_eq!(router.fleet().routed_backend(&on_zero[0]), Some(0));

    // Planned drain: every session leaves backend 0, none is lost.
    let mut admin = Client::connect(router.addr()).unwrap();
    let resp = admin.request("migrate --all 0").unwrap();
    assert!(resp.ok, "drain must succeed: {}", resp.body);
    assert!(
        resp.body.contains("drained 2/2 session(s) from backend 0"),
        "{}",
        resp.body
    );
    assert_eq!(router.stats().counters.get(RouterCounter::Drained), 2);
    for id in &on_zero {
        assert_ne!(
            router.fleet().routed_backend(id),
            Some(0),
            "{id} not drained"
        );
    }
    let parked = router.fleet().routed_backend(&elsewhere);

    // The router "crashes" (no handoff of its placement map) and a
    // fresh one starts against the same fleet: re-discovery rebuilds
    // placement from the backends' own session books, so the drained
    // sessions are NOT re-placed onto their hash owner.
    router.shutdown();
    router.join();
    let restarted = spawn_router(
        &peers,
        RouterConfig {
            drain_interval: Duration::from_millis(1),
            ..RouterConfig::default()
        },
    );
    assert!(
        restarted.stats().counters.get(RouterCounter::Rediscovered) >= 3,
        "restart must pin the live sessions it finds"
    );
    for id in &on_zero {
        assert_ne!(
            restarted.fleet().routed_backend(id),
            Some(0),
            "{id} must stay where the drain put it"
        );
    }
    assert_eq!(restarted.fleet().routed_backend(&elsewhere), parked);

    // Resumability: re-issuing the drain moves nothing — the already
    // drained sessions are recognized, not bounced a second time.
    let mut admin = Client::connect(restarted.addr()).unwrap();
    let resp = admin.request("migrate --all 0").unwrap();
    assert!(resp.ok, "{}", resp.body);
    assert!(
        resp.body.contains("drained 0/0 session(s) from backend 0"),
        "{}",
        resp.body
    );

    // Every session still serves its exact pre-drain state.
    for (id, before) in &states {
        let mut c = Client::connect(restarted.addr()).unwrap();
        c.session_attach(id).unwrap();
        assert_eq!(&observable_state(&mut c), before, "{id} state drifted");
    }

    stop(restarted, backends);
}

// ---- images: restore, don't replay ----

/// Five decisions over the warmed pair (8 mutations in all with
/// [`warm`]): accept and reject every cell of the 2 × 2 matrix.
const DECISIONS: [&str; 5] = [
    ACCEPT,
    "reject a b a/SHIPMENT b/DELIVERY/deliver_dt",
    "reject a b a/SHIPMENT/ship_dt b/DELIVERY",
    "accept a b a/SHIPMENT b/DELIVERY",
    "match a b",
];

fn repl_status(addr: &str) -> String {
    Client::connect(addr)
        .unwrap()
        .request("repl status")
        .unwrap()
        .expect_ok()
        .unwrap()
}

/// The `image=` watermark of `id`'s standby row on `addr` (0: none).
fn standby_image(addr: &str, id: &str) -> Option<(u64, u64)> {
    let status = repl_status(addr);
    let row = status
        .lines()
        .find(|l| l.starts_with(&format!("replica id={id} ")))?;
    let field = |key: &str| {
        row.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    Some((field("seq=")?, field("image=")?))
}

#[test]
fn a_warm_promotion_restores_the_image_and_replays_less_than_the_cadence() {
    const EVERY: u64 = 4;
    let order = rendezvous::rank("wp", 3);
    let (peers, _stores, mut backends) =
        spawn_imaging_fleet("warm-promote", 3, EVERY, |_| FaultPlan::none());
    let router = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("wp")).unwrap();
    warm(&mut c);
    for decision in DECISIONS {
        c.request(decision).unwrap().expect_ok().unwrap();
    }
    let before = observable_state(&mut c);
    // The owner's image at 8 reaches the successor in the background.
    wait_until(
        "the image reaching the successor",
        Duration::from_secs(10),
        || standby_image(&peers[order[1]], "wp") == Some((8, 8)),
    );

    backends[order[0]].take().unwrap().kill();
    assert_eq!(
        observable_state(&mut c),
        before,
        "promoted state is byte-identical"
    );
    let stats = backends[order[1]].as_ref().unwrap().stats();
    assert_eq!(stats.counters.get(ServerCounter::ImagesRestored), 1);
    assert!(
        stats.counters.get(ServerCounter::CommandsReplayed) < EVERY,
        "a warm promotion replays only the suffix past the image"
    );
    let rendered = stats.render(1, &Default::default());
    for stage in ["promote.restore", "promote.replay", "promote.ship"] {
        assert!(rendered.contains(&format!("{stage} count=1")), "{rendered}");
    }
    stop(router, backends);
}

#[test]
fn the_new_successor_holds_an_image_as_soon_as_promote_answers() {
    // A first promotion before any image (3 records, cadence 64): the
    // promotion captures one and ships it with the suffix in one frame.
    let order = rendezvous::rank("cold", 3);
    let (peers, _stores, mut backends) = spawn_fleet("cold-promote", 3, |_| FaultPlan::none());
    let mut c = Client::connect(&peers[order[0]]).unwrap();
    c.session_new(Some("cold")).unwrap();
    warm(&mut c);
    let before = observable_state(&mut c);
    assert_eq!(standby_image(&peers[order[1]], "cold"), Some((3, 0)));
    backends[order[0]].take().unwrap().kill();

    let mut s = Client::connect(&peers[order[1]]).unwrap();
    let reply = s
        .request("repl promote cold 3")
        .unwrap()
        .expect_ok()
        .unwrap();
    assert_eq!(reply, "session cold promoted seq=3");
    // No waiting: the frame went out before the promotion answered.
    assert_eq!(standby_image(&peers[order[2]], "cold"), Some((3, 3)));
    s.session_attach("cold").unwrap();
    assert_eq!(observable_state(&mut s), before);
    stop(spawn_router(&peers, RouterConfig::default()), backends);
}

#[test]
fn an_image_and_suffix_below_the_floor_still_answer_stale_replica() {
    use iwb_store::fault::REPL_LAG;
    let owner = rendezvous::rank("sf", 2)[0];
    // The third commit's ship is skipped: the successor holds the image
    // at 2 and nothing past it.
    let lag = FaultSpec::seeded(3).at(REPL_LAG, &[2]).build();
    let (peers, _stores, mut backends) = spawn_imaging_fleet("stale-image", 2, 2, |i| {
        if i == owner {
            lag.clone()
        } else {
            FaultPlan::none()
        }
    });
    let router = spawn_router(&peers, RouterConfig::default());
    let mut c = Client::connect(router.addr()).unwrap();
    c.session_new(Some("sf")).unwrap();
    c.request_with_heredoc("load er a", SCHEMA_A)
        .unwrap()
        .expect_ok()
        .unwrap();
    c.request_with_heredoc("load er b", SCHEMA_B)
        .unwrap()
        .expect_ok()
        .unwrap();
    wait_until("the image at 2", Duration::from_secs(10), || {
        standby_image(&peers[1 - owner], "sf") == Some((2, 2))
    });
    c.request("match a b").unwrap().expect_ok().unwrap();
    assert_eq!(standby_image(&peers[1 - owner], "sf"), Some((2, 2)));

    backends[owner].take().unwrap().kill();
    let resp = c.request("export").unwrap();
    assert!(
        !resp.ok
            && resp
                .body
                .starts_with("STALE-REPLICA session=sf have=2 need=3"),
        "{}",
        resp.body
    );
    assert_eq!(router.stats().promotions_count(), 0);
    stop(router, backends);
}

/// A frame for `id` carrying a copy of `image` re-stamped at
/// `watermark` — newer than anything the sink holds.
fn forged_frame(image: &[u8], id: &str, watermark: u64, damage: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let mut snap = iwb_store::SessionSnapshot::decode(image).unwrap();
    assert_eq!(snap.session_id, id);
    snap.watermark = watermark;
    let mut bytes = snap.encode();
    damage(&mut bytes);
    iwb_server::repl::encode_frame(Some((watermark, &bytes)), &[])
}

/// The sink side of a session with an image at 2: its standby image
/// and journal bytes, to prove a refused frame changed nothing.
fn standby_files(store: &Path, id: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = store.join("replica");
    (
        std::fs::read(dir.join(format!("{id}.snap"))).unwrap(),
        std::fs::read(dir.join(format!("{id}.journal"))).unwrap(),
    )
}

#[test]
fn a_torn_or_bit_flipped_shipped_image_is_refused_by_the_sink() {
    let owner = rendezvous::rank("tf", 2)[0];
    let sink = 1 - owner;
    let (peers, stores, backends) = spawn_imaging_fleet("torn-frame", 2, 2, |_| FaultPlan::none());
    let mut c = Client::connect(&peers[owner]).unwrap();
    c.session_new(Some("tf")).unwrap();
    warm(&mut c);
    wait_until("the image at 2", Duration::from_secs(10), || {
        standby_image(&peers[sink], "tf") == Some((3, 2))
    });
    let before = standby_files(&stores[sink].0, "tf");
    let image = std::fs::read(stores[owner].0.join("tf.snap")).unwrap();

    let mut raw = Client::connect(&peers[sink]).unwrap();
    let frames = [
        (
            "torn image",
            forged_frame(&image, "tf", 9, |b| b.truncate(b.len() / 2)),
        ),
        (
            "bit-flipped image",
            forged_frame(&image, "tf", 9, |b| b[300] ^= 0x04),
        ),
        ("bit-flipped frame", {
            let mut f = forged_frame(&image, "tf", 9, |_| {});
            let last = f.len() - 9;
            f[last] ^= 0x01;
            f
        }),
    ];
    for (what, frame) in frames {
        let resp = raw.request_with_bytes("repl range tf 9", &frame).unwrap();
        assert!(
            !resp.ok && resp.body.starts_with("repl range refused"),
            "{what}: {}",
            resp.body
        );
        assert_eq!(standby_files(&stores[sink].0, "tf"), before, "{what}");
        assert_eq!(standby_image(&peers[sink], "tf"), Some((3, 2)), "{what}");
    }
    // A frame cut off on the wire never runs at all.
    let frame = forged_frame(&image, "tf", 9, |_| {});
    let mut stream = std::net::TcpStream::connect(&peers[sink]).unwrap();
    writeln!(stream, "repl range tf 9 <<BYTES {}", frame.len()).unwrap();
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(stream);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(standby_files(&stores[sink].0, "tf"), before);

    let export = observable_state(&mut c);
    let mut s = Client::connect(&peers[sink]).unwrap();
    drop(c);
    s.request("repl promote tf 3").unwrap().expect_ok().unwrap();
    s.session_attach("tf").unwrap();
    assert_eq!(observable_state(&mut s), export);
    stop(spawn_router(&peers, RouterConfig::default()), backends);
}

#[test]
fn a_sink_restarted_mid_image_keeps_its_previous_image() {
    let owner = rendezvous::rank("mi", 2)[0];
    let sink = 1 - owner;
    let (peers, stores, mut backends) =
        spawn_imaging_fleet("mid-image", 2, 2, |_| FaultPlan::none());
    let mut c = Client::connect(&peers[owner]).unwrap();
    c.session_new(Some("mi")).unwrap();
    warm(&mut c);
    wait_until("the image at 2", Duration::from_secs(10), || {
        standby_image(&peers[sink], "mi") == Some((3, 2))
    });
    let export = observable_state(&mut c);
    let before = standby_files(&stores[sink].0, "mi");

    // The sink dies with a newer image half received and a half-written
    // image file beside the live one.
    let image = std::fs::read(stores[owner].0.join("mi.snap")).unwrap();
    let frame = forged_frame(&image, "mi", 9, |_| {});
    let mut stream = std::net::TcpStream::connect(&peers[sink]).unwrap();
    writeln!(stream, "repl range mi 9 <<BYTES {}", frame.len()).unwrap();
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    let tmp = stores[sink].0.join("replica").join("mi.snap.tmp");
    std::fs::write(&tmp, &image[..image.len() / 3]).unwrap();
    backends[sink].take().unwrap().kill();
    drop(stream);

    backends[sink] = Some(spawn_backend_imaging(
        &peers[sink],
        &stores[sink].0,
        &peers,
        sink,
        FaultPlan::none(),
        2,
    ));
    assert_eq!(standby_files(&stores[sink].0, "mi"), before);
    assert_eq!(standby_image(&peers[sink], "mi"), Some((3, 2)));
    backends[owner].take().unwrap().kill();
    let mut s = Client::connect(&peers[sink]).unwrap();
    s.request("repl promote mi 3").unwrap().expect_ok().unwrap();
    s.session_attach("mi").unwrap();
    assert_eq!(observable_state(&mut s), export);
    stop(spawn_router(&peers, RouterConfig::default()), backends);
}
