//! The three closed-loop workloads, each driven by one client (one
//! router connection) against a fresh in-process fleet.
//!
//! | workload   | load                                                   |
//! |------------|--------------------------------------------------------|
//! | `curate`   | scripted-oracle curation replays (engine-bound)        |
//! | `decide`   | accept/reject + `show coverage` (commit-path-bound)    |
//! | `failover` | decisions and reads across backend kills and restarts  |

use crate::driver::{Driver, Phase};
use crate::fleet::{Fleet, BACKENDS};
use crate::inputs::{mix, Pair};
use iwb_eval::{run_replay, OracleConfig, ReplayTransport};
use iwb_rng::StdRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Client threads (and router connections). One: every command already
/// crosses the router, a backend and its replica, so on the 2-core
/// machines the baselines come from a second client makes the timings
/// measure the scheduler more than the fleet.
pub const CLIENTS: usize = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

const CURATE: u64 = 1;
const DECIDE: u64 = 2;
const FAILOVER: u64 = 4;

/// Cases each `curate` client cycles through (two per domain), so the
/// control replays each case once however many replays ran.
const CURATE_POOL: usize = 8;
/// Commands per session visit in `decide` (one `session attach` each).
const DECIDE_CHUNK: usize = 250;
/// Decisions per `failover` session at set-up.
const FAILOVER_DECISIONS: usize = 10;
/// Rounds over every session in one `failover` block.
const FAILOVER_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Curate,
    Decide,
    Failover,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Curate, Workload::Decide, Workload::Failover];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Curate => "curate",
            Workload::Decide => "decide",
            Workload::Failover => "failover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn label(self) -> u64 {
        match self {
            Workload::Curate => CURATE,
            Workload::Decide => DECIDE,
            Workload::Failover => FAILOVER,
        }
    }

    /// The verb whose latency is the workload's key operation.
    pub fn is_key(self, verb: &str) -> bool {
        match self {
            Workload::Curate => verb == "match",
            Workload::Decide => verb == "accept" || verb == "reject",
            // Failover's key samples are recorded by the driver.
            Workload::Failover => false,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Scratch directory for the fleet's stores.
    pub dir: PathBuf,
}

/// What the fleet phase leaves for metrics, checks and the layer pass.
pub struct FleetRun {
    pub drivers: Vec<Driver>,
    pub setup_s: Vec<f64>,
    /// Per client: seconds from the start of the measured phase to its
    /// last measured reply (`failover`: time inside timed blocks).
    pub active_s: Vec<f64>,
    pub store_bytes: u64,
    /// Failures that make the run incorrect.
    pub errors: Vec<String>,
    pub router: RouterCounts,
    /// Live-fleet layer probes, taken only with `--trace`.
    pub live: Option<crate::layers::LiveProbe>,
    pub lag_max: u64,
    pub kills: usize,
    /// Host speed just before and just after the measured phase.
    pub host: Vec<crate::host::HostSpeed>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct RouterCounts {
    pub failovers: u64,
    pub promotions: u64,
    pub stale_refusals: u64,
    pub duplicate_acks: u64,
}

/// Set up the fleet `SETUP_REPEATS` times (keeping the last), warm up,
/// run the measured phase, read back final state, and stop the fleet.
pub fn run_fleet(p: &Params, epoch: Instant) -> Result<FleetRun, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let root = p.dir.join(format!("fleet{rep}"));
        let started = Instant::now();
        let fleet = Fleet::start(&root).map_err(|e| format!("start fleet: {e}"))?;
        let drivers = setup(p, &fleet, epoch)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            drop(drivers);
            fleet.stop();
            let _ = std::fs::remove_dir_all(&root);
        } else {
            kept = Some((fleet, drivers));
        }
    }
    let (mut fleet, mut drivers) = kept.expect("at least one set-up");

    for d in &mut drivers {
        d.phase = Phase::Warmup;
    }
    let mut errors = Vec::new();
    parallel(&mut drivers, |d| warmup(p, d), &mut errors);

    for d in &mut drivers {
        d.phase = Phase::Measured;
    }
    let probe = Duration::from_millis(if p.quick { 40 } else { 300 });
    let mut host = vec![crate::host::measure(probe).map_err(|e| format!("host probe: {e}"))?];
    let (active_s, lag_max, kills) = if p.workload == Workload::Failover {
        failover_phase(p, &mut fleet, &mut drivers, &mut errors)
    } else {
        steady_phase(p, &fleet, &mut drivers, &mut errors)
    };
    host.push(crate::host::measure(probe).map_err(|e| format!("host probe: {e}"))?);

    for d in &mut drivers {
        d.phase = Phase::Final;
    }
    parallel(&mut drivers, read_back, &mut errors);
    let live = if p.trace && errors.is_empty() {
        // On a thread of its own, like the backend workers it compares
        // against: the main thread's allocator arena returns freed
        // memory to the OS, which makes its multi-MB replies slower.
        let driver = &mut drivers[0];
        let probe = thread::scope(|s| {
            s.spawn(|| crate::layers::LiveProbe::take(&fleet, driver, p.quick))
                .join()
                .unwrap_or_else(|_| Err("live probe panicked".into()))
        });
        Some(probe?)
    } else {
        None
    };
    let store_bytes = fleet.store_bytes();
    let mut router = RouterCounts::default();
    for r in fleet.routers() {
        let s = r.stats();
        router.failovers += s.failovers_count();
        router.promotions += s.promotions_count();
        router.stale_refusals += s.stale_replica_refusals_count();
        router.duplicate_acks += s.duplicate_acks_count();
    }
    fleet.stop();
    Ok(FleetRun {
        drivers,
        setup_s,
        active_s,
        store_bytes,
        errors,
        router,
        live,
        lag_max,
        kills,
        host,
    })
}

/// Run `f` on every driver, one thread each, collecting errors.
fn parallel(
    drivers: &mut [Driver],
    f: impl Fn(&mut Driver) -> Result<(), String> + Sync,
    errors: &mut Vec<String>,
) {
    let results: Vec<Result<(), String>> = thread::scope(|s| {
        let joins: Vec<_> = drivers.iter_mut().map(|d| s.spawn(|| f(d))).collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    errors.extend(results.into_iter().filter_map(Result::err));
}

/// Sessions client `c` owns, as (global index, domain).
fn owned_sessions(p: &Params, c: usize) -> Vec<(usize, usize)> {
    let per_client = match (p.workload, p.quick) {
        (Workload::Curate, _) => 0,
        (Workload::Decide, false) => 8,
        (Workload::Failover, false) => 12,
        (_, true) => 2,
    };
    (c * per_client..(c + 1) * per_client)
        .map(|j| {
            let domain = match p.workload {
                // Geospatial and clinical, the two smallest domains: every
                // promotion replays a session's journal through the
                // engine, and a run should fit several kill cycles.
                Workload::Failover => [2, 0][j % 2],
                _ => j % 4,
            };
            (j, domain)
        })
        .collect()
}

fn session_rng(p: &Params, j: usize) -> StdRng {
    StdRng::seed_from_u64(mix(p.seed, &[p.workload.label(), j as u64, 0xd0]))
}

/// Connect the clients and build each one's sessions.
fn setup(p: &Params, fleet: &Fleet, epoch: Instant) -> Result<Vec<Driver>, String> {
    let mut drivers = (0..CLIENTS)
        .map(|c| Driver::connect(c, fleet.router().addr(), epoch))
        .collect::<Result<Vec<_>, _>>()?;
    let mut errors = Vec::new();
    parallel(&mut drivers, |d| setup_client(p, d), &mut errors);
    match errors.into_iter().next() {
        Some(e) => Err(format!("set-up: {e}")),
        None => Ok(drivers),
    }
}

fn setup_client(p: &Params, d: &mut Driver) -> Result<(), String> {
    if p.workload == Workload::Curate {
        // Replay slot i draws case i mod CURATE_POOL: every domain, twice,
        // per client. Each replay still runs on a fresh session.
        d.pool = (0..CURATE_POOL)
            .map(|i| {
                let seed = mix(p.seed, &[CURATE, d.index as u64, i as u64]);
                Arc::new(Pair::new(i % 4, seed, p.quick))
            })
            .collect();
    }
    for (j, domain) in owned_sessions(p, d.index) {
        let pair = Arc::new(Pair::new(
            domain,
            mix(p.seed, &[p.workload.label(), j as u64]),
            p.quick,
        ));
        let prefix = &p.workload.name()[..1];
        let s = d.new_session(format!("{prefix}{j}"), pair.clone(), session_rng(p, j))?;
        for (cmd, body) in pair.loads() {
            d.exec(s, &cmd, body.as_ref())?;
        }
        d.exec(s, &pair.match_cmd(), None)?;
        let decisions = match p.workload {
            Workload::Failover => FAILOVER_DECISIONS,
            _ => 0,
        };
        if decisions > 0 {
            for _ in 0..decisions {
                let cmd = d.sessions[s].decision();
                d.exec(s, &cmd, None)?;
            }
            d.exec(s, &pair.match_cmd(), None)?;
        }
    }
    Ok(())
}

fn warmup(p: &Params, d: &mut Driver) -> Result<(), String> {
    match p.workload {
        Workload::Curate => {
            if p.quick {
                return Ok(());
            }
            replay(d, "w", d.index as u64, None)
        }
        Workload::Decide => {
            for s in 0..d.sessions.len() {
                decide_chunk(d, s, 8)?;
            }
            Ok(())
        }
        Workload::Failover => failover_round(d, &HashSet::new()),
    }
}

/// One curation replay of pooled case `slot` on a fresh session
/// `c<client><label><slot>`, stopped part-way by `deadline`.
fn replay(d: &mut Driver, label: &str, slot: u64, deadline: Option<Instant>) -> Result<(), String> {
    let pair = d.pool[slot as usize % d.pool.len()].clone();
    let id = format!("c{}{label}{slot}", d.index);
    let s = d.new_session(id, pair.clone(), StdRng::seed_from_u64(0))?;
    let outcome = {
        let mut transport = DriverTransport {
            driver: d,
            session: s,
            deadline,
        };
        run_replay(&mut transport, &pair.case, &OracleConfig::default())
    };
    d.close(s)?;
    match outcome {
        Err(e) if e != DEADLINE => Err(format!("replay {}: {e}", d.sessions[s].id)),
        _ => Ok(()),
    }
}

const DEADLINE: &str = "iwb_bench: measured phase over";

/// The curation oracle's transport: the client's router connection,
/// stopping at the end of the measured phase.
struct DriverTransport<'a> {
    driver: &'a mut Driver,
    session: usize,
    deadline: Option<Instant>,
}

impl ReplayTransport for DriverTransport<'_> {
    fn execute(&mut self, command: &str, heredoc: Option<&str>) -> Result<String, String> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(DEADLINE.to_owned());
        }
        let body: Option<Arc<str>> = heredoc.map(Arc::from);
        self.driver.exec(self.session, command, body.as_ref())
    }
}

/// `n` decide commands on session `s`: three decisions, then one
/// `show coverage`, repeating.
fn decide_chunk(d: &mut Driver, s: usize, n: usize) -> Result<(), String> {
    for _ in 0..n {
        let k = d.sessions[s].issued;
        let cmd = if k % 4 == 3 {
            "show coverage".to_owned()
        } else {
            d.sessions[s].decision()
        };
        d.sessions[s].issued += 1;
        d.exec(s, &cmd, None)?;
    }
    Ok(())
}

/// One failover round: every session gets two decisions and a proposal
/// listing; the first command to a session in `failed_over` is timed
/// as a failover sample.
fn failover_round(d: &mut Driver, failed_over: &HashSet<usize>) -> Result<(), String> {
    for s in 0..d.sessions.len() {
        let first = d.sessions[s].decision();
        if failed_over.contains(&s) {
            d.exec_after_failover(s, &first)?;
        } else {
            d.exec(s, &first, None)?;
        }
        let second = d.sessions[s].decision();
        d.exec(s, &second, None)?;
        let (src, tgt) = {
            let pair = &d.sessions[s].pair;
            (pair.src.clone(), pair.tgt.clone())
        };
        d.exec(s, &format!("proposals {src} {tgt} threshold 0.25"), None)?;
    }
    Ok(())
}

/// curate / decide: the client loops over work units until the
/// deadline; the main thread samples replication lag meanwhile.
fn steady_phase(
    p: &Params,
    fleet: &Fleet,
    drivers: &mut [Driver],
    errors: &mut Vec<String>,
) -> (Vec<f64>, u64, usize) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let mut lag_max = 0;
    let results: Vec<Result<f64, String>> = thread::scope(|scope| {
        let joins: Vec<_> = drivers
            .iter_mut()
            .map(|d| {
                scope
                    .spawn(|| client_loop(p, d, deadline).map(|()| started.elapsed().as_secs_f64()))
            })
            .collect();
        if p.trace {
            while joins.iter().any(|j| !j.is_finished()) {
                lag_max = lag_max.max(fleet.max_repl_lag());
                thread::sleep(Duration::from_millis(20));
            }
        }
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut active = Vec::new();
    for r in results {
        match r {
            Ok(s) => active.push(s),
            Err(e) => errors.push(e),
        }
    }
    (active, lag_max, 0)
}

fn client_loop(p: &Params, d: &mut Driver, deadline: Instant) -> Result<(), String> {
    let more = || Instant::now() < deadline;
    match p.workload {
        Workload::Curate => {
            if p.quick {
                replay(d, "r", d.index as u64, None)?;
                return Ok(());
            }
            let mut slot = 0u64;
            while more() {
                replay(d, "r", slot, Some(deadline))?;
                slot += 1;
            }
        }
        Workload::Decide => {
            let (chunk, rounds) = if p.quick {
                (25, Some(2))
            } else {
                (DECIDE_CHUNK, None)
            };
            let mut round = 0;
            'outer: while rounds.is_none_or(|r| round < r) {
                for s in 0..d.sessions.len() {
                    if rounds.is_none() && !more() {
                        break 'outer;
                    }
                    decide_chunk(d, s, chunk)?;
                }
                round += 1;
            }
        }
        Workload::Failover => unreachable!("failover runs its own phase"),
    }
    Ok(())
}

/// Barrier-stepped failover cycles. Each cycle: a steady block, an
/// untimed wait for zero replication lag, a kill of the next victim
/// (b0, b1, b2, b0, …, skipping a backend that owns no session), a
/// post-kill block whose first command to each session that lived on
/// the victim is a failover sample, and an untimed restart of the
/// victim with an empty store.
fn failover_phase(
    p: &Params,
    fleet: &mut Fleet,
    drivers: &mut [Driver],
    errors: &mut Vec<String>,
) -> (Vec<f64>, u64, usize) {
    let barrier = Barrier::new(CLIENTS + 1);
    let stop = AtomicBool::new(false);
    let victims: Mutex<Vec<HashSet<usize>>> = Mutex::new(vec![HashSet::new(); CLIENTS]);
    let client_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();
    let mut active = 0.0f64;
    let mut lag_max = 0u64;
    let mut kills = 0usize;
    let ids: Vec<Vec<String>> = drivers
        .iter()
        .map(|d| d.sessions.iter().map(|s| s.id.clone()).collect())
        .collect();

    thread::scope(|scope| {
        for d in drivers.iter_mut() {
            let (barrier, stop, victims, client_errors) =
                (&barrier, &stop, &victims, &client_errors);
            let index = d.index;
            scope.spawn(move || {
                // Every client passes every barrier even after an error,
                // so the main thread can always finish the cycle.
                let mut block = |after_kill: bool| {
                    barrier.wait();
                    // The main thread names the victim's sessions before
                    // releasing the post-kill block.
                    let failed_over = match after_kill {
                        true => victims.lock().expect("victim lock")[index].clone(),
                        false => HashSet::new(),
                    };
                    let empty = HashSet::new();
                    let result = (0..FAILOVER_ROUNDS).try_for_each(|round| {
                        failover_round(d, if round == 0 { &failed_over } else { &empty })
                    });
                    if let Err(e) = result {
                        client_errors
                            .lock()
                            .expect("error list lock")
                            .push(format!("client {index}: {e}"));
                    }
                    barrier.wait();
                };
                loop {
                    block(false);
                    block(true);
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
            });
        }

        let mut cycle = 0usize;
        let mut next_victim = 0usize;
        loop {
            let cycle_started = Instant::now();
            // Steady block.
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            active += t.elapsed().as_secs_f64();
            lag_max = lag_max.max(fleet.max_repl_lag());

            // The next backend in rotation that owns a session: killing
            // one that owns none would time no failover.
            let owns = |b: usize| {
                ids.iter()
                    .flatten()
                    .any(|id| fleet.router().fleet().routed_backend(id) == Some(b))
            };
            let victim = (next_victim..next_victim + BACKENDS)
                .map(|b| b % BACKENDS)
                .find(|&b| owns(b))
                .unwrap_or(next_victim % BACKENDS);
            next_victim = victim + 1;
            let mut main_error = fleet.wait_lag_zero(Duration::from_secs(10)).err();
            {
                let mut v = victims.lock().expect("victim lock");
                for (c, set) in v.iter_mut().enumerate() {
                    set.clear();
                    for (s, id) in ids[c].iter().enumerate() {
                        if fleet.router().fleet().routed_backend(id) == Some(victim) {
                            set.insert(s);
                        }
                    }
                }
            }
            fleet.kill(victim);
            kills += 1;

            // Post-kill block.
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            active += t.elapsed().as_secs_f64();
            lag_max = lag_max.max(fleet.max_repl_lag());

            if let Err(e) = fleet.restart(victim) {
                main_error.get_or_insert(format!("restart backend {victim}: {e}"));
            }
            if main_error.is_none() {
                main_error = fleet.wait_healthy(victim, Duration::from_secs(10)).err();
            }
            cycle += 1;
            // Stop before a cycle as long as the last one would overrun
            // `--seconds`: cycles take seconds each, and a run's wall
            // time must stay close to what it asks for.
            let done = if p.quick {
                cycle >= 1
            } else {
                (started.elapsed() + cycle_started.elapsed()).as_secs_f64() >= p.seconds
            };
            let stopping = {
                let mut errors = client_errors.lock().expect("error list lock");
                if let Some(e) = main_error {
                    errors.push(format!("cycle {cycle} (victim b{victim}): {e}"));
                }
                done || !errors.is_empty()
            };
            stop.store(stopping, Ordering::SeqCst);
            barrier.wait();
            if stopping {
                break;
            }
        }
    });
    errors.extend(client_errors.into_inner().expect("error list lock"));
    (vec![active; CLIENTS], lag_max, kills)
}

/// Final read-back: every live session exports through the router
/// (a lost session fails here).
fn read_back(d: &mut Driver) -> Result<(), String> {
    for s in 0..d.sessions.len() {
        if d.sessions[s].closed {
            continue;
        }
        d.detach_local();
        d.exec(s, "export", None)
            .map_err(|e| format!("session {} lost: {e}", d.sessions[s].id))?;
    }
    Ok(())
}
