//! The outside-in layer trace (`--trace 1`).
//!
//! After the fleet phase, each selected session's recorded command
//! stream is replayed on one thread, in process, through each layer's
//! public entry points, and every call is timed and recorded as a span
//! whose parent is the client-side span of the command it replays:
//!
//! * core: `Shell::execute` on a shadow shell, plus the blackboard's
//!   `materialize_rdf` / `export_turtle` and `WorkbenchManager::query`;
//! * harmony: for every `match`, `HarmonyEngine::run` on the shadow
//!   engine and a stage-by-stage recompute ([`crate::decompose`]) that
//!   must be bit-identical to it; `last_run()` and `cache_stats()`;
//! * loaders: the ER loader on every `load` body;
//! * store: `persist::capture` + `SessionStore::commit` / `load` at the
//!   server's snapshot cadence and once at the end of the stream;
//! * server: `Session::execute_command` on a `SessionRegistry` with a
//!   journal, a store and replication to a live in-process sink;
//!   `Journal::append` and `Replicator::ship` on their own;
//!   `SessionRegistry::promote` of the session's replica on the sink;
//! * router and wire ([`LiveProbe`], taken on the live fleet): paired
//!   round trips of the same read through a router, directly to the
//!   owning backend, and in process on the owner's session.
//!
//! These are service times; the gap to the client's round trip is
//! waiting, reported as `trace.unexplained_share`.

use crate::control::through_fleet;
use crate::decompose::{identical, matches_blackboard, Decomposer};
use crate::driver::{reply_hash, verb, Driver, Op};
use crate::fleet::{reserve_addrs, Fleet};
use crate::inputs::Pair;
use crate::stats::Dist;
use crate::workload::{FleetRun, Params};
use iwb_core::persist;
use iwb_core::shell::{mutates, Shell};
use iwb_core::tools::HarmonyTool;
use iwb_harmony::CacheStats;
use iwb_loaders::{ErLoader, SchemaLoader};
use iwb_model::SchemaId;
use iwb_rdf::{PatternTerm, Term, TriplePattern};
use iwb_server::client::Client;
use iwb_server::fault::FaultPlan;
use iwb_server::journal::{Journal, JournalConfig, JournalRecord};
use iwb_server::repl::{ReplConfig, Replicator};
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use iwb_server::session::{ExecOutcome, SessionRegistry, StoreConfig};
use iwb_server::stats::ServerStats;
use iwb_store::{CommandRecord, SessionStore};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The server's snapshot cadence and journal compaction (defaults of
/// `workbenchd`, which the fleet runs with).
const SNAPSHOT_EVERY: usize = 64;
const COMPACT_EVERY: u64 = 256;

/// Replayed commands per layer pass, over all selected sessions.
const OP_BUDGET: usize = 3000;
const MAX_SESSIONS: usize = 4;
/// Replays of one read between two mutations.
const READ_REPEATS: usize = 3;

/// Paired-probe rounds on the live fleet (`--quick` runs a tenth).
const SMALL_PROBES: usize = 200;
const EXPORT_PROBES: usize = 12;

/// One recorded span: a timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// `workload/client/session/index` of the command the span serves.
    pub request: Arc<str>,
}

/// Router-hop and wire timings, measured on the live fleet, each from
/// the fastest of its paired rounds.
#[derive(Debug, Clone, Copy)]
pub struct LiveProbe {
    /// Router RTT − direct RTT of `show coverage`, µs.
    pub hop_us: f64,
    /// The same for `export` (multi-MB replies forwarded by the router).
    pub hop_export_us: f64,
    /// Direct RTT − in-process `execute_command` of `show coverage`, µs.
    pub wire_read_us: f64,
    pub wire_export_us: f64,
    /// The same for an `accept` (journal append and replication
    /// included on both sides).
    pub wire_mutate_us: f64,
}

impl LiveProbe {
    /// One thread, two connections: a router connection and a direct
    /// one to the session's owner, both attached to a live session.
    pub fn take(fleet: &Fleet, d: &mut Driver, quick: bool) -> Result<LiveProbe, String> {
        let s = match d.sessions.iter().position(|s| !s.closed) {
            Some(s) => s,
            None => {
                // Curation replays close their sessions: build one.
                let pair = d.sessions[0].pair.clone();
                let s = d.new_session(
                    "probe".into(),
                    pair.clone(),
                    iwb_rng::StdRng::seed_from_u64(0),
                )?;
                for (cmd, body) in pair.loads() {
                    d.exec(s, &cmd, body.as_ref())?;
                }
                d.exec(s, &pair.match_cmd(), None)?;
                s
            }
        };
        let id = d.sessions[s].id.clone();
        let owner = fleet
            .router()
            .fleet()
            .routed_backend(&id)
            .ok_or(format!("no route for {id}"))?;
        let backend = fleet.backend(owner).ok_or("owner is down")?;
        let session = backend
            .registry()
            .get(&id)
            .ok_or("session not on its owner")?;
        let mut routed = Client::connect(fleet.router().addr()).map_err(|e| e.to_string())?;
        let mut direct = Client::connect(fleet.backend_addr(owner)).map_err(|e| e.to_string())?;
        routed.session_attach(&id).map_err(|e| e.to_string())?;
        direct.session_attach(&id).map_err(|e| e.to_string())?;

        let in_process = |cmd: &str| -> Result<f64, String> {
            let t = Instant::now();
            let out =
                session.execute_command(cmd, None, &FaultPlan::none(), 3, backend.stats(), None);
            match out {
                ExecOutcome::Output(_) => Ok(micros(t)),
                out => Err(format!("in-process {cmd} failed: {out:?}")),
            }
        };
        // Each path's fastest round: host noise only ever adds time, so
        // differences of minima are the steadiest estimate of a hop.
        let fastest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
        let mut probe = |cmd: &str, rounds: usize| -> Result<(f64, f64), String> {
            let (mut r, mut w, mut e) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rounds {
                r.push(timed_request(&mut routed, cmd)?);
                w.push(timed_request(&mut direct, cmd)?);
                e.push(in_process(cmd)?);
            }
            let (r, w, e) = (fastest(r), fastest(w), fastest(e));
            Ok((r - w, w - e))
        };
        let scale = if quick { 10 } else { 1 };
        let (hop_us, wire_read_us) = probe("show coverage", SMALL_PROBES / scale)?;
        let (hop_export_us, wire_export_us) = probe("export", EXPORT_PROBES.div_ceil(scale))?;
        // Mutations go direct only, and last: the router stamps a
        // session's mutations with sequence numbers, which unstamped
        // direct mutations would put out of step.
        let ((a, b), _) = d.sessions[s].pair.probe_cells();
        let accept = d.sessions[s].pair.accept(&a, &b);
        let (mut w, mut e) = (Vec::new(), Vec::new());
        for _ in 0..SMALL_PROBES / scale {
            w.push(timed_request(&mut direct, &accept)?);
            e.push(in_process(&accept)?);
        }
        Ok(LiveProbe {
            hop_us,
            hop_export_us,
            wire_read_us,
            wire_export_us,
            wire_mutate_us: fastest(w) - fastest(e),
        })
    }
}

fn timed_request(client: &mut Client, cmd: &str) -> Result<f64, String> {
    let t = Instant::now();
    let resp = client.request(cmd).map_err(|e| e.to_string())?;
    let us = micros(t);
    if resp.ok {
        Ok(us)
    } else {
        Err(format!("{cmd}: {}", resp.body))
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Everything the layer pass measured.
pub struct LayerReport {
    /// (name, value, samples behind the value)
    pub metrics: Vec<(String, f64, usize)>,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
    pub sessions: usize,
    pub replayed: usize,
}

/// Samples and spans collected during the pass.
struct Recorder {
    epoch: Instant,
    samples: BTreeMap<String, Vec<f64>>,
    spans: Vec<Span>,
    errors: Vec<String>,
}

impl Recorder {
    fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_owned()).or_default().push(v);
    }

    /// Record a span that ends now; returns its duration in µs.
    fn span(
        &mut self,
        name: &str,
        start: Instant,
        parent: Option<usize>,
        request: &Arc<str>,
    ) -> f64 {
        let end = Instant::now();
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: at(start),
            end_us: at(end),
            parent,
            request: request.clone(),
        });
        (end - start).as_secs_f64() * 1e6
    }

    fn dist(&self, name: &str) -> Dist {
        Dist::new(self.samples.get(name).cloned().unwrap_or_default())
    }
}

/// Client-side spans for every logged command (the roots the layer
/// spans hang off), driver by driver; returns where each driver's
/// spans start.
fn client_spans(p: &Params, drivers: &[Driver]) -> (Vec<Span>, Vec<usize>) {
    let mut spans = Vec::new();
    let mut offsets = Vec::new();
    for d in drivers {
        offsets.push(spans.len());
        for (i, op) in d.ops.iter().enumerate() {
            spans.push(Span {
                name: format!("client.{}", op.verb()),
                start_us: op.start_us,
                end_us: op.start_us + op.rtt_ms * 1e3,
                parent: None,
                request: request_id(p, d, op.session, i).into(),
            });
        }
    }
    (spans, offsets)
}

fn request_id(p: &Params, d: &Driver, session: usize, index: usize) -> String {
    format!(
        "{}/{}/{}/{index}",
        p.workload.name(),
        d.index,
        d.sessions[session].id
    )
}

/// Pick up to `max` sessions, alternating clients and
/// preferring unseen domains, until `OP_BUDGET` commands are covered.
fn select_sessions(drivers: &[Driver], max: usize) -> Vec<(usize, usize)> {
    let mut candidates: Vec<Vec<usize>> = drivers
        .iter()
        .map(|d| {
            (0..d.sessions.len())
                .filter(|&s| {
                    d.ops
                        .iter()
                        .any(|o| o.session == s && o.ok && o.verb() == "match")
                })
                .collect()
        })
        .collect();
    let mut picked = Vec::new();
    let mut domains = std::collections::HashSet::new();
    let mut budget = OP_BUDGET as isize;
    'outer: while picked.len() < max && budget > 0 {
        let mut progressed = false;
        for (di, list) in candidates.iter_mut().enumerate() {
            if list.is_empty() {
                continue;
            }
            let d = &drivers[di];
            let pos = list
                .iter()
                .position(|&s| !domains.contains(d.sessions[s].pair.case.domain))
                .unwrap_or(0);
            let s = list.remove(pos);
            domains.insert(d.sessions[s].pair.case.domain);
            budget -= d.ops.iter().filter(|o| o.session == s && o.ok).count() as isize;
            picked.push((di, s));
            progressed = true;
            if picked.len() >= max || budget <= 0 {
                break 'outer;
            }
        }
        if !progressed {
            break;
        }
    }
    picked
}

/// The fixed probe suite run on each replayed session's final state, so
/// every per-verb metric exists on every workload.
fn probe_suite(pair: &Pair) -> Vec<String> {
    let (src, tgt) = (&pair.src, &pair.tgt);
    let ((ga, gb), (da, db)) = pair.probe_cells();
    vec![
        format!("proposals {src} {tgt} threshold 0.25"),
        "weights".to_owned(),
        format!("show matrix {src} {tgt}"),
        format!("show schema {src}"),
        "show coverage".to_owned(),
        "query ?c iwb:is-user-defined true".to_owned(),
        "query ?x iwb:name ?n".to_owned(),
        "export".to_owned(),
        pair.accept(&ga, &gb),
        pair.reject(&da, &db),
        pair.match_cmd(),
    ]
}

/// Run the layer pass over the recorded fleet run.
pub fn layer_pass(p: &Params, run: &FleetRun, epoch: Instant) -> Result<LayerReport, String> {
    let dir = p.dir.join("layers");
    std::fs::create_dir_all(&dir).map_err(|e| format!("layer dir: {e}"))?;
    let (spans, roots) = client_spans(p, &run.drivers);
    let mut rec = Recorder {
        epoch,
        samples: BTreeMap::new(),
        spans,
        errors: Vec::new(),
    };
    let sink = Sink::start(&dir.join("sink"))?;
    let picked = select_sessions(&run.drivers, if p.quick { 1 } else { MAX_SESSIONS });
    let mut replayed = 0;
    for (n, &(di, s)) in picked.iter().enumerate() {
        let d = &run.drivers[di];
        let ops: Vec<(usize, &Op)> = d
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.session == s && o.ok)
            .collect();
        replayed += ops.len();
        let session = SessionLayers {
            p,
            d,
            s,
            ops: &ops,
            roots: &roots,
            dir: &dir,
            n,
        };
        let shell_us = session.core_and_harmony(&mut rec)?;
        session.server(&mut rec, &sink, &shell_us)?;
    }
    sink.stop();
    let metrics = summarize(&rec, run);
    Ok(LayerReport {
        metrics,
        spans: rec.spans,
        errors: rec.errors,
        sessions: picked.len(),
        replayed,
    })
}

/// A live in-process backend that accepts replication streams and
/// promotions, as a session's successor would.
struct Sink {
    handle: ServerHandle,
    /// `[source placeholder, sink]`: the sink is every session's
    /// successor from slot 0.
    peers: Vec<String>,
}

impl Sink {
    fn start(dir: &Path) -> Result<Sink, String> {
        let peers = reserve_addrs(2).map_err(|e| format!("reserve sink address: {e}"))?;
        let handle = serve(ServerConfig {
            addr: peers[1].clone(),
            store_dir: Some(dir.to_path_buf()),
            recover: false,
            repl: Some(ReplConfig {
                peers: peers.clone(),
                self_index: 1,
            }),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("start replication sink: {e}"))?;
        Ok(Sink { handle, peers })
    }

    fn source_config(&self) -> ReplConfig {
        ReplConfig {
            peers: self.peers.clone(),
            self_index: 0,
        }
    }

    fn stop(self) {
        self.handle.kill();
    }
}

/// One command a layer pass replays.
struct Step {
    /// Index in the driver's log (`None` for the probe suite).
    index: Option<usize>,
    command: String,
    heredoc: Option<Arc<str>>,
    /// The fleet's reply hash, which the shadow shell must reproduce.
    expected: Option<u64>,
}

struct SessionLayers<'a> {
    p: &'a Params,
    d: &'a Driver,
    s: usize,
    ops: &'a [(usize, &'a Op)],
    /// Where each driver's client spans start.
    roots: &'a [usize],
    dir: &'a Path,
    n: usize,
}

impl SessionLayers<'_> {
    fn root(&self, op_index: usize) -> (Option<usize>, Arc<str>) {
        (
            Some(self.roots[self.d.index] + op_index),
            request_id(self.p, self.d, self.s, op_index).into(),
        )
    }

    fn pair(&self) -> &Pair {
        &self.d.sessions[self.s].pair
    }

    /// The commands each pass replays: the recorded stream, in which a
    /// read repeated since the last mutation is replayed at most
    /// `READ_REPEATS` times (reads are pure, so further repeats time
    /// nothing new), then the probe suite.
    fn steps(&self) -> Vec<Step> {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let mut steps = Vec::new();
        for &(i, op) in self.ops {
            if op.mutates() {
                seen.clear();
            } else {
                let n = seen.entry(&op.command).or_default();
                *n += 1;
                if *n > READ_REPEATS {
                    continue;
                }
            }
            steps.push(Step {
                index: Some(i),
                command: op.command.to_string(),
                heredoc: op.heredoc.clone(),
                expected: Some(op.reply_hash),
            });
        }
        steps.extend(probe_suite(self.pair()).into_iter().map(|command| Step {
            index: None,
            command,
            heredoc: None,
            expected: None,
        }));
        steps
    }

    /// Shadow-shell replay: core, harmony, loaders and store layers.
    /// Returns the shell time of each replayed command (µs).
    fn core_and_harmony(&self, rec: &mut Recorder) -> Result<Vec<f64>, String> {
        let mut shell = Shell::new();
        let mut mirror = Decomposer::new();
        let store = SessionStore::new(self.dir.join("snapshots"), format!("s{}", self.n));
        let mut history: Vec<CommandRecord> = Vec::new();
        let mut cache = CacheTotals::default();
        let mut shell_us = Vec::with_capacity(self.ops.len());
        let src = SchemaId::new(self.pair().src.as_str());
        let tgt = SchemaId::new(self.pair().tgt.as_str());

        for step in self.steps() {
            let Step {
                index,
                command,
                heredoc,
                expected,
            } = step;
            let (parent, request) = match index {
                Some(i) => self.root(i),
                None => (None, format!("{}/probe", self.d.sessions[self.s].id).into()),
            };
            let v = verb(&command).to_owned();
            if v == "load" {
                if let (Some(body), Some(id)) = (&heredoc, command.split_whitespace().nth(2)) {
                    let t = Instant::now();
                    ErLoader
                        .load(body, id)
                        .map_err(|e| format!("ER loader: {e}"))?;
                    let us = rec.span("loaders.parse", t, parent, &request);
                    rec.sample("loaders.parse_us", us);
                }
            }
            let before = cache_stats(&mut shell);
            let t = Instant::now();
            let out = shell.execute(&command, heredoc.as_deref());
            let us = rec.span(&format!("core.shell.{v}"), t, parent, &request);
            rec.sample(&format!("core.shell_us.{v}"), us);
            let body = through_fleet(&out.map_err(|e| format!("shadow shell: {command}: {e}"))?);
            rec.sample(&format!("server.reply_bytes.{v}"), body.len() as f64);
            if let Some(h) = expected {
                if reply_hash(true, &body) != h {
                    return Err(format!(
                        "shadow shell diverged from the fleet at {command:?}"
                    ));
                }
                shell_us.push(us);
            }
            if v == "match" {
                cache.add(before, cache_stats(&mut shell));
                self.time_match(
                    rec,
                    &mut shell,
                    &mut mirror,
                    (&src, &tgt),
                    us,
                    parent,
                    &request,
                );
            }
            if mutates(&command) {
                history.push(CommandRecord {
                    command: command.clone(),
                    heredoc: heredoc.as_deref().map(str::to_owned),
                });
                if history.len().is_multiple_of(SNAPSHOT_EVERY) {
                    self.snapshot(rec, &mut shell, &store, &history, parent, &request)?;
                }
            }
        }
        let (parent, request) = (None, format!("{}/final", self.d.sessions[self.s].id).into());
        self.snapshot(rec, &mut shell, &store, &history, parent, &request)?;
        rec.sample("harmony.cache_context_lookups", cache.context_lookups());
        rec.sample("harmony.cache_context_hits", cache.context_hits as f64);
        rec.sample("harmony.cache_text_lookups", cache.text_lookups());
        rec.sample("harmony.cache_text_hits", cache.text_hits as f64);
        self.blackboard(rec, &shell, &request);
        Ok(shell_us)
    }

    #[allow(clippy::too_many_arguments)]
    fn time_match(
        &self,
        rec: &mut Recorder,
        shell: &mut Shell,
        mirror: &mut Decomposer,
        (src, tgt): (&SchemaId, &SchemaId),
        shell_match_us: f64,
        parent: Option<usize>,
        request: &Arc<str>,
    ) {
        let engine = harmony(shell).engine_mut();
        let report = engine.last_run();
        rec.sample(
            "harmony.incremental",
            f64::from(u8::from(report.incremental)),
        );
        rec.sample("harmony.dirty_rows", report.dirty_rows as f64);

        let bb = shell.manager().blackboard();
        let (Some(source), Some(target)) = (bb.schema(src).cloned(), bb.schema(tgt).cloned())
        else {
            rec.errors
                .push(format!("match of {src}/{tgt} without schemas"));
            return;
        };
        let locked = bb
            .matrix(src, tgt)
            .map(|m| {
                m.rows()
                    .iter()
                    .flat_map(|&r| m.cols().iter().map(move |&c| (r, c)))
                    .filter(|&(r, c)| m.cell(r, c).user_defined)
                    .map(|(r, c)| ((r, c), m.cell(r, c).confidence))
                    .collect()
            })
            .unwrap_or_default();

        // An identical rerun on the shadow engine: the full pipeline with
        // the session's learned state and warm caches.
        let t = Instant::now();
        let engine_result = harmony(shell).engine_mut().run(&source, &target, &locked);
        let run_us = rec.span("harmony.run", t, parent, request);
        rec.sample("harmony.run_us", run_us);
        rec.sample("core.match_overhead_us", shell_match_us - run_us);

        let t = Instant::now();
        let decomposed = mirror.rematch(shell.manager().blackboard(), src, tgt);
        let (result, times) = match decomposed {
            Ok(x) => x,
            Err(e) => {
                rec.errors.push(format!("decomposition: {e}"));
                return;
            }
        };
        // Stages run back to back: lay their spans end to end.
        let mut at = t.duration_since(rec.epoch).as_secs_f64() * 1e6;
        let mut stage = |rec: &mut Recorder, span: String, metric: String, us: f64| {
            rec.spans.push(Span {
                name: span,
                start_us: at,
                end_us: at + us,
                parent,
                request: request.clone(),
            });
            rec.sample(&metric, us);
            at += us;
        };
        let context = (
            "harmony.context".to_owned(),
            "harmony.context_us".to_owned(),
        );
        stage(rec, context.0, context.1, times.context_us);
        for (voter, us) in &times.vote_us {
            let names = (
                format!("harmony.vote.{voter}"),
                format!("harmony.vote_us.{voter}"),
            );
            stage(rec, names.0, names.1, *us);
        }
        let merge = ("harmony.merge".to_owned(), "harmony.merge_us".to_owned());
        stage(rec, merge.0, merge.1, times.merge_us);
        let flood = ("harmony.flood".to_owned(), "harmony.flood_us".to_owned());
        stage(rec, flood.0, flood.1, times.flood_us);
        rec.sample("harmony.flood_iterations", times.flood_iterations as f64);
        rec.sample("harmony.cells", times.cells as f64);

        let bb = shell.manager().blackboard();
        if !identical(&result.matrix, &engine_result.matrix)
            || !matches_blackboard(bb, src, tgt, &engine_result.matrix)
        {
            rec.errors.push(format!(
                "stage-by-stage recompute of match {src} {tgt} is not bit-identical to HarmonyEngine::run"
            ));
        }
    }

    fn snapshot(
        &self,
        rec: &mut Recorder,
        shell: &mut Shell,
        store: &SessionStore,
        history: &[CommandRecord],
        parent: Option<usize>,
        request: &Arc<str>,
    ) -> Result<(), String> {
        let t = Instant::now();
        let image = persist::capture(shell).into_snapshot(
            format!("s{}", self.n),
            history.len() as u64,
            history.to_vec(),
        );
        store
            .commit(&image, &FaultPlan::none())
            .map_err(|e| format!("snapshot commit: {e}"))?;
        let us = rec.span("store.snapshot", t, parent, request);
        rec.sample("store.snapshot_us", us);
        let t = Instant::now();
        let loaded = store.load().map_err(|e| format!("snapshot load: {e:?}"))?;
        let us = rec.span("store.snapshot_load", t, parent, request);
        rec.sample("store.snapshot_load_us", us);
        if loaded.map(|l| l.watermark) != Some(history.len() as u64) {
            return Err("snapshot did not read back".into());
        }
        let bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
        rec.sample("store.snapshot_bytes", bytes as f64);
        Ok(())
    }

    /// RDF materialization, Turtle export and a name query on the
    /// session's final blackboard.
    fn blackboard(&self, rec: &mut Recorder, shell: &Shell, request: &Arc<str>) {
        let bb = shell.manager().blackboard();
        let t = Instant::now();
        let store = bb.materialize_rdf();
        let us = rec.span("core.materialize", t, None, request);
        rec.sample("core.materialize_us", us);
        rec.sample("core.triples", store.len() as f64);
        let t = Instant::now();
        let turtle = bb.export_turtle();
        let us = rec.span("core.export", t, None, request);
        rec.sample("core.export_us", us);
        rec.sample("core.export_bytes", turtle.len() as f64);
        let names = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::Const(Term::iri(iwb_rdf::vocab::NAME)),
            PatternTerm::var("n"),
        );
        let t = Instant::now();
        let solutions = shell.manager().query(&[names]);
        let us = rec.span("core.query", t, None, request);
        rec.sample("core.query_us", us);
        if solutions.is_empty() {
            rec.errors
                .push("query ?x iwb:name ?n found no element".into());
        }
    }

    /// Server layers: `execute_command` on a replicating registry
    /// session, then journal append and shipping on their own, then a
    /// promotion of the shipped replica on the sink.
    fn server(&self, rec: &mut Recorder, sink: &Sink, shell_us: &[f64]) -> Result<(), String> {
        let dir = self.dir.join(format!("exec{}", self.n));
        let registry = SessionRegistry::new(64, Duration::from_secs(3600))
            .with_journal(JournalConfig {
                dir: dir.clone(),
                fsync: true,
                compact_every: COMPACT_EVERY,
            })
            .with_store(StoreConfig {
                dir: dir.clone(),
                fsync: true,
                snapshot_every: SNAPSHOT_EVERY as u64,
            })
            .with_repl(sink.source_config());
        let id = format!("x{}", self.n);
        let session = registry
            .create(Some(&id))
            .map_err(|e| format!("layer session: {e}"))?;
        let stats = ServerStats::new();
        let mut exec_total = 0.0;
        for (k, step) in self.steps().into_iter().enumerate() {
            let Step {
                index,
                command,
                heredoc,
                ..
            } = step;
            let (parent, request) = match index {
                Some(i) => self.root(i),
                None => (None, format!("{id}/probe").into()),
            };
            let v = verb(&command).to_owned();
            let t = Instant::now();
            let out = session.execute_command(
                &command,
                heredoc.as_deref(),
                &FaultPlan::none(),
                3,
                &stats,
                None,
            );
            let us = rec.span(&format!("server.exec.{v}"), t, parent, &request);
            rec.sample(&format!("server.exec_us.{v}"), us);
            if k < shell_us.len() {
                exec_total += us;
            }
            if !matches!(out, ExecOutcome::Output(_)) {
                return Err(format!("layer session: {command}: {out:?}"));
            }
        }
        registry.drain_snapshots();

        // The successor now holds the session's replica: promote it.
        let seq = session.seq();
        let t = Instant::now();
        sink.handle
            .registry()
            .promote(&id, seq, sink.handle.stats())
            .map_err(|e| format!("promote {id}: {e}"))?;
        let us = rec.span("server.promote", t, None, &Arc::from(id.as_str()));
        rec.sample("server.promote_ms", us / 1e3);
        sink.handle.registry().close(&id);

        let (journal_total, ship_total) = self.journal_and_ship(rec, sink)?;
        let shell_total: f64 = shell_us.iter().sum();
        let n = shell_us.len().max(1) as f64;
        rec.sample(
            "server.session_overhead_us",
            (exec_total - shell_total - journal_total - ship_total) / n,
        );
        Ok(())
    }

    /// `Journal::append` of each recorded mutation (fsync on, compaction
    /// every 256), each followed by `Replicator::ship` to the sink.
    /// Returns the total time of each.
    fn journal_and_ship(&self, rec: &mut Recorder, sink: &Sink) -> Result<(f64, f64), String> {
        let config = JournalConfig {
            dir: self.dir.join(format!("journal{}", self.n)),
            fsync: true,
            compact_every: COMPACT_EVERY,
        };
        let id = format!("j{}", self.n);
        let journal = Journal::create(&config, &id).map_err(|e| format!("journal: {e}"))?;
        let cell = Mutex::new(Some(journal));
        let replicator = Replicator::new(sink.source_config());
        let (mut journal_total, mut ship_total, mut records) = (0.0, 0.0, 0usize);
        for &(i, op) in self.ops.iter().filter(|(_, op)| op.mutates()) {
            let (parent, request) = self.root(i);
            let record = JournalRecord {
                command: op.command.to_string(),
                heredoc: op.heredoc.as_deref().map(str::to_owned),
            };
            let t = Instant::now();
            cell.lock()
                .expect("journal lock")
                .as_mut()
                .expect("journal present")
                .append(record, &FaultPlan::none())
                .map_err(|e| format!("journal append: {e}"))?;
            let us = rec.span("server.journal_append", t, parent, &request);
            rec.sample("server.journal_append_us", us);
            journal_total += us;
            let t = Instant::now();
            replicator.ship(&id, &cell, &FaultPlan::none());
            let us = rec.span("server.repl_ship", t, parent, &request);
            rec.sample("server.repl_ship_us", us);
            ship_total += us;
            records += 1;
        }
        if replicator.acked(&id) != records as u64 {
            rec.errors.push(format!(
                "replicator acked {} of {records} records",
                replicator.acked(&id)
            ));
        }
        let bytes = std::fs::metadata(Journal::path_for(&config.dir, &id)).map_or(0, |m| m.len());
        rec.sample(
            "server.journal_bytes_per_record",
            bytes as f64 / records.max(1) as f64,
        );
        sink.handle.registry().close(&id);
        Ok((journal_total, ship_total))
    }
}

fn harmony(shell: &mut Shell) -> &mut HarmonyTool {
    shell
        .manager_mut()
        .tool_mut::<HarmonyTool>("harmony")
        .expect("the workbench shell installs harmony")
}

fn cache_stats(shell: &mut Shell) -> CacheStats {
    harmony(shell).engine().cache_stats()
}

/// Feature-cache lookups made by the shell's own `match` commands.
#[derive(Default)]
struct CacheTotals {
    context_hits: u64,
    context_misses: u64,
    text_hits: u64,
    text_misses: u64,
}

impl CacheTotals {
    fn add(&mut self, before: CacheStats, after: CacheStats) {
        self.context_hits += after.context_hits - before.context_hits;
        self.context_misses += after.context_misses - before.context_misses;
        self.text_hits += after.text_hits - before.text_hits;
        self.text_misses += after.text_misses - before.text_misses;
    }

    fn context_lookups(&self) -> f64 {
        (self.context_hits + self.context_misses) as f64
    }

    fn text_lookups(&self) -> f64 {
        (self.text_hits + self.text_misses) as f64
    }
}

/// The per-layer metrics, by name.
fn summarize(rec: &Recorder, run: &FleetRun) -> Vec<(String, f64, usize)> {
    let mut out = Vec::new();
    let mut put = |name: &str, v: Option<(f64, usize)>| {
        if let Some((v, n)) = v {
            out.push((name.to_owned(), v, n));
        }
    };
    let of = |name: &str, f: fn(&Dist) -> Option<f64>| {
        let d = rec.dist(name);
        f(&d).map(|v| (v, d.len()))
    };
    let p50 = |name: &str| of(name, Dist::median);
    let p99 = |name: &str| of(name, |d| d.pct(0.99));
    let mean = |name: &str| of(name, Dist::mean);
    let total = |name: &str| rec.dist(name).sum();
    let ratio = |num: f64, den: f64| Some((if den > 0.0 { num / den } else { 0.0 }, 1));
    let one = |v: f64| Some((v, 1));

    put("harmony.run_us", p50("harmony.run_us"));
    put("harmony.incremental_share", mean("harmony.incremental"));
    put("harmony.dirty_rows", mean("harmony.dirty_rows"));
    put("harmony.context_us", p50("harmony.context_us"));
    for voter in iwb_harmony::HarmonyEngine::default().voter_names() {
        let name = format!("harmony.vote_us.{voter}");
        put(&name, p50(&name));
    }
    put("harmony.merge_us", p50("harmony.merge_us"));
    put("harmony.flood_us", p50("harmony.flood_us"));
    put("harmony.flood_iterations", mean("harmony.flood_iterations"));
    put("harmony.cells", mean("harmony.cells"));
    put(
        "harmony.cache_context_hit_rate",
        ratio(
            total("harmony.cache_context_hits"),
            total("harmony.cache_context_lookups"),
        ),
    );
    put(
        "harmony.cache_text_hit_rate",
        ratio(
            total("harmony.cache_text_hits"),
            total("harmony.cache_text_lookups"),
        ),
    );

    for v in VERBS {
        let name = format!("core.shell_us.{v}");
        put(&name, p50(&name));
    }
    put("core.match_overhead_us", p50("core.match_overhead_us"));
    put("core.materialize_us", p50("core.materialize_us"));
    put("core.triples", mean("core.triples"));
    put("core.export_us", p50("core.export_us"));
    put("core.export_bytes", mean("core.export_bytes"));
    put("core.query_us", p50("core.query_us"));

    for v in VERBS {
        let name = format!("server.exec_us.{v}");
        put(&name, p50(&name));
    }
    for v in ["accept", "reject", "match", "export"] {
        put(
            &format!("server.exec_p99_us.{v}"),
            p99(&format!("server.exec_us.{v}")),
        );
    }
    put(
        "server.session_overhead_us",
        mean("server.session_overhead_us"),
    );
    put("server.journal_append_us", p50("server.journal_append_us"));
    put(
        "server.journal_append_p99_us",
        p99("server.journal_append_us"),
    );
    put(
        "server.journal_bytes_per_record",
        mean("server.journal_bytes_per_record"),
    );
    put("server.repl_ship_us", p50("server.repl_ship_us"));
    put("server.repl_ship_p99_us", p99("server.repl_ship_us"));
    put("server.repl_lag_max", one(run.lag_max as f64));
    put("server.promote_ms", p50("server.promote_ms"));
    for v in VERBS {
        let name = format!("server.reply_bytes.{v}");
        put(&name, mean(&name));
    }
    if let Some(live) = &run.live {
        put("server.wire_us.read", one(live.wire_read_us));
        put("server.wire_us.mutate", one(live.wire_mutate_us));
        put("server.wire_us.export", one(live.wire_export_us));
        put("router.hop_us", one(live.hop_us));
        put("router.hop_export_us", one(live.hop_export_us));
    }
    put("router.failovers", one(run.router.failovers as f64));
    put("router.promotions", one(run.router.promotions as f64));
    put(
        "router.stale_refusals",
        one(run.router.stale_refusals as f64),
    );
    put(
        "router.duplicate_acks",
        one(run.router.duplicate_acks as f64),
    );

    put("store.snapshot_us", p50("store.snapshot_us"));
    put("store.snapshot_p99_us", p99("store.snapshot_us"));
    put("store.snapshot_load_us", p50("store.snapshot_load_us"));
    put("store.snapshot_bytes", mean("store.snapshot_bytes"));
    put("store.disk_mb", one(run.store_bytes as f64 / 1e6));
    put("loaders.parse_us", p50("loaders.parse_us"));
    put(
        "trace.unexplained_share",
        unexplained_share(rec, run).and_then(one),
    );
    out
}

/// Verbs with per-verb core and server timings.
pub const VERBS: [&str; 9] = [
    "load",
    "match",
    "accept",
    "reject",
    "proposals",
    "weights",
    "show",
    "query",
    "export",
];

/// 1 − Σ(router hop + wire + server execution) ÷ Σ client round trip,
/// over the measured commands: the share of client time the layer
/// service times do not account for (waiting, mostly).
fn unexplained_share(rec: &Recorder, run: &FleetRun) -> Option<f64> {
    let live = run.live.as_ref()?;
    let exec: BTreeMap<&str, f64> = VERBS
        .iter()
        .filter_map(|v| Some((*v, rec.dist(&format!("server.exec_us.{v}")).median()?)))
        .collect();
    let (mut explained, mut observed) = (0.0, 0.0);
    for d in &run.drivers {
        for op in d
            .ops
            .iter()
            .filter(|o| o.ok && o.phase == crate::driver::Phase::Measured)
        {
            let v = op.verb();
            let (hop, wire) = if v == "export" {
                (live.hop_export_us, live.wire_export_us)
            } else if op.mutates() {
                (live.hop_us, live.wire_mutate_us)
            } else {
                (live.hop_us, live.wire_read_us)
            };
            explained += hop + wire + exec.get(v).copied().unwrap_or(0.0);
            observed += op.rtt_ms * 1e3;
        }
    }
    (observed > 0.0).then(|| 1.0 - explained / observed)
}
