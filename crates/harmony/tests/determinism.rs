//! The determinism contract of the parallel, feature-cached engine:
//! `HarmonyEngine::run` produces **byte-identical** results for every
//! thread count and cache setting — the merged matrix, every per-voter
//! matrix, and the flooding iteration count, compared through
//! `f64::to_bits` so even last-bit rounding drift fails. Staged re-runs
//! (after a decision, after a learning step) are byte-identical to the
//! full pipeline, and re-score only the voters whose inputs changed.
//!
//! Workloads are seeded registry pairs (generator → mild perturbation)
//! and the `iwb-eval` domains, so the suite is reproducible across runs
//! and machines.

use iwb_eval::domains::{default_knobs, domains, generate_case, DomainKnobs};
use iwb_harmony::flooding::flood;
use iwb_harmony::voters::default_suite;
use iwb_harmony::{
    cupid_like_engine, Budget, CancelToken, Confidence, Deadline, Feedback, FloodingConfig,
    HarmonyEngine, Interrupt, MatchConfig, MatchContext, MatchResult, MatchVoter, ScoreMatrix,
    VoteMerger,
};
use iwb_ling::Thesaurus;
use iwb_model::{DataType, ElementId, ElementKind, Metamodel, SchemaBuilder, SchemaGraph};
use iwb_registry::perturb::{perturb_schema, PerturbConfig};
use iwb_registry::{generate_registry, GeneratorConfig, SchemaPair};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

type Locked = HashMap<(ElementId, ElementId), Confidence>;

/// One seeded (source, target, gold) pair of roughly
/// `entities * 6` elements per side.
fn seeded_pair(seed: u64, entities: usize) -> SchemaPair {
    let cfg = GeneratorConfig {
        seed,
        models: 1,
        elements: entities,
        attributes: entities * 5,
        domain_values: entities * 8,
        ..GeneratorConfig::default()
    };
    let registry = generate_registry(cfg);
    perturb_schema(&registry.models[0], &PerturbConfig::mild(seed))
}

fn run_with(pair: &SchemaPair, threads: usize, cache: bool, locked: &Locked) -> MatchResult {
    configured(HarmonyEngine::default(), threads, cache).run(&pair.source, &pair.target, locked)
}

fn configured(mut engine: HarmonyEngine, threads: usize, cache: bool) -> HarmonyEngine {
    engine.set_match_config(MatchConfig {
        threads,
        cache,
        ..MatchConfig::default()
    });
    engine
}

fn engine_with(voters: Vec<Box<dyn MatchVoter>>) -> HarmonyEngine {
    HarmonyEngine::new(voters, VoteMerger::default(), FloodingConfig::default())
}

/// A one-attribute pair no test matches for its own sake: running it
/// replaces an engine's retained run, so the next run of the real pair
/// takes the full pipeline.
fn decoy() -> SchemaPair {
    let schema = |name: &str| {
        SchemaBuilder::new(name, Metamodel::Relational)
            .open("T")
            .attr("x", DataType::Text)
            .close()
            .build()
    };
    SchemaPair {
        source: schema("decoy_src"),
        target: schema("decoy_tgt"),
        gold: Default::default(),
    }
}

/// One oracle round over `result`: the `k` source rows whose best
/// undecided target scores highest get that target accepted when it is
/// gold and rejected otherwise. Decisions are added to `locked` and
/// come back in (source, target) order, the order in which
/// [`HarmonyEngine::rematch`] feeds fresh cells.
fn oracle_round(pair: &SchemaPair, result: &MatchResult, locked: &mut Locked) -> Vec<Feedback> {
    const K: usize = 3;
    let m = &result.matrix;
    let mut best: Vec<(ElementId, ElementId, f64)> = m
        .src_ids()
        .iter()
        .filter_map(|&s| {
            m.tgt_ids()
                .iter()
                .filter(|&&t| !locked.contains_key(&(s, t)))
                .map(|&t| (s, t, m.get(s, t).value()))
                .max_by(|a, b| a.2.total_cmp(&b.2))
        })
        .collect();
    best.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    best.truncate(K);
    best.sort_by_key(|&(s, t, _)| (s, t));
    best.into_iter()
        .map(|(s, t, _)| {
            let accepted = pair.gold.contains(&pair.source, &pair.target, s, t);
            let c = if accepted {
                Confidence::ACCEPT
            } else {
                Confidence::REJECT
            };
            locked.insert((s, t), c);
            Feedback {
                src: s,
                tgt: t,
                accepted,
            }
        })
        .collect()
}

/// One step of a feedback sequence: the decisions fed back before the
/// run, the locked cells the run saw, and its result.
struct Round {
    feedback: Vec<Feedback>,
    locked: Locked,
    result: MatchResult,
}

/// A `rounds`-step feedback sequence on `engine`, where no step can take
/// the staged path: before each learning step the engine matches the
/// decoy pair, so `learn` builds its context from scratch and every run
/// of `pair` is a full pipeline. Round 0 is the first run.
fn full_rounds(mut engine: HarmonyEngine, pair: &SchemaPair, rounds: usize) -> Vec<Round> {
    let decoy = decoy();
    let first = engine.run(&pair.source, &pair.target, &HashMap::new());
    let mut out = vec![Round {
        feedback: Vec::new(),
        locked: HashMap::new(),
        result: first,
    }];
    for round in 1..=rounds {
        let prev = out.last().expect("round 0 exists");
        let mut locked = prev.locked.clone();
        let feedback = oracle_round(pair, &prev.result, &mut locked);
        engine.run(&decoy.source, &decoy.target, &HashMap::new());
        engine.learn(
            &pair.source,
            &pair.target,
            &prev.result.per_voter,
            &feedback,
        );
        let result = engine.run(&pair.source, &pair.target, &locked);
        assert!(
            !engine.last_run().incremental,
            "round {round}: the reference must run the full pipeline"
        );
        out.push(Round {
            feedback,
            locked,
            result,
        });
    }
    out
}

/// Counts `vote` calls on the voter it wraps and delegates the rest.
struct Counting {
    inner: Box<dyn MatchVoter>,
    votes: Arc<AtomicUsize>,
}

impl MatchVoter for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        self.votes.fetch_add(1, Ordering::Relaxed);
        self.inner.vote(ctx, src, tgt)
    }
    fn learn(&mut self, ctx: &mut MatchContext, feedback: &[Feedback]) {
        self.inner.learn(ctx, feedback);
    }
    fn reads_learned_state(&self) -> bool {
        self.inner.reads_learned_state()
    }
}

/// A voter left at the trait's default `reads_learned_state`. It
/// abstains, and when armed it cancels the armed token on its next
/// vote: a run that scores it is interrupted mid-pipeline.
#[derive(Default)]
struct Tripwire {
    armed: Arc<Mutex<Option<CancelToken>>>,
}

impl MatchVoter for Tripwire {
    fn name(&self) -> &'static str {
        "tripwire"
    }
    fn vote(&self, _: &MatchContext, _: ElementId, _: ElementId) -> Confidence {
        if let Some(token) = self.armed.lock().expect("tripwire lock").take() {
            token.cancel();
        }
        Confidence::UNKNOWN
    }
}

/// The default suite plus a [`Tripwire`], every voter counted: the
/// voters and, per voter, its name, `reads_learned_state` and counter.
type Counters = Vec<(&'static str, bool, Arc<AtomicUsize>)>;

fn counted_suite() -> (Vec<Box<dyn MatchVoter>>, Counters) {
    let mut suite = default_suite();
    suite.push(Box::new(Tripwire::default()));
    let mut counters = Vec::new();
    let voters = suite
        .into_iter()
        .map(|inner| {
            let votes = Arc::new(AtomicUsize::new(0));
            counters.push((
                inner.name(),
                inner.reads_learned_state(),
                Arc::clone(&votes),
            ));
            Box::new(Counting { inner, votes }) as Box<dyn MatchVoter>
        })
        .collect();
    (voters, counters)
}

/// `vote` calls per voter since the last call, by name.
fn take_counts(counters: &Counters) -> Vec<(&'static str, usize)> {
    counters
        .iter()
        .map(|(name, _, votes)| (*name, votes.swap(0, Ordering::Relaxed)))
        .collect()
}

fn bits(m: &ScoreMatrix) -> Vec<u64> {
    m.scores().iter().map(|x| x.to_bits()).collect()
}

/// Bit-exact equality of two results, with a stage-naming panic message.
fn assert_identical(a: &MatchResult, b: &MatchResult, what: &str) {
    assert_eq!(
        a.flooding_iterations, b.flooding_iterations,
        "{what}: flooding iteration count"
    );
    assert_eq!(a.matrix.src_ids(), b.matrix.src_ids(), "{what}: row ids");
    assert_eq!(a.matrix.tgt_ids(), b.matrix.tgt_ids(), "{what}: col ids");
    assert_eq!(a.per_voter.len(), b.per_voter.len(), "{what}: voter count");
    for ((an, am), (bn, bm)) in a.per_voter.iter().zip(&b.per_voter) {
        assert_eq!(an, bn, "{what}: voter order");
        assert_eq!(bits(am), bits(bm), "{what}: voter {an} matrix");
    }
    assert_eq!(bits(&a.matrix), bits(&b.matrix), "{what}: merged matrix");
}

#[test]
fn thread_count_and_cache_never_change_the_result() {
    let pair = seeded_pair(11, 10);
    let locked = HashMap::new();
    let baseline = run_with(&pair, 1, false, &locked);
    for threads in [1, 2, 8] {
        for cache in [false, true] {
            let r = run_with(&pair, threads, cache, &locked);
            assert_identical(&baseline, &r, &format!("threads={threads} cache={cache}"));
        }
    }
}

#[test]
fn auto_thread_count_is_identical_too() {
    let pair = seeded_pair(13, 8);
    let locked = HashMap::new();
    let baseline = run_with(&pair, 1, false, &locked);
    // threads: 0 resolves to the machine's available parallelism.
    let auto = run_with(&pair, 0, true, &locked);
    assert_identical(&baseline, &auto, "threads=auto");
}

#[test]
fn cache_hits_are_byte_identical_to_cold_builds() {
    let pair = seeded_pair(17, 8);
    let locked = HashMap::new();
    let mut engine = HarmonyEngine::default(); // threads=1, cache=on
    let cold = engine.run(&pair.source, &pair.target, &locked);
    let warm = engine.run(&pair.source, &pair.target, &locked);
    assert_eq!(engine.cache_stats().context_hits, 1, "second run must hit");
    assert_identical(&cold, &warm, "cache hit vs cold build");
}

#[test]
fn locked_cells_are_identical_and_pinned_across_threads() {
    let pair = seeded_pair(19, 8);
    // Pick locked pairs out of the matrix itself so they are matchable.
    let probe = run_with(&pair, 1, false, &HashMap::new());
    let src = probe.matrix.src_ids().to_vec();
    let tgt = probe.matrix.tgt_ids().to_vec();
    let mut locked = HashMap::new();
    locked.insert((src[1], tgt[1]), Confidence::ACCEPT);
    locked.insert((src[2], tgt[1]), Confidence::REJECT);
    let baseline = run_with(&pair, 1, false, &locked);
    for threads in [2, 8] {
        let r = run_with(&pair, threads, true, &locked);
        assert_identical(&baseline, &r, &format!("locked, threads={threads}"));
        assert_eq!(r.matrix.get(src[1], tgt[1]), Confidence::ACCEPT);
        assert_eq!(r.matrix.get(src[2], tgt[1]), Confidence::REJECT);
    }
}

#[test]
fn unexpired_deadlines_never_change_the_result() {
    // The interruption budget decides *whether* stages run, never what
    // they compute: with a deadline set but unexpired, every thread ×
    // cache combination stays byte-identical to the unbudgeted run.
    let pair = seeded_pair(11, 10);
    let locked = HashMap::new();
    let baseline = run_with(&pair, 1, false, &locked);
    for threads in [1, 2, 8] {
        for cache in [false, true] {
            let mut engine = HarmonyEngine::default();
            engine.set_match_config(MatchConfig {
                threads,
                cache,
                ..MatchConfig::default()
            });
            let budget = Budget::new(
                CancelToken::new(),
                Deadline::within(std::time::Duration::from_secs(3600)),
            );
            let r = engine
                .run_budgeted(&pair.source, &pair.target, &locked, &budget)
                .expect("an hour-long deadline must not expire");
            assert_identical(
                &baseline,
                &r,
                &format!("deadline set, threads={threads} cache={cache}"),
            );
        }
    }
}

#[test]
fn aborted_runs_leave_the_engine_reusable_and_identical() {
    // A cancelled run yields a structured abort, and the *same engine*
    // still produces byte-identical results afterwards — no partial
    // state sticks. That holds for a learned re-match too, aborted
    // before it starts or mid-pipeline (the tripwire voter cancels the
    // run's token while the learned-state voters are scored): the retry
    // takes the staged path and matches a full run bit for bit.
    let pair = seeded_pair(11, 10);
    let locked = HashMap::new();
    let reference = full_rounds(engine_with(counted_suite().0), &pair, 1);
    let (baseline, learned) = (&reference[0].result, &reference[1]);
    for threads in [1, 2, 8] {
        let tripwire = Tripwire::default();
        let armed = Arc::clone(&tripwire.armed);
        let mut voters = default_suite();
        voters.push(Box::new(tripwire));
        let mut engine = configured(engine_with(voters), threads, true);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let budget = Budget::new(cancelled, Deadline::none());
        let err = engine
            .run_budgeted(&pair.source, &pair.target, &locked, &budget)
            .expect_err("cancelled before start must abort");
        assert_eq!(err, Interrupt::Cancelled);
        let expired = Budget::new(
            CancelToken::new(),
            Deadline::within(std::time::Duration::ZERO),
        );
        let err = engine
            .run_budgeted(&pair.source, &pair.target, &locked, &expired)
            .expect_err("expired deadline must abort");
        assert_eq!(err, Interrupt::DeadlineExceeded);
        let r = engine
            .run_budgeted(&pair.source, &pair.target, &locked, &Budget::unlimited())
            .expect("unlimited budget");
        assert_identical(
            baseline,
            &r,
            &format!("post-abort rerun, threads={threads}"),
        );

        engine.learn(&pair.source, &pair.target, &r.per_voter, &learned.feedback);
        for budget in [&budget, &expired] {
            engine
                .run_budgeted(&pair.source, &pair.target, &learned.locked, budget)
                .expect_err("a learned re-match under a spent budget must abort");
        }
        let tripped = CancelToken::new();
        *armed.lock().expect("tripwire lock") = Some(tripped.clone());
        let err = engine
            .run_budgeted(
                &pair.source,
                &pair.target,
                &learned.locked,
                &Budget::new(tripped, Deadline::none()),
            )
            .expect_err("a learned re-match cancelled mid-pipeline must abort");
        assert_eq!(err, Interrupt::Cancelled);
        let retried = engine
            .run_budgeted(
                &pair.source,
                &pair.target,
                &learned.locked,
                &Budget::unlimited(),
            )
            .expect("unlimited budget");
        assert!(
            engine.last_run().incremental,
            "threads={threads}: the retried learned re-match is staged"
        );
        assert_identical(
            &learned.result,
            &retried,
            &format!("learned re-match retried after aborts, threads={threads}"),
        );
    }
}

#[test]
fn incremental_rematch_is_byte_identical_to_from_scratch() {
    // The persistence contract of `iwb-store`: after a user decision,
    // re-matching splices only the dirty rows into the retained matrix
    // — and the splice is byte-identical to a from-scratch run with the
    // same locked cells, for every thread count × cache setting
    // (threads: 0 resolves to the machine's available parallelism).
    let pair = seeded_pair(23, 8);
    let probe = run_with(&pair, 1, false, &HashMap::new());
    let src = probe.matrix.src_ids().to_vec();
    let tgt = probe.matrix.tgt_ids().to_vec();
    let mut locked = HashMap::new();
    locked.insert((src[1], tgt[2]), Confidence::ACCEPT);
    locked.insert((src[3], tgt[0]), Confidence::REJECT);
    let scratch = run_with(&pair, 1, false, &locked);
    for threads in [1, 2, 8, 0] {
        for cache in [false, true] {
            let mut engine = HarmonyEngine::default();
            engine.set_match_config(MatchConfig {
                threads,
                cache,
                ..MatchConfig::default()
            });
            let full = engine.run(&pair.source, &pair.target, &HashMap::new());
            assert_identical(
                &probe,
                &full,
                &format!("full, threads={threads} cache={cache}"),
            );
            assert!(!engine.last_run().incremental, "first run is full");
            let spliced = engine.run(&pair.source, &pair.target, &locked);
            let report = engine.last_run();
            assert!(
                report.incremental,
                "threads={threads} cache={cache}: re-run took the incremental path"
            );
            assert_eq!(
                report.dirty_rows, 2,
                "threads={threads} cache={cache}: exactly the two decided rows re-merge"
            );
            assert_identical(
                &scratch,
                &spliced,
                &format!("incremental, threads={threads} cache={cache}"),
            );
        }
    }
}

#[test]
fn retracting_a_decision_incrementally_is_identical_too() {
    // Dirty-row detection is symmetric: removing a locked cell must
    // re-merge its row back to the undecided result, byte-identically.
    let pair = seeded_pair(29, 8);
    let probe = run_with(&pair, 1, false, &HashMap::new());
    let src = probe.matrix.src_ids().to_vec();
    let tgt = probe.matrix.tgt_ids().to_vec();
    let mut locked = HashMap::new();
    locked.insert((src[0], tgt[1]), Confidence::ACCEPT);
    for threads in [1, 8] {
        let mut engine = HarmonyEngine::default();
        engine.set_match_config(MatchConfig {
            threads,
            cache: true,
            ..MatchConfig::default()
        });
        engine.run(&pair.source, &pair.target, &locked);
        let retracted = engine.run(&pair.source, &pair.target, &HashMap::new());
        let report = engine.last_run();
        assert!(
            report.incremental,
            "threads={threads}: retraction is incremental"
        );
        assert_eq!(report.dirty_rows, 1, "threads={threads}");
        assert_identical(&probe, &retracted, &format!("retract, threads={threads}"));
    }
}

#[test]
fn a_learned_rematch_rescores_only_the_voters_that_read_learned_state() {
    // After `learn`, a voter whose `reads_learned_state()` is false keeps
    // its matrix (0 `vote` calls); the documentation voter and a voter
    // left at the trait default are scored over the full cross product.
    let pair = seeded_pair(31, 8);
    for threads in [1, 2] {
        let (voters, counters) = counted_suite();
        let mut engine = configured(engine_with(voters), threads, true);
        let first = engine.run(&pair.source, &pair.target, &HashMap::new());
        let cells = first.matrix.len();
        assert!(cells > 0);
        assert!(
            take_counts(&counters).iter().all(|&(_, n)| n == cells),
            "threads={threads}: the first run scores every voter"
        );
        let mut locked = HashMap::new();
        let feedback = oracle_round(&pair, &first, &mut locked);
        engine.learn(&pair.source, &pair.target, &first.per_voter, &feedback);
        engine.run(&pair.source, &pair.target, &locked);
        assert!(engine.last_run().incremental, "threads={threads}");
        let rescored: Vec<&str> = counters
            .iter()
            .filter(|(_, reads, _)| *reads)
            .map(|(name, _, _)| *name)
            .collect();
        assert_eq!(rescored, ["documentation", "tripwire"]);
        for ((name, reads, _), (_, votes)) in counters.iter().zip(take_counts(&counters)) {
            let expected = if *reads { cells } else { 0 };
            assert_eq!(votes, expected, "threads={threads}: votes of {name}");
        }
    }
}

#[test]
fn learned_rematches_are_staged_and_identical_to_full_runs() {
    // Five feedback rounds on every iwb-eval domain: each learned
    // re-match takes the staged path and is bit-identical to a full
    // run after the same learning, for every thread count × cache
    // setting (threads: 0 resolves to the available parallelism) —
    // driven step by step (`learn`, then `run`) and through the
    // re-match step, which is handed only the locked cells. The
    // Cupid-like suite reads no learned state, so there only the
    // merger's learned weights force the re-merge.
    let engines = [
        ("harmony", HarmonyEngine::default as fn() -> HarmonyEngine),
        ("cupid-like", cupid_like_engine),
    ];
    let unlimited = Budget::unlimited();
    for spec in domains() {
        let knobs = DomainKnobs {
            entities: 6,
            attrs_per_entity: 3.0,
            ..default_knobs(spec)
        };
        let pair = generate_case(spec, &knobs, 4242).pair;
        for (name, new_engine) in engines {
            let reference = full_rounds(new_engine(), &pair, 5);
            for threads in [1, 2, 8, 0] {
                for cache in [true, false] {
                    let what = |round: usize| {
                        let domain = spec.name;
                        format!("{domain} {name} round {round}, threads={threads} cache={cache}")
                    };
                    let mut engine = configured(new_engine(), threads, cache);
                    let mut prev = engine.run(&pair.source, &pair.target, &HashMap::new());
                    assert_identical(&reference[0].result, &prev, &what(0));
                    for (round, step) in reference.iter().enumerate().skip(1) {
                        engine.learn(&pair.source, &pair.target, &prev.per_voter, &step.feedback);
                        prev = engine.run(&pair.source, &pair.target, &step.locked);
                        assert!(engine.last_run().incremental, "{}: staged", what(round));
                        assert_identical(&step.result, &prev, &what(round));
                    }
                    let mut stepped = configured(new_engine(), threads, cache);
                    for (round, step) in reference.iter().enumerate() {
                        let result = stepped
                            .rematch(&pair.source, &pair.target, &step.locked, &unlimited)
                            .expect("unlimited budget");
                        let what = format!("{}, re-match step", what(round));
                        assert_eq!(stepped.last_run().incremental, round > 0, "{what}: staged");
                        assert_identical(&step.result, &result, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn an_aborted_rematch_changes_nothing_and_the_cache_stays_honest() {
    // A learned re-match interrupted mid-pipeline (the tripwire cancels
    // while the learned-state voters are scored, after the run cached a
    // context at the new corpus epoch) leaves the engine's learned state
    // exactly as it was. Then further decisions and a completed
    // re-match: the next learning step reuses the rolled-back epoch for
    // a different corpus, so a context cached by the aborted run must
    // not be served. Cache on and off must agree bit for bit, and with
    // an engine that never saw the abort.
    let pair = seeded_pair(11, 10);
    let unlimited = Budget::unlimited();
    let mut results = Vec::new();
    for (cache, abort) in [(true, true), (false, true), (true, false)] {
        let what = format!("cache={cache} abort={abort}");
        let tripwire = Tripwire::default();
        let armed = Arc::clone(&tripwire.armed);
        let mut voters = default_suite();
        voters.push(Box::new(tripwire));
        let mut engine = configured(engine_with(voters), 1, cache);
        let first = engine
            .rematch(&pair.source, &pair.target, &HashMap::new(), &unlimited)
            .expect("unlimited budget");
        let mut locked = HashMap::new();
        oracle_round(&pair, &first, &mut locked);
        if abort {
            let before = engine.state();
            let tripped = CancelToken::new();
            *armed.lock().expect("tripwire lock") = Some(tripped.clone());
            let err = engine
                .rematch(
                    &pair.source,
                    &pair.target,
                    &locked,
                    &Budget::new(tripped, Deadline::none()),
                )
                .expect_err("a re-match cancelled mid-pipeline must abort");
            assert_eq!(err, Interrupt::Cancelled, "{what}");
            assert!(engine.state() == before, "{what}: the abort changed state");
        }
        oracle_round(&pair, &first, &mut locked);
        results.push(
            engine
                .rematch(&pair.source, &pair.target, &locked, &unlimited)
                .expect("unlimited budget"),
        );
        let state = engine.state();
        let learned = &state.pairs[&(pair.source.id().clone(), pair.target.id().clone())].learned;
        assert_eq!(
            learned.len(),
            locked.len(),
            "{what}: each cell learned once"
        );
    }
    assert_identical(&results[0], &results[1], "aborted, cache on vs off");
    assert_identical(&results[0], &results[2], "aborted vs never aborted");
}

#[test]
fn a_thesaurus_or_sample_change_rescores_every_voter() {
    // The corpus-free voters read the thesaurus and the samples, so a
    // change to either re-scores every voter, learned state or not.
    let pair = seeded_pair(37, 8);
    let (voters, counters) = counted_suite();
    let mut engine = engine_with(voters);
    let cells = engine
        .run(&pair.source, &pair.target, &HashMap::new())
        .matrix
        .len();
    take_counts(&counters);
    let rescored = |engine: &mut HarmonyEngine, what: &str| {
        engine.run(&pair.source, &pair.target, &HashMap::new());
        assert!(!engine.last_run().incremental, "{what}: a full run");
        for (name, votes) in take_counts(&counters) {
            assert_eq!(votes, cells, "{what}: votes of {name}");
        }
    };
    engine.set_thesaurus(Thesaurus::builtin());
    rescored(&mut engine, "thesaurus");
    let id = pair.source.iter().last().expect("non-empty").0;
    engine.set_instance_samples(vec![(id, vec!["a".into()])], Vec::new());
    rescored(&mut engine, "samples");
}

#[test]
fn distinct_seeds_produce_distinct_matrices() {
    // Sanity check that the suite is not vacuous: different workloads
    // must actually differ, or bit-equality above proves nothing.
    let a = seeded_pair(11, 8);
    let b = seeded_pair(12, 8);
    let locked = HashMap::new();
    let ra = run_with(&a, 1, false, &locked);
    let rb = run_with(&b, 1, false, &locked);
    assert_ne!(bits(&ra.matrix), bits(&rb.matrix));
}

/// The id-addressed definition of one flooding iteration, kept as the
/// reference for the engine's positional kernel: every cell, its
/// children's cells and its parents' cell are read through
/// [`ScoreMatrix::get`], which answers 0 for a pair outside the matrix.
fn reference_flood_iteration(
    before: &ScoreMatrix,
    source: &SchemaGraph,
    target: &SchemaGraph,
    locked: &HashSet<(ElementId, ElementId)>,
    config: &FloodingConfig,
) -> Vec<f64> {
    let children = |graph: &SchemaGraph, id| -> Vec<ElementId> {
        graph.children(id).iter().map(|&(_, c)| c).collect()
    };
    let mut out = Vec::with_capacity(before.len());
    for &s in before.src_ids() {
        let s_children = children(source, s);
        for &t in before.tgt_ids() {
            let current = before.get(s, t).value();
            if locked.contains(&(s, t)) {
                out.push(current);
                continue;
            }
            let mut adjusted = current;
            if config.enable_up {
                let t_children = children(target, t);
                if !s_children.is_empty() && !t_children.is_empty() {
                    let mut total = 0.0;
                    let mut counted = 0usize;
                    for &cs in &s_children {
                        let best = t_children
                            .iter()
                            .map(|&ct| before.get(cs, ct).value())
                            .fold(f64::NEG_INFINITY, f64::max);
                        if best.is_finite() && best > 0.0 {
                            total += best;
                        }
                        counted += 1;
                    }
                    adjusted += config.up_coefficient * (total / counted as f64);
                }
            }
            if config.enable_down {
                if let (Some((_, ps)), Some((_, pt))) = (source.parent(s), target.parent(t)) {
                    let parent_score = before.get(ps, pt).value();
                    if parent_score < 0.0 {
                        adjusted += config.down_coefficient * parent_score;
                    }
                }
            }
            out.push(Confidence::engine(adjusted).value());
        }
    }
    out
}

/// The reference fixpoint loop around [`reference_flood_iteration`].
fn reference_flood(
    matrix: &mut ScoreMatrix,
    source: &SchemaGraph,
    target: &SchemaGraph,
    locked: &HashSet<(ElementId, ElementId)>,
    config: &FloodingConfig,
) -> usize {
    if !config.enable_up && !config.enable_down {
        return 0;
    }
    for iteration in 0..config.max_iterations {
        let before = matrix.clone();
        let values = reference_flood_iteration(&before, source, target, locked, config);
        matrix.splice_rows(0, &values);
        if matrix.mean_abs_diff(&before) < config.epsilon {
            return iteration + 1;
        }
    }
    config.max_iterations
}

/// The reference merge: one [`VoteMerger::merge`] per cell over the
/// votes read by id, locked cells passed through.
fn reference_merge(result: &MatchResult, merger: &VoteMerger, locked: &Locked) -> Vec<f64> {
    let m = &result.matrix;
    let mut out = Vec::with_capacity(m.len());
    for &s in m.src_ids() {
        for &t in m.tgt_ids() {
            if let Some(c) = locked.get(&(s, t)) {
                out.push(c.value());
                continue;
            }
            let votes: Vec<(&str, Confidence)> = result
                .per_voter
                .iter()
                .map(|(name, vm)| (name.as_str(), vm.get(s, t)))
                .collect();
            out.push(merger.merge(&votes).value());
        }
    }
    out
}

fn as_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Locked cells on two container rows (tables, entities, elements) and
/// two attribute rows: an accept and a reject on each, against the
/// first columns of matching kind.
fn locked_on_entity_and_attribute_rows(pair: &SchemaPair, m: &ScoreMatrix) -> Locked {
    let is_attr = |g: &SchemaGraph, id| g.element(id).kind == ElementKind::Attribute;
    let mut locked = HashMap::new();
    for attrs in [false, true] {
        let rows = m
            .src_ids()
            .iter()
            .filter(|&&s| is_attr(&pair.source, s) == attrs);
        let cols = m
            .tgt_ids()
            .iter()
            .filter(|&&t| is_attr(&pair.target, t) == attrs);
        for ((&s, &t), c) in rows
            .zip(cols.skip(1))
            .zip([Confidence::ACCEPT, Confidence::REJECT])
        {
            locked.insert((s, t), c);
        }
    }
    assert_eq!(locked.len(), 4, "two entity rows and two attribute rows");
    locked
}

/// True when some row or column element has a child the matrix does
/// not hold (a key or a domain value).
fn has_children_outside(pair: &SchemaPair, m: &ScoreMatrix) -> bool {
    let outside = |graph: &SchemaGraph, ids: &[ElementId]| {
        ids.iter()
            .flat_map(|&id| graph.children(id))
            .any(|&(_, c)| !ids.contains(&c))
    };
    outside(&pair.source, m.src_ids()) && outside(&pair.target, m.tgt_ids())
}

#[test]
fn positional_kernels_match_the_id_addressed_reference() {
    // The merge and flooding kernels read cells by position through a
    // per-run plan. Against the id-addressed definitions above they must
    // agree bit for bit: on a seeded registry pair, whose keys and
    // domain values are children outside the matrix, and on every eval
    // domain; with locked cells on entity and attribute rows; for
    // default, up-only and down-only flooding; at 1 and 4 threads; and
    // after a learn round has moved the merger's weights.
    let mut inputs = vec![("seeded".to_owned(), seeded_pair(41, 8))];
    for spec in domains() {
        let knobs = DomainKnobs {
            entities: 6,
            attrs_per_entity: 3.0,
            ..default_knobs(spec)
        };
        inputs.push((spec.name.to_owned(), generate_case(spec, &knobs, 4343).pair));
    }
    let floods = [
        ("default", FloodingConfig::default()),
        (
            "up-only",
            FloodingConfig {
                enable_down: false,
                ..FloodingConfig::default()
            },
        ),
        (
            "down-only",
            FloodingConfig {
                enable_up: false,
                ..FloodingConfig::default()
            },
        ),
    ];
    for (name, pair) in &inputs {
        let (src, tgt) = (&pair.source, &pair.target);
        for threads in [1, 4] {
            let what = |step: &str| format!("{name} threads={threads}: {step}");
            // An engine that does not flood returns the merge.
            let merging = |merger: VoteMerger| {
                let engine =
                    HarmonyEngine::new(default_suite(), merger, FloodingConfig::disabled());
                configured(engine, threads, true)
            };
            let mut engine = merging(VoteMerger::default());
            let first = engine.run(src, tgt, &HashMap::new());
            if name == "seeded" {
                assert!(
                    has_children_outside(pair, &first.matrix),
                    "the seeded pair has keys or domain values under its rows and columns"
                );
            }
            let mut locked = locked_on_entity_and_attribute_rows(pair, &first.matrix);
            let merged = engine.run(src, tgt, &locked);
            assert_eq!(
                as_bits(merged.matrix.scores()),
                as_bits(&reference_merge(&merged, engine.merger(), &locked)),
                "{}",
                what("merge")
            );
            let feedback = oracle_round(pair, &merged, &mut locked);
            engine.learn(src, tgt, &merged.per_voter, &feedback);
            assert!(
                engine.merger().weights().values().any(|&w| w != 1.0),
                "{}",
                what("the learn round moves a weight")
            );
            let learned = engine.run(src, tgt, &locked);
            assert_eq!(
                as_bits(learned.matrix.scores()),
                as_bits(&reference_merge(&learned, engine.merger(), &locked)),
                "{}",
                what("merge after learning")
            );

            let pinned: HashSet<(ElementId, ElementId)> = locked.keys().copied().collect();
            for (flooding, config) in floods {
                let mut expected = learned.matrix.clone();
                let iterations = reference_flood(&mut expected, src, tgt, &pinned, &config);
                let mut flooded = learned.matrix.clone();
                assert_eq!(
                    flood(&mut flooded, src, tgt, &pinned, &config),
                    iterations,
                    "{}",
                    what(flooding)
                );
                assert_eq!(bits(&flooded), bits(&expected), "{}", what(flooding));
                // The engine's own flooding, sequential or sharded, over
                // the same merge under the same learned weights.
                let mut flooding_engine =
                    HarmonyEngine::new(default_suite(), engine.merger().clone(), config);
                flooding_engine.restore_state(engine.state());
                let run = flooding_engine.run(src, tgt, &locked);
                assert_eq!(run.flooding_iterations, iterations, "{}", what(flooding));
                assert_eq!(bits(&run.matrix), bits(&expected), "{}", what(flooding));
            }
        }
    }
}

#[test]
fn locked_cells_pass_through_a_suite_without_voters() {
    let pair = seeded_pair(43, 4);
    let m = ScoreMatrix::for_schemas(&pair.source, &pair.target);
    let locked = locked_on_entity_and_attribute_rows(&pair, &m);
    for threads in [1, 4] {
        let engine = HarmonyEngine::new(
            Vec::new(),
            VoteMerger::default(),
            FloodingConfig::disabled(),
        );
        let result = configured(engine, threads, true).run(&pair.source, &pair.target, &locked);
        for (s, t, c) in result.matrix.iter() {
            let expected = locked.get(&(s, t)).copied().unwrap_or(Confidence::UNKNOWN);
            assert_eq!(
                c.value().to_bits(),
                expected.value().to_bits(),
                "threads={threads}"
            );
        }
    }
}
