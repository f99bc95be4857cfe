//! §4.3's learn → re-match loop exists once: a `MatchSession` and a
//! workbench `Shell` given the same decisions go through the same engine
//! step (`HarmonyEngine::rematch`), so after every round their flooded
//! matrices and merger weights are `to_bits`-identical — on every eval
//! domain, at one thread and at two. The decisions exercise each rule
//! of the step: one made before the first match (learned without being
//! fed), fresh ones every round, and one re-decided after it was
//! learned (not fed again).

use iwb_core::shell::Shell;
use iwb_core::tools::HarmonyTool;
use iwb_eval::domains::{domains, generate_case, DomainKnobs};
use iwb_harmony::{Confidence, MatchConfig, MatchSession, ScoreMatrix};
use iwb_loaders::to_er_text;
use iwb_model::{ElementId, SchemaGraph, SchemaId};
use std::collections::HashMap;

const ROUNDS: usize = 3;

/// The `k` undecided cells with the highest scores, best first: the
/// even-ranked ones are accepted, the odd-ranked ones rejected.
fn next_decisions(
    m: &ScoreMatrix,
    decided: &HashMap<(ElementId, ElementId), Confidence>,
    k: usize,
) -> Vec<(ElementId, ElementId, bool)> {
    let mut cells: Vec<(ElementId, ElementId, f64)> = m
        .iter()
        .filter(|&(s, t, _)| !decided.contains_key(&(s, t)))
        .map(|(s, t, c)| (s, t, c.value()))
        .collect();
    cells.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    cells
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(rank, (s, t, _))| (s, t, rank % 2 == 0))
        .collect()
}

/// Apply one decision to both sides.
fn decide(
    session: &mut MatchSession,
    shell: &mut Shell,
    (source, target): (&SchemaGraph, &SchemaGraph),
    (s, t, accept): (ElementId, ElementId, bool),
) {
    let verb = if accept { "accept" } else { "reject" };
    let command = format!(
        "{verb} {} {} {} {}",
        source.id(),
        target.id(),
        source.name_path(s),
        target.name_path(t)
    );
    shell.execute(&command, None).expect("decision");
    if accept {
        session.accept(s, t);
    } else {
        session.reject(s, t);
    }
}

/// Both sides' flooded matrices and merger weights are bit-identical.
fn assert_same(session: &MatchSession, shell: &mut Shell, pair: &(SchemaId, SchemaId), what: &str) {
    let result = session.result().expect("the session has run");
    let matrix = shell
        .manager()
        .blackboard()
        .matrix(&pair.0, &pair.1)
        .expect("the shell has matched");
    for (s, t, c) in result.matrix.iter() {
        assert_eq!(
            c.value().to_bits(),
            matrix.cell(s, t).confidence.value().to_bits(),
            "{what}: cell {s} × {t}"
        );
    }
    let engine = shell
        .manager_mut()
        .tool_mut::<HarmonyTool>("harmony")
        .expect("harmony installed")
        .engine();
    assert_eq!(
        engine.corpus_epoch(),
        session.engine().corpus_epoch(),
        "{what}: epoch"
    );
    let bits = |w: Vec<(String, f64)>| -> Vec<(String, u64)> {
        w.into_iter().map(|(n, x)| (n, x.to_bits())).collect()
    };
    assert_eq!(
        bits(engine.reweight_state()),
        bits(session.engine().reweight_state()),
        "{what}: merger weights"
    );
}

#[test]
fn a_match_session_and_a_shell_share_one_rematch_loop() {
    for spec in domains() {
        let knobs = DomainKnobs {
            entities: 5,
            attrs_per_entity: 3.0,
            ..iwb_eval::default_knobs(spec)
        };
        let case = generate_case(spec, &knobs, 77);
        for threads in [1, 2] {
            let what = |round: usize| format!("{} threads={threads} round {round}", spec.name);
            let mut shell = Shell::new();
            let pair = (case.pair.source.id().clone(), case.pair.target.id().clone());
            for graph in [&case.pair.source, &case.pair.target] {
                shell
                    .execute(&format!("load er {}", graph.id()), Some(&to_er_text(graph)))
                    .expect("load");
            }
            shell
                .execute(&format!("match-config threads {threads}"), None)
                .expect("match-config");
            // The session matches the graphs the shell loaded, so both
            // address elements by the same ids.
            let bb = shell.manager().blackboard();
            let source = bb.schema(&pair.0).expect("source loaded").clone();
            let target = bb.schema(&pair.1).expect("target loaded").clone();
            let graphs = (&source, &target);
            let mut session = MatchSession::new(&source, &target);
            session.engine_mut().set_match_config(MatchConfig {
                threads,
                ..MatchConfig::default()
            });
            let match_cmd = format!("match {} {}", pair.0, pair.1);

            // A decision before the first match.
            let early = next_decisions(
                &ScoreMatrix::for_schemas(&source, &target),
                &HashMap::new(),
                1,
            )[0];
            decide(&mut session, &mut shell, graphs, early);
            session.run();
            shell.execute(&match_cmd, None).expect("match");
            assert_same(&session, &mut shell, &pair, &what(0));

            for round in 1..=ROUNDS {
                let m = &session.result().expect("ran").matrix;
                for decision in next_decisions(m, session.decisions(), 4) {
                    decide(&mut session, &mut shell, graphs, decision);
                }
                if round == 2 {
                    // Re-decide the early cell the other way.
                    let (s, t, accept) = early;
                    decide(&mut session, &mut shell, graphs, (s, t, !accept));
                }
                session.run();
                shell.execute(&match_cmd, None).expect("re-match");
                assert_same(&session, &mut shell, &pair, &what(round));
            }
            assert!(
                session.engine().corpus_epoch() >= ROUNDS as u64,
                "{}: every round learned",
                what(ROUNDS)
            );
        }
    }
}
