//! The stage-by-stage recompute (`MatchContext::build` → the nine
//! voters → `VoteMerger::merge` passing locked cells through →
//! `flooding::flood`) is `to_bits`-identical to the engine, on every
//! domain: on a first match without decisions, on a first match over
//! locked cells, and on a re-match after the feedback learning the
//! harmony tool applies between runs.

use iwb_core::shell::Shell;
use iwb_eval::{default_knobs, domains, generate_case};
use iwb_fleet_bench::decompose::{identical, matches_blackboard, Decomposer};
use iwb_fleet_bench::inputs::Pair;
use iwb_harmony::HarmonyEngine;
use iwb_model::SchemaId;
use iwb_rng::StdRng;
use std::collections::HashMap;

/// Entity cap: the full default sizes take minutes in a debug build.
const ENTITIES: usize = 6;

fn pairs() -> Vec<Pair> {
    domains()
        .into_iter()
        .map(|spec| {
            let mut knobs = default_knobs(spec);
            knobs.entities = knobs.entities.min(ENTITIES);
            Pair::from_case(generate_case(spec, &knobs, 7))
        })
        .collect()
}

fn loaded(pair: &Pair) -> Shell {
    let mut shell = Shell::new();
    for (cmd, body) in pair.loads() {
        shell.execute(&cmd, body.as_deref()).expect("load");
    }
    shell
}

fn ids(pair: &Pair) -> (SchemaId, SchemaId) {
    (
        SchemaId::new(pair.src.as_str()),
        SchemaId::new(pair.tgt.as_str()),
    )
}

/// Run `match` on the shell and the decomposer; both must agree.
fn rematch_agrees(shell: &mut Shell, mirror: &mut Decomposer, pair: &Pair) -> bool {
    shell.execute(&pair.match_cmd(), None).expect("match");
    let (src, tgt) = ids(pair);
    let bb = shell.manager().blackboard();
    let (result, times) = mirror.rematch(bb, &src, &tgt).expect("decomposed match");
    assert_eq!(times.vote_us.len(), 9, "one timing per voter");
    assert_eq!(result.matrix.len(), times.cells);
    matches_blackboard(bb, &src, &tgt, &result.matrix)
}

#[test]
fn first_match_without_decisions_is_bit_identical_to_the_engine() {
    for pair in pairs() {
        let mut shell = loaded(&pair);
        let mut mirror = Decomposer::new();
        assert!(
            rematch_agrees(&mut shell, &mut mirror, &pair),
            "{}",
            pair.case.domain
        );
        let (src, tgt) = ids(&pair);
        let bb = shell.manager().blackboard();
        let (s, t) = (bb.schema(&src).unwrap(), bb.schema(&tgt).unwrap());
        let engine = HarmonyEngine::default().run(s, t, &HashMap::new());
        let (decomposed, _) = Decomposer::new().run(s, t, &HashMap::new());
        assert!(
            identical(&engine.matrix, &decomposed.matrix),
            "{}",
            pair.case.domain
        );
    }
}

#[test]
fn locked_cells_pass_through_bit_identically() {
    for pair in pairs() {
        let mut shell = loaded(&pair);
        let ((ga, gb), (da, db)) = pair.probe_cells();
        shell.execute(&pair.accept(&ga, &gb), None).expect("accept");
        shell.execute(&pair.reject(&da, &db), None).expect("reject");
        let mut mirror = Decomposer::new();
        assert!(
            rematch_agrees(&mut shell, &mut mirror, &pair),
            "{}",
            pair.case.domain
        );
    }
}

#[test]
fn re_matches_after_learning_stay_bit_identical() {
    for pair in pairs() {
        let mut shell = loaded(&pair);
        let mut mirror = Decomposer::new();
        let mut rng = StdRng::seed_from_u64(11);
        assert!(rematch_agrees(&mut shell, &mut mirror, &pair));
        for round in 0..3 {
            for _ in 0..4 {
                shell
                    .execute(&pair.decision(&mut rng), None)
                    .expect("decision");
            }
            assert!(
                rematch_agrees(&mut shell, &mut mirror, &pair),
                "{} round {round}",
                pair.case.domain
            );
        }
        // The mirrored learning moved the merger exactly as the engine's.
        let engine = shell
            .manager_mut()
            .tool_mut::<iwb_core::tools::HarmonyTool>("harmony")
            .expect("harmony installed")
            .engine()
            .merger()
            .weights()
            .clone();
        let weights = mirror.merger().weights();
        assert_eq!(engine.len(), weights.len());
        for (name, w) in &engine {
            assert_eq!(w.to_bits(), weights[name].to_bits(), "{name}");
        }
    }
}
