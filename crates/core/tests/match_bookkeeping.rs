//! A machine match is one unit of bookkeeping (§5.2.2, §5.1.3): however
//! large the matrix, a `match` appends one provenance record for its run,
//! sends one mapping-cell event listing the cells it wrote at or above
//! the display threshold, and adds three lines to the session trace. A
//! match that writes nothing appends no record and sends no event.

use iwb_core::provenance::ProvenanceKind;
use iwb_core::shell::Shell;
use iwb_core::{ToolArgs, WorkbenchEvent};
use iwb_loaders::to_er_text;
use iwb_model::{SchemaGraph, SchemaId};
use iwb_registry::{generate_registry, perturb_schema, GeneratorConfig, PerturbConfig};

/// The `(N, M)` of a match reply: "N cells updated, M above display
/// threshold".
fn counts(reply: &str) -> (usize, usize) {
    let number = |suffix: &str| -> usize {
        let end = reply.find(suffix).unwrap_or_else(|| panic!("{reply}"));
        reply[..end].rsplit(' ').next().unwrap().parse().unwrap()
    };
    (number(" cells updated"), number(" above display threshold"))
}

/// Run one `match` through the manager, so its report is visible, and
/// check that it was exactly one unit of bookkeeping. Returns `N`.
fn match_once(shell: &mut Shell, source: &SchemaId, target: &SchemaId) -> usize {
    let manager = shell.manager_mut();
    let records = manager.blackboard().provenance.len();
    let lines = manager.trace().len();
    let report = manager
        .invoke(
            "harmony",
            &ToolArgs::new()
                .with("source", source.as_str())
                .with("target", target.as_str()),
        )
        .unwrap();
    let (written, strong) = counts(&report.output);
    assert!(strong > 1, "{}", report.output);

    // One provenance record: the run, with the reply's cell count.
    let log = manager.blackboard().provenance.records();
    assert_eq!(log.len(), records + 1, "{}", report.output);
    let run = log.last().unwrap();
    assert_eq!(
        (&*run.tool, &run.source, &run.target, &run.kind),
        (
            "harmony",
            source,
            target,
            &ProvenanceKind::MatchRun { cells: written }
        )
    );

    // One mapping-cell event, listing exactly the strong cells: distinct
    // machine suggestions at or above the display threshold.
    let [WorkbenchEvent::MappingCell {
        source: s,
        target: t,
        cells,
    }] = report.events.as_slice()
    else {
        panic!(
            "one mapping-cell event per match, got {}",
            report.events.len()
        );
    };
    assert_eq!((s, t), (source, target));
    assert_eq!(cells.len(), strong);
    let matrix = manager.blackboard().matrix(source, target).unwrap();
    let mut distinct = cells.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), strong);
    for &(row, col) in cells {
        let cell = matrix.cell(row, col);
        assert!(!cell.user_defined);
        assert!(cell.confidence.magnitude() >= 0.5, "{row}×{col}");
    }

    // Three trace lines, whatever the matrix size.
    assert_eq!(
        &manager.trace()[lines..],
        [
            "invoke harmony".to_owned(),
            "  txn commit: 1 event(s) buffered".to_owned(),
            format!("  round 0: mapping-cell({source}→{target}, {strong} cells)"),
        ]
    );
    written
}

/// `load`, `load`, `match`, `accept`, `match` on one generated pair.
fn curate(source: &SchemaGraph, target: &SchemaGraph) -> (usize, usize) {
    let (src, tgt) = (source.id(), target.id());
    let mut shell = Shell::new();
    shell
        .execute(&format!("load er {src}"), Some(&to_er_text(source)))
        .unwrap();
    shell
        .execute(&format!("load er {tgt}"), Some(&to_er_text(target)))
        .unwrap();
    let first = match_once(&mut shell, src, tgt);
    // Accept the top undecided proposal.
    let proposals = shell
        .execute(&format!("proposals {src} {tgt} k 1 undecided"), None)
        .unwrap();
    let top = proposals.lines().nth(1).unwrap();
    let (row, rest) = top.split_once(" -> ").unwrap();
    let col = rest.split_whitespace().next().unwrap();
    let records = shell.manager().blackboard().provenance.len();
    let accepted = shell
        .execute(&format!("accept {src} {tgt} {row} {col}"), None)
        .unwrap();
    assert!(accepted.contains("event(s) propagated"), "{accepted}");
    // A user decision keeps its own record (and the mapper's code).
    let log = &shell.manager().blackboard().provenance.records()[records..];
    assert!(
        matches!(
            log[0].kind,
            ProvenanceKind::CellSet {
                user_defined: true,
                ..
            }
        ),
        "{}",
        log[0]
    );
    let second = match_once(&mut shell, src, tgt);
    (first, second)
}

#[test]
fn a_match_is_one_record_one_event_and_three_trace_lines() {
    // Four small generated models; the smallest and the largest.
    let registry = generate_registry(GeneratorConfig {
        models: 4,
        elements: 16,
        attributes: 90,
        domain_values: 24,
        ..GeneratorConfig::table1(11)
    });
    let mut models = registry.models.clone();
    models.sort_by_key(SchemaGraph::len);
    let (small, large) = (&models[0], models.last().unwrap());
    let mut sizes = Vec::new();
    for (i, model) in [small, large].into_iter().enumerate() {
        let pair = perturb_schema(model, &PerturbConfig::mild(i as u64 + 1));
        sizes.push(curate(&pair.source, &pair.target));
    }
    // The larger pair writes more cells per match, in the same
    // bookkeeping.
    assert!(sizes[0].0 < sizes[1].0, "{sizes:?}");
}

#[test]
fn a_match_that_writes_nothing_records_and_sends_nothing() {
    let mut shell = Shell::new();
    shell
        .execute("load er a", Some("entity A { x : text }"))
        .unwrap();
    shell
        .execute("load er b", Some("entity B { y : text }"))
        .unwrap();
    shell.execute("match a b", None).unwrap();
    // Decide every cell, so the next match has nothing to write.
    let (a, b) = (SchemaId::new("a"), SchemaId::new("b"));
    let bb = shell.manager().blackboard();
    let (sg, tg, m) = (
        bb.schema(&a).unwrap(),
        bb.schema(&b).unwrap(),
        bb.matrix(&a, &b).unwrap(),
    );
    let decisions: Vec<String> = m
        .rows()
        .iter()
        .flat_map(|&r| {
            m.cols()
                .iter()
                .map(move |&c| format!("reject a b {} {}", sg.name_path(r), tg.name_path(c)))
        })
        .collect();
    for decision in &decisions {
        shell.execute(decision, None).unwrap();
    }

    let manager = shell.manager_mut();
    let records = manager.blackboard().provenance.len();
    let lines = manager.trace().len();
    let report = manager
        .invoke(
            "harmony",
            &ToolArgs::new().with("source", "a").with("target", "b"),
        )
        .unwrap();
    assert_eq!(counts(&report.output), (0, 0), "{}", report.output);
    assert!(report.events.is_empty(), "{:?}", report.events);
    assert_eq!(manager.blackboard().provenance.len(), records);
    assert_eq!(
        &manager.trace()[lines..],
        ["invoke harmony", "  txn commit: 0 event(s) buffered"]
    );
}
