//! Restore, don't replay — the property behind image-based recovery:
//! a session restored from an image plus the journal suffix past it is
//! the session a replay from record 0 builds, byte for byte.
//!
//! Each case records the full command script of a curation replay
//! (loads, matches, proposal reads, accept/reject decisions and learned
//! re-matches, interleaved) over one of the four eval domains, adds two
//! matches that must change nothing — one over a missing sub-tree and
//! one past its deadline, each right after a decision not learned yet
//! — cuts it at a random point, and runs the prefix through a
//! journaled session that takes an image every `k` records for a
//! random `k`. The session is then recovered from its files — the last
//! image, plus at most `k - 1` replayed records — and compared with a
//! shell that replayed the prefix's journaled commands from record 0:
//! on every read (`export`, both forms of `proposals`, `weights`,
//! `show schema`, `show matrix`, `show coverage`, `show trace`,
//! `query`) and on its replies to the rest of the script. The live
//! session's reads, taken before the crash, must equal the recovered
//! session's too: a failed match is never journaled, so it must not
//! have changed the live session either.
//!
//! `match-config` is left out of the reads: it reports feature-cache
//! hit counters, which are process-local and not part of an image (a
//! restored engine starts with an empty cache; the cache never changes
//! what a match computes).

use iwb_core::shell::{mutates, Shell};
use iwb_core::ToolError;
use iwb_eval::domains::{
    generate_case, DomainKnobs, DomainSpec, CLINICAL, FINANCE, GEOSPATIAL, TELECOM,
};
use iwb_eval::replay::{run_replay, OracleConfig, ReplayTransport, ShellTransport};
use iwb_harmony::{Budget, CancelToken, Deadline};
use iwb_rng::StdRng;
use iwb_server::fault::FaultPlan;
use iwb_server::session::{SessionRegistry, StoreConfig};
use iwb_server::{ExecOutcome, JournalConfig, ServerStats};
use std::path::{Path, PathBuf};
use std::time::Duration;

type Command = (String, Option<String>);

/// A scripted command and the deadline it runs under (`None`: none).
type Step = (Command, Option<Duration>);

/// A shell transport that records every command it runs.
#[derive(Default)]
struct Recorder {
    shell: ShellTransport,
    script: Vec<Command>,
}

impl ReplayTransport for Recorder {
    fn execute(&mut self, command: &str, heredoc: Option<&str>) -> Result<String, String> {
        self.script
            .push((command.to_owned(), heredoc.map(str::to_owned)));
        self.shell.execute(command, heredoc)
    }
}

struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The recorded curation script for one domain and seed, and the
/// pair's schema ids.
fn curation_script(spec: &DomainSpec, seed: u64) -> (Vec<Command>, String, String) {
    let knobs = DomainKnobs {
        entities: 4,
        attrs_per_entity: 3.0,
        ..iwb_eval::default_knobs(spec)
    };
    let case = generate_case(spec, &knobs, seed);
    let mut recorder = Recorder::default();
    let config = OracleConfig {
        rounds: 3,
        k: 4,
        ..OracleConfig::default()
    };
    run_replay(&mut recorder, &case, &config).expect("the in-process replay completes");
    let src = case.pair.source.id().as_str().to_owned();
    let tgt = case.pair.target.id().as_str().to_owned();
    (recorder.script, src, tgt)
}

/// `script` with a match over a sub-tree that does not exist right
/// after its first decision, and a match past an expired deadline right
/// after its last. Each follows a decision no match has learned yet, so
/// a failed match that learned would show.
fn with_failing_matches(script: Vec<Command>, src: &str, tgt: &str) -> Vec<Step> {
    let decision = |(c, _): &Command| c.starts_with("accept ") || c.starts_with("reject ");
    let first = script
        .iter()
        .position(decision)
        .expect("the replay decides");
    let last = script
        .iter()
        .rposition(decision)
        .expect("the replay decides");
    let mut steps = Vec::new();
    for (i, command) in script.into_iter().enumerate() {
        steps.push((command, None));
        if i == first {
            let missing = format!("match {src} {tgt} subtree {src}/NOPE");
            steps.push(((missing, None), None));
        }
        if i == last {
            let expired = Some(Duration::ZERO);
            steps.push(((format!("match {src} {tgt}"), None), expired));
        }
    }
    steps
}

/// Whether `step` is one of [`with_failing_matches`]'s.
fn must_fail(((command, _), deadline): &Step) -> bool {
    deadline.is_some() || command.contains(" subtree ")
}

fn registry(dir: &Path, snapshot_every: u64) -> SessionRegistry {
    SessionRegistry::new(4, Duration::from_secs(3600))
        .with_journal(JournalConfig {
            fsync: false,
            ..JournalConfig::new(dir)
        })
        .with_store(StoreConfig {
            dir: dir.to_path_buf(),
            fsync: false,
            snapshot_every,
        })
}

/// Every read of the session's state.
fn reads(src: &str, tgt: &str) -> Vec<Step> {
    let reads = [
        "export".to_owned(),
        format!("proposals {src} {tgt} threshold 0.25"),
        format!("proposals {src} {tgt} undecided"),
        "weights".to_owned(),
        format!("show schema {src}"),
        format!("show schema {tgt}"),
        format!("show matrix {src} {tgt}"),
        "show coverage".to_owned(),
        "show trace".to_owned(),
        "query ?s ?p ?o".to_owned(),
    ];
    reads.into_iter().map(|r| ((r, None), None)).collect()
}

/// Every read, then the rest of the script, then every read again.
fn probes(src: &str, tgt: &str, rest: &[Step]) -> Vec<Step> {
    let reads = reads(src, tgt);
    reads.iter().chain(rest).chain(&reads).cloned().collect()
}

/// A session's reply as the shell's: `Err` carries the tool error.
fn reply(outcome: ExecOutcome, what: &str) -> Result<String, String> {
    match outcome {
        ExecOutcome::Output(out) => Ok(out),
        ExecOutcome::ToolError(e) => Err(e),
        ExecOutcome::Interrupted(why) => Err(ToolError::from(why).to_string()),
        other => panic!("{what}: {other:?}"),
    }
}

#[test]
fn an_image_plus_suffix_restores_what_a_replay_from_record_0_builds() {
    let domains = [CLINICAL, FINANCE, GEOSPATIAL, TELECOM];
    let mut rng = StdRng::seed_from_u64(0x1a9e);
    let stats = ServerStats::new();
    let none = FaultPlan::none();
    for (d, spec) in domains.iter().enumerate() {
        for seed in [11u64, 29, 47] {
            let (script, src, tgt) = curation_script(spec, seed);
            let script = with_failing_matches(script, &src, &tgt);
            let mutations = script.iter().filter(|((c, _), _)| mutates(c)).count();
            assert!(mutations > 4, "{}: {mutations} mutations", spec.name);
            // A cut past the two loads and the first match, and an
            // image cadence no larger than the prefix's journaled
            // mutations.
            let cut = rng.gen_range(4..=script.len());
            let case = format!("{} seed {seed}: cut {cut}/{}", spec.name, script.len());

            // The restored side: the prefix through a journaled
            // session, a crash, and a recovery from the files. A
            // command that fails is not journaled.
            let dir = TempDir(std::env::temp_dir().join(format!(
                "iwb-image-restore-{}-{d}-{seed}",
                std::process::id()
            )));
            let _ = std::fs::remove_dir_all(&dir.0);
            let before = script[..cut]
                .iter()
                .filter(|step| mutates(&step.0 .0) && !must_fail(step))
                .count() as u64;
            let every = rng.gen_range(1..=before.max(1));
            let case = format!("{case}, image every {every}");
            let live = registry(&dir.0, every);
            let session = live.create(Some("c")).unwrap();
            let mut journaled = Vec::new();
            for step in &script[..cut] {
                let ((command, heredoc), deadline) = step;
                let outcome = session.execute_command(
                    command,
                    heredoc.as_deref(),
                    &none,
                    3,
                    &stats,
                    *deadline,
                );
                let ok = matches!(outcome, ExecOutcome::Output(_));
                assert_eq!(ok, !must_fail(step), "{case}: {command}: {outcome:?}");
                if ok && mutates(command) {
                    journaled.push((command, heredoc));
                }
            }
            assert_eq!(journaled.len() as u64, before, "{case}");
            live.drain_snapshots();
            // What the live session reads just before the crash.
            let live_reads: Vec<Result<String, String>> = reads(&src, &tgt)
                .into_iter()
                .map(|((command, _), _)| {
                    reply(
                        session.execute_command(&command, None, &none, 3, &stats, None),
                        &case,
                    )
                })
                .collect();
            drop(session);
            drop(live);
            let fresh = registry(&dir.0, every);
            let report = fresh.recover(&stats).unwrap();
            assert_eq!(
                (report.sessions, report.replay_errors),
                (1, 0),
                "{case}: {report:?}"
            );
            assert_eq!(
                report.images,
                usize::from(before >= every),
                "{case}: {report:?}"
            );
            assert!((report.replayed as u64) < every, "{case}: {report:?}");
            let restored = fresh.get("c").unwrap();
            assert_eq!(restored.seq(), before, "{case}");

            // The control: a replay of the journaled prefix from record 0.
            let mut control = Shell::new();
            for (command, heredoc) in journaled {
                control.execute(command, heredoc.as_deref()).unwrap();
            }

            let expired = Budget::new(CancelToken::new(), Deadline::within(Duration::ZERO));
            for (i, ((command, heredoc), deadline)) in
                probes(&src, &tgt, &script[cut..]).into_iter().enumerate()
            {
                let budget = match deadline {
                    Some(_) => expired.clone(),
                    None => Budget::unlimited(),
                };
                let expected = control
                    .execute_with_budget(&command, heredoc.as_deref(), &budget)
                    .map_err(|e| e.to_string());
                let got = reply(
                    restored.execute_command(
                        &command,
                        heredoc.as_deref(),
                        &none,
                        3,
                        &stats,
                        deadline,
                    ),
                    &format!("{case}: {command}"),
                );
                assert_eq!(got, expected, "{case}: reply to {command:?} differs");
                if let Some(live) = live_reads.get(i) {
                    assert_eq!(live, &got, "{case}: the live session's {command:?} differs");
                }
            }
        }
    }
}
