//! A scriptable command shell over the workbench.
//!
//! The paper's workbench is driven through tool GUIs; headless
//! reproduction needs a command surface instead. [`run_script`]
//! interprets a small line language against one [`WorkbenchManager`],
//! returning the transcript. The `workbench` binary wraps it for
//! interactive or piped use.
//!
//! ```text
//! load <format> <schema-id> <<EOF … EOF      # task 1/2
//! match <source> <target> [subtree <path>]   # task 3 (automatic)
//! match-config [threads <n>] [cache on|off] [timeout <ms>]
//!                                             # engine parallelism/cache/deadline knobs
//! index-registry [seed <n>] [scale <f>] [threads <n>]
//!                                             # build the candidate index (no seed: blackboard)
//! find-candidates <query> [k] [rerank]        # top-k candidate models for a schema
//! accept <source> <target> <row> <col>       # task 3 (manual)
//! reject <source> <target> <row> <col>
//! bind <source> <target> <row> <variable>    # mapping
//! code <source> <target> <col> := <expr>     # mapping
//! generate <source> <target>                 # code generation
//! show schema <id> | matrix <source> <target> | coverage | trace
//! proposals <source> <target> [k <n>] [threshold <t>] [undecided]
//!                                             # ranked links (pure read; see iwb-eval)
//! weights                                     # engine re-weighting state (pure read)
//! query <s> <p> <o>                          # ad hoc IB query (use ?v for variables)
//! export                                     # Turtle dump
//! ```

use crate::manager::WorkbenchManager;
use crate::tool::{ToolArgs, ToolError};
use iwb_model::SchemaId;
use iwb_pool::Budget;
use iwb_rdf::{PatternTerm, Term, TriplePattern};
use std::fmt::Write;

/// A shell session holding the workbench and accumulating output.
pub struct Shell {
    manager: WorkbenchManager,
    /// Interruption budget attached to every tool invocation of the
    /// command currently executing (unlimited outside
    /// [`Shell::execute_with_budget`]).
    budget: Budget,
}

impl Default for Shell {
    fn default() -> Self {
        Shell {
            manager: WorkbenchManager::with_builtin_tools(),
            budget: Budget::unlimited(),
        }
    }
}

impl Shell {
    /// A shell over a fresh workbench with the built-in tools.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying manager.
    pub fn manager(&self) -> &WorkbenchManager {
        &self.manager
    }

    /// Mutable manager access, for hosts that capture or prime tool
    /// state around persistence (see [`crate::persist`]). Regular
    /// mutation goes through [`Shell::execute`].
    pub fn manager_mut(&mut self) -> &mut WorkbenchManager {
        &mut self.manager
    }

    /// Execute one command line (heredoc bodies are handled by
    /// [`run_script`]); returns the command's output text.
    ///
    /// # Panic safety
    ///
    /// `execute` itself never intentionally panics, but it runs tool
    /// code (see [`crate::tool::WorkbenchTool`]) that might. A panic
    /// can unwind out of a partially applied transaction, leaving the
    /// blackboard in an intermediate state; callers that must survive
    /// faulty tools (e.g. `iwb-server`) should wrap the call in
    /// [`std::panic::catch_unwind`] *inside* whatever lock guards the
    /// shell — so the lock is released cleanly instead of poisoned —
    /// and treat the session as suspect afterwards (the server
    /// quarantines it after repeated panics).
    pub fn execute(&mut self, line: &str, heredoc: Option<&str>) -> Result<String, ToolError> {
        self.execute_with_budget(line, heredoc, &Budget::unlimited())
    }

    /// [`Shell::execute`] under a cooperative interruption [`Budget`]
    /// (deadline and/or cancel token). The budget rides along on every
    /// tool invocation the command makes; an interrupted tool aborts
    /// with [`ToolError::Cancelled`] / [`ToolError::DeadlineExceeded`]
    /// before writing anything, so blackboard state is untouched.
    pub fn execute_with_budget(
        &mut self,
        line: &str,
        heredoc: Option<&str>,
        budget: &Budget,
    ) -> Result<String, ToolError> {
        self.budget = budget.clone();
        let result = self.dispatch(line, heredoc);
        self.budget = Budget::unlimited();
        result
    }

    /// Invoke a tool with the executing command's budget attached.
    fn invoke_tool(
        &mut self,
        tool: &str,
        args: ToolArgs,
    ) -> Result<crate::manager::InvokeReport, ToolError> {
        let args = args.with_budget(self.budget.clone());
        self.manager.invoke(tool, &args)
    }

    /// The `proposals` read: the engine's current link proposals for a
    /// matched pair, reconstructed from the blackboard matrix through
    /// the same link filters the evaluation harness uses
    /// ([`LinkFilter::BestPerElement`] + a confidence threshold), so a
    /// scripted oracle driving the shell (or the daemon) scores exactly
    /// what `iwb_eval::harness::predict` would. With `undecided`, the
    /// top-`k` machine suggestions awaiting a user decision instead —
    /// the list a curation replay accepts/rejects each round.
    fn proposals(
        &mut self,
        source: &str,
        target: &str,
        rest: &[&str],
    ) -> Result<String, ToolError> {
        use iwb_harmony::filters::{FilterSet, LinkFilter};
        use iwb_harmony::matrix::ScoreMatrix;
        const USAGE: &str =
            "usage: proposals <source> <target> [k <n>] [threshold <t>] [undecided]";
        let mut k = 10usize;
        let mut threshold = 0.25f64;
        let mut undecided = false;
        let mut it = rest.iter();
        while let Some(word) = it.next() {
            match *word {
                "k" => {
                    let v = it.next().ok_or_else(|| ToolError::Failed(USAGE.into()))?;
                    k = v
                        .parse()
                        .map_err(|_| ToolError::Failed(format!("k must be a number, got {v:?}")))?;
                }
                "threshold" => {
                    let v = it.next().ok_or_else(|| ToolError::Failed(USAGE.into()))?;
                    threshold = v.parse().map_err(|_| {
                        ToolError::Failed(format!("threshold must be a number, got {v:?}"))
                    })?;
                }
                "undecided" => undecided = true,
                other => {
                    return Err(ToolError::Failed(format!("{USAGE} — got {other:?}")));
                }
            }
        }
        let bb = self.manager.blackboard();
        let (s_id, t_id) = (SchemaId::new(source), SchemaId::new(target));
        let matrix = bb.matrix(&s_id, &t_id).ok_or_else(|| {
            ToolError::Failed("no matrix for that pair — run `match` first".into())
        })?;
        let s = bb
            .schema(&s_id)
            .ok_or_else(|| ToolError::UnknownSchema(s_id.to_string()))?;
        let t = bb
            .schema(&t_id)
            .ok_or_else(|| ToolError::UnknownSchema(t_id.to_string()))?;
        // Rebuild a score matrix over the mapping matrix's cells so the
        // harmony link filters apply verbatim (user decisions are ±1
        // raw scores, so `raw` preserves them exactly).
        let mut scores = ScoreMatrix::new(matrix.rows().to_vec(), matrix.cols().to_vec());
        let mut user = std::collections::HashSet::new();
        for &row in matrix.rows() {
            for &col in matrix.cols() {
                let cell = matrix.cell(row, col);
                scores.set(row, col, cell.confidence);
                if cell.user_defined {
                    user.insert((row, col));
                }
            }
        }
        let mut filters = FilterSet::new().with_link(LinkFilter::BestPerElement);
        if !undecided {
            filters = filters.with_link(LinkFilter::ConfidenceAtLeast(threshold));
        }
        let mut links = filters.visible(&scores, s, t, &user);
        if undecided {
            links.retain(|l| !l.user_defined && l.confidence.value() > 0.0);
        }
        // Deterministic order: confidence desc, then name paths —
        // confidences are clamped (never NaN) so the comparator is total.
        links.sort_by(|a, b| {
            b.confidence
                .value()
                .partial_cmp(&a.confidence.value())
                .expect("clamped confidences are never NaN")
                .then_with(|| s.name_path(a.src).cmp(&s.name_path(b.src)))
                .then_with(|| t.name_path(a.tgt).cmp(&t.name_path(b.tgt)))
        });
        if undecided {
            links.truncate(k);
        }
        let mut out = if undecided {
            format!(
                "proposals {source} -> {target}: {} undecided link(s) (top-{k})\n",
                links.len()
            )
        } else {
            format!(
                "proposals {source} -> {target}: {} link(s) (threshold {threshold})\n",
                links.len()
            )
        };
        for l in &links {
            let _ = writeln!(
                out,
                "{} -> {} {:+.6}{}",
                s.name_path(l.src),
                t.name_path(l.tgt),
                l.confidence.value(),
                if l.user_defined { " user" } else { "" }
            );
        }
        Ok(out)
    }

    fn dispatch(&mut self, line: &str, heredoc: Option<&str>) -> Result<String, ToolError> {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["load", format, schema_id, ..] => {
                let text = heredoc
                    .ok_or_else(|| ToolError::Failed("load requires a <<EOF … EOF body".into()))?;
                let report = self.invoke_tool(
                    "schema-loader",
                    ToolArgs::new()
                        .with("format", *format)
                        .with("text", text)
                        .with("schema-id", *schema_id),
                )?;
                Ok(report.output)
            }
            ["match", source, target] => {
                let report = self.invoke_tool(
                    "harmony",
                    ToolArgs::new()
                        .with("source", *source)
                        .with("target", *target),
                )?;
                Ok(report.output)
            }
            ["match", source, target, "subtree", path] => {
                let report = self.invoke_tool(
                    "harmony",
                    ToolArgs::new()
                        .with("source", *source)
                        .with("target", *target)
                        .with("subtree", *path),
                )?;
                Ok(report.output)
            }
            ["match-config", rest @ ..] => {
                let mut tool_args = ToolArgs::new().with("action", "configure");
                let mut it = rest.iter();
                while let Some(key) = it.next() {
                    let value = it.next().ok_or_else(|| {
                        ToolError::Failed(
                            "usage: match-config [threads <n>] [cache on|off] [timeout <ms>]"
                                .into(),
                        )
                    })?;
                    match *key {
                        "threads" | "cache" | "timeout" => tool_args = tool_args.with(*key, *value),
                        other => {
                            return Err(ToolError::Failed(format!(
                                "unknown match-config key {other:?} (threads, cache, timeout)"
                            )))
                        }
                    }
                }
                Ok(self.invoke_tool("harmony", tool_args)?.output)
            }
            ["index-registry", rest @ ..] => {
                let mut tool_args = ToolArgs::new().with("action", "index");
                let mut it = rest.iter();
                while let Some(key) = it.next() {
                    let value = it.next().ok_or_else(|| {
                        ToolError::Failed(
                            "usage: index-registry [seed <n>] [scale <f>] [threads <n>]".into(),
                        )
                    })?;
                    match *key {
                        "seed" | "scale" | "threads" => tool_args = tool_args.with(*key, *value),
                        other => {
                            return Err(ToolError::Failed(format!(
                                "unknown index-registry key {other:?} (seed, scale, threads)"
                            )))
                        }
                    }
                }
                Ok(self.invoke_tool("blocking", tool_args)?.output)
            }
            ["find-candidates", query, rest @ ..] => {
                let mut tool_args = ToolArgs::new().with("action", "find").with("query", *query);
                for word in rest {
                    match *word {
                        "rerank" => tool_args = tool_args.with("rerank", "on"),
                        k if k.parse::<usize>().is_ok() => tool_args = tool_args.with("k", k),
                        other => {
                            return Err(ToolError::Failed(format!(
                                "usage: find-candidates <query> [k] [rerank] — got {other:?}"
                            )))
                        }
                    }
                }
                Ok(self.invoke_tool("blocking", tool_args)?.output)
            }
            [action @ ("accept" | "reject"), source, target, row, col] => {
                let report = self.invoke_tool(
                    "harmony",
                    ToolArgs::new()
                        .with("action", *action)
                        .with("source", *source)
                        .with("target", *target)
                        .with("row", *row)
                        .with("col", *col),
                )?;
                Ok(format!(
                    "{} ({} event(s) propagated)",
                    report.output,
                    report.events.len()
                ))
            }
            ["bind", source, target, row, variable] => {
                let report = self.invoke_tool(
                    "aqualogic-mapper",
                    ToolArgs::new()
                        .with("action", "bind-variable")
                        .with("source", *source)
                        .with("target", *target)
                        .with("row", *row)
                        .with("variable", *variable),
                )?;
                Ok(report.output)
            }
            ["code", source, target, col, ":=", ..] => {
                let expr = line
                    .split_once(":=")
                    .map(|(_, rhs)| rhs.trim())
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| ToolError::Failed("empty code expression".into()))?;
                let report = self.invoke_tool(
                    "aqualogic-mapper",
                    ToolArgs::new()
                        .with("action", "set-code")
                        .with("source", *source)
                        .with("target", *target)
                        .with("col", *col)
                        .with("code", expr),
                )?;
                Ok(report.output)
            }
            ["generate", source, target] => {
                let report = self.invoke_tool(
                    "xquery-codegen",
                    ToolArgs::new()
                        .with("source", *source)
                        .with("target", *target),
                )?;
                Ok(report.output)
            }
            ["show", "schema", id] => {
                let schema = self
                    .manager
                    .blackboard()
                    .schema(&SchemaId::new(*id))
                    .ok_or_else(|| ToolError::UnknownSchema((*id).to_owned()))?;
                Ok(iwb_model::display::render(schema))
            }
            ["show", "matrix", source, target] => {
                let bb = self.manager.blackboard();
                let (s_id, t_id) = (SchemaId::new(*source), SchemaId::new(*target));
                let matrix = bb
                    .matrix(&s_id, &t_id)
                    .ok_or_else(|| ToolError::Failed("no matrix for that pair".into()))?;
                let s = bb
                    .schema(&s_id)
                    .ok_or_else(|| ToolError::UnknownSchema(s_id.to_string()))?;
                let t = bb
                    .schema(&t_id)
                    .ok_or_else(|| ToolError::UnknownSchema(t_id.to_string()))?;
                Ok(matrix.render(s, t))
            }
            ["proposals", source, target, rest @ ..] => self.proposals(source, target, rest),
            ["weights"] => {
                let tool = self
                    .manager
                    .tool_mut::<crate::tools::HarmonyTool>("harmony")
                    .ok_or_else(|| ToolError::Failed("harmony tool not installed".into()))?;
                let engine = tool.engine();
                let mut out = format!("weights: epoch={}\n", engine.corpus_epoch());
                for (name, weight) in engine.reweight_state() {
                    let _ = writeln!(out, "{name} {weight:?}");
                }
                Ok(out)
            }
            ["show", "coverage"] => Ok(self.manager.coverage()),
            ["show", "trace"] => Ok(self.manager.trace().join("\n")),
            ["query", s, p, o] => {
                let part = |w: &str| -> Result<PatternTerm, ToolError> {
                    if w.starts_with('?') {
                        let var = PatternTerm::var(w);
                        if var.as_var() == Some("") {
                            return Err(ToolError::Failed(format!(
                                "usage: query <s> <p> <o> — a variable needs a name (?v), got {w:?}"
                            )));
                        }
                        return Ok(var);
                    }
                    Ok(match w {
                        "true" => PatternTerm::Const(Term::boolean(true)),
                        "false" => PatternTerm::Const(Term::boolean(false)),
                        _ => match w.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
                            Some(lit) => PatternTerm::Const(Term::literal(lit)),
                            None => PatternTerm::Const(Term::iri(w)),
                        },
                    })
                };
                let pattern = TriplePattern::new(part(s)?, part(p)?, part(o)?);
                let (store, solutions) = self.manager.blackboard().query(&[pattern]);
                let mut out = format!("{} solution(s)\n", solutions.len());
                for sol in solutions.iter().take(20) {
                    let mut kv: Vec<String> = sol
                        .iter()
                        .map(|(k, &v)| format!("?{k} = {}", store.term(v)))
                        .collect();
                    kv.sort();
                    let _ = writeln!(out, "  {}", kv.join(", "));
                }
                Ok(out)
            }
            ["export"] => Ok(self.manager.blackboard().export_turtle()),
            [] => Ok(String::new()),
            _ => Err(ToolError::Failed(format!("unknown command: {line}"))),
        }
    }
}

/// The heredoc marker a command line ends with to open a body
/// (`load er po <<EOF`).
pub const HEREDOC_MARKER: &str = "<<EOF";

/// The line terminating a heredoc body.
pub const HEREDOC_END: &str = "EOF";

/// Whether a command line mutates blackboard state (as opposed to
/// `show`/`query`/`export` reads and blank/comment lines).
///
/// This is the single source of truth for what the server's session
/// journal must persist: replaying exactly the successful mutating
/// commands of a session, in order, rebuilds its state.
pub fn mutates(line: &str) -> bool {
    matches!(
        line.split_whitespace().next().unwrap_or(""),
        // `match-config` mutates no matrix, but it changes engine state
        // that later `match` commands depend on — replaying it keeps a
        // recovered session's configuration (and thus timing) faithful.
        // `index-registry` is the same shape: it writes no blackboard
        // state but later `find-candidates` depend on the index, and
        // replaying it rebuilds the index deterministically (seeded
        // generation, order-invariant build). `find-candidates` itself
        // is a pure read and stays out of the journal.
        "load"
            | "match"
            | "match-config"
            | "index-registry"
            | "accept"
            | "reject"
            | "bind"
            | "code"
            | "generate"
    )
}

/// If `line` opens a heredoc, the command part without the marker.
///
/// Shared by [`run_script`] and the `iwb-server` connection loop so
/// the wire protocol and the script language stay identical.
pub fn heredoc_start(line: &str) -> Option<&str> {
    line.trim().strip_suffix(HEREDOC_MARKER).map(str::trim)
}

/// The outcome of running a script: the transcript plus how many
/// commands failed (scripted sessions are CI-checkable through the
/// error count — the `workbench` binary exits nonzero on it).
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The interleaved `> command` / output transcript.
    pub transcript: String,
    /// Commands executed (comments and blank lines excluded).
    pub commands: usize,
    /// Commands that returned an error.
    pub errors: usize,
}

/// Run a whole script (commands separated by newlines; a trailing
/// `<<EOF` on a command starts a heredoc terminated by a line holding
/// only `EOF`). Lines starting with `#` are comments. Errors are
/// reported in the transcript and do not abort the script.
pub fn run_script(script: &str) -> String {
    run_script_counted(script).transcript
}

/// [`run_script`] with the error count, on a fresh workbench.
pub fn run_script_counted(script: &str) -> ScriptOutcome {
    Shell::new().run_on(script)
}

impl Shell {
    /// Run a script against *this* shell (state accumulates across
    /// calls), returning the transcript and error count.
    pub fn run_on(&mut self, script: &str) -> ScriptOutcome {
        let mut outcome = ScriptOutcome {
            transcript: String::new(),
            commands: 0,
            errors: 0,
        };
        let mut lines = script.lines();
        while let Some(line) = lines.next() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (command, heredoc) = match heredoc_start(trimmed) {
                Some(cmd) => {
                    let mut body = String::new();
                    for body_line in lines.by_ref() {
                        if body_line.trim() == HEREDOC_END {
                            break;
                        }
                        body.push_str(body_line);
                        body.push('\n');
                    }
                    (cmd.to_owned(), Some(body))
                }
                None => (trimmed.to_owned(), None),
            };
            outcome.commands += 1;
            let _ = writeln!(outcome.transcript, "> {command}");
            match self.execute(&command, heredoc.as_deref()) {
                Ok(out) => {
                    for l in out.lines() {
                        let _ = writeln!(outcome.transcript, "  {l}");
                    }
                }
                Err(e) => {
                    outcome.errors += 1;
                    let _ = writeln!(outcome.transcript, "  error: {e}");
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = r#"
# load two tiny schemata
load er left <<EOF
entity A "Left entity." { x : text "The x attribute." }
EOF
load er right <<EOF
entity B "Right entity." { y : text "The y attribute." }
EOF
match left right
accept left right left/A/x right/B/y
bind left right left/A shipvar
code left right right/B/y := data($shipvar/x)
generate left right
show matrix left right
query ?cell iwb:is-user-defined true
show coverage
"#;

    #[test]
    fn full_script_runs_without_errors() {
        let transcript = run_script(SCRIPT);
        assert!(!transcript.contains("error:"), "{transcript}");
        assert!(transcript.contains("loaded left"));
        assert!(transcript.contains("cells updated"));
        assert!(transcript.contains("event(s) propagated"));
        assert!(transcript.contains("variable=shipvar"));
        assert!(transcript.contains("confidence=+1.00 user-defined=true"));
        assert!(transcript.contains("1 solution(s)"));
        assert!(transcript.contains("generate semantic correspondences"));
    }

    #[test]
    fn unknown_commands_report_but_do_not_abort() {
        let transcript = run_script("frobnicate\nshow coverage\n");
        assert!(transcript.contains("error: unknown command"));
        assert!(transcript.contains("task"), "later commands still run");
    }

    #[test]
    fn counted_outcome_tracks_commands_and_errors() {
        let outcome = run_script_counted("frobnicate\nshow coverage\n# comment\n\n");
        assert_eq!(outcome.commands, 2);
        assert_eq!(outcome.errors, 1);
        let clean = run_script_counted("show coverage\n");
        assert_eq!((clean.commands, clean.errors), (1, 0));
    }

    #[test]
    fn run_on_accumulates_state_across_calls() {
        let mut shell = Shell::new();
        let first = shell.run_on("load er s <<EOF\nentity E { f : text }\nEOF\n");
        assert_eq!(first.errors, 0);
        let second = shell.run_on("show schema s\n");
        assert_eq!(second.errors, 0);
        assert!(second.transcript.contains("[contains-entity] E"));
    }

    #[test]
    fn heredoc_start_strips_marker() {
        assert_eq!(heredoc_start("load er po <<EOF"), Some("load er po"));
        assert_eq!(heredoc_start("  load er po <<EOF  "), Some("load er po"));
        assert_eq!(heredoc_start("show coverage"), None);
    }

    #[test]
    fn heredoc_missing_terminator_at_eof_takes_rest_of_script() {
        // No closing EOF line: the body runs to end of input, and the
        // command still executes (scripts truncated by a crash degrade
        // to a best-effort load rather than a hang).
        let outcome = run_script_counted("load er s <<EOF\nentity E { f : text }");
        assert_eq!((outcome.commands, outcome.errors), (1, 0));
        assert!(
            outcome.transcript.contains("loaded s"),
            "{}",
            outcome.transcript
        );
    }

    #[test]
    fn heredoc_terminator_tolerates_trailing_whitespace() {
        let outcome =
            run_script_counted("load er s <<EOF\nentity E { f : text }\nEOF   \nshow schema s\n");
        assert_eq!((outcome.commands, outcome.errors), (2, 0));
        assert!(outcome.transcript.contains("[contains-entity] E"));
    }

    #[test]
    fn heredoc_empty_body_loads_an_empty_schema() {
        let outcome = run_script_counted("load er s <<EOF\nEOF\n");
        assert_eq!((outcome.commands, outcome.errors), (1, 0));
        assert!(
            outcome.transcript.contains("loaded s (er, 1 elements"),
            "{}",
            outcome.transcript
        );
    }

    #[test]
    fn mutates_classifies_the_shell_language() {
        for cmd in [
            "load er po <<EOF",
            "match a b",
            "match-config threads 4",
            "index-registry seed 7 scale 0.01",
            "accept a b r c",
            "reject a b r c",
            "bind a b r v",
            "code a b c := x",
            "generate a b",
        ] {
            assert!(mutates(cmd), "{cmd} should mutate");
        }
        for cmd in [
            "show coverage",
            "query ? ? ?",
            "export",
            "",
            "# note",
            // Pure read: replay rebuilds the index from the journaled
            // `index-registry` line, so the query itself is not logged.
            "find-candidates q 5",
            // Pure reads over existing match state: replay rebuilds the
            // matrix (and the learned weights) from the journaled
            // `match`/`accept`/`reject` lines.
            "proposals a b k 5 undecided",
            "weights",
        ] {
            assert!(!mutates(cmd), "{cmd} should not mutate");
        }
    }

    #[test]
    fn proposals_lists_ranked_links_and_weights_reports_state() {
        let mut shell = Shell::new();
        let load = shell.run_on(
            "load er a <<EOF\nentity CUSTOMER \"A customer.\" { cust_name : text \"Name.\" }\nEOF\n\
             load er b <<EOF\nentity client \"A client.\" { client_name : text \"Name.\" }\nEOF\n\
             match a b\n",
        );
        assert_eq!(load.errors, 0, "{}", load.transcript);
        let all = shell.execute("proposals a b threshold 0.0", None).unwrap();
        assert!(all.contains("link(s) (threshold 0)"), "{all}");
        assert!(all.contains(" -> "), "{all}");
        let undecided = shell.execute("proposals a b k 2 undecided", None).unwrap();
        assert!(
            undecided.contains("undecided link(s) (top-2)"),
            "{undecided}"
        );
        assert!(!undecided.contains(" user"), "{undecided}");
        // A user decision shows up as `user` in the threshold view and
        // leaves the undecided view.
        shell
            .execute("accept a b a/CUSTOMER/cust_name b/client/client_name", None)
            .unwrap();
        let after = shell.execute("proposals a b threshold 0.5", None).unwrap();
        assert!(
            after.contains("a/CUSTOMER/cust_name -> b/client/client_name +1.000000 user"),
            "{after}"
        );
        let undecided = shell.execute("proposals a b k 10 undecided", None).unwrap();
        assert!(
            !undecided.contains("a/CUSTOMER/cust_name -> b/client/client_name"),
            "{undecided}"
        );
        let weights = shell.execute("weights", None).unwrap();
        assert!(weights.contains("weights: epoch="), "{weights}");
        assert!(weights.contains("name 1.0"), "{weights}");
        // Errors are structured.
        let err = shell.execute("proposals a b k", None).unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
        let err = shell.execute("proposals a b sideways", None).unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
        let err = shell
            .execute("proposals a nope threshold 0.1", None)
            .unwrap_err();
        assert!(err.to_string().contains("no matrix"), "{err}");
    }

    #[test]
    fn index_registry_and_find_candidates_round_trip() {
        let mut shell = Shell::new();
        let load = shell.run_on(
            "load er q <<EOF\nentity VENDOR { vendor_id : text }\nEOF\n\
             load er other <<EOF\nentity EMPLOYEE { emp_nbr : text }\nEOF\n",
        );
        assert_eq!(load.errors, 0, "{}", load.transcript);
        // No seed: index the blackboard's own schemas.
        let indexed = shell.execute("index-registry", None).unwrap();
        assert!(indexed.contains("blackboard snapshot"), "{indexed}");
        let found = shell.execute("find-candidates q 1", None).unwrap();
        assert!(found.contains("top-1, blocking only"), "{found}");
        // The query schema itself is its own best candidate.
        assert!(found.contains("1. q"), "{found}");
        let reranked = shell.execute("find-candidates q 2 rerank", None).unwrap();
        assert!(reranked.contains("reranked by full engine"), "{reranked}");
    }

    #[test]
    fn index_registry_generates_a_seeded_repository() {
        let mut shell = Shell::new();
        let load = shell.run_on("load er q <<EOF\nentity AIRCRAFT { acft_cd : text }\nEOF\n");
        assert_eq!(load.errors, 0, "{}", load.transcript);
        let indexed = shell
            .execute("index-registry seed 7 scale 0.02", None)
            .unwrap();
        assert!(indexed.contains("generated registry (seed 7"), "{indexed}");
        let found = shell.execute("find-candidates q 3", None).unwrap();
        assert!(found.contains("candidate(s) for q"), "{found}");
        let err = shell.execute("index-registry seed", None).unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
        let err = shell.execute("index-registry epoch 9", None).unwrap_err();
        assert!(err.to_string().contains("unknown index-registry key"));
        let err = shell
            .execute("find-candidates q sideways", None)
            .unwrap_err();
        assert!(err.to_string().contains("usage"), "{err}");
    }

    #[test]
    fn match_config_shows_and_sets_engine_knobs() {
        let mut shell = Shell::new();
        let shown = shell.execute("match-config", None).unwrap();
        assert!(shown.contains("threads=1"), "{shown}");
        assert!(shown.contains("cache=on"), "{shown}");
        assert!(shown.contains("timeout=none"), "{shown}");
        let set = shell
            .execute("match-config threads 4 cache off timeout 2500", None)
            .unwrap();
        assert!(set.contains("threads=4"), "{set}");
        assert!(set.contains("cache=off"), "{set}");
        assert!(set.contains("timeout=2500ms"), "{set}");
        let cleared = shell.execute("match-config timeout 0", None).unwrap();
        assert!(cleared.contains("timeout=none"), "{cleared}");
        let err = shell.execute("match-config cache maybe", None).unwrap_err();
        assert!(err.to_string().contains("on or off"));
        let err = shell.execute("match-config threads", None).unwrap_err();
        assert!(err.to_string().contains("usage"));
        let err = shell.execute("match-config flux 9", None).unwrap_err();
        assert!(err.to_string().contains("unknown match-config key"));
        let err = shell
            .execute("match-config timeout never", None)
            .unwrap_err();
        assert!(err.to_string().contains("milliseconds"));
    }

    #[test]
    fn execute_with_budget_cancels_cooperative_commands() {
        use iwb_pool::{CancelToken, Deadline};
        let mut shell = Shell::new();
        let load = shell.run_on(
            "load er a <<EOF\nentity A { x : text }\nEOF\nload er b <<EOF\nentity B { y : text }\nEOF\n",
        );
        assert_eq!(load.errors, 0, "{}", load.transcript);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::new(token, Deadline::none());
        let err = shell
            .execute_with_budget("match a b", None, &budget)
            .unwrap_err();
        assert_eq!(err, ToolError::Cancelled);
        // The budget does not leak into the next (plain) command.
        let out = shell.execute("match a b", None).unwrap();
        assert!(out.contains("cells updated"), "{out}");
    }

    #[test]
    fn load_without_heredoc_is_an_error() {
        let mut shell = Shell::new();
        let err = shell.execute("load er x", None).unwrap_err();
        assert!(err.to_string().contains("EOF"));
    }

    #[test]
    fn show_schema_renders() {
        let transcript = run_script("load er s <<EOF\nentity E { f : text }\nEOF\nshow schema s\n");
        assert!(transcript.contains("[contains-entity] E"));
        assert!(transcript.contains("[contains-attribute] f"));
    }

    #[test]
    fn query_rejects_unnamed_variables_and_binds_named_ones() {
        let mut shell = Shell::new();
        shell
            .execute("load er a", Some("entity A { x : text }\n"))
            .unwrap();
        shell
            .execute("load er b", Some("entity B { y : text }\n"))
            .unwrap();
        let err = shell.execute("query ? ? ?", None).unwrap_err();
        assert!(err.to_string().contains("usage: query"), "{err}");
        let out = shell.execute("query ?s ?p ?o", None).unwrap();
        let (count, _) = out.split_once(' ').unwrap();
        assert!(count.parse::<usize>().unwrap() >= 1, "{out}");
        let first = out.lines().nth(1).unwrap();
        for var in ["?s = ", "?p = ", "?o = "] {
            assert!(first.contains(var), "{var} unbound in {first:?}");
        }
    }

    #[test]
    fn export_emits_turtle() {
        let transcript = run_script("load er s <<EOF\nentity E { f : text }\nEOF\nexport\n");
        assert!(transcript.contains("iwb:schema/s rdf:type iwb:Schema ."));
    }
}
