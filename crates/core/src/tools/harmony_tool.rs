//! Harmony wrapped as a workbench tool.
//!
//! Supports both modes of §5.2.1: "Schema matching can be performed
//! manually, as is the case for most commercial tools, or
//! semi-automatically. (Harmony supports both approaches.) A match tool
//! updates the cells of the mapping matrix."

use crate::blackboard::Blackboard;
use crate::event::{EventKind, WorkbenchEvent};
use crate::taskmodel::Task;
use crate::tool::{ToolArgs, ToolError, ToolKind, WorkbenchTool};
use iwb_harmony::{Budget, Confidence, HarmonyEngine};
use iwb_model::{ElementPath, SchemaId};
use iwb_store::artifacts::{decode_engine_state, encode_engine_state};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Only cells at/above this magnitude are listed in a match's
/// mapping-cell event (the full matrix is still written to the IB).
const EVENT_THRESHOLD: f64 = 0.5;

/// The Harmony matcher as a tool. The engine persists across
/// invocations so learning (§4.3) carries forward: it keeps, per schema
/// pair, the decisions already learned and the votes they are learned
/// against ([`HarmonyEngine::rematch`]).
#[derive(Default)]
pub struct HarmonyTool {
    engine: HarmonyEngine,
}

impl HarmonyTool {
    /// A tool with the default engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the engine (e.g. for weight inspection in experiments).
    pub fn engine(&self) -> &HarmonyEngine {
        &self.engine
    }

    /// Mutable engine access (e.g. to install a thesaurus or tune the
    /// match configuration programmatically).
    pub fn engine_mut(&mut self) -> &mut HarmonyEngine {
        &mut self.engine
    }

    /// The `configure` action: adjust `threads` / `cache` / `timeout`
    /// and report the resulting [`iwb_harmony::MatchConfig`] plus cache
    /// counters.
    fn configure(&mut self, args: &ToolArgs) -> Result<String, ToolError> {
        let mut config = self.engine.match_config();
        if let Some(t) = args.get("threads") {
            config.threads = t
                .parse()
                .map_err(|_| ToolError::Failed(format!("threads must be a number, got {t:?}")))?;
        }
        if let Some(c) = args.get("cache") {
            config.cache = match c {
                "on" => true,
                "off" => false,
                other => {
                    return Err(ToolError::Failed(format!(
                        "cache must be on or off, got {other:?}"
                    )))
                }
            };
        }
        if let Some(ms) = args.get("timeout") {
            let ms: u64 = ms.parse().map_err(|_| {
                ToolError::Failed(format!("timeout must be milliseconds, got {ms:?}"))
            })?;
            // `timeout 0` clears the per-run deadline.
            config.timeout_ms = (ms > 0).then_some(ms);
        }
        self.engine.set_match_config(config);
        let stats = self.engine.cache_stats();
        Ok(format!(
            "match-config: threads={} (effective {}), cache={}, timeout={}; \
             context cache {} hit(s) / {} miss(es), text cache {} hit(s) / {} miss(es)",
            config.threads,
            self.engine.effective_threads(),
            if config.cache { "on" } else { "off" },
            match config.timeout_ms {
                Some(ms) => format!("{ms}ms"),
                None => "none".to_owned(),
            },
            stats.context_hits,
            stats.context_misses,
            stats.text_hits,
            stats.text_misses,
        ))
    }

    fn resolve(
        bb: &Blackboard,
        schema: &SchemaId,
        path: &str,
    ) -> Result<iwb_model::ElementId, ToolError> {
        let graph = bb
            .schema(schema)
            .ok_or_else(|| ToolError::UnknownSchema(schema.to_string()))?;
        ElementPath::parse(path)
            .resolve(graph)
            .ok_or_else(|| ToolError::Failed(format!("path {path:?} not found in {schema}")))
    }

    fn run_match(
        &mut self,
        bb: &mut Blackboard,
        source: &SchemaId,
        target: &SchemaId,
        subtree: Option<&str>,
        budget: &Budget,
        events: &mut Vec<WorkbenchEvent>,
    ) -> Result<String, ToolError> {
        let src_graph = bb
            .schema(source)
            .ok_or_else(|| ToolError::UnknownSchema(source.to_string()))?;
        let tgt_graph = bb
            .schema(target)
            .ok_or_else(|| ToolError::UnknownSchema(target.to_string()))?;
        // Sub-tree restriction (§5.3: "she can choose a sub-tree
        // (including an entire schema) and request recommended matches").
        let scope: Option<HashSet<iwb_model::ElementId>> = match subtree {
            Some(path) => {
                let root = Self::resolve(bb, source, path)?;
                Some(src_graph.subtree(root).into_iter().collect())
            }
            None => None,
        };
        // Locked cells: existing user decisions in the matrix. The
        // matrix itself is only ensured *after* the engine completes —
        // an aborted run must leave the blackboard untouched, without
        // even an empty matrix as a trace.
        let locked: HashMap<_, _> = bb
            .matrix(source, target)
            .map(|m| {
                m.user_cells()
                    .map(|(row, col, c)| ((row, col), c))
                    .collect()
            })
            .unwrap_or_default();

        // The effective budget is the host's (per-command deadline,
        // cancel token) tightened by the engine's own configured
        // per-run timeout — whichever expires first wins. The re-match
        // step learns from new decisions (§4.3) and runs the engine; an
        // abort returns here before any cell is written and leaves the
        // engine's learned state as it was, so the session is exactly
        // as if the command had not run.
        let budget = budget.tightened(
            self.engine
                .match_config()
                .timeout_ms
                .map(Duration::from_millis),
        );
        let result = self
            .engine
            .rematch(src_graph, tgt_graph, &locked, &budget)
            .map_err(ToolError::from)?;
        bb.ensure_matrix(source, target);
        let m = &result.matrix;
        let cols = m.tgt_ids().len();
        let cells = m
            .src_ids()
            .iter()
            .enumerate()
            .filter(|(_, row)| scope.as_ref().is_none_or(|scope| scope.contains(row)))
            .flat_map(|(r, &row)| {
                m.tgt_ids()
                    .iter()
                    .enumerate()
                    .map(move |(c, &col)| (row, col, Confidence::raw(m.scores()[r * cols + c])))
            })
            .filter(|&(row, col, _)| !locked.contains_key(&(row, col)));
        // The run is one unit of bookkeeping: one provenance record and
        // one mapping-cell event listing its strong cells.
        let mut strong = Vec::new();
        let written = bb.suggest_cells(self.name(), source, target, cells, |row, col, c| {
            if c.magnitude() >= EVENT_THRESHOLD {
                strong.push((row, col));
            }
        });
        let emitted = strong.len();
        if emitted > 0 {
            events.push(WorkbenchEvent::MappingCell {
                source: source.clone(),
                target: target.clone(),
                cells: strong,
            });
        }
        Ok(format!(
            "matched {source} → {target}: {written} cells updated, {emitted} above display threshold"
        ))
    }
}

impl WorkbenchTool for HarmonyTool {
    fn name(&self) -> &'static str {
        "harmony"
    }

    fn kind(&self) -> ToolKind {
        ToolKind::Matcher
    }

    fn capabilities(&self) -> Vec<Task> {
        // §5.3: "Both tools support schema loading and manual matching.
        // Harmony also supports automated matching, but neither mapping
        // nor code generation."
        vec![Task::ObtainSourceSchemata, Task::GenerateCorrespondences]
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        // A (re)imported schema invalidates everything derived from its
        // elements: cached linguistic features and prior match results.
        vec![EventKind::SchemaGraph]
    }

    fn on_event(
        &mut self,
        _blackboard: &mut Blackboard,
        event: &WorkbenchEvent,
        _events: &mut Vec<WorkbenchEvent>,
    ) {
        if let WorkbenchEvent::SchemaGraph { schema } = event {
            self.engine.forget_schema(schema);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// The engine's learned state, with the decisions already learned
    /// and the votes they are learned against, per pair.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        encode_engine_state(&mut w, &self.engine.state());
        Some(w.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8], _blackboard: &Blackboard) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        self.engine.restore_state(decode_engine_state(&mut r)?);
        Ok(())
    }

    /// Arguments: `action` = `match` (default) | `accept` | `reject` |
    /// `configure`; `source`, `target`; for match: optional `subtree`
    /// (source path); for accept/reject: `row` and `col` paths; for
    /// configure: optional `threads` (0 = auto), `cache` (`on`/`off`),
    /// and `timeout` (per-run deadline in ms, 0 = none). A `match` also
    /// honours the invocation's [`ToolArgs::budget`].
    fn invoke(
        &mut self,
        blackboard: &mut Blackboard,
        args: &ToolArgs,
        events: &mut Vec<WorkbenchEvent>,
    ) -> Result<String, ToolError> {
        if args.get("action") == Some("configure") {
            return self.configure(args);
        }
        let source = SchemaId::new(args.require("source")?);
        let target = SchemaId::new(args.require("target")?);
        match args.get("action").unwrap_or("match") {
            "match" => self.run_match(
                blackboard,
                &source,
                &target,
                args.get("subtree"),
                args.budget(),
                events,
            ),
            action @ ("accept" | "reject") => {
                let row = Self::resolve(blackboard, &source, args.require("row")?)?;
                let col = Self::resolve(blackboard, &target, args.require("col")?)?;
                blackboard.ensure_matrix(&source, &target);
                let confidence = if action == "accept" {
                    Confidence::ACCEPT
                } else {
                    Confidence::REJECT
                };
                blackboard.set_cell(self.name(), &source, &target, row, col, confidence, true);
                // "A mapping-cell event is generated when a user
                // manually establishes a correspondence."
                events.push(WorkbenchEvent::MappingCell {
                    source,
                    target,
                    cells: vec![(row, col)],
                });
                Ok(format!("{action}ed {row} × {col}"))
            }
            other => Err(ToolError::Failed(format!("unknown action {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_loaders::xsd::{FIG2_SOURCE_XSD, FIG2_TARGET_XSD};
    use iwb_loaders::{SchemaLoader, XsdLoader};

    fn loaded_bb() -> (Blackboard, SchemaId, SchemaId) {
        let mut bb = Blackboard::new();
        bb.put_schema(XsdLoader.load(FIG2_SOURCE_XSD, "purchaseOrder").unwrap());
        bb.put_schema(XsdLoader.load(FIG2_TARGET_XSD, "invoice").unwrap());
        (bb, SchemaId::new("purchaseOrder"), SchemaId::new("invoice"))
    }

    #[test]
    fn automatic_match_fills_matrix_and_emits_events() {
        let (mut bb, po, inv) = loaded_bb();
        let mut tool = HarmonyTool::new();
        let mut events = Vec::new();
        let args = ToolArgs::new()
            .with("source", "purchaseOrder")
            .with("target", "invoice");
        let out = tool.invoke(&mut bb, &args, &mut events).unwrap();
        assert!(out.contains("cells updated"));
        // One event for the run, listing its strong links.
        let [WorkbenchEvent::MappingCell { cells, .. }] = events.as_slice() else {
            panic!("one mapping-cell event per match, got {events:?}");
        };
        assert!(out.contains(&format!(", {} above display threshold", cells.len())));
        assert_eq!(bb.provenance.len(), 1);
        let matrix = bb.matrix(&po, &inv).unwrap();
        let s = bb.schema(&po).unwrap();
        let t = bb.schema(&inv).unwrap();
        let ship = s.find_by_name("shipTo").unwrap();
        let info = t.find_by_name("shippingInfo").unwrap();
        assert!(matrix.cell(ship, info).confidence.value() > 0.3);
    }

    #[test]
    fn manual_decisions_lock_cells_across_reruns() {
        let (mut bb, po, inv) = loaded_bb();
        let mut tool = HarmonyTool::new();
        let mut events = Vec::new();
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("action", "reject")
                .with("source", "purchaseOrder")
                .with("target", "invoice")
                .with("row", "purchaseOrder/purchaseOrder/shipTo/firstName")
                .with("col", "invoice/invoice/shippingInfo/total"),
            &mut events,
        )
        .unwrap();
        // Re-run the engine: the rejected cell must stay -1.
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("source", "purchaseOrder")
                .with("target", "invoice"),
            &mut events,
        )
        .unwrap();
        let s = bb.schema(&po).unwrap();
        let t = bb.schema(&inv).unwrap();
        let row = s.find_by_name("firstName").unwrap();
        let col = t.find_by_name("total").unwrap();
        let cell = bb.matrix(&po, &inv).unwrap().cell(row, col);
        assert_eq!(cell.confidence, Confidence::REJECT);
        assert!(cell.user_defined);
    }

    #[test]
    fn subtree_restriction_scopes_updates() {
        let (mut bb, po, inv) = loaded_bb();
        let mut tool = HarmonyTool::new();
        let mut events = Vec::new();
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("source", "purchaseOrder")
                .with("target", "invoice")
                .with("subtree", "purchaseOrder/purchaseOrder/shipTo"),
            &mut events,
        )
        .unwrap();
        let s = bb.schema(&po).unwrap();
        let matrix = bb.matrix(&po, &inv).unwrap();
        // The top-level purchaseOrder element is outside the subtree and
        // must remain untouched (unknown).
        let top = s.find_by_name("purchaseOrder").unwrap();
        let t = bb.schema(&inv).unwrap();
        let info = t.find_by_name("shippingInfo").unwrap();
        assert_eq!(matrix.cell(top, info).confidence, Confidence::UNKNOWN);
        // Inside the subtree, cells were written.
        let ship = s.find_by_name("shipTo").unwrap();
        assert_ne!(matrix.cell(ship, info).confidence, Confidence::UNKNOWN);
    }

    #[test]
    fn configure_action_sets_threads_and_cache() {
        let mut bb = Blackboard::new();
        let mut tool = HarmonyTool::new();
        let shown = tool
            .invoke(
                &mut bb,
                &ToolArgs::new().with("action", "configure"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(shown.contains("threads=1"), "{shown}");
        assert!(shown.contains("cache=on"), "{shown}");
        let set = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("threads", "4")
                    .with("cache", "off"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(set.contains("threads=4"), "{set}");
        assert!(set.contains("cache=off"), "{set}");
        assert_eq!(tool.engine().match_config().threads, 4);
        assert!(!tool.engine().match_config().cache);
        let err = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("cache", "maybe"),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("on or off"));
    }

    #[test]
    fn configure_action_sets_and_clears_the_timeout() {
        let mut bb = Blackboard::new();
        let mut tool = HarmonyTool::new();
        let shown = tool
            .invoke(
                &mut bb,
                &ToolArgs::new().with("action", "configure"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(shown.contains("timeout=none"), "{shown}");
        let set = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("timeout", "1500"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(set.contains("timeout=1500ms"), "{set}");
        assert_eq!(tool.engine().match_config().timeout_ms, Some(1500));
        let cleared = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("timeout", "0"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(cleared.contains("timeout=none"), "{cleared}");
        assert_eq!(tool.engine().match_config().timeout_ms, None);
        let err = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("timeout", "soon"),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("milliseconds"));
    }

    #[test]
    fn cancelled_match_aborts_and_leaves_the_matrix_untouched() {
        use iwb_harmony::{CancelToken, Deadline};
        let (mut bb, po, inv) = loaded_bb();
        let mut tool = HarmonyTool::new();
        let token = CancelToken::new();
        token.cancel();
        let args = ToolArgs::new()
            .with("source", "purchaseOrder")
            .with("target", "invoice")
            .with_budget(Budget::new(token, Deadline::none()));
        let err = tool.invoke(&mut bb, &args, &mut Vec::new()).unwrap_err();
        assert_eq!(err, ToolError::Cancelled);
        assert!(
            bb.matrix(&po, &inv).is_none(),
            "an aborted match must not leave even an empty matrix behind"
        );
    }

    #[test]
    fn expired_configured_timeout_aborts_the_match() {
        let (mut bb, _, _) = loaded_bb();
        let mut tool = HarmonyTool::new();
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("action", "configure")
                .with("timeout", "1"),
            &mut Vec::new(),
        )
        .unwrap();
        // A 1ms deadline expires while the engine builds its context,
        // well before any cell is written.
        std::thread::sleep(Duration::from_millis(5));
        let args = ToolArgs::new()
            .with("source", "purchaseOrder")
            .with("target", "invoice");
        // The deadline starts at run time, not configure time, so spin
        // until the clock has visibly advanced past 1ms inside the run:
        // with such a tight budget the very first check can only pass
        // on an absurdly fast machine, in which case later stage checks
        // still fire. Either way the result must be a structured abort
        // or a completed, fully-written run — never a partial one.
        match tool.invoke(&mut bb, &args, &mut Vec::new()) {
            Err(ToolError::DeadlineExceeded) => {}
            Ok(out) => assert!(out.contains("cells updated"), "{out}"),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn generous_timeout_matches_identically_to_none() {
        let (mut bb1, po, inv) = loaded_bb();
        let (mut bb2, _, _) = loaded_bb();
        let mut plain = HarmonyTool::new();
        let args = ToolArgs::new()
            .with("source", "purchaseOrder")
            .with("target", "invoice");
        plain.invoke(&mut bb1, &args, &mut Vec::new()).unwrap();
        let mut timed = HarmonyTool::new();
        timed
            .invoke(
                &mut bb2,
                &ToolArgs::new()
                    .with("action", "configure")
                    .with("timeout", "3600000"),
                &mut Vec::new(),
            )
            .unwrap();
        timed.invoke(&mut bb2, &args, &mut Vec::new()).unwrap();
        let m1 = bb1.matrix(&po, &inv).unwrap();
        let m2 = bb2.matrix(&po, &inv).unwrap();
        for &row in m1.rows() {
            for &col in m1.cols() {
                assert_eq!(
                    m1.cell(row, col).confidence.value().to_bits(),
                    m2.cell(row, col).confidence.value().to_bits(),
                    "unexpired deadline must not change results"
                );
            }
        }
    }

    #[test]
    fn schema_graph_event_invalidates_the_feature_cache() {
        let (mut bb, po, inv) = loaded_bb();
        let mut tool = HarmonyTool::new();
        let args = ToolArgs::new()
            .with("source", "purchaseOrder")
            .with("target", "invoice");
        tool.invoke(&mut bb, &args, &mut Vec::new()).unwrap();
        tool.invoke(&mut bb, &args, &mut Vec::new()).unwrap();
        assert_eq!(tool.engine().cache_stats().context_hits, 1);
        // Re-importing a schema must drop the cached features and the
        // previous votes of every pair the schema participates in.
        assert!(tool.subscriptions().contains(&EventKind::SchemaGraph));
        tool.on_event(
            &mut bb,
            &WorkbenchEvent::SchemaGraph { schema: po.clone() },
            &mut Vec::new(),
        );
        assert!(tool.engine().state().pairs[&(po, inv)].votes.is_none());
        tool.invoke(&mut bb, &args, &mut Vec::new()).unwrap();
        assert_eq!(tool.engine().cache_stats().context_misses, 2);
    }

    #[test]
    fn unknown_schema_is_an_error() {
        let mut bb = Blackboard::new();
        let mut tool = HarmonyTool::new();
        let err = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("source", "ghost")
                    .with("target", "ghost2"),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(matches!(err, ToolError::UnknownSchema(_)));
    }
}
