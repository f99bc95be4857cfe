//! The workbench manager (§5.2).
//!
//! "All interaction with the IB occurs via the workbench manager, which
//! coordinates matchers, mappers, importers, and other tools. The
//! manager provides several services: First, it provides transactional
//! updates to the IB. Second, following each update, it notifies the
//! other tools using an event. Third, the manager processes ad hoc
//! queries posed to the IB."
//!
//! Every [`WorkbenchManager::invoke`] runs as one transaction: the tool
//! mutates the blackboard and *buffers* its events; only after the tool
//! returns successfully are the events propagated to subscribed tools
//! (§5.2.1: during automated matching "no events are generated until the
//! mapping matrix has been updated"). Event handlers may emit further
//! events; cascades are propagated breadth-first with a bounded number
//! of rounds.

use crate::blackboard::Blackboard;
use crate::event::WorkbenchEvent;
use crate::taskmodel::{coverage_table, Task};
use crate::tool::{ToolArgs, ToolError, WorkbenchTool};
use iwb_rdf::{Bindings, TriplePattern};
use iwb_store::codec::CodecError;

/// Maximum cascade rounds before the manager stops propagating (guards
/// against event loops between mutually-subscribed tools).
const MAX_CASCADE_ROUNDS: usize = 4;

/// The report of one tool invocation.
#[derive(Debug, Clone)]
pub struct InvokeReport {
    /// The invoked tool.
    pub tool: &'static str,
    /// The tool's human-readable output.
    pub output: String,
    /// Every event that flowed, in propagation order (invocation events
    /// first, then cascade rounds).
    pub events: Vec<WorkbenchEvent>,
    /// Trace lines (for the Figure 4 architecture demonstration).
    pub trace: Vec<String>,
}

/// The single-user workbench of Figure 4: one manager, one blackboard,
/// multiple tools.
///
/// # Examples
///
/// ```
/// use iwb_core::{WorkbenchManager, ToolArgs};
///
/// let mut wb = WorkbenchManager::with_builtin_tools();
/// wb.invoke("schema-loader", &ToolArgs::new()
///     .with("format", "er")
///     .with("text", "entity A { x : text }")
///     .with("schema-id", "left")).unwrap();
/// wb.invoke("schema-loader", &ToolArgs::new()
///     .with("format", "er")
///     .with("text", "entity B { y : text }")
///     .with("schema-id", "right")).unwrap();
/// let report = wb.invoke("harmony", &ToolArgs::new()
///     .with("source", "left")
///     .with("target", "right")).unwrap();
/// assert!(report.output.contains("cells updated"));
/// ```
#[derive(Default)]
pub struct WorkbenchManager {
    blackboard: Blackboard,
    // `Send` so a whole workbench can be moved into (and locked inside)
    // a server worker thread; see `iwb-server`.
    tools: Vec<Box<dyn WorkbenchTool + Send>>,
    session_trace: Vec<String>,
}

impl WorkbenchManager {
    /// An empty workbench.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workbench with the four built-in tools registered and
    /// initialised.
    pub fn with_builtin_tools() -> Self {
        let mut m = Self::new();
        m.register(crate::tools::LoaderTool::new());
        m.register(crate::tools::HarmonyTool::new());
        m.register(crate::tools::MapperTool::new());
        m.register(crate::tools::CodegenTool::new());
        m.register(crate::tools::BlockingTool::new());
        m.initialize_all();
        m
    }

    /// Register a tool.
    pub fn register(&mut self, tool: impl WorkbenchTool + Send + 'static) {
        self.session_trace
            .push(format!("register {} ({})", tool.name(), tool.kind()));
        self.tools.push(Box::new(tool));
    }

    /// Call every tool's initialize hook (§5.2.1: "when the workbench
    /// starts, each tool has the option of implementing an initialize
    /// method").
    pub fn initialize_all(&mut self) {
        for tool in &mut self.tools {
            tool.initialize();
            let subs: Vec<String> = tool
                .subscriptions()
                .iter()
                .map(|k| format!("{k:?}"))
                .collect();
            self.session_trace.push(format!(
                "initialize {} (subscribes: {})",
                tool.name(),
                if subs.is_empty() {
                    "nothing".to_owned()
                } else {
                    subs.join(", ")
                }
            ));
        }
    }

    /// The blackboard (read access).
    pub fn blackboard(&self) -> &Blackboard {
        &self.blackboard
    }

    /// The blackboard (mutable access for direct state setup in tests
    /// and experiments; regular mutation goes through tools).
    pub fn blackboard_mut(&mut self) -> &mut Blackboard {
        &mut self.blackboard
    }

    /// Registered tool names.
    pub fn tool_names(&self) -> Vec<&'static str> {
        self.tools.iter().map(|t| t.name()).collect()
    }

    /// Typed mutable access to a registered tool, for hosts that
    /// capture or prime tool state around persistence. Returns `None`
    /// when no tool has that name, the tool did not opt in via
    /// [`WorkbenchTool::as_any_mut`], or the concrete type differs.
    pub fn tool_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        self.tools
            .iter_mut()
            .find(|t| t.name() == name)?
            .as_any_mut()?
            .downcast_mut::<T>()
    }

    /// The session trace accumulated so far (registration,
    /// initialisation, every invocation and event delivery).
    pub fn trace(&self) -> &[String] {
        &self.session_trace
    }

    /// Each tool's session-image state, by tool name (tools that keep
    /// no state across invocations are skipped).
    pub(crate) fn tool_states(&self) -> Vec<(&'static str, Vec<u8>)> {
        self.tools
            .iter()
            .filter_map(|t| Some((t.name(), t.save_state()?)))
            .collect()
    }

    /// Restore a board, a trace and tool states captured from another
    /// workbench with the same tools (see `crate::persist`).
    pub(crate) fn restore(
        &mut self,
        blackboard: Blackboard,
        trace: Vec<String>,
        tool_states: &[(&str, &[u8])],
    ) -> Result<(), CodecError> {
        self.blackboard = blackboard;
        self.session_trace = trace;
        for &(name, bytes) in tool_states {
            let tool = self
                .tools
                .iter_mut()
                .find(|t| t.name() == name)
                .ok_or(CodecError::Invalid("image names an unknown tool"))?;
            tool.restore_state(bytes, &self.blackboard)?;
        }
        Ok(())
    }

    /// Invoke a tool by name inside a transaction, then propagate its
    /// events.
    pub fn invoke(&mut self, tool_name: &str, args: &ToolArgs) -> Result<InvokeReport, ToolError> {
        let idx = self
            .tools
            .iter()
            .position(|t| t.name() == tool_name)
            .ok_or_else(|| ToolError::Failed(format!("no tool named {tool_name:?}")))?;

        // Transaction body: the tool buffers its events. A tool that
        // fails leaves no trace either, so the trace of a session equals
        // that of one that ran only the commands that succeeded.
        let mut pending: Vec<WorkbenchEvent> = Vec::new();
        let output = self.tools[idx].invoke(&mut self.blackboard, args, &mut pending)?;
        self.session_trace.push(format!("invoke {tool_name}"));
        self.session_trace
            .push(format!("  txn commit: {} event(s) buffered", pending.len()));

        // Propagation: deliver to subscribed tools; handlers may cascade.
        let subscriptions: Vec<_> = self.tools.iter().map(|t| t.subscriptions()).collect();
        let mut all_events = Vec::new();
        let mut trace = Vec::new();
        let mut round = 0;
        let mut emitter_of: Vec<(WorkbenchEvent, usize)> =
            pending.into_iter().map(|e| (e, idx)).collect();
        while !emitter_of.is_empty() && round < MAX_CASCADE_ROUNDS {
            let mut next: Vec<(WorkbenchEvent, usize)> = Vec::new();
            for (event, emitter) in emitter_of {
                trace.push(format!("round {round}: {event}"));
                let kind = event.kind();
                for (i, tool) in self.tools.iter_mut().enumerate() {
                    if i == emitter || !subscriptions[i].contains(&kind) {
                        continue;
                    }
                    let mut cascade = Vec::new();
                    tool.on_event(&mut self.blackboard, &event, &mut cascade);
                    if !cascade.is_empty() {
                        trace.push(format!(
                            "  {} reacted with {} event(s)",
                            tool.name(),
                            cascade.len()
                        ));
                    }
                    next.extend(cascade.into_iter().map(|e| (e, i)));
                }
                all_events.push(event);
            }
            emitter_of = next;
            round += 1;
        }
        for (event, _) in emitter_of {
            // Cascade budget exhausted: record but do not deliver.
            trace.push(format!("round {round} (suppressed): {event}"));
            all_events.push(event);
        }
        // Each event was formatted once, above; its session-trace line
        // is the report line with a two-space indent.
        self.session_trace
            .extend(trace.iter().map(|t| ["  ", t.as_str()].concat()));
        let tool = self.tools[idx].name();
        Ok(InvokeReport {
            tool,
            output,
            events: all_events,
            trace,
        })
    }

    /// Evaluate an ad hoc query over the IB.
    pub fn query(&self, patterns: &[TriplePattern]) -> Vec<Bindings> {
        self.blackboard.query(patterns).1
    }

    /// The task-coverage matrix over the registered tools (E4; §1.1:
    /// "we can ask what each tool contributes to each task").
    pub fn coverage(&self) -> String {
        let rows: Vec<(&str, Vec<Task>)> = self
            .tools
            .iter()
            .map(|t| (t.name(), t.capabilities()))
            .collect();
        coverage_table(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use iwb_loaders::xsd::{FIG2_SOURCE_XSD, FIG2_TARGET_XSD};

    fn loaded_workbench() -> WorkbenchManager {
        let mut m = WorkbenchManager::with_builtin_tools();
        m.invoke(
            "schema-loader",
            &ToolArgs::new()
                .with("format", "xsd")
                .with("text", FIG2_SOURCE_XSD)
                .with("schema-id", "purchaseOrder"),
        )
        .unwrap();
        m.invoke(
            "schema-loader",
            &ToolArgs::new()
                .with("format", "xsd")
                .with("text", FIG2_TARGET_XSD)
                .with("schema-id", "invoice"),
        )
        .unwrap();
        m
    }

    #[test]
    fn builtin_workbench_registers_the_tool_roster() {
        let m = WorkbenchManager::with_builtin_tools();
        assert_eq!(
            m.tool_names(),
            vec![
                "schema-loader",
                "harmony",
                "aqualogic-mapper",
                "xquery-codegen",
                "blocking"
            ]
        );
        assert!(m.trace().iter().any(|t| t.contains("subscribes")));
    }

    #[test]
    fn invoke_unknown_tool_fails() {
        let mut m = WorkbenchManager::new();
        assert!(m.invoke("ghost", &ToolArgs::new()).is_err());
    }

    #[test]
    fn accept_event_cascades_to_mapper_then_codegen() {
        let mut m = loaded_workbench();
        // User accepts subtotal → total in the matcher GUI. The mapper
        // (subscribed to mapping-cell) proposes a conversion, which
        // emits a mapping-vector event, which the code generator
        // (subscribed to mapping-vector) turns into assembled code.
        let report = m
            .invoke(
                "harmony",
                &ToolArgs::new()
                    .with("action", "accept")
                    .with("source", "purchaseOrder")
                    .with("target", "invoice")
                    .with("row", "purchaseOrder/purchaseOrder/shipTo/subtotal")
                    .with("col", "invoice/invoice/shippingInfo/total"),
            )
            .unwrap();
        let kinds: Vec<EventKind> = report.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&EventKind::MappingCell));
        assert!(kinds.contains(&EventKind::MappingVector), "{kinds:?}");
        assert!(kinds.contains(&EventKind::MappingMatrix), "{kinds:?}");
        // The assembled code exists on the blackboard.
        let po = iwb_model::SchemaId::new("purchaseOrder");
        let inv = iwb_model::SchemaId::new("invoice");
        let code = m
            .blackboard()
            .matrix(&po, &inv)
            .unwrap()
            .code
            .clone()
            .unwrap();
        assert!(code.contains("<total>"), "{code}");
    }

    #[test]
    fn automatic_match_commits_before_events_flow() {
        let mut m = loaded_workbench();
        let report = m
            .invoke(
                "harmony",
                &ToolArgs::new()
                    .with("source", "purchaseOrder")
                    .with("target", "invoice"),
            )
            .unwrap();
        assert!(report.output.contains("cells updated"));
        // The trace shows the transaction committed before propagation.
        assert!(m.trace().iter().any(|t| t.contains("txn commit")));
    }

    #[test]
    fn queries_reach_the_materialised_ib() {
        let mut m = loaded_workbench();
        use iwb_rdf::{PatternTerm, Term};
        let solutions = m.query(&[TriplePattern::new(
            PatternTerm::var("s"),
            Term::iri(iwb_rdf::vocab::RDF_TYPE),
            Term::iri(iwb_rdf::vocab::SCHEMA_CLASS),
        )]);
        assert_eq!(solutions.len(), 2);
        let _ = &mut m;
    }

    #[test]
    fn coverage_table_reports_combined_workbench() {
        let m = WorkbenchManager::with_builtin_tools();
        let table = m.coverage();
        // §5.3: "This combination of tools addresses all of the
        // desiderata" — matching, mapping and codegen are all covered.
        for needle in [
            "generate semantic correspondences",
            "create logical mappings",
            "develop attribute transformations",
        ] {
            let line = table.lines().find(|l| l.contains(needle)).unwrap();
            assert!(line.contains('✓'), "{needle} uncovered:\n{table}");
        }
    }
}
