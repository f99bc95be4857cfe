//! The tool interface (§5.2.1).
//!
//! "All that is required is that a tool implements the tool interface.
//! The tool interface defines two methods. First, a tool must provide an
//! invoke method… Second, when the workbench starts, each tool has the
//! option of implementing an initialize method. Generally, this is done
//! when a tool needs to register for events."

use crate::blackboard::Blackboard;
use crate::event::{EventKind, WorkbenchEvent};
use crate::taskmodel::Task;
use iwb_pool::{Budget, Interrupt};
use iwb_store::codec::CodecError;
use std::collections::BTreeMap;
use std::fmt;

/// The four tool families of §5.2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// Parses schemata into the IB representation.
    Loader,
    /// Updates mapping-matrix cells.
    Matcher,
    /// Updates per-column transformation code.
    Mapper,
    /// Assembles column code into a coherent whole.
    CodeGenerator,
}

impl fmt::Display for ToolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ToolKind::Loader => "loader",
            ToolKind::Matcher => "matcher",
            ToolKind::Mapper => "mapper",
            ToolKind::CodeGenerator => "code-generator",
        })
    }
}

/// String-keyed invocation arguments (what the GUI dialog would gather),
/// plus the typed interruption [`Budget`] the host attached to the
/// invocation (unlimited by default).
#[derive(Debug, Clone, Default)]
pub struct ToolArgs {
    args: BTreeMap<String, String>,
    budget: Budget,
}

impl ToolArgs {
    /// Empty argument set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style argument.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.insert(key.into(), value.into());
        self
    }

    /// Builder-style interruption budget (deadline + cancel token) for
    /// this invocation. Long-running tools check it cooperatively and
    /// abort with [`ToolError::Cancelled`] / [`ToolError::DeadlineExceeded`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The interruption budget attached to this invocation.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Fetch an argument.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.args.get(key).map(String::as_str)
    }

    /// Fetch a required argument or produce a uniform error.
    pub fn require(&self, key: &str) -> Result<&str, ToolError> {
        self.get(key)
            .ok_or_else(|| ToolError::MissingArgument(key.to_owned()))
    }
}

/// A tool invocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolError {
    /// A required argument was not supplied.
    MissingArgument(String),
    /// A referenced schema is not on the blackboard.
    UnknownSchema(String),
    /// The invocation's [`Budget`] was cancelled mid-run. The tool
    /// aborted cooperatively before writing any result, so blackboard
    /// state is exactly as before the invocation.
    Cancelled,
    /// The invocation's [`Budget`] deadline passed mid-run; like
    /// [`ToolError::Cancelled`], no partial result was written.
    DeadlineExceeded,
    /// Anything else, with a message.
    Failed(String),
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::MissingArgument(a) => write!(f, "missing argument {a:?}"),
            ToolError::UnknownSchema(s) => write!(f, "schema {s:?} not on the blackboard"),
            ToolError::Cancelled => f.write_str("cancelled"),
            ToolError::DeadlineExceeded => f.write_str("deadline exceeded"),
            ToolError::Failed(m) => f.write_str(m),
        }
    }
}

impl From<Interrupt> for ToolError {
    fn from(why: Interrupt) -> ToolError {
        match why {
            Interrupt::Cancelled => ToolError::Cancelled,
            Interrupt::DeadlineExceeded => ToolError::DeadlineExceeded,
        }
    }
}

impl std::error::Error for ToolError {}

/// A workbench tool.
///
/// Events a tool wants to emit are pushed into the `events` sink; the
/// manager wraps every invocation in a transaction and propagates the
/// events only after the tool returns (§5.2.1: "no events are generated
/// until the mapping matrix has been updated").
///
/// # Panic safety
///
/// Report failures through [`ToolError`], never by panicking: a panic
/// unwinds out of the manager's transaction and can leave the
/// blackboard half-updated. Hosts that embed third-party tools (the
/// `iwb-server` daemon) defend against this by catching unwinds at the
/// invocation boundary and quarantining sessions whose tools panic
/// repeatedly — but a quarantined session has lost in-memory state
/// fidelity, so `catch_unwind` is containment, not absolution.
pub trait WorkbenchTool {
    /// Unique tool name.
    fn name(&self) -> &'static str;

    /// The tool family.
    fn kind(&self) -> ToolKind;

    /// Which of the 13 tasks the tool supports (for the E4 coverage
    /// analysis).
    fn capabilities(&self) -> Vec<Task>;

    /// Event kinds the tool registers for during initialize (§5.2.1).
    fn subscriptions(&self) -> Vec<EventKind> {
        Vec::new()
    }

    /// Optional startup hook.
    fn initialize(&mut self) {}

    /// Perform the tool's action against the blackboard.
    fn invoke(
        &mut self,
        blackboard: &mut Blackboard,
        args: &ToolArgs,
        events: &mut Vec<WorkbenchEvent>,
    ) -> Result<String, ToolError>;

    /// React to an event another tool produced ("a tool listens for
    /// events immediately upstream or downstream in the task model").
    fn on_event(
        &mut self,
        _blackboard: &mut Blackboard,
        _event: &WorkbenchEvent,
        _events: &mut Vec<WorkbenchEvent>,
    ) {
    }

    /// Downcast hook for hosts that reach a concrete tool (the shell's
    /// `weights` read, benchmarks). The default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// The state this tool keeps across invocations, encoded for a
    /// session image (`crate::persist`), or `None` when it keeps none.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Continue from state [`WorkbenchTool::save_state`] produced, on a
    /// freshly initialised tool. `blackboard` is the restored board.
    fn restore_state(&mut self, _bytes: &[u8], _blackboard: &Blackboard) -> Result<(), CodecError> {
        Err(CodecError::Invalid("tool keeps no image state"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_builder_and_require() {
        let args = ToolArgs::new()
            .with("format", "xsd")
            .with("schema-id", "po");
        assert_eq!(args.get("format"), Some("xsd"));
        assert_eq!(args.require("schema-id").unwrap(), "po");
        let err = args.require("missing").unwrap_err();
        assert!(matches!(err, ToolError::MissingArgument(_)));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn tool_kinds_display() {
        assert_eq!(ToolKind::CodeGenerator.to_string(), "code-generator");
        assert_eq!(ToolKind::Loader.to_string(), "loader");
    }

    #[test]
    fn args_carry_an_interruption_budget() {
        use iwb_pool::CancelToken;
        let args = ToolArgs::new();
        assert_eq!(args.budget().check(), Ok(()), "default budget is unlimited");
        let token = CancelToken::new();
        let args = args.with_budget(Budget::new(token.clone(), iwb_pool::Deadline::none()));
        assert_eq!(args.budget().check(), Ok(()));
        token.cancel();
        assert_eq!(args.budget().check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn interrupts_convert_to_structured_tool_errors() {
        assert_eq!(ToolError::from(Interrupt::Cancelled), ToolError::Cancelled);
        assert_eq!(
            ToolError::from(Interrupt::DeadlineExceeded),
            ToolError::DeadlineExceeded
        );
        assert_eq!(ToolError::Cancelled.to_string(), "cancelled");
        assert_eq!(ToolError::DeadlineExceeded.to_string(), "deadline exceeded");
    }
}
