//! # iwb-core — the Integration Workbench
//!
//! The paper's core contribution (§5): an open, extensible workbench in
//! which multiple schema integration tools interoperate through a shared
//! knowledge repository.
//!
//! * [`matrix`] — the annotated **mapping matrix** of §5.1.2 (Figure 3):
//!   per-cell `confidence-score`/`is-user-defined`, per-row
//!   `variable-name`, per-column `code`, per-row/column `is-complete`,
//!   and whole-matrix `code`;
//! * [`blackboard`] — the **Integration Blackboard** (§5.1): schema
//!   graphs and mapping matrices stored over the RDF substrate, with ad
//!   hoc queries;
//! * [`library`], [`version`], [`provenance`], [`context`] — the §5.1.3
//!   blackboard enhancements (mapping library/reuse, schema versioning,
//!   mapping provenance, shared focus context);
//! * [`event`] — the event service of §5.2.2 (`schema-graph`,
//!   `mapping-cell`, `mapping-vector`, `mapping-matrix` events);
//! * [`tool`] — the two-method tool interface of §5.2.1 (`initialize`,
//!   `invoke`) plus tool kinds and task capabilities;
//! * [`tools`] — the four built-in tools: a loader, the Harmony matcher,
//!   a manual mapping tool (the AquaLogic stand-in), and an XQuery code
//!   generator;
//! * [`proto`] — structured retryable protocol errors shared by the
//!   daemon, router, and client (`RETRY-AFTER` / `MOVED` / `DUPLICATE`
//!   / `SEQ-GAP`);
//! * [`manager`] — the **workbench manager** (§5.2): transactional
//!   updates, event propagation, query evaluation, tool registry;
//! * [`taskmodel`] — the 13-task model of §3, used for the tool-coverage
//!   analysis (experiment E4);
//! * [`casestudy`] — the §5.3 Harmony + mapper interoperation pilot,
//!   scripted end to end.

pub mod blackboard;
pub mod casestudy;
pub mod context;
pub mod deploy;
pub mod derive;
pub mod event;
pub mod library;
pub mod manager;
pub mod matrix;
pub mod persist;
pub mod proto;
pub mod provenance;
pub mod shell;
pub mod taskmodel;
pub mod tool;
pub mod tools;
pub mod version;

pub use blackboard::Blackboard;
pub use context::SharedContext;
pub use deploy::{DeployedApplication, IntegrationSolution, OperationalConstraints};
pub use derive::{derive_target, DerivedTarget};
pub use event::{EventKind, WorkbenchEvent};
pub use library::MappingLibrary;
pub use manager::{InvokeReport, WorkbenchManager};
pub use matrix::MappingMatrix;
pub use proto::RetryableError;
pub use provenance::ProvenanceLog;
pub use taskmodel::{Phase, Task};
pub use tool::{ToolArgs, ToolError, ToolKind, WorkbenchTool};
pub use version::SchemaVersions;
