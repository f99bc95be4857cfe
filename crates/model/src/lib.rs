//! # iwb-model — canonical schema-graph metamodel
//!
//! Every tool in the integration workbench (loaders, the Harmony match
//! engine, mapping tools, code generators) communicates through one
//! canonical representation of a schema: a rooted, directed, labelled
//! graph (paper §4: "Schemata are normalized into a canonical graph
//! representation", §5.1.1).
//!
//! * Nodes are [`SchemaElement`]s — relations, attributes, keys, XML
//!   elements, ER entities, semantic domains, and domain values.
//! * Edges carry an [`EdgeKind`] — `contains-table`, `contains-attribute`,
//!   `contains-element`, `has-domain`, and so on. Containment edges form a
//!   spanning tree rooted at the schema node; non-containment edges
//!   (foreign keys, domain references) are overlaid on that tree.
//! * Any element can be annotated. Three annotations are distinguished by
//!   the paper because match tools consume them: `name`, `type` and
//!   `documentation`; they are first-class fields here, and arbitrary
//!   further annotations live in a small ordered map.
//!
//! The crate is dependency-free so that every other crate can build on it.

pub mod annotation;
pub mod builder;
pub mod display;
pub mod domain;
pub mod edge;
pub mod element;
pub mod graph;
pub mod ids;
pub mod metamodel;
pub mod path;
pub mod validate;

pub use annotation::{AnnotationValue, Annotations};
pub use builder::SchemaBuilder;
pub use domain::{Domain, DomainValue};
pub use edge::{Edge, EdgeKind};
pub use element::{DataType, ElementKind, SchemaElement};
pub use graph::SchemaGraph;
pub use ids::{ElementId, Positions, SchemaId};
pub use metamodel::Metamodel;
pub use path::ElementPath;
pub use validate::{validate, ValidationError};
