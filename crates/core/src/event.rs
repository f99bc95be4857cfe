//! The workbench event service (§5.2.2).
//!
//! "Tools generate events whenever they make any change to the contents
//! of the IB. The workbench manager propagates these events to allow any
//! tool to respond to the update. A different type of event is generated
//! for each major component of the IB so that a tool can register for
//! only those events relevant to that tool."

use iwb_model::{ElementId, SchemaId};
use std::fmt;

/// Which side of a mapping matrix a vector event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorSide {
    /// A row (source element) was updated.
    Row,
    /// A column (target element) was updated.
    Column,
}

/// An event emitted by a tool through the manager.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkbenchEvent {
    /// "A schema loader generates a *schema-graph event* when it imports
    /// a schema into the workbench."
    SchemaGraph {
        /// The imported schema.
        schema: SchemaId,
    },
    /// "A *mapping-cell event* is generated when a user manually
    /// establishes a correspondence. Multiple such events are triggered
    /// by an automatic matching tool." A user decision sends one cell;
    /// an automatic match sends one event for its whole run, listing
    /// every cell it wrote at or above its display threshold.
    MappingCell {
        /// Source schema of the matrix.
        source: SchemaId,
        /// Target schema of the matrix.
        target: SchemaId,
        /// The (row, column) cells, in write order.
        cells: Vec<(ElementId, ElementId)>,
    },
    /// "When a mapping tool establishes a transformation, it generates a
    /// *mapping-vector event*."
    MappingVector {
        /// Source schema of the matrix.
        source: SchemaId,
        /// Target schema of the matrix.
        target: SchemaId,
        /// Row or column.
        side: VectorSide,
        /// The updated row/column element.
        element: ElementId,
    },
    /// "The code generation tool … generates a *mapping-matrix event*
    /// when the user manually modifies the final mapping."
    MappingMatrix {
        /// Source schema of the matrix.
        source: SchemaId,
        /// Target schema of the matrix.
        target: SchemaId,
    },
}

/// The four event kinds, for subscription registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Schema imported.
    SchemaGraph,
    /// A cell changed.
    MappingCell,
    /// A row/column changed.
    MappingVector,
    /// The assembled mapping changed.
    MappingMatrix,
}

impl WorkbenchEvent {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            WorkbenchEvent::SchemaGraph { .. } => EventKind::SchemaGraph,
            WorkbenchEvent::MappingCell { .. } => EventKind::MappingCell,
            WorkbenchEvent::MappingVector { .. } => EventKind::MappingVector,
            WorkbenchEvent::MappingMatrix { .. } => EventKind::MappingMatrix,
        }
    }
}

impl fmt::Display for WorkbenchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkbenchEvent::SchemaGraph { schema } => write!(f, "schema-graph({schema})"),
            WorkbenchEvent::MappingCell {
                source,
                target,
                cells,
            } => match cells.as_slice() {
                [(row, col)] => write!(f, "mapping-cell({source}→{target}, {row}×{col})"),
                _ => write!(f, "mapping-cell({source}→{target}, {} cells)", cells.len()),
            },
            WorkbenchEvent::MappingVector {
                source,
                target,
                side,
                element,
            } => write!(
                f,
                "mapping-vector({source}→{target}, {} {element})",
                match side {
                    VectorSide::Row => "row",
                    VectorSide::Column => "column",
                }
            ),
            WorkbenchEvent::MappingMatrix { source, target } => {
                write!(f, "mapping-matrix({source}→{target})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify_events() {
        let e = WorkbenchEvent::SchemaGraph {
            schema: SchemaId::new("po"),
        };
        assert_eq!(e.kind(), EventKind::SchemaGraph);
        let e = WorkbenchEvent::MappingMatrix {
            source: SchemaId::new("po"),
            target: SchemaId::new("inv"),
        };
        assert_eq!(e.kind(), EventKind::MappingMatrix);
    }

    #[test]
    fn display_names_match_paper_vocabulary() {
        let cell = |row, col| (ElementId::from_index(row), ElementId::from_index(col));
        let e = WorkbenchEvent::MappingCell {
            source: SchemaId::new("po"),
            target: SchemaId::new("inv"),
            cells: vec![cell(1, 2)],
        };
        assert_eq!(e.to_string(), "mapping-cell(po→inv, e1×e2)");
        // A match's one event names its cell count, not its cells.
        let e = WorkbenchEvent::MappingCell {
            source: SchemaId::new("po"),
            target: SchemaId::new("inv"),
            cells: vec![cell(1, 2), cell(1, 3), cell(4, 2)],
        };
        assert_eq!(e.to_string(), "mapping-cell(po→inv, 3 cells)");
        let e = WorkbenchEvent::MappingVector {
            source: SchemaId::new("po"),
            target: SchemaId::new("inv"),
            side: VectorSide::Column,
            element: ElementId::from_index(3),
        };
        assert!(e.to_string().contains("column e3"));
    }
}
