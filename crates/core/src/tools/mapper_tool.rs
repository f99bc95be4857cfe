//! The manual mapping tool — the AquaLogic stand-in.
//!
//! §5.2.1: "A mapping tool updates the code associated with each
//! column." It also listens for mapping-cell events "to propose a
//! candidate transformation, such as a type conversion".

use crate::blackboard::Blackboard;
use crate::event::{EventKind, VectorSide, WorkbenchEvent};
use crate::taskmodel::Task;
use crate::tool::{ToolArgs, ToolError, ToolKind, WorkbenchTool};
use iwb_harmony::Confidence;
use iwb_model::{DataType, ElementPath, SchemaId};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};

/// The manual mapping tool.
#[derive(Debug, Default)]
pub struct MapperTool {
    /// Candidate transformations proposed from events (for reporting).
    pub proposals: Vec<String>,
}

impl MapperTool {
    /// A fresh mapper.
    pub fn new() -> Self {
        Self::default()
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
}

impl WorkbenchTool for MapperTool {
    fn name(&self) -> &'static str {
        "aqualogic-mapper"
    }

    fn kind(&self) -> ToolKind {
        ToolKind::Mapper
    }

    fn capabilities(&self) -> Vec<Task> {
        // §5.3: "the AquaLogic development environment supports manual
        // mapping and automatic code generation" — this tool covers the
        // piecemeal mapping tasks 4–7 (codegen is its sibling tool).
        vec![
            Task::ObtainSourceSchemata,
            Task::ObtainTargetSchema,
            Task::DomainTransformations,
            Task::AttributeTransformations,
            Task::EntityTransformations,
            Task::ObjectIdentity,
        ]
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        // Downstream of matching: react to new correspondences.
        vec![EventKind::MappingCell]
    }

    /// Arguments: `action` = `bind-variable` | `set-code`;
    /// `source`, `target`; for bind-variable: `row` (source path) and
    /// `variable`; for set-code: `col` (target path) and `code`.
    fn invoke(
        &mut self,
        blackboard: &mut Blackboard,
        args: &ToolArgs,
        events: &mut Vec<WorkbenchEvent>,
    ) -> Result<String, ToolError> {
        let source = SchemaId::new(args.require("source")?);
        let target = SchemaId::new(args.require("target")?);
        blackboard.ensure_matrix(&source, &target);
        match args.require("action")? {
            "bind-variable" => {
                let row = Self::resolve(blackboard, &source, args.require("row")?)?;
                let variable = args.require("variable")?.to_owned();
                let matrix = blackboard
                    .matrix_mut(&source, &target)
                    .expect("ensured above");
                let meta = matrix
                    .row_meta_mut(row)
                    .ok_or_else(|| ToolError::Failed(format!("{row} is not a matrix row")))?;
                meta.variable = Some(variable.clone());
                events.push(WorkbenchEvent::MappingVector {
                    source,
                    target,
                    side: VectorSide::Row,
                    element: row,
                });
                Ok(format!("bound ${variable} to row {row}"))
            }
            "set-code" => {
                let col = Self::resolve(blackboard, &target, args.require("col")?)?;
                let code = args.require("code")?;
                if !blackboard.set_column_code(self.name(), &source, &target, col, code) {
                    return Err(ToolError::Failed(format!("{col} is not a matrix column")));
                }
                // "When a mapping tool establishes a transformation, it
                // generates a mapping-vector event."
                events.push(WorkbenchEvent::MappingVector {
                    source,
                    target,
                    side: VectorSide::Column,
                    element: col,
                });
                Ok(format!("set code on column {col}"))
            }
            other => Err(ToolError::Failed(format!("unknown action {other:?}"))),
        }
    }

    /// The transformations proposed so far.
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.u32(self.proposals.len() as u32);
        for proposal in &self.proposals {
            w.str(proposal);
        }
        Some(w.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8], _blackboard: &Blackboard) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        for _ in 0..r.u32()? {
            self.proposals.push(r.str()?);
        }
        Ok(())
    }

    /// "A mapping tool can listen for these events to propose a
    /// candidate transformation, such as a type conversion": when a
    /// user-accepted correspondence appears and the column has no code
    /// yet, propose one from the row variable (or path) and the declared
    /// types.
    fn on_event(
        &mut self,
        blackboard: &mut Blackboard,
        event: &WorkbenchEvent,
        events: &mut Vec<WorkbenchEvent>,
    ) {
        let WorkbenchEvent::MappingCell {
            source,
            target,
            row,
            col,
        } = event
        else {
            return;
        };
        let Some(matrix) = blackboard.matrix(source, target) else {
            return;
        };
        let cell = matrix.cell(*row, *col);
        if !(cell.user_defined && cell.confidence == Confidence::ACCEPT) {
            return;
        }
        if matrix
            .col_meta(*col)
            .map(|m| m.code.is_some())
            .unwrap_or(true)
        {
            return;
        }
        let (Some(sg), Some(tg)) = (blackboard.schema(source), blackboard.schema(target)) else {
            return;
        };
        // Reference the row by its bound variable when one exists, else
        // by path from the document variable.
        let reference = match matrix.row_meta(*row).and_then(|m| m.variable.clone()) {
            Some(var) => format!("${var}"),
            None => {
                let path = sg.name_path(*row);
                let rel = path.split('/').skip(1).collect::<Vec<_>>().join("/");
                format!("$doc/{rel}")
            }
        };
        let src_type = sg.element(*row).data_type.clone();
        let tgt_type = tg.element(*col).data_type.clone();
        let code = propose_conversion(&reference, src_type.as_ref(), tgt_type.as_ref());
        self.proposals.push(format!(
            "{} → {}: {code}",
            sg.name_path(*row),
            tg.name_path(*col)
        ));
        blackboard.set_column_code(self.name(), source, target, *col, &code);
        events.push(WorkbenchEvent::MappingVector {
            source: source.clone(),
            target: target.clone(),
            side: VectorSide::Column,
            element: *col,
        });
    }
}

/// Candidate transformation for a type pair.
fn propose_conversion(reference: &str, from: Option<&DataType>, to: Option<&DataType>) -> String {
    use iwb_model::element::TypeFamily::*;
    let data = format!("data({reference})");
    match (from.map(DataType::family), to.map(DataType::family)) {
        (Some(a), Some(b)) if a == b => data,
        (Some(Textual), Some(Numeric)) => format!("number({data})"),
        (Some(Numeric), Some(Textual)) => format!("string({data})"),
        (Some(Coded), Some(Textual)) | (Some(Textual), Some(Coded)) => data,
        (Some(_), Some(_)) => format!("(: TODO type conversion :) {data}"),
        _ => data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{Metamodel, SchemaBuilder, SchemaGraph};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("po", Metamodel::Xml)
            .open("shipTo")
            .attr("subtotal", DataType::Decimal)
            .attr("zip", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("inv", Metamodel::Xml)
            .open("shippingInfo")
            .attr("total", DataType::Decimal)
            .attr("postalCode", DataType::Integer)
            .close()
            .build();
        (s, t)
    }

    fn bb() -> Blackboard {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s);
        bb.put_schema(t);
        bb
    }

    #[test]
    fn bind_variable_and_set_code() {
        let mut bb = bb();
        let mut tool = MapperTool::new();
        let mut events = Vec::new();
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("action", "bind-variable")
                .with("source", "po")
                .with("target", "inv")
                .with("row", "po/shipTo")
                .with("variable", "shipto"),
            &mut events,
        )
        .unwrap();
        tool.invoke(
            &mut bb,
            &ToolArgs::new()
                .with("action", "set-code")
                .with("source", "po")
                .with("target", "inv")
                .with("col", "inv/shippingInfo/total")
                .with("code", "data($shipto/subtotal) * 1.05"),
            &mut events,
        )
        .unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            WorkbenchEvent::MappingVector {
                side: VectorSide::Row,
                ..
            }
        ));
        let po = SchemaId::new("po");
        let inv = SchemaId::new("inv");
        let s = bb.schema(&po).unwrap();
        let matrix = bb.matrix(&po, &inv).unwrap();
        let ship = s.find_by_name("shipTo").unwrap();
        assert_eq!(
            matrix.row_meta(ship).unwrap().variable.as_deref(),
            Some("shipto")
        );
    }

    #[test]
    fn proposes_type_conversion_on_accept_event() {
        let mut bb = bb();
        let po = SchemaId::new("po");
        let inv = SchemaId::new("inv");
        bb.ensure_matrix(&po, &inv);
        let s = bb.schema(&po).unwrap().clone();
        let t = bb.schema(&inv).unwrap().clone();
        let zip = s.find_by_name("zip").unwrap();
        let postal = t.find_by_name("postalCode").unwrap();
        bb.set_cell("user", &po, &inv, zip, postal, Confidence::ACCEPT, true);
        let event = WorkbenchEvent::MappingCell {
            source: po.clone(),
            target: inv.clone(),
            row: zip,
            col: postal,
        };
        let mut tool = MapperTool::new();
        let mut cascade = Vec::new();
        tool.on_event(&mut bb, &event, &mut cascade);
        // Text → Integer: a number() conversion is proposed.
        let code = bb
            .matrix(&po, &inv)
            .unwrap()
            .col_meta(postal)
            .unwrap()
            .code
            .clone()
            .unwrap();
        assert!(code.starts_with("number("), "{code}");
        assert_eq!(cascade.len(), 1);
        assert_eq!(tool.proposals.len(), 1);
    }

    #[test]
    fn does_not_override_existing_code_or_react_to_rejects() {
        let mut bb = bb();
        let po = SchemaId::new("po");
        let inv = SchemaId::new("inv");
        bb.ensure_matrix(&po, &inv);
        let s = bb.schema(&po).unwrap().clone();
        let t = bb.schema(&inv).unwrap().clone();
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        bb.set_column_code("user", &po, &inv, total, "handwritten");
        bb.set_cell("user", &po, &inv, sub, total, Confidence::ACCEPT, true);
        let mut tool = MapperTool::new();
        let mut cascade = Vec::new();
        tool.on_event(
            &mut bb,
            &WorkbenchEvent::MappingCell {
                source: po.clone(),
                target: inv.clone(),
                row: sub,
                col: total,
            },
            &mut cascade,
        );
        assert!(cascade.is_empty());
        assert_eq!(
            bb.matrix(&po, &inv)
                .unwrap()
                .col_meta(total)
                .unwrap()
                .code
                .as_deref(),
            Some("handwritten")
        );
    }

    #[test]
    fn conversion_proposals_by_type_family() {
        assert_eq!(
            propose_conversion("$x", Some(&DataType::Decimal), Some(&DataType::Decimal)),
            "data($x)"
        );
        assert_eq!(
            propose_conversion("$x", Some(&DataType::Text), Some(&DataType::Integer)),
            "number(data($x))"
        );
        assert_eq!(
            propose_conversion("$x", Some(&DataType::Integer), Some(&DataType::Text)),
            "string(data($x))"
        );
        assert!(
            propose_conversion("$x", Some(&DataType::Date), Some(&DataType::Boolean))
                .contains("TODO")
        );
    }
}
