//! The annotated mapping matrix (§5.1.2, Figure 3).
//!
//! "Inter-schema relationships can be represented conceptually as a
//! *mapping matrix*. This matrix consists of headers (describing source
//! and target elements) plus content: a row for each source element and
//! a column for each target element. … Each cell in the mapping matrix
//! describes a potential correspondence between a source element and a
//! target element."

use iwb_harmony::matrix::matchable_ids;
use iwb_harmony::Confidence;
use iwb_model::{ElementId, SchemaGraph, SchemaId};
use iwb_store::artifacts::{decode_ids, encode_ids};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use std::fmt::Write;

/// One cell: a potential correspondence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// `confidence-score` ∈ [-1, +1].
    pub confidence: Confidence,
    /// `is-user-defined` — true when the user drew or decided the link.
    pub user_defined: bool,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            confidence: Confidence::UNKNOWN,
            user_defined: false,
        }
    }
}

/// Per-row annotations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowMeta {
    /// `variable-name` referenced by column code (Figure 3: `$shipto`).
    pub variable: Option<String>,
    /// `is-complete` progress marker.
    pub complete: bool,
}

/// Per-column annotations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColMeta {
    /// `code` that populates the target element.
    pub code: Option<String>,
    /// `is-complete` progress marker.
    pub complete: bool,
}

/// The mapping matrix between one source and one target schema.
#[derive(Debug, Clone)]
pub struct MappingMatrix {
    source: SchemaId,
    target: SchemaId,
    rows: Vec<ElementId>,
    cols: Vec<ElementId>,
    row_meta: Vec<RowMeta>,
    col_meta: Vec<ColMeta>,
    cells: Vec<Cell>,
    /// Whole-matrix `code` annotation (the assembled mapping).
    pub code: Option<String>,
}

impl MappingMatrix {
    /// A matrix over the matchable elements of two schemata, all cells
    /// unknown.
    pub fn new(source: &SchemaGraph, target: &SchemaGraph) -> Self {
        let rows = matchable_ids(source);
        let cols = matchable_ids(target);
        MappingMatrix {
            source: source.id().clone(),
            target: target.id().clone(),
            row_meta: vec![RowMeta::default(); rows.len()],
            col_meta: vec![ColMeta::default(); cols.len()],
            cells: vec![Cell::default(); rows.len() * cols.len()],
            rows,
            cols,
            code: None,
        }
    }

    /// Encode for a session image: pair, headers with their
    /// annotations, every confidence as `f64` bits, the user-decided
    /// cells by index, and the matrix code.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.str(self.source.as_str());
        w.str(self.target.as_str());
        let opt = |w: &mut ByteWriter, v: &Option<String>| match v {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.str(v);
            }
        };
        encode_ids(w, &self.rows);
        for meta in &self.row_meta {
            opt(w, &meta.variable);
            w.bool(meta.complete);
        }
        encode_ids(w, &self.cols);
        for meta in &self.col_meta {
            opt(w, &meta.code);
            w.bool(meta.complete);
        }
        let values: Vec<f64> = self.cells.iter().map(|c| c.confidence.value()).collect();
        w.f64s(&values);
        let user: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].user_defined)
            .collect();
        w.varint(user.len() as u64);
        for i in user {
            w.varint(i as u64);
        }
        opt(w, &self.code);
    }

    /// Decode [`Self::encode`] bytes.
    pub(crate) fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let source = SchemaId::new(r.str()?);
        let target = SchemaId::new(r.str()?);
        let opt = |r: &mut ByteReader| -> Result<Option<String>, CodecError> {
            Ok(match r.u8()? {
                0 => None,
                _ => Some(r.str()?),
            })
        };
        let rows = decode_ids(r)?;
        let mut row_meta = Vec::with_capacity(rows.len());
        for _ in &rows {
            let variable = opt(r)?;
            row_meta.push(RowMeta {
                variable,
                complete: r.bool()?,
            });
        }
        let cols = decode_ids(r)?;
        let mut col_meta = Vec::with_capacity(cols.len());
        for _ in &cols {
            let code = opt(r)?;
            col_meta.push(ColMeta {
                code,
                complete: r.bool()?,
            });
        }
        let mut cells: Vec<Cell> = r
            .f64s()?
            .into_iter()
            .map(|v| Cell {
                confidence: Confidence::raw(v),
                user_defined: false,
            })
            .collect();
        if cells.len() != rows.len() * cols.len() {
            return Err(CodecError::Invalid("matrix cells do not match its headers"));
        }
        for _ in 0..r.varint()? {
            let cell = cells
                .get_mut(r.varint()? as usize)
                .ok_or(CodecError::Invalid("user cell outside the matrix"))?;
            cell.user_defined = true;
        }
        Ok(MappingMatrix {
            source,
            target,
            rows,
            cols,
            row_meta,
            col_meta,
            cells,
            code: opt(r)?,
        })
    }

    /// Source schema id.
    pub fn source_id(&self) -> &SchemaId {
        &self.source
    }

    /// Target schema id.
    pub fn target_id(&self) -> &SchemaId {
        &self.target
    }

    /// Row element ids.
    pub fn rows(&self) -> &[ElementId] {
        &self.rows
    }

    /// Column element ids.
    pub fn cols(&self) -> &[ElementId] {
        &self.cols
    }

    fn row_index(&self, row: ElementId) -> Option<usize> {
        self.rows.iter().position(|&r| r == row)
    }

    fn col_index(&self, col: ElementId) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// Read a cell; default (unknown, machine) outside the matrix.
    pub fn cell(&self, row: ElementId, col: ElementId) -> Cell {
        match (self.row_index(row), self.col_index(col)) {
            (Some(r), Some(c)) => self.cells[r * self.cols.len() + c],
            _ => Cell::default(),
        }
    }

    /// Write a cell. Returns false when the pair is outside the matrix.
    pub fn set_cell(&mut self, row: ElementId, col: ElementId, cell: Cell) -> bool {
        match (self.row_index(row), self.col_index(col)) {
            (Some(r), Some(c)) => {
                let cols = self.cols.len();
                self.cells[r * cols + c] = cell;
                true
            }
            _ => false,
        }
    }

    /// Set a machine-suggested confidence (does not touch user cells;
    /// §4.3: decided links are frozen). Returns true if written.
    pub fn suggest(&mut self, row: ElementId, col: ElementId, confidence: Confidence) -> bool {
        let current = self.cell(row, col);
        if current.user_defined {
            return false;
        }
        self.set_cell(
            row,
            col,
            Cell {
                confidence,
                user_defined: false,
            },
        )
    }

    /// Record a user decision (±1).
    pub fn decide(&mut self, row: ElementId, col: ElementId, accepted: bool) -> bool {
        self.set_cell(
            row,
            col,
            Cell {
                confidence: if accepted {
                    Confidence::ACCEPT
                } else {
                    Confidence::REJECT
                },
                user_defined: true,
            },
        )
    }

    /// Row metadata.
    pub fn row_meta(&self, row: ElementId) -> Option<&RowMeta> {
        self.row_index(row).map(|r| &self.row_meta[r])
    }

    /// Mutable row metadata.
    pub fn row_meta_mut(&mut self, row: ElementId) -> Option<&mut RowMeta> {
        self.row_index(row).map(move |r| &mut self.row_meta[r])
    }

    /// Column metadata.
    pub fn col_meta(&self, col: ElementId) -> Option<&ColMeta> {
        self.col_index(col).map(|c| &self.col_meta[c])
    }

    /// Mutable column metadata.
    pub fn col_meta_mut(&mut self, col: ElementId) -> Option<&mut ColMeta> {
        self.col_index(col).map(move |c| &mut self.col_meta[c])
    }

    /// Accepted pairs (confidence exactly +1).
    pub fn accepted(&self) -> Vec<(ElementId, ElementId)> {
        let mut out = Vec::new();
        for (r, &row) in self.rows.iter().enumerate() {
            for (c, &col) in self.cols.iter().enumerate() {
                let cell = self.cells[r * self.cols.len() + c];
                if cell.confidence == Confidence::ACCEPT {
                    out.push((row, col));
                }
            }
        }
        out
    }

    /// Completion fraction over rows and columns (the §4.3 progress
    /// bar, matrix flavoured).
    pub fn completion(&self) -> f64 {
        let total = self.row_meta.len() + self.col_meta.len();
        if total == 0 {
            return 1.0;
        }
        let done = self.row_meta.iter().filter(|m| m.complete).count()
            + self.col_meta.iter().filter(|m| m.complete).count();
        done as f64 / total as f64
    }

    /// Render the matrix in the layout of Figure 3: a header block with
    /// the matrix code, column headers with code and is-complete, then
    /// one row per source element with its annotations and cells.
    pub fn render(&self, source: &SchemaGraph, target: &SchemaGraph) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mapping matrix {} → {}",
            self.source.as_str(),
            self.target.as_str()
        );
        let _ = writeln!(out, "code = {}", self.code.as_deref().unwrap_or("<unset>"));
        for (c, &col) in self.cols.iter().enumerate() {
            let meta = &self.col_meta[c];
            let _ = writeln!(
                out,
                "column [{}] is-complete={} code={}",
                target.element(col).name,
                meta.complete,
                meta.code.as_deref().unwrap_or("<unset>")
            );
        }
        for (r, &row) in self.rows.iter().enumerate() {
            let meta = &self.row_meta[r];
            let _ = writeln!(
                out,
                "row [{}] is-complete={} variable={}",
                source.element(row).name,
                meta.complete,
                meta.variable.as_deref().unwrap_or("<unset>")
            );
            for (c, &col) in self.cols.iter().enumerate() {
                let cell = self.cells[r * self.cols.len() + c];
                let _ = writeln!(
                    out,
                    "  × [{}] confidence={} user-defined={}",
                    target.element(col).name,
                    cell.confidence,
                    cell.user_defined
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("po", Metamodel::Xml)
            .open("shipTo")
            .attr("firstName", DataType::Text)
            .attr("lastName", DataType::Text)
            .attr("subtotal", DataType::Decimal)
            .close()
            .build();
        let t = SchemaBuilder::new("inv", Metamodel::Xml)
            .open("shippingInfo")
            .attr("name", DataType::Text)
            .attr("total", DataType::Decimal)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn figure3_shape_four_rows_three_cols() {
        let (s, t) = schemas();
        let m = MappingMatrix::new(&s, &t);
        // Figure 3 has rows shipTo/firstName/lastName/subtotal and
        // columns shippingInfo/name/total.
        assert_eq!(m.rows().len(), 4);
        assert_eq!(m.cols().len(), 3);
    }

    #[test]
    fn suggest_respects_user_decisions() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        let first = s.find_by_name("firstName").unwrap();
        let name = t.find_by_name("name").unwrap();
        assert!(m.suggest(first, name, Confidence::engine(-0.4)));
        assert!(!m.cell(first, name).user_defined);
        m.decide(first, name, true);
        assert_eq!(m.cell(first, name).confidence, Confidence::ACCEPT);
        // A later engine suggestion must not override the decision.
        assert!(!m.suggest(first, name, Confidence::engine(0.1)));
        assert_eq!(m.cell(first, name).confidence, Confidence::ACCEPT);
    }

    #[test]
    fn annotations_round_trip() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        let ship = s.find_by_name("shipTo").unwrap();
        let total = t.find_by_name("total").unwrap();
        m.row_meta_mut(ship).unwrap().variable = Some("shipto".into());
        m.col_meta_mut(total).unwrap().code = Some("data($shipto/subtotal) * 1.05".into());
        m.col_meta_mut(total).unwrap().complete = false;
        m.code = Some("let $shipto := $purchOrd/shipTo return …".into());
        assert_eq!(
            m.row_meta(ship).unwrap().variable.as_deref(),
            Some("shipto")
        );
        assert!(m
            .col_meta(total)
            .unwrap()
            .code
            .as_deref()
            .unwrap()
            .contains("1.05"));
    }

    #[test]
    fn accepted_lists_user_accepts_only() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        let first = s.find_by_name("firstName").unwrap();
        m.decide(sub, total, true);
        m.decide(first, total, false);
        m.suggest(
            first,
            t.find_by_name("name").unwrap(),
            Confidence::engine(0.9),
        );
        assert_eq!(m.accepted(), vec![(sub, total)]);
    }

    #[test]
    fn completion_tracks_marked_rows_and_cols() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        assert_eq!(m.completion(), 0.0);
        let ship = s.find_by_name("shipTo").unwrap();
        m.row_meta_mut(ship).unwrap().complete = true;
        assert!((m.completion() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_matrix_access_is_safe() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        let root = s.root();
        assert_eq!(m.cell(root, t.root()), Cell::default());
        assert!(!m.set_cell(root, t.root(), Cell::default()));
        assert!(m.row_meta(root).is_none());
    }

    #[test]
    fn render_reproduces_figure3_annotations() {
        let (s, t) = schemas();
        let mut m = MappingMatrix::new(&s, &t);
        let ship = s.find_by_name("shipTo").unwrap();
        let info = t.find_by_name("shippingInfo").unwrap();
        m.row_meta_mut(ship).unwrap().variable = Some("shipto".into());
        m.suggest(ship, info, Confidence::engine(0.8));
        let text = m.render(&s, &t);
        assert!(text.contains("variable=shipto"));
        assert!(text.contains("confidence=+0.80 user-defined=false"));
        assert!(text.contains("mapping matrix po → inv"));
    }
}
