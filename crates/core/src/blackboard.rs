//! The Integration Blackboard (§5.1).
//!
//! "The integration blackboard (IB) is a shared repository for
//! information relevant to schema integration that is intended to be
//! accessed by multiple tools, including schemata, mappings, and their
//! component elements." The basic contents are schema graphs and mapping
//! matrices; both are materialised as RDF (§5.1's representation choice)
//! for ad hoc queries and export, while tools use the typed accessors.

use crate::context::SharedContext;
use crate::library::MappingLibrary;
use crate::matrix::MappingMatrix;
use crate::provenance::{ProvenanceKind, ProvenanceLog};
use crate::version::SchemaVersions;
use iwb_harmony::Confidence;
use iwb_model::{ElementId, SchemaGraph, SchemaId};
use iwb_rdf::{schema_rdf, select, Bindings, Term, TriplePattern, TripleStore};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use iwb_store::{decode_schema, encode_schema};
use std::collections::BTreeMap;

/// The shared knowledge repository at the core of the workbench.
///
/// # Examples
///
/// ```
/// use iwb_core::Blackboard;
/// use iwb_harmony::Confidence;
/// use iwb_model::{DataType, Metamodel, SchemaBuilder};
///
/// let source = SchemaBuilder::new("po", Metamodel::Xml)
///     .open("shipTo").attr("subtotal", DataType::Decimal).close().build();
/// let target = SchemaBuilder::new("inv", Metamodel::Xml)
///     .open("shippingInfo").attr("total", DataType::Decimal).close().build();
///
/// let mut bb = Blackboard::new();
/// bb.put_schema(source.clone());
/// bb.put_schema(target.clone());
/// bb.ensure_matrix(source.id(), target.id());
/// let sub = source.find_by_name("subtotal").unwrap();
/// let total = target.find_by_name("total").unwrap();
/// bb.set_cell("user", source.id(), target.id(), sub, total, Confidence::ACCEPT, true);
///
/// // Share the whole board with another workbench instance (§5.1.3).
/// let copy = Blackboard::import_turtle(&bb.export_turtle()).unwrap();
/// assert!(copy.matrix(source.id(), target.id()).unwrap().cell(sub, total).user_defined);
/// ```
#[derive(Default)]
pub struct Blackboard {
    schemas: BTreeMap<SchemaId, SchemaGraph>,
    matrices: BTreeMap<(SchemaId, SchemaId), MappingMatrix>,
    /// Mapping library (§5.1.3).
    pub library: MappingLibrary,
    /// Schema version chains (§5.1.3).
    pub versions: SchemaVersions,
    /// Mapping provenance (§5.1.3).
    pub provenance: ProvenanceLog,
    /// Shared focus context (§5.1.3).
    pub context: SharedContext,
}

impl Blackboard {
    /// An empty blackboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a schema. Also records a version in the
    /// version chain. Replacing a schema does not disturb existing
    /// matrices (their element ids reference the recorded version).
    pub fn put_schema(&mut self, schema: SchemaGraph) -> u32 {
        let id = schema.id().clone();
        let version = self.versions.record(schema.clone());
        self.schemas.insert(id, schema);
        version
    }

    /// The board as session-image segments: schemas, matrices,
    /// library, version chains, provenance and the shared context.
    pub(crate) fn image_segments(&self) -> Vec<(&'static str, Vec<u8>)> {
        let live: BTreeMap<SchemaId, Vec<u8>> = self
            .schemas
            .iter()
            .map(|(id, g)| (id.clone(), encode_schema(g)))
            .collect();
        let segment = |f: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            f(&mut w);
            w.into_bytes()
        };
        vec![
            (
                "schemas",
                segment(&|w| {
                    w.u32(live.len() as u32);
                    for bytes in live.values() {
                        w.bytes(bytes);
                    }
                }),
            ),
            (
                "matrices",
                segment(&|w| {
                    w.u32(self.matrices.len() as u32);
                    for matrix in self.matrices.values() {
                        matrix.encode(w);
                    }
                }),
            ),
            ("library", segment(&|w| self.library.encode(w))),
            ("versions", segment(&|w| self.versions.encode(w, &live))),
            ("provenance", segment(&|w| self.provenance.encode(w))),
            ("context", segment(&|w| self.context.encode(w))),
        ]
    }

    /// Rebuild a board from [`Self::image_segments`].
    pub(crate) fn from_image(segments: &BTreeMap<String, Vec<u8>>) -> Result<Self, CodecError> {
        let reader = |name: &str| {
            segments
                .get(name)
                .map(|bytes| ByteReader::new(bytes))
                .ok_or(CodecError::Invalid("image lacks a blackboard segment"))
        };
        let mut r = reader("schemas")?;
        let mut schemas = BTreeMap::new();
        for _ in 0..r.u32()? {
            let graph = decode_schema(r.bytes()?)?;
            schemas.insert(graph.id().clone(), graph);
        }
        let mut r = reader("matrices")?;
        let mut matrices = BTreeMap::new();
        for _ in 0..r.u32()? {
            let m = MappingMatrix::decode(&mut r)?;
            matrices.insert((m.source_id().clone(), m.target_id().clone()), m);
        }
        Ok(Blackboard {
            library: MappingLibrary::decode(&mut reader("library")?)?,
            versions: SchemaVersions::decode(&mut reader("versions")?, &schemas)?,
            provenance: ProvenanceLog::decode(&mut reader("provenance")?)?,
            context: SharedContext::decode(&mut reader("context")?)?,
            schemas,
            matrices,
        })
    }

    /// Fetch a schema.
    pub fn schema(&self, id: &SchemaId) -> Option<&SchemaGraph> {
        self.schemas.get(id)
    }

    /// Ids of all installed schemata.
    pub fn schema_ids(&self) -> Vec<&SchemaId> {
        self.schemas.keys().collect()
    }

    /// Get or create the mapping matrix for a pair. Both schemata must
    /// be installed.
    ///
    /// # Panics
    /// If either schema is missing.
    pub fn ensure_matrix(&mut self, source: &SchemaId, target: &SchemaId) -> &mut MappingMatrix {
        if !self
            .matrices
            .contains_key(&(source.clone(), target.clone()))
        {
            let s = self.schemas.get(source).expect("source schema installed");
            let t = self.schemas.get(target).expect("target schema installed");
            // "the IB … extends the mapping matrix accordingly" (§5.2.1)
            self.matrices
                .insert((source.clone(), target.clone()), MappingMatrix::new(s, t));
        }
        self.matrices
            .get_mut(&(source.clone(), target.clone()))
            .expect("just inserted")
    }

    /// The matrix for a pair, if created.
    pub fn matrix(&self, source: &SchemaId, target: &SchemaId) -> Option<&MappingMatrix> {
        self.matrices.get(&(source.clone(), target.clone()))
    }

    /// Mutable matrix access.
    pub fn matrix_mut(
        &mut self,
        source: &SchemaId,
        target: &SchemaId,
    ) -> Option<&mut MappingMatrix> {
        self.matrices.get_mut(&(source.clone(), target.clone()))
    }

    /// All matrix pairs.
    pub fn matrix_pairs(&self) -> Vec<(&SchemaId, &SchemaId)> {
        self.matrices.keys().map(|(s, t)| (s, t)).collect()
    }

    /// Set a cell with provenance. Machine suggestions do not override
    /// user decisions (returns false in that case).
    #[allow(clippy::too_many_arguments)] // mirrors the §5.1.2 cell annotations one-to-one
    pub fn set_cell(
        &mut self,
        tool: &str,
        source: &SchemaId,
        target: &SchemaId,
        row: ElementId,
        col: ElementId,
        confidence: Confidence,
        user_defined: bool,
    ) -> bool {
        let mut written = false;
        let cell = [(row, col, confidence)];
        self.set_cells(tool, source, target, user_defined, cell, |_, _, _| {
            written = true
        });
        written
    }

    /// [`Self::set_cell`] for many cells of one matrix, looked up once.
    /// `written` is called for every cell that changed, in order. Does
    /// nothing when the pair has no matrix.
    pub fn set_cells(
        &mut self,
        tool: &str,
        source: &SchemaId,
        target: &SchemaId,
        user_defined: bool,
        cells: impl IntoIterator<Item = (ElementId, ElementId, Confidence)>,
        mut written: impl FnMut(ElementId, ElementId, Confidence),
    ) {
        let Some(matrix) = self.matrices.get_mut(&(source.clone(), target.clone())) else {
            return;
        };
        for (row, col, confidence) in cells {
            let changed = if user_defined {
                matrix.decide(row, col, confidence == Confidence::ACCEPT)
            } else {
                matrix.suggest(row, col, confidence)
            };
            if changed {
                self.provenance.record(
                    tool,
                    source.clone(),
                    target.clone(),
                    ProvenanceKind::CellSet {
                        row,
                        col,
                        confidence: confidence.value(),
                        user_defined,
                    },
                );
                written(row, col, confidence);
            }
        }
    }

    /// Set a column's code with provenance.
    pub fn set_column_code(
        &mut self,
        tool: &str,
        source: &SchemaId,
        target: &SchemaId,
        col: ElementId,
        code: impl Into<String>,
    ) -> bool {
        let Some(matrix) = self.matrices.get_mut(&(source.clone(), target.clone())) else {
            return false;
        };
        let Some(meta) = matrix.col_meta_mut(col) else {
            return false;
        };
        meta.code = Some(code.into());
        self.provenance.record(
            tool,
            source.clone(),
            target.clone(),
            ProvenanceKind::CodeSet { col },
        );
        true
    }

    /// Materialise the whole blackboard as RDF: every schema graph plus
    /// every matrix with its annotations (the §5.1 representation).
    pub fn materialize_rdf(&self) -> TripleStore {
        let mut store = TripleStore::new();
        for schema in self.schemas.values() {
            schema_rdf::schema_to_rdf(schema, &mut store);
        }
        for ((source, target), matrix) in &self.matrices {
            let m_iri = iwb_rdf::vocab::matrix_iri(source.as_str(), target.as_str());
            store.insert(
                Term::iri(m_iri.clone()),
                Term::iri(iwb_rdf::vocab::RDF_TYPE),
                Term::iri(iwb_rdf::vocab::MATRIX_CLASS),
            );
            store.insert(
                Term::iri(m_iri.clone()),
                Term::iri(iwb_rdf::vocab::SOURCE_SCHEMA),
                Term::iri(iwb_rdf::vocab::schema_iri(source.as_str())),
            );
            store.insert(
                Term::iri(m_iri.clone()),
                Term::iri(iwb_rdf::vocab::TARGET_SCHEMA),
                Term::iri(iwb_rdf::vocab::schema_iri(target.as_str())),
            );
            if let Some(code) = &matrix.code {
                store.insert(
                    Term::iri(m_iri.clone()),
                    Term::iri(iwb_rdf::vocab::CODE),
                    Term::literal(code),
                );
            }
            // Row and column annotations (§5.1.2: variable-name, code,
            // is-complete) as header resources.
            for (r, &row) in matrix.rows().iter().enumerate() {
                let Some(meta) = matrix.row_meta(row) else {
                    continue;
                };
                if meta.variable.is_none() && !meta.complete {
                    continue;
                }
                let row_iri = Term::iri(format!("{m_iri}#r{r}"));
                store.insert(
                    row_iri.clone(),
                    Term::iri(iwb_rdf::vocab::IN_MATRIX),
                    Term::iri(m_iri.clone()),
                );
                store.insert(
                    row_iri.clone(),
                    Term::iri(iwb_rdf::vocab::SOURCE_ELEMENT),
                    Term::iri(iwb_rdf::vocab::element_iri(source.as_str(), row.index())),
                );
                if let Some(v) = &meta.variable {
                    store.insert(
                        row_iri.clone(),
                        Term::iri(iwb_rdf::vocab::VARIABLE_NAME),
                        Term::literal(v),
                    );
                }
                store.insert(
                    row_iri,
                    Term::iri(iwb_rdf::vocab::IS_COMPLETE),
                    Term::boolean(meta.complete),
                );
            }
            for (c, &col) in matrix.cols().iter().enumerate() {
                let Some(meta) = matrix.col_meta(col) else {
                    continue;
                };
                if meta.code.is_none() && !meta.complete {
                    continue;
                }
                let col_iri = Term::iri(format!("{m_iri}#c{c}"));
                store.insert(
                    col_iri.clone(),
                    Term::iri(iwb_rdf::vocab::IN_MATRIX),
                    Term::iri(m_iri.clone()),
                );
                store.insert(
                    col_iri.clone(),
                    Term::iri(iwb_rdf::vocab::TARGET_ELEMENT),
                    Term::iri(iwb_rdf::vocab::element_iri(target.as_str(), col.index())),
                );
                if let Some(code) = &meta.code {
                    store.insert(
                        col_iri.clone(),
                        Term::iri(iwb_rdf::vocab::CODE),
                        Term::literal(code),
                    );
                }
                store.insert(
                    col_iri,
                    Term::iri(iwb_rdf::vocab::IS_COMPLETE),
                    Term::boolean(meta.complete),
                );
            }
            for (r, &row) in matrix.rows().iter().enumerate() {
                for (c, &col) in matrix.cols().iter().enumerate() {
                    let cell = matrix.cell(row, col);
                    if cell.confidence == Confidence::UNKNOWN && !cell.user_defined {
                        continue; // only materialise informative cells
                    }
                    let cell_iri = iwb_rdf::vocab::cell_iri(source.as_str(), target.as_str(), r, c);
                    let subject = Term::iri(cell_iri);
                    store.insert(
                        subject.clone(),
                        Term::iri(iwb_rdf::vocab::RDF_TYPE),
                        Term::iri(iwb_rdf::vocab::CELL_CLASS),
                    );
                    store.insert(
                        subject.clone(),
                        Term::iri(iwb_rdf::vocab::IN_MATRIX),
                        Term::iri(m_iri.clone()),
                    );
                    store.insert(
                        subject.clone(),
                        Term::iri(iwb_rdf::vocab::SOURCE_ELEMENT),
                        Term::iri(iwb_rdf::vocab::element_iri(source.as_str(), row.index())),
                    );
                    store.insert(
                        subject.clone(),
                        Term::iri(iwb_rdf::vocab::TARGET_ELEMENT),
                        Term::iri(iwb_rdf::vocab::element_iri(target.as_str(), col.index())),
                    );
                    store.insert(
                        subject.clone(),
                        Term::iri(iwb_rdf::vocab::CONFIDENCE_SCORE),
                        Term::double(cell.confidence.value()),
                    );
                    store.insert(
                        subject,
                        Term::iri(iwb_rdf::vocab::IS_USER_DEFINED),
                        Term::boolean(cell.user_defined),
                    );
                }
            }
        }
        store
    }

    /// Evaluate an ad hoc basic-graph-pattern query over the
    /// materialised RDF view (§5.2: "the manager processes ad hoc
    /// queries posed to the IB").
    pub fn query(&self, patterns: &[TriplePattern]) -> (TripleStore, Vec<Bindings>) {
        let store = self.materialize_rdf();
        let solutions = select(&store, patterns);
        (store, solutions)
    }

    /// Export the whole blackboard as Turtle (share across workbench
    /// instances, §5.1.3).
    pub fn export_turtle(&self) -> String {
        iwb_rdf::turtle::write(&self.materialize_rdf())
    }

    /// Reconstruct a blackboard from a Turtle export (§5.1.3: "the
    /// blackboard should be shared across multiple workbench
    /// instances"). Schemata, matrices, cell scores, user-decision
    /// flags, row variables, column code and completion markers all
    /// survive; provenance restarts (the import itself is recorded).
    pub fn import_turtle(text: &str) -> Result<Blackboard, String> {
        let store = iwb_rdf::turtle::read(text).map_err(|e| e.to_string())?;
        let mut bb = Blackboard::new();

        // Schemata.
        let rdf_type = store.lookup(&Term::iri(iwb_rdf::vocab::RDF_TYPE));
        let schema_class = store.lookup(&Term::iri(iwb_rdf::vocab::SCHEMA_CLASS));
        if let (Some(p), Some(o)) = (rdf_type, schema_class) {
            for t in store.matching(None, Some(p), Some(o)) {
                let Some(iri) = store.term(t.s).as_iri() else {
                    continue;
                };
                let Some(id) = iri.strip_prefix("iwb:schema/") else {
                    continue;
                };
                let graph = schema_rdf::schema_from_rdf(&store, id)
                    .ok_or_else(|| format!("schema {id} did not reconstruct"))?;
                bb.put_schema(graph);
            }
        }

        // Matrices.
        let matrix_class = store.lookup(&Term::iri(iwb_rdf::vocab::MATRIX_CLASS));
        let lookup = |name: &str| store.lookup(&Term::iri(name));
        if let (Some(p), Some(o)) = (rdf_type, matrix_class) {
            for t in store.matching(None, Some(p), Some(o)) {
                let m_term = t.s;
                let Some(m_iri) = store.term(m_term).as_iri().map(str::to_owned) else {
                    continue;
                };
                let pair = m_iri
                    .strip_prefix("iwb:matrix/")
                    .and_then(|s| s.split_once("--"))
                    .ok_or_else(|| format!("unparseable matrix IRI {m_iri}"))?;
                let (source, target) = (SchemaId::new(pair.0), SchemaId::new(pair.1));
                if bb.schema(&source).is_none() || bb.schema(&target).is_none() {
                    return Err(format!("matrix {m_iri} references missing schemata"));
                }
                bb.ensure_matrix(&source, &target);
                // Matrix-level code.
                if let Some(code_p) = lookup(iwb_rdf::vocab::CODE) {
                    if let Some(code) = store
                        .object(m_term, code_p)
                        .and_then(|o| store.term(o).as_literal().map(str::to_owned))
                    {
                        bb.matrix_mut(&source, &target).expect("ensured").code = Some(code);
                    }
                }
                // Members (cells and headers) of this matrix.
                let Some(in_matrix_p) = lookup(iwb_rdf::vocab::IN_MATRIX) else {
                    continue;
                };
                let elem_index = |term_id| -> Option<usize> {
                    let iri: &str = store.term(term_id).as_iri()?;
                    iri.rsplit_once("#e")?.1.parse().ok()
                };
                for member in store.matching(None, Some(in_matrix_p), Some(m_term)) {
                    let subj = member.s;
                    let src_el = lookup(iwb_rdf::vocab::SOURCE_ELEMENT)
                        .and_then(|p| store.object(subj, p))
                        .and_then(elem_index)
                        .map(ElementId::from_index);
                    let tgt_el = lookup(iwb_rdf::vocab::TARGET_ELEMENT)
                        .and_then(|p| store.object(subj, p))
                        .and_then(elem_index)
                        .map(ElementId::from_index);
                    let confidence = lookup(iwb_rdf::vocab::CONFIDENCE_SCORE)
                        .and_then(|p| store.object(subj, p))
                        .and_then(|o| store.term(o).as_f64());
                    let complete = lookup(iwb_rdf::vocab::IS_COMPLETE)
                        .and_then(|p| store.object(subj, p))
                        .and_then(|o| store.term(o).as_bool())
                        .unwrap_or(false);
                    match (src_el, tgt_el, confidence) {
                        // A cell: both endpoints plus a confidence.
                        (Some(row), Some(col), Some(score)) => {
                            let user = lookup(iwb_rdf::vocab::IS_USER_DEFINED)
                                .and_then(|p| store.object(subj, p))
                                .and_then(|o| store.term(o).as_bool())
                                .unwrap_or(false);
                            if user {
                                bb.set_cell(
                                    "import",
                                    &source,
                                    &target,
                                    row,
                                    col,
                                    Confidence::raw(score),
                                    true,
                                );
                            } else {
                                bb.set_cell(
                                    "import",
                                    &source,
                                    &target,
                                    row,
                                    col,
                                    Confidence::engine(score),
                                    false,
                                );
                            }
                        }
                        // A row header.
                        (Some(row), None, None) => {
                            let variable = lookup(iwb_rdf::vocab::VARIABLE_NAME)
                                .and_then(|p| store.object(subj, p))
                                .and_then(|o| store.term(o).as_literal().map(str::to_owned));
                            if let Some(meta) = bb
                                .matrix_mut(&source, &target)
                                .and_then(|m| m.row_meta_mut(row))
                            {
                                meta.variable = variable;
                                meta.complete = complete;
                            }
                        }
                        // A column header.
                        (None, Some(col), None) => {
                            let code = lookup(iwb_rdf::vocab::CODE)
                                .and_then(|p| store.object(subj, p))
                                .and_then(|o| store.term(o).as_literal().map(str::to_owned));
                            if let Some(meta) = bb
                                .matrix_mut(&source, &target)
                                .and_then(|m| m.col_meta_mut(col))
                            {
                                meta.code = code;
                                meta.complete = complete;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(bb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};
    use iwb_rdf::PatternTerm;

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("po", Metamodel::Xml)
            .open("shipTo")
            .attr("subtotal", DataType::Decimal)
            .close()
            .build();
        let t = SchemaBuilder::new("inv", Metamodel::Xml)
            .open("shippingInfo")
            .attr("total", DataType::Decimal)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn schemas_install_and_version() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        assert_eq!(bb.put_schema(s.clone()), 1);
        assert_eq!(bb.put_schema(s.clone()), 2);
        bb.put_schema(t);
        assert_eq!(bb.schema_ids().len(), 2);
        assert_eq!(bb.versions.version_count(s.id()), 2);
    }

    #[test]
    fn matrix_lifecycle_and_cells() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s.clone());
        bb.put_schema(t.clone());
        bb.ensure_matrix(s.id(), t.id());
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        assert!(bb.set_cell(
            "harmony",
            s.id(),
            t.id(),
            sub,
            total,
            Confidence::engine(0.8),
            false
        ));
        assert!(bb.set_cell("user", s.id(), t.id(), sub, total, Confidence::ACCEPT, true));
        // Machine cannot override the decision.
        assert!(!bb.set_cell(
            "harmony",
            s.id(),
            t.id(),
            sub,
            total,
            Confidence::engine(0.1),
            false
        ));
        let m = bb.matrix(s.id(), t.id()).unwrap();
        assert_eq!(m.cell(sub, total).confidence, Confidence::ACCEPT);
        assert_eq!(bb.provenance.cell_history(sub, total).len(), 2);
    }

    #[test]
    fn rdf_materialisation_supports_queries() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s.clone());
        bb.put_schema(t.clone());
        bb.ensure_matrix(s.id(), t.id());
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        bb.set_cell("user", s.id(), t.id(), sub, total, Confidence::ACCEPT, true);
        // Query: which cells are user-defined?
        let (store, solutions) = bb.query(&[
            TriplePattern::new(
                PatternTerm::var("cell"),
                Term::iri(iwb_rdf::vocab::IS_USER_DEFINED),
                Term::boolean(true),
            ),
            TriplePattern::new(
                PatternTerm::var("cell"),
                Term::iri(iwb_rdf::vocab::SOURCE_ELEMENT),
                PatternTerm::var("src"),
            ),
        ]);
        assert_eq!(solutions.len(), 1);
        let src_term = store.term(solutions[0]["src"]);
        assert_eq!(
            src_term.as_iri().unwrap(),
            iwb_rdf::vocab::element_iri("po", sub.index())
        );
    }

    #[test]
    fn column_code_with_provenance() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s.clone());
        bb.put_schema(t.clone());
        bb.ensure_matrix(s.id(), t.id());
        let total = t.find_by_name("total").unwrap();
        assert!(bb.set_column_code(
            "aqualogic",
            s.id(),
            t.id(),
            total,
            "data($shipto/subtotal) * 1.05"
        ));
        let m = bb.matrix(s.id(), t.id()).unwrap();
        assert!(m.col_meta(total).unwrap().code.is_some());
        assert_eq!(bb.provenance.by_tool("aqualogic").len(), 1);
        // Unknown column fails cleanly.
        assert!(!bb.set_column_code("x", s.id(), t.id(), s.root(), "nope"));
    }

    #[test]
    fn import_turtle_reconstructs_matrices() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s.clone());
        bb.put_schema(t.clone());
        bb.ensure_matrix(s.id(), t.id());
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        let ship = s.find_by_name("shipTo").unwrap();
        bb.set_cell("user", s.id(), t.id(), sub, total, Confidence::ACCEPT, true);
        bb.set_cell(
            "harmony",
            s.id(),
            t.id(),
            ship,
            total,
            Confidence::engine(-0.4),
            false,
        );
        bb.matrix_mut(s.id(), t.id())
            .unwrap()
            .row_meta_mut(ship)
            .unwrap()
            .variable = Some("shipto".into());
        bb.set_column_code(
            "mapper",
            s.id(),
            t.id(),
            total,
            "data($shipto/subtotal) * 1.05",
        );
        bb.matrix_mut(s.id(), t.id())
            .unwrap()
            .col_meta_mut(total)
            .unwrap()
            .complete = true;
        bb.matrix_mut(s.id(), t.id()).unwrap().code = Some("the whole mapping".into());

        let text = bb.export_turtle();
        let imported = Blackboard::import_turtle(&text).expect("import");
        // Schemata are back.
        let s2 = imported.schema(s.id()).unwrap();
        assert_eq!(s2.len(), s.len());
        // Matrix state survived.
        let m = imported.matrix(s.id(), t.id()).unwrap();
        let cell = m.cell(sub, total);
        assert_eq!(cell.confidence, Confidence::ACCEPT);
        assert!(cell.user_defined);
        assert!((m.cell(ship, total).confidence.value() + 0.4).abs() < 1e-9);
        assert!(!m.cell(ship, total).user_defined);
        assert_eq!(
            m.row_meta(ship).unwrap().variable.as_deref(),
            Some("shipto")
        );
        assert!(m.col_meta(total).unwrap().complete);
        assert!(m
            .col_meta(total)
            .unwrap()
            .code
            .as_deref()
            .unwrap()
            .contains("1.05"));
        assert_eq!(m.code.as_deref(), Some("the whole mapping"));
        // The import is on the provenance record.
        assert!(imported.provenance.by_tool("import").len() >= 2);
        // And a second export is identical (idempotent sharing).
        assert_eq!(imported.export_turtle(), text);
    }

    #[test]
    fn import_rejects_matrix_without_schemata() {
        let text = "iwb:matrix/a--b rdf:type iwb:MappingMatrix .\n";
        assert!(Blackboard::import_turtle(text).is_err());
        assert!(Blackboard::import_turtle("not turtle at all").is_err());
    }

    #[test]
    fn turtle_export_round_trips_through_parser() {
        let (s, t) = schemas();
        let mut bb = Blackboard::new();
        bb.put_schema(s.clone());
        bb.put_schema(t);
        let text = bb.export_turtle();
        let reparsed = iwb_rdf::turtle::read(&text).unwrap();
        assert_eq!(reparsed.len(), bb.materialize_rdf().len());
    }
}
