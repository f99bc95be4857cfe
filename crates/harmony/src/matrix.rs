//! Dense score matrices over the matchable elements of two schemata.

use crate::confidence::Confidence;
use iwb_model::{ElementId, ElementKind, Positions, SchemaGraph};

/// The element kinds that participate in matching. Keys and domain
/// values are excluded: keys are structural artifacts, and domain values
/// are compared wholesale by the domain voter through their parent.
pub fn is_matchable(kind: ElementKind) -> bool {
    matches!(
        kind,
        ElementKind::Table
            | ElementKind::Entity
            | ElementKind::Relationship
            | ElementKind::XmlElement
            | ElementKind::Attribute
            | ElementKind::Domain
    )
}

/// The matchable element ids of a graph, in creation order.
pub fn matchable_ids(graph: &SchemaGraph) -> Vec<ElementId> {
    graph
        .iter()
        .filter(|(_, e)| is_matchable(e.kind))
        .map(|(id, _)| id)
        .collect()
}

/// A dense source × target matrix of confidence scores, stored row-major
/// (row = source position, column = target position).
///
/// Each side keeps a [`Positions`] table, so turning an element id into
/// its row ([`Self::row_of`]) or column ([`Self::col_of`]) is one array
/// read, and a cell read by id is two. The engine's kernels go further
/// and read [`Self::scores`] by offset, with the positions resolved once
/// per run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreMatrix {
    src_ids: Vec<ElementId>,
    tgt_ids: Vec<ElementId>,
    src_pos: Positions,
    tgt_pos: Positions,
    scores: Vec<f64>,
}

impl ScoreMatrix {
    /// A zero matrix over the matchable elements of two schemata.
    pub fn for_schemas(source: &SchemaGraph, target: &SchemaGraph) -> Self {
        Self::new(matchable_ids(source), matchable_ids(target))
    }

    /// A zero matrix over explicit row/column element id sets.
    pub fn new(src_ids: Vec<ElementId>, tgt_ids: Vec<ElementId>) -> Self {
        let scores = vec![0.0; src_ids.len() * tgt_ids.len()];
        Self::from_raw(src_ids, tgt_ids, scores).expect("a zero slab fits its dimensions")
    }

    /// Rebuild a matrix from its id sets and a row-major score slab
    /// (the inverse of [`Self::src_ids`]/[`Self::tgt_ids`]/
    /// [`Self::scores`], used by the snapshot codec). `None` if the
    /// slab length does not match the dimensions.
    pub fn from_raw(
        src_ids: Vec<ElementId>,
        tgt_ids: Vec<ElementId>,
        scores: Vec<f64>,
    ) -> Option<Self> {
        if scores.len() != src_ids.len() * tgt_ids.len() {
            return None;
        }
        Some(ScoreMatrix {
            src_pos: Positions::of(&src_ids),
            tgt_pos: Positions::of(&tgt_ids),
            src_ids,
            tgt_ids,
            scores,
        })
    }

    /// Row (source) element ids.
    pub fn src_ids(&self) -> &[ElementId] {
        &self.src_ids
    }

    /// Column (target) element ids.
    pub fn tgt_ids(&self) -> &[ElementId] {
        &self.tgt_ids
    }

    /// The row of a source element, if the matrix has one.
    pub fn row_of(&self, src: ElementId) -> Option<usize> {
        self.src_pos.get(src)
    }

    /// The column of a target element, if the matrix has one.
    pub fn col_of(&self, tgt: ElementId) -> Option<usize> {
        self.tgt_pos.get(tgt)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if either dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The row-major offset of a cell in [`Self::scores`].
    pub(crate) fn offset(&self, src: ElementId, tgt: ElementId) -> Option<usize> {
        Some(self.row_of(src)? * self.tgt_ids.len() + self.col_of(tgt)?)
    }

    /// The score of a cell; `UNKNOWN` for ids outside the matrix.
    pub fn get(&self, src: ElementId, tgt: ElementId) -> Confidence {
        match self.offset(src, tgt) {
            Some(i) => Confidence::raw(self.scores[i]),
            None => Confidence::UNKNOWN,
        }
    }

    /// Set a cell's score. Ignored for ids outside the matrix.
    pub fn set(&mut self, src: ElementId, tgt: ElementId, score: Confidence) {
        if let Some(i) = self.offset(src, tgt) {
            self.scores[i] = score.value();
        }
    }

    /// True if the pair is inside the matrix.
    pub fn contains(&self, src: ElementId, tgt: ElementId) -> bool {
        self.offset(src, tgt).is_some()
    }

    /// Iterate `(src, tgt, score)` over every cell, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, ElementId, Confidence)> + '_ {
        let rows = self.scores.chunks(self.tgt_ids.len().max(1));
        self.src_ids.iter().zip(rows).flat_map(move |(&s, row)| {
            self.tgt_ids
                .iter()
                .zip(row)
                .map(move |(&t, &v)| (s, t, Confidence::raw(v)))
        })
    }

    /// The column with the maximal score in a row, with the score
    /// (`None` for an unknown row or empty target side).
    pub fn best_for_src(&self, src: ElementId) -> Option<(ElementId, Confidence)> {
        let r = self.row_of(src)?;
        let base = r * self.tgt_ids.len();
        self.tgt_ids
            .iter()
            .enumerate()
            .map(|(c, &t)| (t, self.scores[base + c]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(t, v)| (t, Confidence::raw(v)))
    }

    /// The row with the maximal score in a column, with the score.
    pub fn best_for_tgt(&self, tgt: ElementId) -> Option<(ElementId, Confidence)> {
        let c = self.col_of(tgt)?;
        self.src_ids
            .iter()
            .enumerate()
            .map(|(r, &s)| (s, self.scores[r * self.tgt_ids.len() + c]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, v)| (s, Confidence::raw(v)))
    }

    /// The raw row-major score slab (row = source index, column =
    /// target index). Exact bit equality of two slabs is the
    /// determinism contract of the parallel engine.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Overwrite whole rows starting at `start_row` with `values`
    /// (row-major, a multiple of the column count long). This is how
    /// the engine merges per-shard score slabs back deterministically:
    /// each shard owns a disjoint row range, so splice order cannot
    /// change the result.
    ///
    /// # Panics
    /// If `values` is not a whole number of rows or overruns the matrix.
    pub fn splice_rows(&mut self, start_row: usize, values: &[f64]) {
        let cols = self.tgt_ids.len();
        if values.is_empty() {
            return;
        }
        assert!(cols > 0, "splice into a zero-column matrix");
        assert_eq!(values.len() % cols, 0, "partial row in splice");
        let start = start_row * cols;
        let end = start + values.len();
        assert!(end <= self.scores.len(), "splice overruns the matrix");
        self.scores[start..end].copy_from_slice(values);
    }

    /// Mean absolute difference to another matrix of identical shape
    /// (used as the flooding fixpoint test).
    ///
    /// # Panics
    /// If shapes differ.
    pub fn mean_abs_diff(&self, other: &ScoreMatrix) -> f64 {
        mean_abs_diff(&self.scores, &other.scores)
    }
}

/// Mean absolute difference of two equally long score slabs (0 for
/// empty ones), summed in slab order.
///
/// # Panics
/// If the lengths differ.
pub(crate) fn mean_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let total: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn graphs() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Xml)
            .open("a")
            .attr("x", DataType::Text)
            .attr("y", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("b")
            .attr("u", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn matchable_excludes_root_keys_and_values() {
        let g = SchemaBuilder::new("db", Metamodel::Relational)
            .open("T")
            .attr("a", DataType::Integer)
            .key("pk", &["a"])
            .close()
            .build();
        let ids = matchable_ids(&g);
        assert_eq!(ids.len(), 2); // T and a, not root, not pk
    }

    #[test]
    fn get_set_round_trip() {
        let (s, t) = graphs();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        assert_eq!(m.src_ids().len(), 3);
        assert_eq!(m.tgt_ids().len(), 2);
        assert_eq!(m.len(), 6);
        let a = s.find_by_name("x").unwrap();
        let b = t.find_by_name("u").unwrap();
        m.set(a, b, Confidence::engine(0.7));
        assert!((m.get(a, b).value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn out_of_matrix_ids_are_inert() {
        let (s, t) = graphs();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        let root = s.root();
        assert!(!m.contains(root, t.root()));
        m.set(root, t.root(), Confidence::ACCEPT); // no-op
        assert_eq!(m.get(root, t.root()), Confidence::UNKNOWN);
    }

    #[test]
    fn best_per_row_and_column() {
        let (s, t) = graphs();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        let x = s.find_by_name("x").unwrap();
        let y = s.find_by_name("y").unwrap();
        let u = t.find_by_name("u").unwrap();
        m.set(x, u, Confidence::engine(0.3));
        m.set(y, u, Confidence::engine(0.9));
        assert_eq!(m.best_for_src(x).unwrap().0, u);
        let (best_src, score) = m.best_for_tgt(u).unwrap();
        assert_eq!(best_src, y);
        assert!((score.value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_all_cells() {
        let (s, t) = graphs();
        let m = ScoreMatrix::for_schemas(&s, &t);
        assert_eq!(m.iter().count(), 6);
    }

    #[test]
    fn splice_rows_overwrites_disjoint_ranges() {
        let (s, t) = graphs();
        let mut direct = ScoreMatrix::for_schemas(&s, &t);
        let mut spliced = direct.clone();
        let values: Vec<f64> = (0..direct.len()).map(|i| i as f64 / 10.0).collect();
        for (i, (sid, tid, _)) in direct.clone().iter().enumerate() {
            direct.set(sid, tid, Confidence::engine(values[i]));
        }
        // Two shards: row 0, then rows 1-2.
        spliced.splice_rows(0, &values[0..2]);
        spliced.splice_rows(1, &values[2..6]);
        assert_eq!(direct.scores(), spliced.scores());
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn splice_rows_checks_bounds() {
        let (s, t) = graphs();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        m.splice_rows(3, &[0.0, 0.0]);
    }

    #[test]
    fn mean_abs_diff_measures_change() {
        let (s, t) = graphs();
        let m1 = ScoreMatrix::for_schemas(&s, &t);
        let mut m2 = m1.clone();
        assert_eq!(m1.mean_abs_diff(&m2), 0.0);
        let x = s.find_by_name("x").unwrap();
        let u = t.find_by_name("u").unwrap();
        m2.set(x, u, Confidence::engine(0.6));
        assert!((m1.mean_abs_diff(&m2) - 0.1).abs() < 1e-9);
    }
}
