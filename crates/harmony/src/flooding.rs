//! Similarity flooding over the containment trees.
//!
//! §4: "A version of similarity flooding [Melnik et al.] adjusts the
//! confidence scores based on structural information. Positive
//! confidence scores propagate up the schema graph (e.g., from
//! attributes to entities), and negative confidence scores trickle down
//! the schema graph. Intuitively, two attributes are unlikely to match
//! if their parent entities do not match."
//!
//! Each iteration computes, for every pair (a, b):
//!
//! * an **up** contribution: for each child of `a`, the best positive
//!   score against any child of `b`, averaged — children that match
//!   lift their parents;
//! * a **down** contribution: the parents' score when negative — a
//!   mismatched parent drags its children down.
//!
//! Both directions are independently switchable for the ablation
//! experiment (E2 in DESIGN.md). User-locked cells (±1) are never
//! modified (§4.3: "Once a link has been accepted or rejected, the
//! engine will not try to modify that link").

use crate::confidence::Confidence;
use crate::matrix::{mean_abs_diff, ScoreMatrix};
use iwb_model::{ElementId, SchemaGraph};
use iwb_pool::{Budget, Interrupt};
use std::collections::HashSet;
use std::sync::Arc;

/// Flooding parameters.
#[derive(Debug, Clone, Copy)]
pub struct FloodingConfig {
    /// Fraction of the children's best-match average added to parents.
    pub up_coefficient: f64,
    /// Fraction of a negative parent score subtracted from children.
    pub down_coefficient: f64,
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
    /// Stop when mean absolute change drops below this.
    pub epsilon: f64,
    /// Enable upward propagation of positives.
    pub enable_up: bool,
    /// Enable downward propagation of negatives.
    pub enable_down: bool,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig {
            up_coefficient: 0.3,
            down_coefficient: 0.3,
            max_iterations: 8,
            epsilon: 1e-3,
            enable_up: true,
            enable_down: true,
        }
    }
}

impl FloodingConfig {
    /// A configuration with flooding fully disabled (ablation).
    pub fn disabled() -> Self {
        FloodingConfig {
            enable_up: false,
            enable_down: false,
            ..Default::default()
        }
    }
}

/// A row or column of a [`FloodPlan`]: what flooding reads of its
/// element's neighbourhood, as positions on the same side.
#[derive(Debug)]
struct Node {
    /// The positions of its children that the matrix holds, in graph
    /// order.
    children: Vec<u32>,
    /// How many children it has in all, inside the matrix or not (keys,
    /// domain values).
    child_count: u32,
    /// Its parent's position, if the matrix holds the parent.
    parent: Option<u32>,
}

/// The [`Node`] of each of `ids`, positions taken by `position`.
fn nodes(
    ids: &[ElementId],
    graph: &SchemaGraph,
    position: impl Fn(ElementId) -> Option<usize>,
) -> Vec<Node> {
    let pos = |id| position(id).map(|p| p as u32);
    ids.iter()
        .map(|&id| {
            let children = graph.children(id);
            Node {
                children: children.iter().filter_map(|&(_, c)| pos(c)).collect(),
                child_count: children.len() as u32,
                parent: graph.parent(id).and_then(|(_, p)| pos(p)),
            }
        })
        .collect()
}

/// What a flooding run reads besides the scores, resolved to positions
/// once per run: each row's and column's children and parent, and the
/// locked cells. The fixpoint iterations then read the row-major score
/// slab by offset only.
#[derive(Debug)]
pub(crate) struct FloodPlan {
    rows: Vec<Node>,
    cols: Vec<Node>,
    /// Per cell, row-major: true when user-locked.
    locked: Vec<bool>,
}

impl FloodPlan {
    /// The plan for flooding `matrix` over the two graphs, with the
    /// `locked` pairs pinned (pairs outside the matrix are ignored).
    pub(crate) fn new(
        matrix: &ScoreMatrix,
        source: &SchemaGraph,
        target: &SchemaGraph,
        locked: impl IntoIterator<Item = (ElementId, ElementId)>,
    ) -> FloodPlan {
        let mut mask = vec![false; matrix.len()];
        for (s, t) in locked {
            if let Some(i) = matrix.offset(s, t) {
                mask[i] = true;
            }
        }
        FloodPlan {
            rows: nodes(matrix.src_ids(), source, |id| matrix.row_of(id)),
            cols: nodes(matrix.tgt_ids(), target, |id| matrix.col_of(id)),
            locked: mask,
        }
    }

    /// Number of source rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of target columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols.len()
    }
}

/// Compute one flooding iteration for source rows `lo..hi` from the
/// pre-iteration slab `before`, writing the new row-major values into
/// `out` (`(hi - lo)` rows long). Locked cells keep their value. This
/// kernel is the single code path behind both the sequential [`flood`]
/// loop and the engine's sharded parallel loop, so the two are
/// bit-identical by construction.
///
/// It computes what the id-addressed definition in the module docs
/// does when a cell outside the matrix reads 0:
///
/// * a child outside the matrix (a key, a domain value) counts in the
///   up average with score 0: only the children the matrix holds are
///   read, but the average divides by every child;
/// * a target child outside the matrix would read 0, which never
///   changes a best match that counts (a positive one);
/// * a parent outside the matrix would read 0, which never drags a
///   child down.
pub(crate) fn flood_rows(
    plan: &FloodPlan,
    config: &FloodingConfig,
    before: &[f64],
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let cols = plan.cols();
    if cols == 0 {
        return;
    }
    let read = |i: usize| Confidence::raw(before[i]).value();
    for (row, out) in (lo..hi).zip(out.chunks_mut(cols)) {
        let s = &plan.rows[row];
        for ((col, t), slot) in plan.cols.iter().enumerate().zip(out) {
            let i = row * cols + col;
            let current = read(i);
            if plan.locked[i] {
                *slot = current;
                continue;
            }
            let mut adjusted = current;

            if config.enable_up && s.child_count > 0 && t.child_count > 0 {
                let mut total = 0.0;
                for &cs in &s.children {
                    let base = cs as usize * cols;
                    let best = t
                        .children
                        .iter()
                        .map(|&ct| read(base + ct as usize))
                        .fold(f64::NEG_INFINITY, f64::max);
                    if best.is_finite() && best > 0.0 {
                        total += best;
                    }
                }
                adjusted += config.up_coefficient * (total / s.child_count as f64);
            }

            if config.enable_down {
                if let (Some(ps), Some(pt)) = (s.parent, t.parent) {
                    let parent_score = read(ps as usize * cols + pt as usize);
                    if parent_score < 0.0 {
                        adjusted += config.down_coefficient * parent_score;
                    }
                }
            }

            *slot = Confidence::engine(adjusted).value();
        }
    }
}

/// The flooding fixpoint loop over `matrix`: before each iteration it
/// checks `budget`, then `step` computes every row of the next slab
/// from the current one (shared read-only, so a step may hand it to
/// worker threads). The loop stops when the mean absolute change drops
/// below [`FloodingConfig::epsilon`], or after
/// [`FloodingConfig::max_iterations`]. Returns the iterations run.
/// An interrupted loop leaves `matrix` as it was.
pub(crate) fn fixpoint(
    matrix: &mut ScoreMatrix,
    config: &FloodingConfig,
    budget: &Budget,
    mut step: impl FnMut(&Arc<Vec<f64>>, &mut [f64]) -> Result<(), Interrupt>,
) -> Result<usize, Interrupt> {
    if !config.enable_up && !config.enable_down {
        return Ok(0);
    }
    let mut before = Arc::new(matrix.scores().to_vec());
    let mut after = vec![0.0; before.len()];
    let mut iterations = config.max_iterations;
    for iteration in 0..config.max_iterations {
        budget.check()?;
        step(&before, &mut after)?;
        let change = mean_abs_diff(&after, &before);
        let spare = Arc::try_unwrap(before).unwrap_or_else(|shared| shared.to_vec());
        before = Arc::new(std::mem::replace(&mut after, spare));
        if change < config.epsilon {
            iterations = iteration + 1;
            break;
        }
    }
    matrix.splice_rows(0, &before);
    Ok(iterations)
}

/// Run flooding in place. `locked` cells keep their value. Returns the
/// number of iterations executed.
pub fn flood(
    matrix: &mut ScoreMatrix,
    source: &SchemaGraph,
    target: &SchemaGraph,
    locked: &HashSet<(ElementId, ElementId)>,
    config: &FloodingConfig,
) -> usize {
    flood_budgeted(matrix, source, target, locked, config, &Budget::unlimited())
        .expect("unlimited budget never interrupts")
}

/// [`flood`] under a cooperative [`Budget`], checked before every
/// iteration. The fixpoint loop is already bounded by the explicit,
/// deterministic [`FloodingConfig::max_iterations`] budget; the
/// interruption budget only aborts it earlier, and an aborted run leaves
/// the matrix as it was.
pub fn flood_budgeted(
    matrix: &mut ScoreMatrix,
    source: &SchemaGraph,
    target: &SchemaGraph,
    locked: &HashSet<(ElementId, ElementId)>,
    config: &FloodingConfig,
    budget: &Budget,
) -> Result<usize, Interrupt> {
    if !config.enable_up && !config.enable_down {
        return Ok(0);
    }
    let plan = FloodPlan::new(matrix, source, target, locked.iter().copied());
    flood_planned(matrix, &plan, config, budget)
}

/// The sequential fixpoint loop over a built plan: one [`flood_rows`]
/// call over every row per iteration.
pub(crate) fn flood_planned(
    matrix: &mut ScoreMatrix,
    plan: &FloodPlan,
    config: &FloodingConfig,
    budget: &Budget,
) -> Result<usize, Interrupt> {
    let rows = plan.rows();
    fixpoint(matrix, config, budget, |before, after| {
        flood_rows(plan, config, before, 0, rows, after);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Xml)
            .open("person")
            .attr("firstName", DataType::Text)
            .attr("lastName", DataType::Text)
            .close()
            .open("widget")
            .attr("sku", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("individual")
            .attr("givenName", DataType::Text)
            .attr("familyName", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn positive_children_lift_parents() {
        let (s, t) = schemas();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        let person = s.find_by_name("person").unwrap();
        let individual = t.find_by_name("individual").unwrap();
        m.set(
            s.find_by_name("firstName").unwrap(),
            t.find_by_name("givenName").unwrap(),
            Confidence::engine(0.8),
        );
        m.set(
            s.find_by_name("lastName").unwrap(),
            t.find_by_name("familyName").unwrap(),
            Confidence::engine(0.8),
        );
        let before = m.get(person, individual).value();
        flood(&mut m, &s, &t, &HashSet::new(), &FloodingConfig::default());
        assert!(m.get(person, individual).value() > before + 0.1);
    }

    #[test]
    fn negative_parents_drag_children_down() {
        let (s, t) = schemas();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        let widget = s.find_by_name("widget").unwrap();
        let individual = t.find_by_name("individual").unwrap();
        let sku = s.find_by_name("sku").unwrap();
        let given = t.find_by_name("givenName").unwrap();
        m.set(widget, individual, Confidence::engine(-0.8));
        m.set(sku, given, Confidence::engine(0.3));
        let cfg = FloodingConfig {
            enable_up: false,
            ..Default::default()
        };
        flood(&mut m, &s, &t, &HashSet::new(), &cfg);
        assert!(
            m.get(sku, given).value() < 0.3,
            "mismatched parent lowers child"
        );
    }

    #[test]
    fn locked_cells_never_move() {
        let (s, t) = schemas();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        let first = s.find_by_name("firstName").unwrap();
        let given = t.find_by_name("givenName").unwrap();
        m.set(first, given, Confidence::ACCEPT);
        let mut locked = HashSet::new();
        locked.insert((first, given));
        // Surround with negativity that would otherwise drag it down.
        let person = s.find_by_name("person").unwrap();
        let individual = t.find_by_name("individual").unwrap();
        m.set(person, individual, Confidence::engine(-0.9));
        flood(&mut m, &s, &t, &locked, &FloodingConfig::default());
        assert_eq!(m.get(first, given), Confidence::ACCEPT);
    }

    #[test]
    fn disabled_config_is_a_noop() {
        let (s, t) = schemas();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        m.set(
            s.find_by_name("firstName").unwrap(),
            t.find_by_name("givenName").unwrap(),
            Confidence::engine(0.8),
        );
        let snapshot = m.clone();
        let iters = flood(&mut m, &s, &t, &HashSet::new(), &FloodingConfig::disabled());
        assert_eq!(iters, 0);
        assert_eq!(m.mean_abs_diff(&snapshot), 0.0);
    }

    #[test]
    fn converges_within_iteration_budget() {
        let (s, t) = schemas();
        let mut m = ScoreMatrix::for_schemas(&s, &t);
        for (sid, tid, _) in m.clone().iter() {
            m.set(sid, tid, Confidence::engine(0.2));
        }
        let cfg = FloodingConfig {
            max_iterations: 50,
            ..Default::default()
        };
        let iters = flood(&mut m, &s, &t, &HashSet::new(), &cfg);
        assert!(iters <= 50);
    }
}
