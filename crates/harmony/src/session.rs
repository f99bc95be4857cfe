//! Iterative match sessions (paper §4.3).
//!
//! A session wraps the engine with the user-facing iterative workflow:
//! accept/reject decisions, drawing links by hand, re-running the engine
//! with learning, marking sub-trees complete (which freezes their links
//! and advances the progress bar), and querying visible links through
//! filters.

use crate::confidence::Confidence;
use crate::engine::{HarmonyEngine, MatchResult};
use crate::filters::{FilterSet, Link};
use crate::matrix::matchable_ids;
use iwb_model::{ElementId, SchemaGraph};
use iwb_pool::Budget;
use std::collections::{HashMap, HashSet};

/// An interactive matching session over one schema pair.
///
/// # Examples
///
/// ```
/// use iwb_harmony::MatchSession;
/// use iwb_model::{DataType, Metamodel, SchemaBuilder};
///
/// let source = SchemaBuilder::new("s", Metamodel::Xml)
///     .open("shipTo").attr("subtotal", DataType::Decimal).close()
///     .build();
/// let target = SchemaBuilder::new("t", Metamodel::Xml)
///     .open("shippingInfo").attr("total", DataType::Decimal).close()
///     .build();
///
/// let mut session = MatchSession::new(&source, &target);
/// session.run();
/// let sub = source.find_by_name("subtotal").unwrap();
/// let total = target.find_by_name("total").unwrap();
/// session.accept(sub, total);                 // the engineer decides
/// session.run();                              // re-run: decision is locked, engine learns
/// assert_eq!(session.accepted_pairs(), vec![(sub, total)]);
/// ```
pub struct MatchSession<'a> {
    engine: HarmonyEngine,
    source: &'a SchemaGraph,
    target: &'a SchemaGraph,
    /// User decisions: pair → ±1.
    decisions: HashMap<(ElementId, ElementId), Confidence>,
    /// Elements marked complete (per side).
    complete_src: HashSet<ElementId>,
    complete_tgt: HashSet<ElementId>,
    /// Last engine output.
    result: Option<MatchResult>,
    /// How many times the engine has run.
    runs: usize,
}

impl<'a> MatchSession<'a> {
    /// Start a session with a default engine.
    pub fn new(source: &'a SchemaGraph, target: &'a SchemaGraph) -> Self {
        Self::with_engine(HarmonyEngine::default(), source, target)
    }

    /// Start a session with a custom engine.
    pub fn with_engine(
        engine: HarmonyEngine,
        source: &'a SchemaGraph,
        target: &'a SchemaGraph,
    ) -> Self {
        MatchSession {
            engine,
            source,
            target,
            decisions: HashMap::new(),
            complete_src: HashSet::new(),
            complete_tgt: HashSet::new(),
            result: None,
            runs: 0,
        }
    }

    /// The engine (for weight inspection).
    pub fn engine(&self) -> &HarmonyEngine {
        &self.engine
    }

    /// Mutable engine access (to reconfigure threads/cache mid-session).
    pub fn engine_mut(&mut self) -> &mut HarmonyEngine {
        &mut self.engine
    }

    /// Run (or re-run) the engine through its re-match step
    /// ([`HarmonyEngine::rematch`]), the one the workbench serves: on
    /// re-runs, decisions not learned yet are first fed to the learning
    /// path (§4.3: "the engineer can rerun the Harmony engine, which can
    /// learn from her feedback").
    pub fn run(&mut self) -> &MatchResult {
        let result = self
            .engine
            .rematch(
                self.source,
                self.target,
                &self.decisions,
                &Budget::unlimited(),
            )
            .expect("unlimited budget never interrupts");
        self.runs += 1;
        self.result = Some(result);
        self.result.as_ref().expect("just set")
    }

    /// Number of engine runs so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The latest result, if the engine has run.
    pub fn result(&self) -> Option<&MatchResult> {
        self.result.as_ref()
    }

    /// Accept a pair (draw/confirm a link): confidence +1.
    pub fn accept(&mut self, src: ElementId, tgt: ElementId) {
        self.decide(src, tgt, true);
    }

    /// Reject a pair: confidence -1.
    pub fn reject(&mut self, src: ElementId, tgt: ElementId) {
        self.decide(src, tgt, false);
    }

    fn decide(&mut self, src: ElementId, tgt: ElementId, accepted: bool) {
        let c = if accepted {
            Confidence::ACCEPT
        } else {
            Confidence::REJECT
        };
        self.decisions.insert((src, tgt), c);
        if let Some(result) = &mut self.result {
            result.matrix.set(src, tgt, c);
        }
    }

    /// The user decisions made so far.
    pub fn decisions(&self) -> &HashMap<(ElementId, ElementId), Confidence> {
        &self.decisions
    }

    /// The set of user-decided pairs (for the provenance filter).
    pub fn user_pairs(&self) -> HashSet<(ElementId, ElementId)> {
        self.decisions.keys().copied().collect()
    }

    /// Visible links under a filter set, against the latest result.
    /// Empty before the first run.
    pub fn visible(&self, filters: &FilterSet) -> Vec<Link> {
        match &self.result {
            Some(r) => filters.visible(&r.matrix, self.source, self.target, &self.user_pairs()),
            None => Vec::new(),
        }
    }

    /// Mark a source-side sub-tree complete (§4.3): every *currently
    /// visible* link touching the sub-tree is accepted; every other
    /// candidate link touching it is rejected. Freezes those cells and
    /// advances the progress bar.
    ///
    /// `display` defines visibility, exactly as the GUI would show it —
    /// the paper: "it accepts every link pertaining to that sub-tree (if
    /// currently visible), or rejected (otherwise)".
    pub fn mark_complete(&mut self, subtree_root: ElementId, display: &FilterSet) {
        let visible: HashSet<(ElementId, ElementId)> = self
            .visible(display)
            .into_iter()
            .map(|l| (l.src, l.tgt))
            .collect();
        let members: Vec<ElementId> = self
            .source
            .subtree(subtree_root)
            .into_iter()
            .filter(|&id| crate::matrix::is_matchable(self.source.element(id).kind))
            .collect();
        let tgt_ids: Vec<ElementId> = matchable_ids(self.target);
        for &s in &members {
            for &t in &tgt_ids {
                if self.decisions.contains_key(&(s, t)) {
                    continue; // already frozen
                }
                if visible.contains(&(s, t)) {
                    self.accept(s, t);
                } else {
                    self.reject(s, t);
                }
            }
            self.complete_src.insert(s);
        }
    }

    /// Mark a target-side element complete without deciding its links
    /// (used by progress tracking when the target column is saturated by
    /// accepted links).
    pub fn mark_target_complete(&mut self, id: ElementId) {
        self.complete_tgt.insert(id);
    }

    /// Progress toward "a complete set of correspondences" (§4.3's
    /// progress bar): the fraction of matchable source elements marked
    /// complete.
    pub fn progress(&self) -> f64 {
        let total = matchable_ids(self.source).len();
        if total == 0 {
            return 1.0;
        }
        self.complete_src.len() as f64 / total as f64
    }

    /// True when every matchable source element is complete.
    pub fn is_complete(&self) -> bool {
        self.progress() >= 1.0
    }

    /// The accepted correspondences (the session's final deliverable,
    /// handed to the mapping phase).
    pub fn accepted_pairs(&self) -> Vec<(ElementId, ElementId)> {
        let mut pairs: Vec<(ElementId, ElementId)> = self
            .decisions
            .iter()
            .filter(|(_, &c)| c == Confidence::ACCEPT)
            .map(|(&p, _)| p)
            .collect();
        pairs.sort();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::LinkFilter;
    use iwb_loaders::xsd::{FIG2_SOURCE_XSD, FIG2_TARGET_XSD};
    use iwb_loaders::{SchemaLoader, XsdLoader};

    fn fig2() -> (SchemaGraph, SchemaGraph) {
        (
            XsdLoader.load(FIG2_SOURCE_XSD, "purchaseOrder").unwrap(),
            XsdLoader.load(FIG2_TARGET_XSD, "invoice").unwrap(),
        )
    }

    #[test]
    fn decisions_pin_cells_across_reruns() {
        let (s, t) = fig2();
        let mut session = MatchSession::new(&s, &t);
        session.run();
        let first = s.find_by_name("firstName").unwrap();
        let total = t.find_by_name("total").unwrap();
        session.reject(first, total);
        assert_eq!(
            session.result().unwrap().matrix.get(first, total),
            Confidence::REJECT
        );
        session.run();
        assert_eq!(
            session.result().unwrap().matrix.get(first, total),
            Confidence::REJECT
        );
        assert_eq!(session.runs(), 2);
    }

    #[test]
    fn mark_complete_freezes_visible_as_accept_rest_as_reject() {
        let (s, t) = fig2();
        let mut session = MatchSession::new(&s, &t);
        session.run();
        let ship = s.find_by_name("shipTo").unwrap();
        let display = FilterSet::new().with_link(LinkFilter::BestPerElement);
        let visible_before = session.visible(&display);
        session.mark_complete(ship, &display);
        // Every visible link under shipTo is now accepted.
        for l in visible_before {
            if s.is_in_subtree(ship, l.src) {
                assert_eq!(
                    session.decisions()[&(l.src, l.tgt)],
                    Confidence::ACCEPT,
                    "visible link must be accepted"
                );
            }
        }
        // Progress advanced.
        assert!(session.progress() > 0.0);
        // And no cell under shipTo is undecided.
        let tgt_count = matchable_ids(&t).len();
        let members = s
            .subtree(ship)
            .into_iter()
            .filter(|&id| crate::matrix::is_matchable(s.element(id).kind))
            .count();
        let decided = session
            .decisions()
            .keys()
            .filter(|(src, _)| s.is_in_subtree(ship, *src))
            .count();
        assert_eq!(decided, members * tgt_count);
    }

    #[test]
    fn progress_reaches_one_when_all_subtrees_complete() {
        let (s, t) = fig2();
        let mut session = MatchSession::new(&s, &t);
        session.run();
        let display = FilterSet::new().with_link(LinkFilter::ConfidenceAtLeast(0.4));
        // Mark the entire schema complete ("including an entire schema",
        // §5.3).
        let top = s.find_by_name("purchaseOrder").unwrap();
        session.mark_complete(top, &display);
        assert!(session.is_complete());
        assert_eq!(session.progress(), 1.0);
    }

    #[test]
    fn accepted_pairs_feed_the_mapping_phase() {
        let (s, t) = fig2();
        let mut session = MatchSession::new(&s, &t);
        session.run();
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        session.accept(sub, total);
        assert_eq!(session.accepted_pairs(), vec![(sub, total)]);
    }

    #[test]
    fn rerun_after_feedback_learns() {
        let (s, t) = fig2();
        let mut session = MatchSession::new(&s, &t);
        session.run();
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        session.accept(sub, total);
        session.run();
        let weights = session.engine().merger().weights();
        assert!(weights.values().any(|w| (w - 1.0).abs() > 1e-9));
    }

    #[test]
    fn visible_empty_before_first_run() {
        let (s, t) = fig2();
        let session = MatchSession::new(&s, &t);
        assert!(session.visible(&FilterSet::new()).is_empty());
    }
}
