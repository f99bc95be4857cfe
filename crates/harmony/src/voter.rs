//! The match-voter interface.
//!
//! §4: "several *match voters* are invoked, each of which identifies
//! correspondences using a different strategy." A voter sees the shared
//! [`MatchContext`] and scores one (source, target) element pair at a
//! time; the engine drives the full cross product — sharded by source
//! rows across worker threads when configured — and hands the per-voter
//! matrices to the merger.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::feedback::Feedback;
use iwb_model::ElementId;

/// One match strategy (Figure 1's "match voters" box).
///
/// `Send + Sync` because the engine scores disjoint row ranges on a
/// thread pool with the voter suite shared read-only; `vote` must not
/// mutate hidden state (learning happens through [`MatchVoter::learn`],
/// which takes `&mut self` between runs).
pub trait MatchVoter: Send + Sync {
    /// Stable, unique voter name (used for merger weights and reports).
    fn name(&self) -> &'static str;

    /// Confidence that `src` and `tgt` correspond. Must return
    /// [`Confidence::UNKNOWN`] (or near it) when this voter's kind of
    /// evidence is absent for the pair.
    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence;

    /// Learn from explicit user decisions (§4.3: "each candidate matcher
    /// can learn from the user's choices and refine any internal
    /// parameters"). Default: no-op.
    fn learn(&mut self, _ctx: &mut MatchContext, _feedback: &[Feedback]) {}

    /// Whether this voter's scores can change when the engine learns:
    /// `vote` reads the learned corpus (term boosts, TF-IDF vectors) or
    /// state that any voter's `learn` mutates.
    ///
    /// The engine keys each retained voter matrix on what the voter
    /// reads. Every matrix is re-scored when a schema, the thesaurus or
    /// the instance samples change; a matrix of a voter that answers
    /// `true` is also re-scored after every learning step, while one
    /// that answers `false` is reused across learning steps. Default
    /// `true`, the answer that is always safe; override with `false`
    /// only when `vote` reads nothing but the schemas, the text
    /// features, the thesaurus and the samples.
    fn reads_learned_state(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{Metamodel, SchemaGraph};

    struct ConstVoter(f64);
    impl MatchVoter for ConstVoter {
        fn name(&self) -> &'static str {
            "const"
        }
        fn vote(&self, _: &MatchContext, _: ElementId, _: ElementId) -> Confidence {
            Confidence::engine(self.0)
        }
    }

    #[test]
    fn trait_objects_are_usable() {
        let s = SchemaGraph::new("s", Metamodel::Xml);
        let t = SchemaGraph::new("t", Metamodel::Xml);
        let th = Thesaurus::new();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v: Box<dyn MatchVoter> = Box::new(ConstVoter(0.5));
        assert_eq!(v.name(), "const");
        assert_eq!(v.vote(&ctx, s.root(), t.root()).value(), 0.5);
    }
}
