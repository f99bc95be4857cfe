//! Key-participation voter.
//!
//! Identifying attributes match identifying attributes: if both sides
//! participate in a declared key, that weakly supports a
//! correspondence; if exactly one side is a key participant, that
//! weakly opposes it (an identifier rarely maps to a plain descriptive
//! attribute). Uses the `key-attribute` cross edges loaders materialise
//! from PRIMARY KEY / `key` declarations.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::{EdgeKind, ElementId, ElementKind, SchemaGraph};

/// Voter over key participation.
#[derive(Debug, Clone)]
pub struct KeyVoter {
    /// Confidence when both sides are key participants (default +0.35).
    pub both: f64,
    /// Confidence when exactly one side is (default -0.2).
    pub mismatch: f64,
}

impl Default for KeyVoter {
    fn default() -> Self {
        KeyVoter {
            both: 0.35,
            mismatch: -0.2,
        }
    }
}

fn is_key_participant(graph: &SchemaGraph, id: ElementId) -> bool {
    graph
        .cross_edges()
        .iter()
        .any(|e| e.kind == EdgeKind::KeyAttribute && e.to == id)
}

impl MatchVoter for KeyVoter {
    fn name(&self) -> &'static str {
        "key"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        if ctx.source().element(src).kind != ElementKind::Attribute
            || ctx.target().element(tgt).kind != ElementKind::Attribute
        {
            return Confidence::UNKNOWN;
        }
        let a = is_key_participant(ctx.source(), src);
        let b = is_key_participant(ctx.target(), tgt);
        match (a, b) {
            (true, true) => Confidence::engine(self.both),
            (true, false) | (false, true) => Confidence::engine(self.mismatch),
            (false, false) => Confidence::UNKNOWN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder, SchemaGraph};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("T")
            .attr("id", DataType::Integer)
            .attr("note", DataType::Text)
            .key("pk", &["id"])
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("U")
            .attr("num", DataType::Integer)
            .attr("remark", DataType::Text)
            .key("pk", &["num"])
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn key_alignment_and_mismatch() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = KeyVoter::default();
        let id = s.find_by_name("id").unwrap();
        let note = s.find_by_name("note").unwrap();
        let num = t.find_by_name("num").unwrap();
        let remark = t.find_by_name("remark").unwrap();
        assert!(v.vote(&ctx, id, num).value() > 0.0, "key ↔ key");
        assert!(v.vote(&ctx, id, remark).value() < 0.0, "key ↔ non-key");
        assert_eq!(v.vote(&ctx, note, remark), Confidence::UNKNOWN);
        // Non-attributes abstain.
        let table = s.find_by_name("T").unwrap();
        let u = t.find_by_name("U").unwrap();
        assert_eq!(v.vote(&ctx, table, u), Confidence::UNKNOWN);
    }
}
