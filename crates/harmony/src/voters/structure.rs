//! Structural (children-vocabulary) voter.
//!
//! Containers whose children talk about the same things probably
//! correspond, even when the containers' own names differ. The voter
//! compares the stem vocabulary of the two elements' direct children;
//! for leaves it abstains.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::{ElementId, SchemaGraph};
use std::collections::HashSet;

/// Voter over child-element vocabularies.
#[derive(Debug, Clone)]
pub struct StructureVoter {
    /// Jaccard level treated as "no evidence" (default 0.15).
    pub baseline: f64,
    /// Maximum confidence magnitude (default 0.7) — structural evidence
    /// alone is circumstantial.
    pub cap: f64,
}

impl Default for StructureVoter {
    fn default() -> Self {
        StructureVoter {
            baseline: 0.15,
            cap: 0.7,
        }
    }
}

fn child_stems(
    ctx: &MatchContext,
    graph: &SchemaGraph,
    id: ElementId,
    source_side: bool,
) -> HashSet<String> {
    graph
        .children(id)
        .iter()
        .flat_map(|&(_, c)| {
            let f = if source_side { ctx.src(c) } else { ctx.tgt(c) };
            f.text.name.stems.iter().cloned()
        })
        .collect()
}

impl MatchVoter for StructureVoter {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let a = child_stems(ctx, ctx.source(), src, true);
        let b = child_stems(ctx, ctx.target(), tgt, false);
        if a.is_empty() || b.is_empty() {
            return Confidence::UNKNOWN;
        }
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        Confidence::from_similarity(inter / union, self.baseline, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    #[test]
    fn containers_with_shared_children_match() {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("PERSON")
            .attr("first_name", DataType::Text)
            .attr("last_name", DataType::Text)
            .attr("birth_date", DataType::Date)
            .close()
            .open("WIDGET")
            .attr("sku", DataType::Text)
            .attr("weight", DataType::Decimal)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("individual")
            .attr("firstName", DataType::Text)
            .attr("lastName", DataType::Text)
            .attr("birthDate", DataType::Date)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = StructureVoter::default();
        let person = s.find_by_name("PERSON").unwrap();
        let widget = s.find_by_name("WIDGET").unwrap();
        let individual = t.find_by_name("individual").unwrap();
        assert!(v.vote(&ctx, person, individual).value() > 0.4);
        assert!(v.vote(&ctx, widget, individual).value() < 0.0);
    }

    #[test]
    fn leaves_abstain() {
        let s = SchemaBuilder::new("s", Metamodel::Xml)
            .open("e")
            .attr("x", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("f")
            .attr("x", DataType::Text)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = StructureVoter::default();
        let xs = s.find_by_name("x").unwrap();
        let xt = t.find_by_name("x").unwrap();
        assert_eq!(v.vote(&ctx, xs, xt), Confidence::UNKNOWN);
    }
}
