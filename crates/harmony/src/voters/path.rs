//! Path-context voter.
//!
//! Generic leaf names ("name", "code", "identifier" — the most common
//! attribute suffixes in the registry) are ambiguous on their own; what
//! disambiguates them is *where they sit*. This voter compares the
//! parents' name tokens under the thesaurus, so `CUSTOMER/name` prefers
//! `client/name` over `product/name` even though all three leaves are
//! identical.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::ElementId;

/// Voter over the containment context (parent names).
#[derive(Debug, Clone)]
pub struct PathVoter {
    /// Overlap treated as "no evidence" (default 0.25).
    pub baseline: f64,
    /// Maximum confidence magnitude (default 0.6) — context is
    /// supporting evidence, not primary.
    pub cap: f64,
}

impl Default for PathVoter {
    fn default() -> Self {
        PathVoter {
            baseline: 0.25,
            cap: 0.6,
        }
    }
}

impl MatchVoter for PathVoter {
    fn name(&self) -> &'static str {
        "path"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let (Some((_, ps)), Some((_, pt))) = (ctx.source().parent(src), ctx.target().parent(tgt))
        else {
            return Confidence::UNKNOWN;
        };
        // Parents at the schema root carry no discriminating context.
        if ps == ctx.source().root() || pt == ctx.target().root() {
            return Confidence::UNKNOWN;
        }
        let a = &ctx.src(ps).text;
        let b = &ctx.tgt(pt).text;
        if a.name.tokens.is_empty() || b.name.tokens.is_empty() {
            return Confidence::UNKNOWN;
        }
        // Parent tokens are compared through the cached per-token
        // `expanded_stems` (see the thesaurus voter).
        let (small, large) = if a.name.tokens.len() <= b.name.tokens.len() {
            (a, b)
        } else {
            (b, a)
        };
        let thesaurus = ctx.thesaurus();
        let hits = small
            .name
            .tokens
            .iter()
            .zip(small.expanded_stems.iter())
            .filter(|(x, xs)| {
                large
                    .name
                    .tokens
                    .iter()
                    .zip(large.expanded_stems.iter())
                    .any(|(y, ys)| thesaurus.synonymous(x, y) || **xs == *ys)
            })
            .count();
        Confidence::from_similarity(
            hits as f64 / small.name.tokens.len() as f64,
            self.baseline,
            self.cap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    #[test]
    fn parent_context_disambiguates_generic_leaves() {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("CUSTOMER")
            .attr("name", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("client")
            .attr("name", DataType::Text)
            .close()
            .open("product")
            .attr("name", DataType::Text)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = PathVoter::default();
        let cust_name = s.find_by_path("s/CUSTOMER/name").unwrap();
        let client_name = t.find_by_path("t/client/name").unwrap();
        let product_name = t.find_by_path("t/product/name").unwrap();
        assert!(
            v.vote(&ctx, cust_name, client_name).value()
                > v.vote(&ctx, cust_name, product_name).value()
        );
        assert!(v.vote(&ctx, cust_name, client_name).value() > 0.3);
        assert!(v.vote(&ctx, cust_name, product_name).value() < 0.0);
    }

    #[test]
    fn top_level_elements_abstain() {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("A")
            .attr("x", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("B")
            .attr("y", DataType::Text)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = PathVoter::default();
        let a = s.find_by_name("A").unwrap();
        let b = t.find_by_name("B").unwrap();
        assert_eq!(v.vote(&ctx, a, b), Confidence::UNKNOWN);
    }
}
