//! Name similarity voter.
//!
//! Blends three views of the element names: whole-string Jaro-Winkler
//! (abbreviation-friendly), character-bigram Dice on the concatenated
//! lowercase tokens (separator-convention-proof), and exact-stem token
//! overlap. The blend is mapped to a confidence around a noise baseline.

use crate::confidence::Confidence;
use crate::context::{MatchContext, TextFeatures};
use crate::voter::MatchVoter;
use iwb_ling::{dice_profiles, jaro_winkler};
use iwb_model::ElementId;

/// Voter over element names.
#[derive(Debug, Clone)]
pub struct NameVoter {
    /// Similarity level that counts as "no evidence" (default 0.42).
    pub baseline: f64,
    /// Maximum confidence magnitude emitted (default 0.9).
    pub cap: f64,
}

impl Default for NameVoter {
    fn default() -> Self {
        NameVoter {
            baseline: 0.42,
            cap: 0.9,
        }
    }
}

impl NameVoter {
    /// The blended similarity over two elements' cached name features
    /// (joined strings, bigram profiles, token lists).
    fn similarity(a: &TextFeatures, b: &TextFeatures) -> f64 {
        let jw = jaro_winkler(&a.joined_name, &b.joined_name);
        // Bigram Dice from the cached profiles; names too short to have
        // a bigram fall back to exact comparison (matching
        // `dice_coefficient` on the joined strings).
        let dice = if a.name_profile.total() + b.name_profile.total() == 0 {
            if a.joined_name == b.joined_name {
                1.0
            } else {
                0.0
            }
        } else {
            dice_profiles(&a.name_profile, &b.name_profile)
        };
        let a_tokens = &a.name.tokens;
        let b_tokens = &b.name.tokens;
        let (small, large) = if a_tokens.len() <= b_tokens.len() {
            (a_tokens, b_tokens)
        } else {
            (b_tokens, a_tokens)
        };
        let overlap =
            small.iter().filter(|t| large.contains(t)).count() as f64 / small.len() as f64;
        0.4 * jw + 0.35 * dice + 0.25 * overlap
    }
}

impl MatchVoter for NameVoter {
    fn name(&self) -> &'static str {
        "name"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let a = &ctx.src(src).text;
        let b = &ctx.tgt(tgt).text;
        if a.name.tokens.is_empty() || b.name.tokens.is_empty() {
            return Confidence::UNKNOWN;
        }
        Confidence::from_similarity(Self::similarity(a, b), self.baseline, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder, SchemaGraph};

    fn ctx_schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Xml)
            .open("shipTo")
            .attr("firstName", DataType::Text)
            .attr("subtotal", DataType::Decimal)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("shippingInfo")
            .attr("first_name", DataType::Text)
            .attr("total", DataType::Decimal)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn convention_differences_still_match() {
        let (s, t) = ctx_schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = NameVoter::default();
        let fn_s = s.find_by_name("firstName").unwrap();
        let fn_t = t.find_by_name("first_name").unwrap();
        assert!(v.vote(&ctx, fn_s, fn_t).value() > 0.7, "camel vs snake");
    }

    #[test]
    fn related_names_beat_unrelated() {
        let (s, t) = ctx_schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = NameVoter::default();
        let ship = s.find_by_name("shipTo").unwrap();
        let shipping = t.find_by_name("shippingInfo").unwrap();
        let total = t.find_by_name("total").unwrap();
        assert!(v.vote(&ctx, ship, shipping).value() > v.vote(&ctx, ship, total).value());
    }

    #[test]
    fn unrelated_names_score_negative() {
        let (s, t) = ctx_schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = NameVoter::default();
        let first = s.find_by_name("firstName").unwrap();
        let total = t.find_by_name("total").unwrap();
        assert!(v.vote(&ctx, first, total).value() < 0.0);
    }

    #[test]
    fn identical_names_near_cap() {
        let (s, t) = ctx_schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = NameVoter::default();
        let sub = s.find_by_name("subtotal").unwrap();
        // subtotal vs total: substantial but not perfect.
        let tot = t.find_by_name("total").unwrap();
        let sim = v.vote(&ctx, sub, tot).value();
        assert!(sim > 0.0 && sim < v.cap);
    }
}
