//! Thesaurus-expansion voter.
//!
//! §4: "Another matcher expands the elements' names using a thesaurus."
//! Name tokens are compared under synonymy (synonym rings), abbreviation
//! expansion, and shared stems, so `acftType` matches `airplaneKind`
//! even though no characters align.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::ElementId;

/// Voter over thesaurus-expanded name tokens.
#[derive(Debug, Clone)]
pub struct ThesaurusVoter {
    /// Overlap fraction treated as "no evidence" (default 0.25).
    pub baseline: f64,
    /// Maximum confidence magnitude (default 0.8).
    pub cap: f64,
}

impl Default for ThesaurusVoter {
    fn default() -> Self {
        ThesaurusVoter {
            baseline: 0.25,
            cap: 0.8,
        }
    }
}

impl ThesaurusVoter {
    /// True if two tokens are equivalent under the thesaurus: equal,
    /// synonymous after abbreviation expansion, or sharing a stem after
    /// expansion. `vote` computes the same relation through the cached
    /// `expanded_stems`; this spelled-out form documents and tests it.
    #[cfg(test)]
    fn equivalent(thesaurus: &iwb_ling::Thesaurus, a: &str, b: &str) -> bool {
        use iwb_ling::porter_stem;
        if thesaurus.synonymous(a, b) {
            return true;
        }
        let ea = thesaurus.expand(a);
        let eb = thesaurus.expand(b);
        porter_stem(ea) == porter_stem(eb)
    }
}

impl MatchVoter for ThesaurusVoter {
    fn name(&self) -> &'static str {
        "thesaurus"
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
        // Expansion + stemming is precomputed per token in
        // `expanded_stems` (aligned with `name.tokens`); only the
        // synonym-ring lookup still needs the thesaurus per pair.
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
        let overlap = hits as f64 / small.name.tokens.len() as f64;
        Confidence::from_similarity(overlap, self.baseline, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder, SchemaGraph};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("FLIGHT")
            .attr("ACFT_TYPE", DataType::Text)
            .attr("VENDOR_NAME", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("flight")
            .attr("airplaneKind", DataType::Text)
            .attr("supplierName", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn abbreviations_and_synonyms_match() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = ThesaurusVoter::default();
        let acft = s.find_by_name("ACFT_TYPE").unwrap();
        let plane = t.find_by_name("airplaneKind").unwrap();
        assert!(
            v.vote(&ctx, acft, plane).value() > 0.5,
            "acft~airplane, type~kind"
        );
    }

    #[test]
    fn synonym_rings_cross_vocabulary() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = ThesaurusVoter::default();
        let vendor = s.find_by_name("VENDOR_NAME").unwrap();
        let supplier = t.find_by_name("supplierName").unwrap();
        assert!(v.vote(&ctx, vendor, supplier).value() > 0.5);
    }

    #[test]
    fn disjoint_vocabulary_scores_negative() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = ThesaurusVoter::default();
        let acft = s.find_by_name("ACFT_TYPE").unwrap();
        let supplier = t.find_by_name("supplierName").unwrap();
        assert!(v.vote(&ctx, acft, supplier).value() < 0.0);
    }

    #[test]
    fn stem_equivalence_after_expansion() {
        let th = Thesaurus::builtin();
        assert!(ThesaurusVoter::equivalent(&th, "shipping", "shipped"));
        assert!(ThesaurusVoter::equivalent(&th, "addr", "addresses"));
        assert!(!ThesaurusVoter::equivalent(&th, "runway", "salary"));
    }
}
