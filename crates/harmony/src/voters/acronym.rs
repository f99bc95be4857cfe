//! Acronym / initialism voter.
//!
//! Enterprise schemata abound with initialisms (`POC` for
//! `pointOfContact`, `ETA` for `estimatedTimeArrival`). When one name is
//! a single short token and the other is multi-token, this voter checks
//! whether the short name spells the initials of the long one. It only
//! ever votes positively — absence of an acronym relation is not
//! evidence against a match.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::ElementId;

/// Voter for initialisms.
#[derive(Debug, Clone)]
pub struct AcronymVoter {
    /// Confidence emitted on an acronym hit (default 0.75).
    pub hit: f64,
}

impl Default for AcronymVoter {
    fn default() -> Self {
        AcronymVoter { hit: 0.75 }
    }
}

/// True if `short` is the initialism of `long_tokens`.
fn is_acronym(short: &str, long_tokens: &[String]) -> bool {
    if long_tokens.len() < 2 || short.len() != long_tokens.len() {
        return false;
    }
    short
        .chars()
        .zip(long_tokens.iter())
        .all(|(c, tok)| tok.starts_with(c))
}

impl MatchVoter for AcronymVoter {
    fn name(&self) -> &'static str {
        "acronym"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        // Unfiltered tokens: stop words ("of" in pointOfContact) carry
        // letters of the initialism, so the preprocessed stream would
        // miss them.
        let a = iwb_ling::split_identifier(&ctx.source().element(src).name);
        let b = iwb_ling::split_identifier(&ctx.target().element(tgt).name);
        let (a, b) = (&a, &b);
        let hit = match (a.as_slice(), b.as_slice()) {
            ([single], many) if many.len() >= 2 => is_acronym(single, many),
            (many, [single]) if many.len() >= 2 => is_acronym(single, many),
            _ => false,
        };
        if hit {
            Confidence::engine(self.hit)
        } else {
            Confidence::UNKNOWN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    #[test]
    fn initialisms_hit_in_both_directions() {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("T")
            .attr("POC", DataType::Text)
            .attr("pointOfContact", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("u")
            .attr("pointOfContact", DataType::Text)
            .attr("POC", DataType::Text)
            .attr("unrelatedThing", DataType::Text)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = AcronymVoter::default();
        let poc = s.find_by_name("POC").unwrap();
        let long_t = t.find_by_name("pointOfContact").unwrap();
        assert_eq!(v.vote(&ctx, poc, long_t).value(), 0.75);
        let long_s = s.find_by_name("pointOfContact").unwrap();
        let poc_t = t.find_by_name("POC").unwrap();
        assert_eq!(v.vote(&ctx, long_s, poc_t).value(), 0.75);
        let other = t.find_by_name("unrelatedThing").unwrap();
        assert_eq!(v.vote(&ctx, poc, other), Confidence::UNKNOWN);
    }

    #[test]
    fn acronym_requires_full_cover() {
        assert!(is_acronym(
            "poc",
            &["point".into(), "of".into(), "contact".into()]
        ));
        assert!(!is_acronym(
            "pc",
            &["point".into(), "of".into(), "contact".into()]
        ));
        assert!(!is_acronym("poc", &["contact".into()]));
        assert!(!is_acronym(
            "xyz",
            &["point".into(), "of".into(), "contact".into()]
        ));
    }
}
