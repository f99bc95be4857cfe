//! Domain-value voter.
//!
//! §2: integration engineers "manually inspected the domain values to
//! find correspondences" and worked upward from there; domain values
//! "could be better exploited by schema matchers". This voter does that
//! inspection automatically: it compares the code sets and the
//! documented meanings of the domains reachable from the two elements.
//! Two attributes drawing values from near-identical coding schemes very
//! likely encode the same property — even when the attribute names and
//! the codes themselves differ, the documented meanings still align.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::ElementId;
use std::collections::HashSet;

/// Voter over coding-scheme values and their meanings.
#[derive(Debug, Clone)]
pub struct DomainVoter {
    /// Combined overlap treated as "no evidence" (default 0.2).
    pub baseline: f64,
    /// Maximum confidence magnitude (default 0.92) — matching value sets
    /// are among the strongest evidence available.
    pub cap: f64,
}

impl Default for DomainVoter {
    fn default() -> Self {
        DomainVoter {
            baseline: 0.2,
            cap: 0.92,
        }
    }
}

fn jaccard(a: &[String], b: &[String]) -> f64 {
    let sa: HashSet<&String> = a.iter().collect();
    let sb: HashSet<&String> = b.iter().collect();
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

impl MatchVoter for DomainVoter {
    fn name(&self) -> &'static str {
        "domain"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let a = &ctx.src(src).text;
        let b = &ctx.tgt(tgt).text;
        // Abstain unless both sides have domain evidence.
        if a.domain_codes.is_empty() || b.domain_codes.is_empty() {
            return Confidence::UNKNOWN;
        }
        let code_overlap = jaccard(&a.domain_codes, &b.domain_codes);
        let meaning_overlap = jaccard(&a.domain_meaning_stems, &b.domain_meaning_stems);
        // Codes are definitive when they align; meanings rescue renamed
        // coding schemes.
        let sim = code_overlap.max(0.85 * meaning_overlap);
        Confidence::from_similarity(sim, self.baseline, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Domain, Metamodel, SchemaBuilder, SchemaGraph};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let d1 = Domain::new("surface")
            .with_value("ASP", "Asphalt surface")
            .with_value("CON", "Concrete surface")
            .with_value("GRS", "Grass surface");
        // Same scheme, renamed codes, equivalent documentation.
        let d2 = Domain::new("rwy-sfc")
            .with_value("1", "Asphalt surface")
            .with_value("2", "Concrete surface")
            .with_value("3", "Grass surface");
        // Unrelated scheme.
        let d3 = Domain::new("status")
            .with_value("A", "Active duty")
            .with_value("R", "Reserve");
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("RUNWAY")
            .attr("SFC", DataType::Coded("surface".into()))
            .domain_for_last_attr(&d1)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("STRIP")
            .attr("KIND", DataType::Coded("rwy-sfc".into()))
            .domain_for_last_attr(&d2)
            .attr("STAT", DataType::Coded("status".into()))
            .domain_for_last_attr(&d3)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn renamed_codes_match_through_meanings() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DomainVoter::default();
        let sfc = s.find_by_name("SFC").unwrap();
        let kind = t.find_by_name("KIND").unwrap();
        assert!(v.vote(&ctx, sfc, kind).value() > 0.5, "meanings align");
    }

    #[test]
    fn unrelated_domains_score_negative() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DomainVoter::default();
        let sfc = s.find_by_name("SFC").unwrap();
        let stat = t.find_by_name("STAT").unwrap();
        assert!(v.vote(&ctx, sfc, stat).value() < 0.0);
    }

    #[test]
    fn abstains_without_domains() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DomainVoter::default();
        let runway = s.find_by_name("RUNWAY").unwrap();
        let strip = t.find_by_name("STRIP").unwrap();
        assert_eq!(v.vote(&ctx, runway, strip), Confidence::UNKNOWN);
    }

    #[test]
    fn identical_codes_match_directly() {
        let d = Domain::new("d")
            .with_value("ASP", "x")
            .with_value("CON", "y");
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("A")
            .attr("c1", DataType::Coded("d".into()))
            .domain_for_last_attr(&d)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("B")
            .attr("c2", DataType::Coded("d".into()))
            .domain_for_last_attr(&d)
            .close()
            .build();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DomainVoter::default();
        let c1 = s.find_by_name("c1").unwrap();
        let c2 = t.find_by_name("c2").unwrap();
        assert!(v.vote(&ctx, c1, c2).value() > 0.8);
    }
}
