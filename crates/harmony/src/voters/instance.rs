//! Instance-overlap voter (optional, sample-driven).
//!
//! §2 warns instance data is often unavailable in enterprise settings —
//! but "Instance data, thesauri, etc. are sometimes available and
//! sometimes not", and tools "must use whatever information is
//! available". When samples *are* attached to the
//! [`crate::MatchContext`], this voter compares the distinct value sets
//! of two attributes; with no samples it abstains completely, so the
//! engine degrades gracefully to the documentation-first behaviour the
//! paper argues for.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::ElementId;
use std::collections::HashSet;

/// Voter over sampled instance values.
#[derive(Debug, Clone)]
pub struct InstanceVoter {
    /// Jaccard overlap treated as "no evidence" (default 0.1).
    pub baseline: f64,
    /// Maximum confidence magnitude (default 0.85).
    pub cap: f64,
    /// Minimum distinct values on each side before voting (default 3) —
    /// two booleans overlapping is not evidence.
    pub min_distinct: usize,
}

impl Default for InstanceVoter {
    fn default() -> Self {
        InstanceVoter {
            baseline: 0.1,
            cap: 0.85,
            min_distinct: 3,
        }
    }
}

impl MatchVoter for InstanceVoter {
    fn name(&self) -> &'static str {
        "instance"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let a: HashSet<&String> = ctx.src_samples(src).iter().collect();
        let b: HashSet<&String> = ctx.tgt_samples(tgt).iter().collect();
        if a.len() < self.min_distinct || b.len() < self.min_distinct {
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
    use crate::context::SchemaSide;
    use iwb_ling::{Corpus, Thesaurus};
    use iwb_model::{DataType, Metamodel, SchemaBuilder, SchemaGraph};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("T")
            .attr("c1", DataType::Text)
            .attr("c2", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("U")
            .attr("k1", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    fn vals(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn overlapping_samples_vote_positive() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let mut ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let c1 = s.find_by_name("c1").unwrap();
        let c2 = s.find_by_name("c2").unwrap();
        let k1 = t.find_by_name("k1").unwrap();
        ctx.set_samples(
            SchemaSide::Source,
            [
                (c1, vals(&["ASP", "CON", "GRS"])),
                (c2, vals(&["red", "green", "blue"])),
            ],
        );
        ctx.set_samples(
            SchemaSide::Target,
            [(k1, vals(&["asp", "con", "grs", "dirt"]))],
        );
        let v = InstanceVoter::default();
        assert!(
            v.vote(&ctx, c1, k1).value() > 0.4,
            "case-insensitive overlap"
        );
        assert!(v.vote(&ctx, c2, k1).value() < 0.0, "disjoint values");
    }

    #[test]
    fn abstains_without_samples_or_below_min_distinct() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let mut ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let c1 = s.find_by_name("c1").unwrap();
        let k1 = t.find_by_name("k1").unwrap();
        let v = InstanceVoter::default();
        assert_eq!(v.vote(&ctx, c1, k1), Confidence::UNKNOWN);
        ctx.set_samples(SchemaSide::Source, [(c1, vals(&["x", "y"]))]);
        ctx.set_samples(SchemaSide::Target, [(k1, vals(&["x", "y"]))]);
        assert_eq!(
            v.vote(&ctx, c1, k1),
            Confidence::UNKNOWN,
            "below min_distinct"
        );
    }
}
