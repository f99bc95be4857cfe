//! Data-type compatibility voter.
//!
//! Weak, deliberately low-magnitude evidence: compatible declared types
//! barely raise confidence, but *incompatible* types (a date vs. a
//! boolean) meaningfully lower it. The magnitudes stay small so the
//! merger's magnitude weighting keeps this voter from dominating.

use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::voter::MatchVoter;
use iwb_model::element::TypeFamily;
use iwb_model::ElementId;

/// Voter over declared data types.
#[derive(Debug, Clone)]
pub struct DataTypeVoter {
    /// Confidence for same-family types (default +0.15).
    pub compatible: f64,
    /// Confidence for clashing families (default -0.3).
    pub incompatible: f64,
}

impl Default for DataTypeVoter {
    fn default() -> Self {
        DataTypeVoter {
            compatible: 0.15,
            incompatible: -0.3,
        }
    }
}

/// Families that convert into each other without loss of meaning often
/// enough that a mismatch is weak counter-evidence only.
fn convertible(a: TypeFamily, b: TypeFamily) -> bool {
    use TypeFamily::*;
    matches!(
        (a, b),
        (Textual, Coded) | (Coded, Textual) | (Numeric, Textual) | (Textual, Numeric)
    )
}

impl MatchVoter for DataTypeVoter {
    fn name(&self) -> &'static str {
        "datatype"
    }

    fn reads_learned_state(&self) -> bool {
        false
    }

    fn vote(&self, ctx: &MatchContext, src: ElementId, tgt: ElementId) -> Confidence {
        let a = ctx.source().element(src);
        let b = ctx.target().element(tgt);
        // Kind clash: a container never corresponds to a leaf attribute.
        if a.kind.is_container() != b.kind.is_container() {
            return Confidence::engine(self.incompatible);
        }
        let (Some(ta), Some(tb)) = (&a.data_type, &b.data_type) else {
            return Confidence::UNKNOWN;
        };
        let (fa, fb) = (ta.family(), tb.family());
        if fa == TypeFamily::Unknown || fb == TypeFamily::Unknown {
            return Confidence::UNKNOWN;
        }
        if fa == fb {
            Confidence::engine(self.compatible)
        } else if convertible(fa, fb) {
            Confidence::engine(self.compatible * 0.5)
        } else {
            Confidence::engine(self.incompatible)
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
            .attr("num", DataType::Integer)
            .attr("txt", DataType::VarChar(10))
            .attr("dt", DataType::Date)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("U")
            .attr("amount", DataType::Decimal)
            .attr("flag", DataType::Boolean)
            .attr("label", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn same_family_positive_clash_negative() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DataTypeVoter::default();
        let num = s.find_by_name("num").unwrap();
        let amount = t.find_by_name("amount").unwrap();
        let flag = t.find_by_name("flag").unwrap();
        assert!(v.vote(&ctx, num, amount).value() > 0.0);
        assert!(v.vote(&ctx, num, flag).value() < 0.0);
    }

    #[test]
    fn convertible_families_mildly_positive() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DataTypeVoter::default();
        let num = s.find_by_name("num").unwrap();
        let label = t.find_by_name("label").unwrap();
        let score = v.vote(&ctx, num, label).value();
        assert!(score > 0.0 && score < v.compatible);
    }

    #[test]
    fn container_vs_leaf_is_negative() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DataTypeVoter::default();
        let table = s.find_by_name("T").unwrap();
        let leaf = t.find_by_name("amount").unwrap();
        assert!(v.vote(&ctx, table, leaf).value() < 0.0);
    }

    #[test]
    fn missing_types_abstain() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let v = DataTypeVoter::default();
        let table = s.find_by_name("T").unwrap();
        let u = t.find_by_name("U").unwrap();
        assert_eq!(v.vote(&ctx, table, u), Confidence::UNKNOWN);
    }
}
