//! The vote merger.
//!
//! §4: "Given k match voters, the vote merger combines the k values for
//! each pair into a single confidence score. The vote merger weights
//! each matcher's confidence based on its magnitude — a score close to 0
//! indicates that the match voter did not see enough evidence to make a
//! strong prediction. The vote merger also weights each matcher *in
//! toto* based on past performance."
//!
//! §4.3 adds the caution implemented in [`VoteMerger::learn`]: "Learning
//! new weights must be done carefully … If the engineer based her first
//! pass on exactly that form of evidence, the corresponding candidate
//! matcher will appear overly successful" — so per-round weight growth
//! is capped, and the cap tightens for voters whose votes on the judged
//! pairs were near-saturated (the evidence the user most likely looked
//! at).

use crate::confidence::Confidence;
use crate::feedback::Feedback;
use std::collections::BTreeMap;

/// How votes are combined (ablation of a DESIGN.md design choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Magnitude- and performance-weighted (the paper's scheme).
    #[default]
    MagnitudeWeighted,
    /// Plain mean of all votes (ablation baseline).
    UniformAverage,
}

/// Combines per-voter confidences into one score, with learned per-voter
/// weights. Equality compares the strategy, every weight and every
/// bound: the engine re-merges every row when it changed.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteMerger {
    strategy: MergeStrategy,
    weights: BTreeMap<String, f64>,
    /// Hard bounds on a voter's weight.
    min_weight: f64,
    max_weight: f64,
    /// Per-round growth cap (see module docs).
    growth_cap: f64,
}

impl Default for VoteMerger {
    fn default() -> Self {
        VoteMerger {
            strategy: MergeStrategy::MagnitudeWeighted,
            weights: BTreeMap::new(),
            min_weight: 0.2,
            max_weight: 4.0,
            growth_cap: 1.5,
        }
    }
}

impl VoteMerger {
    /// A merger with an explicit strategy.
    pub fn with_strategy(strategy: MergeStrategy) -> Self {
        VoteMerger {
            strategy,
            ..Default::default()
        }
    }

    /// The current weight of a voter (default 1).
    pub fn weight(&self, voter: &str) -> f64 {
        self.weights.get(voter).copied().unwrap_or(1.0)
    }

    /// Set a voter's weight explicitly (clamped to the legal range).
    pub fn set_weight(&mut self, voter: &str, weight: f64) {
        self.weights.insert(
            voter.to_owned(),
            weight.clamp(self.min_weight, self.max_weight),
        );
    }

    /// All learned weights, by voter name.
    pub fn weights(&self) -> &BTreeMap<String, f64> {
        &self.weights
    }

    /// Merge one cell's votes. `votes` pairs each voter name with its
    /// confidence.
    pub fn merge(&self, votes: &[(&str, Confidence)]) -> Confidence {
        self.merge_weighted(votes.iter().map(|&(voter, c)| (self.weight(voter), c)))
    }

    /// Merge one cell's votes, each paired with its voter's weight
    /// ([`Self::weight`]). This is [`Self::merge`] with the weights
    /// looked up by the caller: the engine's merge kernel looks them up
    /// once per call, not once per cell, and runs this same arithmetic
    /// in the same order.
    pub(crate) fn merge_weighted(
        &self,
        votes: impl ExactSizeIterator<Item = (f64, Confidence)>,
    ) -> Confidence {
        let n = votes.len();
        if n == 0 {
            return Confidence::UNKNOWN;
        }
        match self.strategy {
            MergeStrategy::UniformAverage => {
                let sum: f64 = votes.map(|(_, c)| c.value()).sum();
                Confidence::engine(sum / n as f64)
            }
            MergeStrategy::MagnitudeWeighted => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (weight, c) in votes {
                    let w = weight * c.magnitude();
                    num += w * c.value();
                    den += w;
                }
                if den == 0.0 {
                    Confidence::UNKNOWN
                } else {
                    Confidence::engine(num / den)
                }
            }
        }
    }

    /// Re-weight voters from explicit user decisions. For each voter we
    /// compute an agreement score over the judged pairs — +1 when the
    /// voter's sign matches the decision, scaled by the voter's own
    /// magnitude (an abstaining voter is neither rewarded nor punished) —
    /// and nudge its weight multiplicatively.
    ///
    /// `votes_of` supplies the voter's confidence for a judged pair.
    pub fn learn(
        &mut self,
        feedback: &[Feedback],
        voter_names: &[&str],
        votes_of: impl Fn(&str, &Feedback) -> Confidence,
    ) {
        if feedback.is_empty() {
            return;
        }
        for &voter in voter_names {
            let mut agreement = 0.0;
            let mut evidence = 0.0;
            let mut saturation = 0.0;
            for fb in feedback {
                let c = votes_of(voter, fb);
                agreement += c.value() * fb.sign();
                evidence += c.magnitude();
                saturation += if c.magnitude() > 0.8 { 1.0 } else { 0.0 };
            }
            if evidence == 0.0 {
                continue; // voter abstained throughout; leave its weight
            }
            let accuracy = agreement / evidence; // in [-1, 1]
                                                 // §4.3 guard: if the voter was saturated on most judged pairs
                                                 // the user probably drew on the same evidence — damp growth.
            let saturated_frac = saturation / feedback.len() as f64;
            let cap = if saturated_frac > 0.5 {
                1.0 + (self.growth_cap - 1.0) * 0.4
            } else {
                self.growth_cap
            };
            let factor = (1.0 + 0.5 * accuracy).clamp(1.0 / self.growth_cap, cap);
            let w = self.weight(voter) * factor;
            self.set_weight(voter, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::ElementId;

    fn c(v: f64) -> Confidence {
        Confidence::engine(v)
    }

    #[test]
    fn magnitude_weighting_ignores_abstainers() {
        let m = VoteMerger::default();
        // A confident positive and a shrug: result stays near the
        // confident vote rather than averaging toward zero.
        let merged = m.merge(&[("a", c(0.8)), ("b", c(0.0))]);
        assert!((merged.value() - 0.8).abs() < 1e-9);
        // Uniform average is dragged down.
        let u = VoteMerger::with_strategy(MergeStrategy::UniformAverage);
        assert!((u.merge(&[("a", c(0.8)), ("b", c(0.0))]).value() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn conflicting_confident_votes_cancel() {
        let m = VoteMerger::default();
        let merged = m.merge(&[("a", c(0.6)), ("b", c(-0.6))]);
        assert!(merged.value().abs() < 1e-9);
    }

    #[test]
    fn voter_weights_tip_the_balance() {
        let mut m = VoteMerger::default();
        m.set_weight("trusted", 3.0);
        let merged = m.merge(&[("trusted", c(0.5)), ("other", c(-0.5))]);
        assert!(merged.value() > 0.2);
    }

    #[test]
    fn empty_and_all_abstain_merge_to_unknown() {
        let m = VoteMerger::default();
        assert_eq!(m.merge(&[]), Confidence::UNKNOWN);
        assert_eq!(
            m.merge(&[("a", c(0.0)), ("b", c(0.0))]),
            Confidence::UNKNOWN
        );
    }

    #[test]
    fn learning_rewards_agreement_and_punishes_error() {
        let mut m = VoteMerger::default();
        let fb = vec![
            Feedback::accept(ElementId::from_index(0), ElementId::from_index(0)),
            Feedback::reject(ElementId::from_index(1), ElementId::from_index(1)),
        ];
        m.learn(&fb, &["good", "bad", "silent"], |voter, fb| match voter {
            "good" => c(0.6 * fb.sign()),
            "bad" => c(-0.6 * fb.sign()),
            _ => c(0.0),
        });
        assert!(m.weight("good") > 1.0);
        assert!(m.weight("bad") < 1.0);
        assert_eq!(m.weight("silent"), 1.0);
    }

    #[test]
    fn saturated_voters_grow_slower() {
        let mut fast = VoteMerger::default();
        let mut slow = VoteMerger::default();
        let fb = vec![Feedback::accept(
            ElementId::from_index(0),
            ElementId::from_index(0),
        )];
        fast.learn(&fb, &["v"], |_, fb| c(0.6 * fb.sign()));
        slow.learn(&fb, &["v"], |_, fb| c(0.95 * fb.sign()));
        assert!(
            slow.weight("v") < fast.weight("v"),
            "§4.3 evidence-overlap guard"
        );
        assert!(slow.weight("v") > 1.0);
    }

    #[test]
    fn weights_stay_bounded() {
        let mut m = VoteMerger::default();
        let fb = vec![Feedback::accept(
            ElementId::from_index(0),
            ElementId::from_index(0),
        )];
        for _ in 0..100 {
            m.learn(&fb, &["v"], |_, fb| c(0.6 * fb.sign()));
        }
        assert!(m.weight("v") <= 4.0);
        for _ in 0..100 {
            m.learn(&fb, &["v"], |_, fb| c(-0.6 * fb.sign()));
        }
        assert!(m.weight("v") >= 0.2);
    }
}
