//! Harmony, stage by stage, from the engine's public pieces:
//! `MatchContext::build` → each of the nine voters over the cross
//! product → `VoteMerger::merge` (locked cells pass through) →
//! `flooding::flood`.
//!
//! A [`Decomposer`] also mirrors the feedback learning the workbench's
//! harmony tool performs before each re-match (voters learn term boosts
//! into the corpus, the merger re-weights voters against the previous
//! result), so it can follow a whole curation session and time each
//! stage of every `match`. Its matrices must be `to_bits`-identical to
//! the engine's; the layer pass checks that on every match it times.

use iwb_core::Blackboard;
use iwb_harmony::flooding::flood;
use iwb_harmony::matrix::matchable_ids;
use iwb_harmony::voters::default_suite;
use iwb_harmony::{
    Confidence, Feedback, FloodingConfig, MatchContext, MatchResult, MatchVoter, ScoreMatrix,
    VoteMerger,
};
use iwb_ling::{Corpus, Thesaurus};
use iwb_model::{ElementId, SchemaGraph, SchemaId};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Wall time of each stage of one recomputed match, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    pub context_us: f64,
    /// Per voter, in the engine's voter order.
    pub vote_us: Vec<(&'static str, f64)>,
    pub merge_us: f64,
    pub flood_us: f64,
    pub flood_iterations: usize,
    pub cells: usize,
}

type Locked = HashMap<(ElementId, ElementId), Confidence>;

pub struct Decomposer {
    voters: Vec<Box<dyn MatchVoter>>,
    merger: VoteMerger,
    flooding: FloodingConfig,
    thesaurus: Thesaurus,
    /// Learned term boosts, carried across runs like the engine's seed
    /// corpus.
    corpus: Corpus,
    previous: HashMap<(SchemaId, SchemaId), MatchResult>,
    learned: HashSet<(SchemaId, SchemaId, ElementId, ElementId)>,
}

impl Default for Decomposer {
    fn default() -> Self {
        Decomposer {
            voters: default_suite(),
            merger: VoteMerger::default(),
            flooding: FloodingConfig::default(),
            thesaurus: Thesaurus::builtin(),
            corpus: Corpus::new(),
            previous: HashMap::new(),
            learned: HashSet::new(),
        }
    }
}

impl Decomposer {
    pub fn new() -> Decomposer {
        Decomposer::default()
    }

    /// The merger as the mirrored learning left it.
    pub fn merger(&self) -> &VoteMerger {
        &self.merger
    }

    /// Recompute the `match <src> <tgt>` a shell just ran over `bb`:
    /// learn from decisions not yet learned (as the harmony tool does
    /// before running the engine), then run the pipeline stage by stage.
    pub fn rematch(
        &mut self,
        bb: &Blackboard,
        src: &SchemaId,
        tgt: &SchemaId,
    ) -> Result<(MatchResult, StageTimes), String> {
        let source = bb.schema(src).ok_or(format!("no schema {src}"))?;
        let target = bb.schema(tgt).ok_or(format!("no schema {tgt}"))?;
        let locked = self.scan_decisions(bb, src, tgt);
        Ok(self.run(source, target, &locked))
    }

    /// Locked cells of the pair's matrix; feeds decisions not learned
    /// before back into voters and merger against the previous result.
    fn scan_decisions(&mut self, bb: &Blackboard, src: &SchemaId, tgt: &SchemaId) -> Locked {
        let mut locked = HashMap::new();
        let mut fresh = Vec::new();
        if let Some(matrix) = bb.matrix(src, tgt) {
            for &row in matrix.rows() {
                for &col in matrix.cols() {
                    let cell = matrix.cell(row, col);
                    if !cell.user_defined {
                        continue;
                    }
                    locked.insert((row, col), cell.confidence);
                    if self.learned.insert((src.clone(), tgt.clone(), row, col)) {
                        fresh.push(Feedback {
                            src: row,
                            tgt: col,
                            accepted: cell.confidence == Confidence::ACCEPT,
                        });
                    }
                }
            }
        }
        let key = (src.clone(), tgt.clone());
        if let (Some(prev), false) = (self.previous.get(&key), fresh.is_empty()) {
            let (source, target) = (
                bb.schema(src).expect("scanned pair has a source"),
                bb.schema(tgt).expect("scanned pair has a target"),
            );
            let mut ctx = MatchContext::build(source, target, &self.thesaurus, self.corpus.clone());
            for voter in &mut self.voters {
                voter.learn(&mut ctx, &fresh);
            }
            self.corpus = ctx.corpus;
            let names: Vec<&str> = self.voters.iter().map(|v| v.name()).collect();
            self.merger.learn(&fresh, &names, |voter, fb| {
                prev.vote_of(voter, fb.src, fb.tgt)
            });
        }
        locked
    }

    /// The engine pipeline over `source` × `target`, timed per stage.
    pub fn run(
        &mut self,
        source: &SchemaGraph,
        target: &SchemaGraph,
        locked: &Locked,
    ) -> (MatchResult, StageTimes) {
        let mut times = StageTimes::default();
        let t = Instant::now();
        let ctx = MatchContext::build(source, target, &self.thesaurus, self.corpus.clone());
        times.context_us = micros(t);

        let src_ids = matchable_ids(source);
        let tgt_ids = matchable_ids(target);
        times.cells = src_ids.len() * tgt_ids.len();
        let mut per_voter = Vec::with_capacity(self.voters.len());
        for voter in &self.voters {
            let t = Instant::now();
            let mut slab = Vec::with_capacity(times.cells);
            for &s in &src_ids {
                for &g in &tgt_ids {
                    slab.push(voter.vote(&ctx, s, g).value());
                }
            }
            let mut m = ScoreMatrix::new(src_ids.clone(), tgt_ids.clone());
            m.splice_rows(0, &slab);
            times.vote_us.push((voter.name(), micros(t)));
            per_voter.push((voter.name().to_owned(), m));
        }

        let t = Instant::now();
        let mut slab = Vec::with_capacity(times.cells);
        let mut votes: Vec<(&str, Confidence)> = Vec::with_capacity(per_voter.len());
        for &s in &src_ids {
            for &g in &tgt_ids {
                if let Some(&c) = locked.get(&(s, g)) {
                    slab.push(c.value());
                    continue;
                }
                votes.clear();
                votes.extend(per_voter.iter().map(|(n, m)| (n.as_str(), m.get(s, g))));
                slab.push(self.merger.merge(&votes).value());
            }
        }
        let mut matrix = ScoreMatrix::new(src_ids, tgt_ids);
        matrix.splice_rows(0, &slab);
        times.merge_us = micros(t);

        let t = Instant::now();
        let pinned: HashSet<(ElementId, ElementId)> = locked.keys().copied().collect();
        times.flood_iterations = flood(&mut matrix, source, target, &pinned, &self.flooding);
        times.flood_us = micros(t);

        let result = MatchResult {
            matrix,
            per_voter,
            flooding_iterations: times.flood_iterations,
        };
        self.previous
            .insert((source.id().clone(), target.id().clone()), result.clone());
        (result, times)
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Whether two matrices hold bit-identical scores over the same cells.
pub fn identical(a: &ScoreMatrix, b: &ScoreMatrix) -> bool {
    a.src_ids() == b.src_ids()
        && a.tgt_ids() == b.tgt_ids()
        && a.scores()
            .iter()
            .zip(b.scores())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether the blackboard's matrix for the pair holds exactly `m`'s
/// scores on every cell `m` covers.
pub fn matches_blackboard(
    bb: &Blackboard,
    src: &SchemaId,
    tgt: &SchemaId,
    m: &ScoreMatrix,
) -> bool {
    let Some(matrix) = bb.matrix(src, tgt) else {
        return false;
    };
    m.iter()
        .all(|(s, t, c)| matrix.cell(s, t).confidence.value().to_bits() == c.value().to_bits())
}
