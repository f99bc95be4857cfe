//! Seeded inputs: calibrated schema pairs and curation decisions. The
//! program under test receives only the generated command streams.

use iwb_eval::{default_knobs, domains, generate_case, EvalCase};
use iwb_harmony::matrix::matchable_ids;
use iwb_loaders::to_er_text;
use iwb_rng::StdRng;
use std::collections::HashSet;
use std::sync::Arc;

/// SplitMix64 finalizer over `seed` and a tuple of stream labels: each
/// (seed, labels) names one independent input stream.
pub fn mix(seed: u64, labels: &[u64]) -> u64 {
    let mut h = seed ^ 0x6a09_e667_f3bc_c909;
    for &label in labels {
        h = h.wrapping_add(label).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// One generated schema pair, with everything a client needs to drive
/// a session over it.
pub struct Pair {
    pub case: EvalCase,
    pub src: String,
    pub tgt: String,
    pub src_text: Arc<str>,
    pub tgt_text: Arc<str>,
    gold: Vec<(String, String)>,
    gold_set: HashSet<(String, String)>,
    src_paths: Vec<String>,
    tgt_paths: Vec<String>,
}

/// Entity cap for `--quick` (CI smoke) inputs.
const QUICK_ENTITIES: usize = 4;

impl Pair {
    /// Domain `domain % 4` at its default knobs under `seed`.
    pub fn new(domain: usize, seed: u64, quick: bool) -> Pair {
        let specs = domains();
        let spec = specs[domain % specs.len()];
        let mut knobs = default_knobs(spec);
        if quick {
            knobs.entities = knobs.entities.min(QUICK_ENTITIES);
        }
        Pair::from_case(generate_case(spec, &knobs, seed))
    }

    pub fn from_case(case: EvalCase) -> Pair {
        let (s, t) = (&case.pair.source, &case.pair.target);
        let gold: Vec<(String, String)> = case
            .pair
            .gold
            .iter()
            .map(|(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        Pair {
            src: s.id().as_str().to_owned(),
            tgt: t.id().as_str().to_owned(),
            src_text: to_er_text(s).into(),
            tgt_text: to_er_text(t).into(),
            gold_set: gold.iter().cloned().collect(),
            gold,
            src_paths: matchable_ids(s)
                .into_iter()
                .map(|id| s.name_path(id))
                .collect(),
            tgt_paths: matchable_ids(t)
                .into_iter()
                .map(|id| t.name_path(id))
                .collect(),
            case,
        }
    }

    /// The two `load er` commands with their heredoc bodies.
    pub fn loads(&self) -> [(String, Option<Arc<str>>); 2] {
        [
            (format!("load er {}", self.src), Some(self.src_text.clone())),
            (format!("load er {}", self.tgt), Some(self.tgt_text.clone())),
        ]
    }

    pub fn match_cmd(&self) -> String {
        format!("match {} {}", self.src, self.tgt)
    }

    /// One seeded analyst decision: half the time accept a gold cell,
    /// otherwise reject a decoy (a non-gold cell of the matrix).
    pub fn decision(&self, rng: &mut StdRng) -> String {
        if rng.next_f64() < 0.5 && !self.gold.is_empty() {
            let (a, b) = &self.gold[rng.gen_range(0..self.gold.len())];
            return self.accept(a, b);
        }
        loop {
            let a = &self.src_paths[rng.gen_range(0..self.src_paths.len())];
            let b = &self.tgt_paths[rng.gen_range(0..self.tgt_paths.len())];
            if !self.gold_set.contains(&(a.clone(), b.clone())) {
                return self.reject(a, b);
            }
        }
    }

    pub fn accept(&self, a: &str, b: &str) -> String {
        format!("accept {} {} {a} {b}", self.src, self.tgt)
    }

    pub fn reject(&self, a: &str, b: &str) -> String {
        format!("reject {} {} {a} {b}", self.src, self.tgt)
    }

    /// A gold cell and a decoy cell (the layer pass's fixed probes).
    pub fn probe_cells(&self) -> ((String, String), (String, String)) {
        let gold = self.gold[0].clone();
        let decoy = self
            .src_paths
            .iter()
            .flat_map(|a| self.tgt_paths.iter().map(move |b| (a.clone(), b.clone())))
            .find(|cell| !self.gold_set.contains(cell))
            .expect("a schema pair has a non-gold cell");
        (gold, decoy)
    }
}
