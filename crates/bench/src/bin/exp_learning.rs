//! **E3** — iterative refinement with oracle feedback (§4.3).
//!
//! Simulates the engineer's loop: run the engine, let an oracle decide
//! the strongest undecided proposals against the gold standard (accept
//! if gold, reject otherwise), feed the decisions back, re-run. Each
//! round reports precision/recall/F1 of the machine's proposals on the
//! *still-undecided* part of the problem, the cumulative fraction of
//! gold found, and the voter-weight trajectory. Finally the whole
//! schema is marked complete and the §4.3 progress bar reads 100%.

use iwb_eval::harness::standard_pairs;
use iwb_harmony::eval::GoldStandard;
use iwb_harmony::filters::{FilterSet, LinkFilter};
use iwb_harmony::MatchSession;
use iwb_registry::perturb::PerturbConfig;
use std::collections::HashSet;

const SEED: u64 = 20060406;
const ROUNDS: usize = 5;
const PER_ROUND: usize = 8;

fn main() {
    let size: usize = std::env::args()
        .skip_while(|a| a != "--size")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    println!("E3 — iterative learning with oracle feedback (seed={SEED}, elements/model={size})");
    println!("each round: engine run → oracle decides {PER_ROUND} strongest undecided proposals → learn\n");

    let pair = &standard_pairs(SEED, 1, size, &PerturbConfig::harsh(SEED))[0];
    let mut session = MatchSession::new(&pair.source, &pair.target);
    let display = FilterSet::new()
        .with_link(LinkFilter::BestPerElement)
        .with_link(LinkFilter::ConfidenceAtLeast(0.2));
    let total_gold = pair.gold.len();

    println!(
        "{:<7} {:>8} {:>8} {:>8} {:>11} {:>11}   voter weights",
        "round", "P", "R", "F1", "decided", "gold found"
    );
    for round in 0..ROUNDS {
        session.run();
        // Score the machine proposals on the still-undecided cells,
        // against the still-undecided gold.
        let decided: HashSet<(String, String)> = session
            .decisions()
            .keys()
            .map(|&(s, t)| (pair.source.name_path(s), pair.target.name_path(t)))
            .collect();
        let remaining_gold: GoldStandard = pair
            .gold
            .iter()
            .filter(|(s, t)| !decided.contains(&((*s).to_owned(), (*t).to_owned())))
            .map(|(s, t)| (s.to_owned(), t.to_owned()))
            .collect();
        let links: Vec<_> = session
            .visible(&display)
            .into_iter()
            .filter(|l| !l.user_defined)
            .collect();
        let m = remaining_gold.score(&pair.source, &pair.target, &links);
        let gold_found = pair
            .gold
            .iter()
            .filter(|(s, t)| decided.contains(&((*s).to_owned(), (*t).to_owned())))
            .count();
        let weights: Vec<String> = session
            .engine()
            .merger()
            .weights()
            .iter()
            .map(|(k, v)| format!("{k}={v:.2}"))
            .collect();
        println!(
            "{:<7} {:>8.3} {:>8.3} {:>8.3} {:>11} {:>8}/{:<3}  {}",
            round,
            m.precision(),
            m.recall(),
            m.f1(),
            session.decisions().len(),
            gold_found,
            total_gold,
            if weights.is_empty() {
                "(initial)".to_owned()
            } else {
                weights.join(" ")
            }
        );
        // Oracle decides the strongest undecided proposals.
        let mut candidates = links;
        candidates.sort_by(|a, b| b.confidence.value().total_cmp(&a.confidence.value()));
        for l in candidates.into_iter().take(PER_ROUND) {
            if pair.gold.contains(&pair.source, &pair.target, l.src, l.tgt) {
                session.accept(l.src, l.tgt);
            } else {
                session.reject(l.src, l.tgt);
            }
        }
    }
    // §4.3/§5.3: "she can mark sub-schemata as complete … (including an
    // entire schema)" — freeze everything visible and read the bar.
    session.mark_complete(pair.source.root(), &display);
    println!(
        "\nafter mark-complete on the whole schema: progress bar = {:.0}%",
        session.progress() * 100.0
    );
    println!("expected shape: precision of the remaining proposals stays high while decided");
    println!("coverage grows round over round; voters that agreed with the oracle gain weight.");
}
