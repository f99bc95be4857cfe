//! **E1** — matcher quality across documentation densities.
//!
//! §4.1 claims documentation matchers "have good recall, although their
//! precision is less impressive", and §2 argues documentation (not
//! instances) is the evidence that is actually available. This
//! experiment sweeps documentation density × perturbation level and
//! reports P/R/F1 for each single voter and the merged engine
//! (magnitude-weighted and uniform-average ablation).

use iwb_eval::harness::{micro_average, score, standard_pairs, with_doc_density};
use iwb_harmony::voters::{
    AcronymVoter, DataTypeVoter, DocumentationVoter, DomainVoter, NameVoter, StructureVoter,
    ThesaurusVoter,
};
use iwb_harmony::{FloodingConfig, HarmonyEngine, MatchVoter, MergeStrategy, VoteMerger};
use iwb_registry::perturb::PerturbConfig;

const SEED: u64 = 20060406;
const THRESHOLD: f64 = 0.25;

fn single_voter_engine(voter: Box<dyn MatchVoter>) -> HarmonyEngine {
    HarmonyEngine::new(
        vec![voter],
        VoteMerger::default(),
        FloodingConfig::disabled(),
    )
}

fn engines() -> Vec<(&'static str, HarmonyEngine)> {
    vec![
        ("name", single_voter_engine(Box::new(NameVoter::default()))),
        (
            "documentation",
            single_voter_engine(Box::new(DocumentationVoter::default())),
        ),
        (
            "thesaurus",
            single_voter_engine(Box::new(ThesaurusVoter::default())),
        ),
        (
            "structure",
            single_voter_engine(Box::new(StructureVoter::default())),
        ),
        (
            "domain",
            single_voter_engine(Box::new(DomainVoter::default())),
        ),
        (
            "datatype",
            single_voter_engine(Box::new(DataTypeVoter::default())),
        ),
        (
            "acronym",
            single_voter_engine(Box::new(AcronymVoter::default())),
        ),
        ("merged(uniform)", {
            HarmonyEngine::new(
                iwb_harmony::voters::default_suite(),
                VoteMerger::with_strategy(MergeStrategy::UniformAverage),
                FloodingConfig::default(),
            )
        }),
        ("merged(full)", HarmonyEngine::default()),
        // Baselines after the cited systems (see harmony::baselines).
        ("base:exact-name", iwb_harmony::name_equivalence_engine()),
        ("base:coma-like", iwb_harmony::coma_like_engine()),
        ("base:cupid-like", iwb_harmony::cupid_like_engine()),
    ]
}

fn main() {
    let size: usize = std::env::args()
        .skip_while(|a| a != "--size")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    println!("E1 — matcher quality (seed={SEED}, elements/model={size}, threshold={THRESHOLD})");
    println!("doc-density sweep: 0% (conventional-wisdom case), 50%, 83% (Table 1 attributes), 99% (Table 1 elements)\n");

    for (perturb_name, perturb) in [
        ("mild", PerturbConfig::mild(SEED)),
        (
            "default",
            PerturbConfig {
                seed: SEED,
                ..Default::default()
            },
        ),
        ("harsh", PerturbConfig::harsh(SEED)),
    ] {
        println!("── perturbation: {perturb_name} ──");
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "voter",
            "P@0%",
            "R@0%",
            "F1@0%",
            "P@50%",
            "R@50%",
            "F1@50%",
            "P@83%",
            "R@83%",
            "F1@83%",
            "P@99%",
            "R@99%",
            "F1@99%"
        );
        let base_pairs = standard_pairs(SEED, 3, size, &perturb);
        for (name, mut engine) in engines() {
            let mut cells = Vec::new();
            for density in [0.0, 0.5, 0.83, 0.99] {
                let metrics: Vec<_> = base_pairs
                    .iter()
                    .map(|p| {
                        let pair = with_doc_density(p, density, SEED);
                        score(&mut engine, &pair, THRESHOLD)
                    })
                    .collect();
                let m = micro_average(&metrics);
                cells.push(format!("{:.3}", m.precision()));
                cells.push(format!("{:.3}", m.recall()));
                cells.push(format!("{:.3}", m.f1()));
            }
            println!(
                "{:<16} {}",
                name,
                cells
                    .iter()
                    .map(|c| format!("{c:>8}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        println!();
    }
    println!(
        "expected shape (paper §4.1): documentation voter recall > precision where docs exist;"
    );
    println!("documentation voter ≈ useless at 0% density; merged(full) ≥ every single voter;");
    println!("magnitude weighting ≥ uniform averaging.");
}
