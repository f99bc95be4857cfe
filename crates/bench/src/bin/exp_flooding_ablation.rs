//! **E2** — similarity flooding ablation.
//!
//! §4 describes the structural stage precisely: "Positive confidence
//! scores propagate up the schema graph … and negative confidence
//! scores trickle down". This experiment runs the full engine with
//! flooding off, up-only, down-only, and both, and reports F1.

use iwb_eval::harness::{micro_average, predict, standard_pairs};
use iwb_harmony::{FloodingConfig, HarmonyEngine, VoteMerger};
use iwb_registry::perturb::PerturbConfig;

const SEED: u64 = 20060406;

fn main() {
    let size: usize = std::env::args()
        .skip_while(|a| a != "--size")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    println!("E2 — similarity flooding ablation (seed={SEED}, elements/model={size})\n");
    let configs: [(&str, FloodingConfig); 4] = [
        ("none", FloodingConfig::disabled()),
        (
            "up-only",
            FloodingConfig {
                enable_down: false,
                ..Default::default()
            },
        ),
        (
            "down-only",
            FloodingConfig {
                enable_up: false,
                ..Default::default()
            },
        ),
        ("both", FloodingConfig::default()),
    ];
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "flooding", "P", "R", "F1", "iterations"
    );
    for (name, cfg) in configs {
        for (pname, perturb) in [
            (
                "default",
                PerturbConfig {
                    seed: SEED,
                    ..Default::default()
                },
            ),
            ("harsh", PerturbConfig::harsh(SEED)),
        ] {
            let pairs = standard_pairs(SEED, 3, size, &perturb);
            let mut engine = HarmonyEngine::new(
                iwb_harmony::voters::default_suite(),
                VoteMerger::default(),
                cfg,
            );
            let mut iters = 0usize;
            let metrics: Vec<_> = pairs
                .iter()
                .map(|p| {
                    let (links, it) = predict(&mut engine, p, 0.25);
                    iters = iters.max(it);
                    p.gold.score(&p.source, &p.target, &links)
                })
                .collect();
            let m = micro_average(&metrics);
            println!(
                "{:<10} {:>10.3} {:>10.3} {:>10.3} {:>12} ({pname})",
                name,
                m.precision(),
                m.recall(),
                m.f1(),
                iters
            );
        }
    }
    println!("\nexpected shape: 'both' ≥ 'up-only'/'down-only' ≥ 'none' on F1 (structure helps,");
    println!("and the two directions are complementary).");
}
