//! **E5** — filter effectiveness (§4.2's clutter removal).
//!
//! On a registry pair, measures how each link/node filter combination
//! trades the number of displayed links against the precision of what
//! survives — the quantified version of "filters that help the
//! integration engineer focus her attention".

use iwb_eval::harness::standard_pairs;
use iwb_harmony::filters::{FilterSet, LinkFilter, NodeFilter, Side};
use iwb_harmony::HarmonyEngine;
use iwb_registry::perturb::PerturbConfig;
use std::collections::HashMap;

const SEED: u64 = 20060406;

fn main() {
    let size: usize = std::env::args()
        .skip_while(|a| a != "--size")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    println!("E5 — filter effectiveness (seed={SEED}, elements/model={size})\n");
    let pair = &standard_pairs(
        SEED,
        1,
        size,
        &PerturbConfig {
            seed: SEED,
            ..Default::default()
        },
    )[0];
    let mut engine = HarmonyEngine::default();
    let result = engine.run(&pair.source, &pair.target, &HashMap::new());
    let total_cells = result.matrix.len();

    // A sub-schema to focus on: the largest entity.
    let focus = pair
        .source
        .ids_of_kind(iwb_model::ElementKind::Entity)
        .into_iter()
        .max_by_key(|&e| pair.source.children(e).len())
        .expect("registry models have entities");

    let combos: Vec<(&str, FilterSet)> = vec![
        ("no filters", FilterSet::new()),
        (
            "confidence ≥ 0.25",
            FilterSet::new().with_link(LinkFilter::ConfidenceAtLeast(0.25)),
        ),
        (
            "confidence ≥ 0.5",
            FilterSet::new().with_link(LinkFilter::ConfidenceAtLeast(0.5)),
        ),
        (
            "best-per-element",
            FilterSet::new().with_link(LinkFilter::BestPerElement),
        ),
        (
            "best ∧ conf ≥ 0.25",
            FilterSet::new()
                .with_link(LinkFilter::BestPerElement)
                .with_link(LinkFilter::ConfidenceAtLeast(0.25)),
        ),
        (
            "depth ≤ 1 (entities)",
            FilterSet::new()
                .with_node(NodeFilter::MaxDepth(Side::Source, 1))
                .with_link(LinkFilter::ConfidenceAtLeast(0.25)),
        ),
        (
            "subtree focus ∧ best",
            FilterSet::new()
                .with_node(NodeFilter::Subtree(Side::Source, focus))
                .with_link(LinkFilter::BestPerElement)
                .with_link(LinkFilter::ConfidenceAtLeast(0.25)),
        ),
    ];

    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "filter set", "displayed", "gold hits", "precision"
    );
    for (name, fs) in combos {
        let links = fs.visible(
            &result.matrix,
            &pair.source,
            &pair.target,
            &std::collections::HashSet::new(),
        );
        let hits = links
            .iter()
            .filter(|l| pair.gold.contains(&pair.source, &pair.target, l.src, l.tgt))
            .count();
        let precision = if links.is_empty() {
            1.0
        } else {
            hits as f64 / links.len() as f64
        };
        println!(
            "{:<22} {:>10} {:>12} {:>12.3}",
            name,
            links.len(),
            hits,
            precision
        );
    }
    println!(
        "\n(total candidate cells: {total_cells}; gold pairs: {})",
        pair.gold.len()
    );
    println!("expected shape: each added filter shrinks the displayed set and raises precision —");
    println!("clutter removal without losing the true links the engineer needs next.");
}
