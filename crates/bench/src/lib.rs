//! # iwb-bench — shared experiment harness
//!
//! Utilities used by the experiment binaries in `src/bin/` (one per
//! table/figure — see DESIGN.md §4).
//!
//! The workload generators and scoring helpers moved to
//! [`iwb_eval::harness`] (so the golden regression suite, the
//! curation-replay workload, and the experiment binaries share one
//! implementation); they are re-exported here so experiment code keeps
//! its historical imports.

pub use iwb_eval::harness::{micro_average, predict, score, standard_pairs, with_doc_density};

/// Fixed-width table row helper for the experiment printouts.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_right_aligns_cells() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn reexported_harness_is_usable() {
        let pairs = standard_pairs(42, 1, 8, &iwb_registry::PerturbConfig::mild(1));
        let m = score(&mut iwb_harmony::HarmonyEngine::default(), &pairs[0], 0.25);
        assert!(m.actual > 0);
    }
}
