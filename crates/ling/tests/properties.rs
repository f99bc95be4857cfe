//! Property-based tests for the linguistic substrate.

use iwb_ling::{
    cosine, dice_coefficient, jaro_winkler, levenshtein, normalized_levenshtein, porter_stem,
    soundex, split_identifier, Corpus, TermVector,
};
use proptest::prelude::*;

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Levenshtein is bounded by the longer string's length.
    #[test]
    fn levenshtein_bounds(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
        let d = levenshtein(&a, &b);
        prop_assert!(d <= a.chars().count().max(b.chars().count()));
        let n = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&n));
    }

    /// Jaro-Winkler is symmetric, bounded, and 1 on identity.
    #[test]
    fn jaro_winkler_properties(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let s = jaro_winkler(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s), "s={}", s);
        prop_assert!((jaro_winkler(&b, &a) - s).abs() < 1e-12);
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12 || a.is_empty());
    }

    /// Dice coefficient is symmetric and bounded; 1 on identity.
    #[test]
    fn dice_properties(a in "[a-z]{0,12}", b in "[a-z]{0,12}", n in 1usize..4) {
        let s = dice_coefficient(&a, &b, n);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((dice_coefficient(&b, &a, n) - s).abs() < 1e-12);
        prop_assert!((dice_coefficient(&a, &a, n) - 1.0).abs() < 1e-12);
    }

    /// Stemming never grows a word, never empties it, and repeated
    /// application reaches a fixpoint quickly. (Porter is not strictly
    /// idempotent — e.g. "oase" → "oas" → "oa" — but chains terminate.)
    #[test]
    fn stemming_shrinks_and_reaches_fixpoint(w in "[a-z]{1,16}") {
        let once = porter_stem(&w);
        prop_assert!(once.len() <= w.len());
        prop_assert!(!once.is_empty());
        let mut cur = once;
        let mut converged = false;
        for _ in 0..6 {
            let next = porter_stem(&cur);
            prop_assert!(next.len() <= cur.len());
            if next == cur {
                converged = true;
                break;
            }
            cur = next;
        }
        prop_assert!(converged, "no fixpoint for {}", w);
    }

    /// Identifier splitting produces lowercase alphanumeric tokens that
    /// jointly preserve every alphanumeric character of the input.
    #[test]
    fn split_identifier_preserves_chars(w in "[A-Za-z0-9_\\- ]{0,24}") {
        let tokens = split_identifier(&w);
        for t in &tokens {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
        let rejoined: String = tokens.concat();
        let expected: String = w.to_lowercase().chars().filter(|c| c.is_alphanumeric()).collect();
        prop_assert_eq!(rejoined, expected);
    }

    /// Soundex always yields a 4-character code starting with a letter.
    #[test]
    fn soundex_shape(w in "[A-Za-z]{1,16}") {
        let code = soundex(&w).unwrap();
        prop_assert_eq!(code.len(), 4);
        let bytes = code.as_bytes();
        prop_assert!(bytes[0].is_ascii_uppercase());
        prop_assert!(bytes[1..].iter().all(|b| (b'0'..=b'6').contains(b)));
    }

    /// IDF is monotonically non-increasing in document frequency, and
    /// cosine stays within [0, 1].
    #[test]
    fn corpus_idf_monotone(df_a in 0usize..20, df_b in 0usize..20) {
        let mut corpus = Corpus::new();
        for i in 0..20usize {
            let mut doc: Vec<&str> = vec!["filler"];
            if i < df_a { doc.push("alpha"); }
            if i < df_b { doc.push("beta"); }
            corpus.add_document(doc);
        }
        if df_a <= df_b {
            prop_assert!(corpus.idf("alpha") >= corpus.idf("beta"));
        }
        let v1 = corpus.vector(["alpha", "beta"]);
        let v2 = corpus.vector(["alpha", "filler"]);
        let c = iwb_ling::cosine(&v1, &v2);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    /// A vector's norm is computed once, at construction, and equals
    /// the term-order sum it replaced bit for bit, for empty vectors too.
    #[test]
    fn cached_norm_equals_the_recomputed_one(
        terms in proptest::collection::vec(("[a-f]{1,3}", 0.0f64..8.0), 0..12)
    ) {
        let v: TermVector = terms.into_iter().collect();
        prop_assert_eq!(v.norm().to_bits(), recomputed_norm(&v).to_bits());
    }

    /// The cursor walk in `cosine` adds exactly the products a lookup
    /// of each of the smaller vector's terms in the larger one adds,
    /// `w × 0` for a missing term included, in the same order.
    #[test]
    fn cursor_cosine_equals_the_lookup_dot_product(
        a in proptest::collection::vec(("[a-f]{1,2}", 0.0f64..8.0), 0..10),
        b in proptest::collection::vec(("[a-h]{1,3}", 0.0f64..8.0), 0..24)
    ) {
        let (a, b): (TermVector, TermVector) = (a.into_iter().collect(), b.into_iter().collect());
        prop_assert_eq!(cosine(&a, &b).to_bits(), lookup_cosine(&a, &b).to_bits());
        prop_assert_eq!(cosine(&b, &a).to_bits(), lookup_cosine(&b, &a).to_bits());
    }
}

/// The norm as `cosine` used to compute it for every pair.
fn recomputed_norm(v: &TermVector) -> f64 {
    v.iter().map(|(_, w)| w * w).sum::<f64>().sqrt()
}

/// `cosine` as it was: the smaller vector's terms looked up one by one
/// in the larger, both norms recomputed.
fn lookup_cosine(a: &TermVector, b: &TermVector) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small.iter().map(|(t, w)| w * large.weight(t)).sum();
    let denom = recomputed_norm(a) * recomputed_norm(b);
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

#[test]
fn empty_and_default_vectors_keep_the_bits_of_an_empty_sum() {
    let empty_sum = std::iter::empty::<f64>().sum::<f64>().sqrt();
    for v in [
        TermVector::new(),
        TermVector::default(),
        Vec::<(String, f64)>::new().into_iter().collect(),
    ] {
        assert!(v.is_empty());
        assert_eq!(v.norm().to_bits(), empty_sum.to_bits());
        assert_eq!(v.norm().to_bits(), recomputed_norm(&v).to_bits());
    }
    assert_eq!(TermVector::default(), TermVector::new());
    let some: TermVector = [("x", 1.0)].into_iter().collect();
    assert_eq!(cosine(&TermVector::default(), &some), 0.0);
}
