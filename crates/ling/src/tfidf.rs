//! TF-IDF weighted bag-of-words vectors and cosine similarity.
//!
//! The documentation match voter compares "the words appearing in the
//! elements' definitions" (§4); §4.3 describes it as "a bag-of-words
//! matcher that weights each word based on inverted frequency" whose word
//! weights can be adjusted by user feedback. [`Corpus`] holds the document
//! frequencies plus a learned per-term weight multiplier to support
//! exactly that adjustment.

use std::collections::{BTreeMap, HashMap};

/// A sparse term-weight vector.
///
/// Weights live in a `BTreeMap` so every float reduction over the
/// vector (norm, cosine dot product) runs in term order. `HashMap`
/// iteration order differs per map instance, and f64 addition is not
/// associative — with a hash map, two vectors built from the same
/// tokens could produce cosines differing in the last bits, breaking
/// the match engine's bit-identical determinism contract.
///
/// The Euclidean norm is computed once, when the vector is built, by
/// the same term-order sum every build uses (the empty and `Default`
/// vectors included), so [`cosine`] reads it instead of recomputing it
/// per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TermVector {
    weights: BTreeMap<String, f64>,
    norm: f64,
}

impl TermVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    fn from_weights(weights: BTreeMap<String, f64>) -> Self {
        let norm = weights.values().map(|w| w * w).sum::<f64>().sqrt();
        TermVector { weights, norm }
    }

    /// The weight of `term` (0 if absent).
    pub fn weight(&self, term: &str) -> f64 {
        self.weights.get(term).copied().unwrap_or(0.0)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if no terms have weight.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterate `(term, weight)` pairs in term order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.weights.iter().map(|(t, &w)| (t.as_str(), w))
    }

    /// Euclidean norm (computed at construction).
    pub fn norm(&self) -> f64 {
        self.norm
    }
}

impl Default for TermVector {
    fn default() -> Self {
        Self::from_weights(BTreeMap::new())
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for TermVector {
    fn from_iter<T: IntoIterator<Item = (S, f64)>>(iter: T) -> Self {
        Self::from_weights(iter.into_iter().map(|(t, w)| (t.into(), w)).collect())
    }
}

/// Cosine similarity of two term vectors, in [0, 1] for non-negative
/// weights. Zero if either vector is empty.
///
/// The dot product runs over the smaller vector's terms in term order,
/// with a cursor walking the larger one alongside: a term the larger
/// vector lacks adds `w × 0`, exactly as a lookup of its weight would.
pub fn cosine(a: &TermVector, b: &TermVector) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut cursor = large.weights.iter().peekable();
    let dot: f64 = small
        .iter()
        .map(|(t, w)| {
            while cursor.next_if(|(lt, _)| lt.as_str() < t).is_some() {}
            let other = match cursor.peek() {
                Some((lt, &lw)) if lt.as_str() == t => lw,
                _ => 0.0,
            };
            w * other
        })
        .sum();
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

/// A document corpus with document frequencies and learned term weights.
///
/// Build by [`Corpus::add_document`]-ing every element's token stream,
/// then [`Corpus::vector`] turns a token stream into a TF-IDF vector.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
    /// Learned multiplier per term, adjusted by user feedback (§4.3);
    /// defaults to 1.
    term_boost: HashMap<String, f64>,
}

/// A [`Corpus`] as plain data, for persistence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusParts {
    /// Number of documents added.
    pub doc_count: usize,
    /// Document frequency per term, sorted by term.
    pub doc_freq: Vec<(String, usize)>,
    /// Learned boost per term, sorted by term.
    pub term_boost: Vec<(String, f64)>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents added.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Register one document's tokens (duplicates within the document
    /// count once toward document frequency).
    pub fn add_document<'a>(&mut self, tokens: impl IntoIterator<Item = &'a str>) {
        self.doc_count += 1;
        let mut seen = std::collections::HashSet::new();
        for t in tokens {
            if seen.insert(t) {
                *self.doc_freq.entry(t.to_owned()).or_insert(0) += 1;
            }
        }
    }

    /// Smoothed inverse document frequency: `ln((1 + N) / (1 + df)) + 1`,
    /// which is always ≥ 1 (so unseen terms in an empty corpus still get
    /// weight) and maximal for terms never seen in the corpus.
    pub fn idf(&self, term: &str) -> f64 {
        let df = self.doc_freq.get(term).copied().unwrap_or(0);
        ((1.0 + self.doc_count as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    /// The learned boost multiplier of a term (default 1).
    pub fn boost(&self, term: &str) -> f64 {
        self.term_boost.get(term).copied().unwrap_or(1.0)
    }

    /// Multiply a term's boost, clamped to [0.1, 10]. The feedback loop
    /// calls this with >1 factors for predictive words and <1 for
    /// misleading ones.
    pub fn adjust_boost(&mut self, term: &str, factor: f64) {
        let b = self.term_boost.entry(term.to_owned()).or_insert(1.0);
        *b = (*b * factor).clamp(0.1, 10.0);
    }

    /// The corpus as plain data: the document count, then the document
    /// frequencies and learned boosts sorted by term (so equal corpora
    /// export equal parts whatever their hash-map order).
    pub fn to_parts(&self) -> CorpusParts {
        let mut doc_freq: Vec<(String, usize)> =
            self.doc_freq.iter().map(|(t, &n)| (t.clone(), n)).collect();
        doc_freq.sort_unstable();
        let mut term_boost: Vec<(String, f64)> = self
            .term_boost
            .iter()
            .map(|(t, &b)| (t.clone(), b))
            .collect();
        term_boost.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        CorpusParts {
            doc_count: self.doc_count,
            doc_freq,
            term_boost,
        }
    }

    /// Rebuild a corpus from [`Corpus::to_parts`].
    pub fn from_parts(parts: CorpusParts) -> Corpus {
        Corpus {
            doc_count: parts.doc_count,
            doc_freq: parts.doc_freq.into_iter().collect(),
            term_boost: parts.term_boost.into_iter().collect(),
        }
    }

    /// Build the TF-IDF vector of a token stream: term frequency ×
    /// smoothed IDF × learned boost.
    pub fn vector<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) -> TermVector {
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for t in tokens {
            *tf.entry(t).or_insert(0) += 1;
        }
        tf.into_iter()
            .map(|(t, f)| (t.to_owned(), f as f64 * self.idf(t) * self.boost(t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        c.add_document(["unique", "identifier", "airport"]);
        c.add_document(["name", "airport", "facility"]);
        c.add_document(["surface", "runway", "airport"]);
        c
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let c = corpus();
        assert!(c.idf("runway") > c.idf("airport"));
        assert!(c.idf("neverseen") > c.idf("runway"));
    }

    #[test]
    fn vector_counts_term_frequency() {
        let c = corpus();
        let v = c.vector(["runway", "runway", "airport"]);
        assert!(v.weight("runway") > v.weight("airport"));
        assert_eq!(v.weight("absent"), 0.0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn cosine_identity_and_disjoint() {
        let c = corpus();
        let v1 = c.vector(["runway", "surface"]);
        let v2 = c.vector(["runway", "surface"]);
        let v3 = c.vector(["name", "facility"]);
        assert!((cosine(&v1, &v2) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&v1, &v3), 0.0);
        assert_eq!(cosine(&v1, &TermVector::new()), 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let c = corpus();
        let v1 = c.vector(["runway", "surface", "airport"]);
        let v2 = c.vector(["runway", "airport", "name"]);
        let s = cosine(&v1, &v2);
        assert!((cosine(&v2, &v1) - s).abs() < 1e-12);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn boost_changes_vector_weights() {
        let mut c = corpus();
        let before = c.vector(["runway"]).weight("runway");
        c.adjust_boost("runway", 2.0);
        let after = c.vector(["runway"]).weight("runway");
        assert!((after / before - 2.0).abs() < 1e-12);
    }

    #[test]
    fn boost_clamped() {
        let mut c = corpus();
        for _ in 0..100 {
            c.adjust_boost("x", 10.0);
        }
        assert!((c.boost("x") - 10.0).abs() < 1e-12);
        for _ in 0..100 {
            c.adjust_boost("x", 0.01);
        }
        assert!((c.boost("x") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus_still_vectorises() {
        let c = Corpus::new();
        let v = c.vector(["a", "b"]);
        assert_eq!(v.len(), 2);
        assert!(v.weight("a") > 0.0);
    }
}
