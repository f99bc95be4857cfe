//! # iwb-ling — linguistic processing substrate
//!
//! The Harmony match engine "begins with linguistic preprocessing (e.g.,
//! tokenization, stop-word removal, and stemming) of element names and any
//! associated documentation" (paper §4). This crate provides that whole
//! layer, built from scratch:
//!
//! * [`tokenize`] — identifier splitting (camelCase, snake_case, digits)
//!   and prose tokenisation;
//! * [`stopwords`] — a standard English stop list;
//! * [`stem`] — a full Porter stemmer;
//! * [`editdist`] — Levenshtein and Jaro-Winkler string distances;
//! * [`ngram`] — character n-gram profiles and Dice overlap;
//! * [`soundex`] — phonetic codes for name matching;
//! * [`tfidf`] — corpus statistics, weighted bag-of-words vectors, cosine
//!   similarity (the documentation matcher's engine; §4.3's "bag-of-words
//!   matcher that weights each word based on inverted frequency");
//! * [`thesaurus`] — synonym rings and abbreviation expansion (the
//!   matcher that "expands the elements' names using a thesaurus");
//! * [`pipeline`] — the composed preprocess step used by voters;
//! * [`vocab_stats`] — documentation counting used to regenerate Table 1.

pub mod editdist;
pub mod ngram;
pub mod pipeline;
pub mod soundex;
pub mod stem;
pub mod stopwords;
pub mod tfidf;
pub mod thesaurus;
pub mod tokenize;
pub mod vocab_stats;

pub use editdist::{jaro_winkler, levenshtein, normalized_levenshtein};
pub use ngram::{dice_coefficient, dice_profiles, ngrams, NgramProfile};
pub use pipeline::{preprocess, Preprocessed};
pub use soundex::soundex;
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use tfidf::{cosine, Corpus, CorpusParts, TermVector};
pub use thesaurus::Thesaurus;
pub use tokenize::{split_identifier, tokenize_prose};
pub use vocab_stats::{DocStats, DocStatsRow};
