//! # iwb-harmony — the Harmony schema match engine
//!
//! Harmony (paper §4) "combines multiple match algorithms with a
//! graphical user interface". This crate implements the whole engine
//! behind that GUI, following the architecture of Figure 1:
//!
//! 1. **Linguistic preprocessing** of element names and documentation
//!    (delegated to `iwb-ling`), cached per element in a
//!    [`context::MatchContext`];
//! 2. **Match voters** ([`voter::MatchVoter`]) — each "identifies
//!    correspondences using a different strategy" and emits a confidence
//!    score in (-1, +1) per element pair: name, documentation
//!    bag-of-words, thesaurus expansion, structure, domain values, data
//!    types, acronyms;
//! 3. a **vote merger** ([`merger::VoteMerger`]) that "weights each
//!    matcher's confidence based on its magnitude" and "weights each
//!    matcher *in toto* based on past performance";
//! 4. **similarity flooding** ([`flooding`]) where "positive confidence
//!    scores propagate up the schema graph … and negative confidence
//!    scores trickle down";
//! 5. **filters** ([`filters`]) — the link and node filters of §4.2 that
//!    let the engineer focus at different granularities;
//! 6. **iterative sessions** ([`session`]) with accept/reject feedback,
//!    mark-complete semantics, a progress bar, and learning (§4.3).
//!
//! [`eval`] provides gold-standard precision/recall/F1 scoring used by
//! the experiment harness.
//!
//! Long runs are cooperatively interruptible: [`HarmonyEngine::run_budgeted`]
//! threads an [`iwb_pool::Budget`] (cancel token + deadline, re-exported
//! here) through every stage and aborts with a structured [`Interrupt`]
//! without producing partial results.
//!
//! [`HarmonyEngine::run_budgeted`]: engine::HarmonyEngine::run_budgeted

pub mod baselines;
pub mod cache;
pub mod confidence;
pub mod context;
pub mod engine;
pub mod eval;
pub mod feedback;
pub mod filters;
pub mod flooding;
pub mod matrix;
pub mod merger;
pub mod session;
pub mod voter;
pub mod voters;

pub use baselines::{coma_like_engine, cupid_like_engine, name_equivalence_engine};
pub use cache::{fingerprint, CacheStats, FeatureCache};
pub use confidence::Confidence;
pub use context::{MatchContext, TextFeatures};
pub use engine::{EngineState, HarmonyEngine, MatchConfig, MatchResult, PairState, RunReport};
pub use eval::{GoldStandard, PrMetrics};
pub use feedback::Feedback;
pub use filters::{FilterSet, Link, LinkFilter, NodeFilter, Side};
pub use flooding::FloodingConfig;
pub use iwb_pool::{Budget, CancelToken, Deadline, Interrupt};
pub use matrix::ScoreMatrix;
pub use merger::{MergeStrategy, VoteMerger};
pub use session::MatchSession;
pub use voter::MatchVoter;
