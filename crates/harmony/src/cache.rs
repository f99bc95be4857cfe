//! Per-schema feature cache for engine re-runs.
//!
//! Matching is iterative (§4.3): the engineer re-runs the engine after
//! every batch of accept/reject decisions, usually against the *same*
//! schema pair. Re-deriving tokenisation, stems, bigram profiles, and
//! thesaurus expansions for every element on every run is pure waste, so
//! the engine keeps a [`FeatureCache`] with two levels:
//!
//! * **Text level** — corpus-independent [`TextFeatures`] per schema,
//!   keyed by a content [`fingerprint`] of the graph. Valid across any
//!   pairing of that schema.
//! * **Context level** — a fully built [`MatchContext`] (including the
//!   combined TF-IDF corpus) per `(source, target, corpus epoch)`
//!   triple. The epoch is bumped by the engine whenever learned state
//!   that feeds the context changes (term boosts, thesaurus, instance
//!   samples), so stale contexts can never be served.
//!
//! Caching is exactly transparent: a cache hit returns features that are
//! value-identical to a fresh build, so match results are byte-identical
//! with the cache on or off (asserted by `tests/determinism.rs`).
//!
//! Invalidation: the workbench's `HarmonyTool` clears the cache when the
//! blackboard announces a schema-graph event (a schema was added or
//! replaced), and [`crate::HarmonyEngine::invalidate_features`] exposes
//! the same for direct embedders.

use crate::context::{schema_text_features, MatchContext, TextFeatures};
use iwb_ling::Thesaurus;
use iwb_model::{ElementId, SchemaGraph};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Bound on cached built contexts (each holds two schemata's worth of
/// vectors); the cache clears wholesale when full — re-runs of the same
/// pair, the dominant workload, refill it immediately.
const MAX_CONTEXTS: usize = 8;
/// Bound on cached per-schema text feature sets.
const MAX_TEXT: usize = 16;

/// Content fingerprint of a schema graph: covers identity, metamodel,
/// every element (kind, name, type, documentation, annotations), and
/// all containment and cross edges. Deterministic within a process.
///
/// Hashes element fields directly — no `format!("{el:?}")` rendering.
/// The fingerprint runs on **every** engine invocation (it is the cache
/// key), so a warm lookup must cost hashing, not a Debug-string
/// allocation per element; the allocating version made warm runs
/// slower than cold ones on large schemas (`cache_speedup` < 1 in
/// `BENCH_match.json`).
pub fn fingerprint(graph: &SchemaGraph) -> u64 {
    let mut h = DefaultHasher::new();
    graph.id().hash(&mut h);
    graph.metamodel().hash(&mut h);
    graph.len().hash(&mut h);
    for (id, el) in graph.iter() {
        id.hash(&mut h);
        el.kind.hash(&mut h);
        el.name.hash(&mut h);
        el.data_type.hash(&mut h);
        el.documentation.hash(&mut h);
        // Annotations hold f64 values (no Hash derive); hash the raw
        // bits — fingerprint equality wants bit-identity anyway.
        for (key, value) in el.annotations.iter() {
            key.hash(&mut h);
            match value {
                iwb_model::AnnotationValue::Text(s) => {
                    0u8.hash(&mut h);
                    s.hash(&mut h);
                }
                iwb_model::AnnotationValue::Number(n) => {
                    1u8.hash(&mut h);
                    n.to_bits().hash(&mut h);
                }
                iwb_model::AnnotationValue::Flag(b) => {
                    2u8.hash(&mut h);
                    b.hash(&mut h);
                }
            }
        }
        if let Some((kind, parent)) = graph.parent(id) {
            kind.hash(&mut h);
            parent.hash(&mut h);
        }
    }
    for e in graph.cross_edges() {
        e.from.hash(&mut h);
        e.kind.hash(&mut h);
        e.to.hash(&mut h);
    }
    h.finish()
}

/// Hit/miss counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fully built contexts served from cache.
    pub context_hits: u64,
    /// Contexts built from scratch (or from cached text features).
    pub context_misses: u64,
    /// Per-schema text feature sets served from cache — directly from
    /// the text level, or transitively via a context-level hit (a
    /// cached context embeds both schemas' text features, so a context
    /// hit counts two text hits; without this, a warm re-run of the
    /// same pair reports `text_hit_rate = 0` while reusing every text
    /// feature).
    pub text_hits: u64,
    /// Per-schema text feature sets computed.
    pub text_misses: u64,
}

impl CacheStats {
    /// Context-level hit rate in [0, 1] (0 when nothing was requested).
    pub fn context_hit_rate(&self) -> f64 {
        let total = self.context_hits + self.context_misses;
        if total == 0 {
            0.0
        } else {
            self.context_hits as f64 / total as f64
        }
    }

    /// Text-level hit rate in [0, 1] (0 when nothing was requested).
    pub fn text_hit_rate(&self) -> f64 {
        let total = self.text_hits + self.text_misses;
        if total == 0 {
            0.0
        } else {
            self.text_hits as f64 / total as f64
        }
    }
}

/// Two-level cache of linguistic features, owned by the engine.
#[derive(Default)]
pub struct FeatureCache {
    text: HashMap<u64, Arc<HashMap<ElementId, Arc<TextFeatures>>>>,
    contexts: HashMap<(u64, u64, u64), Arc<MatchContext>>,
    stats: CacheStats,
}

impl FeatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        FeatureCache::default()
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all cached entries (counters are kept).
    pub fn clear(&mut self) {
        self.text.clear();
        self.contexts.clear();
    }

    /// A built context for the pair, served from cache when the same
    /// `(source, target, epoch)` was built before. `build` assembles a
    /// fresh context from (possibly cached) text features on a miss.
    pub(crate) fn context(
        &mut self,
        source: &SchemaGraph,
        target: &SchemaGraph,
        thesaurus: &Arc<Thesaurus>,
        epoch: u64,
        build: impl FnOnce(
            Arc<SchemaGraph>,
            Arc<SchemaGraph>,
            HashMap<ElementId, Arc<TextFeatures>>,
            HashMap<ElementId, Arc<TextFeatures>>,
        ) -> MatchContext,
    ) -> Arc<MatchContext> {
        let key = (fingerprint(source), fingerprint(target), epoch);
        if let Some(ctx) = self.contexts.get(&key) {
            self.stats.context_hits += 1;
            // The cached context carries both schemas' text features;
            // count them as served so the text level reflects reuse on
            // warm same-pair re-runs (the dominant §4.3 workload).
            self.stats.text_hits += 2;
            return Arc::clone(ctx);
        }
        self.stats.context_misses += 1;
        let source_text = self.text(key.0, source, thesaurus);
        let target_text = self.text(key.1, target, thesaurus);
        let ctx = Arc::new(build(
            Arc::new(source.clone()),
            Arc::new(target.clone()),
            (*source_text).clone(),
            (*target_text).clone(),
        ));
        if self.contexts.len() >= MAX_CONTEXTS {
            self.contexts.clear();
        }
        self.contexts.insert(key, Arc::clone(&ctx));
        ctx
    }

    /// Text features for one schema, computed on first sight of its
    /// fingerprint.
    fn text(
        &mut self,
        fp: u64,
        graph: &SchemaGraph,
        thesaurus: &Thesaurus,
    ) -> Arc<HashMap<ElementId, Arc<TextFeatures>>> {
        if let Some(text) = self.text.get(&fp) {
            self.stats.text_hits += 1;
            return Arc::clone(text);
        }
        self.stats.text_misses += 1;
        let text = Arc::new(schema_text_features(graph, thesaurus));
        if self.text.len() >= MAX_TEXT {
            self.text.clear();
        }
        self.text.insert(fp, Arc::clone(&text));
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn schema(name: &str, attr: &str) -> SchemaGraph {
        SchemaBuilder::new(name, Metamodel::Relational)
            .open("T")
            .attr(attr, DataType::Text)
            .close()
            .build()
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = schema("s", "x");
        let b = schema("s", "x");
        let c = schema("s", "y");
        let d = schema("other", "x");
        assert_eq!(fingerprint(&a), fingerprint(&b), "same content");
        assert_ne!(fingerprint(&a), fingerprint(&c), "renamed attribute");
        assert_ne!(fingerprint(&a), fingerprint(&d), "renamed schema");
    }

    #[test]
    fn text_level_hits_across_pairings() {
        let s = schema("s", "x");
        let t1 = schema("t1", "y");
        let t2 = schema("t2", "z");
        let th = Arc::new(Thesaurus::builtin());
        let mut cache = FeatureCache::new();
        let build = |src: Arc<SchemaGraph>,
                     tgt: Arc<SchemaGraph>,
                     st: HashMap<ElementId, Arc<TextFeatures>>,
                     tt: HashMap<ElementId, Arc<TextFeatures>>| {
            MatchContext::from_parts(
                src,
                tgt,
                Arc::new(Thesaurus::builtin()),
                iwb_ling::Corpus::new(),
                st,
                tt,
            )
        };
        cache.context(&s, &t1, &th, 0, build);
        // Same source against a new target: source text features hit.
        cache.context(&s, &t2, &th, 0, build);
        let stats = cache.stats();
        assert_eq!(stats.context_misses, 2);
        assert_eq!(stats.text_hits, 1);
        assert_eq!(stats.text_misses, 3);
    }

    #[test]
    fn context_hits_count_transitive_text_hits() {
        let s = schema("s", "x");
        let t = schema("t", "y");
        let th = Arc::new(Thesaurus::builtin());
        let mut cache = FeatureCache::new();
        let build = |src: Arc<SchemaGraph>,
                     tgt: Arc<SchemaGraph>,
                     st: HashMap<ElementId, Arc<TextFeatures>>,
                     tt: HashMap<ElementId, Arc<TextFeatures>>| {
            MatchContext::from_parts(
                src,
                tgt,
                Arc::new(Thesaurus::builtin()),
                iwb_ling::Corpus::new(),
                st,
                tt,
            )
        };
        cache.context(&s, &t, &th, 0, build);
        assert_eq!(cache.stats().text_hits, 0);
        assert_eq!(cache.stats().text_misses, 2);
        // Warm re-run: the context hit serves both schemas' text
        // features, so the text level must not report a 0% hit rate.
        cache.context(&s, &t, &th, 0, build);
        let stats = cache.stats();
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.text_hits, 2);
        assert!(stats.text_hit_rate() > 0.0);
    }

    #[test]
    fn context_level_hits_on_rerun_and_respects_epoch() {
        let s = schema("s", "x");
        let t = schema("t", "y");
        let th = Arc::new(Thesaurus::builtin());
        let mut cache = FeatureCache::new();
        let build = |src: Arc<SchemaGraph>,
                     tgt: Arc<SchemaGraph>,
                     st: HashMap<ElementId, Arc<TextFeatures>>,
                     tt: HashMap<ElementId, Arc<TextFeatures>>| {
            MatchContext::from_parts(
                src,
                tgt,
                Arc::new(Thesaurus::builtin()),
                iwb_ling::Corpus::new(),
                st,
                tt,
            )
        };
        let first = cache.context(&s, &t, &th, 0, build);
        let second = cache.context(&s, &t, &th, 0, build);
        assert!(Arc::ptr_eq(&first, &second), "re-run shares the context");
        assert_eq!(cache.stats().context_hits, 1);
        // A bumped epoch (learning happened) misses.
        cache.context(&s, &t, &th, 1, build);
        assert_eq!(cache.stats().context_misses, 2);
        // Clearing drops entries but keeps counters.
        cache.clear();
        cache.context(&s, &t, &th, 1, build);
        assert_eq!(cache.stats().context_misses, 3);
        assert_eq!(cache.stats().context_hits, 1);
    }
}
