//! Shared, precomputed match context.
//!
//! The linguistic preprocessing stage of Figure 1 runs once per element,
//! not once per voter per pair: [`MatchContext`] caches tokenised names,
//! stemmed documentation, character-bigram profiles, thesaurus
//! expansions, TF-IDF vectors, and domain value sets for both schemata,
//! and hands voters read access.
//!
//! The context owns its schemata and thesaurus behind `Arc`s, so one
//! built context can be shared read-only across the engine's worker
//! threads and across re-runs within a session (see
//! [`crate::cache::FeatureCache`]). Per-element features split in two:
//!
//! * [`TextFeatures`] — corpus-independent (tokens, stems, bigrams,
//!   thesaurus expansions, domain values). Cacheable per schema.
//! * the TF-IDF [`ElementFeatures::vector`] — depends on the combined
//!   corpus of *both* schemata plus learned boosts, so it is rebuilt per
//!   context.

use iwb_ling::pipeline::{preprocess_doc, preprocess_name, Preprocessed};
use iwb_ling::{porter_stem, Corpus, NgramProfile, TermVector, Thesaurus};
use iwb_model::{Domain, EdgeKind, ElementId, SchemaGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// Corpus-independent linguistic features of one element, cacheable per
/// schema (and thesaurus) across engine runs.
#[derive(Debug, Clone, Default)]
pub struct TextFeatures {
    /// Tokenised, stop-filtered name.
    pub name: Preprocessed,
    /// Tokenised, stop-filtered documentation.
    pub doc: Preprocessed,
    /// Codes (and meanings, stemmed) of the element's domain, when the
    /// element is a domain or an attribute linked to one.
    pub domain_codes: Vec<String>,
    /// Stemmed meaning tokens of the domain values.
    pub domain_meaning_stems: Vec<String>,
    /// Name tokens joined with no separator (the name voter's
    /// whole-string view).
    pub joined_name: String,
    /// Character-bigram profile of [`Self::joined_name`].
    pub name_profile: NgramProfile,
    /// `porter_stem(thesaurus.expand(token))` per name token, aligned
    /// with `name.tokens` (the thesaurus and path voters' hot loop).
    pub expanded_stems: Vec<String>,
}

/// Cached per-element features: shared text features plus the
/// context-specific TF-IDF vector.
#[derive(Debug, Clone, Default)]
pub struct ElementFeatures {
    /// Corpus-independent text features (possibly shared with a cache).
    pub text: Arc<TextFeatures>,
    /// TF-IDF vector over name + documentation stems.
    pub vector: TermVector,
}

/// Read-only context shared by all voters during one engine run.
pub struct MatchContext {
    source: Arc<SchemaGraph>,
    target: Arc<SchemaGraph>,
    thesaurus: Arc<Thesaurus>,
    /// Document-frequency corpus built over both schemata's elements.
    pub corpus: Corpus,
    /// Every element's features, indexed by [`ElementId::index`] (a
    /// graph's ids are dense), so a voter's per-pair lookup is an array
    /// read.
    source_features: Vec<ElementFeatures>,
    target_features: Vec<ElementFeatures>,
    /// Optional per-attribute instance samples (§2: instance data is
    /// "sometimes available and sometimes not"; when it is, the
    /// instance voter uses it).
    source_samples: HashMap<ElementId, Vec<String>>,
    target_samples: HashMap<ElementId, Vec<String>>,
}

/// Which schema an element id belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaSide {
    /// The source schema (matrix rows).
    Source,
    /// The target schema (matrix columns).
    Target,
}

/// Compute the corpus-independent text features of every element of a
/// schema, in graph iteration order.
pub(crate) fn schema_text_features(
    graph: &SchemaGraph,
    thesaurus: &Thesaurus,
) -> HashMap<ElementId, Arc<TextFeatures>> {
    let mut map = HashMap::with_capacity(graph.len());
    for (id, el) in graph.iter() {
        let name = preprocess_name(&el.name);
        let doc = el
            .documentation
            .as_deref()
            .map(preprocess_doc)
            .unwrap_or_default();
        let (domain_codes, domain_meaning_stems) = domain_features(graph, id);
        let joined_name = name.tokens.join("");
        let name_profile = NgramProfile::new(&joined_name, 2);
        let expanded_stems = name
            .tokens
            .iter()
            .map(|t| porter_stem(thesaurus.expand(t)))
            .collect();
        map.insert(
            id,
            Arc::new(TextFeatures {
                name,
                doc,
                domain_codes,
                domain_meaning_stems,
                joined_name,
                name_profile,
                expanded_stems,
            }),
        );
    }
    map
}

impl MatchContext {
    /// Precompute features for every element of both schemata. The
    /// corpus can be pre-seeded (e.g. carried over between iterations to
    /// keep learned term boosts — §4.3); pass `Corpus::new()` otherwise.
    pub fn build(
        source: &SchemaGraph,
        target: &SchemaGraph,
        thesaurus: &Thesaurus,
        corpus: Corpus,
    ) -> Self {
        let source = Arc::new(source.clone());
        let target = Arc::new(target.clone());
        let thesaurus = Arc::new(thesaurus.clone());
        let source_text = schema_text_features(&source, &thesaurus);
        let target_text = schema_text_features(&target, &thesaurus);
        Self::from_parts(source, target, thesaurus, corpus, source_text, target_text)
    }

    /// Assemble a context from shared graphs and (possibly cached)
    /// per-schema text features: register every element's stems in the
    /// corpus, then derive TF-IDF vectors against the completed corpus.
    pub(crate) fn from_parts(
        source: Arc<SchemaGraph>,
        target: Arc<SchemaGraph>,
        thesaurus: Arc<Thesaurus>,
        mut corpus: Corpus,
        source_text: HashMap<ElementId, Arc<TextFeatures>>,
        target_text: HashMap<ElementId, Arc<TextFeatures>>,
    ) -> Self {
        // First pass: register documents so IDF reflects both schemata.
        // Iterate in graph order — map order is not deterministic.
        for (graph, text) in [(&source, &source_text), (&target, &target_text)] {
            for (id, _) in graph.iter() {
                let t = &text[&id];
                let all: Vec<&str> = t
                    .name
                    .stems
                    .iter()
                    .chain(t.doc.stems.iter())
                    .map(String::as_str)
                    .collect();
                corpus.add_document(all);
            }
        }
        // Second pass: vectors against the complete corpus.
        let features =
            |graph: &SchemaGraph, text: HashMap<ElementId, Arc<TextFeatures>>, corpus: &Corpus| {
                graph
                    .iter()
                    .map(|(id, _)| {
                        let t = text[&id].clone();
                        let all: Vec<&str> = t
                            .name
                            .stems
                            .iter()
                            .chain(t.doc.stems.iter())
                            .map(String::as_str)
                            .collect();
                        let vector = corpus.vector(all);
                        ElementFeatures { text: t, vector }
                    })
                    .collect()
            };
        let source_features = features(&source, source_text, &corpus);
        let target_features = features(&target, target_text, &corpus);
        MatchContext {
            source,
            target,
            thesaurus,
            corpus,
            source_features,
            target_features,
            source_samples: HashMap::new(),
            target_samples: HashMap::new(),
        }
    }

    /// The source schema.
    pub fn source(&self) -> &SchemaGraph {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &SchemaGraph {
        &self.target
    }

    /// The thesaurus used by the expansion-based voters.
    pub fn thesaurus(&self) -> &Thesaurus {
        &self.thesaurus
    }

    /// Attach instance value samples (lowercased on insert) for the
    /// instance-overlap voter.
    pub fn set_samples(
        &mut self,
        side: SchemaSide,
        samples: impl IntoIterator<Item = (ElementId, Vec<String>)>,
    ) {
        let map = match side {
            SchemaSide::Source => &mut self.source_samples,
            SchemaSide::Target => &mut self.target_samples,
        };
        for (id, values) in samples {
            map.insert(id, values.into_iter().map(|v| v.to_lowercase()).collect());
        }
    }

    /// The samples recorded for a source element (empty when none).
    pub fn src_samples(&self, id: ElementId) -> &[String] {
        self.source_samples
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The samples recorded for a target element (empty when none).
    pub fn tgt_samples(&self, id: ElementId) -> &[String] {
        self.target_samples
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Features of a source element.
    pub fn src(&self, id: ElementId) -> &ElementFeatures {
        &self.source_features[id.index()]
    }

    /// Features of a target element.
    pub fn tgt(&self, id: ElementId) -> &ElementFeatures {
        &self.target_features[id.index()]
    }

    /// A context over the same schemas, thesaurus and text features,
    /// built on `corpus` and without samples: value-identical to
    /// [`MatchContext::build`] with that corpus, but neither schema is
    /// tokenised again.
    pub(crate) fn with_corpus(&self, corpus: Corpus) -> MatchContext {
        let text = |features: &[ElementFeatures]| {
            features
                .iter()
                .enumerate()
                .map(|(i, f)| (ElementId::from_index(i), Arc::clone(&f.text)))
                .collect()
        };
        MatchContext::from_parts(
            Arc::clone(&self.source),
            Arc::clone(&self.target),
            Arc::clone(&self.thesaurus),
            corpus,
            text(&self.source_features),
            text(&self.target_features),
        )
    }

    /// The graph for a side.
    pub fn graph(&self, side: SchemaSide) -> &SchemaGraph {
        match side {
            SchemaSide::Source => &self.source,
            SchemaSide::Target => &self.target,
        }
    }
}

/// Domain codes/meanings reachable from an element: a domain node's own
/// values, or the values of the domain an attribute references.
fn domain_features(graph: &SchemaGraph, id: ElementId) -> (Vec<String>, Vec<String>) {
    let domain_node = if graph.element(id).kind == iwb_model::ElementKind::Domain {
        Some(id)
    } else {
        graph
            .cross_edges_from(id)
            .find(|e| e.kind == EdgeKind::HasDomain)
            .map(|e| e.to)
    };
    let Some(dom_id) = domain_node else {
        return (Vec::new(), Vec::new());
    };
    let Some(domain) = Domain::detach(graph, dom_id) else {
        return (Vec::new(), Vec::new());
    };
    let codes = domain
        .values
        .iter()
        .map(|v| v.code.to_lowercase())
        .collect();
    let meanings = domain
        .values
        .iter()
        .filter_map(|v| v.meaning.as_deref())
        .flat_map(|m| preprocess_doc(m).stems)
        .collect();
    (codes, meanings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn schemas() -> (SchemaGraph, SchemaGraph) {
        let d = Domain::new("surface").with_value("ASP", "Asphalt surface");
        let s = SchemaBuilder::new("src", Metamodel::Relational)
            .open("RUNWAY")
            .attr_doc(
                "SURFACE_CD",
                DataType::Coded("surface".into()),
                "Coded runway surface type.",
            )
            .domain_for_last_attr(&d)
            .close()
            .build();
        let t = SchemaBuilder::new("tgt", Metamodel::Xml)
            .open("runway")
            .attr_doc(
                "surfaceType",
                DataType::Text,
                "The runway surface classification.",
            )
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn features_cached_for_every_element() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        // Every element has cached features (would panic on a miss).
        for (id, _) in s.iter() {
            let _ = ctx.src(id);
        }
        let attr = s.find_by_name("SURFACE_CD").unwrap();
        assert_eq!(ctx.src(attr).text.name.tokens, ["surface", "cd"]);
        assert!(!ctx.src(attr).vector.is_empty());
        let tattr = t.find_by_name("surfaceType").unwrap();
        assert_eq!(ctx.tgt(tattr).text.name.tokens, ["surface", "type"]);
    }

    #[test]
    fn corpus_spans_both_schemata() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        // "surface" occurs in several elements across both sides, so its
        // IDF must be below that of a word seen once.
        assert!(ctx.corpus.idf("surfac") < ctx.corpus.idf("asphalt"));
        assert_eq!(ctx.corpus.doc_count(), s.len() + t.len());
    }

    #[test]
    fn domain_features_flow_through_has_domain() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &t, &th, Corpus::new());
        let attr = s.find_by_name("SURFACE_CD").unwrap();
        assert_eq!(ctx.src(attr).text.domain_codes, ["asp"]);
        assert!(ctx
            .src(attr)
            .text
            .domain_meaning_stems
            .contains(&"asphalt".to_owned()));
        let tattr = t.find_by_name("surfaceType").unwrap();
        assert!(ctx.tgt(tattr).text.domain_codes.is_empty());
    }

    #[test]
    fn preseeded_corpus_keeps_boosts() {
        let (s, t) = schemas();
        let th = Thesaurus::builtin();
        let mut corpus = Corpus::new();
        corpus.adjust_boost("surfac", 3.0);
        let ctx = MatchContext::build(&s, &t, &th, corpus);
        assert!((ctx.corpus.boost("surfac") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn derived_name_views_are_consistent() {
        let (s, _t) = schemas();
        let th = Thesaurus::builtin();
        let ctx = MatchContext::build(&s, &s, &th, Corpus::new());
        let attr = s.find_by_name("SURFACE_CD").unwrap();
        let f = &ctx.src(attr).text;
        assert_eq!(f.joined_name, "surfacecd");
        assert_eq!(f.name_profile, NgramProfile::new("surfacecd", 2));
        assert_eq!(f.expanded_stems.len(), f.name.tokens.len());
        assert_eq!(
            f.expanded_stems[0],
            porter_stem(th.expand(&f.name.tokens[0]))
        );
    }
}
