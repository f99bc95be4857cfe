//! Codecs for the state an image carries that lives below the
//! workbench: schema graphs, score matrices, the Harmony engine's
//! learned state, and the blocking index. Every codec
//! here is a *total* encoder and a *`Result`-based* decoder over the
//! [`crate::codec`] primitives — floats travel as `to_bits`, maps are
//! serialised in sorted key order, so encode∘decode is the identity and
//! the same logical value always produces the same bytes (both
//! property-tested in `tests/properties.rs`). The blackboard's own
//! types are encoded by `iwb_core::persist` on these primitives.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use iwb_blocking::{BlockingConfig, IndexParts};
use iwb_harmony::{EngineState, MatchConfig, PairState, ScoreMatrix};
use iwb_ling::CorpusParts;
use iwb_model::{
    AnnotationValue, DataType, EdgeKind, ElementId, ElementKind, Metamodel, SchemaElement,
    SchemaGraph, SchemaId,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Schema graphs
// ---------------------------------------------------------------------

fn metamodel_tag(m: Metamodel) -> u8 {
    match m {
        Metamodel::Relational => 0,
        Metamodel::Xml => 1,
        Metamodel::EntityRelationship => 2,
    }
}

fn metamodel_from_tag(tag: u8) -> Result<Metamodel, CodecError> {
    Ok(match tag {
        0 => Metamodel::Relational,
        1 => Metamodel::Xml,
        2 => Metamodel::EntityRelationship,
        t => return Err(CodecError::BadTag("metamodel", t)),
    })
}

fn kind_tag(kind: ElementKind) -> u8 {
    ElementKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ElementKind::all") as u8
}

fn kind_from_tag(tag: u8) -> Result<ElementKind, CodecError> {
    ElementKind::all()
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag("element kind", tag))
}

fn encode_data_type(w: &mut ByteWriter, dt: &DataType) {
    match dt {
        DataType::Text => w.u8(0),
        DataType::VarChar(n) => {
            w.u8(1);
            w.u32(*n);
        }
        DataType::Integer => w.u8(2),
        DataType::Decimal => w.u8(3),
        DataType::Boolean => w.u8(4),
        DataType::Date => w.u8(5),
        DataType::DateTime => w.u8(6),
        DataType::Coded(d) => {
            w.u8(7);
            w.str(d);
        }
        DataType::Binary => w.u8(8),
        DataType::Other(s) => {
            w.u8(9);
            w.str(s);
        }
    }
}

fn decode_data_type(r: &mut ByteReader) -> Result<DataType, CodecError> {
    Ok(match r.u8()? {
        0 => DataType::Text,
        1 => DataType::VarChar(r.u32()?),
        2 => DataType::Integer,
        3 => DataType::Decimal,
        4 => DataType::Boolean,
        5 => DataType::Date,
        6 => DataType::DateTime,
        7 => DataType::Coded(r.str()?),
        8 => DataType::Binary,
        9 => DataType::Other(r.str()?),
        t => return Err(CodecError::BadTag("data type", t)),
    })
}

/// Element payload shared by the root and every child: name, type,
/// documentation, annotations (in key order — `Annotations` iterates a
/// `BTreeMap`, so the bytes are canonical).
fn encode_element_fields(w: &mut ByteWriter, el: &SchemaElement) {
    w.str(&el.name);
    match &el.data_type {
        None => w.u8(0),
        Some(dt) => {
            w.u8(1);
            encode_data_type(w, dt);
        }
    }
    match &el.documentation {
        None => w.u8(0),
        Some(doc) => {
            w.u8(1);
            w.str(doc);
        }
    }
    w.u32(el.annotations.len() as u32);
    for (key, value) in el.annotations.iter() {
        w.str(key);
        match value {
            AnnotationValue::Text(s) => {
                w.u8(0);
                w.str(s);
            }
            AnnotationValue::Number(n) => {
                w.u8(1);
                w.f64(*n);
            }
            AnnotationValue::Flag(b) => {
                w.u8(2);
                w.bool(*b);
            }
        }
    }
}

fn decode_element_fields(r: &mut ByteReader, el: &mut SchemaElement) -> Result<(), CodecError> {
    el.name = r.str()?;
    el.data_type = match r.u8()? {
        0 => None,
        _ => Some(decode_data_type(r)?),
    };
    el.documentation = match r.u8()? {
        0 => None,
        _ => Some(r.str()?),
    };
    let count = r.u32()?;
    for _ in 0..count {
        let key = r.str()?;
        let value = match r.u8()? {
            0 => AnnotationValue::Text(r.str()?),
            1 => AnnotationValue::Number(r.f64()?),
            2 => AnnotationValue::Flag(r.bool()?),
            t => return Err(CodecError::BadTag("annotation", t)),
        };
        el.annotations.set(key, value);
    }
    Ok(())
}

/// Canonical byte encoding of a schema graph: id, metamodel, root
/// fields, every child in creation order (parent + containment edge +
/// fields), then cross edges. Creation order *is* the element id
/// order, so decoding re-issues identical [`ElementId`]s.
pub fn encode_schema(graph: &SchemaGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(graph.id().as_str());
    w.u8(metamodel_tag(graph.metamodel()));
    encode_element_fields(&mut w, graph.element(graph.root()));
    w.u32((graph.len() - 1) as u32);
    for (id, el) in graph.iter().skip(1) {
        let (edge, parent) = graph
            .parent(id)
            .expect("non-root elements have a containment parent");
        w.str(edge.label());
        w.u32(parent.index() as u32);
        w.u8(kind_tag(el.kind));
        encode_element_fields(&mut w, el);
    }
    w.u32(graph.cross_edges().len() as u32);
    for e in graph.cross_edges() {
        w.u32(e.from.index() as u32);
        w.str(e.kind.label());
        w.u32(e.to.index() as u32);
    }
    w.into_bytes()
}

/// Decode a graph from [`encode_schema`] bytes.
pub fn decode_schema(bytes: &[u8]) -> Result<SchemaGraph, CodecError> {
    let mut r = ByteReader::new(bytes);
    let id = r.str()?;
    let metamodel = metamodel_from_tag(r.u8()?)?;
    let mut graph = SchemaGraph::new(id, metamodel);
    decode_element_fields(&mut r, graph.element_mut(graph.root()))?;
    let children = r.u32()?;
    for _ in 0..children {
        let edge =
            EdgeKind::from_label(&r.str()?).ok_or(CodecError::Invalid("unknown edge label"))?;
        let parent = r.u32()? as usize;
        if parent >= graph.len() {
            return Err(CodecError::Invalid("child references a later parent"));
        }
        let kind = kind_from_tag(r.u8()?)?;
        let mut el = SchemaElement::new(kind, "");
        decode_element_fields(&mut r, &mut el)?;
        graph.add_child(ElementId::from_index(parent), edge, el);
    }
    let crossings = r.u32()?;
    for _ in 0..crossings {
        let from = r.u32()? as usize;
        let kind =
            EdgeKind::from_label(&r.str()?).ok_or(CodecError::Invalid("unknown edge label"))?;
        let to = r.u32()? as usize;
        if from >= graph.len() || to >= graph.len() {
            return Err(CodecError::Invalid("cross edge endpoint out of range"));
        }
        graph.add_cross_edge(ElementId::from_index(from), kind, ElementId::from_index(to));
    }
    Ok(graph)
}

// ---------------------------------------------------------------------
// Score matrices
// ---------------------------------------------------------------------

/// Encode a score matrix: row and column ids, then every score as
/// `f64` bits (runs of zeros by length).
pub fn encode_matrix(w: &mut ByteWriter, m: &ScoreMatrix) {
    encode_ids(w, m.src_ids());
    encode_ids(w, m.tgt_ids());
    w.f64s(m.scores());
}

/// Decode [`encode_matrix`] bytes.
pub fn decode_matrix(r: &mut ByteReader) -> Result<ScoreMatrix, CodecError> {
    let src_ids = decode_ids(r)?;
    let tgt_ids = decode_ids(r)?;
    ScoreMatrix::from_raw(src_ids, tgt_ids, r.f64s()?)
        .ok_or(CodecError::Invalid("matrix slab does not match dims"))
}

/// Encode element ids as varints.
pub fn encode_ids(w: &mut ByteWriter, ids: &[ElementId]) {
    w.varint(ids.len() as u64);
    for id in ids {
        w.varint(id.index() as u64);
    }
}

/// Decode [`encode_ids`] bytes.
pub fn decode_ids(r: &mut ByteReader) -> Result<Vec<ElementId>, CodecError> {
    let n = r.varint()?;
    let mut ids = Vec::new();
    for _ in 0..n {
        ids.push(ElementId::from_index(r.varint()? as usize));
    }
    Ok(ids)
}

// ---------------------------------------------------------------------
// Engine state
// ---------------------------------------------------------------------

/// Encode a Harmony [`EngineState`]: merger weights, the corpus seed
/// (document count, frequencies and boosts in term order), both epochs,
/// the match configuration, and per schema pair (in pair order) the
/// cells already learned and the previous run's per-voter votes.
pub fn encode_engine_state(w: &mut ByteWriter, state: &EngineState) {
    w.u32(state.weights.len() as u32);
    for (name, weight) in &state.weights {
        w.str(name);
        w.f64(*weight);
    }
    w.u64(state.corpus.doc_count as u64);
    w.u32(state.corpus.doc_freq.len() as u32);
    for (term, n) in &state.corpus.doc_freq {
        w.str(term);
        w.u64(*n as u64);
    }
    w.u32(state.corpus.term_boost.len() as u32);
    for (term, boost) in &state.corpus.term_boost {
        w.str(term);
        w.f64(*boost);
    }
    w.u64(state.corpus_epoch);
    w.u64(state.inputs_epoch);
    w.u32(state.config.threads as u32);
    w.bool(state.config.cache);
    w.u64(state.config.timeout_ms.unwrap_or(0));
    w.u32(state.pairs.len() as u32);
    for ((src, tgt), pair) in &state.pairs {
        w.str(src.as_str());
        w.str(tgt.as_str());
        w.varint(pair.learned.len() as u64);
        for (row, col) in &pair.learned {
            w.varint(row.index() as u64);
            w.varint(col.index() as u64);
        }
        match &pair.votes {
            None => w.u8(0),
            Some(votes) => {
                w.u8(1);
                w.u32(votes.len() as u32);
                for (name, m) in votes {
                    w.str(name);
                    encode_matrix(w, m);
                }
            }
        }
    }
}

/// Decode [`encode_engine_state`] bytes.
pub fn decode_engine_state(r: &mut ByteReader) -> Result<EngineState, CodecError> {
    let mut weights = Vec::new();
    for _ in 0..r.u32()? {
        weights.push((r.str()?, r.f64()?));
    }
    let doc_count = r.u64()? as usize;
    let mut doc_freq = Vec::new();
    for _ in 0..r.u32()? {
        doc_freq.push((r.str()?, r.u64()? as usize));
    }
    let mut term_boost = Vec::new();
    for _ in 0..r.u32()? {
        term_boost.push((r.str()?, r.f64()?));
    }
    let (corpus_epoch, inputs_epoch) = (r.u64()?, r.u64()?);
    let config = MatchConfig {
        threads: r.u32()? as usize,
        cache: r.bool()?,
        timeout_ms: Some(r.u64()?).filter(|&ms| ms > 0),
    };
    let id = |r: &mut ByteReader| -> Result<ElementId, CodecError> {
        Ok(ElementId::from_index(r.varint()? as usize))
    };
    let mut pairs = BTreeMap::new();
    for _ in 0..r.u32()? {
        let key = (SchemaId::new(r.str()?), SchemaId::new(r.str()?));
        let mut pair = PairState::default();
        for _ in 0..r.varint()? {
            pair.learned.insert((id(r)?, id(r)?));
        }
        if r.u8()? != 0 {
            let mut votes = Vec::new();
            for _ in 0..r.u32()? {
                votes.push((r.str()?, decode_matrix(r)?));
            }
            pair.votes = Some(votes);
        }
        pairs.insert(key, pair);
    }
    Ok(EngineState {
        weights,
        corpus: CorpusParts {
            doc_count,
            doc_freq,
            term_boost,
        },
        corpus_epoch,
        inputs_epoch,
        config,
        pairs,
    })
}

// ---------------------------------------------------------------------
// Blocking index
// ---------------------------------------------------------------------

/// Encode a blocking tool configuration.
pub fn encode_blocking_config(w: &mut ByteWriter, config: &BlockingConfig) {
    w.bool(config.expand_abbreviations);
    w.bool(config.collapse_synonyms);
    w.bool(config.stem);
    w.f64(config.doc_weight);
    w.u32(config.threads as u32);
}

/// Decode [`encode_blocking_config`] bytes.
pub fn decode_blocking_config(r: &mut ByteReader) -> Result<BlockingConfig, CodecError> {
    Ok(BlockingConfig {
        expand_abbreviations: r.bool()?,
        collapse_synonyms: r.bool()?,
        stem: r.bool()?,
        doc_weight: r.f64()?,
        threads: r.u32()? as usize,
    })
}

/// Encode a built blocking index ([`IndexParts`]): its configuration,
/// model ids and norms, then every posting list in term order.
pub fn encode_index_parts(w: &mut ByteWriter, parts: &IndexParts) {
    encode_blocking_config(w, &parts.config);
    w.u32(parts.ids.len() as u32);
    for id in &parts.ids {
        w.str(id.as_str());
    }
    for norm in &parts.norms {
        w.f64(*norm);
    }
    w.u32(parts.postings.len() as u32);
    for (term, list) in &parts.postings {
        w.str(term);
        w.u32(list.len() as u32);
        for (model, weight) in list {
            w.u32(*model);
            w.f64(*weight);
        }
    }
}

/// Decode [`encode_index_parts`] bytes.
pub fn decode_index_parts(r: &mut ByteReader) -> Result<IndexParts, CodecError> {
    let config = decode_blocking_config(r)?;
    let models = r.u32()? as usize;
    let mut ids = Vec::with_capacity(models);
    for _ in 0..models {
        ids.push(SchemaId::new(r.str()?));
    }
    let mut norms = Vec::with_capacity(models);
    for _ in 0..models {
        norms.push(r.f64()?);
    }
    let terms = r.u32()? as usize;
    let mut postings = Vec::with_capacity(terms);
    for _ in 0..terms {
        let term = r.str()?;
        let len = r.u32()? as usize;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push((r.u32()?, r.f64()?));
        }
        postings.push((term, list));
    }
    Ok(IndexParts {
        config,
        ids,
        norms,
        postings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::SchemaBuilder;

    fn sample_graph() -> SchemaGraph {
        let mut g = SchemaBuilder::new("crm", Metamodel::Relational)
            .open("CUSTOMER")
            .attr_doc("CUST_ID", DataType::Integer, "Unique customer identifier.")
            .attr("NAME", DataType::VarChar(80))
            .key("pk", &["CUST_ID"])
            .close()
            .build();
        let id = g.find_by_name("NAME").unwrap();
        g.element_mut(id)
            .annotations
            .set("confidence-score", 0.25f64);
        g.element_mut(id).annotations.set("is-user-defined", true);
        g
    }

    #[test]
    fn schema_round_trip_preserves_everything() {
        let g = sample_graph();
        let decoded = decode_schema(&encode_schema(&g)).unwrap();
        assert_eq!(g.id(), decoded.id());
        assert_eq!(g.metamodel(), decoded.metamodel());
        assert_eq!(g.len(), decoded.len());
        for (id, el) in g.iter() {
            assert_eq!(el, decoded.element(id));
            assert_eq!(g.parent(id), decoded.parent(id));
        }
        assert_eq!(g.cross_edges(), decoded.cross_edges());
        // And the canonical bytes are a fixpoint.
        assert_eq!(encode_schema(&g), encode_schema(&decoded));
    }

    #[test]
    fn schema_bytes_are_content_sensitive() {
        // An image stores a version equal to the live schema as a
        // reference, by comparing canonical bytes: equal graphs must
        // encode equally, and any edit must show.
        let g = sample_graph();
        let mut edited = g.clone();
        let id = edited.find_by_name("NAME").unwrap();
        edited.element_mut(id).name = "FULL_NAME".into();
        assert_eq!(encode_schema(&g), encode_schema(&g.clone()));
        assert_ne!(encode_schema(&g), encode_schema(&edited));
    }

    #[test]
    fn matrix_round_trip_is_bit_exact() {
        let src = vec![ElementId::from_index(1), ElementId::from_index(2)];
        let tgt = vec![ElementId::from_index(3)];
        let scores = vec![0.1, -0.999999999];
        let m = ScoreMatrix::from_raw(src, tgt, scores).unwrap();
        let mut w = ByteWriter::new();
        encode_matrix(&mut w, &m);
        let bytes = w.into_bytes();
        let decoded = decode_matrix(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(m.src_ids(), decoded.src_ids());
        assert_eq!(m.tgt_ids(), decoded.tgt_ids());
        for (a, b) in m.scores().iter().zip(decoded.scores()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn engine_state_round_trips_bit_exactly() {
        use iwb_harmony::{Budget, Confidence, HarmonyEngine};
        let g = sample_graph();
        let mut engine = HarmonyEngine::default();
        let budget = Budget::unlimited();
        engine
            .rematch(&g, &g, &Default::default(), &budget)
            .unwrap();
        let id = g.find_by_name("CUST_ID").unwrap();
        let locked = [((id, id), Confidence::ACCEPT)].into_iter().collect();
        engine.rematch(&g, &g, &locked, &budget).unwrap();
        let state = engine.state();
        assert!(!state.corpus.doc_freq.is_empty());
        let pair = &state.pairs[&(g.id().clone(), g.id().clone())];
        assert_eq!(pair.learned.len(), 1);
        assert!(pair.votes.is_some());
        let mut w = ByteWriter::new();
        encode_engine_state(&mut w, &state);
        let bytes = w.into_bytes();
        let decoded = decode_engine_state(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded, state);
        let mut restored = HarmonyEngine::default();
        restored.restore_state(decoded);
        assert_eq!(restored.state(), state);
        assert_eq!(restored.reweight_state(), engine.reweight_state());
    }

    #[test]
    fn index_parts_round_trip() {
        let parts = IndexParts {
            config: BlockingConfig::default(),
            ids: vec![SchemaId::new("m1"), SchemaId::new("m0")],
            norms: vec![1.25, 0.75],
            postings: vec![
                ("aircraft".to_string(), vec![(0, 1.0), (1, 0.25)]),
                ("vendor".to_string(), vec![(1, 2.0)]),
            ],
        };
        let mut w = ByteWriter::new();
        encode_index_parts(&mut w, &parts);
        let bytes = w.into_bytes();
        let decoded = decode_index_parts(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded.ids, parts.ids);
        assert_eq!(decoded.postings, parts.postings);
        for (a, b) in parts.norms.iter().zip(&decoded.norms) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncated_artifact_decodes_to_error() {
        let g = sample_graph();
        let bytes = encode_schema(&g);
        assert!(decode_schema(&bytes[..bytes.len() / 2]).is_err());
    }
}
