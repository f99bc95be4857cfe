//! Property tests for the snapshot format and artifact codecs — the
//! determinism contract `crates/store/FORMAT.md` promises:
//!
//! 1. encode∘decode is the identity for every artifact family, with
//!    `f64::to_bits` equality on floats (no epsilon, no drift);
//! 2. the snapshot image is a pure function of the logical content —
//!    byte-identical regardless of segment insertion order or the
//!    iteration order of in-memory hash maps;
//! 3. an image round-trips with its watermark at every split point of
//!    a history, so the image plus the journal suffix past it accounts
//!    for the whole history.

use iwb_harmony::{Feedback, HarmonyEngine};
use iwb_ling::Corpus;
use iwb_model::SchemaGraph;
use iwb_registry::{generate_registry, GeneratorConfig};
use iwb_store::artifacts::{
    decode_engine_state, decode_match_result, decode_schema, encode_engine_state,
    encode_match_result, encode_schema,
};
use iwb_store::codec::{ByteReader, ByteWriter};
use iwb_store::snapshot;
use iwb_store::SessionSnapshot;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Realistic schema graphs: seeded registry models (tables, keys,
/// domains, annotations, documentation — the full metamodel surface).
fn models(seed: u64) -> Vec<SchemaGraph> {
    generate_registry(GeneratorConfig::scaled(seed, 0.012)).models
}

/// One small seeded model (~36 elements) for the engine-in-the-loop
/// cases — full registry models make debug-mode voter runs too slow.
fn small_model(seed: u64) -> SchemaGraph {
    let cfg = GeneratorConfig {
        seed,
        models: 1,
        elements: 6,
        attributes: 30,
        domain_values: 48,
        ..GeneratorConfig::default()
    };
    generate_registry(cfg).models.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Schema graphs survive the codec exactly: every element, parent
    /// edge, cross edge, annotation, and the canonical bytes are a
    /// fixpoint (encoding the decoded graph reproduces the input).
    #[test]
    fn schema_codec_is_identity(seed in 0u64..1000) {
        for graph in models(seed) {
            let bytes = encode_schema(&graph);
            let decoded = decode_schema(&bytes).unwrap();
            prop_assert_eq!(graph.id(), decoded.id());
            prop_assert_eq!(graph.len(), decoded.len());
            for (id, el) in graph.iter() {
                prop_assert_eq!(el, decoded.element(id));
                prop_assert_eq!(graph.parent(id), decoded.parent(id));
            }
            prop_assert_eq!(graph.cross_edges(), decoded.cross_edges());
            prop_assert_eq!(&bytes, &encode_schema(&decoded));
        }
    }

    /// An engine's learned state round-trips bit-exactly, and an
    /// engine restored from it runs and learns exactly like the one it
    /// was captured from — the precondition for restoring Harmony from
    /// an image instead of replaying its learning.
    #[test]
    fn engine_state_codec_is_identity(seed in 0u64..300) {
        let source = small_model(seed);
        let target = small_model(seed.wrapping_add(7919));
        let none = std::collections::HashMap::new();
        let mut engine = HarmonyEngine::default();
        let first = engine.run(&source, &target, &none);
        let (s, t) = (first.matrix.src_ids()[0], first.matrix.tgt_ids()[0]);
        engine.learn(&source, &target, &first, &[Feedback::accept(s, t)]);
        let mut w = ByteWriter::new();
        encode_engine_state(&mut w, &engine.state());
        let bytes = w.into_bytes();
        let state = decode_engine_state(&mut ByteReader::new(&bytes)).unwrap();
        prop_assert_eq!(&state, &engine.state());
        let mut restored = HarmonyEngine::default();
        restored.restore_state(state);
        let a = engine.run(&source, &target, &none);
        let b = restored.run(&source, &target, &none);
        for (x, y) in a.matrix.scores().iter().zip(b.matrix.scores()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A match result persisted and re-loaded is the same result to the
    /// last bit — the last result per pair an image carries is what
    /// `learn` re-weights against. (One small model pair per case: the
    /// full voter ensemble is expensive in debug builds, and the codec
    /// under test is exercised identically at any scale.)
    #[test]
    fn match_result_codec_is_bit_exact(seed in 0u64..300) {
        let source = small_model(seed);
        let target = small_model(seed.wrapping_add(7919));
        let mut engine = HarmonyEngine::default();
        let result = engine.run(&source, &target, &std::collections::HashMap::new());
        let mut w = ByteWriter::new();
        encode_match_result(&mut w, &result);
        let bytes = w.into_bytes();
        let decoded = decode_match_result(&mut ByteReader::new(&bytes)).unwrap();
        prop_assert_eq!(result.flooding_iterations, decoded.flooding_iterations);
        prop_assert_eq!(result.matrix.src_ids(), decoded.matrix.src_ids());
        prop_assert_eq!(result.matrix.tgt_ids(), decoded.matrix.tgt_ids());
        for (a, b) in result.matrix.scores().iter().zip(decoded.matrix.scores()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(result.per_voter.len(), decoded.per_voter.len());
        for ((an, am), (bn, bm)) in result.per_voter.iter().zip(&decoded.per_voter) {
            prop_assert_eq!(an, bn);
            for (a, b) in am.scores().iter().zip(bm.scores()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The snapshot image is independent of segment insertion order:
    /// permuting the order segments are inserted into the map cannot
    /// change a single byte of the encoded file.
    #[test]
    fn snapshot_bytes_independent_of_write_order(
        seed in 0u64..1000,
        swaps in prop::collection::vec((0usize..16, 0usize..16), 0..8),
    ) {
        let graphs = models(seed);
        let mut forward = BTreeMap::new();
        for g in &graphs {
            forward.insert(format!("schema:{}", g.id().as_str()), encode_schema(g));
        }
        // Re-insert in a permuted order (BTreeMap sorts, so this holds
        // by construction — the test pins the property against future
        // layout changes, e.g. an insertion-ordered map).
        let mut names: Vec<&String> = forward.keys().collect();
        for &(i, j) in &swaps {
            let (i, j) = (i % names.len(), j % names.len());
            names.swap(i, j);
        }
        let mut permuted = BTreeMap::new();
        for name in names {
            permuted.insert(name.clone(), forward[name].clone());
        }
        prop_assert_eq!(snapshot::encode(&forward), snapshot::encode(&permuted));
    }

    /// A corpus keeps `HashMap`s in memory; two corpora with equal
    /// content but different internal layout (built in reversed order)
    /// must produce identical image bytes.
    #[test]
    fn corpus_map_order_does_not_leak_into_bytes(
        terms in prop::collection::vec(("[a-z]{1,8}", 1usize..9, 0.1f64..10.0), 0..24),
    ) {
        let mut forward = Corpus::new();
        for (term, _, _) in &terms {
            forward.add_document([term.as_str()]);
        }
        let parts = forward.to_parts();
        let mut reversed = parts.clone();
        reversed.doc_freq.reverse();
        reversed.term_boost.reverse();
        let reversed = Corpus::from_parts(reversed);
        let mut a = HarmonyEngine::default().state();
        let mut b = a.clone();
        a.corpus = forward.to_parts();
        b.corpus = reversed.to_parts();
        let encode = |state| {
            let mut w = ByteWriter::new();
            encode_engine_state(&mut w, state);
            w.into_bytes()
        };
        prop_assert_eq!(encode(&a), encode(&b));
    }

    /// For every split point `w` of a history, an image at `w`
    /// round-trips with its watermark, so the image plus the journal
    /// suffix past it accounts for every record — the algebra behind
    /// "image restore + suffix replay equals full replay".
    #[test]
    fn image_plus_suffix_accounts_for_the_full_history(
        commands in prop::collection::vec("[a-z ]{1,30}", 1..12),
    ) {
        for w in 0..=commands.len() {
            let mut segments = BTreeMap::new();
            segments.insert("trace".to_string(), commands[..w].join("\n").into_bytes());
            let image = SessionSnapshot {
                session_id: "s1".to_string(),
                watermark: w as u64,
                segments,
            };
            let reloaded = SessionSnapshot::decode(&image.encode()).unwrap();
            prop_assert_eq!(&reloaded, &image);
            let suffix = &commands[reloaded.watermark as usize..];
            prop_assert_eq!(reloaded.watermark as usize + suffix.len(), commands.len());
        }
    }
}
