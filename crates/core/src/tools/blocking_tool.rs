//! Registry-scale candidate retrieval as a workbench tool.
//!
//! The enterprise question behind the paper's Table 1 (and the MITRE
//! follow-up) is not "match this pair" but "which of these hundreds of
//! registered models matches mine?". This tool holds an
//! [`iwb_blocking::RegistryIndex`] over a model repository and answers
//! that question in two stages: cheap inverted-index retrieval of the
//! top-k candidate models, then (optionally) the full Harmony engine
//! reranking only the survivors — all under the invocation's budget.

use crate::blackboard::Blackboard;
use crate::event::{EventKind, WorkbenchEvent};
use crate::taskmodel::Task;
use crate::tool::{ToolArgs, ToolError, ToolKind, WorkbenchTool};
use iwb_blocking::{block_then_rerank, BlockingConfig, RegistryIndex};
use iwb_harmony::HarmonyEngine;
use iwb_model::SchemaGraph;
use iwb_registry::{generate_registry, GeneratorConfig};
use iwb_store::artifacts::{
    decode_blocking_config, decode_index_parts, encode_blocking_config, encode_index_parts,
};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};

/// Default candidate count for `find` when `k` is not given.
pub const DEFAULT_K: usize = 10;

/// Where the indexed models came from — decides staleness on
/// blackboard events, and where a restored index finds its models.
enum IndexSource {
    /// Generated from `iwb-registry` with this seed and scale;
    /// independent of blackboard contents, so schema events never
    /// invalidate it — and the models regenerate deterministically, so
    /// an image holds only the index itself.
    Generated { seed: u64, scale: f64 },
    /// Snapshot of the blackboard's schemas at index time; any
    /// schema-graph event makes it stale, so while it lives its models
    /// are the board's schemas and a restore looks them up there.
    Blackboard,
}

/// Candidate blocking as a tool: `index` builds the inverted index,
/// `find` retrieves (and optionally reranks) candidates for a query
/// schema on the blackboard.
#[derive(Default)]
pub struct BlockingTool {
    config: BlockingConfig,
    /// The indexed repository and its index, once built.
    indexed: Option<(Vec<SchemaGraph>, RegistryIndex, IndexSource)>,
    /// Engine for the rerank stage — deliberately separate from the
    /// `harmony` tool's engine so reranking never perturbs that tool's
    /// learned weights or cache epoch.
    engine: HarmonyEngine,
}

impl BlockingTool {
    /// A tool with no index built yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index, if one has been built (for tests and experiments).
    pub fn index(&self) -> Option<&RegistryIndex> {
        self.indexed.as_ref().map(|(_, index, _)| index)
    }

    fn parse<T: std::str::FromStr>(args: &ToolArgs, key: &str) -> Result<Option<T>, ToolError> {
        match args.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ToolError::Failed(format!("{key} must be a number, got {raw:?}"))),
        }
    }

    /// `action=index`: build the index over a generated registry
    /// (`seed` [+ `scale`]) or over every schema on the blackboard.
    fn index_registry(&mut self, bb: &Blackboard, args: &ToolArgs) -> Result<String, ToolError> {
        if let Some(threads) = Self::parse::<usize>(args, "threads")? {
            self.config.threads = threads.max(1);
        }
        let budget = args.budget();
        let (models, source, what) = match Self::parse::<u64>(args, "seed")? {
            Some(seed) => {
                let scale = Self::parse::<f64>(args, "scale")?.unwrap_or(1.0);
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(ToolError::Failed(format!(
                        "scale must be positive, got {scale}"
                    )));
                }
                budget.check().map_err(ToolError::from)?;
                let registry = generate_registry(GeneratorConfig::scaled(seed, scale));
                let what = format!(
                    "generated registry (seed {seed}, scale {scale}): {} models, {} elements, {} attributes",
                    registry.models.len(),
                    registry.element_count(),
                    registry.attribute_count(),
                );
                (
                    registry.models,
                    IndexSource::Generated { seed, scale },
                    what,
                )
            }
            None => {
                let mut ids = bb.schema_ids();
                ids.sort();
                let models: Vec<SchemaGraph> = ids
                    .iter()
                    .map(|id| bb.schema(id).expect("listed schema exists").clone())
                    .collect();
                if models.is_empty() {
                    return Err(ToolError::Failed(
                        "nothing to index: no schemas on the blackboard and no seed given".into(),
                    ));
                }
                let what = format!("blackboard snapshot: {} schema(s)", models.len());
                (models, IndexSource::Blackboard, what)
            }
        };
        let index = RegistryIndex::build_budgeted(&models, self.config.clone(), budget)
            .map_err(ToolError::from)?;
        let summary = format!(
            "indexed {what}; {} models, {} distinct terms",
            index.len(),
            index.vocabulary()
        );
        self.indexed = Some((models, index, source));
        Ok(summary)
    }

    /// `action=find`: top-k candidates for a blackboard schema, with
    /// optional full-engine reranking.
    fn find_candidates(&mut self, bb: &Blackboard, args: &ToolArgs) -> Result<String, ToolError> {
        let (models, index, _) = self
            .indexed
            .as_ref()
            .ok_or_else(|| ToolError::Failed("no index built — run index-registry first".into()))?;
        let query_id = args.require("query")?;
        let query = bb
            .schema(&iwb_model::SchemaId::new(query_id))
            .ok_or_else(|| ToolError::UnknownSchema(query_id.to_owned()))?;
        let k = Self::parse::<usize>(args, "k")?.unwrap_or(DEFAULT_K).max(1);
        let rerank = args.get("rerank") == Some("on");
        let budget = args.budget();

        let mut out;
        if rerank {
            let result = block_then_rerank(&mut self.engine, index, models, query, k, budget)
                .map_err(ToolError::from)?;
            out = format!(
                "{} candidate(s) for {query_id} (top-{k}, reranked by full engine):\n",
                result.ranked.len()
            );
            for (rank, r) in result.ranked.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>2}. {}  engine {:.3}  blocking {:.3}\n",
                    rank + 1,
                    r.id,
                    r.engine_score,
                    r.blocking_score,
                ));
            }
        } else {
            let candidates = index
                .query_budgeted(query, k, budget)
                .map_err(ToolError::from)?;
            out = format!(
                "{} candidate(s) for {query_id} (top-{k}, blocking only):\n",
                candidates.len()
            );
            for (rank, c) in candidates.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>2}. {}  blocking {:.3}\n",
                    rank + 1,
                    c.id,
                    c.score,
                ));
            }
        }
        Ok(out.trim_end().to_owned())
    }
}

impl WorkbenchTool for BlockingTool {
    fn name(&self) -> &'static str {
        "blocking"
    }

    fn kind(&self) -> ToolKind {
        ToolKind::Matcher
    }

    fn capabilities(&self) -> Vec<Task> {
        // Candidate retrieval narrows which source schemata are worth
        // matching — the recommend half of recommend-then-rerank.
        vec![Task::ObtainSourceSchemata, Task::GenerateCorrespondences]
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::SchemaGraph]
    }

    fn on_event(
        &mut self,
        _blackboard: &mut Blackboard,
        event: &WorkbenchEvent,
        _events: &mut Vec<WorkbenchEvent>,
    ) {
        if let WorkbenchEvent::SchemaGraph { .. } = event {
            // A blackboard-derived index no longer reflects the board;
            // a generated registry is immutable and stays valid.
            if matches!(self.indexed, Some((_, _, IndexSource::Blackboard))) {
                self.indexed = None;
            }
            self.engine.invalidate_features();
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    /// The configuration and the built index with where its models
    /// came from (the rerank engine learns nothing, so it has no state).
    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        encode_blocking_config(&mut w, &self.config);
        match &self.indexed {
            None => w.u8(0),
            Some((_, index, source)) => {
                match source {
                    IndexSource::Generated { seed, scale } => {
                        w.u8(1);
                        w.u64(*seed);
                        w.f64(*scale);
                    }
                    IndexSource::Blackboard => w.u8(2),
                }
                encode_index_parts(&mut w, &index.to_parts());
            }
        }
        Some(w.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8], blackboard: &Blackboard) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        self.config = decode_blocking_config(&mut r)?;
        let source = match r.u8()? {
            0 => return Ok(()),
            1 => IndexSource::Generated {
                seed: r.u64()?,
                scale: r.f64()?,
            },
            2 => IndexSource::Blackboard,
            t => return Err(CodecError::BadTag("index source", t)),
        };
        let parts = decode_index_parts(&mut r)?;
        let models = match source {
            IndexSource::Generated { seed, scale } => {
                generate_registry(GeneratorConfig::scaled(seed, scale)).models
            }
            IndexSource::Blackboard => parts
                .ids
                .iter()
                .map(|id| blackboard.schema(id).cloned())
                .collect::<Option<_>>()
                .ok_or(CodecError::Invalid("indexed schema missing from the board"))?,
        };
        self.indexed = Some((models, RegistryIndex::from_parts(parts), source));
        Ok(())
    }

    /// Arguments: `action` = `index` | `find`. For `index`: optional
    /// `seed` and `scale` (generate a registry; omit `seed` to index
    /// the blackboard's schemas) and `threads` (index build workers).
    /// For `find`: `query` (a blackboard schema id), optional `k`
    /// (default [`DEFAULT_K`]) and `rerank` (`on` runs the full Harmony
    /// engine on the survivors). Both honour [`ToolArgs::budget`].
    fn invoke(
        &mut self,
        blackboard: &mut Blackboard,
        args: &ToolArgs,
        _events: &mut Vec<WorkbenchEvent>,
    ) -> Result<String, ToolError> {
        match args.get("action").unwrap_or("index") {
            "index" => self.index_registry(blackboard, args),
            "find" => self.find_candidates(blackboard, args),
            other => Err(ToolError::Failed(format!("unknown action {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};
    use iwb_pool::{Budget, CancelToken, Deadline};

    /// One-entity schema: `(schema id, entity name, attribute names)`.
    fn board_with(defs: &[(&str, &str, &[&str])]) -> Blackboard {
        let mut bb = Blackboard::new();
        for (id, entity, attrs) in defs {
            let mut b = SchemaBuilder::new(*id, Metamodel::EntityRelationship).open(*entity);
            for a in *attrs {
                b = b.attr(*a, DataType::Text);
            }
            bb.put_schema(b.close().build());
        }
        bb
    }

    #[test]
    fn index_generated_registry_and_find_candidates() {
        let mut bb = board_with(&[("query", "AIRCRAFT", &["acft_type_cd", "tail_nbr"])]);
        let mut tool = BlockingTool::new();
        let out = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "index")
                    .with("seed", "7")
                    .with("scale", "0.02"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(out.contains("generated registry (seed 7"), "{out}");
        assert!(tool.index().is_some());
        let found = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "find")
                    .with("query", "query")
                    .with("k", "3"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(found.contains("top-3, blocking only"), "{found}");
    }

    #[test]
    fn index_blackboard_when_no_seed_given() {
        let mut bb = board_with(&[
            ("a", "VENDOR", &["vendor_id"]),
            ("b", "EMPLOYEE", &["emp_nbr"]),
        ]);
        let mut tool = BlockingTool::new();
        let out = tool
            .invoke(&mut bb, &ToolArgs::new(), &mut Vec::new())
            .unwrap();
        assert!(out.contains("blackboard snapshot: 2 schema(s)"), "{out}");
        // The supplier query should hit the vendor schema first
        // (synonym-ring canonicalisation).
        let mut bb2 = board_with(&[
            ("a", "VENDOR", &["vendor_id"]),
            ("b", "EMPLOYEE", &["emp_nbr"]),
            ("q", "SUPPLIER", &["supplier_id"]),
        ]);
        let mut tool2 = BlockingTool::new();
        tool2
            .invoke(&mut bb2, &ToolArgs::new(), &mut Vec::new())
            .unwrap();
        let found = tool2
            .invoke(
                &mut bb2,
                &ToolArgs::new()
                    .with("action", "find")
                    .with("query", "q")
                    .with("k", "1"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(found.contains("1. a"), "{found}");
    }

    #[test]
    fn find_with_rerank_reports_engine_scores() {
        let mut bb = board_with(&[
            ("a", "VENDOR", &["vendor_id"]),
            ("q", "SUPPLIER", &["supplier_id"]),
        ]);
        let mut tool = BlockingTool::new();
        tool.invoke(&mut bb, &ToolArgs::new(), &mut Vec::new())
            .unwrap();
        let found = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("action", "find")
                    .with("query", "q")
                    .with("rerank", "on"),
                &mut Vec::new(),
            )
            .unwrap();
        assert!(found.contains("reranked by full engine"), "{found}");
        assert!(found.contains("engine "), "{found}");
    }

    #[test]
    fn find_without_index_is_a_clean_error() {
        let mut bb = board_with(&[("q", "E", &["f"])]);
        let mut tool = BlockingTool::new();
        let err = tool
            .invoke(
                &mut bb,
                &ToolArgs::new().with("action", "find").with("query", "q"),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("no index built"), "{err}");
    }

    #[test]
    fn empty_blackboard_without_seed_is_a_clean_error() {
        let mut bb = Blackboard::new();
        let mut tool = BlockingTool::new();
        let err = tool
            .invoke(&mut bb, &ToolArgs::new(), &mut Vec::new())
            .unwrap_err();
        assert!(err.to_string().contains("nothing to index"), "{err}");
    }

    #[test]
    fn cancelled_budget_aborts_indexing() {
        let mut bb = Blackboard::new();
        let mut tool = BlockingTool::new();
        let token = CancelToken::new();
        token.cancel();
        let err = tool
            .invoke(
                &mut bb,
                &ToolArgs::new()
                    .with("seed", "7")
                    .with("scale", "0.02")
                    .with_budget(Budget::new(token, Deadline::none())),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert_eq!(err, ToolError::Cancelled);
        assert!(tool.index().is_none());
    }

    #[test]
    fn schema_event_drops_blackboard_index_but_keeps_generated() {
        let mut bb = board_with(&[("a", "VENDOR", &["vendor_id"])]);
        let mut tool = BlockingTool::new();
        tool.invoke(&mut bb, &ToolArgs::new(), &mut Vec::new())
            .unwrap();
        assert!(tool.index().is_some());
        tool.on_event(
            &mut bb,
            &WorkbenchEvent::SchemaGraph {
                schema: iwb_model::SchemaId::new("a"),
            },
            &mut Vec::new(),
        );
        assert!(tool.index().is_none(), "blackboard index must go stale");

        tool.invoke(
            &mut bb,
            &ToolArgs::new().with("seed", "7").with("scale", "0.01"),
            &mut Vec::new(),
        )
        .unwrap();
        tool.on_event(
            &mut bb,
            &WorkbenchEvent::SchemaGraph {
                schema: iwb_model::SchemaId::new("a"),
            },
            &mut Vec::new(),
        );
        assert!(
            tool.index().is_some(),
            "generated registry is immutable and survives schema events"
        );
    }
}
