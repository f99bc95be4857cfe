//! The Harmony engine: preprocessing → voters → merger → flooding.
//!
//! Implements the pipeline of the paper's Figure 1. The engine owns the
//! voter suite and the merger (both stateful — they learn across
//! iterations, §4.3) and is reused across runs of a
//! [`crate::session::MatchSession`].
//!
//! # Parallelism and determinism
//!
//! Every stage that iterates the S×T cross product (voter scoring,
//! vote merging, each flooding iteration) runs through a *row-range
//! kernel*: a pure function from the shared read-only state to the new
//! values of a contiguous range of source rows. With
//! [`MatchConfig::threads`] ≤ 1 the engine calls the kernel once over
//! all rows; with more threads it shards the rows across an
//! [`iwb_pool::ThreadPool`] and splices each shard's slab back in fixed
//! row order. Because every cell is computed independently from the
//! same inputs and lands in a caller-owned slot, the parallel result is
//! **bit-identical** to the sequential one — no float reassociation, no
//! scheduling-dependent order (asserted by `tests/determinism.rs`).
//!
//! # Feature caching
//!
//! With [`MatchConfig::cache`] on (default), the engine keeps a
//! [`FeatureCache`] of per-schema text features and fully built
//! [`MatchContext`]s, keyed by schema content fingerprints and a corpus
//! epoch that is bumped whenever learning, the thesaurus, or instance
//! samples change. Cache hits are value-identical to fresh builds.
//!
//! # Staged re-runs
//!
//! Every run takes one staged path. The engine retains the last
//! completed run and keys each stage's retained state on what that
//! stage reads:
//!
//! * **Scoring.** A voter's matrix is reused until a schema (by content
//!   fingerprint), the thesaurus or the instance samples change. A voter
//!   whose [`MatchVoter::reads_learned_state`] is true is also re-scored
//!   after every [`HarmonyEngine::learn`]; in the default suite that is
//!   the documentation voter alone.
//! * **Merging.** Every row is re-merged when any voter matrix was
//!   re-scored or a merger weight changed; otherwise only the source
//!   rows whose locked cells were added, removed or re-valued.
//! * **Flooding** always re-runs from the merge.
//!
//! A rerun where nothing changed runs the full pipeline. Scoring and
//! merging are cell-local and flooding is a deterministic function of
//! the merge, so a staged run is bit-identical to a full one (asserted
//! by `tests/determinism.rs`).

use crate::cache::{fingerprint, CacheStats, FeatureCache};
use crate::confidence::Confidence;
use crate::context::MatchContext;
use crate::feedback::Feedback;
use crate::flooding::{flood_budgeted, flood_rows, FloodingConfig};
use crate::matrix::{matchable_ids, ScoreMatrix};
use crate::merger::VoteMerger;
use crate::voter::MatchVoter;
use crate::voters::default_suite;
use iwb_ling::{Corpus, CorpusParts, Thesaurus};
use iwb_model::{ElementId, SchemaGraph};
use iwb_pool::{Budget, Interrupt, ThreadPool};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};

/// Execution knobs for [`HarmonyEngine::run`], exposed through the
/// workbench shell (`match-config`) and the `workbenchd` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Worker threads for the cross-product stages. `1` runs inline on
    /// the calling thread; `0` means "auto" (the machine's available
    /// parallelism). Results are identical for every value.
    pub threads: usize,
    /// Reuse cached linguistic features across runs. Results are
    /// identical with the cache on or off.
    pub cache: bool,
    /// Per-run deadline in milliseconds (`match-config timeout MS`).
    /// `None` (or `timeout 0` in the shell) means no per-run limit; an
    /// external budget can still impose one. A run that completes
    /// within the deadline is byte-identical to an unlimited run.
    pub timeout_ms: Option<u64>,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            threads: 1,
            cache: true,
            timeout_ms: None,
        }
    }
}

/// Output of one engine run.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The merged, flooded confidence matrix.
    pub matrix: ScoreMatrix,
    /// Each voter's raw matrix, by voter name (pre-merge, pre-flood).
    pub per_voter: Vec<(String, ScoreMatrix)>,
    /// Flooding iterations executed.
    pub flooding_iterations: usize,
}

impl MatchResult {
    /// The raw vote a named voter cast for a pair.
    pub fn vote_of(&self, voter: &str, src: ElementId, tgt: ElementId) -> Confidence {
        self.per_voter
            .iter()
            .find(|(n, _)| n == voter)
            .map(|(_, m)| m.get(src, tgt))
            .unwrap_or(Confidence::UNKNOWN)
    }
}

/// What an engine has learned and been configured with, as plain data:
/// the part of a [`HarmonyEngine`] a session image persists (see
/// [`HarmonyEngine::state`]). Caches and the retained run are left out —
/// they only decide how fast the next run is, never what it computes.
/// So are the thesaurus, the instance samples and the flooding
/// configuration, which no shell command changes.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The merger's learned weights, by voter name.
    pub weights: Vec<(String, f64)>,
    /// The corpus seed: learned term boosts and the document counts
    /// every learning step adds (§4.3).
    pub corpus: CorpusParts,
    /// [`HarmonyEngine::corpus_epoch`].
    pub corpus_epoch: u64,
    /// The epoch of the thesaurus and samples.
    pub inputs_epoch: u64,
    /// The execution configuration (`match-config`).
    pub config: MatchConfig,
}

/// How the engine produced its most recent completed result (see
/// [`HarmonyEngine::last_run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// True when the run reused retained voter matrices or merged rows
    /// instead of recomputing the full pipeline.
    pub incremental: bool,
    /// Source rows re-merged on an incremental run (0 on a full run).
    pub dirty_rows: usize,
}

/// Locked (user-decided) cells and their ±1 confidences.
type Locked = HashMap<(ElementId, ElementId), Confidence>;

/// State retained from the last completed run, each part keyed on what
/// produced it (see the module docs):
///
/// * `per_voter` was scored over the schemas fingerprinted `src_fp` and
///   `tgt_fp` at `inputs_epoch` (thesaurus and samples) and, for voters
///   that read learned state, at `corpus_epoch`;
/// * `merged` is the *pre-flooding* merge of those matrices under
///   `merger` with `locked` passed through. Merging is cell-local, so a
///   locked-cell edit dirties exactly its source row, and flooding
///   always re-runs from the merge;
/// * `ctx` is the context the matrices were last scored with. Its text
///   features stay valid while the fingerprints and `inputs_epoch`
///   hold, and [`HarmonyEngine::learn`] builds on them; its corpus may
///   be older than the engine's.
struct RetainedRun {
    src_fp: u64,
    tgt_fp: u64,
    inputs_epoch: u64,
    corpus_epoch: u64,
    ctx: Arc<MatchContext>,
    merger: VoteMerger,
    locked: Locked,
    per_voter: Vec<(String, ScoreMatrix)>,
    merged: ScoreMatrix,
}

/// What a run recomputes; everything else comes from the retained run.
struct Stages {
    /// Indices of the voters to score, in voter order.
    rescore: Vec<usize>,
    /// Source rows (by index) to re-merge; `None` re-merges every row.
    remerge: Option<Vec<usize>>,
}

/// The Harmony match engine.
///
/// # Examples
///
/// ```
/// use iwb_harmony::HarmonyEngine;
/// use iwb_model::{DataType, Metamodel, SchemaBuilder};
/// use std::collections::HashMap;
///
/// let source = SchemaBuilder::new("crm", Metamodel::Relational)
///     .open("CUSTOMER")
///     .attr_doc("CUST_ID", DataType::Integer, "Unique customer identifier.")
///     .close()
///     .build();
/// let target = SchemaBuilder::new("erp", Metamodel::Relational)
///     .open("client")
///     .attr_doc("identifier", DataType::Integer, "Unique identifier of the client.")
///     .close()
///     .build();
///
/// let mut engine = HarmonyEngine::default();
/// let result = engine.run(&source, &target, &HashMap::new());
/// let id = source.find_by_name("CUST_ID").unwrap();
/// let ident = target.find_by_name("identifier").unwrap();
/// assert!(result.matrix.get(id, ident).value() > 0.3);
/// ```
pub struct HarmonyEngine {
    voters: Vec<Box<dyn MatchVoter>>,
    merger: VoteMerger,
    flooding: FloodingConfig,
    thesaurus: Arc<Thesaurus>,
    /// Term-boost state carried between runs so documentation learning
    /// persists (§4.3).
    corpus_seed: Corpus,
    /// Instance samples attached for the instance voter (§2: used only
    /// when available).
    source_samples: Vec<(ElementId, Vec<String>)>,
    target_samples: Vec<(ElementId, Vec<String>)>,
    config: MatchConfig,
    cache: FeatureCache,
    /// Bumped whenever state that feeds a [`MatchContext`] changes
    /// (learned boosts, thesaurus, samples); part of the cache key.
    corpus_epoch: u64,
    /// Bumped when the thesaurus or the samples change, but not by
    /// learning: the key of the voter matrices that read no learned
    /// state.
    inputs_epoch: u64,
    /// Lazily built worker pool, kept while the thread count is stable.
    pool: Option<ThreadPool>,
    /// Last completed run, kept for incremental re-matching.
    retained: Option<RetainedRun>,
    /// How the most recent run was produced.
    last_run: RunReport,
}

impl Default for HarmonyEngine {
    fn default() -> Self {
        HarmonyEngine::new(
            default_suite(),
            VoteMerger::default(),
            FloodingConfig::default(),
        )
    }
}

impl HarmonyEngine {
    /// An engine with an explicit voter suite, merger, and flooding
    /// configuration.
    pub fn new(
        voters: Vec<Box<dyn MatchVoter>>,
        merger: VoteMerger,
        flooding: FloodingConfig,
    ) -> Self {
        HarmonyEngine {
            voters,
            merger,
            flooding,
            thesaurus: Arc::new(Thesaurus::builtin()),
            corpus_seed: Corpus::new(),
            source_samples: Vec::new(),
            target_samples: Vec::new(),
            config: MatchConfig::default(),
            cache: FeatureCache::new(),
            corpus_epoch: 0,
            inputs_epoch: 0,
            pool: None,
            retained: None,
            last_run: RunReport::default(),
        }
    }

    /// Attach per-attribute instance samples for the
    /// [`crate::voters::InstanceVoter`] (no-op for suites without it).
    pub fn set_instance_samples(
        &mut self,
        source: Vec<(ElementId, Vec<String>)>,
        target: Vec<(ElementId, Vec<String>)>,
    ) {
        self.source_samples = source;
        self.target_samples = target;
        self.corpus_epoch += 1;
        self.inputs_epoch += 1;
    }

    /// Replace the thesaurus (e.g. with a domain-specific one). Cached
    /// features depend on thesaurus expansions, so the cache is cleared.
    pub fn set_thesaurus(&mut self, thesaurus: Thesaurus) {
        self.thesaurus = Arc::new(thesaurus);
        self.cache.clear();
        self.corpus_epoch += 1;
        self.inputs_epoch += 1;
    }

    /// The merger (to inspect learned weights).
    pub fn merger(&self) -> &VoteMerger {
        &self.merger
    }

    /// The flooding configuration.
    pub fn flooding(&self) -> &FloodingConfig {
        &self.flooding
    }

    /// Mutable flooding configuration.
    pub fn flooding_mut(&mut self) -> &mut FloodingConfig {
        &mut self.flooding
    }

    /// The execution configuration.
    pub fn match_config(&self) -> MatchConfig {
        self.config
    }

    /// Set threads/cache. Turning the cache off also drops any cached
    /// features; the worker pool is rebuilt lazily on the next run.
    pub fn set_match_config(&mut self, config: MatchConfig) {
        if !config.cache {
            self.cache.clear();
        }
        self.config = config;
    }

    /// Cumulative feature-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// How the most recent completed [`HarmonyEngine::run_budgeted`]
    /// was produced (full vs incremental, and how many rows were
    /// re-merged).
    pub fn last_run(&self) -> RunReport {
        self.last_run
    }

    /// The current corpus epoch: bumped by learning, thesaurus swaps,
    /// and instance-sample changes. Part of every cache key — cached
    /// contexts from another epoch are never served — and of the
    /// engine's [`EngineState`].
    pub fn corpus_epoch(&self) -> u64 {
        self.corpus_epoch
    }

    /// The engine's learned and configured state (see [`EngineState`]).
    pub fn state(&self) -> EngineState {
        EngineState {
            weights: self
                .merger
                .weights()
                .iter()
                .map(|(name, &w)| (name.clone(), w))
                .collect(),
            corpus: self.corpus_seed.to_parts(),
            corpus_epoch: self.corpus_epoch,
            inputs_epoch: self.inputs_epoch,
            config: self.config,
        }
    }

    /// Continue from a captured [`EngineState`]: an engine restored
    /// this way runs and learns bit-identically to the one it was
    /// captured from. Call on an engine built with the same voter
    /// suite, merger strategy and flooding configuration.
    pub fn restore_state(&mut self, state: EngineState) {
        for (name, weight) in &state.weights {
            self.merger.set_weight(name, *weight);
        }
        self.corpus_seed = Corpus::from_parts(state.corpus);
        self.corpus_epoch = state.corpus_epoch;
        self.inputs_epoch = state.inputs_epoch;
        self.set_match_config(state.config);
    }

    /// Drop all cached features (call when a schema was edited in
    /// place; the workbench does this on blackboard schema events).
    pub fn invalidate_features(&mut self) {
        self.cache.clear();
    }

    /// Voter names in execution order.
    pub fn voter_names(&self) -> Vec<&'static str> {
        self.voters.iter().map(|v| v.name()).collect()
    }

    /// The merger's current per-voter weights, in voter execution
    /// order (unlearned voters report the default weight 1.0).
    ///
    /// This is the engine's observable re-weighting state: the
    /// curation-replay harness (`iwb-eval`) samples it after every
    /// feedback round to measure convergence — the round after which
    /// the largest per-voter weight delta stays below a plateau
    /// threshold.
    pub fn reweight_state(&self) -> Vec<(String, f64)> {
        self.voters
            .iter()
            .map(|v| (v.name().to_owned(), self.merger.weight(v.name())))
            .collect()
    }

    /// The thread count [`MatchConfig::threads`] resolves to.
    pub fn effective_threads(&self) -> usize {
        match self.config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The worker pool for the current thread count, (re)built on size
    /// changes.
    fn pool(&mut self, threads: usize) -> &ThreadPool {
        if self.pool.as_ref().map(ThreadPool::threads) != Some(threads) {
            self.pool = Some(ThreadPool::new(threads));
        }
        self.pool.as_ref().expect("pool just ensured")
    }

    /// A built match context for the pair — served from the feature
    /// cache when enabled.
    fn context(&mut self, source: &SchemaGraph, target: &SchemaGraph) -> Arc<MatchContext> {
        let corpus = self.corpus_seed.clone();
        let thesaurus = Arc::clone(&self.thesaurus);
        let mut ctx = if self.config.cache {
            let th = Arc::clone(&thesaurus);
            let built = self.cache.context(
                source,
                target,
                &thesaurus,
                self.corpus_epoch,
                move |src, tgt, src_text, tgt_text| {
                    MatchContext::from_parts(src, tgt, th, corpus, src_text, tgt_text)
                },
            );
            if self.source_samples.is_empty() && self.target_samples.is_empty() {
                return built;
            }
            // Samples are attached post-build; contexts in the cache
            // stay sample-free, so clone-on-write here. The epoch bump
            // in `set_instance_samples` keeps keys honest either way.
            built.with_corpus(self.corpus_seed.clone())
        } else {
            MatchContext::build(source, target, &thesaurus, corpus)
        };
        ctx.set_samples(
            crate::context::SchemaSide::Source,
            self.source_samples.clone(),
        );
        ctx.set_samples(
            crate::context::SchemaSide::Target,
            self.target_samples.clone(),
        );
        Arc::new(ctx)
    }

    /// Run the full pipeline. `locked` maps user-decided pairs to their
    /// ±1 confidence; the engine copies them into the result unchanged
    /// and flooding never modifies them (§4.3).
    ///
    /// Equivalent to [`HarmonyEngine::run_budgeted`] with an unlimited
    /// [`Budget`] — it cannot be interrupted and never fails.
    pub fn run(
        &mut self,
        source: &SchemaGraph,
        target: &SchemaGraph,
        locked: &HashMap<(ElementId, ElementId), Confidence>,
    ) -> MatchResult {
        self.run_budgeted(source, target, locked, &Budget::unlimited())
            .expect("unlimited budget never interrupts")
    }

    /// [`HarmonyEngine::run`] under a cooperative [`Budget`].
    ///
    /// Recomputes only the stages whose inputs changed since the
    /// retained run and reuses the rest (see the module docs).
    ///
    /// The budget is consulted between the pipeline stages (context
    /// build → voter scoring → merge → flooding), at every shard
    /// boundary inside the parallel stages, and before each flooding
    /// iteration (whose count is already bounded by the deterministic
    /// [`FloodingConfig::max_iterations`] budget). A cancelled or
    /// expired run returns a structured [`Interrupt`] and produces **no
    /// partial result** — engine state (voters, merger, caches, the
    /// retained run) is left exactly as it was, so a later retry is
    /// byte-identical to a fresh run. A run that completes is
    /// byte-identical to an unbudgeted one: the budget only decides
    /// *whether* stages run, never *what* they compute.
    ///
    /// [`MatchConfig::timeout_ms`] is interpreted by the caller (the
    /// workbench harmony tool tightens the budget with it); the engine
    /// itself only honours the budget it is handed.
    pub fn run_budgeted(
        &mut self,
        source: &SchemaGraph,
        target: &SchemaGraph,
        locked: &Locked,
        budget: &Budget,
    ) -> Result<MatchResult, Interrupt> {
        budget.check()?;
        let (src_fp, tgt_fp) = (fingerprint(source), fingerprint(target));
        let stages = self.stages(src_fp, tgt_fp, locked);
        let full = stages.rescore.len() == self.voters.len() && stages.remerge.is_none();
        let (src_ids, tgt_ids, mut per_voter, mut matrix) = match self.retained.as_ref() {
            Some(r) if !full => (
                r.merged.src_ids().to_vec(),
                r.merged.tgt_ids().to_vec(),
                r.per_voter.clone(),
                r.merged.clone(),
            ),
            _ => {
                let (src_ids, tgt_ids) = (matchable_ids(source), matchable_ids(target));
                let blank = || ScoreMatrix::new(src_ids.clone(), tgt_ids.clone());
                let per_voter = self
                    .voters
                    .iter()
                    .map(|v| (v.name().to_owned(), blank()))
                    .collect();
                let matrix = blank();
                (src_ids, tgt_ids, per_voter, matrix)
            }
        };
        let (src_ids, tgt_ids) = (Arc::new(src_ids), Arc::new(tgt_ids));

        // Stage 2 (Figure 1): the voters whose inputs changed score
        // every matchable pair.
        let ctx = if !full && stages.rescore.is_empty() {
            None
        } else {
            let ctx = self.context(source, target);
            budget.check()?;
            self.score(
                &ctx,
                &stages.rescore,
                &src_ids,
                &tgt_ids,
                &mut per_voter,
                budget,
            )?;
            budget.check()?;
            Some(ctx)
        };

        // Stage 3: merge (locked cells pass through unchanged).
        let dirty_rows = match &stages.remerge {
            Some(rows) => {
                for &row in rows {
                    let slab = merge_rows(
                        &per_voter,
                        &self.merger,
                        locked,
                        &src_ids,
                        &tgt_ids,
                        row,
                        row + 1,
                    );
                    matrix.splice_rows(row, &slab);
                }
                rows.len()
            }
            None => {
                self.merge_all(
                    &mut per_voter,
                    locked,
                    &src_ids,
                    &tgt_ids,
                    &mut matrix,
                    budget,
                )?;
                src_ids.len()
            }
        };
        budget.check()?;

        // Stage 4: similarity flooding, user cells pinned. The fixpoint
        // loop is bounded by the deterministic `max_iterations` budget
        // and re-checks the interruption budget before each iteration.
        // The next staged run splices into the pre-flooding merge, so
        // snapshot it before flooding mutates the matrix.
        let merged = matrix.clone();
        let locked_set: HashSet<(ElementId, ElementId)> = locked.keys().copied().collect();
        let threads = self.effective_threads().min(src_ids.len().max(1));
        let flooding_iterations = if threads <= 1 {
            flood_budgeted(
                &mut matrix,
                source,
                target,
                &locked_set,
                &self.flooding,
                budget,
            )?
        } else {
            self.flood_parallel(&mut matrix, source, target, &locked_set, threads, budget)?
        };

        let ctx = match ctx {
            Some(ctx) => ctx,
            None => self.retained.take().expect("a staged run has one").ctx,
        };
        self.retained = Some(RetainedRun {
            src_fp,
            tgt_fp,
            inputs_epoch: self.inputs_epoch,
            corpus_epoch: self.corpus_epoch,
            ctx,
            merger: self.merger.clone(),
            locked: locked.clone(),
            per_voter: per_voter.clone(),
            merged,
        });
        self.last_run = if full {
            RunReport::default()
        } else {
            RunReport {
                incremental: true,
                dirty_rows,
            }
        };
        Ok(MatchResult {
            matrix,
            per_voter,
            flooding_iterations,
        })
    }

    /// Which stages a run over the fingerprinted pair recomputes, keyed
    /// on what each stage reads (see the module docs).
    fn stages(&self, src_fp: u64, tgt_fp: u64, locked: &Locked) -> Stages {
        let full = Stages {
            rescore: (0..self.voters.len()).collect(),
            remerge: None,
        };
        let Some(r) = self.retained.as_ref() else {
            return full;
        };
        if (r.src_fp, r.tgt_fp, r.inputs_epoch) != (src_fp, tgt_fp, self.inputs_epoch) {
            return full;
        }
        let learned = r.corpus_epoch != self.corpus_epoch;
        let rescore: Vec<usize> = (0..self.voters.len())
            .filter(|&i| learned && self.voters[i].reads_learned_state())
            .collect();
        if !rescore.is_empty() || r.merger != self.merger {
            return Stages {
                rescore,
                remerge: None,
            };
        }
        // Only locked cells can differ: a row is dirty when any of its
        // cells was added, removed, or re-valued since the retained run.
        let mut dirty: HashSet<ElementId> = HashSet::new();
        for (&(s, t), &c) in locked {
            if r.locked.get(&(s, t)) != Some(&c) {
                dirty.insert(s);
            }
        }
        for &(s, t) in r.locked.keys() {
            if !locked.contains_key(&(s, t)) {
                dirty.insert(s);
            }
        }
        if dirty.is_empty() {
            // Identical rerun: the full pipeline, which serves its
            // context from the cache — keeping cache accounting (and
            // every other observable) exactly as before re-runs were
            // staged.
            return full;
        }
        let rows = r
            .merged
            .src_ids()
            .iter()
            .enumerate()
            .filter(|(_, s)| dirty.contains(s))
            .map(|(row, _)| row)
            .collect();
        Stages {
            rescore,
            remerge: Some(rows),
        }
    }

    /// Score the voters at indices `which` over every matchable pair
    /// into their matrices in `per_voter`, row ranges sharded across
    /// the pool.
    fn score(
        &mut self,
        ctx: &Arc<MatchContext>,
        which: &[usize],
        src_ids: &Arc<Vec<ElementId>>,
        tgt_ids: &Arc<Vec<ElementId>>,
        per_voter: &mut [(String, ScoreMatrix)],
        budget: &Budget,
    ) -> Result<(), Interrupt> {
        let rows = src_ids.len();
        let threads = self.effective_threads().min(rows.max(1));
        if threads <= 1 {
            let slabs = score_rows(ctx, &self.voters, which, src_ids, tgt_ids, 0, rows);
            for (&vi, slab) in which.iter().zip(slabs) {
                per_voter[vi].1.splice_rows(0, &slab);
            }
            return Ok(());
        }
        let shards = shard_ranges(rows, threads);
        let voters = Arc::new(std::mem::take(&mut self.voters));
        let which_arc: Arc<[usize]> = which.into();
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Box<dyn FnOnce() + Send>> = shards
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let (ctx, voters) = (Arc::clone(ctx), Arc::clone(&voters));
                let which = Arc::clone(&which_arc);
                let (src_ids, tgt_ids) = (Arc::clone(src_ids), Arc::clone(tgt_ids));
                let tx = tx.clone();
                Box::new(move || {
                    let slabs = score_rows(&ctx, &voters, &which, &src_ids, &tgt_ids, lo, hi);
                    tx.send((i, slabs)).expect("score shard channel");
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let outcome = self.pool(threads).run_all_budgeted(jobs, budget);
        drop(tx);
        let collected: Vec<_> = rx.into_iter().collect();
        // Skipped shards dropped their closures (and voter clones),
        // so ownership can be reclaimed whether the batch completed
        // or was interrupted — the engine is reusable after aborts.
        self.voters = Arc::try_unwrap(voters)
            .ok()
            .expect("all scoring jobs completed or were dropped");
        outcome?;
        for (i, slabs) in collected {
            for (&vi, slab) in which.iter().zip(slabs) {
                per_voter[vi].1.splice_rows(shards[i].0, &slab);
            }
        }
        Ok(())
    }

    /// Merge every row of `per_voter` into `matrix`, row ranges sharded
    /// across the pool.
    fn merge_all(
        &mut self,
        per_voter: &mut Vec<(String, ScoreMatrix)>,
        locked: &Locked,
        src_ids: &Arc<Vec<ElementId>>,
        tgt_ids: &Arc<Vec<ElementId>>,
        matrix: &mut ScoreMatrix,
        budget: &Budget,
    ) -> Result<(), Interrupt> {
        let rows = src_ids.len();
        let threads = self.effective_threads().min(rows.max(1));
        if threads <= 1 {
            let slab = merge_rows(per_voter, &self.merger, locked, src_ids, tgt_ids, 0, rows);
            matrix.splice_rows(0, &slab);
            return Ok(());
        }
        let shards = shard_ranges(rows, threads);
        let shared = Arc::new(std::mem::take(per_voter));
        let merger = Arc::new(self.merger.clone());
        let locked_arc = Arc::new(locked.clone());
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Box<dyn FnOnce() + Send>> = shards
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let (shared, merger) = (Arc::clone(&shared), Arc::clone(&merger));
                let locked = Arc::clone(&locked_arc);
                let (src_ids, tgt_ids) = (Arc::clone(src_ids), Arc::clone(tgt_ids));
                let tx = tx.clone();
                Box::new(move || {
                    let slab = merge_rows(&shared, &merger, &locked, &src_ids, &tgt_ids, lo, hi);
                    tx.send((i, slab)).expect("merge shard channel");
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let outcome = self.pool(threads).run_all_budgeted(jobs, budget);
        drop(tx);
        let collected: Vec<_> = rx.into_iter().collect();
        *per_voter = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("all merge jobs completed or were dropped"));
        outcome?;
        for (i, slab) in collected {
            matrix.splice_rows(shards[i].0, &slab);
        }
        Ok(())
    }

    /// The flooding fixpoint loop with each iteration's rows sharded
    /// across the pool. Mirrors [`flood`] exactly: same kernel, same
    /// snapshot, same convergence test. Takes the graphs directly (not
    /// a built [`MatchContext`]) so a staged run that scores no voter
    /// floods without building a context at all.
    fn flood_parallel(
        &mut self,
        matrix: &mut ScoreMatrix,
        source: &SchemaGraph,
        target: &SchemaGraph,
        locked: &HashSet<(ElementId, ElementId)>,
        threads: usize,
        budget: &Budget,
    ) -> Result<usize, Interrupt> {
        let config = self.flooding;
        if !config.enable_up && !config.enable_down {
            return Ok(0);
        }
        let rows = matrix.src_ids().len();
        let shards = shard_ranges(rows, threads);
        let locked = Arc::new(locked.clone());
        let source = Arc::new(source.clone());
        let target = Arc::new(target.clone());
        for iteration in 0..config.max_iterations {
            budget.check()?;
            let before = Arc::new(matrix.clone());
            let (tx, rx) = mpsc::channel();
            let jobs: Vec<Box<dyn FnOnce() + Send>> = shards
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| {
                    let (before, locked) = (Arc::clone(&before), Arc::clone(&locked));
                    let (source, target) = (Arc::clone(&source), Arc::clone(&target));
                    let tx = tx.clone();
                    Box::new(move || {
                        let slab = flood_rows(&before, &source, &target, &locked, &config, lo, hi);
                        tx.send((i, slab)).expect("flood shard channel");
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let outcome = self.pool(threads).run_all_budgeted(jobs, budget);
            drop(tx);
            let collected: Vec<_> = rx.into_iter().collect();
            outcome?;
            for (i, slab) in collected {
                matrix.splice_rows(shards[i].0, &slab);
            }
            if matrix.mean_abs_diff(&before) < config.epsilon {
                return Ok(iteration + 1);
            }
        }
        Ok(config.max_iterations)
    }

    /// Feed user decisions back into the engine (§4.3): each voter
    /// learns internally, and the merger re-weights voters against the
    /// result of the *previous* run.
    ///
    /// Voters learn on a context over the seed corpus. When the retained
    /// run scored this pair under the current thesaurus and samples,
    /// that context is built from the retained run's text features, so
    /// neither schema is tokenised again; otherwise it is built from
    /// scratch. Both are value-identical.
    ///
    /// The learned corpus becomes the next seed, and building a context
    /// registers every element of both schemas in its corpus. So the
    /// seed already counts each element once per learning step, and
    /// every later context counts it once more: after k steps each
    /// element counts k + 1 times in the document frequencies.
    pub fn learn(
        &mut self,
        source: &SchemaGraph,
        target: &SchemaGraph,
        previous: &MatchResult,
        feedback: &[Feedback],
    ) {
        if feedback.is_empty() {
            return;
        }
        let corpus = self.corpus_seed.clone();
        let mut ctx = match self.retained.as_ref() {
            Some(r)
                if (r.src_fp, r.tgt_fp, r.inputs_epoch)
                    == (fingerprint(source), fingerprint(target), self.inputs_epoch) =>
            {
                r.ctx.with_corpus(corpus)
            }
            _ => MatchContext::build(source, target, &self.thesaurus, corpus),
        };
        for voter in &mut self.voters {
            voter.learn(&mut ctx, feedback);
        }
        // Persist term boosts learned by voters into the seed corpus;
        // the epoch bump invalidates cached contexts built on the old
        // boosts and the retained matrices of voters that read learned
        // state.
        self.corpus_seed = ctx.corpus;
        self.corpus_epoch += 1;
        let names: Vec<&str> = self.voters.iter().map(|v| v.name()).collect();
        self.merger.learn(feedback, &names, |voter, fb| {
            previous.vote_of(voter, fb.src, fb.tgt)
        });
    }
}

/// Contiguous row ranges `(lo, hi)` splitting `rows` into `shards`
/// near-equal parts (the first `rows % shards` parts get one extra).
/// The partition is a pure function of its inputs, so shard assembly
/// order is fixed.
fn shard_ranges(rows: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(rows.max(1));
    let base = rows / shards;
    let extra = rows % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0;
    for i in 0..shards {
        let hi = lo + base + usize::from(i < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Stage-2 kernel: the scores of the voters at indices `which` for
/// source rows `lo..hi`, returned as one row-major slab per listed
/// voter.
fn score_rows(
    ctx: &MatchContext,
    voters: &[Box<dyn MatchVoter>],
    which: &[usize],
    src_ids: &[ElementId],
    tgt_ids: &[ElementId],
    lo: usize,
    hi: usize,
) -> Vec<Vec<f64>> {
    let cells = (hi - lo) * tgt_ids.len();
    let mut out: Vec<Vec<f64>> = which.iter().map(|_| Vec::with_capacity(cells)).collect();
    for &s in &src_ids[lo..hi] {
        for &t in tgt_ids {
            for (slab, &vi) in out.iter_mut().zip(which) {
                slab.push(voters[vi].vote(ctx, s, t).value());
            }
        }
    }
    out
}

/// Stage-3 kernel: merged scores for source rows `lo..hi`. The votes
/// buffer is hoisted and reused across cells — no per-pair allocation.
fn merge_rows(
    per_voter: &[(String, ScoreMatrix)],
    merger: &VoteMerger,
    locked: &Locked,
    src_ids: &[ElementId],
    tgt_ids: &[ElementId],
    lo: usize,
    hi: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity((hi - lo) * tgt_ids.len());
    let mut votes: Vec<(&str, Confidence)> = Vec::with_capacity(per_voter.len());
    for &s in &src_ids[lo..hi] {
        for &t in tgt_ids {
            if let Some(&c) = locked.get(&(s, t)) {
                out.push(c.value());
                continue;
            }
            votes.clear();
            for (name, m) in per_voter {
                votes.push((name.as_str(), m.get(s, t)));
            }
            out.push(merger.merge(&votes).value());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_loaders::xsd::{FIG2_SOURCE_XSD, FIG2_TARGET_XSD};
    use iwb_loaders::{SchemaLoader, XsdLoader};
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn fig2() -> (SchemaGraph, SchemaGraph) {
        (
            XsdLoader.load(FIG2_SOURCE_XSD, "purchaseOrder").unwrap(),
            XsdLoader.load(FIG2_TARGET_XSD, "invoice").unwrap(),
        )
    }

    #[test]
    fn figure2_pipeline_finds_plausible_links() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        let result = engine.run(&s, &t, &HashMap::new());
        let ship = s.find_by_name("shipTo").unwrap();
        let shipping = t.find_by_name("shippingInfo").unwrap();
        // shipTo ↔ shippingInfo is the Figure 3 cell with +0.8.
        assert!(
            result.matrix.get(ship, shipping).value() > 0.3,
            "got {}",
            result.matrix.get(ship, shipping)
        );
        // Best target for shipTo must be shippingInfo.
        assert_eq!(result.matrix.best_for_src(ship).unwrap().0, shipping);
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        let name = t.find_by_name("name").unwrap();
        assert!(result.matrix.get(sub, total).value() > result.matrix.get(sub, name).value());
    }

    #[test]
    fn locked_cells_survive_the_pipeline() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        let first = s.find_by_name("firstName").unwrap();
        let total = t.find_by_name("total").unwrap();
        let mut locked = HashMap::new();
        locked.insert((first, total), Confidence::REJECT);
        let result = engine.run(&s, &t, &locked);
        assert_eq!(result.matrix.get(first, total), Confidence::REJECT);
    }

    #[test]
    fn per_voter_matrices_are_reported() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        let result = engine.run(&s, &t, &HashMap::new());
        assert_eq!(result.per_voter.len(), 9);
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        assert!(result.vote_of("name", sub, total).value() > 0.0);
        assert_eq!(
            result.vote_of("nonexistent", sub, total),
            Confidence::UNKNOWN
        );
    }

    #[test]
    fn learning_changes_merger_weights() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        let result = engine.run(&s, &t, &HashMap::new());
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        let first = s.find_by_name("firstName").unwrap();
        let name = t.find_by_name("name").unwrap();
        let fb = vec![Feedback::accept(sub, total), Feedback::accept(first, name)];
        engine.learn(&s, &t, &result, &fb);
        // At least one voter weight moved away from 1.
        assert!(engine
            .merger()
            .weights()
            .values()
            .any(|w| (w - 1.0).abs() > 1e-9));
    }

    #[test]
    fn reweight_state_tracks_voter_order_and_learned_weights() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        let fresh = engine.reweight_state();
        let names: Vec<String> = engine
            .voter_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(
            fresh.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            names,
            "weights must come back in voter execution order"
        );
        assert!(fresh.iter().all(|(_, w)| *w == 1.0), "unlearned = 1.0");
        let result = engine.run(&s, &t, &HashMap::new());
        let sub = s.find_by_name("subtotal").unwrap();
        let total = t.find_by_name("total").unwrap();
        engine.learn(&s, &t, &result, &[Feedback::accept(sub, total)]);
        let learned = engine.reweight_state();
        assert_eq!(learned.len(), fresh.len());
        assert!(
            learned.iter().any(|(_, w)| (*w - 1.0).abs() > 1e-9),
            "learning must move at least one reported weight"
        );
    }

    #[test]
    fn instance_samples_reach_the_extended_suite() {
        let s = SchemaBuilder::new("s", Metamodel::Relational)
            .open("T")
            .attr("mystery1", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new("t", Metamodel::Relational)
            .open("U")
            .attr("enigma9", DataType::Text)
            .close()
            .build();
        let a = s.find_by_name("mystery1").unwrap();
        let b = t.find_by_name("enigma9").unwrap();
        let vals = |xs: &[&str]| xs.iter().map(|x| (*x).to_string()).collect::<Vec<_>>();
        let mut engine = HarmonyEngine::new(
            crate::voters::extended_suite(),
            VoteMerger::default(),
            FloodingConfig::disabled(),
        );
        let before = engine.run(&s, &t, &HashMap::new()).matrix.get(a, b).value();
        engine.set_instance_samples(
            vec![(a, vals(&["ASP", "CON", "GRS"]))],
            vec![(b, vals(&["asp", "con", "grs"]))],
        );
        let result = engine.run(&s, &t, &HashMap::new());
        assert!(result.vote_of("instance", a, b).value() > 0.5);
        assert!(result.matrix.get(a, b).value() > before);
    }

    #[test]
    fn empty_schemas_produce_empty_matrix() {
        let s = SchemaBuilder::new("s", Metamodel::Xml).build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("e")
            .attr("x", DataType::Text)
            .close()
            .build();
        let mut engine = HarmonyEngine::default();
        let result = engine.run(&s, &t, &HashMap::new());
        assert!(result.matrix.is_empty());
    }

    #[test]
    fn empty_schemas_work_with_threads() {
        let s = SchemaBuilder::new("s", Metamodel::Xml).build();
        let t = SchemaBuilder::new("t", Metamodel::Xml)
            .open("e")
            .attr("x", DataType::Text)
            .close()
            .build();
        let mut engine = HarmonyEngine::default();
        engine.set_match_config(MatchConfig {
            threads: 4,
            cache: true,
            ..MatchConfig::default()
        });
        let result = engine.run(&s, &t, &HashMap::new());
        assert!(result.matrix.is_empty());
        let result = engine.run(&t, &s, &HashMap::new());
        assert!(result.matrix.is_empty());
    }

    #[test]
    fn cache_hits_on_rerun() {
        let (s, t) = fig2();
        let mut engine = HarmonyEngine::default();
        engine.run(&s, &t, &HashMap::new());
        engine.run(&s, &t, &HashMap::new());
        let stats = engine.cache_stats();
        assert_eq!(stats.context_hits, 1);
        assert_eq!(stats.context_misses, 1);
        // Invalidation forces a rebuild (text features recomputed too).
        engine.invalidate_features();
        engine.run(&s, &t, &HashMap::new());
        assert_eq!(engine.cache_stats().context_misses, 2);
        assert_eq!(engine.cache_stats().text_misses, 4);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_ranges(2, 8), vec![(0, 1), (1, 2)]);
        assert_eq!(shard_ranges(0, 4), vec![(0, 0)]);
        let ranges = shard_ranges(97, 8);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 97);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
