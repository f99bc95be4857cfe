//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] decides, at named *fault points* inside the daemon and
//! the store, whether to inject a failure: a tool error, a panic, a slow
//! command, a torn journal write, or a corrupted snapshot. Decisions are a
//! pure function of `(seed, point, n)` where `n` is the per-point
//! invocation index, so a chaos run is reproducible from its printed seed
//! regardless of how worker threads interleave — the same command stream
//! hits the same faults every time.
//!
//! Recognized fault points:
//!
//! | point              | effect                                          |
//! |--------------------|-------------------------------------------------|
//! | `exec-error`       | the command fails with an injected tool error   |
//! | `exec-panic`       | the command panics (exercises `catch_unwind`)   |
//! | `exec-slow`        | the command sleeps `millis` before executing    |
//! | `exec-hang`        | the command hangs `millis` *before* executing,  |
//! |                    | polling its budget — a deadline or `cancel`     |
//! |                    | reaps it without the command ever running       |
//! | `shard-stall`      | every in-engine budget check stalls `millis`,   |
//! |                    | simulating a shard that stops making progress   |
//! | `journal-torn`     | the journal append writes only a record prefix  |
//! | `snapshot-torn`    | the snapshot commit persists only a file prefix |
//! | `snapshot-bitflip` | one payload bit is flipped after checksumming   |
//! | `snapshot-stale`   | the header is written with version 0            |
//! | `backend-crash`    | a fleet backend hard-crashes (no response, no   |
//! |                    | snapshot flush) — drives router failover        |
//! | `probe-timeout`    | a router health probe is treated as timed out   |
//! | `split-routing`    | the router deliberately routes one command to a |
//! |                    | non-pinned backend (sequence guard must reject) |
//! | `migration-stall`  | a session migration stalls `millis` between     |
//! |                    | release on the old backend and recover on the   |
//! |                    | successor                                       |
//! | `repl-disconnect`  | the replication source drops its stream to the  |
//! |                    | successor before sending (the commit still      |
//! |                    | acks; the replica falls behind)                 |
//! | `repl-lag`         | the replication source skips shipping this      |
//! |                    | commit (lag heals at the next commit's          |
//! |                    | catch-up loop)                                  |
//! | `promote-stale`    | the router treats a promotion candidate's       |
//! |                    | replica as provably behind, forcing the         |
//! |                    | `STALE-REPLICA` refusal path                    |
//!
//! The three `snapshot-*` points corrupt a snapshot *after* its checksums
//! are computed, so the damage is invisible to the writer and must be
//! caught by the reader's page/segment/version checks — exactly the
//! failure the journal-replay fallback exists for.
//!
//! Plans are built from a compact spec string (`--faults` on
//! `workbenchd` and `bench_server`) or programmatically in tests:
//!
//! ```text
//! seed=42,exec-panic=0.01,exec-slow=0.05:20,journal-torn=0.02
//! seed=7,exec-panic@0+1+2          # fire on exactly those calls
//! ```
//!
//! `point=RATE[:MS]` injects with probability `RATE`; `point@I+J[:MS]`
//! fires on exactly the listed per-point call indices (0-based).

use iwb_rng::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault point: the command fails with an injected tool error.
pub const EXEC_ERROR: &str = "exec-error";
/// Fault point: the command panics inside the session's shell lock.
pub const EXEC_PANIC: &str = "exec-panic";
/// Fault point: the command sleeps before executing.
pub const EXEC_SLOW: &str = "exec-slow";
/// Fault point: the command hangs before executing, cooperatively
/// polling its budget — only a deadline or cancellation frees it early.
pub const EXEC_HANG: &str = "exec-hang";
/// Fault point: every in-engine budget check stalls for the payload
/// duration (still polling), simulating a shard that stopped making
/// progress.
pub const SHARD_STALL: &str = "shard-stall";
/// Fault point: the journal append persists only a record prefix.
pub const JOURNAL_TORN: &str = "journal-torn";
/// Fault point: the snapshot commit persists only a file prefix
/// (simulates a crash mid-write that beat the rename).
pub const SNAPSHOT_TORN: &str = "snapshot-torn";
/// Fault point: one bit of the snapshot payload is flipped after the
/// checksums are computed (simulates silent media corruption).
pub const SNAPSHOT_BITFLIP: &str = "snapshot-bitflip";
/// Fault point: the snapshot header is written with version 0, as if by
/// an older, incompatible build (checksums stay valid).
pub const SNAPSHOT_STALE: &str = "snapshot-stale";
/// Fault point: a fleet backend hard-crashes — the in-flight command's
/// response is never written and no snapshot is flushed on exit.
/// Consulted by fleet harnesses to decide *when* to kill a backend.
pub const BACKEND_CRASH: &str = "backend-crash";
/// Fault point: a router health probe is treated as timed out even if
/// the backend answered (exercises quarantine and re-admission).
pub const PROBE_TIMEOUT: &str = "probe-timeout";
/// Fault point: the router deliberately routes one command to a backend
/// other than the session's pinned owner — the backend's sequence-number
/// guard must reject it rather than fork history.
pub const SPLIT_ROUTING: &str = "split-routing";
/// Fault point: a planned migration stalls for the payload duration
/// between releasing the session on the old backend and recovering it
/// on the successor (commands arriving in the window must get a
/// retryable error, never a forked session).
pub const MIGRATION_STALL: &str = "migration-stall";
/// Fault point: the replication source drops its stream to the
/// successor before shipping the committed record — the client ack
/// still returns, the replica falls behind, and a later promotion must
/// refuse with `STALE-REPLICA` rather than serve the stale state.
pub const REPL_DISCONNECT: &str = "repl-disconnect";
/// Fault point: the replication source skips shipping this one commit;
/// the lag is transient and heals at the next commit's catch-up loop.
pub const REPL_LAG: &str = "repl-lag";
/// Fault point: the router treats a promotion candidate's replica as
/// provably behind the last acked mutation, forcing the
/// `STALE-REPLICA` refusal path deterministically.
pub const PROMOTE_STALE: &str = "promote-stale";

const POINTS: [&str; 16] = [
    EXEC_ERROR,
    EXEC_PANIC,
    EXEC_SLOW,
    EXEC_HANG,
    SHARD_STALL,
    JOURNAL_TORN,
    SNAPSHOT_TORN,
    SNAPSHOT_BITFLIP,
    SNAPSHOT_STALE,
    BACKEND_CRASH,
    PROBE_TIMEOUT,
    SPLIT_ROUTING,
    MIGRATION_STALL,
    REPL_DISCONNECT,
    REPL_LAG,
    PROMOTE_STALE,
];

/// FNV-1a 64-bit hash (shared by the fault, journal, and snapshot
/// modules; no external crates).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a64 hash over more bytes: the hash of `a ++ b` is
/// `fnv1a64_extend(fnv1a64(a), b)`.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One point's injection rule.
#[derive(Debug, Clone, Default, PartialEq)]
struct Rule {
    /// Injection probability in `[0, 1]`.
    rate: f64,
    /// Explicit per-point call indices that always fire.
    at: BTreeSet<u64>,
    /// Payload for `exec-slow` (sleep duration in ms); 0 elsewhere.
    millis: u64,
}

/// A buildable fault specification; freeze it with
/// [`FaultSpec::build`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    rules: BTreeMap<String, Rule>,
}

impl FaultSpec {
    /// An empty spec with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            rules: BTreeMap::new(),
        }
    }

    fn rule_mut(&mut self, point: &str) -> &mut Rule {
        debug_assert!(POINTS.contains(&point), "unknown fault point {point:?}");
        self.rules.entry(point.to_owned()).or_default()
    }

    /// Inject at `point` with probability `rate`.
    pub fn rate(mut self, point: &str, rate: f64) -> Self {
        self.rule_mut(point).rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Inject at `point` on exactly these per-point call indices.
    pub fn at(mut self, point: &str, indices: &[u64]) -> Self {
        self.rule_mut(point).at.extend(indices.iter().copied());
        self
    }

    /// Sleep payload for a point (meaningful for `exec-slow`).
    pub fn millis(mut self, point: &str, ms: u64) -> Self {
        self.rule_mut(point).millis = ms;
        self
    }

    /// Parse a spec string (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(seed) = token.strip_prefix("seed=") {
                out.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed in fault spec: {token:?}"))?;
                continue;
            }
            let (name, value, explicit) = match (token.split_once('@'), token.split_once('=')) {
                (Some((n, v)), _) => (n, v, true),
                (None, Some((n, v))) => (n, v, false),
                _ => return Err(format!("bad fault token {token:?} (want point=rate[:ms])")),
            };
            if !POINTS.contains(&name) {
                return Err(format!(
                    "unknown fault point {name:?} (known: {})",
                    POINTS.join(", ")
                ));
            }
            let (value, millis) = match value.split_once(':') {
                Some((v, ms)) => (
                    v,
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad millis in fault token {token:?}"))?,
                ),
                None => (value, 0),
            };
            if explicit {
                let mut indices = Vec::new();
                for part in value.split('+') {
                    indices.push(
                        part.parse::<u64>()
                            .map_err(|_| format!("bad call index in fault token {token:?}"))?,
                    );
                }
                out = out.at(name, &indices);
            } else {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("bad rate in fault token {token:?}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("rate out of [0,1] in fault token {token:?}"));
                }
                out = out.rate(name, rate);
            }
            if millis > 0 {
                out = out.millis(name, millis);
            }
        }
        Ok(out)
    }

    /// Freeze the spec into a shareable, thread-safe plan.
    pub fn build(self) -> FaultPlan {
        if self.rules.is_empty() {
            return FaultPlan::none();
        }
        let counters = self
            .rules
            .keys()
            .map(|k| (k.clone(), AtomicU64::new(0)))
            .collect();
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed: self.seed,
                rules: self.rules,
                counters,
            })),
        }
    }
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    rules: BTreeMap<String, Rule>,
    counters: BTreeMap<String, AtomicU64>,
}

/// A frozen fault plan; cheap to clone, shared across workers. The
/// default plan injects nothing and costs one branch per check.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl FaultPlan {
    /// The no-fault plan (production default).
    pub fn none() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// Whether any rule is armed.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Decide whether the fault at `point` fires on this call;
    /// `Some(millis)` carries the point's sleep payload (0 when none).
    /// Each call consumes one per-point index, so decisions are
    /// deterministic in `(seed, point, index)`.
    pub fn fires(&self, point: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let rule = inner.rules.get(point)?;
        let index = inner.counters[point].fetch_add(1, Ordering::Relaxed);
        if rule.at.contains(&index) {
            return Some(rule.millis);
        }
        if rule.rate > 0.0 {
            // One SplitMix64 step keyed on (seed, point, index): the
            // draw is stable under any thread interleaving.
            let key =
                inner.seed ^ fnv1a64(point.as_bytes()) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let draw = SplitMix64::new(key).next_u64() as f64 / (u64::MAX as f64);
            if draw < rule.rate {
                return Some(rule.millis);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for _ in 0..100 {
            assert_eq!(plan.fires(EXEC_PANIC), None);
        }
    }

    #[test]
    fn explicit_indices_fire_exactly_there() {
        let plan = FaultSpec::seeded(1).at(EXEC_PANIC, &[0, 3]).build();
        let fired: Vec<bool> = (0..6).map(|_| plan.fires(EXEC_PANIC).is_some()).collect();
        assert_eq!(fired, vec![true, false, false, true, false, false]);
        // Other points are untouched.
        assert_eq!(plan.fires(EXEC_ERROR), None);
    }

    #[test]
    fn rate_draws_are_deterministic_per_seed() {
        let a = FaultSpec::seeded(42).rate(EXEC_ERROR, 0.3).build();
        let b = FaultSpec::seeded(42).rate(EXEC_ERROR, 0.3).build();
        let da: Vec<bool> = (0..200).map(|_| a.fires(EXEC_ERROR).is_some()).collect();
        let db: Vec<bool> = (0..200).map(|_| b.fires(EXEC_ERROR).is_some()).collect();
        assert_eq!(da, db);
        let hits = da.iter().filter(|&&f| f).count();
        assert!((20..=100).contains(&hits), "rate 0.3 gave {hits}/200");
    }

    #[test]
    fn spec_string_roundtrip() {
        let spec =
            FaultSpec::parse("seed=9, exec-panic=0.5, exec-slow=0.25:20, journal-torn@2").unwrap();
        assert_eq!(
            spec,
            FaultSpec::seeded(9)
                .rate(EXEC_PANIC, 0.5)
                .rate(EXEC_SLOW, 0.25)
                .millis(EXEC_SLOW, 20)
                .at(JOURNAL_TORN, &[2])
        );
        assert!(FaultSpec::parse("bogus-point=0.5").is_err());
        assert!(FaultSpec::parse("exec-panic=1.5").is_err());
        assert!(FaultSpec::parse("exec-panic@x").is_err());
        assert!(FaultSpec::parse("seed=nope").is_err());
        assert!(FaultSpec::parse("").unwrap().build().inner.is_none());
    }

    #[test]
    fn hang_and_stall_points_parse_and_fire() {
        let spec = FaultSpec::parse("seed=5, exec-hang@0:60000, shard-stall=1.0:500").unwrap();
        assert_eq!(
            spec,
            FaultSpec::seeded(5)
                .at(EXEC_HANG, &[0])
                .millis(EXEC_HANG, 60_000)
                .rate(SHARD_STALL, 1.0)
                .millis(SHARD_STALL, 500)
        );
        let plan = spec.build();
        assert_eq!(plan.fires(EXEC_HANG), Some(60_000));
        assert_eq!(plan.fires(EXEC_HANG), None);
        assert_eq!(plan.fires(SHARD_STALL), Some(500));
    }

    #[test]
    fn slow_payload_is_carried() {
        let plan = FaultSpec::seeded(3)
            .at(EXEC_SLOW, &[0])
            .millis(EXEC_SLOW, 25)
            .build();
        assert_eq!(plan.fires(EXEC_SLOW), Some(25));
        assert_eq!(plan.fires(EXEC_SLOW), None);
    }

    #[test]
    fn clones_share_the_call_counters() {
        let plan = FaultSpec::seeded(1).at(EXEC_PANIC, &[1]).build();
        let clone = plan.clone();
        assert_eq!(plan.fires(EXEC_PANIC), None); // index 0
        assert!(clone.fires(EXEC_PANIC).is_some()); // index 1: shared counter
    }

    #[test]
    fn fleet_points_parse_and_fire() {
        let spec = FaultSpec::parse(
            "seed=13, backend-crash@0, probe-timeout=1.0, split-routing@1, migration-stall@0:250",
        )
        .unwrap();
        let plan = spec.build();
        assert_eq!(plan.fires(BACKEND_CRASH), Some(0));
        assert_eq!(plan.fires(BACKEND_CRASH), None);
        assert!(plan.fires(PROBE_TIMEOUT).is_some());
        assert_eq!(plan.fires(SPLIT_ROUTING), None); // index 0
        assert!(plan.fires(SPLIT_ROUTING).is_some()); // index 1
        assert_eq!(plan.fires(MIGRATION_STALL), Some(250));
    }

    #[test]
    fn repl_points_parse_and_fire() {
        let spec =
            FaultSpec::parse("seed=17, repl-disconnect@0, repl-lag=1.0, promote-stale@1").unwrap();
        let plan = spec.build();
        assert_eq!(plan.fires(REPL_DISCONNECT), Some(0));
        assert_eq!(plan.fires(REPL_DISCONNECT), None);
        assert!(plan.fires(REPL_LAG).is_some());
        assert_eq!(plan.fires(PROMOTE_STALE), None); // index 0
        assert!(plan.fires(PROMOTE_STALE).is_some()); // index 1
    }

    #[test]
    fn snapshot_points_parse_and_fire() {
        let spec =
            FaultSpec::parse("seed=11, snapshot-torn@0, snapshot-bitflip=1.0, snapshot-stale@1")
                .unwrap();
        let plan = spec.build();
        assert_eq!(plan.fires(SNAPSHOT_TORN), Some(0));
        assert_eq!(plan.fires(SNAPSHOT_TORN), None);
        assert!(plan.fires(SNAPSHOT_BITFLIP).is_some());
        assert_eq!(plan.fires(SNAPSHOT_STALE), None); // index 0
        assert!(plan.fires(SNAPSHOT_STALE).is_some()); // index 1
    }
}
