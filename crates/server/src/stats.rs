//! Observability for both binaries: the counter registry, fixed-bucket
//! latency histograms, and the one `stats` body format `workbenchd` and
//! `workbench-router` answer with.
//!
//! Everything is lock-free (`AtomicU64` arrays): workers record on every
//! command without contending with each other or with the render path.
//! A counter is a variant of a per-binary enum indexing a fixed array
//! ([`Counters`]); its name comes from the enum's table, so the command
//! path never looks a name up. Histogram buckets are powers of two in
//! microseconds, so percentiles are upper bounds — accurate to a factor
//! of two, which is what capacity planning needs and costs nothing to
//! keep.
//!
//! Every `stats` body line is `<scope> key=value …` ([`render`]): one
//! scope word, then only `key=value` tokens, so a program reads any
//! value as `<scope>.<key>`.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of power-of-two buckets: bucket `b` covers
/// `[2^(b-1), 2^b)` µs (bucket 0 is `< 1 µs`), so the top bucket
/// starts at 2^30 µs ≈ 18 minutes — far beyond any command.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

fn bucket_index(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound (µs) of a bucket.
fn bucket_bound(index: usize) -> u64 {
    1u64 << index
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The upper bound (µs) of the bucket holding the `q`-quantile
    /// observation (`q` in `[0, 1]`); 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }
}

/// A counter enum with `N` variants: each variant owns one slot of a
/// [`Counters`] and names the `stats` field the slot renders as.
pub trait Counter<const N: usize>: Copy + 'static {
    /// `(counter, scope, key)` for every variant, in discriminant order
    /// (the render order): the counter renders as `key=<value>` on its
    /// scope's line.
    const TABLE: [(Self, &'static str, &'static str); N];

    /// The variant's slot: its discriminant.
    fn index(self) -> usize;
}

/// One `AtomicU64` per variant of `K`. Values only ever grow, except a
/// gauge (such as live connections), which also [`Counters::sub`]s.
#[derive(Debug)]
pub struct Counters<K: Counter<N>, const N: usize> {
    slots: [AtomicU64; N],
    keys: PhantomData<K>,
}

impl<K: Counter<N>, const N: usize> Default for Counters<K, N> {
    fn default() -> Self {
        debug_assert!(
            K::TABLE
                .iter()
                .enumerate()
                .all(|(i, row)| row.0.index() == i),
            "a counter table must list its variants in discriminant order"
        );
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            keys: PhantomData,
        }
    }
}

impl<K: Counter<N>, const N: usize> Counters<K, N> {
    /// Add `n` to a counter.
    pub fn add(&self, key: K, n: u64) {
        self.slots[key.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from a gauge.
    pub fn sub(&self, key: K, n: u64) {
        self.slots[key.index()].fetch_sub(n, Ordering::Relaxed);
    }

    /// A counter's current value.
    pub fn get(&self, key: K) -> u64 {
        self.slots[key.index()].load(Ordering::Relaxed)
    }

    /// Every counter as a [`render`] field, in table order.
    pub fn fields<'a>(&'a self) -> impl Iterator<Item = (&'a str, &'a str, String)> + 'a {
        K::TABLE
            .into_iter()
            .map(|(key, scope, name)| (scope, name, self.get(key).to_string()))
    }
}

/// Render a `stats` body — the one format both binaries answer `stats`
/// with. `fields` are `(scope, key, value)` in order; consecutive
/// fields of one scope share a line, `<scope> key=value …`.
pub fn render<'a>(fields: impl IntoIterator<Item = (&'a str, &'a str, String)>) -> String {
    let mut out = String::new();
    let mut line_scope = None;
    for (scope, key, value) in fields {
        if line_scope != Some(scope) {
            if line_scope.is_some() {
                out.push('\n');
            }
            out.push_str(scope);
            line_scope = Some(scope);
        }
        out.push_str(&format!(" {key}={value}"));
    }
    out
}

/// The protocol command families tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// `load` → schema-loader tool.
    Load,
    /// `match` → harmony tool (automatic).
    Match,
    /// `accept` / `reject` → harmony tool (manual).
    Decide,
    /// `bind` / `code` → aqualogic-mapper tool.
    Map,
    /// `generate` → xquery-codegen tool.
    Generate,
    /// `show …` blackboard reads.
    Show,
    /// `query` ad hoc IB queries.
    Query,
    /// `export` Turtle dumps.
    Export,
    /// `session …` registry operations.
    Session,
    /// `stats`, `ping`, `shutdown`, `quit`.
    Admin,
    /// Anything else (always an error).
    Other,
}

/// Each class counts its errors; its `stats` line (the scope) also
/// carries its latency histogram.
impl Counter<11> for CommandClass {
    const TABLE: [(Self, &'static str, &'static str); 11] = [
        (CommandClass::Load, "cmd.load", "errors"),
        (CommandClass::Match, "cmd.match", "errors"),
        (CommandClass::Decide, "cmd.decide", "errors"),
        (CommandClass::Map, "cmd.map", "errors"),
        (CommandClass::Generate, "cmd.generate", "errors"),
        (CommandClass::Show, "cmd.show", "errors"),
        (CommandClass::Query, "cmd.query", "errors"),
        (CommandClass::Export, "cmd.export", "errors"),
        (CommandClass::Session, "cmd.session", "errors"),
        (CommandClass::Admin, "cmd.admin", "errors"),
        (CommandClass::Other, "cmd.other", "errors"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

impl CommandClass {
    /// Classify a command line by its first word (skipping a leading
    /// `@N` sequence stamp, which the fleet router prefixes to
    /// mutating commands).
    pub fn of(command: &str) -> CommandClass {
        let mut words = command.split_whitespace();
        let first = match words.next().unwrap_or("") {
            w if w.starts_with('@') => words.next().unwrap_or(""),
            w => w,
        };
        match first {
            "load" => CommandClass::Load,
            "match" => CommandClass::Match,
            "accept" | "reject" => CommandClass::Decide,
            "bind" | "code" => CommandClass::Map,
            "generate" => CommandClass::Generate,
            "show" => CommandClass::Show,
            "query" => CommandClass::Query,
            "export" => CommandClass::Export,
            "session" => CommandClass::Session,
            "stats" | "ping" | "probe" | "shutdown" | "quit" => CommandClass::Admin,
            _ => CommandClass::Other,
        }
    }
}

/// The backend's counters.
#[derive(Debug, Clone, Copy)]
pub enum ServerCounter {
    /// Sessions created by `session new`.
    SessionsCreated,
    /// Sessions evicted for idleness.
    SessionsEvicted,
    /// Sessions closed by request.
    SessionsClosed,
    /// Connections being served (a gauge).
    ConnectionsLive,
    /// Connections accepted.
    ConnectionsTotal,
    /// Configured faults that fired (see [`iwb_store::fault::FaultPlan`]).
    FaultsInjected,
    /// Command panics contained.
    PanicsCaught,
    /// Sessions that crossed the consecutive-panic threshold.
    SessionsQuarantined,
    /// Commands cancelled mid-flight (`cancel <session>`).
    CommandsCancelled,
    /// Commands reaped by their deadline.
    CommandsDeadlineExceeded,
    /// Connections shed by admission control (`RETRY-AFTER`).
    ConnectionsShed,
    /// Journal records committed.
    JournalRecords,
    /// Torn journal appends (fault injection) and torn tails healed.
    JournalTorn,
    /// Journal operations that failed with an I/O error.
    JournalErrors,
    /// Sessions rebuilt by recovery or promotion.
    SessionsRecovered,
    /// Journal records replayed by recovery or promotion.
    CommandsReplayed,
}

impl Counter<16> for ServerCounter {
    const TABLE: [(Self, &'static str, &'static str); 16] = [
        (ServerCounter::SessionsCreated, "sessions", "created"),
        (ServerCounter::SessionsEvicted, "sessions", "evicted"),
        (ServerCounter::SessionsClosed, "sessions", "closed"),
        (ServerCounter::ConnectionsLive, "connections", "live"),
        (ServerCounter::ConnectionsTotal, "connections", "total"),
        (ServerCounter::FaultsInjected, "faults", "injected"),
        (ServerCounter::PanicsCaught, "faults", "panics_caught"),
        (ServerCounter::SessionsQuarantined, "faults", "quarantined"),
        (ServerCounter::CommandsCancelled, "budget", "cancelled"),
        (
            ServerCounter::CommandsDeadlineExceeded,
            "budget",
            "deadline_exceeded",
        ),
        (ServerCounter::ConnectionsShed, "budget", "shed"),
        (ServerCounter::JournalRecords, "journal", "records"),
        (ServerCounter::JournalTorn, "journal", "torn"),
        (ServerCounter::JournalErrors, "journal", "errors"),
        (
            ServerCounter::SessionsRecovered,
            "journal",
            "recovered_sessions",
        ),
        (ServerCounter::CommandsReplayed, "journal", "replayed"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// The backend's counters, gauges and per-class latency histograms.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    /// Every backend counter, indexed by [`ServerCounter`].
    pub counters: Counters<ServerCounter, 16>,
    errors: Counters<CommandClass, 11>,
    latency: [Histogram; 11],
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            started: Instant::now(),
            counters: Counters::default(),
            errors: Counters::default(),
            latency: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl ServerStats {
    /// Fresh stats (uptime starts now).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed command.
    pub fn record_command(&self, class: CommandClass, latency: Duration, ok: bool) {
        self.latency[class.index()].record(latency);
        if !ok {
            self.errors.add(class, 1);
        }
    }

    /// Startup recovery (or a promotion) completed with this report.
    pub fn recovery(&self, report: &crate::session::RecoveryReport) {
        self.counters
            .add(ServerCounter::SessionsRecovered, report.sessions as u64);
        self.counters
            .add(ServerCounter::CommandsReplayed, report.replayed as u64);
        self.counters
            .add(ServerCounter::JournalTorn, report.torn_tails as u64);
    }

    /// Render the `stats` body. `live_sessions` is the registry's
    /// current gauge and `store` its snapshot counters (the registry
    /// owns both; these stats only count flows).
    pub fn render(&self, live_sessions: usize, store: &crate::session::StoreStats) -> String {
        let total: u64 = self.latency.iter().map(Histogram::count).sum();
        let errors: u64 = CommandClass::TABLE
            .into_iter()
            .map(|(class, ..)| self.errors.get(class))
            .sum();
        let head = [
            (
                "server",
                "uptime_s",
                self.started.elapsed().as_secs().to_string(),
            ),
            // Leads the `sessions` counters' line.
            ("sessions", "live", live_sessions.to_string()),
        ];
        let commands = [
            ("commands", "total", total.to_string()),
            ("commands", "errors", errors.to_string()),
        ];
        let classes = CommandClass::TABLE
            .into_iter()
            .filter(|&(class, ..)| self.latency[class.index()].count() > 0)
            .flat_map(|(class, scope, _)| {
                let h = &self.latency[class.index()];
                [
                    ("count", h.count()),
                    ("errors", self.errors.get(class)),
                    ("mean_us", h.mean_us()),
                    ("p50_us", h.percentile_us(0.50)),
                    ("p95_us", h.percentile_us(0.95)),
                    ("p99_us", h.percentile_us(0.99)),
                ]
                .map(|(key, value)| (scope, key, value.to_string()))
            });
        render(
            head.into_iter()
                .chain(self.counters.fields())
                .chain(store.fields())
                .chain(commands)
                .chain(classes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StoreStats;

    #[test]
    fn bucket_indexing_is_monotone_and_capped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentiles_bound_observations() {
        let h = Histogram::default();
        for us in [10u64, 20, 30, 40, 50, 1000, 2000, 4000, 8000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        // p50 falls in the bucket of the 5th observation (50 µs → 64).
        assert_eq!(h.percentile_us(0.5), 64);
        // p100 bounds the largest observation.
        assert!(h.percentile_us(1.0) >= 100_000);
        // Percentiles are monotone in q.
        assert!(h.percentile_us(0.9) <= h.percentile_us(0.99));
    }

    #[test]
    fn classification_covers_the_shell_language() {
        assert_eq!(CommandClass::of("load er po <<EOF"), CommandClass::Load);
        assert_eq!(CommandClass::of("match a b"), CommandClass::Match);
        assert_eq!(CommandClass::of("accept a b r c"), CommandClass::Decide);
        assert_eq!(CommandClass::of("reject a b r c"), CommandClass::Decide);
        assert_eq!(CommandClass::of("bind a b r v"), CommandClass::Map);
        assert_eq!(CommandClass::of("code a b c := x"), CommandClass::Map);
        assert_eq!(CommandClass::of("generate a b"), CommandClass::Generate);
        assert_eq!(CommandClass::of("show coverage"), CommandClass::Show);
        assert_eq!(CommandClass::of("query ?s ?p ?o"), CommandClass::Query);
        assert_eq!(CommandClass::of("export"), CommandClass::Export);
        assert_eq!(CommandClass::of("session new"), CommandClass::Session);
        assert_eq!(CommandClass::of("stats"), CommandClass::Admin);
        assert_eq!(CommandClass::of("probe"), CommandClass::Admin);
        assert_eq!(CommandClass::of("frobnicate"), CommandClass::Other);
        // The router's sequence stamp is transparent to classification.
        assert_eq!(CommandClass::of("@7 match a b"), CommandClass::Match);
        assert_eq!(CommandClass::of("@0 load er po <<EOF"), CommandClass::Load);
        assert_eq!(CommandClass::of("@"), CommandClass::Other);
    }

    #[test]
    fn render_groups_consecutive_fields_of_a_scope_on_one_line() {
        let fields = [
            ("a", "x", "1".to_owned()),
            ("a", "y", "2".to_owned()),
            ("b.c", "z", "3".to_owned()),
        ];
        assert_eq!(render(fields), "a x=1 y=2\nb.c z=3");
        assert_eq!(render([]), "");
    }

    #[test]
    fn render_includes_gauges_and_only_used_classes() {
        let s = ServerStats::new();
        s.record_command(CommandClass::Load, Duration::from_micros(120), true);
        s.record_command(CommandClass::Load, Duration::from_micros(80), false);
        s.counters.add(ServerCounter::ConnectionsTotal, 1);
        s.counters.add(ServerCounter::ConnectionsLive, 1);
        s.counters.add(ServerCounter::SessionsCreated, 1);
        let text = s.render(3, &StoreStats::default());
        assert!(text.contains("sessions live=3 created=1"), "{text}");
        assert!(text.contains("connections live=1 total=1"), "{text}");
        assert!(text.contains("commands total=2 errors=1"), "{text}");
        assert!(text.contains("cmd.load count=2 errors=1"), "{text}");
        assert!(!text.contains("cmd.match"), "{text}");
    }

    #[test]
    fn render_exposes_the_error_budget_counters() {
        let s = ServerStats::new();
        s.counters.add(ServerCounter::FaultsInjected, 1);
        s.counters.add(ServerCounter::PanicsCaught, 2);
        s.counters.add(ServerCounter::SessionsQuarantined, 1);
        s.counters.add(ServerCounter::JournalRecords, 1);
        s.counters.add(ServerCounter::JournalTorn, 1);
        s.counters.add(ServerCounter::JournalErrors, 1);
        s.recovery(&crate::session::RecoveryReport {
            sessions: 2,
            replayed: 7,
            torn_tails: 1,
            ..Default::default()
        });
        let text = s.render(0, &StoreStats::default());
        assert!(
            text.contains("faults injected=1 panics_caught=2 quarantined=1"),
            "{text}"
        );
        assert!(
            text.contains("budget cancelled=0 deadline_exceeded=0 shed=0"),
            "{text}"
        );
        assert!(
            text.contains("journal records=1 torn=2 errors=1 recovered_sessions=2 replayed=7"),
            "{text}"
        );
        assert_eq!(s.counters.get(ServerCounter::PanicsCaught), 2);
    }
}
