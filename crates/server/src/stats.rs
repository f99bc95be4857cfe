//! Server-side observability: per-command counters and fixed-bucket
//! latency histograms, rendered by the `stats` protocol command.
//!
//! Everything is lock-free (`AtomicU64` arrays): workers record into
//! the histograms on every command without contending with each other
//! or with the render path. Buckets are powers of two in microseconds,
//! so percentiles are upper bounds — accurate to a factor of two,
//! which is what capacity planning needs and costs nothing to keep.

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

/// All classes, in render order.
const ALL_CLASSES: [CommandClass; 11] = [
    CommandClass::Load,
    CommandClass::Match,
    CommandClass::Decide,
    CommandClass::Map,
    CommandClass::Generate,
    CommandClass::Show,
    CommandClass::Query,
    CommandClass::Export,
    CommandClass::Session,
    CommandClass::Admin,
    CommandClass::Other,
];

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

    fn name(self) -> &'static str {
        match self {
            CommandClass::Load => "load",
            CommandClass::Match => "match",
            CommandClass::Decide => "decide",
            CommandClass::Map => "map",
            CommandClass::Generate => "generate",
            CommandClass::Show => "show",
            CommandClass::Query => "query",
            CommandClass::Export => "export",
            CommandClass::Session => "session",
            CommandClass::Admin => "admin",
            CommandClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        ALL_CLASSES.iter().position(|&c| c == self).unwrap_or(10)
    }
}

#[derive(Debug, Default)]
struct ClassStats {
    count: AtomicU64,
    errors: AtomicU64,
    hist: Histogram,
}

/// The server's counters, gauges and histograms.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    connections_total: AtomicU64,
    connections_live: AtomicU64,
    sessions_created: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_evicted: AtomicU64,
    // Robustness / error-budget counters (see ISSUE: supervision +
    // durability layer): how often the supervision machinery fired.
    faults_injected: AtomicU64,
    panics_caught: AtomicU64,
    sessions_quarantined: AtomicU64,
    // Request-lifecycle counters: commands reaped by their budget and
    // connections shed by admission control.
    commands_cancelled: AtomicU64,
    commands_deadline_exceeded: AtomicU64,
    connections_shed: AtomicU64,
    journal_records: AtomicU64,
    journal_torn: AtomicU64,
    journal_errors: AtomicU64,
    sessions_recovered: AtomicU64,
    commands_replayed: AtomicU64,
    per_class: [ClassStats; 11],
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            started: Instant::now(),
            connections_total: AtomicU64::new(0),
            connections_live: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            sessions_quarantined: AtomicU64::new(0),
            commands_cancelled: AtomicU64::new(0),
            commands_deadline_exceeded: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            journal_torn: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            sessions_recovered: AtomicU64::new(0),
            commands_replayed: AtomicU64::new(0),
            per_class: std::array::from_fn(|_| ClassStats::default()),
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
        let c = &self.per_class[class.index()];
        c.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.hist.record(latency);
    }

    /// A connection was accepted.
    pub fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_live.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection ended.
    pub fn connection_closed(&self) {
        self.connections_live.fetch_sub(1, Ordering::Relaxed);
    }

    /// A session was created.
    pub fn session_created(&self) {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
    }

    /// A session was closed by request.
    pub fn session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Sessions were evicted for idleness.
    pub fn sessions_evicted(&self, n: u64) {
        self.sessions_evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// A configured fault fired (see [`iwb_store::fault::FaultPlan`]).
    pub fn fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// A command panicked and the panic was contained.
    pub fn panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// A session crossed the consecutive-panic threshold.
    pub fn session_quarantined(&self) {
        self.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// A command was cancelled mid-flight (`cancel <session>`).
    pub fn command_cancelled(&self) {
        self.commands_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// A command was reaped by its deadline.
    pub fn command_deadline_exceeded(&self) {
        self.commands_deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was shed by admission control (`RETRY-AFTER`).
    pub fn connection_shed(&self) {
        self.connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far.
    pub fn connections_shed_count(&self) -> u64 {
        self.connections_shed.load(Ordering::Relaxed)
    }

    /// Commands cancelled so far.
    pub fn commands_cancelled_count(&self) -> u64 {
        self.commands_cancelled.load(Ordering::Relaxed)
    }

    /// Commands reaped by a deadline so far.
    pub fn commands_deadline_exceeded_count(&self) -> u64 {
        self.commands_deadline_exceeded.load(Ordering::Relaxed)
    }

    /// A journal record was committed.
    pub fn journal_record(&self) {
        self.journal_records.fetch_add(1, Ordering::Relaxed);
    }

    /// A journal append was torn (fault injection).
    pub fn journal_torn(&self) {
        self.journal_torn.fetch_add(1, Ordering::Relaxed);
    }

    /// A journal operation failed with an I/O error.
    pub fn journal_error(&self) {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Startup recovery completed with this report.
    pub fn recovery(&self, report: &crate::session::RecoveryReport) {
        self.sessions_recovered
            .fetch_add(report.sessions as u64, Ordering::Relaxed);
        self.commands_replayed
            .fetch_add(report.replayed as u64, Ordering::Relaxed);
        self.journal_torn
            .fetch_add(report.torn_tails as u64, Ordering::Relaxed);
    }

    /// Panics contained so far.
    pub fn panics_caught_count(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// Total commands across classes.
    pub fn total_commands(&self) -> u64 {
        self.per_class
            .iter()
            .map(|c| c.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Total errored commands across classes.
    pub fn total_errors(&self) -> u64 {
        self.per_class
            .iter()
            .map(|c| c.errors.load(Ordering::Relaxed))
            .sum()
    }

    /// Render the `stats` response body. `live_sessions` is the
    /// registry's current gauge (the registry owns the map; stats only
    /// counts flows).
    pub fn render(&self, live_sessions: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("uptime_s={}\n", self.started.elapsed().as_secs()));
        out.push_str(&format!(
            "sessions live={} created={} evicted={} closed={}\n",
            live_sessions,
            self.sessions_created.load(Ordering::Relaxed),
            self.sessions_evicted.load(Ordering::Relaxed),
            self.sessions_closed.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "connections live={} total={}\n",
            self.connections_live.load(Ordering::Relaxed),
            self.connections_total.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "commands total={} errors={}\n",
            self.total_commands(),
            self.total_errors(),
        ));
        out.push_str(&format!(
            "faults injected={} panics_caught={} quarantined={}\n",
            self.faults_injected.load(Ordering::Relaxed),
            self.panics_caught.load(Ordering::Relaxed),
            self.sessions_quarantined.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "budget cancelled={} deadline_exceeded={} shed={}\n",
            self.commands_cancelled.load(Ordering::Relaxed),
            self.commands_deadline_exceeded.load(Ordering::Relaxed),
            self.connections_shed.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "journal records={} torn={} errors={} recovered_sessions={} replayed={}\n",
            self.journal_records.load(Ordering::Relaxed),
            self.journal_torn.load(Ordering::Relaxed),
            self.journal_errors.load(Ordering::Relaxed),
            self.sessions_recovered.load(Ordering::Relaxed),
            self.commands_replayed.load(Ordering::Relaxed),
        ));
        for class in ALL_CLASSES {
            let c = &self.per_class[class.index()];
            let n = c.count.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            out.push_str(&format!(
                "cmd {} count={} errors={} mean_us={} p50_us={} p95_us={} p99_us={}\n",
                class.name(),
                n,
                c.errors.load(Ordering::Relaxed),
                c.hist.mean_us(),
                c.hist.percentile_us(0.50),
                c.hist.percentile_us(0.95),
                c.hist.percentile_us(0.99),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn render_includes_gauges_and_only_used_classes() {
        let s = ServerStats::new();
        s.record_command(CommandClass::Load, Duration::from_micros(120), true);
        s.record_command(CommandClass::Load, Duration::from_micros(80), false);
        s.connection_opened();
        s.session_created();
        let text = s.render(3);
        assert!(text.contains("sessions live=3 created=1"));
        assert!(text.contains("connections live=1 total=1"));
        assert!(text.contains("commands total=2 errors=1"));
        assert!(text.contains("cmd load count=2 errors=1"));
        assert!(!text.contains("cmd match"), "{text}");
    }

    #[test]
    fn render_exposes_the_error_budget_counters() {
        let s = ServerStats::new();
        s.fault_injected();
        s.panic_caught();
        s.panic_caught();
        s.session_quarantined();
        s.journal_record();
        s.journal_torn();
        s.journal_error();
        s.recovery(&crate::session::RecoveryReport {
            sessions: 2,
            replayed: 7,
            torn_tails: 1,
            ..Default::default()
        });
        let text = s.render(0);
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
        assert_eq!(s.panics_caught_count(), 2);
    }
}
