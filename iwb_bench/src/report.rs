//! End-to-end metrics, the human-readable report, the result line and
//! the span file.

use crate::driver::{Op, Phase};
use crate::json;
use crate::layers::{LayerReport, Span};
use crate::stats::Dist;
use crate::workload::{FleetRun, Params, Workload};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for computed values).
    pub samples: usize,
}

fn metric(name: &str, unit: &'static str, value: Option<f64>, samples: usize) -> Option<Metric> {
    value.map(|value| Metric {
        name: name.to_owned(),
        unit,
        value,
        samples,
    })
}

fn measured(run: &FleetRun) -> impl Iterator<Item = &Op> {
    run.drivers
        .iter()
        .flat_map(|d| d.ops.iter())
        .filter(|o| o.phase == Phase::Measured)
}

fn rtts<'a>(ops: impl Iterator<Item = &'a Op>) -> Dist {
    Dist::new(ops.filter(|o| o.ok).map(|o| o.rtt_ms).collect())
}

/// Commands attempted and failed in the measured phase.
pub fn attempts(run: &FleetRun) -> (usize, usize) {
    let attempted = measured(run).count();
    let failed = run
        .drivers
        .iter()
        .flat_map(|d| d.ops.iter())
        .filter(|o| !o.ok)
        .count();
    (attempted, failed)
}

/// The end-to-end metrics of a run (tracing off), in manifest order.
/// The median of every command is left to [`details`], with the tail
/// percentiles: it falls between the modes of a workload's command mix
/// (curate: decisions, listings, matches), so it moves with the mix
/// and with host noise more than the key operation's median does; a
/// p99 is a handful of commands that met a busy moment of the host.
pub fn end_to_end(p: &Params, run: &FleetRun, peak_rss_mb: f64) -> Vec<Metric> {
    let all = rtts(measured(run));
    let key = match p.workload {
        Workload::Failover => Dist::new(
            run.drivers
                .iter()
                .flat_map(|d| d.failovers.clone())
                .collect(),
        ),
        w => rtts(measured(run).filter(|o| w.is_key(o.verb()))),
    };
    // Closed-loop throughput: each client's replies over its own active
    // time, summed — a client that finishes first does not dilute it.
    let throughput: f64 = run
        .drivers
        .iter()
        .zip(&run.active_s)
        .map(|(d, &secs)| {
            let n = d
                .ops
                .iter()
                .filter(|o| o.ok && o.phase == Phase::Measured)
                .count();
            n as f64 / secs.max(1e-9)
        })
        .sum();
    let setup = Dist::new(run.setup_s.clone());
    [
        metric("setup_s", "s", setup.median(), setup.len()),
        metric("throughput_cmd_s", "cmd/s", Some(throughput), all.len()),
        metric("key_p50_ms", "ms", key.median(), key.len()),
        metric("peak_rss_mb", "MB", Some(peak_rss_mb), 1),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Workload-specific figures printed for people (not in the result
/// line: every result-line metric must exist on every workload).
pub fn details(p: &Params, run: &FleetRun) -> Vec<Metric> {
    let all = rtts(measured(run));
    let reads = rtts(measured(run).filter(|o| !o.mutates()));
    let mutations = rtts(measured(run).filter(|o| o.mutates()));
    let mut out = vec![
        metric("p50_ms", "ms", all.median(), all.len()),
        metric("p90_ms", "ms", all.pct(0.9), all.len()),
        metric("p99_ms", "ms", all.pct(0.99), all.len()),
        metric("read_p50_ms", "ms", reads.median(), reads.len()),
        metric("read_p99_ms", "ms", reads.pct(0.99), reads.len()),
        metric("mutate_p50_ms", "ms", mutations.median(), mutations.len()),
        metric("mutate_p99_ms", "ms", mutations.pct(0.99), mutations.len()),
    ];
    if p.workload == Workload::Curate {
        let matches = rtts(measured(run).filter(|o| o.verb() == "match"));
        let rounds = Dist::new(run.drivers.iter().flat_map(|d| rounds(&d.ops)).collect());
        out.push(metric(
            "match_p90_ms",
            "ms",
            matches.pct(0.9),
            matches.len(),
        ));
        out.push(metric("round_p50_ms", "ms", rounds.median(), rounds.len()));
        out.push(metric("round_p90_ms", "ms", rounds.pct(0.9), rounds.len()));
    }
    if p.workload == Workload::Failover {
        out.push(metric("kill_cycles", "count", Some(run.kills as f64), 1));
        out.push(metric(
            "router_failovers",
            "count",
            Some(run.router.failovers as f64),
            1,
        ));
        out.push(metric(
            "router_promotions",
            "count",
            Some(run.router.promotions as f64),
            1,
        ));
    }
    out.push(metric(
        "store_mb",
        "MB",
        Some(run.store_bytes as f64 / 1e6),
        1,
    ));
    for (when, h) in ["before", "after"].iter().zip(&run.host) {
        out.push(metric(
            &format!("host_spin_us_{when}"),
            "us",
            Some(h.spin_us),
            1,
        ));
        out.push(metric(
            &format!("host_pingpong_us_{when}"),
            "us",
            Some(h.pingpong_us),
            1,
        ));
    }
    let mut verbs: Vec<&str> = measured(run).map(Op::verb).collect();
    verbs.sort_unstable();
    verbs.dedup();
    for v in verbs {
        let d = rtts(measured(run).filter(|o| o.verb() == v));
        out.push(metric(&format!("{v}_p50_ms"), "ms", d.median(), d.len()));
        out.push(metric(&format!("{v}_max_ms"), "ms", d.max(), d.len()));
    }
    out.into_iter().flatten().collect()
}

/// Curation rounds (undecided proposals → decisions → match → weights
/// → scored proposals), in ms, from one client's log.
fn rounds(ops: &[Op]) -> Vec<f64> {
    let mut open: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let mut out = Vec::new();
    for op in ops.iter().filter(|o| o.phase == Phase::Measured && o.ok) {
        if op.verb() != "proposals" {
            continue;
        }
        if op.command.ends_with(" undecided") {
            open.insert(op.session, op.start_us);
        } else if let Some(start) = open.remove(&op.session) {
            out.push((op.start_us + op.rtt_ms * 1e3 - start) / 1e3);
        }
    }
    out
}

/// The unit a per-layer metric's name implies.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") || name.contains("_us.") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.ends_with("_share") || name.ends_with("_rate") {
        "fraction"
    } else {
        "count"
    }
}

pub fn per_layer(layers: &LayerReport) -> Vec<Metric> {
    layers
        .metrics
        .iter()
        .map(|(name, value, samples)| Metric {
            name: name.clone(),
            unit: layer_unit(name),
            value: *value,
            samples: *samples,
        })
        .collect()
}

/// Aligned `name value unit (n=…)` lines.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<36} {:>14.4} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The final stdout line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Write the spans of a traced run as JSON.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": {}, \"time_unit\": \"us\", \"spans\": [",
        json::string(workload)
    )?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {}, \"request\": {}}}{}",
            json::string(&s.name),
            json::number(s.start_us),
            json::number(s.end_us),
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            json::string(&s.request),
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// This process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}
