//! CI smoke: `iwb_bench run --quick` (entities ≤ 4, one replay per
//! client, about 200 commands per workload, one kill cycle) with tracing
//! off and on. Every metric `BENCHMARK.json` declares is printed with a
//! finite value for every workload, and every correctness check passes.

use iwb_fleet_bench::json::Json;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(m: &Json, section: &str) -> Vec<String> {
    m.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Each workload's report: (workload, result line).
fn results(stdout: &str) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    let mut workload = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("iwb_bench: workload=") {
            workload = rest.split_whitespace().next().map(str::to_owned);
        } else if line.starts_with('{') {
            let w = workload
                .take()
                .expect("result line after a workload header");
            out.push((w, Json::parse(line).expect("result line is JSON")));
        }
    }
    out
}

#[test]
fn quick_runs_print_every_declared_metric_and_pass_every_check() {
    let m = manifest();
    let workloads = names(&m, "workloads");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("iwb_bench_quick");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_iwb_bench"))
            .args([
                "run",
                "--quick",
                "--seed",
                "3",
                "--trace",
                trace,
                "--out-dir",
            ])
            .arg(&out_dir)
            .output()
            .expect("run iwb_bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "trace {trace}: exit {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let results = results(&stdout);
        for w in &workloads {
            let (_, r) = results
                .iter()
                .find(|(name, _)| name == w)
                .unwrap_or_else(|| panic!("no result for {w} (trace {trace})\n{stdout}"));
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}\n{stdout}"
            );
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let metrics = r.get("metrics").expect("metrics");
            for name in names(&m, section) {
                let value = metrics
                    .get(&name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{w} (trace {trace}): {name} missing or not finite\n{stdout}"
                );
            }
        }
        if trace == "1" {
            for w in &workloads {
                assert!(
                    out_dir.join(format!("trace-{w}.json")).exists(),
                    "span file for {w}"
                );
            }
        }
    }
}
