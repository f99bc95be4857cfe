//! `iwb_bench` — the workbench fleet benchmark.
//!
//! ```sh
//! # one workload: human-readable report, then one JSON result line
//! cargo run --release --offline --manifest-path iwb_bench/Cargo.toml --bin iwb_bench -- \
//!     run --workload decide --seed 1 --seconds 30 --trace 0
//! # all three workloads; --trace 1 prints the per-layer metrics instead
//! # and writes .iwb_bench/trace-<workload>.json
//! iwb_bench run --seed 1 --trace 1
//! # CI smoke: toy sizes, fixed work
//! iwb_bench run --quick
//! # repeatability / regression verdicts over captured runs
//! iwb_bench compare a1.txt a2.txt … -- b1.txt b2.txt …
//! ```
//!
//! Each workload runs in a child process of its own (so `peak_rss_mb`
//! is that workload's, and no heap or thread outlives it); the parent
//! removes the child's store directory whatever happens.

use iwb_fleet_bench::fleet::{BACKENDS, ROUTERS};
use iwb_fleet_bench::workload::{run_fleet, Params, Workload, CLIENTS};
use iwb_fleet_bench::{compare, control, layers, report};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CHILD: &str = "__workload";

/// A child that outlives this is killed: a run must end within 180 s.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str = "usage:
  iwb_bench run [--workload curate|decide|failover] [--seed N] [--seconds S]
                [--trace 0|1] [--quick] [--out-dir DIR]
  iwb_bench compare A.txt... -- B.txt... [--benchmark BENCHMARK.json]";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
    /// The child's scratch directory (set by the parent).
    dir: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from(".iwb_bench"),
        dir: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                out.workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => out.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                out.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => out.quick = true,
            "--out-dir" => out.out_dir = value("--out-dir")?.into(),
            "--dir" => out.dir = Some(value("--dir")?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let code = match args.first().map(String::as_str) {
        Some("run") => with_args(rest, run),
        Some(CHILD) => with_args(rest, child),
        Some("compare") => compare_cmd(rest),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn with_args(args: &[String], f: fn(RunArgs) -> i32) -> i32 {
    match parse_run_args(args) {
        Ok(a) => f(a),
        Err(e) => {
            eprintln!("iwb_bench: {e}\n{USAGE}");
            2
        }
    }
}

/// Run one workload (or all three) in child processes.
fn run(a: RunArgs) -> i32 {
    let workloads = match a.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut code = 0;
    for w in workloads {
        let c = spawn_child(&a, w);
        if c != 0 {
            eprintln!("iwb_bench: workload {} exited with {c}", w.name());
            code = 1;
        }
    }
    code
}

fn spawn_child(a: &RunArgs, w: Workload) -> i32 {
    let dir = a
        .out_dir
        .join(format!("run-{}-{}", std::process::id(), w.name()));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("iwb_bench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD)
        .args(["--workload", w.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&a.out_dir)
        .arg("--dir")
        .arg(&dir)
        .stdin(Stdio::null());
    if a.quick {
        cmd.arg("--quick");
    }
    let code = match cmd.spawn() {
        Ok(mut child) => {
            let started = Instant::now();
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status.code().unwrap_or(1),
                    Ok(None) if started.elapsed() < WATCHDOG => {
                        std::thread::sleep(Duration::from_millis(50))
                    }
                    _ => {
                        eprintln!("iwb_bench: {} overran {WATCHDOG:?}; killed", w.name());
                        let _ = child.kill();
                        let _ = child.wait();
                        break 1;
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("iwb_bench: spawn workload process: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// One workload, in this process: fleet phase, control check, and the
/// layer pass when tracing.
fn child(a: RunArgs) -> i32 {
    let (Some(workload), Some(dir)) = (a.workload, a.dir.clone()) else {
        eprintln!("iwb_bench: internal: child needs --workload and --dir");
        return 2;
    };
    let p = Params {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        dir,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "iwb_bench: workload={} seed={} seconds={} trace={} quick={} clients={CLIENTS} \
         backends={BACKENDS} routers={ROUTERS} nproc={nproc}",
        workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        p.quick
    );
    if let Err(e) = std::fs::create_dir_all(&p.dir) {
        eprintln!("iwb_bench: scratch dir {}: {e}", p.dir.display());
        return 1;
    }
    let epoch = Instant::now();
    let run = match run_fleet(&p, epoch) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("iwb_bench: {e}");
            return 1;
        }
    };
    let mut errors = run.errors.clone();
    let checked = Instant::now();
    let mismatches = control::check(&run.drivers);
    let replies: usize = run
        .drivers
        .iter()
        .map(|d| d.ops.iter().filter(|o| o.ok).count())
        .sum();
    let sessions: usize = run.drivers.iter().map(|d| d.sessions.len()).sum();
    println!(
        "check: {replies} replies over {sessions} sessions against the in-process control: \
         {} mismatch(es) ({:.1} s)",
        mismatches.len(),
        checked.elapsed().as_secs_f64()
    );
    errors.extend(mismatches);

    let metrics = if p.trace {
        // Off the main thread, whose allocator arena behaves unlike the
        // server's worker threads on multi-MB replies.
        let pass = std::thread::scope(|s| {
            s.spawn(|| layers::layer_pass(&p, &run, epoch))
                .join()
                .unwrap_or_else(|_| Err("layer pass panicked".into()))
        });
        match pass {
            Ok(l) => {
                errors.extend(l.errors.iter().cloned());
                let path = a.out_dir.join(format!("trace-{}.json", workload.name()));
                match report::write_spans(&path, workload.name(), &l.spans) {
                    Ok(()) => println!(
                        "trace: {} spans -> {} ({} sessions, {} commands replayed)",
                        l.spans.len(),
                        path.display(),
                        l.sessions,
                        l.replayed
                    ),
                    Err(e) => errors.push(format!("write {}: {e}", path.display())),
                }
                report::per_layer(&l)
            }
            Err(e) => {
                errors.push(format!("layer pass: {e}"));
                Vec::new()
            }
        }
    } else {
        report::end_to_end(&p, &run, report::peak_rss_mb().unwrap_or(f64::NAN))
    };
    print!("{}", report::table(&metrics));
    if !p.trace {
        println!("details:");
        print!("{}", report::table(&report::details(&p, &run)));
    }
    for e in &errors {
        println!("check FAILED: {e}");
    }
    let (attempted, failed) = report::attempts(&run);
    println!(
        "{}",
        report::result_line(errors.is_empty(), attempted.max(1), failed, &metrics)
    );
    i32::from(!errors.is_empty())
}

fn compare_cmd(args: &[String]) -> i32 {
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let (mut a, mut b, mut after) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => after = true,
            "--benchmark" => match it.next() {
                Some(p) => manifest = p.into(),
                None => {
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            file if after => b.push(PathBuf::from(file)),
            file => a.push(PathBuf::from(file)),
        }
    }
    if a.is_empty() || b.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let load = |paths: &[PathBuf]| -> Result<Vec<compare::RunFile>, String> {
        paths
            .iter()
            .map(|p| {
                let text = read(p)?;
                compare::parse_run(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    let result = (|| -> Result<(String, bool), String> {
        let rules = compare::rules(&read(&manifest)?)?;
        Ok(compare::compare(&rules, &load(&a)?, &load(&b)?))
    })();
    match result {
        Ok((table, regressed)) => {
            print!("{table}");
            i32::from(regressed)
        }
        Err(e) => {
            eprintln!("iwb_bench compare: {e}");
            2
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}
