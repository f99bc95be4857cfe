//! Persistent-store benchmark: image write/load throughput, warm
//! (image restore + journal suffix) vs cold (journal-only replay)
//! recovery latency, and the incremental re-match speedup after a user
//! decision.
//!
//! Three gates guard the persistence contract:
//!
//! * the incremental re-match must be **byte-identical** to a
//!   from-scratch run with the same locked cells (always enforced);
//! * the image restore must beat cold journal replay (skipped under
//!   `--quick`, where the workload is too small to amortise file IO);
//! * the incremental re-match must be faster than from-scratch
//!   (skipped under `--quick` for the same reason).
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_store -- \
//!     --seed 42 --entities 30 --scale 0.05 --repeats 3 --out BENCH_store.json
//! ```

use iwb_core::persist;
use iwb_core::shell::Shell;
use iwb_eval::harness::standard_pairs;
use iwb_harmony::{Confidence, HarmonyEngine, MatchConfig, MatchResult};
use iwb_loaders::export::to_er_text;
use iwb_registry::perturb::PerturbConfig;
use iwb_registry::SchemaPair;
use iwb_server::{JournalConfig, RecoveryReport, ServerStats, SessionRegistry, StoreConfig};
use iwb_store::fault::FaultPlan;
use iwb_store::{CommandRecord, SessionStore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    /// Entities per generated model (~6x elements per side).
    entities: usize,
    /// Registry scale for the blocking-index command.
    scale: f64,
    repeats: usize,
    quick: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 42,
            entities: 30,
            scale: 0.05,
            repeats: 3,
            quick: false,
            out: "BENCH_store.json".to_owned(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_store [--seed N] [--entities N] [--scale F] [--repeats N] \
         [--quick] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--entities" => out.entities = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => out.scale = value().parse().unwrap_or_else(|_| usage()),
            "--repeats" => out.repeats = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => out.quick = true,
            "--out" => out.out = value(),
            _ => usage(),
        }
    }
    if out.quick {
        out.entities = out.entities.min(10);
        out.scale = out.scale.min(0.01);
        out.repeats = out.repeats.min(2);
    }
    if out.entities == 0 || out.repeats == 0 || !out.scale.is_finite() || out.scale <= 0.0 {
        usage();
    }
    out
}

/// The benched session: two schema loads, a match, a blocking index.
fn session_commands(args: &Args, pair: &SchemaPair) -> Vec<CommandRecord> {
    vec![
        CommandRecord {
            command: "load er a".to_owned(),
            heredoc: Some(to_er_text(&pair.source)),
        },
        CommandRecord {
            command: "load er b".to_owned(),
            heredoc: Some(to_er_text(&pair.target)),
        },
        CommandRecord {
            command: "match a b".to_owned(),
            heredoc: None,
        },
        CommandRecord {
            command: format!("index-registry seed {} scale {}", args.seed, args.scale),
            heredoc: None,
        },
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iwb-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drive the command sequence through a session registry, persisting
/// journals under `dir` (and an image too when `store` is set).
fn populate(dir: &Path, store: bool, commands: &[CommandRecord]) {
    let stats = ServerStats::new();
    let mut reg = SessionRegistry::new(4, Duration::from_secs(3600)).with_journal(JournalConfig {
        fsync: false,
        ..JournalConfig::new(dir)
    });
    if store {
        reg = reg.with_store(StoreConfig {
            dir: dir.to_path_buf(),
            fsync: false,
            snapshot_every: 0, // one image, flushed below
        });
    }
    let session = reg.create(Some("bench")).expect("create session");
    let none = FaultPlan::none();
    for record in commands {
        let out = session.execute_command(
            &record.command,
            record.heredoc.as_deref(),
            &none,
            3,
            &stats,
            None,
        );
        assert!(
            matches!(out, iwb_server::ExecOutcome::Output(_)),
            "{}: {out:?}",
            record.command
        );
    }
    drop(session);
    if store {
        assert_eq!(reg.flush_snapshots(), 1, "image flushed");
    }
}

/// Time one recovery of the files under `dir`, returning the report.
fn recover_once(dir: &Path, store: bool) -> (f64, RecoveryReport) {
    let stats = ServerStats::new();
    let mut reg = SessionRegistry::new(4, Duration::from_secs(3600)).with_journal(JournalConfig {
        fsync: false,
        ..JournalConfig::new(dir)
    });
    if store {
        reg = reg.with_store(StoreConfig {
            dir: dir.to_path_buf(),
            fsync: false,
            snapshot_every: 0,
        });
    }
    let t = Instant::now();
    let report = reg.recover(&stats).expect("recover");
    (t.elapsed().as_secs_f64() * 1000.0, report)
}

/// Bit-exact equality of two match results (merged + per-voter + flooding).
fn byte_identical(a: &MatchResult, b: &MatchResult) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    a.flooding_iterations == b.flooding_iterations
        && a.matrix.src_ids() == b.matrix.src_ids()
        && a.matrix.tgt_ids() == b.matrix.tgt_ids()
        && bits(a.matrix.scores()) == bits(b.matrix.scores())
        && a.per_voter.len() == b.per_voter.len()
        && a.per_voter
            .iter()
            .zip(&b.per_voter)
            .all(|((an, am), (bn, bm))| an == bn && bits(am.scores()) == bits(bm.scores()))
}

fn main() {
    let args = parse_args();
    let pair = standard_pairs(args.seed, 1, args.entities, &PerturbConfig::mild(args.seed))
        .into_iter()
        .next()
        .expect("one pair");
    let (rows, cols) = (pair.source.len(), pair.target.len());
    let commands = session_commands(&args, &pair);
    println!(
        "bench_store: {rows}x{cols} pair (seed {}), registry scale {}, {} repeat(s)",
        args.seed, args.scale, args.repeats
    );

    // ---- image write / load throughput ----
    let script: String = commands
        .iter()
        .map(|r| match &r.heredoc {
            Some(body) => format!("{} <<EOF\n{body}EOF\n", r.command),
            None => format!("{}\n", r.command),
        })
        .collect();
    let mut shell = Shell::new();
    let outcome = shell.run_on(&script);
    assert_eq!(outcome.errors, 0, "{}", outcome.transcript);
    let snapshot =
        persist::capture(&shell).into_snapshot("bench", commands.len() as u64, commands.clone());
    let dir = fresh_dir("throughput");
    let mut store = SessionStore::new(&dir, "bench");
    store.fsync = false;
    let none = FaultPlan::none();
    let (mut write_ms, mut load_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..args.repeats {
        let t = Instant::now();
        store.commit(&snapshot, &none).expect("commit");
        write_ms = write_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        let loaded = store.load().expect("load").expect("snapshot present");
        load_ms = load_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(loaded.watermark, snapshot.watermark);
    }
    let bytes = std::fs::metadata(store.path())
        .expect("snapshot file")
        .len();
    let mb = bytes as f64 / (1024.0 * 1024.0);
    let (write_mb_s, load_mb_s) = (mb / (write_ms / 1000.0), mb / (load_ms / 1000.0));
    let _ = std::fs::remove_dir_all(&dir);
    println!("  image             {bytes:9} bytes");
    println!("  image write       {write_ms:9.2} ms   ({write_mb_s:.1} MB/s)");
    println!("  image load        {load_ms:9.2} ms   ({load_mb_s:.1} MB/s)");

    // ---- image restore vs cold journal replay ----
    let warm_dir = fresh_dir("warm");
    let cold_dir = fresh_dir("cold");
    populate(&warm_dir, true, &commands);
    populate(&cold_dir, false, &commands);
    let (mut warm_ms, mut cold_ms) = (f64::INFINITY, f64::INFINITY);
    let mut warm_sessions = 0;
    for _ in 0..args.repeats {
        let (ms, report) = recover_once(&warm_dir, true);
        warm_ms = warm_ms.min(ms);
        warm_sessions = report.images;
        assert_eq!(report.replay_errors, 0, "{report:?}");
        let (ms, report) = recover_once(&cold_dir, false);
        cold_ms = cold_ms.min(ms);
        assert_eq!(
            (report.sessions, report.replay_errors),
            (1, 0),
            "{report:?}"
        );
    }
    let recovery_speedup = cold_ms / warm_ms;
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
    println!("  cold replay       {cold_ms:9.2} ms");
    println!("  image restore     {warm_ms:9.2} ms   speedup {recovery_speedup:.2}x");

    // ---- incremental re-match vs from-scratch ----
    let probe = {
        let mut engine = HarmonyEngine::default();
        engine.run(&pair.source, &pair.target, &HashMap::new())
    };
    let src = probe.matrix.src_ids().to_vec();
    let tgt = probe.matrix.tgt_ids().to_vec();
    let mut locked = HashMap::new();
    locked.insert((src[1], tgt[1]), Confidence::ACCEPT);
    locked.insert((src[2], tgt[0]), Confidence::REJECT);
    let (mut scratch_ms, mut incr_ms) = (f64::INFINITY, f64::INFINITY);
    let mut scratch = None;
    let mut incremental = None;
    for _ in 0..args.repeats {
        let mut engine = HarmonyEngine::default();
        engine.set_match_config(MatchConfig {
            cache: false,
            ..MatchConfig::default()
        });
        let t = Instant::now();
        scratch = Some(engine.run(&pair.source, &pair.target, &locked));
        scratch_ms = scratch_ms.min(t.elapsed().as_secs_f64() * 1000.0);

        let mut engine = HarmonyEngine::default();
        engine.set_match_config(MatchConfig {
            cache: false,
            ..MatchConfig::default()
        });
        engine.run(&pair.source, &pair.target, &HashMap::new());
        let t = Instant::now();
        incremental = Some(engine.run(&pair.source, &pair.target, &locked));
        incr_ms = incr_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        assert!(
            engine.last_run().incremental,
            "re-run took the incremental path"
        );
        assert_eq!(engine.last_run().dirty_rows, 2);
    }
    let identical = byte_identical(&scratch.expect("ran"), &incremental.expect("ran"));
    let incremental_speedup = scratch_ms / incr_ms;
    println!("  from-scratch      {scratch_ms:9.2} ms");
    println!("  incremental       {incr_ms:9.2} ms   speedup {incremental_speedup:.2}x");
    println!(
        "  byte-identical    {}",
        if identical { "yes" } else { "NO" }
    );

    let json = format!(
        "{{\n  \"seed\": {},\n  \"rows\": {rows},\n  \"cols\": {cols},\n  \
         \"scale\": {},\n  \"repeats\": {},\n  \"quick\": {},\n  \
         \"snapshot_bytes\": {bytes},\n  \"snapshot_write_ms\": {write_ms:.3},\n  \
         \"snapshot_load_ms\": {load_ms:.3},\n  \"write_mb_s\": {write_mb_s:.1},\n  \
         \"load_mb_s\": {load_mb_s:.1},\n  \"cold_replay_ms\": {cold_ms:.3},\n  \
         \"warm_recover_ms\": {warm_ms:.3},\n  \"recovery_speedup\": {recovery_speedup:.3},\n  \
         \"warm_sessions\": {warm_sessions},\n  \"scratch_ms\": {scratch_ms:.3},\n  \
         \"incremental_ms\": {incr_ms:.3},\n  \
         \"incremental_speedup\": {incremental_speedup:.3},\n  \
         \"incremental_identical\": {identical}\n}}\n",
        args.seed, args.scale, args.repeats, args.quick,
    );
    std::fs::write(&args.out, &json).expect("write report");
    println!("  report written to {}", args.out);

    if !identical {
        eprintln!("bench_store: FAILED — incremental re-match differs from from-scratch");
        std::process::exit(1);
    }
    if warm_sessions != 1 {
        eprintln!("bench_store: FAILED — recovery did not restore the session from its image");
        std::process::exit(1);
    }
    if !args.quick && recovery_speedup <= 1.0 {
        eprintln!(
            "bench_store: FAILED — image restore {warm_ms:.2} ms did not beat cold replay {cold_ms:.2} ms"
        );
        std::process::exit(1);
    }
    if !args.quick && incremental_speedup <= 1.0 {
        eprintln!(
            "bench_store: FAILED — incremental {incr_ms:.2} ms did not beat from-scratch {scratch_ms:.2} ms"
        );
        std::process::exit(1);
    }
    println!("bench_store: ok");
}
