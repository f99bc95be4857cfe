//! Match-engine benchmark: sequential vs sharded-parallel wall time,
//! feature-cache hit rates, and a byte-identity check between the two
//! execution modes.
//!
//! The parallel path must be *exactly* the sequential path, sharded:
//! the merged matrix, every per-voter matrix, and the flooding
//! iteration count are compared bit-for-bit and any difference fails
//! the run (exit 1). Speedup is judged against a core-count-aware
//! floor — on a single-core host parallelism cannot win, so the floor
//! only guards against catastrophic overhead there.
//!
//! ```sh
//! cargo run --release -p iwb-bench --bin bench_match -- \
//!     --seed 42 --entities 40 --threads 8 --repeats 3 --out BENCH_match.json
//! ```
//!
//! `--quick` shrinks the workload for CI smoke runs; the speedup floor
//! is skipped there (a ~50 ms pair is too small to amortise the worker
//! pool), but byte-identity and the `--strict` cache gate still apply.

use iwb_eval::harness::standard_pairs;
use iwb_harmony::{HarmonyEngine, MatchConfig, MatchResult};
use iwb_registry::perturb::PerturbConfig;
use iwb_registry::SchemaPair;
use std::collections::HashMap;
use std::time::Instant;

struct Args {
    seed: u64,
    /// Entities per generated model (each brings ~5 attributes, so the
    /// schema element count is roughly 6x this).
    entities: usize,
    threads: usize,
    repeats: usize,
    quick: bool,
    /// Also fail (exit 1) when the warm run serves 0% of text features
    /// from cache — the regression `BENCH_match.json` once shipped with.
    strict: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 42,
            entities: 40,
            threads: 8,
            repeats: 3,
            quick: false,
            strict: false,
            out: "BENCH_match.json".to_owned(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_match [--seed N] [--entities N] [--threads N] \
         [--repeats N] [--quick] [--strict] [--out PATH]"
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
            "--threads" => out.threads = value().parse().unwrap_or_else(|_| usage()),
            "--repeats" => out.repeats = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => out.quick = true,
            "--strict" => out.strict = true,
            "--out" => out.out = value(),
            _ => usage(),
        }
    }
    if out.quick {
        out.entities = out.entities.min(12);
        out.repeats = out.repeats.min(2);
    }
    if out.entities == 0 || out.repeats == 0 || out.threads == 0 {
        usage();
    }
    out
}

/// Time `repeats` engine runs, returning the fastest wall time in
/// milliseconds and the last result.
fn time_runs(engine: &mut HarmonyEngine, pair: &SchemaPair, repeats: usize) -> (f64, MatchResult) {
    let locked = HashMap::new();
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let result = engine.run(&pair.source, &pair.target, &locked);
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
        last = Some(result);
    }
    (best, last.expect("repeats >= 1"))
}

/// Bit-exact equality of two match results: merged matrix, per-voter
/// matrices, and flooding iteration count.
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

/// The minimum acceptable sequential/parallel speedup for this host.
/// One core cannot speed anything up, so only guard against pathology;
/// with real cores, demand a real win.
fn speedup_floor(cores: usize, threads: usize) -> f64 {
    match cores.min(threads) {
        1 => 0.25,
        2..=3 => 1.0,
        4..=7 => 1.5,
        _ => 3.0,
    }
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Workers beyond the physical core count cannot add parallelism —
    // report what the host can actually deliver, not what was asked
    // for, so the speedup floor reads against the honest number.
    let threads_effective = args.threads.min(cores);

    let pair = standard_pairs(args.seed, 1, args.entities, &PerturbConfig::mild(args.seed))
        .into_iter()
        .next()
        .expect("one pair");
    let (rows, cols) = (pair.source.len(), pair.target.len());
    println!(
        "bench_match: {rows}x{cols} pair (seed {}), {} thread(s) requested / {threads_effective} \
         effective on {cores} core(s), {} repeat(s)",
        args.seed, args.threads, args.repeats
    );

    // Sequential baseline: one thread, cold features every run.
    let mut seq_engine = HarmonyEngine::default();
    seq_engine.set_match_config(MatchConfig {
        threads: 1,
        cache: false,
        ..MatchConfig::default()
    });
    let (seq_ms, seq_result) = time_runs(&mut seq_engine, &pair, args.repeats);

    // Parallel: sharded rows, still cold features every run.
    let mut par_engine = HarmonyEngine::default();
    par_engine.set_match_config(MatchConfig {
        threads: args.threads,
        cache: false,
        ..MatchConfig::default()
    });
    let (par_ms, par_result) = time_runs(&mut par_engine, &pair, args.repeats);

    // Cached: sequential with the feature cache on; first run pays the
    // build, the timed repeats hit the cache.
    let mut cached_engine = HarmonyEngine::default();
    cached_engine.set_match_config(MatchConfig {
        threads: 1,
        cache: true,
        ..MatchConfig::default()
    });
    let _ = cached_engine.run(&pair.source, &pair.target, &HashMap::new());
    let (cached_ms, cached_result) = time_runs(&mut cached_engine, &pair, args.repeats);
    let stats = cached_engine.cache_stats();

    let par_identical = byte_identical(&seq_result, &par_result);
    let cached_identical = byte_identical(&seq_result, &cached_result);
    let identical = par_identical && cached_identical;
    let speedup = seq_ms / par_ms;
    let cache_speedup = seq_ms / cached_ms;
    let floor = speedup_floor(cores, args.threads);

    println!("  sequential        {seq_ms:9.2} ms");
    println!("  parallel (x{:<3})   {par_ms:9.2} ms   speedup {speedup:.2}x (floor {floor:.2}x at {threads_effective} effective thread(s))", args.threads);
    println!("  feature-cached    {cached_ms:9.2} ms   speedup {cache_speedup:.2}x");
    println!(
        "  cache hit rates   context {:.0}%  text {:.0}%",
        stats.context_hit_rate() * 100.0,
        stats.text_hit_rate() * 100.0
    );
    println!(
        "  byte-identical    parallel {}  cached {}",
        if par_identical { "yes" } else { "NO" },
        if cached_identical { "yes" } else { "NO" }
    );

    let json = format!(
        "{{\n  \"seed\": {},\n  \"rows\": {rows},\n  \"cols\": {cols},\n  \
         \"threads_requested\": {},\n  \"threads_effective\": {threads_effective},\n  \
         \"cores\": {cores},\n  \"repeats\": {},\n  \"quick\": {},\n  \
         \"sequential_ms\": {seq_ms:.3},\n  \"parallel_ms\": {par_ms:.3},\n  \
         \"cached_ms\": {cached_ms:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"cache_speedup\": {cache_speedup:.3},\n  \"speedup_floor\": {floor:.3},\n  \
         \"context_hit_rate\": {:.3},\n  \"text_hit_rate\": {:.3},\n  \
         \"byte_identical\": {identical}\n}}\n",
        args.seed,
        args.threads,
        args.repeats,
        args.quick,
        stats.context_hit_rate(),
        stats.text_hit_rate(),
    );
    std::fs::write(&args.out, &json).expect("write report");
    println!("  report written to {}", args.out);

    if !identical {
        eprintln!("bench_match: FAILED — parallel/cached result differs from sequential");
        std::process::exit(1);
    }
    if !args.quick && speedup < floor {
        eprintln!("bench_match: FAILED — speedup {speedup:.2}x below floor {floor:.2}x");
        std::process::exit(1);
    }
    if args.strict && stats.text_hits == 0 {
        eprintln!(
            "bench_match: FAILED (--strict) — warm runs served 0% of text features from cache"
        );
        std::process::exit(1);
    }
    println!("bench_match: ok");
}
