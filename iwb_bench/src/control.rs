//! The correctness check: every acknowledged command of every session
//! is replayed, in order, on an in-process `Shell`, and each fleet reply
//! must be byte-identical (by hash) to the control's.
//!
//! That covers each workload's stated check: a curation replay's
//! proposal listings and `weights` (so per-round P/R/F1 and the final
//! weights) equal a `ShellTransport` replay bit for bit; decide's and
//! failover's final `export` equals a shell that ran the same
//! acknowledged stream (so no session or acked mutation was lost); and
//! every read equals the control — repeated reads included.

use crate::driver::{reply_hash, Driver, Op};
use iwb_core::shell::Shell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread;

/// Replay every session of every driver; returns the mismatches found.
///
/// Sessions of one driver over the same generated pair (curation
/// replays of one pooled case) issue the same deterministic command
/// stream, so they share a single control replay: each must match it
/// command for command and reply for reply, as a prefix (a replay the
/// end of the measured phase cut short).
pub fn check(drivers: &[Driver]) -> Vec<String> {
    let mut groups: BTreeMap<(usize, usize), Vec<(&Driver, usize)>> = BTreeMap::new();
    for d in drivers {
        for (s, session) in d.sessions.iter().enumerate() {
            let pair = Arc::as_ptr(&session.pair) as usize;
            groups.entry((d.index, pair)).or_default().push((d, s));
        }
    }
    let jobs: Vec<Vec<(&Driver, usize)>> = groups.into_values().collect();
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    thread::scope(|scope| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .skip(t)
                        .step_by(threads)
                        .flat_map(|group| check_group(group))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| {
                j.join()
                    .unwrap_or_else(|_| vec!["control thread panicked".into()])
            })
            .collect()
    })
}

fn acknowledged(d: &Driver, s: usize) -> Vec<&Op> {
    d.ops.iter().filter(|o| o.session == s && o.ok).collect()
}

fn check_group(group: &[(&Driver, usize)]) -> Vec<String> {
    let streams: Vec<Vec<&Op>> = group.iter().map(|&(d, s)| acknowledged(d, s)).collect();
    let longest = (0..streams.len())
        .max_by_key(|&i| streams[i].len())
        .expect("groups are never empty");
    let reference = control_hashes(&streams[longest]);
    let mut errors = Vec::new();
    for (k, stream) in streams.iter().enumerate() {
        let same_commands = stream
            .iter()
            .zip(&streams[longest])
            .all(|(a, b)| a.command == b.command && a.heredoc == b.heredoc);
        let result = if same_commands {
            compare(stream, &reference)
        } else {
            compare(stream, &control_hashes(stream))
        };
        if let Err(e) = result {
            let (d, s) = group[k];
            errors.push(format!("session {}: {e}", d.sessions[s].id));
        }
    }
    errors
}

fn compare(stream: &[&Op], control: &[u64]) -> Result<(), String> {
    match stream
        .iter()
        .zip(control)
        .position(|(op, &h)| op.reply_hash != h)
    {
        Some(i) => Err(format!(
            "reply {i} to {:?} differs from the in-process control",
            stream[i].command
        )),
        None => Ok(()),
    }
}

/// The control's reply hash for each command of `ops`, run in order on
/// a fresh shell.
fn control_hashes(ops: &[&Op]) -> Vec<u64> {
    let mut shell = Shell::new();
    // Reads are pure: their reply is cached until the next mutation.
    let mut reads: HashMap<&str, u64> = HashMap::new();
    ops.iter()
        .map(|op| {
            if op.mutates() {
                reads.clear();
                control_hash(&mut shell, op)
            } else {
                *reads
                    .entry(&op.command)
                    .or_insert_with(|| control_hash(&mut shell, op))
            }
        })
        .collect()
}

fn control_hash(shell: &mut Shell, op: &Op) -> u64 {
    match shell.execute(&op.command, op.heredoc.as_deref()) {
        Ok(body) => reply_hash(true, &through_fleet(&body)),
        Err(e) => reply_hash(false, &through_fleet(&e.to_string())),
    }
}

/// A reply body as a client of the fleet reads it: the backend frames
/// it line by line, the client side of the router rejoins the lines,
/// and the router frames the result again.
pub fn through_fleet(body: &str) -> String {
    let framed = |s: &str| s.lines().collect::<Vec<_>>().join("\n");
    framed(&framed(body))
}
