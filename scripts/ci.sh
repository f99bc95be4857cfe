#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline — the workspace has no
# external crates (see vendor/ and crates/rng), so a network-less
# builder is the default, not a degraded mode.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "== cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== iwb_bench compiles (a package outside the workspace that imports iwb-server and iwb-router)"
cargo check --offline --locked --all-targets --manifest-path iwb_bench/Cargo.toml \
    --target-dir target/iwb_bench

echo "== chaos smoke (fault-injection integration tests, fixed seeds)"
cargo test -q --offline -p iwb-server --test chaos

echo "== cancellation/deadline chaos (hung + stalled commands reaped, sessions survive)"
cargo test -q --offline -p iwb-server --test chaos -- \
    stalled_match_is_reaped_by_the_deadline_and_the_session_survives \
    cancel_from_another_connection_interrupts_a_hung_command \
    connections_past_the_pending_bound_are_shed_with_retry_after

echo "== blocking accept loop (fresh connections cost no accept tick, every stop path wakes accept, a shed reply survives the client's write)"
cargo test -q --offline -p iwb-router --test protocol -- \
    opening_a_connection_costs_no_accept_tick \
    every_way_of_stopping_wakes_the_blocked_accept
cargo test -q --offline -p iwb-server --lib -- \
    client::tests::a_reply_sent_before_the_server_closed_survives_the_write

echo "== loader adversarial corpus (malformed input never panics)"
cargo test -q --offline -p iwb-loaders --test adversarial

echo "== determinism suite (byte-identical engine across threads/cache)"
cargo test -q --offline -p iwb-harmony --test determinism

echo "== blocking property suite (thread/order invariance, recall monotonicity)"
cargo test -q --offline -p iwb-blocking --test properties

echo "== registry Table-1 calibration suite (counts, doc rates, seeded determinism)"
cargo test -q --offline -p iwb-registry --test table1_calibration

echo "== bench_match smoke (byte-identity + warm-cache text hits, quick workload)"
cargo run -q --release --offline -p iwb-bench --bin bench_match -- \
    --quick --strict --out target/BENCH_match_quick.json
grep -q '"byte_identical": true' target/BENCH_match_quick.json

echo "== bench_registry smoke (blocking recall vs exhaustive engine, quick workload)"
cargo run -q --release --offline -p iwb-bench --bin bench_registry -- \
    --quick --out target/BENCH_registry_quick.json
grep -q '"recall_at_default_k": 1.000' target/BENCH_registry_quick.json

echo "== bench_server cancel-storm smoke (cancel latency, shed rate, zero leakage)"
cargo run -q --release --offline -p iwb-bench --bin bench_server -- \
    --cancel-storm --sessions 4 --out target/BENCH_server_storm.json
grep -q '"session_leaks": 0' target/BENCH_server_storm.json

echo "== store suite (snapshot torn/bitflip/stale detection, roundtrips, rendezvous ranking)"
cargo test -q --offline -p iwb-store

echo "== store persistence suite (image restore, corrupt-image fallback, a torn image keeps the previous one, bad-journal refusal, truncated journals count the whole history, replica images and per-replica locks, the standby image placed on promotion or the standby kept, eviction images with the session map unlocked, binary frames only for repl range on a replicating backend, image + suffix equals replay from record 0)"
cargo test -q --offline -p iwb-server --lib -- \
    store_sessions_reopen_warm_after_restart \
    evicted_store_sessions_are_persisted_not_forgotten \
    closing_a_store_session_deletes_snapshot_and_journal \
    corrupt_snapshots_fall_back_to_journal_replay \
    a_corrupt_image_after_truncation_keeps_the_previous_image \
    an_orphaned_snapshot_alone_recovers_the_session \
    a_bad_journal_beside_a_good_snapshot_is_refused \
    a_truncated_journal_keeps_counting_the_whole_history \
    promotion_restores_the_standby_image_and_adopts_it \
    a_range_installs_a_newer_image_and_truncates_the_replica \
    a_torn_or_bit_flipped_frame_changes_nothing \
    an_append_to_one_replica_never_waits_for_another \
    promotion_moves_the_standby_image_into_a_separate_store_dir \
    a_standby_image_that_cannot_be_placed_keeps_the_standby \
    eviction_ships_its_image_with_the_session_map_unlocked \
    only_repl_range_takes_a_binary_frame \
    a_backend_that_does_not_replicate_refuses_binary_frames
cargo test -q --offline -p iwb-eval --test image_restore

echo "== incremental re-match determinism (byte-identical splice across threads/cache; learned re-matches re-score only the voters that read learned state, stay staged and bit-identical over 5 feedback rounds on every eval domain, and retry identically after an abort)"
cargo test -q --offline -p iwb-harmony --test determinism -- \
    incremental_rematch_is_byte_identical_to_from_scratch \
    retracting_a_decision_incrementally_is_identical_too \
    a_learned_rematch_rescores_only_the_voters_that_read_learned_state \
    learned_rematches_are_staged_and_identical_to_full_runs \
    aborted_runs_leave_the_engine_reusable_and_identical \
    a_thesaurus_or_sample_change_rescores_every_voter

echo "== bench_store smoke (image throughput, image restore, incremental identity)"
cargo run -q --release --offline -p iwb-bench --bin bench_store -- \
    --quick --out target/BENCH_store_quick.json
grep -q '"incremental_identical": true' target/BENCH_store_quick.json

echo "== router unit suite (re-discovery rows, successor-first promotion walk)"
cargo test -q --offline -p iwb-router --lib

echo "== fleet chaos suite (kill mid-command + mid-curation, split routing, probe quarantine, migration, stale-replica refusal, promotion floor, route-miss promotion only when every backend answers, shedding owner retried not failed over, a closed session is not promoted back, successor-first walk, drain + re-discovery, warm promotion from a shipped image, torn/bit-flipped shipped images refused, image + suffix below the floor still stale, a sink restarted mid-image keeps its image, the new successor holds an image when promote answers)"
cargo test -q --offline -p iwb-router --test fleet_chaos

echo "== sequence-guard + migration handshake suite (duplicate acks, gaps, release/promote)"
cargo test -q --offline -p iwb-server --lib -- \
    sequence_guard_acks_duplicates_and_rejects_gaps \
    release_then_promote_restores_local_evidence \
    dispatch_sequences_release_and_repl_promote_a_session \
    dispatch_answers_probes_without_a_session

echo "== streamed-replication suite (torn replica tail heals on restart, lag visible + drains)"
cargo test -q --offline -p iwb-server --test repl_stream

echo "== bench_server fleet smoke (replicated failover, zero session loss, bounded lag)"
cargo run -q --release --offline -p iwb-bench --bin bench_server -- \
    --fleet --quick --out target/BENCH_fleet_quick.json
grep -q '"sessions_lost": 0' target/BENCH_fleet_quick.json
grep -Eq '"repl_lag_max": [0-4],' target/BENCH_fleet_quick.json

echo "== eval generator calibration (pinned domain counts, knob adherence properties)"
cargo test -q --offline -p iwb-eval --test calibration --test generator_properties

echo "== curation-replay determinism (bit-identical P/R/F1 across threads/cache)"
cargo test -q --offline -p iwb-eval --test replay_determinism

echo "== noisy-oracle replay (p in {0, 0.1}: bit-identical runs, plateau detector honest)"
cargo test -q --offline -p iwb-eval --test replay_determinism -- \
    noise_zero_is_bit_identical_to_the_default_oracle \
    noisy_replay_is_deterministic_and_plateau_stays_honest

echo "== server-side replay (journaled curation session, crash + --recover, byte-identical)"
cargo test -q --offline -p iwb-eval --test server_replay

echo "== bench_eval smoke (domain sweep floors + replay curve gates, quick axes)"
cargo run -q --release --offline -p iwb-bench --bin bench_eval -- \
    --quick --out target/BENCH_eval_quick.json
grep -q '"floors_met": true' target/BENCH_eval_quick.json
grep -q '"replay_monotone": true' target/BENCH_eval_quick.json

echo "ci: ok"
