//! # iwb-router — a sharded `workbenchd` fleet front
//!
//! A thin TCP proxy that consistent-hashes session ids across N
//! `workbenchd` backends, speaking the existing line protocol
//! transparently. Clients talk to the router exactly as they would to
//! a single daemon; the router owns placement, health, failover, and
//! planned migration.
//!
//! * [`router`] — the proxy itself: rendezvous placement
//!   ([`iwb_store::rendezvous`]: stable rankings under membership
//!   change, so a backend crash only remaps the sessions it owned),
//!   health-checked membership with seeded-jitter probing,
//!   `RETRY-AFTER`-aware placement, sticky routes, failover and
//!   migration by floor-checked `repl promote` from the streamed
//!   `--repl-peers` replicas (refusing `STALE-REPLICA` evidence),
//!   planned draining (`migrate --all <backend>`), restart
//!   re-discovery of placement from the backends' own books, and
//!   per-session sequence stamping for exactly-once mutation
//!   semantics.
//!
//! The router runs `iwb-server`'s line-protocol core: its blocking
//! accept loop (`iwb_server::server::accept_loop`, woken by a shutdown
//! request), its connection loop (`iwb_server::server::serve_lines`, at
//! the backend's default bounds), its counter registry and its `stats`
//! format.
//!
//! The `workbench-router` binary wraps [`router::serve`] with flag
//! parsing mirroring `workbenchd`'s.

pub mod router;

pub use router::{serve, Fleet, RouterConfig, RouterHandle, RouterStats};
