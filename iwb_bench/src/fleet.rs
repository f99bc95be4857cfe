//! The production topology, in process: three replicating `workbenchd`
//! backends, each with its own store directory, behind a
//! `workbench-router` — the layout `workbenchd --store DIR --repl-peers
//! … --no-recover` and `workbench-router --backends …` run in.

use iwb_router::router::{serve as serve_router, RouterConfig, RouterHandle};
use iwb_server::repl::ReplConfig;
use iwb_server::server::{serve, ServerConfig, ServerHandle};
use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

pub const BACKENDS: usize = 3;
pub const ROUTERS: usize = 1;

/// Backend worker threads (`workbenchd --workers`). Every replicated
/// session keeps one stream connection open to its successor, and each
/// open connection holds a worker: with the default 8, a backend that
/// is successor to ~8 sessions accepts no further connection until the
/// idle streams time out (30 s), so 24 sessions stall the fleet. 32
/// covers every session of every workload on one backend.
const BACKEND_WORKERS: usize = 32;

/// How long a restarted backend keeps retrying to rebind the address
/// its predecessor held.
const REBIND_BUDGET: Duration = Duration::from_secs(10);

/// A reserved address can be taken by another socket before its
/// backend binds it; a fleet that cannot bind starts again on fresh
/// addresses, this many times.
const START_ATTEMPTS: usize = 3;

pub struct Fleet {
    root: PathBuf,
    peers: Vec<String>,
    backends: Vec<Option<ServerHandle>>,
    /// Store generation per backend slot: a restart gets a fresh, empty
    /// directory.
    generation: Vec<u32>,
    routers: Vec<RouterHandle>,
}

/// Reserve `n` distinct loopback addresses. Replication peers must be
/// known before any backend starts, so ephemeral binding is not an
/// option. The listeners are held until all `n` are bound (so no two
/// addresses coincide), then dropped for the backends to rebind.
pub(crate) fn reserve_addrs(n: usize) -> io::Result<Vec<String>> {
    let listeners = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect()
}

impl Fleet {
    /// Start the backends (stores under `root`) and then the routers.
    pub fn start(root: &Path) -> io::Result<Fleet> {
        let mut attempt = 1;
        loop {
            match Fleet::try_start(root) {
                Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < START_ATTEMPTS => {
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    fn try_start(root: &Path) -> io::Result<Fleet> {
        let mut fleet = Fleet {
            root: root.to_path_buf(),
            peers: reserve_addrs(BACKENDS)?,
            backends: (0..BACKENDS).map(|_| None).collect(),
            generation: vec![0; BACKENDS],
            routers: Vec::new(),
        };
        for slot in 0..BACKENDS {
            if let Err(e) = fleet.spawn_backend(slot, Duration::ZERO) {
                fleet.stop();
                let _ = std::fs::remove_dir_all(root);
                return Err(e);
            }
        }
        for _ in 0..ROUTERS {
            fleet.routers.push(serve_router(RouterConfig {
                backends: fleet.peers.clone(),
                ..RouterConfig::default()
            })?);
        }
        Ok(fleet)
    }

    fn store_dir(&self, slot: usize) -> PathBuf {
        self.root
            .join(format!("b{slot}-g{}", self.generation[slot]))
    }

    /// Start the backend of `slot` on its address, retrying the bind for
    /// up to `budget`.
    fn spawn_backend(&mut self, slot: usize, budget: Duration) -> io::Result<()> {
        let store = self.store_dir(slot);
        let deadline = Instant::now() + budget;
        loop {
            match serve(ServerConfig {
                addr: self.peers[slot].clone(),
                store_dir: Some(store.clone()),
                workers: BACKEND_WORKERS,
                recover: false,
                repl: Some(ReplConfig {
                    peers: self.peers.clone(),
                    self_index: slot,
                }),
                ..ServerConfig::default()
            }) {
                Ok(handle) => {
                    self.backends[slot] = Some(handle);
                    return Ok(());
                }
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
                Err(e) => return Err(e),
            }
        }
    }

    /// The router clients connect to.
    pub fn router(&self) -> &RouterHandle {
        &self.routers[0]
    }

    pub fn routers(&self) -> &[RouterHandle] {
        &self.routers
    }

    pub fn backend(&self, slot: usize) -> Option<&ServerHandle> {
        self.backends[slot].as_ref()
    }

    pub fn backend_addr(&self, slot: usize) -> &str {
        &self.peers[slot]
    }

    /// Hard-crash one backend (no snapshot flush, unsent replies lost).
    pub fn kill(&mut self, slot: usize) {
        if let Some(handle) = self.backends[slot].take() {
            handle.kill();
        }
    }

    /// Restart a killed backend on its old address with an empty store.
    pub fn restart(&mut self, slot: usize) -> io::Result<()> {
        let _ = std::fs::remove_dir_all(self.store_dir(slot));
        self.generation[slot] += 1;
        self.spawn_backend(slot, REBIND_BUDGET)
    }

    /// Largest replication lag (records committed but not acknowledged
    /// by the successor) over every live backend's sources.
    pub fn max_repl_lag(&self) -> u64 {
        self.backends
            .iter()
            .flatten()
            .filter_map(|b| b.registry().repl_status())
            .flat_map(|status| {
                status
                    .lines()
                    .filter(|l| l.starts_with("source "))
                    .filter_map(|l| {
                        l.split_whitespace()
                            .find_map(|f| f.strip_prefix("lag="))
                            .and_then(|v| v.parse::<u64>().ok())
                    })
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Wait until every replica has caught up with its source.
    pub fn wait_lag_zero(&self, budget: Duration) -> Result<(), String> {
        let deadline = Instant::now() + budget;
        loop {
            let lag = self.max_repl_lag();
            if lag == 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!("replication lag stuck at {lag} records"));
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait until every router sees `slot` healthy again.
    pub fn wait_healthy(&self, slot: usize, budget: Duration) -> Result<(), String> {
        let deadline = Instant::now() + budget;
        while !self.routers.iter().all(|r| r.fleet().backend_healthy(slot)) {
            if Instant::now() >= deadline {
                return Err(format!("backend {slot} not re-admitted within {budget:?}"));
            }
            thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Bytes on disk under every backend's store directory.
    pub fn store_bytes(&self) -> u64 {
        dir_bytes(&self.root)
    }

    /// Stop routers, then crash-stop backends (the benchmark discards
    /// the stores, so the graceful snapshot flush would be wasted work).
    pub fn stop(self) {
        for r in &self.routers {
            r.shutdown();
        }
        for r in self.routers {
            r.join();
        }
        for b in self.backends.into_iter().flatten() {
            b.kill();
        }
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
