//! # iwb-store — persistent session images
//!
//! The workbench's blackboard (paper §5.1) is an in-memory workspace.
//! This crate is its durability layer: a compact, checksummed,
//! versioned **image** of a whole session at a journal watermark, so a
//! restarted server — or a replication successor promoting a session —
//! restores the state and replays only the journal suffix past the
//! image, instead of the session's whole command history.
//!
//! - [`snapshot`] — the container format: page/segment layout, FNV-1a64
//!   checksums at header/index/page/segment granularity, an atomic
//!   write → read-back → rename commit, and layered corruption
//!   detection (torn file, bit flip, stale version header). See
//!   `crates/store/FORMAT.md` for the byte-level specification.
//! - [`artifacts`] — canonical codecs for the image state that lives
//!   below the workbench: schema graphs, score matrices and match
//!   results, the Harmony engine's learned state, and the blocking
//!   index.
//! - [`store`] — [`SessionSnapshot`] (an image: id, watermark, named
//!   state segments) and the per-session [`SessionStore`] with its
//!   verify-then-replace contract: a new image replaces the previous
//!   one only after it reads back intact, so the journal prefix a
//!   verified image covers can be dropped for good.
//! - [`rendezvous`] — highest-random-weight hashing of session ids
//!   over backend slots, shared by the fleet router (placement,
//!   failover order) and the server's journal replication (successor
//!   choice) so both sides agree on where a session's warm replica
//!   lives.
//! - [`fault`] — the deterministic fault-injection grammar shared by
//!   storage and execution faults; the `snapshot-torn`,
//!   `snapshot-bitflip`, and `snapshot-stale` points corrupt image
//!   writes for the corruption suite.
//!
//! Everything is deterministic: segment maps are sorted, floats travel
//! as `to_bits`, and logically equal images are byte-identical
//! regardless of in-memory construction order (property-tested in
//! `tests/properties.rs`).

pub mod artifacts;
pub mod codec;
pub mod fault;
pub mod rendezvous;
pub mod snapshot;
pub mod store;

pub use artifacts::{decode_schema, encode_schema};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use fault::{FaultPlan, FaultSpec};
pub use snapshot::{read_snapshot, write_verified, SnapshotError};
pub use store::{CommandRecord, SessionSnapshot, SessionStore};
