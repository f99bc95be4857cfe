//! Corruption-injection suite: every storage fault the spec grammar
//! can inject must be *detected* by a checksum or the version check —
//! never returned as silently-wrong data — and the detection must come
//! before the corrupt image replaces anything: a commit reads its file
//! back before the rename, so the previous image stays in place and the
//! journal prefix it covers stays recoverable.
//!
//! Faults reuse the same `point@rate[:payload]` spec grammar as the
//! server's chaos suite (`iwb_store::fault`), so a single CLI flag can
//! drive execution faults and storage faults together.

use iwb_model::{DataType, Metamodel, SchemaBuilder};
use iwb_store::fault::{FaultPlan, FaultSpec};
use iwb_store::snapshot::SnapshotError;
use iwb_store::{encode_schema, SessionSnapshot, SessionStore};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iwb-corrupt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plan(spec: &str) -> FaultPlan {
    FaultSpec::parse(spec).unwrap().build()
}

fn sample_snapshot(watermark: u64) -> SessionSnapshot {
    let schema = SchemaBuilder::new("crm", Metamodel::Relational)
        .open("CUSTOMER")
        .attr_doc("CUST_ID", DataType::Integer, "Unique customer identifier.")
        .attr("NAME", DataType::VarChar(80))
        .close()
        .build();
    let mut segments = BTreeMap::new();
    segments.insert("schemas".to_string(), encode_schema(&schema));
    segments.insert("trace".to_string(), vec![0u8; 6000]);
    SessionSnapshot {
        session_id: "s1".to_string(),
        watermark,
        segments,
    }
}

fn store(dir: &PathBuf) -> SessionStore {
    let mut s = SessionStore::new(dir, "s1");
    s.fsync = false;
    s
}

/// Commit a good image at watermark 1, then commit under a fault spec:
/// the corrupt commit must fail with the verification error (returned
/// for per-fault assertions) and leave image 1 in place.
fn commit_corrupt(tag: &str, spec: &str) -> SnapshotError {
    let dir = tmpdir(tag);
    let s = store(&dir);
    s.commit(&sample_snapshot(1), &FaultPlan::none()).unwrap();
    let err = s
        .commit(&sample_snapshot(2), &plan(spec))
        .expect_err("a corrupted image must not commit");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    let previous = s.load().unwrap().expect("previous image kept");
    assert_eq!(previous, sample_snapshot(1));
    std::fs::remove_dir_all(&dir).ok();
    match err.into_inner().map(|e| e.downcast::<SnapshotError>()) {
        Some(Ok(e)) => *e,
        other => panic!("expected a SnapshotError, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_is_detected_as_torn() {
    let err = commit_corrupt("torn", "snapshot-torn@0");
    assert!(
        matches!(err, SnapshotError::Torn | SnapshotError::Corrupt(_)),
        "half a file must read as torn or checksum-damaged, got {err:?}"
    );
}

#[test]
fn bit_flipped_page_is_detected_by_a_checksum() {
    let err = commit_corrupt("bitflip", "snapshot-bitflip@0");
    assert!(
        matches!(err, SnapshotError::Corrupt("page" | "segment")),
        "a single flipped payload bit must trip a page or segment checksum, got {err:?}"
    );
}

#[test]
fn stale_version_header_is_rejected_by_the_version_check() {
    let err = commit_corrupt("stale", "snapshot-stale@0");
    assert!(
        matches!(err, SnapshotError::Version(0)),
        "an old-format snapshot must fail the version check (not a checksum), got {err:?}"
    );
}

#[test]
fn rate_one_faults_fire_on_every_commit() {
    // `=1.0` rate syntax (as used by the chaos CLI) also drives
    // storage faults; every commit under it is refused.
    let dir = tmpdir("rate");
    let s = store(&dir);
    let p = plan("snapshot-bitflip=1.0");
    for w in 0..3 {
        assert!(s.commit(&sample_snapshot(w), &p).is_err());
        assert!(
            s.load().unwrap().is_none(),
            "nothing ever took the live name"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn indexed_fault_spares_other_commits() {
    // `@1` (second invocation) corrupts exactly one commit: the first
    // image commits, the second is refused and leaves the first in
    // place, the third replaces it. A bad commit never destroys the
    // prior verified image.
    let dir = tmpdir("indexed");
    let s = store(&dir);
    let p = plan("snapshot-torn@1");
    s.commit(&sample_snapshot(1), &p).unwrap();
    assert!(
        s.commit(&sample_snapshot(2), &p).is_err(),
        "second commit is torn"
    );
    assert_eq!(s.load().unwrap().unwrap().watermark, 1);
    s.commit(&sample_snapshot(3), &p).unwrap();
    assert_eq!(
        s.load().unwrap().unwrap().watermark,
        3,
        "third commit replaces the first image"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_free_commit_verifies_and_round_trips() {
    let dir = tmpdir("clean");
    let s = store(&dir);
    let snap = sample_snapshot(2);
    s.commit(&snap, &FaultPlan::none()).unwrap();
    let loaded = s.load().unwrap().expect("snapshot present");
    assert_eq!(loaded, snap);
    let (_, bytes) = s.load_bytes().unwrap().unwrap();
    assert_eq!(bytes, snap.encode(), "the file is the encoded image");
    std::fs::remove_dir_all(&dir).ok();
}
