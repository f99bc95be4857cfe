//! The on-disk snapshot container: page/segment layout, checksums,
//! atomic commit, and corruption-aware reads.
//!
//! A snapshot is a single file (see `crates/store/FORMAT.md`):
//!
//! ```text
//! [ 64-byte header | payload (segments, sorted by name) | index ]
//! ```
//!
//! The payload is the concatenation of named segments in **sorted name
//! order**, so two snapshots of the same logical state are byte-identical
//! regardless of the order the segments were inserted. The trailing
//! index records each segment's name, offset, length, and FNV-1a64
//! checksum, plus one checksum per 4 KiB payload page — page checksums
//! localise corruption without re-hashing untouched segments, and
//! segment checksums guard the unit the codecs actually decode.
//!
//! Commits are atomic and verified: write `<path>.tmp`, `fsync`, read
//! it back through every checksum, then `rename` over the target. A
//! crash mid-write leaves either the old snapshot or a `.tmp` orphan,
//! never a half-new file under the live name, and a write that fails
//! its read-back never replaces the previous file. Reads verify
//! header → version → index → pages → segments and classify every
//! failure, so callers can distinguish "no snapshot" from "torn" from
//! "corrupt" instead of serving silently-wrong state.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::fault::{fnv1a64, FaultPlan, SNAPSHOT_BITFLIP, SNAPSHOT_STALE, SNAPSHOT_TORN};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"IWBSNAP1";
/// Current format version; bumped on any incompatible change (2: the
/// payload is a session image, not a command prefix plus artifacts).
pub const VERSION: u32 = 2;
/// Payload page size: checksums cover the payload in chunks this big.
pub const PAGE_SIZE: usize = 4096;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Why a snapshot could not be loaded.
///
/// Everything except [`SnapshotError::Io`] means the file existed but
/// failed verification.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file is shorter than its own layout claims (crash mid-write
    /// that somehow beat the rename, or an external truncation).
    Torn,
    /// The first eight bytes are not the snapshot magic.
    BadMagic,
    /// The header verified but carries an unsupported format version.
    Version(u32),
    /// A checksum failed; the payload names which layer caught it
    /// (`"header"`, `"index"`, `"page"`, `"segment"`).
    Corrupt(&'static str),
    /// A segment passed its checksum but failed structural decoding.
    Codec(CodecError),
    /// The underlying read failed (includes file-not-found).
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Torn => f.write_str("snapshot torn (file shorter than its layout)"),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(layer) => write!(f, "snapshot corrupt ({layer} checksum)"),
            SnapshotError::Codec(e) => write!(f, "snapshot segment undecodable: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Serialise `segments` into the container layout, returning the full
/// file image (header + payload + index). Pure function of its input:
/// the same segment map always yields the same bytes.
pub fn encode(segments: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    encode_entries(segments.iter().map(|(k, v)| (k.as_str(), v.as_slice())))
}

/// [`encode`] over borrowed `(name, bytes)` segments, which must come in
/// sorted name order.
pub fn encode_entries<'a>(segments: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> Vec<u8> {
    // Payload: segments in sorted name order, written straight after
    // the header's place.
    let mut file = vec![0u8; HEADER_LEN];
    let mut entries: Vec<(&str, u64, u64)> = Vec::new();
    for (name, bytes) in segments {
        debug_assert!(entries.last().is_none_or(|(last, ..)| *last < name));
        entries.push((name, (file.len() - HEADER_LEN) as u64, bytes.len() as u64));
        file.extend_from_slice(bytes);
    }
    let payload_len = file.len() - HEADER_LEN;

    // Index: segment table, then per-page payload checksums.
    let ends: Vec<usize> = entries.iter().map(|(_, o, l)| (o + l) as usize).collect();
    let (page_sums, segment_sums) = checksums(&file[HEADER_LEN..], PAGE_SIZE, &ends);
    let mut index = ByteWriter::new();
    index.u32(entries.len() as u32);
    for ((name, offset, len), sum) in entries.iter().zip(segment_sums) {
        index.str(name);
        index.u64(*offset);
        index.u64(*len);
        index.u64(sum);
    }
    index.u32(page_sums.len() as u32);
    for sum in page_sums {
        index.u64(sum);
    }
    let index = index.into_bytes();

    // Fixed header, checksummed over its first 56 bytes.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    header.extend_from_slice(&(payload_len as u64).to_le_bytes());
    header.extend_from_slice(&((HEADER_LEN + payload_len) as u64).to_le_bytes());
    header.extend_from_slice(&(index.len() as u64).to_le_bytes());
    header.extend_from_slice(&fnv1a64(&index).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // reserved
    let header_sum = fnv1a64(&header);
    header.extend_from_slice(&header_sum.to_le_bytes());
    file[..HEADER_LEN].copy_from_slice(&header);
    file.extend_from_slice(&index);
    file
}

/// The FNV-1a64 of every `page_size` page of `payload` and of every
/// segment, given the segments' end offsets in order — the segments
/// tile the payload. One pass runs both hashes side by side over each
/// byte, which costs about as much as one hash.
fn checksums(payload: &[u8], page_size: usize, segment_ends: &[usize]) -> (Vec<u64>, Vec<u64>) {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut pages = Vec::with_capacity(payload.len().div_ceil(page_size));
    let mut segments = Vec::with_capacity(segment_ends.len());
    let (mut page, mut segment) = (SEED, SEED);
    let mut ends = segment_ends.iter().copied().peekable();
    let mut at = 0;
    loop {
        while ends.next_if_eq(&at).is_some() {
            segments.push(segment);
            segment = SEED;
        }
        if at == payload.len() {
            return (pages, segments);
        }
        let page_end = (at / page_size + 1) * page_size;
        let stop = page_end
            .min(payload.len())
            .min(ends.peek().copied().unwrap_or(payload.len()));
        for &b in &payload[at..stop] {
            page = (page ^ u64::from(b)).wrapping_mul(PRIME);
            segment = (segment ^ u64::from(b)).wrapping_mul(PRIME);
        }
        at = stop;
        if at == page_end || at == payload.len() {
            pages.push(page);
            page = SEED;
        }
    }
}

/// Apply any armed `snapshot-*` faults to an encoded file image. The
/// damage lands *after* every checksum is computed, so it must be
/// caught by [`decode`]'s verification of the written file.
fn inject_faults(image: &[u8], payload_len: usize, faults: &FaultPlan) -> Option<Vec<u8>> {
    let (stale, bitflip, torn) = (
        faults.fires(SNAPSHOT_STALE),
        faults.fires(SNAPSHOT_BITFLIP),
        faults.fires(SNAPSHOT_TORN),
    );
    if stale.is_none() && bitflip.is_none() && torn.is_none() {
        return None;
    }
    let mut file = image.to_vec();
    if stale.is_some() && file.len() >= HEADER_LEN {
        // An older build's version number; the header checksum is
        // recomputed so the *version check* (not the checksum) trips.
        file[8..12].copy_from_slice(&0u32.to_le_bytes());
        let sum = fnv1a64(&file[..56]);
        file[56..64].copy_from_slice(&sum.to_le_bytes());
    }
    if let Some(ms) = bitflip {
        if payload_len > 0 {
            // Deterministic target bit derived from the fault payload.
            let byte = HEADER_LEN + (ms as usize % payload_len);
            file[byte] ^= 1 << (ms % 8);
        }
    }
    if torn.is_some() {
        file.truncate(file.len() / 2);
    }
    Some(file)
}

/// Atomically replace `path` with a verified copy of `image`: apply
/// fault injection, write `<path>.tmp`, optionally `fsync`, read the
/// file back through [`decode`] and `check`, and only then rename it
/// into place. A file that fails verification is deleted and the
/// previous file under `path` stays — the live name never holds a
/// partial or unverified write.
pub fn write_verified(
    path: &Path,
    image: &[u8],
    fsync: bool,
    faults: &FaultPlan,
    check: impl FnOnce(&BTreeMap<String, &[u8]>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let payload_len = image
        .get(16..24)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
        .min(image.len().saturating_sub(HEADER_LEN));
    let damaged = inject_faults(image, payload_len, faults);
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(damaged.as_deref().unwrap_or(image))?;
        if fsync {
            f.sync_all()?;
        }
    }
    let verified = fs::read(&tmp)
        .map_err(SnapshotError::from)
        .and_then(|file| check(&verify(&file)?));
    if let Err(e) = verified {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Parse and verify a full snapshot image, returning its segment map.
pub fn decode(file: &[u8]) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
    Ok(verify(file)?
        .into_iter()
        .map(|(name, bytes)| (name, bytes.to_vec()))
        .collect())
}

/// [`decode`] without copying: the verified segments borrow `file`.
///
/// Verification order: length → magic → header checksum → version →
/// index bounds and checksum → segment bounds (the segments must tile
/// the payload in index order) → page checksums → segment checksums.
/// The first failing layer names the error, so corruption tests can
/// assert *which* guard caught the damage.
pub fn verify(file: &[u8]) -> Result<BTreeMap<String, &[u8]>, SnapshotError> {
    if file.len() < HEADER_LEN {
        return Err(SnapshotError::Torn);
    }
    if file[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let header_sum = u64::from_le_bytes(file[56..64].try_into().unwrap());
    if fnv1a64(&file[..56]) != header_sum {
        return Err(SnapshotError::Corrupt("header"));
    }
    let version = u32::from_le_bytes(file[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::Version(version));
    }
    let page_size = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(file[16..24].try_into().unwrap()) as usize;
    let index_offset = u64::from_le_bytes(file[24..32].try_into().unwrap()) as usize;
    let index_len = u64::from_le_bytes(file[32..40].try_into().unwrap()) as usize;
    let index_sum = u64::from_le_bytes(file[40..48].try_into().unwrap());

    if index_offset != HEADER_LEN + payload_len
        || index_offset
            .checked_add(index_len)
            .is_none_or(|end| end > file.len())
    {
        return Err(SnapshotError::Torn);
    }
    let payload = &file[HEADER_LEN..index_offset];
    let index = &file[index_offset..index_offset + index_len];
    if fnv1a64(index) != index_sum {
        return Err(SnapshotError::Corrupt("index"));
    }

    let mut r = ByteReader::new(index);
    let seg_count = r.u32()? as usize;
    let mut entries = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let name = r.str()?;
        let offset = r.u64()? as usize;
        let len = r.u64()? as usize;
        let sum = r.u64()?;
        entries.push((name, offset, len, sum));
    }
    let page_count = r.u32()? as usize;
    if page_size == 0 || page_count != payload.len().div_ceil(page_size) {
        return Err(SnapshotError::Corrupt("index"));
    }
    let mut ends = Vec::with_capacity(entries.len());
    for (_, offset, len, _) in &entries {
        match offset.checked_add(*len) {
            Some(end) if *offset == ends.last().copied().unwrap_or(0) => ends.push(end),
            _ => return Err(SnapshotError::Corrupt("segment")),
        }
    }
    if ends.last().copied().unwrap_or(0) != payload.len() {
        return Err(SnapshotError::Corrupt("segment"));
    }
    let (page_sums, segment_sums) = checksums(payload, page_size, &ends);
    for sum in page_sums {
        if sum != r.u64()? {
            return Err(SnapshotError::Corrupt("page"));
        }
    }

    let mut segments = BTreeMap::new();
    for ((name, offset, len, expected), sum) in entries.into_iter().zip(segment_sums) {
        if sum != expected {
            return Err(SnapshotError::Corrupt("segment"));
        }
        segments.insert(name, &payload[offset..offset + len]);
    }
    Ok(segments)
}

/// Read and verify the snapshot at `path`. A missing file surfaces as
/// [`SnapshotError::Io`] with `NotFound`; callers that treat absence as
/// "cold start" should check existence first (see `SessionStore::load`).
pub fn read_snapshot(path: &Path) -> Result<BTreeMap<String, Vec<u8>>, SnapshotError> {
    let file = fs::read(path)?;
    decode(&file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("iwb-store-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> BTreeMap<String, Vec<u8>> {
        let mut m = BTreeMap::new();
        m.insert("meta".to_string(), vec![1, 2, 3]);
        m.insert("schema:a".to_string(), vec![0u8; PAGE_SIZE + 17]);
        m.insert("blocking".to_string(), (0..255u8).collect());
        m
    }

    fn write(path: &Path, faults: &FaultPlan) -> Result<(), SnapshotError> {
        write_verified(path, &encode(&sample()), false, faults, |_| Ok(()))
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("s1.snap");
        write_verified(&path, &encode(&sample()), true, &FaultPlan::none(), |_| {
            Ok(())
        })
        .unwrap();
        let loaded = read_snapshot(&path).unwrap();
        assert_eq!(loaded, sample());
    }

    #[test]
    fn encoding_is_independent_of_insertion_order() {
        let forward = encode(&sample());
        let mut reversed = BTreeMap::new();
        for (k, v) in sample().into_iter().rev() {
            reversed.insert(k, v);
        }
        assert_eq!(forward, encode(&reversed));
    }

    #[test]
    fn empty_segment_map_round_trips() {
        let image = encode(&BTreeMap::new());
        assert_eq!(decode(&image).unwrap(), BTreeMap::new());
    }

    #[test]
    fn torn_fault_is_detected_as_torn_or_header_damage() {
        let dir = tmpdir("torn");
        let path = dir.join("s1.snap");
        let plan = FaultSpec::seeded(1).at(SNAPSHOT_TORN, &[0]).build();
        match write(&path, &plan) {
            Err(SnapshotError::Torn) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
        assert!(!path.exists(), "a failed write never takes the live name");
        assert!(!path.with_extension("snap.tmp").exists());
    }

    #[test]
    fn bitflip_fault_is_caught_by_a_checksum() {
        let dir = tmpdir("bitflip");
        let path = dir.join("s1.snap");
        let plan = FaultSpec::seeded(1)
            .at(SNAPSHOT_BITFLIP, &[0])
            .millis(SNAPSHOT_BITFLIP, 1234)
            .build();
        match write(&path, &plan) {
            Err(SnapshotError::Corrupt(layer)) => {
                assert!(layer == "page" || layer == "segment", "layer {layer}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn stale_version_fault_is_caught_by_the_version_check() {
        let dir = tmpdir("stale");
        let path = dir.join("s1.snap");
        write(&path, &FaultPlan::none()).unwrap();
        let plan = FaultSpec::seeded(1).at(SNAPSHOT_STALE, &[0]).build();
        match write(&path, &plan) {
            Err(SnapshotError::Version(0)) => {}
            other => panic!("expected Version(0), got {other:?}"),
        }
        assert_eq!(
            read_snapshot(&path).unwrap(),
            sample(),
            "previous file kept"
        );
    }

    #[test]
    fn one_pass_checksums_equal_a_hash_per_page_and_segment() {
        let payload: Vec<u8> = (0..3 * PAGE_SIZE as u32 + 100)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let cuts: [&[usize]; 5] = [
            &[],
            &[PAGE_SIZE],
            &[0, 0, 17, PAGE_SIZE - 1, PAGE_SIZE, 2 * PAGE_SIZE + 5],
            &[1, 2, 3],
            &[3 * PAGE_SIZE],
        ];
        for len in [0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, payload.len()] {
            let payload = &payload[..len];
            for cut in cuts {
                let mut ends: Vec<usize> = cut.iter().copied().filter(|&e| e <= len).collect();
                ends.push(len);
                let (pages, segments) = checksums(payload, PAGE_SIZE, &ends);
                let expect_pages: Vec<u64> = payload.chunks(PAGE_SIZE).map(fnv1a64).collect();
                let mut start = 0;
                let expect_segments: Vec<u64> = ends
                    .iter()
                    .map(|&end| {
                        let sum = fnv1a64(&payload[start..end]);
                        start = end;
                        sum
                    })
                    .collect();
                assert_eq!(pages, expect_pages, "len {len} cut {cut:?}");
                assert_eq!(segments, expect_segments, "len {len} cut {cut:?}");
            }
        }
    }

    #[test]
    fn foreign_file_is_rejected_by_magic() {
        let image = b"definitely not a snapshot, but longer than a header....individual";
        assert!(matches!(decode(&image[..]), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn short_file_is_torn() {
        assert!(matches!(decode(&[0u8; 10]), Err(SnapshotError::Torn)));
    }
}
