//! Append-only per-session command journals with crash recovery.
//!
//! Every successful *mutating* command (`load`, `match`, `accept`,
//! `reject`, `bind`, `code`, `generate` — see
//! [`iwb_core::shell::mutates`]) is appended to
//! `<dir>/<session-id>.journal` and fsynced before the server
//! acknowledges it, so a daemon crash loses at most the command whose
//! `ok` the client never saw. Because the shell language is
//! deterministic, replaying the journal rebuilds the session's exact
//! blackboard state — `workbenchd --recover <dir>` does that on
//! startup and clients simply `session attach` their pre-crash ids.
//!
//! ## On-disk format
//!
//! Line-oriented and length-framed, like the wire protocol:
//!
//! ```text
//! iwbj1 <session-id>\n                      file header
//! r <payload-len> <fnv1a64-hex> <h|->\n     record header
//! <payload bytes>\n                         command [+ \n + heredoc]
//! ```
//!
//! The payload is the command line; with a heredoc body (`h` flag) the
//! body follows after one `\n`. Length + checksum framing makes torn
//! tails detectable: recovery replays records up to the first
//! malformed/truncated one and drops the rest (at most the final
//! unacknowledged command).
//!
//! ## Compaction and the image watermark
//!
//! The journal keeps the records past its base in memory; every
//! `compact_every` appends (and after recovering a torn file) it is
//! rewritten atomically (tmp + fsync + rename), healing torn garbage
//! and re-framing the suffix into one clean segment.
//!
//! With a store attached (`workbenchd --store`), the base advances:
//! once a session image at watermark `W` has replaced the previous one
//! — written, read back intact, renamed (`iwb_store::SessionStore`) —
//! [`Journal::truncate_to`] raises the base to `W` and drops
//! `records[..W]` from memory as well as from disk (the header records
//! the base as its third token). The order matters: the base only moves
//! after the image at `W` is in place, and a failed image commit leaves
//! the previous image, which covers the old base. So the journal never
//! needs to widen back. [`Journal::len`], the session's `seq`, still
//! counts the whole logical history. Recovery restores the image and
//! replays `records[(W - base)..]`; a journal truncated past every
//! image it can find is refused — never silently wrong.

use iwb_store::fault::{FaultPlan, JOURNAL_TORN};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File extension for session journals.
const EXT: &str = "journal";
/// File header magic.
const MAGIC: &str = "iwbj1";

/// Journal configuration, shared by every session of a registry.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding one `<session-id>.journal` per session.
    pub dir: PathBuf,
    /// fsync each record before acknowledging (durability; tests may
    /// turn it off for speed).
    pub fsync: bool,
    /// Rewrite the file after this many appends.
    pub compact_every: u64,
}

impl JournalConfig {
    /// Durable defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            fsync: true,
            compact_every: 256,
        }
    }
}

/// One journaled command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The command line (no newline).
    pub command: String,
    /// The heredoc body, if the command carried one.
    pub heredoc: Option<String>,
}

impl JournalRecord {
    fn payload(&self) -> Vec<u8> {
        let mut out = self.command.clone().into_bytes();
        if let Some(body) = &self.heredoc {
            out.push(b'\n');
            out.extend_from_slice(body.as_bytes());
        }
        out
    }

    fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = format!(
            "r {} {:016x} {}\n",
            payload.len(),
            iwb_store::fault::fnv1a64(&payload),
            if self.heredoc.is_some() { 'h' } else { '-' }
        )
        .into_bytes();
        out.extend_from_slice(&payload);
        out.push(b'\n');
        out
    }
}

/// A journal file loaded for recovery.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The session id from the file header.
    pub session_id: String,
    /// Base from the header: how many records of logical history were
    /// truncated away because an image covers them. `0` for journals
    /// written without a store.
    pub base: u64,
    /// Records up to the first torn/corrupt one (logical indices
    /// `base..base + records.len()`).
    pub records: Vec<JournalRecord>,
    /// Whether a torn/corrupt tail was dropped.
    pub torn_tail: bool,
}

/// One live session's journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    session_id: String,
    /// The logical history past `base`, in memory and on disk.
    records: Vec<JournalRecord>,
    /// Leading records of the logical history dropped because an image
    /// covers them. Invariant: never exceeds the watermark of the image
    /// in place.
    base: u64,
    appends_since_compact: u64,
    /// A torn write left garbage at the file tail; rewrite before the
    /// next append so the garbage never buries later records.
    dirty_tail: bool,
    config: JournalConfig,
}

impl Journal {
    /// Path of a session's journal under `dir`.
    pub fn path_for(dir: &Path, session_id: &str) -> PathBuf {
        dir.join(format!("{session_id}.{EXT}"))
    }

    /// Create (truncate) a fresh journal for a session.
    pub fn create(config: &JournalConfig, session_id: &str) -> io::Result<Journal> {
        fs::create_dir_all(&config.dir)?;
        let path = Self::path_for(&config.dir, session_id);
        let mut file = File::create(&path)?;
        file.write_all(format!("{MAGIC} {session_id}\n").as_bytes())?;
        if config.fsync {
            file.sync_data()?;
        }
        Ok(Journal {
            path,
            file,
            session_id: session_id.to_owned(),
            records: Vec::new(),
            base: 0,
            appends_since_compact: 0,
            dirty_tail: false,
            config: config.clone(),
        })
    }

    /// Rebuild a journal from recovered records, rewriting the file
    /// into one clean segment (heals any torn tail on disk). `suffix`
    /// is the logical history past `base`, the watermark of the image
    /// that covers the rest (0 without one).
    pub fn adopt(
        config: &JournalConfig,
        session_id: &str,
        suffix: Vec<JournalRecord>,
        base: u64,
    ) -> io::Result<Journal> {
        let mut journal = Self::create(config, session_id)?;
        journal.base = base;
        journal.records = suffix;
        journal.compact()?;
        Ok(journal)
    }

    /// Records committed so far: the whole logical history, including
    /// the prefix an image covers.
    pub fn len(&self) -> usize {
        self.base as usize + self.records.len()
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The base: leading records dropped because an image covers them.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The records past [`Journal::base`] (logical indices
    /// `base..len`).
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Raise the base to `watermark`, dropping the records below it
    /// from memory and rewriting the file with only the suffix past it.
    /// A watermark past the end empties the journal at that base (a
    /// replica that receives an image ahead of its records). **Call
    /// only once the image at `watermark` is in place** — the journal
    /// cannot widen back. The base never moves backwards.
    pub fn truncate_to(&mut self, watermark: u64) -> io::Result<()> {
        if watermark <= self.base {
            return Ok(());
        }
        let drop = ((watermark - self.base) as usize).min(self.records.len());
        self.records.drain(..drop);
        self.base = watermark;
        self.compact()
    }

    /// Append one record and (by default) fsync it — the commit point.
    /// A `journal-torn` fault persists only a prefix of the record's
    /// bytes, simulating a crash mid-write; the record stays in memory
    /// and the next append heals the file by compaction, so the tear
    /// is observable only if the process dies first (exactly the
    /// window a real torn write has). Returns `true` if a torn write
    /// was injected.
    pub fn append(&mut self, record: JournalRecord, faults: &FaultPlan) -> io::Result<bool> {
        self.append_all(vec![record], faults)
    }

    /// [`Journal::append`] for several records with one write and one
    /// fsync (a replication catch-up range). The torn-write fault, if
    /// armed, tears the last record.
    pub fn append_all(
        &mut self,
        records: Vec<JournalRecord>,
        faults: &FaultPlan,
    ) -> io::Result<bool> {
        if records.is_empty() {
            return Ok(false);
        }
        if self.dirty_tail {
            self.compact()?;
        }
        let mut encoded = Vec::new();
        let mut last = 0;
        for record in &records {
            last = encoded.len();
            encoded.extend_from_slice(&record.encode());
        }
        let torn = faults.fires(JOURNAL_TORN).is_some();
        let bytes = if torn {
            &encoded[..last + (encoded.len() - last) / 2]
        } else {
            &encoded[..]
        };
        self.file.write_all(bytes)?;
        if self.config.fsync {
            self.file.sync_data()?;
        }
        self.appends_since_compact += records.len() as u64;
        self.records.extend(records);
        self.dirty_tail = torn;
        if self.appends_since_compact >= self.config.compact_every.max(1) && !self.dirty_tail {
            self.compact()?;
        }
        Ok(torn)
    }

    /// Atomically rewrite the file from the in-memory history: write a
    /// tmp file, fsync, rename over the live path, reopen for append.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = self.path.with_extension(format!("{EXT}.tmp"));
        {
            let mut out = File::create(&tmp)?;
            let header = if self.base > 0 {
                format!("{MAGIC} {} {}\n", self.session_id, self.base)
            } else {
                format!("{MAGIC} {}\n", self.session_id)
            };
            out.write_all(header.as_bytes())?;
            for record in &self.records {
                out.write_all(&record.encode())?;
            }
            out.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.appends_since_compact = 0;
        self.dirty_tail = false;
        Ok(())
    }

    /// Delete the journal file (session closed or evicted cleanly —
    /// there is nothing left to recover).
    pub fn discard(self) -> io::Result<()> {
        fs::remove_file(&self.path)
    }

    /// Parse a journal file; never fails on torn/corrupt tails — they
    /// are reported via [`LoadedJournal::torn_tail`] instead.
    pub fn load(path: &Path) -> io::Result<LoadedJournal> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let (header, mut rest) = split_line(&bytes).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "journal missing header line")
        })?;
        let header = String::from_utf8_lossy(header);
        let bad_header = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad journal header: {header:?}"),
            )
        };
        let mut words = header
            .strip_prefix(MAGIC)
            .ok_or_else(bad_header)?
            .split_whitespace();
        let session_id = words.next().ok_or_else(bad_header)?.to_owned();
        // Optional third token: the durable base (pre-store journals
        // omit it, so files written by older builds still load).
        let base = match words.next() {
            Some(token) => token.parse::<u64>().map_err(|_| bad_header())?,
            None => 0,
        };
        if words.next().is_some() {
            return Err(bad_header());
        }

        let mut records = Vec::new();
        let mut torn_tail = false;
        while !rest.is_empty() {
            match parse_record(rest) {
                Some((record, after)) => {
                    records.push(record);
                    rest = after;
                }
                None => {
                    torn_tail = true;
                    break;
                }
            }
        }
        Ok(LoadedJournal {
            session_id,
            base,
            records,
            torn_tail,
        })
    }

    /// Journal files under `dir`, sorted by file name (empty when the
    /// directory is missing).
    pub fn scan_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXT) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Split at the first `\n`; `None` if there is none.
fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let pos = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..pos], &bytes[pos + 1..]))
}

/// Parse one record off the front; `None` on any truncation or
/// corruption (the caller stops there).
fn parse_record(bytes: &[u8]) -> Option<(JournalRecord, &[u8])> {
    let (header, rest) = split_line(bytes)?;
    let header = std::str::from_utf8(header).ok()?;
    let mut words = header.split_whitespace();
    if words.next()? != "r" {
        return None;
    }
    let len: usize = words.next()?.parse().ok()?;
    let hash = u64::from_str_radix(words.next()?, 16).ok()?;
    let has_heredoc = match words.next()? {
        "h" => true,
        "-" => false,
        _ => return None,
    };
    if words.next().is_some() || rest.len() < len + 1 || rest[len] != b'\n' {
        return None;
    }
    let payload = &rest[..len];
    if iwb_store::fault::fnv1a64(payload) != hash {
        return None;
    }
    let text = String::from_utf8_lossy(payload);
    let (command, heredoc) = if has_heredoc {
        let (cmd, body) = text.split_once('\n')?;
        (cmd.to_owned(), Some(body.to_owned()))
    } else {
        (text.into_owned(), None)
    };
    Some((JournalRecord { command, heredoc }, &rest[len + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_store::fault::FaultSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iwb-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(command: &str, heredoc: Option<&str>) -> JournalRecord {
        JournalRecord {
            command: command.to_owned(),
            heredoc: heredoc.map(str::to_owned),
        }
    }

    #[test]
    fn append_load_roundtrip_with_heredoc_bodies() {
        let config = JournalConfig::new(tmp_dir("roundtrip"));
        let mut j = Journal::create(&config, "alpha").unwrap();
        let none = FaultPlan::none();
        j.append(rec("load er po", Some("entity A { x : text }\n")), &none)
            .unwrap();
        j.append(rec("match po inv", None), &none).unwrap();
        j.append(rec("accept po inv r c", None), &none).unwrap();
        assert_eq!(j.len(), 3);

        let loaded = Journal::load(&Journal::path_for(&config.dir, "alpha")).unwrap();
        assert_eq!(loaded.session_id, "alpha");
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(
            loaded.records[0].heredoc.as_deref(),
            Some("entity A { x : text }\n")
        );
        assert_eq!(loaded.records[1], rec("match po inv", None));
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn torn_final_record_is_dropped_on_load() {
        let config = JournalConfig::new(tmp_dir("torn"));
        let torn_last = FaultSpec::seeded(0).at(JOURNAL_TORN, &[2]).build();
        let mut j = Journal::create(&config, "s").unwrap();
        assert!(!j.append(rec("match a b", None), &torn_last).unwrap());
        assert!(!j.append(rec("accept a b r c", None), &torn_last).unwrap());
        assert!(j.append(rec("reject a b r c", None), &torn_last).unwrap());
        drop(j); // simulated crash before any heal

        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[1].command, "accept a b r c");
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn torn_middle_write_heals_on_next_append() {
        let config = JournalConfig::new(tmp_dir("heal"));
        let torn_first = FaultSpec::seeded(0).at(JOURNAL_TORN, &[0]).build();
        let mut j = Journal::create(&config, "s").unwrap();
        assert!(j.append(rec("match a b", None), &torn_first).unwrap());
        // The next append first compacts, so both records survive.
        assert!(!j.append(rec("accept a b r c", None), &torn_first).unwrap());
        drop(j);

        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert!(!loaded.torn_tail);
        assert_eq!(loaded.records.len(), 2);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn compaction_triggers_and_preserves_history() {
        let config = JournalConfig {
            compact_every: 4,
            ..JournalConfig::new(tmp_dir("compact"))
        };
        let mut j = Journal::create(&config, "s").unwrap();
        let none = FaultPlan::none();
        for i in 0..10 {
            j.append(rec(&format!("match a b{i}"), None), &none)
                .unwrap();
        }
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert_eq!(loaded.records.len(), 10);
        assert!(!loaded.torn_tail);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn adopt_heals_a_manually_truncated_file() {
        let config = JournalConfig::new(tmp_dir("adopt"));
        let mut j = Journal::create(&config, "s").unwrap();
        let none = FaultPlan::none();
        j.append(rec("match a b", None), &none).unwrap();
        j.append(rec("accept a b r c", None), &none).unwrap();
        drop(j);
        let path = Journal::path_for(&config.dir, "s");

        // Chop bytes off the tail: the last record becomes torn.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let loaded = Journal::load(&path).unwrap();
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 1);

        let healed = Journal::adopt(&config, "s", loaded.records, 0).unwrap();
        assert_eq!(healed.len(), 1);
        let reloaded = Journal::load(&path).unwrap();
        assert!(!reloaded.torn_tail);
        assert_eq!(reloaded.records.len(), 1);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn truncate_to_drops_the_covered_prefix_but_keeps_history() {
        let config = JournalConfig::new(tmp_dir("truncate"));
        let mut j = Journal::create(&config, "s").unwrap();
        let none = FaultPlan::none();
        for i in 0..5 {
            j.append(rec(&format!("match a b{i}"), None), &none)
                .unwrap();
        }
        j.truncate_to(3).unwrap();
        assert_eq!(j.base(), 3);
        assert_eq!(j.len(), 5, "the logical history still counts 5");
        // No record below the watermark stays in memory.
        assert_eq!(
            j.records(),
            &[rec("match a b3", None), rec("match a b4", None)]
        );

        // On disk: base 3 in the header, only the suffix framed.
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert_eq!(loaded.base, 3);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].command, "match a b3");

        // The base never moves backwards.
        j.truncate_to(1).unwrap();
        assert_eq!(j.base(), 3);
        // Appends after truncation land after the suffix.
        j.append(rec("match a b5", None), &none).unwrap();
        assert_eq!(j.len(), 6);
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert_eq!(loaded.base, 3);
        assert_eq!(loaded.records.len(), 3);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn truncation_past_the_end_empties_the_journal_at_the_watermark() {
        // A replica that receives an image ahead of its records: the
        // journal cannot widen back, it restarts at the watermark.
        let config = JournalConfig::new(tmp_dir("past-end"));
        let mut j = Journal::create(&config, "s").unwrap();
        let none = FaultPlan::none();
        for i in 0..2 {
            j.append(rec(&format!("match a b{i}"), None), &none)
                .unwrap();
        }
        j.truncate_to(6).unwrap();
        assert_eq!((j.base(), j.len(), j.records().len()), (6, 6, 0));
        j.append(rec("match a b6", None), &none).unwrap();
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert_eq!((loaded.base, loaded.records.len()), (6, 1));
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn append_all_writes_a_range_with_one_fsync_and_a_torn_last_record() {
        let config = JournalConfig::new(tmp_dir("append-all"));
        let mut j = Journal::create(&config, "s").unwrap();
        let torn = FaultSpec::seeded(0).at(JOURNAL_TORN, &[0]).build();
        let range: Vec<JournalRecord> = (0..3)
            .map(|i| rec(&format!("match a b{i}"), None))
            .collect();
        assert!(j.append_all(range, &torn).unwrap());
        assert_eq!(j.len(), 3);
        drop(j); // crash before the heal: the last record is torn
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert!(loaded.torn_tail);
        assert_eq!(loaded.records.len(), 2);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn adopt_with_base_writes_only_the_suffix() {
        let config = JournalConfig::new(tmp_dir("adopt-base"));
        let suffix: Vec<JournalRecord> = (2..4)
            .map(|i| rec(&format!("match a b{i}"), None))
            .collect();
        let j = Journal::adopt(&config, "s", suffix, 2).unwrap();
        assert_eq!(j.len(), 4);
        assert_eq!(j.base(), 2);
        let loaded = Journal::load(&Journal::path_for(&config.dir, "s")).unwrap();
        assert_eq!(loaded.base, 2);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].command, "match a b2");
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn pre_store_headers_without_a_base_token_still_load() {
        let config = JournalConfig::new(tmp_dir("compat"));
        let mut j = Journal::create(&config, "s").unwrap();
        j.append(rec("match a b", None), &FaultPlan::none())
            .unwrap();
        let path = Journal::path_for(&config.dir, "s");
        let bytes = fs::read(&path).unwrap();
        assert!(
            bytes.starts_with(b"iwbj1 s\n"),
            "base 0 keeps the old header"
        );
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.base, 0);
        assert_eq!(loaded.records.len(), 1);
        let _ = fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn scan_dir_lists_only_journals_and_tolerates_missing_dir() {
        let dir = tmp_dir("scan");
        assert!(Journal::scan_dir(&dir).unwrap().is_empty());
        let config = JournalConfig::new(dir.clone());
        Journal::create(&config, "b").unwrap();
        Journal::create(&config, "a").unwrap();
        fs::write(dir.join("notes.txt"), "x").unwrap();
        let found = Journal::scan_dir(&dir).unwrap();
        assert_eq!(found.len(), 2);
        assert!(found[0].ends_with("a.journal"));
        let _ = fs::remove_dir_all(&dir);
    }
}
