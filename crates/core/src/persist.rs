//! Session images: capture the whole state of a shell, and restore a
//! shell from it.
//!
//! An image is what persisting the Integration Blackboard and its
//! tools' learned state means (§5.1): the board (schemas with their
//! element ids, matrices with locked cells and row/column annotations,
//! library, version chains, provenance, focus context), the manager's
//! trace, and every tool's state (for Harmony: merger weights, corpus
//! seed and epochs, learned decisions, match configuration, the last
//! result per pair; for blocking: the index). A host takes one at a
//! journal watermark `W`; [`restore`] plus a replay of the records past
//! `W` rebuilds the session exactly as a replay from record 0 would
//! (property-tested over curation replays in `iwb-eval`), at a cost
//! that follows the session's state rather than its history.
//!
//! Process-local caches are not part of an image: they decide how fast
//! the next match runs, never what it computes (so only `match-config`,
//! which reports cache counters, can tell a restored session apart).

use crate::blackboard::Blackboard;
use crate::shell::Shell;
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use iwb_store::{CommandRecord, SessionSnapshot};
use std::collections::BTreeMap;

/// Segment-name prefix of a tool's state (`tool:harmony`, …).
const TOOL_PREFIX: &str = "tool:";

/// The captured state of one session, as image segments — a
/// [`SessionSnapshot`] without its host-owned identity (session id and
/// journal watermark).
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    /// Named state segments (see [`capture`]).
    pub segments: BTreeMap<String, Vec<u8>>,
}

impl SessionState {
    /// Wrap into a [`SessionSnapshot`] with the host-owned identity.
    /// An image replaces the command history it covers, so `_commands`
    /// is ignored; the parameter remains for existing callers.
    pub fn into_snapshot(
        self,
        session_id: impl Into<String>,
        watermark: u64,
        _commands: Vec<CommandRecord>,
    ) -> SessionSnapshot {
        SessionSnapshot {
            session_id: session_id.into(),
            watermark,
            segments: self.segments,
        }
    }
}

/// Capture the whole state of a shell.
pub fn capture(shell: &Shell) -> SessionState {
    let manager = shell.manager();
    let mut segments: BTreeMap<String, Vec<u8>> = manager
        .blackboard()
        .image_segments()
        .into_iter()
        .map(|(name, bytes)| (name.to_owned(), bytes))
        .collect();
    segments.insert("trace".to_owned(), encode_lines(manager.trace()));
    for (tool, bytes) in manager.tool_states() {
        segments.insert(format!("{TOOL_PREFIX}{tool}"), bytes);
    }
    SessionState { segments }
}

/// Restore a shell from an image. Fails when a segment does not decode
/// or names a tool this workbench does not have.
pub fn restore(snapshot: &SessionSnapshot) -> Result<Shell, CodecError> {
    let blackboard = Blackboard::from_image(&snapshot.segments)?;
    let bytes = snapshot
        .segments
        .get("trace")
        .ok_or(CodecError::Invalid("image lacks the trace segment"))?;
    let trace = decode_lines(bytes)?;
    let tools: Vec<(&str, &[u8])> = snapshot
        .segments
        .iter()
        .filter_map(|(name, bytes)| Some((name.strip_prefix(TOOL_PREFIX)?, bytes.as_slice())))
        .collect();
    let mut shell = Shell::new();
    shell.manager_mut().restore(blackboard, trace, &tools)?;
    Ok(shell)
}

/// Encode lines front-coded: each as the length of the prefix it
/// shares with the line before, then the rest. Trace lines repeat
/// their event prefix thousands of times per match.
fn encode_lines(lines: &[String]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.varint(lines.len() as u64);
    let mut previous = "";
    for line in lines {
        let mut shared = previous
            .bytes()
            .zip(line.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        while !line.is_char_boundary(shared) {
            shared -= 1;
        }
        w.varint(shared as u64);
        w.str(&line[shared..]);
        previous = line;
    }
    w.into_bytes()
}

/// Decode [`encode_lines`] bytes.
fn decode_lines(bytes: &[u8]) -> Result<Vec<String>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..r.varint()? {
        let shared = r.varint()? as usize;
        let previous = lines.last().map_or("", String::as_str);
        let prefix = previous
            .get(..shared)
            .ok_or(CodecError::Invalid("trace prefix out of range"))?;
        let line = format!("{prefix}{}", r.str()?);
        lines.push(line);
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::SchemaId;

    const SESSION: &str = "load er left <<EOF\n\
        entity SHIPMENT \"An outgoing shipment.\" { ship_dt : date \"Date shipped.\" \
        ship_no : integer \"Shipment number.\" }\n\
        EOF\n\
        load er right <<EOF\n\
        entity DELIVERY \"A delivery record.\" { deliver_dt : date \"Date delivered.\" \
        delivery_no : integer \"Delivery number.\" }\n\
        EOF\n\
        match left right\n\
        accept left right left/SHIPMENT/ship_dt right/DELIVERY/deliver_dt\n\
        bind left right left/SHIPMENT ship\n\
        match left right\n\
        index-registry seed 7 scale 0.01\n";

    /// Every read the shell answers about the session's state.
    const READS: [&str; 9] = [
        "export",
        "proposals left right threshold 0.25",
        "proposals left right undecided",
        "weights",
        "show schema left",
        "show matrix left right",
        "show coverage",
        "show trace",
        "find-candidates left 3",
    ];

    fn reads(shell: &mut Shell) -> Vec<String> {
        READS
            .iter()
            .map(|r| shell.execute(r, None).unwrap_or_else(|e| e.to_string()))
            .collect()
    }

    /// Capture → encode → verify-decode → restore.
    fn round_trip(shell: &Shell) -> Shell {
        let image = capture(shell).into_snapshot("s1", 7, Vec::new());
        let decoded = SessionSnapshot::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image);
        restore(&decoded).unwrap()
    }

    #[test]
    fn a_restored_image_answers_and_continues_bit_identically() {
        let mut live = Shell::new();
        let outcome = live.run_on(SESSION);
        assert_eq!(outcome.errors, 0, "{}", outcome.transcript);
        let mut restored = round_trip(&live);
        // Every read agrees (`find-candidates` adds a trace line, so the
        // trace is compared before it on both sides).
        assert_eq!(reads(&mut live), reads(&mut restored));
        // And so does everything after: a learned re-match against the
        // restored last result and weights, then the reads again.
        let more = "reject left right left/SHIPMENT/ship_no right/DELIVERY/deliver_dt\n\
                    match left right\n";
        assert_eq!(
            live.run_on(more).transcript,
            restored.run_on(more).transcript
        );
        assert_eq!(reads(&mut live), reads(&mut restored));
        // State no read shows: provenance, version chains, the library.
        let (a, b) = (live.manager().blackboard(), restored.manager().blackboard());
        assert_eq!(a.provenance.records(), b.provenance.records());
        assert!(a.provenance.len() > 10);
        let left = SchemaId::new("left");
        assert_eq!(
            a.versions.version_count(&left),
            b.versions.version_count(&left)
        );
        assert_eq!(a.library.len(), b.library.len());
    }

    #[test]
    fn an_image_replaces_the_history_it_covers() {
        // The image holds state, not commands: the command prefix a
        // caller passes is not stored, and restoring needs none.
        let mut live = Shell::new();
        assert_eq!(live.run_on(SESSION).errors, 0);
        let with = capture(&live).into_snapshot(
            "s1",
            7,
            vec![CommandRecord {
                command: "match left right".into(),
                heredoc: None,
            }],
        );
        let without = capture(&live).into_snapshot("s1", 7, Vec::new());
        assert_eq!(with.encode(), without.encode());
        assert!(with.segments.contains_key("tool:harmony"));
        assert!(with.segments.contains_key("tool:blocking"));
    }

    #[test]
    fn capture_on_a_fresh_shell_restores_a_fresh_shell() {
        let shell = Shell::new();
        let mut restored = round_trip(&shell);
        let mut fresh = Shell::new();
        assert_eq!(reads(&mut fresh)[..8], reads(&mut restored)[..8]);
    }

    #[test]
    fn front_coded_lines_round_trip() {
        // "x→" and "x←" share the arrow's first two bytes, not the arrow.
        let lines: Vec<String> = [
            "",
            "  round 0: a→b",
            "  round 0: a→c",
            "ünïcode",
            "ü",
            "",
            "x→",
            "x←",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(decode_lines(&encode_lines(&lines)).unwrap(), lines);
    }

    #[test]
    fn a_blackboard_built_index_is_restored_from_the_board() {
        let mut live = Shell::new();
        let outcome = live
            .run_on("load er a <<EOF\nentity VENDOR { vendor_id : text }\nEOF\nindex-registry\n");
        assert_eq!(outcome.errors, 0, "{}", outcome.transcript);
        let mut restored = round_trip(&live);
        let find = "find-candidates a 1";
        assert_eq!(live.execute(find, None), restored.execute(find, None));
        // A schema event still invalidates the restored index.
        let reload =
            "load er a <<EOF\nentity VENDOR { vendor_id : text }\nEOF\nfind-candidates a 1\n";
        assert_eq!(
            live.run_on(reload).transcript,
            restored.run_on(reload).transcript
        );
    }

    #[test]
    fn an_image_naming_an_unknown_tool_is_refused() {
        let mut image = capture(&Shell::new()).into_snapshot("s1", 0, Vec::new());
        image.segments.insert("tool:ghost".into(), vec![]);
        assert!(restore(&image).is_err());
    }
}
