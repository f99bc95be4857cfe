//! Mapping provenance (§5.1.3).
//!
//! "Mappings are also refined over time, especially once they are
//! tested on real data. The blackboard should maintain mapping
//! provenance." Every mutation of a mapping matrix is recorded: which
//! tool did it, what it set, in what order — enough to answer "who set
//! this cell to +1 and when (in sequence terms)". A user decision, an
//! import or a code change is one record per cell or column; an
//! automatic match is one record for its whole run.

use iwb_model::{ElementId, SchemaId};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use std::fmt;
use std::sync::Arc;

/// What a provenance record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceKind {
    /// A cell's confidence was set.
    CellSet {
        /// Row element.
        row: ElementId,
        /// Column element.
        col: ElementId,
        /// The new confidence value.
        confidence: f64,
        /// Whether it was a user decision.
        user_defined: bool,
    },
    /// A column's code was set.
    CodeSet {
        /// Column element.
        col: ElementId,
    },
    /// A row/column was marked complete.
    MarkedComplete {
        /// The element.
        element: ElementId,
    },
    /// The whole-matrix code was regenerated.
    MatrixCodeSet,
    /// An automatic match wrote its suggestions: one record per run,
    /// not per cell.
    MatchRun {
        /// How many cells the run wrote.
        cells: usize,
    },
}

/// One provenance record.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Monotonic sequence number within the log.
    pub seq: u64,
    /// The acting tool. The log shares one name per tool among its
    /// records, so recording a cell allocates no tool name.
    pub tool: Arc<str>,
    /// The matrix (by schema pair).
    pub source: SchemaId,
    /// Target schema of the pair.
    pub target: SchemaId,
    /// What happened.
    pub kind: ProvenanceKind,
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{}] {}→{}: ",
            self.seq, self.tool, self.source, self.target
        )?;
        match &self.kind {
            ProvenanceKind::CellSet {
                row,
                col,
                confidence,
                user_defined,
            } => write!(
                f,
                "cell {row}×{col} = {confidence:+.2} (user={user_defined})"
            ),
            ProvenanceKind::CodeSet { col } => write!(f, "code set on column {col}"),
            ProvenanceKind::MarkedComplete { element } => {
                write!(f, "{element} marked complete")
            }
            ProvenanceKind::MatrixCodeSet => write!(f, "matrix code regenerated"),
            ProvenanceKind::MatchRun { cells } => write!(f, "match run wrote {cells} cells"),
        }
    }
}

/// An append-only provenance log.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    records: Vec<ProvenanceRecord>,
    /// Every tool name recorded so far, shared by the records.
    tools: Vec<Arc<str>>,
}

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record; assigns the next sequence number. The tool's
    /// name is allocated once per log, at its first record.
    pub fn record(
        &mut self,
        tool: &str,
        source: SchemaId,
        target: SchemaId,
        kind: ProvenanceKind,
    ) -> u64 {
        let known = self.tools.iter().position(|t| &**t == tool);
        let i = known.unwrap_or_else(|| {
            self.tools.push(Arc::from(tool));
            self.tools.len() - 1
        });
        let tool = Arc::clone(&self.tools[i]);
        let seq = self.records.len() as u64 + 1;
        self.records.push(ProvenanceRecord {
            seq,
            tool,
            source,
            target,
            kind,
        });
        seq
    }

    /// Encode for a session image. Sequence numbers are implicit (the
    /// log numbers its records 1, 2, …), tools and pairs are named
    /// through tables, and consecutive records of one tool on one pair
    /// share one run header, so a record costs little more than its
    /// kind's payload.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        let mut tools: Vec<&str> = Vec::new();
        let mut pairs: Vec<(&SchemaId, &SchemaId)> = Vec::new();
        let mut runs: Vec<(usize, usize, &[ProvenanceRecord])> = Vec::new();
        let mut rest = &self.records[..];
        while let Some(first) = rest.first() {
            let len = rest
                .iter()
                .take_while(|r| {
                    (&r.tool, &r.source, &r.target) == (&first.tool, &first.source, &first.target)
                })
                .count();
            let tool = tools
                .iter()
                .position(|&t| t == &*first.tool)
                .unwrap_or_else(|| {
                    tools.push(&first.tool);
                    tools.len() - 1
                });
            let pair = (&first.source, &first.target);
            let pair = pairs.iter().position(|&p| p == pair).unwrap_or_else(|| {
                pairs.push(pair);
                pairs.len() - 1
            });
            runs.push((tool, pair, &rest[..len]));
            rest = &rest[len..];
        }
        w.varint(tools.len() as u64);
        for tool in tools {
            w.str(tool);
        }
        w.varint(pairs.len() as u64);
        for (s, t) in pairs {
            w.str(s.as_str());
            w.str(t.as_str());
        }
        w.varint(runs.len() as u64);
        for (tool, pair, records) in runs {
            w.varint(tool as u64);
            w.varint(pair as u64);
            w.varint(records.len() as u64);
            for r in records {
                match &r.kind {
                    ProvenanceKind::CellSet {
                        row,
                        col,
                        confidence,
                        user_defined,
                    } => {
                        w.u8(u8::from(*user_defined));
                        w.varint(row.index() as u64);
                        w.varint(col.index() as u64);
                        w.f64(*confidence);
                    }
                    ProvenanceKind::CodeSet { col } => {
                        w.u8(2);
                        w.varint(col.index() as u64);
                    }
                    ProvenanceKind::MarkedComplete { element } => {
                        w.u8(3);
                        w.varint(element.index() as u64);
                    }
                    ProvenanceKind::MatrixCodeSet => w.u8(4),
                    ProvenanceKind::MatchRun { cells } => {
                        w.u8(5);
                        w.varint(*cells as u64);
                    }
                }
            }
        }
    }

    /// Decode [`Self::encode`] bytes.
    pub(crate) fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let id = |r: &mut ByteReader| -> Result<ElementId, CodecError> {
            Ok(ElementId::from_index(r.varint()? as usize))
        };
        let mut tools = Vec::new();
        for _ in 0..r.varint()? {
            tools.push(r.str()?);
        }
        let mut pairs = Vec::new();
        for _ in 0..r.varint()? {
            pairs.push((SchemaId::new(r.str()?), SchemaId::new(r.str()?)));
        }
        let mut log = ProvenanceLog::new();
        for _ in 0..r.varint()? {
            let tool = tools
                .get(r.varint()? as usize)
                .ok_or(CodecError::Invalid("provenance tool out of range"))?;
            let (source, target) = pairs
                .get(r.varint()? as usize)
                .ok_or(CodecError::Invalid("provenance pair out of range"))?;
            for _ in 0..r.varint()? {
                let kind = match r.u8()? {
                    tag @ (0 | 1) => ProvenanceKind::CellSet {
                        row: id(r)?,
                        col: id(r)?,
                        confidence: r.f64()?,
                        user_defined: tag == 1,
                    },
                    2 => ProvenanceKind::CodeSet { col: id(r)? },
                    3 => ProvenanceKind::MarkedComplete { element: id(r)? },
                    4 => ProvenanceKind::MatrixCodeSet,
                    5 => ProvenanceKind::MatchRun {
                        cells: r.varint()? as usize,
                    },
                    t => return Err(CodecError::BadTag("provenance kind", t)),
                };
                log.record(tool, source.clone(), target.clone(), kind);
            }
        }
        Ok(log)
    }

    /// All records, in order.
    pub fn records(&self) -> &[ProvenanceRecord] {
        &self.records
    }

    /// Records that set a particular cell, in order: user decisions,
    /// imports and single-cell writes. A machine suggestion has no
    /// record of its own; its origin is the latest
    /// [`ProvenanceKind::MatchRun`] on its pair.
    pub fn cell_history(&self, row: ElementId, col: ElementId) -> Vec<&ProvenanceRecord> {
        self.records
            .iter()
            .filter(|r| {
                matches!(&r.kind, ProvenanceKind::CellSet { row: rr, col: cc, .. }
                    if *rr == row && *cc == col)
            })
            .collect()
    }

    /// Records produced by a tool.
    pub fn by_tool(&self, tool: &str) -> Vec<&ProvenanceRecord> {
        self.records.iter().filter(|r| &*r.tool == tool).collect()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (SchemaId, SchemaId, ElementId, ElementId) {
        (
            SchemaId::new("po"),
            SchemaId::new("inv"),
            ElementId::from_index(4),
            ElementId::from_index(2),
        )
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let (s, t, r, c) = ids();
        let mut log = ProvenanceLog::new();
        let a = log.record(
            "harmony",
            s.clone(),
            t.clone(),
            ProvenanceKind::CellSet {
                row: r,
                col: c,
                confidence: 0.8,
                user_defined: false,
            },
        );
        let b = log.record("aqualogic", s, t, ProvenanceKind::CodeSet { col: c });
        assert_eq!((a, b), (1, 2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn cell_history_filters() {
        let (s, t, r, c) = ids();
        let mut log = ProvenanceLog::new();
        log.record(
            "harmony",
            s.clone(),
            t.clone(),
            ProvenanceKind::CellSet {
                row: r,
                col: c,
                confidence: 0.8,
                user_defined: false,
            },
        );
        log.record(
            "user",
            s.clone(),
            t.clone(),
            ProvenanceKind::CellSet {
                row: r,
                col: c,
                confidence: 1.0,
                user_defined: true,
            },
        );
        log.record("user", s, t, ProvenanceKind::MatrixCodeSet);
        let history = log.cell_history(r, c);
        assert_eq!(history.len(), 2);
        // The final word on the cell was the user's.
        assert!(matches!(
            &history.last().unwrap().kind,
            ProvenanceKind::CellSet {
                user_defined: true,
                ..
            }
        ));
        assert_eq!(log.by_tool("user").len(), 2);
    }

    #[test]
    fn every_kind_survives_an_encode_decode_round_trip() {
        let (s, t, r, c) = ids();
        let other = SchemaId::new("ship");
        let cell = |confidence, user_defined| ProvenanceKind::CellSet {
            row: r,
            col: c,
            confidence,
            user_defined,
        };
        let mut log = ProvenanceLog::new();
        log.record("user", s.clone(), t.clone(), cell(1.0, true));
        log.record("harmony", s.clone(), t.clone(), cell(-0.4, false));
        log.record(
            "harmony",
            s.clone(),
            t.clone(),
            ProvenanceKind::MatchRun { cells: 8343 },
        );
        log.record(
            "harmony",
            s.clone(),
            other.clone(),
            ProvenanceKind::MatchRun { cells: 1 },
        );
        log.record(
            "aqualogic",
            s.clone(),
            t.clone(),
            ProvenanceKind::CodeSet { col: c },
        );
        log.record(
            "aqualogic",
            s.clone(),
            t.clone(),
            ProvenanceKind::MarkedComplete { element: r },
        );
        log.record(
            "xquery-codegen",
            s.clone(),
            t.clone(),
            ProvenanceKind::MatrixCodeSet,
        );
        log.record("harmony", s, t, ProvenanceKind::MatchRun { cells: 0 });
        let mut w = ByteWriter::new();
        log.encode(&mut w);
        let bytes = w.into_bytes();
        let decoded = ProvenanceLog::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(decoded.records(), log.records());
        let kinds: Vec<_> = decoded.records().iter().map(|r| &r.kind).collect();
        assert!(kinds.contains(&&ProvenanceKind::MatchRun { cells: 8343 }));

        // A kind tag past the last kind is refused, not guessed.
        let mut w = ByteWriter::new();
        w.varint(1);
        w.str("harmony");
        w.varint(1);
        w.str("po");
        w.str("inv");
        w.varint(1);
        w.varint(0);
        w.varint(0);
        w.varint(1);
        w.u8(6);
        let bytes = w.into_bytes();
        assert!(matches!(
            ProvenanceLog::decode(&mut ByteReader::new(&bytes)),
            Err(CodecError::BadTag("provenance kind", 6))
        ));
    }

    #[test]
    fn records_display_readably() {
        let (s, t, r, c) = ids();
        let mut log = ProvenanceLog::new();
        log.record(
            "harmony",
            s,
            t,
            ProvenanceKind::CellSet {
                row: r,
                col: c,
                confidence: -0.4,
                user_defined: false,
            },
        );
        let text = log.records()[0].to_string();
        assert!(text.contains("harmony"));
        assert!(text.contains("-0.40"));
        let (s, t, ..) = ids();
        log.record("harmony", s, t, ProvenanceKind::MatchRun { cells: 42 });
        assert_eq!(
            log.records()[1].to_string(),
            "#2 [harmony] po→inv: match run wrote 42 cells"
        );
    }
}
