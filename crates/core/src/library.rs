//! The mapping library (§5.1.3).
//!
//! "The blackboard should maintain a library of mappings, partly to
//! facilitate mapping reuse, but also as a resource for some matching
//! tools." Completed matrices are archived under their schema pair;
//! lookups serve both exact reuse (same pair again) and partial reuse
//! (any archived mapping touching a given schema, which a matcher can
//! mine for previously confirmed correspondences).

use crate::matrix::MappingMatrix;
use iwb_model::SchemaId;
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};

/// An archived mapping with a version counter per pair.
#[derive(Debug, Clone)]
pub struct ArchivedMapping {
    /// Monotonic version within the pair's history.
    pub version: u32,
    /// The archived matrix snapshot.
    pub matrix: MappingMatrix,
}

/// The library of archived mappings.
#[derive(Debug, Clone, Default)]
pub struct MappingLibrary {
    entries: Vec<ArchivedMapping>,
}

impl MappingLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Archive a snapshot; assigns the next version for its pair.
    pub fn archive(&mut self, matrix: MappingMatrix) -> u32 {
        let version = self
            .history(matrix.source_id(), matrix.target_id())
            .last()
            .map(|a| a.version + 1)
            .unwrap_or(1);
        self.entries.push(ArchivedMapping { version, matrix });
        version
    }

    /// All archived versions for a pair, oldest first.
    pub fn history(&self, source: &SchemaId, target: &SchemaId) -> Vec<&ArchivedMapping> {
        self.entries
            .iter()
            .filter(|a| a.matrix.source_id() == source && a.matrix.target_id() == target)
            .collect()
    }

    /// The latest archived mapping for a pair (exact reuse).
    pub fn latest(&self, source: &SchemaId, target: &SchemaId) -> Option<&ArchivedMapping> {
        self.history(source, target).into_iter().last()
    }

    /// Any archived mappings that involve the schema on either side
    /// (partial reuse / matcher resource).
    pub fn involving(&self, schema: &SchemaId) -> Vec<&ArchivedMapping> {
        self.entries
            .iter()
            .filter(|a| a.matrix.source_id() == schema || a.matrix.target_id() == schema)
            .collect()
    }

    /// Encode for a session image: every archived mapping in order.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u32(self.entries.len() as u32);
        for entry in &self.entries {
            w.u32(entry.version);
            entry.matrix.encode(w);
        }
    }

    /// Decode [`Self::encode`] bytes.
    pub(crate) fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let mut entries = Vec::new();
        for _ in 0..r.u32()? {
            let version = r.u32()?;
            entries.push(ArchivedMapping {
                version,
                matrix: MappingMatrix::decode(r)?,
            });
        }
        Ok(MappingLibrary { entries })
    }

    /// Number of archived mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder, SchemaGraph};

    fn pair(a: &str, b: &str) -> (SchemaGraph, SchemaGraph) {
        let s = SchemaBuilder::new(a, Metamodel::Xml)
            .open("e")
            .attr("x", DataType::Text)
            .close()
            .build();
        let t = SchemaBuilder::new(b, Metamodel::Xml)
            .open("f")
            .attr("y", DataType::Text)
            .close()
            .build();
        (s, t)
    }

    #[test]
    fn versions_increment_per_pair() {
        let (s, t) = pair("po", "inv");
        let mut lib = MappingLibrary::new();
        assert_eq!(lib.archive(MappingMatrix::new(&s, &t)), 1);
        assert_eq!(lib.archive(MappingMatrix::new(&s, &t)), 2);
        let (u, v) = pair("a", "b");
        assert_eq!(lib.archive(MappingMatrix::new(&u, &v)), 1);
        assert_eq!(lib.history(s.id(), t.id()).len(), 2);
        assert_eq!(lib.latest(s.id(), t.id()).unwrap().version, 2);
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn involving_finds_either_side() {
        let (s, t) = pair("po", "inv");
        let mut lib = MappingLibrary::new();
        lib.archive(MappingMatrix::new(&s, &t));
        assert_eq!(lib.involving(s.id()).len(), 1);
        assert_eq!(lib.involving(t.id()).len(), 1);
        assert!(lib.involving(&SchemaId::new("zzz")).is_empty());
    }

    #[test]
    fn empty_library() {
        let lib = MappingLibrary::new();
        assert!(lib.is_empty());
        assert!(lib
            .latest(&SchemaId::new("a"), &SchemaId::new("b"))
            .is_none());
    }
}
