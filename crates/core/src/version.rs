//! Schema versioning (§5.1.3).
//!
//! "Schemata inevitably change; the blackboard should track schemata
//! across versions." Versions of a schema are kept as a chain; a
//! structural diff between versions tells downstream tools which
//! correspondences need revisiting, and "one also needs a means to keep
//! the metadata in synch, as the actual systems change" (§3.1).

use iwb_model::{SchemaGraph, SchemaId};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};
use iwb_store::{decode_schema, encode_schema};
use std::collections::{BTreeMap, BTreeSet};

/// A structural diff between two schema versions, by name path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemaDiff {
    /// Paths present only in the newer version.
    pub added: Vec<String>,
    /// Paths present only in the older version.
    pub removed: Vec<String>,
    /// Paths present in both whose type or documentation changed.
    pub changed: Vec<String>,
}

impl SchemaDiff {
    /// True when the versions are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }
}

/// Compute the diff from `old` to `new`.
pub fn diff(old: &SchemaGraph, new: &SchemaGraph) -> SchemaDiff {
    let collect = |g: &SchemaGraph| -> BTreeMap<String, (String, String)> {
        g.iter()
            .map(|(id, el)| {
                (
                    g.name_path(id),
                    (
                        el.data_type
                            .as_ref()
                            .map(|t| t.to_string())
                            .unwrap_or_default(),
                        el.documentation.clone().unwrap_or_default(),
                    ),
                )
            })
            .collect()
    };
    let old_map = collect(old);
    let new_map = collect(new);
    let old_keys: BTreeSet<&String> = old_map.keys().collect();
    let new_keys: BTreeSet<&String> = new_map.keys().collect();
    SchemaDiff {
        added: new_keys
            .difference(&old_keys)
            .map(|s| (*s).clone())
            .collect(),
        removed: old_keys
            .difference(&new_keys)
            .map(|s| (*s).clone())
            .collect(),
        changed: old_keys
            .intersection(&new_keys)
            .filter(|k| old_map[**k] != new_map[**k])
            .map(|s| (*s).clone())
            .collect(),
    }
}

/// The version chain for every schema on the blackboard.
#[derive(Debug, Clone, Default)]
pub struct SchemaVersions {
    chains: BTreeMap<SchemaId, Vec<SchemaGraph>>,
}

impl SchemaVersions {
    /// Empty version store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a new version; returns the 1-based version number.
    pub fn record(&mut self, schema: SchemaGraph) -> u32 {
        let chain = self.chains.entry(schema.id().clone()).or_default();
        chain.push(schema);
        chain.len() as u32
    }

    /// Encode for a session image. A version equal to the board's live
    /// schema of its id (`live`, usually the last of the chain) is
    /// written as a one-byte reference instead of a second copy.
    pub(crate) fn encode(&self, w: &mut ByteWriter, live: &BTreeMap<SchemaId, Vec<u8>>) {
        w.u32(self.chains.len() as u32);
        for (id, chain) in &self.chains {
            w.str(id.as_str());
            w.u32(chain.len() as u32);
            for graph in chain {
                let bytes = encode_schema(graph);
                if live.get(id) == Some(&bytes) {
                    w.u8(0);
                } else {
                    w.u8(1);
                    w.bytes(&bytes);
                }
            }
        }
    }

    /// Decode [`Self::encode`] bytes against the same live schemas.
    pub(crate) fn decode(
        r: &mut ByteReader,
        live: &BTreeMap<SchemaId, SchemaGraph>,
    ) -> Result<Self, CodecError> {
        let mut chains = BTreeMap::new();
        for _ in 0..r.u32()? {
            let id = SchemaId::new(r.str()?);
            let mut chain = Vec::new();
            for _ in 0..r.u32()? {
                chain.push(match r.u8()? {
                    0 => live
                        .get(&id)
                        .cloned()
                        .ok_or(CodecError::Invalid("version names a missing schema"))?,
                    _ => decode_schema(r.bytes()?)?,
                });
            }
            chains.insert(id, chain);
        }
        Ok(SchemaVersions { chains })
    }

    /// Number of versions recorded for a schema.
    pub fn version_count(&self, id: &SchemaId) -> usize {
        self.chains.get(id).map(Vec::len).unwrap_or(0)
    }

    /// A specific version (1-based).
    pub fn version(&self, id: &SchemaId, version: u32) -> Option<&SchemaGraph> {
        self.chains.get(id)?.get(version.checked_sub(1)? as usize)
    }

    /// The latest version.
    pub fn latest(&self, id: &SchemaId) -> Option<&SchemaGraph> {
        self.chains.get(id).and_then(|c| c.last())
    }

    /// Diff two recorded versions.
    pub fn diff_versions(&self, id: &SchemaId, from: u32, to: u32) -> Option<SchemaDiff> {
        Some(diff(self.version(id, from)?, self.version(id, to)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwb_model::{DataType, Metamodel, SchemaBuilder};

    fn v1() -> SchemaGraph {
        SchemaBuilder::new("po", Metamodel::Xml)
            .open("shipTo")
            .attr("firstName", DataType::Text)
            .attr_doc("subtotal", DataType::Decimal, "Pre-tax sum.")
            .close()
            .build()
    }

    fn v2() -> SchemaGraph {
        SchemaBuilder::new("po", Metamodel::Xml)
            .open("shipTo")
            .attr("firstName", DataType::Text)
            .attr_doc("subtotal", DataType::Decimal, "Pre-tax sum in USD.") // doc changed
            .attr("zipCode", DataType::Text) // added
            .close()
            .build()
    }

    #[test]
    fn diff_reports_added_removed_changed() {
        let d = diff(&v1(), &v2());
        assert_eq!(d.added, vec!["po/shipTo/zipCode".to_owned()]);
        assert!(d.removed.is_empty());
        assert_eq!(d.changed, vec!["po/shipTo/subtotal".to_owned()]);
        assert!(!d.is_empty());
        let same = diff(&v1(), &v1());
        assert!(same.is_empty());
    }

    #[test]
    fn chains_record_and_diff() {
        let mut vs = SchemaVersions::new();
        assert_eq!(vs.record(v1()), 1);
        assert_eq!(vs.record(v2()), 2);
        let id = SchemaId::new("po");
        assert_eq!(vs.version_count(&id), 2);
        assert_eq!(vs.latest(&id).unwrap().len(), v2().len());
        let d = vs.diff_versions(&id, 1, 2).unwrap();
        assert_eq!(d.added.len(), 1);
        assert!(vs.diff_versions(&id, 1, 9).is_none());
        assert!(vs.version(&id, 0).is_none());
    }
}
