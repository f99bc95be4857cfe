//! Strongly typed identifiers for schemata and schema elements.
//!
//! Elements are arena-allocated inside a [`crate::SchemaGraph`], so an
//! [`ElementId`] is a dense index that is only meaningful relative to the
//! graph that issued it. Schemata are globally identified by a
//! [`SchemaId`], which the blackboard uses to key its repository.

use std::fmt;
use std::sync::Arc;

/// Dense, graph-local identifier of a schema element.
///
/// Issued by [`crate::SchemaGraph::add_root`] / `add_child`; valid only for
/// the issuing graph. The underlying index is exposed via [`Self::index`]
/// for use in parallel arrays (the match engine keeps per-element score
/// vectors indexed this way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub(crate) u32);

impl ElementId {
    /// Construct an id from a raw index.
    ///
    /// Intended for deserialisers and tests; passing an index that was not
    /// issued by the target graph makes later lookups panic.
    pub fn from_index(index: usize) -> Self {
        ElementId(u32::try_from(index).expect("element index exceeds u32"))
    }

    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Where each id of a list sits in that list, looked up by the id's
/// dense [`ElementId::index`]: one slot of 4 bytes per element of the
/// issuing graph, so a lookup is one bounds-checked array read. Score
/// and mapping matrices keep one table per side to turn an element id
/// into a row or column.
///
/// An id the list does not hold, or one past the end of the table, has
/// no position. A repeated id keeps its first position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Positions(Vec<u32>);

impl Positions {
    const ABSENT: u32 = u32::MAX;

    /// The position table of `ids`.
    pub fn of(ids: &[ElementId]) -> Positions {
        let len = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut table = vec![Self::ABSENT; len];
        for (i, id) in ids.iter().enumerate().rev() {
            table[id.index()] = u32::try_from(i).expect("id list exceeds u32");
        }
        Positions(table)
    }

    /// The position of `id` in the list, if it holds it.
    pub fn get(&self, id: ElementId) -> Option<usize> {
        match self.0.get(id.index()) {
            Some(&p) if p != Self::ABSENT => Some(p as usize),
            _ => None,
        }
    }
}

/// Globally unique identifier of a schema within a workbench instance.
///
/// The blackboard keys its schema repository by `SchemaId`; loaders derive
/// it from the imported artifact's name (file stem, database name, message
/// format name). The name is shared, not copied: cloning an id (once per
/// written matrix cell and per mapping-cell event) bumps a reference
/// count. Equality, ordering, hashing and formatting are those of the
/// name string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaId(Arc<str>);

impl SchemaId {
    /// Create a schema id from a name (one allocation).
    pub fn new(name: impl AsRef<str>) -> Self {
        SchemaId(Arc::from(name.as_ref()))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SchemaId {
    fn from(s: &str) -> Self {
        SchemaId::new(s)
    }
}

impl From<String> for SchemaId {
    fn from(s: String) -> Self {
        SchemaId::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_id_round_trips_through_index() {
        let id = ElementId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "e42");
    }

    #[test]
    fn element_ids_order_by_index() {
        assert!(ElementId::from_index(1) < ElementId::from_index(2));
    }

    #[test]
    fn positions_find_listed_ids_only() {
        let id = ElementId::from_index;
        let table = Positions::of(&[id(4), id(1), id(7), id(1)]);
        assert_eq!(table.get(id(4)), Some(0));
        assert_eq!(
            table.get(id(1)),
            Some(1),
            "a repeated id keeps its first position"
        );
        assert_eq!(table.get(id(7)), Some(2));
        assert_eq!(table.get(id(0)), None, "inside the table, not listed");
        assert_eq!(table.get(id(8)), None, "past the end of the table");
        assert_eq!(Positions::of(&[]).get(id(0)), None);
    }

    #[test]
    fn schema_id_display_matches_source() {
        let id = SchemaId::from("purchaseOrder");
        assert_eq!(id.to_string(), "purchaseOrder");
        assert_eq!(id.as_str(), "purchaseOrder");
        assert_eq!(format!("{id:?}"), r#"SchemaId("purchaseOrder")"#);
    }

    #[test]
    fn schema_ids_compare_by_name() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        assert_eq!(SchemaId::from("a"), SchemaId::new(String::from("a")));
        assert_ne!(SchemaId::from("a"), SchemaId::from("b"));
        assert!(SchemaId::from("a") < SchemaId::from("b"));
        fn hash_of(x: impl Hash) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        assert_eq!(
            hash_of(SchemaId::from("po")),
            hash_of("po"),
            "an id hashes as its name, so fingerprints and content keys keep their values"
        );
    }
}
