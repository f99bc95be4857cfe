//! Shared contextual state (§5.1.3).
//!
//! "Based on Section 4.2, the blackboard should allow contextual
//! information, such as focus on a particular subschema, to be shared
//! across tools." One tool narrowing its view (the Harmony sub-tree
//! filter) updates the shared context; the next tool launched inherits
//! the focus.

use iwb_model::{ElementPath, SchemaId};
use iwb_store::codec::{ByteReader, ByteWriter, CodecError};

/// The shared focus/settings block stored on the blackboard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedContext {
    /// The sub-schema the engineer is currently focused on, if any.
    pub focus: Option<Focus>,
    /// The confidence-slider threshold shared between tool GUIs.
    pub confidence_threshold: f64,
}

/// A sub-schema focus.
#[derive(Debug, Clone, PartialEq)]
pub struct Focus {
    /// Which schema.
    pub schema: SchemaId,
    /// Root of the focused sub-tree (by path).
    pub subtree: ElementPath,
}

impl SharedContext {
    /// A context with no focus and a zero threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode for a session image.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match &self.focus {
            None => w.u8(0),
            Some(focus) => {
                w.u8(1);
                w.str(focus.schema.as_str());
                w.u32(focus.subtree.segments().len() as u32);
                for segment in focus.subtree.segments() {
                    w.str(segment);
                }
            }
        }
        w.f64(self.confidence_threshold);
    }

    /// Decode [`Self::encode`] bytes.
    pub(crate) fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let focus = match r.u8()? {
            0 => None,
            _ => {
                let schema = SchemaId::new(r.str()?);
                let mut segments = Vec::new();
                for _ in 0..r.u32()? {
                    segments.push(r.str()?);
                }
                Some(Focus {
                    schema,
                    subtree: ElementPath::from_segments(segments),
                })
            }
        };
        Ok(SharedContext {
            focus,
            confidence_threshold: r.f64()?,
        })
    }

    /// Focus on a sub-schema.
    pub fn set_focus(&mut self, schema: SchemaId, subtree: ElementPath) {
        self.focus = Some(Focus { schema, subtree });
    }

    /// Clear the focus.
    pub fn clear_focus(&mut self) {
        self.focus = None;
    }

    /// True if the given path is inside the current focus (always true
    /// when unfocused or when the schema differs — other schemata are
    /// unconstrained).
    pub fn in_focus(&self, schema: &SchemaId, path: &ElementPath) -> bool {
        match &self.focus {
            None => true,
            Some(f) if &f.schema != schema => true,
            Some(f) => f.subtree.is_prefix_of(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focus_scopes_paths() {
        let mut ctx = SharedContext::new();
        let po = SchemaId::new("po");
        ctx.set_focus(po.clone(), ElementPath::parse("po/shipTo"));
        assert!(ctx.in_focus(&po, &ElementPath::parse("po/shipTo/firstName")));
        assert!(!ctx.in_focus(&po, &ElementPath::parse("po/billTo/zip")));
        // Other schemata unconstrained.
        assert!(ctx.in_focus(&SchemaId::new("inv"), &ElementPath::parse("inv/x")));
        ctx.clear_focus();
        assert!(ctx.in_focus(&po, &ElementPath::parse("po/billTo/zip")));
    }
}
