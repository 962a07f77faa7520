//! The construction-time tree.
//!
//! [`Pattern`] is a query while it is being *built*: the parser,
//! [`QueryBuilder`](crate::QueryBuilder) and
//! [`Query::most_specific`](crate::Query::most_specific) grow one, and
//! `Query::from_root` sorts and deduplicates it and freezes it into the
//! flat form every other operation walks (see [`ast`](crate::ast)).
//! Nothing answers a question about a query by walking a `Pattern`, and
//! none outlives construction.

use crate::ast::{Axis, CmpOp, TooDeep};

/// What names a pattern node accepts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum NameTest {
    /// An exact element name — or, for leaf nodes, an exact text value
    /// (the paper's simplified syntax writes values as final steps, e.g.
    /// `/article/title/TCP`).
    Name(String),
    /// The wildcard `*`: any element name.
    Wildcard,
}

/// One node of a tree pattern under construction.
///
/// The derived order — axis, name test, comparison, children — is the
/// normalization order: it decides how branches sort and therefore what
/// the canonical text, and every DHT key, is.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Pattern {
    pub(crate) axis: Axis,
    pub(crate) test: NameTest,
    /// Constrains the matched element's text: `op value`.
    pub(crate) comparison: Option<(CmpOp, String)>,
    pub(crate) children: Vec<Pattern>,
}

impl Pattern {
    /// Creates a leaf pattern node.
    pub(crate) fn leaf(axis: Axis, test: NameTest) -> Pattern {
        Pattern {
            axis,
            test,
            comparison: None,
            children: Vec::new(),
        }
    }

    /// True when the node constrains nothing below itself: a pure
    /// name/value leaf.
    pub(crate) fn is_leaf(&self) -> bool {
        self.children.is_empty() && self.comparison.is_none()
    }

    /// Sorts and deduplicates the subtree, in place. `room` is how many
    /// levels, this node's included, may still nest.
    pub(crate) fn normalize(&mut self, room: usize) -> Result<(), TooDeep> {
        if room == 0 {
            return Err(TooDeep);
        }
        for c in &mut self.children {
            c.normalize(room - 1)?;
        }
        // Equal siblings are identical, so the unstable sort (which never
        // allocates) orders them exactly as the stable one would.
        self.children.sort_unstable();
        self.children.dedup();
        Ok(())
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub(crate) fn depth(&self) -> usize {
        1 + self.children.iter().map(Pattern::depth).max().unwrap_or(0)
    }
}
