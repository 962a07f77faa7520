//! The construction-time arena.
//!
//! A [`Draft`] is a query while it is being *built*: the parser,
//! [`QueryBuilder`](crate::QueryBuilder) and
//! [`Query::most_specific`](crate::Query::most_specific) write nodes into
//! one array, linked to each other by index, with every name and value a
//! span of one text buffer. `Query::from_draft` sorts and deduplicates the
//! siblings in place and freezes the result into the flat form every other
//! operation walks (see [`ast`](crate::ast)). Nothing answers a question
//! about a query by walking a draft, and none outlives construction.
//!
//! The parser, `most_specific` and `Query::build_with` write into a
//! per-thread draft kept from call to call; a `QueryBuilder` owns its own,
//! because builders nest and clone.
//! Either way a draft costs no allocation per node or per name.

use std::cmp::Ordering;

use crate::ast::{offset, CmpOp, TooDeep};

/// Index of a node in its draft.
pub(crate) type NodeId = u32;

/// No node: the end of a sibling list, or an empty child list.
const NONE: NodeId = NodeId::MAX;

/// Where a token sits in the draft's text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// One node of a draft.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DraftNode {
    /// The exact element name — or, for a leaf, the exact text value.
    pub(crate) name: Span,
    /// Constrains the matched element's text: `op value`.
    pub(crate) comparison: Option<(CmpOp, Span)>,
    first_child: NodeId,
    last_child: NodeId,
    next_sibling: NodeId,
}

/// A query under construction: node 0 is the root.
#[derive(Debug, Clone)]
pub(crate) struct Draft {
    nodes: Vec<DraftNode>,
    text: String,
}

impl Draft {
    /// An empty draft; allocates nothing until written to.
    pub(crate) const fn new() -> Draft {
        Draft {
            nodes: Vec::new(),
            text: String::new(),
        }
    }

    /// An empty draft with room for `nodes` nodes and `text` bytes.
    pub(crate) fn with_capacity(nodes: usize, text: usize) -> Draft {
        Draft {
            nodes: Vec::with_capacity(nodes),
            text: String::with_capacity(text),
        }
    }

    /// Empties the draft, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.text.clear();
    }

    /// Appends `token` to the text and returns its span.
    pub(crate) fn push_text(&mut self, token: &str) -> Span {
        self.push_with(|text| text.push_str(token))
    }

    /// Appends whatever `write` writes to the text and returns its span.
    pub(crate) fn push_with(&mut self, write: impl FnOnce(&mut String)) -> Span {
        let start = self.text.len();
        write(&mut self.text);
        Span {
            start: offset(start),
            len: offset(self.text.len() - start),
        }
    }

    /// Adds a node with no comparison and no children as the last child of
    /// `parent` (or unattached, for a root).
    pub(crate) fn add(&mut self, parent: Option<NodeId>, name: Span) -> NodeId {
        let id = offset(self.nodes.len());
        self.nodes.push(DraftNode {
            name,
            comparison: None,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        });
        if let Some(parent) = parent {
            self.link(parent, id);
        }
        id
    }

    /// Makes `child`, a node with no siblings yet, the last child of
    /// `parent`.
    fn link(&mut self, parent: NodeId, child: NodeId) {
        match self.nodes[parent as usize].last_child {
            NONE => self.nodes[parent as usize].first_child = child,
            last => self.nodes[last as usize].next_sibling = child,
        }
        self.nodes[parent as usize].last_child = child;
    }

    /// Sets (or replaces) the comparison of `node`.
    pub(crate) fn set_comparison(&mut self, node: NodeId, op: CmpOp, value: Span) {
        self.nodes[node as usize].comparison = Some((op, value));
    }

    /// Copies all of `other` in and makes its root the last child of
    /// `parent`.
    pub(crate) fn graft(&mut self, parent: NodeId, other: &Draft) {
        let (base, text_base) = (offset(self.nodes.len()), offset(self.text.len()));
        self.text.push_str(&other.text);
        let shift = |span: Span| Span {
            start: span.start + text_base,
            ..span
        };
        let relink = |id: NodeId| if id == NONE { NONE } else { id + base };
        self.nodes.extend(other.nodes.iter().map(|n| DraftNode {
            name: shift(n.name),
            comparison: n.comparison.map(|(op, value)| (op, shift(value))),
            first_child: relink(n.first_child),
            last_child: relink(n.last_child),
            next_sibling: relink(n.next_sibling),
        }));
        self.link(parent, base);
    }

    /// How many nodes the draft holds, dropped duplicates included.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node `id`.
    pub(crate) fn node(&self, id: NodeId) -> &DraftNode {
        &self.nodes[id as usize]
    }

    /// The text of a span.
    pub(crate) fn text(&self, span: Span) -> &str {
        &self.text[span.start as usize..(span.start + span.len) as usize]
    }

    /// The whole text buffer, which every span points into.
    pub(crate) fn buffer(&self) -> &str {
        &self.text
    }

    /// The children of `id`, in list order.
    pub(crate) fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut next = self.nodes[id as usize].first_child;
        std::iter::from_fn(move || {
            (next != NONE).then(|| {
                let child = next;
                next = self.nodes[child as usize].next_sibling;
                child
            })
        })
    }

    /// The first child of `id` that is a plain `/name` step a path may
    /// continue through: exactly `name`, no comparison.
    pub(crate) fn step(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.children(id).find(|&c| {
            let n = self.node(c);
            n.comparison.is_none() && self.text(n.name) == name
        })
    }

    /// Sorts and deduplicates the children of every node under `id`,
    /// bottom-up, in the normalization order of
    /// [`NodeRef`](crate::NodeRef). `room` is how many levels, this node's
    /// included, may still nest; `order` is sorting room, left as found.
    pub(crate) fn normalize(
        &mut self,
        id: NodeId,
        room: usize,
        order: &mut Vec<NodeId>,
    ) -> Result<(), TooDeep> {
        if room == 0 {
            return Err(TooDeep);
        }
        let base = order.len();
        order.extend(self.children(id));
        for i in base..order.len() {
            self.normalize(order[i], room - 1, order)?;
        }
        // Equal siblings are identical, so the unstable sort (which never
        // allocates) orders them exactly as the stable one would.
        order[base..].sort_unstable_by(|&a, &b| self.cmp(a, b));
        let parent = &mut self.nodes[id as usize];
        parent.first_child = NONE;
        parent.last_child = NONE;
        let mut kept = NONE;
        for &child in &order[base..] {
            if kept == NONE || self.cmp(kept, child) != Ordering::Equal {
                self.nodes[child as usize].next_sibling = NONE;
                self.link(id, child);
                kept = child;
            }
        }
        order.truncate(base);
        Ok(())
    }

    /// The normalization order: name, comparison, then the children,
    /// which must already be sorted.
    fn cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        let key = |id: NodeId| {
            let n = self.node(id);
            (
                self.text(n.name),
                n.comparison.map(|(op, value)| (op, self.text(value))),
            )
        };
        key(a).cmp(&key(b)).then_with(|| {
            let (mut x, mut y) = (self.children(a), self.children(b));
            loop {
                match (x.next(), y.next()) {
                    (None, None) => return Ordering::Equal,
                    (None, Some(_)) => return Ordering::Less,
                    (Some(_), None) => return Ordering::Greater,
                    (Some(c), Some(d)) => match self.cmp(c, d) {
                        Ordering::Equal => {}
                        unequal => return unequal,
                    },
                }
            }
        })
    }
}
