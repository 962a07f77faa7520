//! The query AST: frozen, normalized tree patterns.
//!
//! A query in the paper's XPath subset — child steps, predicates, value
//! leaves, and the comparisons `=`, `^=` and `*=` — is a *tree pattern*:
//! a rooted tree of nodes where the syntactic distinction between
//! a path continuation (`/article/title/TCP`) and a predicate
//! (`/article[title/TCP]`) disappears. Boolean matching semantics make the
//! two forms equivalent, so collapsing them (plus sorting and deduplicating
//! branches) yields the "unique normalized format" the paper requires
//! before hashing queries into the DHT key space (footnote 1, §III-B).
//!
//! A [`Query`] holds that tree *frozen*: one array of nodes in pre-order,
//! each with a skip link past its subtree, and one text buffer that starts
//! with the canonical text — so `Key::hash_of(query.canonical_text())` is
//! well-defined and free — and in which every name and comparison value is
//! a span. Covering, matching, rendering and generalizing all walk this
//! form ([`NodeRef`] is the borrowed view of one node). Construction writes
//! into an index-linked arena of the private `draft` module instead, which
//! `Query::from_draft` sorts and freezes: a constructed query allocates
//! its node array, its text buffer and the `Arc` that holds both, and
//! nothing else.

use std::cell::Cell;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use p2p_index_xmldoc as xmldoc;

use crate::draft::{Draft, NodeId};
use crate::parse::is_bare_char;

/// The deepest a query may nest (`/article` has depth 1): one more than
/// [`xmldoc::MAX_DEPTH`], so the most specific query of the deepest
/// descriptor the XML parser accepts — its elements plus a value leaf —
/// still fits.
///
/// Every client parses the values it reads as queries, and parsing,
/// normalizing, covering and matching all recurse along the nesting, so
/// without a bound one stored value could overflow the stack of whoever
/// reads it. The parser, the builder and the freeze step refuse anything
/// deeper with [`TooDeep`]; every walk of a frozen query is therefore at
/// most this deep.
pub const MAX_DEPTH: usize = xmldoc::MAX_DEPTH + 1;

/// A query nests deeper than [`MAX_DEPTH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooDeep;

impl fmt::Display for TooDeep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query nests deeper than {MAX_DEPTH} levels")
    }
}

impl Error for TooDeep {}

/// Comparison operators usable in predicates (`[year=1990]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `^=` — string prefix test (`[author/last^=S]` selects last names
    /// starting with "S"; the initial-letter indexes of §IV-C).
    StartsWith,
    /// `*=` — substring test (`[title*=Routing]` selects titles containing
    /// "Routing"; enables the keyword indexes sketched in the related-work
    /// discussion of splitting query strings).
    Contains,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::StartsWith => "^=",
            CmpOp::Contains => "*=",
        }
    }

    /// Evaluates `left OP right` on the raw strings: `=` is string
    /// equality (so `[y=100]` means what the value leaf `y/100` means, and
    /// `"0100"` is not `"100"`), `^=` a prefix test, `*=` a substring test.
    pub fn eval(&self, left: &str, right: &str) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::StartsWith => left.starts_with(right),
            CmpOp::Contains => left.contains(right),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A value comparison attached to a pattern node, constraining the text
/// content of the matched element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Comparison<'a> {
    /// The operator.
    pub op: CmpOp,
    /// The constant right-hand side.
    pub value: &'a str,
}

/// A token is written bare only if the parser reads it back as one bare
/// name; anything else (spaces, slashes, brackets, quotes, operators) is
/// quoted.
fn needs_quoting(token: &str) -> bool {
    token.is_empty() || !token.chars().all(is_bare_char)
}

/// One node of a frozen query. Nodes sit in pre-order, so a node's strict
/// descendants are the indices `self + 1 .. end`, and its children are
/// reached by hopping from one child's `end` to the next.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Where the name starts in the text buffer.
    name: u32,
    name_len: u32,
    /// Where the comparison's right-hand side starts (if `op` is set).
    value: u32,
    value_len: u32,
    /// One past the last node of this node's subtree.
    end: u32,
    op: Option<CmpOp>,
}

/// Offsets and node indices are stored as `u32`: a query comes from a
/// frame of at most 16 MiB or from a descriptor already in memory.
pub(crate) fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a query's text and node count fit in 32 bits")
}

/// What a [`Query`] shares between its clones.
struct Flat {
    nodes: Box<[Node]>,
    /// The canonical text, then the raw form of each name and value the
    /// canonical text shows escaped (those spans point past `canon_len`).
    text: Box<str>,
    canon_len: u32,
}

/// A borrowed view of one pattern node of a [`Query`].
///
/// The derived-looking order — name, comparison, children — is the
/// normalization order: siblings are strictly ascending in it, which is
/// what makes the canonical text, and every DHT key, unique.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    nodes: &'a [Node],
    text: &'a str,
    index: usize,
}

impl<'a> NodeRef<'a> {
    fn node(&self) -> &'a Node {
        &self.nodes[self.index]
    }

    fn span(&self, start: u32, len: u32) -> &'a str {
        &self.text[start as usize..(start + len) as usize]
    }

    /// The exact element name — or, for a leaf, the exact text value —
    /// this node requires.
    pub fn name(&self) -> &'a str {
        let n = self.node();
        self.span(n.name, n.name_len)
    }

    /// The comparison constraining the matched element's text, if any.
    pub fn comparison(&self) -> Option<Comparison<'a>> {
        let n = self.node();
        n.op.map(|op| Comparison {
            op,
            value: self.span(n.value, n.value_len),
        })
    }

    /// Child pattern nodes, in normalized order.
    pub fn children(self) -> impl Iterator<Item = NodeRef<'a>> {
        let end = self.node().end as usize;
        let mut next = self.index + 1;
        std::iter::from_fn(move || {
            (next < end).then(|| {
                let child = NodeRef {
                    index: next,
                    ..self
                };
                next = child.node().end as usize;
                child
            })
        })
    }

    /// True when the node constrains nothing below itself: a pure
    /// name/value leaf.
    pub fn is_leaf(&self) -> bool {
        let n = self.node();
        n.end as usize == self.index + 1 && n.op.is_none()
    }

    /// Depth of this subtree (a leaf has depth 1).
    fn depth(self) -> usize {
        1 + self.children().map(NodeRef::depth).max().unwrap_or(0)
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef")
            .field("name", &self.name())
            .field("comparison", &self.comparison())
            .field("children", &self.children().count())
            .finish()
    }
}

impl Ord for NodeRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.name(), self.comparison())
            .cmp(&(other.name(), other.comparison()))
            .then_with(|| self.children().cmp(other.children()))
    }
}

impl PartialOrd for NodeRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NodeRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NodeRef<'_> {}

/// The renderer's output: a frozen query in the making.
struct Frozen {
    nodes: Vec<Node>,
    canon: String,
    /// Raw forms of the tokens `canon` shows escaped.
    raw: String,
    /// Whose spans point into `raw`: node index, and whether it is the
    /// node's comparison value (else its name).
    in_raw: Vec<(usize, bool)>,
}

/// Index of no node: render everything.
const NO_SKIP: usize = usize::MAX;

impl Frozen {
    /// An empty renderer; allocates nothing until written to.
    const fn new() -> Frozen {
        Frozen {
            nodes: Vec::new(),
            canon: String::new(),
            raw: String::new(),
            in_raw: Vec::new(),
        }
    }

    /// Renders `root` minus the subtree at `skip`, leaving its canonical
    /// text in `canon` for [`freeze`](Self::freeze) or a lookup.
    fn render(&mut self, root: NodeRef<'_>, skip: usize) {
        self.nodes.clear();
        self.canon.clear();
        self.raw.clear();
        self.in_raw.clear();
        self.emit(root, skip, false);
    }

    /// Renders the subtree of `node`, minus the subtree rooted at index
    /// `skip`, in canonical syntax, laying its nodes out as it goes.
    /// `relative` suppresses the `/` of the first step inside a predicate
    /// (`[author[...]]`, not `[/author[...]]`).
    fn emit(&mut self, node: NodeRef<'_>, skip: usize, relative: bool) {
        debug_assert!(
            node.children()
                .zip(node.children().skip(1))
                .all(|(a, b)| a < b),
            "siblings must be strictly ascending"
        );
        let n = *node.node();
        if !relative {
            self.canon.push('/');
        }
        let at = self.nodes.len();
        self.nodes.push(n);
        let (name, name_len) = self.token(node.name(), at, false);
        // A single comparison-free child continues the path; anything else
        // renders as sorted predicates. This reproduces the paper's style:
        // chains print as `/article/author/last/Smith`, branches as
        // `/article[author[...]][conf/INFOCOM]`.
        let kids = || node.children().filter(move |c| c.index != skip);
        let mut first_two = kids();
        match (first_two.next(), first_two.next()) {
            (Some(only), None) if n.op.is_none() && only.node().op.is_none() => {
                self.emit(only, skip, false);
            }
            _ => {
                for kid in kids() {
                    self.canon.push('[');
                    self.emit(kid, skip, true);
                    self.canon.push(']');
                }
            }
        }
        // Each node renders its own comparison, after its predicates,
        // matching the parser which binds `op value` to the last step.
        let (value, value_len) = match node.comparison() {
            Some(cmp) => {
                self.canon.push_str(cmp.op.symbol());
                self.token(cmp.value, at, true)
            }
            None => (0, 0),
        };
        self.nodes[at] = Node {
            name,
            name_len,
            value,
            value_len,
            end: offset(self.nodes.len()),
            ..n
        };
    }

    /// Writes one name or value, quoted and escaped if it has to be, and
    /// returns the span its raw form can be read back from.
    fn token(&mut self, token: &str, at: usize, is_value: bool) -> (u32, u32) {
        let quoted = needs_quoting(token);
        if quoted {
            self.canon.push('"');
        }
        let start = if quoted && token.contains(['\\', '"']) {
            for c in token.chars() {
                if matches!(c, '\\' | '"') {
                    self.canon.push('\\');
                }
                self.canon.push(c);
            }
            self.in_raw.push((at, is_value));
            self.raw.push_str(token);
            self.raw.len() - token.len()
        } else {
            self.canon.push_str(token);
            self.canon.len() - token.len()
        };
        if quoted {
            self.canon.push('"');
        }
        (offset(start), offset(token.len()))
    }

    /// What [`emit`](Self::emit) rendered: `known`'s query when it holds
    /// the canonical text, else [`freeze`](Self::freeze)d and handed to
    /// [`KnownQueries::add`].
    fn known_or_freeze(&mut self, known: &mut (impl KnownQueries + ?Sized)) -> Query {
        known.find(&self.canon).unwrap_or_else(|| {
            let query = self.freeze();
            known.add(&query);
            query
        })
    }

    /// Freezes what [`emit`](Self::emit) rendered: three allocations —
    /// the node array, the text buffer, the `Arc` — whatever the size.
    fn freeze(&mut self) -> Query {
        let canon_len = offset(self.canon.len());
        for &(at, is_value) in &self.in_raw {
            let node = &mut self.nodes[at];
            if is_value {
                node.value += canon_len;
            } else {
                node.name += canon_len;
            }
        }
        let mut text = String::with_capacity(self.canon.len() + self.raw.len());
        text.push_str(&self.canon);
        text.push_str(&self.raw);
        Query(Arc::new(Flat {
            nodes: self.nodes.as_slice().into(),
            text: text.into_boxed_str(),
            canon_len,
        }))
    }
}

/// Lays a normalized draft out in pre-order, every span pointing into the
/// draft's own text: the renderer's input.
fn stage(draft: &Draft, id: NodeId, nodes: &mut Vec<Node>) {
    let n = draft.node(id);
    let (value, value_len) = n.comparison.map_or((0, 0), |(_, s)| (s.start, s.len));
    let at = nodes.len();
    nodes.push(Node {
        name: n.name.start,
        name_len: n.name.len,
        value,
        value_len,
        end: 0,
        op: n.comparison.map(|(op, _)| op),
    });
    for child in draft.children(id) {
        stage(draft, child, nodes);
    }
    nodes[at].end = offset(nodes.len());
}

/// Per-thread buffers of construction, so that building a query allocates
/// only what the query keeps: the draft the parser,
/// [`Query::most_specific`] and [`Query::build_with`] write into, and the
/// freeze step's sorting room, staging array and renderer.
struct Scratch {
    draft: Draft,
    order: Vec<NodeId>,
    staged: Vec<Node>,
    out: Frozen,
}

impl Scratch {
    /// Empty buffers; allocates nothing until written to.
    const fn new() -> Scratch {
        Scratch {
            draft: Draft::new(),
            order: Vec::new(),
            staged: Vec::new(),
            out: Frozen::new(),
        }
    }
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const { Cell::new(Scratch::new()) };
}

/// Runs `f` on this thread's construction buffers, moved out of their slot
/// for the call: code `f` calls back into (a builder's closure, a
/// [`KnownQueries`] table) may build queries of its own, which then work
/// on fresh buffers instead of finding these borrowed.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    let mut scratch = SCRATCH.take();
    let result = f(&mut scratch);
    SCRATCH.set(scratch);
    result
}

/// Normalizes the draft rooted at node 0 and renders its canonical text
/// exactly once: `known`'s query if it holds that text, else the draft
/// frozen.
fn freeze_draft(
    draft: &mut Draft,
    order: &mut Vec<NodeId>,
    staged: &mut Vec<Node>,
    out: &mut Frozen,
    known: &mut (impl KnownQueries + ?Sized),
) -> Result<Query, TooDeep> {
    order.clear();
    draft.normalize(0, MAX_DEPTH, order)?;
    staged.clear();
    stage(draft, 0, staged);
    let root = NodeRef {
        nodes: staged,
        text: draft.buffer(),
        index: 0,
    };
    out.render(root, NO_SKIP);
    Ok(out.known_or_freeze(known))
}

/// A normalized query over descriptors.
///
/// Create queries with [`Query::parse`](crate::parse_query),
/// [`QueryBuilder`](crate::QueryBuilder), or
/// [`Query::most_specific`](crate::Query::most_specific); all three produce
/// the same canonical representation, so equal queries are `==` and print
/// identically.
///
/// A query is frozen at construction into one node array and one text
/// buffer behind a single `Arc`: `Query::clone` is one reference-count
/// bump, and whoever holds the same query — a request script, a memo
/// table, a shortcut cache — shares that one copy. The buffer starts with
/// the canonical text, so `Display`,
/// [`canonical_text`](Query::canonical_text), equality, hashing and
/// ordering read it instead of walking anything; the DHT key `h(q)` is a
/// hash of bytes already in memory.
///
/// # Examples
///
/// ```
/// use p2p_index_xpath::Query;
///
/// // Predicate order does not matter after normalization:
/// let a: Query = "/article[conf/INFOCOM][author/last/Smith]".parse()?;
/// let b: Query = "/article[author/last/Smith][conf/INFOCOM]".parse()?;
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), b.to_string());
/// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
/// ```
#[derive(Clone)]
pub struct Query(Arc<Flat>);

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Query")
            .field(&self.canonical_text())
            .finish()
    }
}

/// The normalized canonical rendering is injective (guaranteed by the
/// parse-roundtrip property tests), so the canonical text is a faithful
/// proxy for the whole tree: comparing/hashing it gives exactly the
/// tree-equality semantics, without traversals or allocations.
impl PartialEq for Query {
    fn eq(&self, other: &Query) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.canonical_text() == other.canonical_text()
    }
}

impl Eq for Query {}

impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_text().hash(state);
    }
}

impl PartialOrd for Query {
    fn partial_cmp(&self, other: &Query) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Query {
    fn cmp(&self, other: &Query) -> Ordering {
        self.canonical_text().cmp(other.canonical_text())
    }
}

impl Query {
    /// Normalizes a draft (its root is node 0) and freezes it, rendering
    /// the canonical text exactly once. The draft is left sorted.
    pub(crate) fn from_draft(draft: &mut Draft) -> Result<Query, TooDeep> {
        with_scratch(|scratch| {
            let Scratch {
                order, staged, out, ..
            } = scratch;
            freeze_draft(draft, order, staged, out, &mut ())
        })
    }

    /// Lets `write` build a query in this thread's draft, then takes it
    /// from `known` or freezes it: the parser's,
    /// [`most_specific`](Query::most_specific)'s and
    /// [`build_with`](Query::build_with)'s path, which allocates nothing
    /// but the query, and nothing at all for a query `known` holds. The
    /// outer error is `write`'s own.
    pub(crate) fn in_scratch<E>(
        known: &mut (impl KnownQueries + ?Sized),
        write: impl FnOnce(&mut Draft) -> Result<(), E>,
    ) -> Result<Result<Query, TooDeep>, E> {
        with_scratch(|scratch| {
            let Scratch {
                draft,
                order,
                staged,
                out,
            } = scratch;
            draft.clear();
            write(draft)?;
            Ok(freeze_draft(draft, order, staged, out, known))
        })
    }

    /// The root pattern node.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef {
            nodes: &self.0.nodes,
            text: &self.0.text,
            index: 0,
        }
    }

    /// The root element name this query requires.
    pub fn root_name(&self) -> &str {
        self.root().name()
    }

    /// Number of pattern nodes.
    pub fn size(&self) -> usize {
        self.0.nodes.len()
    }

    /// Pattern depth (`/article` has depth 1).
    pub fn depth(&self) -> usize {
        self.root().depth()
    }

    /// The canonical text; equal to `self.to_string()` and suitable as the
    /// hash input `h(q)`. Rendered at construction — this is a borrow, not
    /// a render, so hot paths can read lengths and hash inputs without
    /// allocating.
    pub fn canonical_text(&self) -> &str {
        &self.0.text[..self.0.canon_len as usize]
    }

    /// The top-level branches (children of the root).
    pub fn top_branches(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.root().children()
    }

    /// This query without the top-level branch rooted at node `branch`.
    /// Every level stays sorted and deduplicated when a subtree goes, so
    /// this is one pass over the frozen nodes: no tree, no sort.
    fn without(&self, branch: usize) -> Query {
        with_scratch(|scratch| {
            scratch.out.render(self.root(), branch);
            scratch.out.freeze()
        })
    }

    /// A copy of this query with top-level branch `index` removed — the
    /// one-step *generalization* used when a query is not indexed (§IV-B:
    /// "looking for a query qᵢ such that qᵢ ⊒ q").
    ///
    /// Returns `None` if `index` is out of range.
    #[must_use]
    pub fn drop_top_branch(&self, index: usize) -> Option<Query> {
        let branch = self.top_branches().nth(index)?;
        Some(self.without(branch.index))
    }

    /// All one-step generalizations: each top-level branch dropped in turn.
    /// Broadest-first exploration of these reaches every indexed ancestor.
    pub fn generalizations(&self) -> Vec<Query> {
        let mut out = Vec::with_capacity(self.top_branches().count());
        self.generalizations_into(&mut out);
        out
    }

    /// Appends all one-step generalizations to `out` — the sibling of
    /// [`generalizations`](Self::generalizations) for hot loops that keep a
    /// reusable frontier buffer. It is
    /// [`generalizations_known`](Self::generalizations_known) with a table
    /// that holds nothing, so every generalization is frozen anew.
    pub fn generalizations_into(&self, out: &mut Vec<Query>) {
        self.generalizations_known(&mut (), out);
    }

    /// Appends all one-step generalizations to `out`, in
    /// [`generalizations`](Self::generalizations) order, taking each from
    /// `known` when it holds the generalization's canonical text. Each
    /// text is rendered into this thread's buffers, and only a text
    /// `known` lacks is frozen — then handed to [`KnownQueries::add`] — so
    /// a generalization the table holds costs a lookup and a refcount
    /// bump, not an allocation.
    pub fn generalizations_known(
        &self,
        known: &mut (impl KnownQueries + ?Sized),
        out: &mut Vec<Query>,
    ) {
        with_scratch(|scratch| {
            for branch in self.top_branches() {
                scratch.out.render(self.root(), branch.index);
                out.push(scratch.out.known_or_freeze(known));
            }
        });
    }
}

/// A table of queries by canonical text, which
/// [`Query::generalizations_known`], [`Query::build_with_known`] and
/// [`Query::most_specific_known`] ask before they freeze a query: a
/// client's known queries, say, so that a warm client derives the
/// generalizations it derived before, and writes the index queries it
/// read before, without allocating.
pub trait KnownQueries {
    /// The query whose canonical text is `text`, if the table holds it.
    fn find(&mut self, text: &str) -> Option<Query>;

    /// Takes in `query`, just frozen because [`find`](Self::find) did not
    /// hold its text. A table may decline it.
    fn add(&mut self, query: &Query);
}

/// The table that holds nothing: every query is frozen.
impl KnownQueries for () {
    fn find(&mut self, _text: &str) -> Option<Query> {
        None
    }

    fn add(&mut self, _query: &Query) {}
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Freezes the draft `build` writes (its first node is the root).
    fn frozen(build: impl FnOnce(&mut Draft)) -> Query {
        let mut draft = Draft::new();
        build(&mut draft);
        Query::from_draft(&mut draft).expect("test trees are shallow")
    }

    /// A node named `name` under `parent`.
    fn node(d: &mut Draft, parent: Option<NodeId>, name: &str) -> NodeId {
        let name = d.push_text(name);
        d.add(parent, name)
    }

    /// A path of nodes under `parent`; returns the last.
    fn chain(d: &mut Draft, parent: Option<NodeId>, names: &[&str]) -> NodeId {
        names
            .iter()
            .fold(parent, |at, name| Some(node(d, at, name)))
            .expect("a non-empty path")
    }

    #[test]
    fn cmp_op_numeric_and_lexicographic() {
        // `=` compares the text, numbers included: no spelling of a
        // number equals another.
        assert!(CmpOp::Eq.eval("100", "100"));
        assert!(!CmpOp::Eq.eval("0100", "100"));
        assert!(!CmpOp::Eq.eval(" 1996", "1996.0"));
        assert!(CmpOp::Eq.eval("NaN", "NaN"));
        assert!(CmpOp::Eq.eval("apple", "apple")); // string equality
        assert!(!CmpOp::Eq.eval("apple", "Apple"));
        assert!(!CmpOp::Eq.eval("0100", "x100"));
        // `^=` and `*=` read the raw strings, numbers included.
        assert!(CmpOp::StartsWith.eval("1996", "19"));
        assert!(!CmpOp::StartsWith.eval("0100", "1"));
        assert!(CmpOp::Contains.eval("Adaptive Routing", "Rout"));
        assert!(!CmpOp::Contains.eval("Routing", "routing"));
    }

    #[test]
    fn display_chain_as_path() {
        let q = frozen(|d| {
            chain(d, None, &["article", "author", "last", "Smith"]);
        });
        assert_eq!(q.to_string(), "/article/author/last/Smith");
    }

    #[test]
    fn display_branches_as_predicates() {
        let q = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["title", "TCP"]);
            let author = node(d, Some(article), "author");
            chain(d, Some(author), &["first", "John"]);
            chain(d, Some(author), &["last", "Smith"]);
        });
        // Children sort deterministically (author < title).
        assert_eq!(
            q.to_string(),
            "/article[author[first/John][last/Smith]][title/TCP]"
        );
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let a = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["year", "1996"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
        });
        let b = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["conf", "INFOCOM"]);
            chain(d, Some(article), &["year", "1996"]);
        });
        assert_eq!(a, b);
        assert_eq!(a.size(), 5);
    }

    #[test]
    fn normalization_dedups_whole_subtrees_only() {
        // Equal after their own children sort; unequal below the first
        // level.
        let q = frozen(|d| {
            let root = node(d, None, "r");
            for (x, y) in [("x", "y"), ("y", "x"), ("x", "z")] {
                let a = node(d, Some(root), "a");
                node(d, Some(a), x);
                node(d, Some(a), y);
            }
        });
        assert_eq!(q.to_string(), "/r[a[x][y]][a[x][z]]");
    }

    #[test]
    fn quoting_in_display() {
        let q = frozen(|d| {
            chain(d, None, &["article", "title", "A Space Odyssey"]);
        });
        assert_eq!(q.to_string(), "/article/title/\"A Space Odyssey\"");
    }

    #[test]
    fn quoting_escapes_quotes_and_backslashes() {
        let q = frozen(|d| {
            chain(d, None, &["t", "say \"hi\" \\ bye"]);
        });
        assert_eq!(q.to_string(), r#"/t/"say \"hi\" \\ bye""#);
        // `*` is no bare character, so a name `*` is quoted like any
        // other punctuation.
        let star = frozen(|d| {
            chain(d, None, &["a", "*"]);
        });
        assert_eq!(star.to_string(), r#"/a/"*""#);
    }

    #[test]
    fn comparison_renders_in_predicate() {
        let q = frozen(|d| {
            let year = chain(d, None, &["article", "year"]);
            let value = d.push_text("1990");
            d.set_comparison(year, CmpOp::StartsWith, value);
        });
        assert_eq!(q.to_string(), "/article[year^=1990]");
    }

    #[test]
    fn single_child_with_comparison_is_predicate_not_path() {
        let q = frozen(|d| {
            let year = chain(d, None, &["article", "year"]);
            let value = d.push_text("2000");
            d.set_comparison(year, CmpOp::Eq, value);
        });
        assert_eq!(q.to_string(), "/article[year=2000]");
    }

    #[test]
    fn drop_top_branch_generalizes() {
        let q = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["author", "last", "Smith"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
        });
        let gens = q.generalizations();
        assert_eq!(gens.len(), 2);
        assert!(gens
            .iter()
            .any(|g| g.to_string() == "/article/conf/INFOCOM"));
        assert!(gens
            .iter()
            .any(|g| g.to_string() == "/article/author/last/Smith"));
        assert!(q.drop_top_branch(5).is_none());
    }

    #[test]
    fn size_and_depth() {
        let q = frozen(|d| {
            chain(d, None, &["article", "author", "last", "Smith"]);
        });
        assert_eq!(q.size(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(
            frozen(|d| {
                node(d, None, "a");
            })
            .depth(),
            1
        );
    }

    #[test]
    fn root_name() {
        let q = frozen(|d| {
            node(d, None, "article");
        });
        assert_eq!(q.root_name(), "article");
        assert_eq!(q.root().name(), "article");
    }

    #[test]
    fn a_draft_deeper_than_the_limit_is_a_typed_error() {
        let mut draft = Draft::new();
        (0..=MAX_DEPTH).fold(None, |at, _| Some(node(&mut draft, at, "a")));
        assert_eq!(Query::from_draft(&mut draft).unwrap_err(), TooDeep);
    }
}
