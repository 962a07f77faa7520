//! The query AST: frozen, normalized tree patterns.
//!
//! A query in the paper's XPath subset — location steps, predicates,
//! wildcard `*`, descendant `//`, and value comparisons — is a *tree
//! pattern*: a rooted tree of nodes where the syntactic distinction between
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
//! form ([`NodeRef`] is the borrowed view of one node); the pointer tree of the
//! private `pattern` module exists only while a query is being built.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use p2p_index_xmldoc as xmldoc;

use crate::pattern::{NameTest, Pattern};

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

/// How a pattern node relates to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// Direct child (`/`).
    Child,
    /// Any strict descendant (`//`).
    Descendant,
}

/// Comparison operators usable in predicates (`[year>=1990]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
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
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::StartsWith => "^=",
            CmpOp::Contains => "*=",
        }
    }

    /// Evaluates `left OP right`.
    ///
    /// If both operands parse as numbers the comparison is numeric (so
    /// `"0100" = "100"` and `"9" < "10"`); otherwise it is lexicographic on
    /// the raw strings.
    pub fn eval(&self, left: &str, right: &str) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::StartsWith => return left.starts_with(right),
            CmpOp::Contains => return left.contains(right),
            _ => {}
        }
        let ord = match (left.trim().parse::<f64>(), right.trim().parse::<f64>()) {
            (Ok(l), Ok(r)) => l.partial_cmp(&r),
            _ => Some(left.cmp(right)),
        };
        let Some(ord) = ord else { return false };
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::StartsWith | CmpOp::Contains => unreachable!("handled above"),
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

/// Bare tokens may contain alphanumerics and a few safe punctuation marks;
/// anything else (spaces, slashes, brackets, quotes, operators) is quoted.
fn needs_quoting(token: &str) -> bool {
    token.is_empty()
        || token == "*"
        || !token.chars().all(|c| {
            c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | ',' | '&' | '+' | '\'')
        })
}

/// One node of a frozen query. Nodes sit in pre-order, so a node's strict
/// descendants are the indices `self + 1 .. end`, and its children are
/// reached by hopping from one child's `end` to the next.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Where the name starts in the text buffer (a wildcard has none).
    name: u32,
    name_len: u32,
    /// Where the comparison's right-hand side starts (if `op` is set).
    value: u32,
    value_len: u32,
    /// One past the last node of this node's subtree.
    end: u32,
    axis: Axis,
    wildcard: bool,
    op: Option<CmpOp>,
}

/// Offsets and node indices are stored as `u32`: a query comes from a
/// frame of at most 16 MiB or from a descriptor already in memory.
fn offset(n: usize) -> u32 {
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
/// The derived-looking order — axis, name (a wildcard after every name),
/// comparison, children — is the normalization order: siblings are
/// strictly ascending in it, which is what makes the canonical text, and
/// every DHT key, unique.
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

    /// The edge type from this node's parent.
    pub fn axis(&self) -> Axis {
        self.node().axis
    }

    /// The exact element name — or, for a leaf, the exact text value —
    /// this node requires; `None` for the wildcard `*`.
    pub fn name(&self) -> Option<&'a str> {
        let n = self.node();
        (!n.wildcard).then(|| self.span(n.name, n.name_len))
    }

    /// Does this node's name test accept element name `name`?
    pub fn accepts(&self, name: &str) -> bool {
        self.name().is_none_or(|n| n == name)
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

    /// All strict descendants of this node, pre-order.
    pub(crate) fn descendants(self) -> impl Iterator<Item = NodeRef<'a>> {
        (self.index + 1..self.node().end as usize).map(move |index| NodeRef { index, ..self })
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

    /// This subtree as a construction-time tree again.
    fn thaw(self) -> Pattern {
        Pattern {
            axis: self.axis(),
            test: match self.name() {
                Some(name) => NameTest::Name(name.to_string()),
                None => NameTest::Wildcard,
            },
            comparison: self.comparison().map(|c| (c.op, c.value.to_string())),
            children: self.children().map(NodeRef::thaw).collect(),
        }
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef")
            .field("axis", &self.axis())
            .field("name", &self.name())
            .field("comparison", &self.comparison())
            .field("children", &self.children().count())
            .finish()
    }
}

impl Ord for NodeRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let name = |n: &Self| (n.name().is_none(), n.name());
        (self.axis(), name(self), self.comparison())
            .cmp(&(other.axis(), name(other), other.comparison()))
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
    /// Renders the subtree of `node`, minus the subtree rooted at index
    /// `skip`, in canonical syntax, laying its nodes out as it goes.
    /// `relative` suppresses the leading axis token of the first step
    /// inside a predicate (`[author[...]]`, not `[/author[...]]`); a
    /// descendant first step keeps its `//`.
    fn emit(&mut self, node: NodeRef<'_>, skip: usize, relative: bool) {
        debug_assert!(
            node.children()
                .zip(node.children().skip(1))
                .all(|(a, b)| a < b),
            "siblings must be strictly ascending"
        );
        let n = *node.node();
        if !(relative && n.axis == Axis::Child) {
            self.canon.push_str(match n.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
        }
        let at = self.nodes.len();
        self.nodes.push(n);
        let (name, name_len) = match node.name() {
            Some(name) => self.token(name, at, false),
            None => {
                self.canon.push('*');
                (0, 0)
            }
        };
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

/// Renders `root` minus the subtree at `skip` and freezes the result.
fn render(root: NodeRef<'_>, skip: usize, out: &mut Frozen) -> Query {
    out.nodes.clear();
    out.canon.clear();
    out.raw.clear();
    out.in_raw.clear();
    out.emit(root, skip, false);
    out.freeze()
}

/// Lays a normalized construction-time tree out in pre-order, names copied
/// as they are: the renderer's input.
fn stage(p: &Pattern, nodes: &mut Vec<Node>, text: &mut String) {
    let mut put = |token: &str| {
        text.push_str(token);
        (offset(text.len() - token.len()), offset(token.len()))
    };
    let (name, name_len) = match &p.test {
        NameTest::Name(name) => put(name),
        NameTest::Wildcard => (0, 0),
    };
    let (value, value_len) = match &p.comparison {
        Some((_, value)) => put(value),
        None => (0, 0),
    };
    let at = nodes.len();
    nodes.push(Node {
        name,
        name_len,
        value,
        value_len,
        end: 0,
        axis: p.axis,
        wildcard: p.test == NameTest::Wildcard,
        op: p.comparison.as_ref().map(|&(op, _)| op),
    });
    for child in &p.children {
        stage(child, nodes, text);
    }
    nodes[at].end = offset(nodes.len());
}

/// Per-thread buffers of the freeze step, so that building a query
/// allocates only what the query keeps.
struct Scratch {
    staged_nodes: Vec<Node>,
    staged_text: String,
    out: Frozen,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            staged_nodes: Vec::new(),
            staged_text: String::new(),
            out: Frozen {
                nodes: Vec::new(),
                canon: String::new(),
                raw: String::new(),
                in_raw: Vec::new(),
            },
        })
    };
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
    /// Normalizes a construction-time tree and freezes it, rendering the
    /// canonical text exactly once.
    pub(crate) fn from_root(mut root: Pattern) -> Result<Query, TooDeep> {
        root.normalize(MAX_DEPTH)?;
        SCRATCH.with(|scratch| {
            let Scratch {
                staged_nodes,
                staged_text,
                out,
            } = &mut *scratch.borrow_mut();
            staged_nodes.clear();
            staged_text.clear();
            stage(&root, staged_nodes, staged_text);
            let staged = NodeRef {
                nodes: staged_nodes,
                text: staged_text,
                index: 0,
            };
            Ok(render(staged, NO_SKIP, out))
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

    /// The root element name this query requires, if it names one
    /// (`None` for a wildcard root).
    pub fn root_name(&self) -> Option<&str> {
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
        SCRATCH.with(|scratch| render(self.root(), branch, &mut scratch.borrow_mut().out))
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
    /// reusable frontier buffer.
    pub fn generalizations_into(&self, out: &mut Vec<Query>) {
        out.extend(self.top_branches().map(|b| self.without(b.index)));
    }

    /// Rewrites the query's *values* — leaf steps (`…/title/TCP`) and
    /// comparison right-hand sides (`[year>=1990]`) — through `f`, which
    /// receives the element path leading to the value (e.g.
    /// `["article", "author", "last"]`) and the current value, and returns
    /// a replacement (or `None` to keep it). The result is re-normalized.
    ///
    /// This is the hook fuzzy matching builds on (the paper's §VI:
    /// validating queries "against databases that store known file
    /// descriptors" to absorb misspellings).
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xpath::parse_query;
    ///
    /// let q = parse_query("/article/author/last/Smiht")?;
    /// let fixed = q.map_values(|path, value| {
    ///     (path == ["article", "author", "last"] && value == "Smiht")
    ///         .then(|| "Smith".to_string())
    /// });
    /// assert_eq!(fixed.to_string(), "/article/author/last/Smith");
    /// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
    /// ```
    #[must_use]
    pub fn map_values<F>(&self, mut f: F) -> Query
    where
        F: FnMut(&[&str], &str) -> Option<String>,
    {
        let mut root = self.root().thaw();
        let mut path: Vec<String> = Vec::new();
        map_values_in(&mut root, &mut path, &mut f);
        Query::from_root(root).expect("rewriting values keeps the depth")
    }
}

fn map_values_in<F>(node: &mut Pattern, path: &mut Vec<String>, f: &mut F)
where
    F: FnMut(&[&str], &str) -> Option<String>,
{
    let name = match &node.test {
        NameTest::Name(n) => n.clone(),
        NameTest::Wildcard => "*".to_string(),
    };
    path.push(name);
    {
        let borrowed: Vec<&str> = path.iter().map(String::as_str).collect();
        if let Some((_, value)) = &mut node.comparison {
            if let Some(new) = f(&borrowed, value) {
                *value = new;
            }
        }
        // A child that is a pure leaf is a value in our semantics; its
        // "path" is the chain of element names above it.
        for child in &mut node.children {
            if child.is_leaf() {
                if let NameTest::Name(value) = &child.test {
                    if let Some(new) = f(&borrowed, value) {
                        child.test = NameTest::Name(new);
                    }
                }
            }
        }
    }
    for child in &mut node.children {
        if !child.is_leaf() {
            map_values_in(child, path, f);
        }
    }
    path.pop();
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(root: Pattern) -> Query {
        Query::from_root(root).expect("test trees are shallow")
    }

    fn node(test: &str, children: Vec<Pattern>) -> Pattern {
        Pattern {
            axis: Axis::Child,
            test: NameTest::Name(test.into()),
            comparison: None,
            children,
        }
    }

    #[test]
    fn cmp_op_numeric_and_lexicographic() {
        assert!(CmpOp::Lt.eval("9", "10")); // numeric
        assert!(CmpOp::Eq.eval("0100", "100")); // numeric equality
        assert!(CmpOp::Lt.eval("apple", "banana")); // lexicographic
        assert!(CmpOp::Ge.eval("1996", "1996"));
        assert!(CmpOp::Ne.eval("a", "b"));
        assert!(!CmpOp::Gt.eval("5", "5"));
        assert!(CmpOp::Le.eval("5", "5"));
    }

    #[test]
    fn display_chain_as_path() {
        let q = frozen(node(
            "article",
            vec![node(
                "author",
                vec![node("last", vec![node("Smith", vec![])])],
            )],
        ));
        assert_eq!(q.to_string(), "/article/author/last/Smith");
    }

    #[test]
    fn display_branches_as_predicates() {
        let q = frozen(node(
            "article",
            vec![
                node("title", vec![node("TCP", vec![])]),
                node(
                    "author",
                    vec![
                        node("first", vec![node("John", vec![])]),
                        node("last", vec![node("Smith", vec![])]),
                    ],
                ),
            ],
        ));
        // Children sort deterministically (author < title).
        assert_eq!(
            q.to_string(),
            "/article[author[first/John][last/Smith]][title/TCP]"
        );
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let a = frozen(node(
            "article",
            vec![
                node("year", vec![node("1996", vec![])]),
                node("conf", vec![node("INFOCOM", vec![])]),
                node("conf", vec![node("INFOCOM", vec![])]),
            ],
        ));
        let b = frozen(node(
            "article",
            vec![
                node("conf", vec![node("INFOCOM", vec![])]),
                node("year", vec![node("1996", vec![])]),
            ],
        ));
        assert_eq!(a, b);
        assert_eq!(a.size(), 5);
    }

    #[test]
    fn quoting_in_display() {
        let q = frozen(node(
            "article",
            vec![node("title", vec![node("A Space Odyssey", vec![])])],
        ));
        assert_eq!(q.to_string(), "/article/title/\"A Space Odyssey\"");
    }

    #[test]
    fn quoting_escapes_quotes_and_backslashes() {
        let q = frozen(node("t", vec![node("say \"hi\" \\ bye", vec![])]));
        assert_eq!(q.to_string(), r#"/t/"say \"hi\" \\ bye""#);
    }

    #[test]
    fn comparison_renders_in_predicate() {
        let mut year = node("year", vec![]);
        year.comparison = Some((CmpOp::Ge, "1990".into()));
        let q = frozen(node("article", vec![year]));
        assert_eq!(q.to_string(), "/article[year>=1990]");
    }

    #[test]
    fn single_child_with_comparison_is_predicate_not_path() {
        let mut year = node("year", vec![]);
        year.comparison = Some((CmpOp::Lt, "2000".into()));
        let q = frozen(node("article", vec![year]));
        assert!(q.to_string().contains('['));
    }

    #[test]
    fn descendant_axis_renders_double_slash() {
        let mut smith = node("Smith", vec![]);
        smith.axis = Axis::Descendant;
        let q = frozen(node("article", vec![smith]));
        assert_eq!(q.to_string(), "/article//Smith");
    }

    #[test]
    fn wildcard_renders_star() {
        let q = frozen(Pattern {
            axis: Axis::Child,
            test: NameTest::Wildcard,
            comparison: None,
            children: vec![node("title", vec![])],
        });
        assert_eq!(q.to_string(), "/*/title");
    }

    #[test]
    fn drop_top_branch_generalizes() {
        let q = frozen(node(
            "article",
            vec![
                node("author", vec![node("last", vec![node("Smith", vec![])])]),
                node("conf", vec![node("INFOCOM", vec![])]),
            ],
        ));
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
        let q = frozen(node(
            "article",
            vec![node(
                "author",
                vec![node("last", vec![node("Smith", vec![])])],
            )],
        ));
        assert_eq!(q.size(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(frozen(node("a", vec![])).depth(), 1);
    }

    #[test]
    fn root_name() {
        let q = frozen(node("article", vec![]));
        assert_eq!(q.root_name(), Some("article"));
        let w = frozen(Pattern::leaf(Axis::Child, NameTest::Wildcard));
        assert_eq!(w.root_name(), None);
    }

    #[test]
    fn map_values_rewrites_leaves_and_comparisons() {
        let q: Query = "/article[author[first/John][last/Smiht]][year>=199O]"
            .parse()
            .unwrap();
        let fixed = q.map_values(|path, value| match (path, value) {
            (["article", "author", "last"], "Smiht") => Some("Smith".into()),
            (["article", "year"], "199O") => Some("1990".into()),
            _ => None,
        });
        assert_eq!(
            fixed.to_string(),
            "/article[author[first/John][last/Smith]][year>=1990]"
        );
        // The original is untouched.
        assert!(q.to_string().contains("Smiht"));
    }

    #[test]
    fn map_values_identity_when_f_returns_none() {
        let q: Query = "/article[title/TCP][conf/SIGCOMM]".parse().unwrap();
        assert_eq!(q.map_values(|_, _| None), q);
    }

    #[test]
    fn map_values_skips_element_presence_leaves_by_path() {
        // [title] is an element-presence test; its leaf name reaches f with
        // path ["article"], so a value-vocabulary keyed by full paths never
        // rewrites it.
        let q: Query = "/article[title]".parse().unwrap();
        let mut seen = Vec::new();
        let _ = q.map_values(|path, value| {
            seen.push((path.join("/"), value.to_string()));
            None
        });
        assert_eq!(seen, vec![("article".to_string(), "title".to_string())]);
    }

    #[test]
    fn name_test_accepts() {
        let wildcard = frozen(Pattern::leaf(Axis::Child, NameTest::Wildcard));
        assert!(wildcard.root().accepts("anything"));
        let a = frozen(node("a", vec![]));
        assert!(a.root().accepts("a"));
        assert!(!a.root().accepts("b"));
    }
}
