//! The query AST: normalized tree patterns.
//!
//! A query in the paper's XPath subset — location steps, predicates,
//! wildcard `*`, descendant `//`, and value comparisons — is represented as
//! a *tree pattern*: a rooted tree of [`Pattern`] nodes where the syntactic
//! distinction between a path continuation (`/article/title/TCP`) and a
//! predicate (`/article[title/TCP]`) disappears. Boolean matching semantics
//! make the two forms equivalent, so collapsing them (plus sorting and
//! deduplicating branches) yields the "unique normalized format" the paper
//! requires before hashing queries into the DHT key space (footnote 1,
//! §III-B).
//!
//! [`Query`] wraps a normalized root pattern; its `Display` output *is* the
//! canonical text, so `Key::hash_of(&query.to_string())` is well-defined.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How a pattern node relates to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axis {
    /// Direct child (`/`).
    Child,
    /// Any strict descendant (`//`).
    Descendant,
}

/// What names a pattern node accepts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NameTest {
    /// An exact element name — or, for leaf nodes, an exact text value
    /// (the paper's simplified syntax writes values as final steps, e.g.
    /// `/article/title/TCP`).
    Name(String),
    /// The wildcard `*`: any element name.
    Wildcard,
}

impl NameTest {
    /// Does this test accept element name `name`?
    pub fn accepts(&self, name: &str) -> bool {
        match self {
            NameTest::Name(n) => n == name,
            NameTest::Wildcard => true,
        }
    }
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Comparison {
    /// The operator.
    pub op: CmpOp,
    /// The constant right-hand side.
    pub value: String,
}

/// One node of a tree pattern.
///
/// Constructed through [`Query`] /
/// [`QueryBuilder`](crate::QueryBuilder) / the parser; fields stay private
/// so every externally visible pattern is normalized.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pattern {
    pub(crate) axis: Axis,
    pub(crate) test: NameTest,
    pub(crate) comparison: Option<Comparison>,
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

    /// The edge type from this node's parent.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// The node's name test.
    pub fn test(&self) -> &NameTest {
        &self.test
    }

    /// The comparison constraining the matched element's text, if any.
    pub fn comparison(&self) -> Option<&Comparison> {
        self.comparison.as_ref()
    }

    /// Child pattern nodes (normalized order).
    pub fn children(&self) -> &[Pattern] {
        &self.children
    }

    /// True when the node constrains nothing below itself: a pure
    /// name/value leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty() && self.comparison.is_none()
    }

    /// Sorts and deduplicates the subtree, in place.
    pub(crate) fn normalize(&mut self) {
        for c in &mut self.children {
            c.normalize();
        }
        self.children.sort();
        self.children.dedup();
    }

    /// Number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Pattern::size).sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Pattern::depth).max().unwrap_or(0)
    }

    /// All strict descendants of this node, pre-order.
    pub(crate) fn descendants(&self) -> Vec<&Pattern> {
        let mut out = Vec::new();
        let mut stack: Vec<&Pattern> = self.children.iter().collect();
        while let Some(p) = stack.pop() {
            out.push(p);
            stack.extend(p.children.iter());
        }
        out
    }

    fn write_name(test: &NameTest, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match test {
            NameTest::Wildcard => out.write_str("*"),
            NameTest::Name(n) => {
                if needs_quoting(n) {
                    write!(out, "\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\""))
                } else {
                    out.write_str(n)
                }
            }
        }
    }

    /// Canonical rendering. `relative` suppresses the leading axis token of
    /// the first step inside a predicate (`[author[...]]`, not `[/author[...]]`).
    fn write(&self, out: &mut fmt::Formatter<'_>, relative: bool) -> fmt::Result {
        if !relative {
            out.write_str(match self.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            })?;
        } else if self.axis == Axis::Descendant {
            // Inside a predicate a descendant first step keeps its `//`.
            out.write_str("//")?;
        }
        Self::write_name(&self.test, out)?;
        // A single comparison-free child continues the path; anything else
        // renders as sorted predicates. This reproduces the paper's style:
        // chains print as `/article/author/last/Smith`, branches as
        // `/article[author[...]][conf/INFOCOM]`.
        if self.comparison.is_none() && self.children.len() == 1 {
            let only = &self.children[0];
            if only.comparison.is_none() {
                return only.write(out, false);
            }
        }
        for child in &self.children {
            out.write_str("[")?;
            child.write(out, true)?;
            out.write_str("]")?;
        }
        if let Some(cmp) = &self.comparison {
            // Each node renders its own comparison, after its predicates,
            // matching the parser which binds `op value` to the last step.
            write!(out, "{}", cmp.op)?;
            if needs_quoting(&cmp.value) {
                write!(
                    out,
                    "\"{}\"",
                    cmp.value.replace('\\', "\\\\").replace('"', "\\\"")
                )?;
            } else {
                out.write_str(&cmp.value)?;
            }
        }
        Ok(())
    }
}

/// Bare tokens may contain alphanumerics and a few safe punctuation marks;
/// anything else (spaces, slashes, brackets, quotes, operators) is quoted.
pub(crate) fn needs_quoting(token: &str) -> bool {
    token.is_empty()
        || token == "*"
        || !token.chars().all(|c| {
            c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | ',' | '&' | '+' | '\'')
        })
}

/// A normalized query over descriptors.
///
/// Create queries with [`Query::parse`](crate::parse_query),
/// [`QueryBuilder`](crate::QueryBuilder), or
/// [`Query::most_specific`](crate::Query::most_specific); all three produce
/// the same canonical representation, so equal queries are `==` and print
/// identically.
///
/// The canonical text — and therefore the DHT key `h(q)` — of a query is
/// needed on every lookup, so it is rendered **once** at construction and
/// memoized: `Display`, [`canonical_text`](Query::canonical_text),
/// equality, hashing, and ordering all reuse the cached string instead of
/// re-walking the pattern tree. Both the tree and the cached text sit
/// behind `Arc`s, making `Query::clone` two reference-count bumps — cheap
/// enough for the simulator's per-interaction cloning.
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
#[derive(Debug, Clone)]
pub struct Query {
    pub(crate) root: Arc<Pattern>,
    /// Canonical rendering of `root`, computed once at construction.
    canon: Arc<str>,
}

/// The normalized canonical rendering is injective (guaranteed by the
/// parse-roundtrip property tests), so the cached text is a faithful
/// proxy for the whole tree: comparing/hashing it gives exactly the
/// tree-equality semantics, without traversals or allocations.
impl PartialEq for Query {
    fn eq(&self, other: &Query) -> bool {
        Arc::ptr_eq(&self.canon, &other.canon) || self.canon == other.canon
    }
}

impl Eq for Query {}

impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canon.hash(state);
    }
}

impl PartialOrd for Query {
    fn partial_cmp(&self, other: &Query) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Query {
    fn cmp(&self, other: &Query) -> Ordering {
        self.canon.cmp(&other.canon)
    }
}

impl Query {
    /// Wraps and normalizes a root pattern, rendering the canonical text
    /// exactly once.
    pub(crate) fn from_root(mut root: Pattern) -> Query {
        root.normalize();
        Query::from_normalized_root(root)
    }

    /// Wraps a root pattern that is **already normalized** (children sorted
    /// and deduplicated at every level), skipping the recursive
    /// re-normalization pass. Callers must guarantee the invariant — e.g.
    /// a tree cloned from an existing query with a child removed stays
    /// normalized.
    fn from_normalized_root(root: Pattern) -> Query {
        debug_assert!(
            {
                let mut check = root.clone();
                check.normalize();
                check == root
            },
            "from_normalized_root requires a normalized pattern"
        );
        struct Canon<'a>(&'a Pattern);
        impl fmt::Display for Canon<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.write(f, false)
            }
        }
        // Render through a thread-local scratch buffer: `to_string()`
        // grows an empty String through several reallocations per query,
        // and schemes build a handful of queries per published file —
        // this keeps query construction at one allocation (the Arc copy).
        thread_local! {
            static CANON_SCRATCH: std::cell::RefCell<String> =
                const { std::cell::RefCell::new(String::new()) };
        }
        let canon: Arc<str> = CANON_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.clear();
            use fmt::Write;
            write!(scratch, "{}", Canon(&root)).expect("fmt to String cannot fail");
            Arc::from(scratch.as_str())
        });
        Query {
            root: Arc::new(root),
            canon,
        }
    }

    /// The root pattern node.
    pub fn root(&self) -> &Pattern {
        &self.root
    }

    /// The root element name this query requires, if it names one
    /// (`None` for a wildcard root).
    pub fn root_name(&self) -> Option<&str> {
        match &self.root.test {
            NameTest::Name(n) => Some(n),
            NameTest::Wildcard => None,
        }
    }

    /// Number of pattern nodes.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Pattern depth (`/article` has depth 1).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The canonical text; equal to `self.to_string()` and suitable as the
    /// hash input `h(q)`. Memoized at construction — this is a borrow, not
    /// a render, so hot paths can read lengths and hash inputs without
    /// allocating.
    pub fn canonical_text(&self) -> &str {
        &self.canon
    }

    /// The top-level branches (children of the root).
    pub fn top_branches(&self) -> &[Pattern] {
        &self.root.children
    }

    /// A copy of this query with top-level branch `index` removed — the
    /// one-step *generalization* used when a query is not indexed (§IV-B:
    /// "looking for a query qᵢ such that qᵢ ⊒ q").
    ///
    /// Returns `None` if `index` is out of range.
    #[must_use]
    pub fn drop_top_branch(&self, index: usize) -> Option<Query> {
        if index >= self.root.children.len() {
            return None;
        }
        let mut root = (*self.root).clone();
        root.children.remove(index);
        // A query's tree is always normalized; removing one child of the
        // root keeps every level sorted and deduplicated, so the recursive
        // re-normalization pass can be skipped.
        Some(Query::from_normalized_root(root))
    }

    /// All one-step generalizations: each top-level branch dropped in turn.
    /// Broadest-first exploration of these reaches every indexed ancestor.
    pub fn generalizations(&self) -> Vec<Query> {
        let mut out = Vec::with_capacity(self.root.children.len());
        self.generalizations_into(&mut out);
        out
    }

    /// Appends all one-step generalizations to `out` — the allocation-free
    /// sibling of [`generalizations`](Self::generalizations) for hot loops
    /// that keep a reusable frontier buffer.
    pub fn generalizations_into(&self, out: &mut Vec<Query>) {
        out.extend((0..self.root.children.len()).filter_map(|i| self.drop_top_branch(i)));
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
        let mut root = (*self.root).clone();
        let mut path: Vec<String> = Vec::new();
        map_values_in(&mut root, &mut path, &mut f);
        Query::from_root(root)
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
        if let Some(cmp) = &mut node.comparison {
            if let Some(new) = f(&borrowed, &cmp.value) {
                cmp.value = new;
            }
        }
        // A child that is a pure leaf is a value in our semantics; its
        // "path" is the chain of element names above it.
        for child in &mut node.children {
            if child.is_leaf() {
                if let NameTest::Name(value) = &child.test.clone() {
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
        f.write_str(&self.canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let q = Query::from_root(node(
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
        let q = Query::from_root(node(
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
        let a = Query::from_root(node(
            "article",
            vec![
                node("year", vec![node("1996", vec![])]),
                node("conf", vec![node("INFOCOM", vec![])]),
                node("conf", vec![node("INFOCOM", vec![])]),
            ],
        ));
        let b = Query::from_root(node(
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
        let q = Query::from_root(node(
            "article",
            vec![node("title", vec![node("A Space Odyssey", vec![])])],
        ));
        assert_eq!(q.to_string(), "/article/title/\"A Space Odyssey\"");
    }

    #[test]
    fn quoting_escapes_quotes_and_backslashes() {
        let q = Query::from_root(node("t", vec![node("say \"hi\" \\ bye", vec![])]));
        assert_eq!(q.to_string(), r#"/t/"say \"hi\" \\ bye""#);
    }

    #[test]
    fn comparison_renders_in_predicate() {
        let mut year = node("year", vec![]);
        year.comparison = Some(Comparison {
            op: CmpOp::Ge,
            value: "1990".into(),
        });
        let q = Query::from_root(node("article", vec![year]));
        assert_eq!(q.to_string(), "/article[year>=1990]");
    }

    #[test]
    fn single_child_with_comparison_is_predicate_not_path() {
        let mut year = node("year", vec![]);
        year.comparison = Some(Comparison {
            op: CmpOp::Lt,
            value: "2000".into(),
        });
        let q = Query::from_root(node("article", vec![year]));
        assert!(q.to_string().contains('['));
    }

    #[test]
    fn descendant_axis_renders_double_slash() {
        let mut smith = node("Smith", vec![]);
        smith.axis = Axis::Descendant;
        let q = Query::from_root(node("article", vec![smith]));
        assert_eq!(q.to_string(), "/article//Smith");
    }

    #[test]
    fn wildcard_renders_star() {
        let q = Query::from_root(Pattern {
            axis: Axis::Child,
            test: NameTest::Wildcard,
            comparison: None,
            children: vec![node("title", vec![])],
        });
        assert_eq!(q.to_string(), "/*/title");
    }

    #[test]
    fn drop_top_branch_generalizes() {
        let q = Query::from_root(node(
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
        let q = Query::from_root(node(
            "article",
            vec![node(
                "author",
                vec![node("last", vec![node("Smith", vec![])])],
            )],
        ));
        assert_eq!(q.size(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(Query::from_root(node("a", vec![])).depth(), 1);
    }

    #[test]
    fn root_name() {
        let q = Query::from_root(node("article", vec![]));
        assert_eq!(q.root_name(), Some("article"));
        let w = Query::from_root(Pattern::leaf(Axis::Child, NameTest::Wildcard));
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
        assert!(NameTest::Wildcard.accepts("anything"));
        assert!(NameTest::Name("a".into()).accepts("a"));
        assert!(!NameTest::Name("a".into()).accepts("b"));
    }
}
