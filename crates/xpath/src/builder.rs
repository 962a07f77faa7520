//! Programmatic query construction.
//!
//! Index schemes generate queries from descriptors ("we generate a set of
//! queries Q = {q₁ … qₗ} likely to be asked by users", §IV). Doing that by
//! string formatting would be fragile; [`QueryBuilder`] builds normalized
//! queries directly, merging shared path prefixes so that
//! `author/first + author/last` become predicates of one `author` branch —
//! the shape of the paper's q₁/q₃.
//!
//! [`Query::most_specific`] derives the MSD — "the most specific query for
//! d" — from a descriptor, the query that is `≡ d` and hashes to the file's
//! storage key.

use p2p_index_xmldoc::{Descriptor, Element};

use crate::ast::{Axis, CmpOp, Query, TooDeep, MAX_DEPTH};
use crate::pattern::{NameTest, Pattern};

/// Incrementally builds a [`Query`].
///
/// Paths passed as `/`-separated strings are merged on shared prefixes.
///
/// # Examples
///
/// ```
/// use p2p_index_xpath::{CmpOp, QueryBuilder};
///
/// let q = QueryBuilder::new("article")
///     .value("author/first", "John")
///     .value("author/last", "Smith")
///     .compare("year", CmpOp::Ge, "1990")
///     .build();
/// assert_eq!(
///     q.to_string(),
///     "/article[author[first/John][last/Smith]][year>=1990]"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    /// Never deeper than [`MAX_DEPTH`]: a constraint that would not fit
    /// is dropped and remembered in `too_deep` instead.
    root: Pattern,
    too_deep: bool,
}

impl QueryBuilder {
    /// Starts a query rooted at element `root` (e.g. `"article"`).
    pub fn new(root: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            root: Pattern::leaf(Axis::Child, NameTest::Name(root.into())),
            too_deep: false,
        }
    }

    /// Requires the element at `path` to have text equal to `value`
    /// (a value-leaf step, `…/title/TCP` style).
    #[must_use]
    pub fn value(mut self, path: &str, value: impl Into<String>) -> QueryBuilder {
        if let Some(node) = self.descend(path, 1) {
            node.children
                .push(Pattern::leaf(Axis::Child, NameTest::Name(value.into())));
        }
        self
    }

    /// Requires the element at `path` to exist.
    #[must_use]
    pub fn exists(mut self, path: &str) -> QueryBuilder {
        let _ = self.descend(path, 0);
        self
    }

    /// Constrains the text of the element at `path` with `op value`
    /// (`[year>=1990]` style).
    #[must_use]
    pub fn compare(mut self, path: &str, op: CmpOp, value: impl Into<String>) -> QueryBuilder {
        if let Some(node) = self.descend(path, 0) {
            node.comparison = Some((op, value.into()));
        }
        self
    }

    /// Adds a pre-built branch under the root *without* prefix merging —
    /// needed e.g. to constrain two different `author` elements separately.
    #[must_use]
    pub fn branch(
        mut self,
        branch_root: &str,
        f: impl FnOnce(QueryBuilder) -> QueryBuilder,
    ) -> QueryBuilder {
        let sub = f(QueryBuilder::new(branch_root));
        if sub.too_deep || 1 + sub.root.depth() > MAX_DEPTH {
            self.too_deep = true;
        } else {
            self.root.children.push(sub.root);
        }
        self
    }

    /// Finalizes and normalizes the query.
    ///
    /// # Panics
    ///
    /// Panics if a constraint nested deeper than [`MAX_DEPTH`];
    /// `Query::try_from(builder)` returns that as [`TooDeep`] instead.
    pub fn build(self) -> Query {
        Query::try_from(self).expect("a built query nests at most MAX_DEPTH levels")
    }

    /// Walks (creating as needed) the child chain for `path`, merging with
    /// existing comparison-free branches, and returns the final node — or
    /// `None`, with nothing created, when that node plus `below` more
    /// levels would nest deeper than [`MAX_DEPTH`].
    fn descend(&mut self, path: &str, below: usize) -> Option<&mut Pattern> {
        let steps = || path.split('/').filter(|s| !s.is_empty());
        if 1 + steps().count() + below > MAX_DEPTH {
            self.too_deep = true;
            return None;
        }
        let mut node = &mut self.root;
        for step in steps() {
            let pos = node.children.iter().position(|c| {
                c.axis == Axis::Child
                    && c.comparison.is_none()
                    && matches!(&c.test, NameTest::Name(n) if n == step)
            });
            let idx = match pos {
                Some(i) => i,
                None => {
                    node.children
                        .push(Pattern::leaf(Axis::Child, NameTest::Name(step.to_string())));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        Some(node)
    }
}

impl TryFrom<QueryBuilder> for Query {
    type Error = TooDeep;

    /// [`QueryBuilder::build`], with a constraint nested deeper than
    /// [`MAX_DEPTH`] reported instead of panicking.
    fn try_from(builder: QueryBuilder) -> Result<Query, TooDeep> {
        if builder.too_deep {
            return Err(TooDeep);
        }
        Query::from_root(builder.root)
    }
}

impl Query {
    /// The most specific query (MSD) for a descriptor: the query that tests
    /// the presence of every element and value of `d`, so that `q ≡ d`.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor's elements nest deeper than
    /// [`p2p_index_xmldoc::MAX_DEPTH`] — no parsed descriptor does;
    /// `Query::try_from(&descriptor)` returns that as [`TooDeep`] instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xmldoc::Descriptor;
    /// use p2p_index_xpath::Query;
    ///
    /// let d = Descriptor::parse("<article><title>TCP</title><year>1989</year></article>")?;
    /// let msd = Query::most_specific(&d);
    /// assert!(msd.matches(d.root()));
    /// assert_eq!(msd.to_string(), "/article[title/TCP][year/1989]");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn most_specific(descriptor: &Descriptor) -> Query {
        Query::try_from(descriptor)
            .expect("a parsed descriptor's query nests at most MAX_DEPTH levels")
    }
}

impl TryFrom<&Descriptor> for Query {
    type Error = TooDeep;

    /// [`Query::most_specific`], with a descriptor built deeper than the
    /// XML parser would accept reported instead of panicking.
    fn try_from(descriptor: &Descriptor) -> Result<Query, TooDeep> {
        Query::from_root(element_to_pattern(descriptor.root(), MAX_DEPTH)?)
    }
}

/// `e` as a pattern; `room` is how many levels, this one included, may
/// still nest.
fn element_to_pattern(e: &Element, room: usize) -> Result<Pattern, TooDeep> {
    let text = e.trimmed_text();
    if room < 1 + usize::from(!text.is_empty()) {
        return Err(TooDeep);
    }
    let mut node = Pattern::leaf(Axis::Child, NameTest::Name(e.name().to_string()));
    if !text.is_empty() {
        node.children.push(Pattern::leaf(
            Axis::Child,
            NameTest::Name(text.into_owned()),
        ));
    }
    for child in e.child_elements() {
        node.children.push(element_to_pattern(child, room - 1)?);
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use p2p_index_xmldoc::Descriptor;

    use super::*;
    use crate::parse::parse_query;

    #[test]
    fn builder_merges_prefixes() {
        let q = QueryBuilder::new("article")
            .value("author/first", "John")
            .value("author/last", "Smith")
            .value("conf", "INFOCOM")
            .build();
        assert_eq!(
            q,
            parse_query("/article[author[first/John][last/Smith]][conf/INFOCOM]").unwrap()
        );
    }

    #[test]
    fn builder_exists_and_compare() {
        let q = QueryBuilder::new("article")
            .exists("title")
            .compare("year", CmpOp::Lt, "2000")
            .build();
        assert_eq!(q.to_string(), "/article[title][year<2000]");
    }

    #[test]
    fn builder_branch_keeps_branches_separate() {
        let q = QueryBuilder::new("article")
            .branch("author", |b| b.value("last", "Smith"))
            .branch("author", |b| b.value("last", "Doe"))
            .build();
        assert_eq!(
            q.to_string(),
            "/article[author/last/Doe][author/last/Smith]"
        );
    }

    #[test]
    fn builder_empty_path_is_root() {
        let q = QueryBuilder::new("article").value("", "X").build();
        assert_eq!(q.to_string(), "/article/X");
    }

    #[test]
    fn msd_matches_and_roundtrips() {
        let d = Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        assert!(msd.matches(d.root()));
        // Canonical text reparses to the same query.
        assert_eq!(parse_query(&msd.to_string()).unwrap(), msd);
        // The MSD from the paper's q1 equals the generated one.
        let q1 = parse_query(
            "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]",
        )
        .unwrap();
        assert_eq!(msd, q1);
    }

    #[test]
    fn msd_is_covered_by_partial_queries() {
        let d = Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>IPv6</title><conf>INFOCOM</conf><year>1996</year></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        for broad in [
            "/article/author/last/Smith",
            "/article/conf/INFOCOM",
            "/article[author[first/John][last/Smith]][conf/INFOCOM]",
            "/article[year>=1990]",
        ] {
            assert!(parse_query(broad).unwrap().covers(&msd), "{broad}");
        }
        assert!(!parse_query("/article/conf/SIGCOMM").unwrap().covers(&msd));
    }

    #[test]
    fn msd_of_multi_author_descriptor() {
        let d = Descriptor::parse(
            "<article><author><first>A</first><last>B</last></author>\
             <author><first>C</first><last>D</last></author><title>T</title></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        assert!(msd.matches(d.root()));
        assert_eq!(msd.top_branches().count(), 3);
        // Each author query covers the MSD.
        assert!(parse_query("/article/author[first/A][last/B]")
            .unwrap()
            .covers(&msd));
        assert!(parse_query("/article/author[first/C][last/D]")
            .unwrap()
            .covers(&msd));
        assert!(!parse_query("/article/author[first/A][last/D]")
            .unwrap()
            .covers(&msd));
    }

    #[test]
    fn msd_with_mixed_text_and_children() {
        let d = Descriptor::parse("<note>remember<when>today</when></note>").unwrap();
        let msd = Query::most_specific(&d);
        assert!(msd.matches(d.root()));
        assert!(msd.to_string().contains("remember"));
    }

    #[test]
    fn distinct_descriptors_distinct_msds() {
        let a = Descriptor::parse("<article><title>X</title></article>").unwrap();
        let b = Descriptor::parse("<article><title>Y</title></article>").unwrap();
        assert_ne!(Query::most_specific(&a), Query::most_specific(&b));
    }

    #[test]
    fn a_constraint_past_the_depth_limit_is_a_typed_error() {
        let path = |steps: usize| vec!["a"; steps].join("/");
        // Root, MAX_DEPTH - 2 steps, a value leaf: exactly at the limit.
        let fits = QueryBuilder::new("r").value(&path(MAX_DEPTH - 2), "v");
        assert_eq!(Query::try_from(fits).unwrap().depth(), MAX_DEPTH);
        let value = QueryBuilder::new("r").value(&path(MAX_DEPTH - 1), "v");
        assert_eq!(Query::try_from(value), Err(TooDeep));
        let exists = QueryBuilder::new("r").exists(&path(100_000));
        assert_eq!(Query::try_from(exists), Err(TooDeep));
        let branch = QueryBuilder::new("r").branch("b", |b| b.exists(&path(MAX_DEPTH - 1)));
        assert_eq!(Query::try_from(branch), Err(TooDeep));
        // Later constraints that fit do not paper over one that did not.
        let mixed = QueryBuilder::new("r")
            .compare(&path(MAX_DEPTH), CmpOp::Eq, "1")
            .value("title", "TCP");
        assert_eq!(Query::try_from(mixed), Err(TooDeep));
    }

    #[test]
    fn msd_of_a_descriptor_deeper_than_the_parser_allows_is_a_typed_error() {
        use p2p_index_xmldoc::Element;
        let nest = |levels: usize| {
            (1..levels).fold(Element::with_text("e", "text"), |inner, _| {
                Element::new("e").with_child(inner)
            })
        };
        let deepest = Descriptor::new(nest(p2p_index_xmldoc::MAX_DEPTH));
        assert_eq!(Query::try_from(&deepest).unwrap().depth(), MAX_DEPTH);
        let deeper = Descriptor::new(nest(p2p_index_xmldoc::MAX_DEPTH + 1));
        assert_eq!(Query::try_from(&deeper), Err(TooDeep));
    }
}
