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
//!
//! All of them write straight into a draft, the index-linked arena behind
//! every constructor, and freeze it. Which draft is the one difference:
//!
//! - a [`QueryBuilder`] owns its draft — one node array and one text
//!   buffer, sized so that a scheme's queries never regrow them — because
//!   builders nest ([`QueryBuilder::branch`]) and clone. A
//!   `QueryBuilder::new(..).value(..).build()` chain allocates those two
//!   and the one buffer the frozen query keeps;
//! - [`Query::most_specific`] writes into this thread's draft, the one
//!   the parser uses, and so does [`Query::build_with`], which runs the
//!   builder's own steps ([`QuerySteps`]) there: both allocate only the
//!   one buffer the query keeps. Index schemes build their node queries with
//!   `build_with`.
//!
//! The thread-draft constructors each have a `_known` form that renders
//! the canonical text and asks a [`KnownQueries`] table for it before
//! freezing: a query the table holds is the table's (a refcount bump, no
//! allocation). A client writes the queries it has read through its
//! table that way. [`Query::pack_with_known`] goes one step further for
//! a query the table lacks: it packs the query into a buffer the caller
//! keeps ([`PackedQueries`]) instead of freezing it, so a writer that
//! only hashes and encodes a query it will not keep builds it without
//! allocating.

use std::borrow::BorrowMut;

use p2p_index_xmldoc::{Descriptor, Element};

use crate::ast::{Built, CmpOp, KnownQueries, PackedQueries, Query, TooDeep, MAX_DEPTH};
use crate::draft::{Draft, NodeId};

/// A new builder's room: enough for the index queries a scheme makes
/// (`/article[author[first/F][last/L]][title/T]` is 8 nodes) without
/// regrowing either buffer.
const NODES: usize = 16;
const TEXT: usize = 128;

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
///     .compare("title", CmpOp::StartsWith, "TC")
///     .build();
/// assert_eq!(
///     q.to_string(),
///     "/article[author[first/John][last/Smith]][title^=TC]"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    /// The query so far, in a draft of the builder's own.
    steps: Steps<Draft>,
}

impl QueryBuilder {
    /// Starts a query rooted at element `root` (e.g. `"article"`).
    pub fn new(root: impl AsRef<str>) -> QueryBuilder {
        let root = root.as_ref();
        let draft = Draft::with_capacity(NODES, TEXT + root.len());
        QueryBuilder {
            steps: Steps::start(draft, root),
        }
    }

    /// Requires the element at `path` to have text equal to `value`
    /// (a value-leaf step, `…/title/TCP` style).
    #[must_use]
    pub fn value(mut self, path: &str, value: impl AsRef<str>) -> QueryBuilder {
        self.steps.value(path, value.as_ref());
        self
    }

    /// Requires the element at `path` to exist.
    #[must_use]
    pub fn exists(mut self, path: &str) -> QueryBuilder {
        self.steps.exists(path);
        self
    }

    /// Constrains the text of the element at `path` with `op value`
    /// (`[title^=TC]` style).
    #[must_use]
    pub fn compare(mut self, path: &str, op: CmpOp, value: impl AsRef<str>) -> QueryBuilder {
        self.steps.compare(path, op, value.as_ref());
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
        let sub = f(QueryBuilder::new(branch_root)).steps;
        let steps = &mut self.steps;
        if sub.too_deep || 1 + sub.depth > MAX_DEPTH {
            steps.too_deep = true;
        } else {
            steps.draft.graft(0, &sub.draft);
            steps.depth = steps.depth.max(1 + sub.depth);
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
}

/// The steps of a [`QueryBuilder`] over this thread's draft: what
/// [`Query::build_with`] hands its closure.
#[derive(Debug)]
pub struct QuerySteps<'d>(Steps<&'d mut Draft>);

impl QuerySteps<'_> {
    /// [`QueryBuilder::value`].
    pub fn value(&mut self, path: &str, value: &str) -> &mut Self {
        self.0.value(path, value);
        self
    }

    /// [`QueryBuilder::exists`].
    pub fn exists(&mut self, path: &str) -> &mut Self {
        self.0.exists(path);
        self
    }

    /// [`QueryBuilder::compare`].
    pub fn compare(&mut self, path: &str, op: CmpOp, value: &str) -> &mut Self {
        self.0.compare(path, op, value);
        self
    }
}

/// A query under construction and how deep it nests, over a draft the
/// steps own ([`QueryBuilder`]) or borrow ([`QuerySteps`]): one set of
/// steps for both.
#[derive(Debug, Clone)]
struct Steps<D> {
    /// The query so far; node 0 is the root. Never deeper than
    /// [`MAX_DEPTH`]: a constraint that would not fit is dropped and
    /// remembered in `too_deep` instead.
    draft: D,
    /// How deep the draft nests (the root alone is 1).
    depth: usize,
    too_deep: bool,
}

impl<D: BorrowMut<Draft>> Steps<D> {
    /// Writes the root `root` into `draft`, which must be empty.
    fn start(mut draft: D, root: &str) -> Steps<D> {
        let d = draft.borrow_mut();
        let name = d.push_text(root);
        d.add(None, name);
        Steps {
            draft,
            depth: 1,
            too_deep: false,
        }
    }

    fn value(&mut self, path: &str, value: &str) {
        if let Some(node) = self.descend(path, 1) {
            let draft = self.draft.borrow_mut();
            let value = draft.push_text(value);
            draft.add(Some(node), value);
        }
    }

    fn exists(&mut self, path: &str) {
        let _ = self.descend(path, 0);
    }

    fn compare(&mut self, path: &str, op: CmpOp, value: &str) {
        if let Some(node) = self.descend(path, 0) {
            let draft = self.draft.borrow_mut();
            let value = draft.push_text(value);
            draft.set_comparison(node, op, value);
        }
    }

    /// Walks (creating as needed) the child chain for `path`, merging with
    /// existing comparison-free branches, and returns the final node — or
    /// `None`, with nothing created, when that node plus `below` more
    /// levels would nest deeper than [`MAX_DEPTH`].
    fn descend(&mut self, path: &str, below: usize) -> Option<NodeId> {
        let steps = || path.split('/').filter(|s| !s.is_empty());
        let depth = 1 + steps().count() + below;
        if depth > MAX_DEPTH {
            self.too_deep = true;
            return None;
        }
        self.depth = self.depth.max(depth);
        let draft = self.draft.borrow_mut();
        let mut node = 0;
        for step in steps() {
            node = match draft.step(node, step) {
                Some(existing) => existing,
                None => {
                    let name = draft.push_text(step);
                    draft.add(Some(node), name)
                }
            };
        }
        Some(node)
    }
}

impl TryFrom<QueryBuilder> for Query {
    type Error = TooDeep;

    /// [`QueryBuilder::build`], with a constraint nested deeper than
    /// [`MAX_DEPTH`] reported instead of panicking.
    fn try_from(builder: QueryBuilder) -> Result<Query, TooDeep> {
        let Steps {
            mut draft,
            too_deep,
            ..
        } = builder.steps;
        if too_deep {
            return Err(TooDeep);
        }
        Query::from_draft(&mut draft)
    }
}

impl Query {
    /// Builds the query rooted at element `root` that `steps` describes,
    /// in this thread's draft: what the same [`QueryBuilder`] chain
    /// builds, allocating only the one buffer the query keeps.
    ///
    /// # Errors
    ///
    /// [`TooDeep`] if a constraint nested deeper than [`MAX_DEPTH`].
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xpath::{Query, QueryBuilder};
    ///
    /// let q = Query::build_with("article", |q| {
    ///     q.value("author/last", "Smith").value("conf", "INFOCOM");
    /// })?;
    /// let same = QueryBuilder::new("article")
    ///     .value("author/last", "Smith")
    ///     .value("conf", "INFOCOM")
    ///     .build();
    /// assert_eq!(q, same);
    /// # Ok::<(), p2p_index_xpath::TooDeep>(())
    /// ```
    pub fn build_with(
        root: &str,
        steps: impl FnOnce(&mut QuerySteps<'_>),
    ) -> Result<Query, TooDeep> {
        Query::build_with_known(root, &mut (), steps)
    }

    /// [`build_with`](Query::build_with), taking the query from `known`
    /// when it holds the built query's canonical text: only a text
    /// `known` lacks is frozen, then handed to [`KnownQueries::add`].
    ///
    /// # Errors
    ///
    /// [`TooDeep`] if a constraint nested deeper than [`MAX_DEPTH`].
    pub fn build_with_known(
        root: &str,
        known: &mut (impl KnownQueries + ?Sized),
        steps: impl FnOnce(&mut QuerySteps<'_>),
    ) -> Result<Query, TooDeep> {
        Query::in_scratch(write_steps(root, steps), |out| out.known_or_freeze(known))?
    }

    /// [`build_with_known`](Query::build_with_known), packing a query
    /// `known` lacks at the end of `packed` instead of freezing it: the
    /// table's copy when it holds the canonical text, else a span of the
    /// caller's buffer, read back through [`Built::view`]. A packed query
    /// is not handed to [`KnownQueries::add`]. Nothing allocates but
    /// `packed`'s growth, so a warm buffer builds any query for free.
    ///
    /// # Errors
    ///
    /// [`TooDeep`] if a constraint nested deeper than [`MAX_DEPTH`].
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xpath::{Built, PackedQueries, Query};
    ///
    /// let mut packed = PackedQueries::new();
    /// let built = Query::pack_with_known("article", &mut (), &mut packed, |q| {
    ///     q.value("conf", "INFOCOM").value("year", "1996");
    /// })?;
    /// assert!(matches!(built, Built::Packed(_)));
    /// let view = built.view(&packed);
    /// assert_eq!(view.canonical_text(), "/article[conf/INFOCOM][year/1996]");
    /// let general: Query = "/article/conf/INFOCOM".parse()?;
    /// assert!(general.view().covers(view) && !view.covers(general.view()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn pack_with_known(
        root: &str,
        known: &mut (impl KnownQueries + ?Sized),
        packed: &mut PackedQueries,
        steps: impl FnOnce(&mut QuerySteps<'_>),
    ) -> Result<Built, TooDeep> {
        Query::in_scratch(write_steps(root, steps), |out| {
            out.known_or_pack(known, packed)
        })?
    }

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
        Query::most_specific_known(descriptor, &mut ())
    }

    /// [`most_specific`](Query::most_specific), taking the MSD from
    /// `known` when it holds its canonical text: only a text `known`
    /// lacks is frozen, then handed to [`KnownQueries::add`].
    ///
    /// # Panics
    ///
    /// As [`most_specific`](Query::most_specific).
    pub fn most_specific_known(
        descriptor: &Descriptor,
        known: &mut (impl KnownQueries + ?Sized),
    ) -> Query {
        msd_of(descriptor, known)
            .expect("a parsed descriptor's query nests at most MAX_DEPTH levels")
    }
}

impl TryFrom<&Descriptor> for Query {
    type Error = TooDeep;

    /// [`Query::most_specific`], with a descriptor built deeper than the
    /// XML parser would accept reported instead of panicking.
    fn try_from(descriptor: &Descriptor) -> Result<Query, TooDeep> {
        msd_of(descriptor, &mut ())
    }
}

/// What writes the query `root` and `steps` describe into this thread's
/// draft: the builder's steps, with a constraint past [`MAX_DEPTH`] an
/// error.
fn write_steps<'a>(
    root: &'a str,
    steps: impl FnOnce(&mut QuerySteps<'_>) + 'a,
) -> impl FnOnce(&mut Draft) -> Result<(), TooDeep> + 'a {
    move |draft| {
        let mut built = QuerySteps(Steps::start(draft, root));
        steps(&mut built);
        if built.0.too_deep {
            Err(TooDeep)
        } else {
            Ok(())
        }
    }
}

/// The MSD of `descriptor`, written into this thread's draft and taken
/// from `known` or frozen.
fn msd_of(
    descriptor: &Descriptor,
    known: &mut (impl KnownQueries + ?Sized),
) -> Result<Query, TooDeep> {
    Query::in_scratch(
        |draft| write_element(draft, descriptor.root(), None, MAX_DEPTH),
        |out| out.known_or_freeze(known),
    )?
}

/// Writes `e` into `draft` under `parent`; `room` is how many levels, this
/// one included, may still nest.
fn write_element(
    draft: &mut Draft,
    e: &Element,
    parent: Option<NodeId>,
    room: usize,
) -> Result<(), TooDeep> {
    let text = e.trimmed_text();
    if room < 1 + usize::from(!text.is_empty()) {
        return Err(TooDeep);
    }
    let name = draft.push_text(e.name());
    let node = draft.add(parent, name);
    if !text.is_empty() {
        let value = draft.push_text(&text);
        draft.add(Some(node), value);
    }
    for child in e.child_elements() {
        write_element(draft, child, Some(node), room - 1)?;
    }
    Ok(())
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
            .compare("year", CmpOp::Eq, "2000")
            .build();
        assert_eq!(q.to_string(), "/article[title][year=2000]");
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
            "/article[year=1996]",
            "/article[title^=IP]",
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
    fn build_with_runs_the_builders_steps_in_the_thread_draft() {
        let path = |steps: usize| vec!["a"; steps].join("/");
        let built = Query::build_with("article", |q| {
            q.value("author/first", "John")
                .value("author/last", "Smith")
                .exists("title")
                .compare("year", CmpOp::Eq, "2000");
        });
        let chained = QueryBuilder::new("article")
            .value("author/first", "John")
            .value("author/last", "Smith")
            .exists("title")
            .compare("year", CmpOp::Eq, "2000")
            .build();
        assert_eq!(built, Ok(chained));
        let deep = Query::build_with("r", |q| {
            q.value(&path(MAX_DEPTH - 1), "v").value("title", "TCP");
        });
        assert_eq!(deep, Err(TooDeep));
        // A closure that builds queries of its own gets buffers of its own:
        // neither build sees the other's draft.
        let nested = Query::build_with("article", |q| {
            let inner = parse_query("/article[conf/INFOCOM][year/1996]").unwrap();
            q.value("title", inner.canonical_text());
        });
        let expected = QueryBuilder::new("article")
            .value("title", "/article[conf/INFOCOM][year/1996]")
            .build();
        assert_eq!(nested, Ok(expected));
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
