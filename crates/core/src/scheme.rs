//! Index schemes: which queries a file is indexed under.
//!
//! "The choice of the queries under which a file is indexed is arbitrary,
//! as long as the covering relation holds" (§IV-C). A scheme turns a
//! descriptor into a set of *index edges* `(q ; qᵢ)` with `q ⊒ qᵢ`, the
//! last edge of every chain ending at the MSD.
//!
//! This module implements the three schemes the paper evaluates (Fig. 8) —
//! [`SimpleScheme`], [`FlatScheme`], [`ComplexScheme`] — plus the deeper
//! hierarchical scheme of Fig. 4 ([`Fig4Scheme`], with its *Last name*
//! level) and an escape hatch for user-defined schemes ([`CustomScheme`]).
//!
//! All built-ins understand the bibliographic descriptor schema of Fig. 1
//! (`author/first`, `author/last`, `title`, `conf`, `year`); descriptors
//! may carry several `author` elements, in which case per-author index
//! entries are generated.

use std::borrow::Cow;

use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{Query, QueryBuilder};

/// The bibliographic fields a scheme indexes, borrowed from a descriptor.
///
/// Each text is the element's [`trimmed_text`](p2p_index_xmldoc::Element::trimmed_text)
/// — a borrow of the descriptor whenever one text run holds it all, as in
/// every canonical descriptor — so extracting the fields copies nothing
/// but the author list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BiblioFields<'a> {
    /// Root element name (normally `article`).
    pub root: &'a str,
    /// All `(first, last)` author name pairs.
    pub authors: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// The title text.
    pub title: Option<Cow<'a, str>>,
    /// The conference/journal text.
    pub conf: Option<Cow<'a, str>>,
    /// The publication year text.
    pub year: Option<Cow<'a, str>>,
}

impl<'a> BiblioFields<'a> {
    /// Extracts the indexable fields from a descriptor.
    pub fn of(descriptor: &'a Descriptor) -> BiblioFields<'a> {
        let root = descriptor.root();
        let authors = root
            .find_all("author")
            .filter_map(|a| {
                let first = a.find("first")?.trimmed_text();
                let last = a.find("last")?.trimmed_text();
                (!first.is_empty() && !last.is_empty()).then_some((first, last))
            })
            .collect();
        let field = |name: &str| {
            root.find(name)
                .map(|e| e.trimmed_text())
                .filter(|t| !t.is_empty())
        };
        BiblioFields {
            root: root.name(),
            authors,
            title: field("title"),
            conf: field("conf"),
            year: field("year"),
        }
    }

    /// `/root/author[first/F][last/L]`
    pub fn author_query(&self, author: &(Cow<'a, str>, Cow<'a, str>)) -> Query {
        QueryBuilder::new(self.root)
            .value("author/first", &author.0)
            .value("author/last", &author.1)
            .build()
    }

    /// `/root/author/last/L` — the *Last name* index level of Fig. 4.
    pub fn last_name_query(&self, author: &(Cow<'a, str>, Cow<'a, str>)) -> Query {
        QueryBuilder::new(self.root)
            .value("author/last", &author.1)
            .build()
    }

    /// `/root/title/T`
    pub fn title_query(&self) -> Option<Query> {
        let t = self.title.as_ref()?;
        Some(QueryBuilder::new(self.root).value("title", t).build())
    }

    /// `/root/conf/C`
    pub fn conf_query(&self) -> Option<Query> {
        let c = self.conf.as_ref()?;
        Some(QueryBuilder::new(self.root).value("conf", c).build())
    }

    /// `/root/year/Y`
    pub fn year_query(&self) -> Option<Query> {
        let y = self.year.as_ref()?;
        Some(QueryBuilder::new(self.root).value("year", y).build())
    }

    /// `/root[author[...]][title/T]`
    pub fn author_title_query(&self, author: &(Cow<'a, str>, Cow<'a, str>)) -> Option<Query> {
        let t = self.title.as_ref()?;
        Some(
            QueryBuilder::new(self.root)
                .value("author/first", &author.0)
                .value("author/last", &author.1)
                .value("title", t)
                .build(),
        )
    }

    /// `/root[conf/C][year/Y]`
    pub fn conf_year_query(&self) -> Option<Query> {
        let c = self.conf.as_ref()?;
        let y = self.year.as_ref()?;
        Some(
            QueryBuilder::new(self.root)
                .value("conf", c)
                .value("year", y)
                .build(),
        )
    }

    /// `/root[author[...]][conf/C]`
    pub fn author_conf_query(&self, author: &(Cow<'a, str>, Cow<'a, str>)) -> Option<Query> {
        let c = self.conf.as_ref()?;
        Some(
            QueryBuilder::new(self.root)
                .value("author/first", &author.0)
                .value("author/last", &author.1)
                .value("conf", c)
                .build(),
        )
    }

    /// `/root[author[...]][conf/C][year/Y]`
    pub fn author_conf_year_query(&self, author: &(Cow<'a, str>, Cow<'a, str>)) -> Option<Query> {
        let c = self.conf.as_ref()?;
        let y = self.year.as_ref()?;
        Some(
            QueryBuilder::new(self.root)
                .value("author/first", &author.0)
                .value("author/last", &author.1)
                .value("conf", c)
                .value("year", y)
                .build(),
        )
    }
}

/// A strategy producing the index edges for a descriptor.
///
/// Every edge `(from, to)` must satisfy `from ⊒ to`;
/// [`IndexService::publish`](crate::IndexService::publish) verifies this
/// before inserting anything ("resilient to arbitrary linking", §IV-D).
pub trait IndexScheme {
    /// Human-readable scheme name (used in reports).
    fn name(&self) -> &str;

    /// The query-to-query edges to install for `descriptor`, whose MSD is
    /// `msd`. Chains must terminate at `msd` for the file to be reachable.
    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)>;
}

fn push_edge(edges: &mut Vec<(Query, Query)>, from: Query, to: Query) {
    let edge = (from, to);
    if !edges.contains(&edge) {
        edges.push(edge);
    }
}

/// The *simple* scheme of Fig. 8 (left): two-level chains
/// `author|title → author+title → MSD` and `conf|year → conf+year → MSD`.
///
/// Most space-efficient of the three evaluated schemes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleScheme;

impl IndexScheme for SimpleScheme {
    fn name(&self) -> &str {
        "simple"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let f = BiblioFields::of(descriptor);
        let mut edges = Vec::new();
        // Built once: the title query is the same for every author, and a
        // `Query` clone is two `Arc` bumps.
        let title = f.title_query();
        for author in &f.authors {
            match f.author_title_query(author) {
                Some(at) => {
                    push_edge(&mut edges, f.author_query(author), at.clone());
                    if let Some(t) = &title {
                        push_edge(&mut edges, t.clone(), at.clone());
                    }
                    push_edge(&mut edges, at, msd.clone());
                }
                // No title: the author chain collapses to a direct link.
                None => push_edge(&mut edges, f.author_query(author), msd.clone()),
            }
        }
        if f.authors.is_empty() {
            if let Some(t) = title {
                push_edge(&mut edges, t, msd.clone());
            }
        }
        match f.conf_year_query() {
            Some(cy) => {
                if let Some(c) = f.conf_query() {
                    push_edge(&mut edges, c, cy.clone());
                }
                if let Some(y) = f.year_query() {
                    push_edge(&mut edges, y, cy.clone());
                }
                push_edge(&mut edges, cy, msd.clone());
            }
            // Only one of conf/year present: link it directly.
            None => {
                for q in [f.conf_query(), f.year_query()].into_iter().flatten() {
                    push_edge(&mut edges, q, msd.clone());
                }
            }
        }
        edges
    }
}

/// The *flat* scheme of Fig. 8 (center): every query of the simple scheme
/// maps directly to the MSD, "so that the index query length is always 2".
///
/// Fewest interactions, but the largest result sets, traffic, and storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatScheme;

impl IndexScheme for FlatScheme {
    fn name(&self) -> &str {
        "flat"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let f = BiblioFields::of(descriptor);
        let mut edges = Vec::new();
        for author in &f.authors {
            push_edge(&mut edges, f.author_query(author), msd.clone());
            if let Some(at) = f.author_title_query(author) {
                push_edge(&mut edges, at, msd.clone());
            }
        }
        for q in [
            f.title_query(),
            f.conf_query(),
            f.year_query(),
            f.conf_year_query(),
        ]
        .into_iter()
        .flatten()
        {
            push_edge(&mut edges, q, msd.clone());
        }
        edges
    }
}

/// The *complex* scheme of Fig. 8 (right): some simple-scheme queries are
/// split into more specific intermediate queries to shorten result lists,
/// at the cost of longer chains (up to
/// `conf → conf+year → author+conf+year → MSD`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ComplexScheme;

impl IndexScheme for ComplexScheme {
    fn name(&self) -> &str {
        "complex"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let f = BiblioFields::of(descriptor);
        let mut edges = Vec::new();
        // Built once: these are author-independent, and a `Query` clone
        // is two `Arc` bumps.
        let title = f.title_query();
        let conf_year = f.conf_year_query();
        for author in &f.authors {
            let a = f.author_query(author);
            let mut author_chained = false;
            if let Some(at) = f.author_title_query(author) {
                push_edge(&mut edges, a.clone(), at.clone());
                if let Some(t) = &title {
                    push_edge(&mut edges, t.clone(), at.clone());
                }
                push_edge(&mut edges, at, msd.clone());
                author_chained = true;
            }
            // The author+conference refinement chain.
            if let Some(acy) = f.author_conf_year_query(author) {
                if let Some(ac) = f.author_conf_query(author) {
                    push_edge(&mut edges, a.clone(), ac.clone());
                    push_edge(&mut edges, ac, acy.clone());
                }
                if let Some(cy) = &conf_year {
                    push_edge(&mut edges, cy.clone(), acy.clone());
                }
                push_edge(&mut edges, acy, msd.clone());
                author_chained = true;
            }
            if !author_chained {
                // Not enough fields to refine through: link directly.
                push_edge(&mut edges, a.clone(), msd.clone());
            }
        }
        if f.authors.is_empty() {
            if let Some(t) = title {
                push_edge(&mut edges, t, msd.clone());
            }
        }
        match conf_year {
            Some(cy) => {
                if let Some(c) = f.conf_query() {
                    push_edge(&mut edges, c, cy.clone());
                }
                if let Some(y) = f.year_query() {
                    push_edge(&mut edges, y, cy.clone());
                }
                if f.authors.is_empty() {
                    // No author to refine through: close the chain directly.
                    push_edge(&mut edges, cy, msd.clone());
                }
            }
            None => {
                for q in [f.conf_query(), f.year_query()].into_iter().flatten() {
                    push_edge(&mut edges, q, msd.clone());
                }
            }
        }
        edges
    }
}

/// The hierarchical scheme of Fig. 4, with the extra *Last name* level:
/// `last-name → author → article(author+title) → MSD`,
/// `title → article`, `conf|year → proceedings(conf+year) → MSD`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Scheme;

impl IndexScheme for Fig4Scheme {
    fn name(&self) -> &str {
        "fig4-hierarchical"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let f = BiblioFields::of(descriptor);
        let mut edges = Vec::new();
        // Built once: the title query is the same for every author, and a
        // `Query` clone is two `Arc` bumps.
        let title = f.title_query();
        for author in &f.authors {
            let a = f.author_query(author);
            push_edge(&mut edges, f.last_name_query(author), a.clone());
            match f.author_title_query(author) {
                Some(at) => {
                    push_edge(&mut edges, a, at.clone());
                    if let Some(t) = &title {
                        push_edge(&mut edges, t.clone(), at.clone());
                    }
                    push_edge(&mut edges, at, msd.clone());
                }
                None => push_edge(&mut edges, a, msd.clone()),
            }
        }
        if f.authors.is_empty() {
            if let Some(t) = title {
                push_edge(&mut edges, t, msd.clone());
            }
        }
        match f.conf_year_query() {
            Some(cy) => {
                if let Some(c) = f.conf_query() {
                    push_edge(&mut edges, c, cy.clone());
                }
                if let Some(y) = f.year_query() {
                    push_edge(&mut edges, y, cy.clone());
                }
                push_edge(&mut edges, cy, msd.clone());
            }
            None => {
                for q in [f.conf_query(), f.year_query()].into_iter().flatten() {
                    push_edge(&mut edges, q, msd.clone());
                }
            }
        }
        edges
    }
}

/// Decorates another scheme with *initial-letter* author indexes (§IV-C:
/// "one can create an index with all the files of an author that start
/// with the letter 'A', the letter 'B', etc." — substring matching via
/// the `^=` prefix operator).
///
/// For every author, an extra edge links
/// `/article[author/last^=P]` (P = the first `prefix_len` characters of
/// the last name) to the author's full-name query, so users can browse
/// by initial and refine.
///
/// # Examples
///
/// ```
/// use p2p_index_core::{IndexScheme, InitialLetterScheme, SimpleScheme};
/// use p2p_index_xmldoc::Descriptor;
/// use p2p_index_xpath::Query;
///
/// let scheme = InitialLetterScheme::new(SimpleScheme, 1);
/// let d = Descriptor::parse(
///     "<article><author><first>John</first><last>Smith</last></author>\
///      <title>TCP</title></article>",
/// ).unwrap();
/// let msd = Query::most_specific(&d);
/// let edges = scheme.index_edges(&d, &msd);
/// assert!(edges.iter().any(|(from, _)| from.to_string().contains("last^=S")));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InitialLetterScheme<S> {
    inner: S,
    prefix_len: usize,
}

impl<S: IndexScheme> InitialLetterScheme<S> {
    /// Wraps `inner`, adding author-initial entries of `prefix_len`
    /// characters (1 = single letter).
    pub fn new(inner: S, prefix_len: usize) -> Self {
        InitialLetterScheme {
            inner,
            prefix_len: prefix_len.max(1),
        }
    }
}

impl<S: IndexScheme> IndexScheme for InitialLetterScheme<S> {
    fn name(&self) -> &str {
        "initial-letter"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let mut edges = self.inner.index_edges(descriptor, msd);
        let f = BiblioFields::of(descriptor);
        for author in &f.authors {
            let prefix: String = author.1.chars().take(self.prefix_len).collect();
            if prefix.is_empty() {
                continue;
            }
            let initial = QueryBuilder::new(f.root)
                .compare("author/last", p2p_index_xpath::CmpOp::StartsWith, prefix)
                .build();
            push_edge(&mut edges, initial, f.author_query(author));
        }
        edges
    }
}

/// Decorates another scheme with per-keyword title indexes.
///
/// The paper's related work (Harren et al., IPTPS 2002) splits query
/// strings and uses "each piece to create a key matching the query"; this
/// scheme does exactly that for titles: every title word longer than
/// `min_len` gets an edge `/article[title*=word] → /article/title/T`, so
/// users can find articles knowing only words of the title.
///
/// # Examples
///
/// ```
/// use p2p_index_core::{IndexScheme, KeywordTitleScheme, SimpleScheme};
/// use p2p_index_xmldoc::Descriptor;
/// use p2p_index_xpath::Query;
///
/// let scheme = KeywordTitleScheme::new(SimpleScheme, 4);
/// let d = Descriptor::parse(
///     "<article><author><first>A</first><last>B</last></author>\
///      <title>Adaptive Routing in Overlays</title></article>",
/// ).unwrap();
/// let msd = Query::most_specific(&d);
/// let edges = scheme.index_edges(&d, &msd);
/// assert!(edges.iter().any(|(from, _)| from.to_string().contains("title*=Routing")));
/// // "in" is shorter than min_len and gets no entry.
/// assert!(!edges.iter().any(|(from, _)| from.to_string().contains("title*=in]")));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KeywordTitleScheme<S> {
    inner: S,
    min_len: usize,
}

impl<S: IndexScheme> KeywordTitleScheme<S> {
    /// Wraps `inner`, indexing title words of at least `min_len`
    /// characters (filters stop-words like "in", "of", "the").
    pub fn new(inner: S, min_len: usize) -> Self {
        KeywordTitleScheme {
            inner,
            min_len: min_len.max(1),
        }
    }
}

impl<S: IndexScheme> IndexScheme for KeywordTitleScheme<S> {
    fn name(&self) -> &str {
        "keyword-title"
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let mut edges = self.inner.index_edges(descriptor, msd);
        let f = BiblioFields::of(descriptor);
        let (Some(title), Some(title_query)) = (&f.title, f.title_query()) else {
            return edges;
        };
        for word in title.split_whitespace() {
            let word = word.trim_matches(|c: char| !c.is_alphanumeric());
            if word.chars().count() < self.min_len {
                continue;
            }
            let keyword = QueryBuilder::new(f.root)
                .compare("title", p2p_index_xpath::CmpOp::Contains, word)
                .build();
            push_edge(&mut edges, keyword, title_query.clone());
        }
        edges
    }
}

/// A user-defined scheme built from a closure.
///
/// # Examples
///
/// ```
/// use p2p_index_core::{CustomScheme, IndexScheme};
/// use p2p_index_xmldoc::Descriptor;
/// use p2p_index_xpath::{Query, QueryBuilder};
///
/// // Index every article only under its publication year.
/// let scheme = CustomScheme::new("year-only", |d: &Descriptor, msd: &Query| {
///     let year = d.field("year")?;
///     let q = QueryBuilder::new(d.root().name()).value("year", year).build();
///     Some(vec![(q, msd.clone())])
/// });
/// let d = Descriptor::parse("<article><title>X</title><year>1999</year></article>").unwrap();
/// let msd = Query::most_specific(&d);
/// assert_eq!(scheme.index_edges(&d, &msd).len(), 1);
/// ```
pub struct CustomScheme<F> {
    name: String,
    edges_fn: F,
}

impl<F> CustomScheme<F>
where
    F: Fn(&Descriptor, &Query) -> Option<Vec<(Query, Query)>>,
{
    /// Creates a scheme from a closure. Returning `None` indexes nothing
    /// (the file stays reachable only through its complete key — the
    /// paper's "versatility" property).
    pub fn new(name: impl Into<String>, edges_fn: F) -> Self {
        CustomScheme {
            name: name.into(),
            edges_fn,
        }
    }
}

impl<F> IndexScheme for CustomScheme<F>
where
    F: Fn(&Descriptor, &Query) -> Option<Vec<(Query, Query)>>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        (self.edges_fn)(descriptor, msd).unwrap_or_default()
    }
}

impl<F> std::fmt::Debug for CustomScheme<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomScheme")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d2() -> Descriptor {
        Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>IPv6</title><conf>INFOCOM</conf><year>1996</year><size>312352</size></article>",
        )
        .unwrap()
    }

    fn edges_of(scheme: &dyn IndexScheme, d: &Descriptor) -> Vec<(Query, Query)> {
        let msd = Query::most_specific(d);
        scheme.index_edges(d, &msd)
    }

    #[test]
    fn fields_extraction() {
        let d = d2();
        let f = BiblioFields::of(&d);
        assert_eq!(f.root, "article");
        assert_eq!(f.authors, vec![("John".into(), "Smith".into())]);
        // Borrowed from the descriptor, not copied.
        assert!(matches!(f.authors[0], (Cow::Borrowed(_), Cow::Borrowed(_))));
        assert!(matches!(f.title, Some(Cow::Borrowed(_))));
        assert_eq!(f.title.as_deref(), Some("IPv6"));
        assert_eq!(f.conf.as_deref(), Some("INFOCOM"));
        assert_eq!(f.year.as_deref(), Some("1996"));
    }

    #[test]
    fn fields_of_partial_descriptor() {
        let d = Descriptor::parse("<article><title>X</title></article>").unwrap();
        let f = BiblioFields::of(&d);
        assert!(f.authors.is_empty());
        assert!(f.conf.is_none());
        assert!(f.conf_year_query().is_none());
        assert!(f.title_query().is_some());
    }

    #[test]
    fn every_edge_satisfies_covering() {
        let d = d2();
        let msd = Query::most_specific(&d);
        for scheme in [
            &SimpleScheme as &dyn IndexScheme,
            &FlatScheme,
            &ComplexScheme,
            &Fig4Scheme,
        ] {
            for (from, to) in scheme.index_edges(&d, &msd) {
                assert!(
                    from.covers(&to),
                    "{}: {from} must cover {to}",
                    scheme.name()
                );
                assert!(
                    from.covers(&msd),
                    "{}: {from} must cover msd",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn every_chain_reaches_msd() {
        // From any edge source, following edges must reach the MSD.
        let d = d2();
        let msd = Query::most_specific(&d);
        for scheme in [
            &SimpleScheme as &dyn IndexScheme,
            &FlatScheme,
            &ComplexScheme,
            &Fig4Scheme,
        ] {
            let edges = scheme.index_edges(&d, &msd);
            for (start, _) in &edges {
                let mut frontier = vec![start.clone()];
                let mut seen = vec![];
                let mut reached = false;
                while let Some(q) = frontier.pop() {
                    if q == msd {
                        reached = true;
                        break;
                    }
                    if seen.contains(&q) {
                        continue;
                    }
                    seen.push(q.clone());
                    frontier.extend(
                        edges
                            .iter()
                            .filter(|(f, _)| *f == q)
                            .map(|(_, t)| t.clone()),
                    );
                }
                assert!(
                    reached,
                    "{}: chain from {start} must reach MSD",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn simple_scheme_shape() {
        let edges = edges_of(&SimpleScheme, &d2());
        // author→AT, title→AT, AT→msd, conf→CY, year→CY, CY→msd.
        assert_eq!(edges.len(), 6);
        let msd = Query::most_specific(&d2());
        let to_msd = edges.iter().filter(|(_, t)| *t == msd).count();
        assert_eq!(to_msd, 2);
    }

    #[test]
    fn flat_scheme_all_edges_point_to_msd() {
        let msd = Query::most_specific(&d2());
        let edges = edges_of(&FlatScheme, &d2());
        assert_eq!(edges.len(), 6);
        assert!(edges.iter().all(|(_, t)| *t == msd));
    }

    #[test]
    fn complex_scheme_has_deeper_chains() {
        let edges = edges_of(&ComplexScheme, &d2());
        // Depth of chain conf → conf+year → author+conf+year → msd is 3 edges.
        let d = d2();
        let f = BiblioFields::of(&d);
        let author = &f.authors[0];
        let conf = f.conf_query().unwrap();
        let cy = f.conf_year_query().unwrap();
        let acy = f.author_conf_year_query(author).unwrap();
        let msd = Query::most_specific(&d2());
        assert!(edges.contains(&(conf, cy.clone())));
        assert!(edges.contains(&(cy, acy.clone())));
        assert!(edges.contains(&(acy, msd)));
        assert!(edges.len() > 6);
    }

    #[test]
    fn fig4_scheme_has_last_name_level() {
        let d = d2();
        let f = BiblioFields::of(&d);
        let author = &f.authors[0];
        let edges = edges_of(&Fig4Scheme, &d2());
        assert!(edges.contains(&(f.last_name_query(author), f.author_query(author))));
    }

    #[test]
    fn multi_author_descriptor_indexes_each_author() {
        let d = Descriptor::parse(
            "<article><author><first>A</first><last>B</last></author>\
             <author><first>C</first><last>D</last></author>\
             <title>T</title><conf>X</conf><year>2000</year></article>",
        )
        .unwrap();
        let f = BiblioFields::of(&d);
        assert_eq!(f.authors.len(), 2);
        let edges = edges_of(&SimpleScheme, &d);
        let author_sources = edges
            .iter()
            .filter(|(from, _)| from.to_string().contains("first"))
            .count();
        assert!(author_sources >= 2, "each author gets an index entry");
    }

    #[test]
    fn descriptor_without_indexable_fields_yields_no_edges() {
        let d = Descriptor::parse("<article><size>99</size></article>").unwrap();
        for scheme in [
            &SimpleScheme as &dyn IndexScheme,
            &FlatScheme,
            &ComplexScheme,
        ] {
            assert!(edges_of(scheme, &d).is_empty(), "{}", scheme.name());
        }
    }

    #[test]
    fn complex_without_author_still_closes_conf_chain() {
        let d =
            Descriptor::parse("<article><title>T</title><conf>X</conf><year>2000</year></article>")
                .unwrap();
        let msd = Query::most_specific(&d);
        let edges = edges_of(&ComplexScheme, &d);
        let f = BiblioFields::of(&d);
        assert!(edges.contains(&(f.conf_year_query().unwrap(), msd)));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SimpleScheme.name(), "simple");
        assert_eq!(FlatScheme.name(), "flat");
        assert_eq!(ComplexScheme.name(), "complex");
        assert_eq!(Fig4Scheme.name(), "fig4-hierarchical");
    }

    #[test]
    fn initial_letter_scheme_adds_prefix_edges() {
        let scheme = InitialLetterScheme::new(SimpleScheme, 1);
        let d = d2();
        let msd = Query::most_specific(&d);
        let edges = scheme.index_edges(&d, &msd);
        let inner_edges = SimpleScheme.index_edges(&d, &msd);
        assert_eq!(edges.len(), inner_edges.len() + 1);
        let f = BiblioFields::of(&d);
        let initial: Query = "/article[author/last^=S]".parse().unwrap();
        assert!(edges.contains(&(initial.clone(), f.author_query(&f.authors[0]))));
        // Covering invariant holds for the prefix edge too.
        for (from, to) in &edges {
            assert!(from.covers(to), "{from} must cover {to}");
        }
        assert_eq!(scheme.name(), "initial-letter");
    }

    #[test]
    fn initial_letter_scheme_longer_prefixes() {
        let scheme = InitialLetterScheme::new(FlatScheme, 3);
        let d = d2();
        let msd = Query::most_specific(&d);
        let edges = scheme.index_edges(&d, &msd);
        assert!(edges
            .iter()
            .any(|(from, _)| from.to_string().contains("last^=Smi")));
    }

    #[test]
    fn keyword_title_scheme_indexes_long_words() {
        let scheme = KeywordTitleScheme::new(SimpleScheme, 4);
        let d = Descriptor::parse(
            "<article><author><first>A</first><last>B</last></author>\
             <title>Adaptive Routing in Overlay Networks</title>\
             <conf>X</conf><year>2000</year></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        let edges = scheme.index_edges(&d, &msd);
        let keyword_edges: Vec<_> = edges
            .iter()
            .filter(|(from, _)| from.to_string().contains("title*="))
            .collect();
        // Adaptive, Routing, Overlay, Networks — not "in".
        assert_eq!(keyword_edges.len(), 4);
        let f = BiblioFields::of(&d);
        for (from, to) in &keyword_edges {
            assert!(from.covers(to), "{from} must cover {to}");
            assert_eq!(*to, f.title_query().unwrap());
        }
        assert_eq!(scheme.name(), "keyword-title");
    }

    #[test]
    fn keyword_title_scheme_without_title_is_inner_only() {
        let scheme = KeywordTitleScheme::new(FlatScheme, 4);
        let d = Descriptor::parse(
            "<article><author><first>A</first><last>B</last></author><year>2000</year></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        assert_eq!(
            scheme.index_edges(&d, &msd),
            FlatScheme.index_edges(&d, &msd)
        );
    }

    #[test]
    fn custom_scheme_none_indexes_nothing() {
        let scheme = CustomScheme::new("nothing", |_: &Descriptor, _: &Query| None);
        assert!(edges_of(&scheme, &d2()).is_empty());
        assert_eq!(scheme.name(), "nothing");
        assert!(format!("{scheme:?}").contains("nothing"));
    }
}
