//! Index schemes: which queries a file is indexed under.
//!
//! "The choice of the queries under which a file is indexed is arbitrary,
//! as long as the covering relation holds" (§IV-C). A scheme turns a
//! descriptor into a set of *index edges* `(q ; qᵢ)` with `q ⊒ qᵢ`, the
//! last edge of every chain ending at the MSD.
//!
//! Every built-in scheme is a [`Table`]: the three the paper evaluates
//! (Fig. 8: [`SIMPLE`], [`FLAT`], [`COMPLEX`]) and the hierarchy of Fig. 4
//! with its *Last name* level ([`FIG4`]), run as [`SimpleScheme`],
//! [`FlatScheme`], [`ComplexScheme`] and [`Fig4Scheme`]. A table's
//! [`Node`]s are sets of Fig. 1's fields (`author/first`, `author/last`,
//! `title`, `conf`, `year`) and the MSD. Its rows are `from → to` pairs
//! whose `from` names a subset of `to`'s fields, so `q ⊒ qᵢ` holds by
//! construction. One interpreter runs every table:
//!
//! - The rows that name an author run once per author of the descriptor
//!   (once, with every per-author node absent, when it has none). The
//!   author-free rows run after them, once.
//! - A row with an absent end — a node whose fields the descriptor lacks —
//!   is dropped.
//! - A present field node that is the source of some row, but has emitted
//!   no edge by the last row that mentions it, gets one edge to the MSD
//!   right after that row. This one rule is every missing-field fallback:
//!   with no title, Simple's `author → author+title → MSD` collapses to
//!   `author → MSD`.
//! - The rule needs one override, in [`COMPLEX`]'s data: its
//!   [`AUTHOR_CONF`] node also needs `year`, so author+conf is indexed
//!   only on the way to author+conf+year.
//!
//! [`InitialLetterScheme`] and [`KeywordTitleScheme`] append a section of
//! transform nodes to any scheme: the initial letters of `last`, and the
//! title's words. Other schemes implement [`IndexScheme`] themselves.
//!
//! The interpreter builds each node query once per descriptor, in this
//! thread's query draft, and asks a [`KnownQueries`] table for its text
//! ([`IndexScheme::index_edges_into`]): a writer passes the queries it has
//! read, so a node query it holds costs no allocation. What becomes of a
//! query the table lacks, and where the edges go, is the [`EdgeSink`]'s
//! to say. There are two, run by the same interpreter:
//!
//! - `Vec<(Query, Query)>`, the *freezing* sink, freezes each such query
//!   into an `Arc` of its own — what [`IndexScheme::index_edges`] returns;
//! - the *write* sink, which `publish` and `unpublish` use, packs each into
//!   one buffer the service keeps ([`PackedQueries`]) and keeps its edges
//!   as [`Built`] ends, read as views ([`QueryRef`]). A write only hashes
//!   a node query and encodes it into a value, so it never freezes one:
//!   the MSD it returns is the one query a write may allocate.

use std::borrow::Cow;

use p2p_index_xmldoc::{Descriptor, Element};
#[cfg(doc)]
use p2p_index_xpath::QueryRef;
use p2p_index_xpath::{Built, CmpOp, KnownQueries, PackedQueries, Query, QuerySteps, TooDeep};

/// The bibliographic fields a scheme indexes, borrowed from a descriptor.
///
/// Each text is the element's [`trimmed_text`](p2p_index_xmldoc::Element::trimmed_text)
/// — a borrow of the descriptor whenever one text run holds it all, as in
/// every canonical descriptor — so extracting the fields copies nothing:
/// the authors are walked from the descriptor ([`authors`](Self::authors)),
/// not collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiblioFields<'a> {
    /// Root element name (normally `article`).
    pub root: &'a str,
    /// The root element, whose `author` children are the authors.
    element: &'a Element,
    /// The title text.
    pub title: Option<Cow<'a, str>>,
    /// The conference/journal text.
    pub conf: Option<Cow<'a, str>>,
    /// The publication year text.
    pub year: Option<Cow<'a, str>>,
}

/// An author's `(first, last)` names.
pub type Author<'a> = (Cow<'a, str>, Cow<'a, str>);

/// A [`Table`] row: an index edge `from → to` between two nodes.
pub type Row = (Node, Node);

/// The paths of Fig. 1's fields: bit `i` of a [`Node::Fields`] set is
/// `PATHS[i]`.
const PATHS: [&str; 5] = ["author/first", "author/last", "title", "conf", "year"];

impl<'a> BiblioFields<'a> {
    /// Extracts the indexable fields from a descriptor.
    pub fn of(descriptor: &'a Descriptor) -> BiblioFields<'a> {
        let root = descriptor.root();
        let field = |name: &str| {
            root.find(name)
                .map(|e| e.trimmed_text())
                .filter(|t| !t.is_empty())
        };
        BiblioFields {
            root: root.name(),
            element: root,
            title: field("title"),
            conf: field("conf"),
            year: field("year"),
        }
    }

    /// The `(first, last)` names of every author that has both, in
    /// document order, read from the descriptor as the walk reaches them.
    pub fn authors(&self) -> impl Iterator<Item = Author<'a>> + 'a {
        self.element.find_all("author").filter_map(|a| {
            let first = a.find("first")?.trimmed_text();
            let last = a.find("last")?.trimmed_text();
            (!first.is_empty() && !last.is_empty()).then_some((first, last))
        })
    }

    /// The query of the field-set `node` with `author`'s names, e.g.
    /// `/root[author[first/F][last/L]][title/T]` for [`AUTHOR_TITLE`].
    ///
    /// `None`, with nothing built, when `node` is not a [`Node::Fields`]
    /// or the descriptor (or a missing `author`) lacks a field it needs.
    pub fn query(&self, node: Node, author: Option<&Author<'a>>) -> Option<Query> {
        let steps = self.steps(node, author)?;
        Some(Query::build_with(self.root, steps).expect("a field-set query nests four levels"))
    }

    /// The builder steps of [`query`](Self::query)'s query, `None` when it
    /// has none.
    fn steps<'s>(
        &'s self,
        node: Node,
        author: Option<&'s Author<'a>>,
    ) -> Option<impl FnMut(&mut QuerySteps<'_>) + 's> {
        let Node::Fields(fields, needs) = node else {
            return None;
        };
        let values = [
            author.map(|a| &*a.0),
            author.map(|a| &*a.1),
            self.title.as_deref(),
            self.conf.as_deref(),
            self.year.as_deref(),
        ];
        let bits = |set: u8| (0..5).filter(move |i| set & 1 << i != 0);
        if bits(needs | fields).any(|i| values[i].is_none()) {
            return None;
        }
        Some(move |query: &mut QuerySteps<'_>| {
            for (path, value) in bits(fields).filter_map(|i| Some((PATHS[i], values[i]?))) {
                query.value(path, value);
            }
        })
    }

    /// The title's words of at least `min_len` characters.
    fn keywords(&self, min_len: usize) -> impl Iterator<Item = &str> {
        let words = self.title.iter().flat_map(|t| t.split_whitespace());
        words
            .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
            .filter(move |w| w.chars().count() >= min_len)
    }
}

/// Where a scheme's edges go, and what becomes of a node query the
/// writer's table of known queries lacks.
///
/// The freezing sink, `Vec<(Query, Query)>`, freezes every such query; a
/// sink may instead pack them into a buffer it keeps (the write sink of
/// `publish` and `unpublish`). A scheme that builds its own queries hands
/// them over frozen: `sink.push(Built::Frozen(from), Built::Frozen(to))`.
pub trait EdgeSink {
    /// The node query `steps` builds under the root element `root`: the
    /// copy `known` holds of its canonical text, else one the sink keeps
    /// its own way — frozen, or packed into its buffer.
    ///
    /// # Errors
    ///
    /// [`TooDeep`] if a constraint nested deeper than
    /// [`MAX_DEPTH`](p2p_index_xpath::MAX_DEPTH).
    fn build(
        &mut self,
        root: &str,
        known: &mut dyn KnownQueries,
        steps: &mut dyn FnMut(&mut QuerySteps<'_>),
    ) -> Result<Built, TooDeep>;

    /// Appends the edge `from → to`, unless the sink holds an edge between
    /// the same two queries. Each end is [`Built::Frozen`] or came from
    /// this sink's [`build`](Self::build).
    fn push(&mut self, from: Built, to: Built);

    /// Makes room for `additional` more edges.
    fn reserve(&mut self, additional: usize);
}

/// The freezing sink: every node query `known` lacks is frozen, so an edge
/// is a pair of queries.
impl EdgeSink for Vec<(Query, Query)> {
    fn build(
        &mut self,
        root: &str,
        known: &mut dyn KnownQueries,
        steps: &mut dyn FnMut(&mut QuerySteps<'_>),
    ) -> Result<Built, TooDeep> {
        Query::build_with_known(root, known, steps).map(Built::Frozen)
    }

    fn push(&mut self, from: Built, to: Built) {
        let frozen = |end| match end {
            Built::Frozen(query) => query,
            Built::Packed(_) => unreachable!("the freezing sink packs nothing"),
        };
        let edge = (frozen(from), frozen(to));
        if !self.contains(&edge) {
            Vec::push(self, edge);
        }
    }

    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// The write sink: a node query the writer's table lacks is packed into
/// `packed`, a buffer the writer keeps, and `edges` holds each edge's ends
/// as [`Built`]s, read through [`Built::view`] with that buffer. Both are
/// the writer's, kept from call to call, so a warm write builds its edges
/// without allocating.
pub(crate) struct WriteEdges<'w> {
    pub(crate) edges: &'w mut Vec<(Built, Built)>,
    pub(crate) packed: &'w mut PackedQueries,
}

impl EdgeSink for WriteEdges<'_> {
    fn build(
        &mut self,
        root: &str,
        known: &mut dyn KnownQueries,
        steps: &mut dyn FnMut(&mut QuerySteps<'_>),
    ) -> Result<Built, TooDeep> {
        Query::pack_with_known(root, known, self.packed, steps)
    }

    fn push(&mut self, from: Built, to: Built) {
        let packed = &*self.packed;
        let same = |a: &Built, b: &Built| a.view(packed) == b.view(packed);
        let held = self
            .edges
            .iter()
            .any(|(f, t)| same(f, &from) && same(t, &to));
        if !held {
            self.edges.push((from, to));
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
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
    /// `msd`, pushed into `edges` — a sink the caller keeps from call to
    /// call, holding no edge of another descriptor. Chains must terminate
    /// at `msd` for the file to be reachable.
    ///
    /// Every node query is built through the sink
    /// ([`EdgeSink::build`]): taken from `known` when it holds the query's
    /// canonical text, and frozen or packed otherwise — the same edges, in
    /// the same order, whatever `known` holds and whichever the sink.
    /// `publish` and `unpublish` pass the client's known queries and the
    /// write sink, so an index query the client has read is not built
    /// again, and one it has not is packed, not frozen.
    fn index_edges_into(
        &self,
        descriptor: &Descriptor,
        msd: &Query,
        known: &mut dyn KnownQueries,
        edges: &mut dyn EdgeSink,
    );

    /// [`index_edges_into`](Self::index_edges_into) a new vector, the
    /// freezing sink: every query built anew (the table that holds
    /// nothing, `()`) and frozen.
    fn index_edges(&self, descriptor: &Descriptor, msd: &Query) -> Vec<(Query, Query)> {
        let mut edges = Vec::new();
        self.index_edges_into(descriptor, msd, &mut (), &mut edges);
        edges
    }
}

/// A node of a scheme [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// `Fields(fields, needs)`: the query naming the field set `fields`
    /// (bit `i` is the `i`-th of `author/first`, `author/last`, `title`,
    /// `conf`, `year`), present when the descriptor has every field of
    /// `needs`, a superset of `fields`.
    Fields(u8, u8),
    /// The descriptor's most specific query, where every chain ends.
    Msd,
    /// `/root[author/last^=P]`, P the first `n` characters of an author's
    /// last name.
    Initial(usize),
    /// `/root[title*=W]`, one per title word W of at least `n` characters.
    Keywords(usize),
}

impl Node {
    /// Whether the node is built once per author.
    fn per_author(self) -> bool {
        matches!(self, Node::Fields(fields, _) if fields & 0b11 != 0)
            || matches!(self, Node::Initial(_))
    }
}

/// `/root/author[first/F][last/L]`
pub const AUTHOR: Node = Node::Fields(0b00011, 0b00011);
/// `/root/author/last/L`: the *Last name* level of Fig. 4.
pub const LAST_NAME: Node = Node::Fields(0b00010, 0b00010);
/// `/root/title/T`
pub const TITLE: Node = Node::Fields(0b00100, 0b00100);
/// `/root/conf/C`
pub const CONF: Node = Node::Fields(0b01000, 0b01000);
/// `/root/year/Y`
pub const YEAR: Node = Node::Fields(0b10000, 0b10000);
/// `/root[author[…]][title/T]`
pub const AUTHOR_TITLE: Node = Node::Fields(0b00111, 0b00111);
/// `/root[conf/C][year/Y]`
pub const CONF_YEAR: Node = Node::Fields(0b11000, 0b11000);
/// `/root[author[…]][conf/C]`, present only when `year` is too: the
/// fallback rule's one override, so that Complex reaches author+conf only
/// on its way to author+conf+year.
pub const AUTHOR_CONF: Node = Node::Fields(0b01011, 0b11011);
/// `/root[author[…]][conf/C][year/Y]`
pub const AUTHOR_CONF_YEAR: Node = Node::Fields(0b11011, 0b11011);
/// The descriptor's MSD.
pub const MSD: Node = Node::Msd;

/// A scheme as data: its index edges `from → to`, in emission order, the
/// rows that name an author first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table {
    /// The scheme's name (used in reports).
    pub name: &'static str,
    /// The rows; each `from` names a strict subset of its `to`'s fields.
    pub rows: &'static [Row],
}

/// Fig. 8 (left), one chain a line: `author|title → author+title → MSD`
/// and `conf|year → conf+year → MSD`. The most space-efficient of the
/// three.
#[rustfmt::skip]
pub const SIMPLE: Table = Table { name: "simple", rows: &[
    (AUTHOR, AUTHOR_TITLE), (TITLE, AUTHOR_TITLE), (AUTHOR_TITLE, MSD),
    (CONF, CONF_YEAR), (YEAR, CONF_YEAR), (CONF_YEAR, MSD),
]};

/// Fig. 8 (center): Simple's queries all map to the MSD, "so that the
/// index query length is always 2". Fewest interactions, but the largest
/// result sets, traffic and storage.
#[rustfmt::skip]
pub const FLAT: Table = Table { name: "flat", rows: &[
    (AUTHOR, MSD), (AUTHOR_TITLE, MSD),
    (TITLE, MSD), (CONF, MSD), (YEAR, MSD), (CONF_YEAR, MSD),
]};

/// Fig. 8 (right), one chain a line: Simple's, with author+conf+year
/// refining author and conf+year for shorter result lists at the cost of
/// longer chains (up to `conf → conf+year → author+conf+year → MSD`).
#[rustfmt::skip]
pub const COMPLEX: Table = Table { name: "complex", rows: &[
    (AUTHOR, AUTHOR_TITLE), (TITLE, AUTHOR_TITLE), (AUTHOR_TITLE, MSD),
    (AUTHOR, AUTHOR_CONF), (AUTHOR_CONF, AUTHOR_CONF_YEAR),
    (CONF_YEAR, AUTHOR_CONF_YEAR), (AUTHOR_CONF_YEAR, MSD),
    (CONF, CONF_YEAR), (YEAR, CONF_YEAR),
]};

/// Fig. 4, one chain a line: `last-name → author → article(author+title)
/// → MSD`, `title → article`, `conf|year → proceedings(conf+year) → MSD`.
#[rustfmt::skip]
pub const FIG4: Table = Table { name: "fig4-hierarchical", rows: &[
    (LAST_NAME, AUTHOR), (AUTHOR, AUTHOR_TITLE), (TITLE, AUTHOR_TITLE), (AUTHOR_TITLE, MSD),
    (CONF, CONF_YEAR), (YEAR, CONF_YEAR), (CONF_YEAR, MSD),
]};

/// The interpreter: pushes the edges of `rows` for `descriptor` into
/// `sink`, reserving a slot per row and author (per word for a keyword
/// row) — a fallback edge takes the slot of a dropped row out of its node.
/// Every node query is built through the sink, from `known` if it holds it.
fn run(
    sink: &mut dyn EdgeSink,
    descriptor: &Descriptor,
    msd: &Query,
    rows: &[Row],
    known: &mut dyn KnownQueries,
) {
    let f = BiblioFields::of(descriptor);
    let turns = f.authors().count().max(1);
    let room = |&(from, _): &Row| match from {
        Node::Keywords(n) => f.keywords(n).count(),
        _ => turns,
    };
    sink.reserve(rows.iter().map(room).sum());
    let mut nodes = Nodes {
        f: &f,
        msd,
        known,
        sink,
        author: None,
        built: Default::default(),
        emitted: [0; 2],
    };
    let mut authors = f.authors();
    for turn in 0..turns {
        // Each author's turn runs the per-author rows; the last one goes
        // on through the author-free rows.
        (nodes.author, nodes.built[1], nodes.emitted[1]) = (authors.next(), Default::default(), 0);
        let last = turn + 1 == turns;
        for (k, &(from, to)) in rows.iter().enumerate() {
            if last || from.per_author() || to.per_author() {
                nodes.row(rows, k, last);
            }
        }
    }
}

/// One descriptor's node queries, each built (or found absent) once: an
/// author-free one in `built[0]`, the current author's in `built[1]`, a
/// field set in the slot of its bits. `emitted` has the same halves and slots, one bit each: the
/// node has an edge out.
struct Nodes<'f, 'a> {
    f: &'f BiblioFields<'a>,
    msd: &'f Query,
    /// Where a node query is taken from before the sink keeps it.
    known: &'f mut dyn KnownQueries,
    /// What builds the node queries the table lacks, and takes the edges.
    sink: &'f mut dyn EdgeSink,
    author: Option<Author<'a>>,
    built: [[Option<Option<Built>>; 32]; 2],
    emitted: [u32; 2],
}

impl Nodes<'_, '_> {
    /// A present node's query; a keyword node's are built by [`Nodes::row`].
    fn get(&mut self, node: Node) -> Option<Built> {
        let Nodes {
            f,
            known,
            sink,
            author,
            built,
            ..
        } = self;
        let slot = match node {
            Node::Fields(bits, _) => &mut built[node.per_author() as usize][bits as usize],
            Node::Msd => return Some(Built::Frozen(self.msd.clone())),
            Node::Initial(n) => {
                let last = &author.as_ref()?.1;
                let end = last.char_indices().nth(n).map_or(last.len(), |(at, _)| at);
                let prefix = &last[..end];
                return Some(cut(
                    f,
                    *known,
                    *sink,
                    "author/last",
                    CmpOp::StartsWith,
                    prefix,
                ));
            }
            Node::Keywords(_) => return None,
        };
        slot.get_or_insert_with(|| {
            let mut steps = f.steps(node, author.as_ref())?;
            let query = sink.build(f.root, *known, &mut steps);
            Some(query.expect("a field-set query nests four levels"))
        })
        .clone()
    }

    /// Runs row `k`, then the fallback rule on its ends: a field node that
    /// is the source of some row but has no edge out, and that no later
    /// row mentions (nor a later author's turn, for an author-free node:
    /// `last` is false while one is to come), gets an edge to the MSD.
    fn row(&mut self, rows: &[Row], k: usize, last: bool) {
        let (from, to) = rows[k];
        if let Some(to_query) = self.get(to) {
            if let Node::Keywords(n) = from {
                let f = self.f;
                for word in f.keywords(n) {
                    let keyword = cut(f, self.known, self.sink, "title", CmpOp::Contains, word);
                    self.sink.push(keyword, to_query.clone());
                }
            } else if let Some(from_query) = self.get(from) {
                self.sink.push(from_query, to_query);
                if let Node::Fields(bits, _) = from {
                    self.emitted[from.per_author() as usize] |= 1 << bits;
                }
            }
        }
        for node in [from, to] {
            let Node::Fields(bits, _) = node else {
                continue;
            };
            let mentioned = |&(a, b): &Row| a == node || b == node;
            let fall_back = self.emitted[node.per_author() as usize] & 1 << bits == 0
                && rows.iter().any(|r| r.0 == node)
                && (last || node.per_author())
                && !rows[k + 1..].iter().any(mentioned);
            if let Some(query) = fall_back.then(|| self.get(node)).flatten() {
                self.sink.push(query, Built::Frozen(self.msd.clone()));
            }
        }
    }
}

/// `/root[path op term]`: a transform node's query, built through `sink`
/// from `known` if it holds it.
fn cut(
    f: &BiblioFields<'_>,
    known: &mut dyn KnownQueries,
    sink: &mut dyn EdgeSink,
    path: &str,
    op: CmpOp,
    term: &str,
) -> Built {
    sink.build(f.root, known, &mut |query| {
        query.compare(path, op, term);
    })
    .expect("a transform query nests three levels")
}

/// The *simple* scheme of Fig. 8: the [`SIMPLE`] table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleScheme;

/// The *flat* scheme of Fig. 8: the [`FLAT`] table.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatScheme;

/// The *complex* scheme of Fig. 8: the [`COMPLEX`] table.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComplexScheme;

/// The hierarchical scheme of Fig. 4: the [`FIG4`] table.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig4Scheme;

macro_rules! table_schemes {
    ($($scheme:ident: $table:ident),*) => {$(
        impl IndexScheme for $scheme {
            fn name(&self) -> &str {
                $table.name
            }

            fn index_edges_into(
                &self,
                descriptor: &Descriptor,
                msd: &Query,
                known: &mut dyn KnownQueries,
                edges: &mut dyn EdgeSink,
            ) {
                run(edges, descriptor, msd, $table.rows, known);
            }
        }
    )*};
}

table_schemes!(SimpleScheme: SIMPLE, FlatScheme: FLAT, ComplexScheme: COMPLEX, Fig4Scheme: FIG4);

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
pub struct InitialLetterScheme<S>(S, usize);

impl<S: IndexScheme> InitialLetterScheme<S> {
    /// Wraps `inner`, adding author-initial entries of `prefix_len`
    /// characters (1 = single letter).
    pub fn new(inner: S, prefix_len: usize) -> Self {
        InitialLetterScheme(inner, prefix_len.max(1))
    }
}

impl<S: IndexScheme> IndexScheme for InitialLetterScheme<S> {
    fn name(&self) -> &str {
        "initial-letter"
    }

    fn index_edges_into(
        &self,
        descriptor: &Descriptor,
        msd: &Query,
        known: &mut dyn KnownQueries,
        edges: &mut dyn EdgeSink,
    ) {
        self.0.index_edges_into(descriptor, msd, known, edges);
        run(
            edges,
            descriptor,
            msd,
            &[(Node::Initial(self.1), AUTHOR)],
            known,
        );
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
pub struct KeywordTitleScheme<S>(S, usize);

impl<S: IndexScheme> KeywordTitleScheme<S> {
    /// Wraps `inner`, indexing title words of at least `min_len`
    /// characters (filters stop-words like "in", "of", "the").
    pub fn new(inner: S, min_len: usize) -> Self {
        KeywordTitleScheme(inner, min_len.max(1))
    }
}

impl<S: IndexScheme> IndexScheme for KeywordTitleScheme<S> {
    fn name(&self) -> &str {
        "keyword-title"
    }

    fn index_edges_into(
        &self,
        descriptor: &Descriptor,
        msd: &Query,
        known: &mut dyn KnownQueries,
        edges: &mut dyn EdgeSink,
    ) {
        self.0.index_edges_into(descriptor, msd, known, edges);
        run(
            edges,
            descriptor,
            msd,
            &[(Node::Keywords(self.1), TITLE)],
            known,
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

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
        let authors: Vec<Author> = f.authors().collect();
        assert_eq!(authors, vec![("John".into(), "Smith".into())]);
        // Borrowed from the descriptor, not copied.
        assert!(matches!(authors[0], (Cow::Borrowed(_), Cow::Borrowed(_))));
        assert!(matches!(f.title, Some(Cow::Borrowed(_))));
        assert_eq!(f.title.as_deref(), Some("IPv6"));
        assert_eq!(f.conf.as_deref(), Some("INFOCOM"));
        assert_eq!(f.year.as_deref(), Some("1996"));
    }

    #[test]
    fn fields_of_partial_descriptor() {
        let d = Descriptor::parse("<article><title>X</title></article>").unwrap();
        let f = BiblioFields::of(&d);
        assert_eq!(f.authors().count(), 0);
        assert!(f.conf.is_none());
        assert!(f.query(CONF_YEAR, None).is_none());
        assert!(f.query(TITLE, None).is_some());
        assert!(f.query(MSD, None).is_none(), "not a field set");
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
    fn fig4_scheme_has_last_name_level() {
        let d = d2();
        let f = BiblioFields::of(&d);
        let author = f.authors().next();
        let author = author.as_ref();
        let edges = edges_of(&Fig4Scheme, &d2());
        let last_name = f.query(LAST_NAME, author).unwrap();
        let full_name = f.query(AUTHOR, author).unwrap();
        assert!(edges.contains(&(last_name, full_name)));
    }

    #[test]
    fn complex_scheme_has_deeper_chains() {
        let edges = edges_of(&ComplexScheme, &d2());
        // Depth of chain conf → conf+year → author+conf+year → msd is 3 edges.
        let d = d2();
        let f = BiblioFields::of(&d);
        let author = f.authors().next();
        let author = author.as_ref();
        let conf = f.query(CONF, None).unwrap();
        let cy = f.query(CONF_YEAR, None).unwrap();
        let acy = f.query(AUTHOR_CONF_YEAR, author).unwrap();
        let msd = Query::most_specific(&d2());
        assert!(edges.contains(&(conf, cy.clone())));
        assert!(edges.contains(&(cy, acy.clone())));
        assert!(edges.contains(&(acy, msd)));
        assert!(edges.len() > 6);
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
        assert_eq!(f.authors().count(), 2);
        let edges = edges_of(&SimpleScheme, &d);
        let author_sources = edges
            .iter()
            .filter(|(from, _)| from.to_string().contains("first"))
            .count();
        assert!(author_sources >= 2, "each author gets an index entry");
    }

    #[test]
    fn every_scheme_sizes_its_edge_list_up_front() {
        // The edge list is allocated once: no descriptor shape makes a
        // table emit more edges than `run` made room for, a slot per row
        // and author.
        for d in presence_shapes() {
            let turns = BiblioFields::of(&d).authors().count().max(1);
            for (scheme, table) in [
                (&SimpleScheme as &dyn IndexScheme, SIMPLE),
                (&FlatScheme, FLAT),
                (&ComplexScheme, COMPLEX),
                (&Fig4Scheme, FIG4),
            ] {
                let edges = edges_of(scheme, &d);
                assert!(
                    edges.len() <= table.rows.len() * turns,
                    "{}: {d}",
                    table.name
                );
            }
        }
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
        assert!(edges.contains(&(f.query(CONF_YEAR, None).unwrap(), msd)));
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
        let author = f.query(AUTHOR, f.authors().next().as_ref()).unwrap();
        assert!(edges.contains(&(initial, author)));
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
            assert_eq!(*to, f.query(TITLE, None).unwrap());
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

    /// Every field-presence shape — 0, 1 or 2 authors, with and without
    /// each of title, conf and year — so each missing-field fallback runs.
    fn presence_shapes() -> Vec<Descriptor> {
        let mut shapes = Vec::new();
        for authors in 0..=2 {
            for mask in 0..8 {
                let mut xml = String::from("<article>");
                for (first, last) in [("Ann", "Lee"), ("Bob", "Ray")].iter().take(authors) {
                    xml += &format!("<author><first>{first}</first><last>{last}</last></author>");
                }
                for (bit, field) in [
                    (1, "<title>Adaptive Routing in Overlays</title>"),
                    (2, "<conf>INFOCOM</conf>"),
                    (4, "<year>2004</year>"),
                ] {
                    if mask & bit != 0 {
                        xml += field;
                    }
                }
                xml += "</article>";
                shapes.push(Descriptor::parse(&xml).unwrap());
            }
        }
        shapes
    }

    #[test]
    fn every_field_presence_shape_keeps_its_edges() {
        let fold = |hash: u64, bytes: &[u8]| {
            bytes.iter().chain([&0xff]).fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let schemes: [&dyn IndexScheme; 6] = [
            &SimpleScheme,
            &FlatScheme,
            &ComplexScheme,
            &Fig4Scheme,
            &InitialLetterScheme::new(SimpleScheme, 1),
            &KeywordTitleScheme::new(SimpleScheme, 4),
        ];
        let (mut hash, mut count) = (0xcbf2_9ce4_8422_2325, 0usize);
        for d in presence_shapes() {
            let msd = Query::most_specific(&d);
            for scheme in schemes {
                hash = fold(hash, scheme.name().as_bytes());
                for (from, to) in scheme.index_edges(&d, &msd) {
                    hash = fold(hash, from.canonical_text().as_bytes());
                    hash = fold(hash, to.canonical_text().as_bytes());
                    count += 1;
                }
            }
        }
        // Both folded on the hand-written schemes, before they became
        // tables: a fallback that drops, adds or reorders an edge moves it.
        assert_eq!(count, 589, "every scheme emitted its edges");
        assert_eq!(hash, 0x4f66_11ec_d29b_9e37, "{hash:#018x}");
    }

    /// A find-only table of chosen queries, as a write consults the
    /// client's known queries: each held copy is its own allocation, apart
    /// from any query a scheme builds.
    #[derive(Default)]
    struct Held(HashMap<String, Query>);

    impl KnownQueries for Held {
        fn find(&mut self, text: &str) -> Option<Query> {
            self.0.get(text).cloned()
        }

        fn add(&mut self, _query: &Query) {}
    }

    /// A scheme that builds its own queries and never asks the table.
    struct ByHand;

    impl IndexScheme for ByHand {
        fn name(&self) -> &str {
            "by-hand"
        }

        fn index_edges_into(
            &self,
            descriptor: &Descriptor,
            msd: &Query,
            _known: &mut dyn KnownQueries,
            edges: &mut dyn EdgeSink,
        ) {
            for (from, to) in FlatScheme.index_edges(descriptor, msd) {
                edges.push(Built::Frozen(from), Built::Frozen(to));
            }
        }
    }

    /// The presence shapes and 200 corpus articles, some with a second
    /// author.
    fn shapes_and_corpus() -> Vec<Descriptor> {
        use p2p_index_workload::{Corpus, CorpusConfig};

        let corpus = Corpus::generate(CorpusConfig {
            articles: 200,
            extra_author_prob: 0.3,
            ..CorpusConfig::default()
        });
        let sample = corpus.articles().iter().map(|a| a.descriptor());
        presence_shapes().into_iter().chain(sample).collect()
    }

    /// The four tables, both decorators, and `ByHand` bare and decorated,
    /// each with whether every query it builds goes through the table:
    /// `ByHand` builds its own.
    fn through_tables() -> [(&'static dyn IndexScheme, bool); 8] {
        [
            (&SimpleScheme, true),
            (&FlatScheme, true),
            (&ComplexScheme, true),
            (&Fig4Scheme, true),
            (&InitialLetterScheme(SimpleScheme, 1), true),
            (&KeywordTitleScheme(ComplexScheme, 4), true),
            (&ByHand, false),
            (&InitialLetterScheme(ByHand, 2), false),
        ]
    }

    /// A seeded random subset of `msd` and the queries of `edges`, each
    /// held as a copy of its own.
    fn hold_some(
        rng: &mut p2p_index_dht::SplitMix64,
        msd: &Query,
        edges: &[(Query, Query)],
    ) -> Held {
        let mut held = Held::default();
        let queries = edges.iter().flat_map(|(f, t)| [f, t]);
        for q in std::iter::once(msd).chain(queries) {
            if rng.gen_bool(0.5) {
                let copy: Query = q.canonical_text().parse().unwrap();
                held.0.insert(q.canonical_text().to_string(), copy);
            }
        }
        held
    }

    /// One text buffer is one `Arc`: the buffer lives inside it.
    fn same(a: &Query, b: &Query) -> bool {
        std::ptr::eq(a.canonical_text(), b.canonical_text())
    }

    #[test]
    fn edges_built_through_a_table_are_the_plain_edges_with_the_tables_copies() {
        let texts = |edges: &[(Query, Query)]| -> Vec<(String, String)> {
            let text = |q: &Query| q.canonical_text().to_string();
            edges.iter().map(|(f, t)| (text(f), text(t))).collect()
        };
        let mut rng = p2p_index_dht::SplitMix64::new(53);
        let (mut edges, mut hits) = (Vec::new(), 0);
        for d in &shapes_and_corpus() {
            let msd = Query::most_specific(d);
            for (scheme, through_table) in through_tables() {
                let name = scheme.name();
                let plain = scheme.index_edges(d, &msd);
                for _ in 0..2 {
                    let mut held = hold_some(&mut rng, &msd, &plain);
                    let known_msd = Query::most_specific_known(d, &mut held);
                    assert_eq!(known_msd, msd, "{d}");
                    // The caller's kept vector, emptied between descriptors.
                    edges.clear();
                    scheme.index_edges_into(d, &known_msd, &mut held, &mut edges);
                    assert_eq!(texts(&edges), texts(&plain), "{name}: {d}");
                    let built = edges.iter().flat_map(|(f, t)| [f, t]);
                    for q in std::iter::once(&known_msd).chain(built) {
                        let held_copy = held.0.get(q.canonical_text());
                        if let Some(copy) =
                            held_copy.filter(|_| through_table || same(q, &known_msd))
                        {
                            assert!(same(q, copy), "{name}: {q} is not the table's copy");
                            hits += 1;
                        }
                    }
                }
            }
        }
        // 46 587 at seed 53: about half of what the schemes build.
        assert!(hits > 40_000, "only {hits} hits");
    }

    #[test]
    fn the_write_sink_emits_the_freezing_sinks_edges_and_packs_what_the_table_lacks() {
        use crate::target::{encode_query_into, IndexTarget};
        use p2p_index_dht::Key;

        let mut rng = p2p_index_dht::SplitMix64::new(59);
        // The writer's kept buffers, emptied between writes as `Write`
        // empties them.
        let (mut ends, mut packed) = (Vec::new(), PackedQueries::new());
        let (mut encoded, mut plain_encoded) = (Vec::new(), Vec::new());
        let (mut held_ends, mut packed_ends) = (0, 0);
        for d in &shapes_and_corpus() {
            let msd = Query::most_specific(d);
            for (scheme, through_table) in through_tables() {
                let name = scheme.name();
                let plain = scheme.index_edges(d, &msd);
                let mut held = hold_some(&mut rng, &msd, &plain);
                ends.clear();
                packed.clear();
                let mut sink = WriteEdges {
                    edges: &mut ends,
                    packed: &mut packed,
                };
                scheme.index_edges_into(d, &msd, &mut held, &mut sink);
                // The same edges, in the same order: the same texts, keys
                // and encoded targets.
                assert_eq!(ends.len(), plain.len(), "{name}: {d}");
                for ((from, to), (plain_from, plain_to)) in ends.iter().zip(&plain) {
                    let (from, to) = (from.view(&packed), to.view(&packed));
                    assert_eq!(from.canonical_text(), plain_from.canonical_text(), "{name}");
                    assert_eq!(to.canonical_text(), plain_to.canonical_text(), "{name}");
                    assert_eq!(
                        Key::hash_of(from.canonical_text()),
                        Key::hash_of(plain_from.canonical_text())
                    );
                    encoded.clear();
                    plain_encoded.clear();
                    encode_query_into(to, &mut encoded);
                    IndexTarget::Query(plain_to.clone()).encode_into(&mut plain_encoded);
                    assert_eq!(encoded, plain_encoded, "{name}: {plain_to}");
                    // A view reads what the frozen query does.
                    assert_eq!(
                        (from.size(), from.depth()),
                        (plain_from.size(), plain_from.depth())
                    );
                    assert_eq!(from.covers(to), plain_from.covers(plain_to), "{name}");
                }
                // Only a query the table lacks is packed, and every other
                // end through the table is its copy; the MSD is the
                // caller's. `ByHand` hands its own queries over frozen.
                for end in ends.iter().flat_map(|(f, t)| [f, t]) {
                    let text = end.view(&packed).canonical_text();
                    let copy = held.0.get(text);
                    match end {
                        Built::Frozen(q) if same(q, &msd) || !through_table => {}
                        Built::Frozen(q) => {
                            assert!(copy.is_some_and(|c| same(q, c)), "{name}: {q} froze");
                            held_ends += 1;
                        }
                        Built::Packed(_) => {
                            assert!(copy.is_none(), "{name}: {text} is held, yet packed");
                            packed_ends += 1;
                        }
                    }
                }
            }
        }
        // 14 922 held and 5 240 packed at seed 59, an end counted each
        // time an edge names it: each query is held with probability one
        // half, and the MSD (not counted) ends most chains.
        assert!(
            held_ends > 10_000 && packed_ends > 4_000,
            "{held_ends} held, {packed_ends} packed"
        );
    }

    /// The fields a node's query names: the MSD names them all.
    fn fields(node: Node) -> u8 {
        match node {
            Node::Fields(fields, _) => fields,
            Node::Msd => 0b11111,
            Node::Initial(_) | Node::Keywords(_) => unreachable!("no built-in table cuts terms"),
        }
    }

    #[test]
    fn every_builtin_table_is_well_formed() {
        for table in [SIMPLE, FLAT, COMPLEX, FIG4] {
            let name = table.name;
            let per_author = |&(a, b): &Row| a.per_author() || b.per_author();
            let split = table.rows.iter().position(|r| !per_author(r));
            let author_free = &table.rows[split.unwrap_or(table.rows.len())..];
            assert!(
                !author_free.iter().any(per_author),
                "{name}: rows naming an author come first"
            );
            for &(from, to) in table.rows {
                // `q ⊒ qᵢ` by construction: `from` names a strict subset.
                assert!(
                    from != to && fields(from) & !fields(to) == 0,
                    "{name}: {from:?} → {to:?}"
                );
                if let Node::Fields(names, needs) = from {
                    assert_eq!(names & !needs, 0, "{name}: {from:?} needs its own fields");
                }
                // Every node reaches the MSD through the table's rows.
                let (mut frontier, mut seen) = (vec![from], vec![]);
                while let Some(node) = frontier.pop().filter(|&n| n != MSD) {
                    if !seen.contains(&node) {
                        seen.push(node);
                        frontier.extend(table.rows.iter().filter(|r| r.0 == node).map(|r| r.1));
                    }
                    assert!(
                        !frontier.is_empty(),
                        "{name}: {from:?} never reaches the MSD"
                    );
                }
            }
        }
        // The figures' shapes, read off the tables: Flat links everything
        // straight to the MSD, Fig. 4 has its *Last name* level, and
        // Complex's longest chain is conf → conf+year → author+conf+year
        // → MSD.
        assert!(FLAT.rows.iter().all(|&(_, to)| to == MSD));
        assert!(FIG4.rows.contains(&(LAST_NAME, AUTHOR)));
        for row in [
            (CONF, CONF_YEAR),
            (CONF_YEAR, AUTHOR_CONF_YEAR),
            (AUTHOR_CONF_YEAR, MSD),
        ] {
            assert!(COMPLEX.rows.contains(&row), "{row:?}");
        }
    }
}
