//! Allocation and footprint pins of the frozen query.
//!
//! A `Query` is one `Arc<str>`: the canonical text, the raw tokens, the
//! packed node table and a trailer, in one buffer. Every question asked of
//! it — covering, matching, equality, hashing — is answered by walking
//! that buffer in place. This suite pins that: the read paths allocate
//! nothing, building a query allocates exactly once whatever its size,
//! and the handle is a pointer. Construction is pinned per constructor:
//! the parser, `Query::most_specific`, `Query::build_with`, dropping a
//! branch and a generalization write into per-thread buffers and allocate
//! only the one buffer the query keeps; a `QueryBuilder` chain adds its
//! own draft's two buffers. A generalization, an MSD or a `build_with`
//! query that a caller's table of known queries already holds is rendered
//! but not frozen, and allocates nothing. The footprint pin counts the
//! bytes the Figure 1 MSD keeps. The counts are thread-local
//! (`p2p_index_testkit::Counting`), so tests running in parallel never
//! touch each other's.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use p2p_index_testkit::{allocs_during, bytes_during, Counting};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{parse_query, KnownQueries, Query, QueryBuilder, MAX_DEPTH};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn figure_1() -> Descriptor {
    Descriptor::parse(
        "<article><author><first>John</first><last>Smith</last></author>\
         <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>",
    )
    .expect("Figure 1 parses")
}

#[test]
fn covering_allocates_nothing() {
    let msd = Query::most_specific(&figure_1());
    let general = [
        "/article/author/last/Smith",
        "/article/author[first/John][last/Smith]",
        "/article[conf/SIGCOMM][year/1989]",
        "/article[year=1989][title^=TC]",
        "/article[author/last*=mit][size=0315635]",
        "/article/conf/INFOCOM",
    ]
    .map(|text| parse_query(text).expect("test query parses"));
    for g in &general {
        let (_, allocs) = allocs_during(|| (g.covers(&msd), msd.covers(g)));
        assert_eq!(allocs, 0, "covers({g}, msd)");
        let (_, allocs) = allocs_during(|| (g.covers_strictly(&msd), msd.covers_strictly(&msd)));
        assert_eq!(allocs, 0, "covers_strictly({g}, msd)");
    }
}

/// Every query is a child-axis one: the language has no `//` for
/// `matches` to collect descendants for.
#[test]
fn matching_a_child_axis_query_allocates_nothing() {
    let d = figure_1();
    let msd = Query::most_specific(&d);
    let queries = [
        "/article/author/last/Smith",
        "/article/author[first/John][last/Doe]",
        "/article[year=1989][size=0315635][title^=TC][conf*=COMM]",
        "/article[author=Smith]",
        "/book/title/TCP",
    ]
    .map(|text| parse_query(text).expect("test query parses"));
    for q in queries.iter().chain([&msd]) {
        let (_, allocs) = allocs_during(|| q.matches(d.root()));
        assert_eq!(allocs, 0, "matches({q})");
    }
}

#[test]
fn clone_eq_and_hash_allocate_nothing() {
    let a = Query::most_specific(&figure_1());
    let b = parse_query(a.canonical_text()).expect("canonical text parses");
    let ((clone, equal, hash), allocs) = allocs_during(|| {
        let mut hasher = DefaultHasher::new();
        a.hash(&mut hasher);
        (a.clone(), a == b, hasher.finish())
    });
    assert_eq!(allocs, 0);
    assert!(equal && clone == a);
    let mut hasher = DefaultHasher::new();
    b.hash(&mut hasher);
    assert_eq!(hash, hasher.finish());
}

#[test]
fn parsing_an_msd_text_allocates_only_what_the_query_keeps() {
    let text = Query::most_specific(&figure_1())
        .canonical_text()
        .to_string();
    let warm = parse_query(&text).expect("canonical text parses");
    let (q, allocs) = allocs_during(|| parse_query(&text));
    assert_eq!(q.expect("canonical text parses"), warm);
    // The query's one buffer: tokens borrow the input and the draft is
    // this thread's. It was 48 while every token, name and node was a heap
    // object of its own, and 3 while the node array, the text and the
    // `Arc` were apart.
    assert_eq!(allocs, 1, "parsing {text}");
}

#[test]
fn deriving_an_msd_allocates_only_what_the_query_keeps() {
    let d = figure_1();
    let warm = Query::most_specific(&d);
    let (msd, allocs) = allocs_during(|| Query::most_specific(&d));
    assert_eq!(msd, warm);
    // The one buffer the query keeps; it was 26 with a `String` per name
    // and a `Vec` per element, and 3 with the node array apart.
    assert_eq!(allocs, 1, "most_specific");
}

#[test]
fn a_builder_chain_allocates_its_draft_and_the_query() {
    let chain = || {
        QueryBuilder::new("article")
            .value("author/first", "John")
            .value("author/last", "Smith")
            .value("title", "TCP")
            .build()
    };
    let warm = chain();
    let (q, allocs) = allocs_during(chain);
    assert_eq!(q, warm);
    assert_eq!(
        q.canonical_text(),
        "/article[author[first/John][last/Smith]][title/TCP]"
    );
    // The builder's node array and text buffer (sized so that a scheme's
    // queries never regrow them), then the query's one buffer. It was 16
    // with a `String` per name and a `Vec` per node.
    assert_eq!(allocs, 3, "a three-value builder chain");
}

#[test]
fn building_in_the_thread_draft_allocates_only_what_the_query_keeps() {
    let build = || {
        Query::build_with("article", |q| {
            q.value("author/first", "John")
                .value("author/last", "Smith")
                .value("title", "TCP");
        })
    };
    let warm = build().expect("three levels fit");
    let (q, allocs) = allocs_during(build);
    let q = q.expect("three levels fit");
    assert_eq!(q, warm);
    // The same steps as the builder chain above build the same query...
    let chained = QueryBuilder::new("article")
        .value("author/first", "John")
        .value("author/last", "Smith")
        .value("title", "TCP")
        .build();
    assert_eq!(q.canonical_text(), chained.canonical_text());
    // ...without the builder's own draft: the query's one buffer.
    assert_eq!(allocs, 1, "a three-value build_with");
}

/// Known queries by canonical text, as a client's table keeps them.
#[derive(Default)]
struct Known(HashMap<String, Query>);

impl KnownQueries for Known {
    fn find(&mut self, text: &str) -> Option<Query> {
        self.0.get(text).cloned()
    }

    fn add(&mut self, query: &Query) {
        self.0
            .insert(query.canonical_text().to_string(), query.clone());
    }
}

#[test]
fn a_generalization_the_table_holds_allocates_nothing() {
    let msd = Query::most_specific(&figure_1());
    let mut known = Known::default();
    let mut first = Vec::new();
    msd.generalizations_known(&mut known, &mut first);
    assert_eq!(first, msd.generalizations(), "same queries, same order");
    assert_eq!(known.0.len(), first.len(), "each new one joined the table");
    let mut again = Vec::with_capacity(first.len());
    let (_, allocs) = allocs_during(|| msd.generalizations_known(&mut known, &mut again));
    assert_eq!(
        allocs,
        0,
        "re-deriving {} held generalizations",
        again.len()
    );
    for (a, b) in first.iter().zip(&again) {
        assert!(std::ptr::eq(a.canonical_text(), b.canonical_text()), "{a}");
    }
    // The table that holds nothing freezes every one: one allocation
    // each, as dropping a branch does.
    let mut fresh = Vec::with_capacity(first.len());
    let (_, allocs) = allocs_during(|| msd.generalizations_into(&mut fresh));
    assert_eq!(fresh, first);
    assert_eq!(allocs, first.len() as u64);
}

#[test]
fn a_built_query_or_msd_the_table_holds_allocates_nothing() {
    let d = figure_1();
    let build = |known: &mut Known| {
        Query::build_with_known("article", known, |q| {
            q.value("author/last", "Smith").value("conf", "SIGCOMM");
        })
        .expect("a shallow query")
    };
    let mut known = Known::default();
    let (msd, built) = (
        Query::most_specific_known(&d, &mut known),
        build(&mut known),
    );
    assert_eq!(msd, Query::most_specific(&d));
    assert_eq!(known.0.len(), 2, "each new one joined the table");
    let ((msd_again, built_again), allocs) = allocs_during(|| {
        (
            Query::most_specific_known(&d, &mut known),
            build(&mut known),
        )
    });
    assert_eq!(allocs, 0, "an MSD and a query the table holds");
    assert!(std::ptr::eq(
        msd.canonical_text(),
        msd_again.canonical_text()
    ));
    assert!(std::ptr::eq(
        built.canonical_text(),
        built_again.canonical_text()
    ));
}

/// A builder for an `n`-branch query whose branches alternate between a
/// value, a comparison and a chain as deep as the limit allows.
fn wide(n: usize) -> QueryBuilder {
    let deep = vec!["d"; MAX_DEPTH - 3].join("/");
    (0..n).fold(QueryBuilder::new("article"), |b, i| match i % 3 {
        0 => b.value(&format!("field{i}"), format!("value \"{i}\"")),
        1 => b.compare(
            &format!("field{i}"),
            p2p_index_xpath::CmpOp::StartsWith,
            i.to_string(),
        ),
        _ => b.value(&format!("chain{i}/{deep}"), "leaf"),
    })
}

#[test]
fn freezing_allocates_once_whatever_the_size() {
    for n in [0, 1, 7, 60, 600] {
        let builder = wide(n);
        // Warm this thread's freeze scratch to the size.
        let warm = builder.clone().build();
        assert!(warm.size() > n && (n < 3 || warm.depth() == MAX_DEPTH));
        let (q, allocs) = allocs_during(|| builder.build());
        assert_eq!(q, warm);
        // The `Arc` that holds the text, the node table and the trailer.
        assert_eq!(allocs, 1, "freezing {} nodes", q.size());
    }
}

#[test]
fn dropping_a_branch_allocates_once_whatever_the_size() {
    for n in [1, 7, 60, 600] {
        let q = wide(n).build();
        let warm = q.drop_top_branch(0).expect("branch 0 exists");
        for index in [0, n / 2, n - 1] {
            let (g, allocs) = allocs_during(|| q.drop_top_branch(index));
            let g = g.expect("index in range");
            assert_eq!(g.top_branches().count(), n - 1);
            assert_eq!(allocs, 1, "dropping 1 of {n}");
            assert!(g.covers(&q) && (index != 0 || g == warm));
        }
    }
}

/// What the Figure 1 MSD keeps on the heap, requested bytes before the
/// allocator rounds them.
#[test]
fn the_figure_1_msd_keeps_its_text_and_eleven_bytes_a_node() {
    let d = figure_1();
    let warm = Query::most_specific(&d);
    let (msd, bytes) = bytes_during(|| Query::most_specific(&d));
    assert_eq!(msd, warm);
    let (text, nodes) = (msd.canonical_text().len(), msd.size());
    assert_eq!((text, nodes), (89, 14));
    // The `Arc`'s two counts, then the buffer: the canonical text (no
    // token is escaped, so no raw copy follows it), 14 nodes of an op byte
    // and five two-byte fields, and a trailer of the text's length and
    // the node count, four bytes each, and the field width. The `Arc`
    // rounds the whole up to its counts' alignment: 16 + 89 + 154 + 9 =
    // 268, asked for as 272 bytes on a 64-bit target.
    let word = std::mem::size_of::<usize>() as u64;
    assert_eq!(bytes, (2 * word + 89 + 14 * 11 + 9).next_multiple_of(word));
    // It was 481 bytes while the nodes were 24-byte structs in an array
    // of their own: the `Arc` of 56 (its counts, two boxed slices and the
    // text length), the array of 14 × 24 = 336 and the 89-byte text.
    assert!(bytes * 100 <= 481 * 60, "{bytes} B is over 60 % of 481 B");
}

#[test]
fn a_query_is_at_most_two_words() {
    assert!(std::mem::size_of::<Query>() <= 2 * std::mem::size_of::<usize>());
    assert_eq!(
        std::mem::size_of::<Option<Query>>(),
        std::mem::size_of::<Query>()
    );
}
