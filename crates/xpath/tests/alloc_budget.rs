//! Allocation and footprint pins of the frozen query.
//!
//! A `Query` is one node array and one text buffer behind one `Arc`, and
//! every question asked of it — covering, matching, equality, hashing —
//! is answered by walking those two in place. This suite pins that: the
//! read paths allocate nothing, building a query allocates what the query
//! keeps and nothing that grows with its size, and the handle is a
//! pointer. The count is thread-local (`p2p_index_testkit::Counting`), so
//! tests running in parallel never touch each other's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use p2p_index_testkit::{allocs_during, Counting};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{parse_query, Query, QueryBuilder, MAX_DEPTH};

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
        "/article[year>=1980][title^=TC]",
        "/article/conf/INFOCOM",
        "/*/title/TCP",
        "//last/Smith",
        "/article//Smith",
    ]
    .map(|text| parse_query(text).expect("test query parses"));
    for g in &general {
        let (_, allocs) = allocs_during(|| (g.covers(&msd), msd.covers(g)));
        assert_eq!(allocs, 0, "covers({g}, msd)");
        let (_, allocs) = allocs_during(|| (g.covers_strictly(&msd), msd.covers_strictly(&msd)));
        assert_eq!(allocs, 0, "covers_strictly({g}, msd)");
    }
}

#[test]
fn matching_a_child_axis_query_allocates_nothing() {
    let d = figure_1();
    let msd = Query::most_specific(&d);
    let queries = [
        "/article/author/last/Smith",
        "/article/author[first/John][last/Doe]",
        "/article[year>=1980][size<400000][title^=TC][conf*=COMM]",
        "/article/*/TCP",
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

/// A builder for an `n`-branch query whose branches alternate between a
/// value, a comparison and a chain as deep as the limit allows.
fn wide(n: usize) -> QueryBuilder {
    let deep = vec!["d"; MAX_DEPTH - 3].join("/");
    (0..n).fold(QueryBuilder::new("article"), |b, i| match i % 3 {
        0 => b.value(&format!("field{i}"), format!("value \"{i}\"")),
        1 => b.compare(
            &format!("field{i}"),
            p2p_index_xpath::CmpOp::Ge,
            i.to_string(),
        ),
        _ => b.value(&format!("chain{i}/{deep}"), "leaf"),
    })
}

#[test]
fn freezing_allocates_three_times_whatever_the_size() {
    for n in [0, 1, 7, 60, 600] {
        let builder = wide(n);
        // Warm this thread's freeze scratch to the size.
        let warm = builder.clone().build();
        assert!(warm.size() > n && (n < 3 || warm.depth() == MAX_DEPTH));
        let (q, allocs) = allocs_during(|| builder.build());
        assert_eq!(q, warm);
        // The node array, the text buffer and the `Arc` that holds both.
        assert!(allocs <= 3, "freezing {} nodes made {allocs}", q.size());
    }
}

#[test]
fn dropping_a_branch_allocates_three_times_whatever_the_size() {
    for n in [1, 7, 60, 600] {
        let q = wide(n).build();
        let warm = q.drop_top_branch(0).expect("branch 0 exists");
        for index in [0, n / 2, n - 1] {
            let (g, allocs) = allocs_during(|| q.drop_top_branch(index));
            let g = g.expect("index in range");
            assert_eq!(g.top_branches().count(), n - 1);
            assert!(allocs <= 3, "dropping 1 of {n} made {allocs}");
            assert!(g.covers(&q) && (index != 0 || g == warm));
        }
    }
}

#[test]
fn a_query_is_at_most_two_words() {
    assert!(std::mem::size_of::<Query>() <= 2 * std::mem::size_of::<usize>());
    assert_eq!(
        std::mem::size_of::<Option<Query>>(),
        std::mem::size_of::<Query>()
    );
}
