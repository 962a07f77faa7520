//! Property tests on the query language itself: parser totality, canonical
//! stability, and structural invariants of normalization, over seeded
//! cases (`p2p_index_testkit`).

use std::collections::{HashSet, VecDeque};

use p2p_index_testkit::{ascii, for_each_case, Rng, StdRng, PRINTABLE};
use p2p_index_xpath::{parse_query, Axis, CmpOp, Query, QueryBuilder};

const FIELDS: [&str; 6] = [
    "author/first",
    "author/last",
    "title",
    "conf",
    "year",
    "journal/volume",
];

const OPS: [CmpOp; 8] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::StartsWith,
    CmpOp::Contains,
];

fn arb_field(rng: &mut StdRng) -> &'static str {
    FIELDS[rng.gen_range(0..FIELDS.len())]
}

fn arb_value(rng: &mut StdRng) -> String {
    let alpha = [b'A'..=b'Z', b'a'..=b'z'];
    let alnum = [b'A'..=b'Z', b'a'..=b'z', b'0'..=b'9'];
    match rng.gen_range(0..4usize) {
        0 => ascii(rng, &alpha, 1..=1) + &ascii(rng, &alnum, 0..=10),
        1 => ascii(rng, &[b'0'..=b'9'], 1..=4),
        // Values needing quoting.
        2 => ascii(rng, &alpha, 1..=5) + " " + &ascii(rng, &alpha, 1..=5),
        _ => ascii(rng, &alpha, 1..=3) + "\"" + &ascii(rng, &alpha, 1..=3),
    }
}

/// Random queries through the builder (always well-formed): up to three
/// value constraints and at most one comparison.
fn arb_query(rng: &mut StdRng) -> Query {
    let mut b = QueryBuilder::new("article");
    for _ in 0..rng.gen_range(0..4usize) {
        b = b.value(arb_field(rng), arb_value(rng));
    }
    for _ in 0..rng.gen_range(0..2usize) {
        let op = OPS[rng.gen_range(0..OPS.len())];
        b = b.compare(arb_field(rng), op, arb_value(rng));
    }
    b.build()
}

/// The canonical text of any query parses back to the same query —
/// the property that makes h(q) well-defined.
#[test]
fn canonical_text_is_stable() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        let text = q.to_string();
        let reparsed = parse_query(&text).expect("canonical text parses");
        assert_eq!(&reparsed, &q);
        assert_eq!(reparsed.to_string(), text);
    });
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_never_panics() {
    for_each_case(|rng| {
        let _ = parse_query(&ascii(rng, &[PRINTABLE], 0..=64));
    });
}

/// Parsing whitespace-padded canonical text yields the same query.
#[test]
fn whitespace_insensitive() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        let padded: String = q
            .to_string()
            .chars()
            .flat_map(|c| if c == '[' { vec!['[', ' '] } else { vec![c] })
            .collect();
        assert_eq!(parse_query(&padded).expect("padded parses"), q);
    });
}

/// Size and depth are consistent with the pattern structure.
#[test]
fn size_and_depth_bounds() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        assert!(q.size() >= 1);
        assert!(q.depth() >= 1);
        assert!(q.depth() <= q.size());
        // Dropping a branch strictly shrinks the size.
        for g in q.generalizations() {
            assert!(g.size() < q.size());
        }
    });
}

/// Normalized queries have sorted, deduplicated branches at the root.
#[test]
fn branches_sorted_and_unique() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        for (a, b) in q.top_branches().zip(q.top_branches().skip(1)) {
            assert!(a < b, "branches must be strictly ascending");
        }
    });
}

/// The root axis of builder queries is Child and the root name sticks.
#[test]
fn root_invariants() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        assert_eq!(q.root().axis(), Axis::Child);
        assert_eq!(q.root_name(), Some("article"));
    });
}

/// Hand-picked queries spanning one to three predicate branches, checked
/// ahead of the generated ones.
fn fixed_queries() -> Vec<Query> {
    [
        "/article/year/1999",
        "/article[author[first/John][last/Smith]]",
        "/article[conf/SIGCOMM][year/1989][title/TCP]",
        "/article[author[first/John][last/Smith]][year/1989]",
    ]
    .iter()
    .map(|text| parse_query(text).expect("fixed query parses"))
    .collect()
}

/// Following the first generalization repeatedly always terminates
/// (size strictly decreases), and every step covers its predecessor —
/// the property search's recovery loop relies on (§V).
fn check_chain_terminates(q: Query) {
    let bound = q.size();
    let mut current = q;
    let mut steps = 0usize;
    while let Some(g) = current.generalizations().into_iter().next() {
        assert!(g.size() < current.size(), "size must strictly decrease");
        assert!(g.covers(&current), "a generalization covers its origin");
        current = g;
        steps += 1;
        assert!(steps <= bound, "chain longer than the size bound");
    }
    assert!(current.generalizations().is_empty());
}

#[test]
fn generalization_chains_terminate() {
    fixed_queries().into_iter().for_each(check_chain_terminates);
    for_each_case(|rng| check_chain_terminates(arb_query(rng)));
}

/// Breadth-first exploration of *all* generalizations (the shape of
/// the search's recovery frontier) visits finitely many queries, each
/// covering the origin. Returns how many.
fn check_frontier_is_finite(q: &Query) -> usize {
    let mut seen: HashSet<Query> = HashSet::new();
    let mut frontier: VecDeque<Query> = q.generalizations().into();
    let limit = 1usize << q.size().min(12);
    while let Some(g) = frontier.pop_front() {
        if !seen.insert(g.clone()) {
            continue;
        }
        assert!(g.covers(q));
        assert!(seen.len() <= limit, "frontier blew past the 2^size bound");
        frontier.extend(g.generalizations());
    }
    seen.len()
}

#[test]
fn generalization_frontier_is_finite() {
    for q in fixed_queries() {
        assert!(
            check_frontier_is_finite(&q) > 0,
            "{q}: a predicated query must generalize"
        );
    }
    for_each_case(|rng| {
        check_frontier_is_finite(&arb_query(rng));
    });
}
