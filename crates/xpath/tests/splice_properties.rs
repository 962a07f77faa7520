//! A query stored as a splice against a query that covers it
//! (`p2p_index_xpath::splice`): what `encode` writes, `decode` rebuilds to
//! the very canonical text, and `decode` is total on bytes a peer chose —
//! damaged, cut short, read against another query, or naming nodes and
//! slots the query lacks.

use p2p_index_testkit::{bytes, damaged, for_each_case, spliced, Rng, StdRng};
use p2p_index_xpath::splice::{self, SpliceError};
use p2p_index_xpath::{parse_query, CmpOp, Query};

/// A pattern tree as a test writes it, before the parser normalizes it.
struct Tree {
    name: &'static str,
    comparison: Option<(CmpOp, &'static str)>,
    kids: Vec<Tree>,
}

/// Names and values, some the canonical text must quote and escape.
const TOKENS: [&str; 10] = [
    "article",
    "author",
    "first",
    "last",
    "title",
    "Smith",
    "1996",
    "A Space Odyssey",
    "say \"hi\"",
    "back\\slash",
];
const OPS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::StartsWith, CmpOp::Contains];

fn token(rng: &mut StdRng) -> &'static str {
    TOKENS[rng.gen_range(0..TOKENS.len())]
}

/// A random tree `levels` deep at most, with repeated names (so
/// normalization merges and orders siblings) and some comparisons.
fn arb_tree(rng: &mut StdRng, name: &'static str, levels: usize) -> Tree {
    let kids = if levels == 0 {
        0
    } else {
        rng.gen_range(0..4usize)
    };
    let comparison =
        (rng.gen_range(0..5u32) == 0).then(|| (OPS[rng.gen_range(0..3usize)], token(rng)));
    Tree {
        name,
        comparison,
        kids: (0..kids)
            .map(|_| {
                let name = token(rng);
                arb_tree(rng, name, levels - 1)
            })
            .collect(),
    }
}

/// `tree` with each non-root subtree dropped at odds `1 / drop_one_in`:
/// a query `tree` is `from` plus branches of.
fn pruned(rng: &mut StdRng, tree: &Tree, drop_one_in: u32) -> Tree {
    let mut kids = Vec::new();
    for kid in &tree.kids {
        if rng.gen_range(0..drop_one_in) != 0 {
            kids.push(pruned(rng, kid, drop_one_in));
        }
    }
    Tree {
        name: tree.name,
        comparison: tree.comparison,
        kids,
    }
}

fn quoted(token: &str) -> String {
    format!("\"{}\"", token.replace('\\', "\\\\").replace('"', "\\\""))
}

fn write(tree: &Tree, out: &mut String) {
    out.push_str(&quoted(tree.name));
    for kid in &tree.kids {
        out.push('[');
        write(kid, out);
        out.push(']');
    }
    if let Some((op, value)) = tree.comparison {
        out.push_str(op.symbol());
        out.push_str(&quoted(value));
    }
}

fn query(tree: &Tree) -> Query {
    let mut text = String::from("/");
    write(tree, &mut text);
    parse_query(&text).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"))
}

/// A query, one of its extensions `to`, and `to`'s splice against it; an
/// extension whose added branches reorder the query's own is written in
/// full (`None`).
fn arb_pair(rng: &mut StdRng) -> (Query, Query, Option<Vec<u8>>) {
    let tree = arb_tree(rng, "article", 4);
    let from = query(&pruned(rng, &tree, 3));
    let to = query(&tree);
    let mut splice = vec![0xAA];
    let encoded = splice::encode(from.view(), to.view(), &mut splice);
    assert_eq!(splice[0], 0xAA, "appends, never rewrites");
    if !encoded {
        assert_eq!(splice.len(), 1, "a refused pair writes nothing");
    }
    (from, to, encoded.then(|| splice.split_off(1)))
}

/// The text `splice` spells against `from`, or its error.
fn decoded(from: &Query, splice: &[u8]) -> Result<String, SpliceError> {
    let mut text = String::from("kept");
    splice::decode(from.view(), splice, &mut text).map(|()| text.split_off(4))
}

#[test]
fn an_extension_decodes_to_its_canonical_text() {
    let (mut pairs, mut spliced_pairs) = (0, 0);
    for_each_case(|rng| {
        for _ in 0..8 {
            let (from, to, splice) = arb_pair(rng);
            pairs += 1;
            let Some(splice) = splice else { continue };
            spliced_pairs += 1;
            assert_eq!(decoded(&from, &splice).as_deref(), Ok(to.canonical_text()));
            let len = splice::canonical_len(&splice);
            assert_eq!(len, Some(to.canonical_text().len()), "{from} -> {to}");
            let mut again = Vec::new();
            splice::encode(from.view(), to.view(), &mut again);
            assert_eq!(again, splice, "deterministic: {from} -> {to}");
        }
    });
    // A pair is refused only when a kept branch's additions sort it before
    // a sibling it followed.
    assert!(
        spliced_pairs * 10 >= pairs * 9,
        "{spliced_pairs} of {pairs} pairs spliced"
    );
}

#[test]
fn a_query_under_its_generalizations_and_itself_always_splices() {
    for_each_case(|rng| {
        let to = query(&arb_tree(rng, "article", 4));
        for from in to.generalizations().iter().chain([&to]) {
            let mut splice = Vec::new();
            assert!(
                splice::encode(from.view(), to.view(), &mut splice),
                "{from} -> {to}"
            );
            assert_eq!(decoded(from, &splice).as_deref(), Ok(to.canonical_text()));
        }
    });
}

#[test]
fn a_query_that_is_no_extension_is_refused() {
    let cases = [
        // A comparison covers the value it admits, but is not that value.
        ("/article[title*=Rout]", "/article/title/Routing"),
        ("/article/year/1996", "/article/year/1997"),
        ("/book", "/article/book"),
        // `a/x` and `a/y` would both need the one `a` of the target.
        ("/r[a/x][a/y]", "/r/a[x][y]"),
    ];
    for (from, to) in cases {
        let (from, to): (Query, Query) = (from.parse().unwrap(), to.parse().unwrap());
        let mut out = vec![1, 2];
        assert!(
            !splice::encode(from.view(), to.view(), &mut out),
            "{from} -> {to}"
        );
        assert_eq!(out, [1, 2], "a refused pair leaves the buffer as it was");
    }
}

#[test]
fn a_branch_under_a_lone_path_step_renders_both_ways() {
    // The added branch turns `author`'s path step into predicates, and a
    // lone added child continues the path unless it carries a comparison.
    for (from, to) in [
        (
            "/article/author/last/Smith",
            "/article[author[first/John][last/Smith]][title/TCP]",
        ),
        ("/article/author", "/article/author/last/Smith"),
        ("/article/author", "/article/author[last^=S]"),
        (
            "/article[year=1996]",
            "/article[title/\"say \\\"hi\\\"\"][year=1996]",
        ),
        (
            "/article[a[x][y]][a[x][z]]",
            "/article[a[w][x][y]][a[x][z]]",
        ),
    ] {
        let (from, to): (Query, Query) = (from.parse().unwrap(), to.parse().unwrap());
        let mut splice = Vec::new();
        assert!(
            splice::encode(from.view(), to.view(), &mut splice),
            "{from} -> {to}"
        );
        assert!(splice.len() < to.canonical_text().len(), "{from} -> {to}");
        assert_eq!(decoded(&from, &splice).as_deref(), Ok(to.canonical_text()));
    }
}

/// Appends `n` as an LEB128 varint.
fn varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// A splice of one record: `fragment` under `from`'s node `node`, before
/// its child `slot`, led by the length the text would have.
fn one_record(node: u64, slot: u64, fragment: &str, length: usize) -> Vec<u8> {
    let mut out = Vec::new();
    varint(&mut out, length as u64);
    varint(&mut out, node);
    varint(&mut out, slot << 1);
    varint(&mut out, fragment.len() as u64);
    out.extend_from_slice(fragment.as_bytes());
    out
}

#[test]
fn a_record_past_the_querys_nodes_or_slots_is_an_error() {
    let from: Query = "/article[author/last/Smith][year/1996]".parse().unwrap();
    let to: Query = "/article[author/last/Smith][title/TCP][year/1996]"
        .parse()
        .unwrap();
    let length = to.canonical_text().len();
    assert_eq!(
        decoded(&from, &one_record(0, 1, "title/TCP", length)).as_deref(),
        Ok(to.canonical_text())
    );
    for node in [
        from.size() as u64,
        from.size() as u64 + 1,
        u64::from(u32::MAX) + 7,
    ] {
        let splice = one_record(node, 0, "title/TCP", length);
        let error = decoded(&from, &splice)
            .expect_err("past the nodes")
            .to_string();
        assert!(
            error.contains("past the query's end"),
            "node {node}: {error}"
        );
    }
    // Node 0 has two children: slot 3 is past them, at any node.
    let error = |splice: &[u8]| decoded(&from, splice).expect_err("refused").to_string();
    for (node, slot) in [(0, 3), (1, 2), (3, 1), (0, u64::MAX >> 1)] {
        let splice = one_record(node, slot, "title/TCP", length);
        let why = error(&splice);
        assert!(why.contains("slot past"), "node {node} slot {slot}: {why}");
    }
    // Two records of one node out of slot order, led by the length the
    // text would have were they taken in stream order.
    let unordered = from.canonical_text().len() + "[x][w]".len();
    let mut splice = one_record(0, 2, "x", unordered);
    varint(&mut splice, 0);
    varint(&mut splice, 0);
    varint(&mut splice, 1);
    splice.push(b'w');
    assert!(error(&splice).contains("out of slot order"));
    // A lead that is not the rebuilt text's length.
    let splice = one_record(0, 1, "title/TCP", length + 1);
    assert!(error(&splice).contains("length"));
}

/// The decoder returns on `splice` whatever it holds; what it accepts is
/// as long as the splice says, and parses or fails typed.
fn check(from: &Query, splice: &[u8]) {
    if let Ok(text) = decoded(from, splice) {
        assert_eq!(Some(text.len()), splice::canonical_len(splice));
        let _ = parse_query(&text);
    }
}

#[test]
fn mutated_splices_decode_or_fail_typed() {
    for_each_case(|rng| {
        let (from, to, splice) = arb_pair(rng);
        let Some(splice) = splice else { return };
        // One to three bytes overwritten, inserted or deleted: small
        // numbers, so records often still parse, and punctuation.
        for edits in 1..=3 {
            check(
                &from,
                &damaged(rng, &splice, b"\x00\x01\x02\x03\x05\x81/[]\"", edits),
            );
        }
        // Read against another query: its own nodes, the same records.
        let (other, _, _) = arb_pair(rng);
        check(&other, &splice);
        check(&to, &splice);
        // Two splices joined, and bytes at random.
        let (_, _, second) = arb_pair(rng);
        if let Some(second) = second {
            check(&from, &spliced(rng, &splice, &second));
        }
        check(&from, &bytes(rng, 0..24));
    });
}

#[test]
fn every_proper_prefix_of_a_splice_is_an_error() {
    for_each_case(|rng| {
        let (from, to, splice) = arb_pair(rng);
        let Some(splice) = splice else { return };
        for len in 0..splice.len() {
            let cut = decoded(&from, &splice[..len]);
            assert!(
                cut.is_err(),
                "{from} -> {to}: {len} bytes decode as {cut:?}"
            );
        }
    });
}
