//! Parser totality under byte mutation.
//!
//! A stored value is a query's canonical text, and every client parses
//! whatever it reads, so `parse_query` sees bytes a peer chose. Seeded
//! canonical texts are damaged the way `decode_message`'s frames are in
//! `crates/net/tests/codec_properties.rs` — one to three bytes
//! overwritten, inserted or deleted, a truncation, a splice of two texts
//! — and the parser must return, never panic or abort; and whatever it
//! accepts must print as text that parses back to the same query, or
//! `h(q)` would not be a function of `q`.

use p2p_index_testkit::{damaged, for_each_case, spliced, Rng, StdRng};
use p2p_index_xpath::{parse_query, Query};

const NAMES: [&str; 9] = [
    "article",
    "author",
    "last",
    "Smith",
    "1996",
    "*",
    "\"x y\"",
    "\"q\\\"t\\\\\"",
    "\"\"",
];
const VALUES: [&str; 6] = [
    "Smith",
    "1996",
    "\"x y\"",
    "\"q\\\"t\\\\\"",
    "\"\"",
    "\"*\"",
];
const OPS: [&str; 8] = ["=", "!=", "<", "<=", ">", ">=", "^=", "*="];

/// The bytes a mutation writes: the grammar's own punctuation, so that a
/// damaged text is often still a query, and anything at all.
const PUNCTUATION: &[u8] = b"/[]*=!<>^\"\\ a1";

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Some well-formed query text, every construct of the grammar in reach.
fn arb_steps(rng: &mut StdRng, levels: usize, out: &mut String) {
    out.push_str(pick(rng, &NAMES));
    if levels == 0 {
        return;
    }
    for _ in 0..rng.gen_range(0..3usize) {
        out.push('[');
        if rng.gen_range(0..5usize) == 0 {
            out.push_str("//");
        }
        arb_steps(rng, levels - 1, out);
        out.push(']');
    }
    match rng.gen_range(0..4usize) {
        0 => {
            out.push_str(pick(rng, &["/", "//"]));
            arb_steps(rng, levels - 1, out);
        }
        1 => {
            out.push_str(pick(rng, &OPS));
            out.push_str(pick(rng, &VALUES));
        }
        _ => {}
    }
}

fn arb_canonical(rng: &mut StdRng) -> String {
    let mut text = String::from(pick(rng, &["/", "/", "/", "//"]));
    arb_steps(rng, 3, &mut text);
    let q = parse_query(&text).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
    q.to_string()
}

/// Whatever parses must print as a fixed point of print∘parse.
fn check(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    let Ok(q) = parse_query(&text) else { return };
    let printed = q.to_string();
    let reparsed: Query = parse_query(&printed)
        .unwrap_or_else(|e| panic!("{text:?} printed as {printed:?}, which fails: {e}"));
    assert_eq!(reparsed, q, "{text:?}");
    assert_eq!(reparsed.to_string(), printed, "{text:?}");
    assert!(q.covers(&reparsed) && q.size() == reparsed.size());
}

#[test]
fn mutated_canonical_texts_parse_to_a_fixed_point_or_fail_typed() {
    for_each_case(|rng| {
        let clean = arb_canonical(rng).into_bytes();
        check(&clean);
        for edits in 1..=3 {
            check(&damaged(rng, &clean, PUNCTUATION, edits));
        }
    });
}

#[test]
fn every_truncation_parses_to_a_fixed_point_or_fails_typed() {
    for_each_case(|rng| {
        let clean = arb_canonical(rng).into_bytes();
        for len in 0..clean.len() {
            check(&clean[..len]);
        }
    });
}

#[test]
fn spliced_canonical_texts_parse_to_a_fixed_point_or_fail_typed() {
    for_each_case(|rng| {
        let (a, b) = (arb_canonical(rng), arb_canonical(rng));
        for _ in 0..8 {
            check(&spliced(rng, a.as_bytes(), b.as_bytes()));
        }
    });
}
