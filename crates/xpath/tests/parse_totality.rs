//! Parser totality under byte mutation.
//!
//! A stored value is a query's canonical text, and every client parses
//! whatever it reads, so `parse_query` sees bytes a peer chose. Seeded
//! canonical texts are damaged the way `decode_message`'s frames are in
//! `crates/net/tests/codec_properties.rs` — one to three bytes
//! overwritten, inserted or deleted, a truncation, a splice of two texts
//! — and the parser must return, never panic or abort; and whatever it
//! accepts must print as text that parses back to the same query, or
//! `h(q)` would not be a function of `q`. A text in the old syntax — `//`,
//! a `*` step, an ordering comparison — is an error at that construct.

use p2p_index_testkit::{damaged, for_each_case, spliced, Rng, StdRng};
use p2p_index_xpath::{parse_query, Query, QueryErrorKind};

const NAMES: [&str; 9] = [
    "article",
    "author",
    "last",
    "Smith",
    "1996",
    "\"*\"",
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
const OPS: [&str; 3] = ["=", "^=", "*="];

/// What the language no longer has, and the token each stands in for:
/// the descendant axis for a `/`, the wildcard for a name, the ordering
/// comparisons for an operator.
const REMOVED: [(&str, Slot); 7] = [
    ("//", Slot::Slash),
    ("*", Slot::Name),
    ("!=", Slot::Op),
    ("<", Slot::Op),
    ("<=", Slot::Op),
    (">", Slot::Op),
    (">=", Slot::Op),
];

/// The bytes a mutation writes: the grammar's own punctuation, so that a
/// damaged text is often still a query, and anything at all — the
/// removed constructs' characters included.
const PUNCTUATION: &[u8] = b"/[]*=!<>^\"\\ a1";

#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Slash,
    Name,
    Op,
}

/// A removed construct [`arb_steps`] writes once, in place of a token of
/// its slot, and the offset it wrote it at.
struct Poison {
    token: &'static str,
    slot: Option<Slot>,
    at: Option<usize>,
}

impl Poison {
    /// `token` for some token of `slot`; `None` writes no construct.
    fn new(token: &'static str, slot: Option<Slot>) -> Poison {
        Poison {
            token,
            slot,
            at: None,
        }
    }

    /// Writes `clean`, a token for `slot` — or, once and at random, the
    /// removed construct in its place.
    fn write(&mut self, rng: &mut StdRng, slot: Slot, clean: &str, out: &mut String) {
        if self.slot == Some(slot) && self.at.is_none() && rng.gen_range(0..3usize) == 0 {
            self.at = Some(out.len());
            out.push_str(self.token);
        } else {
            out.push_str(clean);
        }
    }
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Some query text, every construct of the grammar in reach, with
/// `poison`'s construct written in at most once.
fn arb_steps(rng: &mut StdRng, levels: usize, poison: &mut Poison, out: &mut String) {
    let name = pick(rng, &NAMES);
    poison.write(rng, Slot::Name, name, out);
    if levels == 0 {
        return;
    }
    for _ in 0..rng.gen_range(0..3usize) {
        out.push('[');
        arb_steps(rng, levels - 1, poison, out);
        out.push(']');
    }
    match rng.gen_range(0..4usize) {
        0 => {
            poison.write(rng, Slot::Slash, "/", out);
            arb_steps(rng, levels - 1, poison, out);
        }
        1 => {
            let op = pick(rng, &OPS);
            poison.write(rng, Slot::Op, op, out);
            out.push_str(pick(rng, &VALUES));
        }
        _ => {}
    }
}

fn arb_canonical(rng: &mut StdRng) -> String {
    let mut text = String::from("/");
    arb_steps(rng, 3, &mut Poison::new("", None), &mut text);
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

/// Each removed construct, written into an otherwise well-formed text,
/// is an `UnexpectedToken` error at the construct — the second `/` of a
/// `//`, since the first still ends the step before it.
#[test]
fn removed_constructs_fail_typed_at_their_offset() {
    for_each_case(|rng| {
        for (token, slot) in REMOVED {
            let (text, at) = loop {
                let mut poison = Poison::new(token, Some(slot));
                let mut text = String::new();
                poison.write(rng, Slot::Slash, "/", &mut text);
                arb_steps(rng, 3, &mut poison, &mut text);
                if let Some(at) = poison.at {
                    break (text, at);
                }
            };
            let err = parse_query(&text).expect_err(&text);
            let (bad, offset) = match token {
                "//" => ("/", at + 1),
                _ => (&token[..1], at),
            };
            assert_eq!(err.offset, offset, "{text:?}: {err}");
            assert!(
                matches!(&err.kind, QueryErrorKind::UnexpectedToken(t) if t.starts_with(bad)),
                "{text:?}: {err}"
            );
        }
    });
}
