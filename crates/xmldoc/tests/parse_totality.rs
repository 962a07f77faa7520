//! Parser totality under byte mutation.
//!
//! Descriptors arrive from other peers, so `parse` sees bytes a peer
//! chose. Seeded printed descriptors are damaged the way
//! `decode_message`'s frames are in `crates/net/tests/codec_properties.rs`
//! — one to three bytes overwritten, inserted or deleted, a truncation, a
//! splice of two documents — and the parser must return, never panic or
//! abort; and whatever it accepts must print as text that parses back to
//! the same descriptor, or `h(d)` would not be a function of `d`.

use p2p_index_testkit::{ascii, damaged, for_each_case, spliced, Rng, StdRng, PRINTABLE};
use p2p_index_xmldoc::{parse, Descriptor, Element};

/// The bytes a mutation writes: the markup's own punctuation, so that a
/// damaged document is often still one, and anything at all.
const PUNCTUATION: &[u8] = b"<>/&;#\"'=!-[]? ax1";

fn arb_name(rng: &mut StdRng) -> String {
    ascii(rng, &[b'a'..=b'c'], 1..=2)
}

fn arb_element(rng: &mut StdRng, levels: usize) -> Element {
    let mut e = Element::new(arb_name(rng));
    for _ in 0..rng.gen_range(0..2usize) {
        e.push_attribute(arb_name(rng), ascii(rng, &[PRINTABLE], 0..=6));
    }
    if rng.gen_range(0..2usize) == 0 {
        e = e.with_text_node(ascii(rng, &[PRINTABLE], 1..=8));
    }
    if levels > 0 {
        for _ in 0..rng.gen_range(0..3usize) {
            e = e.with_child(arb_element(rng, levels - 1));
        }
    }
    e
}

/// A printed descriptor, now and then with the prolog, comment, CDATA
/// and character-reference forms the writer itself never emits.
fn arb_printed(rng: &mut StdRng) -> String {
    let body = Descriptor::new(arb_element(rng, 3)).canonical_text();
    match rng.gen_range(0..4usize) {
        0 => format!("<?xml version=\"1.0\"?><!-- c -->{body}<!-- d -->"),
        1 => body.replacen('>', "><![CDATA[<&>]]>&#x41;&#66;", 1),
        _ => body,
    }
}

/// Whatever parses must print as a fixed point of print∘parse.
fn check(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    let Ok(root) = parse(&text) else { return };
    let printed = root.to_xml();
    let reparsed = parse(&printed)
        .unwrap_or_else(|e| panic!("{text:?} printed as {printed:?}, which fails: {e}"));
    assert_eq!(reparsed.to_xml(), printed, "{text:?}");
    let d = Descriptor::new(root);
    let again = Descriptor::parse(&d.canonical_text())
        .unwrap_or_else(|e| panic!("{text:?}: canonical text fails: {e}"));
    assert_eq!(again, d, "{text:?}");
}

#[test]
fn mutated_documents_parse_to_a_fixed_point_or_fail_typed() {
    for_each_case(|rng| {
        let clean = arb_printed(rng).into_bytes();
        check(&clean);
        for edits in 1..=3 {
            check(&damaged(rng, &clean, PUNCTUATION, edits));
        }
    });
}

#[test]
fn every_truncation_parses_to_a_fixed_point_or_fails_typed() {
    for_each_case(|rng| {
        let clean = arb_printed(rng).into_bytes();
        for len in 0..clean.len() {
            check(&clean[..len]);
        }
    });
}

#[test]
fn spliced_documents_parse_to_a_fixed_point_or_fail_typed() {
    for_each_case(|rng| {
        let (a, b) = (arb_printed(rng), arb_printed(rng));
        for _ in 0..8 {
            check(&spliced(rng, a.as_bytes(), b.as_bytes()));
        }
    });
}
