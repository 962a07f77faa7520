//! Property tests: serialization/parsing round-trips on arbitrary trees,
//! over seeded cases (`p2p_index_testkit`).

use p2p_index_testkit::{ascii, for_each_case, Rng, StdRng, PRINTABLE};
use p2p_index_xmldoc::{parse, Element, XmlNode};

/// Arbitrary element names: short lowercase identifiers,
/// `[a-z][a-z0-9]{0,7}`.
fn arb_name(rng: &mut StdRng) -> String {
    ascii(rng, &[b'a'..=b'z'], 1..=1) + &ascii(rng, &[b'a'..=b'z', b'0'..=b'9'], 0..=7)
}

/// Arbitrary text content, including XML-special characters.
fn arb_text(rng: &mut StdRng) -> String {
    // Printable strings with specials; no raw control chars, and no
    // whitespace-only runs (the parser drops insignificant whitespace).
    loop {
        let text = ascii(rng, &[PRINTABLE], 1..=24).trim().to_string();
        if !text.is_empty() {
            return text;
        }
    }
}

/// A tree nested at most `depth` levels below its root: a leaf (with or
/// without text) at the limit and half the time above it, otherwise up to
/// two attributes and up to three children.
fn arb_element(rng: &mut StdRng, depth: u32) -> Element {
    let name = arb_name(rng);
    if depth == 0 || rng.gen_bool(0.5) {
        return if rng.gen_bool(0.5) {
            Element::with_text(name, arb_text(rng))
        } else {
            Element::new(name)
        };
    }
    let mut e = Element::new(name);
    for _ in 0..rng.gen_range(0..3usize) {
        e.push_attribute(arb_name(rng), arb_text(rng));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        e.push_child(XmlNode::Element(arb_element(rng, depth - 1)));
    }
    e
}

/// Nesting limit of the generated trees.
const DEPTH: u32 = 3;

/// Normalizes for comparison: the writer emits text trimmed, and the
/// parser drops whitespace-only runs, so compare canonical forms.
fn canonical(e: &Element) -> Element {
    e.canonicalize()
}

/// Writing then parsing is the identity on canonical trees.
#[test]
fn write_parse_roundtrip() {
    for_each_case(|rng| {
        let e = arb_element(rng, DEPTH);
        let parsed = parse(&e.to_xml()).expect("writer output must parse");
        assert_eq!(canonical(&parsed), canonical(&e));
    });
}

/// Pretty-printing parses back to the same canonical tree.
#[test]
fn pretty_parse_roundtrip() {
    for_each_case(|rng| {
        let e = arb_element(rng, DEPTH);
        let parsed = parse(&e.to_xml_pretty()).expect("pretty output must parse");
        assert_eq!(canonical(&parsed), canonical(&e));
    });
}

/// Canonicalization is idempotent and order-insensitive.
#[test]
fn canonicalize_idempotent() {
    for_each_case(|rng| {
        let once = arb_element(rng, DEPTH).canonicalize();
        assert_eq!(once.canonicalize(), once);
    });
}

/// Parsing never panics on arbitrary input (fuzz-light).
#[test]
fn parse_never_panics() {
    for_each_case(|rng| {
        let _ = parse(&ascii(rng, &[PRINTABLE], 0..=64));
    });
}

/// Escape round-trips through a text node.
#[test]
fn escape_roundtrip() {
    for_each_case(|rng| {
        let t = arb_text(rng);
        let e = Element::with_text("t", t.clone());
        let parsed = parse(&e.to_xml()).expect("escaped text parses");
        assert_eq!(parsed.text(), t.trim());
    });
}
