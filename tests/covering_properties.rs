//! Property-based tests of the system's central invariant: the covering
//! relation is *sound* with respect to matching, and the index layer only
//! ever follows covering edges.
//!
//! Random descriptors and random queries are generated over a small field
//! vocabulary so that matches/coverings actually occur, from seeded cases
//! (`p2p_index_testkit`).

use p2p_index::prelude::*;
use p2p_index_testkit::{for_each_case, Rng, StdRng};

const FIRSTS: &[&str] = &["John", "Alan", "Maria"];
const LASTS: &[&str] = &["Smith", "Doe", "Ross"];
const TITLES: &[&str] = &["TCP", "IPv6", "Wavelets"];
const CONFS: &[&str] = &["SIGCOMM", "INFOCOM"];
const YEARS: &[&str] = &["1989", "1996", "2001"];

fn pick<'a>(rng: &mut StdRng, words: &[&'a str]) -> &'a str {
    words[rng.gen_range(0..words.len())]
}

fn arb_descriptor(rng: &mut StdRng) -> Descriptor {
    Descriptor::new(
        Element::new("article")
            .with_child(
                Element::new("author")
                    .with_child(Element::with_text("first", pick(rng, FIRSTS)))
                    .with_child(Element::with_text("last", pick(rng, LASTS))),
            )
            .with_child(Element::with_text("title", pick(rng, TITLES)))
            .with_child(Element::with_text("conf", pick(rng, CONFS)))
            .with_child(Element::with_text("year", pick(rng, YEARS))),
    )
}

/// A random query over the same vocabulary: any subset of constraints,
/// and at times a comparison on the title or the year — `=` a word of
/// the field's, `^=` a prefix of one, `*=` a substring of one — so that
/// a comparison holds for some descriptors and not for others.
fn arb_query(rng: &mut StdRng) -> Query {
    let mut b = QueryBuilder::new("article");
    for (field, words) in [
        ("author/first", FIRSTS),
        ("author/last", LASTS),
        ("title", TITLES),
        ("conf", CONFS),
        ("year", YEARS),
    ] {
        if rng.gen() {
            b = b.value(field, pick(rng, words));
        }
    }
    if rng.gen() {
        let (field, words) = [("title", TITLES), ("year", YEARS)][rng.gen_range(0..2usize)];
        let word = pick(rng, words);
        let start = rng.gen_range(0..=word.len());
        let end = rng.gen_range(start..=word.len());
        let (op, value) = match rng.gen_range(0..3usize) {
            0 => (CmpOp::Eq, word),
            1 => (CmpOp::StartsWith, &word[..end]),
            _ => (CmpOp::Contains, &word[start..end]),
        };
        b = b.compare(field, op, value);
    }
    b.build()
}

/// Soundness: q' ⊒ q and d matches q  ⇒  d matches q'.
/// This is the definition of covering (§III-B); if it ever failed, an
/// index path could lead to data not matching the user's query.
#[test]
fn covering_is_sound_wrt_matching() {
    for_each_case(|rng| {
        let (d, q1, q2) = (arb_descriptor(rng), arb_query(rng), arb_query(rng));
        if q2.covers(&q1) && q1.matches(d.root()) {
            assert!(q2.matches(d.root()), "{q2} covers {q1} but missed {d}");
        }
    });
}

/// The MSD is equivalent to its descriptor: exactly the descriptors
/// equal to d match the MSD of d.
#[test]
fn msd_equivalence() {
    for_each_case(|rng| {
        let (d1, d2) = (arb_descriptor(rng), arb_descriptor(rng));
        let msd = Query::most_specific(&d1);
        assert!(msd.matches(d1.root()));
        if d1 != d2 {
            // Different field values: the MSD must not match.
            assert!(!msd.matches(d2.root()), "{msd} matched {d2}");
        }
    });
}

/// Covering is reflexive and transitive (a partial preorder); combined
/// with canonical normalization, equality is exactly mutual covering.
#[test]
fn covering_is_a_partial_order() {
    for_each_case(|rng| {
        let (a, b, c) = (arb_query(rng), arb_query(rng), arb_query(rng));
        assert!(a.covers(&a));
        if a.covers(&b) && b.covers(&c) {
            assert!(a.covers(&c), "transitivity: {a} ⊒ {b} ⊒ {c}");
        }
        if a.covers(&b) && b.covers(&a) {
            assert_eq!(&a, &b, "antisymmetry up to normalization");
        }
    });
}

/// A query covers the MSD of a descriptor iff it matches the
/// descriptor — the bridge between the evaluation and containment
/// semantics, comparisons included.
#[test]
fn covers_msd_iff_matches() {
    for_each_case(|rng| {
        let (d, q) = (arb_descriptor(rng), arb_query(rng));
        let msd = Query::most_specific(&d);
        assert_eq!(
            q.covers(&msd),
            q.matches(d.root()),
            "query {q} vs descriptor {d}"
        );
    });
}

/// Dropping a top-level branch always yields a covering query: the
/// generalization step of §IV-B can never lose the target.
#[test]
fn generalizations_cover_the_original() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        for g in q.generalizations() {
            assert!(g.covers(&q), "{g} must cover {q}");
        }
    });
}

/// Canonical text round-trips through the parser.
#[test]
fn canonical_text_roundtrips() {
    for_each_case(|rng| {
        let q = arb_query(rng);
        let reparsed: Query = q.to_string().parse().expect("canonical text parses");
        assert_eq!(reparsed, q);
    });
}

/// Scheme edges always satisfy the covering invariant, for every
/// scheme and every descriptor.
#[test]
fn scheme_edges_always_cover() {
    for_each_case(|rng| {
        let d = arb_descriptor(rng);
        let msd = Query::most_specific(&d);
        for scheme in [
            &SimpleScheme as &dyn IndexScheme,
            &FlatScheme,
            &ComplexScheme,
            &Fig4Scheme,
        ] {
            for (from, to) in scheme.index_edges(&d, &msd) {
                assert!(from.covers(&to), "{}: {} ⊒ {}", scheme.name(), from, to);
            }
        }
    });
}

/// End-to-end soundness on random mini-corpora: every file returned by
/// a search matches the query.
#[test]
fn random_corpus_search_soundness() {
    for_each_case(|rng| {
        let mut service = IndexService::new(RingDht::with_named_nodes(12), CachePolicy::None);
        let mut unique = Vec::new();
        for i in 0..rng.gen_range(1..12usize) {
            let d = arb_descriptor(rng);
            if !unique.contains(&d) {
                service
                    .publish(&d, format!("file-{i}"), &SimpleScheme)
                    .unwrap();
                unique.push(d);
            }
        }
        let q = arb_query(rng);
        let report = service.search(&q).unwrap();
        for hit in &report.files {
            let d = unique
                .iter()
                .find(|d| Query::most_specific(d) == hit.msd)
                .expect("hit corresponds to a published descriptor");
            assert!(q.matches(d.root()), "{} returned for {}", hit.msd, q);
        }
    });
}
