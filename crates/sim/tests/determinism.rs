//! Determinism guarantees of the performance layer.
//!
//! Four contracts are locked down here:
//!
//! 1. The parallel experiment executor produces **byte-identical** CSV/text
//!    output to a serial run — every cell is a pure function of its config
//!    and per-cell seeds, and results are reassembled in canonical order.
//! 2. The memoized query key (`Query::canonical_text` + the service's
//!    interning table) equals the historical `Key::hash_of(&q.to_string())`
//!    for every query the generator can produce.
//! 3. Every key a publish writes is where it always was: the canonical
//!    text of each MSD and of both ends of each index edge, under every
//!    built-in scheme, folds to one pinned hash.
//! 4. The small-scale robustness sweep, which no committed CSV covers,
//!    folds to one pinned hash too.

use p2p_index_core::{
    CachePolicy, ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, IndexService,
    InitialLetterScheme, KeywordTitleScheme, SimpleScheme,
};
use p2p_index_dht::{Key, RingDht};
use p2p_index_sim::experiments::{self, EvalConfig, Evaluation};
use p2p_index_sim::simulation::SchemeChoice;
use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, StructureMix};
use p2p_index_xmldoc::{Descriptor, Element};
use p2p_index_xpath::Query;

/// Tiny but non-degenerate scale: enough activity for every policy to
/// cache, evict, and generalize.
fn tiny() -> EvalConfig {
    EvalConfig {
        nodes: 20,
        articles: 120,
        queries: 400,
        seed: 42,
    }
}

#[test]
fn parallel_grid_output_is_byte_identical_to_serial() {
    let mut serial = Evaluation::new(tiny());
    let mut parallel = Evaluation::new(tiny());
    parallel.run_cells(&experiments::paper_grid(), 4);
    assert_eq!(parallel.cells_run(), experiments::paper_grid().len());

    // Every grid exhibit, rendered from both evaluations.
    type Renderer = fn(&mut Evaluation, usize) -> p2p_index_sim::table::TextTable;
    let renderers: [(&str, Renderer); 7] = [
        ("fig11", experiments::fig11_interactions),
        ("fig12", experiments::fig12_traffic),
        ("fig13", experiments::fig13_hit_ratio),
        ("fig14", experiments::fig14_cache_storage),
        ("fig15", experiments::fig15_hotspots),
        ("table1", experiments::table1_errors),
        ("ext-structures", experiments::ext_structure_breakdown),
    ];
    for (name, render) in renderers {
        let s = render(&mut serial, 1);
        let p = render(&mut parallel, 4);
        assert_eq!(s.to_csv(), p.to_csv(), "{name} CSV must be byte-identical");
        assert_eq!(
            s.to_text(),
            p.to_text(),
            "{name} text must be byte-identical"
        );
    }
}

#[test]
fn parallel_robustness_sweep_is_byte_identical_to_serial() {
    let base = EvalConfig {
        nodes: 16,
        articles: 60,
        queries: 600, // 50 queries per loss × budget cell
        seed: 42,
    };
    let serial = experiments::ext_robustness(&base, 1);
    let parallel = experiments::ext_robustness(&base, 4);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_text(), parallel.to_text());
}

#[test]
fn the_small_robustness_sweep_does_not_move() {
    // No committed golden covers the sweep (`all` leaves it out), so its
    // `repro robustness --small` CSV is pinned here as one FNV-64.
    let csv = experiments::ext_robustness(&EvalConfig::small(), 2).to_csv();
    let hash = fnv_fold(0xcbf2_9ce4_8422_2325, csv.as_bytes());
    assert_eq!(
        csv.lines().count(),
        13,
        "a header and 4 loss rates × 3 budgets"
    );
    assert_eq!(hash, 0xbda2_690b_6d5c_bf35, "{hash:#018x}\n{csv}");
}

#[test]
fn run_cells_at_any_job_count_matches_serial_metrics() {
    let cells = [
        (SchemeChoice::Simple, CachePolicy::Single),
        (SchemeChoice::Flat, CachePolicy::None),
        (SchemeChoice::Complex, CachePolicy::Lru(10)),
    ];
    let mut reference = Evaluation::new(tiny());
    for &(s, p) in &cells {
        reference.cell(s, p);
    }
    for jobs in [2, 4, 8] {
        let mut e = Evaluation::new(tiny());
        e.run_cells(&cells, jobs);
        for &(s, p) in &cells {
            assert_eq!(
                e.cell(s, p),
                reference.cell(s, p),
                "{s:?}/{p} at jobs={jobs}"
            );
        }
    }
}

#[test]
fn metrics_snapshots_are_identical_at_any_job_count() {
    let cells = [
        (SchemeChoice::Simple, CachePolicy::Single),
        (SchemeChoice::Flat, CachePolicy::None),
        (SchemeChoice::Complex, CachePolicy::Lru(10)),
    ];
    let mut reference = Evaluation::new(tiny());
    reference.set_collect_metrics(true);
    for &(s, p) in &cells {
        reference.cell(s, p);
    }
    let reference_snaps = reference.metrics_snapshots();
    assert_eq!(
        reference_snaps.len(),
        cells.len(),
        "every collected cell must produce a snapshot"
    );
    for jobs in [2, 8] {
        let mut e = Evaluation::new(tiny());
        e.set_collect_metrics(true);
        e.run_cells(&cells, jobs);
        let snaps = e.metrics_snapshots();
        assert_eq!(snaps.len(), reference_snaps.len(), "jobs={jobs}");
        for ((label_a, a), (label_b, b)) in reference_snaps.iter().zip(&snaps) {
            assert_eq!(label_a, label_b, "jobs={jobs}: snapshot ordering");
            assert_eq!(a, b, "jobs={jobs}: {label_a} snapshot must not drift");
            assert_eq!(a.to_json(), b.to_json(), "jobs={jobs}: {label_a} JSON");
        }
    }
}

#[test]
fn collecting_metrics_does_not_perturb_simulation_metrics() {
    let (scheme, policy) = (SchemeChoice::Simple, CachePolicy::Lru(10));
    let mut plain = Evaluation::new(tiny());
    let mut observed = Evaluation::new(tiny());
    observed.set_collect_metrics(true);
    assert_eq!(
        plain.cell(scheme, policy),
        observed.cell(scheme, policy),
        "attaching the registry must be behavior-neutral"
    );
}

#[test]
fn memoized_key_matches_hash_of_rendered_text() {
    let corpus = Corpus::generate(CorpusConfig {
        articles: 200,
        author_pool: 50,
        seed: 7,
        ..CorpusConfig::default()
    });
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 7);
    let mut service = IndexService::new(RingDht::with_named_nodes(16), CachePolicy::Single);
    for _ in 0..500 {
        let item = generator.next_query();
        let q = item.query;
        // The memoized canonical text is exactly the Display rendering...
        assert_eq!(q.canonical_text(), q.to_string(), "{q}");
        // ...so the compute-once key equals the historical definition.
        let expected = Key::hash_of(&q.to_string());
        assert_eq!(IndexService::<RingDht>::key_of(&q), expected, "{q}");
        assert_eq!(service.cached_key(&q), expected, "{q}");
        // And the interned lookup is stable on repeat sightings.
        assert_eq!(service.cached_key(&q), expected, "{q}");
    }
}

#[test]
fn memoized_key_survives_query_transformations() {
    // Derived queries (generalizations) re-render, so their memoized text
    // must also match a fresh parse.
    let q: p2p_index_xpath::Query =
        "/article[author[first/John][last/Smith]][conf/SIGCOMM][year/1989]"
            .parse()
            .unwrap();
    for g in q.generalizations() {
        let reparsed: p2p_index_xpath::Query = g.to_string().parse().unwrap();
        assert_eq!(g, reparsed);
        assert_eq!(
            Key::hash_of(g.canonical_text()),
            Key::hash_of(&reparsed.to_string())
        );
    }
}

/// FNV-1a, 64-bit, over `bytes` and a terminator, so that no two
/// sequences of texts fold alike by moving a boundary.
fn fnv_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().chain([&0xff]).fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Descriptors the corpus never makes: two authors, no title, and names
/// and values that need quoting, one of them escaping too.
fn odd_descriptors() -> Vec<Descriptor> {
    let author = |first: &str, last: &str| {
        Element::new("author")
            .with_child(Element::with_text("first", first))
            .with_child(Element::with_text("last", last))
    };
    vec![
        Descriptor::new(
            Element::new("article")
                .with_child(author("John", "Smith"))
                .with_child(author("Jane", "Doe"))
                .with_child(Element::with_text("title", "TCP"))
                .with_child(Element::with_text("conf", "SIGCOMM"))
                .with_child(Element::with_text("year", "1989")),
        ),
        Descriptor::new(
            Element::new("article")
                .with_child(author("Ann", "Lee"))
                .with_child(Element::with_text("conf", "INFOCOM"))
                .with_child(Element::with_text("year", "1996")),
        ),
        Descriptor::new(
            Element::new("article")
                .with_child(author("Jean Luc", "O\\Brien"))
                .with_child(Element::with_text("title", "Say \"hi\" to [P2P] / DHTs"))
                .with_child(Element::with_text("conf", "IPTPS 2003"))
                .with_child(Element::with_text("year", "2003")),
        ),
    ]
}

#[test]
fn the_keys_a_publish_writes_do_not_move() {
    let corpus = Corpus::generate(CorpusConfig::default());
    let descriptors: Vec<Descriptor> = corpus.articles()[..2_000]
        .iter()
        .map(|a| a.descriptor())
        .chain(odd_descriptors())
        .collect();
    let schemes: [&dyn IndexScheme; 6] = [
        &SimpleScheme,
        &FlatScheme,
        &ComplexScheme,
        &Fig4Scheme,
        &InitialLetterScheme::new(SimpleScheme, 1),
        &KeywordTitleScheme::new(SimpleScheme, 4),
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut edges = 0usize;
    for d in &descriptors {
        let msd = Query::most_specific(d);
        hash = fnv_fold(hash, msd.canonical_text().as_bytes());
        for scheme in schemes {
            for (from, to) in scheme.index_edges(d, &msd) {
                hash = fnv_fold(hash, from.canonical_text().as_bytes());
                hash = fnv_fold(hash, to.canonical_text().as_bytes());
                edges += 1;
            }
        }
    }
    assert_eq!(edges, 89_971, "every scheme emitted its edges");
    // Folded on the code that built queries as pointer trees: a change
    // to normalization, rendering, quoting or a scheme moves it.
    assert_eq!(hash, 0x4c88_7051_04c0_a290, "{hash:#018x}");
}
