//! Determinism guarantees of the performance layer.
//!
//! Two contracts are locked down here:
//!
//! 1. The parallel experiment executor produces **byte-identical** CSV/text
//!    output to a serial run — every cell is a pure function of its config
//!    and per-cell seeds, and results are reassembled in canonical order.
//! 2. The memoized query key (`Query::canonical_text` + the service's
//!    interning table) equals the historical `Key::hash_of(&q.to_string())`
//!    for every query the generator can produce.

use p2p_index_core::{CachePolicy, IndexService};
use p2p_index_dht::{Key, RingDht};
use p2p_index_sim::experiments::{self, EvalConfig, Evaluation};
use p2p_index_sim::simulation::SchemeChoice;
use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, StructureMix};

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
    type Renderer = fn(&mut Evaluation) -> p2p_index_sim::table::TextTable;
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
        let s = render(&mut serial);
        let p = render(&mut parallel);
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
