//! Cross-crate integration tests: the full stack (workload → descriptors →
//! queries → index schemes → DHT) exercised end to end.

use p2p_index::index::Traffic;
use p2p_index::prelude::*;
use p2p_index::sim::{SimConfig, Simulation};

fn publish_corpus(service: &mut IndexService<RingDht>, corpus: &Corpus, scheme: &dyn IndexScheme) {
    for article in corpus.articles() {
        service
            .publish(&article.descriptor(), article.file_name(), scheme)
            .expect("publish succeeds on a live network");
    }
}

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig {
        articles: 250,
        author_pool: 60,
        seed: 17,
        ..CorpusConfig::default()
    })
}

/// Ground truth via brute force: which files' descriptors match a query?
fn brute_force(corpus: &Corpus, query: &Query) -> Vec<String> {
    let mut files: Vec<String> = corpus
        .articles()
        .iter()
        .filter(|a| query.matches(a.descriptor().root()))
        .map(|a| a.file_name())
        .collect();
    files.sort();
    files
}

#[test]
fn search_results_match_brute_force_for_indexed_structures() {
    let corpus = corpus();
    let mut service = IndexService::new(RingDht::with_named_nodes(80), CachePolicy::None);
    publish_corpus(&mut service, &corpus, &SimpleScheme);

    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 23);
    let mut checked = 0;
    for item in generator.take_queries(300) {
        // Author+year is not indexed: search returns the *target-reachable*
        // subset via generalization, which still satisfies the query, so
        // brute-force equality applies there too.
        let report = service.search(&item.query).expect("search succeeds");
        let mut found: Vec<String> = report.files.iter().map(|h| h.file.clone()).collect();
        found.sort();
        found.dedup();
        let expected = brute_force(&corpus, &item.query);
        assert_eq!(found, expected, "query {}", item.query);
        checked += 1;
    }
    assert_eq!(checked, 300);
}

#[test]
fn search_is_sound_never_returns_non_matching_files() {
    let corpus = corpus();
    for scheme in [
        &SimpleScheme as &dyn IndexScheme,
        &FlatScheme,
        &ComplexScheme,
    ] {
        let mut service = IndexService::new(RingDht::with_named_nodes(60), CachePolicy::None);
        publish_corpus(&mut service, &corpus, scheme);
        let mut generator = QueryGenerator::new(&corpus, StructureMix::bibfinder_log(), 31);
        for item in generator.take_queries(150) {
            let report = service.search(&item.query).expect("search succeeds");
            for hit in &report.files {
                let id: usize = hit
                    .file
                    .trim_start_matches("article-")
                    .trim_end_matches(".pdf")
                    .parse()
                    .expect("file name encodes the article id");
                let d = corpus.article(id).expect("valid article id").descriptor();
                assert!(
                    item.query.matches(d.root()),
                    "{}: {} returned for non-matching {}",
                    scheme.name(),
                    hit.file,
                    item.query
                );
            }
        }
    }
}

#[test]
fn all_three_schemes_agree_on_results() {
    let corpus = corpus();
    let mut services: Vec<IndexService<RingDht>> = Vec::new();
    for scheme in [
        &SimpleScheme as &dyn IndexScheme,
        &FlatScheme,
        &ComplexScheme,
    ] {
        let mut s = IndexService::new(RingDht::with_named_nodes(60), CachePolicy::None);
        publish_corpus(&mut s, &corpus, scheme);
        services.push(s);
    }
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 47);
    for item in generator.take_queries(100) {
        let mut results: Vec<Vec<String>> = Vec::new();
        for service in &mut services {
            let report = service.search(&item.query).expect("search succeeds");
            let mut files: Vec<String> = report.files.iter().map(|h| h.file.clone()).collect();
            files.sort();
            results.push(files);
        }
        assert_eq!(results[0], results[1], "simple vs flat on {}", item.query);
        assert_eq!(
            results[0], results[2],
            "simple vs complex on {}",
            item.query
        );
    }
}

#[test]
fn ring_and_chord_substrates_give_identical_results() {
    let corpus = Corpus::generate(CorpusConfig {
        articles: 120,
        author_pool: 40,
        seed: 5,
        ..CorpusConfig::default()
    });
    let ids: Vec<p2p_index::dht::Key> = (0..40)
        .map(|i| p2p_index::dht::Key::hash_of(&format!("node-{i}")))
        .collect();

    let mut over_ring = IndexService::new(RingDht::from_ids(ids.clone()), CachePolicy::None);
    let mut over_chord = IndexService::new(
        p2p_index::dht::ChordNetwork::with_perfect_tables(ids),
        CachePolicy::None,
    );
    for article in corpus.articles() {
        over_ring
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .unwrap();
        over_chord
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .unwrap();
    }
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 3);
    for item in generator.take_queries(120) {
        let mut ring_files: Vec<String> = over_ring
            .search(&item.query)
            .unwrap()
            .files
            .iter()
            .map(|h| h.file.clone())
            .collect();
        let mut chord_files: Vec<String> = over_chord
            .search(&item.query)
            .unwrap()
            .files
            .iter()
            .map(|h| h.file.clone())
            .collect();
        ring_files.sort();
        chord_files.sort();
        assert_eq!(
            ring_files, chord_files,
            "substrates disagree on {}",
            item.query
        );
    }
}

#[test]
fn deletion_is_complete_and_leaves_no_dangling_entries() {
    let corpus = Corpus::generate(CorpusConfig {
        articles: 80,
        author_pool: 25,
        seed: 29,
        ..CorpusConfig::default()
    });
    let mut service = IndexService::new(RingDht::with_named_nodes(40), CachePolicy::None);
    publish_corpus(&mut service, &corpus, &SimpleScheme);

    // Delete the first half of the corpus.
    for article in &corpus.articles()[..40] {
        service
            .unpublish(&article.descriptor(), &article.file_name(), &SimpleScheme)
            .unwrap();
    }
    // Deleted articles are unreachable; surviving ones still found.
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 13);
    for item in generator.take_queries(200) {
        let report = service.search(&item.query).unwrap();
        let files: Vec<&str> = report.files.iter().map(|h| h.file.as_str()).collect();
        for article in &corpus.articles()[..40] {
            assert!(
                !files.contains(&article.file_name().as_str()),
                "deleted {} resurfaced for {}",
                article.file_name(),
                item.query
            );
        }
        // Soundness still holds for survivors.
        for f in &files {
            let id: usize = f
                .trim_start_matches("article-")
                .trim_end_matches(".pdf")
                .parse()
                .unwrap();
            assert!(id >= 40, "deleted article {id} returned");
        }
    }

    // Deleting everything leaves the DHT with no index entries at all.
    for article in &corpus.articles()[40..] {
        service
            .unpublish(&article.descriptor(), &article.file_name(), &SimpleScheme)
            .unwrap();
    }
    assert_eq!(
        service.dht().total_keys(),
        0,
        "recursive cleanup must empty the network"
    );
}

#[test]
fn cached_and_uncached_searches_return_identical_files() {
    let corpus = std::sync::Arc::new(corpus());
    let mut plain = IndexService::new(RingDht::with_named_nodes(60), CachePolicy::None);
    publish_corpus(&mut plain, &corpus, &SimpleScheme);
    let config = SimConfig {
        nodes: 60,
        articles: corpus.len(),
        policy: CachePolicy::Single,
        ..SimConfig::default()
    };
    let mut warmed = Simulation::prepare_with_corpus(config, corpus.clone());

    // Warm the cache through the user model.
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 61);
    for item in generator.take_queries(500) {
        warmed.ask(&item.query, item.target);
    }
    let cached = warmed.service_mut();

    // Automated search never consults shortcuts: the warmed caches change
    // neither its result set nor the work it does — interactions, rounds
    // and traffic are the uncached service's, query by query.
    let delta = |after: Traffic, before: Traffic| {
        (
            after.normal_bytes - before.normal_bytes,
            after.cache_bytes - before.cache_bytes,
            after.messages - before.messages,
        )
    };
    fn files(report: &SearchReport) -> Vec<&str> {
        let mut files: Vec<&str> = report.files.iter().map(|h| h.file.as_str()).collect();
        files.sort();
        files
    }
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 62);
    for item in generator.take_queries(150) {
        let (plain_before, cached_before) = (*plain.traffic(), *cached.traffic());
        let a = plain.search(&item.query).unwrap();
        let b = cached.search(&item.query).unwrap();
        assert_eq!(
            files(&a),
            files(&b),
            "cache changed results of {}",
            item.query
        );
        assert_eq!(
            (a.interactions, a.rounds),
            (b.interactions, b.rounds),
            "cache changed the walk of {}",
            item.query
        );
        assert_eq!(
            delta(*plain.traffic(), plain_before),
            delta(*cached.traffic(), cached_before),
            "cache changed the traffic of {}",
            item.query
        );
    }
}

#[test]
fn fig4_scheme_supports_last_name_searches() {
    let corpus = corpus();
    let mut service = IndexService::new(RingDht::with_named_nodes(60), CachePolicy::None);
    publish_corpus(&mut service, &corpus, &Fig4Scheme);
    let article = corpus.article(0).unwrap();
    let (_, last) = article.primary_author();
    let q = QueryBuilder::new("article")
        .value("author/last", last)
        .build();
    let report = service.search(&q).unwrap();
    assert!(
        report.files.iter().any(|h| h.file == article.file_name()),
        "last-name search must reach the article through the Fig. 4 hierarchy"
    );
    let expected = brute_force(&corpus, &q);
    let mut found: Vec<String> = report.files.iter().map(|h| h.file.clone()).collect();
    found.sort();
    assert_eq!(found, expected);
}

#[test]
fn browse_by_author_initial_letter() {
    // §IV-C substring indexes: initial-letter entries let users browse
    // authors alphabetically and refine.
    let corpus = Corpus::generate(CorpusConfig {
        articles: 150,
        author_pool: 40,
        seed: 41,
        ..CorpusConfig::default()
    });
    let scheme = InitialLetterScheme::new(SimpleScheme, 1);
    let mut service = IndexService::new(RingDht::with_named_nodes(50), CachePolicy::None);
    for article in corpus.articles() {
        service
            .publish(&article.descriptor(), article.file_name(), &scheme)
            .unwrap();
    }
    // Browse every article through its primary author's initial.
    for article in corpus.articles().iter().take(30) {
        let (_, last) = article.primary_author();
        let initial: String = last.chars().take(1).collect();
        let q: Query = format!("/article[author/last^={initial}]").parse().unwrap();
        let report = service.search(&q).unwrap();
        assert!(
            report.files.iter().any(|h| h.file == article.file_name()),
            "initial {initial} must reach {}",
            article.file_name()
        );
        // Soundness: all results really have a matching author initial.
        for hit in &report.files {
            let id: usize = hit
                .file
                .trim_start_matches("article-")
                .trim_end_matches(".pdf")
                .parse()
                .unwrap();
            let a = corpus.article(id).unwrap();
            assert!(
                a.authors.iter().any(|(_, l)| l.starts_with(&initial)),
                "{} has no author starting with {initial}",
                hit.file
            );
        }
    }
}
