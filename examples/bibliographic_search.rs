//! A distributed bibliographic database, searched interactively.
//!
//! Builds the paper's evaluation scenario at small scale — a synthetic
//! DBLP-like corpus published into a 100-node network — and then walks one
//! search the way an interactive user would (§IV-B): submit a broad query,
//! inspect the list of more specific queries that comes back, pick one,
//! repeat until the file is found. Also shows the three schemes of Fig. 8
//! side by side on the same query.
//!
//! Run with: `cargo run --example bibliographic_search`

use p2p_index::index::IndexTarget;
use p2p_index::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Corpus::generate(CorpusConfig {
        articles: 300,
        author_pool: 80,
        seed: 7,
        ..CorpusConfig::default()
    });

    // Publish the corpus three times, once per scheme, into separate
    // networks, so we can compare lookups.
    let mut services: Vec<(&str, IndexService<RingDht>)> = Vec::new();
    for (name, scheme) in [
        ("simple", &SimpleScheme as &dyn IndexScheme),
        ("flat", &FlatScheme),
        ("complex", &ComplexScheme),
    ] {
        let mut service = IndexService::new(RingDht::with_named_nodes(100), CachePolicy::None);
        for article in corpus.articles() {
            service.publish(&article.descriptor(), article.file_name(), scheme)?;
        }
        services.push((name, service));
    }

    // Pick a target the corpus's most prolific author wrote.
    let target = corpus.article(0).expect("non-empty corpus");
    let (first, last) = target.primary_author();
    println!(
        "target article: \"{}\" by {first} {last} ({} {})\n",
        target.title, target.conf, target.year
    );

    // --- Interactive walk on the simple scheme --------------------------
    println!("interactive session (simple scheme):");
    let service = &mut services[0].1;
    let mut current: Query = QueryBuilder::new("article")
        .value("author/first", first)
        .value("author/last", last)
        .build();
    let target_msd = Query::most_specific(&target.descriptor());
    for step in 1.. {
        let resp = service.lookup_step(&current)?;
        println!("  step {step}: lookup {current}");
        println!(
            "    node {} returned {} result(s)",
            resp.node.unwrap(),
            resp.indexed.len()
        );
        // The user scans the result list and picks the entry matching the
        // article they are after.
        let next = resp.indexed.iter().find(|t| match t {
            IndexTarget::Query(q) => *q != current && q.covers(&target_msd),
            IndexTarget::File(f) => **f == *target.file_name(),
        });
        match next {
            Some(IndexTarget::File(f)) => {
                println!("    -> found file {f}\n");
                break;
            }
            Some(IndexTarget::Query(q)) => {
                println!("    -> user refines to {q}");
                current = q.clone();
            }
            None => {
                println!("    -> dead end (not indexed)");
                break;
            }
        }
        if step > 10 {
            break;
        }
    }

    // --- Scheme comparison on one automated search ----------------------
    println!("automated search for every article by {first} {last}:");
    let author_query: Query = QueryBuilder::new("article")
        .value("author/first", first)
        .value("author/last", last)
        .build();
    for (name, service) in &mut services {
        let report = service.search(&author_query)?;
        println!(
            "  {name:8} {} file(s), {} interactions",
            report.files.len(),
            report.interactions
        );
    }
    println!();

    // --- A non-indexed query recovers through generalization ------------
    let author_year: Query = QueryBuilder::new("article")
        .value("author/first", first)
        .value("author/last", last)
        .value("year", target.year.to_string())
        .build();
    let report = services[0].1.search(&author_year)?;
    println!("non-indexed query {author_year}");
    println!(
        "  recovered {} file(s) via generalization ({} extra lookup(s))",
        report.files.len(),
        report.generalization_steps
    );
    assert!(report.generalized());
    assert!(report.files.iter().any(|h| h.file == target.file_name()));

    Ok(())
}
