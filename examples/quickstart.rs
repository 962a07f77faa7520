//! Quickstart: the paper's running example (Figures 1-6) end to end.
//!
//! Publishes the three descriptors of Figure 1 into a small DHT, then
//! locates them through queries of decreasing specificity, printing the
//! index path the search walks — the same walk Figure 6 draws.
//!
//! Run with: `cargo run --example quickstart`

use p2p_index::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node peer-to-peer network. RingDht resolves keys to nodes the
    // same way Chord does, minus the routing hops.
    let dht = RingDht::with_named_nodes(64);
    let mut service = IndexService::new(dht, CachePolicy::Single);

    // The three articles of Figure 1.
    let articles = [
        ("x.pdf", "John", "Smith", "TCP", "SIGCOMM", "1989", "315635"),
        (
            "y.pdf", "John", "Smith", "IPv6", "INFOCOM", "1996", "312352",
        ),
        (
            "z.pdf", "Alan", "Doe", "Wavelets", "INFOCOM", "1996", "259827",
        ),
    ];
    for (file, first, last, title, conf, year, size) in articles {
        let descriptor = Descriptor::parse(&format!(
            "<article><author><first>{first}</first><last>{last}</last></author>\
             <title>{title}</title><conf>{conf}</conf><year>{year}</year><size>{size}</size></article>"
        ))?;
        let msd = service.publish(&descriptor, file, &SimpleScheme)?;
        println!("published {file} under MSD {msd}");
    }
    println!();

    // The queries of Figure 2, from most to least specific.
    for text in [
        "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]",
        "/article[author[first/John][last/Smith]][conf/INFOCOM]", // q2: not indexed!
        "/article/author[first/John][last/Smith]",                // q3
        "/article/title/TCP",                                     // q4
        "/article/conf/INFOCOM",                                  // q5
    ] {
        let query: Query = text.parse()?;
        let report = service.search(&query)?;
        println!("query  {query}");
        println!(
            "  -> {} file(s) in {} interaction(s){}",
            report.files.len(),
            report.interactions,
            if report.generalized() {
                " (recovered via generalization)"
            } else {
                ""
            }
        );
        for hit in &report.files {
            println!("     {}", hit.file);
        }
        println!();
    }

    // Queries can also be built programmatically, with comparisons.
    let nineties = QueryBuilder::new("article")
        .compare("year", CmpOp::StartsWith, "199")
        .build();
    println!("prefix query {nineties} covers IPv6's MSD: it matches both 1996 papers");
    let d = Descriptor::parse(
        "<article><author><first>John</first><last>Smith</last></author>\
         <title>IPv6</title><conf>INFOCOM</conf><year>1996</year><size>312352</size></article>",
    )?;
    assert!(nineties.covers(&Query::most_specific(&d)));

    Ok(())
}
