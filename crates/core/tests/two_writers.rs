//! Two writers on one index: a publish and a concurrent unpublish.
//!
//! `IndexService::unpublish` removes an edge `(from ; to)` once it reads
//! `h(to)` empty: a check on one key, then an act on another. A second
//! writer's publish whose put at `h(to)` has not landed yet reads as empty
//! there, so the cascade cuts the edges above it, and the late put then
//! lands under a query that no index path leads to any more. This
//! reproduces it on one ring, the ops of both writers issued in the order
//! a slow member would deliver them.

use p2p_index_core::{BiblioFields, CachePolicy, IndexService, IndexTarget, SimpleScheme};
use p2p_index_dht::{Dht, DhtOp, RingDht};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

fn sigcomm_1989(first: &str, last: &str, title: &str) -> Descriptor {
    Descriptor::parse(&format!(
        "<article><author><first>{first}</first><last>{last}</last></author>\
         <title>{title}</title><conf>SIGCOMM</conf><year>1989</year></article>"
    ))
    .expect("the test descriptor parses")
}

#[test]
#[ignore = "two-writer cascade: ROADMAP item 14"]
fn a_publish_that_races_an_unpublish_stays_reachable() {
    let a = sigcomm_1989("Alan", "Doe", "Wavelets");
    let b = sigcomm_1989("John", "Smith", "TCP");
    let mut service = IndexService::new(RingDht::with_named_nodes(16), CachePolicy::None);

    // 1. A is the only SIGCOMM 1989 article.
    service.publish(&a, "a.pdf", &SimpleScheme).unwrap();

    // 2. B's publish lands whole but for its put at h(conf+year), which a
    //    slow member or a retried loss holds back.
    let msd_b = service.publish(&b, "b.pdf", &SimpleScheme).unwrap();
    let conf_year = BiblioFields::of(&b).conf_year_query().unwrap();
    let key = IndexService::<RingDht>::key_of(&conf_year);
    let value = IndexTarget::Query(msd_b).to_bytes();
    let held_back = DhtOp::Remove {
        key,
        value: value.clone(),
    };
    service.dht_mut().execute(held_back).unwrap();

    // 3. A is unpublished; its cascade reads h(conf+year) empty.
    service.unpublish(&a, "a.pdf", &SimpleScheme).unwrap();

    // 4. B's held-back put lands. B's publish has returned `Ok`.
    service
        .dht_mut()
        .execute(DhtOp::Put { key, value })
        .unwrap();

    let conf: Query = "/article/conf/SIGCOMM".parse().unwrap();
    let year: Query = "/article/year/1989".parse().unwrap();
    for query in [conf_year, conf, year] {
        let report = service.search(&query).unwrap();
        assert!(
            report.files.iter().any(|hit| hit.file == "b.pdf"),
            "{query} no longer finds B: {:?}",
            report.files
        );
    }
}
