//! Two writers on one index: a publish and a concurrent unpublish.
//!
//! `IndexService::unpublish` removes an edge `(from ; to)` once it reads
//! `h(to)` empty: a check on one key, then an act on another. A second
//! writer's publish whose put at `h(to)` has not landed yet reads as empty
//! there, so the cascade cuts the edges above it, and the late put then
//! lands under a query that no index path leads to any more. This
//! reproduces it on one ring, the ops of both writers issued in the order
//! a slow member would deliver them, and then tries every such order.

use bytes::Bytes;
use p2p_index_core::scheme::CONF_YEAR;
use p2p_index_core::{
    BiblioFields, CachePolicy, ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, IndexService,
    IndexTarget, SimpleScheme,
};
use p2p_index_dht::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId, RingDht};
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
    let conf_year = BiblioFields::of(&b).query(CONF_YEAR, None).unwrap();
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

/// A ring on which a writer's puts at some keys are slow: while `hold`
/// names keys, a put at one of them is acknowledged but kept back. Once
/// [`Slow::count`] arms it, every call — one op or one wave — is counted,
/// and before call `slot` every kept-back put scheduled for `slot` lands.
#[derive(Debug, Clone)]
struct Slow {
    ring: RingDht,
    hold: Vec<Key>,
    held: Vec<DhtOp>,
    /// The slot each held put lands at, once counting.
    slots: Vec<usize>,
    /// Calls counted so far; `None` until armed.
    calls: Option<usize>,
}

impl Slow {
    fn new() -> Self {
        Slow {
            ring: RingDht::with_named_nodes(16),
            hold: Vec::new(),
            held: Vec::new(),
            slots: Vec::new(),
            calls: None,
        }
    }

    /// Starts counting calls, with held put `i` landing before call
    /// `slots[i]` (or after the last call, if there are fewer).
    fn count(&mut self, slots: &[usize]) {
        self.hold.clear();
        self.slots = slots.to_vec();
        self.calls = Some(0);
    }

    /// Lands every held put whose slot `due` accepts, in hold order.
    fn land(&mut self, due: impl Fn(usize) -> bool) {
        for (op, slot) in self.held.iter().zip(&self.slots) {
            if due(*slot) {
                self.ring.execute(op.clone()).expect("a ring put lands");
            }
        }
    }

    /// Stops counting and lands what is still held; returns the calls
    /// counted.
    fn settle(&mut self) -> usize {
        let calls = self.calls.take().expect("armed");
        self.land(|slot| slot >= calls);
        calls
    }

    fn call(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        if let Some(calls) = self.calls.as_mut() {
            let now = *calls;
            *calls += 1;
            self.land(|slot| slot == now);
        }
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            results.push(match op {
                DhtOp::Put { key, .. } if self.hold.contains(&key) => {
                    self.held.push(op);
                    Ok(DhtResponse::Stored(true))
                }
                op => self.ring.execute(op),
            });
        }
        results
    }
}

impl Dht for Slow {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.call(vec![op]).pop().expect("one result per op")
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        self.call(ops)
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.ring.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.ring.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.ring.get(key)
    }

    fn stats(&self) -> DhtStats {
        self.ring.stats()
    }
}

/// Every assignment of `held` puts to slots `0..=last`, as one list of
/// slots per order.
fn orders(held: usize, last: usize) -> Vec<Vec<usize>> {
    let mut all = vec![Vec::new()];
    for _ in 0..held {
        let longer = all.iter().flat_map(|order: &Vec<usize>| {
            (0..=last).map(move |slot| [&order[..], &[slot]].concat())
        });
        all = longer.collect();
    }
    all
}

#[test]
#[ignore = "two-writer cascade: ROADMAP item 14"]
fn a_publish_that_races_an_unpublish_stays_reachable_in_every_order() {
    // A and B share their conference and year. B publishes with each of
    // its puts at a key of A's edges slow; A unpublishes; each slow put
    // lands before one of the unpublish's calls (the file remove, each
    // read wave, each remove wave) or after the last, every combination
    // tried. Once all has landed, B must be found by every query its
    // scheme indexes it under.
    let a = sigcomm_1989("Alan", "Doe", "Wavelets");
    let b = sigcomm_1989("John", "Smith", "TCP");
    let schemes: [&dyn IndexScheme; 4] = [&SimpleScheme, &ComplexScheme, &FlatScheme, &Fig4Scheme];
    let (mut report, mut lost) = (Vec::new(), 0);
    for scheme in schemes {
        let msd_a = Query::most_specific(&a);
        let msd_b = Query::most_specific(&b);
        let edges_a = scheme.index_edges(&a, &msd_a);
        let mut published = IndexService::new(Slow::new(), CachePolicy::None);
        published.publish(&a, "a.pdf", scheme).unwrap();
        let keys = edges_a.iter().flat_map(|(from, to)| [from, to]);
        published.dht_mut().hold = keys.map(IndexService::<Slow>::key_of).collect();
        published.publish(&b, "b.pdf", scheme).unwrap();
        let setup = published.dht().clone();

        // One run: B's slow puts land at `slots`. Returns whether every
        // query B is indexed under still finds it, and the calls counted.
        let run = |slots: &[usize]| {
            let mut dht = setup.clone();
            dht.count(slots);
            let mut service = IndexService::new(dht, CachePolicy::None);
            service.unpublish(&a, "a.pdf", scheme).unwrap();
            let calls = service.dht_mut().settle();
            let edges_b = scheme.index_edges(&b, &msd_b);
            let indexed = edges_b.into_iter().map(|(from, _)| from);
            let found = indexed.chain([msd_b.clone()]).all(|query| {
                let report = service.search(&query).unwrap();
                report.files.iter().any(|hit| hit.file == "b.pdf")
            });
            (found, calls)
        };
        let held = setup.held.len();
        assert!(held > 0, "{}: B writes no key of A's edges", scheme.name());
        let last = [0, usize::MAX].map(|slot| run(&vec![slot; held]).1);
        let tried = orders(held, last[0].max(last[1]));
        let failed = tried.iter().filter(|slots| !run(slots).0).count();
        let name = scheme.name();
        report.push(format!("{name}: {failed} of {} orders lose B", tried.len()));
        lost += failed;
    }
    assert_eq!(lost, 0, "{}", report.join("; "));
}
