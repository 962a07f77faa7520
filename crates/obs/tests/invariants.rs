//! Cross-layer observability invariants.
//!
//! The metrics registry is only trustworthy if it *structurally mirrors*
//! the accounting the instrumented layers already keep for themselves.
//! This suite closes that loop: for every DHT substrate (ring, Chord, the
//! sharded store, a loopback TCP cluster) × cache policy it publishes a
//! corpus, attaches a registry, drives traced searches and manual
//! interactive lookups, and then asserts equalities between the
//! registry's counters and the independent sources of truth —
//!
//! * `dht.messages` / `dht.lookups` / `dht.hops` == the substrate's own
//!   [`DhtStats`](p2p_index_dht::DhtStats) deltas, whoever the substrate
//!   is: `IndexService` meters every call it issues, once;
//! * trace `lookup` span counts == [`SearchReport::interactions`];
//! * `index.cache_probe.hit + index.cache_probe.miss` == cached-mode
//!   lookup totals, and `cache.get.hit` == the probe hits;
//! * `retry.*` == [`RetryStats`](p2p_index_core::RetryStats) deltas, and
//!   `fault.*` == [`FaultyDht::fault_stats`] — including under injected
//!   faults with a live retry policy, where every attempt is one
//!   `dht.ops` and every lost message one `dht.errors`.
//!
//! Everything here is deterministic (seeded RNGs, no clocks), so each
//! case also doubles as a byte-equality check: two identical runs must
//! produce identical snapshots.

use p2p_index_core::{CachePolicy, IndexService, IndexTarget, RetryPolicy, SimpleScheme};
use p2p_index_dht::{ChordNetwork, Dht, FaultConfig, FaultyDht, Key, NodeId, RingDht, ShardedDht};
use p2p_index_net::{ClusterDht, LoopbackCluster, RemoteDhtConfig};
use p2p_index_obs::{MetricsRegistry, MetricsSnapshot};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

fn keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
}

fn policies() -> [CachePolicy; 4] {
    [
        CachePolicy::None,
        CachePolicy::Multi,
        CachePolicy::Single,
        CachePolicy::Lru(2),
    ]
}

/// A small bibliographic corpus with shared surnames, conferences, and
/// years, so chain lookups (`year -> conf+year -> MSD -> file`) have
/// real fan-out.
fn corpus() -> Vec<(Descriptor, String)> {
    let rows = [
        ("John", "Smith", "TCP", "SIGCOMM", "1989"),
        ("Jane", "Smith", "Indexing", "ICDCS", "2004"),
        ("Ada", "Lovelace", "Notes", "LMS", "1843"),
        ("Alan", "Turing", "Machines", "LMS", "1936"),
        ("Paul", "Baran", "Packets", "SIGCOMM", "1989"),
        ("Grace", "Hopper", "Compilers", "ICDCS", "2004"),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, (first, last, title, conf, year))| {
            let xml = format!(
                "<article><author><first>{first}</first><last>{last}</last></author>\
                 <title>{title}</title><conf>{conf}</conf><year>{year}</year></article>"
            );
            (
                Descriptor::parse(&xml).expect("corpus XML parses"),
                format!("file-{i}.pdf"),
            )
        })
        .collect()
}

fn parse(q: &str) -> Query {
    q.parse().expect("test query parses")
}

/// Queries driven through `search`: indexed entry points at several
/// levels plus one non-indexed query that exercises generalization.
fn search_queries() -> Vec<Query> {
    vec![
        parse("/article/author[first/John][last/Smith]"),
        parse("/article/title/Notes"),
        parse("/article/conf/SIGCOMM"),
        parse("/article/year/2004"),
        parse("/article/author/last/Smith"),
    ]
}

/// Queries driven through the *interactive* path (`lookup_step` +
/// `create_shortcuts`): three-level chains so shortcut installation and
/// subsequent probe hits are guaranteed under every caching policy.
fn interactive_queries() -> Vec<Query> {
    vec![parse("/article/year/1989"), parse("/article/conf/ICDCS")]
}

/// Runs the full invariant scenario for one `(substrate, policy)` cell
/// and returns the registry snapshot (so callers can also compare two
/// identical runs byte for byte).
fn run_case<D: Dht>(name: &str, dht: D, policy: CachePolicy) -> MetricsSnapshot {
    let mut service = IndexService::new(dht, policy);
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish on a healthy network");
    }

    // Attach the registry only now: the snapshot then covers exactly the
    // query phase, and the substrate/retry equalities below are checked
    // against deltas over the same window.
    let stats_before = service.dht().stats();
    let retry_before = service.retry_stats();
    let registry = MetricsRegistry::new();
    service.set_metrics(registry.clone());

    // -- automated searches, each traced -------------------------------
    let queries = search_queries();
    let mut total_interactions = 0u64;
    let mut total_files = 0usize;
    for query in &queries {
        service.start_trace(format!("invariant {query}"));
        let report = service.search(query).expect("search on a healthy network");
        let trace = service.finish_trace().expect("trace was started");
        assert_eq!(
            trace.count_spans("lookup "),
            report.interactions as usize,
            "{name}/{policy}: every interaction must open exactly one lookup span ({query})"
        );
        total_interactions += u64::from(report.interactions);
        total_files += report.files.len();
    }
    assert!(
        total_files > 0,
        "{name}/{policy}: the corpus queries must locate files"
    );

    // -- interactive lookups: probe caches, install shortcuts ----------
    // Two passes per query: the first walks the index chain and installs
    // shortcuts per the policy; the second probes them (and must hit on
    // the first node whenever the policy caches at all).
    let mut cached_lookups = 0u64;
    for query in &interactive_queries() {
        for _pass in 0..2 {
            let mut path: Vec<(p2p_index_dht::NodeId, Query)> = Vec::new();
            let mut current = query.clone();
            for _ in 0..8 {
                let resp = service
                    .lookup_step(&current)
                    .expect("lookup on a healthy network");
                cached_lookups += 1;
                let node = resp.node.expect("healthy lookups name a node");
                path.push((node, current.clone()));
                let next = resp.all_targets().find_map(|t| match t {
                    IndexTarget::Query(q) => Some(q.clone()),
                    IndexTarget::File(_) => None,
                });
                match next {
                    Some(q) if q != current => current = q,
                    _ => break,
                }
            }
            service.create_shortcuts(&path, &IndexTarget::Query(current));
        }
    }

    // -- the invariants -------------------------------------------------
    let snap = registry.snapshot();
    let stats = service.dht().stats();
    assert_eq!(
        snap.counter("dht.messages"),
        stats.messages - stats_before.messages,
        "{name}/{policy}: registry messages must equal the substrate's own delta"
    );
    assert_eq!(
        snap.counter("dht.lookups"),
        stats.lookups - stats_before.lookups,
        "{name}/{policy}: lookups"
    );
    assert_eq!(
        snap.counter("dht.hops"),
        stats.hops - stats_before.hops,
        "{name}/{policy}: hops"
    );

    let retry = service.retry_stats();
    assert_eq!(
        snap.counter("retry.attempts"),
        retry.attempts - retry_before.attempts,
        "{name}/{policy}: retry attempts"
    );
    assert_eq!(snap.counter("retry.retries"), 0, "{name}/{policy}: healthy");
    assert_eq!(snap.counter("retry.gave_up"), 0, "{name}/{policy}");

    assert_eq!(
        snap.counter("index.searches"),
        queries.len() as u64,
        "{name}/{policy}"
    );
    assert_eq!(
        snap.counter("index.search.interactions"),
        total_interactions,
        "{name}/{policy}: interaction counter must match SearchReport totals"
    );
    let (hname, hist) = snap
        .histograms()
        .iter()
        .find(|(n, _)| n == "search.interactions_per_query")
        .expect("interaction histogram recorded");
    assert_eq!(
        hist.count(),
        queries.len() as u64,
        "{name}/{policy}: {hname}"
    );
    assert_eq!(hist.sum(), total_interactions, "{name}/{policy}: {hname}");

    // Cache probes: every cached-mode lookup probes exactly once, and a
    // probe is a hit iff the node's ShortcutCache answered.
    assert_eq!(
        snap.counter("index.lookups.cached"),
        cached_lookups,
        "{name}/{policy}"
    );
    assert_eq!(
        snap.counter("index.cache_probe.hit") + snap.counter("index.cache_probe.miss"),
        cached_lookups,
        "{name}/{policy}: probe hit + miss must equal cached-mode lookups"
    );
    assert_eq!(
        snap.counter("cache.get.hit"),
        snap.counter("index.cache_probe.hit"),
        "{name}/{policy}: every probe hit is a ShortcutCache hit"
    );
    assert!(
        snap.counter("cache.get.hit") + snap.counter("cache.get.miss") <= cached_lookups,
        "{name}/{policy}: nodes without a cache never reach ShortcutCache::get"
    );
    if policy.caches() {
        assert!(
            snap.counter("cache.insert.created") > 0,
            "{name}/{policy}: interactive passes must install shortcuts"
        );
        assert!(
            snap.counter("index.cache_probe.hit") > 0,
            "{name}/{policy}: the second pass must hit the installed shortcut"
        );
    } else {
        assert_eq!(snap.counter("cache.insert.created"), 0, "{name}/{policy}");
        assert_eq!(snap.counter("cache.get.hit"), 0, "{name}/{policy}");
        assert_eq!(snap.counter("cache.get.miss"), 0, "{name}/{policy}");
        assert_eq!(snap.counter("index.cache_probe.hit"), 0, "{name}/{policy}");
    }

    // Searches bypass caches by design; the bypass counter must cover
    // every search interaction and nothing else.
    assert_eq!(
        snap.counter("index.lookups.bypass"),
        total_interactions,
        "{name}/{policy}: search lookups all run in bypass mode"
    );

    snap
}

#[test]
fn registry_mirrors_every_substrate_and_policy() {
    for policy in policies() {
        run_case("ring", RingDht::from_ids(keys(16)), policy);
        run_case("chord", ChordNetwork::with_perfect_tables(keys(16)), policy);
        run_case(
            "sharded",
            ShardedDht::with_default_shards(NodeId::hash_of("node-0")),
            policy,
        );
        let cluster = LoopbackCluster::start_ring(4).expect("loopback cluster starts");
        run_case(
            "cluster",
            ClusterDht::new(cluster, RemoteDhtConfig::default()),
            policy,
        );
    }
}

#[test]
fn identical_runs_produce_identical_snapshots() {
    for policy in [CachePolicy::None, CachePolicy::Lru(2)] {
        let a = run_case("chord", ChordNetwork::with_perfect_tables(keys(16)), policy);
        let b = run_case("chord", ChordNetwork::with_perfect_tables(keys(16)), policy);
        assert_eq!(a, b, "{policy}: snapshots must be deterministic");
        assert_eq!(a.to_json(), b.to_json(), "{policy}");
        assert_eq!(a.to_csv(), b.to_csv(), "{policy}");
    }
}

/// Under injected faults with a live retry policy, the registry must
/// still mirror all three independent accountings: the fault injector's,
/// the retry machinery's, and the wrapped substrate's.
fn run_faulty_case<D: Dht>(name: &str, inner: D) {
    let faulty = FaultyDht::new(inner, FaultConfig::lossy(11, 0.2));
    let mut service =
        IndexService::with_retry(faulty, CachePolicy::Single, RetryPolicy::with_budget(5, 8));
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish survives 20% loss under an 8-attempt budget");
    }

    let stats_before = service.dht().stats();
    let fault_before = service.dht().fault_stats();
    let retry_before = service.retry_stats();
    let registry = MetricsRegistry::new();
    service.set_metrics(registry.clone());

    for query in &search_queries() {
        // Branches may be abandoned under loss; the report stays honest
        // about it and the invariants must hold regardless.
        let report = service.search(query).expect("search itself cannot fail");
        assert!(
            report.completeness.attempts >= report.completeness.retries,
            "{name}: retries are a subset of attempts"
        );
    }

    let snap = registry.snapshot();
    let fstats = service.dht().fault_stats();
    assert!(
        fstats.injected() > fault_before.injected(),
        "{name}: 20% loss must inject faults during the query phase"
    );
    assert_eq!(
        snap.counter("fault.attempts"),
        fstats.attempts - fault_before.attempts,
        "{name}"
    );
    assert_eq!(
        snap.counter("fault.requests_lost"),
        fstats.requests_lost - fault_before.requests_lost,
        "{name}"
    );
    assert_eq!(
        snap.counter("fault.responses_lost"),
        fstats.responses_lost - fault_before.responses_lost,
        "{name}"
    );

    let retry = service.retry_stats();
    assert!(
        retry.retries > retry_before.retries,
        "{name}: the retry path must actually run"
    );
    assert_eq!(
        snap.counter("retry.attempts"),
        retry.attempts - retry_before.attempts,
        "{name}"
    );
    assert_eq!(
        snap.counter("retry.retries"),
        retry.retries - retry_before.retries,
        "{name}"
    );
    assert_eq!(
        snap.counter("retry.backoff_ms"),
        retry.backoff_ms - retry_before.backoff_ms,
        "{name}"
    );
    assert_eq!(
        snap.counter("retry.gave_up"),
        retry.gave_up - retry_before.gave_up,
        "{name}"
    );

    // The index layer meters what it issued: every attempt is one op,
    // whether or not its request survived, and every lost message is
    // one error.
    assert_eq!(
        snap.counter("dht.ops"),
        snap.counter("retry.attempts"),
        "{name}: one dht op per attempt"
    );
    assert_eq!(
        snap.counter("dht.ops"),
        snap.counter("fault.attempts"),
        "{name}: every attempt reaches the fault injector"
    );
    assert_eq!(
        snap.counter("dht.errors"),
        snap.counter("fault.requests_lost") + snap.counter("fault.responses_lost"),
        "{name}: every lost message is an error"
    );

    // The wrapped substrate only sees operations whose *request*
    // survived; the registry's dht.* work series must agree with it even
    // through the retry storm.
    let stats = service.dht().stats();
    assert_eq!(
        snap.counter("dht.messages"),
        stats.messages - stats_before.messages,
        "{name}: registry and substrate must agree under faults"
    );
}

#[test]
fn faulty_substrate_invariants_hold_with_retries() {
    run_faulty_case("ring", RingDht::from_ids(keys(16)));
    run_faulty_case("chord", ChordNetwork::with_perfect_tables(keys(16)));
}

/// Everything a recording trace must not perturb.
#[derive(Debug, PartialEq)]
struct LossyRun {
    /// Per query: files, interactions, generalization steps, abandoned.
    reports: Vec<(usize, u32, u32, u32)>,
    stats: p2p_index_dht::DhtStats,
    faults: p2p_index_dht::FaultStats,
    retries: p2p_index_core::RetryStats,
}

/// Runs the search set over a lossy ring with a retry budget, traced or
/// not.
fn searches_under_loss(traced: bool) -> LossyRun {
    let faulty = FaultyDht::new(RingDht::from_ids(keys(16)), FaultConfig::lossy(11, 0.2));
    let mut service =
        IndexService::with_retry(faulty, CachePolicy::Single, RetryPolicy::with_budget(5, 8));
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish survives 20% loss under an 8-attempt budget");
    }
    let mut reports = Vec::new();
    for query in &search_queries() {
        if traced {
            service.start_trace(format!("twin {query}"));
        }
        let report = service.search(query).expect("search itself cannot fail");
        if traced {
            let trace = service.finish_trace().expect("trace was started");
            assert_eq!(
                trace.count_spans("lookup "),
                report.interactions as usize,
                "one lookup span per interaction, abandoned branches included ({query})"
            );
            // Everything after the entry lookup rides batched waves, and
            // the trace says so instead of replaying them one by one.
            assert_eq!(
                trace.count_spans("wave: ") > 0,
                report.interactions > 1,
                "{query}"
            );
        }
        reports.push((
            report.files.len(),
            report.interactions,
            report.generalization_steps,
            report.completeness.abandoned,
        ));
    }
    LossyRun {
        reports,
        stats: service.dht().stats(),
        faults: service.dht().fault_stats(),
        retries: service.retry_stats(),
    }
}

#[test]
fn tracing_a_search_does_not_change_the_dht_work_it_issues() {
    // There is one search path: the traced run sends the same waves in
    // the same op order, so even the seeded fault schedule and the retry
    // tails line up with the untraced twin's.
    assert_eq!(searches_under_loss(true), searches_under_loss(false));
}
