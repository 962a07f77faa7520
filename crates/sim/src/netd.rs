//! Networked-cluster control for the `repro` binary.
//!
//! Two entry points, both built on `crates/net`:
//!
//! * [`serve`] — the `repro serve` daemon: run one `dhtd` node serving
//!   its partition store on a TCP port. Prints
//!   `DHTD LISTENING <addr>` on stdout once bound (the multi-process
//!   harness parses that line to learn ephemeral ports), then blocks
//!   until a wire shutdown frame arrives.
//! * [`net_demo`] — the `repro net-demo` client: point an
//!   `IndexService<RemoteDht>` at a running cluster, publish a
//!   deterministic corpus, drive a query workload, and report the same
//!   metrics the in-process simulation reports.

use std::net::SocketAddr;
use std::time::Duration;

use p2p_index_core::{CachePolicy, IndexService, RetryPolicy, SimpleScheme};
use p2p_index_dht::{Dht, DhtStats, FaultConfig, Key, NodeId};
use p2p_index_net::{DhtServer, RemoteDht, RemoteDhtConfig, ReplicationConfig, ServerConfig};
use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, StructureMix};

/// Options for the `repro serve` daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port to bind on loopback (0 = ephemeral, reported on stdout).
    pub port: u16,
    /// The node's name; its identifier is `hash(name)`. The standard
    /// cluster convention is `node-0..n-1`, matching
    /// `RingDht::with_named_nodes`.
    pub node_name: String,
    /// Message-loss probability injected in front of the store (0 = none).
    pub loss: f64,
    /// Seed for the fault injector, when `loss > 0`.
    pub fault_seed: u64,
    /// Replication factor R; together with a non-empty `peers` list this
    /// makes the daemon a member of a replicated cluster. `1` (the
    /// default) serves a plain unreplicated partition.
    pub replicas: usize,
    /// Write quorum W (local apply counts as one ack).
    pub write_quorum: usize,
    /// Full cluster membership as `(node name, address)` pairs, self
    /// included — every daemon gets the same list, which is what keeps
    /// client routing, fan-out, and repair on one shared placement ring.
    pub peers: Vec<(String, SocketAddr)>,
    /// Anti-entropy repair interval in milliseconds (0 disables).
    pub repair_ms: u64,
    /// Key-hash shard count of the partition store (`1` = one lock, the
    /// contention baseline).
    pub shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            node_name: "node-0".to_string(),
            loss: 0.0,
            fault_seed: 0,
            replicas: 1,
            write_quorum: 1,
            peers: Vec::new(),
            repair_ms: 200,
            shards: ServerConfig::default().shards,
        }
    }
}

/// Options for the `repro net-demo` client.
#[derive(Debug, Clone)]
pub struct NetDemoOptions {
    /// `host:port` addresses in node order: the `i`-th serves `node-i`.
    pub members: Vec<SocketAddr>,
    /// Articles published before the queries run.
    pub articles: usize,
    /// Workload queries run.
    pub queries: usize,
    /// Seed of the corpus, the query stream and the retry jitter.
    pub seed: u64,
    /// Replication factor R; must match the cluster's serve flags.
    pub replicas: usize,
    /// Read quorum RQ; `1` for an unreplicated cluster.
    pub read_quorum: usize,
    /// Send every member a wire shutdown frame after the run — handy for
    /// tearing down a quickstart cluster.
    pub shutdown: bool,
}

impl Default for NetDemoOptions {
    fn default() -> Self {
        NetDemoOptions {
            members: Vec::new(),
            articles: 60,
            queries: 40,
            seed: 42,
            replicas: 1,
            read_quorum: 1,
            shutdown: false,
        }
    }
}

/// Runs one `dhtd` node until a wire shutdown frame arrives.
///
/// Prints exactly one `DHTD LISTENING <addr>` line on stdout once the
/// listener is bound; everything else goes to stderr. Returns only after
/// graceful shutdown.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    use std::io::Write;
    let replication = if opts.replicas > 1 {
        // `--peers` names every member, this one included: a member off
        // its own ring would fan every write out to all R replicas and
        // store keys no client ever routes to it.
        if !opts.peers.iter().any(|(name, _)| *name == opts.node_name) {
            let name = &opts.node_name;
            return Err(format!("--node-name {name:?}: not among --peers"));
        }
        let members: Vec<(Key, SocketAddr)> = opts
            .peers
            .iter()
            .map(|(name, addr)| (Key::hash_of(name), *addr))
            .collect();
        let mut config = ReplicationConfig::new(
            Key::hash_of(&opts.node_name),
            members,
            opts.replicas,
            opts.write_quorum,
        );
        config.repair_interval =
            (opts.repair_ms > 0).then(|| Duration::from_millis(opts.repair_ms));
        Some(config)
    } else {
        None
    };
    let config = ServerConfig {
        replication,
        shards: opts.shards,
        fault: FaultConfig::lossy(opts.fault_seed, opts.loss),
        ..ServerConfig::default()
    };
    let server = DhtServer::spawn_partition(
        NodeId::hash_of(&opts.node_name),
        ("127.0.0.1", opts.port),
        config,
    )
    .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
    let addr = server.local_addr();
    // The harness parses this exact line to learn the ephemeral port, so
    // flush it before blocking.
    println!("DHTD LISTENING {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!(
        "# dhtd: partition for {} ({}), loss {}, replicas {} (W={})",
        opts.node_name,
        NodeId::hash_of(&opts.node_name),
        opts.loss,
        opts.replicas,
        opts.write_quorum
    );
    server.wait();
    eprintln!("# dhtd: shutdown");
    Ok(())
}

/// Summary of one `net_demo` run, also used by tests to compare a remote
/// run against an in-process one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemoOutcome {
    /// Total files located across all queries.
    pub files_found: u64,
    /// Total user-system interactions across all queries.
    pub interactions: u64,
    /// Searches that returned no files.
    pub misses: u64,
    /// Final substrate stats: (messages, lookups).
    pub messages: u64,
    /// Lookups half of the substrate stats.
    pub lookups: u64,
}

/// Publishes `articles` deterministic articles and runs `queries`
/// workload queries through `dht`, with the retry budget the robustness
/// experiments use. This is the exact same workload whether `dht` is a
/// `RemoteDht` over a live cluster or an in-process substrate — which is
/// what makes remote-vs-local equality a meaningful check. It is
/// [`run_workload_with_churn`] with nobody killed, plus the substrate's
/// final stats.
pub fn run_workload<D: Dht>(
    dht: D,
    articles: usize,
    queries: usize,
    seed: u64,
) -> Result<DemoOutcome, String> {
    let (seen, stats) = publish_and_query(dht, articles, queries, seed, usize::MAX, |_| {})?;
    Ok(DemoOutcome {
        files_found: seen.files_found,
        interactions: seen.interactions,
        misses: seen.misses,
        messages: stats.messages,
        lookups: stats.lookups,
    })
}

/// Result-quality summary of a [`run_workload_with_churn`] run: what the
/// user saw, with the degraded-answer accounting
/// ([`abandoned`](ChurnOutcome::abandoned)) broken out. Message counts
/// are deliberately absent — a churned remote cluster pays failover
/// traffic an in-process twin does not, so equality claims under churn
/// are about *answers*, not wire cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Total files located across all queries.
    pub files_found: u64,
    /// Total user-system interactions across all queries.
    pub interactions: u64,
    /// Searches that returned no files.
    pub misses: u64,
    /// Index branches abandoned after the retry budget ran out, summed
    /// over every search's `SearchReport::completeness` — the degraded
    /// reporting a replicated cluster must keep at zero when one member
    /// dies.
    pub abandoned: u64,
}

/// [`run_workload`] with a mid-workload membership change: publishes the
/// corpus, runs the query workload, and invokes `kill` on the service
/// right before query `kill_at` fires. The closure gets the service so
/// in-process twins can reach the substrate
/// (`service.dht_mut().kill(..)`); multi-process harnesses ignore the
/// argument and SIGKILL a child instead.
///
/// Any search returning `Err` aborts the run — "zero failed searches
/// under churn" is exactly `Ok(outcome)` from this function.
pub fn run_workload_with_churn<D: Dht>(
    dht: D,
    articles: usize,
    queries: usize,
    seed: u64,
    kill_at: usize,
    kill: impl FnMut(&mut IndexService<D>),
) -> Result<ChurnOutcome, String> {
    publish_and_query(dht, articles, queries, seed, kill_at, kill).map(|(seen, _)| seen)
}

/// The one publish-and-query loop: what the user saw, and the substrate's
/// stats once the last query is answered.
fn publish_and_query<D: Dht>(
    dht: D,
    articles: usize,
    queries: usize,
    seed: u64,
    kill_at: usize,
    mut kill: impl FnMut(&mut IndexService<D>),
) -> Result<(ChurnOutcome, DhtStats), String> {
    let corpus = Corpus::generate(CorpusConfig {
        articles,
        author_pool: (articles / 3).max(8),
        seed,
        ..CorpusConfig::default()
    });
    let mut service =
        IndexService::with_retry(dht, CachePolicy::Multi, RetryPolicy::with_budget(seed, 4));
    for article in corpus.articles() {
        service
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .map_err(|e| format!("publish failed: {e}"))?;
    }
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), seed);
    let mut outcome = ChurnOutcome::default();
    for (i, item) in generator.take_queries(queries).into_iter().enumerate() {
        if i == kill_at {
            kill(&mut service);
        }
        let report = service
            .search(&item.query)
            .map_err(|e| format!("search {} failed: {e}", item.query))?;
        outcome.files_found += report.files.len() as u64;
        outcome.interactions += u64::from(report.interactions);
        outcome.abandoned += u64::from(report.completeness.abandoned);
        if report.files.is_empty() {
            outcome.misses += 1;
        }
    }
    Ok((outcome, service.dht().stats()))
}

/// The `repro net-demo` client: run [`run_workload`] over a live cluster.
pub fn net_demo(opts: &NetDemoOptions) -> Result<(), String> {
    let NetDemoOptions {
        ref members,
        articles,
        queries,
        seed,
        replicas,
        read_quorum,
        shutdown,
    } = *opts;
    let client_config = RemoteDhtConfig {
        replicas,
        read_quorum,
        ..RemoteDhtConfig::default()
    };
    let connect = || RemoteDht::connect(RemoteDht::named_members(members), client_config.clone());
    eprintln!(
        "# net-demo: {} member(s), {articles} articles, {queries} queries, seed {seed}, \
         replicas {replicas} (Rq={read_quorum})",
        members.len()
    );
    // Keep a second client for teardown: run_workload consumes the first.
    let closer = shutdown.then(connect);
    let outcome = run_workload(connect(), articles, queries, seed)?;
    println!(
        "queries {queries}: {} file(s) found, {} misses, {} interactions, \
         {} DHT messages, {} lookups",
        outcome.files_found,
        outcome.misses,
        outcome.interactions,
        outcome.messages,
        outcome.lookups
    );
    if let Some(closer) = closer {
        closer.shutdown_members();
        eprintln!("# net-demo: sent shutdown to {} member(s)", members.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_dht::{DhtOp, RingDht};
    use p2p_index_net::LoopbackCluster;
    use p2p_index_obs::MetricsRegistry;

    #[test]
    fn serve_refuses_a_member_that_is_not_on_its_own_ring() {
        // Rejected before anything is bound: `serve` returns at once.
        let peer = |name: &str| (name.to_string(), "127.0.0.1:1".parse().unwrap());
        let mut opts = ServeOptions {
            node_name: "node-9".to_string(),
            replicas: 2,
            peers: vec![peer("node-0"), peer("node-1")],
            ..ServeOptions::default()
        };
        let off_ring = "--node-name \"node-9\": not among --peers";
        assert_eq!(serve(&opts), Err(off_ring.to_string()));
        // No `--peers` at all names nobody, this member included.
        opts.peers.clear();
        assert_eq!(serve(&opts), Err(off_ring.to_string()));
    }

    #[test]
    fn net_demo_shutdown_stops_every_member() {
        let cluster = LoopbackCluster::start_ring(3).expect("loopback cluster binds");
        let members = cluster.members().iter().map(|&(_, addr)| addr).collect();
        let demo = NetDemoOptions {
            members,
            shutdown: true,
            ..NetDemoOptions::default()
        };
        assert_eq!(net_demo(&demo), Ok(()));
        // Nothing but the demo's shutdown frames stops the members, so a
        // lost frame would hang `wait`: fail on a clock instead.
        let (done, stopped) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            cluster.wait();
            done.send(()).expect("the test is still listening");
        });
        stopped
            .recv_timeout(Duration::from_secs(30))
            .expect("every member's wait returns");
        waiter.join().expect("the waiting thread does not panic");
    }

    #[test]
    fn remote_workload_equals_in_process_workload() {
        // The core promise, at sim scale: same corpus, same queries, same
        // seed -> byte-equal outcomes and message accounting whether the
        // substrate is a TCP cluster or in-process.
        let cluster = LoopbackCluster::start_ring(4).expect("loopback cluster binds");
        let remote = run_workload(cluster.client(), 24, 16, 9).expect("remote workload");
        let local = run_workload(RingDht::with_named_nodes(4), 24, 16, 9).expect("local workload");
        assert_eq!(remote, local);
        cluster.shutdown();
    }

    #[test]
    fn batched_fanout_costs_one_frame_pair_per_member() {
        // A k-child fan-out is 2·k frames unary, but at most one frame
        // pair per routed member batched — independent of k.
        const K: usize = 8;
        let cluster = LoopbackCluster::start_ring(4).expect("loopback cluster binds");
        let metrics = MetricsRegistry::new();
        let mut client = cluster.client();
        client.set_metrics(metrics.clone());
        let frames = || metrics.counter("net.frames_out") + metrics.counter("net.frames_in");
        let keys: Vec<Key> = (0..K)
            .map(|i| Key::hash_of(&format!("fanout-{i}")))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            let value = bytes::Bytes::from(format!("payload-{i}"));
            client
                .execute(DhtOp::Put { key: *key, value })
                .expect("seed put on live loopback");
        }

        let seeded = frames();
        for key in &keys {
            client.execute(DhtOp::Get(*key)).expect("unary get");
        }
        let unary = frames() - seeded;
        for result in client.execute_many(keys.iter().map(|key| DhtOp::Get(*key)).collect()) {
            result.expect("batched get");
        }
        let batched = frames() - seeded - unary;
        cluster.shutdown();

        assert_eq!(unary, 2 * K as u64, "unary: 2 frames per child");
        assert!(
            batched <= 2 * 4,
            "batched: at most one frame pair per member over 4 members, got {batched}"
        );
        assert!(batched < unary);
    }
}
