//! Networked-cluster control for the `repro` binary.
//!
//! Three entry points, all built on `crates/net`:
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
//! * [`net_bench`] — loopback RPC micro-benchmarks for `repro bench`:
//!   ops/sec and p50/p99 latency for get and put at 1 and 8 client
//!   threads, median of 3 samples, emitted as the `net` section of
//!   `BENCH_results.json`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use p2p_index_core::{CachePolicy, IndexService, RetryPolicy, SimpleScheme};
use p2p_index_dht::{Dht, DhtOp, FaultConfig, Key, NodeId};
use p2p_index_net::{
    DhtServer, LoopbackCluster, RemoteDht, RemoteDhtConfig, ReplicationConfig, ServerConfig,
};
use p2p_index_obs::MetricsRegistry;
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

/// Runs one `dhtd` node until a wire shutdown frame arrives.
///
/// Prints exactly one `DHTD LISTENING <addr>` line on stdout once the
/// listener is bound; everything else goes to stderr. Returns only after
/// graceful shutdown.
pub fn serve(opts: &ServeOptions) -> Result<(), String> {
    use std::io::Write;
    let replication = if opts.replicas > 1 {
        if opts.peers.is_empty() {
            return Err("--replicas > 1 needs --peers NAME=HOST:PORT,...".to_string());
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
/// what makes remote-vs-local equality a meaningful check.
pub fn run_workload<D: Dht>(
    dht: D,
    articles: usize,
    queries: usize,
    seed: u64,
) -> Result<DemoOutcome, String> {
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
    let mut outcome = DemoOutcome {
        files_found: 0,
        interactions: 0,
        misses: 0,
        messages: 0,
        lookups: 0,
    };
    for item in generator.take_queries(queries) {
        let report = service
            .search(&item.query)
            .map_err(|e| format!("search {} failed: {e}", item.query))?;
        outcome.files_found += report.files.len() as u64;
        outcome.interactions += u64::from(report.interactions);
        if report.files.is_empty() {
            outcome.misses += 1;
        }
    }
    let stats = service.dht().stats();
    outcome.messages = stats.messages;
    outcome.lookups = stats.lookups;
    Ok(outcome)
}

/// Result-quality summary of a [`run_workload_with_churn`] run: what the
/// user saw, with the degraded-answer accounting
/// ([`abandoned`](ChurnOutcome::abandoned)) broken out. Message counts
/// are deliberately absent — a churned remote cluster pays failover
/// traffic an in-process twin does not, so equality claims under churn
/// are about *answers*, not wire cost.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    mut kill: impl FnMut(&mut IndexService<D>),
) -> Result<ChurnOutcome, String> {
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
    let mut outcome = ChurnOutcome {
        files_found: 0,
        interactions: 0,
        misses: 0,
        abandoned: 0,
    };
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
    Ok(outcome)
}

/// The `repro net-demo` client: run [`run_workload`] over a live cluster.
///
/// `members` are `host:port` addresses in node order (the `i`-th serves
/// `node-i`). `replicas`/`read_quorum` must match the cluster's serve
/// flags (`1`/`1` for an unreplicated cluster). With `shutdown` set,
/// every member is sent a wire shutdown frame after the run — handy for
/// tearing down a quickstart cluster.
pub fn net_demo(
    members: &[SocketAddr],
    articles: usize,
    queries: usize,
    seed: u64,
    replicas: usize,
    read_quorum: usize,
    shutdown: bool,
) -> Result<(), String> {
    let client_config = RemoteDhtConfig {
        replicas,
        read_quorum,
        ..RemoteDhtConfig::default()
    };
    let client = RemoteDht::connect(RemoteDht::named_members(members), client_config.clone());
    eprintln!(
        "# net-demo: {} member(s), {articles} articles, {queries} queries, seed {seed}, \
         replicas {replicas} (Rq={read_quorum})",
        members.len()
    );
    // Keep a second client for teardown: run_workload consumes the first.
    let closer = shutdown
        .then(|| RemoteDht::connect(RemoteDht::named_members(members), client_config.clone()));
    let outcome = run_workload(client, articles, queries, seed)?;
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

/// Latency percentile over a sorted slice of microsecond samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank definition: the smallest value with at least p percent
    // of the sample at or below it.
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// One measured cell of the net bench: `threads` clients hammering a
/// loopback server with `ops` operations each of one kind.
struct NetBenchCell {
    op: &'static str,
    threads: usize,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Runs one `(op, threads)` cell with clients from `make_client` and
/// returns the aggregate throughput plus latency percentiles.
fn net_bench_cell(
    make_client: &(dyn Fn() -> RemoteDht + Sync),
    op: &'static str,
    threads: usize,
) -> NetBenchCell {
    const OPS_PER_THREAD: usize = 300;
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = make_client();
                    let mut lats = Vec::with_capacity(OPS_PER_THREAD);
                    for i in 0..OPS_PER_THREAD {
                        let key = Key::hash_of(&format!("bench-{t}-{i}"));
                        // "mixed" is the paper's read-heavy shape: 90%
                        // gets, every 10th op a put.
                        let write = match op {
                            "put" => true,
                            "mixed" => i % 10 == 0,
                            _ => false,
                        };
                        let req = if write {
                            DhtOp::Put {
                                key,
                                value: bytes::Bytes::from(format!("value-{t}-{i}")),
                            }
                        } else {
                            DhtOp::Get(key)
                        };
                        let at = Instant::now();
                        client.execute(req).expect("bench op on live loopback");
                        lats.push(at.elapsed().as_micros() as u64);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    NetBenchCell {
        op,
        threads,
        ops_per_sec: latencies.len() as f64 / wall.max(1e-9),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
    }
}

/// Runs one `(op, threads)` cell 3 times and returns the median sample
/// by throughput.
fn median_cell(
    make_client: &(dyn Fn() -> RemoteDht + Sync),
    op: &'static str,
    threads: usize,
) -> NetBenchCell {
    let mut samples: Vec<NetBenchCell> = (0..3)
        .map(|_| net_bench_cell(make_client, op, threads))
        .collect();
    samples.sort_by(|a, b| {
        a.ops_per_sec
            .partial_cmp(&b.ops_per_sec)
            .expect("throughput is finite")
    });
    samples.remove(1)
}

/// One measured side of the fan-out bench: the frame count and latency
/// of fetching `k` keys, either one `execute` at a time or as a single
/// `execute_many` batch.
struct FanoutCell {
    frames_per_fanout: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Measures a k-key multi-get against `cluster` — the shape a search's
/// child fan-out takes — over a fresh metered client. Unary issues 2·k
/// frames per fan-out; batched issues one frame pair per routed member,
/// independent of k.
fn fanout_cell(cluster: &LoopbackCluster, k: usize, batched: bool) -> FanoutCell {
    const ROUNDS: usize = 60;
    let metrics = MetricsRegistry::new();
    let mut client = cluster.client();
    client.set_metrics(metrics.clone());
    let keys: Vec<Key> = (0..k)
        .map(|i| Key::hash_of(&format!("fanout-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        client
            .execute(DhtOp::Put {
                key: *key,
                value: bytes::Bytes::from(format!("payload-{i}")),
            })
            .expect("seed put on live loopback");
    }
    let seeded = metrics.counter("net.frames_out") + metrics.counter("net.frames_in");
    let mut lats = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let at = Instant::now();
        if batched {
            let ops: Vec<DhtOp> = keys.iter().map(|key| DhtOp::Get(*key)).collect();
            for result in client.execute_many(ops) {
                result.expect("bench get on live loopback");
            }
        } else {
            for key in &keys {
                client.execute(DhtOp::Get(*key)).expect("bench get");
            }
        }
        lats.push(at.elapsed().as_micros() as u64);
    }
    let frames = metrics.counter("net.frames_out") + metrics.counter("net.frames_in") - seeded;
    lats.sort_unstable();
    FanoutCell {
        frames_per_fanout: frames as f64 / ROUNDS as f64,
        p50_us: percentile(&lats, 50.0),
        p99_us: percentile(&lats, 99.0),
    }
}

/// The loopback RPC micro-benchmark: get and put at 1 and 8 client
/// threads against a single-node loopback server, plus a k-child
/// fan-out exhibit (unary vs batched multi-get) under the `batch` key
/// and a replicated-cluster exhibit (quorum reads and fan-out writes)
/// under the `quorum` key. Each throughput cell is sampled 3 times and
/// the median by throughput is reported. Returns the `net` JSON object
/// for `BENCH_results.json` (and prints a summary line per cell on
/// stderr), plus whether any sharded-sweep cell regressed below the
/// noise margin against its one-shard twin — the caller turns that
/// into a non-zero exit, same as the grid sweep's gate.
pub fn net_bench() -> (String, bool) {
    let cluster = LoopbackCluster::start_ring(1).expect("loopback bench cluster binds");
    let mut cells = Vec::new();
    for op in ["get", "put"] {
        for threads in [1usize, 8] {
            let median = median_cell(&|| cluster.client(), op, threads);
            eprintln!(
                "# net {op} x{threads}: {:.0} ops/s, p50 {} us, p99 {} us (median of 3)",
                median.ops_per_sec, median.p50_us, median.p99_us
            );
            cells.push(median);
        }
    }
    cluster.shutdown();

    // Shard-count thread sweep. The same store serves the same
    // partition twice — once at the default shard count, once at
    // `--shards 1` (one `RwLock` for the whole partition) — and get /
    // put / 90-10 mixed throughput is swept across client thread counts.
    // A cell regresses when the default falls below 0.75x the one-shard
    // twin ("locked" in the JSON) at more than one thread;
    // the margin absorbs loopback noise, and single-thread cells are
    // informational (there is no contention to win there, and one-core
    // hosts show parity by construction).
    const SWEEP_THREADS: [usize; 5] = [1, 2, 4, 8, 16];
    const SWEEP_MARGIN: f64 = 0.75;
    let shard_count = ServerConfig::default().shards;
    let sharded_cluster =
        LoopbackCluster::start_ring_sharded(1, shard_count).expect("sharded bench cluster binds");
    let locked_cluster =
        LoopbackCluster::start_ring_sharded(1, 1).expect("one-shard bench cluster binds");
    let mut sweep_rows = Vec::new();
    let mut regressed = false;
    for op in ["get", "put", "mixed"] {
        for threads in SWEEP_THREADS {
            let sharded = median_cell(&|| sharded_cluster.client(), op, threads);
            let locked = median_cell(&|| locked_cluster.client(), op, threads);
            let speedup = sharded.ops_per_sec / locked.ops_per_sec.max(1e-9);
            let cell_regressed = threads > 1 && speedup < SWEEP_MARGIN;
            regressed |= cell_regressed;
            eprintln!(
                "# net sharded {op} x{threads}: {:.0} ops/s sharded vs {:.0} ops/s locked \
                 ({speedup:.2}x){}",
                sharded.ops_per_sec,
                locked.ops_per_sec,
                if cell_regressed { " REGRESSED" } else { "" }
            );
            sweep_rows.push(format!(
                "{{ \"op\": \"{op}\", \"threads\": {threads}, \
                 \"sharded_ops_per_sec\": {:.1}, \"locked_ops_per_sec\": {:.1}, \
                 \"sharded_p50_us\": {}, \"locked_p50_us\": {}, \"speedup\": {speedup:.2} }}",
                sharded.ops_per_sec, locked.ops_per_sec, sharded.p50_us, locked.p50_us
            ));
        }
    }
    sharded_cluster.shutdown();
    locked_cluster.shutdown();

    // Quorum exhibit: the price of durability. A replicated 4-member
    // cluster (R=3, W=2, Rq=2): every put fans out server-side to two
    // more replicas, every get reads two replicas in parallel.
    const QUORUM_MEMBERS: usize = 4;
    const QUORUM_R: usize = 3;
    const QUORUM_W: usize = 2;
    const QUORUM_RQ: usize = 2;
    let q_cluster = LoopbackCluster::start_replicated_ring(QUORUM_MEMBERS, QUORUM_R, QUORUM_W)
        .expect("replicated bench cluster binds");
    let mut quorum_cells = Vec::new();
    for op in ["get", "put"] {
        let mut samples: Vec<NetBenchCell> = (0..3)
            .map(|_| net_bench_cell(&|| q_cluster.replicated_client(QUORUM_R, QUORUM_RQ), op, 1))
            .collect();
        samples.sort_by(|a, b| {
            a.ops_per_sec
                .partial_cmp(&b.ops_per_sec)
                .expect("throughput is finite")
        });
        let median = samples.remove(1);
        eprintln!(
            "# net quorum {op} (R={QUORUM_R} W={QUORUM_W} Rq={QUORUM_RQ}): \
             {:.0} ops/s, p50 {} us, p99 {} us (median of 3)",
            median.ops_per_sec, median.p50_us, median.p99_us
        );
        quorum_cells.push(median);
    }
    q_cluster.shutdown();

    // Fan-out exhibit: the k-child multi-get a search issues after
    // resolving an index node, unary vs batched, over a multi-member
    // ring so the batch actually splits across connections.
    const FANOUT_K: usize = 16;
    const FANOUT_MEMBERS: usize = 4;
    let fan_cluster =
        LoopbackCluster::start_ring(FANOUT_MEMBERS).expect("fan-out bench cluster binds");
    let unary = fanout_cell(&fan_cluster, FANOUT_K, false);
    let batch = fanout_cell(&fan_cluster, FANOUT_K, true);
    fan_cluster.shutdown();
    eprintln!(
        "# net fan-out k={FANOUT_K} over {FANOUT_MEMBERS} members: \
         unary {:.1} frames/fan-out (p50 {} us), batched {:.1} frames/fan-out (p50 {} us)",
        unary.frames_per_fanout, unary.p50_us, batch.frames_per_fanout, batch.p50_us
    );

    let body = cells
        .iter()
        .map(|c| {
            format!(
                "{{ \"op\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.1}, \
                 \"p50_us\": {}, \"p99_us\": {} }}",
                c.op, c.threads, c.ops_per_sec, c.p50_us, c.p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let fanout_json = |c: &FanoutCell| {
        format!(
            "{{ \"frames_per_fanout\": {:.1}, \"p50_us\": {}, \"p99_us\": {} }}",
            c.frames_per_fanout, c.p50_us, c.p99_us
        )
    };
    let quorum_body = quorum_cells
        .iter()
        .map(|c| {
            format!(
                "{{ \"op\": \"{}\", \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {} }}",
                c.op, c.ops_per_sec, c.p50_us, c.p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let sweep_body = sweep_rows.join(",\n      ");
    let json = format!(
        "{{ \"transport\": \"tcp-loopback\", \"samples\": 3, \"statistic\": \"median\", \
         \"cells\": [\n    {body}\n  ],\n  \"batch\": {{ \"k\": {FANOUT_K}, \
         \"members\": {FANOUT_MEMBERS}, \"unary\": {}, \"batched\": {} }},\n  \
         \"quorum\": {{ \"members\": {QUORUM_MEMBERS}, \"replicas\": {QUORUM_R}, \
         \"write_quorum\": {QUORUM_W}, \"read_quorum\": {QUORUM_RQ}, \
         \"cells\": [ {quorum_body} ] }},\n  \
         \"sharded\": {{ \"shards\": {shard_count}, \"margin\": {SWEEP_MARGIN}, \
         \"regressed\": {regressed}, \"cells\": [\n      {sweep_body}\n    ] }} }}",
        fanout_json(&unary),
        fanout_json(&batch)
    );
    (json, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_dht::RingDht;

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
        // The acceptance claim behind `net.batch`: a k-child fan-out is
        // 2·k frames unary, but at most one frame pair per routed member
        // batched — independent of k.
        let cluster = LoopbackCluster::start_ring(4).expect("loopback cluster binds");
        let unary = fanout_cell(&cluster, 8, false);
        let batch = fanout_cell(&cluster, 8, true);
        cluster.shutdown();
        assert!(
            (unary.frames_per_fanout - 16.0).abs() < 1e-9,
            "unary: 2 frames per child at k=8, got {}",
            unary.frames_per_fanout
        );
        assert!(
            batch.frames_per_fanout <= 8.0 + 1e-9,
            "batched: at most one frame pair per member over 4 members, got {}",
            batch.frames_per_fanout
        );
        assert!(batch.frames_per_fanout < unary.frames_per_fanout);
    }

    #[test]
    fn percentiles_are_sane() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
