//! The four workloads: what each replays, on what, and why.
//!
//! Every workload is a fixed **cycle** of operations generated from the
//! seed and replayed until the run's time is up. The program under test
//! sees only the generated inputs (descriptors, queries); the seed never
//! reaches it.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use p2p_index_core::{CachePolicy, IndexService, RetryPolicy, SimpleScheme};
use p2p_index_dht::{Dht, Key, NodeId, RingDht, SplitMix64};
use p2p_index_net::{
    DhtServer, LoopbackCluster, RemoteDht, RemoteDhtConfig, ReplicationConfig, ServerConfig,
};
use p2p_index_obs::MetricsRegistry;
use p2p_index_sim::simulation::user_search_buffered;
use p2p_index_sim::{QueryOutcome, SchemeChoice, SimConfig, Simulation};
use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, QueryStructure, StructureMix};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{Query, QueryBuilder};

use crate::stats::{pooled_ns_per_op, position_floor_ns, quiet_pool, Segment};
use crate::trace::OpHooks;

/// Cluster shape shared by the three `cluster-*` workloads: 5 members,
/// every key on R = 3 of them, writes acknowledged by W = 2, reads merged
/// from Rq = 2. Everything else is the shipped default.
pub const MEMBERS: usize = 5;
pub const REPLICAS: usize = 3;
pub const WRITE_QUORUM: usize = 2;
pub const READ_QUORUM: usize = 2;

/// The paper's reference cell for the in-process workload: 500 nodes, and
/// a bounded cache that stays smaller than the query working set.
const SIM_NODES: usize = 500;
const SIM_CACHE: CachePolicy = CachePolicy::Lru(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimLookup,
    ClusterLookup,
    ClusterSearch,
    ClusterMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimLookup,
        Workload::ClusterLookup,
        Workload::ClusterSearch,
        Workload::ClusterMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLookup => "sim-lookup",
            Workload::ClusterLookup => "cluster-lookup",
            Workload::ClusterSearch => "cluster-search",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_cluster(self) -> bool {
        self != Workload::SimLookup
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        crate::metrics::WORKLOAD_WHY
            .iter()
            .find(|(name, _)| *name == self.name())
            .map_or("", |(_, why)| why)
    }
}

/// One operation of the cycle.
#[derive(Debug, Clone)]
pub enum Op {
    /// The paper's user model (`user_search_buffered`): iterate lookups
    /// toward article `target`.
    Lookup { query: Query, target: u32 },
    /// `IndexService::search`: the full BFS to every matching file.
    Search { query: Query },
    /// `IndexService::publish` of the article with this corpus id.
    Publish(u32),
    /// `IndexService::unpublish` of the article with this corpus id.
    Unpublish(u32),
}

impl Op {
    /// The span name of the operation; `op.lookup` and `op.search` are the
    /// reads, the other two the writes.
    pub fn span_name(&self) -> &'static str {
        match self {
            Op::Lookup { .. } => "op.lookup",
            Op::Search { .. } => "op.search",
            Op::Publish(_) => "op.publish",
            Op::Unpublish(_) => "op.unpublish",
        }
    }
}

/// What the program answered, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    Outcome(QueryOutcome),
    /// A search result set: size, order-independent digest of the file
    /// names, interactions reported, and whether any branch was abandoned.
    Files {
        count: u32,
        digest: u64,
        interactions: u32,
        partial: bool,
    },
    /// A publish or unpublish returned `Ok` with the expected MSD (or not).
    Written {
        msd_matches: bool,
    },
    Failed,
}

impl Observed {
    fn interactions(&self) -> u64 {
        match self {
            Observed::Outcome(o) => u64::from(o.interactions),
            Observed::Files { interactions, .. } => u64::from(*interactions),
            Observed::Written { .. } | Observed::Failed => 0,
        }
    }
}

/// The inputs of one run, all derived from the seed.
pub struct Script {
    pub workload: Workload,
    pub corpus_config: CorpusConfig,
    /// MSD and file handle of every corpus article, in corpus order.
    pub msds: Vec<Query>,
    pub files: Vec<String>,
    /// Articles `0..preload` are published at set-up; the rest are held
    /// out and never stored.
    pub preload: usize,
    /// Descriptors of the articles the cycle's publish and unpublish ops
    /// name, by article id.
    pub written: HashMap<u32, Descriptor>,
    pub ops: Vec<Op>,
    /// Ops per segment; every segment at the same position of the cycle
    /// is identical work.
    pub segment_ops: usize,
    pub policy: CachePolicy,
    pub retry: RetryPolicy,
    /// The seed, for oracles that need to rebuild the same inputs.
    pub seed: u64,
}

/// The data set is the same for every seed: the repository's default
/// corpus (`CorpusConfig::default().seed`) at the workload's size, in the
/// shape `Simulation::corpus_config` gives it. The run's seed drives the
/// request stream — which articles are asked for, in which form and
/// order — not the data.
///
/// A corpus drawn from the run's seed would put the luck of its heavy
/// tails into every metric: the author of the most popular article
/// receives 4 % of `sim-lookup`'s requests, and whether that author wrote
/// 3 articles or 60 moved bytes-per-op by 2–12 % between seeds, several
/// times the regression bounds.
fn corpus_config(articles: usize) -> CorpusConfig {
    CorpusConfig {
        articles,
        author_pool: (articles / 3).max(16),
        ..CorpusConfig::default()
    }
}

/// `sim-lookup`'s cell as a `SimConfig`, for the `Simulation::run` oracle.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        nodes: SIM_NODES,
        articles: 10_000,
        queries: 50_000,
        scheme: SchemeChoice::Simple,
        policy: SIM_CACHE,
        mix: StructureMix::paper_simulation(),
        seed,
        collect_metrics: false,
    }
}

impl Script {
    pub fn generate(workload: Workload, seed: u64) -> Script {
        let (articles, preload) = match workload {
            Workload::SimLookup => (10_000, 10_000),
            Workload::ClusterLookup | Workload::ClusterSearch => (5_000, 5_000),
            Workload::ClusterMixed => (4_300, 4_000),
        };
        let corpus_config = corpus_config(articles);
        let corpus = Corpus::generate(corpus_config.clone());
        // One descriptor alive at a time: the load generator's own memory
        // is part of `peak_rss_mb`, so it is kept small.
        let msds: Vec<Query> = corpus
            .articles()
            .iter()
            .map(|a| Query::most_specific(&a.descriptor()))
            .collect();
        let files: Vec<String> = corpus.articles().iter().map(|a| a.file_name()).collect();
        let (ops, segment_ops) = match workload {
            Workload::SimLookup => {
                // The very stream `Simulation::execute` draws, so the
                // warm-up cycle can be held against `Simulation::run`.
                let mut generator =
                    QueryGenerator::new(&corpus, StructureMix::paper_simulation(), seed ^ 0x5eed);
                let ops = generator
                    .take_queries(50_000)
                    .into_iter()
                    .map(|item| Op::Lookup {
                        query: item.query,
                        target: item.target as u32,
                    })
                    .collect();
                (ops, 5_000)
            }
            Workload::ClusterLookup => (spread_lookups(&corpus, 3_000, articles, seed), 1_000),
            Workload::ClusterSearch => (broad_searches(&corpus, seed), 200),
            Workload::ClusterMixed => {
                let regular = spread_lookups(&corpus, 1_800, preload, seed);
                (mixed_cycle(regular, &msds, preload, seed), 500)
            }
        };
        assert_eq!(
            ops.len() % segment_ops,
            0,
            "segments must tile the cycle: op ids map to segments by division"
        );
        let (policy, retry) = if workload.is_cluster() {
            (CachePolicy::None, RetryPolicy::with_budget(seed, 4))
        } else {
            (SIM_CACHE, RetryPolicy::none())
        };
        Script {
            workload,
            corpus_config,
            msds,
            files,
            preload,
            written: ops
                .iter()
                .filter_map(|op| match op {
                    Op::Publish(a) | Op::Unpublish(a) => {
                        Some((*a, corpus.articles()[*a as usize].descriptor()))
                    }
                    _ => None,
                })
                .collect(),
            ops,
            segment_ops,
            policy,
            retry,
            seed,
        }
    }

    pub fn segments_per_cycle(&self) -> usize {
        // `generate` asserts that segments tile the cycle.
        self.ops.len() / self.segment_ops
    }
}

/// Fisher–Yates with the seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(i + 1));
    }
}

/// `count` evenly spaced indices into `0..population`, from a seeded
/// phase, in seeded order: a family of picks covers the corpus the same
/// way for every seed, so how much work a cycle holds depends on the
/// corpus as a whole, not on which few articles a seed happened to draw.
fn spaced_picks(count: usize, population: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let phase = rng.next_f64();
    let mut picks: Vec<usize> = (0..count)
        .map(|i| ((i as f64 + phase) * population as f64 / count as f64) as usize)
        .collect();
    shuffle(&mut picks, rng);
    picks
}

/// `count` lookups in the paper's structure mix, aimed at evenly spaced
/// articles of `0..population`. The `i`-th structure is the one at
/// quantile `frac(i·g + ψ)` of the mix (`g` the golden ratio's fraction),
/// so the mix is met almost exactly rather than on average.
///
/// The `cluster-*` workloads run with the cache off, so the paper's
/// popularity skew would buy nothing there; even spacing sends the same
/// share of the cycle to every member and shard, and makes the work in a
/// cycle a property of the corpus rather than of the draw.
fn spread_lookups(corpus: &Corpus, count: usize, population: usize, seed: u64) -> Vec<Op> {
    let mix = StructureMix::paper_simulation();
    let weights = mix.weights();
    let mut rng = SplitMix64::new(seed ^ 0x10c0_ca75);
    let psi = rng.next_f64();
    let golden = 0.618_033_988_749_894_9_f64;
    spaced_picks(count, population, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, target)| {
            let mut v = (i as f64 * golden + psi).fract();
            let structure = weights
                .iter()
                .find(|(_, w)| {
                    let hit = v < *w;
                    v -= w;
                    hit
                })
                .unwrap_or(&weights[weights.len() - 1])
                .0;
            Op::Lookup {
                query: structure.query_for(&corpus.articles()[target]),
                target: target as u32,
            }
        })
        .collect()
}

/// `cluster-search`'s cycle: 600 broad queries in three equal families,
/// all of which `SimpleScheme` indexes, interleaved one of each in turn.
///
/// * conference-only — every venue of the corpus, the same number of
///   times each;
/// * conference+year — conference/year pairs evenly spaced in order of
///   how many articles they hold;
/// * author-only — authors evenly spaced in order of how many articles
///   they wrote.
///
/// Spacing the picks along the very quantity that decides a search's cost
/// (the size of its result) gives every seed the same profile of cheap
/// and expensive searches: the seed moves each pick to a neighbour of
/// similar size and reorders the cycle, but the work in a cycle barely
/// changes, where free picks from a heavy-tailed author list moved
/// interactions-per-op by 2 % between seeds.
fn broad_searches(corpus: &Corpus, seed: u64) -> Vec<Op> {
    const PER_FAMILY: usize = 200;
    let mut rng = SplitMix64::new(seed ^ 0xb40a_d5ea);
    let articles = corpus.articles();
    let by_size = |key: &dyn Fn(usize) -> String| -> Vec<usize> {
        // One representative article per distinct key, ordered by how many
        // articles share the key (ties by key, so the order is total).
        let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for i in 0..articles.len() {
            groups.entry(key(i)).or_default().push(i);
        }
        let mut sized: Vec<(usize, String, usize)> = groups
            .into_iter()
            .map(|(k, members)| (members.len(), k, members[0]))
            .collect();
        sized.sort();
        sized.into_iter().map(|(_, _, article)| article).collect()
    };
    let venues = by_size(&|i| articles[i].conf.clone());
    let pairs = by_size(&|i| format!("{}/{}", articles[i].conf, articles[i].year));
    let authors = by_size(&|i| {
        let (first, last) = articles[i].primary_author();
        format!("{last}/{first}")
    });

    let mut conference: Vec<Query> = (0..PER_FAMILY)
        .map(|i| QueryStructure::Conference.query_for(&articles[venues[i % venues.len()]]))
        .collect();
    shuffle(&mut conference, &mut rng);
    let conference_year: Vec<Query> = spaced_picks(PER_FAMILY, pairs.len(), &mut rng)
        .into_iter()
        .map(|i| {
            let a = &articles[pairs[i]];
            QueryBuilder::new("article")
                .value("conf", &a.conf)
                .value("year", a.year.to_string())
                .build()
        })
        .collect();
    let author: Vec<Query> = spaced_picks(PER_FAMILY, authors.len(), &mut rng)
        .into_iter()
        .map(|i| QueryStructure::Author.query_for(&articles[authors[i]]))
        .collect();

    let mut ops = Vec::with_capacity(3 * PER_FAMILY);
    for ((c, cy), a) in conference.into_iter().zip(conference_year).zip(author) {
        ops.extend([c, cy, a].map(|query| Op::Search { query }));
    }
    ops
}

/// `cluster-mixed`'s cycle: 300 groups of ten ops —
///
/// ```text
/// L L L  P(p)  M(p)  L L L  U(h)  M(h)
/// ```
///
/// `L` is a regular lookup. `P(p)` publishes article `p` of the preloaded
/// corpus again — a peer re-announcing a file it already shares; every
/// put finds its value present — and `M(p)` looks its MSD up, which must
/// resolve to the file. `U(h)` unpublishes held-out article `h`, which was
/// never published — a delete that finds nothing, but still travels the
/// whole remove path and leaves its tombstones on every replica — and
/// `M(h)` looks its MSD up, which must not resolve.
///
/// Why not publish and then unpublish the *same* article, as a user
/// would? Because the shipped repair pass re-sends every tombstone to
/// the replica set each interval, and a re-put that lands between a
/// pass's tombstone snapshot and its send is deleted again on the
/// receiving replica. On that cycle roughly one publish in twenty lost a
/// value on some replica for a while (seen as an unpublish cascade that
/// stopped early: fewer DHT messages than the twin), and a quorum read
/// could miss. A benchmark needs operations that cannot fail, so the
/// cycle keeps the set of tombstoned pairs and the set of put pairs
/// disjoint: stored state and tombstones are both constant from the
/// second cycle on, and every count repeats exactly.
fn mixed_cycle(regular: Vec<Op>, msds: &[Query], preload: usize, seed: u64) -> Vec<Op> {
    let held = msds.len() - preload;
    debug_assert_eq!(regular.len(), held * 6);
    let mut regular = regular.into_iter();
    let mut ops = Vec::with_capacity(held * 10);
    let probe = |article: usize| Op::Lookup {
        query: msds[article].clone(),
        target: article as u32,
    };
    // 13 is coprime to the preload, so the stride visits distinct articles.
    let first = (seed % preload as u64) as usize;
    for j in 0..held {
        let republished = (first + 13 * j) % preload;
        let never_published = preload + j;
        ops.extend(regular.by_ref().take(3));
        ops.push(Op::Publish(republished as u32));
        ops.push(probe(republished));
        ops.extend(regular.by_ref().take(3));
        ops.push(Op::Unpublish(never_published as u32));
        ops.push(probe(never_published));
    }
    ops
}

/// Whatever keeps a substrate's servers alive, and what the per-layer
/// pass can ask of them.
pub trait Guard {
    /// Operations answered across all servers.
    fn ops_served(&self) -> u64 {
        0
    }
    /// One synchronous anti-entropy pass on every member.
    fn repair_all(&self) {}
}

impl Guard for () {}

/// The servers of a `cluster-*` instance.
pub enum Cluster {
    /// `LoopbackCluster::start_replicated_ring`, exactly as shipped.
    Shipped(LoopbackCluster),
    /// The same construction with a metrics registry handed to every
    /// server (the shipped constructor has no parameter for one); only
    /// the metrics-on pass of a traced run uses it.
    Instrumented(Vec<DhtServer>),
}

impl Guard for Cluster {
    fn ops_served(&self) -> u64 {
        match self {
            Cluster::Shipped(c) => c.ops_served(),
            Cluster::Instrumented(servers) => servers.iter().map(DhtServer::ops_served).sum(),
        }
    }

    fn repair_all(&self) {
        match self {
            Cluster::Shipped(c) => c.repair_all(),
            Cluster::Instrumented(servers) => servers.iter().for_each(DhtServer::repair_now),
        }
    }
}

/// Starts a replicated loopback cluster and a quorum client over it.
/// With a disabled registry this is the shipped constructor verbatim.
pub fn start_cluster(
    members: usize,
    replicas: usize,
    write_quorum: usize,
    read_quorum: usize,
    server_metrics: &MetricsRegistry,
) -> io::Result<(RemoteDht, Cluster)> {
    if !server_metrics.is_enabled() {
        let cluster = LoopbackCluster::start_replicated_ring(members, replicas, write_quorum)?;
        let client = cluster.replicated_client(replicas, read_quorum);
        return Ok((client, Cluster::Shipped(cluster)));
    }
    // Mirrors `start_replicated_ring`: bind every listener before any
    // server spawns, so members can dial each other from the first frame.
    let mut listeners = Vec::with_capacity(members);
    for i in 0..members {
        let id = NodeId::hash_of(&format!("node-{i}"));
        listeners.push((id, TcpListener::bind("127.0.0.1:0")?));
    }
    let addrs: Vec<(NodeId, SocketAddr)> = listeners
        .iter()
        .map(|(id, l)| Ok((*id, l.local_addr()?)))
        .collect::<io::Result<_>>()?;
    let ring: Vec<(Key, SocketAddr)> = addrs.iter().map(|(id, a)| (*id.key(), *a)).collect();
    let mut servers = Vec::with_capacity(members);
    for (id, listener) in listeners {
        let config = ServerConfig {
            metrics: server_metrics.clone(),
            replication: Some(ReplicationConfig::new(
                *id.key(),
                ring.clone(),
                replicas,
                write_quorum,
            )),
            ..ServerConfig::default()
        };
        servers.push(DhtServer::spawn_partition_on(listener, id, config)?);
    }
    let client = RemoteDht::connect(
        addrs,
        RemoteDhtConfig {
            replicas,
            read_quorum,
            ..RemoteDhtConfig::default()
        },
    );
    Ok((client, Cluster::Instrumented(servers)))
}

/// A started system: the index service over its substrate, plus whatever
/// keeps the substrate's servers alive.
pub struct Instance<D, G> {
    // Declared before `guard`: the client's connections close before the
    // servers shut down, so no server worker waits out a read timeout.
    pub service: IndexService<D>,
    pub guard: G,
    /// Wall seconds from the start of set-up to its end (first timed op).
    pub setup_s: f64,
    /// Interactions summed over the warm-up cycle.
    pub warmup_interactions: u64,
}

/// The load generator's own state: buffers reused across ops so it
/// allocates nothing per op, and the id the next op's spans will carry.
#[derive(Default)]
pub struct Scratch {
    path: Vec<(NodeId, Query)>,
    generalizations: Vec<Query>,
    next_op_id: u32,
}

/// What every replay of the cycle is held against, position by position.
///
/// With the cache off (`cluster-*`) the first replay of a run fills it in
/// and every later one — the other set-ups' warm-up cycles and every timed
/// cycle — must answer the same, which is the cyclic property the
/// estimators rest on. After the body the recorded answers are themselves
/// compared with an in-process `RingDht` twin's; the twin is built that
/// late so its memory stays out of `peak_rss_mb`.
#[derive(Default)]
pub struct Reference {
    answers: Vec<Observed>,
}

impl Reference {
    pub fn answers(&self) -> &[Observed] {
        &self.answers
    }

    /// `true` when `observed` is acceptable at `index`: a lookup that was
    /// meant to find its target found it, nothing failed outright, and the
    /// answer equals the one recorded at this position (or is the first).
    pub fn accepts(&mut self, script: &Script, index: usize, observed: &Observed) -> bool {
        let sound = match observed {
            Observed::Failed => false,
            Observed::Files { partial, .. } => !partial,
            Observed::Written { msd_matches } => *msd_matches,
            // Every lookup must reach its target, except the probes of
            // never-published articles, which must not.
            Observed::Outcome(outcome) => match &script.ops[index] {
                Op::Lookup { target, .. } => outcome.found == ((*target as usize) < script.preload),
                _ => false,
            },
        };
        if script.policy.caches() {
            // With the shortcut cache on, the same query is answered in
            // fewer steps as the cache learns: answers are sound, not equal.
            sound
        } else if index == self.answers.len() {
            self.answers.push(observed.clone());
            sound
        } else {
            sound && self.answers[index] == *observed
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs op `index` of the cycle against `service`.
pub fn exec<D: Dht + OpHooks>(
    service: &mut IndexService<D>,
    script: &Script,
    index: usize,
    scratch: &mut Scratch,
) -> Observed {
    let op = &script.ops[index];
    service
        .dht_mut()
        .op_begin(op.span_name(), scratch.next_op_id);
    scratch.next_op_id = scratch.next_op_id.wrapping_add(1);
    let observed = match op {
        Op::Lookup { query, target } => Observed::Outcome(user_search_buffered(
            service,
            query,
            &script.msds[*target as usize],
            &script.files[*target as usize],
            &mut scratch.path,
            &mut scratch.generalizations,
        )),
        Op::Search { query } => match service.search(query) {
            Ok(report) => Observed::Files {
                count: report.files.len() as u32,
                digest: report
                    .files
                    .iter()
                    .fold(0, |sum, hit| sum.wrapping_add(fnv1a(hit.file.as_bytes()))),
                interactions: report.interactions,
                partial: report.is_partial(),
            },
            Err(_) => Observed::Failed,
        },
        Op::Publish(article) | Op::Unpublish(article) => {
            let a = *article as usize;
            let descriptor = &script.written[article];
            let result = if matches!(op, Op::Publish(_)) {
                service.publish(descriptor, script.files[a].as_str(), &SimpleScheme)
            } else {
                service.unpublish(descriptor, &script.files[a], &SimpleScheme)
            };
            match result {
                Ok(msd) => Observed::Written {
                    msd_matches: msd == script.msds[a],
                },
                Err(_) => Observed::Failed,
            }
        }
    };
    service.dht_mut().op_end();
    observed
}

/// Totals of one pass over ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub interactions: u64,
    pub cache_hits: u64,
    pub lookups: u64,
}

impl Tally {
    pub fn note(&mut self, observed: &Observed, accepted: bool) {
        self.ops += 1;
        self.failed += u64::from(!accepted);
        self.interactions += observed.interactions();
        if let Observed::Outcome(o) = observed {
            self.lookups += 1;
            self.cache_hits += u64::from(o.cache_hit);
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.interactions += other.interactions;
        self.cache_hits += other.cache_hits;
        self.lookups += other.lookups;
    }
}

/// Replays ops `range` of the cycle once, checking every answer.
fn replay<D: Dht + OpHooks>(
    service: &mut IndexService<D>,
    script: &Script,
    reference: &mut Reference,
    range: std::ops::Range<usize>,
    scratch: &mut Scratch,
    tally: &mut Tally,
    mut latencies_ns: Option<&mut Vec<u32>>,
) {
    for index in range {
        let started = Instant::now();
        let observed = exec(service, script, index, scratch);
        if let Some(latencies) = latencies_ns.as_deref_mut() {
            latencies.push(started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        tally.note(&observed, reference.accepts(script, index, &observed));
    }
}

/// The workload's preloaded corpus published on an in-process ring with
/// the cluster's member names: the oracle for the `cluster-*` answers, and
/// where the stored size of the index is read off.
pub fn published_twin(script: &Script) -> Result<IndexService<RingDht>, String> {
    let corpus = Corpus::generate(script.corpus_config.clone());
    let mut twin = IndexService::new(RingDht::with_named_nodes(MEMBERS), script.policy);
    for article in &corpus.articles()[..script.preload] {
        twin.publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .map_err(|e| format!("twin publish failed: {e}"))?;
    }
    Ok(twin)
}

/// The twin's answers for two consecutive cycles — they must agree, which
/// is the check that a cycle leaves the stored state where it found it —
/// the DHT messages its second cycle cost, and the twin itself.
pub fn twin_expectations(
    script: &Script,
) -> Result<(Vec<Observed>, u64, IndexService<RingDht>), String> {
    let mut twin = published_twin(script)?;
    let mut scratch = Scratch::default();
    let mut cycle = |twin: &mut IndexService<RingDht>| -> Vec<Observed> {
        (0..script.ops.len())
            .map(|i| exec(twin, script, i, &mut scratch))
            .collect()
    };
    let first = cycle(&mut twin);
    let messages_before = twin.dht().stats().messages;
    let second = cycle(&mut twin);
    let messages_per_cycle = twin.dht().stats().messages - messages_before;
    if first != second {
        return Err(
            "the twin's second cycle answered differently from its first: \
                    the cycle does not return the state to its start"
                .to_string(),
        );
    }
    Ok((first, messages_per_cycle, twin))
}

/// The sorted `(file, msd)` pairs a search returns: the deep comparison
/// behind the per-op digest.
pub fn search_set<D: Dht>(
    service: &mut IndexService<D>,
    query: &Query,
) -> Option<Vec<(String, String)>> {
    let report = service.search(query).ok()?;
    let mut set: Vec<(String, String)> = report
        .files
        .into_iter()
        .map(|hit| (hit.file, hit.msd.to_string()))
        .collect();
    set.sort_unstable();
    Some(set)
}

/// Set-up: corpus, substrate start, publish of the preloaded corpus, one
/// warm-up cycle — timed from its first line to its last.
///
/// `start` brings the substrate up; `metrics` (when enabled) is attached to
/// the service, its caches and the client after publishing, as
/// `Simulation::prepare` does.
pub fn set_up<D: Dht + OpHooks, G>(
    script: &Script,
    reference: &mut Reference,
    metrics: &MetricsRegistry,
    start: impl FnOnce() -> io::Result<(D, G)>,
    tally: &mut Tally,
) -> Result<Instance<D, G>, String> {
    let started = Instant::now();
    let corpus = Corpus::generate(script.corpus_config.clone());
    let (dht, guard) = start().map_err(|e| format!("substrate start failed: {e}"))?;
    let mut service = IndexService::with_retry(dht, script.policy, script.retry);
    for (article, msd) in corpus.articles()[..script.preload].iter().zip(&script.msds) {
        let published = service
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .map_err(|e| format!("publish of article {} failed: {e}", article.id))?;
        if published != *msd {
            return Err(format!(
                "article {} published under an unexpected MSD",
                article.id
            ));
        }
    }
    service.reset_metrics();
    if metrics.is_enabled() {
        service.set_metrics(metrics.clone());
    }
    let mut warm = Tally::default();
    replay(
        &mut service,
        script,
        reference,
        0..script.ops.len(),
        &mut Scratch::default(),
        &mut warm,
        None,
    );
    let setup_s = started.elapsed().as_secs_f64();
    tally.add(&warm);
    Ok(Instance {
        service,
        guard,
        setup_s,
        warmup_interactions: warm.interactions,
    })
}

/// The in-process substrate of `sim-lookup`.
pub fn start_ring() -> io::Result<(RingDht, ())> {
    Ok((RingDht::with_named_nodes(SIM_NODES), ()))
}

/// The total interactions the repository's own `Simulation` counts for
/// `sim-lookup`'s cell (same corpus, same query seed): what the warm-up
/// cycle must reproduce exactly.
pub fn simulation_oracle(script: &Script) -> Result<u64, String> {
    let corpus = Arc::new(Corpus::generate(script.corpus_config.clone()));
    let metrics = Simulation::prepare_with_corpus(sim_config(script.seed), corpus).execute();
    if metrics.failed != 0 {
        return Err(format!(
            "Simulation left {} queries unresolved",
            metrics.failed
        ));
    }
    Ok(metrics.interactions)
}

/// Counter readings that bracket the count cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub dht_messages: u64,
    pub traffic_bytes: u64,
    pub thread_allocs: u64,
    pub process_allocs: u64,
    pub process_bytes: u64,
    pub ops_served: u64,
    pub retries: u64,
}

impl Counters {
    fn read<D: Dht, G: Guard>(instance: &Instance<D, G>) -> Counters {
        let (process_allocs, process_bytes) = crate::alloc::process_counts();
        Counters {
            dht_messages: instance.service.dht().stats().messages,
            traffic_bytes: instance.service.traffic().total_bytes(),
            thread_allocs: crate::alloc::thread_allocs(),
            process_allocs,
            process_bytes,
            ops_served: instance.guard.ops_served(),
            retries: instance.service.retry_stats().retries,
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            dht_messages: self.dht_messages - earlier.dht_messages,
            traffic_bytes: self.traffic_bytes - earlier.traffic_bytes,
            thread_allocs: self.thread_allocs - earlier.thread_allocs,
            process_allocs: self.process_allocs - earlier.process_allocs,
            process_bytes: self.process_bytes - earlier.process_bytes,
            ops_served: self.ops_served - earlier.ops_served,
            retries: self.retries - earlier.retries,
        }
    }
}

/// What one timed body produced.
pub struct Body {
    /// Completed segments, in order.
    pub segments: Vec<Segment>,
    /// Counter deltas and tallies over the first cycle only: they repeat
    /// exactly whatever the machine's speed.
    pub count_cycle: Counters,
    pub count_tally: Tally,
    /// Peak resident set at the end of the count cycle, in KiB.
    pub peak_rss_kib: u64,
    /// Everything executed, all cycles.
    pub tally: Tally,
    pub wall_s: f64,
    /// Wall nanoseconds of every op, in execution order: op `k` of the
    /// body is cycle position `k % cycle length`.
    pub latencies_ns: Vec<u32>,
}

impl Body {
    /// Mean nanoseconds per op over the quiet pool of segments.
    pub fn quiet_ns_per_op(&self) -> f64 {
        pooled_ns_per_op(&self.segments, &quiet_pool(&self.segments))
    }

    /// The per-position floor of the per-op latencies.
    pub fn floor_ns_per_op(&self, script: &Script) -> f64 {
        position_floor_ns(&self.latencies_ns, script.ops.len())
    }

    /// This body's floor over another's, minus one — both taken over the
    /// same number of whole cycles, because a floor falls as cycles are
    /// added and the two bodies may have run for different lengths.
    pub fn floor_overhead_share(&self, baseline: &Body, script: &Script) -> f64 {
        let cycle = script.ops.len();
        let common = self.latencies_ns.len().min(baseline.latencies_ns.len()) / cycle * cycle;
        let floor = |body: &Body| position_floor_ns(&body.latencies_ns[..common.max(cycle)], cycle);
        floor(self) / floor(baseline) - 1.0
    }

    /// Mean nanoseconds per op over everything, disturbed or not.
    pub fn whole_ns_per_op(&self) -> f64 {
        self.segments.iter().map(|s| s.ns).sum::<u64>() as f64 / self.tally.ops.max(1) as f64
    }

    /// One line for people: how much ran and the three views of time per op.
    pub fn timing_note(&self, script: &Script) -> String {
        format!(
            "body {:.2} s, {} ops in {} segments ({:.1} cycles); us/op: quiet pool {:.3}, \
             floor {:.3}, whole body {:.3}",
            self.wall_s,
            self.tally.ops,
            self.segments.len(),
            self.tally.ops as f64 / script.ops.len() as f64,
            self.quiet_ns_per_op() / 1e3,
            self.floor_ns_per_op(script) / 1e3,
            self.whole_ns_per_op() / 1e3,
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The timed body: replays the cycle segment by segment until `seconds`
/// have passed (at least one whole cycle), one op in flight at a time.
/// `keep_going` is consulted at segment boundaries so a traced run can
/// stop before its span store overflows.
pub fn run_body<D: Dht + OpHooks, G: Guard>(
    instance: &mut Instance<D, G>,
    script: &Script,
    reference: &mut Reference,
    seconds: f64,
    mut keep_going: impl FnMut(&D) -> bool,
) -> Body {
    let per_cycle = script.segments_per_cycle();
    let mut segments: Vec<Segment> = Vec::with_capacity(4096);
    let mut scratch = Scratch::default();
    let mut tally = Tally::default();
    let mut count_tally = Tally::default();
    let mut count_cycle = Counters::default();
    let mut peak_kib = 0;
    // Four bytes per op, reserved up front so the count cycle sees no
    // reallocation: 4 Mi ops is three 15-s runs of the fastest workload.
    let mut latencies_ns: Vec<u32> = Vec::with_capacity(4 << 20);

    let before = Counters::read(instance);
    let started = Instant::now();
    'cycles: for cycle in 0.. {
        for position in 0..per_cycle {
            let from = position * script.segment_ops;
            let to = (from + script.segment_ops).min(script.ops.len());
            let mut segment_tally = Tally::default();
            let dht_ns_before = instance.service.dht().dht_ns();
            let segment_started = Instant::now();
            replay(
                &mut instance.service,
                script,
                reference,
                from..to,
                &mut scratch,
                &mut segment_tally,
                Some(&mut latencies_ns),
            );
            let ns = segment_started.elapsed().as_nanos() as u64;
            segments.push(Segment {
                position: position as u32,
                ops: (to - from) as u32,
                ns,
                dht_ns: instance.service.dht().dht_ns() - dht_ns_before,
            });
            tally.add(&segment_tally);
            if cycle == 0 {
                count_tally.add(&segment_tally);
                if position + 1 == per_cycle {
                    count_cycle = Counters::read(instance).since(&before);
                    peak_kib = peak_rss_kib();
                }
            }
            let cycle_done = cycle > 0 || position + 1 == per_cycle;
            if cycle_done
                && (started.elapsed().as_secs_f64() >= seconds
                    || !keep_going(instance.service.dht()))
            {
                break 'cycles;
            }
        }
    }
    Body {
        segments,
        count_cycle,
        count_tally,
        peak_rss_kib: peak_kib,
        tally,
        wall_s: started.elapsed().as_secs_f64(),
        latencies_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(script: &Script) -> Vec<String> {
        script
            .ops
            .iter()
            .map(|op| match op {
                Op::Lookup { query, target } => format!("L {target} {query}"),
                Op::Search { query } => format!("S {query}"),
                Op::Publish(a) => format!("P {a}"),
                Op::Unpublish(a) => format!("U {a}"),
            })
            .collect()
    }

    #[test]
    fn the_seed_decides_the_request_stream_and_nothing_else_does() {
        let a = Script::generate(Workload::ClusterLookup, 7);
        let b = Script::generate(Workload::ClusterLookup, 7);
        let c = Script::generate(Workload::ClusterLookup, 8);
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        // The data set is shared: only the requests move with the seed.
        assert_eq!(a.msds, c.msds);
        assert_eq!(a.ops.len(), 3_000);
        assert_eq!(a.segments_per_cycle(), 3);
    }

    #[test]
    fn search_cycle_interleaves_three_equal_families_over_every_venue() {
        let script = Script::generate(Workload::ClusterSearch, 3);
        assert_eq!(script.ops.len(), 600);
        let conference_only: Vec<String> = texts(&script).into_iter().step_by(3).collect();
        let mut venues = conference_only.clone();
        venues.sort();
        venues.dedup();
        // 40 venues, 200 slots: every venue exactly five times.
        assert_eq!(venues.len(), 40);
        for venue in &venues {
            assert_eq!(conference_only.iter().filter(|q| *q == venue).count(), 5);
        }
        assert!(conference_only
            .iter()
            .all(|q| q.contains("conf") && !q.contains("year")));
    }

    #[test]
    fn mixed_cycle_never_puts_a_pair_it_tombstones() {
        let script = Script::generate(Workload::ClusterMixed, 11);
        assert_eq!(script.ops.len(), 3_000);
        let mut published = Vec::new();
        for group in script.ops.chunks(10) {
            let kinds: Vec<&str> = group.iter().map(Op::span_name).collect();
            assert_eq!(
                kinds,
                [
                    "op.lookup",
                    "op.lookup",
                    "op.lookup",
                    "op.publish",
                    "op.lookup",
                    "op.lookup",
                    "op.lookup",
                    "op.lookup",
                    "op.unpublish",
                    "op.lookup"
                ]
            );
            let (Op::Publish(p), Op::Unpublish(u)) = (&group[3], &group[8]) else {
                panic!("group layout");
            };
            // Re-announced articles are stored; deleted ones never were.
            assert!((*p as usize) < script.preload && (*u as usize) >= script.preload);
            assert!(matches!(&group[4], Op::Lookup { target, .. } if target == p));
            assert!(matches!(&group[9], Op::Lookup { target, .. } if target == u));
            published.push(*p);
        }
        published.sort_unstable();
        published.dedup();
        assert_eq!(
            published.len(),
            300,
            "the stride must visit distinct articles"
        );
        assert_eq!(script.written.len(), 600);
    }

    #[test]
    fn a_replayed_cycle_on_the_twin_answers_the_same_and_probes_resolve_as_meant() {
        // A cut-down mixed cycle against the in-process twin: the answers
        // of two consecutive cycles agree, which `twin_expectations`
        // itself enforces, and the reference accepts them.
        let mut script = Script::generate(Workload::ClusterMixed, 5);
        script.ops.truncate(200);
        let (answers, messages, _twin) = twin_expectations(&script).expect("twin runs");
        assert!(messages > 0);
        let mut reference = Reference::default();
        for (i, answer) in answers.iter().enumerate() {
            assert!(reference.accepts(&script, i, answer), "op {i}: {answer:?}");
        }
        // A different answer at a recorded position is refused.
        assert!(!reference.accepts(&script, 3, &Observed::Failed));
        assert!(!reference.accepts(&script, 0, &answers[4]) || answers[0] == answers[4]);
    }
}
