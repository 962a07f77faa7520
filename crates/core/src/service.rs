//! The distributed index service: publishing, lookups, search, caching.
//!
//! [`IndexService`] layers the paper's indexing architecture over any
//! [`Dht`] substrate:
//!
//! * [`publish`](IndexService::publish) stores a file under its MSD key and
//!   installs the scheme's query-to-query mappings (validating the covering
//!   relation on every edge — "resilient to arbitrary linking", §IV-D);
//! * [`lookup_step`](IndexService::lookup_step) is one user-system
//!   interaction: it resolves the node responsible for `h(q)` and returns
//!   the node's cached shortcuts and regular index entries for `q`;
//! * [`search`](IndexService::search) is the *automated* lookup mode
//!   (§IV-B): it recursively explores the indexes — generalizing first if
//!   the query is not indexed — and returns every matching file;
//! * [`create_shortcuts`](IndexService::create_shortcuts) implements the
//!   adaptive cache write path for the configured [`CachePolicy`];
//! * [`unpublish`](IndexService::unpublish) removes a file and recursively
//!   cleans up dangling index entries (§IV-C read/write semantics).
//!
//! The service keeps the protocol, its retries, [`Traffic`], node load and
//! tracing. The per-node shortcut caches it drives are `NodeCaches`
//! (`cache.rs`), and what it remembers of its reads is `ReadMemo`
//! (`memo.rs`); every trace event and `index.*` counter is still emitted
//! here.

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use p2p_index_dht::{
    kind_counter, Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId, OpFamily, SplitMix64,
};
use p2p_index_obs::{MetricsRegistry, Trace, TraceRecorder};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

use crate::cache::{CachePolicy, NodeCaches};
use crate::memo::ReadMemo;
use crate::retry::{RetryPolicy, RetryStats};
use crate::scheme::IndexScheme;
use crate::target::{encode_file_into, DecodeTargetError, IndexTarget};
use crate::traffic::Traffic;

/// Errors returned by index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The DHT has no live nodes.
    EmptyNetwork,
    /// A scheme produced an edge whose source does not cover its target;
    /// inserting it would break the index's safety invariant.
    NotCovering {
        /// Canonical text of the offending source query.
        from: String,
        /// Canonical text of the offending target query.
        to: String,
    },
    /// A stored index entry failed to decode.
    Decode(DecodeTargetError),
    /// A DHT operation failed even after the retry policy was exhausted.
    Dht(DhtError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::EmptyNetwork => write!(f, "network has no live nodes"),
            IndexError::NotCovering { from, to } => {
                write!(
                    f,
                    "index edge violates covering: {from} does not cover {to}"
                )
            }
            IndexError::Decode(e) => write!(f, "corrupt index entry: {e}"),
            IndexError::Dht(e) => write!(f, "dht operation failed: {e}"),
        }
    }
}

impl Error for IndexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IndexError::Decode(e) => Some(e),
            IndexError::Dht(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeTargetError> for IndexError {
    fn from(e: DecodeTargetError) -> Self {
        IndexError::Decode(e)
    }
}

impl From<DhtError> for IndexError {
    fn from(e: DhtError) -> Self {
        match e {
            // Preserve the historical error for the structural case.
            DhtError::NoLiveNodes => IndexError::EmptyNetwork,
            other => IndexError::Dht(other),
        }
    }
}

/// The result of one user-system interaction ([`IndexService::lookup_step`]).
#[derive(Debug, Clone, Default)]
pub struct StepResponse {
    /// The node that served the lookup.
    pub node: Option<NodeId>,
    /// The shortcut target found in the node's adaptive cache, if any: a
    /// cached key holds one target, handed out as a refcount bump.
    pub cached: Option<IndexTarget>,
    /// Regular index entries stored under the query's key: the service's
    /// own decoded copy of the entry, shared (a refcount bump), so a warm
    /// lookup step allocates nothing for its entries.
    pub indexed: Arc<[IndexTarget]>,
}

impl StepResponse {
    /// All returned targets, cached first.
    pub fn all_targets(&self) -> impl Iterator<Item = &IndexTarget> {
        self.cached.iter().chain(self.indexed.iter())
    }

    /// `true` when the node returned nothing — the query is not indexed.
    pub fn is_empty(&self) -> bool {
        self.cached.is_none() && self.indexed.is_empty()
    }
}

/// A file located by a search: its most specific query and its handle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FileHit {
    /// The MSD under which the file is stored.
    pub msd: Query,
    /// The stored file handle.
    pub file: String,
}

/// How complete a search's answer is, under faults and retries.
///
/// A search over a faulty substrate no longer pretends every sub-lookup
/// succeeded: lookups that failed even after retrying are *abandoned* and
/// recorded here, marking the result as possibly partial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Completeness {
    /// DHT operation attempts issued by this search (including retries).
    pub attempts: u64,
    /// Retries among those attempts (0 on a healthy substrate).
    pub retries: u64,
    /// Sub-lookups abandoned after exhausting the retry budget. Non-zero
    /// means some index branch went unexplored.
    pub abandoned: u32,
    /// Simulated backoff delay accumulated by this search, in milliseconds.
    pub backoff_ms: u64,
}

impl Completeness {
    /// `true` when some index branch went unexplored, so files matching the
    /// query may be missing from the result.
    pub fn is_partial(&self) -> bool {
        self.abandoned > 0
    }
}

/// The outcome of an automated [`IndexService::search`].
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Every file whose descriptor matches the query.
    pub files: Vec<FileHit>,
    /// User-system interactions performed (index lookups, including the
    /// final file fetches).
    pub interactions: u32,
    /// How many extra lookups were spent generalizing a non-indexed query
    /// (0 when the query was indexed; the paper's "recoverable error" case
    /// otherwise).
    pub generalization_steps: u32,
    /// Sequential DHT waves the search waited on: the entry probe, one per
    /// generalization level, one per index level. Over a network this —
    /// not `interactions` — is the number of round trips of latency.
    pub rounds: u32,
    /// Retry/abandonment record: how trustworthy `files` is under faults.
    pub completeness: Completeness,
}

impl SearchReport {
    /// Did the search have to generalize (i.e. was the original query not
    /// indexed)?
    pub fn generalized(&self) -> bool {
        self.generalization_steps > 0
    }

    /// `true` when faults caused some index branch to go unexplored.
    pub fn is_partial(&self) -> bool {
        self.completeness.is_partial()
    }
}

/// Reusable BFS state for [`IndexService::search`]: the sets, queues, and
/// level buffers a search needs are kept on the service and cleared between
/// searches, so a query burst pays for their capacity once instead of
/// reallocating per search.
#[derive(Debug, Default)]
struct SearchScratch {
    /// Queries whose index entries were already fetched (or enqueued).
    visited: HashSet<Query>,
    /// Phase-2 BFS queue of `(query, its index entries)`, the entries
    /// shared with the entry memo: no interaction builds a list of its own.
    queue: VecDeque<(Query, Arc<[IndexTarget]>)>,
    /// Generalizations already probed (or queued for probing).
    seen: HashSet<Query>,
    /// Next generalization level being accumulated.
    frontier: Vec<Query>,
    /// Current generalization level (one batched probe wave).
    level: Vec<Query>,
    /// Fresh child queries referenced by the index level being expanded.
    children: Vec<Query>,
    /// The keys of the wave in flight, in query order, for reading its
    /// replies back.
    keys: Vec<Key>,
}

impl SearchScratch {
    fn clear(&mut self) {
        self.visited.clear();
        self.queue.clear();
        self.seen.clear();
        self.frontier.clear();
        self.level.clear();
        self.children.clear();
        self.keys.clear();
    }
}

/// Reusable per-wave buffers for
/// [`dht_execute_many`](IndexService::dht_execute_many): capacity is
/// carried from wave to wave, contents never are.
#[derive(Debug, Default)]
struct WaveScratch {
    /// Each op's kind, for trace events and retry tails.
    kinds: Vec<&'static str>,
    /// Each op's clone while a retry is possible (empty otherwise).
    retained: Vec<Option<DhtOp>>,
}

/// Reusable per-pass state of [`IndexService::unpublish`]'s cascade: the
/// edges' keys and each pass's key lists are kept on the service and
/// cleared between calls, like [`SearchScratch`], so a cascade pays for
/// its waves and nothing else.
#[derive(Debug, Default)]
struct CascadeScratch {
    /// Each index edge's `(from, to)` keys, hashed once per call.
    keys: Vec<(Key, Key)>,
    /// Whether each edge's `Remove` was already sent during this call.
    attempted: Vec<bool>,
    /// The distinct keys the next read wave `Get`s: every edge's `to` in
    /// pass 1, then the ones the last remove wave may have emptied.
    pending: Vec<Key>,
    /// The `from` key of each op of the remove wave in flight, in op
    /// order, for reading its replies back.
    removing: Vec<Key>,
}

impl CascadeScratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.attempted.clear();
        self.pending.clear();
        self.removing.clear();
    }
}

/// The distributed index service over a DHT substrate.
///
/// # Examples
///
/// ```
/// use p2p_index_core::{CachePolicy, IndexService, SimpleScheme};
/// use p2p_index_dht::RingDht;
/// use p2p_index_xmldoc::Descriptor;
///
/// let mut service = IndexService::new(RingDht::with_named_nodes(50), CachePolicy::Single);
/// let d = Descriptor::parse(
///     "<article><author><first>John</first><last>Smith</last></author>\
///      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
/// )?;
/// service.publish(&d, "x.pdf", &SimpleScheme)?;
///
/// let report = service.search(&"/article/author[first/John][last/Smith]".parse()?)?;
/// assert_eq!(report.files.len(), 1);
/// assert_eq!(report.files[0].file, "x.pdf");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IndexService<D> {
    dht: D,
    /// The per-node shortcut caches of §IV-D, under the service's policy.
    caches: NodeCaches,
    /// What this client read: its known queries with their keys, and the
    /// entry memo. Every public method that touches it starts with
    /// `ReadMemo::rotate`, the one place its bound evicts.
    memo: ReadMemo,
    traffic: Traffic,
    node_queries: HashMap<NodeId, u64>,
    retry: RetryPolicy,
    retry_rng: SplitMix64,
    /// Retry counters; `backoff_ms` is also the simulated clock.
    retry_stats: RetryStats,
    /// Reusable scratch buffers for [`search`](Self::search): the BFS
    /// queue/visited sets and the generalization frontier survive across
    /// searches instead of being reallocated per query.
    search_scratch: SearchScratch,
    /// Reusable retry/trace bookkeeping of a batched wave.
    wave_scratch: WaveScratch,
    /// Reusable key lists of [`unpublish`](Self::unpublish)'s cascade.
    cascade_scratch: CascadeScratch,
    /// Reusable wire-encode buffer for the write paths: every entry of a
    /// publish wave is encoded into this one buffer instead of through a
    /// per-entry `format!` temporary (publish is the allocation-heaviest
    /// phase of a run).
    encode_scratch: Vec<u8>,
    /// Observability sink (disabled by default; see [`set_metrics`](Self::set_metrics)).
    metrics: MetricsRegistry,
    /// Active lookup trace, if [`start_trace`](Self::start_trace) is pending.
    tracer: Option<TraceRecorder>,
}

impl<D: Dht> IndexService<D> {
    /// Creates a service over `dht` with the given cache policy and no
    /// retries ([`RetryPolicy::none`]).
    pub fn new(dht: D, policy: CachePolicy) -> Self {
        Self::with_retry(dht, policy, RetryPolicy::none())
    }

    /// Creates a service that retries failed DHT operations per `retry`.
    pub fn with_retry(dht: D, policy: CachePolicy, retry: RetryPolicy) -> Self {
        IndexService {
            dht,
            caches: NodeCaches::new(policy),
            memo: ReadMemo::default(),
            traffic: Traffic::new(),
            node_queries: HashMap::new(),
            retry,
            retry_rng: SplitMix64::new(retry.seed),
            retry_stats: RetryStats::default(),
            search_scratch: SearchScratch::default(),
            wave_scratch: WaveScratch::default(),
            cascade_scratch: CascadeScratch::default(),
            encode_scratch: Vec::new(),
            metrics: MetricsRegistry::default(),
            tracer: None,
        }
    }

    /// Encodes a value via the reusable scratch buffer (one buffer per
    /// service instead of a `format!` temporary per entry).
    fn encode_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        self.encode_scratch.clear();
        encode(&mut self.encode_scratch);
        Bytes::copy_from_slice(&self.encode_scratch)
    }

    /// [`encode_with`](Self::encode_with) for a target.
    fn encode_target(&mut self, target: &IndexTarget) -> Bytes {
        self.encode_with(|buf| target.encode_into(buf))
    }

    /// Attaches a metrics registry to the whole stack: the service itself
    /// (`index.*`, `retry.*`, and `dht.*` — every DHT call is metered
    /// here, once), every existing and future shortcut cache (`cache.*`),
    /// and the DHT substrate, for the series only it can see (`net.*`,
    /// `fault.*`, `load.*`, via [`Dht::set_metrics`]). Pass
    /// [`MetricsRegistry::disabled`] to turn recording back off.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics.clone();
        self.dht.set_metrics(metrics.clone());
        self.caches.set_metrics(metrics);
    }

    /// The attached metrics registry (disabled unless
    /// [`set_metrics`](Self::set_metrics) was called).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts recording a trace; every subsequent search/lookup adds spans
    /// until [`finish_trace`](Self::finish_trace) collects the tree.
    pub fn start_trace(&mut self, label: impl Into<String>) {
        self.tracer = Some(TraceRecorder::new(label));
    }

    /// Stops recording and returns the trace tree (`None` if
    /// [`start_trace`](Self::start_trace) was never called).
    pub fn finish_trace(&mut self) -> Option<Trace> {
        self.tracer.take().map(TraceRecorder::finish)
    }

    /// `true` while a trace recording is active.
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Replaces the retry policy and reseeds its jitter RNG.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
        self.retry_rng = SplitMix64::new(retry.seed);
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Counters for the retry work performed so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// The simulated clock: total backoff delay accumulated, in
    /// milliseconds (`retry_stats().backoff_ms`). Stays 0 on a healthy
    /// substrate.
    pub fn sim_clock_ms(&self) -> u64 {
        self.retry_stats.backoff_ms
    }

    /// Issues one DHT operation under the retry policy: transient faults
    /// are retried (with exponential, jittered, simulated-time backoff)
    /// while the attempt budget lasts; structural faults and exhausted
    /// budgets surface as errors.
    ///
    /// Semantically a unary call is a batch of one, and the per-attempt
    /// accounting (retry stats, metrics, trace events, backoff clock)
    /// is identical to [`dht_execute_many`](Self::dht_execute_many) on a
    /// singleton batch. It is implemented directly — not by allocating a
    /// one-element batch — because unary ops are the lookup hot path and
    /// the batch plumbing costs four `Vec` allocations per op.
    fn dht_execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        let may_retry = self.retry.max_attempts > 1;
        // Cloned only while a retry is actually possible, exactly like the
        // batched path's `retained` slots.
        let retained = if may_retry { Some(op.clone()) } else { None };
        let kind = op.kind();
        let before = self.stats_if_metered();
        let result = self.dht.execute(op);
        self.account(before, 1, &[kind], std::slice::from_ref(&result));
        match result {
            Ok(resp) => Ok(resp),
            Err(e) if e.is_transient() && may_retry => {
                let op = retained.expect("op retained while retries remain");
                self.retry_tail(kind, op)
            }
            Err(e) => {
                self.retry_stats.gave_up += 1;
                self.metrics.incr("retry.gave_up");
                Err(e)
            }
        }
    }

    /// Issues a batch of *independent* DHT operations under the retry
    /// policy. The whole batch goes to the substrate as one
    /// [`Dht::execute_many`] wave — on a networked substrate that is one
    /// pipelined frame pair per routed member — and ops that failed
    /// transiently then burn their remaining budget one at a time in op
    /// order. Per-op retry accounting (`retry.*` stats and metrics,
    /// trace events, the simulated backoff clock) is identical to the
    /// unary sequence, and each `DhtOp` is cloned only while a further
    /// retry is actually possible.
    fn dht_execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        if ops.is_empty() {
            return Vec::new();
        }
        let may_retry = self.retry.max_attempts > 1;
        // Taken out for the wave (retry tails need `&mut self`) and put
        // back emptied, so only their capacity outlives it.
        let WaveScratch {
            mut kinds,
            mut retained,
        } = std::mem::take(&mut self.wave_scratch);
        kinds.extend(ops.iter().map(DhtOp::kind));
        if may_retry {
            retained.extend(ops.iter().cloned().map(Some));
        }
        let before = self.stats_if_metered();
        let mut results = self.dht.execute_many(ops);
        self.account(before, 1, &kinds, &results);
        for (i, slot) in results.iter_mut().enumerate() {
            match slot {
                Ok(_) => {}
                Err(e) if e.is_transient() && may_retry => {
                    let op = retained[i]
                        .take()
                        .expect("op retained while retries remain");
                    *slot = self.retry_tail(kinds[i], op);
                }
                Err(_) => {
                    self.retry_stats.gave_up += 1;
                    self.metrics.incr("retry.gave_up");
                }
            }
        }
        kinds.clear();
        retained.clear();
        self.wave_scratch = WaveScratch { kinds, retained };
        results
    }

    /// Continues one op's retry loop after its first (batched) attempt
    /// failed transiently. Entered only when the budget allows at least
    /// one more attempt; the op is cloned only while yet another retry
    /// could follow the attempt being sent.
    fn retry_tail(&mut self, kind: &'static str, op: DhtOp) -> Result<DhtResponse, DhtError> {
        let mut attempt = 1u32;
        let mut pending = Some(op);
        loop {
            let delay = self.retry.backoff_ms(attempt, &mut self.retry_rng);
            self.retry_stats.backoff_ms = self.retry_stats.backoff_ms.saturating_add(delay);
            self.retry_stats.retries += 1;
            self.metrics.incr("retry.retries");
            self.metrics.add("retry.backoff_ms", delay);
            if let Some(t) = &mut self.tracer {
                t.event(format!("backoff {delay}ms, retrying"));
            }
            attempt += 1;
            let current = pending.take().expect("op retained while retries remain");
            let send = if attempt < self.retry.max_attempts {
                pending = Some(current.clone());
                current
            } else {
                current
            };
            let before = self.stats_if_metered();
            let result = self.dht.execute(send);
            self.account(before, attempt, &[kind], std::slice::from_ref(&result));
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {}
                Err(e) => {
                    self.retry_stats.gave_up += 1;
                    self.metrics.incr("retry.gave_up");
                    return Err(e);
                }
            }
        }
    }

    /// The substrate's work counters before a call, read only while
    /// metrics are on (the one thing [`account`](Self::account) needs
    /// them for).
    fn stats_if_metered(&self) -> Option<DhtStats> {
        self.metrics.is_enabled().then(|| self.dht.stats())
    }

    /// The one accounting of a DHT call, whichever of `dht_execute`,
    /// `dht_execute_many` and `retry_tail` issued it: for each op (of
    /// `kinds`, answered by `results`) one attempt in [`RetryStats`] and
    /// `retry.attempts`, one `dht.ops` and `dht.ops.{kind}`, a
    /// `dht.errors` if it failed, and its `dht {kind} …` trace event
    /// (`attempt` numbers a failure). With metrics on, `before` is the
    /// substrate's [`Dht::stats`] before the call, and the messages,
    /// lookups and hops the call moved go to `dht.messages`,
    /// `dht.lookups` and `dht.hops`.
    fn account(
        &mut self,
        before: Option<DhtStats>,
        attempt: u32,
        kinds: &[&'static str],
        results: &[Result<DhtResponse, DhtError>],
    ) {
        let count = results.len() as u64;
        self.retry_stats.attempts += count;
        if let Some(before) = before {
            let metrics = &self.metrics;
            metrics.add("retry.attempts", count);
            metrics.add("dht.ops", count);
            for (kind, result) in kinds.iter().zip(results) {
                metrics.incr(kind_counter(OpFamily::Dht, kind));
                if result.is_err() {
                    metrics.incr("dht.errors");
                }
            }
            let after = self.dht.stats();
            metrics.add("dht.messages", after.messages - before.messages);
            metrics.add("dht.lookups", after.lookups - before.lookups);
            metrics.add("dht.hops", after.hops - before.hops);
        }
        if let Some(t) = &mut self.tracer {
            for (kind, result) in kinds.iter().zip(results) {
                t.event(match result {
                    Ok(resp) => format!("dht {kind} -> {}", describe_response(resp)),
                    Err(e) => format!("dht {kind} attempt {attempt} -> {e}"),
                });
            }
        }
    }

    /// The DHT key of a query: `h(canonical text)`.
    ///
    /// Pure and allocation-free (the canonical text is part of the
    /// query), but always recomputes the SHA-1: right for a key used
    /// once, as every write's is. The lookup paths, which see the same
    /// queries again and again, use [`cached_key`](Self::cached_key).
    pub fn key_of(query: &Query) -> Key {
        Key::hash_of(query.canonical_text())
    }

    /// The DHT key of a query, interned: the SHA-1 is computed on the first
    /// sighting of each distinct query and served from the client's table
    /// of known queries afterwards (until the table's bound evicts it). The
    /// table caches a pure function of the query's canonical text, so
    /// entries can never go stale.
    pub fn cached_key(&mut self, query: &Query) -> Key {
        self.memo.rotate();
        self.memo.cached_key(query)
    }

    /// The underlying DHT (read-only).
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// The underlying DHT (mutable — e.g. for churn experiments).
    pub fn dht_mut(&mut self) -> &mut D {
        &mut self.dht
    }

    /// The active cache policy.
    pub fn policy(&self) -> CachePolicy {
        self.caches.policy()
    }

    /// Accumulated traffic counters.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// How many lookups each node has served (the Fig. 15 hot-spot data).
    pub fn node_query_counts(&self) -> &HashMap<NodeId, u64> {
        &self.node_queries
    }

    /// Per-node shortcut-cache sizes, for every live node (zero when a node
    /// has never cached anything).
    pub fn cache_sizes(&self) -> Vec<(NodeId, usize)> {
        self.caches.sizes(&self.dht.nodes())
    }

    /// Fraction of node caches that are at capacity / completely empty
    /// (`(full, empty)`), over all live nodes.
    pub fn cache_fill_fractions(&self) -> (f64, f64) {
        self.caches.fill_fractions(&self.dht.nodes())
    }

    /// Zeroes the traffic and per-node counters (cache contents are kept).
    pub fn reset_metrics(&mut self) {
        self.traffic = Traffic::new();
        self.node_queries.clear();
    }

    /// Publishes a file: stores it under its MSD key and installs all index
    /// edges produced by `scheme`. Returns the MSD.
    ///
    /// The file entry and every index edge are independent `Put`s, so the
    /// whole publication goes to the substrate as **one**
    /// [`Dht::execute_many`] wave — on a networked substrate that is one
    /// pipelined frame pair instead of a round trip per edge, the same
    /// batching win the multi-get lookup path gets.
    ///
    /// # Errors
    ///
    /// [`IndexError::EmptyNetwork`] without live nodes;
    /// [`IndexError::NotCovering`] if the scheme emits an edge `(from, to)`
    /// with `from ⋣ to` — every edge is validated up front, before any
    /// insert is issued, so a non-covering scheme publishes nothing at all.
    /// DHT faults surface as the first failed op's error; the other ops in
    /// the wave were still attempted (and retried) independently.
    pub fn publish(
        &mut self,
        descriptor: &Descriptor,
        file: impl AsRef<str>,
        scheme: &dyn IndexScheme,
    ) -> Result<Query, IndexError> {
        if self.dht.is_empty() {
            return Err(IndexError::EmptyNetwork);
        }
        let msd = Query::most_specific(descriptor);
        let edges = scheme.index_edges(descriptor, &msd);
        for (from, to) in &edges {
            if !from.covers(to) {
                return Err(IndexError::NotCovering {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
        }
        // Keys written here are hashed, not interned: a publisher writes
        // each key once, and remembering the query would make the read
        // memo the owner of every tree ever published.
        let mut ops = Vec::with_capacity(1 + edges.len());
        let msd_key = Self::key_of(&msd);
        let file_value = self.encode_with(|buf| encode_file_into(file.as_ref(), buf));
        ops.push(DhtOp::Put {
            key: msd_key,
            value: file_value,
        });
        // Edges sharing a target share its encoded entry (a `Bytes` clone
        // is a refcount bump), as in the cascade's remove wave: schemes end
        // several chains at the MSD and fan queries into shared
        // intermediate ones.
        for (i, (from, to)) in edges.iter().enumerate() {
            let encoded = edges[..i].iter().position(|(_, earlier)| earlier == to);
            let value = match encoded.map(|j| &ops[1 + j]) {
                Some(DhtOp::Put { value, .. }) => value.clone(),
                _ => self.encode_target(&IndexTarget::Query(to.clone())),
            };
            ops.push(DhtOp::Put {
                key: Self::key_of(from),
                value,
            });
        }
        for result in self.dht_execute_many(ops) {
            result?;
        }
        self.metrics.incr("index.publish");
        Ok(msd)
    }

    /// Installs one query-to-query mapping `(from ; to)`.
    ///
    /// This is also how the paper's manual "short-circuit" entries are
    /// created — e.g. `(q₆ ; d₁)` to speed up access to a popular file.
    ///
    /// # Errors
    ///
    /// [`IndexError::NotCovering`] unless `from ⊒ to`.
    pub fn insert_mapping(&mut self, from: Query, to: Query) -> Result<(), IndexError> {
        if !from.covers(&to) {
            return Err(IndexError::NotCovering {
                from: from.to_string(),
                to: to.to_string(),
            });
        }
        let from_key = Self::key_of(&from);
        let value = self.encode_target(&IndexTarget::Query(to));
        self.dht_execute(DhtOp::Put {
            key: from_key,
            value,
        })?;
        Ok(())
    }

    /// One user-system interaction: asks the node responsible for `h(q)`
    /// what it knows about `q`.
    ///
    /// The node answers **cache-first**: if its adaptive cache holds a
    /// shortcut for `q` it returns just that (the §IV-C "jump") — this is
    /// what lets popular lookups skip the long regular result lists and
    /// makes the cache *save* bandwidth (Fig. 12). When the shortcut does
    /// not lead to the data the user wants, the follow-up
    /// [`lookup_step_bypassing_cache`](Self::lookup_step_bypassing_cache)
    /// fetches the regular entries (more traffic, but the same logical
    /// user-system interaction).
    ///
    /// Counts node load and normal traffic.
    ///
    /// # Errors
    ///
    /// [`IndexError::EmptyNetwork`] without live nodes; [`IndexError::Decode`]
    /// if a stored entry is corrupt.
    pub fn lookup_step(&mut self, query: &Query) -> Result<StepResponse, IndexError> {
        self.memo.rotate();
        self.traced_lookup(query, true)
    }

    /// Like [`lookup_step`](Self::lookup_step), but skips the node's
    /// shortcut cache and returns the regular index entries — the
    /// follow-up a user sends when cached shortcuts did not lead to the
    /// data they were after.
    ///
    /// # Errors
    ///
    /// [`IndexError::EmptyNetwork`] without live nodes; [`IndexError::Decode`]
    /// if a stored entry is corrupt.
    pub fn lookup_step_bypassing_cache(
        &mut self,
        query: &Query,
    ) -> Result<StepResponse, IndexError> {
        self.memo.rotate();
        self.traced_lookup(query, false)
    }

    /// One unary lookup, inside its `lookup …` trace span. With
    /// `use_cache` the serving node answers cache-first; without it the
    /// node's shortcut cache is skipped entirely.
    fn traced_lookup(
        &mut self,
        query: &Query,
        use_cache: bool,
    ) -> Result<StepResponse, IndexError> {
        self.in_lookup_span(query, |service| {
            let key = service.memo.cached_key(query);
            let node = service.dht_execute(DhtOp::NodeFor(key));
            let get = |service: &mut Self| service.dht_execute(service.memo.read_op(key));
            service.read_reply(query, key, node, use_cache, get)
        })
    }

    /// Runs `lookup` inside a `lookup {query}` trace span closed with its
    /// outcome (when tracing is active; otherwise just runs it). Every
    /// user-system interaction opens exactly one such span, whether its
    /// DHT work was a unary exchange or a slot in a batched wave.
    fn in_lookup_span(
        &mut self,
        query: &Query,
        lookup: impl FnOnce(&mut Self) -> Result<StepResponse, IndexError>,
    ) -> Result<StepResponse, IndexError> {
        if let Some(t) = &mut self.tracer {
            t.open(format!("lookup {query}"));
        }
        let result = lookup(self);
        if let Some(t) = &mut self.tracer {
            match &result {
                Ok(reply) => t.event(format!(
                    "returned {} cached + {} indexed target(s)",
                    usize::from(reply.cached.is_some()),
                    reply.indexed.len()
                )),
                Err(e) => t.event(format!("failed: {e}")),
            }
            t.close();
        }
        result
    }

    /// Reads one interaction's reply from its `NodeFor` result — the code
    /// every lookup shares, unary or a slot of a batched wave: node load
    /// and the `served by` event; the cache probe of `key` with
    /// `use_cache`, the bypass count otherwise; the read of `key` (issued
    /// by `get`, and only when no shortcut answered) through the entry
    /// memo (`ReadMemo::read_entry`); the exchange's traffic,
    /// priced from the decoded targets whether or not any value crossed
    /// the wire.
    fn read_reply(
        &mut self,
        query: &Query,
        key: Key,
        node: Result<DhtResponse, DhtError>,
        use_cache: bool,
        get: impl FnOnce(&mut Self) -> Result<DhtResponse, DhtError>,
    ) -> Result<StepResponse, IndexError> {
        let node = node?.into_node().ok_or(IndexError::EmptyNetwork)?;
        *self.node_queries.entry(node).or_insert(0) += 1;
        if let Some(t) = &mut self.tracer {
            t.event(format!("served by {node}"));
        }

        let cached = if use_cache {
            self.metrics.incr("index.lookups.cached");
            let hit = self.caches.probe(node, &key);
            // A node that never cached anything still answers the probe:
            // count it as a miss so hit + miss == cached-mode lookups.
            let (counter, event) = match hit {
                None => ("index.cache_probe.miss", "cache probe: miss"),
                Some(_) => ("index.cache_probe.hit", "cache probe: hit (1 shortcut(s))"),
            };
            self.metrics.incr(counter);
            if let Some(t) = &mut self.tracer {
                t.event(event.to_string());
            }
            hit
        } else {
            self.metrics.incr("index.lookups.bypass");
            None
        };

        let (indexed, response) = match &cached {
            None => {
                let answer = get(self)?;
                self.memo.read_entry(key, answer)?
            }
            Some(shortcut) => (Arc::default(), shortcut.encoded_len() as u64),
        };
        let request = query.canonical_text().len() as u64;
        self.traffic.record_exchange(request, response);
        Ok(StepResponse {
            node: Some(node),
            cached,
            indexed,
        })
    }

    /// Batched sibling of
    /// [`lookup_step_bypassing_cache`](Self::lookup_step_bypassing_cache):
    /// resolves and fetches several independent queries through one
    /// [`Dht::execute_many`] wave — the multi-get a search sends once per
    /// level, for every query that level references. On a networked
    /// substrate the whole wave costs one pipelined frame pair per routed
    /// member instead of two frames per query. `queries` is drained and
    /// each query is handed to `sink`, in order, with its index entries as
    /// soon as [`read_reply`](Self::read_reply) has read them — the entry
    /// memo's, shared, so no reply gets a list of its own. `keys` is an
    /// empty buffer the wave's keys pass through, so each query is hashed
    /// once. `None` is a lookup abandoned to a DHT fault
    /// ([`or_abandoned`]); a hard error ends the wave. Single-query
    /// batches take this path too:
    /// on the networked client that pipelines the probe through
    /// `execute_many` like every other generalization wave instead of
    /// issuing a sequentially-dependent unary exchange.
    ///
    /// A recording trace sees exactly this wave — there is no traced
    /// variant of the search path: one `wave: …` span holds the batch's
    /// DHT events (retries included), then every query gets its own
    /// `lookup …` span read from its results (the span-per-interaction
    /// invariant the observability suite pins).
    fn lookup_many_bypassing_cache(
        &mut self,
        queries: &mut Vec<Query>,
        keys: &mut Vec<Key>,
        mut sink: impl FnMut(Query, Option<Arc<[IndexTarget]>>),
    ) -> Result<(), IndexError> {
        if queries.is_empty() {
            return Ok(());
        }
        // Interleave [NodeFor, read] per query — the op order the unary
        // sequence would issue. Fault injectors draw per-op randomness in
        // op order, so this keeps batched and unary runs comparable.
        let mut ops = Vec::with_capacity(queries.len() * 2);
        for query in queries.iter() {
            let key = self.memo.cached_key(query);
            keys.push(key);
            ops.push(DhtOp::NodeFor(key));
            ops.push(self.memo.read_op(key));
        }
        if let Some(t) = &mut self.tracer {
            t.open(format!("wave: {} lookup(s)", queries.len()));
        }
        let mut raw = self.dht_execute_many(ops).into_iter();
        if let Some(t) = &mut self.tracer {
            t.close();
        }
        for (query, key) in queries.drain(..).zip(keys.drain(..)) {
            let node = raw.next().expect("one NodeFor result per query");
            let got = raw.next().expect("one read result per query");
            let reply = self.in_lookup_span(&query, |service| {
                service.read_reply(&query, key, node, false, |_| got)
            });
            sink(query, or_abandoned(reply)?.map(|reply| reply.indexed));
        }
        Ok(())
    }

    /// Creates shortcut cache entries for a successful lookup, following
    /// the configured policy (§IV-C / §V-D):
    ///
    /// * `Multi` — on every `(node, query)` step of `path`;
    /// * `Single` / `Lru(k)` — only on the first node contacted;
    /// * `None` — nowhere.
    ///
    /// Steps whose query *is* the target are skipped (a shortcut from the
    /// MSD to itself would be useless). Returns the number of entries
    /// created; each creation is accounted as cache traffic.
    pub fn create_shortcuts(&mut self, path: &[(NodeId, Query)], target: &IndexTarget) -> usize {
        self.memo.rotate();
        let mut created = 0;
        for (node, query) in self.caches.shortcut_steps(path) {
            if Some(query) == target.as_query() {
                continue;
            }
            let key = self.memo.cached_key(query);
            if self.caches.install(*node, key, target) {
                self.traffic.record_cache_update(
                    (query.canonical_text().len() + target.encoded_len()) as u64,
                );
                created += 1;
                if let Some(t) = &mut self.tracer {
                    t.event(format!("shortcut installed at {node} for {query}"));
                }
            }
        }
        created
    }

    /// Automated search (§IV-B): recursively explores the indexes and
    /// returns *all* files matching `query`.
    ///
    /// If the query is not indexed anywhere, the service generalizes it —
    /// dropping predicates breadth-first until an indexed ancestor is found
    /// — and then specializes back down, filtering results against the
    /// original query (§V "locating non-indexed data"). Found files always
    /// satisfy the original query; the extra lookups are reported in
    /// [`SearchReport::generalization_steps`].
    ///
    /// The search is level-synchronous: all the lookups one generalization
    /// level or one index level needs are independent, so each level is a
    /// single batched wave and the search waits on
    /// [`SearchReport::rounds`] = 1 (entry probe) + generalization levels
    /// + index levels round trips, however many index nodes it visits.
    ///
    /// No interaction builds a target list of its own: each reply is read
    /// through the entry memo, so an entry read before and unchanged since
    /// is its memo copy (a refcount bump) and only a new or changed entry
    /// is decoded. A child query costs `Arc` bumps and a file is copied
    /// only into its [`FileHit`].
    ///
    /// This method neither creates nor consults cache shortcuts: automated
    /// exhaustive search must see the full index (shortcuts only cover
    /// previously-searched files) and its results therefore never depend on
    /// cache state. Interactive callers that want adaptive caching drive
    /// [`lookup_step`](Self::lookup_step) and
    /// [`create_shortcuts`](Self::create_shortcuts) directly, as the
    /// simulator's user model does.
    ///
    /// # Errors
    ///
    /// [`IndexError::EmptyNetwork`] without live nodes; [`IndexError::Decode`]
    /// on corrupt entries. Sub-lookups that fail with a DHT fault even
    /// after the retry policy was exhausted do **not** abort the search:
    /// the branch is abandoned, recorded in
    /// [`SearchReport::completeness`], and the remaining branches are
    /// still explored — a degraded-but-useful answer instead of an error.
    pub fn search(&mut self, query: &Query) -> Result<SearchReport, IndexError> {
        self.memo.rotate();
        if self.tracer.is_some() {
            let label = format!("search {query}");
            if let Some(t) = &mut self.tracer {
                t.open(label);
            }
        }
        self.metrics.incr("index.searches");
        let result = self.search_inner(query);
        if let Ok(report) = &result {
            self.metrics
                .add("index.search.interactions", u64::from(report.interactions));
            self.metrics.add(
                "index.search.generalization_steps",
                u64::from(report.generalization_steps),
            );
            self.metrics
                .add("index.search.rounds", u64::from(report.rounds));
            self.metrics.add(
                "index.search.abandoned",
                u64::from(report.completeness.abandoned),
            );
            self.metrics.observe(
                "search.interactions_per_query",
                u64::from(report.interactions),
            );
            self.metrics
                .observe("search.files_per_query", report.files.len() as u64);
        }
        if let Some(t) = &mut self.tracer {
            match &result {
                Ok(r) => t.event(format!(
                    "result: {} file(s), {} interaction(s), {} generalization step(s){}",
                    r.files.len(),
                    r.interactions,
                    r.generalization_steps,
                    if r.is_partial() { ", partial" } else { "" }
                )),
                Err(e) => t.event(format!("failed: {e}")),
            }
            t.close();
        }
        result
    }

    fn search_inner(&mut self, query: &Query) -> Result<SearchReport, IndexError> {
        // The BFS state lives in service-owned scratch buffers so repeated
        // searches reuse their allocations instead of growing fresh
        // sets/queues per query. Taken out for the duration of the search
        // (the buffers hold no borrows) and put back even on error.
        let mut scratch = std::mem::take(&mut self.search_scratch);
        let result = self.search_with_scratch(query, &mut scratch);
        scratch.clear();
        self.search_scratch = scratch;
        result
    }

    fn search_with_scratch(
        &mut self,
        query: &Query,
        scratch: &mut SearchScratch,
    ) -> Result<SearchReport, IndexError> {
        let retry_before = self.retry_stats;
        let mut report = SearchReport::default();
        let SearchScratch {
            visited,
            queue,
            seen,
            frontier,
            level,
            children,
            keys,
        } = scratch;

        // Phase 1: find indexed entry points — the query itself, or
        // (for non-indexed queries) its generalizations, breadth-first.
        // An abandoned first lookup reads as "not indexed": generalization
        // may still reach the data through another index branch.
        report.interactions += 1;
        report.rounds += 1;
        let first = match or_abandoned(self.traced_lookup(query, false))? {
            Some(reply) => reply.indexed,
            None => {
                report.completeness.abandoned += 1;
                Arc::default()
            }
        };
        let query_not_indexed = first.is_empty();
        visited.insert(query.clone());
        queue.push_back((query.clone(), first));
        if query_not_indexed {
            query.generalizations_into(frontier);
            // Each generalization level is a wave of independent probes:
            // the whole level goes through one batched multi-get (one
            // pipelined frame pair per routed member on a networked
            // substrate) and the replies are consumed in chain order, so
            // the first indexed ancestor found is the same one the
            // one-probe-at-a-time loop would have entered through.
            let mut entered = false;
            while !entered && !frontier.is_empty() {
                level.clear();
                for g in frontier.drain(..) {
                    if seen.insert(g.clone()) {
                        level.push(g);
                    }
                }
                for g in level.iter() {
                    report.generalization_steps += 1;
                    report.interactions += 1;
                    if let Some(t) = &mut self.tracer {
                        t.event(format!("generalize -> {g}"));
                    }
                }
                report.rounds += 1;
                self.lookup_many_bypassing_cache(level, keys, |g, reply| {
                    if entered {
                        return;
                    }
                    match reply {
                        Some(indexed) if !indexed.is_empty() => {
                            if visited.insert(g.clone()) {
                                queue.push_back((g, indexed));
                                entered = true;
                            }
                        }
                        Some(_) => g.generalizations_into(frontier),
                        None => {
                            report.completeness.abandoned += 1;
                            g.generalizations_into(frontier);
                        }
                    }
                })?;
            }
        }

        // Phase 2: breadth-first specialization over index entries, one
        // level at a time. The queue holds one index level; the fresh
        // child queries referenced from anywhere in it are independent,
        // so the whole next level is one batched multi-get — one round
        // trip per index level, not per index node. FIFO order is level
        // order, so scanning the level in queue order visits, dedups and
        // reports in the order a node-at-a-time BFS would.
        while !queue.is_empty() {
            // Room for every file this level references, made once.
            let level_files = queue.iter().flat_map(|(_, indexed)| indexed.iter());
            report.files.reserve(
                level_files
                    .filter(|target| matches!(target, IndexTarget::File(_)))
                    .count(),
            );
            for (current, indexed) in queue.drain(..) {
                // `visited` admits each node once, so a duplicate hit can
                // only come from this node's own value list.
                let node_hits = report.files.len();
                for target in indexed.iter() {
                    match target {
                        IndexTarget::File(file) => {
                            // `current` is the MSD the file is stored under; it
                            // matches the original query iff the query covers it.
                            if query.covers(&current)
                                && !report.files[node_hits..]
                                    .iter()
                                    .any(|hit| *hit.file == **file)
                            {
                                report.files.push(FileHit {
                                    msd: current.clone(),
                                    file: String::from(&**file),
                                });
                            }
                        }
                        IndexTarget::Query(q) => {
                            if visited.insert(q.clone()) {
                                children.push(q.clone());
                            }
                        }
                    }
                }
            }
            if children.is_empty() {
                break;
            }
            report.interactions += children.len() as u32;
            report.rounds += 1;
            self.lookup_many_bypassing_cache(children, keys, |child, reply| match reply {
                Some(indexed) => queue.push_back((child, indexed)),
                None => report.completeness.abandoned += 1,
            })?;
        }

        let delta = self.retry_stats;
        report.completeness.attempts = delta.attempts - retry_before.attempts;
        report.completeness.retries = delta.retries - retry_before.retries;
        report.completeness.backoff_ms = delta.backoff_ms - retry_before.backoff_ms;
        Ok(report)
    }

    /// Removes a published file and cleans up after it ("when deleting
    /// the last mapping for a given key, we can recursively delete the
    /// references to that key", §IV-C). Returns the MSD the file was
    /// stored under.
    ///
    /// The file's `Remove` goes first, as one unary exchange; once it has
    /// succeeded, every shortcut-cache entry that leads to the file is
    /// purged, whatever the cleanup below then does. The cleanup is the
    /// *semi-naive* form of the fixpoint "remove every index edge whose
    /// target key holds no entry", run in passes of two batched waves:
    ///
    /// * a **read wave** of quorum `Get`s, one per distinct key: in pass 1
    ///   every edge's `to` key, afterwards only the keys the last pass
    ///   could have emptied — the `from` keys of its edges whose `Remove`
    ///   reported the value present that are themselves some edge's `to`;
    /// * a **remove wave** with every edge whose `to` key read empty and
    ///   that was not already sent, edges sharing a `to` sharing its
    ///   encoded entry.
    ///
    /// A wave is all reads or all writes, so a replicated substrate
    /// never trades a read's quorum for write ordering. Each edge's
    /// `Remove` is sent at most once per call, so the cascade ends after
    /// at most one pass per edge — self-loops and cycles included — with no
    /// ordering of the edges. Entries only ever shrink during the call,
    /// so a key's last read is its final state, and the result is the
    /// naive fixpoint's (re-read every edge's target, repeat until a
    /// pass removes nothing) from any starting store, edges an
    /// interrupted earlier call left dangling included: pass 1 reads
    /// every target, so calling `unpublish` again completes the cleanup.
    /// Both hold while no other writer touches those keys during the
    /// call. A no-op unpublish costs three round trips: the file's
    /// `Remove`, one read wave, one remove wave.
    ///
    /// # Errors
    ///
    /// [`IndexError::EmptyNetwork`] without live nodes. DHT faults surface
    /// as the first failed op's error once the rest of its wave was
    /// attempted (and retried) independently, as in
    /// [`publish`](Self::publish); no further wave is sent.
    pub fn unpublish(
        &mut self,
        descriptor: &Descriptor,
        file: &str,
        scheme: &dyn IndexScheme,
    ) -> Result<Query, IndexError> {
        if self.dht.is_empty() {
            return Err(IndexError::EmptyNetwork);
        }
        let msd = Query::most_specific(descriptor);
        let msd_key = Self::key_of(&msd);
        let value = self.encode_with(|buf| encode_file_into(file, buf));
        self.dht_execute(DhtOp::Remove {
            key: msd_key,
            value,
        })?;
        self.caches.purge(&msd, file);

        let edges = scheme.index_edges(descriptor, &msd);
        // Taken out for the cascade (its waves need `&mut self`) and put
        // back emptied, even on error.
        let mut scratch = std::mem::take(&mut self.cascade_scratch);
        let result = self.cascade(&edges, &mut scratch);
        scratch.clear();
        self.cascade_scratch = scratch;
        result?;
        self.metrics.incr("index.unpublish");
        Ok(msd)
    }

    /// [`unpublish`](Self::unpublish)'s cleanup of `edges`, pass by pass.
    fn cascade(
        &mut self,
        edges: &[(Query, Query)],
        scratch: &mut CascadeScratch,
    ) -> Result<(), IndexError> {
        let CascadeScratch {
            keys,
            attempted,
            pending,
            removing,
        } = scratch;
        keys.extend(
            edges
                .iter()
                .map(|(from, to)| (Self::key_of(from), Self::key_of(to))),
        );
        attempted.resize(edges.len(), false);
        for &(_, to) in keys.iter() {
            if !pending.contains(&to) {
                pending.push(to);
            }
        }
        while !pending.is_empty() {
            let reads = pending.iter().map(|&key| DhtOp::Get(key)).collect();
            let results = self.dht_execute_many(reads);
            // Every edge not sent yet whose target read empty; edges
            // sharing a target share its encoded entry.
            let mut removes = Vec::with_capacity(keys.len());
            for (&target, result) in pending.iter().zip(results) {
                if !result?.into_values().is_empty() {
                    continue;
                }
                let mut entry: Option<Bytes> = None;
                for (i, &(from, to)) in keys.iter().enumerate() {
                    if to != target || attempted[i] {
                        continue;
                    }
                    attempted[i] = true;
                    let value = entry
                        .get_or_insert_with(|| {
                            self.encode_target(&IndexTarget::Query(edges[i].1.clone()))
                        })
                        .clone();
                    removing.push(from);
                    removes.push(DhtOp::Remove { key: from, value });
                }
            }
            pending.clear();

            let results = self.dht_execute_many(removes);
            // Only a removal that found its value can have emptied `from`,
            // and only an edge's target is worth reading again.
            for (&from, result) in removing.iter().zip(results) {
                let emptiable = keys.iter().any(|&(_, to)| to == from);
                if result?.into_removed() && emptiable && !pending.contains(&from) {
                    pending.push(from);
                }
            }
            removing.clear();
        }
        Ok(())
    }
}

/// A search sub-lookup's outcome: `None` when it failed with a DHT fault
/// even after retrying — the branch is abandoned, not the search; hard
/// errors still propagate.
fn or_abandoned<T>(result: Result<T, IndexError>) -> Result<Option<T>, IndexError> {
    match result {
        Ok(resp) => Ok(Some(resp)),
        Err(IndexError::Dht(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// A short human-readable rendering of a DHT response for trace events.
fn describe_response(resp: &DhtResponse) -> String {
    match resp {
        DhtResponse::Node(n) => n.to_string(),
        DhtResponse::Stored(new) => format!("stored (new: {new})"),
        DhtResponse::Values(v) => format!("{} value(s)", v.len()),
        DhtResponse::Removed(found) => format!("removed (found: {found})"),
        DhtResponse::Digest { count, sum } => format!("digest of {count} value(s): {sum:016x}"),
    }
}

#[cfg(test)]
mod tests {
    use p2p_index_dht::{DhtStats, RingDht};

    use super::*;
    use crate::scheme::{ComplexScheme, Fig4Scheme, FlatScheme, SimpleScheme};

    fn descriptor(first: &str, last: &str, title: &str, conf: &str, year: &str) -> Descriptor {
        Descriptor::parse(&format!(
            "<article><author><first>{first}</first><last>{last}</last></author>\
             <title>{title}</title><conf>{conf}</conf><year>{year}</year></article>"
        ))
        .unwrap()
    }

    fn service(policy: CachePolicy) -> IndexService<RingDht> {
        IndexService::new(RingDht::with_named_nodes(64), policy)
    }

    fn publish_figure1<D: Dht>(s: &mut IndexService<D>, scheme: &dyn IndexScheme) {
        s.publish(
            &descriptor("John", "Smith", "TCP", "SIGCOMM", "1989"),
            "x.pdf",
            scheme,
        )
        .unwrap();
        s.publish(
            &descriptor("John", "Smith", "IPv6", "INFOCOM", "1996"),
            "y.pdf",
            scheme,
        )
        .unwrap();
        s.publish(
            &descriptor("Alan", "Doe", "Wavelets", "INFOCOM", "1996"),
            "z.pdf",
            scheme,
        )
        .unwrap();
    }

    #[test]
    fn key_cache_memoises_reads_never_writes() {
        let mut s = service(CachePolicy::None);
        let descriptors: Vec<Descriptor> = (0..100)
            .map(|i| {
                descriptor(
                    &format!("F{i}"),
                    &format!("L{}", i % 10),
                    &format!("T{i}"),
                    "ICDCS",
                    &format!("{}", 2000 + i % 4),
                )
            })
            .collect();
        for (i, d) in descriptors.iter().enumerate() {
            s.publish(d, format!("file-{i}.pdf"), &SimpleScheme)
                .unwrap();
        }
        let conf: Query = "/article/conf/ICDCS".parse().unwrap();
        let conf_2001: Query = "/article[conf/ICDCS][year/2001]".parse().unwrap();
        s.insert_mapping(conf.clone(), conf_2001.clone()).unwrap();
        s.unpublish(&descriptors[0], "file-0.pdf", &SimpleScheme)
            .unwrap();
        assert!(s.memo.interned().is_empty(), "writes hash their keys once");

        // A lookup adds the queries it steps through — the asker's query,
        // not a copy of it — and the query targets its reply names, as
        // decoded: conf's reply names its four conf+year queries.
        let named = |step: &StepResponse| -> Vec<Query> {
            step.indexed
                .iter()
                .filter_map(IndexTarget::as_query)
                .cloned()
                .collect()
        };
        let conf_step = s.lookup_step(&conf).unwrap();
        assert!(conf_step
            .indexed
            .contains(&IndexTarget::Query(conf_2001.clone())));
        let mut known: Vec<Query> = named(&conf_step);
        known.push(conf.clone());
        known.sort();
        assert_eq!(s.memo.interned(), known.iter().collect::<Vec<_>>());
        assert_eq!(known.len(), 1 + 4);
        // conf_2001's reply names its 25 MSDs; asking conf again adds nothing.
        let step = s.lookup_step(&conf_2001).unwrap();
        known.extend(named(&step));
        s.lookup_step(&conf).unwrap();
        known.sort();
        let interned = s.memo.interned();
        assert_eq!(interned, known.iter().collect::<Vec<_>>());
        assert_eq!(interned.len(), 1 + 4 + 25);
        let held = |q: &Query| interned.iter().find(|k| **k == q).unwrap().canonical_text();
        assert!(std::ptr::eq(held(&conf), conf.canonical_text()));
        // conf_2001 is the copy conf's reply decoded, not the asker's.
        let decoded = conf_step.indexed.iter().filter_map(IndexTarget::as_query);
        let decoded_2001 = decoded.into_iter().find(|q| **q == conf_2001);
        assert!(std::ptr::eq(
            held(&conf_2001),
            decoded_2001.unwrap().canonical_text()
        ));
        assert!(!std::ptr::eq(held(&conf_2001), conf_2001.canonical_text()));
    }

    #[test]
    fn publish_and_search_by_author() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let report = s
            .search(&"/article/author[first/John][last/Smith]".parse().unwrap())
            .unwrap();
        let mut files: Vec<&str> = report.files.iter().map(|h| h.file.as_str()).collect();
        files.sort();
        assert_eq!(files, vec!["x.pdf", "y.pdf"]);
        assert!(!report.generalized());
        assert!(report.interactions >= 3);
    }

    #[test]
    fn search_by_conference() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let report = s.search(&"/article/conf/INFOCOM".parse().unwrap()).unwrap();
        let mut files: Vec<&str> = report.files.iter().map(|h| h.file.as_str()).collect();
        files.sort();
        assert_eq!(files, vec!["y.pdf", "z.pdf"]);
    }

    #[test]
    fn search_via_msd_fetches_file_directly() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let d = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        let msd = Query::most_specific(&d);
        let report = s.search(&msd).unwrap();
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.files[0].file, "x.pdf");
        assert_eq!(report.interactions, 1);
    }

    #[test]
    fn search_unmatched_query_finds_nothing() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let report = s
            .search(&"/article/author/last/Nobody".parse().unwrap())
            .unwrap();
        assert!(report.files.is_empty());
    }

    #[test]
    fn non_indexed_query_recovers_via_generalization() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        // author+year is indexed by no scheme: recoverable error.
        let q: Query = "/article[author[first/John][last/Smith]][year/1996]"
            .parse()
            .unwrap();
        let report = s.search(&q).unwrap();
        assert!(report.generalized());
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.files[0].file, "y.pdf");
    }

    #[test]
    fn generalization_filters_by_original_query() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        // John Smith published in 1989 only x.pdf; generalizing to the
        // author index must not leak the 1996 paper.
        let q: Query = "/article[author[first/John][last/Smith]][year/1989]"
            .parse()
            .unwrap();
        let report = s.search(&q).unwrap();
        assert_eq!(report.files.len(), 1);
        assert_eq!(report.files[0].file, "x.pdf");
    }

    #[test]
    fn flat_scheme_needs_fewer_interactions() {
        let mut simple = service(CachePolicy::None);
        publish_figure1(&mut simple, &SimpleScheme);
        let mut flat = service(CachePolicy::None);
        publish_figure1(&mut flat, &FlatScheme);
        let q: Query = "/article/author[first/Alan][last/Doe]".parse().unwrap();
        let rs = simple.search(&q).unwrap();
        let rf = flat.search(&q).unwrap();
        assert_eq!(rs.files, rf.files);
        assert!(rf.interactions < rs.interactions);
    }

    #[test]
    fn insert_mapping_rejects_non_covering() {
        let mut s = service(CachePolicy::None);
        let err = s
            .insert_mapping(
                "/article/title/TCP".parse().unwrap(),
                "/article/title/IPv6".parse().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, IndexError::NotCovering { .. }));
        assert!(err.to_string().contains("covering"));
    }

    #[test]
    fn manual_short_circuit_entry() {
        // The paper's (q6; d1) example: a direct link from a broad query to
        // a popular file's MSD.
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let d = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        let msd = Query::most_specific(&d);
        let q6: Query = "/article/author/last/Smith".parse().unwrap();
        s.insert_mapping(q6.clone(), msd.clone()).unwrap();
        let resp = s.lookup_step(&q6).unwrap();
        assert!(resp.indexed.contains(&IndexTarget::Query(msd)));
    }

    #[test]
    fn empty_network_errors() {
        let mut s = IndexService::new(RingDht::new(), CachePolicy::None);
        let d = descriptor("A", "B", "T", "C", "2000");
        assert_eq!(
            s.publish(&d, "f", &SimpleScheme).unwrap_err(),
            IndexError::EmptyNetwork
        );
        assert_eq!(
            s.lookup_step(&"/article".parse().unwrap()).unwrap_err(),
            IndexError::EmptyNetwork
        );
        assert_eq!(
            s.unpublish(&d, "f", &SimpleScheme).unwrap_err(),
            IndexError::EmptyNetwork
        );
    }

    #[test]
    fn lookup_counts_node_load_and_traffic() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        s.reset_metrics();
        let q: Query = "/article/author/last/Smith".parse().unwrap();
        s.lookup_step(&q).unwrap();
        assert_eq!(s.node_query_counts().values().sum::<u64>(), 1);
        assert!(s.traffic().normal_bytes > 0);
        assert_eq!(s.traffic().cache_bytes, 0);
    }

    #[test]
    fn shortcuts_single_policy_first_node_only() {
        let mut s = service(CachePolicy::Single);
        publish_figure1(&mut s, &SimpleScheme);
        let q1: Query = "/article/conf/INFOCOM".parse().unwrap();
        let q2: Query = "/article[conf/INFOCOM][year/1996]".parse().unwrap();
        let n1 = s
            .dht()
            .owner(&IndexService::<RingDht>::key_of(&q1))
            .unwrap();
        let n2 = s
            .dht()
            .owner(&IndexService::<RingDht>::key_of(&q2))
            .unwrap();
        let msd = Query::most_specific(&descriptor("Alan", "Doe", "Wavelets", "INFOCOM", "1996"));
        let target = IndexTarget::Query(msd);
        let created = s.create_shortcuts(&[(n1, q1.clone()), (n2, q2.clone())], &target);
        assert_eq!(created, 1);
        // Only the first node caches.
        let resp = s.lookup_step(&q1).unwrap();
        assert_eq!(resp.cached, Some(target));
        let resp2 = s.lookup_step(&q2).unwrap();
        assert_eq!(resp2.cached, None);
    }

    #[test]
    fn a_cache_hit_hides_the_regular_entries_until_a_bypassing_lookup() {
        // Cache-first (§IV-C): a node holding a shortcut answers with it
        // alone; the follow-up that bypasses the cache lists the index.
        let mut s = service(CachePolicy::Single);
        publish_figure1(&mut s, &SimpleScheme);
        let q: Query = "/article/author[first/John][last/Smith]".parse().unwrap();
        let n = s.dht().owner(&IndexService::<RingDht>::key_of(&q)).unwrap();
        let msd = Query::most_specific(&descriptor("John", "Smith", "TCP", "SIGCOMM", "1989"));
        let target = IndexTarget::Query(msd);
        assert_eq!(s.create_shortcuts(&[(n, q.clone())], &target), 1);
        let hit = s.lookup_step(&q).unwrap();
        assert_eq!(hit.cached, Some(target));
        assert!(hit.indexed.is_empty(), "the shortcut alone");
        let full = s.lookup_step_bypassing_cache(&q).unwrap();
        assert_eq!(full.cached, None);
        assert_eq!(
            full.indexed.len(),
            2,
            "John Smith's two author+title entries"
        );
    }

    #[test]
    fn shortcuts_multi_policy_whole_path() {
        let mut s = service(CachePolicy::Multi);
        publish_figure1(&mut s, &SimpleScheme);
        let q1: Query = "/article/conf/INFOCOM".parse().unwrap();
        let q2: Query = "/article[conf/INFOCOM][year/1996]".parse().unwrap();
        let n1 = s
            .dht()
            .owner(&IndexService::<RingDht>::key_of(&q1))
            .unwrap();
        let n2 = s
            .dht()
            .owner(&IndexService::<RingDht>::key_of(&q2))
            .unwrap();
        let msd = Query::most_specific(&descriptor("Alan", "Doe", "Wavelets", "INFOCOM", "1996"));
        let target = IndexTarget::Query(msd);
        let created = s.create_shortcuts(&[(n1, q1.clone()), (n2, q2.clone())], &target);
        assert_eq!(created, 2);
        assert!(s.lookup_step(&q1).unwrap().cached.is_some());
        assert!(s.lookup_step(&q2).unwrap().cached.is_some());
        assert!(s.traffic().cache_bytes > 0);
    }

    #[test]
    fn shortcut_skips_target_query_step() {
        let mut s = service(CachePolicy::Multi);
        publish_figure1(&mut s, &SimpleScheme);
        let msd = Query::most_specific(&descriptor("John", "Smith", "TCP", "SIGCOMM", "1989"));
        let n = s
            .dht()
            .owner(&IndexService::<RingDht>::key_of(&msd))
            .unwrap();
        let created = s.create_shortcuts(&[(n, msd.clone())], &IndexTarget::Query(msd));
        assert_eq!(created, 0);
    }

    #[test]
    fn no_cache_policy_creates_nothing() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let q: Query = "/article/conf/INFOCOM".parse().unwrap();
        let n = s.dht().owner(&IndexService::<RingDht>::key_of(&q)).unwrap();
        let created = s.create_shortcuts(&[(n, q)], &IndexTarget::File("z.pdf".into()));
        assert_eq!(created, 0);
        assert_eq!(s.traffic().cache_bytes, 0);
    }

    #[test]
    fn unpublish_removes_file_and_cascades() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let d1 = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        s.unpublish(&d1, "x.pdf", &SimpleScheme).unwrap();

        // x.pdf is gone; y.pdf still reachable through the shared author path.
        let by_author = s
            .search(&"/article/author[first/John][last/Smith]".parse().unwrap())
            .unwrap();
        let files: Vec<&str> = by_author.files.iter().map(|h| h.file.as_str()).collect();
        assert_eq!(files, vec!["y.pdf"]);

        // The title chain for TCP is fully cleaned up.
        let by_title = s.search(&"/article/title/TCP".parse().unwrap()).unwrap();
        assert!(by_title.files.is_empty());
        let resp = s
            .lookup_step(&"/article/title/TCP".parse().unwrap())
            .unwrap();
        assert!(resp.is_empty(), "dangling title entry should be removed");

        // SIGCOMM/1989 chain also cleaned (only x.pdf used it).
        let resp = s
            .lookup_step(&"/article/conf/SIGCOMM".parse().unwrap())
            .unwrap();
        assert!(resp.is_empty());
        // INFOCOM chain untouched.
        let resp = s
            .lookup_step(&"/article/conf/INFOCOM".parse().unwrap())
            .unwrap();
        assert!(!resp.is_empty());
    }

    #[test]
    fn unpublish_purges_dangling_shortcuts() {
        let mut s = service(CachePolicy::Single);
        publish_figure1(&mut s, &SimpleScheme);
        let d1 = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        let msd = Query::most_specific(&d1);
        let q: Query = "/article/title/TCP".parse().unwrap();
        let n = s.dht().owner(&IndexService::<RingDht>::key_of(&q)).unwrap();
        s.create_shortcuts(&[(n, q.clone())], &IndexTarget::Query(msd));
        assert!(s.lookup_step(&q).unwrap().cached.is_some());
        // Shortcuts straight to a file handle: x.pdf's dangles once x.pdf
        // is gone, y.pdf's does not.
        let file_shortcut = |s: &mut IndexService<RingDht>, query: &str, file: &str| {
            let query: Query = query.parse().unwrap();
            let n = s
                .dht()
                .owner(&IndexService::<RingDht>::key_of(&query))
                .unwrap();
            s.create_shortcuts(&[(n, query.clone())], &IndexTarget::File(file.into()));
            query
        };
        let to_x = file_shortcut(&mut s, "/article/conf/SIGCOMM", "x.pdf");
        let to_y = file_shortcut(&mut s, "/article/conf/INFOCOM", "y.pdf");
        s.unpublish(&d1, "x.pdf", &SimpleScheme).unwrap();
        assert!(s.lookup_step(&q).unwrap().cached.is_none());
        assert!(s.lookup_step(&to_x).unwrap().cached.is_none());
        assert_eq!(
            s.lookup_step(&to_y).unwrap().cached,
            Some(IndexTarget::File("y.pdf".into()))
        );
    }

    // ---- unpublish's cascade ------------------------------------------

    /// A ring that counts the calls the service makes into it — one per
    /// unary exchange or batched wave, so one per round trip — and, while
    /// `failing` is set, answers every op after the first `Remove` with a
    /// timeout.
    #[derive(Debug)]
    struct Probe {
        ring: RingDht,
        calls: usize,
        failing: bool,
        removed: bool,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                ring: RingDht::with_named_nodes(64),
                calls: 0,
                failing: false,
                removed: false,
            }
        }

        fn answer(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
            if self.failing && self.removed {
                return Err(DhtError::Timeout);
            }
            self.removed |= matches!(op, DhtOp::Remove { .. });
            self.ring.execute(op)
        }
    }

    impl Dht for Probe {
        fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
            self.calls += 1;
            self.answer(op)
        }

        fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
            self.calls += 1;
            ops.into_iter().map(|op| self.answer(op)).collect()
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

    /// The Figure 1 article, and a second one by the same author.
    fn publish_two_articles<D: Dht>(s: &mut IndexService<D>, scheme: &dyn IndexScheme) {
        s.publish(&figure1(), "x.pdf", scheme).unwrap();
        let second = descriptor("John", "Smith", "IPv6", "INFOCOM", "1996");
        s.publish(&second, "y.pdf", scheme).unwrap();
    }

    fn figure1() -> Descriptor {
        descriptor("John", "Smith", "TCP", "SIGCOMM", "1989")
    }

    /// Never published beside [`publish_two_articles`]: it shares only its
    /// conference and year.
    fn unpublished() -> Descriptor {
        descriptor("Alan", "Doe", "Wavelets", "INFOCOM", "1996")
    }

    /// Messages of a real unpublish (the Figure 1 article) and of a
    /// never-published one, per scheme. The naive fixpoint this cascade
    /// replaced re-read every edge's target once per pass and ended on a
    /// pass that removed nothing: 66/22 (simple), 50/26 (flat), 130/34
    /// (complex) and 72/26 (Fig. 4).
    #[test]
    fn unpublish_messages_are_pinned_per_scheme() {
        let pins: [(&dyn IndexScheme, u64, u64); 4] = [
            (&SimpleScheme, 24, 16),
            (&FlatScheme, 16, 16),
            (&ComplexScheme, 38, 26),
            (&Fig4Scheme, 28, 20),
        ];
        for (scheme, real, never) in pins {
            let mut s = service(CachePolicy::None);
            publish_two_articles(&mut s, scheme);
            let before = s.dht().stats().messages;
            s.unpublish(&figure1(), "x.pdf", scheme).unwrap();
            let after_real = s.dht().stats().messages;
            s.unpublish(&unpublished(), "z.pdf", scheme).unwrap();
            let after_never = s.dht().stats().messages;
            assert_eq!(
                (after_real - before, after_never - after_real),
                (real, never),
                "{}",
                scheme.name()
            );
        }
    }

    /// Round trips of the Figure 1 unpublish under the simple scheme: the
    /// file's `Remove`, then two passes of a read wave and a remove wave.
    /// The naive fixpoint made 33, one unary exchange per op. A
    /// never-published article costs 3 (it was 11).
    #[test]
    fn unpublish_round_trips_are_pinned() {
        let mut s = IndexService::new(Probe::new(), CachePolicy::None);
        publish_two_articles(&mut s, &SimpleScheme);
        let before = s.dht().calls;
        s.unpublish(&figure1(), "x.pdf", &SimpleScheme).unwrap();
        let after_real = s.dht().calls;
        s.unpublish(&unpublished(), "z.pdf", &SimpleScheme).unwrap();
        assert_eq!((after_real - before, s.dht().calls - after_real), (5, 3));
    }

    #[test]
    fn unpublish_purges_shortcuts_to_the_file_even_when_the_cascade_fails() {
        let mut s = IndexService::new(Probe::new(), CachePolicy::Single);
        publish_two_articles(&mut s, &SimpleScheme);
        let q: Query = "/article/conf/SIGCOMM".parse().unwrap();
        let key = IndexService::<Probe>::key_of(&q);
        let n = s.dht().node_for(&key).unwrap();
        let to_file = IndexTarget::File("x.pdf".into());
        s.create_shortcuts(&[(n, q)], &to_file);
        assert_eq!(s.caches.probe(n, &key), Some(to_file));

        s.dht_mut().failing = true;
        assert_eq!(
            s.unpublish(&figure1(), "x.pdf", &SimpleScheme),
            Err(IndexError::Dht(DhtError::Timeout))
        );
        let msd_key = IndexService::<Probe>::key_of(&Query::most_specific(&figure1()));
        assert!(s.dht().get(&msd_key).is_empty(), "the file is gone");
        assert!(
            s.caches.probe(n, &key).is_none(),
            "a shortcut still leads to the deleted file"
        );
    }

    #[test]
    fn republish_is_idempotent() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let before = s.dht().total_keys();
        publish_figure1(&mut s, &SimpleScheme);
        assert_eq!(s.dht().total_keys(), before);
    }

    #[test]
    fn cache_sizes_and_fractions() {
        let mut s = service(CachePolicy::Lru(10));
        publish_figure1(&mut s, &SimpleScheme);
        let (full, empty) = s.cache_fill_fractions();
        assert_eq!(full, 0.0);
        assert_eq!(empty, 1.0);
        let q: Query = "/article/conf/INFOCOM".parse().unwrap();
        let n = s.dht().owner(&IndexService::<RingDht>::key_of(&q)).unwrap();
        s.create_shortcuts(&[(n, q)], &IndexTarget::File("z.pdf".into()));
        let sizes = s.cache_sizes();
        assert_eq!(sizes.iter().map(|(_, c)| c).sum::<usize>(), 1);
        let (_, empty) = s.cache_fill_fractions();
        assert!(empty < 1.0);
    }

    // ---- corrupt values and the entry memo ----------------------------

    /// Stores `value` under `query`'s key beside whatever is there.
    fn plant<D: Dht>(s: &mut IndexService<D>, query: &str, value: impl Into<Vec<u8>>) {
        let key = IndexService::<D>::key_of(&query.parse().unwrap());
        s.dht_mut().put(key, Bytes::from(value.into()));
    }

    /// A corrupt value fails the search as a whole — an error, not a
    /// panic and not a report missing a branch — and leaves the service
    /// usable: the next search still finds what it should.
    fn assert_search_fails_on_corruption(s: &mut IndexService<RingDht>, query: &str) {
        match s.search(&query.parse().unwrap()) {
            Err(IndexError::Decode(_)) => {}
            other => panic!("expected a decode error, got {other:?}"),
        }
        let healthy = s.search(&"/article/title/Wavelets".parse().unwrap());
        let files: Vec<String> = healthy.unwrap().files.into_iter().map(|h| h.file).collect();
        assert_eq!(files, ["z.pdf"]);
    }

    #[test]
    fn a_corrupt_value_at_the_entry_key_fails_the_search() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        plant(&mut s, "/article/conf/INFOCOM", [0xFF, 0xFE]);
        assert_search_fails_on_corruption(&mut s, "/article/conf/INFOCOM");
    }

    #[test]
    fn a_corrupt_value_at_a_child_level_fails_the_search() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        // Reached only through the entry's index entries: the first wave.
        plant(&mut s, "/article[conf/INFOCOM][year/1996]", "X:junk");
        assert_search_fails_on_corruption(&mut s, "/article/conf/INFOCOM");
    }

    #[test]
    fn a_depth_bomb_at_a_child_level_fails_the_search() {
        let result = p2p_index_testkit::on_a_small_stack(|| {
            let mut s = service(CachePolicy::None);
            publish_figure1(&mut s, &SimpleScheme);
            let bomb = format!("Q:{}", "/a".repeat(20_000));
            plant(&mut s, "/article[conf/INFOCOM][year/1996]", bomb);
            s.search(&"/article/conf/INFOCOM".parse().unwrap())
                .map(|report| report.files)
        });
        match result {
            Err(IndexError::Decode(DecodeTargetError::BadQuery(why))) => {
                assert!(why.contains("deeper than"), "{why}");
            }
            other => panic!("expected a BadQuery decode error, got {other:?}"),
        }
    }

    #[test]
    fn a_warm_memo_changes_neither_the_report_nor_the_traffic() {
        let queries = [
            "/article/conf/INFOCOM",
            "/article/author[first/John][last/Smith]",
            "/article[author[first/John][last/Smith]][year/1996]",
        ];
        for query in queries {
            let query: Query = query.parse().unwrap();
            let mut cold = service(CachePolicy::None);
            publish_figure1(&mut cold, &SimpleScheme);
            let mut warm = service(CachePolicy::None);
            publish_figure1(&mut warm, &SimpleScheme);
            for q in queries {
                warm.search(&q.parse().unwrap()).unwrap();
            }
            assert!(cold.memo.entry_count() == 0 && warm.memo.entry_count() > 0);
            let (cold_before, warm_before) = (*cold.traffic(), *warm.traffic());
            let cold_report = cold.search(&query).unwrap();
            let warm_report = warm.search(&query).unwrap();
            assert_eq!(format!("{cold_report:?}"), format!("{warm_report:?}"));
            let delta = |after: &Traffic, before: Traffic| {
                (
                    after.normal_bytes - before.normal_bytes,
                    after.cache_bytes - before.cache_bytes,
                    after.messages - before.messages,
                )
            };
            assert_eq!(
                delta(cold.traffic(), cold_before),
                delta(warm.traffic(), warm_before),
                "{query}"
            );
        }
    }

    #[test]
    fn a_level_wider_than_a_generation_reads_whole_and_the_tables_stay_bounded() {
        // A search wave builds every read before it reads a reply, so the
        // memo may only rotate between calls: a level of more fresh keys
        // than one generation must still be served from the memo whole.
        const TINY: usize = 2;
        let articles: Vec<Descriptor> = (0..10 * TINY)
            .map(|i| {
                let (first, last, title) = (format!("F{i}"), format!("L{i}"), format!("T{i}"));
                descriptor(&first, &last, &title, "INFOCOM", "1996")
            })
            .collect();
        let populated = |memo: ReadMemo| {
            let mut s = service(CachePolicy::None);
            s.memo = memo;
            for (i, d) in articles.iter().enumerate() {
                s.publish(d, format!("f{i}.pdf"), &SimpleScheme).unwrap();
            }
            s
        };
        let query: Query = "/article/conf/INFOCOM".parse().unwrap();
        let mut fresh = populated(ReadMemo::default());
        let mut tiny = populated(ReadMemo::with_generation(TINY));
        tiny.search(&query).unwrap();
        let cost = |s: &IndexService<RingDht>| (s.dht().stats(), *s.traffic());
        let (fresh_before, tiny_before) = (cost(&fresh), cost(&tiny));
        let cold = fresh.search(&query).unwrap();
        let warm = tiny.search(&query).unwrap();
        assert!(!warm.is_partial(), "{:?}", warm.completeness);
        assert_eq!(warm.files.len(), 10 * TINY);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        let delta = |(stats, traffic): (DhtStats, Traffic), (s0, t0): (DhtStats, Traffic)| {
            let messages = stats.messages - s0.messages;
            (
                messages,
                stats.lookups - s0.lookups,
                stats.hops - s0.hops,
                traffic.since(&t0),
            )
        };
        assert_eq!(
            delta(cost(&fresh), fresh_before),
            delta(cost(&tiny), tiny_before)
        );

        // Ten generations of distinct lookups later, each table holds two
        // generations plus one call's key, and the first key is gone.
        let keys: Vec<Key> = articles
            .iter()
            .map(|d| {
                let msd = Query::most_specific(d);
                tiny.lookup_step(&msd).unwrap();
                IndexService::<RingDht>::key_of(&msd)
            })
            .collect();
        assert!(tiny.memo.query_count() <= 2 * TINY + 1);
        assert!(tiny.memo.entry_count() <= 2 * TINY + 1);
        assert_eq!(tiny.memo.read_op(keys[0]), DhtOp::Get(keys[0]));
        let last = keys[keys.len() - 1];
        assert!(matches!(
            tiny.memo.read_op(last),
            DhtOp::GetIfChanged { .. }
        ));
    }

    // ---- faults, retries, and completeness ----------------------------

    use p2p_index_dht::{FaultConfig, FaultyDht};

    /// A populated service over a faulty ring: published while healthy,
    /// faults switched on afterwards.
    fn faulty_service(loss: f64, retry: RetryPolicy) -> IndexService<FaultyDht<RingDht>> {
        let dht = FaultyDht::transparent(RingDht::with_named_nodes(64));
        let mut s = IndexService::with_retry(dht, CachePolicy::None, retry);
        publish_figure1(&mut s, &SimpleScheme);
        s.dht_mut().set_fault_config(FaultConfig::lossy(11, loss));
        s
    }

    #[test]
    fn healthy_service_reports_full_completeness() {
        let mut s = service(CachePolicy::None);
        publish_figure1(&mut s, &SimpleScheme);
        let report = s.search(&"/article/conf/INFOCOM".parse().unwrap()).unwrap();
        let c = report.completeness;
        assert!(!report.is_partial());
        assert_eq!(c.retries, 0);
        assert_eq!(c.abandoned, 0);
        assert_eq!(c.backoff_ms, 0);
        assert!(c.attempts > 0, "every sub-lookup is a DHT attempt");
        assert_eq!(s.sim_clock_ms(), 0);
    }

    #[test]
    fn retries_recover_from_message_loss() {
        let mut s = faulty_service(0.3, RetryPolicy::with_budget(21, 10));
        let report = s
            .search(&"/article/author[first/John][last/Smith]".parse().unwrap())
            .unwrap();
        let mut files: Vec<&str> = report.files.iter().map(|h| h.file.as_str()).collect();
        files.sort();
        assert_eq!(files, vec!["x.pdf", "y.pdf"]);
        assert!(!report.is_partial(), "{:?}", report.completeness);
        assert!(
            report.completeness.retries > 0,
            "30% loss must cost retries"
        );
        assert!(report.completeness.backoff_ms > 0);
        assert_eq!(s.sim_clock_ms(), s.retry_stats().backoff_ms);
    }

    #[test]
    fn exhausted_budget_marks_results_partial() {
        let mut s = faulty_service(1.0, RetryPolicy::with_budget(3, 2));
        let report = s.search(&"/article/conf/INFOCOM".parse().unwrap()).unwrap();
        assert!(report.files.is_empty(), "total loss finds nothing");
        assert!(report.is_partial());
        assert!(report.completeness.abandoned >= 1);
        assert!(report.completeness.retries > 0);
        assert!(s.retry_stats().gave_up > 0);
    }

    #[test]
    fn publish_surfaces_exhausted_dht_faults() {
        let dht = FaultyDht::new(RingDht::with_named_nodes(16), FaultConfig::lossy(5, 1.0));
        let mut s =
            IndexService::with_retry(dht, CachePolicy::None, RetryPolicy::with_budget(5, 2));
        let d = descriptor("A", "B", "T", "C", "2000");
        assert_eq!(
            s.publish(&d, "f.pdf", &SimpleScheme).unwrap_err(),
            IndexError::Dht(p2p_index_dht::DhtError::Timeout)
        );
        let stats = s.retry_stats();
        // Publish issues its whole put wave as one batch; under total loss
        // every op in the wave burns its own retry budget (one MSD put plus
        // one put per index edge).
        let msd = Query::most_specific(&d);
        let puts = 1 + SimpleScheme.index_edges(&d, &msd).len() as u64;
        assert_eq!(
            stats.attempts,
            2 * puts,
            "budget of 2 means exactly 2 attempts per batched op"
        );
        assert_eq!(stats.retries, puts);
        assert_eq!(stats.gave_up, puts);
    }

    #[test]
    fn set_retry_policy_reseeds_jitter() {
        let mut s = faulty_service(0.5, RetryPolicy::with_budget(33, 4));
        let q: Query = "/article/conf/INFOCOM".parse().unwrap();
        let first = s.search(&q).unwrap().completeness;
        // Re-arm both the fault stream and the retry jitter, then replay.
        s.dht_mut().set_fault_config(FaultConfig::lossy(11, 0.5));
        s.set_retry_policy(RetryPolicy::with_budget(33, 4));
        let second = s.search(&q).unwrap().completeness;
        assert_eq!(first, second, "same seeds must replay the same search");
    }

    #[test]
    fn search_explores_past_abandoned_branches() {
        // Even when some sub-lookups die, search keeps walking the other
        // branches and reports what it could reach.
        let mut s = faulty_service(0.6, RetryPolicy::with_budget(17, 2));
        let report = s.search(&"/article/conf/INFOCOM".parse().unwrap()).unwrap();
        // Whatever was found must genuinely match the query.
        for hit in &report.files {
            assert!(["y.pdf", "z.pdf"].contains(&hit.file.as_str()));
        }
        if report.files.len() < 2 {
            assert!(
                report.is_partial(),
                "missing files must be flagged: {report:?}"
            );
        }
    }
}
