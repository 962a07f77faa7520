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
//! Each operation is a step function (`machine.rs`): it says which ops
//! its next wave holds and reads that wave's results back, and never
//! calls the substrate. The service hands it to its one driver, which
//! sends each wave — a single op through [`Dht::execute`], more through
//! [`Dht::execute_many_into`] — with the retries and the accounting
//! (`retry.*`, `dht.*`, the `dht …` trace events) of every DHT call. The
//! state the operations share — the per-node shortcut caches
//! (`NodeCaches`, `cache.rs`), what the client read (`ReadMemo`,
//! `memo.rs`), [`Traffic`], node load, tracing — is the service's, and
//! every trace event and `index.*` counter is emitted from it.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use p2p_index_dht::{
    kind_counter, Dht, DhtError, DhtOp, DhtResponse, Key, NodeId, OpFamily, SplitMix64,
};
use p2p_index_obs::{MetricsRegistry, Trace, TraceRecorder};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

use crate::cache::CachePolicy;
use crate::machine::{covering, Lookup, Machine, Reply, Search, State, Step, Unary, Write};
use crate::retry::{RetryPolicy, RetryStats};
use crate::scheme::IndexScheme;
use crate::target::{encode_query_under, DecodeTargetError, IndexTarget};
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

/// The distributed index service over a DHT substrate.
///
/// Every operation is a step function (`machine.rs`) that the service
/// builds, or keeps and restarts, and hands to its one driver: the
/// machine says which ops its next wave holds, the driver sends them,
/// with retries and accounting, and hands the results back.
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
    /// The substrate and the one code path that calls it.
    driver: Driver<D>,
    /// What the machines read and write: memo, caches, traffic, node
    /// load, retry counters, encode buffer, metrics, tracer.
    state: State,
    /// The kept machines, whose buffers a burst of operations pays for
    /// once; each is empty between calls.
    search: Search,
    write: Write,
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
            driver: Driver {
                dht,
                retry,
                retry_rng: SplitMix64::new(retry.seed),
                ops: Vec::new(),
                results: Vec::new(),
                kinds: Vec::new(),
                retained: Vec::new(),
            },
            state: State::new(policy),
            search: Search::default(),
            write: Write::default(),
        }
    }

    /// Attaches a metrics registry to the whole stack: the service itself
    /// (`index.*`, `retry.*`, and `dht.*` — every DHT call is metered
    /// here, once), every existing and future shortcut cache (`cache.*`),
    /// and the DHT substrate, for the series only it can see (`net.*`,
    /// `fault.*`, `load.*`, via [`Dht::set_metrics`]). Pass
    /// [`MetricsRegistry::disabled`] to turn recording back off.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.state.metrics = metrics.clone();
        self.driver.dht.set_metrics(metrics.clone());
        self.state.caches.set_metrics(metrics);
    }

    /// The attached metrics registry (disabled unless
    /// [`set_metrics`](Self::set_metrics) was called).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.state.metrics
    }

    /// Starts recording a trace; every subsequent search/lookup adds spans
    /// until [`finish_trace`](Self::finish_trace) collects the tree.
    pub fn start_trace(&mut self, label: impl Into<String>) {
        self.state.tracer = Some(TraceRecorder::new(label));
    }

    /// Stops recording and returns the trace tree (`None` if
    /// [`start_trace`](Self::start_trace) was never called).
    pub fn finish_trace(&mut self) -> Option<Trace> {
        self.state.tracer.take().map(TraceRecorder::finish)
    }

    /// Counters for the retry work performed so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.state.retry_stats
    }

    /// The DHT key of a query: `h(canonical text)`.
    ///
    /// Pure and allocation-free (the canonical text is part of the
    /// query), but always recomputes the SHA-1: right for a key used
    /// once. The lookup paths, which see the same queries again and
    /// again, use [`cached_key`](Self::cached_key); the write paths take
    /// the key the client's table kept for a query it has read, and this
    /// for any other.
    pub fn key_of(query: &Query) -> Key {
        Key::hash_of(query.canonical_text())
    }

    /// The DHT key of a query, interned: the SHA-1 is computed on the first
    /// sighting of each distinct query and served from the client's table
    /// of known queries afterwards (until the table's bound evicts it). The
    /// table caches a pure function of the query's canonical text, so
    /// entries can never go stale.
    pub fn cached_key(&mut self, query: &Query) -> Key {
        self.state.memo.rotate();
        self.state.memo.cached_key(query)
    }

    /// Appends `query`'s one-step generalizations to `out`, in
    /// [`Query::generalizations`] order, through the client's table of
    /// known queries: a generalization this client derived (or looked up,
    /// or read) before is the table's copy, a refcount bump, and only a
    /// new one is frozen and joins the table. What the §V-E user model
    /// and [`search`](Self::search) generalize a non-indexed query with.
    pub fn generalizations_into(&mut self, query: &Query, out: &mut Vec<Query>) {
        self.state.memo.rotate();
        self.state.memo.generalizations_into(query, out);
    }

    /// The underlying DHT (read-only).
    pub fn dht(&self) -> &D {
        &self.driver.dht
    }

    /// The underlying DHT (mutable — e.g. for churn experiments).
    pub fn dht_mut(&mut self) -> &mut D {
        &mut self.driver.dht
    }

    /// The active cache policy.
    pub fn policy(&self) -> CachePolicy {
        self.state.caches.policy()
    }

    /// Accumulated traffic counters.
    pub fn traffic(&self) -> &Traffic {
        &self.state.traffic
    }

    /// How many lookups each node has served (the Fig. 15 hot-spot data).
    pub fn node_query_counts(&self) -> &HashMap<NodeId, u64> {
        &self.state.node_queries
    }

    /// Per-node shortcut-cache sizes, for every live node (zero when a node
    /// has never cached anything).
    pub fn cache_sizes(&self) -> Vec<(NodeId, usize)> {
        self.state.caches.sizes(&self.driver.dht.nodes())
    }

    /// Fraction of node caches that are at capacity / completely empty
    /// (`(full, empty)`), over all live nodes.
    pub fn cache_fill_fractions(&self) -> (f64, f64) {
        self.state.caches.fill_fractions(&self.driver.dht.nodes())
    }

    /// Zeroes the traffic and per-node counters (cache contents are kept).
    pub fn reset_metrics(&mut self) {
        self.state.traffic = Traffic::new();
        self.state.node_queries.clear();
    }

    /// Publishes a file: stores it under its MSD key and installs all index
    /// edges produced by `scheme`. Returns the MSD.
    ///
    /// The file entry and every index edge are independent `Put`s, so the
    /// whole publication goes to the substrate as **one**
    /// [`Dht::execute_many_into`] wave — on a networked substrate that is
    /// one pipelined frame pair instead of a round trip per edge, the same
    /// batching win the multi-get lookup path gets. The wave's values —
    /// the file's handle and each distinct edge target once — are slices
    /// of one shared buffer.
    ///
    /// The MSD and the scheme's index queries are built through the
    /// client's table of known queries
    /// ([`IndexScheme::index_edges_into`]): one this client has read is
    /// the table's copy with the key it kept, and only one it has not is
    /// frozen and hashed. A write adds nothing to the table.
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
        self.write((descriptor, file.as_ref()), scheme, true)
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
        covering(from.view(), to.view())?;
        encode_query_under(from.view(), to.view(), &mut self.state.values.buf);
        let put = DhtOp::Put {
            key: Self::key_of(&from),
            value: self.state.values.share(),
        };
        self.driver.drive(&mut self.state, &mut Unary(Some(put)))?;
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
        self.lookup(query, true)
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
        self.lookup(query, false)
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
        let state = &mut self.state;
        state.memo.rotate();
        let mut created = 0;
        for (node, query) in state.caches.shortcut_steps(path) {
            if Some(query) == target.as_query() {
                continue;
            }
            let key = state.memo.cached_key(query);
            if state.caches.install(*node, key, target) {
                state.traffic.record_cache_update(
                    (query.canonical_text().len() + target.encoded_len()) as u64,
                );
                created += 1;
                state.event(format_args!("shortcut installed at {node} for {query}"));
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
    /// A recording trace sees each wave as one `wave: …` span holding its
    /// DHT events, then one `lookup …` span per query read from it.
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
        self.state.memo.rotate();
        self.search.start(&mut self.state, query);
        self.driver.drive(&mut self.state, &mut self.search)
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
    /// * a **read wave** of quorum `GetDigest`s, one per distinct key: in
    ///   pass 1 every edge's `to` key, afterwards only the keys the last
    ///   pass could have emptied — the `from` keys of its edges whose
    ///   `Remove` reported the value present that are themselves some
    ///   edge's `to`. A key reads empty when its digest counts no value,
    ///   so the wave moves no value; on a replicated substrate the digest
    ///   is a quorum's, never a stale primary's alone;
    /// * a **remove wave** with every edge whose `to` key read empty and
    ///   that was not already sent.
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
    ///
    /// The MSD and the edges are built through the client's known queries
    /// as [`publish`](Self::publish) builds them. The file's handle and
    /// each distinct edge target are encoded once, up front, into one
    /// shared buffer, and the file's `Remove` and every remove wave take
    /// slices of it.
    pub fn unpublish(
        &mut self,
        descriptor: &Descriptor,
        file: &str,
        scheme: &dyn IndexScheme,
    ) -> Result<Query, IndexError> {
        self.write((descriptor, file), scheme, false)
    }

    /// A publish (`publish`) or an unpublish of `file`, described by
    /// `descriptor`, under `scheme`.
    fn write(
        &mut self,
        article: (&Descriptor, &str),
        scheme: &dyn IndexScheme,
        publish: bool,
    ) -> Result<Query, IndexError> {
        if self.driver.dht.is_empty() {
            return Err(IndexError::EmptyNetwork);
        }
        self.write
            .start(&mut self.state, article, scheme, publish)?;
        self.driver.drive(&mut self.state, &mut self.write)
    }

    /// One lookup step, answered cache-first with `use_cache`.
    fn lookup(&mut self, query: &Query, use_cache: bool) -> Result<StepResponse, IndexError> {
        self.state.memo.rotate();
        let mut lookup = Lookup::new(&mut self.state, query, use_cache);
        self.driver.drive(&mut self.state, &mut lookup)
    }
}

/// The substrate and the one code path that calls it: every machine's
/// waves go through [`drive`](Self::drive), and only
/// [`call`](Self::call) reaches the substrate.
#[derive(Debug)]
struct Driver<D> {
    dht: D,
    retry: RetryPolicy,
    retry_rng: SplitMix64,
    /// The ops of the wave being built; the substrate drains them.
    ops: Vec<DhtOp>,
    /// One result per op, in op order, once the wave has run.
    results: Vec<Reply>,
    /// Each op's kind, for trace events and retry tails.
    kinds: Vec<&'static str>,
    /// Each op's clone while a retry is possible (empty otherwise).
    retained: Vec<Option<DhtOp>>,
}

impl<D: Dht> Driver<D> {
    /// Runs `machine` to its end: each wave it asks for is sent under
    /// the retry policy and its results handed back. The wave buffers
    /// carry their capacity from wave to wave, never their contents, so
    /// a warm wave allocates neither vector on a substrate that overrides
    /// [`Dht::execute_many_into`].
    fn drive<M: Machine>(&mut self, state: &mut State, machine: &mut M) -> M::Output {
        loop {
            if let Step::Done(output) = machine.next(state, &mut self.ops) {
                return output;
            }
            self.run(state);
            let output = machine.absorb(state, &mut self.results);
            self.results.clear();
            if let Some(output) = output {
                return output;
            }
        }
    }

    /// Sends the wave in `ops` under the retry policy, leaving one result
    /// per op in `results`. An empty wave sends nothing. The whole wave
    /// goes to the substrate at once — on a networked substrate that is
    /// one pipelined frame pair per routed member — and ops that failed
    /// transiently then burn their remaining budget one at a time in op
    /// order. Per-op retry accounting (`retry.*` stats and metrics, trace
    /// events, the simulated backoff clock) is the unary sequence's, and
    /// each op is cloned only while a further retry is actually possible.
    fn run(&mut self, state: &mut State) {
        if self.ops.is_empty() {
            return;
        }
        let may_retry = self.retry.max_attempts > 1;
        self.kinds.extend(self.ops.iter().map(DhtOp::kind));
        if may_retry {
            self.retained.extend(self.ops.iter().cloned().map(Some));
        }
        self.call(state, 1, 0..self.kinds.len());
        for i in 0..self.kinds.len() {
            let transient = match &self.results[i] {
                Ok(_) => continue,
                Err(e) => e.is_transient(),
            };
            if transient && may_retry {
                self.results[i] = self.retry_tail(state, i);
            } else {
                state.gave_up();
            }
        }
        self.kinds.clear();
        self.retained.clear();
    }

    /// Continues op `i`'s retry loop after its first (batched) attempt
    /// failed transiently. Entered only when the budget allows at least
    /// one more attempt; the op is cloned only while yet another retry
    /// could follow the attempt being sent.
    fn retry_tail(&mut self, state: &mut State, i: usize) -> Reply {
        let mut attempt = 1u32;
        let mut pending = self.retained[i].take();
        loop {
            let delay = self.retry.backoff_ms(attempt, &mut self.retry_rng);
            let stats = &mut state.retry_stats;
            stats.backoff_ms = stats.backoff_ms.saturating_add(delay);
            stats.retries += 1;
            state.metrics.incr("retry.retries");
            state.metrics.add("retry.backoff_ms", delay);
            state.event(format_args!("backoff {delay}ms, retrying"));
            attempt += 1;
            let current = pending.take().expect("op retained while retries remain");
            if attempt < self.retry.max_attempts {
                pending = Some(current.clone());
            }
            self.ops.push(current);
            self.call(state, attempt, i..i + 1);
            match self.results.pop().expect("one result per op") {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_transient() && attempt < self.retry.max_attempts => {}
                Err(e) => {
                    state.gave_up();
                    return Err(e);
                }
            }
        }
    }

    /// The one call into the substrate, and its one accounting. The ops
    /// in `ops` go as one wave — a single op through [`Dht::execute`], so
    /// a unary exchange builds no batch, more through
    /// [`Dht::execute_many_into`] — and their results are appended to
    /// `results`. Each op, of kind `kinds[kinds]`, then counts one
    /// attempt in [`RetryStats`] and `retry.attempts`, one `dht.ops` and
    /// `dht.ops.{kind}`, a `dht.errors` if it failed, and its
    /// `dht {kind} …` trace event (`attempt` numbers a failure). With
    /// metrics on, the messages, lookups and hops the call moved go to
    /// `dht.messages`, `dht.lookups` and `dht.hops`.
    fn call(&mut self, state: &mut State, attempt: u32, kinds: Range<usize>) {
        let start = self.results.len();
        // The substrate's counters are read only while metrics are on,
        // the one thing they are for.
        let before = state.metrics.is_enabled().then(|| self.dht.stats());
        if self.ops.len() == 1 {
            let op = self.ops.pop().expect("one op");
            self.results.push(self.dht.execute(op));
        } else {
            self.dht.execute_many_into(&mut self.ops, &mut self.results);
        }
        let called = self.kinds[kinds].iter().zip(&self.results[start..]);
        let count = called.len() as u64;
        state.retry_stats.attempts += count;
        if let Some(before) = before {
            let metrics = &state.metrics;
            metrics.add("retry.attempts", count);
            metrics.add("dht.ops", count);
            for (kind, result) in called.clone() {
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
        if let Some(t) = &mut state.tracer {
            for (kind, result) in called {
                t.event(match result {
                    Ok(resp) => format!("dht {kind} -> {}", describe_response(resp)),
                    Err(e) => format!("dht {kind} attempt {attempt} -> {e}"),
                });
            }
        }
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
    use bytes::Bytes;
    use p2p_index_dht::{DhtStats, RingDht};

    use super::*;
    use crate::memo::ReadMemo;
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
        assert!(
            s.state.memo.interned().is_empty(),
            "writes hash their keys once"
        );

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
        assert_eq!(s.state.memo.interned(), known.iter().collect::<Vec<_>>());
        assert_eq!(known.len(), 1 + 4);
        // conf_2001's reply names its 25 MSDs; asking conf again adds nothing.
        let step = s.lookup_step(&conf_2001).unwrap();
        known.extend(named(&step));
        s.lookup_step(&conf).unwrap();
        known.sort();
        let interned = s.state.memo.interned();
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
    fn writes_consult_the_known_queries_and_never_add_to_them() {
        let mut s = service(CachePolicy::None);
        let read = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        let unread: Vec<Descriptor> = (0..20)
            .map(|i| descriptor(&format!("F{i}"), "Lee", &format!("T{i}"), "ICDCS", "2001"))
            .collect();
        s.publish(&read, "read.pdf", &SimpleScheme).unwrap();
        // The client looks up the read article's MSD and every index query
        // of its edges: each joins the table, hashed.
        let msd = Query::most_specific(&read);
        let edges = SimpleScheme.index_edges(&read, &msd);
        for q in std::iter::once(&msd).chain(edges.iter().map(|(from, _)| from)) {
            s.lookup_step(q).unwrap();
        }
        let known = s.state.memo.query_count();
        let held = |s: &IndexService<RingDht>, q: &Query| {
            let interned = s.state.memo.interned();
            let copy = interned
                .iter()
                .find(|k| **k == q)
                .map(|k| k.canonical_text());
            copy.unwrap().as_ptr()
        };
        // Writing what it never read adds nothing to the table, and nor
        // does writing what it read.
        for round in 0..2 {
            for (i, d) in unread.iter().enumerate() {
                s.publish(d, format!("unread-{i}.pdf"), &SimpleScheme)
                    .unwrap();
            }
            let published = s.publish(&read, "read.pdf", &SimpleScheme).unwrap();
            assert_eq!(published.canonical_text().as_ptr(), held(&s, &msd));
            assert_eq!(s.state.memo.query_count(), known, "round {round}");
            for (i, d) in unread.iter().enumerate() {
                s.unpublish(d, &format!("unread-{i}.pdf"), &SimpleScheme)
                    .unwrap();
            }
            let unpublished = s.unpublish(&read, "read.pdf", &SimpleScheme).unwrap();
            assert_eq!(unpublished.canonical_text().as_ptr(), held(&s, &msd));
            assert_eq!(s.state.memo.query_count(), known, "round {round}");
        }
        // The writes took the keys the table kept: the store is what a
        // client that never read anything leaves.
        let mut fresh = service(CachePolicy::None);
        for (i, d) in unread.iter().enumerate() {
            fresh
                .publish(d, format!("unread-{i}.pdf"), &SimpleScheme)
                .unwrap();
        }
        s.publish(&read, "read.pdf", &SimpleScheme).unwrap();
        fresh.publish(&read, "read.pdf", &SimpleScheme).unwrap();
        for (i, d) in unread.iter().enumerate() {
            s.publish(d, format!("unread-{i}.pdf"), &SimpleScheme)
                .unwrap();
        }
        assert_eq!(s.dht().entries(), fresh.dht().entries());
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

    /// A user-defined scheme with one edge, whose `from` does not cover its
    /// `to`: the title query points at the conference query.
    struct NotCoveringScheme;

    impl IndexScheme for NotCoveringScheme {
        fn name(&self) -> &str {
            "not-covering"
        }

        fn index_edges_into(
            &self,
            _descriptor: &Descriptor,
            _msd: &Query,
            _known: &mut dyn p2p_index_xpath::KnownQueries,
            edges: &mut dyn crate::EdgeSink,
        ) {
            let from: Query = "/article/title/TCP".parse().unwrap();
            let to: Query = "/article/conf/SIGCOMM".parse().unwrap();
            edges.push(
                p2p_index_xpath::Built::Frozen(from),
                p2p_index_xpath::Built::Frozen(to),
            );
        }
    }

    #[test]
    fn a_publish_under_a_non_covering_scheme_sends_nothing() {
        let mut s = service(CachePolicy::None);
        let d = descriptor("John", "Smith", "TCP", "SIGCOMM", "1989");
        let err = s.publish(&d, "x.pdf", &NotCoveringScheme).unwrap_err();
        assert!(matches!(err, IndexError::NotCovering { .. }), "{err}");
        assert_eq!(s.dht().stats().messages, 0, "nothing was sent");
        assert_eq!(s.dht().total_keys(), 0, "nothing was stored");
        // A valid publish afterwards installs exactly what it would on a
        // fresh service: nothing of the refused write is left behind.
        let msd = s.publish(&d, "x.pdf", &SimpleScheme).unwrap();
        let mut fresh = service(CachePolicy::None);
        assert_eq!(fresh.publish(&d, "x.pdf", &SimpleScheme).unwrap(), msd);
        assert_eq!(s.dht().stats(), fresh.dht().stats());
        assert_eq!(s.dht().total_keys(), fresh.dht().total_keys());
        assert_eq!(s.dht().total_value_bytes(), fresh.dht().total_value_bytes());
        let report = s.search(&"/article/conf/SIGCOMM".parse().unwrap()).unwrap();
        assert_eq!(report.files.len(), 1);
        assert!(s.state.packed.is_empty() && s.state.values.buf.is_empty());
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
        assert_eq!(s.state.caches.probe(n, &key), Some(to_file));

        s.dht_mut().failing = true;
        assert_eq!(
            s.unpublish(&figure1(), "x.pdf", &SimpleScheme),
            Err(IndexError::Dht(DhtError::Timeout))
        );
        let msd_key = IndexService::<Probe>::key_of(&Query::most_specific(&figure1()));
        assert!(s.dht().get(&msd_key).is_empty(), "the file is gone");
        assert!(
            s.state.caches.probe(n, &key).is_none(),
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
            assert!(cold.state.memo.entry_count() == 0 && warm.state.memo.entry_count() > 0);
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
            s.state.memo = memo;
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
        assert!(tiny.state.memo.query_count() <= 2 * TINY + 1);
        assert!(tiny.state.memo.entry_count() <= 2 * TINY + 1);
        assert_eq!(tiny.state.memo.read_op(keys[0]), DhtOp::Get(keys[0]));
        let last = keys[keys.len() - 1];
        assert!(matches!(
            tiny.state.memo.read_op(last),
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
        assert_eq!(s.retry_stats().backoff_ms, 0);
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
        // The publish ran loss-free: the search is the only backoff.
        assert_eq!(s.retry_stats().backoff_ms, report.completeness.backoff_ms);
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
    fn same_seeds_replay_the_same_search() {
        let q: Query = "/article/conf/INFOCOM".parse().unwrap();
        let [first, second] = [0; 2].map(|_| {
            let mut s = faulty_service(0.5, RetryPolicy::with_budget(33, 4));
            s.search(&q).unwrap().completeness
        });
        assert!(first.retries > 0, "50% loss must cost retries");
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
