//! The index operations as step functions.
//!
//! Each operation of [`IndexService`](crate::IndexService) is a machine:
//! a lookup step ([`Lookup`]), a search ([`Search`]), a publish or an
//! unpublish with its cascade ([`Write`]) and a unary write ([`Unary`]).
//! [`Machine::next`] pushes the ops of its next wave or says it is done,
//! and [`Machine::absorb`] reads that wave's results back, one per op, in
//! op order. A machine never calls the substrate: it reaches the client's
//! memo, caches, traffic, node counts and tracer through the [`State`]
//! handed to each step, as the network client's `Round::plan` reaches its
//! client. The service's one driver runs every wave, with its retries and
//! accounting; a test can run them itself, interleaved with another
//! machine's, on a substrate no service holds.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use p2p_index_dht::{DhtError, DhtOp, DhtResponse, Key, NodeId};
use p2p_index_obs::{MetricsRegistry, TraceRecorder};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{Built, PackedQueries, Query, QueryRef};

use crate::cache::{CachePolicy, NodeCaches};
use crate::memo::ReadMemo;
use crate::retry::RetryStats;
use crate::scheme::{IndexScheme, WriteEdges};
use crate::service::{FileHit, IndexError, SearchReport, StepResponse};
use crate::target::{encode_file_into, encode_query_under, IndexTarget};
use crate::traffic::Traffic;

/// One op's result, as the substrate answers it.
pub(crate) type Reply = Result<DhtResponse, DhtError>;

/// What a machine asks for next.
#[derive(Debug)]
pub(crate) enum Step<T> {
    /// Run the ops just pushed as one wave and hand their results to
    /// [`Machine::absorb`]. An empty wave sends nothing.
    Wave,
    /// The operation is over.
    Done(T),
}

/// One index operation as a step function.
pub(crate) trait Machine {
    /// What the operation returns.
    type Output;

    /// Pushes the next wave's ops onto `ops` (empty on entry) and returns
    /// [`Step::Wave`], or returns the outcome.
    fn next(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> Step<Self::Output>;

    /// Reads the last wave's `results`, one per op in op order; returns
    /// the outcome when that wave ended the operation.
    fn absorb(&mut self, state: &mut State, results: &mut Vec<Reply>) -> Option<Self::Output>;
}

/// Everything of the client the machines read and write: what it read,
/// the nodes' shortcut caches, the traffic and load it counts, its retry
/// counters, the write paths' encode and query buffers, metrics and
/// tracer.
#[derive(Debug, Default)]
pub(crate) struct State {
    /// The per-node shortcut caches of §IV-D, under the service's policy.
    pub(crate) caches: NodeCaches,
    /// What this client read: its known queries with their keys, and the
    /// entry memo. Every public method that touches it starts with
    /// `ReadMemo::rotate`, the one place its bound evicts.
    pub(crate) memo: ReadMemo,
    pub(crate) traffic: Traffic,
    pub(crate) node_queries: HashMap<NodeId, u64>,
    /// Retry counters; `backoff_ms` is also the simulated clock.
    pub(crate) retry_stats: RetryStats,
    /// The write paths' encode buffer: every value of a write wave is a
    /// slice of one shared copy of it.
    pub(crate) values: WaveValues,
    /// The write paths' query buffer: each node query of a write's edges
    /// that the memo lacks is packed here, not frozen
    /// ([`WriteEdges`]). Empty between calls.
    pub(crate) packed: PackedQueries,
    /// Observability sink (disabled by default).
    pub(crate) metrics: MetricsRegistry,
    /// Active lookup trace, if one is being recorded.
    pub(crate) tracer: Option<TraceRecorder>,
}

impl State {
    pub(crate) fn new(policy: CachePolicy) -> Self {
        State {
            caches: NodeCaches::new(policy),
            ..State::default()
        }
    }

    /// Opens a trace span, if a trace is recording.
    fn open(&mut self, label: fmt::Arguments) {
        if let Some(t) = &mut self.tracer {
            t.open(label.to_string());
        }
    }

    /// Records a trace event, if a trace is recording.
    pub(crate) fn event(&mut self, event: fmt::Arguments) {
        if let Some(t) = &mut self.tracer {
            t.event(event.to_string());
        }
    }

    /// Closes the innermost trace span, if a trace is recording.
    fn close(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.close();
        }
    }

    /// An op that failed for good: a transient fault past its budget or
    /// a structural one.
    pub(crate) fn gave_up(&mut self) {
        self.retry_stats.gave_up += 1;
        self.metrics.incr("retry.gave_up");
    }

    /// Closes a lookup's `lookup …` span with its outcome. Every
    /// user-system interaction has exactly one, whether its DHT work was
    /// a unary exchange or a slot in a batched wave.
    fn close_lookup(&mut self, result: &Result<StepResponse, IndexError>) {
        match result {
            Ok(reply) => self.event(format_args!(
                "returned {} cached + {} indexed target(s)",
                usize::from(reply.cached.is_some()),
                reply.indexed.len()
            )),
            Err(e) => self.event(format_args!("failed: {e}")),
        }
        self.close();
    }

    /// Reads a lookup's `NodeFor` result: node load and the `served by`
    /// event, then the cache probe of `key` with `use_cache` (the bypass
    /// count otherwise). Returns the node and the shortcut it holds.
    fn serve(
        &mut self,
        key: Key,
        node: Reply,
        cache: bool,
    ) -> Result<(NodeId, Option<IndexTarget>), IndexError> {
        let node = node?.into_node().ok_or(IndexError::EmptyNetwork)?;
        *self.node_queries.entry(node).or_insert(0) += 1;
        self.event(format_args!("served by {node}"));
        if !cache {
            self.metrics.incr("index.lookups.bypass");
            return Ok((node, None));
        }
        self.metrics.incr("index.lookups.cached");
        let hit = self.caches.probe(node, &key);
        // A node that never cached anything still answers the probe:
        // count it as a miss so hit + miss == cached-mode lookups.
        let (counter, event) = match hit {
            None => ("index.cache_probe.miss", "cache probe: miss"),
            Some(_) => ("index.cache_probe.hit", "cache probe: hit (1 shortcut(s))"),
        };
        self.metrics.incr(counter);
        self.event(format_args!("{event}"));
        Ok((node, hit))
    }

    /// A lookup's reply from `node`: `shortcut` when its cache answered,
    /// and otherwise the entry `got` at `key`, read through the entry
    /// memo (`ReadMemo::read_entry`); the exchange's traffic is priced
    /// from the decoded targets whether or not any value crossed the wire.
    fn reply(
        &mut self,
        (query, key): (&Query, Key),
        node: NodeId,
        shortcut: Option<IndexTarget>,
        got: Option<Reply>,
    ) -> Result<StepResponse, IndexError> {
        let (indexed, response) = match (&shortcut, got) {
            (Some(shortcut), _) => (Arc::default(), shortcut.encoded_len() as u64),
            (None, got) => self
                .memo
                .read_entry((query, key), got.expect("a miss is read")?)?,
        };
        let request = query.canonical_text().len() as u64;
        self.traffic.record_exchange(request, response);
        Ok(StepResponse {
            node: Some(node),
            cached: shortcut,
            indexed,
        })
    }
}

/// One unary op, answered as is: `insert_mapping`'s put.
#[derive(Debug)]
pub(crate) struct Unary(pub(crate) Option<DhtOp>);

impl Machine for Unary {
    type Output = Reply;

    fn next(&mut self, _: &mut State, ops: &mut Vec<DhtOp>) -> Step<Reply> {
        ops.push(self.0.take().expect("a unary op is sent once"));
        Step::Wave
    }

    fn absorb(&mut self, _: &mut State, results: &mut Vec<Reply>) -> Option<Reply> {
        results.pop()
    }
}

/// One user-system interaction, inside its `lookup …` span: a wave of
/// the query's `NodeFor`, then, unless that node's shortcut cache
/// answers, a wave of its read.
#[derive(Debug)]
pub(crate) struct Lookup {
    query: Query,
    key: Key,
    use_cache: bool,
    /// The serving node once its wave is read and missed the cache: the
    /// entry's read is the next wave.
    node: Option<NodeId>,
}

impl Lookup {
    pub(crate) fn new(state: &mut State, query: &Query, use_cache: bool) -> Self {
        Lookup {
            key: state.memo.cached_key(query),
            query: query.clone(),
            use_cache,
            node: None,
        }
    }
}

impl Machine for Lookup {
    type Output = Result<StepResponse, IndexError>;

    fn next(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> Step<Self::Output> {
        if self.node.is_some() {
            ops.push(state.memo.read_op(self.key));
        } else {
            state.open(format_args!("lookup {}", self.query));
            ops.push(DhtOp::NodeFor(self.key));
        }
        Step::Wave
    }

    fn absorb(&mut self, state: &mut State, results: &mut Vec<Reply>) -> Option<Self::Output> {
        let result = results.pop().expect("one result per op");
        let at = (&self.query, self.key);
        let reply = match self.node {
            Some(node) => state.reply(at, node, None, Some(result)),
            None => match state.serve(self.key, result, self.use_cache) {
                Ok((node, None)) => {
                    self.node = Some(node);
                    return None;
                }
                Ok((node, hit)) => state.reply(at, node, hit, None),
                Err(e) => Err(e),
            },
        };
        state.close_lookup(&reply);
        Some(reply)
    }
}

/// Automated search (§IV-B), level-synchronous: the entry probe, one
/// wave per generalization level, one per index level. Kept on the
/// service, so a query burst pays for its sets, queues and level buffers
/// once; every buffer is empty between searches.
#[derive(Debug, Default)]
pub(crate) struct Search {
    /// The query searched for, while a search runs.
    query: Option<Query>,
    /// The unary probe of the query itself, while it runs.
    probe: Option<Lookup>,
    report: SearchReport,
    retry_before: RetryStats,
    /// Whether the wave in flight probes a generalization level (not an
    /// index level).
    generalizing: bool,
    /// Whether a generalization level found an indexed ancestor.
    entered: bool,
    /// Queries whose index entries were already fetched (or enqueued).
    visited: HashSet<Query>,
    /// Phase-2 BFS queue of `(query, its index entries)`, the entries
    /// shared with the entry memo: no interaction builds a list of its own.
    queue: VecDeque<(Query, Arc<[IndexTarget]>)>,
    /// Generalizations already probed (or queued for probing).
    seen: HashSet<Query>,
    /// Next generalization level being accumulated.
    frontier: Vec<Query>,
    /// The queries of the wave in flight: a generalization level, or the
    /// fresh child queries referenced by the index level being expanded.
    level: Vec<Query>,
    /// The not-indexed generalizations of the wave in flight, in reply
    /// order, to derive the next level from once the wave is read.
    dead_ends: Vec<Query>,
    /// The keys of the wave in flight, in query order.
    keys: Vec<Key>,
}

impl Search {
    /// Starts a search for `query`: its `search …` span and counter, and
    /// the entry probe.
    pub(crate) fn start(&mut self, state: &mut State, query: &Query) {
        state.open(format_args!("search {query}"));
        state.metrics.incr("index.searches");
        self.retry_before = state.retry_stats;
        self.report.interactions = 1;
        self.report.rounds = 1;
        self.query = Some(query.clone());
        self.probe = Some(Lookup::new(state, query, false));
    }

    /// Reads the entry probe. An abandoned probe reads as "not indexed":
    /// generalization may still reach the data through another branch.
    fn enter(&mut self, state: &mut State, reply: Option<StepResponse>) {
        self.report.completeness.abandoned += u32::from(reply.is_none());
        let first = reply.map_or_else(Arc::default, |reply| reply.indexed);
        let query = self.query.as_ref().expect("a search is running");
        if first.is_empty() {
            state.memo.generalizations_into(query, &mut self.frontier);
        }
        self.visited.insert(query.clone());
        self.queue.push_back((query.clone(), first));
    }

    /// The next generalization level, deduplicated, as a wave; `false`
    /// once the search entered the index or ran out of generalizations.
    /// Each level is a wave of independent probes read in chain order,
    /// so the first indexed ancestor found is the one a probe-at-a-time
    /// loop would have entered through.
    fn generalize(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> bool {
        while !self.entered && !self.frontier.is_empty() {
            for g in self.frontier.drain(..) {
                if self.seen.insert(g.clone()) {
                    self.level.push(g);
                }
            }
            for g in &self.level {
                self.report.generalization_steps += 1;
                self.report.interactions += 1;
                state.event(format_args!("generalize -> {g}"));
            }
            self.report.rounds += 1;
            if !self.level.is_empty() {
                self.generalizing = true;
                send(state, ops, &self.level, &mut self.keys);
                return true;
            }
        }
        false
    }

    /// Expands the index level in the queue: its files join the report
    /// (when the original query covers their MSD), its fresh child
    /// queries are the next wave; `false` when there are none. FIFO order
    /// is level order, so scanning the level in queue order visits,
    /// dedups and reports in the order a node-at-a-time BFS would.
    fn expand(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> bool {
        let query = self.query.as_ref().expect("a search is running");
        let files = &mut self.report.files;
        // Room for every file this level references, made once.
        let level_targets = self.queue.iter().flat_map(|(_, indexed)| indexed.iter());
        let level_files = level_targets
            .filter(|t| matches!(t, IndexTarget::File(_)))
            .count();
        files.reserve(level_files);
        for (current, indexed) in self.queue.drain(..) {
            // `visited` admits each node once, so a duplicate hit can
            // only come from this node's own value list.
            let node_hits = files.len();
            for target in indexed.iter() {
                match target {
                    // `current` is the MSD the file is stored under; it
                    // matches the original query iff the query covers it.
                    IndexTarget::File(file) => {
                        if query.covers(&current)
                            && !files[node_hits..].iter().any(|hit| *hit.file == **file)
                        {
                            let (msd, file) = (current.clone(), String::from(&**file));
                            files.push(FileHit { msd, file });
                        }
                    }
                    IndexTarget::Query(q) => {
                        if self.visited.insert(q.clone()) {
                            self.level.push(q.clone());
                        }
                    }
                }
            }
        }
        if self.level.is_empty() {
            return false;
        }
        self.report.interactions += self.level.len() as u32;
        self.report.rounds += 1;
        self.generalizing = false;
        send(state, ops, &self.level, &mut self.keys);
        true
    }

    /// The search's outcome: its report's completeness, the
    /// `index.search.*` series, the `result` event closing its span.
    /// Every buffer is left empty.
    fn finish(
        &mut self,
        state: &mut State,
        result: Result<(), IndexError>,
    ) -> Result<SearchReport, IndexError> {
        let mut report = std::mem::take(&mut self.report);
        let (now, before) = (state.retry_stats, self.retry_before);
        report.completeness.attempts = now.attempts - before.attempts;
        report.completeness.retries = now.retries - before.retries;
        report.completeness.backoff_ms = now.backoff_ms - before.backoff_ms;
        let result = result.map(|()| report);
        match &result {
            Err(e) => state.event(format_args!("failed: {e}")),
            Ok(r) => {
                let metrics = &state.metrics;
                let abandoned = r.completeness.abandoned;
                for (name, count) in [
                    ("index.search.interactions", r.interactions),
                    ("index.search.generalization_steps", r.generalization_steps),
                    ("index.search.rounds", r.rounds),
                    ("index.search.abandoned", abandoned),
                ] {
                    metrics.add(name, u64::from(count));
                }
                metrics.observe("search.interactions_per_query", u64::from(r.interactions));
                metrics.observe("search.files_per_query", r.files.len() as u64);
                let partial = if r.is_partial() { ", partial" } else { "" };
                state.event(format_args!(
                    "result: {} file(s), {} interaction(s), {} generalization step(s){partial}",
                    r.files.len(),
                    r.interactions,
                    r.generalization_steps,
                ));
            }
        }
        state.close();
        self.query = None;
        self.probe = None;
        self.entered = false;
        self.visited.clear();
        self.queue.clear();
        self.seen.clear();
        self.frontier.clear();
        self.level.clear();
        self.dead_ends.clear();
        self.keys.clear();
        result
    }

    /// Reads a batched wave of lookups: each query's reply inside its own
    /// `lookup …` span, then what it means for the search — at an index
    /// level the child joins the queue; at a generalization level the
    /// first non-empty reply enters the index and an empty one is a dead
    /// end to generalize further. An abandoned lookup is counted and its
    /// branch dropped; a hard error ends the search.
    fn read(&mut self, state: &mut State, results: &mut Vec<Reply>) -> Result<(), IndexError> {
        state.close();
        let mut raw = results.drain(..);
        for (query, key) in self.level.drain(..).zip(self.keys.drain(..)) {
            let node = raw.next().expect("one NodeFor result per query");
            let got = raw.next().expect("one read result per query");
            state.open(format_args!("lookup {query}"));
            let reply = state
                .serve(key, node, false)
                .and_then(|(node, _)| state.reply((&query, key), node, None, Some(got)));
            state.close_lookup(&reply);
            let abandoned = &mut self.report.completeness.abandoned;
            match or_abandoned(reply)?.map(|reply| reply.indexed) {
                Some(indexed) if !self.generalizing => self.queue.push_back((query, indexed)),
                None if !self.generalizing => *abandoned += 1,
                _ if self.entered => {}
                Some(indexed) if !indexed.is_empty() => {
                    if self.visited.insert(query.clone()) {
                        self.queue.push_back((query, indexed));
                        self.entered = true;
                    }
                }
                dead_end => {
                    *abandoned += u32::from(dead_end.is_none());
                    self.dead_ends.push(query);
                }
            }
        }
        Ok(())
    }
}

impl Machine for Search {
    type Output = Result<SearchReport, IndexError>;

    fn next(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> Step<Self::Output> {
        if let Some(probe) = &mut self.probe {
            // A lookup asks for a wave until its absorb ends it.
            probe.next(state, ops);
            return Step::Wave;
        }
        if self.generalize(state, ops) || self.expand(state, ops) {
            return Step::Wave;
        }
        Step::Done(self.finish(state, Ok(())))
    }

    fn absorb(&mut self, state: &mut State, results: &mut Vec<Reply>) -> Option<Self::Output> {
        let read = match &mut self.probe {
            Some(probe) => match probe.absorb(state, results) {
                Some(reply) => {
                    self.probe = None;
                    or_abandoned(reply).map(|reply| self.enter(state, reply))
                }
                None => Ok(()),
            },
            None => self.read(state, results),
        };
        if let Err(e) = read {
            return Some(self.finish(state, Err(e)));
        }
        // The next level is derived once the wave is read, in reply
        // order (and not at all once the search entered the index).
        if !self.entered {
            for g in self.dead_ends.drain(..) {
                state.memo.generalizations_into(&g, &mut self.frontier);
            }
        }
        None
    }
}

/// Pushes one batched wave of lookups that bypass the shortcut caches,
/// `[NodeFor, read]` per query — the op order the unary sequence would
/// issue, since fault injectors draw per-op randomness in op order — and
/// opens its `wave: …` span, which holds the batch's DHT events (retries
/// included). `keys` takes each query's key, so each is hashed once.
fn send(state: &mut State, ops: &mut Vec<DhtOp>, queries: &[Query], keys: &mut Vec<Key>) {
    for query in queries {
        let key = state.memo.cached_key(query);
        keys.push(key);
        ops.push(DhtOp::NodeFor(key));
        ops.push(state.memo.read_op(key));
    }
    state.open(format_args!("wave: {} lookup(s)", queries.len()));
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

/// The values of the write paths, encoded into one kept buffer: each
/// value of a write is a span of it, and the write's ops get `Bytes`
/// slices of one shared copy ([`share`](Self::share)), so a write's
/// values cost one allocation pair however many there are. A value is
/// encoded once however many ops carry it. A store copies what it keeps
/// into its own block, so the shared copy lives as long as the write.
#[derive(Debug, Default)]
pub(crate) struct WaveValues {
    /// The encodings, back to back.
    pub(crate) buf: Vec<u8>,
    /// The values of the write being built: the file's handle, then each
    /// index edge's target, in edge order.
    spans: Vec<Range<usize>>,
}

impl WaveValues {
    /// Appends one value's encoding and returns its span.
    fn encode(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Range<usize> {
        let start = self.buf.len();
        encode(&mut self.buf);
        start..self.buf.len()
    }

    /// Encodes the values of a write of `file` with `edges`, whose ends
    /// are read through `packed`: `spans[0]` is the file's handle and
    /// `spans[1 + i]` edge `i`'s target, stored under its `from` as a
    /// splice against it where that is shorter (`encode_query_under`, the
    /// one encoder of every query value a write stores or removes). A
    /// repeated edge shares its first copy's span.
    fn encode_write(&mut self, file: &str, edges: &[(Built, Built)], packed: &PackedQueries) {
        let file_value = self.encode(|buf| encode_file_into(file, buf));
        self.spans.push(file_value);
        for (i, (from, to)) in edges.iter().enumerate() {
            let (from, to) = (from.view(packed), to.view(packed));
            let same = |(f, t): &(Built, Built)| f.view(packed) == from && t.view(packed) == to;
            let span = match edges[..i].iter().position(same) {
                Some(j) => self.spans[1 + j].clone(),
                None => self.encode(|buf| encode_query_under(from, to, buf)),
            };
            self.spans.push(span);
        }
    }

    /// One shared copy of the buffer, which is emptied; the spans stay.
    pub(crate) fn share(&mut self) -> Bytes {
        let shared = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        shared
    }
}

/// `Err` unless `from` covers `to`: an index edge must keep the index's
/// safety invariant.
pub(crate) fn covering(from: QueryRef<'_>, to: QueryRef<'_>) -> Result<(), IndexError> {
    if from.covers(to) {
        return Ok(());
    }
    let (from, to) = (from.to_string(), to.to_string());
    Err(IndexError::NotCovering { from, to })
}

/// Where a [`Write`] is.
#[derive(Debug, Default, Clone, Copy)]
enum At {
    /// A publish's one wave: the file's `Put` and one per edge.
    #[default]
    Install,
    /// An unpublish's first wave: the file's `Remove`.
    File,
    /// A read wave of the cascade: a digest of each pending key.
    Read,
    /// A remove wave of the cascade: each edge whose target read empty.
    Remove,
}

/// A publish or an unpublish of one file. A publish checks every edge,
/// then sends one wave: the file's `Put` and one per edge. An unpublish
/// sends the file's `Remove`, then the cascade's passes of a read wave
/// and a remove wave (see
/// [`IndexService::unpublish`](crate::IndexService::unpublish)). Either
/// way the write's values are slices of one shared buffer. Kept on the
/// service with its edge vector and key lists; every one is empty
/// between calls.
///
/// An edge's ends are the memo's queries or spans of `State::packed`,
/// read as views: the MSD is the one query a write freezes, and only when
/// the memo lacks it.
#[derive(Debug, Default)]
pub(crate) struct Write {
    /// The file's MSD, while a write runs.
    msd: Option<Query>,
    /// An unpublished file's handle, for the purge of its shortcuts.
    file: String,
    /// The index edges of the write in progress, their ends read through
    /// `State::packed`.
    edges: Vec<(Built, Built)>,
    /// One shared copy of the values: the file's handle and each distinct
    /// edge target, at their spans in `State::values`.
    shared: Option<Bytes>,
    at: At,
    /// Each index edge's `(from, to)` keys, hashed once per unpublish.
    keys: Vec<(Key, Key)>,
    /// Whether each edge's `Remove` was already sent during this call.
    attempted: Vec<bool>,
    /// The distinct keys the next read wave asks a digest of: every
    /// edge's `to` in pass 1, then the ones the last remove wave may have
    /// emptied.
    pending: Vec<Key>,
    /// The edge of each op of the next remove wave, in op order.
    removing: Vec<usize>,
}

impl Write {
    /// Starts a publish (`publish`) or an unpublish of `file`, described
    /// by `descriptor`, under `scheme`. The MSD and the edges are built
    /// through the client's known queries without adding to them
    /// (`ReadMemo::consult`): the MSD frozen if the memo lacks it, every
    /// other node query the memo lacks packed into `State::packed`
    /// ([`WriteEdges`]). The values are encoded once, up front.
    ///
    /// # Errors
    ///
    /// A publish checks every edge before any is sent: a non-covering
    /// scheme publishes nothing at all.
    pub(crate) fn start(
        &mut self,
        state: &mut State,
        (descriptor, file): (&Descriptor, &str),
        scheme: &dyn IndexScheme,
        publish: bool,
    ) -> Result<(), IndexError> {
        let msd = Query::most_specific_known(descriptor, &mut state.memo.consult());
        let mut sink = WriteEdges {
            edges: &mut self.edges,
            packed: &mut state.packed,
        };
        scheme.index_edges_into(descriptor, &msd, &mut state.memo.consult(), &mut sink);
        let packed = &state.packed;
        if publish {
            let checked = self
                .edges
                .iter()
                .try_for_each(|(from, to)| covering(from.view(packed), to.view(packed)));
            if checked.is_err() {
                self.edges.clear();
                state.packed.clear();
                return checked;
            }
        } else {
            self.file.push_str(file);
        }
        self.msd = Some(msd);
        self.at = if publish { At::Install } else { At::File };
        state.values.encode_write(file, &self.edges, packed);
        self.shared = Some(state.values.share());
        Ok(())
    }

    /// Value `i` of the write: the file's handle at 0, edge `i - 1`'s
    /// target after it.
    fn value(&self, state: &State, i: usize) -> Bytes {
        let shared = self.shared.as_ref().expect("a write is running");
        shared.slice(state.values.spans[i].clone())
    }

    /// The write's outcome, its `index.publish` or `index.unpublish`
    /// count; every buffer is left empty.
    fn finish(
        &mut self,
        state: &mut State,
        result: Result<(), IndexError>,
    ) -> Result<Query, IndexError> {
        if result.is_ok() {
            let publish = matches!(self.at, At::Install);
            state.metrics.incr(if publish {
                "index.publish"
            } else {
                "index.unpublish"
            });
        }
        state.values.spans.clear();
        state.packed.clear();
        self.shared = None;
        self.file.clear();
        self.edges.clear();
        self.keys.clear();
        self.attempted.clear();
        self.pending.clear();
        self.removing.clear();
        let msd = self.msd.take().expect("a write is running");
        result.map(|()| msd)
    }
}

impl Machine for Write {
    type Output = Result<Query, IndexError>;

    fn next(&mut self, state: &mut State, ops: &mut Vec<DhtOp>) -> Step<Self::Output> {
        let msd = self.msd.as_ref().expect("a write is running");
        match self.at {
            At::Install => {
                let froms = self.edges.iter().map(|(from, _)| from.view(&state.packed));
                for (i, query) in std::iter::once(msd.view()).chain(froms).enumerate() {
                    let key = state.memo.write_key(query.canonical_text());
                    let value = self.value(state, i);
                    ops.push(DhtOp::Put { key, value });
                }
            }
            At::File => {
                let key = state.memo.write_key(msd.canonical_text());
                let value = self.value(state, 0);
                ops.push(DhtOp::Remove { key, value });
            }
            At::Read if self.pending.is_empty() => return Step::Done(self.finish(state, Ok(()))),
            At::Read => ops.extend(self.pending.iter().map(|&key| DhtOp::GetDigest(key))),
            At::Remove => {
                for &i in &self.removing {
                    let (key, value) = (self.keys[i].0, self.value(state, 1 + i));
                    ops.push(DhtOp::Remove { key, value });
                }
            }
        }
        Step::Wave
    }

    fn absorb(&mut self, state: &mut State, results: &mut Vec<Reply>) -> Option<Self::Output> {
        // A wave's first failed op, in op order, ends the write; the
        // others were still attempted (and retried) independently.
        if let Some(&failed) = results.iter().find_map(|result| result.as_ref().err()) {
            return Some(self.finish(state, Err(failed.into())));
        }
        match self.at {
            At::Install => return Some(self.finish(state, Ok(()))),
            At::File => {
                // The file is gone: so is every shortcut that leads to it,
                // whatever the cascade then does.
                let msd = self.msd.as_ref().expect("a write is running");
                state.caches.purge(msd, &self.file);
                let (memo, packed) = (&state.memo, &state.packed);
                let key = |end: &Built| memo.write_key(end.view(packed).canonical_text());
                let keys = self.edges.iter().map(|(from, to)| (key(from), key(to)));
                self.keys.extend(keys);
                self.attempted.resize(self.edges.len(), false);
                for &(_, to) in &self.keys {
                    if !self.pending.contains(&to) {
                        self.pending.push(to);
                    }
                }
                self.at = At::Read;
            }
            At::Read => {
                // Every edge not sent yet whose target read empty: a
                // digest of no values. Any other answer keeps the edge.
                for (&target, read) in self.pending.iter().zip(results.drain(..).flatten()) {
                    if !matches!(read, DhtResponse::Digest { count: 0, .. }) {
                        continue;
                    }
                    for (i, &(_, to)) in self.keys.iter().enumerate() {
                        if to == target && !self.attempted[i] {
                            self.attempted[i] = true;
                            self.removing.push(i);
                        }
                    }
                }
                self.pending.clear();
                self.at = At::Remove;
            }
            At::Remove => {
                // Only a removal that found its value can have emptied
                // `from`, and only an edge's target is worth reading again.
                for (&i, removed) in self.removing.iter().zip(results.drain(..).flatten()) {
                    let from = self.keys[i].0;
                    let emptiable = self.keys.iter().any(|&(_, to)| to == from);
                    if removed.into_removed() && emptiable && !self.pending.contains(&from) {
                        self.pending.push(from);
                    }
                }
                self.removing.clear();
                self.at = At::Read;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use p2p_index_dht::{Dht, RingDht};

    use super::*;
    use crate::scheme::{
        BiblioFields, ComplexScheme, Fig4Scheme, FlatScheme, SimpleScheme, CONF_YEAR,
    };
    use crate::IndexService;

    fn article(first: &str, last: &str, title: &str, conf: &str, year: &str) -> Descriptor {
        Descriptor::parse(&format!(
            "<article><author><first>{first}</first><last>{last}</last></author>\
             <title>{title}</title><conf>{conf}</conf><year>{year}</year></article>"
        ))
        .expect("the test descriptor parses")
    }

    /// Runs `machine` to its end with no driver, retry or accounting:
    /// `answer(n, ops, results)` answers its `n`th wave that sends
    /// anything, one result per op. Returns the outcome and the waves
    /// sent.
    fn by_hand<M: Machine>(
        machine: &mut M,
        state: &mut State,
        mut answer: impl FnMut(usize, &mut Vec<DhtOp>, &mut Vec<Reply>),
    ) -> (M::Output, usize) {
        let (mut ops, mut results, mut sent) = (Vec::new(), Vec::new(), 0);
        loop {
            if let Step::Done(output) = machine.next(state, &mut ops) {
                return (output, sent);
            }
            if !ops.is_empty() {
                answer(sent, &mut ops, &mut results);
                sent += 1;
            }
            if let Some(output) = machine.absorb(state, &mut results) {
                return (output, sent);
            }
            results.clear();
        }
    }

    #[test]
    fn a_search_driven_by_hand_reports_what_the_service_does() {
        let queries = [
            "/article/author[first/John][last/Smith]",
            "/article/author/last/Smith",
            "/article/conf/INFOCOM",
            "/article[conf/INFOCOM][year/1996]",
            "/article/year/1996",
            "/article/title/TCP",
            "/article[title/Wavelets][year/1996]",
            "/article[author/last/Smith][title/IPv6]",
            "/article/conf/SIGMOD",
        ];
        let schemes: [&dyn IndexScheme; 4] =
            [&SimpleScheme, &FlatScheme, &ComplexScheme, &Fig4Scheme];
        let mut generalized = 0;
        for scheme in schemes {
            let mut service = IndexService::new(RingDht::with_named_nodes(64), CachePolicy::None);
            for (d, file) in [
                (article("John", "Smith", "TCP", "SIGCOMM", "1989"), "x.pdf"),
                (article("John", "Smith", "IPv6", "INFOCOM", "1996"), "y.pdf"),
                (
                    article("Alan", "Doe", "Wavelets", "INFOCOM", "1996"),
                    "z.pdf",
                ),
            ] {
                service.publish(&d, file, scheme).unwrap();
            }
            // The search reads a ring no service holds, one op at a time.
            let mut ring = service.dht().clone();
            let (mut state, mut search) = (State::new(CachePolicy::None), Search::default());
            for text in queries {
                let query: Query = text.parse().unwrap();
                let want = service.search(&query).unwrap();
                search.start(&mut state, &query);
                let (got, waves) = by_hand(&mut search, &mut state, |_, ops, results| {
                    results.extend(ops.drain(..).map(|op| ring.execute(op)));
                });
                let got = got.unwrap();
                let name = scheme.name();
                assert_eq!(got.files, want.files, "{name}: {query}");
                assert_eq!(
                    (got.interactions, got.rounds, got.generalization_steps),
                    (want.interactions, want.rounds, want.generalization_steps),
                    "{name}: {query}"
                );
                // The entry probe is two unary waves, every other round one.
                assert_eq!(waves as u32, got.rounds + 1, "{name}: {query}");
                generalized += usize::from(got.generalized());
            }
        }
        assert!(generalized > 0, "no query of the set generalizes");
    }

    // ---- two writers ------------------------------------------------------
    //
    // An unpublish removes an edge `(from ; to)` once it reads `h(to)` empty:
    // a check on one key, then an act on another. A second writer's
    // publish whose put at `h(to)` has not landed yet reads as empty
    // there, so the cascade cuts the edges above it, and the late put then
    // lands under a query that no index path leads to any more (ROADMAP
    // item 14). These run A's unpublish and B's publish wave by wave over
    // one ring, B's puts at some keys held back and delivered between A's
    // waves.

    fn sigcomm_1989(first: &str, last: &str, title: &str) -> Descriptor {
        article(first, last, title, "SIGCOMM", "1989")
    }

    /// A ring holding `a`, published under `scheme`.
    fn published(a: &Descriptor, scheme: &dyn IndexScheme) -> RingDht {
        let mut service = IndexService::new(RingDht::with_named_nodes(16), CachePolicy::None);
        service.publish(a, "a.pdf", scheme).unwrap();
        service.dht().clone()
    }

    /// What one race left: the ring, the waves A's unpublish sent, and
    /// how many of B's puts were held back.
    struct Raced {
        ring: RingDht,
        waves: usize,
        held: usize,
    }

    /// B publishes `b` while A unpublishes `a`, on a copy of `ring`: B's
    /// wave goes first, but its puts at a key of `hold` are held back;
    /// A's unpublish then runs wave by wave, and held put `i` lands just
    /// before A's wave `slot(i)` (after A's last, if there is none). B's
    /// publish reads its results once every put has landed.
    fn race(
        ring: &RingDht,
        (a, b): (&Descriptor, &Descriptor),
        scheme: &dyn IndexScheme,
        hold: &[Key],
        slot: impl Fn(usize) -> usize,
    ) -> Raced {
        let mut ring = ring.clone();
        let mut b_state = State::new(CachePolicy::None);
        let mut publish = Write::default();
        publish
            .start(&mut b_state, (b, "b.pdf"), scheme, true)
            .unwrap();
        let mut ops = Vec::new();
        assert!(matches!(publish.next(&mut b_state, &mut ops), Step::Wave));
        let (mut b_results, mut held) = (Vec::new(), Vec::new());
        for (at, op) in ops.drain(..).enumerate() {
            match &op {
                DhtOp::Put { key, .. } if hold.contains(key) => {
                    held.push((at, op));
                    b_results.push(None);
                }
                _ => b_results.push(Some(ring.execute(op))),
            }
        }
        let mut land = |ring: &mut RingDht, due: &dyn Fn(usize) -> bool| {
            for (i, (at, op)) in held.iter().enumerate() {
                if due(slot(i)) {
                    b_results[*at] = Some(ring.execute(op.clone()));
                }
            }
        };

        let mut a_state = State::new(CachePolicy::None);
        let mut unpublish = Write::default();
        unpublish
            .start(&mut a_state, (a, "a.pdf"), scheme, false)
            .unwrap();
        let (unpublished, waves) = by_hand(&mut unpublish, &mut a_state, |n, ops, results| {
            land(&mut ring, &|at| at == n);
            results.extend(ops.drain(..).map(|op| ring.execute(op)));
        });
        unpublished.expect("A's unpublish succeeds");
        land(&mut ring, &|at| at >= waves);

        let mut results = b_results.into_iter().map(|r| r.expect("landed")).collect();
        let published = publish.absorb(&mut b_state, &mut results);
        published
            .expect("a publish is one wave")
            .expect("B's publish succeeds");
        let held = held.len();
        Raced { ring, waves, held }
    }

    /// Whether every query in `queries` still finds B on `ring`.
    fn finds_b<'q>(ring: RingDht, mut queries: impl Iterator<Item = &'q Query>) -> bool {
        let mut service = IndexService::new(ring, CachePolicy::None);
        queries.all(|query| {
            let report = service.search(query).unwrap();
            report.files.iter().any(|hit| hit.file == "b.pdf")
        })
    }

    #[test]
    #[ignore = "two-writer cascade: ROADMAP item 14"]
    fn a_publish_that_races_an_unpublish_stays_reachable() {
        // A is the only SIGCOMM 1989 article. B's publish lands whole but
        // for its put at h(conf+year), which a slow member or a retried
        // loss holds back until A's unpublish is over: its cascade reads
        // h(conf+year) empty.
        let a = sigcomm_1989("Alan", "Doe", "Wavelets");
        let b = sigcomm_1989("John", "Smith", "TCP");
        let conf_year = BiblioFields::of(&b).query(CONF_YEAR, None).unwrap();
        let hold = [IndexService::<RingDht>::key_of(&conf_year)];
        let ring = published(&a, &SimpleScheme);
        let raced = race(&ring, (&a, &b), &SimpleScheme, &hold, |_| usize::MAX);

        let mut service = IndexService::new(raced.ring, CachePolicy::None);
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
        // A and B share their conference and year. B publishes with each
        // of its puts at a key of A's edges held back; A unpublishes; each
        // held put lands before one of the unpublish's waves (the file
        // remove, each read wave, each remove wave) or after the last,
        // every combination tried. Once all has landed, B must be found
        // by every query its scheme indexes it under.
        let a = sigcomm_1989("Alan", "Doe", "Wavelets");
        let b = sigcomm_1989("John", "Smith", "TCP");
        let schemes: [&dyn IndexScheme; 4] =
            [&SimpleScheme, &ComplexScheme, &FlatScheme, &Fig4Scheme];
        let (mut report, mut lost) = (Vec::new(), 0);
        for scheme in schemes {
            let msd_b = Query::most_specific(&b);
            let edges_a = scheme.index_edges(&a, &Query::most_specific(&a));
            let hold: Vec<Key> = edges_a
                .iter()
                .flat_map(|(from, to)| [from, to])
                .map(IndexService::<RingDht>::key_of)
                .collect();
            let edges_b = scheme.index_edges(&b, &msd_b);
            let indexed: Vec<&Query> = edges_b.iter().map(|(from, _)| from).collect();
            let ring = published(&a, scheme);
            let run = |slot: &dyn Fn(usize) -> usize| race(&ring, (&a, &b), scheme, &hold, slot);

            let (first, late) = (run(&|_| 0), run(&|_| usize::MAX));
            assert!(
                first.held > 0,
                "{}: B writes no key of A's edges",
                scheme.name()
            );
            let tried = orders(first.held, first.waves.max(late.waves));
            let failed = tried
                .iter()
                .filter(|slots| {
                    let raced = run(&|i| slots[i]);
                    !finds_b(raced.ring, indexed.iter().copied().chain([&msd_b]))
                })
                .count();
            let name = scheme.name();
            report.push(format!("{name}: {failed} of {} orders lose B", tried.len()));
            lost += failed;
        }
        assert_eq!(lost, 0, "{}", report.join("; "));
    }
}
