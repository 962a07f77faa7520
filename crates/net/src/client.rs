//! [`RemoteDht`]: the [`Dht`] trait over real TCP sockets.
//!
//! The client holds the cluster membership (node id → address) and routes
//! exactly like [`RingDht`](p2p_index_dht::RingDht): the node responsible
//! for a key is its clockwise successor on the identifier circle, resolved
//! with one local `BTreeMap::range` lookup. Only storage operations (put /
//! get / remove) cross the wire — `NodeFor` is answered locally at zero
//! message cost, mirroring the in-process substrates — so a cluster of
//! single-node servers named `node-0..n-1` produces results and message
//! counts identical to an in-process `RingDht::with_named_nodes(n)`.
//!
//! # Error mapping
//!
//! Remote [`DhtError`]s travel the wire as stable codes and surface
//! unchanged. Transport failures — connect refused, socket timeout, short
//! read, malformed reply, response-id mismatch — all map to
//! [`DhtError::Timeout`], the transient variant, so the index layer's
//! existing `RetryPolicy` retries them without knowing sockets exist. A
//! failed connection is dropped from the pool and redialed on the next
//! call.
//!
//! # Batching
//!
//! Everything rides one code path: [`Dht::execute_many`]. The ops are
//! grouped by routed member; a member owed exactly one op gets a plain
//! unary `Request` frame (maximum interop — the frame is byte-identical
//! to what a v1 build sends), a member owed several gets one
//! [`Message::Batch`] frame. All frames are written before any reply is
//! read, so the member servers execute concurrently and a k-child
//! fan-out costs one frame pair per routed member instead of one per op.
//! A unary [`Dht::execute`] is just a batch of one.
//!
//! # Accounting
//!
//! The `messages` counter increments by 2 for every op whose
//! request/response pair completes (the RPC-pair convention pinned in
//! the conformance suite — a batch of k ops that completes counts 2·k
//! messages even though only two frames moved); `lookups` increments for
//! successful put/get, matching `RingDht`. Transport failures count
//! nothing — no response arrived, so no pair completed, and every op
//! riding the failed frame maps to [`DhtError::Timeout`]. `net.*`
//! metrics additionally count raw frames and bytes, with batch frames
//! broken out under `net.batch.*`, which is what lets the multi-process
//! harness cross-check frames against message accounting.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::{
    self as dht_api, kind_counter, placement, Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key,
    NodeId, OpFamily, PairCounters,
};
use p2p_index_obs::MetricsRegistry;

use crate::wire::{read_message_with, write_message, write_message_with, Message, RecvError};

/// Tuning knobs for a [`RemoteDht`] client.
#[derive(Debug, Clone)]
pub struct RemoteDhtConfig {
    /// Timeout for dialing a member.
    pub connect_timeout: Duration,
    /// Socket read timeout — bounds how long one RPC can stall.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Replication factor R the cluster was configured with: each key's
    /// candidate members are its R clockwise successors (shared placement
    /// with the servers via `p2p_index_dht::placement`). `1` (the
    /// default) disables replica routing entirely — frames, results, and
    /// accounting are identical to prior builds.
    pub replicas: usize,
    /// Read quorum Rq: a `Get` contacts Rq replicas in parallel and
    /// needs that many successful replies; the answer is the **union**
    /// of the replicas' value sets (rank order, first-seen dedup), so a
    /// stale replica can neither mask data the quorum saw nor hide the
    /// values only another replica still holds.
    pub read_quorum: usize,
}

impl Default for RemoteDhtConfig {
    fn default() -> Self {
        RemoteDhtConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            replicas: 1,
            read_quorum: 1,
        }
    }
}

/// How many pooled connections one client keeps per member. A single
/// pooled stream made every multi-threaded client serialize per member —
/// the client-side twin of the server's old global substrate mutex — so
/// the server's reader concurrency was unreachable from one process. A
/// small fixed set keeps that many RPCs to the same member in flight at
/// once; beyond it, callers briefly queue on a slot.
const CONNS_PER_MEMBER: usize = 4;

/// One cluster member: a small pool of connections to a `dhtd` server,
/// keyed by the node identifier it serves.
struct Member {
    id: NodeId,
    addr: SocketAddr,
    /// Lazily-dialed pooled connections; each slot is poisoned-on-failure
    /// (dropped and redialed on the next call).
    conns: Vec<Mutex<Option<TcpStream>>>,
    /// Rotation point for slot leasing, so concurrent callers spread
    /// across the pool instead of all contending on slot 0.
    next_slot: AtomicUsize,
}

impl Member {
    fn new(id: NodeId, addr: SocketAddr) -> Member {
        Member {
            id,
            addr,
            conns: (0..CONNS_PER_MEMBER).map(|_| Mutex::new(None)).collect(),
            next_slot: AtomicUsize::new(0),
        }
    }

    /// Leases one connection slot. Warm idle slots win: a sequential
    /// caller stays on one established connection (identical wire
    /// behaviour to the old single-stream pool), and a cold slot is only
    /// dialed when every warm slot is busy — so the pool grows exactly
    /// as far as the caller's actual concurrency. Only when every slot
    /// is busy does the caller queue, on a rotated slot so queued
    /// callers spread across the pool. Deadlock-free under concurrent
    /// batches: every thread acquires members in ring order and holds at
    /// most one slot per member, so wait chains only ever point up-ring.
    fn lease(&self) -> MutexGuard<'_, Option<TcpStream>> {
        for pass in 0..2 {
            for slot in &self.conns {
                if let Ok(guard) = slot.try_lock() {
                    if pass == 1 || guard.is_some() {
                        return guard;
                    }
                }
            }
        }
        let start = self.next_slot.fetch_add(1, Ordering::Relaxed);
        self.conns[start % self.conns.len()]
            .lock()
            .expect("connection pool poisoned")
    }
}

/// One routed member's in-flight frame pair during a pipelined batch.
/// The connection guard is held from write to read so the reply phase
/// reads the same stream the request went out on.
struct InFlight<'a> {
    slot: MutexGuard<'a, Option<TcpStream>>,
    id: u64,
    /// `true` when the frame was a [`Message::Batch`] (two or more ops);
    /// single-op groups travel as plain unary requests.
    batch: bool,
    started: Instant,
    /// `(original op index, attempt rank)` in send order.
    group: Vec<(usize, usize)>,
}

/// One storage op's routing state across failover rounds: the candidate
/// replicas in rank order, how many have been tried, and the successful
/// replies gathered so far toward the quorum.
struct Route {
    op: DhtOp,
    kind: &'static str,
    /// Candidate members — the key's replica set, primary first.
    candidates: Vec<Key>,
    /// Ranks `0..tried` have been attempted (successfully or not).
    tried: usize,
    /// Successes required to settle: the read quorum for `Get`, one for
    /// writes (the server enforces the write quorum behind one reply).
    want: usize,
    /// `(rank, response)` successes gathered so far.
    successes: Vec<(usize, DhtResponse)>,
    /// The last *remote* error reply observed (as opposed to a transport
    /// failure); decides whether settling by exhaustion counts as a
    /// completed RPC pair in the stats.
    reply_error: Option<DhtError>,
}

impl Route {
    /// The settled response once `want` successes are in. Reads merge:
    /// the answer is the union of every replica's value set, gathered in
    /// rank order with first-seen dedup, so replicas holding disjoint
    /// stale subsets still sum to the full entry (each value survives on
    /// at least one of the Rq replicas whenever Rq + W > R). Other ops
    /// settle on the lowest-ranked reply.
    fn settle_response(&mut self) -> DhtResponse {
        self.successes.sort_by_key(|(rank, _)| *rank);
        if self
            .successes
            .iter()
            .any(|(_, resp)| matches!(resp, DhtResponse::Values(_)))
        {
            let mut merged: Vec<Bytes> = Vec::new();
            for (_, resp) in &self.successes {
                if let DhtResponse::Values(values) = resp {
                    for v in values {
                        if !merged.contains(v) {
                            merged.push(v.clone());
                        }
                    }
                }
            }
            return DhtResponse::Values(merged);
        }
        self.successes[0].1.clone()
    }
}

/// A DHT client speaking the `crates/net` wire protocol to a cluster of
/// `dhtd` servers, implementing the same [`Dht`] trait the in-process
/// substrates do — `IndexService`, retry policies, and metrics all run
/// unchanged over real sockets.
pub struct RemoteDht {
    /// Node position → member, ordered around the identifier circle so
    /// `range(key..)` resolves the clockwise successor, as in `RingDht`.
    members: BTreeMap<Key, Member>,
    /// The member ring keys, ascending — the placement ring shared with
    /// the servers' replica fan-out and repair.
    ring: Vec<Key>,
    config: RemoteDhtConfig,
    next_request_id: AtomicU64,
    counters: PairCounters,
    metrics: MetricsRegistry,
}

impl RemoteDht {
    /// Creates a client for the given `(node id, address)` members.
    /// Connections are dialed lazily on first use, so constructing a
    /// client never blocks; an empty member list yields a valid client
    /// whose operations report [`DhtError::NoLiveNodes`]. Quorum settings
    /// are clamped to sane bounds (`1 ≤ Rq ≤ R ≤ n`).
    pub fn connect(members: Vec<(NodeId, SocketAddr)>, mut config: RemoteDhtConfig) -> RemoteDht {
        let members: BTreeMap<Key, Member> = members
            .into_iter()
            .map(|(id, addr)| (*id.key(), Member::new(id, addr)))
            .collect();
        let ring: Vec<Key> = members.keys().copied().collect();
        config.replicas = config.replicas.clamp(1, ring.len().max(1));
        config.read_quorum = config.read_quorum.clamp(1, config.replicas);
        RemoteDht {
            members,
            ring,
            config,
            next_request_id: AtomicU64::new(1),
            counters: PairCounters::default(),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Maps addresses to the standard experiment node naming: the `i`-th
    /// address serves `NodeId::hash_of("node-{i}")` — the same identifiers
    /// `RingDht::with_named_nodes` uses, which is what makes remote and
    /// in-process runs comparable.
    pub fn named_members(addrs: &[SocketAddr]) -> Vec<(NodeId, SocketAddr)> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| (NodeId::hash_of(&format!("node-{i}")), *addr))
            .collect()
    }

    /// The configured members as `(id, addr)`, in ring order.
    pub fn members(&self) -> Vec<(NodeId, SocketAddr)> {
        self.members.values().map(|m| (m.id, m.addr)).collect()
    }

    /// Sends a shutdown frame to every member, telling each `dhtd` to stop
    /// gracefully. Dial or write failures are ignored: an unreachable
    /// server needs no shutdown.
    pub fn shutdown_members(&self) {
        for member in self.members.values() {
            let mut slot = member.lease();
            let stream = match slot.take() {
                Some(stream) => Some(stream),
                None => self.dial(member.addr).ok(),
            };
            if let Some(mut stream) = stream {
                let _ = write_message(&mut stream, &Message::Shutdown);
            }
        }
    }

    /// The clockwise successor of `key` among the members, or `None` when
    /// the member list is empty. Identical placement to `RingDht::owner`.
    fn owner_key(&self, key: &Key) -> Option<Key> {
        self.members
            .range(*key..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(k, _)| *k)
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Accounts one completed RPC pair (the shared ring convention) and
    /// passes its result through.
    fn complete(
        &self,
        kind: &'static str,
        result: Result<DhtResponse, DhtError>,
    ) -> Result<DhtResponse, DhtError> {
        self.counters.record_pair(kind, result.is_ok());
        result
    }

    /// The one wire code path: executes a batch in failover rounds, one
    /// frame pair per routed member per round.
    ///
    /// `NodeFor` ops are answered locally at zero message cost. Each
    /// storage op routes to its key's replica set (`R` clockwise
    /// successors; at the default `R = 1`, exactly the single owner as in
    /// every prior build). Round one sends reads to their first `Rq`
    /// replicas and writes to the primary, grouped per member in ring
    /// order — a single-op group as a plain unary `Request`
    /// (byte-identical to a v1 build's traffic), a multi-op group as one
    /// [`Message::Batch`]. All of a round's frames are written before any
    /// reply is read, so member servers work concurrently.
    ///
    /// One ordering carve-out: a `Get` whose key the *same batch* also
    /// writes is read from its primary alone (`want = 1`). Member frames
    /// race each other on the wire, so a non-primary replica could
    /// answer such a read before — or after — the primary's replication
    /// fan-out for the conflicting write reaches it, and the
    /// lowest-rank-non-empty settle rule would then leak the reordered
    /// state. The primary applies its frame's ops in batch order, so its
    /// answer is exactly the sequential one. Pure read batches (every
    /// multi-get a search issues) keep full quorum protection.
    ///
    /// A failed attempt — transport failure or a remote transient
    /// [`DhtError::Timeout`] — is retried against the op's next untried
    /// replica in the following round, so a dead member costs one extra
    /// pipelined round, not a client-visible error and not any of the
    /// index layer's `RetryPolicy` budget. Non-transient remote errors
    /// settle immediately. An op whose replicas are exhausted settles as
    /// [`DhtError::Timeout`].
    ///
    /// Accounting is per *op*, not per attempt: one completed RPC pair
    /// (+2 messages, +1 lookup for ok put/get) when an op settles from a
    /// reply, nothing when it settles by transport exhaustion — which at
    /// `R = 1` is bit-for-bit the historical convention.
    fn execute_many_inner(&self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        if self.members.is_empty() {
            return ops
                .into_iter()
                .map(|_| Err(DhtError::NoLiveNodes))
                .collect();
        }
        let mut results: Vec<Option<Result<DhtResponse, DhtError>>> = vec![None; ops.len()];
        let mut routes: Vec<Option<Route>> = Vec::with_capacity(ops.len());
        // Keys this batch writes: quorum reads of them must degrade to
        // primary-only (see the ordering carve-out above). Irrelevant at
        // R = 1, where every read is primary-only already.
        let written: BTreeSet<Key> = if self.config.replicas > 1 {
            ops.iter()
                .filter(|op| matches!(op, DhtOp::Put { .. } | DhtOp::Remove { .. }))
                .map(|op| *op.key())
                .collect()
        } else {
            BTreeSet::new()
        };
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                DhtOp::NodeFor(key) => {
                    let owner = self
                        .owner_key(&key)
                        .expect("non-empty member list has an owner");
                    results[i] = Some(Ok(DhtResponse::Node(self.members[&owner].id)));
                    routes.push(None);
                }
                op => {
                    self.metrics.incr(kind_counter(OpFamily::Client, op.kind()));
                    let candidates =
                        placement::replica_keys(&self.ring, op.key(), self.config.replicas);
                    let want = if matches!(op, DhtOp::Get(_)) && !written.contains(op.key()) {
                        self.config.read_quorum.min(candidates.len())
                    } else {
                        1
                    };
                    routes.push(Some(Route {
                        kind: op.kind(),
                        op,
                        candidates,
                        tried: 0,
                        want,
                        successes: Vec::new(),
                        reply_error: None,
                    }));
                }
            }
        }
        let mut round = 0usize;
        // One encode/decode scratch buffer for the whole call — frames
        // within a round are written, then read, strictly in sequence.
        let mut scratch: Vec<u8> = Vec::new();
        loop {
            round += 1;
            // Scheduling: every unsettled op claims its next untried
            // replicas, up to its remaining quorum deficit; an op with
            // none left settles by exhaustion.
            let mut attempts: BTreeMap<Key, Vec<(usize, usize)>> = BTreeMap::new();
            for (i, slot) in routes.iter_mut().enumerate() {
                let Some(route) = slot else { continue };
                if results[i].is_some() {
                    continue;
                }
                let deficit = route.want - route.successes.len();
                let available = route.candidates.len() - route.tried;
                if available == 0 {
                    // Out of replicas. A remote error reply caused this
                    // (count the pair, as a unary client would); pure
                    // transport failures completed no pair and count
                    // nothing.
                    self.metrics.incr("net.quorum.exhausted");
                    results[i] = Some(match route.reply_error.take() {
                        Some(e) => self.complete(route.kind, Err(e)),
                        None => Err(DhtError::Timeout),
                    });
                    continue;
                }
                for _ in 0..deficit.min(available) {
                    let rank = route.tried;
                    let member = route.candidates[rank];
                    route.tried += 1;
                    if round > 1 {
                        self.metrics.incr("net.quorum.failovers");
                    }
                    attempts.entry(member).or_default().push((i, rank));
                }
            }
            if attempts.is_empty() {
                break;
            }
            // Write phase: one frame per member, all requests on the wire
            // before the first reply is awaited. Connection guards are
            // held in ring order, so concurrent batches cannot deadlock.
            let mut in_flight: Vec<InFlight<'_>> = Vec::with_capacity(attempts.len());
            // A failed attempt needs no bookkeeping here: the next
            // round's scheduler recomputes each op's quorum deficit and
            // claims fresh replicas (or settles by exhaustion).
            for (member_key, group) in attempts {
                let member = &self.members[&member_key];
                let mut slot = member.lease();
                if slot.is_none() {
                    match self.dial(member.addr) {
                        Ok(stream) => *slot = Some(stream),
                        Err(_) => {
                            self.metrics.incr("net.connect_errors");
                            continue;
                        }
                    }
                }
                let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
                let batch = group.len() > 1;
                let msg = if batch {
                    Message::Batch {
                        id,
                        ops: group
                            .iter()
                            .map(|&(i, _)| routes[i].as_ref().expect("routed op").op.clone())
                            .collect(),
                    }
                } else {
                    Message::Request {
                        id,
                        op: routes[group[0].0].as_ref().expect("routed op").op.clone(),
                    }
                };
                let started = Instant::now();
                let stream = slot.as_mut().expect("connection just ensured");
                match write_message_with(stream, &msg, &mut scratch) {
                    Ok(sent) => {
                        self.metrics.incr("net.frames_out");
                        self.metrics.add("net.bytes_out", sent as u64);
                        if batch {
                            self.metrics.incr("net.batch.frames_out");
                        }
                        in_flight.push(InFlight {
                            slot,
                            id,
                            batch,
                            started,
                            group,
                        });
                    }
                    Err(_) => {
                        self.metrics.incr("net.transport_errors");
                        *slot = None;
                    }
                }
            }
            // Read phase, same member order: each reply feeds its ops'
            // routes; ops settle the moment their quorum is reached.
            for mut flight in in_flight {
                let stream = flight.slot.as_mut().expect("stream pending a reply");
                let (reply, received) = match read_message_with(stream, &mut scratch) {
                    Ok(ok) => ok,
                    Err(RecvError::Closed) | Err(RecvError::Io(_)) => {
                        self.metrics.incr("net.transport_errors");
                        *flight.slot = None;
                        continue;
                    }
                    Err(RecvError::Wire(_)) => {
                        self.metrics.incr("net.decode_errors");
                        *flight.slot = None;
                        continue;
                    }
                };
                self.metrics.incr("net.frames_in");
                self.metrics.add("net.bytes_in", received as u64);
                let elapsed = flight.started.elapsed().as_micros() as u64;
                match reply {
                    Message::Response { id, result } if !flight.batch && id == flight.id => {
                        self.metrics.observe("net.rpc_micros", elapsed);
                        let (index, rank) = flight.group[0];
                        self.absorb(&mut routes, &mut results, index, rank, result);
                    }
                    Message::BatchReply {
                        id,
                        results: answers,
                    } if flight.batch && id == flight.id && answers.len() == flight.group.len() => {
                        self.metrics.incr("net.batch.frames_in");
                        self.metrics.add("net.batch.ops", answers.len() as u64);
                        self.metrics.observe("net.batch.rpc_micros", elapsed);
                        for (&(index, rank), result) in flight.group.iter().zip(answers) {
                            self.absorb(&mut routes, &mut results, index, rank, result);
                        }
                    }
                    // A mismatched id, kind, or result count means the
                    // stream is out of sync; drop it rather than guess.
                    _ => {
                        self.metrics.incr("net.decode_errors");
                        *flight.slot = None;
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every op resolved exactly once"))
            .collect()
    }

    /// Feeds one attempt's remote reply into its op's route, settling
    /// the op if the quorum is reached or the error is final.
    fn absorb(
        &self,
        routes: &mut [Option<Route>],
        results: &mut [Option<Result<DhtResponse, DhtError>>],
        index: usize,
        rank: usize,
        result: Result<DhtResponse, DhtError>,
    ) {
        if results[index].is_some() {
            // A slower sibling attempt answered after the op settled.
            return;
        }
        let route = routes[index].as_mut().expect("reply for a routed op");
        match result {
            Ok(resp) => {
                route.successes.push((rank, resp));
                if route.successes.len() >= route.want {
                    results[index] = Some(self.complete(route.kind, Ok(route.settle_response())));
                }
            }
            Err(DhtError::Timeout) => {
                // Transient: remember it and let the scheduler fail over.
                route.reply_error = Some(DhtError::Timeout);
            }
            Err(e) => {
                // Final remote error: no replica can do better.
                results[index] = Some(self.complete(route.kind, Err(e)));
            }
        }
    }

    fn execute_inner(&self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.execute_many_inner(vec![op])
            .pop()
            .expect("one result per op")
    }
}

impl Dht for RemoteDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if !self.metrics.is_enabled() {
            return self.execute_inner(op);
        }
        let kind = op.kind();
        let before = self.stats();
        let result = self.execute_inner(op);
        dht_api::record_op(&self.metrics, kind, before, self.stats(), &result);
        result
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        if !self.metrics.is_enabled() {
            return self.execute_many_inner(ops);
        }
        let kinds: Vec<&'static str> = ops.iter().map(|op| op.kind()).collect();
        let before = self.stats();
        let results = self.execute_many_inner(ops);
        dht_api::record_many(&self.metrics, &kinds, before, self.stats(), &results);
        results
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.owner_key(key).map(|k| self.members[&k].id)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.members.values().map(|m| m.id).collect()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        match self.execute_inner(DhtOp::Get(*key)) {
            Ok(response) => response.into_values(),
            Err(_) => Vec::new(),
        }
    }

    fn stats(&self) -> DhtStats {
        self.counters.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    fn len(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DhtServer, ServerConfig};
    use p2p_index_dht::RingDht;

    fn free_addr() -> SocketAddr {
        // Bind then drop: the port is free again immediately after, giving
        // a loopback address that refuses connections.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    /// Three unreplicated partition servers named `node-0..2`, with their
    /// ring keys.
    fn spawn_three() -> (Vec<Key>, Vec<DhtServer>) {
        let ids: Vec<Key> = (0..3).map(|i| Key::hash_of(&format!("node-{i}"))).collect();
        let servers = ids
            .iter()
            .map(|id| {
                DhtServer::spawn_partition(
                    NodeId::from_key(*id),
                    "127.0.0.1:0",
                    ServerConfig::default(),
                )
                .unwrap()
            })
            .collect();
        (ids, servers)
    }

    fn members_of(ids: &[Key], servers: &[DhtServer]) -> Vec<(NodeId, SocketAddr)> {
        ids.iter()
            .zip(servers)
            .map(|(id, s)| (NodeId::from_key(*id), s.local_addr()))
            .collect()
    }

    #[test]
    fn empty_member_list_reports_no_live_nodes() {
        let mut remote = RemoteDht::connect(Vec::new(), RemoteDhtConfig::default());
        assert!(remote.is_empty());
        assert_eq!(
            remote.execute(DhtOp::Get(Key::hash_of("k"))),
            Err(DhtError::NoLiveNodes)
        );
        assert_eq!(remote.node_for(&Key::hash_of("k")), None);
        assert!(Dht::get(&remote, &Key::hash_of("k")).is_empty());
    }

    #[test]
    fn connect_refused_maps_to_transient_timeout() {
        let mut remote = RemoteDht::connect(
            vec![(NodeId::hash_of("node-0"), free_addr())],
            RemoteDhtConfig {
                connect_timeout: Duration::from_millis(200),
                ..RemoteDhtConfig::default()
            },
        );
        let err = remote
            .execute(DhtOp::Get(Key::hash_of("k")))
            .expect_err("nobody is listening");
        assert_eq!(err, DhtError::Timeout);
        assert!(err.is_transient(), "transport faults must be retriable");
        // No response frame arrived, so no RPC pair completed.
        assert_eq!(remote.stats().messages, 0);
    }

    #[test]
    fn node_for_is_local_and_free() {
        let server = DhtServer::spawn_partition(
            NodeId::hash_of("node-0"),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let mut remote = RemoteDht::connect(
            RemoteDht::named_members(&[server.local_addr()]),
            RemoteDhtConfig::default(),
        );
        let resolved = remote
            .execute(DhtOp::NodeFor(Key::hash_of("anything")))
            .unwrap();
        assert_eq!(resolved, DhtResponse::Node(NodeId::hash_of("node-0")));
        assert_eq!(remote.stats().messages, 0, "NodeFor never hits the wire");
        server.shutdown();
    }

    #[test]
    fn remote_accounting_matches_in_process_ring() {
        let (ids, servers) = spawn_three();
        let members = members_of(&ids, &servers);
        let mut remote = RemoteDht::connect(members, RemoteDhtConfig::default());
        let mut ring = RingDht::from_ids(ids);

        for i in 0..20 {
            let key = Key::hash_of(&format!("item-{i}"));
            let value = Bytes::from(format!("value-{i}"));
            assert_eq!(remote.put(key, value.clone()), ring.put(key, value));
        }
        for i in 0..20 {
            let key = Key::hash_of(&format!("item-{i}"));
            assert_eq!(Dht::get(&remote, &key), Dht::get(&ring, &key), "item {i}");
            assert_eq!(remote.node_for(&key), ring.node_for(&key));
        }
        assert!(remote.remove(&Key::hash_of("item-0"), b"value-0"));
        assert!(ring.remove(&Key::hash_of("item-0"), b"value-0"));

        assert_eq!(remote.stats(), ring.stats(), "accounting must be identical");
        remote.shutdown_members();
    }

    #[test]
    fn execute_many_matches_unary_twin_and_batches_frames() {
        let (ids, servers) = spawn_three();
        let members = members_of(&ids, &servers);
        let metrics = MetricsRegistry::new();
        let mut remote = RemoteDht::connect(members, RemoteDhtConfig::default());
        remote.set_metrics(metrics.clone());
        let mut ring = RingDht::from_ids(ids);

        let mut ops: Vec<DhtOp> = Vec::new();
        for i in 0..10 {
            ops.push(DhtOp::Put {
                key: Key::hash_of(&format!("batch-item-{i}")),
                value: Bytes::from(format!("value-{i}")),
            });
        }
        for i in 0..10 {
            let key = Key::hash_of(&format!("batch-item-{i}"));
            ops.push(DhtOp::Get(key));
            ops.push(DhtOp::NodeFor(key));
        }
        ops.push(DhtOp::Remove {
            key: Key::hash_of("batch-item-0"),
            value: Bytes::from_static(b"value-0"),
        });

        let remote_results = remote.execute_many(ops.clone());
        let ring_results = ring.execute_many(ops);
        assert_eq!(
            remote_results, ring_results,
            "batch must equal the unary sequence"
        );
        assert_eq!(
            remote.stats(),
            ring.stats(),
            "batch accounting keeps the 2-messages-per-op convention"
        );

        let frames_out = metrics.counter("net.frames_out");
        assert!(
            frames_out <= 3,
            "one frame pair per routed member, not per op (got {frames_out})"
        );
        assert_eq!(frames_out, metrics.counter("net.frames_in"));
        assert!(
            metrics.counter("net.batch.ops") > 0,
            "the batch wire path must actually be exercised"
        );
        remote.shutdown_members();
    }

    #[test]
    fn quorum_read_merges_disjoint_stale_subsets() {
        // Three replicas each hold a *different* stale subset of one
        // key's entry — as after missed replication writes. A quorum
        // read across all three must return the union: under the old
        // prefer-lowest-ranked-non-empty rule, the primary's subset
        // would mask the values only the other replicas still hold.
        let key = Key::hash_of("partially-replicated-entry");
        let all: Vec<Bytes> = (0..6).map(|i| Bytes::from(format!("Q:/v/{i}"))).collect();
        let (ids, servers) = spawn_three();
        for (rank, server) in servers.iter().enumerate() {
            // Server `rank` holds values {rank, rank+3}: subsets are
            // disjoint and none is empty.
            server.replace_entries(vec![(key, vec![all[rank].clone(), all[rank + 3].clone()])]);
        }
        let members = members_of(&ids, &servers);
        let mut remote = RemoteDht::connect(
            members,
            RemoteDhtConfig {
                replicas: 3,
                read_quorum: 3,
                ..RemoteDhtConfig::default()
            },
        );
        let mut got = remote.execute(DhtOp::Get(key)).unwrap().into_values();
        got.sort();
        let mut want = all.clone();
        want.sort();
        assert_eq!(got, want, "quorum read must union the replica subsets");
        // The batch path settles through the same merge.
        let mut batch = remote.execute_many(vec![DhtOp::Get(key)]);
        let mut got = batch.remove(0).unwrap().into_values();
        got.sort();
        assert_eq!(got, want, "batched quorum read must union as well");
        remote.shutdown_members();
    }
}
