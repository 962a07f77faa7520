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
//! failed connection is dropped and redialed on the next call. The client
//! keeps one `Pooled` link per member (`link.rs`): a caller sends a round
//! and then reads it back, so it never has two frames to one member in
//! flight.
//!
//! # Batching
//!
//! Everything rides one code path: [`Dht::execute_many`]. The ops are
//! grouped by routed member; a member owed exactly one op gets a plain
//! unary `Request` frame, a member owed several gets one
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

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::placement::{self, ReplicaRange};
use p2p_index_dht::{
    self as dht_api, kind_counter, Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId,
    OpFamily, PairCounters,
};
use p2p_index_obs::MetricsRegistry;

use crate::link::{Link, Pooled, Timeouts};
use crate::wire::{encode_batch, encode_message, Message, RecvError};

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
    /// default) disables replica routing entirely — each key goes to its
    /// one owner, as in an unreplicated cluster.
    pub replicas: usize,
    /// Read quorum Rq: a `Get` contacts Rq replicas in parallel and
    /// needs that many successful replies; the answer is the **union**
    /// of the replicas' value sets (rank order, first-seen dedup), so a
    /// stale replica can neither mask data the quorum saw nor hide the
    /// values only another replica still holds. One replica ships the
    /// values and the others vouch for them with a digest; only a
    /// replica whose digest disagrees is asked for its list as well.
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

/// One cluster member: the node identifier a `dhtd` server serves and the
/// link to it.
struct Member {
    id: NodeId,
    link: Pooled,
}

/// One routed member's in-flight frame pair during a pipelined batch.
/// The link's guard is held from write to read so the reply phase reads
/// the same stream the request went out on.
struct InFlight<'a> {
    slot: MutexGuard<'a, Option<Link>>,
    id: u64,
    started: Instant,
    /// This member's attempts, as a range of the round's attempt list.
    /// Two or more travelled as one batch frame, a single one as a plain
    /// unary request.
    group: Range<usize>,
}

/// One attempt of a round: op `op` goes to ring member `member`, which is
/// the op's replica number `rank`. The derived order — member first, then
/// op — is the round's wire order: one frame per member, members in ring
/// order, each frame's ops in batch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Attempt {
    member: usize,
    op: usize,
    rank: usize,
    ask: Ask,
}

/// What an attempt asks its replica for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ask {
    /// The route's own op.
    Op,
    /// Only the digest of the values held (`GetDigest`): another replica
    /// of the quorum ships them.
    Digest,
    /// The values in full (a plain `Get`): this replica's last answer was
    /// disputed, and only its list can settle the read.
    Full,
}

/// The op an attempt puts on the wire: the route's own, or the digest or
/// plain read of its key.
fn wire_op<'a>(routes: &'a [Route], attempt: &Attempt) -> Cow<'a, DhtOp> {
    let op = &routes[attempt.op].op;
    match attempt.ask {
        Ask::Op => Cow::Borrowed(op),
        Ask::Digest => Cow::Owned(DhtOp::GetDigest(*op.key())),
        Ask::Full => Cow::Owned(DhtOp::Get(*op.key())),
    }
}

/// One op's routing state across failover rounds.
struct Route {
    op: DhtOp,
    /// The key's replica set, primary first.
    replicas: ReplicaRange,
    /// Ranks `0..tried` have been attempted (successfully or not).
    tried: usize,
    /// Successes required to settle: the read quorum for reads, one for
    /// writes (the server enforces the write quorum behind one reply).
    want: usize,
    /// Successes gathered so far; they sit at the front of this op's
    /// stride of [`CallScratch::gathered`]. Digests a settle disputed sit
    /// right behind them until the next round asks their replicas again.
    have: usize,
    /// The op has its final result.
    settled: bool,
    /// The last *remote* error reply observed (as opposed to a transport
    /// failure); decides whether settling by exhaustion counts as a
    /// completed RPC pair in the stats.
    reply_error: Option<DhtError>,
}

/// Everything one call needs besides the connections, kept from call to
/// call so a warm client's round allocates for what it returns and
/// nothing else. Every buffer is empty between calls; only capacity
/// carries over.
#[derive(Default)]
struct CallScratch {
    routes: Vec<Route>,
    /// One result per op, positionally; what the call hands back.
    results: Vec<Result<DhtResponse, DhtError>>,
    /// `(rank, response)` successes, `read_quorum` slots per op.
    gathered: Vec<Option<(usize, DhtResponse)>>,
    /// The current round's attempts, sorted into wire order.
    attempts: Vec<Attempt>,
    /// The results of the reply frame being absorbed.
    replies: Vec<Result<DhtResponse, DhtError>>,
    /// Keys the batch writes, sorted — filled only when it also reads.
    written: Vec<Key>,
}

/// The settled response once an op's quorum of successes is in, or
/// `Err(agreed)` when a digest disputes it.
///
/// Replicas that agree — the steady state — settle as the lowest-ranked
/// reply that carries the entry, untouched: the replies that ship it are
/// equal, and every digest is the digest of what it holds. A conditional
/// read whose replicas all answered "unchanged" settles the same way, as
/// that digest. A digest that vouches for no shipped list names a replica
/// holding some other value set, which only its own list can tell: the
/// `agreed` successes stay at the front of `gathered`, the disputed
/// digests move behind them, and the caller asks those replicas again
/// with a plain `Get` (a conditional one would be answered "unchanged"
/// again). Full replies that disagree merge: the answer is the union of
/// every replica's value set, gathered in rank order with first-seen
/// dedup, so replicas holding disjoint stale subsets still sum to the full
/// entry (each value survives on at least one of the Rq replicas whenever
/// Rq + W > R).
fn settle_response(
    key: &Key,
    gathered: &mut [Option<(usize, DhtResponse)>],
) -> Result<DhtResponse, usize> {
    fn reply(slot: &Option<(usize, DhtResponse)>) -> &DhtResponse {
        &slot.as_ref().expect("settling needs successes").1
    }
    let is_digest = |slot: &Option<_>| matches!(reply(slot), DhtResponse::Digest { .. });
    // Full replies first, each group in rank order.
    gathered.sort_unstable_by_key(|slot| (is_digest(slot), slot.as_ref().map(|(rank, _)| *rank)));
    let full = gathered.iter().take_while(|slot| !is_digest(slot)).count();
    // Some replies ship the entry and the rest vouch for it: check them.
    if (1..gathered.len()).contains(&full) {
        let held = match reply(&gathered[0]) {
            DhtResponse::Values(values) => values.as_slice(),
            _ => &[],
        };
        let vouched = DhtResponse::digest_of(key, held);
        let mut agreed = full;
        for at in full..gathered.len() {
            if *reply(&gathered[at]) == vouched {
                gathered.swap(agreed, at);
                agreed += 1;
            }
        }
        if agreed < gathered.len() {
            return Err(agreed);
        }
    }
    // With no full reply at all every replica answered with a digest: a
    // conditional read's replicas all said "unchanged", each echoing the
    // digest it was sent (a `Get` answered with one is the caller's to
    // reject, like any other mistyped reply).
    let lowest = reply(&gathered[0]);
    if gathered[1..full.max(1)]
        .iter()
        .all(|slot| reply(slot) == lowest)
    {
        return Ok(gathered[0].take().expect("just inspected").1);
    }
    let lists = gathered[..full]
        .iter()
        .flatten()
        .filter_map(|(_, resp)| match resp {
            DhtResponse::Values(values) => Some(values),
            _ => None,
        });
    let total: usize = lists.clone().map(Vec::len).sum();
    let mut merged: Vec<Bytes> = Vec::with_capacity(total);
    let mut seen: HashSet<&[u8]> = HashSet::with_capacity(total);
    for v in lists.flatten() {
        if seen.insert(v) {
            merged.push(v.clone());
        }
    }
    Ok(DhtResponse::Values(merged))
}

/// A DHT client speaking the `crates/net` wire protocol to a cluster of
/// `dhtd` servers, implementing the same [`Dht`] trait the in-process
/// substrates do — `IndexService`, retry policies, and metrics all run
/// unchanged over real sockets.
pub struct RemoteDht {
    /// The members in ring order: `members[i]` serves `ring[i]`.
    members: Vec<Member>,
    /// The member ring keys, ascending — the placement ring shared with
    /// the servers' replica fan-out and repair. The clockwise successor
    /// of a key on it is the key's owner, as in `RingDht`.
    ring: Vec<Key>,
    config: RemoteDhtConfig,
    next_request_id: AtomicU64,
    counters: PairCounters,
    metrics: MetricsRegistry,
    /// The call state `&mut self` entry points reuse.
    scratch: CallScratch,
}

impl RemoteDht {
    /// Creates a client for the given `(node id, address)` members.
    /// Connections are dialed lazily on first use, so constructing a
    /// client never blocks; an empty member list yields a valid client
    /// whose operations report [`DhtError::NoLiveNodes`]. Quorum settings
    /// are clamped to sane bounds (`1 ≤ Rq ≤ R ≤ n`).
    pub fn connect(members: Vec<(NodeId, SocketAddr)>, mut config: RemoteDhtConfig) -> RemoteDht {
        let by_key: BTreeMap<Key, Member> = members
            .into_iter()
            .map(|(id, addr)| {
                let link = Pooled::new(addr);
                (*id.key(), Member { id, link })
            })
            .collect();
        let ring: Vec<Key> = by_key.keys().copied().collect();
        config.replicas = config.replicas.clamp(1, ring.len().max(1));
        config.read_quorum = config.read_quorum.clamp(1, config.replicas);
        RemoteDht {
            members: by_key.into_values().collect(),
            ring,
            config,
            next_request_id: AtomicU64::new(1),
            counters: PairCounters::default(),
            metrics: MetricsRegistry::disabled(),
            scratch: CallScratch::default(),
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
        self.members.iter().map(|m| (m.id, m.link.addr)).collect()
    }

    /// Sends a shutdown frame to every member, telling each `dhtd` to stop
    /// gracefully. Dial or write failures are ignored: an unreachable
    /// server needs no shutdown.
    pub fn shutdown_members(&self) {
        for member in &self.members {
            if let Some(link) = member.link.lease(self.timeouts()).as_mut() {
                let _ = link.send(|frame| encode_message(&Message::Shutdown, frame));
            }
        }
    }

    /// The member owning `key` — its clockwise successor on the ring — or
    /// `None` when the member list is empty. Identical placement to
    /// `RingDht::owner`.
    fn owner(&self, key: &Key) -> Option<&Member> {
        placement::successor_index(&self.ring, key).map(|at| &self.members[at])
    }

    fn timeouts(&self) -> Timeouts {
        Timeouts {
            connect: self.config.connect_timeout,
            read: self.config.read_timeout,
            write: self.config.write_timeout,
        }
    }

    /// The one wire code path: executes a batch in failover rounds, one
    /// frame pair per routed member per round, leaving one result per op
    /// in `scratch.results`.
    ///
    /// `NodeFor` ops are answered locally at zero message cost. Each
    /// storage op routes to its key's replica set (`R` clockwise
    /// successors; at the default `R = 1`, exactly the single owner).
    /// Round one sends reads to their first `Rq` replicas and writes to
    /// the primary, grouped per member in ring order — a single-op group
    /// as a plain unary `Request`, a multi-op group as one batch frame. All of a round's frames are written before any
    /// reply is read, so member servers work concurrently.
    ///
    /// A quorum read moves its entry once. In each round, the first
    /// replica an op asks while it holds no values gets the `Get`; every
    /// other replica of its quorum gets a `GetDigest` and answers with
    /// the count and order-independent hash of what it holds, computed in
    /// place on the server. The op settles when its quorum of successes
    /// is in and every digest is the digest of the values held — the
    /// steady state, whose answer is the shipping replica's list as sent.
    /// A digest that disagrees names a replica holding another value set:
    /// that replica is asked again with a full `Get` in the next
    /// pipelined round and the lists merge (see [`settle_response`]); if
    /// it no longer answers, the read fails over like any other. A client
    /// at `Rq = 1` — every unreplicated one — never asks for a digest.
    ///
    /// A conditional read (`GetIfChanged`, from a caller that already
    /// holds the entry) is routed like a `Get` but goes to every replica
    /// of its quorum as itself: each answers "unchanged" with the digest
    /// the caller sent, or with its list. All unchanged settles as that
    /// digest, with no value on the wire; full replies settle as a `Get`'s
    /// do; and when the two mix, the replicas that said "unchanged" are
    /// disputed and asked again with a plain `Get`.
    ///
    /// One ordering carve-out: a read whose key the *same batch* also
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
    ///
    /// The round is flat: attempts are one list sorted into wire order
    /// (a member's group is a sub-slice), request frames are encoded
    /// straight from the routes into the buffer beside each member's
    /// link, and replies are absorbed out of one reused vector.
    /// What a warm call still allocates is what it returns — the result
    /// vector, each `Values` list, one shared buffer per value-carrying
    /// reply frame — plus the round's list of leased links.
    fn run(&self, ops: impl ExactSizeIterator<Item = DhtOp>, scratch: &mut CallScratch) {
        let CallScratch {
            routes,
            results,
            gathered,
            attempts,
            replies,
            written,
        } = scratch;
        results.reserve(ops.len());
        if self.members.is_empty() {
            results.extend(ops.map(|_| Err(DhtError::NoLiveNodes)));
            return;
        }
        let (mut reads, mut writes) = (false, false);
        for op in ops {
            let replicas = placement::replica_range(&self.ring, op.key(), self.config.replicas);
            let result = if let DhtOp::NodeFor(_) = op {
                Ok(DhtResponse::Node(self.members[replicas.index(0)].id))
            } else {
                self.metrics.incr(kind_counter(OpFamily::Client, op.kind()));
                match op {
                    DhtOp::Get(_) | DhtOp::GetIfChanged { .. } => reads = true,
                    DhtOp::GetDigest(_) => {}
                    _ => writes = true,
                }
                // What the op keeps if nothing ever answers; settling
                // overwrites it.
                Err(DhtError::Timeout)
            };
            routes.push(Route {
                replicas,
                tried: 0,
                want: 1,
                have: 0,
                settled: result.is_ok(),
                reply_error: None,
                op,
            });
            results.push(result);
        }
        // Keys this batch writes: quorum reads of them must degrade to
        // primary-only (see the ordering carve-out above). Irrelevant at
        // Rq = 1, where every read is primary-only already.
        written.clear();
        if self.config.read_quorum > 1 && reads {
            if writes {
                let writing = routes
                    .iter()
                    .filter(|route| matches!(route.op, DhtOp::Put { .. } | DhtOp::Remove { .. }));
                written.extend(writing.map(|route| *route.op.key()));
                written.sort_unstable();
            }
            for route in routes.iter_mut() {
                let read = matches!(route.op, DhtOp::Get(_) | DhtOp::GetIfChanged { .. });
                if read && written.binary_search(route.op.key()).is_err() {
                    route.want = self.config.read_quorum.min(route.replicas.len());
                }
            }
        }
        let stride = self.config.read_quorum;
        let timeouts = self.timeouts();
        gathered.resize_with(routes.len() * stride, || None);
        // Links are leased in ring order, so concurrent batches cannot
        // deadlock; the list is reused from round to round.
        let mut in_flight: Vec<InFlight<'_>> = Vec::new();
        let mut round = 0usize;
        loop {
            round += 1;
            // Scheduling: every unsettled op first asks again, in full,
            // the replicas whose digests its last settle disputed, then
            // claims its next untried replicas up to its remaining quorum
            // deficit; an op with nobody left to ask settles by
            // exhaustion.
            attempts.clear();
            for (op, route) in routes.iter_mut().enumerate() {
                if route.settled {
                    continue;
                }
                let slots = &mut gathered[op * stride..][..stride];
                // One replica ships the entry; the rest of a read's quorum
                // only has to vouch for it. A conditional read asks every
                // replica the same question instead.
                let conditional = matches!(route.op, DhtOp::GetIfChanged { .. });
                let mut shipped = slots[..route.have]
                    .iter()
                    .flatten()
                    .any(|(_, resp)| !matches!(resp, DhtResponse::Digest { .. }));
                let mut asked = 0;
                for disputed in slots[route.have..].iter_mut().map_while(Option::take) {
                    self.metrics.incr("net.quorum.rereads");
                    attempts.push(Attempt {
                        member: route.replicas.index(disputed.0),
                        op,
                        rank: disputed.0,
                        ask: Ask::Full,
                    });
                    asked += 1;
                }
                let deficit = route.want - route.have - asked;
                let available = route.replicas.len() - route.tried;
                if asked == 0 && available == 0 {
                    // Out of replicas. A remote error reply caused this
                    // (count the pair, as a unary client would); pure
                    // transport failures completed no pair and count
                    // nothing.
                    self.metrics.incr("net.quorum.exhausted");
                    if let Some(e) = route.reply_error.take() {
                        self.counters.record_pair(route.op.kind(), false);
                        results[op] = Err(e);
                    }
                    route.settled = true;
                    continue;
                }
                for _ in 0..deficit.min(available) {
                    let rank = route.tried;
                    route.tried += 1;
                    if round > 1 {
                        self.metrics.incr("net.quorum.failovers");
                    }
                    let ask = if shipped && !conditional {
                        Ask::Digest
                    } else {
                        Ask::Op
                    };
                    attempts.push(Attempt {
                        member: route.replicas.index(rank),
                        op,
                        rank,
                        ask,
                    });
                    shipped = true;
                }
            }
            if attempts.is_empty() {
                break;
            }
            attempts.sort_unstable();
            in_flight.reserve(attempts.len().min(self.members.len()));
            // Write phase: one frame per member, all requests on the wire
            // before the first reply is awaited. A failed attempt needs
            // no bookkeeping here: the next round's scheduler recomputes
            // each op's quorum deficit and claims fresh replicas (or
            // settles by exhaustion).
            let mut next = 0;
            for chunk in attempts.chunk_by(|a, b| a.member == b.member) {
                let group = next..next + chunk.len();
                next = group.end;
                let member = &self.members[chunk[0].member];
                let mut slot = member.link.lease(timeouts);
                let Some(link) = slot.as_mut() else {
                    self.metrics.incr("net.connect_errors");
                    continue;
                };
                let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
                let batch = group.len() > 1;
                let started = Instant::now();
                let sent = link.send(|frame| {
                    if batch {
                        let ops = chunk.iter().map(|attempt| wire_op(routes, attempt));
                        encode_batch(id, ops, frame);
                    } else {
                        let op = wire_op(routes, &chunk[0]).into_owned();
                        encode_message(&Message::Request { id, op }, frame);
                    }
                });
                match sent {
                    Ok(sent) => {
                        self.metrics.incr("net.frames_out");
                        self.metrics.add("net.bytes_out", sent as u64);
                        if batch {
                            self.metrics.incr("net.batch.frames_out");
                        }
                        in_flight.push(InFlight {
                            slot,
                            id,
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
            for mut flight in in_flight.drain(..) {
                let link = flight.slot.as_mut().expect("link pending a reply");
                let reply = match link.recv_reply(replies) {
                    Ok(reply) => reply,
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
                self.metrics.add("net.bytes_in", reply.bytes as u64);
                // A mismatched id, kind, or result count means the
                // stream is out of sync; drop it rather than guess.
                if reply.id != flight.id
                    || reply.batch != (flight.group.len() > 1)
                    || replies.len() != flight.group.len()
                {
                    self.metrics.incr("net.decode_errors");
                    *flight.slot = None;
                    continue;
                }
                let elapsed = flight.started.elapsed().as_micros() as u64;
                if reply.batch {
                    self.metrics.incr("net.batch.frames_in");
                    self.metrics.add("net.batch.ops", replies.len() as u64);
                    self.metrics.observe("net.batch.rpc_micros", elapsed);
                } else {
                    self.metrics.observe("net.rpc_micros", elapsed);
                }
                for (attempt, result) in
                    attempts[flight.group.clone()].iter().zip(replies.drain(..))
                {
                    let route = &mut routes[attempt.op];
                    let slots = &mut gathered[attempt.op * stride..][..stride];
                    if let Some(settled) = self.absorb(route, slots, attempt.rank, result) {
                        results[attempt.op] = settled;
                    }
                }
            }
        }
        // The buffers keep their capacity, not their contents: the ops,
        // any replica reply that lost the settle and any result of a frame
        // that was rejected part-way (each a slice of a whole reply frame)
        // are released with the call that produced them.
        routes.clear();
        gathered.clear();
        replies.clear();
    }

    /// Feeds one attempt's remote reply into its op's route. Returns the
    /// op's final result — accounted as one completed RPC pair (the
    /// shared ring convention) — if the quorum is now reached or the
    /// error is final.
    fn absorb(
        &self,
        route: &mut Route,
        gathered: &mut [Option<(usize, DhtResponse)>],
        rank: usize,
        result: Result<DhtResponse, DhtError>,
    ) -> Option<Result<DhtResponse, DhtError>> {
        if route.settled {
            // A slower sibling attempt answered after the op settled.
            return None;
        }
        let settled = match result {
            Ok(resp) => {
                if matches!(resp, DhtResponse::Digest { .. }) {
                    self.metrics.incr(match route.op {
                        DhtOp::GetIfChanged { .. } => "net.quorum.unchanged",
                        _ => "net.quorum.digest_reads",
                    });
                }
                gathered[route.have] = Some((rank, resp));
                route.have += 1;
                if route.have < route.want {
                    return None;
                }
                match settle_response(route.op.key(), &mut gathered[..route.have]) {
                    Ok(resp) => Ok(resp),
                    Err(agreed) => {
                        // The disputed digests wait behind the successes
                        // for the next round's scheduler.
                        let disputed = (route.have - agreed) as u64;
                        self.metrics.add("net.quorum.digest_mismatches", disputed);
                        route.have = agreed;
                        return None;
                    }
                }
            }
            Err(DhtError::Timeout) => {
                // Transient: remember it and let the scheduler fail over.
                route.reply_error = Some(DhtError::Timeout);
                return None;
            }
            // Final remote error: no replica can do better.
            Err(e) => Err(e),
        };
        route.settled = true;
        self.counters.record_pair(route.op.kind(), settled.is_ok());
        Some(settled)
    }

    /// Runs `call` with the client's own call scratch, which `&mut self`
    /// entry points can lend to the `&self` code path.
    fn with_scratch<T>(&mut self, call: impl FnOnce(&Self, &mut CallScratch) -> T) -> T {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = call(self, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// A unary call is a batch of one: same code, and its one result is
    /// popped back out of the scratch so nothing is allocated to carry it.
    fn execute_inner(&self, op: DhtOp, scratch: &mut CallScratch) -> Result<DhtResponse, DhtError> {
        self.run(std::iter::once(op), scratch);
        scratch.results.pop().expect("one result per op")
    }

    fn execute_many_inner(
        &self,
        ops: Vec<DhtOp>,
        scratch: &mut CallScratch,
    ) -> Vec<Result<DhtResponse, DhtError>> {
        self.run(ops.into_iter(), scratch);
        std::mem::take(&mut scratch.results)
    }
}

impl Dht for RemoteDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.with_scratch(|dht, scratch| {
            if !dht.metrics.is_enabled() {
                return dht.execute_inner(op, scratch);
            }
            let kind = op.kind();
            let before = dht.stats();
            let result = dht.execute_inner(op, scratch);
            dht_api::record_op(&dht.metrics, kind, before, dht.stats(), &result);
            result
        })
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        self.with_scratch(|dht, scratch| {
            if !dht.metrics.is_enabled() {
                return dht.execute_many_inner(ops, scratch);
            }
            let kinds: Vec<&'static str> = ops.iter().map(|op| op.kind()).collect();
            let before = dht.stats();
            let results = dht.execute_many_inner(ops, scratch);
            dht_api::record_many(&dht.metrics, &kinds, before, dht.stats(), &results);
            results
        })
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.owner(key).map(|member| member.id)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// A shared-reference read: the same call path on a scratch of its
    /// own, since `&self` cannot borrow the client's.
    fn get(&self, key: &Key) -> Vec<Bytes> {
        match self.execute_inner(DhtOp::Get(*key), &mut CallScratch::default()) {
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
    fn an_oversized_reply_does_not_stay_with_the_connections_that_carried_it() {
        use crate::wire::KEPT_FRAME_CAPACITY;
        let metrics = MetricsRegistry::new();
        let server = DhtServer::spawn_partition(
            NodeId::hash_of("node-0"),
            "127.0.0.1:0",
            ServerConfig {
                metrics: metrics.clone(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut remote = RemoteDht::connect(
            RemoteDht::named_members(&[server.local_addr()]),
            RemoteDhtConfig::default(),
        );
        // One entry whose reply frame is 100 KiB and then some.
        let key = Key::hash_of("long-entry");
        let values: Vec<Bytes> = (0..100u8).map(|i| Bytes::from(vec![i; 1024])).collect();
        server.replace_entries(vec![(key, values.clone())]);
        let got = remote.execute(DhtOp::Get(key)).unwrap().into_values();
        assert_eq!(got, values);

        // The member's link read that frame through its buffer and gave
        // the excess back once the values were decoded out of it.
        let kept = remote.members[0].link.frame_capacity();
        let kept = kept.expect("the exchange left its link up");
        assert!(kept <= KEPT_FRAME_CAPACITY, "kept {kept} bytes");
        // So did the serving end's write buffer. A second exchange on the
        // same connection orders this check after the first one's release.
        remote.execute(DhtOp::Get(Key::hash_of("absent"))).unwrap();
        assert_eq!(metrics.counter("net.server.buffers_released"), 1);
        server.shutdown();
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
