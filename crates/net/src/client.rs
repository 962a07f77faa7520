//! [`RemoteDht`]: the [`Dht`] trait over real TCP sockets.
//!
//! The client holds the cluster membership (node id → address) and routes
//! exactly like [`RingDht`](p2p_index_dht::RingDht): the node responsible
//! for a key is its clockwise successor on the identifier circle, resolved
//! locally by the same binary search
//! ([`p2p_index_dht::placement::successor_index`]).
//! Only storage operations (put /
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
//! keeps one `Pooled` link per member (`link.rs`): a round checks each
//! member's link out, sends, reads the reply back and returns the link,
//! so it never has two frames to one member in flight and holds no lock
//! across its I/O.
//!
//! # Writes
//!
//! The client coordinates its own writes, as the paper's publisher stores
//! its own mappings: a `Put` or `Remove` goes to every member of its key's
//! replica set in one round, and settles `Ok` once the write quorum `W`
//! of them has applied it. Its answer is `Stored(true)` / `Removed(true)`
//! when any replica that answered says so: a repair push that reached a
//! replica before the client's own frame did makes that replica say
//! "not new", but the member that pushed applied the write anew and said
//! so, so the answer is the same in either delivery order. No member
//! forwards a client's write to another, so a write costs one hop, not
//! two.
//!
//! # Reads
//!
//! A read goes to `Rq` replicas of its key and settles on what they
//! hold together: one replica ships the entry and the others vouch for
//! it with a digest, and a replica whose digest disagrees is asked for
//! its list (`Round` has the rules). A caller's own `GetDigest` is a
//! quorum read by the same rules, never the primary's word alone: the
//! index layer's unpublish cascade asks one to learn whether an entry is
//! empty, and a stale primary that read empty would let it cut a live
//! edge. The answer is the digest of what a quorum `Get` would return.
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
//! The decisions are a step function that names no socket, `Round`: it
//! routes the ops, plans each round's `(member, ops)` groups, encodes a
//! group's frame into whatever buffer its caller hands it, and absorbs
//! each reply frame's results, settling quorums as they fill. Only
//! `RemoteDht::run` touches a link: it checks the links out, writes every
//! frame, reads every reply and feeds it to the round. The crate's tests
//! drive the same `Round` over `handle` instead, frame by frame.
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
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::placement::{self, ReplicaRange};
use p2p_index_dht::{
    kind_counter, Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId, OpFamily, PairCounters,
};
use p2p_index_obs::MetricsRegistry;

use crate::link::{Link, Pooled, Timeouts};
use crate::wire::{encode_batch, encode_message, encode_request, Message, RecvError};

/// Tuning knobs for a [`RemoteDht`] client.
#[derive(Debug, Clone)]
pub struct RemoteDhtConfig {
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
    /// Write quorum W: a `Put` or `Remove` goes to all R replicas at once
    /// and succeeds once W of them have applied it. `None` (the default)
    /// is a majority, ⌊R/2⌋ + 1; any value is clamped to `1..=R`. With
    /// `Rq + W > R` every quorum read overlaps every successful write.
    pub write_quorum: Option<usize>,
}

/// How long a client waits to dial a member, and then for each read
/// (bounding how long one RPC can stall) and write. Longer than the
/// server's `PEER_TIMEOUTS`: repair gives up on a dead peer first.
const TIMEOUTS: Timeouts = Timeouts {
    connect: Duration::from_secs(1),
    read: Duration::from_secs(2),
    write: Duration::from_secs(2),
};

impl Default for RemoteDhtConfig {
    fn default() -> Self {
        RemoteDhtConfig {
            replicas: 1,
            read_quorum: 1,
            write_quorum: None,
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
/// The link is checked out of `member`'s slot from write to read, so the
/// reply phase reads the same stream the request went out on; a good
/// reply returns it, any failure drops it.
struct InFlight {
    member: usize,
    link: Link,
    id: u64,
    started: Instant,
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
    /// Successes required to settle: the read quorum for reads, the
    /// write quorum for writes.
    want: usize,
    /// Successes gathered so far. A read's sit at the front of this op's
    /// stride of [`CallScratch::gathered`], and digests a settle disputed
    /// sit right behind them until the next round asks their replicas
    /// again. A write keeps one success there: the first, until a replica
    /// answers that it applied the write anew.
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
    round: Round,
    /// The results of the reply frame being absorbed.
    replies: Vec<Result<DhtResponse, DhtError>>,
    /// The current round's sent frames, in member order.
    in_flight: Vec<InFlight>,
}

/// The settled response once an op's quorum of successes is in, or
/// `Err(agreed)` when a digest disputes it.
///
/// Replicas that agree — the steady state — settle as the lowest-ranked
/// reply that carries the entry, untouched: the replies that ship it are
/// equal, and every digest is the digest of what it holds. A read every
/// replica answered with the same digest — a caller's digest read, or a
/// conditional read whose replicas all said "unchanged" — settles the
/// same way, as that digest. A digest that vouches for no shipped list
/// names a replica holding some other value set, which only its own list
/// can tell: the `agreed` successes stay at the front of `gathered`, the
/// disputed digests move behind them, and the caller asks those replicas
/// again with a plain `Get` (a conditional one would be answered
/// "unchanged" again). Digests that differ with no list shipped are all
/// disputed (`Err(0)`). Full replies that disagree merge: the answer is
/// the union of every replica's value set, gathered in rank order with
/// first-seen dedup, so replicas holding disjoint stale subsets still sum
/// to the full entry (each value survives on at least one of the Rq
/// replicas whenever Rq + W > R).
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
    // caller's digest read, or a conditional read whose replicas all said
    // "unchanged", each echoing the digest it was sent (a `Get` answered
    // with one is the caller's to reject, like any other mistyped reply).
    // Digests that differ vouch for no list in hand, so all are disputed.
    let alike = if full == 0 { gathered.len() } else { full };
    let lowest = reply(&gathered[0]);
    if gathered[1..alike].iter().all(|slot| reply(slot) == lowest) {
        return Ok(gathered[0].take().expect("just inspected").1);
    }
    if full == 0 {
        return Err(0);
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
    /// the servers' repair. The clockwise successor
    /// of a key on it is the key's owner, as in `RingDht`.
    ring: Vec<Key>,
    /// `config.write_quorum` resolved: W, within `1..=R`.
    write_quorum: usize,
    config: RemoteDhtConfig,
    next_request_id: AtomicU64,
    counters: PairCounters,
    metrics: MetricsRegistry,
    /// The call state `&mut self` entry points reuse.
    scratch: CallScratch,
}

// The client is `Send + Sync` like every in-process substrate; a round's
// checked-out links, kept in the call scratch, must not cost it either.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<RemoteDht>();
};

impl RemoteDht {
    /// Creates a client for the given `(node id, address)` members.
    /// Connections are dialed lazily on first use, so constructing a
    /// client never blocks; an empty member list yields a valid client
    /// whose operations report [`DhtError::NoLiveNodes`]. Quorum settings
    /// are clamped to sane bounds (`1 ≤ Rq ≤ R ≤ n`, `1 ≤ W ≤ R`).
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
        let majority = config.replicas / 2 + 1;
        let write_quorum = config.write_quorum.unwrap_or(majority);
        RemoteDht {
            members: by_key.into_values().collect(),
            ring,
            write_quorum: write_quorum.clamp(1, config.replicas),
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
    /// server needs no shutdown. A shutdown has no reply and the member
    /// closes the connection, so the link checked out for it is dropped.
    pub fn shutdown_members(&self) {
        for member in &self.members {
            if let Some(mut link) = member.link.check_out(TIMEOUTS) {
                let _ = link.send(|frame| encode_message(&Message::Shutdown, frame));
            }
        }
    }

    /// The one wire code path: drives a [`Round`] over the members' links
    /// until every op has settled, leaving one result per op in it. Per
    /// round it checks each routed member's link out, writes every frame
    /// before it reads any reply — so member servers work concurrently —
    /// and feeds each reply to the round. A link whose exchange failed is
    /// dropped, so the next call redials; its ops get no reply, and the
    /// round's next plan fails them over.
    fn run(&self, ops: impl ExactSizeIterator<Item = DhtOp>, scratch: &mut CallScratch) {
        let round = &mut scratch.round;
        round.start(self, ops);
        while round.plan(self) {
            for (member, ops) in round.groups() {
                let Some(mut link) = self.members[member].link.check_out(TIMEOUTS) else {
                    self.metrics.incr("net.connect_errors");
                    continue;
                };
                let id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                match link.send(|frame| round.encode(member, id, frame)) {
                    Ok(sent) => {
                        self.metrics.incr("net.frames_out");
                        self.metrics.add("net.bytes_out", sent as u64);
                        if ops > 1 {
                            self.metrics.incr("net.batch.frames_out");
                        }
                        scratch.in_flight.push(InFlight {
                            member,
                            link,
                            id,
                            started,
                        });
                    }
                    Err(_) => self.metrics.incr("net.transport_errors"),
                }
            }
            for mut sent in scratch.in_flight.drain(..) {
                let replies = &mut scratch.replies;
                let reply = match sent.link.recv_reply(replies) {
                    Ok(reply) => reply,
                    Err(RecvError::Closed) | Err(RecvError::Io(_)) => {
                        self.metrics.incr("net.transport_errors");
                        continue;
                    }
                    Err(RecvError::Wire(_)) => {
                        self.metrics.incr("net.decode_errors");
                        continue;
                    }
                };
                self.metrics.incr("net.frames_in");
                self.metrics.add("net.bytes_in", reply.bytes as u64);
                let answered = replies.len() as u64;
                // A mismatched id, kind, or result count means the
                // stream is out of sync; drop it rather than guess.
                if reply.id != sent.id || !round.absorb(self, sent.member, reply.batch, replies) {
                    self.metrics.incr("net.decode_errors");
                    continue;
                }
                self.members[sent.member].link.put_back(sent.link);
                let elapsed = sent.started.elapsed().as_micros() as u64;
                if reply.batch {
                    self.metrics.incr("net.batch.frames_in");
                    self.metrics.add("net.batch.ops", answered);
                    self.metrics.observe("net.batch.rpc_micros", elapsed);
                } else {
                    self.metrics.observe("net.rpc_micros", elapsed);
                }
            }
        }
        // Any result of a frame that was rejected part-way (a slice of a
        // whole reply frame) is released with the call that read it.
        scratch.replies.clear();
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
        scratch.round.done().pop().expect("one result per op")
    }
}

/// One call's ops as a step function, with no socket in sight: the
/// buffers of the call, kept from call to call so a warm client's round
/// allocates for what it returns and nothing else (every buffer is empty
/// between calls; only capacity carries over). [`start`](Self::start)
/// routes the ops, [`plan`](Self::plan) schedules a round and
/// [`groups`](Self::groups) lists its frames, one per routed member in
/// ring order; a driver writes each with [`encode`](Self::encode) and
/// hands each reply to [`absorb`](Self::absorb). A frame that gets no
/// reply needs no call: the next plan fails its ops over. Once `plan`
/// finds nothing left to ask, [`done`](Self::done) hands back one result
/// per op.
///
/// `NodeFor` ops are answered locally at zero message cost. Each storage
/// op routes to its key's replica set (`R` clockwise successors; at the
/// default `R = 1`, exactly the single owner). Round one sends reads to
/// their first `Rq` replicas and writes to all `R`, grouped per member —
/// a single-op group as a plain unary `Request`, a multi-op group as one
/// batch frame.
///
/// A write is coordinated here, not by a member: every replica gets the
/// op itself (never a digest) in that one round, and the op settles
/// after it — `Ok` once `W` replicas applied it, answered `Stored(true)`
/// / `Removed(true)` if any replica that answered applied it anew (module
/// docs, "Writes"), or [`DhtError::Timeout`] with fewer
/// (`net.quorum.write_failures`). It has no replica left to fail over to.
/// Since a round absorbs every reply before the next is planned, each
/// replica that answered holds the write when the call returns.
///
/// A quorum read moves its entry once. In each round, the first replica
/// an op asks while it holds no values gets the `Get`; every other
/// replica of its quorum gets a `GetDigest` and answers with the count and
/// order-independent hash of what it holds, computed in place on the
/// server. The op settles when its quorum of successes is in and every
/// digest is the digest of the values held — the steady state, whose
/// answer is the shipping replica's list as sent. A digest that disagrees
/// names a replica holding another value set: that replica is asked again
/// with a full `Get` in the next round and the lists merge (see
/// [`settle_response`]); if it no longer answers, the read fails over like
/// any other. A client at `Rq = 1` — every unreplicated one — never asks
/// for a digest its caller did not.
///
/// A conditional read (`GetIfChanged`, from a caller that already holds
/// the entry) is routed like a `Get` but goes to every replica of its
/// quorum as itself: each answers "unchanged" with the digest the caller
/// sent, or with its list. All unchanged settles as that digest, with no
/// value on the wire; full replies settle as a `Get`'s do; and when the
/// two mix, the replicas that said "unchanged" are disputed and asked
/// again with a plain `Get`.
///
/// A caller's digest read (`GetDigest`: the index layer's unpublish
/// cascade asks only whether an entry is empty) is a quorum read as
/// well, routed like a `Get`, and every replica of its quorum is asked
/// the digest itself. Digests that agree settle as that digest, with no
/// value on the wire. Digests that differ are all disputed, their
/// replicas are asked again with a plain `Get`, and the read settles as
/// the digest of the merged list: exactly the digest of what a quorum
/// `Get` would return. A stale primary alone never answers it.
///
/// One ordering carve-out: a read whose key the *same batch* also writes
/// is read from its primary alone (`want = 1`). Each replica applies its
/// frame in batch order, so fault-free every replica would answer the
/// sequential state. Under injected loss, though, a replica can miss a
/// write that came earlier in the same frame while the write still
/// settles on `W` others; a quorum read would then union the pre-write
/// state in (a removed value back). The primary alone gives the read one
/// replica's state, in its frame order. Pure read batches (every
/// multi-get a search issues) keep full quorum protection.
///
/// A failed read attempt — no reply, or a remote transient
/// [`DhtError::Timeout`] — is retried against the op's next untried
/// replica in the following round, so a dead member costs one extra
/// pipelined round, not a client-visible error and not any of the index
/// layer's `RetryPolicy` budget. Non-transient remote errors settle
/// immediately. A read whose replicas are exhausted settles as
/// [`DhtError::Timeout`].
///
/// Accounting is per *op*, not per attempt: one completed RPC pair (+2
/// messages, +1 lookup for ok put/get) when an op settles from a reply —
/// a write that fell short of `W` included, if any replica answered — and
/// nothing when it settles by transport failure alone, which at `R = 1`
/// is bit-for-bit the historical convention.
///
/// The round is flat: attempts are one list sorted into wire order (a
/// member's group is a sub-slice), and request frames are encoded
/// straight from the routes into the caller's buffer. What a warm call
/// still allocates is what it returns — the result vector, each `Values`
/// list, one shared buffer per value-carrying reply frame.
#[derive(Default)]
pub(crate) struct Round {
    routes: Vec<Route>,
    /// One result per op, positionally; what the call hands back.
    results: Vec<Result<DhtResponse, DhtError>>,
    /// `(rank, response)` successes, `read_quorum` slots per op (a write
    /// needs one).
    gathered: Vec<Option<(usize, DhtResponse)>>,
    /// The current round's attempts, sorted into wire order.
    attempts: Vec<Attempt>,
    /// Keys the batch writes, sorted — filled only when it also reads.
    written: Vec<Key>,
}

impl Round {
    /// Routes `ops` on `dht`'s ring into the (empty) buffers.
    pub(crate) fn start(&mut self, dht: &RemoteDht, ops: impl ExactSizeIterator<Item = DhtOp>) {
        self.results.reserve(ops.len());
        if dht.members.is_empty() {
            self.results.extend(ops.map(|_| Err(DhtError::NoLiveNodes)));
            return;
        }
        let (mut reads, mut writes) = (false, false);
        for op in ops {
            let replicas = placement::replica_range(&dht.ring, op.key(), dht.config.replicas);
            let result = if let DhtOp::NodeFor(_) = op {
                Ok(DhtResponse::Node(dht.members[replicas.index(0)].id))
            } else {
                dht.metrics.incr(kind_counter(OpFamily::Client, op.kind()));
                if op.is_write() {
                    writes = true;
                } else {
                    reads = true;
                }
                // What the op keeps if nothing ever answers; settling
                // overwrites it.
                Err(DhtError::Timeout)
            };
            let want = if op.is_write() { dht.write_quorum } else { 1 };
            self.routes.push(Route {
                replicas,
                tried: 0,
                want,
                have: 0,
                settled: result.is_ok(),
                reply_error: None,
                op,
            });
            self.results.push(result);
        }
        // Keys this batch writes: quorum reads of them must degrade to
        // primary-only (see the ordering carve-out above). Irrelevant at
        // Rq = 1, where every read is primary-only already.
        self.written.clear();
        if dht.config.read_quorum > 1 && reads {
            if writes {
                let writing = self.routes.iter().filter(|route| route.op.is_write());
                self.written.extend(writing.map(|route| *route.op.key()));
                self.written.sort_unstable();
            }
            for route in self.routes.iter_mut() {
                if !route.op.is_write() && self.written.binary_search(route.op.key()).is_err() {
                    route.want = dht.config.read_quorum.min(route.replicas.len());
                }
            }
        }
        let slots = self.routes.len() * dht.config.read_quorum;
        self.gathered.resize_with(slots, || None);
    }

    /// Schedules the next round, settling what the last one decided;
    /// `false` once every op has settled. A write asks every replica in
    /// the first round and settles in the next. Every unsettled read
    /// first asks again, in full, the replicas whose digests its last
    /// settle disputed, then claims its next untried replicas up to its
    /// remaining quorum deficit — past its first round, a failover; a
    /// read with nobody left to ask settles by exhaustion.
    pub(crate) fn plan(&mut self, dht: &RemoteDht) -> bool {
        let stride = dht.config.read_quorum;
        self.attempts.clear();
        for (op, route) in self.routes.iter_mut().enumerate() {
            if route.settled {
                continue;
            }
            let slots = &mut self.gathered[op * stride..][..stride];
            if route.op.is_write() {
                if route.tried == 0 {
                    route.tried = route.replicas.len();
                    self.attempts.extend((0..route.tried).map(|rank| Attempt {
                        member: route.replicas.index(rank),
                        op,
                        rank,
                        ask: Ask::Op,
                    }));
                    continue;
                }
                // The round that asked all its replicas is over: `Ok` with
                // the success `absorb` kept (`true` if any replica that
                // answered applied the write anew) if `W` replicas applied
                // it. Any reply at all completes the op's one RPC pair.
                route.settled = true;
                let reached = route.have >= route.want;
                if route.have > 0 || route.reply_error.is_some() {
                    dht.counters.record_pair(route.op.kind(), reached);
                }
                self.results[op] = match slots[0].take() {
                    Some((_, resp)) if reached => Ok(resp),
                    _ => {
                        dht.metrics.incr("net.quorum.write_failures");
                        Err(DhtError::Timeout)
                    }
                };
                continue;
            }
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
                dht.metrics.incr("net.quorum.rereads");
                self.attempts.push(Attempt {
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
                // transport failures completed no pair and count nothing.
                dht.metrics.incr("net.quorum.exhausted");
                if let Some(e) = route.reply_error.take() {
                    dht.counters.record_pair(route.op.kind(), false);
                    self.results[op] = Err(e);
                }
                route.settled = true;
                continue;
            }
            // Every read claims a replica in its first round.
            let failover = route.tried > 0;
            for _ in 0..deficit.min(available) {
                let rank = route.tried;
                route.tried += 1;
                if failover {
                    dht.metrics.incr("net.quorum.failovers");
                }
                let ask = if shipped && !conditional {
                    Ask::Digest
                } else {
                    Ask::Op
                };
                self.attempts.push(Attempt {
                    member: route.replicas.index(rank),
                    op,
                    rank,
                    ask,
                });
                shipped = true;
            }
        }
        self.attempts.sort_unstable();
        !self.attempts.is_empty()
    }

    /// The planned round's frames in ring order: each routed member, with
    /// the number of ops its frame carries.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let groups = self.attempts.chunk_by(|a, b| a.member == b.member);
        groups.map(|group| (group[0].member, group.len()))
    }

    /// Where the planned round's attempts for `member` sit in its list.
    fn group(&self, member: usize) -> Range<usize> {
        let first = self.attempts.partition_point(|a| a.member < member);
        first..self.attempts.partition_point(|a| a.member <= member)
    }

    /// Appends `member`'s request frame, under request id `id`, to
    /// `frame`: one op as a unary request, several as one batch.
    pub(crate) fn encode(&self, member: usize, id: u64, frame: &mut Vec<u8>) {
        let routes = &self.routes;
        match &self.attempts[self.group(member)] {
            [attempt] => encode_request(id, &wire_op(routes, attempt), frame),
            group => encode_batch(id, group.iter().map(|a| wire_op(routes, a)), frame),
        }
    }

    /// Feeds the results of `member`'s reply frame — a batch reply if
    /// `batch` — to the ops they answer. A read settles the moment its
    /// quorum is in or its error is final, accounted as one completed RPC
    /// pair (the shared ring convention); a write's successes only count
    /// toward its quorum here, and the next plan settles it. `false`, with
    /// nothing absorbed, when the reply's kind or result count does not
    /// match the frame it answers.
    pub(crate) fn absorb(
        &mut self,
        dht: &RemoteDht,
        member: usize,
        batch: bool,
        replies: &mut Vec<Result<DhtResponse, DhtError>>,
    ) -> bool {
        let group = self.group(member);
        if batch != (group.len() > 1) || replies.len() != group.len() {
            return false;
        }
        let stride = dht.config.read_quorum;
        for (attempt, result) in self.attempts[group].iter().zip(replies.drain(..)) {
            let route = &mut self.routes[attempt.op];
            let gathered = &mut self.gathered[attempt.op * stride..][..stride];
            if route.settled {
                // A slower sibling attempt answered after the op settled.
                continue;
            }
            let settled = match result {
                Ok(resp) if route.op.is_write() => {
                    route.have += 1;
                    let anew =
                        matches!(resp, DhtResponse::Stored(true) | DhtResponse::Removed(true));
                    if anew || gathered[0].is_none() {
                        gathered[0] = Some((attempt.rank, resp));
                    }
                    continue;
                }
                Ok(resp) => {
                    if matches!(resp, DhtResponse::Digest { .. }) {
                        dht.metrics.incr(match route.op {
                            DhtOp::GetIfChanged { .. } => "net.quorum.unchanged",
                            _ => "net.quorum.digest_reads",
                        });
                    }
                    gathered[route.have] = Some((attempt.rank, resp));
                    route.have += 1;
                    if route.have < route.want {
                        continue;
                    }
                    match settle_response(route.op.key(), &mut gathered[..route.have]) {
                        // A caller's digest read that had to fetch lists
                        // answers with the digest of what a `Get` would.
                        Ok(DhtResponse::Values(values))
                            if matches!(route.op, DhtOp::GetDigest(_)) =>
                        {
                            Ok(DhtResponse::digest_of(route.op.key(), &values))
                        }
                        Ok(resp) => Ok(resp),
                        Err(agreed) => {
                            // The disputed digests wait behind the
                            // successes for the next round's plan.
                            let disputed = (route.have - agreed) as u64;
                            dht.metrics.add("net.quorum.digest_mismatches", disputed);
                            route.have = agreed;
                            continue;
                        }
                    }
                }
                Err(DhtError::Timeout) => {
                    // Transient: remember it and let the plan fail over.
                    route.reply_error = Some(DhtError::Timeout);
                    continue;
                }
                // Final remote error: no replica can do better.
                Err(e) => Err(e),
            };
            route.settled = true;
            dht.counters.record_pair(route.op.kind(), settled.is_ok());
            self.results[attempt.op] = settled;
        }
        true
    }

    /// One result per op, positionally. The buffers keep their capacity,
    /// not their contents: the ops, and any replica reply that lost the
    /// settle, are released here.
    pub(crate) fn done(&mut self) -> &mut Vec<Result<DhtResponse, DhtError>> {
        self.routes.clear();
        self.gathered.clear();
        &mut self.results
    }
}

impl Dht for RemoteDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.with_scratch(|dht, scratch| dht.execute_inner(op, scratch))
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        self.with_scratch(|dht, scratch| {
            dht.run(ops.into_iter(), scratch);
            std::mem::take(scratch.round.done())
        })
    }

    /// The same round as [`execute_many`](Dht::execute_many), with the
    /// results moved out of the round's own vector instead of handing
    /// that vector out: the caller's `ops` and `results` and the round's
    /// buffers all keep their capacity, so a warm wave allocates neither
    /// vector.
    fn execute_many_into(
        &mut self,
        ops: &mut Vec<DhtOp>,
        results: &mut Vec<Result<DhtResponse, DhtError>>,
    ) {
        self.with_scratch(|dht, scratch| {
            dht.run(ops.drain(..), scratch);
            results.append(scratch.round.done());
        });
    }

    /// The member owning `key` — its clockwise successor on the ring, as
    /// `RingDht::owner` places it — or `None` when the member list is
    /// empty.
    fn node_for(&self, key: &Key) -> Option<NodeId> {
        placement::successor_index(&self.ring, key).map(|at| self.members[at].id)
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
            RemoteDhtConfig::default(),
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

        // The same round over kept vectors: the ops are drained and the
        // results appended after what the caller's vector already held.
        let reads = || -> Vec<DhtOp> {
            let key = |i| Key::hash_of(&format!("batch-item-{i}"));
            (0..10).map(|i| DhtOp::Get(key(i))).collect()
        };
        let (mut ops, mut results) = (reads(), vec![Ok(DhtResponse::Stored(true))]);
        remote.execute_many_into(&mut ops, &mut results);
        assert!(ops.is_empty());
        assert_eq!(results[0], Ok(DhtResponse::Stored(true)));
        assert_eq!(results[1..], ring.execute_many(reads())[..]);
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

    /// Hands `round` the reply `msg` from `member`, through the codec.
    fn absorb_reply(round: &mut Round, dht: &RemoteDht, member: usize, msg: &Message) -> bool {
        let frame = crate::wire::encode_to_vec(msg);
        let mut replies = Vec::new();
        let reply = crate::wire::read_reply_with(&mut &frame[..], &mut Vec::new(), &mut replies);
        let reply = reply.expect("a reply frame decodes");
        round.absorb(dht, member, reply.batch, &mut replies)
    }

    #[test]
    fn a_reply_mixing_ok_and_error_results_settles_each_op_by_its_own() {
        // Three gets whose keys share a primary, at R = 2: one batch frame,
        // whose reply carries an ok, a transient error and a final error,
        // in op order. Nothing is dialed.
        let nowhere: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let config = RemoteDhtConfig {
            replicas: 2,
            ..RemoteDhtConfig::default()
        };
        let dht = RemoteDht::connect(RemoteDht::named_members(&[nowhere; 3]), config);
        let replica = |key: &Key, rank| placement::replica_range(&dht.ring, key, 2).index(rank);
        let primary = replica(&Key::hash_of("mixed-0"), 0);
        let keys: Vec<Key> = (0..)
            .map(|i| Key::hash_of(&format!("mixed-{i}")))
            .filter(|key| replica(key, 0) == primary)
            .take(3)
            .collect();
        let mut round = Round::default();
        round.start(&dht, keys.iter().map(|key| DhtOp::Get(*key)));
        assert!(round.plan(&dht));
        assert_eq!(round.groups().collect::<Vec<_>>(), vec![(primary, 3)]);
        let held = vec![Bytes::from_static(b"v")];
        let results = vec![
            Ok(DhtResponse::Values(held.clone())),
            Err(DhtError::Timeout),
            Err(DhtError::StorageFull),
        ];
        let reply = Message::BatchReply { id: 1, results };
        assert!(absorb_reply(&mut round, &dht, primary, &reply));
        // The final error settles at once, as itself; the timeout waits.
        assert_eq!(round.results[2], Err(DhtError::StorageFull));
        assert!(!round.routes[1].settled);
        // The timed-out get fails over to its next replica, alone.
        assert!(round.plan(&dht));
        let next = replica(&keys[1], 1);
        assert_eq!(round.groups().collect::<Vec<_>>(), vec![(next, 1)]);
        let result = Ok(DhtResponse::Values(Vec::new()));
        let reply = Message::Response { id: 2, result };
        assert!(absorb_reply(&mut round, &dht, next, &reply));
        assert!(!round.plan(&dht));
        let settled = vec![
            Ok(DhtResponse::Values(held)),
            Ok(DhtResponse::Values(Vec::new())),
            Err(DhtError::StorageFull),
        ];
        assert_eq!(*round.done(), settled);
        // One completed pair per op, and a lookup per ok get.
        let stats = DhtStats {
            messages: 6,
            lookups: 2,
            hops: 0,
        };
        assert_eq!(dht.stats(), stats);
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
