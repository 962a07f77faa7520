//! The threaded `dhtd` server: one node's storage partition over TCP.
//!
//! [`DhtServer::spawn_partition`] binds a listener (port 0 for an
//! ephemeral port), starts an accept loop on its own thread, and serves
//! every connection on a dedicated worker thread — plain `std::thread`,
//! no async runtime, no new dependencies. Each worker reads request
//! frames, hands each to `handle` — the server's step function: one
//! decoded frame and the shared state in, the reply frame (or "leave") out,
//! with no socket, reader or writer in sight — and writes the response
//! frame back with the echoed request id. `handle` executes against the
//! one store a daemon has: a [`ShardedDht`] of [`REPAIR_BUCKETS`] key-hash
//! shards, each behind its own `RwLock` held only for the in-memory
//! operation, never across I/O. Frames this member sends its peers go out
//! through `link.rs`, the same dialing code the client uses.
//! Whatever routing a deployment puts in front (ring, Chord), what a
//! node *serves* is this one multi-value `put/get/remove` store; the
//! client routes and accounts.
//!
//! Every storage operation of every frame kind reaches the store through
//! one function, `Shared::apply_local`. That is also where
//! [`ServerConfig::fault`] sits: a seeded [`LossRoll`] decides, before the
//! store is touched, whether the request or its response is "lost", and
//! the injected [`DhtError::Timeout`] travels the wire as an ordinary
//! typed error frame.
//!
//! Shutdown is graceful and reachable two ways: locally via
//! [`DhtServer::shutdown`], or over the wire with a [`Message::Shutdown`]
//! frame (what the multi-process harness sends its children). Either path
//! stops the accept loop, lets in-flight requests finish, and joins every
//! worker.
//!
//! Per-connection read timeouts double as the shutdown poll interval: a
//! worker blocked in `read` wakes at least every `read_timeout` to check
//! the flag, so shutdown latency is bounded without extra machinery. Only
//! a timeout between frames is such a tick: a frame that has begun is read
//! to its end, however many timeouts its bytes straddle.
//!
//! # Replication
//!
//! With a [`ReplicationConfig`] the server becomes one member of a
//! replicated cluster. A client frame — a `Request` is a batch of one — is
//! applied locally op by op, in frame order; then its writes (`Put` /
//! `Remove`) fan out to the other members of each key's replica set — the
//! R clockwise successors shared with `p2p_index_dht::placement`, so
//! client routing, server fan-out, and repair can never disagree — as
//! **one** [`Message::Replicate`] frame per peer, holding that peer's
//! writes in frame order. The peers' links are leased in ascending ring
//! order and every frame is written before any reply is read, so a
//! `k`-write batch costs one pipelined round trip, not `k·(R − 1)`
//! sequential ones. Acks are counted per op: each write's local apply
//! plus remote acks must reach the write quorum `W` or the client sees a
//! transient [`DhtError::Timeout`] for that write. Incoming `Replicate` and
//! [`Transfer`](crate::wire::Message::Transfer) frames apply locally and
//! are **never re-forwarded**, so replication storms are impossible by
//! construction. A wire shutdown first drains the local partition to the
//! surviving members of each key's replica set (graceful leave), then
//! stops.
//!
//! # Repair
//!
//! A background anti-entropy thread runs a **digest pass** every
//! [`ReplicationConfig::repair_interval`]; its cost follows what differs
//! between two members, not what they hold.
//!
//! 1. *Digest.* One read-locked sweep of the store
//!    ([`ShardedDht::bucket_digests`]) computes, for every peer at once
//!    and without allocating per key, one 64-bit order-independent digest
//!    per **repair bucket** ([`REPAIR_BUCKETS`] slices of the key space by
//!    the key's low bits — one per shard, the same on every member) over
//!    the keys whose replica set contains that peer.
//! 2. *Probe.* Each peer gets its sixteen digests in one
//!    [`Digest`](crate::wire::Message::Digest) frame, computes the same
//!    digests over the keys whose replica set contains the sender, and
//!    answers with a 16-bit mask of the buckets that differ. A peer that
//!    is unreachable, or cannot answer a digest, is skipped for the pass —
//!    there is no other push to fall back to.
//! 3. *Push.* Only differing buckets are sent, **one bucket at a time**:
//!    snapshot the bucket, one `Transfer` of its live values (receivers'
//!    puts deduplicate, so this is idempotent), then one `Replicate`
//!    holding a remove per tombstone in it (the *scrub*; none if it has
//!    no tombstones), drop the snapshot. What a pass holds in memory
//!    is a sixteenth of one peer's share even when every bucket differs
//!    (a member restarted empty; the false mismatches that writes still
//!    in flight cause during a publish burst). The graceful-leave drain
//!    sends through the same bucket sender, so no frame this server
//!    builds is larger than a bucket.
//!
//! What is digested is the **raw stored pairs and the tombstones, as two
//! tagged classes** — not "stored minus dead". Deletes leave tombstones:
//! a `Remove` marks the `(key, value)` pair dead, pushes withhold
//! tombstoned values, incoming `Transfer` frames drop them, and the scrub
//! re-sends the remove so a stale member drops the value and records the
//! tombstone itself. A member restored from an old image with its
//! tombstones intact holds a deleted pair *and* its tombstone; under
//! "stored minus dead" it would digest equal to its healthy peers and
//! never be scrubbed, under two classes it differs and is.
//!
//! Two things this pass does not do. A key held by a member outside its
//! replica set (after a drain) is in the holder's digests and in nobody
//! else's, so its bucket reads "differs" and is pushed every pass:
//! redundant, harmless, and bounded by that bucket. And a scrub
//! can still undo a re-put that lands between a bucket's snapshot and its
//! send: that needs per-pair versions; here the window merely narrows to
//! buckets that differ.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::{
    kind_counter, placement, BucketDigests, Delivery, DhtError, DhtOp, DhtResponse, FaultConfig,
    Key, LossRoll, NodeId, OpFamily, ShardedDht, REPAIR_BUCKETS,
};
use p2p_index_obs::MetricsRegistry;

use crate::link::{Pooled, Timeouts};
use crate::wire::{
    encode_message, encode_replicate, read_message_with, release_frame_capacity,
    write_message_with, Message, RecvError,
};

/// Cluster membership and quorum settings for one replicated server.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// This server's own position on the identifier circle.
    pub node_key: Key,
    /// Every cluster member (including self) as `(ring key, address)`.
    pub members: Vec<(Key, SocketAddr)>,
    /// Replication factor R: each key lives on the R clockwise
    /// successors of its hash (clamped to the cluster size).
    pub replicas: usize,
    /// Write quorum W: a write succeeds once `W` replicas (the local
    /// apply counts as one) have acknowledged it.
    pub write_quorum: usize,
    /// Anti-entropy interval; `None` disables the repair thread.
    pub repair_interval: Option<Duration>,
}

impl ReplicationConfig {
    /// A config for node `node_key` in `members`, with quorums clamped to
    /// sane bounds (`1 ≤ W ≤ R ≤ n`).
    pub fn new(
        node_key: Key,
        members: Vec<(Key, SocketAddr)>,
        replicas: usize,
        write_quorum: usize,
    ) -> ReplicationConfig {
        let replicas = replicas.clamp(1, members.len().max(1));
        ReplicationConfig {
            node_key,
            members,
            replicas,
            write_quorum: write_quorum.clamp(1, replicas),
            repair_interval: Some(Duration::from_millis(200)),
        }
    }
}

/// Tuning knobs for a [`DhtServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection socket read timeout. Also bounds how long a worker
    /// can go without checking the shutdown flag.
    pub read_timeout: Duration,
    /// Metrics sink for the `net.server.*` series (disabled by default).
    pub metrics: MetricsRegistry,
    /// Replicated-cluster membership; `None` (the default) serves a
    /// plain unreplicated partition.
    pub replication: Option<ReplicationConfig>,
    /// Message loss injected in front of the store (none by default):
    /// each storage operation first draws from a [`LossRoll`] seeded with
    /// `fault.seed`, exactly like an in-process `FaultyDht`.
    pub fault: FaultConfig,
    /// How many connections are served at once — each costs a worker
    /// thread. A connection accepted beyond it is closed at once
    /// (`net.server.admission_rejects`); the dialer sees a closed stream,
    /// which a client maps to the transient [`DhtError::Timeout`] like
    /// any other transport failure.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_millis(100),
            metrics: MetricsRegistry::disabled(),
            replication: None,
            fault: FaultConfig::none(),
            max_connections: 1024,
        }
    }
}

/// Server-to-server calls stay well under typical client read timeouts, so
/// one dead peer can stall a quorum write only briefly — the client never
/// times out waiting on our timeout.
const PEER_TIMEOUTS: Timeouts = Timeouts {
    connect: Duration::from_millis(300),
    read: Duration::from_millis(700),
    write: Duration::from_millis(700),
};

/// Replication state shared by connection workers and the repair thread.
struct Replication {
    node_key: Key,
    /// All member ring keys, ascending — the placement ring.
    ring: Vec<Key>,
    /// `peers[at]` is the link to the member at `ring[at]`; `None` at
    /// this node's own position.
    peers: Vec<Option<Pooled>>,
    replicas: usize,
    write_quorum: usize,
    repair_interval: Option<Duration>,
    next_request_id: AtomicU64,
}

impl Replication {
    fn from_config(config: ReplicationConfig) -> Replication {
        let members: BTreeMap<Key, SocketAddr> = config.members.into_iter().collect();
        let ring: Vec<Key> = members.keys().copied().collect();
        let peers = members
            .iter()
            .map(|(key, addr)| (*key != config.node_key).then(|| Pooled::new(*addr)))
            .collect();
        Replication {
            node_key: config.node_key,
            ring,
            peers,
            replicas: config.replicas,
            write_quorum: config.write_quorum,
            repair_interval: config.repair_interval,
            next_request_id: AtomicU64::new(1),
        }
    }

    /// The replica set of `key` as a window of `ring` positions — the
    /// allocation-free form the fan-out and the repair sweeps ask per key.
    fn replica_range(&self, key: &Key) -> placement::ReplicaRange {
        placement::replica_range(&self.ring, key, self.replicas)
    }

    /// Ring positions of every member but this one.
    fn peer_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ring.len()).filter(|at| self.peers[*at].is_some())
    }

    /// Sends one frame to the member at ring position `at` and awaits the
    /// reply carrying the same id, returning it with the number of bytes
    /// sent. Any transport or protocol failure drops the link and reports
    /// `Err(())` — the caller treats it as a missing ack, never as fatal.
    fn peer_call(&self, at: usize, msg: &Message) -> Result<(Message, u64), ()> {
        let peer = self.peers.get(at).and_then(Option::as_ref).ok_or(())?;
        let mut slot = peer.lease(PEER_TIMEOUTS);
        let link = slot.as_mut().ok_or(())?;
        let sent_id = match msg {
            Message::Replicate { id, .. }
            | Message::Transfer { id, .. }
            | Message::Digest { id, .. } => *id,
            _ => 0,
        };
        // Nothing is read back after a failed send.
        let sent = link.send(|frame| encode_message(msg, frame));
        let exchange = sent.ok().and_then(|sent| Some((link.recv().ok()?.0, sent)));
        match exchange {
            Some((
                reply @ (Message::Response { id, .. }
                | Message::BatchReply { id, .. }
                | Message::DigestReply { id, .. }),
                sent,
            )) if id == sent_id => Ok((reply, sent as u64)),
            _ => {
                *slot = None;
                Err(())
            }
        }
    }

    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Shared state between the accept loop and connection workers.
struct Shared {
    /// The partition store — the only place values and tombstones live.
    store: ShardedDht,
    /// The fault roll, present only when [`ServerConfig::fault`] can
    /// inject something. Locked for the roll alone, never across the
    /// store operation or peer I/O.
    fault: Option<Mutex<LossRoll>>,
    stop: AtomicBool,
    metrics: MetricsRegistry,
    read_timeout: Duration,
    /// Operations served since spawn (requests answered, ok or error).
    served: AtomicU64,
    /// Connection workers alive right now, and the most there may be.
    /// Only the accept loop adds to it, so its check-then-add cannot
    /// overshoot; each worker subtracts itself on the way out.
    connections: AtomicUsize,
    max_connections: usize,
    /// `Some` when this server is a member of a replicated cluster.
    replication: Option<Replication>,
}

impl Shared {
    /// The state of a member serving `node`'s partition from a fresh, empty
    /// store. Needs no listener: [`handle`] can be driven on it directly.
    fn new(node: NodeId, config: &ServerConfig) -> Shared {
        let mut store = ShardedDht::with_default_shards(node);
        store.set_shard_metrics(config.metrics.clone());
        Shared {
            store,
            fault: config
                .fault
                .is_active()
                .then(|| Mutex::new(LossRoll::new(config.fault))),
            stop: AtomicBool::new(false),
            metrics: config.metrics.clone(),
            read_timeout: config.read_timeout,
            served: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections,
            replication: config.replication.clone().map(Replication::from_config),
        }
    }

    /// The cluster state when writes actually fan out (`R > 1`): the
    /// condition under which this member keeps tombstones and repairs.
    fn fan_out(&self) -> Option<&Replication> {
        self.replication.as_ref().filter(|repl| repl.replicas > 1)
    }

    /// Applies one operation to the local store — the single function
    /// every frame kind's storage work goes through, with the fault roll
    /// in front of it. `replicated` writes make their tombstone
    /// transition in the same shard write-lock acquisition.
    fn apply_local(&self, op: DhtOp, replicated: bool) -> Result<DhtResponse, DhtError> {
        let delivery = match &self.fault {
            Some(roll) => roll.lock().expect("fault roll poisoned").roll(),
            None => Delivery::Delivered,
        };
        delivery.settle(|| {
            if replicated {
                self.store.execute_replicated(op)
            } else {
                self.store.execute_shared(op)
            }
        })
    }
}

/// A running DHT node server. Dropping the handle shuts the server down.
pub struct DhtServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    repair_thread: Option<JoinHandle<()>>,
}

impl DhtServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves the
    /// partition owned by `node` from a fresh, empty store.
    pub fn spawn_partition(
        node: NodeId,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<DhtServer> {
        Self::spawn_partition_on(TcpListener::bind(addr)?, node, config)
    }

    /// [`DhtServer::spawn_partition`] on an already-bound listener.
    /// Replicated clusters bootstrap this way: bind every member's
    /// listener first, collect the addresses into each
    /// [`ReplicationConfig`], then spawn — no member ever dials a peer
    /// that hasn't bound yet.
    pub fn spawn_partition_on(
        listener: TcpListener,
        node: NodeId,
        config: ServerConfig,
    ) -> io::Result<DhtServer> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(node, &config));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("dhtd-accept-{}", local_addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))?;
        let repair_thread = shared
            .fan_out()
            .and_then(|repl| repl.repair_interval)
            .map(|interval| {
                let repair_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dhtd-repair-{}", local_addr.port()))
                    .spawn(move || repair_loop(repair_shared, interval))
            })
            .transpose()?;
        Ok(DhtServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            repair_thread,
        })
    }

    /// Replaces the stored contents with `entries` in place (tombstones
    /// stay). Lets tests wipe one member into a "stale replica" or restore
    /// it from an old image without rebinding its port.
    pub fn replace_entries(&self, entries: Vec<(Key, Vec<Bytes>)>) {
        self.shared.store.replace_entries(entries);
    }

    /// Runs one synchronous anti-entropy pass now (in addition to the
    /// periodic thread), so tests can await "replication factor restored"
    /// without sleeping for the interval.
    pub fn repair_now(&self) {
        repair_pass(&self.shared);
    }

    /// The bound address — read this after `port 0` to learn the
    /// ephemeral port the OS assigned.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Operations answered so far (ok and error responses alike).
    pub fn ops_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Values resident in this member's store right now (tombstones not
    /// counted).
    pub fn total_values(&self) -> usize {
        self.shared.store.total_values()
    }

    /// `true` once a shutdown (local or wire) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Blocks until the server shuts down (via a wire shutdown frame or
    /// another thread calling [`DhtServer::shutdown`]). Used by the
    /// `repro serve` daemon main.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.repair_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, drains in-flight requests, and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Like [`DhtServer::shutdown`] but by reference, so a cluster can
    /// crash one member in place while the rest keep serving. No
    /// graceful-leave drain happens — this models failure, not leave.
    pub fn halt(&mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.repair_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DhtServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// How often the accept loop polls for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Accepts connections until the stop flag is set, then joins workers.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Admission: a worker thread per connection is only safe
                // up to a bound. Past it the socket is closed here, before
                // anything is read from it or spawned for it.
                if shared.connections.load(Ordering::SeqCst) >= shared.max_connections {
                    shared.metrics.incr("net.server.admission_rejects");
                    continue;
                }
                shared.metrics.incr("net.server.connections");
                let slot = ConnectionSlot::claim(&shared);
                match std::thread::Builder::new()
                    .name("dhtd-conn".to_string())
                    .spawn(move || serve_connection(stream, slot))
                {
                    Ok(handle) => workers.push(handle),
                    Err(_) => shared.metrics.incr("net.server.spawn_errors"),
                }
                // Opportunistically reap finished workers so a long-lived
                // daemon doesn't accumulate handles.
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                shared.metrics.incr("net.server.accept_errors");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// One admitted connection's claim on the server: the shared state its
/// worker serves from, counted in [`Shared::connections`] from the accept
/// loop's claim until the worker ends, however it ends — or at once, if no
/// worker could be spawned for it.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    fn claim(shared: &Arc<Shared>) -> ConnectionSlot {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(Arc::clone(shared))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Socket write timeout of a served connection, and how long a frame that
/// has begun may stall before the connection is given up on.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Whether a read error is the socket's read timeout firing.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The read side of a served connection. A read timeout before a frame's
/// first byte goes back to the caller, an idle poll tick; once the frame
/// has begun, a timeout is retried — the stop flag checked at each — until
/// the frame stalls for [`WRITE_TIMEOUT`]. So a frame's tail is never read
/// as the start of the next one.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    /// When the frame being read last delivered bytes; `None` before its
    /// first byte.
    progress: Option<Instant>,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) if n > 0 => {
                    self.progress = Some(Instant::now());
                    return Ok(n);
                }
                Err(e)
                    if is_timeout(&e)
                        && self.progress.is_some_and(|at| at.elapsed() < WRITE_TIMEOUT)
                        && !self.stop.load(Ordering::Relaxed) => {}
                other => return other,
            }
        }
    }
}

/// Serves one connection until the peer closes, a protocol error poisons
/// the stream, or shutdown is requested.
fn serve_connection(stream: TcpStream, slot: ConnectionSlot) {
    let shared = Arc::clone(&slot.0);
    // BSD-derived systems hand an accepted socket the listener's
    // non-blocking flag; a worker must block (up to its timeouts) instead.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader {
        stream: &stream,
        stop: &shared.stop,
        progress: None,
    };
    // Per-connection frame buffers, reused across every frame this worker
    // reads and writes: the per-frame payload and encode allocations of
    // the old path amortize to a few capacity growths per connection.
    let mut read_scratch: Vec<u8> = Vec::new();
    let mut write_scratch: Vec<u8> = Vec::with_capacity(256);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        reader.progress = None;
        let (msg, bytes_in) = match read_message_with(&mut reader, &mut read_scratch) {
            Ok(ok) => ok,
            Err(RecvError::Closed) => return,
            Err(RecvError::Io(e)) if is_timeout(&e) && reader.progress.is_none() => {
                // Idle poll tick: loop to re-check the shutdown flag. An
                // idle connection also hands back what one large frame
                // (a multi-megabyte `Transfer`, say) grew its read buffer
                // to, so the cost of the biggest frame ever seen is not
                // paid for the connection's whole life.
                if release_frame_capacity(&mut read_scratch) {
                    shared.metrics.incr("net.server.buffers_released");
                }
                continue;
            }
            // A frame cut short by shutdown is no transport fault.
            Err(RecvError::Io(_)) if shared.stop.load(Ordering::Relaxed) => return,
            Err(RecvError::Io(_)) => {
                shared.metrics.incr("net.server.transport_errors");
                return;
            }
            Err(RecvError::Wire(_)) => {
                // Strict rejection: a malformed frame poisons the stream
                // (framing can no longer be trusted), so the connection is
                // dropped rather than resynchronized by guesswork.
                shared.metrics.incr("net.server.decode_errors");
                return;
            }
        };
        shared.metrics.incr("net.server.frames_in");
        shared.metrics.add("net.server.bytes_in", bytes_in as u64);
        let reply = match handle(&shared, msg) {
            Turn::Reply(reply) => reply,
            Turn::Leave | Turn::Abuse => return,
        };
        match write_message_with(&mut &stream, &reply, &mut write_scratch) {
            Ok(bytes_out) => {
                shared.metrics.incr("net.server.frames_out");
                shared.metrics.add("net.server.bytes_out", bytes_out as u64);
            }
            Err(_) => {
                shared.metrics.incr("net.server.transport_errors");
                return;
            }
        }
        // The reply is on the wire; one long value list must not pin its
        // size to this connection either.
        if release_frame_capacity(&mut write_scratch) {
            shared.metrics.incr("net.server.buffers_released");
        }
    }
}

/// What a connection does once [`handle`] has seen a frame.
#[derive(Debug, PartialEq)]
enum Turn {
    /// Answer with this frame and keep serving.
    Reply(Message),
    /// A wire shutdown: the member has drained and is stopping.
    Leave,
    /// A frame no client may send; the connection is dropped.
    Abuse,
}

/// The server's step function: what this member does with one decoded
/// frame. Everything a frame can cause — store operations, the fault roll,
/// the replication fan-out to peers, counters, the stop flag — happens in
/// here; the caller owns the connection the frame came in on and does
/// nothing but carry out the returned [`Turn`].
fn handle(shared: &Shared, msg: Message) -> Turn {
    Turn::Reply(match msg {
        Message::Request { id, op } => {
            let mut results = [Err(DhtError::Timeout)];
            serve_ops(shared, std::slice::from_ref(&op), &mut results);
            let [result] = results;
            Message::Response { id, result }
        }
        Message::Batch { id, ops } => {
            // A whole batch executes in one connection turn: every op runs
            // in order, each taking only its own shard's lock, its writes
            // fan out together under no lock at all, and a single
            // BatchReply answers them all.
            shared.metrics.incr("net.server.batches");
            shared.metrics.add("net.server.batch_ops", ops.len() as u64);
            let mut results = vec![Err(DhtError::Timeout); ops.len()];
            serve_ops(shared, &ops, &mut results);
            Message::BatchReply { id, results }
        }
        Message::Replicate { id, ops } => {
            // A peer's write fan-out (or a repair scrub): apply every op
            // locally in order, reply, and never re-forward — only client
            // `Request`/`Batch` frames fan out, so replication storms
            // cannot happen. The tombstone transition rides along, so
            // replicated removes (and scrubs) stick on every member, not
            // just the one the client happened to reach.
            let replicated = shared.fan_out().is_some();
            shared
                .metrics
                .add("net.server.replica.applied", ops.len() as u64);
            let apply = |op| shared.apply_local(op, replicated);
            let results = ops.into_iter().map(apply).collect();
            Message::BatchReply { id, results }
        }
        Message::Transfer { id, entries } => {
            // Bulk handoff from a leaving peer or a repair pass: apply
            // every value locally (puts deduplicate, so re-transfers are
            // no-ops), never re-forward. Values this member holds a
            // tombstone for are dropped — a stale peer's add-only repair
            // push must not resurrect a mapping deleted here.
            let (entries, dropped) = shared.store.filter_live(entries);
            let mut values = 0u64;
            for (key, list) in entries {
                for value in list {
                    values += 1;
                    let _ = shared.apply_local(DhtOp::Put { key, value }, false);
                }
            }
            shared
                .metrics
                .add("net.server.replica.transfer_values", values);
            shared
                .metrics
                .add("net.server.replica.tombstone_drops", dropped);
            Message::Response {
                id,
                result: Ok(DhtResponse::Stored(true)),
            }
        }
        Message::Digest { id, from, buckets } => {
            // A peer's anti-entropy probe. A server that replicates nothing
            // with `from` has no digests to compare and says so with a
            // typed error; the prober skips it.
            match differing_buckets(shared, &from, &buckets) {
                Some(differs) => Message::DigestReply { id, differs },
                None => Message::Response {
                    id,
                    result: Err(DhtError::NoLiveNodes),
                },
            }
        }
        Message::Shutdown => {
            shared.metrics.incr("net.server.shutdowns");
            // Graceful leave: hand this node's partition to the surviving
            // replica-set members before going quiet.
            drain_partition(shared);
            shared.stop.store(true, Ordering::SeqCst);
            return Turn::Leave;
        }
        Message::Response { .. } | Message::BatchReply { .. } | Message::DigestReply { .. } => {
            // Clients must not send responses; treat as protocol abuse.
            shared.metrics.incr("net.server.decode_errors");
            return Turn::Abuse;
        }
    })
}

/// Whether `op` changes the store, and so fans out on a replicated member.
fn is_write(op: &DhtOp) -> bool {
    matches!(op, DhtOp::Put { .. } | DhtOp::Remove { .. })
}

/// Serves one client frame's ops into `results` — a `Request` is a batch
/// of one — and counts each. Every op is applied locally in frame order;
/// on a replicated member the frame's writes then fan out together
/// ([`fan_out_writes`]). No shard lock is ever held across peer I/O.
fn serve_ops(shared: &Shared, ops: &[DhtOp], results: &mut [Result<DhtResponse, DhtError>]) {
    let repl = shared.fan_out();
    let replicated = |op: &DhtOp| repl.is_some() && is_write(op);
    for (op, result) in ops.iter().zip(results.iter_mut()) {
        *result = shared.apply_local(op.clone(), replicated(op));
    }
    if let Some(repl) = repl.filter(|_| ops.iter().any(is_write)) {
        fan_out_writes(shared, repl, ops, results);
    }
    for (op, result) in ops.iter().zip(results.iter()) {
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .incr(kind_counter(OpFamily::Server, op.kind()));
        if result.is_err() {
            shared.metrics.incr("net.server.op_errors");
        }
    }
}

/// The write fan-out of one client frame, already applied locally: every
/// peer in the replica set of any of its writes gets those writes, in
/// frame order, as **one** `Replicate` frame. The peers' links are leased
/// in ascending ring order — the client's rule, so workers leasing several
/// at once cannot wait on each other in a cycle — and every frame is
/// written before any reply is read. Acks are counted per op: a write
/// keeps its local result only if its local apply and its peers' oks
/// reach `W`, and is `Err(Timeout)` otherwise.
fn fan_out_writes(
    shared: &Shared,
    repl: &Replication,
    ops: &[DhtOp],
    results: &mut [Result<DhtResponse, DhtError>],
) {
    // Positions in `ops` of the writes the peer at ring position `at`
    // replicates, in frame order: what its frame holds, and what each of
    // its reply's results answers.
    let writes_for = |at: usize| {
        let bound = move |op: &DhtOp| is_write(op) && repl.replica_range(op.key()).contains(at);
        (0..ops.len()).filter(move |&i| bound(&ops[i]))
    };
    let mut acks: Vec<usize> = results.iter().map(|r| usize::from(r.is_ok())).collect();
    let mut in_flight = Vec::new();
    for (at, peer) in repl.peers.iter().enumerate() {
        let Some(peer) = peer else { continue };
        let count = writes_for(at).count();
        if count == 0 {
            continue;
        }
        shared.metrics.incr("net.server.replica.frames");
        shared
            .metrics
            .add("net.server.replica.fanout", count as u64);
        let mut slot = peer.lease(PEER_TIMEOUTS);
        let Some(link) = slot.as_mut() else { continue };
        let id = repl.next_id();
        let writes = writes_for(at).map(|i| &ops[i]);
        match link.send(|frame| encode_replicate(id, writes, frame)) {
            Ok(_) => in_flight.push((slot, at, id, count)),
            Err(_) => *slot = None,
        }
    }
    let mut replies = Vec::new();
    for (mut slot, at, id, count) in in_flight {
        let link = slot.as_mut().expect("link pending a reply");
        match link.recv_reply(&mut replies) {
            // The echoed id, the kind and one result per write, or the
            // stream is out of sync: drop it rather than guess.
            Ok(reply) if reply.id == id && reply.batch && replies.len() == count => {
                let mut acked = 0;
                for (i, result) in writes_for(at).zip(replies.drain(..)) {
                    if result.is_ok() {
                        acks[i] += 1;
                        acked += 1;
                    }
                }
                shared.metrics.add("net.server.replica.acks", acked);
            }
            _ => *slot = None,
        }
    }
    for ((op, result), acks) in ops.iter().zip(results.iter_mut()).zip(acks) {
        if is_write(op) && acks < repl.write_quorum {
            shared.metrics.incr("net.server.replica.quorum_failures");
            *result = Err(DhtError::Timeout);
        }
    }
}

/// The one push path, shared by repair and drain: sends the member at
/// ring position `at` one repair bucket's live values (what
/// [`ShardedDht::bucket_snapshot`] returned for it) as one `Transfer`
/// frame — none if there are none — and drops them, so a push never holds
/// or frames more than one bucket. Counts an acknowledged frame and its
/// values under `net.server.replica.{series}_pushes` / `…_values`.
/// Returns the bytes sent, or `Err(())` when the peer did not answer (the
/// caller gives up on it for this pass).
fn push_bucket(
    shared: &Shared,
    repl: &Replication,
    at: usize,
    live: Vec<(Key, Vec<Bytes>)>,
    [pushes, pushed_values]: [&'static str; 2],
) -> Result<u64, ()> {
    if live.is_empty() {
        return Ok(0);
    }
    let values: u64 = live.iter().map(|(_, vs)| vs.len() as u64).sum();
    let transfer = Message::Transfer {
        id: repl.next_id(),
        entries: live,
    };
    let (_, sent) = repl.peer_call(at, &transfer)?;
    shared.metrics.incr(pushes);
    shared.metrics.add(pushed_values, values);
    Ok(sent)
}

/// The periodic anti-entropy driver: a repair pass every `interval`,
/// sleeping in short ticks so shutdown stays responsive.
fn repair_loop(shared: Arc<Shared>, interval: Duration) {
    let tick = Duration::from_millis(20).min(interval);
    let mut since_last = Duration::ZERO;
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        since_last += tick;
        if since_last >= interval {
            since_last = Duration::ZERO;
            repair_pass(&shared);
        }
    }
}

/// One anti-entropy pass (module docs, "Repair"): digest the partition
/// once for all peers, probe each peer with its digests, and push — bucket
/// by bucket — only what the peer says differs: the bucket's live values
/// as one `Transfer` (what refills a member that restarted empty), then
/// its tombstones as one `Replicate` of removes (what scrubs a stale
/// member still holding a deleted mapping). On a converged cluster a pass
/// costs one sweep and one small frame pair per peer.
fn repair_pass(shared: &Shared) {
    let Some(repl) = shared.fan_out() else {
        return;
    };
    let digests = shared.store.bucket_digests(repl.ring.len(), |key| {
        let holders = repl.replica_range(key).indices();
        holders.filter(|at| repl.peers[*at].is_some())
    });
    let mut pushed_bytes = 0;
    for at in repl.peer_positions() {
        shared.metrics.incr("net.server.replica.digest_probes");
        let probe = Message::Digest {
            id: repl.next_id(),
            from: repl.node_key,
            buckets: digests[at],
        };
        let Ok((Message::DigestReply { differs, .. }, _)) = repl.peer_call(at, &probe) else {
            continue;
        };
        let mismatches = u64::from(differs.count_ones());
        shared
            .metrics
            .add("net.server.replica.digest_mismatches", mismatches);
        pushed_bytes += push_differing(shared, repl, at, differs);
    }
    shared
        .metrics
        .add("net.server.replica.repair_bytes", pushed_bytes);
}

/// Pushes and scrubs the buckets `differs` names to the member at `at`,
/// giving up on the first frame it does not answer. Returns the bytes
/// sent.
fn push_differing(shared: &Shared, repl: &Replication, at: usize, differs: u16) -> u64 {
    let mut sent_bytes = 0;
    for bucket in (0..REPAIR_BUCKETS).filter(|bucket| differs >> bucket & 1 == 1) {
        let holds = |key: &Key| repl.replica_range(key).contains(at);
        let snapshot = shared.store.bucket_snapshot(bucket, holds);
        let series = [
            "net.server.replica.repair_pushes",
            "net.server.replica.repair_values",
        ];
        let Ok(sent) = push_bucket(shared, repl, at, snapshot.live, series) else {
            return sent_bytes;
        };
        sent_bytes += sent;
        let removes = snapshot.dead.into_iter().flat_map(|(key, values)| {
            values
                .into_iter()
                .map(move |value| DhtOp::Remove { key, value })
        });
        let ops: Vec<DhtOp> = removes.collect();
        if ops.is_empty() {
            continue;
        }
        let scrubs = ops.len() as u64;
        shared.metrics.incr("net.server.replica.frames");
        let scrub = Message::Replicate {
            id: repl.next_id(),
            ops,
        };
        let Ok((_, sent)) = repl.peer_call(at, &scrub) else {
            return sent_bytes;
        };
        shared
            .metrics
            .add("net.server.replica.tombstone_scrubs", scrubs);
        sent_bytes += sent;
    }
    sent_bytes
}

/// The `Digest` handler: this member's digests over the keys whose
/// replica set contains `from`, compared with `theirs` — bit `b` of the
/// result is set when bucket `b` differs. `None` when this server
/// replicates nothing with `from` (unreplicated, `R = 1`, or `from` is not
/// another member of its ring).
fn differing_buckets(shared: &Shared, from: &Key, theirs: &BucketDigests) -> Option<u16> {
    let repl = shared.fan_out()?;
    let from_at = repl.ring.binary_search(from).ok()?;
    repl.peers[from_at].as_ref()?;
    let ours = shared.store.bucket_digests(1, |key| {
        repl.replica_range(key).contains(from_at).then_some(0)
    });
    let differs = ours[0].iter().zip(theirs).enumerate();
    Some(differs.fold(0, |mask, (bucket, (ours, theirs))| {
        mask | u16::from(ours != theirs) << bucket
    }))
}

/// Graceful-leave drain: push this node's whole partition, bucket by
/// bucket, to each key's replica set as recomputed over the ring
/// *without* this node, so the replication factor survives the departure.
/// Best-effort — a peer that stops answering is skipped; the survivors'
/// repair passes finish the job.
fn drain_partition(shared: &Shared) {
    let Some(repl) = &shared.replication else {
        return;
    };
    let survivors: Vec<Key> = repl.peer_positions().map(|at| repl.ring[at]).collect();
    for (rank, at) in repl.peer_positions().enumerate() {
        let holds =
            |key: &Key| placement::replica_range(&survivors, key, repl.replicas).contains(rank);
        for bucket in 0..REPAIR_BUCKETS {
            let live = shared.store.bucket_snapshot(bucket, holds).live;
            let series = [
                "net.server.replica.drain_pushes",
                "net.server.replica.drain_values",
            ];
            if push_bucket(shared, repl, at, live, series).is_err() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_message_with, write_message_with};
    use bytes::Bytes;
    use p2p_index_dht::{repair_bucket, DhtOp, DhtResponse, Key};

    fn spawn_with(config: ServerConfig) -> DhtServer {
        DhtServer::spawn_partition(NodeId::hash_of("node-0"), "127.0.0.1:0", config)
            .expect("bind loopback")
    }

    fn spawn_ring() -> DhtServer {
        spawn_with(ServerConfig::default())
    }

    /// Sends `msg` on `stream` and reads the reply, or `None` if the
    /// stream is dead.
    fn exchange(stream: &mut TcpStream, msg: &Message) -> Option<Message> {
        let mut scratch = Vec::new();
        write_message_with(stream, msg, &mut scratch).ok()?;
        read_message_with(stream, &mut scratch)
            .ok()
            .map(|(reply, _)| reply)
    }

    fn call(stream: &mut TcpStream, id: u64, op: DhtOp) -> Message {
        exchange(stream, &Message::Request { id, op }).unwrap()
    }

    #[test]
    fn serves_put_get_over_tcp() {
        let server = spawn_ring();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let key = Key::hash_of("k");
        let reply = call(
            &mut stream,
            1,
            DhtOp::Put {
                key,
                value: Bytes::from_static(b"v"),
            },
        );
        assert_eq!(
            reply,
            Message::Response {
                id: 1,
                result: Ok(DhtResponse::Stored(true))
            }
        );
        let reply = call(&mut stream, 2, DhtOp::Get(key));
        assert_eq!(
            reply,
            Message::Response {
                id: 2,
                result: Ok(DhtResponse::Values(vec![Bytes::from_static(b"v")]))
            }
        );
        assert_eq!(server.ops_served(), 2);
        server.shutdown();
    }

    #[test]
    fn serves_a_whole_batch_in_one_turn() {
        let server = spawn_ring();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let key = Key::hash_of("batch-key");
        let batch = Message::Batch {
            id: 7,
            ops: vec![
                DhtOp::Put {
                    key,
                    value: Bytes::from_static(b"v"),
                },
                DhtOp::Get(key),
                DhtOp::Remove {
                    key,
                    value: Bytes::from_static(b"absent"),
                },
            ],
        };
        assert_eq!(
            exchange(&mut stream, &batch).unwrap(),
            Message::BatchReply {
                id: 7,
                results: vec![
                    Ok(DhtResponse::Stored(true)),
                    Ok(DhtResponse::Values(vec![Bytes::from_static(b"v")])),
                    Ok(DhtResponse::Removed(false)),
                ],
            }
        );
        assert_eq!(server.ops_served(), 3, "a batch op counts like a unary op");
        server.shutdown();
    }

    #[test]
    fn malformed_frame_drops_the_connection() {
        let metrics = MetricsRegistry::new();
        let server = spawn_with(ServerConfig {
            metrics: metrics.clone(),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        use std::io::{Read, Write};
        stream.write_all(b"garbage-not-a-frame-at-all").unwrap();
        stream.flush().unwrap();
        // Server closes on us without replying.
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
        assert_eq!(metrics.counter("net.server.decode_errors"), 1);
        server.shutdown();
    }

    #[test]
    fn a_frame_straddling_read_timeouts_is_read_whole() {
        // The frame's first bytes arrive, then the rest only after several
        // read timeouts have fired: the worker must wait for the tail, not
        // take it for the start of a new frame.
        let metrics = MetricsRegistry::new();
        let server = spawn_with(ServerConfig {
            read_timeout: Duration::from_millis(20),
            metrics: metrics.clone(),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let op = DhtOp::Get(Key::hash_of("k"));
        let frame = crate::wire::encode_to_vec(&Message::Request { id: 3, op });
        use std::io::Write;
        stream.write_all(&frame[..5]).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&frame[5..]).unwrap();
        let reply = read_message_with(&mut stream, &mut Vec::new()).ok();
        let result = Ok(DhtResponse::Values(Vec::new()));
        assert_eq!(
            reply.map(|(reply, _)| reply),
            Some(Message::Response { id: 3, result })
        );
        assert_eq!(metrics.counter("net.server.decode_errors"), 0);
        server.shutdown();
    }

    #[test]
    fn connections_past_the_limit_are_refused_and_a_freed_slot_is_reusable() {
        use std::time::Instant;
        let metrics = MetricsRegistry::new();
        let server = spawn_with(ServerConfig {
            max_connections: 4,
            metrics: metrics.clone(),
            ..ServerConfig::default()
        });
        let dial = || {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            stream
        };
        // What a dialer learns: the answer, or that the stream is dead.
        let ask = |stream: &mut TcpStream, id: u64| {
            let op = DhtOp::Get(Key::hash_of("k"));
            exchange(stream, &Message::Request { id, op })
        };
        let answered = |id: u64| {
            Some(Message::Response {
                id,
                result: Ok(DhtResponse::Values(Vec::new())),
            })
        };
        let mut admitted: Vec<TcpStream> = (0..4).map(|_| dial()).collect();
        for (id, stream) in admitted.iter_mut().enumerate() {
            assert_eq!(ask(stream, id as u64), answered(id as u64));
        }
        // The kernel completes the fifth handshake; the server closes the
        // socket at accept, before reading anything from it.
        let mut fifth = dial();
        assert_eq!(ask(&mut fifth, 5), None);
        assert_eq!(metrics.counter("net.server.admission_rejects"), 1);
        assert_eq!(metrics.counter("net.server.connections"), 4);
        for (id, stream) in admitted.iter_mut().enumerate() {
            assert_eq!(ask(stream, 10 + id as u64), answered(10 + id as u64));
        }
        // Closing one of the four frees its slot as soon as its worker
        // sees the close; a dial after that is served.
        drop(admitted.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        while ask(&mut dial(), 20) != answered(20) {
            assert!(Instant::now() < deadline, "the freed slot never came back");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.counter("net.server.connections"), 5);
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = spawn_ring();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message_with(&mut stream, &Message::Shutdown, &mut Vec::new()).unwrap();
        // wait() returns because the shutdown frame set the stop flag.
        server.wait();
        // The listener is gone: new connections are refused (give the OS a
        // moment to tear the socket down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err());
    }

    // `handle` driven directly, all nine frame kinds: nothing below binds a
    // listener or opens a stream.

    /// The state of member `node-0`, bound to nothing, and its counters.
    /// With `replicas > 1` it is one of three ring members whose peers'
    /// address nothing here ever dials.
    fn unbound_member(replicas: usize) -> (Shared, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let nowhere: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let ring = (0..3).map(|i| (Key::hash_of(&format!("node-{i}")), nowhere));
        let config = ServerConfig {
            metrics: metrics.clone(),
            replication: (replicas > 1).then(|| {
                ReplicationConfig::new(Key::hash_of("node-0"), ring.collect(), replicas, 1)
            }),
            ..ServerConfig::default()
        };
        (Shared::new(NodeId::hash_of("node-0"), &config), metrics)
    }

    fn answer(id: u64, response: DhtResponse) -> Turn {
        let result = Ok(response);
        Turn::Reply(Message::Response { id, result })
    }

    #[test]
    fn handle_answers_requests_and_batches_and_counts_each_op() {
        let (shared, metrics) = unbound_member(1);
        let key = Key::hash_of("k");
        let value = Bytes::from_static(b"v");
        let op = DhtOp::Put { key, value };
        let put = handle(&shared, Message::Request { id: 1, op });
        assert_eq!(put, answer(1, DhtResponse::Stored(true)));
        let value = Bytes::from_static(b"absent");
        let ops = vec![DhtOp::Get(key), DhtOp::Remove { key, value }];
        let batch = handle(&shared, Message::Batch { id: 2, ops });
        let results = vec![
            Ok(DhtResponse::Values(vec![Bytes::from_static(b"v")])),
            Ok(DhtResponse::Removed(false)),
        ];
        assert_eq!(batch, Turn::Reply(Message::BatchReply { id: 2, results }));
        assert_eq!(shared.served.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.counter("net.server.batch_ops"), 2);
    }

    #[test]
    fn handle_applies_a_replicate_frame_locally_and_never_forwards_it() {
        let (shared, metrics) = unbound_member(3);
        let (key, value) = (Key::hash_of("k"), Bytes::from_static(b"v"));
        let ops = vec![DhtOp::Put { key, value }];
        let applied = handle(&shared, Message::Replicate { id: 4, ops });
        let results = vec![Ok(DhtResponse::Stored(true))];
        assert_eq!(applied, Turn::Reply(Message::BatchReply { id: 4, results }));
        assert_eq!(shared.store.total_values(), 1);
        assert_eq!(metrics.counter("net.server.replica.applied"), 1);
        assert_eq!(metrics.counter("net.server.replica.fanout"), 0);
        assert_eq!(shared.served.load(Ordering::Relaxed), 0, "not a client op");
    }

    #[test]
    fn handle_applies_a_multi_op_replicate_in_order_and_answers_each_op() {
        let (shared, metrics) = unbound_member(3);
        let (key, value) = (Key::hash_of("k"), Bytes::from_static(b"v"));
        let put = DhtOp::Put {
            key,
            value: value.clone(),
        };
        let remove = DhtOp::Remove {
            key,
            value: value.clone(),
        };
        let ops = vec![put, remove];
        let applied = handle(&shared, Message::Replicate { id: 5, ops });
        let results = vec![
            Ok(DhtResponse::Stored(true)),
            Ok(DhtResponse::Removed(true)),
        ];
        assert_eq!(applied, Turn::Reply(Message::BatchReply { id: 5, results }));
        // Applied in frame order: the put landed, the remove took it away
        // again and left the pair's tombstone behind.
        assert_eq!(shared.store.total_values(), 0);
        let snapshot = shared.store.bucket_snapshot(repair_bucket(&key), |_| true);
        assert_eq!(snapshot.dead, vec![(key, vec![value])]);
        assert_eq!(metrics.counter("net.server.replica.applied"), 2);
        assert_eq!(metrics.counter("net.server.replica.frames"), 0);
        assert_eq!(shared.served.load(Ordering::Relaxed), 0, "not client ops");
    }

    #[test]
    fn handle_drops_transferred_values_this_member_holds_a_tombstone_for() {
        let (shared, metrics) = unbound_member(3);
        let key = Key::hash_of("k");
        let (dead, live) = (Bytes::from_static(b"dead"), Bytes::from_static(b"live"));
        let value = dead.clone();
        let put = DhtOp::Put { key, value };
        let value = dead.clone();
        let remove = DhtOp::Remove { key, value };
        for op in [put, remove] {
            let applied = handle(
                &shared,
                Message::Replicate {
                    id: 8,
                    ops: vec![op],
                },
            );
            let ok = matches!(
                &applied,
                Turn::Reply(Message::BatchReply { results, .. }) if results.iter().all(Result::is_ok)
            );
            assert!(ok, "{applied:?}");
        }
        let entries = vec![(key, vec![dead, live.clone()])];
        let merged = handle(&shared, Message::Transfer { id: 9, entries });
        assert_eq!(merged, answer(9, DhtResponse::Stored(true)));
        assert_eq!(metrics.counter("net.server.replica.tombstone_drops"), 1);
        assert_eq!(metrics.counter("net.server.replica.transfer_values"), 1);
        let op = DhtOp::Get(key);
        let held = handle(&shared, Message::Request { id: 10, op });
        assert_eq!(held, answer(10, DhtResponse::Values(vec![live])));
    }

    #[test]
    fn handle_answers_a_digest_from_a_ring_peer_and_nobody_else() {
        let (shared, _) = unbound_member(3);
        let buckets = [0; REPAIR_BUCKETS];
        let probe = |shared: &Shared, from: &str| {
            let (id, from) = (7, Key::hash_of(from));
            handle(shared, Message::Digest { id, from, buckets })
        };
        // Nothing is stored, so every bucket digests alike on both sides.
        let differs = 0;
        let reply = Message::DigestReply { id: 7, differs };
        assert_eq!(probe(&shared, "node-1"), Turn::Reply(reply));
        let result = Err(DhtError::NoLiveNodes);
        let refusal = Turn::Reply(Message::Response { id: 7, result });
        assert_eq!(probe(&shared, "a-stranger"), refusal);
        assert_eq!(probe(&shared, "node-0"), refusal, "itself is no peer");
        assert_eq!(probe(&unbound_member(1).0, "node-1"), refusal);
    }

    #[test]
    fn handle_treats_a_reply_kind_as_abuse() {
        let (shared, metrics) = unbound_member(1);
        let result = Err(DhtError::Timeout);
        let results = vec![Ok(DhtResponse::Stored(true))];
        for reply in [
            Message::Response { id: 1, result },
            Message::BatchReply { id: 2, results },
            Message::DigestReply { id: 3, differs: 1 },
        ] {
            assert_eq!(handle(&shared, reply), Turn::Abuse);
        }
        assert_eq!(metrics.counter("net.server.decode_errors"), 3);
        assert!(!shared.stop.load(Ordering::SeqCst));
    }

    #[test]
    fn handle_leaves_on_a_wire_shutdown_with_the_stop_flag_set() {
        let (shared, metrics) = unbound_member(1);
        assert_eq!(handle(&shared, Message::Shutdown), Turn::Leave);
        assert!(shared.stop.load(Ordering::SeqCst));
        assert_eq!(metrics.counter("net.server.shutdowns"), 1);
    }
}
