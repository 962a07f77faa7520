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
//! one store a daemon has: a [`ShardedDht`] of
//! [`REPAIR_BUCKETS`](p2p_index_dht::REPAIR_BUCKETS) key-hash shards, each
//! behind its own `RwLock` held only for the in-memory operation, never
//! across I/O. The only frames this member sends its
//! peers are its own repair traffic — never a client's write, and never on
//! account of a frame it was sent — and they go out through `link.rs`, the
//! same dialing code the client uses.
//! Whatever routing a deployment puts in front (ring, Chord), what a
//! node *serves* is this one multi-value `put/get/remove` store; the
//! client routes and accounts.
//!
//! Every frame kind calls the store directly: a client's ops and a scrub's
//! removes through [`ShardedDht::execute_shared`], a pushed value through
//! [`ShardedDht::put_unless_dead`]. A write whose value could not be pushed
//! in a `Transfer` of its own (`MAX_TRANSFER_VALUE`) is refused with
//! [`DhtError::StorageFull`], a typed error frame, before the store sees it.
//! Injected loss is not the server's business: it wraps the client
//! (`FaultyDht<RemoteDht>`).
//!
//! Shutdown is graceful and reachable two ways: locally via
//! [`DhtServer::shutdown`], or over the wire with a [`Message::Shutdown`]
//! frame (what the multi-process harness sends its children). Either path
//! stops the accept loop, lets in-flight requests finish, and joins every
//! worker.
//!
//! Per-connection read timeouts double as the shutdown poll interval: a
//! worker blocked in `read` wakes at least every `READ_TIMEOUT` to check
//! the flag, so shutdown latency is bounded without extra machinery. Only
//! a timeout between frames is such a tick: a frame that has begun is read
//! to its end, however many timeouts its bytes straddle.
//!
//! # Replication
//!
//! With a [`ReplicationConfig`] the server becomes one member of a
//! replicated cluster: it holds the keys whose replica set — the R
//! clockwise successors shared with `p2p_index_dht::placement`, so client
//! routing and repair can never disagree — contains it. The client
//! coordinates every write: it sends a `Put` / `Remove` to each member of
//! the key's replica set itself and counts the write quorum W
//! ([`RemoteDhtConfig::write_quorum`](crate::RemoteDhtConfig::write_quorum)).
//! So a client frame — a `Request` is a batch of one — is applied
//! locally op by op, in frame order, and answered; writes make their
//! tombstone transition on the way. Nothing a client sends makes this
//! member call a peer. An incoming
//! [`Transfer`](crate::wire::Message::Transfer) — a peer's repair push —
//! applies locally and is **never re-forwarded**, so replication storms
//! are impossible by construction. A wire shutdown stops the member the
//! way a crash does: nothing is handed off, the quorum masks its absence,
//! and repair refills it if it comes back (membership is static, so no
//! other member ever takes its keys over).
//!
//! # Repair
//!
//! A background anti-entropy thread runs a **digest pass** every
//! [`ReplicationConfig::repair_interval`]; its cost follows what differs
//! between two members, not what they hold.
//!
//! 1. *Digest.* The store keeps its digests on write
//!    ([`ShardedDht::kept_digests`]): one 64-bit order-independent sum per
//!    **repair bucket** ([`REPAIR_BUCKETS`](p2p_index_dht::REPAIR_BUCKETS)
//!    slices of the key space by the key's low bits — one per shard, the
//!    same on every member) and per ring arc, moved under the shard guard
//!    each write already holds.
//!    Just before it probes a peer, a member folds the sums of the arcs
//!    whose replica set contains that peer into sixteen digests. No key is
//!    visited; a converged pass costs no sweep at all.
//! 2. *Probe, then confirm.* Each peer gets its sixteen digests in one
//!    [`Digest`](crate::wire::Message::Digest) frame, folds its own sums
//!    for the sender the same way, and answers with a 16-bit mask of the
//!    buckets that differ. If any do, the member reads its digests afresh
//!    and probes again at once, and keeps only the buckets both answers
//!    name: a write still reaching one of the two at the first probe (a
//!    publish burst is full of them) has often landed on both by the
//!    second, while a real difference (a wiped member) persists and is
//!    pushed in the same pass. A push may still overtake a client's own
//!    frame to a replica, which then answers that write "not new"; the
//!    client settles a write as new when any replica says so, and the
//!    pushing member applied the write anew and said so itself, so the
//!    answer does not depend on which frame came first. A peer that is
//!    unreachable, or cannot answer a digest, is skipped for the pass —
//!    there is no other push to fall back to.
//! 3. *Push.* Only confirmed buckets are sent, **one bucket at a time**:
//!    snapshot the bucket, send it — its live values, then its tombstones
//!    (the *scrub*) — and drop the snapshot. A bucket share goes out as
//!    one `Transfer` when it fits `TRANSFER_BUDGET` (a quarter of
//!    [`MAX_PAYLOAD`]) and as several otherwise, every live value ahead
//!    of every tombstone, so the scrub still comes after the values and
//!    no share is refused for its size.
//!    Receivers' puts deduplicate and a remove of a dead pair is a no-op,
//!    so a push is idempotent. What a pass holds in memory is a sixteenth
//!    of one peer's share even when every bucket differs (a member
//!    restarted empty).
//!
//! A pass is `Pass`, a step function that names no socket: each step is a
//! probe, a bucket snapshot or a push, and each reply is handed back to
//! it. `repair_pass` drives it over `peer_call`, one exchange at a time;
//! the tests drive it over `handle`, so a write can land between any two
//! of its steps — between a bucket's snapshot and its push among them.
//!
//! What is digested is the **raw stored pairs and the tombstones, as two
//! tagged classes** — not "stored minus dead". Deletes leave tombstones:
//! a `Remove` marks the `(key, value)` pair dead, pushes withhold
//! tombstoned values, an incoming `Transfer` drops a value this member
//! holds the tombstone of (checked and stored under one shard guard,
//! [`ShardedDht::put_unless_dead`]), and its scrub re-applies the remove
//! so a stale member drops the value and records the tombstone itself. A
//! member restored from an old image with its tombstones intact holds a
//! deleted pair *and* its tombstone; under "stored minus dead" it would
//! digest equal to its healthy peers and never be scrubbed, under two
//! classes it differs and is.
//!
//! One thing this pass does not do: a scrub can still undo a re-put that
//! lands between a bucket's snapshot and its send. That needs per-pair
//! versions; here the window merely narrows to buckets that differ.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::{
    kind_counter, placement, BucketDigests, BucketSnapshot, Dht, DhtError, DhtOp, DhtResponse, Key,
    NodeId, OpFamily, ShardedDht,
};
use p2p_index_obs::MetricsRegistry;

use crate::link::{Pooled, Timeouts};
use crate::wire::{
    encode_message, read_message_with, release_frame_capacity, write_message_with, Message,
    RecvError, MAX_PAYLOAD, MAX_TRANSFER_VALUE,
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
    /// Write quorum W the cluster is declared with. No server reads it:
    /// the client counts W
    /// ([`RemoteDhtConfig::write_quorum`](crate::RemoteDhtConfig::write_quorum)),
    /// and a [`LoopbackCluster`](crate::LoopbackCluster) hands it to the
    /// clients it makes.
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
    /// Metrics sink for the `net.server.*` series (disabled by default).
    pub metrics: MetricsRegistry,
    /// Replicated-cluster membership; `None` (the default) serves a
    /// plain unreplicated partition.
    pub replication: Option<ReplicationConfig>,
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
            metrics: MetricsRegistry::disabled(),
            replication: None,
            max_connections: 1024,
        }
    }
}

/// Server-to-server calls (repair's) give up on a dead peer well before a
/// client's read timeout, so a pass stalls on one only briefly.
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
            repair_interval: config.repair_interval,
            next_request_id: AtomicU64::new(1),
        }
    }

    /// The replica set of `key` as a window of `ring` positions — the
    /// allocation-free form repair asks per arc and per pushed key.
    fn replica_range(&self, key: &Key) -> placement::ReplicaRange {
        placement::replica_range(&self.ring, key, self.replicas)
    }

    /// Sends one frame to the member at ring position `at` and awaits the
    /// reply carrying the same id, returning it with the number of bytes
    /// sent. The peer's link is checked out for the exchange and put back
    /// after a good reply; any transport or protocol failure drops it and
    /// reports `None` — the caller treats it as a missing ack, never as
    /// fatal.
    fn peer_call(&self, at: usize, msg: &Message) -> Option<(Message, u64)> {
        let peer = self.peers.get(at)?.as_ref()?;
        let mut link = peer.check_out(PEER_TIMEOUTS)?;
        // Nothing is read back after a failed send.
        let sent = link.send(|frame| encode_message(msg, frame)).ok()?;
        let (reply, _) = link.recv().ok()?;
        let (Message::Transfer { id, .. } | Message::Digest { id, .. }) = msg else {
            return None;
        };
        match reply {
            Message::Response { id: to, .. } | Message::DigestReply { id: to, .. } if to == *id => {
                peer.put_back(link);
                Some((reply, sent as u64))
            }
            _ => None,
        }
    }

    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Shared state between the accept loop and connection workers.
pub(crate) struct Shared {
    /// The partition store — the only place values and tombstones live.
    pub(crate) store: ShardedDht,
    stop: AtomicBool,
    metrics: MetricsRegistry,
    /// Operations served since spawn (requests answered, ok or error).
    served: AtomicU64,
    /// Connection workers alive right now, and the most there may be.
    /// Only the accept loop adds to it, so its check-then-add cannot
    /// overshoot; each worker subtracts itself on the way out.
    connections: AtomicUsize,
    max_connections: usize,
    /// `Some` when this server is a member of a replicated cluster whose
    /// keys have several replicas (`R > 1`): the condition under which it
    /// keeps tombstones and repairs.
    replication: Option<Replication>,
}

impl Shared {
    /// The state of a member serving `node`'s partition from a fresh, empty
    /// store. Needs no listener: [`handle`] can be driven on it directly.
    pub(crate) fn new(node: NodeId, config: &ServerConfig) -> Shared {
        let replication = config
            .replication
            .clone()
            .filter(|config| config.replicas > 1)
            .map(Replication::from_config);
        // Only a member that repairs is built with its ring: its store
        // keeps digest sums and tombstones on write.
        let mut store = match &replication {
            Some(repl) => ShardedDht::with_ring(node, repl.ring.clone()),
            None => ShardedDht::with_default_shards(node),
        };
        store.set_metrics(config.metrics.clone());
        Shared {
            store,
            stop: AtomicBool::new(false),
            metrics: config.metrics.clone(),
            served: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections,
            replication,
        }
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
            .replication
            .as_ref()
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

    /// Blocks until the server shuts down (via a wire shutdown frame or
    /// another thread calling [`DhtServer::shutdown`]). Used by the
    /// `repro serve` daemon main.
    pub fn wait(mut self) {
        self.join();
    }

    /// Stops accepting, drains in-flight requests, and joins all threads
    /// — what dropping the handle does.
    pub fn shutdown(self) {}

    /// Like [`DhtServer::shutdown`] but by reference, so a cluster can
    /// crash one member in place while the rest keep serving.
    pub fn halt(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.join();
    }

    fn join(&mut self) {
        let threads = [self.accept_thread.take(), self.repair_thread.take()];
        for handle in threads.into_iter().flatten() {
            let _ = handle.join();
        }
    }
}

impl Drop for DhtServer {
    /// Stops the server, then frees its store on a short-lived thread.
    /// The store is one allocation per key, of many sizes, and a thread
    /// that frees them keeps the first few of each size in its allocator's
    /// per-thread cache (glibc's tcache). A thread that lives on reuses
    /// those chunks for what it allocates next, inside the heaps the
    /// connection workers filled, and so keeps those heaps from shrinking;
    /// a thread that exits hands its cache back.
    fn drop(&mut self) {
        self.halt();
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            let empty = ShardedDht::with_default_shards(shared.store.id());
            let store = std::mem::replace(&mut shared.store, empty);
            let _ = std::thread::Builder::new()
                .spawn(move || drop(store))
                .map(JoinHandle::join);
        }
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

/// Socket read timeout of a served connection: the idle tick at which a
/// worker checks the shutdown flag and hands back an oversized read buffer.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

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
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
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
pub(crate) enum Turn {
    /// Answer with this frame and keep serving.
    Reply(Message),
    /// A wire shutdown: the member is stopping.
    Leave,
    /// A frame no client may send; the connection is dropped.
    Abuse,
}

/// The server's step function: what this member does with one decoded
/// frame. Everything a frame can cause — store operations, counters, the
/// stop flag — happens in here; the caller owns the connection the frame
/// came in on and does nothing but carry out the returned [`Turn`]. No
/// frame makes it call a peer.
pub(crate) fn handle(shared: &Shared, msg: Message) -> Turn {
    Turn::Reply(match msg {
        Message::Request { id, op } => {
            let mut results = [Err(DhtError::Timeout)];
            serve_ops(shared, [op], &mut results);
            let [result] = results;
            Message::Response { id, result }
        }
        Message::Batch { id, ops } => {
            // A whole batch executes in one connection turn: every op runs
            // in order, each taking only its own shard's lock, and a single
            // BatchReply answers them all.
            shared.metrics.incr("net.server.batches");
            shared.metrics.add("net.server.batch_ops", ops.len() as u64);
            let mut results = vec![Err(DhtError::Timeout); ops.len()];
            serve_ops(shared, ops, &mut results);
            Message::BatchReply { id, results }
        }
        Message::Transfer { id, snapshot } => {
            // A peer's repair push of one bucket: apply it locally, never
            // re-forward. Live values go first — puts deduplicate, and a
            // value this member holds a tombstone for is dropped under the
            // guard that would store it, so a stale peer's push cannot
            // resurrect a mapping deleted here. Then the scrub: each dead
            // pair as a remove, so it sticks on a stale member with its
            // tombstone.
            let BucketSnapshot { live, dead } = snapshot;
            let (mut values, mut dropped) = (0, 0);
            for (key, value) in pairs(live) {
                match shared.store.put_unless_dead(key, &value) {
                    None => dropped += 1,
                    Some(_) => values += 1,
                }
            }
            let mut applied = 0;
            for (key, value) in pairs(dead) {
                applied += 1;
                let _ = shared.store.execute_shared(DhtOp::Remove { key, value });
            }
            let metrics = &shared.metrics;
            metrics.add("net.server.replica.transfer_values", values);
            metrics.add("net.server.replica.tombstone_drops", dropped);
            metrics.add("net.server.replica.applied", applied);
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

/// Serves one client frame's ops into `results` — a `Request` is a batch
/// of one — and counts each. Every op is applied locally in frame order;
/// on a replicated member (whose store is built with its ring) a write
/// makes its tombstone transition in the same shard guard. The client has
/// sent the write to every other replica itself, so nothing here calls a
/// peer. A write of a value longer than [`MAX_TRANSFER_VALUE`] is refused
/// as [`DhtError::StorageFull`]: stored, or kept as a tombstone, it could
/// never be pushed, and its bucket would never converge.
fn serve_ops(
    shared: &Shared,
    ops: impl IntoIterator<Item = DhtOp>,
    results: &mut [Result<DhtResponse, DhtError>],
) {
    for (op, result) in ops.into_iter().zip(results.iter_mut()) {
        let kind = op.kind();
        *result = match &op {
            DhtOp::Put { value, .. } | DhtOp::Remove { value, .. }
                if value.len() > MAX_TRANSFER_VALUE =>
            {
                Err(DhtError::StorageFull)
            }
            _ => shared.store.execute_shared(op),
        };
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.metrics.incr(kind_counter(OpFamily::Server, kind));
        if result.is_err() {
            shared.metrics.incr("net.server.op_errors");
        }
    }
}

/// Every `(key, value)` pair of an entry list, in list order.
fn pairs(entries: Vec<(Key, Vec<Bytes>)>) -> impl Iterator<Item = (Key, Bytes)> {
    let each = |(key, values): (Key, Vec<Bytes>)| values.into_iter().map(move |v| (key, v));
    entries.into_iter().flat_map(each)
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

/// One anti-entropy pass: drives a [`Pass`] over the peers' links, one
/// exchange at a time.
fn repair_pass(shared: &Shared) {
    let mut pass = Pass::default();
    while let Some(step) = pass.step(shared) {
        if let (Step::Send(at, msg), Some(repl)) = (step, &shared.replication) {
            pass.absorb(shared, repl.peer_call(at, &msg));
        }
    }
}

/// What a [`Pass`] asks of its driver next.
pub(crate) enum Step {
    /// Carry this frame to the peer at this ring position, and hand its
    /// reply to [`Pass::absorb`] before the next step.
    Send(usize, Message),
    /// A confirmed bucket was snapshotted for its push: nothing to send
    /// yet, so a write can still land before the push goes out.
    Snapshot,
}

/// One anti-entropy pass of a member (module docs, "Repair") as a step
/// function, with no socket in sight: [`step`](Self::step) says what to
/// do next and [`absorb`](Self::absorb) takes the reply to each frame it
/// sent. Peers take their turn in ring order. Each is probed with this
/// member's digests for it, read just before the probe; a mismatch is
/// confirmed at once by a second probe with digests read again, and only
/// the buckets both name are counted as mismatches and pushed. A write
/// that was still reaching one of the two members at the first probe has
/// often landed on both by the second, so it is not pushed; a difference
/// that persists is. A push that overtakes a client's write changes no
/// write's answer (module docs, "Repair"). Each confirmed bucket is
/// snapshotted — a step of its own — and sent as the frames [`cut`] makes
/// of it: its live values (what refills a member that restarted empty),
/// then its tombstones (what scrubs a stale member still holding a
/// deleted mapping). A peer that does not answer, or answers a probe with
/// anything but a `DigestReply`, is skipped for the rest of the pass. On
/// a converged cluster a pass reads the kept digest sums and sends one
/// small frame pair per peer; it visits no key.
#[derive(Clone, Default)]
pub(crate) struct Pass {
    /// No peer before this ring position is left to repair.
    next: usize,
    /// Probes the current peer has answered: past the first only if it
    /// named a bucket, and `2` once its buckets are settled.
    probes: u8,
    /// The buckets every probe of the current peer named, not yet
    /// snapshotted.
    differs: u16,
    /// The snapshotted bucket's `Transfer` payloads not yet sent.
    chunks: std::vec::IntoIter<BucketSnapshot>,
    /// `[live values, scrubbed pairs]` of the `Transfer` sent last.
    sending: [u64; 2],
}

impl Pass {
    /// The pass's next step on `shared`, or `None` once every peer has had
    /// its turn (at once, on a member that replicates nothing). Call
    /// [`absorb`](Self::absorb) after each [`Step::Send`], before stepping
    /// again.
    pub(crate) fn step(&mut self, shared: &Shared) -> Option<Step> {
        let repl = shared.replication.as_ref()?;
        while let Some(at) = (self.next..repl.ring.len()).find(|at| repl.peers[*at].is_some()) {
            self.next = at;
            if self.probes < 2 {
                shared.metrics.incr(match self.probes {
                    0 => "net.server.replica.digest_probes",
                    _ => "net.server.replica.digest_confirms",
                });
                let (id, from) = (repl.next_id(), repl.node_key);
                let buckets = peer_digests(shared, repl, at);
                return Some(Step::Send(at, Message::Digest { id, from, buckets }));
            }
            if let Some(snapshot) = self.chunks.next() {
                self.sending = [&snapshot.live, &snapshot.dead]
                    .map(|entries| entries.iter().map(|(_, vs)| vs.len() as u64).sum());
                let id = repl.next_id();
                return Some(Step::Send(at, Message::Transfer { id, snapshot }));
            }
            if self.differs == 0 {
                (self.next, self.probes) = (at + 1, 0);
                continue;
            }
            let bucket = self.differs.trailing_zeros() as usize;
            self.differs &= self.differs - 1;
            let holds = |key: &Key| repl.replica_range(key).contains(at);
            self.chunks = cut(shared.store.bucket_snapshot(bucket, holds)).into_iter();
            return Some(Step::Snapshot);
        }
        None
    }

    /// Takes the reply to the frame the last step sent, with the bytes
    /// that frame put on the wire — `None` when it got no reply, which
    /// ends this peer's turn.
    pub(crate) fn absorb(&mut self, shared: &Shared, reply: Option<(Message, u64)>) {
        let metrics = &shared.metrics;
        match reply {
            Some((_, sent)) if self.probes == 2 => {
                metrics.incr("net.server.replica.repair_pushes");
                metrics.add("net.server.replica.repair_values", self.sending[0]);
                metrics.add("net.server.replica.tombstone_scrubs", self.sending[1]);
                metrics.add("net.server.replica.repair_bytes", sent);
            }
            Some((Message::DigestReply { mut differs, .. }, _)) => {
                if self.probes == 1 {
                    differs &= self.differs;
                }
                self.differs = differs;
                self.probes = if differs == 0 { 2 } else { self.probes + 1 };
                if self.probes == 2 {
                    let mismatches = u64::from(self.differs.count_ones());
                    metrics.add("net.server.replica.digest_mismatches", mismatches);
                }
            }
            _ => (self.probes, self.differs, self.chunks) = (2, 0, Default::default()),
        }
    }
}

/// The most payload bytes one repair `Transfer` carries, a quarter of
/// [`MAX_PAYLOAD`]: a bucket share past it goes out as several frames.
const TRANSFER_BUDGET: usize = MAX_PAYLOAD as usize / 4;

/// Cuts one bucket's snapshot into `Transfer` payloads in send order, each
/// within [`TRANSFER_BUDGET`] with every value counted as if it opened an
/// entry of its own (a value longer than the budget goes alone, in a frame
/// its receiver refuses if it passes [`MAX_PAYLOAD`]). Every
/// live value comes ahead of every tombstone, so a receiver applies the
/// bucket's values before any scrub across frames as it does within one.
/// A snapshot within the budget is one payload, entry for entry as taken.
fn cut(snapshot: BucketSnapshot) -> Vec<BucketSnapshot> {
    let tagged = pairs(snapshot.live).map(|pair| (false, pair));
    let mut chunks: Vec<BucketSnapshot> = Vec::new();
    let mut size = TRANSFER_BUDGET;
    for (scrub, (key, value)) in tagged.chain(pairs(snapshot.dead).map(|pair| (true, pair))) {
        let cost = key.as_bytes().len() + 8 + value.len();
        if size + cost > TRANSFER_BUDGET {
            chunks.push(BucketSnapshot::default());
            size = 0;
        }
        size += cost;
        let BucketSnapshot { live, dead } = chunks.last_mut().expect("a chunk was opened above");
        let list = if scrub { dead } else { live };
        match list.last_mut() {
            Some((last, values)) if *last == key => values.push(value),
            _ => list.push((key, vec![value])),
        }
    }
    chunks
}

/// This member's bucket digests for the member at ring position `at`: the
/// kept sums of every arc whose replica set contains it.
fn peer_digests(shared: &Shared, repl: &Replication, at: usize) -> BucketDigests {
    shared
        .store
        .kept_digests(|arc| repl.replica_range(&repl.ring[arc]).contains(at))
}

/// The `Digest` handler: this member's digests over the keys whose
/// replica set contains `from`, compared with `theirs` — bit `b` of the
/// result is set when bucket `b` differs. `None` when this server
/// replicates nothing with `from` (unreplicated, `R = 1`, or `from` is not
/// another member of its ring).
fn differing_buckets(shared: &Shared, from: &Key, theirs: &BucketDigests) -> Option<u16> {
    let repl = shared.replication.as_ref()?;
    let from_at = repl.ring.binary_search(from).ok()?;
    repl.peers[from_at].as_ref()?;
    let ours = peer_digests(shared, repl, from_at);
    let differs = ours.iter().zip(theirs).enumerate();
    Some(differs.fold(0, |mask, (bucket, (ours, theirs))| {
        mask | u16::from(ours != theirs) << bucket
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_message_with, write_message_with};
    use bytes::Bytes;
    use p2p_index_dht::{repair_bucket, DhtOp, DhtResponse, Key, REPAIR_BUCKETS};

    /// What the explorer tells passes apart by: all but `sending`, which
    /// only feeds counters.
    impl std::hash::Hash for Pass {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            (self.next, self.probes, self.differs).hash(state);
            for chunk in self.chunks.as_slice() {
                (&chunk.live, &chunk.dead).hash(state);
            }
        }
    }

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
        std::thread::sleep(READ_TIMEOUT * 4);
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

    // `handle` driven directly, every message kind: nothing below binds a
    // listener or opens a stream.

    /// The state of member `node-0`, bound to nothing, and its counters.
    /// With `replicas > 1` it is one of three ring members whose peers'
    /// address nothing here ever dials.
    fn unbound_member(replicas: usize) -> (Shared, MetricsRegistry) {
        let nowhere: SocketAddr = "127.0.0.1:1".parse().unwrap();
        unbound("node-0", replicas, nowhere)
    }

    /// The state of member `name` of the ring `node-0..2`, bound to
    /// nothing, whose peers all have the address `peers`.
    fn unbound(name: &str, replicas: usize, peers: SocketAddr) -> (Shared, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let ring = (0..3).map(|i| (Key::hash_of(&format!("node-{i}")), peers));
        let config = ServerConfig {
            metrics: metrics.clone(),
            replication: (replicas > 1)
                .then(|| ReplicationConfig::new(Key::hash_of(name), ring.collect(), replicas, 1)),
            ..ServerConfig::default()
        };
        (Shared::new(NodeId::hash_of(name), &config), metrics)
    }

    fn answer(id: u64, response: DhtResponse) -> Turn {
        let result = Ok(response);
        Turn::Reply(Message::Response { id, result })
    }

    /// A `Transfer` of one bucket holding `live` and `dead` pairs.
    fn transfer(id: u64, live: Vec<(Key, Vec<Bytes>)>, dead: Vec<(Key, Vec<Bytes>)>) -> Message {
        let snapshot = BucketSnapshot { live, dead };
        Message::Transfer { id, snapshot }
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
    fn handle_applies_a_transfer_locally_and_never_forwards_it() {
        let (shared, metrics) = unbound_member(3);
        let (key, value) = (Key::hash_of("k"), Bytes::from_static(b"v"));
        let applied = handle(&shared, transfer(4, vec![(key, vec![value])], Vec::new()));
        assert_eq!(applied, answer(4, DhtResponse::Stored(true)));
        assert_eq!(shared.store.total_values(), 1);
        assert_eq!(metrics.counter("net.server.replica.transfer_values"), 1);
        assert_eq!(metrics.counter("net.server.replica.applied"), 0);
        assert_eq!(shared.served.load(Ordering::Relaxed), 0, "not a client op");
    }

    #[test]
    fn handle_applies_a_client_write_on_a_replica_and_calls_no_peer() {
        // Every peer's address is a listener that counts nobody in: the
        // client sends each replica the write itself, and no other frame
        // — a peer's push or probe, a wire shutdown — may dial one either.
        let peers = TcpListener::bind("127.0.0.1:0").unwrap();
        peers.set_nonblocking(true).unwrap();
        let (shared, metrics) = unbound("node-0", 3, peers.local_addr().unwrap());
        let (key, value) = (Key::hash_of("k"), Bytes::from_static(b"v"));
        let op = DhtOp::Put {
            key,
            value: value.clone(),
        };
        let put = handle(&shared, Message::Request { id: 1, op });
        assert_eq!(put, answer(1, DhtResponse::Stored(true)));
        let ops = vec![DhtOp::Remove {
            key,
            value: value.clone(),
        }];
        let batch = handle(&shared, Message::Batch { id: 2, ops });
        let results = vec![Ok(DhtResponse::Removed(true))];
        assert_eq!(batch, Turn::Reply(Message::BatchReply { id: 2, results }));
        // The remove made its tombstone transition on the way.
        let snapshot = shared.store.bucket_snapshot(repair_bucket(&key), |_| true);
        assert_eq!(snapshot.dead, vec![(key, vec![value])]);
        let other = Key::hash_of("pushed");
        let live = vec![(other, vec![Bytes::from_static(b"w")])];
        let pushed = handle(&shared, transfer(3, live, Vec::new()));
        assert_eq!(pushed, answer(3, DhtResponse::Stored(true)));
        let (from, buckets) = (Key::hash_of("node-1"), [0; REPAIR_BUCKETS]);
        let probe = Message::Digest {
            id: 4,
            from,
            buckets,
        };
        let differs = handle(&shared, probe);
        assert!(matches!(differs, Turn::Reply(Message::DigestReply { .. })));
        // Last, a shutdown of a member holding a value and a tombstone:
        // it leaves as a crash does, handing nothing to anyone.
        assert_eq!(shared.store.total_values(), 1);
        assert_eq!(handle(&shared, Message::Shutdown), Turn::Leave);
        let dialed = peers.accept().map(|_| ());
        assert_eq!(dialed.map_err(|e| e.kind()), Err(io::ErrorKind::WouldBlock));
        assert_eq!(metrics.counter("net.server.replica.repair_pushes"), 0);
    }

    /// Ring position of member `name` in `member`'s ring.
    fn position(member: &Shared, name: &str) -> usize {
        let repl = member.replication.as_ref().expect("a replicating member");
        repl.ring.binary_search(&Key::hash_of(name)).unwrap()
    }

    /// Runs `from`'s whole pass with `to`, at ring position `at`, the one
    /// peer that answers: each frame for it goes through `to`'s `handle`.
    fn pass_to(from: &Shared, to: &Shared, at: usize) {
        let mut pass = Pass::default();
        while let Some(step) = pass.step(from) {
            if let Step::Send(peer, msg) = step {
                let reply = match (peer == at).then(|| handle(to, msg)) {
                    Some(Turn::Reply(reply)) => Some((reply, 0)),
                    _ => None,
                };
                pass.absorb(from, reply);
            }
        }
    }

    #[test]
    fn a_write_that_lands_between_the_probe_and_its_confirm_is_not_pushed() {
        // Two of three members holding every key (R = 3). A client's put
        // has reached S; its frame to R is still in flight when S probes.
        let nowhere: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let (s, metrics) = unbound("node-0", 3, nowhere);
        let (r, _) = unbound("node-1", 3, nowhere);
        let key = Key::hash_of("in-flight");
        let value = Bytes::from_static(b"Q:/article/title/in-flight");
        let op = DhtOp::Put { key, value };
        let put = Message::Request { id: 1, op };
        assert_eq!(
            handle(&s, put.clone()),
            answer(1, DhtResponse::Stored(true))
        );
        let at = position(&s, "node-1");
        let mut pass = Pass::default();
        let mut masks = Vec::new();
        for _ in 0..2 {
            let Some(Step::Send(peer, probe @ Message::Digest { .. })) = pass.step(&s) else {
                panic!("S probes R first");
            };
            assert_eq!(peer, at);
            let Turn::Reply(reply @ Message::DigestReply { differs, .. }) = handle(&r, probe)
            else {
                panic!("R answers a probe with a digest reply");
            };
            masks.push(differs);
            if masks.len() == 1 {
                // The write reaches R just after R answers the first probe.
                handle(&r, put.clone());
            }
            pass.absorb(&s, Some((reply, 0)));
        }
        // The first probe saw the write's bucket differ; the confirm, sent
        // after the write landed on R, saw nothing; so nothing is pushed:
        // the pass moves on to probing the third member.
        assert_eq!(masks, vec![1 << repair_bucket(&key), 0]);
        assert_eq!(metrics.counter("net.server.replica.digest_probes"), 1);
        assert_eq!(metrics.counter("net.server.replica.digest_confirms"), 1);
        assert_eq!(metrics.counter("net.server.replica.digest_mismatches"), 0);
        let next = pass.step(&s);
        assert!(
            matches!(next, Some(Step::Send(peer, Message::Digest { .. })) if peer != at),
            "no bucket is snapshotted for R"
        );
    }

    #[test]
    #[ignore = "scrub-vs-re-put: ROADMAP item 2"]
    fn a_re_put_that_lands_between_a_scrub_snapshot_and_its_send_survives_repair() {
        // Two of three members holding every key (R = 3). Fails today:
        // the acknowledged re-put ends up gone from both. The push that S
        // snapshotted before the re-put scrubs the pair at R and leaves a
        // tombstone there; R's tombstone drops S's next push of it, and
        // R's own pass scrubs it from S. Per-pair versions (item 2(a)) let
        // the re-put win on both.
        let nowhere: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let (s, _) = unbound("node-0", 3, nowhere);
        let (r, _) = unbound("node-1", 3, nowhere);
        let key = Key::hash_of("re-put");
        let value = Bytes::from_static(b"Q:/article/title/re-put");
        let other = Bytes::from_static(b"Q:/article/title/in-flight");
        let put = |value: &Bytes| DhtOp::Put {
            key,
            value: value.clone(),
        };
        let remove = DhtOp::Remove {
            key,
            value: value.clone(),
        };
        let write = |member: &Shared, op: DhtOp| handle(member, Message::Request { id: 1, op });
        // A client writes the pair to both replicas and removes it again:
        // both hold its tombstone.
        for op in [put(&value), remove] {
            write(&s, op.clone());
            write(&r, op);
        }
        // A put of another value of the key has reached S; its frame to R
        // is still in flight, so S's probe and confirm both find the
        // bucket differing, and S snapshots it for R: one frame, the other
        // value live and the pair's tombstone as a scrub.
        write(&s, put(&other));
        let at = position(&s, "node-1");
        let mut pass = Pass::default();
        while let Some(Step::Send(_, probe)) = pass.step(&s) {
            let Turn::Reply(reply) = handle(&r, probe) else {
                panic!("R answers a probe");
            };
            pass.absorb(&s, Some((reply, 0)));
        }
        // The client re-puts the pair on both replicas: acknowledged.
        for member in [&s, &r] {
            let stored = write(member, put(&value));
            assert_eq!(stored, answer(1, DhtResponse::Stored(true)));
        }
        // Only then does S's snapshotted push reach R, and after it the
        // other value's frame; S's pass goes on to its third member, which
        // answers nothing.
        let Some(Step::Send(peer, transfer @ Message::Transfer { .. })) = pass.step(&s) else {
            panic!("S pushes what it snapshotted");
        };
        assert_eq!(peer, at);
        let Turn::Reply(ack) = handle(&r, transfer) else {
            panic!("R acknowledges the push");
        };
        pass.absorb(&s, Some((ack, 0)));
        write(&r, put(&other));
        while let Some(step) = pass.step(&s) {
            if let Step::Send(..) = step {
                pass.absorb(&s, None);
            }
        }
        // One more repair round: each member's pass with the other.
        pass_to(&s, &r, at);
        pass_to(&r, &s, position(&r, "node-0"));
        for (name, member) in [("S", &s), ("R", &r)] {
            let Turn::Reply(Message::Response { result, .. }) = write(member, DhtOp::Get(key))
            else {
                panic!("{name} answers a get");
            };
            let mut held = result.map(DhtResponse::into_values).unwrap_or_default();
            held.sort();
            let mut acknowledged = vec![value.clone(), other.clone()];
            acknowledged.sort();
            assert_eq!(held, acknowledged, "the re-put is gone from {name}");
        }
    }

    #[test]
    fn handle_applies_a_transfers_live_values_before_its_dead_pairs() {
        let (shared, metrics) = unbound_member(3);
        let (key, value) = (Key::hash_of("k"), Bytes::from_static(b"v"));
        let entry = vec![(key, vec![value.clone()])];
        let applied = handle(&shared, transfer(5, entry.clone(), entry));
        assert_eq!(applied, answer(5, DhtResponse::Stored(true)));
        // Applied in frame order: the put landed, the remove took it away
        // again and left the pair's tombstone behind.
        assert_eq!(shared.store.total_values(), 0);
        let snapshot = shared.store.bucket_snapshot(repair_bucket(&key), |_| true);
        assert_eq!(snapshot.dead, vec![(key, vec![value])]);
        assert_eq!(metrics.counter("net.server.replica.transfer_values"), 1);
        assert_eq!(metrics.counter("net.server.replica.applied"), 1);
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
        // A client put and remove: the replicated remove leaves a tombstone.
        let ops = vec![put, remove];
        let written = handle(&shared, Message::Batch { id: 8, ops });
        let ok = matches!(
            &written,
            Turn::Reply(Message::BatchReply { results, .. }) if results.iter().all(Result::is_ok)
        );
        assert!(ok, "{written:?}");
        let pushed = vec![(key, vec![dead, live.clone()])];
        let merged = handle(&shared, transfer(9, pushed, Vec::new()));
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
