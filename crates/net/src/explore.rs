//! A bounded-exhaustive explorer of the replication protocol, over the
//! members' and the client's own step functions.
//!
//! A *world* is a few members (`Shared::new` states, bound to nothing), one
//! client (a [`RemoteDht`] that never dials, driving a [`Round`] per write)
//! and one repair [`Pass`] per member. Every frame is encoded by its sender,
//! decoded and handed to its target's `handle`, and the reply is encoded,
//! decoded and handed back to the `Round` or `Pass` that waits for it, so
//! the codec stays in the loop. The client issues its writes one after
//! another, each once the last has settled. In any world, the events that
//! can happen next are:
//!
//! - deliver a frame in flight, and its reply;
//! - lose it, or deliver it and lose its reply (at most the scope's
//!   `losses` per schedule; a probe only reads, so losing its reply is
//!   losing it);
//! - run the next step of a member's pass (a probe, a bucket snapshot, a
//!   push), until the pass is done (a pass whose next step would only say
//!   so is done at once).
//!
//! The search tries every enabled event in every world it reaches, depth
//! first. Orders that lead to the same world — the same stores, passes,
//! client progress and frames in flight — go on from it once: a world is
//! known by a fingerprint of all of that. Each world in which nothing is
//! left to do gets one more lossless pass per member and is then checked:
//!
//! - every pair of replicas agrees on every bucket digest;
//! - no pair whose last write was an acknowledged remove is held anywhere;
//! - with `W + Rq > R`, a quorum read returns every pair whose last write
//!   was an acknowledged put, and none whose last write was an acknowledged
//!   remove (a pair whose last write failed may go either way).
//!
//! A failing schedule is reported as the list of its events, which
//! [`replay`] runs again from the start.
//!
//! Where the search is exhaustive at one loss, [`walk`] takes one schedule
//! at a time, at random, with a budget of several losses: from the start
//! it fires a seeded choice among the enabled events until none is left,
//! and checks where it ends the same way. A frame's turn loses it (or its
//! reply) at the walk's loss rate while the budget lasts, so a low rate
//! spends the budget late in a schedule — on repair frames — and a high
//! one early, on the client's.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::iter;
use std::net::SocketAddr;
use std::rc::Rc;

use bytes::Bytes;
use p2p_index_dht::{BucketSnapshot, DhtError, DhtOp, DhtResponse, Key, NodeId, REPAIR_BUCKETS};
use p2p_index_testkit::{Rng, StdRng};

use crate::client::{RemoteDht, RemoteDhtConfig, Round};
use crate::server::{handle, Pass, ReplicationConfig, ServerConfig, Shared, Step, Turn};
use crate::wire::{decode_message, encode_to_vec, read_reply_with, Message};

/// One client write: a put (`true`) or remove of value `.2` of key `.1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Write(bool, u8, u8);

/// Put value `value` of key `key`.
pub(crate) const fn put(key: u8, value: u8) -> Write {
    Write(true, key, value)
}

/// Remove value `value` of key `key`.
pub(crate) const fn remove(key: u8, value: u8) -> Write {
    Write(false, key, value)
}

/// What one exploration covers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scope {
    /// Cluster members, named `node-0..`.
    pub(crate) members: usize,
    /// Replication factor R.
    pub(crate) replicas: usize,
    /// Write quorum W.
    pub(crate) write_quorum: usize,
    /// Read quorum Rq of the final check.
    pub(crate) read_quorum: usize,
    /// The client's writes, in issue order.
    pub(crate) writes: &'static [Write],
    /// Frames one schedule may lose, requests and replies alike.
    pub(crate) losses: usize,
}

/// Who sent a frame, and so who takes its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Sender {
    /// The client's round.
    Client,
    /// This member's repair pass.
    Member(usize),
}

/// One step of a schedule. A frame is named by its sender and by how many
/// frames that sender sent before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The frame reaches its target and the reply its sender.
    Deliver(Sender, usize),
    /// The frame is lost.
    Lose(Sender, usize),
    /// The frame reaches its target; the reply is lost.
    LoseReply(Sender, usize),
    /// The member's pass takes its next step.
    Step(usize),
}

/// What an event read and wrote: one bit per member store (0..8), per
/// member pass (8..16) and the loss budget (16), and the frame it took
/// off the wire.
#[derive(Debug, Clone, Copy)]
struct Access {
    reads: u32,
    writes: u32,
    frame: Option<(Sender, usize)>,
}

const LOSS: u32 = 1 << 16;

fn store_bit(member: usize) -> u32 {
    1 << member
}

fn pass_bit(member: usize) -> u32 {
    1 << (8 + member)
}

impl Access {
    /// Two events, adjacent, can be swapped without changing anything:
    /// neither writes what the other reads or writes. (The client's round
    /// is no resource: the replies it has had are a set, so two of them
    /// arrive in either order alike.)
    fn independent(&self, other: &Access) -> bool {
        let touched = (self.writes & (other.reads | other.writes)) | (other.writes & self.reads);
        touched == 0 && (self.frame.is_none() || self.frame != other.frame)
    }
}

/// FNV-1a, what the search keys its worlds by: far cheaper than the
/// standard library's SipHash in a debug build, and no input here is
/// chosen by anyone.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What every world of one scope shares.
struct Cluster<'s> {
    scope: &'s Scope,
    /// Each member's node id and server config, in ring order.
    members: Vec<(NodeId, ServerConfig)>,
    client: RemoteDht,
    /// Key `k` of the scope.
    keys: Vec<Key>,
}

impl Cluster<'_> {
    fn new(scope: &Scope) -> Cluster<'_> {
        let nowhere: SocketAddr = "127.0.0.1:1".parse().expect("an address");
        let mut ids: Vec<NodeId> = (0..scope.members)
            .map(|i| NodeId::hash_of(&format!("node-{i}")))
            .collect();
        ids.sort_by_key(|id| *id.key());
        let ring: Vec<(Key, SocketAddr)> = ids.iter().map(|id| (*id.key(), nowhere)).collect();
        let members = ids.iter().map(|id| {
            let (r, w) = (scope.replicas, scope.write_quorum);
            let replication = ReplicationConfig::new(*id.key(), ring.clone(), r, w);
            let config = ServerConfig {
                replication: Some(replication),
                ..ServerConfig::default()
            };
            (*id, config)
        });
        let config = RemoteDhtConfig {
            replicas: scope.replicas,
            read_quorum: scope.read_quorum,
            write_quorum: Some(scope.write_quorum),
        };
        let addrs = ids.iter().map(|id| (*id, nowhere));
        let key_count = scope.writes.iter().map(|w| w.1 + 1).max().unwrap_or(0);
        Cluster {
            scope,
            members: members.collect(),
            client: RemoteDht::connect(addrs.collect(), config),
            keys: (0..key_count)
                .map(|k| Key::hash_of(&format!("explore-key-{k}")))
                .collect(),
        }
    }

    /// Member `m`, fresh.
    fn member(&self, m: usize) -> Shared {
        let (id, config) = &self.members[m];
        Shared::new(*id, config)
    }

    fn op(&self, write: Write) -> DhtOp {
        let Write(is_put, k, v) = write;
        let (key, value) = (self.keys[usize::from(k)], value(v));
        if is_put {
            DhtOp::Put { key, value }
        } else {
            DhtOp::Remove { key, value }
        }
    }
}

fn value(v: u8) -> Bytes {
    Bytes::from(format!("Q:/article/title/v{v}"))
}

#[derive(Clone)]
struct Frame {
    from: Sender,
    seq: usize,
    to: usize,
    /// Only reads its target's store.
    probe: bool,
    bytes: Vec<u8>,
}

/// `to`'s answer to the frame `bytes`, through the codec both ways.
fn exchange(to: &Shared, bytes: &[u8]) -> Vec<u8> {
    let (msg, _) = decode_message(bytes).expect("every frame sent decodes");
    match handle(to, msg) {
        Turn::Reply(reply) => encode_to_vec(&reply),
        other => panic!("a member left or refused: {other:?}"),
    }
}

/// Hands a client's round the reply frame `bytes` from `member`.
fn absorb(round: &mut Round, client: &RemoteDht, member: usize, bytes: &[u8]) {
    let (mut scratch, mut replies) = (Vec::new(), Vec::new());
    let got = read_reply_with(&mut &bytes[..], &mut scratch, &mut replies);
    let got = got.expect("every reply decodes");
    let fits = round.absorb(client, member, got.batch, &mut replies);
    assert!(fits, "a reply carries one result per op");
}

/// One state of a scope's cluster. Worlds share a member until a frame
/// writes to its store, which copies it first.
#[derive(Clone)]
struct World<'c> {
    cluster: &'c Cluster<'c>,
    members: Vec<Rc<Shared>>,
    /// Each member's store digests, once read since it last changed.
    prints: Vec<Cell<Option<u64>>>,
    /// The write the client works on; its writes go in order.
    writing: Option<usize>,
    /// Each write's outcome, once settled.
    outcomes: Vec<Option<Result<DhtResponse, DhtError>>>,
    /// The replies the write's round has had so far (`None`: lost), by
    /// member: with the write, what the round's state follows from.
    heard: Vec<(usize, Option<Vec<u8>>)>,
    passes: Vec<Pass>,
    /// A member's pass waits for the reply to its frame.
    waiting: Vec<bool>,
    /// A member's pass is done.
    done: Vec<bool>,
    wire: Vec<Frame>,
    /// Frames each member has sent, and the client.
    sent: Vec<usize>,
    client_sent: usize,
    /// Frames this schedule may still lose.
    losses: usize,
}

impl<'c> World<'c> {
    fn new(cluster: &'c Cluster<'c>) -> World<'c> {
        let n = cluster.members.len();
        let mut world = World {
            cluster,
            members: (0..n).map(|m| Rc::new(cluster.member(m))).collect(),
            prints: vec![Cell::new(None); n],
            writing: (!cluster.scope.writes.is_empty()).then_some(0),
            outcomes: vec![None; cluster.scope.writes.len()],
            heard: Vec::new(),
            passes: (0..n).map(|_| Pass::default()).collect(),
            waiting: vec![false; n],
            done: vec![false; n],
            wire: Vec::new(),
            sent: vec![0; n],
            client_sent: 0,
            losses: cluster.scope.losses,
        };
        world.advance_client();
        world
    }

    /// Write `at`'s round as far as it has got: routed, planned, and fed
    /// every reply it has had.
    fn round(&self, at: usize) -> Round {
        let client = &self.cluster.client;
        let mut round = Round::default();
        round.start(
            client,
            iter::once(self.cluster.op(self.cluster.scope.writes[at])),
        );
        round.plan(client);
        for (member, reply) in &self.heard {
            if let Some(bytes) = reply {
                absorb(&mut round, client, *member, bytes);
            }
        }
        round
    }

    /// With none of its frames in flight, the client sends its write's
    /// frames, or settles the write, whose one round is over, and moves
    /// on to the next.
    fn advance_client(&mut self) {
        while let Some(at) = self.writing {
            if self.wire.iter().any(|frame| frame.from == Sender::Client) {
                return;
            }
            let mut round = self.round(at);
            if self.heard.is_empty() {
                for (member, _) in round.groups() {
                    let mut bytes = Vec::new();
                    round.encode(member, self.client_sent as u64, &mut bytes);
                    let (from, seq, to) = (Sender::Client, self.client_sent, member);
                    let probe = false;
                    let frame = Frame {
                        from,
                        seq,
                        to,
                        probe,
                        bytes,
                    };
                    self.wire.push(frame);
                    self.client_sent += 1;
                }
                return;
            }
            let more = round.plan(&self.cluster.client);
            assert!(!more, "a write settles after its one round");
            self.outcomes[at] = round.done().pop();
            self.heard.clear();
            self.writing = Some(at + 1).filter(|next| *next < self.cluster.scope.writes.len());
        }
    }

    /// Member `m`, for a frame that writes to its store: this world's own
    /// copy.
    fn own(&mut self, m: usize) -> &Shared {
        self.prints[m].set(None);
        if Rc::strong_count(&self.members[m]) > 1 {
            let copy = self.cluster.member(m);
            for bucket in 0..REPAIR_BUCKETS {
                let BucketSnapshot { live, dead } =
                    self.members[m].store.bucket_snapshot(bucket, |_| true);
                let removes = dead.into_iter().flat_map(|(key, values)| {
                    values
                        .into_iter()
                        .map(move |value| DhtOp::Remove { key, value })
                });
                let puts = live.into_iter().flat_map(|(key, values)| {
                    values
                        .into_iter()
                        .map(move |value| DhtOp::Put { key, value })
                });
                for op in removes.chain(puts) {
                    copy.store.execute_shared(op).expect("a local write");
                }
            }
            self.members[m] = Rc::new(copy);
        }
        &self.members[m]
    }

    /// Every event enabled now, in a fixed order.
    fn enabled(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for frame in &self.wire {
            let (from, seq) = (frame.from, frame.seq);
            events.push(Event::Deliver(from, seq));
            if self.losses > 0 {
                events.push(Event::Lose(from, seq));
                if !frame.probe {
                    events.push(Event::LoseReply(from, seq));
                }
            }
        }
        let idle = (0..self.members.len()).filter(|m| !self.waiting[*m] && !self.done[*m]);
        events.extend(idle.map(Event::Step));
        events
    }

    /// Runs `event`, and says what it read and wrote.
    fn fire(&mut self, event: Event) -> Access {
        let (from, seq, deliver, reply) = match event {
            Event::Step(m) => return self.step(m),
            Event::Deliver(from, seq) => (from, seq, true, true),
            Event::Lose(from, seq) => (from, seq, false, false),
            Event::LoseReply(from, seq) => (from, seq, true, false),
        };
        let at = self
            .wire
            .iter()
            .position(|f| f.from == from && f.seq == seq);
        let frame = self
            .wire
            .remove(at.expect("an enabled frame is on the wire"));
        let lost = !(deliver && reply);
        self.losses -= usize::from(lost);
        let mut access = Access {
            reads: 0,
            writes: if lost { LOSS } else { 0 },
            frame: Some((from, seq)),
        };
        let answer = match (deliver, frame.probe) {
            (false, _) => None,
            (true, true) => {
                access.reads |= store_bit(frame.to);
                Some(exchange(&self.members[frame.to], &frame.bytes))
            }
            (true, false) => {
                access.writes |= store_bit(frame.to);
                Some(exchange(self.own(frame.to), &frame.bytes))
            }
        };
        let answer = answer.filter(|_| reply);
        match frame.from {
            Sender::Client => {
                let at = self.heard.partition_point(|(m, _)| *m < frame.to);
                self.heard.insert(at, (frame.to, answer));
                self.advance_client();
            }
            Sender::Member(m) => {
                let reply = answer.map(|bytes| {
                    let (reply, _) = decode_message(&bytes).expect("every reply decodes");
                    (reply, frame.bytes.len() as u64)
                });
                self.passes[m].absorb(&self.members[m], reply);
                self.waiting[m] = false;
                self.settle_pass(m);
                access.writes |= pass_bit(m);
            }
        }
        access
    }

    fn step(&mut self, m: usize) -> Access {
        let mut access = Access {
            reads: 0,
            writes: pass_bit(m),
            frame: None,
        };
        match self.passes[m].step(&self.members[m]) {
            None => self.done[m] = true,
            Some(Step::Snapshot) => {
                access.reads = store_bit(m);
                self.settle_pass(m);
            }
            Some(Step::Send(to, msg)) => {
                let probe = matches!(msg, Message::Digest { .. });
                if probe {
                    access.reads = store_bit(m);
                }
                let (from, seq, bytes) = (Sender::Member(m), self.sent[m], encode_to_vec(&msg));
                let frame = Frame {
                    from,
                    seq,
                    to,
                    probe,
                    bytes,
                };
                self.wire.push(frame);
                self.sent[m] += 1;
                self.waiting[m] = true;
            }
        }
        access
    }

    /// Marks member `m`'s pass done once its next step would only say so
    /// (a step that changes nothing is no event worth ordering).
    fn settle_pass(&mut self, m: usize) {
        if self.passes[m].clone().step(&self.members[m]).is_none() {
            (self.passes[m], self.done[m]) = (Pass::default(), true);
        }
    }

    /// A digest of everything that decides what can happen from here: the
    /// stores, the passes, the client's progress and the frames in flight
    /// (without their request ids, which only name an exchange).
    fn fingerprint(&self) -> u64 {
        let mut hasher = Fnv::default();
        for (member, print) in self.members.iter().zip(&self.prints) {
            let read = || {
                let mut hasher = Fnv::default();
                member.store.kept_digests(|_| true).hash(&mut hasher);
                hasher.finish()
            };
            print.set(Some(print.get().unwrap_or_else(read)));
            print.get().hash(&mut hasher);
        }
        self.passes.hash(&mut hasher);
        // What the checks read of an outcome: whether it was acknowledged.
        let acknowledged = self.outcomes.iter().map(|o| o.as_ref().map(Result::is_ok));
        acknowledged.for_each(|o| o.hash(&mut hasher));
        (
            self.writing,
            &self.heard,
            self.losses,
            &self.waiting,
            &self.done,
        )
            .hash(&mut hasher);
        let mut wire: Vec<_> = self
            .wire
            .iter()
            .map(|f| (f.from, f.seq, f.to, &f.bytes[..6], &f.bytes[14..]))
            .collect();
        wire.sort();
        wire.hash(&mut hasher);
        hasher.finish()
    }

    /// One lossless pass of member `m`, each frame answered at once.
    /// `probe` sees each digest reply first, and `false` ends the pass.
    fn pass(&self, m: usize, mut probe: impl FnMut(usize, u16) -> bool) {
        let mut pass = Pass::default();
        while let Some(step) = pass.step(&self.members[m]) {
            let Step::Send(to, msg) = step else {
                continue;
            };
            let bytes = encode_to_vec(&msg);
            let answer = exchange(&self.members[to], &bytes);
            let (reply, _) = decode_message(&answer).expect("every reply decodes");
            if let Message::DigestReply { differs, .. } = reply {
                if !probe(to, differs) {
                    return;
                }
            }
            pass.absorb(&self.members[m], Some((reply, bytes.len() as u64)));
        }
    }

    /// What member `m` holds of `key`.
    fn held(&self, m: usize, key: Key) -> Vec<Bytes> {
        let op = DhtOp::Get(key);
        match handle(&self.members[m], Message::Request { id: 0, op }) {
            Turn::Reply(Message::Response {
                result: Ok(held), ..
            }) => held.into_values(),
            other => panic!("a get is answered: {other:?}"),
        }
    }

    /// A quorum read of `key`, every frame delivered.
    fn quorum_read(&self, key: Key) -> Result<DhtResponse, DhtError> {
        let client = &self.cluster.client;
        let mut round = Round::default();
        round.start(client, iter::once(DhtOp::Get(key)));
        while round.plan(client) {
            let groups: Vec<(usize, usize)> = round.groups().collect();
            for (member, _) in groups {
                let mut bytes = Vec::new();
                round.encode(member, 0, &mut bytes);
                let answer = exchange(&self.members[member], &bytes);
                absorb(&mut round, client, member, &answer);
            }
        }
        round.done().pop().expect("one result per op")
    }

    /// The three properties, after one more lossless pass per member.
    fn check(&mut self) -> Result<(), String> {
        let scope = self.cluster.scope;
        for m in 0..self.members.len() {
            self.own(m);
        }
        for m in 0..self.members.len() {
            self.pass(m, |_, _| true);
        }
        let mut differ = None;
        for m in 0..self.members.len() {
            self.pass(m, |to, differs| {
                if differs != 0 {
                    differ = Some((m, to, differs));
                }
                differs == 0
            });
        }
        if let Some((m, to, differs)) = differ {
            return Err(format!(
                "replicas still differ after a repair round: member {m} and member {to}, \
                 buckets {differs:#018b}"
            ));
        }
        // Each pair's last write: whether it must now be held (`None` when
        // that write failed, so it may or may not have landed).
        let mut last: Vec<((u8, u8), Option<bool>)> = Vec::new();
        for (write, outcome) in scope.writes.iter().zip(&self.outcomes) {
            let Write(is_put, k, v) = *write;
            let acknowledged = matches!(outcome, Some(Ok(_)));
            last.retain(|(pair, _)| *pair != (k, v));
            last.push(((k, v), acknowledged.then_some(is_put)));
        }
        for ((k, v), want) in &last {
            let key = self.cluster.keys[usize::from(*k)];
            for m in (0..self.members.len()).filter(|_| *want == Some(false)) {
                if self.held(m, key).contains(&value(*v)) {
                    return Err(format!(
                        "an acknowledged remove resurrected: member {m} holds key {k} value {v}"
                    ));
                }
            }
        }
        assert!(scope.write_quorum + scope.read_quorum > scope.replicas);
        for (k, key) in self.cluster.keys.iter().enumerate() {
            let got = self.quorum_read(*key).map(DhtResponse::into_values);
            let got = got.map_err(|e| format!("a quorum read of key {k} failed: {e:?}"))?;
            let of_key = last.iter().filter(|((pk, _), _)| usize::from(*pk) == k);
            for ((_, v), want) in of_key {
                let Some(want) = *want else {
                    continue;
                };
                if got.contains(&value(*v)) != want {
                    let write = if want { "put" } else { "remove" };
                    return Err(format!(
                        "a quorum read of key {k} returned {got:?}, not the last acknowledged \
                         write of value {v} (a {write})"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs `schedule` on `scope` from the start and checks where it ends: what
/// [`explore`] prints for a failing schedule.
pub(crate) fn replay(scope: &Scope, schedule: &[Event]) -> Result<(), String> {
    let cluster = Cluster::new(scope);
    let mut world = World::new(&cluster);
    for event in schedule {
        assert!(world.enabled().contains(event), "{event:?} is not enabled");
        world.fire(*event);
    }
    assert!(world.enabled().is_empty(), "the schedule runs to its end");
    world.check()
}

/// What an exploration covered.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Explored {
    /// Distinct worlds reached.
    pub(crate) worlds: usize,
    /// Of those, the ones with nothing left to do: each was checked.
    pub(crate) ends: usize,
}

/// A depth-first search over a scope's worlds, with sleep sets: an event
/// an earlier branch already took, and that commutes with everything
/// since, is not taken again (Godefroid's state-caching variant, so a
/// world reached again is explored only in what its first visit left
/// asleep and this one does not).
struct Search {
    /// Each world reached, with the events asleep when it last was.
    seen: HashMap<u64, Vec<Event>, BuildHasherDefault<Fnv>>,
    explored: Explored,
    /// The events that led to the world in hand.
    schedule: Vec<Event>,
}

impl Search {
    fn visit(&mut self, world: World, mut sleep: Vec<(Event, Access)>) -> Result<(), String> {
        let asleep =
            |sleep: &[(Event, Access)], event: &Event| sleep.iter().any(|(e, _)| e == event);
        let print = world.fingerprint();
        let todo: Vec<Event> = match self.seen.get_mut(&print) {
            Some(was) => {
                let todo = was.iter().filter(|e| !asleep(&sleep, e)).copied().collect();
                sleep.retain(|(e, _)| was.contains(e));
                *was = sleep.iter().map(|(e, _)| *e).collect();
                todo
            }
            None => {
                let was = sleep.iter().map(|(e, _)| *e).collect();
                self.seen.insert(print, was);
                self.explored.worlds += 1;
                let enabled = world.enabled();
                if enabled.is_empty() {
                    self.explored.ends += 1;
                    let mut world = world;
                    return world.check();
                }
                enabled.into_iter().filter(|e| !asleep(&sleep, e)).collect()
            }
        };
        // The last branch takes the world itself: a member no other world
        // shares is written in place, not copied.
        let mut world = Some(world);
        let last = todo.len();
        for (branch, event) in todo.into_iter().enumerate() {
            let mut next = match branch + 1 == last {
                true => world.take(),
                false => world.clone(),
            }
            .expect("the world is taken by the last branch only");
            let access = next.fire(event);
            let commuting = sleep
                .iter()
                .filter(|(_, a)| a.independent(&access))
                .copied();
            self.schedule.push(event);
            self.visit(next, commuting.collect())?;
            self.schedule.pop();
            sleep.push((event, access));
        }
        Ok(())
    }
}

/// Explores the worlds `scope` can reach and returns how many it visited —
/// or the first schedule that fails a check, with the check's verdict and
/// the schedule's events.
pub(crate) fn explore(scope: &Scope) -> Result<Explored, String> {
    let cluster = Cluster::new(scope);
    let mut search = Search {
        seen: HashMap::default(),
        explored: Explored { worlds: 0, ends: 0 },
        schedule: Vec::new(),
    };
    match search.visit(World::new(&cluster), Vec::new()) {
        Ok(()) => Ok(search.explored),
        Err(failure) => {
            let schedule = search.schedule;
            assert_eq!(replay(scope, &schedule), Err(failure.clone()), "replays");
            let explored = search.explored;
            Err(format!(
                "{failure}\nafter {explored:?}, in {scope:?}; \
                 replay with explore::replay(&scope, &{schedule:?})"
            ))
        }
    }
}

/// One schedule of `scope`, drawn by `rng`: from the start, fires an event
/// drawn from those enabled until none is left, then checks the world as
/// [`explore`] checks each of its ends. Each draw is a frame's turn or a
/// pass's step, uniformly; a frame's turn loses the frame, or its reply,
/// at rate `loss` while the scope's budget lasts. Returns how many frames
/// the schedule lost — or the check's verdict with the schedule's events,
/// which [`replay`] runs again.
pub(crate) fn walk(scope: &Scope, loss: f64, rng: &mut StdRng) -> Result<usize, String> {
    let cluster = Cluster::new(scope);
    let mut world = World::new(&cluster);
    let mut schedule = Vec::new();
    loop {
        let enabled = world.enabled();
        let turns: Vec<Event> = enabled
            .iter()
            .filter(|e| matches!(e, Event::Deliver(..) | Event::Step(_)))
            .copied()
            .collect();
        if turns.is_empty() {
            break;
        }
        let event = match turns[rng.gen_range(0..turns.len())] {
            Event::Deliver(from, seq) if world.losses > 0 && rng.gen_bool(loss) => {
                let reply = Event::LoseReply(from, seq);
                match rng.gen_bool(0.5) && enabled.contains(&reply) {
                    true => reply,
                    false => Event::Lose(from, seq),
                }
            }
            turn => turn,
        };
        world.fire(event);
        schedule.push(event);
    }
    let lost = scope.losses - world.losses;
    world.check().map(|()| lost).map_err(|failure| {
        format!("{failure}\nin {scope:?}; replay with explore::replay(&scope, &{schedule:?})")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_testkit::SeedableRng;
    use std::time::Instant;

    /// Explores `scope`, printing what it covered and how long it took.
    fn explored(scope: &Scope) -> Explored {
        let started = Instant::now();
        let explored = explore(scope).unwrap_or_else(|failure| panic!("{failure}"));
        let took = started.elapsed();
        println!("{scope:?}: {explored:?} in {took:.1?}");
        explored
    }

    /// The R = 2 scopes: 2 and 3 members, up to three writes on one or two
    /// keys, no re-put of a removed pair, both sides of `W + Rq > R`'s
    /// trade.
    const SMALL: [Scope; 5] = [
        Scope {
            members: 2,
            replicas: 2,
            write_quorum: 1,
            read_quorum: 2,
            writes: &[put(0, 0), put(0, 1), remove(0, 0)],
            losses: 1,
        },
        Scope {
            members: 2,
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
            writes: &[put(0, 0), put(1, 1), remove(1, 1)],
            losses: 1,
        },
        Scope {
            members: 3,
            replicas: 2,
            write_quorum: 1,
            read_quorum: 2,
            writes: &[put(0, 0)],
            losses: 1,
        },
        Scope {
            members: 3,
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
            writes: &[put(0, 0), remove(0, 0)],
            losses: 1,
        },
        Scope {
            members: 3,
            replicas: 2,
            write_quorum: 2,
            read_quorum: 1,
            writes: &[put(0, 0), put(1, 1)],
            losses: 1,
        },
    ];

    #[test]
    fn every_schedule_of_the_small_scopes_keeps_the_replicas_whole() {
        let covered: Vec<(usize, usize)> = SMALL
            .iter()
            .map(explored)
            .map(|e| (e.worlds, e.ends))
            .collect();
        let worlds: usize = covered.iter().map(|(worlds, _)| worlds).sum();
        println!("{worlds} worlds in all");
        // A change that shrinks the search fails here, as does one that
        // grows it: re-pin only with the reason in CHANGES.md.
        let pinned = [
            (8_416, 6),
            (20_653, 9),
            (7_243, 4),
            (33_169, 6),
            (54_607, 8),
        ];
        assert_eq!(covered, pinned, "the search covered another set of worlds");
    }

    #[test]
    #[ignore = "scrub-vs-re-put: ROADMAP item 2"]
    fn an_acknowledged_re_put_survives_every_schedule() {
        // The smallest scope with a re-put: nothing in it names an
        // interleaving. Fails today on an acknowledged re-put that a
        // tombstone scrubs away (per-pair versions, item 2(a), fix it).
        const RE_PUT: Scope = Scope {
            members: 2,
            replicas: 2,
            write_quorum: 1,
            read_quorum: 2,
            writes: &[put(0, 0), remove(0, 0), put(0, 0)],
            losses: 1,
        };
        explored(&RE_PUT);
    }

    /// R = 3 on its own: every member holds the key, so one put already
    /// makes more worlds than all of [`SMALL`] together.
    const THREE: Scope = Scope {
        members: 3,
        replicas: 3,
        write_quorum: 2,
        read_quorum: 2,
        writes: &[put(0, 0)],
        losses: 1,
    };

    #[test]
    fn every_schedule_of_a_put_on_three_replicas_keeps_them_whole() {
        let covered = explored(&THREE);
        let pinned = Explored {
            worlds: 212_854,
            ends: 5,
        };
        assert_eq!(covered, pinned, "the search covered another set of worlds");
    }

    #[test]
    fn seeded_walks_losing_up_to_three_frames_keep_the_replicas_whole() {
        // The scopes the search covers at one loss, walked at three under
        // three loss rates: a schedule may lose a write's frame to one
        // replica, its reply from another and a repair push, in any order.
        // Seed n draws its walks from `StdRng::seed_from_u64(n)`, as
        // `testkit::for_each_case` does, but over four times its 256 seeds.
        let scopes = SMALL.iter().chain([&THREE]).map(|scope| Scope {
            losses: 3,
            ..*scope
        });
        let scopes: Vec<Scope> = scopes.collect();
        let started = Instant::now();
        let (mut walks, mut lost, mut spent) = (0, 0, 0);
        for seed in 0..1_024 {
            let mut rng = StdRng::seed_from_u64(seed);
            for loss in [0.1, 0.3, 0.6] {
                for scope in &scopes {
                    let frames = walk(scope, loss, &mut rng)
                        .unwrap_or_else(|failure| panic!("case seed {seed}: {failure}"));
                    walks += 1;
                    lost += frames;
                    spent += usize::from(frames == scope.losses);
                }
            }
        }
        println!(
            "{walks} walks lost {lost} frames, {spent} of them all three, in {:.1?}",
            started.elapsed()
        );
        // A walk that stops losing, or stops running, fails here: re-pin
        // only with the reason in CHANGES.md.
        assert_eq!((walks, lost, spent), (18_432, 39_316, 10_216));
    }
}
