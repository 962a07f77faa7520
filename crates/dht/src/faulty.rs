//! Deterministic fault injection around any [`Dht`] substrate.
//!
//! Real DHT deployments lose messages and churn nodes; the DHT
//! measurement literature treats partial failure as the normal case. This
//! module wraps a healthy substrate in [`FaultyDht`], which injects three
//! fault classes into every [`Dht::execute`] call, driven by a seeded RNG
//! so experiment runs are exactly reproducible:
//!
//! * **request loss** — the operation never reaches the responsible node
//!   (no effect on storage, the caller sees [`DhtError::Timeout`]);
//! * **response loss** — the operation takes effect but the acknowledgement
//!   is lost (storage mutated, the caller still sees a timeout — the
//!   at-least-once ambiguity retry layers must tolerate);
//! * **node churn** — a random live node crashes, or a fresh node joins,
//!   after which the substrate's [`NodeChurn::stabilize`] repair runs.
//!
//! The loss half of that — deliver, lose the request, or lose the response
//! — is [`LossRoll`], which owns no substrate: a networked `dhtd` server
//! puts the same roll in front of its partition store, so faults injected
//! behind a socket follow the schedule they follow in process.
//!
//! The `&self` read paths (`node_for`, `get`, `nodes`) pass through
//! fault-free: the index layer drives all accounted traffic through
//! `execute`, and keeping the shared read path infallible preserves the
//! historical trait contract for concurrent readers.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use p2p_index_dht::{Dht, DhtOp, FaultConfig, FaultyDht, Key, RingDht};
//!
//! let ring = RingDht::with_named_nodes(64);
//! let mut dht = FaultyDht::new(ring, FaultConfig::lossy(42, 0.5));
//! let key = Key::hash_of("item");
//! // Half the operations time out; with enough attempts one lands.
//! let mut stored = false;
//! for _ in 0..32 {
//!     if dht.execute(DhtOp::Put { key, value: Bytes::from_static(b"v") }).is_ok() {
//!         stored = true;
//!         break;
//!     }
//! }
//! assert!(stored || dht.fault_stats().injected() > 0);
//! ```

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeChurn, NodeId};
use crate::key::Key;

/// A small, fast, deterministic RNG (SplitMix64).
///
/// Used for fault rolls here and backoff jitter in the retry layer; kept
/// dependency-free so the substrate crate stays self-contained.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A uniform index in `[0, n)`. `n` must be non-zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Fault rates and the seed that drives them.
///
/// The default configuration injects nothing, so wrapping a substrate in
/// [`FaultyDht`] with `FaultConfig::default()` is behavior-neutral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault RNG; equal seeds replay the same fault sequence.
    pub seed: u64,
    /// Probability that an operation's request or response is lost.
    pub loss: f64,
    /// Probability that an operation is preceded by a churn event
    /// (alternating crash / join).
    pub churn: f64,
}

impl FaultConfig {
    /// No faults at all (the default).
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            loss: 0.0,
            churn: 0.0,
        }
    }

    /// Message loss only, at rate `loss`, driven by `seed`.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultConfig {
            seed,
            loss,
            churn: 0.0,
        }
    }

    /// `true` if this configuration can inject any fault.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.churn > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// What the loss roll decided for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Request and response both arrive.
    Delivered,
    /// The request vanished: the operation never happens.
    RequestLost,
    /// The operation happens, but its acknowledgement vanishes.
    ResponseLost,
}

impl Delivery {
    /// Runs `apply` as this outcome dictates and returns what the caller
    /// observes: the real result when delivered, [`DhtError::Timeout`]
    /// otherwise — after applying the operation anyway when only the
    /// response was lost (the at-least-once ambiguity).
    pub fn settle(
        self,
        apply: impl FnOnce() -> Result<DhtResponse, DhtError>,
    ) -> Result<DhtResponse, DhtError> {
        match self {
            Delivery::Delivered => apply(),
            Delivery::RequestLost => Err(DhtError::Timeout),
            Delivery::ResponseLost => {
                let _ = apply();
                Err(DhtError::Timeout)
            }
        }
    }
}

/// The seeded message-loss roll: one [`Delivery`] per operation.
///
/// This is the one piece of fault injection that is not tied to owning a
/// substrate, so [`FaultyDht`] (in process) and a networked `dhtd` server
/// (in front of its partition store) both draw from it — same draws, same
/// order, hence the same `Ok`/`Timeout` schedule for the same seed.
#[derive(Debug, Clone)]
pub struct LossRoll {
    cfg: FaultConfig,
    rng: SplitMix64,
}

impl LossRoll {
    /// A roll at `cfg.loss`, seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        LossRoll {
            cfg,
            rng: SplitMix64::new(cfg.seed),
        }
    }

    /// Decides the next operation's fate. A lost message is, with even
    /// odds, the request (the operation never happened) or the response
    /// (it happened but the caller cannot know). Draws nothing at loss 0.
    pub fn roll(&mut self) -> Delivery {
        if self.cfg.loss <= 0.0 || !self.rng.gen_bool(self.cfg.loss) {
            Delivery::Delivered
        } else if self.rng.gen_bool(0.5) {
            Delivery::RequestLost
        } else {
            Delivery::ResponseLost
        }
    }
}

/// Counters describing the faults a [`FaultyDht`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations submitted through `execute`.
    pub attempts: u64,
    /// Operations dropped before reaching the responsible node.
    pub requests_lost: u64,
    /// Operations applied whose acknowledgement was then dropped.
    pub responses_lost: u64,
    /// Nodes crashed by churn.
    pub crashes: u64,
    /// Nodes joined by churn.
    pub joins: u64,
}

impl FaultStats {
    /// Total injected faults of any class.
    pub fn injected(&self) -> u64 {
        self.requests_lost + self.responses_lost + self.crashes + self.joins
    }
}

/// A fault-injecting wrapper around any substrate that supports churn.
///
/// All faults are injected in [`Dht::execute`]; see the [module
/// docs](self) for the fault model. Reads through `&self` pass through
/// untouched. With [`FaultConfig::none`] the wrapper is fully transparent:
/// same results, same [`DhtStats`], no RNG draws.
#[derive(Debug, Clone)]
pub struct FaultyDht<D> {
    inner: D,
    /// The fault configuration and the one RNG stream churn and loss
    /// rolls share.
    roll: LossRoll,
    fstats: FaultStats,
    /// Sequence number for naming churn joiners; also alternates
    /// crash/join so membership stays roughly stable.
    churn_events: u64,
    metrics: MetricsRegistry,
}

impl<D> FaultyDht<D> {
    /// Wraps `inner`, injecting faults according to `cfg`.
    pub fn new(inner: D, cfg: FaultConfig) -> Self {
        FaultyDht {
            inner,
            roll: LossRoll::new(cfg),
            fstats: FaultStats::default(),
            churn_events: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    /// Wraps `inner` with faults disabled (transparent passthrough).
    pub fn transparent(inner: D) -> Self {
        Self::new(inner, FaultConfig::none())
    }

    /// The active fault configuration.
    pub fn fault_config(&self) -> FaultConfig {
        self.roll.cfg
    }

    /// Replaces the fault configuration and reseeds the fault RNG.
    ///
    /// Typical experiment shape: build and populate the index with faults
    /// disabled, then switch them on for the query phase.
    pub fn set_fault_config(&mut self, cfg: FaultConfig) {
        self.roll = LossRoll::new(cfg);
    }

    /// Counters for the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Read access to the wrapped substrate.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped substrate (bypasses fault injection).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwraps the substrate, discarding fault state.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: Dht + NodeChurn> FaultyDht<D> {
    /// Rolls for a churn event before an operation.
    fn maybe_churn(&mut self) {
        if self.roll.cfg.churn <= 0.0 || !self.roll.rng.gen_bool(self.roll.cfg.churn) {
            return;
        }
        self.churn_events += 1;
        if self.churn_events % 2 == 1 {
            // Crash a random live node — but never the last one, which
            // would wipe the network (and its data) outright.
            let nodes = self.inner.nodes();
            if nodes.len() > 1 {
                let victim = nodes[self.roll.rng.gen_index(nodes.len())];
                if self.inner.kill(victim) {
                    self.fstats.crashes += 1;
                    self.metrics.incr("fault.crashes");
                    self.inner.stabilize();
                }
            }
        } else {
            let id = NodeId::hash_of(&format!("faulty-churn-{}", self.churn_events));
            if self.inner.spawn(id) {
                self.fstats.joins += 1;
                self.metrics.incr("fault.joins");
                self.inner.stabilize();
            }
        }
    }
}

impl<D: Dht + NodeChurn> Dht for FaultyDht<D> {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.fstats.attempts += 1;
        self.metrics.incr("fault.attempts");
        self.maybe_churn();
        let delivery = self.roll.roll();
        match delivery {
            Delivery::Delivered => {}
            Delivery::RequestLost => {
                self.fstats.requests_lost += 1;
                self.metrics.incr("fault.requests_lost");
            }
            Delivery::ResponseLost => {
                self.fstats.responses_lost += 1;
                self.metrics.incr("fault.responses_lost");
            }
        }
        delivery.settle(|| self.inner.execute(op))
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.inner.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.inner.get(key)
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        // Maintenance enumeration bypasses fault injection: drain and
        // repair walk the substrate's real contents, faults apply only
        // to the operation path.
        self.inner.entries()
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        // Keep a handle for fault counters and forward the same registry
        // to the wrapped substrate, which records the `dht.*` series.
        self.metrics = metrics.clone();
        self.inner.set_metrics(metrics);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl<D: Dht + NodeChurn> NodeChurn for FaultyDht<D> {
    fn spawn(&mut self, id: NodeId) -> bool {
        self.inner.spawn(id)
    }

    fn kill(&mut self, id: NodeId) -> bool {
        self.inner.kill(id)
    }

    fn stabilize(&mut self) {
        self.inner.stabilize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingDht;

    fn put_op(name: &str) -> DhtOp {
        DhtOp::Put {
            key: Key::hash_of(name),
            value: Bytes::from(format!("v-{name}")),
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        let hits = (0..10_000).filter(|_| c.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
        for _ in 0..1000 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.gen_index(5) < 5);
        }
    }

    #[test]
    fn transparent_wrapper_changes_nothing() {
        let mut plain = RingDht::with_named_nodes(32);
        let mut wrapped = FaultyDht::transparent(RingDht::with_named_nodes(32));
        for i in 0..50 {
            let op = put_op(&format!("item-{i}"));
            assert_eq!(plain.execute(op.clone()), wrapped.execute(op));
        }
        let probe = Key::hash_of("item-7");
        assert_eq!(plain.get(&probe), wrapped.get(&probe));
        assert_eq!(plain.stats(), wrapped.stats());
        assert_eq!(wrapped.fault_stats().injected(), 0);
    }

    #[test]
    fn loss_rate_one_times_out_everything() {
        let ring = RingDht::with_named_nodes(8);
        let mut dht = FaultyDht::new(ring, FaultConfig::lossy(1, 1.0));
        for i in 0..20 {
            assert_eq!(
                dht.execute(put_op(&format!("i{i}"))),
                Err(DhtError::Timeout)
            );
        }
        let s = dht.fault_stats();
        assert_eq!(s.attempts, 20);
        assert_eq!(s.requests_lost + s.responses_lost, 20);
        // Response-lost writes really landed; request-lost ones did not.
        let landed: usize = (0..20)
            .filter(|i| !dht.get(&Key::hash_of(&format!("i{i}"))).is_empty())
            .count();
        assert_eq!(landed as u64, s.responses_lost);
    }

    #[test]
    fn same_seed_replays_same_fault_sequence() {
        let run = || {
            let mut dht =
                FaultyDht::new(RingDht::with_named_nodes(16), FaultConfig::lossy(99, 0.4));
            (0..100)
                .map(|i| dht.execute(put_op(&format!("x{i}"))).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churn_crashes_and_joins_nodes() {
        let cfg = FaultConfig {
            seed: 5,
            loss: 0.0,
            churn: 1.0,
        };
        let mut dht = FaultyDht::new(RingDht::with_named_nodes(16), cfg);
        for i in 0..40 {
            let _ = dht.execute(put_op(&format!("c{i}")));
        }
        let s = dht.fault_stats();
        assert!(s.crashes > 0, "expected crashes, got {s:?}");
        assert!(s.joins > 0, "expected joins, got {s:?}");
        // Alternating crash/join keeps the network near its original size.
        assert!(dht.len() >= 8 && dht.len() <= 24, "len = {}", dht.len());
        assert!(!dht.is_empty());
    }

    #[test]
    fn reseeding_restarts_the_fault_stream() {
        let mut dht = FaultyDht::new(RingDht::with_named_nodes(8), FaultConfig::lossy(3, 0.5));
        let first: Vec<bool> = (0..50)
            .map(|i| dht.execute(put_op(&format!("r{i}"))).is_ok())
            .collect();
        dht.set_fault_config(FaultConfig::lossy(3, 0.5));
        let second: Vec<bool> = (0..50)
            .map(|i| dht.execute(put_op(&format!("r{i}"))).is_ok())
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn empty_network_reports_no_live_nodes() {
        let mut dht = FaultyDht::transparent(RingDht::new());
        assert_eq!(
            dht.execute(DhtOp::Get(Key::hash_of("k"))),
            Err(DhtError::NoLiveNodes)
        );
    }
}
