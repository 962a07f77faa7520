//! Deterministic fault injection around any [`Dht`] substrate.
//!
//! Real DHT deployments lose messages; the DHT measurement literature
//! treats partial failure as the normal case. This module wraps a healthy
//! substrate in [`FaultyDht`], which injects one fault class, seeded
//! message loss, into every [`Dht::execute`] call, so experiment runs are
//! exactly reproducible. A lost message is either
//!
//! * the **request** — the operation never reaches the responsible node
//!   (no effect on storage, the caller sees [`DhtError::Timeout`]); or
//! * the **response** — the operation takes effect but the acknowledgement
//!   is lost (storage mutated, the caller still sees a timeout — the
//!   at-least-once ambiguity retry layers must tolerate).
//!
//! This is the one place loss is injected. Over the wire it wraps the
//! client (`FaultyDht<RemoteDht>`), so a lost message is one the caller
//! never hears back from, whatever sockets carried it. Membership change
//! is not a fault class here: a test that crashes a node calls the
//! substrate's own API (`RingDht::remove_node`, `ChordNetwork::fail`) or
//! kills a `dhtd` process.
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

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId};
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

/// The loss rate and the seed that drives it.
///
/// The default configuration injects nothing, so wrapping a substrate in
/// [`FaultyDht`] with `FaultConfig::default()` is behavior-neutral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault RNG; equal seeds replay the same fault sequence.
    pub seed: u64,
    /// Probability that an operation's request or response is lost.
    pub loss: f64,
}

impl FaultConfig {
    /// No faults at all (the default).
    pub fn none() -> Self {
        Self::lossy(0, 0.0)
    }

    /// Message loss at rate `loss`, driven by `seed`.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        FaultConfig { seed, loss }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
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
}

impl FaultStats {
    /// Total messages lost, requests and responses.
    pub fn injected(&self) -> u64 {
        self.requests_lost + self.responses_lost
    }
}

/// A fault-injecting wrapper around any [`Dht`] substrate.
///
/// All faults are injected in [`Dht::execute`]; see the [module
/// docs](self) for the fault model. Reads through `&self` pass through
/// untouched. With [`FaultConfig::none`] the wrapper is fully transparent:
/// same results, same [`DhtStats`], no RNG draws.
#[derive(Debug, Clone)]
pub struct FaultyDht<D> {
    inner: D,
    /// The loss rate, and the stream every roll draws from.
    loss: f64,
    rng: SplitMix64,
    fstats: FaultStats,
    metrics: MetricsRegistry,
}

impl<D> FaultyDht<D> {
    /// Wraps `inner`, injecting faults according to `cfg`.
    pub fn new(inner: D, cfg: FaultConfig) -> Self {
        FaultyDht {
            inner,
            loss: cfg.loss,
            rng: SplitMix64::new(cfg.seed),
            fstats: FaultStats::default(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Wraps `inner` with faults disabled (transparent passthrough).
    pub fn transparent(inner: D) -> Self {
        Self::new(inner, FaultConfig::none())
    }

    /// Replaces the fault configuration and reseeds the fault RNG.
    ///
    /// Typical experiment shape: build and populate the index with faults
    /// disabled, then switch them on for the query phase.
    pub fn set_fault_config(&mut self, cfg: FaultConfig) {
        (self.loss, self.rng) = (cfg.loss, SplitMix64::new(cfg.seed));
    }

    /// Counters for the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Read access to the wrapped substrate.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Dht> Dht for FaultyDht<D> {
    /// Rolls the op's fate first. A lost message is, with even odds, the
    /// request (the op never happens) or the response (it happens, but
    /// the caller cannot know). Draws nothing at loss 0.
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.fstats.attempts += 1;
        self.metrics.incr("fault.attempts");
        if self.loss <= 0.0 || !self.rng.gen_bool(self.loss) {
            return self.inner.execute(op);
        }
        if self.rng.gen_bool(0.5) {
            self.fstats.requests_lost += 1;
            self.metrics.incr("fault.requests_lost");
        } else {
            self.fstats.responses_lost += 1;
            self.metrics.incr("fault.responses_lost");
            let _ = self.inner.execute(op);
        }
        Err(DhtError::Timeout)
    }

    /// At loss 0 no op draws, so the wave goes to the wrapped substrate
    /// whole, in the caller's kept vectors. Otherwise every op rolls its
    /// fate before it is sent, so the wave runs op by op through
    /// [`Dht::execute`]: the draw order of the unary sequence.
    fn execute_many_into(
        &mut self,
        ops: &mut Vec<DhtOp>,
        results: &mut Vec<Result<DhtResponse, DhtError>>,
    ) {
        if self.loss > 0.0 {
            results.extend(ops.drain(..).map(|op| self.execute(op)));
            return;
        }
        self.fstats.attempts += ops.len() as u64;
        self.metrics.add("fault.attempts", ops.len() as u64);
        self.inner.execute_many_into(ops, results);
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
        // Maintenance enumeration bypasses fault injection: repair walks
        // the substrate's real contents, faults apply only to the
        // operation path.
        self.inner.entries()
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        // Keep a handle for the `fault.*` counters and forward the same
        // registry to the wrapped substrate, for the series it records.
        self.metrics = metrics.clone();
        self.inner.set_metrics(metrics);
    }

    fn len(&self) -> usize {
        self.inner.len()
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
