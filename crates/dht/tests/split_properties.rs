//! Property tests for the entry split/balance decorator.
//!
//! [`SplitDht`] rewrites the physical layout of oversized and overheated
//! entries — pagination onto deterministic child keys, read mirrors on
//! clockwise successors — while promising that the *logical* key/value
//! contract of [`Dht`] is untouched. That promise is what lets the index
//! layer and the networked cluster wrap any substrate without knowing the
//! subsystem exists, so it is pinned here as properties:
//!
//! * **Equivalence** — an arbitrary op script through `SplitDht<RingDht>`
//!   is observably identical (stored/removed flags, sorted value sets,
//!   batched reads, `&self` reads) to the same script through a plain
//!   `RingDht`, at every mitigation setting including observe-only.
//! * **Budget** — after any script, no non-mirror physical entry holds
//!   more value bytes than the page budget allows: parents stay within
//!   budget (plus the marker), pages overshoot by at most one value.
//! * **Determinism** — `page_key` is a pure function, collision-free
//!   across `(parent, page)` pairs.
//! * **Portability** — split-then-read equals unsplit-read on every
//!   substrate (ring, Chord, Kademlia, Pastry, and the TCP-backed
//!   loopback cluster).
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bytes::Bytes;
use p2p_index_dht::{
    page_key, BalanceConfig, ChordNetwork, Dht, DhtOp, KademliaNetwork, Key, PastryNetwork,
    RingDht, SplitDht, SplitMix64,
};
use p2p_index_net::LoopbackCluster;
use p2p_index_testkit::{for_each_case, Rng};

/// Logical keys the scripts operate on: few enough that entries grow past
/// the budget and gets repeat past the hot threshold.
const POOL: usize = 6;

/// Longest value [`value`] can produce, in bytes.
const MAX_VALUE_LEN: usize = 4 + 16 + 4;

fn pool_key(i: usize) -> Key {
    Key::hash_of(&format!("logical-{i}"))
}

/// One of 32 distinct values with lengths spread over `8..=24` bytes, so
/// duplicate puts and removes of absent values both occur naturally.
fn value(id: u64) -> Bytes {
    let id = id % 32;
    let pad = (id as usize * 5) % 17;
    Bytes::from(format!("v{id:02}:{:x<pad$}", "", pad = pad + 4))
}

#[derive(Debug, Clone)]
enum ScriptOp {
    Put(usize, Bytes),
    Get(usize),
    Remove(usize, Bytes),
}

/// A put-heavy script over the key pool (puts grow entries into splits,
/// gets heat keys toward promotion, removes hit present and absent
/// values alike).
fn script_from(rng: &mut SplitMix64, ops: usize) -> Vec<ScriptOp> {
    (0..ops)
        .map(|_| {
            let k = (rng.next_u64() % POOL as u64) as usize;
            match rng.next_u64() % 10 {
                0..=5 => ScriptOp::Put(k, value(rng.next_u64())),
                6..=7 => ScriptOp::Get(k),
                _ => ScriptOp::Remove(k, value(rng.next_u64())),
            }
        })
        .collect()
}

fn sorted(mut values: Vec<Bytes>) -> Vec<Bytes> {
    values.sort();
    values
}

fn exec_on(dht: &mut impl Dht, op: DhtOp) -> p2p_index_dht::DhtResponse {
    dht.execute(op).expect("op on live in-process network")
}

/// Runs `script` through a decorated ring and a plain twin ring,
/// asserting observable equivalence at every step and at the end —
/// unary, batched, and `&self` reads.
fn check_equivalence(script: &[ScriptOp], config: BalanceConfig) {
    let mut split = SplitDht::new(RingDht::with_named_nodes(24), config);
    let mut plain = RingDht::with_named_nodes(24);
    for (i, op) in script.iter().enumerate() {
        match op {
            ScriptOp::Put(k, v) => {
                let put = |v: &Bytes| DhtOp::Put {
                    key: pool_key(*k),
                    value: v.clone(),
                };
                assert_eq!(
                    exec_on(&mut split, put(v)).into_stored(),
                    exec_on(&mut plain, put(v)).into_stored(),
                    "op {i}: stored flag diverged ({config:?})"
                );
            }
            ScriptOp::Get(k) => {
                assert_eq!(
                    sorted(exec_on(&mut split, DhtOp::Get(pool_key(*k))).into_values()),
                    sorted(exec_on(&mut plain, DhtOp::Get(pool_key(*k))).into_values()),
                    "op {i}: value set diverged ({config:?})"
                );
            }
            ScriptOp::Remove(k, v) => {
                let remove = |v: &Bytes| DhtOp::Remove {
                    key: pool_key(*k),
                    value: v.clone(),
                };
                assert_eq!(
                    exec_on(&mut split, remove(v)).into_removed(),
                    exec_on(&mut plain, remove(v)).into_removed(),
                    "op {i}: removed flag diverged ({config:?})"
                );
            }
        }
    }
    // Final state: every pool key reads equal through every entry point.
    for i in 0..POOL {
        let key = pool_key(i);
        assert_eq!(
            sorted(exec_on(&mut split, DhtOp::Get(key)).into_values()),
            sorted(exec_on(&mut plain, DhtOp::Get(key)).into_values()),
            "final unary get of key {i} diverged ({config:?})"
        );
        // The accounting-free `&self` read reassembles too.
        assert_eq!(
            sorted(split.get(&key)),
            sorted(plain.get(&key)),
            "final &self get of key {i} diverged ({config:?})"
        );
    }
    // A read-only batch goes down the pipelined two-wave path.
    let batch: Vec<DhtOp> = (0..POOL).map(|i| DhtOp::Get(pool_key(i))).collect();
    let batched = split.execute_many(batch);
    for (i, response) in batched.into_iter().enumerate() {
        assert_eq!(
            sorted(response.expect("batched get").into_values()),
            sorted(exec_on(&mut plain, DhtOp::Get(pool_key(i))).into_values()),
            "batched get of key {i} diverged ({config:?})"
        );
    }
}

/// Runs a put-only variant of `script` (splitting active, fan-out off)
/// and asserts every non-mirror physical entry respects the budget.
fn check_budget(script: &[ScriptOp], budget: usize) {
    assert!(budget > 0, "budget property needs splitting enabled");
    let mut split = SplitDht::new(
        RingDht::with_named_nodes(24),
        BalanceConfig::mitigating(budget, 0, 0),
    );
    for op in script {
        match op {
            ScriptOp::Put(k, v) => {
                exec_on(
                    &mut split,
                    DhtOp::Put {
                        key: pool_key(*k),
                        value: v.clone(),
                    },
                );
            }
            ScriptOp::Get(k) => {
                exec_on(&mut split, DhtOp::Get(pool_key(*k)));
            }
            ScriptOp::Remove(k, v) => {
                exec_on(
                    &mut split,
                    DhtOp::Remove {
                        key: pool_key(*k),
                        value: v.clone(),
                    },
                );
            }
        }
    }
    // Classify physical keys: page keys may overshoot by at most one
    // value (a page closes the first time it reaches the budget), parent
    // and untouched entries must stay within budget (markers excluded).
    let page_keys: HashSet<Key> = (0..POOL)
        .flat_map(|i| (1..=64u32).map(move |p| page_key(&pool_key(i), p)))
        .collect();
    for (key, values) in split.inner().entries() {
        let payload: usize = values
            .iter()
            .filter(|v| !v.starts_with(b"P:"))
            .map(|v| v.len())
            .sum();
        if page_keys.contains(&key) {
            assert!(
                payload < budget + MAX_VALUE_LEN,
                "page {key} holds {payload} B against budget {budget}"
            );
        } else {
            assert!(
                payload <= budget,
                "entry {key} holds {payload} B against budget {budget}"
            );
        }
    }
}

/// Applies `script` to a model map with set semantics and returns the
/// expected final value set per pool key. Independent oracle: no DHT
/// code involved.
fn model_final_state(script: &[ScriptOp]) -> BTreeMap<usize, BTreeSet<Bytes>> {
    let mut model: BTreeMap<usize, BTreeSet<Bytes>> = BTreeMap::new();
    for op in script {
        match op {
            ScriptOp::Put(k, v) => {
                model.entry(*k).or_default().insert(v.clone());
            }
            ScriptOp::Get(_) => {}
            ScriptOp::Remove(k, v) => {
                model.entry(*k).or_default().remove(v);
            }
        }
    }
    model
}

/// Runs `script` through a decorated substrate and asserts the final
/// logical state matches the model oracle exactly.
fn check_substrate<D: Dht>(name: &str, inner: D, script: &[ScriptOp], config: BalanceConfig) {
    let mut split = SplitDht::new(inner, config);
    for op in script {
        match op {
            ScriptOp::Put(k, v) => {
                exec_on(
                    &mut split,
                    DhtOp::Put {
                        key: pool_key(*k),
                        value: v.clone(),
                    },
                );
            }
            ScriptOp::Get(k) => {
                exec_on(&mut split, DhtOp::Get(pool_key(*k)));
            }
            ScriptOp::Remove(k, v) => {
                exec_on(
                    &mut split,
                    DhtOp::Remove {
                        key: pool_key(*k),
                        value: v.clone(),
                    },
                );
            }
        }
    }
    let model = model_final_state(script);
    for i in 0..POOL {
        let expect: Vec<Bytes> = model
            .get(&i)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        assert_eq!(
            sorted(exec_on(&mut split, DhtOp::Get(pool_key(i))).into_values()),
            expect,
            "{name}: key {i} diverged from the model ({config:?})"
        );
    }
}

fn node_keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
}

/// A mitigation setting from seeded randomness, observe-only included.
fn config_from(rng: &mut SplitMix64) -> BalanceConfig {
    match rng.next_u64() % 4 {
        0 => BalanceConfig::observe_only(),
        1 => BalanceConfig::mitigating(32 + (rng.next_u64() % 200) as usize, 0, 0),
        2 => BalanceConfig::mitigating(
            0,
            3 + rng.next_u64() % 10,
            1 + (rng.next_u64() % 5) as usize,
        ),
        _ => BalanceConfig::mitigating(
            32 + (rng.next_u64() % 200) as usize,
            3 + rng.next_u64() % 10,
            1 + (rng.next_u64() % 5) as usize,
        ),
    }
}

/// Arbitrary scripts are observably identical through the decorator
/// and the plain ring, at arbitrary mitigation settings.
#[test]
fn split_dht_is_observably_plain() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        let config = config_from(&mut mix);
        let script = script_from(&mut mix, rng.gen_range(10..160));
        check_equivalence(&script, config);
    });
}

/// No physical entry ever outgrows the page budget (fan-out off so
/// mirror entries, which aggregate whole logical sets, don't mix in).
#[test]
fn pages_respect_the_budget() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        let script = script_from(&mut mix, rng.gen_range(10..160));
        check_budget(&script, rng.gen_range(24..256));
    });
}

/// Split entries read back identically on every in-process substrate.
#[test]
fn split_reads_are_substrate_independent() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        let script = script_from(&mut mix, rng.gen_range(10..120));
        let config = BalanceConfig::mitigating(48, 4, 3);
        check_substrate("ring", RingDht::from_ids(node_keys(16)), &script, config);
        check_substrate(
            "chord",
            ChordNetwork::with_perfect_tables(node_keys(16)),
            &script,
            config,
        );
        check_substrate(
            "kademlia",
            KademliaNetwork::with_nodes(node_keys(16)),
            &script,
            config,
        );
        check_substrate(
            "pastry",
            PastryNetwork::with_perfect_tables(node_keys(16)),
            &script,
            config,
        );
    });
}

/// Page keys are a pure, collision-free function of `(parent, page)`.
#[test]
fn page_keys_are_deterministic_and_collision_free() {
    let mut seen: HashSet<Key> = HashSet::new();
    for i in 0..POOL {
        let parent = pool_key(i);
        assert!(seen.insert(parent), "parent key collided");
        for page in 1..=64u32 {
            let child = page_key(&parent, page);
            assert_eq!(child, page_key(&parent, page), "page_key must be pure");
            assert!(
                seen.insert(child),
                "page key collided for parent {i}, page {page}"
            );
        }
    }
}

/// The wire path: a split entry written through a decorated TCP-backed
/// loopback cluster reads back whole — unary, batched, and from a fresh
/// decorator that discovers the split over the wire.
#[test]
fn split_reads_reassemble_over_the_wire() {
    let mut rng = SplitMix64::new(0x7c9);
    let script: Vec<ScriptOp> = (0..60)
        .map(|_| ScriptOp::Put(0, value(rng.next_u64())))
        .collect();
    let config = BalanceConfig::mitigating(48, 0, 0);
    let cluster = LoopbackCluster::start_ring(3).expect("loopback cluster binds");
    let mut split = SplitDht::new(cluster.client(), config);
    for op in &script {
        if let ScriptOp::Put(k, v) = op {
            exec_on(
                &mut split,
                DhtOp::Put {
                    key: pool_key(*k),
                    value: v.clone(),
                },
            );
        }
    }
    let expect: Vec<Bytes> = model_final_state(&script)
        .remove(&0)
        .map(|s| s.into_iter().collect())
        .unwrap_or_default();
    assert!(
        split.split_key_count() > 0,
        "script must actually split the entry"
    );
    assert_eq!(
        sorted(exec_on(&mut split, DhtOp::Get(pool_key(0))).into_values()),
        expect,
        "unary wire read lost or duplicated values"
    );
    let batched = split.execute_many(vec![DhtOp::Get(pool_key(0))]);
    assert_eq!(
        sorted(
            batched
                .into_iter()
                .next()
                .expect("one op")
                .expect("ok")
                .into_values()
        ),
        expect,
        "batched wire read lost or duplicated values"
    );
    // A second client (fresh decorator, no local split state) over the
    // same servers discovers the marker and reassembles.
    let mut fresh = SplitDht::new(cluster.client(), config);
    assert_eq!(
        sorted(exec_on(&mut fresh, DhtOp::Get(pool_key(0))).into_values()),
        expect,
        "fresh decorator failed to reassemble over the wire"
    );
}
