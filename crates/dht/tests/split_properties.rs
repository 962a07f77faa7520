//! Property tests for the hot-key fan-out decorator.
//!
//! [`SplitDht`] splits a hot key's reads across mirrors on its clockwise
//! successors while promising that the *logical* key/value contract of
//! [`Dht`] is untouched. That promise is what lets the index layer and
//! the networked cluster wrap any substrate without knowing the subsystem
//! exists, so it is pinned here as properties:
//!
//! * **Equivalence** — an arbitrary op script through `SplitDht<RingDht>`
//!   is observably identical (stored/removed flags, sorted value sets,
//!   batched reads, `&self` reads) to the same script through a plain
//!   `RingDht`, at observe-only and at fan-out settings — and the run as
//!   a whole promotes keys and serves mirror reads, so it is not vacuous.
//! * **Portability** — mirror-served reads equal the model on every
//!   substrate (ring, Chord, and the TCP-backed loopback cluster).
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use p2p_index_dht::{BalanceConfig, ChordNetwork, Dht, DhtOp, Key, RingDht, SplitDht, SplitMix64};
use p2p_index_net::LoopbackCluster;
use p2p_index_testkit::{for_each_case, Rng};

/// Logical keys the scripts operate on: few enough that gets repeat past
/// the hot threshold.
const POOL: usize = 6;

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

/// A put-heavy script over the key pool (puts land on primary and mirrors
/// alike, gets heat keys toward promotion, removes hit present and absent
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
/// unary, batched, and `&self` reads. Returns the decorator's
/// `(promotions, mirror_reads)`.
fn check_equivalence(script: &[ScriptOp], config: BalanceConfig) -> (u64, u64) {
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
        // The accounting-free `&self` read (the primary) agrees too.
        assert_eq!(
            sorted(split.get(&key)),
            sorted(plain.get(&key)),
            "final &self get of key {i} diverged ({config:?})"
        );
    }
    // A batch: forwarded whole under observe-only, op by op under fan-out.
    let batch: Vec<DhtOp> = (0..POOL).map(|i| DhtOp::Get(pool_key(i))).collect();
    let batched = split.execute_many(batch);
    for (i, response) in batched.into_iter().enumerate() {
        assert_eq!(
            sorted(response.expect("batched get").into_values()),
            sorted(exec_on(&mut plain, DhtOp::Get(pool_key(i))).into_values()),
            "batched get of key {i} diverged ({config:?})"
        );
    }
    split.balance_stats()
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
    match rng.next_u64() % 2 {
        0 => BalanceConfig::observe_only(),
        _ => BalanceConfig::mitigating(3 + rng.next_u64() % 10, 1 + (rng.next_u64() % 5) as usize),
    }
}

/// Arbitrary scripts are observably identical through the decorator
/// and the plain ring, at arbitrary mitigation settings.
#[test]
fn split_dht_is_observably_plain() {
    let (mut promotions, mut mirror_reads) = (0, 0);
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        let config = config_from(&mut mix);
        let script = script_from(&mut mix, rng.gen_range(10..160));
        let (promoted, mirrored) = check_equivalence(&script, config);
        promotions += promoted;
        mirror_reads += mirrored;
    });
    assert!(promotions > 0, "no case promoted a key");
    assert!(mirror_reads > 0, "no case served a mirror read");
}

/// Mirror-served reads match the model on every in-process substrate.
#[test]
fn split_reads_are_substrate_independent() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        let script = script_from(&mut mix, rng.gen_range(10..120));
        let config = BalanceConfig::mitigating(4, 3);
        check_substrate("ring", RingDht::from_ids(node_keys(16)), &script, config);
        check_substrate(
            "chord",
            ChordNetwork::with_perfect_tables(node_keys(16)),
            &script,
            config,
        );
    });
}

/// The wire path: a hot key written and read through a decorated
/// TCP-backed loopback cluster is promoted, and every read — primary or
/// mirror, unary or batched, and from a fresh decorator that knows no
/// mirrors — returns the whole entry.
#[test]
fn split_reads_reassemble_over_the_wire() {
    let mut rng = SplitMix64::new(0x7c9);
    let script: Vec<ScriptOp> = (0..20)
        .map(|_| ScriptOp::Put(0, value(rng.next_u64())))
        .collect();
    let config = BalanceConfig::mitigating(4, 3);
    let cluster = LoopbackCluster::start_ring(5).expect("loopback cluster binds");
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
    for round in 0..16 {
        assert_eq!(
            sorted(exec_on(&mut split, DhtOp::Get(pool_key(0))).into_values()),
            expect,
            "unary wire read {round} lost or duplicated values"
        );
    }
    let (promotions, mirror_reads) = split.balance_stats();
    assert_eq!(promotions, 1, "the key must be promoted");
    assert!(mirror_reads > 0, "reads must rotate onto mirrors");
    // A put after promotion reaches the mirrors over the wire too.
    let late = Bytes::from_static(b"late-value");
    exec_on(
        &mut split,
        DhtOp::Put {
            key: pool_key(0),
            value: late.clone(),
        },
    );
    let mut expect = expect;
    expect.push(late);
    expect.sort();
    for round in 0..4 {
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
            "batched wire read {round} lost or duplicated values"
        );
    }
    // A second client (fresh decorator, no mirror state) over the same
    // servers reads the primary whole.
    let mut fresh = SplitDht::new(cluster.client(), config);
    assert_eq!(
        sorted(exec_on(&mut fresh, DhtOp::Get(pool_key(0))).into_values()),
        expect,
        "fresh decorator lost or duplicated values over the wire"
    );
}
