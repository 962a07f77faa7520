//! Behaviour goldens for the routed overlay, Chord.
//!
//! One fixed script — 32 nodes, 200 puts over 150 keys, 200 gets, 40
//! removes, 4 joins, 2 failures, `converge`, 200 gets — runs over Chord.
//! After each phase the transcript pins [`DhtStats`] and the per-node key
//! counts, and at the end a hash of `entries()`, so a refactor of the op
//! path, the accounting or the join takeover shows up as a changed line
//! with a phase name on it.
//!
//! On a mismatch the assertion prints the whole transcript, which is
//! also how the literals are regenerated.

use bytes::Bytes;
use p2p_index_dht::{ChordNetwork, Dht, Key, NodeId};

fn ids() -> Vec<Key> {
    (0..32)
        .map(|i| Key::hash_of(&format!("node-{i}")))
        .collect()
}

fn data_key(i: usize) -> Key {
    Key::hash_of(&format!("key-{}", i % 150))
}

/// FNV-1a over the canonical rendering of an entry list.
fn entries_hash(entries: &[(Key, Vec<Bytes>)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (key, values) in entries {
        eat(key.as_bytes());
        let mut values = values.clone();
        values.sort();
        for v in values {
            eat(&[0xff]);
            eat(&v);
        }
        eat(&[0xfe]);
    }
    h
}

fn transcript(mut net: ChordNetwork) -> String {
    let mut out = String::new();
    let mut phase = |net: &ChordNetwork, name: &str| {
        let s = net.stats();
        let counts: Vec<String> = net
            .nodes()
            .iter()
            .map(|n| net.store_of(n).map_or(0, |s| s.key_count()).to_string())
            .collect();
        out.push_str(&format!(
            "{name}: m={} l={} h={} keys=[{}]\n",
            s.messages,
            s.lookups,
            s.hops,
            counts.join(",")
        ));
    };
    for i in 0..200 {
        net.put(data_key(i), Bytes::from(format!("v{i}")));
    }
    phase(&net, "puts");
    let mut found = 0;
    for i in 0..200 {
        found += net.get(&data_key(i)).len();
    }
    phase(&net, &format!("gets found={found}"));
    // Keys 100..140 hold one value each, so these reads come back empty
    // afterwards.
    for i in 100..140 {
        assert!(net.remove(&data_key(i), format!("v{i}").as_bytes()));
    }
    phase(&net, "removes");
    for i in 0..4 {
        // Each joiner bootstraps through the lowest live identifier.
        let bootstrap = net.nodes()[0];
        net.join(NodeId::hash_of(&format!("spawn-{i}")), bootstrap)
            .expect("a fresh identifier joins");
    }
    phase(&net, "spawns");
    for i in [5, 20] {
        net.fail(NodeId::from_key(ids()[i]))
            .expect("a live node fails");
    }
    phase(&net, "kills");
    net.converge(64);
    phase(&net, "stabilize");
    let mut found = 0;
    for i in 0..200 {
        found += net.get(&data_key(i)).len();
    }
    phase(&net, &format!("gets after churn found={found}"));
    let entries = net.entries();
    let values: usize = entries.iter().map(|(_, v)| v.len()).sum();
    out.push_str(&format!(
        "entries: keys={} values={values} hash={:016x}\n",
        entries.len(),
        entries_hash(&entries)
    ));
    out
}

fn check(name: &str, got: String, want: &str) {
    assert!(
        got.trim() == want.trim(),
        "{name}: transcript differs from the golden; got:\n{got}"
    );
}

const CHORD_DEFAULT: &str = "\
puts: m=1256 l=200 h=428 keys=[5,2,6,3,7,0,1,0,5,11,20,11,0,2,3,3,4,8,11,2,0,1,5,7,2,16,2,3,5,4,0,1]
gets found=300: m=2574 l=400 h=887 keys=[5,2,6,3,7,0,1,0,5,11,20,11,0,2,3,3,4,8,11,2,0,1,5,7,2,16,2,3,5,4,0,1]
removes: m=2848 l=440 h=984 keys=[4,0,4,3,7,0,1,0,3,8,16,7,0,1,2,1,4,6,8,1,0,0,3,6,2,12,1,3,4,2,0,1]
spawns: m=2872 l=444 h=992 keys=[4,0,4,3,7,0,1,0,3,7,1,16,0,7,0,1,2,1,4,6,8,1,0,0,3,6,2,12,1,1,2,4,2,0,0,1]
kills: m=2872 l=444 h=992 keys=[4,0,4,3,7,0,1,0,3,7,16,0,7,0,1,2,1,4,6,8,1,0,3,6,2,12,1,1,2,4,2,0,0,1]
stabilize: m=5112 l=16866 h=1959 keys=[4,0,4,3,7,0,1,0,3,7,16,0,7,0,1,2,1,4,6,8,1,0,3,6,2,12,1,1,2,4,2,0,0,1]
gets after churn found=256: m=6468 l=17066 h=2437 keys=[4,0,4,3,7,0,1,0,3,7,16,0,7,0,1,2,1,4,6,8,1,0,3,6,2,12,1,1,2,4,2,0,0,1]
entries: keys=109 values=158 hash=7daa3346802b2bfc";

#[test]
fn chord_default() {
    check(
        "chord",
        transcript(ChordNetwork::with_perfect_tables(ids())),
        CHORD_DEFAULT,
    );
}
