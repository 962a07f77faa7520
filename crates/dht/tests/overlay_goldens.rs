//! Behaviour goldens for the three routed overlays.
//!
//! One fixed script — 32 nodes, 200 puts over 150 keys, 200 gets, 40
//! removes, 4 spawns, 2 kills, `stabilize`, 200 gets — runs over Chord,
//! Kademlia and Pastry at the default config and at replication (store
//! width) 3. After each phase the transcript pins [`DhtStats`] and the
//! per-node key counts, and at the end a hash of `entries()`, so a
//! refactor of the shared op path, the accounting, the join takeover or
//! the re-replication pass shows up as a changed line with a phase name
//! on it. The literals were generated on the commit before the overlay
//! skeleton (`overlay.rs`) landed; CHANGES.md (PR 23) lists every line
//! that skeleton changed and why.
//!
//! On a mismatch the assertion prints the whole transcript, which is
//! also how the literals are regenerated.

use bytes::Bytes;
use p2p_index_dht::{
    ChordConfig, ChordNetwork, Dht, KademliaConfig, KademliaNetwork, Key, NodeChurn, NodeId,
    PastryConfig, PastryNetwork,
};

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

fn transcript<D: Dht + NodeChurn>(mut net: D, key_count: impl Fn(&D, &NodeId) -> usize) -> String {
    let mut out = String::new();
    let mut phase = |net: &D, name: &str| {
        let s = net.stats();
        let counts: Vec<String> = net
            .nodes()
            .iter()
            .map(|n| key_count(net, n).to_string())
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
    // afterwards and a replicated overlay walks its whole replica set.
    for i in 100..140 {
        assert!(net.remove(&data_key(i), format!("v{i}").as_bytes()));
    }
    phase(&net, "removes");
    for i in 0..4 {
        assert!(net.spawn(NodeId::hash_of(&format!("spawn-{i}"))));
    }
    phase(&net, "spawns");
    for i in [5, 20] {
        assert!(net.kill(NodeId::from_key(ids()[i])));
    }
    phase(&net, "kills");
    net.stabilize();
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

fn chord(replication: usize) -> String {
    let cfg = ChordConfig {
        replication,
        ..ChordConfig::default()
    };
    transcript(
        ChordNetwork::with_perfect_tables_and_config(ids(), cfg),
        |net, id| net.store_of(id).map_or(0, |s| s.key_count()),
    )
}

fn kademlia(store_width: usize) -> String {
    let cfg = KademliaConfig {
        store_width,
        ..KademliaConfig::default()
    };
    transcript(
        KademliaNetwork::with_nodes_and_config(ids(), cfg),
        |net, id| net.store_of(id).map_or(0, |s| s.key_count()),
    )
}

fn pastry(replication: usize) -> String {
    let cfg = PastryConfig {
        replication,
        ..PastryConfig::default()
    };
    transcript(
        PastryNetwork::with_perfect_tables_and_config(ids(), cfg),
        |net, id| net.store_of(id).map_or(0, |s| s.key_count()),
    )
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
    check("chord", chord(1), CHORD_DEFAULT);
}

const CHORD_REPLICATED: &str = "\
puts: m=1256 l=200 h=428 keys=[6,8,13,11,16,10,8,1,6,16,36,42,31,13,5,8,10,15,23,21,13,3,6,13,14,25,20,21,10,12,9,5]
gets found=300: m=2574 l=400 h=887 keys=[6,8,13,11,16,10,8,1,6,16,36,42,31,13,5,8,10,15,23,21,13,3,6,13,14,25,20,21,10,12,9,5]
removes: m=2848 l=440 h=984 keys=[5,5,8,7,14,10,8,1,4,11,27,31,23,8,3,4,7,11,18,15,9,1,3,9,11,20,15,16,8,9,6,3]
spawns: m=2872 l=444 h=992 keys=[5,5,8,7,14,10,8,1,4,10,11,24,17,23,7,8,3,4,7,11,18,15,9,1,3,9,11,20,15,14,4,7,8,6,2,1]
kills: m=2872 l=444 h=992 keys=[5,5,8,7,14,10,8,1,4,10,24,17,23,7,8,3,4,7,11,18,15,1,3,9,11,20,15,14,4,7,8,6,2,1]
stabilize: m=5142 l=16866 h=1959 keys=[5,5,8,7,14,10,8,1,4,10,27,24,24,7,8,3,4,7,11,18,15,9,4,9,11,20,15,14,4,7,8,6,2,1]
gets after churn found=260: m=6658 l=17066 h=2437 keys=[5,5,8,7,14,10,8,1,4,10,27,24,24,7,8,3,4,7,11,18,15,9,4,9,11,20,15,14,4,7,8,6,2,1]
entries: keys=110 values=160 hash=d1970c3a0446c6bc";

#[test]
fn chord_replicated() {
    check("chord r=3", chord(3), CHORD_REPLICATED);
}

const KADEMLIA_DEFAULT: &str = "\
puts: m=1600 l=200 h=200 keys=[3,5,3,4,3,2,1,4,11,13,15,0,2,7,1,2,4,10,10,2,3,2,5,6,7,9,3,5,4,0,2,2]
gets found=300: m=2000 l=200 h=200 keys=[3,5,3,4,3,2,1,4,11,13,15,0,2,7,1,2,4,10,10,2,3,2,5,6,7,9,3,5,4,0,2,2]
removes: m=2320 l=240 h=240 keys=[1,3,2,4,3,2,1,3,7,11,10,0,2,4,0,1,4,8,7,0,2,1,4,6,6,5,2,5,2,0,2,2]
spawns: m=2352 l=244 h=248 keys=[1,3,2,4,3,2,1,3,7,6,5,7,3,0,2,4,0,1,4,8,7,0,2,1,4,6,6,5,0,2,5,0,2,0,2,2]
kills: m=2352 l=244 h=248 keys=[1,3,2,4,3,2,1,3,7,6,7,3,0,2,4,0,1,4,8,7,0,1,4,6,6,5,0,2,5,0,2,0,2,2]
stabilize: m=2352 l=244 h=248 keys=[1,3,2,4,3,2,1,3,7,6,7,3,0,2,4,0,1,4,8,7,0,1,4,6,6,5,0,2,5,0,2,0,2,2]
gets after churn found=238: m=2752 l=244 h=248 keys=[1,3,2,4,3,2,1,3,7,6,7,3,0,2,4,0,1,4,8,7,0,1,4,6,6,5,0,2,5,0,2,0,2,2]
entries: keys=103 values=148 hash=00f3b23a3d01cadd";

#[test]
fn kademlia_default() {
    check("kademlia", kademlia(1), KADEMLIA_DEFAULT);
}

const KADEMLIA_REPLICATED: &str = "\
puts: m=1600 l=200 h=200 keys=[10,10,11,10,9,13,15,15,15,13,21,30,27,20,15,13,13,10,10,15,14,16,11,22,22,22,8,8,6,11,7,8]
gets found=300: m=2000 l=200 h=200 keys=[10,10,11,10,9,13,15,15,15,13,21,30,27,20,15,13,13,10,10,15,14,16,11,22,22,22,8,8,6,11,7,8]
removes: m=2320 l=240 h=240 keys=[5,6,8,7,9,10,13,10,10,11,14,23,17,16,11,9,11,8,7,9,9,9,8,17,17,17,7,7,4,9,6,6]
spawns: m=2352 l=244 h=248 keys=[5,6,8,7,9,10,13,10,10,11,11,12,12,10,11,14,11,9,11,8,7,9,9,9,8,17,17,17,7,7,7,2,3,5,4,4]
kills: m=2352 l=244 h=248 keys=[5,6,8,7,9,10,13,10,10,11,12,12,10,11,14,11,9,11,8,7,9,9,8,17,17,17,7,7,7,2,3,5,4,4]
stabilize: m=2352 l=244 h=248 keys=[5,6,8,7,9,10,13,10,10,11,14,14,15,13,14,11,9,11,8,7,13,11,11,17,17,17,7,7,7,2,3,5,4,4]
gets after churn found=260: m=2912 l=244 h=248 keys=[5,6,8,7,9,10,13,10,10,11,14,14,15,13,14,11,9,11,8,7,13,11,11,17,17,17,7,7,7,2,3,5,4,4]
entries: keys=110 values=160 hash=d1970c3a0446c6bc";

#[test]
fn kademlia_replicated() {
    check("kademlia w=3", kademlia(3), KADEMLIA_REPLICATED);
}

const PASTRY_DEFAULT: &str = "\
puts: m=902 l=200 h=251 keys=[3,4,4,6,3,1,0,2,10,11,20,4,1,3,3,3,6,8,8,1,0,3,5,7,9,9,0,6,6,0,0,4]
gets found=300: m=1802 l=400 h=501 keys=[3,4,4,6,3,1,0,2,10,11,20,4,1,3,3,3,6,8,8,1,0,3,5,7,9,9,0,6,6,0,0,4]
removes: m=1976 l=440 h=548 keys=[1,2,3,6,3,1,0,1,8,7,15,3,1,1,1,3,4,7,6,0,0,1,3,7,8,5,0,6,3,0,0,4]
spawns: m=1996 l=444 h=552 keys=[1,2,3,6,3,1,0,1,8,1,6,11,4,3,1,1,1,3,4,7,6,0,0,1,3,7,8,5,0,2,4,1,2,0,0,4]
kills: m=1996 l=444 h=552 keys=[1,2,3,6,3,1,0,1,8,1,11,4,3,1,1,1,3,4,7,6,0,1,3,7,8,5,0,2,4,1,2,0,0,4]
stabilize: m=1996 l=444 h=552 keys=[1,2,3,6,3,1,0,1,8,1,11,4,3,1,1,1,3,4,7,6,0,1,3,7,8,5,0,2,4,1,2,0,0,4]
gets after churn found=248: m=2946 l=644 h=827 keys=[1,2,3,6,3,1,0,1,8,1,11,4,3,1,1,1,3,4,7,6,0,1,3,7,8,5,0,2,4,1,2,0,0,4]
entries: keys=104 values=152 hash=000a9f18714f2fb9";

#[test]
fn pastry_default() {
    check("pastry", pastry(1), PASTRY_DEFAULT);
}

const PASTRY_REPLICATED: &str = "\
puts: m=902 l=200 h=251 keys=[9,9,12,11,10,8,8,16,21,22,27,28,25,10,9,11,16,14,16,12,12,9,17,18,22,18,16,11,9,7,10,7]
gets found=300: m=1802 l=400 h=501 keys=[9,9,12,11,10,8,8,16,21,22,27,28,25,10,9,11,16,14,16,12,12,9,17,18,22,18,16,11,9,7,10,7]
removes: m=1976 l=440 h=548 keys=[5,5,9,10,10,7,6,11,15,17,20,20,17,6,6,7,13,12,13,7,6,4,14,16,18,13,11,9,6,5,7,5]
spawns: m=1996 l=444 h=552 keys=[5,5,9,10,10,7,6,3,13,13,17,17,15,16,6,6,6,7,13,12,13,7,6,4,14,16,18,10,10,8,7,4,3,4,5,5]
kills: m=1996 l=444 h=552 keys=[5,5,9,10,10,7,6,3,13,13,17,15,16,6,6,6,7,13,12,13,7,4,14,16,18,10,10,8,7,4,3,4,5,5]
stabilize: m=1996 l=444 h=552 keys=[5,5,9,10,10,7,6,11,13,16,20,17,17,6,6,6,7,13,12,13,10,7,14,16,18,10,10,8,7,4,3,4,5,5]
gets after churn found=260: m=3106 l=644 h=827 keys=[5,5,9,10,10,7,6,11,13,16,20,17,17,6,6,6,7,13,12,13,10,7,14,16,18,10,10,8,7,4,3,4,5,5]
entries: keys=110 values=160 hash=d1970c3a0446c6bc";

#[test]
fn pastry_replicated() {
    check("pastry r=3", pastry(3), PASTRY_REPLICATED);
}
