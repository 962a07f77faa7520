//! Property tests for the per-node shortcut cache's LRU semantics.
//!
//! The cache is checked against a naive reference model (a flat vector
//! with explicit recency stamps) over arbitrary insert/get sequences:
//!
//! * the configured capacity is never exceeded, at any intermediate step;
//! * the most-recently-probed key survives any insert sequence shorter
//!   than the capacity;
//! * which key gets evicted is decided by recency alone, exactly as the
//!   reference model predicts.
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use p2p_index_core::{IndexTarget, ShortcutCache};
use p2p_index_dht::Key;
use p2p_index_testkit::{for_each_case, Rng, StdRng};

/// A small pool of distinct keys; indices into it make op sequences
/// collide often enough to exercise refresh/replace paths.
fn key(i: usize) -> Key {
    Key::hash_of(&format!("/article/k{i}"))
}

fn target(i: usize) -> IndexTarget {
    IndexTarget::File(format!("file-{i}.pdf").into())
}

/// One step of a cache workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize, usize),
    Get(usize),
}

/// The reference model: same replace-on-write, clock-stamped LRU
/// semantics as `ShortcutCache`, in the most obvious possible encoding.
struct ModelCache {
    cap: Option<usize>,
    clock: u64,
    slots: Vec<(Key, IndexTarget, u64)>,
}

impl ModelCache {
    fn new(cap: Option<usize>) -> Self {
        ModelCache {
            cap,
            clock: 0,
            slots: Vec::new(),
        }
    }

    fn insert(&mut self, k: Key, t: IndexTarget) {
        if self.cap == Some(0) {
            return;
        }
        self.clock += 1;
        if let Some(slot) = self.slots.iter_mut().find(|(sk, _, _)| *sk == k) {
            slot.2 = self.clock;
            slot.1 = t;
            return;
        }
        if let Some(cap) = self.cap {
            while self.slots.len() >= cap {
                let oldest = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, _, used))| *used)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.slots.remove(oldest);
            }
        }
        self.slots.push((k, t, self.clock));
    }

    fn get(&mut self, k: &Key) -> Option<&IndexTarget> {
        self.clock += 1;
        let clock = self.clock;
        self.slots
            .iter_mut()
            .find(|(sk, _, _)| sk == k)
            .map(|slot| {
                slot.2 = clock;
                &slot.1
            })
    }

    fn entries(&self) -> impl Iterator<Item = (&Key, &IndexTarget)> {
        self.slots.iter().map(|(k, t, _)| (k, t))
    }
}

/// Applies `ops` to both the real cache and the model, checking the
/// capacity bound and model agreement after every step.
fn run_against_model(cap: usize, ops: &[Op]) {
    let mut cache = ShortcutCache::with_capacity(cap);
    let mut model = ModelCache::new(Some(cap));
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, t) => {
                cache.insert(key(k), target(t));
                model.insert(key(k), target(t));
            }
            Op::Get(k) => {
                let modeled = model.get(&key(k)).map(std::slice::from_ref);
                assert_eq!(
                    cache.get(&key(k)),
                    modeled,
                    "step {step}: get({k}) disagrees"
                );
            }
        }
        assert!(
            cache.len() <= cap,
            "step {step}: capacity exceeded ({} > {cap})",
            cache.len()
        );
        assert_eq!(cache.len(), model.slots.len(), "step {step}: size");
        for (k, t) in model.entries() {
            assert_eq!(
                cache.peek(k),
                Some(t),
                "step {step}: model entry missing from cache"
            );
        }
    }
}

/// An op sequence as long as a uniform draw from `len` says: inserts and
/// gets, equally likely, over an 8-key pool.
fn arb_ops(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<Op> {
    (0..rng.gen_range(len))
        .map(|_| {
            let k = rng.gen_range(0..8usize);
            if rng.gen() {
                Op::Insert(k, rng.gen_range(0..4usize))
            } else {
                Op::Get(k)
            }
        })
        .collect()
}

/// At no intermediate step does the cache hold more keys than its
/// capacity, and it always agrees with the reference model.
#[test]
fn capacity_never_exceeded() {
    for_each_case(|rng| {
        let cap = rng.gen_range(1..6usize);
        run_against_model(cap, &arb_ops(rng, 0..201));
    });
}

/// After probing a key, fewer-than-capacity fresh inserts can never
/// evict it: the probe made it the most recently used.
#[test]
fn most_recently_probed_key_survives() {
    for_each_case(|rng| {
        let cap = rng.gen_range(2..6usize);
        let mut cache = ShortcutCache::with_capacity(cap);
        for op in arb_ops(rng, 0..61) {
            match op {
                Op::Insert(k, t) => {
                    cache.insert(key(k), target(t));
                }
                Op::Get(k) => {
                    cache.get(&key(k));
                }
            }
        }
        // Probe key 0 (inserting it first if the workload evicted it),
        // then add up to cap-1 fresh keys: the probe refreshed key 0's
        // recency, so everything evicted must be someone else.
        cache.insert(key(0), target(0));
        cache.get(&key(0));
        for fresh in 100..(100 + cap - 1) {
            cache.insert(key(fresh), target(1));
        }
        assert_eq!(cache.peek(&key(0)), Some(&target(0)), "cap {cap}");
    });
}

/// Unbounded caches accept everything and never evict.
#[test]
fn unbounded_cache_never_evicts() {
    for_each_case(|rng| {
        let mut cache = ShortcutCache::new();
        let mut model = ModelCache::new(None);
        for op in arb_ops(rng, 0..60) {
            match op {
                Op::Insert(k, t) => {
                    cache.insert(key(k), target(t));
                    model.insert(key(k), target(t));
                }
                Op::Get(k) => {
                    cache.get(&key(k));
                    model.get(&key(k));
                }
            }
        }
        assert_eq!(cache.len(), model.slots.len());
        for (k, t) in model.entries() {
            assert_eq!(cache.peek(k), Some(t));
        }
    });
}

#[test]
fn eviction_order_matches_recency() {
    // Insert a..d into a cap-3 cache with interleaved probes; evictions
    // must strike in exactly the recency order the model predicts.
    let mut cache = ShortcutCache::with_capacity(3);
    cache.insert(key(1), target(1));
    cache.insert(key(2), target(2));
    cache.insert(key(3), target(3));
    cache.get(&key(1)); // recency now: 2 < 3 < 1
    cache.insert(key(4), target(4)); // evicts 2
    assert_eq!(cache.peek(&key(2)), None);
    assert_eq!(cache.peek(&key(3)), Some(&target(3)));
    cache.get(&key(3)); // recency now: 1 < 4 < 3
    cache.insert(key(5), target(5)); // evicts 1
    assert_eq!(cache.peek(&key(1)), None);
    assert_eq!(cache.peek(&key(4)), Some(&target(4)));
    assert_eq!(cache.peek(&key(3)), Some(&target(3)));
    assert_eq!(cache.peek(&key(5)), Some(&target(5)));
}
