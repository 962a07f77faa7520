//! Per-layer micro timings: each layer measured from outside, by timing
//! calls into its public functions on inputs taken from the workload.
//!
//! Every time is the quiet-pool mean (fastest fifth of [`BATCHES`]
//! batches) in nanoseconds per call. The inputs are the workload's own
//! queries, descriptors and keys, so a layer is timed on the data it
//! meets in the end-to-end run.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use p2p_index_core::{CachePolicy, IndexScheme, IndexTarget, ShortcutCache, SimpleScheme};
use p2p_index_dht::{placement, Dht, DhtOp, DhtResponse, Key, NodeId, RingDht, ShardedDht};
use p2p_index_net::wire::{decode_message, encode_message, Message};
use p2p_index_obs::MetricsRegistry;
use p2p_index_workload::Corpus;
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

use crate::metrics::Values;
use crate::stats::quiet_ns_per_call;
use crate::workload::{
    published_twin, start_cluster, Op, Script, MEMBERS, READ_QUORUM, REPLICAS, WRITE_QUORUM,
};

const BATCHES: usize = 25;
/// Distinct inputs per batch for the in-memory layers.
const INPUTS: usize = 512;
/// Calls per batch for the socket round trips (each costs tens of µs).
const RTT_CALLS: usize = 128;

fn timed(work: impl FnOnce()) -> u64 {
    let start = Instant::now();
    work();
    start.elapsed().as_nanos() as u64
}

/// Quiet nanoseconds per call of `call` over `inputs`, one pass per batch.
fn per_input<I, O>(inputs: &[I], mut call: impl FnMut(&I) -> O) -> f64 {
    quiet_ns_per_call(BATCHES, inputs.len() as u32, || {
        timed(|| {
            for input in inputs {
                black_box(call(black_box(input)));
            }
        })
    })
}

pub fn measure(script: &Script, v: &mut Values) -> Result<(), String> {
    let corpus = Corpus::generate(script.corpus_config.clone());
    let mut queries: Vec<(Query, Query)> = Vec::with_capacity(INPUTS);
    for (i, op) in script.ops.iter().enumerate() {
        let pair = match op {
            Op::Lookup { query, target } => (query.clone(), script.msds[*target as usize].clone()),
            Op::Search { query } => (query.clone(), script.msds[i % script.msds.len()].clone()),
            Op::Publish(_) | Op::Unpublish(_) => continue,
        };
        queries.push(pair);
        if queries.len() == INPUTS {
            break;
        }
    }
    let descriptors: Vec<Descriptor> = corpus.articles()[..INPUTS.min(corpus.len())]
        .iter()
        .map(|a| a.descriptor())
        .collect();
    let msds: Vec<Query> = descriptors.iter().map(Query::most_specific).collect();

    // xpath
    let texts: Vec<String> = queries
        .iter()
        .map(|(q, _)| q.canonical_text().to_string())
        .collect();
    v.set("xpath.parse_ns", per_input(&texts, |t| t.parse::<Query>()));
    v.set(
        "xpath.covers_ns",
        per_input(&queries, |(q, msd)| q.covers(msd)),
    );
    let mut generalizations = Vec::new();
    v.set(
        "xpath.generalize_ns",
        per_input(&queries, |(q, _)| {
            generalizations.clear();
            q.generalizations_into(&mut generalizations);
            generalizations.len()
        }),
    );
    v.set(
        "xpath.msd_ns",
        per_input(&descriptors, Query::most_specific),
    );

    // core
    let described: Vec<(&Descriptor, &Query)> = descriptors.iter().zip(&msds).collect();
    v.set(
        "core.scheme.edges_ns",
        per_input(&described, |(d, msd)| SimpleScheme.index_edges(d, msd)),
    );
    let edges: usize = described
        .iter()
        .map(|(d, msd)| SimpleScheme.index_edges(d, msd).len())
        .sum();
    v.set(
        "core.scheme.edges_per_article",
        edges as f64 / described.len() as f64,
    );
    let targets: Vec<IndexTarget> = msds.iter().cloned().map(IndexTarget::Query).collect();
    let mut buf = Vec::new();
    v.set(
        "core.target.encode_ns",
        per_input(&targets, |t| {
            buf.clear();
            t.encode_into(&mut buf);
            buf.len()
        }),
    );
    let encoded: Vec<Bytes> = targets.iter().map(IndexTarget::to_bytes).collect();
    v.set(
        "core.target.decode_ns",
        per_input(&encoded, |b| IndexTarget::from_bytes(b)),
    );
    let keyed: Vec<(Key, IndexTarget)> = texts
        .iter()
        .map(|t| Key::hash_of(t))
        .zip(targets.iter().cloned())
        .collect();
    let mut cache = ShortcutCache::for_policy(CachePolicy::Lru(30));
    v.set(
        "core.cache.insert_ns",
        per_input(&keyed, |(key, target)| cache.insert(*key, target.clone())),
    );
    v.set(
        "core.cache.get_ns",
        per_input(&keyed, |(key, _)| cache.get(key).map(<[_]>::len)),
    );

    // dht
    v.set("dht.key.hash_ns", per_input(&texts, |t| Key::hash_of(t)));
    let stored: Vec<(Key, Bytes)> = keyed
        .iter()
        .map(|(k, _)| *k)
        .zip(encoded.iter().cloned())
        .collect();
    let absent = Bytes::from_static(b"Q:/never-stored");
    let mut ring = RingDht::with_named_nodes(500);
    for (key, value) in &stored {
        ring.put(*key, value.clone());
    }
    v.set(
        "dht.ring.get_ns",
        per_input(&stored, |(k, _)| ring.execute(DhtOp::Get(*k))),
    );
    v.set(
        "dht.ring.put_ns",
        per_input(&stored, |(key, value)| {
            ring.execute(DhtOp::Put {
                key: *key,
                value: value.clone(),
            })
        }),
    );
    let sharded = ShardedDht::with_default_shards(NodeId::hash_of("node-0"));
    let put_all = |sharded: &ShardedDht| {
        for (key, value) in &stored {
            let _ = sharded.execute_shared(DhtOp::Put {
                key: *key,
                value: value.clone(),
            });
        }
    };
    put_all(&sharded);
    v.set(
        "dht.sharded.get_ns",
        per_input(&stored, |(k, _)| sharded.execute_shared(DhtOp::Get(*k))),
    );
    // Put and remove are timed on values that are absent and present
    // respectively, so each batch restores the store outside the clock.
    let remove_all = |sharded: &ShardedDht| {
        for (key, value) in &stored {
            let _ = sharded.execute_shared(DhtOp::Remove {
                key: *key,
                value: value.clone(),
            });
        }
    };
    v.set(
        "dht.sharded.put_ns",
        quiet_ns_per_call(BATCHES, stored.len() as u32, || {
            remove_all(&sharded);
            timed(|| put_all(&sharded))
        }),
    );
    v.set(
        "dht.sharded.remove_ns",
        quiet_ns_per_call(BATCHES, stored.len() as u32, || {
            put_all(&sharded);
            timed(|| remove_all(&sharded))
        }),
    );
    let ring_keys: Vec<Key> = {
        let mut keys: Vec<Key> = (0..MEMBERS)
            .map(|i| *NodeId::hash_of(&format!("node-{i}")).key())
            .collect();
        keys.sort_unstable();
        keys
    };
    v.set(
        "dht.placement.replica_keys_ns",
        per_input(&stored, |(k, _)| {
            placement::replica_keys(&ring_keys, k, REPLICAS)
        }),
    );
    stored_per_article(script, v)?;

    // net::wire — the four unary codec calls of one get, and the batched
    // pair a search wave pays (a 16-get `Batch`, its 16-list `BatchReply`).
    let values = |i: usize| DhtResponse::Values(encoded[i..(i + 4).min(encoded.len())].to_vec());
    let requests: Vec<Message> = stored
        .iter()
        .enumerate()
        .map(|(i, (k, _))| Message::Request {
            id: i as u64,
            op: DhtOp::Get(*k),
        })
        .collect();
    let responses: Vec<Message> = (0..stored.len())
        .map(|i| Message::Response {
            id: i as u64,
            result: Ok(values(i)),
        })
        .collect();
    let batches: Vec<Message> = stored
        .chunks(16)
        .enumerate()
        .map(|(i, chunk)| Message::Batch {
            id: i as u64,
            ops: chunk.iter().map(|(k, _)| DhtOp::Get(*k)).collect(),
        })
        .collect();
    let replies: Vec<Message> = (0..batches.len())
        .map(|i| Message::BatchReply {
            id: i as u64,
            results: (0..16).map(|j| Ok(values(i * 16 + j))).collect(),
        })
        .collect();
    let frames = |messages: &[Message]| -> Vec<Vec<u8>> {
        messages
            .iter()
            .map(|m| {
                let mut frame = Vec::new();
                encode_message(m, &mut frame);
                frame
            })
            .collect()
    };
    let mut frame = Vec::new();
    let mut encode = |m: &Message| {
        frame.clear();
        encode_message(m, &mut frame);
        frame.len()
    };
    let encode_request = per_input(&requests, &mut encode);
    let encode_response = per_input(&responses, &mut encode);
    v.set(
        "net.wire.encode_batch16_ns",
        per_input(&batches, &mut encode),
    );
    let decode = |f: &Vec<u8>| decode_message(f);
    let decode_request = per_input(&frames(&requests), decode);
    let decode_response = per_input(&frames(&responses), decode);
    v.set(
        "net.wire.decode_batch16_ns",
        per_input(&frames(&replies), decode),
    );
    v.set("net.wire.encode_request_ns", encode_request);
    v.set("net.wire.decode_request_ns", decode_request);
    v.set("net.wire.encode_response_ns", encode_response);
    v.set("net.wire.decode_response_ns", decode_response);

    // net::client round trips over loopback, on small warm clusters.
    let off = MetricsRegistry::disabled();
    let rtt_inputs = &stored[..RTT_CALLS.min(stored.len())];
    let started = |members, replicas, write_quorum, read_quorum| {
        let (mut client, guard) = start_cluster(members, replicas, write_quorum, read_quorum, &off)
            .map_err(|e| format!("micro cluster failed to start: {e}"))?;
        for (key, value) in rtt_inputs {
            if !client.put(*key, value.clone()) {
                return Err("micro cluster refused a put".to_string());
            }
        }
        Ok((client, guard))
    };
    let get_rtt = {
        let (mut solo, _guard) = started(1, 1, 1, 1)?;
        per_input(rtt_inputs, |(k, _)| solo.execute(DhtOp::Get(*k)))
    };
    v.set("net.client.get_rtt_ns", get_rtt);
    {
        let (mut client, _guard) = started(MEMBERS, REPLICAS, WRITE_QUORUM, READ_QUORUM)?;
        v.set(
            "net.client.get_quorum_rtt_ns",
            per_input(rtt_inputs, |(k, _)| client.execute(DhtOp::Get(*k))),
        );
        v.set(
            "net.client.put_quorum_rtt_ns",
            per_input(rtt_inputs, |(key, value)| {
                client.execute(DhtOp::Put {
                    key: *key,
                    value: value.clone(),
                })
            }),
        );
        v.set(
            "net.client.remove_quorum_rtt_ns",
            per_input(rtt_inputs, |(key, _)| {
                client.execute(DhtOp::Remove {
                    key: *key,
                    value: absent.clone(),
                })
            }),
        );
        let waves: Vec<Vec<DhtOp>> = rtt_inputs
            .chunks(16)
            .map(|chunk| chunk.iter().map(|(k, _)| DhtOp::Get(*k)).collect())
            .collect();
        v.set(
            "net.client.batch16_rtt_ns",
            per_input(&waves, |wave| client.execute_many(wave.clone())),
        );
    }
    // What is left of a unary get once both codecs and the shard read are
    // taken out: syscalls, loopback, and the server thread's wake-up.
    let codec = encode_request + decode_request + encode_response + decode_response;
    v.set(
        "net.transport.self_ns",
        get_rtt - codec - v.get("dht.sharded.get_ns").unwrap_or(0.0),
    );

    // obs
    let registry = MetricsRegistry::new();
    v.set(
        "obs.registry.incr_ns",
        per_input(&texts, |_| registry.incr("bench.counter")),
    );
    Ok(())
}

/// Bytes and values the index stores per published article, counted on an
/// in-process ring holding the workload's whole preloaded corpus.
fn stored_per_article(script: &Script, v: &mut Values) -> Result<(), String> {
    let twin = published_twin(script)?;
    let ring = twin.dht();
    let values: usize = ring
        .nodes()
        .iter()
        .filter_map(|node| ring.store_of(node))
        .map(|store| store.value_count())
        .sum();
    v.set(
        "dht.stored_bytes_per_article",
        ring.total_value_bytes() as f64 / script.preload as f64,
    );
    v.set(
        "dht.stored_values_per_article",
        values as f64 / script.preload as f64,
    );
    Ok(())
}
