//! Property tests for the wire codec.
//!
//! Two families:
//!
//! * **Roundtrip** — every [`Message`] (all `DhtOp` / `DhtResponse` /
//!   `DhtError` variants, arbitrary ids, keys, and values) survives
//!   encode → decode byte-exactly, and the decoder consumes exactly the
//!   encoded length.
//! * **Rejection** — no input makes the decoder panic: arbitrary byte
//!   soup, truncated frames at every cut point, oversized length
//!   prefixes, and wrong versions all come back as typed [`WireError`]s.
//!
//! * **Mutation** — real frames of every variant, damaged the ways a
//!   broken peer or a flipped bit damages them (flip a byte, truncate,
//!   extend, splice a length field), either fail typed or decode to a
//!   message that re-encodes to exactly the bytes consumed.
//! * **Ownership** — decoded values share one copy of their frame, never
//!   the caller's buffer: they outlive it being overwritten and dropped.
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use bytes::Bytes;
use p2p_index_dht::{
    BucketSnapshot, DhtError, DhtOp, DhtResponse, Key, NodeId, SplitMix64, REPAIR_BUCKETS,
};
use p2p_index_net::wire::{
    decode_message, encode_message, encode_to_vec, read_message_with, HEADER_LEN, MAX_PAYLOAD,
};
use p2p_index_net::{Message, WireError, VERSION};
use p2p_index_testkit::{bytes, digest, for_each_case, Rng};

/// Number of distinct shapes `rng_message` cycles through.
const VARIANTS: usize = 24;

fn rng_key(rng: &mut SplitMix64) -> Key {
    let mut digest = [0u8; 20];
    for chunk in digest.chunks_mut(8) {
        let word = rng.next_u64().to_be_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    Key::from_digest(digest)
}

fn rng_value(rng: &mut SplitMix64) -> Bytes {
    let len = (rng.next_u64() % 50) as usize;
    Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

fn rng_op(rng: &mut SplitMix64, variant: usize) -> DhtOp {
    match variant % 4 {
        0 => DhtOp::NodeFor(rng_key(rng)),
        1 => DhtOp::Put {
            key: rng_key(rng),
            value: rng_value(rng),
        },
        2 => DhtOp::Get(rng_key(rng)),
        _ => DhtOp::Remove {
            key: rng_key(rng),
            value: rng_value(rng),
        },
    }
}

fn rng_conditional(rng: &mut SplitMix64) -> DhtOp {
    DhtOp::GetIfChanged {
        key: rng_key(rng),
        seen: (rng.next_u64() as u32, rng.next_u64()),
    }
}

fn rng_digest(rng: &mut SplitMix64) -> DhtResponse {
    DhtResponse::Digest {
        count: rng.next_u64() as u32,
        sum: rng.next_u64(),
    }
}

fn rng_result(rng: &mut SplitMix64, variant: usize) -> Result<DhtResponse, DhtError> {
    match variant % 8 {
        0 => Ok(DhtResponse::Node(NodeId::from_key(rng_key(rng)))),
        1 => Ok(DhtResponse::Stored(rng.next_u64().is_multiple_of(2))),
        2 => Ok(DhtResponse::Values(
            (0..rng.next_u64() % 5).map(|_| rng_value(rng)).collect(),
        )),
        3 => Ok(DhtResponse::Removed(rng.next_u64().is_multiple_of(2))),
        4 => Err(DhtError::Timeout),
        5 => Err(DhtError::NoLiveNodes),
        6 => Err(DhtError::StorageFull),
        _ => Err(DhtError::from_wire_code(rng.next_u64() as u16)),
    }
}

/// One to three `(key, values)` entries of one to three values each.
fn rng_entries(rng: &mut SplitMix64) -> Vec<(Key, Vec<Bytes>)> {
    (0..1 + rng.next_u64() % 3)
        .map(|_| {
            let key = rng_key(rng);
            let values = (0..1 + rng.next_u64() % 3).map(|_| rng_value(rng));
            (key, values.collect())
        })
        .collect()
}

/// A message cycling through every variant, with rng-derived contents.
fn rng_message(rng: &mut SplitMix64, variant: usize) -> Message {
    let id = rng.next_u64();
    match variant % VARIANTS {
        0 => Message::Request {
            id,
            op: DhtOp::NodeFor(rng_key(rng)),
        },
        1 => Message::Request {
            id,
            op: DhtOp::Put {
                key: rng_key(rng),
                value: rng_value(rng),
            },
        },
        2 => Message::Request {
            id,
            op: DhtOp::Get(rng_key(rng)),
        },
        3 => Message::Request {
            id,
            op: DhtOp::Remove {
                key: rng_key(rng),
                value: rng_value(rng),
            },
        },
        4 => Message::Response {
            id,
            result: Ok(DhtResponse::Node(NodeId::from_key(rng_key(rng)))),
        },
        5 => Message::Response {
            id,
            result: Ok(DhtResponse::Stored(rng.next_u64().is_multiple_of(2))),
        },
        6 => Message::Response {
            id,
            result: Ok(DhtResponse::Values(
                (0..rng.next_u64() % 5).map(|_| rng_value(rng)).collect(),
            )),
        },
        7 => Message::Response {
            id,
            result: Ok(DhtResponse::Removed(rng.next_u64().is_multiple_of(2))),
        },
        8 => Message::Response {
            id,
            result: Err(DhtError::Timeout),
        },
        9 => Message::Response {
            id,
            result: Err(DhtError::NoLiveNodes),
        },
        10 => Message::Response {
            id,
            result: Err(DhtError::StorageFull),
        },
        11 => Message::Response {
            id,
            result: Err(DhtError::from_wire_code(rng.next_u64() as u16)),
        },
        12 => Message::Batch {
            id,
            ops: (0..1 + (rng.next_u64() % 4) as usize)
                .map(|i| rng_op(rng, variant + i))
                .collect(),
        },
        13 => Message::BatchReply {
            id,
            results: (0..1 + (rng.next_u64() % 4) as usize)
                .map(|i| rng_result(rng, variant + i))
                .collect(),
        },
        // A repair push: live entries only, dead only, or both.
        14 | 15 => {
            let shape = rng.next_u64() % 3;
            let live = match shape {
                1 => Vec::new(),
                _ => rng_entries(rng),
            };
            let dead = match shape {
                0 => Vec::new(),
                _ => rng_entries(rng),
            };
            let snapshot = BucketSnapshot { live, dead };
            Message::Transfer { id, snapshot }
        }
        16 => Message::Digest {
            id,
            from: rng_key(rng),
            buckets: std::array::from_fn(|_| rng.next_u64()),
        },
        17 => Message::DigestReply {
            id,
            differs: rng.next_u64() as u16,
        },
        18 => Message::Request {
            id,
            op: DhtOp::GetDigest(rng_key(rng)),
        },
        19 => Message::Response {
            id,
            result: Ok(rng_digest(rng)),
        },
        // A quorum read wave as one member sees it: full, digest and
        // conditional gets mixed, at least one of them a digest.
        20 => Message::Batch {
            id,
            ops: (0..2 + rng.next_u64() % 4)
                .map(|i| match (i == 0, rng.next_u64() % 3) {
                    (true, _) | (false, 0) => DhtOp::GetDigest(rng_key(rng)),
                    (false, 1) => rng_conditional(rng),
                    (false, _) => DhtOp::Get(rng_key(rng)),
                })
                .collect(),
        },
        21 => Message::BatchReply {
            id,
            results: (0..2 + rng.next_u64() % 4)
                .map(|i| match i == 0 || rng.next_u64().is_multiple_of(2) {
                    true => Ok(rng_digest(rng)),
                    false => rng_result(rng, 2 + i as usize),
                })
                .collect(),
        },
        22 => Message::Request {
            id,
            op: rng_conditional(rng),
        },
        _ => Message::Shutdown,
    }
}

fn assert_roundtrip(msg: &Message) {
    let buf = encode_to_vec(msg);
    let (decoded, consumed) = decode_message(&buf).expect("encoded frame must decode");
    assert_eq!(&decoded, msg);
    assert_eq!(consumed, buf.len(), "decoder must consume the whole frame");
}

/// Feeding any byte slice to the decoder must return, never panic.
fn assert_total(buf: &[u8]) {
    let _ = decode_message(buf);
}

/// Damages `frame` one way, chosen by `rng`: flip a byte, truncate,
/// extend with noise, or splice a chosen `u32` over any four bytes (which
/// is what a corrupt length or count field looks like).
fn mutate(frame: &mut Vec<u8>, rng: &mut SplitMix64) {
    let pick = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    match rng.next_u64() % 4 {
        0 if !frame.is_empty() => {
            let at = pick(rng, frame.len());
            frame[at] ^= 1 << (rng.next_u64() % 8);
        }
        1 => frame.truncate(pick(rng, frame.len() + 1)),
        2 => {
            for _ in 0..1 + pick(rng, 24) {
                frame.push(rng.next_u64() as u8);
            }
        }
        _ if frame.len() >= 4 => {
            let at = pick(rng, frame.len() - 3);
            let old = u32::from_be_bytes(frame[at..at + 4].try_into().unwrap());
            let spliced = match rng.next_u64() % 6 {
                0 => 0,
                1 => old.wrapping_add(1),
                2 => old.wrapping_sub(1),
                3 => u32::MAX,
                4 => MAX_PAYLOAD + 1,
                _ => rng.next_u64() as u32,
            };
            frame[at..at + 4].copy_from_slice(&spliced.to_be_bytes());
        }
        _ => {}
    }
}

/// The decoder's whole contract on arbitrary bytes: it returns (never
/// panics); a failure is a [`WireError`] that renders; a success consumed
/// a prefix that is *the* encoding of the message it produced. One header
/// field is deliberately not carried by a [`Message`] and so is exempt: a
/// shutdown frame's request id.
fn assert_decodes_exactly_or_fails_typed(buf: &[u8]) {
    match decode_message(buf) {
        Ok((msg, consumed)) => {
            assert!(consumed <= buf.len());
            let mut canonical = buf[..consumed].to_vec();
            let reencoded = encode_to_vec(&msg);
            assert_eq!(reencoded.len(), consumed, "{msg:?}");
            if msg == Message::Shutdown {
                canonical[6..14].fill(0);
            }
            assert_eq!(reencoded, canonical, "{msg:?}");
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

/// Real frames of every variant, clean and damaged by up to three
/// mutations, decode exactly or fail typed — never panic, never a message
/// that is not its bytes.
#[test]
fn mutated_frames_decode_exactly_or_fail_typed() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        for variant in 0..VARIANTS {
            let clean = encode_to_vec(&rng_message(&mut mix, variant));
            assert_decodes_exactly_or_fails_typed(&clean);
            for mutations in 1..4 {
                let mut frame = clean.clone();
                for _ in 0..mutations {
                    mutate(&mut frame, &mut mix);
                }
                assert_decodes_exactly_or_fails_typed(&frame);
            }
        }
    });
}

#[test]
fn every_length_field_splice_is_rejected_or_exact() {
    // Exhaustive over positions rather than sampled: every 4-byte window
    // of every variant's frame, overwritten with each interesting value.
    let mut rng = SplitMix64::new(0x5911ce);
    for variant in 0..VARIANTS {
        let clean = encode_to_vec(&rng_message(&mut rng, variant));
        for at in 0..clean.len().saturating_sub(3) {
            let old = u32::from_be_bytes(clean[at..at + 4].try_into().unwrap());
            for spliced in [0, 1, old.wrapping_add(1), old.wrapping_sub(1), u32::MAX] {
                let mut frame = clean.clone();
                frame[at..at + 4].copy_from_slice(&spliced.to_be_bytes());
                assert_decodes_exactly_or_fails_typed(&frame);
            }
        }
    }
}

/// Every value a message carries, in encounter order.
fn values_of(msg: &Message) -> Vec<Bytes> {
    fn of_op(op: &DhtOp) -> Vec<Bytes> {
        match op {
            DhtOp::Put { value, .. } | DhtOp::Remove { value, .. } => vec![value.clone()],
            DhtOp::NodeFor(_)
            | DhtOp::Get(_)
            | DhtOp::GetDigest(_)
            | DhtOp::GetIfChanged { .. } => Vec::new(),
        }
    }
    fn of_result(result: &Result<DhtResponse, DhtError>) -> Vec<Bytes> {
        match result {
            Ok(DhtResponse::Values(values)) => values.clone(),
            _ => Vec::new(),
        }
    }
    match msg {
        Message::Request { op, .. } => of_op(op),
        Message::Response { result, .. } => of_result(result),
        Message::Batch { ops, .. } => ops.iter().flat_map(of_op).collect(),
        Message::BatchReply { results, .. } => results.iter().flat_map(of_result).collect(),
        Message::Transfer { snapshot, .. } => {
            let entries = snapshot.live.iter().chain(&snapshot.dead);
            entries.flat_map(|(_, vs)| vs.clone()).collect()
        }
        Message::Digest { .. } | Message::DigestReply { .. } | Message::Shutdown => Vec::new(),
    }
}

#[test]
fn decoded_values_outlive_the_buffer_they_were_decoded_from() {
    let mut rng = SplitMix64::new(0x0b5e55ed);
    for variant in 0..VARIANTS * 20 {
        let msg = rng_message(&mut rng, variant);
        let mut frame = encode_to_vec(&msg);
        let (decoded, _) = decode_message(&frame).expect("encoded frame must decode");
        // Overwrite, then free, the bytes the values were decoded from.
        frame.fill(0xee);
        drop(frame);
        assert_eq!(values_of(&decoded), values_of(&msg), "variant {variant}");
        assert_eq!(decoded, msg);
    }
}

#[test]
fn decoded_values_survive_the_read_scratch_being_reused() {
    // The streaming reader stages every payload in one caller-owned
    // scratch. A second frame read through the same scratch overwrites
    // the first frame's bytes; the first frame's values must not notice.
    let many: Vec<Bytes> = (0..40)
        .map(|i| Bytes::from(format!("Q:/article/conf/c{i}").into_bytes()))
        .collect();
    let first = Message::Response {
        id: 1,
        result: Ok(DhtResponse::Values(many.clone())),
    };
    let second = Message::Transfer {
        id: 2,
        snapshot: BucketSnapshot {
            live: vec![(Key::hash_of("k"), vec![Bytes::from(vec![0x55u8; 4096])])],
            dead: Vec::new(),
        },
    };
    let mut stream = Vec::new();
    encode_message(&first, &mut stream);
    encode_message(&second, &mut stream);
    let mut cursor = std::io::Cursor::new(stream);
    let mut scratch = Vec::new();
    let (got_first, _) = read_message_with(&mut cursor, &mut scratch).unwrap();
    let (got_second, _) = read_message_with(&mut cursor, &mut scratch).unwrap();
    scratch.fill(0);
    drop(scratch);
    assert_eq!(got_second, second);
    assert_eq!(got_first, first);
    // One frame, one buffer: neighbouring values are neighbours in memory
    // (each is preceded by its own 4-byte length prefix).
    let values = values_of(&got_first);
    for pair in values.windows(2) {
        let end_of_left = pair[0].as_ptr() as usize + pair[0].len();
        assert_eq!(pair[1].as_ptr() as usize, end_of_left + 4);
    }
}

/// Every request roundtrips for arbitrary ids, keys, and values.
#[test]
fn requests_roundtrip() {
    for_each_case(|rng| {
        let key = Key::from_digest(digest(rng));
        let value = Bytes::from(bytes(rng, 0..200));
        let op = match rng.gen_range(0..6usize) {
            0 => DhtOp::NodeFor(key),
            1 => DhtOp::Put { key, value },
            2 => DhtOp::Get(key),
            3 => DhtOp::GetDigest(key),
            4 => DhtOp::GetIfChanged {
                key,
                seen: (rng.gen(), rng.gen()),
            },
            _ => DhtOp::Remove { key, value },
        };
        assert_roundtrip(&Message::Request { id: rng.gen(), op });
    });
}

/// Every response roundtrips, including multi-value payloads and
/// arbitrary (known or unknown) error codes.
#[test]
fn responses_roundtrip() {
    for_each_case(|rng| {
        let result = match rng.gen_range(0..6usize) {
            0 => Ok(DhtResponse::Node(NodeId::from_key(Key::from_digest(
                digest(rng),
            )))),
            1 => Ok(DhtResponse::Stored(rng.gen())),
            2 => Ok(DhtResponse::Values(
                (0..rng.gen_range(0..8usize))
                    .map(|_| Bytes::from(bytes(rng, 0..50)))
                    .collect(),
            )),
            3 => Ok(DhtResponse::Removed(rng.gen())),
            4 => Ok(DhtResponse::Digest {
                count: rng.gen(),
                sum: rng.gen(),
            }),
            _ => Err(DhtError::from_wire_code(rng.gen_range(0..=u16::MAX))),
        };
        assert_roundtrip(&Message::Response {
            id: rng.gen(),
            result,
        });
    });
}

/// Batches and batch replies of arbitrary mixed contents roundtrip.
#[test]
fn batches_roundtrip() {
    for_each_case(|rng| {
        let (id, count) = (rng.gen(), rng.gen_range(1..6usize));
        let mut mix = SplitMix64::new(rng.gen());
        let ops: Vec<DhtOp> = (0..count).map(|i| rng_op(&mut mix, i)).collect();
        assert_roundtrip(&Message::Batch { id, ops });
        let results: Vec<Result<DhtResponse, DhtError>> =
            (0..count).map(|i| rng_result(&mut mix, i)).collect();
        assert_roundtrip(&Message::BatchReply { id, results });
    });
}

/// Every variant roundtrips — replication and shutdown frames included,
/// which the three properties above do not build.
#[test]
fn every_variant_roundtrips() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        for variant in 0..VARIANTS {
            assert_roundtrip(&rng_message(&mut mix, variant));
        }
    });
}

/// The decoder is total: arbitrary byte soup never panics.
#[test]
fn decoder_is_total_on_garbage() {
    for_each_case(|rng| {
        for _ in 0..8 {
            assert_total(&bytes(rng, 0..256));
        }
    });
}

#[test]
fn decoder_is_total_on_corrupted_valid_frames() {
    // Start from real frames and flip one byte at a time: every mutation
    // must decode to something or fail typed, never panic.
    let mut rng = SplitMix64::new(0xc0de);
    for variant in 0..VARIANTS {
        let buf = encode_to_vec(&rng_message(&mut rng, variant));
        for at in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[at] ^= 0x41;
            assert_total(&corrupted);
        }
    }
}

/// Any prefix of any valid frame is Truncated — there is no cut point
/// that yields a different error or a phantom message.
#[test]
fn every_prefix_is_truncated() {
    for_each_case(|rng| {
        let mut mix = SplitMix64::new(rng.gen());
        for variant in 0..VARIANTS {
            let buf = encode_to_vec(&rng_message(&mut mix, variant));
            for cut in 0..buf.len() {
                assert_eq!(
                    decode_message(&buf[..cut]),
                    Err(WireError::Truncated),
                    "variant {variant}, prefix of {cut} bytes"
                );
            }
        }
    });
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // A header whose length field claims gigabytes must fail fast on the
    // prefix alone — the payload is never read, let alone allocated.
    let mut frame = encode_to_vec(&Message::Shutdown);
    for claimed in [MAX_PAYLOAD + 1, u32::MAX / 2, u32::MAX] {
        frame[14..18].copy_from_slice(&claimed.to_be_bytes());
        assert_eq!(decode_message(&frame), Err(WireError::Oversized(claimed)));
    }
}

#[test]
fn every_foreign_version_is_rejected() {
    // Every frame of every kind carries the one version; the 255 other
    // bytes — 0x08, the version before one-frame repair pushes, among
    // them — are refused on the header alone, whatever the kind.
    assert_eq!(VERSION, 0x09);
    let mut rng = SplitMix64::new(0xd19e57);
    for variant in 0..VARIANTS {
        let good = encode_to_vec(&rng_message(&mut rng, variant));
        assert_eq!(good[4], VERSION, "variant {variant}");
        let mut previous = good.clone();
        previous[4] = 0x08;
        assert_eq!(
            decode_message(&previous),
            Err(WireError::UnsupportedVersion(0x08)),
            "variant {variant}"
        );
        for version in (0..=u8::MAX).filter(|&byte| byte != VERSION) {
            let mut frame = good.clone();
            frame[4] = version;
            assert_eq!(
                decode_message(&frame),
                Err(WireError::UnsupportedVersion(version)),
                "variant {variant}"
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    // A frame whose payload outlives its message is corrupt, not padded.
    let mut rng = SplitMix64::new(11);
    for variant in 0..VARIANTS {
        let mut buf = encode_to_vec(&rng_message(&mut rng, variant));
        buf.push(0);
        let len = u32::from_be_bytes(buf[14..18].try_into().unwrap()) + 1;
        buf[14..18].copy_from_slice(&len.to_be_bytes());
        assert_eq!(decode_message(&buf), Err(WireError::TrailingBytes(1)));
    }
}

#[test]
fn unknown_error_codes_decode_as_catch_all_not_failure() {
    for code in [4u16, 100, u16::MAX] {
        let msg = Message::Response {
            id: 1,
            result: Err(DhtError::from_wire_code(code)),
        };
        let buf = encode_to_vec(&msg);
        let (decoded, _) = decode_message(&buf).expect("unknown codes are data, not errors");
        assert_eq!(
            decoded,
            Message::Response {
                id: 1,
                result: Err(DhtError::Unknown(code)),
            }
        );
    }
}

/// Hand-assembles a frame with the given header fields and payload.
fn raw_frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(b"PDHT");
    frame.push(VERSION);
    frame.push(kind);
    frame.extend_from_slice(&id.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn empty_batches_are_rejected() {
    // count == 0 is not a no-op, it's a protocol violation: a frame
    // carrying no work should never have been sent — a batch or its reply.
    for kind in [0x05u8, 0x06] {
        let frame = raw_frame(kind, 7, &0u32.to_be_bytes());
        assert!(
            matches!(decode_message(&frame), Err(WireError::BadPayload(_))),
            "kind 0x{kind:02x}"
        );
    }
}

#[test]
fn oversized_batch_count_is_rejected_before_allocation() {
    // A batch (or its reply) claiming u32::MAX ops in a 4-byte payload
    // must fail on arithmetic alone — Vec::with_capacity never sees
    // attacker numbers. So must a count one op more than its payload can
    // hold.
    for kind in [0x05u8, 0x06] {
        let frame = raw_frame(kind, 7, &u32::MAX.to_be_bytes());
        assert_eq!(
            decode_message(&frame),
            Err(WireError::Truncated),
            "kind 0x{kind:02x}"
        );
    }
    let mut payload = 3u32.to_be_bytes().to_vec();
    for i in 0..2 {
        payload.push(0x03); // opcode: get
        payload.extend_from_slice(Key::hash_of(&format!("k{i}")).as_bytes());
    }
    assert_eq!(
        decode_message(&raw_frame(0x05, 7, &payload)),
        Err(WireError::Truncated)
    );
    payload[..4].copy_from_slice(&2u32.to_be_bytes());
    assert!(decode_message(&raw_frame(0x05, 7, &payload)).is_ok());
}

#[test]
fn the_retired_replicate_kind_is_unknown() {
    // Kind 0x07 carried repair scrubs up to version 8; a repair push is
    // one transfer now, and 0x07 is no kind at all — whatever it carries,
    // a well-formed batch payload included.
    let mut payload = 1u32.to_be_bytes().to_vec();
    payload.push(0x04); // opcode: remove
    payload.extend_from_slice(Key::hash_of("k").as_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'v');
    assert!(decode_message(&raw_frame(0x05, 7, &payload)).is_ok());
    for payload in [&payload[..], &[]] {
        assert_eq!(
            decode_message(&raw_frame(0x07, 7, payload)),
            Err(WireError::UnknownKind(0x07))
        );
    }
}

#[test]
fn empty_transfers_are_rejected() {
    // Like empty batches: a transfer carrying neither live nor dead
    // entries, or an entry in either list carrying no values, is a
    // protocol violation — not a no-op.
    let frame = raw_frame(0x08, 7, &[0; 8]);
    assert!(matches!(
        decode_message(&frame),
        Err(WireError::BadPayload(_))
    ));
    let mut valueless = 1u32.to_be_bytes().to_vec();
    valueless.extend_from_slice(Key::hash_of("k").as_bytes());
    valueless.extend_from_slice(&0u32.to_be_bytes());
    let empty = 0u32.to_be_bytes();
    for payload in [
        [&valueless[..], &empty].concat(),
        [&empty[..], &valueless].concat(),
    ] {
        let frame = raw_frame(0x08, 7, &payload);
        assert!(matches!(
            decode_message(&frame),
            Err(WireError::BadPayload(_))
        ));
    }
}

#[test]
fn oversized_transfer_counts_are_rejected_before_allocation() {
    // Entry and value counts claiming more than the payload can hold must
    // fail on arithmetic alone, like oversized batch counts — in the live
    // list and in the dead one.
    let absurd = u32::MAX.to_be_bytes();
    let mut entry = 1u32.to_be_bytes().to_vec();
    entry.extend_from_slice(Key::hash_of("k").as_bytes());
    entry.extend_from_slice(&absurd);
    let empty = 0u32.to_be_bytes();
    for payload in [
        absurd.to_vec(),
        [&empty[..], &absurd].concat(),
        entry.clone(),
        [&empty[..], &entry].concat(),
    ] {
        let frame = raw_frame(0x08, 7, &payload);
        assert_eq!(decode_message(&frame), Err(WireError::Truncated));
    }
}

#[test]
fn golden_digest_read_frame_layouts_are_pinned() {
    // Byte-for-byte layout of the digest-read forms: a unary digest
    // request and its answer, a batch mixing a full and a digest get, and
    // the reply mixing a value list and a digest.
    assert_eq!(VERSION, 0x09, "the header byte every golden frame carries");
    let (full, vouch) = (Key::hash_of("full"), Key::hash_of("vouch"));
    let mut payload = vec![0x05]; // opcode: get-digest
    payload.extend_from_slice(vouch.as_bytes());
    assert_eq!(
        encode_to_vec(&Message::Request {
            id: 7,
            op: DhtOp::GetDigest(vouch),
        }),
        raw_frame(0x01, 7, &payload)
    );
    let mut payload = vec![0x05]; // tag: digest
    payload.extend_from_slice(&3u32.to_be_bytes());
    payload.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
    assert_eq!(
        encode_to_vec(&Message::Response {
            id: 7,
            result: Ok(DhtResponse::Digest {
                count: 3,
                sum: 0x0102_0304_0506_0708,
            }),
        }),
        raw_frame(0x02, 7, &payload)
    );

    let mut payload = 2u32.to_be_bytes().to_vec();
    payload.push(0x03); // opcode: get
    payload.extend_from_slice(full.as_bytes());
    payload.push(0x05); // opcode: get-digest
    payload.extend_from_slice(vouch.as_bytes());
    assert_eq!(
        encode_to_vec(&Message::Batch {
            id: 8,
            ops: vec![DhtOp::Get(full), DhtOp::GetDigest(vouch)],
        }),
        raw_frame(0x05, 8, &payload)
    );

    let mut payload = 2u32.to_be_bytes().to_vec();
    payload.extend_from_slice(&[0x00, 0x03]); // ok, tag: values
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&2u32.to_be_bytes());
    payload.extend_from_slice(b"hi");
    payload.extend_from_slice(&[0x00, 0x05]); // ok, tag: digest
    payload.extend_from_slice(&3u32.to_be_bytes());
    payload.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
    assert_eq!(
        encode_to_vec(&Message::BatchReply {
            id: 8,
            results: vec![
                Ok(DhtResponse::Values(vec![Bytes::from_static(b"hi")])),
                Ok(DhtResponse::Digest {
                    count: 3,
                    sum: 0x0102_0304_0506_0708,
                }),
            ],
        }),
        raw_frame(0x06, 8, &payload)
    );
}

#[test]
fn golden_conditional_read_frame_layout_is_pinned() {
    // Byte-for-byte layout of a conditional read: opcode 0x06, the key,
    // then the digest the caller holds — its count and its sum. Its
    // answer is an ordinary digest or value list (pinned above).
    assert_eq!(VERSION, 0x09, "the header byte every golden frame carries");
    let key = Key::hash_of("held");
    let op = DhtOp::GetIfChanged {
        key,
        seen: (3, 0x0102_0304_0506_0708),
    };
    let mut payload = vec![0x06]; // opcode: get-if-changed
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(&3u32.to_be_bytes());
    payload.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
    assert_eq!(
        encode_to_vec(&Message::Request { id: 7, op }),
        raw_frame(0x01, 7, &payload)
    );
}

#[test]
fn golden_frames_of_the_remaining_kinds_are_pinned() {
    // The kinds no other golden covers: err-response, transfer, shutdown.
    assert_eq!(
        encode_to_vec(&Message::Response {
            id: 5,
            result: Err(DhtError::StorageFull),
        }),
        raw_frame(0x03, 5, &[0x00, 0x03])
    );
    // A transfer that only scrubs: no live entry, then one dead one.
    let key = Key::hash_of("k");
    let mut payload = 0u32.to_be_bytes().to_vec(); // no live entry
    payload.extend_from_slice(&1u32.to_be_bytes()); // one dead entry
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes()); // one value
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'v');
    let snapshot = BucketSnapshot {
        live: Vec::new(),
        dead: vec![(key, vec![Bytes::from_static(b"v")])],
    };
    assert_eq!(
        encode_to_vec(&Message::Transfer { id: 9, snapshot }),
        raw_frame(0x08, 9, &payload)
    );
    assert_eq!(encode_to_vec(&Message::Shutdown), raw_frame(0x04, 0, &[]));
}

#[test]
fn a_digest_carries_exactly_the_repair_buckets() {
    // The count is on the wire so a build with another bucket count is
    // refused, not misread; any count but the one legal value — absurd
    // ones included — is a typed payload error before a digest is read,
    // and nothing is ever allocated for one.
    let digests_of = |count: u32, carried: usize| {
        let mut payload = Key::hash_of("member").as_bytes().to_vec();
        payload.extend_from_slice(&count.to_be_bytes());
        payload.extend_from_slice(&vec![0x5a; 8 * carried]);
        raw_frame(0x09, 7, &payload)
    };
    let legal = REPAIR_BUCKETS as u32;
    assert!(decode_message(&digests_of(legal, REPAIR_BUCKETS)).is_ok());
    for count in [0, 1, legal - 1, legal + 1, u32::MAX] {
        for carried in [0, count.min(64) as usize, REPAIR_BUCKETS] {
            assert!(
                matches!(
                    decode_message(&digests_of(count, carried)),
                    Err(WireError::BadPayload(_))
                ),
                "count {count}, {carried} digests carried"
            );
        }
    }
    assert_eq!(
        decode_message(&digests_of(legal, REPAIR_BUCKETS - 1)),
        Err(WireError::Truncated)
    );
    assert_eq!(
        decode_message(&digests_of(legal, REPAIR_BUCKETS + 1)),
        Err(WireError::TrailingBytes(8))
    );
}

#[test]
fn transfer_cut_at_every_byte_is_truncated() {
    // Same invariant as batches: a transfer whose entries outrun its
    // payload is Truncated at every cut point, never a phantom shorter
    // transfer.
    let mut rng = SplitMix64::new(23);
    let msg = Message::Transfer {
        id: 9,
        snapshot: BucketSnapshot {
            live: vec![
                (rng_key(&mut rng), vec![rng_value(&mut rng)]),
                (
                    rng_key(&mut rng),
                    vec![rng_value(&mut rng), rng_value(&mut rng)],
                ),
            ],
            dead: vec![(rng_key(&mut rng), vec![rng_value(&mut rng)])],
        },
    };
    let buf = encode_to_vec(&msg);
    for cut in HEADER_LEN..buf.len() {
        let mut frame = buf[..cut].to_vec();
        let len = (cut - HEADER_LEN) as u32;
        frame[14..18].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_message(&frame),
            Err(WireError::Truncated),
            "payload cut to {} bytes",
            cut - HEADER_LEN
        );
    }
}

#[test]
fn batch_cut_at_every_byte_is_truncated() {
    // Shrink a valid batch payload byte by byte, fixing up the length
    // header so the *frame* stays self-consistent: a batch whose ops
    // outrun its payload is Truncated at every cut point, never a
    // phantom shorter batch.
    let mut rng = SplitMix64::new(21);
    let msg = Message::Batch {
        id: 9,
        ops: vec![rng_op(&mut rng, 1), rng_op(&mut rng, 3)],
    };
    let buf = encode_to_vec(&msg);
    for cut in HEADER_LEN..buf.len() {
        let mut frame = buf[..cut].to_vec();
        let len = (cut - HEADER_LEN) as u32;
        frame[14..18].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_message(&frame),
            Err(WireError::Truncated),
            "payload cut to {} bytes",
            cut - HEADER_LEN
        );
    }
}

#[test]
fn header_len_is_frame_minimum() {
    // The shortest possible frame is a bare header (shutdown).
    assert_eq!(encode_to_vec(&Message::Shutdown).len(), HEADER_LEN);
}
