//! The binary wire codec: length-prefixed frames over TCP.
//!
//! Every message between a [`RemoteDht`](crate::client::RemoteDht) client
//! and a [`DhtServer`](crate::server::DhtServer) is one *frame*:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic        "PDHT"
//!      4     1  version      VERSION (0x09), on every frame
//!      5     1  kind         0x01 request | 0x02 ok-response |
//!                            0x03 err-response | 0x04 shutdown |
//!                            0x05 batch | 0x06 batch-reply |
//!                            0x08 transfer | 0x09 digest |
//!                            0x0a digest-reply
//!      6     8  request id   big-endian u64 (0 for shutdown)
//!     14     4  payload len  big-endian u32, <= MAX_PAYLOAD
//!     18     n  payload      kind-specific, see below
//! ```
//!
//! Request payloads carry one [`DhtOp`]; ok-responses one [`DhtResponse`];
//! err-responses a 2-byte [`DhtError`] wire code (unknown codes decode into
//! the forward-compatible [`DhtError::Unknown`] catch-all, *not* a codec
//! failure). Batch frames carry a `u32` op count followed by that many
//! encoded ops; batch-replies a `u32` result count followed by that many
//! status-prefixed results; transfers two entry lists, live then dead
//! (see DESIGN.md §11 for the byte-level spec).
//! Decoding is strict everywhere else: wrong magic, any version byte but
//! [`VERSION`], an unknown frame kind or opcode, an oversized length
//! prefix, a short payload, an empty batch or transfer, or trailing
//! payload bytes are all typed [`WireError`]s — never a panic, never a
//! silent truncation.
//! There is no negotiation: every peer is built from this workspace, and
//! each extension of the protocol bumps [`VERSION`] (DESIGN.md §11 keeps
//! the history).
//!
//! The request id exists for pipelining: a client may have several frames
//! in flight on one connection and match responses by id. The bundled
//! [`RemoteDht`](crate::client::RemoteDht) pipelines one frame pair per
//! routed member during [`execute_many`](p2p_index_dht::Dht::execute_many)
//! and still verifies the echoed id on every reply.

use std::borrow::Borrow;
use std::fmt;
use std::io::{self, Read, Write};

use bytes::Bytes;
use p2p_index_dht::{
    BucketDigests, BucketSnapshot, DhtError, DhtOp, DhtResponse, Key, NodeId, REPAIR_BUCKETS,
};

/// The 4-byte magic that opens every frame.
pub const MAGIC: [u8; 4] = *b"PDHT";

/// The protocol version every frame carries; a frame with any other byte
/// is [`WireError::UnsupportedVersion`].
pub const VERSION: u8 = 9;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 18;

/// How much frame-buffer capacity a connection keeps once the frame that
/// needed it is done with. Index frames are small (a 16-get batch reply
/// is a few KiB), so this covers steady traffic without reallocation.
pub(crate) const KEPT_FRAME_CAPACITY: usize = 64 * 1024;

/// Hands back what one oversized frame grew a connection's frame buffer
/// to, so the cost of the biggest frame a connection ever carried is not
/// paid for the connection's whole life. Every long-lived buffer goes
/// through here once its frame is done with: a dialed link's (a client's
/// to a member, a member's to a peer — `link.rs`) after every frame read
/// through it, a serving connection's write buffer after the reply is sent
/// and its read buffer on the next idle tick. Returns whether anything was
/// released.
pub(crate) fn release_frame_capacity(frame: &mut Vec<u8>) -> bool {
    if frame.capacity() <= KEPT_FRAME_CAPACITY {
        return false;
    }
    frame.clear();
    frame.shrink_to(KEPT_FRAME_CAPACITY);
    true
}

/// Upper bound on a frame's payload. Index entries are tiny (a query
/// string or a file handle), so 16 MiB is a generous safety margin that
/// still stops a corrupt length prefix from asking us to allocate 4 GiB.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

const KIND_REQUEST: u8 = 0x01;
const KIND_OK: u8 = 0x02;
const KIND_ERR: u8 = 0x03;
const KIND_SHUTDOWN: u8 = 0x04;
const KIND_BATCH: u8 = 0x05;
const KIND_BATCH_REPLY: u8 = 0x06;
const KIND_TRANSFER: u8 = 0x08;
const KIND_DIGEST: u8 = 0x09;
const KIND_DIGEST_REPLY: u8 = 0x0a;

/// Per-result status byte inside a batch-reply payload.
const BATCH_OK: u8 = 0x00;
const BATCH_ERR: u8 = 0x01;

/// Smallest possible encoded op (opcode + 20-byte key): the divisor for
/// the batch count-before-allocation guard.
const MIN_OP_LEN: usize = 21;

/// Smallest possible encoded batch result (status + tag + bool, or
/// status + 2-byte error code): divisor for the batch-reply guard.
const MIN_RESULT_LEN: usize = 3;

/// Smallest possible encoded transfer entry (20-byte key + u32 value
/// count): divisor for the transfer count-before-allocation guard.
const MIN_ENTRY_LEN: usize = 24;

/// The longest value a `Transfer` of its own can carry within
/// [`MAX_PAYLOAD`]: the two entry-list counts, one entry's key and value
/// count, and the value's length prefix take 36 bytes. (A `Put` frames
/// its value in 25, so a longer value would be stored, yet refused every
/// time a repair pushed it.)
pub(crate) const MAX_TRANSFER_VALUE: usize = MAX_PAYLOAD as usize - 4 - MIN_ENTRY_LEN - 4 - 4;

const OP_NODE_FOR: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_GET: u8 = 0x03;
const OP_REMOVE: u8 = 0x04;
const OP_GET_DIGEST: u8 = 0x05;
const OP_GET_IF_CHANGED: u8 = 0x06;

const RESP_NODE: u8 = 0x01;
const RESP_STORED: u8 = 0x02;
const RESP_VALUES: u8 = 0x03;
const RESP_REMOVED: u8 = 0x04;
const RESP_DIGEST: u8 = 0x05;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A client request: execute `op` and answer with the same `id`.
    Request {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The operation to execute.
        op: DhtOp,
    },
    /// A server response (ok or error) to the request with the same `id`.
    Response {
        /// The id of the request being answered.
        id: u64,
        /// The outcome of executing the request's operation.
        result: Result<DhtResponse, DhtError>,
    },
    /// A client batch: execute every op in order and answer all of them
    /// with one [`Message::BatchReply`] carrying the same `id`.
    ///
    /// The op vector is never empty (an empty batch is a
    /// [`WireError::BadPayload`] on decode).
    Batch {
        /// Caller-chosen id echoed in the batch reply.
        id: u64,
        /// The operations to execute, in order.
        ops: Vec<DhtOp>,
    },
    /// A server's answer to a [`Message::Batch`]: one result per op, in
    /// the same order.
    BatchReply {
        /// The id of the batch being answered.
        id: u64,
        /// Per-op outcomes, positionally matching the batch's ops.
        results: Vec<Result<DhtResponse, DhtError>>,
    },
    /// A member's repair push of one repair bucket: put every live value
    /// into the local partition (idempotent multi-value puts, duplicates
    /// collapse), then apply every dead pair as a remove, and never
    /// re-forward either. Answered with a [`Message::Response`] carrying
    /// `Stored(true)`.
    ///
    /// On the wire the live list comes first, then the dead one; either
    /// may be empty, but not both (a [`WireError::BadPayload`] on decode —
    /// a member with nothing to push sends nothing), and no entry is
    /// without values.
    Transfer {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// The bucket's `(key, values)` entries: live values to merge,
        /// then tombstoned pairs to remove.
        snapshot: BucketSnapshot,
    },
    /// A member's anti-entropy probe: "these are my bucket digests over
    /// the keys you and I both replicate". Answered with a
    /// [`Message::DigestReply`] carrying the same `id`, or with an error
    /// [`Message::Response`] by a server that replicates nothing with
    /// `from`.
    ///
    /// The digest array is fixed-size, so decoding one allocates nothing;
    /// a frame announcing any bucket count but [`REPAIR_BUCKETS`] is a
    /// [`WireError::BadPayload`].
    Digest {
        /// Caller-chosen id echoed in the reply.
        id: u64,
        /// The sender's ring key.
        from: Key,
        /// The sender's digest of each repair bucket.
        buckets: BucketDigests,
    },
    /// The answer to a [`Message::Digest`].
    DigestReply {
        /// The id of the digest being answered.
        id: u64,
        /// Bit `b` is set when the receiver's digest of repair bucket `b`
        /// differs from the sender's.
        differs: u16,
    },
    /// Ask the server to stop accepting, drain its workers, and exit.
    Shutdown,
}

/// Why a frame failed to decode. Every malformed input maps to one of
/// these — decoding never panics and never fabricates a partial message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The frame kind byte was none of the defined kinds.
    UnknownKind(u8),
    /// A request payload used an opcode this build does not know.
    UnknownOpcode(u8),
    /// An ok-response payload used a variant tag this build does not know.
    UnknownResponseTag(u8),
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The input ended before the frame did (short header, short payload,
    /// or a length field pointing past the payload's end).
    Truncated,
    /// The payload was longer than its contents: `n` undecoded bytes
    /// remained after the message was fully read.
    TrailingBytes(usize),
    /// A payload field held an impossible value (e.g. a boolean byte that
    /// was neither 0 nor 1).
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::UnknownOpcode(o) => write!(f, "unknown request opcode 0x{o:02x}"),
            WireError::UnknownResponseTag(t) => write!(f, "unknown response tag 0x{t:02x}"),
            WireError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds MAX_PAYLOAD {MAX_PAYLOAD}")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after payload"),
            WireError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why reading a frame from a stream failed: transport vs codec.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The transport failed (timeout, reset, mid-frame EOF).
    Io(io::Error),
    /// The bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<WireError> for RecvError {
    fn from(e: WireError) -> Self {
        RecvError::Wire(e)
    }
}

/// Appends a frame header with a zero length prefix, returning where the
/// prefix sits so [`end_frame`] can fill it in.
fn begin_frame(kind: u8, id: u64, buf: &mut Vec<u8>) -> usize {
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind);
    buf.extend_from_slice(&id.to_be_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    len_at
}

/// Back-fills the length prefix at `len_at` with the payload appended
/// since [`begin_frame`].
fn end_frame(buf: &mut [u8], len_at: usize) {
    let payload_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&payload_len.to_be_bytes());
}

/// Appends the encoded frame for `msg` to `buf`.
pub fn encode_message(msg: &Message, buf: &mut Vec<u8>) {
    let (kind, id) = match msg {
        Message::Request { id, .. } => (KIND_REQUEST, *id),
        Message::Response { id, result: Ok(_) } => (KIND_OK, *id),
        Message::Response { id, result: Err(_) } => (KIND_ERR, *id),
        Message::Batch { id, .. } => (KIND_BATCH, *id),
        Message::BatchReply { id, .. } => (KIND_BATCH_REPLY, *id),
        Message::Transfer { id, .. } => (KIND_TRANSFER, *id),
        Message::Digest { id, .. } => (KIND_DIGEST, *id),
        Message::DigestReply { id, .. } => (KIND_DIGEST_REPLY, *id),
        Message::Shutdown => (KIND_SHUTDOWN, 0),
    };
    let len_at = begin_frame(kind, id, buf);
    match msg {
        Message::Request { op, .. } => encode_op(op, buf),
        Message::Response { result, .. } => match result {
            Ok(resp) => encode_response(resp, buf),
            Err(e) => buf.extend_from_slice(&e.wire_code().to_be_bytes()),
        },
        Message::Batch { ops, .. } => encode_ops(ops.iter(), buf),
        Message::BatchReply { results, .. } => {
            buf.extend_from_slice(&(results.len() as u32).to_be_bytes());
            for result in results {
                match result {
                    Ok(resp) => {
                        buf.push(BATCH_OK);
                        encode_response(resp, buf);
                    }
                    Err(e) => {
                        buf.push(BATCH_ERR);
                        buf.extend_from_slice(&e.wire_code().to_be_bytes());
                    }
                }
            }
        }
        Message::Transfer { snapshot, .. } => {
            for entries in [&snapshot.live, &snapshot.dead] {
                buf.extend_from_slice(&(entries.len() as u32).to_be_bytes());
                for (key, values) in entries {
                    buf.extend_from_slice(key.as_bytes());
                    buf.extend_from_slice(&(values.len() as u32).to_be_bytes());
                    for v in values {
                        encode_bytes(v, buf);
                    }
                }
            }
        }
        Message::Digest { from, buckets, .. } => {
            buf.extend_from_slice(from.as_bytes());
            buf.extend_from_slice(&(buckets.len() as u32).to_be_bytes());
            for digest in buckets {
                buf.extend_from_slice(&digest.to_be_bytes());
            }
        }
        Message::DigestReply { differs, .. } => buf.extend_from_slice(&differs.to_be_bytes()),
        Message::Shutdown => {}
    }
    end_frame(buf, len_at);
}

/// Appends the frame [`encode_message`] writes for
/// `Message::Request { id, op }` from a borrowed op, so a router frames a
/// lone op without building a message around it.
pub(crate) fn encode_request(id: u64, op: &DhtOp, buf: &mut Vec<u8>) {
    let len_at = begin_frame(KIND_REQUEST, id, buf);
    encode_op(op, buf);
    end_frame(buf, len_at);
}

/// Appends the frame [`encode_message`] writes for
/// `Message::Batch { id, ops }`, taking the ops from wherever they live —
/// by reference, or made up on the spot — so a router can frame a subset
/// of its pending ops without first cloning them into a vector.
pub(crate) fn encode_batch<O: Borrow<DhtOp>>(
    id: u64,
    ops: impl Iterator<Item = O>,
    buf: &mut Vec<u8>,
) {
    let len_at = begin_frame(KIND_BATCH, id, buf);
    encode_ops(ops, buf);
    end_frame(buf, len_at);
}

/// A batch payload: the op count, then each op. The count is
/// back-filled, so the ops may come from any iterator (a filter, say).
fn encode_ops<O: Borrow<DhtOp>>(ops: impl Iterator<Item = O>, buf: &mut Vec<u8>) {
    let count_at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let mut count = 0u32;
    for op in ops {
        encode_op(op.borrow(), buf);
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
}

/// The encoded frame for `msg` as a fresh vector.
pub fn encode_to_vec(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 64);
    encode_message(msg, &mut buf);
    buf
}

fn encode_op(op: &DhtOp, buf: &mut Vec<u8>) {
    match op {
        DhtOp::NodeFor(key) => {
            buf.push(OP_NODE_FOR);
            buf.extend_from_slice(key.as_bytes());
        }
        DhtOp::Put { key, value } => {
            buf.push(OP_PUT);
            buf.extend_from_slice(key.as_bytes());
            encode_bytes(value, buf);
        }
        DhtOp::Get(key) => {
            buf.push(OP_GET);
            buf.extend_from_slice(key.as_bytes());
        }
        DhtOp::Remove { key, value } => {
            buf.push(OP_REMOVE);
            buf.extend_from_slice(key.as_bytes());
            encode_bytes(value, buf);
        }
        DhtOp::GetDigest(key) => {
            buf.push(OP_GET_DIGEST);
            buf.extend_from_slice(key.as_bytes());
        }
        DhtOp::GetIfChanged { key, seen } => {
            buf.push(OP_GET_IF_CHANGED);
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(&seen.0.to_be_bytes());
            buf.extend_from_slice(&seen.1.to_be_bytes());
        }
    }
}

fn encode_response(resp: &DhtResponse, buf: &mut Vec<u8>) {
    match resp {
        DhtResponse::Node(node) => {
            buf.push(RESP_NODE);
            buf.extend_from_slice(node.key().as_bytes());
        }
        DhtResponse::Stored(stored) => {
            buf.push(RESP_STORED);
            buf.push(u8::from(*stored));
        }
        DhtResponse::Values(values) => {
            buf.push(RESP_VALUES);
            buf.extend_from_slice(&(values.len() as u32).to_be_bytes());
            for v in values {
                encode_bytes(v, buf);
            }
        }
        DhtResponse::Removed(removed) => {
            buf.push(RESP_REMOVED);
            buf.push(u8::from(*removed));
        }
        DhtResponse::Digest { count, sum } => {
            buf.push(RESP_DIGEST);
            buf.extend_from_slice(&count.to_be_bytes());
            buf.extend_from_slice(&sum.to_be_bytes());
        }
    }
}

fn encode_bytes(value: &Bytes, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(value.len() as u32).to_be_bytes());
    buf.extend_from_slice(value);
}

/// A cursor over a payload slice with strict bounds checking.
///
/// Every value it hands out is a `slice()` of **one** shared copy of the
/// payload, made when the first non-empty value is met: a reply carrying
/// a hundred values costs one copy, not a hundred, and a frame carrying
/// none (a `Get`, a `Stored`, an error) costs nothing. The price is that
/// each value keeps the whole payload alive — see "Value ownership" in
/// DESIGN.md §11 for who may hold one and who must copy.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
    shared: Option<Bytes>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            at: 0,
            shared: None,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.at < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("took eight bytes")))
    }

    fn key(&mut self) -> Result<Key, WireError> {
        let b = self.take(20)?;
        let mut digest = [0u8; 20];
        digest.copy_from_slice(b);
        Ok(Key::from_digest(digest))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadPayload("boolean byte must be 0 or 1")),
        }
    }

    fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        let start = self.at;
        self.take(len)?;
        if len == 0 {
            return Ok(Bytes::new());
        }
        let buf = self.buf;
        let shared = self
            .shared
            .get_or_insert_with(|| Bytes::copy_from_slice(buf));
        Ok(shared.slice(start..start + len))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at != self.buf.len() {
            return Err(WireError::TrailingBytes(self.buf.len() - self.at));
        }
        Ok(())
    }
}

/// Decodes one frame from the front of `buf`.
///
/// Returns the message and the number of bytes consumed. An incomplete
/// frame (short header or short payload) is [`WireError::Truncated`]; a
/// complete frame with garbage anywhere is the matching typed error.
pub fn decode_message(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let header = buf.first_chunk().ok_or(WireError::Truncated)?;
    let (kind, id, payload_len) = parse_header(header)?;
    let payload = buf[HEADER_LEN..]
        .get(..payload_len)
        .ok_or(WireError::Truncated)?;
    let msg = decode_payload(kind, id, payload)?;
    Ok((msg, HEADER_LEN + payload_len))
}

/// What a frame's fixed header announces — `(kind, id, payload length)` —
/// once its magic, its version and its length cap have been checked, in
/// that order. The one header parser: a frame decoded from a slice and a
/// frame read off a stream fail the same way.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u64, usize), WireError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("fixed slice");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let id = u64::from_be_bytes(header[6..14].try_into().expect("fixed slice"));
    let payload_len = u32::from_be_bytes(header[14..18].try_into().expect("fixed slice"));
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    Ok((header[5], id, payload_len as usize))
}

/// One encoded [`DhtOp`], shared by unary request and batch payloads.
fn decode_op(r: &mut Reader<'_>) -> Result<DhtOp, WireError> {
    Ok(match r.u8()? {
        OP_NODE_FOR => DhtOp::NodeFor(r.key()?),
        OP_PUT => DhtOp::Put {
            key: r.key()?,
            value: r.bytes()?,
        },
        OP_GET => DhtOp::Get(r.key()?),
        OP_REMOVE => DhtOp::Remove {
            key: r.key()?,
            value: r.bytes()?,
        },
        OP_GET_DIGEST => DhtOp::GetDigest(r.key()?),
        OP_GET_IF_CHANGED => DhtOp::GetIfChanged {
            key: r.key()?,
            seen: (r.u32()?, r.u64()?),
        },
        other => return Err(WireError::UnknownOpcode(other)),
    })
}

/// A batch body: the count (checked before anything is reserved; zero is
/// a `BadPayload`), then that many ops.
fn decode_ops(r: &mut Reader<'_>) -> Result<Vec<DhtOp>, WireError> {
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(WireError::BadPayload("batch must contain at least one op"));
    }
    // Each op costs at least an opcode plus a 20-byte key, so an absurd
    // count fails before any allocation.
    if count > r.remaining() / MIN_OP_LEN {
        return Err(WireError::Truncated);
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(decode_op(r)?);
    }
    Ok(ops)
}

/// One transfer entry list: the count (checked before anything is
/// reserved), then that many keys, each with its non-empty value list.
fn decode_entries(r: &mut Reader<'_>) -> Result<Vec<(Key, Vec<Bytes>)>, WireError> {
    let count = r.u32()? as usize;
    // Each entry costs at least its 20-byte key plus a 4-byte value count,
    // so an absurd count fails before any allocation.
    if count > r.remaining() / MIN_ENTRY_LEN {
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.key()?;
        let vcount = r.u32()? as usize;
        if vcount == 0 {
            return Err(WireError::BadPayload(
                "transfer entry must carry at least one value",
            ));
        }
        if vcount > r.remaining() / 4 {
            return Err(WireError::Truncated);
        }
        let mut values = Vec::with_capacity(vcount);
        for _ in 0..vcount {
            values.push(r.bytes()?);
        }
        entries.push((key, values));
    }
    Ok(entries)
}

/// One encoded [`DhtResponse`], shared by ok-response and batch-reply
/// payloads.
fn decode_response(r: &mut Reader<'_>) -> Result<DhtResponse, WireError> {
    Ok(match r.u8()? {
        RESP_NODE => DhtResponse::Node(NodeId::from_key(r.key()?)),
        RESP_STORED => DhtResponse::Stored(r.bool()?),
        RESP_VALUES => {
            let count = r.u32()? as usize;
            // Each value costs at least its 4-byte length prefix, so an
            // absurd count fails before any allocation.
            if count > r.remaining() / 4 {
                return Err(WireError::Truncated);
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.bytes()?);
            }
            DhtResponse::Values(values)
        }
        RESP_REMOVED => DhtResponse::Removed(r.bool()?),
        RESP_DIGEST => DhtResponse::Digest {
            count: r.u32()?,
            sum: r.u64()?,
        },
        other => return Err(WireError::UnknownResponseTag(other)),
    })
}

/// An err-response body. Unknown error codes are forward-compatible by
/// design: they decode into `DhtError::Unknown`, not a codec failure.
fn decode_error(r: &mut Reader<'_>) -> Result<DhtError, WireError> {
    Ok(DhtError::from_wire_code(r.u16()?))
}

/// A batch-reply body, appended to `results`: the count (checked before
/// anything is reserved), then that many status-prefixed results.
fn decode_batch_results(
    r: &mut Reader<'_>,
    results: &mut Vec<Result<DhtResponse, DhtError>>,
) -> Result<(), WireError> {
    let count = r.u32()? as usize;
    if count == 0 {
        return Err(WireError::BadPayload(
            "batch reply must contain at least one result",
        ));
    }
    if count > r.remaining() / MIN_RESULT_LEN {
        return Err(WireError::Truncated);
    }
    results.reserve(count);
    for _ in 0..count {
        results.push(match r.u8()? {
            BATCH_OK => Ok(decode_response(r)?),
            BATCH_ERR => Err(decode_error(r)?),
            _ => {
                return Err(WireError::BadPayload(
                    "batch result status must be 0 (ok) or 1 (err)",
                ))
            }
        });
    }
    Ok(())
}

/// The body of a reply frame, appended to `results`: one result for a
/// unary response, one per op for a batch reply. The one place the three
/// reply kinds are told apart; any other kind is
/// [`WireError::UnknownKind`].
fn decode_reply(
    kind: u8,
    r: &mut Reader<'_>,
    results: &mut Vec<Result<DhtResponse, DhtError>>,
) -> Result<(), WireError> {
    match kind {
        KIND_OK => results.push(Ok(decode_response(r)?)),
        KIND_ERR => results.push(Err(decode_error(r)?)),
        KIND_BATCH_REPLY => decode_batch_results(r, results)?,
        other => return Err(WireError::UnknownKind(other)),
    }
    Ok(())
}

fn decode_payload(kind: u8, id: u64, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        KIND_REQUEST => Message::Request {
            id,
            op: decode_op(&mut r)?,
        },
        KIND_OK | KIND_ERR | KIND_BATCH_REPLY => {
            let mut results = Vec::new();
            decode_reply(kind, &mut r, &mut results)?;
            match kind {
                KIND_BATCH_REPLY => Message::BatchReply { id, results },
                _ => Message::Response {
                    id,
                    result: results.pop().expect("a unary reply decodes to one result"),
                },
            }
        }
        KIND_BATCH => Message::Batch {
            id,
            ops: decode_ops(&mut r)?,
        },
        KIND_TRANSFER => {
            let snapshot = BucketSnapshot {
                live: decode_entries(&mut r)?,
                dead: decode_entries(&mut r)?,
            };
            if snapshot.is_empty() {
                return Err(WireError::BadPayload(
                    "transfer must contain at least one entry",
                ));
            }
            Message::Transfer { id, snapshot }
        }
        KIND_DIGEST => {
            let from = r.key()?;
            // The count is checked against the one legal value before
            // anything is read for it; the digests land in a fixed array,
            // so no count, however absurd, reaches an allocator.
            if r.u32()? as usize != REPAIR_BUCKETS {
                return Err(WireError::BadPayload(
                    "digest must carry exactly REPAIR_BUCKETS buckets",
                ));
            }
            let mut buckets = [0u64; REPAIR_BUCKETS];
            for digest in &mut buckets {
                *digest = r.u64()?;
            }
            Message::Digest { id, from, buckets }
        }
        KIND_DIGEST_REPLY => Message::DigestReply {
            id,
            differs: r.u16()?,
        },
        KIND_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Writes one frame to `w` through a caller-owned encode buffer and
/// flushes it.
///
/// The scratch is cleared and refilled in place, so a long-lived
/// connection that passes the same buffer for every frame amortizes the
/// encode allocation to (at most) a few capacity growths over the
/// connection's lifetime — this is the serving side's frame writer (the
/// dialing side encodes into its link's buffer and calls `write_frame`).
pub fn write_message_with(
    w: &mut impl Write,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> io::Result<usize> {
    scratch.clear();
    encode_message(msg, scratch);
    write_frame(w, scratch)
}

/// Writes already-encoded frame bytes to `w` and flushes them.
pub(crate) fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<usize> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads exactly one frame from `r`, staging the payload in a
/// caller-owned scratch buffer.
///
/// A clean EOF before the first header byte is [`RecvError::Closed`]; an
/// EOF mid-frame is an [`RecvError::Io`] with `UnexpectedEof`. Returns
/// the message and the number of bytes read. The payload bytes land in
/// `scratch` (cleared and resized in place), so a long-lived connection
/// that passes the same buffer for every frame reuses one allocation
/// instead of allocating per frame. Decoded values never borrow the
/// scratch: a frame that carries values is copied out of it once, into
/// the buffer all of that frame's values share, so the scratch is free
/// for the next frame as soon as this call returns.
pub fn read_message_with(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<(Message, usize), RecvError> {
    let (kind, id) = read_frame(r, scratch)?;
    let msg = decode_payload(kind, id, scratch)?;
    Ok((msg, HEADER_LEN + scratch.len()))
}

/// What [`read_reply_with`] read, besides the results themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reply {
    /// The id of the request or batch being answered.
    pub(crate) id: u64,
    /// `true` for a batch-reply frame, `false` for a unary response.
    pub(crate) batch: bool,
    /// Frame bytes read, header included.
    pub(crate) bytes: usize,
}

/// Reads exactly one *reply* frame from `r` — a unary response (one
/// result) or a batch reply (one per op) — leaving its results in
/// `results`, which is cleared first.
///
/// This is [`read_message_with`] for a client that routes results onward
/// one by one: the same checks on the same bytes, but the results land in
/// a vector the caller reuses from frame to frame instead of a fresh one
/// inside a [`Message`]. Any other frame kind is
/// [`WireError::UnknownKind`] — a server never sends one to a client. On
/// an error `results` holds nothing meaningful.
pub(crate) fn read_reply_with(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
    results: &mut Vec<Result<DhtResponse, DhtError>>,
) -> Result<Reply, RecvError> {
    results.clear();
    let (kind, id) = read_frame(r, scratch)?;
    let mut payload = Reader::new(scratch);
    decode_reply(kind, &mut payload, results)?;
    payload.finish()?;
    Ok(Reply {
        id,
        batch: kind == KIND_BATCH_REPLY,
        bytes: HEADER_LEN + scratch.len(),
    })
}

/// Reads one frame's header and payload from `r`: the header is checked
/// (magic, version, length cap) before the payload is read into
/// `scratch`, which is cleared and then grown as the bytes arrive, at most
/// [`KEPT_FRAME_CAPACITY`] before each read. A header alone never commits
/// more memory than that, whatever length it announces, and a frame that
/// fits one step costs no more than a single resize.
fn read_frame(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<(u8, u64), RecvError> {
    let mut header = [0u8; HEADER_LEN];
    let first = r.read(&mut header).map_err(RecvError::Io)?;
    if first == 0 {
        return Err(RecvError::Closed);
    }
    read_exact_from(r, &mut header[first..]).map_err(RecvError::Io)?;
    let (kind, id, payload_len) = parse_header(&header)?;
    scratch.clear();
    while scratch.len() < payload_len {
        let read = scratch.len();
        scratch.resize(payload_len.min(read + KEPT_FRAME_CAPACITY), 0);
        read_exact_from(r, &mut scratch[read..]).map_err(RecvError::Io)?;
    }
    Ok((kind, id))
}

/// `read_exact` that retries on `Interrupted`, used for both header and
/// payload so a short read is always a typed transport error.
fn read_exact_from(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let buf = encode_to_vec(&msg);
        let (decoded, consumed) = decode_message(&buf).expect("roundtrip decodes");
        assert_eq!(decoded, msg);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn every_variant_roundtrips() {
        let key = Key::hash_of("k");
        let value = Bytes::from_static(b"value");
        roundtrip(Message::Request {
            id: 1,
            op: DhtOp::NodeFor(key),
        });
        roundtrip(Message::Request {
            id: 2,
            op: DhtOp::Put {
                key,
                value: value.clone(),
            },
        });
        roundtrip(Message::Request {
            id: 3,
            op: DhtOp::Get(key),
        });
        roundtrip(Message::Request {
            id: u64::MAX,
            op: DhtOp::Remove { key, value },
        });
        roundtrip(Message::Request {
            id: 4,
            op: DhtOp::GetDigest(key),
        });
        roundtrip(Message::Request {
            id: 5,
            op: DhtOp::GetIfChanged {
                key,
                seen: (u32::MAX, u64::MAX - 1),
            },
        });
        roundtrip(Message::Response {
            id: 9,
            result: Ok(DhtResponse::Node(NodeId::hash_of("n"))),
        });
        roundtrip(Message::Response {
            id: 10,
            result: Ok(DhtResponse::Stored(true)),
        });
        roundtrip(Message::Response {
            id: 11,
            result: Ok(DhtResponse::Values(vec![
                Bytes::from_static(b""),
                Bytes::from_static(b"two"),
            ])),
        });
        roundtrip(Message::Response {
            id: 12,
            result: Ok(DhtResponse::Removed(false)),
        });
        roundtrip(Message::Response {
            id: 12,
            result: Ok(DhtResponse::Digest {
                count: 3,
                sum: u64::MAX - 1,
            }),
        });
        for e in [
            DhtError::Timeout,
            DhtError::NoLiveNodes,
            DhtError::StorageFull,
            DhtError::Unknown(999),
        ] {
            roundtrip(Message::Response {
                id: 13,
                result: Err(e),
            });
        }
        roundtrip(Message::Shutdown);
        roundtrip(Message::Batch {
            id: 14,
            ops: vec![
                DhtOp::Get(key),
                DhtOp::Put {
                    key,
                    value: Bytes::from_static(b"batched"),
                },
                DhtOp::NodeFor(key),
            ],
        });
        roundtrip(Message::BatchReply {
            id: 14,
            results: vec![
                Ok(DhtResponse::Values(vec![Bytes::from_static(b"v")])),
                Ok(DhtResponse::Stored(true)),
                Err(DhtError::Timeout),
            ],
        });
        let entries = vec![
            (key, vec![Bytes::from_static(b""), Bytes::from_static(b"a")]),
            (Key::hash_of("k2"), vec![Bytes::from_static(b"b")]),
        ];
        let dead = vec![(Key::hash_of("k3"), vec![Bytes::from_static(b"c")])];
        for (live, dead) in [
            (entries.clone(), Vec::new()),
            (Vec::new(), dead.clone()),
            (entries, dead),
        ] {
            roundtrip(Message::Transfer {
                id: 17,
                snapshot: BucketSnapshot { live, dead },
            });
        }
        roundtrip(Message::Digest {
            id: 18,
            from: key,
            buckets: std::array::from_fn(|bucket| u64::MAX - bucket as u64),
        });
        roundtrip(Message::DigestReply {
            id: 18,
            differs: 0x8001,
        });
    }

    #[test]
    fn golden_digest_frame_layouts_are_pinned() {
        // Byte-for-byte layout of the two anti-entropy frames.
        let from = Key::hash_of("member");
        let digest = encode_to_vec(&Message::Digest {
            id: 7,
            from,
            buckets: std::array::from_fn(|bucket| bucket as u64),
        });
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PDHT");
        expected.push(0x09); // version
        expected.push(0x09); // kind: digest
        expected.extend_from_slice(&7u64.to_be_bytes());
        expected.extend_from_slice(&152u32.to_be_bytes()); // key + count + 16 * 8
        expected.extend_from_slice(from.as_bytes());
        expected.extend_from_slice(&16u32.to_be_bytes());
        for bucket in 0..16u64 {
            expected.extend_from_slice(&bucket.to_be_bytes());
        }
        assert_eq!(digest, expected);

        let reply = encode_to_vec(&Message::DigestReply {
            id: 7,
            differs: 0x0102,
        });
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PDHT");
        expected.push(0x09);
        expected.push(0x0a); // kind: digest-reply
        expected.extend_from_slice(&7u64.to_be_bytes());
        expected.extend_from_slice(&2u32.to_be_bytes());
        expected.extend_from_slice(&[0x01, 0x02]);
        assert_eq!(reply, expected);
    }

    #[test]
    fn empty_transfer_and_valueless_entry_are_rejected() {
        // A transfer frame carrying `payload`.
        let frame = |payload: &[u8]| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.push(VERSION);
            buf.push(0x08);
            buf.extend_from_slice(&1u64.to_be_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(payload);
            buf
        };
        // Neither live nor dead entries: u32(0), u32(0).
        assert!(matches!(
            decode_message(&frame(&[0; 8])),
            Err(WireError::BadPayload(_))
        ));
        // One entry with zero values, in either list.
        let mut valueless = 1u32.to_be_bytes().to_vec();
        valueless.extend_from_slice(Key::hash_of("k").as_bytes());
        valueless.extend_from_slice(&0u32.to_be_bytes());
        for dead in [false, true] {
            let mut payload = Vec::new();
            if dead {
                payload.extend_from_slice(&0u32.to_be_bytes());
            }
            payload.extend_from_slice(&valueless);
            if !dead {
                payload.extend_from_slice(&0u32.to_be_bytes());
            }
            assert!(
                matches!(
                    decode_message(&frame(&payload)),
                    Err(WireError::BadPayload(_))
                ),
                "dead list: {dead}"
            );
        }
    }

    #[test]
    fn golden_transfer_frame_layout_is_pinned() {
        // Byte-for-byte layout of one transfer frame — the live entry list,
        // then the dead one, each a count and then per key its value list;
        // changing the codec without bumping VERSION must fail here.
        let key = Key::hash_of("k");
        let value = |v: &'static [u8]| vec![Bytes::from_static(v)];
        let msg = Message::Transfer {
            id: 7,
            snapshot: BucketSnapshot {
                live: vec![(key, value(b"v"))],
                dead: vec![(key, value(b"d"))],
            },
        };
        let buf = encode_to_vec(&msg);
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PDHT");
        expected.push(0x09); // version
        expected.push(0x08); // kind: transfer
        expected.extend_from_slice(&7u64.to_be_bytes());
        expected.extend_from_slice(&66u32.to_be_bytes()); // 2 * (count + key + count + len + 1)
        for byte in [b'v', b'd'] {
            expected.extend_from_slice(&1u32.to_be_bytes()); // one entry: live, then dead
            expected.extend_from_slice(key.as_bytes());
            expected.extend_from_slice(&1u32.to_be_bytes()); // one value
            expected.extend_from_slice(&1u32.to_be_bytes());
            expected.push(byte);
        }
        assert_eq!(buf, expected);
    }

    #[test]
    fn a_value_at_the_transfer_bound_fills_a_transfer_of_its_own() {
        // Pushed alone, as a live value or as a scrubbed tombstone, a value
        // of `MAX_TRANSFER_VALUE` bytes makes a payload of `MAX_PAYLOAD`.
        let one = vec![(Key::hash_of("k"), vec![Bytes::from_static(b"v")])];
        let live = BucketSnapshot {
            live: one.clone(),
            dead: Vec::new(),
        };
        let dead = BucketSnapshot {
            live: Vec::new(),
            dead: one,
        };
        for snapshot in [live, dead] {
            let frame = encode_to_vec(&Message::Transfer { id: 1, snapshot });
            let framing = frame.len() - HEADER_LEN - 1;
            assert_eq!(MAX_TRANSFER_VALUE + framing, MAX_PAYLOAD as usize);
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        // Hand-build a batch frame whose count is zero: header + u32(0).
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(0x05);
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadPayload(_))
        ));
        buf[5] = 0x06; // same payload as a batch reply
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadPayload(_))
        ));
    }

    #[test]
    fn golden_frame_layout_is_pinned() {
        // Byte-for-byte layout of one request frame; changing the codec
        // without bumping VERSION must fail here.
        let key = Key::hash_of("k");
        let msg = Message::Request {
            id: 7,
            op: DhtOp::Put {
                key,
                value: Bytes::from_static(b"v"),
            },
        };
        let buf = encode_to_vec(&msg);
        let mut expected = Vec::new();
        expected.extend_from_slice(b"PDHT");
        expected.push(0x09); // version
        expected.push(0x01); // kind: request
        expected.extend_from_slice(&7u64.to_be_bytes());
        expected.extend_from_slice(&26u32.to_be_bytes()); // opcode + key + len + 1
        expected.push(0x02); // opcode: put
        expected.extend_from_slice(key.as_bytes());
        expected.extend_from_slice(&1u32.to_be_bytes());
        expected.push(b'v');
        assert_eq!(buf, expected);
    }

    #[test]
    fn stream_roundtrip_and_clean_close() {
        let msg = Message::Request {
            id: 5,
            op: DhtOp::Get(Key::hash_of("x")),
        };
        let (mut wire, mut scratch) = (Vec::new(), Vec::new());
        let written = write_message_with(&mut wire, &msg, &mut scratch).unwrap();
        assert_eq!(written, wire.len());
        let mut cursor = io::Cursor::new(wire);
        let (decoded, read) = read_message_with(&mut cursor, &mut scratch).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(read, written);
        assert!(matches!(
            read_message_with(&mut cursor, &mut scratch),
            Err(RecvError::Closed)
        ));
    }

    #[test]
    fn rejections_are_typed() {
        let good = encode_to_vec(&Message::Shutdown);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_message(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 10;
        assert_eq!(
            decode_message(&bad_version),
            Err(WireError::UnsupportedVersion(10))
        );

        let mut bad_kind = good.clone();
        bad_kind[5] = 0x7F;
        assert_eq!(decode_message(&bad_kind), Err(WireError::UnknownKind(0x7F)));

        let mut oversized = good.clone();
        oversized[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            decode_message(&oversized),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );

        for cut in 0..good.len() {
            assert_eq!(
                decode_message(&good[..cut]),
                Err(WireError::Truncated),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn encode_batch_writes_the_batch_message_frame() {
        let key = Key::hash_of("k");
        let ops = vec![
            DhtOp::Get(key),
            DhtOp::Put {
                key,
                value: Bytes::from_static(b"batched"),
            },
        ];
        let mut framed = Vec::new();
        encode_batch(9, ops.iter(), &mut framed);
        assert_eq!(framed, encode_to_vec(&Message::Batch { id: 9, ops }));
    }

    #[test]
    fn read_reply_with_reads_what_read_message_with_reads() {
        let replies = [
            Message::Response {
                id: 4,
                result: Ok(DhtResponse::Values(vec![Bytes::from_static(b"v")])),
            },
            Message::Response {
                id: 5,
                result: Err(DhtError::StorageFull),
            },
            Message::BatchReply {
                id: 6,
                results: vec![
                    Ok(DhtResponse::Values(vec![
                        Bytes::from_static(b"a"),
                        Bytes::from_static(b""),
                    ])),
                    Err(DhtError::Timeout),
                    Ok(DhtResponse::Removed(true)),
                ],
            },
            Message::BatchReply {
                id: 7,
                results: vec![
                    Ok(DhtResponse::Values(vec![Bytes::from_static(b"shipped")])),
                    Ok(DhtResponse::Digest { count: 1, sum: 99 }),
                ],
            },
        ];
        let mut scratch = Vec::new();
        // Left dirty on purpose: the reader clears it.
        let mut results = vec![Err(DhtError::NoLiveNodes)];
        for msg in &replies {
            let frame = encode_to_vec(msg);
            let reply =
                read_reply_with(&mut io::Cursor::new(&frame), &mut scratch, &mut results).unwrap();
            assert_eq!(reply.bytes, frame.len());
            let rebuilt = if reply.batch {
                Message::BatchReply {
                    id: reply.id,
                    results: results.clone(),
                }
            } else {
                assert_eq!(results.len(), 1);
                Message::Response {
                    id: reply.id,
                    result: results[0].clone(),
                }
            };
            assert_eq!(&rebuilt, msg);
        }
        // Anything that is not a reply is refused, typed; so is a reply
        // with trailing bytes, or one under any other version byte.
        let request = encode_to_vec(&Message::Request {
            id: 1,
            op: DhtOp::Get(Key::hash_of("k")),
        });
        let mut padded = encode_to_vec(&replies[1]);
        padded.push(0);
        padded[14..18].copy_from_slice(&3u32.to_be_bytes());
        let mut older = encode_to_vec(&replies[3]);
        older[4] = VERSION - 1;
        for (frame, expected) in [
            (request, WireError::UnknownKind(0x01)),
            (padded, WireError::TrailingBytes(1)),
            (older, WireError::UnsupportedVersion(VERSION - 1)),
        ] {
            let got = read_reply_with(&mut io::Cursor::new(&frame), &mut scratch, &mut results);
            assert!(
                matches!(&got, Err(RecvError::Wire(e)) if *e == expected),
                "{got:?}"
            );
        }
    }

    #[test]
    fn mid_frame_eof_is_a_transport_error() {
        let buf = encode_to_vec(&Message::Request {
            id: 1,
            op: DhtOp::Get(Key::hash_of("x")),
        });
        let mut cursor = io::Cursor::new(&buf[..buf.len() - 3]);
        assert!(matches!(
            read_message_with(&mut cursor, &mut Vec::new()),
            Err(RecvError::Io(_))
        ));
    }

    #[test]
    fn a_stalled_frame_grows_its_buffer_only_as_its_bytes_arrive() {
        // The header announces the largest payload the cap allows and the
        // sender stops after 10 bytes. It was a 16 MiB buffer per such
        // connection while the header alone sized it.
        let mut frame = encode_to_vec(&Message::Request {
            id: 7,
            op: DhtOp::Get(Key::hash_of("x")),
        });
        frame.truncate(HEADER_LEN);
        frame[14..18].copy_from_slice(&MAX_PAYLOAD.to_be_bytes());
        frame.extend_from_slice(&[0; 10]);
        let mut cursor = io::Cursor::new(frame);
        let mut scratch = Vec::new();
        let got = read_message_with(&mut cursor, &mut scratch);
        assert!(
            matches!(&got, Err(RecvError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{got:?}"
        );
        assert!(
            scratch.capacity() <= KEPT_FRAME_CAPACITY,
            "{} bytes committed",
            scratch.capacity()
        );
        // A frame of exactly `MAX_PAYLOAD` still round-trips, step by step.
        let put = |len: usize| Message::Request {
            id: 8,
            op: DhtOp::Put {
                key: Key::hash_of("k"),
                value: Bytes::from(vec![7; len]),
            },
        };
        let framing = encode_to_vec(&put(0)).len();
        let full = put(HEADER_LEN + MAX_PAYLOAD as usize - framing);
        let buf = encode_to_vec(&full);
        assert_eq!(buf.len(), HEADER_LEN + MAX_PAYLOAD as usize);
        let got = read_message_with(&mut io::Cursor::new(&buf), &mut scratch);
        assert_eq!(got.expect("a MAX_PAYLOAD frame reads"), (full, buf.len()));
    }
}
