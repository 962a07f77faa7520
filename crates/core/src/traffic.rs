//! The traffic model: bytes exchanged per query and per cache update.
//!
//! Figure 12 of the paper reports "average network traffic (bytes)
//! generated per query", split into *normal* traffic (queries and their
//! responses — "traffic is mainly driven by responses, which usually
//! outnumber a single query") and *cache* traffic (messages that create
//! shortcut entries after successful lookups).
//!
//! The model here: every message carries a fixed header
//! ([`MESSAGE_HEADER_BYTES`]) plus its payload — the canonical query text
//! for requests, the wire-encoded entry list for responses, and
//! key + target for cache-creation messages.

/// Fixed per-message overhead (addressing, framing) in bytes.
pub const MESSAGE_HEADER_BYTES: u64 = 20;

/// Accumulated traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes of query and response messages.
    pub normal_bytes: u64,
    /// Bytes of cache-entry-creation messages.
    pub cache_bytes: u64,
    /// Total messages sent (queries, responses, and cache updates).
    pub messages: u64,
}

impl Traffic {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes, normal + cache.
    pub fn total_bytes(&self) -> u64 {
        self.normal_bytes + self.cache_bytes
    }

    /// Records a request/response exchange with the given payload sizes.
    pub(crate) fn record_exchange(&mut self, request_payload: u64, response_payload: u64) {
        self.normal_bytes += 2 * MESSAGE_HEADER_BYTES + request_payload + response_payload;
        self.messages += 2;
    }

    /// Records one cache-creation message with the given payload size.
    pub(crate) fn record_cache_update(&mut self, payload: u64) {
        self.cache_bytes += MESSAGE_HEADER_BYTES + payload;
        self.messages += 1;
    }

    /// The difference `self - earlier`, for per-query deltas.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters.
    #[must_use]
    pub fn since(&self, earlier: &Traffic) -> Traffic {
        debug_assert!(self.normal_bytes >= earlier.normal_bytes);
        Traffic {
            normal_bytes: self.normal_bytes - earlier.normal_bytes,
            cache_bytes: self.cache_bytes - earlier.cache_bytes,
            messages: self.messages - earlier.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_accounting() {
        let mut t = Traffic::new();
        t.record_exchange(30, 100);
        assert_eq!(t.normal_bytes, 2 * MESSAGE_HEADER_BYTES + 130);
        assert_eq!(t.cache_bytes, 0);
        assert_eq!(t.messages, 2);
    }

    #[test]
    fn cache_accounting() {
        let mut t = Traffic::new();
        t.record_cache_update(50);
        assert_eq!(t.cache_bytes, MESSAGE_HEADER_BYTES + 50);
        assert_eq!(t.normal_bytes, 0);
        assert_eq!(t.messages, 1);
    }

    #[test]
    fn totals_and_deltas() {
        let mut t = Traffic::new();
        t.record_exchange(10, 20);
        let snapshot = t;
        t.record_cache_update(5);
        t.record_exchange(1, 2);
        let delta = t.since(&snapshot);
        assert_eq!(delta.cache_bytes, MESSAGE_HEADER_BYTES + 5);
        assert_eq!(delta.normal_bytes, 2 * MESSAGE_HEADER_BYTES + 3);
        assert_eq!(delta.messages, 3);
        assert_eq!(t.total_bytes(), t.normal_bytes + t.cache_bytes);
    }
}
