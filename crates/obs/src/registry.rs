//! Named counters and fixed-bucket histograms behind a shareable handle.
//!
//! The registry has two states:
//!
//! * **disabled** (the [`Default`]) — every recording call is a no-op
//!   that costs one `Option` check; no allocation, no locking. This is
//!   what every instrumented component carries unless somebody turns
//!   metrics on, and it is why the paper CSVs are byte-identical with
//!   and without this crate in the build.
//! * **enabled** ([`MetricsRegistry::new`]) — counters and histograms
//!   accumulate under a mutex shared by every clone of the handle, so
//!   the index layer, the cache, and the DHT substrate all write into
//!   one place.
//!
//! [`MetricsRegistry::snapshot`] freezes the state into a
//! [`MetricsSnapshot`]: plain sorted vectors with `Eq`, JSON and CSV
//! renderings, and no interior mutability — the value the determinism
//! tests compare across `--jobs N`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Upper bounds of the histogram buckets: powers of two from 1 to
/// 65 536, plus an implicit `+Inf` bucket at the end.
///
/// Every histogram shares this layout so snapshots can be compared and
/// merged without bucket negotiation; the range covers everything the
/// simulator observes (hop counts, backoff milliseconds, result sizes).
pub const BUCKET_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// Number of buckets including the final `+Inf` bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS.len() + 1;

/// A fixed-bucket histogram (cumulative-free; each bucket counts the
/// observations `prev_bound < v <= bound`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts, in [`BUCKET_BOUNDS`] order with the `+Inf`
    /// bucket last.
    pub fn buckets(&self) -> &[u64; BUCKET_COUNT] {
        &self.buckets
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shareable handle to a set of named counters and histograms.
///
/// Cloning the handle shares the underlying storage; the disabled
/// default shares nothing and records nothing. Names are dotted paths
/// by convention (`"dht.messages"`, `"cache.get.hit"`), which keeps
/// snapshots readable and lets tests assert identities between
/// subsystems that never see each other's code.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl MetricsRegistry {
    /// Creates an **enabled** registry that records everything.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Mutex::new(Inner::default()))),
        }
    }

    /// Creates a **disabled** registry: every call is a cheap no-op.
    /// Identical to [`Default`].
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// Whether this handle records anything. Callers use this to skip
    /// building labels or snapshotting stats on the disabled path.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `name`. A delta of zero still
    /// creates the counter, so snapshots list every touched name.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect("metrics registry poisoned");
            // Looked up first: only a name's first touch allocates it.
            match inner.counters.get_mut(name) {
                Some(counter) => *counter += delta,
                None => {
                    inner.counters.insert(name.to_string(), delta);
                }
            }
        }
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect("metrics registry poisoned");
            match inner.histograms.get_mut(name) {
                Some(histogram) => histogram.observe(value),
                None => {
                    let mut histogram = Histogram::default();
                    histogram.observe(value);
                    inner.histograms.insert(name.to_string(), histogram);
                }
            }
        }
    }

    /// Current value of the counter `name` (0 if never written or if
    /// the registry is disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => {
                let inner = inner.lock().expect("metrics registry poisoned");
                inner.counters.get(name).copied().unwrap_or(0)
            }
            None => 0,
        }
    }

    /// Freezes the current state into an immutable, comparable value.
    /// A disabled registry snapshots to the empty default.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let inner = inner.lock().expect("metrics registry poisoned");
                MetricsSnapshot {
                    counters: inner
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                    histograms: inner
                        .histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                }
            }
            None => MetricsSnapshot::default(),
        }
    }
}

/// An immutable, ordered, comparable snapshot of a registry.
///
/// Both vectors are sorted by name (inherited from the `BTreeMap`s), so
/// equal recordings produce byte-equal JSON/CSV regardless of the order
/// in which subsystems wrote their metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Sorted `(name, value)` counter pairs.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// Sorted `(name, histogram)` pairs.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Value of counter `name`, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// True when nothing was recorded (or the registry was disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a deterministic JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, sum, buckets: [...]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {value}", json_string(name)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {}: {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                json_string(name),
                h.count,
                h.sum,
                buckets.join(", ")
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}");
        out
    }

    /// Renders the snapshot as CSV rows:
    /// `counter,<name>,<value>` and `histogram,<name>,<le>,<count>`
    /// (one row per non-empty bucket, `inf` for the overflow bucket).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,le,value\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("counter,{name},,{value}\n"));
        }
        for (name, h) in &self.histograms {
            for (i, count) in h.buckets.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                let le = BUCKET_BOUNDS
                    .get(i)
                    .map(u64::to_string)
                    .unwrap_or_else(|| "inf".to_string());
                out.push_str(&format!("histogram,{name},{le},{count}\n"));
            }
        }
        out
    }
}

/// Escapes a name for embedding in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::default();
        assert!(!m.is_enabled());
        m.incr("a");
        m.add("b", 10);
        m.observe("h", 3);
        assert_eq!(m.counter("a"), 0);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.incr("x");
        m2.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m2.counter("x"), 5);
    }

    #[test]
    fn histogram_buckets_partition_the_range() {
        let mut h = Histogram::default();
        h.observe(0); // <= 1
        h.observe(1); // <= 1
        h.observe(2); // <= 2
        h.observe(3); // <= 4
        h.observe(65536); // last finite bucket
        h.observe(65537); // +Inf
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 2 + 3 + 65536 + 65537);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[BUCKET_COUNT - 2], 1);
        assert_eq!(h.buckets()[BUCKET_COUNT - 1], 1);
    }

    #[test]
    fn snapshots_are_sorted_and_comparable() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        // Write in different orders; snapshots must still be equal.
        a.incr("z.last");
        a.incr("a.first");
        a.observe("h", 7);
        b.observe("h", 7);
        b.incr("a.first");
        b.incr("z.last");
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa, sb);
        assert_eq!(sa.to_json(), sb.to_json());
        assert_eq!(sa.to_csv(), sb.to_csv());
        assert_eq!(sa.counters()[0].0, "a.first");
        assert_eq!(sa.counter("z.last"), 1);
        assert_eq!(sa.counter("missing"), 0);
    }

    #[test]
    fn json_and_csv_render_shapes() {
        let m = MetricsRegistry::new();
        m.add("c", 2);
        m.observe("h", 3);
        let s = m.snapshot();
        let json = s.to_json();
        assert!(json.contains("\"c\": 2"));
        assert!(json.contains("\"count\": 1, \"sum\": 3"));
        let csv = s.to_csv();
        assert!(csv.starts_with("kind,name,le,value\n"));
        assert!(csv.contains("counter,c,,2\n"));
        assert!(csv.contains("histogram,h,4,1\n"));
    }

    #[test]
    fn zero_delta_still_creates_the_counter() {
        let m = MetricsRegistry::new();
        m.add("touched", 0);
        assert_eq!(m.snapshot().counters().len(), 1);
    }
}
