//! Spans recorded from outside the program.
//!
//! [`TimedDht`] decorates the `Dht` handed to `IndexService`, so every
//! call the index layer makes into the substrate becomes a span whose
//! parent is the benchmark operation (lookup, search, publish …) that
//! caused it. An operation's *self time* is its span minus the part its
//! children cover: that is the time spent in xpath + core (+ the user
//! model), while the children are dht + net. Counts (waves, ops per wave)
//! are taken at the same boundary. Spans stay in memory and are written
//! as JSON lines when the run ends.

use std::io::{self, Write};
use std::time::Instant;

use bytes::Bytes;
use p2p_index_dht::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId, RingDht};
use p2p_index_net::RemoteDht;
use p2p_index_obs::MetricsRegistry;

use crate::json::{obj, Json};

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `op.lookup` or `dht.execute`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The benchmark operation this span belongs to (shared by a request's
    /// spans).
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = spans.get(span.parent as usize) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
/// "parent", "op"}`, `parent` null for root spans.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT {
            Json::Null
        } else {
            Json::from(u64::from(span.parent))
        };
        let line = obj([
            ("id", Json::from(id as u64)),
            ("name", Json::from(span.name)),
            ("start_ns", Json::from(span.start_ns)),
            ("end_ns", Json::from(span.end_ns)),
            ("parent", parent),
            ("op", Json::from(u64::from(span.op))),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    Ok(())
}

/// In-memory span store plus the counts taken at the `Dht` boundary.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans are dropped (counts keep running) past this many, so a fast
    /// workload cannot grow the store without bound.
    capacity: usize,
    /// Index of the open operation span, or [`NO_PARENT`].
    current: u32,
    current_op: u32,
    /// `Dht::execute` + `Dht::execute_many` calls.
    pub waves: u64,
    /// Ops carried by those calls.
    pub wave_ops: u64,
    /// Nanoseconds inside those calls.
    pub dht_ns: u64,
}

impl Recorder {
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            current: NO_PARENT,
            current_op: 0,
            waves: 0,
            wave_ops: 0,
            dht_ns: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets everything recorded so far; the epoch stays.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.current = NO_PARENT;
        self.waves = 0;
        self.wave_ops = 0;
        self.dht_ns = 0;
    }

    /// `true` once the store is full and further spans are being dropped.
    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.capacity
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, op: u32) -> (u32, u64) {
        let start_ns = self.now_ns();
        if self.is_full() {
            return (NO_PARENT, start_ns);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        ((self.spans.len() - 1) as u32, start_ns)
    }

    /// Closes span `id` and returns its duration.
    fn close(&mut self, id: u32, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        end_ns - start_ns
    }
}

/// What the load generator tells the substrate decorator about the
/// operation in flight. The plain substrates ignore it, which is what
/// keeps the untraced run free of any benchmark code on the program's
/// path.
pub trait OpHooks {
    fn op_begin(&mut self, _name: &'static str, _op: u32) {}
    fn op_end(&mut self) {}
    /// Nanoseconds spent inside substrate calls so far (0 when untimed).
    fn dht_ns(&self) -> u64 {
        0
    }
}

impl OpHooks for RingDht {}
impl OpHooks for RemoteDht {}

/// A `Dht` decorator that records one span per substrate call.
pub struct TimedDht<D> {
    inner: D,
    pub recorder: Recorder,
    open_start_ns: u64,
}

impl<D> TimedDht<D> {
    pub fn new(inner: D, capacity: usize) -> TimedDht<D> {
        TimedDht {
            inner,
            recorder: Recorder::new(capacity),
            open_start_ns: 0,
        }
    }
}

impl<D> OpHooks for TimedDht<D> {
    fn op_begin(&mut self, name: &'static str, op: u32) {
        let (id, start_ns) = self.recorder.open(name, NO_PARENT, op);
        self.recorder.current = id;
        self.recorder.current_op = op;
        self.open_start_ns = start_ns;
    }

    fn op_end(&mut self) {
        let id = self.recorder.current;
        self.recorder.close(id, self.open_start_ns);
        self.recorder.current = NO_PARENT;
    }

    fn dht_ns(&self) -> u64 {
        self.recorder.dht_ns
    }
}

impl<D: Dht> Dht for TimedDht<D> {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        let rec = &mut self.recorder;
        let (id, start_ns) = rec.open("dht.execute", rec.current, rec.current_op);
        let result = self.inner.execute(op);
        let rec = &mut self.recorder;
        rec.dht_ns += rec.close(id, start_ns);
        rec.waves += 1;
        rec.wave_ops += 1;
        result
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        let count = ops.len() as u64;
        let rec = &mut self.recorder;
        let (id, start_ns) = rec.open("dht.execute_many", rec.current, rec.current_op);
        let results = self.inner.execute_many(ops);
        let rec = &mut self.recorder;
        rec.dht_ns += rec.close(id, start_ns);
        rec.waves += 1;
        rec.wave_ops += count;
        results
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.inner.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.inner.get(key)
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        self.inner.entries()
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.inner.set_metrics(metrics);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(0, 100, NO_PARENT), // 0: root
            span(10, 30, 0),         // 1
            span(20, 50, 0),         // 2: overlaps 1 → union 10..50
            span(60, 70, 0),         // 3
            span(22, 28, 2),         // 4: grandchild, charged to 2 only
            span(90, 130, 0),        // 5: clipped to 90..100
            span(0, 0, 0),           // 6: empty child
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 6);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 40);
        // Self times of a tree whose children nest properly add up to
        // the root's duration.
        let nested = [
            span(0, 50, NO_PARENT),
            span(5, 25, 0),
            span(30, 45, 0),
            span(6, 9, 1),
        ];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 50);
    }

    #[test]
    fn timed_dht_parents_substrate_calls_under_the_open_operation() {
        let mut dht = TimedDht::new(RingDht::with_named_nodes(3), 16);
        let key = Key::hash_of("k");
        dht.op_begin("op.publish", 7);
        assert!(dht.put(key, Bytes::from_static(b"v")));
        let got = dht.execute_many(vec![DhtOp::Get(key), DhtOp::NodeFor(key)]);
        dht.op_end();
        assert_eq!(got.len(), 2);
        assert_eq!(Dht::get(&dht, &key), vec![Bytes::from_static(b"v")]);

        let rec = &dht.recorder;
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["op.publish", "dht.execute", "dht.execute_many"]);
        assert_eq!(rec.spans()[0].parent, NO_PARENT);
        assert!(rec.spans()[1..].iter().all(|s| s.parent == 0 && s.op == 7));
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!((rec.waves, rec.wave_ops), (2, 3));
        let own = self_times(rec.spans());
        assert_eq!(
            own[0] + rec.spans()[1].duration_ns() + rec.spans()[2].duration_ns(),
            rec.spans()[0].duration_ns()
        );
        assert_eq!(
            rec.dht_ns,
            rec.spans()[1].duration_ns() + rec.spans()[2].duration_ns()
        );
    }

    #[test]
    fn a_full_store_drops_spans_but_keeps_counting() {
        let mut dht = TimedDht::new(RingDht::with_named_nodes(1), 2);
        for i in 0..5 {
            dht.op_begin("op.lookup", i);
            let _ = dht.execute(DhtOp::Get(Key::hash_of("k")));
            dht.op_end();
        }
        assert_eq!(dht.recorder.spans().len(), 2);
        assert!(dht.recorder.is_full());
        assert_eq!(dht.recorder.waves, 5);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let spans = [span(1, 5, NO_PARENT), span(2, 3, 0)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("end_ns").and_then(Json::as_f64), Some(3.0));
    }
}
