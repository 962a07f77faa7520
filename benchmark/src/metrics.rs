//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` repeats this list; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A count taken over the first timed cycle: two runs of the same
    /// build and seed must agree to the last digit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: true,
    }
}

/// What a user of the system sees, the same six on every workload.
///
/// Time per op is *not* among them. The issue's rule is that a timed
/// metric which cannot hold its bound against itself is demoted to
/// `per_layer`, never given a wider bound, and `op_us` could not: two sets
/// of ten 20-s runs of one build gave spreads of 12–32 % against a bound
/// of 10 %, every workload slow together for minutes at a time (see the
/// README). It is reported by the traced run.
///
/// The count bounds are a little over three times the spread the counts
/// show across ten *seeds* (they are exact for one seed).
pub const END_TO_END: [Metric; 6] = [
    timed("setup_s", "s", 0.25),
    count("interactions_per_op", "count", 0.01),
    count("dht_messages_per_op", "count", 0.02),
    count("traffic_bytes_per_op", "bytes", 0.06),
    count("client_allocs_per_op", "count", 0.05),
    timed("peak_rss_mb", "MB", 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run, grouped by the module that
/// owns the layer. A metric that does not apply to a workload (the
/// open-loop pass off `cluster-mixed`, say) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // the whole op, untraced (pass A)
    layer("op_us", "us", Lower),
    layer("op_floor_us", "us", Lower),
    // xpath
    layer("xpath.parse_ns", "ns", Lower),
    layer("xpath.covers_ns", "ns", Lower),
    layer("xpath.generalize_ns", "ns", Lower),
    layer("xpath.msd_ns", "ns", Lower),
    // core
    layer("core.scheme.edges_ns", "ns", Lower),
    layer("core.scheme.edges_per_article", "count", Lower),
    layer("core.target.encode_ns", "ns", Lower),
    layer("core.target.decode_ns", "ns", Lower),
    layer("core.cache.get_ns", "ns", Lower),
    layer("core.cache.insert_ns", "ns", Lower),
    layer("core.cache.hit_share", "share", Higher),
    layer("core.service.self_ns_per_op", "ns", Lower),
    layer("core.service.waves_per_op", "count", Lower),
    layer("core.service.dht_ops_per_wave", "count", Higher),
    layer("core.retry.retries_per_op", "count", Lower),
    // dht
    layer("dht.key.hash_ns", "ns", Lower),
    layer("dht.ring.get_ns", "ns", Lower),
    layer("dht.ring.put_ns", "ns", Lower),
    layer("dht.sharded.get_ns", "ns", Lower),
    layer("dht.sharded.put_ns", "ns", Lower),
    layer("dht.sharded.remove_ns", "ns", Lower),
    layer("dht.placement.replica_keys_ns", "ns", Lower),
    layer("dht.call_ns_per_op", "ns", Lower),
    layer("dht.stored_bytes_per_article", "bytes", Lower),
    layer("dht.stored_values_per_article", "count", Lower),
    // net
    layer("net.wire.encode_request_ns", "ns", Lower),
    layer("net.wire.decode_request_ns", "ns", Lower),
    layer("net.wire.encode_response_ns", "ns", Lower),
    layer("net.wire.decode_response_ns", "ns", Lower),
    layer("net.wire.encode_batch16_ns", "ns", Lower),
    layer("net.wire.decode_batch16_ns", "ns", Lower),
    layer("net.wire.bytes_per_op", "bytes", Lower),
    layer("net.client.get_rtt_ns", "ns", Lower),
    layer("net.client.get_quorum_rtt_ns", "ns", Lower),
    layer("net.client.put_quorum_rtt_ns", "ns", Lower),
    layer("net.client.remove_quorum_rtt_ns", "ns", Lower),
    layer("net.client.batch16_rtt_ns", "ns", Lower),
    layer("net.transport.self_ns", "ns", Lower),
    layer("net.client.frames_per_op", "count", Lower),
    layer("net.client.cold_dials", "count", Lower),
    layer("net.quorum.failovers", "count", Lower),
    layer("net.server.ops_served_per_op", "count", Lower),
    layer("net.server.repair_pass_ms", "ms", Lower),
    layer("net.server.repair_duty_share", "share", Lower),
    layer("net.server.shard_contended_share", "share", Lower),
    // obs
    layer("obs.registry.incr_ns", "ns", Lower),
    layer("obs.metrics_on_overhead_share", "share", Lower),
    // alloc
    layer("alloc.process_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "bytes", Lower),
    // lat: per-op latency over the quiet pool
    layer("lat.p50_us", "us", Lower),
    layer("lat.p99_us", "us", Lower),
    layer("lat.max_us", "us", Lower),
    layer("read.op_us", "us", Lower),
    layer("write.op_us", "us", Lower),
    layer("write.p99_us", "us", Lower),
    // wall: unfiltered, whole body
    layer("wall.ops_per_s", "1/s", Higher),
    layer("wall.p99_us", "us", Lower),
    layer("wall.noise_share", "share", Lower),
    // trace
    layer("trace.overhead_share", "share", Lower),
    // loadgen: open loop on cluster-mixed
    layer("loadgen.r500.p50_us", "us", Lower),
    layer("loadgen.r500.p99_us", "us", Lower),
    layer("loadgen.r500.late_p99_us", "us", Lower),
    layer("loadgen.r500.backlog_end", "count", Lower),
    layer("loadgen.r1000.p50_us", "us", Lower),
    layer("loadgen.r1000.p99_us", "us", Lower),
    layer("loadgen.r1000.late_p99_us", "us", Lower),
    layer("loadgen.r1000.backlog_end", "count", Lower),
    layer("loadgen.r2000.p50_us", "us", Lower),
    layer("loadgen.r2000.p99_us", "us", Lower),
    layer("loadgen.r2000.late_p99_us", "us", Lower),
    layer("loadgen.r2000.backlog_end", "count", Lower),
    layer("loadgen.max_rate_ok", "1/s", Higher),
];

/// Why each workload exists — one line each, as `BENCHMARK.json` states it.
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "sim-lookup",
        "paper cell in-process (500-node ring, LRU(30) cache): only xpath, core and dht::ring work, net does nothing",
    ),
    (
        "cluster-lookup",
        "unary quorum gets over loopback TCP with the cache off: net does almost all the work, a cache change shows nothing",
    ),
    (
        "cluster-search",
        "full BFS searches on the same cluster: batched waves, long value lists, target decode and covers filtering",
    ),
    (
        "cluster-mixed",
        "lookups beside publish/unpublish: batched put waves, W=2 fan-out, tombstones, shard write locks, repair",
    ),
];

/// The measured values of one run, in catalogue order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every metric of `catalogue`, in its order; a metric nothing set
    /// reads 0 (it does not apply to this workload).
    pub fn in_order<'a>(
        &'a self,
        catalogue: &'a [Metric],
    ) -> impl Iterator<Item = (&'a Metric, f64)> + 'a {
        catalogue
            .iter()
            .map(move |m| (m, self.get(m.name).unwrap_or(0.0)))
    }

    /// Names that were set but are in neither catalogue: a typo guard.
    pub fn unknown(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let text_of = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let check = |listed: Vec<Json>, catalogue: &[Metric]| {
            assert_eq!(listed.len(), catalogue.len());
            for (j, m) in listed.iter().zip(catalogue) {
                assert_eq!(text_of(j, "name"), m.name);
                assert_eq!(text_of(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        };
        check(list("end_to_end"), &END_TO_END);
        check(list("per_layer"), PER_LAYER);
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOAD_WHY.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOAD_WHY) {
            assert_eq!(text_of(j, "name"), name);
            assert_eq!(text_of(j, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(crate::RUN_SECONDS))
        );
    }
}
