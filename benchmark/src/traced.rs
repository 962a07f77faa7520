//! The traced run (`--trace 1`): the same workload three more ways, to
//! split the end-to-end number into layers.
//!
//! * pass A — untraced, exactly the end-to-end body: the baseline the
//!   other passes are compared with, the process-wide allocation counts,
//!   the whole-body (`wall.*`) view, the repair-pass timing and, on
//!   `cluster-mixed`, the open-loop pass;
//! * pass B — the substrate wrapped in [`TimedDht`]: spans, self times,
//!   waves, per-op latency (`lat.*`), and `trace.overhead_share` = B ÷ A − 1
//!   (of the floors: the steadiest view of time per op this host gives);
//! * pass C — the program's own metrics registries switched on
//!   everywhere: frame, byte, dial, failover and shard-lock counts, and
//!   `obs.metrics_on_overhead_share` = C ÷ A − 1.
//!
//! The micro timings of `layers` follow. The oracles run on every pass.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use p2p_index_dht::{Dht, Key};
use p2p_index_net::ReplicationConfig;
use p2p_index_obs::MetricsRegistry;

use crate::run::{verify, Evidence, Report, RunArgs};
use crate::stats::{percentile, pooled_ns_per_op, quiet_pool, supported_tail, Segment};
use crate::trace::{self_times, write_jsonl, OpHooks, Span, TimedDht, NO_PARENT};
use crate::workload::{
    run_body, set_up, Guard, Reference, Script, Tally, Workload, REPLICAS, WRITE_QUORUM,
};

/// Spans kept in memory during pass B; the pass ends early rather than
/// overflow it. 40 bytes each.
const SPAN_CAPACITY: usize = 1_200_000;
/// Spans written to the trace file (the head of the store).
const SPANS_WRITTEN: usize = 100_000;

/// Where the trace file goes: `out/` beside this crate's manifest. `cargo
/// run` says where that is now; the compile-time path serves a binary run
/// by hand, and would be stale in a checkout moved after the build.
fn trace_path(workload: Workload) -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

fn write_trace(workload: Workload, spans: &[Span]) -> io::Result<PathBuf> {
    let path = trace_path(workload);
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
    let mut out = BufWriter::new(File::create(&path)?);
    write_jsonl(&spans[..spans.len().min(SPANS_WRITTEN)], &mut out)?;
    // A dropped BufWriter swallows write errors; surface them.
    out.flush()?;
    Ok(path)
}

pub(crate) fn run<D, G>(
    args: RunArgs,
    script: &Script,
    report: &mut Report,
    start: &impl Fn(&MetricsRegistry) -> io::Result<(D, G)>,
) -> Result<(), String>
where
    D: Dht + OpHooks,
    G: Guard,
{
    let off = MetricsRegistry::disabled();
    let mut reference = Reference::default();
    let mut evidence = Evidence::default();
    let mut tally = Tally::default();
    let is_mixed = script.workload == Workload::ClusterMixed;
    // Shares of `--seconds`: the open-loop pass only exists on one workload.
    let (share_a, share_b, share_c, share_open) = if is_mixed {
        (0.35, 0.25, 0.15, 0.25)
    } else {
        (0.45, 0.35, 0.20, 0.0)
    };

    // Pass A: untraced.
    let mut a = set_up(script, &mut reference, &off, || start(&off), &mut tally)?;
    evidence.warmup_interactions.push(a.warmup_interactions);
    crate::alloc::set_process_counting(true);
    let body_a = run_body(
        &mut a,
        script,
        &mut reference,
        args.seconds * share_a,
        |_| true,
    );
    crate::alloc::set_process_counting(false);
    tally.add(&body_a.tally);
    evidence
        .count_cycle_messages
        .push(body_a.count_cycle.dht_messages);
    let op_ns_a = body_a.quiet_ns_per_op();
    let cycle_ops = body_a.count_tally.ops as f64;
    {
        let v = &mut report.values;
        v.set("op_us", op_ns_a / 1e3);
        v.set("op_floor_us", body_a.floor_ns_per_op(script) / 1e3);
        v.set(
            "alloc.process_per_op",
            body_a.count_cycle.process_allocs as f64 / cycle_ops,
        );
        v.set(
            "alloc.bytes_per_op",
            body_a.count_cycle.process_bytes as f64 / cycle_ops,
        );
        v.set("wall.ops_per_s", 1e9 / body_a.whole_ns_per_op());
        v.set("wall.noise_share", 1.0 - op_ns_a / body_a.whole_ns_per_op());
        v.set(
            "net.server.ops_served_per_op",
            body_a.count_cycle.ops_served as f64 / cycle_ops,
        );
        v.set(
            "core.retry.retries_per_op",
            body_a.count_cycle.retries as f64 / cycle_ops,
        );
        v.set(
            "core.cache.hit_share",
            body_a.count_tally.cache_hits as f64 / body_a.count_tally.lookups.max(1) as f64,
        );
        // One synchronous pass on every member of the loaded cluster; the
        // members' own repair threads each run one such pass per interval.
        let repair_started = Instant::now();
        a.guard.repair_all();
        let repair_ms = repair_started.elapsed().as_secs_f64() * 1e3;
        // The interval the shipped constructor gives every member.
        let interval =
            ReplicationConfig::new(Key::ZERO, Vec::new(), REPLICAS, WRITE_QUORUM).repair_interval;
        if let (true, Some(interval)) = (script.workload.is_cluster(), interval) {
            v.set("net.server.repair_pass_ms", repair_ms);
            v.set(
                "net.server.repair_duty_share",
                repair_ms / (interval.as_secs_f64() * 1e3),
            );
        }
    }
    if is_mixed {
        let per_rate = args.seconds * share_open / crate::loadgen::RATES.len() as f64;
        let note = crate::loadgen::run(
            &mut a,
            script,
            &mut reference,
            per_rate,
            &mut report.values,
            &mut tally,
        );
        report.notes.push(note);
    }
    report
        .notes
        .push(format!("pass A (untraced): {}", body_a.timing_note(script)));
    drop(a);

    // Pass B: spans at the Dht boundary.
    let timed_start = || start(&off).map(|(dht, guard)| (TimedDht::new(dht, SPAN_CAPACITY), guard));
    let mut b = set_up(script, &mut reference, &off, timed_start, &mut tally)?;
    evidence.warmup_interactions.push(b.warmup_interactions);
    // The warm-up cycle's spans are not part of the measurement.
    b.service.dht_mut().recorder.reset();
    let body_b = run_body(
        &mut b,
        script,
        &mut reference,
        args.seconds * share_b,
        |dht| !dht.recorder.is_full(),
    );
    tally.add(&body_b.tally);
    evidence
        .count_cycle_messages
        .push(body_b.count_cycle.dht_messages);
    let recorder = &b.service.dht().recorder;
    let note = span_metrics(script, &body_b.segments, recorder.spans(), report);
    report.values.set(
        "trace.overhead_share",
        body_b.floor_overhead_share(&body_a, script),
    );
    report.notes.push(note);
    let waves = recorder.waves.max(1) as f64;
    report
        .values
        .set("core.service.waves_per_op", waves / body_b.tally.ops as f64);
    report.values.set(
        "core.service.dht_ops_per_wave",
        recorder.wave_ops as f64 / waves,
    );
    match write_trace(script.workload, recorder.spans()) {
        Ok(path) => report.notes.push(format!(
            "{} of {} spans written to {}",
            recorder.spans().len().min(SPANS_WRITTEN),
            recorder.spans().len(),
            path.display()
        )),
        Err(e) => report
            .oracle_errors
            .push(format!("trace file not written: {e}")),
    }
    drop(b);

    // Pass C: the program's own registries on.
    let registry = MetricsRegistry::new();
    let mut c = set_up(
        script,
        &mut reference,
        &registry,
        || start(&registry),
        &mut tally,
    )?;
    evidence.warmup_interactions.push(c.warmup_interactions);
    let before = registry.snapshot();
    let body_c = run_body(
        &mut c,
        script,
        &mut reference,
        args.seconds * share_c,
        |_| true,
    );
    let after = registry.snapshot();
    tally.add(&body_c.tally);
    evidence
        .count_cycle_messages
        .push(body_c.count_cycle.dht_messages);
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let ops_c = body_c.tally.ops as f64;
    let locks = delta("net.server.shard.read_locks") + delta("net.server.shard.write_locks");
    let contended =
        delta("net.server.shard.read_contended") + delta("net.server.shard.write_contended");
    {
        let v = &mut report.values;
        v.set(
            "obs.metrics_on_overhead_share",
            body_c.floor_overhead_share(&body_a, script),
        );
        v.set(
            "net.wire.bytes_per_op",
            (delta("net.bytes_out") + delta("net.bytes_in")) / ops_c,
        );
        v.set(
            "net.client.frames_per_op",
            (delta("net.frames_out") + delta("net.frames_in")) / ops_c,
        );
        v.set("net.client.cold_dials", delta("net.server.connections"));
        v.set("net.quorum.failovers", delta("net.quorum.failovers"));
        v.set(
            "net.server.shard_contended_share",
            if locks > 0.0 { contended / locks } else { 0.0 },
        );
    }
    report.notes.push(format!(
        "pass C (registries on): {}; {locks} shard lock acquisitions, {contended} contended",
        body_c.timing_note(script)
    ));

    report.count(&tally);
    verify(script, &reference, &evidence, &mut c.service, report)?;
    drop(c);
    crate::layers::measure(script, &mut report.values)
}

/// Everything read off pass B's spans: traced time per op and its split
/// into substrate time and self time, and the per-op latency view.
fn span_metrics(
    script: &Script,
    segments: &[Segment],
    spans: &[Span],
    report: &mut Report,
) -> String {
    // Operation spans are the roots; op ids count from the body's first
    // op and segments tile the cycle, so id ÷ segment size is the segment.
    let own = self_times(spans);
    let segment_of = |span: &Span| span.op as usize / script.segment_ops;
    let mut spans_in = vec![0u32; segments.len()];
    let mut self_ns_in = vec![0u64; segments.len()];
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.parent == NO_PARENT && segment_of(span) < segments.len() {
            spans_in[segment_of(span)] += 1;
            self_ns_in[segment_of(span)] += own_ns;
        }
    }
    // Segments whose op spans all made it into the store (the last one
    // may have been cut short by the capacity).
    let complete: Vec<usize> = (0..segments.len())
        .filter(|&i| spans_in[i] == segments[i].ops)
        .collect();
    let kept: Vec<Segment> = complete.iter().map(|&i| segments[i]).collect();
    let pool: Vec<usize> = quiet_pool(&kept).into_iter().map(|i| complete[i]).collect();
    let pooled_ops: f64 = pool.iter().map(|&i| f64::from(segments[i].ops)).sum();
    let op_ns_b = pooled_ns_per_op(segments, &pool);
    let v = &mut report.values;
    v.set(
        "dht.call_ns_per_op",
        pool.iter().map(|&i| segments[i].dht_ns).sum::<u64>() as f64 / pooled_ops,
    );
    v.set(
        "core.service.self_ns_per_op",
        pool.iter().map(|&i| self_ns_in[i]).sum::<u64>() as f64 / pooled_ops,
    );

    let micros = |filter: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        let mut out: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && filter(s))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    };
    let in_pool = |s: &Span| pool.contains(&segment_of(s));
    let is_write = |s: &Span| matches!(s.name, "op.publish" | "op.unpublish");
    let quiet = micros(&|s| in_pool(s));
    let mut note = String::from("pass B (traced): no complete segment");
    if !quiet.is_empty() {
        let (tail, tail_p) = supported_tail(&quiet);
        v.set("lat.p50_us", percentile(&quiet, 50.0));
        v.set("lat.p99_us", tail);
        v.set("lat.max_us", quiet[quiet.len() - 1]);
        note = format!(
            "pass B (traced): {:.3} us/op; lat.* over {} ops of {} pooled segments, tail = p{tail_p:.2}",
            op_ns_b / 1e3,
            quiet.len(),
            pool.len()
        );
    }
    let whole = micros(&|_| true);
    if !whole.is_empty() {
        v.set("wall.p99_us", supported_tail(&whole).0);
    }
    let reads = micros(&|s| in_pool(s) && !is_write(s));
    let writes = micros(&|s| in_pool(s) && is_write(s));
    if !writes.is_empty() && !reads.is_empty() {
        v.set("read.op_us", reads.iter().sum::<f64>() / reads.len() as f64);
        v.set(
            "write.op_us",
            writes.iter().sum::<f64>() / writes.len() as f64,
        );
        v.set("write.p99_us", supported_tail(&writes).0);
    }
    note
}
