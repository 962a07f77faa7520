//! One run of one workload: set-ups, the timed body, the oracles, and
//! the end-to-end metrics computed from them.

use std::collections::HashSet;
use std::io;

use p2p_index_core::IndexService;
use p2p_index_dht::Dht;
use p2p_index_obs::MetricsRegistry;

use crate::metrics::Values;
use crate::trace::OpHooks;
use crate::workload::{
    run_body, search_set, set_up, simulation_oracle, start_cluster, start_ring, twin_expectations,
    Guard, Op, Reference, Script, Tally, Workload, MEMBERS, READ_QUORUM, REPLICAS, WRITE_QUORUM,
};

/// How many times set-up runs on fresh state in an end-to-end run; the
/// last instance serves the body and `setup_s` is the smallest of them.
/// The first is always the slowest (fresh pages, cold caches), so three
/// set-ups give the minimum two real candidates.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations that are not a single op's failure (a total that
    /// does not match, a twin that disagrees with itself …).
    pub oracle_errors: Vec<String>,
    pub values: Values,
    /// Human-readable remarks printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracle_errors.is_empty() && self.attempted > 0
    }

    pub(crate) fn count(&mut self, tally: &Tally) {
        self.attempted += tally.ops;
        self.failed += tally.failed;
    }
}

/// What the oracles need to know about the passes that ran.
#[derive(Debug, Default)]
pub(crate) struct Evidence {
    /// Interactions summed over each set-up's warm-up cycle.
    pub warmup_interactions: Vec<u64>,
    /// `Dht::stats().messages` spent by each body's count cycle.
    pub count_cycle_messages: Vec<u64>,
}

pub fn run(args: RunArgs) -> Report {
    let mut report = Report::default();
    let script = Script::generate(args.workload, args.seed);
    let outcome = if args.workload.is_cluster() {
        let start = |metrics: &MetricsRegistry| {
            start_cluster(MEMBERS, REPLICAS, WRITE_QUORUM, READ_QUORUM, metrics)
        };
        passes(args, &script, &mut report, start)
    } else {
        passes(args, &script, &mut report, |_: &MetricsRegistry| {
            start_ring()
        })
    };
    if let Err(e) = outcome {
        report.oracle_errors.push(e);
    }
    let unknown = report.values.unknown();
    assert!(
        unknown.is_empty(),
        "metrics outside the catalogue: {unknown:?}"
    );
    report
}

fn passes<D, G>(
    args: RunArgs,
    script: &Script,
    report: &mut Report,
    start: impl Fn(&MetricsRegistry) -> io::Result<(D, G)>,
) -> Result<(), String>
where
    D: Dht + OpHooks,
    G: Guard,
{
    if args.trace {
        crate::traced::run(args, script, report, &start)
    } else {
        end_to_end(args, script, report, &start)
    }
}

fn end_to_end<D, G>(
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
    let mut warm = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Tear the previous instance down first: set-up runs on fresh
        // state and the process never holds two systems at once.
        drop(last.take());
        let instance = set_up(script, &mut reference, &off, || start(&off), &mut warm)?;
        evidence
            .warmup_interactions
            .push(instance.warmup_interactions);
        setups.push(instance.setup_s);
        last = Some(instance);
    }
    let mut instance = last.expect("SETUPS is at least one");
    report.count(&warm);

    let body = run_body(&mut instance, script, &mut reference, args.seconds, |_| {
        true
    });
    report.count(&body.tally);
    evidence
        .count_cycle_messages
        .push(body.count_cycle.dht_messages);

    let ops = body.count_tally.ops as f64;
    let v = &mut report.values;
    v.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    v.set(
        "interactions_per_op",
        body.count_tally.interactions as f64 / ops,
    );
    v.set(
        "dht_messages_per_op",
        body.count_cycle.dht_messages as f64 / ops,
    );
    v.set(
        "traffic_bytes_per_op",
        body.count_cycle.traffic_bytes as f64 / ops,
    );
    v.set(
        "client_allocs_per_op",
        body.count_cycle.thread_allocs as f64 / ops,
    );
    v.set("peak_rss_mb", body.peak_rss_kib as f64 / 1024.0);
    report.notes.push(format!(
        "set-ups {setups:.3?} s; {}",
        body.timing_note(script)
    ));

    // The oracles build a second copy of the system, so they run after
    // `peak_rss_mb` was read.
    verify(script, &reference, &evidence, &mut instance.service, report)
}

/// The oracles, run once per run against the recorded answers:
///
/// * `sim-lookup` — every warm-up cycle took exactly the interactions the
///   repository's `Simulation` counts for the same cell;
/// * `cluster-*` — every recorded answer equals an in-process `RingDht`
///   twin's, the count cycle spent exactly the twin's DHT messages, and
///   every distinct search's full result set equals the twin's.
pub(crate) fn verify<D: Dht>(
    script: &Script,
    reference: &Reference,
    evidence: &Evidence,
    service: &mut IndexService<D>,
    report: &mut Report,
) -> Result<(), String> {
    if !script.workload.is_cluster() {
        let total = simulation_oracle(script)?;
        for &warm in &evidence.warmup_interactions {
            if warm != total {
                report.oracle_errors.push(format!(
                    "a warm-up cycle took {warm} interactions, Simulation takes {total}"
                ));
            }
        }
        return Ok(());
    }

    let (expected, twin_messages, mut twin) = twin_expectations(script)?;
    let wrong = expected
        .iter()
        .zip(reference.answers())
        .filter(|(twin, ours)| twin != ours)
        .count() as u64
        + expected.len().abs_diff(reference.answers().len()) as u64;
    report.attempted += expected.len() as u64;
    report.failed += wrong;
    for &messages in &evidence.count_cycle_messages {
        if messages != twin_messages {
            report.oracle_errors.push(format!(
                "a count cycle spent {messages} DHT messages, the RingDht twin spends {twin_messages}"
            ));
        }
    }
    let mut seen = HashSet::new();
    for op in &script.ops {
        let Op::Search { query } = op else { continue };
        if !seen.insert(query.canonical_text()) {
            continue;
        }
        report.attempted += 1;
        let theirs = search_set(&mut twin, query);
        if theirs.is_none() || search_set(service, query) != theirs {
            report.failed += 1;
        }
    }
    Ok(())
}
