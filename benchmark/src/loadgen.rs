//! The open-loop pass (`loadgen.*`): the cycle's ops sent on a fixed
//! schedule, whatever the system's speed.
//!
//! Op `i` is due at `i / rate` seconds. One thread sends them in order and
//! waits for each answer, so when the system falls behind, later ops go
//! out late; their latency is still counted from the time they were *due*
//! (no coordinated omission), and how late the generator ran is reported
//! beside it. The backlog is the number of ops already due but not yet
//! answered.

use std::time::{Duration, Instant};

use p2p_index_dht::Dht;

use crate::metrics::Values;
use crate::stats::{percentile, supported_tail};
use crate::trace::OpHooks;
use crate::workload::{exec, Guard, Instance, Reference, Scratch, Script, Tally};

/// Offered rates, ops per second.
pub const RATES: [u32; 3] = [500, 1000, 2000];
/// A rate is sustained when its tail latency stays under this.
const LATENCY_LIMIT_US: f64 = 5_000.0;

struct RateResult {
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    backlog_mid: u64,
    backlog_end: u64,
}

/// Sends `rate` ops per second for `seconds`, starting at cycle position
/// `*cursor`.
fn offer<D: Dht + OpHooks, G: Guard>(
    instance: &mut Instance<D, G>,
    script: &Script,
    reference: &mut Reference,
    rate: u32,
    seconds: f64,
    cursor: &mut usize,
    tally: &mut Tally,
) -> RateResult {
    let scheduled = (f64::from(rate) * seconds) as u64;
    let window = Duration::from_secs_f64(seconds);
    let due_at = |i: u64| Duration::from_secs_f64(i as f64 / f64::from(rate));
    // Ops due by `elapsed`, capped at the schedule's length.
    let due_by =
        |elapsed: Duration| ((elapsed.as_secs_f64() * f64::from(rate)) as u64 + 1).min(scheduled);
    let mut result = RateResult {
        latencies_us: Vec::with_capacity(scheduled as usize),
        lateness_us: Vec::with_capacity(scheduled as usize),
        backlog_mid: 0,
        backlog_end: 0,
    };
    let mut scratch = Scratch::default();
    let mut mid_taken = false;
    let started = Instant::now();
    for i in 0..scheduled {
        let due = due_at(i);
        // Sleep most of the wait, spin the last stretch: a sleep alone
        // overshoots by a scheduler tick.
        loop {
            let now = started.elapsed();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent = started.elapsed();
        if sent >= window {
            break;
        }
        if !mid_taken && sent >= window / 2 {
            mid_taken = true;
            result.backlog_mid = due_by(sent) - i;
        }
        let index = *cursor % script.ops.len();
        *cursor += 1;
        let observed = exec(&mut instance.service, script, index, &mut scratch);
        let done = started.elapsed();
        tally.note(&observed, reference.accepts(script, index, &observed));
        result.latencies_us.push((done - due).as_secs_f64() * 1e6);
        result.lateness_us.push((sent - due).as_secs_f64() * 1e6);
    }
    let answered = result.latencies_us.len() as u64;
    result.backlog_end = due_by(window.min(started.elapsed())) - answered;
    result
}

/// Runs the three rates for `seconds_per_rate` each and records the
/// `loadgen.*` metrics.
pub fn run<D: Dht + OpHooks, G: Guard>(
    instance: &mut Instance<D, G>,
    script: &Script,
    reference: &mut Reference,
    seconds_per_rate: f64,
    v: &mut Values,
    tally: &mut Tally,
) -> String {
    const NAMES: [[&str; 4]; 3] = [
        [
            "loadgen.r500.p50_us",
            "loadgen.r500.p99_us",
            "loadgen.r500.late_p99_us",
            "loadgen.r500.backlog_end",
        ],
        [
            "loadgen.r1000.p50_us",
            "loadgen.r1000.p99_us",
            "loadgen.r1000.late_p99_us",
            "loadgen.r1000.backlog_end",
        ],
        [
            "loadgen.r2000.p50_us",
            "loadgen.r2000.p99_us",
            "loadgen.r2000.late_p99_us",
            "loadgen.r2000.backlog_end",
        ],
    ];
    let mut cursor = 0;
    let mut max_ok = 0u32;
    let mut note = String::from("open loop:");
    for (rate, names) in RATES.into_iter().zip(NAMES) {
        let mut r = offer(
            instance,
            script,
            reference,
            rate,
            seconds_per_rate,
            &mut cursor,
            tally,
        );
        if r.latencies_us.is_empty() {
            continue;
        }
        r.latencies_us.sort_by(f64::total_cmp);
        r.lateness_us.sort_by(f64::total_cmp);
        let (tail, tail_p) = supported_tail(&r.latencies_us);
        let (late_tail, _) = supported_tail(&r.lateness_us);
        v.set(names[0], percentile(&r.latencies_us, 50.0));
        v.set(names[1], tail);
        v.set(names[2], late_tail);
        v.set(names[3], r.backlog_end as f64);
        // A backlog that is no larger at the end than half-way is not
        // growing; one op in flight is always "due but unanswered".
        let growing = r.backlog_end > r.backlog_mid + 1;
        if tail <= LATENCY_LIMIT_US && !growing {
            max_ok = max_ok.max(rate);
        }
        note.push_str(&format!(
            " {rate}/s: {} answered, p{tail_p:.1} {tail:.0} us, backlog {}->{}{};",
            r.latencies_us.len(),
            r.backlog_mid,
            r.backlog_end,
            if growing { " (growing)" } else { "" },
        ));
    }
    v.set("loadgen.max_rate_ok", f64::from(max_ok));
    note
}
