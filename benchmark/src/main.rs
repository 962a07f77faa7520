//! `p2p-bench`: the repository's benchmark.
//!
//! ```text
//! p2p-bench run --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! p2p-bench run --all             [--seed n] [--seconds s] [--trace 0|1]
//! p2p-bench selfcheck [--runs n] [--seed n] [--seconds s] [--out file]
//! ```
//!
//! `run` prints remarks and one line per metric, then — as the last line
//! of standard output — one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`. It exits 0 only when the result
//! is correct.

mod alloc;
mod host;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;

use json::{obj, Json};
use metrics::{Metric, END_TO_END, PER_LAYER};
use run::{Report, RunArgs};
use workload::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;

const USAGE: &str = "usage:
  p2p-bench run (--workload <name> | --all) [--seed n] [--seconds s] [--trace 0|1]
  p2p-bench selfcheck [--runs n] [--seed n] [--seconds s] [--out file]
workloads: sim-lookup cluster-lookup cluster-search cluster-mixed";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, rest)) if command == "selfcheck" => selfcheck::command(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, each flag at most once.
pub(crate) struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Splits `args` into pairs; `switches` are flags that take no value.
    pub fn parse(
        args: &'a [String],
        allowed: &[&str],
        switches: &[&str],
    ) -> Result<Flags<'a>, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) && !switches.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}\n{USAGE}"));
            }
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = if switches.contains(&flag.as_str()) {
                ""
            } else {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            };
            pairs.push((flag.as_str(), value));
        }
        Ok(Flags(pairs))
    }

    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number")),
        }
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--all"],
    )?;
    let seconds: f64 = flags.number("--seconds", f64::from(RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is outside 0..=3600"));
    }
    let trace = match flags.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seed: u64 = flags.number("--seed", 1)?;
    let workloads: Vec<Workload> = match (flags.get("--workload"), flags.get("--all")) {
        (Some(name), None) => vec![Workload::from_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?],
        (None, Some(_)) => Workload::ALL.to_vec(),
        _ => return Err(format!("give exactly one of --workload and --all\n{USAGE}")),
    };
    let args_for = |workload| RunArgs {
        workload,
        seed,
        seconds,
        trace,
    };
    if let [workload] = workloads[..] {
        let args = args_for(workload);
        let report = run::run(args);
        print_report(&args, &report);
        return Ok(if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    // One child process per workload: `peak_rss_mb` is a high-water mark
    // of the process, so workloads must not share one.
    let mut all_correct = true;
    for workload in workloads {
        let (stdout, correct) = selfcheck::child_run(&args_for(workload))?;
        print!("{stdout}");
        all_correct &= correct;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The metrics a run reports, by mode.
fn catalogue(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        &END_TO_END
    }
}

fn print_report(args: &RunArgs, report: &Report) {
    println!(
        "# p2p-bench {} seed {} seconds {} trace {} host {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint().render()
    );
    println!("# why: {}", args.workload.why());
    for note in &report.notes {
        println!("# {note}");
    }
    for error in &report.oracle_errors {
        println!("# ORACLE VIOLATED: {error}");
    }
    let catalogue = catalogue(args.trace);
    for (metric, value) in report.values.in_order(catalogue) {
        let bound = metric
            .bound
            .map_or(String::new(), |b| format!(", bound {b}"));
        println!(
            "{:<36} {value:>16.4} {:<6} ({} is better{bound})",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    let metrics = obj(report.values.in_order(catalogue).map(|(metric, value)| {
        (
            metric.name,
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::from(metric.unit)),
            ]),
        )
    }));
    let result = obj([
        ("correct", Json::from(report.correct())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}
