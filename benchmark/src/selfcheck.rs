//! `p2p-bench selfcheck`: the benchmark measured against itself.
//!
//! Two sets of runs of the same build, alternating (A₀ B₀ A₁ B₁ …), every
//! workload in each. Run `r` of both sets uses seed `base + r`, so the
//! sets see the same inputs and each set's spread includes the change of
//! seed, as the acceptance driver's does. The check fails when
//!
//! * an exact count differs between the two runs of a pair (beyond one
//!   part in 10⁵, see [`EXACT_TOLERANCE`]), or
//! * a metric's set medians differ by more than its bound, or
//! * a metric's spread within a set (interquartile distance over median)
//!   exceeds its bound (`setup_s` exempt, as in the driver).
//!
//! A timed metric that fails here is to be demoted to `per_layer`, never
//! given a wider bound.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{obj, Json};
use crate::metrics::END_TO_END;
use crate::run::RunArgs;
use crate::stats::{iqr_share, median, quartiles};
use crate::workload::Workload;
use crate::{host, Flags, RUN_SECONDS};

/// How far the two runs of a pair may differ in a count that is otherwise
/// exact. Every count is a pure function of the inputs except
/// `client_allocs_per_op` with the shortcut cache on: std's `HashMap`
/// seeds are random per process, and whether a table that has seen
/// removals rehashes in place or grows depends on where its tombstones
/// fell. That moves `sim-lookup` by one or two allocations in a
/// 50,000-op cycle (4·10⁻⁷); anything larger is a real difference.
const EXACT_TOLERANCE: f64 = 1e-5;

/// Runs one workload in a child process of this same executable and
/// returns its standard output and whether it reported a correct result.
pub fn child_run(args: &RunArgs) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child run failed to start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    Ok((stdout, output.status.success()))
}

/// The metrics object of a run's result line.
fn result_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("child reported an incorrect result: {line}"));
    }
    let metrics = result.get("metrics").ok_or("result line has no metrics")?;
    metrics
        .members()
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect()
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--runs", "--seed", "--seconds", "--out"], &[])?;
    let runs: usize = flags.number("--runs", 3)?;
    if runs < 3 {
        return Err("--runs must be at least 3".to_string());
    }
    let seed: u64 = flags.number("--seed", 1)?;
    let seconds: f64 = flags.number("--seconds", f64::from(RUN_SECONDS))?;

    // values[workload][set][metric] = one value per run.
    let mut values = vec![
        [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()]
        ];
        Workload::ALL.len()
    ];
    for r in 0..runs {
        for set in 0..2 {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let args = RunArgs {
                    workload,
                    seed: seed + r as u64,
                    seconds,
                    trace: false,
                };
                let (stdout, _) = child_run(&args)?;
                let measured = result_metrics(&stdout).map_err(|e| {
                    format!(
                        "{} run {r} of set {}: {e}",
                        workload.name(),
                        ["A", "B"][set]
                    )
                })?;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = measured
                        .iter()
                        .find(|(name, _)| name == metric.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("{} missing from a result line", metric.name))?;
                    values[w][set][m].push(value);
                }
                eprintln!(
                    "selfcheck: run {r} set {} {} done",
                    ["A", "B"][set],
                    workload.name()
                );
            }
        }
    }

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    println!(
        "{:<15} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "A/A", "iqr A", "iqr B", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let [a, b] = &values[w];
            let (a, b) = (&a[m], &b[m]);
            let (med_a, med_b) = (median(a), median(b));
            let difference = (med_b - med_a).abs() / med_a.abs().max(f64::MIN_POSITIVE);
            let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
            let mut verdict = Vec::new();
            let pair_differs = |(x, y): (&f64, &f64)| (x - y).abs() > EXACT_TOLERANCE * x.abs();
            if metric.exact && a.iter().zip(b).any(pair_differs) {
                verdict.push("exact count differs between sets");
            }
            if difference > bound {
                verdict.push("set medians differ by more than the bound");
            }
            if metric.name != "setup_s" && spread_a.max(spread_b) > bound {
                verdict.push("spread exceeds the bound");
            }
            let steady = metric.name == "setup_s" || spread_a.max(spread_b) <= bound / 3.0;
            let text = match (verdict.is_empty(), steady) {
                (true, true) => "ok".to_string(),
                (true, false) => "ok (spread above a third of the bound)".to_string(),
                (false, _) => verdict.join("; "),
            };
            println!(
                "{:<15} {:<22} {med_a:>12.4} {med_b:>12.4} {difference:>8.4} {spread_a:>8.4} {spread_b:>8.4} {bound:>6}  {text}",
                workload.name(),
                metric.name
            );
            if !verdict.is_empty() {
                failures.push(format!("{} {}: {text}", workload.name(), metric.name));
            }
            let set_json = |v: &[f64], med: f64, spread: f64| {
                obj([
                    (
                        "values",
                        Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                    ),
                    ("median", Json::Num(med)),
                    (
                        "quartiles",
                        Json::Arr(quartiles(v).iter().map(|q| Json::Num(*q)).collect()),
                    ),
                    ("iqr_share", Json::Num(spread)),
                ])
            };
            rows.push(obj([
                ("workload", Json::from(workload.name())),
                ("metric", Json::from(metric.name)),
                ("unit", Json::from(metric.unit)),
                ("bound", Json::Num(bound)),
                ("exact", Json::from(metric.exact)),
                ("set_a", set_json(a, med_a, spread_a)),
                ("set_b", set_json(b, med_b, spread_b)),
                ("median_difference_share", Json::Num(difference)),
                ("verdict", Json::from(text)),
            ]));
        }
    }
    let document = obj([
        ("schema", Json::from("p2p-bench-selfcheck-1")),
        ("host", host::fingerprint()),
        ("runs_per_set", Json::from(runs as u64)),
        ("first_seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("passed", Json::from(failures.is_empty())),
        ("metrics", Json::Arr(rows)),
    ]);
    if let Some(path) = flags.get("--out") {
        std::fs::write(path, document.render_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("written to {path}");
    }
    for failure in &failures {
        println!("FAILED: {failure}");
    }
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
