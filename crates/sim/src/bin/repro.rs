//! `repro` — regenerate any table or figure of the paper's evaluation,
//! and run the pieces that are not tables: `trace`, `hotspot`, and the
//! networked `serve` / `net-demo` pair. Run it without arguments for the
//! subcommands and their flags ([`usage`] is the one copy of that text).
//!
//! Default scale is the paper's (500 nodes, 10 000 articles, 50 000
//! queries); `--small` runs a fast scaled-down version with the same
//! qualitative shapes.
//!
//! `--jobs N` runs independent simulation cells on up to `N` worker
//! threads (`0` = all cores, default `1`). Cell seeds are fixed per cell,
//! so the emitted tables and CSVs are byte-identical at any job count.
//!
//! `--metrics FILE` attaches the observability registry to every cell and
//! writes the per-cell counter/histogram snapshots as deterministic JSON —
//! identical at any `--jobs` count.
//!
//! `trace <query>` prepares the network, runs one automated search with
//! lookup tracing enabled, and pretty-prints the span tree: generalization
//! steps, index hops, per-hop DHT operations, cache probes.
//!
//! `serve` runs one networked DHT node (`dhtd`): one node's partition
//! store (optionally with `--loss` injected in front of it) behind the
//! `crates/net` wire protocol, until it receives a shutdown frame.
//! `net-demo` is the matching client: it points the full indexing stack
//! at a running cluster over TCP. See the README's
//! networking quickstart for a 5-node loopback ring.
//!
//! `hotspot` runs the skewed-load scenario: a flash crowd on one title
//! over a 10 000-node ring, once with the balance subsystem observing
//! only and once mitigating (hot-key read fan-out). It prints the
//! per-node imbalance tables and, under `--csv DIR`, writes them as CSVs
//! beside the whole report as `hotspot.json`. Exits non-zero unless the
//! mitigation lowers the hottest node's ops without worsening the
//! max/mean load ratio.
//!
//! Nothing here times anything: throughput, latency and allocation
//! counts are `p2p-bench`'s (`BENCHMARK.json`, `benchmark/`).

use std::fmt::Display;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use p2p_index_core::CachePolicy;
use p2p_index_sim::exec::resolve_jobs;
use p2p_index_sim::experiments::{self, EvalConfig, Evaluation};
use p2p_index_sim::hotspot::{self, HotspotConfig};
use p2p_index_sim::netd::{self, NetDemoOptions, ServeOptions};
use p2p_index_sim::simulation::{SchemeChoice, SimConfig, Simulation};
use p2p_index_sim::table::TextTable;
use p2p_index_xpath::Query;

fn usage() -> String {
    "usage: repro <fig7|fig9|fig10|fig11|fig12|fig13|fig14|fig15|table1|storage|ext-structures|ext-churn|robustness|all> \
     [--small] [--nodes N] [--articles N] [--queries N] [--seed N] [--csv DIR] [--jobs N] [--metrics FILE]\n\
     \x20      repro trace <query> [--small] [--nodes N] [--articles N] [--seed N]\n\
     \x20      repro serve [--port N] [--node-name NAME] [--loss F] [--fault-seed N] \
     [--replicas R] [--quorum W,RQ] [--peers NAME=HOST:PORT,...] [--repair-ms N]\n\
     \x20      repro net-demo --members HOST:PORT,... [--articles N] [--queries N] [--seed N] [--replicas R] [--quorum W,RQ] [--shutdown]\n\
     \x20      repro hotspot [--small] [--csv DIR] [--nodes N] [--articles N] [--queries N] [--seed N] \
     [--hot-rank N] [--boost F] [--threshold N] [--fanout N]"
        .to_string()
}

/// A cursor over the command line. Every flag's value goes through
/// [`parse_as`], straight into the type of the field it sets, so a
/// missing, malformed or out-of-range value is rejected naming the flag.
struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// The next argument as it was typed: the subcommand, a positional,
    /// or the name of the next flag.
    fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The text after `flag`.
    fn text(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value after `flag`.
    fn value<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        parse_as(flag, &self.text(flag)?)
    }

    /// The value after `flag`, which must be at least 1: a network of no
    /// nodes or a corpus of no articles has nothing to measure.
    fn count(&mut self, flag: &str) -> Result<usize, String> {
        let text = self.text(flag)?;
        match parse_as(flag, &text)? {
            0 => Err(format!("{flag} {text:?}: must be at least 1")),
            n => Ok(n),
        }
    }

    /// The comma-separated values after `flag`.
    fn list<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<Vec<T>, String> {
        self.text(flag)?
            .split(',')
            .map(|part| parse_as(flag, part.trim()))
            .collect()
    }

    /// `--quorum W,RQ` as `(write_quorum, read_quorum)`; one number sets
    /// both.
    fn quorum(&mut self) -> Result<(usize, usize), String> {
        match self.list("--quorum")?[..] {
            [both] => Ok((both, both)),
            [w, rq] => Ok((w, rq)),
            _ => Err("--quorum takes W,RQ (or one number for both)".to_string()),
        }
    }
}

fn parse_as<T: FromStr<Err: Display>>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|e| format!("{flag} {text:?}: {e}"))
}

fn unknown_flag(flag: &str) -> String {
    format!("unknown flag {flag}\n{}", usage())
}

/// One exhibit: the name it is asked for by, the stem of its CSV file,
/// and the function that renders it (given the grid and `--jobs`).
type Exhibit = (
    &'static str,
    &'static str,
    fn(&mut Evaluation, usize) -> TextTable,
);

/// Every exhibit, in the order `all` prints them. `robustness` comes last
/// because `all` leaves it out: the loss × budget sweep re-publishes the
/// corpus per cell, and `all` stays the exact paper reproduction (faults
/// are an extension).
static EXHIBITS: [Exhibit; 13] = [
    ("fig7", "fig7", |_, _| experiments::fig7_query_mix()),
    ("fig9", "fig9", |_, _| experiments::fig9_popularity()),
    ("fig10", "fig10", |_, _| experiments::fig10_ccdf()),
    ("storage", "storage", |eval, _| {
        experiments::storage_overhead(eval.config())
    }),
    ("fig11", "fig11", |eval, _| {
        experiments::fig11_interactions(eval)
    }),
    ("fig12", "fig12", |eval, _| experiments::fig12_traffic(eval)),
    ("fig13", "fig13", |eval, _| {
        experiments::fig13_hit_ratio(eval)
    }),
    ("fig14", "fig14", |eval, _| {
        experiments::fig14_cache_storage(eval)
    }),
    ("fig15", "fig15", |eval, _| {
        experiments::fig15_hotspots(eval)
    }),
    ("table1", "table1", |eval, _| {
        experiments::table1_errors(eval)
    }),
    ("ext-structures", "ext_structures", |eval, _| {
        experiments::ext_structure_breakdown(eval)
    }),
    ("ext-churn", "ext_churn", |eval, _| {
        experiments::ext_churn(eval.config())
    }),
    ("robustness", "ext_robustness", |eval, jobs| {
        experiments::ext_robustness(eval.config(), jobs)
    }),
];

/// The exhibits `name` selects, if it names any.
fn exhibits_named(name: &str) -> Option<&'static [Exhibit]> {
    if name == "all" {
        return Some(&EXHIBITS[..EXHIBITS.len() - 1]);
    }
    let at = EXHIBITS.iter().position(|exhibit| exhibit.0 == name)?;
    Some(&EXHIBITS[at..=at])
}

/// What `repro <exhibit>` and `repro trace <query>` were asked to do.
struct EvalArgs {
    /// Empty for `trace`.
    exhibits: &'static [Exhibit],
    /// The query to trace, for `trace`.
    query: Option<String>,
    config: EvalConfig,
    csv_dir: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    jobs: usize,
}

fn parse_eval(command: &str, mut flags: Flags) -> Result<EvalArgs, String> {
    let (exhibits, query): (&[Exhibit], _) = if command == "trace" {
        let query = flags.next().ok_or("trace needs a query argument")?;
        (&[], Some(query))
    } else {
        let exhibits = exhibits_named(command)
            .ok_or_else(|| format!("unknown exhibit {command:?}\n{}", usage()))?;
        (exhibits, None)
    };
    let mut args = EvalArgs {
        exhibits,
        query,
        config: EvalConfig::paper(),
        csv_dir: None,
        metrics_path: None,
        jobs: 1,
    };
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--small" => args.config = EvalConfig::small(),
            "--nodes" => args.config.nodes = flags.count(&flag)?,
            "--articles" => args.config.articles = flags.count(&flag)?,
            "--queries" => args.config.queries = flags.value(&flag)?,
            "--seed" => args.config.seed = flags.value(&flag)?,
            "--csv" => args.csv_dir = Some(flags.value(&flag)?),
            "--metrics" => args.metrics_path = Some(flags.value(&flag)?),
            "--jobs" => args.jobs = resolve_jobs(flags.value(&flag)?),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(args)
}

fn parse_serve(mut flags: Flags) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--port" => opts.port = flags.value(&flag)?,
            "--node-name" => opts.node_name = flags.value(&flag)?,
            "--loss" => {
                // A probability: 1.5 would clamp to "lose everything" and
                // NaN would mean "lose nothing", both silently.
                let text = flags.text(&flag)?;
                opts.loss = parse_as(&flag, &text)?;
                if !(0.0..=1.0).contains(&opts.loss) {
                    return Err(format!("{flag} {text:?}: must be within 0..=1"));
                }
            }
            "--fault-seed" => opts.fault_seed = flags.value(&flag)?,
            "--replicas" => opts.replicas = flags.value(&flag)?,
            "--quorum" => opts.write_quorum = flags.quorum()?.0,
            "--peers" => {
                for peer in flags.list::<String>(&flag)? {
                    let (name, addr) = peer
                        .split_once('=')
                        .ok_or_else(|| format!("--peers {peer:?}: expected NAME=HOST:PORT"))?;
                    opts.peers.push((name.to_string(), parse_as(&flag, addr)?));
                }
            }
            "--repair-ms" => opts.repair_ms = flags.value(&flag)?,
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(opts)
}

fn parse_net_demo(mut flags: Flags) -> Result<NetDemoOptions, String> {
    let mut opts = NetDemoOptions::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--members" => opts.members.extend(flags.list::<SocketAddr>(&flag)?),
            "--articles" => opts.articles = flags.value(&flag)?,
            "--queries" => opts.queries = flags.value(&flag)?,
            "--seed" => opts.seed = flags.value(&flag)?,
            "--replicas" => opts.replicas = flags.value(&flag)?,
            "--quorum" => opts.read_quorum = flags.quorum()?.1,
            "--shutdown" => opts.shutdown = true,
            other => return Err(unknown_flag(other)),
        }
    }
    if opts.members.is_empty() {
        return Err("net-demo needs --members HOST:PORT,...".to_string());
    }
    Ok(opts)
}

fn parse_hotspot(mut flags: Flags) -> Result<(HotspotConfig, Option<PathBuf>), String> {
    let mut config = HotspotConfig::paper();
    let mut csv_dir = None;
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--small" => config = HotspotConfig::small(),
            "--nodes" => config.nodes = flags.count(&flag)?,
            "--articles" => config.articles = flags.count(&flag)?,
            "--queries" => config.queries = flags.value(&flag)?,
            "--seed" => config.seed = flags.value(&flag)?,
            "--hot-rank" => config.hot_rank = flags.value(&flag)?,
            "--boost" => config.boost = flags.value(&flag)?,
            "--threshold" => config.hot_threshold = flags.value(&flag)?,
            "--fanout" => config.fanout = flags.value(&flag)?,
            "--csv" => csv_dir = Some(flags.value(&flag)?),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok((config, csv_dir))
}

/// `fs::write`, creating the file's parent directory first so `--metrics
/// results/metrics.json` works before any CSV has created `results/`.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Prints `table` and, under `--csv`, writes it as `<name>.csv`.
fn emit(table: &TextTable, csv_dir: Option<&Path>, name: &str) -> Result<(), String> {
    print!("{}", table.to_text());
    println!();
    match csv_dir {
        Some(dir) => write_file(&dir.join(format!("{name}.csv")), &table.to_csv()),
        None => Ok(()),
    }
}

/// Writes the per-cell observability snapshots as one deterministic JSON
/// object keyed by `Scheme/policy`, in sorted key order.
fn write_metrics(eval: &Evaluation, path: &Path) -> Result<(), String> {
    let mut json = String::from("{");
    for (i, (label, snap)) in eval.metrics_snapshots().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n  \"{label}\": {}",
            snap.to_json().replace('\n', "\n  ")
        ));
    }
    json.push_str("\n}\n");
    write_file(path, &json)
}

/// Renders the asked-for exhibits: tables to stdout, CSVs under `--csv`,
/// the cells' counters to `--metrics`.
fn run_exhibits(args: &EvalArgs) -> Result<(), String> {
    let mut eval = Evaluation::new(args.config);
    eval.set_collect_metrics(args.metrics_path.is_some());
    if args.exhibits.len() > 1 {
        // `all`: pre-run the whole scheme × policy grid across the worker
        // pool, not one exhibit's share of it at a time.
        eval.run_cells(&experiments::paper_grid(), args.jobs);
    }
    for (name, csv_stem, render) in args.exhibits {
        // Pre-run the cells this exhibit needs across the worker pool; the
        // renderer then recalls memoized results in canonical order, so
        // its output is byte-identical to a serial run.
        eval.run_cells(&experiments::grid_cells_for(name), args.jobs);
        let table = render(&mut eval, args.jobs);
        emit(&table, args.csv_dir.as_deref(), csv_stem)?;
    }
    match &args.metrics_path {
        Some(path) => write_metrics(&eval, path),
        None => Ok(()),
    }
}

/// The `trace` sub-command: publish the corpus, then run one automated
/// search with lookup tracing on and pretty-print the span tree.
fn trace(cfg: &EvalConfig, query_text: &str) -> Result<(), String> {
    let query: Query = query_text
        .parse()
        .map_err(|e| format!("cannot parse query {query_text:?}: {e}"))?;
    let mut sim = Simulation::prepare(SimConfig {
        queries: 0,
        collect_metrics: true,
        ..cfg.sim(SchemeChoice::Simple, CachePolicy::Single)
    });
    let service = sim.service_mut();
    service.start_trace(format!(
        "trace: simple scheme, single-cache, {} nodes, {} articles",
        cfg.nodes, cfg.articles
    ));
    let result = service.search(&query);
    let trace = service.finish_trace().expect("trace was started");
    print!("{}", trace.render());
    let report = result.map_err(|e| format!("search failed: {e}"))?;
    println!(
        "\n{} file(s), {} interaction(s), {} generalization step(s)",
        report.files.len(),
        report.interactions,
        report.generalization_steps
    );
    for hit in &report.files {
        println!("  {} <- {}", hit.file, hit.msd);
    }
    Ok(())
}

/// Runs the skewed-load scenario: tables to stdout and, under `--csv`,
/// the two CSVs plus the whole report as `hotspot.json`.
fn run_hotspot(config: &HotspotConfig, csv_dir: Option<&Path>) -> Result<(), String> {
    let (w0, w1) = config.window_indices();
    eprintln!(
        "# hotspot: {} nodes, {} articles, {} queries (seed {}), crowd on rank {} \
         during queries {w0}..{w1} at boost {:.2}; mitigation threshold {}, \
         fanout {}",
        config.nodes,
        config.articles,
        config.queries,
        config.seed,
        config.hot_rank,
        config.boost,
        config.hot_threshold,
        config.fanout
    );
    let report = hotspot::run(config);
    emit(&report.imbalance_table(), csv_dir, "hotspot")?;
    emit(&report.mitigation_table(), csv_dir, "hotspot_mitigation")?;
    if let Some(dir) = csv_dir {
        write_file(&dir.join("hotspot.json"), &report.to_json())?;
    }
    eprintln!(
        "# hottest node ops: {} baseline -> {} mitigated; ops max/mean: {:.2} -> {:.2} \
         ({} promotions, {} mirror reads)",
        report.baseline.ops.max,
        report.mitigated.ops.max,
        report.baseline.ops.max_over_mean,
        report.mitigated.ops.max_over_mean,
        report.mitigated.promotions,
        report.mitigated.mirror_reads
    );
    if report.improved() {
        Ok(())
    } else {
        Err("# FAIL: mitigation did not unload the hottest node, or worsened max/mean".to_string())
    }
}

fn run(mut flags: Flags) -> Result<(), String> {
    let command = flags.next().ok_or_else(usage)?;
    match command.as_str() {
        "serve" => netd::serve(&parse_serve(flags)?),
        "net-demo" => netd::net_demo(&parse_net_demo(flags)?),
        "hotspot" => {
            let (config, csv_dir) = parse_hotspot(flags)?;
            run_hotspot(&config, csv_dir.as_deref())
        }
        exhibit_or_trace => {
            let args = parse_eval(exhibit_or_trace, flags)?;
            let cfg = &args.config;
            eprintln!(
                "# scale: {} nodes, {} articles, {} queries (seed {}, {} jobs)",
                cfg.nodes, cfg.articles, cfg.queries, cfg.seed, args.jobs
            );
            match &args.query {
                Some(query) => trace(cfg, query),
                None => run_exhibits(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(Flags(args.into_iter())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command line, split at whitespace.
    fn flags(line: &str) -> Flags {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags(args.into_iter())
    }

    /// The error of a parse that must fail.
    fn rejected<T>(parsed: Result<T, String>) -> String {
        parsed.err().expect("these flags must be rejected")
    }

    #[test]
    fn the_cursor_parses_into_the_asked_for_type_and_names_the_flag() {
        assert_eq!(flags("7").value::<u16>("--port"), Ok(7));
        assert_eq!(flags("0.25").value::<f64>("--loss"), Ok(0.25));
        assert_eq!(
            Flags(vec!["1, 2,3".to_string()].into_iter()).list::<usize>("--quorum"),
            Ok(vec![1, 2, 3])
        );
        assert_eq!(
            flags("").value::<usize>("--nodes"),
            Err("--nodes needs a value".to_string())
        );
        let malformed = flags("ten").value::<usize>("--nodes").unwrap_err();
        assert!(malformed.starts_with("--nodes \"ten\": "), "{malformed}");
        let one_bad_part = flags("1,x").list::<usize>("--quorum").unwrap_err();
        assert!(
            one_bad_part.starts_with("--quorum \"x\": "),
            "{one_bad_part}"
        );
    }

    #[test]
    fn every_parser_rejects_an_unknown_flag_and_a_missing_value() {
        for (unknown, missing) in [
            (
                rejected(parse_eval("all", flags("--profile"))),
                rejected(parse_eval("all", flags("--small --csv"))),
            ),
            (
                rejected(parse_serve(flags("--small"))),
                rejected(parse_serve(flags("--port"))),
            ),
            (
                rejected(parse_net_demo(flags("--port 1"))),
                rejected(parse_net_demo(flags("--members"))),
            ),
            (
                rejected(parse_hotspot(flags("--jobs 2"))),
                rejected(parse_hotspot(flags("--boost"))),
            ),
        ] {
            assert!(unknown.starts_with("unknown flag --"), "{unknown}");
            assert!(unknown.ends_with(&usage()), "{unknown}");
            assert!(missing.ends_with(" needs a value"), "{missing}");
        }
    }

    #[test]
    fn out_of_range_numbers_are_rejected_not_truncated() {
        // 70000 used to wrap to port 4464, and -1 never fitted a seed.
        let port = rejected(parse_serve(flags("--port 70000")));
        assert!(port.starts_with("--port \"70000\": "), "{port}");
        for (flag, error) in [
            ("--seed", rejected(parse_eval("fig11", flags("--seed -1")))),
            (
                "--fault-seed",
                rejected(parse_serve(flags("--fault-seed -1"))),
            ),
            (
                "--repair-ms",
                rejected(parse_serve(flags("--repair-ms -1"))),
            ),
            (
                "--threshold",
                rejected(parse_hotspot(flags("--threshold -1"))),
            ),
            ("--seed", rejected(parse_net_demo(flags("--seed 1e3")))),
        ] {
            assert!(error.starts_with(&format!("{flag} ")), "{error}");
        }
        for loss in ["1.5", "-0.1", "nan", "inf"] {
            assert_eq!(
                rejected(parse_serve(flags(&format!("--loss {loss}")))),
                format!("--loss {loss:?}: must be within 0..=1")
            );
        }
        // An empty network or corpus used to panic deep in the run.
        for flag in ["--nodes", "--articles"] {
            let line = format!("--small {flag} 0");
            for error in [
                rejected(parse_eval("fig11", flags(&line))),
                rejected(parse_eval("trace", flags(&format!("/article {line}")))),
                rejected(parse_hotspot(flags(&line))),
            ] {
                assert_eq!(error, format!("{flag} \"0\": must be at least 1"));
            }
        }
        let opts = parse_serve(flags(
            "--port 65535 --fault-seed 18446744073709551615 --loss 1",
        ))
        .expect("each is the largest value its field holds");
        assert_eq!(
            (opts.port, opts.fault_seed, opts.loss),
            (u16::MAX, u64::MAX, 1.0)
        );
    }

    #[test]
    fn quorum_takes_one_number_for_both_or_write_then_read() {
        let serve = |args| parse_serve(flags(args)).expect("serve flags").write_quorum;
        let demo = |quorum: &str| {
            parse_net_demo(flags(&format!("--members 127.0.0.1:1 --quorum {quorum}")))
                .expect("net-demo flags")
                .read_quorum
        };
        assert_eq!((serve("--quorum 2"), demo("2")), (2, 2));
        assert_eq!((serve("--quorum 2,3"), demo("2,3")), (2, 3));
        assert_eq!(serve(""), 1);
        for bad in ["2,3,4", "2,", "two"] {
            let error = rejected(parse_serve(flags(&format!("--quorum {bad}"))));
            assert!(error.starts_with("--quorum "), "{error}");
        }
    }

    #[test]
    fn serve_reads_peers_as_name_address_pairs() {
        let opts = parse_serve(flags(
            "--node-name node-1 --replicas 3 --peers node-0=127.0.0.1:7000,node-1=127.0.0.1:7001",
        ))
        .expect("serve flags");
        assert_eq!((opts.node_name.as_str(), opts.replicas), ("node-1", 3));
        assert_eq!(
            opts.peers,
            [
                ("node-0".to_string(), "127.0.0.1:7000".parse().unwrap()),
                ("node-1".to_string(), "127.0.0.1:7001".parse().unwrap()),
            ]
        );
        let no_name = rejected(parse_serve(flags("--peers 127.0.0.1:7000")));
        assert!(no_name.contains("expected NAME=HOST:PORT"), "{no_name}");
        let no_port = rejected(parse_serve(flags("--peers node-0=localhost")));
        assert!(no_port.starts_with("--peers \"localhost\": "), "{no_port}");
    }

    #[test]
    fn net_demo_needs_well_formed_members() {
        let args = parse_net_demo(flags(
            "--members 127.0.0.1:7000,127.0.0.1:7001 --queries 5 --shutdown",
        ))
        .expect("net-demo flags");
        assert_eq!(args.members.len(), 2);
        assert_eq!((args.articles, args.queries, args.shutdown), (60, 5, true));
        let malformed = rejected(parse_net_demo(flags("--members 127.0.0.1:7000,nowhere")));
        assert!(
            malformed.starts_with("--members \"nowhere\": "),
            "{malformed}"
        );
        let absent = rejected(parse_net_demo(flags("--articles 5")));
        assert!(absent.contains("needs --members"), "{absent}");
    }

    #[test]
    fn bench_is_an_unknown_exhibit() {
        let error = rejected(parse_eval("bench", flags("--small")));
        assert!(error.starts_with("unknown exhibit \"bench\"\n"), "{error}");
        assert!(error.ends_with(&usage()), "{error}");
        assert!(!usage().contains("bench"));
    }

    #[test]
    fn exhibits_take_the_scale_flags_and_trace_needs_a_query() {
        let args = parse_eval("fig12", flags("--small --queries 9 --csv out --jobs 3"))
            .expect("exhibit flags");
        assert_eq!(args.exhibits.len(), 1);
        assert_eq!(args.exhibits[0].0, "fig12");
        assert_eq!(
            args.config,
            EvalConfig {
                queries: 9,
                ..EvalConfig::small()
            }
        );
        assert_eq!(args.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!((args.jobs, args.metrics_path), (3, None));

        let all = parse_eval("all", flags("")).expect("no flags");
        let names: Vec<&str> = all.exhibits.iter().map(|exhibit| exhibit.0).collect();
        assert_eq!(names.len(), 12);
        assert!(
            !names.contains(&"robustness"),
            "`all` is the paper's exhibits only"
        );
        assert_eq!(all.config, EvalConfig::paper());
        assert!(
            parse_eval("all", flags("--jobs 0"))
                .expect("0 = all cores")
                .jobs
                >= 1
        );

        let trace = parse_eval("trace", flags("/article/title --small")).expect("trace");
        assert_eq!(trace.query.as_deref(), Some("/article/title"));
        assert!(trace.exhibits.is_empty());
        assert_eq!(
            rejected(parse_eval("trace", flags(""))),
            "trace needs a query argument"
        );
    }

    #[test]
    fn hotspot_flags_land_in_their_fields() {
        let (config, csv_dir) = parse_hotspot(flags(
            "--small --hot-rank 2 --boost 0.5 --threshold 8 --fanout 3",
        ))
        .expect("hotspot flags");
        assert_eq!(
            config,
            HotspotConfig {
                hot_rank: 2,
                boost: 0.5,
                hot_threshold: 8,
                fanout: 3,
                ..HotspotConfig::small()
            }
        );
        assert_eq!(csv_dir, None, "no --csv, no files");
        let budget = rejected(parse_hotspot(flags("--budget 512")));
        assert!(budget.starts_with("unknown flag --budget\n"), "{budget}");
    }

    #[test]
    fn a_failed_write_is_an_error() {
        // A regular file (this test binary) where the directory should
        // be: nothing under it can be created.
        let blocker = std::env::current_exe().expect("the test binary has a path");
        let error = emit(&TextTable::new("t"), Some(&blocker), "fig7").unwrap_err();
        assert!(error.starts_with("cannot write "), "{error}");
        assert!(error.contains("fig7.csv"), "{error}");
    }
}
