//! `repro` — regenerate any table or figure of the paper's evaluation.
//!
//! ```text
//! repro <exhibit> [--small] [--nodes N] [--articles N] [--queries N]
//!                 [--seed N] [--csv DIR] [--jobs N] [--metrics FILE]
//!                 [--profile] [--allow-regression]
//! repro trace <query> [--small] [...]
//! repro serve [--port N] [--node-name NAME] [--loss F] [--fault-seed N]
//!             [--replicas R] [--quorum W,RQ] [--peers NAME=HOST:PORT,...]
//!             [--repair-ms N] [--shards N]
//! repro net-demo --members HOST:PORT,... [--articles N] [--queries N]
//!                [--seed N] [--shutdown]
//! repro hotspot [--small] [--csv DIR] [--nodes N] [--articles N]
//!               [--queries N] [--seed N] [--hot-rank N] [--boost F]
//!               [--budget N] [--threshold N] [--fanout N]
//!
//! exhibits: fig7 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table1 storage
//!           ext-structures ext-churn robustness bench trace all
//! ```
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
//! `bench` times one fixed cell, then sweeps the full figure grid over
//! `--jobs {1, 2, 4, 8}` and records the speedup curve in
//! `BENCH_results.json` next to the CSVs. Every timing is the median of 3
//! runs after a warmup pass. The bench defends itself: if any sweep point
//! that actually runs multiple workers is *slower* than serial, it exits
//! non-zero (opt out with `--allow-regression`). Sweep points whose worker
//! count clamps to 1 (host has one core, so the executor degenerates to
//! the serial path) are reported but exempt from the gate. It also
//! measures loopback RPC throughput/latency over real sockets (the `net`
//! section). `--profile` adds a per-phase breakdown of the reference cell
//! (corpus / publish / queries): wall-clock always, allocation counts when
//! the binary was built with `--features alloc-profile` (which swaps in a
//! counting global allocator).
//!
//! `serve` runs one networked DHT node (`dhtd`): one node's partition
//! store (`--shards N` key-hash shards, optionally with `--loss` injected
//! in front of it) behind the `crates/net` wire protocol, until it
//! receives a shutdown frame. `net-demo` is the matching client: it points the full
//! indexing stack at a running cluster over TCP. See the README's
//! networking quickstart for a 5-node loopback ring.
//!
//! `hotspot` runs the skewed-load scenario: a flash crowd on one title
//! over a 10 000-node ring, once with the balance subsystem observing
//! only and once mitigating (entry splitting + hot-key read fan-out),
//! plus a cache-admission comparison under tight LRU caches. It prints
//! the per-node imbalance tables, writes them as CSVs under `--csv DIR`,
//! and merges the numbers into `BENCH_results.json` in the same
//! directory under the `"hotspot"` key. Exits non-zero if the mitigation
//! makes the headline max/mean load ratio *worse* than baseline.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use p2p_index_core::CachePolicy;
use p2p_index_sim::exec::{effective_workers, resolve_jobs};
use p2p_index_sim::experiments::{self, EvalConfig, Evaluation};
use p2p_index_sim::hotspot::{self, HotspotConfig};
use p2p_index_sim::netd::{self, ServeOptions};
use p2p_index_sim::simulation::{SchemeChoice, SimConfig, Simulation};
use p2p_index_sim::table::TextTable;
use p2p_index_workload::Corpus;
use p2p_index_xpath::Query;

struct Args {
    exhibit: String,
    query: Option<String>,
    config: EvalConfig,
    csv_dir: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    jobs: usize,
    profile: bool,
    allow_regression: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let exhibit = args.next().ok_or_else(usage)?;
    let query = if exhibit == "trace" {
        Some(args.next().ok_or("trace needs a query argument")?)
    } else {
        None
    };
    let mut config = EvalConfig::paper();
    let mut csv_dir = None;
    let mut metrics_path = None;
    let mut jobs = 1usize;
    let mut profile = false;
    let mut allow_regression = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--small" => config = EvalConfig::small(),
            "--profile" => profile = true,
            "--allow-regression" => allow_regression = true,
            "--nodes" => config.nodes = parse_num(args.next(), "--nodes")?,
            "--articles" => config.articles = parse_num(args.next(), "--articles")?,
            "--queries" => config.queries = parse_num(args.next(), "--queries")?,
            "--seed" => config.seed = parse_num(args.next(), "--seed")? as u64,
            "--csv" => csv_dir = Some(PathBuf::from(args.next().ok_or("--csv needs a directory")?)),
            "--metrics" => {
                metrics_path = Some(PathBuf::from(args.next().ok_or("--metrics needs a file")?))
            }
            "--jobs" => jobs = resolve_jobs(parse_num(args.next(), "--jobs")?),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        exhibit,
        query,
        config,
        csv_dir,
        metrics_path,
        jobs,
        profile,
        allow_regression,
    })
}

fn parse_num(value: Option<String>, flag: &str) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn usage() -> String {
    "usage: repro <fig7|fig9|fig10|fig11|fig12|fig13|fig14|fig15|table1|storage|ext-structures|ext-churn|robustness|bench|all> \
     [--small] [--nodes N] [--articles N] [--queries N] [--seed N] [--csv DIR] [--jobs N] [--metrics FILE] [--profile] [--allow-regression]\n\
     \x20      repro trace <query> [--small] [--nodes N] [--articles N] [--seed N]\n\
     \x20      repro serve [--port N] [--node-name NAME] [--loss F] [--fault-seed N] \
     [--replicas R] [--quorum W,RQ] [--peers NAME=HOST:PORT,...] [--repair-ms N] [--shards N]\n\
     \x20      repro net-demo --members HOST:PORT,... [--articles N] [--queries N] [--seed N] [--replicas R] [--quorum W,RQ] [--shutdown]\n\
     \x20      repro hotspot [--small] [--csv DIR] [--nodes N] [--articles N] [--queries N] [--seed N] \
     [--hot-rank N] [--boost F] [--budget N] [--threshold N] [--fanout N]"
        .to_string()
}

/// Parses `repro serve` flags and runs the dhtd daemon until shutdown.
fn run_serve(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut opts = ServeOptions::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--port" => {
                opts.port = parse_num(args.next(), "--port")? as u16;
            }
            "--node-name" => {
                opts.node_name = args.next().ok_or("--node-name needs a value")?;
            }
            "--loss" => {
                opts.loss = args
                    .next()
                    .ok_or("--loss needs a value")?
                    .parse()
                    .map_err(|e| format!("--loss: {e}"))?;
            }
            "--fault-seed" => {
                opts.fault_seed = parse_num(args.next(), "--fault-seed")? as u64;
            }
            "--replicas" => {
                opts.replicas = parse_num(args.next(), "--replicas")?;
            }
            "--quorum" => {
                let (w, _rq) = parse_quorum(args.next())?;
                opts.write_quorum = w;
            }
            "--peers" => {
                for part in args.next().ok_or("--peers needs a list")?.split(',') {
                    let (name, addr) = part
                        .trim()
                        .split_once('=')
                        .ok_or_else(|| format!("--peers {part:?}: expected NAME=HOST:PORT"))?;
                    opts.peers.push((
                        name.to_string(),
                        addr.parse().map_err(|e| format!("--peers {part:?}: {e}"))?,
                    ));
                }
            }
            "--repair-ms" => {
                opts.repair_ms = parse_num(args.next(), "--repair-ms")? as u64;
            }
            "--shards" => {
                opts.shards = parse_num(args.next(), "--shards")?;
            }
            other => return Err(format!("unknown serve flag {other}\n{}", usage())),
        }
    }
    netd::serve(&opts)
}

/// Parses a `--quorum W,RQ` value into `(write_quorum, read_quorum)`.
/// A single number sets both.
fn parse_quorum(value: Option<String>) -> Result<(usize, usize), String> {
    let value = value.ok_or("--quorum needs a value (W,RQ)")?;
    let parse_one = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|e| format!("--quorum {s:?}: {e}"))
    };
    match value.split_once(',') {
        Some((w, rq)) => Ok((parse_one(w)?, parse_one(rq)?)),
        None => {
            let both = parse_one(&value)?;
            Ok((both, both))
        }
    }
}

/// Parses `repro net-demo` flags and drives a workload over the cluster.
fn run_net_demo(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut members: Vec<std::net::SocketAddr> = Vec::new();
    let mut articles = 60usize;
    let mut queries = 40usize;
    let mut seed = 42u64;
    let mut replicas = 1usize;
    let mut read_quorum = 1usize;
    let mut shutdown = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--members" => {
                for part in args.next().ok_or("--members needs a list")?.split(',') {
                    members.push(
                        part.trim()
                            .parse()
                            .map_err(|e| format!("--members {part:?}: {e}"))?,
                    );
                }
            }
            "--articles" => articles = parse_num(args.next(), "--articles")?,
            "--queries" => queries = parse_num(args.next(), "--queries")?,
            "--seed" => seed = parse_num(args.next(), "--seed")? as u64,
            "--replicas" => replicas = parse_num(args.next(), "--replicas")?,
            "--quorum" => {
                let (_w, rq) = parse_quorum(args.next())?;
                read_quorum = rq;
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown net-demo flag {other}\n{}", usage())),
        }
    }
    if members.is_empty() {
        return Err("net-demo needs --members HOST:PORT,...".to_string());
    }
    netd::net_demo(
        &members,
        articles,
        queries,
        seed,
        replicas,
        read_quorum,
        shutdown,
    )
}

/// Parses `repro hotspot` flags and runs the skewed-load scenario:
/// tables to stdout, CSVs under `--csv`, and the imbalance numbers
/// merged into `BENCH_results.json` under the `"hotspot"` key.
fn run_hotspot(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut config = HotspotConfig::paper();
    let mut csv_dir: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--small" => config = HotspotConfig::small(),
            "--nodes" => config.nodes = parse_num(args.next(), "--nodes")?,
            "--articles" => config.articles = parse_num(args.next(), "--articles")?,
            "--queries" => config.queries = parse_num(args.next(), "--queries")?,
            "--seed" => config.seed = parse_num(args.next(), "--seed")? as u64,
            "--hot-rank" => config.hot_rank = parse_num(args.next(), "--hot-rank")?,
            "--boost" => {
                config.boost = args
                    .next()
                    .ok_or("--boost needs a value")?
                    .parse()
                    .map_err(|e| format!("--boost: {e}"))?;
            }
            "--budget" => config.page_budget = parse_num(args.next(), "--budget")?,
            "--threshold" => config.hot_threshold = parse_num(args.next(), "--threshold")? as u64,
            "--fanout" => config.fanout = parse_num(args.next(), "--fanout")?,
            "--csv" => csv_dir = Some(PathBuf::from(args.next().ok_or("--csv needs a directory")?)),
            other => return Err(format!("unknown hotspot flag {other}\n{}", usage())),
        }
    }
    let (w0, w1) = config.window_indices();
    eprintln!(
        "# hotspot: {} nodes, {} articles, {} queries (seed {}), crowd on rank {} \
         during queries {w0}..{w1} at boost {:.2}; mitigation budget {} B, \
         threshold {}, fanout {}",
        config.nodes,
        config.articles,
        config.queries,
        config.seed,
        config.hot_rank,
        config.boost,
        config.page_budget,
        config.hot_threshold,
        config.fanout
    );
    let report = hotspot::run(&config);
    emit(&report.imbalance_table(), &csv_dir, "hotspot");
    emit(&report.mitigation_table(), &csv_dir, "hotspot_mitigation");

    let dir = csv_dir.unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Err(format!("cannot create {}: {e}", dir.display()));
    }
    let path = dir.join("BENCH_results.json");
    let existing = std::fs::read_to_string(&path).ok();
    let merged = hotspot::merge_bench_json(existing.as_deref(), &report.json_member());
    std::fs::write(&path, merged).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());

    eprintln!(
        "# ops max/mean: {:.2} baseline -> {:.2} mitigated ({} splits, {} promotions, \
         {} mirror reads)",
        report.baseline.ops.max_over_mean,
        report.mitigated.ops.max_over_mean,
        report.mitigated.splits,
        report.mitigated.promotions,
        report.mitigated.mirror_reads
    );
    if report.improved() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("# FAIL: mitigation worsened the max/mean load ratio");
        Ok(ExitCode::FAILURE)
    }
}

/// Writes the per-cell observability snapshots as one deterministic JSON
/// object keyed by `Scheme/policy`, in sorted key order.
fn write_metrics(eval: &Evaluation, path: &Path) {
    let cells = eval.metrics_snapshots();
    let mut json = String::from("{");
    for (i, (label, snap)) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n  \"{label}\": {}",
            snap.to_json().replace('\n', "\n  ")
        ));
    }
    json.push_str("\n}\n");
    match write_creating_parent(path, &json) {
        Ok(()) => eprintln!("wrote {} ({} cells)", path.display(), cells.len()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// `fs::write`, creating the file's parent directory first so `--metrics
/// results/metrics.json` works before any CSV has created `results/`.
fn write_creating_parent(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

/// The `trace` sub-command: publish the corpus, then run one automated
/// search with lookup tracing on and pretty-print the span tree.
fn trace(cfg: &EvalConfig, query_text: &str) -> ExitCode {
    let query: Query = match query_text.parse() {
        Ok(q) => q,
        Err(e) => {
            eprintln!("cannot parse query {query_text:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    match result {
        Ok(report) => {
            println!(
                "\n{} file(s), {} interaction(s), {} generalization step(s)",
                report.files.len(),
                report.interactions,
                report.generalization_steps
            );
            for hit in &report.files {
                println!("  {} <- {}", hit.file, hit.msd);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("search failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn emit(table: &TextTable, csv_dir: &Option<PathBuf>, name: &str) {
    print!("{}", table.to_text());
    println!();
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, table.to_csv()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Median of three timed runs of `f` (not counting any caller warmup).
fn median_of_3(mut f: impl FnMut()) -> f64 {
    let mut times = [0.0f64; 3];
    for slot in &mut times {
        let started = Instant::now();
        f();
        *slot = started.elapsed().as_secs_f64();
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("elapsed times are finite"));
    times[1]
}

/// The `--jobs` values the bench sweeps the grid over.
const SWEEP_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Allocation counters since process start: `(allocations, bytes)`.
/// `None` unless the binary was built with `--features alloc-profile`.
fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "alloc-profile")]
    {
        Some(alloc_profile::counts())
    }
    #[cfg(not(feature = "alloc-profile"))]
    {
        None
    }
}

/// Runs one profiled phase: wall-clock always, allocation deltas when the
/// counting allocator is compiled in.
fn timed_phase<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, ProfilePhase) {
    let before = alloc_counts();
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    let allocs = match (before, alloc_counts()) {
        (Some((a0, b0)), Some((a1, b1))) => Some((a1 - a0, b1 - b0)),
        _ => None,
    };
    (out, ProfilePhase { name, secs, allocs })
}

struct ProfilePhase {
    name: &'static str,
    secs: f64,
    /// `(allocations, bytes)` during the phase, when counted.
    allocs: Option<(u64, u64)>,
}

impl ProfilePhase {
    fn report(&self) -> String {
        match self.allocs {
            Some((n, bytes)) => format!(
                "# profile {}: {:.3} s, {} allocs, {:.1} MB allocated",
                self.name,
                self.secs,
                n,
                bytes as f64 / (1024.0 * 1024.0)
            ),
            None => format!(
                "# profile {}: {:.3} s (allocation counts need a build with \
                 --features alloc-profile)",
                self.name, self.secs
            ),
        }
    }

    fn json(&self) -> String {
        let allocs = match self.allocs {
            Some((n, bytes)) => format!(", \"allocations\": {n}, \"bytes_allocated\": {bytes}"),
            None => String::new(),
        };
        format!(
            "{{ \"phase\": \"{}\", \"wall_clock_s\": {:.6}{allocs} }}",
            self.name, self.secs
        )
    }
}

/// `--profile`: break the reference cell into its three phases — corpus
/// synthesis, publish (index construction), query workload — and report
/// wall-clock plus allocation counts for each, so the next bottleneck is
/// measured instead of guessed.
fn profile_cell(cfg: &EvalConfig) -> Vec<ProfilePhase> {
    let config = cfg.sim(SchemeChoice::Simple, CachePolicy::Single);
    let (corpus, corpus_phase) = timed_phase("corpus", || {
        Arc::new(Corpus::generate(Simulation::corpus_config(&config)))
    });
    let (sim, publish_phase) = timed_phase("publish", || {
        Simulation::prepare_with_corpus(config, corpus)
    });
    let (_, queries_phase) = timed_phase("queries", || {
        let mut sim = sim;
        sim.execute()
    });
    let phases = vec![corpus_phase, publish_phase, queries_phase];
    for phase in &phases {
        eprintln!("{}", phase.report());
    }
    phases
}

/// One point of the grid's jobs sweep.
struct SweepPoint {
    jobs: usize,
    /// Worker threads the executor actually ran (`--jobs` clamped to the
    /// host's cores and the cell count).
    workers: usize,
    secs: f64,
    speedup: f64,
}

/// The `bench` sub-command: time one fixed cell, sweep the full figure
/// grid over `--jobs {1,2,4,8}`, print the speedup curve, and record it
/// all in `BENCH_results.json`. Each timing is the median of 3 runs; a
/// warmup pass (untimed) precedes them so page-cache and allocator effects
/// don't land in the first sample.
///
/// Exits non-zero when any sweep point that ran with real parallelism
/// (workers > 1) is slower than serial, unless `--allow-regression` was
/// given. Points clamped to one worker execute the identical serial code
/// path, so their "speedup" is pure timer noise and is exempt.
fn bench(
    cfg: &EvalConfig,
    jobs: usize,
    csv_dir: &Option<PathBuf>,
    metrics_path: &Option<PathBuf>,
    profile: bool,
    allow_regression: bool,
) -> ExitCode {
    // Warmup pass over the fixed reference cell (simple scheme,
    // single-cache policy); doubles as the observability sample when
    // `--metrics` asks for one.
    let (metrics, snapshot) = Simulation::run_with_snapshot(SimConfig {
        collect_metrics: metrics_path.is_some(),
        ..cfg.sim(SchemeChoice::Simple, CachePolicy::Single)
    });
    if let (Some(path), Some(snap)) = (metrics_path, snapshot) {
        let json = format!(
            "{{\n  \"Simple/single-cache\": {}\n}}\n",
            snap.to_json().replace('\n', "\n  ")
        );
        match write_creating_parent(path, &json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    let cell_secs = median_of_3(|| {
        Simulation::run(cfg.sim(SchemeChoice::Simple, CachePolicy::Single));
    });
    let queries_per_sec = cfg.queries as f64 / cell_secs.max(1e-9);
    eprintln!(
        "# cell simple/single-cache: median {cell_secs:.3} s, {queries_per_sec:.0} queries/s \
         ({:.2} interactions/query)",
        metrics.mean_interactions()
    );

    let phases = if profile {
        profile_cell(cfg)
    } else {
        Vec::new()
    };

    // The full scheme × policy grid swept over the jobs ladder (fresh
    // evaluations per run, so every run does all the work). An explicit
    // `--jobs` value outside the ladder is swept too.
    let grid = experiments::paper_grid();
    let mut sweep_jobs: Vec<usize> = SWEEP_JOBS.to_vec();
    if jobs > 1 && !sweep_jobs.contains(&jobs) {
        sweep_jobs.push(jobs);
        sweep_jobs.sort_unstable();
    }
    let mut sweep: Vec<SweepPoint> = Vec::with_capacity(sweep_jobs.len());
    for &j in &sweep_jobs {
        let secs = median_of_3(|| {
            Evaluation::new(*cfg).run_cells(&grid, j);
        });
        sweep.push(SweepPoint {
            jobs: j,
            workers: effective_workers(j, grid.len()),
            secs,
            speedup: 1.0,
        });
    }
    let serial_secs = sweep[0].secs;
    let mut regressed: Vec<String> = Vec::new();
    for point in &mut sweep {
        point.speedup = serial_secs / point.secs.max(1e-9);
        let note = if point.jobs > 1 && point.workers == 1 {
            " (clamped to 1 worker on this host: serial code path, exempt from the gate)"
        } else {
            ""
        };
        eprintln!(
            "# grid ({} cells) --jobs {}: {} worker(s), median {:.3} s, speedup {:.2}x{note}",
            grid.len(),
            point.jobs,
            point.workers,
            point.secs,
            point.speedup
        );
        if point.workers > 1 && point.speedup < 1.0 {
            regressed.push(format!(
                "--jobs {} ({} workers) ran {:.3} s vs {:.3} s serial ({:.2}x)",
                point.jobs, point.workers, point.secs, serial_secs, point.speedup
            ));
        }
    }
    for line in &regressed {
        eprintln!("# REGRESSION: parallel grid slower than serial: {line}");
    }

    // Loopback RPC micro-bench: real sockets, single-node server, get and
    // put at 1 and 8 client threads (median of 3 samples per cell), plus
    // the 16-shards-vs-1 thread sweep, which gates the same way
    // the grid sweep does.
    let (net_json, net_regressed) = netd::net_bench();

    let sweep_json = sweep
        .iter()
        .map(|p| {
            format!(
                "{{ \"jobs\": {}, \"workers\": {}, \"wall_clock_s\": {:.6}, \"speedup\": {:.3} }}",
                p.jobs, p.workers, p.secs, p.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n                 ");
    let profile_json = if phases.is_empty() {
        String::new()
    } else {
        format!(
            ",\n  \"profile\": [ {} ]",
            phases
                .iter()
                .map(ProfilePhase::json)
                .collect::<Vec<_>>()
                .join(",\n               ")
        )
    };
    let json = format!(
        "{{\n  \"config\": {{ \"nodes\": {}, \"articles\": {}, \"queries\": {}, \"seed\": {} }},\n  \
           \"timing\": {{ \"warmup_runs\": 1, \"samples\": 3, \"statistic\": \"median\" }},\n  \
           \"cell\": {{ \"scheme\": \"simple\", \"policy\": \"single-cache\", \
                        \"wall_clock_s\": {cell_secs:.6}, \"queries_per_sec\": {queries_per_sec:.1} }},\n  \
           \"grid\": {{ \"cells\": {}, \"serial_s\": {serial_secs:.6}, \"available_cores\": {}, \
                        \"regressed\": {},\n       \"sweep\": [ {sweep_json} ] }}{profile_json},\n  \
           \"net\": {net_json}\n}}\n",
        cfg.nodes,
        cfg.articles,
        cfg.queries,
        cfg.seed,
        grid.len(),
        p2p_index_sim::exec::available_cores(),
        !regressed.is_empty(),
    );
    let dir = csv_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = dir.join("BENCH_results.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    if !regressed.is_empty() && !allow_regression {
        eprintln!(
            "# FAIL: the parallel grid regressed against serial (see REGRESSION lines above); \
             pass --allow-regression to record the numbers anyway"
        );
        return ExitCode::FAILURE;
    }
    if net_regressed && !allow_regression {
        eprintln!(
            "# FAIL: the sharded server fell below the noise margin against its one-shard \
             twin (see REGRESSED cells above); pass --allow-regression to record the numbers \
             anyway"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A counting wrapper around the system allocator, compiled in only with
/// `--features alloc-profile`. Counts are process-global and monotonic;
/// `bench --profile` reads deltas around each phase. Frees are not
/// tracked — the profile's question is "how much does this phase
/// allocate", not "what does it retain".
#[cfg(feature = "alloc-profile")]
mod alloc_profile {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// `(allocations, bytes)` since process start.
    pub fn counts() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

fn main() -> ExitCode {
    // The networking subcommands have their own flag sets; dispatch them
    // before the exhibit parser sees (and rejects) their flags.
    let first = std::env::args().nth(1);
    if matches!(first.as_deref(), Some("serve") | Some("net-demo")) {
        let rest = std::env::args().skip(2);
        let result = match first.as_deref() {
            Some("serve") => run_serve(rest),
            _ => run_net_demo(rest),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if first.as_deref() == Some("hotspot") {
        return match run_hotspot(std::env::args().skip(2)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = args.config;
    let jobs = args.jobs;
    eprintln!(
        "# scale: {} nodes, {} articles, {} queries (seed {}, {} jobs)",
        cfg.nodes, cfg.articles, cfg.queries, cfg.seed, jobs
    );
    if args.exhibit == "trace" {
        let query = args.query.as_deref().expect("parse_args requires it");
        return trace(&cfg, query);
    }
    if args.exhibit == "bench" {
        return bench(
            &cfg,
            jobs,
            &args.csv_dir,
            &args.metrics_path,
            args.profile,
            args.allow_regression,
        );
    }
    let mut eval = Evaluation::new(cfg);
    eval.set_collect_metrics(args.metrics_path.is_some());
    let csv = &args.csv_dir;
    let metrics_path = &args.metrics_path;

    let run = |name: &str, eval: &mut Evaluation| -> bool {
        // Pre-run the cells this exhibit needs across the worker pool; the
        // renderer below then recalls memoized results in canonical order.
        eval.run_cells(&experiments::grid_cells_for(name), jobs);
        match name {
            "fig7" => emit(&experiments::fig7_query_mix(), csv, "fig7"),
            "fig9" => emit(&experiments::fig9_popularity(), csv, "fig9"),
            "fig10" => emit(&experiments::fig10_ccdf(), csv, "fig10"),
            "fig11" => emit(&experiments::fig11_interactions(eval), csv, "fig11"),
            "fig12" => emit(&experiments::fig12_traffic(eval), csv, "fig12"),
            "fig13" => emit(&experiments::fig13_hit_ratio(eval), csv, "fig13"),
            "fig14" => emit(&experiments::fig14_cache_storage(eval), csv, "fig14"),
            "fig15" => emit(&experiments::fig15_hotspots(eval), csv, "fig15"),
            "table1" => emit(&experiments::table1_errors(eval), csv, "table1"),
            "storage" => emit(&experiments::storage_overhead(&cfg), csv, "storage"),
            "ext-structures" => emit(
                &experiments::ext_structure_breakdown(eval),
                csv,
                "ext_structures",
            ),
            "ext-churn" => emit(&experiments::ext_churn(&cfg), csv, "ext_churn"),
            // Deliberately not part of "all": the loss × budget sweep
            // re-publishes the corpus per cell, and "all" stays the exact
            // paper reproduction (faults are an extension).
            "robustness" => emit(
                &experiments::ext_robustness(&cfg, jobs),
                csv,
                "ext_robustness",
            ),
            _ => return false,
        }
        true
    };

    if args.exhibit == "all" {
        // Pre-run the whole scheme × policy grid across the worker pool;
        // the per-figure renderers below then recall memoized cells, so
        // their output is byte-identical to a serial run.
        eval.run_cells(&experiments::paper_grid(), jobs);
        for name in [
            "fig7",
            "fig9",
            "fig10",
            "storage",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "table1",
            "ext-structures",
            "ext-churn",
        ] {
            run(name, &mut eval);
        }
        if let Some(path) = metrics_path {
            write_metrics(&eval, path);
        }
        ExitCode::SUCCESS
    } else if run(&args.exhibit.clone(), &mut eval) {
        if let Some(path) = metrics_path {
            write_metrics(&eval, path);
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("unknown exhibit {:?}\n{}", args.exhibit, usage());
        ExitCode::FAILURE
    }
}
