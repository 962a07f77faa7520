//! One runner per table and figure of the paper's evaluation section.
//!
//! Each function regenerates the data behind one exhibit of §V and renders
//! it as a [`TextTable`] (text for the console, CSV for plotting). The
//! scheme × policy simulation grid is shared through [`Evaluation`], which
//! runs each cell at most once.
//!
//! | Paper exhibit | Runner |
//! |---|---|
//! | Fig. 7 (query-type mix) | [`fig7_query_mix`] |
//! | §V-B storage overhead | [`storage_overhead`] |
//! | Fig. 9 (popularity power laws) | [`fig9_popularity`] |
//! | Fig. 10 (article-rank CCDF) | [`fig10_ccdf`] |
//! | Fig. 11 (interactions/query) | [`fig11_interactions`] |
//! | Fig. 12 (traffic/query) | [`fig12_traffic`] |
//! | Fig. 13 (cache hit ratio) | [`fig13_hit_ratio`] |
//! | Fig. 14 (cached keys/node) | [`fig14_cache_storage`] |
//! | Fig. 15 (per-node load) | [`fig15_hotspots`] |
//! | Table I (non-indexed queries) | [`table1_errors`] |

use std::collections::HashMap;
use std::sync::Arc;

use p2p_index_core::{CachePolicy, IndexService, RetryPolicy};
use p2p_index_dht::{Dht, FaultConfig, FaultyDht, NodeId, RingDht};
use p2p_index_obs::MetricsSnapshot;
use p2p_index_workload::{
    Corpus, CorpusConfig, PaperCcdf, QueryGenerator, StructureMix, ZipfPopularity,
};

use crate::simulation::{Metrics, SchemeChoice, SimConfig, Simulation};

/// A named probability-by-rank series for Fig. 9.
type RankSeries = (&'static str, Box<dyn Fn(usize) -> f64>);
use crate::table::{fmt_f, fmt_pct, TextTable};

/// Scale parameters shared by all grid experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// DHT nodes (paper: 500).
    pub nodes: usize,
    /// Corpus articles (paper: 10 000).
    pub articles: usize,
    /// Queries per run (paper: 50 000).
    pub queries: usize,
    /// Workload/corpus seed.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            nodes: 500,
            articles: 10_000,
            queries: 50_000,
            seed: 42,
        }
    }
}

impl EvalConfig {
    /// The paper-scale configuration.
    pub fn paper() -> EvalConfig {
        EvalConfig::default()
    }

    /// A scaled-down configuration for tests/benches (same shapes, seconds
    /// instead of minutes).
    pub fn small() -> EvalConfig {
        EvalConfig {
            nodes: 50,
            articles: 500,
            queries: 2_500,
            seed: 42,
        }
    }

    /// The full simulation config for one grid cell.
    pub fn sim(&self, scheme: SchemeChoice, policy: CachePolicy) -> SimConfig {
        SimConfig {
            nodes: self.nodes,
            articles: self.articles,
            queries: self.queries,
            scheme,
            policy,
            mix: StructureMix::paper_simulation(),
            seed: self.seed,
            collect_metrics: false,
        }
    }
}

/// Lazily-evaluated scheme × policy grid of simulation runs.
#[derive(Debug, Default)]
pub struct Evaluation {
    base: EvalConfig,
    cells: HashMap<(SchemeChoice, CachePolicy), Metrics>,
    collect_metrics: bool,
    snapshots: HashMap<(SchemeChoice, CachePolicy), MetricsSnapshot>,
    /// The corpus every cell of this grid simulates over, generated on
    /// first use and shared read-only (`Arc`) across cells — all cells use
    /// the same `(articles, seed)`, so re-synthesizing it per cell (and
    /// per worker, under `--jobs`) would be pure duplicated work and
    /// allocator pressure.
    corpus: Option<Arc<Corpus>>,
}

impl Evaluation {
    /// A grid at the given scale.
    pub fn new(base: EvalConfig) -> Evaluation {
        Evaluation {
            base,
            cells: HashMap::new(),
            collect_metrics: false,
            snapshots: HashMap::new(),
            corpus: None,
        }
    }

    /// The grid's shared corpus, generated on first use.
    fn shared_corpus(&mut self) -> Arc<Corpus> {
        if self.corpus.is_none() {
            let config = self.base.sim(SchemeChoice::Simple, CachePolicy::None);
            self.corpus = Some(Arc::new(Corpus::generate(Simulation::corpus_config(
                &config,
            ))));
        }
        self.corpus.as_ref().expect("just generated").clone()
    }

    /// The scale parameters.
    pub fn config(&self) -> &EvalConfig {
        &self.base
    }

    /// Attach an observability registry to every cell run from now on;
    /// snapshots are collected per cell and exposed through
    /// [`metrics_snapshots`](Self::metrics_snapshots). Cells that already
    /// ran are not re-run.
    pub fn set_collect_metrics(&mut self, collect: bool) {
        self.collect_metrics = collect;
    }

    /// Runs (or recalls) one grid cell — [`run_cells`](Self::run_cells)
    /// of that one cell, which runs it inline.
    pub fn cell(&mut self, scheme: SchemeChoice, policy: CachePolicy) -> &Metrics {
        self.cells(&[(scheme, policy)], 1)[0]
    }

    /// Runs (or recalls) `cells`, up to `jobs` concurrently, and returns
    /// their metrics in the order asked — how an exhibit names the cells
    /// it reads, once.
    pub fn cells(&mut self, cells: &[(SchemeChoice, CachePolicy)], jobs: usize) -> Vec<&Metrics> {
        self.run_cells(cells, jobs);
        cells.iter().map(|cell| &self.cells[cell]).collect()
    }

    /// Runs a batch of grid cells, up to `jobs` concurrently, and memoizes
    /// the results.
    ///
    /// Duplicate requests and cells that already ran are skipped; the
    /// remaining cells fan out over the [work-queue executor](crate::exec),
    /// which runs them inline at one job. Every cell is a pure function of
    /// `(config, scheme, policy)`, so tables rendered afterwards are
    /// byte-identical whatever `jobs` is.
    pub fn run_cells(&mut self, cells: &[(SchemeChoice, CachePolicy)], jobs: usize) {
        let mut pending: Vec<(SchemeChoice, CachePolicy)> = Vec::new();
        for &cell in cells {
            if !self.cells.contains_key(&cell) && !pending.contains(&cell) {
                pending.push(cell);
            }
        }
        if pending.is_empty() {
            return;
        }
        let base = self.base;
        let collect = self.collect_metrics;
        let corpus = self.shared_corpus();
        let results = crate::exec::parallel_map(&pending, jobs, |&(scheme, policy)| {
            let config = SimConfig {
                collect_metrics: collect,
                ..base.sim(scheme, policy)
            };
            let mut sim = Simulation::prepare_with_corpus(config, corpus.clone());
            (sim.execute(), sim.metrics_snapshot())
        });
        for (cell, (m, snapshot)) in pending.into_iter().zip(results) {
            if let Some(s) = snapshot {
                self.snapshots.insert(cell, s);
            }
            self.cells.insert(cell, m);
        }
    }

    /// Number of cells simulated so far.
    pub fn cells_run(&self) -> usize {
        self.cells.len()
    }

    /// The per-cell observability snapshots collected so far, labelled
    /// `Scheme/policy` and sorted by label — a canonical order, so output
    /// rendered from them is identical at any `--jobs` count.
    pub fn metrics_snapshots(&self) -> Vec<(String, &MetricsSnapshot)> {
        let mut out: Vec<(String, &MetricsSnapshot)> = self
            .snapshots
            .iter()
            .map(|((scheme, policy), snap)| (format!("{}/{}", scheme.label(), policy), snap))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Every cell of the paper's scheme × policy grid: the union of what the
/// grid exhibits (Figs. 11-15, Table I, the structure breakdown) consult.
/// Pre-running these via [`Evaluation::run_cells`] makes rendering the
/// exhibits a pure table-formatting pass.
pub fn paper_grid() -> Vec<(SchemeChoice, CachePolicy)> {
    grid(&FIG12_POLICIES)
}

/// Every paper scheme under each of `policies`, policy-major: the order
/// the exhibits' rows run in.
fn grid(policies: &[CachePolicy]) -> Vec<(SchemeChoice, CachePolicy)> {
    policies
        .iter()
        .flat_map(|&policy| SchemeChoice::PAPER.map(|scheme| (scheme, policy)))
        .collect()
}

/// The cache policies of Fig. 11 (no multi-cache: "it presents the same
/// characteristics as the single-cache policy").
pub const FIG11_POLICIES: [CachePolicy; 5] = [
    CachePolicy::None,
    CachePolicy::Single,
    CachePolicy::Lru(10),
    CachePolicy::Lru(20),
    CachePolicy::Lru(30),
];

/// The cache policies of Fig. 12 (all six).
pub const FIG12_POLICIES: [CachePolicy; 6] = [
    CachePolicy::None,
    CachePolicy::Multi,
    CachePolicy::Single,
    CachePolicy::Lru(10),
    CachePolicy::Lru(20),
    CachePolicy::Lru(30),
];

/// The cache policies of Figs. 13-14 (caching policies only).
pub const FIG13_POLICIES: [CachePolicy; 5] = [
    CachePolicy::Multi,
    CachePolicy::Single,
    CachePolicy::Lru(10),
    CachePolicy::Lru(20),
    CachePolicy::Lru(30),
];

/// The cache policies of Table I.
pub const TABLE1_POLICIES: [CachePolicy; 3] =
    [CachePolicy::None, CachePolicy::Lru(30), CachePolicy::Single];

/// Fig. 7: distribution of query types extracted from the BibFinder log.
///
/// This reproduces the *input* distribution the paper measured (our
/// transcription of the histogram), which seeds
/// [`StructureMix::bibfinder_log`].
pub fn fig7_query_mix() -> TextTable {
    let mut t = TextTable::new("Fig. 7 — Most used query types, BibFinder log (9,108 queries)");
    t.header(["query type", "% of queries"]);
    for (structure, weight) in StructureMix::bibfinder_log().weights() {
        let label = if structure.label() == "/conf" {
            "others"
        } else {
            structure.label()
        };
        t.row([label.to_string(), fmt_pct(*weight)]);
    }
    t
}

/// §V-B: index storage requirements per scheme, against the article corpus.
///
/// Paper reference points: Simple is the most space-efficient (152 MB for
/// full DBLP), Complex ≈ +25 %, Flat ≈ +37 %; indexes cost ≤ 0.5 % of the
/// 29.1 GB needed for the articles themselves.
pub fn storage_overhead(base: &EvalConfig) -> TextTable {
    let mut t = TextTable::new("§V-B — Index storage overhead per scheme");
    t.header([
        "scheme",
        "index entries",
        "index bytes",
        "vs simple",
        "article bytes",
        "overhead",
        "keys/node (mean)",
    ]);
    let mut simple_bytes = None;
    for scheme in SchemeChoice::PAPER {
        let cfg = SimConfig {
            queries: 0,
            ..base.sim(scheme, CachePolicy::None)
        };
        let mut sim = Simulation::prepare(cfg);
        let corpus_bytes = sim.corpus().total_file_bytes();
        let m = sim.execute();
        // Total footprint: entry payloads plus 20 key bytes per stored value.
        let bytes = m.index_entry_bytes + 20 * m.index_entry_count;
        let simple = *simple_bytes.get_or_insert(bytes);
        t.row([
            m.scheme.clone(),
            m.index_entry_count.to_string(),
            bytes.to_string(),
            format!("{:+.1}%", 100.0 * (bytes as f64 / simple as f64 - 1.0)),
            corpus_bytes.to_string(),
            fmt_pct(bytes as f64 / corpus_bytes as f64),
            fmt_f(m.mean_keys_per_node(), 1),
        ]);
    }
    t
}

/// Fig. 9: popularity of authors/articles follows a power law (log-log).
///
/// The paper plots four measured traces; we emit our *model* counterparts —
/// ranked Zipf series at the trace-like exponents plus the fitted article
/// distribution — at log-spaced ranks.
pub fn fig9_popularity() -> TextTable {
    let ranks = log_ranks(10_000);
    let series: [RankSeries; 4] = [
        ("bibfinder-authors (zipf a=0.75)", {
            let z = ZipfPopularity::new(10_000, 0.75);
            Box::new(move |r| z.prob(r))
        }),
        ("netbib-authors (zipf a=0.85)", {
            let z = ZipfPopularity::new(10_000, 0.85);
            Box::new(move |r| z.prob(r))
        }),
        ("bibfinder-articles (zipf a=0.95)", {
            let z = ZipfPopularity::new(10_000, 0.95);
            Box::new(move |r| z.prob(r))
        }),
        ("citeseer-articles (paper fit)", {
            let p = PaperCcdf::new(10_000);
            Box::new(move |r| p.prob(r))
        }),
    ];
    let mut t = TextTable::new("Fig. 9 — Popularity distributions (probability vs. rank, log-log)");
    let mut header = vec!["rank".to_string()];
    header.extend(series.iter().map(|(n, _)| n.to_string()));
    t.header(header);
    for r in ranks {
        let mut row = vec![r.to_string()];
        row.extend(series.iter().map(|(_, f)| format!("{:.3e}", f(r))));
        t.row(row);
    }
    t
}

/// Fig. 10: complementary CDF of the article ranking,
/// `F̄(i) = 1 − 0.063·i^0.3` for 10 000 articles.
pub fn fig10_ccdf() -> TextTable {
    let model = PaperCcdf::new(10_000);
    let mut t = TextTable::new("Fig. 10 — CCDF of the article ranking");
    t.header(["rank", "ccdf"]);
    for i in (0..=10_000usize).step_by(500) {
        let rank = i.max(1);
        t.row([rank.to_string(), fmt_f(model.ccdf(rank), 4)]);
    }
    t
}

/// Fig. 11: average number of interactions required to find data, per
/// scheme and cache policy.
pub fn fig11_interactions(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Fig. 11 — Average interactions per query");
    t.header(["policy", "Simple", "Flat", "Complex"]);
    let metrics = eval.cells(&grid(&FIG11_POLICIES), jobs);
    for (policy, row) in FIG11_POLICIES
        .iter()
        .zip(metrics.chunks(SchemeChoice::PAPER.len()))
    {
        let mut line = vec![policy.to_string()];
        line.extend(row.iter().map(|m| fmt_f(m.mean_interactions(), 2)));
        t.row(line);
    }
    t
}

/// Fig. 12: average traffic (bytes) per query, split into normal and cache
/// traffic, per scheme and policy.
pub fn fig12_traffic(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Fig. 12 — Average network traffic (bytes) per query");
    t.header(["policy", "scheme", "normal", "cache", "total"]);
    let cells = grid(&FIG12_POLICIES);
    for ((_, policy), m) in cells.iter().zip(eval.cells(&cells, jobs)) {
        t.row([
            policy.to_string(),
            m.scheme.clone(),
            fmt_f(m.normal_bytes_per_query(), 0),
            fmt_f(m.cache_bytes_per_query(), 0),
            fmt_f(m.normal_bytes_per_query() + m.cache_bytes_per_query(), 0),
        ]);
    }
    t
}

/// Fig. 13: distributed cache hit ratio, plus the fraction of hits that
/// occur on the first node of the chain (§V-E(e)).
pub fn fig13_hit_ratio(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Fig. 13 — Cache efficiency: distributed hit ratio");
    t.header(["policy", "scheme", "hit ratio", "hits at first node"]);
    let cells = grid(&FIG13_POLICIES);
    for ((_, policy), m) in cells.iter().zip(eval.cells(&cells, jobs)) {
        t.row([
            policy.to_string(),
            m.scheme.clone(),
            fmt_pct(m.hit_ratio()),
            fmt_pct(m.first_node_hit_fraction()),
        ]);
    }
    t
}

/// Fig. 14 (and §V-E(f)): cached keys per node — mean, max, fill state —
/// plus regular keys per node.
pub fn fig14_cache_storage(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Fig. 14 — Shortcuts (cached keys) per node");
    t.header([
        "policy",
        "scheme",
        "mean cached/node",
        "max cached",
        "caches full",
        "caches empty",
        "regular keys/node",
    ]);
    let cells = grid(&FIG13_POLICIES);
    for ((_, policy), m) in cells.iter().zip(eval.cells(&cells, jobs)) {
        t.row([
            policy.to_string(),
            m.scheme.clone(),
            fmt_f(m.mean_cached_keys_per_node(), 1),
            m.max_cached_keys_per_node().to_string(),
            fmt_pct(m.cache_full_fraction),
            fmt_pct(m.cache_empty_fraction),
            fmt_f(m.mean_keys_per_node(), 1),
        ]);
    }
    t
}

/// Fig. 15: percentage of queries processed by each node, ranked (log-log
/// hot-spot curve), simple scheme, three policies.
pub fn fig15_hotspots(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let ranks = log_ranks(eval.config().nodes);
    let series: Vec<Vec<f64>> = eval
        .cells(
            &TABLE1_POLICIES.map(|policy| (SchemeChoice::Simple, policy)),
            jobs,
        )
        .into_iter()
        .map(Metrics::node_load_percentages)
        .collect();
    let mut t = TextTable::new("Fig. 15 — % of queries processed per node (simple scheme, ranked)");
    t.header(["node rank", "no-cache", "lru-30", "single-cache"]);
    for r in ranks {
        let mut row = vec![r.to_string()];
        for s in &series {
            row.push(format!("{:.4}", s.get(r - 1).copied().unwrap_or(0.0)));
        }
        t.row(row);
    }
    t
}

/// Table I: number of queries to non-indexed data (recoverable errors).
pub fn table1_errors(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Table I — Number of queries to non-indexed data");
    t.header(["policy", "Simple", "Flat", "Complex"]);
    let metrics = eval.cells(&grid(&TABLE1_POLICIES), jobs);
    for (policy, row) in TABLE1_POLICIES
        .iter()
        .zip(metrics.chunks(SchemeChoice::PAPER.len()))
    {
        let mut line = vec![policy.to_string()];
        line.extend(row.iter().map(|m| m.errors.to_string()));
        t.row(line);
    }
    t
}

/// Extension (not a paper exhibit): interactions and errors broken down by
/// query structure — explains the Fig. 11 averages. Author+year rows carry
/// all the errors (the only non-indexed structure in the §V-C mix).
pub fn ext_structure_breakdown(eval: &mut Evaluation, jobs: usize) -> TextTable {
    let mut t = TextTable::new("Extension — Per-structure interactions (simple scheme)");
    t.header([
        "policy",
        "structure",
        "queries",
        "interactions/query",
        "errors",
    ]);
    let cells =
        [CachePolicy::None, CachePolicy::Single].map(|policy| (SchemeChoice::Simple, policy));
    for ((_, policy), m) in cells.iter().zip(eval.cells(&cells, jobs)) {
        for (label, queries, interactions, errors) in &m.by_structure {
            t.row([
                policy.to_string(),
                label.clone(),
                queries.to_string(),
                fmt_f(*interactions as f64 / (*queries).max(1) as f64, 2),
                errors.to_string(),
            ]);
        }
    }
    t
}

/// Extension (not a paper exhibit): index availability under churn.
///
/// Runs the simple-scheme workload in batches; between batches, nodes
/// join and leave the ring (index entries migrate with their key ranges,
/// exactly as in a DHT). The paper argues indexing is independent of the
/// substrate's membership dynamics; this measures it: the located-target
/// rate stays at 100 % and interactions stay flat while a quarter of the
/// network turns over.
pub fn ext_churn(base: &EvalConfig) -> TextTable {
    let corpus = extension_corpus(base);
    let mut sim = Simulation::prepare_with_corpus(
        base.sim(SchemeChoice::Simple, CachePolicy::None),
        corpus.clone(),
    );
    let mut generator = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), base.seed);

    let batches = 8usize;
    let batch_size = (base.queries / batches).max(1);
    let mut t = TextTable::new("Extension — Availability under ring churn (simple scheme)");
    t.header([
        "batch",
        "nodes",
        "churn event",
        "found",
        "interactions/query",
    ]);
    for batch in 0..batches {
        // Churn between batches: alternate join/leave waves.
        let event = if batch == 0 {
            "—".to_string()
        } else if batch % 2 == 1 {
            let joins = base.nodes / 16;
            let dht = sim.service_mut().dht_mut();
            for j in 0..joins {
                dht.add_node(NodeId::hash_of(&format!("joiner-{batch}-{j}")));
            }
            format!("+{joins} joins")
        } else {
            let leaves = base.nodes / 16;
            let dht = sim.service_mut().dht_mut();
            let victims: Vec<NodeId> = dht.nodes().into_iter().step_by(7).take(leaves).collect();
            for v in &victims {
                dht.remove_node(*v);
            }
            format!("-{} leaves", victims.len())
        };

        let mut found = 0u64;
        let mut interactions = 0u64;
        for _ in 0..batch_size {
            let item = generator.next_query();
            let outcome = sim.ask(&item.query, item.target);
            found += outcome.found as u64;
            interactions += outcome.interactions as u64;
        }
        t.row([
            batch.to_string(),
            sim.service().dht().len().to_string(),
            event,
            fmt_pct(found as f64 / batch_size as f64),
            fmt_f(interactions as f64 / batch_size as f64, 2),
        ]);
    }
    t
}

/// Extension (not a paper exhibit): search robustness under message loss.
///
/// The paper layers its indexes on "an arbitrary P2P DHT infrastructure";
/// real infrastructures lose messages. This sweep wraps the ring substrate
/// in a deterministic [`FaultyDht`], publishes
/// the corpus while healthy, then runs the query workload at each message
/// loss rate × retry budget combination. Reported per cell: end-to-end
/// search success (the target file located), how often the report was
/// marked partial, and the retry/backoff cost the budget buys.
///
/// With a budget of 1 (no retries) success collapses roughly as
/// `(1 − loss)ᵏ` in the number of sub-lookups `k`; a budget of 3 drives
/// the per-operation abandonment rate to `loss³` and holds end-to-end
/// success above 99 % even at 10 % loss.
pub fn ext_robustness(base: &EvalConfig, jobs: usize) -> TextTable {
    let corpus = extension_corpus(base);
    let loss_rates = [0.0, 0.05, 0.10, 0.20];
    let budgets = [1u32, 2, 3];
    let mut cells: Vec<(u64, f64, u32)> = Vec::new();
    for (li, &loss) in loss_rates.iter().enumerate() {
        for (bi, &budget) in budgets.iter().enumerate() {
            // Distinct deterministic seeds per cell, derived from the run seed.
            let cell_seed = base.seed ^ ((li as u64 + 1) * 1009 + bi as u64 * 101);
            cells.push((cell_seed, loss, budget));
        }
    }
    let queries_per_cell = (base.queries / cells.len()).max(50);

    // Every cell is an isolated service + deterministic seeds, sharing only
    // the read-only corpus, so cells fan out over the executor and the rows
    // — emitted in canonical sweep order — match a serial run byte for byte.
    let rows = crate::exec::parallel_map(&cells, jobs, |&(cell_seed, loss, budget)| {
        let dht = FaultyDht::transparent(RingDht::with_named_nodes(base.nodes));
        let retry = RetryPolicy::with_budget(cell_seed, budget);
        let service = IndexService::with_retry(dht, CachePolicy::None, retry);
        let config = base.sim(SchemeChoice::Simple, CachePolicy::None);
        let mut sim = Simulation::load(config, service, corpus.clone())
            .expect("publishing happens before faults are enabled");
        sim.service_mut()
            .dht_mut()
            .set_fault_config(FaultConfig::lossy(cell_seed, loss));

        // Same per-cell query stream, so cells differ only in faults.
        let mut generator =
            QueryGenerator::new(&corpus, StructureMix::paper_simulation(), base.seed);
        let mut successes = 0u64;
        let mut partial = 0u64;
        let mut retries = 0u64;
        let mut abandoned = 0u64;
        let mut backoff_ms = 0u64;
        for _ in 0..queries_per_cell {
            let item = generator.next_query();
            let report = sim
                .service_mut()
                .search(&item.query)
                .expect("faults degrade results, they do not abort");
            if report.files.iter().any(|h| h.file == sim.file(item.target)) {
                successes += 1;
            }
            partial += report.is_partial() as u64;
            retries += report.completeness.retries;
            abandoned += u64::from(report.completeness.abandoned);
            backoff_ms += report.completeness.backoff_ms;
        }
        let n = queries_per_cell as f64;
        [
            fmt_f(loss, 2),
            budget.to_string(),
            queries_per_cell.to_string(),
            fmt_f(successes as f64 / n, 4),
            fmt_f(partial as f64 / n, 4),
            fmt_f(retries as f64 / n, 2),
            fmt_f(abandoned as f64 / n, 3),
            fmt_f(backoff_ms as f64 / n, 1),
        ]
    });

    let mut t = TextTable::new("Extension — Search robustness: message loss × retry budget");
    t.header([
        "loss",
        "budget",
        "queries",
        "success_rate",
        "partial_rate",
        "retries/query",
        "abandoned/query",
        "backoff_ms/query",
    ]);
    for row in rows {
        t.row(row);
    }
    t
}

/// The corpus of the churn and robustness extensions: a quarter as many
/// authors as articles, where the paper grid has a third.
fn extension_corpus(base: &EvalConfig) -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        articles: base.articles,
        author_pool: (base.articles / 4).max(16),
        seed: base.seed,
        ..CorpusConfig::default()
    }))
}

/// Log-spaced ranks in `1..=n` (for log-log plots).
fn log_ranks(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut r = 1.0f64;
    while (r as usize) <= n {
        let v = r as usize;
        if out.last() != Some(&v) {
            out.push(v);
        }
        r *= 1.5;
    }
    if out.last() != Some(&n) {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval() -> Evaluation {
        Evaluation::new(EvalConfig {
            nodes: 30,
            articles: 150,
            queries: 800,
            seed: 42,
        })
    }

    #[test]
    fn fig7_mix_sums_to_one() {
        let t = fig7_query_mix();
        assert!(!t.is_empty());
        assert!(t.to_text().contains("/author"));
    }

    #[test]
    fn fig9_and_fig10_render() {
        let f9 = fig9_popularity();
        assert!(f9.len() > 10);
        let f10 = fig10_ccdf();
        assert_eq!(f10.len(), 21);
        // CCDF decreasing.
        let csv = f10.to_csv();
        let values: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn storage_overhead_orders_schemes() {
        let base = EvalConfig {
            nodes: 30,
            articles: 200,
            queries: 0,
            seed: 42,
        };
        let t = storage_overhead(&base);
        assert_eq!(t.len(), 3);
        let csv = t.to_csv();
        let bytes: Vec<u64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
            .collect();
        // Simple smallest; flat and complex larger.
        assert!(bytes[0] < bytes[1], "simple < flat");
        assert!(bytes[0] < bytes[2], "simple < complex");
    }

    #[test]
    fn grid_is_cached() {
        let mut e = eval();
        let a = e.cell(SchemeChoice::Simple, CachePolicy::None).interactions;
        let b = e.cell(SchemeChoice::Simple, CachePolicy::None).interactions;
        assert_eq!(a, b);
        assert_eq!(e.cells_run(), 1);
    }

    #[test]
    fn run_cells_dedupes_and_matches_serial_cells() {
        let cells = [
            (SchemeChoice::Simple, CachePolicy::None),
            (SchemeChoice::Flat, CachePolicy::Single),
            (SchemeChoice::Simple, CachePolicy::None), // duplicate request
        ];
        let mut par = eval();
        par.run_cells(&cells, 4);
        assert_eq!(par.cells_run(), 2, "duplicates collapse to one run");
        let mut ser = eval();
        for &(scheme, policy) in &cells {
            assert_eq!(
                par.cell(scheme, policy),
                ser.cell(scheme, policy),
                "parallel {scheme:?}/{policy} must equal serial"
            );
        }
        // Already-memoized cells are not re-run.
        par.run_cells(&cells, 4);
        assert_eq!(par.cells_run(), 2);
    }

    #[test]
    fn paper_grid_covers_every_exhibit_policy() {
        let grid = paper_grid();
        assert_eq!(grid.len(), 18, "6 policies × 3 schemes");
        for policy in FIG11_POLICIES
            .iter()
            .chain(&FIG13_POLICIES)
            .chain(&TABLE1_POLICIES)
        {
            for scheme in SchemeChoice::PAPER {
                assert!(grid.contains(&(scheme, *policy)), "{scheme:?}/{policy}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn fig11_shape_flat_wins_and_cache_helps() {
        let mut e = eval();
        let t = fig11_interactions(&mut e, 1);
        let csv = t.to_csv();
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').skip(1).map(|c| c.parse().unwrap()).collect())
            .collect();
        // Row 0 = no-cache: flat (col 1) < simple (col 0).
        assert!(rows[0][1] < rows[0][0]);
        // Single-cache (row 1) improves on no-cache for the hierarchical
        // schemes; flat's chains are already length 2, so caching leaves it
        // essentially unchanged (as in the paper's Fig. 11).
        assert!(rows[1][0] < rows[0][0], "simple");
        assert!(rows[1][2] < rows[0][2], "complex");
        assert!(rows[1][1] <= rows[0][1] + 0.25, "flat stays near its floor");
        // Larger LRU capacity monotonically (weakly) improves.
        for c in 0..3 {
            assert!(rows[4][c] <= rows[2][c] + 0.1, "lru30 <= lru10 col {c}");
        }
    }

    #[test]
    fn fig12_flat_generates_most_traffic() {
        // The flat-vs-others separation needs result lists of realistic
        // length (flat's penalty is list size), hence a larger corpus than
        // the other shape tests use.
        let mut e = Evaluation::new(EvalConfig {
            nodes: 50,
            articles: 2_000,
            queries: 600,
            seed: 42,
        });
        let flat = e
            .cell(SchemeChoice::Flat, CachePolicy::None)
            .normal_bytes_per_query();
        let simple = e
            .cell(SchemeChoice::Simple, CachePolicy::None)
            .normal_bytes_per_query();
        let complex = e
            .cell(SchemeChoice::Complex, CachePolicy::None)
            .normal_bytes_per_query();
        assert!(flat > simple, "flat {flat} > simple {simple}");
        assert!(flat > complex, "flat {flat} > complex {complex}");
    }

    #[test]
    fn fig13_hit_ratios_positive_and_multi_close_to_single() {
        let mut e = eval();
        let _ = fig13_hit_ratio(&mut e, 1);
        let multi = e.cell(SchemeChoice::Simple, CachePolicy::Multi).hit_ratio();
        let single = e
            .cell(SchemeChoice::Simple, CachePolicy::Single)
            .hit_ratio();
        assert!(multi > 0.2 && single > 0.2);
        assert!(
            (multi - single).abs() < 0.12,
            "multi {multi} should be only marginally better than single {single}"
        );
        assert!(multi >= single - 0.02);
    }

    #[test]
    fn fig14_single_more_space_efficient_than_multi() {
        let mut e = eval();
        let _ = fig14_cache_storage(&mut e, 1);
        let multi = e
            .cell(SchemeChoice::Simple, CachePolicy::Multi)
            .mean_cached_keys_per_node();
        let single = e
            .cell(SchemeChoice::Simple, CachePolicy::Single)
            .mean_cached_keys_per_node();
        assert!(multi > single, "multi {multi} > single {single}");
    }

    #[test]
    fn fig15_loads_are_ranked_descending() {
        let mut e = eval();
        let t = fig15_hotspots(&mut e, 1);
        let csv = t.to_csv();
        let first_series: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(first_series.windows(2).all(|w| w[0] >= w[1]));
        assert!(first_series[0] > 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn table1_cache_reduces_errors() {
        let mut e = eval();
        let t = table1_errors(&mut e, 1);
        let csv = t.to_csv();
        let rows: Vec<Vec<u64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').skip(1).map(|c| c.parse().unwrap()).collect())
            .collect();
        for c in 0..3 {
            assert!(rows[0][c] > 0, "no-cache errors col {c}");
            assert!(
                rows[2][c] < rows[0][c],
                "single-cache reduces errors col {c}"
            );
            assert!(rows[1][c] <= rows[0][c], "lru30 reduces errors col {c}");
        }
    }

    #[test]
    fn ext_structure_breakdown_attributes_errors_to_author_year() {
        let mut e = eval();
        let t = ext_structure_breakdown(&mut e, 1);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let errors: u64 = cells[4].parse().unwrap();
            if cells[1] != "/author/year" {
                assert_eq!(errors, 0, "structure {} must not error", cells[1]);
            } else if cells[0] == "no-cache" {
                assert!(errors > 0, "author+year under no-cache must error");
            }
        }
    }

    #[test]
    fn ext_churn_availability_stays_perfect() {
        let base = EvalConfig {
            nodes: 32,
            articles: 150,
            queries: 800,
            seed: 42,
        };
        let t = ext_churn(&base);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[3], "100.0%", "batch {} found-rate", cells[0]);
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn ext_robustness_retries_rescue_lossy_searches() {
        let base = EvalConfig {
            nodes: 32,
            articles: 150,
            queries: 9_600, // 800 queries per sweep cell
            seed: 42,
        };
        let t = ext_robustness(&base, 2);
        assert_eq!(t.len(), 12, "4 loss rates × 3 budgets");
        let csv = t.to_csv();
        let mut saw_partial_cell = false;
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let loss: f64 = cells[0].parse().unwrap();
            let budget: u32 = cells[1].parse().unwrap();
            let success: f64 = cells[3].parse().unwrap();
            let partial: f64 = cells[4].parse().unwrap();
            let retries: f64 = cells[5].parse().unwrap();
            let abandoned: f64 = cells[6].parse().unwrap();
            if loss == 0.0 {
                // A healthy substrate is exactly the pre-fault behavior.
                assert_eq!(success, 1.0, "lossless cell must find everything");
                assert_eq!(partial, 0.0);
                assert_eq!(retries, 0.0);
            } else if budget > 1 {
                assert!(retries > 0.0, "loss {loss} budget {budget} must retry");
            } else {
                assert_eq!(retries, 0.0, "budget 1 can never retry");
            }
            if loss >= 0.10 && budget == 1 {
                // No retry budget: multi-lookup searches collapse.
                assert!(
                    success < 0.99,
                    "loss {loss} without retries should degrade (got {success})"
                );
                saw_partial_cell = true;
                assert!(partial > 0.0, "degraded searches must be marked partial");
            }
            if (loss - 0.10).abs() < 1e-9 && budget == 3 {
                // The acceptance bar: 10% loss, budget 3 ⇒ ≥ 99% success.
                assert!(
                    success >= 0.99,
                    "10% loss with budget 3 must stay above 99% (got {success})"
                );
            }
            if partial > 0.0 {
                assert!(
                    abandoned > 0.0,
                    "partial results imply abandoned sub-lookups"
                );
            }
        }
        assert!(saw_partial_cell);
    }

    #[test]
    fn log_ranks_are_increasing_and_cover_n() {
        let r = log_ranks(500);
        assert_eq!(r[0], 1);
        assert_eq!(*r.last().unwrap(), 500);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }
}
