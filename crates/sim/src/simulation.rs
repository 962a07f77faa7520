//! The evaluation simulator (§V-E of the paper).
//!
//! "Our experiments simulate a P2P network of 500 nodes, on top of which a
//! distributed bibliographic database storing 10 000 articles is
//! implemented. … Each simulation consists of sequentially feeding the
//! indexing network with 50 000 queries from our query generator."
//!
//! [`Simulation::run`] executes exactly that protocol for one
//! (scheme, cache policy) cell and returns the [`Metrics`] every figure and
//! table is derived from. The user model follows §V-E(c): a user submits a
//! query, receives a list of more specific queries, "selects one query from
//! the results that matches the target article", and iterates until the
//! article is found; non-indexed queries recover through
//! generalization, and successful lookups create cache shortcuts.

use std::collections::HashMap;
use std::sync::Arc;

use p2p_index_core::{
    CachePolicy, ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, IndexService, IndexTarget,
    SimpleScheme, Traffic,
};
use p2p_index_dht::{Dht, NodeId, RingDht};
use p2p_index_obs::{MetricsRegistry, MetricsSnapshot};
use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, StructureMix};
use p2p_index_xpath::Query;

/// Which of the paper's index schemes a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// Fig. 8 left.
    Simple,
    /// Fig. 8 center.
    Flat,
    /// Fig. 8 right.
    Complex,
    /// Fig. 4 (extension: the deeper hierarchy with a last-name level).
    Fig4,
}

impl SchemeChoice {
    /// The three schemes of the paper's evaluation, in figure order.
    pub const PAPER: [SchemeChoice; 3] = [
        SchemeChoice::Simple,
        SchemeChoice::Flat,
        SchemeChoice::Complex,
    ];

    /// The scheme implementation.
    pub fn scheme(&self) -> &'static dyn IndexScheme {
        match self {
            SchemeChoice::Simple => &SimpleScheme,
            SchemeChoice::Flat => &FlatScheme,
            SchemeChoice::Complex => &ComplexScheme,
            SchemeChoice::Fig4 => &Fig4Scheme,
        }
    }

    /// One-letter label used in the paper's figures (S / F / C).
    pub fn letter(&self) -> &'static str {
        match self {
            SchemeChoice::Simple => "S",
            SchemeChoice::Flat => "F",
            SchemeChoice::Complex => "C",
            SchemeChoice::Fig4 => "H",
        }
    }

    /// Full label.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeChoice::Simple => "Simple",
            SchemeChoice::Flat => "Flat",
            SchemeChoice::Complex => "Complex",
            SchemeChoice::Fig4 => "Fig4",
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of DHT nodes (paper: 500).
    pub nodes: usize,
    /// Number of articles (paper: 10 000).
    pub articles: usize,
    /// Number of queries fed sequentially (paper: 50 000).
    pub queries: usize,
    /// The index scheme under test.
    pub scheme: SchemeChoice,
    /// The cache policy under test.
    pub policy: CachePolicy,
    /// Query-structure mix (defaults to the §V-C simulation mix).
    pub mix: StructureMix,
    /// Seed for corpus and workload generation.
    pub seed: u64,
    /// Attach a [`MetricsRegistry`] to the service for the query phase,
    /// so [`Simulation::metrics_snapshot`] returns the observability
    /// counters. Off by default: recording is skipped entirely and the
    /// simulation behaves byte-identically to a build without it.
    pub collect_metrics: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 500,
            articles: 10_000,
            queries: 50_000,
            scheme: SchemeChoice::Simple,
            policy: CachePolicy::None,
            mix: StructureMix::paper_simulation(),
            seed: 42,
            collect_metrics: false,
        }
    }
}

impl SimConfig {
    /// A scaled-down configuration for tests and benches.
    pub fn small(scheme: SchemeChoice, policy: CachePolicy) -> SimConfig {
        SimConfig {
            nodes: 50,
            articles: 400,
            queries: 2_000,
            scheme,
            policy,
            ..SimConfig::default()
        }
    }
}

/// Everything measured during one run; the raw material of Figs. 11-15 and
/// Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Scheme label.
    pub scheme: String,
    /// Policy label.
    pub policy: String,
    /// Queries fed.
    pub queries: usize,
    /// Total user-system interactions across all queries (Fig. 11).
    pub interactions: u64,
    /// Queries resolved (fully or partly) through a cache shortcut (Fig. 13).
    pub cache_hits: u64,
    /// Cache hits whose shortcut was found on the *first* node contacted.
    pub cache_hits_first_node: u64,
    /// Queries whose initial lookup found nothing — accesses to non-indexed
    /// data, the paper's recoverable errors (Table I).
    pub errors: u64,
    /// Extra interactions spent generalizing those queries.
    pub generalization_interactions: u64,
    /// Queries whose target was never located (expected 0).
    pub failed: u64,
    /// Final traffic counters (Fig. 12).
    pub traffic: Traffic,
    /// Per-node counts of lookups served, unordered (Fig. 15).
    pub node_query_counts: Vec<u64>,
    /// Per-node regular (index + file) key counts (§V-E(f)).
    pub keys_per_node: Vec<usize>,
    /// Per-node cached-shortcut counts (Fig. 14).
    pub cached_keys_per_node: Vec<usize>,
    /// Fraction of node caches at capacity (LRU policies only).
    pub cache_full_fraction: f64,
    /// Fraction of node caches that stayed completely empty.
    pub cache_empty_fraction: f64,
    /// Total bytes of query-to-query index entries stored in the DHT
    /// (values only; §V-B).
    pub index_entry_bytes: u64,
    /// Total number of stored index values (query-to-query mappings).
    pub index_entry_count: u64,
    /// Per-query-structure breakdown: `(label, queries, interactions,
    /// errors)` — not a paper exhibit, but explains the Fig. 11 averages.
    pub by_structure: Vec<(String, u64, u64, u64)>,
}

impl Metrics {
    /// Mean interactions per query (Fig. 11 y-axis).
    pub fn mean_interactions(&self) -> f64 {
        self.interactions as f64 / self.queries.max(1) as f64
    }

    /// Distributed cache hit ratio (Fig. 13 y-axis).
    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / self.queries.max(1) as f64
    }

    /// Of all cache hits, the fraction that occurred on the first node.
    pub fn first_node_hit_fraction(&self) -> f64 {
        if self.cache_hits == 0 {
            0.0
        } else {
            self.cache_hits_first_node as f64 / self.cache_hits as f64
        }
    }

    /// Mean normal traffic per query in bytes (Fig. 12 light bars).
    pub fn normal_bytes_per_query(&self) -> f64 {
        self.traffic.normal_bytes as f64 / self.queries.max(1) as f64
    }

    /// Mean cache traffic per query in bytes (Fig. 12 dark bars).
    pub fn cache_bytes_per_query(&self) -> f64 {
        self.traffic.cache_bytes as f64 / self.queries.max(1) as f64
    }

    /// Mean regular keys per node (§V-E(f)).
    pub fn mean_keys_per_node(&self) -> f64 {
        mean_usize(&self.keys_per_node)
    }

    /// Mean cached keys per node (Fig. 14 y-axis).
    pub fn mean_cached_keys_per_node(&self) -> f64 {
        mean_usize(&self.cached_keys_per_node)
    }

    /// Maximum cached keys on any node (§V-E(f)).
    pub fn max_cached_keys_per_node(&self) -> usize {
        self.cached_keys_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Per-node share of query processing, sorted descending, as
    /// percentages of all queries fed (Fig. 15; sums to >100% because each
    /// query triggers several lookups).
    pub fn node_load_percentages(&self) -> Vec<f64> {
        let mut counts = self.node_query_counts.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
            .into_iter()
            .map(|c| 100.0 * c as f64 / self.queries.max(1) as f64)
            .collect()
    }
}

fn mean_usize(values: &[usize]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<usize>() as f64 / values.len() as f64
    }
}

/// The per-query outcome, exposed for tests and fine-grained analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Lookup steps performed for this query.
    pub interactions: u32,
    /// Whether a cache shortcut was used.
    pub cache_hit: bool,
    /// Whether the shortcut was found at the first node.
    pub cache_hit_first_node: bool,
    /// Whether the initial query was non-indexed (recoverable error).
    pub error: bool,
    /// Whether the target article was located.
    pub found: bool,
}

/// One full simulation: corpus + DHT + index service + workload.
pub struct Simulation {
    config: SimConfig,
    corpus: Arc<Corpus>,
    service: IndexService<RingDht>,
    msds: Vec<Query>,
    /// Stored-file handles, one per article — rendered once at prepare time
    /// so the query loop never re-formats a file name.
    files: Vec<String>,
}

impl Simulation {
    /// The corpus parameters implied by a simulation config. Cells that
    /// share `(articles, seed)` generate identical corpora, so a grid can
    /// build the corpus once and share it read-only across cells.
    pub fn corpus_config(config: &SimConfig) -> CorpusConfig {
        CorpusConfig {
            articles: config.articles,
            author_pool: (config.articles / 3).max(16),
            seed: config.seed,
            ..CorpusConfig::default()
        }
    }

    /// Builds the network and publishes the whole corpus under the
    /// configured scheme.
    pub fn prepare(config: SimConfig) -> Simulation {
        let corpus = Arc::new(Corpus::generate(Simulation::corpus_config(&config)));
        Simulation::prepare_with_corpus(config, corpus)
    }

    /// Like [`prepare`](Self::prepare), but over a pre-generated corpus —
    /// the experiment grids generate each corpus once and share it
    /// (read-only, behind an `Arc`) across all cells with the same
    /// `(articles, seed)`, instead of re-synthesizing it per cell. The
    /// corpus **must** equal `Corpus::generate(Simulation::corpus_config(&config))`
    /// for the run to be equivalent to [`prepare`](Self::prepare).
    pub fn prepare_with_corpus(config: SimConfig, corpus: Arc<Corpus>) -> Simulation {
        debug_assert_eq!(
            corpus.len(),
            config.articles,
            "corpus does not match config"
        );
        let dht = RingDht::with_named_nodes(config.nodes);
        let mut service = IndexService::new(dht, config.policy);
        let scheme = config.scheme.scheme();
        let mut msds = Vec::with_capacity(corpus.len());
        let mut files = Vec::with_capacity(corpus.len());
        for article in corpus.articles() {
            let file = article.file_name();
            let msd = service
                .publish(&article.descriptor(), file.clone(), scheme)
                .expect("network is non-empty and schemes are covering-safe");
            msds.push(msd);
            files.push(file);
        }
        service.reset_metrics();
        if config.collect_metrics {
            // Attached after publishing so the registry, like the traffic
            // counters, covers exactly the query phase.
            service.set_metrics(MetricsRegistry::new());
        }
        Simulation {
            config,
            corpus,
            service,
            msds,
            files,
        }
    }

    /// The prepared corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The index service (e.g. to inspect the DHT).
    pub fn service(&self) -> &IndexService<RingDht> {
        &self.service
    }

    /// Mutable access to the index service (e.g. to trace a lookup).
    pub fn service_mut(&mut self) -> &mut IndexService<RingDht> {
        &mut self.service
    }

    /// The observability counters recorded so far, if
    /// [`SimConfig::collect_metrics`] attached a registry.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let registry = self.service.metrics();
        registry.is_enabled().then(|| registry.snapshot())
    }

    /// The MSD of article `id`.
    pub fn msd(&self, id: usize) -> &Query {
        &self.msds[id]
    }

    /// Runs the configured number of queries and collects metrics.
    pub fn run(config: SimConfig) -> Metrics {
        let mut sim = Simulation::prepare(config);
        sim.execute()
    }

    /// Like [`run`](Self::run), but over an already-generated corpus,
    /// which must match the config's `(articles, seed)` (see
    /// [`corpus_config`](Self::corpus_config)), and also returning the
    /// observability snapshot when [`SimConfig::collect_metrics`] is set.
    /// Grid drivers use this to synthesize the corpus once and share it
    /// read-only across every cell.
    pub fn run_with_snapshot_on(
        config: SimConfig,
        corpus: Arc<Corpus>,
    ) -> (Metrics, Option<MetricsSnapshot>) {
        let mut sim = Simulation::prepare_with_corpus(config, corpus);
        let metrics = sim.execute();
        let snapshot = sim.metrics_snapshot();
        (metrics, snapshot)
    }

    /// Feeds the query workload through the prepared network.
    pub fn execute(&mut self) -> Metrics {
        let mut generator = QueryGenerator::new(
            &self.corpus,
            self.config.mix.clone(),
            self.config.seed ^ 0x5eed,
        );
        let mut interactions = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_hits_first = 0u64;
        let mut errors = 0u64;
        let mut gen_interactions = 0u64;
        let mut failed = 0u64;
        let mut by_structure: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();

        // Reused across the whole workload: the per-query lookup path and
        // generalization list grow once and are cleared per query instead
        // of being reallocated 50 000 times.
        let mut path: Vec<(NodeId, Query)> = Vec::new();
        let mut generalizations: Vec<Query> = Vec::new();
        for _ in 0..self.config.queries {
            let item = generator.next_query();
            // Borrowed, not cloned: the target MSD and file handle are
            // read-only inputs to the user model.
            let target_msd = &self.msds[item.target];
            let target_file = self.files[item.target].as_str();
            let outcome = user_search_buffered(
                &mut self.service,
                &item.query,
                target_msd,
                target_file,
                &mut path,
                &mut generalizations,
            );
            interactions += outcome.interactions as u64;
            let slot = by_structure
                .entry(item.structure.label())
                .or_insert((0, 0, 0));
            slot.0 += 1;
            slot.1 += outcome.interactions as u64;
            if outcome.cache_hit {
                cache_hits += 1;
                if outcome.cache_hit_first_node {
                    cache_hits_first += 1;
                }
            }
            if outcome.error {
                errors += 1;
                gen_interactions += outcome.interactions as u64;
                slot.2 += 1;
            }
            if !outcome.found {
                failed += 1;
            }
        }
        let mut by_structure: Vec<(String, u64, u64, u64)> = by_structure
            .into_iter()
            .map(|(label, (q, i, e))| (label.to_string(), q, i, e))
            .collect();
        by_structure.sort_by_key(|(_, queries, _, _)| std::cmp::Reverse(*queries));

        self.collect(
            interactions,
            cache_hits,
            cache_hits_first,
            errors,
            gen_interactions,
            failed,
            by_structure,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn collect(
        &self,
        interactions: u64,
        cache_hits: u64,
        cache_hits_first_node: u64,
        errors: u64,
        generalization_interactions: u64,
        failed: u64,
        by_structure: Vec<(String, u64, u64, u64)>,
    ) -> Metrics {
        let dht = self.service.dht();
        // Borrowed straight from the service — snapshotting a cell must not
        // clone the whole per-node map just to read it once.
        let node_counts: &HashMap<NodeId, u64> = self.service.node_query_counts();
        let nodes = dht.nodes();
        let node_query_counts: Vec<u64> = nodes
            .iter()
            .map(|n| node_counts.get(n).copied().unwrap_or(0))
            .collect();
        let keys_per_node: Vec<usize> = dht
            .storage_distribution()
            .iter()
            .map(|(_, k, _)| *k)
            .collect();
        let cached_keys_per_node: Vec<usize> =
            self.service.cache_sizes().iter().map(|(_, c)| *c).collect();
        let (cache_full_fraction, cache_empty_fraction) = self.service.cache_fill_fractions();

        // Index entry footprint: every stored value that is a query-to-query
        // mapping (wire prefix "Q:").
        let mut index_entry_bytes = 0u64;
        let mut index_entry_count = 0u64;
        for node in &nodes {
            if let Some(store) = dht.store_of(node) {
                for (_key, values) in store.iter() {
                    for v in values {
                        if v.starts_with(b"Q:") {
                            index_entry_bytes += v.len() as u64;
                            index_entry_count += 1;
                        }
                    }
                }
            }
        }

        Metrics {
            scheme: self.config.scheme.label().to_string(),
            policy: self.config.policy.to_string(),
            queries: self.config.queries,
            interactions,
            cache_hits,
            cache_hits_first_node,
            errors,
            generalization_interactions,
            failed,
            traffic: *self.service.traffic(),
            node_query_counts,
            keys_per_node,
            cached_keys_per_node,
            cache_full_fraction,
            cache_empty_fraction,
            index_entry_bytes,
            index_entry_count,
            by_structure,
        }
    }
}

/// The §V-E(c) user model: iterate lookups, at each step selecting the
/// result that matches the target article, until the file is found.
///
/// Returns the per-query outcome; creates cache shortcuts on success.
///
/// Generic over the substrate: the paper grid drives it over
/// `RingDht`, the hot-spot scenario over a load-balancing
/// `SplitDht<RingDht>`.
pub fn user_search<D: Dht>(
    service: &mut IndexService<D>,
    query: &Query,
    target_msd: &Query,
    target_file: &str,
) -> QueryOutcome {
    user_search_buffered(
        service,
        query,
        target_msd,
        target_file,
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// [`user_search`] with caller-owned scratch buffers for the lookup path
/// and the generalization list — the simulation loop reuses one pair of
/// buffers across its whole workload instead of allocating per query.
/// Both buffers are cleared on entry.
pub fn user_search_buffered<D: Dht>(
    service: &mut IndexService<D>,
    query: &Query,
    target_msd: &Query,
    target_file: &str,
    path: &mut Vec<(NodeId, Query)>,
    generalizations: &mut Vec<Query>,
) -> QueryOutcome {
    const MAX_STEPS: u32 = 64;

    let mut outcome = QueryOutcome {
        interactions: 0,
        cache_hit: false,
        cache_hit_first_node: false,
        error: false,
        found: false,
    };
    path.clear();
    generalizations.clear();
    let mut current = query.clone();
    let mut tried_generalizing = false;

    while outcome.interactions < MAX_STEPS {
        let resp = match service.lookup_step(&current) {
            Ok(r) => r,
            Err(_) => break,
        };
        outcome.interactions += 1;
        let node = resp.node.expect("lookup succeeded on a live node");
        let first_contact = path.is_empty();
        path.push((node, current.clone()));

        // 1. Cached shortcut leading to the target?
        let cached_next = resp
            .cached
            .iter()
            .find(|t| leads_to_target(t, &current, target_msd, target_file))
            .cloned();
        if let Some(t) = cached_next {
            if !outcome.cache_hit {
                outcome.cache_hit = true;
                outcome.cache_hit_first_node = first_contact;
            }
            match t {
                IndexTarget::File(_) => {
                    outcome.found = true;
                    break;
                }
                IndexTarget::Query(q) => {
                    current = q;
                    continue;
                }
            }
        }

        // 2. Unhelpful shortcut: fetch the regular entries from the same
        // node — extra traffic, but the same logical user interaction.
        let indexed = if resp.cached.is_empty() {
            resp.indexed
        } else {
            match service.lookup_step_bypassing_cache(&current) {
                Ok(full) => full.indexed,
                Err(_) => break,
            }
        };

        // Regular index entry leading to the target?
        let indexed_next = indexed
            .iter()
            .find(|t| leads_to_target(t, &current, target_msd, target_file))
            .cloned();
        if let Some(t) = indexed_next {
            match t {
                IndexTarget::File(_) => {
                    outcome.found = true;
                    break;
                }
                IndexTarget::Query(q) => {
                    current = q;
                    continue;
                }
            }
        }

        // 3. Dead end. If the original query returned nothing at all —
        // no shortcut and no index entry — the user accessed non-indexed
        // data (Table I). A cached shortcut counts as an answer even when
        // it doesn't lead to this user's target: "an index entry is
        // created automatically after the first lookup; subsequent queries
        // … do not experience an error" (§V-E(h)). Generalize either way.
        if first_contact && resp.cached.is_empty() && indexed.is_empty() {
            outcome.error = true;
        }
        if !tried_generalizing {
            tried_generalizing = true;
            current.generalizations_into(generalizations);
        }
        match generalizations.pop() {
            Some(g) => {
                // Each generalization attempt is a fresh entry point; keep
                // the original first-contact node as the shortcut location.
                current = g;
            }
            None => break,
        }
    }

    if outcome.found {
        service.create_shortcuts(path, &IndexTarget::Query(target_msd.clone()));
    }
    outcome
}

/// Does `target` move the search toward the wanted article?
fn leads_to_target(
    target: &IndexTarget,
    current: &Query,
    target_msd: &Query,
    target_file: &str,
) -> bool {
    match target {
        IndexTarget::File(f) => **f == *target_file,
        IndexTarget::Query(q) => q != current && (q == target_msd || q.covers(target_msd)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scheme: SchemeChoice, policy: CachePolicy) -> Metrics {
        Simulation::run(SimConfig {
            nodes: 40,
            articles: 200,
            queries: 1_500,
            scheme,
            policy,
            ..SimConfig::default()
        })
    }

    #[test]
    fn every_query_finds_its_target() {
        for scheme in SchemeChoice::PAPER {
            let m = small(scheme, CachePolicy::None);
            assert_eq!(m.failed, 0, "{}: all targets must be locatable", m.scheme);
        }
    }

    #[test]
    fn flat_needs_fewest_interactions() {
        let simple = small(SchemeChoice::Simple, CachePolicy::None);
        let flat = small(SchemeChoice::Flat, CachePolicy::None);
        let complex = small(SchemeChoice::Complex, CachePolicy::None);
        assert!(
            flat.mean_interactions() < simple.mean_interactions(),
            "flat {} < simple {}",
            flat.mean_interactions(),
            simple.mean_interactions()
        );
        assert!(
            simple.mean_interactions() <= complex.mean_interactions() + 0.05,
            "simple {} <= complex {}",
            simple.mean_interactions(),
            complex.mean_interactions()
        );
    }

    #[test]
    fn caching_reduces_interactions() {
        let none = small(SchemeChoice::Simple, CachePolicy::None);
        let single = small(SchemeChoice::Simple, CachePolicy::Single);
        assert!(single.mean_interactions() < none.mean_interactions());
        assert!(single.hit_ratio() > 0.3);
        assert_eq!(none.hit_ratio(), 0.0);
    }

    #[test]
    fn flat_generates_most_traffic() {
        // Flat's traffic penalty comes from long result lists ("each query
        // receives directly the descriptors of all articles that match"),
        // so the corpus must be large enough for lists to dominate the
        // per-exchange overhead — at tiny scales flat's shorter chains win.
        let run = |scheme| {
            Simulation::run(SimConfig {
                nodes: 40,
                articles: 2_000,
                queries: 600,
                scheme,
                policy: CachePolicy::None,
                ..SimConfig::default()
            })
        };
        let simple = run(SchemeChoice::Simple);
        let flat = run(SchemeChoice::Flat);
        assert!(
            flat.normal_bytes_per_query() > simple.normal_bytes_per_query(),
            "flat {} vs simple {}",
            flat.normal_bytes_per_query(),
            simple.normal_bytes_per_query()
        );
    }

    #[test]
    fn caching_reduces_errors() {
        let none = small(SchemeChoice::Simple, CachePolicy::None);
        let single = small(SchemeChoice::Simple, CachePolicy::Single);
        assert!(none.errors > 0, "author+year queries must trigger errors");
        assert!(single.errors < none.errors);
    }

    #[test]
    fn error_rate_matches_author_year_share() {
        // ~5% of queries are author+year, the only non-indexed structure.
        let m = small(SchemeChoice::Simple, CachePolicy::None);
        let rate = m.errors as f64 / m.queries as f64;
        assert!((rate - 0.05).abs() < 0.02, "error rate {rate}");
    }

    #[test]
    fn lru_capacity_bounds_cache() {
        let m = small(SchemeChoice::Simple, CachePolicy::Lru(10));
        assert!(m.max_cached_keys_per_node() <= 10);
        assert!(m.mean_cached_keys_per_node() <= 10.0);
        assert!(m.cache_full_fraction > 0.0);
    }

    #[test]
    fn multi_cache_stores_more_than_single() {
        let multi = small(SchemeChoice::Simple, CachePolicy::Multi);
        let single = small(SchemeChoice::Simple, CachePolicy::Single);
        assert!(
            multi.mean_cached_keys_per_node() > single.mean_cached_keys_per_node(),
            "multi {} vs single {}",
            multi.mean_cached_keys_per_node(),
            single.mean_cached_keys_per_node()
        );
        assert!(multi.cache_bytes_per_query() > single.cache_bytes_per_query());
    }

    #[test]
    fn flat_cache_hits_concentrate_on_first_node() {
        let m = small(SchemeChoice::Flat, CachePolicy::Multi);
        assert!(
            m.first_node_hit_fraction() > 0.95,
            "flat chains are length 2; fraction {}",
            m.first_node_hit_fraction()
        );
    }

    #[test]
    fn node_load_is_skewed() {
        let m = small(SchemeChoice::Simple, CachePolicy::None);
        let loads = m.node_load_percentages();
        assert!(
            loads[0] > loads[loads.len() / 2] * 3.0,
            "hot spots expected"
        );
        // Total > 100%: each query generates several lookups.
        let total: f64 = loads.iter().sum();
        assert!(total > 100.0);
    }

    #[test]
    fn metrics_are_deterministic() {
        let a = small(SchemeChoice::Simple, CachePolicy::Lru(20));
        let b = small(SchemeChoice::Simple, CachePolicy::Lru(20));
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.cache_hits, b.cache_hits);
    }

    #[test]
    fn index_storage_simple_smallest_flat_largest() {
        let simple = small(SchemeChoice::Simple, CachePolicy::None);
        let flat = small(SchemeChoice::Flat, CachePolicy::None);
        let complex = small(SchemeChoice::Complex, CachePolicy::None);
        assert!(simple.index_entry_bytes < complex.index_entry_bytes);
        assert!(simple.index_entry_bytes < flat.index_entry_bytes);
    }

    #[test]
    fn scheme_choice_helpers() {
        assert_eq!(SchemeChoice::Simple.letter(), "S");
        assert_eq!(SchemeChoice::Flat.label(), "Flat");
        assert_eq!(SchemeChoice::PAPER.len(), 3);
        assert_eq!(SchemeChoice::Complex.scheme().name(), "complex");
    }

    #[test]
    fn node_query_counts_snapshot_matches_service_state() {
        // `collect` reads the per-node lookup counts by reference (no map
        // clone per snapshot); this pins that the reported vector is still
        // exactly the service's counts in DHT node order.
        let mut sim = Simulation::prepare(SimConfig {
            nodes: 30,
            articles: 100,
            queries: 500,
            scheme: SchemeChoice::Simple,
            policy: CachePolicy::Single,
            ..SimConfig::default()
        });
        let metrics = sim.execute();
        let counts = sim.service().node_query_counts();
        let expected: Vec<u64> = sim
            .service()
            .dht()
            .nodes()
            .iter()
            .map(|n| counts.get(n).copied().unwrap_or(0))
            .collect();
        assert_eq!(metrics.node_query_counts, expected);
        assert_eq!(
            metrics.node_query_counts.iter().sum::<u64>(),
            counts.values().sum::<u64>(),
            "every served lookup is accounted"
        );
        assert!(metrics.node_query_counts.iter().sum::<u64>() > 0);
    }

    #[test]
    fn shared_corpus_cell_matches_fresh_prepare() {
        // Grid cells share one Arc'd corpus; a shared-corpus run must be
        // indistinguishable from a run that generated its own.
        let config = SimConfig {
            nodes: 30,
            articles: 120,
            queries: 600,
            scheme: SchemeChoice::Simple,
            policy: CachePolicy::Lru(20),
            ..SimConfig::default()
        };
        let corpus = Arc::new(Corpus::generate(Simulation::corpus_config(&config)));
        let mut shared = Simulation::prepare_with_corpus(config.clone(), corpus);
        let mut fresh = Simulation::prepare(config);
        assert_eq!(shared.execute(), fresh.execute());
    }

    #[test]
    fn user_search_direct_msd_lookup() {
        let sim = Simulation::prepare(SimConfig {
            nodes: 20,
            articles: 50,
            queries: 0,
            scheme: SchemeChoice::Simple,
            policy: CachePolicy::None,
            ..SimConfig::default()
        });
        let msd = sim.msd(0).clone();
        let file = sim.corpus().article(0).unwrap().file_name();
        let mut svc = sim.service;
        let out = user_search(&mut svc, &msd, &msd, &file);
        assert!(out.found);
        assert_eq!(out.interactions, 1);
        assert!(!out.error);
    }
}
