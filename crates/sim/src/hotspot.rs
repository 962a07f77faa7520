//! The skewed-load scenario: `repro hotspot`.
//!
//! The paper's popularity model (Fig. 10) already concentrates requests on
//! a few articles; a flash crowd — a news-driven spike on one title —
//! concentrates them further onto the handful of nodes owning that title's
//! index keys. This module scripts exactly that scenario over a large ring
//! and measures what each node actually serves, with and without the
//! `crates/dht` balance subsystem ([`SplitDht`]) in the path:
//!
//! * **baseline** — [`BalanceConfig::observe_only`]: every operation
//!   passes through unchanged; the decorator only attributes physical
//!   puts/gets to the owning node.
//! * **mitigated** — hot-key read fan-out: reads of a key promoted to
//!   hot rotate across its primary and successor mirrors.
//!
//! Both cells run the *same* corpus, workload seed, and query stream, so
//! the per-node load difference is attributable to the subsystem alone.
//!
//! The headline exhibit is the per-node imbalance summary
//! ([`ImbalanceSummary`]: max/mean, Gini, top-k) over operations served
//! and bytes stored, emitted as a table/CSV and, with every cell's
//! counters, as one JSON object ([`HotspotReport::to_json`]).

use std::collections::HashMap;
use std::sync::Arc;

use p2p_index_core::{CachePolicy, IndexScheme, IndexService, SimpleScheme};
use p2p_index_dht::{BalanceConfig, Dht, NodeLoad, RingDht, SplitDht};
use p2p_index_obs::ImbalanceSummary;
use p2p_index_workload::{Corpus, CorpusConfig, FlashCrowd, QueryStructure, StructureMix};
use p2p_index_xpath::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::simulation::user_search_buffered;
use crate::table::{fmt_f, TextTable};

/// How many heaviest nodes the imbalance summaries retain.
const TOP_K: usize = 5;

/// Cache policy of both cells: none, so the exhibit isolates the DHT
/// layer. The paper's shortcut caches absorb repeated *lookups*, but a
/// shortcut is answered by the node the query lands on, so publishes,
/// cold lookups and the crowd's own chain still load the owners — that
/// residual load is what the balance subsystem spreads.
const POLICY: CachePolicy = CachePolicy::None;

/// Full configuration of one hot-spot scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Ring size (paper-scale default: 10 000 simulated nodes).
    pub nodes: usize,
    /// Corpus size.
    pub articles: usize,
    /// Queries fed sequentially.
    pub queries: usize,
    /// Seed for corpus and workload generation.
    pub seed: u64,
    /// Popularity rank (1-based) of the article the flash crowd hits.
    pub hot_rank: usize,
    /// Crowd window as fractions of the query stream, `0.0 ..= 1.0`.
    pub window: (f64, f64),
    /// In-window probability that a query redirects to the hot title.
    pub boost: f64,
    /// [`BalanceConfig::hot_threshold`] of the mitigated cell.
    pub hot_threshold: u64,
    /// [`BalanceConfig::fanout`] of the mitigated cell.
    pub fanout: usize,
}

impl HotspotConfig {
    /// The full-scale scenario: a 10 000-node ring, the paper's corpus
    /// and popularity constants, and a flash crowd over the middle fifth
    /// of the stream.
    pub fn paper() -> HotspotConfig {
        HotspotConfig {
            nodes: 10_000,
            articles: 10_000,
            queries: 50_000,
            seed: 42,
            hot_rank: 7,
            window: (0.4, 0.6),
            boost: 0.9,
            hot_threshold: 64,
            fanout: 7,
        }
    }

    /// A scaled-down scenario with the same qualitative shape, for CI
    /// smoke runs and tests.
    pub fn small() -> HotspotConfig {
        HotspotConfig {
            nodes: 1_000,
            articles: 1_000,
            queries: 8_000,
            hot_threshold: 32,
            ..HotspotConfig::paper()
        }
    }

    /// The crowd window as query indices.
    pub fn window_indices(&self) -> (usize, usize) {
        let clamp = |f: f64| ((self.queries as f64 * f) as usize).min(self.queries);
        (clamp(self.window.0), clamp(self.window.1))
    }

    /// The mitigated cell's balance configuration.
    pub fn balance(&self) -> BalanceConfig {
        BalanceConfig::mitigating(self.hot_threshold, self.fanout)
    }

    /// The corpus implied by this config (same sizing rule as the paper
    /// grid, so equal `(articles, seed)` means an equal corpus).
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            articles: self.articles,
            author_pool: (self.articles / 3).max(16),
            seed: self.seed,
            ..CorpusConfig::default()
        }
    }
}

/// Everything measured in one scenario cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell label ("baseline", "mitigated", …).
    pub label: String,
    /// Imbalance of physical DHT operations served per node during the
    /// query phase — the headline number.
    pub ops: ImbalanceSummary,
    /// Imbalance of value bytes stored per node at the end of the run.
    pub stored_bytes: ImbalanceSummary,
    /// Total physical gets during the query phase.
    pub gets: u64,
    /// Total physical puts during the query phase.
    pub puts: u64,
    /// Total user-system interactions.
    pub interactions: u64,
    /// Non-indexed initial queries (recoverable errors).
    pub errors: u64,
    /// Queries whose target was never located (expected 0).
    pub failed: u64,
    /// Keys promoted to hot.
    pub promotions: u64,
    /// Gets served from a mirror instead of the primary.
    pub mirror_reads: u64,
    /// Keys currently hot.
    pub hot_keys: usize,
}

impl CellResult {
    /// The cell as a JSON object fragment.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ops\": {}, \"stored_bytes\": {}, \"gets\": {}, \"puts\": {}, \
             \"interactions\": {}, \"errors\": {}, \"failed\": {}, \
             \"promotions\": {}, \"mirror_reads\": {}, \"hot_keys\": {}}}",
            self.ops.to_json(),
            self.stored_bytes.to_json(),
            self.gets,
            self.puts,
            self.interactions,
            self.errors,
            self.failed,
            self.promotions,
            self.mirror_reads,
            self.hot_keys,
        )
    }
}

/// The full scenario result: the baseline and mitigated cells.
#[derive(Debug, Clone)]
pub struct HotspotReport {
    /// The configuration that produced this report.
    pub config: HotspotConfig,
    /// Observe-only cell.
    pub baseline: CellResult,
    /// Hot-key fan-out cell.
    pub mitigated: CellResult,
}

impl HotspotReport {
    /// `true` when the mitigation unloaded the hottest node (fewer
    /// operations served by it) without worsening max/mean of per-node
    /// operations served. Max/mean alone could "improve" by adding ops
    /// elsewhere, which raises the mean without unloading anyone.
    /// `repro hotspot` exits non-zero when this is `false`.
    pub fn improved(&self) -> bool {
        self.mitigated.ops.max < self.baseline.ops.max
            && self.mitigated.ops.max_over_mean <= self.baseline.ops.max_over_mean
    }

    /// The headline table: per-node imbalance of operations served and
    /// bytes stored, baseline vs mitigated.
    pub fn imbalance_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Hot-spot imbalance: flash crowd on one title (repro hotspot)".to_string(),
        );
        t.header([
            "cell", "measure", "nodes", "total", "mean", "max", "max/mean", "gini", "top-1",
        ]);
        for cell in [&self.baseline, &self.mitigated] {
            for (measure, s) in [("ops", &cell.ops), ("bytes", &cell.stored_bytes)] {
                t.row([
                    cell.label.clone(),
                    measure.to_string(),
                    s.nodes.to_string(),
                    s.total.to_string(),
                    fmt_f(s.mean, 2),
                    s.max.to_string(),
                    fmt_f(s.max_over_mean, 2),
                    fmt_f(s.gini, 4),
                    s.top.first().copied().unwrap_or(0).to_string(),
                ]);
            }
        }
        t
    }

    /// The mechanism table: what the balance subsystem actually did in
    /// each cell.
    pub fn mitigation_table(&self) -> TextTable {
        let mut t = TextTable::new("Hot-spot mitigation counters".to_string());
        t.header(["cell", "promotions", "hot keys", "mirror reads", "errors"]);
        for cell in [&self.baseline, &self.mitigated] {
            t.row([
                cell.label.clone(),
                cell.promotions.to_string(),
                cell.hot_keys.to_string(),
                cell.mirror_reads.to_string(),
                cell.errors.to_string(),
            ]);
        }
        t
    }

    /// The report as one JSON document: the `hotspot.json` that `repro
    /// hotspot --csv DIR` writes (hand-rolled, like every other JSON
    /// emitter in this workspace).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let (w0, w1) = c.window_indices();
        format!(
            "{{\n  \"config\": {{\"nodes\": {}, \"articles\": {}, \"queries\": {}, \
             \"seed\": {}, \"hot_rank\": {}, \"window\": [{w0}, {w1}], \"boost\": {:.2}, \
             \"hot_threshold\": {}, \"fanout\": {}}},\n  \
             \"baseline\": {},\n  \"mitigated\": {},\n  \"improved\": {}\n}}\n",
            c.nodes,
            c.articles,
            c.queries,
            c.seed,
            c.hot_rank,
            c.boost,
            c.hot_threshold,
            c.fanout,
            self.baseline.to_json(),
            self.mitigated.to_json(),
            self.improved(),
        )
    }
}

/// Runs the whole scenario: the shared corpus and both cells.
pub fn run(config: &HotspotConfig) -> HotspotReport {
    let corpus = Arc::new(Corpus::generate(config.corpus_config()));
    HotspotReport {
        config: *config,
        baseline: run_cell(config, &corpus, BalanceConfig::observe_only(), "baseline"),
        mitigated: run_cell(config, &corpus, config.balance(), "mitigated"),
    }
}

/// Runs one cell: publish the corpus, feed the flash-crowd workload,
/// summarize per-node load.
fn run_cell(
    config: &HotspotConfig,
    corpus: &Arc<Corpus>,
    balance: BalanceConfig,
    label: &str,
) -> CellResult {
    let dht = SplitDht::new(RingDht::with_named_nodes(config.nodes), balance);
    let mut service = IndexService::new(dht, POLICY);
    let scheme: &dyn IndexScheme = &SimpleScheme;

    let mut msds = Vec::with_capacity(corpus.len());
    let mut files = Vec::with_capacity(corpus.len());
    for article in corpus.articles() {
        let file = article.file_name();
        let msd = service
            .publish(&article.descriptor(), file.clone(), scheme)
            .expect("network is non-empty and the scheme is covering-safe");
        msds.push(msd);
        files.push(file);
    }
    // The query phase is the exhibit: drop the publish wave from the load
    // table (it still shows in the stored-bytes distribution).
    service.dht_mut().reset_load();
    service.reset_metrics();

    let (w0, w1) = config.window_indices();
    let crowd = FlashCrowd::new(config.articles, config.hot_rank, w0, w1, config.boost);
    let mix = StructureMix::paper_simulation();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xf1a5);
    // Interned like the paper workload generator: the crowd asks for the
    // same few queries over and over.
    let mut memo: HashMap<(QueryStructure, usize), Query> = HashMap::new();
    let mut path = Vec::new();
    let mut generalizations = Vec::new();
    let mut interactions = 0u64;
    let mut errors = 0u64;
    let mut failed = 0u64;
    for qi in 0..config.queries {
        let rank = crowd.sample_at(qi, &mut rng);
        let target = rank - 1;
        let article = corpus.article(target).expect("rank within corpus");
        // The flash crowd is everyone searching one breaking title, so
        // in-window hits on the hot article all share the title
        // structure — one key, maximum concentration. Everything else
        // follows the paper's structure mix.
        let structure = if crowd.in_window(qi) && rank == config.hot_rank {
            QueryStructure::Title
        } else {
            mix.sample(&mut rng)
        };
        let query = memo
            .entry((structure, target))
            .or_insert_with(|| structure.query_for(article))
            .clone();
        let outcome = user_search_buffered(
            &mut service,
            &query,
            &msds[target],
            files[target].as_str(),
            &mut path,
            &mut generalizations,
        );
        interactions += outcome.interactions as u64;
        if outcome.error {
            errors += 1;
        }
        if !outcome.found {
            failed += 1;
        }
    }

    let split = service.dht();
    let loads = split.load();
    let nodes = split.inner().nodes();
    let ops_counts: Vec<u64> = nodes
        .iter()
        .map(|n| loads.get(n).map(NodeLoad::ops).unwrap_or(0))
        .collect();
    let gets: u64 = loads.values().map(|l| l.gets).sum();
    let puts: u64 = loads.values().map(|l| l.puts).sum();
    let byte_counts: Vec<u64> = split
        .inner()
        .storage_distribution()
        .iter()
        .map(|(_, _, bytes)| *bytes as u64)
        .collect();
    let (promotions, mirror_reads) = split.balance_stats();
    CellResult {
        label: label.to_string(),
        ops: ImbalanceSummary::from_counts(&ops_counts, TOP_K),
        stored_bytes: ImbalanceSummary::from_counts(&byte_counts, TOP_K),
        gets,
        puts,
        interactions,
        errors,
        failed,
        promotions,
        mirror_reads,
        hot_keys: split.hot_key_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotspotConfig {
        HotspotConfig {
            nodes: 60,
            articles: 150,
            queries: 900,
            seed: 7,
            hot_rank: 3,
            window: (0.3, 0.8),
            boost: 1.0,
            hot_threshold: 16,
            fanout: 4,
        }
    }

    #[test]
    fn mitigation_reduces_query_phase_imbalance() {
        let report = run(&tiny());
        assert_eq!(report.baseline.failed, 0);
        assert_eq!(report.mitigated.failed, 0);
        // The observe-only cell never promotes…
        assert_eq!(report.baseline.promotions, 0);
        // …the mitigated cell does…
        assert!(report.mitigated.promotions > 0, "no key ever promoted");
        assert!(report.mitigated.mirror_reads > 0, "no read hit a mirror");
        // …and the flash crowd's hottest node serves fewer ops…
        assert!(
            report.mitigated.ops.max < report.baseline.ops.max,
            "hottest node {} (mitigated) !< {} (baseline)",
            report.mitigated.ops.max,
            report.baseline.ops.max
        );
        // …while the peak flattens.
        assert!(
            report.mitigated.ops.max_over_mean < report.baseline.ops.max_over_mean,
            "max/mean {} (mitigated) !< {} (baseline)",
            report.mitigated.ops.max_over_mean,
            report.baseline.ops.max_over_mean
        );
        assert!(report.improved());
    }

    #[test]
    fn both_cells_feed_an_identical_query_stream() {
        // Same seed, same corpus: user-visible outcome counters that the
        // balance layer must not disturb are identical across cells.
        let report = run(&tiny());
        assert_eq!(report.baseline.errors, report.mitigated.errors);
        assert_eq!(report.baseline.failed, report.mitigated.failed);
    }

    #[test]
    fn json_member_carries_the_ci_keys() {
        let report = run(&tiny());
        let json = report.to_json();
        assert!(json.contains("\"improved\": "));
        assert!(json.contains("\"baseline\": {"));
        assert!(json.contains("\"max_over_mean\": "));
        // One balanced object, whole: it opens on the first byte and
        // closes on the last, never in between.
        let object = json.trim_end();
        let mut depth = 0i32;
        for (at, c) in object.char_indices() {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            assert_eq!(depth == 0, at == object.len() - 1, "depth {depth} at {at}");
        }
    }

    #[test]
    fn window_indices_clamp_to_the_stream() {
        let config = HotspotConfig {
            window: (0.5, 1.5),
            ..tiny()
        };
        assert_eq!(config.window_indices(), (450, 900));
    }
}
