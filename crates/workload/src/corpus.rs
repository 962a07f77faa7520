//! The synthetic bibliographic corpus.
//!
//! The paper builds its database from the DBLP archive (115 879 article
//! entries as of January 2003, §V-A) and simulates a 10 000-article subset.
//! The archive itself is not available offline, so this module generates a
//! *synthetic* corpus with the properties the evaluation actually depends
//! on (see DESIGN.md §4):
//!
//! * descriptors with exactly the Fig. 1 schema
//!   (`author/first`, `author/last`, `title`, `conf`, `year`, `size`);
//! * a power-law papers-per-author distribution (a few prolific authors,
//!   a long tail), as in DBLP;
//! * realistic-looking names, titles, and venues, so query/entry byte
//!   sizes — which drive the Fig. 12 traffic numbers — are plausible;
//! * full determinism from a seed.

use p2p_index_xmldoc::{Descriptor, Element};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One bibliographic record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Article {
    /// Corpus index; doubles as the popularity rank (0 = most popular).
    pub id: usize,
    /// `(first, last)` name pairs; at least one.
    pub authors: Vec<(String, String)>,
    /// Title text.
    pub title: String,
    /// Conference name.
    pub conf: String,
    /// Publication year.
    pub year: u32,
    /// File size in bytes (the paper estimates 250 KB per article).
    pub size: u64,
}

impl Article {
    /// The article's XML descriptor (Fig. 1 schema).
    pub fn descriptor(&self) -> Descriptor {
        let mut root = Element::new("article");
        for (first, last) in &self.authors {
            root.push_child(
                Element::new("author")
                    .with_child(Element::with_text("first", first))
                    .with_child(Element::with_text("last", last)),
            );
        }
        root.push_child(Element::with_text("title", &self.title));
        root.push_child(Element::with_text("conf", &self.conf));
        root.push_child(Element::with_text("year", self.year.to_string()));
        root.push_child(Element::with_text("size", self.size.to_string()));
        Descriptor::new(root)
    }

    /// The stored-file handle for this article.
    pub fn file_name(&self) -> String {
        format!("article-{}.pdf", self.id)
    }

    /// The first (primary) author.
    pub fn primary_author(&self) -> &(String, String) {
        &self.authors[0]
    }
}

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of articles (the paper simulates 10 000).
    pub articles: usize,
    /// Size of the author pool articles draw from.
    pub author_pool: usize,
    /// Probability that an article has a second author, third author, …
    /// (each additional author with this probability again).
    pub extra_author_prob: f64,
    /// RNG seed; every corpus is fully determined by its config.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            articles: 10_000,
            author_pool: 3_300,
            extra_author_prob: 0.0, // Fig. 1 descriptors carry one author
            seed: 42,
        }
    }
}

/// Zipf exponent of the papers-per-author distribution.
const AUTHOR_ZIPF_EXPONENT: f64 = 0.55;
/// Inclusive year range of publications.
const YEAR_RANGE: (u32, u32) = (1980, 2003);
/// Mean article file size in bytes (paper: 250 KB).
const MEAN_FILE_SIZE: u64 = 250 * 1024;

/// The generated corpus: articles plus the author pool they draw from.
#[derive(Debug, Clone)]
pub struct Corpus {
    config: CorpusConfig,
    articles: Vec<Article>,
}

impl Corpus {
    /// Generates a corpus from `config`, deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `config.articles == 0` or `config.author_pool == 0`.
    pub fn generate(config: CorpusConfig) -> Corpus {
        assert!(config.articles > 0, "corpus must contain articles");
        assert!(config.author_pool > 0, "author pool must be non-empty");
        let mut rng = StdRng::seed_from_u64(config.seed);

        let authors: Vec<(String, String)> = (0..config.author_pool)
            .map(|i| synth_author(i, &mut rng))
            .collect();

        // Zipf CDF over the author pool: prolific authors first.
        let author_cdf = zipf_cdf(config.author_pool, AUTHOR_ZIPF_EXPONENT);

        let venues = VENUES;
        let mut articles = Vec::with_capacity(config.articles);
        for id in 0..config.articles {
            let mut article_authors = vec![authors[sample_cdf(&author_cdf, &mut rng)].clone()];
            while rng.gen_bool(config.extra_author_prob.clamp(0.0, 0.95))
                && article_authors.len() < 6
            {
                let extra = authors[sample_cdf(&author_cdf, &mut rng)].clone();
                if !article_authors.contains(&extra) {
                    article_authors.push(extra);
                }
            }
            let (y0, y1) = YEAR_RANGE;
            let year = rng.gen_range(y0..=y1);
            // Log-normal-ish sizes around the mean.
            let factor = 0.5 + rng.gen::<f64>() + rng.gen::<f64>();
            let size = (MEAN_FILE_SIZE as f64 * factor * 0.5) as u64 + 1024;
            articles.push(Article {
                id,
                authors: article_authors,
                title: synth_title(&mut rng),
                conf: venues[rng.gen_range(0..venues.len())].to_string(),
                year,
                size,
            });
        }
        Corpus { config, articles }
    }

    /// The configuration the corpus was generated from.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// All articles, ordered by id (= popularity rank).
    pub fn articles(&self) -> &[Article] {
        &self.articles
    }

    /// Number of articles.
    pub fn len(&self) -> usize {
        self.articles.len()
    }

    /// `true` if the corpus has no articles (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.articles.is_empty()
    }

    /// The article at popularity rank `id`.
    pub fn article(&self, id: usize) -> Option<&Article> {
        self.articles.get(id)
    }

    /// Total bytes of the article files themselves (the paper's 29.1 GB
    /// denominator for the index-overhead ratio).
    pub fn total_file_bytes(&self) -> u64 {
        self.articles.iter().map(|a| a.size).sum()
    }
}

/// A compact list of plausible venue names (acronym style, as in DBLP).
const VENUES: &[&str] = &[
    "SIGCOMM",
    "INFOCOM",
    "ICDCS",
    "SOSP",
    "OSDI",
    "NSDI",
    "PODC",
    "SPAA",
    "STOC",
    "FOCS",
    "SODA",
    "VLDB",
    "SIGMOD",
    "PODS",
    "ICDE",
    "WWW",
    "SIGIR",
    "KDD",
    "ICML",
    "NIPS",
    "AAAI",
    "IJCAI",
    "CHI",
    "UIST",
    "MOBICOM",
    "SENSYS",
    "EUROSYS",
    "USENIX-ATC",
    "FAST",
    "HOTOS",
    "IPTPS",
    "MIDDLEWARE",
    "ICNP",
    "IMC",
    "CONEXT",
    "CCS",
    "SP",
    "CRYPTO",
    "PLDI",
    "POPL",
];

const FIRST_NAMES: &[&str] = &[
    "John", "Alan", "Maria", "Wei", "Anna", "Luis", "Ken", "Petra", "Ion", "Sara", "David",
    "Elena", "Marc", "Yuki", "Omar", "Ivan", "Lea", "Hans", "Nina", "Paul", "Rita", "Tom", "Vera",
    "Igor", "Jane", "Karl", "Lin", "Mona", "Nils", "Olga", "Peter", "Qing", "Ralf", "Sofia", "Tim",
    "Uma", "Victor", "Wendy", "Xavier", "Yann",
];

const SURNAME_STEMS: &[&str] = &[
    "Smith", "Doe", "Garc", "Fel", "Bier", "Urv", "Ross", "Sto", "Mor", "Kar", "Bala", "Rat",
    "Hand", "Shen", "Row", "Dru", "Zha", "Kubi", "Jos", "Dab", "Kaa", "Lil", "Adj", "Schw", "Harr",
    "Hell", "Hueb", "Gupt", "Agra", "Abba", "Sah", "Coh", "Fia", "Kap", "Li", "Loo", "Karg",
    "Morr", "Mazi", "Wald",
];

const SURNAME_SUFFIXES: &[&str] = &[
    "", "son", "sen", "er", "man", "ini", "ez", "ov", "ova", "sky", "as", "is", "ung", "ara",
    "eda", "ier", "eau", "ert", "old", "wick",
];

const TITLE_OPENERS: &[&str] = &[
    "Adaptive",
    "Scalable",
    "Distributed",
    "Efficient",
    "Robust",
    "Practical",
    "Optimal",
    "Incremental",
    "Decentralized",
    "Fault-Tolerant",
    "Lightweight",
    "Secure",
    "Dynamic",
    "Hierarchical",
    "Probabilistic",
    "Self-Organizing",
];

const TITLE_SUBJECTS: &[&str] = &[
    "Routing",
    "Indexing",
    "Caching",
    "Lookup",
    "Replication",
    "Scheduling",
    "Search",
    "Storage",
    "Naming",
    "Multicast",
    "Aggregation",
    "Consensus",
    "Recovery",
    "Placement",
    "Load-Balancing",
    "Membership",
];

const TITLE_DOMAINS: &[&str] = &[
    "Peer-to-Peer Networks",
    "Overlay Networks",
    "Distributed Hash Tables",
    "Sensor Networks",
    "Wide-Area Systems",
    "Content Networks",
    "Mobile Systems",
    "Large-Scale Clusters",
    "Structured Overlays",
    "Federated Databases",
    "Wireless Meshes",
    "Storage Systems",
    "the Internet",
    "Ad-Hoc Networks",
    "Grid Systems",
    "Web Services",
];

fn synth_author(index: usize, rng: &mut StdRng) -> (String, String) {
    let first = FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())].to_string();
    let stem = SURNAME_STEMS[index % SURNAME_STEMS.len()];
    let suffix = SURNAME_SUFFIXES[(index / SURNAME_STEMS.len()) % SURNAME_SUFFIXES.len()];
    // Disambiguate once the stem/suffix combinations run out.
    let round = index / (SURNAME_STEMS.len() * SURNAME_SUFFIXES.len());
    let last = if round == 0 {
        format!("{stem}{suffix}")
    } else {
        format!("{stem}{suffix}-{round}")
    };
    (first, last)
}

fn synth_title(rng: &mut StdRng) -> String {
    let o = TITLE_OPENERS[rng.gen_range(0..TITLE_OPENERS.len())];
    let s = TITLE_SUBJECTS[rng.gen_range(0..TITLE_SUBJECTS.len())];
    let d = TITLE_DOMAINS[rng.gen_range(0..TITLE_DOMAINS.len())];
    format!("{o} {s} in {d}")
}

/// Cumulative Zipf distribution over `n` ranks with exponent `alpha`.
pub(crate) fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 1..=n {
        acc += 1.0 / (i as f64).powf(alpha);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// Samples an index from a CDF via binary search.
pub(crate) fn sample_cdf(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("CDF has no NaN")) {
        Ok(i) | Err(i) => i.min(cdf.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig {
            articles: 500,
            author_pool: 120,
            ..Default::default()
        })
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.articles(), b.articles());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = Corpus::generate(CorpusConfig {
            articles: 500,
            author_pool: 120,
            seed: 7,
            ..Default::default()
        });
        assert_ne!(a.articles(), b.articles());
    }

    #[test]
    fn descriptor_schema_matches_figure_1() {
        let c = small();
        let d = c.article(0).unwrap().descriptor();
        assert!(d.field("author/first").is_some());
        assert!(d.field("author/last").is_some());
        assert!(d.field("title").is_some());
        assert!(d.field("conf").is_some());
        assert!(d.field("year").is_some());
        assert!(d.field("size").is_some());
    }

    #[test]
    fn msds_are_distinct() {
        // Distinct articles must hash to distinct storage keys; titles and
        // sizes provide enough entropy.
        let c = small();
        let mut texts: Vec<String> = c
            .articles()
            .iter()
            .map(|a| a.descriptor().canonical_text())
            .collect();
        texts.sort();
        let before = texts.len();
        texts.dedup();
        assert_eq!(texts.len(), before, "duplicate descriptors in corpus");
    }

    #[test]
    fn papers_per_author_is_skewed() {
        let c = Corpus::generate(CorpusConfig {
            articles: 5_000,
            author_pool: 500,
            ..Default::default()
        });
        let mut counts: HashMap<&(String, String), usize> = HashMap::new();
        for a in c.articles() {
            *counts.entry(a.primary_author()).or_insert(0) += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Power law: the busiest author should have far more papers than
        // the median author.
        let median = sorted[sorted.len() / 2];
        assert!(
            sorted[0] > 5 * median.max(1),
            "papers-per-author not skewed: top={} median={}",
            sorted[0],
            median
        );
    }

    #[test]
    fn years_within_range() {
        let c = small();
        let (y0, y1) = YEAR_RANGE;
        assert!(c.articles().iter().all(|a| a.year >= y0 && a.year <= y1));
    }

    #[test]
    fn file_sizes_near_mean() {
        let c = small();
        let mean = c.total_file_bytes() / c.len() as u64;
        let target = MEAN_FILE_SIZE;
        assert!(
            mean > target / 2 && mean < target * 2,
            "mean size {mean} too far from {target}"
        );
    }

    #[test]
    fn multi_author_generation() {
        let c = Corpus::generate(CorpusConfig {
            articles: 300,
            author_pool: 100,
            extra_author_prob: 0.6,
            ..Default::default()
        });
        assert!(c.articles().iter().any(|a| a.authors.len() > 1));
        assert!(c.articles().iter().all(|a| !a.authors.is_empty()));
    }

    #[test]
    fn file_names_unique() {
        let c = small();
        let mut names: Vec<String> = c.articles().iter().map(Article::file_name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn author_pool_produces_distinct_names() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut names: Vec<String> = (0..2000).map(|i| synth_author(i, &mut rng).1).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 2000, "surnames must be unique per pool index");
    }

    #[test]
    fn zipf_cdf_properties() {
        let cdf = zipf_cdf(100, 1.0);
        assert_eq!(cdf.len(), 100);
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        // Rank 1 gets the largest mass.
        assert!(cdf[0] > 1.0 / 100.0);
    }

    #[test]
    #[should_panic(expected = "corpus must contain articles")]
    fn zero_articles_panics() {
        let _ = Corpus::generate(CorpusConfig {
            articles: 0,
            ..Default::default()
        });
    }
}
