//! Realistic query generation: structure mix × article popularity.
//!
//! The paper models users from the BibFinder and NetBib query logs (§V-C):
//! the *structure* of a query (which fields it uses) follows the observed
//! log frequencies, and the *target* article follows the power-law
//! popularity model. "When constructing the query workload for the
//! simulation, we first choose an article according to the popularity
//! distribution. Then, we select the structure of the query and assign the
//! corresponding fields."

use std::collections::HashMap;

use p2p_index_xpath::{Query, QueryBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{Article, Corpus};
use crate::popularity::PaperCcdf;

/// Which descriptor fields a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryStructure {
    /// Author first+last name only.
    Author,
    /// Title only.
    Title,
    /// Publication year only.
    Year,
    /// Conference only.
    Conference,
    /// Author and title.
    AuthorTitle,
    /// Author and year — indexed by **no** built-in scheme, so these are
    /// the paper's "recoverable error" queries.
    AuthorYear,
    /// Title and year.
    TitleYear,
    /// Author, title, and year.
    AuthorTitleYear,
}

impl QueryStructure {
    /// Short label used in reports (matches the Fig. 7 x-axis style).
    pub fn label(&self) -> &'static str {
        match self {
            QueryStructure::Author => "/author",
            QueryStructure::Title => "/title",
            QueryStructure::Year => "/year",
            QueryStructure::Conference => "/conf",
            QueryStructure::AuthorTitle => "/author/title",
            QueryStructure::AuthorYear => "/author/year",
            QueryStructure::TitleYear => "/title/year",
            QueryStructure::AuthorTitleYear => "/author/title/year",
        }
    }

    /// Builds the concrete query of this structure targeting `article`.
    pub fn query_for(&self, article: &Article) -> Query {
        let (first, last) = article.primary_author();
        let b = QueryBuilder::new("article");
        let b = match self {
            QueryStructure::Author => b.value("author/first", first).value("author/last", last),
            QueryStructure::Title => b.value("title", &article.title),
            QueryStructure::Year => b.value("year", article.year.to_string()),
            QueryStructure::Conference => b.value("conf", &article.conf),
            QueryStructure::AuthorTitle => b
                .value("author/first", first)
                .value("author/last", last)
                .value("title", &article.title),
            QueryStructure::AuthorYear => b
                .value("author/first", first)
                .value("author/last", last)
                .value("year", article.year.to_string()),
            QueryStructure::TitleYear => b
                .value("title", &article.title)
                .value("year", article.year.to_string()),
            QueryStructure::AuthorTitleYear => b
                .value("author/first", first)
                .value("author/last", last)
                .value("title", &article.title)
                .value("year", article.year.to_string()),
        };
        b.build()
    }
}

/// A weighted mix of query structures.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureMix {
    weights: Vec<(QueryStructure, f64)>,
}

impl StructureMix {
    /// Builds a mix from `(structure, weight)` pairs; weights are
    /// normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are ≤ 0.
    pub fn new(weights: impl Into<Vec<(QueryStructure, f64)>>) -> StructureMix {
        let weights = weights.into();
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "structure mix needs positive weight");
        StructureMix {
            weights: weights
                .into_iter()
                .map(|(s, w)| (s, w.max(0.0) / total))
                .collect(),
        }
    }

    /// The simulation mix of §V-C: "author only (with probability 0.6);
    /// title only (0.2); year only (0.1); both author and title (0.05);
    /// both author and year (0.05)".
    pub fn paper_simulation() -> StructureMix {
        StructureMix::new(vec![
            (QueryStructure::Author, 0.60),
            (QueryStructure::Title, 0.20),
            (QueryStructure::Year, 0.10),
            (QueryStructure::AuthorTitle, 0.05),
            (QueryStructure::AuthorYear, 0.05),
        ])
    }

    /// The full BibFinder log histogram of Fig. 7 (9 108 queries), with the
    /// small "others" bucket mapped to conference-only queries.
    /// Percentages are read off the figure and therefore approximate.
    pub fn bibfinder_log() -> StructureMix {
        StructureMix::new(vec![
            (QueryStructure::Author, 0.57),
            (QueryStructure::Title, 0.20),
            (QueryStructure::AuthorTitle, 0.09),
            (QueryStructure::AuthorYear, 0.06),
            (QueryStructure::TitleYear, 0.03),
            (QueryStructure::AuthorTitleYear, 0.02),
            (QueryStructure::Conference, 0.03),
        ])
    }

    /// The normalized `(structure, probability)` pairs.
    pub fn weights(&self) -> &[(QueryStructure, f64)] {
        &self.weights
    }

    /// Samples a structure.
    pub fn sample(&self, rng: &mut StdRng) -> QueryStructure {
        let mut u: f64 = rng.gen();
        for (s, w) in &self.weights {
            if u < *w {
                return *s;
            }
            u -= w;
        }
        self.weights.last().expect("mix is non-empty").0
    }
}

/// One generated workload item: a query plus the article the simulated
/// user is actually after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedQuery {
    /// The query submitted to the system.
    pub query: Query,
    /// The corpus id of the target article.
    pub target: usize,
    /// The structure the query was built with.
    pub structure: QueryStructure,
}

/// The workload generator: popularity-weighted targets, log-derived
/// structures, deterministic by seed.
///
/// # Examples
///
/// ```
/// use p2p_index_workload::{Corpus, CorpusConfig, QueryGenerator, StructureMix};
///
/// let corpus = Corpus::generate(CorpusConfig { articles: 100, ..Default::default() });
/// let mut gen = QueryGenerator::new(&corpus, StructureMix::paper_simulation(), 1);
/// let item = gen.next_query();
/// assert!(item.target < 100);
/// // The generated query always matches its target's descriptor.
/// let d = corpus.article(item.target).unwrap().descriptor();
/// assert!(item.query.matches(d.root()));
/// ```
#[derive(Debug)]
pub struct QueryGenerator<'c> {
    corpus: &'c Corpus,
    popularity: PaperCcdf,
    mix: StructureMix,
    rng: StdRng,
    /// Interned `(structure, target) → query`. The popularity model is a
    /// power law, so a handful of articles absorb most of the workload;
    /// each repeat of a (structure, article) pair hands out a cheap clone
    /// of the memoized query (`Arc` bumps) instead of re-building and
    /// re-rendering the same pattern tree. Queries are pure functions of
    /// the pair, so the memo can never go stale — and the RNG draws are
    /// unaffected, so the generated stream is byte-identical.
    memo: HashMap<(QueryStructure, usize), Query>,
}

impl<'c> QueryGenerator<'c> {
    /// A generator over `corpus` with the paper's popularity model.
    pub fn new(corpus: &'c Corpus, mix: StructureMix, seed: u64) -> QueryGenerator<'c> {
        QueryGenerator {
            corpus,
            popularity: PaperCcdf::new(corpus.len()),
            mix,
            rng: StdRng::seed_from_u64(seed),
            memo: HashMap::new(),
        }
    }

    /// Generates the next workload item.
    pub fn next_query(&mut self) -> GeneratedQuery {
        // Rank 1 = article id 0: corpus order is popularity order.
        let rank = self.popularity.sample(&mut self.rng);
        let target = rank - 1;
        let article = self.corpus.article(target).expect("rank within corpus");
        let structure = self.mix.sample(&mut self.rng);
        let query = self
            .memo
            .entry((structure, target))
            .or_insert_with(|| structure.query_for(article))
            .clone();
        GeneratedQuery {
            query,
            target,
            structure,
        }
    }

    /// Generates a batch of `n` items.
    pub fn take_queries(&mut self, n: usize) -> Vec<GeneratedQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use crate::corpus::CorpusConfig;

    use super::*;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig {
            articles: 1000,
            author_pool: 200,
            ..Default::default()
        })
    }

    #[test]
    fn paper_mix_weights() {
        let mix = StructureMix::paper_simulation();
        let total: f64 = mix.weights().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let author = mix
            .weights()
            .iter()
            .find(|(s, _)| *s == QueryStructure::Author)
            .unwrap()
            .1;
        assert!((author - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bibfinder_mix_normalizes() {
        let mix = StructureMix::bibfinder_log();
        let total: f64 = mix.weights().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_structure_frequencies_match_mix() {
        let c = corpus();
        let mut g = QueryGenerator::new(&c, StructureMix::paper_simulation(), 3);
        let mut counts: HashMap<QueryStructure, usize> = HashMap::new();
        let n = 20_000;
        for _ in 0..n {
            *counts.entry(g.next_query().structure).or_insert(0) += 1;
        }
        let frac = |s| counts.get(&s).copied().unwrap_or(0) as f64 / n as f64;
        assert!((frac(QueryStructure::Author) - 0.60).abs() < 0.02);
        assert!((frac(QueryStructure::Title) - 0.20).abs() < 0.02);
        assert!((frac(QueryStructure::Year) - 0.10).abs() < 0.02);
        assert!((frac(QueryStructure::AuthorTitle) - 0.05).abs() < 0.02);
        assert!((frac(QueryStructure::AuthorYear) - 0.05).abs() < 0.02);
    }

    #[test]
    fn queries_match_their_targets() {
        let c = corpus();
        let mut g = QueryGenerator::new(&c, StructureMix::paper_simulation(), 4);
        for _ in 0..500 {
            let item = g.next_query();
            let d = c.article(item.target).unwrap().descriptor();
            assert!(
                item.query.matches(d.root()),
                "{} vs target {}",
                item.query,
                item.target
            );
        }
    }

    #[test]
    fn queries_cover_their_targets_msd() {
        use p2p_index_xpath::Query as Q;
        let c = corpus();
        let mut g = QueryGenerator::new(&c, StructureMix::paper_simulation(), 5);
        for _ in 0..200 {
            let item = g.next_query();
            let msd = Q::most_specific(&c.article(item.target).unwrap().descriptor());
            assert!(item.query.covers(&msd));
        }
    }

    #[test]
    fn targets_follow_popularity() {
        let c = corpus();
        let mut g = QueryGenerator::new(&c, StructureMix::paper_simulation(), 6);
        let n = 30_000;
        let mut hits0 = 0;
        for _ in 0..n {
            if g.next_query().target == 0 {
                hits0 += 1;
            }
        }
        // P(target = 0) = F(1) = 0.063.
        let f = hits0 as f64 / n as f64;
        assert!((f - 0.063).abs() < 0.01, "top-article frequency {f}");
    }

    #[test]
    fn generator_is_deterministic() {
        let c = corpus();
        let a: Vec<_> =
            QueryGenerator::new(&c, StructureMix::paper_simulation(), 7).take_queries(100);
        let b: Vec<_> =
            QueryGenerator::new(&c, StructureMix::paper_simulation(), 7).take_queries(100);
        assert_eq!(a, b);
    }

    #[test]
    fn all_structures_build_valid_queries() {
        let c = corpus();
        let article = c.article(0).unwrap();
        for s in [
            QueryStructure::Author,
            QueryStructure::Title,
            QueryStructure::Year,
            QueryStructure::Conference,
            QueryStructure::AuthorTitle,
            QueryStructure::AuthorYear,
            QueryStructure::TitleYear,
            QueryStructure::AuthorTitleYear,
        ] {
            let q = s.query_for(article);
            assert!(q.matches(article.descriptor().root()), "{}", s.label());
            assert!(!s.label().is_empty());
            // Canonical text reparses.
            let reparsed: Query = q.to_string().parse().unwrap();
            assert_eq!(reparsed, q);
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_panics() {
        let _ = StructureMix::new(vec![]);
    }
}
