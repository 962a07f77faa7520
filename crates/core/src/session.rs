//! Interactive search sessions.
//!
//! "The lookup process can be interactive, i.e., the user directs the
//! search and restricts its query at each step, or automated" (§IV-B).
//! [`IndexService::search`](crate::IndexService::search) is the automated
//! mode; [`SearchSession`] is the interactive one: the application shows
//! the user the list of more specific queries returned at each step, the
//! user picks one, and the session iterates until a file is reached. On
//! success, [`SearchSession::commit`] installs shortcut cache entries along
//! the traversed path, per the service's cache policy.

use p2p_index_dht::{Dht, NodeId};
use p2p_index_xpath::Query;

use crate::service::{IndexError, IndexService};
use crate::target::IndexTarget;

/// Where an interactive session currently stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// The last lookup returned refinement options; pick one with
    /// [`SearchSession::refine`].
    Browsing,
    /// The last refinement reached stored files.
    Found(Vec<String>),
    /// The current query is not indexed; [`SearchSession::generalize`]
    /// offers broader queries, or the session can be abandoned.
    DeadEnd,
}

/// One user-directed search, stepping down the covering partial order.
///
/// # Examples
///
/// ```
/// use p2p_index_core::{CachePolicy, IndexService, SearchSession, SessionState, SimpleScheme};
/// use p2p_index_dht::RingDht;
/// use p2p_index_xmldoc::Descriptor;
///
/// let mut service = IndexService::new(RingDht::with_named_nodes(20), CachePolicy::Single);
/// let d = Descriptor::parse(
///     "<article><author><first>John</first><last>Smith</last></author>\
///      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
/// )?;
/// service.publish(&d, "x.pdf", &SimpleScheme)?;
///
/// let mut session = SearchSession::start(
///     &mut service,
///     "/article/author[first/John][last/Smith]".parse()?,
/// )?;
/// // The author index offers one author+title refinement; take it, then
/// // take the MSD it leads to.
/// while session.state() == SessionState::Browsing {
///     session.refine(0)?;
/// }
/// assert_eq!(session.state(), SessionState::Found(vec!["x.pdf".into()]));
/// let report = session.commit();
/// assert!(report.interactions >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SearchSession<'s, D> {
    service: &'s mut IndexService<D>,
    current: Query,
    options: Vec<IndexTarget>,
    files: Vec<String>,
    path: Vec<(NodeId, Query)>,
    interactions: u32,
}

/// What a finished session did, returned by [`SearchSession::commit`] and
/// [`SearchSession::abandon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Files reached (empty if the session was abandoned while browsing).
    pub files: Vec<String>,
    /// Lookup steps performed.
    pub interactions: u32,
    /// Shortcut cache entries created on commit.
    pub shortcuts_created: usize,
}

impl<'s, D: Dht> SearchSession<'s, D> {
    /// Starts a session by looking up `query`.
    ///
    /// # Errors
    ///
    /// Propagates [`IndexError`] from the underlying lookup.
    pub fn start(
        service: &'s mut IndexService<D>,
        query: Query,
    ) -> Result<SearchSession<'s, D>, IndexError> {
        let mut session = SearchSession {
            service,
            current: query.clone(),
            options: Vec::new(),
            files: Vec::new(),
            path: Vec::new(),
            interactions: 0,
        };
        session.lookup(query)?;
        Ok(session)
    }

    fn lookup(&mut self, query: Query) -> Result<(), IndexError> {
        let resp = self.service.lookup_step(&query)?;
        self.interactions += 1;
        if let Some(node) = resp.node {
            self.path.push((node, query.clone()));
        }
        self.current = query;
        self.files = resp
            .all_targets()
            .filter_map(|t| t.as_file().map(str::to_string))
            .collect();
        self.options = resp
            .all_targets()
            .filter(|t| t.as_query().is_some_and(|q| q != &self.current))
            .cloned()
            .collect();
        self.options.dedup();
        Ok(())
    }

    /// The query the session is currently positioned at.
    pub fn current_query(&self) -> &Query {
        &self.current
    }

    /// The refinement options the last lookup returned (more specific
    /// queries, cached shortcuts first).
    pub fn options(&self) -> &[IndexTarget] {
        &self.options
    }

    /// Lookup steps performed so far.
    pub fn interactions(&self) -> u32 {
        self.interactions
    }

    /// Files reached at the current position (non-empty once an MSD has
    /// been looked up).
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// The session's state: browsing, found, or dead end.
    pub fn state(&self) -> SessionState {
        if !self.files.is_empty() {
            SessionState::Found(self.files.clone())
        } else if self.options.is_empty() {
            SessionState::DeadEnd
        } else {
            SessionState::Browsing
        }
    }

    /// Follows option `index` from [`SearchSession::options`].
    ///
    /// # Errors
    ///
    /// [`IndexError`] from the lookup; selecting an out-of-range option is
    /// a no-op returning `Ok`.
    pub fn refine(&mut self, index: usize) -> Result<SessionState, IndexError> {
        let Some(IndexTarget::Query(q)) = self.options.get(index).cloned() else {
            return Ok(self.state());
        };
        self.lookup(q)?;
        Ok(self.state())
    }

    /// Jumps to an arbitrary query (e.g. one the user edited by hand).
    ///
    /// # Errors
    ///
    /// [`IndexError`] from the lookup.
    pub fn refine_to(&mut self, query: Query) -> Result<SessionState, IndexError> {
        self.lookup(query)?;
        Ok(self.state())
    }

    /// At a dead end, returns the one-step generalizations of the current
    /// query (the §IV-B recovery move); jump to one with
    /// [`SearchSession::refine_to`].
    pub fn generalize(&self) -> Vec<Query> {
        self.current.generalizations()
    }

    /// Fetches the *regular* index entries for the current query,
    /// bypassing the shortcut cache, and merges them into
    /// [`SearchSession::options`]. Lookups are cache-first (§IV-C), so
    /// when the offered shortcuts don't lead to what the user wants, this
    /// is the follow-up interaction that reveals the full index.
    ///
    /// # Errors
    ///
    /// [`IndexError`] from the lookup.
    pub fn expand(&mut self) -> Result<SessionState, IndexError> {
        let resp = self.service.lookup_step_bypassing_cache(&self.current)?;
        self.interactions += 1;
        for t in resp.indexed.iter() {
            match t {
                IndexTarget::File(f) => {
                    if !self.files.iter().any(|known| **known == **f) {
                        self.files.push(f.to_string());
                    }
                }
                IndexTarget::Query(q) => {
                    if *q != self.current && !self.options.contains(t) {
                        self.options.push(t.clone());
                    }
                }
            }
        }
        Ok(self.state())
    }

    /// Ends the session; if files were found, installs shortcut entries
    /// (query → final MSD) along the traversed path per the cache policy.
    pub fn commit(self) -> SessionReport {
        let shortcuts_created = if self.files.is_empty() {
            0
        } else {
            self.service
                .create_shortcuts(&self.path, &IndexTarget::Query(self.current.clone()))
        };
        SessionReport {
            files: self.files,
            interactions: self.interactions,
            shortcuts_created,
        }
    }

    /// Ends the session without touching the caches.
    pub fn abandon(self) -> SessionReport {
        SessionReport {
            files: self.files,
            interactions: self.interactions,
            shortcuts_created: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use p2p_index_dht::RingDht;
    use p2p_index_xmldoc::Descriptor;

    use super::*;
    use crate::cache::CachePolicy;
    use crate::scheme::SimpleScheme;

    fn service(policy: CachePolicy) -> IndexService<RingDht> {
        let mut s = IndexService::new(RingDht::with_named_nodes(30), policy);
        for (file, first, last, title, conf, year) in [
            ("x.pdf", "John", "Smith", "TCP", "SIGCOMM", "1989"),
            ("y.pdf", "John", "Smith", "IPv6", "INFOCOM", "1996"),
            ("z.pdf", "Alan", "Doe", "Wavelets", "INFOCOM", "1996"),
        ] {
            let d = Descriptor::parse(&format!(
                "<article><author><first>{first}</first><last>{last}</last></author>\
                 <title>{title}</title><conf>{conf}</conf><year>{year}</year></article>"
            ))
            .unwrap();
            s.publish(&d, file, &SimpleScheme).unwrap();
        }
        s
    }

    #[test]
    fn walk_author_chain_to_file() {
        let mut s = service(CachePolicy::None);
        let mut session = SearchSession::start(
            &mut s,
            "/article/author[first/Alan][last/Doe]".parse().unwrap(),
        )
        .unwrap();
        assert_eq!(session.state(), SessionState::Browsing);
        assert_eq!(session.options().len(), 1); // one Doe article
        while session.state() == SessionState::Browsing {
            session.refine(0).unwrap();
        }
        assert_eq!(session.state(), SessionState::Found(vec!["z.pdf".into()]));
        let report = session.commit();
        assert_eq!(report.files, vec!["z.pdf".to_string()]);
        assert_eq!(report.interactions, 3);
        assert_eq!(report.shortcuts_created, 0); // policy None
    }

    #[test]
    fn browsing_presents_multiple_options() {
        let mut s = service(CachePolicy::None);
        let mut session =
            SearchSession::start(&mut s, "/article/conf/INFOCOM".parse().unwrap()).unwrap();
        // INFOCOM index: one conf+year entry (both INFOCOM papers are '96).
        assert_eq!(session.options().len(), 1);
        session.refine(0).unwrap();
        // conf+year holds two MSDs now.
        assert_eq!(session.options().len(), 2);
    }

    #[test]
    fn dead_end_and_generalization() {
        let mut s = service(CachePolicy::None);
        let mut session = SearchSession::start(
            &mut s,
            "/article[author[first/John][last/Smith]][year/1996]"
                .parse()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(session.state(), SessionState::DeadEnd);
        let broader = session.generalize();
        assert_eq!(broader.len(), 2);
        // Jump to the author-only generalization and walk to y.pdf.
        let author_only = broader
            .iter()
            .find(|q| q.to_string().contains("author"))
            .unwrap()
            .clone();
        session.refine_to(author_only).unwrap();
        assert_eq!(session.state(), SessionState::Browsing);
    }

    #[test]
    fn commit_creates_shortcuts_under_single_policy() {
        let mut s = service(CachePolicy::Single);
        let start: Query = "/article/author[first/Alan][last/Doe]".parse().unwrap();
        let mut session = SearchSession::start(&mut s, start.clone()).unwrap();
        while session.state() == SessionState::Browsing {
            session.refine(0).unwrap();
        }
        let report = session.commit();
        assert_eq!(report.shortcuts_created, 1);
        // The shortcut serves the next session immediately.
        let session2 = SearchSession::start(&mut s, start).unwrap();
        assert!(
            session2.options().iter().any(|t| t.as_query().is_some()),
            "cached MSD shortcut should appear in options"
        );
    }

    #[test]
    fn abandon_never_caches() {
        let mut s = service(CachePolicy::Single);
        let mut session = SearchSession::start(
            &mut s,
            "/article/author[first/Alan][last/Doe]".parse().unwrap(),
        )
        .unwrap();
        while session.state() == SessionState::Browsing {
            session.refine(0).unwrap();
        }
        let report = session.abandon();
        assert!(!report.files.is_empty());
        assert_eq!(report.shortcuts_created, 0);
        assert_eq!(s.cache_sizes().iter().map(|(_, c)| c).sum::<usize>(), 0);
    }

    #[test]
    fn expand_reveals_regular_entries_after_cache_hit() {
        let mut s = service(CachePolicy::Single);
        let start: Query = "/article/author[first/John][last/Smith]".parse().unwrap();
        // Warm the cache by walking one of the two Smith papers.
        let mut warm = SearchSession::start(&mut s, start.clone()).unwrap();
        while warm.state() == SessionState::Browsing {
            warm.refine(0).unwrap();
        }
        warm.commit();
        // A fresh session sees only the cached shortcut (cache-first)...
        let mut session = SearchSession::start(&mut s, start).unwrap();
        let cached_only = session.options().len();
        assert_eq!(cached_only, 1, "cache-first response hides regular entries");
        // ...until the user expands to the full index listing.
        let before = session.interactions();
        session.expand().unwrap();
        assert_eq!(session.interactions(), before + 1);
        assert!(
            session.options().len() >= 2,
            "expand must add the author's two author+title entries"
        );
    }

    #[test]
    fn out_of_range_refine_is_noop() {
        let mut s = service(CachePolicy::None);
        let mut session =
            SearchSession::start(&mut s, "/article/conf/INFOCOM".parse().unwrap()).unwrap();
        let before = session.interactions();
        session.refine(99).unwrap();
        assert_eq!(session.interactions(), before);
    }

    #[test]
    fn msd_start_is_found_immediately() {
        let mut s = service(CachePolicy::None);
        let d = Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
        )
        .unwrap();
        let msd = Query::most_specific(&d);
        let session = SearchSession::start(&mut s, msd).unwrap();
        assert_eq!(session.state(), SessionState::Found(vec!["x.pdf".into()]));
        assert_eq!(session.files(), ["x.pdf".to_string()]);
    }
}
