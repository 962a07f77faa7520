//! Query evaluation: does a descriptor match a query?
//!
//! An XML document *matches* an XPath expression "when the evaluation of
//! the expression on the document yields a non-null object" (§III-B). For
//! tree patterns this becomes an embedding check: every pattern node must
//! map to a child element (or the text value) of the element its parent
//! maps to, with the same name and a text its comparison accepts.
//!
//! Value steps follow the paper's simplified syntax: a leaf pattern node
//! named `TCP` is satisfied either by a child element `<TCP>` or by the
//! context element's text being exactly `"TCP"` — so
//! `/article/title/TCP` matches `<article><title>TCP</title></article>`.
//!
//! No index path calls this: it is the semantic oracle the tests check
//! [`Query::covers`] against.

use p2p_index_xmldoc::Element;

use crate::ast::{NodeRef, Query};

impl Query {
    /// Evaluates this query against a descriptor's root element.
    ///
    /// The query is matched in place: no allocation, as long as each
    /// element's text is one run (true of every canonical descriptor).
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xmldoc::parse;
    /// use p2p_index_xpath::parse_query;
    ///
    /// let doc = parse("<article><title>TCP</title><year>1989</year></article>")?;
    /// assert!(parse_query("/article/title/TCP")?.matches(&doc));
    /// assert!(parse_query("/article[year=1989][title^=TC]")?.matches(&doc));
    /// assert!(!parse_query("/article/title/IPv6")?.matches(&doc));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn matches(&self, doc: &Element) -> bool {
        node_matches(self.root(), doc)
    }
}

/// Does element `e` itself satisfy pattern node `p` (name, comparison, and
/// all child constraints)?
fn node_matches(p: NodeRef<'_>, e: &Element) -> bool {
    p.name() == e.name()
        && p.comparison()
            .is_none_or(|cmp| cmp.op.eval(&e.trimmed_text(), cmp.value))
        && p.children().all(|c| child_satisfied(c, e))
}

/// Is the child constraint `c` satisfied at context element `e`?
fn child_satisfied(c: NodeRef<'_>, e: &Element) -> bool {
    // Value-node interpretation: a pure leaf may be satisfied by text
    // content equal to its name; else the element interpretation.
    (c.is_leaf() && e.trimmed_text() == c.name())
        || e.child_elements().any(|child| node_matches(c, child))
}

#[cfg(test)]
mod tests {
    use p2p_index_xmldoc::parse;

    use crate::parse::parse_query;

    fn d1() -> p2p_index_xmldoc::Element {
        parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>",
        )
        .unwrap()
    }

    fn d2() -> p2p_index_xmldoc::Element {
        parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>IPv6</title><conf>INFOCOM</conf><year>1996</year><size>312352</size></article>",
        )
        .unwrap()
    }

    fn d3() -> p2p_index_xmldoc::Element {
        parse(
            "<article><author><first>Alan</first><last>Doe</last></author>\
             <title>Wavelets</title><conf>INFOCOM</conf><year>1996</year><size>259827</size></article>",
        )
        .unwrap()
    }

    #[test]
    fn figure_2_queries_match_figure_1_descriptors() {
        let q1 = parse_query(
            "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]",
        )
        .unwrap();
        let q2 = parse_query("/article[author[first/John][last/Smith]][conf/INFOCOM]").unwrap();
        let q3 = parse_query("/article/author[first/John][last/Smith]").unwrap();
        let q4 = parse_query("/article/title/TCP").unwrap();
        let q5 = parse_query("/article/conf/INFOCOM").unwrap();
        let q6 = parse_query("/article/author/last/Smith").unwrap();

        // q1 is the most specific query for d1 only.
        assert!(q1.matches(&d1()));
        assert!(!q1.matches(&d2()));
        assert!(!q1.matches(&d3()));
        // q2: John Smith at INFOCOM — only d2.
        assert!(!q2.matches(&d1()));
        assert!(q2.matches(&d2()));
        assert!(!q2.matches(&d3()));
        // q3: John Smith — d1 and d2.
        assert!(q3.matches(&d1()));
        assert!(q3.matches(&d2()));
        assert!(!q3.matches(&d3()));
        // q4: title TCP — d1 only.
        assert!(q4.matches(&d1()));
        assert!(!q4.matches(&d2()));
        // q5: INFOCOM — d2 and d3.
        assert!(!q5.matches(&d1()));
        assert!(q5.matches(&d2()));
        assert!(q5.matches(&d3()));
        // q6: last name Smith — d1 and d2.
        assert!(q6.matches(&d1()));
        assert!(q6.matches(&d2()));
        assert!(!q6.matches(&d3()));
    }

    #[test]
    fn root_name_must_match() {
        assert!(!parse_query("/book/title/TCP").unwrap().matches(&d1()));
    }

    #[test]
    fn comparisons_on_text() {
        assert!(parse_query("/article[year=1989]").unwrap().matches(&d1()));
        // `=` compares the text: another spelling of the year is not it.
        assert!(!parse_query("/article[year=01989]").unwrap().matches(&d1()));
        assert!(!parse_query("/article[year=1996]").unwrap().matches(&d1()));
        assert!(parse_query("/article[size=315635]").unwrap().matches(&d1()));
        assert!(!parse_query("/article[size=315635]").unwrap().matches(&d3()));
        // A comparison binds to its element: `author` has no text.
        assert!(!parse_query("/article[author=Smith]")
            .unwrap()
            .matches(&d1()));
    }

    #[test]
    fn multiple_predicates_are_conjunctive() {
        let q = parse_query("/article[year=1996][conf/INFOCOM]").unwrap();
        assert!(!q.matches(&d1()));
        assert!(q.matches(&d2()));
    }

    #[test]
    fn predicates_on_same_branch_must_hold_on_one_element() {
        // John Doe exists in no single author element even though "John"
        // and "Doe" both appear in the corpus.
        let q = parse_query("/article/author[first/John][last/Doe]").unwrap();
        assert!(!q.matches(&d1()));
        assert!(!q.matches(&d3()));
    }

    #[test]
    fn multi_author_descriptor_any_author_matches() {
        let doc = parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <author><first>Alan</first><last>Doe</last></author><title>X</title></article>",
        )
        .unwrap();
        assert!(parse_query("/article/author[first/Alan][last/Doe]")
            .unwrap()
            .matches(&doc));
        assert!(parse_query("/article/author[first/John][last/Smith]")
            .unwrap()
            .matches(&doc));
        assert!(!parse_query("/article/author[first/John][last/Doe]")
            .unwrap()
            .matches(&doc));
    }

    #[test]
    fn value_must_equal_whole_text() {
        // Substrings do not match.
        assert!(!parse_query("/article/title/TC").unwrap().matches(&d1()));
    }

    #[test]
    fn empty_query_root_only() {
        assert!(parse_query("/article").unwrap().matches(&d1()));
    }

    #[test]
    fn quoted_value_with_spaces() {
        let doc = parse("<article><title>A Space Odyssey</title></article>").unwrap();
        assert!(parse_query("/article/title/\"A Space Odyssey\"")
            .unwrap()
            .matches(&doc));
    }

    #[test]
    fn starts_with_operator() {
        let q = parse_query("/article[author/last^=Sm]").unwrap();
        assert!(q.matches(&d1()));
        assert!(!parse_query("/article[author/last^=Do]")
            .unwrap()
            .matches(&d1()));
        assert!(parse_query("/article[title^=TC]").unwrap().matches(&d1()));
        // Empty prefix matches everything with the element present.
        assert!(parse_query("/article[title^=\"\"]").unwrap().matches(&d1()));
    }

    #[test]
    fn contains_operator() {
        let doc = parse("<article><title>Adaptive Routing in Overlay Networks</title></article>")
            .unwrap();
        assert!(parse_query("/article[title*=Routing]")
            .unwrap()
            .matches(&doc));
        assert!(parse_query("/article[title*=\"Overlay Networks\"]")
            .unwrap()
            .matches(&doc));
        assert!(!parse_query("/article[title*=Caching]")
            .unwrap()
            .matches(&doc));
    }

    #[test]
    fn comparison_with_string_values() {
        let doc = parse("<article><conf>INFOCOM</conf></article>").unwrap();
        assert!(parse_query("/article[conf=INFOCOM]").unwrap().matches(&doc));
        assert!(!parse_query("/article[conf=SIGCOMM]").unwrap().matches(&doc));
    }
}
