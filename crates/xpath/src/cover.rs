//! The covering relation `⊒` between queries (query containment).
//!
//! Query `q'` *covers* `q` (written `q' ⊒ q`) when every descriptor that
//! matches `q` also matches `q'` (§III-B). Covering is what makes the whole
//! indexing architecture safe: index entries may only map a query to
//! queries it covers, so following index paths can never lead to data that
//! does not match the original query ("resilient to arbitrary linking",
//! §IV-D).
//!
//! # Algorithm and exactness
//!
//! Containment is decided with the canonical *homomorphism* check: `q'`'s
//! pattern tree must embed into `q`'s, mapping child edges to child edges,
//! descendant edges to arbitrary strict-descendant positions, name tests to
//! compatible tests, and comparisons to implied constraints.
//!
//! For the fragment XP{/,[]} (child axis and predicates only — everything
//! the built-in index schemes generate), the homomorphism condition is
//! **exact**. With wildcard `*` and descendant `//` in the picture general
//! containment is coNP-complete (Miklau & Suciu), and the homomorphism
//! check is **sound but not complete**: `covers` never answers `true`
//! incorrectly, but may answer `false` for exotic `*`/`//` combinations.
//! A sound-only check preserves every safety property the paper relies on.
//!
//! One schema assumption is baked in (documented on [`Query::covers`]):
//! element *names* and leaf *values* are assumed not to collide, which
//! holds for every descriptor vocabulary in this repository.

use crate::ast::{Axis, CmpOp, Comparison, NodeRef, Query};

impl Query {
    /// Does `self` cover `other` — i.e. does every descriptor matching
    /// `other` also match `self`?
    ///
    /// The check is exact for queries without `*`/`//` (all index schemes
    /// in this repo), and sound (never falsely `true`) in general; see the
    /// [module docs](self) for details. It assumes element names and leaf
    /// values do not collide in the descriptor vocabulary.
    ///
    /// It walks both frozen queries in place and allocates nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_xpath::parse_query;
    ///
    /// let q3 = parse_query("/article/author[first/John][last/Smith]")?;
    /// let q6 = parse_query("/article/author/last/Smith")?;
    /// assert!(q6.covers(&q3)); // q6 ⊒ q3, as in the paper's Figure 3
    /// assert!(!q3.covers(&q6));
    /// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
    /// ```
    pub fn covers(&self, other: &Query) -> bool {
        let (g, s) = (self.root(), other.root());
        match g.axis() {
            Axis::Child => s.axis() == Axis::Child && contains(g, s),
            Axis::Descendant => self_and_descendants(s).any(|n| contains(g, n)),
        }
    }

    /// `self ⊒ other && self != other` (strict covering).
    pub fn covers_strictly(&self, other: &Query) -> bool {
        self != other && self.covers(other)
    }
}

fn self_and_descendants(n: NodeRef<'_>) -> impl Iterator<Item = NodeRef<'_>> {
    std::iter::once(n).chain(n.descendants())
}

/// Can general pattern node `g` be mapped onto specific node `s`?
fn contains(g: NodeRef<'_>, s: NodeRef<'_>) -> bool {
    // Name test: wildcard accepts anything; a concrete name requires the
    // same concrete name (a wildcard in the *specific* query guarantees
    // nothing about the actual element name).
    match (g.name(), s.name()) {
        (None, _) => {}
        (Some(gn), Some(sn)) if gn == sn => {}
        _ => return false,
    }
    if let Some(gc) = g.comparison() {
        if !comparison_implied(gc, s) {
            return false;
        }
    }
    g.children().all(|gc| child_mapped(gc, s))
}

/// Can the general child constraint `gc` be satisfied under specific node `s`?
fn child_mapped(gc: NodeRef<'_>, s: NodeRef<'_>) -> bool {
    let mapped = match gc.axis() {
        Axis::Child => s
            .children()
            .any(|t| t.axis() == Axis::Child && contains(gc, t)),
        Axis::Descendant => s.descendants().any(|t| contains(gc, t)),
    };
    if mapped {
        return true;
    }
    // A general value-leaf (`[title/TCP]` style) is also implied by an
    // equality comparison on the corresponding node (`[title="TCP"]`):
    // text equal to the value means the value node exists.
    match gc.name() {
        Some(v) if gc.is_leaf() => match gc.axis() {
            Axis::Child => equality_implies(s, v),
            Axis::Descendant => self_and_descendants(s).any(|n| equality_implies(n, v)),
        },
        _ => false,
    }
}

/// Does node `s` carry an `= v` constraint on its own text?
fn equality_implies(s: NodeRef<'_>, v: &str) -> bool {
    matches!(s.comparison(), Some(c) if c.op == CmpOp::Eq && CmpOp::Eq.eval(c.value, v))
}

/// Is the general comparison `gc` implied by the constraints the specific
/// node `s` places on its text?
///
/// `s` constrains its text through its own comparison and through value
/// leaves (`year/1996` pins the text to `1996` under the no-collision
/// schema assumption).
fn comparison_implied(gc: Comparison<'_>, s: NodeRef<'_>) -> bool {
    let pinned = s
        .children()
        .filter(|child| child.axis() == Axis::Child && child.is_leaf())
        .filter_map(|leaf| leaf.name())
        .map(|value| Comparison {
            op: CmpOp::Eq,
            value,
        });
    s.comparison()
        .into_iter()
        .chain(pinned)
        .any(|sc| comparison_implies(sc, gc))
}

/// Does constraint `spec` (on some text value x) imply constraint `gen`?
fn comparison_implies(spec: Comparison<'_>, gen: Comparison<'_>) -> bool {
    if spec == gen {
        return true;
    }
    // Equality pins the value: just evaluate the general constraint on it.
    if spec.op == CmpOp::Eq {
        return gen.op.eval(spec.value, gen.value);
    }
    // Prefix reasoning: text starting with q also starts with every prefix
    // of q, contains every substring of q, and cannot equal any value that
    // does not extend q.
    if spec.op == CmpOp::StartsWith {
        return match gen.op {
            CmpOp::StartsWith => spec.value.starts_with(gen.value),
            CmpOp::Contains => spec.value.contains(gen.value),
            CmpOp::Ne => !gen.value.starts_with(spec.value),
            _ => false,
        };
    }
    // Substring reasoning: text containing w also contains every substring
    // of w.
    if spec.op == CmpOp::Contains {
        return gen.op == CmpOp::Contains && spec.value.contains(gen.value);
    }
    if matches!(gen.op, CmpOp::StartsWith | CmpOp::Contains) {
        // Only equality or a stronger string constraint (handled above)
        // can imply these; numeric ranges cannot.
        return false;
    }
    // Interval reasoning needs a total order; restrict to numerics, where
    // the runtime comparison semantics are guaranteed numeric too.
    let (Ok(s), Ok(g)) = (
        spec.value.trim().parse::<f64>(),
        gen.value.trim().parse::<f64>(),
    ) else {
        return false;
    };
    use CmpOp::*;
    match (spec.op, gen.op) {
        (Ge, Ge) | (Gt, Ge) | (Gt, Gt) => s >= g,
        (Ge, Gt) => s > g,
        (Le, Le) | (Lt, Le) | (Lt, Lt) => s <= g,
        (Le, Lt) => s < g,
        (Gt, Ne) => s >= g,
        (Ge, Ne) => s > g,
        (Lt, Ne) => s <= g,
        (Le, Ne) => s < g,
        (Ne, Ne) => s == g,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::Query;
    use crate::parse::parse_query;

    fn q(s: &str) -> Query {
        parse_query(s).unwrap()
    }

    // The paper's Figure 2 queries.
    fn q1() -> Query {
        q("/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]")
    }
    fn q2() -> Query {
        q("/article[author[first/John][last/Smith]][conf/INFOCOM]")
    }
    fn q3() -> Query {
        q("/article/author[first/John][last/Smith]")
    }
    fn q4() -> Query {
        q("/article/title/TCP")
    }
    fn q5() -> Query {
        q("/article/conf/INFOCOM")
    }
    fn q6() -> Query {
        q("/article/author/last/Smith")
    }

    #[test]
    fn figure_3_partial_order() {
        // Arrows of Figure 3: qi → qj means qj ⊒ qi... read as "more
        // specific above": q1 is covered by q3, q4; q2 by q3, q5; q3 by q6.
        assert!(q3().covers(&q1()));
        assert!(q4().covers(&q1()));
        assert!(q3().covers(&q2()));
        assert!(q5().covers(&q2()));
        assert!(q6().covers(&q3()));
        // Transitivity: q6 ⊒ q1 via q3.
        assert!(q6().covers(&q1()));
        assert!(q6().covers(&q2()));
    }

    #[test]
    fn covering_is_reflexive() {
        for query in [q1(), q2(), q3(), q4(), q5(), q6()] {
            assert!(query.covers(&query), "{query}");
            assert!(!query.covers_strictly(&query));
        }
    }

    #[test]
    fn non_covering_pairs() {
        assert!(!q4().covers(&q2())); // TCP title not implied by INFOCOM query
        assert!(!q5().covers(&q1())); // SIGCOMM article doesn't promise INFOCOM
        assert!(!q1().covers(&q3())); // more specific never covers less specific
        assert!(!q3().covers(&q6()));
        assert!(!q4().covers(&q5()));
        assert!(!q5().covers(&q4()));
    }

    #[test]
    fn covering_is_antisymmetric_on_distinct_queries() {
        let pairs = [(q3(), q6()), (q1(), q4()), (q2(), q5())];
        for (a, b) in pairs {
            assert!(!(a.covers(&b) && b.covers(&a)));
        }
    }

    #[test]
    fn wildcard_covers_concrete_names() {
        assert!(q("/*/title/TCP").covers(&q("/article/title/TCP")));
        assert!(q("/article/*/Smith").covers(&q("/article/last/Smith")));
        // ...but a concrete name does not cover a wildcard.
        assert!(!q("/article/title/TCP").covers(&q("/*/title/TCP")));
    }

    #[test]
    fn descendant_covers_deeper_paths() {
        assert!(q("//Smith").covers(&q("/article/author/last/Smith")));
        assert!(q("/article//Smith").covers(&q("/article/author/last/Smith")));
        assert!(q("//last/Smith").covers(&q("/article/author/last/Smith")));
        // A child-axis path does not cover a descendant query.
        assert!(!q("/article/author/last/Smith").covers(&q("/article//Smith")));
    }

    #[test]
    fn descendant_root_covers_shallow_and_deep() {
        assert!(q("//article").covers(&q("/article/title/TCP")));
        assert!(q("//title").covers(&q("/article/title/TCP")));
    }

    #[test]
    fn comparison_implication_numeric() {
        assert!(q("/a[y>=1990]").covers(&q("/a[y>=1995]")));
        assert!(q("/a[y>=1990]").covers(&q("/a[y>1990]")));
        assert!(q("/a[y>1990]").covers(&q("/a[y>=1991]")));
        assert!(q("/a[y<=2000]").covers(&q("/a[y<1999]")));
        assert!(q("/a[y!=5]").covers(&q("/a[y>5]")));
        assert!(q("/a[y!=5]").covers(&q("/a[y!=5]")));
        // Not implied:
        assert!(!q("/a[y>=1995]").covers(&q("/a[y>=1990]")));
        assert!(!q("/a[y<=1990]").covers(&q("/a[y>=1990]")));
        assert!(!q("/a[y!=5]").covers(&q("/a[y>=5]")));
    }

    #[test]
    fn comparison_implied_by_value_leaf() {
        // The MSD pins year/1996; a range query covering 1996 covers it.
        assert!(q("/article[year>=1990]").covers(&q("/article/year/1996")));
        assert!(q("/article[year<=1996]").covers(&q("/article/year/1996")));
        assert!(q("/article[year!=1989]").covers(&q("/article/year/1996")));
        assert!(!q("/article[year>=1997]").covers(&q("/article/year/1996")));
    }

    #[test]
    fn equality_comparison_and_value_leaf_are_equivalent() {
        assert!(q("/article/conf/INFOCOM").covers(&q("/article[conf=INFOCOM]")));
        assert!(q("/article[conf=INFOCOM]").covers(&q("/article/conf/INFOCOM")));
    }

    #[test]
    fn equality_implied_with_numeric_normalization() {
        assert!(q("/a/y/100").covers(&q("/a[y=0100]")));
    }

    #[test]
    fn starts_with_covering() {
        // Initial-letter index entries (§IV-C): [last^=S] covers any
        // query pinning a last name that starts with S.
        assert!(q("/article[author/last^=S]").covers(&q("/article/author/last/Smith")));
        assert!(q("/article[author/last^=Smi]").covers(&q("/article/author/last/Smith")));
        assert!(!q("/article[author/last^=D]").covers(&q("/article/author/last/Smith")));
        // Longer prefixes are covered by shorter ones.
        assert!(q("/article[author/last^=S]").covers(&q("/article[author/last^=Smi]")));
        assert!(!q("/article[author/last^=Smi]").covers(&q("/article[author/last^=S]")));
        // A prefix constraint implies inequality with non-extending values.
        assert!(q("/article[author/last!=Doe]").covers(&q("/article[author/last^=S]")));
        assert!(!q("/article[author/last!=Smith]").covers(&q("/article[author/last^=S]")));
        // Prefix does not imply equality or ranges.
        assert!(!q("/article/author/last/Smith").covers(&q("/article[author/last^=Smith]")));
        assert!(!q("/article[year>=1990]").covers(&q("/article[year^=19]")));
    }

    #[test]
    fn contains_covering() {
        // Keyword entries: [title*=Routing] covers titles containing it.
        assert!(q("/article[title*=Routing]")
            .covers(&q("/article/title/\"Adaptive Routing in Overlays\"")));
        assert!(!q("/article[title*=Caching]")
            .covers(&q("/article/title/\"Adaptive Routing in Overlays\"")));
        // Substring of a substring.
        assert!(q("/article[title*=out]").covers(&q("/article[title*=Routing]")));
        assert!(!q("/article[title*=Routing]").covers(&q("/article[title*=out]")));
        // Prefix implies contains.
        assert!(q("/article[title*=Ada]").covers(&q("/article[title^=Adaptive]")));
        // Contains does not imply prefix.
        assert!(!q("/article[title^=Routing]").covers(&q("/article[title*=Routing]")));
    }

    #[test]
    fn string_comparisons_only_imply_identity() {
        assert!(q("/a[t>=apple]").covers(&q("/a[t>=apple]")));
        assert!(!q("/a[t>=apple]").covers(&q("/a[t>=banana]")));
        // Equality on strings still evaluates.
        assert!(q("/a[t!=x]").covers(&q("/a[t=y]")));
    }

    #[test]
    fn msd_is_covered_by_every_fragment() {
        let msd = q1();
        for broad in [q3(), q4(), q6(), q("/article"), q("/article[year/1989]")] {
            assert!(broad.covers(&msd), "{broad}");
        }
    }

    #[test]
    fn deeper_hierarchy_chains() {
        // A chain as produced by the Complex indexing scheme:
        // conf → conf+year → author+conf+year → MSD.
        let c0 = q("/article/conf/INFOCOM");
        let c1 = q("/article[conf/INFOCOM][year/1996]");
        let c2 = q("/article[author/last/Smith][conf/INFOCOM][year/1996]");
        let msd = q("/article[author[first/John][last/Smith]][title/IPv6][conf/INFOCOM][year/1996][size/312352]");
        assert!(c0.covers(&c1));
        assert!(c1.covers(&c2));
        assert!(c2.covers(&msd));
        assert!(c0.covers(&msd));
        assert!(!c2.covers(&c1));
    }

    #[test]
    fn sibling_predicates_do_not_merge_across_branches() {
        // [author[first/John]][author[last/Doe]] is weaker than
        // [author[first/John][last/Doe]] (different author elements may
        // satisfy the two branches), so the weaker covers the stronger...
        let merged = q("/article/author[first/John][last/Doe]");
        let split = q("/article[author/first/John][author/last/Doe]");
        assert!(split.covers(&merged));
        // ...but not vice versa.
        assert!(!merged.covers(&split));
    }
}
