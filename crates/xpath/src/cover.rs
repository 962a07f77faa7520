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
//! pattern tree must embed into `q`'s, mapping each node to a child of the
//! image of its parent with the same name, and each comparison to a
//! constraint on the image's text that implies it.
//!
//! The language is XP{/,[]} — child steps and predicates — plus value
//! leaves and the comparisons `=`, `^=` and `*=`. For XP{/,[]} the
//! homomorphism check is **exact** (Miklau & Suciu): `covers` answers
//! `true` exactly when every descriptor matching `q` matches `q'`. The
//! comparisons keep it exact, because a node constrains its text with at
//! most one comparison plus value leaves that pin it, and each of those
//! decides on its own whether it implies the general comparison.
//!
//! One schema assumption is baked in (documented on [`Query::covers`]):
//! element *names* and leaf *values* are assumed not to collide, which
//! holds for every descriptor vocabulary in this repository.
//!
//! One corner falls outside that statement, and no index scheme or
//! workload here builds it: a specific query no descriptor can match
//! (`/a/y[1][2]`), which every query covers but `covers` may deny.

use std::cmp::Ordering;

use crate::ast::{CmpOp, Comparison, NodeRef, Query, QueryRef};

impl Query {
    /// Does `self` cover `other` — i.e. does every descriptor matching
    /// `other` also match `self`?
    ///
    /// The check is exact (see the [module docs](self) for the one corner
    /// no scheme builds) under one schema assumption: element names and
    /// leaf values do not collide in the descriptor vocabulary.
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
    #[inline]
    pub fn covers(&self, other: &Query) -> bool {
        self.view().covers(other.view())
    }

    /// `self ⊒ other && self != other` (strict covering).
    pub fn covers_strictly(&self, other: &Query) -> bool {
        self != other && self.covers(other)
    }
}

impl QueryRef<'_> {
    /// [`Query::covers`], on two views: the one definition of covering.
    pub fn covers(self, other: QueryRef<'_>) -> bool {
        let (g, s) = (self.root(), other.root());
        g.name_bytes() == s.name_bytes() && contained_below(&g, &s)
    }
}

/// Can general pattern node `g` be mapped onto specific node `s`, whose
/// name it shares?
fn contained_below(g: &NodeRef<'_>, s: &NodeRef<'_>) -> bool {
    g.comparison().is_none_or(|gc| comparison_implied(gc, s)) && children_mapped(g, s)
}

/// Can every child constraint of `g` be satisfied under `s`?
///
/// A general child maps only onto a specific child of the same name.
/// Siblings ascend by name, so the children of `s` that each child of `g`
/// may map onto start where the previous one's did or later: one pass
/// over the children of `s` serves all the children of `g`.
fn children_mapped(g: &NodeRef<'_>, s: &NodeRef<'_>) -> bool {
    let mut from = s.kids();
    g.kids().all(|gc| {
        let name = gc.name_bytes();
        // A leaf maps onto any child of its name: nothing below to check.
        let leaf = gc.is_leaf();
        let mut candidates = from.clone();
        while let Some(t) = candidates.next() {
            match name_order(t.name_bytes(), name) {
                Ordering::Less => from = candidates.clone(),
                Ordering::Equal if leaf || contained_below(&gc, &t) => return true,
                Ordering::Equal => {}
                Ordering::Greater => break,
            }
        }
        // A general value-leaf (`[title/TCP]` style) is also implied by an
        // equality comparison on the corresponding node (`[title="TCP"]`):
        // text equal to the value means the value node exists.
        leaf && equality_implies(s, gc.name())
    })
}

/// The order of two names. Sibling names mostly differ in their first
/// byte, which settles it without a call to compare the rest.
#[inline(always)]
fn name_order(a: &[u8], b: &[u8]) -> Ordering {
    match (a.first(), b.first()) {
        (Some(x), Some(y)) if x != y => x.cmp(y),
        _ => a.cmp(b),
    }
}

/// Does node `s` carry an `= v` constraint on its own text? Out of line,
/// as is [`comparison_implied`]: the walk seldom needs either, and
/// inlined they crowd its registers.
#[inline(never)]
fn equality_implies(s: &NodeRef<'_>, v: &str) -> bool {
    matches!(s.comparison(), Some(c) if c.op == CmpOp::Eq && CmpOp::Eq.eval(c.value, v))
}

/// Is the general comparison `gc` implied by the constraints the specific
/// node `s` places on its text?
///
/// `s` constrains its text through its own comparison and through value
/// leaves (`year/1996` pins the text to `1996` under the no-collision
/// schema assumption). Every text starts with and contains `""`, so an
/// empty `^=` or `*=` asks only that the node be there.
#[inline(never)]
fn comparison_implied(gc: Comparison<'_>, s: &NodeRef<'_>) -> bool {
    if gc.value.is_empty() && gc.op != CmpOp::Eq {
        return true;
    }
    let pinned = s
        .children()
        .filter(|child| child.is_leaf())
        .map(|leaf| Comparison {
            op: CmpOp::Eq,
            value: leaf.name(),
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
    match spec.op {
        // Equality pins the value: just evaluate the general constraint on
        // it.
        CmpOp::Eq => gen.op.eval(spec.value, gen.value),
        // Text starting with p also starts with every prefix of p and
        // contains every substring of p, but need not equal any one
        // value.
        CmpOp::StartsWith => match gen.op {
            CmpOp::StartsWith => spec.value.starts_with(gen.value),
            CmpOp::Contains => spec.value.contains(gen.value),
            CmpOp::Eq => false,
        },
        // Text containing w also contains every substring of w, and that
        // is all it promises.
        CmpOp::Contains => gen.op == CmpOp::Contains && spec.value.contains(gen.value),
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
    fn comparison_implication_numeric() {
        // `=` between numbers compares their text: one spelling of a
        // number implies no other, either way.
        assert!(q("/a[y=1990]").covers(&q("/a[y=1990]")));
        assert!(!q("/a[y=1990]").covers(&q("/a[y=01990]")));
        assert!(!q("/a[y=01990]").covers(&q("/a[y=1990.0]")));
        assert!(!q("/a[y=1990]").covers(&q("/a[y=1995]")));
        // A prefix or substring of a number is one of its text.
        assert!(q("/a[y^=19]").covers(&q("/a[y=1990]")));
        assert!(!q("/a[y^=1990]").covers(&q("/a[y^=19]")));
        assert!(!q("/a[y=1990]").covers(&q("/a[y^=1990]")));
    }

    #[test]
    fn comparison_implied_by_value_leaf() {
        // The MSD pins year/1996; a comparison 1996 satisfies covers it.
        assert!(q("/article[year=1996]").covers(&q("/article/year/1996")));
        assert!(q("/article[year^=199]").covers(&q("/article/year/1996")));
        assert!(q("/article[year*=99]").covers(&q("/article/year/1996")));
        assert!(!q("/article[year=1997]").covers(&q("/article/year/1996")));
        assert!(!q("/article[year^=1997]").covers(&q("/article/year/1996")));
    }

    #[test]
    fn equality_comparison_and_value_leaf_are_equivalent() {
        assert!(q("/article/conf/INFOCOM").covers(&q("/article[conf=INFOCOM]")));
        assert!(q("/article[conf=INFOCOM]").covers(&q("/article/conf/INFOCOM")));
    }

    #[test]
    fn equality_implied_with_numeric_normalization() {
        // No normalization: `[y=0100]` pins the text `0100`, which is not
        // the value `100` — `<a><y>0100</y></a>` matches only the right.
        assert!(q("/a/y/100").covers(&q("/a[y=100]")));
        assert!(!q("/a/y/100").covers(&q("/a[y=0100]")));
        assert!(!q("/a[y=0100]").covers(&q("/a/y/100")));
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
        // Prefix does not imply equality.
        assert!(!q("/article/author/last/Smith").covers(&q("/article[author/last^=Smith]")));
        assert!(!q("/article[author/last=Smith]").covers(&q("/article[author/last^=Smith]")));
        // Every text starts with the empty prefix: any `last` will do.
        assert!(q("/article[author/last^=\"\"]").covers(&q("/article[author/last*=mi]")));
        assert!(q("/article[author/last*=\"\"]").covers(&q("/article/author/last")));
        assert!(!q("/article[author/last^=\"\"]").covers(&q("/article/author/first")));
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
        // String equality is implied by the same value only, as a
        // comparison or as a value leaf.
        assert!(q("/a[t=apple]").covers(&q("/a[t=apple]")));
        assert!(q("/a[t=apple]").covers(&q("/a/t/apple")));
        assert!(!q("/a[t=apple]").covers(&q("/a[t=Apple]")));
        assert!(!q("/a[t=apple]").covers(&q("/a[t^=apple]")));
        assert!(!q("/a[t=apple]").covers(&q("/a[t*=apple]")));
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
