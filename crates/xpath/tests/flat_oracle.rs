//! Oracle test: the frozen `Query` against the pointer tree it replaced.
//!
//! A `Query` is one buffer — its text, then its pre-order nodes packed —
//! and covering, matching, rendering, measuring and generalizing all walk
//! that. The
//! reference below is the code they were ported from — a `String` + `Vec`
//! node, the recursive `normalize` / `write` / `contains` / `node_matches`
//! — kept verbatim on a test-local tree, minus the constructs the
//! language no longer has, and with the one rule `covers` gained since:
//! an empty `^=` or `*=` is implied by its node being there. Seeded trees (every operator, names that need
//! quoting and escaping, duplicate and unsorted branches) go through
//! both, and everything observable must agree: the canonical text first
//! of all, since every DHT key is a hash of it.
//!
//! `QueryBuilder` writes its drafts with code of its own, so every seeded
//! tree is also built through it, by `value`, `exists`, `compare` and
//! `branch`, and must come out as the reference's canonical text.

use std::fmt::Write;

use p2p_index_testkit::{for_each_case, Rng, StdRng};
use p2p_index_xmldoc::Element;
use p2p_index_xpath::{parse_query, CmpOp, NodeRef, Query, QueryBuilder};

// ---------------------------------------------------------------------
// The reference: the tree as it was at rest before the port.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Comparison {
    op: CmpOp,
    value: String,
}

/// Field order is the normalization order (the derived `Ord`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Tree {
    name: String,
    comparison: Option<Comparison>,
    children: Vec<Tree>,
}

fn needs_quoting(token: &str) -> bool {
    token.is_empty()
        || token == "*"
        || !token.chars().all(|c| {
            c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | ',' | '&' | '+' | '\'')
        })
}

/// `token` as the grammar spells it: bare if it may be and `quote` does
/// not insist, else quoted with `\\` and `\"` escaped.
fn write_token(token: &str, quote: bool, out: &mut String) {
    if quote || needs_quoting(token) {
        let escaped = token.replace('\\', "\\\\").replace('"', "\\\"");
        write!(out, "\"{escaped}\"").unwrap();
    } else {
        out.push_str(token);
    }
}

impl Tree {
    fn is_leaf(&self) -> bool {
        self.children.is_empty() && self.comparison.is_none()
    }

    fn normalize(&mut self) {
        for c in &mut self.children {
            c.normalize();
        }
        self.children.sort();
        self.children.dedup();
    }

    fn size(&self) -> usize {
        1 + self.children.iter().map(Tree::size).sum::<usize>()
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(Tree::depth).max().unwrap_or(0)
    }

    /// Canonical rendering of a normalized tree.
    fn write(&self, out: &mut String, relative: bool) {
        if !relative {
            out.push('/');
        }
        write_token(&self.name, false, out);
        if self.comparison.is_none() && self.children.len() == 1 {
            let only = &self.children[0];
            if only.comparison.is_none() {
                return only.write(out, false);
            }
        }
        for child in &self.children {
            out.push('[');
            child.write(out, true);
            out.push(']');
        }
        if let Some(cmp) = &self.comparison {
            out.push_str(cmp.op.symbol());
            write_token(&cmp.value, false, out);
        }
    }

    fn canonical(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// Some surface form of a tree in whatever order it is in: every
    /// child a predicate, tokens quoted at random where they need not be.
    fn surface(&self, rng: &mut StdRng, out: &mut String, relative: bool) {
        if !relative {
            out.push('/');
        }
        write_token(&self.name, one_in(rng, 4), out);
        for child in &self.children {
            out.push('[');
            child.surface(rng, out, true);
            out.push(']');
        }
        if let Some(cmp) = &self.comparison {
            out.push_str(cmp.op.symbol());
            write_token(&cmp.value, one_in(rng, 4), out);
        }
    }
}

fn contains(g: &Tree, s: &Tree) -> bool {
    if g.name != s.name {
        return false;
    }
    if let Some(gc) = &g.comparison {
        if !comparison_implied(gc, s) {
            return false;
        }
    }
    g.children.iter().all(|gc| child_mapped(gc, s))
}

fn child_mapped(gc: &Tree, s: &Tree) -> bool {
    if s.children.iter().any(|t| contains(gc, t)) {
        return true;
    }
    gc.is_leaf() && equality_implies(s, &gc.name)
}

fn equality_implies(s: &Tree, v: &str) -> bool {
    matches!(&s.comparison, Some(c) if c.op == CmpOp::Eq && CmpOp::Eq.eval(&c.value, v))
}

fn comparison_implied(gc: &Comparison, s: &Tree) -> bool {
    if gc.value.is_empty() && gc.op != CmpOp::Eq {
        return true;
    }
    let mut sources: Vec<Comparison> = Vec::new();
    if let Some(c) = &s.comparison {
        sources.push(c.clone());
    }
    for child in &s.children {
        if child.is_leaf() {
            sources.push(Comparison {
                op: CmpOp::Eq,
                value: child.name.clone(),
            });
        }
    }
    sources.iter().any(|sc| comparison_implies(sc, gc))
}

fn comparison_implies(spec: &Comparison, gen: &Comparison) -> bool {
    if spec == gen {
        return true;
    }
    if spec.op == CmpOp::Eq {
        return gen.op.eval(&spec.value, &gen.value);
    }
    if spec.op == CmpOp::StartsWith {
        return match gen.op {
            CmpOp::StartsWith => spec.value.starts_with(&gen.value),
            CmpOp::Contains => spec.value.contains(&gen.value),
            _ => false,
        };
    }
    gen.op == CmpOp::Contains && spec.value.contains(&gen.value)
}

fn node_matches(p: &Tree, e: &Element) -> bool {
    if p.name != e.name() {
        return false;
    }
    if let Some(cmp) = &p.comparison {
        if !cmp.op.eval(&e.text(), &cmp.value) {
            return false;
        }
    }
    p.children.iter().all(|c| child_satisfied(c, e))
}

fn child_satisfied(c: &Tree, e: &Element) -> bool {
    if c.is_leaf() && e.text() == c.name {
        return true;
    }
    e.child_elements().any(|child| node_matches(c, child))
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// Element names and values share one small pool, so that names, value
/// leaves and comparison constants meet often enough for covering and
/// matching to say yes; five of them need quotes, two of those escapes.
const TOKENS: [&str; 14] = [
    "a",
    "b",
    "c",
    "Smith",
    "Smi",
    "1990",
    "1995",
    "0100",
    "100",
    "x y",
    "say \"hi\"",
    "b\\s",
    "",
    "*",
];

const OPS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::StartsWith, CmpOp::Contains];

fn one_in(rng: &mut StdRng, n: usize) -> bool {
    rng.gen_range(0..n) == 0
}

fn arb_token(rng: &mut StdRng) -> String {
    TOKENS[rng.gen_range(0..TOKENS.len())].to_string()
}

/// A tree as a user might type it: branches in any order, some twice.
fn arb_tree(rng: &mut StdRng, levels: usize) -> Tree {
    let mut children: Vec<Tree> = Vec::new();
    if levels > 1 {
        for _ in 0..rng.gen_range(0..4usize) {
            if !children.is_empty() && one_in(rng, 5) {
                let twin = children[rng.gen_range(0..children.len())].clone();
                children.push(twin);
            } else {
                children.push(arb_tree(rng, levels - 1));
            }
        }
    }
    Tree {
        name: arb_token(rng),
        comparison: (one_in(rng, 4)).then(|| Comparison {
            op: OPS[rng.gen_range(0..OPS.len())],
            value: arb_token(rng),
        }),
        children,
    }
}

/// A tree that asks for less than `s` does, most of the time: branches
/// dropped, a comparison dropped, a value leaf turned into a comparison
/// it satisfies.
fn weaken(rng: &mut StdRng, s: &Tree) -> Tree {
    let mut g = s.clone();
    g.children.retain(|_| !one_in(rng, 3));
    g.children = g.children.iter().map(|c| weaken(rng, c)).collect();
    match rng.gen_range(0..4usize) {
        0 => g.comparison = None,
        1 if g.comparison.is_none() => {
            if let Some(i) = g.children.iter().position(Tree::is_leaf) {
                let value = g.children.remove(i).name;
                let op = OPS[rng.gen_range(0..OPS.len())];
                g.comparison = Some(Comparison { op, value });
            }
        }
        _ => {}
    }
    g
}

/// A document that tends to match `q`: an element per node, named as the
/// node is (quotes, spaces and all: matching compares names as strings),
/// a value leaf sometimes as text and sometimes as an element.
fn document_for(rng: &mut StdRng, q: &Tree) -> Element {
    let mut e = Element::new(q.name.clone());
    if let Some(cmp) = &q.comparison {
        if one_in(rng, 2) {
            e = e.with_text_node(cmp.value.clone());
        }
    }
    for child in &q.children {
        if child.is_leaf() && !one_in(rng, 3) {
            e = e.with_text_node(child.name.clone());
        } else if !one_in(rng, 6) {
            e = e.with_child(document_for(rng, child));
        }
    }
    e
}

/// The reference tree, normalized, and the frozen query parsed from some
/// surface form of the same tree before normalization.
fn both(rng: &mut StdRng, mut tree: Tree) -> (Tree, Query) {
    let mut typed = String::new();
    tree.surface(rng, &mut typed, false);
    let frozen = parse_query(&typed).unwrap_or_else(|e| panic!("{typed:?} must parse: {e}"));
    tree.normalize();
    (tree, frozen)
}

/// The tree a frozen query shows through its public view.
fn seen_through(view: NodeRef<'_>) -> Tree {
    Tree {
        name: view.name().to_string(),
        comparison: view.comparison().map(|c| Comparison {
            op: c.op,
            value: c.value.to_string(),
        }),
        children: view.children().map(seen_through).collect(),
    }
}

// ---------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------

/// Normalizing, rendering, measuring and the borrowed view: one query.
#[test]
fn text_shape_and_view_equal_the_reference() {
    let (mut quoted, mut reordered) = (0u32, 0u32);
    for_each_case(|rng| {
        let typed = arb_tree(rng, 4);
        let (tree, q) = both(rng, typed.clone());
        let canon = tree.canonical();
        assert_eq!(q.to_string(), canon);
        assert_eq!(q.canonical_text(), canon);
        assert_eq!(q.size(), tree.size(), "{canon}");
        assert_eq!(q.depth(), tree.depth(), "{canon}");
        assert_eq!(seen_through(q.root()), tree, "{canon}");
        assert_eq!(q.root_name(), tree.name);
        assert_eq!(parse_query(&canon).expect("canonical text parses"), q);
        quoted += u32::from(canon.contains('\\'));
        reordered += u32::from(typed != tree);
    });
    assert!(quoted >= 20, "only {quoted} cases had an escaped token");
    assert!(reordered >= 50, "only {reordered} cases needed normalizing");
}

/// `covers`, `covers_strictly`, `==` and `Ord` on seeded pairs — half of
/// them built so that one side asks for less than the other.
#[test]
fn covering_and_order_equal_the_reference() {
    let (mut yes, mut no) = (0u32, 0u32);
    for_each_case(|rng| {
        for _ in 0..4 {
            let s = arb_tree(rng, 4);
            let g = if one_in(rng, 2) {
                weaken(rng, &s)
            } else {
                arb_tree(rng, 3)
            };
            let (s, qs) = both(rng, s);
            let (g, qg) = both(rng, g);
            for ((a, qa), (b, qb)) in [((&g, &qg), (&s, &qs)), ((&s, &qs), (&g, &qg))] {
                let expected = contains(a, b);
                assert_eq!(qa.covers(qb), expected, "{qa} covers {qb}");
                assert_eq!(qa.covers_strictly(qb), expected && a != b, "{qa} vs {qb}");
                assert_eq!(qa == qb, a == b, "{qa} vs {qb}");
                assert_eq!(qa.cmp(qb), a.canonical().cmp(&b.canonical()));
                if expected {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
            assert!(qs.covers(&qs), "{qs} must cover itself");
        }
    });
    assert!(yes >= 300 && no >= 300, "{yes} covering pairs, {no} not");
}

/// `matches` on seeded documents — some built to fit the query.
#[test]
fn matching_equals_the_reference() {
    let (mut yes, mut no) = (0u32, 0u32);
    for_each_case(|rng| {
        let typed = arb_tree(rng, 4);
        let other = arb_tree(rng, 4);
        let documents = [
            document_for(rng, &typed),
            document_for(rng, &typed),
            document_for(rng, &other),
        ];
        let (tree, q) = both(rng, typed);
        for doc in &documents {
            let expected = node_matches(&tree, doc);
            assert_eq!(q.matches(doc), expected, "{q} on {doc}");
            // Canonicalizing merges text runs: the borrowed-text path.
            let canonical = doc.canonicalize();
            assert_eq!(
                q.matches(&canonical),
                node_matches(&tree, &canonical),
                "{q}"
            );
            if expected {
                yes += 1;
            } else {
                no += 1;
            }
        }
    });
    assert!(yes >= 100 && no >= 100, "{yes} matches, {no} misses");
}

/// Dropping a branch of the frozen form equals removing the child from
/// the tree and rendering again — the path a search's recovery takes.
#[test]
fn generalizations_equal_the_reference() {
    for_each_case(|rng| {
        let typed = arb_tree(rng, 4);
        let (tree, q) = both(rng, typed);
        let expected: Vec<Tree> = (0..tree.children.len())
            .map(|i| {
                let mut general = tree.clone();
                general.children.remove(i);
                general
            })
            .collect();
        let got = q.generalizations();
        assert_eq!(got.len(), expected.len(), "{q}");
        for (i, (g, tree)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.to_string(), tree.canonical(), "{q} minus branch {i}");
            assert_eq!(seen_through(g.root()), *tree, "{q} minus branch {i}");
            assert_eq!(q.drop_top_branch(i).as_ref(), Some(g));
            assert_eq!(&parse_query(&g.to_string()).expect("canonical"), g);
        }
        assert_eq!(q.drop_top_branch(expected.len()), None);
    });
}

// ---------------------------------------------------------------------
// The builder.
// ---------------------------------------------------------------------

/// Adds `t`'s comparison and children to `b`, whose root is `t`'s, each
/// child through a builder call picked at random among those that say
/// it. A path step merges into the first comparison-free child of that
/// name, so a child is reached by path only when no earlier sibling is
/// one — and its name is a single non-empty step.
fn fill(rng: &mut StdRng, t: &Tree, mut b: QueryBuilder) -> QueryBuilder {
    if let Some(c) = &t.comparison {
        b = b.compare("", c.op, &c.value);
    }
    for (i, child) in t.children.iter().enumerate() {
        let name = child.name.as_str();
        let by_path = !name.is_empty()
            && !name.contains('/')
            && !t.children[..i]
                .iter()
                .any(|s| s.comparison.is_none() && s.name == child.name)
            && one_in(rng, 2);
        b = match (&child.comparison, by_path) {
            (None, _) if child.children.is_empty() => {
                if by_path {
                    b.exists(name)
                } else {
                    b.value("", name)
                }
            }
            (Some(c), true) if child.children.is_empty() => b.compare(name, c.op, &c.value),
            (None, true) if child.children.iter().all(Tree::is_leaf) => child
                .children
                .iter()
                .fold(b, |b, leaf| b.value(name, &leaf.name)),
            _ => b.branch(name, |sub| fill(rng, child, sub)),
        };
    }
    b
}

/// Building a tree equals parsing it: the builder's draft code sorts,
/// deduplicates, quotes and escapes as the reference does.
#[test]
fn building_equals_the_reference() {
    let mut wide = 0u32;
    for_each_case(|rng| {
        for _ in 0..4 {
            let mut tree = arb_tree(rng, 4);
            let q = fill(rng, &tree, QueryBuilder::new(&tree.name)).build();
            tree.normalize();
            let canon = tree.canonical();
            assert_eq!(q.canonical_text(), canon);
            assert_eq!(seen_through(q.root()), tree, "{canon}");
            assert_eq!(parse_query(&canon).expect("canonical text parses"), q);
            wide += u32::from(tree.children.iter().any(|c| c.children.len() > 1));
        }
    });
    assert!(wide >= 100, "only {wide} trees had a branch of two or more");
}
