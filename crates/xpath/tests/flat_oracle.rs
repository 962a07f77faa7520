//! Oracle test: the frozen `Query` against the pointer tree it replaced.
//!
//! A `Query` is a pre-order node array over one text buffer, and covering,
//! matching, rendering, measuring and generalizing all walk that. The
//! reference below is the code they were ported from — a `String` + `Vec`
//! node, the recursive `normalize` / `write` / `contains` / `node_matches`
//! — kept verbatim on a test-local tree. Seeded trees (wildcards, `//`,
//! every operator, names that need quoting and escaping, duplicate and
//! unsorted branches) go through both, and everything observable must
//! agree: the canonical text first of all, since every DHT key is a hash
//! of it. The benchmark workloads only ever build XP{/,[]} queries, so
//! this suite is what guards the rest of the language.

use std::fmt::Write;

use p2p_index_testkit::{for_each_case, Rng, StdRng};
use p2p_index_xmldoc::Element;
use p2p_index_xpath::{parse_query, Axis, CmpOp, NodeRef, Query};

// ---------------------------------------------------------------------
// The reference: the tree as it was at rest before the port.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum NameTest {
    Name(String),
    Wildcard,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Comparison {
    op: CmpOp,
    value: String,
}

/// Field order is the normalization order (the derived `Ord`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Tree {
    axis: Axis,
    test: NameTest,
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

    fn descendants(&self) -> Vec<&Tree> {
        let mut out = Vec::new();
        let mut stack: Vec<&Tree> = self.children.iter().collect();
        while let Some(p) = stack.pop() {
            out.push(p);
            stack.extend(p.children.iter());
        }
        out
    }

    /// Canonical rendering of a normalized tree.
    fn write(&self, out: &mut String, relative: bool) {
        if !relative {
            out.push_str(match self.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
        } else if self.axis == Axis::Descendant {
            out.push_str("//");
        }
        match &self.test {
            NameTest::Wildcard => out.push('*'),
            NameTest::Name(n) => write_token(n, false, out),
        }
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
        if !relative || self.axis == Axis::Descendant {
            out.push_str(match self.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
        }
        match &self.test {
            NameTest::Wildcard => out.push('*'),
            NameTest::Name(n) => write_token(n, one_in(rng, 4), out),
        }
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

fn covers(g: &Tree, s: &Tree) -> bool {
    match g.axis {
        Axis::Child => s.axis == Axis::Child && contains(g, s),
        Axis::Descendant => std::iter::once(s)
            .chain(s.descendants())
            .any(|n| contains(g, n)),
    }
}

fn contains(g: &Tree, s: &Tree) -> bool {
    match (&g.test, &s.test) {
        (NameTest::Wildcard, _) => {}
        (NameTest::Name(gn), NameTest::Name(sn)) if gn == sn => {}
        _ => return false,
    }
    if let Some(gc) = &g.comparison {
        if !comparison_implied(gc, s) {
            return false;
        }
    }
    g.children.iter().all(|gc| child_mapped(gc, s))
}

fn child_mapped(gc: &Tree, s: &Tree) -> bool {
    let targets: Vec<&Tree> = match gc.axis {
        Axis::Child => s
            .children
            .iter()
            .filter(|c| c.axis == Axis::Child)
            .collect(),
        Axis::Descendant => s.descendants(),
    };
    if targets.into_iter().any(|t| contains(gc, t)) {
        return true;
    }
    if gc.is_leaf() {
        if let NameTest::Name(v) = &gc.test {
            return match gc.axis {
                Axis::Child => equality_implies(s, v),
                Axis::Descendant => std::iter::once(s)
                    .chain(s.descendants())
                    .any(|n| equality_implies(n, v)),
            };
        }
    }
    false
}

fn equality_implies(s: &Tree, v: &str) -> bool {
    matches!(&s.comparison, Some(c) if c.op == CmpOp::Eq && CmpOp::Eq.eval(&c.value, v))
}

fn comparison_implied(gc: &Comparison, s: &Tree) -> bool {
    let mut sources: Vec<Comparison> = Vec::new();
    if let Some(c) = &s.comparison {
        sources.push(c.clone());
    }
    for child in &s.children {
        if child.axis == Axis::Child && child.is_leaf() {
            if let NameTest::Name(v) = &child.test {
                sources.push(Comparison {
                    op: CmpOp::Eq,
                    value: v.clone(),
                });
            }
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
            CmpOp::Ne => !gen.value.starts_with(&spec.value),
            _ => false,
        };
    }
    if spec.op == CmpOp::Contains {
        return gen.op == CmpOp::Contains && spec.value.contains(&gen.value);
    }
    if matches!(gen.op, CmpOp::StartsWith | CmpOp::Contains) {
        return false;
    }
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

fn matches(q: &Tree, doc: &Element) -> bool {
    match q.axis {
        Axis::Child => node_matches(q, doc),
        Axis::Descendant => {
            let elements = std::iter::once(doc).chain(descendant_elements(doc));
            if q.is_leaf() {
                if let NameTest::Name(value) = &q.test {
                    return elements
                        .into_iter()
                        .any(|e| e.name() == value || e.text() == *value);
                }
            }
            elements.into_iter().any(|e| node_matches(q, e))
        }
    }
}

fn descendant_elements(e: &Element) -> Vec<&Element> {
    let mut out = Vec::new();
    let mut stack: Vec<&Element> = e.child_elements().collect();
    while let Some(el) = stack.pop() {
        out.push(el);
        stack.extend(el.child_elements());
    }
    out
}

fn node_matches(p: &Tree, e: &Element) -> bool {
    let accepted = match &p.test {
        NameTest::Name(n) => n == e.name(),
        NameTest::Wildcard => true,
    };
    if !accepted {
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
    if c.is_leaf() {
        if let NameTest::Name(value) = &c.test {
            let text_hit = match c.axis {
                Axis::Child => e.text() == *value,
                Axis::Descendant => {
                    e.text() == *value || descendant_elements(e).iter().any(|d| d.text() == *value)
                }
            };
            if text_hit {
                return true;
            }
        }
    }
    match c.axis {
        Axis::Child => e.child_elements().any(|child| node_matches(c, child)),
        Axis::Descendant => descendant_elements(e).iter().any(|d| node_matches(c, d)),
    }
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// Element names and values share one small pool, so that names, value
/// leaves and comparison constants meet often enough for covering and
/// matching to say yes; four of them need quotes, two of those escapes.
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

const OPS: [CmpOp; 8] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::StartsWith,
    CmpOp::Contains,
];

fn one_in(rng: &mut StdRng, n: usize) -> bool {
    rng.gen_range(0..n) == 0
}

fn arb_token(rng: &mut StdRng) -> String {
    TOKENS[rng.gen_range(0..TOKENS.len())].to_string()
}

fn arb_axis(rng: &mut StdRng) -> Axis {
    if one_in(rng, 5) {
        Axis::Descendant
    } else {
        Axis::Child
    }
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
        axis: arb_axis(rng),
        test: if one_in(rng, 8) {
            NameTest::Wildcard
        } else {
            NameTest::Name(arb_token(rng))
        },
        comparison: (one_in(rng, 4)).then(|| Comparison {
            op: OPS[rng.gen_range(0..OPS.len())],
            value: arb_token(rng),
        }),
        children,
    }
}

/// A tree that asks for less than `s` does, most of the time: branches
/// dropped, names turned into wildcards, `/` into `//`, a value leaf into
/// a comparison it satisfies.
fn weaken(rng: &mut StdRng, s: &Tree) -> Tree {
    let mut g = s.clone();
    g.children.retain(|_| !one_in(rng, 3));
    g.children = g.children.iter().map(|c| weaken(rng, c)).collect();
    match rng.gen_range(0..8usize) {
        0 => g.test = NameTest::Wildcard,
        1 => g.axis = Axis::Descendant,
        2 => g.comparison = None,
        3 if g.comparison.is_none() => {
            let leaf = g.children.iter().position(Tree::is_leaf);
            if let Some(NameTest::Name(value)) = leaf.map(|i| g.children.remove(i).test) {
                let op =
                    [CmpOp::Eq, CmpOp::Ge, CmpOp::Le, CmpOp::StartsWith][rng.gen_range(0..4usize)];
                g.comparison = Some(Comparison { op, value });
            }
        }
        _ => {}
    }
    g
}

/// A document that tends to match `q`: an element per named node, a
/// value leaf sometimes as text and sometimes as an element.
fn document_for(rng: &mut StdRng, q: &Tree) -> Element {
    let name = match &q.test {
        NameTest::Name(n) if !n.is_empty() && !needs_quoting(n) => n.clone(),
        _ => "w".to_string(),
    };
    let mut e = Element::new(name);
    if let Some(cmp) = &q.comparison {
        if one_in(rng, 2) {
            e = e.with_text_node(cmp.value.clone());
        }
    }
    for child in &q.children {
        match &child.test {
            NameTest::Name(value) if child.is_leaf() && !one_in(rng, 3) => {
                e = e.with_text_node(value.clone());
            }
            _ if one_in(rng, 6) => {}
            _ if child.axis == Axis::Descendant && one_in(rng, 2) => {
                e = e.with_child(Element::new("between").with_child(document_for(rng, child)));
            }
            _ => e = e.with_child(document_for(rng, child)),
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
        axis: view.axis(),
        test: match view.name() {
            Some(name) => NameTest::Name(name.to_string()),
            None => NameTest::Wildcard,
        },
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
        assert_eq!(
            q.root_name(),
            match &tree.test {
                NameTest::Name(n) => Some(n.as_str()),
                NameTest::Wildcard => None,
            }
        );
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
                let expected = covers(a, b);
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
            let expected = matches(&tree, doc);
            assert_eq!(q.matches(doc), expected, "{q} on {doc}");
            // Canonicalizing merges text runs: the borrowed-text path.
            let canonical = doc.canonicalize();
            assert_eq!(q.matches(&canonical), matches(&tree, &canonical), "{q}");
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
