//! The query AST: frozen, normalized tree patterns.
//!
//! A query in the paper's XPath subset — child steps, predicates, value
//! leaves, and the comparisons `=`, `^=` and `*=` — is a *tree pattern*:
//! a rooted tree of nodes where the syntactic distinction between
//! a path continuation (`/article/title/TCP`) and a predicate
//! (`/article[title/TCP]`) disappears. Boolean matching semantics make the
//! two forms equivalent, so collapsing them (plus sorting and deduplicating
//! branches) yields the "unique normalized format" the paper requires
//! before hashing queries into the DHT key space (footnote 1, §III-B).
//!
//! A [`Query`] holds that tree *frozen* in one `Arc<str>`. The buffer
//! starts with the canonical text — so `Key::hash_of(query.canonical_text())`
//! is well-defined and free — and every name and comparison value is a
//! span of it (or of the raw tokens after it). Then come the nodes in
//! pre-order, each a record of 7-bit ASCII fields with a skip link past
//! its subtree, two bytes a field while the text is under 16 KiB. Covering,
//! matching, rendering and generalizing all walk this form ([`NodeRef`] is
//! the borrowed view of one node, decoded from its record as it is read).
//! Construction writes into an index-linked arena of the private `draft`
//! module instead, which `Query::from_draft` sorts, stages into the same
//! packed form and freezes: a constructed query allocates its one buffer
//! and nothing else.
//!
//! That buffer describes itself, so a borrow of it is a whole query:
//! [`QueryRef`] is that view, and every read method — the canonical text,
//! the root, size, depth, the top branches, covering — is defined once,
//! on it; [`Query`]'s forward. A query the caller will only hash and
//! encode need not be frozen at all: [`Query::pack_with_known`] packs it
//! into a [`PackedQueries`] buffer the caller keeps, and the view reads it
//! there.

use std::cell::Cell;
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use p2p_index_xmldoc as xmldoc;

use crate::draft::{Draft, NodeId};
use crate::parse::is_bare_char;

/// The deepest a query may nest (`/article` has depth 1): one more than
/// [`xmldoc::MAX_DEPTH`], so the most specific query of the deepest
/// descriptor the XML parser accepts — its elements plus a value leaf —
/// still fits.
///
/// Every client parses the values it reads as queries, and parsing,
/// normalizing, covering and matching all recurse along the nesting, so
/// without a bound one stored value could overflow the stack of whoever
/// reads it. The parser, the builder and the freeze step refuse anything
/// deeper with [`TooDeep`]; every walk of a frozen query is therefore at
/// most this deep.
pub const MAX_DEPTH: usize = xmldoc::MAX_DEPTH + 1;

/// A query nests deeper than [`MAX_DEPTH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooDeep;

impl fmt::Display for TooDeep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query nests deeper than {MAX_DEPTH} levels")
    }
}

impl Error for TooDeep {}

/// Comparison operators usable in predicates (`[year=1990]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `^=` — string prefix test (`[author/last^=S]` selects last names
    /// starting with "S"; the initial-letter indexes of §IV-C).
    StartsWith,
    /// `*=` — substring test (`[title*=Routing]` selects titles containing
    /// "Routing"; enables the keyword indexes sketched in the related-work
    /// discussion of splitting query strings).
    Contains,
}

impl CmpOp {
    /// The operator's surface syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::StartsWith => "^=",
            CmpOp::Contains => "*=",
        }
    }

    /// Evaluates `left OP right` on the raw strings: `=` is string
    /// equality (so `[y=100]` means what the value leaf `y/100` means, and
    /// `"0100"` is not `"100"`), `^=` a prefix test, `*=` a substring test.
    pub fn eval(&self, left: &str, right: &str) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::StartsWith => left.starts_with(right),
            CmpOp::Contains => left.contains(right),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A value comparison attached to a pattern node, constraining the text
/// content of the matched element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Comparison<'a> {
    /// The operator.
    pub op: CmpOp,
    /// The constant right-hand side.
    pub value: &'a str,
}

/// A token is written bare only if the parser reads it back as one bare
/// name; anything else (spaces, slashes, brackets, quotes, operators) is
/// quoted.
pub(crate) fn needs_quoting(token: &str) -> bool {
    token.is_empty() || !token.chars().all(is_bare_char)
}

/// One node of a query, unpacked: what the renderer lays out before
/// [`Frozen::freeze`] packs it. Nodes sit in pre-order, so a node's strict
/// descendants are the indices `self + 1 .. end`, and its children are
/// reached by hopping from one child's `end` to the next.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Where the name starts in the text.
    name: u32,
    name_len: u32,
    /// Where the comparison's right-hand side starts (if `op` is set).
    value: u32,
    value_len: u32,
    /// One past the last node of this node's subtree.
    end: u32,
    op: Option<CmpOp>,
}

/// Offsets and node indices are counted in `u32` and packed into at most
/// 28 bits (four 7-bit digits): a query comes from a frame of at most
/// 16 MiB or from a descriptor already in memory, and its text, raw
/// tokens included, must stay under 256 MiB.
pub(crate) fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < 1 << (7 * WIDE))
        .expect("a query's text and node count stay under 2^28 (256 MiB)")
}

/// Bytes per packed field while every offset and node index is below
/// 2¹⁴ (16 KiB of text), and otherwise: each byte holds one 7-bit digit,
/// so the packed table is ASCII and lives in the query's `str`.
const NARROW: usize = 2;
const WIDE: usize = 4;

/// Bytes of one packed node: its op byte, then five fields — `end`,
/// `name`, `name_len`, `value` and `value_len`, in that order, so that
/// what a walk reads of every node comes first.
const fn record_len(width: usize) -> usize {
    1 + 5 * width
}

/// Writes `n` into `digits` as 7-bit digits, low digit first.
fn put_digits(digits: &mut [u8], n: u32) {
    debug_assert!(n >> (7 * digits.len()) == 0, "checked by `offset`");
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = (n >> (7 * i)) as u8 & 0x7f;
    }
}

/// The four two-digit fields in `bits`, each decoded in its 16-bit lane.
#[inline(always)]
fn narrow_lanes(bits: u64) -> u64 {
    bits & 0x007f_007f_007f_007f | bits >> 1 & 0x3f80_3f80_3f80_3f80
}

/// The inverse of [`narrow_lanes`]: each 14-bit lane of `lanes` as two
/// digits.
#[inline(always)]
fn narrow_digits(lanes: u64) -> u64 {
    debug_assert!(lanes & 0xc000_c000_c000_c000 == 0, "checked by `offset`");
    lanes & 0x007f_007f_007f_007f | lanes << 1 & 0x7f00_7f00_7f00_7f00
}

/// The four-digit field in `bits`.
#[inline(always)]
fn wide_value(bits: u32) -> u32 {
    bits & 0x7f | bits >> 1 & 0x3f80 | bits >> 2 & 0x001f_c000 | bits >> 3 & 0x0fe0_0000
}

/// Reads the four bytes at `at` as one little-endian `u32`.
#[inline(always)]
fn load32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes"))
}

/// Bytes of a frozen buffer's trailer: the canonical text's length and
/// the node count, four digits each whatever the field width, then the
/// width itself.
const TRAILER: usize = 2 * WIDE + 1;

/// Appends `n` as four digits: one number of the trailer.
fn push_wide(out: &mut Vec<u8>, n: u32) {
    let mut digits = [0; WIDE];
    put_digits(&mut digits, n);
    out.extend_from_slice(&digits);
}

impl Node {
    /// Writes this node's record in `W`-byte fields.
    #[inline(always)]
    fn pack_as<const W: usize, const R: usize>(&self, record: &mut [u8]) {
        const { assert!(R == record_len(W)) };
        let record: &mut [u8; R] = record.try_into().expect("a whole record");
        record[0] = match self.op {
            Some(CmpOp::Eq) => 0,
            Some(CmpOp::StartsWith) => 1,
            Some(CmpOp::Contains) => 2,
            None => 3,
        };
        if W == NARROW {
            // The first four fields in one 8-byte store, as `head` reads
            // them.
            let lanes = u64::from(self.end)
                | u64::from(self.name) << 16
                | u64::from(self.name_len) << 32
                | u64::from(self.value) << 48;
            record[1..9].copy_from_slice(&narrow_digits(lanes).to_le_bytes());
            record[9..11].copy_from_slice(&narrow_digits(self.value_len.into()).to_le_bytes()[..2]);
            return;
        }
        let fields = [
            self.end,
            self.name,
            self.name_len,
            self.value,
            self.value_len,
        ];
        for (digits, field) in record[1..].chunks_exact_mut(W).zip(fields) {
            put_digits(digits, field);
        }
    }
}

/// The op a record's first byte stands for.
#[inline(always)]
fn op_of(byte: u8) -> Option<CmpOp> {
    match byte & 3 {
        0 => Some(CmpOp::Eq),
        1 => Some(CmpOp::StartsWith),
        2 => Some(CmpOp::Contains),
        _ => None,
    }
}

/// A node table: the nodes in pre-order, each a record
/// [`Node::pack_as`] wrote, counted back from the end of `bytes` — node `i`'s record ends
/// `i` records before it — so that the root's is the last one, found
/// without reading how many there are.
#[derive(Clone, Copy)]
struct Table<'a> {
    /// Ends with the records.
    bytes: &'a [u8],
    /// Bytes a record: [`record_len`] of the field width. A word, not a
    /// flag, so that the view has no padding to copy.
    record: usize,
}

impl<'a> Table<'a> {
    /// The record of node `index`.
    #[inline(always)]
    fn record(self, index: u32) -> &'a [u8] {
        &self.bytes[self.bytes.len() - (index as usize + 1) * self.record..][..self.record]
    }

    /// Are the fields four bytes wide?
    #[inline(always)]
    fn wide(self) -> bool {
        self.record != record_len(NARROW)
    }

    /// What every walk reads of node `index`: `end`, the name's span and
    /// the op. On the narrow path that is one 8-byte load and a few masks;
    /// the wide one, past 16 KiB of text, is a call.
    #[inline(always)]
    fn head(self, index: u32) -> (u32, u32, u32, Option<CmpOp>) {
        if self.wide() {
            return self.head_wide(index);
        }
        const R: usize = record_len(NARROW);
        let record = &self.bytes[self.bytes.len() - (index as usize + 1) * R..][..R];
        let lanes = narrow_lanes(u64::from_le_bytes(
            record[1..9].try_into().expect("eight bytes"),
        ));
        let lane = |k: u32| u32::from((lanes >> (16 * k)) as u16);
        (lane(0), lane(1), lane(2), op_of(record[0]))
    }

    #[cold]
    #[inline(never)]
    fn head_wide(self, index: u32) -> (u32, u32, u32, Option<CmpOp>) {
        let record = self.record(index);
        let field = |k: usize| wide_value(load32(record, 1 + k * WIDE));
        (field(0), field(1), field(2), op_of(record[0]))
    }

    /// The span of node `index`'s comparison value.
    #[inline]
    fn value(self, index: u32) -> (u32, u32) {
        let record = self.record(index);
        if self.wide() {
            let field = |k: usize| wide_value(load32(record, 1 + k * WIDE));
            (field(3), field(4))
        } else {
            let lanes = narrow_lanes(u64::from(load32(record, 7)));
            (u32::from(lanes as u16), u32::from((lanes >> 16) as u16))
        }
    }
}

/// A borrowed view of one pattern node of a [`Query`].
///
/// Made, it has decoded what every walk reads of its node — the name span,
/// the subtree's end and the op — and it decodes the comparison's value
/// only when asked for it.
///
/// The derived-looking order — name, comparison, children — is the
/// normalization order: siblings are strictly ascending in it, which is
/// what makes the canonical text, and every DHT key, unique.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    /// What every name and value is a span of.
    text: &'a str,
    table: Table<'a>,
    index: u32,
    /// One past the last node of this node's subtree.
    end: u32,
    name: u32,
    name_len: u32,
    op: Option<CmpOp>,
}

impl<'a> NodeRef<'a> {
    /// The view of node `index` of `table`.
    #[inline(always)]
    fn new(text: &'a str, table: Table<'a>, index: u32) -> NodeRef<'a> {
        let (end, name, name_len, op) = table.head(index);
        NodeRef {
            text,
            table,
            index,
            end,
            name,
            name_len,
            op,
        }
    }

    #[inline(always)]
    fn span(&self, start: u32, len: u32) -> &'a str {
        &self.text[start as usize..(start + len) as usize]
    }

    /// The exact element name — or, for a leaf, the exact text value —
    /// this node requires.
    #[inline]
    pub fn name(&self) -> &'a str {
        self.span(self.name, self.name_len)
    }

    /// The name's bytes: what covering compares and orders names by,
    /// without checking them for `str` boundaries.
    #[inline(always)]
    pub(crate) fn name_bytes(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.name as usize..][..self.name_len as usize]
    }

    /// The comparison constraining the matched element's text, if any.
    #[inline]
    pub fn comparison(&self) -> Option<Comparison<'a>> {
        self.op.map(|op| {
            let (value, len) = self.table.value(self.index);
            Comparison {
                op,
                value: self.span(value, len),
            }
        })
    }

    /// Child pattern nodes, in normalized order.
    #[inline]
    pub fn children(self) -> impl Iterator<Item = NodeRef<'a>> {
        self.kids()
    }

    /// [`children`](Self::children), as the iterator it is.
    #[inline(always)]
    pub(crate) fn kids(self) -> Children<'a> {
        Children {
            text: self.text,
            table: self.table,
            next: self.index + 1,
            end: self.end,
        }
    }

    /// The node's pre-order index in its query.
    #[inline(always)]
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// The buffer the node's spans are of: the query's, which starts with
    /// its canonical text.
    #[inline(always)]
    pub(crate) fn buffer(&self) -> &'a str {
        self.text
    }

    /// Where the name and the comparison's value, if any, sit in
    /// [`buffer`](Self::buffer): in the canonical text, or in the raw
    /// copy after it for a token the text escapes.
    #[inline]
    pub(crate) fn spans(&self) -> ((u32, u32), Option<(u32, u32)>) {
        let value = self.op.map(|_| self.table.value(self.index));
        ((self.name, self.name_len), value)
    }

    /// The node `offset` places after this one in pre-order: a node of
    /// its subtree while `offset` is below the subtree's size.
    #[inline(always)]
    pub(crate) fn after(&self, offset: u32) -> NodeRef<'a> {
        NodeRef::new(self.text, self.table, self.index + offset)
    }

    /// One past the pre-order index of the last node of its subtree.
    #[inline(always)]
    pub(crate) fn end(&self) -> u32 {
        self.end
    }

    /// The comparison's operator, without reading its value.
    #[inline(always)]
    pub(crate) fn op(&self) -> Option<CmpOp> {
        self.op
    }

    /// True when the node constrains nothing below itself: a pure
    /// name/value leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.end == self.index + 1 && self.op.is_none()
    }

    /// Depth of this subtree (a leaf has depth 1).
    fn depth(self) -> usize {
        1 + self.children().map(NodeRef::depth).max().unwrap_or(0)
    }
}

/// The children of a node: each child's subtree ends where the next
/// child starts.
#[derive(Clone)]
pub(crate) struct Children<'a> {
    text: &'a str,
    table: Table<'a>,
    next: u32,
    end: u32,
}

impl<'a> Children<'a> {
    /// The next child but the one at index `skip`: siblings, so it is
    /// one of them at most.
    #[inline(always)]
    fn next_but(&mut self, skip: u32) -> Option<NodeRef<'a>> {
        match self.next() {
            Some(kid) if kid.index == skip => self.next(),
            kid => kid,
        }
    }
}

impl<'a> Iterator for Children<'a> {
    type Item = NodeRef<'a>;

    #[inline(always)]
    fn next(&mut self) -> Option<NodeRef<'a>> {
        if self.next == self.end {
            return None;
        }
        let child = NodeRef::new(self.text, self.table, self.next);
        self.next = child.end;
        Some(child)
    }
}

impl fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef")
            .field("name", &self.name())
            .field("comparison", &self.comparison())
            .field("children", &self.children().count())
            .finish()
    }
}

impl Ord for NodeRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.name(), self.comparison())
            .cmp(&(other.name(), other.comparison()))
            .then_with(|| self.children().cmp(other.children()))
    }
}

impl PartialOrd for NodeRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NodeRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NodeRef<'_> {}

/// The renderer's output: a frozen query in the making.
pub(crate) struct Frozen {
    nodes: Vec<Node>,
    /// The canonical text, which [`freeze`](Self::freeze) extends into
    /// the whole buffer before the one copy into the query's `Arc`.
    canon: String,
    /// Raw forms of the tokens `canon` shows escaped.
    raw: String,
    /// Whose spans point into `raw`: node index, and whether it is the
    /// node's comparison value (else its name).
    in_raw: Vec<(usize, bool)>,
    /// Where [`freeze`](Self::freeze) packs the node table and trailer.
    table: Vec<u8>,
}

/// Index of no node: render everything.
const NO_SKIP: u32 = u32::MAX;

impl Frozen {
    /// An empty renderer; allocates nothing until written to.
    const fn new() -> Frozen {
        Frozen {
            nodes: Vec::new(),
            canon: String::new(),
            raw: String::new(),
            in_raw: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Renders `root` minus the subtree at index `skip`, leaving its
    /// canonical text in `canon` for [`freeze`](Self::freeze) or a lookup.
    fn render(&mut self, root: NodeRef<'_>, skip: u32) {
        self.nodes.clear();
        self.canon.clear();
        self.raw.clear();
        self.in_raw.clear();
        self.emit(root, skip, false);
    }

    /// Renders the subtree of `node`, minus the subtree rooted at index
    /// `skip`, in canonical syntax, laying its nodes out as it goes.
    /// `relative` suppresses the `/` of the first step inside a predicate
    /// (`[author[...]]`, not `[/author[...]]`).
    fn emit(&mut self, node: NodeRef<'_>, skip: u32, relative: bool) {
        debug_assert!(
            node.children()
                .zip(node.children().skip(1))
                .all(|(a, b)| a < b),
            "siblings must be strictly ascending"
        );
        if !relative {
            self.canon.push('/');
        }
        let out = self.nodes.len();
        self.nodes.push(Node {
            name: 0,
            name_len: 0,
            value: 0,
            value_len: 0,
            end: 0,
            op: node.op,
        });
        let (name, name_len) = self.token(node.name(), out, false);
        // A single comparison-free child continues the path; anything else
        // renders as sorted predicates. This reproduces the paper's style:
        // chains print as `/article/author/last/Smith`, branches as
        // `/article[author[...]][conf/INFOCOM]`.
        let mut kids = node.kids();
        let first = kids.next_but(skip);
        match first {
            Some(only)
                if node.op.is_none()
                    && only.op.is_none()
                    && kids.clone().next_but(skip).is_none() =>
            {
                self.emit(only, skip, false);
            }
            _ => {
                let mut kid = first;
                while let Some(k) = kid {
                    self.canon.push('[');
                    self.emit(k, skip, true);
                    self.canon.push(']');
                    kid = kids.next_but(skip);
                }
            }
        }
        // Each node renders its own comparison, after its predicates,
        // matching the parser which binds `op value` to the last step.
        let (value, value_len) = match node.comparison() {
            Some(cmp) => {
                self.canon.push_str(cmp.op.symbol());
                self.token(cmp.value, out, true)
            }
            None => (0, 0),
        };
        self.nodes[out] = Node {
            name,
            name_len,
            value,
            value_len,
            end: offset(self.nodes.len()),
            op: node.op,
        };
    }

    /// Writes one name or value, quoted and escaped if it has to be, and
    /// returns the span its raw form can be read back from.
    fn token(&mut self, token: &str, at: usize, is_value: bool) -> (u32, u32) {
        let quoted = needs_quoting(token);
        if quoted {
            self.canon.push('"');
        }
        let start = if quoted && token.contains(['\\', '"']) {
            for c in token.chars() {
                if matches!(c, '\\' | '"') {
                    self.canon.push('\\');
                }
                self.canon.push(c);
            }
            self.in_raw.push((at, is_value));
            self.raw.push_str(token);
            self.raw.len() - token.len()
        } else {
            self.canon.push_str(token);
            self.canon.len() - token.len()
        };
        if quoted {
            self.canon.push('"');
        }
        (offset(start), offset(token.len()))
    }

    /// What [`emit`](Self::emit) rendered: `known`'s query when it holds
    /// the canonical text, else [`freeze`](Self::freeze)d and handed to
    /// [`KnownQueries::add`].
    pub(crate) fn known_or_freeze(&mut self, known: &mut (impl KnownQueries + ?Sized)) -> Query {
        known.find(&self.canon).unwrap_or_else(|| {
            let query = self.freeze();
            known.add(&query);
            query
        })
    }

    /// What [`emit`](Self::emit) rendered: `known`'s query when it holds
    /// the canonical text, else [`pack`](Self::pack)ed at the end of
    /// `packed` — a copy into a buffer the caller keeps, not an `Arc`, and
    /// not handed to [`KnownQueries::add`].
    pub(crate) fn known_or_pack(
        &mut self,
        known: &mut (impl KnownQueries + ?Sized),
        packed: &mut PackedQueries,
    ) -> Built {
        match known.find(&self.canon) {
            Some(query) => Built::Frozen(query),
            None => Built::Packed(packed.push(self.pack())),
        }
    }

    /// Copies what [`emit`](Self::emit) rendered, [`pack`](Self::pack)ed,
    /// into the query's `Arc`: one allocation, whatever the size.
    pub(crate) fn freeze(&mut self) -> Query {
        Query(Arc::from(self.pack()))
    }

    /// Finishes what [`emit`](Self::emit) rendered into one buffer — the
    /// canonical text, the raw tokens, the packed nodes and a trailer —
    /// and returns it: a whole query, as [`QueryRef`] reads one.
    fn pack(&mut self) -> &str {
        let canon_len = offset(self.canon.len());
        let text_len = offset(self.canon.len() + self.raw.len());
        let count = offset(self.nodes.len());
        for &(at, is_value) in &self.in_raw {
            let node = &mut self.nodes[at];
            if is_value {
                node.value += canon_len;
            } else {
                node.name += canon_len;
            }
        }
        let width = width_for(text_len, count);
        let table = &mut self.table;
        table.clear();
        if width == NARROW {
            pack_table::<NARROW, { record_len(NARROW) }>(&self.nodes, table);
        } else {
            pack_table::<WIDE, { record_len(WIDE) }>(&self.nodes, table);
        }
        push_wide(table, canon_len);
        push_wide(table, count);
        table.push(width as u8);
        self.canon.push_str(&self.raw);
        self.canon
            .push_str(std::str::from_utf8(table).expect("7-bit digits are ASCII"));
        &self.canon
    }
}

/// Appends the records of `nodes`, the root's last (see [`Table`]).
fn pack_table<const W: usize, const R: usize>(nodes: &[Node], out: &mut Vec<u8>) {
    out.reserve(nodes.len() * R);
    for node in nodes.iter().rev() {
        let mut record = [0; R];
        node.pack_as::<W, R>(&mut record);
        out.extend_from_slice(&record);
    }
}

/// The field width of a table over `text` bytes and `nodes` nodes: every
/// span and `end` it packs is at most the larger.
fn width_for(text: u32, nodes: u32) -> usize {
    if text.max(nodes) < 1 << (7 * NARROW) {
        NARROW
    } else {
        WIDE
    }
}

/// Packs the normalized draft rooted at node 0 into `table`, every span
/// pointing into the draft's own text: the renderer's input, read through
/// the same [`NodeRef`] as a frozen query.
fn stage<'a>(draft: &'a Draft, table: &'a mut Vec<u8>) -> NodeRef<'a> {
    let width = width_for(offset(draft.buffer().len()), offset(draft.len()));
    table.clear();
    table.resize(draft.len() * record_len(width), 0);
    if width == NARROW {
        stage_subtree::<NARROW, { record_len(NARROW) }>(draft, 0, table, 0);
    } else {
        stage_subtree::<WIDE, { record_len(WIDE) }>(draft, 0, table, 0);
    }
    let table = Table {
        bytes: table,
        record: record_len(width),
    };
    NodeRef::new(draft.buffer(), table, 0)
}

/// Writes the records of the subtree of `id`, node `index`, in `W`-byte
/// fields, and returns its `end`.
fn stage_subtree<const W: usize, const R: usize>(
    draft: &Draft,
    id: NodeId,
    table: &mut [u8],
    index: u32,
) -> u32 {
    let n = draft.node(id);
    let (value, value_len) = n.comparison.map_or((0, 0), |(_, s)| (s.start, s.len));
    let mut node = Node {
        name: n.name.start,
        name_len: n.name.len,
        value,
        value_len,
        end: index + 1,
        op: n.comparison.map(|(op, _)| op),
    };
    for child in draft.children(id) {
        node.end = stage_subtree::<W, R>(draft, child, table, node.end);
    }
    let at = table.len() - (index as usize + 1) * R;
    node.pack_as::<W, R>(&mut table[at..][..R]);
    node.end
}

/// Per-thread buffers of construction, so that building a query allocates
/// only what the query keeps: the draft the parser,
/// [`Query::most_specific`] and [`Query::build_with`] write into, and the
/// freeze step's sorting room, staged table and renderer.
struct Scratch {
    draft: Draft,
    order: Vec<NodeId>,
    staged: Vec<u8>,
    out: Frozen,
}

impl Scratch {
    /// Empty buffers; allocates nothing until written to.
    const fn new() -> Scratch {
        Scratch {
            draft: Draft::new(),
            order: Vec::new(),
            staged: Vec::new(),
            out: Frozen::new(),
        }
    }
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const { Cell::new(Scratch::new()) };
}

/// Runs `f` on this thread's construction buffers, moved out of their slot
/// for the call: code `f` calls back into (a builder's closure, a
/// [`KnownQueries`] table) may build queries of its own, which then work
/// on fresh buffers instead of finding these borrowed.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    let mut scratch = SCRATCH.take();
    let result = f(&mut scratch);
    SCRATCH.set(scratch);
    result
}

/// Normalizes the draft rooted at node 0 and renders its canonical text
/// exactly once, into `out`.
fn render_draft(
    draft: &mut Draft,
    order: &mut Vec<NodeId>,
    staged: &mut Vec<u8>,
    out: &mut Frozen,
) -> Result<(), TooDeep> {
    order.clear();
    draft.normalize(0, MAX_DEPTH, order)?;
    out.render(stage(draft, staged), NO_SKIP);
    Ok(())
}

/// A normalized query over descriptors.
///
/// Create queries with [`Query::parse`](crate::parse_query),
/// [`QueryBuilder`](crate::QueryBuilder), or
/// [`Query::most_specific`](crate::Query::most_specific); all three produce
/// the same canonical representation, so equal queries are `==` and print
/// identically.
///
/// A query is frozen at construction into one `Arc<str>`, its only heap
/// allocation: `Query::clone` is one reference-count bump, and whoever
/// holds the same query — a request script, a memo table, a shortcut
/// cache — shares that one copy. The buffer starts with the canonical
/// text, so `Display`, [`canonical_text`](Query::canonical_text),
/// equality, hashing and ordering read it instead of walking anything;
/// the DHT key `h(q)` is a hash of bytes already in memory. After it come
/// the raw forms of the tokens the text shows escaped, the pre-order node
/// table packed into 7-bit ASCII fields (two bytes a field while the text
/// is under 16 KiB, four past it) and laid out back from its end, so the
/// root's record comes last, and a trailer: the canonical text's length,
/// the node count and the field width. The Figure 1 MSD, 89 bytes of text
/// and 14 nodes, keeps 272 bytes in all. Every offset is a 28-bit field,
/// so building a query whose text passes 256 MiB panics.
///
/// # Examples
///
/// ```
/// use p2p_index_xpath::Query;
///
/// // Predicate order does not matter after normalization:
/// let a: Query = "/article[conf/INFOCOM][author/last/Smith]".parse()?;
/// let b: Query = "/article[author/last/Smith][conf/INFOCOM]".parse()?;
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), b.to_string());
/// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
/// ```
#[derive(Clone)]
pub struct Query(Arc<str>);

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Query")
            .field(&self.canonical_text())
            .finish()
    }
}

/// The normalized canonical rendering is injective (guaranteed by the
/// parse-roundtrip property tests), so the canonical text is a faithful
/// proxy for the whole tree: comparing/hashing it gives exactly the
/// tree-equality semantics, without traversals or allocations.
impl PartialEq for Query {
    fn eq(&self, other: &Query) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.canonical_text() == other.canonical_text()
    }
}

impl Eq for Query {}

impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_text().hash(state);
    }
}

impl PartialOrd for Query {
    fn partial_cmp(&self, other: &Query) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Query {
    fn cmp(&self, other: &Query) -> Ordering {
        self.canonical_text().cmp(other.canonical_text())
    }
}

impl Query {
    /// Normalizes a draft (its root is node 0) and freezes it, rendering
    /// the canonical text exactly once. The draft is left sorted.
    pub(crate) fn from_draft(draft: &mut Draft) -> Result<Query, TooDeep> {
        with_scratch(|scratch| {
            let Scratch {
                order, staged, out, ..
            } = scratch;
            render_draft(draft, order, staged, out)?;
            Ok(out.freeze())
        })
    }

    /// Lets `write` build a query in this thread's draft, renders it, and
    /// hands the renderer to `finish`, which takes the query from a table
    /// of known queries or freezes or packs it: the parser's,
    /// [`most_specific`](Query::most_specific)'s and
    /// [`build_with`](Query::build_with)'s path, which allocates nothing
    /// but what `finish` keeps. The outer error is `write`'s own.
    pub(crate) fn in_scratch<E, T>(
        write: impl FnOnce(&mut Draft) -> Result<(), E>,
        finish: impl FnOnce(&mut Frozen) -> T,
    ) -> Result<Result<T, TooDeep>, E> {
        with_scratch(|scratch| {
            let Scratch {
                draft,
                order,
                staged,
                out,
            } = scratch;
            draft.clear();
            write(draft)?;
            Ok(render_draft(draft, order, staged, out).map(|()| finish(out)))
        })
    }

    /// The borrowed view of this query's buffer, which every read method
    /// forwards to.
    #[inline(always)]
    pub fn view(&self) -> QueryRef<'_> {
        QueryRef(&self.0)
    }

    /// The root pattern node.
    #[inline]
    pub fn root(&self) -> NodeRef<'_> {
        self.view().root()
    }

    /// The root element name this query requires.
    pub fn root_name(&self) -> &str {
        self.view().root_name()
    }

    /// Number of pattern nodes.
    pub fn size(&self) -> usize {
        self.view().size()
    }

    /// Pattern depth (`/article` has depth 1).
    pub fn depth(&self) -> usize {
        self.view().depth()
    }

    /// The canonical text; equal to `self.to_string()` and suitable as the
    /// hash input `h(q)`. Rendered at construction — this is a borrow, not
    /// a render, so hot paths can read lengths and hash inputs without
    /// allocating.
    #[inline]
    pub fn canonical_text(&self) -> &str {
        self.view().canonical_text()
    }

    /// The top-level branches (children of the root).
    pub fn top_branches(&self) -> impl Iterator<Item = NodeRef<'_>> {
        self.view().top_branches()
    }

    /// This query without the top-level branch rooted at node `branch`.
    /// Every level stays sorted and deduplicated when a subtree goes, so
    /// this is one pass over the frozen nodes: no tree, no sort.
    fn without(&self, branch: u32) -> Query {
        with_scratch(|scratch| {
            scratch.out.render(self.root(), branch);
            scratch.out.freeze()
        })
    }

    /// A copy of this query with top-level branch `index` removed — the
    /// one-step *generalization* used when a query is not indexed (§IV-B:
    /// "looking for a query qᵢ such that qᵢ ⊒ q").
    ///
    /// Returns `None` if `index` is out of range.
    #[must_use]
    pub fn drop_top_branch(&self, index: usize) -> Option<Query> {
        let branch = self.top_branches().nth(index)?;
        Some(self.without(branch.index))
    }

    /// All one-step generalizations: each top-level branch dropped in turn.
    /// Broadest-first exploration of these reaches every indexed ancestor.
    pub fn generalizations(&self) -> Vec<Query> {
        let mut out = Vec::with_capacity(self.top_branches().count());
        self.generalizations_into(&mut out);
        out
    }

    /// Appends all one-step generalizations to `out` — the sibling of
    /// [`generalizations`](Self::generalizations) for hot loops that keep a
    /// reusable frontier buffer. It is
    /// [`generalizations_known`](Self::generalizations_known) with a table
    /// that holds nothing, so every generalization is frozen anew.
    pub fn generalizations_into(&self, out: &mut Vec<Query>) {
        self.generalizations_known(&mut (), out);
    }

    /// Appends all one-step generalizations to `out`, in
    /// [`generalizations`](Self::generalizations) order, taking each from
    /// `known` when it holds the generalization's canonical text. Each
    /// text is rendered into this thread's buffers, and only a text
    /// `known` lacks is frozen — then handed to [`KnownQueries::add`] — so
    /// a generalization the table holds costs a lookup and a refcount
    /// bump, not an allocation.
    pub fn generalizations_known(
        &self,
        known: &mut (impl KnownQueries + ?Sized),
        out: &mut Vec<Query>,
    ) {
        with_scratch(|scratch| {
            for branch in self.top_branches() {
                scratch.out.render(self.root(), branch.index);
                out.push(scratch.out.known_or_freeze(known));
            }
        });
    }
}

/// A borrowed view of a packed query: the one buffer a [`Query`] keeps in
/// its `Arc` — canonical text, raw tokens, node table and trailer — read
/// wherever it lives, in a query ([`Query::view`]) or in a caller's
/// [`PackedQueries`] ([`PackedQueries::get`]). The buffer describes
/// itself, so the view is a complete query: every read method is defined
/// here, once, and [`Query`]'s forward to it. It is `Copy`, one fat
/// pointer, and [`to_query`](Self::to_query) is its one allocation.
///
/// Equality, hashing, ordering and `Display` read the canonical text, as
/// [`Query`]'s do.
#[derive(Clone, Copy)]
pub struct QueryRef<'a>(&'a str);

impl<'a> QueryRef<'a> {
    /// The trailer's `k`th number: the canonical length (0) or the node
    /// count (1).
    #[inline(always)]
    fn trailer(self, k: usize) -> usize {
        let bytes = self.0.as_bytes();
        wide_value(load32(bytes, bytes.len() - TRAILER + k * WIDE)) as usize
    }

    /// The packed node table, which ends where the trailer starts.
    #[inline(always)]
    fn table(self) -> Table<'a> {
        let bytes = self.0.as_bytes();
        Table {
            bytes: &bytes[..bytes.len() - TRAILER],
            record: record_len(usize::from(bytes[bytes.len() - 1])),
        }
    }

    /// The root pattern node.
    #[inline]
    pub fn root(self) -> NodeRef<'a> {
        NodeRef::new(self.0, self.table(), 0)
    }

    /// The root element name this query requires.
    pub fn root_name(self) -> &'a str {
        self.root().name()
    }

    /// Number of pattern nodes.
    pub fn size(self) -> usize {
        self.trailer(1)
    }

    /// Pattern depth (`/article` has depth 1).
    pub fn depth(self) -> usize {
        self.root().depth()
    }

    /// The canonical text: the hash input `h(q)`, a borrow of the buffer.
    #[inline]
    pub fn canonical_text(self) -> &'a str {
        &self.0[..self.trailer(0)]
    }

    /// The top-level branches (children of the root).
    pub fn top_branches(self) -> impl Iterator<Item = NodeRef<'a>> {
        self.root().children()
    }

    /// The query this view reads, frozen: the buffer copied into an `Arc`,
    /// one allocation.
    pub fn to_query(self) -> Query {
        Query(Arc::from(self.0))
    }
}

impl fmt::Debug for QueryRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("QueryRef")
            .field(&self.canonical_text())
            .finish()
    }
}

impl fmt::Display for QueryRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_text())
    }
}

impl PartialEq for QueryRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_text() == other.canonical_text()
    }
}

impl Eq for QueryRef<'_> {}

impl Hash for QueryRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_text().hash(state);
    }
}

impl PartialOrd for QueryRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueryRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_text().cmp(other.canonical_text())
    }
}

/// Queries packed back to back into one buffer the caller keeps: where
/// [`Query::pack_with_known`] puts a query its table lacks instead of
/// freezing it into an `Arc` of its own. A query is read back through
/// [`get`](Self::get) as a [`QueryRef`]. Cleared and refilled, a warm
/// buffer packs without allocating.
#[derive(Debug, Clone, Default)]
pub struct PackedQueries(String);

/// Where one query sits in a [`PackedQueries`]: valid for the buffer that
/// packed it, until that buffer is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedSpan {
    start: usize,
    end: usize,
}

impl PackedQueries {
    /// An empty buffer; allocates nothing until a query is packed.
    pub const fn new() -> PackedQueries {
        PackedQueries(String::new())
    }

    /// Appends one packed query and returns its span.
    fn push(&mut self, packed: &str) -> PackedSpan {
        let start = self.0.len();
        self.0.push_str(packed);
        PackedSpan {
            start,
            end: self.0.len(),
        }
    }

    /// The query packed at `span`.
    ///
    /// # Panics
    ///
    /// May panic, or read a query that was never packed, if `span` came
    /// from another buffer or from before a [`clear`](Self::clear).
    #[inline]
    pub fn get(&self, span: PackedSpan) -> QueryRef<'_> {
        QueryRef(&self.0[span.start..span.end])
    }

    /// Whether nothing is packed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drops every packed query and keeps the room.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// A query a packing builder ([`Query::pack_with_known`]) made: the
/// table's frozen copy, or a span of the caller's [`PackedQueries`].
#[derive(Debug, Clone)]
pub enum Built {
    /// A frozen query: the copy the table of known queries held (or any
    /// query the caller froze itself).
    Frozen(Query),
    /// A query the table lacked, packed into the caller's buffer.
    Packed(PackedSpan),
}

impl Built {
    /// The query, read through `packed` if it was packed there.
    #[inline]
    pub fn view<'a>(&'a self, packed: &'a PackedQueries) -> QueryRef<'a> {
        match self {
            Built::Frozen(query) => query.view(),
            Built::Packed(span) => packed.get(*span),
        }
    }
}

/// A table of queries by canonical text, which
/// [`Query::generalizations_known`], [`Query::build_with_known`] and
/// [`Query::most_specific_known`] ask before they freeze a query: a
/// client's known queries, say, so that a warm client derives the
/// generalizations it derived before, and writes the index queries it
/// read before, without allocating.
pub trait KnownQueries {
    /// The query whose canonical text is `text`, if the table holds it.
    fn find(&mut self, text: &str) -> Option<Query>;

    /// Takes in `query`, just frozen because [`find`](Self::find) did not
    /// hold its text. A table may decline it.
    fn add(&mut self, query: &Query);
}

/// The table that holds nothing: every query is frozen.
impl KnownQueries for () {
    fn find(&mut self, _text: &str) -> Option<Query> {
        None
    }

    fn add(&mut self, _query: &Query) {}
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::write_query;
    use crate::QueryBuilder;
    use p2p_index_testkit::{ascii, for_each_case, Rng, StdRng};

    /// Freezes the draft `build` writes (its first node is the root).
    fn frozen(build: impl FnOnce(&mut Draft)) -> Query {
        let mut draft = Draft::new();
        build(&mut draft);
        Query::from_draft(&mut draft).expect("test trees are shallow")
    }

    /// A node named `name` under `parent`.
    fn node(d: &mut Draft, parent: Option<NodeId>, name: &str) -> NodeId {
        let name = d.push_text(name);
        d.add(parent, name)
    }

    /// A path of nodes under `parent`; returns the last.
    fn chain(d: &mut Draft, parent: Option<NodeId>, names: &[&str]) -> NodeId {
        names
            .iter()
            .fold(parent, |at, name| Some(node(d, at, name)))
            .expect("a non-empty path")
    }

    #[test]
    fn cmp_op_numeric_and_lexicographic() {
        // `=` compares the text, numbers included: no spelling of a
        // number equals another.
        assert!(CmpOp::Eq.eval("100", "100"));
        assert!(!CmpOp::Eq.eval("0100", "100"));
        assert!(!CmpOp::Eq.eval(" 1996", "1996.0"));
        assert!(CmpOp::Eq.eval("NaN", "NaN"));
        assert!(CmpOp::Eq.eval("apple", "apple")); // string equality
        assert!(!CmpOp::Eq.eval("apple", "Apple"));
        assert!(!CmpOp::Eq.eval("0100", "x100"));
        // `^=` and `*=` read the raw strings, numbers included.
        assert!(CmpOp::StartsWith.eval("1996", "19"));
        assert!(!CmpOp::StartsWith.eval("0100", "1"));
        assert!(CmpOp::Contains.eval("Adaptive Routing", "Rout"));
        assert!(!CmpOp::Contains.eval("Routing", "routing"));
    }

    #[test]
    fn display_chain_as_path() {
        let q = frozen(|d| {
            chain(d, None, &["article", "author", "last", "Smith"]);
        });
        assert_eq!(q.to_string(), "/article/author/last/Smith");
    }

    #[test]
    fn display_branches_as_predicates() {
        let q = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["title", "TCP"]);
            let author = node(d, Some(article), "author");
            chain(d, Some(author), &["first", "John"]);
            chain(d, Some(author), &["last", "Smith"]);
        });
        // Children sort deterministically (author < title).
        assert_eq!(
            q.to_string(),
            "/article[author[first/John][last/Smith]][title/TCP]"
        );
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let a = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["year", "1996"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
        });
        let b = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["conf", "INFOCOM"]);
            chain(d, Some(article), &["year", "1996"]);
        });
        assert_eq!(a, b);
        assert_eq!(a.size(), 5);
    }

    #[test]
    fn normalization_dedups_whole_subtrees_only() {
        // Equal after their own children sort; unequal below the first
        // level.
        let q = frozen(|d| {
            let root = node(d, None, "r");
            for (x, y) in [("x", "y"), ("y", "x"), ("x", "z")] {
                let a = node(d, Some(root), "a");
                node(d, Some(a), x);
                node(d, Some(a), y);
            }
        });
        assert_eq!(q.to_string(), "/r[a[x][y]][a[x][z]]");
    }

    #[test]
    fn quoting_in_display() {
        let q = frozen(|d| {
            chain(d, None, &["article", "title", "A Space Odyssey"]);
        });
        assert_eq!(q.to_string(), "/article/title/\"A Space Odyssey\"");
    }

    #[test]
    fn quoting_escapes_quotes_and_backslashes() {
        let q = frozen(|d| {
            chain(d, None, &["t", "say \"hi\" \\ bye"]);
        });
        assert_eq!(q.to_string(), r#"/t/"say \"hi\" \\ bye""#);
        // `*` is no bare character, so a name `*` is quoted like any
        // other punctuation.
        let star = frozen(|d| {
            chain(d, None, &["a", "*"]);
        });
        assert_eq!(star.to_string(), r#"/a/"*""#);
    }

    #[test]
    fn comparison_renders_in_predicate() {
        let q = frozen(|d| {
            let year = chain(d, None, &["article", "year"]);
            let value = d.push_text("1990");
            d.set_comparison(year, CmpOp::StartsWith, value);
        });
        assert_eq!(q.to_string(), "/article[year^=1990]");
    }

    #[test]
    fn single_child_with_comparison_is_predicate_not_path() {
        let q = frozen(|d| {
            let year = chain(d, None, &["article", "year"]);
            let value = d.push_text("2000");
            d.set_comparison(year, CmpOp::Eq, value);
        });
        assert_eq!(q.to_string(), "/article[year=2000]");
    }

    #[test]
    fn drop_top_branch_generalizes() {
        let q = frozen(|d| {
            let article = node(d, None, "article");
            chain(d, Some(article), &["author", "last", "Smith"]);
            chain(d, Some(article), &["conf", "INFOCOM"]);
        });
        let gens = q.generalizations();
        assert_eq!(gens.len(), 2);
        assert!(gens
            .iter()
            .any(|g| g.to_string() == "/article/conf/INFOCOM"));
        assert!(gens
            .iter()
            .any(|g| g.to_string() == "/article/author/last/Smith"));
        assert!(q.drop_top_branch(5).is_none());
    }

    #[test]
    fn size_and_depth() {
        let q = frozen(|d| {
            chain(d, None, &["article", "author", "last", "Smith"]);
        });
        assert_eq!(q.size(), 4);
        assert_eq!(q.depth(), 4);
        assert_eq!(
            frozen(|d| {
                node(d, None, "a");
            })
            .depth(),
            1
        );
    }

    #[test]
    fn root_name() {
        let q = frozen(|d| {
            node(d, None, "article");
        });
        assert_eq!(q.root_name(), "article");
        assert_eq!(q.root().name(), "article");
    }

    /// The property suite's queries (`tests/query_properties.rs`): up to
    /// three values and at most one comparison, some values quoted and
    /// some escaped.
    fn arb_query(rng: &mut StdRng) -> Query {
        const FIELDS: [&str; 6] = [
            "author/first",
            "author/last",
            "title",
            "conf",
            "year",
            "journal/volume",
        ];
        const OPS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::StartsWith, CmpOp::Contains];
        let field = |rng: &mut StdRng| FIELDS[rng.gen_range(0..FIELDS.len())];
        let value = |rng: &mut StdRng| {
            let alpha = [b'A'..=b'Z', b'a'..=b'z'];
            let alnum = [b'A'..=b'Z', b'a'..=b'z', b'0'..=b'9'];
            match rng.gen_range(0..4usize) {
                0 => ascii(rng, &alpha, 1..=1) + &ascii(rng, &alnum, 0..=10),
                1 => ascii(rng, &[b'0'..=b'9'], 1..=4),
                2 => ascii(rng, &alpha, 1..=5) + " " + &ascii(rng, &alpha, 1..=5),
                _ => ascii(rng, &alpha, 1..=3) + "\"" + &ascii(rng, &alpha, 1..=3),
            }
        };
        let mut b = QueryBuilder::new("article");
        for _ in 0..rng.gen_range(0..4usize) {
            b = b.value(field(rng), value(rng));
        }
        for _ in 0..rng.gen_range(0..2usize) {
            let op = OPS[rng.gen_range(0..OPS.len())];
            b = b.compare(field(rng), op, value(rng));
        }
        b.build()
    }

    /// How deep the draft nests below and at `id`.
    fn draft_depth(d: &Draft, id: NodeId) -> usize {
        1 + d.children(id).map(|c| draft_depth(d, c)).max().unwrap_or(0)
    }

    /// Walks `node` and the draft node `id` in step, asserting that every
    /// read of the packed record answers what the draft holds; returns the
    /// subtree's node count.
    fn walks_alike(node: NodeRef<'_>, d: &Draft, id: NodeId) -> usize {
        let n = d.node(id);
        assert_eq!(node.name(), d.text(n.name));
        assert_eq!(
            node.comparison().map(|c| (c.op, c.value)),
            n.comparison.map(|(op, value)| (op, d.text(value)))
        );
        let kids: Vec<NodeId> = d.children(id).collect();
        assert_eq!(node.is_leaf(), kids.is_empty() && n.comparison.is_none());
        assert_eq!(node.children().count(), kids.len());
        let size = 1 + node
            .children()
            .zip(kids)
            .map(|(child, kid)| walks_alike(child, d, kid))
            .sum::<usize>();
        assert_eq!(node.end as usize, node.index as usize + size);
        assert_eq!(node.depth(), draft_depth(d, id));
        size
    }

    /// Parses `text` into a draft, freezes it, and walks the frozen query
    /// against the draft, which freezing left normalized.
    fn packs_faithfully(text: &str) -> Query {
        let mut draft = Draft::new();
        write_query(text, &mut draft).expect("the text parses");
        let q = Query::from_draft(&mut draft).expect("within the depth limit");
        assert_eq!(q.size(), walks_alike(q.root(), &draft, 0));
        assert_eq!(q.canonical_text(), text);
        q
    }

    #[test]
    fn every_packed_walk_equals_the_draft_it_was_staged_from() {
        for_each_case(|rng| {
            let q = packs_faithfully(arb_query(rng).canonical_text());
            assert!(!q.root().table.wide(), "{q}");
        });
        // Past 16 KiB of text every field is four bytes wide, the spans of
        // the raw copy of an escaped value included.
        let long = "x".repeat(1 << 14);
        let text =
            format!(r#"/article[author[first/A][last/"B \"{long}\""]][conf^={long}][title/TCP]"#);
        let q = packs_faithfully(&text);
        assert!(q.root().table.wide());
        assert_eq!(q.size(), 9);
    }

    #[test]
    #[should_panic(expected = "under 2^28 (256 MiB)")]
    fn an_offset_past_four_digits_is_refused() {
        assert_eq!(offset((1 << 28) - 1), (1 << 28) - 1);
        offset(1 << 28);
    }

    #[test]
    fn a_draft_deeper_than_the_limit_is_a_typed_error() {
        let mut draft = Draft::new();
        (0..=MAX_DEPTH).fold(None, |at, _| Some(node(&mut draft, at, "a")));
        assert_eq!(Query::from_draft(&mut draft).unwrap_err(), TooDeep);
    }
}
