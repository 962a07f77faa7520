//! A query written as a splice against a query that covers it.
//!
//! An index entry under `h(q)` names a more specific query `qᵢ` (§IV-A),
//! and `qᵢ` is nearly always `q` plus branches: `q`'s nodes, each where
//! `q` has it, with subtrees added under some of them. Its canonical text
//! then repeats all of `q`'s. A splice spells only the added subtrees,
//! each named against `q`'s pre-order nodes, so what the two share is kept
//! once — in `q` itself, which whoever reads `h(q)` already holds.
//!
//! The format, every number an unsigned LEB128 varint:
//!
//! ```text
//! splice := length record*
//! record := node-delta  slot·2 + has-op  fragment-length  fragment
//! ```
//!
//! `length` is the byte length of `qᵢ`'s canonical text. A record adds one
//! subtree under `q`'s node `node` (the previous record's node plus the
//! delta; the first counts from 0), before that node's child number `slot`
//! (its child count puts it last). `fragment` is the subtree's canonical
//! text as it reads inside a predicate (`first/John`, not `[first/John]`),
//! and `has-op` says whether its root carries a comparison, which decides
//! how it renders when it is its parent's only child. Records come in
//! pre-order of their nodes and, within a node, in slot order.
//!
//! [`decode`] rebuilds `qᵢ`'s canonical text by walking `q`'s packed nodes
//! with the records merged in: nothing is parsed or frozen, and the
//! caller's buffer is the only one written. It is total: bytes that are
//! no splice, a record naming a node or slot `q` lacks, records out of
//! order, or a text whose length is not `length` are a [`SpliceError`],
//! never a panic. A well-formed splice of damaged fragments rebuilds a
//! text that is not canonical; parsing it is then what reports it.

use std::error::Error;
use std::fmt;

use crate::ast::{needs_quoting, NodeRef, QueryRef};

/// A splice [`decode`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceError(&'static str);

impl fmt::Display for SpliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed splice: {}", self.0)
    }
}

impl Error for SpliceError {}

/// Appends `to` as a splice against `from` to `out` and returns `true`,
/// or leaves `out` as it was and returns `false` when `to` is not `from`
/// plus branches in `from`'s order. Deterministic: the same pair always
/// writes the same bytes, so a remove can name exactly what a put stored.
///
/// The embedding is found greedily: each child of a node of `from` takes
/// the first child of its image that it embeds into, which finds one
/// whenever there is one. A child of `from` whose extension sorts before
/// an earlier sibling's leaves no order-keeping embedding, and `to` is
/// then written in full by the caller.
pub fn encode(from: QueryRef<'_>, to: QueryRef<'_>, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    put_varint(out, to.canonical_text().len() as u64);
    let mut last = 0;
    let (f, t) = (from.root(), to.root());
    let canon = to.canonical_text().len();
    if same_label(f, t) && records((f, t), canon, &mut last, out) {
        return true;
    }
    out.truncate(start);
    false
}

/// The canonical length a splice leads with: what its query's text
/// measures, read without `from`. `None` if the splice is cut short.
pub fn canonical_len(splice: &[u8]) -> Option<usize> {
    let mut cursor = Cursor(splice);
    cursor.varint().ok().and_then(|n| usize::try_from(n).ok())
}

/// Appends to `out` the canonical text of the query `splice` spells
/// against `from` ([`encode`]'s inverse).
///
/// # Errors
///
/// [`SpliceError`] if `splice` is cut short or malformed, names a node
/// past `from`'s end or a slot past a node's children, holds records out
/// of order or a fragment that is not UTF-8, or rebuilds a text of
/// another length than it leads with. `out` then holds a partial text.
pub fn decode(from: QueryRef<'_>, splice: &[u8], out: &mut String) -> Result<(), SpliceError> {
    let mut cursor = Cursor(splice);
    let length = cursor.varint()?;
    let mut records = Records::new(cursor)?;
    let start = out.len();
    let canon = from.canonical_text().len();
    render(from.root(), (canon, false), &mut records, out)?;
    if records.next.is_some() {
        return Err(SpliceError("a record names a node past the query's end"));
    }
    if (out.len() - start) as u64 != length {
        return Err(SpliceError(
            "the text is not the length the splice leads with",
        ));
    }
    Ok(())
}

/// Do the two nodes carry the same name and comparison?
fn same_label(f: NodeRef<'_>, t: NodeRef<'_>) -> bool {
    f.name_bytes() == t.name_bytes()
        && f.op() == t.op()
        && (f.op().is_none() || f.comparison() == t.comparison())
}

/// The greedy embedding of `f`'s children into `t`'s: each child of `f`
/// takes the first child of `t` after the last one taken that it embeds
/// into, which finds an embedding whenever there is one. `visit` sees each
/// child of `t` in order with the child of `f` that took it, if any, and
/// stops the walk by returning `false`. `false` also if a child of `f`
/// finds no image.
///
/// Siblings are sorted, so equal labels are neighbours: a child of `t`
/// whose next sibling's label differs is the last one a child of `f` with
/// its label could take, and is taken unchecked — whoever walks into the
/// pair (`visit`) finds out whether it embeds. Only within a run of equal
/// labels — say several authors — does a child ask [`embeds`] first.
fn walk<'a>(
    f: NodeRef<'a>,
    t: NodeRef<'a>,
    mut visit: impl FnMut(NodeRef<'a>, Option<NodeRef<'a>>) -> bool,
) -> bool {
    let mut fkids = f.kids();
    let mut fc = fkids.next();
    let mut tkids = t.kids();
    while let Some(tc) = tkids.next() {
        let taken = fc.filter(|&fc| {
            same_label(fc, tc)
                && (!tkids
                    .clone()
                    .next()
                    .is_some_and(|next| same_label(next, tc))
                    || embeds(fc, tc))
        });
        if taken.is_some() {
            fc = fkids.next();
        }
        if !visit(tc, taken) {
            return false;
        }
    }
    fc.is_none()
}

/// Are the subtrees of `f` and `t` one tree: node by node in pre-order,
/// the same label and the same subtree size?
fn same_subtree(f: NodeRef<'_>, t: NodeRef<'_>) -> bool {
    let size = f.end() - f.index();
    let shape = |n: NodeRef<'_>| n.end() - n.index();
    size == shape(t)
        && (0..size).all(|i| {
            let (a, b) = (f.after(i), t.after(i));
            same_label(a, b) && shape(a) == shape(b)
        })
}

/// Does the subtree of `f` embed into that of `t`, children in order?
fn embeds(f: NodeRef<'_>, t: NodeRef<'_>) -> bool {
    same_label(f, t) && walk(f, t, |tc, fc| fc.is_none_or(|fc| embeds(fc, tc)))
}

/// Writes the records of `f`, embedded at `t` (of a query whose canonical
/// text is `canon` bytes), and of its subtree: first each child of `t` no
/// child of `f` takes, then, child by child, what each taken one adds.
/// `false` if the subtree of `f` does not embed there.
fn records(
    (f, t): (NodeRef<'_>, NodeRef<'_>),
    canon: usize,
    last: &mut u32,
    out: &mut Vec<u8>,
) -> bool {
    let mut slot = 0u64;
    let own = walk(f, t, |tc, taken| {
        if taken.is_some() {
            slot += 1;
            return true;
        }
        put_varint(out, u64::from(f.index() - *last));
        *last = f.index();
        put_varint(out, slot << 1 | u64::from(tc.op().is_some()));
        let at = out.len();
        out.push(0);
        render(tc, (canon, true), &mut Records::none(), out).expect("no records, no error");
        put_length_at(out, at);
        true
    });
    // The same walk again, now into each pair it takes that is not one
    // subtree on both sides.
    own && walk(f, t, |tc, taken| {
        taken.is_none_or(|fc| same_subtree(fc, tc) || records((fc, tc), canon, last, out))
    })
}

/// Where canonical text is written: the decoder's `String`, or the
/// encoder's byte buffer, whose fragments are the same text.
trait Text {
    fn put(&mut self, s: &str);
}

impl Text for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Text for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// Writes one name or value as the canonical text spells it: bare, or
/// quoted with `\` and `"` escaped.
fn put_token(out: &mut impl Text, token: &str) {
    if !needs_quoting(token) {
        return out.put(token);
    }
    out.put("\"");
    for piece in token.split_inclusive(['\\', '"']) {
        match piece.char_indices().last() {
            Some((at, c @ ('\\' | '"'))) => {
                out.put(&piece[..at]);
                out.put(if c == '\\' { "\\\\" } else { "\\\"" });
            }
            _ => out.put(piece),
        }
    }
    out.put("\"");
}

/// Writes the token at `span` of a query's `buffer`, whose canonical
/// text is its first `canon` bytes, as that text spells it: copied from
/// the text when the span lies in it — with its quotes, if the text
/// quotes it — and re-quoted otherwise (a token the text escapes is
/// spanned in the raw copy after it).
fn put_spelled(out: &mut impl Text, buffer: &str, canon: usize, (start, len): (u32, u32)) {
    let (start, end) = (start as usize, (start + len) as usize);
    let token = &buffer[start..end];
    let quoted = start
        .checked_sub(1)
        .filter(|&at| buffer.as_bytes()[at] == b'"');
    match quoted {
        _ if end > canon => put_token(out, token),
        Some(at) => out.put(&buffer[at..end + 1]),
        None => out.put(token),
    }
}

/// The subtree of `node` as the canonical text of its query (the first
/// `canon` bytes of its buffer) spells it inside a predicate: from its
/// name to the `]` that closes it, or to the end of the text when it
/// continues its parent's path. `None` when its name is a token the text
/// escapes, whose span is in the raw copy, not in the text.
fn spelled(node: NodeRef<'_>, canon: usize) -> Option<&str> {
    let ((start, len), _) = node.spans();
    let text = &node.buffer()[..canon];
    let start = start as usize;
    if start + len as usize > canon {
        return None;
    }
    let bytes = text.as_bytes();
    let start = start - usize::from(start > 0 && bytes[start - 1] == b'"');
    let (mut at, mut depth) = (start, 0u32);
    while at < canon {
        match bytes[at] {
            b'"' => {
                // A quoted token: skip to its closing quote, past escapes.
                at += 1;
                while at < canon && bytes[at] != b'"' {
                    at += 1 + usize::from(bytes[at] == b'\\');
                }
            }
            b'[' => depth += 1,
            b']' if depth == 0 => break,
            b']' => depth -= 1,
            _ => {}
        }
        at += 1;
    }
    Some(&text[start..at.min(canon)])
}

/// Renders the subtree of `node` — of a query whose canonical text is the
/// first `canon` bytes of its buffer — in canonical syntax, with the
/// subtrees `records` add under its nodes merged in. This is the layout
/// rule of the renderer that freezes queries: a comparison-free node
/// whose one child is comparison-free continues the path (`/child`), and
/// any other children are predicates (`[child]`). `relative` drops the
/// leading `/` of a predicate's first step.
fn render(
    node: NodeRef<'_>,
    (canon, relative): (usize, bool),
    records: &mut Records<'_>,
    out: &mut impl Text,
) -> Result<(), SpliceError> {
    if !relative {
        out.put("/");
    }
    let untouched = records.next.is_none_or(|record| record.node >= node.end());
    if let Some(text) = spelled(node, canon).filter(|_| untouched) {
        out.put(text);
        return Ok(());
    }
    let (name, value) = node.spans();
    put_spelled(out, node.buffer(), canon, name);
    let mut added = records.take(node.index())?;
    let mut kids = node.kids();
    let first = kids.next();
    let lone = match (first, added.peek()) {
        (Some(kid), None) => kids.clone().next().is_none() && kid.op().is_none(),
        (None, Some(record)) => added.count == 1 && record.slot == 0 && !record.has_op,
        _ => false,
    };
    if node.op().is_none() && lone {
        match first {
            Some(kid) => render(kid, (canon, false), records, out)?,
            None => {
                out.put("/");
                out.put(added.next()?.expect("one record").fragment);
            }
        }
    } else {
        let (mut kid, mut slot) = (first, 0);
        while let Some(k) = kid {
            added.put_before(slot, out)?;
            out.put("[");
            render(k, (canon, true), records, out)?;
            out.put("]");
            (kid, slot) = (kids.next(), slot + 1);
        }
        added.put_before(slot, out)?;
        if added.count != 0 {
            return Err(SpliceError(
                "a record names a slot past its node's children",
            ));
        }
    }
    if let (Some(op), Some(value)) = (node.op(), value) {
        out.put(op.symbol());
        put_spelled(out, node.buffer(), canon, value);
    }
    Ok(())
}

/// One record of a splice.
#[derive(Clone, Copy)]
struct Record<'s> {
    node: u32,
    slot: u64,
    has_op: bool,
    fragment: &'s str,
}

/// The records of a splice not read yet, the next one parsed ahead.
#[derive(Clone)]
struct Records<'s> {
    rest: Cursor<'s>,
    next: Option<Record<'s>>,
    /// Records left, for a node's own [`Records::take`]; unused for the
    /// whole stream.
    count: u64,
}

impl<'s> Records<'s> {
    /// No records: a subtree rendered as it is.
    fn none() -> Records<'static> {
        Records {
            rest: Cursor(&[]),
            next: None,
            count: 0,
        }
    }

    fn new(rest: Cursor<'s>) -> Result<Records<'s>, SpliceError> {
        let mut records = Records {
            rest,
            next: None,
            count: 0,
        };
        records.advance(0)?;
        Ok(records)
    }

    /// Parses the record after the current one; `node` is the current
    /// one's, which the next counts from.
    fn advance(&mut self, node: u32) -> Result<(), SpliceError> {
        if self.rest.0.is_empty() {
            self.next = None;
            return Ok(());
        }
        let delta = self.rest.varint()?;
        let node = u32::try_from(delta)
            .ok()
            .and_then(|delta| node.checked_add(delta))
            .ok_or(SpliceError("a record names a node past the query's end"))?;
        let slot = self.rest.varint()?;
        let len = self.rest.varint()?;
        let fragment = usize::try_from(len)
            .ok()
            .and_then(|len| self.rest.0.split_at_checked(len))
            .ok_or(SpliceError("a fragment runs past the splice's end"))?;
        let (fragment, rest) = fragment;
        self.rest = Cursor(rest);
        let fragment =
            std::str::from_utf8(fragment).map_err(|_| SpliceError("a fragment is not UTF-8"))?;
        self.next = Some(Record {
            node,
            slot: slot >> 1,
            has_op: slot & 1 == 1,
            fragment,
        });
        Ok(())
    }

    /// The records at node `index`, which are next if there are any, as a
    /// stream of their own; this one moves past them.
    fn take(&mut self, index: u32) -> Result<Records<'s>, SpliceError> {
        let mut own = Records {
            rest: self.rest.clone(),
            next: self.next,
            count: 0,
        };
        while let Some(record) = self.next.filter(|r| r.node == index) {
            own.count += 1;
            self.advance(record.node)?;
        }
        Ok(own)
    }

    /// The next of a node's own records, if any are left, still unread.
    fn peek(&self) -> Option<Record<'s>> {
        self.next.filter(|_| self.count != 0)
    }

    /// The next of a node's own records, if any are left.
    fn next(&mut self) -> Result<Option<Record<'s>>, SpliceError> {
        if self.count == 0 {
            return Ok(None);
        }
        let record = self.next.expect("counted");
        self.count -= 1;
        self.advance(record.node)?;
        Ok(Some(record))
    }

    /// Writes, as predicates, the node's records at `slot`; a record at
    /// an earlier slot is out of order.
    fn put_before(&mut self, slot: u64, out: &mut impl Text) -> Result<(), SpliceError> {
        while self.count != 0 {
            let record = self.next.expect("counted");
            if record.slot > slot {
                break;
            }
            if record.slot < slot {
                return Err(SpliceError("a node's records are out of slot order"));
            }
            self.next()?;
            out.put("[");
            out.put(record.fragment);
            out.put("]");
        }
        Ok(())
    }
}

/// Unread bytes of a splice.
#[derive(Clone)]
struct Cursor<'s>(&'s [u8]);

impl Cursor<'_> {
    /// Reads one LEB128 varint of at most 64 bits.
    fn varint(&mut self) -> Result<u64, SpliceError> {
        let mut n = 0u64;
        for (i, &byte) in self.0.iter().enumerate().take(10) {
            let digit = u64::from(byte & 0x7f);
            if i == 9 && byte > 1 {
                break;
            }
            n |= digit << (7 * i);
            if byte & 0x80 == 0 {
                self.0 = &self.0[i + 1..];
                return Ok(n);
            }
        }
        Err(SpliceError("a number is cut short or too long"))
    }
}

/// `n` as an LEB128 varint: its digits and how many there are.
fn varint(mut n: u64) -> ([u8; 10], usize) {
    let mut digits = [0; 10];
    let mut width = 0;
    loop {
        digits[width] = n as u8 & 0x7f;
        n >>= 7;
        if n == 0 {
            return (digits, width + 1);
        }
        digits[width] |= 0x80;
        width += 1;
    }
}

/// Appends `n` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, n: u64) {
    let (digits, width) = varint(n);
    out.extend_from_slice(&digits[..width]);
}

/// Writes the length of what follows the one-byte placeholder at `at`
/// into it, widening it in place when the length needs more digits.
fn put_length_at(out: &mut Vec<u8>, at: usize) {
    let end = out.len();
    let (digits, width) = varint((end - at - 1) as u64);
    if width > 1 {
        out.resize(end + width - 1, 0);
        out.copy_within(at + 1..end, at + width);
    }
    out[at..at + width].copy_from_slice(&digits[..width]);
}
