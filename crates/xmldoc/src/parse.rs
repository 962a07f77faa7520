//! A recursive-descent parser for the XML subset descriptors use.
//!
//! Handles elements, attributes, character data, the five predefined
//! entities plus numeric character references, comments, processing
//! instructions / the XML declaration, and CDATA sections. It does *not*
//! implement DTDs or namespaces — descriptor documents (DBLP-style records)
//! never use them.
//!
//! # Examples
//!
//! ```
//! use p2p_index_xmldoc::parse;
//!
//! let doc = parse("<article><title>TCP &amp; IP</title></article>")?;
//! assert_eq!(doc.find("title").unwrap().text(), "TCP & IP");
//! # Ok::<(), p2p_index_xmldoc::ParseXmlError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::tree::{Element, XmlNode};

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that cannot start/continue the current construct.
    UnexpectedChar(char),
    /// `</a>` closed an element opened as `<b>`.
    MismatchedClose {
        /// The name in the open tag.
        expected: String,
        /// The name found in the close tag.
        found: String,
    },
    /// An entity reference that is not predefined or numeric.
    UnknownEntity(String),
    /// A numeric character reference that is not a valid scalar value.
    InvalidCharRef(String),
    /// Content found after the document element closed.
    TrailingContent,
    /// The document contains no element at all.
    NoRootElement,
    /// Elements nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// The deepest elements may nest (the document element has depth 1).
///
/// Descriptors arrive from other peers, and the parser — like every walk
/// of the tree it builds — recurses along the nesting, so without a bound
/// a few hundred kilobytes of open tags would overflow the stack of
/// whoever parses them. Real descriptors (DBLP-style records) nest three
/// or four levels.
pub const MAX_DEPTH: usize = 128;

/// An error produced while parsing XML, with 1-based line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseXmlError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// 1-based line of the offending position.
    pub line: usize,
    /// 1-based column of the offending position.
    pub column: usize,
}

impl fmt::Display for ParseXmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match &self.kind {
            ParseErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            ParseErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            ParseErrorKind::MismatchedClose { expected, found } => {
                format!("mismatched close tag: expected </{expected}>, found </{found}>")
            }
            ParseErrorKind::UnknownEntity(e) => format!("unknown entity &{e};"),
            ParseErrorKind::InvalidCharRef(r) => format!("invalid character reference &#{r};"),
            ParseErrorKind::TrailingContent => "content after document element".to_string(),
            ParseErrorKind::NoRootElement => "no root element".to_string(),
            ParseErrorKind::TooDeep => format!("elements nest deeper than {MAX_DEPTH} levels"),
        };
        write!(f, "{msg} at line {} column {}", self.line, self.column)
    }
}

impl Error for ParseXmlError {}

/// Parses a complete XML document and returns its root element.
///
/// # Errors
///
/// Returns [`ParseXmlError`] on malformed input; the error carries the
/// 1-based line and column of the problem.
pub fn parse(input: &str) -> Result<Element, ParseXmlError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let root = match p.peek() {
        Some('<') => p.parse_element(1)?,
        Some(_) | None => return Err(p.err(ParseErrorKind::NoRootElement)),
    };
    p.skip_misc()?;
    if p.peek().is_some() {
        return Err(p.err(ParseErrorKind::TrailingContent));
    }
    Ok(root)
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            input,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseXmlError {
        // Compute line/column from consumed chars.
        let mut line = 1;
        let mut column = 1;
        for &c in &self.chars[..self.pos.min(self.chars.len())] {
            if c == '\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        let _ = self.input; // retained for future diagnostics
        ParseXmlError { kind, line, column }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, expected: char) -> Result<(), ParseXmlError> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => {
                self.pos -= 1;
                Err(self.err(ParseErrorKind::UnexpectedChar(c)))
            }
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(i, c)| self.peek_at(i) == Some(c))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, marker: &str) -> Result<(), ParseXmlError> {
        while !self.starts_with(marker) {
            if self.bump().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
        }
        self.pos += marker.chars().count();
        Ok(())
    }

    /// Skips the XML declaration, whitespace, comments, PIs, and DOCTYPE.
    fn skip_prolog(&mut self) -> Result<(), ParseXmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>', tolerating nested brackets.
                let mut depth = 0i32;
                loop {
                    match self.bump() {
                        Some('[') => depth += 1,
                        Some(']') => depth -= 1,
                        Some('>') if depth <= 0 => break,
                        Some(_) => {}
                        None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    /// Skips trailing whitespace/comments/PIs after the root element.
    fn skip_misc(&mut self) -> Result<(), ParseXmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseXmlError> {
        let start = self.pos;
        while matches!(self.peek(),
            Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return match self.peek() {
                Some(c) => Err(self.err(ParseErrorKind::UnexpectedChar(c))),
                None => Err(self.err(ParseErrorKind::UnexpectedEof)),
            };
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    /// Parses the element starting here, `depth` levels down.
    fn parse_element(&mut self, depth: usize) -> Result<Element, ParseXmlError> {
        if depth > MAX_DEPTH {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        self.eat('<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(&name);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.pos += 1;
                    self.eat('>')?;
                    return Ok(element);
                }
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    self.eat('=')?;
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ ('"' | '\'')) => q,
                        Some(c) => {
                            self.pos -= 1;
                            return Err(self.err(ParseErrorKind::UnexpectedChar(c)));
                        }
                        None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                    };
                    let mut value = String::new();
                    loop {
                        match self.peek() {
                            Some(c) if c == quote => {
                                self.pos += 1;
                                break;
                            }
                            Some('&') => value.push_str(&self.parse_entity()?),
                            Some(c) => {
                                value.push(c);
                                self.pos += 1;
                            }
                            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                        }
                    }
                    element.push_attribute(attr, value);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }

        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(ParseErrorKind::MismatchedClose {
                        expected: name,
                        found: close,
                    }));
                }
                self.skip_ws();
                self.eat('>')?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".chars().count();
                let start = self.pos;
                while !self.starts_with("]]>") {
                    if self.bump().is_none() {
                        return Err(self.err(ParseErrorKind::UnexpectedEof));
                    }
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                element.push_child(XmlNode::Text(text));
                self.pos += 3;
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some('<') {
                let child = self.parse_element(depth + 1)?;
                element.push_child(child);
            } else if self.peek().is_none() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            } else {
                let text = self.parse_text()?;
                if !text.trim().is_empty() {
                    element.push_child(XmlNode::Text(text));
                }
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, ParseXmlError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some('<') | None => return Ok(out),
                Some('&') => out.push_str(&self.parse_entity()?),
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_entity(&mut self) -> Result<String, ParseXmlError> {
        self.eat('&')?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != ';') {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err(self.err(ParseErrorKind::UnexpectedEof));
        }
        let body: String = self.chars[start..self.pos].iter().collect();
        self.pos += 1; // ';'
        let resolved = match body.as_str() {
            "amp" => "&".to_string(),
            "lt" => "<".to_string(),
            "gt" => ">".to_string(),
            "quot" => "\"".to_string(),
            "apos" => "'".to_string(),
            _ if body.starts_with('#') => {
                let digits = &body[1..];
                let code = if let Some(hex) = digits.strip_prefix('x').or(digits.strip_prefix('X'))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    digits.parse::<u32>()
                };
                match code.ok().and_then(char::from_u32) {
                    Some(c) => c.to_string(),
                    None => {
                        return Err(self.err(ParseErrorKind::InvalidCharRef(digits.to_string())))
                    }
                }
            }
            _ => return Err(self.err(ParseErrorKind::UnknownEntity(body))),
        };
        Ok(resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure_1_descriptor() {
        let doc = parse(
            "<article>\n  <author>\n    <first>John</first>\n    <last>Smith</last>\n  </author>\n  <title>TCP</title>\n  <conf>SIGCOMM</conf>\n  <year>1989</year>\n  <size>315635</size>\n</article>",
        )
        .unwrap();
        assert_eq!(doc.name(), "article");
        assert_eq!(doc.path_text("author/first").as_deref(), Some("John"));
        assert_eq!(doc.path_text("size").as_deref(), Some("315635"));
    }

    #[test]
    fn roundtrip_through_writer() {
        let src = "<a><b>text</b><c x=\"1\"/></a>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
        // Parse what we wrote: stable fixpoint.
        assert_eq!(parse(&doc.to_xml()).unwrap(), doc);
    }

    #[test]
    fn xml_declaration_and_comments() {
        let doc = parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- DBLP-like -->\n<article><title>X</title></article>\n<!-- trailing -->",
        )
        .unwrap();
        assert_eq!(doc.find("title").unwrap().text(), "X");
    }

    #[test]
    fn doctype_is_skipped() {
        let doc = parse("<!DOCTYPE dblp SYSTEM \"dblp.dtd\"><dblp><article/></dblp>").unwrap();
        assert_eq!(doc.name(), "dblp");
    }

    #[test]
    fn entities_decode() {
        let doc =
            parse("<t>a &amp; b &lt;c&gt; &quot;d&quot; &apos;e&apos; &#65; &#x42;</t>").unwrap();
        assert_eq!(doc.text(), "a & b <c> \"d\" 'e' A B");
    }

    #[test]
    fn entities_in_attributes() {
        let doc = parse("<t k=\"a&amp;b\"/>").unwrap();
        assert_eq!(doc.attribute("k"), Some("a&b"));
    }

    #[test]
    fn cdata_section() {
        let doc = parse("<t><![CDATA[<raw> & unescaped]]></t>").unwrap();
        assert_eq!(doc.text(), "<raw> & unescaped");
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<t k='v'/>").unwrap();
        assert_eq!(doc.attribute("k"), Some("v"));
    }

    #[test]
    fn error_mismatched_close() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MismatchedClose { .. }));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn error_unexpected_eof() {
        let err = parse("<a><b>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_unknown_entity() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnknownEntity("nope".into()));
    }

    #[test]
    fn error_invalid_char_ref() {
        let err = parse("<a>&#xD800;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::InvalidCharRef(_)));
    }

    #[test]
    fn error_trailing_content() {
        let err = parse("<a/><b/>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TrailingContent);
    }

    #[test]
    fn error_no_root() {
        let err = parse("   ").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NoRootElement);
        let err = parse("just text").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NoRootElement);
    }

    #[test]
    fn error_positions_track_lines() {
        let err = parse("<a>\n<b>\n</c>\n</a>").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.column > 1);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(doc.children().len(), 1);
    }

    #[test]
    fn display_of_errors() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("unknown entity"));
        assert!(text.contains("line 1"));
    }

    #[test]
    fn deeply_nested() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("<n{i}>"));
        }
        src.push_str("leaf");
        for i in (0..50).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let doc = parse(&src).unwrap();
        let mut cur = &doc;
        for _ in 0..49 {
            cur = cur.child_elements().next().unwrap();
        }
        assert_eq!(cur.text(), "leaf");
    }

    #[test]
    fn a_depth_bomb_is_a_typed_error() {
        // 300 KB of open tags used to overflow the stack in `parse_element`.
        let err =
            p2p_index_testkit::on_a_small_stack(|| parse(&"<a>".repeat(100_000)).unwrap_err());
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!((err.line, err.column), (1, 3 * MAX_DEPTH + 1));
        assert!(err.to_string().contains("deeper than"));
    }

    #[test]
    fn nesting_at_the_depth_limit_round_trips() {
        let nest = |levels: usize| "<a>".repeat(levels) + "x" + &"</a>".repeat(levels);
        let doc = parse(&nest(MAX_DEPTH)).unwrap();
        assert_eq!(doc.to_xml(), nest(MAX_DEPTH));
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
    }
}
