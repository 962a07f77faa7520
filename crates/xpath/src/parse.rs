//! Parser for the query surface syntax.
//!
//! The grammar is the paper's XPath subset — child steps and predicates,
//! XP{/,[]}, plus the comparisons the index schemes emit:
//!
//! ```text
//! query      := '/' relpath
//! relpath    := step ('/' step)* comparison?
//! step       := name predicate*
//! predicate  := '[' relpath ']'
//! comparison := ('=' | '^=' | '*=') name
//! name       := NAME | QUOTED
//! ```
//!
//! Bare `NAME` tokens may contain alphanumerics and `- _ . : , & + '`;
//! anything else (spaces in titles, operators, brackets, `*`) must be
//! quoted: `"A Space Odyssey"`, with `\"` and `\\` escapes. A comparison
//! binds to the last step of its path: `[author/last^=S]` constrains
//! `last`. Anything else is an error with an offset: `*` (but in `*=`),
//! `!`, `<` and `>` are no tokens, so there is no wildcard and no ordering
//! comparison, and in `//` the second `/` stands where a name must.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::ast::{CmpOp, Query, MAX_DEPTH};
use crate::draft::{Draft, NodeId, Span};

/// Why query parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryErrorKind {
    /// The input ended mid-construct.
    UnexpectedEnd,
    /// An unexpected token.
    UnexpectedToken(String),
    /// A quoted string was not terminated.
    UnterminatedString,
    /// The query did not start with `/`.
    MissingLeadingSlash,
    /// Extra input after a complete query.
    TrailingInput(String),
    /// A step nested deeper than [`MAX_DEPTH`] (see [`TooDeep`](crate::TooDeep)).
    TooDeep,
}

/// An error from [`parse_query`], with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    /// What went wrong.
    pub kind: QueryErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match &self.kind {
            QueryErrorKind::UnexpectedEnd => "unexpected end of query".to_string(),
            QueryErrorKind::UnexpectedToken(t) => format!("unexpected token {t:?}"),
            QueryErrorKind::UnterminatedString => "unterminated quoted string".to_string(),
            QueryErrorKind::MissingLeadingSlash => "query must start with /".to_string(),
            QueryErrorKind::TrailingInput(t) => format!("trailing input {t:?}"),
            QueryErrorKind::TooDeep => format!("steps nest deeper than {MAX_DEPTH} levels"),
        };
        write!(f, "{msg} at offset {}", self.offset)
    }
}

impl Error for ParseQueryError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Slash,
    LBracket,
    RBracket,
    Op(CmpOp),
    /// A bare name/value, or what a quoted one holds between its quotes
    /// (escapes and all), borrowed from the input.
    Name(&'a str),
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Slash => "/".into(),
            Token::LBracket => "[".into(),
            Token::RBracket => "]".into(),
            Token::Op(op) => op.symbol().into(),
            Token::Name(raw) => {
                let mut name = String::new();
                write_name(raw, &mut name);
                name
            }
        }
    }
}

/// Writes a name token's text to `out`. Only a quoted token can hold a
/// backslash, and only then is anything unescaped: `\"` and `\\` stand for
/// `"` and `\`, any other backslash for itself.
fn write_name(raw: &str, out: &mut String) {
    if !raw.contains('\\') {
        out.push_str(raw);
        return;
    }
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, chars.peek()) {
            ('\\', Some(&e @ ('"' | '\\'))) => {
                out.push(e);
                chars.next();
            }
            _ => out.push(c),
        }
    }
}

/// The characters of a bare `NAME` token.
pub(crate) fn is_bare_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | ',' | '&' | '+' | '\'')
}

/// Byte length of a quoted token's body (what follows its opening quote,
/// up to the closing one), or `None` if it is not terminated. The quote
/// and the backslash are ASCII, so a byte scan never splits a character.
fn quoted_len(body: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut j = 0;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return Some(j),
            b'\\' if matches!(bytes.get(j + 1), Some(b'"' | b'\\')) => j += 2,
            _ => j += 1,
        }
    }
    None
}

/// The tokens of a query's text, each with its byte offset; ends after
/// the first malformed one.
struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    fn token(rest: &'a str) -> Result<(Token<'a>, usize), QueryErrorKind> {
        let mut chars = rest.chars();
        let c = chars.next().expect("called on a non-empty rest");
        let equals = chars.next() == Some('=');
        Ok(match c {
            '/' => (Token::Slash, 1),
            '[' => (Token::LBracket, 1),
            ']' => (Token::RBracket, 1),
            '=' => (Token::Op(CmpOp::Eq), 1),
            '^' if equals => (Token::Op(CmpOp::StartsWith), 2),
            '*' if equals => (Token::Op(CmpOp::Contains), 2),
            '"' => {
                let len = quoted_len(&rest[1..]).ok_or(QueryErrorKind::UnterminatedString)?;
                (Token::Name(&rest[1..1 + len]), len + 2)
            }
            c if is_bare_char(c) => {
                let len = rest.find(|c| !is_bare_char(c)).unwrap_or(rest.len());
                (Token::Name(&rest[..len]), len)
            }
            other => return Err(QueryErrorKind::UnexpectedToken(other.to_string())),
        })
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<(Token<'a>, usize), ParseQueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.input[self.pos..].trim_start();
        if rest.is_empty() {
            self.pos = self.input.len();
            return None;
        }
        let offset = self.input.len() - rest.len();
        match Lexer::token(rest) {
            Ok((token, len)) => {
                self.pos = offset + len;
                Some(Ok((token, offset)))
            }
            Err(kind) => {
                self.pos = self.input.len();
                Some(Err(ParseQueryError { kind, offset }))
            }
        }
    }
}

struct QueryParser<'a> {
    tokens: Lexer<'a>,
    /// The next token and its offset.
    peeked: Option<(Token<'a>, usize)>,
    input_len: usize,
}

impl<'a> QueryParser<'a> {
    /// A parser over `input`, which must lex without error.
    fn new(input: &'a str) -> QueryParser<'a> {
        let mut p = QueryParser {
            tokens: Lexer::new(input),
            peeked: None,
            input_len: input.len(),
        };
        p.bump();
        p
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.peeked.map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.peeked.map_or(self.input_len, |(_, o)| o)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        self.peeked = self
            .tokens
            .next()
            .map(|t| t.expect("the input lexed whole before parsing"));
        t
    }

    fn err(&self, kind: QueryErrorKind) -> ParseQueryError {
        ParseQueryError {
            kind,
            offset: self.offset(),
        }
    }

    fn err_here(&self) -> ParseQueryError {
        match self.peek() {
            Some(t) => self.err(QueryErrorKind::UnexpectedToken(t.describe())),
            None => self.err(QueryErrorKind::UnexpectedEnd),
        }
    }

    /// A name or value token, written into the draft.
    fn parse_name(&mut self, draft: &mut Draft) -> Result<Span, ParseQueryError> {
        let Some(Token::Name(raw)) = self.peek() else {
            return Err(self.err_here());
        };
        self.bump();
        Ok(draft.push_with(|text| write_name(raw, text)))
    }

    /// Parses `step ('/' step)* comparison?` into the draft, the head
    /// under `parent` and the rest of the chain nested inside it. `room`
    /// is how many levels, the head's included, may still nest.
    fn parse_steps(
        &mut self,
        draft: &mut Draft,
        parent: Option<NodeId>,
        room: usize,
    ) -> Result<(), ParseQueryError> {
        if room == 0 {
            return Err(self.err(QueryErrorKind::TooDeep));
        }
        let name = self.parse_name(draft)?;
        let node = draft.add(parent, name);

        // Predicates.
        while self.peek() == Some(Token::LBracket) {
            self.bump();
            self.parse_steps(draft, Some(node), room - 1)?;
            if self.peek() != Some(Token::RBracket) {
                return Err(self.err_here());
            }
            self.bump();
        }

        // Path continuation or comparison.
        match self.peek() {
            Some(Token::Slash) => {
                self.bump();
                self.parse_steps(draft, Some(node), room - 1)?;
            }
            Some(Token::Op(op)) => {
                self.bump();
                let value = self.parse_name(draft)?;
                draft.set_comparison(node, op, value);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Parses a query from its surface syntax.
///
/// # Errors
///
/// Returns [`ParseQueryError`] with a byte offset on malformed input.
///
/// # Examples
///
/// ```
/// use p2p_index_xpath::parse_query;
///
/// let q = parse_query("/article[author[first/John][last/Smith]][conf/INFOCOM]")?;
/// assert_eq!(q.root_name(), "article");
/// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
/// ```
pub fn parse_query(input: &str) -> Result<Query, ParseQueryError> {
    let parsed = Query::in_scratch(|draft| write_query(input, draft), |out| out.freeze())?;
    Ok(parsed.expect("the parser stops at MAX_DEPTH"))
}

/// Parses `input` into `draft`, which must be empty: its root becomes
/// node 0, and nothing nests deeper than [`MAX_DEPTH`].
pub(crate) fn write_query(input: &str, draft: &mut Draft) -> Result<(), ParseQueryError> {
    // A malformed token anywhere is the error, even one after a grammar
    // error: the input is lexed whole before it is parsed.
    for token in Lexer::new(input) {
        token?;
    }
    let mut p = QueryParser::new(input);
    if p.bump() != Some(Token::Slash) {
        return Err(ParseQueryError {
            kind: QueryErrorKind::MissingLeadingSlash,
            offset: 0,
        });
    }
    p.parse_steps(draft, None, MAX_DEPTH)?;
    match p.peek() {
        Some(t) => Err(p.err(QueryErrorKind::TrailingInput(t.describe()))),
        None => Ok(()),
    }
}

impl FromStr for Query {
    type Err = ParseQueryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_query(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_queries() {
        // The six queries of Figure 2 (q1 shortened syntax).
        for q in [
            "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989][size/315635]",
            "/article[author[first/John][last/Smith]][conf/INFOCOM]",
            "/article/author[first/John][last/Smith]",
            "/article/title/TCP",
            "/article/conf/INFOCOM",
            "/article/author/last/Smith",
        ] {
            let parsed = parse_query(q).unwrap();
            assert_eq!(parsed.root_name(), "article", "{q}");
        }
    }

    #[test]
    fn roundtrip_canonical_text() {
        for q in [
            "/article/author/last/Smith",
            "/article[author[first/John][last/Smith]][conf/INFOCOM]",
            "/article[year=1990]",
            "/article[author/last^=Sm][title*=\"A Space\"]",
            "/article/title/\"A Space Odyssey\"",
        ] {
            let once = parse_query(q).unwrap();
            let twice = parse_query(&once.to_string()).unwrap();
            assert_eq!(once, twice, "{q}");
            assert_eq!(once.to_string(), twice.to_string(), "{q}");
        }
    }

    #[test]
    fn predicate_order_is_normalized() {
        let a = parse_query("/a[x/1][y/2]").unwrap();
        let b = parse_query("/a[y/2][x/1]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn path_and_predicate_forms_coincide() {
        // `/a/b/c` and `/a[b/c]` denote the same tree pattern.
        let path = parse_query("/a/b/c").unwrap();
        let pred = parse_query("/a[b/c]").unwrap();
        assert_eq!(path, pred);
        // And so do nested mixes.
        let mix1 = parse_query("/a[b[c/d]]").unwrap();
        let mix2 = parse_query("/a/b/c/d").unwrap();
        assert_eq!(mix1, mix2);
    }

    #[test]
    fn comparisons_parse() {
        let q = parse_query("/article[year^=19][year*=9]").unwrap();
        assert_eq!(q.top_branches().count(), 2);
        assert!(q.top_branches().all(|b| b.comparison().is_some()));
        for op in ["=", "^=", "*="] {
            let q = parse_query(&format!("/a[y{op}5]")).unwrap();
            let branch = q.top_branches().next().unwrap();
            assert_eq!(branch.comparison().unwrap().op.symbol(), op);
        }
    }

    #[test]
    fn comparison_binds_to_last_step() {
        let q = parse_query("/article[author/papers=5]").unwrap();
        let author = q.top_branches().next().unwrap();
        assert!(author.comparison().is_none());
        assert!(q.to_string().contains("papers=5"));
    }

    #[test]
    fn quoted_values_with_spaces_and_escapes() {
        let q = parse_query(r#"/article/title/"A \"Quoted\" Title \\ here""#).unwrap();
        let text = q.to_string();
        assert!(text.contains(r#"A \"Quoted\" Title \\ here"#));
        assert_eq!(parse_query(&text).unwrap(), q);
    }

    #[test]
    fn descendant_axis() {
        // No `//` token: the second `/` is where a name must be.
        for (src, offset) in [
            ("//title", 1),
            ("/article//Smith", 9),
            ("/article[//Smith]", 9),
        ] {
            let err = parse_query(src).unwrap_err();
            assert_eq!(
                err.kind,
                QueryErrorKind::UnexpectedToken("/".into()),
                "{src}"
            );
            assert_eq!(err.offset, offset, "{src}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let a = parse_query("/article[ author / last / Smith ][ conf / INFOCOM ]").unwrap();
        let b = parse_query("/article[author/last/Smith][conf/INFOCOM]").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_missing_leading_slash() {
        let err = parse_query("article/title").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::MissingLeadingSlash);
    }

    #[test]
    fn error_unterminated_string() {
        let err = parse_query("/a/\"oops").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::UnterminatedString);
    }

    #[test]
    fn error_unexpected_end() {
        for src in ["/", "/a[", "/a[b", "/a/b/", "/a[y^="] {
            let err = parse_query(src).unwrap_err();
            assert_eq!(err.kind, QueryErrorKind::UnexpectedEnd, "{src}");
        }
    }

    #[test]
    fn error_unexpected_token() {
        let err = parse_query("/a[]").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::UnexpectedToken(_)));
        // `*`, `!`, `<` and `>` are no tokens: no wildcard, no ordering
        // comparison. `*=` is always the substring operator, which cannot
        // start a step.
        for (src, bad, offset) in [
            ("/a!b", "!", 2),
            ("/*/title", "*", 1),
            ("/article/*", "*", 9),
            ("/a[*=5]", "*=", 3),
            ("/a[y!=1]", "!", 4),
            ("/a[y<1]", "<", 4),
            ("/a[y<=1]", "<", 4),
            ("/a[y>1]", ">", 4),
            ("/a[y>=1]", ">", 4),
        ] {
            let err = parse_query(src).unwrap_err();
            assert_eq!(
                err.kind,
                QueryErrorKind::UnexpectedToken(bad.into()),
                "{src}"
            );
            assert_eq!(err.offset, offset, "{src}");
        }
    }

    #[test]
    fn a_malformed_token_outranks_an_earlier_grammar_error() {
        // The whole input is lexed before it is parsed, as it was when the
        // token list was built first: `]` at 2 and the missing slash at 0
        // are grammar errors, `§` a lexical one.
        for src in ["/a]§", "a§", "/a[]\"x"] {
            let err = parse_query(src).unwrap_err();
            let lexical = matches!(
                err.kind,
                QueryErrorKind::UnexpectedToken(ref t) if t == "§"
            ) || err.kind == QueryErrorKind::UnterminatedString;
            assert!(lexical, "{src}: {err:?}");
        }
        assert_eq!(parse_query("/a]§").unwrap_err().offset, 3);
    }

    #[test]
    fn error_trailing_input() {
        let err = parse_query("/a]extra").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::TrailingInput(_)));
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse_query("/article[§]").unwrap_err();
        assert_eq!(err.offset, "/article[".len());
    }

    #[test]
    fn from_str_works() {
        let q: Query = "/article/title/TCP".parse().unwrap();
        assert_eq!(q.to_string(), "/article/title/TCP");
        assert!("nope".parse::<Query>().is_err());
    }

    #[test]
    fn error_display() {
        let err = parse_query("/a[").unwrap_err();
        assert!(err.to_string().contains("unexpected end"));
        let err = parse_query("no").unwrap_err();
        assert_eq!(err.to_string(), "query must start with / at offset 0");
    }

    #[test]
    fn bare_names_allow_common_punctuation() {
        let q = parse_query("/article/title/End-to-End_TCP:v2.0,final&more+'quoted'").unwrap();
        assert!(q
            .to_string()
            .contains("End-to-End_TCP:v2.0,final&more+'quoted'"));
    }

    #[test]
    fn a_depth_bomb_is_a_typed_error() {
        use p2p_index_testkit::on_a_small_stack;
        // 40 KB of `/a` used to overflow the stack in `parse_steps`, and a
        // shorter one in `normalize`, the renderer or `Drop`.
        let err = on_a_small_stack(|| parse_query(&"/a".repeat(20_000)).unwrap_err());
        assert_eq!(err.kind, QueryErrorKind::TooDeep);
        assert_eq!(err.offset, 2 * MAX_DEPTH + 1, "at the first step too many");
        assert!(err.to_string().contains("deeper than"));
        let nested = format!("/a{}{}", "[b".repeat(20_000), "]".repeat(20_000));
        let err = on_a_small_stack(move || parse_query(&nested).unwrap_err());
        assert_eq!(err.kind, QueryErrorKind::TooDeep);
    }

    #[test]
    fn a_query_at_the_depth_limit_round_trips() {
        p2p_index_testkit::on_a_small_stack(|| {
            let text = "/a".repeat(MAX_DEPTH);
            let q = parse_query(&text).unwrap();
            assert_eq!(q.depth(), MAX_DEPTH);
            assert_eq!(q.to_string(), text);
            assert_eq!(parse_query(&q.to_string()).unwrap(), q);
            assert!(q.covers(&q));
            // Dropping the only branch leaves the root: still a query.
            assert_eq!(q.generalizations()[0].to_string(), "/a");
            let one_more = parse_query(&"/a".repeat(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(one_more.kind, QueryErrorKind::TooDeep);
        });
    }
}
