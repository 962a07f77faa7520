//! Parser for the query surface syntax.
//!
//! The grammar covers the paper's XPath subset:
//!
//! ```text
//! query      := axis step (axis step)* comparison?
//! axis       := '//' | '/'
//! step       := nametest predicate*
//! nametest   := '*' | NAME | QUOTED
//! predicate  := '[' relpath ']'
//! relpath    := '//'? step (axis step)* comparison?
//! comparison := ('=' | '!=' | '<' | '<=' | '>' | '>=' | '^=' | '*=') (NAME | QUOTED)
//! ```
//!
//! Bare `NAME` tokens may contain alphanumerics and `- _ . : , & + '`;
//! anything else (spaces in titles, operators, brackets) must be quoted:
//! `"A Space Odyssey"`, with `\"` and `\\` escapes. A comparison binds to
//! the last step of its path: `[author/year>=1990]` constrains `year`.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::ast::{Axis, CmpOp, Query, MAX_DEPTH};
use crate::pattern::{NameTest, Pattern};

/// Why query parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryErrorKind {
    /// The input ended mid-construct.
    UnexpectedEnd,
    /// An unexpected token.
    UnexpectedToken(String),
    /// A quoted string was not terminated.
    UnterminatedString,
    /// The query did not start with `/` or `//`.
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
            QueryErrorKind::MissingLeadingSlash => "query must start with / or //".to_string(),
            QueryErrorKind::TrailingInput(t) => format!("trailing input {t:?}"),
            QueryErrorKind::TooDeep => format!("steps nest deeper than {MAX_DEPTH} levels"),
        };
        write!(f, "{msg} at offset {}", self.offset)
    }
}

impl Error for ParseQueryError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Slash,
    DoubleSlash,
    LBracket,
    RBracket,
    Star,
    Op(CmpOp),
    /// A bare or quoted name/value (flag: was quoted).
    Name(String, bool),
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Slash => "/".into(),
            Token::DoubleSlash => "//".into(),
            Token::LBracket => "[".into(),
            Token::RBracket => "]".into(),
            Token::Star => "*".into(),
            Token::Op(op) => op.symbol().into(),
            Token::Name(n, _) => n.clone(),
        }
    }
}

fn is_bare_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | ':' | ',' | '&' | '+' | '\'')
}

fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, ParseQueryError> {
    let mut tokens = Vec::new();
    let bytes: Vec<(usize, char)> = input.char_indices().collect();
    let mut i = 0;
    while i < bytes.len() {
        let (offset, c) = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '/' => {
                if bytes.get(i + 1).map(|&(_, c)| c) == Some('/') {
                    tokens.push((Token::DoubleSlash, offset));
                    i += 2;
                } else {
                    tokens.push((Token::Slash, offset));
                    i += 1;
                }
            }
            '[' => {
                tokens.push((Token::LBracket, offset));
                i += 1;
            }
            ']' => {
                tokens.push((Token::RBracket, offset));
                i += 1;
            }
            '*' => {
                // Where a step must start, `*` is the wildcard even in front
                // of `=`: `[*=5]` is what a wildcard compared for equality
                // prints as, and canonical text must parse back.
                let starts_step = matches!(
                    tokens.last(),
                    Some((Token::Slash | Token::DoubleSlash | Token::LBracket, _))
                );
                if !starts_step && bytes.get(i + 1).map(|&(_, c)| c) == Some('=') {
                    tokens.push((Token::Op(CmpOp::Contains), offset));
                    i += 2;
                } else {
                    tokens.push((Token::Star, offset));
                    i += 1;
                }
            }
            '=' => {
                tokens.push((Token::Op(CmpOp::Eq), offset));
                i += 1;
            }
            '^' => {
                if bytes.get(i + 1).map(|&(_, c)| c) == Some('=') {
                    tokens.push((Token::Op(CmpOp::StartsWith), offset));
                    i += 2;
                } else {
                    return Err(ParseQueryError {
                        kind: QueryErrorKind::UnexpectedToken("^".into()),
                        offset,
                    });
                }
            }
            '!' => {
                if bytes.get(i + 1).map(|&(_, c)| c) == Some('=') {
                    tokens.push((Token::Op(CmpOp::Ne), offset));
                    i += 2;
                } else {
                    return Err(ParseQueryError {
                        kind: QueryErrorKind::UnexpectedToken("!".into()),
                        offset,
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1).map(|&(_, c)| c) == Some('=') {
                    tokens.push((Token::Op(CmpOp::Le), offset));
                    i += 2;
                } else {
                    tokens.push((Token::Op(CmpOp::Lt), offset));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1).map(|&(_, c)| c) == Some('=') {
                    tokens.push((Token::Op(CmpOp::Ge), offset));
                    i += 2;
                } else {
                    tokens.push((Token::Op(CmpOp::Gt), offset));
                    i += 1;
                }
            }
            '"' => {
                let mut value = String::new();
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => {
                            return Err(ParseQueryError {
                                kind: QueryErrorKind::UnterminatedString,
                                offset,
                            })
                        }
                        Some(&(_, '"')) => {
                            j += 1;
                            break;
                        }
                        Some(&(_, '\\')) => match bytes.get(j + 1) {
                            Some(&(_, e @ ('"' | '\\'))) => {
                                value.push(e);
                                j += 2;
                            }
                            _ => {
                                value.push('\\');
                                j += 1;
                            }
                        },
                        Some(&(_, c)) => {
                            value.push(c);
                            j += 1;
                        }
                    }
                }
                tokens.push((Token::Name(value, true), offset));
                i = j;
            }
            c if is_bare_char(c) => {
                let mut value = String::new();
                while i < bytes.len() && is_bare_char(bytes[i].1) {
                    value.push(bytes[i].1);
                    i += 1;
                }
                tokens.push((Token::Name(value, false), offset));
            }
            other => {
                return Err(ParseQueryError {
                    kind: QueryErrorKind::UnexpectedToken(other.to_string()),
                    offset,
                })
            }
        }
    }
    Ok(tokens)
}

struct QueryParser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    input_len: usize,
}

impl QueryParser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
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

    fn parse_name_test(&mut self) -> Result<NameTest, ParseQueryError> {
        match self.peek() {
            Some(Token::Star) => {
                self.bump();
                Ok(NameTest::Wildcard)
            }
            Some(Token::Name(_, _)) => {
                let Some(Token::Name(n, _)) = self.bump() else {
                    unreachable!()
                };
                Ok(NameTest::Name(n))
            }
            _ => Err(self.err_here()),
        }
    }

    /// Parses `step (axis step)* comparison?` and returns the head pattern
    /// with the rest of the chain nested inside it. `room` is how many
    /// levels, the head's included, may still nest.
    fn parse_steps(&mut self, axis: Axis, room: usize) -> Result<Pattern, ParseQueryError> {
        if room == 0 {
            return Err(self.err(QueryErrorKind::TooDeep));
        }
        let test = self.parse_name_test()?;
        let mut node = Pattern::leaf(axis, test);

        // Predicates.
        while self.peek() == Some(&Token::LBracket) {
            self.bump();
            let inner_axis = if self.peek() == Some(&Token::DoubleSlash) {
                self.bump();
                Axis::Descendant
            } else {
                Axis::Child
            };
            let child = self.parse_steps(inner_axis, room - 1)?;
            match self.bump() {
                Some(Token::RBracket) => {}
                Some(t) => {
                    self.pos -= 1;
                    return Err(self.err(QueryErrorKind::UnexpectedToken(t.describe())));
                }
                None => return Err(self.err(QueryErrorKind::UnexpectedEnd)),
            }
            node.children.push(child);
        }

        // Path continuation or comparison.
        match self.peek() {
            Some(Token::Slash) => {
                self.bump();
                let tail = self.parse_steps(Axis::Child, room - 1)?;
                node.children.push(tail);
            }
            Some(Token::DoubleSlash) => {
                self.bump();
                let tail = self.parse_steps(Axis::Descendant, room - 1)?;
                node.children.push(tail);
            }
            Some(Token::Op(_)) => {
                let Some(Token::Op(op)) = self.bump() else {
                    unreachable!()
                };
                match self.bump() {
                    Some(Token::Name(value, _)) => {
                        node.comparison = Some((op, value));
                    }
                    Some(t) => {
                        self.pos -= 1;
                        return Err(self.err(QueryErrorKind::UnexpectedToken(t.describe())));
                    }
                    None => return Err(self.err(QueryErrorKind::UnexpectedEnd)),
                }
            }
            _ => {}
        }
        Ok(node)
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
/// assert_eq!(q.root_name(), Some("article"));
/// # Ok::<(), p2p_index_xpath::ParseQueryError>(())
/// ```
pub fn parse_query(input: &str) -> Result<Query, ParseQueryError> {
    let tokens = tokenize(input)?;
    let mut p = QueryParser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let axis = match p.bump() {
        Some(Token::Slash) => Axis::Child,
        Some(Token::DoubleSlash) => Axis::Descendant,
        _ => {
            return Err(ParseQueryError {
                kind: QueryErrorKind::MissingLeadingSlash,
                offset: 0,
            })
        }
    };
    let root = p.parse_steps(axis, MAX_DEPTH)?;
    if let Some(t) = p.peek() {
        let desc = t.describe();
        return Err(p.err(QueryErrorKind::TrailingInput(desc)));
    }
    Ok(Query::from_root(root).expect("the parser stops at MAX_DEPTH"))
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
            assert_eq!(parsed.root_name(), Some("article"), "{q}");
        }
    }

    #[test]
    fn roundtrip_canonical_text() {
        for q in [
            "/article/author/last/Smith",
            "/article[author[first/John][last/Smith]][conf/INFOCOM]",
            "/article[year>=1990]",
            "/article//Smith",
            "/*/title/TCP",
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
        let q = parse_query("/article[year>=1990][year<2000]").unwrap();
        assert_eq!(q.top_branches().count(), 2);
        assert!(q.top_branches().all(|b| b.comparison().is_some()));
        for op in ["=", "!=", "<", "<=", ">", ">=", "^=", "*="] {
            let q = parse_query(&format!("/a[y{op}5]")).unwrap();
            let branch = q.top_branches().next().unwrap();
            assert_eq!(branch.comparison().unwrap().op.symbol(), op);
        }
    }

    #[test]
    fn comparison_binds_to_last_step() {
        let q = parse_query("/article[author/papers>=5]").unwrap();
        let author = q.top_branches().next().unwrap();
        assert!(author.comparison().is_none());
        assert!(q.to_string().contains("papers>=5"));
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
        let q = parse_query("//title").unwrap();
        assert_eq!(q.root().axis(), Axis::Descendant);
        let q = parse_query("/article//Smith").unwrap();
        assert_eq!(q.top_branches().next().unwrap().axis(), Axis::Descendant);
        let q = parse_query("/article[//Smith]").unwrap();
        assert_eq!(q.top_branches().next().unwrap().axis(), Axis::Descendant);
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
        for src in ["/", "/a[", "/a[b", "/a/b/", "/a[y>="] {
            let err = parse_query(src).unwrap_err();
            assert_eq!(err.kind, QueryErrorKind::UnexpectedEnd, "{src}");
        }
    }

    #[test]
    fn error_unexpected_token() {
        let err = parse_query("/a[]").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::UnexpectedToken(_)));
        let err = parse_query("/a!b").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::UnexpectedToken(_)));
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
    fn wildcard_compared_for_equality_round_trips() {
        // `* = 5` and `*=5` are the same tokens where a step starts...
        let spaced = parse_query("/a[* = 5]").unwrap();
        let branch = spaced.top_branches().next().unwrap();
        assert_eq!(branch.name(), None);
        assert_eq!(branch.comparison().unwrap().op, CmpOp::Eq);
        assert_eq!(spaced.to_string(), "/a[*=5]");
        assert_eq!(parse_query("/a[*=5]").unwrap(), spaced);
        // ...and after a name `*=` is still the substring operator.
        let substring = parse_query("/a[b*=5]").unwrap();
        let branch = substring.top_branches().next().unwrap();
        assert_eq!(branch.comparison().unwrap().op, CmpOp::Contains);
        let both = parse_query("/a/**=5").unwrap();
        assert_eq!(parse_query(&both.to_string()).unwrap(), both);
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
        assert!(err.to_string().contains("must start"));
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
