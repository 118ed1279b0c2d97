//! Cypher-like text front-end.
//!
//! [`parse()`] turns a statement string into a [`Statement`], making text the
//! first-class way to submit queries (the serving layer's
//! `prepare_text`/`serve_text` build on it). The grammar covers exactly the
//! surface [`Statement`] models — see `crates/query/README.md` for the full
//! grammar — and [`Statement`]'s `Display` emits text this parser accepts,
//! so statements round-trip:
//!
//! ```
//! use pgso_query::{parse, CountTerm};
//!
//! let stmt = parse(
//!     "MATCH (d:Drug)-[:treat]->(i:Indication) \
//!      WHERE d.name CONTAINS $needle \
//!      RETURN i.desc ORDER BY i.desc LIMIT 10",
//! )
//! .unwrap();
//! assert_eq!(stmt.predicates.len(), 1);
//! assert_eq!(stmt.predicates[0].value.parameter_name(), Some("needle"));
//! assert_eq!(stmt.limit, Some(CountTerm::Count(10)));
//! let reparsed = parse(&stmt.to_string()).unwrap();
//! assert!(stmt.structurally_eq(&reparsed));
//! ```

use crate::ast::{Aggregate, EdgePattern, NodePattern, ReturnItem};
use crate::stmt::{CmpOp, CountTerm, HavingPredicate, OrderKey, Predicate, Statement, Term};
use pgso_graphstore::PropertyValue;
use std::fmt;

/// Error produced by [`parse()`], with a byte offset into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a statement with the default name `"stmt"`.
pub fn parse(text: &str) -> Result<Statement, ParseError> {
    parse_named(text, "stmt")
}

/// Parses a statement, attaching `name` as its presentation name (names are
/// not part of the text syntax, of structural equality, or of fingerprints).
pub fn parse_named(text: &str, name: impl Into<String>) -> Result<Statement, ParseError> {
    let tokens = tokenize(text)?;
    let mut parser = Parser { tokens, pos: 0, src_len: text.len() };
    parser.statement(name.into())
}

/// Splits an optional `EXPLAIN` / `PROFILE` directive (case-insensitive)
/// off the front of a statement text, returning the mode and the remaining
/// statement text. Directives are *not* part of [`Statement`] — the same
/// inner text always produces the same fingerprint and plan-cache entry
/// whether it is explained, profiled or executed.
pub fn strip_directive(text: &str) -> (Option<crate::explain::QueryMode>, &str) {
    use crate::explain::QueryMode;
    let trimmed = text.trim_start();
    let word_end = trimmed
        .char_indices()
        .find(|(_, c)| !c.is_ascii_alphabetic())
        .map_or(trimmed.len(), |(i, _)| i);
    let word = &trimmed[..word_end];
    let mode = if word.eq_ignore_ascii_case("EXPLAIN") {
        Some(QueryMode::Explain)
    } else if word.eq_ignore_ascii_case("PROFILE") {
        Some(QueryMode::Profile)
    } else {
        None
    };
    match mode {
        Some(mode) => (Some(mode), trimmed[word_end..].trim_start()),
        None => (None, text),
    }
}

/// [`parse()`] with `EXPLAIN` / `PROFILE` directive support: parses the
/// statement after an optional directive prefix and returns both. Parse
/// error offsets still point into the *original* text.
pub fn parse_directive(
    text: &str,
) -> Result<(Option<crate::explain::QueryMode>, Statement), ParseError> {
    let (mode, rest) = strip_directive(text);
    let prefix_len = text.len() - rest.len();
    match parse(rest) {
        Ok(stmt) => Ok((mode, stmt)),
        Err(mut error) => {
            error.offset += prefix_len;
            Err(error)
        }
    }
}

// ---------------------------------------------------------------- tokenizer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (still textual; sign and kind decided at parse time).
    Number(String),
    /// Quoted string literal (quotes stripped).
    Str(String),
    /// Named parameter (`$name`, dollar stripped).
    Param(String),
    /// Punctuation / operator: one of `( ) [ ] : , . = < > <= >= != <> -[ ]->`.
    Punct(&'static str),
}

struct Spanned {
    tok: Tok,
    offset: usize,
}

fn tokenize(text: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Decode a full character so multi-byte UTF-8 input (outside string
        // literals, where it is allowed) errors cleanly instead of slicing
        // mid-character.
        let c = text[i..].chars().next().expect("i is on a char boundary");
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        let offset = i;
        // Multi-character operators first. `get` returns None when i+2 is
        // not a char boundary, which also cannot be one of these operators.
        let punct2 = match text.get(i..i + 2) {
            Some(two @ ("<=" | ">=" | "!=" | "<>" | "->")) => Some(two),
            _ => None,
        };
        if let Some(op) = punct2 {
            let op: &'static str = match op {
                "<=" => "<=",
                ">=" => ">=",
                "!=" => "!=",
                "<>" => "<>",
                _ => "->",
            };
            tokens.push(Spanned { tok: Tok::Punct(op), offset });
            i += 2;
            continue;
        }
        match c {
            '(' | ')' | '[' | ']' | ':' | ',' | '.' | '=' | '<' | '>' | '-' => {
                let op: &'static str = match c {
                    '(' => "(",
                    ')' => ")",
                    '[' => "[",
                    ']' => "]",
                    ':' => ":",
                    ',' => ",",
                    '.' => ".",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    _ => "-",
                };
                tokens.push(Spanned { tok: Tok::Punct(op), offset });
                i += 1;
            }
            '\'' | '"' => {
                let quote = bytes[i];
                let mut j = i + 1;
                let mut value = String::new();
                loop {
                    if j >= bytes.len() {
                        return Err(ParseError {
                            message: "unterminated string literal".into(),
                            offset,
                        });
                    }
                    if bytes[j] == quote {
                        break;
                    }
                    // Backslash escapes the next character verbatim (used by
                    // Display for embedded quotes and backslashes).
                    if bytes[j] == b'\\' {
                        j += 1;
                        if j >= bytes.len() {
                            return Err(ParseError {
                                message: "unterminated string literal".into(),
                                offset,
                            });
                        }
                    }
                    let ch = text[j..].chars().next().expect("j is on a char boundary");
                    value.push(ch);
                    j += ch.len_utf8();
                }
                tokens.push(Spanned { tok: Tok::Str(value), offset });
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || bytes[j] == b'.'
                        || bytes[j] == b'e'
                        || bytes[j] == b'E'
                        || ((bytes[j] == b'+' || bytes[j] == b'-')
                            && matches!(bytes[j - 1], b'e' | b'E')))
                {
                    j += 1;
                }
                // A trailing '.' belongs to the next token (never produced by
                // our Display, but cheap to be strict about).
                if bytes[j - 1] == b'.' {
                    j -= 1;
                }
                tokens.push(Spanned { tok: Tok::Number(text[i..j].to_string()), offset });
                i = j;
            }
            '$' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                if j == i + 1 {
                    return Err(ParseError {
                        message: "expected a parameter name after `$`".into(),
                        offset,
                    });
                }
                tokens.push(Spanned { tok: Tok::Param(text[i + 1..j].to_string()), offset });
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                tokens.push(Spanned { tok: Tok::Ident(text[i..j].to_string()), offset });
                i = j;
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character {other:?}"),
                    offset,
                });
            }
        }
    }
    Ok(tokens)
}

// ------------------------------------------------------------------- parser

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    src_len: usize,
}

impl Parser {
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.offset).unwrap_or(self.src_len)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), offset: self.offset() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// Consumes an identifier equal to `keyword` (case-insensitive).
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.peek_keyword(keyword) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(word)) if word.eq_ignore_ascii_case(keyword))
    }

    /// True when the next tokens are `keyword (` — an aggregate-function
    /// call. The paren lookahead keeps `count`, `size`, `sum`, `min`, `max`
    /// and `avg` usable as plain variable names (`RETURN sum.total`): they
    /// are only treated as functions when actually called.
    fn peek_call(&self, keyword: &str) -> bool {
        self.peek_keyword(keyword)
            && matches!(self.tokens.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Punct("(")))
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), ParseError> {
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {keyword}")))
        }
    }

    fn eat_punct(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(p)) if *p == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, op: &str) -> Result<(), ParseError> {
        if self.eat_punct(op) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{op}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(word)) => {
                let word = word.clone();
                self.pos += 1;
                Ok(word)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    /// Property name: identifiers joined by dots (`desc`,
    /// `Indication.desc`), as produced for replicated properties.
    fn property_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.ident()?;
        while self.eat_punct(".") {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    /// A `SKIP`/`LIMIT` count: a non-negative integer or a `$parameter`.
    fn count_term(&mut self) -> Result<CountTerm, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Number(n)) => {
                let parsed = n
                    .parse::<usize>()
                    .map(CountTerm::Count)
                    .map_err(|_| self.error(format!("expected a non-negative integer, got {n}")));
                self.pos += 1;
                parsed
            }
            Some(Tok::Param(name)) => {
                self.pos += 1;
                Ok(CountTerm::Parameter(name))
            }
            _ => Err(self.error("expected a non-negative integer or a $parameter")),
        }
    }

    // -- pattern ----------------------------------------------------------

    /// One node reference: `(var)`, `(var:Label)`. Returns `(var, label?)`.
    fn node_ref(&mut self) -> Result<(String, Option<String>), ParseError> {
        self.expect_punct("(")?;
        let var = self.ident()?;
        let label = if self.eat_punct(":") { Some(self.ident()?) } else { None };
        self.expect_punct(")")?;
        Ok((var, label))
    }

    /// One comma-part of a MATCH clause: a node reference optionally chained
    /// with `-[:label]->` edges.
    fn pattern_part(&mut self, pattern: &mut PatternSink<'_>) -> Result<(), ParseError> {
        let (var, label) = self.node_ref()?;
        let mut prev = pattern.bind(self, var, label)?;
        while self.eat_punct("-") {
            self.expect_punct("[")?;
            self.expect_punct(":")?;
            let edge_label = self.ident()?;
            self.expect_punct("]")?;
            self.expect_punct("->")?;
            let (var, label) = self.node_ref()?;
            let next = pattern.bind(self, var, label)?;
            pattern.edge(EdgePattern { label: edge_label, src: prev, dst: next.clone() });
            prev = next;
        }
        Ok(())
    }

    fn match_clause(&mut self, pattern: &mut PatternSink<'_>) -> Result<(), ParseError> {
        loop {
            self.pattern_part(pattern)?;
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(())
    }

    // -- WHERE ------------------------------------------------------------

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let var = self.ident()?;
        self.expect_punct(".")?;
        let property = self.property_name()?;
        let op = self.cmp_op()?;
        let value = self.term()?;
        Ok(Predicate { var, property, op, value })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        if self.eat_punct("=") {
            Ok(CmpOp::Eq)
        } else if self.eat_punct("!=") || self.eat_punct("<>") {
            Ok(CmpOp::Ne)
        } else if self.eat_punct("<=") {
            Ok(CmpOp::Le)
        } else if self.eat_punct(">=") {
            Ok(CmpOp::Ge)
        } else if self.eat_punct("<") {
            Ok(CmpOp::Lt)
        } else if self.eat_punct(">") {
            Ok(CmpOp::Gt)
        } else if self.eat_keyword("CONTAINS") {
            Ok(CmpOp::Contains)
        } else {
            Err(self.error("expected a comparison operator"))
        }
    }

    /// A `HAVING` predicate: an aggregate call compared against a term.
    fn having_predicate(&mut self) -> Result<HavingPredicate, ParseError> {
        let Some((agg, var, property)) = self.aggregate_call()? else {
            return Err(self.error("expected an aggregate call in the HAVING clause"));
        };
        let op = self.cmp_op()?;
        let value = self.term()?;
        Ok(HavingPredicate { agg, var, property, op, value })
    }

    /// A predicate right-hand side: a literal or a `$parameter`.
    fn term(&mut self) -> Result<Term, ParseError> {
        if let Some(Tok::Param(name)) = self.peek().cloned() {
            self.pos += 1;
            return Ok(Term::Parameter(name));
        }
        self.literal().map(Term::Literal)
    }

    fn literal(&mut self) -> Result<PropertyValue, ParseError> {
        if self.eat_keyword("true") {
            return Ok(PropertyValue::Bool(true));
        }
        if self.eat_keyword("false") {
            return Ok(PropertyValue::Bool(false));
        }
        if self.eat_keyword("null") {
            return Ok(PropertyValue::Null);
        }
        if self.eat_keyword("NaN") {
            return Ok(PropertyValue::Float(f64::NAN));
        }
        if self.eat_punct("[") {
            let mut items = Vec::new();
            if !self.eat_punct("]") {
                loop {
                    items.push(self.literal()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct("]")?;
            }
            return Ok(PropertyValue::List(items));
        }
        let negative = self.eat_punct("-");
        if self.eat_keyword("inf") {
            return Ok(PropertyValue::Float(if negative {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }));
        }
        match self.peek().cloned() {
            Some(Tok::Str(s)) if !negative => {
                self.pos += 1;
                Ok(PropertyValue::Str(s))
            }
            Some(Tok::Number(n)) => {
                self.pos += 1;
                let text = if negative { format!("-{n}") } else { n };
                if text.contains(['.', 'e', 'E']) {
                    text.parse::<f64>()
                        .map(PropertyValue::Float)
                        .map_err(|_| self.error(format!("invalid float literal {text}")))
                } else {
                    text.parse::<i64>()
                        .map(PropertyValue::Int)
                        .map_err(|_| self.error(format!("invalid integer literal {text}")))
                }
            }
            _ => Err(self.error(
                "expected a literal (string, number, boolean, null or list) or a $parameter",
            )),
        }
    }

    // -- RETURN -----------------------------------------------------------

    /// An aggregate-function call (`count(…)`, `sum(v.p)`,
    /// `size(collect(…))`, …), or `None` when the next tokens are not one
    /// (keeping their names usable as variables). Shared by RETURN items
    /// and HAVING predicates so both accept the same call surface.
    #[allow(clippy::type_complexity)]
    fn aggregate_call(
        &mut self,
    ) -> Result<Option<(Aggregate, String, Option<String>)>, ParseError> {
        if self.peek_call("count") {
            self.pos += 1;
            self.expect_punct("(")?;
            let distinct = self.eat_keyword("DISTINCT");
            let var = self.ident()?;
            let property = if self.eat_punct(".") { Some(self.property_name()?) } else { None };
            self.expect_punct(")")?;
            let agg = if distinct { Aggregate::CountDistinct } else { Aggregate::Count };
            return Ok(Some((agg, var, property)));
        }
        for (keyword, agg) in [
            ("sum", Aggregate::Sum),
            ("min", Aggregate::Min),
            ("max", Aggregate::Max),
            ("avg", Aggregate::Avg),
        ] {
            if self.peek_call(keyword) {
                self.pos += 1;
                self.expect_punct("(")?;
                let var = self.ident()?;
                if !self.eat_punct(".") {
                    return Err(self.error(format!("{keyword}() requires a v.property operand")));
                }
                let property = self.property_name()?;
                self.expect_punct(")")?;
                return Ok(Some((agg, var, Some(property))));
            }
        }
        if self.peek_call("size") {
            self.pos += 1;
            self.expect_punct("(")?;
            self.expect_keyword("collect")?;
            self.expect_punct("(")?;
            let var = self.ident()?;
            let property = if self.eat_punct(".") { Some(self.property_name()?) } else { None };
            self.expect_punct(")")?;
            self.expect_punct(")")?;
            return Ok(Some((Aggregate::CollectCount, var, property)));
        }
        Ok(None)
    }

    fn return_item(&mut self) -> Result<ReturnItem, ParseError> {
        if let Some((agg, var, property)) = self.aggregate_call()? {
            return Ok(ReturnItem::Aggregate { agg, var, property });
        }
        let var = self.ident()?;
        if self.eat_punct(".") {
            let property = self.property_name()?;
            Ok(ReturnItem::Property { var, property })
        } else {
            Ok(ReturnItem::Vertex { var })
        }
    }

    // -- statement --------------------------------------------------------

    fn statement(&mut self, name: String) -> Result<Statement, ParseError> {
        self.expect_keyword("MATCH")?;
        let mut nodes: Vec<NodePattern> = Vec::new();
        let mut edges: Vec<EdgePattern> = Vec::new();
        {
            let mut sink = PatternSink { nodes: &mut nodes, edges: &mut edges, known: Vec::new() };
            self.match_clause(&mut sink)?;
        }

        let mut opt_nodes: Vec<NodePattern> = Vec::new();
        let mut opt_edges: Vec<EdgePattern> = Vec::new();
        while self.peek_keyword("OPTIONAL") {
            self.pos += 1;
            self.expect_keyword("MATCH")?;
            let before = opt_edges.len();
            {
                let known: Vec<NodePattern> = nodes.clone();
                let mut sink = PatternSink { nodes: &mut opt_nodes, edges: &mut opt_edges, known };
                self.match_clause(&mut sink)?;
            }
            if opt_edges.len() == before {
                return Err(self.error("OPTIONAL MATCH requires at least one edge pattern"));
            }
        }

        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                predicates.push(self.predicate()?);
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }

        self.expect_keyword("RETURN")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut returns = Vec::new();
        loop {
            returns.push(self.return_item()?);
            if !self.eat_punct(",") {
                break;
            }
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.ident()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }

        let mut having = Vec::new();
        if self.eat_keyword("HAVING") {
            loop {
                having.push(self.having_predicate()?);
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let var = self.ident()?;
                self.expect_punct(".")?;
                let property = self.property_name()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    let _ = self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { var, property, descending });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }

        let skip = if self.eat_keyword("SKIP") { Some(self.count_term()?) } else { None };
        let limit = if self.eat_keyword("LIMIT") { Some(self.count_term()?) } else { None };

        if self.pos != self.tokens.len() {
            return Err(self.error("unexpected trailing input"));
        }

        let stmt = Statement {
            name,
            nodes,
            edges,
            returns,
            opt_nodes,
            opt_edges,
            predicates,
            distinct,
            group_by,
            having,
            order_by,
            skip,
            limit,
        };
        // Semantic checks, shared with the builder: every referenced
        // variable bound, aggregates where GROUP BY / HAVING need them.
        stmt.validate().map_err(|message| self.error(message))?;
        Ok(stmt)
    }
}

/// Collects node and edge patterns for one MATCH (or OPTIONAL MATCH) clause,
/// enforcing label consistency across repeated variable references.
struct PatternSink<'a> {
    nodes: &'a mut Vec<NodePattern>,
    edges: &'a mut Vec<EdgePattern>,
    /// Node patterns bound by *earlier* clauses (mandatory vars visible
    /// inside OPTIONAL MATCH): referencing one is allowed, re-declaring with
    /// a conflicting label is not, and bare references resolve against them.
    known: Vec<NodePattern>,
}

impl PatternSink<'_> {
    /// Registers a node reference, returning its variable name.
    fn bind(
        &mut self,
        parser: &Parser,
        var: String,
        label: Option<String>,
    ) -> Result<String, ParseError> {
        if let Some(existing) = self.nodes.iter().find(|n| n.var == var) {
            if let Some(label) = label {
                if existing.label != label {
                    return Err(parser.error(format!(
                        "variable {var} redeclared with label {label} (was {})",
                        existing.label
                    )));
                }
            }
            return Ok(var);
        }
        if let Some(existing) = self.known.iter().find(|n| n.var == var) {
            // Bound by an earlier clause; a bare or label-consistent
            // reference is fine, a conflicting label is an error.
            if let Some(label) = label {
                if existing.label != label {
                    return Err(parser.error(format!(
                        "variable {var} redeclared with label {label} (was {})",
                        existing.label
                    )));
                }
            }
            return Ok(var);
        }
        match label {
            Some(label) => {
                self.nodes.push(NodePattern { var: var.clone(), label });
                Ok(var)
            }
            None => Err(parser.error(format!("variable {var} used before it was declared"))),
        }
    }

    fn edge(&mut self, edge: EdgePattern) {
        self.edges.push(edge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Statement;

    /// The literal value of predicate `i`, panicking on a parameter.
    fn lit(stmt: &Statement, i: usize) -> &PropertyValue {
        stmt.predicates[i].value.as_literal().expect("literal predicate")
    }

    #[test]
    fn parses_the_motivating_statement() {
        let stmt = parse(
            "MATCH (d:Drug)-[:treat]->(i:Indication) WHERE d.name CONTAINS 'aspirin' \
             RETURN i.desc ORDER BY i.desc LIMIT 10",
        )
        .unwrap();
        assert_eq!(stmt.nodes.len(), 2);
        assert_eq!(stmt.edges.len(), 1);
        assert_eq!(stmt.predicates.len(), 1);
        assert_eq!(stmt.predicates[0].op, CmpOp::Contains);
        assert_eq!(lit(&stmt, 0).as_str(), Some("aspirin"));
        assert_eq!(stmt.order_by.len(), 1);
        assert_eq!(stmt.limit, Some(CountTerm::Count(10)));
        assert_eq!(stmt.skip, None);
    }

    #[test]
    fn parses_all_literal_kinds_and_operators() {
        let stmt = parse(
            "MATCH (a:A) WHERE a.x = 3 AND a.y != 2.5 AND a.z <> 'q' AND a.w <= -7 \
             AND a.v >= 1e3 AND a.u < true AND a.t > \"s\" AND a.s CONTAINS 'c' \
             RETURN a",
        )
        .unwrap();
        let ops: Vec<CmpOp> = stmt.predicates.iter().map(|p| p.op).collect();
        assert_eq!(
            ops,
            vec![
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Ne,
                CmpOp::Le,
                CmpOp::Ge,
                CmpOp::Lt,
                CmpOp::Gt,
                CmpOp::Contains
            ]
        );
        assert_eq!(lit(&stmt, 0), &PropertyValue::Int(3));
        assert_eq!(lit(&stmt, 1), &PropertyValue::Float(2.5));
        assert_eq!(lit(&stmt, 3), &PropertyValue::Int(-7));
        assert_eq!(lit(&stmt, 4), &PropertyValue::Float(1e3));
        assert_eq!(lit(&stmt, 5), &PropertyValue::Bool(true));
        assert_eq!(lit(&stmt, 6).as_str(), Some("s"));
    }

    #[test]
    fn every_literal_kind_round_trips_through_display() {
        // The serving layer persists prepared statements as text, so the
        // literal grammar must be total over PropertyValue: null, lists
        // (nested, with escapes) and non-finite floats included.
        let stmt = Statement::builder("totals")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "gone", CmpOp::Eq, PropertyValue::Null)
            .filter(
                "d",
                "tags",
                CmpOp::Contains,
                PropertyValue::List(vec![
                    PropertyValue::str("O'Brien"),
                    PropertyValue::Int(-3),
                    PropertyValue::Null,
                    PropertyValue::List(vec![PropertyValue::Bool(true)]),
                ]),
            )
            .filter("d", "x", CmpOp::Lt, PropertyValue::Float(f64::INFINITY))
            .filter("d", "y", CmpOp::Gt, PropertyValue::Float(f64::NEG_INFINITY))
            .build();
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt}\n{reparsed}");
        // NaN parses too (it can never satisfy structural equality — NaN is
        // not equal to itself — but it must not be a parse error).
        let nan = parse("MATCH (d:Drug) WHERE d.x = NaN RETURN d").unwrap();
        match nan.predicates[0].value.as_literal() {
            Some(PropertyValue::Float(v)) => assert!(v.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
        let empty = parse("MATCH (d:Drug) WHERE d.tags CONTAINS [] RETURN d").unwrap();
        assert_eq!(empty.predicates[0].value.as_literal(), Some(&PropertyValue::List(vec![])));
    }

    #[test]
    fn aggregate_names_stay_usable_as_variables() {
        // `sum`, `count` & co. are functions only when *called*; as plain
        // identifiers they keep working as variable names.
        let stmt = parse(
            "MATCH (sum:Drug)-[:treat]->(count:Indication) RETURN sum.name, count, min(count.desc)",
        )
        .unwrap();
        assert_eq!(stmt.nodes[0].var, "sum");
        assert!(matches!(&stmt.returns[0], ReturnItem::Property { var, .. } if var == "sum"));
        assert!(matches!(&stmt.returns[1], ReturnItem::Vertex { var } if var == "count"));
        assert!(matches!(&stmt.returns[2], ReturnItem::Aggregate { agg: Aggregate::Min, .. }));
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn parses_parameters_in_every_value_position() {
        let stmt = parse(
            "MATCH (d:Drug) WHERE d.name CONTAINS $needle AND d.strength >= $dose \
             RETURN d.name ORDER BY d.name SKIP $offset LIMIT $page",
        )
        .unwrap();
        assert!(stmt.has_parameters());
        assert_eq!(stmt.predicates[0].value, Term::Parameter("needle".into()));
        assert_eq!(stmt.predicates[1].value, Term::Parameter("dose".into()));
        assert_eq!(stmt.skip, Some(CountTerm::Parameter("offset".into())));
        assert_eq!(stmt.limit, Some(CountTerm::Parameter("page".into())));
        // Round-trip: Display emits `$name`, which re-parses identically.
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn parses_aggregate_functions_and_group_by() {
        let stmt = parse(
            "MATCH (d:Drug)-[:treat]->(i:Indication) \
             RETURN d.name, count(i), count(DISTINCT i.desc), sum(i.weight), \
             min(i.desc), max(i.desc), avg(i.weight) GROUP BY d ORDER BY d.name LIMIT 3",
        )
        .unwrap();
        assert!(stmt.is_aggregation());
        assert_eq!(stmt.group_by, vec!["d".to_string()]);
        let aggs: Vec<Aggregate> = stmt
            .returns
            .iter()
            .filter_map(|r| match r {
                ReturnItem::Aggregate { agg, .. } => Some(*agg),
                _ => None,
            })
            .collect();
        assert_eq!(
            aggs,
            vec![
                Aggregate::Count,
                Aggregate::CountDistinct,
                Aggregate::Sum,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Avg,
            ]
        );
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn parses_having_and_round_trips() {
        let stmt = parse(
            "MATCH (d:Drug)-[:treat]->(i:Indication) \
             RETURN d.name, count(i), avg(i.weight) GROUP BY d \
             HAVING count(i) >= 3 AND avg(i.weight) < $cap AND count(DISTINCT i.desc) > 1 \
             ORDER BY d.name LIMIT 5",
        )
        .unwrap();
        assert_eq!(stmt.having.len(), 3);
        assert_eq!(stmt.having[0].agg, Aggregate::Count);
        assert_eq!(stmt.having[0].var, "i");
        assert_eq!(stmt.having[0].property, None);
        assert_eq!(stmt.having[0].op, CmpOp::Ge);
        assert_eq!(stmt.having[1].agg, Aggregate::Avg);
        assert_eq!(stmt.having[1].value, Term::Parameter("cap".into()));
        assert_eq!(stmt.having[2].agg, Aggregate::CountDistinct);
        assert_eq!(stmt.having[2].property.as_deref(), Some("desc"));
        assert!(stmt.has_parameters());
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn having_accepts_every_aggregate_call_form() {
        let stmt = parse(
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN count(d) \
             HAVING count(d) > 0 AND size(collect(i.desc)) > 1 AND sum(i.weight) <= 9 \
             AND min(i.weight) >= 0 AND max(i.weight) < 5 AND count(i.desc) > 0",
        )
        .unwrap();
        let aggs: Vec<Aggregate> = stmt.having.iter().map(|h| h.agg).collect();
        assert_eq!(
            aggs,
            vec![
                Aggregate::Count,
                Aggregate::CollectCount,
                Aggregate::Sum,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Count,
            ]
        );
        // count(i.desc) keeps its property operand (presence counting).
        assert_eq!(stmt.having[5].property.as_deref(), Some("desc"));
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn rejects_malformed_having() {
        for (text, needle) in [
            (
                "MATCH (d:Drug) RETURN d.name HAVING count(d) > 1",
                "HAVING requires at least one aggregate",
            ),
            ("MATCH (d:Drug) RETURN count(d) HAVING d.name = 'x'", "expected an aggregate call"),
            ("MATCH (d:Drug) RETURN count(d) HAVING count(x) > 1", "unbound variable x"),
            ("MATCH (d:Drug) RETURN count(d) HAVING sum(d) > 1", "requires a v.property"),
            ("MATCH (d:Drug) RETURN count(d) HAVING count(d) 1", "comparison operator"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn parses_optional_match_and_distinct() {
        let stmt = parse(
            "MATCH (d:Drug) OPTIONAL MATCH (d)-[:treat]->(i:Indication) \
             RETURN DISTINCT d.name, i.desc SKIP 1 LIMIT 5",
        )
        .unwrap();
        assert!(stmt.distinct);
        assert_eq!(
            stmt.opt_nodes,
            vec![NodePattern { var: "i".into(), label: "Indication".into() }]
        );
        assert_eq!(stmt.opt_edges.len(), 1);
        assert_eq!(stmt.skip, Some(CountTerm::Count(1)));
        assert_eq!(stmt.limit, Some(CountTerm::Count(5)));
        assert!(stmt.is_optional_var("i"));
    }

    #[test]
    fn parses_aggregates_and_chained_patterns() {
        let stmt = parse(
            "MATCH (d:Drug)-[:has]->(di:DrugInteraction)-[:isA]->(dfi:DrugFoodInteraction) \
             RETURN count(d), size(collect(di.summary))",
        )
        .unwrap();
        assert_eq!(stmt.nodes.len(), 3);
        assert_eq!(stmt.edges.len(), 2);
        assert_eq!(stmt.edges[1].src, "di");
        assert!(stmt.is_aggregation());
    }

    #[test]
    fn parses_explicit_node_list_form() {
        let stmt = parse("MATCH (i:Indication), (d:Drug), (d)-[:treat]->(i) RETURN i.desc, d.name")
            .unwrap();
        assert_eq!(stmt.nodes[0].var, "i", "declared order preserved");
        assert_eq!(stmt.edges[0].src, "d");
    }

    #[test]
    fn parses_dotted_replicated_property_names() {
        let stmt = parse("MATCH (d:Drug) RETURN size(collect(d.Indication.desc))").unwrap();
        match &stmt.returns[0] {
            ReturnItem::Aggregate { property: Some(p), .. } => assert_eq!(p, "Indication.desc"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_statements() {
        for (text, needle) in [
            ("MATCH (d:Drug)", "expected keyword RETURN"),
            ("MATCH (d:Drug) RETURN x.name", "unbound variable x"),
            ("MATCH (d) RETURN d", "used before it was declared"),
            ("MATCH (d:Drug), (d:Pill) RETURN d", "redeclared"),
            (
                "MATCH (d:Drug) OPTIONAL MATCH (d:Pill)-[:treat]->(i:Indication) RETURN d",
                "redeclared",
            ),
            ("MATCH (d:Drug) WHERE d.name 3 RETURN d", "comparison operator"),
            ("MATCH (d:Drug) RETURN d.name LIMIT x", "non-negative integer"),
            ("MATCH (d:Drug) RETURN d.name trailing", "trailing"),
            ("MATCH (d:Drug) WHERE d.name = 'open RETURN d", "unterminated"),
            ("MATCH (d:Drug) OPTIONAL MATCH (x:X) RETURN d", "at least one edge"),
            ("MATCH (d:Drug) WHERE x.p = 1 RETURN d", "unbound variable x"),
            ("MATCH (d:Drug) RETURN d ORDER BY x.p", "unbound variable x"),
            ("MATCH (d:Drug) WHERE d.name = $ RETURN d", "parameter name"),
            ("MATCH (d:Drug) RETURN sum(d) GROUP BY d", "requires a v.property"),
            ("MATCH (d:Drug) RETURN d.name GROUP BY d", "requires at least one aggregate"),
            ("MATCH (d:Drug) RETURN count(d) GROUP BY x", "unbound variable x"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.message.contains(needle),
                "{text}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn optional_nodes_outside_every_optional_edge_are_rejected() {
        // `Display` renders optional nodes only through optional edges, so
        // an edge-less `(x:X)` part would silently vanish on round-trip.
        let text = "MATCH (d:Drug) OPTIONAL MATCH (x:X), (d)-[:treat]->(i:Indication) RETURN d";
        let err = parse(text).expect_err(text);
        assert_eq!(err.message, "optional node x is referenced by no optional edge");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let stmt = parse(
            "match (d:Drug) optional match (d)-[:treat]->(i:Indication) \
             where d.name contains 'x' return distinct d.name order by d.name desc limit 2",
        )
        .unwrap();
        assert!(stmt.distinct);
        assert!(stmt.order_by[0].descending);
        assert_eq!(stmt.limit, Some(CountTerm::Count(2)));
        let grouped = parse("match (d:Drug) return count(distinct d) group by d limit 1").unwrap();
        assert_eq!(grouped.group_by, vec!["d".to_string()]);
    }

    #[test]
    fn display_round_trips() {
        let stmt = Statement::builder("roundtrip")
            .node("d", "Drug")
            .node("i", "Indication")
            .edge("d", "treat", "i")
            .ret_property("d", "name")
            .ret_property("i", "desc")
            .opt_node("c", "Condition")
            .opt_edge("i", "hasCondition", "c")
            .filter("d", "name", CmpOp::Contains, "aspirin")
            .filter("i", "weight", CmpOp::Ge, PropertyValue::Float(2.5))
            .distinct()
            .order_by("i", "desc", true)
            .skip(3)
            .limit(7)
            .build();
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert!(stmt.structurally_eq(&reparsed), "{stmt} vs {reparsed}");
    }

    #[test]
    fn non_ascii_input_errors_cleanly_but_is_fine_inside_strings() {
        // Multi-byte characters outside string literals are a clean parse
        // error, never a panic (serve_text feeds untrusted input here).
        let err = parse("MATCH (d:Drug) RETURN d €").expect_err("non-ascii identifier");
        assert!(err.message.contains("unexpected character"), "{err}");
        let err = parse("MATCH (d:Drug) WHERE d.naïve = 1 RETURN d").expect_err("non-ascii ident");
        assert!(err.message.contains("unexpected character"), "{err}");
        // Inside string literals any UTF-8 is allowed.
        let stmt = parse("MATCH (d:Drug) WHERE d.name = 'é€ 漢字' RETURN d.name").unwrap();
        assert_eq!(lit(&stmt, 0).as_str(), Some("é€ 漢字"));
    }

    #[test]
    fn quotes_and_backslashes_escape_and_round_trip() {
        let stmt = parse(r"MATCH (d:Drug) WHERE d.name = 'O\'Brien \\ co' RETURN d.name").unwrap();
        assert_eq!(lit(&stmt, 0).as_str(), Some(r"O'Brien \ co"));
        // Display escapes what the tokenizer unescapes: full round-trip.
        let built = Statement::builder("q")
            .node("d", "Drug")
            .ret_property("d", "name")
            .filter("d", "name", CmpOp::Eq, r#"O'Brien "quoted" \ done"#)
            .build();
        let reparsed = parse(&built.to_string()).unwrap();
        assert!(built.structurally_eq(&reparsed), "{built}");
    }

    #[test]
    fn parse_named_sets_the_name() {
        let stmt = parse_named("MATCH (a:A) RETURN a", "Q1").unwrap();
        assert_eq!(stmt.name, "Q1");
        assert_eq!(parse("MATCH (a:A) RETURN a").unwrap().name, "stmt");
    }
}
