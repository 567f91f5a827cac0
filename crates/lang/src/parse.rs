//! Parser for the COQL concrete syntax.
//!
//! ```text
//! select [a: x.A, g: (select y.B from y in R where y.A = x.A)]
//! from x in R
//! where x.A = 'c' and x.B = 3
//! ```
//!
//! Conventions:
//! * identifiers starting with an **uppercase** letter are relation names
//!   (OQL style: `R`, `Emp`); lowercase identifiers are variables;
//! * constants are integers or `'quoted strings'`;
//! * `{E}` is a singleton, `{}` the empty set, `flatten(E)` flattening;
//! * `where` takes `and`-separated atomic equalities.

use std::fmt;

use co_cq::Var;
use co_object::{Atom, Field, Type};

use crate::ast::Expr;

/// Default nesting cap for [`parse_coql`]. Far deeper than any realistic
/// query, far shallower than the stack limit — hostile `{{{{…}}}}` input
/// (e.g. over the `coqld` TCP protocol) is rejected with a structured
/// [`ParseErrorKind::TooDeep`] error instead of overflowing the stack.
/// 128 leaves ample headroom even for debug builds on a 2 MiB thread
/// stack, where each level costs several sizeable frames.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// What category of failure a [`ParseError`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed input (the ordinary case).
    Syntax,
    /// Input nested deeper than the parser's depth cap. The input may be
    /// grammatically fine; it is rejected as a resource bound.
    TooDeep,
}

/// A parse error with byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
    /// Structured failure category (syntax vs. depth cap).
    pub kind: ParseErrorKind,
}

impl ParseError {
    /// Whether this error is the depth-cap rejection.
    pub fn is_too_deep(&self) -> bool {
        self.kind == ParseErrorKind::TooDeep
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "COQL parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Hard cap on the number of `or`-separated disjuncts a union query may
/// carry. Unions fan work out per disjunct downstream (one containment
/// kernel call per pair of disjuncts), so this bounds hostile
/// `q or q or q or …` input the same way [`DEFAULT_MAX_DEPTH`] bounds
/// hostile nesting.
pub const MAX_UNION_DISJUNCTS: usize = 64;

/// Parses a COQL expression under the default depth cap.
pub fn parse_coql(input: &str) -> Result<Expr, ParseError> {
    parse_coql_with_depth(input, DEFAULT_MAX_DEPTH)
}

/// Parses a top-level union query `expr (or expr)*` under the default
/// depth cap. A single expression is the degenerate one-disjunct union,
/// so every plain COQL query is also a valid union query.
pub fn parse_union_coql(input: &str) -> Result<Vec<Expr>, ParseError> {
    parse_union_coql_with_depth(input, DEFAULT_MAX_DEPTH)
}

/// Parses a top-level union query, rejecting nesting deeper than
/// `max_depth` and more than [`MAX_UNION_DISJUNCTS`] disjuncts.
///
/// `or` binds loosest: each disjunct is a full COQL expression, and the
/// keyword is only recognized at a word boundary (so `selector` stays an
/// identifier). Disjunction is **not** part of the conjunctive [`Expr`]
/// AST — the union is returned as the list of its disjuncts, in source
/// order.
pub fn parse_union_coql_with_depth(input: &str, max_depth: usize) -> Result<Vec<Expr>, ParseError> {
    let mut p = P { s: input.as_bytes(), pos: 0, depth: 0, max_depth };
    let mut disjuncts = Vec::new();
    loop {
        p.ws();
        disjuncts.push(p.expr()?);
        p.ws();
        if !p.keyword("or") {
            break;
        }
        if disjuncts.len() >= MAX_UNION_DISJUNCTS {
            return Err(p.err(&format!("union has more than {MAX_UNION_DISJUNCTS} disjuncts")));
        }
    }
    if p.pos != p.s.len() {
        return Err(p.err("trailing input"));
    }
    Ok(disjuncts)
}

/// Parses a COQL expression, rejecting nesting deeper than `max_depth`
/// with [`ParseErrorKind::TooDeep`].
pub fn parse_coql_with_depth(input: &str, max_depth: usize) -> Result<Expr, ParseError> {
    let mut p = P { s: input.as_bytes(), pos: 0, depth: 0, max_depth };
    p.ws();
    let e = p.expr()?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> P<'a> {
    fn err(&self, m: &str) -> ParseError {
        ParseError { position: self.pos, message: m.to_string(), kind: ParseErrorKind::Syntax }
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            position: self.pos,
            message: format!("expression nested deeper than {} levels", self.max_depth),
            kind: ParseErrorKind::TooDeep,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    /// Consumes a keyword if present at a word boundary.
    fn keyword(&mut self, word: &str) -> bool {
        let bytes = word.as_bytes();
        if !self.s[self.pos..].starts_with(bytes) {
            return false;
        }
        let after = self.s.get(self.pos + bytes.len()).copied();
        if after.is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            return false;
        }
        self.pos += bytes.len();
        true
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        if !self.peek().is_some_and(|c| c.is_ascii_alphabetic() || c == b'_') {
            return Err(self.err("expected identifier"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.s[start..self.pos]).expect("ascii").to_string())
    }

    /// Every recursive production funnels through here, so one depth
    /// counter bounds the whole parse (select heads, generators,
    /// conditions, records, sets, parens, flatten).
    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.depth >= self.max_depth {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let e = self.expr_inner();
        self.depth -= 1;
        e
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        self.ws();
        if self.keyword("select") {
            return self.select();
        }
        if self.keyword("flatten") {
            self.ws();
            self.expect(b'(')?;
            let e = self.expr()?;
            self.ws();
            self.expect(b')')?;
            return Ok(e.flatten());
        }
        self.postfix()
    }

    fn select(&mut self) -> Result<Expr, ParseError> {
        let head = self.expr()?;
        self.ws();
        if !self.keyword("from") {
            return Err(self.err("expected `from`"));
        }
        let mut bindings = Vec::new();
        loop {
            self.ws();
            let name = self.ident()?;
            self.ws();
            if !self.keyword("in") {
                return Err(self.err("expected `in`"));
            }
            let gen = self.expr()?;
            bindings.push((Var::new(&name), gen));
            self.ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut conds = Vec::new();
        self.ws();
        if self.keyword("where") {
            loop {
                let lhs = self.expr()?;
                self.ws();
                self.expect(b'=')?;
                let rhs = self.expr()?;
                conds.push((lhs, rhs));
                self.ws();
                if !self.keyword("and") {
                    break;
                }
            }
        }
        Ok(Expr::Select { head: Box::new(head), bindings, conds })
    }

    /// Primary expression followed by `.field` projections.
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.peek() == Some(b'.') {
                self.pos += 1;
                let field = self.ident()?;
                e = Expr::Proj(Box::new(e), Field::new(&field));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        self.ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                self.ws();
                self.expect(b')')?;
                Ok(e)
            }
            Some(b'[') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Expr::Record(fields));
                }
                loop {
                    self.ws();
                    let name = self.ident()?;
                    self.ws();
                    self.expect(b':')?;
                    let e = self.expr()?;
                    fields.push((Field::new(&name), e));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
                Ok(Expr::Record(fields))
            }
            Some(b'{') => {
                self.pos += 1;
                self.ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Expr::EmptySet(Type::Bottom));
                }
                let e = self.expr()?;
                self.ws();
                self.expect(b'}')?;
                Ok(e.singleton())
            }
            Some(b'\'') => {
                self.pos += 1;
                let mut bytes = Vec::new();
                loop {
                    match self.peek() {
                        Some(b'\'') => {
                            self.pos += 1;
                            break;
                        }
                        Some(c) => {
                            bytes.push(c);
                            self.pos += 1;
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
                let out =
                    String::from_utf8(bytes).map_err(|_| self.err("invalid UTF-8 in string"))?;
                Ok(Expr::Const(Atom::str(&out)))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                while self.peek().is_some_and(|d| d.is_ascii_digit()) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii");
                let n: i64 = text.parse().map_err(|_| self.err("invalid integer"))?;
                Ok(Expr::Const(Atom::int(n)))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident()?;
                let first = name.chars().next().expect("non-empty");
                if first.is_ascii_uppercase() {
                    Ok(Expr::Rel(co_cq::RelName::new(&name)))
                } else {
                    Ok(Expr::Var(Var::new(&name)))
                }
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_headline_example() {
        let src = "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] \
                   from x in R where x.A = 'c' and x.B = 3";
        let e = parse_coql(src).unwrap();
        match &e {
            Expr::Select { bindings, conds, .. } => {
                assert_eq!(bindings.len(), 1);
                assert_eq!(conds.len(), 2);
            }
            other => panic!("expected select, got {other}"),
        }
    }

    #[test]
    fn case_determines_relation_vs_variable() {
        assert!(matches!(parse_coql("R").unwrap(), Expr::Rel(_)));
        assert!(matches!(parse_coql("x").unwrap(), Expr::Var(_)));
    }

    #[test]
    fn sets_and_flatten() {
        assert!(matches!(parse_coql("{}").unwrap(), Expr::EmptySet(_)));
        assert!(matches!(parse_coql("{1}").unwrap(), Expr::Singleton(_)));
        assert!(matches!(parse_coql("flatten({R})").unwrap(), Expr::Flatten(_)));
    }

    #[test]
    fn projections_chain() {
        let e = parse_coql("x.A.B").unwrap();
        assert_eq!(e.to_string(), "x.A.B");
    }

    #[test]
    fn keywords_need_boundaries() {
        // `selector` is an identifier, not `select` + `or`.
        assert!(matches!(parse_coql("selector").unwrap(), Expr::Var(_)));
        // `fromage` inside a select must not terminate the head.
        let e = parse_coql("select fromage from x in R");
        assert!(e.is_ok());
    }

    #[test]
    fn display_parse_roundtrip() {
        let sources = [
            "select [a: x.A] from x in R where x.B = 1",
            "select y.B from y in R, z in S where y.A = z.A",
            "flatten(select {x.A} from x in R)",
            "{[a: 1, b: {2}]}",
        ];
        for src in sources {
            let e = parse_coql(src).unwrap();
            let e2 = parse_coql(&e.to_string()).unwrap();
            assert_eq!(e, e2, "{src}");
        }
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse_coql("select x from").is_err());
        assert!(parse_coql("select x from x R").is_err());
        assert!(parse_coql("[a 1]").is_err());
        assert!(parse_coql("x.").is_err());
        assert!(parse_coql("{1, 2}").is_err(), "multi-element sets are not COQL");
    }

    #[test]
    fn unions_split_on_or_at_word_boundaries() {
        let ds = parse_union_coql(
            "select x.A from x in R or select y.A from y in R where y.B = 1 or select z.C from z in S",
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        // A single expression is the degenerate one-disjunct union.
        assert_eq!(parse_union_coql("select x.A from x in R").unwrap().len(), 1);
        // `or` needs a word boundary: `selector` is one identifier…
        assert_eq!(parse_union_coql("selector").unwrap().len(), 1);
        // …and `orb` after a disjunct is trailing input, not `or` + `b`.
        assert!(parse_union_coql("x orb").is_err());
        // A trailing `or` with nothing after it is a syntax error.
        assert!(parse_union_coql("x or").is_err());
    }

    #[test]
    fn union_caps_are_enforced() {
        let at_cap = vec!["R"; MAX_UNION_DISJUNCTS].join(" or ");
        assert_eq!(parse_union_coql(&at_cap).unwrap().len(), MAX_UNION_DISJUNCTS);
        let over = vec!["R"; MAX_UNION_DISJUNCTS + 1].join(" or ");
        let e = parse_union_coql(&over).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Syntax);
        assert!(e.message.contains("disjuncts"), "{e}");
        // The depth cap applies inside each disjunct.
        let nested = format!("R or {}1{}", "{".repeat(16), "}".repeat(16));
        assert!(parse_union_coql_with_depth(&nested, 17).is_ok());
        assert!(parse_union_coql_with_depth(&nested, 8).unwrap_err().is_too_deep());
    }

    #[test]
    fn depth_cap_is_a_structured_error() {
        // Hostile 100k-deep nesting in each recursive production: the
        // parser must answer TooDeep, never overflow the stack — this is
        // the text a TCP client can feed coqld.
        for open in ["{", "(", "[a: ", "flatten("] {
            let hostile = open.repeat(100_000);
            let e = parse_coql(&hostile).unwrap_err();
            assert!(e.is_too_deep(), "`{open}`×100k → {e}");
        }
        // Nested selects recurse through the same guard.
        let selects = "select (".repeat(100_000);
        assert!(parse_coql(&selects).unwrap_err().is_too_deep());
        // The cap is configurable; legitimate nesting under it still parses.
        let nested = format!("{}1{}", "{".repeat(16), "}".repeat(16));
        assert!(parse_coql_with_depth(&nested, 17).is_ok());
        assert!(parse_coql_with_depth(&nested, 8).unwrap_err().is_too_deep());
        // Ordinary failures stay classified as Syntax.
        assert_eq!(parse_coql("select x from").unwrap_err().kind, ParseErrorKind::Syntax);
    }
}
