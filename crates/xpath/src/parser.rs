//! Parser for the textual XPath syntax.
//!
//! The parser accepts the dsXPath fragment of the paper as well as the
//! abbreviations and extensions used by canonical paths and human wrappers:
//!
//! * explicit axes: `descendant::div`, `following-sibling::tr`, …
//! * abbreviated child steps: `div[1]` (as in canonical paths
//!   `/html[1]/body[1]/...`),
//! * the `//` abbreviation for `descendant-or-self::node()/` (normalised to a
//!   `descendant` step where possible),
//! * attribute steps `@src` and attribute tests `[@class]`,
//! * equality shorthand `[@class="x"]`, `[.="x"]`,
//! * string functions `contains(., "x")`, `starts-with(@id, "x")`,
//!   `ends-with(…)`, `equals(…)`, with `normalize-space(.)` accepted for the
//!   first argument,
//! * positional predicates `[3]`, `[last()]`, `[last()-2]`,
//! * nested relative path predicates `[ancestor::div[1][@class="c"]]`.

use crate::ast::{Axis, NodeTest, Predicate, Query, Step, StringFunction, TextSource};
use std::fmt;

/// Error produced when a query string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error occurred.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply path predicates may nest (`a[b[c]]` nests two levels).  The
/// parser, the evaluator and `Drop` all recurse once per level, so an
/// unbounded depth read from a bundle file could overflow a thread's stack.
const MAX_DEPTH: usize = 128;

/// Parses a query string into a [`Query`].  Path predicates nested more than
/// 128 levels deep are an error.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(q)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Path predicates currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        self.skip_ws();
        let mut absolute = false;
        let mut steps: Vec<Step> = Vec::new();

        // A single "." is the empty (context) query.
        if self.peek() == Some(b'.') && self.peek_at(1).is_none_or(|b| b == b' ') {
            // Only if the whole remaining input is ".".
            let rest = self.input[self.pos..].trim();
            if rest == "." {
                self.pos = self.bytes.len();
                return Ok(Query::empty());
            }
        }

        if self.eat(b'/') {
            absolute = true;
            if self.eat(b'/') {
                // Leading // : descendant step follows.
                let mut step = self.parse_step()?;
                if step.axis == Axis::Child {
                    step.axis = Axis::Descendant;
                }
                steps.push(step);
            } else if self.peek().is_none() {
                return Ok(Query::absolute(steps));
            } else {
                steps.push(self.parse_step()?);
            }
        } else {
            steps.push(self.parse_step()?);
        }

        loop {
            self.skip_ws();
            if !self.eat(b'/') {
                break;
            }
            if self.eat(b'/') {
                let mut step = self.parse_step()?;
                if step.axis == Axis::Child {
                    step.axis = Axis::Descendant;
                }
                steps.push(step);
            } else {
                steps.push(self.parse_step()?);
            }
        }

        Ok(Query { absolute, steps })
    }

    fn parse_step(&mut self) -> Result<Step, ParseError> {
        self.skip_ws();
        // Attribute abbreviation @name
        if self.eat(b'@') {
            let name = self.parse_name()?;
            let mut step = Step::new(Axis::Attribute, NodeTest::Tag(name));
            self.parse_predicates(&mut step)?;
            return Ok(step);
        }
        // ".." = parent::node()
        if self.peek() == Some(b'.') && self.peek_at(1) == Some(b'.') {
            self.pos += 2;
            let mut step = Step::new(Axis::Parent, NodeTest::AnyNode);
            self.parse_predicates(&mut step)?;
            return Ok(step);
        }

        // Try "axis::" prefix.
        let start = self.pos;
        let name = self.parse_name_or_star()?;
        let axis;
        let test;
        if self.peek() == Some(b':') && self.peek_at(1) == Some(b':') {
            let ax =
                Axis::from_name(&name).ok_or_else(|| self.err(format!("unknown axis '{name}'")))?;
            self.pos += 2;
            axis = ax;
            if axis == Axis::Attribute {
                let attr_name = self.parse_name_or_star()?;
                test = if attr_name == "*" {
                    NodeTest::AnyElement
                } else {
                    NodeTest::Tag(attr_name)
                };
            } else {
                test = self.parse_node_test()?;
            }
        } else {
            // Abbreviated child step; `name` is the node test (possibly a
            // function-style test like node() or text()).
            axis = Axis::Child;
            self.pos = start;
            test = self.parse_node_test()?;
        }
        let mut step = Step::new(axis, test);
        self.parse_predicates(&mut step)?;
        Ok(step)
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, ParseError> {
        self.skip_ws();
        if self.eat(b'*') {
            return Ok(NodeTest::AnyElement);
        }
        let name = self.parse_name()?;
        if self.peek() == Some(b'(') {
            self.pos += 1;
            self.skip_ws();
            self.expect(b')')?;
            return match name.as_str() {
                "node" => Ok(NodeTest::AnyNode),
                "text" => Ok(NodeTest::Text),
                other => Err(self.err(format!("unknown node test '{other}()'"))),
            };
        }
        Ok(NodeTest::Tag(name))
    }

    fn parse_name_or_star(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.eat(b'*') {
            return Ok("*".to_string());
        }
        self.parse_name()
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_predicates(&mut self, step: &mut Step) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(());
            }
            let pred = self.parse_predicate()?;
            self.skip_ws();
            self.expect(b']')?;
            step.predicates.push(pred);
        }
    }

    fn parse_predicate(&mut self) -> Result<Predicate, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b.is_ascii_digit() => {
                let n = self.parse_number()?;
                Ok(Predicate::Position(n))
            }
            Some(b'@') => {
                self.pos += 1;
                let name = self.parse_name()?;
                self.skip_ws();
                if self.eat(b'=') {
                    let value = self.parse_string()?;
                    Ok(Predicate::StringCompare {
                        func: StringFunction::Equals,
                        source: TextSource::Attribute(name),
                        value,
                    })
                } else {
                    Ok(Predicate::HasAttribute(name))
                }
            }
            Some(b'.') => {
                self.pos += 1;
                self.skip_ws();
                self.expect(b'=')?;
                let value = self.parse_string()?;
                Ok(Predicate::StringCompare {
                    func: StringFunction::Equals,
                    source: TextSource::NormalizedText,
                    value,
                })
            }
            _ => {
                // Either `last()...`, a string function call, a nested path,
                // or `position()=n` (not in the fragment, rejected).
                let start = self.pos;
                let name = self.parse_name()?;
                self.skip_ws();
                match (name.as_str(), self.peek()) {
                    ("last", Some(b'(')) => {
                        self.pos += 1;
                        self.skip_ws();
                        self.expect(b')')?;
                        self.skip_ws();
                        if self.eat(b'-') {
                            let n = self.parse_number()?;
                            Ok(Predicate::LastOffset(n))
                        } else {
                            Ok(Predicate::LastOffset(0))
                        }
                    }
                    ("contains" | "starts-with" | "ends-with" | "equals", Some(b'(')) => {
                        let func = match name.as_str() {
                            "contains" => StringFunction::Contains,
                            "starts-with" => StringFunction::StartsWith,
                            "ends-with" => StringFunction::EndsWith,
                            _ => StringFunction::Equals,
                        };
                        self.pos += 1; // '('
                        let source = self.parse_text_source()?;
                        self.skip_ws();
                        self.expect(b',')?;
                        let value = self.parse_string()?;
                        self.skip_ws();
                        self.expect(b')')?;
                        Ok(Predicate::StringCompare {
                            func,
                            source,
                            value,
                        })
                    }
                    ("normalize-space", Some(b'(')) => {
                        // normalize-space(.)="x"
                        self.pos += 1;
                        self.skip_ws();
                        self.expect(b'.')?;
                        self.skip_ws();
                        self.expect(b')')?;
                        self.skip_ws();
                        self.expect(b'=')?;
                        let value = self.parse_string()?;
                        Ok(Predicate::StringCompare {
                            func: StringFunction::Equals,
                            source: TextSource::NormalizedText,
                            value,
                        })
                    }
                    _ => {
                        // Nested relative path predicate: rewind and parse a
                        // full query until the matching ']'.
                        self.pos = start;
                        if self.depth == MAX_DEPTH {
                            return Err(self.err(format!(
                                "path predicates nested deeper than {MAX_DEPTH} levels"
                            )));
                        }
                        self.depth += 1;
                        let q = self.parse_query()?;
                        self.depth -= 1;
                        Ok(Predicate::Path(q))
                    }
                }
            }
        }
    }

    fn parse_text_source(&mut self) -> Result<TextSource, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let name = self.parse_name()?;
                Ok(TextSource::Attribute(name))
            }
            Some(b'.') => {
                self.pos += 1;
                Ok(TextSource::NormalizedText)
            }
            _ => {
                let name = self.parse_name()?;
                self.skip_ws();
                match name.as_str() {
                    "normalize-space" => {
                        self.expect(b'(')?;
                        self.skip_ws();
                        self.expect(b'.')?;
                        self.skip_ws();
                        self.expect(b')')?;
                        Ok(TextSource::NormalizedText)
                    }
                    "attribute" => {
                        self.expect(b':')?;
                        self.expect(b':')?;
                        let attr = self.parse_name()?;
                        Ok(TextSource::Attribute(attr))
                    }
                    other => Err(self.err(format!("unexpected content expression '{other}'"))),
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a number"));
        }
        self.input[start..self.pos]
            .parse::<u32>()
            .map_err(|_| self.err("number out of range"))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected a quoted string")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let s = self.input[start..self.pos].to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axis, NodeTest, Predicate, StringFunction, TextSource};

    fn roundtrip(s: &str) -> String {
        parse_query(s).unwrap().to_string()
    }

    #[test]
    fn parses_paper_director_wrapper() {
        let q = parse_query(
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
        )
        .unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[0].axis, Axis::Descendant);
        assert_eq!(q.steps[0].test, NodeTest::tag("div"));
        assert_eq!(
            q.steps[0].predicates[0],
            Predicate::text_fn(StringFunction::StartsWith, "Director:")
        );
        assert_eq!(
            q.steps[1].predicates[0],
            Predicate::attr_equals("itemprop", "name")
        );
        assert!(!q.absolute);
    }

    #[test]
    fn parses_canonical_path() {
        let q = parse_query("/html[1]/body[1]/div[4]/a[1]/span[1]").unwrap();
        assert!(q.absolute);
        assert_eq!(q.steps.len(), 5);
        assert!(q.steps.iter().all(|s| s.axis == Axis::Child));
        assert_eq!(q.steps[2].predicates[0], Predicate::Position(4));
        assert_eq!(
            q.to_string(),
            "/child::html[1]/child::body[1]/child::div[4]/child::a[1]/child::span[1]"
        );
    }

    #[test]
    fn parses_positional_and_last() {
        let q = parse_query("descendant::input[@type=\"text\"][last()]").unwrap();
        assert_eq!(q.steps[0].predicates[1], Predicate::LastOffset(0));
        let q = parse_query("child::tr[last()-3]").unwrap();
        assert_eq!(q.steps[0].predicates[0], Predicate::LastOffset(3));
    }

    #[test]
    fn parses_attribute_steps_and_tests() {
        let q = parse_query("descendant::a/@href").unwrap();
        assert_eq!(q.steps[1].axis, Axis::Attribute);
        assert_eq!(q.steps[1].test, NodeTest::tag("href"));
        let q = parse_query("descendant::div[@id]").unwrap();
        assert_eq!(
            q.steps[0].predicates[0],
            Predicate::HasAttribute("id".into())
        );
        let q = parse_query("attribute::class").unwrap();
        assert_eq!(q.steps[0].axis, Axis::Attribute);
    }

    #[test]
    fn parses_functions_on_attributes() {
        let q = parse_query(r#"descendant::img[contains(@class,"adv")]"#).unwrap();
        assert_eq!(
            q.steps[0].predicates[0],
            Predicate::StringCompare {
                func: StringFunction::Contains,
                source: TextSource::Attribute("class".into()),
                value: "adv".into()
            }
        );
        let q = parse_query(r#"descendant::p[starts-with(normalize-space(.),"Top")]"#).unwrap();
        assert_eq!(
            q.steps[0].predicates[0],
            Predicate::text_fn(StringFunction::StartsWith, "Top")
        );
        let q = parse_query(r#"descendant::a[ends-with(@href,".pdf")]"#).unwrap();
        assert_eq!(q.steps[0].predicates[0].string_constant(), Some(".pdf"));
    }

    #[test]
    fn parses_sideways_and_node_tests() {
        let q = parse_query(
            r#"descendant::div[@class="tvgrid"]/following-sibling::node()/descendant::li"#,
        )
        .unwrap();
        assert_eq!(q.steps[1].axis, Axis::FollowingSibling);
        assert_eq!(q.steps[1].test, NodeTest::AnyNode);
        assert_eq!(q.steps[2].test, NodeTest::tag("li"));
        let q = parse_query("child::text()").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::Text);
        let q = parse_query("descendant::*[@id=\"x\"]").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::AnyElement);
    }

    #[test]
    fn parses_nested_path_predicate() {
        let q =
            parse_query(r#"descendant::img[ancestor::div[1][@class="contentSmLeft"]]"#).unwrap();
        match &q.steps[0].predicates[0] {
            Predicate::Path(inner) => {
                assert_eq!(inner.steps.len(), 1);
                assert_eq!(inner.steps[0].axis, Axis::Ancestor);
                assert_eq!(inner.steps[0].predicates.len(), 2);
            }
            other => panic!("expected path predicate, got {other:?}"),
        }
    }

    #[test]
    fn parses_human_wrapper_with_following_axis() {
        let q = parse_query(r#"descendant::p[contains(., "Hit")]/following::ul[1]/descendant::li"#)
            .unwrap();
        assert_eq!(q.steps[1].axis, Axis::Following);
        assert_eq!(q.steps[1].predicates[0], Predicate::Position(1));
    }

    #[test]
    fn parses_abbreviations() {
        let q = parse_query("//div[@id='main']//span").unwrap();
        assert_eq!(q.steps[0].axis, Axis::Descendant);
        assert_eq!(q.steps[1].axis, Axis::Descendant);
        assert!(q.absolute);
        let q = parse_query("div/span").unwrap();
        assert_eq!(q.steps[0].axis, Axis::Child);
        let q = parse_query("..").unwrap();
        assert_eq!(q.steps[0].axis, Axis::Parent);
        let q = parse_query(".").unwrap();
        assert!(q.is_empty());
        let q = parse_query("/").unwrap();
        assert!(q.absolute && q.is_empty());
    }

    #[test]
    fn single_quotes_accepted() {
        let q = parse_query("descendant::div[@id='x y']").unwrap();
        assert_eq!(q.steps[0].predicates[0].string_constant(), Some("x y"));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for s in [
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#,
            r#"descendant::img[@class="adv"][1]"#,
            r#"descendant::tr[contains(.,"News")]/following-sibling::tr"#,
            r#"descendant::input[@type="text"][last()]"#,
            r#"descendant::img[ancestor::div[1][@class="contentSmLeft"]]"#,
            r#"descendant::a[contains(@class,"hpCH2")]/preceding-sibling::a[contains(@class,"hpCH")]"#,
            "child::node()[@id]",
            "descendant::h3[@class=\"f-quote\"]",
            "parent::div/child::span[3]",
            "ancestor::table[last()-1]/child::tr[2]",
        ] {
            let once = roundtrip(s);
            let twice = roundtrip(&once);
            assert_eq!(once, twice, "round-trip not stable for {s}");
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("").is_err());
        assert!(parse_query("descendant::").is_err());
        assert!(parse_query("bogusaxis::div").is_err());
        assert!(parse_query("descendant::div[").is_err());
        assert!(parse_query("descendant::div[@id=\"unterminated]").is_err());
        assert!(parse_query("descendant::div]extra").is_err());
        assert!(parse_query("descendant::foo()").is_err());
    }

    #[test]
    fn path_nesting_is_capped_at_max_depth() {
        let nested = |levels: usize| {
            format!(
                "{}descendant::a{}",
                "descendant::a[".repeat(levels),
                "]".repeat(levels)
            )
        };
        // A default worker-sized stack: an uncapped parse of 10,000 levels
        // overflows it and aborts the process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let deepest = parse_query(&nested(MAX_DEPTH)).unwrap();
                assert_eq!(parse_query(&deepest.to_string()).unwrap(), deepest);
                let err = parse_query(&nested(MAX_DEPTH + 1)).unwrap_err();
                assert!(err.message.contains("nested"), "{err}");
                assert!(parse_query(&nested(10_000)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn whitespace_tolerated() {
        let q = parse_query("  descendant::div[ @id = \"a\" ] / child::span [ 2 ]  ").unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[1].predicates[0], Predicate::Position(2));
    }
}
