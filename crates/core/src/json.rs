//! A minimal JSON layer for wrapper artifacts.
//!
//! The build environment pins all external dependencies to offline stubs
//! (see `compat/` at the workspace root), so the `WrapperBundle` persistence
//! cannot lean on `serde_json`.  This module implements the small, fully
//! deterministic subset the artifacts need: a [`JsonValue`] tree with
//! order-preserving objects, a strict recursive-descent parser and a pretty
//! printer whose output round-trips byte-identically.

use std::fmt::Write as _;

/// A JSON value.  Object member order is preserved so that
/// serialize → parse → serialize round-trips are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u32`, if it is a non-negative integral number.
    pub fn as_u32(&self) -> Option<u32> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= f64::from(u32::MAX) && n.fract() == 0.0 {
            Some(n as u32)
        } else {
            None
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, `\n` line
    /// ends, no trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Renders the value as compact single-line JSON (no whitespace at all).
    ///
    /// This is the line format of the registry's append-only version logs:
    /// one record per line, every byte significant, so a torn or corrupted
    /// line is detectable and the `\n` terminator doubles as the record
    /// commit marker.  Parsing the output yields an identical value, and
    /// re-rendering a parsed compact line reproduces it byte-for-byte
    /// (object member order is preserved).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input at which the error was detected.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse_json`] accepts (serde_json's
/// default).  The parser recurses once per level, and so does dropping the
/// parsed value, so without a cap a request body of a million `[` would
/// overflow a worker's stack and abort the process.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (a single value followed by optional whitespace).
/// Arrays and objects nested more than 128 levels deep are an error.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain UTF-8 bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not needed by the artifacts;
                            // reject them instead of mis-decoding.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape outside the BMP"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let value = JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(1.0)),
            ("label".into(), JsonValue::String("ex \"quoted\"\n".into())),
            (
                "entries".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![
                        ("score".into(), JsonValue::Number(13.5)),
                        ("tp".into(), JsonValue::Number(3.0)),
                        ("exact".into(), JsonValue::Bool(true)),
                        ("note".into(), JsonValue::Null),
                    ]),
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let text = value.to_pretty();
        let reparsed = parse_json(&text).unwrap();
        assert_eq!(reparsed, value);
        // Byte-identical second round trip.
        assert_eq!(reparsed.to_pretty(), text);
    }

    #[test]
    fn compact_rendering_round_trips_and_has_no_whitespace() {
        let value = JsonValue::Object(vec![
            ("n".into(), JsonValue::Number(1.5)),
            ("s".into(), JsonValue::String("a \"b\"\n".into())),
            (
                "a".into(),
                JsonValue::Array(vec![
                    JsonValue::Null,
                    JsonValue::Bool(false),
                    JsonValue::Object(vec![]),
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let compact = value.to_compact();
        assert_eq!(
            compact,
            "{\"n\":1.5,\"s\":\"a \\\"b\\\"\\n\",\"a\":[null,false,{},[]]}"
        );
        let reparsed = parse_json(&compact).unwrap();
        assert_eq!(reparsed, value);
        // Byte-identical second round trip (object order preserved).
        assert_eq!(reparsed.to_compact(), compact);
        // Compact and pretty agree on the value.
        assert_eq!(parse_json(&value.to_pretty()).unwrap(), reparsed);
    }

    #[test]
    fn accessors() {
        let v = parse_json(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u32), Some(3));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        assert!(v.get("missing").is_none());
        assert_eq!(JsonValue::Number(1.5).as_u32(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u32(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "[01x]",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse_json("{\"a\": }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}null{}", "{\"k\":".repeat(levels), "}".repeat(levels));
        for nested in [arrays, objects] {
            assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
            let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn a_million_open_brackets_fail_on_a_default_worker_stack() {
        // Without the cap this recursed a million frames deep and aborted
        // the process with a stack overflow.
        let worker = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| parse_json(&"[".repeat(1_000_000)).is_err())
            .unwrap();
        assert!(worker.join().unwrap());
    }

    #[test]
    fn numbers_render_integers_without_fraction() {
        assert_eq!(JsonValue::Number(5.0).to_pretty(), "5");
        assert_eq!(JsonValue::Number(-2.0).to_pretty(), "-2");
        assert_eq!(JsonValue::Number(2.5).to_pretty(), "2.5");
        let roundtrip = parse_json(&JsonValue::Number(0.1).to_pretty()).unwrap();
        assert_eq!(roundtrip.as_f64(), Some(0.1));
    }

    #[test]
    fn escapes_round_trip() {
        let s = JsonValue::String("tab\there \\ \"q\" \u{0001}".into());
        let text = s.to_pretty();
        assert_eq!(parse_json(&text).unwrap(), s);
    }
}
