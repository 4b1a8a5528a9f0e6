//! A small, tolerant HTML parser.
//!
//! The parser is intentionally forgiving — real-world archive snapshots (which
//! the paper's evaluation is built on) are frequently broken, and the
//! synthetic archive in `wi-webgen` emulates that by serving malformed
//! snapshots from time to time.  The parser therefore follows the usual
//! "tag soup" conventions:
//!
//! * unknown or unclosed elements are closed implicitly at end of input,
//! * void elements (`<img>`, `<br>`, …) never take children,
//! * stray end tags are ignored,
//! * `<li>`, `<p>`, `<td>`, `<tr>`, `<option>` auto-close a preceding sibling
//!   of the same kind,
//! * comments, doctypes, and processing instructions are skipped,
//! * `<script>` and `<style>` contents are treated as raw text.
//!
//! It is not a full HTML5 tree construction algorithm, but it handles the
//! documents produced by [`crate::serializer::to_html`] (round-trip) and the
//! kind of markup found on template-driven sites.
//!
//! # Cost
//!
//! Parsing is linear in the input size, whatever its shape: every page
//! parses in one pass straight into the arena.  Each node costs one arena
//! push with its links already set (no ancestor walk, however deep the
//! page nests), the open-element checks behind implied and stray end tags
//! are per-tag counts rather than stack scans, and `<script>`/`<style>`
//! bodies end at a case-insensitive byte search that neither copies nor
//! lower-cases the rest of the input.  Tag and attribute names are
//! borrowed from the input and copied once, into the node; text and
//! attribute values are copied once too, and entity decoding allocates
//! only for strings that contain a `&`.

use crate::builder::DocumentBuilder;
use crate::document::Document;
use crate::error::{DomError, Result};
use crate::node::Attribute;
use std::borrow::Cow;

/// Options controlling HTML parsing.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Lower-case all tag and attribute names (default: true).
    pub lowercase_names: bool,
    /// If `true`, whitespace-only text nodes between elements are dropped
    /// (default: true).  Keeping them around only inflates positional indices
    /// without changing any of the paper's semantics.
    pub skip_whitespace_text: bool,
    /// Decode the basic named character entities (`&amp;` etc.) and numeric
    /// entities (default: true).
    pub decode_entities: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            lowercase_names: true,
            skip_whitespace_text: true,
            decode_entities: true,
        }
    }
}

/// Tags that never have children ("void elements" in HTML).
pub const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Tags whose open tag implicitly closes a preceding unclosed element of the
/// same tag (a small subset of HTML's implied end tags).
const AUTO_CLOSE_SAME: &[&str] = &["li", "p", "td", "th", "tr", "option", "dt", "dd"];

/// Tags with raw-text content.
const RAW_TEXT: &[&str] = &["script", "style"];

/// Upper bound on the arena slots reserved from the input length, so a large
/// text-only body cannot reserve memory for nodes it will never have.
const MAX_RESERVED_NODES: usize = 4096;

/// Parses HTML text into a [`Document`] using default options.
pub fn parse_html(input: &str) -> Result<Document> {
    Parser::new(input, ParseOptions::default()).parse()
}

/// Parses HTML text with explicit [`ParseOptions`].
pub fn parse_html_with(input: &str, options: ParseOptions) -> Result<Document> {
    Parser::new(input, options).parse()
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
    builder: DocumentBuilder,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> Self {
        // Template-driven pages run at roughly one node per 27 bytes, so a
        // typical page fills this reservation without regrowing the arena.
        let nodes = (input.len() / 24).min(MAX_RESERVED_NODES);
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            options,
            builder: DocumentBuilder::with_capacity(nodes),
        }
    }

    fn parse(mut self) -> Result<Document> {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.parse_markup()?;
            } else {
                self.parse_text();
            }
        }
        Ok(self.builder.finish_lenient())
    }

    fn error(&self, message: impl Into<String>) -> DomError {
        DomError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.bytes[self.pos..]
            .get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
    }

    /// The input from `start` to the current position.
    fn since(&self, start: usize) -> &'a str {
        &self.input[start..self.pos]
    }

    /// Entity-decodes `raw` if the options ask for it.
    fn decode(&self, raw: &'a str) -> Cow<'a, str> {
        if self.options.decode_entities {
            decode_entities_cow(raw)
        } else {
            Cow::Borrowed(raw)
        }
    }

    /// Lower-cases a tag or attribute name if the options ask for it,
    /// copying only names that contain an upper-case ASCII letter.
    fn name(&self, raw: &'a str) -> Cow<'a, str> {
        if self.options.lowercase_names && raw.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(raw.to_ascii_lowercase())
        } else {
            Cow::Borrowed(raw)
        }
    }

    fn parse_text(&mut self) {
        let start = self.pos;
        self.skip_to(b'<');
        let decoded = self.decode(self.since(start));
        if self.options.skip_whitespace_text && decoded.trim().is_empty() {
            return;
        }
        self.builder.text_owned(decoded.into_owned());
    }

    fn parse_markup(&mut self) -> Result<()> {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        match self.peek(1) {
            Some(b'!') => {
                if self.starts_with("<!--") {
                    self.skip_comment();
                } else {
                    self.skip_until(b'>');
                }
                Ok(())
            }
            Some(b'?') => {
                self.skip_until(b'>');
                Ok(())
            }
            Some(b'/') => {
                self.parse_end_tag();
                Ok(())
            }
            Some(c) if c.is_ascii_alphabetic() => self.parse_start_tag(),
            _ => {
                // A bare '<' in text; treat it literally.
                self.builder.text("<");
                self.pos += 1;
                Ok(())
            }
        }
    }

    fn skip_comment(&mut self) {
        // self.pos is at "<!--"
        if let Some(end) = self.input[self.pos..].find("-->") {
            self.pos += end + 3;
        } else {
            self.pos = self.bytes.len();
        }
    }

    /// Advances to the next `byte` (or the end of input).
    fn skip_to(&mut self, byte: u8) {
        self.pos = self.bytes[self.pos..]
            .iter()
            .position(|&b| b == byte)
            .map_or(self.bytes.len(), |i| self.pos + i);
    }

    /// Advances past the next `byte` (or to the end of input).
    fn skip_until(&mut self, byte: u8) {
        self.skip_to(byte);
        if self.pos < self.bytes.len() {
            self.pos += 1;
        }
    }

    /// Advances over a tag name: ASCII letters, digits and `-`.
    fn scan_tag_name(&mut self) -> &'a str {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'-')
        {
            self.pos += 1;
        }
        self.since(start)
    }

    fn parse_end_tag(&mut self) {
        self.pos += 2; // consume "</"
        let raw = self.scan_tag_name();
        let name = self.name(raw);
        self.skip_until(b'>');
        // Stray end tags for elements that are not open are ignored.
        self.builder.close_until(&name);
    }

    fn parse_start_tag(&mut self) -> Result<()> {
        self.pos += 1; // consume '<'
        let raw = self.scan_tag_name();
        if raw.is_empty() {
            return Err(self.error("expected tag name after '<'"));
        }
        let name = self.name(raw);

        let mut attributes: Vec<Attribute> = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.peek(0) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek(0) == Some(b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => {
                    if let Some(attribute) = self.parse_attribute() {
                        attributes.push(attribute);
                    } else {
                        // Could not make progress: skip one byte to avoid an
                        // infinite loop on malformed input.
                        self.pos += 1;
                    }
                }
            }
        }

        // Implied end tags: <li> after <li>, <p> after <p>, etc.  Closing up
        // to the innermost open element of the same name is the simple
        // heuristic tag-soup parsers use.
        if AUTO_CLOSE_SAME.contains(&&*name) {
            self.builder.close_until(&name);
        }

        if self_closing || VOID_ELEMENTS.contains(&&*name) {
            self.builder.void_element_with(&name, attributes);
            return Ok(());
        }

        self.builder.open_element_with(&name, attributes);

        if RAW_TEXT.contains(&&*name) {
            self.parse_raw_text(&name);
        }
        Ok(())
    }

    /// Takes everything up to the matching end tag (any case) as one text
    /// node, without copying or lower-casing the rest of the input.
    fn parse_raw_text(&mut self, tag: &str) {
        let rest = &self.bytes[self.pos..];
        let end = find_end_tag(rest, tag.as_bytes()).unwrap_or(rest.len());
        let content = &self.input[self.pos..self.pos + end];
        if !content.trim().is_empty() {
            self.builder.text(content);
        }
        self.pos += end;
        if self.pos < self.bytes.len() {
            // consume the end tag.
            self.skip_until(b'>');
        }
        self.builder.close_until(tag);
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn parse_attribute(&mut self) -> Option<Attribute> {
        let name_start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() || b == b'=' || b == b'>' || b == b'/' {
                break;
            }
            self.pos += 1;
        }
        if self.pos == name_start {
            return None;
        }
        let name = self.name(self.since(name_start)).into_owned();
        self.skip_whitespace();
        if self.peek(0) != Some(b'=') {
            return Some(Attribute {
                name,
                value: String::new(),
            });
        }
        self.pos += 1; // consume '='
        self.skip_whitespace();
        let raw = match self.peek(0) {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                self.skip_to(q);
                let v = self.since(start);
                if self.pos < self.bytes.len() {
                    self.pos += 1; // closing quote
                }
                v
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len() {
                    let b = self.bytes[self.pos];
                    if b.is_ascii_whitespace() || b == b'>' {
                        break;
                    }
                    self.pos += 1;
                }
                self.since(start)
            }
        };
        let value = self.decode(raw).into_owned();
        Some(Attribute { name, value })
    }
}

/// Offset of the first `</tag` in `haystack`, matching `tag` (lower-case)
/// in any case.
fn find_end_tag(haystack: &[u8], tag: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = haystack[from..].iter().position(|&b| b == b'<') {
        let at = from + i;
        let name = &haystack[at + 1..];
        if name.first() == Some(&b'/')
            && name
                .get(1..=tag.len())
                .is_some_and(|n| n.eq_ignore_ascii_case(tag))
        {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Decodes the most common HTML character entities.
///
/// Supports the five XML entities, `&nbsp;`, and decimal/hexadecimal numeric
/// character references.  Unknown entities are left untouched.
pub fn decode_entities(input: &str) -> String {
    decode_entities_cow(input).into_owned()
}

/// [`decode_entities`] that borrows `input` when it holds no `&`.
pub(crate) fn decode_entities_cow(input: &str) -> Cow<'_, str> {
    let Some(first) = input.find('&') else {
        return Cow::Borrowed(input);
    };
    let mut out = String::with_capacity(input.len());
    out.push_str(&input[..first]);
    let mut rest = &input[first..];
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        match decode_entity(after) {
            Some((c, used)) => {
                out.push(c);
                rest = &after[used..];
            }
            None => {
                out.push('&');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Decodes the entity at the start of `after` (the text following a `&`):
/// the character and the bytes it spans, `;` included.  The `;` must come
/// within the next 12 characters.
fn decode_entity(after: &str) -> Option<(char, usize)> {
    let (len, _) = after.char_indices().take(12).find(|&(_, ch)| ch == ';')?;
    let entity = &after[..len];
    let c = match entity {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => ' ',
        _ => {
            let number = entity.strip_prefix('#')?;
            let code = match number.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => number.parse::<u32>().ok()?,
            };
            char::from_u32(code)?
        }
    };
    Some((c, len + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse_html(
            r#"<html><head><title>T</title></head>
               <body><div id="main" class="content">
               <p>Hello <b>world</b></p></div></body></html>"#,
        )
        .unwrap();
        assert_eq!(doc.elements_by_tag("html").len(), 1);
        let div = doc.element_by_id("main").unwrap();
        assert_eq!(doc.attribute(div, "class"), Some("content"));
        assert_eq!(doc.normalized_text(div), "Hello world");
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse_html("<body><img src='a.png'><p>after</p></body>").unwrap();
        let img = doc.elements_by_tag("img")[0];
        assert_eq!(doc.children(img).count(), 0);
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.tag_name(doc.parent(p).unwrap()), Some("body"));
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse_html("<div><br/><span/>text</div>").unwrap();
        assert_eq!(doc.elements_by_tag("br").len(), 1);
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.children(span).count(), 0);
    }

    #[test]
    fn unclosed_elements_close_at_eof() {
        let doc = parse_html("<html><body><div><p>unclosed").unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_text(p), "unclosed");
    }

    #[test]
    fn stray_end_tags_are_ignored() {
        let doc = parse_html("<div></span><p>x</p></div>").unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        assert_eq!(doc.elements_by_tag("span").len(), 0);
    }

    #[test]
    fn li_auto_close() {
        let doc = parse_html("<ul><li>one<li>two<li>three</ul>").unwrap();
        let ul = doc.elements_by_tag("ul")[0];
        let lis: Vec<_> = doc.element_children(ul).collect();
        assert_eq!(lis.len(), 3);
        assert_eq!(doc.normalized_text(lis[1]), "two");
        // none of the li are nested inside each other
        for &li in &lis {
            assert_eq!(doc.parent(li), Some(ul));
        }
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let doc =
            parse_html("<!DOCTYPE html><!-- a comment --><html><body>x</body></html>").unwrap();
        assert_eq!(doc.elements_by_tag("html").len(), 1);
        let body = doc.elements_by_tag("body")[0];
        assert_eq!(doc.normalized_text(body), "x");
    }

    #[test]
    fn script_content_is_raw_text() {
        let doc = parse_html(
            "<body><script>if (a < b) { document.write('<div>'); }</script><p>y</p></body>",
        )
        .unwrap();
        // The '<div>' inside the script must not create an element.
        assert_eq!(doc.elements_by_tag("div").len(), 0);
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        let script = doc.elements_by_tag("script")[0];
        assert!(doc.text_value(script).contains("document.write"));
    }

    #[test]
    fn attributes_quoted_unquoted_and_bare() {
        let doc = parse_html(r#"<input type=text name="q" disabled value='go'>"#).unwrap();
        let input = doc.elements_by_tag("input")[0];
        assert_eq!(doc.attribute(input, "type"), Some("text"));
        assert_eq!(doc.attribute(input, "name"), Some("q"));
        assert_eq!(doc.attribute(input, "value"), Some("go"));
        assert_eq!(doc.attribute(input, "disabled"), Some(""));
    }

    #[test]
    fn entities_are_decoded() {
        let doc = parse_html("<p title=\"a &amp; b\">x &lt; y &#65; &#x42; &nbsp;z &unknown;</p>")
            .unwrap();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.attribute(p, "title"), Some("a & b"));
        let t = doc.text_value(p);
        assert!(t.contains("x < y A B"));
        assert!(t.contains("&unknown;"));
    }

    #[test]
    fn uppercase_names_are_lowered() {
        let doc = parse_html("<DIV CLASS='X'><SPAN>t</SPAN></DIV>").unwrap();
        assert_eq!(doc.elements_by_tag("div").len(), 1);
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.attribute(div, "class"), Some("X"));
    }

    #[test]
    fn whitespace_text_skipped_by_default_kept_on_request() {
        let html = "<div>\n  <p>a</p>\n  </div>";
        let doc = parse_html(html).unwrap();
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.children(div).count(), 1);

        let opts = ParseOptions {
            skip_whitespace_text: false,
            ..Default::default()
        };
        let doc2 = parse_html_with(html, opts).unwrap();
        let div2 = doc2.elements_by_tag("div")[0];
        assert_eq!(doc2.children(div2).count(), 3);
    }

    #[test]
    fn empty_and_text_only_inputs() {
        let doc = parse_html("").unwrap();
        assert!(doc.is_empty());
        let doc = parse_html("just text, no tags").unwrap();
        assert_eq!(doc.normalized_text(doc.root()), "just text, no tags");
    }

    #[test]
    fn bare_less_than_in_text() {
        let doc = parse_html("<p>1 < 2</p>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_text(p), "1 < 2");
    }

    #[test]
    fn multibyte_character_after_markup_open() {
        // "<!" followed by a 3-byte character: the comment check must not
        // slice the input inside the character.
        let doc = parse_html("<p>a<!€>b</p>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.normalized_text(p), "ab");
    }

    #[test]
    fn decode_entities_unit() {
        assert_eq!(decode_entities("a &amp; b"), "a & b");
        assert_eq!(decode_entities("no entities"), "no entities");
        assert_eq!(decode_entities("&#77;&#x4d;"), "MM");
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
    }

    #[test]
    fn table_auto_close() {
        let doc = parse_html("<table><tr><td>a<td>b<tr><td>c</table>").unwrap();
        assert_eq!(doc.elements_by_tag("tr").len(), 2);
        assert_eq!(doc.elements_by_tag("td").len(), 3);
    }
}
