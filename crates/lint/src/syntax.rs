//! Lightweight item/function/call extraction over the token stream.
//!
//! This is not a Rust parser: it is a structural scanner that recovers
//! exactly what the invariant rules need — function boundaries and
//! signatures, call sites, test regions (`#[cfg(test)]` modules, `#[test]` functions) and
//! `lint:allow` pragmas.  It is deliberately conservative: anything it
//! cannot classify it skips, and bracket matching never assumes
//! well-formed input.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::path::PathBuf;

/// A parsed `// lint:allow(rule, reason)` pragma.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id the pragma suppresses (e.g. `R3`).
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// 1-based line the pragma sits on.
    pub line: u32,
    /// `lint:allow-file(…)`: suppresses the rule for the whole file.
    pub file_scope: bool,
}

/// A malformed pragma (missing reason, unparseable body).
#[derive(Debug, Clone)]
pub struct BadPragma {
    /// 1-based line.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Final path segment (`evaluate` for `wi_xpath::evaluate`).
    pub name: String,
    /// `x.name(…)` — the callee is a method.
    pub is_method: bool,
    /// `name!(…)` — a macro invocation.
    pub is_macro: bool,
    /// Receiver identifier for method calls (`x` in `x.f()`), when the
    /// receiver is a plain identifier.
    pub receiver: Option<String>,
    /// Index into the significant-token list.
    pub sig_index: usize,
    /// 1-based source line.
    pub line: u32,
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Identifiers appearing in the type (e.g. `["Document"]` for
    /// `&Document`).
    pub type_idents: Vec<String>,
    /// `&` appears in the type.
    pub by_ref: bool,
}

/// An extracted function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name.
    pub name: String,
    /// `pub` / `pub(crate)` / `pub(super)`.
    pub is_pub: bool,
    /// Takes `self` by any form.
    pub has_self: bool,
    /// Takes `&mut self`.
    pub has_mut_self: bool,
    /// `#[test]`, inside a `#[cfg(test)]` region, or in a test-only file.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Significant-token range of the body (indexes of `{` and `}`);
    /// `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// Parameters (excluding the receiver).
    pub params: Vec<Param>,
}

/// A lexed + scanned source file.
pub struct SourceFile {
    /// Absolute path.
    pub path: PathBuf,
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Full text.
    pub text: String,
    /// All tokens (including whitespace/comments).
    pub tokens: Vec<Token>,
    /// Indexes (into `tokens`) of significant tokens.
    pub sig: Vec<usize>,
    /// Byte offset of each line start.
    pub line_starts: Vec<usize>,
    /// Extracted functions, in source order.
    pub functions: Vec<Function>,
    /// `lint:allow` pragmas.
    pub allows: Vec<Allow>,
    /// Malformed pragmas.
    pub bad_pragmas: Vec<BadPragma>,
    /// Byte ranges of `#[cfg(test)]` items and `#[test]` fn bodies.
    pub test_ranges: Vec<(usize, usize)>,
    /// The whole file is test-only (under `tests/`, `benches/`,
    /// `examples/`).
    pub is_test_file: bool,
    /// Matching close for each open bracket, by significant-token index.
    bracket_match: HashMap<usize, usize>,
}

impl SourceFile {
    /// Lexes and scans one file.
    pub fn parse(path: PathBuf, rel: String, text: String, is_test_file: bool) -> SourceFile {
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Ws | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut file = SourceFile {
            path,
            rel,
            text,
            tokens,
            sig,
            line_starts,
            functions: Vec::new(),
            allows: Vec::new(),
            bad_pragmas: Vec::new(),
            test_ranges: Vec::new(),
            is_test_file,
            bracket_match: HashMap::new(),
        };
        file.match_brackets();
        file.scan_pragmas();
        file.scan_items();
        file
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, byte: usize) -> u32 {
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// 1-based column of a byte offset.
    pub fn col_of(&self, byte: usize) -> u32 {
        let line = self.line_of(byte) as usize - 1;
        let start = self.line_starts.get(line).copied().unwrap_or(0);
        (byte.saturating_sub(start) + 1) as u32
    }

    /// The source text of the line containing `byte`, without trailing
    /// newline.
    pub fn line_text(&self, byte: usize) -> &str {
        let line = self.line_of(byte) as usize - 1;
        let start = self.line_starts.get(line).copied().unwrap_or(0);
        let end = self
            .line_starts
            .get(line + 1)
            .copied()
            .unwrap_or(self.text.len());
        self.text
            .get(start..end)
            .unwrap_or("")
            .trim_end_matches('\n')
    }

    /// The text of the significant token at sig-index `k`.
    pub fn sig_text(&self, k: usize) -> &str {
        self.sig
            .get(k)
            .and_then(|&i| self.tokens.get(i))
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// The kind of the significant token at sig-index `k`.
    pub fn sig_kind(&self, k: usize) -> Option<TokenKind> {
        self.sig
            .get(k)
            .and_then(|&i| self.tokens.get(i))
            .map(|t| t.kind)
    }

    /// Byte offset of the significant token at sig-index `k`.
    pub fn sig_start(&self, k: usize) -> usize {
        self.sig
            .get(k)
            .and_then(|&i| self.tokens.get(i))
            .map(|t| t.start)
            .unwrap_or(self.text.len())
    }

    /// 1-based line of the significant token at sig-index `k`.
    pub fn sig_line(&self, k: usize) -> u32 {
        self.line_of(self.sig_start(k))
    }

    /// The matching closer for the open bracket at sig-index `k`.
    pub fn close_of(&self, k: usize) -> Option<usize> {
        self.bracket_match.get(&k).copied()
    }

    /// Is this byte offset inside a test region (or a test-only file)?
    pub fn in_test_region(&self, byte: usize) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(start, end)| byte >= start && byte < end)
    }

    fn match_brackets(&mut self) {
        let mut stack: Vec<(u8, usize)> = Vec::new();
        for k in 0..self.sig.len() {
            let text = self.sig_text(k);
            let b = match text.as_bytes().first() {
                Some(&b) if text.len() == 1 => b,
                _ => continue,
            };
            match b {
                b'{' | b'(' | b'[' => stack.push((b, k)),
                b'}' | b')' | b']' => {
                    let open = match b {
                        b'}' => b'{',
                        b')' => b'(',
                        _ => b'[',
                    };
                    // Pop unmatched openers defensively (macro soup).
                    while let Some(&(top, at)) = stack.last() {
                        stack.pop();
                        if top == open {
                            self.bracket_match.insert(at, k);
                            break;
                        }
                        let _ = at;
                    }
                }
                _ => {}
            }
        }
    }

    fn scan_pragmas(&mut self) {
        let mut found: Vec<(usize, String)> = Vec::new();
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(&self.text);
            // Doc comments are prose — mentions of the pragma syntax in
            // them must not register suppressions.
            if text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!")
            {
                continue;
            }
            let mut search = 0usize;
            while let Some(at) = text[search..].find("lint:allow") {
                let rest = &text[search + at..];
                // A pragma is the marker directly followed by `(` (or the
                // `-file(` variant); anything else is a prose mention.
                if rest["lint:allow".len()..].starts_with('(')
                    || rest["lint:allow".len()..].starts_with("-file(")
                {
                    found.push((t.start + search + at, rest.to_string()));
                }
                search += at + "lint:allow".len();
            }
        }
        for (byte, rest) in found {
            let line = self.line_of(byte);
            let file_scope = rest.starts_with("lint:allow-file");
            let open = match rest.find('(') {
                Some(i) => i,
                None => {
                    self.bad_pragmas.push(BadPragma {
                        line,
                        message: "lint:allow pragma without (rule, reason)".into(),
                    });
                    continue;
                }
            };
            let close = match rest[open..].find(')') {
                Some(i) => open + i,
                None => {
                    self.bad_pragmas.push(BadPragma {
                        line,
                        message: "unterminated lint:allow pragma".into(),
                    });
                    continue;
                }
            };
            let body = &rest[open + 1..close];
            let (rule, reason) = match body.split_once(',') {
                Some((rule, reason)) => (rule.trim(), reason.trim()),
                None => (body.trim(), ""),
            };
            if rule.is_empty() {
                self.bad_pragmas.push(BadPragma {
                    line,
                    message: "lint:allow pragma names no rule".into(),
                });
                continue;
            }
            if reason.is_empty() {
                self.bad_pragmas.push(BadPragma {
                    line,
                    message: format!(
                        "lint:allow({rule}) has no reason — the justification is mandatory"
                    ),
                });
                continue;
            }
            self.allows.push(Allow {
                rule: rule.to_string(),
                reason: reason.to_string(),
                line,
                file_scope,
            });
        }
    }

    /// Linear item scan: attributes attach to the next item; `#[cfg(test)]`
    /// mod/impl bodies and `#[test]` fn bodies become test ranges;
    /// functions are extracted with signature and body spans.
    fn scan_items(&mut self) {
        let mut pending_test = false;
        let mut functions = Vec::new();
        let mut test_ranges = Vec::new();
        let mut k = 0usize;
        while k < self.sig.len() {
            let text = self.sig_text(k).to_string();
            match text.as_str() {
                "#" => {
                    // Attribute: `#[…]` or `#![…]`.
                    let mut open = k + 1;
                    if self.sig_text(open) == "!" {
                        open += 1;
                    }
                    if self.sig_text(open) == "[" {
                        let close = self.close_of(open).unwrap_or(open);
                        let attr: Vec<&str> = (open + 1..close).map(|i| self.sig_text(i)).collect();
                        if is_test_attr(&attr) {
                            pending_test = true;
                        }
                        k = close + 1;
                    } else {
                        k += 1;
                    }
                }
                "fn" => {
                    if let Some((f, next)) = self.parse_fn(k, pending_test) {
                        if f.is_test {
                            if let Some((body_open, body_close)) = f.body {
                                test_ranges
                                    .push((self.sig_start(body_open), self.sig_start(body_close)));
                            }
                        }
                        functions.push(f);
                        pending_test = false;
                        k = next;
                    } else {
                        k += 1;
                    }
                }
                "mod" | "impl" | "trait" => {
                    // Find the opening brace (or `;` for `mod name;`).
                    let mut j = k + 1;
                    let mut brace = None;
                    while j < self.sig.len() && j < k + 64 {
                        match self.sig_text(j) {
                            "{" => {
                                brace = Some(j);
                                break;
                            }
                            ";" => break,
                            _ => j += 1,
                        }
                    }
                    if let Some(open) = brace {
                        let close = self.close_of(open).unwrap_or(open);
                        if pending_test {
                            test_ranges.push((self.sig_start(open), self.sig_start(close)));
                        }
                        pending_test = false;
                        // Continue scanning *inside* the block.
                        k = open + 1;
                    } else {
                        pending_test = false;
                        k = j + 1;
                    }
                }
                "struct" | "enum" | "use" | "static" | "type" | "macro_rules" => {
                    pending_test = false;
                    k += 1;
                }
                _ => k += 1,
            }
        }
        // A test range covers nested ranges; sort for readability only.
        test_ranges.sort_unstable();
        self.test_ranges = test_ranges;
        // Mark functions discovered before their enclosing test range was
        // recorded… ranges are recorded when the `mod` opens, which is
        // before its contents are scanned, so containment is already
        // correct.  Re-check every function against the final ranges to be
        // safe (covers `#[cfg(test)] impl` blocks scanned out of order).
        for f in &mut functions {
            if !f.is_test {
                let byte = self
                    .line_starts
                    .get(f.line as usize - 1)
                    .copied()
                    .unwrap_or(0);
                if self.is_test_file || self.test_ranges.iter().any(|&(s, e)| byte >= s && byte < e)
                {
                    f.is_test = true;
                }
            }
        }
        self.functions = functions;
    }

    /// Parses a `fn` item starting at sig-index `k` (the `fn` keyword).
    /// Returns the function and the sig-index to continue scanning from
    /// (inside the body, so nested items are found too).
    fn parse_fn(&self, k: usize, pending_test: bool) -> Option<(Function, usize)> {
        let name = self.sig_text(k + 1).to_string();
        if name.is_empty()
            || !self
                .sig_kind(k + 1)
                .is_some_and(|kd| kd == TokenKind::Ident)
        {
            return None; // `fn(` pointer type
        }
        let line = self.sig_line(k);
        let is_pub = {
            // Look back over `pub(crate)` / qualifiers.
            let mut j = k;
            let mut saw_pub = false;
            let mut steps = 0;
            while j > 0 && steps < 8 {
                j -= 1;
                steps += 1;
                match self.sig_text(j) {
                    "pub" => {
                        saw_pub = true;
                        break;
                    }
                    "const" | "unsafe" | "async" | "extern" | ")" | "(" | "crate" | "super"
                    | "in" => continue,
                    s if s.starts_with('"') => continue, // extern "C"
                    _ => break,
                }
            }
            saw_pub
        };
        // Parameter list: first `(` at angle-depth 0 after the name.
        let mut j = k + 2;
        let mut angle = 0i32;
        let params_open = loop {
            if j >= self.sig.len() || j > k + 256 {
                return None;
            }
            match self.sig_text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" if angle <= 0 => break j,
                "{" | ";" => return None,
                _ => {}
            }
            j += 1;
        };
        let params_close = self.close_of(params_open)?;
        let (has_self, has_mut_self, params) = self.parse_params(params_open, params_close);
        // Body: first `{` at bracket-depth 0 after the params (skipping the
        // return type and where clause), or `;` for bodyless signatures.
        let mut j = params_close + 1;
        let mut body = None;
        loop {
            if j >= self.sig.len() || j > params_close + 512 {
                break;
            }
            match self.sig_text(j) {
                "(" | "[" => {
                    j = self.close_of(j).map(|c| c + 1).unwrap_or(j + 1);
                    continue;
                }
                "{" => {
                    let close = self.close_of(j).unwrap_or(j);
                    body = Some((j, close));
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let next = match body {
            Some((open, _)) => open + 1,
            None => j + 1,
        };
        Some((
            Function {
                name,
                is_pub,
                has_self,
                has_mut_self,
                is_test: pending_test,
                line,
                body,
                params,
            },
            next,
        ))
    }

    /// Splits the parameter list on top-level commas; extracts the receiver
    /// and each parameter's type identifiers.
    fn parse_params(&self, open: usize, close: usize) -> (bool, bool, Vec<Param>) {
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut start = open + 1;
        let mut k = open + 1;
        while k < close {
            match self.sig_text(k) {
                "(" | "[" | "{" => {
                    k = self.close_of(k).map(|c| c + 1).unwrap_or(k + 1);
                    continue;
                }
                "," => {
                    groups.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        if start < close {
            groups.push((start, close));
        }
        let mut has_self = false;
        let mut has_mut_self = false;
        let mut params = Vec::new();
        for (i, &(s, e)) in groups.iter().enumerate() {
            let texts: Vec<&str> = (s..e).map(|k| self.sig_text(k)).collect();
            if i == 0 && texts.contains(&"self") {
                has_self = true;
                has_mut_self = texts.contains(&"&") && texts.contains(&"mut");
                continue;
            }
            // Type side: after the first top-level `:`.
            let colon = texts.iter().position(|t| *t == ":");
            let type_side: &[&str] = match colon {
                Some(c) => &texts[c + 1..],
                None => &texts[..],
            };
            params.push(Param {
                type_idents: type_side
                    .iter()
                    .filter(|t| {
                        t.chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                    })
                    .map(|t| t.to_string())
                    .collect(),
                by_ref: type_side.contains(&"&"),
            });
        }
        (has_self, has_mut_self, params)
    }

    /// Extracts call sites from a function body.
    pub fn calls_in(&self, f: &Function) -> Vec<Call> {
        let Some((open, close)) = f.body else {
            return Vec::new();
        };
        let mut calls = Vec::new();
        for k in open + 1..close {
            let name = self.sig_text(k);
            if self.sig_kind(k) != Some(TokenKind::Ident) || is_keyword(name) {
                continue;
            }
            let nxt = self.sig_text(k + 1);
            let (is_macro, opens_args) = if nxt == "!" {
                let after = self.sig_text(k + 2);
                (true, after == "(" || after == "[" || after == "{")
            } else {
                (false, nxt == "(")
            };
            if !opens_args {
                continue;
            }
            let prev = if k > 0 { self.sig_text(k - 1) } else { "" };
            let is_method = prev == ".";
            let receiver = if is_method && k >= 2 {
                let r = self.sig_text(k - 2);
                if self.sig_kind(k - 2) == Some(TokenKind::Ident) {
                    Some(r.to_string())
                } else {
                    None
                }
            } else {
                None
            };
            calls.push(Call {
                name: name.to_string(),
                is_method,
                is_macro,
                receiver,
                sig_index: k,
                line: self.sig_line(k),
            });
        }
        calls
    }
}

fn is_test_attr(attr: &[&str]) -> bool {
    // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[tokio::test]`…
    if attr.first() == Some(&"cfg") {
        return attr.contains(&"test");
    }
    attr.last() == Some(&"test")
}

/// Keywords that can be followed by `(` without being calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "const"
            | "static"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "await"
            | "async"
            | "self"
            | "Self"
            | "super"
            | "crate"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "x.rs".into(), src.into(), false)
    }

    #[test]
    fn extracts_functions_and_receivers() {
        let src = r#"
impl Document {
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<()> {
        self.insert_child_at_end(parent, child)
    }
    fn helper(&self) {}
}
pub fn free(doc: &Document, s: Sym) -> bool { doc.check(s) }
"#;
        let f = parse(src);
        assert_eq!(f.functions.len(), 3);
        let append = &f.functions[0];
        assert_eq!(append.name, "append_child");
        assert!(append.is_pub && append.has_mut_self);
        assert_eq!(append.params.len(), 2);
        let helper = &f.functions[1];
        assert!(helper.has_self && !helper.has_mut_self && !helper.is_pub);
        let free = &f.functions[2];
        assert!(!free.has_self);
        assert!(free.params[0].type_idents.contains(&"Document".to_string()));
        assert!(free.params[0].by_ref);
        assert!(free.params[1].type_idents.contains(&"Sym".to_string()));
        let calls = f.calls_in(append);
        assert!(calls
            .iter()
            .any(|c| c.name == "insert_child_at_end" && c.is_method));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = r#"
pub fn live() {}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn covered() { live(); }
}
#[test]
fn standalone() {}
"#;
        let f = parse(src);
        let live = f.functions.iter().find(|x| x.name == "live").unwrap();
        assert!(!live.is_test);
        let covered = f.functions.iter().find(|x| x.name == "covered").unwrap();
        assert!(covered.is_test);
        let standalone = f.functions.iter().find(|x| x.name == "standalone").unwrap();
        assert!(standalone.is_test);
    }

    #[test]
    fn calls_methods_macros_and_paths() {
        let src = r#"
fn f(x: &[u8]) {
    let a = evaluate(q, doc, root);
    let b = prefix.evaluate(root, q);
    let c = wi_xpath::evaluate(q, doc, root);
    panic!("boom");
}
"#;
        let f0 = parse(src);
        let f1 = &f0.functions[0];
        let calls = f0.calls_in(f1);
        let bare: Vec<_> = calls
            .iter()
            .filter(|c| c.name == "evaluate" && !c.is_method)
            .collect();
        assert_eq!(bare.len(), 2);
        assert!(calls.iter().any(|c| c.name == "evaluate" && c.is_method));
        assert!(calls.iter().any(|c| c.name == "panic" && c.is_macro));
    }

    #[test]
    fn pragmas_parse_and_reject_missing_reasons() {
        let src = r#"
// lint:allow(R3, deprecated cold shim kept for API compatibility)
fn a() {}
// lint:allow(R5)
fn b() {}
"#;
        let f = parse(src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "R3");
        assert_eq!(f.bad_pragmas.len(), 1);
        assert!(f.bad_pragmas[0].message.contains("reason"));
    }
}
