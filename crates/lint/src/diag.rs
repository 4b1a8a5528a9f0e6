//! Diagnostics: `file:line:rule-id` records with rendered source spans
//! and a `--json` serialization for tooling.

use std::fmt::Write as _;

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`R2`..`R9`, or `PRAGMA` for malformed pragmas).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human message.
    pub message: String,
    /// The source line the finding points at.
    pub source_line: String,
}

impl Diagnostic {
    /// `file:line:rule-id` header plus the rendered span:
    ///
    /// ```text
    /// crates/serve/src/handlers.rs:204:R4: `expect` reachable from request handler `handle`
    ///   204 |             Ok(i) => results[*i].take().expect("each doc used once"),
    ///       |                                         ^
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}:{}:{}: {}",
            self.file, self.line, self.rule, self.message
        );
        let line_no = self.line.to_string();
        let _ = writeln!(out, "  {line_no} | {}", self.source_line);
        // Caret under the offending column (tabs render as one column in
        // this codebase; rustfmt keeps the tree tab-free).
        let pad = " ".repeat(self.col.saturating_sub(1) as usize);
        let _ = writeln!(out, "  {} | {pad}^", " ".repeat(line_no.len()));
        out
    }

    /// One JSON object (hand-rolled; no serde_json in the tree).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            self.rule,
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message)
        )
    }
}

/// Renders a full report.
pub fn render_report(diags: &[Diagnostic], json: bool) -> String {
    if json {
        let mut out = String::from("[");
        for (i, d) in diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]\n");
        return out;
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
    }
    if diags.is_empty() {
        out.push_str("wi-lint: no violations\n");
    } else {
        let _ = writeln!(
            out,
            "wi-lint: {} violation{}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Diagnostic {
        Diagnostic {
            rule: "R4",
            file: "crates/serve/src/handlers.rs".into(),
            line: 204,
            col: 45,
            message: "`expect` reachable from request handler `handle`".into(),
            source_line: "            Ok(i) => results[*i].take().expect(\"once\"),".into(),
        }
    }

    #[test]
    fn renders_header_and_caret() {
        let r = d().render();
        assert!(r.starts_with("crates/serve/src/handlers.rs:204:R4:"));
        assert!(r.contains("204 |"));
        assert!(r.contains('^'));
    }

    #[test]
    fn json_is_wellformed_enough() {
        let j = render_report(&[d()], true);
        assert!(j.starts_with('[') && j.trim_end().ends_with(']'));
        assert!(j.contains("\"rule\":\"R4\""));
        assert!(j.contains("\"line\":204"));
    }

    #[test]
    fn empty_report() {
        assert!(render_report(&[], false).contains("no violations"));
        assert_eq!(render_report(&[], true), "[]\n");
    }
}
