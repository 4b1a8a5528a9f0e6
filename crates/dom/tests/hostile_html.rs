//! Hostile-HTML battery: bodies shaped to hit the parser's worst cases,
//! each at most 512 KB (far under the daemon's request-size limit).
//!
//! Every case asserts the exact node count of the parsed arena.  Release
//! builds also assert a 2 s wall-clock budget per case for the parse plus
//! `normalize-space` of every node: the parser and the text index are
//! linear in the input, so each of these takes milliseconds, while a
//! parser that rescans its open-element stack or the rest of the input
//! per tag — or a `normalize-space` that walks each node's subtree — takes
//! tens of seconds on the nesting and raw-text shapes.  Debug builds check
//! only the counts.  Run the budgets with
//! `cargo test --release -p wi-dom --test hostile_html`.
//!
//! Each case also checks the text index against the subtree-walking oracle
//! `normalize_space(&text_value(n))` on the root and on 100 sampled nodes
//! (on every node the oracle is quadratic on the nesting shape).

use std::hint::black_box;
use std::time::{Duration, Instant};
use wi_dom::document::normalize_space;
use wi_dom::{parse_html, Document, NodeId};

const BODY: usize = 512 * 1024;
const BUDGET: Duration = Duration::from_secs(2);

/// `unit` repeated as often as fits in [`BODY`] bytes, and the count.
fn fill(unit: &str) -> (String, usize) {
    let n = BODY / unit.len();
    (unit.repeat(n), n)
}

/// Parses `input` and reads `normalize-space` of every node, checks its
/// size, the budget and the text index against the oracle, and returns the
/// document for the caller's count checks.
fn parse_within_budget(case: &str, input: &str) -> Document {
    assert!(input.len() <= BODY, "{case}: body is {} bytes", input.len());
    let start = Instant::now();
    let doc = parse_html(input).expect("the parser never rejects tag soup");
    for id in (0..doc.len()).map(NodeId::from_index) {
        black_box(doc.normalized_str(id));
    }
    let elapsed = start.elapsed();
    if !cfg!(debug_assertions) {
        assert!(
            elapsed < BUDGET,
            "{case}: parsing {} bytes and normalizing every node took {elapsed:?} \
             (budget {BUDGET:?})",
            input.len()
        );
    }
    let step = (doc.len() / 100).max(1);
    for id in (0..doc.len())
        .step_by(step)
        .take(100)
        .map(NodeId::from_index)
    {
        assert_eq!(
            doc.normalized_str(id),
            normalize_space(&doc.text_value(id)),
            "{case}: {id:?}"
        );
    }
    let root = doc.root();
    assert_eq!(
        doc.normalized_str(root),
        normalize_space(&doc.text_value(root))
    );
    doc
}

#[test]
fn deeply_nested_divs() {
    let (input, n) = fill("<div>");
    let doc = parse_within_budget("nested div", &input);
    // The synthetic root plus one element per open tag, each inside the last.
    assert_eq!(doc.len(), 1 + n);
    assert_eq!(doc.ancestors(NodeId::from_index(n)).count(), n);
}

#[test]
fn script_runs() {
    let (input, n) = fill("<script>x</script>");
    let doc = parse_within_budget("script runs", &input);
    // Each run is a script element with one raw-text child.
    assert_eq!(doc.len(), 1 + 2 * n);
    assert_eq!(doc.elements_by_tag("script").len(), n);
}

#[test]
fn upper_case_style_runs() {
    let (input, n) = fill("<STYLE>a{}</STYLE>");
    let doc = parse_within_budget("style runs", &input);
    assert_eq!(doc.len(), 1 + 2 * n);
    assert_eq!(doc.elements_by_tag("style").len(), n);
}

#[test]
fn stray_end_tags_over_a_deep_stack() {
    // `<b></b>` puts "b" into the document, so the stray `</b>` tags are
    // names the parser knows but that are no longer open.
    let mut input = String::from("<b></b>");
    let depth = (BODY / 2) / "<i>".len();
    input.push_str(&"<i>".repeat(depth));
    let stray = (BODY - input.len()) / "</b>".len();
    input.push_str(&"</b>".repeat(stray));
    let doc = parse_within_budget("stray end tags", &input);
    assert_eq!(doc.len(), 1 + 1 + depth);
    assert_eq!(doc.elements_by_tag("i").len(), depth);
}

/// `i` in base 36: distinct, short, lower-case attribute names.
fn base36(mut i: usize) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut name = vec![DIGITS[i % 36]];
    i /= 36;
    while i > 0 {
        name.push(DIGITS[i % 36]);
        i /= 36;
    }
    String::from_utf8(name).expect("ASCII digits")
}

#[test]
fn one_tag_with_a_hundred_thousand_attributes() {
    const ATTRS: usize = 100_000;
    // The dash keeps the tag name out of the attribute names' alphabet.
    let mut input = String::from("<x-y");
    for i in 0..ATTRS {
        input.push(' ');
        input.push_str(&base36(i));
    }
    input.push('>');
    let doc = parse_within_budget("100k attributes", &input);
    assert_eq!(doc.len(), 2);
    let el = doc.elements_by_tag("x-y")[0];
    assert_eq!(doc.attributes(el).len(), ATTRS);
    assert_eq!(doc.attr_syms(el).len(), ATTRS);
    // "#document", "x-y", every name and the shared empty value.
    assert_eq!(doc.interner().len(), 2 + ATTRS + 1);
}

#[test]
fn entity_flood() {
    let unit = "&amp;&lt;&#65;&#x42;&nbsp;&bogus;";
    let n = (BODY - "<p></p>".len()) / unit.len();
    let input = format!("<p>{}</p>", unit.repeat(n));
    let doc = parse_within_budget("entity flood", &input);
    assert_eq!(doc.len(), 3);
    let p = doc.elements_by_tag("p")[0];
    // `&nbsp;` decodes to a plain space; unknown entities stay verbatim.
    assert!(doc.text_value(p) == "&<AB &bogus;".repeat(n));
}
