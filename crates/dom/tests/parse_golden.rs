//! Golden parse corpus: the exact arena every tag-soup rule of the parser
//! produces, compared byte for byte against `fixtures/parse_golden.txt`.
//!
//! The dump lists each arena slot in allocation order with its kind, tag,
//! attributes, text, all five structural links, the interned tag symbol and
//! the interned attribute symbols, followed by the interner's strings in
//! symbol order.  A parser change that keeps every query answer but
//! reorders the arena, the attributes or the symbol numbering still fails
//! here.
//!
//! `arena_order_is_document_order` pins the invariant the order index is
//! built on: over this corpus and the hostile-HTML shapes, arena slot `i`
//! is the `i`-th node in document order.
//!
//! On a mismatch the test writes the rendered corpus next to the build
//! artifacts (the path is in the panic message); review the difference and
//! copy that file over the fixture only when the change is intended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use wi_dom::document::normalize_space;
use wi_dom::{parse_html_with, Document, NodeData, NodeId, ParseOptions};

/// `(case name, options, input)`; one or more cases per rule of the
/// parser's module documentation.
fn corpus() -> Vec<(&'static str, ParseOptions, &'static str)> {
    let d = ParseOptions::default;
    vec![
        // Names.
        ("uppercase_tags_and_attrs", d(), "<DIV CLASS='X' Id=main><SPAN>t</SPAN></DIV>"),
        ("names_with_digits_and_dashes", d(), "<h1>x</h1><my-Widget DATA-id=1>y</my-Widget>"),
        ("non_ascii_attribute_name", d(), "<p DATÄ=1 title=\"café\">naïve — ünïcödé</p>"),
        // Attributes.
        ("duplicate_attrs", d(), "<p class=\"a\" class=\"b\" CLASS=c>x</p>"),
        ("unquoted_attrs", d(), "<a href=/x/y?z=1&amp;w=2 title=hi>link</a>"),
        ("bare_attrs", d(), "<input disabled checked type=checkbox name=\"q\" value='go'>"),
        ("attr_spacing_and_junk", d(), "<div a = \"1\" b= '2' c =3 = d/ e>x</div>"),
        ("attr_value_unterminated_at_eof", d(), "<div><a title=\"open"),
        ("tag_unterminated_at_eof", d(), "<div><a href='x'"),
        // Entities.
        (
            "entities_in_text",
            d(),
            "<p>x &lt; y &#65; &#x42; &#X43; &amp;amp; &unknown; &#xZZ; &verylongentityname; &</p>",
        ),
        (
            "entities_in_attributes",
            d(),
            "<p title=\"a &amp; b &quot;q&quot;\" data-x='&#169;&gt;' alt=&lt;>y</p>",
        ),
        ("nbsp_only_text", d(), "<div><span>&nbsp;</span><b> &nbsp; </b><i>&nbsp;x</i></div>"),
        // A bare '<'.
        ("bare_less_than", d(), "<p>1 < 2 <3 a<b>c</b></p>"),
        ("less_than_at_eof", d(), "<p>x <"),
        ("empty_end_tags", d(), "<div>a</>b</ >c</div>"),
        // Comments, doctypes and processing instructions.
        ("comments", d(), "<!-- c --><div><!-- inner <p> -->x</div><!-- unterminated <p>y"),
        (
            "doctype_and_processing_instructions",
            d(),
            "<!DOCTYPE html><?xml version=\"1.0\"?><html><body><![CDATA[z]]>x</body></html>",
        ),
        // Raw text.
        (
            "script_uppercase_end_tag_with_space",
            d(),
            "<body><SCRIPT type=\"text/javascript\">if (a < b) { x = '<div>'; }</SCRIPT ><p>y</p></body>",
        ),
        ("style_unterminated", d(), "<head><style>a { color: red } <p>never"),
        ("script_end_tag_prefix", d(), "<script>a</scriptfoo>b</script><p>z</p>"),
        ("raw_text_whitespace_and_empty", d(), "<script></script><style>  </style><p>x</p>"),
        ("raw_text_in_mixed_case", d(), "<Style>b{}</sTyLe><ScRiPt>1</SCRIPT>"),
        // Implied end tags.
        ("li_auto_close", d(), "<ul><li>one<li>two<li>three</ul>"),
        ("p_auto_close_across_levels", d(), "<div><p>a<p>b<div><p>c</div></div>"),
        ("td_th_tr_auto_close", d(), "<table><tr><td>a<td>b<tr><th>h<th>i<tr><td>c</table>"),
        ("option_auto_close", d(), "<select><option>a<option selected>b</select>"),
        ("dt_dd_auto_close", d(), "<dl><dt>t1<dd>d1<dt>t2<dd>d2</dl>"),
        ("self_closing_auto_close", d(), "<ul><li>a<li/><li>b</ul>"),
        // Stray end tags.
        ("stray_end_tags", d(), "<div></span><p>x</p></b></div></div></html>"),
        ("end_tag_closes_intervening", d(), "<div><span><div>x</span>y</div>z</div>"),
        ("void_end_tag", d(), "<br></br><p>x</p>"),
        // Void and self-closing elements.
        (
            "void_and_self_closing",
            d(),
            "<div><br><img src=a.png><br/><span/>text<hr/><input type=text/><IMG SRC=b></div>",
        ),
        // End of input.
        ("unclosed_at_eof", d(), "<html><body><div><p>unclosed <b>bold"),
        ("empty_input", d(), ""),
        ("text_only", d(), "just text &amp; more"),
        // Whitespace.
        ("whitespace_text_skipped", d(), "<div>\n  <p> a </p>\n  <p>\t</p> </div>"),
        // Every option off.
        (
            "lowercase_names_off",
            ParseOptions {
                lowercase_names: false,
                ..d()
            },
            "<DIV Class=\"X\"><Span>t</span></Span><LI>a<li>b<LI>c</DIV>",
        ),
        (
            "skip_whitespace_text_off",
            ParseOptions {
                skip_whitespace_text: false,
                ..d()
            },
            "<div>\n  <p> a </p>\n  <p>\t</p> <b>&nbsp;</b></div>",
        ),
        (
            "decode_entities_off",
            ParseOptions {
                decode_entities: false,
                ..d()
            },
            "<p title=\"a &amp; b\">x &lt; y &#65; &nbsp;</p>",
        ),
        (
            "all_options_off",
            ParseOptions {
                lowercase_names: false,
                skip_whitespace_text: false,
                decode_entities: false,
            },
            "<HTML>\n<BODY Class=\"A &amp; B\">\n <SCRIPT>x</SCRIPT> <script>y</SCRIPT>\n<P>&nbsp;<P>z</BODY>",
        ),
    ]
}

fn link(id: Option<NodeId>) -> String {
    id.map_or_else(|| "-".to_string(), |n| n.index().to_string())
}

/// The canonical dump of one document (see the module docs).
fn dump(doc: &Document) -> String {
    let mut out = String::new();
    let mut strings: BTreeMap<usize, &str> = BTreeMap::new();
    for index in 0..doc.len() {
        let id = NodeId::from_index(index);
        match doc.data(id) {
            NodeData::Element { tag, attributes } => {
                let attrs: Vec<String> = attributes
                    .iter()
                    .map(|a| format!("{:?}={:?}", a.name, a.value))
                    .collect();
                let _ = write!(out, "  {index} element {tag:?} [{}]", attrs.join(" "));
            }
            NodeData::Text(t) => {
                let _ = write!(out, "  {index} text {t:?}");
            }
        }
        let tag_sym = doc.tag_sym(id);
        let attr_syms: Vec<String> = doc
            .attr_syms(id)
            .iter()
            .map(|&(n, v)| format!("{}={}", n.index(), v.index()))
            .collect();
        let _ = writeln!(
            out,
            " parent={} first={} last={} prev={} next={} tag_sym={} attr_syms=[{}]",
            link(doc.parent(id)),
            link(doc.first_child(id)),
            link(doc.last_child(id)),
            link(doc.prev_sibling(id)),
            link(doc.next_sibling(id)),
            tag_sym.map_or_else(|| "-".to_string(), |s| s.index().to_string()),
            attr_syms.join(" "),
        );
        for sym in tag_sym
            .into_iter()
            .chain(doc.attr_syms(id).iter().flat_map(|&(n, v)| [n, v]))
        {
            strings.insert(sym.index(), doc.resolve_sym(sym));
        }
    }
    // A freshly parsed document interns nothing it does not use, so the
    // symbols reachable from the arena are the whole interner.
    assert_eq!(
        strings.len(),
        doc.interner().len(),
        "interner has unused strings"
    );
    assert_eq!(strings.keys().last().map_or(0, |&k| k + 1), strings.len());
    let _ = writeln!(out, "  interner:");
    for (sym, s) in strings {
        let _ = writeln!(out, "    {sym} {s:?}");
    }
    out
}

fn render_corpus() -> String {
    let mut out = String::new();
    for (name, options, input) in corpus() {
        let _ = writeln!(out, "== {name} {options:?}");
        let _ = writeln!(out, "  input {input:?}");
        let doc = parse_html_with(input, options).expect("the parser never rejects tag soup");
        out.push_str(&dump(&doc));
    }
    out
}

#[test]
fn corpus_names_are_unique() {
    let mut names: Vec<&str> = corpus().into_iter().map(|(n, _, _)| n).collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
}

#[test]
fn parse_corpus_matches_the_golden_dump() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parse_golden.txt");
    let expected = std::fs::read_to_string(&fixture).expect("golden fixture is readable");
    let actual = render_corpus();
    if actual != expected {
        let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("parse_golden.actual.txt");
        std::fs::write(&written, &actual).expect("write the rendered corpus");
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or_else(|| "length".to_string(), |l| format!("line {}", l + 1));
        panic!(
            "parse corpus differs from {} at {first_diff}; rendered corpus written to {}",
            fixture.display(),
            written.display()
        );
    }
}

/// The shapes of `hostile_html.rs`, each cut to about 20 KB.
fn hostile_shapes() -> Vec<(&'static str, String)> {
    const BODY: usize = 20 * 1024;
    let fill = |unit: &str| unit.repeat(BODY / unit.len());
    let mut stray = String::from("<b></b>");
    stray.push_str(&"<i>".repeat(BODY / 2 / 3));
    stray.push_str(&"</b>".repeat(BODY / 2 / 4));
    let mut attrs = String::from("<x-y");
    for i in 0..BODY / 6 {
        attrs.push_str(&format!(" a{i}"));
    }
    attrs.push('>');
    vec![
        ("deeply nested divs", fill("<div>")),
        ("script runs", fill("<script>x</script>")),
        ("upper-case style runs", fill("<STYLE>a{}</STYLE>")),
        ("stray end tags over a deep stack", stray),
        ("one tag, many attributes", attrs),
        (
            "entity flood",
            format!("<p>{}</p>", fill("&amp;&lt;&#65;&#x42;&nbsp;&bogus;")),
        ),
        (
            "tag soup",
            fill("<p><li>a<td>b</p><table><tr><td>c</li><ul>"),
        ),
    ]
}

#[test]
fn arena_order_is_document_order() {
    let corpus = corpus()
        .into_iter()
        .map(|(name, options, input)| (name, options, input.to_string()));
    let hostile = hostile_shapes()
        .into_iter()
        .map(|(name, input)| (name, ParseOptions::default(), input));
    for (name, options, input) in corpus.chain(hostile) {
        let doc = parse_html_with(&input, options).expect("the parser never rejects tag soup");
        assert_eq!(doc.order_index().len(), doc.len(), "{name}: index coverage");
        let mut count = 0;
        for (rank, id) in doc.descendants_or_self(doc.root()).enumerate() {
            assert_eq!(id, NodeId::from_index(rank), "{name}: slot {rank}");
            count += 1;
        }
        assert_eq!(count, doc.len(), "{name}: every slot is in the tree");
    }
}

#[test]
fn text_index_matches_the_oracle_on_the_corpus() {
    for (name, options, input) in corpus() {
        let doc = parse_html_with(input, options).expect("the parser never rejects tag soup");
        for id in (0..doc.len()).map(NodeId::from_index) {
            assert_eq!(
                doc.normalized_str(id),
                normalize_space(&doc.text_value(id)),
                "{name}: {id:?}"
            );
        }
    }
}
