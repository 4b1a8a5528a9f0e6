//! `nodePattern(u)` — candidate node tests and predicates for a single node
//! (Section 5, "Spine Step Induction").
//!
//! Given a node `u`, this module generates the axis-less patterns the paper
//! describes: the most general node test `node()`, the node's tag, and the
//! tag refined by one attribute or text comparison.  Positional refinement
//! (the optional second predicate) is added later by
//! [`crate::step_pattern`], where the context node is known.
//!
//! String constants are constrained the way the paper requires: "single
//! strings that appear in the input document … either as single words
//! (space-separated and/or bordered) or as the full text-value of a node."

use crate::config::InductionConfig;
use wi_dom::{Document, NodeId, NodeKind};
use wi_xpath::{NodeTest, Predicate, StringFunction};

/// Maximum length of a string constant taken from text content.
const MAX_TEXT_LEN: usize = 60;

/// Maximum number of distinct single words from a text value that are turned
/// into `contains(., w)` candidates.
const MAX_TEXT_WORDS: usize = 3;

/// Maximum number of single words from a multi-word attribute value that are
/// turned into `contains(@a, w)` candidates.
const MAX_ATTR_WORDS: usize = 3;

/// Attributes that are never used in predicates (volatile, auto-generated
/// values such as inline styles or event handlers).
const IGNORED_ATTRIBUTES: [&str; 2] = ["style", "onclick"];

/// An axis-less candidate pattern: a node test plus at most one comparison
/// predicate (a positional predicate may be appended later).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePattern {
    /// The node test of the pattern.
    pub test: NodeTest,
    /// The predicates of the pattern (at most one comparison at this stage).
    pub predicates: Vec<Predicate>,
}

impl NodePattern {
    /// A pattern with no predicates.
    pub fn bare(test: NodeTest) -> Self {
        NodePattern {
            test,
            predicates: Vec::new(),
        }
    }

    /// A pattern with a single predicate.
    pub fn with(test: NodeTest, predicate: Predicate) -> Self {
        NodePattern {
            test,
            predicates: vec![predicate],
        }
    }
}

/// Generates the candidate node patterns for `node`, in roughly the order the
/// paper lists them (most general first, attribute comparisons next, text
/// comparisons last).
pub fn node_patterns(doc: &Document, node: NodeId, config: &InductionConfig) -> Vec<NodePattern> {
    let mut patterns = Vec::new();

    match doc.kind(node) {
        NodeKind::Text => {
            patterns.push(NodePattern::bare(NodeTest::AnyNode));
            patterns.push(NodePattern::bare(NodeTest::Text));
            // Text nodes take no attributes; text comparisons on the node
            // itself are possible but rarely useful for wrapper anchors.
            for p in text_predicates(doc, node, config) {
                patterns.push(NodePattern::with(NodeTest::Text, p));
            }
            return patterns;
        }
        NodeKind::Element => {}
    }

    let tag = doc
        .tag_name(node)
        .expect("element nodes have tags")
        .to_string();

    patterns.push(NodePattern::bare(NodeTest::AnyNode));
    patterns.push(NodePattern::bare(NodeTest::tag(tag.clone())));

    // Attribute comparisons: full value equality, plus per-word contains for
    // multi-word values (class lists and the like).
    for attr in doc.attributes(node) {
        if IGNORED_ATTRIBUTES.contains(&attr.name.as_str()) {
            continue;
        }
        if attr.value.is_empty() {
            continue;
        }
        patterns.push(NodePattern::with(
            NodeTest::tag(tag.clone()),
            Predicate::attr_equals(&attr.name, &attr.value),
        ));
        // `node()[@class="x"]` variants give the induction a way to stay
        // robust against tag renames while keeping the semantic anchor.
        patterns.push(NodePattern::with(
            NodeTest::AnyNode,
            Predicate::attr_equals(&attr.name, &attr.value),
        ));
        let words: Vec<&str> = attr.value.split_whitespace().collect();
        if words.len() > 1 {
            for w in words.into_iter().take(MAX_ATTR_WORDS) {
                patterns.push(NodePattern::with(
                    NodeTest::tag(tag.clone()),
                    Predicate::StringCompare {
                        func: StringFunction::Contains,
                        source: wi_xpath::TextSource::Attribute(attr.name.clone()),
                        value: w.to_string(),
                    },
                ));
            }
        }
    }

    // Text comparisons.
    for p in text_predicates(doc, node, config) {
        patterns.push(NodePattern::with(NodeTest::tag(tag.clone()), p));
    }

    patterns
}

/// Generates text-content predicates for a node, subject to the configured
/// [`crate::config::TextPolicy`].
fn text_predicates(doc: &Document, node: NodeId, config: &InductionConfig) -> Vec<Predicate> {
    let text = doc.normalized_str(node);
    if text.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut push = |func: StringFunction, value: String| {
        if !value.is_empty() && value.len() <= MAX_TEXT_LEN && config.text_policy.allows(&value) {
            out.push(Predicate::text_fn(func, value));
        }
    };

    // Full value equality (only for reasonably short texts, typically
    // template labels like "Director:" or "Country").
    if text.len() <= MAX_TEXT_LEN {
        push(StringFunction::Equals, text.to_owned());
    }

    // A starts-with on the leading label: up to and including the first
    // colon, or the first word otherwise.  This is the pattern the paper's
    // running example uses (`starts-with(., "Director:")`).
    if let Some(colon) = text.find(':') {
        push(StringFunction::StartsWith, text[..=colon].to_string());
    } else if let Some(first) = text.split_whitespace().next() {
        if first.len() < text.len() {
            push(StringFunction::StartsWith, first.to_string());
        }
    }

    // contains(., w) for a few single words.
    let mut used = 0usize;
    for w in text.split_whitespace() {
        if used >= MAX_TEXT_WORDS {
            break;
        }
        if w.len() < 3 {
            continue;
        }
        push(StringFunction::Contains, w.trim_matches(':').to_string());
        used += 1;
    }

    // Deduplicate (e.g. single-word texts generate identical candidates).
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TextPolicy;
    use wi_dom::parse_html;

    fn config() -> InductionConfig {
        InductionConfig::default()
    }

    #[test]
    fn element_patterns_cover_tag_and_attributes() {
        let doc = parse_html(r#"<body><div id="main" class="content box">x</div></body>"#).unwrap();
        let div = doc.element_by_id("main").unwrap();
        let patterns = node_patterns(&doc, div, &config());
        let rendered: Vec<String> = patterns
            .iter()
            .map(|p| {
                let mut s = p.test.to_string();
                for pred in &p.predicates {
                    s.push_str(&format!("[{pred}]"));
                }
                s
            })
            .collect();
        assert!(rendered.contains(&"node()".to_string()));
        assert!(rendered.contains(&"div".to_string()));
        assert!(rendered.contains(&r#"div[@id="main"]"#.to_string()));
        assert!(rendered.contains(&r#"div[@class="content box"]"#.to_string()));
        assert!(rendered.contains(&r#"node()[@id="main"]"#.to_string()));
        // multi-word class value also yields per-word contains patterns
        assert!(rendered.contains(&r#"div[contains(@class,"content")]"#.to_string()));
        assert!(rendered.contains(&r#"div[contains(@class,"box")]"#.to_string()));
    }

    #[test]
    fn text_predicates_for_template_labels() {
        let doc = parse_html("<body><h4 class=\"inline\">Director:</h4></body>").unwrap();
        let h4 = doc.elements_by_tag("h4")[0];
        let patterns = node_patterns(&doc, h4, &config());
        let rendered: Vec<String> = patterns
            .iter()
            .flat_map(|p| p.predicates.iter().map(|x| x.to_string()))
            .collect();
        assert!(rendered.contains(&r#".="Director:""#.to_string()));
        assert!(rendered.contains(&r#"starts-with(.,"Director:")"#.to_string()));
        assert!(rendered.contains(&r#"contains(.,"Director")"#.to_string()));
    }

    #[test]
    fn text_policy_deny_suppresses_text_predicates() {
        let doc = parse_html("<body><h4>Director:</h4></body>").unwrap();
        let h4 = doc.elements_by_tag("h4")[0];
        let cfg = config().with_text_policy(TextPolicy::Deny);
        let patterns = node_patterns(&doc, h4, &cfg);
        assert!(patterns.iter().all(|p| {
            p.predicates.iter().all(|pred| {
                !matches!(
                    pred,
                    Predicate::StringCompare {
                        source: wi_xpath::TextSource::NormalizedText,
                        ..
                    }
                )
            })
        }));
    }

    #[test]
    fn template_only_policy_filters_volatile_text() {
        let doc =
            parse_html("<body><h4>Director:</h4><p>Breaking headline xyz</p></body>").unwrap();
        let cfg =
            config().with_text_policy(TextPolicy::TemplateOnly(vec!["Director:".to_string()]));
        let h4 = doc.elements_by_tag("h4")[0];
        let p = doc.elements_by_tag("p")[0];
        let h4_preds: Vec<_> = node_patterns(&doc, h4, &cfg)
            .into_iter()
            .flat_map(|p| p.predicates)
            .filter(|p| {
                matches!(
                    p,
                    Predicate::StringCompare {
                        source: wi_xpath::TextSource::NormalizedText,
                        ..
                    }
                )
            })
            .collect();
        assert!(!h4_preds.is_empty());
        let p_preds: Vec<_> = node_patterns(&doc, p, &cfg)
            .into_iter()
            .flat_map(|p| p.predicates)
            .filter(|p| {
                matches!(
                    p,
                    Predicate::StringCompare {
                        source: wi_xpath::TextSource::NormalizedText,
                        ..
                    }
                )
            })
            .collect();
        assert!(p_preds.is_empty());
    }

    #[test]
    fn ignored_attributes_skipped() {
        let doc = parse_html(r#"<body><div style="color: red" id="k">x</div></body>"#).unwrap();
        let div = doc.element_by_id("k").unwrap();
        let patterns = node_patterns(&doc, div, &config());
        assert!(patterns
            .iter()
            .all(|p| !p.predicates.iter().any(|pred| matches!(
                pred,
                Predicate::StringCompare { source: wi_xpath::TextSource::Attribute(a), .. } if a == "style"
            ))));
        assert!(patterns.iter().any(|p| p
            .predicates
            .iter()
            .any(|pred| pred.string_constant() == Some("k"))));
    }

    #[test]
    fn text_nodes_get_text_test() {
        let doc = parse_html("<body><p>hello world</p></body>").unwrap();
        let p = doc.elements_by_tag("p")[0];
        let t = doc.children(p).next().unwrap();
        let patterns = node_patterns(&doc, t, &config());
        assert!(patterns.iter().any(|p| p.test == NodeTest::Text));
        assert!(patterns.iter().any(|p| p.test == NodeTest::AnyNode));
        assert!(patterns.iter().all(|p| p.test != NodeTest::AnyElement));
    }

    #[test]
    fn empty_attribute_values_skipped() {
        let doc = parse_html(r#"<body><input disabled type="text"></body>"#).unwrap();
        let input = doc.elements_by_tag("input")[0];
        let patterns = node_patterns(&doc, input, &config());
        // No equality on the empty `disabled` value, but type="text" present.
        assert!(patterns.iter().all(|p| p
            .predicates
            .iter()
            .all(|pred| pred.string_constant() != Some(""))));
        assert!(patterns.iter().any(|p| p
            .predicates
            .iter()
            .any(|pred| pred.string_constant() == Some("text"))));
    }

    #[test]
    fn long_texts_are_not_turned_into_equality() {
        let long_text = "word ".repeat(40);
        let html = format!("<body><p>{long_text}</p></body>");
        let doc = parse_html(&html).unwrap();
        let p = doc.elements_by_tag("p")[0];
        let patterns = node_patterns(&doc, p, &config());
        assert!(patterns.iter().all(|pat| pat
            .predicates
            .iter()
            .all(|pred| pred.string_constant().is_none_or(|s| s.len() <= 60))));
    }
}
