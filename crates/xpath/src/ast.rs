//! Abstract syntax tree for the XPath fragment.
//!
//! The AST models the paper's dsXPath grammar (Figure 2) extended with the
//! few constructs human-crafted wrappers in the evaluation section use:
//! the `following` / `preceding` axes, `self` / `descendant-or-self` /
//! `ancestor-or-self` (needed for the `//` abbreviation), nested relative
//! path predicates (e.g. `img[ancestor::div[1][@class="c"]]`) and the
//! `ends-with` string function.

use serde::{Deserialize, Serialize};
use std::fmt;

/// XPath navigation axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `following::` (not part of dsXPath; used by human wrappers)
    Following,
    /// `preceding::` (not part of dsXPath; used by human wrappers)
    Preceding,
    /// `self::`
    SelfAxis,
    /// `descendant-or-self::` (the `//` abbreviation)
    DescendantOrSelf,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `attribute::` — in dsXPath this axis may only appear as the last step
    /// or inside predicates.
    Attribute,
}

impl Axis {
    /// All axes allowed by the dsXPath grammar (Figure 2 of the paper).
    pub const DS_XPATH_AXES: &'static [Axis] = &[
        Axis::Child,
        Axis::Attribute,
        Axis::Descendant,
        Axis::FollowingSibling,
        Axis::Parent,
        Axis::Ancestor,
        Axis::PrecedingSibling,
    ];

    /// The four *base* axes `B` of the induction algorithm (Section 5).
    pub const BASE_AXES: &'static [Axis] = &[
        Axis::Child,
        Axis::Parent,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
    ];

    /// The textual name of the axis, as written before `::`.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::SelfAxis => "self",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Attribute => "attribute",
        }
    }

    /// Parses an axis name.
    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "self" => Axis::SelfAxis,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }

    /// The *transitive* version of a base axis as defined in Section 5:
    /// `child.transitive = descendant`, `parent.transitive = ancestor`, and
    /// the sibling axes are their own transitive closure.
    pub fn transitive(self) -> Axis {
        match self {
            Axis::Child => Axis::Descendant,
            Axis::Parent => Axis::Ancestor,
            other => other,
        }
    }

    /// The reverse of an axis (`child.reverse = parent`, etc.), as used in the
    /// specification of Algorithm 1.
    pub fn reverse(self) -> Axis {
        match self {
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::Ancestor => Axis::Descendant,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::Following => Axis::Preceding,
            Axis::Preceding => Axis::Following,
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::Attribute => Axis::Attribute,
        }
    }

    /// Whether this is a *reverse* axis in XPath's sense: positional
    /// predicates count positions in reverse document order.
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }

    /// Whether the axis moves strictly downward in the tree.
    pub fn is_downward(self) -> bool {
        matches!(
            self,
            Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
        )
    }

    /// Whether the axis moves strictly upward in the tree.
    pub fn is_upward(self) -> bool {
        matches!(self, Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf)
    }

    /// Whether the axis is one of the sideways (sibling) axes.
    pub fn is_sideways(self) -> bool {
        matches!(self, Axis::FollowingSibling | Axis::PrecedingSibling)
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// XPath node tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeTest {
    /// `*` — any element node.
    AnyElement,
    /// `node()` — any node (element or text).
    AnyNode,
    /// `text()` — text nodes only.
    Text,
    /// A specific element tag name.
    Tag(String),
}

impl NodeTest {
    /// Creates a tag node test.
    pub fn tag(name: impl Into<String>) -> Self {
        NodeTest::Tag(name.into())
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::AnyElement => f.write_str("*"),
            NodeTest::AnyNode => f.write_str("node()"),
            NodeTest::Text => f.write_str("text()"),
            NodeTest::Tag(t) => f.write_str(t),
        }
    }
}

/// The Boolean string functions of the fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StringFunction {
    /// String equality (written as `=` or `equals(…)`).
    Equals,
    /// `contains(…)`
    Contains,
    /// `starts-with(…)`
    StartsWith,
    /// `ends-with(…)`
    EndsWith,
}

impl StringFunction {
    /// Applies the function to a haystack and needle.
    pub fn apply(self, haystack: &str, needle: &str) -> bool {
        match self {
            StringFunction::Equals => haystack == needle,
            StringFunction::Contains => haystack.contains(needle),
            StringFunction::StartsWith => haystack.starts_with(needle),
            StringFunction::EndsWith => haystack.ends_with(needle),
        }
    }

    /// The XPath function name.
    pub fn name(self) -> &'static str {
        match self {
            StringFunction::Equals => "equals",
            StringFunction::Contains => "contains",
            StringFunction::StartsWith => "starts-with",
            StringFunction::EndsWith => "ends-with",
        }
    }

    /// All functions of the fragment.
    pub const ALL: &'static [StringFunction] = &[
        StringFunction::Equals,
        StringFunction::Contains,
        StringFunction::StartsWith,
        StringFunction::EndsWith,
    ];
}

impl fmt::Display for StringFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The `<Content>` nonterminal of the grammar: the first argument of a string
/// function — either an attribute selection or the normalized text value of
/// the current node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TextSource {
    /// `attribute::name` / `@name`
    Attribute(String),
    /// `normalize-space(.)` (abbreviated `.` in the paper)
    NormalizedText,
}

impl fmt::Display for TextSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextSource::Attribute(a) => write!(f, "@{a}"),
            TextSource::NormalizedText => f.write_str("."),
        }
    }
}

/// A predicate of a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Predicate {
    /// Positional predicate `[n]` (1-based).
    Position(u32),
    /// `[last() - n]`; `[last()]` is represented as `LastOffset(0)`.
    LastOffset(u32),
    /// Attribute existence test `[@name]`.
    HasAttribute(String),
    /// A string comparison `[f(content, "value")]`, covering both the
    /// function syntax and the `[@a="v"]` / `[.="v"]` equality shorthand.
    StringCompare {
        /// The Boolean string function applied.
        func: StringFunction,
        /// The content the function reads (attribute or normalized text).
        source: TextSource,
        /// The constant second argument.
        value: String,
    },
    /// A nested relative path used as an existence test, e.g.
    /// `[ancestor::div[1][@class="c"]]`.  Not part of dsXPath but required to
    /// express several of the paper's human wrappers.
    Path(Query),
}

impl Predicate {
    /// Convenience constructor for an attribute equality predicate.
    pub fn attr_equals(name: impl Into<String>, value: impl Into<String>) -> Self {
        Predicate::StringCompare {
            func: StringFunction::Equals,
            source: TextSource::Attribute(name.into()),
            value: value.into(),
        }
    }

    /// Convenience constructor for a text comparison predicate.
    pub fn text_fn(func: StringFunction, value: impl Into<String>) -> Self {
        Predicate::StringCompare {
            func,
            source: TextSource::NormalizedText,
            value: value.into(),
        }
    }

    /// Returns `true` if this is a positional predicate (`[n]` or
    /// `[last()-n]`).
    pub fn is_positional(&self) -> bool {
        matches!(self, Predicate::Position(_) | Predicate::LastOffset(_))
    }

    /// Returns the string constant of the predicate, if any.
    pub fn string_constant(&self) -> Option<&str> {
        match self {
            Predicate::StringCompare { value, .. } => Some(value),
            _ => None,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Position(n) => write!(f, "{n}"),
            Predicate::LastOffset(0) => f.write_str("last()"),
            Predicate::LastOffset(n) => write!(f, "last()-{n}"),
            Predicate::HasAttribute(a) => write!(f, "@{a}"),
            Predicate::StringCompare {
                func,
                source,
                value,
            } => match func {
                StringFunction::Equals => write!(f, "{source}=\"{value}\""),
                _ => write!(f, "{}({source},\"{value}\")", func.name()),
            },
            Predicate::Path(q) => write!(f, "{q}"),
        }
    }
}

/// One step of a query: axis, node test and a (possibly empty) list of
/// predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Step {
    /// The navigation axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied left to right.
    pub predicates: Vec<Predicate>,
}

impl Step {
    /// Creates a step with no predicates.
    pub fn new(axis: Axis, test: NodeTest) -> Self {
        Step {
            axis,
            test,
            predicates: Vec::new(),
        }
    }

    /// Adds a predicate (builder style).
    pub fn with_predicate(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.axis == Axis::Attribute {
            // attribute::class is conventionally written @class
            write!(f, "@{}", self.test)?;
        } else {
            write!(f, "{}::{}", self.axis, self.test)?;
        }
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// A complete query: a sequence of steps, optionally *absolute* (evaluated
/// from the document root regardless of the context node, written with a
/// leading `/`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Query {
    /// If `true`, evaluation starts at the document root.
    pub absolute: bool,
    /// The steps of the query in evaluation order.
    pub steps: Vec<Step>,
}

impl Query {
    /// Renders the query into `out` — byte-identical to the [`fmt::Display`]
    /// implementation, but via direct string pushes instead of the formatter
    /// machinery.  Induction renders every considered candidate once for
    /// duplicate suppression and rank tie-breaking, which makes the
    /// formatter dispatch itself measurable; the `rendering_matches_display`
    /// property test pins the two forms together.
    pub fn render_into(&self, out: &mut String) {
        if self.absolute {
            out.push('/');
        }
        if self.steps.is_empty() {
            if !self.absolute {
                out.push('.');
            }
            return;
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            render_step_into(s, out);
        }
    }

    /// [`render_into`](Self::render_into) into a fresh string — a faster
    /// `to_string()`.
    pub fn render(&self) -> String {
        // Generously sized: a typical induction step renders to ~30 bytes
        // ("descendant::div[@class=\"x\"]"), and a realloc costs more than
        // the slack.
        let mut out = String::with_capacity(48 * self.steps.len().max(1));
        self.render_into(&mut out);
        out
    }

    /// Creates an empty relative query (the paper's "empty query" ε, which
    /// selects exactly the context node).
    pub fn empty() -> Self {
        Query {
            absolute: false,
            steps: Vec::new(),
        }
    }

    /// Creates a relative query from steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Query {
            absolute: false,
            steps,
        }
    }

    /// Creates an absolute query (leading `/`) from steps.
    pub fn absolute(steps: Vec<Step>) -> Self {
        Query {
            absolute: true,
            steps,
        }
    }

    /// Returns `true` if this is the empty query ε.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Concatenates two queries: `self / other`.
    ///
    /// The empty query acts as the neutral element.  The result inherits
    /// `self`'s absoluteness.
    pub fn concat(&self, other: &Query) -> Query {
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        Query {
            absolute: self.absolute,
            steps,
        }
    }

    /// Appends a single step (builder style).
    pub fn then(mut self, step: Step) -> Query {
        self.steps.push(step);
        self
    }

    /// The `axes(q)` sequence of Section 3: all step axes, except that a
    /// trailing `attribute` axis is dropped.
    pub fn axes(&self) -> Vec<Axis> {
        let mut axes: Vec<Axis> = self.steps.iter().map(|s| s.axis).collect();
        if axes.last() == Some(&Axis::Attribute) {
            axes.pop();
        }
        axes
    }

    /// Iterates over all string constants appearing in predicates (including
    /// nested path predicates).
    pub fn string_constants(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for s in &self.steps {
            for p in &s.predicates {
                collect_strings(p, &mut out);
            }
        }
        out
    }

    /// Iterates over all integer constants appearing in positional
    /// predicates (including nested path predicates).
    pub fn int_constants(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for s in &self.steps {
            for p in &s.predicates {
                collect_ints(p, &mut out);
            }
        }
        out
    }

    /// Total number of predicates across all steps (nested predicates counted
    /// recursively).
    pub fn predicate_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| {
                s.predicates
                    .iter()
                    .map(|p| match p {
                        Predicate::Path(q) => 1 + q.predicate_count(),
                        _ => 1,
                    })
                    .sum::<usize>()
            })
            .sum()
    }
}

fn collect_strings<'a>(p: &'a Predicate, out: &mut Vec<&'a str>) {
    match p {
        Predicate::StringCompare { value, .. } => out.push(value),
        Predicate::Path(q) => {
            for s in &q.steps {
                for p in &s.predicates {
                    collect_strings(p, out);
                }
            }
        }
        _ => {}
    }
}

fn collect_ints(p: &Predicate, out: &mut Vec<u32>) {
    match p {
        Predicate::Position(n) | Predicate::LastOffset(n) => out.push(*n),
        Predicate::Path(q) => {
            for s in &q.steps {
                for p in &s.predicates {
                    collect_ints(p, out);
                }
            }
        }
        _ => {}
    }
}

fn render_step_into(step: &Step, out: &mut String) {
    if step.axis == Axis::Attribute {
        out.push('@');
        render_test_into(&step.test, out);
    } else {
        out.push_str(step.axis.name());
        out.push_str("::");
        render_test_into(&step.test, out);
    }
    for p in &step.predicates {
        out.push('[');
        render_predicate_into(p, out);
        out.push(']');
    }
}

fn render_test_into(test: &NodeTest, out: &mut String) {
    match test {
        NodeTest::AnyElement => out.push('*'),
        NodeTest::AnyNode => out.push_str("node()"),
        NodeTest::Text => out.push_str("text()"),
        NodeTest::Tag(t) => out.push_str(t),
    }
}

fn render_u32_into(mut n: u32, out: &mut String) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ascii digits"));
}

fn render_predicate_into(pred: &Predicate, out: &mut String) {
    match pred {
        Predicate::Position(n) => render_u32_into(*n, out),
        Predicate::LastOffset(0) => out.push_str("last()"),
        Predicate::LastOffset(n) => {
            out.push_str("last()-");
            render_u32_into(*n, out);
        }
        Predicate::HasAttribute(a) => {
            out.push('@');
            out.push_str(a);
        }
        Predicate::StringCompare {
            func,
            source,
            value,
        } => match func {
            StringFunction::Equals => {
                render_source_into(source, out);
                out.push_str("=\"");
                out.push_str(value);
                out.push('"');
            }
            _ => {
                out.push_str(func.name());
                out.push('(');
                render_source_into(source, out);
                out.push_str(",\"");
                out.push_str(value);
                out.push_str("\")");
            }
        },
        Predicate::Path(q) => q.render_into(out),
    }
}

fn render_source_into(source: &TextSource, out: &mut String) {
    match source {
        TextSource::Attribute(a) => {
            out.push('@');
            out.push_str(a);
        }
        TextSource::NormalizedText => out.push('.'),
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute {
            f.write_str("/")?;
        }
        if self.steps.is_empty() {
            if !self.absolute {
                f.write_str(".")?;
            }
            return Ok(());
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_names_roundtrip() {
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::Parent,
            Axis::Ancestor,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
            Axis::SelfAxis,
            Axis::DescendantOrSelf,
            Axis::AncestorOrSelf,
            Axis::Attribute,
        ] {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("bogus"), None);
    }

    #[test]
    fn transitive_and_reverse() {
        assert_eq!(Axis::Child.transitive(), Axis::Descendant);
        assert_eq!(Axis::Parent.transitive(), Axis::Ancestor);
        assert_eq!(Axis::FollowingSibling.transitive(), Axis::FollowingSibling);
        assert_eq!(Axis::Child.reverse(), Axis::Parent);
        assert_eq!(Axis::Descendant.reverse(), Axis::Ancestor);
        assert_eq!(Axis::FollowingSibling.reverse(), Axis::PrecedingSibling);
        assert!(Axis::Ancestor.is_reverse());
        assert!(!Axis::Child.is_reverse());
        assert!(Axis::FollowingSibling.is_sideways());
        assert!(Axis::Descendant.is_downward());
        assert!(Axis::Ancestor.is_upward());
    }

    #[test]
    fn string_functions_apply() {
        assert!(StringFunction::Equals.apply("abc", "abc"));
        assert!(!StringFunction::Equals.apply("abc", "ab"));
        assert!(StringFunction::Contains.apply("abcdef", "cde"));
        assert!(StringFunction::StartsWith.apply("Director: X", "Director:"));
        assert!(StringFunction::EndsWith.apply("file.png", ".png"));
        assert!(!StringFunction::EndsWith.apply("file.png", ".jpg"));
    }

    #[test]
    fn display_matches_paper_syntax() {
        let q = Query::new(vec![
            Step::new(Axis::Descendant, NodeTest::tag("div"))
                .with_predicate(Predicate::text_fn(StringFunction::StartsWith, "Director:")),
            Step::new(Axis::Descendant, NodeTest::tag("span"))
                .with_predicate(Predicate::attr_equals("itemprop", "name")),
        ]);
        assert_eq!(
            q.to_string(),
            r#"descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]"#
        );
    }

    #[test]
    fn display_positional_and_attribute_forms() {
        let q = Query::new(vec![
            Step::new(Axis::Descendant, NodeTest::tag("img"))
                .with_predicate(Predicate::attr_equals("class", "adv"))
                .with_predicate(Predicate::Position(1)),
            Step::new(Axis::Attribute, NodeTest::tag("src")),
        ]);
        assert_eq!(q.to_string(), r#"descendant::img[@class="adv"][1]/@src"#);

        let q2 =
            Query::new(vec![Step::new(Axis::Child, NodeTest::tag("li"))
                .with_predicate(Predicate::LastOffset(0))]);
        assert_eq!(q2.to_string(), "child::li[last()]");
        let q3 =
            Query::new(vec![Step::new(Axis::Child, NodeTest::tag("li"))
                .with_predicate(Predicate::LastOffset(2))]);
        assert_eq!(q3.to_string(), "child::li[last()-2]");
        let q4 = Query::new(vec![Step::new(Axis::Child, NodeTest::AnyNode)
            .with_predicate(Predicate::HasAttribute("id".into()))]);
        assert_eq!(q4.to_string(), "child::node()[@id]");
    }

    #[test]
    fn display_absolute_empty_and_nested() {
        assert_eq!(Query::empty().to_string(), ".");
        assert_eq!(Query::absolute(vec![]).to_string(), "/");
        let nested = Query::new(vec![Step::new(Axis::Descendant, NodeTest::tag("img"))
            .with_predicate(Predicate::Path(Query::new(vec![Step::new(
                Axis::Ancestor,
                NodeTest::tag("div"),
            )
            .with_predicate(Predicate::Position(1))
            .with_predicate(Predicate::attr_equals("class", "c"))])))]);
        assert_eq!(
            nested.to_string(),
            r#"descendant::img[ancestor::div[1][@class="c"]]"#
        );
    }

    #[test]
    fn concat_and_axes() {
        let a = Query::new(vec![Step::new(Axis::Descendant, NodeTest::tag("div"))]);
        let b = Query::new(vec![
            Step::new(Axis::Child, NodeTest::tag("span")),
            Step::new(Axis::Attribute, NodeTest::tag("class")),
        ]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        // trailing attribute axis is dropped from axes()
        assert_eq!(c.axes(), vec![Axis::Descendant, Axis::Child]);
        let empty = Query::empty();
        assert_eq!(a.concat(&empty), a);
        assert_eq!(empty.concat(&a).steps, a.steps);
    }

    #[test]
    fn constants_collection() {
        let q = Query::new(vec![
            Step::new(Axis::Descendant, NodeTest::tag("div"))
                .with_predicate(Predicate::attr_equals("id", "main"))
                .with_predicate(Predicate::Position(3)),
            Step::new(Axis::Child, NodeTest::tag("li")).with_predicate(Predicate::Path(
                Query::new(vec![Step::new(Axis::Parent, NodeTest::tag("ul"))
                    .with_predicate(Predicate::text_fn(StringFunction::Contains, "News"))
                    .with_predicate(Predicate::LastOffset(1))]),
            )),
        ]);
        let strings = q.string_constants();
        assert!(strings.contains(&"main"));
        assert!(strings.contains(&"News"));
        assert_eq!(q.int_constants(), vec![3, 1]);
        assert_eq!(q.predicate_count(), 5);
    }

    #[test]
    fn predicate_helpers() {
        assert!(Predicate::Position(2).is_positional());
        assert!(Predicate::LastOffset(0).is_positional());
        assert!(!Predicate::HasAttribute("x".into()).is_positional());
        assert_eq!(
            Predicate::attr_equals("id", "a").string_constant(),
            Some("a")
        );
        assert_eq!(Predicate::Position(1).string_constant(), None);
    }
}
