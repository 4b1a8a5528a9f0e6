//! High-level convenience API: [`WrapperInducer`] and [`Wrapper`].

use crate::config::InductionConfig;
use crate::error::InduceError;
use crate::induce::induce;
use crate::sample::Sample;
use wi_dom::{Document, NodeId};
use wi_scoring::QueryInstance;
use wi_xpath::Query;

/// A ready-to-use induced wrapper: the ranked expression plus convenience
/// methods for applying it to (new versions of) pages.
///
/// Extraction itself lives on the [`crate::Extractor`] trait, which
/// `Wrapper` implements: `wrapper.extract(&doc, context)` or
/// `wrapper.extract_root(&doc)`.
#[derive(Debug, Clone)]
pub struct Wrapper {
    /// The underlying ranked query instance.
    pub instance: QueryInstance,
}

impl Wrapper {
    /// Creates a wrapper from a query instance.
    pub fn new(instance: QueryInstance) -> Self {
        Wrapper { instance }
    }

    /// The wrapper's XPath expression.
    pub fn query(&self) -> &Query {
        &self.instance.query
    }

    /// The textual form of the expression.
    pub fn expression(&self) -> String {
        self.instance.query.to_string()
    }

    /// Extracts (from the root) and returns the normalized text of each
    /// selected node.
    ///
    /// Callers extracting from many documents should prefer
    /// [`Extractor::extract_with`](crate::Extractor::extract_with) (or
    /// [`extract_batch`](crate::Extractor::extract_batch)) and read the text
    /// themselves: those paths reuse one evaluation context across
    /// documents.
    pub fn extract_text(&self, doc: &Document) -> Vec<String> {
        use crate::extract::Extractor;
        self.extract_root(doc)
            .unwrap_or_default()
            .into_iter()
            .map(|n| doc.normalized_text(n))
            .collect()
    }
}

impl std::fmt::Display for Wrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.instance.query)
    }
}

/// The main entry point for wrapper induction.
///
/// A `WrapperInducer` owns an [`InductionConfig`] and exposes the paper's
/// `induce` procedure in a few convenient shapes.
#[derive(Debug, Clone, Default)]
pub struct WrapperInducer {
    /// The configuration used for all inductions.
    pub config: InductionConfig,
}

impl WrapperInducer {
    /// Creates an inducer with the given configuration.
    pub fn new(config: InductionConfig) -> Self {
        WrapperInducer { config }
    }

    /// Creates an inducer with the paper's default configuration and the
    /// given best-K bound.
    pub fn with_k(k: usize) -> Self {
        WrapperInducer {
            config: InductionConfig::default().with_k(k),
        }
    }

    /// Induces ranked query instances from arbitrary samples.
    pub fn induce(&self, samples: &[Sample<'_>]) -> Vec<QueryInstance> {
        induce(samples, &self.config)
    }

    /// Induces ranked query instances from a single page annotated at the
    /// given target nodes (context = document root).
    pub fn induce_single(&self, doc: &Document, targets: &[NodeId]) -> Vec<QueryInstance> {
        let sample = Sample::from_root(doc, targets);
        induce(&[sample], &self.config)
    }

    /// Induces ranked query instances from validated samples, with typed
    /// errors for every failure mode.
    pub fn try_induce(&self, samples: &[Sample<'_>]) -> Result<Vec<QueryInstance>, InduceError> {
        if samples.is_empty() {
            return Err(InduceError::NoSamples);
        }
        for sample in samples {
            if sample.targets.is_empty() {
                return Err(InduceError::NoTargets);
            }
            if let Some(&missing) = sample.targets.iter().find(|&&t| !sample.doc.contains(t)) {
                return Err(InduceError::MissingTarget(missing));
            }
        }
        let ranked = induce(samples, &self.config);
        if ranked.is_empty() {
            return Err(InduceError::NoWrapperFound);
        }
        Ok(ranked)
    }

    /// Induces ranked instances from a single annotated page (context =
    /// document root), with typed errors.
    pub fn try_induce_single(
        &self,
        doc: &Document,
        targets: &[NodeId],
    ) -> Result<Vec<QueryInstance>, InduceError> {
        let sample = Sample::from_root(doc, targets);
        self.try_induce(&[sample])
    }

    /// Induces and returns the top-ranked wrapper, with typed errors: an
    /// empty target set, a stale node id and an empty candidate ranking are
    /// distinguishable.
    pub fn try_induce_best(
        &self,
        doc: &Document,
        targets: &[NodeId],
    ) -> Result<Wrapper, InduceError> {
        Ok(Wrapper::new(
            self.try_induce_single(doc, targets)?.remove(0),
        ))
    }

    /// Re-induces a wrapper on a (new version of a) page from the *values* a
    /// previous wrapper extracted, returning the top-ranked wrapper together
    /// with the harvested target nodes.
    ///
    /// This is the re-induction path of the wrapper lifecycle: when a
    /// deployed wrapper breaks and cannot be re-anchored in place, its
    /// last-known-good extraction texts are located on the evolved page
    /// (innermost value match, see
    /// [`harvest_targets_by_text`](crate::sample::harvest_targets_by_text)),
    /// annotated as a fresh [`Sample`], and run through `induce` again.
    /// Fails with [`InduceError::EmptyHarvest`] when none of the texts occur
    /// on the page (the target has genuinely disappeared).
    pub fn try_induce_from_texts(
        &self,
        doc: &Document,
        texts: &[String],
    ) -> Result<(Wrapper, Vec<NodeId>), InduceError> {
        let targets = crate::sample::harvest_targets_by_text(doc, texts);
        if targets.is_empty() {
            return Err(InduceError::EmptyHarvest);
        }
        let wrapper = self.try_induce_best(doc, &targets)?;
        Ok((wrapper, targets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::Extractor;
    use wi_dom::parse_html;

    #[test]
    fn end_to_end_via_api() {
        let doc = parse_html(
            r#"<body><div id="products">
                <span class="price">10</span>
                <span class="price">20</span>
            </div></body>"#,
        )
        .unwrap();
        let prices = doc.elements_by_class("price");
        let inducer = WrapperInducer::with_k(5);
        let wrapper = inducer.try_induce_best(&doc, &prices).expect("a wrapper");
        assert_eq!(wrapper.extract_root(&doc).unwrap(), prices);
        assert_eq!(wrapper.extract_text(&doc), vec!["10", "20"]);
        assert!(!wrapper.expression().is_empty());
        assert_eq!(format!("{wrapper}"), wrapper.expression());
    }

    #[test]
    fn try_induce_reports_typed_errors() {
        let doc = parse_html("<body><p>x</p></body>").unwrap();
        let inducer = WrapperInducer::default();
        assert_eq!(
            inducer.try_induce_best(&doc, &[]).unwrap_err(),
            InduceError::NoTargets
        );
        assert_eq!(inducer.try_induce(&[]).unwrap_err(), InduceError::NoSamples);
        let stale = wi_dom::NodeId::from_index(10_000);
        assert_eq!(
            inducer.try_induce_best(&doc, &[stale]).unwrap_err(),
            InduceError::MissingTarget(stale)
        );
    }

    #[test]
    fn reinduction_from_texts_finds_and_wraps_the_values() {
        // The "evolved" page: same data, renamed classes.
        let doc = parse_html(
            r#"<body><div id="products-v2">
                <span class="amount">10</span>
                <span class="amount">20</span>
            </div><div id="side"><span>10 reasons</span></div></body>"#,
        )
        .unwrap();
        let inducer = WrapperInducer::with_k(5);
        let texts = vec!["10".to_string(), "20".to_string()];
        let (wrapper, targets) = inducer
            .try_induce_from_texts(&doc, &texts)
            .expect("re-induction succeeds");
        assert_eq!(targets, doc.elements_by_class("amount"));
        use crate::extract::Extractor;
        assert_eq!(wrapper.extract_root(&doc).unwrap(), targets);

        // Values that are nowhere on the page are a typed failure.
        assert_eq!(
            inducer
                .try_induce_from_texts(&doc, &["gone".to_string()])
                .unwrap_err(),
            InduceError::EmptyHarvest
        );
        assert_eq!(
            inducer.try_induce_from_texts(&doc, &[]).unwrap_err(),
            InduceError::EmptyHarvest
        );
    }

    #[test]
    fn extract_from_context() {
        let doc =
            parse_html(r#"<body><div id="a"><em>x</em></div><div id="b"><em>y</em></div></body>"#)
                .unwrap();
        let div_a = doc.element_by_id("a").unwrap();
        let em_a = doc.elements_by_tag("em")[0];
        let targets = vec![em_a];
        let sample = Sample::new(&doc, div_a, &targets);
        let inducer = WrapperInducer::default();
        let instances = inducer.induce(&[sample]);
        let wrapper = Wrapper::new(instances[0].clone());
        assert_eq!(wrapper.extract(&doc, div_a).unwrap(), vec![em_a]);
    }
}
