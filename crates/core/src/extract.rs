//! The workspace-wide [`Extractor`] interface and the batch engine.
//!
//! Every way of turning a document into a node set — an induced [`Wrapper`],
//! a [`WrapperEnsemble`], a raw [`Query`], and the four baseline inducers in
//! `wi-baselines` — implements this one trait, so the evaluation harness,
//! the benches and production callers drive them uniformly:
//!
//! ```
//! use wi_dom::parse_html;
//! use wi_induction::{Extractor, WrapperInducer};
//!
//! let doc = parse_html(r#"<body><ul>
//!     <li class="p">10</li><li class="p">20</li>
//! </ul></body>"#).unwrap();
//! let targets = doc.elements_by_class("p");
//! let wrapper = WrapperInducer::with_k(3).try_induce_best(&doc, &targets).unwrap();
//! let nodes = wrapper.extract(&doc, doc.root()).unwrap();
//! assert_eq!(nodes, targets);
//! // The batch path extracts from many documents, in parallel by default.
//! let docs = vec![doc.clone(), doc];
//! let results = wrapper.extract_batch(&docs);
//! assert!(results.iter().all(|r| r.as_ref().unwrap() == &targets));
//! ```

use crate::api::Wrapper;
use crate::ensemble::WrapperEnsemble;
use crate::error::ExtractError;
use wi_dom::{Document, NodeId};
use wi_xpath::{evaluate_with, EvalContext, Query};

/// Number of documents below which [`Extractor::extract_batch`] stays on the
/// calling thread: spawning threads for a couple of pages costs more than it
/// saves.
const PARALLEL_THRESHOLD: usize = 8;

/// A wrapper that can be applied to (versions of) documents.
///
/// Implementors must be thread-safe (`Send + Sync`): the default
/// [`extract_batch`](Extractor::extract_batch) fans extraction out over all
/// available cores with scoped threads.
pub trait Extractor: Send + Sync {
    /// Extracts the wrapper's node set from `doc`, evaluated from `context`.
    fn extract(&self, doc: &Document, context: NodeId) -> Result<Vec<NodeId>, ExtractError> {
        self.extract_with(&mut EvalContext::new(), doc, context)
    }

    /// Like [`extract`](Extractor::extract), but threading a reusable
    /// [`EvalContext`] through the evaluation.
    ///
    /// The context carries the evaluator's scratch buffers, so a caller that
    /// extracts from many documents — the batch engine, the robustness
    /// harness, the benches — pays the buffer allocations once instead of
    /// per document.  (Per-document index builds are amortized separately:
    /// each [`Document`] caches its own order/tag indexes across every query
    /// evaluated on it.)  Implementations that do not evaluate queries can
    /// ignore the context; the two methods must agree, and each has a
    /// default in terms of the other, so implementors override exactly one.
    fn extract_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        let _ = cx;
        self.extract(doc, context)
    }

    /// A printable form of the wrapper.
    fn describe(&self) -> String;

    /// Extracts from the document root.
    fn extract_root(&self, doc: &Document) -> Result<Vec<NodeId>, ExtractError> {
        self.extract(doc, doc.root())
    }

    /// Applies the wrapper to every document (from each document's root),
    /// returning one result per input, in input order.
    ///
    /// Large batches are spread over all available cores; small batches run
    /// on the calling thread.  Each worker reuses one [`EvalContext`] for
    /// its whole chunk.  The results are exactly those of
    /// [`extract_batch_sequential`](Extractor::extract_batch_sequential).
    fn extract_batch(&self, docs: &[Document]) -> Vec<Result<Vec<NodeId>, ExtractError>> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(docs.len());
        if docs.len() < PARALLEL_THRESHOLD || workers < 2 {
            return self.extract_batch_sequential(docs);
        }
        let chunk_size = docs.len().div_ceil(workers);
        let mut results: Vec<Result<Vec<NodeId>, ExtractError>> = Vec::with_capacity(docs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut cx = EvalContext::new();
                        chunk
                            .iter()
                            .map(|doc| self.extract_with(&mut cx, doc, doc.root()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                results.extend(handle.join().expect("extraction worker panicked"));
            }
        });
        results
    }

    /// The sequential reference implementation of
    /// [`extract_batch`](Extractor::extract_batch).
    fn extract_batch_sequential(
        &self,
        docs: &[Document],
    ) -> Vec<Result<Vec<NodeId>, ExtractError>> {
        let mut cx = EvalContext::new();
        docs.iter()
            .map(|doc| self.extract_with(&mut cx, doc, doc.root()))
            .collect()
    }
}

pub(crate) fn check_context(doc: &Document, context: NodeId) -> Result<(), ExtractError> {
    if doc.contains(context) {
        Ok(())
    } else {
        Err(ExtractError::InvalidContext(context))
    }
}

/// A raw query is the smallest extractor.
impl Extractor for Query {
    fn extract_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        check_context(doc, context)?;
        Ok(evaluate_with(cx, self, doc, context))
    }

    fn describe(&self) -> String {
        self.to_string()
    }
}

impl Extractor for Wrapper {
    fn extract_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        self.instance.query.extract_with(cx, doc, context)
    }

    fn describe(&self) -> String {
        self.expression()
    }
}

/// Ensembles extract by majority vote over their members.
impl Extractor for WrapperEnsemble {
    fn extract_with(
        &self,
        cx: &mut EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        if self.is_empty() {
            return Err(ExtractError::EmptyWrapper);
        }
        check_context(doc, context)?;
        Ok(self.extract_majority_from_with(cx, doc, context))
    }

    fn describe(&self) -> String {
        self.expressions().join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WrapperInducer;
    use wi_dom::parse_html;
    use wi_xpath::parse_query;

    fn page(n: usize) -> Document {
        let items: String = (0..n)
            .map(|i| format!(r#"<li class="item">v{i}</li>"#))
            .collect();
        parse_html(&format!("<body><ul>{items}</ul></body>")).unwrap()
    }

    #[test]
    fn query_extracts_and_reports_bad_contexts() {
        let doc = page(3);
        let q = parse_query(r#"descendant::li[@class="item"]"#).unwrap();
        assert_eq!(q.extract_root(&doc).unwrap().len(), 3);
        assert_eq!(q.describe(), r#"descendant::li[@class="item"]"#);
        let bogus = wi_dom::NodeId::from_index(10_000);
        assert_eq!(
            q.extract(&doc, bogus).unwrap_err(),
            ExtractError::InvalidContext(bogus)
        );
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let docs: Vec<Document> = (1..40).map(page).collect();
        let q = parse_query("descendant::li").unwrap();
        let parallel = q.extract_batch(&docs);
        let sequential = q.extract_batch_sequential(&docs);
        assert_eq!(parallel, sequential);
        for (i, result) in parallel.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap().len(), i + 1);
        }
    }

    #[test]
    fn ensemble_extractor_requires_members() {
        let doc = page(2);
        let empty = WrapperEnsemble::default();
        assert_eq!(
            empty.extract_root(&doc).unwrap_err(),
            ExtractError::EmptyWrapper
        );
    }

    #[test]
    fn wrapper_and_ensemble_extract_through_the_trait() {
        let doc = page(4);
        let targets = doc.elements_by_class("item");
        let wrapper = WrapperInducer::with_k(3)
            .try_induce_best(&doc, &targets)
            .unwrap();
        assert_eq!(wrapper.extract_root(&doc).unwrap(), targets);
        assert!(!wrapper.describe().is_empty());

        let ensemble = WrapperEnsemble::induce_single(&doc, &targets);
        assert_eq!(ensemble.extract_root(&doc).unwrap(), targets);
        assert!(ensemble.describe().contains(" | ") || ensemble.len() == 1);
    }

    #[test]
    fn extractors_are_object_safe() {
        let q = parse_query("descendant::li").unwrap();
        let doc = page(2);
        let dynamic: &dyn Extractor = &q;
        assert_eq!(dynamic.extract_root(&doc).unwrap().len(), 2);
        assert_eq!(dynamic.extract_batch(&[doc.clone(), doc]).len(), 2);
    }
}
