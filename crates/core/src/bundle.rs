//! [`WrapperBundle`] — induced wrappers as storable, versioned artifacts.
//!
//! Production extraction services induce a wrapper once and then apply it to
//! millions of page versions; that only works if the induced wrapper is a
//! first-class artifact that can be saved, shipped, audited and reloaded.  A
//! bundle captures everything needed to replay an induction result:
//!
//! * the expressions, parsed once — when the bundle is built from induced
//!   instances or decoded from JSON — and replayed from that parse by every
//!   extraction; the JSON form stores their text (human-auditable,
//!   hand-editable) and decoding parses it with [`wi_xpath::parse_query`],
//! * the accuracy counts each expression achieved on its training samples,
//! * the [`ScoringParams`] in force at induction time (scores are recomputed
//!   from these on load, so a reloaded instance ranks identically),
//! * the majority-vote threshold for ensemble bundles.
//!
//! ```
//! use wi_dom::parse_html;
//! use wi_induction::{Extractor, WrapperBundle, WrapperInducer};
//!
//! let doc = parse_html(r#"<body><p class="x">a</p><p class="x">b</p></body>"#).unwrap();
//! let targets = doc.elements_by_class("x");
//! let wrapper = WrapperInducer::default().try_induce_best(&doc, &targets).unwrap();
//!
//! let bundle = WrapperBundle::from_wrapper(&wrapper, Default::default());
//! let json = bundle.to_json_string();
//! let reloaded = WrapperBundle::from_json_str(&json).unwrap();
//! assert_eq!(reloaded.extract(&doc, doc.root()).unwrap(), targets);
//! ```

use crate::api::Wrapper;
use crate::ensemble::WrapperEnsemble;
use crate::error::{BundleError, ExtractError};
use crate::extract::{check_context, Extractor};
use crate::json::{parse_json, JsonValue};
use std::path::Path;
use wi_dom::{Document, NodeId};
use wi_scoring::{Counts, QueryInstance, ScoringParams};
use wi_xpath::{parse_query, Axis, Query, StringFunction};

/// The bundle format version this build reads and writes.
pub const BUNDLE_FORMAT_VERSION: u32 = 1;

/// The format marker written into every bundle.
const BUNDLE_FORMAT: &str = "wrapper-induction/bundle";

/// One stored expression with its training accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleEntry {
    /// The parsed expression (stored as its text in the JSON form).
    pub query: Query,
    /// The accuracy counts the expression achieved on the training samples.
    pub counts: Counts,
    /// The robustness score at save time (informational; recomputed from
    /// the bundled [`ScoringParams`] on load).
    pub score: f64,
}

/// A serializable, versioned set of induced wrappers.
///
/// A bundle with one entry behaves like a [`Wrapper`]; a bundle with several
/// entries behaves like a [`WrapperEnsemble`] and extracts by majority vote.
#[derive(Debug, Clone)]
pub struct WrapperBundle {
    /// Format version (see [`BUNDLE_FORMAT_VERSION`]).
    pub version: u32,
    /// Optional free-form label (task id, site id, …).
    pub label: Option<String>,
    /// Lifecycle revision of this bundle: 0 for a freshly induced bundle,
    /// bumped by every maintenance repair (re-anchor or re-induction).  The
    /// `wi-maintain` registry keys its per-site version history on this.
    pub revision: u32,
    /// Free-form provenance note for the current revision (e.g. the repair
    /// that produced it); `None` for freshly induced bundles.
    pub provenance: Option<String>,
    /// The scoring parameters in force when the wrappers were induced.
    pub params: ScoringParams,
    /// The stored expressions, best-ranked first.
    pub entries: Vec<BundleEntry>,
}

impl WrapperBundle {
    /// Bundles a ranked instance list (best first).
    pub fn from_instances(instances: &[QueryInstance], params: ScoringParams) -> Self {
        WrapperBundle {
            version: BUNDLE_FORMAT_VERSION,
            label: None,
            revision: 0,
            provenance: None,
            params,
            entries: instances
                .iter()
                .map(|inst| BundleEntry {
                    query: inst.query.clone(),
                    counts: inst.counts,
                    score: inst.score,
                })
                .collect(),
        }
    }

    /// Bundles a single wrapper.
    pub fn from_wrapper(wrapper: &Wrapper, params: ScoringParams) -> Self {
        Self::from_instances(std::slice::from_ref(&wrapper.instance), params)
    }

    /// Bundles an ensemble (member order preserved).
    pub fn from_ensemble(ensemble: &WrapperEnsemble, params: ScoringParams) -> Self {
        Self::from_instances(&ensemble.members, params)
    }

    /// Sets the label (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Returns a copy of this bundle with new entries, the revision bumped
    /// by one and the given provenance note — the shape every maintenance
    /// repair produces.  Label, params and format version are preserved.
    pub fn revised(&self, entries: Vec<BundleEntry>, provenance: impl Into<String>) -> Self {
        WrapperBundle {
            version: self.version,
            label: self.label.clone(),
            revision: self.revision + 1,
            provenance: Some(provenance.into()),
            params: self.params.clone(),
            entries,
        }
    }

    /// Rebuilds the ranked instances, recomputing scores from the bundled
    /// parameters.
    pub fn instances(&self) -> Vec<QueryInstance> {
        self.entries.iter().map(|e| self.instance(e)).collect()
    }

    fn instance(&self, entry: &BundleEntry) -> QueryInstance {
        QueryInstance::new(entry.query.clone(), entry.counts, &self.params)
    }

    /// Rebuilds the top-ranked wrapper.
    pub fn to_wrapper(&self) -> Result<Wrapper, BundleError> {
        self.entries
            .first()
            .map(|e| Wrapper::new(self.instance(e)))
            .ok_or_else(|| BundleError::Schema("bundle holds no wrapper".into()))
    }

    /// Rebuilds the full ensemble.
    pub fn to_ensemble(&self) -> WrapperEnsemble {
        WrapperEnsemble::from_members(self.instances())
    }

    /// Renders the bundle as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Renders the bundle as a [`JsonValue`] tree — the same shape
    /// `to_json_string` prints, reusable as a sub-object of a larger
    /// document (the maintenance registry embeds bundles in its version-log
    /// records this way).
    pub fn to_json_value(&self) -> JsonValue {
        let mut members = vec![
            ("format".into(), JsonValue::String(BUNDLE_FORMAT.into())),
            ("version".into(), JsonValue::Number(f64::from(self.version))),
        ];
        if let Some(label) = &self.label {
            members.push(("label".into(), JsonValue::String(label.clone())));
        }
        if self.revision > 0 {
            members.push((
                "revision".into(),
                JsonValue::Number(f64::from(self.revision)),
            ));
        }
        if let Some(provenance) = &self.provenance {
            members.push(("provenance".into(), JsonValue::String(provenance.clone())));
        }
        members.push(("params".into(), params_to_json(&self.params)));
        members.push((
            "wrappers".into(),
            JsonValue::Array(
                self.entries
                    .iter()
                    .map(|entry| {
                        JsonValue::Object(vec![
                            (
                                "expression".into(),
                                JsonValue::String(entry.query.to_string()),
                            ),
                            ("tp".into(), JsonValue::Number(f64::from(entry.counts.tp))),
                            ("fp".into(), JsonValue::Number(f64::from(entry.counts.fp))),
                            ("fne".into(), JsonValue::Number(f64::from(entry.counts.fne))),
                            ("score".into(), JsonValue::Number(entry.score)),
                        ])
                    })
                    .collect(),
            ),
        ));
        JsonValue::Object(members)
    }

    /// Parses a bundle from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, BundleError> {
        let value = parse_json(text).map_err(|e| BundleError::Json {
            offset: e.offset,
            message: e.message,
        })?;
        Self::from_json_value(&value)
    }

    /// Rebuilds a bundle from an already-parsed [`JsonValue`] (the inverse
    /// of [`to_json_value`](WrapperBundle::to_json_value)).  Every stored
    /// expression is parsed here, exactly like `from_json_str`, so a bundle
    /// that cannot extract fails at load time, not at first use.
    pub fn from_json_value(value: &JsonValue) -> Result<Self, BundleError> {
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| BundleError::Schema("missing \"format\" marker".into()))?;
        if format != BUNDLE_FORMAT {
            return Err(BundleError::Schema(format!(
                "not a wrapper bundle (format marker {format:?})"
            )));
        }
        let version = value
            .get("version")
            .and_then(JsonValue::as_u32)
            .ok_or_else(|| BundleError::Schema("missing \"version\"".into()))?;
        if version != BUNDLE_FORMAT_VERSION {
            return Err(BundleError::Version {
                found: version,
                supported: BUNDLE_FORMAT_VERSION,
            });
        }
        let label = value
            .get("label")
            .and_then(JsonValue::as_str)
            .map(String::from);
        // Lifecycle metadata is optional: bundles written before the
        // maintenance subsystem (or never repaired) are revision 0.
        let revision = value
            .get("revision")
            .and_then(JsonValue::as_u32)
            .unwrap_or(0);
        let provenance = value
            .get("provenance")
            .and_then(JsonValue::as_str)
            .map(String::from);
        let params = params_from_json(
            value
                .get("params")
                .ok_or_else(|| BundleError::Schema("missing \"params\"".into()))?,
        )?;
        let wrappers = value
            .get("wrappers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| BundleError::Schema("missing \"wrappers\" array".into()))?;
        let entries = wrappers
            .iter()
            .map(|w| {
                let expression = w
                    .get("expression")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| BundleError::Schema("wrapper without \"expression\"".into()))?;
                let query = parse_query(expression)?;
                let count_field = |name: &str| {
                    w.get(name)
                        .and_then(JsonValue::as_u32)
                        .ok_or_else(|| BundleError::Schema(format!("wrapper without \"{name}\"")))
                };
                let counts =
                    Counts::new(count_field("tp")?, count_field("fp")?, count_field("fne")?);
                let score = w.get("score").and_then(JsonValue::as_f64).unwrap_or(0.0);
                Ok(BundleEntry {
                    query,
                    counts,
                    score,
                })
            })
            .collect::<Result<Vec<_>, BundleError>>()?;
        Ok(WrapperBundle {
            version,
            label,
            revision,
            provenance,
            params,
            entries,
        })
    }

    /// Extracts from `doc`'s root and returns the normalized text of each
    /// selected node, reusing the caller's evaluation context.
    ///
    /// This is the serving hot path's bundle lookup plumbing (`wi-serve`
    /// resolves a site key to its current bundle and answers with texts):
    /// one call, one context, no intermediate `NodeId` surface for callers
    /// that only want values.
    pub fn extract_texts_with(
        &self,
        cx: &mut wi_xpath::EvalContext,
        doc: &Document,
    ) -> Result<Vec<String>, ExtractError> {
        Ok(self
            .extract_with(cx, doc, doc.root())?
            .into_iter()
            .map(|n| doc.normalized_text(n))
            .collect())
    }

    /// Writes the bundle to a JSON file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), BundleError> {
        let mut text = self.to_json_string();
        text.push('\n');
        std::fs::write(path, text)?;
        Ok(())
    }

    /// Reads a bundle from a JSON file.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, BundleError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
    }

    /// Checks that the bundle holds an expression and returns it unchanged:
    /// a bundle's expressions are parsed once when it is built or decoded,
    /// so there is nothing left to compile.  Kept because the `servebench`
    /// harness still times this call as its `bundle.compile` trace layer.
    pub fn compile_extractor(&self) -> Result<&Self, ExtractError> {
        if self.entries.is_empty() {
            return Err(ExtractError::EmptyWrapper);
        }
        Ok(self)
    }
}

/// Bundles extract like the wrapper/ensemble they store: a single entry
/// evaluates directly, several entries vote by majority.
impl Extractor for WrapperBundle {
    fn extract_with(
        &self,
        cx: &mut wi_xpath::EvalContext,
        doc: &Document,
        context: NodeId,
    ) -> Result<Vec<NodeId>, ExtractError> {
        match self.entries.as_slice() {
            [] => Err(ExtractError::EmptyWrapper),
            [one] => one.query.extract_with(cx, doc, context),
            entries => {
                check_context(doc, context)?;
                let queries = entries.iter().map(|e| &e.query);
                Ok(crate::ensemble::majority(cx, queries, doc, context))
            }
        }
    }

    fn describe(&self) -> String {
        self.entries
            .iter()
            .map(|e| e.query.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

fn map_to_json<K: AsRef<str>>(map: impl IntoIterator<Item = (K, f64)>) -> JsonValue {
    JsonValue::Object(
        map.into_iter()
            .map(|(k, v)| (k.as_ref().to_string(), JsonValue::Number(v)))
            .collect(),
    )
}

fn params_to_json(params: &ScoringParams) -> JsonValue {
    JsonValue::Object(vec![
        ("decay".into(), JsonValue::Number(params.decay)),
        (
            "axis_scores".into(),
            map_to_json(params.axis_scores.iter().map(|(a, &v)| (a.name(), v))),
        ),
        (
            "axis_default".into(),
            JsonValue::Number(params.axis_default),
        ),
        (
            "nodetest_node".into(),
            JsonValue::Number(params.nodetest_node),
        ),
        (
            "nodetest_any_element".into(),
            JsonValue::Number(params.nodetest_any_element),
        ),
        (
            "nodetest_text".into(),
            JsonValue::Number(params.nodetest_text),
        ),
        (
            "tag_scores".into(),
            map_to_json(params.tag_scores.iter().map(|(t, &v)| (t.as_str(), v))),
        ),
        ("tag_default".into(), JsonValue::Number(params.tag_default)),
        (
            "attribute_scores".into(),
            map_to_json(
                params
                    .attribute_scores
                    .iter()
                    .map(|(a, &v)| (a.as_str(), v)),
            ),
        ),
        (
            "attribute_default".into(),
            JsonValue::Number(params.attribute_default),
        ),
        (
            "function_scores".into(),
            map_to_json(params.function_scores.iter().map(|(f, &v)| (f.name(), v))),
        ),
        ("last_score".into(), JsonValue::Number(params.last_score)),
        (
            "text_access_score".into(),
            JsonValue::Number(params.text_access_score),
        ),
        (
            "positional_factor".into(),
            JsonValue::Number(params.positional_factor),
        ),
        (
            "length_factor".into(),
            JsonValue::Number(params.length_factor),
        ),
        (
            "no_function_penalty".into(),
            JsonValue::Number(params.no_function_penalty),
        ),
        (
            "no_predicate_penalty".into(),
            JsonValue::Number(params.no_predicate_penalty),
        ),
    ])
}

fn string_function_from_name(name: &str) -> Option<StringFunction> {
    StringFunction::ALL
        .iter()
        .copied()
        .find(|f| f.name() == name)
}

fn params_from_json(value: &JsonValue) -> Result<ScoringParams, BundleError> {
    let field = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| BundleError::Schema(format!("params missing \"{name}\"")))
    };
    let entries = |name: &str| -> Result<Vec<(String, f64)>, BundleError> {
        match value.get(name) {
            None => Ok(Vec::new()),
            Some(JsonValue::Object(members)) => members
                .iter()
                .map(|(k, v)| {
                    v.as_f64().map(|v| (k.clone(), v)).ok_or_else(|| {
                        BundleError::Schema(format!("non-numeric entry in \"{name}\""))
                    })
                })
                .collect(),
            Some(_) => Err(BundleError::Schema(format!("\"{name}\" must be an object"))),
        }
    };

    let mut params = ScoringParams {
        decay: field("decay")?,
        axis_scores: Default::default(),
        axis_default: field("axis_default")?,
        nodetest_node: field("nodetest_node")?,
        nodetest_any_element: field("nodetest_any_element")?,
        nodetest_text: field("nodetest_text")?,
        tag_scores: Default::default(),
        tag_default: field("tag_default")?,
        attribute_scores: Default::default(),
        attribute_default: field("attribute_default")?,
        function_scores: Default::default(),
        last_score: field("last_score")?,
        text_access_score: field("text_access_score")?,
        positional_factor: field("positional_factor")?,
        length_factor: field("length_factor")?,
        no_function_penalty: field("no_function_penalty")?,
        no_predicate_penalty: field("no_predicate_penalty")?,
    };
    for (name, score) in entries("axis_scores")? {
        let axis = Axis::from_name(&name)
            .ok_or_else(|| BundleError::Schema(format!("unknown axis {name:?}")))?;
        params.axis_scores.insert(axis, score);
    }
    for (name, score) in entries("tag_scores")? {
        params.tag_scores.insert(name, score);
    }
    for (name, score) in entries("attribute_scores")? {
        params.attribute_scores.insert(name, score);
    }
    for (name, score) in entries("function_scores")? {
        let func = string_function_from_name(&name)
            .ok_or_else(|| BundleError::Schema(format!("unknown string function {name:?}")))?;
        params.function_scores.insert(func, score);
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WrapperInducer;
    use wi_dom::parse_html;

    const PAGE: &str = r#"<body>
        <div id="main">
          <h4 class="inline">Director:</h4>
          <a href="/n"><span class="itemprop" itemprop="name">Martin Scorsese</span></a>
        </div>
        <div id="side"><span>Advert</span></div>
    </body>"#;

    fn target(doc: &Document) -> NodeId {
        doc.descendants(doc.root())
            .find(|&n| doc.tag_name(n) == Some("span") && doc.attribute(n, "itemprop").is_some())
            .unwrap()
    }

    #[test]
    fn wrapper_bundle_round_trips_through_json() {
        let doc = parse_html(PAGE).unwrap();
        let t = target(&doc);
        let wrapper = WrapperInducer::default()
            .try_induce_best(&doc, &[t])
            .unwrap();
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
            .with_label("imdb");
        let json = bundle.to_json_string();
        let reloaded = WrapperBundle::from_json_str(&json).unwrap();
        assert_eq!(reloaded.label.as_deref(), Some("imdb"));
        assert_eq!(reloaded.entries, bundle.entries);
        // The reloaded wrapper extracts identically.
        assert_eq!(reloaded.extract(&doc, doc.root()).unwrap(), vec![t]);
        let rebuilt = reloaded.to_wrapper().unwrap();
        assert_eq!(rebuilt.expression(), wrapper.expression());
        assert_eq!(rebuilt.instance.score, wrapper.instance.score);
        // And the JSON itself is stable under a second round trip.
        assert_eq!(reloaded.to_json_string(), json);
    }

    #[test]
    fn ensemble_bundle_round_trips_and_votes() {
        let doc = parse_html(PAGE).unwrap();
        let t = target(&doc);
        let ensemble = WrapperEnsemble::induce_single(&doc, &[t]);
        assert!(ensemble.len() >= 2);
        let bundle = WrapperBundle::from_ensemble(&ensemble, ScoringParams::paper_defaults());
        let reloaded = WrapperBundle::from_json_str(&bundle.to_json_string()).unwrap();
        assert_eq!(reloaded.entries.len(), ensemble.len());
        assert_eq!(reloaded.extract(&doc, doc.root()).unwrap(), vec![t]);
        assert_eq!(reloaded.to_ensemble().expressions(), ensemble.expressions());
    }

    #[test]
    fn revision_metadata_round_trips_and_defaults_to_zero() {
        let doc = parse_html(PAGE).unwrap();
        let t = target(&doc);
        let wrapper = WrapperInducer::default()
            .try_induce_best(&doc, &[t])
            .unwrap();
        let v0 = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults())
            .with_label("imdb");
        assert_eq!(v0.revision, 0);
        assert!(v0.provenance.is_none());
        // Revision 0 stays off the wire (old readers see the same artifact).
        assert!(!v0.to_json_string().contains("revision"));
        assert_eq!(
            WrapperBundle::from_json_str(&v0.to_json_string())
                .unwrap()
                .revision,
            0
        );

        let v1 = v0.revised(v0.entries.clone(), "re-anchored @class main -> main-r1");
        assert_eq!(v1.revision, 1);
        assert_eq!(v1.label, v0.label);
        let reloaded = WrapperBundle::from_json_str(&v1.to_json_string()).unwrap();
        assert_eq!(reloaded.revision, 1);
        assert_eq!(
            reloaded.provenance.as_deref(),
            Some("re-anchored @class main -> main-r1")
        );
        assert_eq!(v1.revised(v1.entries.clone(), "again").revision, 2);
    }

    #[test]
    fn save_and_load_files() {
        let doc = parse_html(PAGE).unwrap();
        let t = target(&doc);
        let wrapper = WrapperInducer::default()
            .try_induce_best(&doc, &[t])
            .unwrap();
        let bundle = WrapperBundle::from_wrapper(&wrapper, ScoringParams::paper_defaults());
        let dir = std::env::temp_dir().join("wi-bundle-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bundle-{}.json", std::process::id()));
        bundle.save_json(&path).unwrap();
        let reloaded = WrapperBundle::load_json(&path).unwrap();
        assert_eq!(reloaded.extract(&doc, doc.root()).unwrap(), vec![t]);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            WrapperBundle::load_json(&path),
            Err(BundleError::Io(_))
        ));
    }

    #[test]
    fn rejects_corrupt_artifacts() {
        assert!(matches!(
            WrapperBundle::from_json_str("{"),
            Err(BundleError::Json { .. })
        ));
        assert!(matches!(
            WrapperBundle::from_json_str("{\"format\": \"other\", \"version\": 1}"),
            Err(BundleError::Schema(_))
        ));
        let wrong_version = format!(
            "{{\"format\": \"{BUNDLE_FORMAT}\", \"version\": 99, \"params\": {{}}, \"wrappers\": []}}"
        );
        assert!(matches!(
            WrapperBundle::from_json_str(&wrong_version),
            Err(BundleError::Version { found: 99, .. })
        ));
        let bad_expr = format!(
            "{{\"format\": \"{BUNDLE_FORMAT}\", \"version\": 1, \"params\": {}, \"wrappers\": [{{\"expression\": \"][\", \"tp\": 1, \"fp\": 0, \"fne\": 0}}]}}",
            params_to_json(&ScoringParams::paper_defaults()).to_pretty()
        );
        assert!(matches!(
            WrapperBundle::from_json_str(&bad_expr),
            Err(BundleError::Query(_))
        ));
    }

    #[test]
    fn deeply_nested_expression_is_a_query_error() {
        let levels = 10_000;
        let expression = format!(
            "{}descendant::a{}",
            "descendant::a[".repeat(levels),
            "]".repeat(levels)
        );
        let json = format!(
            "{{\"format\": \"{BUNDLE_FORMAT}\", \"version\": 1, \"params\": {}, \"wrappers\": [{{\"expression\": \"{expression}\", \"tp\": 1, \"fp\": 0, \"fne\": 0}}]}}",
            params_to_json(&ScoringParams::paper_defaults()).to_pretty()
        );
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                matches!(
                    WrapperBundle::from_json_str(&json),
                    Err(BundleError::Query(_))
                )
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(decoded);
    }

    #[test]
    fn scoring_params_survive_the_round_trip() {
        let params = ScoringParams::paper_defaults();
        let json = params_to_json(&params).to_pretty();
        let reloaded = params_from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(reloaded.decay, params.decay);
        assert_eq!(reloaded.axis_score(Axis::PrecedingSibling), 25.0);
        assert_eq!(reloaded.attribute_score("name"), 50.0);
        assert_eq!(reloaded.function_score(StringFunction::Contains), 5.0);
        assert_eq!(reloaded.no_predicate_penalty, params.no_predicate_penalty);
        // An empty bundle with these params still ranks instances the same.
        let q = parse_query("descendant::div").unwrap();
        let a = QueryInstance::new(q.clone(), Counts::new(1, 0, 0), &params);
        let b = QueryInstance::new(q, Counts::new(1, 0, 0), &reloaded);
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn empty_bundle_reports_empty_wrapper() {
        let bundle = WrapperBundle::from_instances(&[], ScoringParams::paper_defaults());
        let doc = parse_html(PAGE).unwrap();
        assert_eq!(
            bundle.extract(&doc, doc.root()).unwrap_err(),
            ExtractError::EmptyWrapper
        );
        assert!(bundle.to_wrapper().is_err());
    }
}
