//! Endpoint handlers: one function per [`Route`], dispatched by [`handle`].
//!
//! Handlers never panic on bad input — every malformed body, unknown site
//! or registry refusal maps to a typed HTTP status: 400 (unparseable
//! body), 404 (unknown site/route), 405 (wrong method), 409 (revision
//! conflict), 422 (well-formed but unusable payload), 503 (poisoned
//! registry).  Site-keyed requests record their `shard_of` routing in the
//! metrics before touching the registry.

use std::sync::atomic::Ordering;
use std::time::Instant;

use wi_dom::Document;
use wi_induction::json::{parse_json, JsonValue};
use wi_induction::{Extractor, Sample, WrapperBundle};
use wi_maintain::{MaintenanceJob, PageVersion, RegistryError};
use wi_xpath::EvalContext;

use crate::http::{Request, Response};
use crate::metrics::Endpoint;
use crate::router::{route, Route, RouteError};
use crate::server::ServeState;

/// What a handler produced: a fixed-length response or a chunk sequence
/// (the connection loop frames the latter with chunked transfer encoding,
/// flushing after every chunk).
pub enum Reply {
    /// Write with `Content-Length`.
    Full(Response),
    /// Stream with `Transfer-Encoding: chunked`.
    Chunked {
        /// Response status.
        status: u16,
        /// `Content-Type` of the stream.
        content_type: &'static str,
        /// The chunks, written and flushed one at a time.
        chunks: Vec<Vec<u8>>,
    },
}

impl Reply {
    /// The response status (for metrics).
    pub fn status(&self) -> u16 {
        match self {
            Reply::Full(response) => response.status,
            Reply::Chunked { status, .. } => *status,
        }
    }
}

// `Reply: 'static`, checked against `handle`'s own signature: a reply
// borrows from none of `handle`'s arguments, so no registry guard or
// registry borrow can reach `write_reply`, which only runs after `handle`
// returns.  `handle` is the only code that locks the registry, and it never
// sees the stream.
const _: () = {
    const fn owned<R: 'static>(_: fn(&ServeState, &mut EvalContext, &Request) -> (Endpoint, R)) {}
    owned(handle);
};

/// Routes and executes one request, returning the endpoint label (for
/// metrics) alongside the reply.
pub fn handle(state: &ServeState, cx: &mut EvalContext, request: &Request) -> (Endpoint, Reply) {
    let started = Instant::now();
    let (endpoint, reply) = match route(&request.method, request.path()) {
        Ok(Route::Healthz) => (Endpoint::Healthz, healthz(state)),
        Ok(Route::Metrics) => (Endpoint::Metrics, metrics(state)),
        Ok(Route::DebugTrace) => (Endpoint::DebugTrace, debug_trace()),
        Ok(Route::DebugSlow) => (Endpoint::DebugSlow, debug_slow()),
        Ok(Route::Shutdown) => (Endpoint::Shutdown, shutdown(state)),
        Ok(Route::Snapshot) => (Endpoint::Snapshot, snapshot(state, request)),
        Ok(Route::Extract(site)) => (Endpoint::Extract, extract(state, cx, &site, request)),
        Ok(Route::ExtractBatch) => (Endpoint::ExtractBatch, extract_batch(state, request)),
        Ok(Route::Induce(site)) => (Endpoint::Induce, induce(state, &site, request)),
        Ok(Route::Maintain(site)) => (Endpoint::Maintain, maintain(state, &site, request)),
        Ok(Route::Site(site)) => (Endpoint::Site, site_info(state, &site)),
        Err(RouteError::NotFound) => (
            Endpoint::Other,
            error_reply(404, format!("no route for {}", request.path())),
        ),
        Err(RouteError::MethodNotAllowed(allowed)) => (
            Endpoint::Other,
            error_reply(
                405,
                format!("{} not allowed here (use {allowed})", request.method),
            ),
        ),
    };
    state
        .metrics
        .record(endpoint, reply.status(), started.elapsed());
    wi_obs::record_span(
        "serve.request",
        started,
        &[("status", u64::from(reply.status()))],
    );
    (endpoint, reply)
}

fn healthz(state: &ServeState) -> Reply {
    let Ok(registry) = state.registry.read() else {
        return error_reply(500, "registry lock poisoned");
    };
    let poisoned = registry.is_poisoned();
    let body = object(vec![
        (
            "status",
            JsonValue::String(if poisoned { "degraded" } else { "ok" }.into()),
        ),
        ("sites", number(registry.site_count() as f64)),
        ("poisoned", JsonValue::Bool(poisoned)),
    ]);
    json_reply(if poisoned { 503 } else { 200 }, &body)
}

fn metrics(state: &ServeState) -> Reply {
    let Ok(registry) = state.registry.read() else {
        return error_reply(500, "registry lock poisoned");
    };
    Reply::Full(Response::text(200, state.metrics.render(&registry)))
}

/// `GET /debug/trace`: the recent trace journal, one NDJSON record per
/// line (empty body while tracing is off — the journal only fills when
/// `--trace` enabled it).
fn debug_trace() -> Reply {
    let mut response = Response::text(200, wi_obs::trace_ndjson(256));
    response.content_type = "application/x-ndjson";
    Reply::Full(response)
}

/// `GET /debug/slow`: the top-K slowest spans at or over the slow-log
/// threshold, slowest first, one NDJSON record per line.
fn debug_slow() -> Reply {
    let mut response = Response::text(200, wi_obs::slow_ndjson());
    response.content_type = "application/x-ndjson";
    Reply::Full(response)
}

/// `POST /admin/shutdown`: sets the drain flag; the connection loop that
/// sees it flip wakes the acceptor.
fn shutdown(state: &ServeState) -> Reply {
    state.shutdown.store(true, Ordering::SeqCst);
    json_reply(
        200,
        &object(vec![("status", JsonValue::String("draining".into()))]),
    )
}

/// `POST /admin/snapshot`: seals every shard's active segment and
/// captures the registry's durable state under `snapshots/{name}`.  The
/// body is optional JSON `{"name": …}`; an empty body gets a name derived
/// from the wall clock.
fn snapshot(state: &ServeState, request: &Request) -> Reply {
    let name = if request.body.is_empty() {
        #[expect(
            clippy::disallowed_methods,
            reason = "a default snapshot name is an operator-facing label; nothing replays it"
        )]
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        format!("snapshot-{stamp}")
    } else {
        let body = match parse_body(request) {
            Ok(body) => body,
            Err(reply) => return reply,
        };
        match body.get("name").and_then(JsonValue::as_str) {
            Some(name) => name.to_string(),
            None => return error_reply(422, "body needs a \"name\" string"),
        }
    };
    let stats = {
        let Ok(mut registry) = state.registry.write() else {
            return error_reply(500, "registry lock poisoned");
        };
        match registry.snapshot(&name) {
            Ok(stats) => stats,
            Err(e) => return registry_error_reply(e),
        }
    };
    json_reply(
        200,
        &object(vec![
            ("name", JsonValue::String(name)),
            ("path", JsonValue::String(stats.path.display().to_string())),
            ("files", number(stats.files as f64)),
            ("bytes", number(stats.bytes as f64)),
        ]),
    )
}

/// `POST /extract/{site}`: HTML body in, the current bundle's extracted
/// node texts out.
fn extract(state: &ServeState, cx: &mut EvalContext, site: &str, request: &Request) -> Reply {
    let Ok(html) = std::str::from_utf8(&request.body) else {
        return error_reply(400, "body is not UTF-8 HTML");
    };
    let doc = match Document::parse(html) {
        Ok(doc) => doc,
        Err(e) => return error_reply(422, format!("unparseable HTML: {e}")),
    };
    let Ok(registry) = state.registry.read() else {
        return error_reply(500, "registry lock poisoned");
    };
    state.metrics.record_shard(registry.shard_of(site));
    let Some(bundle) = registry.current(site) else {
        return error_reply(404, format!("no wrapper installed for site {site:?}"));
    };
    match bundle.extract_texts_with(cx, &doc) {
        Ok(texts) => {
            let body = object(vec![
                ("site", JsonValue::String(site.into())),
                ("revision", number(f64::from(bundle.revision))),
                ("count", number(texts.len() as f64)),
                (
                    "texts",
                    JsonValue::Array(texts.into_iter().map(JsonValue::String).collect()),
                ),
            ]);
            json_reply(200, &body)
        }
        Err(e) => error_reply(422, format!("extraction failed: {e}")),
    }
}

/// `POST /extract/batch`: `{"site": …, "docs": [html, …]}` in, one NDJSON
/// line per document out (chunked, in input order).  The bundle is cloned
/// out of the registry so the read lock is not held across the batch.
fn extract_batch(state: &ServeState, request: &Request) -> Reply {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(site) = body.get("site").and_then(JsonValue::as_str) else {
        return error_reply(422, "body needs a \"site\" string");
    };
    let Some(doc_values) = body.get("docs").and_then(JsonValue::as_array) else {
        return error_reply(422, "body needs a \"docs\" array of HTML strings");
    };
    let bundle = {
        let Ok(registry) = state.registry.read() else {
            return error_reply(500, "registry lock poisoned");
        };
        state.metrics.record_shard(registry.shard_of(site));
        match registry.current(site) {
            Some(bundle) => bundle.clone(),
            None => return error_reply(404, format!("no wrapper installed for site {site:?}")),
        }
    };
    // Parse every document up front, remembering which input indexes made
    // it; failed parses keep their slot in the output stream.
    let mut docs = Vec::new();
    let mut slots: Vec<Result<usize, String>> = Vec::with_capacity(doc_values.len());
    for value in doc_values {
        let Some(html) = value.as_str() else {
            slots.push(Err("not an HTML string".into()));
            continue;
        };
        match Document::parse(html) {
            Ok(doc) => {
                slots.push(Ok(docs.len()));
                docs.push(doc);
            }
            Err(e) => slots.push(Err(format!("unparseable HTML: {e}"))),
        }
    }
    let mut results: Vec<Option<Result<Vec<String>, String>>> = bundle
        .extract_batch(&docs)
        .into_iter()
        .zip(&docs)
        .map(|(result, doc)| {
            Some(match result {
                Ok(nodes) => Ok(nodes.into_iter().map(|n| doc.normalized_text(n)).collect()),
                Err(e) => Err(format!("extraction failed: {e}")),
            })
        })
        .collect();
    let chunks = slots
        .iter()
        .enumerate()
        .map(|(index, slot)| {
            let outcome = match slot {
                // Each parsed doc's slot index is used exactly once; a miss
                // here is an internal invariant break, reported as a chunk
                // error rather than a panic that would poison the registry
                // lock.
                Ok(doc_index) => results
                    .get_mut(*doc_index)
                    .and_then(Option::take)
                    .unwrap_or_else(|| Err("internal: batch result slot reused".to_string())),
                Err(message) => Err(message.clone()),
            };
            let line = match outcome {
                Ok(texts) => object(vec![
                    ("index", number(index as f64)),
                    ("count", number(texts.len() as f64)),
                    (
                        "texts",
                        JsonValue::Array(texts.into_iter().map(JsonValue::String).collect()),
                    ),
                ]),
                Err(message) => object(vec![
                    ("index", number(index as f64)),
                    ("error", JsonValue::String(message)),
                ]),
            };
            let mut bytes = line.to_compact().into_bytes();
            bytes.push(b'\n');
            bytes
        })
        .collect();
    Reply::Chunked {
        status: 200,
        content_type: "application/x-ndjson",
        chunks,
    }
}

/// `POST /induce/{site}`: `{"day": N, "samples": [{"html": …,
/// "target_texts": […]}, …]}` in; induces a wrapper from the samples and
/// installs it (or commits the next revision of an installed site).
fn induce(state: &ServeState, site: &str, request: &Request) -> Reply {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let day = match optional_i64(&body, "day") {
        Ok(day) => day.unwrap_or(0),
        Err(reply) => return reply,
    };
    let Some(sample_values) = body.get("samples").and_then(JsonValue::as_array) else {
        return error_reply(422, "body needs a \"samples\" array");
    };
    if sample_values.is_empty() {
        return error_reply(422, "\"samples\" is empty");
    }
    // Parse documents and harvest target nodes first: `Sample` borrows
    // both, so the owning vectors must outlive the induction call.
    let mut pages: Vec<(Document, Vec<wi_dom::NodeId>)> = Vec::with_capacity(sample_values.len());
    for (index, value) in sample_values.iter().enumerate() {
        let Some(html) = value.get("html").and_then(JsonValue::as_str) else {
            return error_reply(422, format!("sample {index} needs an \"html\" string"));
        };
        let texts: Vec<String> = match value.get("target_texts").and_then(JsonValue::as_array) {
            Some(values) => values
                .iter()
                .filter_map(|v| v.as_str().map(String::from))
                .collect(),
            None => {
                return error_reply(
                    422,
                    format!("sample {index} needs a \"target_texts\" array"),
                )
            }
        };
        let doc = match Document::parse(html) {
            Ok(doc) => doc,
            Err(e) => return error_reply(422, format!("sample {index}: unparseable HTML: {e}")),
        };
        let targets = wi_induction::harvest_targets_by_text(&doc, &texts);
        if targets.is_empty() {
            return error_reply(
                422,
                format!("sample {index}: no node matches any target text"),
            );
        }
        pages.push((doc, targets));
    }
    let samples: Vec<Sample<'_>> = pages
        .iter()
        .map(|(doc, targets)| Sample::from_root(doc, targets))
        .collect();
    let instances = match state.maintainer.inducer.try_induce(&samples) {
        Ok(instances) => instances,
        Err(e) => return error_reply(422, format!("induction failed: {e}")),
    };
    let mut bundle = WrapperBundle::from_instances(&instances, Default::default()).with_label(site);
    let Ok(mut registry) = state.registry.write() else {
        return error_reply(500, "registry lock poisoned");
    };
    state.metrics.record_shard(registry.shard_of(site));
    let result = match registry.current(site) {
        Some(current) => {
            bundle.revision = current.revision + 1;
            bundle.provenance = Some("re-induced over http".into());
            registry.commit_revision(site, bundle.clone(), day)
        }
        None => registry.install(site, bundle.clone(), day),
    };
    match result {
        Ok(()) => json_reply(
            200,
            &object(vec![
                ("site", JsonValue::String(site.into())),
                ("revision", number(f64::from(bundle.revision))),
                ("expression", JsonValue::String(bundle.describe())),
            ]),
        ),
        Err(e) => registry_error_reply(e),
    }
}

/// `POST /maintain/{site}`: `{"snapshots": [{"day": N, "html": …}, …]}`
/// in (oldest first); runs the verify → classify → repair loop over the
/// timeline, persisting every state transition.
fn maintain(state: &ServeState, site: &str, request: &Request) -> Reply {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(snapshot_values) = body.get("snapshots").and_then(JsonValue::as_array) else {
        return error_reply(422, "body needs a \"snapshots\" array");
    };
    let mut pages = Vec::with_capacity(snapshot_values.len());
    for (index, value) in snapshot_values.iter().enumerate() {
        let day = match optional_i64(value, "day") {
            Ok(Some(day)) => day,
            Ok(None) => return error_reply(422, format!("snapshot {index} needs a \"day\"")),
            Err(reply) => return reply,
        };
        let Some(html) = value.get("html").and_then(JsonValue::as_str) else {
            return error_reply(422, format!("snapshot {index} needs an \"html\" string"));
        };
        let doc = match Document::parse(html) {
            Ok(doc) => doc,
            Err(e) => return error_reply(422, format!("snapshot {index}: unparseable HTML: {e}")),
        };
        if pages
            .last()
            .is_some_and(|page: &PageVersion| page.day > day)
        {
            return error_reply(422, "snapshots must be ordered oldest-first");
        }
        pages.push(PageVersion { day, doc });
    }
    let Ok(mut registry) = state.registry.write() else {
        return error_reply(500, "registry lock poisoned");
    };
    state.metrics.record_shard(registry.shard_of(site));
    if registry.current(site).is_none() {
        return error_reply(404, format!("no wrapper installed for site {site:?}"));
    }
    let job = MaintenanceJob {
        site: site.to_string(),
        pages,
        seed_lkg: None,
        inducer: None,
    };
    let log = match registry.maintain_batch_sequential(&[job], &state.maintainer) {
        Ok(mut logs) => logs.remove(0),
        Err(e) => return registry_error_reply(e),
    };
    let body = object(vec![
        ("site", JsonValue::String(site.into())),
        ("epochs", number(log.outcomes.len() as f64)),
        ("flagged", number(log.wrapper_flags() as f64)),
        ("repairs", number(log.repairs() as f64)),
        ("revisions_installed", number(log.revisions.len() as f64)),
        ("state", state_string(&registry, site)),
        ("revision", number(f64::from(log.bundle.revision))),
    ]);
    json_reply(200, &body)
}

/// `GET /sites/{site}`: lifecycle state, shard and revision history.
fn site_info(state: &ServeState, site: &str) -> Reply {
    let Ok(registry) = state.registry.read() else {
        return error_reply(500, "registry lock poisoned");
    };
    state.metrics.record_shard(registry.shard_of(site));
    let history = registry.history(site);
    let Some(current) = history.last() else {
        return error_reply(404, format!("no wrapper installed for site {site:?}"));
    };
    let revisions = history
        .iter()
        .map(|record| {
            object(vec![
                ("revision", number(f64::from(record.revision))),
                ("day", number(record.day as f64)),
                ("cause", JsonValue::String(record.cause.clone())),
            ])
        })
        .collect();
    let body = object(vec![
        ("site", JsonValue::String(site.into())),
        ("shard", number(registry.shard_of(site) as f64)),
        ("state", state_string(&registry, site)),
        ("revision", number(f64::from(current.revision))),
        ("has_lkg", JsonValue::Bool(registry.lkg(site).is_some())),
        ("revisions", JsonValue::Array(revisions)),
    ]);
    json_reply(200, &body)
}

fn state_string(registry: &wi_maintain::PersistentRegistry, site: &str) -> JsonValue {
    match registry.state(site) {
        Some(state) => JsonValue::String(format!("{state:?}")),
        None => JsonValue::Null,
    }
}

/// Parses a UTF-8 JSON object body (400 on anything else).
fn parse_body(request: &Request) -> Result<JsonValue, Reply> {
    let text =
        std::str::from_utf8(&request.body).map_err(|_| error_reply(400, "body is not UTF-8"))?;
    let value = parse_json(text).map_err(|e| error_reply(400, format!("body is not JSON: {e}")))?;
    match value {
        JsonValue::Object(_) => Ok(value),
        _ => Err(error_reply(400, "body must be a JSON object")),
    }
}

/// Reads an optional integer field (422 when present but not an integer).
fn optional_i64(value: &JsonValue, key: &str) -> Result<Option<i64>, Reply> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => match field.as_f64() {
            Some(n) if n.fract() == 0.0 => Ok(Some(n as i64)),
            _ => Err(error_reply(422, format!("\"{key}\" must be an integer"))),
        },
    }
}

fn registry_error_reply(error: RegistryError) -> Reply {
    let status = match &error {
        RegistryError::Poisoned => 503,
        RegistryError::Conflict { .. } => 409,
        RegistryError::Locked { .. } => 503,
        _ => 500,
    };
    error_reply(status, error.to_string())
}

fn error_reply(status: u16, message: impl Into<String>) -> Reply {
    let body = object(vec![("error", JsonValue::String(message.into()))]);
    json_reply(status, &body)
}

fn json_reply(status: u16, body: &JsonValue) -> Reply {
    Reply::Full(Response::json(status, body.to_compact()))
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn number(n: f64) -> JsonValue {
    JsonValue::Number(n)
}
