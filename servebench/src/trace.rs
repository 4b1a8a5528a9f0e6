//! The traced run: each workload's requests replayed in-process, at the
//! workload's concurrency, against a `ServeState` over a registry set up
//! like the daemon's.
//!
//! The daemon's internals cannot be wrapped from outside, so a request is
//! served exactly as a worker serves it — `parse_request`, then
//! `handlers::handle` (the request's `serve.handle` span), then the reply
//! written into a sink that counts write calls — and afterwards the public
//! layer calls the handler makes are timed once more on the same input:
//! DOM parse, JSON parse, registry lock acquisition, bundle compile, XPath
//! evaluation, maintenance run and JSON render.  Those spans are children
//! of `serve.handle` by id, not by interval; `serve.handle`'s self time is
//! the part of the handler no layer accounts for.  Spans stay in memory and
//! are written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::RwLock;
use std::time::{Duration, Instant};

use wi_dom::Document;
use wi_induction::json::{parse_json, JsonValue};
use wi_induction::{Extractor, WrapperBundle};
use wi_maintain::{Maintainer, PageVersion, WrapperState};
use wi_serve::handlers::{handle, Reply};
use wi_serve::http::{parse_request, write_response, ChunkedWriter};
use wi_serve::{Limits, Metrics, ServeState};
use wi_xpath::EvalContext;

use crate::inputs::{object, snapshot_day, SiteInput, SNAPSHOTS_PER_MAINTAIN};
use crate::stats::ratio;
use crate::workload::{create_registry, Cases, Workload, Writer, SHARDS};
use crate::Metric;

/// Requests replayed per client thread, at most.
const MAX_REQUESTS: usize = 1000;
/// Wall time of the untraced pass, at most; the traced pass replays what
/// it completed.
const MAX_BUDGET: Duration = Duration::from_secs(5);

/// One timed interval.
#[derive(Clone)]
pub struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Work measured inside the span: bytes parsed (`dom.parse`), write
    /// calls (`http.write`), document nodes (`xpath.eval`), else 0.
    work: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder.
struct Tracer {
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 48) | self.next
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its result.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
            work: 0,
        });
        out
    }

    /// Sets the work count of the most recent span.
    fn work(&mut self, work: u64) {
        if let Some(span) = self.spans.last_mut() {
            span.work = work;
        }
    }
}

/// A `Write` sink that counts the calls a reply takes.
#[derive(Default)]
struct CountingSink {
    calls: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes a reply the way the daemon's connection loop does.
fn write_reply(sink: &mut CountingSink, reply: Reply, close: bool) {
    let written = match reply {
        Reply::Full(mut response) => {
            response.close = close;
            write_response(sink, &response)
        }
        Reply::Chunked {
            status,
            content_type,
            chunks,
        } => ChunkedWriter::start(sink, status, content_type, close).and_then(|mut writer| {
            for chunk in &chunks {
                writer.chunk(chunk)?;
            }
            writer.finish()
        }),
    };
    written.expect("the counting sink accepts every write");
}

/// One request a replay client sends.
enum Call<'a> {
    Extract {
        site: usize,
        page: usize,
        raw: &'a [u8],
    },
    Batch {
        case: usize,
        raw: &'a [u8],
    },
    Maintain {
        site: usize,
        first: usize,
        raw: Vec<u8>,
    },
}

impl Call<'_> {
    fn raw(&self) -> &[u8] {
        match self {
            Call::Extract { raw, .. } | Call::Batch { raw, .. } => raw,
            Call::Maintain { raw, .. } => raw,
        }
    }
}

/// The request streams of each replay thread, in the order the daemon
/// run's clients send them.
fn streams<'a>(
    workload: Workload,
    sites: &[SiteInput],
    cases: &'a Cases,
    seed: u64,
) -> Vec<Vec<Call<'a>>> {
    let extract_stream = |order: &Vec<usize>| -> Vec<Call<'a>> {
        (0..MAX_REQUESTS)
            .map(|i| {
                let case = &cases.extract[order[i % order.len()]];
                Call::Extract {
                    site: case.site,
                    page: case.page,
                    raw: &case.request,
                }
            })
            .collect()
    };
    match workload {
        Workload::Extract => cases.orders.iter().map(extract_stream).collect(),
        Workload::Batch => vec![(0..MAX_REQUESTS)
            .map(|i| {
                let order = &cases.orders[0];
                let case = order[i % order.len()];
                Call::Batch {
                    case,
                    raw: &cases.batch[case].request,
                }
            })
            .collect()],
        Workload::Maintain => {
            let mut writer = Writer::new(sites, seed);
            let writes = (0..MAX_REQUESTS)
                .map(|_| {
                    let (site, first, body) = writer.next_request(sites);
                    let mut raw = format!(
                        "POST /maintain/{} HTTP/1.1\r\nHost: wi-serve\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                        sites[site].path_key,
                        body.len()
                    )
                    .into_bytes();
                    raw.extend_from_slice(body);
                    Call::Maintain { site, first, raw }
                })
                .collect();
            vec![writes, extract_stream(&cases.orders[0])]
        }
    }
}

/// A `ServeState` over a fresh registry holding the installed bundles.
fn fresh_state(dir: &Path, sites: &[SiteInput], bundles: &[WrapperBundle]) -> ServeState {
    let mut registry = create_registry(dir);
    for (site, bundle) in sites.iter().zip(bundles) {
        registry
            .install(site.key.clone(), bundle.clone(), 0)
            .expect("install into a fresh registry");
    }
    ServeState {
        registry: RwLock::new(registry),
        maintainer: Maintainer::default(),
        metrics: Metrics::new(SHARDS),
        shutdown: AtomicBool::new(false),
        limits: Limits::default(),
    }
}

/// Serves one request like a daemon worker: parse, handle, write.
fn serve(state: &ServeState, cx: &mut EvalContext, raw: &[u8], sink: &mut CountingSink) -> u16 {
    let (request, _) = parse_request(raw, &state.limits)
        .expect("generated requests parse")
        .expect("generated requests are complete");
    let close = request.wants_close();
    let (_, reply) = handle(state, cx, &request);
    let status = reply.status();
    write_reply(sink, reply, close);
    status
}

/// What the replay found.
pub struct Replay {
    /// Per-layer metrics of the traced pass.
    pub metrics: Vec<Metric>,
    /// Totals per span name.
    pub totals: BTreeMap<&'static str, Totals>,
    /// Requests replayed and how many were not 2xx or disagreed with the
    /// daemon's library calls.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Where the spans were written.
    pub spans_file: std::path::PathBuf,
}

/// Runs the untraced and the traced pass and derives the per-layer
/// metrics.  Each pass gets a fresh registry (maintenance days only move
/// forward); the traced pass replays exactly the requests the untraced
/// pass completed in `budget`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    workload: Workload,
    sites: &[SiteInput],
    bundles: &[WrapperBundle],
    cases: &Cases,
    seed: u64,
    budget: Duration,
    scratch: &Path,
    spans_file: std::path::PathBuf,
) -> Replay {
    let streams = streams(workload, sites, cases, seed);

    // Untraced pass: the daemon's request path and nothing else.
    let state = fresh_state(&scratch.join("replay-untraced"), sites, bundles);
    let deadline = Instant::now() + budget.min(MAX_BUDGET);
    let untraced: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let state = &state;
                scope.spawn(move || {
                    let mut cx = EvalContext::new();
                    let mut sink = CountingSink::default();
                    let mut busy = 0.0;
                    let mut done = 0;
                    for call in stream {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let started = Instant::now();
                        serve(state, &mut cx, call.raw(), &mut sink);
                        busy += started.elapsed().as_secs_f64();
                        done += 1;
                    }
                    (done, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    drop(state);

    // Traced pass over the same requests.
    let state = fresh_state(&scratch.join("replay-traced"), sites, bundles);
    let epoch = Instant::now();
    let traced: Vec<(Tracer, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&untraced)
            .enumerate()
            .map(|(thread, (stream, &(done, _)))| {
                let state = &state;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, thread as u64 + 1);
                    let mut cx = Contexts {
                        handler: EvalContext::new(),
                        replay: EvalContext::new(),
                    };
                    let mut failed = 0;
                    let mut streak = 0;
                    for call in &stream[..done] {
                        if !traced_call(
                            state,
                            &mut tracer,
                            &mut cx,
                            call,
                            sites,
                            cases,
                            &mut streak,
                        ) {
                            failed += 1;
                        }
                    }
                    (tracer, done as u64, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    drop(state);

    let attempted = traced.iter().map(|t| t.1).sum();
    let failed = traced.iter().map(|t| t.2).sum();
    let spans: Vec<Span> = traced.into_iter().flat_map(|t| t.0.spans).collect();
    write_spans(&spans_file, &spans);
    let untraced_ms = 1e3
        * ratio(
            untraced.iter().map(|u| u.1).sum(),
            untraced.iter().map(|u| u.0 as f64).sum(),
        );
    let (metrics, totals) = layer_metrics(&spans, untraced_ms);
    Replay {
        metrics,
        totals,
        attempted,
        failed,
        spans_file,
    }
}

/// A replay thread's evaluation contexts: the handler's stays resident
/// like a daemon worker's, the layer replays get their own.
struct Contexts {
    handler: EvalContext,
    replay: EvalContext,
}

/// Serves one call and replays its layers; `false` when the reply was not
/// 2xx or the maintenance replay disagreed with the handler.
fn traced_call(
    state: &ServeState,
    tracer: &mut Tracer,
    cx: &mut Contexts,
    call: &Call<'_>,
    sites: &[SiteInput],
    cases: &Cases,
    streak: &mut u32,
) -> bool {
    let request_id = tracer.id();
    let root = tracer.id();
    let handle_id = tracer.id();
    let root_start = tracer.now();

    // The maintenance replay resumes from the position the handler starts
    // from, so read it before the handler commits.
    let seed = match call {
        Call::Maintain { site, .. } => {
            let registry = state.registry.read().expect("registry lock");
            let key = &sites[*site].key;
            Some((
                registry.current(key).expect("installed").clone(),
                registry.lkg(key).cloned(),
                registry.state(key).unwrap_or(WrapperState::Monitoring),
            ))
        }
        _ => None,
    };

    let request = tracer.time("http.parse", root, request_id, || {
        parse_request(call.raw(), &state.limits)
            .expect("generated requests parse")
            .expect("generated requests are complete")
            .0
    });
    let handle_start = tracer.now();
    let (_, reply) = handle(state, &mut cx.handler, &request);
    let handle_end = tracer.now();
    tracer.spans.push(Span {
        id: handle_id,
        parent: root,
        request: request_id,
        name: "serve.handle",
        start_ns: handle_start,
        end_ns: handle_end,
        work: 0,
    });
    let status = reply.status();
    let reply_revision = match (&reply, call) {
        (Reply::Full(response), Call::Maintain { .. }) => std::str::from_utf8(&response.body)
            .ok()
            .and_then(|body| parse_json(body).ok())
            .and_then(|value| value.get("revision")?.as_f64()),
        _ => None,
    };
    let mut sink = CountingSink::default();
    tracer.time("http.write", root, request_id, || {
        write_reply(&mut sink, reply, request.wants_close())
    });
    tracer.work(sink.calls);
    tracer.spans.push(Span {
        id: root,
        parent: 0,
        request: request_id,
        name: "request",
        start_ns: root_start,
        end_ns: tracer.now(),
        work: 0,
    });

    // The handler's layers, timed again on the same input.
    let (parent, id) = (handle_id, request_id);
    let mut ok = (200..300).contains(&status);
    match call {
        Call::Extract { site, page, .. } => {
            let html = sites[*site].page(*page);
            let key = &sites[*site].key;
            replay_extract(state, tracer, &mut cx.replay, (parent, id), key, &[html]);
        }
        Call::Batch { case, .. } => {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let value = tracer.time("json.parse", parent, id, || {
                parse_json(body).expect("JSON body")
            });
            let docs: Vec<&str> = value
                .get("docs")
                .and_then(JsonValue::as_array)
                .expect("docs array")
                .iter()
                .filter_map(JsonValue::as_str)
                .collect();
            let key = &sites[cases.batch[*case].site].key;
            replay_extract(state, tracer, &mut cx.replay, (parent, id), key, &docs);
        }
        Call::Maintain { site, first, .. } => {
            let body = std::str::from_utf8(&request.body).expect("UTF-8 body");
            let value = tracer.time("json.parse", parent, id, || {
                parse_json(body).expect("JSON body")
            });
            let snapshots = value
                .get("snapshots")
                .and_then(JsonValue::as_array)
                .expect("snapshots");
            let pages: Vec<PageVersion> = snapshots
                .iter()
                .enumerate()
                .map(|(i, snapshot)| {
                    let html = snapshot
                        .get("html")
                        .and_then(JsonValue::as_str)
                        .expect("html");
                    let doc = tracer.time("dom.parse", parent, id, || {
                        Document::parse(html).expect("HTML")
                    });
                    tracer.work(html.len() as u64);
                    PageVersion {
                        day: snapshot_day(first + i),
                        doc,
                    }
                })
                .collect();
            tracer.time("registry.write_wait", parent, id, || {
                drop(state.registry.write().expect("registry lock"))
            });
            let (bundle, lkg, seed_state) = seed.expect("maintain seed");
            let key = &sites[*site].key;
            let log = tracer.time("maintain.run", parent, id, || {
                state.maintainer.run_resumed(
                    &mut EvalContext::new(),
                    key,
                    bundle,
                    &pages,
                    lkg,
                    &state.maintainer.inducer,
                    seed_state,
                    *streak,
                )
            });
            *streak = log.target_gone_streak;
            ok &= log.outcomes.len() == SNAPSHOTS_PER_MAINTAIN
                && reply_revision == Some(f64::from(log.bundle.revision));
            tracer.time("json.render", parent, id, || {
                object(vec![
                    ("site", JsonValue::String(key.clone())),
                    ("epochs", JsonValue::Number(log.outcomes.len() as f64)),
                    ("flagged", JsonValue::Number(log.wrapper_flags() as f64)),
                    ("repairs", JsonValue::Number(log.repairs() as f64)),
                    (
                        "revisions_installed",
                        JsonValue::Number(log.revisions.len() as f64),
                    ),
                    (
                        "revision",
                        JsonValue::Number(f64::from(log.bundle.revision)),
                    ),
                ])
                .to_compact()
            });
        }
    }
    ok
}

/// The layers of `/extract` (one document) and `/extract/batch`: DOM
/// parse, registry read lock, one bundle compile, XPath evaluation per
/// document, and the JSON render of the texts.
fn replay_extract(
    state: &ServeState,
    tracer: &mut Tracer,
    cx: &mut EvalContext,
    (parent, id): (u64, u64),
    key: &str,
    docs: &[&str],
) {
    let parsed: Vec<Document> = docs
        .iter()
        .map(|html| {
            let doc = tracer.time("dom.parse", parent, id, || {
                Document::parse(html).expect("HTML")
            });
            tracer.work(html.len() as u64);
            doc
        })
        .collect();
    let bundle = {
        let registry = tracer.time("registry.read_wait", parent, id, || {
            state.registry.read().expect("registry lock")
        });
        registry.current(key).expect("installed").clone()
    };
    let compiled = tracer.time("bundle.compile", parent, id, || {
        bundle
            .compile_extractor()
            .expect("installed bundles compile")
    });
    let texts: Vec<Vec<String>> = parsed
        .iter()
        .map(|doc| {
            let nodes = tracer.time("xpath.eval", parent, id, || {
                compiled
                    .extract_with(cx, doc, doc.root())
                    .expect("installed bundles extract")
            });
            tracer.work(doc.len() as u64);
            nodes.into_iter().map(|n| doc.normalized_text(n)).collect()
        })
        .collect();
    tracer.time("json.render", parent, id, || {
        texts
            .into_iter()
            .map(|texts| {
                object(vec![
                    ("count", JsonValue::Number(texts.len() as f64)),
                    (
                        "texts",
                        JsonValue::Array(texts.into_iter().map(JsonValue::String).collect()),
                    ),
                ])
                .to_compact()
            })
            .collect::<Vec<_>>()
    });
}

fn write_spans(path: &Path, spans: &[Span]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the span output directory");
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).expect("create span file"));
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.work
        )
        .expect("write span");
    }
    out.flush().expect("flush span file");
}

/// What the spans of one name add up to.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    /// Spans recorded.
    pub n: f64,
    /// Their summed duration (µs).
    pub us: f64,
    /// Their summed self time: duration minus their children's (µs).
    pub self_us: f64,
    /// Their summed work counts.
    pub work: f64,
}

/// Totals per span name and the per-layer metrics derived from them.
fn layer_metrics(
    spans: &[Span],
    untraced_ms: f64,
) -> (Vec<Metric>, BTreeMap<&'static str, Totals>) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.ns();
    }
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let own = s
            .ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let t = totals.entry(s.name).or_default();
        t.n += 1.0;
        t.us += s.ns() as f64 / 1e3;
        t.self_us += own as f64 / 1e3;
        t.work += s.work as f64;
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |name: &str| ratio(get(name).us, get(name).n);
    let requests = get("request").n;
    let docs = get("xpath.eval").n;
    let layers: f64 = totals
        .iter()
        .filter(|(name, _)| !matches!(**name, "request" | "serve.handle"))
        .map(|(_, t)| t.us)
        .sum();
    let root_ms = per("request") / 1e3;
    let metrics = vec![
        ("http.parse_us", ratio(get("http.parse").us, requests), "us"),
        ("http.write_us", ratio(get("http.write").us, requests), "us"),
        (
            "http.write_calls",
            ratio(get("http.write").work, requests),
            "count",
        ),
        ("dom.parse_us", per("dom.parse"), "us"),
        (
            "dom.parse_mb_per_s",
            ratio(get("dom.parse").work, get("dom.parse").us),
            "MB/s",
        ),
        ("json.parse_us", per("json.parse"), "us"),
        (
            "json.render_us",
            ratio(get("json.render").us, requests),
            "us",
        ),
        ("bundle.compile_us", per("bundle.compile"), "us"),
        (
            "bundle.compiles_per_op",
            ratio(get("bundle.compile").n, docs),
            "count",
        ),
        ("xpath.eval_us", per("xpath.eval"), "us"),
        (
            "xpath.nodes_per_doc",
            ratio(get("xpath.eval").work, docs),
            "count",
        ),
        ("registry.read_wait_us", per("registry.read_wait"), "us"),
        ("registry.write_wait_us", per("registry.write_wait"), "us"),
        ("maintain.run_ms", per("maintain.run") / 1e3, "ms"),
        ("trace.coverage", ratio(layers, get("request").us), "ratio"),
        (
            "trace.unattributed_us",
            ratio(get("serve.handle").self_us, requests),
            "us",
        ),
        (
            "obs.trace_overhead_pct",
            100.0 * (ratio(root_ms, untraced_ms) - 1.0),
            "%",
        ),
    ];
    (metrics, totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_sees_every_write_of_a_reply() {
        let mut sink = CountingSink::default();
        write_reply(
            &mut sink,
            Reply::Full(wi_serve::Response::json(200, "{}")),
            false,
        );
        assert!(sink.calls >= 2, "head and body are separate writes");
    }
}
