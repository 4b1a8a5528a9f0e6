//! The three closed-loop workloads against the in-process daemon, their
//! reply checks, and the durability gate that closes `maintain`.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use wi_dom::Document;
use wi_induction::json::{parse_json, JsonValue};
use wi_induction::WrapperBundle;
use wi_maintain::{
    Durability, Maintainer, MaintenanceJob, PageVersion, PersistentRegistry, Registry,
};
use wi_serve::{ServeConfig, Server, ServerHandle};
use wi_xpath::EvalContext;

use crate::client::KeepAlive;
use crate::inputs::{
    snapshot_day, MaintainBody, Rng, SiteInput, GROUPS, SITES, SNAPSHOTS_PER_MAINTAIN, TIMELINE,
};
use crate::stats::Mark;

/// Worker threads of the daemon: `nproc` on the 2-vCPU machine the bounds
/// were measured on.  Each keep-alive connection holds one worker until
/// the client closes it, so no workload may open more.
pub const WORKERS: usize = 2;
/// Shards of every registry the benchmark creates.
pub const SHARDS: usize = 4;
/// Sites the `maintain` writer updates; the reader extracts from the rest.
pub const WRITER_SITES: usize = SITES / 2;

/// A workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Two keep-alive clients `POST /extract/{site}`.
    Extract,
    /// One keep-alive client `POST /extract/batch` with 32 documents.
    Batch,
    /// One writer `POST /maintain/{site}` alongside one keep-alive reader.
    Maintain,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "extract" => Some(Workload::Extract),
            "batch" => Some(Workload::Batch),
            "maintain" => Some(Workload::Maintain),
            _ => None,
        }
    }

    /// Keep-alive connections the workload holds open while it runs.
    pub fn keep_alive_connections(self) -> usize {
        match self {
            Workload::Extract => 2,
            Workload::Batch | Workload::Maintain => 1,
        }
    }

    /// The `/metrics` endpoint label of the primary request.
    pub fn endpoint(self) -> &'static str {
        match self {
            Workload::Extract => "extract",
            Workload::Batch => "extract_batch",
            Workload::Maintain => "maintain",
        }
    }

    /// The endpoint label of the workload's read requests.
    pub fn read_endpoint(self) -> &'static str {
        match self {
            Workload::Batch => "extract_batch",
            Workload::Extract | Workload::Maintain => "extract",
        }
    }
}

/// One completed, checked request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// When its last byte was read, in seconds since the phase started.
    pub end_s: f64,
    /// Latency from send to the last byte read (ms).
    pub ms: f64,
    /// Operations it completed (0 for the `maintain` reader).
    pub ops: u64,
}

/// What the clients of one phase observed.
#[derive(Default)]
pub struct Tally {
    /// Completed primary requests.
    pub primary: Vec<Sample>,
    /// Completed read requests.
    pub read: Vec<Sample>,
    /// The sampler's reading at the start and each whole second.
    pub marks: Vec<Mark>,
    /// Checked units attempted: operations, plus the `maintain` reader's
    /// requests.
    pub attempted: u64,
    /// Checked units that failed or mismatched.
    pub failed: u64,
    /// `/maintain` replies: epochs, flagged epochs and repairs.
    pub epochs: u64,
    /// See `epochs`.
    pub flagged: u64,
    /// See `epochs`.
    pub repairs: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Folds another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.primary.extend(other.primary);
        self.read.extend(other.read);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.epochs += other.epochs;
        self.flagged += other.flagged;
        self.repairs += other.repairs;
        for message in other.failures {
            self.fail_note(message);
        }
    }

    /// Counts `units` failed units and keeps the message.
    pub fn fail(&mut self, units: u64, message: String) {
        self.failed += units;
        self.fail_note(message);
    }

    fn fail_note(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// A pre-built `/extract` request and the texts the library extracts from
/// its page.
pub struct ExtractCase {
    /// Index into the site list.
    pub site: usize,
    /// Timeline index of the page.
    pub page: usize,
    /// Raw keep-alive request bytes.
    pub request: Vec<u8>,
    /// `WrapperBundle::extract_texts_with` on the installed revision.
    pub expected: Vec<String>,
}

/// A pre-built `/extract/batch` request and its expected lines, in order.
pub struct BatchCase {
    /// Index into the site list.
    pub site: usize,
    /// Raw keep-alive request bytes.
    pub request: Vec<u8>,
    /// Expected texts of each document.
    pub expected: Vec<Vec<String>>,
}

/// The `maintain` writer's position, carried across phases: days only
/// move forward, so the registry's per-day idempotency skip never fires.
pub struct Writer {
    /// Writer sites in the seeded round-robin order.
    pub order: Vec<usize>,
    next: usize,
    /// Per site: requests sent so far.
    pub sent: Vec<usize>,
    /// Per site and group: the generated body.
    bodies: Vec<Vec<MaintainBody>>,
    /// Per site: `(revision, state)` of every acknowledged reply.
    pub acked: Vec<Vec<(u32, String)>>,
}

impl Writer {
    /// Generates every writer body of the seed.
    pub fn new(sites: &[SiteInput], seed: u64) -> Writer {
        Writer {
            order: Rng::new(seed, 4).permutation(WRITER_SITES),
            next: 0,
            sent: vec![0; WRITER_SITES],
            bodies: sites[..WRITER_SITES]
                .iter()
                .map(|site| (0..GROUPS).map(|g| site.maintain_body(g)).collect())
                .collect(),
            acked: vec![Vec::new(); WRITER_SITES],
        }
    }

    /// The next request: its site, its first (unbounded) snapshot index
    /// and its body with the days stamped.
    pub fn next_request(&mut self, sites: &[SiteInput]) -> (usize, usize, &[u8]) {
        let site = self.order[self.next % WRITER_SITES];
        self.next += 1;
        let (group, first) = Writer::position(&sites[site], self.sent[site]);
        self.sent[site] += 1;
        let body = &mut self.bodies[site][group];
        body.stamp(snapshot_day(first));
        (site, first, &body.bytes)
    }

    /// The timeline group and the first unbounded snapshot index of a
    /// site's `k`-th request.
    pub fn position(site: &SiteInput, k: usize) -> (usize, usize) {
        let t = (site.first_group + k) * SNAPSHOTS_PER_MAINTAIN;
        ((site.first_group + k) % GROUPS, t)
    }

    /// Every snapshot a site was sent, oldest first: `(day, timeline page)`.
    pub fn timeline_of(&self, sites: &[SiteInput], site: usize) -> Vec<(i64, usize)> {
        (0..self.sent[site])
            .flat_map(|k| {
                let (_, first) = Writer::position(&sites[site], k);
                (first..first + SNAPSHOTS_PER_MAINTAIN).map(|t| (snapshot_day(t), t % TIMELINE))
            })
            .collect()
    }
}

/// Creates a registry with the daemon's default flush policy.
pub fn create_registry(dir: &Path) -> PersistentRegistry {
    let _ = std::fs::remove_dir_all(dir);
    PersistentRegistry::create(dir, SHARDS)
        .expect("scratch registry directory is writable")
        .with_durability(Durability::Always)
}

/// One timed set-up: registry create, daemon start, every site induced
/// and installed over `POST /induce` on one keep-alive connection.
/// Returns the running daemon, the set-up time and each `/induce`
/// latency (ms).
pub fn setup(sites: &[SiteInput], dir: &Path) -> (ServerHandle, f64, Vec<f64>) {
    let started = Instant::now();
    let registry = create_registry(dir);
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let handle =
        Server::start(registry, Maintainer::default(), config).expect("daemon binds loopback");
    let mut conn = KeepAlive::connect(handle.addr()).expect("connect to the daemon");
    let mut induce_ms = Vec::with_capacity(sites.len());
    for site in sites {
        let sent = Instant::now();
        let reply = conn.exchange(&site.induce_request).expect("POST /induce");
        induce_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            reply.status,
            200,
            "POST /induce/{} answered {}: {}",
            site.path_key,
            reply.status,
            String::from_utf8_lossy(&reply.body)
        );
    }
    drop(conn);
    (handle, started.elapsed().as_secs_f64(), induce_ms)
}

/// Drains the daemon gracefully and hands its registry back.
pub fn shutdown(handle: ServerHandle) -> PersistentRegistry {
    handle.shutdown();
    handle.wait()
}

/// The installed bundle of every site, read from the live registry.
pub fn installed(handle: &ServerHandle, sites: &[SiteInput]) -> Vec<WrapperBundle> {
    let registry = handle.state().registry.read().expect("registry lock");
    sites
        .iter()
        .map(|site| {
            registry
                .current(&site.key)
                .expect("every site installed")
                .clone()
        })
        .collect()
}

/// The library's answer for a page: what `/extract` must reply.
pub fn library_texts(bundle: &WrapperBundle, cx: &mut EvalContext, html: &str) -> Vec<String> {
    let doc = Document::parse(html).expect("generated HTML parses");
    bundle
        .extract_texts_with(cx, &doc)
        .expect("installed wrappers extract from generated pages")
}

/// Builds the `/extract` cases of the given sites.
pub fn extract_cases(
    sites: &[SiteInput],
    bundles: &[WrapperBundle],
    range: std::ops::Range<usize>,
) -> Vec<ExtractCase> {
    let mut cx = EvalContext::new();
    range
        .flat_map(|s| sites[s].extract_pages.iter().map(move |&page| (s, page)))
        .map(|(s, page)| ExtractCase {
            site: s,
            page,
            request: sites[s].extract_request(page),
            expected: library_texts(&bundles[s], &mut cx, sites[s].page(page)),
        })
        .collect()
}

/// Builds the `/extract/batch` case of every site.
pub fn batch_cases(sites: &[SiteInput], bundles: &[WrapperBundle]) -> Vec<BatchCase> {
    let mut cx = EvalContext::new();
    sites
        .iter()
        .enumerate()
        .map(|(s, site)| BatchCase {
            site: s,
            request: site.batch_request(),
            expected: site
                .batch_pages
                .iter()
                .map(|&page| library_texts(&bundles[s], &mut cx, site.page(page)))
                .collect(),
        })
        .collect()
}

/// The string array under `key` of a JSON object.
pub fn texts_of(value: &JsonValue, key: &str) -> Option<Vec<String>> {
    value
        .get(key)?
        .as_array()?
        .iter()
        .map(|t| t.as_str().map(String::from))
        .collect()
}

/// Checks an `/extract` reply against the library result.
pub fn check_extract(status: u16, body: &[u8], expected: &[String]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("/extract answered {status}"));
    }
    let value = std::str::from_utf8(body)
        .ok()
        .and_then(|text| parse_json(text).ok())
        .ok_or("unparseable /extract reply")?;
    match texts_of(&value, "texts") {
        Some(texts) if texts == expected => Ok(()),
        other => Err(format!("/extract texts {other:?} != library {expected:?}")),
    }
}

/// Checks an `/extract/batch` NDJSON stream; returns the documents that
/// failed or mismatched.
pub fn check_batch(
    status: u16,
    body: &[u8],
    expected: &[Vec<String>],
) -> Result<(), (u64, String)> {
    let all = expected.len() as u64;
    if status != 200 {
        return Err((all, format!("/extract/batch answered {status}")));
    }
    let text = std::str::from_utf8(body).map_err(|_| (all, "batch reply is not UTF-8".into()))?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != expected.len() {
        return Err((
            all,
            format!("{} NDJSON lines for {all} documents", lines.len()),
        ));
    }
    let mut bad = 0;
    let mut first = String::new();
    for (index, (line, want)) in lines.iter().zip(expected).enumerate() {
        let ok = parse_json(line).ok().is_some_and(|value| {
            value.get("index").and_then(JsonValue::as_f64) == Some(index as f64)
                && texts_of(&value, "texts").as_deref() == Some(want.as_slice())
        });
        if !ok {
            bad += 1;
            if first.is_empty() {
                first = format!("batch line {index} out of order or different: {line}");
            }
        }
    }
    if bad == 0 {
        Ok(())
    } else {
        Err((bad, first))
    }
}

/// Runs one workload phase of `duration` against the daemon.
pub fn run_phase(
    workload: Workload,
    addr: SocketAddr,
    duration: Duration,
    cases: &Cases,
    writer: Option<&mut Writer>,
    sites: &[SiteInput],
) -> Tally {
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || marks(start, deadline));
        let readers: Vec<_> = (0..workload.keep_alive_connections())
            .map(|client| {
                let order = &cases.orders[client];
                let clock = (start, deadline);
                scope.spawn(move || match workload {
                    Workload::Batch => batch_client(addr, clock, &cases.batch, order),
                    Workload::Extract | Workload::Maintain => {
                        extract_client(addr, clock, &cases.extract, order, workload)
                    }
                })
            })
            .collect();
        let mut tally = match writer {
            Some(writer) => writer_client(addr, (start, deadline), writer, sites),
            None => Tally::default(),
        };
        for reader in readers {
            tally.merge(reader.join().expect("client thread"));
        }
        tally.marks = sampler.join().expect("sampler thread");
        tally
    })
}

/// Samples the CPU counters at `start` and at every whole second after it
/// up to `deadline`.
fn marks(start: Instant, deadline: Instant) -> Vec<Mark> {
    let mut marks = vec![Mark::now()];
    let mut next = start + Duration::from_secs(1);
    while next <= deadline {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        marks.push(Mark::now());
        next += Duration::from_secs(1);
    }
    marks
}

/// The pre-built requests of one run and each client's seeded order.
pub struct Cases {
    /// `/extract` pool (reader sites only on `maintain`).
    pub extract: Vec<ExtractCase>,
    /// `/extract/batch` requests, one per site.
    pub batch: Vec<BatchCase>,
    /// Per keep-alive client: the order it walks its pool in.
    pub orders: Vec<Vec<usize>>,
}

fn extract_client(
    addr: SocketAddr,
    (start, deadline): (Instant, Instant),
    pool: &[ExtractCase],
    order: &[usize],
    workload: Workload,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = KeepAlive::connect(addr).expect("connect to the daemon");
    let mut next = 0;
    while Instant::now() < deadline {
        let case = &pool[order[next % order.len()]];
        next += 1;
        let sent = Instant::now();
        let reply = conn.exchange(&case.request);
        let (ms, end_s) = lap(start, sent);
        tally.attempted += 1;
        let checked = match reply {
            Ok(reply) => check_extract(reply.status, &reply.body, &case.expected),
            Err(e) => {
                conn = KeepAlive::connect(addr).expect("reconnect to the daemon");
                Err(format!("/extract I/O: {e}"))
            }
        };
        match checked {
            Ok(()) => {
                let primary = workload == Workload::Extract;
                let sample = Sample {
                    end_s,
                    ms,
                    ops: u64::from(primary),
                };
                tally.read.push(sample);
                if primary {
                    tally.primary.push(sample);
                }
            }
            Err(message) => tally.fail(1, message),
        }
    }
    tally
}

fn batch_client(
    addr: SocketAddr,
    (start, deadline): (Instant, Instant),
    pool: &[BatchCase],
    order: &[usize],
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = KeepAlive::connect(addr).expect("connect to the daemon");
    let mut next = 0;
    while Instant::now() < deadline {
        let case = &pool[order[next % order.len()]];
        next += 1;
        let sent = Instant::now();
        let reply = conn.exchange(&case.request);
        let (ms, end_s) = lap(start, sent);
        let docs = case.expected.len() as u64;
        tally.attempted += docs;
        let checked = match reply {
            Ok(reply) => check_batch(reply.status, &reply.body, &case.expected),
            Err(e) => {
                conn = KeepAlive::connect(addr).expect("reconnect to the daemon");
                Err((docs, format!("/extract/batch I/O: {e}")))
            }
        };
        match checked {
            Ok(()) => {
                let sample = Sample {
                    end_s,
                    ms,
                    ops: docs,
                };
                tally.primary.push(sample);
                tally.read.push(sample);
            }
            Err((bad, message)) => tally.fail(bad, message),
        }
    }
    tally
}

/// The `maintain` writer: `wi_serve::client`, one connection per request.
fn writer_client(
    addr: SocketAddr,
    (start, deadline): (Instant, Instant),
    writer: &mut Writer,
    sites: &[SiteInput],
) -> Tally {
    let mut tally = Tally::default();
    let pages = SNAPSHOTS_PER_MAINTAIN as u64;
    while Instant::now() < deadline {
        let (site, _, body) = writer.next_request(sites);
        let path = format!("/maintain/{}", sites[site].path_key);
        let sent = Instant::now();
        let reply = wi_serve::client::post(addr, &path, "application/json", body);
        let (ms, end_s) = lap(start, sent);
        tally.attempted += pages;
        let value = match reply {
            Ok(reply) if reply.status == 200 => reply.json().ok(),
            Ok(reply) => {
                tally.fail(
                    pages,
                    format!("{path} answered {}: {}", reply.status, reply.text()),
                );
                continue;
            }
            Err(e) => {
                tally.fail(pages, format!("{path} I/O: {e}"));
                continue;
            }
        };
        let field = |key: &str| value.as_ref().and_then(|v| v.get(key)?.as_f64());
        let state = value
            .as_ref()
            .and_then(|v| v.get("state")?.as_str().map(String::from));
        match (field("epochs"), field("revision"), state) {
            (Some(epochs), Some(revision), Some(state)) if epochs == pages as f64 => {
                tally.primary.push(Sample {
                    end_s,
                    ms,
                    ops: pages,
                });
                tally.epochs += pages;
                tally.flagged += field("flagged").unwrap_or(0.0) as u64;
                tally.repairs += field("repairs").unwrap_or(0.0) as u64;
                writer.acked[site].push((revision as u32, state));
            }
            _ => tally.fail(
                pages,
                format!("{path}: reply epochs differ from {pages} snapshots"),
            ),
        }
    }
    tally
}

/// A request's latency (ms) and its completion time (s since `start`).
fn lap(start: Instant, sent: Instant) -> (f64, f64) {
    let now = Instant::now();
    (
        (now - sent).as_secs_f64() * 1e3,
        (now - start).as_secs_f64(),
    )
}

/// The durability gate after `maintain`: drain, recover from the shard
/// logs, then require every acknowledged revision and each writer site's
/// final `(revision, state)` to match an untimed in-memory replay of the
/// same snapshots through `wi_maintain::Registry`.
pub fn durability_gate(
    registry: PersistentRegistry,
    sites: &[SiteInput],
    bundles: &[WrapperBundle],
    writer: &Writer,
) -> Result<(), String> {
    let root = registry.root().to_path_buf();
    drop(registry);
    let recovered = PersistentRegistry::recover(&root).map_err(|e| format!("recover: {e}"))?;
    if !recovered.recovery_report().clean() {
        return Err("torn shard log after a graceful drain".into());
    }
    let mut persisted = Vec::with_capacity(WRITER_SITES);
    for (s, site) in sites.iter().enumerate() {
        let history = recovered.history(&site.key);
        let Some(last) = history.last() else {
            return Err(format!("{} lost by recovery", site.key));
        };
        if s >= WRITER_SITES {
            if last.revision != bundles[s].revision {
                return Err(format!("reader site {} changed revision", site.key));
            }
            continue;
        }
        for (revision, _) in &writer.acked[s] {
            if !history.iter().any(|record| record.revision == *revision) {
                return Err(format!(
                    "{} lost acknowledged revision {revision}",
                    site.key
                ));
            }
        }
        let state = recovered.state(&site.key).map(|state| format!("{state:?}"));
        if let Some((revision, acked_state)) = writer.acked[s].last() {
            if (*revision, Some(acked_state)) != (last.revision, state.as_ref()) {
                return Err(format!(
                    "{}: last acknowledged reply disagrees with recovery",
                    site.key
                ));
            }
        }
        persisted.push((Some(last.revision), state));
    }
    // The reference replays are independent per site: split them over the
    // cores to keep the gate short.
    let replayed: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                scope.spawn(move || {
                    (worker..WRITER_SITES)
                        .step_by(WORKERS)
                        .map(|s| (s, replay_in_memory(sites, bundles, writer, s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread"))
            .collect()
    });
    for (s, replayed) in replayed {
        if replayed != persisted[s] {
            return Err(format!(
                "{}: recovered (revision, state) {:?} != in-memory replay {replayed:?}",
                sites[s].key, persisted[s]
            ));
        }
    }
    Ok(())
}

/// One writer site's snapshots, oldest first, through a fresh in-memory
/// `wi_maintain::Registry`: its final `(revision, state)`.
fn replay_in_memory(
    sites: &[SiteInput],
    bundles: &[WrapperBundle],
    writer: &Writer,
    s: usize,
) -> (Option<u32>, Option<String>) {
    let site = &sites[s];
    let pages: Vec<PageVersion> = writer
        .timeline_of(sites, s)
        .into_iter()
        .map(|(day, page)| PageVersion {
            day,
            doc: Document::parse(site.page(page)).expect("generated HTML parses"),
        })
        .collect();
    let mut reference = Registry::new();
    reference.install(site.key.clone(), bundles[s].clone(), 0);
    let job = MaintenanceJob {
        site: site.key.clone(),
        pages,
        seed_lkg: None,
        inducer: None,
    };
    let log = reference
        .maintain_batch_sequential(&[job], &Maintainer::default())
        .remove(0);
    (
        reference.current(&site.key).map(|b| b.revision),
        log.outcomes.last().map(|o| format!("{:?}", o.state)),
    )
}
