//! In-process end-to-end test of the daemon: induce → extract → batch
//! stream → maintain → site info → metrics → graceful shutdown, plus the
//! typed error paths, all over real TCP against a scratch registry.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use wi_dom::to_html;
use wi_induction::json::JsonValue;
use wi_maintain::{Maintainer, PersistentRegistry};
use wi_serve::client;
use wi_serve::router::percent_encode;
use wi_serve::{Limits, ServeConfig, Server, ServerHandle};
use wi_webgen::datasets::single_node_tasks;
use wi_webgen::Day;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "wi-serve-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[test]
fn daemon_serves_the_full_wrapper_lifecycle() {
    let root = scratch_dir("lifecycle");
    let registry = PersistentRegistry::create(&root, 4).expect("create registry");
    let handle = Server::start(registry, Maintainer::default(), ServeConfig::default())
        .expect("start daemon");
    let addr = handle.addr();

    // `/induce` locates targets by their text, so pick a task whose
    // ground-truth nodes actually carry text (form-element targets don't).
    let (task, doc, targets) = single_node_tasks(12)
        .into_iter()
        .find_map(|task| {
            let (doc, targets) = task.page_with_targets(Day(0));
            let texts: Vec<String> = targets.iter().map(|&n| doc.normalized_text(n)).collect();
            (wi_induction::harvest_targets_by_text(&doc, &texts) == targets)
                .then_some((task, doc, targets))
        })
        .expect("a task with text-addressable targets");
    let site = task.id();
    let encoded = percent_encode(&site);
    let truth: Vec<String> = targets.iter().map(|&n| doc.normalized_text(n)).collect();
    let html = to_html(&doc);

    // Liveness first.
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(
        health
            .json()
            .unwrap()
            .get("status")
            .and_then(JsonValue::as_str),
        Some("ok")
    );

    // Extraction before any install is a clean 404.
    let missing = client::post(
        addr,
        &format!("/extract/{encoded}"),
        "text/html",
        html.as_bytes(),
    )
    .expect("extract before install");
    assert_eq!(missing.status, 404);

    // Induce over HTTP: ground-truth texts in, revision 0 installed.
    let induce_body = object(vec![
        ("day", JsonValue::Number(0.0)),
        (
            "samples",
            JsonValue::Array(vec![object(vec![
                ("html", JsonValue::String(html.clone())),
                (
                    "target_texts",
                    JsonValue::Array(truth.iter().cloned().map(JsonValue::String).collect()),
                ),
            ])]),
        ),
    ]);
    let induced =
        client::post_json(addr, &format!("/induce/{encoded}"), &induce_body).expect("induce");
    assert_eq!(induced.status, 200, "induce failed: {}", induced.text());
    let induced = induced.json().unwrap();
    assert_eq!(induced.get("revision").and_then(JsonValue::as_u32), Some(0));

    // Extract: the served texts match the ground truth.
    let extracted = client::post(
        addr,
        &format!("/extract/{encoded}"),
        "text/html",
        html.as_bytes(),
    )
    .expect("extract");
    assert_eq!(
        extracted.status,
        200,
        "extract failed: {}",
        extracted.text()
    );
    let extracted = extracted.json().unwrap();
    let texts: Vec<&str> = extracted
        .get("texts")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(texts, truth.iter().map(String::as_str).collect::<Vec<_>>());

    // Batch: two good documents and one non-string slot stream back as
    // three NDJSON lines in input order.
    let batch_body = object(vec![
        ("site", JsonValue::String(site.clone())),
        (
            "docs",
            JsonValue::Array(vec![
                JsonValue::String(html.clone()),
                JsonValue::String(html.clone()),
                JsonValue::Number(42.0),
            ]),
        ),
    ]);
    let batch = client::post_json(addr, "/extract/batch", &batch_body).expect("batch");
    assert_eq!(batch.status, 200);
    assert_eq!(
        batch
            .header("transfer-encoding")
            .map(str::to_ascii_lowercase),
        Some("chunked".into())
    );
    let lines: Vec<JsonValue> = batch
        .text()
        .lines()
        .map(|l| wi_induction::json::parse_json(l).expect("NDJSON line"))
        .collect();
    assert_eq!(lines.len(), 3);
    for (index, line) in lines.iter().enumerate() {
        assert_eq!(
            line.get("index").and_then(JsonValue::as_f64),
            Some(index as f64)
        );
    }
    assert!(lines[0].get("texts").is_some());
    assert!(lines[2].get("error").is_some(), "non-string doc errors");

    // Maintain over a later healthy snapshot.
    let (later_doc, _) = task.page_with_targets(Day(20));
    let maintain_body = object(vec![(
        "snapshots",
        JsonValue::Array(vec![object(vec![
            ("day", JsonValue::Number(20.0)),
            ("html", JsonValue::String(to_html(&later_doc))),
        ])]),
    )]);
    let maintained =
        client::post_json(addr, &format!("/maintain/{encoded}"), &maintain_body).expect("maintain");
    assert_eq!(
        maintained.status,
        200,
        "maintain failed: {}",
        maintained.text()
    );
    let maintained = maintained.json().unwrap();
    assert_eq!(
        maintained.get("epochs").and_then(JsonValue::as_f64),
        Some(1.0)
    );

    // Maintain again over two content-identical snapshots: the first epoch
    // primes the incremental caches (a recorded miss), the second replays
    // from them (a recorded hit) — both must surface through /metrics.
    let identical_html = to_html(&later_doc);
    let replay_body = object(vec![(
        "snapshots",
        JsonValue::Array(
            [40.0, 60.0]
                .iter()
                .map(|&day| {
                    object(vec![
                        ("day", JsonValue::Number(day)),
                        ("html", JsonValue::String(identical_html.clone())),
                    ])
                })
                .collect(),
        ),
    )]);
    let replayed =
        client::post_json(addr, &format!("/maintain/{encoded}"), &replay_body).expect("replay");
    assert_eq!(replayed.status, 200, "replay failed: {}", replayed.text());

    // Site info: revision history and lifecycle state.
    let info = client::get(addr, &format!("/sites/{encoded}")).expect("site info");
    assert_eq!(info.status, 200);
    let info = info.json().unwrap();
    assert_eq!(
        info.get("site").and_then(JsonValue::as_str),
        Some(site.as_str())
    );
    assert_eq!(
        info.get("state").and_then(JsonValue::as_str),
        Some("Monitoring")
    );
    let revisions = info.get("revisions").and_then(JsonValue::as_array).unwrap();
    assert!(!revisions.is_empty());

    // Metrics: the served requests show up as non-zero counters.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let exposition = metrics.text();
    assert!(exposition.contains("wi_requests_total{endpoint=\"extract\"} 2"));
    assert!(exposition.contains("wi_requests_total{endpoint=\"induce\"} 1"));
    assert!(exposition.contains("wi_registry_sites 1"));
    assert!(!exposition.contains("wi_registry_poisoned 1"));

    // The incremental-maintenance cache counters (global families appended
    // after the per-daemon ones) recorded the replay above: at least one
    // full verification priming the epoch echo and one echo replay.
    let metric_value = |name: &str| -> u64 {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(name).map(str::trim))
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .parse()
            .unwrap_or_else(|_| panic!("{name} has a non-numeric value"))
    };
    assert!(metric_value("wi_maintain_cache_hits_total ") > 0);
    assert!(metric_value("wi_maintain_cache_misses_total ") > 0);

    // Unknown routes and wrong methods are typed errors, not closures.
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(addr, "/extract/x").unwrap().status, 405);

    // Snapshot over HTTP: the named capture lands under snapshots/ and a
    // recover of the snapshot directory agrees with the live registry.
    let snap_body = object(vec![("name", JsonValue::String("http-nightly".into()))]);
    let snapped = client::post_json(addr, "/admin/snapshot", &snap_body).expect("snapshot");
    assert_eq!(snapped.status, 200, "snapshot failed: {}", snapped.text());
    let snapped = snapped.json().unwrap();
    assert_eq!(
        snapped.get("name").and_then(JsonValue::as_str),
        Some("http-nightly")
    );
    assert!(snapped.get("files").and_then(JsonValue::as_f64).unwrap() > 0.0);
    let snap_root = root.join("snapshots").join("http-nightly");
    assert!(snap_root.join("snapshot.json").is_file());
    let from_snapshot = PersistentRegistry::recover(&snap_root).expect("recover snapshot");
    assert!(from_snapshot.current(&site).is_some());
    drop(from_snapshot);
    // Duplicate names are refused, not overwritten.
    let duplicate = client::post_json(addr, "/admin/snapshot", &snap_body).expect("duplicate");
    assert_eq!(duplicate.status, 500);
    assert!(duplicate.text().contains("already exists"));

    // Graceful shutdown: drain, join, sync — and the handed-back registry
    // still has the site; a fresh recover from disk agrees.
    let drain = client::post_json(addr, "/admin/shutdown", &object(vec![])).expect("shutdown");
    assert_eq!(drain.status, 200);
    let registry = handle.wait();
    assert!(registry.current(&site).is_some());
    let history_len = registry.history(&site).len();
    drop(registry);
    let reopened = PersistentRegistry::recover(&root).expect("recover after shutdown");
    assert_eq!(reopened.history(&site).len(), history_len);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_rejects_oversized_and_malformed_requests() {
    let root = scratch_dir("errors");
    let registry = PersistentRegistry::create(&root, 2).expect("create registry");
    let config = ServeConfig {
        limits: Limits {
            max_head_bytes: 2 * 1024,
            max_body_bytes: 1024,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(registry, Maintainer::default(), config).expect("start daemon");
    let addr = handle.addr();

    // Body over the configured cap → 413 before the body is read.
    let big = vec![b'x'; 4096];
    let too_large =
        client::post(addr, "/extract/some-site", "text/html", &big).expect("oversized request");
    assert_eq!(too_large.status, 413);

    // Unparseable JSON → 400; JSON of the wrong shape → 422.
    let bad_json =
        client::post(addr, "/extract/batch", "application/json", b"{nope").expect("bad json");
    assert_eq!(bad_json.status, 400);
    let wrong_shape = client::post(addr, "/extract/batch", "application/json", b"{\"x\":1}")
        .expect("wrong shape");
    assert_eq!(wrong_shape.status, 422);

    handle.shutdown();
    let registry = handle.wait();
    assert!(!registry.is_poisoned());
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rejected_request_reply_survives_the_unread_body() {
    let root = scratch_dir("linger");
    let registry = PersistentRegistry::create(&root, 1).expect("create registry");
    let config = ServeConfig {
        limits: Limits {
            max_head_bytes: 2 * 1024,
            max_body_bytes: 1024,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(registry, Maintainer::default(), config).expect("start daemon");

    // Head and an over-cap body in one write: the daemon rejects the head
    // and never reads the body, which is still queued when it closes.
    let body = vec![b'x'; 16 * 1024];
    let mut request = format!(
        "POST /extract/some-site HTTP/1.1\r\nHost: test\r\nContent-Type: text/html\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(&request).expect("send request");
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the reply reads to a clean EOF, not a reset");
    assert!(
        reply.starts_with(b"HTTP/1.1 413"),
        "reply: {:?}",
        String::from_utf8_lossy(&reply)
    );

    handle.shutdown();
    drop(handle.wait());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_json_body_is_a_400_not_a_crash() {
    let (root, handle) = start_daemon("deep-json", "127.0.0.1:0");
    let addr = handle.addr();

    // A million open brackets used to overflow the worker's stack inside
    // the recursive JSON parser, which aborted the whole daemon.
    let body = "[".repeat(1_000_000);
    let reply = client::post(
        addr,
        "/maintain/some-site",
        "application/json",
        body.as_bytes(),
    )
    .expect("deep body");
    assert_eq!(reply.status, 400, "reply: {}", reply.text());
    assert!(reply.text().contains("nesting"), "reply: {}", reply.text());

    // Every client call opens its own connection: the daemon is still up.
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);

    handle.shutdown();
    let registry = wait_within_deadline(handle);
    assert!(!registry.is_poisoned());
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `handle.wait()` on a thread and fails the test if it does not
/// return within five seconds.  The acceptor blocks in `accept`, so a
/// shutdown path that forgets to wake it hangs `wait` forever; this turns
/// that hang into a failure.
fn wait_within_deadline(handle: ServerHandle) -> PersistentRegistry {
    let (tx, rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    let registry = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("ServerHandle::wait did not return within 5 s of shutdown");
    waiter.join().expect("the waiting thread finished cleanly");
    registry
}

fn start_daemon(tag: &str, addr: &str) -> (PathBuf, ServerHandle) {
    let root = scratch_dir(tag);
    let registry = PersistentRegistry::create(&root, 2).expect("create registry");
    let config = ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    };
    let handle = Server::start(registry, Maintainer::default(), config).expect("start daemon");
    (root, handle)
}

#[test]
fn admin_shutdown_wakes_the_acceptor_without_another_client() {
    let (root, handle) = start_daemon("wake-admin", "127.0.0.1:0");
    let addr = handle.addr();
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let drain = client::post_json(addr, "/admin/shutdown", &object(vec![])).expect("shutdown");
    assert_eq!(drain.status, 200);
    let registry = wait_within_deadline(handle);
    assert!(!registry.is_poisoned());
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn handle_shutdown_wakes_the_acceptor_without_another_client() {
    let (root, handle) = start_daemon("wake-handle", "127.0.0.1:0");
    assert_eq!(client::get(handle.addr(), "/healthz").unwrap().status, 200);
    handle.shutdown();
    let registry = wait_within_deadline(handle);
    assert!(!registry.is_poisoned());
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_wakes_a_daemon_bound_to_every_interface() {
    let (root, handle) = start_daemon("wake-unspecified", "0.0.0.0:0");
    assert!(handle.addr().ip().is_unspecified());
    let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, handle.addr().port()));
    assert_eq!(client::get(loopback, "/healthz").unwrap().status, 200);
    handle.shutdown();
    let registry = wait_within_deadline(handle);
    assert!(!registry.is_poisoned());
    drop(registry);
    let _ = std::fs::remove_dir_all(&root);
}
