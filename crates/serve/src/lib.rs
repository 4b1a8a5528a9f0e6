//! wi-serve: extraction as a service over the persistent wrapper registry.
//!
//! A long-running daemon that opens (or crash-recovers) a
//! [`PersistentRegistry`](wi_maintain::PersistentRegistry), keeps the hot
//! wrapper bundles resident, and serves the whole wrapper lifecycle over
//! HTTP — so clients extract without ever re-inducing, re-parsing logs or
//! re-loading bundles:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /extract/{site}` | HTML body → extracted node texts |
//! | `POST /extract/batch` | many documents → NDJSON result stream |
//! | `POST /induce/{site}` | samples → new bundle revision installed |
//! | `POST /maintain/{site}` | snapshots → verify / classify / repair |
//! | `GET /sites/{site}` | lifecycle state + revision history |
//! | `GET /healthz` | liveness + poisoning state |
//! | `GET /metrics` | request + registry metrics (text exposition) |
//! | `GET /debug/trace` | recent trace journal (NDJSON) |
//! | `GET /debug/slow` | top-K slowest spans over the threshold (NDJSON) |
//! | `POST /admin/shutdown` | graceful drain and exit |
//!
//! Everything is hand-rolled on `std`: a pull parser for HTTP/1.1 over
//! [`std::net::TcpListener`] ([`http`]), segment routing with
//! percent-decoded site keys ([`router`]), a per-daemon
//! [`wi_obs::Registry`] behind pre-resolved handles ([`metrics`]) and a
//! fixed thread pool where each worker owns a
//! resident [`EvalContext`](wi_xpath::EvalContext) ([`server`] — the
//! threading and shutdown contract lives on that module).
//!
//! Site keys route to registry shards through the same
//! [`shard_of`](wi_maintain::shard_of) partition the logs use; every
//! write appends through the registry's poisoning/idempotency machinery,
//! so a SIGKILL'd daemon restarts with zero lost committed revisions —
//! `tests/serve_daemon.rs` in the workspace root proves exactly that.

#![deny(missing_docs)]
// The clippy.toml contracts minus its type bans: this crate owns sockets.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// A panic in a worker kills its connection and can poison the registry
// lock, so non-test code turns every failure into a typed 4xx/5xx
// response.  A bounds proof that the compiler cannot see is an
// `#[expect(clippy::…, reason = "…")]` at the site; one that goes stale
// fails `-D warnings`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod client;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;

pub use http::{Limits, Request, Response};
pub use metrics::{Endpoint, Metrics};
pub use router::{percent_encode, route, Route, RouteError};
pub use server::{ServeConfig, ServeState, Server, ServerHandle};
