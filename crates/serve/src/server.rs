//! The daemon: acceptor + fixed worker pool over a shared connection queue.
//!
//! # Threading contract
//!
//! One **acceptor** thread blocks in [`TcpListener::accept`] and feeds
//! accepted connections into an [`mpsc`] queue, so a new connection is
//! handed to a worker as soon as the kernel completes it — no polling
//! interval sits on the request path.  A **fixed pool** of worker threads
//! drains the queue; each worker owns one resident [`EvalContext`] for its
//! whole lifetime, so per-request extraction pays no context setup.  The
//! registry sits behind one [`RwLock`]: extraction and site reads share
//! it, induction and maintenance take it exclusively (appends must
//! serialize per shard log anyway).  Each reply leaves in one `write`
//! call (see [`write_response`] and [`ChunkedWriter`]).
//!
//! # Shutdown contract
//!
//! `POST /admin/shutdown` (or [`ServerHandle::shutdown`]) sets an atomic
//! flag and then **wakes the acceptor** with one connection to the
//! listener: [`ServerHandle::shutdown`] connects to the bound address, the
//! worker that served `/admin/shutdown` connects to its connection's local
//! address (an unspecified bind IP is mapped to loopback).  The acceptor
//! re-checks the flag after every `accept`, drops the connection it just
//! accepted once the flag is set, and exits — dropping the queue sender.
//! Each worker finishes the requests already buffered on its current
//! connection, answers them with `Connection: close`, then exits when the
//! queue is empty.  [`ServerHandle::wait`] joins every thread, syncs the
//! shard logs (the [`Durability::Batch`](wi_maintain::Durability) flush
//! point) and hands the registry back — so a graceful shutdown never
//! loses a committed revision.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use wi_maintain::{Maintainer, PersistentRegistry};
use wi_xpath::EvalContext;

use crate::handlers::{handle, Reply};
use crate::http::{parse_request, write_response, ChunkedWriter, Limits, Response};
use crate::metrics::Metrics;

/// Pause after a failed `accept` (e.g. EMFILE) before retrying, so a
/// persistent error does not spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);
/// Upper bound on the shutdown wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Per-read timeout on connections; also bounds how fast an idle worker
/// notices the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(250);
/// Idle read timeouts tolerated before a keep-alive connection is dropped
/// (`READ_TIMEOUT × MAX_IDLE_READS` ≈ 10 s).
const MAX_IDLE_READS: u32 = 40;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` sizes the pool from available parallelism.
    pub workers: usize,
    /// Request size limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            limits: Limits::default(),
        }
    }
}

/// State shared by every worker.
pub struct ServeState {
    /// The registry: shared by readers, exclusive for writers.
    pub registry: RwLock<PersistentRegistry>,
    /// Verify/classify/repair machinery for `/maintain` and the inducer
    /// for `/induce`.
    pub maintainer: Maintainer,
    /// Request + registry metrics.
    pub metrics: Metrics,
    /// The graceful-shutdown flag.
    pub shutdown: AtomicBool,
    /// Request size limits.
    pub limits: Limits,
}

/// The running daemon.  Dropping the handle without
/// [`wait`](ServerHandle::wait) detaches the threads.
pub struct Server;

/// Joins and owns the daemon's threads; see [`Server::start`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns immediately.
    pub fn start(
        registry: PersistentRegistry,
        maintainer: Maintainer,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = registry.shard_count();
        let state = Arc::new(ServeState {
            registry: RwLock::new(registry),
            maintainer,
            metrics: Metrics::new(shards),
            shutdown: AtomicBool::new(false),
            limits: config.limits,
        });
        let worker_count = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8)
        } else {
            config.workers
        };
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..worker_count)
            .map(|index| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("wi-serve-worker-{index}"))
                    .spawn(move || worker_loop(&state, &rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("wi-serve-acceptor".to_string())
                .spawn(move || accept_loop(&state, &listener, tx))?
        };
        Ok(ServerHandle {
            addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when `addr` ended in
    /// `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect metrics through this).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Triggers the graceful shutdown (same effect as `POST
    /// /admin/shutdown`): sets the flag and wakes the acceptor.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
    }

    /// Blocks until every thread drains (shutdown must have been
    /// triggered), syncs the shard logs and returns the registry.
    pub fn wait(mut self) -> PersistentRegistry {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        #[expect(
            clippy::expect_used,
            reason = "the acceptor and every worker were joined above, so no thread holds the state"
        )]
        let state = Arc::try_unwrap(self.state)
            .ok()
            .expect("all worker threads joined");
        let mut registry = state
            .registry
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let _ = registry.sync();
        registry
    }
}

fn accept_loop(state: &ServeState, listener: &TcpListener, tx: mpsc::Sender<TcpStream>) {
    loop {
        let accepted = listener.accept();
        // Whatever woke the acceptor once the flag is set — the shutdown
        // wake-up or a late client — is dropped unserved.
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) => {
                wi_obs::log(
                    wi_obs::Level::Warn,
                    "serve.accept_error",
                    &[("error", e.to_string())],
                );
                thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    // Dropping the sender is what lets idle workers exit their recv().
}

/// Unblocks an acceptor parked in `accept` by connecting to its listener
/// once.  Errors are ignored: a refused connect means the acceptor (and
/// its listener) is already gone.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&connectable(addr), WAKE_TIMEOUT);
}

/// `addr` with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback,
/// so a daemon bound to every interface can still be dialled.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    addr
}

fn worker_loop(state: &ServeState, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    let mut cx = EvalContext::new();
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        match stream {
            Ok(stream) => handle_connection(state, &mut cx, stream),
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

/// Serves one connection: parse → dispatch → respond, repeating for
/// keep-alive and pipelined requests until close, EOF, error, idle
/// timeout, or shutdown.
fn handle_connection(state: &ServeState, cx: &mut EvalContext, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
    let mut chunk = [0u8; 8 * 1024];
    let mut idle_reads = 0u32;
    loop {
        // Drain every complete request already buffered before reading
        // more (pipelining).
        match parse_request(&buf, &state.limits) {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                idle_reads = 0;
                let draining = state.shutdown.load(Ordering::SeqCst);
                let close = request.wants_close() || draining;
                let (_, reply) = handle(state, cx, &request);
                if !draining && state.shutdown.load(Ordering::SeqCst) {
                    // The flag flipped while this request ran (`/admin/shutdown`).
                    if let Ok(local) = stream.local_addr() {
                        wake_acceptor(local);
                    }
                }
                if write_reply(&mut stream, reply, close).is_err() || close {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                let mut response =
                    Response::json(e.status, format!("{{\"error\":{:?}}}", e.message));
                response.close = true;
                if write_response(&mut stream, &response).is_ok() {
                    linger_close(&mut stream, &mut chunk);
                }
                return;
            }
        }
        if state.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                idle_reads = 0;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "Read::read returns n <= chunk.len() by contract"
                )]
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle_reads += 1;
                if idle_reads > MAX_IDLE_READS {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Closes a connection whose request was rejected before its body was
/// read.  Dropping the socket with unread bytes queued makes the kernel
/// answer with RST, which can destroy the reply before the client reads
/// it; so half-close instead, then discard whatever the client still sends
/// until it closes its side, an error, or `READ_TIMEOUT` after the reply.
fn linger_close(stream: &mut TcpStream, chunk: &mut [u8]) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + READ_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(chunk) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn write_reply(stream: &mut impl Write, reply: Reply, close: bool) -> std::io::Result<()> {
    match reply {
        Reply::Full(mut response) => {
            response.close = close;
            write_response(stream, &response)
        }
        Reply::Chunked {
            status,
            content_type,
            chunks,
        } => {
            let mut writer = ChunkedWriter::start(stream, status, content_type, close)?;
            for chunk in &chunks {
                writer.chunk(chunk)?;
            }
            writer.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_bind_addresses_are_dialled_on_loopback() {
        let dial = |s: &str| connectable(s.parse().unwrap()).to_string();
        assert_eq!(dial("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(dial("[::]:8080"), "[::1]:8080");
        assert_eq!(dial("127.0.0.1:8080"), "127.0.0.1:8080");
        assert_eq!(dial("10.1.2.3:8080"), "10.1.2.3:8080");
    }
}
