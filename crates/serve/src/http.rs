//! A hand-rolled HTTP/1.1 subset: request parsing and response writing over
//! plain byte buffers.
//!
//! The build environment is offline (no crates.io), so — like the
//! hand-rolled `json` module in `wi-induction` — this implements exactly
//! the slice of RFC 7230 the daemon needs and nothing more:
//!
//! * Requests: a request line, headers, and an optional `Content-Length`
//!   body.  `Transfer-Encoding` on *requests* is rejected (501); responses
//!   may use chunked encoding via [`ChunkedWriter`].
//! * [`parse_request`] is a **pull parser over a growing buffer**: it
//!   returns `Ok(None)` while the buffer holds only a prefix of a request
//!   (read more and retry) and `Ok(Some((request, consumed)))` once a full
//!   request is buffered.  Bytes after `consumed` belong to the *next*
//!   pipelined request and must stay in the buffer.
//! * Every malformed input is a typed [`HttpError`] carrying the response
//!   status to send before closing the connection — never a panic, for any
//!   byte sequence (property-tested in `tests/http_parser.rs`).
//!
//! Hard limits ([`Limits`]) bound the head and body sizes so a single
//! connection cannot balloon server memory: oversized heads are 431,
//! oversized declared bodies are 413.

use std::io::Write;

/// Size limits enforced while parsing a request.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length` (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A request-level protocol failure: the HTTP status to answer with before
/// closing the connection, plus a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The response status (400, 413, 431, 501, …).
    pub status: u16,
    /// What was wrong with the request.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this name, compared case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The request path: the target with any `?query` suffix removed.
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map(|(path, _)| path)
            .unwrap_or(&self.target)
    }

    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Parses the longest complete request at the front of `buf`.
///
/// Returns `Ok(None)` while `buf` holds only a prefix (the caller reads
/// more bytes and retries), `Ok(Some((request, consumed)))` for a complete
/// request occupying `buf[..consumed]`, and `Err` for a malformed head —
/// in which case the connection must answer with the error's status and
/// close, because the byte stream is no longer in a known state.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_len) = find_head_end(buf, limits.max_head_bytes) else {
        return if buf.len() > limits.max_head_bytes {
            Err(HttpError::new(
                431,
                format!(
                    "request head exceeds {} bytes without terminating",
                    limits.max_head_bytes
                ),
            ))
        } else {
            Ok(None) // torn head: wait for more bytes
        };
    };
    #[expect(
        clippy::indexing_slicing,
        reason = "head_len comes from find_head_end which only returns positions inside buf"
    )]
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, target) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, format!("malformed header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::new(
                400,
                format!("malformed header name {name:?}"),
            ));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::new(
            501,
            "transfer-encoding request bodies are not supported",
        ));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("invalid Content-Length {raw:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::new(
            413,
            format!(
                "declared body of {content_length} bytes exceeds the {}-byte limit",
                limits.max_body_bytes
            ),
        ));
    }

    let body_start = head_len + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None); // body not fully buffered yet
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "the early return above guarantees buf.len() >= total >= body_start"
    )]
    let body = buf[body_start..total].to_vec();
    Ok(Some((Request { body, ..request }, total)))
}

/// Byte length of the head (up to but excluding `\r\n\r\n`), if the
/// terminator lies within the first `max + 4` bytes.
fn find_head_end(buf: &[u8], max: usize) -> Option<usize> {
    #[expect(
        clippy::indexing_slicing,
        reason = "the range end is clamped with buf.len().min"
    )]
    let window = &buf[..buf.len().min(max + 4)];
    window
        .windows(4)
        .position(|quad| quad == b"\r\n\r\n")
        .filter(|&pos| pos <= max)
}

fn parse_request_line(line: &str) -> Result<(&str, &str), HttpError> {
    let malformed = || HttpError::new(400, format!("malformed request line {line:?}"));
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(malformed)?;
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or_else(malformed)?;
    let version = parts.next().ok_or_else(malformed)?;
    if parts.next().is_some() {
        return Err(malformed());
    }
    if !method
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(HttpError::new(400, format!("malformed method {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(
            505,
            format!("unsupported protocol version {version:?}"),
        ));
    }
    Ok((method, target))
}

/// The canonical reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// A fully buffered response, written with `Content-Length`.
#[derive(Debug, Clone)]
pub struct Response {
    /// The response status.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
    /// Whether to answer `Connection: close` (and close afterwards).
    pub close: bool,
}

impl Response {
    /// A JSON response from pre-rendered text.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
        }
    }
}

/// Writes a buffered response: head and body are rendered into one buffer
/// and handed to the writer in a single `write_all`, so a `nodelay` socket
/// sends the reply as one segment instead of one per header piece.
pub fn write_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(HEAD_CAPACITY + response.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        connection(response.close),
    )?;
    out.extend_from_slice(&response.body);
    w.write_all(&out)?;
    w.flush()
}

/// Room reserved for a response head, so rendering it rarely reallocates.
const HEAD_CAPACITY: usize = 128;

fn connection(close: bool) -> &'static str {
    if close {
        "close"
    } else {
        "keep-alive"
    }
}

/// A streaming chunked-transfer response: the head is written up front,
/// each [`chunk`](ChunkedWriter::chunk) flushes one HTTP chunk, and
/// [`finish`](ChunkedWriter::finish) writes the terminating zero chunk.
/// Each of these is one `write_all` of a buffer the writer reuses.  This
/// is how `/extract/batch` streams large result sets without buffering
/// them.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
    buf: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        w: &'a mut W,
        status: u16,
        content_type: &str,
        close: bool,
    ) -> std::io::Result<ChunkedWriter<'a, W>> {
        let mut buf = Vec::with_capacity(HEAD_CAPACITY);
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            status,
            reason(status),
            content_type,
            connection(close),
        )?;
        w.write_all(&buf)?;
        Ok(ChunkedWriter { w, buf })
    }

    /// Writes one chunk (empty input is skipped: an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        write!(self.buf, "{:x}\r\n", bytes.len())?;
        self.buf.extend_from_slice(bytes);
        self.buf.extend_from_slice(b"\r\n");
        self.w.write_all(&self.buf)?;
        self.w.flush()
    }

    /// Terminates the stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, used) = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(used, 34);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_reports_consumed_bytes() {
        let raw = b"POST /extract/a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET ";
        let (req, used) = parse_all(raw).unwrap().unwrap();
        assert_eq!(req.body, b"hello");
        assert_eq!(&raw[used..], b"GET ");
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        assert!(parse_all(b"GET /x HTTP/1.1\r\nHost").unwrap().is_none());
        assert!(
            parse_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal")
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn query_strings_are_split_off_the_path() {
        let (req, _) = parse_all(b"GET /metrics?verbose=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.target, "/metrics?verbose=1");
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_response_is_one_write_of_the_golden_bytes() {
        let mut not_found = Response::text(404, "no route for /x");
        not_found.close = true;
        let cases: [(Response, &[u8]); 2] = [
            (
                Response::json(200, "{\"ok\":true}"),
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
                  Connection: keep-alive\r\n\r\n{\"ok\":true}",
            ),
            (
                not_found,
                b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
                  Content-Length: 15\r\nConnection: close\r\n\r\nno route for /x",
            ),
        ];
        for (response, golden) in cases {
            let mut sink = CountingSink::default();
            write_response(&mut sink, &response).unwrap();
            assert_eq!(sink.calls, 1);
            assert_eq!(sink.bytes, golden);
        }
    }

    #[test]
    fn chunked_writer_emits_well_formed_chunks() {
        let mut sink = CountingSink::default();
        let mut w = ChunkedWriter::start(&mut sink, 200, "application/x-ndjson", false).unwrap();
        w.chunk(b"{\"index\":0}\n").unwrap();
        w.chunk(b"").unwrap(); // skipped, not a terminator
        w.chunk(b"{\"index\":1}\n").unwrap();
        w.finish().unwrap();
        assert_eq!(sink.calls, 4, "head + 2 non-empty chunks + terminator");
        assert_eq!(
            sink.bytes,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n\
              c\r\n{\"index\":0}\n\r\nc\r\n{\"index\":1}\n\r\n0\r\n\r\n"
        );
    }
}
