//! A keep-alive HTTP/1.1 client for the closed-loop readers.
//!
//! `wi_serve::client` sends `Connection: close` and reads to EOF, so every
//! request pays a connect and an accept.  The read paths are measured over
//! one persistent connection per client instead: a request is written
//! whole, and the response is framed by `Content-Length` or by the chunked
//! encoding `/extract/batch` streams with.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response read off a keep-alive connection.
pub struct Reply {
    /// Status code of the status line.
    pub status: u16,
    /// The de-framed body.
    pub body: Vec<u8>,
}

/// A persistent connection to the daemon.
pub struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// The raw bytes of a keep-alive `POST`.
pub fn post_bytes(path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: wi-serve\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

impl KeepAlive {
    /// Opens a connection.
    pub fn connect(addr: SocketAddr) -> io::Result<KeepAlive> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KeepAlive {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one complete request and reads its whole response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((reply, consumed)) = parse_reply(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(reply);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Parses a complete response at the front of `buf`; `None` while more
/// bytes are needed.
fn parse_reply(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| invalid("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid(format!("bad header line {line:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let body_start = head_end + 4;
    if chunked {
        return Ok(decode_chunked(&buf[body_start..])?
            .map(|(body, used)| (Reply { status, body }, body_start + used)));
    }
    let total = body_start + content_length.unwrap_or(0);
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[body_start..total].to_vec();
    Ok(Some((Reply { status, body }, total)))
}

/// De-frames a chunked body; `None` until the terminating chunk arrived.
fn decode_chunked(raw: &[u8]) -> io::Result<Option<(Vec<u8>, usize)>> {
    let mut body = Vec::new();
    let mut at = 0;
    loop {
        let Some(line_len) = raw[at..].windows(2).position(|w| w == b"\r\n") else {
            return Ok(None);
        };
        let size_line = std::str::from_utf8(&raw[at..at + line_len])
            .map_err(|_| invalid("chunk size is not UTF-8".into()))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
        at += line_len + 2;
        if raw.len() < at + size + 2 {
            return Ok(None);
        }
        if size == 0 {
            return Ok(Some((body, at + 2)));
        }
        body.extend_from_slice(&raw[at..at + size]);
        at += size + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_length_and_chunked_replies() {
        let fixed = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP";
        let (reply, used) = parse_reply(fixed).unwrap().unwrap();
        assert_eq!(
            (reply.status, reply.body.as_slice(), used),
            (200, &b"ok"[..], 40)
        );

        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n1\r\nd\r\n0\r\n\r\n";
        let (reply, used) = parse_reply(chunked).unwrap().unwrap();
        assert_eq!(reply.body, b"abcd");
        assert_eq!(used, chunked.len());
        assert!(parse_reply(&chunked[..chunked.len() - 1])
            .unwrap()
            .is_none());
    }
}
