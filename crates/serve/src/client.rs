//! A minimal blocking HTTP/1.1 client for tests, experiments and smoke
//! checks.
//!
//! Every request sends `Connection: close` and reads the socket to EOF,
//! so the parser only has to split one complete response — including
//! decoding `Transfer-Encoding: chunked` bodies (the `/extract/batch`
//! stream).  Not a general client; just enough to exercise the daemon.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use wi_induction::json::{parse_json, JsonValue};

/// One fully-read response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunked bodies are already de-framed).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// A header value, case-insensitive.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as (lossy) text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<JsonValue, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        parse_json(text).map_err(|e| e.to_string())
    }
}

/// Sends a `GET`.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None, &[])
}

/// Sends a `POST` with a JSON body.
pub fn post_json(
    addr: impl ToSocketAddrs,
    path: &str,
    body: &JsonValue,
) -> std::io::Result<ClientResponse> {
    request(
        addr,
        "POST",
        path,
        Some("application/json"),
        body.to_compact().as_bytes(),
    )
}

/// Sends a `POST` with an arbitrary body (e.g. raw HTML for `/extract`).
pub fn post(
    addr: impl ToSocketAddrs,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, Some(content_type), body)
}

/// Sends one request and reads the connection to EOF.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: wi-serve\r\nConnection: close\r\n");
    if let Some(content_type) = content_type {
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).map_err(std::io::Error::other)
}

/// Splits a complete response into status, headers and decoded body.
pub fn parse_response(raw: &[u8]) -> Result<ClientResponse, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = raw
        .get(..head_end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or("response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response head")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let raw_body = raw
        .get(head_end + 4..)
        .ok_or("response has no header terminator")?;
    let chunked = headers.iter().any(|(n, v)| {
        n.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
    });
    let body = if chunked {
        decode_chunked(raw_body)?
    } else {
        raw_body.to_vec()
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// De-frames a complete chunked body.
fn decode_chunked(mut raw: &[u8]) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    loop {
        let line_end = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size line")?;
        let size_line = raw
            .get(..line_end)
            .and_then(|line| std::str::from_utf8(line).ok())
            .ok_or("chunk size is not UTF-8")?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        raw = raw.get(line_end + 2..).ok_or("truncated chunk size line")?;
        if size == 0 {
            return Ok(body);
        }
        // `size` comes off the wire: a hex line can claim up to usize::MAX.
        let (Some(chunk), Some(rest)) = (
            raw.get(..size),
            size.checked_add(2).and_then(|framed| raw.get(framed..)),
        ) else {
            return Err("truncated chunk".to_string());
        };
        body.extend_from_slice(chunk);
        raw = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_chunk_size_is_an_error_not_a_panic() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nab\r\n0\r\n\r\n";
        assert_eq!(
            parse_response(raw).err().as_deref(),
            Some("truncated chunk")
        );
    }
}
