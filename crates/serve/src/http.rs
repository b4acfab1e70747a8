//! Minimal HTTP/1.1 over raw byte streams — just enough protocol for the
//! service's five endpoints and its tiny client.
//!
//! Deliberate simplifications, all on the safe side of the spec:
//! every response carries `Connection: close` (one request per
//! connection, no keep-alive state machine), chunked request bodies are
//! rejected (the client always sends `Content-Length`), and header and
//! body sizes are hard-capped so a hostile peer cannot balloon memory.
//! Socket read/write timeouts are set by the caller; a stalled peer
//! surfaces as an [`HttpError::Io`] timeout, never a hung worker.

use std::fmt;
use std::io::{Read, Write};

/// Longest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Longest accepted request body, bytes (comfortably above
/// [`tauhls_core::jobspec::MAX_DFG_TEXT`] plus JSON escaping overhead).
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing; maps to `400`.
    BadRequest(String),
    /// The head or declared body exceeds the caps; maps to `413`.
    TooLarge,
    /// Socket-level failure (including read timeouts); maps to `408`.
    Io(std::io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path only; no scheme/authority handling).
    pub path: String,
    /// Headers as `(lowercased-name, trimmed-value)` pairs, in arrival
    /// order — the admission-control layer reads client identity
    /// (`x-client`) and job priority (`x-priority`) from here.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `stream`.
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    // Accumulate until the blank line; anything past it is body prefix.
    let mut buf = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before end of headers".to_string(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("headers are not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    }
    let mut content_length: usize = 0;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {value:?}")))?;
        } else if name == "transfer-encoding" {
            return Err(HttpError::BadRequest(
                "chunked transfer encoding is not supported".to_string(),
            ));
        }
        headers.push((name, value.to_string()));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::BadRequest(
            "body longer than content-length".to_string(),
        ));
    }
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(16 * 1024)];
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed mid-body".to_string(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for each status the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Connection: close` response.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, impl AsRef<str>)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value.as_ref());
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut std::io::Cursor::new(raw.to_vec()))
    }

    #[test]
    fn parses_post_with_body() {
        let r = req(b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("parses");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/simulate");
        assert_eq!(r.body, b"{\"a\":1}");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("content-length"), Some("7"));
        assert_eq!(r.header("x-client"), None);
    }

    #[test]
    fn headers_are_lowercased_and_order_preserving() {
        let r = req(b"POST /v1/jobs HTTP/1.1\r\nX-Client: alice\r\nX-Priority: 2\r\nContent-Length: 0\r\n\r\n")
            .expect("parses");
        assert_eq!(r.header("x-client"), Some("alice"));
        assert_eq!(r.header("x-priority"), Some("2"));
        assert_eq!(r.headers.len(), 3);
    }

    #[test]
    fn parses_get_without_body_and_case_insensitive_headers() {
        let r = req(b"GET /healthz HTTP/1.1\r\ncOnTeNt-LeNgTh: 0\r\n\r\n").expect("parses");
        assert_eq!((r.method.as_str(), r.body.len()), ("GET", 0));
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(
            req(b"nonsense\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            req(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
        assert!(matches!(
            req(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Err(HttpError::BadRequest(_)) // truncated body
        ));
        let huge_head = [
            b"GET / HTTP/1.1\r\n".as_slice(),
            &vec![b'x'; MAX_HEAD_BYTES],
        ]
        .concat();
        assert!(matches!(req(&huge_head), Err(HttpError::TooLarge)));
    }

    #[test]
    fn response_framing_round_trips() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
        )
        .expect("write");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
