//! Incremental HTTP/1.1 request parsing.
//!
//! [`RequestParser`] owns a byte buffer: [`RequestParser::feed`] it
//! whatever `read()` returned — a byte at a time, half a request, or
//! three pipelined requests — and drain complete [`Request`]s with
//! [`RequestParser::next_request`]. Parse failures are typed
//! [`HttpError`]s carrying the status code the connection should
//! answer with before closing (400 for malformed input, 413 for
//! oversized heads or bodies). The parser never panics on hostile
//! input; anything it cannot frame is an error, not a guess.

use std::fmt;

/// Input limits enforced during parsing.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes for the request line plus headers; beyond this the
    /// parser answers 413 (the head is unbounded attacker-controlled
    /// input until the blank line arrives).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length`; larger bodies answer 413 before any
    /// body byte is buffered.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1 << 20,
        }
    }
}

/// A parse failure, tagged with the HTTP status it maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Structurally invalid input → 400.
    BadRequest(String),
    /// Head or declared body over the configured limits → 413.
    TooLarge(String),
}

impl HttpError {
    /// The HTTP status code this failure answers with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::TooLarge(_) => 413,
        }
    }

    /// The human-readable detail.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            HttpError::BadRequest(m) | HttpError::TooLarge(m) => m,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status(), self.message())
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method token, verbatim (methods are case-sensitive; an
    /// unknown method is the router's 405, not a parse error).
    pub method: String,
    /// The request target as received (path plus optional query).
    pub target: String,
    /// The path portion of the target.
    pub path: String,
    /// The query string after `?`, if any.
    pub query: Option<String>,
    /// HTTP minor version: 0 for HTTP/1.0, 1 for HTTP/1.1.
    pub version_minor: u8,
    /// Header `(name, value)` pairs; names are lowercased at parse time
    /// so lookup is case-insensitive.
    headers: Vec<(String, String)>,
    /// The body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, looked up case-insensitively.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every header as lowercased `(name, value)` pairs, in order.
    #[must_use]
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection` header overrides either default.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version_minor >= 1,
        }
    }

    /// The body as UTF-8, if it is valid UTF-8.
    #[must_use]
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// The incremental parser; see the module docs.
#[derive(Debug)]
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
}

impl RequestParser {
    /// A fresh parser enforcing `limits`.
    #[must_use]
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
        }
    }

    /// Bytes buffered but not yet consumed by a complete request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a partial request is sitting in the buffer (used by the
    /// server to enforce a deadline on slow or stalled clients).
    #[must_use]
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Drains the next complete request, `Ok(None)` while more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed or oversized input; the connection
    /// should answer with [`HttpError::status`] and close (the buffer
    /// is not recoverable past an error).
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        // Tolerate stray blank lines between pipelined requests.
        let skip = self
            .buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        if skip > 0 {
            self.buf.drain(..skip);
        }
        if self.buf.is_empty() {
            return Ok(None);
        }
        let Some((head_end, body_start)) = find_head_end(&self.buf) else {
            // A head that fits the limit can still be missing the last
            // byte of its `\n\r\n` terminator, one past the limit.
            if self.buf.len() > self.limits.max_head_bytes + 1 {
                return Err(HttpError::TooLarge(format!(
                    "request head exceeds {} bytes",
                    self.limits.max_head_bytes
                )));
            }
            return Ok(None);
        };
        if head_end > self.limits.max_head_bytes {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {} bytes",
                self.limits.max_head_bytes
            )));
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".into()))?;
        let (method, target, version_minor, headers) = parse_head(head)?;
        let declared = content_length(&headers)?;
        if declared > self.limits.max_body_bytes as u128 {
            return Err(HttpError::TooLarge(format!(
                "Content-Length {declared} exceeds {} bytes",
                self.limits.max_body_bytes
            )));
        }
        let body_len = declared as usize;
        let total = body_start + body_len;
        if self.buf.len() < total {
            return Ok(None); // waiting for the rest of the body
        }
        let body = self.buf[body_start..total].to_vec();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.clone(), None),
        };
        self.buf.drain(..total);
        Ok(Some(Request {
            method,
            target,
            path,
            query,
            version_minor,
            headers,
            body,
        }))
    }
}

/// Finds the end of the head: `(head_end, body_start)` where
/// `head_end` includes the final header line's newline and
/// `body_start` is past the blank line. Accepts both `\r\n\r\n` and
/// bare `\n\n` separators.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        if buf.get(i + 1) == Some(&b'\n') {
            return Some((i + 1, i + 2));
        }
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some((i + 1, i + 3));
        }
    }
    None
}

type Head = (String, String, u8, Vec<(String, String)>);

/// Parses the request line and headers out of the head text.
fn parse_head(head: &str) -> Result<Head, HttpError> {
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequest(format!(
            "malformed method `{method}`"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target `{target}` must be origin-form (start with `/`)"
        )));
    }
    let version_minor = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        other => {
            return Err(HttpError::BadRequest(format!(
                "unsupported HTTP version `{other}`"
            )))
        }
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator itself
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::BadRequest(
                "obsolete header line folding is not supported".into(),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line `{line}`"
            )));
        };
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpError::BadRequest(format!(
                "malformed header name `{name}`"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((
        method.to_string(),
        target.to_string(),
        version_minor,
        headers,
    ))
}

/// Resolves `Content-Length`: absent means a zero-length body;
/// duplicates must agree; the value is parsed wide (`u128`) so a huge
/// length reports 413 at the caller instead of a parse failure.
fn content_length(headers: &[(String, String)]) -> Result<u128, HttpError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::BadRequest(
            "Transfer-Encoding is not supported; use Content-Length".into(),
        ));
    }
    let mut found: Option<u128> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let parsed: u128 = v
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("invalid Content-Length `{v}`")))?;
        if let Some(prev) = found {
            if prev != parsed {
                return Err(HttpError::BadRequest(
                    "conflicting Content-Length headers".into(),
                ));
            }
        }
        found = Some(parsed);
    }
    Ok(found.unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> RequestParser {
        RequestParser::new(Limits::default())
    }

    fn one(input: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = parser();
        p.feed(input);
        p.next_request()
    }

    #[test]
    fn parses_a_simple_get() {
        let req = one(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert_eq!(req.query, None);
        assert_eq!(req.version_minor, 1);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn splits_path_and_query() {
        let req = one(b"GET /jobs/7?verbose=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/jobs/7");
        assert_eq!(req.query.as_deref(), Some("verbose=1"));
        assert_eq!(req.target, "/jobs/7?verbose=1");
    }

    #[test]
    fn survives_byte_at_a_time_reads() {
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut p = parser();
        for (i, b) in raw.iter().enumerate() {
            p.feed(&[*b]);
            let out = p.next_request().expect("no error on partial input");
            if i + 1 < raw.len() {
                assert!(out.is_none(), "complete request before byte {i}");
            } else {
                let req = out.expect("complete at final byte");
                assert_eq!(req.body, b"hello");
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn body_split_across_feeds() {
        let mut p = parser();
        p.feed(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
        assert!(p.next_request().unwrap().is_none(), "body incomplete");
        p.feed(b"67890");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.body, b"1234567890");
    }

    #[test]
    fn pipelined_keep_alive_requests_drain_in_order() {
        let mut p = parser();
        p.feed(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
        );
        let a = p.next_request().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("POST", "/jobs"));
        assert_eq!(a.body, b"hi");
        let b = p.next_request().unwrap().unwrap();
        assert_eq!(b.path, "/health");
        let c = p.next_request().unwrap().unwrap();
        assert_eq!(c.path, "/metrics");
        assert!(p.next_request().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = one(b"GET /health HTTP/1.1\nHost: y\n\n").unwrap().unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn leading_blank_lines_are_skipped() {
        let req = one(b"\r\n\r\nGET /health HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/health");
    }

    #[test]
    fn oversized_head_is_413_even_unterminated() {
        let mut p = RequestParser::new(Limits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        });
        // No terminator at all: the parser must bound buffering anyway.
        p.feed(&[b'A'; 100]);
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn head_at_the_limit_parses_byte_at_a_time() {
        // The head ends exactly at the limit; its `\n\r\n` terminator
        // reaches one byte past it.
        let raw = b"GET / HTTP/1.1\r\nX: aaaa\r\n\r\n";
        let mut p = RequestParser::new(Limits {
            max_head_bytes: raw.len() - 2,
            max_body_bytes: 0,
        });
        for b in &raw[..raw.len() - 1] {
            p.feed(&[*b]);
            assert!(p.next_request().unwrap().is_none());
        }
        p.feed(&raw[raw.len() - 1..]);
        assert_eq!(p.next_request().unwrap().unwrap().path, "/");
    }

    #[test]
    fn oversized_terminated_head_is_413() {
        let mut p = RequestParser::new(Limits {
            max_head_bytes: 32,
            max_body_bytes: 1024,
        });
        p.feed(b"GET /x HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status(), 413);
    }

    #[test]
    fn huge_content_length_is_413_not_a_panic() {
        let err = one(b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status(), 413);
        let err = one(b"POST /jobs HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn invalid_content_length_is_400() {
        assert_eq!(
            one(b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(
            one(b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let err = one(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n")
            .unwrap_err();
        assert_eq!(err.status(), 400);
        // Agreeing duplicates are fine.
        let req = one(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let mut p = parser();
        p.feed(b"POST /jobs HTTP/1.1\r\n\r\n{\"type\":\"ping\"}");
        let req = p.next_request().unwrap().unwrap();
        assert!(req.body.is_empty(), "no Content-Length, no body");
        // The stray bytes sit in the buffer as a partial next request;
        // once framed they surface as 400 — never a misread body.
        assert!(p.next_request().unwrap().is_none());
        assert!(p.has_partial());
        p.feed(b"\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status(), 400);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            b"GET /x\r\n\r\n".as_slice(),                   // missing version
            b"GET /x HTTP/1.1 extra\r\n\r\n".as_slice(),    // four tokens
            b"GET  /x HTTP/1.1\r\n\r\n".as_slice(),         // double space
            b"G=T /x HTTP/1.1\r\n\r\n".as_slice(),          // non-token method
            b"GET x HTTP/1.1\r\n\r\n".as_slice(),           // non-origin target
            b"GET /x HTTP/2.0\r\n\r\n".as_slice(),          // unsupported version
            b"\x00\x01\x02 /x HTTP/1.1\r\n\r\n".as_slice(), // binary garbage
            b"GET /x HTTP/1.1\r\nNo colon here\r\n\r\n".as_slice(), // bad header
            b"GET /x HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n".as_slice(), // obs-fold
            b"GET /x HTTP/1.1\r\nBad name: 1\r\n\r\n".as_slice(), // space in name
        ] {
            let err = one(raw).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "input {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn non_utf8_head_is_400() {
        assert_eq!(
            one(b"GET /\xff\xfe HTTP/1.1\r\n\r\n").unwrap_err().status(),
            400
        );
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let err = one(b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn keep_alive_defaults_follow_versions() {
        let v11 = one(b"GET / HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(v11.keep_alive());
        let v11_close = one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!v11_close.keep_alive());
        let v10 = one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!v10.keep_alive());
        let v10_keep = one(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(v10_keep.keep_alive());
    }
}
