//! A one-shot blocking HTTP/1.1 client.
//!
//! Small on purpose: one request per connection (`Connection: close`),
//! read to EOF, return `(status, body)`. It backs `ssim submit --url`,
//! the integration tests, and the CI smoke probe — places where a full
//! client stack would be overkill but hand-rolled socket code would be
//! repeated four times.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Splits `http://host:port[/base]` (the scheme is optional) into
/// `(authority, base_path)`; the base path has no trailing slash.
///
/// # Errors
///
/// `InvalidInput` when no authority is present.
pub fn split_url(url: &str) -> std::io::Result<(String, String)> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (authority, base) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, ""),
    };
    if authority.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("URL `{url}` has no host"),
        ));
    }
    Ok((
        authority.to_string(),
        base.trim_end_matches('/').to_string(),
    ))
}

/// Performs one HTTP request and returns `(status, body)`. A body, when
/// given, is sent as `application/json` with its `Content-Length`.
///
/// # Errors
///
/// Propagates socket errors; `InvalidData` when the response cannot be
/// framed as HTTP.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let path = if path.is_empty() { "/" } else { path };
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(body) = body {
        head.push_str("Content-Type: application/json\r\n");
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    // Head and body leave in one write, so Nagle never holds the body
    // back waiting on the server's ACK of the head.
    let mut message = head.into_bytes();
    message.extend_from_slice(body.unwrap_or_default());
    stream.write_all(&message)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn bad(msg: &str) -> Error {
    Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// Splits a full response read to EOF into `(status, body)`.
fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_urls() {
        assert_eq!(
            split_url("http://127.0.0.1:8080").unwrap(),
            ("127.0.0.1:8080".into(), String::new())
        );
        assert_eq!(
            split_url("127.0.0.1:8080/").unwrap(),
            ("127.0.0.1:8080".into(), String::new())
        );
        assert_eq!(
            split_url("http://h:1/base/").unwrap(),
            ("h:1".into(), "/base".into())
        );
        assert!(split_url("http:///jobs").is_err());
    }

    #[test]
    fn parses_responses() {
        let (status, body) =
            parse_response(b"HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, b"ok");
        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"HTTP/1.1 nope\r\n\r\n").is_err());
    }
}
