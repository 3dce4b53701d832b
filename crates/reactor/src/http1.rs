//! Incremental, zero-allocation HTTP/1.1 head parsing and encoding.
//!
//! Unlike a `BufRead`-based parser, these functions operate on the bytes a
//! [`crate::buf::ReadBuf`] has accumulated so far and either return a parsed
//! head (as byte *ranges* into the buffer — nothing is copied), report that
//! more bytes are needed, or reject the input. Encoding writes straight
//! into an [`io::Write`] sink (a [`crate::buf::WriteBuf`] in practice) with
//! integers formatted on the stack, so neither direction allocates on the
//! per-request hot path.
//!
//! This is the workspace's only parser and encoder of the dialect (the
//! blocking `BufRead`/`Write` functions in `faasrail_gateway::http` are
//! adapters over it): `Content-Length` framing only, capped at
//! [`MAX_BODY_BYTES`]; integers are plain ASCII digits (no sign); header
//! values are opaque bytes, never required to be UTF-8; `Connection`
//! keep-alive negotiation with HTTP/1.0 defaulting to close; unknown
//! headers are skipped.

use std::fmt;
use std::io::{self, Write};
use std::ops::Range;

/// Cap on a framed body: a head announcing more is refused, so no peer
/// can make a reader buffer without bound.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why a head failed to parse. Its `Display` text is what the servers put
/// after `bad request: ` in a `400` body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Bad request line, bad header syntax, or an unsupported version.
    Malformed,
    /// The head exceeded the caller's size budget before terminating.
    TooLarge,
    /// `Content-Length` present but not a decimal integer.
    BadContentLength,
    /// `Content-Length` beyond [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseError::Malformed => "malformed head",
            ParseError::TooLarge => "header section too large",
            ParseError::BadContentLength => "bad content-length",
            ParseError::BodyTooLarge => "body too large",
        })
    }
}

impl std::error::Error for ParseError {}

/// A parsed request head. All ranges index into the buffer passed to
/// [`parse_request`]; `head_len` bytes (through the blank line) precede the
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqHead {
    pub head_len: usize,
    pub method: Range<usize>,
    pub path: Range<usize>,
    pub content_length: usize,
    pub keep_alive: bool,
    /// Value bytes of an `X-FaaSRail-Trace` header, when present.
    pub trace: Option<Range<usize>>,
}

impl ReqHead {
    /// Total bytes this request occupies in the buffer (head + body).
    pub fn total_len(&self) -> usize {
        self.head_len + self.content_length
    }

    pub fn body_range(&self) -> Range<usize> {
        self.head_len..self.total_len()
    }
}

/// A parsed response head (client side of the protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespHead {
    pub head_len: usize,
    pub status: u16,
    pub content_length: usize,
    pub keep_alive: bool,
    /// `Retry-After` in whole seconds (delta-seconds form only).
    pub retry_after: Option<u64>,
    /// Value bytes of the `Content-Type` header, when present.
    pub content_type: Option<Range<usize>>,
}

impl RespHead {
    pub fn total_len(&self) -> usize {
        self.head_len + self.content_length
    }

    pub fn body_range(&self) -> Range<usize> {
        self.head_len..self.total_len()
    }
}

/// Locate the end of the head: the byte offset just past the blank line.
/// Lines are `\n`-terminated with an optional `\r`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    while let Some(nl) = memchr(b'\n', &buf[line_start..]) {
        let line_end = line_start + nl;
        let line = trim_cr(&buf[line_start..line_end]);
        if line.is_empty() && line_start > 0 {
            return Some(line_end + 1);
        }
        line_start = line_end + 1;
    }
    None
}

/// Where the first line and the whole head end (the offset of the first
/// `\n`, the offset just past the blank line), once both are within
/// `max_head` bytes; `None` while more bytes are needed.
fn head_extent(buf: &[u8], max_head: usize) -> Result<Option<(usize, usize)>, ParseError> {
    match find_head_end(buf) {
        Some(end) if end <= max_head => Ok(memchr(b'\n', buf).map(|nl| (nl, end))),
        Some(_) => Err(ParseError::TooLarge),
        None if buf.len() > max_head => Err(ParseError::TooLarge),
        None => Ok(None),
    }
}

fn memchr(needle: u8, haystack: &[u8]) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    }
}

fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = s {
        s = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = s {
        s = rest;
    }
    s
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_ascii_lowercase() == *y)
}

fn contains_token(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    (0..=haystack.len() - needle.len())
        .any(|i| eq_ignore_case(&haystack[i..i + needle.len()], needle))
}

fn parse_usize(s: &[u8]) -> Option<usize> {
    if s.is_empty() || s.len() > 19 {
        return None;
    }
    let mut n: usize = 0;
    for &b in s {
        if !b.is_ascii_digit() {
            return None;
        }
        n = n.checked_mul(10)?.checked_add((b - b'0') as usize)?;
    }
    Some(n)
}

/// Shared header fields both directions care about.
struct HeaderInfo {
    content_length: usize,
    keep_alive: bool,
    retry_after: Option<u64>,
    content_type: Option<Range<usize>>,
    trace: Option<Range<usize>>,
}

fn parse_headers(
    buf: &[u8],
    mut line_start: usize,
    head_end: usize,
    version_keep_alive: bool,
) -> Result<HeaderInfo, ParseError> {
    let mut info = HeaderInfo {
        content_length: 0,
        keep_alive: version_keep_alive,
        retry_after: None,
        content_type: None,
        trace: None,
    };
    while line_start < head_end {
        let nl = memchr(b'\n', &buf[line_start..head_end]).ok_or(ParseError::Malformed)?;
        let line_end = line_start + nl;
        let line = trim_cr(&buf[line_start..line_end]);
        if line.is_empty() {
            return Ok(info);
        }
        let colon = memchr(b':', line).ok_or(ParseError::Malformed)?;
        let name = trim_ascii(&line[..colon]);
        let value = trim_ascii(&line[colon + 1..]);
        // Kept as a range; the caller decides how to decode it.
        let value_range = || {
            let off = line_start + offset_of(line, value);
            Some(off..off + value.len())
        };
        // Most common first, and measurably so: with `content-type` tried
        // fourth, a five-header request head parsed a fifth slower.
        if eq_ignore_case(name, b"content-length") {
            info.content_length = parse_usize(value).ok_or(ParseError::BadContentLength)?;
            if info.content_length > MAX_BODY_BYTES {
                return Err(ParseError::BodyTooLarge);
            }
        } else if eq_ignore_case(name, b"content-type") {
            info.content_type = value_range();
        } else if eq_ignore_case(name, b"connection") {
            if contains_token(value, b"close") {
                info.keep_alive = false;
            } else if contains_token(value, b"keep-alive") {
                info.keep_alive = true;
            }
        } else if eq_ignore_case(name, b"x-faasrail-trace") {
            info.trace = value_range();
        } else if eq_ignore_case(name, b"retry-after") {
            info.retry_after = parse_usize(value).map(|n| n as u64);
        }
        line_start = line_end + 1;
    }
    Err(ParseError::Malformed)
}

/// Byte offset of subslice `inner` within `outer` (both from the same
/// buffer; `trim_ascii` only shrinks, so containment is guaranteed).
fn offset_of(outer: &[u8], inner: &[u8]) -> usize {
    inner.as_ptr() as usize - outer.as_ptr() as usize
}

/// Try to parse one request head from `buf`.
///
/// * `Ok(Some(head))` — a complete head; the body may still be partial
///   (compare [`ReqHead::total_len`] with the bytes on hand).
/// * `Ok(None)` — incomplete; read more bytes.
/// * `Err(TooLarge)` — no terminator within `max_head` bytes.
pub fn parse_request(buf: &[u8], max_head: usize) -> Result<Option<ReqHead>, ParseError> {
    let Some((nl, head_end)) = head_extent(buf, max_head)? else { return Ok(None) };
    let line = trim_cr(&buf[..nl]);
    let mut fields = line
        .split(|&b| b == b' ' || b == b'\t')
        .filter(|f| !f.is_empty())
        .map(|f| offset_of(line, f)..offset_of(line, f) + f.len());
    let (Some(method), Some(path), Some(version)) = (fields.next(), fields.next(), fields.next())
    else {
        return Err(ParseError::Malformed);
    };
    let version_bytes = &buf[version.clone()];
    if !version_bytes.starts_with(b"HTTP/1.") {
        return Err(ParseError::Malformed);
    }
    let version_keep_alive = version_bytes != b"HTTP/1.0";
    let info = parse_headers(buf, nl + 1, head_end, version_keep_alive)?;
    Ok(Some(ReqHead {
        head_len: head_end,
        method,
        path,
        content_length: info.content_length,
        keep_alive: info.keep_alive,
        trace: info.trace,
    }))
}

/// Try to parse one response head from `buf` (client side). Same contract
/// as [`parse_request`].
pub fn parse_response(buf: &[u8], max_head: usize) -> Result<Option<RespHead>, ParseError> {
    let Some((nl, head_end)) = head_extent(buf, max_head)? else { return Ok(None) };
    let line = trim_cr(&buf[..nl]);
    let mut fields = line.split(|&b| b == b' ' || b == b'\t').filter(|f| !f.is_empty());
    let (Some(version), Some(code)) = (fields.next(), fields.next()) else {
        return Err(ParseError::Malformed);
    };
    if !version.starts_with(b"HTTP/1.") {
        return Err(ParseError::Malformed);
    }
    let status =
        parse_usize(code).and_then(|n| u16::try_from(n).ok()).ok_or(ParseError::Malformed)?;
    let version_keep_alive = version != b"HTTP/1.0";
    let info = parse_headers(buf, nl + 1, head_end, version_keep_alive)?;
    Ok(Some(RespHead {
        head_len: head_end,
        status,
        content_length: info.content_length,
        keep_alive: info.keep_alive,
        retry_after: info.retry_after,
        content_type: info.content_type,
    }))
}

/// Write `n` in decimal without allocating.
pub fn write_decimal<W: Write>(w: &mut W, n: u64) -> io::Result<()> {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_all(&digits[i..])
}

fn write_common_tail<W: Write>(
    w: &mut W,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    w.write_all(b"Content-Type: ")?;
    w.write_all(content_type.as_bytes())?;
    w.write_all(b"\r\nContent-Length: ")?;
    write_decimal(w, content_length as u64)?;
    w.write_all(b"\r\nConnection: ")?;
    w.write_all(if keep_alive { b"keep-alive".as_slice() } else { b"close".as_slice() })?;
    w.write_all(b"\r\n")?;
    for (name, value) in extra_headers {
        w.write_all(name.as_bytes())?;
        w.write_all(b": ")?;
        w.write_all(value.as_bytes())?;
        w.write_all(b"\r\n")?;
    }
    w.write_all(b"\r\n")
}

/// Encode a response head (status line + framing headers) into `w`.
/// The caller appends exactly `content_length` body bytes afterwards.
pub fn write_response_head<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    w.write_all(b"HTTP/1.1 ")?;
    write_decimal(w, u64::from(status))?;
    w.write_all(b" ")?;
    w.write_all(reason.as_bytes())?;
    w.write_all(b"\r\n")?;
    write_common_tail(w, content_type, content_length, keep_alive, extra_headers)
}

/// Encode a request head into `w`; the caller appends the body.
#[allow(clippy::too_many_arguments)]
pub fn write_request_head<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    host: &str,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    w.write_all(method.as_bytes())?;
    w.write_all(b" ")?;
    w.write_all(path.as_bytes())?;
    w.write_all(b" HTTP/1.1\r\nHost: ")?;
    w.write_all(host.as_bytes())?;
    w.write_all(b"\r\n")?;
    write_common_tail(w, content_type, content_length, keep_alive, extra_headers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_request_parses_once_complete() {
        let raw = b"POST /invoke HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        // Every strict prefix of the head is "need more".
        for cut in 0..raw.len() - 6 {
            assert_eq!(parse_request(&raw[..cut], 16384), Ok(None), "cut={cut}");
        }
        let head = parse_request(raw, 16384).unwrap().unwrap();
        assert_eq!(&raw[head.method.clone()], b"POST");
        assert_eq!(&raw[head.path.clone()], b"/invoke");
        assert_eq!(head.content_length, 5);
        assert!(head.keep_alive);
        assert_eq!(&raw[head.body_range()], b"hello");
        assert_eq!(head.total_len(), raw.len());
    }

    #[test]
    fn connection_and_version_defaults_match_the_blocking_parser() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse_request(raw, 16384).unwrap().unwrap().keep_alive);
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!parse_request(raw, 16384).unwrap().unwrap().keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse_request(raw, 16384).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_inputs_are_rejected_not_deferred() {
        assert_eq!(parse_request(b"NOT-HTTP\r\n\r\n", 16384), Err(ParseError::Malformed));
        assert_eq!(parse_request(b"GET / SPDY/3\r\n\r\n", 16384), Err(ParseError::Malformed));
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n", 16384),
            Err(ParseError::Malformed)
        );
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n", 16384),
            Err(ParseError::BadContentLength)
        );
    }

    #[test]
    fn oversized_head_is_too_large_with_and_without_terminator() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(vec![b'a'; 64]);
        // Unterminated and past budget.
        assert_eq!(parse_request(&raw, 32), Err(ParseError::TooLarge));
        // Terminated but past budget.
        raw.extend(b"\r\n\r\n");
        assert_eq!(parse_request(&raw, 32), Err(ParseError::TooLarge));
    }

    #[test]
    fn trace_header_range_and_pipelined_second_request() {
        let raw = b"POST /invoke HTTP/1.1\r\nX-FaaSRail-Trace: 00ff\r\nContent-Length: 3\r\n\r\n\
                    oneGET /stats HTTP/1.1\r\n\r\n";
        let a = parse_request(raw, 16384).unwrap().unwrap();
        assert_eq!(&raw[a.trace.clone().unwrap()], b"00ff");
        assert_eq!(&raw[a.body_range()], b"one");
        let rest = &raw[a.total_len()..];
        let b = parse_request(rest, 16384).unwrap().unwrap();
        assert_eq!(&rest[b.path.clone()], b"/stats");
        assert_eq!(b.content_length, 0);
    }

    #[test]
    fn response_head_roundtrips_through_the_encoder() {
        let mut buf = Vec::new();
        write_response_head(
            &mut buf,
            429,
            "Too Many Requests",
            "text/plain",
            4,
            false,
            &[("Retry-After", "1")],
        )
        .unwrap();
        buf.extend_from_slice(b"shed");
        let head = parse_response(&buf, 16384).unwrap().unwrap();
        assert_eq!(head.status, 429);
        assert_eq!(head.content_length, 4);
        assert!(!head.keep_alive);
        assert_eq!(head.retry_after, Some(1));
        assert_eq!(&buf[head.body_range()], b"shed");
    }

    #[test]
    fn request_head_encoder_is_parseable_by_the_request_parser() {
        let mut buf = Vec::new();
        write_request_head(
            &mut buf,
            "POST",
            "/invoke",
            "h:1",
            "application/json",
            2,
            true,
            &[("X-FaaSRail-Trace", "deadbeef")],
        )
        .unwrap();
        buf.extend_from_slice(b"{}");
        let head = parse_request(&buf, 16384).unwrap().unwrap();
        assert_eq!(&buf[head.method.clone()], b"POST");
        assert_eq!(&buf[head.trace.clone().unwrap()], b"deadbeef");
        assert_eq!(&buf[head.body_range()], b"{}");
        assert!(head.keep_alive);
    }

    #[test]
    fn write_decimal_covers_edge_values() {
        for n in [0u64, 7, 10, 999, 10_000, u64::MAX] {
            let mut out = Vec::new();
            write_decimal(&mut out, n).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }
}
