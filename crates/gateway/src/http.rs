//! Blocking HTTP/1.1 framing over [`BufRead`]/[`Write`]: adapters that put
//! `faasrail_reactor::http1` — the one parser and encoder of the dialect —
//! behind owned [`Request`]/[`Response`] values, for the threaded server,
//! the pooled client, the fleet console and tests against in-memory
//! buffers. What is accepted, refused and emitted is `http1`'s to say.

/// The codec these functions adapt, for callers that hold their own buffers.
pub use faasrail_reactor::http1;
use http1::{ParseError, ReqHead, RespHead};
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Cap on the total bytes of a request/status line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a framed body.
pub use http1::MAX_BODY_BYTES;

/// The trace-context propagation header: 1–16 lowercase hex digits
/// carrying the client-assigned per-invocation trace id (see
/// `faasrail_telemetry::format_trace_id`). Header name comparison is
/// case-insensitive like any other header.
pub const TRACE_HEADER: &str = "X-FaaSRail-Trace";

/// A parsed inbound HTTP request (server side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Trace id from an `X-FaaSRail-Trace` header; `None` when absent or
    /// unparseable (an opaque header must never fail a request).
    pub trace_id: Option<u64>,
    pub body: Vec<u8>,
}

/// A parsed inbound HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub keep_alive: bool,
    /// Parsed `Retry-After` header (whole seconds), when the server sent
    /// one — a shedding gateway's hint to back off.
    pub retry_after: Option<u64>,
    /// The `Content-Type` header verbatim, when present — lets clients
    /// (and tests) distinguish `application/json` bodies from the
    /// Prometheus text format's versioned media type.
    pub content_type: Option<String>,
    pub body: Vec<u8>,
}

/// The trace id a request head carries. A malformed id reads as `None`:
/// tracing is observability, never a reason to refuse a request.
pub(crate) fn trace_id(buf: &[u8], head: &ReqHead) -> Option<u64> {
    let value = std::str::from_utf8(&buf[head.trace.clone()?]).ok()?;
    faasrail_telemetry::parse_trace_id(value)
}

/// Pull one framed message off `r`: its parsed head and exactly its
/// `total_len` bytes, so a pipelined successor stays in the reader.
/// `Ok(None)` is EOF before the first byte; EOF any later is
/// `UnexpectedEof`, and a head the parser refuses is `InvalidData`.
fn read_message<R: BufRead, H>(
    r: &mut R,
    parse: fn(&[u8], usize) -> Result<Option<H>, ParseError>,
    total_len: fn(&H) -> usize,
) -> io::Result<Option<(H, Vec<u8>)>> {
    let mut msg = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return if msg.is_empty() { Ok(None) } else { Err(ErrorKind::UnexpectedEof.into()) };
        }
        let before = msg.len();
        msg.extend_from_slice(chunk);
        match parse(&msg, MAX_HEAD_BYTES) {
            Ok(Some(head)) => {
                // The head ends in this chunk (no earlier one held its
                // blank line), so `total > before`.
                let total = total_len(&head);
                let have = msg.len().min(total);
                r.consume(have - before);
                msg.resize(total, 0);
                r.read_exact(&mut msg[have..])?;
                return Ok(Some((head, msg)));
            }
            Ok(None) => r.consume(msg.len() - before),
            Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
        }
    }
}

pub(crate) fn text(msg: &[u8], range: Range<usize>) -> String {
    String::from_utf8_lossy(&msg[range]).into_owned()
}

/// Parse one request off the connection. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive shutdown).
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let Some((head, mut msg)) = read_message(r, http1::parse_request, ReqHead::total_len)? else {
        return Ok(None);
    };
    let method = text(&msg, head.method.clone());
    let path = text(&msg, head.path.clone());
    let trace_id = trace_id(&msg, &head);
    msg.drain(..head.head_len);
    Ok(Some(Request { method, path, keep_alive: head.keep_alive, trace_id, body: msg }))
}

/// Parse one response off the connection (client side).
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let (head, mut msg) = read_message(r, http1::parse_response, RespHead::total_len)?
        .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "EOF before status line"))?;
    let content_type = head.content_type.clone().map(|range| text(&msg, range));
    msg.drain(..head.head_len);
    Ok(Response {
        status: head.status,
        keep_alive: head.keep_alive,
        retry_after: head.retry_after,
        content_type,
        body: msg,
    })
}

/// A socket as a blocking server's request parser reads it, under two read
/// budgets: `idle` while no byte of the next request has arrived, and from
/// its first byte on whatever is left of `head` (if that is less), so a peer
/// dribbling a request holds its thread no longer than `head`, however
/// often it sends a byte. A request that arrives in one read — the usual
/// case — never touches the socket's timeout.
pub struct RequestClock<'a> {
    stream: &'a TcpStream,
    idle: Duration,
    head: Duration,
    /// When the request being read got its first byte.
    started: Option<Instant>,
    /// The timeout the socket carries now (zero: none set yet).
    armed: Duration,
}

impl<'a> RequestClock<'a> {
    pub fn new(stream: &'a TcpStream, idle: Duration, head: Duration) -> RequestClock<'a> {
        RequestClock { stream, idle, head, started: None, armed: Duration::ZERO }
    }

    /// Time the next request: from now if `begun` (some of it is already
    /// buffered, pipelined behind the last), else from its first byte.
    pub fn next_request(&mut self, begun: bool) {
        self.started = begun.then(Instant::now);
    }
}

impl Read for RequestClock<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = match self.started {
            None => self.idle,
            Some(started) => self.head.saturating_sub(started.elapsed()).min(self.idle),
        };
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        if left != self.armed {
            self.stream.set_read_timeout(Some(left))?;
            self.armed = left;
        }
        let n = (&mut &*self.stream).read(buf)?;
        if n > 0 && self.started.is_none() {
            self.started = Some(Instant::now());
        }
        Ok(n)
    }
}

/// Canonical reason phrases for the statuses the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// The body staged behind its head, then one `write`. A `TCP_NODELAY` socket
/// sends what each `write` hands it at once, so head and body written apart
/// travel as two segments and wake the reader twice. (A second `write`
/// happens only when the socket takes part of the message.)
fn write_message<W: Write>(w: &mut W, mut head: Vec<u8>, body: &[u8]) -> io::Result<()> {
    head.extend_from_slice(body);
    w.write_all(&head)?;
    w.flush()
}

/// Serialize a response with `Content-Length` framing.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(w, status, content_type, &[], body, keep_alive)
}

/// [`write_response`], with extra headers (e.g. `Retry-After` on a `429`).
pub fn write_response_with<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = Vec::with_capacity(128 + body.len());
    let reason = status_reason(status);
    http1::write_response_head(
        &mut head,
        status,
        reason,
        content_type,
        body.len(),
        keep_alive,
        extra_headers,
    )?;
    write_message(w, head, body)
}

/// Serialize a request with `Content-Length` framing (client side).
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    host: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_request_with(w, method, path, host, content_type, &[], body, keep_alive)
}

/// [`write_request`], with extra headers (e.g. `X-FaaSRail-Trace`).
#[allow(clippy::too_many_arguments)]
pub fn write_request_with<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    host: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = Vec::with_capacity(192 + body.len());
    http1::write_request_head(
        &mut head,
        method,
        path,
        host,
        content_type,
        body.len(),
        keep_alive,
        extra_headers,
    )?;
    write_message(w, head, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse_req(bytes: &[u8]) -> io::Result<Option<Request>> {
        read_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /invoke HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse_req(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/invoke");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = parse_req(raw).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
        assert!(!req.keep_alive);
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        assert!(!parse_req(raw).unwrap().unwrap().keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse_req(raw).unwrap().unwrap().keep_alive);
    }

    #[test]
    fn clean_eof_is_none_partial_is_error() {
        assert!(parse_req(b"").unwrap().is_none(), "EOF before any byte");
        assert!(parse_req(b"POST /invoke HTTP/1.1\r\nContent-").is_err(), "EOF mid-headers");
        assert!(
            parse_req(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err(),
            "EOF mid-body"
        );
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_req(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_req(b"GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n").is_err());
    }

    #[test]
    fn enforces_head_budget() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; MAX_HEAD_BYTES + 10]);
        raw.extend(b"\r\n\r\n");
        assert!(parse_req(&raw).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.keep_alive);
        assert_eq!(resp.content_type.as_deref(), Some("application/json"));
        assert_eq!(resp.body, b"{\"ok\":true}");
    }

    #[test]
    fn content_type_roundtrips_verbatim_including_parameters() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "text/plain; version=0.0.4", b"x 1\n", true).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.content_type.as_deref(), Some("text/plain; version=0.0.4"));
        // Absent header parses to None.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.content_type, None);
    }

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        write_request(&mut buf, "POST", "/invoke", "127.0.0.1:80", "application/json", b"{}", true)
            .unwrap();
        let req = read_request(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/invoke");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive);
    }

    #[test]
    fn close_response_signals_no_reuse() {
        let mut buf = Vec::new();
        write_response(&mut buf, 500, "text/plain", b"injected", false).unwrap();
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 500);
        assert!(!resp.keep_alive);
        assert_eq!(resp.body, b"injected");
    }

    #[test]
    fn two_pipelined_requests_parse_in_sequence() {
        let mut raw = Vec::new();
        write_request(&mut raw, "POST", "/invoke", "h", "application/json", b"one", true).unwrap();
        write_request(&mut raw, "POST", "/invoke", "h", "application/json", b"two", false).unwrap();
        let mut cur = Cursor::new(raw);
        let a = read_request(&mut cur).unwrap().unwrap();
        let b = read_request(&mut cur).unwrap().unwrap();
        assert_eq!(a.body, b"one");
        assert_eq!(b.body, b"two");
        assert!(read_request(&mut cur).unwrap().is_none(), "then clean EOF");
    }

    #[test]
    fn retry_after_header_roundtrips() {
        let mut buf = Vec::new();
        write_response_with(&mut buf, 429, "text/plain", &[("Retry-After", "2")], b"shed", false)
            .unwrap();
        let head = String::from_utf8_lossy(&buf).to_string();
        assert!(head.contains("429 Too Many Requests"), "{head}");
        assert!(head.contains("Retry-After: 2\r\n"), "{head}");
        let resp = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(2));
        assert!(!resp.keep_alive);
        assert_eq!(resp.body, b"shed");
    }

    #[test]
    fn retry_after_absent_or_http_date_is_none() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "text/plain", b"ok", true).unwrap();
        assert_eq!(read_response(&mut Cursor::new(buf)).unwrap().retry_after, None);
        // The HTTP-date form is tolerated but not interpreted.
        let raw = b"HTTP/1.1 503 x\r\nRetry-After: Wed, 21 Oct 2015 07:28:00 GMT\r\n\
                    Content-Length: 0\r\n\r\n";
        assert_eq!(read_response(&mut Cursor::new(raw.to_vec())).unwrap().retry_after, None);
    }

    #[test]
    fn trace_header_roundtrips_and_is_case_insensitive() {
        let mut buf = Vec::new();
        write_request_with(
            &mut buf,
            "POST",
            "/invoke",
            "h",
            "application/json",
            &[(TRACE_HEADER, "00000000deadbeef")],
            b"{}",
            true,
        )
        .unwrap();
        let head = String::from_utf8_lossy(&buf).to_string();
        assert!(head.contains("X-FaaSRail-Trace: 00000000deadbeef\r\n"), "{head}");
        let req = parse_req(&buf).unwrap().unwrap();
        assert_eq!(req.trace_id, Some(0xdead_beef));

        let raw = b"POST /invoke HTTP/1.1\r\nx-faasrail-trace: ff\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_req(raw).unwrap().unwrap().trace_id, Some(0xff));
    }

    #[test]
    fn absent_or_malformed_trace_header_is_none_not_an_error() {
        let raw = b"POST /invoke HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_req(raw).unwrap().unwrap().trace_id, None);
        // Garbage ids never fail the request — tracing is best-effort.
        let raw =
            b"POST /invoke HTTP/1.1\r\nX-FaaSRail-Trace: not-hex\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_req(raw).unwrap().unwrap().trace_id, None);
    }

    /// Counts `write` calls and takes at most `limit` bytes in each.
    struct CountingWriter {
        calls: usize,
        limit: usize,
        bytes: Vec<u8>,
    }

    impl CountingWriter {
        fn taking(limit: usize) -> CountingWriter {
            CountingWriter { calls: 0, limit, bytes: Vec::new() }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.limit);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn request_into<W: Write>(w: &mut W, body: &[u8]) {
        let trace = [(TRACE_HEADER, "00000000deadbeef")];
        write_request_with(w, "POST", "/invoke", "h", "application/json", &trace, body, true)
            .unwrap();
    }

    fn response_into<W: Write>(w: &mut W, body: &[u8]) {
        write_response_with(w, 429, "text/plain", &[("Retry-After", "2")], body, false).unwrap();
    }

    #[test]
    fn a_message_of_any_size_is_one_write() {
        for len in [0, 200, 1 << 20] {
            let body = vec![b'x'; len];
            let mut w = CountingWriter::taking(usize::MAX);
            request_into(&mut w, &body);
            assert_eq!(w.calls, 1, "request with a {len}-byte body");
            assert_eq!(read_request(&mut Cursor::new(w.bytes)).unwrap().unwrap().body, body);

            let mut w = CountingWriter::taking(usize::MAX);
            response_into(&mut w, &body);
            assert_eq!(w.calls, 1, "response with a {len}-byte body");
            assert_eq!(read_response(&mut Cursor::new(w.bytes)).unwrap().body, body);
        }
    }

    #[test]
    fn a_short_writing_socket_still_gets_every_byte() {
        let body = vec![b'y'; 200];
        let (mut whole, mut dribbled) = (Vec::new(), CountingWriter::taking(7));
        request_into(&mut whole, &body);
        request_into(&mut dribbled, &body);
        assert_eq!(dribbled.bytes, whole);
        assert_eq!(dribbled.calls, whole.len().div_ceil(7));

        let (mut whole, mut dribbled) = (Vec::new(), CountingWriter::taking(7));
        response_into(&mut whole, &body);
        response_into(&mut dribbled, &body);
        assert_eq!(dribbled.bytes, whole);
    }

    #[test]
    fn eof_before_status_line_is_unexpected_eof() {
        let err = read_response(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
