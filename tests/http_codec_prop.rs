//! Differential properties of the one HTTP/1.1 codec and its blocking
//! adapters (ROADMAP 6a): whatever bytes arrive, however the reader chunks
//! them, `gateway::http::read_request` / `read_response` say what
//! `http1::parse_request` / `parse_response` say about the whole buffer —
//! same verdict, same fields, exactly `total_len` bytes taken — and what
//! `write_*` emits, `read_*` reads back.

use faasrail::gateway::http::{self, http1, MAX_HEAD_BYTES};
use faasrail::telemetry::parse_trace_id;
use proptest::prelude::*;
use std::io::{self, BufRead, ErrorKind, Read};

/// A reader that hands its bytes out in chunks of the given sizes (cycled).
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    /// Bytes consumed so far.
    pos: usize,
    /// End of the chunk on offer.
    end: usize,
    chunks: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], sizes: &'a [usize]) -> Chunked<'a> {
        Chunked { data, sizes, pos: 0, end: 0, chunks: 0 }
    }
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end {
            let size = self.sizes[self.chunks % self.sizes.len()].max(1);
            self.chunks += 1;
            self.end = self.data.len().min(self.pos.saturating_add(size));
        }
        Ok(&self.data[self.pos..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        assert!(self.pos <= self.end, "consumed past the chunk on offer");
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

fn lossy(buf: &[u8], range: std::ops::Range<usize>) -> String {
    String::from_utf8_lossy(&buf[range]).into_owned()
}

fn pick(options: &[&str]) -> BoxedStrategy<Vec<u8>> {
    let options: Vec<Vec<u8>> = options.iter().map(|o| o.as_bytes().to_vec()).collect();
    prop::sample::select(options).boxed()
}

fn bytes(max: usize) -> BoxedStrategy<Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max).boxed()
}

/// One header line's name and value, from the names the codec knows, the
/// values it must refuse or ignore, and noise.
fn arb_header(body_len: usize) -> BoxedStrategy<(Vec<u8>, Vec<u8>)> {
    let (exact, more) = (body_len.to_string(), (body_len + 100).to_string());
    let content_length =
        pick(&[&exact, &exact, &exact, &more, "+5", "5 5", "lots", "", "99999999999"]);
    prop_oneof![
        4 => (pick(&["Content-Length", "content-length", "CONTENT-LENGTH "]), content_length),
        2 => (pick(&["Connection"]), pick(&["close", "keep-alive", "Keep-Alive, x", "upgrade"])),
        2 => (pick(&["X-FaaSRail-Trace", "x-faasrail-trace"]), pick(&["deadbeef", "zz", "0", ""])),
        1 => (pick(&["Retry-After"]), pick(&["1", "+3", "120", "Wed, 21 Oct 2015 07:28:00 GMT"])),
        1 => (pick(&["Content-Type"]), pick(&["application/json", "text/plain; version=0.0.4"])),
        2 => (pick(&["Host", "X-Noise", "no colon here"]), bytes(24)),
        // A head near the size budget, on either side of it.
        1 => (pick(&["X-Pad"]), (MAX_HEAD_BYTES - 200..MAX_HEAD_BYTES + 200)
            .prop_map(|n| vec![b'a'; n])),
    ]
    .boxed()
}

/// A message that is mostly well-formed: a first line, header lines, a
/// body, then whatever follows on the connection; and sometimes one byte of
/// it is overwritten, or the tail is cut off.
fn arb_message(first_lines: &'static [&'static str]) -> BoxedStrategy<Vec<u8>> {
    (bytes(40), pick(&["\r\n", "\r\n", "\n"]), bytes(60), 0usize..4)
        .prop_flat_map(move |(body, eol, tail, headers)| {
            let head = (
                pick(first_lines),
                prop::collection::vec(arb_header(body.len()), headers..headers + 1),
            );
            let damage = (any::<bool>(), any::<u16>(), any::<u8>(), 0usize..8);
            (head, damage).prop_map(move |((first, headers), (hit, at, with, cut))| {
                let mut msg = first;
                msg.extend_from_slice(&eol);
                for (name, value) in headers {
                    msg.extend_from_slice(&name);
                    msg.extend_from_slice(b": ");
                    msg.extend_from_slice(&value);
                    msg.extend_from_slice(&eol);
                }
                msg.extend_from_slice(&eol);
                msg.extend_from_slice(&body);
                msg.extend_from_slice(&tail);
                if hit {
                    let at = at as usize % msg.len();
                    msg[at] = with;
                }
                if cut == 0 {
                    msg.truncate(msg.len() * 2 / 3);
                }
                msg
            })
        })
        .boxed()
}

fn arb_input(first_lines: &'static [&'static str]) -> BoxedStrategy<Vec<u8>> {
    prop_oneof![6 => arb_message(first_lines), 1 => bytes(200)].boxed()
}

fn arb_chunking() -> BoxedStrategy<Vec<usize>> {
    prop_oneof![
        Just(vec![1]),
        Just(vec![usize::MAX]),
        prop::collection::vec(1usize..64, 1..6),
        prop::collection::vec(1usize..20_000, 1..4),
    ]
    .boxed()
}

const REQUEST_LINES: &[&str] = &[
    "POST /invoke HTTP/1.1",
    "GET /healthz HTTP/1.1",
    "GET  /stats\tHTTP/1.0",
    "GET /metrics HTTP/1.",
    "GET / SPDY/3",
    "THIS IS NOT HTTP",
    "GET",
    "",
];

const STATUS_LINES: &[&str] = &[
    "HTTP/1.1 200 OK",
    "HTTP/1.1 429 Too Many Requests",
    "HTTP/1.0 500 x",
    "HTTP/1.1 99999 Large",
    "HTTP/1.1 +200 OK",
    "HTTP/2 200 OK",
    "HTTP/1.1",
    "",
];

/// What the adapter must report for a buffer the parser did not turn into
/// one whole message.
fn expect_failure<T: std::fmt::Debug>(
    got: io::Result<Option<T>>,
    whole: Result<bool, http1::ParseError>,
    empty: bool,
) -> Result<(), TestCaseError> {
    match whole {
        Err(refused) => {
            let err = got.expect_err("the parser refused this head");
            prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
            prop_assert_eq!(err.to_string(), refused.to_string());
        }
        Ok(_) if empty => prop_assert!(matches!(got, Ok(None)), "clean EOF, got {:?}", got),
        Ok(_) => {
            let err = got.expect_err("the message is cut short");
            prop_assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn read_request_agrees_with_parse_request(
        buf in arb_input(REQUEST_LINES),
        sizes in arb_chunking(),
    ) {
        let mut reader = Chunked::new(&buf, &sizes);
        let got = http::read_request(&mut reader);
        match http1::parse_request(&buf, MAX_HEAD_BYTES) {
            Ok(Some(head)) if buf.len() >= head.total_len() => {
                let req = got.expect("a whole request").expect("not EOF");
                prop_assert_eq!(reader.pos, head.total_len(), "bytes taken from the reader");
                prop_assert_eq!(req.method, lossy(&buf, head.method.clone()));
                prop_assert_eq!(req.path, lossy(&buf, head.path.clone()));
                prop_assert_eq!(&req.body[..], &buf[head.body_range()]);
                prop_assert_eq!(req.keep_alive, head.keep_alive);
                let trace = head.trace.and_then(|r| parse_trace_id(&lossy(&buf, r)));
                prop_assert_eq!(req.trace_id, trace);
            }
            whole => expect_failure(got, whole.map(|head| head.is_some()), buf.is_empty())?,
        }
    }

    #[test]
    fn read_response_agrees_with_parse_response(
        buf in arb_input(STATUS_LINES),
        sizes in arb_chunking(),
    ) {
        let mut reader = Chunked::new(&buf, &sizes);
        let got = http::read_response(&mut reader);
        match http1::parse_response(&buf, MAX_HEAD_BYTES) {
            Ok(Some(head)) if buf.len() >= head.total_len() => {
                let resp = got.expect("a whole response");
                prop_assert_eq!(reader.pos, head.total_len(), "bytes taken from the reader");
                prop_assert_eq!(resp.status, head.status);
                prop_assert_eq!(&resp.body[..], &buf[head.body_range()]);
                prop_assert_eq!(resp.keep_alive, head.keep_alive);
                prop_assert_eq!(resp.retry_after, head.retry_after);
                prop_assert_eq!(resp.content_type, head.content_type.map(|r| lossy(&buf, r)));
            }
            // For a response, EOF before the first byte is an error too.
            whole => expect_failure(got.map(Some), whole.map(|head| head.is_some()), false)?,
        }
    }

    #[test]
    fn written_requests_and_responses_read_back(
        method in pick(&["GET", "POST", "PUT", "X"]),
        path in pick(&["/", "/invoke", "/state?since=4&x=%20", "/a/b/c"]),
        content_type in pick(&["application/json", "text/plain; version=0.0.4"]),
        trace in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        status in 100u16..600,
        retry_after in prop_oneof![Just(None), (0u64..100_000).prop_map(Some)],
        body in bytes(300),
        keep in any::<bool>(),
        sizes in arb_chunking(),
    ) {
        let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).unwrap();
        let (method, path, content_type) = (text(&method), text(&path), text(&content_type));
        let mut wire = Vec::new();

        let hex = trace.map(faasrail::telemetry::format_trace_id);
        let extra: Vec<(&str, &str)> = hex.iter().map(|h| (http::TRACE_HEADER, &h[..])).collect();
        http::write_request_with(&mut wire, &method, &path, "h:1", &content_type, &extra, &body, keep)
            .unwrap();
        let seconds = retry_after.map(|s| s.to_string());
        let extra: Vec<(&str, &str)> = seconds.iter().map(|s| ("Retry-After", &s[..])).collect();
        http::write_response_with(&mut wire, status, &content_type, &extra, &body, keep).unwrap();

        // Both on one connection: each read takes its own message only.
        let mut reader = Chunked::new(&wire, &sizes);
        let req = http::read_request(&mut reader).unwrap().unwrap();
        prop_assert_eq!((req.method, req.path), (method, path));
        prop_assert_eq!((req.keep_alive, req.trace_id), (keep, trace));
        prop_assert_eq!(&req.body, &body);
        let resp = http::read_response(&mut reader).unwrap();
        prop_assert_eq!((resp.status, resp.keep_alive, resp.retry_after), (status, keep, retry_after));
        prop_assert_eq!(resp.content_type, Some(content_type));
        prop_assert_eq!(&resp.body, &body);
        prop_assert_eq!(reader.pos, wire.len());
    }
}
