//! Reusable per-connection byte buffers.
//!
//! A connection keeps one [`ReadBuf`] and one [`WriteBuf`] for its whole
//! life. Both grow once to their steady-state size and are then recycled
//! request after request: consuming advances a start cursor, and compaction
//! memmoves the (typically empty or tiny) tail back to the front instead of
//! allocating. This is what keeps the HTTP parse/encode hot path free of
//! per-request `String`/`Vec` allocation.

use std::io::{self, Read, Write};

/// Read-side accumulator: bytes arrive at the tail, the parser consumes
/// from the head.
#[derive(Debug, Default)]
pub struct ReadBuf {
    data: Vec<u8>,
    start: usize,
}

impl ReadBuf {
    pub fn with_capacity(cap: usize) -> ReadBuf {
        ReadBuf { data: Vec::with_capacity(cap), start: 0 }
    }

    /// Unconsumed bytes.
    pub fn filled(&self) -> &[u8] {
        &self.data[self.start..]
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop `n` bytes from the front (they have been parsed).
    pub fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.data.len());
        if self.start == self.data.len() {
            // Everything consumed: reset in place, keep the allocation.
            self.data.clear();
            self.start = 0;
        }
    }

    /// Move the unconsumed tail to the front so the buffer does not creep.
    fn compact(&mut self) {
        if self.start > 0 {
            self.data.copy_within(self.start.., 0);
            self.data.truncate(self.data.len() - self.start);
            self.start = 0;
        }
    }

    /// Read from `src` into the tail until it would block or `limit`
    /// unconsumed bytes are buffered, retrying `Interrupted`: the read-side
    /// twin of [`WriteBuf::flush_to`], for an edge-triggered socket.
    /// `Ok(true)` says the stream reached its end; `Ok(false)` with
    /// `len() >= limit` says `src` may hold more; any other error comes
    /// back with the bytes read before it kept.
    pub fn drain_from<R: Read>(
        &mut self,
        src: &mut R,
        chunk: usize,
        limit: usize,
    ) -> io::Result<bool> {
        while self.len() < limit {
            match self.fill_from(src, chunk) {
                Ok(0) => return Ok(true),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Read once from `src` into the tail. `Ok(0)` is end-of-stream.
    fn fill_from<R: Read>(&mut self, src: &mut R, chunk: usize) -> io::Result<usize> {
        // Compact lazily, only when a fresh read needs the space.
        if self.start > 0 && self.data.len() + chunk > self.data.capacity() {
            self.compact();
        }
        let old = self.data.len();
        self.data.resize(old + chunk, 0);
        match src.read(&mut self.data[old..]) {
            Ok(n) => {
                self.data.truncate(old + n);
                Ok(n)
            }
            Err(e) => {
                self.data.truncate(old);
                Err(e)
            }
        }
    }
}

/// Write-side staging buffer: responses are encoded into the tail, the
/// socket drains from the head. Implements [`io::Write`] so encoders
/// (header formatting, `serde_json::to_writer`) append without allocating
/// intermediates.
#[derive(Debug, Default)]
pub struct WriteBuf {
    data: Vec<u8>,
    start: usize,
    staged_total: u64,
}

impl WriteBuf {
    pub fn with_capacity(cap: usize) -> WriteBuf {
        WriteBuf { data: Vec::with_capacity(cap), start: 0, staged_total: 0 }
    }

    /// Bytes staged but not yet written to the socket.
    pub fn pending(&self) -> usize {
        self.data.len() - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total bytes ever accepted into the buffer (monotonic). Used to
    /// address "this response ends at byte N of the connection".
    pub fn bytes_staged(&self) -> u64 {
        self.staged_total
    }

    /// Write staged bytes to `dst` until drained or `WouldBlock`.
    /// Returns the number of bytes flushed this call.
    pub fn flush_to<W: Write>(&mut self, dst: &mut W) -> io::Result<usize> {
        let mut flushed = 0;
        while self.start < self.data.len() {
            match dst.write(&self.data[self.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.start += n;
                    flushed += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
        Ok(flushed)
    }
}

impl Write for WriteBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.data.extend_from_slice(buf);
        self.staged_total += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_buf_consume_and_recycle_keeps_capacity() {
        let mut rb = ReadBuf::with_capacity(64);
        let mut src: &[u8] = b"GET / HTTP/1.1\r\n\r\n";
        rb.fill_from(&mut src, 64).unwrap();
        assert_eq!(rb.filled(), b"GET / HTTP/1.1\r\n\r\n");
        let cap = rb.data.capacity();
        rb.consume(rb.len());
        assert!(rb.is_empty());
        assert_eq!(rb.data.capacity(), cap, "full consume recycles in place");
    }

    #[test]
    fn read_buf_partial_consume_then_compaction() {
        let mut rb = ReadBuf::with_capacity(8);
        let mut src: &[u8] = b"abcdef";
        rb.fill_from(&mut src, 6).unwrap();
        rb.consume(4);
        assert_eq!(rb.filled(), b"ef");
        // Next fill needs room beyond capacity → compacts first.
        let mut src2: &[u8] = b"ghijkl";
        rb.fill_from(&mut src2, 6).unwrap();
        assert_eq!(rb.filled(), b"efghijkl");
        assert_eq!(rb.start, 0, "compacted");
    }

    /// A reader that answers each `read` with the next scripted result.
    struct Script(std::collections::VecDeque<io::Result<&'static [u8]>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let bytes = self.0.pop_front().expect("read past the end of the script")?;
            buf[..bytes.len()].copy_from_slice(bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn read_buf_drains_to_eof_or_would_block_and_returns_other_errors() {
        use io::ErrorKind::{ConnectionReset, Interrupted, WouldBlock};
        let drain = |script: Vec<io::Result<&'static [u8]>>| {
            let (mut rb, mut src) = (ReadBuf::with_capacity(8), Script(script.into()));
            let drained = rb.drain_from(&mut src, 16, usize::MAX).map_err(|e| e.kind());
            (drained, rb.filled().to_vec(), src.0.len())
        };
        assert_eq!(drain(vec![Ok(b"ab"), Ok(b"cd"), Ok(b"")]), (Ok(true), b"abcd".to_vec(), 0));
        assert_eq!(
            drain(vec![Ok(b"ab"), Err(WouldBlock.into()), Ok(b"zz")]),
            (Ok(false), b"ab".to_vec(), 1),
            "WouldBlock stops the drain, and nothing after it is read"
        );
        assert_eq!(
            drain(vec![Err(Interrupted.into()), Ok(b"ab"), Err(WouldBlock.into())]),
            (Ok(false), b"ab".to_vec(), 0),
            "Interrupted is retried"
        );
        assert_eq!(
            drain(vec![Ok(b"ab"), Err(ConnectionReset.into()), Ok(b"zz")]),
            (Err(ConnectionReset), b"ab".to_vec(), 1),
            "any other error is returned, the bytes before it kept"
        );
    }

    #[test]
    fn read_buf_drain_stops_once_the_limit_is_buffered() {
        let mut rb = ReadBuf::with_capacity(8);
        let wouldblock = Err(io::ErrorKind::WouldBlock.into());
        let mut src = Script(vec![Ok(&b"abc"[..]), Ok(b"def"), Ok(b"gh"), wouldblock].into());
        assert_eq!(rb.drain_from(&mut src, 16, 5).map_err(|e| e.kind()), Ok(false));
        assert_eq!((rb.filled(), src.0.len()), (&b"abcdef"[..], 2), "no read past the limit");
        assert_eq!(rb.drain_from(&mut src, 16, 5).map_err(|e| e.kind()), Ok(false));
        assert_eq!(src.0.len(), 2, "a buffer already at the limit reads nothing");
        rb.consume(4);
        assert_eq!(rb.drain_from(&mut src, 16, 5).map_err(|e| e.kind()), Ok(false));
        assert_eq!((rb.filled(), src.0.len()), (&b"efgh"[..], 0));
    }

    #[test]
    fn write_buf_partial_flush_resumes() {
        struct Throttle<'a>(&'a mut Vec<u8>, usize);
        impl Write for Throttle<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.1);
                self.1 -= n;
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut wb = WriteBuf::with_capacity(32);
        wb.write_all(b"hello world").unwrap();
        assert_eq!(wb.bytes_staged(), 11);

        let mut out = Vec::new();
        let n = wb.flush_to(&mut Throttle(&mut out, 5)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(wb.pending(), 6);

        let n = wb.flush_to(&mut Throttle(&mut out, 100)).unwrap();
        assert_eq!(n, 6);
        assert!(wb.is_empty());
        assert_eq!(out, b"hello world");
        // Monotonic staged counter survives the drain.
        wb.write_all(b"!").unwrap();
        assert_eq!(wb.bytes_staged(), 12);
    }
}
