//! The blocking keep-alive pool: the transport under
//! [`HttpBackend`](crate::HttpBackend).
//!
//! One connection per exchange in flight, so N concurrent invocations hold
//! N sockets and block N caller threads. What an exchange's outcome means
//! is `client.rs`'s to say; what this file owns:
//!
//! * **the pool** — keep-alive connections are parked in a mutex-guarded
//!   LIFO free-list and reused across invocations; a reused connection
//!   that fails before yielding a response is replaced by a fresh one
//!   inside the same exchange (it was likely closed by the peer while
//!   idle), once;
//! * **socket timeouts** — a connection remembers the timeout its socket
//!   carries and is re-armed only when an exchange needs another: an
//!   invocation's first exchange takes `request_timeout` itself, so a
//!   keep-alive connection is armed once in its life; an exchange after a
//!   failed one takes what is left of the budget;
//! * **the syscall floor** — one `write` and one `read` per exchange on an
//!   armed connection.

use crate::client::{self, is_timeout, ClientStats, HttpBackendConfig, Transport, TryError};
use crate::{http, lock};
use std::io::{self, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One keep-alive connection, as the pool parks it.
struct Conn {
    /// Owns the stream; requests are written through `get_ref`. The buffer
    /// lives as long as the connection, so bytes read past a response stay
    /// visible instead of vanishing with a per-exchange reader.
    reader: BufReader<TcpStream>,
    /// The read and write timeout the socket carries now (zero: none set).
    armed: Duration,
}

impl Conn {
    /// Give the socket `timeout`, unless it carries it already.
    fn arm(&mut self, timeout: Duration, stats: &ClientStats) -> io::Result<()> {
        if timeout != self.armed {
            let stream = self.reader.get_ref();
            stream.set_write_timeout(Some(timeout))?;
            stream.set_read_timeout(Some(timeout))?;
            self.armed = timeout;
            stats.timeout_arms.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

pub(crate) struct Pool {
    addr: SocketAddr,
    host: String,
    cfg: HttpBackendConfig,
    idle: Mutex<Vec<Conn>>,
    stats: Arc<ClientStats>,
}

impl Pool {
    pub(crate) fn new(
        addr: SocketAddr,
        host: String,
        cfg: HttpBackendConfig,
        stats: Arc<ClientStats>,
    ) -> Pool {
        Pool { addr, host, cfg, idle: Mutex::new(Vec::new()), stats }
    }

    fn checkout(&self) -> Option<Conn> {
        lock(&self.idle).pop()
    }

    fn checkin(&self, conn: Conn) {
        let mut idle = lock(&self.idle);
        if idle.len() < self.cfg.pool_capacity {
            idle.push(conn);
        }
    }

    /// One request/response exchange on `conn`. An invocation's `first`
    /// exchange runs under `request_timeout` itself — what a reused
    /// connection already carries, and longer than the budget only by the
    /// time since `deadline` was set: a pool checkout or one connect. Any
    /// later exchange runs under what is left of the budget.
    fn exchange_on(
        &self,
        conn: &mut Conn,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        first: bool,
    ) -> io::Result<http::Response> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining < Duration::from_millis(1) {
            return Err(io::Error::new(ErrorKind::TimedOut, "deadline exhausted"));
        }
        conn.arm(if first { self.cfg.request_timeout } else { remaining }, &self.stats)?;
        client::write_invoke(&mut conn.reader.get_ref(), &self.host, body, trace_id)?;
        http::read_response(&mut conn.reader)
    }
}

impl Transport for Pool {
    fn exchange(
        &self,
        body: &[u8],
        trace_id: u64,
        deadline: Instant,
        mut first: bool,
    ) -> Result<http::Response, TryError> {
        let mut pooled_fallback = true;
        loop {
            let (mut conn, reused) = match self.checkout() {
                Some(conn) => {
                    self.stats.reuses.fetch_add(1, Ordering::Relaxed);
                    (conn, true)
                }
                None => {
                    let stream =
                        client::open(&self.addr, self.cfg.connect_timeout, deadline, &self.stats)?;
                    (Conn { reader: BufReader::new(stream), armed: Duration::ZERO }, false)
                }
            };
            match self.exchange_on(&mut conn, body, trace_id, deadline, first) {
                Ok(resp) => {
                    // Bytes past a complete response belong to no request:
                    // a parked connection holding them would hand them to
                    // the next invocation as its answer.
                    if resp.keep_alive && conn.reader.buffer().is_empty() {
                        self.checkin(conn);
                    }
                    return Ok(resp);
                }
                Err(e) if is_timeout(&e) => return Err(TryError::Timeout(e.to_string())),
                Err(e) => {
                    if reused && pooled_fallback {
                        pooled_fallback = false;
                        // The dead connection may have spent budget failing.
                        first = false;
                        continue;
                    }
                    return Err(TryError::retryable(e.to_string()));
                }
            }
        }
    }
}
