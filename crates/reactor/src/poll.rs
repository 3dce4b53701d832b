//! A minimal epoll poller: register file descriptors under a `u64` token,
//! collect readiness events into a reusable buffer.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

pub use crate::sys::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Interest flags for [`Poller::add`]: a registration is made once and
/// kept, never modified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    bits: u32,
}

impl Interest {
    pub const READ: Interest = Interest { bits: EPOLLIN };
    /// Read + write + peer-half-close, edge-triggered. The standard
    /// register-once mode for connection sockets: no `epoll_ctl` churn per
    /// request, at the cost of having to drain to `WouldBlock`.
    pub const EDGE_RW: Interest = Interest { bits: EPOLLIN | EPOLLOUT | EPOLLRDHUP | sys::EPOLLET };

    pub fn bits(self) -> u32 {
        self.bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    bits: u32,
}

impl Event {
    pub fn readable(&self) -> bool {
        self.bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0
    }

    pub fn writable(&self) -> bool {
        self.bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    pub fn error(&self) -> bool {
        self.bits & EPOLLERR != 0
    }

    /// Peer closed its write half (or the whole connection).
    pub fn read_closed(&self) -> bool {
        self.bits & (EPOLLRDHUP | EPOLLHUP) != 0
    }
}

/// Owning wrapper around an epoll instance.
pub struct Poller {
    epfd: RawFd,
    events: Vec<sys::EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { epfd: sys::epoll_create()?, events: vec![sys::EpollEvent::default(); 1024] })
    }

    pub fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        sys::epoll_add(self.epfd, fd, interest.bits(), token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_delete(self.epfd, fd)
    }

    /// Block for up to `timeout` (`None` = forever) and append readiness
    /// events to `out`. Returns the number of events delivered.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1i32,
            Some(t) => {
                // Round up so a 0 < t < 1ms deadline blocks instead of spinning.
                let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        let n = sys::epoll_wait_into(self.epfd, &mut self.events, timeout_ms)?;
        for ev in &self.events[..n] {
            // Copy out of the possibly-packed struct before use.
            let (data, bits) = (ev.data, ev.events);
            out.push(Event { token: data, bits });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::Waker;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn edge_triggered_socket_reports_once_per_burst() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        use std::os::unix::io::AsRawFd;
        poller.add(server.as_raw_fd(), Interest::EDGE_RW, 42).unwrap();

        // Fresh ET registration reports writability immediately.
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(500)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable()));

        client.write_all(b"hello").unwrap();
        events.clear();
        poller.wait(Some(Duration::from_millis(500)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable()));

        // Without draining the socket, an edge-triggered fd stays silent.
        events.clear();
        poller.wait(Some(Duration::from_millis(50)), &mut events).unwrap();
        assert!(
            !events.iter().any(|e| e.token == 42 && e.readable()),
            "no second edge without new bytes"
        );
    }

    #[test]
    fn waker_event_carries_its_token() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), Interest::READ, u64::MAX).unwrap();
        waker.wake();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(500)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable()));
    }
}
