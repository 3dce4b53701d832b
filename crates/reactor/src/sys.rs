//! Thin FFI over the handful of Linux syscalls the reactor needs.
//!
//! The workspace deliberately has no `libc`/`mio`/`tokio` dependency, so the
//! half-dozen symbols (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, `accept4`, plus raw socket setup for `SO_REUSEPORT`
//! listeners) are declared here directly — they live in the C library every
//! Linux Rust binary already links. Everything above this module works in
//! terms of `std` types (`TcpStream`, `io::Error`).

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

// epoll event bits (uapi/linux/eventpoll.h).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered: readiness is reported on transitions only, so the
/// consumer must drain to `WouldBlock` on every wake-up.
pub const EPOLLET: u32 = 0x8000_0000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI), natural layout
/// elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// IPv4 `struct sockaddr_in` (port and address in network byte order).
#[repr(C)]
#[derive(Clone, Copy)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getsockname(fd: c_int, addr: *mut SockaddrIn, len: *mut u32) -> c_int;
    fn accept4(fd: c_int, addr: *mut c_void, len: *mut u32, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

pub fn epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

fn epoll_op(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data: token };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_op(epfd, EPOLL_CTL_ADD, fd, events, token)
}

pub fn epoll_delete(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    epoll_op(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Wait for events; `timeout_ms < 0` blocks indefinitely. Retries `EINTR`.
pub fn epoll_wait_into(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        let n = unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms as c_int)
        };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

pub fn close_fd(fd: RawFd) {
    unsafe {
        close(fd);
    }
}

/// A cross-thread wake-up for an epoll loop: an `eventfd` registered in the
/// poller. `wake` is async-signal-safe and cheap; `drain` resets it.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        Ok(Waker { fd: cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })? })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the owning loop's next (or current) `epoll_wait` return.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consume pending wake-ups so the level resets.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

fn to_v4(addr: SocketAddr) -> io::Result<SocketAddrV4> {
    match addr {
        SocketAddr::V4(v4) => Ok(v4),
        SocketAddr::V6(_) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "sharded reactor listeners support IPv4 only",
        )),
    }
}

fn sockaddr_in(addr: SocketAddrV4) -> SockaddrIn {
    SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
        sin_zero: [0; 8],
    }
}

/// A nonblocking listening socket: either a `std` listener (single shard,
/// any address family) or a raw `SO_REUSEPORT` socket (sharded accept,
/// IPv4).
#[derive(Debug)]
pub enum Listener {
    Std(TcpListener),
    Raw(RawFd),
}

impl Listener {
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Std(l) => l.as_raw_fd(),
            Listener::Raw(fd) => *fd,
        }
    }

    /// Accept one connection; `None` when the backlog is drained. The
    /// returned stream is already nonblocking.
    pub fn accept(&self) -> io::Result<Option<TcpStream>> {
        match self {
            Listener::Std(l) => match l.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(true)?;
                    Ok(Some(stream))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Raw(fd) => {
                let ret = unsafe {
                    accept4(
                        *fd,
                        std::ptr::null_mut(),
                        std::ptr::null_mut(),
                        SOCK_NONBLOCK | SOCK_CLOEXEC,
                    )
                };
                if ret >= 0 {
                    return Ok(Some(unsafe { TcpStream::from_raw_fd(ret) }));
                }
                let e = io::Error::last_os_error();
                match e.kind() {
                    io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::Interrupted => Ok(None),
                    _ => Err(e),
                }
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Raw(fd) = self {
            close_fd(*fd);
        }
    }
}

fn reuseport_listener(addr: SocketAddrV4, backlog: i32) -> io::Result<(RawFd, SocketAddrV4)> {
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    let enable = |opt: c_int| -> io::Result<()> {
        let one: c_int = 1;
        cvt(unsafe { setsockopt(fd, SOL_SOCKET, opt, (&one as *const c_int).cast(), 4) })
            .map(|_| ())
    };
    let setup = || -> io::Result<SocketAddrV4> {
        enable(SO_REUSEADDR)?;
        enable(SO_REUSEPORT)?;
        let sa = sockaddr_in(addr);
        cvt(unsafe { bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) })?;
        cvt(unsafe { listen(fd, backlog) })?;
        let mut out = sockaddr_in(addr);
        let mut len = std::mem::size_of::<SockaddrIn>() as u32;
        cvt(unsafe { getsockname(fd, &mut out, &mut len) })?;
        Ok(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(out.sin_addr).to_be_bytes()),
            u16::from_be(out.sin_port),
        ))
    };
    match setup() {
        Ok(bound) => Ok((fd, bound)),
        Err(e) => {
            close_fd(fd);
            Err(e)
        }
    }
}

/// Bind `n` listeners on `addr`. One shard uses a plain `std` listener;
/// several use `SO_REUSEPORT` sockets (IPv4 only) so the kernel spreads
/// accepts across the shards with no hand-off thread.
pub fn bind_listeners(addr: SocketAddr, n: usize) -> io::Result<(Vec<Listener>, SocketAddr)> {
    assert!(n > 0, "need at least one listener");
    if n == 1 {
        let l = TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        let bound = l.local_addr()?;
        return Ok((vec![Listener::Std(l)], bound));
    }
    let v4 = to_v4(addr)?;
    let (first, bound) = reuseport_listener(v4, 1024)?;
    let mut out = vec![Listener::Raw(first)];
    for _ in 1..n {
        match reuseport_listener(bound, 1024) {
            Ok((fd, _)) => out.push(Listener::Raw(fd)),
            Err(e) => return Err(e), // `out` drops and closes what bound
        }
    }
    Ok((out, SocketAddr::V4(bound)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn waker_wakes_an_epoll_wait() {
        let ep = epoll_create().unwrap();
        let waker = Waker::new().unwrap();
        epoll_add(ep, waker.fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: times out empty.
        assert_eq!(epoll_wait_into(ep, &mut events, 0).unwrap(), 0);
        waker.wake();
        let n = epoll_wait_into(ep, &mut events, 1_000).unwrap();
        assert_eq!(n, 1);
        let data = { events[0].data }; // copy out of the packed struct
        assert_eq!(data, 7);
        waker.drain();
        assert_eq!(epoll_wait_into(ep, &mut events, 0).unwrap(), 0, "drain resets the level");
        close_fd(ep);
    }

    #[test]
    fn sharded_listeners_share_one_port_and_accept() {
        let (listeners, addr) = bind_listeners("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        assert_eq!(listeners.len(), 2);
        assert_ne!(addr.port(), 0, "ephemeral port resolved");
        // Drive enough connections that both shards plausibly see some; we
        // only assert every connection lands on *some* listener.
        let mut served = 0;
        for i in 0..8u8 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&[i]).unwrap();
            // The backlog holds the connection until a listener accepts it.
            for l in &listeners {
                while let Some(mut s) = l.accept().unwrap() {
                    let mut b = [0u8; 1];
                    s.set_nonblocking(false).unwrap();
                    s.read_exact(&mut b).unwrap();
                    served += 1;
                }
            }
        }
        assert_eq!(served, 8, "every connection accepted by exactly one listener");
    }

    #[test]
    fn single_listener_uses_std_and_reports_wouldblock_as_none() {
        let (listeners, addr) = bind_listeners("127.0.0.1:0".parse().unwrap(), 1).unwrap();
        assert!(matches!(listeners[0], Listener::Std(_)));
        assert!(listeners[0].accept().unwrap().is_none(), "empty backlog is None");
        let _c = TcpStream::connect(addr).unwrap();
        // The connection may take a beat to land in the backlog.
        let mut got = false;
        for _ in 0..100 {
            if listeners[0].accept().unwrap().is_some() {
                got = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(got);
    }
}
