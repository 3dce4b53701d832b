//! # faasrail-reactor
//!
//! A dependency-free Linux epoll event loop: the substrate under the
//! gateway's `--reactor` server mode and the multiplexed HTTP client.
//!
//! The crate is deliberately small and policy-free. It provides exactly
//! five building blocks and leaves protocol state machines to its users:
//!
//! * [`poll::Poller`] — an owned epoll instance with `u64`-token
//!   registration and edge-triggered readiness ([`poll::Interest::EDGE_RW`]
//!   registers a connection once for its whole life; no per-request
//!   `epoll_ctl` churn).
//! * [`sys::Waker`] — an `eventfd`-based cross-thread wake-up, so handler
//!   threads can nudge a parked event loop.
//! * [`inbox::Inbox`] — a queue other threads push into and the loop
//!   drains, over a `Waker` whose write is elided unless the loop is parked:
//!   the park-and-recheck protocol, written once.
//! * [`wheel::TimerWheel`] — a coarse hashed wheel for per-connection
//!   idle/read deadlines; entries are lazily re-validated hints, so
//!   refreshing a deadline costs nothing.
//! * [`buf::ReadBuf`] / [`buf::WriteBuf`] + [`http1`] — reusable
//!   connection buffers, each drained to `WouldBlock` in one call, and an
//!   incremental HTTP/1.1 head parser/encoder that work in byte ranges,
//!   keeping per-request allocation off the hot path.
//!
//! No `libc`, `mio`, or `tokio`: the syscall surface is a dozen
//! hand-declared prototypes in [`sys`], which keeps the crate auditable
//! and the workspace dependency-free. Linux-only by construction (epoll,
//! `eventfd`, `accept4`, `SO_REUSEPORT`).

pub mod buf;
pub mod http1;
pub mod inbox;
pub mod poll;
pub mod sys;
pub mod wheel;

pub use buf::{ReadBuf, WriteBuf};
pub use inbox::Inbox;
pub use poll::{Event, Interest, Poller};
pub use sys::{bind_listeners, Listener, Waker};
pub use wheel::TimerWheel;
