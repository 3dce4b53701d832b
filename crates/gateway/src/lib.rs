//! FaaSRail's networked invocation gateway.
//!
//! The load generator's [`Backend`](faasrail_loadgen::Backend) abstraction
//! is synchronous and in-process; real serverless research setups put a
//! network between the generator and the platform under test. This crate
//! supplies both ends of that wire without adding any dependency beyond the
//! workspace's:
//!
//! * [`crate::core`] — the request contract, once and socket-free: routes
//!   (`POST /invoke`, `GET /healthz`, `/stats`, `/metrics`), status codes,
//!   the seeded [`FaultConfig`] bands (dropped connections, injected
//!   `500`s, black-hole stalls, straggler delays), the `429` +
//!   `Retry-After` shed reply, [`GatewayStats`], and the one `ServerSpan`
//!   per invocation. A server parses a request, asks `core` what to do
//!   with it, and does that;
//! * [`Gateway`] — the one server, carrying the contract out on one of two
//!   engines: a bounded pool of threads blocking on keep-alive connections
//!   over `std::net::TcpListener` ([`Gateway::bind`]), or
//!   `faasrail-reactor`'s epoll event loop (N `SO_REUSEPORT` shards,
//!   per-connection deadlines on a timer wheel, a bounded handler pool;
//!   [`ReactorGateway::bind_sharded`]). Either engine sheds when its
//!   bounded queue of admitted work ([`GatewayConfig::queue_capacity`]) is
//!   full, so overload is an explicit signal instead of a stalled OS
//!   accept backlog, and either serves in the background behind one
//!   [`Handle`];
//! * [`http`] — blocking `BufRead`/`Write` adapters over
//!   `faasrail_reactor::http1`, the only parser and encoder of the wire
//!   dialect in the workspace;
//! * [`client`] — the client's policy, once and socket-free: JSON encode,
//!   the one per-invocation deadline, seeded capped-exponential retry
//!   ([`RetryPolicy`]) for transport failures, `429`s and `5xx`s, the
//!   optional [`CircuitBreaker`] that fails fast (as `OutcomeClass::Shed`)
//!   while the upstream is unhealthy, and what each status means;
//!   [`ClientStats`] holds only the transport facts and retries no result
//!   shows. A [`Client`] hands each attempt to a transport and decides what
//!   its answer means;
//! * [`HttpBackend`] and [`MuxHttpBackend`] — that one [`Client`] over its
//!   two transports: a pool of blocking keep-alive connections (`pool.rs`,
//!   one socket per invocation in flight), and one reactor thread driving
//!   a fixed set of pipelined connections ([`mux`]), so thousands of
//!   in-flight invocations need neither a thread nor a socket each.
//!
//! Loopback replay through the pair is distribution-preserving: the
//! `tests/gateway_loopback.rs` integration test drives a full shrunk spec
//! over `127.0.0.1` and checks the invocation-duration distribution against
//! an in-process replay of the same spec (KS distance < 0.05).

pub mod backoff;
pub mod breaker;
pub mod client;
pub mod core;
mod front;
pub mod http;
pub mod mux;
mod pool;
mod reactor_server;
mod server;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` whether or not a thread panicked while holding it. What this
/// crate keeps behind a mutex (stage histograms, the idle-connection pool,
/// the jitter stream, the breaker state) is valid after every single
/// update, and one panicking handler must not wedge the gateway.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use backoff::{mix_fraction, RetryPolicy};
pub use breaker::{BreakerConfig, CircuitBreaker};
pub use client::{Client, ClientStats, HttpBackend, HttpBackendConfig, MuxHttpBackend};
pub use core::{FaultConfig, GatewayConfig, GatewayStats, StageMetrics};
pub use front::{Gateway, GatewayHandle, Handle, ReactorHandle};
pub use http::TRACE_HEADER;
pub use mux::MuxConfig;
pub use reactor_server::ReactorGateway;
