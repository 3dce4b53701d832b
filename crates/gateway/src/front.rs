//! The one server front: a bound [`Gateway`] and the [`Handle`] of one
//! serving in the background, over either engine.
//!
//! What is served is [`crate::core`]'s, and how the connections are carried
//! is the engine's: [`Gateway::bind`] builds the threaded engine
//! (`server.rs`), [`ReactorGateway`](crate::ReactorGateway) the epoll
//! shards (`reactor_server.rs`). Everything else about a server (its
//! address, counters, trace sink, running, stopping) is written here, once.

use crate::core::Core;
use crate::reactor_server::{self, Completion};
use crate::{server, GatewayConfig, GatewayStats};
use faasrail_loadgen::Backend;
use faasrail_reactor::{Inbox, Listener};
use faasrail_telemetry::EventSink;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A gateway: bound listener(s) in front of a backend, not yet serving.
pub struct Gateway {
    pub(crate) addr: SocketAddr,
    pub(crate) core: Arc<Core>,
    pub(crate) engine: Engine,
}

/// What carries the connections.
pub(crate) enum Engine {
    /// A bounded pool of threads, each blocking on one connection.
    Threaded(TcpListener),
    /// Epoll shards, each with its listener and its inbox of finished
    /// invocations.
    Reactor(Vec<Listener>, Arc<[Inbox<Completion>]>),
}

impl Gateway {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) in front of
    /// `backend`, on the threaded engine.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        cfg: GatewayConfig,
    ) -> io::Result<Gateway> {
        let core = Arc::new(Core::new(backend, cfg));
        let listener = TcpListener::bind(addr)?;
        Ok(Gateway { addr: listener.local_addr()?, core, engine: Engine::Threaded(listener) })
    }

    /// Install an [`EventSink`] receiving one `ServerSpan` per
    /// `POST /invoke`. Defaults to `NullSink` (tracing off, zero cost).
    pub fn with_trace_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        Arc::get_mut(&mut self.core)
            .expect("with_trace_sink must be called before spawn/run")
            .sink = sink;
        self
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counters (live; safe to read while serving).
    pub fn stats(&self) -> Arc<GatewayStats> {
        Arc::clone(&self.core.stats)
    }

    /// Serve until shut down, blocking the calling thread.
    pub fn run(self) {
        match self.engine {
            Engine::Threaded(listener) => server::run(&self.core, &listener),
            Engine::Reactor(listeners, inboxes) => {
                reactor_server::run(&self.core, listeners, &inboxes)
            }
        }
        self.core.sink.flush();
    }

    /// Serve on a background thread; returns a handle for address, stats,
    /// and shutdown.
    pub fn spawn(self) -> Handle {
        let inboxes = match &self.engine {
            Engine::Threaded(_) => None,
            Engine::Reactor(_, inboxes) => Some(Arc::clone(inboxes)),
        };
        let (addr, core) = (self.addr, Arc::clone(&self.core));
        let join = std::thread::spawn(move || self.run());
        Handle { addr, core, inboxes, join }
    }
}

/// A gateway serving on a background thread.
pub struct Handle {
    addr: SocketAddr,
    pub(crate) core: Arc<Core>,
    /// The reactor's shard inboxes, to wake shards blocked in `epoll_wait`;
    /// `None` on the threaded engine, whose accept a connection wakes.
    inboxes: Option<Arc<[Inbox<Completion>]>>,
    join: JoinHandle<()>,
}

/// The threaded engine's [`Handle`].
pub type GatewayHandle = Handle;
/// The reactor engine's [`Handle`].
pub type ReactorHandle = Handle;

impl Handle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.core.stats
    }

    /// Stop accepting, drain in-flight work, and join the server threads.
    ///
    /// The reactor closes idle keep-alive connections at once; the threaded
    /// engine closes each as soon as it goes idle, at the latest after
    /// `read_timeout`, so drop any client still holding pooled connections
    /// before calling this to avoid waiting out the timeout.
    pub fn stop(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        match &self.inboxes {
            Some(inboxes) => inboxes.iter().for_each(Inbox::wake),
            // Wake the blocking accept with a throwaway connection.
            None => drop(TcpStream::connect(self.addr)),
        }
        let _ = self.join.join();
    }
}
