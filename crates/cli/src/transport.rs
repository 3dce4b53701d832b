//! The one place a gateway client, a gateway server and the in-process node
//! are constructed: `replay`, `fleet agent` and `bench` share [`connect`];
//! `serve` and `bench` share [`bind`]; `replay`, `serve` and `fleet agent`
//! share [`warm_cache`]. Which client transport (pooled or multiplexed) and which server
//! (threaded or reactor) is a value here, not a type at the call sites.

use crate::args::{Args, Opt};
use faasrail_faas_sim::{FixedTtl, WarmCacheBackend, WarmCacheConfig};
use faasrail_gateway::{
    BreakerConfig, Client, Gateway, GatewayConfig, HttpBackendConfig, MuxConfig, ReactorGateway,
    RetryPolicy,
};
use faasrail_loadgen::Backend;
use faasrail_telemetry::EventSink;
use faasrail_workloads::WorkloadPool;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub const MUX: Opt = Opt::maybe("mux", "CONNS", "multiplexed client: CONNS pipelined connections");
pub const MUX_DEPTH: Opt =
    Opt::val("mux-depth", "N", "32", "requests in flight per connection").needs("mux");
pub const SHARDS: Opt =
    Opt::val("shards", "N", "1", "SO_REUSEPORT event-loop shards").needs("reactor");

/// How a command wants its gateway client built.
pub struct ClientOpts {
    pub timeout_ms: u64,
    /// Attempts per invocation.
    pub attempts: u32,
    pub breaker: BreakerConfig,
    /// `(connections, pipeline depth)` selects the multiplexed transport.
    pub mux: Option<(usize, usize)>,
}

impl ClientOpts {
    /// `--mux CONNS [--mux-depth N]`, for the commands whose tables have them.
    pub fn mux(args: &Args) -> Result<Option<(usize, usize)>, String> {
        args.num_opt("mux")?.map(|conns| Ok((conns, args.num("mux-depth")?))).transpose()
    }
}

/// The in-process backend: one default-sized node keeping sandboxes warm
/// for the ten-minute industry window.
pub fn warm_cache(pool: WorkloadPool) -> Arc<dyn Backend> {
    let policy = Box::new(FixedTtl::ten_minutes());
    Arc::new(WarmCacheBackend::new(pool, WarmCacheConfig::default(), policy))
}

pub fn connect(target: &str, opts: &ClientOpts) -> Result<Arc<Client>, String> {
    let request_timeout = Duration::from_millis(opts.timeout_ms);
    let retry = RetryPolicy { max_attempts: opts.attempts, ..RetryPolicy::default() };
    let breaker = opts.breaker;
    let client = match opts.mux {
        Some((connections, pipeline_depth)) => Client::new(
            target,
            MuxConfig {
                connections,
                pipeline_depth,
                request_timeout,
                retry,
                breaker,
                ..MuxConfig::default()
            },
        ),
        None => Client::connect(
            target,
            HttpBackendConfig { request_timeout, retry, breaker, ..HttpBackendConfig::default() },
        ),
    };
    client.map(Arc::new).map_err(|e| format!("resolving {target}: {e}"))
}

/// Stops a background server and joins its threads.
pub type Stop = Box<dyn FnOnce()>;

/// A bound gateway of either kind, not yet serving.
pub struct Server {
    pub addr: SocketAddr,
    /// Serve on this thread until shut down (`false`), or on a background
    /// thread (`true`), returning its [`Stop`].
    start: Box<dyn FnOnce(bool) -> Option<Stop>>,
}

impl Server {
    /// Serve until shut down, blocking the calling thread.
    pub fn run(self) {
        (self.start)(false);
    }

    /// Serve on a background thread.
    pub fn spawn(self) -> Stop {
        (self.start)(true).expect("a background server comes with its stop")
    }
}

/// Bind `addr` in front of `backend`: the epoll reactor with `Some(shards)`,
/// the thread-per-connection server with `None`.
pub fn bind(
    addr: &str,
    backend: Arc<dyn Backend>,
    cfg: GatewayConfig,
    reactor_shards: Option<usize>,
    trace_sink: Option<Arc<dyn EventSink>>,
) -> Result<Server, String> {
    // The two gateways share their method names, not a trait.
    macro_rules! server {
        ($bound:expr) => {{
            let mut gateway = $bound.map_err(|e| format!("binding gateway at {addr}: {e}"))?;
            if let Some(sink) = trace_sink {
                gateway = gateway.with_trace_sink(sink);
            }
            let bound = gateway.local_addr();
            let start = move |background| -> Option<Stop> {
                if background {
                    let handle = gateway.spawn();
                    return Some(Box::new(move || handle.stop()));
                }
                gateway.run();
                None
            };
            Server { addr: bound, start: Box::new(start) }
        }};
    }
    Ok(match reactor_shards {
        Some(shards) => server!(ReactorGateway::bind_sharded(addr, backend, cfg, shards)),
        None => server!(Gateway::bind(addr, backend, cfg)),
    })
}
