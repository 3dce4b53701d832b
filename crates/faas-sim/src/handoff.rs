//! The arrival hand-off: a simulation's schedule cursor runs on a helper
//! thread, ahead of the engine, whenever a core is free for it.
//!
//! A schedule's arrivals are a function of the source alone (for the lazy
//! [`ArrivalStream`](faasrail_core::ArrivalStream), of its model and seed),
//! never of what the engine does with them, so expanding them is work the
//! engine need not wait for. `feed` opens the source's cursor on a scoped
//! helper that fills buffers of `BATCH` arrivals and sends them over a
//! channel that holds two mean minutes of them (`in_flight`); the engine
//! reads them through a `Feed`, an [`ArrivalCursor`] like any other, and
//! sends each emptied buffer back for the helper to fill again. The engine
//! sees the same arrivals in the same order either way, so nothing a
//! simulation reports depends on the hand-off: only its wall time does.
//!
//! The helper polls a full channel every `POLL` rather than blocking on
//! it. A sender blocked in `send` is woken by every receive, which puts a
//! system call per buffer on the engine's thread; on a 2-vCPU KVM guest
//! with a busy host, such a wake-up of the other vCPU cost the engine
//! about a millisecond. Polled, the engine makes no system call while the
//! helper keeps ahead, and the channel holds several milliseconds of the
//! engine's work, so a late poll does not starve it.
//!
//! Failures cross in both directions. A panic on the helper (the lazy
//! cursor refusing a model) closes its side of the channel; the engine, on
//! finding it closed, joins the helper and resumes the helper's panic with
//! its own payload. An engine that unwinds drops its `Feed`, so the
//! helper's next send finds the channel closed and the helper returns, and
//! the scope joins it: no helper is left waiting on a full channel.
//!
//! **The core rule.** A helper starts only when some core is running no
//! simulation. `BUSY` counts this process's engines and helpers; an
//! engine counts itself for the length of its simulation, and a helper is
//! started only if it can count itself without passing the number of
//! cores. A runner that starts several simulation threads at once counts
//! them before they start ([`SimWorkers`]), so that the first of them to
//! begin does not take a core that the others are about to need.

use faasrail_core::{Arrival, ArrivalCursor, ScheduleSource};
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::OnceLock;
use std::thread::{self, ScopedJoinHandle};
use std::time::Duration;

/// Arrivals per hand-off buffer: 16 KiB of [`Arrival`]s.
pub(crate) const BATCH: usize = 1_024;

/// Full buffers the channel holds at least before the helper waits:
/// 256 KiB.
const IN_FLIGHT: usize = 16;

/// Full buffers the channel holds at most: 32 MiB.
const MAX_IN_FLIGHT: usize = 2_048;

/// How many full buffers the helper may run ahead by. The lazy cursor
/// expands a whole minute before it yields any of it, so the engine would
/// wait out each expansion unless the channel held the minute before it:
/// two mean minutes of `source`'s arrivals, and never less than
/// `IN_FLIGHT`.
fn in_flight<S: ScheduleSource + ?Sized>(source: &S) -> usize {
    let per_minute = source.arrivals_hint() / source.duration_minutes().max(1) as u64;
    let minutes_of_buffers = (2 * per_minute).div_ceil(BATCH as u64);
    (minutes_of_buffers as usize).clamp(IN_FLIGHT, MAX_IN_FLIGHT)
}

/// How long the helper sleeps before it looks at a full channel again.
const POLL: Duration = Duration::from_millis(1);

/// Engines and helpers running in this process, counted against
/// [`cores`].
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs as one of a [`SimWorkers`] count, which
    /// already holds its core.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// The path [`forcing`] imposes on this thread's simulations.
    static FORCED: Cell<Option<Path>> = const { Cell::new(None) };
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cores held in [`BUSY`], given back on drop.
pub(crate) struct Held(usize);

impl Held {
    fn count(n: usize) -> Held {
        BUSY.fetch_add(n, Ordering::AcqRel);
        Held(n)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Simulation threads counted before they start. A runner counts the
/// workers it is about to start, and each worker runs its simulations
/// inside [`SimWorkers::run`], where they take no count of their own; the
/// count is given back when this value drops.
pub struct SimWorkers {
    _held: Held,
}

impl SimWorkers {
    /// Count `workers` threads that will run simulations.
    pub fn count(workers: usize) -> SimWorkers {
        SimWorkers { _held: Held::count(workers) }
    }

    /// Run `f` on the calling thread as one of the counted workers.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                COUNTED.set(self.0);
            }
        }
        let _restore = Restore(COUNTED.replace(true));
        f()
    }
}

/// Count the calling thread's engine for as long as the value lives,
/// unless a [`SimWorkers`] count holds it already.
pub(crate) fn engine_core() -> Option<Held> {
    (!COUNTED.get()).then(|| Held::count(1))
}

/// A core for a helper: one running no simulation, or any when a test
/// forces the helper path; `None` means the cursor runs inline.
pub(crate) fn helper_core() -> Option<Held> {
    match FORCED.get() {
        Some(Path::Helper) => Some(Held::count(1)),
        Some(Path::Inline) => None,
        None => BUSY
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
                (busy < cores()).then_some(busy + 1)
            })
            .ok()
            .map(|_| Held(1)),
    }
}

/// Which way a simulation's arrivals reach its engine.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The engine expands the cursor itself.
    Inline,
    /// A helper expands it and hands it over.
    Helper,
}

/// Run `f` with every simulation on the calling thread taking `path`,
/// whatever the core rule says. Tests use it to hold the two paths to one
/// result; it is public only so that integration tests reach it.
#[doc(hidden)]
pub fn forcing<R>(path: Path, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Path>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(Some(path)));
    f()
}

/// The engine's end of the hand-off.
pub(crate) struct Feed<'scope> {
    batch: Vec<Arrival>,
    pos: usize,
    full: Receiver<Vec<Arrival>>,
    spent: SyncSender<Vec<Arrival>>,
    helper: Option<ScopedJoinHandle<'scope, ()>>,
}

impl ArrivalCursor for Feed<'_> {
    #[inline]
    fn next_arrival(&mut self) -> Option<Arrival> {
        let arrival = self.batch.get(self.pos).copied();
        if arrival.is_some() {
            self.pos += 1;
            return arrival;
        }
        self.refill()
    }
}

impl Feed<'_> {
    /// Return the spent buffer and take the next one; at the end of the
    /// stream, join the helper and resume its panic if it had one.
    #[cold]
    fn refill(&mut self) -> Option<Arrival> {
        let spent = std::mem::take(&mut self.batch);
        if spent.capacity() > 0 {
            // The helper may have finished; then nobody needs it back.
            let _ = self.spent.try_send(spent);
        }
        match self.full.recv() {
            Ok(batch) => {
                self.batch = batch;
                self.pos = 1;
                self.batch.first().copied()
            }
            Err(_) => {
                if let Some(Err(panic)) = self.helper.take().map(ScopedJoinHandle::join) {
                    resume_unwind(panic);
                }
                None
            }
        }
    }
}

/// Run `engine` over `source`'s arrivals, expanded on a helper thread
/// that holds `core` until it is joined.
pub(crate) fn feed<S, R>(source: &S, core: Held, engine: impl FnOnce(&mut Feed<'_>) -> R) -> R
where
    S: ScheduleSource + ?Sized,
{
    let in_flight = in_flight(source);
    let (full_tx, full) = sync_channel::<Vec<Arrival>>(in_flight);
    // Every buffer is allocated here, once, and the helper opens the
    // cursor itself: what each thread allocates, it frees, and the helper
    // never grows the engine's heap (on glibc, one arena per thread).
    let (spent, spent_rx) = sync_channel::<Vec<Arrival>>(in_flight + 2);
    for _ in 0..in_flight + 2 {
        spent.send(Vec::with_capacity(BATCH)).expect("the receiver is still here");
    }
    let result = thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let mut cursor = source.cursor();
            loop {
                let mut batch = spent_rx.try_recv().unwrap_or_default();
                batch.clear();
                batch.extend(std::iter::from_fn(|| cursor.next_arrival()).take(BATCH));
                let last = batch.len() < BATCH;
                if batch.is_empty() {
                    return;
                }
                // A full channel is polled, never waited on (see the
                // module's documentation).
                loop {
                    match full_tx.try_send(batch) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            batch = back;
                            thread::sleep(POLL);
                        }
                        // The engine is gone: it finished, or it unwound.
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
                if last {
                    return;
                }
            }
        });
        let mut feed = Feed { batch: Vec::new(), pos: 0, full, spent, helper: Some(helper) };
        engine(&mut feed)
    });
    drop(core);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::{FixedTtl, KeepAlivePolicy, LruPolicy};
    use crate::registry::{BalancerKind, PolicyKind};
    use crate::{simulate, simulate_observed, ClusterConfig, SimMetrics, SimOptions};
    use faasrail_core::{
        materialize, ArrivalStream, IatModel, ModelEntry, ScheduleModel, ScheduleSource,
    };
    use faasrail_stats::rng::{cases, Rng};
    use faasrail_telemetry::{RingSink, TelemetryEvent};
    use faasrail_workloads::{CostModel, WorkloadId, WorkloadPool};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool() -> WorkloadPool {
        WorkloadPool::vanilla(&CostModel::default_calibration())
    }

    /// `arrivals` scheduled over a few functions and minutes: exactly that
    /// many under the deterministic IAT models, about that many under the
    /// others.
    fn model(rng: &mut impl Rng, iat: IatModel, arrivals: u64) -> ScheduleModel {
        let functions = rng.range(1..6u32);
        let minutes = rng.range(1..4u32);
        let cells = (functions * minutes) as u64;
        let mut counts = vec![0u64; cells as usize];
        for _ in 0..arrivals {
            counts[rng.below(cells) as usize] += 1;
        }
        let entries = (0..functions)
            .map(|f| ModelEntry {
                function_index: f,
                workload: WorkloadId(rng.range(0..10)),
                alternates: vec![],
                minutes: (0..minutes)
                    .map(|m| (m, counts[(f * minutes + m) as usize]))
                    .filter(|&(_, count)| count > 0)
                    .collect(),
            })
            .filter(|entry| !entry.minutes.is_empty())
            .collect();
        ScheduleModel { duration_minutes: minutes as usize, iat, entries }
    }

    fn run_on(
        path: Path,
        source: &(impl ScheduleSource + ?Sized),
        cluster: &ClusterConfig,
        (policy, balancer): (PolicyKind, BalancerKind),
    ) -> (SimMetrics, Vec<TelemetryEvent>) {
        let sink = RingSink::with_capacity(source.arrivals_hint() as usize * 2 + 64);
        let m = forcing(path, || {
            simulate_observed(
                source,
                &pool(),
                cluster,
                balancer.build().as_mut(),
                policy.build().as_mut(),
                &SimOptions { seed: 5, ..Default::default() },
                &sink,
            )
        });
        (m, sink.events())
    }

    #[test]
    fn the_helper_path_reports_what_the_inline_path_reports() {
        let iats = [
            IatModel::Poisson,
            IatModel::UniformRandom,
            IatModel::Equidistant,
            IatModel::Bursty { cv: 1.5 },
        ];
        let b = BATCH as u64;
        let sizes = [0, 1, b - 1, b, b + 1, 3 * b + 7];
        cases("the_helper_path_reports_what_the_inline_path_reports", 24, |rng| {
            let iat = iats[rng.below(4) as usize];
            let arrivals = sizes[rng.below(sizes.len() as u64) as usize];
            let model = model(rng, iat, arrivals);
            let stream = ArrivalStream::new(&model, rng.next_u64());
            let mut trace = materialize(&stream);
            trace.requests.truncate(arrivals as usize);
            let cluster = ClusterConfig {
                nodes: rng.range(1..5),
                cores_per_node: rng.range(1..9),
                memory_mb_per_node: rng.uniform(300.0..8_192.0),
                ..Default::default()
            };
            let cell = (
                PolicyKind::ALL[rng.below(PolicyKind::ALL.len() as u64) as usize],
                BalancerKind::ALL[rng.below(BalancerKind::ALL.len() as u64) as usize],
            );
            let inline = run_on(Path::Inline, &trace, &cluster, cell);
            assert_eq!(inline.0.arrivals, trace.requests.len() as u64);
            assert_eq!(run_on(Path::Helper, &trace, &cluster, cell), inline, "{iat:?}");
            let inline = run_on(Path::Inline, &stream, &cluster, cell);
            if !matches!(iat, IatModel::Poisson | IatModel::Bursty { .. }) {
                assert_eq!(inline.0.arrivals, arrivals, "{iat:?}");
            }
            assert_eq!(run_on(Path::Helper, &stream, &cluster, cell), inline, "{iat:?}");
        });
    }

    #[test]
    #[should_panic(expected = "minute 2 follows minute 4; an entry's minutes must strictly ascend")]
    fn a_cursor_panic_reaches_the_caller_with_its_own_message() {
        let entry = |minutes| ModelEntry {
            function_index: 0,
            workload: WorkloadId(7),
            alternates: vec![],
            minutes,
        };
        let model = ScheduleModel {
            duration_minutes: 5,
            iat: IatModel::Equidistant,
            entries: vec![
                entry(vec![(0, 3_000), (1, 3_000)]),
                entry(vec![(1, 60), (4, 60), (2, 60)]),
            ],
        };
        let stream = ArrivalStream::new(&model, 1);
        let (mut lb, mut ka) = (BalancerKind::WarmFirst.build(), FixedTtl::ten_minutes());
        let cluster = ClusterConfig::single_node(4, 4_096.0);
        forcing(Path::Helper, || {
            simulate(&stream, &pool(), &cluster, lb.as_mut(), &mut ka, &SimOptions::default())
        });
    }

    /// LRU keep-alive that panics at its 1000th arrival.
    struct Doomed(u64);

    impl KeepAlivePolicy for Doomed {
        fn idle_ttl_ms(&self, workload: WorkloadId) -> Option<u64> {
            LruPolicy.idle_ttl_ms(workload)
        }

        fn on_arrival(&mut self, _: WorkloadId, _: u64) {
            self.0 += 1;
            assert!(self.0 < 1_000, "policy gave up at arrival {}", self.0);
        }

        fn name(&self) -> &'static str {
            "doomed"
        }
    }

    #[test]
    fn an_engine_that_unwinds_leaves_no_helper_behind() {
        // Far more arrivals than the channel holds: the helper has filled
        // it and is polling when the engine gives up.
        let mut rng = faasrail_stats::rng::seeded_rng(3);
        let model = model(&mut rng, IatModel::Equidistant, 40 * BATCH as u64);
        let stream = ArrivalStream::new(&model, 1);
        let lb = &mut BalancerKind::LeastLoaded.build();
        let cluster = ClusterConfig::single_node(64, 65_536.0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            forcing(Path::Helper, || {
                let ka = &mut Doomed(0);
                simulate(&stream, &pool(), &cluster, lb.as_mut(), ka, &SimOptions::default())
            })
        }));
        let panic = unwound.expect_err("the policy panics");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(message, "policy gave up at arrival 1000");
    }

    #[test]
    fn the_channel_holds_two_mean_minutes_within_its_bounds() {
        let in_flight_over = |arrivals: u64, duration_minutes| {
            let entry = ModelEntry {
                function_index: 0,
                workload: WorkloadId(0),
                alternates: vec![],
                minutes: vec![(0, arrivals)],
            };
            let entries = if arrivals > 0 { vec![entry] } else { vec![] };
            let model = ScheduleModel { duration_minutes, iat: IatModel::Equidistant, entries };
            in_flight(&ArrivalStream::new(&model, 0))
        };
        assert_eq!(in_flight_over(0, 0), IN_FLIGHT);
        // The benchmark's day, 70 arrivals a minute, gets the floor.
        assert_eq!(in_flight_over(100_000, 1_440), IN_FLIGHT);
        // The paper day's 630 000 a minute: 1 231 buffers, 19 MiB.
        assert_eq!(in_flight_over(630_000 * 1_440, 1_440), 1_231);
        assert_eq!(in_flight_over(630_000 * 1_440, 1), MAX_IN_FLIGHT);
    }

    #[test]
    fn a_counted_worker_takes_no_second_count_and_a_full_box_no_helper() {
        assert!(engine_core().is_some());
        let everything = SimWorkers::count(cores());
        everything.run(|| {
            assert!(engine_core().is_none(), "a counted worker's engine is counted already");
            assert!(helper_core().is_none(), "every core runs a simulation");
            assert!(forcing(Path::Helper, helper_core).is_some());
        });
        assert!(engine_core().is_some());
        assert!(forcing(Path::Inline, helper_core).is_none());
    }
}
