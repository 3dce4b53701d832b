//! Clocks and order statistics the workloads share.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// `std` links the C library; these are its prototypes on Linux.
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs, the kernel's default maximum.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on, lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..64 * mask.len()).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpu`.
pub fn pin_thread_to(cpu: usize) {
    let mut only: CpuMask = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of the size passed that the call reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpu}) failed");
}

/// Where a one-CPU workload runs: everything that does a request's work on
/// `work`; the open-loop pacer, which spins, on `pacer`.
///
/// The replay rows and the ledger hand work from thread to thread several
/// times per request. On the 2-vCPU VM the benchmark is calibrated on, a
/// wake-up that crosses vCPUs goes through the hypervisor and costs about
/// 20 us against 2 us on one vCPU, and the scheduler's choice between the
/// two flips for minutes at a time, moving every such number by 2x to 10x
/// with no change to the program. With the threads that serve a request on
/// one CPU the numbers are the program's. The pacer is kept off that CPU:
/// it spins until the next request is due, and a spinner that shares the
/// CPU with the threads it feeds turns every latency into the scheduler's
/// preemption delay. `pacer` is `None` where only one CPU is allowed; the
/// pacer then shares `work`.
#[derive(Debug, Clone, Copy)]
pub struct CpuSplit {
    pub work: usize,
    pub pacer: Option<usize>,
}

impl CpuSplit {
    /// Pins the calling thread (and the threads it spawns from now on) to
    /// the lowest allowed CPU and names the next one for the pacer. Call it
    /// before the threads to be measured exist.
    pub fn pin() -> CpuSplit {
        let cpus = allowed_cpus();
        let work = *cpus.first().expect("a running thread is allowed on some CPU");
        pin_thread_to(work);
        CpuSplit { work, pacer: cpus.get(1).copied() }
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the x86-64/aarch64
    // Linux layout (two 64-bit fields); `clock_gettime` writes only it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used, all threads, user and system.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall seconds `f` takes, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Median per-call nanoseconds of `op` over `rounds` rounds of `calls`
/// calls each. Timing whole rounds keeps the clock's own cost (~20 ns) out
/// of operations that take less than that.
pub fn ns_per_call(rounds: usize, calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_round: Vec<f64> = (0..rounds)
        .map(|round| {
            let start = Instant::now();
            for i in 0..calls {
                op(round * calls + i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_round)
}

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Linear-interpolated quantile of `values`, which it sorts.
///
/// # Panics
/// Panics if `values` is empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    sort(values);
    let rank = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the highest `share` of `values` (of one value at least), which
/// it sorts.
///
/// # Panics
/// Panics if `values` is empty.
pub fn mean_of_highest(values: &mut [f64], share: f64) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    sort(values);
    let count = ((values.len() as f64 * share).ceil() as usize).clamp(1, values.len());
    values[values.len() - count..].iter().sum::<f64>() / count as f64
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p90 does not (fewer than 100
/// samples): a tail read off fewer than ten samples is noise.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9].into_iter().find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Median, quartiles and relative spread of one metric's values across
/// runs, as the contract defines the spread: `(q3 - q1) / median` with
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(q3 - q1) / |median|`; 0 when the median is 0.
    pub spread: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        sort(&mut v);
        let n = v.len();
        // Exclusive method: the i-th quartile sits at rank i(n+1)/4,
        // 1-based, clamped into the sample.
        let exclusive = |i: usize| {
            let rank = (i * (n + 1)) as f64 / 4.0;
            let lo = (rank.floor() as usize).clamp(1, n.max(1));
            let hi = (lo + 1).min(n);
            v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (rank - lo as f64).clamp(0.0, 1.0)
        };
        let (q1, median, q3) = if n == 0 {
            (0.0, 0.0, 0.0)
        } else if n == 1 {
            (v[0], v[0], v[0])
        } else {
            (exclusive(1), exclusive(2), exclusive(3))
        };
        let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() };
        Spread { n, median, q1, q3, spread }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn mean_of_highest_takes_at_least_one_value() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(mean_of_highest(&mut v, 0.05), 39.5);
        assert_eq!(mean_of_highest(&mut v, 0.051), 39.0);
        assert_eq!(mean_of_highest(&mut v, 1.0), 20.5);
        assert_eq!(mean_of_highest(&mut [3.0, 9.0, 6.0], 0.05), 9.0);
        assert_eq!(mean_of_highest(&mut [3.0, 9.0, 6.0], 0.0), 9.0);
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Spread::of(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; clamped
        // into the sample here, which only matters below three runs.
        assert_eq!(Spread::of(&[5.0]).spread, 0.0);
    }

    #[test]
    fn clocks_advance_and_rss_is_positive() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > p0 && thread_cpu_s() > t0, "{x}");
        assert!(peak_rss_mib() > 1.0);
    }
}
