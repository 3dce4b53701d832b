//! Logarithmic fixed-bucket histograms.
//!
//! [`LogHistogram`] doubles as the load generator's latency recorder: FaaS
//! latencies span microseconds to minutes, so log-spaced buckets give a
//! bounded-memory recorder with bounded relative quantile error, in the
//! spirit of HdrHistogram.

use serde::{Deserialize, Serialize};

/// Histogram with logarithmically spaced buckets over `[lo, hi)`.
///
/// Bucket boundaries are `lo * growth^i`; quantile estimates carry a bounded
/// *relative* error of at most `growth - 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    lo: f64,
    log_lo: f64,
    log_growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    /// Exact running min/max for tail reporting. `None` until the first
    /// observation — JSON has no ±infinity, so sentinel non-finite floats
    /// would serialize as `null` and fail to round-trip.
    min_seen: Option<f64>,
    max_seen: Option<f64>,
}

impl LogHistogram {
    /// Histogram over `[lo, hi)` with buckets growing by `growth` (> 1).
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `growth > 1`.
    pub fn new(lo: f64, hi: f64, growth: f64) -> Self {
        assert!(lo > 0.0 && lo < hi, "LogHistogram requires 0 < lo < hi");
        assert!(growth > 1.0, "LogHistogram requires growth > 1");
        let n = ((hi / lo).ln() / growth.ln()).ceil() as usize;
        LogHistogram {
            lo,
            log_lo: lo.ln(),
            log_growth: growth.ln(),
            counts: vec![0; n.max(1)],
            underflow: 0,
            overflow: 0,
            total: 0,
            min_seen: None,
            max_seen: None,
        }
    }

    /// A latency recorder: 1 µs to 10 min (in seconds), 5% resolution.
    pub fn latency_seconds() -> Self {
        Self::new(1e-6, 600.0, 1.05)
    }

    /// A pacer-lateness recorder: 1 µs to 60 s (in seconds), 5% resolution;
    /// the buckets of [`latency_seconds`](Self::latency_seconds) below 60 s.
    pub fn lateness_seconds() -> Self {
        Self::new(1e-6, 60.0, 1.05)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.record_slot(x);
    }

    /// Record one observation and return its slot: 0 for underflow,
    /// `i + 1` for bucket `i`, `counts.len() + 1` for overflow.
    #[inline]
    fn record_slot(&mut self, x: f64) -> usize {
        self.total += 1;
        self.min_seen = Some(self.min_seen.map_or(x, |m| m.min(x)));
        self.max_seen = Some(self.max_seen.map_or(x, |m| m.max(x)));
        if x < self.lo {
            self.underflow += 1;
            return 0;
        }
        let idx = ((x.ln() - self.log_lo) / self.log_growth) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
            self.counts.len() + 1
        } else {
            self.counts[idx] += 1;
            idx + 1
        }
    }

    /// Observations in `slot` (numbered as by `record_slot`).
    fn slot_count(&self, slot: usize) -> u64 {
        match slot {
            0 => self.underflow,
            s if s <= self.counts.len() => self.counts[s - 1],
            _ => self.overflow,
        }
    }

    /// What [`quantile`](Self::quantile) returns when its answer lies in
    /// `slot`.
    fn slot_value(&self, slot: usize) -> f64 {
        match slot {
            0 => self.min(),
            s if s <= self.counts.len() => self.bucket_mid(s - 1),
            _ => self.max(),
        }
    }

    /// How many observations at or below the answer [`quantile`](Self::quantile)
    /// requires.
    fn quantile_rank(&self, q: f64) -> u64 {
        (q * self.total as f64).ceil().max(1.0) as u64
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact minimum observation recorded (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min_seen.unwrap_or(f64::INFINITY)
    }

    /// Exact maximum observation recorded (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max_seen.unwrap_or(f64::NEG_INFINITY)
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        (self.log_lo + i as f64 * self.log_growth).exp()
    }

    /// Geometric midpoint of bucket `i`.
    pub fn bucket_mid(&self, i: usize) -> f64 {
        (self.log_lo + (i as f64 + 0.5) * self.log_growth).exp()
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile `q` in `[0,1]` (bucket-midpoint rule; underflow
    /// maps to the exact min, overflow to the exact max).
    ///
    /// # Panics
    /// Panics when empty or `q` outside `[0,1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let target = self.quantile_rank(q);
        let mut acc = self.underflow;
        if acc >= target {
            return self.min();
        }
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bucket_mid(i);
            }
        }
        self.max()
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi` (past the last bucket).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The histogram of observations recorded since `earlier` was captured,
    /// where `earlier` is a prior clone/snapshot of this histogram.
    /// Per-bucket and under/overflow counts subtract (saturating, so a
    /// mismatched pair degrades rather than panics); `min`/`max` stay the
    /// cumulative extremes, since exact windowed extremes are not
    /// recoverable from two snapshots.
    ///
    /// # Panics
    /// Panics on bucket layout mismatch.
    pub fn delta(&self, earlier: &LogHistogram) -> LogHistogram {
        assert_eq!(self.counts.len(), earlier.counts.len(), "bucket count mismatch");
        assert!(
            (self.log_lo - earlier.log_lo).abs() < 1e-12
                && (self.log_growth - earlier.log_growth).abs() < 1e-12,
            "bucket layout mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.counts.iter_mut().zip(&earlier.counts) {
            *a = a.saturating_sub(*b);
        }
        out.underflow = out.underflow.saturating_sub(earlier.underflow);
        out.overflow = out.overflow.saturating_sub(earlier.overflow);
        out.total = out.total.saturating_sub(earlier.total);
        out
    }

    /// Merge another histogram with identical bucket layout.
    ///
    /// # Panics
    /// Panics on layout mismatch.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bucket count mismatch");
        assert!(
            (self.log_lo - other.log_lo).abs() < 1e-12
                && (self.log_growth - other.log_growth).abs() < 1e-12,
            "bucket layout mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.min_seen = match (self.min_seen, other.min_seen) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_seen = match (self.max_seen, other.max_seen) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A [`LogHistogram`] that keeps one quantile current as it records.
///
/// [`LogHistogram::quantile`] walks the buckets on every call. This keeps a
/// pointer to the slot (underflow, a bucket, or overflow) holding the
/// answer for one fixed `q`, and the count of observations below that
/// slot. A record moves the pointer by as many non-empty slots as the rank
/// moved — usually none or one — and recomputes the answer only when the
/// pointer moved or sits on the exact min or max, so reading the quantile
/// costs neither a walk nor an `exp`. [`value`](Self::value) is bit for bit
/// `histogram().quantile(q)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningQuantile {
    hist: LogHistogram,
    q: f64,
    /// The slot holding the answer: the first whose cumulative count
    /// reaches the rank `quantile` requires.
    slot: usize,
    /// Observations in slots before `slot`.
    below: u64,
    /// What `quantile(q)` returns, once anything was recorded.
    value: f64,
}

impl RunningQuantile {
    /// Track quantile `q` of `hist`, which may already hold observations.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0,1]`.
    pub fn new(hist: LogHistogram, q: f64) -> Self {
        let mut tracker = RunningQuantile { hist, q, slot: 0, below: 0, value: 0.0 };
        tracker.retarget(q);
        tracker
    }

    /// Track a different quantile of the same observations (one walk of
    /// the buckets).
    ///
    /// # Panics
    /// Panics when `q` is outside `[0,1]`.
    pub fn retarget(&mut self, q: f64) {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        self.q = q;
        self.slot = 0;
        self.below = 0;
        self.settle();
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if self.hist.record_slot(x) < self.slot {
            self.below += 1;
        }
        self.settle();
    }

    /// The observations.
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// `histogram().quantile(q)`, or `None` when nothing was recorded.
    pub fn value(&self) -> Option<f64> {
        (self.hist.total > 0).then_some(self.value)
    }

    /// Move the pointer to the first slot whose cumulative count reaches
    /// the current rank, and refresh the answer.
    fn settle(&mut self) {
        if self.hist.total == 0 {
            return;
        }
        let from = self.slot;
        let rank = self.hist.quantile_rank(self.q);
        while self.below >= rank {
            self.slot -= 1;
            self.below -= self.hist.slot_count(self.slot);
        }
        let last = self.hist.counts.len() + 1;
        while self.slot < last && self.below + self.hist.slot_count(self.slot) < rank {
            self.below += self.hist.slot_count(self.slot);
            self.slot += 1;
        }
        // A bucket's midpoint is fixed; underflow and overflow answer the
        // running min and max.
        if self.slot != from || self.slot == 0 || self.slot == last {
            self.value = self.hist.slot_value(self.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cases, Rng};

    #[test]
    fn log_histogram_quantile_relative_error() {
        let mut h = LogHistogram::new(1e-3, 1e3, 1.05);
        // Record a known distribution: values 1..=1000.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 500.0 - 1.0).abs() < 0.06, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 990.0 - 1.0).abs() < 0.06, "p99 = {p99}");
    }

    #[test]
    fn lateness_and_latency_recorders_agree_below_a_minute() {
        let (mut late, mut lat) =
            (LogHistogram::lateness_seconds(), LogHistogram::latency_seconds());
        for i in 0..2_000 {
            let x = 1e-7 * 1.01f64.powi(i); // 0.1 µs .. ≈ 44 s
            late.record(x);
            lat.record(x);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(late.quantile(q), lat.quantile(q), "q = {q}");
        }
        assert_eq!(late.counts(), &lat.counts()[..late.counts().len()]);
    }

    #[test]
    fn log_histogram_overflow_and_min_max() {
        let mut h = LogHistogram::new(1.0, 10.0, 2.0);
        h.record(0.5);
        h.record(100.0);
        h.record(2.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.quantile(1.0), 100.0);
        // lowest observation is in the underflow zone → exact min
        assert_eq!(h.quantile(0.01), 0.5);
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new(1.0, 1000.0, 1.1);
        let mut b = LogHistogram::new(1.0, 1000.0, 1.1);
        for i in 1..=50 {
            a.record(i as f64);
        }
        for i in 51..=100 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.total(), 100);
        let p50 = a.quantile(0.5);
        assert!((p50 / 50.0 - 1.0).abs() < 0.12, "p50 = {p50}");
    }

    #[test]
    fn log_histogram_delta_recovers_the_window() {
        let mut h = LogHistogram::new(1.0, 1000.0, 1.1);
        for i in 1..=50 {
            h.record(i as f64);
        }
        let snap = h.clone();
        h.record(0.5); // underflow
        h.record(5000.0); // overflow
        for i in 51..=100 {
            h.record(i as f64);
        }
        let d = h.delta(&snap);
        assert_eq!(d.total(), 52);
        assert_eq!(d.underflow(), 1);
        assert_eq!(d.overflow(), 1);
        assert_eq!(d.counts().iter().sum::<u64>(), 50);
        // An empty window deltas to zero.
        let z = h.delta(&h.clone());
        assert_eq!(z.total(), 0);
        assert_eq!(z.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn latency_seconds_covers_microseconds_to_minutes() {
        let mut h = LogHistogram::latency_seconds();
        h.record(2e-6);
        h.record(1.0);
        h.record(599.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn log_quantile_monotone() {
        cases("log_quantile_monotone", 256, |rng| {
            let mut h = LogHistogram::new(1e-4, 1e4, 1.05);
            for _ in 0..rng.range(1..200usize) {
                h.record(rng.uniform(1e-3..1e3));
            }
            let (q1, q2) = (rng.next_f64(), rng.next_f64());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(h.quantile(lo) <= h.quantile(hi) + 1e-9);
        });
    }

    #[test]
    fn running_quantile_is_the_walked_quantile_after_every_record() {
        cases("running_quantile_is_the_walked_quantile_after_every_record", 256, |rng| {
            let xs: Vec<f64> = (0..rng.range(1..300usize))
                .map(|_| match rng.below(5) {
                    0 => rng.uniform(0.01..1.0),
                    1 => rng.uniform(1.0..100.0),
                    2 => rng.uniform(100.0..1e4),
                    3 => 1.0,
                    _ => 100.0,
                })
                .collect();
            let retarget_at = rng.range(0..300usize);
            for q in [0.0, 0.10, 0.5, 0.99, 1.0] {
                let mut running = RunningQuantile::new(LogHistogram::new(1.0, 100.0, 1.5), q);
                assert_eq!(running.value(), None);
                for (i, &x) in xs.iter().enumerate() {
                    if i == retarget_at {
                        // Changing q part-way answers as if it had been q all along.
                        running.retarget(1.0 - q);
                        running.retarget(q);
                    }
                    running.record(x);
                    let walked = running.histogram().quantile(q);
                    assert_eq!(
                        running.value().map(f64::to_bits),
                        Some(walked.to_bits()),
                        "q {} after {} records",
                        q,
                        i + 1
                    );
                }
            }
        });
    }

    #[test]
    fn counts_conserved() {
        cases("counts_conserved", 256, |rng| {
            let n = rng.range(0..200usize);
            let mut h = LogHistogram::new(1.0, 100.0, 1.5);
            for _ in 0..n {
                h.record(rng.uniform(-10.0..1e4));
            }
            let bucketed: u64 = h.counts().iter().sum();
            assert_eq!(bucketed + h.underflow + h.overflow, n as u64);
        });
    }
}
