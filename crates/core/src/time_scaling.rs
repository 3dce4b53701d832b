//! Time scaling: fitting a 24-hour trace day into an experiment window
//! (paper §3.2.1.2).
//!
//! Two modes: **Thumbnails** (default) rebins the 1440 trace minutes into
//! one group per experiment minute, preserving the diurnal shape at a
//! coarser resolution; **Minute Range** replays a verbatim window of trace
//! minutes, preserving exact minute-level burstiness but discarding the rest
//! of the day.
//!
//! Both are one minute → bin map, defined once by the trace minutes each
//! experiment minute counts (`TimeScaling::trace_minutes`): every trace
//! minute lands in at most one experiment minute. The shrink ray looks each
//! sparse entry up in `TimeScaling::minute_bins` and adds it straight into
//! its group's bin; [`TimeScaling::apply`] sums one dense day's runs.

use faasrail_trace::MINUTES_PER_DAY;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Time-scaling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeScaling {
    /// Aggregate adjacent trace minutes into `experiment_minutes` groups.
    Thumbnails { experiment_minutes: usize },
    /// Replay trace minutes `[start, start + experiment_minutes)` verbatim.
    MinuteRange { start: usize, experiment_minutes: usize },
}

impl TimeScaling {
    /// The experiment duration this mode produces, in minutes.
    pub fn experiment_minutes(&self) -> usize {
        match *self {
            TimeScaling::Thumbnails { experiment_minutes } => experiment_minutes,
            TimeScaling::MinuteRange { experiment_minutes, .. } => experiment_minutes,
        }
    }

    /// Validate the mode against a 1440-minute day.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TimeScaling::Thumbnails { experiment_minutes } => {
                if experiment_minutes == 0 || experiment_minutes > MINUTES_PER_DAY {
                    Err(format!(
                        "thumbnails experiment must be 1..={MINUTES_PER_DAY} minutes, got {experiment_minutes}"
                    ))
                } else {
                    Ok(())
                }
            }
            TimeScaling::MinuteRange { start, experiment_minutes } => {
                if experiment_minutes == 0 {
                    Err("minute range must be non-empty".into())
                } else if start + experiment_minutes > MINUTES_PER_DAY {
                    Err(format!(
                        "minute range [{start}, {}) exceeds the {MINUTES_PER_DAY}-minute day",
                        start + experiment_minutes
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Apply the mode to one function's dense per-minute day series.
    ///
    /// ```
    /// use faasrail_core::TimeScaling;
    /// let day: Vec<u64> = (0..1440).map(|m| m % 3).collect();
    /// // Thumbnails: total preserved across the rebinned experiment.
    /// let two_hours = TimeScaling::Thumbnails { experiment_minutes: 120 }.apply(&day);
    /// assert_eq!(two_hours.iter().sum::<u64>(), day.iter().sum::<u64>());
    /// // Minute range: a verbatim window.
    /// let window = TimeScaling::MinuteRange { start: 10, experiment_minutes: 3 }.apply(&day);
    /// assert_eq!(window, day[10..13].to_vec());
    /// ```
    pub fn apply(&self, day: &[u64]) -> Vec<u64> {
        assert_eq!(day.len(), MINUTES_PER_DAY, "expected a full 1440-minute day");
        self.validate().expect("invalid time scaling");
        (0..self.experiment_minutes())
            .map(|bin| day[self.trace_minutes(bin)].iter().sum())
            .collect()
    }

    /// The experiment minute each trace minute is counted in, `None` outside
    /// a Minute Range window.
    ///
    /// # Panics
    /// Panics if the mode fails [`TimeScaling::validate`].
    pub(crate) fn minute_bins(&self) -> [Option<u16>; MINUTES_PER_DAY] {
        self.validate().expect("invalid time scaling");
        let mut bins = [None; MINUTES_PER_DAY];
        for bin in 0..self.experiment_minutes() {
            bins[self.trace_minutes(bin)].fill(Some(bin as u16));
        }
        bins
    }

    /// The trace minutes experiment minute `bin` counts: Thumbnails' group
    /// `[g·1440/E, (g+1)·1440/E)`, `rebin_sum`'s, or Minute Range's one
    /// minute `start + bin`. Disjoint, in order, for the bins of a valid mode.
    fn trace_minutes(&self, bin: usize) -> Range<usize> {
        match *self {
            TimeScaling::Thumbnails { experiment_minutes: e } => {
                bin * MINUTES_PER_DAY / e..(bin + 1) * MINUTES_PER_DAY / e
            }
            TimeScaling::MinuteRange { start, .. } => start + bin..start + bin + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_day() -> Vec<u64> {
        (0..MINUTES_PER_DAY as u64).collect()
    }

    #[test]
    fn thumbnails_two_hours_preserves_total_and_shape() {
        let day = ramp_day();
        let mode = TimeScaling::Thumbnails { experiment_minutes: 120 };
        let scaled = mode.apply(&day);
        assert_eq!(scaled.len(), 120);
        assert_eq!(scaled.iter().sum::<u64>(), day.iter().sum::<u64>());
        // A monotone day stays monotone after rebinning.
        assert!(scaled.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn minute_range_is_verbatim() {
        let day = ramp_day();
        let mode = TimeScaling::MinuteRange { start: 100, experiment_minutes: 30 };
        let scaled = mode.apply(&day);
        assert_eq!(scaled, (100u64..130).collect::<Vec<_>>());
    }

    #[test]
    fn full_day_thumbnails_is_identity() {
        let day = ramp_day();
        let mode = TimeScaling::Thumbnails { experiment_minutes: MINUTES_PER_DAY };
        assert_eq!(mode.apply(&day), day);
    }

    #[test]
    fn validation_errors() {
        assert!(TimeScaling::Thumbnails { experiment_minutes: 0 }.validate().is_err());
        assert!(TimeScaling::Thumbnails { experiment_minutes: 2000 }.validate().is_err());
        assert!(TimeScaling::MinuteRange { start: 1435, experiment_minutes: 10 }
            .validate()
            .is_err());
        assert!(TimeScaling::MinuteRange { start: 0, experiment_minutes: 0 }.validate().is_err());
        assert!(TimeScaling::MinuteRange { start: 1430, experiment_minutes: 10 }
            .validate()
            .is_ok());
    }

    #[test]
    fn thumbnail_bins_are_rebin_sums_groups_at_every_length() {
        use faasrail_stats::timeseries::rebin_sum;
        let ones = vec![1u64; MINUTES_PER_DAY];
        let day: Vec<u64> = (0..MINUTES_PER_DAY as u64).map(|m| m * m % 97).collect();
        for e in 1..=MINUTES_PER_DAY {
            let mode = TimeScaling::Thumbnails { experiment_minutes: e };
            let bins: Vec<usize> = mode
                .minute_bins()
                .iter()
                .map(|b| b.expect("every minute binned") as usize)
                .collect();
            // Ascending bins whose sizes are rebin_sum's group sizes are
            // rebin_sum's contiguous groups.
            assert!(bins.windows(2).all(|w| w[0] <= w[1]), "E = {e}");
            let mut sizes = vec![0u64; e];
            for &b in &bins {
                sizes[b] += 1;
            }
            assert_eq!(sizes, rebin_sum(&ones, e), "E = {e}");
            assert_eq!(mode.apply(&day), rebin_sum(&day, e), "E = {e}");
        }
    }

    #[test]
    fn minute_range_bins_hold_the_window_alone() {
        for (start, e) in [(0, 1), (0, 1440), (1439, 1), (600, 30), (1410, 30), (1, 1438)] {
            let bins = TimeScaling::MinuteRange { start, experiment_minutes: e }.minute_bins();
            for (m, &bin) in bins.iter().enumerate() {
                let want = (start..start + e).contains(&m).then(|| (m - start) as u16);
                assert_eq!(bin, want, "[{start}, {}) at minute {m}", start + e);
            }
        }
    }

    #[test]
    fn thumbnails_smooths_peaks() {
        // The paper notes Thumbnails can hide steep single-minute peaks:
        // a lone spike is averaged into its group.
        let mut day = vec![0u64; MINUTES_PER_DAY];
        day[700] = 1200;
        let scaled = TimeScaling::Thumbnails { experiment_minutes: 120 }.apply(&day);
        let peak = *scaled.iter().max().unwrap();
        assert_eq!(peak, 1200, "sum-rebinning keeps the mass in one group");
        // ...but MinuteRange preserves the spike's isolation exactly.
        let window = TimeScaling::MinuteRange { start: 695, experiment_minutes: 10 }.apply(&day);
        assert_eq!(window[5], 1200);
        assert_eq!(window.iter().filter(|&&v| v > 0).count(), 1);
    }
}
