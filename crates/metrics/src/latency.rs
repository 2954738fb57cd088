//! Latency percentiles and SLO violation accounting.

use dilu_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Records request latencies and answers percentile / SLO queries.
///
/// Samples are kept exactly (simulation scale makes this cheap) and sorted
/// lazily on query, so recording stays O(1).
///
/// # Examples
///
/// ```
/// use dilu_metrics::LatencyRecorder;
/// use dilu_sim::SimDuration;
///
/// let mut lat = LatencyRecorder::new();
/// lat.record(SimDuration::from_millis(12));
/// lat.record(SimDuration::from_millis(48));
/// assert_eq!(lat.len(), 2);
/// assert_eq!(lat.p95(), SimDuration::from_millis(48));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Vec<SimDuration>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples.push(latency);
    }

    /// The number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The latency at quantile `q` in `[0, 1]` (nearest-rank method).
    ///
    /// Returns [`SimDuration::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median latency.
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// Arithmetic mean latency, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.samples.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(total / self.samples.len() as u64)
    }

    /// Fraction of samples strictly exceeding `slo`, in `[0, 1]`.
    ///
    /// This is the paper's SLO violation rate (SVR). Returns `0.0` when empty.
    pub fn violation_rate(&self, slo: SimDuration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let violations = self.samples.iter().filter(|&&d| d > slo).count();
        violations as f64 / self.samples.len() as f64
    }

    /// Iterates over the raw samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.samples.iter().copied()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }
}

impl Extend<SimDuration> for LatencyRecorder {
    fn extend<I: IntoIterator<Item = SimDuration>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

impl FromIterator<SimDuration> for LatencyRecorder {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        LatencyRecorder { samples: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: &[u64]) -> LatencyRecorder {
        ms.iter().map(|&m| SimDuration::from_millis(m)).collect()
    }

    #[test]
    fn empty_recorder_is_safe() {
        let lat = LatencyRecorder::new();
        assert!(lat.is_empty());
        assert_eq!(lat.p50(), SimDuration::ZERO);
        assert_eq!(lat.mean(), SimDuration::ZERO);
        assert_eq!(lat.violation_rate(SimDuration::from_millis(1)), 0.0);
    }

    #[test]
    fn zero_and_one_sample_percentiles_are_well_defined() {
        // Zero samples: every quantile (including the boundaries) is zero.
        let empty = LatencyRecorder::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(empty.quantile(q), SimDuration::ZERO, "q={q}");
        }
        // One sample: every quantile is that sample (nearest rank clamps the
        // rank into [1, 1], so q=0.0 must not underflow).
        let one = rec(&[42]);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(one.quantile(q), SimDuration::from_millis(42), "q={q}");
        }
        assert_eq!(one.mean(), SimDuration::from_millis(42));
        assert_eq!(one.violation_rate(SimDuration::from_millis(42)), 0.0);
        assert_eq!(one.violation_rate(SimDuration::from_millis(41)), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let lat = rec(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(lat.p50(), SimDuration::from_millis(5));
        assert_eq!(lat.p95(), SimDuration::from_millis(10));
        assert_eq!(lat.quantile(0.0), SimDuration::from_millis(1));
        assert_eq!(lat.quantile(1.0), SimDuration::from_millis(10));
    }

    #[test]
    fn percentiles_are_insensitive_to_order() {
        let a = rec(&[9, 1, 5, 7, 3]);
        let b = rec(&[1, 3, 5, 7, 9]);
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p95(), b.p95());
    }

    #[test]
    fn violation_rate_counts_strict_excess() {
        let lat = rec(&[10, 20, 30, 40]);
        assert_eq!(lat.violation_rate(SimDuration::from_millis(30)), 0.25);
        assert_eq!(lat.violation_rate(SimDuration::from_millis(5)), 1.0);
        assert_eq!(lat.violation_rate(SimDuration::from_millis(40)), 0.0);
    }

    #[test]
    fn mean_is_exact_for_uniform() {
        let lat = rec(&[10, 20, 30]);
        assert_eq!(lat.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = rec(&[1, 2]);
        let b = rec(&[3, 4]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.quantile(1.0), SimDuration::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        rec(&[1]).quantile(1.5);
    }
}
