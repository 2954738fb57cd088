//! Event counters: cold starts, resizes, per-second request rates and the
//! metrics sampling clock.

use dilu_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Counts cold starts, their cumulative startup delay, and — when a network
/// plane prices the weight fetch — the fetch/provision breakdown.
///
/// The paper reports cold start counts (CSC) per trace; the cumulative delay
/// feeds the saved-GPU-time comparison. With a network plane configured, a
/// cold start is either a *fetch* (weights pulled from the registry over
/// contended links) or a *cache hit* (weights already resident on the node,
/// only the provision residue is paid); `fetch_delay` isolates the byte-bound
/// part of `total_delay`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ColdStartCounter {
    count: u64,
    total_delay: SimDuration,
    fetch_delay: SimDuration,
    fetches: u64,
    cache_hits: u64,
}

impl ColdStartCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cold start that took `delay` before serving (no network
    /// plane: the fetch/provision split is unknown).
    pub fn record(&mut self, delay: SimDuration) {
        self.count += 1;
        self.total_delay += delay;
    }

    /// Records one cold start served from the node's model cache: no fetch,
    /// only the provision residue `delay`.
    pub fn record_cached(&mut self, delay: SimDuration) {
        self.count += 1;
        self.total_delay += delay;
        self.cache_hits += 1;
    }

    /// Records one cold start that fetched weights from the registry:
    /// `total` elapsed before serving, of which `fetch` was the transfer.
    pub fn record_fetch(&mut self, total: SimDuration, fetch: SimDuration) {
        self.count += 1;
        self.total_delay += total;
        self.fetch_delay += fetch;
        self.fetches += 1;
    }

    /// Number of cold starts observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all cold start delays.
    pub fn total_delay(&self) -> SimDuration {
        self.total_delay
    }

    /// The part of `total_delay` spent transferring weights.
    pub fn fetch_delay(&self) -> SimDuration {
        self.fetch_delay
    }

    /// Cold starts that paid for a registry fetch.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Cold starts served from a node's model cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Fraction of cache-decided cold starts that hit (zero when the
    /// network plane never weighed in).
    pub fn cache_hit_rate(&self) -> f64 {
        let decided = self.cache_hits + self.fetches;
        if decided == 0 {
            0.0
        } else {
            self.cache_hits as f64 / decided as f64
        }
    }

    /// Mean fetch transfer time in milliseconds over fetching cold starts
    /// (zero when none fetched).
    pub fn mean_fetch_ms(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.fetch_delay.as_millis_f64() / self.fetches as f64
        }
    }
}

/// Rolls of a full [`RateWindow`] between two compactions of its buffer.
const ROLL_SLACK: usize = 8;

/// A sliding window of per-second request counts.
///
/// Dilu's global scaler (§3.4.2) keeps a 40 s window of RPS values and scales
/// out when at least φ_out of them exceed deployed capacity.
///
/// Closing a second never shifts the whole window: the samples are a run of
/// one zeroed buffer of eight more slots than the capacity, allocated up
/// front, so a roll appends and moves the start forward, and only every
/// eighth roll of a full window copies the live samples back to the front.
/// [`samples`](Self::samples) stays one contiguous, oldest-first slice.
/// Rolls of idle seconds touch no sample: the slots past the run stay
/// zero, so closing a zero count writes nothing, and a full window of zeros
/// closing another zero is left as it is.
///
/// # Examples
///
/// ```
/// use dilu_metrics::RateWindow;
/// use dilu_sim::SimTime;
///
/// let mut w = RateWindow::new(3);
/// w.observe(SimTime::from_millis(500));
/// w.observe(SimTime::from_millis(800));
/// w.observe(SimTime::from_secs(1));
/// w.roll_to(SimTime::from_secs(2));
/// assert_eq!(w.samples(), [2, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RateWindow {
    capacity: usize,
    /// `buf[start..end]` holds the closed per-second counts, oldest first,
    /// at most `capacity` of them; `buf[end..]` is all zeros.
    buf: Box<[u64]>,
    start: usize,
    end: usize,
    current_second: u64,
    current_count: u64,
    /// One past the last second closed with a non-zero count (0 if none).
    busy_until: u64,
}

impl RateWindow {
    /// Creates a window holding up to `capacity` closed one-second buckets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RateWindow {
            capacity,
            buf: vec![0; capacity + ROLL_SLACK].into_boxed_slice(),
            start: 0,
            end: 0,
            current_second: 0,
            current_count: 0,
            busy_until: 0,
        }
    }

    /// Records one request arriving at `now`.
    pub fn observe(&mut self, now: SimTime) {
        self.roll_to(now);
        self.current_count += 1;
    }

    /// Advances the window to `now`, closing any completed seconds (recorded
    /// as zero if no requests arrived in them).
    pub fn roll_to(&mut self, now: SimTime) {
        let sec = now.as_secs();
        while self.current_second < sec {
            let (second, count) = (self.current_second, self.current_count);
            self.current_second += 1;
            self.current_count = 0;
            if count > 0 {
                self.busy_until = second + 1;
            } else if self.is_full() && self.busy_until + self.capacity as u64 <= second {
                // Every sample is zero, and so is the one closing.
                continue;
            }
            self.push_closed(count);
        }
    }

    fn push_closed(&mut self, count: u64) {
        if self.end == self.buf.len() {
            let len = self.end - self.start;
            self.buf.copy_within(self.start..self.end, 0);
            self.buf[len..self.end].fill(0);
            self.start = 0;
            self.end = len;
        }
        if count > 0 {
            self.buf[self.end] = count;
        }
        self.end += 1;
        if self.end - self.start > self.capacity {
            self.start += 1;
        }
    }

    /// The closed per-second samples, oldest first.
    pub fn samples(&self) -> &[u64] {
        &self.buf[self.start..self.end]
    }

    /// How many closed samples exceed `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.samples().iter().filter(|&&c| c as f64 > threshold).count()
    }

    /// How many closed samples are strictly below `threshold`.
    pub fn count_below(&self, threshold: f64) -> usize {
        self.samples().iter().filter(|&&c| (c as f64) < threshold).count()
    }

    /// `true` once the window holds `capacity` closed samples.
    pub fn is_full(&self) -> bool {
        self.samples().len() == self.capacity
    }

    /// Mean of the closed samples, or zero when none have closed.
    pub fn mean(&self) -> f64 {
        let samples = self.samples();
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        }
    }
}

/// Counts vertical quota resizes applied to a function's instances.
///
/// Dilu's 2D co-scaling absorbs bursts by growing `<request, limit>` SM
/// quotas of *running* instances (millisecond-scale) before paying a cold
/// start for a new one; this counter is the vertical analogue of
/// [`ColdStartCounter`].
///
/// # Examples
///
/// ```
/// use dilu_metrics::ResizeCounter;
///
/// let mut r = ResizeCounter::new();
/// r.record_grow();
/// r.record_grow();
/// r.record_shrink();
/// assert_eq!((r.grows(), r.shrinks(), r.total()), (2, 1, 3));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResizeCounter {
    grows: u64,
    shrinks: u64,
}

impl ResizeCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one quota expansion (vertical scale-up).
    pub fn record_grow(&mut self) {
        self.grows += 1;
    }

    /// Records one quota reduction (vertical scale-down).
    pub fn record_shrink(&mut self) {
        self.shrinks += 1;
    }

    /// Number of quota expansions.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Number of quota reductions.
    pub fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Total resizes in either direction.
    pub fn total(&self) -> u64 {
        self.grows + self.shrinks
    }

    /// Folds another counter's events into this one.
    pub fn merge(&mut self, other: &ResizeCounter) {
        self.grows += other.grows;
        self.shrinks += other.shrinks;
    }
}

/// Tracks sampling instants for event-scheduled metrics collection and
/// converts the elapsed window into a quantum count.
///
/// An event-driven simulator samples on *scheduled* tick events rather
/// than counting the quanta it happened to execute — idle quanta are
/// skipped entirely, yet they must still dilute time-averaged gauges
/// (e.g. SM utilisation). `window_quanta` returns the number of scheduling
/// quanta the closing window covered, counting skipped ones; accumulators
/// that sum only executed quanta (skipped quanta contribute exactly zero)
/// divide by it to get the same average a dense per-quantum sampler
/// produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleClock {
    last_sample: Option<SimTime>,
}

impl SampleClock {
    /// A clock that has never sampled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instant of the previous sample, if any.
    pub fn last_sample(&self) -> Option<SimTime> {
        self.last_sample
    }

    /// Closes the window at `now` and returns how many `quantum`-length
    /// slots it covered (at least 1). The first window spans simulation
    /// start through `now` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn window_quanta(&mut self, now: SimTime, quantum: SimDuration) -> u64 {
        assert!(!quantum.is_zero(), "quantum must be positive");
        let q = quantum.as_micros();
        let quanta = match self.last_sample {
            None => now.as_micros() / q + 1,
            Some(prev) => (now.saturating_since(prev).as_micros() / q).max(1),
        };
        self.last_sample = Some(now);
        quanta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_clock_counts_window_quanta() {
        let q = SimDuration::from_millis(5);
        let mut clock = SampleClock::new();
        assert_eq!(clock.last_sample(), None);
        // First window: everything from t=0 through the sample instant.
        assert_eq!(clock.window_quanta(SimTime::from_millis(995), q), 200);
        // Steady state: exactly one tick of quanta per window.
        assert_eq!(clock.window_quanta(SimTime::from_millis(1995), q), 200);
        assert_eq!(clock.last_sample(), Some(SimTime::from_millis(1995)));
        // A flush right after a sample still divides by at least one.
        assert_eq!(clock.window_quanta(SimTime::from_millis(1995), q), 1);
    }

    #[test]
    fn cold_start_counter_accumulates() {
        let mut c = ColdStartCounter::new();
        c.record(SimDuration::from_secs(2));
        c.record(SimDuration::from_secs(3));
        assert_eq!(c.count(), 2);
        assert_eq!(c.total_delay(), SimDuration::from_secs(5));
        // Legacy records carry no fetch/cache breakdown.
        assert_eq!(c.fetches(), 0);
        assert_eq!(c.cache_hits(), 0);
        assert_eq!(c.cache_hit_rate(), 0.0);
    }

    #[test]
    fn cold_start_counter_splits_fetch_from_provision() {
        let mut c = ColdStartCounter::new();
        c.record_fetch(SimDuration::from_secs(5), SimDuration::from_secs(3));
        c.record_fetch(SimDuration::from_secs(3), SimDuration::from_secs(1));
        c.record_cached(SimDuration::from_secs(2));
        assert_eq!(c.count(), 3);
        assert_eq!(c.total_delay(), SimDuration::from_secs(10));
        assert_eq!(c.fetch_delay(), SimDuration::from_secs(4));
        assert_eq!(c.fetches(), 2);
        assert_eq!(c.cache_hits(), 1);
        assert!((c.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.mean_fetch_ms() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_window_buckets_by_second() {
        let mut w = RateWindow::new(10);
        for ms in [100, 200, 900, 1100, 2500] {
            w.observe(SimTime::from_millis(ms));
        }
        w.roll_to(SimTime::from_secs(3));
        assert_eq!(w.samples(), [3, 1, 1]);
    }

    #[test]
    fn rate_window_records_idle_seconds_as_zero() {
        let mut w = RateWindow::new(10);
        w.observe(SimTime::from_millis(100));
        w.roll_to(SimTime::from_secs(4));
        assert_eq!(w.samples(), [1, 0, 0, 0]);
    }

    #[test]
    fn rate_window_evicts_oldest() {
        let mut w = RateWindow::new(2);
        w.observe(SimTime::from_millis(100)); // second 0: 1
        w.roll_to(SimTime::from_secs(3)); // closes seconds 0,1,2
        assert_eq!(w.samples(), [0, 0]);
        assert!(w.is_full());
    }

    #[test]
    fn rate_window_threshold_counts() {
        let mut w = RateWindow::new(5);
        for s in 0..5u64 {
            for _ in 0..s {
                w.observe(SimTime::from_millis(s * 1000 + 1));
            }
        }
        w.roll_to(SimTime::from_secs(5));
        // Closed counts: [0, 1, 2, 3, 4].
        assert_eq!(w.count_above(2.0), 2);
        assert_eq!(w.count_below(2.0), 2);
        assert!((w.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rate_window_wraps_around_far_beyond_capacity() {
        // Rolling across many more seconds than the window holds must keep
        // exactly `capacity` samples and preserve the newest ones.
        let mut w = RateWindow::new(3);
        for sec in 0..100u64 {
            for _ in 0..sec {
                w.observe(SimTime::from_millis(sec * 1000 + 1));
            }
        }
        w.roll_to(SimTime::from_secs(100));
        assert!(w.is_full());
        assert_eq!(w.samples(), [97, 98, 99]);
        // A long silent gap wraps the same way: all-zero buckets.
        w.roll_to(SimTime::from_secs(500));
        assert_eq!(w.samples(), [0, 0, 0]);
        assert_eq!(w.mean(), 0.0);
        // And the window keeps working after the wrap.
        w.observe(SimTime::from_millis(500_500));
        w.roll_to(SimTime::from_secs(501));
        assert_eq!(w.samples(), [0, 0, 1]);
    }

    /// The window as first written: a `Vec` that shifts out its oldest
    /// sample with `remove(0)` on every full roll.
    struct ShiftingWindow {
        capacity: usize,
        closed: Vec<u64>,
        second: u64,
        count: u64,
    }

    impl ShiftingWindow {
        fn roll_to(&mut self, sec: u64) {
            while self.second < sec {
                if self.closed.len() == self.capacity {
                    self.closed.remove(0);
                }
                self.closed.push(self.count);
                self.count = 0;
                self.second += 1;
            }
        }

        fn mean(&self) -> f64 {
            if self.closed.is_empty() {
                0.0
            } else {
                self.closed.iter().sum::<u64>() as f64 / self.closed.len() as f64
            }
        }
    }

    #[test]
    fn rate_window_matches_a_shifting_reference() {
        // splitmix64: a fixed, dependency-free stream of draws.
        let mut state = 0x5eed_u64;
        let mut draw = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        // Busy traffic observes at three steps in four; sparse traffic at
        // one in sixteen, so its windows fall quiet and wake up again.
        for (capacity, busy) in [1usize, 2, 40].into_iter().flat_map(|c| [(c, true), (c, false)]) {
            let mut w = RateWindow::new(capacity);
            let mut reference =
                ShiftingWindow { capacity, closed: Vec::new(), second: 0, count: 0 };
            let mut now_ms = 0u64;
            for step in 0..20_000 {
                // Mostly sub-second steps, with one in eight a gap of up
                // to three window lengths.
                now_ms +=
                    if draw(8) == 0 { draw(3 * capacity as u64 * 1000 + 1) } else { draw(1_500) };
                let now = SimTime::from_millis(now_ms);
                w.roll_to(now);
                reference.roll_to(now.as_secs());
                if if busy { draw(4) != 0 } else { draw(16) == 0 } {
                    w.observe(now);
                    reference.count += 1;
                }
                let at = format!("capacity {capacity}, busy {busy}, step {step}");
                assert_eq!(w.samples(), reference.closed.as_slice(), "{at}");
                assert_eq!(w.is_full(), reference.closed.len() == capacity, "{at}");
                assert_eq!(w.mean().to_bits(), reference.mean().to_bits(), "{at}");
                // Whole and half thresholds: the comparisons are strict.
                let threshold = draw(12) as f64 / 2.0;
                let above = reference.closed.iter().filter(|&&c| c as f64 > threshold).count();
                let below = reference.closed.iter().filter(|&&c| (c as f64) < threshold).count();
                assert_eq!(w.count_above(threshold), above, "{at}, threshold {threshold}");
                assert_eq!(w.count_below(threshold), below, "{at}, threshold {threshold}");
            }
        }
    }

    #[test]
    fn resize_counter_tracks_directions() {
        let mut r = ResizeCounter::new();
        assert_eq!(r.total(), 0);
        r.record_grow();
        r.record_shrink();
        r.record_shrink();
        assert_eq!(r.grows(), 1);
        assert_eq!(r.shrinks(), 2);
        assert_eq!(r.total(), 3);
        let mut sum = ResizeCounter::new();
        sum.record_grow();
        sum.merge(&r);
        assert_eq!((sum.grows(), sum.shrinks(), sum.total()), (2, 2, 4));
    }
}
