//! Azure-style synthetic trace shapes: Bursty, Periodic, Sporadic.
//!
//! Real Azure Functions traces are not available offline; these generators
//! reproduce the three shape classes the paper uses (after the INFless and
//! FaaSwap characterizations): sudden multiplicative bursts over a low base,
//! diurnal-style periodic oscillation, and long idle gaps with rare short
//! active windows.

use dilu_sim::rng::{component_rng, sample_exponential, SimRng};
use dilu_sim::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ArrivalProcess;

/// The three Azure trace shapes used in Table 3 / Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// Low base load with sudden 4–6× bursts lasting tens of seconds.
    Bursty,
    /// Smooth periodic oscillation around the base rate.
    Periodic,
    /// Mostly idle with rare, short active windows (keep-alive stressor).
    Sporadic,
}

impl TraceKind {
    /// All trace kinds in Table 3 order.
    pub const ALL: [TraceKind; 3] = [TraceKind::Bursty, TraceKind::Periodic, TraceKind::Sporadic];

    /// The paper's name for the trace.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Bursty => "Bursty",
            TraceKind::Periodic => "Periodic",
            TraceKind::Sporadic => "Sporadic",
        }
    }
}

/// A piecewise-constant request-rate function (1 s resolution).
///
/// The trace is both the ground truth for plots (Fig. 12's top panel) and
/// the intensity of a non-homogeneous Poisson sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateTrace {
    /// Requests per second for each consecutive one-second interval.
    rps: Vec<f64>,
}

impl RateTrace {
    /// Builds a trace from explicit per-second rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative or not finite.
    pub fn from_rps<I: IntoIterator<Item = f64>>(rps: I) -> Self {
        let rps: Vec<f64> = rps.into_iter().collect();
        assert!(rps.iter().all(|r| r.is_finite() && *r >= 0.0), "rates must be non-negative");
        RateTrace { rps }
    }

    /// Synthesises a trace of `duration` seconds with the given `kind`,
    /// `base_rps`, and burst `scale` (ignored for Periodic/Sporadic shape
    /// parameters other than amplitude).
    pub fn synthesize(
        kind: TraceKind,
        base_rps: f64,
        scale: f64,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(base_rps.is_finite() && base_rps > 0.0, "base rate must be positive");
        assert!(scale.is_finite() && scale >= 1.0, "burst scale must be >= 1");
        let secs = duration.as_secs() as usize;
        let mut rng = component_rng(seed, "trace-shape");
        let mut rps = vec![base_rps; secs];
        match kind {
            TraceKind::Bursty => {
                // Bursts arrive roughly every 80 s and last 15–40 s.
                let mut t = 0usize;
                loop {
                    t += sample_exponential(&mut rng, 1.0 / 80.0).round() as usize + 10;
                    if t >= secs {
                        break;
                    }
                    let len = rng.gen_range(15usize..=40).min(secs - t);
                    let burst = base_rps * rng.gen_range(scale * 0.8..=scale * 1.2);
                    for r in rps.iter_mut().skip(t).take(len) {
                        *r = burst;
                    }
                    t += len;
                }
            }
            TraceKind::Periodic => {
                let period = 120.0;
                let amp = (scale - 1.0).max(0.2);
                for (i, r) in rps.iter_mut().enumerate() {
                    let phase = (i as f64) / period * std::f64::consts::TAU;
                    *r = base_rps * (1.0 + amp * 0.5 * (1.0 + phase.sin()));
                }
            }
            TraceKind::Sporadic => {
                // Observation-3: most functions receive requests in rare
                // windows separated by long idle gaps (keep-alive waste).
                for r in rps.iter_mut() {
                    *r = 0.0;
                }
                let mut t = 0usize;
                while t < secs {
                    t += sample_exponential(&mut rng, 1.0 / 75.0).round() as usize + 20;
                    if t >= secs {
                        break;
                    }
                    let len = rng.gen_range(20usize..=45).min(secs - t);
                    for r in rps.iter_mut().skip(t).take(len) {
                        *r = base_rps;
                    }
                    t += len;
                }
            }
        }
        RateTrace { rps }
    }

    /// The per-second rates.
    pub fn rps(&self) -> &[f64] {
        &self.rps
    }

    /// The trace duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.rps.len() as u64)
    }

    /// The rate in effect at `t` (zero past the end).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.rps.get(t.as_secs() as usize).copied().unwrap_or(0.0)
    }

    /// The maximum per-second rate.
    pub fn peak(&self) -> f64 {
        self.rps.iter().copied().fold(0.0, f64::max)
    }

    /// The mean per-second rate.
    pub fn mean(&self) -> f64 {
        if self.rps.is_empty() {
            0.0
        } else {
            self.rps.iter().sum::<f64>() / self.rps.len() as f64
        }
    }
}

/// Samples arrivals from a [`RateTrace`] as a non-homogeneous Poisson
/// process (per-second thinning).
#[derive(Debug, Clone)]
pub struct TraceProcess {
    trace: RateTrace,
    /// `trace.peak()`, the thinning rate, folded once at construction.
    peak: f64,
    rng: SimRng,
    /// Last drawn candidate instant (seconds); the stream cursor.
    cursor_s: f64,
    /// `true` when the candidate at `cursor_s` was drawn but its
    /// accept/reject decision is deferred (it landed at or past the
    /// horizon of the previous pull), keeping RNG order chunk-invariant.
    pending: bool,
}

impl TraceProcess {
    /// Creates a sampler over `trace`.
    pub fn new(trace: RateTrace, seed: u64) -> Self {
        TraceProcess {
            peak: trace.peak(),
            trace,
            rng: component_rng(seed, "trace-arrivals"),
            cursor_s: 0.0,
            pending: false,
        }
    }

    /// The underlying rate trace (for plotting alongside results).
    pub fn trace(&self) -> &RateTrace {
        &self.trace
    }
}

impl ArrivalProcess for TraceProcess {
    fn refill(&mut self, horizon: SimTime, max: usize, out: &mut Vec<SimTime>) -> usize {
        let horizon_s = horizon.as_secs_f64().min(self.trace.duration().as_secs_f64());
        let peak = self.peak;
        if peak <= 0.0 {
            return 0;
        }
        // Thinning against the peak rate.
        let mut pushed = 0usize;
        while pushed < max {
            if !self.pending {
                self.cursor_s += sample_exponential(&mut self.rng, peak);
                self.pending = true;
            }
            if self.cursor_s >= horizon_s {
                break;
            }
            let instant = SimTime::from_secs_f64(self.cursor_s);
            self.pending = false;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept < self.trace.rate_at(instant) / peak {
                out.push(instant);
                pushed += 1;
            }
        }
        pushed
    }

    fn mean_rate(&self) -> f64 {
        self.trace.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_trace_has_bursts_above_base() {
        let t = RateTrace::synthesize(TraceKind::Bursty, 10.0, 5.0, SimDuration::from_secs(600), 1);
        assert!(t.peak() >= 10.0 * 4.0, "peak {}", t.peak());
        let at_base = t.rps().iter().filter(|&&r| (r - 10.0).abs() < 1e-9).count();
        assert!(at_base > 300, "most seconds stay at base, got {at_base}");
    }

    #[test]
    fn sporadic_trace_is_mostly_idle() {
        let t =
            RateTrace::synthesize(TraceKind::Sporadic, 8.0, 1.0, SimDuration::from_secs(600), 5);
        let idle = t.rps().iter().filter(|&&r| r == 0.0).count();
        assert!(idle as f64 > 0.7 * 600.0, "idle seconds {idle}");
        assert!(t.peak() > 0.0, "some activity must exist");
    }

    #[test]
    fn periodic_trace_oscillates() {
        let t =
            RateTrace::synthesize(TraceKind::Periodic, 10.0, 2.0, SimDuration::from_secs(240), 3);
        assert!(t.peak() > 15.0);
        let min = t.rps().iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min >= 10.0 - 1e-9, "periodic never drops below base, got {min}");
    }

    #[test]
    fn trace_process_tracks_intensity() {
        let trace = RateTrace::from_rps(std::iter::repeat_n(30.0, 100));
        let mut p = TraceProcess::new(trace, 4);
        let arrivals = p.generate(SimTime::from_secs(100));
        let rate = arrivals.len() as f64 / 100.0;
        assert!((rate - 30.0).abs() < 4.0, "rate {rate}");
    }

    #[test]
    fn trace_process_is_deterministic() {
        let trace =
            RateTrace::synthesize(TraceKind::Bursty, 10.0, 4.0, SimDuration::from_secs(120), 9);
        let a = TraceProcess::new(trace.clone(), 9).generate(SimTime::from_secs(120));
        let b = TraceProcess::new(trace, 9).generate(SimTime::from_secs(120));
        assert_eq!(a, b);
    }

    /// Bounded-window pulls deliver the exact stream of a one-shot pull
    /// even though rejected candidates burn RNG draws between accepts.
    #[test]
    fn trace_process_refill_is_chunk_invariant() {
        let trace =
            RateTrace::synthesize(TraceKind::Bursty, 12.0, 4.0, SimDuration::from_secs(300), 17);
        let end = SimTime::from_secs(300);
        let one_shot = TraceProcess::new(trace.clone(), 17).generate(end);
        for window in [1usize, 5, 33] {
            let mut p = TraceProcess::new(trace.clone(), 17);
            let mut got = Vec::new();
            while p.refill(end, window, &mut got) == window {}
            assert_eq!(got, one_shot, "window {window}");
        }
    }

    #[test]
    fn rate_at_past_end_is_zero() {
        let t = RateTrace::from_rps([1.0, 2.0]);
        assert_eq!(t.rate_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(t.rate_at(SimTime::from_millis(1_500)), 2.0);
    }
}
