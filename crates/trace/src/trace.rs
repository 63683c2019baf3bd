//! The [`Trace`] container: a throughput time series sampled at a fixed
//! interval, plus the summary statistics the calibration tables and tests
//! are written against.

/// One throughput trace: bandwidth samples (Mbit/s) at a fixed interval.
///
/// This mirrors the shape of the Pensieve/Puffer trace files (one
/// capacity sample per time slot); the ABR simulator replays it as the
/// link's capacity process. Generators guarantee samples are finite and
/// non-negative; `crate::fault` re-establishes that invariant after
/// every transform, and [`crate::io::save_traces`] refuses to cache a
/// trace that violates it (a NaN sample is a serialization error, not a
/// silently poisoned dataset).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Stable identifier, e.g. `"gamma_2_2-0007"`; split membership and
    /// cache round-trips are keyed on it.
    pub id: String,
    /// Seconds between consecutive samples.
    pub interval_s: f32,
    /// Bandwidth samples in Mbit/s.
    pub mbps: Vec<f32>,
}

/// Summary statistics of one trace (or corpus), computed in `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStats {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Trace {
    pub fn new(id: impl Into<String>, interval_s: f32, mbps: Vec<f32>) -> Self {
        Trace {
            id: id.into(),
            interval_s,
            mbps,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.mbps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mbps.is_empty()
    }

    /// True when every sample is finite and non-negative — the invariant
    /// the simulator and the JSON cache both rely on.
    pub fn is_wellformed(&self) -> bool {
        self.mbps.iter().all(|x| x.is_finite() && *x >= 0.0)
    }

    /// Mean/std/min/max over this trace's samples (population std; zeroes
    /// for an empty trace).
    pub fn stats(&self) -> TraceStats {
        stats_over(self.mbps.iter().map(|&x| x as f64))
    }

    /// Lag-1 autocorrelation coefficient — the statistic separating the
    /// temporally-correlated mobile corpora from the i.i.d. synthetic
    /// ones. Returns 0.0 for traces shorter than 2 samples or with zero
    /// variance.
    pub fn autocorr_lag1(&self) -> f64 {
        if self.mbps.len() < 2 {
            return 0.0;
        }
        let n = self.mbps.len() as f64;
        let mean = self.mbps.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = self
            .mbps
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        if var == 0.0 {
            return 0.0;
        }
        let cov = self
            .mbps
            .windows(2)
            .map(|w| (w[0] as f64 - mean) * (w[1] as f64 - mean))
            .sum::<f64>()
            / (n - 1.0);
        cov / var
    }
}

/// Mean/std/min/max of an arbitrary sample stream (population std).
pub(crate) fn stats_over(samples: impl Iterator<Item = f64>) -> TraceStats {
    let mut n = 0u64;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for x in samples {
        n += 1;
        sum += x;
        sum_sq += x * x;
        min = min.min(x);
        max = max.max(x);
    }
    if n == 0 {
        return TraceStats {
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let mean = sum / n as f64;
    let var = (sum_sq / n as f64 - mean * mean).max(0.0);
    TraceStats {
        mean,
        std: var.sqrt(),
        min,
        max,
    }
}

/// Pooled stats over every sample of every trace in a corpus.
pub fn corpus_stats(traces: &[Trace]) -> TraceStats {
    stats_over(traces.iter().flat_map(|t| t.mbps.iter().map(|&x| x as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let t = Trace::new("t", 1.0, vec![1.0, 2.0, 3.0, 4.0]);
        let s = t.stats();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new("e", 1.0, vec![]);
        assert_eq!(t.stats().mean, 0.0);
        assert_eq!(t.autocorr_lag1(), 0.0);
        assert!(t.is_wellformed());
    }

    #[test]
    fn wellformed_rejects_nan_and_negative() {
        assert!(!Trace::new("a", 1.0, vec![1.0, f32::NAN]).is_wellformed());
        assert!(!Trace::new("b", 1.0, vec![1.0, f32::INFINITY]).is_wellformed());
        assert!(!Trace::new("c", 1.0, vec![-0.5]).is_wellformed());
        assert!(Trace::new("d", 1.0, vec![0.0, 7.5]).is_wellformed());
    }

    #[test]
    fn autocorr_detects_smooth_vs_alternating() {
        let smooth: Vec<f32> = (0..100).map(|i| (i as f32 / 10.0).sin() + 2.0).collect();
        let alternating: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        assert!(Trace::new("s", 1.0, smooth).autocorr_lag1() > 0.9);
        assert!(Trace::new("a", 1.0, alternating).autocorr_lag1() < -0.9);
    }

    #[test]
    fn corpus_stats_pool_samples() {
        let traces = vec![
            Trace::new("a", 1.0, vec![1.0, 3.0]),
            Trace::new("b", 1.0, vec![5.0]),
        ];
        let s = corpus_stats(&traces);
        assert_eq!(s.mean, 3.0);
        assert_eq!((s.min, s.max), (1.0, 5.0));
    }
}
