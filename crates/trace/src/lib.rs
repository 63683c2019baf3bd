//! `osa-trace` — network throughput trace datasets (DESIGN.md §1 row 3).
//!
//! The paper's entire evaluation (§3.1) runs over six throughput datasets:
//! two empirical mobile corpora (Norway 3G/HSDPA, Belgium 4G/LTE) and four
//! synthetic i.i.d. distributions (Gamma(1,2), Gamma(2,2),
//! Logistic(μ=4, s=0.5), Exp(1)). The real traces are not redistributable,
//! so the two mobile corpora are substituted by Markov-modulated Gaussian
//! generators calibrated to their published summary statistics
//! (DESIGN.md §2.2); the four i.i.d. samplers are implemented from scratch
//! (Marsaglia–Tsang gamma, inverse-CDF logistic/exponential).
//!
//! # Layout
//!
//! - [`trace`] — the [`Trace`] sample container and its summary
//!   statistics;
//! - [`samplers`] — the i.i.d. samplers plus the guarded quantile
//!   functions they are built on;
//! - `mobile` — the Markov-modulated Gaussian processes behind the
//!   Norway-3G-like and Belgium-LTE-like corpora;
//! - `dataset` — the [`Dataset`] enum tying the six corpora to one
//!   seeded generation API;
//! - `split` — deterministic 70/30 train/test splitting with validation
//!   carved from the training side;
//! - `fault` — outage / spike / rate-limit transforms for robustness
//!   experiments;
//! - [`link`] — piecewise-constant capacity integration (bytes per
//!   period, transfer durations) for the ABR chunk simulator;
//! - [`io`] — JSON trace caching on top of `osa_nn::json`.
//!
//! # Determinism
//!
//! Every generator takes either an explicit [`osa_nn::rng::Rng`] or a u64
//! seed; the same seed always reproduces the same traces bit-for-bit and
//! the same train/validation/test membership, which the cacheable bench
//! pipeline and the paper's 6×6 train/test matrix rely on.
//!
//! # Example
//!
//! ```
//! use osa_trace::prelude::*;
//!
//! let split = Split::generate(Dataset::Gamma22, 20, 120, 42);
//! assert_eq!(split.len(), 20);
//! let stats = split.train[0].stats();
//! assert!(stats.mean > 0.0 && stats.max.is_finite());
//!
//! // Robustness experiments perturb traces without regenerating them.
//! let faulted = Fault::Outage { start: 10, duration: 5 }.apply(&split.test[0]);
//! assert!(faulted.mbps.iter().all(|x| x.is_finite() && *x >= 0.0));
//! ```
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod dataset;
pub(crate) mod fault;
pub mod io;
pub mod link;
pub(crate) mod mobile;
pub mod samplers;
pub(crate) mod split;
pub mod trace;

pub use dataset::Dataset;
pub use fault::{inject, Fault, MAX_MBPS};
pub use io::{load_traces, save_traces, IoError};
pub use link::bytes_per_period;
pub use split::Split;
pub use trace::Trace;

/// Number of datasets the paper's cross-evaluation matrix is built over.
pub const NUM_DATASETS: usize = 6;

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::fault::{inject, Fault, MAX_MBPS};
    pub use crate::io::{load_traces, save_traces, IoError};
    pub use crate::link::bytes_per_period;
    pub use crate::split::Split;
    pub use crate::trace::Trace;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_count_matches_paper_matrix() {
        assert_eq!(Dataset::ALL.len(), NUM_DATASETS);
    }
}
