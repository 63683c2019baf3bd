//! The [`Dataset`] enum: one seeded generation API over all six corpora
//! of the paper's evaluation (§3.1).

use osa_nn::rng::Rng;

use crate::mobile::MarkovGaussian;
use crate::samplers;
use crate::trace::Trace;

/// The six throughput datasets of the paper's 6×6 train/test matrix:
/// two mobile-like Markov-modulated corpora and four synthetic i.i.d.
/// distributions (parameters exactly as in §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Norway 3G/HSDPA-like (Markov-modulated Gaussian substitute).
    Norway,
    /// Belgium 4G/LTE-like (Markov-modulated Gaussian substitute).
    Belgium,
    /// Gamma(shape 1, scale 2): mean 2, variance 4 Mbit/s.
    Gamma12,
    /// Gamma(shape 2, scale 2): mean 4, variance 8 Mbit/s.
    Gamma22,
    /// Logistic(location 4, scale 0.5): mean 4, variance π²/12 Mbit/s.
    Logistic,
    /// Exponential(rate 1): mean 1, variance 1 Mbit/s.
    Exp,
}

impl Dataset {
    /// All six datasets in the paper's presentation order (empirical-like
    /// first).
    pub const ALL: [Dataset; 6] = [
        Dataset::Norway,
        Dataset::Belgium,
        Dataset::Gamma12,
        Dataset::Gamma22,
        Dataset::Logistic,
        Dataset::Exp,
    ];

    /// Stable snake_case name used in trace ids, cache filenames, and the
    /// result tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Norway => "norway",
            Dataset::Belgium => "belgium",
            Dataset::Gamma12 => "gamma_1_2",
            Dataset::Gamma22 => "gamma_2_2",
            Dataset::Logistic => "logistic",
            Dataset::Exp => "exponential",
        }
    }

    /// True for the two mobile-like corpora (temporally correlated,
    /// regime-switching), false for the i.i.d. synthetics.
    pub fn is_empirical_like(self) -> bool {
        matches!(self, Dataset::Norway | Dataset::Belgium)
    }

    /// One i.i.d. bandwidth draw in Mbit/s, clamped non-negative.
    ///
    /// Only defined for the four synthetic datasets (the mobile corpora
    /// are not i.i.d.; their draws live in [`MarkovGaussian`]).
    /// The logistic has unbounded support, so its rare negative draws
    /// (P ≈ 3·10⁻⁴ at location 4, scale 0.5) clamp to 0 — a link cannot
    /// deliver negative throughput.
    pub(crate) fn sample_mbps(self, rng: &mut Rng) -> f32 {
        let x = match self {
            Dataset::Gamma12 => samplers::gamma(rng, 1.0, 2.0),
            Dataset::Gamma22 => samplers::gamma(rng, 2.0, 2.0),
            Dataset::Logistic => samplers::logistic(rng, 4.0, 0.5),
            Dataset::Exp => samplers::exponential(rng, 1.0),
            Dataset::Norway | Dataset::Belgium => {
                panic!("{} is not an i.i.d. dataset", self.name())
            }
        };
        (x as f32).max(0.0)
    }

    /// Generate one trace of `len` samples at 1 s intervals from an
    /// explicit RNG.
    pub(crate) fn generate_trace(self, id: impl Into<String>, len: usize, rng: &mut Rng) -> Trace {
        match self {
            Dataset::Norway => MarkovGaussian::norway_3g().generate(id, len, rng),
            Dataset::Belgium => MarkovGaussian::belgium_lte().generate(id, len, rng),
            _ => {
                let mbps = (0..len).map(|_| self.sample_mbps(rng)).collect();
                Trace::new(id, 1.0, mbps)
            }
        }
    }

    /// Generate a corpus of `count` traces of `len` samples each from a
    /// u64 seed, parallelized over the current thread pool.
    ///
    /// Each trace gets its own sub-seeded RNG (drawn from a master
    /// stream), so the corpus is bit-reproducible, individual traces are
    /// independent of their neighbours' lengths — and, since PR 5,
    /// embarrassingly parallel: the sub-seeds are drawn serially up
    /// front, then each worker lane synthesizes a disjoint contiguous run
    /// of traces. The corpus is byte-identical for every worker count
    /// (pinned by `tests/parallel_corpus.rs`).
    pub fn generate(self, count: usize, len: usize, seed: u64) -> Vec<Trace> {
        let mut master = Rng::seed_from_u64(seed);
        let subs: Vec<u64> = (0..count).map(|_| master.next_u64()).collect();
        let mut out: Vec<Option<Trace>> = Vec::with_capacity(count);
        out.resize_with(count, || None);
        osa_runtime::with_current(|pool| {
            pool.parallel_for_slice(&mut out, 1, |_, first, slots| {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    let i = first + offset;
                    let mut rng = Rng::seed_from_u64(subs[i]);
                    *slot =
                        Some(self.generate_trace(format!("{}-{i:04}", self.name()), len, &mut rng));
                }
            });
        });
        out.into_iter()
            .map(|t| t.expect("every trace generated"))
            .collect()
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::BTreeSet<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), Dataset::ALL.len());
        assert_eq!(Dataset::Gamma22.to_string(), "gamma_2_2");
    }

    #[test]
    fn generated_corpora_are_wellformed() {
        for d in Dataset::ALL {
            let traces = d.generate(3, 50, 42);
            assert_eq!(traces.len(), 3);
            for t in &traces {
                assert_eq!(t.len(), 50);
                assert!(t.is_wellformed(), "{} produced a malformed trace", d);
            }
            // Ids are unique within the corpus.
            let ids: std::collections::BTreeSet<_> = traces.iter().map(|t| t.id.as_str()).collect();
            assert_eq!(ids.len(), traces.len());
        }
    }

    #[test]
    #[should_panic(expected = "not an i.i.d. dataset")]
    fn mobile_datasets_have_no_iid_sampler() {
        let mut rng = Rng::seed_from_u64(1);
        Dataset::Norway.sample_mbps(&mut rng);
    }
}
