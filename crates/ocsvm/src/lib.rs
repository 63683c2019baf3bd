//! `osa-ocsvm` — novelty detection for the U_S signal (DESIGN.md §1 row 7).
//!
//! The paper's "classic ND method" (§2.4) built from scratch:
//!
//! - [`smo`] — the Schölkopf ν-parameterized one-class SVM dual, solved
//!   by a working-set SMO specialized to the one-class problem
//!   (substituting SciPy, DESIGN.md §2.4);
//! - [`kernel`] — the RBF kernel ([`rbf`], the tests' independent
//!   reference) and the vector helpers the solver and scorer share;
//! - [`features`] — the §3.1 feature pipeline: mean/std of the 10 most
//!   recent throughput samples, windows of the k latest pairs;
//! - [`detector`] — the [`NoveltyDetector`] trait and [`OcSvm`], its
//!   one implementation, with the batched fused scorer.
//!
//! Invariants (property-tested in `tests/properties.rs`): ν upper-bounds
//! the training outlier fraction and lower-bounds the support-vector
//! fraction; the kernel is symmetric and its Gram matrices are PSD; the
//! solver's KKT residual falls below tolerance; fits are bit-identical
//! across runs and pool widths.
#![forbid(unsafe_code)]

pub mod detector;
pub mod features;
pub mod kernel;
pub mod smo;

pub use detector::{FitDiag, FitError, NoveltyDetector, OcSvm, OcSvmConfig};
pub use features::{window_features, FeatureWindow, FEATURE_DIM, FEATURE_PAIRS, FEATURE_WINDOW};
pub use kernel::{dot8, exp_fast, rbf, sq_norm};
pub use smo::{solve_one_class, KernelRows, SmoConfig, SmoResult};

/// One-stop import for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::detector::{FitDiag, FitError, NoveltyDetector, OcSvm, OcSvmConfig};
    pub use crate::features::{
        window_features, FeatureWindow, FEATURE_DIM, FEATURE_PAIRS, FEATURE_WINDOW,
    };
    pub use crate::kernel::rbf;
    pub use crate::smo::{solve_one_class, SmoConfig, SmoResult};
}
