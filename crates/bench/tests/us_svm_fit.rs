//! The deployed U_S fit meets the fused scorer's precondition: every
//! stored dual coefficient, pre-scaled by `ALPHA_SCALE`, times the
//! `exp_fast` clamp floor is a normal f32. Below that, far windows would
//! go back to paying a subnormal product per support vector.

use osa_abr::prelude::*;
use osa_bench::osap::{corpus, fit_svm, load_ensemble};
use osa_ocsvm::detector::ALPHA_SCALE;
use osa_ocsvm::exp_fast;

#[test]
fn deployed_fit_keeps_every_scaled_alpha_above_the_subnormal_range() {
    let split = corpus();
    let svm = fit_svm(
        &load_ensemble(),
        &VideoModel::envivio(),
        &AbrConfig::default(),
        &split.train,
    );
    let d = svm.diag().expect("fitted");
    assert!(d.support_vectors > 0);
    let floor = d.min_alpha * ALPHA_SCALE * exp_fast(-87.0);
    assert!(
        floor.is_normal(),
        "min α {:e}: scaled term at the exp floor {floor:e}",
        d.min_alpha
    );
}
