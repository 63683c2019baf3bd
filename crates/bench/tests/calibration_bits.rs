//! Pins the calibration bits the fleet benchmark deploys.
//!
//! `benchmark/src/workload.rs` (`Guard::calibrate`) calibrates its
//! guards on the seed-2020 Norway split's first four validation traces
//! at margin 2: U_V once, U_S once unanchored for the in-distribution
//! score mean μ₀ and again anchored at μ₀. The benchmark's QoE metrics
//! are gated bit for bit against the parent commit, so every α, μ and
//! max-variance below is the exact value that sequence produced before
//! calibration moved onto the serving engine. The replay uses the same
//! calls the benchmark makes.

use osa_abr::prelude::*;
use osa_bench::osap;
use osa_core::prelude::*;

fn bits(cal: &Calibration) -> [u32; 3] {
    [
        cal.alpha.to_bits(),
        cal.mu.to_bits(),
        cal.max_variance.to_bits(),
    ]
}

#[test]
fn benchmark_guard_calibration_keeps_its_bits() {
    let split = osap::corpus();
    let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
    let val = &split.validation[..4];
    let ens = shared(osap::load_ensemble());
    let monitor = || Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L);

    let mut u_v = abr_safe_agent(ens.clone(), ValueDisagreement::new(ens.clone()), monitor());
    let cal_v = calibrate(&mut u_v, &video, &cfg, val, DEFAULT_MARGIN);

    let svm = osap::fit_us_svm(&ens, &video, &cfg, &split.train);
    let mut u_s = abr_safe_agent(ens.clone(), NoveltySignal::new(svm), monitor());
    let unanchored = calibrate_novelty(&mut u_s, &video, &cfg, val, DEFAULT_MARGIN);
    u_s.monitor_mut().set_anchor(Some(unanchored.mu));
    let anchored = calibrate_novelty(&mut u_s, &video, &cfg, val, DEFAULT_MARGIN);

    let got = [bits(&cal_v), bits(&unanchored), bits(&anchored)];
    let want: [[u32; 3]; 3] = [
        [0x3f0a_87e4, 0x3f4e_14bd, 0x3e8a_87e4],
        [0x3e1f_bed6, 0xbcb7_9efc, 0x3d9f_bed6],
        [0x3fc0_a6d8, 0xbcb7_9efc, 0x3f40_a6d8],
    ];
    assert_eq!(
        got, want,
        "[U_V, U_S unanchored, U_S anchored] × [alpha, mu, max_variance]"
    );
    assert_eq!((cal_v.k, cal_v.l), (DEFAULT_K, DEFAULT_L));
}
