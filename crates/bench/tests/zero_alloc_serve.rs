//! Proof that the fleet serving engine's decision rounds are
//! allocation-free in steady state: observation fill → session-major
//! stacked forwards → softmax/mean/argmax → signal scalars → monitor
//! updates → simulator step, for a whole fleet, without touching the
//! heap after warm-up.
//!
//! Everything a round needs is preallocated: per-lane workspaces and
//! forward tensors ([`LaneScratch`] inside `LaneSlots`), the SoA
//! monitor arrays, the per-session slots, and the simulator's outcome
//! scratch. `auto_reset` session rollover is exercised too — a rolling
//! fleet is the steady state this engine exists for. Every signal arm
//! the engine serves (U_π, U_V, U_S) is measured.
//!
//! Lives in its own integration-test binary because `CountingAlloc` is
//! process-global state.

use osa_abr::prelude::*;
use osa_bench::counting_alloc::{min_window_allocations, CountingAlloc};
use osa_bench::osap::{corpus, fit_svm, load_ensemble};
use osa_core::prelude::*;
use osa_core::serve::FleetEngine;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SESSIONS: usize = 64;
const WARMUP_ROUNDS: usize = 16;
// Min-over-windows isolates the round loop's own allocations from
// concurrent libtest-harness noise (see `min_window_allocations`).
const WINDOWS: usize = 4;
const ROUNDS_PER_WINDOW: usize = 20;

#[test]
fn steady_state_fleet_rounds_are_allocation_free() {
    let split = corpus();
    let video = VideoModel::envivio();
    let cfg = AbrConfig::default();
    let svm = fit_svm(&load_ensemble(), &video, &cfg, &split.train);
    let traces = split.test[..8].to_vec();

    // Reverse switching on and a finite threshold: the measured loop
    // includes trips, recoveries, and auto-reset session rollovers —
    // the full steady state, not just the quiet path.
    let serve = ServeConfig {
        alpha: 1e-4,
        reverse: Some(ReverseConfig::new(3, 8)),
        shard: 32,
        auto_reset: true,
        ..ServeConfig::default()
    };
    let engine = |signal: FleetSignal| {
        FleetEngine::new(
            load_ensemble(),
            signal,
            video.clone(),
            cfg.clone(),
            traces.clone(),
            SESSIONS,
            &serve,
        )
    };
    let mut u_pi = engine(FleetSignal::PolicyDisagreement);
    let mut u_v = engine(FleetSignal::ValueDisagreement);
    let mut u_s = engine(FleetSignal::Novelty(svm));

    for _ in 0..WARMUP_ROUNDS {
        u_pi.round();
        u_v.round();
        u_s.round();
    }

    let min = min_window_allocations(WINDOWS, ROUNDS_PER_WINDOW, || {
        std::hint::black_box(u_pi.round());
        std::hint::black_box(u_v.round());
        std::hint::black_box(u_s.round());
    });
    assert_eq!(
        min, 0,
        "steady-state fleet round touched the heap ({min} allocations in \
         the cleanest of {WINDOWS} windows of {ROUNDS_PER_WINDOW} rounds \
         across U_π, U_V and U_S engines of {SESSIONS} sessions)"
    );
    let t = u_pi.telemetry();
    assert!(t.total_switches > 0, "α = 1e-4 must trip U_π sessions");
    // The loop must have exercised the trip path, not idled quietly
    // (recovery is the same allocation-free state-machine write; its
    // behavior is pinned in `serve_determinism.rs`).
    let t = u_v.telemetry();
    assert!(t.total_switches > 0, "α = 1e-4 must trip U_V sessions");
    // Same for U_S: trips prove the batched scoring arm ran with a
    // shrinking-then-regrowing batch (tripped sessions stop observing,
    // rollovers restart warm-up) without falling back to the heap.
    let t = u_s.telemetry();
    assert!(t.total_switches > 0, "α = 1e-4 must trip U_S sessions");
}
