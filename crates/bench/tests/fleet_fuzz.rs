//! Hostile-fleet fuzz: the whole serving round fails closed and stays
//! deterministic under hostile but valid inputs.
//!
//! Each seeded case draws a fleet the validators accept but nothing in
//! the paper's setup produces:
//! - traces at the validator's edges: one-sample links, links whose
//!   capacity is a few kbit/s in one slot and zero elsewhere, and
//!   Norway-like links with outages and 20× spikes;
//! - 1–300 sessions, k and l in 1..=4, shard 1, 7 or 256, sticky or
//!   reverse switching (guard 0, 2 or `usize::MAX`), anchored or not,
//!   `auto_reset` on or off;
//! - Null, U_π, U_V and U_S in turn;
//! - an ensemble whose last critic layer is scaled up, a finite artifact
//!   whose value outputs overflow to ±∞ on some states.
//!
//! After every round it checks:
//! 1. no panic, and every session's last action is a valid level;
//! 2. a session whose last `l` full windows each held a non-finite raw
//!    value is on the fallback;
//! 3. a rolled-over session starts fresh (raw 0, variance 0, no trip or
//!    lock), and a U_S session consumes raw 0 until its feature window
//!    is warm;
//! 4. per-session state is bit-identical at pool widths 1, 2 and 3;
//! 5. no round after the first allocates (counted by `CountingAlloc`, so
//!    the suite lives in this crate).
//!
//! `OSA_FLEET_FUZZ_CASES=N` sets the case count (default 12); a failure
//! names the case and its seed.

use osa_abr::prelude::*;
use osa_bench::counting_alloc::{allocations, CountingAlloc};
use osa_bench::osap::ARTIFACT;
use osa_core::prelude::*;
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::features::FeatureWindow;
use osa_ocsvm::prelude::*;
use osa_pensieve::PensieveAgent;
use osa_runtime::{with_pool, ThreadPool};
use osa_trace::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WIDTHS: [usize; 3] = [1, 2, 3];
const DEFAULT_CASES: usize = 12;

fn case_count() -> usize {
    std::env::var("OSA_FLEET_FUZZ_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// One drawn fleet.
struct Case {
    seed: u64,
    signal: FleetSignal,
    serve: ServeConfig,
    traces: Vec<Trace>,
    sessions: usize,
    rounds: usize,
    /// Factor on the last critic layer's weights and bias.
    critic_scale: f32,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let signal = match self.signal {
            FleetSignal::Null => "null",
            FleetSignal::PolicyDisagreement => "u_pi",
            FleetSignal::ValueDisagreement => "u_v",
            FleetSignal::Novelty(_) => "u_s",
        };
        let ids: Vec<&str> = self.traces.iter().map(|t| t.id.as_str()).collect();
        write!(
            f,
            "seed {:#x}: {signal}, {} sessions, {} rounds, critic ×{:e}, traces {ids:?}, {:?}",
            self.seed, self.sessions, self.rounds, self.critic_scale, self.serve
        )
    }
}

fn edge_trace(rng: &mut Rng, j: usize) -> Trace {
    match rng.below(3) {
        0 => Trace::new(
            format!("one-sample-{j}"),
            rng.range_f32(0.25, 4.0),
            vec![rng.range_f32(0.05, 20.0)],
        ),
        1 => {
            // Zero everywhere but one slot of a few kbit/s: a download
            // takes hours of trace time, and the link is almost never up.
            let len = 1 + rng.below(24);
            let mut mbps = vec![0.0; len];
            mbps[rng.below(len)] = rng.range_f32(1e-3, 1e-2);
            Trace::new(format!("trickle-{j}"), 1.0, mbps)
        }
        _ => {
            let base = &Dataset::Norway.generate(1, 120, rng.next_u64())[0];
            let (a, b) = (rng.below(120), rng.below(120));
            inject(
                base,
                &[
                    Fault::Outage {
                        start: a,
                        duration: 1 + rng.below(40),
                    },
                    Fault::Spike {
                        start: b,
                        duration: 1 + rng.below(20),
                        factor: 20.0,
                    },
                ],
            )
        }
    }
}

/// Case `c`'s fleet. The signal cycles with `c` and `auto_reset` with
/// `c / 4`, so every few cases cover each signal with and without
/// rollovers; everything else comes from the seed.
fn draw(c: usize, svm: &OcSvm) -> Case {
    let seed = 0x5eed_f1ee_0000 + c as u64;
    let mut rng = Rng::seed_from_u64(seed);
    let traces = (0..1 + rng.below(4))
        .map(|j| edge_trace(&mut rng, j))
        .collect();
    let sessions = if rng.below(4) == 0 {
        1 + rng.below(300)
    } else {
        1 + rng.below(24)
    };
    let signal = match c % 4 {
        0 => FleetSignal::Null,
        1 => FleetSignal::PolicyDisagreement,
        2 => FleetSignal::ValueDisagreement,
        _ => FleetSignal::Novelty(svm.clone()),
    };
    let reverse = (rng.below(2) == 0)
        .then(|| ReverseConfig::new(1 + rng.below(3), [0, 2, usize::MAX][rng.below(3)]));
    let serve = ServeConfig {
        k: 1 + rng.below(4),
        alpha: 10f32.powf(rng.range_f32(-4.0, 1.0)),
        l: 1 + rng.below(4),
        anchor: (rng.below(2) == 0).then(|| rng.range_f32(0.0, 1.0)),
        reverse,
        shard: [1, 7, 256][rng.below(3)],
        auto_reset: (c / 4).is_multiple_of(2),
    };
    // At least one rollover, fewer rounds for the largest fleets so the
    // suite stays fast in debug builds.
    let rounds = (CHUNK_COUNT + 2 + rng.below(CHUNK_COUNT + 8)).min(2 + 12_000 / sessions);
    let critic_scale = if rng.below(4) == 0 {
        1.0
    } else {
        10f32.powf(rng.range_f32(34.0, 39.0))
    };
    Case {
        seed,
        signal,
        serve,
        traces,
        sessions,
        rounds,
        critic_scale,
    }
}

fn fitted_svm() -> OcSvm {
    let mut rng = Rng::seed_from_u64(41);
    let rates: Vec<f32> = (0..160).map(|_| 1.0 + rng.next_f32() * 3.0).collect();
    let windows = window_features(&rates);
    let mut x = Tensor::zeros(windows.len(), FEATURE_DIM);
    for (i, w) in windows.iter().enumerate() {
        x.row_mut(i).copy_from_slice(w);
    }
    let mut svm = OcSvm::new(OcSvmConfig::default());
    svm.fit(&x).expect("finite training set");
    svm
}

/// The committed replicas with each critic's last layer (`merge`
/// weights and the bias, the tail of the parameter vector) scaled by
/// `scale`, capped so that every scaled parameter stays finite.
fn scaled_ensemble(
    agents: &mut [PensieveAgent],
    base: &[Vec<f32>],
    scale: f32,
) -> PensieveEnsemble {
    for (agent, params) in agents.iter_mut().zip(base) {
        let tail = agent.config().merge + 1;
        let mut p = params.clone();
        let n = p.len();
        let largest = p[n - tail..].iter().fold(0.0f32, |m, w| m.max(w.abs()));
        let scale = scale.min(f32::MAX / 2.0 / largest);
        for w in &mut p[n - tail..] {
            *w *= scale;
            assert!(w.is_finite(), "scaled critic parameter overflowed");
        }
        agent.actor_critic_mut().critic.set_params_from_vec(&p);
    }
    PensieveEnsemble::from_agents(agents).expect("scaled ensemble stays finite")
}

/// What the test tracks per session to check the fail-closed and
/// rollover invariants from outside the engine.
#[derive(Clone, Default)]
struct Watch {
    /// The last k consumed raw values, oldest first.
    window: Vec<f32>,
    /// Consecutive most recent full windows holding a non-finite value.
    nonfinite_run: usize,
    /// Raw values consumed since the session (re)started.
    consumed: usize,
}

/// Feature-window pushes before a U_S window scores.
fn us_warmup() -> usize {
    let mut fw = FeatureWindow::new();
    let mut pushes = 0;
    while !fw.ready() {
        fw.push(1.0);
        pushes += 1;
    }
    pushes
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn state_digest(engine: &FleetEngine, i: usize) -> u64 {
    let (sim, m) = (engine.sim(), engine.monitors());
    let index = |v: Option<usize>| v.map_or(u64::MAX, |v| v as u64);
    fnv([
        engine.raw(i).to_bits() as u64,
        m.variance(i).to_bits() as u64,
        m.tripped(i) as u64,
        m.locked(i) as u64,
        m.observing(i) as u64,
        m.switches(i) as u64,
        m.recoveries(i) as u64,
        index(m.tripped_at(i)),
        index(m.last_trip(i)),
        index(m.last_recovery(i)),
        sim.qoe_total(i).to_bits(),
        sim.rebuffer_total(i).to_bits(),
        sim.chunks_total(i),
        sim.sessions_completed(i),
        sim.prev_level(i) as u64,
        sim.buffer_s(i).to_bits(),
        sim.time_s(i).to_bits(),
        sim.rewards()[i].to_bits() as u64,
    ])
}

/// Serve `case` on a pool of `width` lanes, checking invariants 1–3
/// after every round. Returns each round's state digest and its
/// allocation count.
fn serve(case: &Case, ens: PensieveEnsemble, width: usize, warmup: usize) -> (Vec<u64>, Vec<u64>) {
    let pool = ThreadPool::new(width);
    with_pool(&pool, || {
        let mut engine = FleetEngine::new(
            ens,
            case.signal.clone(),
            VideoModel::envivio(),
            AbrConfig::default(),
            case.traces.clone(),
            case.sessions,
            &case.serve,
        );
        let n = case.sessions;
        let (k, l) = (case.serve.k, case.serve.l);
        let u_s = matches!(case.signal, FleetSignal::Novelty(_));
        let mut watch = vec![Watch::default(); n];
        let mut before = vec![(false, false, 0u64); n];
        let mut digests = Vec::with_capacity(case.rounds);
        let mut allocs = Vec::with_capacity(case.rounds);
        for round in 0..case.rounds {
            for (i, b) in before.iter_mut().enumerate() {
                *b = (
                    engine.sim().active(i),
                    engine.monitors().observing(i),
                    engine.sim().sessions_completed(i),
                );
            }
            let a0 = allocations();
            engine.round();
            allocs.push(allocations() - a0);

            let (sim, m) = (engine.sim(), engine.monitors());
            for i in 0..n {
                let at = || format!("{case:?}: width {width}, round {round}, session {i}");
                assert!(sim.prev_level(i) < NUM_BITRATES, "{}: bad action", at());
                let (active, observing, completed) = before[i];
                let w = &mut watch[i];
                if case.serve.auto_reset && sim.sessions_completed(i) != completed {
                    assert_eq!(engine.raw(i).to_bits(), 0, "{}: stale raw", at());
                    assert_eq!(m.variance(i).to_bits(), 0, "{}: stale variance", at());
                    assert!(!m.tripped(i) && !m.locked(i), "{}: stale trip", at());
                    assert_eq!(m.tripped_at(i), None, "{}: stale trip index", at());
                    *w = Watch::default();
                    continue;
                }
                if !(active && observing) {
                    continue;
                }
                let raw = engine.raw(i);
                w.consumed += 1;
                if u_s && w.consumed < warmup {
                    assert_eq!(raw.to_bits(), 0, "{}: U_S scored a cold window", at());
                }
                if w.window.len() == k {
                    w.window.remove(0);
                }
                w.window.push(raw);
                if w.window.len() == k && w.window.iter().any(|v| !v.is_finite()) {
                    w.nonfinite_run += 1;
                } else {
                    w.nonfinite_run = 0;
                }
                if w.nonfinite_run >= l {
                    assert!(
                        m.tripped(i),
                        "{}: {} full windows held a non-finite raw value ({:?}) \
                         and the session is on the learned policy",
                        at(),
                        w.nonfinite_run,
                        w.window
                    );
                }
            }
            digests.push(fnv((0..n).map(|i| state_digest(&engine, i))));
        }
        (digests, allocs)
    })
}

#[test]
fn hostile_fleets_fail_closed_and_stay_deterministic() {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    let mut agents = PensieveEnsemble::agents_from_json(&text).expect("artifact parses");
    let base: Vec<Vec<f32>> = agents
        .iter_mut()
        .map(|a| {
            let mut p = Vec::new();
            a.actor_critic_mut().critic.copy_params_into(&mut p);
            p
        })
        .collect();
    let svm = fitted_svm();
    let warmup = us_warmup();
    let (mut nonfinite_cases, mut trips, mut rollovers) = (0, 0, 0);
    for c in 0..case_count() {
        let case = draw(c, &svm);
        let mut reference: Option<Vec<u64>> = None;
        for width in WIDTHS {
            let ens = scaled_ensemble(&mut agents, &base, case.critic_scale);
            let (digests, allocs) = serve(&case, ens, width, warmup);
            let steady: Vec<usize> = (1..allocs.len()).filter(|&r| allocs[r] > 0).collect();
            if !steady.is_empty() {
                // The counter is process-wide, and the test harness can
                // allocate concurrently: a round only fails when it
                // allocates again in an identical second run.
                let ens = scaled_ensemble(&mut agents, &base, case.critic_scale);
                let (_, again) = serve(&case, ens, width, warmup);
                let both: Vec<usize> = steady.into_iter().filter(|&r| again[r] > 0).collect();
                assert!(
                    both.is_empty(),
                    "{case:?}: width {width} allocated after the first round, in rounds {both:?}"
                );
            }
            match &reference {
                None => reference = Some(digests),
                Some(want) => {
                    let first = want.iter().zip(&digests).position(|(a, b)| a != b);
                    assert_eq!(
                        first, None,
                        "{case:?}: width {width} diverged from width 1 at that round"
                    );
                }
            }
        }
        // What the case exercised, judged on a width-1 engine.
        let ens = scaled_ensemble(&mut agents, &base, case.critic_scale);
        let mut engine = FleetEngine::new(
            ens,
            case.signal.clone(),
            VideoModel::envivio(),
            AbrConfig::default(),
            case.traces.clone(),
            case.sessions,
            &case.serve,
        );
        let pool = ThreadPool::new(1);
        let mut saw_nonfinite = false;
        with_pool(&pool, || {
            for _ in 0..case.rounds {
                engine.round();
                saw_nonfinite |= (0..case.sessions).any(|i| !engine.raw(i).is_finite());
            }
        });
        nonfinite_cases += saw_nonfinite as usize;
        let t = engine.telemetry();
        trips += t.total_switches;
        rollovers += (0..case.sessions)
            .filter(|&i| case.serve.auto_reset && engine.sim().sessions_completed(i) > 0)
            .count();
    }
    println!(
        "{nonfinite_cases} cases with non-finite raw values, {trips} trips, {rollovers} rollovers"
    );
    // The draws must reach the paths the invariants guard.
    assert!(
        nonfinite_cases > 0,
        "no case produced a non-finite raw value"
    );
    assert!(trips > 0, "no case tripped a monitor");
    assert!(rollovers > 0, "no case rolled a session over");
}
