//! Pins the bits a whole serving round produces.
//!
//! Each case serves a small mixed fleet (in-distribution and shifted
//! links) for two videos under one signal, switching policy,
//! `auto_reset` setting and shard size, and folds into one FNV digest:
//! every round's `round()` result; every decision's consumed raw value
//! and k-window variance, for each session that was active when the
//! round began; and, at the end, each session's switch, recovery, trip
//! and lock state, lifetime QoE bits and chunk count. The digest must
//! equal the one the engine produced when it was pinned, at pool widths
//! 1 and 3, so a change to how a round is scheduled (which lane, which
//! shard, which phase) cannot move a bit unnoticed.

use osa_abr::prelude::*;
use osa_abr::video::CHUNK_COUNT;
use osa_core::prelude::*;
use osa_nn::rng::Rng;
use osa_nn::tensor::Tensor;
use osa_ocsvm::prelude::*;
use osa_runtime::{with_pool, ThreadPool};
use osa_trace::prelude::*;

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../artifacts/pensieve_ensemble_norway.json"
);

/// Prime, so every pool width and shard size splits the fleet unevenly.
const SESSIONS: usize = 23;
const SHARDS: [usize; 3] = [1, 7, 64];
const WIDTHS: [usize; 2] = [1, 3];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn index(&mut self, v: Option<usize>) {
        self.word(v.map_or(u64::MAX, |v| v as u64));
    }
}

fn ensemble(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("artifact parses")
}

/// Norway test links plus Belgium links, so some sessions trip.
fn mixed_traces() -> Vec<Trace> {
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let mut traces: Vec<Trace> = split.test[..5].to_vec();
    traces.extend(Dataset::Belgium.generate(3, 400, 77));
    traces
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

/// The signal under test and the α it deploys: calibrated for U_π and
/// U_V, a small fixed α for U_S (its margins live on their own scale).
fn guard(name: &str, text: &str) -> (FleetSignal, f32) {
    let signal = match name {
        "null" => return (FleetSignal::Null, f32::INFINITY),
        "u_s" => return (FleetSignal::Novelty(fitted_svm()), 0.05),
        "u_pi" => FleetSignal::PolicyDisagreement,
        "u_v" => FleetSignal::ValueDisagreement,
        _ => unreachable!("unknown signal {name}"),
    };
    let split = Split::generate(Dataset::Norway, 60, 400, 2020);
    let mut serve = ServeConfig::default();
    let alpha = calibrate_guard(
        &ensemble(text),
        &signal,
        &mut serve,
        &VideoModel::envivio(),
        &AbrConfig::default(),
        &split.validation[..4],
        DEFAULT_MARGIN,
    )
    .alpha;
    (signal, alpha)
}

/// One case's digest on a pool of `width` lanes, and the number of
/// switches it saw.
fn case_digest(
    text: &str,
    signal: &FleetSignal,
    serve: &ServeConfig,
    traces: &[Trace],
    width: usize,
) -> (u64, usize) {
    let pool = ThreadPool::new(width);
    with_pool(&pool, || {
        let mut engine = FleetEngine::new(
            ensemble(text),
            signal.clone(),
            VideoModel::envivio(),
            AbrConfig::default(),
            traces.to_vec(),
            SESSIONS,
            serve,
        );
        let mut h = Fnv::new();
        let mut active = [false; SESSIONS];
        for _ in 0..2 * CHUNK_COUNT {
            for (i, a) in active.iter_mut().enumerate() {
                *a = engine.sim().active(i);
            }
            h.word(engine.round() as u64);
            for (i, &a) in active.iter().enumerate() {
                if a {
                    h.word(engine.raw(i).to_bits() as u64);
                    h.word(engine.monitors().variance(i).to_bits() as u64);
                }
            }
        }
        let (sim, m) = (engine.sim(), engine.monitors());
        let mut switches = 0;
        for i in 0..SESSIONS {
            switches += m.switches(i);
            h.word(m.switches(i) as u64);
            h.word(m.recoveries(i) as u64);
            h.word(m.tripped(i) as u64);
            h.word(m.locked(i) as u64);
            h.index(m.tripped_at(i));
            h.index(m.last_trip(i));
            h.index(m.last_recovery(i));
            h.word(sim.qoe_total(i).to_bits());
            h.word(sim.chunks_total(i));
        }
        (h.0, switches)
    })
}

/// Every case of one signal, in the order of `pinned`: sticky then
/// reverse, `auto_reset` off then on, shard 1, 7, 64.
fn check_signal(name: &str, pinned: &[u64; 12]) {
    let text = std::fs::read_to_string(ARTIFACT)
        .expect("missing artifact — run `cargo run --release --example osap_ensemble_train`");
    let (signal, alpha) = guard(name, &text);
    let traces = mixed_traces();
    let print = std::env::var_os("ROUND_BITS_PRINT").is_some();
    let mut got = Vec::new();
    let mut switches = 0;
    for reverse in [None, Some(ReverseConfig::new(3, 8))] {
        for auto_reset in [false, true] {
            for shard in SHARDS {
                let serve = ServeConfig {
                    alpha,
                    reverse,
                    shard,
                    auto_reset,
                    ..ServeConfig::default()
                };
                let (want, s) = case_digest(&text, &signal, &serve, &traces, WIDTHS[0]);
                switches += s;
                for &width in &WIDTHS[1..] {
                    let (bits, _) = case_digest(&text, &signal, &serve, &traces, width);
                    assert_eq!(
                        bits, want,
                        "{name}: reverse {reverse:?}, auto_reset {auto_reset}, shard {shard}: \
                         pool width {width} diverged from width {}",
                        WIDTHS[0]
                    );
                }
                got.push(want);
            }
        }
    }
    if print {
        println!("{name}: {got:#018x?}");
    }
    for (c, (g, p)) in got.iter().zip(pinned).enumerate() {
        assert_eq!(
            g, p,
            "{name}: case {c} moved its bits ({g:#018x} != {p:#018x})"
        );
    }
    if name == "null" {
        assert_eq!(switches, 0, "the unguarded fleet never switches");
    } else if name != "u_pi" {
        // U_π detects nothing at this replica scale (EXPERIMENTS.md);
        // the other guards must trip on the shifted links.
        assert!(switches > 0, "{name}: no session switched");
    }
}

#[test]
fn null_rounds_keep_their_bits() {
    check_signal(
        "null",
        &[
            0xa0e68574b9c04182,
            0xa0e68574b9c04182,
            0xa0e68574b9c04182,
            0x4882d918ccdc7d9b,
            0x4882d918ccdc7d9b,
            0x4882d918ccdc7d9b,
            0xa0e68574b9c04182,
            0xa0e68574b9c04182,
            0xa0e68574b9c04182,
            0x4882d918ccdc7d9b,
            0x4882d918ccdc7d9b,
            0x4882d918ccdc7d9b,
        ],
    );
}

#[test]
fn u_pi_rounds_keep_their_bits() {
    check_signal(
        "u_pi",
        &[
            0x7aaba223411bd514,
            0x7aaba223411bd514,
            0x7aaba223411bd514,
            0x6c61919d10f00308,
            0x6c61919d10f00308,
            0x6c61919d10f00308,
            0x7aaba223411bd514,
            0x7aaba223411bd514,
            0x7aaba223411bd514,
            0x6c61919d10f00308,
            0x6c61919d10f00308,
            0x6c61919d10f00308,
        ],
    );
}

#[test]
fn u_v_rounds_keep_their_bits() {
    check_signal(
        "u_v",
        &[
            0x683878310478652c,
            0x683878310478652c,
            0x683878310478652c,
            0x4f5195ffbf3d9461,
            0x4f5195ffbf3d9461,
            0x4f5195ffbf3d9461,
            0xf86e24e7fce814c2,
            0xf86e24e7fce814c2,
            0xf86e24e7fce814c2,
            0x9cbf2f1a4654262d,
            0x9cbf2f1a4654262d,
            0x9cbf2f1a4654262d,
        ],
    );
}

#[test]
fn u_s_rounds_keep_their_bits() {
    check_signal(
        "u_s",
        &[
            0x364e147874496421,
            0x364e147874496421,
            0x364e147874496421,
            0xb50c006717456280,
            0xb50c006717456280,
            0xb50c006717456280,
            0x49cea6a8bd272869,
            0x49cea6a8bd272869,
            0x49cea6a8bd272869,
            0xb8e64b58122a38bf,
            0xb8e64b58122a38bf,
            0xb8e64b58122a38bf,
        ],
    );
}
