//! The four workloads, the traces each one serves, and the set-up every
//! run repeats: corpus, artifact, calibration, engine build and warm-up.

use std::time::Instant;

use osa_abr::sim::AbrConfig;
use osa_abr::video::{VideoModel, CHUNK_COUNT};
use osa_bench::osap;
use osa_core::prelude::*;
use osa_core::serve::FleetEngine;
use osa_ocsvm::OcSvm;
use osa_trace::{Dataset, Split, Trace};

/// Distinct traces every workload serves; session `i` starts on trace
/// `i mod SERVED_TRACES` and rolls round-robin after each video. The
/// quality metrics average one video per trace, and with fewer traces
/// they would move with `--seed` more than any bound worth gating.
pub const SERVED_TRACES: usize = 2048;
pub const TRACE_LEN: usize = 400;
/// Sessions per shard of the engine's batched forwards.
pub const SHARD: usize = 64;
/// Reverse switching: back to the learned policy after 3 quiet windows;
/// a re-trip within 8 decisions of a recovery locks the session.
pub const REVERSE: ReverseConfig = ReverseConfig {
    quiet_windows: 3,
    retrip_guard: 8,
};
/// `shift_us`: the shift starts at this trace sample (1 s apart).
pub const SHIFT_START: usize = 10;
const BELGIUM_END: usize = 40;
const OUTAGE_END: usize = 70;
const OUTAGE_CAP_MBPS: f32 = 0.4;
/// Decorrelates the Belgium donor stream from the served Norway stream
/// drawn from the same `--seed`.
const DONOR_SALT: u64 = 0xbe19_1a4d_0d0e_5a17;

#[derive(Clone, Copy, Debug)]
pub enum Signal {
    /// U_V: value disagreement off the stacked critic.
    Uv,
    /// Anchored U_S: one-class SVM novelty of throughput windows.
    Us,
}

/// One traffic mix, served on a one-lane pool. Why each exists is
/// recorded in `BENCHMARK.json` and `benchmark/README.md`: each signal
/// layer is heavy in one workload and idle in another, and `fleet16k`
/// outgrows the caches.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sessions: usize,
    pub signal: Signal,
    /// Serve Belgium-spliced / rate-capped traces instead of plain Norway.
    pub shifted: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_uv",
        sessions: 256,
        signal: Signal::Uv,
        shifted: false,
    },
    Workload {
        name: "steady_us",
        sessions: 256,
        signal: Signal::Us,
        shifted: false,
    },
    Workload {
        name: "shift_us",
        sessions: 256,
        signal: Signal::Us,
        shifted: true,
    },
    Workload {
        name: "fleet16k",
        sessions: 16_384,
        signal: Signal::Uv,
        shifted: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Lanes of the pool the determinism check and the pool-2 efficiency
/// run on: two, or one on a single-core host.
pub fn wide_width() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// The traces a workload serves — the only input `--seed` changes.
/// Shifted workloads splice a Belgium window into samples 10..40 of the
/// even traces and cap the odd ones at 0.4 Mbit/s over samples 10..70.
pub fn served_traces(seed: u64, shifted: bool) -> Vec<Trace> {
    let norway = Dataset::Norway.generate(SERVED_TRACES, TRACE_LEN, seed);
    if !shifted {
        return norway;
    }
    let donors = Dataset::Belgium.generate(SERVED_TRACES / 2, TRACE_LEN, seed ^ DONOR_SALT);
    norway
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let mut mbps = t.mbps;
            if i % 2 == 0 {
                let donor = &donors[i / 2].mbps;
                mbps[SHIFT_START..BELGIUM_END].copy_from_slice(&donor[SHIFT_START..BELGIUM_END]);
            } else {
                for v in &mut mbps[SHIFT_START..OUTAGE_END] {
                    *v = v.min(OUTAGE_CAP_MBPS);
                }
            }
            Trace::new(format!("{}-shifted", t.id), t.interval_s, mbps)
        })
        .collect()
}

/// The calibrated guard: the signal plus the threshold it trips at.
/// Calibration always runs on the fixed seed-2020 Norway split, the
/// deployed model's own data, never on the served traces.
pub struct Guard {
    pub svm: Option<OcSvm>,
    pub alpha: f32,
    pub anchor: Option<f32>,
}

impl Guard {
    fn calibrate(signal: Signal, ens: &SharedEnsemble, split: &Split) -> Guard {
        let (video, cfg) = (VideoModel::envivio(), AbrConfig::default());
        let val = &split.validation[..4];
        let monitor = || Monitor::new(DEFAULT_K, f32::INFINITY, DEFAULT_L);
        match signal {
            Signal::Uv => {
                let mut agent =
                    abr_safe_agent(ens.clone(), ValueDisagreement::new(ens.clone()), monitor());
                let cal = calibrate(&mut agent, &video, &cfg, val, DEFAULT_MARGIN);
                Guard {
                    svm: None,
                    alpha: cal.alpha,
                    anchor: None,
                }
            }
            Signal::Us => {
                // Anchor at the in-distribution score mean μ₀, then
                // recalibrate α against the anchored variance.
                let svm = osap::fit_us_svm(ens, &video, &cfg, &split.train);
                let mut agent =
                    abr_safe_agent(ens.clone(), NoveltySignal::new(svm.clone()), monitor());
                let mu = calibrate_novelty(&mut agent, &video, &cfg, val, DEFAULT_MARGIN).mu;
                agent.monitor_mut().set_anchor(Some(mu));
                let cal = calibrate_novelty(&mut agent, &video, &cfg, val, DEFAULT_MARGIN);
                Guard {
                    svm: Some(svm),
                    alpha: cal.alpha,
                    anchor: Some(mu),
                }
            }
        }
    }

    pub fn fleet_signal(&self) -> FleetSignal {
        match &self.svm {
            Some(svm) => FleetSignal::Novelty(svm.clone()),
            None => FleetSignal::ValueDisagreement,
        }
    }

    pub fn serve_config(&self, auto_reset: bool) -> ServeConfig {
        ServeConfig {
            alpha: self.alpha,
            anchor: self.anchor,
            reverse: Some(REVERSE),
            shard: SHARD,
            auto_reset,
            ..ServeConfig::default()
        }
    }
}

/// Wall time of each set-up stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub corpus: f64,
    pub artifact: f64,
    pub calibrate: f64,
    pub engine_build: f64,
    pub warmup: f64,
}

impl StageTimes {
    pub fn total(&self) -> f64 {
        self.corpus + self.artifact + self.calibrate + self.engine_build + self.warmup
    }
}

/// Everything one set-up builds: a warmed engine and what it came from.
pub struct Setup {
    pub workload: &'static Workload,
    pub split: Split,
    pub traces: Vec<Trace>,
    pub artifact: String,
    pub guard: Guard,
    pub engine: FleetEngine,
    pub stages: StageTimes,
}

impl Setup {
    /// One full set-up on the current pool, timed stage by stage. Ends
    /// with one untimed-by-the-caller video of warm-up rounds.
    pub fn new(workload: &'static Workload, seed: u64) -> Setup {
        let mut stages = StageTimes::default();
        let mut lap = Instant::now();
        let mut stage = |slot: &mut f64| {
            *slot = lap.elapsed().as_secs_f64();
            lap = Instant::now();
        };

        let split = osap::corpus();
        let traces = served_traces(seed, workload.shifted);
        stage(&mut stages.corpus);

        let artifact = std::fs::read_to_string(osap::ARTIFACT).expect("read ensemble artifact");
        let shared_ens = shared(parse_ensemble(&artifact));
        let owned = parse_ensemble(&artifact);
        stage(&mut stages.artifact);

        let guard = Guard::calibrate(workload.signal, &shared_ens, &split);
        stage(&mut stages.calibrate);

        let mut setup = Setup {
            workload,
            engine: FleetEngine::new(
                owned,
                guard.fleet_signal(),
                VideoModel::envivio(),
                AbrConfig::default(),
                traces.clone(),
                workload.sessions,
                &guard.serve_config(true),
            ),
            split,
            traces,
            artifact,
            guard,
            stages,
        };
        stage(&mut setup.stages.engine_build);

        for _ in 0..CHUNK_COUNT {
            setup.engine.round();
        }
        stage(&mut setup.stages.warmup);
        setup
    }

    /// `reps` full set-ups in a row (each dropped before the next, so
    /// peak memory is one set-up's); returns the last and every stage
    /// timing.
    pub fn repeated(
        workload: &'static Workload,
        seed: u64,
        reps: usize,
    ) -> (Setup, Vec<StageTimes>) {
        let mut stages = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let s = Setup::new(workload, seed);
            stages.push(s.stages);
            last = Some(s);
        }
        (last.expect("at least one set-up"), stages)
    }

    /// The unguarded learned policy, one session per served trace, one
    /// video each: the reference the guarded QoE is compared with.
    pub fn unguarded_engine(&self) -> FleetEngine {
        FleetEngine::new(
            parse_ensemble(&self.artifact),
            FleetSignal::Null,
            VideoModel::envivio(),
            AbrConfig::default(),
            self.traces.clone(),
            self.traces.len(),
            &ServeConfig {
                shard: SHARD,
                ..ServeConfig::default()
            },
        )
    }

    /// Another engine over the same traces and guard (fresh ensemble).
    pub fn engine(&self, sessions: usize, auto_reset: bool) -> FleetEngine {
        FleetEngine::new(
            parse_ensemble(&self.artifact),
            self.guard.fleet_signal(),
            VideoModel::envivio(),
            AbrConfig::default(),
            self.traces.clone(),
            sessions,
            &self.guard.serve_config(auto_reset),
        )
    }
}

pub fn parse_ensemble(text: &str) -> PensieveEnsemble {
    PensieveEnsemble::from_json(text).expect("committed ensemble artifact parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_only_the_served_traces() {
        assert_eq!(served_traces(3, false), served_traces(3, false));
        assert_ne!(served_traces(3, false), served_traces(4, false));
        let plain = served_traces(5, false);
        let shifted = served_traces(5, true);
        assert_eq!(shifted.len(), SERVED_TRACES);
        for (i, (p, s)) in plain.iter().zip(&shifted).enumerate() {
            // Identical outside the shift window, different inside it.
            assert_eq!(p.mbps[..SHIFT_START], s.mbps[..SHIFT_START]);
            assert_eq!(p.mbps[OUTAGE_END..], s.mbps[OUTAGE_END..]);
            if i % 2 == 1 {
                assert!(s.mbps[SHIFT_START..OUTAGE_END]
                    .iter()
                    .all(|&v| v <= OUTAGE_CAP_MBPS));
            }
        }
    }

    #[test]
    fn workload_names_are_unique_and_metric_safe() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::stats::valid_metric_name(w.name), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
    }
}
