//! The switching automaton, checked exhaustively against a reference
//! model.
//!
//! [`FleetMonitors`] is the part of the safety layer that decides when
//! control leaves the learned policy and when it comes back. This suite
//! restates that decision from §2.5 of the paper and the reverse-
//! switching rules of `monitor.rs`'s module docs as a plain-`f64` model
//! [`Spec`], which recomputes its window every decision and keeps no
//! ring, and compares the two after every decision of every raw sequence
//! up to [`DEPTH`] steps over the alphabet {0, 1, 3, NaN, +∞} plus a
//! `reset_session` step.
//!
//! The walk is depth-first, so each prefix is computed once: a child
//! starts from a clone of its parent's monitor and model. It runs every
//! configuration with k, l ∈ 1..=3; sticky, or reverse with
//! m ∈ {1, 2} and re-trip guard ∈ {0, 2, `usize::MAX`}; anchored at
//! μ₀ = 1 or not.
//!
//! Thresholds: the monitor computes in `f32`, the model in `f64`. Every
//! α sits strictly between two variances a window over {0, 1, 3} can
//! reach, so both precisions classify every window alike; the one
//! exception is α = 0, the variance of a constant (or, anchored, an
//! all-ones) window, which both precisions compute exactly. That tie is
//! what tells `var ≤ α` from `var < α`.

use osa_core::serve::{FleetMonitors, ServeConfig};
use osa_core::ReverseConfig;

/// Longest sequence walked.
const DEPTH: usize = 5;

/// μ₀ of the anchored configurations.
const ANCHOR: f32 = 1.0;

/// The finite raw values of the alphabet.
const FINITE: [f32; 3] = [0.0, 1.0, 3.0];

#[derive(Clone, Copy, Debug)]
enum Step {
    Raw(f32),
    Reset,
}

const ALPHABET: [Step; 6] = [
    Step::Raw(0.0),
    Step::Raw(1.0),
    Step::Raw(3.0),
    Step::Raw(f32::NAN),
    Step::Raw(f32::INFINITY),
    Step::Reset,
];

/// One configuration of the walk.
#[derive(Clone, Copy, Debug)]
struct Config {
    k: usize,
    l: usize,
    alpha: f32,
    anchor: Option<f32>,
    reverse: Option<ReverseConfig>,
}

impl Config {
    fn serve(&self) -> ServeConfig {
        ServeConfig {
            k: self.k,
            alpha: self.alpha,
            l: self.l,
            anchor: self.anchor,
            reverse: self.reverse,
            ..ServeConfig::default()
        }
    }
}

/// The reference model of one session.
///
/// - A decision is *full* once at least k raw values have been observed
///   since the session began; its window is the last k of them.
/// - The variance of a full window is `Σ (u − c)² / k` about c = μ₀ when
///   anchored, else the window mean. The decision is *quiet* iff the
///   variance is ≤ α; a NaN variance is not quiet.
/// - On the learned policy, the l-th consecutive loud decision since the
///   session began or last recovered is a trip.
/// - On the fallback with reverse switching, the m-th consecutive quiet
///   decision since the trip is a recovery. A trip at most `guard`
///   decisions after the last recovery locks the session on the
///   fallback.
/// - A sticky or locked fallback observes nothing: its window freezes.
/// - `reset_session` forgets the window, the streaks, the mode, the lock
///   and the trip/recovery indices; the switch, recovery and decision
///   counts are lifetime counts and survive it.
#[derive(Clone, Copy, Debug, Default)]
struct Spec {
    /// Observed raw values since the session began, newest last; only
    /// the last k matter.
    seen: [f64; 3],
    observed: usize,
    loud_run: usize,
    quiet_run: usize,
    fallback: bool,
    locked: bool,
    tripped_at: Option<usize>,
    last_trip: Option<usize>,
    last_recovery: Option<usize>,
    switches: usize,
    recoveries: usize,
    decisions: usize,
}

impl Spec {
    fn variance(window: &[f64], anchor: Option<f32>) -> f64 {
        let k = window.len() as f64;
        let c = match anchor {
            Some(mu) => mu as f64,
            None => window.iter().sum::<f64>() / k,
        };
        window.iter().map(|u| (u - c) * (u - c)).sum::<f64>() / k
    }

    fn window(&self, k: usize) -> Option<&[f64]> {
        (self.observed >= k).then(|| &self.seen[3 - k..])
    }

    fn update(&mut self, raw: f32, c: &Config) {
        let j = self.decisions;
        self.decisions += 1;
        if self.fallback && (c.reverse.is_none() || self.locked) {
            return;
        }
        self.seen.rotate_left(1);
        self.seen[2] = raw as f64;
        self.observed += 1;
        let Some(window) = self.window(c.k) else {
            return;
        };
        let quiet = Spec::variance(window, c.anchor) <= c.alpha as f64;
        if !self.fallback {
            self.loud_run = if quiet { 0 } else { self.loud_run + 1 };
            if self.loud_run == c.l {
                self.fallback = true;
                self.loud_run = 0;
                self.quiet_run = 0;
                self.switches += 1;
                self.tripped_at.get_or_insert(j);
                self.last_trip = Some(j);
                if let (Some(rev), Some(r)) = (c.reverse, self.last_recovery) {
                    self.locked = j - r <= rev.retrip_guard;
                }
            }
        } else {
            let m = c
                .reverse
                .expect("an observing fallback is reverse")
                .quiet_windows;
            self.quiet_run = if quiet { self.quiet_run + 1 } else { 0 };
            if self.quiet_run == m {
                self.fallback = false;
                self.quiet_run = 0;
                self.loud_run = 0;
                self.recoveries += 1;
                self.last_recovery = Some(j);
            }
        }
    }

    fn reset_session(&mut self) {
        *self = Spec {
            switches: self.switches,
            recoveries: self.recoveries,
            decisions: self.decisions,
            ..Spec::default()
        };
    }
}

/// Every α of the walk for window length k: below every variance (every
/// full window is loud), the exact tie at 0, the lowest and a middle gap
/// between reachable variances, and above every finite variance (only
/// non-finite windows are loud).
fn alphas(k: usize, anchor: Option<f32>) -> Vec<f32> {
    let mut vars = Vec::new();
    for code in 0..FINITE.len().pow(k as u32) {
        let window: Vec<f64> = (0..k)
            .map(|p| FINITE[code / FINITE.len().pow(p as u32) % FINITE.len()] as f64)
            .collect();
        vars.push(Spec::variance(&window, anchor));
    }
    vars.sort_by(f64::total_cmp);
    vars.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    assert_eq!(vars[0], 0.0, "a constant window is reachable");
    let mut out = vec![-1.0, 0.0];
    let gap = |i: usize| ((vars[i] + vars[i + 1]) / 2.0) as f32;
    if vars.len() >= 2 {
        out.push(gap(0));
    }
    if vars.len() >= 4 {
        out.push(gap(vars.len() / 2));
    }
    out.push(vars[vars.len() - 1] as f32 + 1.0);
    out
}

fn configs() -> Vec<Config> {
    let mut reverse = vec![None];
    for m in [1, 2] {
        for guard in [0, 2, usize::MAX] {
            reverse.push(Some(ReverseConfig::new(m, guard)));
        }
    }
    let mut out = Vec::new();
    for k in 1..=3 {
        for anchor in [None, Some(ANCHOR)] {
            for alpha in alphas(k, anchor) {
                for l in 1..=3 {
                    for &reverse in &reverse {
                        out.push(Config {
                            k,
                            l,
                            alpha,
                            anchor,
                            reverse,
                        });
                    }
                }
            }
        }
    }
    out
}

/// What the walk saw, so the suite can show it reached every branch.
#[derive(Default)]
struct Coverage {
    decisions: usize,
    trips: usize,
    recoveries: usize,
    locks: usize,
    resets_after_recovery: usize,
}

struct Walk<'a> {
    config: &'a Config,
    path: Vec<Step>,
    coverage: &'a mut Coverage,
}

impl Walk<'_> {
    fn fail(&self, what: &str) -> ! {
        panic!("{what}\nconfig {:?}\npath {:?}", self.config, self.path)
    }

    /// Take `step` from the parent state, check the result, recurse.
    fn visit(&mut self, step: Step, parent: (&FleetMonitors, &Spec)) {
        let (mut fleet, mut spec) = (parent.0.clone(), *parent.1);
        let c = *self.config;
        let (switches, recoveries) = (fleet.switches(0), fleet.recoveries(0));
        let stuck = fleet.tripped(0) && (c.reverse.is_none() || fleet.locked(0));
        self.path.push(step);
        match step {
            Step::Raw(raw) => {
                let observing = fleet.observing(0);
                let tripped = fleet.update(0, raw);
                spec.update(raw, &c);
                if tripped != fleet.tripped(0) {
                    self.fail("update's return value is not the tripped state");
                }
                if stuck && !tripped {
                    self.fail("a sticky or locked fallback handed back");
                }
                match spec.window(c.k) {
                    None if tripped => self.fail("tripped before the window filled"),
                    Some(w)
                        if observing
                            && w.iter().any(|u| !u.is_finite())
                            && fleet.variance(0) <= c.alpha =>
                    {
                        self.fail("a full window holding a non-finite value read as quiet")
                    }
                    _ => {}
                }
            }
            Step::Reset => {
                if spec.recoveries > 0 {
                    self.coverage.resets_after_recovery += 1;
                }
                fleet.reset_session(0);
                spec.reset_session();
                if (fleet.switches(0), fleet.recoveries(0)) != (switches, recoveries) {
                    self.fail("reset_session lost a lifetime counter");
                }
            }
        }
        self.compare(&fleet, &spec);
        self.coverage.decisions += 1;
        self.coverage.trips += usize::from(fleet.switches(0) > switches);
        self.coverage.recoveries += usize::from(fleet.recoveries(0) > recoveries);
        self.coverage.locks += usize::from(fleet.locked(0) && !stuck);
        if self.path.len() < DEPTH {
            for next in ALPHABET {
                self.visit(next, (&fleet, &spec));
            }
        }
        self.path.pop();
    }

    fn compare(&self, fleet: &FleetMonitors, spec: &Spec) {
        let got = (
            fleet.tripped(0),
            fleet.locked(0),
            fleet.switches(0),
            fleet.recoveries(0),
            fleet.tripped_at(0),
            fleet.last_trip(0),
            fleet.last_recovery(0),
        );
        let want = (
            spec.fallback,
            spec.locked,
            spec.switches,
            spec.recoveries,
            spec.tripped_at,
            spec.last_trip,
            spec.last_recovery,
        );
        if got != want {
            self.fail(&format!(
                "monitor and spec disagree\n  (tripped, locked, switches, recoveries, \
                 tripped_at, last_trip, last_recovery)\n  monitor {got:?}\n  spec    {want:?}"
            ));
        }
    }
}

#[test]
fn monitor_matches_spec_on_every_sequence() {
    let configs = configs();
    let mut coverage = Coverage::default();
    for config in &configs {
        let fleet = FleetMonitors::new(1, &config.serve());
        let spec = Spec::default();
        let mut walk = Walk {
            config,
            path: Vec::with_capacity(DEPTH),
            coverage: &mut coverage,
        };
        for step in ALPHABET {
            walk.visit(step, (&fleet, &spec));
        }
    }
    // The walk reaches every transition of the automaton.
    assert!(configs.len() > 500, "{} configurations", configs.len());
    assert!(coverage.trips > 0 && coverage.recoveries > 0);
    assert!(coverage.locks > 0 && coverage.resets_after_recovery > 0);
    let per_config: usize = (1..=DEPTH).map(|d| ALPHABET.len().pow(d as u32)).sum();
    assert_eq!(coverage.decisions, configs.len() * per_config);
}
