//! `osa-bench` — the evaluation harness (DESIGN.md §1 row 9).
//!
//! # What's here
//!
//! - The paper's figure binaries (`src/bin/`): `fig1_in_distribution`
//!   (in-distribution QoE parity), `fig2_distribution_shift` (Belgium
//!   4G), `fig3_signal_timeseries`, `fig4_detection_delay`, `fig5_cdf`,
//!   and `table_runtime`. Each is fully deterministic off the committed
//!   ensemble artifact and writes a diffable JSON to
//!   `artifacts/figures/` (see [`osap`], the shared setup). Remaining
//!   from DESIGN.md §7: the ablation binaries (thresholding, ensemble
//!   size, detector choice, revert strategy, CC generalization).
//! - Microbenchmarks (`benches/`, hand-rolled harness — the offline
//!   build has no criterion): NN forward/backward, A2C rollout
//!   throughput, trace generation, ABR engine step, and `osap_signals`
//!   (per-decision signal cost, SMO fit, stacked-vs-sequential
//!   ensemble forward). Baselines live at the repo root
//!   (`BENCH_nn.json` … `BENCH_osap.json`) so later performance PRs
//!   have a trajectory to beat.
//!
//! [`run_bench`] is the shared sampling harness, [`counting_alloc`] the
//! heap-traffic instrument behind its `allocs_per_iter` column, and
//! [`compare`] the regression gate (`bench_compare` binary) that diffs
//! a fresh report against the committed baseline.
#![deny(unsafe_code)]

pub mod osap;

use std::io;
use std::path::Path;
use std::time::Instant;

use osa_nn::json::{obj, Value};

/// Allocation-counting shim around the system allocator.
///
/// Benches (and the zero-allocation regression test) register
/// [`counting_alloc::CountingAlloc`] as their `#[global_allocator]`; the
/// module's free functions then read global event counters. Counters are
/// process-wide relaxed atomics — cheap enough to leave on under timing
/// (one `fetch_add` per heap event) but *shared across threads*, so
/// callers measuring a window must keep that window single-threaded.
#[allow(unsafe_code)] // a GlobalAlloc impl is irreducibly unsafe
pub mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static DEALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting every alloc/realloc/dealloc.
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc is new heap traffic even when it grows in place.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Heap allocation events (allocs + reallocs) since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Heap deallocation events since process start.
    pub fn deallocations() -> u64 {
        DEALLOCS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the allocator since process start.
    pub fn allocated_bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }

    /// Minimum allocation count observed across `windows` measurement
    /// windows of `rounds_per_window` calls to `round` each.
    ///
    /// The counters are process-wide, and the libtest harness thread can
    /// allocate *concurrently* with a measured window (its timeout-wait
    /// machinery allocates on some park paths, which is timing-dependent
    /// and shows up under load). That noise is strictly additive, so the
    /// minimum over several windows isolates the measured loop's own
    /// behavior: a loop that genuinely allocates shows up in **every**
    /// window, while harness noise pollutes at most a few. Zero-alloc
    /// proofs should assert the returned minimum is 0.
    pub fn min_window_allocations(
        windows: usize,
        rounds_per_window: usize,
        mut round: impl FnMut(),
    ) -> u64 {
        let mut min = u64::MAX;
        for _ in 0..windows {
            let before = allocations();
            for _ in 0..rounds_per_window {
                round();
            }
            min = min.min(allocations() - before);
        }
        min
    }
}

/// Effective thread budget of this process — `OSA_THREADS` if set, else
/// the hardware's available parallelism (see
/// [`osa_runtime::thread_budget`]). Recorded in every `BENCH_*.json`;
/// [`compare::check_comparable`] refuses to diff reports whose budgets
/// differ, so CI pins `OSA_THREADS=1` around the bench gate.
pub fn hardware_threads() -> usize {
    osa_runtime::thread_budget()
}

/// The GEMM accumulation-order contract compiled into this binary —
/// re-exported from [`osa_nn::tensor::kernel_variant`] so every
/// `BENCH_*.json` records which kernel family produced its numbers.
/// [`compare::check_comparable`] refuses to diff reports from different
/// variants: a scalar-kernel baseline and a lane8 run time different
/// code.
pub fn kernel_variant() -> &'static str {
    osa_nn::tensor::kernel_variant()
}

/// Effective SIMD target this binary was compiled for, from the
/// compile-time target features (`.cargo/config.toml` sets
/// `-C target-cpu=native`, so these reflect the build host). Coarse by
/// design — the widest vector extension is what moves GEMM timings.
pub fn target_cpu() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "avx") {
        "avx"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else {
        "generic"
    }
}

/// Summary statistics of one [`run_bench`] series.
pub struct BenchStats {
    pub name: String,
    pub mean_ns: f64,
    pub median_ns: u64,
    pub p95_ns: u64,
    pub samples: usize,
    /// Mean heap allocation events per iteration over the measured
    /// window. Meaningful only when [`counting_alloc::CountingAlloc`] is
    /// the registered global allocator; reads 0.0 otherwise.
    pub allocs_per_iter: f64,
}

impl BenchStats {
    /// The canonical JSON shape every `BENCH_*.json` result entry uses.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("mean_ns", Value::Num(self.mean_ns.round())),
            ("median_ns", Value::Num(self.median_ns as f64)),
            ("p95_ns", Value::Num(self.p95_ns as f64)),
            ("samples", Value::Num(self.samples as f64)),
            (
                "allocs_per_iter",
                Value::Num((self.allocs_per_iter * 100.0).round() / 100.0),
            ),
        ])
    }
}

/// Shared sampling harness for all `benches/` binaries: run `f` for
/// `samples/4 + 1` unrecorded warmup iterations, then time `samples`
/// recorded ones, print a one-line summary, and return the stats
/// (mean / median / p95 wall-clock plus allocations per iteration).
pub fn run_bench(name: &str, samples: usize, mut f: impl FnMut()) -> BenchStats {
    assert!(samples > 0, "need at least one sample");
    for _ in 0..samples / 4 + 1 {
        f();
    }
    let mut ns = Vec::with_capacity(samples);
    let allocs_before = counting_alloc::allocations();
    for _ in 0..samples {
        let start = Instant::now();
        f();
        ns.push(start.elapsed().as_nanos() as u64);
    }
    let allocs_per_iter = (counting_alloc::allocations() - allocs_before) as f64 / samples as f64;
    ns.sort_unstable();
    let mean = ns.iter().sum::<u64>() as f64 / ns.len() as f64;
    let median = ns[ns.len() / 2];
    let p95 = ns[((ns.len() as f64 * 0.95) as usize).saturating_sub(1)];
    println!(
        "{name:<28} mean {mean:>10.0} ns   median {median:>10} ns   p95 {p95:>10} ns   \
         allocs/iter {allocs_per_iter:>8.1}"
    );
    BenchStats {
        name: name.to_string(),
        mean_ns: mean,
        median_ns: median,
        p95_ns: p95,
        samples,
        allocs_per_iter,
    }
}

/// Replace every non-finite number in a JSON document with `null`,
/// recursively.
///
/// A bench run measures live metrics (rewards, throughputs, losses); one
/// NaN must not cost the whole report. `osa_nn::json` refuses to encode
/// non-finite numbers ([`Value::try_to_json`] errors), so report writers
/// sanitize first: the poisoned cell becomes `null` — visibly absent in
/// the committed baseline — and every other measurement survives.
pub fn sanitize(value: Value) -> Value {
    match value {
        Value::Num(n) if !n.is_finite() => Value::Null,
        Value::Arr(items) => Value::Arr(items.into_iter().map(sanitize).collect()),
        Value::Obj(map) => Value::Obj(map.into_iter().map(|(k, v)| (k, sanitize(v))).collect()),
        other => other,
    }
}

/// Sanitize `report` and write it to `path` with a trailing newline.
///
/// The single entry point the `benches/` binaries use for their
/// `BENCH_*.json` baselines.
pub fn write_report<P: AsRef<Path>>(path: P, report: Value) -> io::Result<()> {
    let text = sanitize(report)
        .try_to_json()
        .expect("sanitize leaves only finite numbers");
    std::fs::write(path, text + "\n")
}

/// The regression gate behind the `bench_compare` binary: diff a freshly
/// generated `BENCH_*.json` against the committed baseline and flag
/// latency metrics that got meaningfully worse.
pub mod compare {
    use std::collections::BTreeMap;

    use osa_nn::json::Value;

    /// Latency regressions beyond `baseline × (1 + TOLERANCE)` fail the
    /// gate. 25% is deliberately loose: it must swallow scheduler noise on
    /// shared runners while still catching a kernel that lost its
    /// blocking or a hot path that started allocating.
    pub const TOLERANCE: f64 = 0.25;

    /// Is this JSON key a gated metric? Latency columns (`*_ns`) and the
    /// allocation counter are gated; throughput columns are informational
    /// (they move inversely with the latencies anyway).
    fn gated(key: &str) -> bool {
        key.ends_with("_ns") || key == "allocs_per_iter"
    }

    /// A label that identifies a result entry across runs, independent of
    /// its position in the report.
    fn label(map: &BTreeMap<String, Value>) -> Option<String> {
        for key in ["name", "dataset", "workers", "bench"] {
            match map.get(key) {
                Some(Value::Str(s)) => return Some(format!("{key}={s}")),
                Some(Value::Num(n)) => return Some(format!("{key}={n}")),
                _ => {}
            }
        }
        None
    }

    /// Flatten every gated metric in a report into `path → value`.
    pub fn collect_metrics(doc: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
        match doc {
            Value::Obj(map) => {
                let prefix = match label(map) {
                    Some(l) => format!("{prefix}/{l}"),
                    None => prefix.to_string(),
                };
                for (key, child) in map {
                    match child {
                        Value::Num(n) if gated(key) => {
                            out.insert(format!("{prefix}/{key}"), *n);
                        }
                        _ => collect_metrics(child, &prefix, out),
                    }
                }
            }
            Value::Arr(items) => {
                for item in items {
                    collect_metrics(item, prefix, out);
                }
            }
            _ => {}
        }
    }

    /// JSON keys that describe the thread context a report was taken
    /// under, not a measured quantity. Reports that disagree on any of
    /// them were produced by *different workloads* — a GEMM sharded over
    /// 4 workers is not the single-thread GEMM the baseline timed — so
    /// diffing their latencies yields false regression verdicts, and
    /// [`check_comparable`] refuses instead.
    const THREAD_KEYS: [&str; 3] = ["hardware_threads", "pool_workers", "workers"];

    /// JSON keys that describe the *compiled kernel* a report measured.
    /// A baseline taken from scalar kernels and a current report from the
    /// lane8 micro-kernels timed different code under different
    /// accumulation contracts — their latencies are not like-for-like,
    /// so [`check_comparable`] refuses the pair.
    const VARIANT_KEYS: [&str; 2] = ["kernel_variant", "target_cpu"];

    /// Collect every string value of the variant keys, per key, in
    /// document order (sorted afterwards so entry order is irrelevant).
    fn variant_fingerprint(doc: &Value, out: &mut BTreeMap<String, Vec<String>>) {
        match doc {
            Value::Obj(map) => {
                for (key, child) in map {
                    if let Value::Str(s) = child {
                        if VARIANT_KEYS.contains(&key.as_str()) {
                            out.entry(key.clone()).or_default().push(s.clone());
                        }
                    }
                    variant_fingerprint(child, out);
                }
            }
            Value::Arr(items) => {
                for item in items {
                    variant_fingerprint(item, out);
                }
            }
            _ => {}
        }
    }

    /// Collect every value of the thread-context keys, per key, in
    /// document order (sorted afterwards so entry order is irrelevant).
    fn thread_fingerprint(doc: &Value, out: &mut BTreeMap<String, Vec<u64>>) {
        match doc {
            Value::Obj(map) => {
                for (key, child) in map {
                    if let Value::Num(n) = child {
                        if THREAD_KEYS.contains(&key.as_str()) {
                            out.entry(key.clone()).or_default().push(*n as u64);
                        }
                    }
                    thread_fingerprint(child, out);
                }
            }
            Value::Arr(items) => {
                for item in items {
                    thread_fingerprint(item, out);
                }
            }
            _ => {}
        }
    }

    /// Refuse cross-context comparisons: `Err` describes the first
    /// thread-budget (`hardware_threads` / thread-count) or kernel
    /// (`kernel_variant` / `target_cpu`) mismatch between the two
    /// reports. This is a *refusal*, not a regression — `bench_compare`
    /// exits with a distinct code (3) and message for it.
    ///
    /// A key recorded in only one of the two reports makes no claim: an
    /// older baseline that predates a field cannot *disagree* about it,
    /// and refusing on absence would block every report-format migration
    /// forever. Refusal requires both reports to record the key with
    /// different value sets.
    pub fn check_comparable(baseline: &Value, current: &Value) -> Result<(), String> {
        let (mut base, mut cur) = (BTreeMap::new(), BTreeMap::new());
        thread_fingerprint(baseline, &mut base);
        thread_fingerprint(current, &mut cur);
        for key in THREAD_KEYS {
            let (Some(b), Some(c)) = (base.get(key), cur.get(key)) else {
                continue;
            };
            let (mut b, mut c) = (b.clone(), c.clone());
            b.sort_unstable();
            c.sort_unstable();
            if b != c {
                return Err(format!(
                    "thread context differs: {key} is {b:?} in baseline but {c:?} in current \
                     report; re-run both under the same OSA_THREADS budget"
                ));
            }
        }
        let (mut base, mut cur) = (BTreeMap::new(), BTreeMap::new());
        variant_fingerprint(baseline, &mut base);
        variant_fingerprint(current, &mut cur);
        for key in VARIANT_KEYS {
            let (Some(b), Some(c)) = (base.get(key), cur.get(key)) else {
                continue;
            };
            let (mut b, mut c) = (b.clone(), c.clone());
            b.sort_unstable();
            b.dedup();
            c.sort_unstable();
            c.dedup();
            if b != c {
                return Err(format!(
                    "kernel context differs: {key} is {b:?} in baseline but {c:?} in current \
                     report; regenerate the baseline with the current kernels before gating"
                ));
            }
        }
        Ok(())
    }

    /// Compare `current` against `baseline`; each returned string is one
    /// human-readable regression. Empty means the gate passes.
    /// Callers should run [`check_comparable`] first — this function
    /// assumes the reports came from the same thread context.
    ///
    /// Rules, per gated metric:
    /// - `*_ns`: fail when `current > baseline × (1 + TOLERANCE)`;
    /// - `allocs_per_iter`: fail when
    ///   `current > baseline × (1 + TOLERANCE) + 0.5` — the additive slack
    ///   keeps a 0 → 0.4 counting wobble from tripping a zero baseline,
    ///   while 0 → 1 (a new steady-state allocation) still fails;
    /// - a metric present in the baseline but missing from the current
    ///   report fails (renaming a bench must update the baseline too).
    pub fn compare_reports(baseline: &Value, current: &Value) -> Vec<String> {
        let mut base = BTreeMap::new();
        let mut cur = BTreeMap::new();
        collect_metrics(baseline, "", &mut base);
        collect_metrics(current, "", &mut cur);

        let mut regressions = Vec::new();
        for (key, &b) in &base {
            let Some(&c) = cur.get(key) else {
                regressions.push(format!("{key}: present in baseline but missing now"));
                continue;
            };
            let limit = if key.ends_with("allocs_per_iter") {
                b * (1.0 + TOLERANCE) + 0.5
            } else {
                b * (1.0 + TOLERANCE)
            };
            if c > limit {
                regressions.push(format!(
                    "{key}: {c:.0} exceeds baseline {b:.0} by more than {:.0}%",
                    TOLERANCE * 100.0
                ));
            }
        }
        regressions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_nn::json::obj;

    /// Regression: a NaN reward in a report yields an error from the raw
    /// codec (not a panic), and a sanitized report that still serializes.
    #[test]
    fn nan_reward_is_an_error_then_sanitizes_to_null() {
        let report = obj(vec![
            ("bench", Value::Str("demo".into())),
            ("reward", Value::Num(f64::NAN)),
            ("steps", Value::Num(100.0)),
        ]);
        assert!(report.try_to_json().is_err());
        let clean = sanitize(report);
        assert_eq!(
            clean.try_to_json().unwrap(),
            "{\"bench\":\"demo\",\"reward\":null,\"steps\":100}"
        );
    }

    #[test]
    fn sanitize_recurses_into_arrays_and_objects() {
        let doc = obj(vec![(
            "results",
            Value::Arr(vec![
                Value::Num(f64::INFINITY),
                obj(vec![("x", Value::Num(f64::NEG_INFINITY))]),
                Value::Num(2.5),
            ]),
        )]);
        let clean = sanitize(doc);
        assert_eq!(
            clean.try_to_json().unwrap(),
            "{\"results\":[null,{\"x\":null},2.5]}"
        );
    }

    #[test]
    fn run_bench_reports_requested_samples() {
        let mut n = 0u64;
        let stats = run_bench("noop", 8, || {
            n += 1;
        });
        assert_eq!(stats.samples, 8);
        assert!(n >= 8, "warmup plus samples must all run");
        assert!(stats.median_ns <= stats.p95_ns);
        // No global allocator shim is registered in unit tests, so the
        // counter must honestly read zero rather than garbage.
        assert_eq!(stats.allocs_per_iter, 0.0);
    }

    #[test]
    fn bench_stats_json_has_the_gated_columns() {
        let stats = run_bench("shape", 2, || {});
        let mut metrics = std::collections::BTreeMap::new();
        compare::collect_metrics(&stats.to_json(), "", &mut metrics);
        assert!(metrics.contains_key("/name=shape/mean_ns"));
        assert!(metrics.contains_key("/name=shape/median_ns"));
        assert!(metrics.contains_key("/name=shape/p95_ns"));
        assert!(metrics.contains_key("/name=shape/allocs_per_iter"));
    }

    fn sample_report(median: f64, allocs: f64) -> Value {
        obj(vec![
            ("bench", Value::Str("demo".into())),
            (
                "results",
                Value::Arr(vec![obj(vec![
                    ("name", Value::Str("kernel".into())),
                    ("median_ns", Value::Num(median)),
                    ("allocs_per_iter", Value::Num(allocs)),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = sample_report(1000.0, 0.0);
        let cur = sample_report(1240.0, 0.4);
        assert_eq!(compare::compare_reports(&base, &cur), Vec::<String>::new());
    }

    #[test]
    fn compare_flags_latency_regression() {
        let base = sample_report(1000.0, 0.0);
        let cur = sample_report(1300.0, 0.0);
        let regs = compare::compare_reports(&base, &cur);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("median_ns"), "{regs:?}");
    }

    #[test]
    fn compare_flags_new_steady_state_allocation() {
        let base = sample_report(1000.0, 0.0);
        let cur = sample_report(1000.0, 1.0);
        let regs = compare::compare_reports(&base, &cur);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("allocs_per_iter"), "{regs:?}");
    }

    #[test]
    fn compare_flags_missing_metric() {
        let base = sample_report(1000.0, 0.0);
        let cur = obj(vec![("bench", Value::Str("demo".into()))]);
        let regs = compare::compare_reports(&base, &cur);
        assert!(!regs.is_empty());
        assert!(regs.iter().all(|r| r.contains("missing")), "{regs:?}");
    }

    #[test]
    fn faster_and_leaner_never_fails_the_gate() {
        let base = sample_report(1000.0, 5.0);
        let cur = sample_report(10.0, 0.0);
        assert_eq!(compare::compare_reports(&base, &cur), Vec::<String>::new());
    }

    fn threaded_report(hw: f64, pool_workers: &[f64]) -> Value {
        obj(vec![
            ("bench", Value::Str("demo".into())),
            ("hardware_threads", Value::Num(hw)),
            (
                "results",
                Value::Arr(
                    pool_workers
                        .iter()
                        .map(|&w| {
                            obj(vec![
                                ("name", Value::Str(format!("k_pool{w}"))),
                                ("pool_workers", Value::Num(w)),
                                ("median_ns", Value::Num(1000.0)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn comparable_when_thread_context_matches() {
        let base = threaded_report(1.0, &[1.0, 2.0]);
        let cur = threaded_report(1.0, &[1.0, 2.0]);
        assert!(compare::check_comparable(&base, &cur).is_ok());
    }

    #[test]
    fn refuses_on_hardware_threads_mismatch() {
        let base = threaded_report(1.0, &[1.0]);
        let cur = threaded_report(4.0, &[1.0]);
        let why = compare::check_comparable(&base, &cur).unwrap_err();
        assert!(why.contains("hardware_threads"), "{why}");
    }

    #[test]
    fn refuses_on_thread_count_field_mismatch() {
        // Same budget, but the sweep covered different pool sizes — the
        // entries don't describe the same workloads.
        let base = threaded_report(4.0, &[1.0, 2.0]);
        let cur = threaded_report(4.0, &[1.0, 2.0, 4.0]);
        let why = compare::check_comparable(&base, &cur).unwrap_err();
        assert!(why.contains("pool_workers"), "{why}");
    }

    #[test]
    fn reports_without_thread_fields_stay_comparable() {
        let base = sample_report(1000.0, 0.0);
        let cur = sample_report(900.0, 0.0);
        assert!(compare::check_comparable(&base, &cur).is_ok());
    }

    /// Format migration: a baseline that predates a thread-context key
    /// (e.g. `pool_workers` before the runtime sweep existed) makes no
    /// claim about it and must not trigger a refusal.
    #[test]
    fn key_recorded_on_only_one_side_is_not_a_mismatch() {
        let base = sample_report(1000.0, 0.0);
        let cur = threaded_report(1.0, &[1.0]);
        assert!(compare::check_comparable(&base, &cur).is_ok());
        assert!(compare::check_comparable(&cur, &base).is_ok());
    }

    fn variant_report(variant: &str, cpu: &str) -> Value {
        obj(vec![
            ("bench", Value::Str("demo".into())),
            ("kernel_variant", Value::Str(variant.into())),
            ("target_cpu", Value::Str(cpu.into())),
            (
                "results",
                Value::Arr(vec![obj(vec![
                    ("name", Value::Str("kernel".into())),
                    ("median_ns", Value::Num(1000.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn refuses_on_kernel_variant_mismatch() {
        let base = variant_report("scalar", "avx512");
        let cur = variant_report("lane8", "avx512");
        let why = compare::check_comparable(&base, &cur).unwrap_err();
        assert!(why.contains("kernel_variant"), "{why}");
        assert!(why.contains("scalar") && why.contains("lane8"), "{why}");
    }

    #[test]
    fn refuses_on_target_cpu_mismatch() {
        let base = variant_report("lane8", "avx2");
        let cur = variant_report("lane8", "avx512");
        let why = compare::check_comparable(&base, &cur).unwrap_err();
        assert!(why.contains("target_cpu"), "{why}");
    }

    #[test]
    fn matching_kernel_context_stays_comparable() {
        let base = variant_report("lane8", "avx512");
        let cur = variant_report("lane8", "avx512");
        assert!(compare::check_comparable(&base, &cur).is_ok());
    }

    /// A pre-variant baseline (no `kernel_variant` key) must stay
    /// comparable — the field only refuses when both sides claim it.
    #[test]
    fn baseline_without_variant_keys_is_not_refused() {
        let base = sample_report(1000.0, 0.0);
        let cur = variant_report("lane8", "avx512");
        assert!(compare::check_comparable(&base, &cur).is_ok());
    }

    #[test]
    fn this_binary_reports_a_nonempty_kernel_context() {
        assert_eq!(kernel_variant(), "lane8");
        assert!(!target_cpu().is_empty());
    }

    #[test]
    fn write_report_survives_poisoned_metrics() {
        let path = std::env::temp_dir().join(format!("osa_bench_nan_{}.json", std::process::id()));
        let report = obj(vec![("qoe", Value::Num(f64::NAN))]);
        write_report(&path, report).expect("write");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text, "{\"qoe\":null}\n");
    }
}
