//! Command line of the fleet-serving benchmark.
//!
//! ```sh
//! # every workload, each in its own child process
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! # one workload in this process; the last stdout line is the result
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload steady_uv --seed 1
//! # per-layer numbers from the traced shadow round
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --trace
//! # N runs per workload, order alternating, seeds seed..seed+N
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --repeat 10
//! ```
//!
//! Exit codes: 0 correct, 1 a correctness gate failed or a child run
//! did, 2 bad arguments.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use osa_fleet_benchmark::measure::{self, Options, Report};
use osa_fleet_benchmark::stats::{median, quartiles, relative_spread};
use osa_fleet_benchmark::workload::{self, Workload, WORKLOADS};
use osa_fleet_benchmark::{result_json, shadow};
use osa_nn::json::Value;

/// Timed seconds per run, the `run_seconds` of `BENCHMARK.json`. Every
/// run measures this long; `--seconds` is accepted only with this value,
/// so the declared invocation parses but no run can differ in length.
const RUN_SECONDS: f64 = 20.0;
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: osa-fleet-benchmark [--workload NAME] [--seed N] [--seconds 20] \
                     [--trace [0|1]] [--repeat N]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        trace: false,
        repeat: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::find(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                if value()?.parse::<f64>() != Ok(RUN_SECONDS) {
                    return Err(format!("--seconds is fixed at {RUN_SECONDS}"));
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The checkout's commit, read from `.git` without running git; a
/// source tree without history reads "unknown".
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(r)?
                    .split_whitespace()
                    .next()
                    .map(String::from)
            })
        }),
    });
    rev.map_or("unknown".into(), |r| r.chars().take(12).collect())
}

fn print_header(args: &Args) {
    println!(
        "# osa fleet benchmark: workload={} seed={} seconds={} trace={}",
        args.workload.map_or("all", |w| w.name),
        args.seed,
        RUN_SECONDS,
        u8::from(args.trace),
    );
    println!(
        "# nproc={} pool_width=1 wide_pool_width={} kernel_variant={} target_cpu={} git={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload::wide_width(),
        osa_bench::kernel_variant(),
        osa_bench::target_cpu(),
        git_revision(),
    );
}

/// One workload in this process: metric lines, then the result line.
fn run_one(w: &'static Workload, args: &Args) -> ExitCode {
    let opts = Options {
        seconds: RUN_SECONDS,
        setup_reps: SETUP_REPS,
    };
    let report: Report = if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        shadow::trace(w, args.seed, &opts, &out)
    } else {
        measure::measure(w, args.seed, &opts)
    };
    for m in &report.metrics {
        println!("{} {} {} {}", w.name, m.name, m.value, m.unit);
    }
    for m in &report.info {
        println!(
            "{} {} {} {} (informational)",
            w.name, m.name, m.value, m.unit
        );
    }
    for e in &report.errors {
        println!("{}: FAILED: {e}", w.name);
    }
    let line = result_json(&report);
    println!("{line}");
    if line.contains("\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `w` in a child process and return its result line, forwarding
/// everything else it prints.
fn child(w: &Workload, seed: u64, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines.iter().filter(|l| !l.starts_with('#')) {
        println!("  {l}");
    }
    let result = Value::parse(last).map_err(|e| format!("no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("exit status {}", out.status));
    }
    Ok(result)
}

fn metric_values(result: &Value) -> Vec<(String, f64, String)> {
    let Some(metrics) = result.get("metrics").and_then(Value::as_obj) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, cell)| {
            let value = cell.get("value")?.as_f64()?;
            let unit = cell.get("unit")?.as_str()?.to_string();
            Some((name.clone(), value, unit))
        })
        .collect()
}

/// Every workload (or the chosen one), `reps` times, seeds
/// `seed..seed + reps`, forward and reverse order alternating; then each
/// metric's median and interquartile spread.
fn run_many(args: &Args, reps: usize) -> ExitCode {
    let chosen: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut ok = true;
    let mut series: BTreeMap<(usize, String), (Vec<f64>, String)> = BTreeMap::new();
    for k in 0..reps {
        let seed = args.seed.wrapping_add(k as u64);
        let mut order: Vec<(usize, &Workload)> = chosen.iter().copied().enumerate().collect();
        if k % 2 == 1 {
            order.reverse();
        }
        for (wi, w) in order {
            println!("{} seed {seed}:", w.name);
            match child(w, seed, args) {
                Ok(result) => {
                    for (name, value, unit) in metric_values(&result) {
                        let cell = series.entry((wi, name)).or_insert((Vec::new(), unit));
                        cell.0.push(value);
                    }
                }
                Err(e) => {
                    println!("{}: FAILED: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    if reps > 1 {
        println!("# workload metric median q1 q3 spread(iqr/median) runs");
        for ((wi, name), (values, unit)) in &series {
            let (q1, q3) = quartiles(values);
            println!(
                "{} {name} {:.6} {q1:.6} {q3:.6} {:.4} {} {unit}",
                chosen[*wi].name,
                median(values),
                relative_spread(values),
                values.len()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_header(&args);
    match (args.workload, args.repeat) {
        (Some(w), None) => run_one(w, &args),
        (_, reps) => run_many(&args, reps.unwrap_or(1)),
    }
}
