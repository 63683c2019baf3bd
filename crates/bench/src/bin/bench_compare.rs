//! Regression gate: diff freshly generated `BENCH_*.json` reports against
//! committed baselines and exit non-zero when a latency metric regressed
//! by more than the 25 % `compare::TOLERANCE` (or a steady-state
//! allocation appeared).
//!
//! ```sh
//! cargo run -p osa-bench --bin bench_compare -- \
//!     baseline/BENCH_nn.json BENCH_nn.json \
//!     baseline/BENCH_mdp.json BENCH_mdp.json
//! ```
//!
//! Arguments come in `<baseline> <current>` pairs; every pair is checked
//! and all regressions are printed before the process exits. CI snapshots
//! the committed baselines before re-running the benches in smoke mode,
//! then points this binary at both copies.
//!
//! Reports taken under different thread budgets (`hardware_threads`, or
//! any per-entry thread-count field) are **refused**, not compared: a
//! pooled run and a single-thread run measure different workloads, and
//! diffing them would produce false regression verdicts. Refusal is a
//! distinct outcome — exit code 3 and an `INCOMPARABLE` message — so CI
//! can tell "this host/config changed" from "this code got slower".
//!
//! Exit codes: 0 ok, 1 regression(s), 2 usage/load error, 3 incomparable.

use std::process::ExitCode;

use osa_bench::compare::{check_comparable, compare_reports};
use osa_nn::json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read report {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("cannot parse report {path}: {e:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_compare <baseline.json> <current.json> [<baseline> <current>]...");
        return ExitCode::from(2);
    }

    let mut total = 0usize;
    for pair in args.chunks(2) {
        let (base_path, cur_path) = (&pair[0], &pair[1]);
        let (base, cur) = match (load(base_path), load(cur_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        if let Err(why) = check_comparable(&base, &cur) {
            eprintln!("INCOMPARABLE {cur_path} vs {base_path}: {why}");
            return ExitCode::from(3);
        }
        let regressions = compare_reports(&base, &cur);
        if regressions.is_empty() {
            println!("ok: {cur_path} within tolerance of {base_path}");
        } else {
            for r in &regressions {
                println!("REGRESSION {cur_path}: {r}");
            }
            total += regressions.len();
        }
    }

    if total > 0 {
        println!("{total} regression(s) found");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
