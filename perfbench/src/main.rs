//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile_pe|serve_stream|serve_churn|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints a human-readable report and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! the per-layer metrics, a per-layer self-time table, and a Chrome trace
//! under `perfbench/out/`. A run whose correctness gates fail prints
//! `"correct": false` and exits with code 1.
//!
//! `--workload all` runs every workload untraced and traced, each in its
//! own process, and prints every metric and the tracing overhead.

use std::process::{Command, ExitCode};

use perfbench::{run_workload, RunArgs, Scale, WORKLOADS};
use vcgra_repro::trace::json::{self, JsonValue};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value,
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: Scale::Full,
    };
    let Some(out) = run_workload(&cli.workload, &args) else {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {WORKLOADS:?} or all)",
            cli.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} (seed {}, {} s, trace {})",
        cli.workload,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    for (name, value, unit) in out
        .metrics(cli.trace)
        .into_iter()
        .chain(out.report.iter().copied())
    {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let error_rate = if out.attempted > 0 {
        out.failed as f64 / out.attempted as f64
    } else {
        0.0
    };
    println!(
        "  {:<28} {error_rate:>16.6} ratio ({} of {} calls failed)",
        "error_rate", out.failed, out.attempted
    );
    println!("  {:<28} {:>16x}", "fingerprint", out.fingerprint);
    for e in &out.errors {
        println!("  GATE FAILED: {e}");
    }
    println!("{}", out.json_line(cli.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload untraced and traced in child processes and
/// prints their metrics side by side, with the tracing overhead.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string(), "--trace", trace])
                .output();
            let parsed = output.ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                print!("{stdout}");
                json::parse(stdout.lines().last()?).ok()
            });
            match parsed {
                Some(v) => results.push(v),
                None => {
                    println!("{workload} --trace {trace}: no result");
                    ok = false;
                }
            }
        }
        if let [plain, traced] = &results[..] {
            ok &= plain.get("correct").and_then(JsonValue::as_bool) == Some(true)
                && traced.get("correct").and_then(JsonValue::as_bool) == Some(true);
            let metric = |v: &JsonValue, name: &str| {
                v.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(JsonValue::as_f64)
            };
            if let (Some(a), Some(b)) = (
                metric(plain, "cpu_ms_per_job"),
                metric(traced, "trace.cpu_ms_per_job"),
            ) {
                println!(
                    "{workload}: cpu_ms_per_job {a:.4} untraced, {b:.4} traced: tracing overhead {:.2}%\n",
                    100.0 * (b / a - 1.0)
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
