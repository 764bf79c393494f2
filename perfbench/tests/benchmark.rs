//! The benchmark's own checks, at a tiny size:
//!
//! - the deterministic counters (QoR, `port_s`, cold admissions, context
//!   switches, probes, the output fingerprint) repeat exactly across two
//!   runs of one seed, and every correctness gate passes;
//! - the metric names a run prints are exactly those `BENCHMARK.json`
//!   declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run_workload, Outcome, RunArgs, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use vcgra_repro::trace::json::{self, JsonValue};

/// Counters that must repeat exactly, per workload.
const DETERMINISTIC: &[(&str, &[&str])] = &[
    (
        "compile_pe",
        &[
            "port_s",
            "mapping.luts_conv",
            "mapping.luts_param",
            "mapping.tcons",
            "mapping.ptt_merges",
            "mapping.tcon_checks",
            "par.min_width_conv",
            "par.min_width_param",
            "par.wirelength_conv",
            "par.wirelength_param",
            "par.probes",
            "par.iterations",
            "par.ripups",
        ],
    ),
    (
        "serve_stream",
        &[
            "port_s",
            "runtime.cold_admissions",
            "pricer.frames_per_swap",
        ],
    ),
    (
        "serve_churn",
        &[
            "port_s",
            "runtime.cold_admissions",
            "runtime.context_switches",
            "runtime.cache_evictions",
            "pricer.frames_per_swap",
        ],
    ),
];

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let args = RunArgs {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    };
    let out = run_workload(workload, &args).expect("known workload");
    assert!(
        out.correct(),
        "{workload}: {:?} ({} of {} calls failed)",
        out.errors,
        out.failed,
        out.attempted
    );
    out
}

#[test]
fn deterministic_counters_repeat_across_runs() {
    for &(workload, counters) in DETERMINISTIC {
        let (a, b) = (tiny(workload, 7, false), tiny(workload, 7, false));
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{workload}: output fingerprint"
        );
        for &name in counters {
            let (x, y) = (a.values[name], b.values[name]);
            assert!(x > 0.0, "{workload}: {name} should be measured, got {x}");
            assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {name} {x} vs {y}");
        }
    }
}

fn declared(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(line: &str) -> Vec<(String, String)> {
    let v = json::parse(line).expect("the result line is JSON");
    assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
    v.get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name} has a numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let (e2e, layer) = (
        declared(&bench, "end_to_end"),
        declared(&bench, "per_layer"),
    );
    let owned = |m: &[(&str, &str)]| {
        m.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(e2e, owned(END_TO_END));
    assert_eq!(layer, owned(PER_LAYER));

    let out = tiny("serve_churn", 3, false);
    assert_eq!(printed(&out.json_line(false)), e2e);
    let traced = tiny("serve_churn", 3, true);
    assert_eq!(printed(&traced.json_line(true)), layer);
    assert!(
        traced.values["self_s.runtime.swap"] > 0.0,
        "the traced run measures self time"
    );
}
