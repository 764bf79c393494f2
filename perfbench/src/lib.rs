//! `perfbench` — the repository benchmark.
//!
//! Three closed-loop workloads, each driven from one process by a single
//! generator thread, each loading a different layer of the stack:
//!
//! | workload       | what it runs                                              |
//! |----------------|-----------------------------------------------------------|
//! | `compile_pe`   | Table I: the FP-MAC virtual PE at FloPoCo (5,10), mapped  |
//! |                | conventionally and parameterized, placed, width-searched  |
//! | `serve_stream` | a 2-shard `ShardServer`: waves of 8 warm tenants, each    |
//! |                | admit → stream 1024 → swap → stream 1024 → release        |
//! | `serve_churn`  | one `Runtime`: a seeded submit/run/swap/release script    |
//! |                | over ~46 structures, more than the configuration cache    |
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`]),
//! each read in that workload's own unit of work (a *job*): one Table I
//! pass, one tenant lifecycle, or one script step. The per-layer metrics
//! ([`PER_LAYER`]) come from a separate traced run; a layer the workload
//! never calls reads 0. Correctness gates run outside the timed window:
//! a run that fails one reports `"correct": false`.

// The one exception is `stats::cpu_s`, a call of the C library's clock.
#![deny(unsafe_code)]

pub mod compile_pe;
pub mod layers;
pub mod serve_churn;
pub mod serve_stream;
pub mod stats;

use std::collections::BTreeMap;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["compile_pe", "serve_stream", "serve_churn"];

/// End-to-end metrics `(name, unit)`, reported by every workload in an
/// untraced run.
///
/// - `setup_s`: the process CPU seconds one set-up takes, median over
///   several set-ups.
/// - `peak_rss_mb`: peak resident memory of the process.
/// - `cpu_ms_per_job`: the process CPU milliseconds a job takes, every
///   thread of the program included: per window of work (a compile
///   pass, 16 stream waves, a churn epoch), median over windows (see
///   [`stats::Windows`]).
/// - `port_s`: modeled configuration-port time of a fixed, seeded amount
///   of work (exact for a given seed).
///
/// Both times are CPU time ([`stats::cpu_s`]): on a shared virtual
/// machine, wall-clock time also counts the time the hypervisor gives
/// the virtual CPUs to other guests, and on a 2-vCPU guest that swung
/// the wall-clock job figures between runs of the same code by more
/// than their 25 % bound. The wall-clock job throughput and latency
/// (`jobs_per_s`, `job_p50_ms`, `job_p99_ms`, medians over the same
/// windows) are printed in the report, and the traced run's
/// `trace.jobs_per_s` is per-layer.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_job", "ms"),
    ("port_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload in a
/// traced run. `self_s.<span>` is the total self time of a layer span:
/// its duration minus the time of the layer spans nested in it on the
/// same thread (other spans the program opens inside it count as its
/// own).
pub const PER_LAYER: &[(&str, &str)] = &[
    // softfloat / logic
    ("softfloat.pe_build_s", "s"),
    ("logic.aig_nodes", "count"),
    // mapping
    ("mapping.conv_s", "s"),
    ("mapping.param_s", "s"),
    ("mapping.ptt_merges", "count"),
    ("mapping.ptt_hit_ratio", "ratio"),
    ("mapping.tcon_checks", "count"),
    ("mapping.tcon_hit_ratio", "ratio"),
    ("mapping.luts_conv", "count"),
    ("mapping.luts_param", "count"),
    ("mapping.tcons", "count"),
    ("mapping.depth_param", "count"),
    // par
    ("par.place_conv_s", "s"),
    ("par.place_param_s", "s"),
    ("par.search_conv_s", "s"),
    ("par.search_param_s", "s"),
    ("par.failed_probe_conv_s", "s"),
    ("par.failed_probe_param_s", "s"),
    ("par.probes", "count"),
    ("par.useful_probe_ratio", "ratio"),
    ("par.iterations", "count"),
    ("par.ripups", "count"),
    ("par.min_width_conv", "count"),
    ("par.min_width_param", "count"),
    ("par.wirelength_conv", "count"),
    ("par.wirelength_param", "count"),
    // runtime: admission, cache, pool
    ("runtime.submit_us_p50", "us"),
    ("runtime.submit_us_p99", "us"),
    ("runtime.submit_cold_us_p50", "us"),
    ("runtime.submit_cold_us_p99", "us"),
    ("runtime.submit_warm_us_p50", "us"),
    ("vcgra.map_app_us_p50", "us"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_evictions", "count"),
    ("runtime.cold_admissions", "count"),
    ("runtime.queued", "count"),
    ("runtime.compactions", "count"),
    ("runtime.relocated_bands", "count"),
    ("runtime.context_switches", "count"),
    ("runtime.release_us_p50", "us"),
    ("runtime.utilization", "ratio"),
    // runtime::pricer / dcs
    ("runtime.swap_us_p50", "us"),
    ("runtime.swap_us_p99", "us"),
    ("pricer.frames_per_swap", "count"),
    ("pricer.eval_us_p50", "us"),
    // runtime::engine / vcgra::sim
    ("engine.items_per_s", "1/s"),
    ("engine.ns_per_item", "ns"),
    ("runtime.run_us_per_call", "us"),
    // runtime::timeline
    ("timeline.makespan_s", "s"),
    ("timeline.overlap_saved_s", "s"),
    // shard
    ("shard.dispatch_us_p50", "us"),
    ("shard.retry_ratio", "ratio"),
    ("shard.spill_ratio", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.warm_hit_ratio", "ratio"),
    ("shard.wave_ms_p50", "ms"),
    // layer spans: the benchmark's own, around each call into a layer,
    // and the program's where a layer runs on a worker thread (shard
    // requests, engine execution) or inside another layer (cold
    // compiles, swap pricing)
    ("self_s.softfloat.pe_build", "s"),
    ("self_s.mapping.map", "s"),
    ("self_s.par.extract", "s"),
    ("self_s.par.place", "s"),
    ("self_s.par.search", "s"),
    ("self_s.dcs.price", "s"),
    ("self_s.runtime.submit", "s"),
    ("self_s.runtime.swap", "s"),
    ("self_s.runtime.run", "s"),
    ("self_s.runtime.release", "s"),
    ("self_s.shard.dispatch", "s"),
    ("self_s.shard.wait", "s"),
    ("self_s.shard.serve", "s"),
    ("self_s.compile", "s"),
    ("self_s.pricing", "s"),
    ("self_s.execute", "s"),
    // the traced run itself: compare with the untraced `cpu_ms_per_job`
    // for the tracing overhead
    ("trace.cpu_ms_per_job", "ms"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.events", "count"),
];

/// How much work a run does: the full benchmark, or a tiny fixed amount
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Timed seconds; the run finishes the job in progress when they end.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Public calls into the program that were attempted and that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; empty when every gate passed.
    pub errors: Vec<String>,
    /// Every metric the workload measured, end-to-end and per-layer.
    pub values: BTreeMap<&'static str, f64>,
    /// The workload's own figures, printed with their units in the human
    /// report (`(name, value, unit)`).
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// FNV-1a fingerprint of the deterministic part of the run.
    pub fingerprint: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn show(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.report.push((name, value, unit));
    }

    /// Records a failed correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The metrics the run prints: every end-to-end metric untraced,
    /// every per-layer metric traced. Per-layer metrics of layers the
    /// workload never calls read 0. An end-to-end metric is missing only
    /// when a failure cut the run short (it then reads 0 next to
    /// `"correct": false`); otherwise that is a bug in the workload.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self.values.get(n).copied().unwrap_or_else(|| {
                        assert!(!self.correct(), "workload did not measure {n}");
                        0.0
                    });
                    (n, v, u)
                })
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: Rust's shortest round-trip form, which never uses an
/// exponent; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    match name {
        "compile_pe" => Some(compile_pe::run(args)),
        "serve_stream" => Some(serve_stream::run(args)),
        "serve_churn" => Some(serve_churn::run(args)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_run_still_prints_a_result_line() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.gate(false, || "gate".into());
        let line = out.json_line(false);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"),
            "{line}"
        );
        assert!(
            line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"),
            "{line}"
        );
    }
}
