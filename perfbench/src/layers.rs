//! Per-layer accounting: span self time from the traced run, and the
//! runtime layer's admission, swap and execute figures.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use vcgra_repro::runtime::{Admitted, CacheStats, Ledger, SwapReport, TenantRun};
use vcgra_repro::trace::{self, Phase, TraceConfig, TraceEvent};

use crate::stats::{ratio, us, Samples};
use crate::Outcome;

/// Events kept for the Chrome trace file; the rest only feed the
/// self-time totals, so a long traced run keeps bounded memory.
const KEPT_EVENTS: usize = 100_000;

/// One open span on a thread's stack.
struct Open {
    name: &'static str,
    begin_ns: u64,
    /// Time covered by layer spans nested inside this one.
    layer_child_ns: u64,
}

/// Whether `name` is a layer span: one of the `self_s.*` metrics.
fn is_layer(name: &str) -> bool {
    crate::PER_LAYER
        .iter()
        .any(|(m, _)| m.strip_prefix("self_s.") == Some(name))
}

/// The traced run's recorder: drains the global span buffer as the run
/// goes and folds every layer span into per-name self time: its duration
/// minus the time the layer spans nested in it cover, on the same thread.
/// Other spans a layer opens inside itself count as that layer's time.
pub struct LayerTrace {
    stacks: HashMap<u64, Vec<Open>>,
    self_ns: BTreeMap<&'static str, u64>,
    kept: Vec<TraceEvent>,
    events: u64,
}

impl LayerTrace {
    /// Arms the recorder when `on`.
    pub fn start(on: bool) -> Option<Self> {
        if !on {
            return None;
        }
        trace::take_events();
        trace::configure(TraceConfig::On);
        Some(LayerTrace {
            stacks: HashMap::new(),
            self_ns: BTreeMap::new(),
            kept: Vec::new(),
            events: 0,
        })
    }

    /// Folds every event recorded so far into the totals.
    pub fn absorb(&mut self) {
        for ev in trace::take_events() {
            self.events += 1;
            match ev.phase {
                Phase::Begin => self.stacks.entry(ev.tid).or_default().push(Open {
                    name: ev.name,
                    begin_ns: ev.ts_ns,
                    layer_child_ns: 0,
                }),
                Phase::End => {
                    let stack = self.stacks.entry(ev.tid).or_default();
                    if let Some(open) = stack.pop() {
                        let covered = if is_layer(open.name) {
                            let dur = ev.ts_ns.saturating_sub(open.begin_ns);
                            *self.self_ns.entry(open.name).or_default() +=
                                dur.saturating_sub(open.layer_child_ns);
                            dur
                        } else {
                            open.layer_child_ns
                        };
                        if let Some(parent) = stack.last_mut() {
                            parent.layer_child_ns += covered;
                        }
                    }
                }
                Phase::Instant | Phase::Counter => {}
            }
            if self.kept.len() < KEPT_EVENTS {
                self.kept.push(ev);
            }
        }
    }

    /// Total self time of layer spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |&ns| ns as f64 * 1e-9)
    }

    /// Stops recording, publishes `self_s.*` and `trace.events` for every
    /// span in [`crate::PER_LAYER`], writes the kept events as Chrome
    /// trace JSON under the package's `out/` directory, and prints the
    /// self-time table.
    pub fn finish(mut self, workload: &str, out: &mut Outcome) {
        trace::configure(TraceConfig::Off);
        self.absorb();
        for &(metric, _) in crate::PER_LAYER {
            if let Some(span) = metric.strip_prefix("self_s.") {
                out.set(metric, self.self_s(span));
            }
        }
        out.set("trace.events", self.events as f64);
        println!("per-layer self time ({workload}, traced run):");
        let mut rows: Vec<_> = self.self_ns.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (name, ns) in rows {
            println!("  {name:<24} {:>12.6} s", *ns as f64 * 1e-9);
        }
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_chrome_json(&self.kept)));
        match written {
            Ok(()) => println!(
                "wrote {} ({} of {} events)",
                path.display(),
                self.kept.len(),
                self.events
            ),
            Err(e) => println!("could not write {}: {e}", path.display()),
        }
    }
}

/// Drains the recorder, when tracing.
pub fn absorb(t: &mut Option<LayerTrace>) {
    if let Some(t) = t {
        t.absorb();
    }
}

/// The runtime layer as the benchmark sees it through its public calls.
#[derive(Debug, Default)]
pub struct RuntimeLayer {
    /// Host time of each admission: cold (compiled) and warm (cached).
    pub submit: Samples,
    pub submit_cold: Samples,
    pub submit_warm: Samples,
    /// `map_app` time of each cold admission.
    pub map_app: Samples,
    pub swap: Samples,
    pub swap_eval: Samples,
    pub swap_frames: u64,
    pub release: Samples,
    pub run_calls: Samples,
    pub items: u64,
    pub exec_s: f64,
}

impl RuntimeLayer {
    /// Records one admission; `seconds` is its host time.
    pub fn admitted(&mut self, a: &Admitted, seconds: f64) {
        self.submit.push(seconds);
        if a.cache_hit {
            self.submit_warm.push(seconds);
        } else {
            self.submit_cold.push(seconds);
            self.map_app.push_duration(a.compile_time);
        }
    }

    pub fn swapped(&mut self, r: &SwapReport) {
        self.swap_eval.push_duration(r.eval_time);
        self.swap_frames += r.frames() as u64;
    }

    pub fn ran(&mut self, runs: &[TenantRun]) {
        for r in runs {
            self.items += r.items as u64;
            self.exec_s += r.exec_time.as_secs_f64();
        }
    }

    /// Publishes the runtime, pricer, engine and timeline metrics. The
    /// ledgers and caches are summed over the runtimes the workload drove
    /// (shards or epochs); the makespan is the longest of them.
    pub fn publish(
        &self,
        out: &mut Outcome,
        ledgers: &[Ledger],
        caches: &[CacheStats],
        utilization: f64,
    ) {
        let sum = |f: fn(&Ledger) -> f64| ledgers.iter().map(f).sum::<f64>();
        let (hits, misses, evictions) = caches.iter().fold((0, 0, 0), |(h, m, e), c| {
            (h + c.hits, m + c.misses, e + c.evictions)
        });
        out.set("runtime.submit_us_p50", us(self.submit.median()));
        out.set("runtime.submit_us_p99", us(self.submit.quantile(0.99)));
        out.set("runtime.submit_cold_us_p50", us(self.submit_cold.median()));
        out.set(
            "runtime.submit_cold_us_p99",
            us(self.submit_cold.quantile(0.99)),
        );
        out.set("runtime.submit_warm_us_p50", us(self.submit_warm.median()));
        out.set("vcgra.map_app_us_p50", us(self.map_app.median()));
        out.set(
            "runtime.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.set("runtime.cache_evictions", evictions as f64);
        out.set("runtime.cold_admissions", sum(|l| l.cold_compiles as f64));
        out.set("runtime.queued", sum(|l| l.queued as f64));
        out.set("runtime.compactions", sum(|l| l.compactions as f64));
        out.set("runtime.relocated_bands", sum(|l| l.relocated_bands as f64));
        out.set(
            "runtime.context_switches",
            sum(|l| l.context_switches as f64),
        );
        out.set("runtime.release_us_p50", us(self.release.median()));
        out.set("runtime.utilization", utilization);
        out.set("runtime.swap_us_p50", us(self.swap.median()));
        out.set("runtime.swap_us_p99", us(self.swap.quantile(0.99)));
        out.set(
            "pricer.frames_per_swap",
            ratio(self.swap_frames as f64, self.swap_eval.len() as f64),
        );
        out.set("pricer.eval_us_p50", us(self.swap_eval.median()));
        out.set("engine.items_per_s", ratio(self.items as f64, self.exec_s));
        out.set(
            "engine.ns_per_item",
            ratio(self.exec_s * 1e9, self.items as f64),
        );
        out.set(
            "runtime.run_us_per_call",
            us(ratio(self.run_calls.sum(), self.run_calls.len() as f64)),
        );
        let makespan = ledgers
            .iter()
            .map(|l| l.modeled_makespan.as_secs_f64())
            .fold(0.0, f64::max);
        out.set("timeline.makespan_s", makespan);
        out.set(
            "timeline.overlap_saved_s",
            sum(|l| l.overlap_saved.as_secs_f64()),
        );
    }
}
