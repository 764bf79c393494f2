//! `serve_churn`: the runtime's write paths.
//!
//! A `Runtime` with the default config and `workers: 1`, driven by a
//! seeded script in epochs: each epoch starts a fresh runtime and primes
//! it with the 6 library structures (cold compiles, the lazy pricer) —
//! the set-up — then runs 1024 steps. One job is one script step: submit
//! a tenant drawn from about 46 structures (more than the 32-entry
//! configuration cache, so some admissions are cold and the cache
//! evicts), stream 8 items through two resident tenants, swap one
//! tenant's coefficients, and release the oldest tenant once 10 are
//! resident. The pool oversubscribes, so tenants queue and time-share.

use std::collections::VecDeque;
use std::ops::AddAssign;
use std::time::Instant;

use vcgra_repro::logic::SplitMix64;
use vcgra_repro::runtime::kernels::{self, Workload};
use vcgra_repro::runtime::{Admission, Runtime, RuntimeConfig, StreamRequest, TenantId, TenantRun};
use vcgra_repro::softfloat::{FpFormat, FpValue};
use vcgra_repro::trace;
use vcgra_repro::vcgra::sim::run_dataflow;

use crate::layers::{absorb, LayerTrace, RuntimeLayer};
use crate::stats::{peak_rss_mb, ratio, us, Calls, Fnv, Samples, Stopwatch, Windows};
use crate::{Outcome, RunArgs, Scale};

const FORMAT: FpFormat = FpFormat::PAPER;
const ITEMS: usize = 8;
const RESIDENT: usize = 10;
const MAX_PES: usize = 32;

/// The run is a sequence of epochs, each a fresh runtime (the set-up)
/// driven through `epoch_steps` steps. A runtime's pool layout settles
/// early and then holds, so one long epoch would measure whatever layout
/// its first steps happened to leave; many short ones average over them.
struct Plan {
    epoch_steps: usize,
    /// Epochs whose modeled port time is `port_s`; the run never stops
    /// before them.
    ref_epochs: usize,
    max_epochs: usize,
}

impl Plan {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Plan {
                epoch_steps: 1024,
                ref_epochs: 40,
                max_epochs: 1 << 20,
            },
            Scale::Tiny => Plan {
                epoch_steps: 60,
                ref_epochs: 2,
                max_epochs: 2,
            },
        }
    }
}

/// The structures the script draws from: the library, FIR filters and
/// reductions of 2–16 taps, small matrix–vector products and separable
/// stencils, all of at most 32 PEs.
pub fn structures() -> Vec<Workload> {
    let mut set = kernels::library(FORMAT);
    for n in 2..=16 {
        set.push(kernels::fir(FORMAT, &vec![1.0 / n as f64; n]));
        set.push(kernels::tree_reduction(FORMAT, n));
    }
    for (rows, cols) in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)] {
        set.push(kernels::matvec(FORMAT, &vec![vec![0.5; cols]; rows]));
    }
    for (rows, cols) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
        set.push(kernels::separable_stencil(
            FORMAT,
            &vec![0.5; cols],
            &vec![0.25; rows],
        ));
    }
    set.retain(|w| w.graph.pe_demand() <= MAX_PES);
    set
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    }
}

fn values(rng: &mut SplitMix64, n: usize) -> Vec<FpValue> {
    (0..n)
        .map(|_| FpValue::from_f64(rng.unit_f64() * 4.0 - 2.0, FORMAT))
        .collect()
}

/// Wall and process CPU seconds spent in public calls.
#[derive(Debug, Default, Clone, Copy)]
struct Spent {
    wall: f64,
    cpu: f64,
}

impl Spent {
    fn since(t: &Stopwatch) -> Self {
        Spent {
            wall: t.wall_s(),
            cpu: t.cpu_s(),
        }
    }
}

impl AddAssign for Spent {
    fn add_assign(&mut self, o: Spent) {
        self.wall += o.wall;
        self.cpu += o.cpu;
    }
}

/// One tenant's streamed inputs and its run, kept for the untimed check.
type Streamed = (Vec<Vec<FpValue>>, TenantRun);

/// Script state that outlives a step.
struct Script {
    rt: Runtime,
    layer: RuntimeLayer,
    calls: Calls,
    /// Tenants in submission order, queued ones included.
    resident: VecDeque<TenantId>,
    fp: Fnv,
    /// Checks one seeded item of every stream against `run_dataflow`.
    check_rng: SplitMix64,
    errors: Vec<String>,
}

impl Script {
    fn new(seed: u64) -> Self {
        Script {
            rt: Runtime::new(config()),
            layer: RuntimeLayer::default(),
            calls: Calls::default(),
            resident: VecDeque::new(),
            fp: Fnv::default(),
            check_rng: SplitMix64::new(seed ^ 0xC4EC),
            errors: Vec::new(),
        }
    }

    fn placed(&self) -> Vec<TenantId> {
        self.resident
            .iter()
            .copied()
            .filter(|&t| self.rt.tenant(t).is_some())
            .collect()
    }

    /// Submits; returns the call's seconds.
    fn submit(&mut self, name: String, w: &Workload, coeffs: &[FpValue]) -> Spent {
        let graph = w.graph.with_coeffs(coeffs);
        let t = Stopwatch::start();
        let r = {
            let _s = trace::span("runtime.submit");
            self.rt.submit(name, graph)
        };
        let dt = Spent::since(&t);
        match self.calls.check("submit", r) {
            Some(Admission::Admitted(a)) => {
                self.layer.admitted(&a, dt.wall);
                self.resident.push_back(a.tenant);
            }
            Some(Admission::Queued(q)) => self.resident.push_back(q.tenant),
            None => {}
        }
        dt
    }

    /// Streams seeded inputs through `tenants`; returns the call's
    /// seconds and the runs for the untimed check.
    fn run(&mut self, rng: &mut SplitMix64, tenants: &[TenantId]) -> (Spent, Vec<Streamed>) {
        let requests: Vec<StreamRequest> = tenants
            .iter()
            .map(|&tenant| {
                let n = self.rt.tenant(tenant).map_or(0, |t| t.graph.num_inputs);
                StreamRequest {
                    tenant,
                    inputs: (0..ITEMS).map(|_| values(rng, n)).collect(),
                }
            })
            .collect();
        let inputs: Vec<_> = requests.iter().map(|r| r.inputs.clone()).collect();
        let t = Stopwatch::start();
        let r = {
            let _s = trace::span("runtime.run");
            self.rt.run(requests)
        };
        let dt = Spent::since(&t);
        self.layer.run_calls.push(dt.wall);
        let runs = self.calls.check("run", r).unwrap_or_default();
        self.layer.ran(&runs);
        let by_tenant = runs
            .into_iter()
            .filter_map(|run| {
                let i = tenants.iter().position(|&t| t == run.tenant)?;
                Some((inputs[i].clone(), run))
            })
            .collect();
        (dt, by_tenant)
    }

    /// Digests the runs and checks one seeded item of each, bit for bit.
    fn check(&mut self, runs: &[Streamed]) {
        for (inputs, run) in runs {
            self.fp.write(run.outputs.len() as u64);
            for v in run.outputs.iter().flatten() {
                self.fp.write(v.bits);
            }
            let Some(t) = self.rt.tenant(run.tenant) else {
                continue;
            };
            if run.outputs.len() != inputs.len() {
                self.errors.push(format!(
                    "tenant {}: {} of {} outputs",
                    run.tenant,
                    run.outputs.len(),
                    inputs.len()
                ));
                continue;
            }
            let i = self.check_rng.index(inputs.len());
            let want: Vec<u64> = run_dataflow(&t.graph, &inputs[i])
                .iter()
                .map(|v| v.bits)
                .collect();
            let got: Vec<u64> = run.outputs[i].iter().map(|v| v.bits).collect();
            if got != want {
                self.errors.push(format!(
                    "tenant {} item {i} deviates from run_dataflow",
                    run.tenant
                ));
            }
        }
    }

    fn swap(&mut self, rng: &mut SplitMix64, tenant: TenantId) -> Spent {
        let arity = self
            .rt
            .tenant(tenant)
            .map_or(0, |t| t.graph.coeff_nodes().len());
        let coeffs = values(rng, arity);
        let t = Stopwatch::start();
        let r = {
            let _s = trace::span("runtime.swap");
            self.rt.swap_params(tenant, &coeffs)
        };
        let dt = Spent::since(&t);
        self.layer.swap.push(dt.wall);
        if let Some(report) = self.calls.check("swap_params", r) {
            self.layer.swapped(&report);
        }
        dt
    }

    fn release(&mut self, tenant: TenantId) -> Spent {
        let t = Stopwatch::start();
        let r = {
            let _s = trace::span("runtime.release");
            self.rt.release(tenant)
        };
        let dt = Spent::since(&t);
        self.layer.release.push(dt.wall);
        self.calls.check("release", r);
        dt
    }

    /// Set-up: a fresh runtime primed with one tenant per library
    /// structure (cold compile, a stream, a swap that builds the pricer),
    /// then released. Returns the fingerprint of the priming outputs; the
    /// priming's calls count, its latencies do not.
    fn restart(&mut self, seed: u64) -> u64 {
        self.rt = Runtime::new(config());
        self.resident.clear();
        let (layer, fp) = (
            std::mem::take(&mut self.layer),
            std::mem::take(&mut self.fp),
        );
        let mut rng = SplitMix64::new(seed);
        for (i, w) in kernels::library(FORMAT).iter().enumerate() {
            let coeffs = w.graph.coeff_values();
            self.submit(format!("prime{i}.{}", w.name), w, &coeffs);
        }
        for tenant in self.placed() {
            let (_, runs) = self.run(&mut rng, &[tenant]);
            self.check(&runs);
            self.swap(&mut rng, tenant);
        }
        while let Some(t) = self.resident.pop_front() {
            self.release(t);
        }
        let priming = std::mem::replace(&mut self.fp, fp).finish();
        self.layer = layer;
        priming
    }

    /// One script step; returns the seconds spent in public calls.
    fn step(&mut self, set: &[Workload], seed: u64, step: u64) -> Spent {
        let mut rng = SplitMix64::new(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let w = &set[rng.index(set.len())];
        let coeffs = values(&mut rng, w.graph.coeff_nodes().len());
        let mut spent = self.submit(format!("s{step}.{}", w.name), w, &coeffs);

        let mut placed = self.placed();
        let mut pair = Vec::with_capacity(2);
        while pair.len() < 2 && !placed.is_empty() {
            pair.push(placed.swap_remove(rng.index(placed.len())));
        }
        if !pair.is_empty() {
            let (dt, runs) = self.run(&mut rng, &pair);
            spent += dt;
            self.check(&runs);
        }

        let placed = self.placed();
        if !placed.is_empty() {
            let tenant = placed[rng.index(placed.len())];
            spent += self.swap(&mut rng, tenant);
        }

        if self.resident.len() >= RESIDENT {
            let oldest = self.resident.pop_front().expect("resident is non-empty");
            spent += self.release(oldest);
        }
        spent
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let plan = Plan::of(args.scale);
    let set = structures();
    let mut out = Outcome::default();
    let mut tracer = LayerTrace::start(args.trace);
    let mut s = Script::new(args.seed);
    let (mut setup, mut utilization) = (Samples::default(), Samples::default());
    // One window per epoch.
    let mut steps = Windows::new(plan.epoch_steps);
    let (mut ledgers, mut caches, mut priming) = (Vec::new(), Vec::new(), Vec::new());
    let mut port_ref = 0.0;
    let start = Instant::now();
    while ledgers.len() < plan.max_epochs
        && (ledgers.len() < plan.ref_epochs || start.elapsed().as_secs_f64() < args.seconds)
    {
        let t = Stopwatch::start();
        priming.push(s.restart(args.seed));
        setup.push(t.cpu_s());
        absorb(&mut tracer);
        let epoch_seed = args.seed ^ (ledgers.len() as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        for step in 1..=plan.epoch_steps {
            let dt = s.step(&set, epoch_seed, step as u64);
            steps.record(&[dt.wall], dt.wall, dt.cpu);
            if step % 256 == 0 {
                absorb(&mut tracer);
            }
        }
        // Epoch gates: scheduler and time-axis invariants.
        for report in [s.rt.verify(), s.rt.verify_timeline()] {
            out.gate(report.ok(), || {
                format!("epoch {} verification: {}", ledgers.len(), report.summary())
            });
        }
        ledgers.push(*s.rt.ledger());
        caches.push(s.rt.cache_stats());
        utilization.push(s.rt.utilization());
        if ledgers.len() == plan.ref_epochs {
            port_ref = ledgers
                .iter()
                .map(|l| l.total_port_time().as_secs_f64())
                .sum();
            out.fingerprint = s.fp.finish();
        }
    }
    let timed_s = steps.seconds;
    out.gate(priming.iter().all(|&f| f == priming[0]), || {
        format!("priming output fingerprint differs between set-ups: {priming:x?}")
    });
    out.attempted = s.calls.attempted;
    out.failed = s.calls.failed;
    out.errors.extend(
        s.calls
            .first_error
            .take()
            .into_iter()
            .chain(s.errors.drain(..)),
    );

    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak_rss_mb());
    steps.publish(&mut out);
    out.set("port_s", port_ref);

    s.layer
        .publish(&mut out, &ledgers, &caches, utilization.median());
    let l = &s.layer;
    out.show("items_per_s", ratio(l.items as f64, timed_s), "1/s");
    out.show("admit_p50_us", us(l.submit.median()), "us");
    out.show("admit_p99_us", us(l.submit.quantile(0.99)), "us");
    out.show("swap_p50_us", us(l.swap.median()), "us");
    out.show("swap_p99_us", us(l.swap.quantile(0.99)), "us");
    out.show("structures", set.len() as f64, "count");
    out.show("epochs", ledgers.len() as f64, "count");
    out.show("steps", steps.all.len() as f64, "count");
    out.show(
        "mean_jobs_per_s",
        ratio(steps.all.len() as f64, timed_s),
        "1/s",
    );

    if let Some(t) = tracer {
        out.set("trace.jobs_per_s", steps.jobs_per_s());
        out.set("trace.cpu_ms_per_job", out.values["cpu_ms_per_job"]);
        t.finish("serve_churn", &mut out);
    }
    out
}
