//! `serve_stream`: execution through the sharded serving tier.
//!
//! A `ShardServer` with 2 shards and 1 engine worker per shard, in the
//! PAPER format. Set-up starts the server and runs an untimed priming
//! wave over the 6 `kernels::library` structures (cold compiles, lazy
//! pricers). Then come waves of 8 tenants, each a warm library structure
//! under fresh seeded coefficients (every structure 4 times per block of
//! 3 waves, in a seeded order). One job is one tenant lifecycle:
//! admit, stream 1024 items, swap coefficients, stream them again,
//! release — dispatched back to back and collected in dispatch order.

use std::time::{Duration, Instant};

use vcgra_repro::logic::SplitMix64;
use vcgra_repro::runtime::kernels::{self, Workload};
use vcgra_repro::runtime::{Admission, RuntimeConfig, StreamRequest};
use vcgra_repro::shard::{Reject, RoutePick, ShardConfig, ShardServer, ShardStats};
use vcgra_repro::softfloat::{FpFormat, FpValue};
use vcgra_repro::trace;
use vcgra_repro::vcgra::app::AppGraph;
use vcgra_repro::vcgra::sim::run_dataflow;

use crate::layers::{absorb, LayerTrace, RuntimeLayer};
use crate::stats::{ms, peak_rss_mb, ratio, us, Calls, Deck, Fnv, Samples, Stopwatch, Windows};
use crate::{Outcome, RunArgs, Scale};

const FORMAT: FpFormat = FpFormat::PAPER;
const SHARDS: usize = 2;
const TENANTS_PER_WAVE: usize = 8;
/// Jobs per window of the end-to-end figures (16 waves).
const WINDOW_JOBS: usize = 128;

struct Plan {
    setups: usize,
    items: usize,
    priming_items: usize,
    /// Timed waves whose modeled port time is `port_s`; the run never
    /// stops before them.
    ref_waves: usize,
    max_waves: usize,
}

impl Plan {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Plan {
                setups: 9,
                items: 1024,
                priming_items: 64,
                ref_waves: 64,
                max_waves: 1 << 20,
            },
            Scale::Tiny => Plan {
                setups: 2,
                items: 16,
                priming_items: 4,
                ref_waves: 2,
                max_waves: 2,
            },
        }
    }
}

/// One tenant's lifecycle, generated from the seed just before dispatch.
struct Job {
    name: String,
    graph: AppGraph,
    swap: Vec<FpValue>,
    inputs: Vec<Vec<FpValue>>,
}

fn values(rng: &mut SplitMix64, n: usize) -> Vec<FpValue> {
    (0..n)
        .map(|_| FpValue::from_f64(rng.unit_f64() * 4.0 - 2.0, FORMAT))
        .collect()
}

/// Wave `wave` of the seeded plan: one tenant per entry of `kinds`
/// (library indices). Wave 0 primes under the library's own
/// coefficients; later waves draw fresh ones.
fn make_wave(lib: &[Workload], kinds: &[usize], seed: u64, wave: u64, items: usize) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ wave.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    kinds
        .iter()
        .enumerate()
        .map(|(t, &k)| {
            let w = &lib[k];
            let arity = w.graph.coeff_nodes().len();
            let graph = if wave > 0 {
                w.graph.with_coeffs(&values(&mut rng, arity))
            } else {
                w.graph.clone()
            };
            Job {
                name: format!("w{wave}.t{t}.{}", w.name),
                swap: values(&mut rng, arity),
                inputs: (0..items)
                    .map(|_| values(&mut rng, graph.num_inputs))
                    .collect(),
                graph,
            }
        })
        .collect()
}

/// Tier-side counters of the timed waves.
#[derive(Default)]
struct Tier {
    dispatch: Samples,
    accepted: u64,
    retries: u64,
    submits: u64,
    spills: u64,
    warm: u64,
    admissions: u64,
    shard_items: [u64; SHARDS],
}

/// Dispatches with backpressure: `QueueFull` is a retry, not a failure.
fn dispatch<T>(tier: &mut Tier, mut f: impl FnMut() -> Result<T, Reject>) -> T {
    loop {
        let t0 = Instant::now();
        let r = {
            let _s = trace::span("shard.dispatch");
            f()
        };
        tier.dispatch.push_duration(t0.elapsed());
        match r {
            Ok(v) => {
                tier.accepted += 1;
                return v;
            }
            Err(Reject::QueueFull { .. }) => {
                tier.retries += 1;
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

/// What one wave left behind for the untimed checks.
struct Finished {
    job: Job,
    outputs: [Vec<Vec<FpValue>>; 2],
    latency: f64,
}

/// Runs one wave: every lifecycle dispatched, then every reply collected
/// in dispatch order. Returns the finished jobs and the wave's seconds.
fn run_wave(
    server: &mut ShardServer,
    jobs: Vec<Job>,
    tier: &mut Tier,
    rt: &mut RuntimeLayer,
    calls: &mut Calls,
) -> (Vec<Finished>, f64) {
    let t_wave = Instant::now();
    let mut flights = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t0 = Instant::now();
        let (at, pick, admit) =
            dispatch(tier, || server.submit(job.name.clone(), job.graph.clone()));
        tier.submits += 1;
        if matches!(pick, RoutePick::Spilled { .. }) {
            tier.spills += 1;
        }
        let stream = |job: &Job| {
            vec![StreamRequest {
                tenant: at.tenant,
                inputs: job.inputs.clone(),
            }]
        };
        let run1 = dispatch(tier, || server.run(at.shard, stream(&job)));
        let swap = dispatch(tier, || server.swap_params(at, job.swap.clone()));
        let run2 = dispatch(tier, || server.run(at.shard, stream(&job)));
        let release = dispatch(tier, || server.release(at));
        tier.shard_items[at.shard] += 2 * job.inputs.len() as u64;
        flights.push((job, t0, admit, run1, swap, run2, release));
    }
    let mut done = Vec::with_capacity(flights.len());
    for (job, t0, admit, run1, swap, run2, release) in flights {
        let _s = trace::span("shard.wait");
        if let Some(adm) = calls.check("submit", admit.wait()) {
            tier.admissions += 1;
            if let Admission::Admitted(a) = &adm {
                tier.warm += u64::from(a.cache_hit);
                rt.admitted(a, a.admit_time.as_secs_f64());
            }
        }
        let mut outputs = [Vec::new(), Vec::new()];
        for (slot, ticket) in [run1, run2].into_iter().enumerate() {
            if let Some(mut runs) = calls.check("run", ticket.wait()) {
                rt.ran(&runs);
                outputs[slot] = runs.pop().map(|r| r.outputs).unwrap_or_default();
            }
        }
        if let Some(report) = calls.check("swap_params", swap.wait()) {
            rt.swapped(&report);
        }
        calls.check("release", release.wait());
        done.push(Finished {
            job,
            outputs,
            latency: t0.elapsed().as_secs_f64(),
        });
    }
    (done, t_wave.elapsed().as_secs_f64())
}

/// Digests a wave's outputs and checks one seeded item per stream
/// against `run_dataflow`, bit for bit.
fn check_wave(done: &[Finished], rng: &mut SplitMix64, fp: &mut Fnv, out: &mut Outcome) {
    for f in done {
        for (phase, outputs) in f.outputs.iter().enumerate() {
            fp.write(outputs.len() as u64);
            for v in outputs.iter().flatten() {
                fp.write(v.bits);
            }
            if outputs.len() != f.job.inputs.len() {
                out.gate(false, || {
                    format!(
                        "{}: {} of {} outputs",
                        f.job.name,
                        outputs.len(),
                        f.job.inputs.len()
                    )
                });
                continue;
            }
            let i = rng.index(outputs.len());
            let graph = if phase == 0 {
                f.job.graph.clone()
            } else {
                f.job.graph.with_coeffs(&f.job.swap)
            };
            let want: Vec<u64> = run_dataflow(&graph, &f.job.inputs[i])
                .iter()
                .map(|v| v.bits)
                .collect();
            let got: Vec<u64> = outputs[i].iter().map(|v| v.bits).collect();
            out.gate(got == want, || {
                format!(
                    "{} phase {phase} item {i} deviates from run_dataflow",
                    f.job.name
                )
            });
        }
    }
}

fn start(
    plan: &Plan,
    lib: &[Workload],
    seed: u64,
    calls: &mut Calls,
    out: &mut Outcome,
) -> (ShardServer, u64) {
    let mut server = ShardServer::start(ShardConfig {
        shards: SHARDS,
        runtime: RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
        ..ShardConfig::default()
    });
    let (mut tier, mut rt) = (Tier::default(), RuntimeLayer::default());
    let all: Vec<usize> = (0..lib.len()).collect();
    let jobs = make_wave(lib, &all, seed, 0, plan.priming_items);
    let (done, _) = run_wave(&mut server, jobs, &mut tier, &mut rt, calls);
    calls.check("drain", server.drain(false));
    let mut fp = Fnv::default();
    check_wave(&done, &mut SplitMix64::new(seed), &mut fp, out);
    (server, fp.finish())
}

fn port_s(stats: &[ShardStats]) -> f64 {
    stats
        .iter()
        .map(|s| s.ledger.total_port_time().as_secs_f64())
        .sum()
}

pub fn run(args: &RunArgs) -> Outcome {
    let plan = Plan::of(args.scale);
    let lib = kernels::library(FORMAT);
    let mut out = Outcome::default();
    let mut calls = Calls::default();
    let mut tracer = LayerTrace::start(args.trace);

    let mut setup = Samples::default();
    let mut priming = Vec::new();
    let mut server = None;
    for _ in 0..plan.setups {
        let t = Stopwatch::start();
        let (s, fp) = start(&plan, &lib, args.seed, &mut calls, &mut out);
        setup.push(t.cpu_s());
        priming.push(fp);
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    let mut server = server.expect("at least one set-up");
    out.gate(priming.iter().all(|&f| f == priming[0]), || {
        format!("priming output fingerprint differs between set-ups: {priming:x?}")
    });
    absorb(&mut tracer);

    let (mut tier, mut rt) = (Tier::default(), RuntimeLayer::default());
    let (mut jobs, mut waves) = (Windows::new(WINDOW_JOBS), Samples::default());
    let mut fp = Fnv::default();
    let mut check_rng = SplitMix64::new(args.seed ^ 0xC4EC);
    let mut port_ref = 0.0;
    // Blocks of 3 waves hold every library structure 4 times.
    let mut deck = Deck::new(lib.len(), 4, args.seed);
    let mut wave = 0u64;
    let start = Instant::now();
    while (wave as usize) < plan.max_waves
        && ((wave as usize) < plan.ref_waves || start.elapsed().as_secs_f64() < args.seconds)
    {
        wave += 1;
        let kinds: Vec<usize> = (0..TENANTS_PER_WAVE).map(|_| deck.draw()).collect();
        let batch = make_wave(&lib, &kinds, args.seed, wave, plan.items);
        let t = Stopwatch::start();
        let (done, seconds) = run_wave(&mut server, batch, &mut tier, &mut rt, &mut calls);
        let cpu_seconds = t.cpu_s();
        waves.push(seconds);
        let latencies: Vec<f64> = done.iter().map(|f| f.latency).collect();
        jobs.record(&latencies, seconds, cpu_seconds);
        check_wave(&done, &mut check_rng, &mut fp, &mut out);
        if wave as usize == plan.ref_waves {
            out.fingerprint = fp.finish();
            if let Some(stats) = calls.check("drain", server.drain(false)) {
                port_ref = port_s(&stats);
            }
        }
        absorb(&mut tracer);
    }
    let timed_s = waves.sum();

    // Closing gates: every shard's scheduler and time-axis invariants.
    let stats = match server.drain(true) {
        Ok(stats) => stats,
        Err(e) => {
            out.gate(false, || format!("closing verification: {e}"));
            Vec::new()
        }
    };
    calls.ok();
    for f in server.shutdown() {
        out.gate(f.verify.ok(), || {
            format!("shard {} at shutdown: {}", f.shard, f.verify.summary())
        });
    }
    out.attempted = calls.attempted;
    out.failed = calls.failed;
    if let Some(e) = calls.first_error.take() {
        out.errors.push(e);
    }

    let items: u64 = tier.shard_items.iter().sum();
    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak_rss_mb());
    jobs.publish(&mut out);
    out.set("port_s", port_ref);

    let ledgers: Vec<_> = stats.iter().map(|s| s.ledger).collect();
    let caches: Vec<_> = stats.iter().map(|s| s.cache).collect();
    let utilization = ratio(
        stats.iter().map(|s| s.utilization).sum(),
        stats.len() as f64,
    );
    rt.publish(&mut out, &ledgers, &caches, utilization);
    let mean_items = items as f64 / SHARDS as f64;
    let max_items = tier.shard_items.iter().copied().max().unwrap_or(0) as f64;
    out.set("shard.dispatch_us_p50", us(tier.dispatch.median()));
    out.set(
        "shard.retry_ratio",
        ratio(tier.retries as f64, tier.accepted as f64),
    );
    out.set(
        "shard.spill_ratio",
        ratio(tier.spills as f64, tier.submits as f64),
    );
    out.set("shard.imbalance", ratio(max_items, mean_items));
    out.set(
        "shard.warm_hit_ratio",
        ratio(tier.warm as f64, tier.admissions as f64),
    );
    out.set("shard.wave_ms_p50", ms(waves.median()));

    out.show("items_per_s", ratio(items as f64, timed_s), "1/s");
    out.show(
        "warm_hit_ratio",
        ratio(tier.warm as f64, tier.admissions as f64),
        "ratio",
    );
    out.show("waves", waves.len() as f64, "count");
    out.show(
        "mean_jobs_per_s",
        ratio(jobs.all.len() as f64, timed_s),
        "1/s",
    );

    if let Some(t) = tracer {
        out.set("trace.jobs_per_s", jobs.jobs_per_s());
        out.set("trace.cpu_ms_per_job", out.values["cpu_ms_per_job"]);
        t.finish("serve_stream", &mut out);
    }
    out
}
