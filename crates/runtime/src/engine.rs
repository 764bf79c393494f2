//! Streaming execution over the grid pool.
//!
//! Execution is organized by **band** (the scheduler's unit of spatial
//! isolation): bands are independent hardware regions, so they run on
//! parallel worker threads; tenants *within* a shared band are
//! time-multiplexed, so they run serialized, and every slot change is
//! charged a full-region micro-reconfiguration in the ledger (the cost
//! that makes oversubscription visible).
//!
//! Each job lowers its tenant's placed configuration to a
//! [`vcgra::sim::Tape`] once — the PE settings decoded, the operands
//! resolved — and streams every input vector through it in bit-exact
//! FloPoCo arithmetic: the same value `run_dataflow` computes, which is
//! what the bit-exactness acceptance tests pin down. The tape is not
//! cached: lowering is O(nodes) against O(items × nodes) of execution,
//! and a cached copy would go stale on every swap and relocation.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use softfloat::FpValue;
use vcgra::app::AppGraph;
use vcgra::flow::VcgraMapping;
use vcgra::sim::Tape;

use crate::pool::TenantId;

/// One tenant's work within a band.
pub struct Job<'a> {
    /// The tenant being served.
    pub tenant: TenantId,
    /// Relocation epoch of the tenant's lease at submission time (how
    /// many times compaction has moved the band) — carried into the
    /// [`TenantRun`] so callers can correlate results with relocations.
    pub epoch: u64,
    /// Its application graph (current parameters).
    pub graph: &'a AppGraph,
    /// Its placed configuration (settings match the graph).
    pub mapping: &'a VcgraMapping,
    /// Input vectors to stream.
    pub inputs: Vec<Vec<FpValue>>,
}

/// All work scheduled onto one band this run.
pub struct BandWork<'a> {
    /// True when the band time-multiplexes several tenants.
    pub shared: bool,
    /// True when the band's resident configuration (from a previous run)
    /// is not the first job's — the first slot must swap in too.
    pub swap_in_first: bool,
    /// Modeled port time of one context switch (full-region reconfig).
    pub switch_cost: Duration,
    /// Jobs, executed in order (run-to-completion per slot).
    pub jobs: Vec<Job<'a>>,
}

/// Per-tenant result of one streaming run.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The tenant.
    pub tenant: TenantId,
    /// Relocation epoch the tenant ran at (see [`Job::epoch`]).
    pub epoch: u64,
    /// One output vector per input vector, in order.
    pub outputs: Vec<Vec<FpValue>>,
    /// Input vectors processed.
    pub items: usize,
    /// Measured host execution time.
    pub exec_time: Duration,
    /// Context switches charged to this tenant (slot swap-ins).
    pub context_switches: usize,
    /// Modeled port time of those switches.
    pub switch_port_time: Duration,
}

impl TenantRun {
    /// Items per second of measured host execution.
    pub fn throughput(&self) -> f64 {
        self.items as f64 / self.exec_time.as_secs_f64().max(1e-12)
    }
}

/// Modeled port time of `switches` context switches at `cost` each.
///
/// Computed in 128-bit nanoseconds: the obvious `cost * switches as u32`
/// silently truncates once a long-lived time-shared tenant accumulates
/// more than `u32::MAX` switches, and `Duration::mul` panics on overflow
/// besides. Saturates at `Duration::MAX` instead of wrapping or
/// panicking — a modeled cost that large is already "never admit this".
pub fn switch_port_time(cost: Duration, switches: u64) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    let ns = cost.as_nanos().saturating_mul(u128::from(switches));
    match u64::try_from(ns / NANOS_PER_SEC) {
        Ok(secs) => Duration::new(secs, (ns % NANOS_PER_SEC) as u32),
        Err(_) => Duration::MAX,
    }
}

/// Runs every band, bands in parallel and jobs within a band serialized.
/// Uses `workers.min(bands)` workers (at least one), one of them the
/// calling thread, so a single-band run spawns no thread at all.
pub fn run_bands(bands: Vec<BandWork<'_>>, workers: usize) -> Vec<TenantRun> {
    let n_workers = workers.min(bands.len()).max(1);
    let queue = Mutex::new(bands.into_iter().collect::<VecDeque<_>>());
    let results = Mutex::new(Vec::new());
    let work = || {
        // One node-value buffer per worker, reused by every item of every job.
        let mut values = Vec::new();
        loop {
            let band = match queue.lock().expect("band queue mutex poisoned").pop_front() {
                Some(b) => b,
                None => break,
            };
            let mut runs = Vec::with_capacity(band.jobs.len());
            for (slot, job) in band.jobs.into_iter().enumerate() {
                // Every slot after the first swaps a different tenant's
                // configuration into the shared region; the first slot
                // swaps in as well when another tenant was resident.
                let swap_in = slot > 0 || band.swap_in_first;
                let switches = if band.shared && swap_in { 1 } else { 0 };
                let mut request_span = trace::span("request");
                request_span.arg("tenant", job.tenant);
                request_span.arg("op", "execute");
                if switches > 0 {
                    // The swap-in reconfigures this band while other
                    // bands keep computing — the overlap the runtime's
                    // timeline models as a lane-local phase.
                    let mut sw = trace::span("reconfig_overlap");
                    sw.arg("tenant", job.tenant);
                    sw.arg("switch_ns", band.switch_cost.as_nanos() as u64);
                    drop(sw);
                }
                let mut exec_span = trace::span("execute");
                let t0 = std::time::Instant::now();
                let tape = Tape::lower(job.mapping, job.graph);
                let outputs: Vec<Vec<FpValue>> =
                    job.inputs.iter().map(|input| tape.run_with(input, &mut values)).collect();
                let exec_time = t0.elapsed();
                exec_span.arg("items", outputs.len());
                drop(exec_span);
                drop(request_span);
                runs.push(TenantRun {
                    tenant: job.tenant,
                    epoch: job.epoch,
                    items: outputs.len(),
                    outputs,
                    exec_time,
                    context_switches: switches,
                    switch_port_time: switch_port_time(band.switch_cost, switches as u64),
                });
            }
            results.lock().expect("result mutex poisoned").extend(runs);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..n_workers {
            scope.spawn(work);
        }
        work();
    });
    let mut out = results.into_inner().expect("result mutex poisoned");
    out.sort_by_key(|r| r.tenant);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::library;
    use softfloat::FpFormat;
    use vcgra::app::AppSource;
    use vcgra::flow::map_app;
    use vcgra::sim::run_dataflow;
    use vcgra::{PeMode, VcgraArch};

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    /// One node per `PeMode`, with coefficients that make products
    /// overflow, underflow and change sign. Every node is an output.
    fn every_mode_graph() -> AppGraph {
        let mut g = AppGraph::new(F, 2);
        let (x0, x1) = (AppSource::External(0), AppSource::External(1));
        for c in [0.5, -0.5, 2f64.powi(20), 2f64.powi(-20)] {
            let n = g.add("mac", PeMode::Mac, Some(fp(c)), x0, AppSource::Zero);
            g.mark_output(n);
            let n = g.add("mul", PeMode::Mul, Some(fp(c)), x0, AppSource::Zero);
            g.mark_output(n);
        }
        let n = g.add("add", PeMode::Add, None, x0, x1);
        g.mark_output(n);
        let n = g.add("pass", PeMode::Pass, None, x1, AppSource::Zero);
        g.mark_output(n);
        g
    }

    #[test]
    fn parallel_bands_match_run_dataflow() {
        // ±0, ±Inf, NaN, values whose products overflow or underflow
        // against the graph coefficients, and plain values.
        let values: Vec<FpValue> = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            2f64.powi(20),
            -(2f64.powi(20)),
            2f64.powi(-20),
            -(2f64.powi(-20)),
            1.5,
            -3.25,
        ]
        .into_iter()
        .map(fp)
        .collect();
        let modes = every_mode_graph();
        let mut apps: Vec<AppGraph> = vec![
            AppGraph::dot_product(F, &[0.5, 0.25, 0.125]),
            AppGraph::mac_chain(F, &[1.0, -1.0]),
            modes.clone(),
        ];
        apps.extend(library(F).into_iter().map(|w| w.graph));
        let mappings: Vec<_> = apps
            .iter()
            .map(|a| map_app(a, VcgraArch::new(8, 4, 2), 3).unwrap())
            .collect();
        // Every pair of values through the per-mode graph; the kernels
        // mix the same values with plain ones.
        let inputs: Vec<Vec<Vec<FpValue>>> = apps
            .iter()
            .map(|a| {
                if a.num_inputs == 2 {
                    let pairs = values.iter().flat_map(|&x| values.iter().map(move |&y| vec![x, y]));
                    return pairs.collect();
                }
                (0..24)
                    .map(|i| {
                        (0..a.num_inputs)
                            .map(|j| match (i + j) % 3 {
                                0 => values[(i * 7 + j) % values.len()],
                                _ => fp((i * 7 + j) as f64 * 0.5 - 3.0),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let bands: Vec<BandWork> = apps
            .iter()
            .zip(&mappings)
            .zip(&inputs)
            .enumerate()
            .map(|(t, ((graph, mapping), ins))| BandWork {
                shared: false,
                swap_in_first: false,
                switch_cost: Duration::ZERO,
                jobs: vec![Job {
                    tenant: t as TenantId,
                    epoch: 0,
                    graph,
                    mapping,
                    inputs: ins.clone(),
                }],
            })
            .collect();
        let runs = run_bands(bands, 4);
        assert_eq!(runs.len(), apps.len());
        for (t, run) in runs.iter().enumerate() {
            assert_eq!(run.items, inputs[t].len());
            assert_eq!(run.context_switches, 0);
            for (input, out) in inputs[t].iter().zip(&run.outputs) {
                let want = run_dataflow(&apps[t], input);
                let got: Vec<u64> = out.iter().map(|v| v.bits).collect();
                let want_bits: Vec<u64> = want.iter().map(|v| v.bits).collect();
                assert_eq!(got, want_bits, "tenant {t} bit-exact on {input:?}");
            }
        }

        // A −0 product: the MAC's `+ fb` add makes it +0, a MUL keeps −0.
        let tape = Tape::lower(&mappings[2], &modes);
        let out = tape.run(&[fp(-0.0), fp(1.0)]);
        assert_eq!(out[0].to_f64().to_bits(), 0f64.to_bits(), "Mac(0.5, -0) = +0");
        assert_eq!(out[1].to_f64().to_bits(), (-0f64).to_bits(), "Mul(0.5, -0) = -0");
    }

    #[test]
    fn switch_port_time_survives_huge_switch_counts() {
        let cost = Duration::from_millis(100);
        // Sanity at small counts: identical to the obvious product.
        assert_eq!(switch_port_time(cost, 0), Duration::ZERO);
        assert_eq!(switch_port_time(cost, 3), cost * 3);
        // Past u32::MAX switches the old `cost * switches as u32` cast
        // truncated the count (here to 1); the u128 path keeps every
        // switch.
        let switches = u64::from(u32::MAX) + 2;
        let got = switch_port_time(cost, switches);
        assert_eq!(got, Duration::from_millis(100 * switches));
        assert!(got > cost * u32::MAX, "no truncation back into u32 range");
        // And the astronomically-large product saturates instead of
        // panicking.
        assert_eq!(switch_port_time(Duration::MAX, u64::MAX), Duration::MAX);
    }

    #[test]
    fn shared_band_charges_context_switches() {
        let app = AppGraph::dot_product(F, &[1.0, 2.0]);
        let mapping = map_app(&app, VcgraArch::paper_4x4(), 1).unwrap();
        let inputs: Vec<Vec<FpValue>> = vec![vec![fp(1.0), fp(2.0)]; 3];
        let cost = Duration::from_millis(100);
        let band = BandWork {
            shared: true,
            swap_in_first: false,
            switch_cost: cost,
            jobs: (0..3)
                .map(|t| Job { tenant: t, epoch: 0, graph: &app, mapping: &mapping, inputs: inputs.clone() })
                .collect(),
        };
        let runs = run_bands(vec![band], 2);
        assert_eq!(runs[0].context_switches, 0, "first slot is already resident");
        assert_eq!(runs[1].context_switches, 1);
        assert_eq!(runs[2].context_switches, 1);
        assert_eq!(runs[1].switch_port_time, cost);

        // With another tenant resident from a previous run, the first slot
        // pays a swap-in too.
        let band = BandWork {
            shared: true,
            swap_in_first: true,
            switch_cost: cost,
            jobs: vec![Job { tenant: 0, epoch: 0, graph: &app, mapping: &mapping, inputs }],
        };
        let runs = run_bands(vec![band], 1);
        assert_eq!(runs[0].context_switches, 1, "resident tenant differs");
    }
}
