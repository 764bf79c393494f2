//! `compile_pe`: the paper's Table I path.
//!
//! Set-up builds the FP-MAC virtual PE twice (conventional and
//! parameterized annotation). One job is one Table I pass: both flows
//! mapped (`map_conventional`, `map_parameterized_with_effort`), then
//! `par::extract`, `ParEngine::place` and `ParEngine::min_channel_width`
//! with default `EngineOptions` on 2 threads. The PE and the placement
//! seed are fixed, so the QoR is too. `--seed` draws the parameter values
//! of the equivalence check and the coefficient changes whose modeled
//! micro-reconfiguration time on the compiled PE is `port_s`.

use std::time::Instant;

use vcgra_repro::dcs::timing::specialization_report;
use vcgra_repro::dcs::{ParamConfig, ReconfigInterface, Scg};
use vcgra_repro::fabric::{FabricArch, RouteGraph};
use vcgra_repro::logic::SplitMix64;
use vcgra_repro::logic::{self, aig::Aig};
use vcgra_repro::mapping::{self, MapEffort, MapOptions, MapStats, MappedDesign};
use vcgra_repro::par::{self, EngineOptions, ParEngine, ParNetlist, Placement, WidthSearch};
use vcgra_repro::softfloat::{FpFormat, FpValue};
use vcgra_repro::trace;
use vcgra_repro::vcgra::{PeSettings, VirtualPe, VirtualPeConfig};
use vcgra_repro::verify::Verifier;

use crate::layers::{absorb, LayerTrace};
use crate::stats::{peak_rss_mb, ratio, us, Calls, Fnv, Samples, Stopwatch, Windows};
use crate::{Outcome, RunArgs, Scale};

/// Seeded coefficient changes priced on the compiled parameterized PE.
const COEFF_CHANGES: usize = 32;

/// Sizes of a run.
struct Plan {
    format: FpFormat,
    setups: usize,
    min_passes: usize,
    max_passes: usize,
    /// Parameter assignments the equivalence check draws per design.
    draws: usize,
}

impl Plan {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Plan {
                format: FpFormat::new(5, 10),
                setups: 101,
                min_passes: 2,
                max_passes: 64,
                draws: 4,
            },
            Scale::Tiny => Plan {
                format: FpFormat::new(3, 4),
                setups: 1,
                min_passes: 2,
                max_passes: 2,
                draws: 2,
            },
        }
    }
}

/// One flow of one pass.
struct Flow {
    design: MappedDesign,
    effort: Option<MapEffort>,
    netlist: ParNetlist,
    arch: FabricArch,
    placement: Placement,
    search: WidthSearch,
    map_s: f64,
    place_s: f64,
    search_s: f64,
    seconds: f64,
}

impl Flow {
    fn stats(&self) -> MapStats {
        self.design.stats()
    }

    fn failed_probe_s(&self) -> f64 {
        self.search
            .probes
            .iter()
            .filter(|p| !p.success)
            .map(|p| p.seconds)
            .sum()
    }

    /// Everything the flow decided, as one fingerprint: the QoR and the
    /// routing trees.
    fn digest(&self, fp: &mut Fnv) {
        let s = self.stats();
        for v in [
            s.luts,
            s.tluts,
            s.tcons,
            s.depth as usize,
            self.search.min_width,
            self.search.result.wirelength,
        ] {
            fp.write(v as u64);
        }
        for tree in &self.search.result.trees {
            fp.write(tree.len() as u64);
            for &node in tree {
                fp.write(u64::from(node));
            }
        }
    }
}

fn pe_config(format: FpFormat) -> VirtualPeConfig {
    VirtualPeConfig { format, hops: 2 }
}

fn build_pe(format: FpFormat, parameterized: bool) -> Aig {
    logic::opt::sweep(&VirtualPe::build(pe_config(format), parameterized).aig)
}

/// The paper's micro-reconfiguration on the compiled parameterized PE: a
/// seeded sequence of MAC coefficient changes, each specialized through
/// the SCG and priced at its dirty frames. Returns the modeled port
/// seconds, the frames per change and the evaluation time per change.
fn price_changes(design: &MappedDesign, format: FpFormat, seed: u64) -> (f64, f64, Samples) {
    let config = ParamConfig::extract(design);
    let scg = Scg::new(design, &config);
    let mut rng = SplitMix64::new(seed);
    let mut coeff = || FpValue::from_f64(rng.unit_f64() * 4.0 - 2.0, format);
    let bits = |c: FpValue| PeSettings::mac(c, 1).to_param_bits(&pe_config(format));
    let (mut port_s, mut frames, mut eval) = (0.0, 0, Samples::default());
    let mut old = bits(coeff());
    for _ in 0..COEFF_CHANGES {
        let new = bits(coeff());
        let report = specialization_report(&scg, &old, &new, ReconfigInterface::Hwicap);
        port_s += report.port_time.as_secs_f64();
        frames += report.frames;
        eval.push_duration(report.eval_time);
        old = new;
    }
    (port_s, frames as f64 / COEFF_CHANGES as f64, eval)
}

fn compile(engine: &ParEngine, aig: &Aig, parameterized: bool, calls: &mut Calls) -> Option<Flow> {
    let t0 = Instant::now();
    let (design, effort) = {
        let _s = trace::span("mapping.map");
        if parameterized {
            let (d, e) = mapping::map_parameterized_with_effort(aig, MapOptions::default());
            (d, Some(e))
        } else {
            (mapping::map_conventional(aig, MapOptions::default()), None)
        }
    };
    calls.ok();
    let map_s = t0.elapsed().as_secs_f64();
    let netlist = {
        let _s = trace::span("par.extract");
        par::extract(&design)
    };
    calls.ok();
    let arch = FabricArch::sized_for(netlist.logic_count(), netlist.io_count());
    let t1 = Instant::now();
    let placement = {
        let _s = trace::span("par.place");
        engine.place(&netlist, arch)
    };
    calls.ok();
    let place_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let search = {
        let _s = trace::span("par.search");
        engine.min_channel_width(&netlist, &placement, arch)
    };
    let search = calls.check(
        "min_channel_width",
        search.ok_or("unroutable up to the width ceiling"),
    )?;
    let search_s = t2.elapsed().as_secs_f64();
    Some(Flow {
        design,
        effort,
        netlist,
        arch,
        placement,
        search,
        map_s,
        place_s,
        search_s,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Per-flow timings over every pass.
#[derive(Default)]
struct FlowTimes {
    map: Samples,
    place: Samples,
    search: Samples,
    failed_probes: Samples,
    total: Samples,
}

impl FlowTimes {
    fn push(&mut self, f: &Flow) {
        self.map.push(f.map_s);
        self.place.push(f.place_s);
        self.search.push(f.search_s);
        self.failed_probes.push(f.failed_probe_s());
        self.total.push(f.seconds);
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let plan = Plan::of(args.scale);
    let mut out = Outcome::default();
    let mut calls = Calls::default();
    let mut tracer = LayerTrace::start(args.trace);

    let (mut setup, mut pe_build) = (Samples::default(), Samples::default());
    let mut aigs = None;
    for _ in 0..plan.setups {
        let t = Stopwatch::start();
        let _s = trace::span("softfloat.pe_build");
        let built = (build_pe(plan.format, false), build_pe(plan.format, true));
        setup.push(t.cpu_s());
        pe_build.push(t.wall_s());
        aigs = Some(built);
    }
    let (conv_aig, par_aig) = aigs.expect("at least one set-up");
    absorb(&mut tracer);

    let engine = ParEngine::new(EngineOptions {
        threads: 2,
        ..EngineOptions::default()
    });
    let (mut conv_t, mut par_t) = (FlowTimes::default(), FlowTimes::default());
    // One window per pass, as the serve workloads' figures are medians
    // over windows: a run holds 3-5 passes, too few for a tail, so the
    // job p99 here equals the median pass time, like the p50.
    let mut passes = Windows::new(1);
    let mut first: Option<(Flow, Flow)> = None;
    let mut digests = Vec::new();
    let start = Instant::now();
    while digests.len() < plan.max_passes
        && (digests.len() < plan.min_passes || start.elapsed().as_secs_f64() < args.seconds)
    {
        let t = Stopwatch::start();
        let conv = compile(&engine, &conv_aig, false, &mut calls);
        let par = compile(&engine, &par_aig, true, &mut calls);
        let (Some(conv), Some(par)) = (conv, par) else {
            break;
        };
        let (pass_s, pass_cpu_s) = (t.wall_s(), t.cpu_s());
        passes.record(&[pass_s], pass_s, pass_cpu_s);
        conv_t.push(&conv);
        par_t.push(&par);
        let mut fp = Fnv::default();
        conv.digest(&mut fp);
        par.digest(&mut fp);
        digests.push(fp.finish());
        if first.is_none() {
            first = Some((conv, par));
        }
        absorb(&mut tracer);
    }

    out.attempted = calls.attempted;
    out.failed = calls.failed;
    if let Some(e) = calls.first_error.take() {
        out.errors.push(e);
    }
    let Some((conv, par)) = first else {
        out.errors.push("no compile pass completed".into());
        return out;
    };

    // Correctness gates, outside the timed window.
    out.fingerprint = digests[0];
    out.gate(digests.iter().all(|&d| d == digests[0]), || {
        format!("QoR or routing differs between passes: {digests:x?}")
    });
    let v = Verifier::new();
    for (label, aig, flow) in [
        ("conventional", &conv_aig, &conv),
        ("parameterized", &par_aig, &par),
    ] {
        let eq = v.verify_equivalence(aig, &flow.design, plan.draws, args.seed);
        out.gate(eq.ok(), || format!("{label} mapping: {}", eq.summary()));
        let graph = RouteGraph::build(flow.arch, flow.search.min_width);
        let nets = par::troute::terminals(&flow.netlist, &flow.placement, &graph);
        let routes = v.verify_routes(&graph, &nets, &flow.search.result.trees);
        out.gate(routes.ok(), || {
            format!("{label} routing: {}", routes.summary())
        });
    }

    let (sc, sp) = (conv.stats(), par.stats());
    let (port_s, frames_per_change, eval) = {
        let _s = trace::span("dcs.price");
        price_changes(&par.design, plan.format, args.seed)
    };
    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak_rss_mb());
    passes.publish(&mut out);
    out.set("port_s", port_s);

    out.set("softfloat.pe_build_s", pe_build.median());
    out.set("logic.aig_nodes", par_aig.num_nodes() as f64);
    out.set("mapping.conv_s", conv_t.map.median());
    out.set("mapping.param_s", par_t.map.median());
    let effort = par.effort.unwrap_or_default();
    out.set("mapping.ptt_merges", effort.ptt_merges as f64);
    out.set(
        "mapping.ptt_hit_ratio",
        ratio(effort.ptt_cache_hits as f64, effort.ptt_merges as f64),
    );
    out.set("mapping.tcon_checks", effort.tcon_checks as f64);
    out.set(
        "mapping.tcon_hit_ratio",
        ratio(effort.tcon_cache_hits as f64, effort.tcon_checks as f64),
    );
    out.set("mapping.luts_conv", sc.luts as f64);
    out.set("mapping.luts_param", sp.luts as f64);
    out.set("mapping.tcons", sp.tcons as f64);
    out.set("mapping.depth_param", f64::from(sp.depth));
    out.set("par.place_conv_s", conv_t.place.median());
    out.set("par.place_param_s", par_t.place.median());
    out.set("par.search_conv_s", conv_t.search.median());
    out.set("par.search_param_s", par_t.search.median());
    out.set("par.failed_probe_conv_s", conv_t.failed_probes.median());
    out.set("par.failed_probe_param_s", par_t.failed_probes.median());
    let probes: Vec<_> = conv
        .search
        .probes
        .iter()
        .chain(&par.search.probes)
        .collect();
    let useful = probes.iter().filter(|p| p.success).count();
    out.set("par.probes", probes.len() as f64);
    out.set(
        "par.useful_probe_ratio",
        ratio(useful as f64, probes.len() as f64),
    );
    out.set(
        "par.iterations",
        probes.iter().map(|p| p.iterations).sum::<usize>() as f64,
    );
    out.set(
        "par.ripups",
        probes.iter().map(|p| p.ripups).sum::<usize>() as f64,
    );
    out.set("pricer.frames_per_swap", frames_per_change);
    out.set("pricer.eval_us_p50", us(eval.median()));
    out.set("par.min_width_conv", conv.search.min_width as f64);
    out.set("par.min_width_param", par.search.min_width as f64);
    out.set("par.wirelength_conv", conv.search.result.wirelength as f64);
    out.set("par.wirelength_param", par.search.result.wirelength as f64);

    out.show("compile_conv_s", conv_t.total.median(), "s");
    out.show("compile_param_s", par_t.total.median(), "s");
    out.show("luts_param", sp.luts as f64, "count");
    out.show("min_width_param", par.search.min_width as f64, "count");
    out.show(
        "wirelength_param",
        par.search.result.wirelength as f64,
        "count",
    );
    out.show("passes", passes.all.len() as f64, "count");

    if let Some(t) = tracer {
        out.set("trace.jobs_per_s", passes.jobs_per_s());
        out.set("trace.cpu_ms_per_job", out.values["cpu_ms_per_job"]);
        t.finish("compile_pe", &mut out);
    }
    out
}
