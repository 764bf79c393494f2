//! Functional simulation of applications on the VCGRA.
//!
//! [`run_dataflow`] is the reference: it executes every node through
//! [`PeSettings::evaluate`], so every arithmetic result is bit-exact with
//! the FloPoCo netlists the CAD flow maps (this is cross-checked by
//! integration tests). Mapped configurations execute through a [`Tape`],
//! which decodes each PE's settings once and then computes only the
//! arithmetic each mode routes to its output. Streaming MAC
//! execution with the per-PE iteration counter — the usage pattern the
//! paper describes for the filter kernels — is modeled by
//! [`StreamingMac`].

use crate::app::{AppGraph, AppSource};
use crate::pe::{PeMode, PeSettings};
use softfloat::FpValue;

/// Runs a stateless dataflow graph on one input vector.
///
/// `inputs[i]` feeds `AppSource::External(i)`. Returns the output values in
/// the order the graph declared them.
pub fn run_dataflow(app: &AppGraph, inputs: &[FpValue]) -> Vec<FpValue> {
    assert_eq!(inputs.len(), app.num_inputs, "one value per external input");
    let zero = FpValue::zero(app.format);
    let mut value = Vec::with_capacity(app.nodes.len());
    for node in &app.nodes {
        let read = |s: AppSource, value: &[FpValue]| match s {
            AppSource::External(i) => inputs[i],
            AppSource::Node(j) => value[j],
            AppSource::Zero => zero,
        };
        let a = read(node.a, &value);
        let b = read(node.b, &value);
        let settings = PeSettings {
            coeff: node.coeff.unwrap_or(zero),
            counter: 1,
            mode: node.op,
        };
        // Dataflow nodes are stateless: fb is not used by Mul/Add/Pass.
        let (out, _) = settings.evaluate(a, b, zero);
        value.push(out);
    }
    app.outputs.iter().map(|&o| value[o]).collect()
}

/// Runs the graph over many input vectors.
pub fn run_batch(app: &AppGraph, batches: &[Vec<FpValue>]) -> Vec<Vec<FpValue>> {
    batches.iter().map(|b| run_dataflow(app, b)).collect()
}

/// A PE in streaming MAC mode: accumulates `counter` products before the
/// result is read and the accumulator clears — exactly the settings-
/// register behavior the paper describes (Section IV).
pub struct StreamingMac {
    settings: PeSettings,
    fb: FpValue,
    seen: u32,
}

impl StreamingMac {
    /// Creates a MAC PE with a coefficient and an iteration count.
    pub fn new(coeff: FpValue, counter: u32) -> Self {
        let fmt = coeff.format;
        Self {
            settings: PeSettings::mac(coeff, counter),
            fb: FpValue::zero(fmt),
            seen: 0,
        }
    }

    /// Feeds one sample; returns `Some(result)` when the window completes.
    pub fn step(&mut self, x: FpValue) -> Option<FpValue> {
        let (out, fbn) = self
            .settings
            .evaluate(x, FpValue::zero(x.format), self.fb);
        self.fb = fbn;
        self.seen += 1;
        if self.seen == self.settings.counter {
            self.seen = 0;
            self.fb = FpValue::zero(x.format);
            Some(out)
        } else {
            None
        }
    }

    /// Reconfigures the coefficient (in hardware: one PE
    /// micro-reconfiguration through the parameterized flow).
    pub fn set_coeff(&mut self, coeff: FpValue) {
        self.settings.coeff = coeff;
    }
}

/// Applies a full dot-product kernel to a window of samples using the MAC
/// iteration pattern: one PE, `coeffs.len()` cycles, one reconfiguration
/// per coefficient — the time-multiplexed alternative to the spatial
/// adder-tree mapping. Returns the same value as the spatial mapping up to
/// accumulation order.
pub fn time_multiplexed_dot(
    coeffs: &[FpValue],
    window: &[FpValue],
) -> FpValue {
    assert_eq!(coeffs.len(), window.len());
    let fmt = coeffs[0].format;
    let mut acc = FpValue::zero(fmt);
    for (&c, &x) in coeffs.iter().zip(window) {
        acc = x.mac(c, acc);
    }
    acc
}

/// Runs a mapped application on one input vector: the dataflow through
/// the placement, every node computed by the settings of the PE it sits
/// on. Lowers a [`Tape`] and runs it once; a stream of inputs should
/// lower once and call [`Tape::run_with`] per item instead.
pub fn run_mapped(
    mapping: &crate::flow::VcgraMapping,
    app: &AppGraph,
    inputs: &[FpValue],
) -> Vec<FpValue> {
    Tape::lower(mapping, app).run(inputs)
}

/// One PE of a [`Tape`]: only the arithmetic its mode's route selects
/// send to `out`, operands already resolved.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `a * coeff + fb` with `fb = 0`. The add stays: it turns a −0
    /// product into +0, exactly as the PE's adder does.
    Mac(FpValue, AppSource),
    /// `a * coeff`.
    Mul(FpValue, AppSource),
    /// `a + b`.
    Add(AppSource, AppSource),
    /// `a`.
    Pass(AppSource),
}

/// A mapped configuration lowered to a flat list of steps, one per node in
/// topological order — the fixed datapath the data streams through once
/// the PEs hold their settings. Bit-exact with [`run_dataflow`] on the
/// graph the settings were specialized from.
#[derive(Debug)]
pub struct Tape {
    steps: Vec<Step>,
    zero: FpValue,
    num_inputs: usize,
    outputs: Vec<usize>,
}

impl Tape {
    /// Reads every node's settings from the grid cell it is placed on.
    ///
    /// # Panics
    /// If a placed node's cell has no settings, or the settings' mode is
    /// not the node's op (the mapping was not made for this graph).
    pub fn lower(mapping: &crate::flow::VcgraMapping, app: &AppGraph) -> Tape {
        let cols = mapping.arch.cols;
        let steps = app
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let (r, c) = mapping.place[i];
                let settings = mapping.pe_settings[r * cols + c]
                    .expect("placed node must have settings");
                assert_eq!(settings.mode, node.op, "cell settings must match the node op");
                match settings.mode {
                    PeMode::Mac => Step::Mac(settings.coeff, node.a),
                    PeMode::Mul => Step::Mul(settings.coeff, node.a),
                    PeMode::Add => Step::Add(node.a, node.b),
                    PeMode::Pass => Step::Pass(node.a),
                }
            })
            .collect();
        Tape {
            steps,
            zero: FpValue::zero(app.format),
            num_inputs: app.num_inputs,
            outputs: app.outputs.clone(),
        }
    }

    /// Runs one input vector; `inputs[i]` feeds `AppSource::External(i)`.
    /// Returns the outputs in the order the graph declared them.
    pub fn run(&self, inputs: &[FpValue]) -> Vec<FpValue> {
        self.run_with(inputs, &mut Vec::with_capacity(self.steps.len()))
    }

    /// [`Tape::run`] with a caller-owned buffer for the node values, so a
    /// stream of items allocates it once.
    pub fn run_with(&self, inputs: &[FpValue], values: &mut Vec<FpValue>) -> Vec<FpValue> {
        assert_eq!(inputs.len(), self.num_inputs, "one value per external input");
        values.clear();
        for step in &self.steps {
            let read = |s: AppSource| match s {
                AppSource::External(k) => inputs[k],
                AppSource::Node(j) => values[j],
                AppSource::Zero => self.zero,
            };
            let out = match *step {
                Step::Mac(coeff, a) => read(a).mul(coeff).add(self.zero),
                Step::Mul(coeff, a) => read(a).mul(coeff),
                Step::Add(a, b) => read(a).add(read(b)),
                Step::Pass(a) => read(a),
            };
            values.push(out);
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::FpFormat;

    const F: FpFormat = FpFormat::PAPER;

    fn fp(x: f64) -> FpValue {
        FpValue::from_f64(x, F)
    }

    #[test]
    fn dot_product_computes_correctly() {
        let coeffs = [0.5, -1.0, 2.0, 0.25];
        let app = AppGraph::dot_product(F, &coeffs);
        let xs = [4.0, 3.0, 2.0, 8.0];
        let inputs: Vec<FpValue> = xs.iter().map(|&x| fp(x)).collect();
        let out = run_dataflow(&app, &inputs);
        let expect: f64 = coeffs.iter().zip(&xs).map(|(c, x)| c * x).sum();
        assert_eq!(out[0].to_f64(), expect, "2 - 3 + 4 + 2 = 5");
    }

    #[test]
    fn mac_chain_equals_dot_product() {
        let coeffs = [1.5, 2.5, -0.5];
        let xs: Vec<FpValue> = [1.0, 2.0, 4.0].iter().map(|&x| fp(x)).collect();
        let tree = AppGraph::dot_product(F, &coeffs);
        let chain = AppGraph::mac_chain(F, &coeffs);
        let a = run_dataflow(&tree, &xs)[0];
        let b = run_dataflow(&chain, &xs)[0];
        // Same association order in this case (left fold vs balanced tree
        // can differ in rounding for adversarial values; these are exact).
        assert_eq!(a.to_f64(), b.to_f64());
    }

    #[test]
    fn streaming_mac_accumulates_window() {
        let mut pe = StreamingMac::new(fp(2.0), 3);
        assert_eq!(pe.step(fp(1.0)), None);
        assert_eq!(pe.step(fp(10.0)), None);
        let out = pe.step(fp(100.0)).expect("window complete");
        assert_eq!(out.to_f64(), 222.0, "2*(1+10+100)");
        // Accumulator must have reset.
        assert_eq!(pe.step(fp(1.0)), None);
        assert_eq!(pe.step(fp(1.0)), None);
        assert_eq!(pe.step(fp(1.0)).unwrap().to_f64(), 6.0);
    }

    #[test]
    fn time_multiplexed_matches_weighted_sum() {
        let coeffs: Vec<FpValue> = [0.25, 0.5, 0.25].iter().map(|&c| fp(c)).collect();
        let window: Vec<FpValue> = [4.0, 8.0, 4.0].iter().map(|&x| fp(x)).collect();
        let out = time_multiplexed_dot(&coeffs, &window);
        assert_eq!(out.to_f64(), 6.0, "1 + 4 + 1");
    }

    #[test]
    fn mapped_execution_matches_pure_dataflow() {
        let coeffs = [1.0, 0.5, 0.25, 0.125, 2.0];
        let app = AppGraph::dot_product(F, &coeffs);
        let mapping = crate::flow::map_app(&app, crate::grid::VcgraArch::paper_4x4(), 5)
            .expect("mappable");
        let inputs: Vec<FpValue> =
            [1.0, 2.0, 3.0, 4.0, 5.0].iter().map(|&x| fp(x)).collect();
        let direct = run_dataflow(&app, &inputs);
        let mapped = run_mapped(&mapping, &app, &inputs);
        assert_eq!(direct[0].bits, mapped[0].bits);
    }
}
