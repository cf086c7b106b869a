//! `spice-reference`: the paper's accuracy evaluation. Each round
//! calibrates the technology against nanospice, parses every case from
//! `.sim` text, and runs `compare_scenario` (three switch-level models
//! plus a nanospice transient reference) over each case.

use crate::layers::AnalyzerLayers;
use crate::netlists::{cap_factor, scaled_sim};
use crate::stats::{median, ms_since, quantile, Rng, RunLog};
use crate::{Clock, Report, RunConfig};
use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Edge, Scenario};
use crystal::models::ModelKind;
use crystal::obs::TraceSink;
use crystal::tech::Technology;
use mos_timing::compare::{compare_scenario, CompareError, Comparison};
use mosnet::generators::{barrel_shifter, carry_chain, decoder, inverter_chain, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::{sim_format, Network, NodeId};
use nanospice::analysis::{
    measure_transition, operating_voltages, Edge as SimEdge, TransitionSpec,
};
use nanospice::devices::Waveshape;
use nanospice::{elaborate, MosModelSet, SimError, DENSE_SPARSE_THRESHOLD};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Stages of the CMOS inverter chain whose reference fails: nanospice's
/// DC operating point reports a singular matrix at the last node on
/// chains of 28 stages or more.
const FAILING_CHAIN_STAGES: usize = 32;

/// Output points of `SimGrid::auto()`'s transient: 4000 steps plus t = 0.
const AUTO_GRID_POINTS: f64 = 4001.0;

/// Slope predictions must lie within this factor band of the reference.
/// Today's worst honest case is +43% (xor2); a 2× corruption of any case
/// within 20% of its reference falls outside.
const BAND: (f64, f64) = (0.5, 1.6);

/// One comparison case, by node names so it survives the `.sim` round trip.
#[derive(Debug, Clone)]
struct Case {
    name: String,
    text: String,
    input: String,
    edge: Edge,
    statics: Vec<(String, bool)>,
    output: String,
    /// The reference is expected to fail (the singular-matrix fault).
    known_fault: bool,
    /// nanospice solves this circuit with dense LU.
    dense: bool,
}

impl Case {
    fn from_net(
        name: impl Into<String>,
        net: &Network,
        factor: f64,
        scenario: &Scenario,
        output: NodeId,
    ) -> Case {
        let mut statics: Vec<(String, bool)> = scenario
            .statics
            .iter()
            .map(|(&n, &level)| (net.node(n).name().to_string(), level))
            .collect();
        statics.sort();
        Case {
            name: name.into(),
            text: scaled_sim(net, factor),
            input: net.node(scenario.input).name().to_string(),
            edge: scenario.edge,
            statics,
            output: net.node(output).name().to_string(),
            known_fault: false,
            dense: dense(net),
        }
    }

    /// Parses the text and resolves the scenario: part of set-up.
    fn load(&self) -> Loaded {
        let net = sim_format::parse(&self.text, &self.name).expect("case text parses");
        let node = |name: &str| net.node_by_name(name).expect("case node exists");
        let scenario = self.statics.iter().fold(
            Scenario::step(node(&self.input), self.edge),
            |s, (name, level)| s.with_static(node(name), *level),
        );
        let output = node(&self.output);
        Loaded {
            net,
            scenario,
            output,
        }
    }
}

struct Loaded {
    net: Network,
    scenario: Scenario,
    output: NodeId,
}

fn cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x5b1c);
    let mut cases: Vec<Case> = bench::suite::full_suite()
        .iter()
        .map(|c| Case::from_net(&c.name, &c.net, cap_factor(&mut rng), &c.scenario, c.output))
        .collect();

    // Held out from calibration: sparse-solver circuits.
    let bits = 64;
    let net = carry_chain(Style::Cmos, bits, Farads::from_femto(50.0)).expect("valid");
    let node = |net: &Network, name: &str| net.node_by_name(name).expect("generated");
    let scenario = (1..=bits).fold(Scenario::step(node(&net, "cin"), Edge::Rising), |s, i| {
        s.with_static(node(&net, &format!("p{i}")), true)
            .with_static(node(&net, &format!("g{i}")), false)
    });
    let out = node(&net, "cout");
    cases.push(Case::from_net(
        "carry64_cmos",
        &net,
        cap_factor(&mut rng),
        &scenario,
        out,
    ));

    let bits = 6;
    let net = decoder(Style::Cmos, bits, Farads::from_femto(100.0)).expect("valid");
    let bit = rng.below(bits);
    let address = rng.below(1 << bits) & !(1 << bit);
    let scenario = (0..bits).filter(|&j| j != bit).fold(
        Scenario::step(node(&net, &format!("a{bit}")), Edge::Rising),
        |s, j| s.with_static(node(&net, &format!("a{j}")), address & (1 << j) != 0),
    );
    let out = node(&net, &format!("w{}", address | 1 << bit));
    cases.push(Case::from_net(
        "decoder6_cmos",
        &net,
        cap_factor(&mut rng),
        &scenario,
        out,
    ));

    let m = 16;
    let net = barrel_shifter(Style::Cmos, m, Farads::from_femto(100.0)).expect("valid");
    let (bit, shift) = (rng.below(m), rng.below(m));
    let scenario = (0..m).fold(
        Scenario::step(node(&net, &format!("d{bit}")), Edge::Falling),
        |s, k| s.with_static(node(&net, &format!("sh{k}")), k == shift),
    );
    let out = node(&net, &format!("q{}", (bit + m - shift) % m));
    cases.push(Case::from_net(
        "barrel16_cmos",
        &net,
        cap_factor(&mut rng),
        &scenario,
        out,
    ));

    // The known failure, on inputs that do not depend on the seed.
    let net = inverter_chain(
        Style::Cmos,
        FAILING_CHAIN_STAGES,
        1.0,
        Farads::from_femto(100.0),
    )
    .expect("valid");
    for edge in [Edge::Rising, Edge::Falling] {
        let scenario = Scenario::step(node(&net, "in"), edge);
        let out = node(&net, "out");
        let mut case = Case::from_net(
            format!("inv{FAILING_CHAIN_STAGES}_cmos_{edge:?}").to_lowercase(),
            &net,
            1.0,
            &scenario,
            out,
        );
        case.known_fault = true;
        cases.push(case);
    }
    cases
}

/// Per-layer time of one traced comparison.
#[derive(Debug, Default)]
struct Split {
    analysis_ms: f64,
    slope_ms: f64,
    op_ms: f64,
    tran_ms: f64,
}

/// `compare_scenario`'s calls, made one by one so each layer is timed
/// from outside; the result is the same `Comparison`.
fn traced_compare(
    loaded: &Loaded,
    tech: &Technology,
    models: &MosModelSet,
    sink: &Arc<TraceSink>,
    split: &mut Split,
) -> Result<Comparison, CompareError> {
    let Loaded {
        net,
        scenario,
        output,
    } = loaded;
    let mut delays = [Seconds::ZERO; 3];
    let mut output_edge = Edge::Rising;
    let start = Instant::now();
    for (slot, model) in ModelKind::ALL.into_iter().enumerate() {
        let model_start = Instant::now();
        let options = AnalyzerOptions {
            trace: Some(Arc::clone(sink)),
            ..AnalyzerOptions::default()
        };
        let arrival =
            analyze_with_options(net, tech, model, scenario, options)?.delay_to(net, *output)?;
        if model == ModelKind::Slope {
            split.slope_ms = ms_since(model_start);
        }
        delays[slot] = arrival.time;
        output_edge = arrival.edge;
    }
    split.analysis_ms = ms_since(start);
    let [lumped, rctree, slope] = delays;
    let transition = scenario.input_transition.value();
    let horizon = (8.0 * slope.value()).max(10e-9).max(4.0 * transition) + 2.0 * transition;
    let volts = |level: bool| if level { models.vdd } else { 0.0 };
    let statics: HashMap<NodeId, f64> = scenario
        .statics
        .iter()
        .map(|(&n, &b)| (n, volts(b)))
        .collect();
    let mut final_levels = statics.clone();
    final_levels.insert(scenario.input, volts(scenario.edge == Edge::Rising));
    let start = Instant::now();
    let expected_final = operating_voltages(net, models, &final_levels)
        .ok()
        .map(|v| v[output.index()]);
    split.op_ms = ms_since(start);
    let sim_edge = |edge: Edge| match edge {
        Edge::Rising => SimEdge::Rising,
        Edge::Falling => SimEdge::Falling,
    };
    let spec = TransitionSpec {
        input: scenario.input,
        input_edge: sim_edge(scenario.edge),
        input_transition: scenario.input_transition,
        output: *output,
        output_edge: sim_edge(output_edge),
        statics,
        expected_final,
    };
    let start = Instant::now();
    let measured = measure_transition(
        net,
        models,
        &spec,
        Seconds(horizon),
        Seconds(horizon / 4000.0),
    );
    split.tran_ms = ms_since(start);
    Ok(Comparison {
        reference: measured?.delay,
        lumped,
        rctree,
        slope,
        rctree_bounds: None,
    })
}

/// Whether nanospice takes the dense path for this circuit.
fn dense(net: &Network) -> bool {
    let drives: HashMap<NodeId, Waveshape> = net
        .inputs()
        .into_iter()
        .map(|n| (n, Waveshape::Dc(0.0)))
        .collect();
    let unknowns = elaborate(net, &MosModelSet::default(), &drives)
        .circuit
        .unknown_count();
    unknowns <= DENSE_SPARSE_THRESHOLD
}

fn check(c: &Comparison) -> Result<f64, String> {
    let reference = c.reference.value();
    // `measure_transition` only returns once the output crossed its 50%
    // level after the input's; a positive delay is that crossing.
    if !(reference.is_finite() && reference > 0.0) {
        return Err(format!("reference delay {reference:e} s"));
    }
    for model in ModelKind::ALL {
        let p = c.prediction(model).value();
        if !(p.is_finite() && p > 0.0) {
            return Err(format!("{model} predicts {p:e} s"));
        }
    }
    let ratio = c.slope.value() / reference;
    if !(BAND.0..=BAND.1).contains(&ratio) {
        return Err(format!("slope/reference = {ratio:.3}, outside {BAND:?}"));
    }
    Ok(100.0 * (ratio - 1.0).abs())
}

pub fn run(config: &RunConfig) -> Report {
    let cases = cases(config.seed);
    let mut rng = Rng::new(config.seed ^ 0x0dd5);
    let mut report = Report::default();
    let mut log = RunLog::default();
    let mut setup_ms = Vec::new();
    let mut calibrate_ms = Vec::new();
    let mut parse_ms = Vec::new();
    let mut errors: HashMap<String, f64> = HashMap::new();
    let mut references: HashMap<String, f64> = HashMap::new();
    let mut layers = AnalyzerLayers::default();
    let mut splits: HashMap<String, Vec<Split>> = HashMap::new();
    let (mut dense_us, mut sparse_us) = (Vec::new(), Vec::new());

    let clock = Clock::start(config.seconds);
    let mut round = 0usize;
    while round < config.min_rounds() || clock.running() {
        let traced = config.traced_round(round);
        let start = Instant::now();
        let (tech, models) = bench::suite::calibrated();
        let calibrated_ms = ms_since(start);
        let parse_start = Instant::now();
        let loaded: Vec<Loaded> = cases.iter().map(Case::load).collect();
        if traced {
            parse_ms.push(ms_since(parse_start));
        }
        setup_ms.push(ms_since(start));
        calibrate_ms.push(calibrated_ms);

        let mut order: Vec<usize> = (0..cases.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let (case, loaded) = (&cases[i], &loaded[i]);
            let sink = Arc::new(TraceSink::new());
            let mut split = Split::default();
            let start = Instant::now();
            let outcome = if traced {
                traced_compare(loaded, &tech, &models, &sink, &mut split)
            } else {
                compare_scenario(
                    &loaded.net,
                    &tech,
                    &models,
                    &loaded.scenario,
                    loaded.output,
                    mos_timing::compare::SimGrid::auto(),
                )
            };
            let ms = ms_since(start);
            let outcome = outcome.map(|mut c| {
                if config.corrupt {
                    c.slope = c.slope * 2.0;
                }
                c
            });
            match outcome {
                Err(CompareError::Simulation(SimError::SingularMatrix { .. }))
                    if case.known_fault =>
                {
                    log.record(traced, ms, false);
                }
                Err(e) => {
                    report.fail(format!("{}: {e}", case.name));
                    log.record(traced, ms, false);
                }
                Ok(c) => {
                    log.record(traced, ms, true);
                    match check(&c) {
                        Ok(err) => {
                            errors.insert(case.name.clone(), err);
                        }
                        Err(e) => report.fail(format!("{}: {e}", case.name)),
                    }
                    // Every round computes the same comparison.
                    let reference = c.reference.value();
                    if *references.entry(case.name.clone()).or_insert(reference) != reference {
                        report.fail(format!("{}: reference changed between rounds", case.name));
                    }
                    if traced {
                        layers.add(&sink);
                        let us = split.tran_ms * 1e3 / AUTO_GRID_POINTS;
                        if case.dense {
                            dense_us.push(us);
                        } else {
                            sparse_us.push(us);
                        }
                        splits.entry(case.name.clone()).or_default().push(split);
                    }
                }
            }
        }
        round += 1;
    }

    let errs: Vec<f64> = errors.values().copied().collect();
    eprintln!(
        "spice-reference: {} cases, {} rounds, slope |error| p50 {:.2}% max {:.2}%",
        cases.len(),
        round,
        median(&errs),
        quantile(&errs, 1.0)
    );
    report.ops(&log, &setup_ms);
    report.info("slope_err_p50_pct", median(&errs), "%");
    report.info("slope_err_max_pct", quantile(&errs, 1.0), "%");
    if config.trace {
        let n = log.traced.latencies_ms.len() as u64;
        let per_op = |f: fn(&Split) -> f64| {
            let all: Vec<f64> = splits.values().flatten().map(f).collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        report.layer_rows(layers.rows(n));
        report.layer("mosnet.parse_ms", median(&parse_ms), "ms");
        report.layer("calibrate.ms", median(&calibrate_ms), "ms");
        report.layer("compare.analysis_ms", per_op(|s| s.analysis_ms), "ms");
        report.layer("nanospice.op_ms", per_op(|s| s.op_ms), "ms");
        report.layer("nanospice.tran_ms", per_op(|s| s.tran_ms), "ms");
        report.layer("nanospice.timepoints", AUTO_GRID_POINTS, "count");
        report.layer("nanospice.us_per_point.dense", median(&dense_us), "us");
        report.layer("nanospice.us_per_point.sparse", median(&sparse_us), "us");
        report.layer("slope_err_p50_pct", median(&errs), "%");
        report.layer("slope_err_max_pct", quantile(&errs, 1.0), "%");
        let mut names: Vec<&String> = splits.keys().collect();
        names.sort();
        eprintln!(
            "case                  analysis_ms  slope_ms     op_ms   tran_ms  E6 ratio  |err|%"
        );
        for name in names {
            let s = &splits[name];
            let avg = |f: fn(&Split) -> f64| s.iter().map(f).sum::<f64>() / s.len() as f64;
            eprintln!(
                "{name:<20} {:>11.3} {:>9.3} {:>9.3} {:>9.3} {:>9.1} {:>7.2}",
                avg(|s| s.analysis_ms),
                avg(|s| s.slope_ms),
                avg(|s| s.op_ms),
                avg(|s| s.tran_ms),
                (avg(|s| s.op_ms) + avg(|s| s.tran_ms)) / avg(|s| s.slope_ms),
                errors.get(name).copied().unwrap_or(f64::NAN),
            );
        }
        if layers.dropped_events > 0 {
            report.fail(format!("{} trace events dropped", layers.dropped_events));
        }
    }
    report
}
