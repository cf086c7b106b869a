//! `chip-batch`: full-chip static timing the way `crystal-cli batch`
//! runs it by default (slope model, one thread, a fresh shared
//! `StageCache` per invocation), over generated 4k–25k-device netlists.

use crate::layers::AnalyzerLayers;
use crate::netlists::{chip_corpus, Expect, ScenarioSpec};
use crate::stats::{median, ms_since, Rng, RunLog};
use crate::{Clock, Report, RunConfig};
use crystal::analyzer::{AnalyzerOptions, Arrival, Scenario, TimingResult};
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::TraceSink;
use crystal::tech::Technology;
use crystal::{run_batch, tech_format};
use mosnet::{sim_format, Network, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn scenario(net: &Network, spec: &ScenarioSpec) -> Scenario {
    let node = |name: &str| {
        net.node_by_name(name)
            .unwrap_or_else(|| panic!("generated node `{name}` exists"))
    };
    spec.statics.iter().fold(
        Scenario::step(node(&spec.input), spec.edge),
        |scenario, (name, level)| scenario.with_static(node(name), *level),
    )
}

/// The arrivals a check reads. The negative self-test halves the latest
/// one, which puts it before its own cause.
fn arrivals(result: &TimingResult, corrupt: bool) -> HashMap<NodeId, Arrival> {
    let mut map: HashMap<NodeId, Arrival> = result.arrivals().map(|(n, a)| (n, *a)).collect();
    if corrupt {
        if let Some((node, _)) = result.max_arrival() {
            let a = map.get_mut(&node).expect("latest arrival is in the map");
            a.time = a.time * 0.5;
        }
    }
    map
}

/// Checks one scenario's arrivals against the generator's function and
/// against properties every static timing result must have.
fn check(
    net: &Network,
    spec: &ScenarioSpec,
    result: &HashMap<NodeId, Arrival>,
) -> Result<(), String> {
    for (&node, arrival) in result {
        if arrival.cause.is_none() && net.node(node).name() == spec.input {
            continue; // the switching input, at time zero
        }
        let name = net.node(node).name();
        let t = arrival.time.value();
        if !(t.is_finite() && t > 0.0) {
            return Err(format!("`{name}` arrives at {t:e} s"));
        }
        if let Some(cause) = arrival.cause {
            if let Some(before) = result.get(&cause) {
                if before.time.value() >= t {
                    return Err(format!(
                        "`{name}` ({t:e} s) is not later than its cause `{}` ({:e} s)",
                        net.node(cause).name(),
                        before.time.value()
                    ));
                }
            }
        }
    }
    let arrival_of = |name: &str| {
        net.node_by_name(name)
            .and_then(|id| result.get(&id))
            .ok_or_else(|| format!("`{name}` does not switch"))
    };
    match &spec.expect {
        Expect::Outputs(expected) => {
            let mut switched: Vec<String> = net
                .outputs()
                .into_iter()
                .filter(|id| result.contains_key(id))
                .map(|id| net.node(id).name().to_string())
                .collect();
            switched.sort();
            let mut want: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
            want.sort();
            if switched != want {
                return Err(format!("outputs {switched:?} switch, expected {want:?}"));
            }
            for (name, edge) in expected {
                if arrival_of(name)?.edge != *edge {
                    return Err(format!("`{name}` switches the wrong way"));
                }
            }
        }
        Expect::Chain(nodes) => {
            let mut last = 0.0;
            for name in nodes {
                let t = arrival_of(name)?.time.value();
                if t <= last {
                    return Err(format!(
                        "arrival at `{name}` ({t:e} s) does not grow along the chain ({last:e} s before it)"
                    ));
                }
                last = t;
            }
        }
        Expect::All(nodes) => {
            for name in nodes {
                arrival_of(name)?;
            }
        }
    }
    Ok(())
}

pub fn run(config: &RunConfig) -> Report {
    let corpus = chip_corpus(config.seed);
    let tech_text = tech_format::write(&Technology::nominal());
    let mut rng = Rng::new(config.seed ^ 0xc41b);
    let mut report = Report::default();
    let mut log = RunLog::default();
    let mut setup_ms = Vec::new();
    let mut parse_ms = Vec::new();
    let mut layers = AnalyzerLayers::default();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut per_circuit: Vec<(f64, u64)> = vec![(0.0, 0); corpus.len()];

    let clock = Clock::start(config.seconds);
    let mut round = 0usize;
    while round < config.min_rounds() || clock.running() {
        let traced = config.traced_round(round);
        // Set-up, what one batch invocation does before its first
        // analysis, is repeated every round, so its samples spread over
        // the whole run and its median sees the same host phases as the ops.
        let start = Instant::now();
        let tech = tech_format::parse(&tech_text).expect("technology text parses");
        let parse_start = Instant::now();
        let nets: Vec<Network> = corpus
            .iter()
            .map(|c| sim_format::parse(&c.text, c.name).expect("generated netlist parses"))
            .collect();
        parse_ms.push(ms_since(parse_start));
        setup_ms.push(ms_since(start));

        let mut order: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut order);
        for ci in order {
            let (circuit, net) = (&corpus[ci], &nets[ci]);
            let cache = Arc::new(StageCache::new());
            for spec in &circuit.scenarios {
                let sink = traced.then(|| Arc::new(TraceSink::new()));
                let options = AnalyzerOptions {
                    cache: Some(Arc::clone(&cache)),
                    trace: sink.clone(),
                    ..AnalyzerOptions::default()
                };
                let scenarios = [(spec.label.clone(), scenario(net, spec))];
                let start = Instant::now();
                let batch = run_batch(net, &tech, ModelKind::Slope, &scenarios, options, false);
                let ms = ms_since(start);
                let outcome = match &batch.results[0].1 {
                    Ok(result) => check(net, spec, &arrivals(result, config.corrupt)),
                    Err(failure) => Err(format!("analysis failed: {failure}")),
                };
                let completed = match outcome {
                    Err(e) if spec.known_fault.is_some_and(|f| e.contains(f)) => false,
                    Err(e) => {
                        report.fail(format!("{} `{}`: {e}", circuit.name, spec.label));
                        true
                    }
                    Ok(()) => true,
                };
                log.record(traced, ms, completed);
                per_circuit[ci].0 += ms;
                per_circuit[ci].1 += 1;
                if let Some(sink) = &sink {
                    layers.add(sink);
                }
            }
            if traced {
                let stats = cache.stats();
                hits += stats.hits;
                misses += stats.misses;
            }
        }
        round += 1;
    }

    for (c, (ms, n)) in corpus.iter().zip(&per_circuit) {
        eprintln!(
            "chip-batch: {:<20} {:>4} ops, mean {:>8.2} ms",
            c.name,
            n,
            ms / *n as f64
        );
    }
    report.ops(&log, &setup_ms);
    if config.trace {
        // Per attempted op: the failing op did its work too.
        let n = log.traced.attempted;
        report.layer_rows(layers.rows(n));
        report.layer("mosnet.parse_ms", median(&parse_ms), "ms");
        report.layer("memo.hits", hits as f64 / n as f64, "count");
        report.layer("memo.misses", misses as f64 / n as f64, "count");
        report.layer(
            "memo.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        if layers.dropped_events > 0 {
            report.fail(format!("{} trace events dropped", layers.dropped_events));
        }
    }
    report
}
