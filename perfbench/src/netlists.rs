//! Seeded `.sim` text for every workload.
//!
//! Circuits come from the `mosnet` generators (plus a pass-transistor
//! mesh written here), are written out as `.sim` text, and have every
//! explicit capacitance scaled by one seeded factor per circuit. The
//! program under test only ever sees that text. One factor per circuit,
//! rather than one per line, keeps repeated cells identical, so the
//! stage cache sees the repetition the real circuit has.

use crate::stats::Rng;
use crystal::analyzer::Edge;
use mosnet::generators::{
    barrel_shifter, carry_chain, decoder, inverter_chain, memory_array, Style,
};
use mosnet::units::Farads;
use mosnet::{sim_format, Network};
use std::fmt::Write as _;

/// Range of the seeded capacitance scale factor.
const CAP_SPREAD: f64 = 0.05;

/// Writes `net` as `.sim` text with every `C` record scaled by `factor`.
pub fn scaled_sim(net: &Network, factor: f64) -> String {
    let mut out = String::new();
    for line in sim_format::write(net).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["C", node, femto] => {
                let femto: f64 = femto.parse().expect("writer prints numbers");
                let _ = writeln!(out, "C {node} {}", femto * factor);
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

pub fn cap_factor(rng: &mut Rng) -> f64 {
    rng.uniform(1.0 - CAP_SPREAD, 1.0 + CAP_SPREAD)
}

/// What a `chip-batch` scenario must switch, derived from the function
/// the generator builds rather than from the analyzer.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly these outputs switch, with these final edges.
    Outputs(Vec<(String, Edge)>),
    /// Every node of the chain switches, and arrivals grow along it.
    Chain(Vec<String>),
    /// Every listed node switches.
    All(Vec<String>),
}

#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub label: String,
    /// A program fault this scenario shows on every seed; its op is
    /// counted as failed while the fault stands.
    pub known_fault: Option<&'static str>,
    pub input: String,
    pub edge: Edge,
    pub statics: Vec<(String, bool)>,
    pub expect: Expect,
}

#[derive(Debug, Clone)]
pub struct ChipCircuit {
    pub name: &'static str,
    pub text: String,
    pub scenarios: Vec<ScenarioSpec>,
}

fn edge_of(rng: &mut Rng) -> Edge {
    if rng.coin() {
        Edge::Rising
    } else {
        Edge::Falling
    }
}

fn edge_name(edge: Edge) -> &'static str {
    match edge {
        Edge::Rising => "rise",
        Edge::Falling => "fall",
    }
}

/// decoder-9: every address input, both edges (the standard scenario set
/// `crystal-cli batch` runs), under one seeded address on the other bits.
/// Toggling bit `i` moves the selection between two word lines, so
/// exactly those two switch: the old one falls and the new one rises.
fn decoder_circuit(rng: &mut Rng, bits: usize) -> ChipCircuit {
    let net = decoder(Style::Cmos, bits, Farads::from_femto(100.0)).expect("valid decoder");
    let text = scaled_sim(&net, cap_factor(rng));
    let address = rng.below(1 << bits);
    let mut scenarios = Vec::new();
    for bit in 0..bits {
        let low = address & !(1 << bit);
        let statics: Vec<(String, bool)> = (0..bits)
            .filter(|&j| j != bit)
            .map(|j| (format!("a{j}"), low & (1 << j) != 0))
            .collect();
        for edge in [Edge::Rising, Edge::Falling] {
            let (before, after) = match edge {
                Edge::Rising => (low, low | 1 << bit),
                Edge::Falling => (low | 1 << bit, low),
            };
            scenarios.push(ScenarioSpec {
                label: format!("a{bit} {} @{low}", edge_name(edge)),
                known_fault: None,
                input: format!("a{bit}"),
                edge,
                statics: statics.clone(),
                expect: Expect::Outputs(vec![
                    (format!("w{before}"), Edge::Falling),
                    (format!("w{after}"), Edge::Rising),
                ]),
            });
        }
    }
    ChipCircuit {
        name: "decoder-9",
        text,
        scenarios,
    }
}

/// sram-64x64: distinct seeded row selects toggle, half of them each
/// way; the word-line driver of the row switches.
fn sram_circuit(rng: &mut Rng, n: usize, count: usize) -> ChipCircuit {
    let net = memory_array(Style::Cmos, n, n, Farads::from_femto(50.0)).expect("valid array");
    let text = scaled_sim(&net, cap_factor(rng));
    let mut rows: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rows);
    let scenarios = rows[..count]
        .iter()
        .enumerate()
        .map(|(i, &row)| {
            let edge = if i % 2 == 0 {
                Edge::Rising
            } else {
                Edge::Falling
            };
            ScenarioSpec {
                label: format!("row{row} {}", edge_name(edge)),
                known_fault: None,
                input: format!("row{row}"),
                edge,
                statics: Vec::new(),
                expect: Expect::All(vec![format!("wl{row}")]),
            }
        })
        .collect();
    ChipCircuit {
        name: "sram-64x64",
        text,
        scenarios,
    }
}

/// inverter-chain-2000: both edges; every stage switches in order.
fn chain_circuit(rng: &mut Rng, stages: usize) -> ChipCircuit {
    let net =
        inverter_chain(Style::Cmos, stages, 1.0, Farads::from_femto(100.0)).expect("valid chain");
    let text = scaled_sim(&net, cap_factor(rng));
    let mut nodes: Vec<String> = (1..stages).map(|i| format!("s{i}")).collect();
    nodes.push("out".to_string());
    let scenarios = [Edge::Rising, Edge::Falling]
        .into_iter()
        .map(|edge| ScenarioSpec {
            label: format!("in {}", edge_name(edge)),
            known_fault: None,
            input: "in".to_string(),
            edge,
            statics: Vec::new(),
            expect: Expect::Chain(nodes.clone()),
        })
        .collect();
    ChipCircuit {
        name: "inverter-chain-2000",
        text,
        scenarios,
    }
}

/// barrel-128: data bit `i` under the one-hot shift `s` reaches exactly
/// `q((i - s) mod m)`; the other data bits sit at seeded levels.
fn barrel_circuit(rng: &mut Rng, m: usize, count: usize) -> ChipCircuit {
    let net = barrel_shifter(Style::Cmos, m, Farads::from_femto(100.0)).expect("valid shifter");
    let text = scaled_sim(&net, cap_factor(rng));
    let scenarios = (0..count)
        .map(|_| {
            let bit = rng.below(m);
            let shift = rng.below(m);
            let edge = edge_of(rng);
            let mut statics: Vec<(String, bool)> =
                (0..m).map(|s| (format!("sh{s}"), s == shift)).collect();
            for j in (0..m).filter(|&j| j != bit) {
                statics.push((format!("d{j}"), rng.coin()));
            }
            // The bus buffer inverts, the pass transistor does not.
            let q = (bit + m - shift) % m;
            ScenarioSpec {
                label: format!("d{bit} {} sh{shift}", edge_name(edge)),
                known_fault: None,
                input: format!("d{bit}"),
                edge,
                statics,
                expect: Expect::Outputs(vec![(format!("q{q}"), edge.inverted())]),
            }
        })
        .collect();
    ChipCircuit {
        name: "barrel-128",
        text,
        scenarios,
    }
}

/// Worst-case arrivals on a rising carry line come from the always-on
/// level restorer at `cout` rather than from the driver at `c0`: they
/// reach ~1.8 µs and fall from `c0` towards `c51`.
const CARRY_RESTORER_FAULT: &str = "does not grow along the chain";

/// carry-64: every propagate high and every generate low, so the carry
/// ripples through the whole line. Its text does not depend on the
/// seed, because the falling-`cin` op fails on every seed
/// ([`CARRY_RESTORER_FAULT`]) and is kept, counted as failed.
fn carry_circuit(bits: usize) -> ChipCircuit {
    let net = carry_chain(Style::Cmos, bits, Farads::from_femto(50.0)).expect("valid carry chain");
    let text = scaled_sim(&net, 1.0);
    let mut statics = Vec::new();
    for i in 1..=bits {
        statics.push((format!("p{i}"), true));
        statics.push((format!("g{i}"), false));
    }
    let mut nodes: Vec<String> = (0..bits).map(|i| format!("c{i}")).collect();
    nodes.push("cout".to_string());
    let scenarios = [Edge::Rising, Edge::Falling]
        .into_iter()
        .map(|edge| ScenarioSpec {
            label: format!("cin {}", edge_name(edge)),
            known_fault: (edge == Edge::Falling).then_some(CARRY_RESTORER_FAULT),
            input: "cin".to_string(),
            edge,
            statics: statics.clone(),
            expect: Expect::Chain(nodes.clone()),
        })
        .collect();
    ChipCircuit {
        name: "carry-64",
        text,
        scenarios,
    }
}

/// An inverter driving a `side × side` grid of pass transistors that all
/// conduct (gate `ctl` high): a stage whose conducting region is the
/// whole mesh. Extraction cost grows steeply with `side`; 5×5 finishes.
fn pass_mesh_text(side: usize, factor: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| pass mesh {side}x{side}\nv vdd\ng gnd\ni in\ni ctl");
    let last = format!("m{}_{}", side - 1, side - 1);
    let _ = writeln!(out, "o {last}");
    let _ = writeln!(out, "n in m0_0 gnd 2 16\np in m0_0 vdd 2 32");
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                let _ = writeln!(out, "n ctl m{r}_{c} m{r}_{} 2 8", c + 1);
            }
            if r + 1 < side {
                let _ = writeln!(out, "n ctl m{r}_{c} m{}_{c} 2 8", r + 1);
            }
        }
    }
    for r in 0..side {
        for c in 0..side {
            let _ = writeln!(out, "C m{r}_{c} {}", 20.0 * factor);
        }
    }
    out
}

fn mesh_circuit(rng: &mut Rng, side: usize) -> ChipCircuit {
    let text = pass_mesh_text(side, cap_factor(rng));
    let nodes = (0..side)
        .flat_map(|r| (0..side).map(move |c| format!("m{r}_{c}")))
        .collect::<Vec<_>>();
    let scenarios = [Edge::Rising, Edge::Falling]
        .into_iter()
        .map(|edge| ScenarioSpec {
            label: format!("in {}", edge_name(edge)),
            known_fault: None,
            input: "in".to_string(),
            edge,
            statics: vec![("ctl".to_string(), true)],
            expect: Expect::All(nodes.clone()),
        })
        .collect();
    ChipCircuit {
        name: "pass-mesh-5x5",
        text,
        scenarios,
    }
}

/// SRAM row toggles and barrel-shifter ops per pass. Op costs fall in
/// tiers: a barrel op ~1 ms, decoder bits a4–a7 and the mesh 17–23 ms,
/// a8 33 ms, a3 and an SRAM row ~38 ms, a2 and the inverter chain 70–80
/// ms, a1 133 ms, a0 260 ms. A quantile that sits on the edge of a tier
/// flips between neighbouring tiers from run to run, so the mix is
/// chosen to put them mid-tier: of the 50 ops that complete per round,
/// the median falls in the middle of the 17–23 ms cluster and p90 in the
/// middle of the inverter-chain pair. SRAM ops are also the ones the
/// host's slow phases stretch most (their per-run mean spreads twice as
/// far as decoder-9's), so they are kept few.
const SRAM_OPS: usize = 8;
const BARREL_OPS: usize = 19;

/// The `chip-batch` corpus for one seed.
pub fn chip_corpus(seed: u64) -> Vec<ChipCircuit> {
    let mut rng = Rng::new(seed);
    vec![
        decoder_circuit(&mut rng, 9),
        sram_circuit(&mut rng, 64, SRAM_OPS),
        chain_circuit(&mut rng, 2000),
        barrel_circuit(&mut rng, 128, BARREL_OPS),
        carry_circuit(64),
        mesh_circuit(&mut rng, 5),
    ]
}
