//! `edit-session`: interactive incremental timing over the daemon's
//! real wire. Each round starts `crystal::server::serve` on loopback
//! with a journal directory, opens one session on decoder-7 over one
//! closed-loop client connection, and replays the seed's edit stream,
//! with a `report` read after every few edits.

use crate::layers::{self_time_ns, AnalyzerLayers};
use crate::netlists::{cap_factor, scaled_sim};
use crate::stats::{median, ms_since, Rng, RunLog};
use crate::{Clock, Report, RunConfig};
use crystal::analyzer::analyze;
use crystal::durable::JournalFaultPlan;
use crystal::fingerprint::{escape_json, hex64, parse_json_object, result_digest};
use crystal::memo::StageCache;
use crystal::models::ModelKind;
use crystal::obs::{Phase, TraceSink};
use crystal::selfcheck::standard_scenarios;
use crystal::server::{serve, ServerHandle, ServerOptions};
use crystal::session::{Session, SessionConfig};
use crystal::tech::Technology;
use crystal::AnalyzerOptions;
use mosnet::generators::{decoder, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::{diff, sim_format};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const DECODER_BITS: usize = 7;
const EDITS_PER_ROUND: usize = 40;
/// A `report` read follows every this many edits.
const READ_EVERY: usize = 4;
const NETLIST_NAME: &str = "decoder7.sim";

/// One transistor record of the harness's own copy of the netlist.
#[derive(Debug, Clone)]
struct Fet {
    kind: char,
    gate: String,
    source: String,
    drain: String,
    length: String,
    width: String,
}

impl Fet {
    fn matches(&self, gate: &str, a: &str, b: &str) -> bool {
        self.gate == gate
            && ((self.source == a && self.drain == b) || (self.source == b && self.drain == a))
    }
}

/// The harness's own netlist model: it applies each edit to the `.sim`
/// records itself, so the final text is computed apart from `mosnet`'s
/// diff and the session's incremental state.
#[derive(Debug, Clone)]
struct SimText {
    header: Vec<String>,
    fets: Vec<Fet>,
    caps: Vec<(String, String)>,
}

impl SimText {
    fn parse(text: &str) -> SimText {
        let mut sim = SimText {
            header: Vec::new(),
            fets: Vec::new(),
            caps: Vec::new(),
        };
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [kind @ ("n" | "p" | "d"), g, s, d, l, w] => sim.fets.push(Fet {
                    kind: kind.chars().next().expect("one letter"),
                    gate: g.to_string(),
                    source: s.to_string(),
                    drain: d.to_string(),
                    length: l.to_string(),
                    width: w.to_string(),
                }),
                ["C", node, ff] => sim.caps.push((node.to_string(), ff.to_string())),
                _ => sim.header.push(line.to_string()),
            }
        }
        sim
    }

    fn write(&self) -> String {
        let mut out = self.header.join("\n");
        out.push('\n');
        for f in &self.fets {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                f.kind, f.gate, f.source, f.drain, f.length, f.width
            ));
        }
        for (node, ff) in &self.caps {
            out.push_str(&format!("C {node} {ff}\n"));
        }
        out
    }

    /// Applies one edit-grammar line.
    fn apply(&mut self, line: &str) {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["resize", g, s, d, w, l] => {
                for fet in self.fets.iter_mut().filter(|x| x.matches(g, s, d)) {
                    fet.width = w.to_string();
                    fet.length = l.to_string();
                }
            }
            ["cap", node, ff] => match self.caps.iter_mut().find(|(n, _)| n == node) {
                Some(cap) => cap.1 = ff.to_string(),
                None => self.caps.push((node.to_string(), ff.to_string())),
            },
            ["add", kind, g, s, d, w, l] => self.fets.push(Fet {
                kind: kind.chars().next().expect("one letter"),
                gate: g.to_string(),
                source: s.to_string(),
                drain: d.to_string(),
                length: l.to_string(),
                width: w.to_string(),
            }),
            ["remove", g, s, d] => self.fets.retain(|x| !x.matches(g, s, d)),
            _ => panic!("harness wrote an edit it cannot apply: `{line}`"),
        }
    }
}

/// Edit targets of the decoder netlist by class, so every block edits
/// the same mix of heavy and light targets whatever the seed.
struct Targets {
    /// Device indices: address inverters, and the NAND pull-downs, NAND
    /// pull-ups and word-line drivers of rows no scenario switches.
    devices: [Vec<usize>; 4],
    /// Complemented address lines (`na<i>`), which every scenario uses.
    address_lines: Vec<String>,
    /// Word lines and NAND outputs that some session scenario switches
    /// (`w0`, `w<2^i>`: the sessions hold every other address bit low).
    switching_lines: Vec<String>,
    /// Word lines and NAND outputs no scenario switches.
    quiet_lines: Vec<String>,
}

impl Targets {
    fn of(sim: &SimText) -> Targets {
        // Rows `w<k>` some scenario switches: the sessions hold every
        // other address bit low, so toggling `a<i>` selects `w<2^i>`.
        let switching_rows: Vec<usize> = std::iter::once(0)
            .chain((0..DECODER_BITS).map(|i| 1 << i))
            .collect();
        // The decoder row a NAND or driver device belongs to.
        let row = |fet: &Fet| {
            [&fet.gate, &fet.source, &fet.drain]
                .iter()
                .find_map(|name| {
                    let digits = name.strip_prefix("nw").or(name.strip_prefix("dst"))?;
                    digits.split('_').next()?.parse::<usize>().ok()
                })
        };
        let address = |name: &str| name.starts_with('a') || name.starts_with("na");
        let mut devices: [Vec<usize>; 4] = Default::default();
        for (i, fet) in sim.fets.iter().enumerate() {
            let class = if fet.gate.starts_with("nw") {
                3
            } else if !address(&fet.gate) {
                continue;
            } else if fet.source.starts_with("na") || fet.drain.starts_with("na") {
                0
            } else if fet.kind == 'n' {
                1
            } else {
                2
            };
            // A resize in a switching row re-times a scenario's critical
            // stage; drawing those 8 rows out of 128 by chance would make
            // some seeds' streams much dearer than others.
            if class == 0 || row(fet).is_some_and(|k| !switching_rows.contains(&k)) {
                devices[class].push(i);
            }
        }
        let switching: Vec<String> = switching_rows
            .iter()
            .flat_map(|k| [format!("w{k}"), format!("nw{k}")])
            .collect();
        let (mut address_lines, mut switching_lines, mut quiet_lines) =
            (Vec::new(), Vec::new(), Vec::new());
        for (node, _) in &sim.caps {
            if node.starts_with("na") {
                address_lines.push(node.clone());
            } else if switching.contains(node) {
                switching_lines.push(node.clone());
            } else {
                quiet_lines.push(node.clone());
            }
        }
        Targets {
            devices,
            address_lines,
            switching_lines,
            quiet_lines,
        }
    }
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len())]
}

/// The seed's edit stream, in blocks of fixed make-up: one resize in
/// each device class of [`Targets`], capacitance changes on an address line, a
/// switching line and two quiet lines, and one add/remove pair of an
/// always-off device (gate on a rail) that loads a switching line with
/// diffusion and then goes away again. Order within a block and every
/// target are seeded.
fn edit_stream(rng: &mut Rng, base: &SimText) -> Vec<String> {
    let targets = Targets::of(base);
    let mut sim = base.clone();
    let mut edits = Vec::with_capacity(EDITS_PER_ROUND);
    while edits.len() < EDITS_PER_ROUND {
        let mut block: Vec<usize> = (0..9).collect();
        rng.shuffle(&mut block);
        let mut remove = String::new();
        for step in block {
            let edit = match step {
                0..=3 => {
                    let fet = &sim.fets[*pick(rng, &targets.devices[step])];
                    let width: f64 = fet.width.parse().expect("widths are numbers");
                    format!(
                        "resize {} {} {} {:.2} {}",
                        fet.gate,
                        fet.source,
                        fet.drain,
                        width * rng.uniform(0.8, 1.25),
                        fet.length
                    )
                }
                4..=7 => {
                    let node = match step {
                        4 => pick(rng, &targets.address_lines),
                        5 => pick(rng, &targets.switching_lines),
                        _ => pick(rng, &targets.quiet_lines),
                    };
                    let ff = sim
                        .caps
                        .iter()
                        .find(|(n, _)| n == node)
                        .map(|(_, ff)| ff.parse::<f64>().expect("capacitances are numbers"))
                        .expect("target nodes carry capacitance");
                    format!("cap {node} {:.2}", ff * rng.uniform(0.7, 1.4))
                }
                _ => {
                    let node = pick(rng, &targets.switching_lines);
                    let (kind, gate) = if rng.coin() {
                        ("n", "gnd")
                    } else {
                        ("p", "vdd")
                    };
                    remove = format!("remove {gate} {node} {gate}");
                    format!(
                        "add {kind} {gate} {node} {gate} {:.2} 2",
                        rng.uniform(2.0, 8.0)
                    )
                }
            };
            sim.apply(&edit);
            edits.push(edit);
        }
        sim.apply(&remove);
        edits.push(remove);
    }
    edits
}

/// One closed-loop client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("loopback connect");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Client { writer, reader }
    }

    /// Sends one request line and waits for its response.
    fn call(&mut self, fields: &[(&str, &str)]) -> HashMap<String, String> {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape_json(v)))
            .collect();
        let line = format!("{{{}}}\n", body.join(","));
        self.writer
            .write_all(line.as_bytes())
            .expect("request written");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response read");
        parse_json_object(response.trim_end()).expect("response is a flat JSON object")
    }
}

/// A daemon and the one client connection a run keeps open to it.
struct Daemon {
    handle: ServerHandle,
    client: Client,
    journals: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, trace: Option<Arc<TraceSink>>) -> Daemon {
        let journals = dir.join("journals");
        let handle = serve(ServerOptions {
            journal_dir: Some(journals.clone()),
            // `crystal-cli serve` shares one stage cache by default.
            cache: Some(Arc::new(StageCache::new())),
            trace,
            ..ServerOptions::default()
        })
        .expect("daemon starts on loopback");
        let client = Client::connect(handle.addr());
        Daemon {
            handle,
            client,
            journals,
        }
    }

    fn stop(self) {
        drop(self.client);
        self.handle.stop();
        self.handle.join();
    }
}

fn status_ok(response: &HashMap<String, String>) -> Result<(), String> {
    match response.get("status").map(String::as_str) {
        Some("ok") => Ok(()),
        other => Err(format!(
            "status {other:?}: {}",
            response.get("error").map_or("", String::as_str)
        )),
    }
}

/// Per-scenario digests of a fresh, non-incremental analysis of `text`.
fn fresh_digests(text: &str, tech: &Technology) -> Vec<(String, String)> {
    let net = sim_format::parse(text, NETLIST_NAME).expect("harness text parses");
    standard_scenarios(&net, &HashMap::new(), Seconds::ZERO)
        .into_iter()
        .map(|(label, scenario)| {
            let result = analyze(&net, tech, ModelKind::Slope, &scenario)
                .unwrap_or_else(|e| panic!("fresh analysis of `{label}` failed: {e}"));
            (label, hex64(result_digest(&net, &result)))
        })
        .collect()
}

fn reported_digests(report: &HashMap<String, String>) -> Vec<(String, String)> {
    let count: usize = report
        .get("scenarios")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    (0..count)
        .map(|i| {
            let field = |k: &str| {
                report
                    .get(&format!("scenario.{i}.{k}"))
                    .cloned()
                    .unwrap_or_default()
            };
            (field("label"), field("digest"))
        })
        .collect()
}

/// The in-process replicas a traced round runs beside the daemon: the
/// same edits through `Session::apply_script` without and with a
/// journal, and `mosnet::diff` timed from outside.
struct Replicas {
    plain: Session,
    journaled: Session,
    sink: Arc<TraceSink>,
    cache: Arc<StageCache>,
    at_open: AnalyzerLayers,
    cache_at_open: (u64, u64),
}

#[derive(Default)]
struct EditLayers {
    analyzer: AnalyzerLayers,
    hits: u64,
    misses: u64,
    incremental_self_ns: u64,
    targets: (u64, u64),
    stages: (u64, u64),
    plain_ms: Vec<f64>,
    journal_ms: Vec<f64>,
    server_ms: Vec<f64>,
    diff_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    edits: u64,
}

impl Replicas {
    fn open(text: &str, tech: &Technology, journal: &Path) -> Replicas {
        let sink = Arc::new(TraceSink::new());
        let cache = Arc::new(StageCache::new());
        let open = |id: &str, trace: Option<Arc<TraceSink>>, cache, journal: Option<PathBuf>| {
            let options = AnalyzerOptions {
                cache: Some(cache),
                trace,
                ..AnalyzerOptions::default()
            };
            Session::open(
                id,
                text,
                NETLIST_NAME,
                tech,
                &SessionConfig::default(),
                options,
                journal.as_deref(),
                &JournalFaultPlan::none(),
            )
            .expect("in-process session opens")
        };
        let plain = open("plain", Some(Arc::clone(&sink)), Arc::clone(&cache), None);
        // Traced too, so the difference between the two is the journal.
        let journaled = open(
            "journaled",
            Some(Arc::new(TraceSink::new())),
            Arc::new(StageCache::new()),
            Some(journal.to_path_buf()),
        );
        let mut at_open = AnalyzerLayers::default();
        at_open.add(&sink);
        let stats = cache.stats();
        Replicas {
            plain,
            journaled,
            sink,
            cache,
            at_open,
            cache_at_open: (stats.hits, stats.misses),
        }
    }

    fn edit(&mut self, script: &str, round_trip_ms: f64, layers: &mut EditLayers) {
        let before = self.plain.analyzer().network().clone();
        let timed = |session: &mut Session| {
            let start = Instant::now();
            let delta = session
                .apply_script(script, None)
                .expect("in-process edit applies");
            (delta, ms_since(start))
        };
        // Whichever replica runs second finds the caches warm, so the
        // order alternates from edit to edit.
        let ((delta, plain_ms), (_, journaled_ms)) = if layers.edits.is_multiple_of(2) {
            let plain = timed(&mut self.plain);
            (plain, timed(&mut self.journaled))
        } else {
            let journaled = timed(&mut self.journaled);
            (timed(&mut self.plain), journaled)
        };
        let start = Instant::now();
        std::hint::black_box(diff::diff(&before, self.plain.analyzer().network()));
        layers.diff_ms.push(ms_since(start));
        layers.plain_ms.push(plain_ms);
        layers.journal_ms.push(journaled_ms - plain_ms);
        layers.server_ms.push(round_trip_ms - journaled_ms);
        for s in &delta.scenarios {
            layers.targets.0 += s.stats.invalidated_targets as u64;
            layers.targets.1 += s.stats.reused_targets as u64;
            layers.stages.0 += s.stats.invalidated_stages as u64;
            layers.stages.1 += s.stats.reused_stages as u64;
        }
        layers.edits += 1;
    }

    fn finish(self, layers: &mut EditLayers) {
        let mut round = AnalyzerLayers::default();
        round.add(&self.sink);
        layers.analyzer.add_difference(&round, &self.at_open);
        layers.incremental_self_ns += self_time_ns(&self.sink, Phase::Incremental, "apply_edit");
        let stats = self.cache.stats();
        layers.hits += stats.hits - self.cache_at_open.0;
        layers.misses += stats.misses - self.cache_at_open.1;
    }
}

pub fn run(config: &RunConfig) -> Report {
    let mut rng = Rng::new(config.seed ^ 0xed17);
    let net = decoder(Style::Cmos, DECODER_BITS, Farads::from_femto(100.0)).expect("valid decoder");
    let base_text = scaled_sim(&net, cap_factor(&mut rng));
    let base = SimText::parse(&base_text);
    let edits = edit_stream(&mut rng, &base);
    let mut final_sim = base.clone();
    for e in &edits {
        final_sim.apply(e);
    }
    if config.corrupt {
        // The negative self-test: one more edit, on a word line every
        // session scenario switches, that the session never saw.
        final_sim.apply("cap w0 500");
    }
    let final_text = final_sim.write();
    let tech = Technology::nominal();
    let expected = fresh_digests(&final_text, &tech);

    let mut report = Report::default();
    let mut log = RunLog::default();
    let mut reads_ms = Vec::new();
    let mut setup_ms = Vec::new();
    let mut layers = EditLayers::default();
    let dir = config.work_dir.join(format!("edit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("work directory is writable");
    // One daemon and one connection serve every round of a run: a new
    // daemon per round would start new threads, and their allocator
    // arenas make the peak resident set wander by ±2 MiB from run to run.
    // A traced run keeps a second, traced daemon for its traced rounds.
    let mut daemons: [Option<Daemon>; 2] = [None, None];

    let clock = Clock::start(config.seconds);
    let mut round = 0usize;
    while round < config.min_rounds() || clock.running() {
        let traced = config.traced_round(round);
        let session = format!("bench{round}");

        let start = Instant::now();
        let daemon = daemons[usize::from(traced)].get_or_insert_with(|| {
            let sink = traced.then(|| Arc::new(TraceSink::new()));
            Daemon::start(&dir.join(format!("daemon{}", usize::from(traced))), sink)
        });
        let opened = daemon.client.call(&[
            ("op", "open"),
            ("session", &session),
            ("name", NETLIST_NAME),
            ("netlist", &base_text),
        ]);
        setup_ms.push(ms_since(start));
        if let Err(e) = status_ok(&opened) {
            report.fail(format!("open: {e}"));
            break;
        }
        let replica_journal = dir.join(format!("replica{round}.session"));
        let mut replicas = traced.then(|| {
            let start = Instant::now();
            std::hint::black_box(sim_format::parse(&base_text, NETLIST_NAME).expect("parses"));
            layers.parse_ms.push(ms_since(start));
            Replicas::open(&base_text, &tech, &replica_journal)
        });

        let mut digest = String::new();
        for (i, script) in edits.iter().enumerate() {
            let start = Instant::now();
            let response =
                daemon
                    .client
                    .call(&[("op", "edit"), ("session", &session), ("script", script)]);
            let ms = ms_since(start);
            let acknowledged = status_ok(&response);
            log.record(traced, ms, acknowledged.is_ok());
            match acknowledged {
                Ok(()) => digest = response.get("digest").cloned().unwrap_or_default(),
                Err(e) => report.fail(format!("edit `{script}`: {e}")),
            }
            if let Some(r) = replicas.as_mut() {
                r.edit(script, ms, &mut layers);
            }
            if (i + 1) % READ_EVERY == 0 {
                let start = Instant::now();
                let read = daemon
                    .client
                    .call(&[("op", "report"), ("session", &session)]);
                let ms = ms_since(start);
                if let Err(e) = status_ok(&read) {
                    report.fail(format!("report: {e}"));
                } else if !traced {
                    reads_ms.push(ms);
                }
            }
        }

        let last = daemon
            .client
            .call(&[("op", "report"), ("session", &session)]);
        if reported_digests(&last) != expected {
            report.fail(format!(
                "round {round}: session digests differ from a fresh analysis of the edited text"
            ));
        }
        if last.get("digest") != Some(&digest) {
            report.fail("final report digest differs from the last edit's".to_string());
        }
        if round + 1 >= config.min_rounds() && !clock.running() {
            // Recovery reproduces the last round's state from its
            // journal alone.
            let path = daemon.journals.join(format!("{session}.session"));
            let options = AnalyzerOptions::default();
            match Session::resume(&path, &tech, options, &JournalFaultPlan::none()) {
                Ok(resumed) if hex64(resumed.digest()) == digest => {}
                Ok(_) => report.fail("resumed journal reproduces a different digest".to_string()),
                Err(e) => report.fail(format!("journal does not resume: {e}")),
            }
        }
        if let Err(e) = status_ok(
            &daemon
                .client
                .call(&[("op", "close"), ("session", &session)]),
        ) {
            report.fail(format!("close: {e}"));
        }
        if let Some(r) = replicas {
            r.finish(&mut layers);
            let _ = std::fs::remove_file(&replica_journal);
        }
        round += 1;
    }
    for daemon in daemons.into_iter().flatten() {
        daemon.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!(
        "edit-session: {} edits, {} reads, mean edit {:.2} ms",
        log.all.attempted,
        reads_ms.len(),
        log.all.busy_ms / log.all.attempted.max(1) as f64
    );
    report.ops(&log, &setup_ms);
    if !reads_ms.is_empty() {
        report.info("read_p50_ms", median(&reads_ms), "ms");
    }
    if config.trace {
        let n = layers.edits.max(1) as f64;
        report.layer_rows(layers.analyzer.rows(layers.edits));
        report.layer("mosnet.parse_ms", median(&layers.parse_ms), "ms");
        report.layer("mosnet.diff_ms", median(&layers.diff_ms), "ms");
        report.layer("memo.hits", layers.hits as f64 / n, "count");
        report.layer("memo.misses", layers.misses as f64 / n, "count");
        report.layer(
            "memo.hit_rate",
            layers.hits as f64 / (layers.hits + layers.misses).max(1) as f64,
            "ratio",
        );
        report.layer(
            "incremental.self_ms",
            layers.incremental_self_ns as f64 / 1e6 / n,
            "ms",
        );
        report.layer(
            "incremental.invalidated_targets",
            layers.targets.0 as f64 / n,
            "count",
        );
        report.layer(
            "incremental.reused_targets",
            layers.targets.1 as f64 / n,
            "count",
        );
        report.layer(
            "incremental.invalidated_stages",
            layers.stages.0 as f64 / n,
            "count",
        );
        report.layer(
            "incremental.reused_stages",
            layers.stages.1 as f64 / n,
            "count",
        );
        let (inv, reu) = (layers.stages.0 as f64, layers.stages.1 as f64);
        report.layer(
            "incremental.reuse_ratio",
            reu / (inv + reu).max(1.0),
            "ratio",
        );
        report.layer("session.journal_ms", median(&layers.journal_ms), "ms");
        report.layer("server.overhead_ms", median(&layers.server_ms), "ms");
        report.layer("read_p50_ms", median(&reads_ms), "ms");
        eprintln!(
            "edit-session: in-process apply_script p50 {:.3} ms, round trip p50 {:.3} ms",
            median(&layers.plain_ms),
            median(&log.traced.latencies_ms)
        );
        if layers.analyzer.dropped_events > 0 {
            report.fail(format!(
                "{} trace events dropped",
                layers.analyzer.dropped_events
            ));
        }
    }
    report
}
