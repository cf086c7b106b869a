//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload chip-batch|edit-session|spice-reference
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR] [--corrupt]
//! ```
//!
//! A run repeats whole rounds of its workload until `--seconds` have
//! passed, checks every output, and prints as its last stdout line one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run alternates untraced and traced rounds; per-layer figures come
//! from the traced ones, and the rate difference is the tracing
//! overhead. `--corrupt` damages one output per op so the checks must
//! fail: the negative self-test.

mod chip;
mod edit;
mod layers;
mod netlists;
mod spice;
mod stats;

use stats::{median, quantile, RunLog};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "ops_per_s",
    "op_p50_ms",
    "op_p90_ms",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run. A layer that a
/// workload does not run reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("mosnet.parse_ms", "ms"),
    ("mosnet.diff_ms", "ms"),
    ("logic.ms", "ms"),
    ("extract.ms", "ms"),
    ("extract.stages", "count"),
    ("models.ms", "ms"),
    ("models.stage_evals", "count"),
    ("analyzer.propagate_ms", "ms"),
    ("analyzer.rounds", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_rate", "ratio"),
    ("incremental.self_ms", "ms"),
    ("incremental.invalidated_targets", "count"),
    ("incremental.reused_targets", "count"),
    ("incremental.invalidated_stages", "count"),
    ("incremental.reused_stages", "count"),
    ("incremental.reuse_ratio", "ratio"),
    ("session.journal_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("calibrate.ms", "ms"),
    ("nanospice.op_ms", "ms"),
    ("nanospice.tran_ms", "ms"),
    ("nanospice.timepoints", "count"),
    ("nanospice.us_per_point.dense", "us"),
    ("nanospice.us_per_point.sparse", "us"),
    ("compare.analysis_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("read_p50_ms", "ms"),
    ("slope_err_p50_pct", "%"),
    ("slope_err_max_pct", "%"),
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// A traced run needs at least one round of each kind.
    pub fn min_rounds(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }

    /// Traced runs alternate: odd rounds carry the trace sink.
    pub fn traced_round(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

/// Wall clock of the measured phase.
pub struct Clock {
    start: Instant,
    length: Duration,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.length
    }
}

type Row = (String, f64, String);

/// What one run measured and whether its outputs held.
#[derive(Debug, Default)]
pub struct Report {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Row>,
    per_layer: Vec<Row>,
    /// Workload-specific end-to-end figures (not every workload has a
    /// `report` read or a simulation reference), printed on their own line.
    info: Vec<Row>,
}

impl Report {
    pub fn fail(&mut self, message: String) {
        if self.errors.len() < 20 {
            eprintln!("CHECK FAILED: {message}");
        }
        self.errors.push(message);
    }

    /// Records the op counts and the timing metrics every workload has.
    pub fn ops(&mut self, log: &RunLog, setup_ms: &[f64]) {
        let ops = &log.all;
        self.attempted = ops.attempted;
        self.failed = ops.failed;
        if ops.latencies_ms.len() < 100 {
            eprintln!(
                "warning: only {} ops completed; op_p90_ms has fewer than 10 samples beyond it",
                ops.latencies_ms.len()
            );
        }
        let row = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
        self.end_to_end = vec![
            row("setup_s", median(setup_ms) / 1e3, "s"),
            row("ops_per_s", ops.ops_per_s(), "1/s"),
            row("op_p50_ms", quantile(&ops.latencies_ms, 0.5), "ms"),
            row("op_p90_ms", quantile(&ops.latencies_ms, 0.9), "ms"),
            row("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ];
        eprintln!(
            "{} ops attempted, {} failed, {} setup samples",
            ops.attempted,
            ops.failed,
            setup_ms.len()
        );
        if log.traced.attempted > 0 {
            // Tracing overhead: how much faster the untraced rounds ran.
            let pct = 100.0 * (log.untraced.ops_per_s() / log.traced.ops_per_s() - 1.0);
            self.layer("trace.overhead_pct", pct, "%");
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.per_layer
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn layer_rows(&mut self, rows: Vec<(&'static str, f64, &'static str)>) {
        for (name, value, unit) in rows {
            self.layer(name, value, unit);
        }
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_string(), value, unit.to_string()));
    }
}

fn json_metrics(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn parse_args() -> Result<RunConfig, String> {
    let mut config = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => config.workload = value()?,
            "--seed" => config.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(config.seconds > 0.0 && config.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--work-dir" => config.work_dir = PathBuf::from(value()?),
            "--corrupt" => config.corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match config.workload.as_str() {
        "chip-batch" => chip::run(&config),
        "edit-session" => edit::run(&config),
        "spice-reference" => spice::run(&config),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "hardware_threads: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if report.attempted == 0 {
        report.fail("no op was attempted".to_string());
    }
    let metrics = if config.trace {
        // Every per-layer name, in one order; layers this workload does
        // not run read 0.
        let rows: Vec<Row> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .per_layer
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |(_, v, _)| *v);
                (name.to_string(), value, unit.to_string())
            })
            .collect();
        for (name, value, unit) in &rows {
            eprintln!("  {name:<34} {value:>14.6} {unit}");
        }
        rows
    } else {
        assert_eq!(
            report
                .end_to_end
                .iter()
                .map(|r| r.0.as_str())
                .collect::<Vec<_>>(),
            END_TO_END,
            "every workload reports every end-to-end metric"
        );
        if !report.info.is_empty() {
            println!("{{\"info\": {}}}", json_metrics(&report.info));
        }
        report.end_to_end.clone()
    };
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} output checks failed", report.errors.len());
        ExitCode::from(1)
    }
}
