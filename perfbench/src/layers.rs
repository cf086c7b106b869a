//! Per-layer figures read out of the program's own `obs::TraceSink`.

use crystal::obs::{EventKind, Phase, TraceSink};

/// Analyzer layers accumulated over traced ops.
#[derive(Debug, Default, Clone)]
pub struct AnalyzerLayers {
    pub logic_ns: u64,
    pub extract_ns: u64,
    pub models_ns: u64,
    /// Propagation rounds minus the model evaluation nested in them.
    pub propagate_ns: u64,
    pub stages: u64,
    pub stage_evals: u64,
    pub rounds: u64,
    pub dropped_events: u64,
}

impl AnalyzerLayers {
    pub fn add(&mut self, sink: &TraceSink) {
        let m = sink.metrics();
        let evaluation = m.phase_total_ns(Phase::Evaluation);
        self.logic_ns += m.phase_total_ns(Phase::Logic);
        self.extract_ns += m.phase_total_ns(Phase::Extraction);
        self.models_ns += evaluation;
        self.propagate_ns += m
            .phase_total_ns(Phase::Propagation)
            .saturating_sub(evaluation);
        let counters = sink.counters();
        let counter = |phase: Phase, name: &str| -> u64 {
            counters
                .get(&(phase, name.to_string()))
                .copied()
                .unwrap_or(0)
        };
        self.stages += counter(Phase::Extraction, "stages_extracted");
        self.stage_evals += counter(Phase::Evaluation, "stage_evals_charged");
        self.rounds += m
            .phases
            .iter()
            .find(|p| p.phase == Phase::Propagation)
            .map_or(0, |p| p.spans);
        self.dropped_events += sink.dropped();
    }

    /// Adds what `later` recorded beyond `earlier` (two snapshots of one
    /// sink), e.g. a session's edits without its opening analysis.
    pub fn add_difference(&mut self, later: &AnalyzerLayers, earlier: &AnalyzerLayers) {
        self.logic_ns += later.logic_ns - earlier.logic_ns;
        self.extract_ns += later.extract_ns - earlier.extract_ns;
        self.models_ns += later.models_ns - earlier.models_ns;
        self.propagate_ns += later.propagate_ns - earlier.propagate_ns;
        self.stages += later.stages - earlier.stages;
        self.stage_evals += later.stage_evals - earlier.stage_evals;
        self.rounds += later.rounds - earlier.rounds;
        self.dropped_events += later.dropped_events;
    }

    /// `(name, value, unit)` rows, normalised per op.
    pub fn rows(&self, ops: u64) -> Vec<(&'static str, f64, &'static str)> {
        let ops = ops.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / ops;
        vec![
            ("logic.ms", ms(self.logic_ns), "ms"),
            ("extract.ms", ms(self.extract_ns), "ms"),
            ("extract.stages", self.stages as f64 / ops, "count"),
            ("models.ms", ms(self.models_ns), "ms"),
            ("models.stage_evals", self.stage_evals as f64 / ops, "count"),
            ("analyzer.propagate_ms", ms(self.propagate_ns), "ms"),
            ("analyzer.rounds", self.rounds as f64 / ops, "count"),
        ]
    }
}

/// Self time of every `phase`/`label` span: its duration minus the union
/// of the other spans that lie inside its interval (its children, since
/// the traced code runs on one thread).
pub fn self_time_ns(sink: &TraceSink, phase: Phase, label: &str) -> u64 {
    let events = sink.events();
    let spans: Vec<(u64, u64, Phase, &str)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| (e.t_ns, e.t_ns + e.dur_ns, e.phase, e.label.as_str()))
        .collect();
    let mut total = 0u64;
    for &(start, end, p, l) in &spans {
        if p != phase || l != label {
            continue;
        }
        let mut inside: Vec<(u64, u64)> = spans
            .iter()
            .filter(|&&(s, e, cp, cl)| {
                s >= start && e <= end && !(cp == phase && cl == label && s == start && e == end)
            })
            .map(|&(s, e, _, _)| (s, e))
            .collect();
        inside.sort_unstable();
        let mut covered = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (s, e) in inside {
            match current {
                Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    current = Some((s, e));
                }
                None => current = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = current {
            covered += ce - cs;
        }
        total += (end - start).saturating_sub(covered);
    }
    total
}
