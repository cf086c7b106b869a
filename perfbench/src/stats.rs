//! Seeded randomness, order statistics, and the process figures every
//! workload reports.

use std::time::Instant;

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same netlists, scenarios and edit streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fc0_ffee)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolation quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Timed-op bookkeeping shared by the workloads: per-op latencies of the
/// ops that completed, and the host time every attempted op took.
#[derive(Debug, Default)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    pub busy_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    pub fn ok(&mut self, ms: f64) {
        self.latencies_ms.push(ms);
        self.busy_ms += ms;
        self.attempted += 1;
    }

    pub fn failed(&mut self, ms: f64) {
        self.busy_ms += ms;
        self.attempted += 1;
        self.failed += 1;
    }

    /// Completed ops per host second of op time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / (self.busy_ms / 1e3)
    }
}

/// The op logs of one run: every op, and the traced and untraced rounds
/// apart (their rates give the tracing overhead).
#[derive(Debug, Default)]
pub struct RunLog {
    pub all: OpLog,
    pub traced: OpLog,
    pub untraced: OpLog,
}

impl RunLog {
    pub fn record(&mut self, traced: bool, ms: f64, completed: bool) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        for log in [&mut self.all, side] {
            if completed {
                log.ok(ms);
            } else {
                log.failed(ms);
            }
        }
    }
}
