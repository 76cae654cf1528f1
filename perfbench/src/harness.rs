//! The closed loop every workload runs, and what one pass of it measured.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::probe::{around, residual, scale, Probe};
use crate::stats::quiet;

/// The probe runs after the first op that ends this long after its last run.
const PROBE_EVERY_S: f64 = 0.1;

/// A loop stops at the first cycle boundary after its time budget, or
/// unconditionally after this many budgets, so a much slower build still
/// ends well within the run's time limit.
const HARD_STOP_BUDGETS: f64 = 4.0;

/// What one closed-loop pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency of every op, in milliseconds, in issue order.
    pub lat_ms: Vec<f64>,
    /// Wall time of the whole loop, in seconds.
    pub wall_s: f64,
    /// Ops per cycle: op `i` repeats the work of op `i - cycle`.
    pub cycle: usize,
    /// Peak resident set (`VmHWM`) when the first cycle completed, in MB.
    pub peak_rss_mb: f64,
    /// `(ops completed, probe ms)` of every probe run.
    pub probe_ms: Vec<(usize, f64)>,
    /// Ops that errored or whose answer did not match its reference.
    pub failed: usize,
    /// Counts taken over the first cycle: they must repeat exactly for
    /// the same seed, traced or not.
    pub counters: BTreeMap<&'static str, f64>,
    /// Other per-layer figures of the pass, which may vary run to run.
    pub figures: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Ops completed.
    pub fn ops(&self) -> usize {
        self.lat_ms.len()
    }

    /// Every op latency scaled by the probe times around it (see
    /// [`crate::probe`]), in issue order.
    pub fn scaled_ms(&self) -> Vec<f64> {
        around(self.ops(), &self.probe_ms)
            .into_iter()
            .zip(&self.lat_ms)
            .map(|(probe, ms)| scale(*ms, probe))
            .collect()
    }

    /// The pass's [`residual`] factor.
    pub fn residual(&self) -> f64 {
        residual(&self.probe_ms.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }

    /// Quiet latency of each op of the cycle: the fastest of its scaled
    /// repetitions (see [`quiet`]) times the pass's residual factor; empty
    /// when no cycle completed.
    pub fn quiet_ms(&self) -> Vec<f64> {
        let residual = self.residual();
        quiet(&self.scaled_ms(), self.cycle)
            .into_iter()
            .map(|ms| ms * residual)
            .collect()
    }

    /// Ops per second of quiet latency: one cycle's ops over the sum of
    /// their quiet latencies (0 when no cycle completed).
    pub fn ops_per_s(&self) -> f64 {
        let quiet = self.quiet_ms();
        let total_ms: f64 = quiet.iter().sum();
        if total_ms > 0.0 {
            quiet.len() as f64 / (total_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// What [`closed_loop`] measured.
pub struct LoopTimes {
    /// Every op latency, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Wall time of the loop, in seconds.
    pub wall_s: f64,
    /// Peak resident set when the first cycle completed, in MB. Taken
    /// after a fixed number of ops, not at the end: the per-op samples the
    /// benchmark keeps grow with the op count, so an end-of-run peak would
    /// read higher for a faster build. Every cycle does the same work, so
    /// the program's own peak is reached within the first.
    pub peak_rss_mb: f64,
    /// `(ops completed, probe ms)` of every probe run.
    pub probe_ms: Vec<(usize, f64)>,
}

/// Issue ops `step(0), step(1), …` one after another — one client, no
/// think time — until `seconds` have passed and a cycle of `cycle` ops is
/// complete. `step` runs one op and returns its latency in milliseconds.
/// `between` runs before each cycle, outside the ops' timing: the set-ups
/// go there, so their samples spread over the whole run as the ops' do.
/// The probe runs before the first op and then every [`PROBE_EVERY_S`],
/// between ops.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    mut between: impl FnMut(),
    mut step: impl FnMut(usize) -> f64,
) -> LoopTimes {
    let probe = Probe::new();
    let mut probe_ms = vec![(0, probe.run())];
    let start = Instant::now();
    let mut last_probe = start;
    let mut lat_ms = Vec::new();
    let mut peak = None;
    loop {
        if lat_ms.len() % cycle == 0 {
            between();
        }
        lat_ms.push(step(lat_ms.len()));
        if lat_ms.len() == cycle {
            peak = Some(peak_rss_mb());
        }
        if last_probe.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            probe_ms.push((lat_ms.len(), probe.run()));
            last_probe = Instant::now();
        }
        let wall_s = start.elapsed().as_secs_f64();
        if (lat_ms.len() % cycle == 0 && wall_s >= seconds) || wall_s >= HARD_STOP_BUDGETS * seconds
        {
            return LoopTimes {
                lat_ms,
                wall_s,
                peak_rss_mb: peak.unwrap_or_else(peak_rss_mb),
                probe_ms,
            };
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::REFERENCE_MS;

    fn sleep_ms(i: usize) -> f64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
        i as f64
    }

    #[test]
    fn loop_stops_on_the_first_cycle_boundary_after_the_budget() {
        let mut cycles = 0;
        let times = closed_loop(0.002, 3, || cycles += 1, sleep_ms);
        assert_eq!(times.lat_ms, [0.0, 1.0, 2.0]);
        assert_eq!(cycles, 1);
        assert_eq!(times.probe_ms[0].0, 0);
        assert!(times.wall_s >= 0.002);
        assert!(times.peak_rss_mb > 0.0);
    }

    #[test]
    fn loop_stops_mid_cycle_after_the_hard_limit() {
        let times = closed_loop(0.002, 1000, || {}, sleep_ms);
        assert!(times.lat_ms.len() < 1000);
        assert!(times.wall_s >= HARD_STOP_BUDGETS * 0.002);
    }

    #[test]
    fn ops_per_s_is_one_cycle_over_its_quiet_latencies() {
        // The probe ran at the reference speed throughout; the second
        // cycle's first op was slowed by something else.
        let pass = Pass {
            lat_ms: vec![2.0, 8.0, 3.0, 8.0],
            cycle: 2,
            probe_ms: vec![(0, REFERENCE_MS), (2, REFERENCE_MS), (4, REFERENCE_MS)],
            ..Pass::default()
        };
        assert_eq!(pass.scaled_ms(), [2.0, 8.0, 3.0, 8.0]);
        assert_eq!(pass.quiet_ms(), [2.0, 8.0]);
        assert_eq!(pass.ops_per_s(), 200.0);
        assert_eq!(Pass::default().ops_per_s(), 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
