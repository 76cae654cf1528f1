//! A fixed reference computation timed between ops and next to every
//! set-up: how fast the host runs right now, independent of the program
//! under test.
//!
//! The host this benchmark was built on runs everything up to 2.5× slower
//! for stretches of one second to several minutes (other guests on the
//! same cores, with steal time near 0), and a 24 s run may spend none, most
//! or all of its time in them. The program slows down more than the probe:
//! op time grows about as probe time to the power [`ELASTICITY`]. Each time
//! is divided by the probe time around it ([`scale`]), which follows the
//! host from moment to moment, and a run's figures are multiplied by
//! [`residual`], which takes out the rest of the slowdown the run's
//! quietest stretches still had. Both leave a build that does more or less
//! work moving the figures in full.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// The probe's time on a quiet host, in ms: scaled times are times on a
/// host that runs the probe this fast (a 2-vCPU Xeon KVM guest at 2.0 GHz
/// did in its quiet stretches).
pub const REFERENCE_MS: f64 = 3.5;

/// How much faster op time grows than probe time when the host slows:
/// `op ∝ probe^ELASTICITY`. Measured on the build host over 20 to 31 runs
/// per workload: run-level slopes of log quiet op time on log probe time
/// were 0.9 (`outcome`, which saw the least contention), 1.4 (`horizon`),
/// 1.6 (`certify`) and 2.1 (`margin`), correlation 0.91 to 0.99. One value
/// for all four, in the middle, kept the ten-seed spreads of throughput and
/// latency in three sets (one of them with runs that never saw the host
/// quiet) at or below 0.12.
pub const ELASTICITY: f64 = 1.5;

/// The quantile of a run's probe times taken as its quietest host state.
const QUIET_PROBE_Q: f64 = 0.1;

/// Nodes of the probe's graph.
const NODES: usize = 60_000;

/// Edges per node.
const DEGREE: usize = 4;

/// A random graph, built once; [`Probe::run`] propagates values over it.
pub struct Probe {
    adj: Vec<[u32; DEGREE]>,
}

impl Probe {
    /// Build the graph (deterministic).
    pub fn new() -> Probe {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % NODES as u64) as u32
        };
        let adj = (0..NODES)
            .map(|_| std::array::from_fn(|_| next()))
            .collect();
        Probe { adj }
    }

    /// Run the reference computation once; returns its time in ms.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut val = vec![0u32; NODES];
        let mut seen = vec![false; NODES];
        let mut queue: VecDeque<u32> = (0..64).collect();
        while let Some(v) = queue.pop_front() {
            let v = v as usize;
            if std::mem::replace(&mut seen[v], true) {
                continue;
            }
            for &w in &self.adj[v] {
                let w = w as usize;
                val[w] = val[w].wrapping_add(v as u32);
                if !seen[w] && !val[w].is_multiple_of(3) {
                    queue.push_back(w as u32);
                }
            }
        }
        black_box(&val);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `ms` divided by the probe time `probe_ms` taken around it, in units of
/// [`REFERENCE_MS`].
pub fn scale(ms: f64, probe_ms: f64) -> f64 {
    ms * REFERENCE_MS / probe_ms
}

/// The factor taking scaled times of a run down to a quiet host: the part
/// of the slowdown [`scale`] leaves, `(REFERENCE_MS / p)^(ELASTICITY - 1)`,
/// at the run's quietest probe times `p` (their lower decile). 1 for no
/// probes.
pub fn residual(probe_ms: &[f64]) -> f64 {
    if probe_ms.is_empty() {
        return 1.0;
    }
    let mut sorted = probe_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    (REFERENCE_MS / quantile(&sorted, QUIET_PROBE_Q)).powf(ELASTICITY - 1.0)
}

/// The probe time around each of `ops` ops: the mean of the last probe
/// before the op and the first after it. `probes` holds `(ops completed,
/// probe ms)` in order, starting with a probe at 0 ops.
pub fn around(ops: usize, probes: &[(usize, f64)]) -> Vec<f64> {
    let mut next = 0;
    (0..ops)
        .map(|op| {
            while next + 1 < probes.len() && probes[next].0 <= op {
                next += 1;
            }
            let before = probes[next.saturating_sub(1)].1;
            let after = probes[next].1;
            if probes[next].0 > op {
                (before + after) / 2.0
            } else {
                after
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_a_few_ms() {
        let ms = Probe::new().run();
        assert!(ms > 0.0 && ms < 1000.0, "{ms}");
    }

    #[test]
    fn scaling_and_residual_cancel_a_slowdown_the_probe_sees() {
        assert_eq!(scale(10.0, REFERENCE_MS), 10.0);
        assert_eq!(residual(&[REFERENCE_MS; 5]), 1.0);
        assert_eq!(residual(&[]), 1.0);
        // A host slow throughout: the probe 2× slower, ops 2^ELASTICITY×.
        let slow = 2.0 * REFERENCE_MS;
        let op = 10.0 * 2f64.powf(ELASTICITY);
        assert!((scale(op, slow) * residual(&[slow; 5]) - 10.0).abs() < 1e-9);
        // The lower decile of the probe times counts, not the slow ones.
        let mostly_slow = [
            REFERENCE_MS,
            REFERENCE_MS,
            slow,
            slow,
            slow,
            slow,
            slow,
            slow,
            slow,
            slow,
        ];
        assert_eq!(residual(&mostly_slow), 1.0);
    }

    #[test]
    fn each_op_gets_the_probes_around_it() {
        // Probes before op 0, after op 1 and after op 3 (ops completed 0,
        // 2 and 4); op 4 has no probe after it.
        let probes = [(0, 1.0), (2, 3.0), (4, 5.0)];
        assert_eq!(around(5, &probes), [2.0, 2.0, 4.0, 4.0, 5.0]);
        assert_eq!(around(2, &[(0, 1.0)]), [1.0, 1.0]);
    }
}
