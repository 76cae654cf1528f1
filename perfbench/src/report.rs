//! The result line, the metric catalogue and the raw run record.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The measured value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The JSON object printed as the last line of standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Every answer matched its reference and every counter repeated.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or gave a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a report always serializes")
    }

    /// Parse a report line.
    #[cfg(test)]
    pub fn from_json(line: &str) -> Result<Report, serde_json::Error> {
        serde_json::from_str(line)
    }
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Where a per-layer metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A span's self time as a share of the traced set-ups' wall time.
    SetupSpan(&'static str),
    /// A span's self time as a share of the traced pass's op time.
    OpSpan(&'static str),
    /// A counter or figure of the traced pass under the metric's name.
    Pass,
    /// Computed from both passes of a traced run.
    Trace,
}

/// A per-layer metric (`--trace 1`). Every workload reports every one;
/// a layer the workload does not run reads 0. Span times are reported as
/// shares of the time they are part of, so no metric is a constant time;
/// the raw record keeps their absolute self times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Where its value comes from.
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, source }
}

/// Every per-layer metric, grouped by the workload that moves it.
pub const PER_LAYER: [LayerMetric; 34] = [
    // Set-up (outcome, margin).
    layer(
        "epa.incremental.new_share",
        "frac",
        Source::SetupSpan("epa.incremental.new"),
    ),
    layer(
        "epa.margin.new_share",
        "frac",
        Source::SetupSpan("epa.margin.new"),
    ),
    layer(
        "asp.solver_new_share",
        "frac",
        Source::SetupSpan("asp.solver_new"),
    ),
    layer("asp.ground.atoms", "count", Source::Pass),
    layer("asp.ground.rules", "count", Source::Pass),
    // outcome
    layer(
        "epa.outcome.assumptions_share",
        "frac",
        Source::OpSpan("epa.outcome.assumptions"),
    ),
    layer("asp.wfm.cond_share", "frac", Source::OpSpan("asp.wfm.cond")),
    layer(
        "epa.outcome.search_share",
        "frac",
        Source::OpSpan("epa.outcome.search"),
    ),
    layer("epa.outcome.static_frac", "frac", Source::Pass),
    // margin (search counters also on certify)
    layer(
        "epa.margin.assumptions_share",
        "frac",
        Source::OpSpan("epa.margin.assumptions"),
    ),
    layer(
        "asp.cdcl.solve_share",
        "frac",
        Source::OpSpan("asp.cdcl.solve"),
    ),
    layer("asp.cdcl.decisions", "count", Source::Pass),
    layer("asp.cdcl.propagations", "count", Source::Pass),
    layer("asp.cdcl.conflicts", "count", Source::Pass),
    layer("asp.cdcl.learned_end", "count", Source::Pass),
    layer("epa.margin.sat_frac", "frac", Source::Pass),
    layer("epa.margin.late_early_ratio", "x", Source::Pass),
    // horizon
    layer(
        "epa.horizon.session_new_share",
        "frac",
        Source::OpSpan("epa.horizon.session_new"),
    ),
    layer(
        "epa.horizon.extend_share",
        "frac",
        Source::OpSpan("epa.horizon.extend"),
    ),
    layer(
        "epa.horizon.verdicts_share",
        "frac",
        Source::OpSpan("epa.horizon.verdicts"),
    ),
    layer("asp.extend.new_atoms", "count", Source::Pass),
    layer("epa.horizon.retained_nogoods", "count", Source::Pass),
    // certify
    layer("asp.parse_share", "frac", Source::OpSpan("asp.parse")),
    layer("asp.lint_share", "frac", Source::OpSpan("asp.lint")),
    layer("asp.ground_share", "frac", Source::OpSpan("asp.ground")),
    layer(
        "asp.cdcl.certified_solve_share",
        "frac",
        Source::OpSpan("asp.cdcl.certified_solve"),
    ),
    layer(
        "asp.proof.to_text_share",
        "frac",
        Source::OpSpan("asp.proof.to_text"),
    ),
    layer(
        "asp.proof.from_text_share",
        "frac",
        Source::OpSpan("asp.proof.from_text"),
    ),
    layer("asp.check_share", "frac", Source::OpSpan("asp.check")),
    layer("asp.proof.steps", "count", Source::Pass),
    layer("asp.proof.learned", "count", Source::Pass),
    layer("asp.proof.bytes", "bytes", Source::Pass),
    // Tracing itself (every workload).
    layer("trace.overhead", "x", Source::Trace),
    layer("trace.coverage", "frac", Source::Trace),
];

/// Machine fingerprint taken when a run starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// 1, 5 and 15 minute load averages from `/proc/loadavg`.
    pub loadavg: Vec<f64>,
}

impl Fingerprint {
    /// Read the fingerprint of this machine now.
    pub fn capture() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .unwrap_or_default()
            .split_whitespace()
            .take(3)
            .filter_map(|x| x.parse().ok())
            .collect();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            loadavg,
        }
    }
}

/// The raw samples of one closed-loop pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassRecord {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Loop wall time, in seconds.
    pub wall_s: f64,
    /// Ops per cycle.
    pub cycle: usize,
    /// Median quiet latency, in ms (0 when no cycle completed).
    pub quiet_p50_ms: f64,
    /// Tail percentile of the quiet latencies (0 when no cycle completed).
    pub tail_percentile: f64,
    /// The tail, in ms (0 when no cycle completed).
    pub tail_ms: f64,
    /// Quiet latencies of the cycle beyond the tail percentile.
    pub tail_beyond: usize,
    /// Every op latency, in milliseconds, in issue order.
    pub lat_ms: Vec<f64>,
    /// `(ops completed, probe ms)` of every probe run.
    pub probe_ms: Vec<(usize, f64)>,
    /// First-cycle counters.
    pub counters: BTreeMap<String, f64>,
    /// Total self time per span name, in ms (traced pass only).
    pub span_self_ms: BTreeMap<String, f64>,
    /// Failed ops.
    pub failed: usize,
}

/// Everything one run measured, written next to the benchmark so the
/// quartiles of any figure can be recomputed later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Record format tag.
    pub schema: String,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Time budget of the run.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Digest of the generated inputs: equal for equal seeds.
    pub inputs_digest: String,
    /// Machine fingerprint at start.
    pub fingerprint: Fingerprint,
    /// Every set-up time, in seconds.
    pub setup_s: Vec<f64>,
    /// The probe time around each set-up, in ms.
    pub setup_probe_ms: Vec<f64>,
    /// Total self time per set-up span name, in ms (traced run only).
    pub setup_span_self_ms: BTreeMap<String, f64>,
    /// The passes, untraced first.
    pub passes: Vec<PassRecord>,
    /// The printed result.
    pub result: Report,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut metrics = BTreeMap::new();
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            metrics.insert(
                (*name).to_owned(),
                Metric {
                    value: 0.1 + i as f64 / 3.0,
                    unit: (*unit).to_owned(),
                },
            );
        }
        Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn report_round_trips_with_every_digit() {
        let report = sample_report();
        let line = report.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&line).expect("parses"), report);
    }

    #[test]
    fn report_has_exactly_the_contract_keys() {
        let value: serde_json::Value =
            serde_json::from_str(&sample_report().to_json()).expect("parses");
        let keys: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = &value.as_object().expect("object")[3]
            .1
            .as_object()
            .expect("map")[0]
            .1;
        let keys: Vec<&str> = metric
            .as_object()
            .expect("metric object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }

    /// The catalogue here and `BENCHMARK.json` name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |key: &str| -> Vec<(String, String)> {
            let obj = json.as_object().expect("object");
            let list = obj
                .iter()
                .find(|(k, _)| k == key)
                .expect(key)
                .1
                .as_array()
                .expect("list");
            list.iter()
                .map(|m| {
                    let m = m.as_object().expect("metric");
                    let get = |k: &str| {
                        m.iter()
                            .find(|(n, _)| n == k)
                            .expect(k)
                            .1
                            .as_str()
                            .expect(k)
                            .to_owned()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs
                .into_iter()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(field("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            field("per_layer"),
            own(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
        );
    }
}
