//! `perfbench`: end-to-end and per-layer benchmark of the cpsrisk query
//! families. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload outcome --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The raw
//! samples of the run go to `perfbench/runs/`.

mod harness;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use harness::Pass;
use probe::{residual, scale, Probe};
use report::{Fingerprint, Metric, PassRecord, Report, RunRecord, Source, END_TO_END, PER_LAYER};
use stats::{fastest, median, tail};
use trace::Tracer;
use workloads::{BoxError, Inputs, Workload};

const USAGE: &str = "usage: perfbench --workload <outcome|margin|horizon|certify> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1, 24.0, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_owned(),
    }
}

fn run(args: &Args) -> Result<(), BoxError> {
    let fingerprint = Fingerprint::capture();
    let inputs = Inputs::generate(args.workload, args.seed);

    // Set-ups run between the cycles of each pass, so their samples spread
    // over the run like the ops'; the traced run also records their spans.
    // The probe runs before and after each, to scale it like the ops.
    let per_cycle = args.workload.setups_per_cycle();
    let probe = Probe::new();
    let mut setup_tracer = Tracer::new(args.trace);
    let (mut setup_s, mut setup_probe_ms) = (Vec::new(), Vec::new());
    let mut setup_err: Option<BoxError> = None;
    let mut set_up = || {
        let mut before = probe.run();
        for _ in 0..per_cycle {
            let start = Instant::now();
            let done = inputs.setup(setup_s.len(), &mut setup_tracer);
            let secs = start.elapsed().as_secs_f64();
            let after = probe.run();
            match done {
                Ok(()) => {
                    setup_s.push(secs);
                    setup_probe_ms.push((before + after) / 2.0);
                }
                Err(e) => {
                    setup_err.get_or_insert(e);
                }
            }
            before = after;
        }
    };

    let mut passes = Vec::new();
    let (metrics, correct) = if args.trace {
        // Untraced and traced passes of half the budget each, both from a
        // fresh set-up: their first-cycle counters must agree exactly.
        let plain = inputs.measure(args.seconds / 2.0, &mut Tracer::new(false), &mut set_up)?;
        let mut tracer = Tracer::new(true);
        let traced = inputs.measure(args.seconds / 2.0, &mut tracer, &mut set_up)?;
        if let Some(e) = setup_err {
            return Err(e);
        }
        let repeated = plain.counters == traced.counters;
        if !repeated {
            eprintln!(
                "perfbench: counters differ between the untraced and the traced pass:\n  \
                 untraced {:?}\n  traced   {:?}",
                plain.counters, traced.counters
            );
        }
        let setup_ms = setup_s.iter().sum::<f64>() * 1e3;
        let metrics = per_layer(&setup_tracer.self_ms(), setup_ms, &plain, &traced, &tracer);
        let correct = repeated && plain.failed == 0 && traced.failed == 0;
        passes.push((plain, None));
        passes.push((traced, Some(self_ms(&tracer))));
        (metrics, correct)
    } else {
        let pass = inputs.measure(args.seconds, &mut Tracer::new(false), &mut set_up)?;
        if let Some(e) = setup_err {
            return Err(e);
        }
        let scaled: Vec<f64> = setup_s
            .iter()
            .zip(&setup_probe_ms)
            .map(|(s, probe)| scale(*s, *probe))
            .collect();
        let metrics = end_to_end(fastest(&scaled) * pass.residual(), &pass)?;
        let correct = pass.failed == 0;
        passes.push((pass, None));
        (metrics, correct)
    };

    let result = Report {
        correct,
        attempted: passes.iter().map(|(p, _)| p.ops() as u64).sum(),
        failed: passes.iter().map(|(p, _)| p.failed as u64).sum(),
        metrics,
    };
    let record = RunRecord {
        schema: "perfbench-run/1".to_owned(),
        workload: args.workload.name().to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        inputs_digest: format!("{:016x}", inputs.digest()),
        fingerprint,
        setup_s,
        setup_probe_ms,
        setup_span_self_ms: self_ms(&setup_tracer),
        passes: passes
            .into_iter()
            .map(|(p, spans)| pass_record(&p, spans))
            .collect(),
        result: result.clone(),
    };
    let saved = save(&record);
    print_summary(&record, saved.as_deref());
    println!("{}", result.to_json());
    Ok(())
}

/// The `--trace 0` metrics of one untraced pass: the set-up time given,
/// the ops' quiet latencies (see [`Pass::quiet_ms`]) and the peak resident
/// set.
fn end_to_end(setup_s: f64, pass: &Pass) -> Result<BTreeMap<String, Metric>, BoxError> {
    let quiet = pass.quiet_ms();
    let tail = tail(&quiet).ok_or("the run ended before one cycle was complete")?;
    let values = [
        setup_s,
        pass.ops_per_s(),
        median(&quiet),
        tail.value,
        pass.peak_rss_mb,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| ((*name).to_owned(), metric(v, unit)))
        .collect())
}

/// The `--trace 1` metrics of a traced run.
fn per_layer(
    setup: &BTreeMap<&'static str, f64>,
    setup_ms: f64,
    plain: &Pass,
    traced: &Pass,
    tracer: &Tracer,
) -> BTreeMap<String, Metric> {
    let ops = tracer.self_ms();
    let op_ms: f64 = traced.lat_ms.iter().sum();
    let share = |totals: &BTreeMap<&str, f64>, span: &str, of_ms: f64| {
        totals.get(span).map_or(0.0, |ms| ms / of_ms)
    };
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                Source::SetupSpan(span) => share(setup, span, setup_ms),
                Source::OpSpan(span) => share(&ops, span, op_ms),
                Source::Pass => traced
                    .counters
                    .get(m.name)
                    .or_else(|| traced.figures.get(m.name))
                    .copied()
                    .unwrap_or(0.0),
                Source::Trace => match m.name {
                    "trace.overhead" => plain.ops_per_s() / traced.ops_per_s(),
                    _ => tracer.coverage(),
                },
            };
            (m.name.to_owned(), metric(value, m.unit))
        })
        .collect()
}

/// Span self times keyed for the raw record.
fn self_ms(tracer: &Tracer) -> BTreeMap<String, f64> {
    tracer
        .self_ms()
        .into_iter()
        .map(|(k, ms)| (k.to_owned(), ms))
        .collect()
}

/// The raw record of a pass; `spans` holds the self times of a traced one.
fn pass_record(pass: &Pass, spans: Option<BTreeMap<String, f64>>) -> PassRecord {
    let quiet = pass.quiet_ms();
    let tail = tail(&quiet);
    PassRecord {
        traced: spans.is_some(),
        wall_s: pass.wall_s,
        cycle: pass.cycle,
        quiet_p50_ms: if quiet.is_empty() {
            0.0
        } else {
            median(&quiet)
        },
        tail_percentile: tail.map_or(0.0, |t| t.percentile),
        tail_ms: tail.map_or(0.0, |t| t.value),
        tail_beyond: tail.map_or(0, |t| t.beyond),
        lat_ms: pass.lat_ms.clone(),
        probe_ms: pass.probe_ms.clone(),
        counters: pass
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect(),
        span_self_ms: spans.unwrap_or_default(),
        failed: pass.failed,
    }
}

/// Write the raw record under `perfbench/runs/`; returns its path. A
/// failed write loses only the raw samples, so it is reported, not fatal.
fn save(record: &RunRecord) -> Option<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/runs");
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = format!(
        "{dir}/{}-seed{}-trace{}-{stamp}.json",
        record.workload,
        record.seed,
        u8::from(record.trace)
    );
    let text = serde_json::to_string(record).expect("a record always serializes");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: could not write {path}: {e}");
            None
        }
    }
}

fn print_summary(record: &RunRecord, saved: Option<&str>) {
    let f = &record.fingerprint;
    println!(
        "perfbench {} seed {}: nproc {}, {}, load {:?}",
        record.workload, record.seed, f.nproc, f.cpu_model, f.loadavg
    );
    let scaled: Vec<f64> = record
        .setup_s
        .iter()
        .zip(&record.setup_probe_ms)
        .map(|(s, probe)| scale(*s, *probe))
        .collect();
    println!(
        "  set-up: raw median {:.4} s, fastest {:.4} s; probe-scaled fastest {:.4} s (of {})",
        median(&record.setup_s),
        fastest(&record.setup_s),
        fastest(&scaled),
        record.setup_s.len()
    );
    for p in &record.passes {
        let ops = p.lat_ms.len();
        let probe_ms: Vec<f64> = p.probe_ms.iter().map(|(_, ms)| *ms).collect();
        println!(
            "  {} pass: {ops} ops ({:.1} cycles of {}) in {:.2} s; raw p50 {:.3} ms; \
             probe median {:.3} ms, residual {:.3}; quiet p50 {:.3} ms, tail p{} {:.3} ms ({} ops beyond); \
             {} failed",
            if p.traced { "traced" } else { "untraced" },
            ops as f64 / p.cycle as f64,
            p.cycle,
            p.wall_s,
            median(&p.lat_ms),
            median(&probe_ms),
            residual(&probe_ms),
            p.quiet_p50_ms,
            p.tail_percentile,
            p.tail_ms,
            p.tail_beyond,
            p.failed
        );
    }
    if let Some(path) = saved {
        println!("  raw samples: {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload margin --seed 42 --seconds 7 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Margin,
                seed: 42,
                seconds: 7.0,
                trace: true
            }
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload outcome --trace 2").is_err());
        assert!(args("--workload outcome --seconds").is_err());
        assert!(args("--workload outcome --bogus 1").is_err());
    }
}
