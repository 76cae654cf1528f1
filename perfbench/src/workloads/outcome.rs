//! `outcome`: fixed-scenario outcome queries on the catalog plant.
//!
//! One op is `IncrementalAnalysis::analyze_with` for one scenario of the
//! ≤2-fault scenario space, on one resident solver. A cycle is a seeded
//! sample of [`CYCLE`] scenarios in a seeded order, repeated for the whole
//! run. Every query is decided by the conditional well-founded model, so
//! this is the WFM-bound path with next to no search.
//!
//! Checks: repeats of a scenario give the same outcome, and a seeded
//! sample of scenarios matches `TopologyAnalysis`, which shares no code
//! with the ASP path (it takes ~1.7 ms a scenario, too slow for all).

use std::hint::black_box;

use cpsrisk::epa::{
    EpaProblem, IncrementalAnalysis, Scenario, ScenarioOutcome, ScenarioSpace, TopologyAnalysis,
};

use super::{catalog, digest, BoxError, Rng, CATALOG_MAX_FAULTS};
use crate::harness::{closed_loop, Pass};
use crate::trace::Tracer;

/// Scenarios per cycle (the tail is their 99.5th percentile). A cycle
/// takes about 1.2 s, so a 24 s run repeats each scenario about 20 times;
/// all 21,116 scenarios would give each only four or five repetitions.
pub const CYCLE: usize = 5000;

/// Scenarios checked against the topology analysis per run.
const REFERENCE_SAMPLE: usize = 1024;

/// The catalog plant and its scenarios in seeded order.
pub struct Inputs {
    /// The catalog plant.
    pub problem: EpaProblem,
    /// The cycle: [`CYCLE`] of the ≤2-fault scenarios, drawn and ordered
    /// by the seed.
    pub scenarios: Vec<Scenario>,
    /// Indices of the scenarios checked against the topology analysis.
    pub reference_sample: Vec<usize>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let problem = catalog();
    let mut scenarios: Vec<Scenario> = ScenarioSpace::new(&problem, CATALOG_MAX_FAULTS)
        .iter()
        .collect();
    let mut rng = Rng::new(seed, 0);
    rng.shuffle(&mut scenarios);
    scenarios.truncate(CYCLE);
    let reference_sample = rng.sample(scenarios.len(), REFERENCE_SAMPLE);
    Inputs {
        problem,
        scenarios,
        reference_sample,
    }
}

impl Inputs {
    /// Digest of the scenario order and the reference sample.
    pub fn digest(&self) -> u64 {
        digest(&(&self.scenarios, &self.reference_sample))
    }
}

/// Encode, ground and build the resident solver.
pub fn setup(inputs: &Inputs, t: &mut Tracer) -> Result<(), BoxError> {
    let analysis = t.span("epa.incremental.new", |_| {
        IncrementalAnalysis::new(&inputs.problem)
    })?;
    let solver = t.span("asp.solver_new", |_| analysis.solver());
    black_box(&solver);
    Ok(())
}

/// One scenario's outcome, through the same public steps `analyze_with`
/// takes, each in its own span. Returns whether the WFM decided it.
fn traced_analyze(
    analysis: &IncrementalAnalysis,
    solver: &mut cpsrisk::asp::Solver<'_>,
    scenario: &Scenario,
    t: &mut Tracer,
) -> Result<(ScenarioOutcome, bool), BoxError> {
    let assumptions = t.span("epa.outcome.assumptions", |_| {
        analysis.assumptions(scenario)
    });
    if let Some(out) = t.span("asp.wfm.cond", |_| {
        analysis.static_outcome(scenario, &assumptions)
    }) {
        return Ok((out, true));
    }
    let out = t.span("epa.outcome.search", |_| {
        analysis.outcome_under(solver, scenario, &assumptions)
    })?;
    Ok((out, false))
}

/// Digest of an outcome's verdict-bearing fields.
fn outcome_digest(o: &ScenarioOutcome) -> u64 {
    digest(&(&o.scenario, &o.effective_modes, &o.violated))
}

/// One pass: `analyze_with` untraced, the decomposed steps when traced.
pub fn measure(
    inputs: &Inputs,
    seconds: f64,
    t: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Result<Pass, BoxError> {
    let analysis = IncrementalAnalysis::new(&inputs.problem)?;
    let mut solver = analysis.solver();
    let n = inputs.scenarios.len();
    // Digest of each op's answer; `None` for an op that errored.
    let mut answers: Vec<Option<u64>> = Vec::new();
    let mut decided_statically = 0usize;
    let mut search = [0u64; 2];
    let mut pass = Pass {
        cycle: n,
        ..Pass::default()
    };
    let times = closed_loop(seconds, n, between, |i| {
        let scenario = &inputs.scenarios[i % n];
        let (out, ms) = t.op(|t| {
            if t.is_on() {
                traced_analyze(&analysis, &mut solver, scenario, t)
            } else {
                Ok((analysis.analyze_with(&mut solver, scenario)?, false))
            }
        });
        if i < n {
            match out {
                Ok((_, true)) => decided_statically += 1,
                // The solver's per-call counters describe this op's search
                // only when the traced path saw it search.
                Ok((_, false)) if t.is_on() => {
                    search[0] += solver.decisions();
                    search[1] += solver.propagations();
                }
                _ => {}
            }
        }
        answers.push(out.ok().map(|(o, _)| outcome_digest(&o)));
        if i + 1 == n {
            pass.counters.insert(
                "asp.cdcl.conflicts",
                solver.total_conflicts() as f64 / n as f64,
            );
            pass.counters
                .insert("asp.cdcl.learned_end", solver.learned_nogoods() as f64);
        }
        ms
    });
    pass.lat_ms = times.lat_ms;
    pass.wall_s = times.wall_s;
    pass.peak_rss_mb = times.peak_rss_mb;
    pass.probe_ms = times.probe_ms;

    // Repeats must agree with the first answer; sampled scenarios must
    // match the topology analysis.
    let mut want: Vec<Option<u64>> = vec![None; n];
    let topology = TopologyAnalysis::new(&inputs.problem);
    for &k in &inputs.reference_sample {
        want[k] = Some(outcome_digest(&topology.evaluate(&inputs.scenarios[k])));
    }
    for (i, answer) in answers.iter().enumerate() {
        match answer {
            Some(d) if *want[i % n].get_or_insert(*d) == *d => {}
            _ => pass.failed += 1,
        }
    }
    let ground = analysis.ground();
    pass.counters
        .insert("asp.ground.atoms", ground.atom_count() as f64);
    pass.counters
        .insert("asp.ground.rules", ground.rules.len() as f64);
    if t.is_on() {
        // Only the traced path can tell a static verdict from a search.
        let ops = n.min(answers.len()) as f64;
        pass.figures
            .insert("epa.outcome.static_frac", decided_statically as f64 / ops);
        pass.figures
            .insert("asp.cdcl.decisions", search[0] as f64 / ops);
        pass.figures
            .insert("asp.cdcl.propagations", search[1] as f64 / ops);
    }
    Ok(pass)
}
