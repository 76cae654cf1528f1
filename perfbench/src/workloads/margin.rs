//! `margin`: attack-margin queries on the catalog plant.
//!
//! The inputs are the margin samples of `catalog_queries` (one per 64
//! scenarios, grouped by requirement rank). One op is
//! `AttackMargin::attack_exists_with` on a resident solver. A resident
//! solver's per-query cost drifts with what its earlier searches left
//! behind (learned nogoods, activities, saved phases): after a hard query
//! on the widest requirement, many easy queries take 70 times the
//! decisions. So the run length is counted in queries, never in seconds
//! alone: ops come in episodes of [`EPISODE`] queries, each on a fresh
//! solver, and a cycle is one pass over every sample in a shuffled order
//! (cut into episodes), repeated for the whole run. A fresh solver searches
//! deterministically, so every cycle repeats the same work.
//!
//! The order is shuffled, not the stream order: the stream clusters the
//! hard queries at its end, where they share episodes and each search
//! learns for the next (median 1.4 ms, p95 1.6 ms), while spread over the
//! episodes each meets a fresh solver (p95 ~12 ms), which is the search
//! this workload is for. The shuffle is the same for every seed, because
//! what an episode searches depends on the order of its queries: two
//! seeded orders ran 12–15 % apart in back-to-back runs, more than the
//! run-to-run spread. The seed picks the reference sample.
//!
//! Checks: repeats of a query answer alike across passes and episodes; a
//! seeded sample of the easy queries matches the chronological reference
//! engine (`Solver::new_reference`), which cannot decide the covering
//! queries of the widest requirement within minutes; those are checked on
//! a fresh CDCL solver instead, which carries nothing from earlier queries.

use std::collections::BTreeMap;
use std::hint::black_box;

use cpsrisk::asp::{SolveOptions, Solver};
use cpsrisk::epa::{
    catalog_margin_budget, catalog_queries, catalog_requirements_ranked, AttackMargin,
    CatalogQuery, EpaProblem, Scenario, ScenarioSpace,
};

use super::{catalog, digest, BoxError, Rng, CATALOG_COMPONENTS, CATALOG_MAX_FAULTS};
use crate::harness::{closed_loop, Pass};
use crate::stats::mean;
use crate::trace::Tracer;

/// One margin query is sampled per this many scenarios, as in
/// `cpsrisk bench --workload catalog`.
const MARGIN_EVERY: usize = 64;

/// Queries per episode, each episode on a fresh solver.
pub const EPISODE: usize = 33;

/// Seed of the query order, the same for every run seed.
const ORDER_SEED: u64 = 1;

/// Easy queries checked against the reference engine per run.
const REFERENCE_SAMPLE: usize = 8;

/// The plant, the attacker budget and the margin samples.
pub struct Inputs {
    /// The catalog plant.
    pub problem: EpaProblem,
    /// Attacker extension budget of the contested encoding.
    pub budget: u32,
    /// `(scenario, requirement)` margin samples in the order of every
    /// cycle.
    pub queries: Vec<(Scenario, String)>,
    /// The widest requirement: its queries are the hard ones.
    pub hardest: String,
    /// Indices of the easy queries checked against the reference engine.
    pub reference_sample: Vec<usize>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let problem = catalog();
    let budget = catalog_margin_budget(cpsrisk::bench::catalog_chains(CATALOG_COMPONENTS));
    let space = ScenarioSpace::new(&problem, CATALOG_MAX_FAULTS);
    let ranked = catalog_requirements_ranked(&problem, budget);
    let mut queries: Vec<(Scenario, String)> = catalog_queries(&space, &ranked, MARGIN_EVERY)
        .filter_map(|q| match q {
            CatalogQuery::Margin {
                scenario,
                requirement,
            } => Some((scenario, requirement)),
            CatalogQuery::Outcome(_) => None,
        })
        .collect();
    Rng::new(ORDER_SEED, 1).shuffle(&mut queries);
    let hardest = ranked.last().cloned().unwrap_or_default();
    let easy: Vec<usize> = (0..queries.len())
        .filter(|&q| queries[q].1 != hardest)
        .collect();
    let reference_sample = Rng::new(seed, 0)
        .sample(easy.len(), REFERENCE_SAMPLE)
        .into_iter()
        .map(|k| easy[k])
        .collect();
    Inputs {
        problem,
        budget,
        queries,
        hardest,
        reference_sample,
    }
}

impl Inputs {
    /// Digest of the queries and the reference sample.
    pub fn digest(&self) -> u64 {
        digest(&(&self.queries, &self.reference_sample))
    }
}

/// Encode and ground the contested program and build the resident solver.
pub fn setup(inputs: &Inputs, t: &mut Tracer) -> Result<(), BoxError> {
    let margin = t.span("epa.margin.new", |_| {
        AttackMargin::new(&inputs.problem, inputs.budget)
    })?;
    let solver = t.span("asp.solver_new", |_| margin.solver());
    black_box(&solver);
    Ok(())
}

fn first_model_opts() -> SolveOptions {
    SolveOptions {
        max_models: 1,
        ..SolveOptions::default()
    }
}

/// One margin query through the same public steps `attack_exists_with`
/// takes, each in its own span.
fn traced_attack(
    margin: &AttackMargin,
    solver: &mut Solver<'_>,
    (scenario, requirement): &(Scenario, String),
    t: &mut Tracer,
) -> Result<bool, BoxError> {
    let assumptions = t.span("epa.margin.assumptions", |_| {
        margin.assumptions(scenario, requirement)
    });
    let result = t.span("asp.cdcl.solve", |_| {
        solver.solve_with_assumptions(&assumptions, &first_model_opts())
    })?;
    Ok(!result.models.is_empty())
}

/// One pass of whole cycles: `attack_exists_with` untraced, the
/// decomposed steps when traced.
pub fn measure(
    inputs: &Inputs,
    seconds: f64,
    t: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Result<Pass, BoxError> {
    let margin = AttackMargin::new(&inputs.problem, inputs.budget)?;
    let n = inputs.queries.len();
    // The previous episode's solver is dropped before the next is built,
    // so the peak resident set never holds two.
    let mut solver = Some(margin.solver());
    // `(query index, answer)` of each op; `None` for an op that errored.
    let mut answers: Vec<(usize, Option<bool>)> = Vec::new();
    // First-cycle search counts: decisions, propagations, conflicts, and
    // learned nogoods summed over episode ends.
    let mut search = [0u64; 4];
    let mut pass = Pass {
        cycle: n,
        ..Pass::default()
    };
    let times = closed_loop(seconds, n, between, |i| {
        if (i % n).is_multiple_of(EPISODE) && i > 0 {
            drop(solver.take());
            solver = Some(margin.solver());
        }
        let solver = solver.as_mut().expect("a solver per episode");
        let q = i % n;
        let query = &inputs.queries[q];
        let conflicts_before = solver.total_conflicts();
        let (out, ms) = t.op(|t| {
            if t.is_on() {
                traced_attack(&margin, solver, query, t)
            } else {
                Ok(margin.attack_exists_with(solver, &query.0, &query.1)?)
            }
        });
        answers.push((q, out.ok()));
        if i < n {
            // Decisions and propagations count per call, conflicts over
            // the solver's life.
            search[0] += solver.decisions();
            search[1] += solver.propagations();
            search[2] += solver.total_conflicts() - conflicts_before;
            if (i + 1) % EPISODE == 0 || i + 1 == n {
                search[3] += solver.learned_nogoods() as u64;
            }
        }
        ms
    });
    pass.lat_ms = times.lat_ms;
    pass.wall_s = times.wall_s;
    pass.peak_rss_mb = times.peak_rss_mb;
    pass.probe_ms = times.probe_ms;

    // Every repeat of a query must answer alike; the easy sample must match
    // the reference engine and the hard queries a fresh solver.
    let mut first: BTreeMap<usize, Option<bool>> = BTreeMap::new();
    let mut bad: Vec<bool> = answers
        .iter()
        .map(|(q, a)| a.is_none() || *first.entry(*q).or_insert(*a) != *a)
        .collect();
    let hard = (0..n).filter(|&q| inputs.queries[q].1 == inputs.hardest);
    for q in inputs.reference_sample.iter().copied().chain(hard) {
        let (scenario, requirement) = &inputs.queries[q];
        let assumptions = margin.assumptions(scenario, requirement);
        let mut checker = if *requirement == inputs.hardest {
            margin.solver()
        } else {
            Solver::new_reference(margin.ground())
        };
        let want = !checker
            .solve_with_assumptions(&assumptions, &first_model_opts())?
            .models
            .is_empty();
        for (i, (answered, a)) in answers.iter().enumerate() {
            bad[i] |= *answered == q && *a != Some(want);
        }
    }
    pass.failed = bad.iter().filter(|b| **b).count();

    let ground = margin.ground();
    pass.counters
        .insert("asp.ground.atoms", ground.atom_count() as f64);
    pass.counters
        .insert("asp.ground.rules", ground.rules.len() as f64);
    let first_cycle = &answers[..n.min(answers.len())];
    let per_op = |x: u64| x as f64 / first_cycle.len() as f64;
    pass.counters
        .insert("asp.cdcl.decisions", per_op(search[0]));
    pass.counters
        .insert("asp.cdcl.propagations", per_op(search[1]));
    pass.counters
        .insert("asp.cdcl.conflicts", per_op(search[2]));
    pass.counters.insert(
        "asp.cdcl.learned_end",
        search[3] as f64 / first_cycle.len().div_ceil(EPISODE) as f64,
    );
    pass.counters.insert(
        "epa.margin.sat_frac",
        first_cycle.iter().filter(|(_, a)| *a == Some(true)).count() as f64
            / first_cycle.len() as f64,
    );
    pass.figures.insert(
        "epa.margin.late_early_ratio",
        late_early_ratio(&pass.lat_ms, n),
    );
    Ok(pass)
}

/// Mean latency of the last tenth of each complete episode over the mean
/// of its first tenth: how much what a resident solver carries from
/// earlier queries slows it down.
fn late_early_ratio(lat_ms: &[f64], cycle: usize) -> f64 {
    let tenth = (EPISODE / 10).max(1);
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for pass in lat_ms.chunks_exact(cycle) {
        for episode in pass.chunks_exact(EPISODE) {
            early.extend_from_slice(&episode[..tenth]);
            late.extend_from_slice(&episode[EPISODE - tenth..]);
        }
    }
    mean(&late) / mean(&early)
}
