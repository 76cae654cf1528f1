//! `horizon`: minimal-violating-horizon sweeps over the tank model.
//!
//! One op is a full `check_horizon_sweep` over horizons 8..=32: a fresh
//! session, 24 extensions and the verdicts at every horizon. Each op sweeps
//! the tank at one limit; the limits 18..=90 put the first violation at
//! every horizon of the range. A sweep costs 30 to 47 ms depending on the
//! limit, so one limit per run would make runs of different seeds differ
//! by that much: instead a cycle is one pass over every limit in a seeded
//! order, repeated for the whole run. This is the workload dominated by
//! grounding and incremental extension.
//!
//! Checks: every op's minimal violating horizon equals
//! `temporal_tank_min_violating(limit)`; repeats of a limit give the same
//! verdicts at every horizon; a seeded sample of `(limit, horizon)` pairs
//! matches the from-scratch `check_horizon_scratch`.

use std::collections::BTreeMap;
use std::hint::black_box;

use cpsrisk::asp::Program;
use cpsrisk::epa::{
    check_horizon_scratch, check_horizon_sweep, temporal_tank_base, temporal_tank_min_violating,
    temporal_tank_requirements, temporal_tank_step, HorizonSession, RequirementVerdict,
};
use cpsrisk::temporal::Ltl;

use super::{digest, BoxError, Rng};
use crate::harness::{closed_loop, Pass};
use crate::trace::Tracer;

/// First horizon of every sweep.
pub const H_MIN: usize = 8;

/// Last horizon of every sweep.
pub const H_MAX: usize = 32;

/// Tank limits swept: `limit / 3 + 2` covers `H_MIN..=H_MAX`.
pub const LIMITS: std::ops::RangeInclusive<i64> = 18..=90;

/// Stride between the limits of consecutive set-ups (coprime to the 73
/// limits, so 21 set-ups cover 21 different limits across the range).
const SETUP_STRIDE: usize = 7;

/// `(limit, horizon)` pairs checked against the from-scratch reference.
const REFERENCE_SAMPLE: usize = 6;

/// The tank models and the order of a cycle.
pub struct Inputs {
    /// `(limit, horizon-independent rules and facts)` for every limit.
    pub bases: Vec<(i64, Program)>,
    /// Requirement names and LTLf formulas.
    pub requirements: Vec<(String, Ltl)>,
    /// The order of limit indices in every cycle.
    pub order: Vec<usize>,
    /// `(index into bases, horizon)` pairs checked from scratch.
    pub reference_sample: Vec<(usize, usize)>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let bases: Vec<(i64, Program)> = LIMITS.map(|l| (l, temporal_tank_base(l))).collect();
    let span = H_MAX - H_MIN + 1;
    let reference_sample = Rng::new(seed, 0)
        .sample(bases.len() * span, REFERENCE_SAMPLE)
        .into_iter()
        .map(|k| (k / span, H_MIN + k % span))
        .collect();
    let mut order: Vec<usize> = (0..bases.len()).collect();
    Rng::new(seed, 1).shuffle(&mut order);
    Inputs {
        bases,
        requirements: temporal_tank_requirements(),
        order,
        reference_sample,
    }
}

impl Inputs {
    /// Digest of the order and the reference sample.
    pub fn digest(&self) -> u64 {
        digest(&(&self.order, &self.reference_sample))
    }
}

/// Ground a session at the first horizon. Set-up `rep` takes the limits in
/// a fixed stride, so every run's set-ups cover the same limits whatever
/// the seed.
pub fn setup(inputs: &Inputs, rep: usize, t: &mut Tracer) -> Result<(), BoxError> {
    let base = &inputs.bases[rep * SETUP_STRIDE % inputs.bases.len()].1;
    let session = t.span("epa.horizon.session_new", |_| {
        HorizonSession::new(base, temporal_tank_step, &inputs.requirements, H_MIN)
    })?;
    black_box(&session);
    Ok(())
}

/// What one sweep found.
struct Sweep {
    rows: Vec<Vec<RequirementVerdict>>,
    min_violating: Option<usize>,
    new_atoms: usize,
    retained_nogoods: usize,
}

/// `check_horizon_sweep` through the session's public steps, each in its
/// own span.
fn traced_sweep(
    base: &Program,
    requirements: &[(String, Ltl)],
    t: &mut Tracer,
) -> Result<Sweep, BoxError> {
    let mut session = t.span("epa.horizon.session_new", |_| {
        HorizonSession::new(base, temporal_tank_step, requirements, H_MIN)
    })?;
    let mut sweep = Sweep {
        rows: Vec::with_capacity(H_MAX - H_MIN + 1),
        min_violating: None,
        new_atoms: 0,
        retained_nogoods: 0,
    };
    for h in H_MIN..=H_MAX {
        if h > H_MIN {
            t.span("epa.horizon.extend", |_| {
                session.extend_to(h, temporal_tank_step)
            })?;
            sweep.new_atoms += session.last_new_atoms();
        }
        let verdicts = t.span("epa.horizon.verdicts", |_| session.solve_verdicts(&[]))?;
        if sweep.min_violating.is_none() && verdicts.iter().any(|v| v.violated) {
            sweep.min_violating = Some(h);
        }
        sweep.rows.push(verdicts);
    }
    sweep.retained_nogoods = session.retained_nogoods();
    Ok(sweep)
}

fn untraced_sweep(base: &Program, requirements: &[(String, Ltl)]) -> Result<Sweep, BoxError> {
    let report = check_horizon_sweep(base, temporal_tank_step, requirements, H_MIN..=H_MAX)?;
    Ok(Sweep {
        rows: report.rows.into_iter().map(|r| r.verdicts).collect(),
        min_violating: report.min_violating,
        new_atoms: report.slice_atoms.iter().sum(),
        retained_nogoods: report.retained_nogoods,
    })
}

/// A sweep's minimal violating horizon and its verdict flags.
type Answer = (Option<usize>, Vec<bool>);

/// The violated flags of every requirement at every horizon, in order.
fn flags(rows: &[Vec<RequirementVerdict>]) -> Vec<bool> {
    rows.iter().flatten().map(|v| v.violated).collect()
}

/// One pass of whole cycles: `check_horizon_sweep` untraced, the session
/// steps when traced.
pub fn measure(
    inputs: &Inputs,
    seconds: f64,
    t: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Result<Pass, BoxError> {
    let n = inputs.bases.len();
    // `(limit index, answer)` of each op; `None` for an op that errored.
    let mut answers: Vec<(usize, Option<Answer>)> = Vec::new();
    let mut pass = Pass {
        cycle: n,
        ..Pass::default()
    };
    let (mut new_atoms, mut retained) = (0usize, 0usize);
    let times = closed_loop(seconds, n, between, |i| {
        let b = inputs.order[i % n];
        let base = &inputs.bases[b].1;
        let (out, ms) = t.op(|t| {
            if t.is_on() {
                traced_sweep(base, &inputs.requirements, t)
            } else {
                untraced_sweep(base, &inputs.requirements)
            }
        });
        if let (true, Ok(s)) = (i < n, &out) {
            new_atoms += s.new_atoms;
            retained += s.retained_nogoods;
        }
        answers.push((b, out.ok().map(|s| (s.min_violating, flags(&s.rows)))));
        ms
    });
    pass.lat_ms = times.lat_ms;
    pass.wall_s = times.wall_s;
    pass.peak_rss_mb = times.peak_rss_mb;
    pass.probe_ms = times.probe_ms;

    let mut first: BTreeMap<usize, Vec<bool>> = BTreeMap::new();
    let mut bad: Vec<bool> = answers
        .iter()
        .map(|(b, a)| match a {
            Some((min, fl)) => {
                *min != Some(temporal_tank_min_violating(inputs.bases[*b].0))
                    || first.entry(*b).or_insert_with(|| fl.clone()) != fl
            }
            None => true,
        })
        .collect();
    let per_row = inputs.requirements.len();
    for &(b, h) in &inputs.reference_sample {
        let want = check_horizon_scratch(
            &inputs.bases[b].1,
            temporal_tank_step,
            &inputs.requirements,
            h,
        )?;
        let want = flags(&[want]);
        let at = (h - H_MIN) * per_row;
        for (i, (answered, a)) in answers.iter().enumerate() {
            if *answered == b {
                bad[i] |= a
                    .as_ref()
                    .is_none_or(|(_, fl)| fl[at..at + per_row] != want[..]);
            }
        }
    }
    pass.failed = bad.iter().filter(|b| **b).count();
    let ops = n.min(answers.len()) as f64;
    pass.counters
        .insert("asp.extend.new_atoms", new_atoms as f64 / ops);
    pass.counters
        .insert("epa.horizon.retained_nogoods", retained as f64 / ops);
    Ok(pass)
}
