//! `certify`: the `cpsrisk solve --certify` → `cpsrisk check` flow.
//!
//! The program is `adversarial_problem(24, adversarial_needed(24) - 1)`:
//! mitigation selection one below the covering number, so unsatisfiable
//! and pigeonhole-hard. Each op takes the program text with its statements
//! in one of [`CYCLE`] seeded orders and runs parse → lint → ground →
//! certified enumerate → proof to text → proof from text → re-parse and
//! ground the embedded source → independent check. It is the only workload
//! that runs the parser, the linter, conflict-heavy search, proof logging
//! and the checker. Every proof must be accepted and every verdict must be
//! UNSAT, as the construction guarantees.

use std::hint::black_box;

use cpsrisk::asp::diag::has_errors;
use cpsrisk::asp::lint::lint_source;
use cpsrisk::asp::proof::DEFAULT_TEXT_CAP;
use cpsrisk::asp::{check_proof, parse, Grounder, ProofLog, SolveOptions, Solver};
use cpsrisk::epa::workload::{adversarial_needed, adversarial_problem};

use super::{digest, BoxError, Rng};
use crate::harness::{closed_loop, Pass};
use crate::trace::Tracer;

/// Attack chains of the adversarial program.
pub const CHAINS: usize = 24;

/// Statement orders per cycle (the tail is the 75th percentile of their
/// quiet latencies). An order's op costs 80 to 140 ms, so forty of them
/// make the cycle's cost much the same for every seed, and a 24 s run
/// still repeats each five or six times.
pub const CYCLE: usize = 40;

/// The program and its statement orders.
pub struct Inputs {
    /// The program in its generated statement order.
    pub program: cpsrisk::asp::Program,
    /// The source texts of a cycle: op `i` solves `sources[i % CYCLE]`.
    pub sources: Vec<String>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let program = adversarial_problem(CHAINS, adversarial_needed(CHAINS) - 1);
    let sources = (0..CYCLE)
        .map(|i| {
            let mut shuffled = program.clone();
            Rng::new(seed, i as u64 + 1).shuffle(&mut shuffled.statements);
            shuffled.to_string()
        })
        .collect();
    Inputs { program, sources }
}

impl Inputs {
    /// Digest of the source texts.
    pub fn digest(&self) -> u64 {
        digest(&self.sources)
    }
}

/// Parse, ground and build a solver for the program in generated order:
/// what `cpsrisk solve` does before its search starts.
pub fn setup(inputs: &Inputs, t: &mut Tracer) -> Result<(), BoxError> {
    let program = t.span("asp.parse", |_| parse(&inputs.program.to_string()))?;
    let ground = t.span("asp.ground", |_| Grounder::new().ground(&program))?;
    let solver = t.span("asp.solver_new", |_| Solver::new(&ground));
    black_box(&solver);
    Ok(())
}

/// Counts of one certified solve and its check.
struct Certified {
    unsat: bool,
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    steps: usize,
    learned: usize,
    bytes: usize,
    atoms: usize,
    rules: usize,
}

/// Solve `src` with proof logging and check the proof the way
/// `cpsrisk check` does, each step in its own span.
fn solve_and_check(src: &str, t: &mut Tracer) -> Result<Certified, BoxError> {
    let program = t.span("asp.parse", |_| parse(src))?;
    let diags = t.span("asp.lint", |_| lint_source(src));
    if has_errors(&diags) {
        return Err("the program has lint errors".into());
    }
    let ground = t.span("asp.ground", |_| Grounder::new().ground(&program))?;
    let (result, log) = t.span("asp.cdcl.certified_solve", |_| {
        let mut solver = Solver::new(&ground);
        let result = solver.enumerate(&SolveOptions {
            certify: true,
            ..SolveOptions::default()
        });
        result.map(|r| (r, solver.take_proof()))
    })?;
    let log = log.ok_or("the certified solve emitted no proof")?;
    let text = t.span("asp.proof.to_text", |_| {
        log.to_text(Some(src), DEFAULT_TEXT_CAP)
    })?;
    let (embedded, replayed) = t.span("asp.proof.from_text", |_| ProofLog::from_text(&text))?;
    let embedded = embedded.ok_or("the proof embeds no program source")?;
    let program = t.span("asp.parse", |_| parse(&embedded))?;
    let reground = t.span("asp.ground", |_| Grounder::new().ground(&program))?;
    let report = t.span("asp.check", |_| check_proof(&reground, &replayed))?;
    Ok(Certified {
        unsat: result.models.is_empty() && result.exhausted,
        decisions: result.decisions,
        propagations: result.propagations,
        conflicts: result.conflicts,
        steps: log.len(),
        learned: report.learned,
        bytes: text.len(),
        atoms: ground.atom_count(),
        rules: ground.rules.len(),
    })
}

/// One pass; an op fails unless its proof is accepted and it is UNSAT.
pub fn measure(
    inputs: &Inputs,
    seconds: f64,
    t: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Result<Pass, BoxError> {
    let mut pass = Pass {
        cycle: CYCLE,
        ..Pass::default()
    };
    let mut first_cycle: Vec<Certified> = Vec::with_capacity(CYCLE);
    let times = closed_loop(seconds, CYCLE, between, |i| {
        let (out, ms) = t.op(|t| solve_and_check(&inputs.sources[i % CYCLE], t));
        match out {
            Ok(c) if c.unsat => {
                if i < CYCLE {
                    first_cycle.push(c);
                }
            }
            _ => pass.failed += 1,
        }
        ms
    });
    pass.lat_ms = times.lat_ms;
    pass.wall_s = times.wall_s;
    pass.peak_rss_mb = times.peak_rss_mb;
    pass.probe_ms = times.probe_ms;
    if let Some(c) = first_cycle.first() {
        pass.counters.insert("asp.ground.atoms", c.atoms as f64);
        pass.counters.insert("asp.ground.rules", c.rules as f64);
    }
    let ops = first_cycle.len().max(1) as f64;
    let per_op = |f: fn(&Certified) -> f64| first_cycle.iter().map(f).sum::<f64>() / ops;
    pass.counters
        .insert("asp.cdcl.decisions", per_op(|c| c.decisions as f64));
    pass.counters
        .insert("asp.cdcl.propagations", per_op(|c| c.propagations as f64));
    pass.counters
        .insert("asp.cdcl.conflicts", per_op(|c| c.conflicts as f64));
    pass.counters
        .insert("asp.proof.steps", per_op(|c| c.steps as f64));
    pass.counters
        .insert("asp.proof.learned", per_op(|c| c.learned as f64));
    pass.counters
        .insert("asp.proof.bytes", per_op(|c| c.bytes as f64));
    Ok(pass)
}
