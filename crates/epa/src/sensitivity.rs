//! Sensitivity analysis of modeling decisions (§II-A).
//!
//! "Sensitivity analysis-styled support highlights the critical decisions
//! from the point of view of the overall result of the impact analysis to
//! reduce the impacts of human errors." A *decision* here is a modeling
//! parameter an SME analyst may get wrong: whether a candidate mutation is
//! included at all, and whether a mitigation is assumed active. Each
//! decision is flipped in isolation; the impact is the number of scenario
//! outcomes whose violation verdicts change.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::error::EpaError;
use crate::incremental::IncrementalAnalysis;
use crate::problem::EpaProblem;
use crate::scenario::Scenario;
use crate::topology::TopologyAnalysis;

/// One flippable modeling decision.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Decision {
    /// Remove a candidate mutation from the model.
    DropMutation(String),
    /// Toggle a mitigation's activation.
    ToggleMitigation(String),
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::DropMutation(id) => write!(f, "drop mutation {id}"),
            Decision::ToggleMitigation(id) => write!(f, "toggle mitigation {id}"),
        }
    }
}

/// Sensitivity of the analysis outcome to one decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensitivityFinding {
    /// The flipped decision.
    pub decision: Decision,
    /// Number of scenario verdicts (scenario × requirement pairs) that
    /// changed under the flip.
    pub flipped_verdicts: usize,
    /// Total verdicts compared.
    pub total_verdicts: usize,
}

impl SensitivityFinding {
    /// Is the outcome sensitive to this decision at all?
    #[must_use]
    pub fn is_sensitive(&self) -> bool {
        self.flipped_verdicts > 0
    }
}

impl fmt::Display for SensitivityFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} verdicts flip",
            self.decision, self.flipped_verdicts, self.total_verdicts
        )
    }
}

/// Run the sensitivity sweep over every decision, ranked by impact
/// (descending). `max_faults` bounds the scenario space.
///
/// Every variant is evaluated on the **baseline scenario space**: a
/// variant with a dropped mutation simply no longer reacts to that fault
/// (the analysis an analyst with the wrong model would have run), so the
/// diff counts exactly the hazards that would be missed or invented.
#[must_use]
pub fn sensitivity_sweep(problem: &EpaProblem, max_faults: usize) -> Vec<SensitivityFinding> {
    let scenarios: Vec<Scenario> = crate::scenario::ScenarioSpace::new(problem, max_faults)
        .iter()
        .collect();
    let baseline = verdicts(problem, &scenarios);
    let mut findings: Vec<SensitivityFinding> = decision_variants(problem)
        .into_iter()
        .map(|(decision, variant)| diff(decision, &baseline, &verdicts(&variant, &scenarios)))
        .collect();
    rank(&mut findings);
    findings
}

/// [`sensitivity_sweep`] with the per-decision variant evaluations fanned
/// out across work-stealing worker threads. Each variant re-runs the full
/// scenario space independently, so the sweep parallelizes without any
/// sharing; the result is identical to the sequential sweep (the final
/// ranking is a total order).
#[must_use]
pub fn sensitivity_sweep_parallel(
    problem: &EpaProblem,
    max_faults: usize,
    opts: &crate::parallel::SweepOptions,
) -> Vec<SensitivityFinding> {
    let scenarios: Vec<Scenario> = crate::scenario::ScenarioSpace::new(problem, max_faults)
        .iter()
        .collect();
    let baseline = verdicts(problem, &scenarios);
    let variants = decision_variants(problem);
    let mut findings = crate::parallel::run_stealing(&variants, opts, |(decision, variant)| {
        diff(decision.clone(), &baseline, &verdicts(variant, &scenarios))
    });
    rank(&mut findings);
    findings
}

/// [`sensitivity_sweep`] answered end-to-end by the ASP back-end with
/// **one** shared ground program: the
/// [`EncodeMode::Assumable`](crate::encode::EncodeMode::Assumable)
/// encoding exposes `fault_enabled/1`
/// and `active_mitigation/2` as assumable atoms, so every decision variant
/// is just a different assumption set — no per-variant re-encoding,
/// re-grounding, or problem cloning. Each work item (the baseline plus one
/// per decision) runs on a worker that reuses a single solver across the
/// whole scenario list; queries the conditional well-founded model decides
/// skip the solver. The findings are identical to the topology-based
/// sweep; the two are cross-checked in tests.
///
/// # Errors
///
/// The first [`EpaError`] any variant evaluation produced.
pub fn sensitivity_sweep_incremental(
    problem: &EpaProblem,
    max_faults: usize,
    opts: &crate::parallel::SweepOptions,
) -> Result<Vec<SensitivityFinding>, EpaError> {
    let scenarios: Vec<Scenario> = crate::scenario::ScenarioSpace::new(problem, max_faults)
        .iter()
        .collect();
    let analysis = IncrementalAnalysis::new(problem)?;
    let items: Vec<Option<Decision>> = std::iter::once(None)
        .chain(decisions(problem).into_iter().map(Some))
        .collect();
    let (maps, _) = crate::parallel::run_stealing_with(
        &items,
        opts,
        || analysis.solver(),
        |solver, decision| -> Result<BTreeMap<(Scenario, String), bool>, EpaError> {
            let mut out = BTreeMap::new();
            for s in &scenarios {
                let lits = analysis.assumptions_for(s, decision.as_ref());
                let outcome = match analysis.static_outcome(s, &lits) {
                    Some(outcome) => outcome,
                    None => analysis.outcome_under(solver, s, &lits)?,
                };
                for r in &problem.requirements {
                    out.insert((s.clone(), r.id.clone()), outcome.violated.contains(&r.id));
                }
            }
            Ok(out)
        },
    );
    let mut maps = maps.into_iter();
    let baseline = maps.next().expect("baseline item")?;
    let mut findings = Vec::new();
    for (decision, map) in items.into_iter().skip(1).zip(maps) {
        let decision = decision.expect("non-baseline items carry a decision");
        findings.push(diff(decision, &baseline, &map?));
    }
    rank(&mut findings);
    Ok(findings)
}

/// Every flippable decision, in declaration order.
fn decisions(problem: &EpaProblem) -> Vec<Decision> {
    problem
        .mutations
        .iter()
        .map(|m| Decision::DropMutation(m.id.clone()))
        .chain(
            problem
                .mitigations
                .iter()
                .map(|mit| Decision::ToggleMitigation(mit.id.clone())),
        )
        .collect()
}

/// Every flippable decision paired with the problem variant it induces.
fn decision_variants(problem: &EpaProblem) -> Vec<(Decision, EpaProblem)> {
    let mut variants = Vec::new();
    for m in &problem.mutations {
        let mut variant = problem.clone();
        variant.mutations.retain(|x| x.id != m.id);
        variants.push((Decision::DropMutation(m.id.clone()), variant));
    }
    for mit in &problem.mitigations {
        let mut variant = problem.clone();
        if variant.active_mitigations.contains(&mit.id) {
            variant.deactivate_mitigation(&mit.id);
        } else {
            variant
                .activate_mitigation(&mit.id)
                .expect("mitigation exists in the clone");
        }
        variants.push((Decision::ToggleMitigation(mit.id.clone()), variant));
    }
    variants
}

/// Rank findings by impact (descending), ties broken by decision order.
fn rank(findings: &mut [SensitivityFinding]) {
    findings.sort_by(|a, b| {
        b.flipped_verdicts
            .cmp(&a.flipped_verdicts)
            .then_with(|| a.decision.cmp(&b.decision))
    });
}

/// Verdicts of a problem over a fixed scenario list:
/// `(scenario, requirement) → violated`.
fn verdicts(problem: &EpaProblem, scenarios: &[Scenario]) -> BTreeMap<(Scenario, String), bool> {
    let analysis = TopologyAnalysis::new(problem);
    let mut out = BTreeMap::new();
    for s in scenarios {
        let outcome = analysis.evaluate(s);
        for r in &problem.requirements {
            out.insert((s.clone(), r.id.clone()), outcome.violated.contains(&r.id));
        }
    }
    out
}

fn diff(
    decision: Decision,
    baseline: &BTreeMap<(Scenario, String), bool>,
    variant: &BTreeMap<(Scenario, String), bool>,
) -> SensitivityFinding {
    let mut flipped = 0usize;
    for (k, &v) in baseline {
        if variant.get(k).copied().unwrap_or(false) != v {
            flipped += 1;
        }
    }
    SensitivityFinding {
        decision,
        flipped_verdicts: flipped,
        total_verdicts: baseline.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::CandidateMutation;
    use crate::problem::{MitigationOption, Requirement};
    use cpsrisk_model::{ElementKind, SystemModel};

    fn problem() -> EpaProblem {
        let mut m = SystemModel::new("s");
        m.add_element("valve", "Valve", ElementKind::Equipment)
            .unwrap();
        m.add_element("aux", "Aux", ElementKind::Device).unwrap();
        let mutations = vec![
            CandidateMutation::spontaneous("f_v", "valve", "stuck_at_closed"),
            CandidateMutation::spontaneous("f_aux", "aux", "no_signal"),
        ];
        let requirements = vec![Requirement::all_of(
            "r1",
            "no overflow",
            &[("valve", "stuck_at_closed")],
        )];
        let mitigations = vec![MitigationOption::new("m_v", "Valve Guard", &["f_v"], 10)];
        EpaProblem::new(m, mutations, requirements, mitigations).unwrap()
    }

    #[test]
    fn critical_mutation_is_ranked_first() {
        let findings = sensitivity_sweep(&problem(), usize::MAX);
        assert_eq!(findings[0].decision, Decision::DropMutation("f_v".into()));
        assert!(findings[0].is_sensitive());
        // Dropping the irrelevant aux fault flips nothing.
        let aux = findings
            .iter()
            .find(|f| f.decision == Decision::DropMutation("f_aux".into()))
            .unwrap();
        assert!(!aux.is_sensitive());
    }

    #[test]
    fn mitigation_toggle_is_sensitive_when_it_blocks_the_hazard() {
        let findings = sensitivity_sweep(&problem(), usize::MAX);
        let mit = findings
            .iter()
            .find(|f| f.decision == Decision::ToggleMitigation("m_v".into()))
            .unwrap();
        assert!(mit.is_sensitive(), "activating m_v blocks f_v scenarios");
    }

    #[test]
    fn findings_cover_every_decision() {
        let p = problem();
        let findings = sensitivity_sweep(&p, usize::MAX);
        assert_eq!(findings.len(), p.mutations.len() + p.mitigations.len());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let p = problem();
        let sequential = sensitivity_sweep(&p, usize::MAX);
        for threads in [1, 4] {
            let parallel = sensitivity_sweep_parallel(
                &p,
                usize::MAX,
                &crate::parallel::SweepOptions::with_threads(threads),
            );
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn incremental_sweep_matches_topology_sweep() {
        // Both toggle directions: m_v inactive (activation flips verdicts)
        // and m_v active (deactivation flips them back).
        for activate in [false, true] {
            let mut p = problem();
            if activate {
                p.activate_mitigation("m_v").unwrap();
            }
            let expected = sensitivity_sweep(&p, usize::MAX);
            for threads in [1, 4] {
                let got = sensitivity_sweep_incremental(
                    &p,
                    usize::MAX,
                    &crate::parallel::SweepOptions::with_threads(threads),
                )
                .expect("incremental sweep succeeds");
                assert_eq!(got, expected, "activate = {activate}, threads = {threads}");
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let f = SensitivityFinding {
            decision: Decision::ToggleMitigation("m1".into()),
            flipped_verdicts: 2,
            total_verdicts: 8,
        };
        assert_eq!(f.to_string(), "toggle mitigation m1: 2/8 verdicts flip");
    }
}
