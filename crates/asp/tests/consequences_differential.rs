//! Differential testing of the well-founded analysis stack.
//!
//! Three soundness contracts, each pinned against brute-force enumeration
//! on the naive reference engine ([`Solver::new_reference`]):
//!
//! * the well-founded model **bounds** every stable model — WFM-true
//!   atoms appear in every answer set, WFM-false atoms in none, and a
//!   WFM-detected inconsistency means no answer set exists (so the chain
//!   WFM-true ⊆ cautious ⊆ brave ⊆ not-WFM-false holds);
//! * the backbone simplifier **preserves** the stable-model set exactly
//!   while never growing the program or destroying tightness;
//! * the conditional WFM keeps the same bounds under arbitrary assumption
//!   sets, including contradictory ones.
//!
//! A fourth suite pins [`Solver::brave`] / [`Solver::cautious`] (which
//! seed from the WFM and terminate early on its bounds) to the
//! union/intersection of the brute-forced answer sets, over programs with
//! choices and assumable atoms.
//!
//! A fifth pins the base-conditioned [`WfmBase::query`] to the
//! from-scratch [`well_founded_with`]: the same truth vector, the same
//! `inconsistent` verdict and the same totality, on streams of queries
//! that differ from the base in a few pins — through the cone path (total,
//! consistent bases) and through the fallback (any other base).

use std::collections::BTreeSet;

use proptest::prelude::*;

use cpsrisk_asp::ast::Atom;
use cpsrisk_asp::{
    simplify_with, well_founded, well_founded_with, GroundProgram, Grounder, Lit, Program,
    SolveOptions, Solver, WfmBase,
};

/// A random program over atoms a0..a{n-1}: facts, normal rules, choices,
/// and constraints — the shapes the WFM has to approximate soundly.
fn arb_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let atom = move || (0..n_atoms).prop_map(|i| format!("a{i}"));
    let rule = prop_oneof![
        atom().prop_map(|h| format!("{h}.")),
        (atom(), arb_body(n_atoms, 4)).prop_map(|(h, b)| format!("{h} :- {b}.")),
        arb_body(n_atoms, 3).prop_map(|b| format!(":- {b}.")),
        prop::collection::vec(atom(), 1..4)
            .prop_map(|atoms| format!("{{ {} }}.", atoms.join("; "))),
    ];
    prop::collection::vec(rule, 1..10).prop_map(|rules| rules.join("\n"))
}

/// Ground with a random subset of the atom universe marked assumable, so
/// the WFM's "assumables stay undefined" rule is exercised.
fn ground_with_assumables(src: &str, assumable: &[usize]) -> GroundProgram {
    let program: Program = src.parse().expect("generated programs parse");
    let mut grounder = Grounder::new();
    for &i in assumable {
        grounder = grounder.assumable(&format!("a{i}"), 0);
    }
    grounder
        .ground(&program)
        .expect("generated programs ground")
}

fn ground(src: &str) -> GroundProgram {
    ground_with_assumables(src, &[])
}

/// A body of 1..max literals over a0..a{n-1}.
fn arb_body(n_atoms: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec((0..n_atoms, any::<bool>()), 1..max).prop_map(|lits| {
        lits.into_iter()
            .map(|(a, neg)| {
                if neg {
                    format!("not a{a}")
                } else {
                    format!("a{a}")
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    })
}

/// A bounded choice rule over a0..a{n-1}, with an optional body and
/// guarded elements: a cardinality constraint for the WFM to check.
fn arb_card(n_atoms: usize) -> impl Strategy<Value = String> {
    let element = (0..n_atoms, 0..n_atoms, 0u8..3).prop_map(|(a, g, kind)| match kind {
        0 => format!("a{a}"),
        1 => format!("a{a} : a{g}"),
        _ => format!("a{a} : not a{g}"),
    });
    (
        prop::collection::vec(element, 1..4),
        0u32..3,
        0u32..3,
        any::<bool>(),
        arb_body(n_atoms, 3),
    )
        .prop_map(|(elements, lo, width, has_body, body)| {
            let head = format!("{lo} {{ {} }} {}", elements.join("; "), lo + width);
            if has_body {
                format!("{head} :- {body}.")
            } else {
                format!("{head}.")
            }
        })
}

/// [`arb_program`] plus cardinality rules.
fn arb_program_with_cards(n_atoms: usize) -> impl Strategy<Value = String> {
    (
        arb_program(n_atoms),
        prop::collection::vec(arb_card(n_atoms), 0..3),
    )
        .prop_map(|(rules, cards)| format!("{rules}\n{}", cards.join("\n")))
}

/// A stratified program over a0..a{n-1}: a free choice over a0..a2 (the
/// inputs a base pins), rules whose negative body atoms precede their
/// head (positive ones are free, so positive loops occur), facts,
/// constraints and cardinality rules. With every input pinned its WFM is
/// total.
fn arb_stratified_program(n_atoms: usize) -> impl Strategy<Value = String> {
    let rule = (
        3..n_atoms,
        prop::collection::vec((0..n_atoms, any::<bool>()), 1..4),
    )
        .prop_map(|(h, lits)| {
            let body: Vec<String> = lits
                .into_iter()
                .map(|(a, neg)| {
                    if neg {
                        format!("not a{}", a % h)
                    } else {
                        format!("a{a}")
                    }
                })
                .collect();
            format!("a{h} :- {}.", body.join(", "))
        });
    let fact = (3..n_atoms).prop_map(|h| format!("a{h}."));
    let constraint = arb_body(n_atoms, 3).prop_map(|b| format!(":- {b}."));
    let card = (prop::collection::vec(0..3usize, 1..4), 0u32..3, 0u32..2).prop_map(
        |(inputs, lo, width)| {
            let elements: Vec<String> = inputs.iter().map(|i| format!("a{i}")).collect();
            format!("{lo} {{ {} }} {}.", elements.join("; "), lo + width)
        },
    );
    let statement = prop_oneof![
        rule.clone(),
        rule.clone(),
        rule.clone(),
        rule,
        fact,
        constraint,
        card
    ];
    prop::collection::vec(statement, 1..12)
        .prop_map(|rules| format!("{{ a0; a1; a2 }}.\n{}", rules.join("\n")))
}

/// One edit turning base pins into a query: flip a base pin, pin an atom
/// either way (an atom the base leaves free is then pinned only in the
/// query), drop every base pin of an atom (pinned only in the base), pin
/// it both ways (contradictory), or repeat a base pin (duplicate).
fn arb_edit(n_atoms: usize) -> impl Strategy<Value = (usize, u8)> {
    (0..n_atoms, 0u8..6)
}

fn apply_edits(base: &[(usize, bool)], edits: &[(usize, u8)]) -> Vec<(usize, bool)> {
    let mut query = base.to_vec();
    for &(a, op) in edits {
        let base_pin = base.get(a % base.len().max(1)).copied();
        match (op, base_pin) {
            (0, Some((b, positive))) => query.push((b, !positive)),
            (1, _) => query.push((a, true)),
            (2, _) => query.push((a, false)),
            (3, _) => query.retain(|&(b, _)| b != a),
            (4, _) => query.extend([(a, true), (a, false)]),
            (_, Some(pin)) => query.push(pin),
            (_, None) => {}
        }
    }
    query
}

/// `WfmBase` over `g` under `base` agrees with the from-scratch WFM on
/// the base and on every query.
fn check_base_queries(
    g: &GroundProgram,
    base: &[(usize, bool)],
    queries: &[Vec<(usize, u8)>],
    src: &str,
) -> Result<(), TestCaseError> {
    let base_lits = lits(g, base);
    let resident = WfmBase::new(g.clone(), &base_lits);
    prop_assert_eq!(
        resident.model(),
        &well_founded_with(g, &base_lits),
        "base {:?}:\n{}",
        base,
        src
    );
    for edits in queries {
        let query = apply_edits(base, edits);
        let query_lits = lits(g, &query);
        let got = resident.query(&query_lits);
        let want = well_founded_with(g, &query_lits);
        prop_assert_eq!(got.total(), want.total(), "query {:?}:\n{}", query, src);
        prop_assert_eq!(&got, &want, "base {:?}, query {:?}:\n{}", base, query, src);
    }
    Ok(())
}

/// Every answer set as a sorted set of atom strings, via the reference
/// engine (itself pinned by the brute-force suite).
fn brute_models(g: &GroundProgram) -> Vec<BTreeSet<String>> {
    let mut models: Vec<BTreeSet<String>> = Solver::new_reference(g)
        .enumerate(&SolveOptions::default())
        .expect("within budget")
        .models
        .iter()
        .map(|m| m.atoms.iter().map(ToString::to_string).collect())
        .collect();
    models.sort();
    models
}

/// Same, under an assumption set.
fn brute_models_under(g: &GroundProgram, lits: &[Lit]) -> Vec<BTreeSet<String>> {
    let mut models: Vec<BTreeSet<String>> = Solver::new_reference(g)
        .solve_with_assumptions(lits, &SolveOptions::default())
        .expect("within budget")
        .models
        .iter()
        .map(|m| m.atoms.iter().map(ToString::to_string).collect())
        .collect();
    models.sort();
    models
}

fn names(g: &GroundProgram, ids: impl Iterator<Item = cpsrisk_asp::AtomId>) -> BTreeSet<String> {
    ids.map(|id| g.atom(id).to_string()).collect()
}

/// Resolve `(index, polarity)` pairs against the interned atoms; atoms the
/// grounder dropped cannot be assumed and are skipped.
fn lits(g: &GroundProgram, set: &[(usize, bool)]) -> Vec<Lit> {
    set.iter()
        .filter_map(|&(i, positive)| {
            g.lookup(&Atom::prop(format!("a{i}")))
                .map(|atom| Lit { atom, positive })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WFM-true ⊆ every model, WFM-false ∩ every model = ∅, and a WFM
    /// inconsistency verdict implies there are no models at all.
    #[test]
    fn wfm_bounds_every_stable_model(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let wfm = well_founded(&g);
        let models = brute_models(&g);
        if wfm.inconsistent {
            prop_assert!(models.is_empty(), "WFM refuted a satisfiable program:\n{}", src);
            return Ok(());
        }
        let wfm_true = names(&g, wfm.true_atoms());
        let wfm_false = names(&g, wfm.false_atoms());
        for m in &models {
            prop_assert!(
                wfm_true.is_subset(m),
                "WFM-true {:?} not in model {:?}, program:\n{}", wfm_true, m, src
            );
            prop_assert!(
                wfm_false.is_disjoint(m),
                "WFM-false {:?} intersects model {:?}, program:\n{}", wfm_false, m, src
            );
        }
        // A total consistent WFM pins the unique answer set exactly.
        if wfm.total() && !models.is_empty() {
            prop_assert_eq!(models.len(), 1, "total WFM, program:\n{}", src);
            prop_assert_eq!(&models[0], &wfm_true, "total WFM, program:\n{}", src);
        }
    }

    /// Simplifying against the backbone is model-preserving, never grows
    /// the rule set, and never destroys the tightness certificate.
    #[test]
    fn simplification_preserves_the_model_set(
        src in arb_program(7),
        assumable in prop::collection::btree_set(0usize..7, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let s = simplify_with(&g, &well_founded(&g));
        prop_assert_eq!(
            brute_models(&s.program), brute_models(&g),
            "model set changed, program:\n{}", src
        );
        prop_assert!(
            s.rules_after <= s.rules_before,
            "simplification grew the program ({} -> {}):\n{}",
            s.rules_before, s.rules_after, src
        );
        prop_assert!(
            s.tight_after || !s.tight_before,
            "simplification destroyed tightness:\n{}", src
        );
    }

    /// The conditional WFM keeps the same bounds under every assumption
    /// set — including contradictory sets, where it must not claim an
    /// inconsistency that solving disproves.
    #[test]
    fn conditional_wfm_bounds_models_under_assumptions(
        src in arb_program(6),
        sets in prop::collection::vec(
            prop::collection::vec((0usize..6, any::<bool>()), 0..4),
            1..5,
        ),
    ) {
        let g = ground(&src);
        for set in &sets {
            let assumptions = lits(&g, set);
            let wfm = well_founded_with(&g, &assumptions);
            let models = brute_models_under(&g, &assumptions);
            if wfm.inconsistent {
                prop_assert!(
                    models.is_empty(),
                    "conditional WFM refuted a satisfiable query {:?}:\n{}", set, src
                );
                continue;
            }
            let wfm_true = names(&g, wfm.true_atoms());
            let wfm_false = names(&g, wfm.false_atoms());
            for m in &models {
                prop_assert!(
                    wfm_true.is_subset(m),
                    "conditional WFM-true escaped a model, query {:?}:\n{}", set, src
                );
                prop_assert!(
                    wfm_false.is_disjoint(m),
                    "conditional WFM-false entered a model, query {:?}:\n{}", set, src
                );
            }
        }
    }

    /// `brave()` / `cautious()` — which seed from the WFM and cut the
    /// enumeration short on its bounds — equal the union / intersection
    /// of the brute-forced answer sets (both empty when no answer set
    /// exists).
    #[test]
    fn brave_and_cautious_match_brute_force(
        src in arb_program(6),
        assumable in prop::collection::btree_set(0usize..6, 0..3),
    ) {
        let assumable: Vec<usize> = assumable.into_iter().collect();
        let g = ground_with_assumables(&src, &assumable);
        let models = brute_models(&g);
        let union: BTreeSet<String> = models.iter().flatten().cloned().collect();
        let intersection: BTreeSet<String> = models
            .first()
            .map(|first| {
                models[1..]
                    .iter()
                    .fold(first.clone(), |acc, m| acc.intersection(m).cloned().collect())
            })
            .unwrap_or_default();
        let opts = SolveOptions::default();
        let brave: BTreeSet<String> = Solver::new(&g)
            .brave(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        let cautious: BTreeSet<String> = Solver::new(&g)
            .cautious(&opts)
            .expect("within budget")
            .iter()
            .map(ToString::to_string)
            .collect();
        prop_assert_eq!(&brave, &union, "brave vs union, program:\n{}", src);
        prop_assert_eq!(&cautious, &intersection, "cautious vs intersection, program:\n{}", src);
        // The approximation chain the module docs promise.
        let wfm = well_founded(&g);
        if !wfm.inconsistent && !models.is_empty() {
            prop_assert!(names(&g, wfm.true_atoms()).is_subset(&cautious), "program:\n{}", src);
            prop_assert!(names(&g, wfm.false_atoms()).is_disjoint(&brave), "program:\n{}", src);
        }
    }

    /// Base-conditioned queries equal the from-scratch conditional WFM on
    /// random programs with constraints and cardinality rules and random
    /// base pins — mostly non-total bases, so mostly the fallback path.
    #[test]
    fn wfm_base_queries_match_from_scratch(
        src in arb_program_with_cards(7),
        base in prop::collection::vec((0usize..7, any::<bool>()), 0..6),
        queries in prop::collection::vec(prop::collection::vec(arb_edit(7), 0..4), 1..6),
    ) {
        check_base_queries(&ground(&src), &base, &queries, &src)?;
    }
}

/// Base-conditioned queries equal the from-scratch conditional WFM on
/// stratified programs whose base pins every choice input: the base is
/// total, so the queries take the cone path whenever it is also
/// consistent — at least a quarter of the sampled cases must.
#[test]
fn wfm_base_cone_queries_match_from_scratch() {
    use proptest::test_runner::TestRng;
    const CASES: usize = 256;
    let program = arb_stratified_program(9);
    let base = (
        prop::collection::vec(any::<bool>(), 3),
        prop::collection::vec((0usize..9, any::<bool>()), 0..3),
    )
        .prop_map(|(inputs, extra)| {
            inputs
                .into_iter()
                .enumerate()
                .chain(extra)
                .collect::<Vec<(usize, bool)>>()
        });
    let queries = prop::collection::vec(prop::collection::vec(arb_edit(9), 0..4), 1..8);
    let mut rng = TestRng::from_name("wfm_base_cone_queries_match_from_scratch");
    let mut cone_cases = 0;
    for case in 0..CASES {
        let src = program.sample(&mut rng);
        let base = base.sample(&mut rng);
        let queries = queries.sample(&mut rng);
        let g = ground(&src);
        let model = well_founded_with(&g, &lits(&g, &base));
        if model.total() && !model.inconsistent {
            cone_cases += 1;
        }
        if let Err(e) = check_base_queries(&g, &base, &queries, &src) {
            panic!("case {case}: {e}");
        }
    }
    assert!(
        cone_cases * 4 >= CASES,
        "only {cone_cases} of {CASES} cases had a total, consistent base"
    );
}
