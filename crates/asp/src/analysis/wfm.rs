//! Well-founded model analysis — a polynomial-time static verdict engine.
//!
//! [`well_founded`] computes van Gelder's alternating fixpoint over a
//! [`GroundProgram`]: the certainly-true set `T` grows and the
//! possibly-true set `P` shrinks until both stabilize, yielding a sound
//! 3-valued approximation of **every** stable model — an atom reported
//! [`Truth::True`] is in every answer set, one reported [`Truth::False`]
//! is in none, and only [`Truth::Undefined`] atoms need search. Choice
//! atoms (and therefore assumables, which are choice-supported facts) are
//! never certainly derived, so nondeterminism surfaces as `Undefined`
//! rather than as unsoundness.
//!
//! Each half-step is a least-model computation over a reduct, reusing the
//! semi-naive worklist scheme of
//! [`check::least_model_of_reduct`](crate::check::least_model_of_reduct):
//! CSR positive-occurrence lists, per-rule missing counters, and a
//! derivation stack — every body literal is visited O(1) times per
//! half-step, and the alternation converges in at most `atom_count`
//! rounds (two or three in practice).
//!
//! [`well_founded_with`] is the assumption-aware conditional variant: the
//! assumed literals are pinned before the fixpoint, so the result
//! approximates the stable models *satisfying the assumptions*. When the
//! conditional WFM is total and consistent, its true set **is** the unique
//! answer set under those assumptions — the static fast path the EPA
//! scenario sweeps use to answer verdict queries without search.
//!
//! # Base-conditioned queries
//!
//! A stream of conditional queries that each differ from one base
//! assumption set in a few atoms is answered by [`WfmBase`]: the WFM under
//! the base assumptions is computed once, and each
//! [`query`](WfmBase::query) re-derives only the **forward cone** of the
//! atoms whose effective pin differs from the base — the closure of those
//! atoms through positive and negative body occurrences to rule heads
//! (atom and choice heads alike). Every rule whose head lies outside the
//! cone has its whole body outside the cone, so the out-of-cone atoms form
//! a splitting set: a bottom part whose rules and pins are the same as the
//! base's. The WFM respects splitting sets (the alternating-fixpoint
//! operator restricted to the bottom reads only the bottom), so the
//! bottom's truth is the base's, and the top's is the alternating fixpoint
//! over the cone's rules with the bottom fixed at that truth. Only the
//! integrity constraints and cardinality constraints that mention a cone
//! atom need re-checking; the others are decided as in the base.
//!
//! The cone path needs a total, consistent base: then every out-of-cone
//! atom is a plain fact or non-fact in both half-steps. Otherwise each
//! query falls back to the from-scratch fixpoint. [`well_founded_with`]
//! stays the from-scratch entry point and the oracle the cone path is
//! differentially tested against.

use crate::program::{AtomId, CardConstraint, GroundHead, GroundProgram, GroundRule};
use crate::solve::Lit;

/// Three-valued truth under the well-founded semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// In every stable model.
    True,
    /// In no stable model.
    False,
    /// Not decided by the polynomial approximation.
    Undefined,
}

/// The well-founded model of a ground program (possibly conditioned on
/// assumptions), as produced by [`well_founded`] / [`well_founded_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfmResult {
    truth: Vec<Truth>,
    /// Atoms certainly in every stable model.
    pub true_count: usize,
    /// Atoms certainly in no stable model.
    pub false_count: usize,
    /// The approximation proves there is no stable model at all: an
    /// integrity constraint (or cardinality bound, or an assumed-false
    /// atom) is violated by the certain part alone.
    pub inconsistent: bool,
}

impl WfmResult {
    /// The 3-valued verdict for one atom.
    #[must_use]
    pub fn value(&self, id: AtomId) -> Truth {
        self.truth[id.index()]
    }

    /// Is the atom certainly in every stable model?
    #[must_use]
    pub fn is_true(&self, id: AtomId) -> bool {
        self.truth[id.index()] == Truth::True
    }

    /// Is the atom certainly in no stable model?
    #[must_use]
    pub fn is_false(&self, id: AtomId) -> bool {
        self.truth[id.index()] == Truth::False
    }

    /// Number of atoms in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// True when the program has no atoms at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Atoms left undefined by the approximation.
    #[must_use]
    pub fn undefined_count(&self) -> usize {
        self.len() - self.true_count - self.false_count
    }

    /// Every atom is decided: the WFM is 2-valued. A total, consistent
    /// WFM's true set is the unique stable model.
    #[must_use]
    pub fn total(&self) -> bool {
        self.undefined_count() == 0
    }

    /// Fraction of atoms decided (`1.0` for the empty program).
    #[must_use]
    pub fn decided_fraction(&self) -> f64 {
        if self.truth.is_empty() {
            return 1.0;
        }
        (self.true_count + self.false_count) as f64 / self.truth.len() as f64
    }

    /// The certainly-true atoms, in id order.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Truth::True)
            .map(|(i, _)| AtomId(i as u32))
    }

    /// The certainly-false atoms, in id order.
    pub fn false_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.truth
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == Truth::False)
            .map(|(i, _)| AtomId(i as u32))
    }
}

/// The unconditional well-founded model: no atoms pinned, choice atoms and
/// assumables free.
#[must_use]
pub fn well_founded(program: &GroundProgram) -> WfmResult {
    well_founded_with(program, &[])
}

/// The conditional well-founded model under `assumptions`: assumed-true
/// atoms join the certain set as facts, assumed-false atoms are removed
/// from every derivation. Sound w.r.t. the stable models that satisfy the
/// assumptions; `inconsistent` is set when the certain part alone
/// contradicts a constraint, a cardinality bound, or an assumed-false atom
/// (no such model exists). Later assumptions on the same atom win, and a
/// directly contradictory pair marks the result inconsistent.
#[must_use]
pub fn well_founded_with(program: &GroundProgram, assumptions: &[Lit]) -> WfmResult {
    let rules = &program.rules;
    let pos = Csr::build(program.atom_count(), rules.len(), |ri| {
        rules[ri].pos.iter().copied()
    });
    fixpoint(program, &pos, &Pins::new(program.atom_count(), assumptions))
}

/// Compressed-sparse-row occurrence lists: for each atom, the items (rules
/// or cardinality constraints) it occurs in, in one role.
#[derive(Debug)]
struct Csr {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Index items `0..n_items` by the atoms `atoms_of(item)` yields; an
    /// atom yielded twice for one item lists that item twice.
    fn build<I: Iterator<Item = AtomId>>(
        n_atoms: usize,
        n_items: usize,
        atoms_of: impl Fn(usize) -> I,
    ) -> Csr {
        let mut off = vec![0u32; n_atoms + 1];
        for item in 0..n_items {
            for a in atoms_of(item) {
                off[a.index() + 1] += 1;
            }
        }
        for i in 0..n_atoms {
            off[i + 1] += off[i];
        }
        let mut items = vec![0u32; off[n_atoms] as usize];
        let mut cursor = off.clone();
        for item in 0..n_items {
            for a in atoms_of(item) {
                items[cursor[a.index()] as usize] = item as u32;
                cursor[a.index()] += 1;
            }
        }
        Csr { off, items }
    }

    /// The items atom `a` occurs in.
    fn of(&self, a: usize) -> &[u32] {
        &self.items[self.off[a] as usize..self.off[a + 1] as usize]
    }
}

/// Effective assumption pins: the last assumption on an atom wins.
#[derive(Debug)]
struct Pins {
    assumed_true: Vec<bool>,
    assumed_false: Vec<bool>,
    /// Some atom was assumed both ways.
    contradictory: bool,
}

impl Pins {
    fn new(n_atoms: usize, assumptions: &[Lit]) -> Pins {
        let mut pins = Pins {
            assumed_true: vec![false; n_atoms],
            assumed_false: vec![false; n_atoms],
            contradictory: false,
        };
        for l in assumptions {
            let i = l.atom.index();
            if l.positive {
                pins.contradictory |= pins.assumed_false[i];
            } else {
                pins.contradictory |= pins.assumed_true[i];
            }
            pins.assumed_true[i] = l.positive;
            pins.assumed_false[i] = !l.positive;
        }
        pins
    }

    /// `(assumed true, assumed false)` for atom `a`.
    fn pin(&self, a: usize) -> (bool, bool) {
        (self.assumed_true[a], self.assumed_false[a])
    }
}

/// The head atom of an atom or choice rule.
fn head_atom(head: GroundHead) -> Option<AtomId> {
    match head {
        GroundHead::Atom(h) | GroundHead::Choice(h) => Some(h),
        GroundHead::None => None,
    }
}

/// The from-scratch alternating fixpoint under `pins`, over the
/// positive-occurrence index `pos` of `program`.
fn fixpoint(program: &GroundProgram, pos: &Csr, pins: &Pins) -> WfmResult {
    let n_atoms = program.atom_count();
    let rules = &program.rules;
    let Pins {
        assumed_true,
        assumed_false,
        contradictory,
    } = pins;

    // One monotone half-step: the least set closed under the rules, where
    // `certain` selects the underestimate (choice heads never fire; `not
    // n` holds iff n is outside `opposite`, the current possible set) or
    // the overestimate (choice heads fire; `not n` holds iff n is outside
    // `opposite`, the current certain set). Assumed-true atoms always
    // join; assumed-false atoms never fire as heads in the overestimate —
    // in the underestimate they still derive, so a forced assumed-false
    // atom is caught as an inconsistency afterwards.
    let gamma = |certain: bool, opposite: &[bool]| -> Vec<bool> {
        let mut derived = vec![false; n_atoms];
        let mut missing: Vec<u32> = rules.iter().map(|r| r.pos.len() as u32).collect();
        let mut stack: Vec<u32> = Vec::new();
        let push = |a: usize, derived: &mut Vec<bool>, stack: &mut Vec<u32>| {
            if !derived[a] {
                derived[a] = true;
                stack.push(a as u32);
            }
        };
        for (a, &t) in assumed_true.iter().enumerate() {
            if t {
                push(a, &mut derived, &mut stack);
            }
        }
        let fire = |ri: usize, derived: &mut Vec<bool>, stack: &mut Vec<u32>| {
            let r = &rules[ri];
            let h = match r.head {
                GroundHead::Atom(h) => h,
                GroundHead::Choice(h) if !certain => h,
                _ => return,
            };
            if !certain && assumed_false[h.index()] {
                return;
            }
            if r.neg.iter().any(|n| opposite[n.index()]) {
                return;
            }
            push(h.index(), derived, stack);
        };
        for ri in (0..rules.len()).filter(|&ri| missing[ri] == 0) {
            fire(ri, &mut derived, &mut stack);
        }
        while let Some(a) = stack.pop() {
            for &ri in pos.of(a as usize) {
                let ri = ri as usize;
                missing[ri] -= 1;
                if missing[ri] == 0 {
                    fire(ri, &mut derived, &mut stack);
                }
            }
        }
        derived
    };

    // Alternate: T_0 = assumed-true; P = Γ_over(T); T' = Γ_under(P); the
    // under-approximation grows monotonically, so the loop terminates in
    // at most `n_atoms + 1` rounds.
    let mut certain = assumed_true.clone();
    let mut possible;
    loop {
        possible = gamma(false, &certain);
        let next = gamma(true, &possible);
        if next == certain {
            break;
        }
        certain = next;
    }

    let mut truth = vec![Truth::Undefined; n_atoms];
    let mut true_count = 0;
    let mut false_count = 0;
    for i in 0..n_atoms {
        if certain[i] {
            truth[i] = Truth::True;
            true_count += 1;
        } else if !possible[i] {
            truth[i] = Truth::False;
            false_count += 1;
        }
    }

    // An assumed-false atom the certain derivation forces true means no
    // stable model satisfies the assumptions.
    let bounds = Bounds {
        certain: &certain,
        possible: &possible,
    };
    let inconsistent = *contradictory
        || (0..n_atoms).any(|i| assumed_false[i] && certain[i])
        || rules.iter().any(|r| bounds.violates(r))
        || program.cards.iter().any(|c| bounds.refutes(c));

    WfmResult {
        truth,
        true_count,
        false_count,
        inconsistent,
    }
}

/// The certain and possible sets of a finished alternating fixpoint, read
/// by the inconsistency checks.
struct Bounds<'a> {
    certain: &'a [bool],
    possible: &'a [bool],
}

impl Bounds<'_> {
    /// Positives certainly true and negatives certainly false.
    fn certainly(&self, pos: &[AtomId], neg: &[AtomId]) -> bool {
        pos.iter().all(|p| self.certain[p.index()]) && neg.iter().all(|n| !self.possible[n.index()])
    }

    /// An integrity constraint whose body certainly holds rules out every
    /// stable model.
    fn violates(&self, r: &GroundRule) -> bool {
        matches!(r.head, GroundHead::None) && self.certainly(&r.pos, &r.neg)
    }

    /// Conservative cardinality refutation: with the body certainly
    /// satisfied, the certainly-held element count already exceeds the
    /// upper bound, or even counting every possibly-held element cannot
    /// reach the lower bound.
    fn refutes(&self, c: &CardConstraint) -> bool {
        if !self.certainly(&c.pos, &c.neg) {
            return false;
        }
        let mut held_certain = 0u32;
        let mut held_possible = 0u32;
        for e in &c.elements {
            let a = e.atom.index();
            let guard_certain = self.certainly(&e.guard_pos, &e.guard_neg);
            // The guard possibly holds unless a positive guard is certainly
            // false or a negative guard certainly true.
            let guard_possible = e.guard_pos.iter().all(|p| self.possible[p.index()])
                && e.guard_neg.iter().all(|n| !self.certain[n.index()]);
            if self.certain[a] && guard_certain {
                held_certain += 1;
            }
            if self.possible[a] && guard_possible {
                held_possible += 1;
            }
        }
        held_certain > c.upper || held_possible < c.lower
    }
}

/// Missing-counter value of a cone rule that cannot fire in the current
/// half-step: a positive body atom outside the cone does not hold.
const DEAD: u32 = u32::MAX;

/// The well-founded model under a fixed set of base assumptions, kept
/// resident to answer conditional queries that differ from the base in a
/// few pins (see the module docs, "Base-conditioned queries").
///
/// Owns the ground program and its occurrence index: the positive- and
/// negative-body, head and cardinality-constraint lists of every atom,
/// built once.
#[derive(Debug)]
pub struct WfmBase {
    program: GroundProgram,
    pos: Csr,
    neg: Csr,
    heads: Csr,
    cards: Csr,
    pins: Pins,
    /// The atoms the base assumptions pin, each once.
    pinned: Vec<u32>,
    model: WfmResult,
    /// The base's true set; with a total base also its possible set.
    holds: Vec<bool>,
}

impl WfmBase {
    /// Index `program` and compute its well-founded model under
    /// `base_assumptions` (exactly [`well_founded_with`]'s result).
    #[must_use]
    pub fn new(program: GroundProgram, base_assumptions: &[Lit]) -> WfmBase {
        let n = program.atom_count();
        let rules = &program.rules;
        let pos = Csr::build(n, rules.len(), |ri| rules[ri].pos.iter().copied());
        let neg = Csr::build(n, rules.len(), |ri| rules[ri].neg.iter().copied());
        let heads = Csr::build(n, rules.len(), |ri| head_atom(rules[ri].head).into_iter());
        let cards = Csr::build(n, program.cards.len(), |ci| {
            let c = &program.cards[ci];
            c.pos
                .iter()
                .chain(&c.neg)
                .chain(c.elements.iter().flat_map(|e| {
                    std::iter::once(&e.atom)
                        .chain(&e.guard_pos)
                        .chain(&e.guard_neg)
                }))
                .copied()
        });
        let pins = Pins::new(n, base_assumptions);
        let model = fixpoint(&program, &pos, &pins);
        let holds = model.truth.iter().map(|t| *t == Truth::True).collect();
        let mut pinned: Vec<u32> = base_assumptions.iter().map(|l| l.atom.0).collect();
        pinned.sort_unstable();
        pinned.dedup();
        WfmBase {
            program,
            pos,
            neg,
            heads,
            cards,
            pins,
            pinned,
            model,
            holds,
        }
    }

    /// The ground program.
    #[must_use]
    pub fn program(&self) -> &GroundProgram {
        &self.program
    }

    /// The well-founded model under the base assumptions.
    #[must_use]
    pub fn model(&self) -> &WfmResult {
        &self.model
    }

    /// The conditional well-founded model under `assumptions` — the same
    /// result as [`well_founded_with`] on the base's program — re-derived
    /// over the forward cone of the atoms whose effective pin differs from
    /// the base's (an atom pinned in only one of the two counts as
    /// changed). Falls back to the from-scratch fixpoint when the base is
    /// not total or is inconsistent.
    #[must_use]
    pub fn query(&self, assumptions: &[Lit]) -> WfmResult {
        let n = self.program.atom_count();
        let rules = &self.program.rules;
        let pins = Pins::new(n, assumptions);
        if self.model.inconsistent || !self.model.total() {
            return fixpoint(&self.program, &self.pos, &pins);
        }

        // The cone: the changed atoms, closed forward through positive and
        // negative body occurrences to atom and choice heads.
        let mut in_cone = vec![false; n];
        let mut cone: Vec<u32> = Vec::new();
        let roots = assumptions
            .iter()
            .map(|l| l.atom.0)
            .chain(self.pinned.iter().copied());
        for a in roots {
            let i = a as usize;
            if !in_cone[i] && pins.pin(i) != self.pins.pin(i) {
                in_cone[i] = true;
                cone.push(a);
            }
        }
        let mut next = 0;
        while let Some(&a) = cone.get(next) {
            next += 1;
            let a = a as usize;
            for &ri in self.pos.of(a).iter().chain(self.neg.of(a)) {
                if let Some(h) = head_atom(rules[ri as usize].head) {
                    if !in_cone[h.index()] {
                        in_cone[h.index()] = true;
                        cone.push(h.0);
                    }
                }
            }
        }
        let cone_rules: Vec<u32> = cone
            .iter()
            .flat_map(|&a| self.heads.of(a as usize))
            .copied()
            .collect();
        let scope = Cone {
            atoms: &cone,
            rules: &cone_rules,
            member: &in_cone,
        };

        // The alternating fixpoint over the cone, every other atom fixed
        // at its base truth.
        let mut certain = self.holds.clone();
        for &a in &cone {
            certain[a as usize] = pins.assumed_true[a as usize];
        }
        let mut possible = self.holds.clone();
        let mut under = self.holds.clone();
        let mut missing = vec![0u32; rules.len()];
        loop {
            self.cone_step(&scope, &pins, false, &certain, &mut possible, &mut missing);
            self.cone_step(&scope, &pins, true, &possible, &mut under, &mut missing);
            if cone
                .iter()
                .all(|&a| under[a as usize] == certain[a as usize])
            {
                break;
            }
            for &a in &cone {
                certain[a as usize] = under[a as usize];
            }
        }

        let mut truth = self.model.truth.clone();
        let mut true_count = self.model.true_count;
        let mut false_count = self.model.false_count;
        for &a in &cone {
            let a = a as usize;
            // A total base has every cone atom true or false.
            if truth[a] == Truth::True {
                true_count -= 1;
            } else {
                false_count -= 1;
            }
            truth[a] = if certain[a] {
                true_count += 1;
                Truth::True
            } else if !possible[a] {
                false_count += 1;
                Truth::False
            } else {
                Truth::Undefined
            };
        }

        // Out of the cone the consistent base's checks stand; re-check the
        // pins, constraints and cardinality constraints the cone touches.
        let bounds = Bounds {
            certain: &certain,
            possible: &possible,
        };
        let inconsistent = pins.contradictory
            || cone.iter().any(|&a| {
                let a = a as usize;
                (pins.assumed_false[a] && certain[a])
                    || self
                        .pos
                        .of(a)
                        .iter()
                        .chain(self.neg.of(a))
                        .any(|&ri| bounds.violates(&rules[ri as usize]))
                    || self
                        .cards
                        .of(a)
                        .iter()
                        .any(|&ci| bounds.refutes(&self.program.cards[ci as usize]))
            });

        WfmResult {
            truth,
            true_count,
            false_count,
            inconsistent,
        }
    }

    /// One half-step of the alternating fixpoint over the cone: the least
    /// set of cone atoms closed under the cone's rules, written to `out`,
    /// whose entries outside the cone hold the base truth. `under` selects
    /// the underestimate (choice heads never fire; `not n` holds iff n is
    /// outside `opposite`, the possible set) or the overestimate (choice
    /// heads fire unless assumed false; `not n` holds iff n is outside
    /// `opposite`, the certain set) — the same half-steps as the
    /// from-scratch fixpoint.
    fn cone_step(
        &self,
        cone: &Cone<'_>,
        pins: &Pins,
        under: bool,
        opposite: &[bool],
        out: &mut [bool],
        missing: &mut [u32],
    ) {
        let rules = &self.program.rules;
        let mut stack: Vec<u32> = Vec::new();
        for &a in cone.atoms {
            out[a as usize] = pins.assumed_true[a as usize];
            if out[a as usize] {
                stack.push(a);
            }
        }
        let fire = |ri: usize, out: &mut [bool], stack: &mut Vec<u32>| {
            let r = &rules[ri];
            let h = match r.head {
                GroundHead::Atom(h) => h,
                GroundHead::Choice(h) if !under => h,
                _ => return,
            };
            if !under && pins.assumed_false[h.index()] {
                return;
            }
            if r.neg.iter().any(|n| opposite[n.index()]) {
                return;
            }
            if !out[h.index()] {
                out[h.index()] = true;
                stack.push(h.0);
            }
        };
        for &ri in cone.rules {
            let ri = ri as usize;
            let mut waiting = 0u32;
            for p in &rules[ri].pos {
                if cone.member[p.index()] {
                    waiting += 1;
                } else if !out[p.index()] {
                    waiting = DEAD;
                    break;
                }
            }
            missing[ri] = waiting;
            if waiting == 0 {
                fire(ri, out, &mut stack);
            }
        }
        while let Some(a) = stack.pop() {
            // Every rule a cone atom occurs in positively is a cone rule
            // or an integrity constraint.
            for &ri in self.pos.of(a as usize) {
                let ri = ri as usize;
                if matches!(rules[ri].head, GroundHead::None) || missing[ri] == DEAD {
                    continue;
                }
                missing[ri] -= 1;
                if missing[ri] == 0 {
                    fire(ri, out, &mut stack);
                }
            }
        }
    }
}

/// The atoms and rules a [`WfmBase::query`] re-derives.
struct Cone<'a> {
    atoms: &'a [u32],
    /// The rules whose head is in the cone.
    rules: &'a [u32],
    /// Cone membership by atom index.
    member: &'a [bool],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parse;

    fn ground(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    fn value(g: &GroundProgram, w: &WfmResult, name: &str) -> Truth {
        let id = g
            .atoms()
            .find(|(_, a)| a.to_string() == name)
            .unwrap_or_else(|| panic!("atom {name} not interned"))
            .0;
        w.value(id)
    }

    #[test]
    fn stratified_programs_are_total() {
        let g = ground("p. q :- p. r :- q, not s.");
        let w = well_founded(&g);
        assert!(w.total());
        assert!(!w.inconsistent);
        assert_eq!(value(&g, &w, "p"), Truth::True);
        assert_eq!(value(&g, &w, "q"), Truth::True);
        assert_eq!(value(&g, &w, "r"), Truth::True);
        assert!((w.decided_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn positive_loops_are_unfounded() {
        // The loop's only support (`b :- not f`) is refuted by the fact
        // `f`, so the grounder keeps the rules but nothing founds them.
        let g = ground("f. a :- b. b :- a. b :- not f. { x }. p :- x, not a.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "f"), Truth::True);
        assert_eq!(value(&g, &w, "a"), Truth::False, "no external support");
        assert_eq!(value(&g, &w, "b"), Truth::False);
        assert_eq!(value(&g, &w, "x"), Truth::Undefined, "free choice");
        assert_eq!(value(&g, &w, "p"), Truth::Undefined, "follows the choice");
    }

    #[test]
    fn even_negation_loops_stay_undefined() {
        let g = ground("a :- not b. b :- not a. c.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "a"), Truth::Undefined);
        assert_eq!(value(&g, &w, "b"), Truth::Undefined);
        assert_eq!(value(&g, &w, "c"), Truth::True);
        assert_eq!(w.undefined_count(), 2);
    }

    #[test]
    fn choice_atoms_and_their_consequences_are_undefined() {
        let g = ground("{ m }. blocked :- m. alarm :- not blocked.");
        let w = well_founded(&g);
        assert_eq!(value(&g, &w, "m"), Truth::Undefined);
        assert_eq!(value(&g, &w, "blocked"), Truth::Undefined);
        assert_eq!(value(&g, &w, "alarm"), Truth::Undefined);
    }

    #[test]
    fn certainly_violated_constraint_is_inconsistent() {
        let w = well_founded(&ground("p. :- p."));
        assert!(w.inconsistent);
        // A constraint guarded by an undefined atom is not refuted.
        let w = well_founded(&ground("{ x }. p :- x. :- p."));
        assert!(!w.inconsistent);
    }

    #[test]
    fn unreachable_lower_bound_is_inconsistent() {
        // The only element can never hold, but the bound demands one.
        let g = ground("f. dead :- live. live :- dead. live :- not f. 1 { pick : dead } 1.");
        let w = well_founded(&g);
        assert!(w.inconsistent, "lower bound 1 over impossible elements");
    }

    #[test]
    fn conditional_wfm_pins_assumptions_and_detects_refutation() {
        let g = ground("{ m }. blocked :- m. alarm :- not blocked.");
        let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
        let w_on = well_founded_with(&g, &[Lit::pos(m)]);
        assert_eq!(value(&g, &w_on, "blocked"), Truth::True);
        assert_eq!(value(&g, &w_on, "alarm"), Truth::False);
        assert!(w_on.total() && !w_on.inconsistent);
        let w_off = well_founded_with(&g, &[Lit::neg(m)]);
        assert_eq!(value(&g, &w_off, "blocked"), Truth::False);
        assert_eq!(value(&g, &w_off, "alarm"), Truth::True);
        assert!(w_off.total() && !w_off.inconsistent);

        // Assuming a forced atom false is inconsistent.
        let g = ground("p.");
        let p = g.atoms().next().unwrap().0;
        assert!(well_founded_with(&g, &[Lit::neg(p)]).inconsistent);
        // So is a directly contradictory assumption pair.
        assert!(well_founded_with(&g, &[Lit::pos(p), Lit::neg(p)]).inconsistent);
    }

    #[test]
    fn conditional_total_wfm_is_the_unique_model() {
        // Pinning every choice atom makes the WFM total — the EPA sweep
        // fast path.
        let g = ground("{ f }. { m }. bad :- f, not m. ok :- not bad.");
        let f = g.atoms().find(|(_, a)| a.to_string() == "f").unwrap().0;
        let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
        let w = well_founded_with(&g, &[Lit::pos(f), Lit::neg(m)]);
        assert!(w.total() && !w.inconsistent);
        assert_eq!(value(&g, &w, "bad"), Truth::True);
        assert_eq!(value(&g, &w, "ok"), Truth::False);
        let names: Vec<String> = w.true_atoms().map(|id| g.atom(id).to_string()).collect();
        assert_eq!(
            names,
            ["f", "bad"],
            "the unique stable model under f, not m"
        );
    }

    #[test]
    fn base_queries_equal_the_from_scratch_model() {
        let g = ground("{ f }. { m }. bad :- f, not m. ok :- not bad. :- ok, m.");
        let f = g.atoms().find(|(_, a)| a.to_string() == "f").unwrap().0;
        let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
        let base_lits = [Lit::neg(f), Lit::neg(m)];
        let base = WfmBase::new(g.clone(), &base_lits);
        assert_eq!(base.model(), &well_founded_with(&g, &base_lits));
        assert!(base.model().total() && !base.model().inconsistent);
        let queries: [&[Lit]; 6] = [
            &[Lit::neg(f), Lit::neg(m)],
            &[Lit::pos(f), Lit::neg(m)],
            &[Lit::neg(f), Lit::pos(m)],
            &[Lit::pos(f)],
            &[Lit::neg(f), Lit::neg(m), Lit::pos(m)],
            &[],
        ];
        for q in queries {
            assert_eq!(base.query(q), well_founded_with(&g, q), "query {q:?}");
        }
        // Flipping f derives `bad`; adding m then trips the constraint.
        let w = base.query(&[Lit::pos(f), Lit::neg(m)]);
        assert_eq!(value(&g, &w, "bad"), Truth::True);
        assert!(base.query(&[Lit::neg(f), Lit::pos(m)]).inconsistent);
    }

    #[test]
    fn base_queries_recheck_the_constraints_the_cone_touches() {
        // A constraint over negative literals only, and a cardinality
        // bound: neither f nor m refutes both, both f and m refute the
        // bound from above.
        for (src, both_inconsistent) in [
            ("{ f; m }. :- not f, not m.", false),
            ("{ f; m }. 1 { f; m } 1.", true),
        ] {
            let g = ground(src);
            let f = g.atoms().find(|(_, a)| a.to_string() == "f").unwrap().0;
            let m = g.atoms().find(|(_, a)| a.to_string() == "m").unwrap().0;
            let base = WfmBase::new(g.clone(), &[Lit::pos(f), Lit::neg(m)]);
            assert!(base.model().total() && !base.model().inconsistent, "{src}");
            for q in [
                [Lit::neg(f), Lit::neg(m)],
                [Lit::pos(f), Lit::pos(m)],
                [Lit::neg(f), Lit::pos(m)],
            ] {
                assert_eq!(base.query(&q), well_founded_with(&g, &q), "{src}: {q:?}");
            }
            assert!(
                base.query(&[Lit::neg(f), Lit::neg(m)]).inconsistent,
                "{src}"
            );
            let both = base.query(&[Lit::pos(f), Lit::pos(m)]).inconsistent;
            assert_eq!(both, both_inconsistent, "{src}");
        }
    }

    #[test]
    fn non_total_bases_fall_back_to_the_from_scratch_model() {
        let g = ground("{ f }. a :- not b. b :- not a. c :- f.");
        let f = g.atoms().find(|(_, a)| a.to_string() == "f").unwrap().0;
        let base = WfmBase::new(g.clone(), &[Lit::neg(f)]);
        assert!(!base.model().total());
        let w = base.query(&[Lit::pos(f)]);
        assert_eq!(w, well_founded_with(&g, &[Lit::pos(f)]));
        assert_eq!(value(&g, &w, "c"), Truth::True);
    }
}
