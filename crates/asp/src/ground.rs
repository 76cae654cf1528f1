//! Grounder: instantiates a non-ground [`Program`] into a [`GroundProgram`].
//!
//! The grounder first computes a superset of the derivable ground atoms (the
//! *possible set*) by a fixpoint over the rules with negation ignored, then
//! emits ground rule instances by joining positive body literals against the
//! possible set. Negative literals over atoms that can never be derived are
//! trivially true and dropped; builtin comparisons and arithmetic are
//! evaluated during instantiation.
//!
//! Two engines share this interface. [`Grounder::new`] selects the
//! semi-naive engine (`crate::seminaive`): stratified delta evaluation over
//! the predicate dependency graph, multi-argument hash indexes, slot-based
//! substitutions, and `CPSRISK_THREADS`-parallel instantiation.
//! [`Grounder::new_reference`] retains the naive engine in this module —
//! a global re-join fixpoint with first-argument narrowing — as the
//! differential-testing baseline, mirroring `Solver::new_reference`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::num::NonZeroUsize;

use crate::ast::{Atom, ChoiceElement, CmpOp, Head, Literal, Program, Rule, Statement, Term};
use crate::error::{ArithFault, AspError};
use crate::intern::{SymId, SymbolTable};
use crate::program::{
    AtomId, CardConstraint, CardElement, GroundHead, GroundProgram, GroundRule, MinimizeLit,
};

type Subst = BTreeMap<String, Term>;

/// Which evaluation strategy a [`Grounder`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Stratified semi-naive delta evaluation with argument indexes and
    /// parallel instantiation (the default).
    SemiNaive,
    /// The retained naive fixpoint in this module (differential baseline).
    Reference,
}

/// Grounder with a configurable instance budget.
#[derive(Debug, Clone)]
pub struct Grounder {
    /// Maximum number of ground rule instances before aborting.
    pub max_instances: usize,
    /// Predicate signatures whose *facts* become assumable atoms: instead
    /// of baking `p(c).` in as a fact, the grounder emits a choice-supported
    /// atom and records it in [`GroundProgram::assumable`], so a solver can
    /// pin it true or false per query via assumption literals.
    assumable: Vec<(String, usize)>,
    /// Apply the backward slice before grounding (see
    /// [`slice_program`](crate::analysis::slice_program)): statements that
    /// cannot influence a `#show`n predicate, a constraint, a `#minimize`
    /// statement, or an assumable signature are dropped up front.
    slicing: bool,
    engine: Engine,
    /// Worker threads for semi-naive instantiation; `None` resolves from
    /// `CPSRISK_THREADS`, then available parallelism.
    threads: Option<usize>,
}

impl Default for Grounder {
    fn default() -> Self {
        Grounder {
            max_instances: 2_000_000,
            assumable: Vec::new(),
            slicing: false,
            engine: Engine::SemiNaive,
            threads: None,
        }
    }
}

/// Worker-thread default: `CPSRISK_THREADS`, then available parallelism.
fn default_threads() -> usize {
    std::env::var("CPSRISK_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Predicted grounding sizes below this instantiate sequentially: sharding
/// a few thousand instances across workers costs more in thread spawns and
/// cache transfer than the instantiation itself.
const PAR_SPAWN_FLOOR: f64 = 10_000.0;

/// Index of possible ground atoms by predicate signature, with a secondary
/// index on the first argument (a big win for the `state(c, S, T)`-style
/// patterns the behavioural encodings produce).
///
/// Atoms are stored once in an arena and referenced by dense index;
/// signatures are keyed by interned `(SymId, arity)` pairs so lookups on
/// the join hot path hash two machine words instead of allocating a
/// `String` (and a cloned `Term`) per probe.
#[derive(Default)]
struct PossibleSet {
    syms: SymbolTable,
    /// Arena of all possible atoms, in insertion order.
    atoms: Vec<Atom>,
    /// Membership / dedup index over the arena.
    index: HashMap<Atom, u32>,
    by_sig: HashMap<(SymId, u32), Vec<u32>>,
    by_first: HashMap<(SymId, u32), HashMap<Term, Vec<u32>>>,
}

impl PossibleSet {
    fn insert(&mut self, atom: Atom) -> bool {
        if self.index.contains_key(&atom) {
            return false;
        }
        let id = self.atoms.len() as u32;
        let sig = (self.syms.intern(&atom.pred), atom.args.len() as u32);
        if let Some(first) = atom.args.first() {
            self.by_first
                .entry(sig)
                .or_default()
                .entry(first.clone())
                .or_default()
                .push(id);
        }
        self.by_sig.entry(sig).or_default().push(id);
        self.index.insert(atom.clone(), id);
        self.atoms.push(atom);
        true
    }

    fn contains(&self, atom: &Atom) -> bool {
        self.index.contains_key(atom)
    }

    fn atom(&self, id: u32) -> &Atom {
        &self.atoms[id as usize]
    }

    fn candidates(&self, pred: &str, arity: usize) -> &[u32] {
        self.syms
            .get(pred)
            .and_then(|s| self.by_sig.get(&(s, arity as u32)))
            .map_or(&[], Vec::as_slice)
    }

    /// Candidates narrowed by a ground first argument.
    fn candidates_first(&self, pred: &str, arity: usize, first: &Term) -> &[u32] {
        self.syms
            .get(pred)
            .and_then(|s| self.by_first.get(&(s, arity as u32)))
            .and_then(|m| m.get(first))
            .map_or(&[], Vec::as_slice)
    }
}

impl Grounder {
    /// A grounder with default limits, running the semi-naive engine.
    #[must_use]
    pub fn new() -> Self {
        Grounder::default()
    }

    /// A grounder running the retained naive reference engine. Produces
    /// the same ground program as [`Grounder::new`] (pinned by differential
    /// proptests); kept as the baseline for correctness and benchmarks.
    #[must_use]
    pub fn new_reference() -> Self {
        Grounder {
            engine: Engine::Reference,
            ..Grounder::default()
        }
    }

    /// A grounder with a custom instance budget.
    #[must_use]
    pub fn with_budget(max_instances: usize) -> Self {
        Grounder {
            max_instances,
            ..Grounder::default()
        }
    }

    /// Pin the number of worker threads for semi-naive instantiation
    /// (overriding `CPSRISK_THREADS`). The ground program is identical for
    /// every thread count; `1` forces a fully sequential run.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Mark a predicate signature as *assumable*: every **fact** of that
    /// signature is emitted as a choice-supported ground atom (listed in
    /// [`GroundProgram::assumable`]) instead of an unconditional fact.
    /// Rules with non-empty bodies are unaffected. Left unassumed, such an
    /// atom is free (the solver branches on it); fixed via
    /// [`Lit`](crate::solve::Lit) assumptions it behaves exactly like the
    /// fact being present or absent — without re-grounding.
    #[must_use]
    pub fn assumable(mut self, pred: &str, arity: usize) -> Self {
        self.assumable.push((pred.to_owned(), arity));
        self
    }

    /// Enable (or disable) sound backward slicing: before grounding, drop
    /// every statement that cannot influence a `#show`n predicate, a
    /// constraint, a `#minimize` statement, or an assumable signature (the
    /// signatures registered via [`Grounder::assumable`] are the slice
    /// roots). Sliced grounding preserves the model count, the shown
    /// projection of every model, and all optimization costs — only
    /// unobservable atoms disappear from the models. Off by default;
    /// programs without a `#show` directive are never sliced (everything
    /// is observable).
    #[must_use]
    pub fn with_slicing(mut self, on: bool) -> Self {
        self.slicing = on;
        self
    }

    /// Ground a program.
    ///
    /// # Errors
    ///
    /// * [`AspError::UnsafeRule`] for rules whose variables cannot be bound,
    /// * [`AspError::BadArithmetic`] for invalid arithmetic,
    /// * [`AspError::GroundingBudget`] if the instance budget is exceeded.
    pub fn ground(&self, program: &Program) -> Result<GroundProgram, AspError> {
        let sliced;
        let program = if self.slicing {
            let roots: Vec<String> = self.assumable.iter().map(|(p, _)| p.clone()).collect();
            let slice = crate::analysis::slice_program(program, &roots);
            if slice.dropped.is_empty() {
                program
            } else {
                sliced = slice.apply(program);
                &sliced
            }
        } else {
            program
        };
        match self.engine {
            Engine::SemiNaive => crate::seminaive::ground(
                program,
                &crate::seminaive::Config {
                    max_instances: self.max_instances,
                    assumable: &self.assumable,
                    threads: self.effective_threads(program),
                    keep_unpossible_neg: false,
                },
            ),
            Engine::Reference => self.ground_reference(program),
        }
    }

    /// Resolve the worker-thread count for `program`. The configured count
    /// is clamped to the machine's parallelism — oversubscribing the
    /// CPU-bound instantiation shards buys nothing but scheduler thrash —
    /// and drops to one when [`predict_sizes`](crate::analysis::predict_sizes)
    /// puts the grounding below the spawn-overhead floor.
    fn effective_threads(&self, program: &Program) -> usize {
        let requested = self.threads.unwrap_or_else(default_threads);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let threads = requested.min(cores);
        if threads > 1 && crate::analysis::predict_sizes(program).total < PAR_SPAWN_FLOOR {
            return 1;
        }
        threads
    }

    /// Ground a program into a resident [`GroundSession`] that can later be
    /// [`extend`](Grounder::extend)ed with program deltas. Runs the
    /// semi-naive engine regardless of the configured engine (the reference
    /// grounder has no incremental mode); slicing is not applied, since a
    /// slice computed now could wrongly drop rules a later delta reaches.
    ///
    /// Unlike one-shot grounding, a session keeps negative body literals
    /// over not-yet-possible atoms (interned, left undefined — semantically
    /// identical for the solver), so already-emitted rules stay correct if
    /// an extension later makes such an atom derivable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grounder::ground`].
    pub fn session(&self, program: &Program) -> Result<GroundSession, AspError> {
        crate::seminaive::Session::new(
            program,
            &crate::seminaive::Config {
                max_instances: self.max_instances,
                assumable: &self.assumable,
                threads: self.effective_threads(program),
                keep_unpossible_neg: true,
            },
        )
        .map(|inner| GroundSession { inner })
    }

    /// Extend a session with a program delta: convenience forwarding of
    /// [`GroundSession::extend`], so the grounder owns the whole
    /// ground-then-extend lifecycle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GroundSession::extend`].
    pub fn extend(
        &self,
        session: &mut GroundSession,
        delta: &Program,
        revoke: &[Atom],
    ) -> Result<ExtendStats, AspError> {
        session.extend(delta, revoke)
    }

    /// The retained naive engine: global re-join fixpoint, first-argument
    /// narrowing, `String`-keyed substitutions.
    fn ground_reference(&self, program: &Program) -> Result<GroundProgram, AspError> {
        let rules: Vec<&Rule> = program.rules().collect();
        for r in &rules {
            r.check_safety()?;
        }

        // Body plans are instantiation-order invariant: compute once per
        // rule, not once per fixpoint iteration.
        let plans: Vec<Vec<Literal>> = rules.iter().map(|r| plan_body(&r.body)).collect();

        // Phase 1: possible-atom fixpoint (negation ignored).
        let mut possible = PossibleSet::default();
        let mut changed = true;
        while changed {
            changed = false;
            for (rule, plan) in rules.iter().zip(&plans) {
                let mut new_atoms: Vec<Atom> = Vec::new();
                join(&possible, plan, Subst::new(), &mut |theta| {
                    match &rule.head {
                        Head::Atom(a) => {
                            new_atoms.push(ground_atom(a, theta)?);
                        }
                        Head::Choice { elements, .. } => {
                            for el in elements {
                                collect_choice_atoms(&possible, el, theta, &mut new_atoms)?;
                            }
                        }
                        Head::None => {}
                    }
                    Ok(())
                })?;
                for a in new_atoms {
                    changed |= possible.insert(a);
                }
            }
        }

        // Phase 2: emit ground instances.
        let mut out = GroundProgram::new();
        let mut seen_rules: HashSet<GroundRule> = HashSet::new();
        for (rule, plan) in rules.iter().zip(&plans) {
            let mut instances: Vec<Subst> = Vec::new();
            join(&possible, plan, Subst::new(), &mut |theta| {
                instances.push(theta.clone());
                Ok(())
            })?;
            for theta in instances {
                self.emit_rule(rule, &theta, &possible, &mut out, &mut seen_rules)?;
                if out.rules.len() > self.max_instances {
                    return Err(AspError::GroundingBudget {
                        limit: self.max_instances,
                    });
                }
            }
        }

        // Phase 3: optimization statements and projections.
        let mut minimize: BTreeMap<i64, Vec<MinimizeLit>> = BTreeMap::new();
        for stmt in &program.statements {
            match stmt {
                Statement::Minimize { priority, elements } => {
                    for el in elements {
                        let plan = plan_body(&el.condition);
                        let mut found: Vec<Subst> = Vec::new();
                        join(&possible, &plan, Subst::new(), &mut |theta| {
                            found.push(theta.clone());
                            Ok(())
                        })?;
                        for theta in found {
                            let w = apply(&el.weight, &theta).eval()?;
                            let Term::Int(weight) = w else {
                                return Err(AspError::BadArithmetic(ArithFault::NonIntegerWeight(
                                    w.to_string(),
                                )));
                            };
                            let tuple = el
                                .terms
                                .iter()
                                .map(|t| apply(t, &theta).eval())
                                .collect::<Result<Vec<_>, _>>()?;
                            let (pos, neg, alive) =
                                ground_condition(&el.condition, &theta, &possible, &mut out)?;
                            if alive {
                                minimize.entry(*priority).or_default().push(MinimizeLit {
                                    weight,
                                    tuple,
                                    pos,
                                    neg,
                                });
                            }
                        }
                    }
                }
                Statement::Show { pred, arity } => out.shows.push((pred.clone(), *arity)),
                Statement::Rule(_) => {}
            }
        }
        // Higher priorities first.
        out.minimize = minimize.into_iter().rev().collect();
        Ok(out)
    }

    fn emit_rule(
        &self,
        rule: &Rule,
        theta: &Subst,
        possible: &PossibleSet,
        out: &mut GroundProgram,
        seen: &mut HashSet<GroundRule>,
    ) -> Result<(), AspError> {
        let (body_pos, body_neg, alive) = ground_condition(&rule.body, theta, possible, out)?;
        if !alive {
            return Ok(());
        }
        match &rule.head {
            Head::Atom(a) => {
                let ga = ground_atom(a, theta)?;
                let is_assumable = body_pos.is_empty()
                    && body_neg.is_empty()
                    && self
                        .assumable
                        .iter()
                        .any(|(p, n)| *p == ga.pred && *n == ga.args.len());
                let head = out.intern(ga);
                let inserted = push_rule(
                    out,
                    seen,
                    GroundRule {
                        head: if is_assumable {
                            GroundHead::Choice(head)
                        } else {
                            GroundHead::Atom(head)
                        },
                        pos: body_pos,
                        neg: body_neg,
                    },
                );
                if inserted && is_assumable {
                    out.assumable.push(head);
                }
            }
            Head::None => {
                push_rule(
                    out,
                    seen,
                    GroundRule {
                        head: GroundHead::None,
                        pos: body_pos,
                        neg: body_neg,
                    },
                );
            }
            Head::Choice {
                lower,
                upper,
                elements,
            } => {
                let mut card_elems: Vec<CardElement> = Vec::new();
                for el in elements {
                    let plan = plan_body(&el.condition);
                    let mut exts: Vec<Subst> = Vec::new();
                    join(possible, &plan, theta.clone(), &mut |sigma| {
                        exts.push(sigma.clone());
                        Ok(())
                    })?;
                    for sigma in exts {
                        let atom = out.intern(ground_atom(&el.atom, &sigma)?);
                        let (gpos, gneg, galive) =
                            ground_condition(&el.condition, &sigma, possible, out)?;
                        if !galive {
                            continue;
                        }
                        let mut pos = body_pos.clone();
                        pos.extend(gpos.iter().copied());
                        let mut neg = body_neg.clone();
                        neg.extend(gneg.iter().copied());
                        push_rule(
                            out,
                            seen,
                            GroundRule {
                                head: GroundHead::Choice(atom),
                                pos,
                                neg,
                            },
                        );
                        if lower.is_some() || upper.is_some() {
                            card_elems.push(CardElement {
                                atom,
                                guard_pos: gpos,
                                guard_neg: gneg,
                            });
                        }
                    }
                }
                if lower.is_some() || upper.is_some() {
                    let n = card_elems.len() as u32;
                    out.cards.push(CardConstraint {
                        pos: body_pos,
                        neg: body_neg,
                        elements: card_elems,
                        lower: lower.unwrap_or(0),
                        upper: upper.unwrap_or(n),
                    });
                }
            }
        }
        Ok(())
    }
}

fn push_rule(out: &mut GroundProgram, seen: &mut HashSet<GroundRule>, rule: GroundRule) -> bool {
    if seen.insert(rule.clone()) {
        out.rules.push(rule);
        return true;
    }
    false
}

pub use crate::seminaive::ExtendStats;

/// A resident grounding session produced by [`Grounder::session`].
///
/// The session retains the compiled rules, symbol table, possible-atom
/// arena, and the [`GroundProgram`] itself across [`extend`] calls, so each
/// delta only grounds the genuinely new instances — the semi-naive windows
/// restrict old rules to joins that touch at least one new atom. Atom ids
/// are stable (the ground program is mutated in place, never rebuilt),
/// which is what lets solver state survive alongside.
///
/// [`extend`]: GroundSession::extend
pub struct GroundSession {
    inner: crate::seminaive::Session,
}

impl GroundSession {
    /// The ground program in its current state. Re-solve (or re-build a
    /// solver over) this after every extension.
    #[must_use]
    pub fn program(&self) -> &GroundProgram {
        self.inner.program()
    }

    /// Ground a program delta on top of the session.
    ///
    /// `revoke` names atoms whose *bare choice rules* (`{ a }.` with an
    /// empty body, emitted verbatim in an earlier delta) are retracted —
    /// the temporal frontier defers that this delta replaces with real
    /// definitions. Bare choice rules contribute no completion nogoods,
    /// so retracting one keeps the solver's nogood set monotone.
    ///
    /// # Errors
    ///
    /// * [`AspError::Internal`] if a revoked atom is unknown or has no bare
    ///   choice rule, or if the session (or delta) contains a
    ///   cardinality-bounded choice rule — an old `CardConstraint` gaining
    ///   elements cannot be patched soundly.
    /// * Otherwise the same conditions as [`Grounder::ground`].
    pub fn extend(&mut self, delta: &Program, revoke: &[Atom]) -> Result<ExtendStats, AspError> {
        self.inner.extend(delta, revoke)
    }
}

/// Ground the positive/negative atoms of a literal list under a complete
/// substitution. Returns `(pos, neg, alive)`; `alive` is false when the
/// instance can never fire (a positive atom is underivable) — negative
/// literals over underivable atoms are trivially true and dropped.
fn ground_condition(
    body: &[Literal],
    theta: &Subst,
    possible: &PossibleSet,
    out: &mut GroundProgram,
) -> Result<(Vec<AtomId>, Vec<AtomId>, bool), AspError> {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in body {
        match lit {
            Literal::Pos(a) => {
                let g = ground_atom(a, theta)?;
                if !possible.contains(&g) {
                    return Ok((pos, neg, false));
                }
                pos.push(out.intern(g));
            }
            Literal::Neg(a) => {
                let g = ground_atom(a, theta)?;
                if possible.contains(&g) {
                    neg.push(out.intern(g));
                }
            }
            Literal::Cmp(op, l, r) => {
                let l = apply(l, theta).eval()?;
                let r = apply(r, theta).eval()?;
                if !op.eval(&l, &r) {
                    return Ok((pos, neg, false));
                }
            }
        }
    }
    Ok((pos, neg, true))
}

fn collect_choice_atoms(
    possible: &PossibleSet,
    el: &ChoiceElement,
    theta: &Subst,
    new_atoms: &mut Vec<Atom>,
) -> Result<(), AspError> {
    let plan = plan_body(&el.condition);
    let mut exts: Vec<Subst> = Vec::new();
    join(possible, &plan, theta.clone(), &mut |sigma| {
        exts.push(sigma.clone());
        Ok(())
    })?;
    for sigma in exts {
        new_atoms.push(ground_atom(&el.atom, &sigma)?);
    }
    Ok(())
}

/// Apply a substitution to a term (no evaluation).
fn apply(t: &Term, theta: &Subst) -> Term {
    match t {
        Term::Var(v) => theta.get(v).cloned().unwrap_or_else(|| t.clone()),
        Term::Func(f, args) => {
            Term::Func(f.clone(), args.iter().map(|a| apply(a, theta)).collect())
        }
        Term::BinOp(op, a, b) => {
            Term::BinOp(*op, Box::new(apply(a, theta)), Box::new(apply(b, theta)))
        }
        _ => t.clone(),
    }
}

/// Fully ground an atom under a substitution, evaluating arithmetic.
fn ground_atom(a: &Atom, theta: &Subst) -> Result<Atom, AspError> {
    let args = a
        .args
        .iter()
        .map(|t| apply(t, theta).eval())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Atom::new(a.pred.clone(), args))
}

/// Order body literals so that every builtin is evaluable when reached and
/// `X = expr` assignments bind before use.
fn plan_body(body: &[Literal]) -> Vec<Literal> {
    let mut remaining: Vec<Literal> = body.to_vec();
    let mut bound: HashSet<String> = HashSet::new();
    let mut out = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        // 1. Any evaluable comparison (all vars bound).
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, Literal::Cmp(..)) && lit_vars_bound(l, &bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 2. An `=` that binds one new variable from bound terms.
        if let Some(i) = remaining.iter().position(|l| {
            if let Literal::Cmp(CmpOp::Eq, a, b) = l {
                for (x, y) in [(a, b), (b, a)] {
                    if let Term::Var(v) = x {
                        if !bound.contains(v) && term_vars_bound(y, &bound) {
                            return true;
                        }
                    }
                }
            }
            false
        }) {
            let lit = remaining.remove(i);
            add_lit_vars(&lit, &mut bound);
            out.push(lit);
            continue;
        }
        // 3. A grounded negative literal.
        if let Some(i) = remaining
            .iter()
            .position(|l| matches!(l, Literal::Neg(_)) && lit_vars_bound(l, &bound))
        {
            out.push(remaining.remove(i));
            continue;
        }
        // 4. The first positive literal.
        if let Some(i) = remaining.iter().position(|l| matches!(l, Literal::Pos(_))) {
            let lit = remaining.remove(i);
            add_lit_vars(&lit, &mut bound);
            out.push(lit);
            continue;
        }
        // 5. Nothing else applies: flush (safety was already checked).
        out.append(&mut remaining);
    }
    out
}

/// True if every variable of `t` is in `bound` — the allocation-free
/// replacement for collecting a `BTreeSet` per check.
fn term_vars_bound(t: &Term, bound: &HashSet<String>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Func(_, args) => args.iter().all(|a| term_vars_bound(a, bound)),
        Term::BinOp(_, a, b) => term_vars_bound(a, bound) && term_vars_bound(b, bound),
        Term::Int(_) | Term::Const(_) | Term::Str(_) => true,
    }
}

fn lit_vars_bound(l: &Literal, bound: &HashSet<String>) -> bool {
    match l {
        Literal::Pos(a) | Literal::Neg(a) => a.args.iter().all(|t| term_vars_bound(t, bound)),
        Literal::Cmp(_, x, y) => term_vars_bound(x, bound) && term_vars_bound(y, bound),
    }
}

fn add_term_vars(t: &Term, bound: &mut HashSet<String>) {
    match t {
        Term::Var(v) => {
            bound.insert(v.clone());
        }
        Term::Func(_, args) => {
            for a in args {
                add_term_vars(a, bound);
            }
        }
        Term::BinOp(_, a, b) => {
            add_term_vars(a, bound);
            add_term_vars(b, bound);
        }
        Term::Int(_) | Term::Const(_) | Term::Str(_) => {}
    }
}

fn add_lit_vars(l: &Literal, bound: &mut HashSet<String>) {
    match l {
        Literal::Pos(a) | Literal::Neg(a) => {
            for t in &a.args {
                add_term_vars(t, bound);
            }
        }
        Literal::Cmp(_, x, y) => {
            add_term_vars(x, bound);
            add_term_vars(y, bound);
        }
    }
}

/// Nested-loop join of the planned literals against the possible set,
/// invoking `cb` once per complete substitution.
fn join(
    possible: &PossibleSet,
    plan: &[Literal],
    theta: Subst,
    cb: &mut dyn FnMut(&Subst) -> Result<(), AspError>,
) -> Result<(), AspError> {
    let Some((first, rest)) = plan.split_first() else {
        return cb(&theta);
    };
    match first {
        Literal::Pos(a) => {
            // Narrow by the first argument when it is ground under θ.
            let first_arg = a.args.first().map(|t| apply(t, &theta));
            let cands = match &first_arg {
                Some(t) if t.is_ground() && !matches!(t, Term::BinOp(..)) => {
                    possible.candidates_first(&a.pred, a.args.len(), t)
                }
                _ => possible.candidates(&a.pred, a.args.len()),
            };
            for &cand in cands {
                if let Some(theta2) = unify_atom(a, possible.atom(cand), &theta)? {
                    join(possible, rest, theta2, cb)?;
                }
            }
            Ok(())
        }
        Literal::Neg(a) => {
            // During instantiation the negative literal never *fails* an
            // instance (its truth is decided at solve time), except when the
            // atom is certainly underivable — handled at emission. It must
            // however be ground here.
            let _ = ground_atom(a, &theta)?;
            join(possible, rest, theta, cb)
        }
        Literal::Cmp(op, l, r) => {
            let la = apply(l, &theta);
            let ra = apply(r, &theta);
            if *op == CmpOp::Eq {
                // Binding equality: X = expr (either side). `theta` is
                // owned, so the binding extends it in place — no clone.
                if let Term::Var(v) = &la {
                    if !theta.contains_key(v) {
                        let val = ra.eval()?;
                        let mut theta = theta;
                        theta.insert(v.clone(), val);
                        return join(possible, rest, theta, cb);
                    }
                }
                if let Term::Var(v) = &ra {
                    if !theta.contains_key(v) {
                        let val = la.eval()?;
                        let mut theta = theta;
                        theta.insert(v.clone(), val);
                        return join(possible, rest, theta, cb);
                    }
                }
            }
            let lv = la.eval()?;
            let rv = ra.eval()?;
            if op.eval(&lv, &rv) {
                join(possible, rest, theta, cb)?;
            }
            Ok(())
        }
    }
}

/// Unify a (possibly non-ground) atom pattern with a ground atom, extending
/// the substitution. Returns the extended substitution on success.
fn unify_atom(pattern: &Atom, ground: &Atom, theta: &Subst) -> Result<Option<Subst>, AspError> {
    if pattern.pred != ground.pred || pattern.args.len() != ground.args.len() {
        return Ok(None);
    }
    let mut theta = theta.clone();
    for (p, g) in pattern.args.iter().zip(&ground.args) {
        if !unify_term(p, g, &mut theta)? {
            return Ok(None);
        }
    }
    Ok(Some(theta))
}

fn unify_term(p: &Term, g: &Term, theta: &mut Subst) -> Result<bool, AspError> {
    match p {
        Term::Var(v) => {
            if let Some(bound) = theta.get(v) {
                Ok(bound == g)
            } else {
                theta.insert(v.clone(), g.clone());
                Ok(true)
            }
        }
        Term::Int(_) | Term::Const(_) | Term::Str(_) => Ok(p == g),
        Term::Func(f, args) => match g {
            Term::Func(gf, gargs) if gf == f && gargs.len() == args.len() => {
                for (pa, ga) in args.iter().zip(gargs) {
                    if !unify_term(pa, ga, theta)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        },
        // Arithmetic patterns must be ground after substitution: evaluating
        // one that is not reports its first unbound variable.
        Term::BinOp(..) => Ok(apply(p, theta).eval()? == *g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn ground_src(src: &str) -> GroundProgram {
        Grounder::new().ground(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn grounds_facts_and_rules() {
        let g = ground_src("p(a). p(b). q(X) :- p(X).");
        // Two facts + two rule instances.
        assert_eq!(g.rules.len(), 4);
        assert_eq!(g.atom_count(), 4);
    }

    #[test]
    fn transitive_closure_fixpoint() {
        let g = ground_src(
            "edge(a,b). edge(b,c). edge(c,d). \
             path(X,Y) :- edge(X,Y). \
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        );
        let path_atoms: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "path")
            .map(|(_, a)| a.to_string())
            .collect();
        assert!(path_atoms.contains(&"path(a,d)".to_string()));
        assert_eq!(path_atoms.len(), 6); // ab bc cd ac bd ad
    }

    #[test]
    fn negative_literals_over_underivable_atoms_are_dropped() {
        let g = ground_src("p :- not q.");
        assert_eq!(g.rules.len(), 1);
        assert!(
            g.rules[0].neg.is_empty(),
            "`not q` with underivable q is dropped"
        );
    }

    #[test]
    fn negative_literals_over_derivable_atoms_are_kept() {
        let g = ground_src("{ q }. p :- not q.");
        let p_rule = g
            .rules
            .iter()
            .find(|r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "p"))
            .unwrap();
        assert_eq!(p_rule.neg.len(), 1);
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let g = ground_src("n(1..4). big(X) :- n(X), X > 2. double(Y) :- n(X), Y = X * 2.");
        let bigs: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "big")
            .map(|(_, a)| a.to_string())
            .collect();
        assert_eq!(bigs, vec!["big(3)", "big(4)"]);
        let doubles: Vec<String> = g
            .atoms()
            .filter(|(_, a)| a.pred == "double")
            .map(|(_, a)| a.to_string())
            .collect();
        assert_eq!(
            doubles,
            vec!["double(2)", "double(4)", "double(6)", "double(8)"]
        );
    }

    #[test]
    fn choice_rules_with_conditions_ground_per_instance() {
        let g = ground_src("item(a). item(b). { pick(X) : item(X) } 1.");
        let picks = g.atoms().filter(|(_, a)| a.pred == "pick").count();
        assert_eq!(picks, 2);
        assert_eq!(g.cards.len(), 1);
        assert_eq!(g.cards[0].elements.len(), 2);
        assert_eq!(g.cards[0].upper, 1);
        assert_eq!(g.cards[0].lower, 0);
    }

    #[test]
    fn unbounded_choice_has_no_card_constraint() {
        let g = ground_src("item(a). { pick(X) : item(X) }.");
        assert!(g.cards.is_empty());
    }

    #[test]
    fn minimize_statements_ground() {
        let g = ground_src(
            "item(a). item(b). cost(a, 3). cost(b, 5). \
             { pick(X) : item(X) }. \
             #minimize { C,X : pick(X), cost(X, C) }.",
        );
        assert_eq!(g.minimize.len(), 1);
        let (prio, lits) = &g.minimize[0];
        assert_eq!(*prio, 0);
        assert_eq!(lits.len(), 2);
        let weights: Vec<i64> = lits.iter().map(|l| l.weight).collect();
        assert!(weights.contains(&3) && weights.contains(&5));
    }

    #[test]
    fn minimize_priorities_sorted_high_first() {
        let g = ground_src("a. b. { x }. #minimize { 1@1 : x }. #minimize { 2@5 : x }.");
        let prios: Vec<i64> = g.minimize.iter().map(|(p, _)| *p).collect();
        assert_eq!(prios, vec![5, 1]);
    }

    #[test]
    fn eq_binds_on_either_side() {
        // `X = expr` and `expr = X` both bind the free variable, on both
        // engines (the reference path extends θ in place, no clone).
        for src in [
            "q(1). q(2). p(X) :- q(Y), X = Y + 1.",
            "q(1). q(2). p(X) :- q(Y), Y + 1 = X.",
        ] {
            for g in [
                Grounder::new().ground(&parse(src).unwrap()).unwrap(),
                Grounder::new_reference()
                    .ground(&parse(src).unwrap())
                    .unwrap(),
            ] {
                let ps: Vec<String> = g
                    .atoms()
                    .filter(|(_, a)| a.pred == "p")
                    .map(|(_, a)| a.to_string())
                    .collect();
                assert_eq!(ps, vec!["p(2)", "p(3)"], "source: {src}");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let g = Grounder::with_budget(10);
        let p = parse("n(1..100). p(X) :- n(X).").unwrap();
        assert!(matches!(
            g.ground(&p),
            Err(AspError::GroundingBudget { limit: 10 })
        ));
    }

    #[test]
    fn duplicate_instances_are_deduped() {
        let g = ground_src("p(a). q :- p(a). q :- p(a).");
        let q_rules = g
            .rules
            .iter()
            .filter(|r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "q"))
            .count();
        assert_eq!(q_rules, 1);
    }

    #[test]
    fn dead_instances_with_underivable_positive_body_are_dropped() {
        let g = ground_src("p :- q. r.");
        // Rule `p :- q` never instantiates because q is underivable.
        assert_eq!(g.rules.len(), 1);
    }

    #[test]
    fn slicing_drops_unobservable_rules_but_keeps_models() {
        let src = "p(a). q(b). shadow(X) :- q(X). r(X) :- p(X). \
                   { c }. :- c, not r(a). #show r/1.";
        let program = parse(src).unwrap();
        let full = Grounder::new().ground(&program).unwrap();
        let sliced = Grounder::new().with_slicing(true).ground(&program).unwrap();
        assert!(sliced.rules.len() < full.rules.len());
        assert!(!sliced.atoms().any(|(_, a)| a.pred == "shadow"));
        let shown = |g: &GroundProgram| {
            let mut out: Vec<String> = crate::solve::Solver::new(g)
                .enumerate(&crate::solve::SolveOptions::default())
                .unwrap()
                .models
                .iter()
                .map(|m| {
                    let mut v: Vec<String> = m.shown.iter().map(ToString::to_string).collect();
                    v.sort();
                    v.join(" ")
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(shown(&full), shown(&sliced));
    }

    #[test]
    fn slicing_without_show_is_a_no_op() {
        let program = parse("p(a). q(b). r(X) :- p(X).").unwrap();
        let full = Grounder::new().ground(&program).unwrap();
        let sliced = Grounder::new().with_slicing(true).ground(&program).unwrap();
        assert_eq!(full.rules.len(), sliced.rules.len());
    }

    #[test]
    fn listing_one_grounds() {
        let g = ground_src(
            "component(ew). fault(f4). mitigation(f4, m1). mitigation(f4, m2). \
             { active_mitigation(ew, m1) }. \
             potential_fault(C, F) :- component(C), fault(F), \
                 mitigation(F, M), not active_mitigation(C, M).",
        );
        // Two instances: via m1 (kept `not` literal) and via m2 (dropped literal).
        let pf_rules: Vec<&GroundRule> = g
            .rules
            .iter()
            .filter(
                |r| matches!(r.head, GroundHead::Atom(h) if g.atom(h).pred == "potential_fault"),
            )
            .collect();
        assert_eq!(pf_rules.len(), 2);
        assert!(pf_rules.iter().any(|r| r.neg.len() == 1));
        assert!(pf_rules.iter().any(|r| r.neg.is_empty()));
    }
}
