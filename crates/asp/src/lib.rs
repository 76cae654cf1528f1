#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A from-scratch Answer Set Programming (ASP) engine.
//!
//! ASP is the *hidden formal method* at the core of the paper's risk
//! assessment framework: the system model, its candidate mutations (faults
//! and vulnerabilities) and the safety requirements are merged into one
//! logic program whose **stable models** are exactly the admissible attack /
//! fault scenarios. This crate implements the full pipeline:
//!
//! 1. [`parse`] — a recursive-descent parser for a clingo-like surface
//!    syntax (normal rules, integrity constraints, choice rules with
//!    cardinality bounds, comparison builtins, integer arithmetic,
//!    `#minimize` statements, `#show` directives, intervals `l..u`),
//! 2. [`ground`](ground::Grounder) — a semi-naive grounder producing a
//!    propositional program,
//! 3. [`solve`](solve::Solver) — a CDCL stable-model solver in the clasp
//!    tradition (two-watched-literal propagation over completion nogoods,
//!    1UIP conflict analysis with backjumping, EVSIDS branching with phase
//!    saving, Luby restarts, LBD-managed learned database, an
//!    unfounded-set backstop for non-tight programs, model enumeration,
//!    branch-and-bound `#minimize` optimization, brave/cautious
//!    reasoning, and assumption-based multi-shot solving: one ground
//!    program, many queries via [`Lit`] assumptions, with learned
//!    conflict nogoods retained across calls),
//! 4. [`check`](check::is_stable_model) — an *independent* stability
//!    verifier (reduct + least-model test) used to cross-validate every
//!    answer set in tests and debug builds,
//! 5. [`lint`](lint::lint_source) — a static-analysis pass producing
//!    span-carrying [`Diagnostic`]s (undefined predicates with
//!    did-you-mean hints, arity mismatches, unsafe variables, unreachable
//!    or duplicate rules, negation cycles — codes `A001`…`A011`),
//! 6. [`analysis`] — semantic program analysis: stratification and
//!    tightness classification (the certificate behind the solver's
//!    tight-program fast path), grounding-size prediction, and sound
//!    backward slicing consumed by
//!    [`Grounder::with_slicing`](ground::Grounder::with_slicing).
//!
//! # Example
//!
//! Listing 1 of the paper (fault activation) runs verbatim:
//!
//! ```
//! use cpsrisk_asp::Program;
//!
//! let src = r#"
//!     component(ew). fault(f4). mitigation(f4, m2).
//!     potential_fault(C, F) :- component(C), fault(F),
//!                              mitigation(F, M), not active_mitigation(C, M).
//! "#;
//! let program: Program = src.parse()?;
//! let models = program.solve()?;
//! assert_eq!(models.len(), 1);
//! assert!(models[0].contains_str("potential_fault(ew,f4)"));
//! # Ok::<(), cpsrisk_asp::AspError>(())
//! ```

pub mod analysis;
pub mod ast;
pub mod builder;
pub mod check;
pub mod diag;
pub mod error;
pub mod ground;
pub mod intern;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod program;
pub mod proof;
mod seminaive;
pub mod solve;

pub use analysis::{
    analyze_dependencies, ground_tight, predict_sizes, simplify, simplify_with, slice_program,
    well_founded, well_founded_with, SimplifyResult, WfmBase, WfmResult,
};
pub use ast::{Atom, ChoiceElement, Head, Literal, Program, Rule, Statement, Term};
pub use builder::ProgramBuilder;
pub use check::{check_proof, CheckError, CheckReport};
pub use diag::{Diagnostic, Severity, Span};
pub use error::{ArithFault, AspError};
pub use ground::{ExtendStats, GroundSession, Grounder};
pub use parser::{parse_program_spanned, SpannedProgram};
pub use program::{AtomId, GroundProgram};
pub use proof::{ProofLog, ProofStep};
pub use solve::{LearnedState, Lit, Model, SolveOptions, SolveResult, Solver};

/// Parse a program from its textual representation.
///
/// # Errors
///
/// Returns [`AspError::Parse`] on syntax errors.
pub fn parse(src: &str) -> Result<Program, AspError> {
    parser::parse_program(src)
}
