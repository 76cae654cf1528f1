//! Error type for the ASP engine.

use std::fmt;

/// Errors produced by parsing, grounding, or solving a logic program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AspError {
    /// Syntax error with a human-readable message and source position.
    Parse(String),
    /// A rule is unsafe: `var` does not occur in any positive body literal.
    UnsafeRule {
        /// The offending variable name.
        var: String,
        /// Display form of the rule.
        rule: String,
    },
    /// Grounding-time arithmetic failed; the fault says why.
    BadArithmetic(ArithFault),
    /// Grounding exceeded the configured instance budget.
    GroundingBudget {
        /// The configured maximum number of ground rule instances.
        limit: usize,
    },
    /// Solving exceeded the configured search budget: the sum of branching
    /// decisions and conflicts passed `max_decisions`. Carries the partial
    /// statistics at the moment of abort.
    SolveBudget {
        /// The configured budget (decisions + conflicts).
        limit: u64,
        /// Decisions made before the abort.
        decisions: u64,
        /// Conflicts hit before the abort.
        conflicts: u64,
    },
    /// A serialized proof exceeded the configured byte cap.
    ProofTooLarge {
        /// The configured maximum serialized size in bytes.
        limit: usize,
    },
    /// The program is inconsistent where a model was required.
    Unsatisfiable,
    /// An internal invariant failed (a bug; reported rather than panicking).
    Internal(String),
}

impl fmt::Display for AspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AspError::Parse(msg) => write!(f, "parse error: {msg}"),
            AspError::UnsafeRule { var, rule } => {
                write!(f, "unsafe rule: variable `{var}` unbound in `{rule}`")
            }
            AspError::BadArithmetic(fault) => write!(f, "{fault}"),
            AspError::GroundingBudget { limit } => {
                write!(f, "grounding exceeded the budget of {limit} rule instances")
            }
            AspError::SolveBudget {
                limit,
                decisions,
                conflicts,
            } => {
                write!(
                    f,
                    "solving exceeded the budget of {limit} decisions+conflicts \
                     ({decisions} decisions, {conflicts} conflicts)"
                )
            }
            AspError::ProofTooLarge { limit } => {
                write!(f, "serialized proof exceeds the cap of {limit} bytes")
            }
            AspError::Unsatisfiable => write!(f, "program has no answer set"),
            AspError::Internal(msg) => write!(f, "internal solver error: {msg}"),
        }
    }
}

impl std::error::Error for AspError {}

/// Why grounding-time arithmetic failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithFault {
    /// An operator applied to a non-integer operand; the expression.
    NonInteger(String),
    /// The result does not fit in a 64-bit integer; the expression.
    Overflow(String),
    /// Integer division by zero; the expression.
    DivisionByZero(String),
    /// A variable without a binding where a value is needed; its name.
    Unbound(String),
    /// A `#minimize` weight that is not an integer; the weight term.
    NonIntegerWeight(String),
}

impl fmt::Display for ArithFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithFault::NonInteger(e) => write!(f, "arithmetic on non-integer term `{e}`"),
            ArithFault::Overflow(e) => write!(f, "integer overflow in `{e}`"),
            ArithFault::DivisionByZero(e) => write!(f, "division by zero in `{e}`"),
            ArithFault::Unbound(v) => write!(f, "unbound variable `{v}` in arithmetic"),
            ArithFault::NonIntegerWeight(w) => write!(f, "minimize weight `{w}` is not an integer"),
        }
    }
}
