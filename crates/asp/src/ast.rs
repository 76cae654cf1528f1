//! Abstract syntax of (non-ground) logic programs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use crate::error::{ArithFault, AspError};

/// Arithmetic operators usable inside terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArithOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Integer division `/` (truncating; division by zero is a grounding error).
    Div,
}

impl ArithOp {
    /// Apply the operator to two integers.
    ///
    /// # Errors
    ///
    /// [`AspError::BadArithmetic`] with [`ArithFault::DivisionByZero`] or
    /// [`ArithFault::Overflow`].
    pub fn apply(self, a: i64, b: i64) -> Result<i64, AspError> {
        let r = match self {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div if b == 0 => {
                return Err(AspError::BadArithmetic(ArithFault::DivisionByZero(
                    format!("{a} {self} {b}"),
                )))
            }
            ArithOp::Div => a.checked_div(b),
        };
        r.ok_or_else(|| AspError::BadArithmetic(ArithFault::Overflow(format!("{a} {self} {b}"))))
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Comparison operators for builtin literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two ground terms.
    ///
    /// Integers compare numerically; all ground terms compare by the total
    /// term order (integers < symbols < strings < compounds, then
    /// lexicographically), matching the usual ASP convention closely enough
    /// for model encodings.
    #[must_use]
    pub fn eval(self, a: &Term, b: &Term) -> bool {
        let ord = a.ground_cmp(b);
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A first-order term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    /// Integer constant.
    Int(i64),
    /// Symbolic constant (lowercase identifier).
    Const(String),
    /// Quoted string constant.
    Str(String),
    /// Variable (uppercase identifier).
    Var(String),
    /// Compound term `f(t1, …, tn)`.
    Func(String, Vec<Term>),
    /// Arithmetic expression, evaluated during grounding.
    BinOp(ArithOp, Box<Term>, Box<Term>),
}

impl Term {
    /// Convenience constructor for a symbolic constant.
    #[must_use]
    pub fn sym(s: impl Into<String>) -> Term {
        Term::Const(s.into())
    }

    /// Convenience constructor for a variable.
    #[must_use]
    pub fn var(s: impl Into<String>) -> Term {
        Term::Var(s.into())
    }

    /// True if the term contains no variables.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Int(_) | Term::Const(_) | Term::Str(_) => true,
            Term::Var(_) => false,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
            Term::BinOp(_, a, b) => a.is_ground() && b.is_ground(),
        }
    }

    /// Collect variable names into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Func(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::BinOp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            _ => {}
        }
    }

    /// Evaluate arithmetic sub-expressions, producing a normalized ground
    /// term. Non-arithmetic ground terms are returned unchanged.
    ///
    /// # Errors
    ///
    /// [`AspError::BadArithmetic`] if an operator is applied to a
    /// non-integer operand, overflows or divides by zero, or the term is
    /// non-ground.
    pub fn eval(&self) -> Result<Term, AspError> {
        match self {
            Term::Int(_) | Term::Const(_) | Term::Str(_) => Ok(self.clone()),
            Term::Var(v) => Err(AspError::BadArithmetic(ArithFault::Unbound(v.clone()))),
            Term::Func(f, args) => {
                let args = args.iter().map(Term::eval).collect::<Result<Vec<_>, _>>()?;
                Ok(Term::Func(f.clone(), args))
            }
            Term::BinOp(op, a, b) => {
                let a = a.eval()?;
                let b = b.eval()?;
                match (&a, &b) {
                    (Term::Int(x), Term::Int(y)) => Ok(Term::Int(op.apply(*x, *y)?)),
                    _ => Err(AspError::BadArithmetic(ArithFault::NonInteger(format!(
                        "{a} {op} {b}"
                    )))),
                }
            }
        }
    }

    /// Total order over ground terms: integers (numerically) < symbols <
    /// strings < compounds (by name, arity, then args).
    #[must_use]
    pub fn ground_cmp(&self, other: &Term) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Term::*;
        fn rank(t: &Term) -> u8 {
            match t {
                Int(_) => 0,
                Const(_) => 1,
                Str(_) => 2,
                Var(_) => 3,
                Func(..) => 4,
                BinOp(..) => 5,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Const(a), Const(b)) | (Str(a), Str(b)) | (Var(a), Var(b)) => a.cmp(b),
            (Func(f, fa), Func(g, ga)) => f.cmp(g).then(fa.len().cmp(&ga.len())).then_with(|| {
                fa.iter()
                    .zip(ga)
                    .map(|(x, y)| x.ground_cmp(y))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            }),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(i) => write!(f, "{i}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Str(s) => write!(f, "\"{s}\""),
            Term::Var(v) => write!(f, "{v}"),
            Term::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Term::BinOp(op, a, b) => write!(f, "({a}{op}{b})"),
        }
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Self {
        Term::Int(i)
    }
}

impl From<&str> for Term {
    /// Interprets leading-uppercase identifiers as variables, everything
    /// else as a symbolic constant — mirroring the surface syntax.
    fn from(s: &str) -> Self {
        if s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase() || c == '_')
        {
            Term::Var(s.to_owned())
        } else {
            Term::Const(s.to_owned())
        }
    }
}

/// A predicate atom `p(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms (empty for propositional atoms).
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom from a predicate name and arguments.
    #[must_use]
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Self {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// A propositional (zero-arity) atom.
    #[must_use]
    pub fn prop(pred: impl Into<String>) -> Self {
        Atom::new(pred, Vec::new())
    }

    /// True if all arguments are ground.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collect variable names into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }

    /// Predicate signature `name/arity`.
    #[must_use]
    pub fn signature(&self) -> (String, usize) {
        (self.pred.clone(), self.args.len())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Literal {
    /// Positive atom.
    Pos(Atom),
    /// Default-negated atom (`not a`).
    Neg(Atom),
    /// Builtin comparison between two terms.
    Cmp(CmpOp, Term, Term),
}

impl Literal {
    /// Collect variable names into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.collect_vars(out),
            Literal::Cmp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }

    /// The positive atom, if this is a positive literal.
    #[must_use]
    pub fn as_pos(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

/// One element of a choice head: `atom : condition` (condition optional).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChoiceElement {
    /// The choosable atom.
    pub atom: Atom,
    /// Local condition literals; the element is instantiated for every
    /// substitution satisfying them (clingo's conditional literal).
    pub condition: Vec<Literal>,
}

impl ChoiceElement {
    /// An unconditional element.
    #[must_use]
    pub fn plain(atom: Atom) -> Self {
        ChoiceElement {
            atom,
            condition: Vec::new(),
        }
    }
}

impl fmt::Display for ChoiceElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.atom)?;
        if !self.condition.is_empty() {
            write!(f, " : ")?;
            for (i, l) in self.condition.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        Ok(())
    }
}

/// A rule head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Head {
    /// Ordinary atom head.
    Atom(Atom),
    /// Choice head `lo { e1; …; en } hi` (either bound optional).
    Choice {
        /// Lower cardinality bound, if any.
        lower: Option<u32>,
        /// Upper cardinality bound, if any.
        upper: Option<u32>,
        /// The choosable elements.
        elements: Vec<ChoiceElement>,
    },
    /// No head: an integrity constraint.
    None,
}

impl Head {
    /// Collect variable names into `out`. Variables local to a choice
    /// element's condition are *not* collected (they are bound locally).
    pub fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Head::Atom(a) => a.collect_vars(out),
            Head::Choice { elements, .. } => {
                for e in elements {
                    // Element variables bound by the local condition are safe.
                    let mut elem_vars = BTreeSet::new();
                    e.atom.collect_vars(&mut elem_vars);
                    let mut cond_vars = BTreeSet::new();
                    for l in &e.condition {
                        if let Literal::Pos(a) = l {
                            a.collect_vars(&mut cond_vars);
                        }
                    }
                    for v in elem_vars.difference(&cond_vars) {
                        out.insert(v.clone());
                    }
                }
            }
            Head::None => {}
        }
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Head::Atom(a) => write!(f, "{a}"),
            Head::Choice {
                lower,
                upper,
                elements,
            } => {
                if let Some(l) = lower {
                    write!(f, "{l} ")?;
                }
                write!(f, "{{ ")?;
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, " }}")?;
                if let Some(u) = upper {
                    write!(f, " {u}")?;
                }
                Ok(())
            }
            Head::None => Ok(()),
        }
    }
}

/// A rule `head :- body.`
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// The body literals (conjunction; empty for facts).
    pub body: Vec<Literal>,
}

impl Rule {
    /// A fact `a.`
    #[must_use]
    pub fn fact(atom: Atom) -> Rule {
        Rule {
            head: Head::Atom(atom),
            body: Vec::new(),
        }
    }

    /// A normal rule `head :- body.`
    #[must_use]
    pub fn normal(head: Atom, body: Vec<Literal>) -> Rule {
        Rule {
            head: Head::Atom(head),
            body,
        }
    }

    /// An integrity constraint `:- body.`
    #[must_use]
    pub fn constraint(body: Vec<Literal>) -> Rule {
        Rule {
            head: Head::None,
            body,
        }
    }

    /// Verify rule safety: every variable in the rule occurs in a positive,
    /// non-builtin body literal.
    ///
    /// # Errors
    ///
    /// [`AspError::UnsafeRule`] naming the first unbound variable.
    pub fn check_safety(&self) -> Result<(), AspError> {
        let mut all = BTreeSet::new();
        self.head.collect_vars(&mut all);
        for l in &self.body {
            l.collect_vars(&mut all);
        }
        let mut safe = BTreeSet::new();
        for l in &self.body {
            if let Literal::Pos(a) = l {
                a.collect_vars(&mut safe);
            }
        }
        // `=` with one side already safe also binds the other side when it
        // is a plain variable (X = <expr>).
        let mut changed = true;
        while changed {
            changed = false;
            for l in &self.body {
                if let Literal::Cmp(CmpOp::Eq, lhs, rhs) = l {
                    for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                        if let Term::Var(v) = a {
                            let mut bv = BTreeSet::new();
                            b.collect_vars(&mut bv);
                            if bv.is_subset(&safe) && safe.insert(v.clone()) {
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        for v in &all {
            if !safe.contains(v) {
                return Err(AspError::UnsafeRule {
                    var: v.clone(),
                    rule: self.to_string(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.head, self.body.is_empty()) {
            (Head::None, _) => write!(f, ":- ")?,
            (h, true) => return write!(f, "{h}."),
            (h, false) => write!(f, "{h} :- ")?,
        }
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// One element of a `#minimize` statement: `weight,terms : condition`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinimizeElement {
    /// Weight term (must ground to an integer).
    pub weight: Term,
    /// Tuple terms distinguishing elements with equal weights.
    pub terms: Vec<Term>,
    /// Condition literals; the weight counts when all hold.
    pub condition: Vec<Literal>,
}

impl fmt::Display for MinimizeElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.weight)?;
        for t in &self.terms {
            write!(f, ",{t}")?;
        }
        if !self.condition.is_empty() {
            write!(f, " : ")?;
            for (i, l) in self.condition.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        Ok(())
    }
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Statement {
    /// A rule, fact, or constraint.
    Rule(Rule),
    /// `#minimize { elements }.` at a priority level (higher = more important).
    Minimize {
        /// Priority level.
        priority: i64,
        /// Weighted elements.
        elements: Vec<MinimizeElement>,
    },
    /// `#show pred/arity.` — projection hint for display.
    Show {
        /// Predicate name.
        pred: String,
        /// Arity.
        arity: usize,
    },
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Rule(r) => write!(f, "{r}"),
            Statement::Minimize { priority, elements } => {
                write!(f, "#minimize {{ ")?;
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}@{priority}")?;
                }
                write!(f, " }}.")
            }
            Statement::Show { pred, arity } => write!(f, "#show {pred}/{arity}."),
        }
    }
}

/// A complete (non-ground) logic program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Statements in source order.
    pub statements: Vec<Statement>,
}

impl Program {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// All rules (in order), skipping non-rule statements.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Rule(r) => Some(r),
            _ => None,
        })
    }

    /// Append every statement of `other`.
    pub fn extend(&mut self, other: Program) {
        self.statements.extend(other.statements);
    }

    /// Add a single rule.
    pub fn push_rule(&mut self, rule: Rule) {
        self.statements.push(Statement::Rule(rule));
    }

    /// Ground and enumerate **all** answer sets with default limits.
    ///
    /// # Errors
    ///
    /// Propagates grounding and solving errors.
    pub fn solve(&self) -> Result<Vec<crate::solve::Model>, AspError> {
        let ground = crate::ground::Grounder::new().ground(self)?;
        let mut solver = crate::solve::Solver::new(&ground);
        Ok(solver
            .enumerate(&crate::solve::SolveOptions::default())?
            .models)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.statements {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromStr for Program {
    type Err = AspError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parser::parse_program(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_arithmetic_reports_overflow_and_division_by_zero() {
        assert_eq!(ArithOp::Mul.apply(6, 7), Ok(42));
        assert_eq!(
            ArithOp::Mul.apply(i64::MAX, 2),
            Err(AspError::BadArithmetic(ArithFault::Overflow(format!(
                "{} * 2",
                i64::MAX
            ))))
        );
        assert_eq!(
            ArithOp::Div.apply(1, 0),
            Err(AspError::BadArithmetic(ArithFault::DivisionByZero(
                "1 / 0".into()
            )))
        );
        assert!(matches!(
            ArithOp::Div.apply(i64::MIN, -1),
            Err(AspError::BadArithmetic(ArithFault::Overflow(_)))
        ));
        let sum = Term::BinOp(
            ArithOp::Add,
            Box::new(Term::sym("a")),
            Box::new(Term::Int(1)),
        );
        assert_eq!(
            sum.eval(),
            Err(AspError::BadArithmetic(ArithFault::NonInteger(
                "a + 1".into()
            )))
        );
        let unbound = Term::BinOp(
            ArithOp::Add,
            Box::new(Term::var("X")),
            Box::new(Term::Int(1)),
        );
        assert_eq!(
            unbound.eval().unwrap_err().to_string(),
            "unbound variable `X` in arithmetic"
        );
    }

    #[test]
    fn term_groundness() {
        assert!(Term::sym("a").is_ground());
        assert!(!Term::var("X").is_ground());
        assert!(!Term::Func("f".into(), vec![Term::var("X")]).is_ground());
        assert!(Term::Func("f".into(), vec![Term::Int(3)]).is_ground());
    }

    #[test]
    fn arithmetic_evaluation() {
        let t = Term::BinOp(
            ArithOp::Add,
            Box::new(Term::Int(2)),
            Box::new(Term::BinOp(
                ArithOp::Mul,
                Box::new(Term::Int(3)),
                Box::new(Term::Int(4)),
            )),
        );
        assert_eq!(t.eval().unwrap(), Term::Int(14));
        let div0 = Term::BinOp(ArithOp::Div, Box::new(Term::Int(1)), Box::new(Term::Int(0)));
        assert!(div0.eval().is_err());
        let sym = Term::BinOp(
            ArithOp::Add,
            Box::new(Term::sym("a")),
            Box::new(Term::Int(1)),
        );
        assert!(sym.eval().is_err());
    }

    #[test]
    fn ground_term_order_is_total_over_kinds() {
        use std::cmp::Ordering::*;
        assert_eq!(Term::Int(1).ground_cmp(&Term::Int(2)), Less);
        assert_eq!(Term::Int(9).ground_cmp(&Term::sym("a")), Less);
        assert_eq!(Term::sym("b").ground_cmp(&Term::sym("a")), Greater);
        assert_eq!(
            Term::Func("f".into(), vec![Term::Int(1)])
                .ground_cmp(&Term::Func("f".into(), vec![Term::Int(2)])),
            Less
        );
    }

    #[test]
    fn comparison_semantics() {
        assert!(CmpOp::Lt.eval(&Term::Int(1), &Term::Int(2)));
        assert!(CmpOp::Ne.eval(&Term::sym("a"), &Term::sym("b")));
        assert!(CmpOp::Eq.eval(&Term::sym("a"), &Term::sym("a")));
        assert!(!CmpOp::Ge.eval(&Term::Int(1), &Term::Int(2)));
    }

    #[test]
    fn safety_check_accepts_and_rejects() {
        // p(X) :- q(X).  — safe
        let safe = Rule::normal(
            Atom::new("p", vec![Term::var("X")]),
            vec![Literal::Pos(Atom::new("q", vec![Term::var("X")]))],
        );
        assert!(safe.check_safety().is_ok());

        // p(X) :- not q(X).  — unsafe
        let unsafe_rule = Rule::normal(
            Atom::new("p", vec![Term::var("X")]),
            vec![Literal::Neg(Atom::new("q", vec![Term::var("X")]))],
        );
        assert!(matches!(
            unsafe_rule.check_safety(),
            Err(AspError::UnsafeRule { .. })
        ));

        // p(Y) :- q(X), Y = X + 1.  — safe via equality binding
        let eq_bound = Rule::normal(
            Atom::new("p", vec![Term::var("Y")]),
            vec![
                Literal::Pos(Atom::new("q", vec![Term::var("X")])),
                Literal::Cmp(
                    CmpOp::Eq,
                    Term::var("Y"),
                    Term::BinOp(
                        ArithOp::Add,
                        Box::new(Term::var("X")),
                        Box::new(Term::Int(1)),
                    ),
                ),
            ],
        );
        assert!(eq_bound.check_safety().is_ok());
    }

    #[test]
    fn display_roundtrips_basic_shapes() {
        let r = Rule::normal(
            Atom::new("p", vec![Term::var("X")]),
            vec![
                Literal::Pos(Atom::new("q", vec![Term::var("X")])),
                Literal::Neg(Atom::prop("r")),
            ],
        );
        assert_eq!(r.to_string(), "p(X) :- q(X), not r.");
        let c = Rule::constraint(vec![Literal::Pos(Atom::prop("bad"))]);
        assert_eq!(c.to_string(), ":- bad.");
        let f = Rule::fact(Atom::new("p", vec![Term::Int(1), Term::sym("a")]));
        assert_eq!(f.to_string(), "p(1,a).");
    }

    #[test]
    fn from_str_for_term_distinguishes_vars() {
        assert_eq!(Term::from("X"), Term::var("X"));
        assert_eq!(Term::from("abc"), Term::sym("abc"));
        assert_eq!(Term::from("_G"), Term::var("_G"));
    }
}
