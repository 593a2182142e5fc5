//! Quantifier-free first-order constraint formulas.
//!
//! The symbolic executor represents a rule's trigger constraint and
//! condition as formulas over [`VarId`] variables (paper §V: "The semantics
//! of each app is then represented as quantifier-free first-order
//! formulas"). The detector merges formulas from different rules and hands
//! them to `hg-solver`.

use crate::value::Value;
use crate::varid::VarId;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators in atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
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
    /// The negated operator.
    pub fn negate(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with swapped operands (`a < b` ⇔ `b > a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => *other,
        }
    }

    /// Evaluates the comparison on ordered operands.
    pub fn eval<T: PartialOrd + PartialEq>(&self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Spelling used in displays.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An arithmetic term over variables and constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant value.
    Const(Value),
    /// A variable.
    Var(VarId),
    /// `a + b`.
    Add(Box<Term>, Box<Term>),
    /// `a - b`.
    Sub(Box<Term>, Box<Term>),
    /// `a * b` (the solver requires at least one side to be constant).
    Mul(Box<Term>, Box<Term>),
    /// `a / b` (integer division on scaled values; solver requires a
    /// constant divisor).
    Div(Box<Term>, Box<Term>),
    /// `-a`.
    Neg(Box<Term>),
}

impl Term {
    /// A numeric constant from a scaled value.
    pub fn num(n: i64) -> Term {
        Term::Const(Value::Num(n))
    }

    /// A symbolic constant.
    pub fn sym(s: impl Into<String>) -> Term {
        Term::Const(Value::Sym(s.into()))
    }

    /// A variable term.
    pub fn var(v: VarId) -> Term {
        Term::Var(v)
    }

    /// Collects the variables in this term into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Term::Const(_) => {}
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Add(a, b) | Term::Sub(a, b) | Term::Mul(a, b) | Term::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Term::Neg(a) => a.collect_vars(out),
        }
    }

    /// Substitutes variables with constants per `lookup`, folding constant
    /// arithmetic where possible.
    pub fn substitute(&self, lookup: &dyn Fn(&VarId) -> Option<Value>) -> Term {
        match self {
            Term::Const(_) => self.clone(),
            Term::Var(v) => match lookup(v) {
                Some(val) => Term::Const(val),
                None => self.clone(),
            },
            Term::Add(a, b) => fold2(
                a.substitute(lookup),
                b.substitute(lookup),
                Term::Add,
                |x, y| x.checked_add(y),
            ),
            Term::Sub(a, b) => fold2(
                a.substitute(lookup),
                b.substitute(lookup),
                Term::Sub,
                |x, y| x.checked_sub(y),
            ),
            Term::Mul(a, b) => fold2(
                a.substitute(lookup),
                b.substitute(lookup),
                Term::Mul,
                |x, y| {
                    // Scaled multiplication: (x/S)*(y/S) = x*y/S².
                    x.checked_mul(y).map(|p| p / hg_capability::domains::SCALE)
                },
            ),
            Term::Div(a, b) => fold2(
                a.substitute(lookup),
                b.substitute(lookup),
                Term::Div,
                |x, y| {
                    if y == 0 {
                        None
                    } else {
                        x.checked_mul(hg_capability::domains::SCALE).map(|p| p / y)
                    }
                },
            ),
            Term::Neg(a) => {
                let inner = a.substitute(lookup);
                if let Term::Const(Value::Num(n)) = inner {
                    Term::num(-n)
                } else {
                    Term::Neg(Box::new(inner))
                }
            }
        }
    }

    /// The constant value, if this term is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }
}

fn fold2(
    a: Term,
    b: Term,
    ctor: fn(Box<Term>, Box<Term>) -> Term,
    op: impl Fn(i64, i64) -> Option<i64>,
) -> Term {
    if let (Term::Const(Value::Num(x)), Term::Const(Value::Num(y))) = (&a, &b) {
        if let Some(r) = op(*x, *y) {
            return Term::num(r);
        }
    }
    ctor(Box::new(a), Box::new(b))
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mul(a, b) => write!(f, "({a} * {b})"),
            Term::Div(a, b) => write!(f, "({a} / {b})"),
            Term::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// A constraint formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Always satisfied.
    True,
    /// Never satisfied.
    False,
    /// An atomic comparison.
    Cmp {
        /// Left operand.
        lhs: Term,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        rhs: Term,
    },
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// Builds `lhs op rhs`.
    pub fn cmp(lhs: Term, op: CmpOp, rhs: Term) -> Formula {
        Formula::Cmp { lhs, op, rhs }
    }

    /// Builds `var == value`.
    pub fn var_eq(var: VarId, value: Value) -> Formula {
        Formula::cmp(Term::Var(var), CmpOp::Eq, Term::Const(value))
    }

    /// Conjunction that flattens nested `And`s and drops `True`s.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len checked"),
            _ => Formula::And(flat),
        }
    }

    /// Disjunction that flattens nested `Or`s and drops `False`s.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Negation with basic simplification (negation pushing on atoms).
    pub fn negate(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Cmp { lhs, op, rhs } => Formula::Cmp {
                lhs,
                op: op.negate(),
                rhs,
            },
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// All variables mentioned by the formula.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Cmp { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
            Formula::Not(inner) => inner.collect_vars(out),
        }
    }

    /// Substitutes variables with constants, simplifying decidable atoms.
    pub fn substitute(&self, lookup: &dyn Fn(&VarId) -> Option<Value>) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Cmp { lhs, op, rhs } => {
                let l = lhs.substitute(lookup);
                let r = rhs.substitute(lookup);
                if let (Some(a), Some(b)) = (l.as_const(), r.as_const()) {
                    if let Some(res) = eval_const_cmp(a, *op, b) {
                        return if res { Formula::True } else { Formula::False };
                    }
                }
                Formula::Cmp {
                    lhs: l,
                    op: *op,
                    rhs: r,
                }
            }
            Formula::And(parts) => Formula::and(parts.iter().map(|p| p.substitute(lookup))),
            Formula::Or(parts) => Formula::or(parts.iter().map(|p| p.substitute(lookup))),
            Formula::Not(inner) => inner.substitute(lookup).negate(),
        }
    }

    /// Renames device references in variables (used when unifying two rules'
    /// device slots during store-wide analysis).
    pub fn map_vars(&self, f: &dyn Fn(&VarId) -> VarId) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Cmp { lhs, op, rhs } => Formula::Cmp {
                lhs: map_term_vars(lhs, f),
                op: *op,
                rhs: map_term_vars(rhs, f),
            },
            Formula::And(parts) => Formula::And(parts.iter().map(|p| p.map_vars(f)).collect()),
            Formula::Or(parts) => Formula::Or(parts.iter().map(|p| p.map_vars(f)).collect()),
            Formula::Not(inner) => Formula::Not(Box::new(inner.map_vars(f))),
        }
    }
}

fn map_term_vars(t: &Term, f: &dyn Fn(&VarId) -> VarId) -> Term {
    match t {
        Term::Const(_) => t.clone(),
        Term::Var(v) => Term::Var(f(v)),
        Term::Add(a, b) => Term::Add(Box::new(map_term_vars(a, f)), Box::new(map_term_vars(b, f))),
        Term::Sub(a, b) => Term::Sub(Box::new(map_term_vars(a, f)), Box::new(map_term_vars(b, f))),
        Term::Mul(a, b) => Term::Mul(Box::new(map_term_vars(a, f)), Box::new(map_term_vars(b, f))),
        Term::Div(a, b) => Term::Div(Box::new(map_term_vars(a, f)), Box::new(map_term_vars(b, f))),
        Term::Neg(a) => Term::Neg(Box::new(map_term_vars(a, f))),
    }
}

fn eval_const_cmp(a: &Value, op: CmpOp, b: &Value) -> Option<bool> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => Some(op.eval(x, y)),
        (Value::Sym(x), Value::Sym(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            _ => None,
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            _ => None,
        },
        (Value::Null, Value::Null) => match op {
            CmpOp::Eq => Some(true),
            CmpOp::Ne => Some(false),
            _ => None,
        },
        // Cross-type equality is false in our model (Groovy would coerce,
        // but SmartApp comparisons are homogeneous in practice).
        (_, _) => match op {
            CmpOp::Eq => Some(false),
            CmpOp::Ne => Some(true),
            _ => None,
        },
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::Cmp { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Formula::And(parts) => {
                f.write_str("(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" && ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Formula::Or(parts) => {
                f.write_str("(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" || ")?;
                    }
                    write!(f, "{p}")?;
                }
                f.write_str(")")
            }
            Formula::Not(inner) => write!(f, "!({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varid::DeviceRef;

    fn tvar() -> VarId {
        VarId::env("temperature")
    }

    #[test]
    fn and_flattens_and_simplifies() {
        let f = Formula::and([Formula::True, Formula::True]);
        assert_eq!(f, Formula::True);
        let g = Formula::and([Formula::True, Formula::False]);
        assert_eq!(g, Formula::False);
        let atom = Formula::cmp(Term::var(tvar()), CmpOp::Gt, Term::num(3000));
        let h = Formula::and([atom.clone(), Formula::True]);
        assert_eq!(h, atom);
        let nested = Formula::and([Formula::and([atom.clone(), atom.clone()]), atom.clone()]);
        assert!(matches!(nested, Formula::And(ref v) if v.len() == 3));
    }

    #[test]
    fn or_flattens_and_simplifies() {
        assert_eq!(
            Formula::or([Formula::False, Formula::False]),
            Formula::False
        );
        assert_eq!(Formula::or([Formula::False, Formula::True]), Formula::True);
    }

    #[test]
    fn negate_pushes_into_atoms() {
        let atom = Formula::cmp(Term::var(tvar()), CmpOp::Gt, Term::num(5));
        let neg = atom.negate();
        assert_eq!(
            neg,
            Formula::cmp(Term::var(tvar()), CmpOp::Le, Term::num(5))
        );
        assert_eq!(Formula::True.negate(), Formula::False);
        let double = Formula::Not(Box::new(Formula::True)).negate();
        assert_eq!(double, Formula::True);
    }

    #[test]
    fn variable_collection() {
        let f = Formula::and([
            Formula::cmp(Term::var(tvar()), CmpOp::Gt, Term::num(5)),
            Formula::var_eq(VarId::Mode, Value::sym("Home")),
        ]);
        let vars = f.variables();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&VarId::Mode));
    }

    #[test]
    fn substitution_folds_constants() {
        let f = Formula::cmp(Term::var(tvar()), CmpOp::Gt, Term::num(3000));
        let t = f.substitute(&|v| (v == &tvar()).then_some(Value::Num(3500)));
        assert_eq!(t, Formula::True);
        let fa = f.substitute(&|v| (v == &tvar()).then_some(Value::Num(2000)));
        assert_eq!(fa, Formula::False);
        let unk = f.substitute(&|_| None);
        assert_eq!(unk, f);
    }

    #[test]
    fn substitution_in_arithmetic() {
        // t + 5 > 30, t = 26 → true
        let t = Term::Add(Box::new(Term::var(tvar())), Box::new(Term::num(500)));
        let f = Formula::cmp(t, CmpOp::Gt, Term::num(3000));
        assert_eq!(
            f.substitute(&|v| (v == &tvar()).then_some(Value::Num(2600))),
            Formula::True
        );
    }

    #[test]
    fn scaled_multiplication() {
        // 2 * 3 under scale 100: 200 * 300 / 100 = 600.
        let t = Term::Mul(Box::new(Term::num(200)), Box::new(Term::num(300)));
        assert_eq!(t.substitute(&|_| None), Term::num(600));
        let d = Term::Div(Box::new(Term::num(600)), Box::new(Term::num(300)));
        assert_eq!(d.substitute(&|_| None), Term::num(200));
    }

    #[test]
    fn cross_type_equality_is_false() {
        let f = Formula::cmp(Term::sym("on"), CmpOp::Eq, Term::num(1));
        assert_eq!(f.substitute(&|_| None), Formula::False);
        let g = Formula::cmp(Term::sym("on"), CmpOp::Ne, Term::num(1));
        assert_eq!(g.substitute(&|_| None), Formula::True);
    }

    #[test]
    fn map_vars_rebinds_devices() {
        let unbound = DeviceRef::Unbound {
            app: "A".into(),
            input: "tv1".into(),
            capability: "switch".into(),
            kind: hg_capability::device_kind::DeviceKind::Tv,
        };
        let f = Formula::var_eq(VarId::device_attr(unbound, "switch"), Value::sym("on"));
        let mapped = f.map_vars(&|v| match v {
            VarId::DeviceAttr { attribute, .. } => {
                VarId::device_attr(DeviceRef::bound("0e0b"), attribute.clone())
            }
            other => other.clone(),
        });
        let vars = mapped.variables();
        assert!(vars.iter().all(|v| matches!(
            v,
            VarId::DeviceAttr {
                device: DeviceRef::Bound { .. },
                ..
            }
        )));
    }

    #[test]
    fn display_forms() {
        let f = Formula::and([
            Formula::cmp(Term::var(tvar()), CmpOp::Gt, Term::num(3000)),
            Formula::var_eq(VarId::Mode, Value::sym("Night")),
        ]);
        let s = f.to_string();
        assert!(s.contains("env.temperature > 30"), "{s}");
        assert!(s.contains("mode == Night"), "{s}");
    }

    #[test]
    fn cmp_op_negate_flip() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert!(CmpOp::Le.eval(&1, &1));
        assert!(!CmpOp::Gt.eval(&1, &1));
    }
}
