//! Bound (typed, column-resolved) expressions.
//!
//! The binder lowers AST expressions into `BExpr`, resolving column names
//! to input positions and inserting explicit [`BExpr::Cast`] nodes so that
//! every binary operation executes over operands of one physical type —
//! the discipline that keeps the column-at-a-time kernels small and
//! branch-free.

use monetlite_types::{LogicalType, Value};
use std::fmt;

/// Comparison operators (post-binding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// Mirror the operator (for operand swaps).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "!=",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators (post-binding; both operands share the result's
/// physical type except decimal multiplication, which tracks scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

/// Scalar functions implemented by the engine. MonetDBLite famously
/// re-implemented `LIKE` to drop the PCRE dependency (paper §3.4); our
/// LIKE matcher lives in the kernels and is likewise dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// sqrt(x) -> double
    Sqrt,
    /// abs(x) -> same type
    Abs,
    /// floor(x) -> double
    Floor,
    /// ceil(x) -> double
    Ceil,
    /// upper(s)
    Upper,
    /// lower(s)
    Lower,
    /// length(s) -> int
    Length,
    /// substring(s, start1based, len)
    Substring,
    /// year(d) / month(d) / day(d) — EXTRACT lowers to these.
    Year,
    /// month part
    Month,
    /// day part
    Day,
    /// date + N days (interval arithmetic on a date column).
    AddDays,
    /// date + N months (clamping day-of-month).
    AddMonths,
    /// date + N years.
    AddYears,
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarFunc::Sqrt => "sqrt",
            ScalarFunc::Abs => "abs",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Length => "length",
            ScalarFunc::Substring => "substring",
            ScalarFunc::Year => "year",
            ScalarFunc::Month => "month",
            ScalarFunc::Day => "day",
            ScalarFunc::AddDays => "add_days",
            ScalarFunc::AddMonths => "add_months",
            ScalarFunc::AddYears => "add_years",
        };
        write!(f, "{s}")
    }
}

/// A bound expression over the input chunk's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// Input column by position.
    ColRef {
        /// Position in the input chunk.
        idx: usize,
        /// Result type.
        ty: LogicalType,
    },
    /// Constant.
    Lit(Value),
    /// Plan-cache bind parameter: a literal slot whose *value* varies
    /// between executions of the same cached template. `value` holds the
    /// representative literal the template was first bound with (after
    /// any cast folding), so type derivation and selectivity estimation
    /// see a concrete value — but `is_const()` is false, which blocks
    /// every plan-time fold that would bake the representative into the
    /// plan. The executor never sees `Param`: the cache substitutes
    /// fresh literals (and re-folds) before execution.
    Param {
        /// 0-based slot in the template's bind vector.
        idx: usize,
        /// Representative literal (current type carrier).
        value: Value,
    },
    /// Cast to a target type.
    Cast {
        /// Operand.
        input: Box<BExpr>,
        /// Target type.
        ty: LogicalType,
    },
    /// Same-type arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<BExpr>,
        /// Right operand.
        right: Box<BExpr>,
        /// Result type.
        ty: LogicalType,
    },
    /// Same-type comparison, yields BOOLEAN.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<BExpr>,
        /// Right operand.
        right: Box<BExpr>,
    },
    /// Three-valued AND.
    And(Box<BExpr>, Box<BExpr>),
    /// Three-valued OR.
    Or(Box<BExpr>, Box<BExpr>),
    /// Three-valued NOT.
    Not(Box<BExpr>),
    /// IS NULL / IS NOT NULL (never yields NULL).
    IsNull {
        /// Operand.
        input: Box<BExpr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// LIKE with the dependency-free matcher.
    Like {
        /// String operand.
        input: Box<BExpr>,
        /// Pattern (`%`, `_` wildcards).
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// Searched CASE; all branch values share `ty`.
    Case {
        /// (condition, value) pairs.
        branches: Vec<(BExpr, BExpr)>,
        /// ELSE value (NULL when absent).
        else_expr: Option<Box<BExpr>>,
        /// Result type.
        ty: LogicalType,
    },
    /// Scalar function application.
    Func {
        /// Function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BExpr>,
        /// Result type.
        ty: LogicalType,
    },
    /// Arithmetic negation.
    Neg {
        /// Operand.
        input: Box<BExpr>,
        /// Result type.
        ty: LogicalType,
    },
}

impl BExpr {
    /// The expression's result type.
    pub fn ty(&self) -> LogicalType {
        match self {
            BExpr::ColRef { ty, .. } => *ty,
            BExpr::Lit(v) => v.logical_type().unwrap_or(LogicalType::Int),
            BExpr::Param { value, .. } => value.logical_type().unwrap_or(LogicalType::Int),
            BExpr::Cast { ty, .. } => *ty,
            BExpr::Arith { ty, .. } => *ty,
            BExpr::Cmp { .. }
            | BExpr::And(..)
            | BExpr::Or(..)
            | BExpr::Not(..)
            | BExpr::IsNull { .. }
            | BExpr::Like { .. } => LogicalType::Bool,
            BExpr::Case { ty, .. } => *ty,
            BExpr::Func { ty, .. } => *ty,
            BExpr::Neg { ty, .. } => *ty,
        }
    }

    /// True when the expression references no input columns (safe to fold
    /// to a constant).
    pub fn is_const(&self) -> bool {
        match self {
            BExpr::ColRef { .. } => false,
            BExpr::Lit(_) => true,
            // Not const: the value varies per execution, so no plan-time
            // fold may consume the representative.
            BExpr::Param { .. } => false,
            BExpr::Cast { input, .. } | BExpr::Not(input) | BExpr::Neg { input, .. } => {
                input.is_const()
            }
            BExpr::IsNull { input, .. } | BExpr::Like { input, .. } => input.is_const(),
            BExpr::Arith { left, right, .. } | BExpr::Cmp { left, right, .. } => {
                left.is_const() && right.is_const()
            }
            BExpr::And(a, b) | BExpr::Or(a, b) => a.is_const() && b.is_const(),
            BExpr::Case { branches, else_expr, .. } => {
                branches.iter().all(|(c, v)| c.is_const() && v.is_const())
                    && else_expr.as_ref().is_none_or(|e| e.is_const())
            }
            BExpr::Func { args, .. } => args.iter().all(|a| a.is_const()),
        }
    }

    /// Visit this expression and every subexpression, parents first.
    pub fn walk(&self, visit: &mut dyn FnMut(&BExpr)) {
        visit(self);
        match self {
            BExpr::ColRef { .. } | BExpr::Lit(_) | BExpr::Param { .. } => {}
            BExpr::Cast { input, .. }
            | BExpr::Not(input)
            | BExpr::Neg { input, .. }
            | BExpr::IsNull { input, .. }
            | BExpr::Like { input, .. } => input.walk(visit),
            BExpr::Arith { left, right, .. }
            | BExpr::Cmp { left, right, .. }
            | BExpr::And(left, right)
            | BExpr::Or(left, right) => {
                left.walk(visit);
                right.walk(visit);
            }
            BExpr::Case { branches, else_expr, .. } => {
                for (c, v) in branches {
                    c.walk(visit);
                    v.walk(visit);
                }
                if let Some(e) = else_expr {
                    e.walk(visit);
                }
            }
            BExpr::Func { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
        }
    }

    /// [`BExpr::remap_cols`] of an owned expression, rewriting its column
    /// references in place instead of building a copy.
    pub(crate) fn remapped(mut self, map: &dyn Fn(usize) -> usize) -> BExpr {
        self.cols_mut(&mut |c| *c = map(*c));
        self
    }

    /// Visit every column reference mutably.
    fn cols_mut(&mut self, f: &mut dyn FnMut(&mut usize)) {
        match self {
            BExpr::ColRef { idx, .. } => f(idx),
            BExpr::Lit(_) | BExpr::Param { .. } => {}
            BExpr::Cast { input, .. }
            | BExpr::Not(input)
            | BExpr::Neg { input, .. }
            | BExpr::IsNull { input, .. }
            | BExpr::Like { input, .. } => input.cols_mut(f),
            BExpr::Arith { left, right, .. }
            | BExpr::Cmp { left, right, .. }
            | BExpr::And(left, right)
            | BExpr::Or(left, right) => {
                left.cols_mut(f);
                right.cols_mut(f);
            }
            BExpr::Case { branches, else_expr, .. } => {
                for (c, v) in branches {
                    c.cols_mut(f);
                    v.cols_mut(f);
                }
                if let Some(e) = else_expr {
                    e.cols_mut(f);
                }
            }
            BExpr::Func { args, .. } => {
                for a in args {
                    a.cols_mut(f);
                }
            }
        }
    }

    /// The largest referenced input column index (`None` for an
    /// expression that reads no column).
    pub(crate) fn max_col(&self) -> Option<usize> {
        let mut max = None;
        self.walk(&mut |e| {
            if let BExpr::ColRef { idx, .. } = e {
                max = max.max(Some(*idx));
            }
        });
        max
    }

    /// Collect every referenced input column index.
    pub fn collect_cols(&self, out: &mut Vec<usize>) {
        self.walk(&mut |e| {
            if let BExpr::ColRef { idx, .. } = e {
                out.push(*idx);
            }
        });
    }

    /// True when the expression (recursively) contains a plan-cache
    /// parameter slot.
    pub fn has_param(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= matches!(e, BExpr::Param { .. }));
        found
    }

    /// Replace every parameter slot with a literal via `value_of` — with
    /// the representative value for cost estimation (so a template plan
    /// gets the same join order as its literal-bound twin), or with the
    /// fresh bind values when the cache replays a template.
    pub fn resolve_params(&self, value_of: &dyn Fn(usize, &Value) -> Value) -> BExpr {
        match self {
            BExpr::Param { idx, value } => BExpr::Lit(value_of(*idx, value)),
            BExpr::ColRef { .. } | BExpr::Lit(_) => self.clone(),
            BExpr::Cast { input, ty } => {
                BExpr::Cast { input: Box::new(input.resolve_params(value_of)), ty: *ty }
            }
            BExpr::Arith { op, left, right, ty } => BExpr::Arith {
                op: *op,
                left: Box::new(left.resolve_params(value_of)),
                right: Box::new(right.resolve_params(value_of)),
                ty: *ty,
            },
            BExpr::Cmp { op, left, right } => BExpr::Cmp {
                op: *op,
                left: Box::new(left.resolve_params(value_of)),
                right: Box::new(right.resolve_params(value_of)),
            },
            BExpr::And(a, b) => BExpr::And(
                Box::new(a.resolve_params(value_of)),
                Box::new(b.resolve_params(value_of)),
            ),
            BExpr::Or(a, b) => BExpr::Or(
                Box::new(a.resolve_params(value_of)),
                Box::new(b.resolve_params(value_of)),
            ),
            BExpr::Not(a) => BExpr::Not(Box::new(a.resolve_params(value_of))),
            BExpr::IsNull { input, negated } => {
                BExpr::IsNull { input: Box::new(input.resolve_params(value_of)), negated: *negated }
            }
            BExpr::Like { input, pattern, negated } => BExpr::Like {
                input: Box::new(input.resolve_params(value_of)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            BExpr::Case { branches, else_expr, ty } => BExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.resolve_params(value_of), v.resolve_params(value_of)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.resolve_params(value_of))),
                ty: *ty,
            },
            BExpr::Func { func, args, ty } => BExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.resolve_params(value_of)).collect(),
                ty: *ty,
            },
            BExpr::Neg { input, ty } => {
                BExpr::Neg { input: Box::new(input.resolve_params(value_of)), ty: *ty }
            }
        }
    }

    /// Rewrite every column reference through `map` (old index → new).
    /// Used by projection pushdown and join-side splitting.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> usize) -> BExpr {
        match self {
            BExpr::ColRef { idx, ty } => BExpr::ColRef { idx: map(*idx), ty: *ty },
            BExpr::Lit(v) => BExpr::Lit(v.clone()),
            BExpr::Param { idx, value } => BExpr::Param { idx: *idx, value: value.clone() },
            BExpr::Cast { input, ty } => {
                BExpr::Cast { input: Box::new(input.remap_cols(map)), ty: *ty }
            }
            BExpr::Arith { op, left, right, ty } => BExpr::Arith {
                op: *op,
                left: Box::new(left.remap_cols(map)),
                right: Box::new(right.remap_cols(map)),
                ty: *ty,
            },
            BExpr::Cmp { op, left, right } => BExpr::Cmp {
                op: *op,
                left: Box::new(left.remap_cols(map)),
                right: Box::new(right.remap_cols(map)),
            },
            BExpr::And(a, b) => {
                BExpr::And(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map)))
            }
            BExpr::Or(a, b) => BExpr::Or(Box::new(a.remap_cols(map)), Box::new(b.remap_cols(map))),
            BExpr::Not(a) => BExpr::Not(Box::new(a.remap_cols(map))),
            BExpr::IsNull { input, negated } => {
                BExpr::IsNull { input: Box::new(input.remap_cols(map)), negated: *negated }
            }
            BExpr::Like { input, pattern, negated } => BExpr::Like {
                input: Box::new(input.remap_cols(map)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            BExpr::Case { branches, else_expr, ty } => BExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.remap_cols(map), v.remap_cols(map)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(e.remap_cols(map))),
                ty: *ty,
            },
            BExpr::Func { func, args, ty } => BExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap_cols(map)).collect(),
                ty: *ty,
            },
            BExpr::Neg { input, ty } => {
                BExpr::Neg { input: Box::new(input.remap_cols(map)), ty: *ty }
            }
        }
    }
}

impl fmt::Display for BExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BExpr::ColRef { idx, .. } => write!(f, "#{idx}"),
            BExpr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                other => write!(f, "{other}"),
            },
            BExpr::Param { idx, .. } => write!(f, "?{idx}"),
            BExpr::Cast { input, ty } => write!(f, "cast({input} as {ty})"),
            BExpr::Arith { op, left, right, .. } => write!(f, "({left} {op} {right})"),
            BExpr::Cmp { op, left, right } => write!(f, "({left} {op} {right})"),
            BExpr::And(a, b) => write!(f, "({a} and {b})"),
            BExpr::Or(a, b) => write!(f, "({a} or {b})"),
            BExpr::Not(a) => write!(f, "(not {a})"),
            BExpr::IsNull { input, negated } => {
                write!(f, "({input} is {}null)", if *negated { "not " } else { "" })
            }
            BExpr::Like { input, pattern, negated } => {
                write!(f, "({input} {}like '{pattern}')", if *negated { "not " } else { "" })
            }
            BExpr::Case { branches, else_expr, .. } => {
                write!(f, "case")?;
                for (c, v) in branches {
                    write!(f, " when {c} then {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " else {e}")?;
                }
                write!(f, " end")
            }
            BExpr::Func { func, args, .. } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            BExpr::Neg { input, .. } => write!(f, "(-{input})"),
        }
    }
}

/// Aggregate functions at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PAggFunc {
    /// COUNT(expr) — non-null count; arg None means COUNT(*).
    Count,
    /// SUM
    Sum,
    /// AVG (always DOUBLE output)
    Avg,
    /// MIN
    Min,
    /// MAX
    Max,
    /// MEDIAN (always DOUBLE output; the blocking operator of Figure 2)
    Median,
}

impl fmt::Display for PAggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PAggFunc::Count => "count",
            PAggFunc::Sum => "sum",
            PAggFunc::Avg => "avg",
            PAggFunc::Min => "min",
            PAggFunc::Max => "max",
            PAggFunc::Median => "median",
        };
        write!(f, "{s}")
    }
}

/// One aggregate computation in an Aggregate plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Function.
    pub func: PAggFunc,
    /// Argument over the aggregate input (None = COUNT(*)).
    pub arg: Option<BExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
    /// Output type.
    pub ty: LogicalType,
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            None => write!(f, "{}(*)", self.func),
            Some(a) => {
                write!(f, "{}({}{})", self.func, if self.distinct { "distinct " } else { "" }, a)
            }
        }
    }
}

/// The output type of an aggregate over an input type.
pub fn agg_output_type(func: PAggFunc, input: Option<LogicalType>) -> LogicalType {
    match func {
        PAggFunc::Count => LogicalType::Bigint,
        PAggFunc::Avg | PAggFunc::Median => LogicalType::Double,
        PAggFunc::Sum => match input {
            Some(LogicalType::Int) | Some(LogicalType::Bigint) => LogicalType::Bigint,
            Some(LogicalType::Decimal { scale, .. }) => {
                LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale }
            }
            _ => LogicalType::Double,
        },
        PAggFunc::Min | PAggFunc::Max => input.unwrap_or(LogicalType::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_propagation() {
        let c = BExpr::ColRef { idx: 0, ty: LogicalType::Int };
        assert_eq!(c.ty(), LogicalType::Int);
        let cmp = BExpr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(c.clone()),
            right: Box::new(BExpr::Lit(Value::Int(3))),
        };
        assert_eq!(cmp.ty(), LogicalType::Bool);
    }

    #[test]
    fn const_detection() {
        assert!(BExpr::Lit(Value::Int(1)).is_const());
        let e = BExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(BExpr::Lit(Value::Int(1))),
            right: Box::new(BExpr::Lit(Value::Int(2))),
            ty: LogicalType::Int,
        };
        assert!(e.is_const());
        let e2 = BExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(2))),
            ty: LogicalType::Int,
        };
        assert!(!e2.is_const());
    }

    #[test]
    fn remap_and_collect() {
        let e = BExpr::Arith {
            op: ArithOp::Mul,
            left: Box::new(BExpr::ColRef { idx: 2, ty: LogicalType::Int }),
            right: Box::new(BExpr::ColRef { idx: 5, ty: LogicalType::Int }),
            ty: LogicalType::Int,
        };
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        assert_eq!(cols, vec![2, 5]);
        let r = e.remap_cols(&|i| i - 2);
        let mut cols2 = Vec::new();
        r.collect_cols(&mut cols2);
        assert_eq!(cols2, vec![0, 3]);
    }

    #[test]
    fn display_reads_like_mal() {
        let e = BExpr::Cmp {
            op: CmpOp::LtEq,
            left: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Date }),
            right: Box::new(BExpr::Lit(Value::Int(10_000))),
        };
        assert_eq!(e.to_string(), "(#1 <= 10000)");
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(agg_output_type(PAggFunc::Count, None), LogicalType::Bigint);
        assert_eq!(agg_output_type(PAggFunc::Sum, Some(LogicalType::Int)), LogicalType::Bigint);
        assert_eq!(
            agg_output_type(PAggFunc::Sum, Some(LogicalType::Decimal { width: 15, scale: 2 })),
            LogicalType::Decimal { width: 18, scale: 2 }
        );
        assert_eq!(agg_output_type(PAggFunc::Avg, Some(LogicalType::Int)), LogicalType::Double);
        assert_eq!(
            agg_output_type(PAggFunc::Min, Some(LogicalType::Varchar)),
            LogicalType::Varchar
        );
    }
}
