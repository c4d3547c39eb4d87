//! Tuple-at-a-time expression interpretation.
//!
//! This is the volcano model's per-tuple cost made explicit: every operator
//! call dispatches dynamically on the value type for every row — the
//! overhead that makes "traditional database systems perform many orders
//! of magnitude worse than the analytical database systems" on scans
//! (paper §4.2). Contrast with `monetlite::kernels`, which dispatches once
//! per *column*.

use monetlite::expr::{ArithOp, BExpr, CmpOp, ScalarFunc};
use monetlite::kernels::like_match;
use monetlite_sql::ast;
use monetlite_types::{Date, Decimal, LogicalType, MlError, Result, Value};

/// Evaluate a bound expression against one row.
pub fn eval_row(e: &BExpr, row: &[Value]) -> Result<Value> {
    match e {
        BExpr::ColRef { idx, .. } => Ok(row
            .get(*idx)
            .cloned()
            .ok_or_else(|| MlError::Execution(format!("column #{idx} out of row")))?),
        BExpr::Lit(v) => Ok(v.clone()),
        BExpr::Param { idx, .. } => {
            Err(MlError::Execution(format!("unsubstituted plan-cache parameter ?{idx}")))
        }
        BExpr::Cast { input, ty } => {
            let v = eval_row(input, row)?;
            cast_value(v, *ty)
        }
        BExpr::Arith { op, left, right, ty } => {
            let l = eval_row(left, row)?;
            let r = eval_row(right, row)?;
            arith_value(*op, l, r, *ty)
        }
        BExpr::Cmp { op, left, right } => {
            let l = eval_row(left, row)?;
            let r = eval_row(right, row)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.cmp_sql(&r);
            Ok(Value::Bool(match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::NotEq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::LtEq => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::GtEq => ord != std::cmp::Ordering::Less,
            }))
        }
        BExpr::And(a, b) => {
            let l = eval_row(a, row)?;
            let r = eval_row(b, row)?;
            Ok(match (l, r) {
                (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                _ => Value::Bool(true),
            })
        }
        BExpr::Or(a, b) => {
            let l = eval_row(a, row)?;
            let r = eval_row(b, row)?;
            Ok(match (l, r) {
                (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                _ => Value::Bool(false),
            })
        }
        BExpr::Not(a) => Ok(match eval_row(a, row)? {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(MlError::Execution(format!("NOT over {other:?}"))),
        }),
        BExpr::IsNull { input, negated } => {
            let v = eval_row(input, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BExpr::Like { input, pattern, negated } => match eval_row(input, row)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != *negated)),
            other => Err(MlError::Execution(format!("LIKE over {other:?}"))),
        },
        BExpr::Case { branches, else_expr, .. } => {
            for (c, v) in branches {
                if eval_row(c, row)? == Value::Bool(true) {
                    return eval_row(v, row);
                }
            }
            match else_expr {
                Some(e) => eval_row(e, row),
                None => Ok(Value::Null),
            }
        }
        BExpr::Func { func, args, .. } => {
            let vals: Vec<Value> = args.iter().map(|a| eval_row(a, row)).collect::<Result<_>>()?;
            func_value(*func, vals)
        }
        BExpr::Neg { input, .. } => Ok(match eval_row(input, row)? {
            Value::Null => Value::Null,
            Value::Int(x) => Value::Int(-x),
            Value::Bigint(x) => Value::Bigint(-x),
            Value::Double(x) => Value::Double(-x),
            Value::Decimal(d) => Value::Decimal(Decimal::new(-d.raw, d.scale)),
            other => return Err(MlError::Execution(format!("negate {other:?}"))),
        }),
    }
}

/// Evaluate a constant AST expression (INSERT literals).
pub fn eval_const_ast(e: &ast::Expr) -> Result<Value> {
    match e {
        ast::Expr::Literal(v) => Ok(v.clone()),
        ast::Expr::Neg(inner) => Ok(match eval_const_ast(inner)? {
            Value::Int(x) => Value::Int(-x),
            Value::Bigint(x) => Value::Bigint(-x),
            Value::Double(x) => Value::Double(-x),
            Value::Decimal(d) => Value::Decimal(Decimal::new(-d.raw, d.scale)),
            other => return Err(MlError::Execution(format!("negate {other:?}"))),
        }),
        ast::Expr::Binary { op, left, right } => {
            let l = eval_const_ast(left)?;
            let r = eval_const_ast(right)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let aop = match op {
                ast::BinOp::Add => ArithOp::Add,
                ast::BinOp::Sub => ArithOp::Sub,
                ast::BinOp::Mul => ArithOp::Mul,
                ast::BinOp::Div => ArithOp::Div,
                ast::BinOp::Mod => ArithOp::Mod,
                other => {
                    return Err(MlError::Execution(format!(
                        "non-constant operator {other:?} in INSERT"
                    )))
                }
            };
            arith_value(aop, l, r, LogicalType::Double)
        }
        other => Err(MlError::Execution(format!("non-constant INSERT value {other:?}"))),
    }
}

/// Cast one value.
pub fn cast_value(v: Value, ty: LogicalType) -> Result<Value> {
    use LogicalType as T;
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (v, ty) {
        (Value::Int(x), T::Int) => Value::Int(x),
        (Value::Int(x), T::Bigint) => Value::Bigint(x as i64),
        (Value::Int(x), T::Double) => Value::Double(x as f64),
        (Value::Int(x), T::Decimal { scale, .. }) => {
            Value::Decimal(Decimal::new(x as i64, 0).rescale(scale)?)
        }
        (Value::Bigint(x), T::Bigint) => Value::Bigint(x),
        (Value::Bigint(x), T::Double) => Value::Double(x as f64),
        (Value::Bigint(x), T::Int) => Value::Int(x as i32),
        (Value::Bigint(x), T::Decimal { scale, .. }) => {
            Value::Decimal(Decimal::new(x, 0).rescale(scale)?)
        }
        (Value::Double(x), T::Double) => Value::Double(x),
        (Value::Double(x), T::Int) => Value::Int(x as i32),
        (Value::Double(x), T::Bigint) => Value::Bigint(x as i64),
        (Value::Decimal(d), T::Double) => Value::Double(d.to_f64()),
        (Value::Decimal(d), T::Decimal { scale, .. }) => Value::Decimal(d.rescale(scale)?),
        (Value::Str(s), T::Date) => Value::Date(Date::parse(&s)?),
        (Value::Str(s), T::Varchar) => Value::Str(s),
        (Value::Date(d), T::Date) => Value::Date(d),
        (Value::Bool(b), T::Bool) => Value::Bool(b),
        (v, ty) => return Err(MlError::TypeMismatch(format!("cast {v:?} -> {ty}"))),
    })
}

/// Coerce an INSERT literal to a column type (alias of cast).
pub fn coerce_to(v: Value, ty: LogicalType) -> Result<Value> {
    cast_value(v, ty)
}

fn arith_value(op: ArithOp, l: Value, r: Value, ty: LogicalType) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Date − Date → day count.
    if let (Value::Date(a), Value::Date(b), ArithOp::Sub) = (&l, &r, op) {
        return Ok(Value::Int(a.0 - b.0));
    }
    let overflow = || MlError::Execution(format!("overflow in {op}"));
    Ok(match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Value::Int(a.checked_add(*b).ok_or_else(overflow)?),
            ArithOp::Sub => Value::Int(a.checked_sub(*b).ok_or_else(overflow)?),
            ArithOp::Mul => Value::Int(a.checked_mul(*b).ok_or_else(overflow)?),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Double(*a as f64 / *b as f64)
                }
            }
            ArithOp::Mod => {
                if *b == 0 {
                    return Err(MlError::Execution("division by zero".into()));
                }
                Value::Int(a % b)
            }
        },
        (Value::Bigint(_), _) | (_, Value::Bigint(_)) if matches!(ty, LogicalType::Bigint) => {
            let (a, b) = (l.as_i64()?, r.as_i64()?);
            match op {
                ArithOp::Add => Value::Bigint(a.checked_add(b).ok_or_else(overflow)?),
                ArithOp::Sub => Value::Bigint(a.checked_sub(b).ok_or_else(overflow)?),
                ArithOp::Mul => Value::Bigint(a.checked_mul(b).ok_or_else(overflow)?),
                ArithOp::Div => Value::Double(a as f64 / b as f64),
                ArithOp::Mod => {
                    if b == 0 {
                        return Err(MlError::Execution("division by zero".into()));
                    }
                    Value::Bigint(a % b)
                }
            }
        }
        (Value::Decimal(a), Value::Decimal(b)) => match op {
            ArithOp::Add => Value::Decimal(a.checked_add(*b)?),
            ArithOp::Sub => Value::Decimal(a.checked_sub(*b)?),
            ArithOp::Mul => Value::Decimal(a.checked_mul(*b)?),
            ArithOp::Div => Value::Double(a.to_f64() / b.to_f64()),
            ArithOp::Mod => return Err(MlError::Execution("% not defined on DECIMAL".into())),
        },
        _ => {
            // Fall back to double arithmetic for every mixed pairing.
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            let x = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        f64::NAN
                    } else {
                        a / b
                    }
                }
                ArithOp::Mod => a % b,
            };
            if x.is_nan() {
                Value::Null
            } else {
                Value::Double(x)
            }
        }
    })
}

fn func_value(func: ScalarFunc, mut args: Vec<Value>) -> Result<Value> {
    if args.iter().any(|a| a.is_null()) {
        return Ok(Value::Null);
    }
    Ok(match func {
        ScalarFunc::Sqrt => Value::Double(args[0].as_f64()?.sqrt()),
        ScalarFunc::Floor => Value::Double(args[0].as_f64()?.floor()),
        ScalarFunc::Ceil => Value::Double(args[0].as_f64()?.ceil()),
        ScalarFunc::Abs => match &args[0] {
            Value::Int(x) => Value::Int(x.abs()),
            Value::Bigint(x) => Value::Bigint(x.abs()),
            Value::Double(x) => Value::Double(x.abs()),
            Value::Decimal(d) => Value::Decimal(Decimal::new(d.raw.abs(), d.scale)),
            other => return Err(MlError::Execution(format!("abs({other:?})"))),
        },
        ScalarFunc::Upper => Value::Str(args[0].as_str()?.to_uppercase()),
        ScalarFunc::Lower => Value::Str(args[0].as_str()?.to_lowercase()),
        ScalarFunc::Length => Value::Int(args[0].as_str()?.chars().count() as i32),
        ScalarFunc::Substring => {
            let len = args.pop().unwrap().as_i64()? as usize;
            let from = args.pop().unwrap().as_i64()?.max(1) as usize - 1;
            let s = args.pop().unwrap();
            Value::Str(s.as_str()?.chars().skip(from).take(len).collect())
        }
        ScalarFunc::Year | ScalarFunc::Month | ScalarFunc::Day => match &args[0] {
            Value::Date(d) => {
                let (y, m, dd) = d.ymd();
                Value::Int(match func {
                    ScalarFunc::Year => y,
                    ScalarFunc::Month => m as i32,
                    _ => dd as i32,
                })
            }
            other => return Err(MlError::Execution(format!("{func}({other:?})"))),
        },
        ScalarFunc::AddDays | ScalarFunc::AddMonths | ScalarFunc::AddYears => {
            let n = args[1].as_i64()? as i32;
            match &args[0] {
                Value::Date(d) => Value::Date(match func {
                    ScalarFunc::AddDays => d.add_days(n),
                    ScalarFunc::AddMonths => d.add_months(n),
                    _ => d.add_years(n),
                }),
                other => return Err(MlError::Execution(format!("date shift of {other:?}"))),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite::expr::BExpr;

    #[test]
    fn row_eval_basics() {
        let row = vec![Value::Int(5), Value::Str("abc".into())];
        let e = BExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(3))),
        };
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Bool(true));
        let like = BExpr::Like {
            input: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Varchar }),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(eval_row(&like, &row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let row = vec![Value::Null];
        let e = BExpr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(1))),
        };
        assert_eq!(eval_row(&e, &row).unwrap(), Value::Null);
    }

    #[test]
    fn const_ast_eval() {
        let e = monetlite_sql::parse_statement("INSERT INTO x VALUES (1 + 2 * 3)").unwrap();
        let monetlite_sql::Statement::Insert { rows, .. } = e else { panic!() };
        assert_eq!(eval_const_ast(&rows[0][0]).unwrap(), Value::Int(7));
    }

    #[test]
    fn decimal_arith() {
        let a = Value::Decimal(Decimal::new(150, 2));
        let b = Value::Decimal(Decimal::new(50, 2));
        let v =
            arith_value(ArithOp::Add, a, b, LogicalType::Decimal { width: 10, scale: 2 }).unwrap();
        assert_eq!(v.to_string(), "2.00");
    }

    #[test]
    fn date_functions() {
        let d = Value::Date(Date::parse("1995-06-15").unwrap());
        assert_eq!(func_value(ScalarFunc::Year, vec![d.clone()]).unwrap(), Value::Int(1995));
        assert_eq!(
            func_value(ScalarFunc::AddMonths, vec![d, Value::Int(2)]).unwrap().to_string(),
            "1995-08-15"
        );
    }
}
