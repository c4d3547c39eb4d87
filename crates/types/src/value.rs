//! Dynamically-typed scalar values.
//!
//! `Value` is the row-at-a-time currency used by the SQL AST (literals),
//! the volcano row-store baseline, result spot-checks and the wire
//! protocol. The columnar engines never materialise `Value`s on hot paths.

use crate::date::Date;
use crate::decimal::Decimal;
use crate::error::{MlError, Result};
use crate::logical::LogicalType;
use std::cmp::Ordering;
use std::fmt;

/// A single scalar SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// BOOLEAN.
    Bool(bool),
    /// INTEGER.
    Int(i32),
    /// BIGINT.
    Bigint(i64),
    /// DOUBLE.
    Double(f64),
    /// DECIMAL.
    Decimal(Decimal),
    /// VARCHAR.
    Str(String),
    /// DATE.
    Date(Date),
}

impl Value {
    /// The logical type of this value, or `None` for NULL.
    pub fn logical_type(&self) -> Option<LogicalType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(LogicalType::Bool),
            Value::Int(_) => Some(LogicalType::Int),
            Value::Bigint(_) => Some(LogicalType::Bigint),
            Value::Double(_) => Some(LogicalType::Double),
            Value::Decimal(d) => {
                Some(LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale: d.scale })
            }
            Value::Str(_) => Some(LogicalType::Varchar),
            Value::Date(_) => Some(LogicalType::Date),
        }
    }

    /// True iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 (NULL and non-numerics are errors).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Bigint(v) => Ok(*v as f64),
            Value::Double(v) => Ok(*v),
            Value::Decimal(d) => Ok(d.to_f64()),
            other => Err(MlError::TypeMismatch(format!("{other:?} is not numeric"))),
        }
    }

    /// Integer view (widening casts allowed, truncation is an error).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v as i64),
            Value::Bigint(v) => Ok(*v),
            other => Err(MlError::TypeMismatch(format!("{other:?} is not an integer"))),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(MlError::TypeMismatch(format!("{other:?} is not a string"))),
        }
    }

    /// SQL comparison: NULL compares as the smallest value (used only for
    /// ORDER BY; predicate kernels treat NULL as unknown separately).
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp_scaled(*b),
            // Mixed numerics compare through f64; exact enough for test and
            // ORDER BY use. Engines compare natively per column.
            (a, b) => {
                let (x, y) = (a.as_f64().unwrap_or(f64::NAN), b.as_f64().unwrap_or(f64::NAN));
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        }
    }
}

/// `Display` writes values in wire-protocol / CSV form.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bigint(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Decimal(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).logical_type(), Some(LogicalType::Int));
        assert_eq!(Value::Null.logical_type(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Decimal(Decimal::new(150, 2)).as_f64().unwrap(), 1.5);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert_eq!(Value::Bigint(9).as_i64().unwrap(), 9);
        assert!(Value::Double(1.5).as_i64().is_err());
    }

    #[test]
    fn sql_ordering_null_first() {
        assert_eq!(Value::Null.cmp_sql(&Value::Int(1)), Ordering::Less);
        assert_eq!(Value::Int(1).cmp_sql(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.cmp_sql(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert_eq!(Value::Int(2).cmp_sql(&Value::Double(2.5)), Ordering::Less);
        assert_eq!(Value::Decimal(Decimal::new(250, 2)).cmp_sql(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn display_round() {
        assert_eq!(Value::Str("abc".into()).to_string(), "abc");
        assert_eq!(Value::Date(Date::parse("1995-03-15").unwrap()).to_string(), "1995-03-15");
        assert_eq!(Value::Decimal(Decimal::new(-105, 2)).to_string(), "-1.05");
    }
}
