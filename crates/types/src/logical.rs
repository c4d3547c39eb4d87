//! Logical (SQL-level) column types and coercion rules.

use crate::error::{MlError, Result};
use std::fmt;

/// SQL-visible column types supported by all engines in the workspace.
///
/// The set matches what the paper's benchmarks require: TPC-H uses INTEGER,
/// BIGINT (keys at larger scale factors), DECIMAL, DATE, VARCHAR/CHAR; the
/// ACS data additionally uses DOUBLE and BOOLEAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalType {
    /// BOOLEAN, stored as i8 (NULL = i8::MIN).
    Bool,
    /// 32-bit INTEGER (NULL = -2^31).
    Int,
    /// 64-bit BIGINT (NULL = -2^63).
    Bigint,
    /// 64-bit IEEE DOUBLE (NULL = NaN).
    Double,
    /// Fixed-point DECIMAL(width, scale), stored as scaled i64.
    Decimal {
        /// Total number of digits (informational; storage is always i64).
        width: u8,
        /// Digits after the decimal point.
        scale: u8,
    },
    /// Variable-length string (CHAR/VARCHAR/TEXT/CLOB all map here).
    Varchar,
    /// Calendar date, stored as i32 days since 1970-01-01.
    Date,
}

impl LogicalType {
    /// The width of a DECIMAL that no declaration sized: a literal, an
    /// arithmetic result, a SUM or a host column. It is the 18 digits an
    /// i64 always holds.
    pub const DECIMAL_WIDTH: u8 = 18;

    /// True when `self` and `other` store the same bits: the types are
    /// equal, or both are DECIMALs of one scale. A DECIMAL's width is a
    /// declaration; every DECIMAL is stored as an i64 scaled by its scale.
    pub fn same_repr(self, other: LogicalType) -> bool {
        match (self, other) {
            (LogicalType::Decimal { scale: a, .. }, LogicalType::Decimal { scale: b, .. }) => {
                a == b
            }
            (a, b) => a == b,
        }
    }

    /// True for types on which SUM/AVG and arithmetic are defined.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            LogicalType::Int
                | LogicalType::Bigint
                | LogicalType::Double
                | LogicalType::Decimal { .. }
        )
    }

    /// Width in bytes of the fixed physical representation (strings report
    /// the offset width; the heap is accounted separately).
    pub fn fixed_width(self) -> usize {
        match self {
            LogicalType::Bool => 1,
            LogicalType::Int | LogicalType::Date => 4,
            LogicalType::Bigint | LogicalType::Double | LogicalType::Decimal { .. } => 8,
            LogicalType::Varchar => 4, // offset into the string heap
        }
    }

    /// The common supertype two operands coerce to for comparison or
    /// arithmetic, or an error when none exists.
    ///
    /// Numeric tower: INT < BIGINT < DECIMAL < DOUBLE. DATE only unifies
    /// with DATE, VARCHAR with VARCHAR, BOOL with BOOL.
    pub fn common_super_type(a: LogicalType, b: LogicalType) -> Result<LogicalType> {
        use LogicalType::*;
        if a == b {
            return Ok(a);
        }
        let r = match (a, b) {
            (Int, Bigint) | (Bigint, Int) => Bigint,
            (Int, Double) | (Double, Int) | (Bigint, Double) | (Double, Bigint) => Double,
            (Decimal { .. }, Double) | (Double, Decimal { .. }) => Double,
            (Decimal { width, scale }, Int)
            | (Int, Decimal { width, scale })
            | (Decimal { width, scale }, Bigint)
            | (Bigint, Decimal { width, scale }) => Decimal { width, scale },
            (Decimal { width: w1, scale: s1 }, Decimal { width: w2, scale: s2 }) => {
                Decimal { width: w1.max(w2), scale: s1.max(s2) }
            }
            _ => return Err(MlError::TypeMismatch(format!("no common type for {a} and {b}"))),
        };
        Ok(r)
    }
}

impl fmt::Display for LogicalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalType::Bool => write!(f, "BOOLEAN"),
            LogicalType::Int => write!(f, "INTEGER"),
            LogicalType::Bigint => write!(f, "BIGINT"),
            LogicalType::Double => write!(f, "DOUBLE"),
            LogicalType::Decimal { width, scale } => write!(f, "DECIMAL({width},{scale})"),
            LogicalType::Varchar => write!(f, "VARCHAR"),
            LogicalType::Date => write!(f, "DATE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LogicalType::*;

    #[test]
    fn numeric_tower() {
        assert_eq!(LogicalType::common_super_type(Int, Bigint).unwrap(), Bigint);
        assert_eq!(LogicalType::common_super_type(Int, Double).unwrap(), Double);
        assert_eq!(
            LogicalType::common_super_type(Decimal { width: 15, scale: 2 }, Double).unwrap(),
            Double
        );
        assert_eq!(
            LogicalType::common_super_type(
                Decimal { width: 15, scale: 2 },
                Decimal { width: 12, scale: 4 }
            )
            .unwrap(),
            Decimal { width: 15, scale: 4 }
        );
        assert_eq!(
            LogicalType::common_super_type(Int, Decimal { width: 15, scale: 2 }).unwrap(),
            Decimal { width: 15, scale: 2 }
        );
    }

    #[test]
    fn incompatible_types_error() {
        assert!(LogicalType::common_super_type(Date, Int).is_err());
        assert!(LogicalType::common_super_type(Varchar, Double).is_err());
        assert!(LogicalType::common_super_type(Bool, Int).is_err());
    }

    #[test]
    fn representation_ignores_decimal_width() {
        assert!(Decimal { width: 15, scale: 2 }.same_repr(Decimal { width: 18, scale: 2 }));
        assert!(!Decimal { width: 15, scale: 2 }.same_repr(Decimal { width: 15, scale: 3 }));
        assert!(Int.same_repr(Int));
        assert!(!Int.same_repr(Bigint));
        assert!(!Int.same_repr(Decimal { width: 9, scale: 0 }));
    }

    #[test]
    fn widths() {
        assert_eq!(Int.fixed_width(), 4);
        assert_eq!(Date.fixed_width(), 4);
        assert_eq!(Bigint.fixed_width(), 8);
        assert_eq!(Decimal { width: 15, scale: 2 }.fixed_width(), 8);
        assert_eq!(Bool.fixed_width(), 1);
        assert_eq!(Varchar.fixed_width(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Decimal { width: 15, scale: 2 }.to_string(), "DECIMAL(15,2)");
        assert_eq!(Varchar.to_string(), "VARCHAR");
    }
}
