//! `ColumnBuffer`: the plain, contiguous, C-style array representation used
//! as the data interchange format of the workspace.
//!
//! This is the stand-in for the host language's native array format (R
//! vectors / NumPy arrays in the paper, §3.3): tightly packed `Vec<T>` with
//! in-domain NULL sentinels for fixed-width types. The engines convert to
//! and from this representation at the embedding boundary; the dataframe
//! baseline and the generators produce it directly.

use crate::date::Date;
use crate::decimal::Decimal;
use crate::error::{MlError, Result};
use crate::logical::LogicalType;
use crate::nulls::{NULL_I32, NULL_I64, NULL_I8};
use crate::value::Value;

/// A single column of data in native array form.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnBuffer {
    /// BOOLEAN: 0 = false, 1 = true, i8::MIN = NULL.
    Bool(Vec<i8>),
    /// INTEGER with NULL = i32::MIN.
    Int(Vec<i32>),
    /// BIGINT with NULL = i64::MIN.
    Bigint(Vec<i64>),
    /// DOUBLE with NULL = NaN.
    Double(Vec<f64>),
    /// DECIMAL as scaled i64 with NULL = i64::MIN.
    Decimal {
        /// Scaled raw values.
        data: Vec<i64>,
        /// Shared fractional-digit count.
        scale: u8,
    },
    /// VARCHAR; `None` = NULL.
    Varchar(Vec<Option<String>>),
    /// DATE as days since epoch with NULL = i32::MIN.
    Date(Vec<i32>),
}

impl ColumnBuffer {
    /// Create an empty buffer of the given logical type.
    pub fn new(ty: LogicalType) -> ColumnBuffer {
        Self::with_capacity(ty, 0)
    }

    /// Create an empty buffer with reserved capacity.
    pub fn with_capacity(ty: LogicalType, cap: usize) -> ColumnBuffer {
        match ty {
            LogicalType::Bool => ColumnBuffer::Bool(Vec::with_capacity(cap)),
            LogicalType::Int => ColumnBuffer::Int(Vec::with_capacity(cap)),
            LogicalType::Bigint => ColumnBuffer::Bigint(Vec::with_capacity(cap)),
            LogicalType::Double => ColumnBuffer::Double(Vec::with_capacity(cap)),
            LogicalType::Decimal { scale, .. } => {
                ColumnBuffer::Decimal { data: Vec::with_capacity(cap), scale }
            }
            LogicalType::Varchar => ColumnBuffer::Varchar(Vec::with_capacity(cap)),
            LogicalType::Date => ColumnBuffer::Date(Vec::with_capacity(cap)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuffer::Bool(v) => v.len(),
            ColumnBuffer::Int(v) => v.len(),
            ColumnBuffer::Bigint(v) => v.len(),
            ColumnBuffer::Double(v) => v.len(),
            ColumnBuffer::Decimal { data, .. } => data.len(),
            ColumnBuffer::Varchar(v) => v.len(),
            ColumnBuffer::Date(v) => v.len(),
        }
    }

    /// True when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type of the buffer.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            ColumnBuffer::Bool(_) => LogicalType::Bool,
            ColumnBuffer::Int(_) => LogicalType::Int,
            ColumnBuffer::Bigint(_) => LogicalType::Bigint,
            ColumnBuffer::Double(_) => LogicalType::Double,
            ColumnBuffer::Decimal { scale, .. } => {
                LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale: *scale }
            }
            ColumnBuffer::Varchar(_) => LogicalType::Varchar,
            ColumnBuffer::Date(_) => LogicalType::Date,
        }
    }

    /// Approximate heap footprint in bytes (used by the dataframe library's
    /// memory-budget accounting and the vmem simulation).
    pub fn size_bytes(&self) -> usize {
        match self {
            ColumnBuffer::Bool(v) => v.len(),
            ColumnBuffer::Int(v) => v.len() * 4,
            ColumnBuffer::Bigint(v) => v.len() * 8,
            ColumnBuffer::Double(v) => v.len() * 8,
            ColumnBuffer::Decimal { data, .. } => data.len() * 8,
            ColumnBuffer::Varchar(v) => v
                .iter()
                .map(|s| std::mem::size_of::<Option<String>>() + s.as_ref().map_or(0, |s| s.len()))
                .sum(),
            ColumnBuffer::Date(v) => v.len() * 4,
        }
    }

    /// Read row `i` as a dynamically-typed [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnBuffer::Bool(v) => {
                if v[i] == NULL_I8 {
                    Value::Null
                } else {
                    Value::Bool(v[i] != 0)
                }
            }
            ColumnBuffer::Int(v) => {
                if v[i] == NULL_I32 {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnBuffer::Bigint(v) => {
                if v[i] == NULL_I64 {
                    Value::Null
                } else {
                    Value::Bigint(v[i])
                }
            }
            ColumnBuffer::Double(v) => {
                if v[i].is_nan() {
                    Value::Null
                } else {
                    Value::Double(v[i])
                }
            }
            ColumnBuffer::Decimal { data, scale } => {
                if data[i] == NULL_I64 {
                    Value::Null
                } else {
                    Value::Decimal(Decimal::new(data[i], *scale))
                }
            }
            ColumnBuffer::Varchar(v) => match &v[i] {
                None => Value::Null,
                Some(s) => Value::Str(s.clone()),
            },
            ColumnBuffer::Date(v) => {
                if v[i] == NULL_I32 {
                    Value::Null
                } else {
                    Value::Date(Date(v[i]))
                }
            }
        }
    }

    /// Append a [`Value`], coercing compatible numerics; NULL always works.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (ColumnBuffer::Bool(c), Value::Bool(b)) => c.push(*b as i8),
            (ColumnBuffer::Bool(c), Value::Null) => c.push(NULL_I8),
            (ColumnBuffer::Int(c), Value::Int(x)) => c.push(*x),
            (ColumnBuffer::Int(c), Value::Null) => c.push(NULL_I32),
            (ColumnBuffer::Bigint(c), Value::Bigint(x)) => c.push(*x),
            (ColumnBuffer::Bigint(c), Value::Int(x)) => c.push(*x as i64),
            (ColumnBuffer::Bigint(c), Value::Null) => c.push(NULL_I64),
            (ColumnBuffer::Double(c), Value::Double(x)) => c.push(*x),
            (ColumnBuffer::Double(c), Value::Int(x)) => c.push(*x as f64),
            (ColumnBuffer::Double(c), Value::Bigint(x)) => c.push(*x as f64),
            (ColumnBuffer::Double(c), Value::Decimal(d)) => c.push(d.to_f64()),
            (ColumnBuffer::Double(c), Value::Null) => c.push(f64::NAN),
            (ColumnBuffer::Decimal { data, scale }, Value::Decimal(d)) => {
                data.push(d.rescale(*scale)?.raw)
            }
            (ColumnBuffer::Decimal { data, scale }, Value::Int(x)) => {
                data.push(Decimal::new(*x as i64, 0).rescale(*scale)?.raw)
            }
            (ColumnBuffer::Decimal { data, .. }, Value::Null) => data.push(NULL_I64),
            (ColumnBuffer::Varchar(c), Value::Str(s)) => c.push(Some(s.clone())),
            (ColumnBuffer::Varchar(c), Value::Null) => c.push(None),
            (ColumnBuffer::Date(c), Value::Date(d)) => c.push(d.0),
            (ColumnBuffer::Date(c), Value::Null) => c.push(NULL_I32),
            (buf, v) => {
                return Err(MlError::TypeMismatch(format!(
                    "cannot append {v:?} to {} column",
                    buf.logical_type()
                )))
            }
        }
        Ok(())
    }

    /// Gather rows by index into a new buffer (the host-side analogue of a
    /// positional fetch).
    pub fn take(&self, idx: &[u32]) -> ColumnBuffer {
        match self {
            ColumnBuffer::Bool(v) => {
                ColumnBuffer::Bool(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnBuffer::Int(v) => ColumnBuffer::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnBuffer::Bigint(v) => {
                ColumnBuffer::Bigint(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnBuffer::Double(v) => {
                ColumnBuffer::Double(idx.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnBuffer::Decimal { data, scale } => ColumnBuffer::Decimal {
                data: idx.iter().map(|&i| data[i as usize]).collect(),
                scale: *scale,
            },
            ColumnBuffer::Varchar(v) => {
                ColumnBuffer::Varchar(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
            ColumnBuffer::Date(v) => {
                ColumnBuffer::Date(idx.iter().map(|&i| v[i as usize]).collect())
            }
        }
    }

    /// Append all rows of `other` (must have the same physical variant).
    pub fn append(&mut self, other: &ColumnBuffer) -> Result<()> {
        match (self, other) {
            (ColumnBuffer::Bool(a), ColumnBuffer::Bool(b)) => a.extend_from_slice(b),
            (ColumnBuffer::Int(a), ColumnBuffer::Int(b)) => a.extend_from_slice(b),
            (ColumnBuffer::Bigint(a), ColumnBuffer::Bigint(b)) => a.extend_from_slice(b),
            (ColumnBuffer::Double(a), ColumnBuffer::Double(b)) => a.extend_from_slice(b),
            (
                ColumnBuffer::Decimal { data: a, scale: sa },
                ColumnBuffer::Decimal { data: b, scale: sb },
            ) => {
                if sa == sb {
                    a.extend_from_slice(b);
                } else {
                    for &raw in b {
                        if raw == NULL_I64 {
                            a.push(NULL_I64);
                        } else {
                            a.push(Decimal::new(raw, *sb).rescale(*sa)?.raw);
                        }
                    }
                }
            }
            (ColumnBuffer::Varchar(a), ColumnBuffer::Varchar(b)) => a.extend(b.iter().cloned()),
            (ColumnBuffer::Date(a), ColumnBuffer::Date(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(MlError::TypeMismatch(format!(
                    "cannot append {} column to {} column",
                    b.logical_type(),
                    a.logical_type()
                )))
            }
        }
        Ok(())
    }

    /// Count of NULL rows.
    pub fn null_count(&self) -> usize {
        match self {
            ColumnBuffer::Bool(v) => v.iter().filter(|&&x| x == NULL_I8).count(),
            ColumnBuffer::Int(v) => v.iter().filter(|&&x| x == NULL_I32).count(),
            ColumnBuffer::Bigint(v) => v.iter().filter(|&&x| x == NULL_I64).count(),
            ColumnBuffer::Double(v) => v.iter().filter(|x| x.is_nan()).count(),
            ColumnBuffer::Decimal { data, .. } => data.iter().filter(|&&x| x == NULL_I64).count(),
            ColumnBuffer::Varchar(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnBuffer::Date(v) => v.iter().filter(|&&x| x == NULL_I32).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut c = ColumnBuffer::new(LogicalType::Int);
        c.push(&Value::Int(5)).unwrap();
        c.push(&Value::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn decimal_rescales_on_push() {
        let mut c = ColumnBuffer::new(LogicalType::Decimal { width: 15, scale: 2 });
        c.push(&Value::Decimal(Decimal::parse("1.5").unwrap())).unwrap();
        c.push(&Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Decimal(Decimal::new(150, 2)));
        assert_eq!(c.get(1), Value::Decimal(Decimal::new(300, 2)));
    }

    #[test]
    fn type_mismatch_errors() {
        let mut c = ColumnBuffer::new(LogicalType::Int);
        assert!(c.push(&Value::Str("x".into())).is_err());
        let mut d = ColumnBuffer::new(LogicalType::Date);
        assert!(d.push(&Value::Double(1.0)).is_err());
    }

    #[test]
    fn take_gathers() {
        let c = ColumnBuffer::Int(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 1, 1]);
        assert_eq!(t, ColumnBuffer::Int(vec![40, 20, 20]));
        let s = ColumnBuffer::Varchar(vec![Some("a".into()), None, Some("c".into())]);
        let t = s.take(&[2, 0]);
        assert_eq!(t.get(0), Value::Str("c".into()));
    }

    #[test]
    fn append_same_type() {
        let mut a = ColumnBuffer::Int(vec![1]);
        a.append(&ColumnBuffer::Int(vec![2, 3])).unwrap();
        assert_eq!(a, ColumnBuffer::Int(vec![1, 2, 3]));
        assert!(a.append(&ColumnBuffer::Double(vec![1.0])).is_err());
    }

    #[test]
    fn append_decimal_rescales() {
        let mut a = ColumnBuffer::Decimal { data: vec![100], scale: 2 };
        a.append(&ColumnBuffer::Decimal { data: vec![5, NULL_I64], scale: 1 }).unwrap();
        assert_eq!(a, ColumnBuffer::Decimal { data: vec![100, 50, NULL_I64], scale: 2 });
    }

    #[test]
    fn size_accounting_counts_string_heap() {
        let c = ColumnBuffer::Varchar(vec![Some("hello".into()), None]);
        assert!(c.size_bytes() >= 5);
        let c = ColumnBuffer::Int(vec![0; 10]);
        assert_eq!(c.size_bytes(), 40);
    }

    #[test]
    fn double_null_is_nan() {
        let mut c = ColumnBuffer::new(LogicalType::Double);
        c.push(&Value::Null).unwrap();
        c.push(&Value::Double(2.5)).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Double(2.5));
        assert_eq!(c.null_count(), 1);
    }
}
