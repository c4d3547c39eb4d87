//! Row-wise utilities over column sets: equality, ordering, and
//! NULL-padded gathers. Shared by the join, grouping and sort kernels;
//! composite keys hash a vector at a time in
//! [`monetlite_storage::hash::hash_rows`].

use monetlite_storage::heap::NULL_OFFSET;
use monetlite_storage::Bat;
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
use monetlite_types::Value;
use std::cmp::Ordering;

/// Marker for "no matching row" in padded selections (outer joins).
pub const NO_ROW: u32 = u32::MAX;

/// Exact equality of two rows across aligned key column sets.
/// `null_eq_null` selects grouping semantics (true) or join semantics
/// (false).
pub fn rows_eq(a: &[&Bat], i: usize, b: &[&Bat], j: usize, null_eq_null: bool) -> bool {
    for (ca, cb) in a.iter().zip(b) {
        if !col_eq(ca, i, cb, j, null_eq_null) {
            return false;
        }
    }
    true
}

/// Equality of one column's values at two (possibly different) bats —
/// the single-column building block of [`rows_eq`], used directly by the
/// streaming group table to avoid per-row ref-slice allocation.
pub fn col_eq(a: &Bat, i: usize, b: &Bat, j: usize, null_eq_null: bool) -> bool {
    let (an, bn) = (a.is_null_at(i), b.is_null_at(j));
    if an || bn {
        return an && bn && null_eq_null;
    }
    match (a, b) {
        (Bat::Bool(x), Bat::Bool(y)) => x[i] == y[j],
        (Bat::Int(x), Bat::Int(y)) => x[i] == y[j],
        (Bat::Date(x), Bat::Date(y)) => x[i] == y[j],
        (Bat::Bigint(x), Bat::Bigint(y)) => x[i] == y[j],
        (Bat::Double(x), Bat::Double(y)) => x[i] == y[j],
        (Bat::Decimal { data: x, .. }, Bat::Decimal { data: y, .. }) => x[i] == y[j],
        (Bat::Varchar { .. }, Bat::Varchar { .. }) => a.str_at(i) == b.str_at(j),
        _ => false,
    }
}

/// True when any key column is NULL at `row` (join keys skip such rows).
pub fn any_null(cols: &[&Bat], row: usize) -> bool {
    cols.iter().any(|c| c.is_null_at(row))
}

/// Ordering of two rows of one column, NULLs smallest (MonetDB sorts
/// NULLs first ascending).
pub fn col_cmp(c: &Bat, i: usize, j: usize) -> Ordering {
    let (an, bn) = (c.is_null_at(i), c.is_null_at(j));
    match (an, bn) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        _ => {}
    }
    match c {
        Bat::Bool(v) => v[i].cmp(&v[j]),
        Bat::Int(v) | Bat::Date(v) => v[i].cmp(&v[j]),
        Bat::Bigint(v) => v[i].cmp(&v[j]),
        Bat::Double(v) => v[i].partial_cmp(&v[j]).unwrap_or(Ordering::Equal),
        Bat::Decimal { data, .. } => data[i].cmp(&data[j]),
        Bat::Varchar { .. } => c.str_at(i).cmp(&c.str_at(j)),
    }
}

/// Ordering of rows taken from two *different* columns of the same type
/// (the k-way merge of the external sort compares run heads across
/// chunks). Must match [`col_cmp`] exactly — NULLs smallest — or merged
/// output would diverge from the in-memory sort.
pub fn col_cmp2(a: &Bat, i: usize, b: &Bat, j: usize) -> Ordering {
    match (a.is_null_at(i), b.is_null_at(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        _ => {}
    }
    match (a, b) {
        (Bat::Bool(x), Bat::Bool(y)) => x[i].cmp(&y[j]),
        (Bat::Int(x), Bat::Int(y)) | (Bat::Date(x), Bat::Date(y)) => x[i].cmp(&y[j]),
        (Bat::Bigint(x), Bat::Bigint(y)) => x[i].cmp(&y[j]),
        (Bat::Double(x), Bat::Double(y)) => x[i].partial_cmp(&y[j]).unwrap_or(Ordering::Equal),
        (Bat::Decimal { data: x, .. }, Bat::Decimal { data: y, .. }) => x[i].cmp(&y[j]),
        (Bat::Varchar { .. }, Bat::Varchar { .. }) => a.str_at(i).cmp(&b.str_at(j)),
        _ => a.get(i).cmp_sql(&b.get(j)),
    }
}

/// Gather with NULL padding: `NO_ROW` entries produce NULL (left-outer
/// join right side).
pub fn take_padded(bat: &Bat, sel: &[u32]) -> Bat {
    let mut out = Bat::with_capacity(bat.logical_type(), sel.len());
    for &s in sel {
        if s == NO_ROW {
            out.push(&Value::Null).expect("null always appends");
        } else {
            push_raw(&mut out, bat, s as usize);
        }
    }
    out
}

#[inline]
fn push_raw(out: &mut Bat, src: &Bat, row: usize) {
    match (out, src) {
        (Bat::Bool(o), Bat::Bool(v)) => o.push(v[row]),
        (Bat::Int(o), Bat::Int(v)) => o.push(v[row]),
        (Bat::Date(o), Bat::Date(v)) => o.push(v[row]),
        (Bat::Bigint(o), Bat::Bigint(v)) => o.push(v[row]),
        (Bat::Double(o), Bat::Double(v)) => o.push(v[row]),
        (Bat::Decimal { data: o, .. }, Bat::Decimal { data: v, .. }) => o.push(v[row]),
        (Bat::Varchar { offsets, heap }, src @ Bat::Varchar { .. }) => match src.str_at(row) {
            None => offsets.push(NULL_OFFSET),
            Some(s) => offsets.push(heap.add(s)),
        },
        _ => unreachable!("take_padded type mismatch"),
    }
}

/// Does the value at `row` equal the NULL sentinel of its own type —
/// diagnostic helper for tests.
pub fn sentinel_of(bat: &Bat) -> Value {
    match bat {
        Bat::Bool(_) => Value::Int(NULL_I8 as i32),
        Bat::Int(_) | Bat::Date(_) => Value::Int(NULL_I32),
        Bat::Bigint(_) | Bat::Decimal { .. } => Value::Bigint(NULL_I64),
        Bat::Double(_) => Value::Double(f64::NAN),
        Bat::Varchar { .. } => Value::Int(NULL_OFFSET as i32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::ColumnBuffer;

    #[test]
    fn hash_equal_rows_collide() {
        use monetlite_storage::hash::hash_rows;
        let a = Bat::Int(vec![5, 6, 5]);
        let b = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("x".into()); 3]));
        let cols: Vec<&Bat> = vec![&a, &b];
        // Equal rows hash equal; a differing int changes the hash.
        let h = hash_rows(&cols, None);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
        assert!(rows_eq(&cols, 0, &cols, 2, true));
        assert!(!rows_eq(&cols, 0, &cols, 1, true));
    }

    #[test]
    fn null_semantics_grouping_vs_join() {
        let a = Bat::Int(vec![NULL_I32, NULL_I32]);
        let cols: Vec<&Bat> = vec![&a];
        assert!(rows_eq(&cols, 0, &cols, 1, true), "grouping: NULLs together");
        assert!(!rows_eq(&cols, 0, &cols, 1, false), "joins: NULL never matches");
        assert!(any_null(&cols, 0));
    }

    #[test]
    fn ordering_nulls_first() {
        let a = Bat::Int(vec![3, NULL_I32, 1]);
        assert_eq!(col_cmp(&a, 1, 0), Ordering::Less);
        assert_eq!(col_cmp(&a, 2, 0), Ordering::Less);
        assert_eq!(col_cmp(&a, 0, 0), Ordering::Equal);
        let s = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("b".into()), None]));
        assert_eq!(col_cmp(&s, 1, 0), Ordering::Less);
    }

    #[test]
    fn take_padded_produces_nulls() {
        let a = Bat::Int(vec![10, 20]);
        let out = take_padded(&a, &[1, NO_ROW, 0]);
        assert_eq!(out.get(0), Value::Int(20));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Int(10));
        let s = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("x".into())]));
        let out = take_padded(&s, &[NO_ROW, 0]);
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(1), Value::Str("x".into()));
    }
}
