//! Row-wise utilities over column sets: typed key equality, ordering, and
//! NULL-padded gathers. Shared by the join, grouping and sort kernels;
//! composite keys hash a vector at a time in
//! [`monetlite_storage::hash::hash_rows`] and compare through
//! [`visit_keys`], which resolves every key column to its typed array once
//! per block.

use monetlite_storage::heap::{StringHeap, NULL_OFFSET};
use monetlite_storage::Bat;
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
use monetlite_types::Value;
use std::cmp::Ordering;

/// Marker for "no matching row" in padded selections (outer joins).
pub const NO_ROW: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Typed key equality
// ---------------------------------------------------------------------------

/// Key columns resolved to their typed arrays. The hash operators (join
/// probe, group interning, the build-side bloom fill) are generic over
/// this trait, so their per-row test compiles to a plain typed `==`
/// instead of a type dispatch per row and column.
///
/// Semantics are those of SQL keys: `same` holds when both rows are NULL
/// (NULL groups with NULL) or both are non-NULL and equal. `-0.0 == 0.0`,
/// DOUBLE NaN is NULL, VARCHAR compares bytes across different heaps, and
/// columns of different types never hold an equal non-NULL pair. A join
/// probe skips rows for which [`KeyCols::null`] holds, so NULL never joins.
pub(crate) trait KeyCols {
    /// Is row `i` NULL in any key column?
    fn null(&self, i: usize) -> bool;
    /// Key equality of row `i` of `self` and row `j` of `other`.
    fn same(&self, i: usize, other: &Self, j: usize) -> bool;
}

/// A fixed-width key value: its NULL test and its equality.
trait Elem: Copy {
    fn is_null(self) -> bool;
    fn same(self, other: Self) -> bool;
}

macro_rules! sentinel_elem {
    ($($t:ty => $null:expr),*) => {$(
        impl Elem for $t {
            #[inline]
            fn is_null(self) -> bool {
                self == $null
            }
            /// The sentinel equals only itself: NULL matches NULL alone.
            #[inline]
            fn same(self, other: Self) -> bool {
                self == other
            }
        }
    )*};
}

sentinel_elem!(i8 => NULL_I8, i32 => NULL_I32, i64 => NULL_I64);

impl Elem for f64 {
    #[inline]
    fn is_null(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn same(self, other: Self) -> bool {
        self == other || (self.is_nan() && other.is_nan())
    }
}

/// One fixed-width key column.
#[derive(Clone, Copy)]
pub(crate) struct Fixed<'a, T>(&'a [T]);

impl<T: Elem> KeyCols for Fixed<'_, T> {
    #[inline]
    fn null(&self, i: usize) -> bool {
        self.0[i].is_null()
    }
    #[inline]
    fn same(&self, i: usize, other: &Self, j: usize) -> bool {
        self.0[i].same(other.0[j])
    }
}

/// One VARCHAR key column: offsets into its heap.
#[derive(Clone, Copy)]
pub(crate) struct Strs<'a> {
    offsets: &'a [u32],
    heap: &'a StringHeap,
}

impl KeyCols for Strs<'_> {
    #[inline]
    fn null(&self, i: usize) -> bool {
        self.offsets[i] == NULL_OFFSET
    }
    #[inline]
    fn same(&self, i: usize, other: &Self, j: usize) -> bool {
        let (a, b) = (self.offsets[i], other.offsets[j]);
        if a == NULL_OFFSET || b == NULL_OFFSET {
            return a == b;
        }
        self.heap.get_bytes(a) == other.heap.get_bytes(b)
    }
}

/// One key column of any type: the element of a composite key.
#[derive(Clone, Copy)]
enum Col<'a> {
    Bool(Fixed<'a, i8>),
    Int(Fixed<'a, i32>),
    Date(Fixed<'a, i32>),
    Bigint(Fixed<'a, i64>),
    Decimal(Fixed<'a, i64>),
    Double(Fixed<'a, f64>),
    Str(Strs<'a>),
}

impl<'a> Col<'a> {
    fn of(b: &'a Bat) -> Col<'a> {
        match b {
            Bat::Bool(v) => Col::Bool(Fixed(v)),
            Bat::Int(v) => Col::Int(Fixed(v)),
            Bat::Date(v) => Col::Date(Fixed(v)),
            Bat::Bigint(v) => Col::Bigint(Fixed(v)),
            Bat::Decimal { data, .. } => Col::Decimal(Fixed(data)),
            Bat::Double(v) => Col::Double(Fixed(v)),
            Bat::Varchar { offsets, heap } => Col::Str(Strs { offsets, heap }),
        }
    }

    fn null(&self, i: usize) -> bool {
        match self {
            Col::Bool(c) => c.null(i),
            Col::Int(c) | Col::Date(c) => c.null(i),
            Col::Bigint(c) | Col::Decimal(c) => c.null(i),
            Col::Double(c) => c.null(i),
            Col::Str(c) => c.null(i),
        }
    }

    /// Columns of different types hold no equal non-NULL pair; two NULLs
    /// are equal whatever their types.
    fn same(&self, i: usize, other: &Col, j: usize) -> bool {
        match (self, other) {
            (Col::Bool(a), Col::Bool(b)) => a.same(i, b, j),
            (Col::Int(a), Col::Int(b)) | (Col::Date(a), Col::Date(b)) => a.same(i, b, j),
            (Col::Bigint(a), Col::Bigint(b)) | (Col::Decimal(a), Col::Decimal(b)) => {
                a.same(i, b, j)
            }
            (Col::Double(a), Col::Double(b)) => a.same(i, b, j),
            (Col::Str(a), Col::Str(b)) => a.same(i, b, j),
            _ => self.null(i) && other.null(j),
        }
    }
}

/// Composite keys, and single keys whose two sides differ in type: one
/// resolved column per key, compared column by column.
pub(crate) struct Multi<'a>(Vec<Col<'a>>);

impl<'a> Multi<'a> {
    fn of(cols: &[&'a Bat]) -> Multi<'a> {
        Multi(cols.iter().map(|c| Col::of(c)).collect())
    }
}

impl KeyCols for Multi<'_> {
    fn null(&self, i: usize) -> bool {
        self.0.iter().any(|c| c.null(i))
    }
    fn same(&self, i: usize, other: &Self, j: usize) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a.same(i, b, j))
    }
}

/// Composite keys whose columns all hold one fixed-width element type,
/// pair by pair of one type (INT/DATE, or BIGINT/DECIMAL): compared column
/// by column with no per-column type dispatch — two dictionary-coded group
/// keys, a (partkey, suppkey) join.
pub(crate) struct FixedN<'a, T>(Vec<&'a [T]>);

impl<T: Elem> KeyCols for FixedN<'_, T> {
    fn null(&self, i: usize) -> bool {
        self.0.iter().any(|c| c[i].is_null())
    }
    fn same(&self, i: usize, other: &Self, j: usize) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a[i].same(b[j]))
    }
}

/// [`FixedN`] views of two key column sets when `pick` resolves every
/// pair of columns to arrays of `T`.
fn fixed_n<'a, T>(
    left: &[&'a Bat],
    right: &[&'a Bat],
    pick: impl Fn(&'a Bat, &'a Bat) -> Option<(&'a [T], &'a [T])>,
) -> Option<(FixedN<'a, T>, FixedN<'a, T>)> {
    let pairs: Vec<(&[T], &[T])> =
        left.iter().zip(right).map(|(l, r)| pick(l, r)).collect::<Option<_>>()?;
    let (l, r) = pairs.into_iter().unzip();
    Some((FixedN(l), FixedN(r)))
}

/// A hash-operator loop, written once and instantiated per typed key
/// representation by [`visit_keys`].
pub(crate) trait KeyVisitor {
    type Out;
    fn visit<K: KeyCols>(self, left: &K, right: &K) -> Self::Out;
}

/// Resolve two aligned key column sets once and run `v` over them. A single
/// key column of one type on both sides runs over its typed array, and
/// composite keys of one fixed width over [`FixedN`]; other composites and
/// mismatched types run over [`Multi`].
pub(crate) fn visit_keys<V: KeyVisitor>(left: &[&Bat], right: &[&Bat], v: V) -> V::Out {
    if let ([l], [r]) = (left, right) {
        match (Col::of(l), Col::of(r)) {
            (Col::Bool(a), Col::Bool(b)) => return v.visit(&a, &b),
            (Col::Int(a), Col::Int(b)) | (Col::Date(a), Col::Date(b)) => return v.visit(&a, &b),
            (Col::Bigint(a), Col::Bigint(b)) | (Col::Decimal(a), Col::Decimal(b)) => {
                return v.visit(&a, &b)
            }
            (Col::Double(a), Col::Double(b)) => return v.visit(&a, &b),
            (Col::Str(a), Col::Str(b)) => return v.visit(&a, &b),
            _ => {}
        }
    }
    if let Some((l, r)) = fixed_n(left, right, |l, r| match (l, r) {
        (Bat::Int(a), Bat::Int(b)) | (Bat::Date(a), Bat::Date(b)) => Some((&a[..], &b[..])),
        _ => None,
    }) {
        return v.visit(&l, &r);
    }
    if let Some((l, r)) = fixed_n(left, right, |l, r| match (l, r) {
        (Bat::Bigint(a), Bat::Bigint(b))
        | (Bat::Decimal { data: a, .. }, Bat::Decimal { data: b, .. }) => Some((&a[..], &b[..])),
        _ => None,
    }) {
        return v.visit(&l, &r);
    }
    v.visit(&Multi::of(left), &Multi::of(right))
}

// ---------------------------------------------------------------------------
// Ordering and gathers
// ---------------------------------------------------------------------------

/// Ordering of row `i` of `a` and row `j` of `b`, NULLs smallest
/// (MonetDB sorts NULLs first ascending). The in-memory sort passes one
/// column twice; the k-way merge of the external sort compares run heads
/// across chunks. VARCHAR compares the heap entries' bytes: UTF-8 byte
/// order is code-point order, which is what `str::cmp` computes, so no
/// entry is decoded.
#[inline]
pub fn cmp_cells(a: &Bat, i: usize, b: &Bat, j: usize) -> Ordering {
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
        (Bat::Varchar { offsets: x, heap: hx }, Bat::Varchar { offsets: y, heap: hy }) => {
            hx.get_bytes(x[i]).cmp(hy.get_bytes(y[j]))
        }
        _ => a.get(i).cmp_sql(&b.get(j)),
    }
}

/// Gather with NULL padding: `NO_ROW` entries produce NULL (the build
/// side of a LEFT join). One typed loop per physical type copies the
/// selected cells and writes that type's NULL sentinel for `NO_ROW`, so a
/// `sel` without `NO_ROW` (every inner, semi, anti and index join) gives
/// exactly [`Bat::take`]. A VARCHAR result copies offsets and *shares*
/// the source's copy-on-write heap, as the probe side's gather does: no
/// string is decoded, copied or re-interned per row.
pub fn take_padded(bat: &Bat, sel: &[u32]) -> Bat {
    fn pad<T: Copy>(v: &[T], sel: &[u32], null: T) -> Vec<T> {
        sel.iter().map(|&i| if i == NO_ROW { null } else { v[i as usize] }).collect()
    }
    match bat {
        Bat::Bool(v) => Bat::Bool(pad(v, sel, NULL_I8)),
        Bat::Int(v) => Bat::Int(pad(v, sel, NULL_I32)),
        Bat::Date(v) => Bat::Date(pad(v, sel, NULL_I32)),
        Bat::Bigint(v) => Bat::Bigint(pad(v, sel, NULL_I64)),
        Bat::Decimal { data, scale } => {
            Bat::Decimal { data: pad(data, sel, NULL_I64), scale: *scale }
        }
        Bat::Double(v) => Bat::Double(pad(v, sel, f64::NAN)),
        Bat::Varchar { offsets, heap } => {
            Bat::Varchar { offsets: pad(offsets, sel, NULL_OFFSET), heap: heap.clone() }
        }
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

/// The per-row key comparison the hash operators used before
/// [`visit_keys`], kept as the model the typed loops are tested against.
#[cfg(test)]
pub(crate) mod model {
    use super::*;
    use monetlite_types::ColumnBuffer;

    /// Exact equality of two rows across aligned key column sets.
    /// `null_eq_null` selects grouping semantics (true) or join semantics
    /// (false).
    pub(crate) fn rows_eq(a: &[&Bat], i: usize, b: &[&Bat], j: usize, null_eq_null: bool) -> bool {
        a.iter().zip(b).all(|(ca, cb)| col_eq(ca, i, cb, j, null_eq_null))
    }

    /// Equality of one column's values at two (possibly different) bats.
    pub(crate) fn col_eq(a: &Bat, i: usize, b: &Bat, j: usize, null_eq_null: bool) -> bool {
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
    pub(crate) fn any_null(cols: &[&Bat], row: usize) -> bool {
        cols.iter().any(|c| c.is_null_at(row))
    }

    /// The per-row padded gather [`take_padded`] replaced: a fresh column
    /// filled cell by cell, VARCHAR re-interned into a heap of its own.
    pub(crate) fn take_padded_rowwise(bat: &Bat, sel: &[u32]) -> Bat {
        let mut out = Bat::with_capacity(bat.logical_type(), sel.len());
        for &s in sel {
            if s == NO_ROW {
                out.push(&Value::Null).expect("null always appends");
                continue;
            }
            let row = s as usize;
            match (&mut out, bat) {
                (Bat::Bool(o), Bat::Bool(v)) => o.push(v[row]),
                (Bat::Int(o), Bat::Int(v)) => o.push(v[row]),
                (Bat::Date(o), Bat::Date(v)) => o.push(v[row]),
                (Bat::Bigint(o), Bat::Bigint(v)) => o.push(v[row]),
                (Bat::Double(o), Bat::Double(v)) => o.push(v[row]),
                (Bat::Decimal { data: o, .. }, Bat::Decimal { data: v, .. }) => o.push(v[row]),
                (Bat::Varchar { offsets, heap }, src) => match src.str_at(row) {
                    None => offsets.push(NULL_OFFSET),
                    Some(s) => offsets.push(heap.add(s)),
                },
                _ => unreachable!("take_padded type mismatch"),
            }
        }
        out
    }

    /// One key column of every physical type from the same row seeds, with
    /// values from a small domain so that rows collide: seeds divisible by
    /// 7 are NULL; DOUBLE mixes `0.0`, `-0.0` and a NaN with a payload of
    /// its own; the two VARCHAR columns hold the same strings in two
    /// different heaps (one interned in reverse order). A DATE column
    /// beside the INT one and two DECIMAL scales give mismatched-type pairs.
    pub(crate) fn key_columns(seeds: &[u8]) -> Vec<Bat> {
        let null = |s: u8| s.is_multiple_of(7);
        let word = |s: u8| (!null(s)).then(|| format!("w{}", s % 5));
        let mut reversed: Vec<Option<String>> = seeds.iter().rev().map(|&s| word(s)).collect();
        let other_heap = Bat::from_buffer(&ColumnBuffer::Varchar(reversed.clone()));
        reversed.reverse();
        let rev_sel: Vec<u32> = (0..seeds.len() as u32).rev().collect();
        vec![
            Bat::Bool(
                seeds.iter().map(|&s| if null(s) { NULL_I8 } else { (s & 1) as i8 }).collect(),
            ),
            Bat::Int(
                seeds.iter().map(|&s| if null(s) { NULL_I32 } else { (s % 5) as i32 }).collect(),
            ),
            Bat::Date(
                seeds.iter().map(|&s| if null(s) { NULL_I32 } else { (s % 5) as i32 }).collect(),
            ),
            Bat::Bigint(
                seeds.iter().map(|&s| if null(s) { NULL_I64 } else { (s % 5) as i64 }).collect(),
            ),
            Bat::Decimal {
                data: seeds
                    .iter()
                    .map(|&s| if null(s) { NULL_I64 } else { (s % 5) as i64 })
                    .collect(),
                scale: 2,
            },
            Bat::Decimal {
                data: seeds
                    .iter()
                    .map(|&s| if null(s) { NULL_I64 } else { (s % 5) as i64 })
                    .collect(),
                scale: 0,
            },
            Bat::Double(
                seeds
                    .iter()
                    .map(|&s| match s % 4 {
                        _ if null(s) => f64::NAN,
                        0 => -0.0,
                        1 => 0.0,
                        2 => f64::from_bits(f64::NAN.to_bits() ^ 1),
                        _ => 1.5,
                    })
                    .collect(),
            ),
            Bat::from_buffer(&ColumnBuffer::Varchar(reversed)),
            other_heap.take(&rev_sel),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::model::{any_null, rows_eq};
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

    /// `null` and `same` of every pair of the first `.0` rows, as the hash
    /// operators see them.
    struct Table(usize);

    impl KeyVisitor for Table {
        type Out = Vec<(usize, usize, bool, bool)>;
        fn visit<K: KeyCols>(self, left: &K, right: &K) -> Self::Out {
            let mut out = Vec::new();
            for i in 0..self.0 {
                for j in 0..self.0 {
                    out.push((i, j, left.null(i), left.same(i, right, j)));
                }
            }
            out
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_typed_keys_equal_the_row_model(
            seeds in proptest::collection::vec(0u8..255, 1..12),
            picks in proptest::collection::vec(0usize..9, 1..4),
            rpicks in proptest::collection::vec(0usize..9, 1..4),
        ) {
            let cols = model::key_columns(&seeds);
            // Single columns of every pair of types (same-type pairs run
            // the typed arrays, the rest the mismatched-type path), and
            // composites of the picked columns.
            let mut sets: Vec<(Vec<&Bat>, Vec<&Bat>)> = Vec::new();
            for a in &cols {
                for b in &cols {
                    sets.push((vec![a], vec![b]));
                }
            }
            sets.push((
                picks.iter().map(|&p| &cols[p]).collect(),
                picks.iter().zip(&rpicks).map(|(&p, &q)| &cols[if q % 3 == 0 { q } else { p }]).collect(),
            ));
            // One fixed width throughout, and the same with types crossed.
            sets.push((vec![&cols[1], &cols[2]], vec![&cols[1], &cols[2]]));
            sets.push((vec![&cols[3], &cols[4]], vec![&cols[3], &cols[5]]));
            sets.push((vec![&cols[1], &cols[2]], vec![&cols[2], &cols[1]]));
            for (l, r) in &sets {
                for (i, j, null, same) in visit_keys(l, r, Table(seeds.len())) {
                    proptest::prop_assert_eq!(null, any_null(l, i));
                    proptest::prop_assert_eq!(same, rows_eq(l, i, r, j, true), "rows {} {}", i, j);
                    if !null {
                        proptest::prop_assert_eq!(same, rows_eq(l, i, r, j, false));
                    }
                }
            }
        }
    }

    #[test]
    fn ordering_nulls_first() {
        let a = Bat::Int(vec![3, NULL_I32, 1]);
        assert_eq!(cmp_cells(&a, 1, &a, 0), Ordering::Less);
        assert_eq!(cmp_cells(&a, 2, &a, 0), Ordering::Less);
        assert_eq!(cmp_cells(&a, 0, &a, 0), Ordering::Equal);
        let s = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("b".into()), None]));
        assert_eq!(cmp_cells(&s, 1, &s, 0), Ordering::Less);
    }

    /// The heap of a VARCHAR column.
    fn heap_of(b: &Bat) -> &StringHeap {
        match b {
            Bat::Varchar { heap, .. } => heap,
            _ => panic!("varchar expected"),
        }
    }

    /// A string of 0-4 characters of 1 to 4 UTF-8 bytes each, from a seed.
    fn word(seed: u32) -> String {
        let alphabet = ['a', 'b', '\u{e9}', '\u{20ac}', '\u{1f600}'];
        (0..seed % 5).map(|k| alphabet[(seed >> (3 * k + 3)) as usize % 5]).collect()
    }

    proptest::proptest! {
        #[test]
        fn prop_take_padded_equals_the_rowwise_model(
            seeds in proptest::collection::vec(0u32..u32::MAX, 1..40),
            picks in proptest::collection::vec(0u32..u32::MAX, 0..60),
            pad in 0u32..4,
        ) {
            // Every physical type, NULLs among the values (seeds divisible
            // by 7), multi-byte and empty strings.
            let null = |s: u32| s.is_multiple_of(7);
            let strs: Vec<Option<String>> =
                seeds.iter().map(|&s| (!null(s)).then(|| word(s))).collect();
            let cols = vec![
                Bat::Bool(seeds.iter().map(|&s| if null(s) { NULL_I8 } else { (s & 1) as i8 }).collect()),
                Bat::Int(seeds.iter().map(|&s| if null(s) { NULL_I32 } else { s as i32 }).collect()),
                Bat::Date(seeds.iter().map(|&s| if null(s) { NULL_I32 } else { (s % 9000) as i32 }).collect()),
                Bat::Bigint(seeds.iter().map(|&s| if null(s) { NULL_I64 } else { s as i64 * 3 }).collect()),
                Bat::Decimal {
                    data: seeds.iter().map(|&s| if null(s) { NULL_I64 } else { s as i64 - 7 }).collect(),
                    scale: 2,
                },
                Bat::Double(seeds.iter().map(|&s| if null(s) { f64::NAN } else { s as f64 / 3.0 }).collect()),
                Bat::from_buffer(&ColumnBuffer::Varchar(strs)),
            ];
            // Positions into the column; `pad` of every four become NO_ROW
            // (0: no padding at all, the inner-join shape).
            let n = seeds.len() as u32;
            let sel: Vec<u32> = picks
                .iter()
                .map(|&p| if p % 4 < pad { NO_ROW } else { (p >> 2) % n })
                .collect();
            for col in &cols {
                let got = take_padded(col, &sel);
                let want = model::take_padded_rowwise(col, &sel);
                proptest::prop_assert_eq!(got.len(), sel.len());
                proptest::prop_assert_eq!(got.logical_type(), col.logical_type());
                for i in 0..sel.len() {
                    proptest::prop_assert_eq!(got.get(i), want.get(i), "{:?} row {}", col.logical_type(), i);
                    // Padding is the type's own NULL sentinel.
                    proptest::prop_assert_eq!(got.is_null_at(i), want.is_null_at(i));
                }
                if let Bat::Varchar { .. } = col {
                    proptest::prop_assert!(heap_of(&got).shares_buffer_with(heap_of(col)));
                }
            }
        }

        #[test]
        fn prop_varchar_order_is_str_order_nulls_first(
            seeds in proptest::collection::vec(0u32..u32::MAX, 1..30),
        ) {
            let strs: Vec<Option<String>> =
                seeds.iter().map(|&s| (!s.is_multiple_of(7)).then(|| word(s))).collect();
            let col = Bat::from_buffer(&ColumnBuffer::Varchar(strs.clone()));
            // The same strings in a heap of their own, interned in reverse.
            let rev: Vec<Option<String>> = strs.iter().rev().cloned().collect();
            let rev_sel: Vec<u32> = (0..strs.len() as u32).rev().collect();
            let other = Bat::from_buffer(&ColumnBuffer::Varchar(rev)).take(&rev_sel);
            // `Option<&str>` orders None first, then by `str::cmp`.
            let want = |i: usize, j: usize| strs[i].as_deref().cmp(&strs[j].as_deref());
            for i in 0..strs.len() {
                for j in 0..strs.len() {
                    proptest::prop_assert_eq!(cmp_cells(&col, i, &col, j), want(i, j), "{:?} {:?}", strs[i], strs[j]);
                    proptest::prop_assert_eq!(cmp_cells(&col, i, &other, j), want(i, j));
                }
            }
        }
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
