//! BAT-style columns: tightly packed typed arrays (paper §3.1).
//!
//! "Every column is stored either in-memory or on-disk as a tightly packed
//! array. Row-numbers for each value are never explicitly stored. Instead,
//! they are implicitly derived from their position in the tightly packed
//! array."
//!
//! [`Bat`] is the engine-internal column. Fixed-width types are plain
//! `Vec<T>` with in-domain NULL sentinels; VARCHAR is an offsets array over
//! a [`StringHeap`]. Conversion to and from the host interchange format
//! ([`ColumnBuffer`]) happens only at the embedding boundary.

use crate::heap::{StringHeap, NULL_OFFSET};
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
use monetlite_types::{ColumnBuffer, Date, Decimal, LogicalType, MlError, Result, Value};

/// A string column may keep alive at most this many heap bytes per byte
/// its rows hold (each row's heap entry, length prefix included, counted
/// once per row — what an owned copy of those strings would occupy). A
/// column beyond it is compacted ([`Bat::compacted`]) wherever it would
/// otherwise outlive the statement that gathered it: at the host boundary,
/// in spill files and in a table segment a checkpoint writes.
pub const MAX_HEAP_PIN_RATIO: usize = 4;

/// A single engine-internal column.
#[derive(Debug, Clone)]
pub enum Bat {
    /// BOOLEAN as i8 (NULL = i8::MIN).
    Bool(Vec<i8>),
    /// INTEGER (NULL = i32::MIN).
    Int(Vec<i32>),
    /// BIGINT (NULL = i64::MIN).
    Bigint(Vec<i64>),
    /// DOUBLE (NULL = NaN).
    Double(Vec<f64>),
    /// DECIMAL as scaled i64 (NULL = i64::MIN).
    Decimal {
        /// Scaled raw values.
        data: Vec<i64>,
        /// Fractional digits.
        scale: u8,
    },
    /// VARCHAR: offsets into a string heap (offset 0 = NULL).
    Varchar {
        /// Per-row heap offsets.
        offsets: Vec<u32>,
        /// The shared value heap (with duplicate elimination).
        heap: StringHeap,
    },
    /// DATE as days since epoch (NULL = i32::MIN).
    Date(Vec<i32>),
}

impl Bat {
    /// Empty column of a logical type.
    pub fn new(ty: LogicalType) -> Bat {
        Self::with_capacity(ty, 0)
    }

    /// Empty column with reserved capacity.
    pub fn with_capacity(ty: LogicalType, cap: usize) -> Bat {
        match ty {
            LogicalType::Bool => Bat::Bool(Vec::with_capacity(cap)),
            LogicalType::Int => Bat::Int(Vec::with_capacity(cap)),
            LogicalType::Bigint => Bat::Bigint(Vec::with_capacity(cap)),
            LogicalType::Double => Bat::Double(Vec::with_capacity(cap)),
            LogicalType::Decimal { scale, .. } => {
                Bat::Decimal { data: Vec::with_capacity(cap), scale }
            }
            LogicalType::Varchar => {
                Bat::Varchar { offsets: Vec::with_capacity(cap), heap: StringHeap::new() }
            }
            LogicalType::Date => Bat::Date(Vec::with_capacity(cap)),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Bat::Bool(v) => v.len(),
            Bat::Int(v) => v.len(),
            Bat::Bigint(v) => v.len(),
            Bat::Double(v) => v.len(),
            Bat::Decimal { data, .. } => data.len(),
            Bat::Varchar { offsets, .. } => offsets.len(),
            Bat::Date(v) => v.len(),
        }
    }

    /// True for zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            Bat::Bool(_) => LogicalType::Bool,
            Bat::Int(_) => LogicalType::Int,
            Bat::Bigint(_) => LogicalType::Bigint,
            Bat::Double(_) => LogicalType::Double,
            Bat::Decimal { scale, .. } => {
                LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale: *scale }
            }
            Bat::Varchar { .. } => LogicalType::Varchar,
            Bat::Date(_) => LogicalType::Date,
        }
    }

    /// Approximate resident size in bytes (array + heap), the quantity the
    /// vmem budget accounts.
    pub fn size_bytes(&self) -> usize {
        match self {
            Bat::Bool(v) => v.len(),
            Bat::Int(v) | Bat::Date(v) => v.len() * 4,
            Bat::Bigint(v) => v.len() * 8,
            Bat::Double(v) => v.len() * 8,
            Bat::Decimal { data, .. } => data.len() * 8,
            Bat::Varchar { offsets, heap } => offsets.len() * 4 + heap.size_bytes(),
        }
    }

    /// Approximate *resident* size in bytes, including transient heap
    /// structures ([`StringHeap::mem_bytes`]) that the persisted image
    /// omits. This is the quantity execution-time memory budgets (spill
    /// decisions) account; [`Bat::size_bytes`] remains the vmem/persisted
    /// measure.
    pub fn mem_bytes(&self) -> usize {
        match self {
            Bat::Varchar { offsets, heap } => offsets.len() * 4 + heap.mem_bytes(),
            other => other.size_bytes(),
        }
    }

    /// Allocated bytes: [`Bat::mem_bytes`] with the value array counted at
    /// its capacity, for a column that grows by appends (a group table's
    /// keys) and whose owner reports what it really holds.
    pub fn alloc_bytes(&self) -> usize {
        match self {
            Bat::Bool(v) => v.capacity(),
            Bat::Int(v) | Bat::Date(v) => v.capacity() * 4,
            Bat::Bigint(v) => v.capacity() * 8,
            Bat::Double(v) => v.capacity() * 8,
            Bat::Decimal { data, .. } => data.capacity() * 8,
            Bat::Varchar { offsets, heap } => offsets.capacity() * 4 + heap.mem_bytes(),
        }
    }

    /// Row `i` as a dynamic [`Value`] (cold path: spot checks, wire
    /// protocol, row-store bridge).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Bat::Bool(v) => {
                if v[i] == NULL_I8 {
                    Value::Null
                } else {
                    Value::Bool(v[i] != 0)
                }
            }
            Bat::Int(v) => {
                if v[i] == NULL_I32 {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            Bat::Bigint(v) => {
                if v[i] == NULL_I64 {
                    Value::Null
                } else {
                    Value::Bigint(v[i])
                }
            }
            Bat::Double(v) => {
                if v[i].is_nan() {
                    Value::Null
                } else {
                    Value::Double(v[i])
                }
            }
            Bat::Decimal { data, scale } => {
                if data[i] == NULL_I64 {
                    Value::Null
                } else {
                    Value::Decimal(Decimal::new(data[i], *scale))
                }
            }
            Bat::Varchar { offsets, heap } => {
                if offsets[i] == NULL_OFFSET {
                    Value::Null
                } else {
                    Value::Str(heap.get(offsets[i]).to_string())
                }
            }
            Bat::Date(v) => {
                if v[i] == NULL_I32 {
                    Value::Null
                } else {
                    Value::Date(Date(v[i]))
                }
            }
        }
    }

    /// Borrowed string at row `i` (`None` for NULL). Only valid on Varchar.
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Bat::Varchar { offsets, heap } => {
                if offsets[i] == NULL_OFFSET {
                    None
                } else {
                    Some(heap.get(offsets[i]))
                }
            }
            _ => panic!("str_at on non-varchar column"),
        }
    }

    /// True iff row `i` is NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            Bat::Bool(v) => v[i] == NULL_I8,
            Bat::Int(v) | Bat::Date(v) => v[i] == NULL_I32,
            Bat::Bigint(v) => v[i] == NULL_I64,
            Bat::Double(v) => v[i].is_nan(),
            Bat::Decimal { data, .. } => data[i] == NULL_I64,
            Bat::Varchar { offsets, .. } => offsets[i] == NULL_OFFSET,
        }
    }

    /// Append a dynamic value (cold path).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut *self, v) {
            (Bat::Bool(c), Value::Bool(b)) => c.push(*b as i8),
            (Bat::Bool(c), Value::Null) => c.push(NULL_I8),
            (Bat::Int(c), Value::Int(x)) => c.push(*x),
            (Bat::Int(c), Value::Null) => c.push(NULL_I32),
            (Bat::Bigint(c), Value::Bigint(x)) => c.push(*x),
            (Bat::Bigint(c), Value::Int(x)) => c.push(*x as i64),
            (Bat::Bigint(c), Value::Null) => c.push(NULL_I64),
            (Bat::Double(c), Value::Double(x)) => c.push(*x),
            (Bat::Double(c), Value::Int(x)) => c.push(*x as f64),
            (Bat::Double(c), Value::Bigint(x)) => c.push(*x as f64),
            (Bat::Double(c), Value::Decimal(d)) => c.push(d.to_f64()),
            (Bat::Double(c), Value::Null) => c.push(f64::NAN),
            (Bat::Decimal { data, scale }, Value::Decimal(d)) => data.push(d.rescale(*scale)?.raw),
            (Bat::Decimal { data, scale }, Value::Int(x)) => {
                data.push(Decimal::new(*x as i64, 0).rescale(*scale)?.raw)
            }
            (Bat::Decimal { data, .. }, Value::Null) => data.push(NULL_I64),
            (Bat::Varchar { offsets, heap }, Value::Str(s)) => offsets.push(heap.add(s)),
            (Bat::Varchar { offsets, .. }, Value::Null) => offsets.push(NULL_OFFSET),
            (Bat::Date(c), Value::Date(d)) => c.push(d.0),
            (Bat::Date(c), Value::Null) => c.push(NULL_I32),
            (b, v) => {
                return Err(MlError::TypeMismatch(format!(
                    "cannot append {v:?} to {} column",
                    b.logical_type()
                )))
            }
        }
        Ok(())
    }

    /// Bulk-convert a borrowed host buffer into a BAT (copies it; see
    /// [`Bat::adopt`] for a buffer the caller hands over).
    pub fn from_buffer(buf: &ColumnBuffer) -> Bat {
        match buf {
            ColumnBuffer::Varchar(v) => Bat::intern(v),
            fixed => Bat::adopt(fixed.clone()),
        }
    }

    /// Take ownership of a host buffer: the engine side of
    /// `monetdb_append`, a single pass with no per-row statement parsing.
    /// Fixed-width arrays become the column as they are (no copy); strings
    /// are interned into a fresh heap.
    pub fn adopt(buf: ColumnBuffer) -> Bat {
        match buf {
            ColumnBuffer::Bool(v) => Bat::Bool(v),
            ColumnBuffer::Int(v) => Bat::Int(v),
            ColumnBuffer::Bigint(v) => Bat::Bigint(v),
            ColumnBuffer::Double(v) => Bat::Double(v),
            ColumnBuffer::Decimal { data, scale } => Bat::Decimal { data, scale },
            ColumnBuffer::Varchar(v) => Bat::intern(&v),
            ColumnBuffer::Date(v) => Bat::Date(v),
        }
    }

    fn intern(strs: &[Option<String>]) -> Bat {
        let mut heap = StringHeap::new();
        let offsets = strs
            .iter()
            .map(|s| match s {
                None => NULL_OFFSET,
                Some(s) => heap.add(s),
            })
            .collect();
        Bat::Varchar { offsets, heap }
    }

    /// This column re-interned into a heap of its own when keeping it would
    /// pin a heap more than [`MAX_HEAP_PIN_RATIO`] times the bytes its rows
    /// hold; `None` when it can be kept as it is. The scan stops once the
    /// rows are known to hold enough, so a column that references its whole
    /// heap reads about `1 / MAX_HEAP_PIN_RATIO` of it.
    pub fn compacted(&self) -> Option<Bat> {
        let Bat::Varchar { offsets, heap } = self else {
            return None;
        };
        let enough = heap.size_bytes() / MAX_HEAP_PIN_RATIO;
        let mut held = 0;
        for &o in offsets {
            if held >= enough {
                return None;
            }
            if o != NULL_OFFSET {
                held += 4 + heap.get_bytes(o).len();
            }
        }
        if held >= enough {
            return None;
        }
        let mut own = Bat::with_capacity(LogicalType::Varchar, offsets.len());
        own.append_bat(self).expect("a VARCHAR column appends to a VARCHAR column");
        Some(own)
    }

    /// Export to a host buffer; `sel` restricts and orders rows.
    ///
    /// With `sel == None` this is the eager-copy conversion path; the
    /// zero-copy path in the core crate shares the backing `Arc<Bat>`
    /// instead (strings included) and never calls this.
    pub fn to_buffer(&self, sel: Option<&[u32]>) -> ColumnBuffer {
        match sel {
            None => {
                match self {
                    Bat::Bool(v) => ColumnBuffer::Bool(v.clone()),
                    Bat::Int(v) => ColumnBuffer::Int(v.clone()),
                    Bat::Bigint(v) => ColumnBuffer::Bigint(v.clone()),
                    Bat::Double(v) => ColumnBuffer::Double(v.clone()),
                    Bat::Decimal { data, scale } => {
                        ColumnBuffer::Decimal { data: data.clone(), scale: *scale }
                    }
                    Bat::Varchar { offsets, heap } => ColumnBuffer::Varchar(
                        offsets
                            .iter()
                            .map(|&o| {
                                if o == NULL_OFFSET {
                                    None
                                } else {
                                    Some(heap.get(o).to_string())
                                }
                            })
                            .collect(),
                    ),
                    Bat::Date(v) => ColumnBuffer::Date(v.clone()),
                }
            }
            Some(sel) => match self {
                Bat::Bool(v) => ColumnBuffer::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
                Bat::Int(v) => ColumnBuffer::Int(sel.iter().map(|&i| v[i as usize]).collect()),
                Bat::Bigint(v) => {
                    ColumnBuffer::Bigint(sel.iter().map(|&i| v[i as usize]).collect())
                }
                Bat::Double(v) => {
                    ColumnBuffer::Double(sel.iter().map(|&i| v[i as usize]).collect())
                }
                Bat::Decimal { data, scale } => ColumnBuffer::Decimal {
                    data: sel.iter().map(|&i| data[i as usize]).collect(),
                    scale: *scale,
                },
                Bat::Varchar { offsets, heap } => ColumnBuffer::Varchar(
                    sel.iter()
                        .map(|&i| {
                            let o = offsets[i as usize];
                            if o == NULL_OFFSET {
                                None
                            } else {
                                Some(heap.get(o).to_string())
                            }
                        })
                        .collect(),
                ),
                Bat::Date(v) => ColumnBuffer::Date(sel.iter().map(|&i| v[i as usize]).collect()),
            },
        }
    }

    /// Append all rows of another BAT. When both VARCHAR columns share one
    /// heap buffer ([`StringHeap::shares_buffer_with`]: chunks gathered
    /// from one table column) only the offsets are extended — the heap is
    /// neither copied nor written. Otherwise string values are re-interned
    /// into this heap so duplicate elimination keeps working across
    /// appends; offsets and heap bytes are those of adding the strings row
    /// by row. An empty destination has a fresh heap of its own, so
    /// appending into one still compacts.
    pub fn append_bat(&mut self, other: &Bat) -> Result<()> {
        match (&mut *self, other) {
            (Bat::Bool(a), Bat::Bool(b)) => a.extend_from_slice(b),
            (Bat::Int(a), Bat::Int(b)) => a.extend_from_slice(b),
            (Bat::Bigint(a), Bat::Bigint(b)) => a.extend_from_slice(b),
            (Bat::Double(a), Bat::Double(b)) => a.extend_from_slice(b),
            (Bat::Decimal { data: a, scale: sa }, Bat::Decimal { data: b, scale: sb }) => {
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
            (Bat::Varchar { offsets, heap }, Bat::Varchar { offsets: bo, heap: bh })
                if heap.shares_buffer_with(bh) =>
            {
                offsets.extend_from_slice(bo)
            }
            (Bat::Varchar { offsets, heap }, Bat::Varchar { offsets: bo, heap: bh }) => {
                // A source heap that is small against the row count holds
                // few distinct strings: translate each source offset once
                // and copy the answer for its other rows (0 = not yet
                // seen). The size test keeps the call O(rows) for a
                // one-row gather out of a big shared heap.
                let mut memo = if bh.size_bytes() <= 4 * bo.len() {
                    vec![NULL_OFFSET; bh.size_bytes()]
                } else {
                    Vec::new()
                };
                offsets.reserve(bo.len());
                for &o in bo {
                    if o == NULL_OFFSET {
                        offsets.push(NULL_OFFSET);
                        continue;
                    }
                    offsets.push(match memo.get_mut(o as usize) {
                        // Past its dedup threshold this heap gives every
                        // row an entry of its own; the memo must not.
                        Some(seen) if heap.dedup_active() => {
                            if *seen == NULL_OFFSET {
                                *seen = heap.add_entry_of(bh, o);
                            }
                            *seen
                        }
                        _ => heap.add_entry_of(bh, o),
                    });
                }
            }
            (Bat::Date(a), Bat::Date(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(MlError::TypeMismatch(format!(
                    "cannot append {} BAT to {} BAT",
                    b.logical_type(),
                    a.logical_type()
                )))
            }
        }
        Ok(())
    }

    /// Append the rows `sel` of `src`, in order: a typed gather onto the
    /// end of this column (strings re-interned into this heap). Columns of
    /// different types or decimal scales convert as [`Bat::push`] does —
    /// decimals rescale, an impossible conversion is a `TypeMismatch`
    /// error.
    pub fn append_rows(&mut self, src: &Bat, sel: &[u32]) -> Result<()> {
        fn gather<T: Copy>(dst: &mut Vec<T>, src: &[T], sel: &[u32]) {
            dst.extend(sel.iter().map(|&i| src[i as usize]));
        }
        match (&mut *self, src) {
            (Bat::Bool(a), Bat::Bool(b)) => gather(a, b, sel),
            (Bat::Int(a), Bat::Int(b)) | (Bat::Date(a), Bat::Date(b)) => gather(a, b, sel),
            (Bat::Bigint(a), Bat::Bigint(b)) => gather(a, b, sel),
            (Bat::Double(a), Bat::Double(b)) => gather(a, b, sel),
            (Bat::Decimal { data: a, scale: sa }, Bat::Decimal { data: b, scale: sb })
                if sa == sb =>
            {
                gather(a, b, sel)
            }
            (Bat::Varchar { offsets, heap }, Bat::Varchar { offsets: bo, heap: bh }) => {
                offsets.extend(sel.iter().map(|&i| match bo[i as usize] {
                    NULL_OFFSET => NULL_OFFSET,
                    o => heap.add_entry_of(bh, o),
                }));
            }
            _ => {
                for &i in sel {
                    self.push(&src.get(i as usize))?;
                }
            }
        }
        Ok(())
    }

    /// Gather rows by position into a new BAT (the `fetch`/projection
    /// kernel's materialisation step), in O(selection) for every type: a
    /// VARCHAR gather copies offsets and *shares* the copy-on-write heap,
    /// so the result still references the whole source heap. To get a BAT
    /// whose heap holds only the gathered strings (a WAL delta, say),
    /// [`Bat::append_bat`] the result into an empty column.
    pub fn take(&self, sel: &[u32]) -> Bat {
        match self {
            Bat::Bool(v) => Bat::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            Bat::Int(v) => Bat::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Bat::Bigint(v) => Bat::Bigint(sel.iter().map(|&i| v[i as usize]).collect()),
            Bat::Double(v) => Bat::Double(sel.iter().map(|&i| v[i as usize]).collect()),
            Bat::Decimal { data, scale } => Bat::Decimal {
                data: sel.iter().map(|&i| data[i as usize]).collect(),
                scale: *scale,
            },
            Bat::Varchar { offsets, heap } => Bat::Varchar {
                offsets: sel.iter().map(|&i| offsets[i as usize]).collect(),
                heap: heap.clone(),
            },
            Bat::Date(v) => Bat::Date(sel.iter().map(|&i| v[i as usize]).collect()),
        }
    }

    /// Minimum and maximum of the non-NULL rows in `[lo, hi)`, in the
    /// order-preserving `i64` key domain of [`crate::index::key_at`] (the
    /// zonemap builder's one-pass summary). `None` when every row in the
    /// range is NULL, or for VARCHAR (strings only hash — no
    /// order-preserving key domain).
    pub fn key_range(&self, lo: usize, hi: usize) -> Option<(i64, i64)> {
        let mut range = None;
        self.for_each_key(lo, hi, |k| {
            range = Some(range.map_or((k, k), |(mn, mx): (i64, i64)| (mn.min(k), mx.max(k))));
        })?;
        range
    }

    /// Feed `f` the [`crate::index::key_at`] key of every non-NULL row in
    /// `[lo, hi)` — one typed loop per physical type instead of a type
    /// dispatch per row — and return how many rows were NULL. `None`
    /// (nothing fed) for VARCHAR, whose keys are hashes of heap entries.
    pub(crate) fn for_each_key(&self, lo: usize, hi: usize, f: impl FnMut(i64)) -> Option<usize> {
        fn run<T: Copy>(
            v: &[T],
            (lo, hi): (usize, usize),
            is_null: impl Fn(T) -> bool,
            key: impl Fn(T) -> i64,
            mut f: impl FnMut(i64),
        ) -> Option<usize> {
            let rows = v.get(lo..hi.min(v.len())).unwrap_or(&[]);
            let mut nulls = 0;
            for &x in rows {
                if is_null(x) {
                    nulls += 1;
                } else {
                    f(key(x));
                }
            }
            Some(nulls)
        }
        let at = (lo, hi);
        match self {
            Bat::Bool(v) => run(v, at, |x| x == NULL_I8, |x| x as i64, f),
            Bat::Int(v) | Bat::Date(v) => run(v, at, |x| x == NULL_I32, |x| x as i64, f),
            Bat::Bigint(v) => run(v, at, |x| x == NULL_I64, |x| x, f),
            Bat::Decimal { data, .. } => run(data, at, |x| x == NULL_I64, |x| x, f),
            Bat::Double(v) => run(v, at, |x| x.is_nan(), crate::index::f64_ordered, f),
            Bat::Varchar { .. } => None,
        }
    }

    /// Count of NULL rows.
    pub fn null_count(&self) -> usize {
        match self {
            Bat::Bool(v) => v.iter().filter(|&&x| x == NULL_I8).count(),
            Bat::Int(v) | Bat::Date(v) => v.iter().filter(|&&x| x == NULL_I32).count(),
            Bat::Bigint(v) => v.iter().filter(|&&x| x == NULL_I64).count(),
            Bat::Double(v) => v.iter().filter(|x| x.is_nan()).count(),
            Bat::Decimal { data, .. } => data.iter().filter(|&&x| x == NULL_I64).count(),
            Bat::Varchar { offsets, .. } => offsets.iter().filter(|&&o| o == NULL_OFFSET).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_to_buffer_roundtrip_fixed() {
        let buf = ColumnBuffer::Int(vec![1, NULL_I32, 3]);
        let bat = Bat::from_buffer(&buf);
        assert_eq!(bat.len(), 3);
        assert_eq!(bat.null_count(), 1);
        assert_eq!(bat.to_buffer(None), buf);
    }

    #[test]
    fn from_to_buffer_roundtrip_strings() {
        let buf =
            ColumnBuffer::Varchar(vec![Some("a".into()), None, Some("b".into()), Some("a".into())]);
        let bat = Bat::from_buffer(&buf);
        assert_eq!(bat.null_count(), 1);
        assert_eq!(bat.str_at(0), Some("a"));
        assert_eq!(bat.str_at(1), None);
        // dedup collapsed the two "a"s
        if let Bat::Varchar { offsets, .. } = &bat {
            assert_eq!(offsets[0], offsets[3]);
        }
        assert_eq!(bat.to_buffer(None), buf);
    }

    #[test]
    fn selective_export() {
        let bat = Bat::from_buffer(&ColumnBuffer::Int(vec![10, 20, 30, 40]));
        assert_eq!(bat.to_buffer(Some(&[2, 0])), ColumnBuffer::Int(vec![30, 10]));
    }

    #[test]
    fn take_strings_keeps_heap_valid() {
        let bat = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("x".into()),
            Some("y".into()),
            None,
        ]));
        let t = bat.take(&[1, 2]);
        assert_eq!(t.str_at(0), Some("y"));
        assert_eq!(t.str_at(1), None);
    }

    #[test]
    fn take_and_clone_share_the_string_heap() {
        let strs: Vec<Option<String>> = (0..1000).map(|i| Some(format!("value-{i}"))).collect();
        let bat = Bat::from_buffer(&ColumnBuffer::Varchar(strs));
        let heap_ptr = |b: &Bat| match b {
            Bat::Varchar { heap, .. } => heap.raw().as_ptr(),
            _ => unreachable!(),
        };
        let taken = bat.take(&[7, 3]);
        assert_eq!(heap_ptr(&taken), heap_ptr(&bat), "take must not copy the heap");
        assert_eq!(heap_ptr(&bat.clone()), heap_ptr(&bat), "clone must not copy the heap");
        assert_eq!((taken.str_at(0), taken.str_at(1)), (Some("value-7"), Some("value-3")));
        // Compaction: re-interning into an empty column leaves a heap sized
        // by the two gathered strings, and the source untouched.
        let mut compact = Bat::new(LogicalType::Varchar);
        compact.append_bat(&taken).unwrap();
        assert_eq!(compact.size_bytes(), 2 * 4 + 1 + 2 * (4 + 7));
        assert_eq!(compact.str_at(1), Some("value-3"));
        assert_eq!(bat.str_at(999), Some("value-999"));
    }

    #[test]
    fn append_bat_reinterns_strings() {
        let mut a = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("shared".into())]));
        let b = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("shared".into()), None]));
        a.append_bat(&b).unwrap();
        assert_eq!(a.len(), 3);
        if let Bat::Varchar { offsets, .. } = &a {
            assert_eq!(offsets[0], offsets[1], "re-interning should dedup");
            assert_eq!(offsets[2], NULL_OFFSET);
        }
    }

    /// What `append_bat` must equal on VARCHAR: one `add` per row.
    fn append_rowwise(dst: &mut Bat, src: &Bat) {
        for i in 0..src.len() {
            dst.push(&src.get(i)).unwrap();
        }
    }

    fn varchar_parts(b: &Bat) -> (&[u32], &[u8]) {
        match b {
            Bat::Varchar { offsets, heap } => (offsets, heap.raw()),
            _ => panic!("varchar expected"),
        }
    }

    #[test]
    fn append_bat_translates_a_small_source_heap_once_per_offset() {
        // 3 distinct strings over 4000 rows: the memo path. The destination
        // ends with one entry per distinct string, as row-by-row adds would.
        let src = Bat::from_buffer(&ColumnBuffer::Varchar(
            (0..4000).map(|i| (i % 4 != 3).then(|| format!("flag{}", i % 4))).collect(),
        ));
        let mut fast = Bat::new(LogicalType::Varchar);
        let mut slow = Bat::new(LogicalType::Varchar);
        fast.append_bat(&src).unwrap();
        append_rowwise(&mut slow, &src);
        assert_eq!(varchar_parts(&fast), varchar_parts(&slow));
        assert_eq!(fast.size_bytes(), 4000 * 4 + 1 + 3 * (4 + 5));
        assert_eq!(fast.null_count(), 1000);
    }

    #[test]
    fn key_range_is_min_max_of_key_at_over_non_null_rows() {
        let bats = [
            Bat::Bool(vec![1, NULL_I8, 0]),
            Bat::Int(vec![NULL_I32, 7, -3, 12]),
            Bat::Date(vec![100, NULL_I32, 90]),
            Bat::Bigint(vec![i64::MAX, NULL_I64, -5]),
            Bat::Decimal { data: vec![250, NULL_I64, -1], scale: 2 },
            Bat::Double(vec![f64::NAN, -2.5, 1e9, -0.0]),
        ];
        for bat in &bats {
            for (lo, hi) in [(0, bat.len()), (1, 2), (1, 99), (2, 2), (3, 1)] {
                let keys: Vec<i64> = (lo..hi.min(bat.len()))
                    .filter(|&i| !bat.is_null_at(i))
                    .map(|i| crate::index::key_at(bat, i))
                    .collect();
                let want = keys.iter().min().zip(keys.iter().max()).map(|(a, b)| (*a, *b));
                assert_eq!(bat.key_range(lo, hi), want, "{bat:?} [{lo}, {hi})");
            }
        }
        let strs = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("a".into())]));
        assert_eq!(strs.key_range(0, 1), None, "strings have no key order");
    }

    #[test]
    fn append_decimal_mixed_scale() {
        let mut a = Bat::Decimal { data: vec![100], scale: 2 };
        a.append_bat(&Bat::Decimal { data: vec![7], scale: 0 }).unwrap();
        assert_eq!(a.get(1), Value::Decimal(Decimal::new(700, 2)));
    }

    #[test]
    fn push_values() {
        let mut b = Bat::new(LogicalType::Date);
        b.push(&Value::Date(Date(100))).unwrap();
        b.push(&Value::Null).unwrap();
        assert_eq!(b.get(0), Value::Date(Date(100)));
        assert!(b.is_null_at(1));
        assert!(b.push(&Value::Int(5)).is_err());
    }

    #[test]
    fn type_mismatch_append_errors() {
        let mut a = Bat::new(LogicalType::Int);
        assert!(a.append_bat(&Bat::new(LogicalType::Double)).is_err());
    }

    proptest! {
        #[test]
        fn prop_append_bat_equals_rowwise_add(
            // Per row: a string id (low NDV in even segments, high in odd
            // ones), NULL for id % 5 == 0.
            rows in proptest::collection::vec(any::<u32>(), 1..400),
            nseg in 1usize..6,
            limit in 0usize..40,
            shared in 0u8..2,
        ) {
            let value = |seg: usize, r: u32| {
                let id = if seg.is_multiple_of(2) { r % 4 } else { r % 97 };
                (!r.is_multiple_of(5)).then(|| format!("s{id}"))
            };
            // A destination whose dedup threshold the appends may cross.
            let fresh = || Bat::Varchar {
                offsets: Vec::new(),
                heap: StringHeap::with_dedup_limit(limit),
            };
            let (mut fast, mut slow) = (fresh(), fresh());
            for (seg, part) in rows.chunks(rows.len().div_ceil(nseg)).enumerate() {
                let all: Vec<Option<String>> = part.iter().map(|&r| value(seg, r)).collect();
                let mut src = Bat::from_buffer(&ColumnBuffer::Varchar(all));
                if shared == 1 {
                    // A gather: few rows over the whole source heap.
                    src = src.take(&[0, (part.len() / 2) as u32]);
                }
                fast.append_bat(&src).unwrap();
                append_rowwise(&mut slow, &src);
                prop_assert_eq!(varchar_parts(&fast), varchar_parts(&slow));
            }
            prop_assert_eq!(fast.to_buffer(None), slow.to_buffer(None));
        }

        #[test]
        fn prop_buffer_roundtrip_int(v in proptest::collection::vec(any::<i32>(), 0..100)) {
            let buf = ColumnBuffer::Int(v);
            let bat = Bat::from_buffer(&buf);
            prop_assert_eq!(bat.to_buffer(None), buf);
        }

        #[test]
        fn prop_take_matches_get(v in proptest::collection::vec(-1000i64..1000, 1..50),
                                 picks in proptest::collection::vec(0usize..49, 0..20)) {
            let picks: Vec<u32> = picks.into_iter().filter(|&p| p < v.len()).map(|p| p as u32).collect();
            let bat = Bat::Bigint(v.clone());
            let taken = bat.take(&picks);
            for (j, &i) in picks.iter().enumerate() {
                prop_assert_eq!(taken.get(j), bat.get(i as usize));
            }
        }
    }
}
