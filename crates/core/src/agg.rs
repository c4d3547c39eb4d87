//! Grouped aggregation kernels.
//!
//! A [`GroupTable`] interns composite keys (NULLs group together, SQL
//! semantics), assigning each row a dense group id; the per-function
//! accumulators then run column-at-a-time over the group-id vector.
//! `SELECT DISTINCT` is a grouping with no accumulators. Per-worker partial
//! states merge ([`AggState::merge`]), whatever the cut into morsels. MEDIAN
//! is the blocking aggregate of the paper's Figure 2: it buffers every
//! value and finishes only once all partials have merged.

use crate::expr::PAggFunc;
use crate::rows::{visit_keys, KeyCols, KeyVisitor};
use monetlite_storage::hash::{hash_rows, HashTable};
use monetlite_storage::heap::NULL_OFFSET;
use monetlite_storage::Bat;
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
use monetlite_types::{LogicalType, MlError, Result, Value};

/// An incremental grouping table for the pipeline engine: group keys are
/// interned vector-at-a-time into dense ids, with representative key
/// values accumulated as they are first seen (NULLs group together, SQL
/// semantics). It grows as vectors arrive — the per-thread state of
/// morsel-parallel partial aggregation, GROUP BY's and `SELECT
/// DISTINCT`'s alike.
#[derive(Debug)]
pub struct GroupTable {
    /// Representative key values, one row per group, in first-seen order.
    keys: Vec<Bat>,
    /// Group ids by key hash (the stored hashes are the groups' hashes).
    table: HashTable,
}

impl GroupTable {
    /// Empty table for the given key column types.
    pub fn new(key_types: &[LogicalType]) -> GroupTable {
        GroupTable {
            keys: key_types.iter().map(|&t| Bat::new(t)).collect(),
            table: HashTable::default(),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn n_groups(&self) -> usize {
        self.table.len()
    }

    /// The accumulated representative key columns.
    pub fn keys(&self) -> &[Bat] {
        &self.keys
    }

    /// Consume the table, returning the representative key columns (the
    /// group-by output columns, in first-seen order).
    pub fn into_keys(self) -> Vec<Bat> {
        self.keys
    }

    /// Allocated bytes (representative keys + hash table, at capacity) —
    /// the quantity the spill budget checks against.
    pub fn mem_bytes(&self) -> usize {
        self.keys.iter().map(|k| k.alloc_bytes()).sum::<usize>() + self.table.size_bytes()
    }

    /// Intern a block of key rows, returning each row's dense group id.
    pub fn intern_block(&mut self, block: &[&Bat]) -> Result<Vec<u32>> {
        let hashes = hash_rows(block, None);
        self.intern_hashed(block, &hashes)
    }

    /// Merge another table's groups into this one — the cross-thread merge
    /// of partial aggregation — reusing its stored hashes. Returns the map
    /// from `other`'s group ids to this table's (for
    /// [`AggState::merge_mapped`]).
    pub(crate) fn merge(&mut self, other: &GroupTable) -> Result<Vec<u32>> {
        let refs: Vec<&Bat> = other.keys.iter().collect();
        self.intern_hashed(&refs, other.table.hashes())
    }

    /// Intern rows whose hashes are known. Keys of groups new in this
    /// block are appended once, at the end, with one typed gather per key
    /// column; until then their representative is their block row.
    fn intern_hashed(&mut self, block: &[&Bat], hashes: &[u64]) -> Result<Vec<u32>> {
        debug_assert_eq!(block.len(), self.keys.len());
        let GroupTable { keys, table } = self;
        let stored: Vec<&Bat> = keys.iter().collect();
        let (gids, new_rows) = visit_keys(block, &stored, Intern { table, hashes });
        for (k, b) in keys.iter_mut().zip(block) {
            let at = k.len();
            k.append_rows(b, &new_rows)?;
            // -0.0 and 0.0 are one group, shown as 0.0 whichever of the
            // two opened it, so the output does not depend on the cut.
            if let Bat::Double(v) = k {
                for x in &mut v[at..] {
                    if *x == 0.0 {
                        *x = 0.0;
                    }
                }
            }
        }
        Ok(gids)
    }
}

/// The [`GroupTable::intern_hashed`] loop, instantiated per typed key
/// representation: returns each row's group id and the block rows that
/// opened a group.
struct Intern<'a> {
    table: &'a mut HashTable,
    hashes: &'a [u64],
}

impl KeyVisitor for Intern<'_> {
    type Out = (Vec<u32>, Vec<u32>);

    fn visit<K: KeyCols>(self, block: &K, stored: &K) -> Self::Out {
        let base = self.table.len() as u32;
        let mut new_rows: Vec<u32> = Vec::new();
        let mut gids = Vec::with_capacity(self.hashes.len());
        for (row, &h) in self.hashes.iter().enumerate() {
            let (g, new) = self.table.intern(h, |g| match g.checked_sub(base) {
                None => block.same(row, stored, g as usize),
                Some(n) => block.same(row, block, new_rows[n as usize] as usize),
            });
            if new {
                new_rows.push(row as u32);
            }
            gids.push(g);
        }
        (gids, new_rows)
    }
}

/// One aggregate's state across groups; supports partial merge for the
/// decomposable functions.
#[derive(Debug)]
pub enum AggState {
    /// COUNT: per-group counts.
    Count(Vec<i64>),
    /// SUM over integers (i128 to detect overflow at the end).
    SumInt(Vec<i128>, Vec<bool>),
    /// SUM over doubles.
    SumF64(Vec<f64>, Vec<bool>),
    /// SUM over decimals (scale carried).
    SumDec(Vec<i128>, Vec<bool>, u8),
    /// AVG: sum + count.
    Avg(Vec<f64>, Vec<i64>),
    /// MIN/MAX keep the best value per group.
    Best(Vec<Value>, bool /* is_max */),
    /// MEDIAN buffers all non-null values (blocking).
    Median(Vec<Vec<f64>>),
    /// COUNT(DISTINCT x): every distinct (group id, x) pair with x not
    /// NULL, interned in one typed group table whose first key column is
    /// the group id (as INT) and whose second is x; and the group count.
    CountDistinct(GroupTable, usize),
}

impl AggState {
    /// Initial state for `func` over `n` groups.
    pub fn new(
        func: PAggFunc,
        input_ty: Option<LogicalType>,
        distinct: bool,
        n: usize,
    ) -> Result<AggState> {
        if distinct && func != PAggFunc::Count {
            return Err(MlError::Unsupported("DISTINCT is only supported with COUNT".into()));
        }
        Ok(match func {
            PAggFunc::Count if distinct => {
                let ty = input_ty.ok_or_else(|| {
                    MlError::Execution("COUNT(DISTINCT) needs an argument".into())
                })?;
                AggState::CountDistinct(GroupTable::new(&[LogicalType::Int, ty]), n)
            }
            PAggFunc::Count => AggState::Count(vec![0; n]),
            PAggFunc::Sum => match input_ty {
                Some(LogicalType::Int) | Some(LogicalType::Bigint) => {
                    AggState::SumInt(vec![0; n], vec![false; n])
                }
                Some(LogicalType::Decimal { scale, .. }) => {
                    AggState::SumDec(vec![0; n], vec![false; n], scale)
                }
                _ => AggState::SumF64(vec![0.0; n], vec![false; n]),
            },
            PAggFunc::Avg => AggState::Avg(vec![0.0; n], vec![0; n]),
            PAggFunc::Min => AggState::Best(vec![Value::Null; n], false),
            PAggFunc::Max => AggState::Best(vec![Value::Null; n], true),
            PAggFunc::Median => AggState::Median(vec![Vec::new(); n]),
        })
    }

    /// Accumulate a column (aligned with `group_ids`). Every accumulator
    /// runs one typed loop per column type ([`each_valid`]); no row reads
    /// its value through a per-row type dispatch.
    pub fn update(&mut self, arg: Option<&Bat>, group_ids: &[u32]) -> Result<()> {
        match self {
            AggState::Count(c) => match arg {
                None => {
                    for &g in group_ids {
                        c[g as usize] += 1;
                    }
                }
                Some(b) => each_non_null(b, group_ids, |g| c[g] += 1),
            },
            AggState::CountDistinct(pairs, _) => {
                let b = arg.ok_or_else(|| {
                    MlError::Execution("COUNT(DISTINCT) needs an argument".into())
                })?;
                // NULL arguments are not counted: only the other rows
                // intern, as (group id, x) pairs.
                let nulls = b.null_count();
                if nulls == 0 {
                    let gids = Bat::Int(group_ids.iter().map(|&g| g as i32).collect());
                    pairs.intern_block(&[&gids, b])?;
                } else if nulls < b.len() {
                    let rows: Vec<u32> =
                        (0..b.len() as u32).filter(|&r| !b.is_null_at(r as usize)).collect();
                    let gids =
                        Bat::Int(rows.iter().map(|&r| group_ids[r as usize] as i32).collect());
                    pairs.intern_block(&[&gids, &b.take(&rows)])?;
                }
            }
            AggState::SumInt(sums, seen) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                let mut add = |g: usize, x: i128| {
                    sums[g] += x;
                    seen[g] = true;
                };
                match b {
                    Bat::Int(v) => {
                        each_valid(v, group_ids, |x| x == NULL_I32, |g, x| add(g, x as i128))
                    }
                    Bat::Bigint(v) => {
                        each_valid(v, group_ids, |x| x == NULL_I64, |g, x| add(g, x as i128))
                    }
                    other => {
                        return Err(MlError::Execution(format!(
                            "integer SUM over {}",
                            other.logical_type()
                        )))
                    }
                }
            }
            AggState::SumDec(sums, seen, _) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                let Bat::Decimal { data, .. } = b else {
                    return Err(MlError::Execution(format!(
                        "decimal SUM over {}",
                        b.logical_type()
                    )));
                };
                each_valid(
                    data,
                    group_ids,
                    |x| x == NULL_I64,
                    |g, x| {
                        sums[g] += x as i128;
                        seen[g] = true;
                    },
                );
            }
            AggState::SumF64(sums, seen) => {
                let b = arg.ok_or_else(|| MlError::Execution("SUM needs an argument".into()))?;
                let Bat::Double(v) = b else {
                    return Err(MlError::Execution(format!("SUM over {}", b.logical_type())));
                };
                each_valid(
                    v,
                    group_ids,
                    |x: f64| x.is_nan(),
                    |g, x| {
                        sums[g] += x;
                        seen[g] = true;
                    },
                );
            }
            AggState::Avg(sums, counts) => {
                let b = arg.ok_or_else(|| MlError::Execution("AVG needs an argument".into()))?;
                each_f64(b, group_ids, |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                })?;
            }
            AggState::Best(best, is_max) => {
                let b = arg.ok_or_else(|| MlError::Execution("MIN/MAX need an argument".into()))?;
                for (row, &g) in group_ids.iter().enumerate() {
                    if b.is_null_at(row) {
                        continue;
                    }
                    let v = b.get(row);
                    let cur = &best[g as usize];
                    let replace = match cur {
                        Value::Null => true,
                        c => {
                            let ord = v.cmp_sql(c);
                            if *is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        best[g as usize] = v;
                    }
                }
            }
            AggState::Median(bufs) => {
                let b = arg.ok_or_else(|| MlError::Execution("MEDIAN needs an argument".into()))?;
                each_f64(b, group_ids, |g, x| bufs[g].push(x))?;
            }
        }
        Ok(())
    }

    /// Merge a partial state computed over a disjoint chunk (same group
    /// mapping). Only decomposable states support this; MEDIAN merges by
    /// concatenating buffers (it still sorts once at the end, so the sort
    /// is the blocking step — exactly Figure 2's structure).
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::SumF64(a, sa), AggState::SumF64(b, sb)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::SumDec(a, sa, _), AggState::SumDec(b, sb, _)) => {
                for ((x, y), (s1, s2)) in a.iter_mut().zip(b).zip(sa.iter_mut().zip(sb)) {
                    *x += y;
                    *s1 = *s1 || s2;
                }
            }
            (AggState::Avg(a, ca), AggState::Avg(b, cb)) => {
                for ((x, y), (c1, c2)) in a.iter_mut().zip(b).zip(ca.iter_mut().zip(cb)) {
                    *x += y;
                    *c1 += c2;
                }
            }
            (AggState::Best(a, is_max), AggState::Best(b, _)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    let replace = match (&x, &y) {
                        (_, Value::Null) => false,
                        (Value::Null, _) => true,
                        (cur, new) => {
                            let ord = new.cmp_sql(cur);
                            if *is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        *x = y;
                    }
                }
            }
            (AggState::Median(a), AggState::Median(b)) => {
                for (x, mut y) in a.iter_mut().zip(b) {
                    x.append(&mut y);
                }
            }
            (AggState::CountDistinct(a, na), AggState::CountDistinct(b, nb)) => {
                a.merge(&b)?;
                *na = (*na).max(nb);
            }
            _ => return Err(MlError::Execution("mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// Grow the state to cover `n` groups (new groups start empty). The
    /// pipeline engine's group tables grow as vectors arrive, so states
    /// must be resizable — the batch constructor fixes `n` up front.
    pub fn ensure_groups(&mut self, n: usize) {
        match self {
            AggState::Count(c) => c.resize(n, 0),
            AggState::SumInt(s, seen) | AggState::SumDec(s, seen, _) => {
                s.resize(n, 0);
                seen.resize(n, false);
            }
            AggState::SumF64(s, seen) => {
                s.resize(n, 0.0);
                seen.resize(n, false);
            }
            AggState::Avg(s, c) => {
                s.resize(n, 0.0);
                c.resize(n, 0);
            }
            AggState::Best(b, _) => b.resize(n, Value::Null),
            AggState::Median(b) => b.resize(n, Vec::new()),
            AggState::CountDistinct(_, groups) => *groups = (*groups).max(n),
        }
    }

    /// Approximate resident bytes of the accumulator — drives the
    /// spill-or-not decision of the pipeline engine's partial hash
    /// aggregation. Holistic states (MEDIAN buffers, COUNT(DISTINCT)
    /// pairs) grow with input, not group count, so they are measured by
    /// content; the pairs' group table reports its allocation.
    pub fn mem_bytes(&self) -> usize {
        fn value_bytes(v: &Value) -> usize {
            16 + match v {
                Value::Str(s) => s.len(),
                _ => 8,
            }
        }
        match self {
            AggState::Count(c) => c.len() * 8,
            AggState::SumInt(s, seen) | AggState::SumDec(s, seen, _) => s.len() * 16 + seen.len(),
            AggState::SumF64(s, seen) => s.len() * 8 + seen.len(),
            AggState::Avg(s, c) => s.len() * 8 + c.len() * 8,
            AggState::Best(b, _) => b.iter().map(value_bytes).sum(),
            AggState::Median(bufs) => bufs.iter().map(|b| 24 + b.len() * 8).sum(),
            AggState::CountDistinct(pairs, _) => pairs.mem_bytes(),
        }
    }

    /// Current group capacity.
    pub fn n_groups(&self) -> usize {
        match self {
            AggState::Count(c) => c.len(),
            AggState::SumInt(s, _) | AggState::SumDec(s, _, _) => s.len(),
            AggState::SumF64(s, _) => s.len(),
            AggState::Avg(s, _) => s.len(),
            AggState::Best(b, _) => b.len(),
            AggState::Median(b) => b.len(),
            AggState::CountDistinct(_, groups) => *groups,
        }
    }

    /// Merge a partial state whose group ids map through `gid_map`
    /// (`other`'s group `g` corresponds to `self`'s group `gid_map[g]`).
    /// This is the cross-thread merge of morsel-parallel grouped
    /// aggregation, where each worker interned groups independently.
    pub fn merge_mapped(&mut self, other: AggState, gid_map: &[u32]) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => {
                for (g, y) in b.into_iter().enumerate() {
                    a[gid_map[g] as usize] += y;
                }
            }
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb))
            | (AggState::SumDec(a, sa, _), AggState::SumDec(b, sb, _)) => {
                for (g, (y, s2)) in b.into_iter().zip(sb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    sa[t] = sa[t] || s2;
                }
            }
            (AggState::SumF64(a, sa), AggState::SumF64(b, sb)) => {
                for (g, (y, s2)) in b.into_iter().zip(sb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    sa[t] = sa[t] || s2;
                }
            }
            (AggState::Avg(a, ca), AggState::Avg(b, cb)) => {
                for (g, (y, c2)) in b.into_iter().zip(cb).enumerate() {
                    let t = gid_map[g] as usize;
                    a[t] += y;
                    ca[t] += c2;
                }
            }
            (AggState::Best(a, is_max), AggState::Best(b, _)) => {
                let is_max = *is_max;
                for (g, y) in b.into_iter().enumerate() {
                    let t = gid_map[g] as usize;
                    let replace = match (&a[t], &y) {
                        (_, Value::Null) => false,
                        (Value::Null, _) => true,
                        (cur, new) => {
                            let ord = new.cmp_sql(cur);
                            if is_max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        a[t] = y;
                    }
                }
            }
            (AggState::Median(a), AggState::Median(b)) => {
                for (g, mut y) in b.into_iter().enumerate() {
                    a[gid_map[g] as usize].append(&mut y);
                }
            }
            (AggState::CountDistinct(a, _), AggState::CountDistinct(b, _)) => {
                // The pairs re-intern under the mapped group ids.
                let [gids, xs] = b.keys() else {
                    return Err(MlError::Execution("COUNT(DISTINCT) pairs are not pairs".into()));
                };
                let Bat::Int(gids) = gids else {
                    return Err(MlError::Execution("COUNT(DISTINCT) group ids are not INT".into()));
                };
                let mapped = Bat::Int(gids.iter().map(|&g| gid_map[g as usize] as i32).collect());
                a.intern_block(&[&mapped, xs])?;
            }
            _ => return Err(MlError::Execution("mismatched aggregate states".into())),
        }
        Ok(())
    }

    /// Finalise into an output column of `out_ty`.
    pub fn finish(self, out_ty: LogicalType) -> Result<Bat> {
        Ok(match self {
            AggState::Count(c) => Bat::Bigint(c),
            AggState::CountDistinct(pairs, groups) => {
                let mut counts = vec![0i64; groups];
                if let Some(Bat::Int(gids)) = pairs.keys().first() {
                    for &g in gids {
                        counts[g as usize] += 1;
                    }
                }
                Bat::Bigint(counts)
            }
            AggState::SumInt(sums, seen) => {
                let mut out = Vec::with_capacity(sums.len());
                for (s, ok) in sums.into_iter().zip(seen) {
                    if !ok {
                        out.push(NULL_I64);
                    } else if s > i64::MAX as i128 || s < (i64::MIN + 1) as i128 {
                        return Err(MlError::Execution("SUM overflow".into()));
                    } else {
                        out.push(s as i64);
                    }
                }
                Bat::Bigint(out)
            }
            AggState::SumDec(sums, seen, scale) => {
                let mut out = Vec::with_capacity(sums.len());
                for (s, ok) in sums.into_iter().zip(seen) {
                    if !ok {
                        out.push(NULL_I64);
                    } else if s > i64::MAX as i128 || s < (i64::MIN + 1) as i128 {
                        return Err(MlError::Execution("SUM overflow".into()));
                    } else {
                        out.push(s as i64);
                    }
                }
                Bat::Decimal { data: out, scale }
            }
            AggState::SumF64(sums, seen) => Bat::Double(
                sums.into_iter().zip(seen).map(|(s, ok)| if ok { s } else { f64::NAN }).collect(),
            ),
            AggState::Avg(sums, counts) => Bat::Double(
                sums.into_iter()
                    .zip(counts)
                    .map(|(s, c)| if c == 0 { f64::NAN } else { s / c as f64 })
                    .collect(),
            ),
            AggState::Best(best, _) => {
                let mut out = Bat::with_capacity(out_ty, best.len());
                for v in best {
                    out.push(&v)?;
                }
                out
            }
            AggState::Median(bufs) => Bat::Double(
                bufs.into_iter()
                    .map(|mut vals| {
                        if vals.is_empty() {
                            return f64::NAN;
                        }
                        // O(n) selection instead of a full sort: this is
                        // still the blocking step of Figure 2, just a
                        // cheaper one.
                        let n = vals.len();
                        let (lo, mid, _) =
                            vals.select_nth_unstable_by(n / 2, |a, b| a.total_cmp(b));
                        let upper = *mid;
                        if n % 2 == 1 {
                            upper
                        } else {
                            let lower = lo.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                            (lower + upper) / 2.0
                        }
                    })
                    .collect(),
            ),
        })
    }
}

/// Call `f(group, value)` for every non-NULL row of a typed array aligned
/// with `group_ids`: the one loop shape of every accumulator.
#[inline]
fn each_valid<T: Copy>(
    v: &[T],
    group_ids: &[u32],
    is_null: impl Fn(T) -> bool,
    mut f: impl FnMut(usize, T),
) {
    for (&x, &g) in v.iter().zip(group_ids) {
        if !is_null(x) {
            f(g as usize, x);
        }
    }
}

/// Call `f(group)` for every non-NULL row of a column (COUNT(x)).
fn each_non_null(b: &Bat, group_ids: &[u32], mut f: impl FnMut(usize)) {
    match b {
        Bat::Bool(v) => each_valid(v, group_ids, |x| x == NULL_I8, |g, _| f(g)),
        Bat::Int(v) | Bat::Date(v) => each_valid(v, group_ids, |x| x == NULL_I32, |g, _| f(g)),
        Bat::Bigint(v) | Bat::Decimal { data: v, .. } => {
            each_valid(v, group_ids, |x| x == NULL_I64, |g, _| f(g))
        }
        Bat::Double(v) => each_valid(v, group_ids, |x: f64| x.is_nan(), |g, _| f(g)),
        Bat::Varchar { offsets, .. } => {
            each_valid(offsets, group_ids, |o| o == NULL_OFFSET, |g, _| f(g))
        }
    }
}

/// Call `f(group, x)` for every non-NULL row of a numeric column read as
/// DOUBLE (AVG, MEDIAN). A column that cannot be read as a number is an
/// error once it holds a non-NULL row.
fn each_f64(b: &Bat, group_ids: &[u32], mut f: impl FnMut(usize, f64)) -> Result<()> {
    match b {
        Bat::Int(v) | Bat::Date(v) => {
            each_valid(v, group_ids, |x| x == NULL_I32, |g, x| f(g, x as f64))
        }
        Bat::Bigint(v) => each_valid(v, group_ids, |x| x == NULL_I64, |g, x| f(g, x as f64)),
        Bat::Double(v) => each_valid(v, group_ids, |x: f64| x.is_nan(), f),
        Bat::Decimal { data, scale } => {
            let unit = monetlite_types::decimal::POW10[*scale as usize] as f64;
            each_valid(data, group_ids, |x| x == NULL_I64, |g, x| f(g, x as f64 / unit))
        }
        other => {
            if other.null_count() < other.len() {
                return Err(MlError::Execution(format!(
                    "numeric aggregate over {}",
                    other.logical_type()
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::model::{col_eq, key_columns, rows_eq};
    use monetlite_types::{ColumnBuffer, Decimal};

    #[test]
    fn grouping_basic() {
        let keys = Bat::Int(vec![1, 2, 1, 3, 2]);
        let mut t = GroupTable::new(&[LogicalType::Int]);
        let gids = t.intern_block(&[&keys]).unwrap();
        assert_eq!(gids, [0, 1, 0, 2, 1], "dense ids in first-seen order");
        assert_eq!(t.keys()[0].to_buffer(None), ColumnBuffer::Int(vec![1, 2, 3]));
    }

    #[test]
    fn grouping_multi_key_with_nulls() {
        let a = Bat::Int(vec![1, 1, NULL_I32, NULL_I32]);
        let b = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("x".into()),
            Some("x".into()),
            None,
            None,
        ]));
        let mut t = GroupTable::new(&[LogicalType::Int, LogicalType::Varchar]);
        t.intern_block(&[&a, &b]).unwrap();
        assert_eq!(t.n_groups(), 2, "NULL keys group together");
    }

    #[test]
    fn a_zero_group_shows_positive_zero() {
        let mut t = GroupTable::new(&[LogicalType::Double]);
        let gids = t.intern_block(&[&Bat::Double(vec![-0.0, 1.0, 0.0, -1.0])]).unwrap();
        assert_eq!(gids, [0, 1, 0, 2]);
        let Bat::Double(k) = &t.keys()[0] else { panic!("DOUBLE keys") };
        assert_eq!(
            k.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [0.0, 1.0, -1.0].map(f64::to_bits)
        );
    }

    fn group_keys(seeds: &[u8]) -> (Bat, Bat, Bat) {
        let int = Bat::Int(
            seeds.iter().map(|&s| if s % 9 == 0 { NULL_I32 } else { (s % 5) as i32 }).collect(),
        );
        let text = Bat::from_buffer(&ColumnBuffer::Varchar(
            seeds.iter().map(|&s| (s % 7 != 0).then(|| format!("k{}", s % 3))).collect(),
        ));
        // -0.0 and 0.0 are one group.
        let dbl = Bat::Double(seeds.iter().map(|&s| if s % 2 == 0 { 0.0 } else { -0.0 }).collect());
        (int, text, dbl)
    }

    #[test]
    fn group_table_reports_its_allocation() {
        let seeds: Vec<u8> = (0..=255).cycle().take(5000).collect();
        let (int, text, dbl) = group_keys(&seeds);
        let mut t = GroupTable::new(&[LogicalType::Int, LogicalType::Varchar, LogicalType::Double]);
        assert_eq!(t.table.size_bytes(), 0, "an empty hash table allocates nothing");
        let n = 1000;
        let slice = |b: &Bat, lo: usize| b.take(&(lo as u32..(lo + n) as u32).collect::<Vec<_>>());
        for lo in (0..seeds.len()).step_by(n) {
            let (a, b, c) = (slice(&int, lo), slice(&text, lo), slice(&dbl, lo));
            t.intern_block(&[&a, &b, &c]).unwrap();
            let allocated = t.table.size_bytes()
                + t.keys
                    .iter()
                    .map(|k| match k {
                        Bat::Int(v) => v.capacity() * 4,
                        Bat::Double(v) => v.capacity() * 8,
                        Bat::Varchar { offsets, heap } => offsets.capacity() * 4 + heap.mem_bytes(),
                        other => panic!("unexpected key column {other:?}"),
                    })
                    .sum::<usize>();
            assert!(t.mem_bytes() >= allocated, "{} < {allocated}", t.mem_bytes());
        }
        let mut whole =
            GroupTable::new(&[LogicalType::Int, LogicalType::Varchar, LogicalType::Double]);
        whole.intern_block(&[&int, &text, &dbl]).unwrap();
        assert_eq!(t.n_groups(), whole.n_groups());
    }

    #[test]
    fn group_key_type_mismatch_is_an_error_not_a_panic() {
        let mut t = GroupTable::new(&[LogicalType::Date]);
        let err = t.intern_block(&[&Bat::Double(vec![1.5])]).unwrap_err();
        assert!(matches!(err, MlError::TypeMismatch(_)), "{err:?}");
        // Decimal keys of another scale rescale, as a row-wise push would.
        let mut t = GroupTable::new(&[LogicalType::Decimal { width: 15, scale: 2 }]);
        t.intern_block(&[&Bat::Decimal { data: vec![7, NULL_I64], scale: 0 }]).unwrap();
        assert_eq!(t.keys()[0].get(0), Value::Decimal(Decimal::new(700, 2)));
        assert_eq!(t.keys()[0].get(1), Value::Null);
    }

    proptest::proptest! {
        #[test]
        fn prop_partial_group_tables_merge_to_a_single_pass(
            seeds in proptest::collection::vec(0u8..255, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..4),
        ) {
            let (int, text, dbl) = group_keys(&seeds);
            let arg = Bat::Int(seeds.iter().map(|&s| s as i32).collect());
            let types = [LogicalType::Int, LogicalType::Varchar, LogicalType::Double];
            // Single pass.
            let mut whole = GroupTable::new(&types);
            let gids = whole.intern_block(&[&int, &text, &dbl]).unwrap();
            let n = whole.n_groups();
            let mut sum = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, n).unwrap();
            sum.update(Some(&arg), &gids).unwrap();
            // Contiguous partials, each interned on its own, merged in order.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(seeds.len())).collect();
            bounds.push(0);
            bounds.push(seeds.len());
            bounds.sort_unstable();
            let mut acc: Option<(GroupTable, AggState)> = None;
            for w in bounds.windows(2) {
                let sel: Vec<u32> = (w[0] as u32..w[1] as u32).collect();
                let (a, b, c, x) = (int.take(&sel), text.take(&sel), dbl.take(&sel), arg.take(&sel));
                let mut t = GroupTable::new(&types);
                let gids = t.intern_block(&[&a, &b, &c]).unwrap();
                let mut st = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, t.n_groups()).unwrap();
                st.update(Some(&x), &gids).unwrap();
                acc = Some(match acc {
                    None => (t, st),
                    Some((mut at, mut ast)) => {
                        let map = at.merge(&t).unwrap();
                        ast.ensure_groups(at.n_groups());
                        ast.merge_mapped(st, &map).unwrap();
                        (at, ast)
                    }
                });
            }
            let (merged, msum) = acc.unwrap();
            // Same groups in the same first-seen order, same sums.
            proptest::prop_assert_eq!(merged.n_groups(), n);
            for (k, w) in merged.keys().iter().zip(whole.keys()) {
                proptest::prop_assert_eq!(k.to_buffer(None), w.to_buffer(None));
            }
            let (a, b) = (msum.finish(LogicalType::Bigint).unwrap(), sum.finish(LogicalType::Bigint).unwrap());
            proptest::prop_assert_eq!(a.to_buffer(None), b.to_buffer(None));
        }
    }

    /// [`GroupTable::intern_hashed`] before typed keys.
    fn intern_model(t: &mut GroupTable, block: &[&Bat], hashes: &[u64]) -> Result<Vec<u32>> {
        let base = t.n_groups();
        let keys = &t.keys;
        let mut new_rows: Vec<u32> = Vec::new();
        let mut gids = Vec::new();
        for (row, &h) in hashes.iter().enumerate() {
            let (g, new) = t.table.intern(h, |g| match (g as usize).checked_sub(base) {
                None => keys.iter().zip(block).all(|(k, b)| col_eq(b, row, k, g as usize, true)),
                Some(n) => rows_eq(block, row, block, new_rows[n] as usize, true),
            });
            if new {
                new_rows.push(row as u32);
            }
            gids.push(g);
        }
        for (k, b) in t.keys.iter_mut().zip(block) {
            k.append_rows(b, &new_rows)?;
            // A zero group shows as 0.0.
            if let Bat::Double(v) = k {
                v.iter_mut().filter(|x| **x == 0.0).for_each(|x| *x = 0.0);
            }
        }
        Ok(gids)
    }

    /// The stored keys, bit for bit (a NaN never equals itself).
    fn images(t: &GroupTable) -> Vec<String> {
        let image = |k: &Bat| match k {
            Bat::Double(v) => format!("{:?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
            other => format!("{:?}", other.to_buffer(None)),
        };
        t.keys().iter().map(image).collect()
    }

    proptest::proptest! {
        #[test]
        fn prop_typed_grouping_equals_the_row_model(
            seeds in proptest::collection::vec(0u8..255, 0..80),
            picks in proptest::collection::vec(0usize..9, 2..4),
            cut in 0usize..80,
        ) {
            let cols = key_columns(&seeds);
            let n = seeds.len();
            let cut = cut.min(n);
            let range = |lo: usize, hi: usize| (lo as u32..hi as u32).collect::<Vec<_>>();
            // Every type alone, and a composite (strings of two heaps and
            // mixed types included).
            let mut sets: Vec<Vec<&Bat>> = cols.iter().map(|c| vec![c]).collect();
            sets.push(picks.iter().map(|&p| &cols[p]).collect());
            sets.push(vec![&cols[1], &cols[2]]);
            sets.push(vec![&cols[3], &cols[4], &cols[5]]);
            for keys in &sets {
                // Two blocks interned into one table, then a table of the
                // second block merged into a table of the first.
                let types: Vec<LogicalType> = keys.iter().map(|k| k.logical_type()).collect();
                let head: Vec<Bat> = keys.iter().map(|k| k.take(&range(0, cut))).collect();
                let tail: Vec<Bat> = keys.iter().map(|k| k.take(&range(cut, n))).collect();
                let (mut got, mut want) = (GroupTable::new(&types), GroupTable::new(&types));
                let mut parts = Vec::new();
                for block in [&head, &tail] {
                    let refs: Vec<&Bat> = block.iter().collect();
                    let hashes = hash_rows(&refs, None);
                    proptest::prop_assert_eq!(
                        got.intern_block(&refs).unwrap(),
                        intern_model(&mut want, &refs, &hashes).unwrap()
                    );
                    let mut part = GroupTable::new(&types);
                    part.intern_block(&refs).unwrap();
                    parts.push(part);
                }
                proptest::prop_assert_eq!(images(&got), images(&want));
                let (mut acc, mut acc_model) = (GroupTable::new(&types), GroupTable::new(&types));
                for part in &parts {
                    let refs: Vec<&Bat> = part.keys().iter().collect();
                    proptest::prop_assert_eq!(
                        acc.merge(part).unwrap(),
                        intern_model(&mut acc_model, &refs, part.table.hashes()).unwrap()
                    );
                }
                proptest::prop_assert_eq!(images(&acc), images(&acc_model));
            }
            // Stored keys of another type than the block: a rescaled
            // DECIMAL, and DATE against INT both ways (an error, or not,
            // exactly when the model errs).
            for (stored, block) in [(4usize, 5usize), (2, 1), (1, 2), (6, 3)] {
                let ty = [cols[stored].logical_type()];
                let (mut got, mut want) = (GroupTable::new(&ty), GroupTable::new(&ty));
                let refs = [&cols[block]];
                let hashes = hash_rows(&refs, None);
                let (a, b) = (got.intern_block(&refs), intern_model(&mut want, &refs, &hashes));
                proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                proptest::prop_assert_eq!(images(&got), images(&want));
            }
        }
    }

    /// AVG and COUNT(x) read every column type through one typed loop;
    /// the model reads each row as a [`Value`].
    #[test]
    fn typed_avg_and_count_match_a_per_row_reading() {
        let seeds: Vec<u8> = (0..=255).collect();
        let gids: Vec<u32> = seeds.iter().map(|&s| (s % 3) as u32).collect();
        for b in &key_columns(&seeds) {
            let mut count =
                AggState::new(PAggFunc::Count, Some(b.logical_type()), false, 3).unwrap();
            count.update(Some(b), &gids).unwrap();
            let mut want_count = [0i64; 3];
            let (mut sums, mut counts) = ([0.0f64; 3], [0i64; 3]);
            for (row, &g) in gids.iter().enumerate() {
                let x = match b.get(row) {
                    Value::Null => continue,
                    Value::Int(v) => v as f64,
                    Value::Date(d) => d.0 as f64,
                    Value::Bigint(v) => v as f64,
                    Value::Double(v) => v,
                    Value::Decimal(d) => {
                        d.raw as f64 / monetlite_types::decimal::POW10[d.scale as usize] as f64
                    }
                    Value::Bool(_) | Value::Str(_) => f64::NAN,
                };
                want_count[g as usize] += 1;
                sums[g as usize] += x;
                counts[g as usize] += 1;
            }
            assert_eq!(count.finish(LogicalType::Bigint).unwrap().to_buffer(None), {
                ColumnBuffer::Bigint(want_count.to_vec())
            });
            let mut avg = AggState::new(PAggFunc::Avg, Some(b.logical_type()), false, 3).unwrap();
            match b {
                Bat::Bool(_) | Bat::Varchar { .. } => {
                    assert!(avg.update(Some(b), &gids).is_err(), "AVG over {}", b.logical_type());
                    let nulls = Bat::new(b.logical_type());
                    assert!(avg.update(Some(&nulls), &[]).is_ok(), "no value, no error");
                }
                _ => {
                    avg.update(Some(b), &gids).unwrap();
                    let got = avg.finish(LogicalType::Double).unwrap();
                    let want: Vec<u64> =
                        sums.iter().zip(counts).map(|(s, c)| (s / c as f64).to_bits()).collect();
                    let Bat::Double(got) = got else { panic!("AVG is DOUBLE") };
                    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "AVG over {}", b.logical_type());
                }
            }
        }
    }

    #[test]
    fn count_and_count_star() {
        let gids = vec![0, 0, 1];
        let mut star = AggState::new(PAggFunc::Count, None, false, 2).unwrap();
        star.update(None, &gids).unwrap();
        assert_eq!(star.finish(LogicalType::Bigint).unwrap().get(0), Value::Bigint(2));
        let arg = Bat::Int(vec![1, NULL_I32, 5]);
        let mut cnt = AggState::new(PAggFunc::Count, Some(LogicalType::Int), false, 2).unwrap();
        cnt.update(Some(&arg), &gids).unwrap();
        let out = cnt.finish(LogicalType::Bigint).unwrap();
        assert_eq!(out.get(0), Value::Bigint(1), "NULL not counted");
        assert_eq!(out.get(1), Value::Bigint(1));
    }

    #[test]
    fn sum_decimal_keeps_scale() {
        let arg = Bat::Decimal { data: vec![150, 250, NULL_I64], scale: 2 };
        let gids = vec![0, 0, 0];
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 15, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &gids).unwrap();
        let out = s.finish(LogicalType::Decimal { width: 18, scale: 2 }).unwrap();
        assert_eq!(out.get(0), Value::Decimal(Decimal::new(400, 2)));
    }

    #[test]
    fn sum_of_all_nulls_is_null() {
        let arg = Bat::Int(vec![NULL_I32]);
        let mut s = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 1).unwrap();
        s.update(Some(&arg), &[0]).unwrap();
        assert_eq!(s.finish(LogicalType::Bigint).unwrap().get(0), Value::Null);
    }

    #[test]
    fn avg_and_median() {
        let arg = Bat::Int(vec![1, 2, 3, 10]);
        let gids = vec![0, 0, 0, 1];
        let mut a = AggState::new(PAggFunc::Avg, Some(LogicalType::Int), false, 2).unwrap();
        a.update(Some(&arg), &gids).unwrap();
        let out = a.finish(LogicalType::Double).unwrap();
        assert_eq!(out.get(0), Value::Double(2.0));
        assert_eq!(out.get(1), Value::Double(10.0));
        let mut m = AggState::new(PAggFunc::Median, Some(LogicalType::Int), false, 2).unwrap();
        m.update(Some(&arg), &gids).unwrap();
        let out = m.finish(LogicalType::Double).unwrap();
        assert_eq!(out.get(0), Value::Double(2.0));
    }

    #[test]
    fn median_even_count_averages() {
        let arg = Bat::Int(vec![1, 2, 3, 4]);
        let mut m = AggState::new(PAggFunc::Median, Some(LogicalType::Int), false, 1).unwrap();
        m.update(Some(&arg), &[0, 0, 0, 0]).unwrap();
        assert_eq!(m.finish(LogicalType::Double).unwrap().get(0), Value::Double(2.5));
    }

    #[test]
    fn min_max_strings() {
        let arg = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("pear".into()),
            Some("apple".into()),
            None,
        ]));
        let gids = vec![0, 0, 0];
        let mut mn = AggState::new(PAggFunc::Min, Some(LogicalType::Varchar), false, 1).unwrap();
        mn.update(Some(&arg), &gids).unwrap();
        assert_eq!(mn.finish(LogicalType::Varchar).unwrap().get(0), Value::Str("apple".into()));
        let mut mx = AggState::new(PAggFunc::Max, Some(LogicalType::Varchar), false, 1).unwrap();
        mx.update(Some(&arg), &gids).unwrap();
        assert_eq!(mx.finish(LogicalType::Varchar).unwrap().get(0), Value::Str("pear".into()));
    }

    #[test]
    fn partial_merge_equals_single_pass() {
        let arg = Bat::Int(vec![5, 7, 11, 13]);
        let gids = vec![0, 1, 0, 1];
        // Single pass.
        let mut whole = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        whole.update(Some(&arg), &gids).unwrap();
        // Two chunks merged.
        let c1 = Bat::Int(vec![5, 7]);
        let c2 = Bat::Int(vec![11, 13]);
        let mut p1 = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        p1.update(Some(&c1), &[0, 1]).unwrap();
        let mut p2 = AggState::new(PAggFunc::Sum, Some(LogicalType::Int), false, 2).unwrap();
        p2.update(Some(&c2), &[0, 1]).unwrap();
        p1.merge(p2).unwrap();
        let a = whole.finish(LogicalType::Bigint).unwrap();
        let b = p1.finish(LogicalType::Bigint).unwrap();
        assert_eq!(a.to_buffer(None), b.to_buffer(None));
    }

    // -----------------------------------------------------------------
    // Overflow audit: integer and decimal SUM must accumulate in i128 and
    // report "SUM overflow" at finish instead of silently wrapping —
    // exercised at i64::MAX-adjacent magnitudes, including the streaming
    // engine's partial-merge path.
    // -----------------------------------------------------------------

    #[test]
    fn bigint_sum_overflow_is_an_error_not_a_wrap() {
        let arg = Bat::Bigint(vec![i64::MAX, 1]);
        let mut s = AggState::new(PAggFunc::Sum, Some(LogicalType::Bigint), false, 1).unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        match s.finish(LogicalType::Bigint) {
            Err(MlError::Execution(m)) => assert!(m.contains("SUM overflow"), "{m}"),
            other => panic!("expected SUM overflow, got {other:?}"),
        }
    }

    #[test]
    fn decimal_sum_near_i64_max_is_exact() {
        // i64::MAX - 10 plus 10 lands exactly on i64::MAX: representable,
        // must not error and must not lose precision to a float path.
        let arg = Bat::Decimal { data: vec![i64::MAX - 10, 10], scale: 2 };
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        let out = s.finish(LogicalType::Decimal { width: 18, scale: 2 }).unwrap();
        assert_eq!(out.get(0), Value::Decimal(Decimal::new(i64::MAX, 2)));
    }

    #[test]
    fn decimal_sum_overflow_is_an_error_not_a_wrap() {
        let arg = Bat::Decimal { data: vec![i64::MAX, 1], scale: 2 };
        let mut s = AggState::new(
            PAggFunc::Sum,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        s.update(Some(&arg), &[0, 0]).unwrap();
        match s.finish(LogicalType::Decimal { width: 18, scale: 2 }) {
            Err(MlError::Execution(m)) => assert!(m.contains("SUM overflow"), "{m}"),
            other => panic!("expected SUM overflow, got {other:?}"),
        }
    }

    #[test]
    fn decimal_sum_overflow_detected_across_partial_merge() {
        // Each partial is in range; only their merged total overflows —
        // the i128 widening must carry through merge() and merge_mapped().
        let dec_ty = LogicalType::Decimal { width: 18, scale: 0 };
        let mk = |raw: i64| -> AggState {
            let mut s = AggState::new(PAggFunc::Sum, Some(dec_ty), false, 1).unwrap();
            s.update(Some(&Bat::Decimal { data: vec![raw], scale: 0 }), &[0]).unwrap();
            s
        };
        let mut merged = mk(i64::MAX - 1);
        merged.merge(mk(i64::MAX - 1)).unwrap();
        assert!(merged.finish(dec_ty).is_err(), "merged overflow must surface");
        let mut mapped = mk(i64::MAX - 1);
        mapped.merge_mapped(mk(i64::MAX - 1), &[0]).unwrap();
        assert!(mapped.finish(dec_ty).is_err(), "mapped-merge overflow must surface");
    }

    #[test]
    fn decimal_sum_negative_overflow_and_null_sentinel_guard() {
        // The decimal NULL sentinel is i64::MIN: a sum landing exactly on
        // it must error rather than materialise as NULL.
        let dec_ty = LogicalType::Decimal { width: 18, scale: 0 };
        let mut s = AggState::new(PAggFunc::Sum, Some(dec_ty), false, 1).unwrap();
        s.update(Some(&Bat::Decimal { data: vec![i64::MIN + 1, -1], scale: 0 }), &[0, 0]).unwrap();
        assert!(s.finish(dec_ty).is_err(), "sum == NULL sentinel must not round-trip as NULL");
    }

    #[test]
    fn decimal_avg_near_i64_max_stays_finite() {
        // AVG finalises to DOUBLE; near-sentinel magnitudes must neither
        // wrap nor produce NULL/NaN for non-empty groups.
        let arg = Bat::Decimal { data: vec![i64::MAX - 1, i64::MAX - 1], scale: 2 };
        let mut a = AggState::new(
            PAggFunc::Avg,
            Some(LogicalType::Decimal { width: 18, scale: 2 }),
            false,
            1,
        )
        .unwrap();
        a.update(Some(&arg), &[0, 0]).unwrap();
        match a.finish(LogicalType::Double).unwrap().get(0) {
            Value::Double(v) => {
                let expect = (i64::MAX - 1) as f64 / 100.0;
                assert!(v.is_finite() && (v - expect).abs() <= 1e-3 * expect, "{v}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_distinct() {
        let arg = Bat::Int(vec![1, 1, 2, NULL_I32]);
        let mut s = AggState::new(PAggFunc::Count, Some(LogicalType::Int), true, 1).unwrap();
        s.update(Some(&arg), &[0, 0, 0, 0]).unwrap();
        assert_eq!(s.finish(LogicalType::Bigint).unwrap().get(0), Value::Bigint(2));
    }

    #[test]
    fn distinct_sum_unsupported() {
        assert!(AggState::new(PAggFunc::Sum, Some(LogicalType::Int), true, 1).is_err());
    }
}
