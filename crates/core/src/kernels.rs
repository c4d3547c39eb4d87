//! Column-at-a-time execution kernels.
//!
//! Every kernel processes a full column before returning (paper §3.1:
//! "MAL instructions process the data in a column-at-a-time model. Each
//! MAL operator processes the full column before moving on to the next
//! operator."). A predicate kernel is generic over where its answers go
//! ([`Emit`]): a value context (a CASE condition, a projected comparison,
//! a join residual, a DML `WHERE`) takes a
//! BOOLEAN column ([`Bools`]); a scan or pipeline filter
//! (`exec::refine`) takes the candidate list of the positions answered
//! TRUE ([`Cands`]) — `Vec<u32>` row ids, the monetlite equivalent of
//! MonetDB's candidate lists, selected directly as MAL's
//! `algebra.select` does. [`bool_to_sel`] converts any other predicate's
//! BOOLEAN column.
//!
//! Kernels are flat loops over typed arrays, and operands are read where
//! they are: [`eval`] hands every kernel its column operands as the input
//! columns themselves ([`eval_shared`] — an `Arc`, not a copy), a cast to
//! an operand's own physical type is that operand, and a literal operand
//! of a comparison or of arithmetic is a scalar in a column ⊕ constant
//! loop ([`cmp_const`], [`arith_const`]) — no constant column is built.
//!
//! Kernels take the positions they evaluate at as `sel: Option<&[u32]>`,
//! the convention of `hash::hash_rows` and `Bat::to_buffer`: `None` is
//! every row in order, `Some(sel)` only the selected physical rows, with
//! a result *compacted* to the selection (row `i` is position `sel[i]`).
//! [`eval`] reads a bare column operand in place at the positions; a
//! computed operand (arithmetic, a function) is evaluated compacted and
//! then read densely — either way, work is proportional to the selection,
//! not the vector. Each predicate kernel has one loop per type that
//! matches on `sel` and on its comparison operator once per call, never
//! per row. Scans evaluate their residual filters this way over a
//! morsel's positions of the base columns.

use crate::expr::{ArithOp, BExpr, CmpOp, ScalarFunc};
use monetlite_storage::heap::{StringHeap, NULL_OFFSET};
use monetlite_storage::Bat;
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
use monetlite_types::{Date, LogicalType, MlError, Result, Value};
use std::sync::Arc;

/// Evaluate a bound expression over `cols` (each `rows` long) at the
/// positions `sel` (every row when `None`), producing a materialised
/// result column of `sel.len()` (else `rows`) rows. Operands are read in
/// place: a bare column operand is the input column itself, at the
/// positions, and a literal operand of a comparison or of arithmetic is
/// read as a scalar.
pub fn eval(e: &BExpr, cols: &[Arc<Bat>], rows: usize, sel: Option<&[u32]>) -> Result<Bat> {
    let n = sel.map_or(rows, <[u32]>::len);
    // A computed operand, compacted to the positions.
    let operand = |e: &BExpr| eval_shared(e, cols, rows, sel);
    match e {
        BExpr::ColRef { idx, .. } => Ok(match sel {
            None => (*cols[*idx]).clone(),
            Some(sel) => cols[*idx].take(sel),
        }),
        BExpr::Lit(v) => materialize_const(v, e.ty(), n),
        // The plan cache substitutes fresh literals before execution; a
        // Param reaching a kernel is a caching-layer bug, not a query error.
        BExpr::Param { idx, .. } => {
            Err(MlError::Execution(format!("unsubstituted plan-cache parameter ?{idx}")))
        }
        // A NULL given a type by a cast: `CAST(NULL AS t)`, or a NULL
        // that took its type from where it stands.
        BExpr::Cast { input, ty } if **input == BExpr::Lit(Value::Null) => {
            materialize_const(&Value::Null, *ty, n)
        }
        BExpr::Cast { input, ty } => {
            let b = operand(input)?;
            if b.logical_type().same_repr(*ty) {
                Ok(Arc::unwrap_or_clone(b))
            } else {
                cast(&b, *ty)
            }
        }
        BExpr::Arith { op, left, right, ty } => arith_expr(*op, left, right, *ty, &operand),
        BExpr::Cmp { op, left, right } => {
            Ok(cmp_node::<Bools>(*op, left, right, cols, rows, sel)?.0)
        }
        BExpr::And(a, b) => bool_and(&*operand(a)?, &*operand(b)?),
        BExpr::Or(a, b) => bool_or(&*operand(a)?, &*operand(b)?),
        BExpr::Not(a) => bool_not(&*operand(a)?),
        BExpr::IsNull { input, negated } => {
            let (b, bsel) = operand_at(input, cols, rows, sel)?;
            let test = |i: usize| (b.is_null_at(i) != *negated) as i8;
            Ok(Bat::Bool(match bsel {
                None => (0..b.len()).map(test).collect(),
                Some(sel) => sel.iter().map(|&i| test(i as usize)).collect(),
            }))
        }
        BExpr::Like { input, pattern, negated } => {
            Ok(like_node::<Bools>(input, pattern, *negated, cols, rows, sel)?.0)
        }
        BExpr::Case { branches, else_expr, ty } => {
            case_kernel(branches, else_expr.as_deref(), *ty, n, &|e| eval(e, cols, rows, sel))
        }
        BExpr::Func { func: ScalarFunc::Substring, args, .. } if args.len() == 3 => {
            let (text, at) = operand_at(&args[0], cols, rows, sel)?;
            let bound = |e: &BExpr| match e {
                BExpr::Lit(Value::Int(v)) => Ok(IntArg::Const(*v)),
                BExpr::Lit(Value::Null) => Ok(IntArg::Const(NULL_I32)),
                other => operand(other).map(IntArg::Col),
            };
            substring(&text, at, n, &bound(&args[1])?, &bound(&args[2])?)
        }
        BExpr::Func { func, args, ty } => {
            let bats: Vec<Arc<Bat>> = args.iter().map(operand).collect::<Result<_>>()?;
            func_kernel(*func, &bats, *ty)
        }
        BExpr::Neg { input, .. } => neg(&*operand(input)?),
    }
}

/// An operand with the positions to read it at: a bare column in place
/// at `sel`, anything else evaluated compacted to `sel` and read densely
/// (positions `None`).
pub(crate) fn operand_at<'s>(
    e: &BExpr,
    cols: &[Arc<Bat>],
    rows: usize,
    sel: Option<&'s [u32]>,
) -> Result<(Arc<Bat>, Option<&'s [u32]>)> {
    match e {
        BExpr::ColRef { idx, .. } => Ok((cols[*idx].clone(), sel)),
        other => Ok((eval_shared(other, cols, rows, sel)?, None)),
    }
}

/// A comparison's answers at the positions `sel`, through `E`. Column
/// versus constant never materialises the constant side, and bare
/// columns are read in place. The flag is `true` when the answers came
/// from operands compacted to `sel`: their positions are then indices
/// into `sel`, not rows of `cols`.
pub(crate) fn cmp_node<E: Emit>(
    op: CmpOp,
    left: &BExpr,
    right: &BExpr,
    cols: &[Arc<Bat>],
    rows: usize,
    sel: Option<&[u32]>,
) -> Result<(E::Out, bool)> {
    if let BExpr::Lit(v) = right {
        let (l, lsel) = operand_at(left, cols, rows, sel)?;
        return Ok((cmp_const::<E>(op, &l, v, lsel)?, lsel.is_none()));
    }
    if let BExpr::Lit(v) = left {
        let (r, rsel) = operand_at(right, cols, rows, sel)?;
        return Ok((cmp_const::<E>(op.flip(), &r, v, rsel)?, rsel.is_none()));
    }
    if let (BExpr::ColRef { idx: li, .. }, BExpr::ColRef { idx: ri, .. }) = (left, right) {
        return Ok((cmp::<E>(op, &cols[*li], &cols[*ri], sel)?, false));
    }
    let (l, r) = (eval_shared(left, cols, rows, sel)?, eval_shared(right, cols, rows, sel)?);
    Ok((cmp::<E>(op, &l, &r, None)?, true))
}

/// A LIKE's answers at the positions `sel`, through `E` (the flag as for
/// [`cmp_node`]).
pub(crate) fn like_node<E: Emit>(
    input: &BExpr,
    pattern: &str,
    negated: bool,
    cols: &[Arc<Bat>],
    rows: usize,
    sel: Option<&[u32]>,
) -> Result<(E::Out, bool)> {
    let (b, bsel) = operand_at(input, cols, rows, sel)?;
    Ok((like_kernel::<E>(&b, pattern, negated, bsel)?, bsel.is_none()))
}

/// Like [`eval`], but returns a shared column: without positions a bare
/// column reference is an `Arc` clone of the input (the §3.3 "shared
/// pointer" discipline), and so is a cast to the operand's own physical
/// type — never a data copy. Computed expressions, and columns compacted
/// to positions, allocate as usual. Operands of every kernel, and the
/// streaming pipeline's per-vector projections, lean on this — a
/// pass-through projection costs O(1) per vector instead of O(vector).
pub fn eval_shared(
    e: &BExpr,
    cols: &[Arc<Bat>],
    rows: usize,
    sel: Option<&[u32]>,
) -> Result<Arc<Bat>> {
    match e {
        BExpr::ColRef { idx, .. } => Ok(match sel {
            None => cols[*idx].clone(),
            Some(sel) => Arc::new(cols[*idx].take(sel)),
        }),
        BExpr::Cast { input, ty } if **input != BExpr::Lit(Value::Null) => {
            let b = eval_shared(input, cols, rows, sel)?;
            if b.logical_type().same_repr(*ty) {
                Ok(b)
            } else {
                Ok(Arc::new(cast(&b, *ty)?))
            }
        }
        other => Ok(Arc::new(eval(other, cols, rows, sel)?)),
    }
}

/// Materialise a constant column (used when no fast path applies).
pub fn materialize_const(v: &Value, ty: LogicalType, rows: usize) -> Result<Bat> {
    let mut b = Bat::with_capacity(ty, rows);
    for _ in 0..rows {
        b.push(v)?;
    }
    Ok(b)
}

// ---------------------------------------------------------------------------
// Casts
// ---------------------------------------------------------------------------

/// Cast a column to a target logical type.
pub fn cast(b: &Bat, ty: LogicalType) -> Result<Bat> {
    use LogicalType as T;
    if b.logical_type().same_repr(ty) {
        return Ok(b.clone());
    }
    Ok(match (b, ty) {
        (Bat::Int(v), T::Bigint) => Bat::Bigint(
            v.iter().map(|&x| if x == NULL_I32 { NULL_I64 } else { x as i64 }).collect(),
        ),
        (Bat::Int(v), T::Double) => Bat::Double(
            v.iter().map(|&x| if x == NULL_I32 { f64::NAN } else { x as f64 }).collect(),
        ),
        (Bat::Bigint(v), T::Double) => Bat::Double(
            v.iter().map(|&x| if x == NULL_I64 { f64::NAN } else { x as f64 }).collect(),
        ),
        (Bat::Int(v), T::Decimal { scale, .. }) => {
            let f = monetlite_types::decimal::POW10[scale as usize];
            let data = v
                .iter()
                .map(|&x| {
                    if x == NULL_I32 {
                        Ok(NULL_I64)
                    } else {
                        (x as i64)
                            .checked_mul(f)
                            .ok_or_else(|| MlError::Execution("decimal cast overflow".into()))
                    }
                })
                .collect::<Result<Vec<i64>>>()?;
            Bat::Decimal { data, scale }
        }
        (Bat::Bigint(v), T::Decimal { scale, .. }) => {
            let f = monetlite_types::decimal::POW10[scale as usize];
            let data = v
                .iter()
                .map(|&x| {
                    if x == NULL_I64 {
                        Ok(NULL_I64)
                    } else {
                        x.checked_mul(f)
                            .ok_or_else(|| MlError::Execution("decimal cast overflow".into()))
                    }
                })
                .collect::<Result<Vec<i64>>>()?;
            Bat::Decimal { data, scale }
        }
        (Bat::Decimal { data, scale }, T::Double) => {
            let f = monetlite_types::decimal::POW10[*scale as usize] as f64;
            Bat::Double(
                data.iter().map(|&x| if x == NULL_I64 { f64::NAN } else { x as f64 / f }).collect(),
            )
        }
        (Bat::Decimal { data, scale }, T::Decimal { scale: s2, .. }) => {
            let (s1, s2v) = (*scale, s2);
            if s2v >= s1 {
                let f = monetlite_types::decimal::POW10[(s2v - s1) as usize];
                let data = data
                    .iter()
                    .map(|&x| {
                        if x == NULL_I64 {
                            Ok(NULL_I64)
                        } else {
                            x.checked_mul(f).ok_or_else(|| {
                                MlError::Execution("decimal rescale overflow".into())
                            })
                        }
                    })
                    .collect::<Result<Vec<i64>>>()?;
                Bat::Decimal { data, scale: s2v }
            } else {
                let f = monetlite_types::decimal::POW10[(s1 - s2v) as usize];
                Bat::Decimal {
                    data: data
                        .iter()
                        .map(|&x| if x == NULL_I64 { NULL_I64 } else { x / f })
                        .collect(),
                    scale: s2v,
                }
            }
        }
        (Bat::Double(v), T::Int) => {
            Bat::Int(v.iter().map(|&x| if x.is_nan() { NULL_I32 } else { x as i32 }).collect())
        }
        (Bat::Double(v), T::Bigint) => {
            Bat::Bigint(v.iter().map(|&x| if x.is_nan() { NULL_I64 } else { x as i64 }).collect())
        }
        (Bat::Bigint(v), T::Int) => {
            Bat::Int(v.iter().map(|&x| if x == NULL_I64 { NULL_I32 } else { x as i32 }).collect())
        }
        (Bat::Varchar { .. }, T::Date) => {
            let mut out = Vec::with_capacity(b.len());
            for i in 0..b.len() {
                // xlint: allow(str, the date parser reads text)
                match b.str_at(i) {
                    None => out.push(NULL_I32),
                    Some(s) => out.push(Date::parse(s)?.0),
                }
            }
            Bat::Date(out)
        }
        (from, to) => {
            return Err(MlError::TypeMismatch(format!(
                "unsupported cast {} -> {}",
                from.logical_type(),
                to
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Predicate output
// ---------------------------------------------------------------------------

/// Where a predicate kernel writes its answers. Every predicate kernel
/// is generic over this: a value context ([`eval`]) takes a BOOLEAN
/// column ([`Bools`]), a filter (`exec::refine`) the candidate list of
/// the positions whose answer is TRUE ([`Cands`]). Either way the kernel
/// has one loop per type; the output is a type parameter, not a branch.
pub trait Emit {
    /// The kernel's result.
    type Out;
    /// Consume `(position, answer)` pairs in order, an answer being 1, 0
    /// or [`NULL_I8`]. This is the one loop of every predicate kernel.
    fn emit(answers: impl ExactSizeIterator<Item = (u32, i8)>) -> Self::Out;
}

/// Answers as a BOOLEAN column, one value per position.
pub struct Bools;

impl Emit for Bools {
    type Out = Bat;

    #[inline]
    fn emit(answers: impl ExactSizeIterator<Item = (u32, i8)>) -> Bat {
        Bat::Bool(answers.map(|(_, a)| a).collect())
    }
}

/// Answers as a candidate list: the positions answered TRUE (NULL counts
/// as not matching, per SQL semantics), written branch-free — every
/// position is stored and the length advances only on a hit.
pub struct Cands;

impl Emit for Cands {
    type Out = Vec<u32>;

    #[inline]
    fn emit(answers: impl ExactSizeIterator<Item = (u32, i8)>) -> Vec<u32> {
        let mut out = vec![0u32; answers.len()];
        let mut n = 0;
        for (pos, a) in answers {
            out[n] = pos;
            n += (a == 1) as usize;
        }
        out.truncate(n);
        out
    }
}

/// `f` of each value of `vals` at the positions `sel`, or of every value
/// in order when there are none, into `E`. Kept out of line: each
/// instance is a small function the optimizer handles alone; inlined into
/// a kernel's seven typed arms, the DECIMAL-constant loop measured 35 %
/// slower.
#[inline(never)]
fn answers_at<E: Emit, T: Copy>(vals: &[T], sel: Option<&[u32]>, f: impl Fn(T) -> i8) -> E::Out {
    match sel {
        None => E::emit(vals.iter().enumerate().map(|(i, &x)| (i as u32, f(x)))),
        Some(sel) => E::emit(sel.iter().map(|&i| (i, f(vals[i as usize])))),
    }
}

/// [`answers_at`] over two equally long columns, pairwise (out of line
/// for the same reason).
#[inline(never)]
fn answers_at2<E: Emit, T: Copy>(
    a: &[T],
    b: &[T],
    sel: Option<&[u32]>,
    f: impl Fn(T, T) -> i8,
) -> E::Out {
    match sel {
        None => E::emit(a.iter().zip(b).enumerate().map(|(i, (&x, &y))| (i as u32, f(x, y)))),
        Some(sel) => E::emit(sel.iter().map(|&i| (i, f(a[i as usize], b[i as usize])))),
    }
}

/// NULL at every position: `len` rows, or the positions `sel`.
fn nulls_at<E: Emit>(len: usize, sel: Option<&[u32]>) -> E::Out {
    match sel {
        None => E::emit((0..len as u32).map(|i| (i, NULL_I8))),
        Some(sel) => E::emit(sel.iter().map(|&i| (i, NULL_I8))),
    }
}

/// Convert a BOOLEAN column into a candidate list of matching row ids
/// (`NULL` counts as not matching, per SQL semantics): of every row when
/// `sel` is `None`, else of a column evaluated at the positions `sel`
/// (compacted to them), whose positions it returns.
///
/// Candidate lists are `u32` row positions throughout the engine (half
/// the memory traffic of `u64`, matching MonetDB's `oid` discipline on
/// 32-bit candidate columns). The executor enforces the resulting
/// 2³²-row ceiling with a checked error at scan setup
/// (`crate::exec`): a table larger than 4Gi physical rows refuses to
/// scan rather than silently truncating positions.
pub fn bool_to_sel(b: &Bat, sel: Option<&[u32]>) -> Result<Vec<u32>> {
    match b {
        Bat::Bool(v) => Ok(match sel {
            None => Cands::emit(v.iter().enumerate().map(|(i, &x)| (i as u32, x))),
            Some(sel) => Cands::emit(sel.iter().zip(v).map(|(&i, &x)| (i, x))),
        }),
        other => Err(MlError::Execution(format!(
            "predicate evaluated to {} instead of BOOLEAN",
            other.logical_type()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

/// Evaluate `$body` with `$f` bound to the comparison `$op` as a closure
/// over two non-NULL values. The operator is matched once per kernel
/// call, and each arm's loop compares with one fixed operator. NaN is
/// DOUBLE's NULL and is screened before `$f`, so the float operators
/// agree with `partial_cmp`; byte slices order as `str` does.
macro_rules! with_cmp {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            CmpOp::Eq => {
                let $f = |a, b| a == b;
                $body
            }
            CmpOp::NotEq => {
                let $f = |a, b| a != b;
                $body
            }
            CmpOp::Lt => {
                let $f = |a, b| a < b;
                $body
            }
            CmpOp::LtEq => {
                let $f = |a, b| a <= b;
                $body
            }
            CmpOp::Gt => {
                let $f = |a, b| a > b;
                $body
            }
            CmpOp::GtEq => {
                let $f = |a, b| a >= b;
                $body
            }
        }
    };
}

/// A comparison's three-valued answer: NULL when an operand is, else
/// `hit`. Both are computed, so the choice is a select, not a branch.
#[inline]
fn answer(null: bool, hit: bool) -> i8 {
    if null {
        NULL_I8
    } else {
        hit as i8
    }
}

/// Same-type column-column comparison at the positions `sel` of both
/// columns.
pub fn cmp<E: Emit>(op: CmpOp, l: &Bat, r: &Bat, sel: Option<&[u32]>) -> Result<E::Out> {
    if l.len() != r.len() {
        return Err(MlError::Execution("comparison operand length mismatch".into()));
    }
    macro_rules! pairs {
        ($a:expr, $b:expr, $null:expr) => {{
            let null = $null;
            with_cmp!(op, |f| answers_at2::<E, _>($a, $b, sel, move |x, y| {
                answer(null(x) || null(y), f(x, y))
            }))
        }};
    }
    Ok(match (l, r) {
        (Bat::Int(a), Bat::Int(b)) | (Bat::Date(a), Bat::Date(b)) => {
            pairs!(a, b, |x| x == NULL_I32)
        }
        (Bat::Bigint(a), Bat::Bigint(b)) => pairs!(a, b, |x| x == NULL_I64),
        (Bat::Double(a), Bat::Double(b)) => pairs!(a, b, |x: f64| x.is_nan()),
        (Bat::Bool(a), Bat::Bool(b)) => pairs!(a, b, |x| x == NULL_I8),
        (Bat::Decimal { data: a, scale: s1 }, Bat::Decimal { data: b, scale: s2 }) => {
            if s1 != s2 {
                return Err(MlError::Execution(
                    "decimal comparison requires aligned scales (binder bug)".into(),
                ));
            }
            pairs!(a, b, |x| x == NULL_I64)
        }
        (Bat::Varchar { offsets: a, heap: ha }, Bat::Varchar { offsets: b, heap: hb }) => {
            // A NULL offset has no bytes to read: strings test it first.
            with_cmp!(op, |f| answers_at2::<E, _>(a, b, sel, |x, y| {
                if x == NULL_OFFSET || y == NULL_OFFSET {
                    NULL_I8
                } else {
                    f(ha.get_bytes(x), hb.get_bytes(y)) as i8
                }
            }))
        }
        (a, b) => {
            return Err(MlError::Execution(format!(
                "comparison over mismatched types {} / {} (binder bug)",
                a.logical_type(),
                b.logical_type()
            )))
        }
    })
}

/// Column-constant comparison at the positions `sel` (`v` must be NULL
/// or match the column's type family, which the binder guarantees).
pub fn cmp_const<E: Emit>(op: CmpOp, l: &Bat, v: &Value, sel: Option<&[u32]>) -> Result<E::Out> {
    if v.is_null() {
        return Ok(nulls_at::<E>(l.len(), sel));
    }
    // The constant is not NULL, so only the column side is tested.
    macro_rules! against {
        ($a:expr, $k:expr, $null:expr) => {{
            let (k, null) = ($k, $null);
            with_cmp!(op, |f| answers_at::<E, _>($a, sel, move |x| answer(null(x), f(x, k))))
        }};
    }
    Ok(match (l, v) {
        (Bat::Int(a), &Value::Int(k)) | (Bat::Date(a), &Value::Date(Date(k))) => {
            against!(a, k, |x| x == NULL_I32)
        }
        (Bat::Bigint(a), &Value::Bigint(k)) => against!(a, k, |x| x == NULL_I64),
        (Bat::Double(a), &Value::Double(k)) => against!(a, k, |x: f64| x.is_nan()),
        (Bat::Bool(a), &Value::Bool(k)) => against!(a, k as i8, |x| x == NULL_I8),
        (Bat::Decimal { data, scale }, Value::Decimal(d)) => {
            against!(data, d.rescale(*scale)?.raw, |x| x == NULL_I64)
        }
        (Bat::Varchar { offsets, heap }, Value::Str(s)) => {
            let k = s.as_bytes();
            with_cmp!(op, |f| answers_at::<E, _>(offsets, sel, |o| {
                if o == NULL_OFFSET {
                    NULL_I8
                } else {
                    f(heap.get_bytes(o), k) as i8
                }
            }))
        }
        (a, v) => {
            return Err(MlError::Execution(format!(
                "constant comparison over mismatched types {} vs {v:?} (binder bug)",
                a.logical_type()
            )))
        }
    })
}

/// `l IN (items)` at the positions `sel`, with the answers of the OR
/// chain of equalities a desugared IN list binds to: TRUE on a match,
/// else NULL when the value or some item is NULL, else FALSE. Duplicate
/// items are harmless. Items must be NULL or match the column's type
/// family, as for [`cmp_const`].
pub(crate) fn in_list<E: Emit>(l: &Bat, items: &[Value], sel: Option<&[u32]>) -> Result<E::Out> {
    // A value that matches no item answers NULL if the list holds one.
    let miss = if items.iter().any(Value::is_null) { NULL_I8 } else { 0 };
    let ans = move |null: bool, hit: bool| {
        if null {
            NULL_I8
        } else if hit {
            1
        } else {
            miss
        }
    };
    // The non-NULL items as the column's typed keys.
    macro_rules! keys {
        ($key:pat => $k:expr) => {
            items
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| match v {
                    $key => Ok($k),
                    v => Err(MlError::Execution(format!(
                        "IN list over mismatched types {} vs {v:?} (binder bug)",
                        l.logical_type()
                    ))),
                })
                .collect::<Result<Vec<_>>>()?
        };
    }
    Ok(match l {
        Bat::Int(a) => {
            let ks = keys!(&Value::Int(k) => k);
            answers_at::<E, _>(a, sel, |x| ans(x == NULL_I32, ks.contains(&x)))
        }
        Bat::Date(a) => {
            let ks = keys!(&Value::Date(Date(k)) => k);
            answers_at::<E, _>(a, sel, |x| ans(x == NULL_I32, ks.contains(&x)))
        }
        Bat::Bigint(a) => {
            let ks = keys!(&Value::Bigint(k) => k);
            answers_at::<E, _>(a, sel, |x| ans(x == NULL_I64, ks.contains(&x)))
        }
        Bat::Double(a) => {
            let ks = keys!(&Value::Double(k) => k);
            answers_at::<E, _>(a, sel, |x| ans(x.is_nan(), ks.contains(&x)))
        }
        Bat::Bool(a) => {
            let ks = keys!(&Value::Bool(k) => k as i8);
            answers_at::<E, _>(a, sel, |x| ans(x == NULL_I8, ks.contains(&x)))
        }
        Bat::Decimal { data, scale } => {
            let ks = keys!(Value::Decimal(d) => d.rescale(*scale)?.raw);
            answers_at::<E, _>(data, sel, |x| ans(x == NULL_I64, ks.contains(&x)))
        }
        Bat::Varchar { offsets, heap } => {
            let ks = keys!(Value::Str(s) => s.as_bytes());
            // A NULL offset has no bytes to read: strings test it first.
            answers_at::<E, _>(offsets, sel, |o| {
                if o == NULL_OFFSET {
                    NULL_I8
                } else {
                    ans(false, ks.contains(&heap.get_bytes(o)))
                }
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// Arithmetic node over its operands, evaluated by `operand`. A literal
/// operand is never materialised: it runs the column ⊕ constant loops of
/// [`arith_const`].
fn arith_expr(
    op: ArithOp,
    left: &BExpr,
    right: &BExpr,
    ty: LogicalType,
    operand: &dyn Fn(&BExpr) -> Result<Arc<Bat>>,
) -> Result<Bat> {
    match (left, right) {
        // A NULL literal on the left decides the result even against
        // another literal.
        (_, BExpr::Lit(k)) if !matches!(left, BExpr::Lit(Value::Null)) => {
            arith_const(op, &*operand(left)?, k, false, ty)
        }
        (BExpr::Lit(k), _) => arith_const(op, &*operand(right)?, k, true, ty),
        _ => arith(op, &*operand(left)?, &*operand(right)?, ty),
    }
}

/// Same-type arithmetic. The binder guarantees aligned operand types
/// (decimal multiplication excepted: operand scales sum into `ty`).
pub fn arith(op: ArithOp, l: &Bat, r: &Bat, ty: LogicalType) -> Result<Bat> {
    if l.len() != r.len() {
        return Err(MlError::Execution("arithmetic operand length mismatch".into()));
    }
    macro_rules! zip {
        ($a:expr, $b:expr) => {
            $a.iter().copied().zip($b.iter().copied())
        };
    }
    Ok(match (l, r) {
        // DATE - DATE produces Int through the same i32 path.
        (Bat::Int(a), Bat::Int(b)) => Bat::Int(int_arith(op, zip!(a, b))?),
        (Bat::Date(a), Bat::Date(b)) if op == ArithOp::Sub => Bat::Int(date_sub(zip!(a, b))),
        (Bat::Bigint(a), Bat::Bigint(b)) => Bat::Bigint(int_arith(op, zip!(a, b))?),
        (Bat::Double(a), Bat::Double(b)) => Bat::Double(double_arith(op, zip!(a, b))),
        (Bat::Decimal { data: a, .. }, Bat::Decimal { data: b, .. }) => {
            let scale = decimal_scale(ty)?;
            Bat::Decimal { data: decimal_arith(op, zip!(a, b))?, scale }
        }
        (a, b) => {
            return Err(MlError::Execution(format!(
                "arithmetic over mismatched types {} / {} (binder bug)",
                a.logical_type(),
                b.logical_type()
            )))
        }
    })
}

/// Column ⊕ constant arithmetic (`const_left` puts the constant on the
/// left): the loops of [`arith`] with the constant read as a scalar,
/// byte for byte what materialising it would give. A NULL constant makes
/// every row NULL, in the node's type `ty` whatever type the literal was
/// bound as.
pub(crate) fn arith_const(
    op: ArithOp,
    col: &Bat,
    k: &Value,
    const_left: bool,
    ty: LogicalType,
) -> Result<Bat> {
    if k.is_null() {
        return materialize_const(k, ty, col.len());
    }
    macro_rules! with_const {
        ($v:expr, $k:expr, $f:expr) => {
            if const_left {
                $f($v.iter().map(|&x| ($k, x)))
            } else {
                $f($v.iter().map(|&x| (x, $k)))
            }
        };
    }
    Ok(match (col, k) {
        (Bat::Int(a), Value::Int(k)) => Bat::Int(with_const!(a, *k, |p| int_arith(op, p))?),
        (Bat::Date(a), Value::Date(k)) if op == ArithOp::Sub => {
            Bat::Int(with_const!(a, k.0, date_sub))
        }
        (Bat::Bigint(a), Value::Bigint(k)) => {
            Bat::Bigint(with_const!(a, *k, |p| int_arith(op, p))?)
        }
        (Bat::Double(a), Value::Double(k)) => {
            Bat::Double(with_const!(a, *k, |p| double_arith(op, p)))
        }
        (Bat::Decimal { data, .. }, Value::Decimal(d)) => {
            let scale = decimal_scale(ty)?;
            Bat::Decimal { data: with_const!(data, d.raw, |p| decimal_arith(op, p))?, scale }
        }
        // Any other pairing is a binder bug: materialise the constant so
        // the column kernel reports it exactly as it always has.
        _ => {
            let kc = materialize_const(k, k.logical_type().unwrap_or(LogicalType::Int), col.len())?;
            return if const_left { arith(op, &kc, col, ty) } else { arith(op, col, &kc, ty) };
        }
    })
}

/// The result scale of decimal arithmetic typed `ty`.
fn decimal_scale(ty: LogicalType) -> Result<u8> {
    match ty {
        LogicalType::Decimal { scale, .. } => Ok(scale),
        other => {
            Err(MlError::Execution(format!("decimal arithmetic with non-decimal result {other}")))
        }
    }
}

/// One arithmetic loop over operand pairs: a pair with a NULL operand
/// gives `null`, any other pair `f(x, y)`, whose first error stops the
/// kernel.
#[inline]
fn map_pairs<T: Copy, O: Copy>(
    pairs: impl ExactSizeIterator<Item = (T, T)>,
    is_null: impl Fn(T) -> bool,
    null: O,
    f: impl Fn(T, T) -> Result<O>,
) -> Result<Vec<O>> {
    let mut out = Vec::with_capacity(pairs.len());
    for (x, y) in pairs {
        out.push(if is_null(x) || is_null(y) { null } else { f(x, y)? });
    }
    Ok(out)
}

/// The checked integer operations INT and BIGINT arithmetic share.
trait CheckedInt: Copy + PartialEq + std::ops::Rem<Output = Self> {
    const NULL: Self;
    const ZERO: Self;
    fn add(self, o: Self) -> Option<Self>;
    fn sub(self, o: Self) -> Option<Self>;
    fn mul(self, o: Self) -> Option<Self>;
}

macro_rules! checked_int {
    ($($t:ty => $null:expr),*) => {$(
        impl CheckedInt for $t {
            const NULL: Self = $null;
            const ZERO: Self = 0;
            fn add(self, o: Self) -> Option<Self> {
                self.checked_add(o)
            }
            fn sub(self, o: Self) -> Option<Self> {
                self.checked_sub(o)
            }
            fn mul(self, o: Self) -> Option<Self> {
                self.checked_mul(o)
            }
        }
    )*};
}

checked_int!(i32 => NULL_I32, i64 => NULL_I64);

/// INT/BIGINT arithmetic: overflow and `% 0` are errors; `/` must have
/// been lowered to DOUBLE by the binder.
fn int_arith<T: CheckedInt>(
    op: ArithOp,
    pairs: impl ExactSizeIterator<Item = (T, T)>,
) -> Result<Vec<T>> {
    let overflow = || MlError::Execution(format!("overflow in {op}"));
    let null = |x: T| x == T::NULL;
    match op {
        ArithOp::Add => map_pairs(pairs, null, T::NULL, |x, y| x.add(y).ok_or_else(overflow)),
        ArithOp::Sub => map_pairs(pairs, null, T::NULL, |x, y| x.sub(y).ok_or_else(overflow)),
        ArithOp::Mul => map_pairs(pairs, null, T::NULL, |x, y| x.mul(y).ok_or_else(overflow)),
        ArithOp::Mod => map_pairs(pairs, null, T::NULL, |x, y| {
            if y == T::ZERO {
                return Err(MlError::Execution("division by zero".into()));
            }
            Ok(x % y)
        }),
        ArithOp::Div => map_pairs(pairs, null, T::NULL, |_, _| {
            Err(MlError::Execution("integer division must lower to double".into()))
        }),
    }
}

/// DATE - DATE in days.
fn date_sub(pairs: impl ExactSizeIterator<Item = (i32, i32)>) -> Vec<i32> {
    pairs.map(|(x, y)| if x == NULL_I32 || y == NULL_I32 { NULL_I32 } else { x - y }).collect()
}

/// DOUBLE arithmetic: NaN operands propagate NULL naturally, and division
/// by zero is NULL (the kernel stays total).
fn double_arith(op: ArithOp, pairs: impl ExactSizeIterator<Item = (f64, f64)>) -> Vec<f64> {
    match op {
        ArithOp::Add => pairs.map(|(x, y)| x + y).collect(),
        ArithOp::Sub => pairs.map(|(x, y)| x - y).collect(),
        ArithOp::Mul => pairs.map(|(x, y)| x * y).collect(),
        ArithOp::Div => pairs.map(|(x, y)| if y == 0.0 { f64::NAN } else { x / y }).collect(),
        ArithOp::Mod => pairs.map(|(x, y)| x % y).collect(),
    }
}

/// DECIMAL arithmetic over raw scaled values (the binder aligned the
/// scales; a product's scale is the sum of its operands').
fn decimal_arith(
    op: ArithOp,
    pairs: impl ExactSizeIterator<Item = (i64, i64)>,
) -> Result<Vec<i64>> {
    let overflow = || MlError::Execution(format!("overflow in {op}"));
    let null = |x: i64| x == NULL_I64;
    match op {
        ArithOp::Add => {
            map_pairs(pairs, null, NULL_I64, |x, y| x.checked_add(y).ok_or_else(overflow))
        }
        ArithOp::Sub => {
            map_pairs(pairs, null, NULL_I64, |x, y| x.checked_sub(y).ok_or_else(overflow))
        }
        ArithOp::Mul => map_pairs(pairs, null, NULL_I64, |x, y| {
            let wide = x as i128 * y as i128;
            if wide > i64::MAX as i128 || wide < i64::MIN as i128 {
                return Err(overflow());
            }
            Ok(wide as i64)
        }),
        ArithOp::Div | ArithOp::Mod => map_pairs(pairs, null, NULL_I64, |_, _| {
            Err(MlError::Execution(format!("{op} not defined on DECIMAL")))
        }),
    }
}

/// Arithmetic negation.
pub fn neg(b: &Bat) -> Result<Bat> {
    Ok(match b {
        Bat::Int(v) => Bat::Int(v.iter().map(|&x| if x == NULL_I32 { x } else { -x }).collect()),
        Bat::Bigint(v) => {
            Bat::Bigint(v.iter().map(|&x| if x == NULL_I64 { x } else { -x }).collect())
        }
        Bat::Double(v) => Bat::Double(v.iter().map(|&x| -x).collect()),
        Bat::Decimal { data, scale } => Bat::Decimal {
            data: data.iter().map(|&x| if x == NULL_I64 { x } else { -x }).collect(),
            scale: *scale,
        },
        other => return Err(MlError::Execution(format!("negation over {}", other.logical_type()))),
    })
}

// ---------------------------------------------------------------------------
// Boolean logic (three-valued)
// ---------------------------------------------------------------------------

fn as_bools(b: &Bat) -> Result<&[i8]> {
    match b {
        Bat::Bool(v) => Ok(v),
        other => Err(MlError::Execution(format!("expected BOOLEAN, got {}", other.logical_type()))),
    }
}

/// Three-valued AND: `NULL AND FALSE = FALSE`, `NULL AND TRUE = NULL`.
pub fn bool_and(l: &Bat, r: &Bat) -> Result<Bat> {
    let (a, b) = (as_bools(l)?, as_bools(r)?);
    Ok(Bat::Bool(
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                if x == 0 || y == 0 {
                    0
                } else if x == NULL_I8 || y == NULL_I8 {
                    NULL_I8
                } else {
                    1
                }
            })
            .collect(),
    ))
}

/// Three-valued OR: `NULL OR TRUE = TRUE`, `NULL OR FALSE = NULL`.
pub fn bool_or(l: &Bat, r: &Bat) -> Result<Bat> {
    let (a, b) = (as_bools(l)?, as_bools(r)?);
    Ok(Bat::Bool(
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                if x == 1 || y == 1 {
                    1
                } else if x == NULL_I8 || y == NULL_I8 {
                    NULL_I8
                } else {
                    0
                }
            })
            .collect(),
    ))
}

/// Three-valued NOT.
pub fn bool_not(l: &Bat) -> Result<Bat> {
    let a = as_bools(l)?;
    Ok(Bat::Bool(a.iter().map(|&x| if x == NULL_I8 { NULL_I8 } else { 1 - x }).collect()))
}

// ---------------------------------------------------------------------------
// LIKE (dependency-free, paper §3.4)
// ---------------------------------------------------------------------------

/// SQL LIKE with `%` (any run) and `_` (any single char), implemented with
/// iterative backtracking — no regex library, exactly MonetDBLite's
/// approach of replacing PCRE with its own matcher.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        // `%` must be tested first: a literal '%' in the *data* would
        // otherwise consume the pattern's wildcard.
        if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if star_p != usize::MAX {
            // Backtrack: extend the last % by one character.
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// A LIKE pattern compiled once per kernel call. The Q13-style shapes
/// (`'foo%'` / `'%foo'` / `'%foo%'` / no wildcards at all) dispatch to
/// `starts_with`/`ends_with`/substring search, and any other `%`-only
/// pattern (`'%special%requests%'`) to an anchored multi-segment match,
/// instead of running the backtracking state machine per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikePlan {
    /// No wildcards: exact string equality.
    Exact(String),
    /// `'foo%'`: prefix match.
    Prefix(String),
    /// `'%foo'`: suffix match.
    Suffix(String),
    /// `'%foo%'`: substring search (`'%'` searches the empty needle).
    Contains(Finder),
    /// Every other pattern whose only wildcard is `%`.
    Segments(SegmentPlan),
    /// Patterns with `_`: the general matcher.
    Generic,
}

/// A `%`-only pattern `pre%m1%…%mk%suf` (`pre`/`suf` empty when the
/// pattern starts/ends with `%`). A string matches when it starts with
/// `pre`, ends with `suf`, and the middles occur in order, without
/// overlapping each other or the anchors, in between. Leftmost-first
/// search of each middle is optimal: an earlier end only leaves more room
/// for the rest. Matching is byte-level — a valid UTF-8 needle can only
/// match a valid UTF-8 haystack at a character boundary, so `%`'s
/// any-run-of-characters semantics hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    prefix: Vec<u8>,
    middles: Vec<Finder>,
    suffix: Vec<u8>,
    /// Shortest matching string: every segment laid end to end.
    min_len: usize,
}

impl SegmentPlan {
    fn matches(&self, s: &[u8]) -> bool {
        // Absent anchors are skipped outright: even an empty slice compare
        // is a `memcmp` call, several times the cost of a short search.
        if s.len() < self.min_len
            || (!self.prefix.is_empty() && !s.starts_with(&self.prefix))
            || (!self.suffix.is_empty() && !s.ends_with(&self.suffix))
        {
            return false;
        }
        let mut rest = &s[self.prefix.len()..s.len() - self.suffix.len()];
        for m in &self.middles {
            match m.find(rest) {
                Some(at) => rest = &rest[at + m.needle.len()..],
                None => return false,
            }
        }
        true
    }
}

/// A byte needle, searched eight candidate positions at a time: one word
/// compare finds the positions whose first *and* last byte match, and
/// only those are verified. It is built once per pattern, so nothing is
/// allocated or set up per row, and the word loop has no data-dependent
/// stride (unlike a skip table, whose next load waits on the previous
/// one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finder {
    needle: Vec<u8>,
}

/// `0x01` in every byte lane.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte lane.
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// The high bit of every zero byte lane of `x` is set (lanes above a
/// zero lane may be flagged spuriously; callers verify).
#[inline]
fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANES_LO) & !x & LANES_HI
}

#[inline]
fn load_word(hay: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&hay[at..at + 8]);
    u64::from_le_bytes(w)
}

impl Finder {
    /// A finder for the bytes of `needle`.
    pub fn new(needle: &str) -> Finder {
        Finder { needle: needle.as_bytes().to_vec() }
    }

    /// Byte offset of the leftmost occurrence of the needle in `hay` (0
    /// for the empty needle).
    fn find(&self, hay: &[u8]) -> Option<usize> {
        let needle = self.needle.as_slice();
        let n = needle.len();
        let (Some(&first), Some(&last)) = (needle.first(), needle.last()) else {
            return Some(0);
        };
        let last_start = hay.len().checked_sub(n)?;
        let (first_lanes, last_lanes) = (LANES_LO * first as u64, LANES_LO * last as u64);
        let mut p = 0usize;
        // Starts p..p+8 are all in range, and so is the word at p+n-1.
        while p + 7 <= last_start {
            let mut hits = zero_lanes(load_word(hay, p) ^ first_lanes)
                & zero_lanes(load_word(hay, p + n - 1) ^ last_lanes);
            while hits != 0 {
                let q = p + (hits.trailing_zeros() / 8) as usize;
                if &hay[q..q + n] == needle {
                    return Some(q);
                }
                hits &= hits - 1;
            }
            p += 8;
        }
        (p..=last_start).find(|&q| &hay[q..q + n] == needle)
    }
}

/// Classify a LIKE pattern into its fast-path shape.
pub fn compile_like(pattern: &str) -> LikePlan {
    if pattern.contains('_') {
        return LikePlan::Generic;
    }
    if !pattern.contains('%') {
        return LikePlan::Exact(pattern.to_string());
    }
    // Runs of consecutive '%' collapse, so empty segments vanish.
    let segs: Vec<&str> = pattern.split('%').collect();
    let (starts, ends) = (pattern.starts_with('%'), pattern.ends_with('%'));
    let prefix = if starts { "" } else { segs[0] };
    let suffix = if ends { "" } else { segs[segs.len() - 1] };
    let middles: Vec<&str> =
        segs[1..segs.len() - 1].iter().copied().filter(|m| !m.is_empty()).collect();
    match (starts, ends, middles.as_slice()) {
        (false, true, []) => LikePlan::Prefix(prefix.to_string()),
        (true, false, []) => LikePlan::Suffix(suffix.to_string()),
        (true, true, []) => LikePlan::Contains(Finder::new("")),
        (true, true, [m]) => LikePlan::Contains(Finder::new(m)),
        _ => LikePlan::Segments(SegmentPlan {
            prefix: prefix.as_bytes().to_vec(),
            middles: middles.iter().map(|m| Finder::new(m)).collect(),
            suffix: suffix.as_bytes().to_vec(),
            min_len: prefix.len() + suffix.len() + middles.iter().map(|m| m.len()).sum::<usize>(),
        }),
    }
}

/// Match one string's UTF-8 bytes against a compiled plan (`pattern` is
/// consulted only by the `Generic` arm). Every `%`-only shape matches on
/// bytes: a valid UTF-8 needle can only match a valid UTF-8 haystack at a
/// character boundary. Only `Generic` decodes, because `_` counts
/// characters.
#[inline]
pub(crate) fn like_plan_match(plan: &LikePlan, pattern: &str, s: &[u8]) -> bool {
    match plan {
        LikePlan::Exact(p) => s == p.as_bytes(),
        LikePlan::Prefix(p) => s.starts_with(p.as_bytes()),
        LikePlan::Suffix(p) => s.ends_with(p.as_bytes()),
        LikePlan::Contains(f) => f.find(s).is_some(),
        LikePlan::Segments(sp) => sp.matches(s),
        // xlint: allow(str, `_` matches one character, not one byte)
        LikePlan::Generic => std::str::from_utf8(s).is_ok_and(|s| like_match(s, pattern)),
    }
}

/// LIKE over a VARCHAR column at the positions `sel`; NULL rows stay
/// NULL, negated or not. The pattern is compiled once per call and every
/// row is matched on its heap entry's bytes ([`like_plan_match`]). The
/// dictionary-domain LIKE in `exec` runs this kernel over the distinct
/// dictionary entries.
fn like_kernel<E: Emit>(
    b: &Bat,
    pattern: &str,
    negated: bool,
    sel: Option<&[u32]>,
) -> Result<E::Out> {
    let plan = compile_like(pattern);
    match b {
        Bat::Varchar { offsets, heap } => Ok(answers_at::<E, _>(offsets, sel, |o| {
            if o == NULL_OFFSET {
                NULL_I8
            } else {
                (like_plan_match(&plan, pattern, heap.get_bytes(o)) != negated) as i8
            }
        })),
        other => Err(MlError::Execution(format!("LIKE over {}", other.logical_type()))),
    }
}

// ---------------------------------------------------------------------------
// CASE
// ---------------------------------------------------------------------------

/// CASE over `rows` rows; `evalf` evaluates each sub-expression to a
/// column of `rows` rows (compacted to the caller's positions).
fn case_kernel(
    branches: &[(BExpr, BExpr)],
    else_expr: Option<&BExpr>,
    ty: LogicalType,
    rows: usize,
    evalf: &dyn Fn(&BExpr) -> Result<Bat>,
) -> Result<Bat> {
    // Evaluate all conditions and branch values, then select row-wise.
    let conds: Vec<Bat> = branches.iter().map(|(c, _)| evalf(c)).collect::<Result<_>>()?;
    let vals: Vec<Bat> = branches.iter().map(|(_, v)| evalf(v)).collect::<Result<_>>()?;
    let else_vals = else_expr.map(evalf).transpose()?;
    let mut out = Bat::with_capacity(ty, rows);
    'rows: for i in 0..rows {
        for (c, v) in conds.iter().zip(&vals) {
            let hit = match c {
                Bat::Bool(cv) => cv[i] == 1,
                _ => false,
            };
            if hit {
                out.push(&v.get(i))?;
                continue 'rows;
            }
        }
        match &else_vals {
            Some(ev) => out.push(&ev.get(i))?,
            None => out.push(&Value::Null)?,
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Scalar functions
// ---------------------------------------------------------------------------

/// An INTEGER argument of a row-wise kernel: a constant, read once, or a
/// column with one value per output row.
enum IntArg {
    Const(i32),
    Col(Arc<Bat>),
}

impl IntArg {
    /// The value for output row `i`.
    #[inline]
    fn at(&self, i: usize) -> Result<i32> {
        match self {
            IntArg::Const(v) => Ok(*v),
            IntArg::Col(b) => match &**b {
                Bat::Int(v) => Ok(v[i]),
                _ => Err(MlError::Execution("substring bounds must be INTEGER".into())),
            },
        }
    }
}

/// SQL `substring(text FROM from FOR len)` over the `rows` entries of
/// `text` at positions `at` (every row when `None`). The window is
/// `[from, from + len)` in 1-based character positions, clamped to the
/// string: a FROM below 1 *shrinks* the window rather than rebasing it
/// (`substring('abc' FROM -1 FOR 3)` keeps only position 1). Each result
/// is a slice of the entry cut at char boundaries and interned straight
/// into the output heap; NULL text or a NULL bound gives NULL.
fn substring(
    text: &Bat,
    at: Option<&[u32]>,
    rows: usize,
    from: &IntArg,
    len: &IntArg,
) -> Result<Bat> {
    let mut offsets = Vec::with_capacity(rows);
    let mut heap = StringHeap::new();
    for i in 0..rows {
        let row = at.map_or(i, |sel| sel[i] as usize);
        let (f, l) = (from.at(i)?, len.at(i)?);
        // xlint: allow(str, SUBSTRING positions are characters)
        let (Some(txt), false) = (text.str_at(row), f == NULL_I32 || l == NULL_I32) else {
            offsets.push(NULL_OFFSET);
            continue;
        };
        let from64 = f as i64;
        let end1 = from64.saturating_add((l as i64).max(0));
        let start1 = from64.max(1);
        let take = (end1 - start1).max(0) as usize;
        let skip = (start1 - 1) as usize;
        // One pass over the char boundaries: the byte bounds of chars
        // [skip, skip + take).
        let mut bounds = txt.char_indices().map(|(b, _)| b).chain(std::iter::once(txt.len()));
        let start_b = bounds.nth(skip).unwrap_or(txt.len());
        let end_b = match take {
            0 => start_b,
            t => bounds.nth(t - 1).unwrap_or(txt.len()),
        };
        offsets.push(heap.add(&txt[start_b..end_b]));
    }
    Ok(Bat::Varchar { offsets, heap })
}

fn func_kernel(func: ScalarFunc, args: &[Arc<Bat>], ty: LogicalType) -> Result<Bat> {
    match func {
        ScalarFunc::Sqrt | ScalarFunc::Floor | ScalarFunc::Ceil => {
            let a = match &*args[0] {
                Bat::Double(v) => v,
                other => {
                    return Err(MlError::Execution(format!("{func} over {}", other.logical_type())))
                }
            };
            let f = match func {
                ScalarFunc::Sqrt => f64::sqrt,
                ScalarFunc::Floor => f64::floor,
                _ => f64::ceil,
            };
            Ok(Bat::Double(a.iter().map(|&x| f(x)).collect()))
        }
        ScalarFunc::Abs => Ok(match &*args[0] {
            Bat::Int(v) => {
                Bat::Int(v.iter().map(|&x| if x == NULL_I32 { x } else { x.abs() }).collect())
            }
            Bat::Bigint(v) => {
                Bat::Bigint(v.iter().map(|&x| if x == NULL_I64 { x } else { x.abs() }).collect())
            }
            Bat::Double(v) => Bat::Double(v.iter().map(|&x| x.abs()).collect()),
            Bat::Decimal { data, scale } => Bat::Decimal {
                data: data.iter().map(|&x| if x == NULL_I64 { x } else { x.abs() }).collect(),
                scale: *scale,
            },
            other => return Err(MlError::Execution(format!("abs over {}", other.logical_type()))),
        }),
        ScalarFunc::Upper | ScalarFunc::Lower => {
            let a = &args[0];
            let mut out = Bat::with_capacity(LogicalType::Varchar, a.len());
            for i in 0..a.len() {
                // xlint: allow(str, case mapping is per character)
                match a.str_at(i) {
                    None => out.push(&Value::Null)?,
                    Some(s) => {
                        let t = if func == ScalarFunc::Upper {
                            s.to_uppercase()
                        } else {
                            s.to_lowercase()
                        };
                        out.push(&Value::Str(t))?;
                    }
                }
            }
            Ok(out)
        }
        ScalarFunc::Length => {
            let a = &args[0];
            let mut out = Vec::with_capacity(a.len());
            for i in 0..a.len() {
                // xlint: allow(str, LENGTH counts characters)
                match a.str_at(i) {
                    None => out.push(NULL_I32),
                    Some(s) => out.push(s.chars().count() as i32),
                }
            }
            Ok(Bat::Int(out))
        }
        ScalarFunc::Substring => match args {
            [text, from, len] => {
                let (from, len) = (IntArg::Col(from.clone()), IntArg::Col(len.clone()));
                substring(text, None, text.len(), &from, &len)
            }
            _ => Err(MlError::Execution("substring takes three arguments".into())),
        },
        ScalarFunc::Year | ScalarFunc::Month | ScalarFunc::Day => {
            let a = match &*args[0] {
                Bat::Date(v) => v,
                other => {
                    return Err(MlError::Execution(format!("{func} over {}", other.logical_type())))
                }
            };
            let mut out = Vec::with_capacity(a.len());
            for &d in a {
                if d == NULL_I32 {
                    out.push(NULL_I32);
                    continue;
                }
                let (y, m, dd) = Date(d).ymd();
                out.push(match func {
                    ScalarFunc::Year => y,
                    ScalarFunc::Month => m as i32,
                    _ => dd as i32,
                });
            }
            Ok(Bat::Int(out))
        }
        ScalarFunc::AddDays | ScalarFunc::AddMonths | ScalarFunc::AddYears => {
            let dates = match &*args[0] {
                Bat::Date(v) => v,
                other => {
                    return Err(MlError::Execution(format!(
                        "date shift over {}",
                        other.logical_type()
                    )))
                }
            };
            let amounts = match &*args[1] {
                Bat::Int(v) => v,
                _ => return Err(MlError::Execution("date shift amount must be INTEGER".into())),
            };
            let mut out = Vec::with_capacity(dates.len());
            for (&d, &n) in dates.iter().zip(amounts) {
                if d == NULL_I32 || n == NULL_I32 {
                    out.push(NULL_I32);
                    continue;
                }
                let nd = match func {
                    ScalarFunc::AddDays => Date(d).add_days(n),
                    ScalarFunc::AddMonths => Date(d).add_months(n),
                    _ => Date(d).add_years(n),
                };
                out.push(nd.0);
            }
            let _ = ty;
            Ok(Bat::Date(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::ColumnBuffer;
    use proptest::prelude::*;

    /// Does `op` hold between two values ordered `ord`?
    fn holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match op {
            CmpOp::Eq => ord == Equal,
            CmpOp::NotEq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::LtEq => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::GtEq => ord != Less,
        }
    }

    fn ints(v: Vec<i32>) -> Arc<Bat> {
        Arc::new(Bat::Int(v))
    }

    #[test]
    fn colref_and_literal() {
        let cols = vec![ints(vec![1, 2, 3])];
        let e = BExpr::ColRef { idx: 0, ty: LogicalType::Int };
        assert_eq!(eval(&e, &cols, 3, None).unwrap().get(1), Value::Int(2));
        let l = BExpr::Lit(Value::Int(7));
        let b = eval(&l, &cols, 3, None).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(2), Value::Int(7));
    }

    #[test]
    fn cmp_const_fast_path_with_nulls() {
        let cols = vec![ints(vec![1, NULL_I32, 3])];
        let e = BExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(1))),
        };
        let b = eval(&e, &cols, 3, None).unwrap();
        assert_eq!(b.get(0), Value::Bool(false));
        assert_eq!(b.get(1), Value::Null);
        assert_eq!(b.get(2), Value::Bool(true));
        assert_eq!(bool_to_sel(&b, None).unwrap(), vec![2]);
    }

    #[test]
    fn flipped_const_comparison() {
        // 2 < col  ≡  col > 2
        let cols = vec![ints(vec![1, 2, 3])];
        let e = BExpr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(BExpr::Lit(Value::Int(2))),
            right: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
        };
        let b = eval(&e, &cols, 3, None).unwrap();
        assert_eq!(bool_to_sel(&b, None).unwrap(), vec![2]);
    }

    #[test]
    fn int_overflow_is_error() {
        let cols = vec![ints(vec![i32::MAX])];
        let e = BExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(1))),
            ty: LogicalType::Int,
        };
        assert!(matches!(eval(&e, &cols, 1, None), Err(MlError::Execution(_))));
    }

    #[test]
    fn decimal_mul_scales() {
        // 1.50 * 0.06 (scales 2+2=4) = 0.0900
        let l = Bat::Decimal { data: vec![150], scale: 2 };
        let r = Bat::Decimal { data: vec![6], scale: 2 };
        let out =
            arith(ArithOp::Mul, &l, &r, LogicalType::Decimal { width: 18, scale: 4 }).unwrap();
        assert_eq!(out.get(0), Value::Decimal(monetlite_types::Decimal::new(900, 4)));
    }

    #[test]
    fn three_valued_logic() {
        let t = Bat::Bool(vec![1]);
        let f = Bat::Bool(vec![0]);
        let n = Bat::Bool(vec![NULL_I8]);
        assert_eq!(bool_and(&n, &f).unwrap().get(0), Value::Bool(false));
        assert_eq!(bool_and(&n, &t).unwrap().get(0), Value::Null);
        assert_eq!(bool_or(&n, &t).unwrap().get(0), Value::Bool(true));
        assert_eq!(bool_or(&n, &f).unwrap().get(0), Value::Null);
        assert_eq!(bool_not(&n).unwrap().get(0), Value::Null);
        assert_eq!(bool_not(&t).unwrap().get(0), Value::Bool(false));
    }

    #[test]
    fn like_matcher_cases() {
        assert!(like_match("forest green metallic", "%green%"));
        assert!(!like_match("blue", "%green%"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("anything", "%"));
        assert!(like_match("xyz", "%z"));
        assert!(like_match("xyz", "x%"));
        assert!(!like_match("xyz", "%q%"));
        assert!(like_match("aXbXc", "a%b%c"));
        // Tricky backtracking: % must be able to re-expand.
        assert!(like_match("aabab", "a%ab"));
    }

    #[test]
    fn case_kernel_with_else_and_null() {
        let cols = vec![ints(vec![1, 2, 3])];
        let e = BExpr::Case {
            branches: vec![(
                BExpr::Cmp {
                    op: CmpOp::Eq,
                    left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    right: Box::new(BExpr::Lit(Value::Int(2))),
                },
                BExpr::Lit(Value::Int(100)),
            )],
            else_expr: Some(Box::new(BExpr::Lit(Value::Int(0)))),
            ty: LogicalType::Int,
        };
        let b = eval(&e, &cols, 3, None).unwrap();
        assert_eq!(b.to_buffer(None), ColumnBuffer::Int(vec![0, 100, 0]));
    }

    #[test]
    fn extract_year_kernel() {
        let d = Date::parse("1995-03-17").unwrap();
        let cols = vec![Arc::new(Bat::Date(vec![d.0, NULL_I32]))];
        let e = BExpr::Func {
            func: ScalarFunc::Year,
            args: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Date }],
            ty: LogicalType::Int,
        };
        let b = eval(&e, &cols, 2, None).unwrap();
        assert_eq!(b.get(0), Value::Int(1995));
        assert_eq!(b.get(1), Value::Null);
    }

    #[test]
    fn date_shift_kernel() {
        let d = Date::parse("1995-01-31").unwrap();
        let cols = vec![Arc::new(Bat::Date(vec![d.0]))];
        let e = BExpr::Func {
            func: ScalarFunc::AddMonths,
            args: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Date }, BExpr::Lit(Value::Int(1))],
            ty: LogicalType::Date,
        };
        let b = eval(&e, &cols, 1, None).unwrap();
        assert_eq!(b.get(0).to_string(), "1995-02-28");
    }

    #[test]
    fn cast_chain() {
        let b = Bat::Int(vec![3, NULL_I32]);
        let d = cast(&b, LogicalType::Decimal { width: 18, scale: 2 }).unwrap();
        assert_eq!(d.get(0), Value::Decimal(monetlite_types::Decimal::new(300, 2)));
        assert_eq!(d.get(1), Value::Null);
        let f = cast(&d, LogicalType::Double).unwrap();
        assert_eq!(f.get(0), Value::Double(3.0));
        assert_eq!(f.get(1), Value::Null);
    }

    #[test]
    fn varchar_comparison_and_nulls() {
        let col = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("apple".into()),
            None,
            Some("pear".into()),
        ]));
        let b = cmp_const::<Bools>(CmpOp::Eq, &col, &Value::Str("pear".into()), None).unwrap();
        assert_eq!(bool_to_sel(&b, None).unwrap(), vec![2]);
        assert_eq!(b.get(1), Value::Null);
    }

    #[test]
    fn like_compile_shapes() {
        assert_eq!(compile_like("foo"), LikePlan::Exact("foo".into()));
        assert_eq!(compile_like("foo%"), LikePlan::Prefix("foo".into()));
        assert_eq!(compile_like("%foo"), LikePlan::Suffix("foo".into()));
        assert_eq!(compile_like("%foo%"), LikePlan::Contains(Finder::new("foo")));
        assert_eq!(compile_like("%%foo%%"), LikePlan::Contains(Finder::new("foo")));
        assert_eq!(compile_like("%"), LikePlan::Contains(Finder::new("")));
        assert_eq!(compile_like(""), LikePlan::Exact("".into()));
        assert!(matches!(compile_like("a%b"), LikePlan::Segments(_)));
        assert!(matches!(compile_like("%special%requests%"), LikePlan::Segments(_)));
        assert_eq!(compile_like("f_o%"), LikePlan::Generic);
    }

    #[test]
    fn like_segment_plans_respect_order_overlap_and_utf8() {
        let cases: &[(&str, &str, bool)] = &[
            // Middles may not overlap each other...
            ("%aa%aa%", "aaa", false),
            ("%aa%aa%", "aaaa", true),
            // ...nor the anchors, which may not overlap each other.
            ("a%a", "a", false),
            ("a%a", "aa", true),
            ("ab%ba", "aba", false),
            ("ab%ba", "abba", true),
            ("a%b%a", "aba", true),
            ("a%b%a", "aa", false),
            // Order matters.
            ("%special%requests%", "requests are special", false),
            ("%special%requests%", "a special set of requests", true),
            // Empty segments collapse.
            ("%%a%%%b%%", "xaxbx", true),
            ("%%a%%%b%%", "xbxax", false),
            // Multi-byte characters: `%` spans characters, not bytes.
            ("%é%é%", "éé", true),
            ("%é%é%", "é", false),
            ("é%ü", "éxü", true),
            ("é%ü", "éü", true),
            ("%ü%é", "ééüé", true),
        ];
        for &(p, s, want) in cases {
            let plan = compile_like(p);
            assert!(matches!(plan, LikePlan::Segments(_)), "{p} must compile to segments");
            assert_eq!(like_plan_match(&plan, p, s.as_bytes()), want, "{s:?} LIKE {p:?}");
            assert_eq!(like_match(s, p), want, "oracle: {s:?} LIKE {p:?}");
        }
    }

    /// Character-at-a-time reference for SQL substring: keep 1-based
    /// positions p with max(1, from) <= p < from + len.
    fn ref_substring(s: &str, from: i32, len: i32) -> String {
        let (from, len) = (from as i64, (len as i64).max(0));
        s.chars()
            .enumerate()
            .filter(|(i, _)| {
                let p = *i as i64 + 1;
                p >= from && p < from.saturating_add(len)
            })
            .map(|(_, c)| c)
            .collect()
    }

    fn run_substring(s: &str, from: i32, len: i32) -> Value {
        let col = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some(s.into())]));
        let args = [col, Bat::Int(vec![from]), Bat::Int(vec![len])].map(Arc::new);
        func_kernel(ScalarFunc::Substring, &args, LogicalType::Varchar).unwrap().get(0)
    }

    #[test]
    fn substring_window_semantics() {
        // FROM below 1 must shrink the window, not rebase it: the old
        // `from.max(1) - 1` clamp returned 'abc' here instead of 'a'.
        assert_eq!(run_substring("abc", -1, 3), Value::Str("a".into()));
        assert_eq!(run_substring("abc", 0, 3), Value::Str("ab".into()));
        assert_eq!(run_substring("abc", -2, 2), Value::Str("".into()));
        for s in ["", "a", "abc", "héllo·wörld"] {
            let n = s.chars().count() as i32;
            for from in [-2, -1, 0, 1, 2, n, n + 1] {
                for len in [0, 1, n, i32::MAX] {
                    assert_eq!(
                        run_substring(s, from, len),
                        Value::Str(ref_substring(s, from, len)),
                        "substring({s:?} FROM {from} FOR {len})"
                    );
                }
            }
        }
    }

    /// The per-row SUBSTRING the kernel replaced: a `String` and a
    /// `Value::Str` per row, pushed through `Bat::push`. Kept as the oracle
    /// of [`substring`].
    fn substring_per_row(s: &Bat, from: &[i32], len: &[i32]) -> Bat {
        let mut out = Bat::with_capacity(LogicalType::Varchar, s.len());
        for i in 0..s.len() {
            match s.str_at(i) {
                None => out.push(&Value::Null).unwrap(),
                Some(txt) => {
                    if from[i] == NULL_I32 || len[i] == NULL_I32 {
                        out.push(&Value::Null).unwrap();
                        continue;
                    }
                    let from64 = from[i] as i64;
                    let end1 = from64.saturating_add((len[i] as i64).max(0));
                    let start1 = from64.max(1);
                    let take = (end1 - start1).max(0) as usize;
                    let skip = (start1 - 1) as usize;
                    let mut start_b = txt.len();
                    let mut end_b = txt.len();
                    for (ci, (b, _)) in txt.char_indices().enumerate() {
                        if ci == skip {
                            start_b = b;
                        }
                        if ci == skip + take {
                            end_b = b;
                            break;
                        }
                    }
                    let sub = &txt[start_b.min(end_b)..end_b];
                    out.push(&Value::Str(sub.to_string())).unwrap();
                }
            }
        }
        out
    }

    fn int_or_null(v: Option<i32>) -> i32 {
        v.unwrap_or(NULL_I32)
    }

    proptest! {
        #[test]
        fn prop_substring_matches_the_per_row_oracle(
            texts in proptest::collection::vec(
                proptest::option::of(proptest::collection::vec(0usize..7, 0..7)),
                1..24,
            ),
            froms in proptest::collection::vec(proptest::option::of(-3i32..9), 24..25),
            lens in proptest::collection::vec(proptest::option::of(-2i32..10), 24..25),
            const_from in proptest::option::of(-3i32..9),
            const_len in proptest::option::of(-2i32..10),
            every in 1usize..4,
        ) {
            // Multibyte text and NULL text, NULL bounds, FROM <= 0 and FOR
            // past the end; bounds as columns and as constants, over every
            // row and at positions.
            const ALPHABET: [char; 7] = ['a', 'Z', '7', 'é', '€', '𝄞', ' '];
            // A FOR of 9 stands for one far past every string's end.
            let far = |v: Option<i32>| v.map(|l| if l == 9 { i32::MAX } else { l });
            let (const_len, lens): (_, Vec<_>) = (far(const_len), lens.into_iter().map(far).collect());
            let n = texts.len();
            let col = Bat::from_buffer(&ColumnBuffer::Varchar(
                texts.iter().map(|t| t.as_ref().map(|cs| cs.iter().map(|&c| ALPHABET[c]).collect())).collect(),
            ));
            let from: Vec<i32> = froms[..n].iter().map(|&v| int_or_null(v)).collect();
            let len: Vec<i32> = lens[..n].iter().map(|&v| int_or_null(v)).collect();
            let sel: Vec<u32> = (0..n as u32).step_by(every).collect();
            let cols = [Arc::new(col.clone()), Arc::new(Bat::Int(from)), Arc::new(Bat::Int(len))];
            let arg = |idx| BExpr::ColRef { idx, ty: LogicalType::Int };
            let lit = |v: Option<i32>| BExpr::Lit(v.map_or(Value::Null, Value::Int));
            let text = BExpr::ColRef { idx: 0, ty: LogicalType::Varchar };
            for (f, l, fk, lk) in [
                (arg(1), arg(2), None, None),
                (lit(const_from), lit(const_len), Some(const_from), Some(const_len)),
            ] {
                let e = BExpr::Func {
                    func: ScalarFunc::Substring,
                    args: vec![text.clone(), f, l],
                    ty: LogicalType::Varchar,
                };
                for positions in [None, Some(&sel[..])] {
                    let rows: Vec<usize> = positions.map_or((0..n).collect(), |p| p.iter().map(|&r| r as usize).collect());
                    let pick = |c: &Bat, k: Option<Option<i32>>| -> Vec<i32> {
                        match (k, c) {
                            (Some(k), _) => vec![int_or_null(k); rows.len()],
                            (None, Bat::Int(v)) => rows.iter().map(|&r| v[r]).collect(),
                            _ => unreachable!(),
                        }
                    };
                    let want = substring_per_row(
                        &col.take(&rows.iter().map(|&r| r as u32).collect::<Vec<_>>()),
                        &pick(&cols[1], fk),
                        &pick(&cols[2], lk),
                    );
                    let got = eval(&e, &cols, n, positions).unwrap();
                    prop_assert_eq!(got.to_buffer(None), want.to_buffer(None));
                }
            }
        }
    }

    #[test]
    fn substring_null_propagation() {
        let col = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("abc".into()), None]));
        let args = [col, Bat::Int(vec![NULL_I32, 1]), Bat::Int(vec![2, 2])].map(Arc::new);
        let out = func_kernel(ScalarFunc::Substring, &args, LogicalType::Varchar).unwrap();
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(1), Value::Null);
    }

    /// Exponential-but-obviously-correct reference LIKE matcher used to pin
    /// both the backtracking matcher and the compiled fast paths.
    fn ref_like(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some((&'%', rest)) => ref_like(s, rest) || (!s.is_empty() && ref_like(&s[1..], p)),
            Some((&c, rest)) => match s.split_first() {
                Some((&sc, srest)) => (c == '_' || c == sc) && ref_like(srest, rest),
                None => false,
            },
        }
    }

    #[test]
    fn like_degenerate_patterns() {
        // Empty pattern matches only the empty string; all-% patterns match
        // everything; a trailing backslash is a literal character (this
        // dialect has no LIKE escape).
        for s in ["", "a", "%", "_", "ab", "a\\"] {
            for p in ["", "%", "%%", "%%%", "\\", "a\\", "%\\", "\\%", "a%\\"] {
                let plan = compile_like(p);
                let sc: Vec<char> = s.chars().collect();
                let pc: Vec<char> = p.chars().collect();
                assert_eq!(
                    like_plan_match(&plan, p, s.as_bytes()),
                    ref_like(&sc, &pc),
                    "{s:?} LIKE {p:?}"
                );
                assert_eq!(like_match(s, p), ref_like(&sc, &pc), "generic {s:?} LIKE {p:?}");
            }
        }
    }

    #[test]
    fn like_kernel_null_rows_stay_null_even_negated() {
        let col = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("apple".into()),
            None,
            Some("".into()),
        ]));
        for negated in [false, true] {
            let out = like_kernel::<Bools>(&col, "%", negated, None).unwrap();
            assert_eq!(out.get(0), Value::Bool(!negated));
            assert_eq!(out.get(1), Value::Null, "NULL-offset row must stay NULL");
            assert_eq!(out.get(2), Value::Bool(!negated));
            let sel_out = like_kernel::<Bools>(&col, "%", negated, Some(&[0, 1, 2])).unwrap();
            assert_eq!(out.to_buffer(None), sel_out.to_buffer(None));
            let picked = like_kernel::<Bools>(&col, "%", negated, Some(&[1, 2])).unwrap();
            assert_eq!(picked.get(0), Value::Null, "NULL row at a position must stay NULL");
            assert_eq!(picked.get(1), Value::Bool(!negated));
        }
    }

    #[test]
    fn eval_sel_matches_dense_on_predicates() {
        let a = Bat::Int(vec![5, NULL_I32, 7, 1, 9, 3]);
        let s = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("apple pie".into()),
            None,
            Some("pear".into()),
            Some("applet".into()),
            Some("grape".into()),
            Some("app".into()),
        ]));
        let cols = vec![Arc::new(a), Arc::new(s)];
        let sel: Vec<u32> = vec![0, 2, 3, 5];
        let exprs = vec![
            BExpr::Cmp {
                op: CmpOp::Gt,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(4))),
            },
            BExpr::Like {
                input: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Varchar }),
                pattern: "app%".into(),
                negated: false,
            },
            BExpr::IsNull {
                input: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                negated: true,
            },
        ];
        let gathered: Vec<Arc<Bat>> = cols.iter().map(|c| Arc::new(c.take(&sel))).collect();
        for e in &exprs {
            let lazy = eval(e, &cols, 6, Some(&sel)).unwrap();
            let dense = eval(e, &gathered, sel.len(), None).unwrap();
            assert_eq!(lazy.to_buffer(None), dense.to_buffer(None), "{e:?}");
        }
    }

    /// A column of `ty` and a constant, from seeds into small tables of
    /// edge values: NULL, zero, ±1, magnitudes that overflow, `-0.0`.
    fn arith_fixture(ty: LogicalType, seeds: &[u8], kpick: usize) -> (Bat, Value) {
        let ints = [NULL_I32, 0, 1, -1, 7, -7, i32::MAX, i32::MIN + 1];
        let bigs = [NULL_I64, 0, 1, -1, 7, -7, i64::MAX, i64::MIN + 1];
        let dbls = [f64::NAN, 0.0, -0.0, 1.5, -2.0, f64::MAX, 1e-300, 3.0];
        let decs = [NULL_I64, 0, 1, -1, 150, i64::MAX / 2, i64::MIN / 2 + 1, 7];
        let pick = |s: u8| s as usize % 8;
        let k = |v: Value| if kpick == 0 { Value::Null } else { v };
        match ty {
            LogicalType::Int => (
                Bat::Int(seeds.iter().map(|&s| ints[pick(s)]).collect()),
                k(Value::Int(ints[kpick])),
            ),
            LogicalType::Date => (
                Bat::Date(seeds.iter().map(|&s| ints[pick(s)] / 4).collect()),
                k(Value::Date(Date(ints[kpick] / 4))),
            ),
            LogicalType::Bigint => (
                Bat::Bigint(seeds.iter().map(|&s| bigs[pick(s)]).collect()),
                k(Value::Bigint(bigs[kpick])),
            ),
            LogicalType::Double => (
                Bat::Double(seeds.iter().map(|&s| dbls[pick(s)]).collect()),
                k(Value::Double(dbls[kpick])),
            ),
            _ => (
                Bat::Decimal { data: seeds.iter().map(|&s| decs[pick(s)]).collect(), scale: 2 },
                k(Value::Decimal(monetlite_types::Decimal::new(decs[kpick], 2))),
            ),
        }
    }

    /// A result column bit for bit, or the error it raised.
    fn outcome(r: Result<Bat>) -> String {
        match r {
            Ok(Bat::Double(v)) => {
                format!("{:?}", v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            }
            Ok(b) => format!("{:?}", b.to_buffer(None)),
            Err(e) => format!("error: {e}"),
        }
    }

    proptest! {
        #[test]
        fn prop_const_operand_arith_equals_materialised_constant(
            seeds in proptest::collection::vec(0u8..255, 0..24),
            kpick in 0usize..8,
        ) {
            // Every op, every type, the constant on either side, a NULL
            // constant: the scalar loops give what materialising the
            // constant gives — the same column, or the same error (overflow,
            // division by zero) from the same first failing row.
            use LogicalType as T;
            let dec = |scale| T::Decimal { width: 18, scale };
            for col_ty in [T::Int, T::Date, T::Bigint, T::Double, dec(2)] {
                let (col, k) = arith_fixture(col_ty, &seeds, kpick);
                for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div, ArithOp::Mod] {
                    let ty = match (col_ty, op) {
                        (T::Date, _) => T::Int,
                        (T::Decimal { .. }, ArithOp::Mul) => dec(4),
                        _ => col_ty,
                    };
                    // A NULL constant materialises in the column's own type:
                    // the typed NULL the binder now gives it.
                    let k_ty = k.logical_type().unwrap_or(col_ty);
                    let kc = materialize_const(&k, k_ty, col.len()).unwrap();
                    for const_left in [false, true] {
                        let want = if const_left { arith(op, &kc, &col, ty) } else { arith(op, &col, &kc, ty) };
                        let got = outcome(arith_const(op, &col, &k, const_left, ty));
                        let label = format!("{col_ty} {op} {k:?} left={const_left}");
                        if k.is_null() {
                            // All NULL in the node's type, even where no
                            // binder-made node reaches (DATE + NULL).
                            let nulls = materialize_const(&Value::Null, ty, col.len());
                            prop_assert_eq!(&got, &outcome(nulls), "{}", label);
                            if want.is_err() {
                                continue;
                            }
                        }
                        prop_assert_eq!(got, outcome(want), "{}", label);
                    }
                }
            }
        }

        #[test]
        fn prop_like_fast_paths_agree_with_matcher(
            s in "[ab%_]{0,12}",
            core in "[ab]{0,4}",
            shape in 0usize..5,
        ) {
            let pattern = match shape {
                0 => core.clone(),
                1 => format!("{core}%"),
                2 => format!("%{core}"),
                3 => format!("%{core}%"),
                _ => format!("%%{core}"),
            };
            let plan = compile_like(&pattern);
            prop_assert!(plan != LikePlan::Generic, "shape {} must compile to a fast path", pattern);
            prop_assert_eq!(like_plan_match(&plan, &pattern, s.as_bytes()), like_match(&s, &pattern),
                "pattern {} over {}", pattern, s);
        }

        #[test]
        fn prop_like_any_pattern_agrees_with_reference(
            s in "[ab%]{0,10}",
            pattern in "[ab%_]{0,8}",
        ) {
            // Arbitrary patterns — including degenerate ones ('', '%', '%%')
            // and Generic shapes — must agree with the reference matcher on
            // both the compiled plan and the backtracking matcher.
            let sc: Vec<char> = s.chars().collect();
            let pc: Vec<char> = pattern.chars().collect();
            let expect = ref_like(&sc, &pc);
            prop_assert_eq!(like_match(&s, &pattern), expect, "generic {} over {}", pattern, s);
            let plan = compile_like(&pattern);
            prop_assert_eq!(like_plan_match(&plan, &pattern, s.as_bytes()), expect,
                "plan {:?} for {} over {}", plan, pattern, s);
        }

        #[test]
        fn prop_like_segment_plans_agree_with_matcher(
            s in "[aéb%]{0,12}",
            pattern in "[aéb%]{0,8}",
        ) {
            // `%`-only patterns never reach the backtracking matcher:
            // overlapping middles ('%aa%aa%' over "aaa"), empty segments,
            // anchors competing for the same bytes and two-byte 'é' are
            // all in this alphabet.
            let plan = compile_like(&pattern);
            prop_assert!(plan != LikePlan::Generic, "{} must not be generic", pattern);
            prop_assert_eq!(like_plan_match(&plan, &pattern, s.as_bytes()), like_match(&s, &pattern),
                "plan {:?} for {} over {}", plan, pattern, s);
        }

        #[test]
        fn prop_like_kernel_on_bytes_agrees_with_str_matcher(
            // 1- to 4-byte characters, literal '%' and '_' in the data, and
            // '' rows; NULL for a string that is exactly "_".
            strs in proptest::collection::vec("[ab\u{e9}\u{20ac}\u{1f600}%_]{0,7}", 1..12),
            core in "[a\u{e9}\u{20ac}\u{1f600}]{0,3}",
            tail in "[ab\u{e9}\u{1f600}_]{0,2}",
            free in "[a\u{e9}\u{20ac}\u{1f600}%_]{0,6}",
            shape in 0usize..7,
        ) {
            // Every plan shape: exact, prefix, suffix, contains, segments,
            // generic, and an arbitrary pattern.
            let pattern = match shape {
                0 => core.clone(),
                1 => format!("{core}%"),
                2 => format!("%{core}"),
                3 => format!("%{core}%"),
                4 => format!("{core}%{tail}%{core}"),
                5 => format!("%{core}_{tail}"),
                _ => free,
            };
            let rows: Vec<Option<String>> =
                strs.into_iter().map(|s| (s != "_").then_some(s)).collect();
            let col = Bat::from_buffer(&ColumnBuffer::Varchar(rows.clone()));
            let sel: Vec<u32> = (0..rows.len() as u32).filter(|i| i % 3 != 1).collect();
            for negated in [false, true] {
                let want = |i: usize| match &rows[i] {
                    None => Value::Null,
                    Some(s) => Value::Bool(like_match(s, &pattern) != negated),
                };
                let dense = like_kernel::<Bools>(&col, &pattern, negated, None).unwrap();
                for (i, row) in rows.iter().enumerate() {
                    prop_assert_eq!(dense.get(i), want(i), "{:?} LIKE {:?}", row, pattern);
                }
                let at = like_kernel::<Bools>(&col, &pattern, negated, Some(&sel)).unwrap();
                for (j, &i) in sel.iter().enumerate() {
                    prop_assert_eq!(at.get(j), want(i as usize), "{:?} LIKE {:?}", rows[i as usize], pattern);
                }
            }
        }

        #[test]
        fn prop_eval_sel_agrees_with_dense_gather(
            a in proptest::collection::vec(-50i32..50, 1..60),
            b in proptest::collection::vec(-50i64..50, 1..60),
            picks in proptest::collection::vec(0usize..60, 0..30),
            k1 in -50i32..50,
            k2 in -50i64..50,
        ) {
            let n = a.len().min(b.len());
            // Values divisible by 5 become NULL sentinels (the vendored
            // proptest shim has no Option strategy).
            let ac: Vec<i32> = a[..n].iter().map(|&v| if v % 5 == 0 { NULL_I32 } else { v }).collect();
            let bc: Vec<i64> = b[..n].iter().map(|&v| if v % 5 == 0 { NULL_I64 } else { v }).collect();
            let cols = vec![Arc::new(Bat::Int(ac)), Arc::new(Bat::Bigint(bc))];
            let sel: Vec<u32> = picks.into_iter().filter(|&p| p < n).map(|p| p as u32).collect();
            let col0 = || Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int });
            let col1 = || Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Bigint });
            // A chain mixing const-cmp, col-col cmp, casts, arithmetic and
            // three-valued logic: (CAST(a AS BIGINT) < b AND a >= k1) OR b = k2
            let e = BExpr::Or(
                Box::new(BExpr::And(
                    Box::new(BExpr::Cmp {
                        op: CmpOp::Lt,
                        left: Box::new(BExpr::Cast { input: col0(), ty: LogicalType::Bigint }),
                        right: col1(),
                    }),
                    Box::new(BExpr::Cmp {
                        op: CmpOp::GtEq,
                        left: col0(),
                        right: Box::new(BExpr::Lit(Value::Int(k1))),
                    }),
                )),
                Box::new(BExpr::Cmp {
                    op: CmpOp::Eq,
                    left: col1(),
                    right: Box::new(BExpr::Lit(Value::Bigint(k2))),
                }),
            );
            let lazy = eval(&e, &cols, n, Some(&sel)).unwrap();
            let gathered: Vec<Arc<Bat>> = cols.iter().map(|c| Arc::new(c.take(&sel))).collect();
            let dense = eval(&e, &gathered, sel.len(), None).unwrap();
            prop_assert_eq!(lazy.to_buffer(None), dense.to_buffer(None));
            // And the derived candidate lists agree too.
            prop_assert_eq!(bool_to_sel(&lazy, None).unwrap(), bool_to_sel(&dense, None).unwrap());
        }

        #[test]
        fn prop_byte_compares_agree_with_str_order(
            a in proptest::collection::vec("[aé€😀ß]{0,4}", 1..30),
            b in proptest::collection::vec("[aé€😀ß]{0,4}", 1..30),
            k in "[aé€😀ß]{0,3}",
        ) {
            // Multi-byte UTF-8 of every width (2, 3 and 4 bytes), with
            // strings starting in 'ß' read as NULL.
            let n = a.len().min(b.len());
            let opt = |s: &String| (!s.starts_with('ß')).then(|| s.clone());
            let (av, bv): (Vec<Option<String>>, Vec<Option<String>>) =
                (a[..n].iter().map(opt).collect(), b[..n].iter().map(opt).collect());
            let l = Bat::from_buffer(&ColumnBuffer::Varchar(av.clone()));
            let r = Bat::from_buffer(&ColumnBuffer::Varchar(bv.clone()));
            let want = |x: &Option<String>, y: Option<&str>, op: CmpOp| match (x, y) {
                (Some(x), Some(y)) => Value::Bool(holds(op, x.as_str().cmp(y))),
                _ => Value::Null,
            };
            let kv = Value::Str(k.clone());
            for op in [CmpOp::Eq, CmpOp::NotEq, CmpOp::Lt, CmpOp::LtEq, CmpOp::Gt, CmpOp::GtEq] {
                let cc = cmp_const::<Bools>(op, &l, &kv, None).unwrap();
                let cv = cmp::<Bools>(op, &l, &r, None).unwrap();
                for i in 0..n {
                    prop_assert_eq!(cc.get(i), want(&av[i], Some(k.as_str()), op));
                    prop_assert_eq!(cv.get(i), want(&av[i], bv[i].as_deref(), op));
                }
            }
        }

        #[test]
        fn prop_eval_at_positions_agrees_with_gathered_columns(
            seeds in proptest::collection::vec(0u8..255, 0..40),
            strs in proptest::collection::vec("[aé€😀ß%]{0,4}", 40..41),
            picks in proptest::collection::vec(0usize..40, 0..24),
            kpick in 0usize..8,
        ) {
            // Evaluating at positions equals evaluating over the columns
            // gathered at those positions (the reference model): the same
            // column bit for bit, or the same error. Two columns of each
            // compared type hold NULLs and edge values; strings are
            // multi-byte, and 'ß'-prefixed ones are NULL.
            use LogicalType as T;
            let n = seeds.len();
            let other: Vec<u8> = seeds.iter().map(|s| s.wrapping_mul(7).wrapping_add(3)).collect();
            let opt = |s: &String| (!s.starts_with('ß')).then(|| s.clone());
            let sv: Vec<Option<String>> = strs[..n].iter().map(opt).collect();
            let tv: Vec<Option<String>> = strs[..n].iter().rev().map(opt).collect();
            let text = |v: &[Option<String>]| Bat::from_buffer(&ColumnBuffer::Varchar(v.to_vec()));
            let mut cols = Vec::new();
            let mut shapes = Vec::new();
            let dec = T::Decimal { width: 18, scale: 2 };
            for ty in [T::Int, T::Bigint, T::Double, dec, T::Varchar] {
                let (c0, c1, k) = if ty == T::Varchar {
                    let k = if kpick == 0 { Value::Null } else { Value::Str(strs[kpick].clone()) };
                    (text(&sv), text(&tv), k)
                } else {
                    let (c0, k) = arith_fixture(ty, &seeds, kpick);
                    (c0, arith_fixture(ty, &other, kpick).0, k)
                };
                shapes.push((cols.len(), ty, k));
                cols.extend([Arc::new(c0), Arc::new(c1)]);
            }
            let bx = Box::new;
            let col = |idx: usize, ty| BExpr::ColRef { idx, ty };
            let cmp = |op, l: &BExpr, r: &BExpr| {
                BExpr::Cmp { op, left: bx(l.clone()), right: bx(r.clone()) }
            };
            let mut exprs = vec![BExpr::Lit(Value::Int(7))];
            for (i, ty, k) in &shapes {
                let (c0, c1, lit) = (col(*i, *ty), col(i + 1, *ty), BExpr::Lit(k.clone()));
                // A computed operand of the column's own type.
                let computed = match ty {
                    T::Varchar => {
                        BExpr::Func { func: ScalarFunc::Upper, args: vec![c0.clone()], ty: *ty }
                    }
                    _ => BExpr::Neg { input: bx(c0.clone()), ty: *ty },
                };
                use CmpOp::*;
                for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                    exprs.extend([
                        cmp(op, &c0, &lit),
                        cmp(op, &lit, &c0),
                        cmp(op, &c0, &c1),
                        cmp(op, &computed, &c1),
                        cmp(op, &computed, &lit),
                    ]);
                }
                for negated in [false, true] {
                    exprs.push(BExpr::IsNull { input: bx(c0.clone()), negated });
                    exprs.push(BExpr::IsNull { input: bx(computed.clone()), negated });
                }
                exprs.push(BExpr::Case {
                    branches: vec![(cmp(CmpOp::Lt, &c0, &lit), c1.clone())],
                    else_expr: Some(bx(computed)),
                    ty: *ty,
                });
            }
            let mut likes = Vec::new();
            for pattern in ["%", "a%", "%é%", "%€", "_%", "a%😀%"] {
                for negated in [false, true] {
                    let input = bx(col(8, T::Varchar));
                    likes.push(BExpr::Like { input, pattern: pattern.into(), negated });
                }
            }
            let (func, args) = (ScalarFunc::Lower, vec![col(9, T::Varchar)]);
            let lower = BExpr::Func { func, args, ty: T::Varchar };
            likes.push(BExpr::Like { input: bx(lower), pattern: "%a%".into(), negated: true });
            // A cast operand beside three-valued logic:
            // (CAST(a AS BIGINT) < b AND a >= 3) OR NOT b IS NULL.
            let widened = BExpr::Cast { input: bx(col(0, T::Int)), ty: T::Bigint };
            exprs.push(BExpr::Or(
                bx(BExpr::And(
                    bx(cmp(CmpOp::Lt, &widened, &col(2, T::Bigint))),
                    bx(cmp(CmpOp::GtEq, &col(0, T::Int), &BExpr::Lit(Value::Int(3)))),
                )),
                bx(BExpr::Not(bx(BExpr::IsNull { input: bx(col(2, T::Bigint)), negated: false }))),
            ));
            let picked: Vec<u32> = picks.into_iter().filter(|&p| p < n).map(|p| p as u32).collect();
            for sel in [picked, Vec::new()] {
                let gathered: Vec<Arc<Bat>> = cols.iter().map(|c| Arc::new(c.take(&sel))).collect();
                for e in exprs.iter().chain(&likes) {
                    let want = outcome(eval(e, &gathered, sel.len(), None));
                    prop_assert_eq!(outcome(eval(e, &cols, n, Some(&sel))), want, "{:?}", e);
                }
                // LIKE keeps NULL rows NULL, negated or not.
                for e in &likes[..likes.len() - 1] {
                    let out = eval(e, &cols, n, Some(&sel)).unwrap();
                    for (j, &i) in sel.iter().enumerate() {
                        let null = sv[i as usize].is_none();
                        prop_assert_eq!(out.get(j) == Value::Null, null, "{:?}", e);
                    }
                }
                // A bare column shared at positions is its gathered copy.
                for (i, ty, _) in &shapes {
                    let shared = eval_shared(&col(*i, *ty), &cols, n, Some(&sel));
                    let want = outcome(Ok((*gathered[*i]).clone()));
                    prop_assert_eq!(outcome(shared.map(Arc::unwrap_or_clone)), want);
                }
            }
        }

        #[test]
        fn prop_like_percent_always_matches(s in ".{0,30}") {
            prop_assert!(like_match(&s, "%"));
        }

        #[test]
        fn prop_like_exact_match(s in "[a-z]{0,20}") {
            prop_assert!(like_match(&s, &s));
        }

        #[test]
        fn prop_like_contains(hay in "[a-z]{0,10}", needle in "[a-z]{1,4}") {
            let s = format!("{hay}{needle}{hay}");
            let pat = format!("%{needle}%");
            prop_assert!(like_match(&s, &pat));
        }

        #[test]
        fn prop_cmp_matches_scalar(a in proptest::collection::vec(-50i32..50, 1..40), k in -50i32..50) {
            let col = Bat::Int(a.clone());
            let b = cmp_const::<Bools>(CmpOp::Lt, &col, &Value::Int(k), None).unwrap();
            let sel = bool_to_sel(&b, None).unwrap();
            let expect: Vec<u32> = a.iter().enumerate().filter(|(_, &x)| x < k).map(|(i, _)| i as u32).collect();
            prop_assert_eq!(sel, expect);
        }

        #[test]
        fn prop_arith_add_matches_scalar(a in proptest::collection::vec(-1000i64..1000, 1..40)) {
            let l = Bat::Bigint(a.clone());
            let r = Bat::Bigint(a.iter().map(|x| x * 2).collect());
            let out = arith(ArithOp::Add, &l, &r, LogicalType::Bigint).unwrap();
            for (i, &x) in a.iter().enumerate() {
                prop_assert_eq!(out.get(i), Value::Bigint(x * 3));
            }
        }
    }
}
