//! High-level (relational-tree) optimizations, paper §3.1: "High level
//! optimizations, such as filter push down, are performed on the
//! relational tree."
//!
//! Passes, in order:
//! 1. **Join-key extraction** — equality conjuncts in ON residuals and in
//!    filters above cross joins become hash-join keys.
//! 2. **Filter push-down** — predicates sink through joins and projections
//!    into scans. Two early-reduction rules follow it:
//!    * **implied single-relation filters** — an OR-of-ANDs residual of
//!      an inner join hands each input the disjunction of every
//!      disjunct's conjuncts over that input, when every disjunct has
//!      one (sound under three-valued logic: where the derived filter is
//!      not TRUE, no disjunct is TRUE);
//!    * **semi/anti-join sinking** — a semi/anti join over an inner-join
//!      cluster whose probe keys and residual read one relation R moves
//!      onto R when `|R|·f ≤ |cluster|` (`f` = the fraction of R it
//!      keeps), i.e. when the rows it removes from R outnumber the extra
//!      probes of R.
//! 3. **Join ordering** — cost-based DPsize enumeration of inner-join
//!    clusters over derived selectivities and distinct-value join
//!    estimates (greedy connected ordering above the relation cap or when
//!    DP is ablated).
//! 4. **Projection push-down** — scans emit only the columns someone
//!    consumes (the column-store advantage on wide tables); columns only
//!    a pushed filter tests are read but never emitted.
//! 5. **Constant folding** and **top-n fusion** (`ORDER BY`+`LIMIT` →
//!    TopN).
//!
//! Cardinality model (the [`estimate_rows`] used by ordering, build-side
//! selection and EXPLAIN's `-- stats` section):
//! * equality against a constant ⇒ `(1 - null_frac) / ndv`;
//! * constant range probes ⇒ the probed fraction of the column's
//!   `[min, max]` span (in the order-preserving key domain);
//! * conjunctions combine with exponential backoff (most selective
//!   conjunct at full strength, each further one square-rooted) so
//!   correlated predicates don't drive estimates to zero;
//! * equi-joins ⇒ `|L|·|R| / max(ndv_L, ndv_R)` with NDVs clamped to the
//!   filtered input sizes;
//! * semi joins ⇒ `|L| · min(1, ndv_build / ndv_probe)` (containment;
//!   anti joins keep the complement, or everything under a residual);
//! * every operator estimate is clamped to `[1, input]` — a vacuous
//!   filter cannot shrink anything downstream.
//!
//! Without column statistics ([`Stats::column_stats`] returning `None`)
//! the per-predicate rules fall back to the fixed constants the optimizer
//! used before statistics existed (composition — backoff, OR/NOT algebra,
//! exact constants — still applies).

use crate::bind::CatalogAccess;
use crate::expr::{BExpr, CmpOp};
use crate::kernels;
use crate::plan::{OutCol, PJoinKind, Plan};
use monetlite_types::{MlError, Result, Value};
use std::cell::RefCell;

/// Optimizer switches (ablation benches toggle these).
#[derive(Debug, Clone, Copy)]
pub struct OptFlags {
    /// Filter + projection push-down.
    pub pushdown: bool,
    /// Join ordering (off = keep the binder's syntactic order).
    pub join_order: bool,
    /// Cost-based DP enumeration for join ordering; `false` falls back to
    /// the greedy connected ordering (the ablation baseline).
    pub join_dp: bool,
    /// Hash-join build-side selection: put the smaller input on the build
    /// side so the larger one streams through the (morsel-parallel) probe.
    pub build_side: bool,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags { pushdown: true, join_order: true, join_dp: true, build_side: true }
    }
}

/// Optimizer-facing statistics of one base-table column, derived from the
/// storage layer's [`monetlite_storage::stats::ColumnStats`] summaries
/// (or synthesised by test shims).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColStats {
    /// Fraction of NULL rows in the column.
    pub null_frac: f64,
    /// Estimated number of distinct non-NULL values.
    pub ndv: f64,
    /// Minimum non-NULL key (order-preserving i64 domain); `None` for
    /// VARCHAR / all-NULL columns.
    pub min_key: Option<i64>,
    /// Maximum non-NULL key (see `min_key`).
    pub max_key: Option<i64>,
}

/// Statistics provider for the cost-based optimizer.
pub trait Stats {
    /// Estimated (visible) row count of a base table.
    fn table_rows(&self, name: &str) -> usize;

    /// Physical row count of a base table, deleted rows included: what a
    /// scan cuts into morsels, so EXPLAIN's morsel count agrees with the
    /// run. Not an estimate; defaults to [`Stats::table_rows`].
    fn physical_rows(&self, name: &str) -> usize {
        self.table_rows(name)
    }

    /// Per-column statistics of base-table column `col` (schema
    /// position). `None` = unknown; the estimator falls back to the fixed
    /// selectivity constants.
    fn column_stats(&self, _table: &str, _col: usize) -> Option<ColStats> {
        None
    }
}

/// A [`Stats`] that knows nothing (all tables equal).
pub struct NoStats;

impl Stats for NoStats {
    fn table_rows(&self, _name: &str) -> usize {
        1000
    }
}

/// How a connection's optimizer sees statistics — the lever of the
/// stats-fuzzing differential tests: plans may differ across modes, query
/// results must not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// Real row counts and real column statistics.
    Real,
    /// Real row counts, no column statistics (the pre-statistics
    /// constant-selectivity model).
    TableRowsOnly,
    /// Deterministically *wrong* statistics derived from the seed —
    /// random row counts, NDVs and ranges. Exercises that costing can
    /// never affect correctness.
    Adversarial(u64),
}

/// Wraps an underlying [`Stats`] with a [`StatsMode`] filter.
pub struct ModedStats<'a> {
    /// The real provider.
    pub inner: &'a dyn Stats,
    /// Filter mode.
    pub mode: StatsMode,
}

use monetlite_storage::stats::mix64;

fn hash_name(seed: u64, name: &str, salt: u64) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x100000001b3);
    for b in name.bytes() {
        h = mix64(h ^ b as u64);
    }
    h
}

impl Stats for ModedStats<'_> {
    fn table_rows(&self, name: &str) -> usize {
        match self.mode {
            StatsMode::Real | StatsMode::TableRowsOnly => self.inner.table_rows(name),
            StatsMode::Adversarial(seed) => 1 + (hash_name(seed, name, 1) % 1_000_000) as usize,
        }
    }

    /// Passed through in every mode: the morsel cut is not an estimate.
    fn physical_rows(&self, name: &str) -> usize {
        self.inner.physical_rows(name)
    }

    fn column_stats(&self, table: &str, col: usize) -> Option<ColStats> {
        match self.mode {
            StatsMode::Real => self.inner.column_stats(table, col),
            StatsMode::TableRowsOnly => None,
            StatsMode::Adversarial(seed) => {
                let h = hash_name(seed, table, 100 + col as u64);
                let ndv = 1.0 + (mix64(h) % 1_000_000) as f64;
                let a = (mix64(h ^ 1) % 100_000) as i64 - 50_000;
                let b = (mix64(h ^ 2) % 100_000) as i64 - 50_000;
                Some(ColStats {
                    null_frac: (mix64(h ^ 3) % 100) as f64 / 100.0,
                    ndv,
                    min_key: Some(a.min(b)),
                    max_key: Some(a.max(b)),
                })
            }
        }
    }
}

/// Run all enabled passes.
pub fn optimize(
    plan: Plan,
    flags: OptFlags,
    stats: &dyn Stats,
    _catalog: &dyn CatalogAccess,
) -> Result<Plan> {
    let memo = StatsMemo::new(stats);
    let stats: &dyn Stats = &memo;
    let mut p = fold_constants(plan)?;
    p = extract_join_keys(p)?;
    if flags.pushdown {
        p = push_filters(p)?;
        derive_disjunct_filters(&mut p)?;
        sink_semi_joins(&mut p, stats)?;
    }
    if flags.join_order {
        p = order_joins(p, stats, flags.join_dp)?;
        // Re-push filters that ordering may have lifted.
        if flags.pushdown {
            p = push_filters(p)?;
        }
    }
    if flags.pushdown {
        p = prune_projections(p)?;
    }
    if flags.build_side {
        p = choose_build_side(p, stats)?.0;
    }
    fuse_topn(&mut p)?;
    Ok(p)
}

/// The statistics one [`optimize`] call reads, each looked up once: the
/// passes ask for the same table's rows and the same column's statistics
/// at every join they cost, and a lookup goes through the catalog (a name
/// fold, a hash probe, a statistics entry). The snapshot does not change
/// within a call, so the first answer is the answer.
struct StatsMemo<'a> {
    inner: &'a dyn Stats,
    rows: RefCell<Vec<(String, usize)>>,
    cols: RefCell<Vec<(String, usize, Option<ColStats>)>>,
}

impl<'a> StatsMemo<'a> {
    fn new(inner: &'a dyn Stats) -> StatsMemo<'a> {
        StatsMemo { inner, rows: RefCell::default(), cols: RefCell::default() }
    }
}

impl Stats for StatsMemo<'_> {
    fn table_rows(&self, name: &str) -> usize {
        if let Some((_, n)) = self.rows.borrow().iter().find(|(t, _)| t == name) {
            return *n;
        }
        let n = self.inner.table_rows(name);
        self.rows.borrow_mut().push((name.to_string(), n));
        n
    }

    fn physical_rows(&self, name: &str) -> usize {
        self.inner.physical_rows(name)
    }

    fn column_stats(&self, table: &str, col: usize) -> Option<ColStats> {
        if let Some((.., cs)) = self.cols.borrow().iter().find(|(t, c, _)| *c == col && t == table)
        {
            return *cs;
        }
        let cs = self.inner.column_stats(table, col);
        self.cols.borrow_mut().push((table.to_string(), col, cs));
        cs
    }
}

// ---------------------------------------------------------------------------
// Build-side selection (streaming pipelines)
// ---------------------------------------------------------------------------

/// The executor builds the hash table on the **right** input of every
/// equi-join and streams the left through the probe. For the pipeline
/// engine that choice decides which side is the breaker: the probe side
/// is carved into morsels and parallelised while the build side is fully
/// materialised. Swap any inner equi-join whose left (probe) estimate is
/// clearly smaller than its right (build) estimate, wrapping the result
/// in a projection that restores the original column order.
///
/// Bottom-up, and each node is estimated at most once: the result carries
/// an [`Est`] of the subtree, which holds the estimates the joins below
/// already computed, and a join reads its inputs' estimates through it.
/// A node is estimated only when a join above needs it, as before.
fn choose_build_side(p: Plan, stats: &dyn Stats) -> Result<(Plan, Est)> {
    let mut ins: Vec<Est> = Vec::with_capacity(2);
    let p = map_children(p, &mut |child| {
        let (child, est) = choose_build_side(child, stats)?;
        ins.push(est);
        Ok(child)
    })?;
    let (left, right, left_keys, right_keys, residual, schema) = match p {
        Plan::Join {
            left,
            right,
            kind: PJoinKind::Inner,
            left_keys,
            right_keys,
            residual,
            schema,
        } if !left_keys.is_empty() => (left, right, left_keys, right_keys, residual, schema),
        other => return Ok((other, Est::Node(ins))),
    };
    let mut ins = ins.into_iter();
    let (le, re) = match (ins.next(), ins.next()) {
        (Some(l), Some(r)) => (l.resolve(&left, stats), r.resolve(&right, stats)),
        _ => (estimate(&left, stats), estimate(&right, stats)),
    };
    // Hysteresis: only swap decisive imbalances — a swap costs a
    // restoring projection and can forfeit an automatic hash index on the
    // old build column.
    if le * 2.0 < re {
        let (nl, nr) = (left.schema().len(), right.schema().len());
        let remap = move |c: usize| if c < nl { c + nr } else { c - nl };
        let residual = residual.map(|r| r.remapped(&remap));
        let swapped_schema: Vec<OutCol> =
            right.schema().iter().chain(left.schema()).cloned().collect();
        let exprs: Vec<BExpr> = (0..nl + nr)
            .map(|c| {
                let idx = remap(c);
                BExpr::ColRef { idx, ty: swapped_schema[idx].ty }
            })
            .collect();
        let join = Plan::Join {
            left: right,
            right: left,
            kind: PJoinKind::Inner,
            left_keys: right_keys,
            right_keys: left_keys,
            residual,
            schema: swapped_schema,
        };
        let est = Est::Node(vec![Est::Node(vec![Est::Known(re), Est::Known(le)])]);
        return Ok((Plan::Project { input: Box::new(join), exprs, schema }, est));
    }
    let join =
        Plan::Join { left, right, kind: PJoinKind::Inner, left_keys, right_keys, residual, schema };
    Ok((join, Est::Node(vec![Est::Known(le), Est::Known(re)])))
}

/// What is known of a subtree's estimates while a pass walks it bottom
/// up: the node's own estimate, or the node's inputs' (in
/// [`map_children`] order), from which its own follows.
enum Est {
    /// The node's estimate.
    Known(f64),
    /// The node's inputs; a leaf has none.
    Node(Vec<Est>),
}

impl Est {
    /// The estimate of `p`, the node this describes: what [`estimate`]
    /// returns, computing only what is not known yet.
    fn resolve(&self, p: &Plan, stats: &dyn Stats) -> f64 {
        match self {
            Est::Known(v) => *v,
            Est::Node(ins) => estimate_with(p, stats, &mut |i, c| match ins.get(i) {
                Some(e) => e.resolve(c, stats),
                None => estimate(c, stats),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 1: join-key extraction
// ---------------------------------------------------------------------------

fn extract_join_keys(p: Plan) -> Result<Plan> {
    Ok(match p {
        Plan::Join { left, right, kind, mut left_keys, mut right_keys, residual, schema } => {
            let left = Box::new(extract_join_keys(*left)?);
            let mut right = Box::new(extract_join_keys(*right)?);
            let nleft = left.schema().len();
            let mut rest = Vec::new();
            if let Some(res) = residual {
                for c in split_and(res) {
                    match classify_equi(c, nleft) {
                        Ok((lk, rk)) => {
                            left_keys.push(lk);
                            right_keys.push(rk);
                        }
                        Err(c) => rest.push(c),
                    }
                }
            }
            // LEFT JOIN: ON conjuncts touching only the build side
            // restrict which rows can match (never which probe rows
            // survive) — sink them into the right input (Q13's
            // `o_comment NOT LIKE ...`).
            if kind == PJoinKind::Left {
                let mut keep = Vec::new();
                let mut sank = false;
                for c in rest {
                    let mut cols = Vec::new();
                    c.collect_cols(&mut cols);
                    if !cols.is_empty() && cols.iter().all(|&x| x >= nleft) {
                        let pred = c.remapped(&|x| x - nleft);
                        right = Box::new(Plan::Filter { input: right, pred });
                        sank = true;
                    } else {
                        keep.push(c);
                    }
                }
                rest = keep;
                // A key-less LEFT join with no residual is the binder's
                // *scalar join* shape (right side must hold ≤ 1 row).
                // Sinking must not manufacture it from a user LEFT JOIN —
                // keep a vacuous residual so the executors take the
                // general cross-pair + pad path.
                if sank && left_keys.is_empty() && rest.is_empty() {
                    rest.push(BExpr::Lit(Value::Bool(true)));
                }
            }
            let kind = if kind == PJoinKind::Cross && !left_keys.is_empty() {
                PJoinKind::Inner
            } else {
                kind
            };
            let residual = rest.into_iter().reduce(|a, b| BExpr::And(Box::new(a), Box::new(b)));
            Plan::Join { left, right, kind, left_keys, right_keys, residual, schema }
        }
        other => map_children(other, &mut |c| extract_join_keys(c))?,
    })
}

/// If `e` is `l = r` with `l` touching only columns < nleft and `r` only
/// columns >= nleft (or vice versa), return the (left-side, right-side)
/// key pair with the right side remapped into right-plan coordinates;
/// otherwise hand `e` back.
fn classify_equi(e: BExpr, nleft: usize) -> std::result::Result<(BExpr, BExpr), BExpr> {
    let BExpr::Cmp { op: crate::expr::CmpOp::Eq, left, right } = e else {
        return Err(e);
    };
    // Some(true) = pure left, Some(false) = pure right, None = a constant
    // (not a join key) or both sides.
    let side = |x: &BExpr| -> Option<bool> {
        let (mut l, mut r) = (false, false);
        x.walk(&mut |e| {
            if let BExpr::ColRef { idx, .. } = e {
                if *idx < nleft {
                    l = true;
                } else {
                    r = true;
                }
            }
        });
        (l != r).then_some(l)
    };
    match (side(&left), side(&right)) {
        (Some(true), Some(false)) => Ok((*left, right.remapped(&|c| c - nleft))),
        (Some(false), Some(true)) => Ok((*right, left.remapped(&|c| c - nleft))),
        _ => Err(BExpr::Cmp { op: crate::expr::CmpOp::Eq, left, right }),
    }
}

fn split_and(e: BExpr) -> Vec<BExpr> {
    match e {
        BExpr::And(a, b) => {
            let mut v = split_and(*a);
            v.extend(split_and(*b));
            v
        }
        other => vec![other],
    }
}

// ---------------------------------------------------------------------------
// Pass 2: filter push-down
// ---------------------------------------------------------------------------

fn push_filters(p: Plan) -> Result<Plan> {
    Ok(match p {
        Plan::Filter { input, pred } => {
            let input = push_filters(*input)?;
            let mut out = input;
            for c in split_and(pred) {
                out = push_one_filter(out, c)?;
            }
            out
        }
        other => map_children(other, &mut |c| push_filters(c))?,
    })
}

fn push_one_filter(p: Plan, pred: BExpr) -> Result<Plan> {
    match p {
        Plan::Scan { table, projected, mut filters, schema } => {
            filters.push(pred);
            Ok(Plan::Scan { table, projected, filters, schema })
        }
        Plan::Filter { input, pred: inner } => {
            // Sink below the existing filter, then keep it.
            let pushed = push_one_filter(*input, pred)?;
            Ok(Plan::Filter { input: Box::new(pushed), pred: inner })
        }
        Plan::Join { left, right, kind, left_keys, right_keys, residual, schema } => {
            let nleft = left.schema().len();
            let mut cols = Vec::new();
            pred.collect_cols(&mut cols);
            let pure_left = cols.iter().all(|&c| c < nleft);
            let pure_right = cols.iter().all(|&c| c >= nleft);
            // Outer joins: only left-side predicates can sink to the left;
            // right-side ones would change padding semantics.
            match kind {
                PJoinKind::Inner | PJoinKind::Cross | PJoinKind::Semi | PJoinKind::Anti
                    if pure_left =>
                {
                    let left = Box::new(push_one_filter(*left, pred)?);
                    return Ok(Plan::Join {
                        left,
                        right,
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    });
                }
                PJoinKind::Left if pure_left => {
                    let left = Box::new(push_one_filter(*left, pred)?);
                    return Ok(Plan::Join {
                        left,
                        right,
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    });
                }
                PJoinKind::Inner | PJoinKind::Cross if pure_right => {
                    let remapped = pred.remapped(&|c| c - nleft);
                    let right = Box::new(push_one_filter(*right, remapped)?);
                    return Ok(Plan::Join {
                        left,
                        right,
                        kind,
                        left_keys,
                        right_keys,
                        residual,
                        schema,
                    });
                }
                _ => {}
            }
            // Try as a new equi-key on inner/cross joins.
            if matches!(kind, PJoinKind::Inner | PJoinKind::Cross) {
                let pred = match classify_equi(pred, nleft) {
                    Ok((lk, rk)) => {
                        let mut lks = left_keys;
                        let mut rks = right_keys;
                        lks.push(lk);
                        rks.push(rk);
                        return Ok(Plan::Join {
                            left,
                            right,
                            kind: PJoinKind::Inner,
                            left_keys: lks,
                            right_keys: rks,
                            residual,
                            schema,
                        });
                    }
                    Err(pred) => pred,
                };
                // Cross-side residual.
                let residual = match residual {
                    None => Some(pred),
                    Some(r) => Some(BExpr::And(Box::new(r), Box::new(pred))),
                };
                return Ok(Plan::Join {
                    left,
                    right,
                    kind,
                    left_keys,
                    right_keys,
                    residual,
                    schema,
                });
            }
            Ok(Plan::Filter {
                input: Box::new(Plan::Join {
                    left,
                    right,
                    kind,
                    left_keys,
                    right_keys,
                    residual,
                    schema,
                }),
                pred,
            })
        }
        Plan::Project { input, exprs, schema } => {
            // Substitute output expressions into the predicate; always
            // safe because Project is pure.
            let substituted = substitute(&pred, &exprs);
            let input = push_one_filter(*input, substituted)?;
            Ok(Plan::Project { input: Box::new(input), exprs, schema })
        }
        other => Ok(Plan::Filter { input: Box::new(other), pred }),
    }
}

// ---------------------------------------------------------------------------
// Pass 2b: implied single-relation filters from disjunctions
// ---------------------------------------------------------------------------

/// For each OR-shaped conjunct of an inner/cross join's residual that
/// spans both inputs, derive per input the disjunction of each
/// disjunct's conjuncts over that input alone, and push it into the
/// input (Q7's `(n1 = FRANCE and n2 = GERMANY) or (n1 = GERMANY and n2 =
/// FRANCE)` filters both nation scans). The residual itself is kept. Top
/// down, so a derived predicate that still spans a subtree is split again
/// at the join below. Filter push-down has already turned every WHERE
/// disjunction over a join into such a residual; LEFT/semi/anti joins
/// are never derived from, so nothing enters a null-supplying side.
fn derive_disjunct_filters(p: &mut Plan) -> Result<()> {
    if let Plan::Join {
        left,
        right,
        kind: PJoinKind::Inner | PJoinKind::Cross,
        residual: Some(res),
        ..
    } = p
    {
        let nleft = left.schema().len();
        let mut conjuncts = Vec::new();
        split_and_refs(res, &mut conjuncts);
        for c in conjuncts {
            let mut cols = Vec::new();
            c.collect_cols(&mut cols);
            if !matches!(c, BExpr::Or(..))
                || cols.iter().all(|&x| x < nleft)
                || cols.iter().all(|&x| x >= nleft)
            {
                continue;
            }
            if let Some(d) = implied_filter(c, &|x| x < nleft) {
                push_into(left, d)?;
            }
            if let Some(d) = implied_filter(c, &|x| x >= nleft) {
                push_into(right, d.remapped(&|x| x - nleft))?;
            }
        }
    }
    for_each_child_mut(p, &mut derive_disjunct_filters)
}

/// [`push_one_filter`] into a child slot, in place.
fn push_into(slot: &mut Plan, pred: BExpr) -> Result<()> {
    let child = Plan::take(slot);
    *slot = push_one_filter(child, pred)?;
    Ok(())
}

/// `OR_i(AND of disjunct i's conjuncts whose columns all satisfy
/// `on_side`)`, or `None` when some disjunct has no such conjunct.
/// Sound under three-valued logic: if the derived predicate is not TRUE,
/// every disjunct has a conjunct that is not TRUE, so no disjunct — and
/// hence not the original predicate — is TRUE; filtering on it never
/// drops a row the original keeps.
fn implied_filter(pred: &BExpr, on_side: &dyn Fn(usize) -> bool) -> Option<BExpr> {
    let mut disjuncts = Vec::new();
    split_or_refs(pred, &mut disjuncts);
    let local: Option<Vec<BExpr>> = disjuncts
        .into_iter()
        .map(|d| {
            let mut conjuncts = Vec::new();
            split_and_refs(d, &mut conjuncts);
            conjuncts
                .into_iter()
                .filter(|c| {
                    let mut cols = Vec::new();
                    c.collect_cols(&mut cols);
                    !cols.is_empty() && cols.into_iter().all(on_side)
                })
                .cloned()
                .reduce(|a, b| BExpr::And(Box::new(a), Box::new(b)))
        })
        .collect();
    local?.into_iter().reduce(|a, b| BExpr::Or(Box::new(a), Box::new(b)))
}

/// Split a disjunction without consuming it.
fn split_or_refs<'a>(e: &'a BExpr, out: &mut Vec<&'a BExpr>) {
    match e {
        BExpr::Or(a, b) => {
            split_or_refs(a, out);
            split_or_refs(b, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------------
// Pass 2c: semi/anti-join sinking
// ---------------------------------------------------------------------------

/// Move a semi/anti join over an inner-join cluster onto the one relation
/// R its probe keys and residual read — `(R ⋈ S) ⋉ B = (R ⋉ B) ⋈ S` when
/// the join reads only R's columns — when the estimator says it is
/// cheaper there. Above the cluster it probes `|cluster|` rows; at R it
/// probes `|R|` rows but leaves `|R|·f` (f = [`semi_keep_fraction`]) for
/// the rest of the cluster, paying off when the rows it removes from R
/// outnumber the extra probes: `|R| − |R|·f ≥ |R| − |cluster|`, i.e.
/// `|R|·f ≤ |cluster|`. Q18's `IN (… having sum > 300)` sinks onto
/// orders; Q21's EXISTS removes nothing from l1 (f = 1) while the
/// cluster is far smaller than l1, so it stays above. A NOT IN's NULL
/// guard sits above the anti join and is untouched: the anti join keeps
/// its output schema wherever it runs. Runs before join ordering, which
/// then orders the cluster around the reduced relation.
fn sink_semi_joins(p: &mut Plan, stats: &dyn Stats) -> Result<()> {
    for_each_child_mut(p, &mut |c| sink_semi_joins(c, stats))?;
    let Plan::Join {
        left,
        right,
        kind: kind @ (PJoinKind::Semi | PJoinKind::Anti),
        left_keys,
        right_keys,
        residual,
        ..
    } = &*p
    else {
        return Ok(());
    };
    if !matches!(
        left.as_ref(),
        Plan::Join { kind: PJoinKind::Inner | PJoinKind::Cross, .. } | Plan::Project { .. }
    ) {
        return Ok(());
    }
    // Decide on the borrowed plan; only a join that moves is rebuilt.
    let nleft = left.schema().len();
    let cluster_est = estimate(left, stats);
    let mut rels = Vec::new();
    let root_map = cluster_rels(left, &mut rels);
    if rels.len() < 2 {
        return Ok(());
    }
    // Which relation do the probe keys and the residual's probe-side
    // columns read?
    let mut cols = Vec::new();
    for k in left_keys {
        k.collect_cols(&mut cols);
    }
    if let Some(res) = residual {
        res.collect_cols(&mut cols);
    }
    let offsets = flat_offsets(&rels);
    let rel_of_flat = |c: usize| offsets.partition_point(|&o| o <= c) - 1;
    let mut owners = cols.iter().filter(|&&c| c < nleft).map(|&c| rel_of_flat(root_map[c]));
    let Some(owner) = owners.next() else {
        return Ok(());
    };
    if owners.any(|o| o != owner) {
        return Ok(());
    }
    let base = offsets[owner];
    let local = |c: usize| root_map[c] - base;
    let rel = rels[owner];
    let (r_est, b_est) = (estimate(rel, stats), estimate(right, stats));
    let sunk_keys: Vec<BExpr> = left_keys.iter().map(|k| k.remap_cols(&local)).collect();
    let keep = keep_fraction(
        *kind,
        rel,
        right,
        &sunk_keys,
        right_keys,
        residual.is_some(),
        r_est,
        b_est,
        stats,
    );
    if r_est * keep > cluster_est {
        return Ok(());
    }
    // Move the join onto relation `owner`.
    let (nrels, borrowed_map) = (rels.len(), root_map);
    let Plan::Join { left, right, kind, right_keys, residual, schema, .. } = Plan::take(p) else {
        return Err(MlError::Execution("sink_semi_joins: the semi join vanished".into()));
    };
    let mut rels = Vec::new();
    let mut preds = Vec::new();
    let root_map = flatten_join_cluster(*left, &mut rels, &mut preds)?;
    if rels.len() != nrels || root_map != borrowed_map {
        return Err(MlError::Execution(
            "sink_semi_joins: cluster_rels and flatten_join_cluster cut the cluster apart".into(),
        ));
    }
    let rel = Plan::take(&mut rels[owner]);
    let rwidth = rel.schema().len();
    let local = |c: usize| root_map[c] - base;
    rels[owner] = Plan::Join {
        schema: rel.schema().to_vec(),
        left: Box::new(rel),
        right,
        kind,
        left_keys: sunk_keys,
        right_keys,
        residual: residual
            .map(|res| res.remapped(&|c| if c < nleft { local(c) } else { c - nleft + rwidth })),
    };
    let joined = rebuild_cluster(rels, preds)?;
    *p = restore_projection(joined, &root_map, &|c| c, schema);
    Ok(())
}

/// Replace every `ColRef { idx }` in `pred` with `exprs[idx]` (also used
/// by the binder to recompute a subquery's projected expression over
/// joined aggregate columns).
pub(crate) fn substitute(pred: &BExpr, exprs: &[BExpr]) -> BExpr {
    match pred {
        BExpr::ColRef { idx, .. } => exprs[*idx].clone(),
        BExpr::Lit(v) => BExpr::Lit(v.clone()),
        BExpr::Param { idx, value } => BExpr::Param { idx: *idx, value: value.clone() },
        BExpr::Cast { input, ty } => {
            BExpr::Cast { input: Box::new(substitute(input, exprs)), ty: *ty }
        }
        BExpr::Arith { op, left, right, ty } => BExpr::Arith {
            op: *op,
            left: Box::new(substitute(left, exprs)),
            right: Box::new(substitute(right, exprs)),
            ty: *ty,
        },
        BExpr::Cmp { op, left, right } => BExpr::Cmp {
            op: *op,
            left: Box::new(substitute(left, exprs)),
            right: Box::new(substitute(right, exprs)),
        },
        BExpr::And(a, b) => {
            BExpr::And(Box::new(substitute(a, exprs)), Box::new(substitute(b, exprs)))
        }
        BExpr::Or(a, b) => {
            BExpr::Or(Box::new(substitute(a, exprs)), Box::new(substitute(b, exprs)))
        }
        BExpr::Not(a) => BExpr::Not(Box::new(substitute(a, exprs))),
        BExpr::IsNull { input, negated } => {
            BExpr::IsNull { input: Box::new(substitute(input, exprs)), negated: *negated }
        }
        BExpr::Like { input, pattern, negated } => BExpr::Like {
            input: Box::new(substitute(input, exprs)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        BExpr::Case { branches, else_expr, ty } => BExpr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (substitute(c, exprs), substitute(v, exprs)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(substitute(e, exprs))),
            ty: *ty,
        },
        BExpr::Func { func, args, ty } => BExpr::Func {
            func: *func,
            args: args.iter().map(|a| substitute(a, exprs)).collect(),
            ty: *ty,
        },
        BExpr::Neg { input, ty } => {
            BExpr::Neg { input: Box::new(substitute(input, exprs)), ty: *ty }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 3: join ordering
// ---------------------------------------------------------------------------

/// Relation cap for DP enumeration; larger clusters fall back to the
/// greedy connected ordering (DP is O(2^n · n²), greedy O(n²·preds)).
pub const JOIN_DP_CAP: usize = 10;

/// Order maximal inner/cross-join clusters. With `dp` on and at most
/// [`JOIN_DP_CAP`] relations: DPsize over subsets of the join graph,
/// minimising the summed intermediate cardinalities under the
/// distinct-value join estimate. Otherwise: greedy connected ordering by
/// estimated cardinality (filtered scans first), falling back to a cross
/// join only when nothing is connected.
fn order_joins(p: Plan, stats: &dyn Stats, dp: bool) -> Result<Plan> {
    let p = map_children(p, &mut |c| order_joins(c, stats, dp))?;
    // Collect a flat cluster of inner/cross joined relations.
    let Plan::Join { kind: PJoinKind::Inner | PJoinKind::Cross, .. } = &p else {
        return Ok(p);
    };
    let out_schema: Vec<OutCol> = p.schema().to_vec();
    let mut rels: Vec<Plan> = Vec::new();
    let mut preds: Vec<BExpr> = Vec::new(); // over the flat concatenated schema
                                            // `root_map[i]` = flat column carried by the cluster's output `i`
                                            // (pure projections between joins are flattened through, so the
                                            // cluster output can be a permutation/subset of the flat schema).
    let root_map = flatten_join_cluster(p, &mut rels, &mut preds)?;
    if rels.len() <= 2 {
        let joined = rebuild_cluster(rels, preds)?;
        return Ok(restore_projection(joined, &root_map, &|c| c, out_schema));
    }
    let offsets = flat_offsets(&rels);
    let total_cols = col_count(&rels);
    let rel_of_col = |c: usize| -> usize {
        match offsets.binary_search(&c) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };
    // Per-relation estimates: pushed filters shrink base rows via derived
    // selectivities (constants when no column stats exist).
    let est: Vec<f64> = rels.iter().map(|r| estimate(r, stats)).collect();
    let n = rels.len();
    let order = choose_order(&rels, &preds, &est, &offsets, &rel_of_col, stats, dp);
    // Rebuild left-deep in the chosen order, remapping predicates from the
    // original flat schema to the new one.
    let mut new_offsets = vec![0usize; n];
    let mut acc = 0usize;
    for &r in &order {
        new_offsets[r] = acc;
        acc += rels[r].schema().len();
    }
    debug_assert_eq!(acc, total_cols);
    let col_map: Vec<usize> = (0..total_cols)
        .map(|c| {
            let r = rel_of_col(c);
            new_offsets[r] + (c - offsets[r])
        })
        .collect();
    let preds: Vec<BExpr> = preds.into_iter().map(|p| p.remapped(&|c| col_map[c])).collect();
    // Move each relation into its place: `order` is a permutation.
    let mut slots: Vec<Option<Plan>> = rels.into_iter().map(Some).collect();
    let rels_by_order: Vec<Plan> = order.iter().filter_map(|&r| slots[r].take()).collect();
    let joined = rebuild_cluster(rels_by_order, preds)?;
    // Final projection restoring the cluster's original output columns.
    Ok(restore_projection(joined, &root_map, &|c| col_map[c], out_schema))
}

/// The order to join a cluster's relations in: DPsize when `dp` is on
/// and there are at most [`JOIN_DP_CAP`] relations, else the greedy
/// connected ordering. `est` holds the relations' estimates, `offsets`
/// their first flat column, and `rel_of_col` maps a flat column to its
/// relation.
fn choose_order(
    rels: &[Plan],
    preds: &[BExpr],
    est: &[f64],
    offsets: &[usize],
    rel_of_col: &dyn Fn(usize) -> usize,
    stats: &dyn Stats,
    dp: bool,
) -> Vec<usize> {
    let touched = touched_rels(preds, rel_of_col);
    if !dp || rels.len() > JOIN_DP_CAP {
        return greedy_order(est, &touched);
    }
    let infos = pred_infos(rels, preds, &touched, est, offsets, rel_of_col, stats);
    // `None` is unreachable in practice (cross extensions make every
    // subset solvable), but never fail the query over ordering.
    match dp_order(est, &infos) {
        Some((_, order)) => order,
        None => greedy_order(est, &touched),
    }
}

/// The relations each predicate reads, ascending.
fn touched_rels(preds: &[BExpr], rel_of_col: &dyn Fn(usize) -> usize) -> Vec<Vec<usize>> {
    preds
        .iter()
        .map(|p| {
            let mut cols = Vec::new();
            p.collect_cols(&mut cols);
            let mut rs: Vec<usize> = cols.into_iter().map(rel_of_col).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
        .collect()
}

/// Each predicate's relation mask and join selectivity, for [`dp_order`].
fn pred_infos(
    rels: &[Plan],
    preds: &[BExpr],
    touched: &[Vec<usize>],
    est: &[f64],
    offsets: &[usize],
    rel_of_col: &dyn Fn(usize) -> usize,
    stats: &dyn Stats,
) -> Vec<PredInfo> {
    preds
        .iter()
        .zip(touched)
        .map(|(p, rs)| PredInfo {
            mask: rs.iter().fold(0, |m, &r| m | 1 << r),
            sel: join_pred_selectivity(p, rels, est, offsets, rel_of_col, stats),
        })
        .collect()
}

/// Wrap the rebuilt cluster in a projection producing exactly the
/// original output columns: output `i` = rebuilt column
/// `remap(root_map[i])`.
fn restore_projection(
    joined: Plan,
    root_map: &[usize],
    remap: &dyn Fn(usize) -> usize,
    schema: Vec<OutCol>,
) -> Plan {
    let identity = joined.schema().len() == root_map.len()
        && root_map.iter().enumerate().all(|(i, &c)| remap(c) == i);
    if identity {
        return joined;
    }
    let exprs: Vec<BExpr> = root_map
        .iter()
        .map(|&c| {
            let newc = remap(c);
            BExpr::ColRef { idx: newc, ty: joined.schema()[newc].ty }
        })
        .collect();
    Plan::Project { input: Box::new(joined), exprs, schema }
}

/// The pre-statistics ordering: start from the smallest estimated
/// relation, repeatedly join the connected relation with the smallest
/// estimate (the first among equals), or the smallest of all when none is
/// connected. `touched[p]` lists the relations predicate `p` reads.
fn greedy_order(est: &[f64], touched: &[Vec<usize>]) -> Vec<usize> {
    let n = est.len();
    let smaller = |a: &usize, b: &usize| est[*a].total_cmp(&est[*b]);
    let mut used = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut next = (0..n).min_by(smaller);
    while let Some(r) = next {
        used[r] = true;
        order.push(r);
        // A relation is connected when a predicate reads it and a used one.
        let connected =
            |i: &usize| touched.iter().any(|rs| rs.contains(i) && rs.iter().any(|&r| used[r]));
        let unused = (0..n).filter(|&i| !used[i]);
        next = unused.clone().filter(connected).min_by(smaller).or_else(|| unused.min_by(smaller));
    }
    order
}

/// One flat-schema predicate, pre-analysed for DP costing.
struct PredInfo {
    /// Bitmask of relations the predicate touches.
    mask: u32,
    /// Selectivity contribution once all touched relations are joined.
    sel: f64,
}

/// DPsize over left-deep join orders: `dp[S]` is the cheapest order of
/// the relation subset `S`, costed as the sum of all intermediate result
/// cardinalities. `card(S)` is order-independent — the product of the
/// member estimates and the selectivity of every predicate fully
/// contained in `S` — so plans are compared on a consistent model.
/// Cross-join extensions are only considered when no connected extension
/// exists (the classic connected-subgraph restriction).
///
/// The table holds, per subset, its cost and the relation joined last;
/// the order is read back along those pointers, so extending a subset
/// allocates nothing. Adjacency is one bitmask per relation.
fn dp_order(est: &[f64], infos: &[PredInfo]) -> Option<(f64, Vec<usize>)> {
    let n = est.len();
    let full: u32 = (1u32 << n) - 1;
    // `adj[i]`: the relations a predicate touching `i` also touches, so
    // `i` extends subset `S` connectedly iff `adj[i] & S != 0`.
    let mut adj = [0u32; JOIN_DP_CAP];
    for pi in infos {
        for (i, a) in adj.iter_mut().enumerate().take(n) {
            if pi.mask & (1 << i) != 0 {
                *a |= pi.mask & !(1 << i);
            }
        }
    }
    // card(S): the member estimates multiplied in index order, then the
    // selectivity of each predicate inside S in predicate order; `prod[S]`
    // holds the first product, built from S without its highest member,
    // which is that product's prefix.
    let mut prod = vec![1.0f64; (full + 1) as usize];
    let card_of = |s: u32, prod: f64| -> f64 {
        let mut c = prod;
        for pi in infos {
            if pi.mask & s == pi.mask {
                c *= pi.sel;
            }
        }
        c.max(1.0)
    };
    // dp over subsets by population count, each count in increasing
    // order; value = (cost, last relation). The epsilon base cost breaks
    // cost ties toward starting from the smallest relation (the filtered
    // dimension leads the probe chain) — it vanishes against any real
    // cardinality difference.
    let mut dp: Vec<Option<(f64, usize)>> = vec![None; (full + 1) as usize];
    for (i, &e) in est.iter().enumerate() {
        prod[1usize << i] *= e;
        dp[1usize << i] = Some((e * 1e-6, i));
    }
    for k in 2..=n as u32 {
        let mut s: u32 = (1 << k) - 1;
        while s <= full {
            let high = 31 - s.leading_zeros();
            prod[s as usize] = prod[(s & !(1 << high)) as usize] * est[high as usize];
            // The cheapest connected last-relation extension, and the
            // cheapest of all (cross joins), each the first minimum in
            // index order; cross joins count only when the subset admits
            // no connected order.
            let mut card = None;
            let mut connected: Option<(f64, usize)> = None;
            let mut any = None;
            let mut members = s;
            while members != 0 {
                let last = members.trailing_zeros() as usize;
                members &= members - 1;
                let Some((prev_cost, _)) = dp[(s & !(1 << last)) as usize] else {
                    continue;
                };
                let c = *card.get_or_insert_with(|| card_of(s, prod[s as usize]));
                let cost = prev_cost + c;
                if adj[last] & s != 0 && connected.is_none_or(|(b, _)| cost < b) {
                    connected = Some((cost, last));
                }
                if any.is_none_or(|(b, _)| cost < b) {
                    any = Some((cost, last));
                }
            }
            dp[s as usize] = connected.or(any);
            // Next subset of `k` members (Gosper's hack).
            let low = s & s.wrapping_neg();
            let ripple = s + low;
            s = (((ripple ^ s) >> 2) / low) | ripple;
        }
    }
    let (cost, _) = dp[full as usize]?;
    let mut order = vec![0; n];
    let mut s = full;
    for slot in order.iter_mut().rev() {
        let (_, last) = dp[s as usize]?;
        *slot = last;
        s &= !(1 << last);
    }
    Some((cost, order))
}

/// Selectivity of one flat-schema predicate for DP costing. Equality
/// between bare columns of two relations uses the distinct-value join
/// estimate `1 / max(ndv_l, ndv_r)` (NDVs clamped to the filtered inputs,
/// so a filter on a dimension propagates); anything else falls back to
/// the fixed constant.
fn join_pred_selectivity(
    p: &BExpr,
    rels: &[Plan],
    est: &[f64],
    offsets: &[usize],
    rel_of_col: &dyn Fn(usize) -> usize,
    stats: &dyn Stats,
) -> f64 {
    let BExpr::Cmp { op: CmpOp::Eq, left, right } = p else {
        return DEFAULT_SEL;
    };
    // NDV of one side: a bare flat-schema column whose relation resolves
    // to base-column stats; fallback = the relation's own cardinality
    // (keys assumed near-unique).
    let side_ndv = |e: &BExpr| -> Option<f64> {
        let BExpr::ColRef { idx, .. } = e else {
            return None;
        };
        let r = rel_of_col(*idx);
        let local = *idx - offsets[r];
        let ndv = match col_stats_of(&rels[r], local, stats) {
            Some(cs) if cs.ndv >= 1.0 => cs.ndv,
            _ => est[r],
        };
        Some(ndv.min(est[r]).max(1.0))
    };
    match (side_ndv(left), side_ndv(right)) {
        (Some(a), Some(b)) => 1.0 / a.max(b),
        _ => DEFAULT_SEL,
    }
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

/// Fallback selectivity for predicates the model cannot analyse — the
/// pre-statistics per-filter constant (`/4.0`).
const DEFAULT_SEL: f64 = 0.25;

/// Fallback group-count divisor (the pre-statistics `/10.0`).
const DEFAULT_GROUP_DIV: f64 = 10.0;

/// Estimated output rows of a plan (public for EXPLAIN's `-- stats`
/// section and the benches/tests).
pub fn estimate_rows(p: &Plan, stats: &dyn Stats) -> f64 {
    estimate(p, stats)
}

/// Resolve an output column of `p` to the base-table column it carries
/// unchanged, if any.
fn base_col_of(p: &Plan, col: usize) -> Option<(&str, usize)> {
    match p {
        Plan::Scan { table, projected, .. } => projected.get(col).map(|&c| (table.as_str(), c)),
        Plan::Filter { input, .. } => base_col_of(input, col),
        Plan::Project { input, exprs, .. } => match exprs.get(col)? {
            BExpr::ColRef { idx, .. } => base_col_of(input, *idx),
            _ => None,
        },
        Plan::Join { left, right, kind, .. } => {
            let nleft = left.schema().len();
            if col < nleft {
                base_col_of(left, col)
            } else if !matches!(kind, PJoinKind::Semi | PJoinKind::Anti) {
                base_col_of(right, col - nleft)
            } else {
                None
            }
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } | Plan::TopN { input, .. } => {
            base_col_of(input, col)
        }
        Plan::Aggregate { input, groups, .. } => match groups.get(col)? {
            BExpr::ColRef { idx, .. } => base_col_of(input, *idx),
            _ => None,
        },
        Plan::Values { .. } => None,
    }
}

/// Column statistics of output column `col` of `p`, when it traces to a
/// base-table column.
fn col_stats_of(p: &Plan, col: usize, stats: &dyn Stats) -> Option<ColStats> {
    let (t, c) = base_col_of(p, col)?;
    stats.column_stats(t, c)
}

/// Split a conjunction without consuming it.
fn split_and_refs<'a>(e: &'a BExpr, out: &mut Vec<&'a BExpr>) {
    match e {
        BExpr::And(a, b) => {
            split_and_refs(a, out);
            split_and_refs(b, out);
        }
        other => out.push(other),
    }
}

/// Selectivity of one predicate over the output of `input`.
fn selectivity(pred: &BExpr, input: &Plan, stats: &dyn Stats) -> f64 {
    // Plan-cache templates estimate with their representative literals so
    // a template gets the same join order / build sides as the plan the
    // same statement would get uncached (estimate parity).
    if pred.has_param() {
        let repr = pred.resolve_params(&|_, v| v.clone());
        return selectivity(&repr, input, stats);
    }
    // A constant predicate selects everything or nothing; the old model
    // charged it a /4 like any other conjunct, which skewed build-side
    // choices downstream (covers un-folded `1 = 1` residuals too).
    if pred.is_const() {
        if let Ok(out) = kernels::eval(pred, &[], 1, None) {
            return match out.get(0) {
                Value::Bool(true) => 1.0,
                _ => 0.0,
            };
        }
    }
    let s = match pred {
        BExpr::Lit(Value::Bool(true)) => 1.0,
        BExpr::Lit(Value::Bool(false)) | BExpr::Lit(Value::Null) => 0.0,
        BExpr::And(..) => {
            let mut parts = Vec::new();
            split_and_refs(pred, &mut parts);
            conj_selectivity(&parts, input, stats)
        }
        BExpr::Or(a, b) => {
            let (sa, sb) = (selectivity(a, input, stats), selectivity(b, input, stats));
            sa + sb - sa * sb
        }
        BExpr::Not(a) => 1.0 - selectivity(a, input, stats),
        BExpr::IsNull { input: e, negated } => {
            let nf = match e.as_ref() {
                BExpr::ColRef { idx, .. } => {
                    col_stats_of(input, *idx, stats).map(|cs| cs.null_frac)
                }
                _ => None,
            };
            match (nf, negated) {
                (Some(nf), false) => nf,
                (Some(nf), true) => 1.0 - nf,
                (None, false) => 0.1,
                (None, true) => 0.9,
            }
        }
        BExpr::Like { negated, .. } => {
            if *negated {
                1.0 - DEFAULT_SEL
            } else {
                DEFAULT_SEL
            }
        }
        BExpr::Cmp { .. } => cmp_selectivity(pred, input, stats),
        _ => DEFAULT_SEL,
    };
    s.clamp(0.0, 1.0)
}

/// Selectivity of a column-vs-constant comparison from the column's
/// NDV / null fraction / min-max range; [`DEFAULT_SEL`] when the shape or
/// the statistics are unavailable.
fn cmp_selectivity(pred: &BExpr, input: &Plan, stats: &dyn Stats) -> f64 {
    // `col <> const`: the complement of one distinct value.
    if let BExpr::Cmp { op: CmpOp::NotEq, left, right } = pred {
        let col = match (left.as_ref(), right.as_ref()) {
            (BExpr::ColRef { idx, .. }, BExpr::Lit(v)) if !v.is_null() => Some(*idx),
            (BExpr::Lit(v), BExpr::ColRef { idx, .. }) if !v.is_null() => Some(*idx),
            _ => None,
        };
        if let Some(cs) = col.and_then(|c| col_stats_of(input, c, stats)) {
            if cs.ndv >= 1.0 {
                return (1.0 - cs.null_frac) * (1.0 - 1.0 / cs.ndv);
            }
        }
        return 1.0 - DEFAULT_SEL;
    }
    let Some((col, lo, hi)) = crate::exec::zone_probe_of(pred) else {
        // Equality against a constant the order-key domain cannot map
        // (VARCHAR above all — strings hash, they don't order) is still
        // one distinct value: use the column's NDV, minus any range
        // check.
        if let BExpr::Cmp { op: CmpOp::Eq, left, right } = pred {
            let col = match (left.as_ref(), right.as_ref()) {
                (BExpr::ColRef { idx, .. }, BExpr::Lit(v)) if !v.is_null() => Some(*idx),
                (BExpr::Lit(v), BExpr::ColRef { idx, .. }) if !v.is_null() => Some(*idx),
                _ => None,
            };
            if let Some(cs) = col.and_then(|c| col_stats_of(input, c, stats)) {
                return if cs.ndv >= 1.0 { (1.0 - cs.null_frac) / cs.ndv } else { 0.0 };
            }
        }
        return DEFAULT_SEL;
    };
    let Some(cs) = col_stats_of(input, col, stats) else {
        return DEFAULT_SEL;
    };
    let nonnull = 1.0 - cs.null_frac;
    if cs.ndv < 1.0 {
        return 0.0; // empty / all-NULL column: nothing can match
    }
    // Point probe: one distinct value.
    if let (Some(k), true) = (lo, lo == hi) {
        if let (Some(mn), Some(mx)) = (cs.min_key, cs.max_key) {
            if k < mn || k > mx {
                return 0.0;
            }
        }
        return nonnull / cs.ndv;
    }
    // Range probe: fraction of the [min, max] span (uniformity
    // assumption; for DOUBLE the order-preserving key domain is
    // monotonic but non-linear, which we accept as an approximation).
    let (Some(mn), Some(mx)) = (cs.min_key, cs.max_key) else {
        return DEFAULT_SEL;
    };
    let (mnf, mxf) = (mn as f64, mx as f64);
    let lof = lo.map_or(mnf, |v| v as f64).max(mnf);
    let hif = hi.map_or(mxf, |v| v as f64).min(mxf);
    if lof > hif {
        return 0.0;
    }
    let span = mxf - mnf;
    if span <= 0.0 {
        return nonnull; // single-valued column inside the probe
    }
    nonnull * ((hif - lof + 1.0) / (span + 1.0)).min(1.0)
}

/// Combined selectivity of a conjunction with exponential backoff: the
/// most selective conjunct applies at full strength, each further one at
/// the square root of the previous exponent — correlated predicates (Q6's
/// pair of date bounds, Q19's stacked conditions) then cannot drive the
/// estimate to zero.
fn conj_selectivity(preds: &[&BExpr], input: &Plan, stats: &dyn Stats) -> f64 {
    let mut sels: Vec<f64> = preds.iter().map(|p| selectivity(p, input, stats)).collect();
    sels.sort_by(f64::total_cmp);
    let mut total = 1.0f64;
    let mut exp = 1.0f64;
    for s in sels {
        total *= s.powf(exp);
        exp /= 2.0;
    }
    total
}

/// Cardinality estimate of a plan node. Every result is clamped to
/// `[1, input]` (for joins: `[1, |L|·|R|]`), so no sequence of vacuous
/// predicates can talk an estimate below one row.
fn estimate(p: &Plan, stats: &dyn Stats) -> f64 {
    estimate_with(p, stats, &mut |_, c| estimate(c, stats))
}

/// [`estimate`] of `p` with its inputs' estimates from `input(i, child)`,
/// for the `i`-th input in [`map_children`] order (called only for the
/// inputs the node's rule reads).
fn estimate_with(
    p: &Plan,
    stats: &dyn Stats,
    input_est: &mut dyn FnMut(usize, &Plan) -> f64,
) -> f64 {
    match p {
        Plan::Scan { table, filters, .. } => {
            let base = (stats.table_rows(table) as f64).max(1.0);
            let parts: Vec<&BExpr> = filters.iter().collect();
            let sel = conj_selectivity(&parts, p, stats);
            (base * sel).clamp(1.0, base)
        }
        Plan::Filter { input, pred } => {
            let inp = input_est(0, input);
            let mut parts = Vec::new();
            split_and_refs(pred, &mut parts);
            let sel = conj_selectivity(&parts, input, stats);
            (inp * sel).clamp(1.0, inp)
        }
        Plan::Project { input, .. } | Plan::Sort { input, .. } => input_est(0, input),
        Plan::Limit { input, n } | Plan::TopN { input, n, .. } => {
            input_est(0, input).min((*n as f64).max(1.0))
        }
        Plan::Aggregate { input, groups, .. } => {
            if groups.is_empty() {
                return 1.0;
            }
            let inp = input_est(0, input);
            // Product of group-key NDVs when every key resolves to a
            // column with statistics; the fixed divisor otherwise.
            let mut ndv_prod = 1.0f64;
            let mut all_known = true;
            for g in groups {
                let cs = match g {
                    BExpr::ColRef { idx, .. } => col_stats_of(input, *idx, stats),
                    _ => None,
                };
                match cs {
                    Some(cs) if cs.ndv >= 1.0 => {
                        ndv_prod *= cs.ndv + (cs.null_frac > 0.0) as u64 as f64
                    }
                    _ => {
                        all_known = false;
                        break;
                    }
                }
            }
            let guess = if all_known { ndv_prod } else { inp / DEFAULT_GROUP_DIV };
            guess.clamp(1.0, inp)
        }
        Plan::Join { left, right, kind, left_keys, right_keys, residual, .. } => {
            let l = input_est(0, left);
            let r = input_est(1, right);
            match kind {
                PJoinKind::Cross => (l * r).max(1.0),
                PJoinKind::Semi | PJoinKind::Anti => {
                    (l * semi_keep_fraction(p, l, r, stats)).max(1.0)
                }
                PJoinKind::Inner | PJoinKind::Left => {
                    let mut out = l * r;
                    for (lk, rk) in left_keys.iter().zip(right_keys) {
                        let (nl, nr) = (key_ndv(lk, left, l, stats), key_ndv(rk, right, r, stats));
                        out /= nl.max(nr);
                    }
                    if let Some(res) = residual {
                        let mut parts = Vec::new();
                        split_and_refs(res, &mut parts);
                        // Residuals see the concatenated schema: resolve
                        // columns over the join node itself.
                        let sel = conj_selectivity(&parts, p, stats);
                        out *= sel;
                    }
                    let out = out.clamp(1.0, (l * r).max(1.0));
                    if *kind == PJoinKind::Left {
                        out.max(l) // every probe row survives
                    } else {
                        out
                    }
                }
            }
        }
        Plan::Values { rows, .. } => (rows.len() as f64).max(1.0),
    }
}

/// Distinct values of join key `e` over `side` (estimated at `side_est`
/// rows): the column's NDV when the key is a bare column with statistics,
/// else the side's cardinality (keys assumed near-unique); clamped to
/// `[1, side_est]`.
fn key_ndv(e: &BExpr, side: &Plan, side_est: f64, stats: &dyn Stats) -> f64 {
    let ndv = match e {
        BExpr::ColRef { idx, .. } => match col_stats_of(side, *idx, stats) {
            Some(cs) if cs.ndv >= 1.0 => cs.ndv,
            _ => side_est,
        },
        _ => side_est,
    };
    ndv.min(side_est).max(1.0)
}

/// Fraction of probe rows a semi/anti join keeps. Containment: a probe
/// key finds a match with probability `min(1, ndv(build key) / ndv(probe
/// key))`, and with several keys a row must match on all of them (the
/// most selective key bounds the rest). A semi join keeps that fraction
/// — a residual can only lower it, so ignoring it stays an upper bound.
/// An anti join keeps the complement; with a residual even a key match
/// may fail it, so nothing is assumed removed. `l`/`r` are the inputs'
/// estimates; `1.0` for other nodes.
fn semi_keep_fraction(join: &Plan, l: f64, r: f64, stats: &dyn Stats) -> f64 {
    let Plan::Join {
        left,
        right,
        kind: kind @ (PJoinKind::Semi | PJoinKind::Anti),
        left_keys,
        right_keys,
        residual,
        ..
    } = join
    else {
        return 1.0;
    };
    keep_fraction(*kind, left, right, left_keys, right_keys, residual.is_some(), l, r, stats)
}

/// [`semi_keep_fraction`] of a semi/anti join given by its parts.
#[allow(clippy::too_many_arguments)]
fn keep_fraction(
    kind: PJoinKind,
    left: &Plan,
    right: &Plan,
    left_keys: &[BExpr],
    right_keys: &[BExpr],
    residual: bool,
    l: f64,
    r: f64,
    stats: &dyn Stats,
) -> f64 {
    let matched = left_keys
        .iter()
        .zip(right_keys)
        .map(|(lk, rk)| (key_ndv(rk, right, r, stats) / key_ndv(lk, left, l, stats)).min(1.0))
        .fold(1.0f64, f64::min);
    match (kind, residual) {
        (PJoinKind::Semi, _) => matched,
        (_, false) => 1.0 - matched,
        (_, true) => 1.0,
    }
}

/// Flatten a tree of inner/cross joins into relations + predicates over
/// the concatenated flat schema (keys turn back into equality
/// predicates). Pure projections — every output a bare `ColRef` — sitting
/// between joins are flattened *through* (the binder's decorrelation and
/// earlier ordering passes leave such barriers, and stopping at them
/// would fragment the join graph into unreorderable islands).
///
/// Returns the mapping from the node's output columns to flat columns.
fn flatten_join_cluster(
    p: Plan,
    rels: &mut Vec<Plan>,
    preds: &mut Vec<BExpr>,
) -> Result<Vec<usize>> {
    match p {
        Plan::Join {
            left,
            right,
            kind: PJoinKind::Inner | PJoinKind::Cross,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let lmap = flatten_join_cluster(*left, rels, preds)?;
            let rmap = flatten_join_cluster(*right, rels, preds)?;
            // Keys/residual were expressed over (left ++ right) of THIS
            // node; route them through the children's flat mappings.
            let nleft_local = lmap.len();
            for (lk, rk) in left_keys.into_iter().zip(right_keys) {
                let l = lk.remapped(&|c| lmap[c]);
                let r = rk.remapped(&|c| rmap[c]);
                preds.push(BExpr::Cmp {
                    op: crate::expr::CmpOp::Eq,
                    left: Box::new(l),
                    right: Box::new(r),
                });
            }
            if let Some(res) = residual {
                preds.push(res.remapped(&|c| {
                    if c < nleft_local {
                        lmap[c]
                    } else {
                        rmap[c - nleft_local]
                    }
                }));
            }
            let mut map = lmap;
            map.extend(rmap);
            Ok(map)
        }
        Plan::Project { input, exprs, .. } if is_cluster_projection(&exprs, &input) => {
            let imap = flatten_join_cluster(*input, rels, preds)?;
            Ok(through_projection(&exprs, &imap))
        }
        other => {
            let base = col_count(rels);
            let width = other.schema().len();
            rels.push(other);
            Ok((base..base + width).collect())
        }
    }
}

/// Does [`flatten_join_cluster`] flatten through a projection of `exprs`
/// over `input`? Only a pure one (every output a bare column) over a join
/// or another projection.
fn is_cluster_projection(exprs: &[BExpr], input: &Plan) -> bool {
    exprs.iter().all(|e| matches!(e, BExpr::ColRef { .. }))
        && matches!(
            input,
            Plan::Join { kind: PJoinKind::Inner | PJoinKind::Cross, .. } | Plan::Project { .. }
        )
}

/// The flat columns a pure projection's outputs carry, given its input's.
fn through_projection(exprs: &[BExpr], imap: &[usize]) -> Vec<usize> {
    exprs
        .iter()
        .map(|e| match e {
            BExpr::ColRef { idx, .. } => imap[*idx],
            _ => usize::MAX,
        })
        .collect()
}

/// The relations [`flatten_join_cluster`] would cut `p` into, borrowed and
/// in the same order, and the same output-to-flat-column map: what a pass
/// reads to decide whether to rewrite the cluster at all.
fn cluster_rels<'p>(p: &'p Plan, rels: &mut Vec<&'p Plan>) -> Vec<usize> {
    match p {
        Plan::Join { left, right, kind: PJoinKind::Inner | PJoinKind::Cross, .. } => {
            let mut map = cluster_rels(left, rels);
            map.extend(cluster_rels(right, rels));
            map
        }
        Plan::Project { input, exprs, .. } if is_cluster_projection(exprs, input) => {
            let imap = cluster_rels(input, rels);
            through_projection(exprs, &imap)
        }
        other => {
            let base: usize = rels.iter().map(|r| r.schema().len()).sum();
            rels.push(other);
            (base..base + other.schema().len()).collect()
        }
    }
}

fn col_count(rels: &[Plan]) -> usize {
    rels.iter().map(|r| r.schema().len()).sum()
}

/// Column offset of each relation in the flat (concatenated) schema.
fn flat_offsets<P: std::borrow::Borrow<Plan>>(rels: &[P]) -> Vec<usize> {
    rels.iter()
        .scan(0usize, |acc, r| {
            let at = *acc;
            *acc += r.borrow().schema().len();
            Some(at)
        })
        .collect()
}

/// Left-deep rebuild: join relations in order, attaching each predicate at
/// the lowest point where all its columns are available.
fn rebuild_cluster(rels: Vec<Plan>, preds: Vec<BExpr>) -> Result<Plan> {
    // Each predicate with its largest column: it attaches at the first
    // join whose schema holds that column.
    let mut preds: Vec<(BExpr, Option<usize>)> = preds
        .into_iter()
        .map(|p| {
            let max = p.max_col();
            (p, max)
        })
        .collect();
    let mut iter = rels.into_iter();
    let mut acc = iter.next().expect("cluster has at least one relation");
    for right in iter {
        let nleft = acc.schema().len();
        let schema: Vec<OutCol> = acc.schema().iter().chain(right.schema()).cloned().collect();
        let avail = schema.len();
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual: Option<BExpr> = None;
        let mut remaining = Vec::new();
        for (p, max) in preds {
            if max.is_none_or(|c| c < avail) {
                match classify_equi(p, nleft) {
                    Ok((lk, rk)) => {
                        left_keys.push(lk);
                        right_keys.push(rk);
                    }
                    Err(p) => {
                        residual = Some(match residual {
                            None => p,
                            Some(r) => BExpr::And(Box::new(r), Box::new(p)),
                        });
                    }
                }
            } else {
                remaining.push((p, max));
            }
        }
        preds = remaining;
        let kind = if left_keys.is_empty() { PJoinKind::Cross } else { PJoinKind::Inner };
        acc = Plan::Join {
            left: Box::new(acc),
            right: Box::new(right),
            kind,
            left_keys,
            right_keys,
            residual,
            schema,
        };
    }
    // Any predicate not attachable inside (shouldn't happen) filters on top.
    for (p, _) in preds {
        acc = Plan::Filter { input: Box::new(acc), pred: p };
    }
    Ok(acc)
}

// ---------------------------------------------------------------------------
// Pass 4: projection push-down
// ---------------------------------------------------------------------------

fn prune_projections(p: Plan) -> Result<Plan> {
    let needed: Vec<usize> = (0..p.schema().len()).collect();
    let (plan, _map) = prune(p, needed)?;
    Ok(plan)
}

/// Rewrite `p` to produce only the `needed` output columns (in any order,
/// repeats allowed). Returns the new plan and a map old-output-index →
/// new index.
fn prune(p: Plan, needed: Vec<usize>) -> Result<(Plan, Vec<usize>)> {
    let width = p.schema().len();
    let mut need_sorted = needed;
    need_sorted.sort_unstable();
    need_sorted.dedup();
    match p {
        Plan::Scan { table, projected, filters, schema } => {
            // Emit only the columns the parent consumes; read the columns
            // pushed filters test as a filter-only tail (never gathered,
            // never carried past the scan).
            let mut filter_only = Vec::new();
            for f in &filters {
                f.collect_cols(&mut filter_only);
            }
            filter_only.sort_unstable();
            filter_only.dedup();
            filter_only.retain(|c| need_sorted.binary_search(c).is_err());
            let reads: Vec<usize> = need_sorted.iter().chain(&filter_only).copied().collect();
            let read_map = build_map(&reads, projected.len());
            let new_projected: Vec<usize> = reads.iter().map(|&c| projected[c]).collect();
            let new_schema: Vec<OutCol> = need_sorted.iter().map(|&c| schema[c].clone()).collect();
            let new_filters: Vec<BExpr> =
                filters.into_iter().map(|f| f.remapped(&|c| read_map[c])).collect();
            Ok((
                Plan::Scan {
                    table,
                    projected: new_projected,
                    filters: new_filters,
                    schema: new_schema,
                },
                build_map(&need_sorted, width),
            ))
        }
        Plan::Filter { input, pred } => {
            let mut need_in = need_sorted;
            pred.collect_cols(&mut need_in);
            let (new_input, map) = prune(*input, need_in)?;
            let pred = pred.remapped(&|c| map[c]);
            Ok((Plan::Filter { input: Box::new(new_input), pred }, map))
        }
        Plan::Project { input, exprs, schema } => {
            let kept = need_sorted;
            let mut need_in = Vec::new();
            for &k in &kept {
                exprs[k].collect_cols(&mut need_in);
            }
            let (new_input, inmap) = prune(*input, need_in)?;
            // `kept` is ascending: keep those expressions, in order.
            let new_exprs: Vec<BExpr> = exprs
                .into_iter()
                .enumerate()
                .filter(|(k, _)| kept.binary_search(k).is_ok())
                .map(|(_, e)| e.remapped(&|c| inmap[c]))
                .collect();
            let new_schema: Vec<OutCol> = kept.iter().map(|&k| schema[k].clone()).collect();
            let map = build_map(&kept, width);
            Ok((
                Plan::Project { input: Box::new(new_input), exprs: new_exprs, schema: new_schema },
                map,
            ))
        }
        Plan::Join { left, right, kind, left_keys, right_keys, residual, schema } => {
            let nleft = left.schema().len();
            let semi_like = matches!(kind, PJoinKind::Semi | PJoinKind::Anti);
            let mut need_l = Vec::new();
            let mut need_r = Vec::new();
            for &c in &need_sorted {
                if c < nleft {
                    need_l.push(c);
                } else {
                    need_r.push(c - nleft);
                }
            }
            for k in &left_keys {
                k.collect_cols(&mut need_l);
            }
            for k in &right_keys {
                k.collect_cols(&mut need_r);
            }
            if let Some(res) = &residual {
                let mut cols = Vec::new();
                res.collect_cols(&mut cols);
                for c in cols {
                    if c < nleft {
                        need_l.push(c);
                    } else {
                        need_r.push(c - nleft);
                    }
                }
            }
            let (new_left, lmap) = prune(*left, need_l)?;
            let (new_right, rmap) = prune(*right, need_r)?;
            let new_nleft = new_left.schema().len();
            let left_keys: Vec<BExpr> =
                left_keys.into_iter().map(|k| k.remapped(&|c| lmap[c])).collect();
            let right_keys: Vec<BExpr> =
                right_keys.into_iter().map(|k| k.remapped(&|c| rmap[c])).collect();
            let residual = residual.map(|res| {
                res.remapped(&|c| {
                    if c < nleft {
                        lmap[c]
                    } else {
                        new_nleft + rmap[c - nleft]
                    }
                })
            });
            // Output schema and old→new map for parents.
            let mut map = vec![usize::MAX; width];
            for (old, &m) in lmap.iter().enumerate() {
                if m != usize::MAX {
                    map[old] = m;
                }
            }
            let new_schema = if semi_like {
                // The output is the pruned left input's.
                new_left.schema().to_vec()
            } else {
                for (oldr, &m) in rmap.iter().enumerate() {
                    if m != usize::MAX {
                        map[nleft + oldr] = new_nleft + m;
                    }
                }
                let out_w = new_nleft + new_right.schema().len();
                let mut new_schema =
                    vec![OutCol { name: "".into(), ty: monetlite_types::LogicalType::Int }; out_w];
                for (old, &m) in map.iter().enumerate() {
                    if m != usize::MAX {
                        new_schema[m] = schema[old].clone();
                    }
                }
                // Columns kept only for keys/residual still need schema
                // entries.
                for (i, c) in new_left.schema().iter().enumerate() {
                    if new_schema[i].name.is_empty() {
                        new_schema[i] = c.clone();
                    }
                }
                for (i, c) in new_right.schema().iter().enumerate() {
                    if new_schema[new_nleft + i].name.is_empty() {
                        new_schema[new_nleft + i] = c.clone();
                    }
                }
                new_schema
            };
            Ok((
                Plan::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    kind,
                    left_keys,
                    right_keys,
                    residual,
                    schema: new_schema,
                },
                map,
            ))
        }
        Plan::Aggregate { input, groups, aggs, schema } => {
            // Aggregate outputs are positional (groups then aggs); keep
            // all of them (cheap — they are post-grouping) but prune the
            // input to what groups/args touch.
            let mut need_in = Vec::new();
            for g in &groups {
                g.collect_cols(&mut need_in);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.collect_cols(&mut need_in);
                }
            }
            let (new_input, inmap) = prune(*input, need_in)?;
            let groups: Vec<BExpr> =
                groups.into_iter().map(|g| g.remapped(&|c| inmap[c])).collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(|arg| arg.remapped(&|c| inmap[c]));
                    a
                })
                .collect();
            let map = (0..width).collect();
            Ok((Plan::Aggregate { input: Box::new(new_input), groups, aggs, schema }, map))
        }
        Plan::Sort { input, keys } => {
            let mut need_in = need_sorted;
            need_in.extend(keys.iter().map(|(c, _)| *c));
            let (new_input, map) = prune(*input, need_in)?;
            let keys = keys.into_iter().map(|(c, d)| (map[c], d)).collect();
            Ok((Plan::Sort { input: Box::new(new_input), keys }, map))
        }
        Plan::TopN { input, keys, n } => {
            let mut need_in = need_sorted;
            need_in.extend(keys.iter().map(|(c, _)| *c));
            let (new_input, map) = prune(*input, need_in)?;
            let keys = keys.into_iter().map(|(c, d)| (map[c], d)).collect();
            Ok((Plan::TopN { input: Box::new(new_input), keys, n }, map))
        }
        Plan::Limit { input, n } => {
            let (new_input, map) = prune(*input, need_sorted)?;
            Ok((Plan::Limit { input: Box::new(new_input), n }, map))
        }
        Plan::Values { rows, schema } => Ok((Plan::Values { rows, schema }, (0..width).collect())),
    }
}

fn build_map(kept_sorted: &[usize], width: usize) -> Vec<usize> {
    let mut map = vec![usize::MAX; width];
    for (newi, &old) in kept_sorted.iter().enumerate() {
        map[old] = newi;
    }
    map
}

// ---------------------------------------------------------------------------
// Pass 5: constant folding + top-n fusion
// ---------------------------------------------------------------------------

pub(crate) fn fold_constants(p: Plan) -> Result<Plan> {
    let mut p = map_children(p, &mut |c| fold_constants(c))?;
    match &mut p {
        Plan::Filter { input, pred } => {
            fold_expr(pred)?;
            if let BExpr::Lit(Value::Bool(true)) = pred {
                return Ok(Plan::take(input));
            }
        }
        Plan::Project { exprs: es, .. } | Plan::Scan { filters: es, .. } => {
            for e in es {
                fold_expr(e)?;
            }
        }
        _ => {}
    }
    Ok(p)
}

/// Evaluate constant subtrees via the vector kernels on a single row, in
/// place: the largest constant subtree becomes a literal, and only the
/// nodes it replaces are freed.
fn fold_expr(e: &mut BExpr) -> Result<()> {
    if matches!(e, BExpr::Lit(_)) {
        return Ok(());
    }
    if e.is_const() {
        let v = kernels::eval(e, &[], 1, None)?.get(0);
        // A NULL literal reads as INTEGER: a NULL of another type (the
        // BOOLEAN of `NULL = NULL`) keeps its expression, which the
        // kernels evaluate to a NULL of the right type.
        if !v.is_null() || e.ty() == BExpr::Lit(Value::Null).ty() {
            *e = BExpr::Lit(v);
            return Ok(());
        }
    }
    // Fold children.
    match e {
        BExpr::Arith { left, right, .. }
        | BExpr::Cmp { left, right, .. }
        | BExpr::And(left, right)
        | BExpr::Or(left, right) => {
            fold_expr(left)?;
            fold_expr(right)
        }
        BExpr::Not(a) | BExpr::Cast { input: a, .. } => fold_expr(a),
        _ => Ok(()),
    }
}

/// Fuse every `Limit` directly over a `Sort` into a `TopN`, in place.
fn fuse_topn(p: &mut Plan) -> Result<()> {
    for_each_child_mut(p, &mut fuse_topn)?;
    if matches!(p, Plan::Limit { input, .. } if matches!(**input, Plan::Sort { .. })) {
        *p = match Plan::take(p) {
            Plan::Limit { input, n } => match *input {
                Plan::Sort { input, keys } => Plan::TopN { input, keys, n },
                other => Plan::Limit { input: Box::new(other), n },
            },
            other => other,
        };
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tree plumbing
// ---------------------------------------------------------------------------

/// Rewrite each direct child of `p` with `f`, in [`for_each_child_mut`]
/// order. Each child keeps its box: a pass over the tree allocates
/// nothing for the nodes it leaves in place.
fn map_children(mut p: Plan, f: &mut dyn FnMut(Plan) -> Result<Plan>) -> Result<Plan> {
    for_each_child_mut(&mut p, &mut |slot| {
        let child = Plan::take(slot);
        *slot = f(child)?;
        Ok(())
    })?;
    Ok(p)
}

/// Visit each direct child of `p` in place (no node is rebuilt).
fn for_each_child_mut(p: &mut Plan, f: &mut dyn FnMut(&mut Plan) -> Result<()>) -> Result<()> {
    match p {
        Plan::Scan { .. } | Plan::Values { .. } => Ok(()),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopN { input, .. } => f(input),
        Plan::Join { left, right, .. } => {
            f(left)?;
            f(right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{Binder, CatalogAccess};
    use monetlite_types::{Field, LogicalType, MlError, Schema};
    use std::collections::HashMap;

    struct Cat(HashMap<String, Schema>);

    impl CatalogAccess for Cat {
        fn table_schema(&self, name: &str) -> monetlite_types::Result<Schema> {
            self.0
                .get(name)
                .cloned()
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
        }
    }

    struct FixedStats(HashMap<String, usize>);

    impl Stats for FixedStats {
        fn table_rows(&self, name: &str) -> usize {
            *self.0.get(name).unwrap_or(&1000)
        }
    }

    fn setup() -> (Cat, FixedStats) {
        let mut t = HashMap::new();
        t.insert(
            "big".to_string(),
            Schema::new(vec![
                Field::not_null("id", LogicalType::Int),
                Field::new("k", LogicalType::Int),
                Field::new("v", LogicalType::Double),
                Field::new("s", LogicalType::Varchar),
            ])
            .unwrap(),
        );
        t.insert(
            "small".to_string(),
            Schema::new(vec![
                Field::not_null("id", LogicalType::Int),
                Field::new("name", LogicalType::Varchar),
            ])
            .unwrap(),
        );
        t.insert(
            "mid".to_string(),
            Schema::new(vec![
                Field::not_null("id", LogicalType::Int),
                Field::new("big_id", LogicalType::Int),
            ])
            .unwrap(),
        );
        let mut s = HashMap::new();
        s.insert("big".to_string(), 1_000_000);
        s.insert("small".to_string(), 100);
        s.insert("mid".to_string(), 10_000);
        (Cat(t), FixedStats(s))
    }

    fn optimize_sql(sql: &str) -> Plan {
        optimize_sql_with(sql, OptFlags::default())
    }

    fn optimize_sql_with(sql: &str, flags: OptFlags) -> Plan {
        let (cat, stats) = setup();
        let stmt = monetlite_sql::parse_statement(sql).unwrap();
        let monetlite_sql::Statement::Select(s) = stmt else { panic!() };
        let plan = Binder::new(&cat).bind_select(&s).unwrap();
        optimize(plan, flags, &stats, &cat).unwrap()
    }

    #[test]
    fn filters_sink_into_scans() {
        let p = optimize_sql("SELECT v FROM big WHERE k = 5 AND v > 1.5");
        let s = p.render();
        assert!(s.contains("scan big") && s.contains("where"), "{s}");
        assert!(!s.trim_start().starts_with("filter"), "no top-level filter left: {s}");
    }

    #[test]
    fn equality_becomes_join_key() {
        let p = optimize_sql("SELECT big.v FROM big, small WHERE big.k = small.id");
        let s = p.render();
        assert!(s.contains("inner join"), "{s}");
        assert!(!s.contains("cross"), "{s}");
    }

    #[test]
    fn join_order_puts_filtered_small_first() {
        // Greedy ordering in isolation (build-side selection off): the
        // deepest-left relation is the filtered small table.
        let p = optimize_sql_with(
            "SELECT big.v FROM big, small, mid \
             WHERE big.k = mid.big_id AND mid.id = small.id AND small.name = 'x'",
            OptFlags { build_side: false, ..OptFlags::default() },
        );
        let s = p.render();
        // The first scan line in render order is the deepest-left relation
        // (joins render left input first): it should be the filtered small
        // table.
        let first_scan = s.lines().find(|l| l.trim_start().starts_with("scan")).unwrap();
        assert!(first_scan.contains("small"), "small should lead: {s}");
        // No cross joins should remain.
        assert!(!s.contains("cross join"), "{s}");
    }

    #[test]
    fn build_side_selection_probes_the_big_table() {
        // With build-side selection on, the small/filtered side moves to
        // the build (right) input and the big table streams through the
        // probe — the shape morsel parallelism wants.
        let p = optimize_sql("SELECT big.v FROM big, small WHERE big.k = small.id");
        fn find_join(p: &Plan) -> Option<(&Plan, &Plan)> {
            match p {
                Plan::Join { left, right, .. } => Some((left, right)),
                Plan::Filter { input, .. }
                | Plan::Project { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. }
                | Plan::TopN { input, .. }
                | Plan::Aggregate { input, .. } => find_join(input),
                _ => None,
            }
        }
        let (left, right) = find_join(&p).expect("join survives");
        assert!(left.render().contains("big"), "probe side: {}", p.render());
        assert!(right.render().contains("small"), "build side: {}", p.render());
        // Output schema must be unchanged by the swap.
        assert_eq!(p.schema().len(), 1);
        assert_eq!(&*p.schema()[0].name, "v");
    }

    #[test]
    fn projection_pruned_to_needed_columns() {
        let p = optimize_sql("SELECT v FROM big WHERE k = 5");
        fn find_scan(p: &Plan) -> Option<&Plan> {
            match p {
                Plan::Scan { .. } => Some(p),
                Plan::Filter { input, .. }
                | Plan::Project { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. }
                | Plan::TopN { input, .. } => find_scan(input),
                Plan::Join { left, right, .. } => find_scan(left).or_else(|| find_scan(right)),
                Plan::Aggregate { input, .. } => find_scan(input),
                Plan::Values { .. } => None,
            }
        }
        let Plan::Scan { projected, .. } = find_scan(&p).unwrap() else { unreachable!() };
        // Only k (filter) and v (output) survive, not id or s.
        assert_eq!(projected.len(), 2, "{p:?}");
    }

    #[test]
    fn topn_fused() {
        let p = optimize_sql("SELECT v FROM big ORDER BY v DESC LIMIT 10");
        assert!(matches!(p, Plan::TopN { n: 10, .. }), "{}", p.render());
    }

    #[test]
    fn constants_folded() {
        let p = optimize_sql("SELECT v FROM big WHERE k = 2 + 3");
        let s = p.render();
        assert!(s.contains("= 5") || s.contains("5)"), "{s}");
        assert!(!s.contains("2 + 3"), "{s}");
    }

    #[test]
    fn true_filter_removed() {
        let p = optimize_sql("SELECT v FROM big WHERE 1 = 1");
        let s = p.render();
        assert!(!s.contains("filter"), "{s}");
    }

    #[test]
    fn semi_join_prunes_right() {
        let p =
            optimize_sql("SELECT v FROM big WHERE id IN (SELECT id FROM small WHERE name = 'x')");
        let s = p.render();
        assert!(s.contains("semi join"), "{s}");
    }

    /// Column-stats-aware test double: (table, col) → ColStats.
    struct ColFixedStats {
        rows: HashMap<String, usize>,
        cols: HashMap<(String, usize), ColStats>,
    }

    impl Stats for ColFixedStats {
        fn table_rows(&self, name: &str) -> usize {
            *self.rows.get(name).unwrap_or(&1000)
        }

        fn column_stats(&self, table: &str, col: usize) -> Option<ColStats> {
            self.cols.get(&(table.to_string(), col)).copied()
        }
    }

    fn cs(ndv: f64, min: i64, max: i64) -> ColStats {
        ColStats { null_frac: 0.0, ndv, min_key: Some(min), max_key: Some(max) }
    }

    fn scan_with(table: &str, filters: Vec<BExpr>) -> Plan {
        Plan::Scan {
            table: table.into(),
            projected: vec![0],
            filters,
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        }
    }

    fn col0() -> BExpr {
        BExpr::ColRef { idx: 0, ty: LogicalType::Int }
    }

    fn cmp(op: crate::expr::CmpOp, l: BExpr, r: BExpr) -> BExpr {
        BExpr::Cmp { op, left: Box::new(l), right: Box::new(r) }
    }

    #[test]
    fn equality_selectivity_is_one_over_ndv() {
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("t".into(), 10_000);
        stats.cols.insert(("t".into(), 0), cs(100.0, 0, 999));
        let p =
            scan_with("t", vec![cmp(crate::expr::CmpOp::Eq, col0(), BExpr::Lit(Value::Int(5)))]);
        let est = estimate_rows(&p, &stats);
        assert!((est - 100.0).abs() < 1.0, "10000/ndv(100) = 100, got {est}");
        // A probe outside [min, max] estimates the clamp floor.
        let p =
            scan_with("t", vec![cmp(crate::expr::CmpOp::Eq, col0(), BExpr::Lit(Value::Int(5000)))]);
        assert_eq!(estimate_rows(&p, &stats), 1.0, "out-of-range point probe");
    }

    #[test]
    fn range_selectivity_is_span_fraction() {
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("t".into(), 10_000);
        stats.cols.insert(("t".into(), 0), cs(1000.0, 0, 999));
        // a < 100 over [0, 999]: ~10%.
        let p =
            scan_with("t", vec![cmp(crate::expr::CmpOp::Lt, col0(), BExpr::Lit(Value::Int(100)))]);
        let est = estimate_rows(&p, &stats);
        assert!((900.0..=1100.0).contains(&est), "~10% of 10000, got {est}");
        // Disjoint range: floor.
        let p =
            scan_with("t", vec![cmp(crate::expr::CmpOp::Gt, col0(), BExpr::Lit(Value::Int(5000)))]);
        assert_eq!(estimate_rows(&p, &stats), 1.0);
    }

    #[test]
    fn conjunction_backoff_and_clamp_floor() {
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("t".into(), 1000);
        stats.cols.insert(("t".into(), 0), cs(1000.0, 0, 999));
        // Ten copies of the same selective predicate: naive independence
        // would estimate 1000 * (1/1000)^10 ≈ 0; backoff + clamp keep the
        // estimate at the floor, never below one row.
        let pred = cmp(crate::expr::CmpOp::Eq, col0(), BExpr::Lit(Value::Int(1)));
        let p = scan_with("t", vec![pred; 10]);
        let est = estimate_rows(&p, &stats);
        assert!((1.0..=1000.0).contains(&est), "clamped to [1, input], got {est}");
        // Backoff: two identical 10% predicates estimate closer to 10%
        // than to 1%.
        let r = cmp(crate::expr::CmpOp::Lt, col0(), BExpr::Lit(Value::Int(100)));
        let p2 = scan_with("t", vec![r.clone(), r]);
        let est2 = estimate_rows(&p2, &stats);
        assert!(est2 > 20.0, "exponential backoff, got {est2}");
        assert!(est2 <= 110.0, "still no more than one predicate's worth, got {est2}");
    }

    #[test]
    fn vacuous_filter_does_not_shrink_estimates() {
        // Regression (issue bugfix): the old model charged every Filter
        // node /4 even for an always-true residual, halving downstream
        // build-side choices.
        let (_, stats) = setup();
        let scan = scan_with("big", vec![]);
        let base = estimate_rows(&scan, &stats);
        let noop =
            Plan::Filter { input: Box::new(scan.clone()), pred: BExpr::Lit(Value::Bool(true)) };
        assert_eq!(estimate_rows(&noop, &stats), base, "no-op filter must not shrink");
        // Same for an un-folded constant comparison pushed into a scan.
        let one_eq_one =
            cmp(crate::expr::CmpOp::Eq, BExpr::Lit(Value::Int(1)), BExpr::Lit(Value::Int(1)));
        let noop2 = scan_with("big", vec![one_eq_one]);
        assert_eq!(estimate_rows(&noop2, &stats), base, "1=1 in a scan must not shrink");
        // Nor does it flip a build-side decision: big (1M) joined to mid
        // (10k) goes to the probe side even when big carries a vacuous
        // filter.
        let join = Plan::Join {
            left: Box::new(scan_with("mid", vec![])),
            right: Box::new(noop2),
            kind: PJoinKind::Inner,
            left_keys: vec![col0()],
            right_keys: vec![col0()],
            residual: None,
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }; 2],
        };
        let p = choose_build_side(join, &stats).unwrap().0;
        // The swap restores the column order with a Project.
        let Plan::Project { input, .. } = &p else { panic!("swapped: {}", p.render()) };
        let Plan::Join { left, right, .. } = &**input else { panic!("join: {}", p.render()) };
        assert!(left.render().contains("big"), "probe side: {}", p.render());
        assert!(right.render().contains("mid"), "build side: {}", p.render());
    }

    #[test]
    fn group_estimate_uses_ndv() {
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("t".into(), 100_000);
        stats.cols.insert(("t".into(), 0), cs(42.0, 0, 41));
        let agg = Plan::Aggregate {
            input: Box::new(scan_with("t", vec![])),
            groups: vec![col0()],
            aggs: vec![],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let est = estimate_rows(&agg, &stats);
        assert!((est - 42.0).abs() < 1.0, "group count = key NDV, got {est}");
    }

    #[test]
    fn join_estimate_distinct_value_model() {
        // fact (1M rows, key ndv 1000) ⋈ dim (1000 rows, unique key):
        // |out| = 1M·1000 / max(1000, 1000) = 1M (the FK join keeps the
        // fact's cardinality).
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("fact".into(), 1_000_000);
        stats.rows.insert("dim".into(), 1000);
        stats.cols.insert(("fact".into(), 0), cs(1000.0, 0, 999));
        stats.cols.insert(("dim".into(), 0), cs(1000.0, 0, 999));
        let join = Plan::Join {
            left: Box::new(scan_with("fact", vec![])),
            right: Box::new(scan_with("dim", vec![])),
            kind: PJoinKind::Inner,
            left_keys: vec![col0()],
            right_keys: vec![col0()],
            residual: None,
            schema: vec![
                OutCol { name: "a".into(), ty: LogicalType::Int },
                OutCol { name: "a".into(), ty: LogicalType::Int },
            ],
        };
        let est = estimate_rows(&join, &stats);
        assert!((est - 1_000_000.0).abs() / 1_000_000.0 < 0.01, "FK join, got {est}");
    }

    #[test]
    fn dp_orders_by_join_selectivity_not_relation_size() {
        // a(100) joins b(500) producing 500 rows, and joins c(1000)
        // producing 100 rows. Greedy picks the smaller *relation* (b)
        // first; DP sees the smaller *intermediate* and joins c first.
        let mut t = HashMap::new();
        t.insert(
            "ja".to_string(),
            Schema::new(vec![
                Field::not_null("x", LogicalType::Int),
                Field::not_null("u", LogicalType::Int),
            ])
            .unwrap(),
        );
        t.insert(
            "jb".to_string(),
            Schema::new(vec![Field::not_null("y", LogicalType::Int)]).unwrap(),
        );
        t.insert(
            "jc".to_string(),
            Schema::new(vec![Field::not_null("v", LogicalType::Int)]).unwrap(),
        );
        let cat = Cat(t);
        let mut stats = ColFixedStats { rows: HashMap::new(), cols: HashMap::new() };
        stats.rows.insert("ja".into(), 100);
        stats.rows.insert("jb".into(), 500);
        stats.rows.insert("jc".into(), 1000);
        stats.cols.insert(("ja".into(), 0), cs(100.0, 0, 99));
        stats.cols.insert(("ja".into(), 1), cs(100.0, 0, 99));
        stats.cols.insert(("jb".into(), 0), cs(100.0, 0, 99));
        stats.cols.insert(("jc".into(), 0), cs(1000.0, 0, 999));
        let sql = "SELECT ja.x FROM ja, jb, jc WHERE ja.x = jb.y AND ja.u = jc.v";
        let stmt = monetlite_sql::parse_statement(sql).unwrap();
        let monetlite_sql::Statement::Select(s) = stmt else { panic!() };
        let order_of = |dp: bool| -> Vec<String> {
            let plan = Binder::new(&cat).bind_select(&s).unwrap();
            let flags = OptFlags { join_dp: dp, build_side: false, ..OptFlags::default() };
            let p = optimize(plan, flags, &stats, &cat).unwrap();
            p.render()
                .lines()
                .filter(|l| l.trim_start().starts_with("scan"))
                .map(|l| l.split_whitespace().nth(1).unwrap().to_string())
                .collect()
        };
        assert_eq!(order_of(true), vec!["ja", "jc", "jb"], "DP: selective join first");
        assert_eq!(order_of(false), vec!["ja", "jb", "jc"], "greedy: smaller relation first");
    }

    #[test]
    fn adversarial_stats_are_deterministic_per_seed() {
        let (_, inner) = setup();
        let a = ModedStats { inner: &inner, mode: StatsMode::Adversarial(42) };
        let b = ModedStats { inner: &inner, mode: StatsMode::Adversarial(42) };
        let c = ModedStats { inner: &inner, mode: StatsMode::Adversarial(43) };
        assert_eq!(a.table_rows("big"), b.table_rows("big"));
        assert_eq!(a.column_stats("big", 1), b.column_stats("big", 1));
        assert_ne!(a.table_rows("big"), c.table_rows("big"), "different seed, different lies");
        // TableRowsOnly passes rows through and hides column stats.
        let t = ModedStats { inner: &inner, mode: StatsMode::TableRowsOnly };
        assert_eq!(t.table_rows("big"), 1_000_000);
        assert!(t.column_stats("big", 0).is_none());
    }

    /// Every node of `p`, parents before children.
    fn nodes(p: &Plan) -> Vec<&Plan> {
        let mut out = vec![p];
        match p {
            Plan::Scan { .. } | Plan::Values { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopN { input, .. } => out.extend(nodes(input)),
            Plan::Join { left, right, .. } => {
                out.extend(nodes(left));
                out.extend(nodes(right));
            }
        }
        out
    }

    /// The probe (left) input of the plan's only semi/anti join.
    fn semi_probe(p: &Plan) -> &Plan {
        let probes: Vec<&Plan> = nodes(p)
            .into_iter()
            .filter_map(|n| match n {
                Plan::Join { left, kind: PJoinKind::Semi | PJoinKind::Anti, .. } => Some(&**left),
                _ => None,
            })
            .collect();
        assert_eq!(probes.len(), 1, "{}", p.render());
        probes[0]
    }

    fn has_join(p: &Plan) -> bool {
        nodes(p).iter().any(|n| matches!(n, Plan::Join { .. }))
    }

    /// Filters pushed into the scans of `table`.
    fn scan_filters<'a>(p: &'a Plan, table: &str) -> Vec<&'a BExpr> {
        nodes(p)
            .into_iter()
            .filter_map(|n| match n {
                Plan::Scan { table: t, filters, .. } if t == table => Some(filters),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn semi_join_sinks_only_when_keys_and_residual_read_one_relation() {
        // Keys and residual both read mid: the EXISTS moves onto mid (100
        // build keys against 10k probe keys keep ~1% of mid, far below the
        // 10k-row cluster).
        let sunk = optimize_sql(
            "SELECT big.v FROM big, mid WHERE big.k = mid.big_id AND \
             EXISTS (SELECT * FROM small WHERE small.id = mid.id AND small.id <> mid.big_id)",
        );
        let probe = semi_probe(&sunk);
        assert!(!has_join(probe), "probes mid alone: {}", sunk.render());
        assert!(probe.render().contains("scan mid"), "{}", sunk.render());
        // Same keys, but the residual also reads big: it stays above the
        // cluster.
        let kept = optimize_sql(
            "SELECT big.v FROM big, mid WHERE big.k = mid.big_id AND \
             EXISTS (SELECT * FROM small WHERE small.id = mid.id AND small.id <> big.id)",
        );
        assert!(has_join(semi_probe(&kept)), "probes the cluster: {}", kept.render());
    }

    #[test]
    fn semi_join_stays_above_when_probing_the_relation_costs_more() {
        // The key reads big (1M rows) while the filtered cluster is ~25
        // rows: probing big in full costs more than the 1% it would drop.
        let p = optimize_sql(
            "SELECT big.v FROM big, small WHERE big.k = small.id AND small.name = 'x' AND \
             EXISTS (SELECT * FROM mid WHERE mid.big_id = big.id)",
        );
        assert!(has_join(semi_probe(&p)), "{}", p.render());
    }

    #[test]
    fn nothing_sinks_or_is_derived_into_a_left_joins_null_side() {
        // A semi join over a LEFT join is not over an inner cluster: it
        // stays put, even though its key reads the null-supplying side.
        let p = optimize_sql(
            "SELECT big.v FROM big LEFT JOIN small ON big.k = small.id \
             WHERE small.id IN (SELECT big_id FROM mid)",
        );
        let probe = semi_probe(&p);
        assert!(
            nodes(probe).iter().any(|n| matches!(n, Plan::Join { kind: PJoinKind::Left, .. })),
            "{}",
            p.render()
        );
        // Disjunctions over a LEFT join, in WHERE or in ON, derive nothing.
        for sql in [
            "SELECT big.v FROM big LEFT JOIN small ON big.k = small.id \
             WHERE (big.v > 1 AND small.name = 'a') OR (big.v < 0 AND small.name = 'b')",
            "SELECT big.v FROM big LEFT JOIN small ON big.k = small.id \
             AND ((big.v > 1 AND small.name = 'a') OR (big.v < 0 AND small.name = 'b'))",
        ] {
            let p = optimize_sql(sql);
            assert!(scan_filters(&p, "small").is_empty(), "{}", p.render());
            assert!(scan_filters(&p, "big").is_empty(), "{}", p.render());
        }
    }

    #[test]
    fn not_in_sinks_its_anti_join_but_keeps_the_null_guard_above() {
        // Every probe key is assumed found (10k build keys, 100 probe
        // keys): the anti join keeps ~nothing of small and sinks onto it.
        let p = optimize_sql(
            "SELECT big.v FROM big, small WHERE big.k = small.id AND \
             small.id NOT IN (SELECT big_id FROM mid)",
        );
        let probe = semi_probe(&p);
        assert!(!has_join(probe) && probe.render().contains("scan small"), "{}", p.render());
        // The guard — `cnt_all = 0 OR (probe IS NOT NULL AND cnt_nonnull
        // = cnt_all)` over the anti join's output crossed with the
        // subquery's counts — is intact and still joins above it.
        let guard = nodes(&p)
            .into_iter()
            .find(|n| {
                matches!(n, Plan::Join { kind: PJoinKind::Cross, residual: Some(r), .. }
                    if r.to_string().contains("is not null"))
            })
            .unwrap_or_else(|| panic!("NOT IN guard join: {}", p.render()));
        let Plan::Join { residual: Some(BExpr::Or(empty, ok)), .. } = guard else {
            panic!("guard lost its shape: {}", p.render())
        };
        assert!(matches!(**empty, BExpr::Cmp { op: CmpOp::Eq, .. }), "{}", p.render());
        assert!(matches!(**ok, BExpr::And(..)), "{}", p.render());
        assert!(
            nodes(guard).iter().any(|n| matches!(n, Plan::Join { kind: PJoinKind::Anti, .. })),
            "{}",
            p.render()
        );
    }

    #[test]
    fn disjunctions_derive_filters_only_for_relations_every_disjunct_reads() {
        // Both disjuncts test big and small: both scans get a filter.
        let p = optimize_sql(
            "SELECT big.v FROM big, small WHERE big.k = small.id AND \
             ((big.v > 1 AND small.name = 'a') OR (big.v < 0 AND small.name = 'b'))",
        );
        assert_eq!(scan_filters(&p, "big").len(), 1, "{}", p.render());
        assert_eq!(scan_filters(&p, "small").len(), 1, "{}", p.render());
        assert!(matches!(scan_filters(&p, "small")[0], BExpr::Or(..)), "{}", p.render());
        // The second disjunct tests big alone: small gets nothing, big
        // still gets `v > 1 OR v < 0`.
        let p = optimize_sql(
            "SELECT big.v FROM big, small WHERE big.k = small.id AND \
             ((big.v > 1 AND small.name = 'a') OR big.v < 0)",
        );
        assert!(scan_filters(&p, "small").is_empty(), "{}", p.render());
        assert_eq!(scan_filters(&p, "big").len(), 1, "{}", p.render());
        // The original predicate is kept as the join residual.
        assert!(
            nodes(&p).iter().any(|n| matches!(n, Plan::Join { residual: Some(BExpr::Or(..)), .. })),
            "{}",
            p.render()
        );
    }

    #[test]
    fn implied_filter_is_sound_under_three_valued_logic() {
        use crate::exec::Chunk;
        use monetlite_storage::Bat;
        use std::sync::Arc;
        // (a = 1 AND b = 1) OR (a = 2 AND b IS NULL) over every
        // combination of a, b ∈ {NULL, 1, 2}: wherever the original is
        // TRUE, the derived `a = 1 OR a = 2` must be TRUE too.
        let (a, b) = (
            BExpr::ColRef { idx: 0, ty: LogicalType::Int },
            BExpr::ColRef { idx: 1, ty: LogicalType::Int },
        );
        let eq = |c: &BExpr, v| cmp(CmpOp::Eq, c.clone(), BExpr::Lit(Value::Int(v)));
        let pred = BExpr::Or(
            Box::new(BExpr::And(Box::new(eq(&a, 1)), Box::new(eq(&b, 1)))),
            Box::new(BExpr::And(
                Box::new(eq(&a, 2)),
                Box::new(BExpr::IsNull { input: Box::new(b.clone()), negated: false }),
            )),
        );
        let derived = implied_filter(&pred, &|c| c == 0).expect("every disjunct tests a");
        assert_eq!(derived.to_string(), "((#0 = 1) or (#0 = 2))");
        assert!(implied_filter(&pred, &|c| c == 1).is_some());
        let vals = [None, Some(1), Some(2)];
        let col = |f: &dyn Fn(usize) -> Option<i32>| {
            let mut bat = Bat::new(LogicalType::Int);
            for i in 0..9 {
                bat.push(&f(i).map_or(Value::Null, Value::Int)).unwrap();
            }
            Arc::new(bat)
        };
        let chunk = Chunk::dense(vec![col(&|i| vals[i / 3]), col(&|i| vals[i % 3])], 9);
        let (orig, der) = (chunk.eval(&pred).unwrap(), chunk.eval(&derived).unwrap());
        for i in 0..9 {
            if orig.get(i) == Value::Bool(true) {
                assert_eq!(der.get(i), Value::Bool(true), "row {i}");
            }
        }
    }

    /// `sink_semi_joins` decides on `cluster_rels`'s borrowed cut and then
    /// rewrites `flatten_join_cluster`'s owned one: the two must cut every
    /// cluster into the same relations, in the same order, with the same
    /// column map.
    #[test]
    fn borrowed_and_owned_cluster_walks_agree() {
        let (cat, stats) = setup();
        let queries = [
            "SELECT big.v FROM big, mid, small WHERE big.k = mid.big_id AND mid.id = small.id",
            "SELECT big.v FROM big, mid WHERE big.k = mid.big_id AND \
             EXISTS (SELECT * FROM small WHERE small.id = mid.id AND small.id <> mid.big_id)",
            "SELECT big.v FROM big, small WHERE big.k = small.id AND small.name = 'x' AND \
             EXISTS (SELECT * FROM mid WHERE mid.big_id = big.id)",
            "SELECT d.v, small.name FROM (SELECT big.v, mid.id FROM big, mid \
             WHERE big.k = mid.big_id) AS d, small WHERE d.id = small.id",
            "SELECT big.v FROM big, mid WHERE big.k = mid.big_id AND mid.id NOT IN \
             (SELECT small.id FROM small, mid AS m2 WHERE small.id = m2.big_id)",
            "SELECT small.name FROM small WHERE small.id IN (SELECT mid.id FROM mid, big \
             WHERE mid.big_id = big.id AND big.v > (SELECT avg(v) FROM big))",
        ];
        let mut clusters = 0;
        for sql in queries {
            let stmt = monetlite_sql::parse_statement(sql).unwrap();
            let monetlite_sql::Statement::Select(s) = stmt else { panic!() };
            let bound = Binder::new(&cat).bind_select(&s).unwrap();
            // The plan as `sink_semi_joins` sees it, and the final one.
            let mut seen =
                push_filters(extract_join_keys(fold_constants(bound).unwrap()).unwrap()).unwrap();
            derive_disjunct_filters(&mut seen).unwrap();
            let done = optimize(seen.clone(), OptFlags::default(), &stats, &cat).unwrap();
            for plan in [&seen, &done] {
                for n in nodes(plan) {
                    let mut borrowed = Vec::new();
                    let bmap = cluster_rels(n, &mut borrowed);
                    let (mut owned, mut preds) = (Vec::new(), Vec::new());
                    let omap = flatten_join_cluster(n.clone(), &mut owned, &mut preds).unwrap();
                    assert_eq!(bmap, omap, "{sql}: {}", n.render());
                    assert_eq!(borrowed.len(), owned.len(), "{sql}: {}", n.render());
                    assert!(borrowed.iter().zip(&owned).all(|(b, o)| *b == o), "{sql}");
                    clusters += usize::from(owned.len() > 1);
                }
            }
        }
        assert!(clusters >= queries.len(), "only {clusters} multi-relation clusters walked");
    }

    #[test]
    fn output_order_preserved_after_reorder() {
        let p = optimize_sql(
            "SELECT big.id, small.name, mid.id FROM big, small, mid \
             WHERE big.k = mid.big_id AND mid.id = small.id",
        );
        assert_eq!(&*p.schema()[0].name, "id");
        assert_eq!(&*p.schema()[1].name, "name");
        assert_eq!(p.schema().len(), 3);
    }

    // -- the enumerator as it was, kept as the oracle of `choose_order` ---

    /// The ordering code `choose_order` replaced, unchanged but for its
    /// names and for returning the DP's cost: `connects()` rescans the
    /// predicates, each improvement clones the order, and the greedy
    /// fallback collects columns per (relation, predicate) pair.
    /// The pre-statistics ordering: start from the smallest estimated
    /// relation, repeatedly join the connected relation with the smallest
    /// estimate.
    fn old_greedy_order(
        preds: &[BExpr],
        est: &[f64],
        rel_of_col: &dyn Fn(usize) -> usize,
    ) -> Vec<usize> {
        let n = est.len();
        let mut used = vec![false; n];
        let start = (0..n).min_by(|&a, &b| est[a].total_cmp(&est[b])).unwrap();
        used[start] = true;
        let mut order = vec![start];
        for _ in 1..n {
            // Relations connected to the used set by some predicate.
            let mut connected: Vec<usize> = Vec::new();
            for (i, &u) in used.iter().enumerate() {
                if u {
                    continue;
                }
                let is_conn = preds.iter().any(|p| {
                    let mut cols = Vec::new();
                    p.collect_cols(&mut cols);
                    let touches_i = cols.iter().any(|&c| rel_of_col(c) == i);
                    let touches_used = cols.iter().any(|&c| used[rel_of_col(c)]);
                    touches_i && touches_used
                });
                if is_conn {
                    connected.push(i);
                }
            }
            let pool: Vec<usize> = if connected.is_empty() {
                (0..n).filter(|&i| !used[i]).collect()
            } else {
                connected
            };
            let next = pool.into_iter().min_by(|&a, &b| est[a].total_cmp(&est[b])).unwrap();
            used[next] = true;
            order.push(next);
        }
        order
    }

    /// DPsize over left-deep join orders: `dp[S]` is the cheapest order of
    /// the relation subset `S`, costed as the sum of all intermediate result
    /// cardinalities. `card(S)` is order-independent — the product of the
    /// member estimates and the selectivity of every predicate fully
    /// contained in `S` — so plans are compared on a consistent model.
    /// Cross-join extensions are only considered when no connected extension
    /// exists (the classic connected-subgraph restriction).
    fn old_dp_order(
        rels: &[Plan],
        preds: &[BExpr],
        est: &[f64],
        offsets: &[usize],
        rel_of_col: &dyn Fn(usize) -> usize,
        stats: &dyn Stats,
    ) -> (f64, Vec<usize>) {
        let n = rels.len();
        let full: u32 = (1u32 << n) - 1;
        // Analyse predicates: touched-relation mask + selectivity.
        let infos: Vec<PredInfo> = preds
            .iter()
            .map(|p| {
                let mut cols = Vec::new();
                p.collect_cols(&mut cols);
                let mut mask = 0u32;
                for &c in &cols {
                    mask |= 1 << rel_of_col(c);
                }
                let sel = join_pred_selectivity(p, rels, est, offsets, rel_of_col, stats);
                PredInfo { mask, sel }
            })
            .collect();
        // card(S): memoised on demand.
        let mut card = vec![f64::NAN; (full + 1) as usize];
        let mut card_of = |s: u32| -> f64 {
            if !card[s as usize].is_nan() {
                return card[s as usize];
            }
            let mut c = 1.0f64;
            for (i, e) in est.iter().enumerate() {
                if s & (1 << i) != 0 {
                    c *= e;
                }
            }
            for pi in &infos {
                if pi.mask & s == pi.mask {
                    c *= pi.sel;
                }
            }
            let c = c.max(1.0);
            card[s as usize] = c;
            c
        };
        // Adjacency: rel i connects to subset S when a predicate touches both.
        let connects = |i: usize, s: u32| -> bool {
            infos.iter().any(|pi| pi.mask & (1 << i) != 0 && pi.mask & s & !(1 << i) != 0)
        };
        // dp over subsets by population count; value = (cost, order). The
        // epsilon base cost breaks cost ties toward starting from the
        // smallest relation (the filtered dimension leads the probe chain) —
        // it vanishes against any real cardinality difference.
        let mut dp: Vec<Option<(f64, Vec<usize>)>> = vec![None; (full + 1) as usize];
        for i in 0..n {
            dp[1usize << i] = Some((est[i] * 1e-6, vec![i]));
        }
        let mut subsets: Vec<u32> = (1..=full).collect();
        subsets.sort_by_key(|s| s.count_ones());
        for s in subsets {
            if s.count_ones() < 2 {
                continue;
            }
            // Connected last-relation extensions first; cross joins only when
            // the subset admits no connected order.
            for allow_cross in [false, true] {
                for last in 0..n {
                    if s & (1 << last) == 0 {
                        continue;
                    }
                    let rest = s & !(1 << last);
                    if !allow_cross && !connects(last, s) {
                        continue;
                    }
                    let Some((prev_cost, prev_order)) = &dp[rest as usize] else {
                        continue;
                    };
                    let cost = prev_cost + card_of(s);
                    if dp[s as usize].as_ref().is_none_or(|(c, _)| cost < *c) {
                        let mut order = prev_order.clone();
                        order.push(last);
                        dp[s as usize] = Some((cost, order));
                    }
                }
                if dp[s as usize].is_some() {
                    break;
                }
            }
        }
        match dp[full as usize].take() {
            Some((cost, order)) => (cost, order),
            // Unreachable in practice (cross extensions make every subset
            // solvable), but never fail the query over ordering.
            None => (f64::NAN, old_greedy_order(preds, est, rel_of_col)),
        }
    }

    /// xorshift64*: join graphs from a seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// Column statistics of a generated graph: `ndv[t][c]` for column `c`
    /// of table `t{t}`, `None` where the table has none.
    struct GraphStats(Vec<[Option<f64>; 2]>);

    impl Stats for GraphStats {
        fn table_rows(&self, _name: &str) -> usize {
            1000
        }

        fn column_stats(&self, table: &str, col: usize) -> Option<ColStats> {
            let t: usize = table.strip_prefix('t')?.parse().ok()?;
            let ndv = self.0.get(t)?[col]?;
            Some(ColStats { null_frac: 0.0, ndv, min_key: None, max_key: None })
        }
    }

    /// A join cluster as `order_joins` hands it to `choose_order`: `n`
    /// two-column scans and predicates over their concatenated schema.
    struct Graph {
        rels: Vec<Plan>,
        preds: Vec<BExpr>,
        est: Vec<f64>,
        stats: GraphStats,
    }

    impl Graph {
        fn scan(i: usize) -> Plan {
            Plan::Scan {
                table: format!("t{i}"),
                projected: vec![0, 1],
                filters: vec![],
                schema: vec![OutCol { name: "c".into(), ty: LogicalType::Int }; 2],
            }
        }

        fn col(rel: usize, c: usize) -> Box<BExpr> {
            Box::new(BExpr::ColRef { idx: 2 * rel + c, ty: LogicalType::Int })
        }

        fn eq(a: (usize, usize), b: (usize, usize)) -> BExpr {
            BExpr::Cmp { op: CmpOp::Eq, left: Graph::col(a.0, a.1), right: Graph::col(b.0, b.1) }
        }

        /// Shape 0 star, 1 chain, 2 clique, 3 two disconnected chains, 4
        /// random edges. Estimates repeat often enough to exercise the
        /// tie-breaks; some edges are not equalities, some predicates
        /// span three relations, some columns have no statistics.
        fn generate(seed: u64, n: usize, shape: u64) -> Graph {
            let mut g = Gen(seed | 1);
            let mut edges = Vec::new();
            match shape {
                0 => edges.extend((1..n).map(|i| (0, i))),
                1 => edges.extend((1..n).map(|i| (i - 1, i))),
                2 => edges.extend((0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)))),
                3 => edges.extend((1..n).filter(|&i| i != n / 2).map(|i| (i - 1, i))),
                _ => {
                    for _ in 0..n + g.below(n as u64) as usize {
                        let (a, b) = (g.below(n as u64) as usize, g.below(n as u64) as usize);
                        if a != b {
                            edges.push((a, b));
                        }
                    }
                }
            }
            let mut preds = Vec::new();
            for (a, b) in edges {
                let (ca, cb) = (g.below(2) as usize, g.below(2) as usize);
                preds.push(match g.below(8) {
                    0 => BExpr::Cmp {
                        op: CmpOp::Lt,
                        left: Graph::col(a, ca),
                        right: Graph::col(b, cb),
                    },
                    1 if n > 2 => {
                        let c = (b + 1) % n;
                        BExpr::And(
                            Box::new(Graph::eq((a, ca), (b, cb))),
                            Box::new(Graph::eq((b, 1 - cb), (c, 0))),
                        )
                    }
                    _ => Graph::eq((a, ca), (b, cb)),
                });
            }
            const EST: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 25_000.0];
            let est = (0..n)
                .map(|_| match g.below(3) {
                    0 => (1 + g.below(1_000_000)) as f64,
                    _ => EST[g.below(5) as usize],
                })
                .collect();
            let mut ndv = || match g.below(4) {
                0 => None,
                _ => Some((1 + g.below(100_000)) as f64),
            };
            let stats = GraphStats((0..n).map(|_| [ndv(), ndv()]).collect());
            Graph { rels: (0..n).map(Graph::scan).collect(), preds, est, stats }
        }

        /// (DP cost and order, greedy order) from the enumerator and from
        /// the oracle.
        #[allow(clippy::type_complexity)]
        fn orders(&self) -> [((u64, Vec<usize>), Vec<usize>); 2] {
            let offsets = flat_offsets(&self.rels);
            let rel_of_col = |c: usize| c / 2;
            let (rels, preds, est, stats) = (&self.rels, &self.preds, &self.est, &self.stats);
            let touched = touched_rels(preds, &rel_of_col);
            let infos = pred_infos(rels, preds, &touched, est, &offsets, &rel_of_col, stats);
            let (cost, order) = dp_order(est, &infos).unwrap();
            assert_eq!(choose_order(rels, preds, est, &offsets, &rel_of_col, stats, true), order);
            let greedy = greedy_order(est, &touched);
            assert_eq!(choose_order(rels, preds, est, &offsets, &rel_of_col, stats, false), greedy);
            let (old_cost, old_order) =
                old_dp_order(rels, preds, est, &offsets, &rel_of_col, stats);
            [
                ((cost.to_bits(), order), greedy),
                ((old_cost.to_bits(), old_order), old_greedy_order(preds, est, &rel_of_col)),
            ]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]
        #[test]
        fn prop_enumerator_matches_the_old_one(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..11,
            shape in 0u64..5,
        ) {
            let [new, old] = Graph::generate(seed, n, shape).orders();
            proptest::prop_assert_eq!(new, old, "seed {} n {} shape {}", seed, n, shape);
        }

        #[test]
        fn prop_greedy_matches_the_old_one_past_the_dp_cap(
            seed in proptest::prelude::any::<u64>(),
            n in 11usize..16,
            shape in 0u64..5,
        ) {
            let g = Graph::generate(seed, n, shape);
            let rel_of_col = |c: usize| c / 2;
            proptest::prop_assert_eq!(
                greedy_order(&g.est, &touched_rels(&g.preds, &rel_of_col)),
                old_greedy_order(&g.preds, &g.est, &rel_of_col)
            );
        }
    }

    /// The star and chain shapes of the join-order bench
    /// (`crates/bench/benches/joinorder.rs`), with its table sizes, its
    /// filtered dimensions' estimates and its key NDVs: both enumerators
    /// give the same orders, and DP leads with the one-row dimension.
    #[test]
    fn bench_star_and_chain_orders_match_the_old_enumerator() {
        // fact(ka, kb, kc, kd | val) joins dim_a..dim_d on their ids;
        // dim_c (100 rows, attr = 7 keeps 1/50) and dim_d (10k rows,
        // unique attr) are filtered.
        let star = Graph {
            rels: (0..5).map(Graph::scan).collect(),
            preds: (1..5).map(|d| Graph::eq((0, d % 2), (d, 0))).collect(),
            est: vec![600_000.0, 10_000.0, 1000.0, 2.0, 1.0],
            stats: GraphStats(vec![
                [Some(10_000.0), Some(1000.0)],
                [Some(10_000.0), Some(1000.0)],
                [Some(1000.0), Some(100.0)],
                [Some(100.0), Some(50.0)],
                [Some(10_000.0), Some(10_000.0)],
            ]),
        };
        // t1(200k) - t2(20k) - t3(2k) - t4(2k, one row kept).
        let chain = Graph {
            rels: (0..4).map(Graph::scan).collect(),
            preds: (1..4).map(|i| Graph::eq((i - 1, 0), (i, 0))).collect(),
            est: vec![200_000.0, 20_000.0, 2000.0, 1.0],
            stats: GraphStats(vec![
                [Some(20_000.0), Some(89.0)],
                [Some(20_000.0), Some(2000.0)],
                [Some(2000.0), Some(2000.0)],
                [Some(2000.0), Some(2000.0)],
            ]),
        };
        for (name, g) in [("star", star), ("chain", chain)] {
            let [new, old] = g.orders();
            assert_eq!(new, old, "{name}");
            assert_eq!(new.0 .1[0], g.rels.len() - 1, "{name}: DP starts from the one-row side");
        }
    }
}
