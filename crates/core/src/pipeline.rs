//! The pipeline execution engine, the only executor.
//!
//! A plan tree is broken at **pipeline breakers** — operators that must
//! see their whole input before producing output: hash-join *build*,
//! aggregation (`SELECT DISTINCT` included), sort/top-n, and limit's
//! final assembly. The non-breaking spine between breakers (scan →
//! filter → project → probe) becomes one [`Pipeline`]: its source rows
//! are carved into **morsels**, and a shared atomic cursor hands morsels
//! to worker threads (morsel-driven parallelism). Each worker pushes its
//! morsel through the operator chain and folds the result into a
//! thread-local partial sink state; partials merge once all morsels are
//! drained.
//!
//! [`ExecOptions::mode`] chooses only how [`drive`] cuts a pipeline into
//! morsels ([`morsel_rows`]):
//! * **Streaming** — at one thread, one vector (~64K rows,
//!   [`ExecOptions::vector_size`]) per morsel, the chunk-at-a-time design
//!   of MonetDBLite's successor lineage (DuckDB; see PAPERS.md). At more
//!   threads a source of more than one vector is cut into about four
//!   zone-aligned morsels per thread, at most a vector each, so the
//!   workers finish together; a smaller source stays one morsel. The
//!   calling thread is one of the workers. Parallelism covers whole query
//!   shapes: per-thread **partial hash aggregation** with a mapped merge
//!   ([`GroupTable`] + [`AggState::merge_mapped`]), parallel **hash-join
//!   probes** over a build table constructed once, and order-preserving
//!   parallel collection for sort/top-n/limit.
//! * **Materialized** — the paper's operator-at-a-time model (§3.1): one
//!   morsel over the whole source, so every operator sees a full column
//!   before the next one runs. Only a mitosis prefix (Figure 2) fans out
//!   over threads.
//!
//! Both policies return the same answers; the parity suites check every
//! configuration against the goldens and the row store.

use crate::agg::{AggState, GroupTable};
use crate::bloom::Bloom;
use crate::exec::{
    bare_scan_hash_entry, exec_scan, exec_values, finish_join_output, pair_probe_kind,
    project_cols, refine, Chunk, ExecContext, ExecMode, ExecOptions, ScanState, INDEX_RATIO,
};
use crate::expr::{AggSpec, BExpr};
use crate::join::JoinSel;
use crate::plan::{OutCol, PJoinKind, Plan};
use crate::rows::{cmp_cells, visit_keys, KeyCols, KeyVisitor};
use crate::sort::{sort_perm, topn_perm};
use crate::spill::{fanout, PartitionWriter, SpillFile, SpillReader};
use monetlite_storage::catalog::ColumnEntry;
use monetlite_storage::hash::{hash_rows, HashTable};
use monetlite_storage::index::ZONE_ROWS;
use monetlite_storage::{Bat, StrDict, StringHeap};
use monetlite_types::nulls::NULL_I32;
use monetlite_types::{LogicalType, MlError, Result, Value};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Pipeline decomposition
// ---------------------------------------------------------------------------

/// Where a pipeline's vectors come from.
enum Source<'p> {
    /// A base-table scan (filters applied per morsel; a single-morsel scan
    /// keeps the index-assisted, zero-copy whole-table path). `blooms`
    /// are join build-side filters pushed down by [`decompose`], keyed by
    /// scan-output column position; `extras` are synthetic full-length
    /// columns (dictionary code columns) appended after the `width`
    /// output columns (the read list's filter-only tail never leaves the
    /// scan); `state` holds the filters served from dictionaries,
    /// compiled by the first morsel, and the columns the scan has read.
    Table {
        table: &'p str,
        projected: &'p [usize],
        width: usize,
        filters: &'p [BExpr],
        rows: usize,
        state: ScanState,
        blooms: Vec<(usize, Arc<Bloom>)>,
        extras: Vec<Arc<Bat>>,
    },
    /// A materialised intermediate (a breaker's output), sliced into
    /// vectors.
    Mem(Chunk),
}

impl Source<'_> {
    fn rows(&self) -> usize {
        match self {
            Source::Table { rows, .. } => *rows,
            Source::Mem(c) => c.rows,
        }
    }

    fn fetch(&self, ctx: &ExecContext, lo: usize, hi: usize, whole: bool) -> Result<Chunk> {
        match self {
            Source::Table { table, projected, width, filters, state, blooms, extras, .. } => {
                // A morsel covering the whole table scans unranged, which
                // preserves imprint/order-index selection and zero-copy
                // column sharing. The streaming scan may return a chunk
                // carrying a candidate list over the base columns.
                let range = if whole { None } else { Some((lo as u32, hi as u32)) };
                exec_scan(table, projected, *width, filters, ctx, range, state, blooms, extras)
            }
            Source::Mem(c) => Ok(c.slice(lo, hi)),
        }
    }
}

/// A non-breaking operator applied to each vector in turn.
enum PipeOp<'p> {
    /// σ: evaluate the predicate, keep matching rows.
    Filter(&'p BExpr),
    /// π: compute output expressions (CSE + shared bare columns).
    Project(&'p [BExpr]),
    /// Hash-join probe against a completed build side.
    Probe {
        kind: PJoinKind,
        left_keys: &'p [BExpr],
        residual: Option<&'p BExpr>,
        /// The fully materialised build-side chunk.
        build_chunk: Chunk,
        /// Evaluated build-side key columns (aliases of `build_chunk`
        /// columns when the keys are bare references).
        build_keys: Vec<Arc<Bat>>,
        /// The hash table over `build_keys`: built from the build
        /// pipeline's output, or — for a bare persistent build column —
        /// its automatically maintained hash index (paper §3.1), so the
        /// build phase disappears.
        build: Arc<HashTable>,
    },
}

/// A streaming pipeline: source rows flow through `ops` one vector at a
/// time into whatever sink the driving operator installs.
struct Pipeline<'p> {
    source: Source<'p>,
    ops: Vec<PipeOp<'p>>,
}

/// Break `plan`'s non-breaking spine into a pipeline. Breaker children
/// (join build sides, aggregate/sort/... inputs of nested breakers) are
/// executed to completion recursively.
fn decompose<'p>(plan: &'p Plan, ctx: &ExecContext) -> Result<Pipeline<'p>> {
    match plan {
        Plan::Scan { table, projected, filters, schema } => {
            let meta = ctx.tables.table_meta(table)?;
            Ok(Pipeline {
                source: Source::Table {
                    table,
                    projected,
                    width: schema.len(),
                    filters,
                    rows: meta.data.rows,
                    state: ScanState::default(),
                    blooms: Vec::new(),
                    extras: Vec::new(),
                },
                ops: Vec::new(),
            })
        }
        Plan::Filter { input, pred } => {
            let mut p = decompose(input, ctx)?;
            p.ops.push(PipeOp::Filter(pred));
            Ok(p)
        }
        Plan::Project { input, exprs, .. } => {
            let mut p = decompose(input, ctx)?;
            p.ops.push(PipeOp::Project(exprs));
            Ok(p)
        }
        Plan::Join { left, right, kind, left_keys, right_keys, residual, schema } => {
            if left_keys.is_empty() && matches!(kind, PJoinKind::Semi | PJoinKind::Anti) {
                return Err(MlError::Execution("semi/anti join requires keys".into()));
            }
            let mut p = decompose(left, ctx)?;
            // Pipeline breaker: the build side runs to completion first.
            let build_chunk = execute_streaming(right, ctx)?;
            ctx.check_deadline()?;
            // eval_shared: bare-column keys alias the build chunk's
            // columns instead of copying them.
            let build_keys: Vec<Arc<Bat>> =
                right_keys.iter().map(|k| build_chunk.eval_shared(k)).collect::<Result<_>>()?;
            let index_entry = if right_keys.len() == 1 && ctx.opts.use_hash_index {
                bare_scan_hash_entry(right, right_keys, ctx)
            } else {
                None
            };
            let probe_entry = index_join_entry(left, left_keys, *kind, build_chunk.rows, ctx);
            // A transient build side is hashed once, a vector for the
            // whole side: the index nested-loop join, the bloom filter,
            // the grace partitions and the join table all read these
            // hashes.
            let rrefs: Vec<&Bat> = build_keys.iter().map(|a| &**a).collect();
            let build_hashes = if index_entry.is_none() || probe_entry.is_some() {
                hash_rows(&rrefs, None)
            } else {
                Vec::new()
            };
            if let Some(entry) = probe_entry {
                let joined = index_nested_loop(
                    &p,
                    &entry,
                    *kind,
                    residual.as_ref(),
                    &build_chunk,
                    &rrefs,
                    &build_hashes,
                    ctx,
                )?;
                if let Some(joined) = joined {
                    return Ok(Pipeline { source: Source::Mem(joined), ops: Vec::new() });
                }
            }
            // Sideways information passing: summarise the build side's key
            // hashes into a bloom filter and push it into the probe-side
            // scan, where it drops definite non-matches per morsel before
            // they enter the pipeline (see [`bloom_scan_col`] for when
            // that is sound). Index builds skip it — their build phase has
            // no transient table, and the probe is already O(1) per row.
            if ctx.opts.use_dict && index_entry.is_none() {
                if let (Some(col), Source::Table { blooms, .. }) =
                    (bloom_scan_col(*kind, left, left_keys), &mut p.source)
                {
                    blooms.push((
                        col,
                        Arc::new(visit_keys(&rrefs, &rrefs, BloomFill(&build_hashes))),
                    ));
                }
            }
            // Out-of-core path: a *transient* build side larger than the
            // memory budget is hash-partitioned to disk together with the
            // probe stream (grace join) and joined partition-by-partition.
            // Index builds are exempt — the probed column is persistent
            // data already under vmem control, not operator state.
            if index_entry.is_none() && !left_keys.is_empty() && !matches!(kind, PJoinKind::Cross) {
                if let Some(budget) = ctx.spill_budget() {
                    if build_chunk.mem_bytes() > budget {
                        let joined = grace_hash_join(
                            &p,
                            ctx,
                            *kind,
                            left_keys,
                            residual.as_ref(),
                            build_chunk,
                            build_keys,
                            &build_hashes,
                            schema,
                        )?;
                        return Ok(Pipeline { source: Source::Mem(joined), ops: Vec::new() });
                    }
                }
            }
            let build = match index_entry {
                Some(entry) => {
                    ctx.counters.bump(&ctx.counters.hash_index_joins);
                    entry.hash_index()?
                }
                None => Arc::new(HashTable::from_hashes(build_hashes, &rrefs)),
            };
            p.ops.push(PipeOp::Probe {
                kind: *kind,
                left_keys,
                residual: residual.as_ref(),
                build_chunk,
                build_keys,
                build,
            });
            Ok(p)
        }
        // Any other node is a breaker: run it, stream its output.
        other => {
            debug_assert!(
                other.is_pipeline_breaker() || matches!(other, Plan::Values { .. }),
                "non-breaker {other:?} fell out of the pipeline spine"
            );
            let chunk = execute_streaming(other, ctx)?;
            Ok(Pipeline { source: Source::Mem(chunk), ops: Vec::new() })
        }
    }
}

/// The probe column whose automatic hash index an Inner or Semi join
/// should probe with its `build_rows` build keys (an index nested-loop
/// join), or `None`. The probe side must be a bare scan with one
/// bare-column key ([`bare_scan_hash_entry`]: no filter, no deletion
/// mask), and the column's statistics must show at least [`INDEX_RATIO`]
/// distinct values per build row, so that the index is built only where
/// it replaces streaming most of the probe table past the build side.
fn index_join_entry(
    probe: &Plan,
    left_keys: &[BExpr],
    kind: PJoinKind,
    build_rows: usize,
    ctx: &ExecContext,
) -> Option<Arc<ColumnEntry>> {
    if !matches!(kind, PJoinKind::Inner | PJoinKind::Semi) || !ctx.opts.use_hash_index {
        return None;
    }
    let entry = bare_scan_hash_entry(probe, left_keys, ctx)?;
    let stats = entry.stats().ok()?;
    (build_rows.saturating_mul(INDEX_RATIO) as f64 <= stats.ndv()).then_some(entry)
}

/// The index nested-loop join: probe `entry`'s hash index with each build
/// key and gather only the matching rows of the probe scan `p`, instead
/// of streaming the whole probe table past the build side. The pairs are
/// sorted by (probe row, build row), the order a hash-join probe emits,
/// so the output is row-for-row the hash join's. `None` when the pairs
/// pass [`INDEX_RATIO`]'s fraction of the probe rows (a skewed key): the
/// caller falls back to the hash join.
#[allow(clippy::too_many_arguments)]
fn index_nested_loop(
    p: &Pipeline,
    entry: &ColumnEntry,
    kind: PJoinKind,
    residual: Option<&BExpr>,
    build_chunk: &Chunk,
    build_keys: &[&Bat],
    build_hashes: &[u64],
    ctx: &ExecContext,
) -> Result<Option<Chunk>> {
    let probe_rows = p.source.rows();
    // An empty build side joins nothing: no index is built for it.
    let pairs = if build_chunk.rows == 0 {
        Some(Vec::new())
    } else {
        let (index, column) = (entry.hash_index()?, entry.bat()?);
        let cap = probe_rows / INDEX_RATIO;
        crate::join::probe_index(build_keys, build_hashes, &[&*column], &index, cap)
    };
    let Some(mut pairs) = pairs else {
        return Ok(None);
    };
    pairs.sort_unstable();
    let (mut lsel, mut rsel): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
    if pair_probe_kind(kind, residual) == PJoinKind::Semi {
        lsel.dedup();
        rsel.clear();
    }
    ctx.counters.bump(&ctx.counters.hash_index_joins);
    let probe = p.source.fetch(ctx, 0, probe_rows, true)?;
    let sel = JoinSel { lsel, rsel };
    finish_join_output(&probe.cols, &build_chunk.cols, sel, kind, residual, probe_rows).map(Some)
}

/// The probe-side scan column at which the build-side bloom filter of a
/// probe may be pushed, or `None`.
///
/// Pruning a scan row is sound exactly when this probe kills every row
/// descended from it. Inner/Semi probes emit only matching rows, so that
/// holds when the probe key is a single bare column whose value every
/// descendant carries unchanged from one scan column: the key is traced
/// down the pipeline through Filters (which keep columns in place),
/// through Projects whose expression at that position is a bare column
/// reference (which move it), and through earlier probes of any kind whose
/// probe side holds it (a probe's output starts with its probe side's
/// columns; NULL padding and anti/semi filtering only drop or repeat
/// rows). A key that is computed, or comes from an earlier build side,
/// pushes nothing. The scan hashes the column it reaches exactly as the
/// probe hashes the key. EXPLAIN's `[bloom]` tag asks the same question.
pub(crate) fn bloom_scan_col(kind: PJoinKind, probe: &Plan, left_keys: &[BExpr]) -> Option<usize> {
    if !matches!(kind, PJoinKind::Inner | PJoinKind::Semi) {
        return None;
    }
    let [BExpr::ColRef { idx, .. }] = left_keys else {
        return None;
    };
    let (mut plan, mut idx) = (probe, *idx);
    loop {
        match plan {
            Plan::Scan { schema, .. } => return (idx < schema.len()).then_some(idx),
            Plan::Filter { input, .. } => plan = input,
            Plan::Project { input, exprs, .. } => match exprs.get(idx)? {
                BExpr::ColRef { idx: from, .. } => (plan, idx) = (input, *from),
                _ => return None,
            },
            Plan::Join { left, .. } if idx < left.schema().len() => plan = left,
            _ => return None,
        }
    }
}

/// Fill a bloom filter with the hashes of the build rows whose key is not
/// NULL (a NULL key never joins), one typed NULL test per row.
struct BloomFill<'a>(&'a [u64]);

impl KeyVisitor for BloomFill<'_> {
    type Out = Bloom;

    fn visit<K: KeyCols>(self, keys: &K, _: &K) -> Bloom {
        let mut bl = Bloom::with_capacity(self.0.len());
        for (r, &h) in self.0.iter().enumerate() {
            if !keys.null(r) {
                bl.insert(h);
            }
        }
        bl
    }
}

// ---------------------------------------------------------------------------
// Morsel driver
// ---------------------------------------------------------------------------

/// What a pipeline feeds, as far as the morsel policy cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sink {
    /// A global aggregate without COUNT(DISTINCT): partial states merge,
    /// so even a bare scan fans out under it (the paper's Figure 2).
    Merge,
    /// Rows collected, sorted, limited or partitioned: a chain that
    /// filters or computes fans out, then packs.
    Rows,
    /// A grouped aggregate (`SELECT DISTINCT` included) or one with
    /// COUNT(DISTINCT): never fed a fanned-out prefix.
    Whole,
}

impl Sink {
    /// The sink of an aggregate with these groups and aggregates.
    fn of_aggregate(groups: &[BExpr], aggs: &[AggSpec]) -> Sink {
        if groups.is_empty() && !aggs.iter().any(|a| a.distinct) {
            Sink::Merge
        } else {
            Sink::Whole
        }
    }

    /// Whether a probe-free chain over a base-table scan feeding this sink
    /// is a mitosis prefix; `computes`: the chain has a Filter or Project.
    fn takes_prefix(self, computes: bool) -> bool {
        self == Sink::Merge || (self == Sink::Rows && computes)
    }
}

/// The morsel policy: rows per morsel of a pipeline over `rows` source
/// rows. `prefix` says the pipeline is a mitosis prefix (paper Figure 2):
/// a probe-free chain over a base-table scan that its sink takes (see
/// [`Sink`]).
///
/// Streaming cuts a pipeline into vectors. When more than one thread runs
/// and the source holds more than one vector, it cuts about four morsels
/// per thread instead, so the workers end together: `rows / (4·threads)`
/// rounded up to whole zones ([`ZONE_ROWS`], so zonemap and dictionary
/// zone skipping stay exact), never more than a vector. A source of at
/// most one vector stays one whole morsel, which keeps the index-assisted,
/// zero-copy scan. Materialized runs each pipeline as one morsel over its
/// whole source; a prefix holding at least two vectors splits into
/// `clamp(rows / vector_size, 2, 2·threads)` slices when more than one
/// thread runs ("the optimizer will not split up small columns").
fn morsel_rows(rows: usize, prefix: bool, opts: &ExecOptions) -> usize {
    let vs = opts.vector_size.max(1);
    match opts.mode {
        // `min`, not `clamp`: a vector may be smaller than a zone.
        ExecMode::Streaming if opts.threads > 1 && rows > vs => {
            rows.div_ceil(opts.threads.saturating_mul(4)).next_multiple_of(ZONE_ROWS).min(vs)
        }
        ExecMode::Streaming => vs,
        ExecMode::Materialized if prefix && opts.threads > 1 && rows / 2 >= vs => {
            rows.div_ceil((rows / vs).clamp(2, opts.threads.saturating_mul(2)))
        }
        ExecMode::Materialized => rows.max(1),
    }
}

/// Drive a pipeline into `sink` morsel-by-morsel, cut by
/// [`morsel_rows`]. Each worker owns a partial sink state created by
/// `new_partial`; `consume(partial, morsel_id, vector)` folds one
/// processed vector in and may return `Ok(false)` to stop all workers
/// (limit early-exit). Runs `min(threads, morsels)` workers, one of them
/// on the calling thread; this is the engine's only fan-out over threads.
/// Returns every worker's partial.
fn drive<'p, P, NF, CF>(
    pipe: &Pipeline<'p>,
    ctx: &ExecContext,
    sink: Sink,
    new_partial: NF,
    consume: CF,
) -> Result<Vec<P>>
where
    P: Send,
    NF: Fn() -> P + Sync,
    CF: Fn(&mut P, usize, Chunk) -> Result<bool> + Sync,
{
    let rows = pipe.source.rows();
    let prefix = matches!(pipe.source, Source::Table { .. })
        && !pipe.ops.iter().any(|op| matches!(op, PipeOp::Probe { .. }))
        && sink.takes_prefix(!pipe.ops.is_empty());
    let per = morsel_rows(rows, prefix, &ctx.opts);
    let n_morsels = rows.div_ceil(per);
    ctx.counters.bump(&ctx.counters.pipelines);
    if n_morsels == 0 {
        return Ok(Vec::new());
    }
    let threads = ctx.opts.threads.max(1).min(n_morsels);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    let worker = |part: &mut P| -> Result<()> {
        loop {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            if m >= n_morsels || stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            // Counts morsels actually dispatched — early exit (limit)
            // leaves the tail unscanned and uncounted.
            ctx.counters.bump(&ctx.counters.morsels);
            ctx.check_deadline()?;
            let (lo, hi) = (m * per, ((m + 1) * per).min(rows));
            let chunk = pipe.source.fetch(ctx, lo, hi, n_morsels == 1)?;
            ctx.counters.bump(&ctx.counters.vectors);
            let chunk = apply_ops(chunk, &pipe.ops, ctx)?;
            if !consume(part, m, chunk)? {
                stop.store(true, Ordering::Relaxed);
                return Ok(());
            }
        }
    };
    // One panic policy for every worker, the caller's included: a crash
    // degrades to a query error instead of unwinding into (and killing)
    // the host process, and the connection stays usable afterwards. A
    // failed worker wakes the others so the error surfaces promptly.
    let run = || -> Result<P> {
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut part = new_partial();
            worker(&mut part).map(|()| part)
        }))
        .unwrap_or_else(|p| Err(crate::exec::worker_panic_error(&*p)));
        if out.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        out
    };

    if threads == 1 {
        // Sequential: no thread spawn, deterministic morsel order.
        return run().map(|part| vec![part]);
    }
    // The caller is a worker too: it spawns one helper fewer than the
    // workers it needs, and joins every helper before returning.
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
        let mut parts = vec![run()];
        for h in helpers {
            parts.push(h.join().unwrap_or_else(|p| Err(crate::exec::worker_panic_error(&*p))));
        }
        parts.into_iter().collect()
    })
}

/// Push one vector through the operator chain.
fn apply_ops(mut chunk: Chunk, ops: &[PipeOp], ctx: &ExecContext) -> Result<Chunk> {
    for op in ops {
        // Per-operator (not just per-morsel) checkpoint: a timeout or a
        // cross-thread interrupt fires mid-morsel even when a single
        // vector's operator chain is expensive (wide probes, regex-heavy
        // projections).
        ctx.check_deadline()?;
        match op {
            PipeOp::Filter(pred) => chunk = filter_chunk(chunk, pred)?,
            PipeOp::Project(exprs) => {
                // Projection consumes any candidate list: each output
                // expression evaluates at only the selected positions
                // (bare columns gather once), yielding a dense chunk.
                chunk = Chunk::dense(project_cols(exprs, &chunk)?, chunk.rows);
            }
            PipeOp::Probe { kind, left_keys, residual, build_chunk, build_keys, build } => {
                // Pair-wise residual semantics (semi/anti/left) and the
                // scalar (key-less left) join reason over probe-row
                // groups, so they need materialised (logical == physical)
                // probe rows; the common inner/cross shapes keep the
                // candidate fast path.
                let pairwise = (residual.is_some()
                    && matches!(kind, PJoinKind::Semi | PJoinKind::Anti | PJoinKind::Left))
                    || (*kind == PJoinKind::Left && left_keys.is_empty());
                if pairwise {
                    chunk = chunk.materialize();
                }
                let base_sel = chunk.sel.clone();
                let probe_kind = pair_probe_kind(*kind, *residual);
                let mut sel = if *kind == PJoinKind::Cross || left_keys.is_empty() {
                    if *kind == PJoinKind::Left && residual.is_none() {
                        crate::join::scalar_left_pairs(chunk.rows, build_chunk.rows)?
                    } else {
                        crate::join::cross_join(chunk.rows, build_chunk.rows)
                    }
                } else {
                    // eval_shared: bare-column probe keys alias the
                    // vector's columns (no per-vector key copy); under a
                    // candidate list they compact to the selected rows.
                    let lkey_bats: Vec<Arc<Bat>> =
                        left_keys.iter().map(|k| chunk.eval_shared(k)).collect::<Result<_>>()?;
                    let lrefs: Vec<&Bat> = lkey_bats.iter().map(|a| &**a).collect();
                    let rrefs: Vec<&Bat> = build_keys.iter().map(|a| &**a).collect();
                    crate::join::probe(&lrefs, &rrefs, build, probe_kind)
                };
                // The probe emitted logical positions; rewrite them to
                // physical row ids so the output gather is the single
                // materialisation of the candidate chain.
                if let Some(s) = &base_sel {
                    sel.compose_lsel(s);
                }
                let probe_rows = chunk.rows;
                chunk = finish_join_output(
                    &chunk.cols,
                    &build_chunk.cols,
                    sel,
                    *kind,
                    *residual,
                    probe_rows,
                )?;
            }
        }
    }
    if chunk.sel.is_some() {
        ctx.counters.bump(&ctx.counters.sel_vectors);
    }
    Ok(chunk)
}

/// σ with candidate lists: refine the chunk's selection instead of
/// gathering. A chunk already carrying a selection evaluates the
/// predicate at its positions only, so a row-level evaluation error
/// (e.g. division by zero) can never surface from a row an earlier
/// filter removed, exactly as if each filter gathered its survivors. A
/// near-full result (the ~90% density cutoff) materialises eagerly, so
/// unselective filters don't trade contiguous access for indexed access
/// downstream.
fn filter_chunk(chunk: Chunk, pred: &BExpr) -> Result<Chunk> {
    let new_sel = refine(pred, &chunk.cols, chunk.rows, chunk.positions())?;
    let rows = new_sel.len();
    let narrowed = Chunk { cols: chunk.cols, rows, sel: Some(Arc::new(new_sel)) };
    // Scan-origin selections sit on table-wide base columns, so their
    // density against phys_rows is always far below the cutoff and they
    // keep riding; a dense morsel whose filter kept nearly everything
    // gathers here instead.
    if rows * 10 >= narrowed.phys_rows() * crate::exec::SEL_DENSITY_CUTOFF_TENTHS {
        return Ok(narrowed.materialize());
    }
    Ok(narrowed)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// One worker's chunks, tagged with their morsel ids.
type Tagged = Vec<(usize, Chunk)>;

/// Order-preserving collection: per-morsel chunks packed in morsel order.
fn collect_ordered(parts: Vec<Tagged>, schema: &[OutCol]) -> Result<Chunk> {
    let mut all: Vec<(usize, Chunk)> = parts.into_iter().flatten().collect();
    if all.is_empty() {
        return Ok(Chunk::empty(schema));
    }
    all.sort_by_key(|(m, _)| *m);
    Chunk::pack(all.into_iter().map(|(_, c)| c).collect())
}

/// Run a non-breaking plan spine to a fully collected chunk.
fn collect(plan: &Plan, ctx: &ExecContext) -> Result<Chunk> {
    let pipe = decompose(plan, ctx)?;
    // Pass-through pipelines (no operators, nothing to filter) need no
    // morselization: hand the source back whole. For a filterless table
    // scan this preserves the zero-copy Arc-shared column path; packing
    // per-morsel slices would copy every column twice.
    if pipe.ops.is_empty() {
        let passthrough = match &pipe.source {
            Source::Mem(_) => true,
            Source::Table { filters, .. } => filters.is_empty(),
        };
        if passthrough {
            ctx.counters.bump(&ctx.counters.pipelines);
            ctx.counters.bump(&ctx.counters.morsels);
            ctx.counters.bump(&ctx.counters.vectors);
            let rows = pipe.source.rows();
            return match pipe.source {
                Source::Mem(c) => Ok(c),
                table => table.fetch(ctx, 0, rows, true),
            };
        }
    }
    let parts = drive(&pipe, ctx, Sink::Rows, Vec::new, |p: &mut Tagged, m, c| {
        if c.rows > 0 {
            // The pipeline sink: a candidate chunk materialises here,
            // exactly once.
            p.push((m, c.materialize()));
        }
        Ok(true)
    })?;
    collect_ordered(parts, plan.schema())
}

/// Per-thread partial state of morsel-parallel (grouped) aggregation.
struct AggPartial {
    /// Group interning table (None for the global single group).
    table: Option<GroupTable>,
    states: Vec<AggState>,
}

fn new_agg_partial(groups: &[BExpr], aggs: &[AggSpec]) -> Result<AggPartial> {
    let table = if groups.is_empty() {
        None
    } else {
        Some(GroupTable::new(&groups.iter().map(|g| g.ty()).collect::<Vec<_>>()))
    };
    let n0 = if groups.is_empty() { 1 } else { 0 };
    let states = aggs
        .iter()
        .map(|s| AggState::new(s.func, s.arg.as_ref().map(|a| a.ty()), s.distinct, n0))
        .collect::<Result<_>>()?;
    Ok(AggPartial { table, states })
}

fn agg_consume(
    part: &mut AggPartial,
    chunk: &Chunk,
    groups: &[BExpr],
    aggs: &[AggSpec],
) -> Result<()> {
    if chunk.rows == 0 {
        return Ok(());
    }
    // Candidate-list ingest: group keys and aggregate arguments compact
    // through the chunk's selection ([`Chunk::eval_shared`]) — the
    // filtered-out rows of a candidate chunk are never touched, and
    // nothing is materialised; over a dense chunk a bare column is shared,
    // not copied.
    let gids: Vec<u32> = match &mut part.table {
        None => vec![0; chunk.rows],
        Some(table) => {
            let key_bats: Vec<Arc<Bat>> =
                groups.iter().map(|g| chunk.eval_shared(g)).collect::<Result<_>>()?;
            let refs: Vec<&Bat> = key_bats.iter().map(|b| &**b).collect();
            let gids = table.intern_block(&refs)?;
            let n = table.n_groups();
            for st in &mut part.states {
                st.ensure_groups(n);
            }
            gids
        }
    };
    for (st, spec) in part.states.iter_mut().zip(aggs) {
        let arg = spec.arg.as_ref().map(|a| chunk.eval_shared(a)).transpose()?;
        st.update(arg.as_deref(), &gids)?;
    }
    Ok(())
}

/// Merge `other` into `acc`, remapping other's dense group ids into acc's.
fn agg_merge(mut acc: AggPartial, other: AggPartial) -> Result<AggPartial> {
    match (&mut acc.table, other.table) {
        (None, None) => {
            for (a, b) in acc.states.iter_mut().zip(other.states) {
                a.merge(b)?;
            }
        }
        (Some(at), Some(bt)) => {
            let map = at.merge(&bt)?;
            let n = at.n_groups();
            for a in acc.states.iter_mut() {
                a.ensure_groups(n);
            }
            for (a, b) in acc.states.iter_mut().zip(other.states) {
                a.merge_mapped(b, &map)?;
            }
        }
        _ => return Err(MlError::Execution("mismatched aggregation partials".into())),
    }
    Ok(acc)
}

/// Approximate resident bytes of one partial (group table + states).
fn agg_partial_bytes(p: &AggPartial) -> usize {
    p.table.as_ref().map_or(0, |t| t.mem_bytes())
        + p.states.iter().map(|s| s.mem_bytes()).sum::<usize>()
}

/// Per-thread aggregation state: the in-memory partial, and whether it
/// is frozen. Once the partial outgrows its budget share it is frozen (it
/// stays within budget by construction) and every later vector goes to
/// the aggregate's spill partitioner instead.
struct AggWorker {
    part: AggPartial,
    frozen: bool,
}

/// The spill side of a grouped aggregate under a budget: one partitioner
/// every frozen worker routes to by group key hash. The first worker to
/// freeze sizes it from the state still to come: the source rows no
/// worker has consumed, each charged the bytes per group of its frozen
/// partial. Filters only shrink that bound; a join that multiplies rows
/// can beat it, and a partition it overfills is aggregated in memory all
/// the same.
struct AggSpill {
    /// Each worker's share of the budget.
    share: usize,
    /// The budget one spilled partition is aggregated under.
    budget: usize,
    source_rows: usize,
    ingested: AtomicUsize,
    writer: Mutex<Option<PartitionWriter>>,
}

fn agg_worker_consume(
    w: &mut AggWorker,
    c: &Chunk,
    groups: &[BExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    spill: Option<&AggSpill>,
) -> Result<()> {
    if c.rows == 0 {
        return Ok(());
    }
    // Global (ungrouped) aggregates hold O(1) state — never spill.
    let sp = match spill {
        Some(sp) if w.part.table.is_some() => sp,
        _ => return agg_consume(&mut w.part, c, groups, aggs),
    };
    // A morsel of more than a vector (the materialized policy's whole
    // source) goes in a vector at a time, so the partial can freeze
    // part-way through it and route the rest to disk.
    let vs = ctx.opts.vector_size.max(1);
    if c.rows > vs {
        for lo in (0..c.rows).step_by(vs) {
            let part = c.slice(lo, (lo + vs).min(c.rows));
            agg_worker_consume(w, &part, groups, aggs, ctx, spill)?;
        }
        return Ok(());
    }
    let ingested = sp.ingested.fetch_add(c.rows, Ordering::Relaxed) + c.rows;
    let poisoned = || MlError::Execution("aggregate partitioner lock poisoned".into());
    if w.frozen {
        // Spill routing writes whole rows to disk: materialise a
        // candidate chunk first (cheap Arc clones when already dense).
        let dense = c.clone().materialize();
        let key_bats: Vec<Bat> = groups.iter().map(|g| dense.eval(g)).collect::<Result<_>>()?;
        let refs: Vec<&Bat> = key_bats.iter().collect();
        let hashes = hash_rows(&refs, None);
        let mut writer = sp.writer.lock().map_err(|_| poisoned())?;
        let writer = writer.as_mut().ok_or_else(|| {
            MlError::Execution("frozen aggregate worker without a partitioner".into())
        })?;
        return writer.route(&ctx.spill, &dense, (0..).zip(hashes));
    }
    agg_consume(&mut w.part, c, groups, aggs)?;
    let Some(table) = &w.part.table else {
        return Ok(());
    };
    let bytes = agg_partial_bytes(&w.part);
    if bytes > sp.share {
        let to_come =
            sp.source_rows.saturating_sub(ingested).saturating_mul(bytes / table.n_groups().max(1));
        sp.writer
            .lock()
            .map_err(|_| poisoned())?
            .get_or_insert_with(|| PartitionWriter::new(fanout(to_come, sp.budget)));
        w.frozen = true;
    }
    Ok(())
}

/// Aggregate one spilled partition file in memory.
fn aggregate_spill_file(
    file: SpillFile,
    groups: &[BExpr],
    aggs: &[AggSpec],
    ctx: &ExecContext,
) -> Result<AggPartial> {
    let mut part = new_agg_partial(groups, aggs)?;
    let mut reader = file.into_reader()?;
    while let Some(c) = reader.next()? {
        ctx.check_deadline()?;
        agg_consume(&mut part, &c, groups, aggs)?;
    }
    Ok(part)
}

fn run_aggregate(
    input: &Plan,
    groups: &[BExpr],
    aggs: &[AggSpec],
    schema: &[OutCol],
    ctx: &ExecContext,
) -> Result<Chunk> {
    let mut pipe = decompose(input, ctx)?;
    // Group-by over dictionary codes: a bare VARCHAR group key over a
    // table source (Filter-only spine — Projects/Probes would remap
    // column positions) is rewritten to a synthetic Int code column the
    // scan appends, so interning hashes and compares dense integers
    // instead of strings. Codes rehydrate to strings at the sink below;
    // spilled partials carry them as plain Int columns.
    let mut groups_vec: Vec<BExpr> = groups.to_vec();
    let mut rehydrate: Vec<(usize, Arc<StrDict>)> = Vec::new();
    if ctx.opts.use_dict && pipe.ops.iter().all(|op| matches!(op, PipeOp::Filter(_))) {
        if let Source::Table { table, projected, width, extras, .. } = &mut pipe.source {
            if let Ok(meta) = ctx.tables.table_meta(table) {
                for (g, key) in groups_vec.iter_mut().enumerate() {
                    let idx = match key {
                        BExpr::ColRef { idx, ty: LogicalType::Varchar } => *idx,
                        _ => continue,
                    };
                    let Some(&base) = projected.get(idx) else { continue };
                    let Ok(entry) = meta.data.cols[base].entry() else { continue };
                    if entry.is_empty() {
                        continue;
                    }
                    let Ok(d) = entry.dict() else { continue };
                    // Built once per dictionary and shared: the aggregate
                    // reads the cached column, it never copies the codes.
                    let Ok(Some(codes)) = entry.dict_codes() else { continue };
                    let pos = *width + extras.len();
                    extras.push(codes);
                    *key = BExpr::ColRef { idx: pos, ty: LogicalType::Int };
                    rehydrate.push((g, d));
                    ctx.counters.bump(&ctx.counters.dict_hits);
                }
            }
        }
    }
    let groups = groups_vec.as_slice();
    let spill = ctx.spill_budget().map(|budget| AggSpill {
        share: (budget / ctx.opts.threads.max(1)).max(1),
        budget,
        source_rows: pipe.source.rows(),
        ingested: AtomicUsize::new(0),
        writer: Mutex::new(None),
    });
    // Each worker's closure may fail on first use; surface errors from
    // partial construction through a per-worker Result partial.
    let parts: Vec<Result<AggWorker>> = drive(
        &pipe,
        ctx,
        Sink::of_aggregate(groups, aggs),
        || new_agg_partial(groups, aggs).map(|part| AggWorker { part, frozen: false }),
        |p: &mut Result<AggWorker>, _m, c| {
            if let Ok(w) = p.as_mut() {
                if let Err(e) = agg_worker_consume(w, &c, groups, aggs, ctx, spill.as_ref()) {
                    *p = Err(e);
                    return Ok(false);
                }
            }
            Ok(true)
        },
    )?;
    let mut merged: Option<AggPartial> = None;
    for p in parts {
        let w = p?;
        merged = Some(match merged {
            None => w.part,
            Some(acc) => agg_merge(acc, w.part)?,
        });
    }
    // Drain spilled partitions one at a time; agg_merge remaps groups the
    // in-memory partials already hold, so every partition merges exactly
    // once.
    let writer = match spill {
        None => None,
        Some(sp) => sp
            .writer
            .into_inner()
            .map_err(|_| MlError::Execution("aggregate partitioner lock poisoned".into()))?,
    };
    if let Some(writer) = writer {
        let (files, bytes) = writer.finish(&ctx.spill)?;
        note_spill(ctx, &files, bytes);
        for f in files.into_iter().flatten() {
            let sub = aggregate_spill_file(f, groups, aggs, ctx)?;
            merged = Some(match merged {
                None => sub,
                Some(acc) => agg_merge(acc, sub)?,
            });
        }
    }
    // Zero-morsel (empty source) aggregation still produces output: one
    // row globally, zero rows grouped.
    let merged = match merged {
        Some(m) => m,
        None => new_agg_partial(groups, aggs)?,
    };
    let (mut cols, rows): (Vec<Arc<Bat>>, usize) = match merged.table {
        None => (Vec::with_capacity(aggs.len()), 1),
        Some(table) => {
            let n = table.n_groups();
            let mut keys: Vec<Arc<Bat>> = table.into_keys().into_iter().map(Arc::new).collect();
            // Dictionary-coded group keys rehydrate to strings here, at
            // the sink — one decode per output *group*, not per input row.
            for (g, d) in &rehydrate {
                keys[*g] = Arc::new(decode_codes(&keys[*g], d)?);
            }
            (keys, n)
        }
    };
    for (i, st) in merged.states.into_iter().enumerate() {
        let mut st = st;
        st.ensure_groups(rows.max(if groups.is_empty() { 1 } else { 0 }));
        cols.push(Arc::new(st.finish(schema[groups.len() + i].ty)?));
    }
    Ok(Chunk::dense(cols, rows))
}

/// Rehydrate a dictionary-coded Int key column back to its VARCHAR
/// strings (codes never leave the engine).
fn decode_codes(codes: &Bat, d: &StrDict) -> Result<Bat> {
    let Bat::Int(v) = codes else {
        return Err(MlError::Execution("dictionary-coded group key is not Int".into()));
    };
    let mut out = Bat::new(LogicalType::Varchar);
    for &c in v {
        if c == NULL_I32 {
            out.push(&Value::Null)?;
        } else {
            out.push(&Value::Str(d.value(c as u32).to_string()))?;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Execute a plan under either morsel policy. Pipeline breakers run their
/// input pipelines to completion (morsel-parallel), then produce the
/// chunk the enclosing pipeline streams from.
pub fn execute_streaming(plan: &Plan, ctx: &ExecContext) -> Result<Chunk> {
    ctx.check_deadline()?;
    match plan {
        Plan::Aggregate { input, groups, aggs, schema } => {
            run_aggregate(input, groups, aggs, schema, ctx)
        }
        Plan::Sort { input, keys } => {
            // Under a memory budget the blocking sort runs as an external
            // merge sort (sorted runs spilled per morsel batch, k-way
            // merge on collect); byte-identical to the in-memory path.
            if let Some(budget) = ctx.spill_budget() {
                return external_sort(input, keys, ctx, budget);
            }
            let chunk = collect(input, ctx)?;
            ctx.check_deadline()?;
            let key_refs: Vec<(&Bat, bool)> =
                keys.iter().map(|&(c, d)| (&*chunk.cols[c], d)).collect();
            let perm = sort_perm(&key_refs, chunk.rows);
            Ok(chunk.take(&perm))
        }
        Plan::TopN { input, keys, n } => {
            let n = *n as usize;
            let pipe = decompose(input, ctx)?;
            // Per-morsel compaction: a row outside its own morsel's top-n
            // can never be in the global top-n (topn_perm is a total
            // order), so workers keep at most n rows per vector.
            let parts = drive(&pipe, ctx, Sink::Rows, Vec::new, |p: &mut Tagged, m, c| {
                if c.rows == 0 {
                    return Ok(true);
                }
                let c = c.materialize(); // top-n ingest is this pipeline's sink
                let compact = if c.rows > n {
                    let key_refs: Vec<(&Bat, bool)> =
                        keys.iter().map(|&(ci, d)| (&*c.cols[ci], d)).collect();
                    let perm = topn_perm(&key_refs, c.rows, n);
                    c.take(&perm)
                } else {
                    c
                };
                p.push((m, compact));
                Ok(true)
            })?;
            let packed = collect_ordered(parts, input.schema())?;
            ctx.check_deadline()?;
            let key_refs: Vec<(&Bat, bool)> =
                keys.iter().map(|&(c, d)| (&*packed.cols[c], d)).collect();
            let perm = topn_perm(&key_refs, packed.rows, n);
            Ok(packed.take(&perm))
        }
        Plan::Limit { input, n } => {
            let n = *n as usize;
            let pipe = decompose(input, ctx)?;
            // Early exit: once the completed morsels form a contiguous
            // prefix with >= n rows, no later morsel can contribute to
            // the first n rows in scan order — stop the scan.
            let done: Mutex<HashMap<usize, usize>> = Mutex::new(HashMap::new());
            let parts = drive(&pipe, ctx, Sink::Rows, Vec::new, |p: &mut Tagged, m, c| {
                let rows = c.rows;
                p.push((m, c.materialize()));
                let mut map = done
                    .lock()
                    .map_err(|_| MlError::Execution("limit tracker lock poisoned".into()))?;
                map.insert(m, rows);
                let mut prefix = 0usize;
                let mut k = 0usize;
                while let Some(r) = map.get(&k) {
                    prefix += r;
                    if prefix >= n {
                        return Ok(false);
                    }
                    k += 1;
                }
                Ok(true)
            })?;
            let mut all: Vec<(usize, Chunk)> = parts.into_iter().flatten().collect();
            all.sort_by_key(|(m, _)| *m);
            let mut out: Vec<Chunk> = Vec::new();
            let mut taken = 0usize;
            for (_, c) in all {
                if taken >= n {
                    break;
                }
                let want = (n - taken).min(c.rows);
                taken += want;
                out.push(if want == c.rows { c } else { c.slice(0, want) });
            }
            if out.is_empty() {
                return Ok(Chunk::empty(input.schema()));
            }
            Chunk::pack(out)
        }
        Plan::Values { rows, schema } => exec_values(rows, schema),
        // Pure pipeline shapes (scan/filter/project/join-probe spines).
        _ => collect(plan, ctx),
    }
}

// ---------------------------------------------------------------------------
// Out-of-core operators (grace hash join, external merge sort)
// ---------------------------------------------------------------------------

/// Record freshly finished spill partitions in the counters.
fn note_spill(ctx: &ExecContext, parts: &[Option<SpillFile>], bytes: u64) {
    let n = parts.iter().flatten().count() as u64;
    ctx.counters.add(&ctx.counters.spilled_partitions, n);
    ctx.counters.add(&ctx.counters.spill_bytes, bytes);
}

/// Grace hash join: the streamed probe side and the oversized build chunk
/// are both hash-partitioned to temp files by key hash (the evaluated key
/// columns travel as a trailing column group, so nothing is re-evaluated
/// on load); partition pairs then join one at a time. Both sides are
/// partitioned once, the probe first, over enough partitions that the
/// build's bytes would fit the budget if spread evenly ([`fanout`]); a
/// bloom filter of the probe's key hashes keeps build rows no probe row
/// can meet off disk, and a partition still over the budget (a key
/// heavier than the budget) is joined in memory. Output row order is
/// partition-major — a correct (unordered) join result; order-sensitive
/// parents (sort/top-n) re-establish order.
#[allow(clippy::too_many_arguments)]
fn grace_hash_join(
    probe_pipe: &Pipeline,
    ctx: &ExecContext,
    kind: PJoinKind,
    left_keys: &[BExpr],
    residual: Option<&BExpr>,
    build_chunk: Chunk,
    build_keys: Vec<Arc<Bat>>,
    build_hashes: &[u64],
    schema: &[OutCol],
) -> Result<Chunk> {
    let parts = fanout(build_chunk.mem_bytes(), ctx.spill_budget().unwrap_or(usize::MAX));
    let vs = ctx.opts.vector_size.max(1);
    let nkeys = build_keys.len();
    // 1. Partition the probe stream (morsel-parallel; the partitioner is
    // shared behind a lock — the gather work dominates the lock hold),
    // and summarise its key hashes in a bloom filter.
    let poisoned = || MlError::Execution("probe partitioner lock poisoned".into());
    let probe =
        Mutex::new((PartitionWriter::new(parts), Bloom::with_capacity(probe_pipe.source.rows())));
    drive(
        probe_pipe,
        ctx,
        Sink::Rows,
        || (),
        |_, _m, c| {
            if c.rows == 0 {
                return Ok(true);
            }
            let c = c.materialize(); // partition frames hold whole rows
            let key_bats: Vec<Arc<Bat>> =
                left_keys.iter().map(|k| c.eval_shared(k)).collect::<Result<_>>()?;
            let rows = c.rows;
            let combined = Chunk::dense(c.cols.iter().cloned().chain(key_bats).collect(), rows);
            let keyrefs: Vec<&Bat> =
                combined.cols[combined.cols.len() - nkeys..].iter().map(|a| &**a).collect();
            let hashes = hash_rows(&keyrefs, None);
            let mut probe = probe.lock().map_err(|_| poisoned())?;
            let (pw, seen) = &mut *probe;
            hashes.iter().for_each(|&h| seen.insert(h));
            pw.route(&ctx.spill, &combined, (0..).zip(hashes))?;
            Ok(true)
        },
    )?;
    let (pw, seen) = probe.into_inner().map_err(|_| poisoned())?;
    let (pparts, pbytes) = pw.finish(&ctx.spill)?;
    note_spill(ctx, &pparts, pbytes);
    // 2. Partition the build side, with its evaluated key columns as one
    // aligned chunk, by the hashes computed at build, one vector-sized
    // range at a time so the gather buffers stay bounded. Every output
    // row is driven by a probe row, so a build row whose key hash no
    // probe row carries is never read: it is not written.
    let rows = build_chunk.rows;
    let combined = Chunk::dense(build_chunk.cols.into_iter().chain(build_keys).collect(), rows);
    // Typed zero-row template (cols + keys): NULL padding and empty maps
    // for partitions whose build side received no rows.
    let build_template = combined.slice(0, 0);
    let mut bw = PartitionWriter::new(parts);
    let mut start = 0;
    while start < rows {
        ctx.check_deadline()?;
        let end = (start + vs).min(rows);
        let live = (start as u32..).zip(build_hashes[start..end].iter().copied());
        bw.route(&ctx.spill, &combined, live.filter(|&(_, h)| seen.contains(h)))?;
        start = end;
    }
    drop(combined);
    let (bparts, bbytes) = bw.finish(&ctx.spill)?;
    note_spill(ctx, &bparts, bbytes);
    // 3. Join partition pairs.
    let mut out: Vec<Chunk> = Vec::new();
    for (bf, pf) in bparts.into_iter().zip(pparts) {
        grace_join_partition(ctx, kind, residual, nkeys, &build_template, bf, pf, &mut out)?;
    }
    if out.is_empty() {
        return Ok(Chunk::empty(schema));
    }
    Chunk::pack(out)
}

/// Join one (build partition, probe partition) pair in memory.
#[allow(clippy::too_many_arguments)]
fn grace_join_partition(
    ctx: &ExecContext,
    kind: PJoinKind,
    residual: Option<&BExpr>,
    nkeys: usize,
    build_template: &Chunk,
    build: Option<SpillFile>,
    probe: Option<SpillFile>,
    out: &mut Vec<Chunk>,
) -> Result<()> {
    // Every output row is driven by a probe row (inner/left/semi/anti):
    // no probe rows means no output, whatever the build side holds.
    let Some(probe) = probe else {
        return Ok(());
    };
    // Load the build partition. An absent file still joins (left/anti
    // emit probe rows against an empty map).
    let loaded = match build {
        None => build_template.clone(),
        Some(f) => {
            let mut chunks = Vec::new();
            let mut r = f.into_reader()?;
            while let Some(c) = r.next()? {
                chunks.push(c);
            }
            if chunks.is_empty() {
                build_template.clone()
            } else {
                Chunk::pack(chunks)?
            }
        }
    };
    let ncols = loaded.cols.len() - nkeys;
    let bcols = &loaded.cols[..ncols];
    let bkeyrefs: Vec<&Bat> = loaded.cols[ncols..].iter().map(|a| &**a).collect();
    let table = HashTable::build(&bkeyrefs);
    let probe_kind = crate::exec::pair_probe_kind(kind, residual);
    let mut r = probe.into_reader()?;
    while let Some(c) = r.next()? {
        ctx.check_deadline()?;
        let pncols = c.cols.len() - nkeys;
        let pkeyrefs: Vec<&Bat> = c.cols[pncols..].iter().map(|a| &**a).collect();
        let sel = crate::join::probe(&pkeyrefs, &bkeyrefs, &table, probe_kind);
        // No early-out on empty pair lists: anti joins (and left padding)
        // emit probe rows precisely when nothing matched.
        let chunk = finish_join_output(&c.cols[..pncols], bcols, sel, kind, residual, c.rows)?;
        if chunk.rows > 0 {
            out.push(chunk);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Per-thread state of the external merge sort: vectors accumulate (with
/// a trailing global-row-id column as the stability tie-break) until the
/// budget share is exceeded, then sort-and-spill as one run.
#[derive(Default)]
struct SortWorker {
    chunks: Vec<(usize, Chunk)>,
    bytes: usize,
    runs: Vec<SpillFile>,
    /// The string heaps `bytes` already counts: vectors gathered from one
    /// table share its heap, which is resident once however many of them
    /// the worker holds.
    heaps: Vec<StringHeap>,
}

impl SortWorker {
    /// Take an ingested vector into the run being built. A string column
    /// that would pin a heap more than [`crate::host::MAX_HEAP_PIN_RATIO`]
    /// times its rows' bytes is re-interned into a heap of its own first
    /// (the host import rule), and every column is charged its
    /// [`Bat::mem_bytes`], a heap shared with an earlier vector only once.
    fn ingest(&mut self, m: usize, c: Chunk) {
        let mut cols = Vec::with_capacity(c.cols.len());
        for col in c.cols {
            let col = col.compacted().map_or(col, Arc::new);
            match &*col {
                Bat::Varchar { offsets, heap } => {
                    self.bytes += offsets.len() * 4;
                    if !self.heaps.iter().any(|h| h.shares_buffer_with(heap)) {
                        self.bytes += heap.mem_bytes();
                        self.heaps.push(heap.clone());
                    }
                }
                other => self.bytes += other.mem_bytes(),
            }
            cols.push(col);
        }
        self.chunks.push((m, Chunk::dense(cols, c.rows)));
    }
}

/// Sort-key columns of a run chunk: the requested keys plus the trailing
/// rowid column ascending, making the order total and therefore exactly
/// the stable [`sort_perm`] order of the packed input.
fn sort_key_refs<'c>(chunk: &'c Chunk, keys: &[(usize, bool)]) -> Vec<(&'c Bat, bool)> {
    let mut k: Vec<(&Bat, bool)> = keys.iter().map(|&(c, d)| (&*chunk.cols[c], d)).collect();
    k.push((&*chunk.cols[chunk.cols.len() - 1], false));
    k
}

/// Sort accumulated vectors into one run and spill it in vector-sized
/// frames.
fn write_sorted_run(
    mut chunks: Vec<(usize, Chunk)>,
    keys: &[(usize, bool)],
    ctx: &ExecContext,
) -> Result<SpillFile> {
    chunks.sort_by_key(|(m, _)| *m);
    let packed = Chunk::pack(chunks.into_iter().map(|(_, c)| c).collect())?;
    let key_refs = sort_key_refs(&packed, keys);
    let perm = sort_perm(&key_refs, packed.rows);
    let sorted = packed.take(&perm);
    let mut f = ctx.spill.file()?;
    let vs = ctx.opts.vector_size.max(1);
    let mut start = 0;
    while start < sorted.rows {
        ctx.check_deadline()?;
        let end = (start + vs).min(sorted.rows);
        let s = sorted.slice(start, end);
        let refs: Vec<&Bat> = s.cols.iter().map(|a| &**a).collect();
        f.write(&refs)?;
        start = end;
    }
    Ok(f)
}

/// One run of the k-way merge: either a spilled file read sequentially or
/// the sorted in-memory leftover.
enum RunSrc {
    Disk(SpillReader),
    Mem(Option<Chunk>),
}

struct RunCursor {
    src: RunSrc,
    chunk: Option<Chunk>,
    pos: usize,
}

impl RunCursor {
    /// Ensure `chunk`/`pos` address a live row (or `chunk` is `None` at
    /// exhaustion).
    fn settle(&mut self) -> Result<()> {
        loop {
            if let Some(c) = &self.chunk {
                if self.pos < c.rows {
                    return Ok(());
                }
            }
            self.pos = 0;
            self.chunk = match &mut self.src {
                RunSrc::Disk(r) => r.next()?,
                RunSrc::Mem(c) => c.take(),
            };
            if self.chunk.is_none() {
                return Ok(());
            }
        }
    }
}

/// Ordering between the head rows of two live cursor chunks: keys (with
/// direction) then rowid ascending. Callers hand in the settled chunks
/// directly, so an exhausted cursor cannot reach the comparison.
fn cursor_cmp(
    ca: &Chunk,
    apos: usize,
    cb: &Chunk,
    bpos: usize,
    keys: &[(usize, bool)],
) -> std::cmp::Ordering {
    for &(k, desc) in keys {
        let ord = cmp_cells(&ca.cols[k], apos, &cb.cols[k], bpos);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    let (ra, rb) = (&ca.cols[ca.cols.len() - 1], &cb.cols[cb.cols.len() - 1]);
    cmp_cells(ra, apos, rb, bpos)
}

/// Maximum live runs per merge pass: beyond this the linear min-scan
/// (and the open-file count) degrades, so batches merge into
/// intermediate runs first — the classic multi-pass external sort.
const MERGE_FANIN: usize = 64;

/// Floor on the per-worker sort buffer. A degenerate budget (e.g. zero
/// vmem headroom) must not generate one run per vector — run count, not
/// buffer size, is what makes the merge expensive.
const MIN_SORT_SHARE: usize = 16 * 1024;

/// Append the merge's pending picks, (cursor, row) in output order, to
/// `out`: one [`Bat::append_rows`] per column for each stretch of picks
/// from one cursor.
fn flush_picks(
    out: &mut [Bat],
    cursors: &[RunCursor],
    picks: &mut Vec<(usize, u32)>,
) -> Result<()> {
    let mut rows = Vec::new();
    for stretch in picks.chunk_by(|a, b| a.0 == b.0) {
        let chunk = cursors[stretch[0].0]
            .chunk
            .as_ref()
            .ok_or_else(|| MlError::Execution("merge cursor lost its chunk".into()))?;
        rows.clear();
        rows.extend(stretch.iter().map(|&(_, row)| row));
        for (dst, src) in out.iter_mut().zip(&chunk.cols) {
            dst.append_rows(src, &rows)?;
        }
    }
    picks.clear();
    Ok(())
}

/// K-way merge of sorted runs by (keys, rowid), emitting chunks of `vs`
/// rows with *all* columns including the trailing rowid (the final
/// caller strips it; intermediate passes need it for later tie-breaks).
/// Fan-in is capped by the caller; a linear min-scan over ≤ [`MERGE_FANIN`]
/// cursors is cheap. The scan only records its picks; they are gathered
/// column by column when a chunk is full or before a cursor moves past
/// the chunk they point into.
fn merge_cursors(
    mut cursors: Vec<RunCursor>,
    keys: &[(usize, bool)],
    vs: usize,
    ctx: &ExecContext,
    mut emit: impl FnMut(Chunk) -> Result<()>,
) -> Result<()> {
    for c in &mut cursors {
        c.settle()?;
    }
    let types: Vec<monetlite_types::LogicalType> =
        match cursors.iter().find_map(|c| c.chunk.as_ref()) {
            None => return Ok(()),
            Some(c) => c.cols.iter().map(|b| b.logical_type()).collect(),
        };
    let fresh = || types.iter().map(|&t| Bat::new(t)).collect::<Vec<Bat>>();
    let mut out = fresh();
    let mut picks: Vec<(usize, u32)> = Vec::new();
    let mut rows = 0usize;
    loop {
        let mut best: Option<usize> = None;
        for i in 0..cursors.len() {
            let Some(ci) = cursors[i].chunk.as_ref() else {
                continue;
            };
            best = Some(match best {
                None => i,
                Some(b) => match cursors[b].chunk.as_ref() {
                    Some(cb)
                        if cursor_cmp(ci, cursors[i].pos, cb, cursors[b].pos, keys)
                            == std::cmp::Ordering::Less =>
                    {
                        i
                    }
                    Some(_) => b,
                    None => i,
                },
            });
        }
        let Some(w) = best else { break };
        picks.push((w, cursors[w].pos as u32));
        rows += 1;
        cursors[w].pos += 1;
        if rows == vs || cursors[w].chunk.as_ref().is_some_and(|c| cursors[w].pos == c.rows) {
            flush_picks(&mut out, &cursors, &mut picks)?;
        }
        cursors[w].settle()?;
        if rows == vs {
            emit(Chunk::dense(
                std::mem::replace(&mut out, fresh()).into_iter().map(Arc::new).collect(),
                rows,
            ))?;
            rows = 0;
            ctx.check_deadline()?;
        }
    }
    debug_assert!(picks.is_empty(), "an exhausted cursor flushed its picks");
    if rows > 0 {
        emit(Chunk::dense(out.into_iter().map(Arc::new).collect(), rows))?;
    }
    Ok(())
}

/// External merge sort of a pipeline's output under `budget` bytes of
/// in-memory state. Produces exactly the bytes of the unspilled stable
/// sort; when no run ever spills, the code path degenerates to pack +
/// stable sort.
fn external_sort(
    input: &Plan,
    keys: &[(usize, bool)],
    ctx: &ExecContext,
    budget: usize,
) -> Result<Chunk> {
    let pipe = decompose(input, ctx)?;
    let share = (budget / ctx.opts.threads.max(1)).max(MIN_SORT_SHARE);
    let parts: Vec<Result<SortWorker>> = drive(
        &pipe,
        ctx,
        Sink::Rows,
        || Ok(SortWorker::default()),
        |p: &mut Result<SortWorker>, m, c| {
            let Ok(w) = p.as_mut() else { return Ok(false) };
            if c.rows == 0 {
                return Ok(true);
            }
            let c = c.materialize(); // sort ingest is this pipeline's sink
                                     // Global row id: (morsel, row-within-vector) — the packed
                                     // input order, so ties break exactly as the stable sort does.
            let rowid = Bat::Bigint((0..c.rows as i64).map(|i| ((m as i64) << 32) | i).collect());
            let rows = c.rows;
            let mut cols = c.cols;
            cols.push(Arc::new(rowid));
            w.ingest(m, Chunk::dense(cols, rows));
            if w.bytes > share {
                match write_sorted_run(std::mem::take(&mut w.chunks), keys, ctx) {
                    Ok(run) => {
                        w.runs.push(run);
                        w.bytes = 0;
                        w.heaps.clear();
                    }
                    Err(e) => {
                        *p = Err(e);
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        },
    )?;
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut mem: Vec<(usize, Chunk)> = Vec::new();
    for p in parts {
        let w = p?;
        runs.extend(w.runs);
        mem.extend(w.chunks);
    }
    ctx.check_deadline()?;
    let input_cols = input.schema().len();
    if runs.is_empty() {
        // Everything fit: identical to the unspilled blocking sort.
        if mem.is_empty() {
            return Ok(Chunk::empty(input.schema()));
        }
        mem.sort_by_key(|(m, _)| *m);
        let packed = Chunk::pack(mem.into_iter().map(|(_, c)| c).collect())?;
        let key_refs = sort_key_refs(&packed, keys);
        let perm = sort_perm(&key_refs, packed.rows);
        let sorted = packed.take(&perm);
        return Ok(Chunk::dense(sorted.cols[..input_cols].to_vec(), sorted.rows));
    }
    ctx.counters.add(&ctx.counters.spilled_partitions, runs.len() as u64);
    ctx.counters.add(&ctx.counters.spill_bytes, runs.iter().map(|r| r.bytes).sum());
    let mut cursors: Vec<RunCursor> = Vec::new();
    for r in runs {
        cursors.push(RunCursor { src: RunSrc::Disk(r.into_reader()?), chunk: None, pos: 0 });
    }
    if !mem.is_empty() {
        // Leftover in-memory rows form one final sorted run.
        mem.sort_by_key(|(m, _)| *m);
        let packed = Chunk::pack(mem.into_iter().map(|(_, c)| c).collect())?;
        let key_refs = sort_key_refs(&packed, keys);
        let perm = sort_perm(&key_refs, packed.rows);
        cursors.push(RunCursor { src: RunSrc::Mem(Some(packed.take(&perm))), chunk: None, pos: 0 });
    }
    let vs = ctx.opts.vector_size.max(1);
    // Intermediate merge passes while the run count exceeds the fan-in
    // cap: batches of runs merge into one bigger on-disk run.
    while cursors.len() > MERGE_FANIN {
        let batch: Vec<RunCursor> = cursors.drain(..MERGE_FANIN).collect();
        let mut f = ctx.spill.file()?;
        merge_cursors(batch, keys, vs, ctx, |c| {
            let refs: Vec<&Bat> = c.cols.iter().map(|a| &**a).collect();
            f.write(&refs)?;
            Ok(())
        })?;
        ctx.counters.bump(&ctx.counters.spilled_partitions);
        ctx.counters.add(&ctx.counters.spill_bytes, f.bytes);
        cursors.push(RunCursor { src: RunSrc::Disk(f.into_reader()?), chunk: None, pos: 0 });
    }
    // Final merge pass emits output chunks; the trailing rowid column is
    // stripped when packing.
    let mut out_chunks: Vec<Chunk> = Vec::new();
    merge_cursors(cursors, keys, vs, ctx, |c| {
        out_chunks.push(Chunk::dense(c.cols[..input_cols].to_vec(), c.rows));
        Ok(())
    })?;
    if out_chunks.is_empty() {
        return Ok(Chunk::empty(input.schema()));
    }
    Chunk::pack(out_chunks)
}

// ---------------------------------------------------------------------------
// EXPLAIN support
// ---------------------------------------------------------------------------

/// Render the pipeline decomposition of `plan` for EXPLAIN: one line per
/// pipeline (in execution order — build sides before their probes), with
/// the morsel count of table-backed sources when `stats` are available.
pub fn describe(plan: &Plan, opts: &ExecOptions, stats: Option<&dyn crate::opt::Stats>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let budget = if opts.memory_budget == usize::MAX {
        String::new()
    } else {
        format!(
            ", memory_budget={} (breakers spill; see spilled_partitions/spill_bytes counters)",
            opts.memory_budget
        )
    };
    let policy = match opts.mode {
        ExecMode::Streaming => "streaming engine",
        ExecMode::Materialized => "operator-at-a-time policy",
    };
    let _ = writeln!(
        out,
        "-- pipelines: {policy}, vector={}, threads={}{budget}",
        opts.vector_size,
        opts.threads.max(1)
    );
    let mut next = 0usize;
    desc_node(plan, &mut out, &mut next, opts, stats, "result".to_string());
    out
}

/// Describe a (possibly breaker) node; returns the id of the pipeline
/// producing its output.
fn desc_node(
    plan: &Plan,
    out: &mut String,
    next: &mut usize,
    opts: &ExecOptions,
    stats: Option<&dyn crate::opt::Stats>,
    sink: String,
) -> usize {
    match plan {
        Plan::Aggregate { input, groups, aggs, .. } => {
            let spillable = if groups.is_empty() || opts.memory_budget == usize::MAX {
                ""
            } else {
                " [spillable]"
            };
            let s = if groups.is_empty() {
                format!("global-aggregate (merge partials) -> {sink}")
            } else {
                format!("partial hash-aggregate + mapped merge{spillable} -> {sink}")
            };
            desc_chain(input, out, next, opts, stats, Sink::of_aggregate(groups, aggs), s)
        }
        Plan::Sort { input, keys } => {
            let how = if opts.memory_budget == usize::MAX {
                "blocking"
            } else {
                "external merge [spillable]"
            };
            let s = format!("sort{keys:?} ({how}) -> {sink}");
            desc_chain(input, out, next, opts, stats, Sink::Rows, s)
        }
        Plan::TopN { input, keys, n } => {
            let s = format!("top-{n}{keys:?} (per-morsel compaction) -> {sink}");
            desc_chain(input, out, next, opts, stats, Sink::Rows, s)
        }
        Plan::Limit { input, n } => {
            let s = format!("limit {n} (early-exit) -> {sink}");
            desc_chain(input, out, next, opts, stats, Sink::Rows, s)
        }
        other => desc_chain(other, out, next, opts, stats, Sink::Rows, sink),
    }
}

/// Describe the non-breaking spine of a plan, feeding `into`, as one
/// pipeline line, with the morsels [`drive`] cuts it into when `stats`
/// give its scan's rows; a mitosis line follows a fanned-out prefix.
fn desc_chain(
    plan: &Plan,
    out: &mut String,
    next: &mut usize,
    opts: &ExecOptions,
    stats: Option<&dyn crate::opt::Stats>,
    into: Sink,
    sink: String,
) -> usize {
    use std::fmt::Write;
    let mut ops: Vec<String> = Vec::new();
    let mut cur = plan;
    // Does the chain probe, and does any probe push its bloom into the
    // source scan?
    let (mut probes, mut bloom) = (false, false);
    loop {
        match cur {
            Plan::Filter { input, pred } => {
                ops.push(format!("filter({pred})"));
                cur = input;
            }
            Plan::Project { input, exprs, .. } => {
                ops.push(format!("project[{}]", exprs.len()));
                cur = input;
            }
            Plan::Join { left, right, kind, left_keys, .. } => {
                let bid =
                    desc_node(right, out, next, opts, stats, format!("hash-join build ({kind})"));
                ops.push(format!("probe({kind}, build=P{bid})"));
                bloom |= opts.use_dict && bloom_scan_col(*kind, left, left_keys).is_some();
                (cur, probes) = (left, true);
            }
            _ => break,
        }
    }
    ops.reverse();
    let mut morsels = None;
    let src = match cur {
        Plan::Scan { table, filters, .. } => {
            let prefix = !probes && into.takes_prefix(!ops.is_empty());
            // Physical rows, as `drive` cuts them: deleted rows still
            // occupy their morsel.
            morsels = stats
                .map(|s| s.physical_rows(table))
                .map(|rows| rows.div_ceil(morsel_rows(rows, prefix, opts)));
            // Mark scans whose filters can skip whole vectors by zonemap.
            let zm = if filters.iter().any(|f| crate::exec::zone_probe_of(f).is_some()) {
                " [zonemap]"
            } else {
                ""
            };
            // Mark scans with dictionary-eligible string predicates and
            // scans receiving a pushed-down join bloom filter.
            let dict = if opts.use_dict
                && filters.iter().any(|f| crate::exec::dict_filter_col(f).is_some())
            {
                " [dict]"
            } else {
                ""
            };
            let bloom = if bloom { " [bloom]" } else { "" };
            let m = morsels.map_or("?".to_string(), |m| m.to_string());
            format!("scan {table} [morsels={m}]{zm}{dict}{bloom}")
        }
        Plan::Values { rows, .. } => format!("values [{} row(s)]", rows.len()),
        other => {
            debug_assert!(other.is_pipeline_breaker(), "chain stopped at a non-breaker");
            let id = desc_node(other, out, next, opts, stats, "materialize".to_string());
            format!("P{id} output")
        }
    };
    let id = *next;
    *next += 1;
    let mut line = format!("P{id}: {src}");
    for op in &ops {
        let _ = write!(line, " -> {op}");
    }
    let _ = writeln!(out, "{line} -> sink: {sink}");
    if let Some(k) = morsels.filter(|&k| k > 1 && opts.mode == ExecMode::Materialized) {
        let threads = opts.threads.min(k);
        let _ = writeln!(
            out,
            "-- mitosis: P{id}'s parallelizable prefix fans out into {k} slices over {threads} threads, packed before its sink"
        );
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecMode, TableProvider};
    use crate::expr::{AggSpec, CmpOp, PAggFunc};
    use crate::plan::OutCol;
    use monetlite_storage::catalog::{TableData, TableMeta};
    use monetlite_types::{Field, LogicalType, Schema, Value};
    use std::collections::HashMap as Map;

    struct TestTables {
        tables: Map<String, Arc<TableMeta>>,
    }

    impl TableProvider for TestTables {
        fn table_meta(&self, name: &str) -> Result<Arc<TableMeta>> {
            self.tables
                .get(name)
                .cloned()
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
        }
    }

    fn make_table(name: &str, cols: Vec<(&str, Bat)>) -> Arc<TableMeta> {
        let schema =
            Schema::new(cols.iter().map(|(n, b)| Field::new(*n, b.logical_type())).collect())
                .unwrap();
        let data = TableData::empty(&schema);
        let data = data.appended(cols.into_iter().map(|(_, b)| b)).unwrap();
        Arc::new(TableMeta {
            id: 1,
            name: name.into(),
            schema,
            data,
            version: 1,
            ordered_cols: vec![],
        })
    }

    fn scan(table: &str, n: usize) -> Plan {
        Plan::Scan {
            table: table.into(),
            projected: (0..n).collect(),
            filters: vec![],
            schema: (0..n)
                .map(|i| OutCol { name: format!("c{i}").into(), ty: LogicalType::Int })
                .collect(),
        }
    }

    fn opts(threads: usize, vector_size: usize) -> crate::exec::ExecOptions {
        crate::exec::ExecOptions {
            mode: ExecMode::Streaming,
            threads,
            vector_size,
            ..Default::default()
        }
    }

    #[test]
    fn limit_exits_before_scanning_everything() {
        let n = 100_000;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(1, 1024));
        let plan = Plan::Limit { input: Box::new(scan("t", 1)), n: 5 };
        let out = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(out.rows, 5);
        assert_eq!(out.cols[0].get(0), Value::Int(0));
        assert_eq!(out.cols[0].get(4), Value::Int(4));
        let morsels = ctx.counters.morsels.load(Ordering::Relaxed);
        assert!(morsels <= 3, "limit must early-exit, dispatched {morsels} morsels");
    }

    #[test]
    fn streaming_morsels_are_sized_to_the_threads_in_whole_zones() {
        let cut = |rows: usize, threads: usize, vs: usize| {
            let per = morsel_rows(rows, false, &opts(threads, vs));
            (per, rows.div_ceil(per))
        };
        // A lineitem of 179,869 rows: three vectors at one thread; at two,
        // rows / 8 = 22,485 rounds up to three zones; at four, to two.
        assert_eq!(cut(179_869, 1, 65_536), (65_536, 3));
        assert_eq!(cut(179_869, 2, 65_536), (24_576, 8));
        assert_eq!(cut(179_869, 4, 65_536), (16_384, 11));
        // Never more than a vector, even when a vector is below a zone.
        assert_eq!(cut(179_869, 2, 16_384), (16_384, 11));
        assert_eq!(cut(179_869, 4, 1024), (1024, 176));
        // A source of at most one vector is one whole morsel.
        assert_eq!(cut(65_536, 4, 65_536), (65_536, 1));
        assert_eq!(cut(60_000, 2, 65_536), (65_536, 1));
        // The materialized policy ignores the streaming cut.
        let mat = crate::exec::ExecOptions { mode: ExecMode::Materialized, ..opts(2, 65_536) };
        assert_eq!(morsel_rows(179_869, false, &mat), 179_869);
    }

    #[test]
    fn a_worker_panic_is_a_query_error_and_the_context_stays_usable() {
        // Ten 1024-row morsels; the first or the last one panics, on
        // whichever worker draws it: the caller's or a helper's.
        let n = 10 * 1024;
        let tables = TestTables { tables: Map::new() };
        let pipe = Pipeline {
            source: Source::Mem(Chunk::dense(vec![Arc::new(Bat::Int((0..n as i32).collect()))], n)),
            ops: vec![],
        };
        for threads in [1, 2, 4] {
            let ctx = ExecContext::new(&tables, opts(threads, 1024));
            for bad in [0, 9] {
                let out = drive(
                    &pipe,
                    &ctx,
                    Sink::Rows,
                    || (),
                    |_, m, _| {
                        if m == bad {
                            panic!("morsel {m} is poisoned");
                        }
                        Ok(true)
                    },
                );
                match out {
                    Err(MlError::Execution(msg)) => assert!(
                        msg.contains("worker thread panicked") && msg.contains("is poisoned"),
                        "t={threads} morsel {bad}: {msg}"
                    ),
                    Err(e) => panic!("t={threads} morsel {bad}: wrong error {e}"),
                    Ok(_) => panic!("t={threads} morsel {bad}: the panic was lost"),
                }
                let parts = drive(
                    &pipe,
                    &ctx,
                    Sink::Rows,
                    || 0,
                    |rows, _, c| {
                        *rows += c.rows;
                        Ok(true)
                    },
                )
                .unwrap();
                assert_eq!(parts.iter().sum::<usize>(), n, "t={threads} after morsel {bad}");
            }
        }
    }

    #[test]
    fn empty_source_produces_typed_empty_chunks() {
        let t = make_table("t", vec![("a", Bat::Int(vec![]))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(4, 1024));
        // Bare scan.
        let out = execute_streaming(&scan("t", 1), &ctx).unwrap();
        assert_eq!(out.rows, 0);
        assert_eq!(out.cols.len(), 1);
        assert_eq!(out.cols[0].logical_type(), LogicalType::Int);
        // Global aggregate over nothing still yields its one row.
        let agg = Plan::Aggregate {
            input: Box::new(scan("t", 1)),
            groups: vec![],
            aggs: vec![AggSpec {
                func: PAggFunc::Count,
                arg: None,
                distinct: false,
                ty: LogicalType::Bigint,
            }],
            schema: vec![OutCol { name: "c".into(), ty: LogicalType::Bigint }],
        };
        let out = execute_streaming(&agg, &ctx).unwrap();
        assert_eq!(out.rows, 1);
        assert_eq!(out.cols[0].get(0), Value::Bigint(0));
    }

    #[test]
    fn parallel_probe_matches_single_thread() {
        let n = 20_000;
        let probe = make_table("probe", vec![("k", Bat::Int((0..n).map(|i| i % 500).collect()))]);
        let build = make_table(
            "build",
            vec![
                ("k", Bat::Int((0..250).collect())),
                ("v", Bat::Int((0..250).map(|i| i * 10).collect())),
            ],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Join {
                left: Box::new(scan("probe", 1)),
                right: Box::new(scan("build", 2)),
                kind: PJoinKind::Inner,
                left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
                right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
                residual: None,
                schema: vec![
                    OutCol { name: "k".into(), ty: LogicalType::Int },
                    OutCol { name: "k2".into(), ty: LogicalType::Int },
                    OutCol { name: "v".into(), ty: LogicalType::Int },
                ],
            }),
            groups: vec![],
            aggs: vec![
                AggSpec {
                    func: PAggFunc::Count,
                    arg: None,
                    distinct: false,
                    ty: LogicalType::Bigint,
                },
                AggSpec {
                    func: PAggFunc::Sum,
                    arg: Some(BExpr::ColRef { idx: 2, ty: LogicalType::Int }),
                    distinct: false,
                    ty: LogicalType::Bigint,
                },
            ],
            schema: vec![
                OutCol { name: "c".into(), ty: LogicalType::Bigint },
                OutCol { name: "s".into(), ty: LogicalType::Bigint },
            ],
        };
        let seq_ctx = ExecContext::new(&tables, opts(1, 1024));
        let seq = execute_streaming(&plan, &seq_ctx).unwrap();
        let par_ctx = ExecContext::new(&tables, opts(8, 1024));
        let par = execute_streaming(&plan, &par_ctx).unwrap();
        assert_eq!(seq.cols[0].get(0), par.cols[0].get(0));
        assert_eq!(seq.cols[1].get(0), par.cols[1].get(0));
        // The probe pipeline really was morsel-split.
        assert!(par_ctx.counters.morsels.load(Ordering::Relaxed) >= 20);
        assert!(par_ctx.counters.pipelines.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn morsel_scans_keep_imprint_selection() {
        // Index-assisted selection must survive morselization: each
        // ranged morsel clips imprint candidates to its own range. The
        // key is scattered (a permutation of 0..n), so every zone spans
        // the whole domain and no morsel is skipped before its probe.
        let n = 10_000i32;
        let t = make_table("t", vec![("a", Bat::Int((0..n).map(|i| i * 7919 % n).collect()))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(1, 512));
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![BExpr::Cmp {
                op: CmpOp::Lt,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(100))),
            }],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let out = execute_streaming(&plan, &ctx).unwrap();
        let mut got: Vec<i64> =
            (0..out.rows).map(|i| out.cols[0].get(i).as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(ctx.counters.vectors_skipped.load(Ordering::Relaxed), 0);
        let selects = ctx.counters.imprint_selects.load(Ordering::Relaxed);
        assert_eq!(selects, (n as u64).div_ceil(512), "one imprint probe per morsel");
    }

    #[test]
    fn multi_morsel_bare_scan_stays_zero_copy() {
        // A pass-through pipeline (no ops, no filters) must share the
        // base arrays even when the table spans many vectors.
        let n = 10_000i32;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))]);
        let base = t.data.cols[0].entry().unwrap().bat().unwrap();
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(4, 512));
        let out = execute_streaming(&scan("t", 1), &ctx).unwrap();
        assert_eq!(out.rows, n as usize);
        assert!(Arc::ptr_eq(&out.cols[0], &base), "bare scan must share the array");
    }

    /// Rows of a chunk as printable tuples, sorted — spilled execution may
    /// emit groups/partitions in a different order.
    fn sorted_rows(c: &Chunk) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..c.rows)
            .map(|r| c.cols.iter().map(|col| format!("{:?}", col.get(r))).collect())
            .collect();
        rows.sort();
        rows
    }

    fn group_sum_plan(table: &str) -> Plan {
        Plan::Aggregate {
            input: Box::new(scan(table, 2)),
            groups: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            aggs: vec![
                AggSpec {
                    func: PAggFunc::Sum,
                    arg: Some(BExpr::ColRef { idx: 1, ty: LogicalType::Int }),
                    distinct: false,
                    ty: LogicalType::Bigint,
                },
                AggSpec {
                    func: PAggFunc::Count,
                    arg: None,
                    distinct: false,
                    ty: LogicalType::Bigint,
                },
            ],
            schema: vec![
                OutCol { name: "g".into(), ty: LogicalType::Int },
                OutCol { name: "s".into(), ty: LogicalType::Bigint },
                OutCol { name: "c".into(), ty: LogicalType::Bigint },
            ],
        }
    }

    #[test]
    fn spilled_grouped_aggregate_matches_unspilled() {
        let n = 50_000i32;
        let t = make_table(
            "t",
            vec![
                ("g", Bat::Int((0..n).map(|i| i % 997).collect())),
                ("v", Bat::Int((0..n).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = group_sum_plan("t");
        let base_ctx = ExecContext::new(&tables, opts(1, 1024));
        let base = execute_streaming(&plan, &base_ctx).unwrap();
        assert_eq!(base_ctx.counters.spilled_partitions.load(Ordering::Relaxed), 0);
        for threads in [1, 4] {
            // ~997 groups * (4B key + 16B sum + 8B count + map entry)
            // far exceeds an 8 kB budget: most input must spill.
            let mut o = opts(threads, 1024);
            o.memory_budget = 8 * 1024;
            let ctx = ExecContext::new(&tables, o);
            let got = execute_streaming(&plan, &ctx).unwrap();
            assert_eq!(sorted_rows(&base), sorted_rows(&got), "threads={threads}");
            assert!(
                ctx.counters.spilled_partitions.load(Ordering::Relaxed) > 0,
                "budget of 8kB must force spilling"
            );
            assert!(ctx.counters.spill_bytes.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn spilled_aggregate_partitions_once_by_state_bytes() {
        // Every row its own group: the state outgrows the budget many
        // times over. The spill is sized from it once — at least one
        // partition per budget's worth of state — every spilled row is
        // written once, and the result is exact.
        let n = 20_000i32;
        let t = make_table(
            "t",
            vec![
                ("g", Bat::Int((0..n).collect())), // every row its own group
                ("v", Bat::Int((0..n).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = group_sum_plan("t");
        let base = execute_streaming(&plan, &ExecContext::new(&tables, opts(1, 1024))).unwrap();
        // The state the groups need: a vector's partial (sized without
        // the growth slack of one table holding every group) per group,
        // times the groups.
        let Plan::Aggregate { groups, aggs, .. } = &plan else { unreachable!() };
        let mut first = new_agg_partial(groups, aggs).unwrap();
        let rows = Chunk::dense(
            vec![Arc::new(Bat::Int((0..1024).collect())), Arc::new(Bat::Int((0..1024).collect()))],
            1024,
        );
        agg_consume(&mut first, &rows, groups, aggs).unwrap();
        let state = agg_partial_bytes(&first) / 1024 * n as usize;
        let budget = 16 * 1024;
        let mut o = opts(1, 1024);
        o.memory_budget = budget;
        let ctx = ExecContext::new(&tables, o);
        let got = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(base.rows, n as usize);
        assert_eq!(sorted_rows(&base), sorted_rows(&got));
        let parts = ctx.counters.spilled_partitions.load(Ordering::Relaxed) as usize;
        assert!(
            parts >= state / budget && parts <= crate::spill::MAX_FANOUT,
            "{parts} partitions for {state} bytes of state under {budget}"
        );
        // Two INT columns per spilled row, written once: at most the
        // whole input plus a frame header per partition.
        let bytes = ctx.counters.spill_bytes.load(Ordering::Relaxed) as usize;
        assert!(bytes <= n as usize * 8 + parts * 256, "{bytes} bytes spilled over {parts}");
    }

    #[test]
    fn spilled_join_on_one_heavy_key_partitions_once() {
        // Every build row shares one key, so no partitioning can split the
        // build; the probe's keys mostly miss it. Both sides are written
        // once, and the heavy partition is joined in memory.
        let nbuild = 20_000i32;
        let nprobe = 20_000i32;
        let probe =
            make_table("probe", vec![("k", Bat::Int((0..nprobe).map(|i| i % 5_000).collect()))]);
        let build = make_table(
            "build",
            vec![("k", Bat::Int(vec![7; nbuild as usize])), ("v", Bat::Int((0..nbuild).collect()))],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        let join = Plan::Join {
            left: Box::new(scan("probe", 1)),
            right: Box::new(scan("build", 2)),
            kind: PJoinKind::Semi,
            left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            residual: None,
            schema: vec![OutCol { name: "k".into(), ty: LogicalType::Int }],
        };
        let mut o = opts(1, 1024);
        o.use_hash_index = false;
        o.memory_budget = 8 * 1024; // the build holds ~160 kB
        let ctx = ExecContext::new(&tables, o);
        let got = execute_streaming(&join, &ctx).unwrap();
        assert_eq!(got.rows, (nprobe / 5_000) as usize, "one probe row per 5,000 has key 7");
        // One pass writes the build's two columns plus its key column and
        // the probe's column plus its key column, all INT.
        let one_pass = (nbuild as usize * 3 + nprobe as usize * 2) * 4;
        let bytes = ctx.counters.spill_bytes.load(Ordering::Relaxed) as usize;
        assert!(
            bytes * 5 <= one_pass * 6,
            "{bytes} spill bytes against {one_pass} for one partitioning pass"
        );
    }

    #[test]
    fn grace_join_writes_only_build_rows_the_probe_can_meet() {
        // The probe carries 100 of the build's 20,000 keys: the bloom
        // filter of its key hashes keeps all but those rows (and a few
        // false positives) of the build off disk.
        let n = 20_000i32;
        let probe = make_table("probe", vec![("k", Bat::Int((0..n).map(|i| i % 100).collect()))]);
        let build = make_table(
            "build",
            vec![("k", Bat::Int((0..n).collect())), ("v", Bat::Int((0..n).collect()))],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        let join = Plan::Join {
            left: Box::new(scan("probe", 1)),
            right: Box::new(scan("build", 2)),
            kind: PJoinKind::Inner,
            left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            residual: None,
            schema: vec![
                OutCol { name: "k".into(), ty: LogicalType::Int },
                OutCol { name: "k2".into(), ty: LogicalType::Int },
                OutCol { name: "v".into(), ty: LogicalType::Int },
            ],
        };
        let mut o = opts(1, 1024);
        o.use_hash_index = false;
        let base = execute_streaming(&join, &ExecContext::new(&tables, o)).unwrap();
        o.memory_budget = 8 * 1024; // the build holds ~240 kB
        let ctx = ExecContext::new(&tables, o);
        let got = execute_streaming(&join, &ctx).unwrap();
        assert_eq!(sorted_rows(&base), sorted_rows(&got));
        // The probe's column and key column, then a sliver of the
        // build's two columns and key column, all INT.
        let probe_pass = n as usize * 2 * 4;
        let build_pass = n as usize * 3 * 4;
        let bytes = ctx.counters.spill_bytes.load(Ordering::Relaxed) as usize;
        assert!(
            bytes < probe_pass + build_pass / 10,
            "{bytes} spill bytes: more than a tenth of the build was written"
        );
    }

    #[test]
    fn spilled_hash_join_matches_unspilled() {
        let n = 30_000i32;
        let nbuild = 4_000i32;
        let probe = make_table("probe", vec![("k", Bat::Int((0..n).map(|i| i % 5_000).collect()))]);
        let build = make_table(
            "build",
            vec![
                ("k", Bat::Int((0..nbuild).collect())),
                ("v", Bat::Int((0..nbuild).map(|i| i * 3).collect())),
            ],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        let join = Plan::Join {
            left: Box::new(scan("probe", 1)),
            right: Box::new(scan("build", 2)),
            kind: PJoinKind::Inner,
            left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            residual: None,
            schema: vec![
                OutCol { name: "k".into(), ty: LogicalType::Int },
                OutCol { name: "k2".into(), ty: LogicalType::Int },
                OutCol { name: "v".into(), ty: LogicalType::Int },
            ],
        };
        // Disable the automatic hash index so the build side is transient
        // (index builds never spill — they are persistent data).
        let mut base_opts = opts(1, 1024);
        base_opts.use_hash_index = false;
        let base = execute_streaming(&join, &ExecContext::new(&tables, base_opts)).unwrap();
        for threads in [1, 4] {
            let mut o = opts(threads, 1024);
            o.use_hash_index = false;
            o.memory_budget = 8 * 1024; // build side is ~32 kB
            let ctx = ExecContext::new(&tables, o);
            let got = execute_streaming(&join, &ctx).unwrap();
            assert_eq!(sorted_rows(&base), sorted_rows(&got), "threads={threads}");
            assert!(
                ctx.counters.spilled_partitions.load(Ordering::Relaxed) > 0,
                "grace join must have partitioned to disk"
            );
        }
    }

    #[test]
    fn spilled_left_and_semi_joins_match_unspilled() {
        let probe = make_table("probe", vec![("k", Bat::Int((0..8_000).collect()))]);
        let build = make_table(
            "build",
            vec![
                ("k", Bat::Int((0..4_000).map(|i| i * 2).collect())),
                ("v", Bat::Int((0..4_000).collect())),
            ],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        for kind in [PJoinKind::Left, PJoinKind::Semi, PJoinKind::Anti] {
            let semi = matches!(kind, PJoinKind::Semi | PJoinKind::Anti);
            let mut schema = vec![OutCol { name: "k".into(), ty: LogicalType::Int }];
            if !semi {
                schema.push(OutCol { name: "k2".into(), ty: LogicalType::Int });
                schema.push(OutCol { name: "v".into(), ty: LogicalType::Int });
            }
            let join = Plan::Join {
                left: Box::new(scan("probe", 1)),
                right: Box::new(scan("build", 2)),
                kind,
                left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
                right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
                residual: None,
                schema,
            };
            let mut base_opts = opts(1, 512);
            base_opts.use_hash_index = false;
            let base = execute_streaming(&join, &ExecContext::new(&tables, base_opts)).unwrap();
            let mut o = opts(1, 512);
            o.use_hash_index = false;
            o.memory_budget = 4 * 1024;
            let ctx = ExecContext::new(&tables, o);
            let got = execute_streaming(&join, &ctx).unwrap();
            assert_eq!(sorted_rows(&base), sorted_rows(&got), "{kind:?}");
            assert!(ctx.counters.spilled_partitions.load(Ordering::Relaxed) > 0, "{kind:?}");
        }
    }

    #[test]
    fn external_sort_matches_in_memory_sort_byte_for_byte() {
        // Duplicate keys everywhere: the rowid tie-break must reproduce
        // the stable in-memory sort exactly, row for row.
        let n = 40_000i32;
        let t = make_table(
            "t",
            vec![
                ("k", Bat::Int((0..n).map(|i| (i * 37) % 100).collect())),
                ("payload", Bat::Int((0..n).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = Plan::Sort { input: Box::new(scan("t", 2)), keys: vec![(0, false)] };
        let base = execute_streaming(&plan, &ExecContext::new(&tables, opts(1, 1024))).unwrap();
        for threads in [1, 4] {
            let mut o = opts(threads, 1024);
            o.memory_budget = 16 * 1024; // input is ~320 kB
            let ctx = ExecContext::new(&tables, o);
            let got = execute_streaming(&plan, &ctx).unwrap();
            assert_eq!(base.rows, got.rows);
            for c in 0..base.cols.len() {
                for r in 0..base.rows {
                    assert_eq!(
                        base.cols[c].get(r),
                        got.cols[c].get(r),
                        "row {r} col {c} threads={threads}"
                    );
                }
            }
            assert!(
                ctx.counters.spilled_partitions.load(Ordering::Relaxed) > 0,
                "expected sorted runs on disk"
            );
        }
        // With a budget that fits, the external-sort path degenerates to
        // the identical in-memory sort and spills nothing.
        let mut o = opts(1, 1024);
        o.memory_budget = 64 << 20;
        let ctx = ExecContext::new(&tables, o);
        let got = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(ctx.counters.spilled_partitions.load(Ordering::Relaxed), 0);
        assert_eq!(got.rows, base.rows);
    }

    #[test]
    fn external_sort_multipass_merge_beyond_fanin() {
        // Enough input that the floored per-worker share produces more
        // runs than MERGE_FANIN: intermediate merge passes must kick in
        // and the result must still match the in-memory sort exactly.
        let n = 200_000i32;
        let t = make_table(
            "t",
            vec![
                ("k", Bat::Int((0..n).map(|i| (i * 131) % 997).collect())),
                ("payload", Bat::Int((0..n).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = Plan::Sort { input: Box::new(scan("t", 2)), keys: vec![(0, false)] };
        let base = execute_streaming(&plan, &ExecContext::new(&tables, opts(1, 1024))).unwrap();
        let mut o = opts(1, 1024);
        o.memory_budget = 1; // floored to MIN_SORT_SHARE
        let ctx = ExecContext::new(&tables, o);
        let got = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(base.rows, got.rows);
        for r in (0..base.rows).step_by(997) {
            assert_eq!(base.cols[0].get(r), got.cols[0].get(r), "row {r}");
            assert_eq!(base.cols[1].get(r), got.cols[1].get(r), "row {r}");
        }
        let spilled = ctx.counters.spilled_partitions.load(Ordering::Relaxed);
        assert!(
            spilled > MERGE_FANIN as u64,
            "expected more runs than the fan-in cap plus intermediate merges, got {spilled}"
        );
    }

    #[test]
    fn global_aggregates_never_spill() {
        let n = 100_000i32;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = Plan::Aggregate {
            input: Box::new(scan("t", 1)),
            groups: vec![],
            aggs: vec![AggSpec {
                func: PAggFunc::Sum,
                arg: Some(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                distinct: false,
                ty: LogicalType::Bigint,
            }],
            schema: vec![OutCol { name: "s".into(), ty: LogicalType::Bigint }],
        };
        let mut o = opts(1, 1024);
        o.memory_budget = 64; // absurdly small: O(1) state still fits policy
        let ctx = ExecContext::new(&tables, o);
        let out = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(out.cols[0].get(0), Value::Bigint((0..n as i64).sum()));
        assert_eq!(ctx.counters.spilled_partitions.load(Ordering::Relaxed), 0);
    }

    fn lt_filter(col: usize, k: i32) -> BExpr {
        BExpr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(BExpr::ColRef { idx: col, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(k))),
        }
    }

    /// Hand-computed rows in [`sorted_rows`] form.
    fn want_rows(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> =
            rows.into_iter().map(|r| r.iter().map(|v| format!("{v:?}")).collect()).collect();
        rows.sort();
        rows
    }

    /// Both morsel policies at `threads` workers and 1024-row vectors.
    fn policies(threads: usize) -> [crate::exec::ExecOptions; 2] {
        let streaming = opts(threads, 1024);
        [streaming, crate::exec::ExecOptions { mode: ExecMode::Materialized, ..streaming }]
    }

    #[test]
    fn selective_filter_carries_candidate_list_to_the_agg_sink() {
        // A sparse filter must not gather: the chunk rides its candidate
        // list into grouped-aggregate ingest (sel_vectors counts it) under
        // either policy, and the groups are the hand-computed ones.
        let n = 40_000i32;
        let t = make_table(
            "t",
            vec![
                ("k", Bat::Int((0..n).map(|i| (i * 131) % 10_000).collect())), // scattered
                ("g", Bat::Int((0..n).map(|i| i % 7).collect())),
                ("v", Bat::Int((0..n).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t", 3)),
                pred: lt_filter(0, 100), // ~1% selective, scattered (no zonemap skip)
            }),
            groups: vec![BExpr::ColRef { idx: 1, ty: LogicalType::Int }],
            aggs: vec![AggSpec {
                func: PAggFunc::Sum,
                arg: Some(BExpr::ColRef { idx: 2, ty: LogicalType::Int }),
                distinct: false,
                ty: LogicalType::Bigint,
            }],
            schema: vec![
                OutCol { name: "g".into(), ty: LogicalType::Int },
                OutCol { name: "s".into(), ty: LogicalType::Bigint },
            ],
        };
        let mut sums = std::collections::BTreeMap::new();
        for i in (0..n).filter(|i| (i * 131) % 10_000 < 100) {
            *sums.entry(i % 7).or_insert(0i64) += i as i64;
        }
        let want = want_rows(sums.into_iter().map(|(g, s)| vec![Value::Int(g), Value::Bigint(s)]));
        for o in [1, 4].into_iter().flat_map(policies) {
            let ctx = ExecContext::new(&tables, o);
            let got = execute_streaming(&plan, &ctx).unwrap();
            assert_eq!(sorted_rows(&got), want, "{o:?}");
            assert!(
                ctx.counters.sel_vectors.load(Ordering::Relaxed) > 0,
                "sparse filters must carry candidate lists"
            );
        }
    }

    #[test]
    fn dense_selections_fall_back_to_gather() {
        // A ~99% filter is above the density cutoff: the chunk gathers
        // and no candidate list is carried —
        // sel_vectors stays 0, which the sink's materialize() could not
        // fake.
        let n = 10_000i32;
        let t = make_table("t", vec![("a", Bat::Int((0..n).map(|i| (i * 131) % n).collect()))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(1, 1024));
        let plan = Plan::Filter { input: Box::new(scan("t", 1)), pred: lt_filter(0, n - 100) };
        let out = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(out.rows, (n - 100) as usize);
        assert!(out.sel.is_none());
        assert_eq!(
            ctx.counters.sel_vectors.load(Ordering::Relaxed),
            0,
            "near-full selections must not ride as candidate lists"
        );
    }

    #[test]
    fn stacked_filters_only_evaluate_surviving_rows() {
        // Division by zero on rows an earlier filter removed must not
        // surface: the second predicate runs at the survivors' positions
        // only, under either policy.
        let n = 4_000i32;
        let t = make_table(
            "t",
            vec![
                ("a", Bat::Int((0..n).collect())),
                // b == 0 on ~5% of rows (dense enough that the first
                // filter's survivors stay above the old dense-eval path's
                // threshold).
                ("b", Bat::Int((0..n).map(|i| if i % 20 == 0 { 0 } else { i % 7 + 1 }).collect())),
            ],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        // filter 1: b <> 0 (keeps 95%); filter 2: a % b = 0 — errors on
        // any b == 0 row it is (wrongly) evaluated at.
        let plan = Plan::Filter {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t", 2)),
                pred: BExpr::Cmp {
                    op: CmpOp::NotEq,
                    left: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Int }),
                    right: Box::new(BExpr::Lit(Value::Int(0))),
                },
            }),
            pred: BExpr::Cmp {
                op: CmpOp::Eq,
                left: Box::new(BExpr::Arith {
                    op: crate::expr::ArithOp::Mod,
                    left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    right: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Int }),
                    ty: LogicalType::Int,
                }),
                right: Box::new(BExpr::Lit(Value::Int(0))),
            },
        };
        let b = |i: i32| if i % 20 == 0 { 0 } else { i % 7 + 1 };
        let want = want_rows(
            (0..n)
                .filter(|&i| b(i) != 0 && i % b(i) == 0)
                .map(|i| vec![Value::Int(i), Value::Int(b(i))]),
        );
        for o in policies(1) {
            let got = execute_streaming(&plan, &ExecContext::new(&tables, o)).unwrap();
            assert_eq!(sorted_rows(&got), want, "{o:?}");
        }
    }

    #[test]
    fn zonemap_skips_clustered_morsels_and_counts_them() {
        // Clustered key, 0.5% selective probe: whole morsels outside the
        // matching zones are skipped before any kernel runs. Imprints are
        // off to isolate the zonemap path.
        let n = 64_000i32;
        let t = make_table(
            "t",
            vec![("k", Bat::Int((0..n).collect())), ("v", Bat::Int((0..n).collect()))],
        );
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0, 1],
            filters: vec![lt_filter(0, 320)],
            schema: vec![
                OutCol { name: "k".into(), ty: LogicalType::Int },
                OutCol { name: "v".into(), ty: LogicalType::Int },
            ],
        };
        let mut o = opts(1, 1024);
        o.use_imprints = false;
        let ctx = ExecContext::new(&tables, o);
        let out = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(out.rows, 320);
        assert_eq!(out.cols[0].get(319), Value::Int(319));
        let skipped = ctx.counters.vectors_skipped.load(Ordering::Relaxed);
        // Zones are 8Ki rows; only zone 0 matches, so every morsel beyond
        // the first zone (and none inside it) skips.
        assert!(skipped >= 50, "expected most of the 63 tail morsels skipped, got {skipped}");
        // The materialized policy scans the table as one morsel, and zone
        // 0 holds matches: same rows, no skips.
        let [_, whole] = policies(1);
        let ctx2 =
            ExecContext::new(&tables, crate::exec::ExecOptions { use_imprints: false, ..whole });
        let base = execute_streaming(&plan, &ctx2).unwrap();
        assert_eq!(sorted_rows(&base), sorted_rows(&out));
        assert_eq!(ctx2.counters.morsels.load(Ordering::Relaxed), 1);
        assert_eq!(ctx2.counters.vectors_skipped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn candidate_probe_and_distinct_match_baseline() {
        // Filter → probe: the probe must compose the candidate list into
        // its output gather. Filter → distinct: the grouping interns the
        // selected positions only.
        let n = 20_000i32;
        let probe = make_table(
            "probe",
            vec![
                ("k", Bat::Int((0..n).map(|i| (i * 7) % 500).collect())),
                ("f", Bat::Int((0..n).map(|i| (i * 131) % 1000).collect())),
            ],
        );
        let build = make_table(
            "build",
            vec![("k", Bat::Int((0..250).collect())), ("v", Bat::Int((0..250).collect()))],
        );
        let tables =
            TestTables { tables: Map::from([("probe".into(), probe), ("build".into(), build)]) };
        let join = Plan::Join {
            left: Box::new(Plan::Filter {
                input: Box::new(scan("probe", 2)),
                pred: lt_filter(1, 20), // ~2% selective
            }),
            right: Box::new(scan("build", 2)),
            kind: PJoinKind::Inner,
            left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            residual: None,
            schema: vec![
                OutCol { name: "k".into(), ty: LogicalType::Int },
                OutCol { name: "f".into(), ty: LogicalType::Int },
                OutCol { name: "k2".into(), ty: LogicalType::Int },
                OutCol { name: "v".into(), ty: LogicalType::Int },
            ],
        };
        let distinct = Plan::distinct(Plan::Filter {
            input: Box::new(scan("probe", 2)),
            pred: lt_filter(1, 20),
        });
        // Surviving probe rows as (k, f), in scan order.
        let kept: Vec<(i32, i32)> =
            (0..n).map(|i| ((i * 7) % 500, (i * 131) % 1000)).filter(|&(_, f)| f < 20).collect();
        let joined = kept
            .iter()
            .filter(|&&(k, _)| k < 250)
            .map(|&(k, f)| vec![Value::Int(k), Value::Int(f), Value::Int(k), Value::Int(k)]);
        let unique: std::collections::BTreeSet<(i32, i32)> = kept.iter().copied().collect();
        let distinct_rows = unique.into_iter().map(|(k, f)| vec![Value::Int(k), Value::Int(f)]);
        for (plan, want) in [(&join, want_rows(joined)), (&distinct, want_rows(distinct_rows))] {
            for o in [1, 4].into_iter().flat_map(policies) {
                let got = execute_streaming(plan, &ExecContext::new(&tables, o)).unwrap();
                assert_eq!(sorted_rows(&got), want, "{o:?}");
            }
        }
    }

    #[test]
    fn filter_pushes_through_vectors() {
        let n = 10_000;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))]);
        let tables = TestTables { tables: Map::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, opts(4, 512));
        let plan = Plan::Filter {
            input: Box::new(scan("t", 1)),
            pred: BExpr::Cmp {
                op: CmpOp::Lt,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(100))),
            },
        };
        let out = execute_streaming(&plan, &ctx).unwrap();
        assert_eq!(out.rows, 100);
        // Order preserved across morsels.
        assert_eq!(out.cols[0].get(0), Value::Int(0));
        assert_eq!(out.cols[0].get(99), Value::Int(99));
        assert_eq!(ctx.counters.vectors.load(Ordering::Relaxed), (n as u64).div_ceil(512));
    }
}
