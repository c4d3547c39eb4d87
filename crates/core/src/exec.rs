//! Execution options, counters and context, the [`Chunk`] every operator
//! passes on, and the scan, dictionary-predicate and join-output code the
//! pipeline engine ([`crate::pipeline`]) runs.
//!
//! Tactical decisions happen here at execution time (paper §3.1: "during
//! execution tactical decisions are made about how specific operations
//! should be executed, such as which join implementation to use").
//!
//! **Automatic indexing** (paper §3.1): the first range select over a
//! persistent column builds its [imprints]; the first equi-join probing a
//! bare persistent column builds its hash table; `CREATE ORDER INDEX`
//! columns answer range selects by binary search.
//!
//! **Operator-at-a-time** (paper §3.1, Figure 2) is a morsel policy,
//! [`ExecMode::Materialized`]: each pipeline runs as one morsel over its
//! whole source, and only a mitosis prefix fans out over threads.
//!
//! [imprints]: monetlite_storage::index::Imprints

use crate::bloom::Bloom;
use crate::expr::{BExpr, CmpOp};
use crate::join::JoinSel;
use crate::kernels::{self, bool_to_sel, compile_like, eval, Cands, Emit, LikePlan};
use crate::plan::{PJoinKind, Plan};
use crate::rows::take_padded;
use monetlite_storage::catalog::{ColumnEntry, TableMeta};
use monetlite_storage::hash::{hash_key, hash_rows};
use monetlite_storage::index::{f64_ordered, Zonemap, IMPRINT_LINE};
use monetlite_storage::{Bat, StrDict};
use monetlite_types::{LogicalType, MlError, Result, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How the pipeline engine cuts each pipeline into morsels (the policy is
/// `pipeline::morsel_rows`): [`ExecMode::Streaming`] (default) into
/// `vector_size`-row morsels at one thread, and into about four
/// zone-aligned morsels per thread (at most a vector each) when more than
/// one thread runs and the source holds more than one vector;
/// [`ExecMode::Materialized`] — the paper's operator-at-a-time model —
/// into one morsel over the whole source, except that a mitosis prefix
/// fans out over `threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Morsels of at most a vector, sized to the thread count, with morsel
    /// parallelism.
    #[default]
    Streaming,
    /// Whole-source morsels, fanned out only over a mitosis prefix (the
    /// paper's §3.1 model).
    Materialized,
}

/// Execution tuning knobs; the ablation benches and the "1 thread for
/// fairness" configuration of the paper's §4.1 set these.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Morsel policy (vector-sized morsels vs operator-at-a-time).
    pub mode: ExecMode,
    /// Worker threads (morsel workers; under the materialized policy only
    /// a mitosis prefix uses more than one; 1 = sequential, the paper's
    /// benchmark configuration).
    pub threads: usize,
    /// Rows per vector: the streaming morsel, the unit that breakers
    /// re-slice spilled state into, and the materialized policy's mitosis
    /// unit ("the optimizer will not split up small columns").
    pub vector_size: usize,
    /// Build/use column imprints on range selects.
    pub use_imprints: bool,
    /// Build/use hash indexes on join probes.
    pub use_hash_index: bool,
    /// Use order indexes to answer range selects.
    pub use_order_index: bool,
    /// Per-query timeout.
    pub timeout: Option<Duration>,
    /// Byte budget for transient pipeline-breaker state (hash-aggregate
    /// group tables, hash-join build sides, sort buffers). When a
    /// breaker's state would exceed it, the operator spills partitions /
    /// sorted runs to temp files and processes them piecewise.
    /// `usize::MAX` (the default) disables spilling; when unset, the
    /// executor falls back to the headroom of the store's [`Vmem`] budget
    /// (see [`ExecContext::spill_budget`]).
    pub memory_budget: usize,
    /// Byte cap on one query's spill files (`usize::MAX`, the default, is
    /// no cap). Exceeding it aborts that query with
    /// [`MlError::SpillQuota`] while the connection, other sessions and
    /// the store stay usable — the disk-pressure analogue of
    /// `memory_budget`.
    pub spill_quota: usize,
    /// Dictionary-encoded string execution (on by default): every scan
    /// filter over one VARCHAR column alone runs over the column's
    /// sorted-dictionary `u32` codes — a code range for comparisons and
    /// LIKE prefixes, else a per-code mask from evaluating the filter once
    /// per distinct value — with the column's zonemap over codes for
    /// morsel skipping; string group keys hash dense codes; and hash-join
    /// build sides push bloom filters into probe-side scans. `false`
    /// restores per-row string execution (the ablation baseline); results
    /// are identical either way.
    pub use_dict: bool,
    /// Plan cache (on by default): repeated statements that differ only
    /// in WHERE-clause literals reuse one optimized plan template
    /// (skipping parse/bind/optimize), with fresh literals substituted per
    /// execution. `false` replans every statement (the ablation
    /// baseline); results are identical either way.
    pub use_plan_cache: bool,
    /// Result cache (on by default): a read statement identical to a
    /// previous one — same text, same literals, same options — returns
    /// the stored Arc-shared columns without executing, as long as every
    /// input table version (and the view epoch) is unchanged. `false`
    /// executes every statement.
    pub use_result_cache: bool,
    /// Byte budget for the shared plan cache (64 MiB by default): half
    /// for plan templates, a quarter each for statement shapes and the
    /// statement-text memo; the least recently used of each are evicted
    /// past its share.
    pub plan_cache_bytes: usize,
    /// Byte budget for the shared result cache (256 MiB by default);
    /// least-recently-used result sets are evicted past it.
    pub result_cache_bytes: usize,
}

/// The shipped configuration, one constant per field: the engine reads no
/// environment. Tests and benches that need another shape set the fields
/// they vary (the configuration lattice in `tests/lib.rs` spells out every
/// one).
impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Streaming,
            threads: 1,
            vector_size: 64 * 1024,
            use_imprints: true,
            use_hash_index: true,
            use_order_index: true,
            timeout: None,
            memory_budget: usize::MAX,
            spill_quota: usize::MAX,
            use_dict: true,
            use_plan_cache: true,
            use_result_cache: true,
            plan_cache_bytes: 64 << 20,
            result_cache_bytes: 256 << 20,
        }
    }
}

/// Translate a worker-thread panic payload into an [`MlError`]: an
/// embedded engine must degrade a crashed worker to a query error, never
/// take the host process down with it (paper §3.4).
pub(crate) fn worker_panic_error(p: &(dyn std::any::Any + Send)) -> MlError {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    MlError::Execution(format!("worker thread panicked: {msg}"))
}

/// Resolves table names to catalog entries (the transaction's view).
pub trait TableProvider: Sync {
    /// The table's current metadata + data.
    fn table_meta(&self, name: &str) -> Result<Arc<TableMeta>>;
}

/// Counters describing tactical decisions, for EXPLAIN/benches/tests.
#[derive(Debug, Default)]
pub struct ExecCounters {
    /// Range selects answered through imprints.
    pub imprint_selects: AtomicU64,
    /// Range selects answered through an order index.
    pub order_index_selects: AtomicU64,
    /// Joins probing an automatic per-column hash index.
    pub hash_index_joins: AtomicU64,
    /// Point selects (`col = literal`) answered through a column's
    /// automatic hash index.
    pub hash_selects: AtomicU64,
    /// Pipelines driven.
    pub pipelines: AtomicU64,
    /// Morsels dispatched to pipeline workers (more than one per pipeline
    /// shows a fan-out).
    pub morsels: AtomicU64,
    /// Vectors pushed through pipeline operator chains.
    pub vectors: AtomicU64,
    /// Spill partitions / sorted runs written by pipeline breakers that
    /// exceeded the memory budget.
    pub spilled_partitions: AtomicU64,
    /// Total bytes written to spill files.
    pub spill_bytes: AtomicU64,
    /// Whole vectors (morsels) proven empty by a zonemap probe and
    /// skipped before any kernel ran.
    pub vectors_skipped: AtomicU64,
    /// Vectors that left their operator chain carrying a candidate list
    /// (materialization deferred to the pipeline sink).
    pub sel_vectors: AtomicU64,
    /// Single-column VARCHAR predicates served from a sorted string
    /// dictionary (counted once per predicate per morsel), and string
    /// group keys hashed as dictionary codes (once per key per query).
    pub dict_hits: AtomicU64,
    /// Probe-side scan rows dropped by a pushed-down join bloom filter
    /// before reaching the join.
    pub bloom_pruned: AtomicU64,
}

/// A point-in-time copy of [`ExecCounters`], exposed on the connection
/// after each query so embedders, benches and tests can observe tactical
/// decisions (including spill traffic) without holding the context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Range selects answered through imprints.
    pub imprint_selects: u64,
    /// Range selects answered through an order index.
    pub order_index_selects: u64,
    /// Joins probing an automatic per-column hash index.
    pub hash_index_joins: u64,
    /// Point selects answered through a column's automatic hash index.
    pub hash_selects: u64,
    /// Pipelines driven.
    pub pipelines: u64,
    /// Morsels dispatched to pipeline workers (more than one per pipeline
    /// shows a fan-out).
    pub morsels: u64,
    /// Vectors pushed through pipeline operator chains.
    pub vectors: u64,
    /// Spill partitions / sorted runs written.
    pub spilled_partitions: u64,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Whole vectors skipped by zonemap probes.
    pub vectors_skipped: u64,
    /// Vectors carried through their operator chain with a candidate
    /// list.
    pub sel_vectors: u64,
    /// VARCHAR predicates and group keys served from a string dictionary.
    pub dict_hits: u64,
    /// Probe-side scan rows dropped by pushed-down join bloom filters.
    pub bloom_pruned: u64,
    /// Statements served from a cached plan template (parse/bind/optimize
    /// skipped; filled by the connection, never by the executor).
    pub plan_cache_hits: u64,
    /// Statements served from the result cache (execution skipped
    /// entirely; filled by the connection).
    pub result_cache_hits: u64,
    /// The optimizer's cardinality estimate for the query's root operator
    /// (filled by the connection after planning; 0 when unknown).
    /// Comparing it with the actual result size is the cheapest way to
    /// audit the statistics model.
    pub estimated_rows: u64,
}

impl ExecCounters {
    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(&self, c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> CountersSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CountersSnapshot {
            imprint_selects: g(&self.imprint_selects),
            order_index_selects: g(&self.order_index_selects),
            hash_index_joins: g(&self.hash_index_joins),
            hash_selects: g(&self.hash_selects),
            pipelines: g(&self.pipelines),
            morsels: g(&self.morsels),
            vectors: g(&self.vectors),
            spilled_partitions: g(&self.spilled_partitions),
            spill_bytes: g(&self.spill_bytes),
            vectors_skipped: g(&self.vectors_skipped),
            sel_vectors: g(&self.sel_vectors),
            dict_hits: g(&self.dict_hits),
            bloom_pruned: g(&self.bloom_pruned),
            plan_cache_hits: 0,
            result_cache_hits: 0,
            estimated_rows: 0,
        }
    }
}

/// Operator state may always claim 1/8 of the vmem budget, however full
/// of resident columns it is (see [`ExecContext::spill_budget`]).
pub const INHERITED_BUDGET_SHARE: usize = 8;

/// Everything an execution needs.
pub struct ExecContext<'a> {
    /// Catalog view.
    pub tables: &'a dyn TableProvider,
    /// Tuning knobs.
    pub opts: ExecOptions,
    /// Absolute deadline derived from `opts.timeout`.
    pub deadline: Option<Instant>,
    /// Tactical-decision counters.
    pub counters: ExecCounters,
    /// The store's paging manager, when executing against a [`Store`]
    /// (`None` for bare plan-level execution). Ties the operator memory
    /// budget to the same byte budget that governs column residency.
    ///
    /// [`Store`]: monetlite_storage::Store
    pub vmem: Option<Arc<monetlite_storage::Vmem>>,
    /// Lazily created temp directory holding this execution's spill files
    /// (removed when the context is dropped).
    pub(crate) spill: crate::spill::SpillDir,
    /// Cross-thread cancellation token (`Connection::interrupt_handle`);
    /// polled at every deadline checkpoint, so an interrupt fires with
    /// the same per-morsel latency as a timeout.
    pub(crate) interrupt: Option<Arc<AtomicBool>>,
}

impl<'a> ExecContext<'a> {
    /// Build a context, arming the deadline.
    pub fn new(tables: &'a dyn TableProvider, opts: ExecOptions) -> ExecContext<'a> {
        ExecContext {
            tables,
            opts,
            deadline: opts.timeout.map(|t| Instant::now() + t),
            counters: ExecCounters::default(),
            vmem: None,
            spill: crate::spill::SpillDir::with_quota(if opts.spill_quota == usize::MAX {
                u64::MAX
            } else {
                opts.spill_quota as u64
            }),
            interrupt: None,
        }
    }

    /// Attach the store's paging manager (budget source for spilling).
    pub fn with_vmem(mut self, vmem: Arc<monetlite_storage::Vmem>) -> ExecContext<'a> {
        self.vmem = Some(vmem);
        self
    }

    /// Attach a cancellation token (set from another thread to abort this
    /// execution at its next checkpoint).
    pub fn with_interrupt(mut self, token: Arc<AtomicBool>) -> ExecContext<'a> {
        self.interrupt = Some(token);
        self
    }

    /// The byte budget pipeline breakers must stay under, or `None` when
    /// unlimited. An explicit [`ExecOptions::memory_budget`] wins;
    /// otherwise the headroom of the attached [`Vmem`] budget applies —
    /// operator state competes with resident columns for the same bytes —
    /// but never less than [`INHERITED_BUDGET_SHARE`] of that budget:
    /// earlier queries' resident columns can leave a headroom of ~0, and
    /// a breaker that may hold nothing spills at the widest fan-out
    /// ([`crate::spill::MAX_FANOUT`] partitions), each a tiny file.
    ///
    /// [`Vmem`]: monetlite_storage::Vmem
    pub fn spill_budget(&self) -> Option<usize> {
        if self.opts.memory_budget != usize::MAX {
            return Some(self.opts.memory_budget);
        }
        match &self.vmem {
            Some(vm) if vm.budget() != usize::MAX => {
                Some(vm.headroom().max(vm.budget() / INHERITED_BUDGET_SHARE))
            }
            _ => None,
        }
    }

    pub(crate) fn check_deadline(&self) -> Result<()> {
        if let Some(i) = &self.interrupt {
            if i.load(Ordering::Relaxed) {
                return Err(MlError::Interrupted);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                let limit = self.opts.timeout.unwrap_or_default();
                return Err(MlError::Timeout {
                    elapsed_ms: limit.as_millis() as u64,
                    limit_ms: limit.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// An intermediate result: columns plus an optional **candidate list**.
///
/// Without a selection (`sel == None`) every column holds exactly `rows`
/// rows — a fully materialised chunk. With a selection, the columns are
/// *wider* shared arrays (often the base table's own columns, zero-copy)
/// and `sel` lists the `rows` physical positions that logically belong
/// to the chunk, in ascending order. Filters refine the selection instead
/// of gathering; consumers evaluate kernels at the selected positions
/// ([`Chunk::eval`], which hands `sel` to [`crate::kernels::eval`]) or
/// call [`Chunk::materialize`] once at the pipeline sink.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Columns (all the same physical length; equals `rows` when `sel`
    /// is `None`).
    pub cols: Vec<Arc<Bat>>,
    /// Logical row count (`sel.len()` when a selection is present).
    pub rows: usize,
    /// Candidate list: ascending physical positions into `cols`.
    pub sel: Option<Arc<Vec<u32>>>,
}

impl Chunk {
    /// A fully materialised chunk (no selection).
    pub fn dense(cols: Vec<Arc<Bat>>, rows: usize) -> Chunk {
        Chunk { cols, rows, sel: None }
    }

    /// The candidate list as kernel positions (`None` when dense).
    pub(crate) fn positions(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(Vec::as_slice)
    }

    /// Physical rows of the backing columns (what dense kernels would
    /// scan).
    pub fn phys_rows(&self) -> usize {
        self.cols.first().map_or(self.rows, |c| c.len())
    }

    /// Apply the candidate list, gathering each column once. The single
    /// deferred materialisation of a candidate pipeline — called at the
    /// sink. No-op for dense chunks.
    pub fn materialize(self) -> Chunk {
        match self.sel {
            None => self,
            Some(sel) => Chunk {
                cols: self.cols.iter().map(|c| Arc::new(c.take(&sel))).collect(),
                rows: sel.len(),
                sel: None,
            },
        }
    }

    /// Gather *logical* rows by id into a new dense chunk (a selection
    /// present on `self` is composed into the gather — one copy total).
    pub fn take(&self, sel: &[u32]) -> Chunk {
        match &self.sel {
            None => {
                Chunk::dense(self.cols.iter().map(|c| Arc::new(c.take(sel))).collect(), sel.len())
            }
            Some(base) => {
                let phys: Vec<u32> = sel.iter().map(|&i| base[i as usize]).collect();
                Chunk::dense(
                    self.cols.iter().map(|c| Arc::new(c.take(&phys))).collect(),
                    phys.len(),
                )
            }
        }
    }

    /// Concatenate chunks column-wise (the pipeline "pack" step),
    /// materialising any candidate lists.
    ///
    /// A single dense input chunk passes through untouched (keeping
    /// zero-copy scans zero-copy), and zero-row inputs contribute
    /// nothing. Callers that can receive an empty `chunks` list must
    /// supply their own schema-typed empty chunk (see [`Chunk::empty`]) —
    /// an empty input here yields a zero-column chunk.
    pub fn pack(chunks: Vec<Chunk>) -> Result<Chunk> {
        let mut chunks: Vec<Chunk> = chunks.into_iter().map(Chunk::materialize).collect();
        if chunks.len() <= 1 {
            return Ok(chunks.pop().unwrap_or(Chunk::dense(vec![], 0)));
        }
        // Drop zero-row chunks (appending them is wasted work), keeping the
        // first as a type template in case every chunk is empty.
        let template = chunks[0].clone();
        let mut nonempty: Vec<Chunk> = chunks.into_iter().filter(|c| c.rows > 0).collect();
        if nonempty.len() == 1 {
            if let Some(only) = nonempty.pop() {
                return Ok(only);
            }
        }
        let mut iter = nonempty.into_iter();
        let Some(first) = iter.next() else {
            return Ok(template);
        };
        let mut cols: Vec<Bat> = first.cols.iter().map(|c| (**c).clone()).collect();
        let mut rows = first.rows;
        for ch in iter {
            for (dst, src) in cols.iter_mut().zip(&ch.cols) {
                dst.append_bat(src)?;
            }
            rows += ch.rows;
        }
        Ok(Chunk::dense(cols.into_iter().map(Arc::new).collect(), rows))
    }

    /// A zero-row chunk with the column types of `schema` (zero-row
    /// sources must still produce correctly-typed outputs).
    pub fn empty(schema: &[crate::plan::OutCol]) -> Chunk {
        Chunk::dense(schema.iter().map(|c| Arc::new(Bat::new(c.ty))).collect(), 0)
    }

    /// Approximate resident bytes of all columns (the spill-decision
    /// measure; includes transient heap structures).
    pub fn mem_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.mem_bytes()).sum()
    }

    /// Extract *logical* rows `[lo, hi)` as a new chunk (`lo == hi`
    /// yields an empty chunk of the same column types).
    pub fn slice(&self, lo: usize, hi: usize) -> Chunk {
        debug_assert!(lo <= hi && hi <= self.rows, "slice {lo}..{hi} of {}", self.rows);
        if lo == 0 && hi == self.rows {
            return self.clone();
        }
        let sel: Vec<u32> = (lo as u32..hi as u32).collect();
        self.take(&sel)
    }

    /// Evaluate an expression over this chunk's logical rows, at the
    /// candidate list's positions when there is one — the result is
    /// always compacted to `rows` rows.
    pub(crate) fn eval(&self, e: &BExpr) -> Result<Bat> {
        eval(e, &self.cols, self.rows, self.positions())
    }

    /// [`Chunk::eval`] that shares a dense chunk's column for a bare
    /// column reference instead of copying it (aggregate keys and
    /// arguments, probe keys, projections).
    pub(crate) fn eval_shared(&self, e: &BExpr) -> Result<Arc<Bat>> {
        crate::kernels::eval_shared(e, &self.cols, self.rows, self.positions())
    }
}

/// Execute a plan to completion. [`ExecOptions::mode`] picks only the
/// morsel policy of the one pipeline engine ([`crate::pipeline`]). The
/// result is always dense — any candidate list still pending at the top
/// of the plan materialises here, exactly once.
pub fn execute(plan: &Plan, ctx: &ExecContext) -> Result<Chunk> {
    Ok(crate::pipeline::execute_streaming(plan, ctx)?.materialize())
}

/// Project `exprs` over a chunk, with common-subexpression elimination at
/// the MAL level (paper: "further optimizations are performed such as
/// common sub-expression elimination"): identical projection expressions
/// are evaluated once, and bare column references share the input column
/// (no copy). A candidate chunk's columns compact to its selection.
pub(crate) fn project_cols(exprs: &[BExpr], chunk: &Chunk) -> Result<Vec<Arc<Bat>>> {
    let mut cols = Vec::with_capacity(exprs.len());
    let mut memo: Vec<(usize, Arc<Bat>)> = Vec::new();
    for (i, e) in exprs.iter().enumerate() {
        if let Some((_, prev)) = memo.iter().find(|(j, _)| exprs[*j] == *e) {
            cols.push(prev.clone());
            continue;
        }
        let b = chunk.eval_shared(e)?;
        memo.push((i, b.clone()));
        cols.push(b);
    }
    Ok(cols)
}

/// Materialise a VALUES node.
pub(crate) fn exec_values(rows: &[Vec<BExpr>], schema: &[crate::plan::OutCol]) -> Result<Chunk> {
    let mut cols: Vec<Bat> = schema.iter().map(|c| Bat::new(c.ty)).collect();
    for row in rows {
        for (expr, col) in row.iter().zip(cols.iter_mut()) {
            let v = eval(expr, &[], 1, None)?;
            col.push(&v.get(0))?;
        }
    }
    // A zero-column VALUES still has its row count.
    Ok(Chunk::dense(cols.into_iter().map(Arc::new).collect(), rows.len()))
}

// ---------------------------------------------------------------------------
// Scan with index-assisted selection
// ---------------------------------------------------------------------------

/// Enforce the `u32` candidate-list width at scan setup: positions are
/// 32-bit row ids throughout the engine (see
/// [`crate::kernels::bool_to_sel`]), so a table beyond 2³² physical rows
/// must refuse to scan instead of silently truncating positions.
pub(crate) fn check_candidate_width(phys_rows: usize) -> Result<()> {
    if phys_rows > u32::MAX as usize {
        return Err(MlError::Unsupported(format!(
            "table has {phys_rows} physical rows, beyond the 4Gi-row candidate-list (u32 row id) \
             limit"
        )));
    }
    Ok(())
}

/// Selections covering at least this fraction (in tenths) of the scanned
/// span materialise eagerly — dense chains must not pay indexed access
/// downstream for a selection that kept almost everything.
pub(crate) const SEL_DENSITY_CUTOFF_TENTHS: usize = 9;

/// Scan one morsel `range` of `table` (`None`: the whole table, which
/// keeps imprint/order-index selection and zero-copy column sharing).
/// `projected` is the scan's read list, of which the first `width`
/// columns are output (see [`Plan::Scan`]). A sparse enough selection is
/// *carried* on the chunk (columns stay the zero-copy base arrays) instead
/// of gathered; the density cutoff keeps near-full selections on the dense
/// path so unselective chains don't regress. `blooms` are pushed-down join
/// build-side filters keyed by scan-output column position; `extras` are
/// synthetic full-length physical columns (dictionary code columns)
/// appended after the `width` output columns in every output shape.
/// `state` is shared by every morsel of the scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_scan(
    table: &str,
    projected: &[usize],
    width: usize,
    filters: &[BExpr],
    ctx: &ExecContext,
    range: Option<(u32, u32)>,
    state: &ScanState,
    blooms: &[(usize, Arc<Bloom>)],
    extras: &[Arc<Bat>],
) -> Result<Chunk> {
    let meta = ctx.tables.table_meta(table)?;
    let phys_rows = meta.data.rows;
    check_candidate_width(phys_rows)?;
    let (lo, hi) = range.map(|(a, b)| (a as usize, b as usize)).unwrap_or((0, phys_rows));
    // Zero-width ranges (empty morsels) must still produce correctly
    // typed, zero-row output — clamp rather than underflow below.
    let (lo, hi) = (lo.min(phys_rows), hi.min(phys_rows).max(lo.min(phys_rows)));
    // Every read column (filters index the whole read list); only the
    // first `width` of them leave the scan.
    let entries: Vec<Arc<ColumnEntry>> =
        projected.iter().map(|&c| meta.data.cols[c].entry()).collect::<Result<_>>()?;
    let outputs = &entries[..width.min(entries.len())];
    let empty = || {
        Chunk::dense(
            outputs
                .iter()
                .map(|e| Arc::new(Bat::new(e.ty())))
                .chain(extras.iter().map(|b| Arc::new(Bat::new(b.logical_type()))))
                .collect(),
            0,
        )
    };

    // Dictionary-domain predicates: every filter over one VARCHAR column
    // alone is compiled, once per scan, into a code range or a per-code
    // mask over the column's sorted dictionary. Surviving rows are
    // filtered by flat `u32` code tests — the string kernel never runs
    // for a served predicate.
    let dict_preds =
        if ctx.opts.use_dict && hi > lo { state.dicts(filters, &entries, phys_rows) } else { &[] };
    // Zone skipping: before any index probe or kernel run, a filter that
    // no zone overlapping [lo, hi) can satisfy proves the whole vector
    // empty — a served filter by its column's zonemap over dictionary
    // codes, a constant range over a fixed-width column by its zonemap
    // over keys. Valid under deletion masks too — deletes only remove
    // potential matches, and per-zone min/max over the physical rows
    // stays a conservative superset.
    for (i, f) in filters.iter().enumerate().filter(|_| hi > lo) {
        let may = match (dict_preds.iter().find(|df| df.filter == i), zone_probe_of(f)) {
            (Some(df), _) => df
                .zones
                .any_zone(lo, hi, |zmin, zmax| df.pred.zone_may_match(zmin as u32, zmax as u32)),
            (None, Some((col_pos, plo, phi))) => match entries.get(col_pos) {
                Some(e) if !e.is_empty() && e.ty() != LogicalType::Varchar => {
                    e.zonemap()?.range_may_match(lo, hi, plo, phi)
                }
                _ => true,
            },
            (None, None) => true,
        };
        if !may {
            ctx.counters.bump(&ctx.counters.vectors_skipped);
            return Ok(empty());
        }
    }
    let mut served = vec![false; filters.len()];
    for df in dict_preds {
        ctx.counters.bump(&ctx.counters.dict_hits);
        served[df.filter] = true;
    }

    let mut sel: Option<Vec<u32>> = None;
    let mut remaining: Vec<&BExpr> =
        filters.iter().enumerate().filter(|(i, _)| !served[*i]).map(|(_, f)| f).collect();
    // The index-selected filter, when its candidates still need checking.
    let mut unverified: Option<&BExpr> = None;
    // Index-assisted first filter. Works for subranges too (candidates
    // clip to `[lo, hi)`, so every morsel of a scan keeps
    // imprint/order-index acceleration) — but not
    // under deletion masks, where candidate row ids could be stale.
    if meta.data.deleted.is_none() {
        let probe_hit = remaining
            .iter()
            .enumerate()
            .find_map(|(i, f)| probe_of(f, &entries, &meta, projected, ctx).map(|p| (i, p)));
        if let Some((pos, (col_pos, plo, phi, path))) = probe_hit {
            let f = remaining.remove(pos);
            let entry = &entries[col_pos];
            match path {
                AccessPath::Order => {
                    // Order index answers the range exactly by binary
                    // search; the morsel's rows are a slice of the
                    // scan's answer.
                    let rows = state.order_rows((col_pos, plo, phi), entry)?;
                    let from = rows.partition_point(|&r| (r as usize) < lo);
                    let to = rows.partition_point(|&r| (r as usize) < hi);
                    ctx.counters.bump(&ctx.counters.order_index_selects);
                    sel = Some(rows[from..to].to_vec());
                }
                AccessPath::Hash(key) => {
                    // The hash index chains the key's rows in ascending
                    // order: clip them to the scan range, then verify
                    // them as imprint candidates are verified.
                    let index = entry.hash_index()?;
                    ctx.counters.bump(&ctx.counters.hash_selects);
                    let cands = index
                        .candidates(hash_key(key))
                        .skip_while(|&r| (r as usize) < lo)
                        .take_while(|&r| (r as usize) < hi)
                        .collect();
                    unverified = Some(f);
                    sel = Some(cands);
                }
                AccessPath::Imprints => {
                    // Imprints: candidate cache lines (clipped to the scan
                    // range), then exact check. Only the masks of lines
                    // overlapping [lo, hi) are read, so a morsel's probe
                    // costs O(morsel), not O(table).
                    let imp = entry.imprints()?;
                    ctx.counters.bump(&ctx.counters.imprint_selects);
                    let lines = lo / IMPRINT_LINE..hi.div_ceil(IMPRINT_LINE);
                    let mut cands = Vec::with_capacity(hi - lo);
                    for line in imp.candidate_lines(plo, phi, lines) {
                        let line = line as usize;
                        let start = (line * IMPRINT_LINE).max(lo);
                        let end = (line * IMPRINT_LINE + IMPRINT_LINE).min(hi);
                        cands.extend(start as u32..end as u32);
                    }
                    unverified = Some(f);
                    sel = Some(cands);
                }
            }
        }
    }
    // Filter kernels read the base columns in place, at selected
    // positions; only the columns they reference are loaded.
    let bats = filter_bats(state, &entries, unverified.iter().chain(&remaining).copied())?;
    if let (Some(f), Some(cands)) = (unverified, &mut sel) {
        *cands = refine(f, &bats, phys_rows, Some(cands))?;
    }
    // No index-assisted selection: start from the physical restriction
    // (deletes and/or subrange) if any — unless nothing reads it: a
    // count-only morsel with no filter and no deletes is its range's
    // length (with no output column there is no bloom to apply either).
    if sel.is_none() && (meta.data.deleted.is_some() || lo != 0 || hi != phys_rows) {
        if meta.data.deleted.is_none()
            && remaining.is_empty()
            && dict_preds.is_empty()
            && outputs.is_empty()
            && extras.is_empty()
        {
            return Ok(Chunk::dense(vec![], hi - lo));
        }
        let deleted = meta.data.deleted.as_deref();
        sel = Some(
            (lo as u32..hi as u32).filter(|&r| deleted.is_none_or(|d| !d[r as usize])).collect(),
        );
    }

    // Dictionary-served predicates run first: integer code compares are
    // cheaper than any kernel the remaining filters could dispatch to.
    // With no selection yet the scan is the whole table, undeleted (the
    // physical restriction above made one otherwise).
    for df in dict_preds {
        sel = Some(df.pred.narrow(df.dict.codes(), sel.take()));
    }

    // Remaining filters: evaluate over the current selection, at its
    // positions of the base arrays.
    for f in remaining {
        sel = Some(refine(f, &bats, phys_rows, sel.as_deref())?);
    }

    // Pushed-down join bloom filters, after every local predicate: rows
    // whose key hash is definitely absent from the build side never enter
    // the pipeline. NULL keys hash to a tag the build side never inserts
    // (its NULL rows are skipped), so they drop here too — sound, since
    // the Inner/Semi probe this filter came from never matches NULL.
    if ctx.opts.use_dict && !blooms.is_empty() && hi > lo {
        for (col_pos, bloom) in blooms {
            if *col_pos >= outputs.len() {
                continue;
            }
            let bat = state.col(*col_pos, &entries)?;
            let hashes = hash_rows(&[bat.as_ref()], sel.as_deref());
            let before = hashes.len();
            let kept = narrow(sel.take(), phys_rows, |i, _| bloom.contains(hashes[i]));
            ctx.counters.add(&ctx.counters.bloom_pruned, (before - kept.len()) as u64);
            sel = Some(kept);
        }
    }

    // Materialise output columns; an unfiltered scan shares the base
    // arrays (zero copy — the Arc is the "shared pointer" of §3.3).
    // Synthetic `extras` columns are full-length physical arrays, so they
    // share the base columns' treatment in every shape. Filter-only
    // columns stop here: they are never gathered.
    if outputs.is_empty() && extras.is_empty() {
        // Nothing to emit but the count of surviving rows.
        return Ok(Chunk::dense(vec![], sel.map_or(phys_rows, |s| s.len())));
    }
    let out_cols =
        || (0..outputs.len()).map(|i| state.col(i, &entries)).collect::<Result<Vec<_>>>();
    match sel {
        None => {
            let mut cols = out_cols()?;
            cols.extend(extras.iter().cloned());
            Ok(Chunk::dense(cols, phys_rows))
        }
        Some(sel) => {
            // Candidate pass-through: a sparse selection rides on the
            // zero-copy base columns; downstream kernels evaluate only
            // the selected positions and materialisation happens once, at
            // the pipeline sink. Near-full selections gather here (the
            // density cutoff) so dense chains keep contiguous access.
            let span = hi - lo;
            if sel.len() * 10 < span * SEL_DENSITY_CUTOFF_TENTHS {
                let mut cols = out_cols()?;
                cols.extend(extras.iter().cloned());
                let rows = sel.len();
                return Ok(Chunk { cols, rows, sel: Some(Arc::new(sel)) });
            }
            let mut cols: Vec<Arc<Bat>> =
                out_cols()?.iter().map(|b| Arc::new(b.take(&sel))).collect();
            cols.extend(extras.iter().map(|b| Arc::new(b.take(&sel))));
            Ok(Chunk::dense(cols, sel.len()))
        }
    }
}

/// The read list as BATs for evaluating `filters` at base positions: the
/// columns they reference are loaded, every other position is an empty
/// placeholder no kernel touches (so a filter-only column whose predicate
/// the dictionary served is never paged in).
fn filter_bats<'f>(
    state: &ScanState,
    entries: &[Arc<ColumnEntry>],
    filters: impl Iterator<Item = &'f BExpr>,
) -> Result<Vec<Arc<Bat>>> {
    let mut used = Vec::new();
    for f in filters {
        f.collect_cols(&mut used);
    }
    if used.is_empty() {
        return Ok(Vec::new());
    }
    let unread = Arc::new(Bat::Int(Vec::new()));
    let mut bats = vec![unread; entries.len()];
    for u in used {
        bats[u] = state.col(u, entries)?;
    }
    Ok(bats)
}

/// Keep the candidates `keep(i, row)` accepts (`i` is the candidate's
/// index in the list), in one branch-free pass: every candidate is
/// stored and the length advances only when it is kept. A list narrows
/// in place; with none yet, the candidates are all `rows` rows.
fn narrow(sel: Option<Vec<u32>>, rows: usize, keep: impl Fn(usize, u32) -> bool) -> Vec<u32> {
    let Some(mut cur) = sel else {
        return Cands::emit((0..rows as u32).map(|r| (r, keep(r as usize, r) as i8)));
    };
    let mut n = 0;
    for i in 0..cur.len() {
        let r = cur[i];
        cur[n] = r;
        n += keep(i, r) as usize;
    }
    cur.truncate(n);
    cur
}

/// The physical positions at which filter `f` holds: among `sel` when
/// given, else among all `rows` rows of `cols`. This is the selecting
/// evaluator: kernels write candidate lists directly, nothing is
/// gathered, and operands are read at the positions as [`eval`] reads
/// them.
/// - A comparison (with a constant or another column) and LIKE select
///   in their kernels.
/// - `AND` narrows: its right side runs on the left side's survivors
///   only.
/// - An OR chain of equalities with literals over one operand (a
///   desugared IN list) evaluates the operand once and tests membership
///   in one pass.
/// - Anything else is evaluated to a BOOLEAN column and converted.
pub(crate) fn refine(
    f: &BExpr,
    cols: &[Arc<Bat>],
    rows: usize,
    sel: Option<&[u32]>,
) -> Result<Vec<u32>> {
    if sel.is_some_and(<[u32]>::is_empty) {
        return Ok(Vec::new());
    }
    let (mut hits, compacted) = match f {
        BExpr::And(a, b) => {
            let left = refine(a, cols, rows, sel)?;
            return refine(b, cols, rows, Some(&left));
        }
        BExpr::Cmp { op, left, right } => {
            kernels::cmp_node::<Cands>(*op, left, right, cols, rows, sel)?
        }
        BExpr::Like { input, pattern, negated } => {
            kernels::like_node::<Cands>(input, pattern, *negated, cols, rows, sel)?
        }
        _ => match in_list_of(f) {
            Some((operand, items)) => {
                let (b, bsel) = kernels::operand_at(operand, cols, rows, sel)?;
                (kernels::in_list::<Cands>(&b, &items, bsel)?, bsel.is_none())
            }
            None => return bool_to_sel(&eval(f, cols, rows, sel)?, sel),
        },
    };
    // Answers over operands compacted to `sel` are indices into it.
    if let (true, Some(sel)) = (compacted, sel) {
        for h in &mut hits {
            *h = sel[*h as usize];
        }
    }
    Ok(hits)
}

/// The operand and the items of an OR chain of equalities of one operand
/// with literals — the shape an IN list binds to.
fn in_list_of(f: &BExpr) -> Option<(&BExpr, Vec<Value>)> {
    let BExpr::Or(..) = f else {
        return None;
    };
    let mut leaves = Vec::new();
    let mut stack = vec![f];
    while let Some(e) = stack.pop() {
        match e {
            BExpr::Or(a, b) => stack.extend([b.as_ref(), a.as_ref()]),
            BExpr::Cmp { op: CmpOp::Eq, left, right } => match (left.as_ref(), right.as_ref()) {
                (BExpr::Lit(_), BExpr::Lit(_)) => return None,
                (operand, BExpr::Lit(v)) | (BExpr::Lit(v), operand) => leaves.push((operand, v)),
                _ => return None,
            },
            _ => return None,
        }
    }
    let (operand, _) = *leaves.first()?;
    if leaves.iter().any(|(o, _)| *o != operand) {
        return None;
    }
    Some((operand, leaves.into_iter().map(|(_, v)| v.clone()).collect()))
}

/// A scan filter compiled into its column's dictionary code domain.
/// Codes are dense and sorted by value, so a comparison with a literal
/// or a LIKE prefix is a half-open code range (binary search, O(log d) to
/// compile), and any other filter over the column is a per-code mask
/// (one evaluation per *distinct* value, O(d) to compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DictPred {
    /// Codes in `[lo, hi)` match.
    Range(u32, u32),
    /// `bits[code]` says whether the code matches.
    Mask(Vec<bool>),
}

impl DictPred {
    /// Narrow the candidate list `sel` (every row of `codes` when `None`)
    /// to the rows whose code matches, in one branch-free pass. NULL rows
    /// (`NULL_CODE`) never match — a range shape yields NULL on NULL
    /// input, and a mask is only compiled for a filter that does not hold
    /// on NULL. The code lies above every range and past every mask's
    /// end, so no row is tested for it separately.
    pub(crate) fn narrow(&self, codes: &[u32], sel: Option<Vec<u32>>) -> Vec<u32> {
        match self {
            &DictPred::Range(lo, hi) => {
                let width = hi.saturating_sub(lo);
                narrow(sel, codes.len(), |_, r| codes[r as usize].wrapping_sub(lo) < width)
            }
            DictPred::Mask(bits) => narrow(sel, codes.len(), |_, r| {
                bits.get(codes[r as usize] as usize).copied().unwrap_or(false)
            }),
        }
    }

    /// Can any code in a zone's inclusive `[zmin, zmax]` code range match?
    pub(crate) fn zone_may_match(&self, zmin: u32, zmax: u32) -> bool {
        match self {
            DictPred::Range(lo, hi) => lo < hi && zmin < *hi && zmax >= *lo,
            DictPred::Mask(bits) => {
                (zmin..=zmax).any(|c| bits.get(c as usize).copied().unwrap_or(false))
            }
        }
    }
}

/// A filter the scan serves from a dictionary.
pub(crate) struct DictFilter {
    /// Position in the scan's filter list.
    filter: usize,
    /// The dictionary of the column the filter reads.
    dict: Arc<StrDict>,
    /// That column's zonemap, over the dictionary's codes.
    zones: Arc<Zonemap>,
    /// The filter in that dictionary's code domain.
    pred: DictPred,
}

/// What the morsels of one scan share:
/// - the dictionary-served filters, compiled by the first morsel, so a
///   mask evaluates its filter over the dictionary's values once per
///   scan, not once per morsel;
/// - every column the scan has read, held until the scan ends. Under a
///   vmem budget smaller than the columns a scan reads, LRU over the
///   scan's cyclic access evicts each column just before the next morsel
///   needs it; held here, each is paged in once per scan;
/// - the order index's answer to the scan's range probe, computed by the
///   first morsel that takes that access path.
#[derive(Default)]
pub(crate) struct ScanState {
    dicts: OnceLock<Vec<DictFilter>>,
    /// One slot per read-list position.
    cols: OnceLock<Vec<Mutex<Option<Arc<Bat>>>>>,
    /// The order index's answer to the scan's range probe, sorted by row
    /// and keyed by the probe (read-list position, bounds).
    order_rows: Mutex<Option<(OrderProbe, Arc<[u32]>)>>,
}

/// An order-index range probe: read-list position and inclusive bounds.
type OrderProbe = (usize, Option<i64>, Option<i64>);

impl ScanState {
    /// Column `i` of the read list, loaded at most once per scan: a
    /// worker that asks while another loads it waits for that load.
    fn col(&self, i: usize, entries: &[Arc<ColumnEntry>]) -> Result<Arc<Bat>> {
        let slots = self.cols.get_or_init(|| entries.iter().map(|_| Mutex::default()).collect());
        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(b) = &*slot {
            return Ok(b.clone());
        }
        let b = entries[i].bat()?;
        *slot = Some(b.clone());
        Ok(b)
    }

    /// The rows of the whole column whose key lies in the probe's range,
    /// ascending: the order index answers once per scan, and each morsel
    /// takes its own rows by binary search.
    fn order_rows(&self, probe: OrderProbe, entry: &ColumnEntry) -> Result<Arc<[u32]>> {
        let mut slot = self.order_rows.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((p, rows)) = &*slot {
            if *p == probe {
                return Ok(rows.clone());
            }
        }
        let mut rows = entry.order_index()?.range(probe.1, probe.2).to_vec();
        rows.sort_unstable();
        let rows: Arc<[u32]> = rows.into();
        *slot = Some((probe, rows.clone()));
        Ok(rows)
    }

    /// The served filters; `span` is the number of rows the scan filters.
    fn dicts(&self, filters: &[BExpr], entries: &[Arc<ColumnEntry>], span: usize) -> &[DictFilter] {
        self.dicts.get_or_init(|| {
            let compile = |(filter, f): (usize, &BExpr)| {
                let entry = entries.get(dict_filter_col(f)?)?;
                // A mask is only worth a dictionary that is small beside
                // the scan: a cached dictionary, else the column
                // statistics, tell its size before one is built for it.
                if range_of(f).is_none() {
                    let ndv = match entry.dict_opt() {
                        Some(d) => d.len() as f64,
                        None => entry.stats().ok()?.ndv(),
                    };
                    if ndv * MASK_ROWS_PER_VALUE as f64 > span as f64 {
                        return None;
                    }
                }
                let dict = entry.dict().ok()?;
                let pred = dict_pred_of(f, &dict, span)?;
                let zones = entry.zonemap().ok()?;
                Some(DictFilter { filter, dict, zones, pred })
            };
            filters.iter().enumerate().filter_map(compile).collect()
        })
    }
}

/// A mask costs one evaluation per dictionary value; it is served only
/// when the scan filters at least this many rows per value.
const MASK_ROWS_PER_VALUE: usize = 8;

/// The one column a scan filter reads when it may run in that column's
/// dictionary code domain: every column reference in it is the same
/// VARCHAR column and it holds no parameter — comparisons, IN lists,
/// LIKE, AND/OR/NOT trees and functions of the column alike. The scan
/// ([`ScanState`]) and EXPLAIN's `[dict]` tag share this rule.
pub(crate) fn dict_filter_col(f: &BExpr) -> Option<usize> {
    let (mut col, mut ok) = (None, true);
    f.walk(&mut |e| match e {
        BExpr::ColRef { idx, ty } => {
            ok &= *ty == LogicalType::Varchar && col.is_none_or(|c| c == *idx);
            col = Some(*idx);
        }
        BExpr::Param { .. } => ok = false,
        _ => {}
    });
    col.filter(|_| ok)
}

/// The code range of a range-shaped filter as a function of the
/// dictionary: `#col <cmp> literal` (but `<>`), and `#col LIKE 'p'` with
/// an exact or prefix pattern.
#[allow(clippy::type_complexity)]
fn range_of(f: &BExpr) -> Option<Box<dyn Fn(&StrDict) -> (u32, u32) + '_>> {
    match f {
        BExpr::Cmp { op, left, right } => {
            let (lit, op) = match (left.as_ref(), right.as_ref()) {
                (BExpr::ColRef { .. }, BExpr::Lit(v)) => (v, *op),
                (BExpr::Lit(v), BExpr::ColRef { .. }) => (v, op.flip()),
                _ => return None,
            };
            let s = match lit {
                // Comparison with NULL is NULL for every row.
                Value::Null => return Some(Box::new(|_| (0, 0))),
                Value::Str(s) => s.as_str(),
                _ => return None,
            };
            Some(match op {
                CmpOp::Eq => Box::new(move |d| (d.lower_bound(s), d.upper_bound(s))),
                CmpOp::Lt => Box::new(move |d| (0, d.lower_bound(s))),
                CmpOp::LtEq => Box::new(move |d| (0, d.upper_bound(s))),
                CmpOp::Gt => Box::new(move |d| (d.upper_bound(s), d.len() as u32)),
                CmpOp::GtEq => Box::new(move |d| (d.lower_bound(s), d.len() as u32)),
                CmpOp::NotEq => return None,
            })
        }
        BExpr::Like { input, pattern, negated: false }
            if matches!(input.as_ref(), BExpr::ColRef { .. }) =>
        {
            match compile_like(pattern) {
                LikePlan::Exact(p) => {
                    Some(Box::new(move |d| (d.lower_bound(&p), d.upper_bound(&p))))
                }
                LikePlan::Prefix(p) => Some(Box::new(move |d| d.prefix_range(&p))),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Compile a dictionary-eligible filter (see [`dict_filter_col`]) into a
/// [`DictPred`] over `d`. Range shapes are binary searches. Every other
/// filter is evaluated once with the row kernels over the dictionary's
/// values plus one NULL row, which yields a mask — unless the dictionary
/// is too large beside the `span` rows the scan filters, the NULL row
/// holds (NULL rows carry `NULL_CODE`, which never matches), or the
/// evaluation errors (a value may be held only by rows the scan never
/// reads; the row kernels then decide).
fn dict_pred_of(f: &BExpr, d: &StrDict, span: usize) -> Option<DictPred> {
    if let Some(range) = range_of(f) {
        let (lo, hi) = range(d);
        return Some(DictPred::Range(lo, hi));
    }
    if d.len().saturating_mul(MASK_ROWS_PER_VALUE) > span {
        return None;
    }
    let col = dict_filter_col(f)?;
    let mut values = d.values();
    values.push(&Value::Null).ok()?;
    let unread = Arc::new(Bat::Int(Vec::new()));
    let mut cols = vec![unread; col + 1];
    cols[col] = Arc::new(values);
    let Ok(Bat::Bool(hits)) = eval(f, &cols, d.len() + 1, None) else {
        return None;
    };
    let (&null_row, hits) = hits.split_last()?;
    (null_row != 1).then(|| DictPred::Mask(hits.iter().map(|&h| h == 1).collect()))
}

/// Recognise `#col <op> literal` as an inclusive key-domain range probe,
/// returning (column position, lo, hi). Purely syntactic — the shape
/// zonemap skipping, imprint/order-index probes and EXPLAIN's
/// zonemap-eligibility tag all share. Bounds use the order-preserving
/// `i64` key domain of [`monetlite_storage::index::key_at`].
pub(crate) fn zone_probe_of(f: &BExpr) -> Option<(usize, Option<i64>, Option<i64>)> {
    let BExpr::Cmp { op, left, right } = f else {
        return None;
    };
    let (col, ty, lit, op) = match (left.as_ref(), right.as_ref()) {
        (BExpr::ColRef { idx, ty }, BExpr::Lit(v)) => (*idx, *ty, v, *op),
        (BExpr::Lit(v), BExpr::ColRef { idx, ty }) => (*idx, *ty, v, op.flip()),
        _ => return None,
    };
    if lit.is_null() {
        return None; // NULL comparisons select nothing; not a range probe
    }
    let k = value_key(lit, ty)?;
    Some(match op {
        CmpOp::Eq => (col, Some(k), Some(k)),
        CmpOp::Lt => (col, None, Some(k.checked_sub(1)?)),
        CmpOp::LtEq => (col, None, Some(k)),
        CmpOp::Gt => (col, Some(k.checked_add(1)?), None),
        CmpOp::GtEq => (col, Some(k), None),
        CmpOp::NotEq => return None,
    })
}

/// The tactical-index ratio, shared by both rules that let the automatic
/// hash index serve point work, so neither builds an index it will not
/// use:
/// * a point select reads a column's hash index when the column holds at
///   least one distinct value per this many rows (`ndv × 64 ≥ rows`);
/// * a join probes its probe column's hash index with the build keys when
///   the build side has at most one row per this many distinct probe
///   keys (`build rows × 64 ≤ ndv`), and falls back to the hash join once
///   the pairs pass this fraction of the probe rows.
pub(crate) const INDEX_RATIO: usize = 64;

/// How a scan's index-assisted first filter finds its candidates. The
/// order of the variants is the order of precedence.
#[derive(Debug, Clone, Copy)]
enum AccessPath {
    /// A `CREATE ORDER INDEX` answers the range exactly.
    Order,
    /// The column's automatic hash index lists the rows holding this key
    /// (an order key; the candidates are verified).
    Hash(i64),
    /// Imprint cache lines that may hold the range (verified).
    Imprints,
}

/// Recognise range probes answerable by an index over orderable
/// persistent columns, returning (column position, lo, hi, access path)
/// in the order-key domain. An equality on an INT, BIGINT, DATE or
/// DECIMAL column takes the hash index when the column's statistics say
/// the key is selective (see [`INDEX_RATIO`]); DOUBLE keeps imprints.
fn probe_of(
    f: &BExpr,
    entries: &[Arc<ColumnEntry>],
    meta: &TableMeta,
    projected: &[usize],
    ctx: &ExecContext,
) -> Option<(usize, Option<i64>, Option<i64>, AccessPath)> {
    let (col, plo, phi) = zone_probe_of(f)?;
    // Only fixed-width types admit order-based indexes; the type is known
    // without paging the column in.
    let entry = entries.get(col)?;
    if entry.ty() == LogicalType::Varchar {
        return None;
    }
    let point = plo.filter(|_| plo == phi);
    let path = if ctx.opts.use_order_index && meta.ordered_cols.contains(&projected[col]) {
        AccessPath::Order
    } else if let Some(key) = point.filter(|_| hash_selects_points(entry, ctx)) {
        AccessPath::Hash(key)
    } else if ctx.opts.use_imprints {
        AccessPath::Imprints
    } else {
        return None;
    };
    Some((col, plo, phi, path))
}

/// Whether `entry`'s hash index should answer its point selects: the
/// index is on, the type hashes its order key ([`hash_key`]) and the
/// column averages at most [`INDEX_RATIO`] rows per distinct value.
fn hash_selects_points(entry: &ColumnEntry, ctx: &ExecContext) -> bool {
    let hashes_its_key = matches!(
        entry.ty(),
        LogicalType::Int | LogicalType::Bigint | LogicalType::Date | LogicalType::Decimal { .. }
    );
    ctx.opts.use_hash_index
        && hashes_its_key
        && entry.stats().is_ok_and(|s| s.ndv() * INDEX_RATIO as f64 >= entry.len() as f64)
}

/// Map a literal into the column's order-key domain (see
/// [`monetlite_storage::index::key_at`]).
fn value_key(v: &Value, ty: LogicalType) -> Option<i64> {
    Some(match (v, ty) {
        (Value::Int(x), LogicalType::Int) => *x as i64,
        (Value::Bigint(x), LogicalType::Bigint) => *x,
        (Value::Date(d), LogicalType::Date) => d.0 as i64,
        (Value::Double(x), LogicalType::Double) => {
            if x.is_nan() {
                return None;
            }
            f64_ordered(*x)
        }
        (Value::Decimal(d), LogicalType::Decimal { scale, .. }) if d.scale == scale => d.raw,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Probe kind producing the row pairs `finish_join_output` needs for
/// `kind` with `residual`: semi/anti with a residual probe as Inner so
/// every candidate match is available for the per-pair residual check.
pub(crate) fn pair_probe_kind(kind: PJoinKind, residual: Option<&BExpr>) -> PJoinKind {
    match (kind, residual) {
        (PJoinKind::Semi | PJoinKind::Anti, Some(_)) => PJoinKind::Inner,
        _ => kind,
    }
}

/// Turn a join's row-id pairs into its output chunk, applying SQL ON
/// semantics for the residual predicate. Shared by the pipeline probe
/// operator and the grace join, so the paths cannot diverge:
/// * inner/cross — pairs failing the residual drop (a plain filter);
/// * semi/anti — `sel` holds **Inner** pairs (see [`pair_probe_kind`]); a
///   probe row qualifies when at least one of its matches passes the
///   residual; semi keeps qualifying rows, anti keeps the complement
///   (including rows with no key match at all);
/// * left — matches failing the residual are discarded and a probe row
///   whose matches all fail (or that has none) is NULL-padded instead of
///   dropped.
///
/// `probe_rows` is the probe side's logical row count, required for the
/// anti complement and left padding; `sel.lsel` must be ascending (all
/// probe paths produce it that way).
pub(crate) fn finish_join_output(
    probe_cols: &[Arc<Bat>],
    build_cols: &[Arc<Bat>],
    sel: JoinSel,
    kind: PJoinKind,
    residual: Option<&BExpr>,
    probe_rows: usize,
) -> Result<Chunk> {
    let semi_like = matches!(kind, PJoinKind::Semi | PJoinKind::Anti);
    let gather = |lsel: &[u32], rsel: Option<&[u32]>| -> Chunk {
        let mut cols: Vec<Arc<Bat>> =
            Vec::with_capacity(probe_cols.len() + rsel.map_or(0, |_| build_cols.len()));
        for c in probe_cols {
            cols.push(Arc::new(c.take(lsel)));
        }
        if let Some(rs) = rsel {
            for c in build_cols {
                cols.push(Arc::new(take_padded(c, rs)));
            }
        }
        Chunk::dense(cols, lsel.len())
    };
    let Some(res) = residual else {
        return Ok(if semi_like {
            gather(&sel.lsel, None)
        } else {
            gather(&sel.lsel, Some(&sel.rsel))
        });
    };
    match kind {
        PJoinKind::Inner | PJoinKind::Cross => {
            let out = gather(&sel.lsel, Some(&sel.rsel));
            let mask = out.eval(res)?;
            let keep = bool_to_sel(&mask, None)?;
            Ok(out.take(&keep))
        }
        PJoinKind::Semi | PJoinKind::Anti => {
            let pairs = gather(&sel.lsel, Some(&sel.rsel));
            let mask = pairs.eval(res)?;
            let hits = bool_to_sel(&mask, None)?;
            let mut qualifies = vec![false; probe_rows];
            for &h in &hits {
                qualifies[sel.lsel[h as usize] as usize] = true;
            }
            let want = kind == PJoinKind::Semi;
            let lsel: Vec<u32> =
                (0..probe_rows as u32).filter(|&l| qualifies[l as usize] == want).collect();
            Ok(gather(&lsel, None))
        }
        PJoinKind::Left => {
            let pairs = gather(&sel.lsel, Some(&sel.rsel));
            let mask = pairs.eval(res)?;
            let hits = bool_to_sel(&mask, None)?;
            let mut pass = vec![false; pairs.rows];
            for &h in &hits {
                pass[h as usize] = true;
            }
            let mut lsel: Vec<u32> = Vec::new();
            let mut rsel: Vec<u32> = Vec::new();
            let mut i = 0usize;
            for l in 0..probe_rows as u32 {
                let mut any = false;
                while i < sel.lsel.len() && sel.lsel[i] == l {
                    if sel.rsel[i] != crate::rows::NO_ROW && pass[i] {
                        lsel.push(l);
                        rsel.push(sel.rsel[i]);
                        any = true;
                    }
                    i += 1;
                }
                if !any {
                    lsel.push(l);
                    rsel.push(crate::rows::NO_ROW);
                }
            }
            Ok(gather(&lsel, Some(&rsel)))
        }
    }
}

/// If `plan` is a filterless scan of an undeleted table and the single
/// key is a plain column reference, that column's catalog entry (whose
/// automatic hash index a join can use as its build table, or probe with
/// a tiny build side's keys).
pub(crate) fn bare_scan_hash_entry(
    plan: &Plan,
    keys: &[BExpr],
    ctx: &ExecContext,
) -> Option<Arc<ColumnEntry>> {
    let Plan::Scan { table, projected, filters, .. } = plan else {
        return None;
    };
    if !filters.is_empty() {
        return None;
    }
    let [BExpr::ColRef { idx, .. }] = keys else {
        return None;
    };
    let meta = ctx.tables.table_meta(table).ok()?;
    if meta.data.deleted.is_some() {
        return None;
    }
    let base = *projected.get(*idx)?;
    meta.data.cols[base].entry().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::PAggFunc;
    use monetlite_storage::catalog::TableData;
    use monetlite_storage::NULL_CODE;
    use monetlite_types::{Field, Schema};
    use std::collections::HashMap;

    struct TestTables {
        tables: HashMap<String, Arc<TableMeta>>,
    }

    impl TableProvider for TestTables {
        fn table_meta(&self, name: &str) -> Result<Arc<TableMeta>> {
            self.tables
                .get(name)
                .cloned()
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
        }
    }

    fn make_table(name: &str, cols: Vec<(&str, Bat)>, ordered: Vec<usize>) -> Arc<TableMeta> {
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
            ordered_cols: ordered,
        })
    }

    fn scan_plan(table: &str, ncols: usize, tys: Vec<LogicalType>) -> Plan {
        Plan::Scan {
            table: table.into(),
            projected: (0..ncols).collect(),
            filters: vec![],
            schema: (0..ncols)
                .map(|i| crate::plan::OutCol { name: format!("c{i}").into(), ty: tys[i] })
                .collect(),
        }
    }

    #[test]
    fn candidate_width_guard() {
        // Candidate lists are u32 row ids: a table past 2^32 physical
        // rows must refuse at scan setup, never truncate silently.
        assert!(check_candidate_width(u32::MAX as usize).is_ok());
        assert!(matches!(
            check_candidate_width(u32::MAX as usize + 1),
            Err(MlError::Unsupported(_))
        ));
    }

    #[test]
    fn scan_without_filters_is_zero_copy() {
        let t = make_table("t", vec![("a", Bat::Int(vec![1, 2, 3]))], vec![]);
        let base = t.data.cols[0].entry().unwrap().bat().unwrap();
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, ExecOptions::default());
        let plan = scan_plan("t", 1, vec![LogicalType::Int]);
        let chunk = execute(&plan, &ctx).unwrap();
        assert!(Arc::ptr_eq(&chunk.cols[0], &base), "unfiltered scan must share the array");
    }

    #[test]
    fn filtered_scan_uses_imprints() {
        let n = 10_000;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))], vec![]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        // One probe per morsel: 65,536-row vectors make it one probe.
        let ctx =
            ExecContext::new(&tables, ExecOptions { vector_size: 64 * 1024, ..Default::default() });
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![BExpr::Cmp {
                op: CmpOp::Lt,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(100))),
            }],
            schema: vec![crate::plan::OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows, 100);
        assert_eq!(ctx.counters.imprint_selects.load(Ordering::Relaxed), 1);
        // Re-run: imprints are cached on the column entry.
        let chunk2 = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk2.rows, 100);
    }

    #[test]
    fn point_select_access_path_precedence() {
        // Distinct keys (a permutation) in `a`, 50 distinct values in `b`.
        let n = 10_000;
        let a = Bat::Int((0..n).map(|i| i * 7919 % n).collect());
        let b = Bat::Int((0..n).map(|i| i % 50).collect());
        let eq = |col: usize, k: i32| Plan::Scan {
            table: "t".into(),
            projected: vec![0, 1],
            filters: vec![BExpr::Cmp {
                op: CmpOp::Eq,
                left: Box::new(BExpr::ColRef { idx: col, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(k))),
            }],
            schema: scan_plan("t", 2, vec![LogicalType::Int; 2]).schema().to_vec(),
        };
        // (ordered columns, hash index on, filtered column) -> the
        // (order, hash, imprint) selects one scan makes.
        let cases = [
            (vec![], true, 0, (0, 1, 0)),
            (vec![], false, 0, (0, 0, 1)),
            (vec![], true, 1, (0, 0, 1)),
            (vec![0], true, 0, (1, 0, 0)),
        ];
        for (ordered, hash, col, want) in cases {
            let t = make_table("t", vec![("a", a.clone()), ("b", b.clone())], ordered.clone());
            let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
            let opts = ExecOptions { use_hash_index: hash, ..Default::default() };
            let ctx = ExecContext::new(&tables, ExecOptions { vector_size: 64 * 1024, ..opts });
            let chunk = execute(&eq(col, 42), &ctx).unwrap();
            assert_eq!(chunk.rows, if col == 0 { 1 } else { n as usize / 50 });
            let c = ctx.counters.snapshot();
            let got = (c.order_index_selects, c.hash_selects, c.imprint_selects);
            assert_eq!(got, want, "ordered {ordered:?}, hash {hash}, column {col}");
        }
    }

    #[test]
    fn order_index_answers_range_select() {
        let t = make_table("t", vec![("a", Bat::Int(vec![5, 1, 9, 3, 7]))], vec![0]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let ctx = ExecContext::new(&tables, ExecOptions::default());
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![BExpr::Cmp {
                op: CmpOp::GtEq,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(5))),
            }],
            schema: vec![crate::plan::OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows, 3);
        assert_eq!(ctx.counters.order_index_selects.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.counters.imprint_selects.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn order_index_answers_each_scan_once_and_each_morsel_by_slice() {
        // 10,000 rows in a scattered order, 1,024-row morsels: every
        // morsel takes the order path and gets exactly its rows in range.
        let n = 10_000;
        let keys: Vec<i32> = (0..n).map(|i| i * 7919 % n).collect();
        let t = make_table("t", vec![("a", Bat::Int(keys.clone()))], vec![0]);
        let entry = t.data.cols[0].entry().unwrap();
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let opts = ExecOptions { vector_size: 1024, threads: 1, ..Default::default() };
        let ctx = ExecContext::new(&tables, opts);
        let range = |lo: i32, hi: i32| Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![
                BExpr::Cmp {
                    op: CmpOp::GtEq,
                    left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    right: Box::new(BExpr::Lit(Value::Int(lo))),
                },
                BExpr::Cmp {
                    op: CmpOp::Lt,
                    left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    right: Box::new(BExpr::Lit(Value::Int(hi))),
                },
            ],
            schema: vec![crate::plan::OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let chunk = execute(&range(2500, 4000), &ctx).unwrap();
        let want: Vec<i32> = keys.iter().copied().filter(|k| (2500..4000).contains(k)).collect();
        let got: Vec<i32> = match chunk.cols[0].as_ref() {
            Bat::Int(v) => v.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(got, want, "rows in scan order");
        let morsels = (n as usize).div_ceil(1024) as u64;
        assert_eq!(ctx.counters.order_index_selects.load(Ordering::Relaxed), morsels);
        // One answer per scan and probe, shared by every morsel.
        let state = ScanState::default();
        let probe = (0, Some(2500), Some(3999));
        let first = state.order_rows(probe, &entry).unwrap();
        assert!(Arc::ptr_eq(&first, &state.order_rows(probe, &entry).unwrap()));
        assert!(first.windows(2).all(|w| w[0] < w[1]), "ascending rows");
        assert_eq!(first.len(), want.len());
        let other = state.order_rows((0, Some(0), Some(9)), &entry).unwrap();
        assert_eq!(other.len(), 10);
    }

    #[test]
    fn deleted_rows_invisible() {
        let t = make_table("t", vec![("a", Bat::Int(vec![1, 2, 3]))], vec![]);
        let deleted = Arc::new(TableMeta {
            id: t.id,
            name: t.name.clone(),
            schema: t.schema.clone(),
            data: t.data.with_deleted(&[1]),
            version: 2,
            ordered_cols: vec![],
        });
        let tables = TestTables { tables: HashMap::from([("t".into(), deleted)]) };
        let ctx = ExecContext::new(&tables, ExecOptions::default());
        let plan = scan_plan("t", 1, vec![LogicalType::Int]);
        let chunk = execute(&plan, &ctx).unwrap();
        assert_eq!(chunk.rows, 2);
        assert_eq!(chunk.cols[0].get(1), Value::Int(3));
    }

    #[test]
    fn mitosis_parallel_agg_matches_sequential() {
        let n = 300_000;
        let vals: Vec<i32> = (0..n).map(|i| (i * 7) % 1000).collect();
        let t = make_table("t", vec![("a", Bat::Int(vals.clone()))], vec![]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let plan = Plan::Aggregate {
            input: Box::new(scan_plan("t", 1, vec![LogicalType::Int])),
            groups: vec![],
            aggs: vec![
                crate::expr::AggSpec {
                    func: PAggFunc::Sum,
                    arg: Some(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    distinct: false,
                    ty: LogicalType::Bigint,
                },
                crate::expr::AggSpec {
                    func: PAggFunc::Median,
                    arg: Some(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    distinct: false,
                    ty: LogicalType::Double,
                },
            ],
            schema: vec![
                crate::plan::OutCol { name: "s".into(), ty: LogicalType::Bigint },
                crate::plan::OutCol { name: "m".into(), ty: LogicalType::Double },
            ],
        };
        // Operator-at-a-time: one morsel over the whole table.
        let seq_ctx = ExecContext::new(
            &tables,
            ExecOptions { mode: ExecMode::Materialized, threads: 1, ..Default::default() },
        );
        let seq = execute(&plan, &seq_ctx).unwrap();
        assert_eq!(seq_ctx.counters.morsels.load(Ordering::Relaxed), 1);
        // Mitosis: the prefix fans out into clamp(300_000 / 10_000, 2, 2·4)
        // slices, whose partial states merge before the blocking median.
        let par_ctx = ExecContext::new(
            &tables,
            ExecOptions {
                mode: ExecMode::Materialized,
                threads: 4,
                vector_size: 10_000,
                ..Default::default()
            },
        );
        let par = execute(&plan, &par_ctx).unwrap();
        assert_eq!(seq.cols[0].get(0), par.cols[0].get(0));
        assert_eq!(seq.cols[1].get(0), par.cols[1].get(0));
        assert_eq!(par_ctx.counters.morsels.load(Ordering::Relaxed), 8);
        // The streaming policy agrees, one morsel per vector.
        let stream_ctx = ExecContext::new(
            &tables,
            ExecOptions { threads: 4, vector_size: 10_000, ..Default::default() },
        );
        let stream = execute(&plan, &stream_ctx).unwrap();
        assert_eq!(seq.cols[0].get(0), stream.cols[0].get(0));
        assert_eq!(seq.cols[1].get(0), stream.cols[1].get(0));
        assert_eq!(stream_ctx.counters.morsels.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn pack_of_gathers_from_one_heap_keeps_that_heap() {
        use monetlite_storage::heap::StringHeap;
        let heap_of = |b: &Bat| match b {
            Bat::Varchar { heap, .. } => heap.clone(),
            _ => panic!("varchar expected"),
        };
        // A table column whose heap deduplicates nothing: re-interning a
        // later chunk into a clone of it would copy the whole heap.
        let table = |tag: &str| {
            let mut b = Bat::Varchar { offsets: Vec::new(), heap: StringHeap::with_dedup_limit(0) };
            for i in 0..300 {
                let v = match i % 10 {
                    0 => Value::Null,
                    1 => Value::Str(String::new()),
                    _ => Value::Str(format!("{tag}-{i}-\u{e9}\u{1f600}")),
                };
                b.push(&v).unwrap();
            }
            b
        };
        let (t1, t2) = (table("one"), table("two"));
        let size = heap_of(&t1).size_bytes();
        let gathered =
            |t: &Bat, rows: Vec<u32>| Chunk::dense(vec![Arc::new(t.take(&rows))], rows.len());
        let parts = || {
            vec![
                gathered(&t1, (0..40).rev().collect()),
                gathered(&t1, vec![]),
                // A candidate list over the table itself, materialised by pack.
                Chunk {
                    cols: vec![Arc::new(t1.clone())],
                    rows: 3,
                    sel: Some(Arc::new(vec![5, 10, 299])),
                },
                gathered(&t1, vec![7, 7, 0, 1, 11]),
            ]
        };
        // The concatenation re-interned row by row into a fresh column.
        let reinterned = |chunks: Vec<Chunk>| {
            let mut out = Bat::new(LogicalType::Varchar);
            for c in chunks.into_iter().map(Chunk::materialize) {
                for i in 0..c.rows {
                    out.push(&c.cols[0].get(i)).unwrap();
                }
            }
            out
        };
        let packed = Chunk::pack(parts()).unwrap();
        assert_eq!(packed.rows, 48);
        let out = &packed.cols[0];
        assert!(
            heap_of(out).shares_buffer_with(&heap_of(&t1)),
            "one source heap: shared, not copied"
        );
        assert_eq!(heap_of(out).size_bytes(), size);
        assert_eq!(out.to_buffer(None), reinterned(parts()).to_buffer(None));
        // Chunks of two different heaps: the later ones re-intern, into a
        // copy, and neither source heap changes.
        let mixed = || vec![gathered(&t1, vec![2, 3, 0]), gathered(&t2, vec![4, 0, 2, 1])];
        let packed = Chunk::pack(mixed()).unwrap();
        let out = &packed.cols[0];
        assert!(!heap_of(out).shares_buffer_with(&heap_of(&t1)));
        assert!(!heap_of(out).shares_buffer_with(&heap_of(&t2)));
        assert_eq!(out.to_buffer(None), reinterned(mixed()).to_buffer(None));
        assert_eq!((heap_of(&t1).size_bytes(), heap_of(&t2).size_bytes()), (size, size));
    }

    #[test]
    fn mitosis_pipeline_pack_preserves_order() {
        let n = 200_000u32;
        let t = make_table("t", vec![("a", Bat::Int((0..n as i32).collect()))], vec![]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let plan = Plan::Filter {
            input: Box::new(scan_plan("t", 1, vec![LogicalType::Int])),
            pred: BExpr::Cmp {
                op: CmpOp::Eq,
                left: Box::new(BExpr::Arith {
                    op: crate::expr::ArithOp::Mod,
                    left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                    right: Box::new(BExpr::Lit(Value::Int(1000))),
                    ty: LogicalType::Int,
                }),
                right: Box::new(BExpr::Lit(Value::Int(0))),
            },
        };
        let par_ctx = ExecContext::new(
            &tables,
            ExecOptions {
                mode: ExecMode::Materialized,
                threads: 4,
                vector_size: 10_000,
                ..Default::default()
            },
        );
        let out = execute(&plan, &par_ctx).unwrap();
        assert_eq!(out.rows, 200);
        assert_eq!(par_ctx.counters.morsels.load(Ordering::Relaxed), 8);
        // Packed in scan order.
        assert_eq!(out.cols[0].get(0), Value::Int(0));
        assert_eq!(out.cols[0].get(1), Value::Int(1000));
        assert_eq!(out.cols[0].get(199), Value::Int(199_000));
    }

    #[test]
    fn timeout_fires() {
        let n = 500_000;
        let t = make_table("t", vec![("a", Bat::Int((0..n).collect()))], vec![]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let mut opts = ExecOptions { timeout: Some(Duration::from_nanos(1)), ..Default::default() };
        opts.use_imprints = false;
        let ctx = ExecContext::new(&tables, opts);
        std::thread::sleep(Duration::from_millis(2));
        let plan = scan_plan("t", 1, vec![LogicalType::Int]);
        assert!(matches!(execute(&plan, &ctx), Err(MlError::Timeout { .. })));
    }

    #[test]
    fn join_uses_auto_hash_index() {
        let probe = make_table("probe", vec![("k", Bat::Int(vec![1, 2, 3, 2]))], vec![]);
        let build = make_table(
            "build",
            vec![("k", Bat::Int(vec![2, 3])), ("v", Bat::Int(vec![20, 30]))],
            vec![],
        );
        let tables = TestTables {
            tables: HashMap::from([("probe".into(), probe), ("build".into(), build)]),
        };
        let ctx = ExecContext::new(&tables, ExecOptions::default());
        let plan = Plan::Join {
            left: Box::new(scan_plan("probe", 1, vec![LogicalType::Int])),
            right: Box::new(scan_plan("build", 2, vec![LogicalType::Int, LogicalType::Int])),
            kind: PJoinKind::Inner,
            left_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            right_keys: vec![BExpr::ColRef { idx: 0, ty: LogicalType::Int }],
            residual: None,
            schema: vec![
                crate::plan::OutCol { name: "k".into(), ty: LogicalType::Int },
                crate::plan::OutCol { name: "k2".into(), ty: LogicalType::Int },
                crate::plan::OutCol { name: "v".into(), ty: LogicalType::Int },
            ],
        };
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows, 3);
        assert_eq!(ctx.counters.hash_index_joins.load(Ordering::Relaxed), 1);
        // Disable the flag: same answer, no index.
        let ctx2 =
            ExecContext::new(&tables, ExecOptions { use_hash_index: false, ..Default::default() });
        let out2 = execute(&plan, &ctx2).unwrap();
        assert_eq!(out2.rows, 3);
        assert_eq!(ctx2.counters.hash_index_joins.load(Ordering::Relaxed), 0);
    }

    // -- dictionary predicate compilation ----------------------------------

    fn sdict(vals: &[Option<&str>]) -> StrDict {
        let mut b = Bat::new(LogicalType::Varchar);
        for v in vals {
            let val = match v {
                Some(s) => Value::Str((*s).to_string()),
                None => Value::Null,
            };
            b.push(&val).unwrap();
        }
        StrDict::build(&b).expect("varchar bat builds a dict")
    }

    fn vcol() -> Box<BExpr> {
        Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Varchar })
    }

    fn slit(s: &str) -> Box<BExpr> {
        Box::new(BExpr::Lit(Value::Str(s.to_string())))
    }

    fn cmp(op: CmpOp, lit: &str) -> BExpr {
        BExpr::Cmp { op, left: vcol(), right: slit(lit) }
    }

    fn like(pattern: &str, negated: bool) -> BExpr {
        BExpr::Like { input: vcol(), pattern: pattern.to_string(), negated }
    }

    #[test]
    fn dict_pred_compiles_comparisons_to_code_ranges() {
        // Sorted dictionary: apple=0, banana=1, cherry=2.
        let d = sdict(&[Some("banana"), Some("apple"), None, Some("cherry"), Some("banana")]);
        assert_eq!(d.len(), 3);
        let p = |f: &BExpr| dict_pred_of(f, &d, 1024);
        assert_eq!(p(&cmp(CmpOp::Eq, "banana")), Some(DictPred::Range(1, 2)));
        // An absent literal is an empty range at its insertion point.
        assert_eq!(p(&cmp(CmpOp::Eq, "durian")), Some(DictPred::Range(3, 3)));
        assert_eq!(p(&cmp(CmpOp::Lt, "banana")), Some(DictPred::Range(0, 1)));
        assert_eq!(p(&cmp(CmpOp::LtEq, "banana")), Some(DictPred::Range(0, 2)));
        assert_eq!(p(&cmp(CmpOp::Gt, "banana")), Some(DictPred::Range(2, 3)));
        assert_eq!(p(&cmp(CmpOp::GtEq, "banana")), Some(DictPred::Range(1, 3)));
        // Bounds between entries (literal absent from the dictionary).
        assert_eq!(p(&cmp(CmpOp::Gt, "azzz")), Some(DictPred::Range(1, 3)));
        assert_eq!(p(&cmp(CmpOp::Lt, "azzz")), Some(DictPred::Range(0, 1)));
        // Flipped literal-first form takes the mirrored operator:
        // 'banana' < #0  ≡  #0 > 'banana'.
        let flipped = BExpr::Cmp { op: CmpOp::Lt, left: slit("banana"), right: vcol() };
        assert_eq!(p(&flipped), Some(DictPred::Range(2, 3)));
        // Comparison with NULL selects nothing.
        let null_cmp =
            BExpr::Cmp { op: CmpOp::Eq, left: vcol(), right: Box::new(BExpr::Lit(Value::Null)) };
        assert_eq!(p(&null_cmp), Some(DictPred::Range(0, 0)));
        // `<>` is no range: the general rule evaluates it per value.
        assert_eq!(p(&cmp(CmpOp::NotEq, "banana")), Some(DictPred::Mask(vec![true, false, true])));
    }

    #[test]
    fn dict_pred_compiles_like_plans() {
        // ba=0, band=1, bandana=2, banjo=3, cap=4.
        let d = sdict(&[Some("banjo"), Some("band"), Some("cap"), Some("bandana"), Some("ba")]);
        let p = |f: &BExpr| dict_pred_of(f, &d, 1024);
        // Exact plan (no wildcards) is an equality range.
        assert_eq!(p(&like("band", false)), Some(DictPred::Range(1, 2)));
        // Prefix plan is the dictionary prefix range.
        assert_eq!(p(&like("ban%", false)), Some(DictPred::Range(1, 4)));
        // Generic/suffix/negated plans evaluate once per distinct value,
        // like every other filter over the column alone.
        assert_eq!(
            p(&like("%and%", false)),
            Some(DictPred::Mask(vec![false, true, true, false, false]))
        );
        assert_eq!(
            p(&like("ban%", true)),
            Some(DictPred::Mask(vec![true, false, false, false, true]))
        );
        assert_eq!(
            p(&like("b_n%", false)),
            Some(DictPred::Mask(vec![false, true, true, true, false]))
        );
    }

    #[test]
    fn dict_pred_mask_shapes_respect_the_compile_cost_guard() {
        let d = sdict(&[Some("a"), Some("b"), Some("c"), Some("d")]);
        // Mask-shaped plans cost O(|dict|): skipped unless the scan
        // filters at least eight rows per dictionary value...
        assert_eq!(dict_pred_of(&cmp(CmpOp::NotEq, "b"), &d, 31), None);
        assert_eq!(dict_pred_of(&like("%x%", false), &d, 31), None);
        assert!(dict_pred_of(&like("%x%", false), &d, 32).is_some());
        // ...but range-shaped plans compile in O(log d) regardless.
        assert!(dict_pred_of(&cmp(CmpOp::Lt, "c"), &d, 3).is_some());
        assert!(dict_pred_of(&like("b%", false), &d, 3).is_some());
    }

    #[test]
    fn dict_pred_general_rule_serves_trees_but_not_null_true_or_erroring_filters() {
        // ba=0, cap=1, 12=2.
        let d = sdict(&[Some("cap"), None, Some("ba"), Some("12")]);
        let p = |f: &BExpr| dict_pred_of(f, &d, 1024);
        let or = BExpr::Or(Box::new(cmp(CmpOp::Eq, "ba")), Box::new(like("c%", false)));
        assert_eq!(p(&or), Some(DictPred::Mask(vec![false, true, true])));
        let not = BExpr::Not(Box::new(or));
        assert_eq!(p(&not), Some(DictPred::Mask(vec![true, false, false])));
        // True on the NULL row: NULL_CODE rows would be lost.
        let is_null = BExpr::IsNull { input: vcol(), negated: false };
        assert_eq!(p(&is_null), None);
        let coalesce = BExpr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(BExpr::Func {
                func: crate::expr::ScalarFunc::Upper,
                args: vec![BExpr::Case {
                    branches: vec![(BExpr::IsNull { input: vcol(), negated: false }, *slit("x"))],
                    else_expr: Some(vcol()),
                    ty: LogicalType::Varchar,
                }],
                ty: LogicalType::Varchar,
            }),
            right: slit("X"),
        };
        assert_eq!(p(&coalesce), None);
        // An error on any value ('ba' is no date) falls back to the row
        // kernels silently.
        let cast = BExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(BExpr::Cast { input: vcol(), ty: LogicalType::Date }),
            right: Box::new(BExpr::Lit(Value::Date(monetlite_types::Date(0)))),
        };
        assert_eq!(p(&cast), None);
    }

    #[test]
    fn dict_pred_null_code_never_matches_and_zone_bounds_prune() {
        // The rows of `codes` a predicate keeps, narrowing no list and a
        // full one alike.
        let kept = |p: &DictPred, codes: &[u32]| {
            let all = p.narrow(codes, None);
            assert_eq!(all, p.narrow(codes, Some((0..codes.len() as u32).collect())));
            all
        };
        let full = DictPred::Range(0, u32::MAX);
        assert_eq!(kept(&full, &[NULL_CODE, 0]), [1], "NULL rows must not match any predicate");
        let r = DictPred::Range(2, 5);
        assert_eq!(kept(&r, &[2, 4, 5, 1, NULL_CODE, 3]), [0, 1, 5]);
        assert_eq!(r.narrow(&[2, 4, 5, 1], Some(vec![1, 2, 3])), [1]);
        assert!(r.zone_may_match(0, 2) && r.zone_may_match(4, 9) && r.zone_may_match(0, 9));
        assert!(!r.zone_may_match(0, 1) && !r.zone_may_match(5, 9));
        let m = DictPred::Mask(vec![false, true, false]);
        assert_eq!(kept(&m, &[1, 0, 2, NULL_CODE, 1]), [0, 4]);
        assert_eq!(kept(&m, &[999]), [] as [u32; 0], "codes past the mask never match");
        assert!(m.zone_may_match(0, 1) && m.zone_may_match(1, 2) && !m.zone_may_match(2, 2));
        assert!(!DictPred::Range(3, 3).zone_may_match(0, 9), "an empty range prunes every zone");
    }

    #[test]
    fn dict_filter_col_is_one_varchar_column_and_no_parameter() {
        assert_eq!(dict_filter_col(&cmp(CmpOp::Eq, "x")), Some(0));
        assert_eq!(dict_filter_col(&like("x%", true)), Some(0));
        // Any tree over the one column qualifies, a self-comparison too.
        let col_col = BExpr::Cmp { op: CmpOp::Eq, left: vcol(), right: vcol() };
        assert_eq!(dict_filter_col(&col_col), Some(0));
        let or = BExpr::Or(Box::new(cmp(CmpOp::Eq, "x")), Box::new(like("%y", false)));
        assert_eq!(dict_filter_col(&BExpr::Not(Box::new(or))), Some(0));
        // Non-VARCHAR columns, two columns, no column, or a parameter don't.
        let int_cmp = BExpr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
            right: Box::new(BExpr::Lit(Value::Int(1))),
        };
        assert_eq!(dict_filter_col(&int_cmp), None);
        let other = Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Varchar });
        assert_eq!(
            dict_filter_col(&BExpr::Cmp { op: CmpOp::Lt, left: vcol(), right: other }),
            None
        );
        assert_eq!(dict_filter_col(&BExpr::Lit(Value::Bool(true))), None);
        let param = BExpr::Param { idx: 0, value: Value::Str("x".into()) };
        let with_param = BExpr::Cmp { op: CmpOp::Eq, left: vcol(), right: Box::new(param) };
        assert_eq!(dict_filter_col(&with_param), None);
    }

    /// A dictionary predicate or a bloom that rejects every candidate
    /// leaves an empty, typed chunk, whether it narrows an existing list
    /// or starts one.
    #[test]
    fn a_dictionary_predicate_or_a_bloom_can_empty_the_candidate_list() {
        use monetlite_types::ColumnBuffer;
        // 'q' only in the last row: the dictionary's zone bounds over any
        // earlier rows admit `s = 'q'`, and none of those rows holds it.
        let n = 64u32;
        let strs: Vec<Option<String>> = (0..n)
            .map(|i| match i {
                _ if i == n - 1 => Some("q".into()),
                _ if i % 3 == 2 => None,
                _ if i % 2 == 0 => Some("p".into()),
                _ => Some("r".into()),
            })
            .collect();
        let ints = Bat::Int((0..n as i32).collect());
        let s = Bat::from_buffer(&ColumnBuffer::Varchar(strs));
        let t = make_table("t", vec![("a", ints), ("s", s)], vec![]);
        let tables = TestTables { tables: HashMap::from([("t".into(), t)]) };
        let opts = ExecOptions { use_dict: true, ..Default::default() };
        let ctx = ExecContext::new(&tables, opts);
        let col = |idx, ty| Box::new(BExpr::ColRef { idx, ty });
        let is_q = BExpr::Cmp {
            op: CmpOp::Eq,
            left: col(1, LogicalType::Varchar),
            right: Box::new(BExpr::Lit(Value::Str("q".into()))),
        };
        let a_from_10 = BExpr::Cmp {
            op: CmpOp::GtEq,
            left: col(0, LogicalType::Int),
            right: Box::new(BExpr::Lit(Value::Int(10))),
        };
        let scan = |filters: &[BExpr], range, blooms: &[(usize, Arc<Bloom>)]| {
            let state = ScanState::default();
            exec_scan("t", &[0, 1], 2, filters, &ctx, range, &state, blooms, &[]).unwrap()
        };
        let empty = |c: &Chunk| {
            c.rows == 0
                && c.positions().is_none_or(<[u32]>::is_empty)
                && c.cols
                    .iter()
                    .map(|b| b.logical_type())
                    .eq([LogicalType::Int, LogicalType::Varchar])
        };
        // The dictionary empties a range's list; the whole table keeps 'q'.
        for filters in [vec![is_q.clone()], vec![a_from_10.clone(), is_q.clone()]] {
            for range in [Some((0, n - 1)), Some((20, n - 1))] {
                assert!(empty(&scan(&filters, range, &[])), "{filters:?} over {range:?}");
            }
            assert_eq!(scan(&filters, None, &[]).materialize().cols[0].get(0), Value::Int(63));
        }
        assert!(ctx.counters.dict_hits.load(Ordering::Relaxed) > 0, "the dictionary served");
        // A bloom holding no key prunes every row it sees: starting from no
        // list (the whole table), from a range, and narrowing a filter's.
        let blooms = [(0, Arc::new(Bloom::with_capacity(1)))];
        let pruned = || ctx.counters.bloom_pruned.load(Ordering::Relaxed);
        for (filters, range, rows) in [
            (vec![], None, n),
            (vec![], Some((8, 40)), 32),
            (vec![a_from_10.clone()], None, n - 10),
            (vec![a_from_10], Some((8, 40)), 30),
        ] {
            let before = pruned();
            assert!(empty(&scan(&filters, range, &blooms)), "{filters:?} over {range:?}");
            assert_eq!(pruned() - before, rows as u64, "{filters:?} over {range:?}");
        }
    }

    /// Two columns of `ty` and two constants from seeds, over small
    /// tables of edge values: NULL, zero, ±1, `-0.0` beside `0.0`, and
    /// multi-byte strings ('ß'-prefixed ones are NULL). A pick of 0 is a
    /// NULL constant.
    fn refine_fixture(
        ty: LogicalType,
        seeds: &[u8],
        strs: &[String],
        picks: (usize, usize),
    ) -> (Bat, Bat, Value, Value) {
        use monetlite_types::nulls::{NULL_I32, NULL_I64};
        use monetlite_types::{ColumnBuffer, Date, Decimal};
        let ints = [NULL_I32, 0, 1, -1, 7, -7, 3, 1];
        let bigs = [NULL_I64, 0, 1, -1, 7, -7, i64::MAX, i64::MIN + 1];
        let dbls = [f64::NAN, 0.0, -0.0, 1.5, -2.0, 7.0, f64::MAX, 1.5];
        let decs = [NULL_I64, 0, 1, -1, 150, -150, 700, 1];
        let other: Vec<u8> = seeds.iter().map(|s| s.wrapping_mul(7).wrapping_add(3)).collect();
        let at = |s: &u8| *s as usize % 8;
        macro_rules! fixture {
            ($table:expr, $bat:expr, $val:expr) => {{
                let col = |seeds: &[u8]| $bat(seeds.iter().map(|s| $table[at(s)]).collect());
                let k = |i: usize| if i == 0 { Value::Null } else { $val($table[i]) };
                (col(seeds), col(&other), k(picks.0), k(picks.1))
            }};
        }
        match ty {
            LogicalType::Int => fixture!(ints, Bat::Int, Value::Int),
            LogicalType::Date => fixture!(ints, Bat::Date, |d| Value::Date(Date(d))),
            LogicalType::Bigint => fixture!(bigs, Bat::Bigint, Value::Bigint),
            LogicalType::Double => fixture!(dbls, Bat::Double, Value::Double),
            LogicalType::Varchar => {
                let opt = |s: &String| (!s.starts_with('ß')).then(|| s.clone());
                let text = |v: Vec<Option<String>>| Bat::from_buffer(&ColumnBuffer::Varchar(v));
                let n = seeds.len();
                let k = |i: usize| match opt(&strs[i]) {
                    Some(s) if i > 0 => Value::Str(s),
                    _ => Value::Null,
                };
                let (fwd, rev) = (strs[..n].iter().map(opt), strs[..n].iter().rev().map(opt));
                (text(fwd.collect()), text(rev.collect()), k(picks.0), k(picks.1))
            }
            _ => fixture!(decs, |data| Bat::Decimal { data, scale: 2 }, |raw| {
                Value::Decimal(Decimal::new(raw, 2))
            }),
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_refine_selects_where_eval_is_true(
            seeds in proptest::collection::vec(0u8..255, 0..40),
            strs in proptest::collection::vec("[aé€😀ß]{0,3}", 40..41),
            picks in proptest::collection::vec(0usize..40, 0..24),
            kpick in 0usize..8,
        ) {
            // The selecting evaluator agrees with the dense one: `refine`
            // is the positions at which `eval` is TRUE, mapped through
            // `sel`, for every comparison operator and type against a
            // constant, a column and a NULL constant; AND chains; IN
            // lists over a bare and a computed operand with NULL and
            // duplicate items; LIKE; and no, some and no positions. Where
            // `eval` errs, `refine` may answer (AND narrows what its
            // right side sees), but never errs where `eval` answers.
            use crate::expr::ScalarFunc;
            use proptest::prop_assert_eq;
            use LogicalType as T;
            let n = seeds.len();
            let dec = T::Decimal { width: 18, scale: 2 };
            let bx = Box::new;
            let col = |idx: usize, ty| BExpr::ColRef { idx, ty };
            let lit = |v: &Value| BExpr::Lit(v.clone());
            let cmp = |op, l: &BExpr, r: &BExpr| {
                BExpr::Cmp { op, left: bx(l.clone()), right: bx(r.clone()) }
            };
            let any = |es: Vec<BExpr>| {
                es.into_iter().reduce(|a, b| BExpr::Or(bx(a), bx(b))).unwrap()
            };
            let mut cols = Vec::new();
            let mut exprs = Vec::new();
            let mut null_consts = Vec::new();
            for ty in [T::Int, T::Bigint, T::Date, T::Double, dec, T::Varchar] {
                let (c0, c1, k, k2) = refine_fixture(ty, &seeds, &strs, (kpick, (kpick + 3) % 8));
                let (c0, c1) = {
                    let i = cols.len();
                    cols.extend([Arc::new(c0), Arc::new(c1)]);
                    (col(i, ty), col(i + 1, ty))
                };
                // A computed operand of the column's own type.
                let computed = match ty {
                    T::Varchar => {
                        BExpr::Func { func: ScalarFunc::Upper, args: vec![c0.clone()], ty }
                    }
                    T::Date => BExpr::Func {
                        func: ScalarFunc::AddDays,
                        args: vec![c0.clone(), BExpr::Lit(Value::Int(1))],
                        ty,
                    },
                    _ => BExpr::Neg { input: bx(c0.clone()), ty },
                };
                use CmpOp::*;
                for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                    exprs.extend([
                        cmp(op, &c0, &lit(&k)),
                        cmp(op, &lit(&k), &c0),
                        cmp(op, &c0, &c1),
                        cmp(op, &computed, &lit(&k)),
                        cmp(op, &computed, &c1),
                    ]);
                    null_consts.push(cmp(op, &c0, &lit(&Value::Null)));
                    null_consts.push(cmp(op, &lit(&Value::Null), &computed));
                }
                // IN lists: duplicate and NULL items, over a bare and a
                // computed operand, and negated; and OR chains that are
                // not IN lists (two operands; an equality beside `<`).
                for operand in [&c0, &computed] {
                    for items in [vec![&k, &k2], vec![&k, &k2, &k, &Value::Null]] {
                        let list = any(items.iter().map(|v| cmp(Eq, operand, &lit(v))).collect());
                        exprs.push(BExpr::Not(bx(list.clone())));
                        exprs.push(list);
                    }
                }
                exprs.push(any(vec![cmp(Eq, &c0, &lit(&k)), cmp(Eq, &c1, &lit(&k))]));
                exprs.push(any(vec![cmp(Eq, &c0, &lit(&k)), cmp(Lt, &c0, &lit(&k2))]));
                // AND chains: narrowing twice, and around an IN list.
                let in_list = any(vec![cmp(Eq, &c1, &lit(&k)), cmp(Eq, &c1, &lit(&k2))]);
                exprs.push(BExpr::And(
                    bx(cmp(GtEq, &c0, &lit(&k2))),
                    bx(BExpr::And(bx(cmp(NotEq, &c0, &c1)), bx(in_list))),
                ));
                let c1_known = BExpr::IsNull { input: bx(c1.clone()), negated: true };
                exprs.push(BExpr::And(bx(c1_known), bx(cmp(Lt, &computed, &lit(&k)))));
                if ty == T::Varchar {
                    for pattern in ["%", "a%", "%é%", "_%"] {
                        for negated in [false, true] {
                            let input = bx(c0.clone());
                            exprs.push(BExpr::Like { input, pattern: pattern.into(), negated });
                        }
                    }
                }
            }
            // A chain across types: INT compare AND a VARCHAR IN list.
            let (iv, sv) = (col(0, T::Int), col(10, T::Varchar));
            let item = |s: &str| cmp(CmpOp::Eq, &sv, &lit(&Value::Str(s.into())));
            let strs_in = any(vec![item("a"), item("é€")]);
            exprs.push(BExpr::And(bx(cmp(CmpOp::Gt, &iv, &lit(&Value::Int(0)))), bx(strs_in)));
            exprs.extend(null_consts.iter().cloned());
            let picked: Vec<u32> = picks.into_iter().filter(|&p| p < n).map(|p| p as u32).collect();
            for sel in [None, Some(picked.as_slice()), Some(&[][..])] {
                for e in &exprs {
                    let got = refine(e, &cols, n, sel);
                    // Where `eval` errs, narrowing may spare `refine` the
                    // failing rows.
                    if let Ok(mask) = eval(e, &cols, n, sel) {
                        let want: Vec<u32> = (0..mask.len())
                            .filter(|&i| mask.get(i) == Value::Bool(true))
                            .map(|i| sel.map_or(i as u32, |sel| sel[i]))
                            .collect();
                        prop_assert_eq!(got.unwrap(), want, "{:?} at {:?}", e, sel);
                    }
                }
                // A NULL constant selects nothing, whatever the type.
                for e in &null_consts {
                    let got = refine(e, &cols, n, sel).unwrap();
                    prop_assert_eq!(got, Vec::<u32>::new(), "{:?}", e);
                }
            }
        }
    }
}
