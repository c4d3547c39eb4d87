//! # monetlite — an embedded analytical database
//!
//! A Rust reproduction of **MonetDBLite** (Raasveldt & Mühleisen, CIKM'18):
//! an in-process, columnar, OLAP-oriented database with zero-copy data
//! transfer to the host "analytical environment".
//!
//! ```
//! use monetlite::Database;
//!
//! let db = Database::open_in_memory();          // monetdb_startup(NULL)
//! let mut conn = db.connect();                  // monetdb_connect()
//! conn.execute("CREATE TABLE t (a INT, b VARCHAR(10))").unwrap();
//! conn.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
//! let result = conn.query("SELECT a, b FROM t WHERE a > 1").unwrap();
//! assert_eq!(result.nrows(), 1);
//! ```
//!
//! Architecture (paper §3):
//! * [`monetlite_storage`] — BAT columns, string heaps with duplicate
//!   elimination, vmem paging, WAL, optimistic-concurrency catalog.
//! * [`bind`] / [`plan`] / [`opt`] — SQL → relational algebra → optimized
//!   plan (filter/projection push-down, join ordering, decorrelation).
//! * [`pipeline`] — the one executor: plans cut at pipeline breakers run
//!   morsel by morsel, vector-at-a-time (streaming) or operator-at-a-time
//!   with mitosis (the paper's model), as [`exec::ExecMode`] chooses.
//! * [`exec`] — execution options and counters, candidate-list chunks,
//!   and scans served by automatic indexes (imprints, hash tables, order
//!   index), zonemaps and string dictionaries.
//! * [`mal`] — EXPLAIN rendering in MAL form.
//! * [`host`] — the embedding boundary: zero-copy, eager and lazy result
//!   transfer into host-native arrays (§3.3).

#![forbid(unsafe_code)]

pub mod agg;
pub mod bind;
pub mod bloom;
pub mod exec;
pub mod expr;
pub mod host;
pub mod join;
pub mod kernels;
pub mod mal;
pub mod opt;
pub mod pipeline;
pub mod plan;
pub mod plan_cache;
pub mod result_cache;
pub mod rows;
pub mod sort;
pub mod spill;
pub mod testing;

use bind::{Binder, CatalogAccess, ViewDef};
use exec::{ExecContext, ExecOptions, TableProvider};
use monetlite_sql::ast;
use monetlite_storage::catalog::{CatalogSnapshot, TableMeta};
use monetlite_storage::store::{Store, StoreOptions, TxWrites};
use monetlite_storage::wal::WalRecord;
use monetlite_storage::Bat;
use monetlite_types::{ColumnBuffer, Field, LogicalType, MlError, Result, Schema, Value};
use opt::OptFlags;
use plan_cache::{CacheKey, Fingerprint, PlanCache, PlanEntry, Skeleton, StmtMemo};
use result_cache::{ResultCache, ResultEntry};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use exec::Chunk;
pub use monetlite_storage as storage;
pub use monetlite_storage::VmemStats;
pub use monetlite_types as types;

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Database directory (None = in-memory; paper §3.2: "If no directory
    /// is provided, MonetDBLite will be launched in an in-memory only
    /// mode").
    pub path: Option<PathBuf>,
    /// vmem resident budget (simulated OS memory for column data).
    pub vmem_budget: usize,
    /// WAL bytes triggering auto-checkpoint.
    pub wal_autocheckpoint: u64,
    /// Execution defaults for new connections.
    pub exec: ExecOptions,
    /// Optimizer switches.
    pub opt_flags: OptFlags,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            path: None,
            vmem_budget: usize::MAX,
            wal_autocheckpoint: 64 << 20,
            exec: ExecOptions::default(),
            opt_flags: OptFlags::default(),
        }
    }
}

/// An embedded database instance (the `monetdb_startup` handle). Unlike
/// the original MonetDBLite — whose global state limited it to one
/// database per process (paper §3.4/§5) — any number of `Database` values
/// can coexist.
pub struct Database {
    store: Arc<Store>,
    opts: DbOptions,
    /// View definitions, shared by every connection. Views live for the
    /// database handle's lifetime (they are not checkpointed) and apply
    /// immediately — CREATE/DROP VIEW are not transactional.
    views: Arc<std::sync::Mutex<Arc<HashMap<String, ViewDef>>>>,
    /// Monotone counter bumped on every view-catalog change; part of
    /// every cache key, so view DDL invalidates by moving the key space
    /// rather than by scanning entries. Bumped under the `views` lock.
    views_epoch: Arc<AtomicU64>,
    /// Shared optimized-plan templates (`monetdb_query`'s repeated
    /// parameterized statements skip parse/bind/optimize on a hit).
    plan_cache: Arc<PlanCache>,
    /// Shared result sets for identical read-only statements.
    result_cache: Arc<ResultCache>,
}

impl Database {
    /// In-memory database: nothing is persisted, everything is discarded
    /// on drop.
    pub fn open_in_memory() -> Database {
        Database {
            store: Arc::new(Store::in_memory()),
            opts: DbOptions::default(),
            views: Arc::default(),
            views_epoch: Arc::default(),
            plan_cache: Arc::default(),
            result_cache: Arc::default(),
        }
    }

    /// Open (or create) a persistent database in `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(DbOptions { path: Some(dir.as_ref().to_path_buf()), ..Default::default() })
    }

    /// Open with full configuration.
    pub fn open_with(opts: DbOptions) -> Result<Database> {
        let store = Arc::new(Store::open(StoreOptions {
            path: opts.path.clone(),
            vmem_budget: opts.vmem_budget,
            wal_autocheckpoint: opts.wal_autocheckpoint,
        })?);
        Ok(Database {
            store,
            opts,
            views: Arc::default(),
            views_epoch: Arc::default(),
            plan_cache: Arc::default(),
            result_cache: Arc::default(),
        })
    }

    /// Create a connection ("dummy clients that only hold a query context",
    /// §3.2). Connections are independent and provide transaction
    /// isolation between each other.
    pub fn connect(&self) -> Connection {
        let stats_mode = opt::StatsMode::Real;
        Connection {
            store: self.store.clone(),
            exec_opts: self.opts.exec,
            opt_flags: self.opts.opt_flags,
            stats_mode,
            fingerprint: Fingerprint::new(self.opts.opt_flags, stats_mode, &self.opts.exec),
            txn: None,
            last: None,
            db_views: self.views.clone(),
            views_epoch: self.views_epoch.clone(),
            plan_cache: self.plan_cache.clone(),
            result_cache: self.result_cache.clone(),
            interrupt: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// The shared plan cache (tests / benches).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The shared result cache (tests / benches).
    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.result_cache
    }

    /// Force a checkpoint (columns to disk, WAL truncated).
    pub fn checkpoint(&self) -> Result<()> {
        self.store.checkpoint()
    }

    /// Paging statistics of the vmem simulation.
    pub fn vmem_stats(&self) -> VmemStats {
        self.store.vmem().stats()
    }

    /// The underlying store (tests / benches).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }
}

// ---------------------------------------------------------------------------
// Query results
// ---------------------------------------------------------------------------

/// A columnar query result (the `monetdb_result` object of §3.2).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Header, shared with the result cache's copy of this result.
    names: Arc<[String]>,
    types: Arc<[LogicalType]>,
    cols: Vec<Arc<Bat>>,
    rows: usize,
    rows_affected: u64,
}

impl QueryResult {
    fn empty(rows_affected: u64) -> QueryResult {
        QueryResult {
            names: Arc::default(),
            types: Arc::default(),
            cols: vec![],
            rows: 0,
            rows_affected,
        }
    }

    /// Number of result rows (`nrows`).
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of result columns (`ncols`).
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Rows affected by DML (0 for queries).
    pub fn rows_affected(&self) -> u64 {
        self.rows_affected
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column types.
    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Low-level fetch (§3.2): the underlying column structure without any
    /// conversion — an `Arc` clone, O(1), never copies data.
    pub fn col_shared(&self, i: usize) -> Arc<Bat> {
        self.cols[i].clone()
    }

    /// Cell access as a dynamic value (spot checks, wire protocol).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].get(row)
    }

    /// High-level fetch (§3.2): convert every column into the simple host
    /// buffer representation (always copies).
    pub fn to_buffers(&self) -> Vec<ColumnBuffer> {
        self.cols.iter().map(|c| c.to_buffer(None)).collect()
    }

    /// One row as values (tests).
    pub fn row(&self, r: usize) -> Vec<Value> {
        (0..self.ncols()).map(|c| self.value(r, c)).collect()
    }
}

// ---------------------------------------------------------------------------
// Connections and transactions
// ---------------------------------------------------------------------------

struct ActiveTxn {
    /// The catalog snapshot this transaction reads (snapshot isolation).
    base: Arc<CatalogSnapshot>,
    /// Effective table map once this transaction has written: a copy of
    /// the snapshot's, made at the first write. Until then statements
    /// read the snapshot's map, so a read-only statement copies nothing.
    own_tables: Option<HashMap<String, Arc<TableMeta>>>,
    /// Writes to submit at commit.
    writes: TxWrites,
    /// Temp id allocator for in-transaction creates.
    next_temp_id: u64,
    /// Started by explicit BEGIN (vs autocommit wrapper).
    explicit: bool,
    /// View definitions visible to this transaction (snapshot taken at
    /// txn start; CREATE/DROP VIEW update it immediately). Shared with the
    /// database's map until either side changes (copy-on-write).
    views: Arc<HashMap<String, ViewDef>>,
    /// View-catalog epoch matching `views` (cache-key component; bumped
    /// along with the global epoch when this transaction runs view DDL).
    views_epoch: u64,
}

impl ActiveTxn {
    /// The effective table map: the snapshot's plus this transaction's
    /// own writes.
    fn tables(&self) -> &HashMap<String, Arc<TableMeta>> {
        self.own_tables.as_ref().unwrap_or(&self.base.tables)
    }

    /// The catalog view statements of this transaction bind and run on.
    fn view(&self) -> TxnView<'_> {
        TxnView { tables: self.tables(), views: &self.views }
    }

    /// The effective table map as it stands now, kept past this
    /// transaction: the snapshot itself until the transaction writes.
    fn pin_tables(&self) -> Arc<CatalogSnapshot> {
        match &self.own_tables {
            None => self.base.clone(),
            Some(tables) => Arc::new(CatalogSnapshot { tables: tables.clone() }),
        }
    }
}

/// The counters of a connection's last successful SELECT. Its
/// cardinality estimate is computed when the counters are read rather
/// than on every statement.
struct LastSelect {
    /// Counters as executed; `estimated_rows` is filled by `settle`.
    counters: exec::CountersSnapshot,
    /// What the estimate is computed from, until a write settles it.
    basis: Option<EstimateBasis>,
}

impl LastSelect {
    fn new(counters: exec::CountersSnapshot, basis: EstimateBasis) -> LastSelect {
        LastSelect { counters, basis: Some(basis) }
    }

    /// Compute the estimate now and release the snapshot it needed.
    fn settle(&mut self, plan_cache: &PlanCache) {
        if let Some(basis) = self.basis.take() {
            self.counters.estimated_rows = basis.estimate(plan_cache);
        }
    }
}

/// A statement's plan and the snapshot it read: the one snapshot a
/// connection pins between statements, until the next SELECT replaces it
/// or the connection's next write settles the estimate. No cache entry
/// pins one.
struct EstimateBasis {
    tables: Arc<CatalogSnapshot>,
    views: Arc<HashMap<String, ViewDef>>,
    stats_mode: opt::StatsMode,
    plan: LastPlan,
}

enum LastPlan {
    /// The plan that ran.
    Ran(plan::Plan),
    /// A result-cache hit, which planned nothing: the plan its result was
    /// executed from is derived again on read, from the same template when
    /// the plan cache still holds it.
    Served { memo: Arc<StmtMemo>, plan_key: CacheKey, opt_flags: OptFlags, use_plan: bool },
}

impl EstimateBasis {
    /// `plan` over what `txn` sees now.
    fn new(txn: &ActiveTxn, stats_mode: opt::StatsMode, plan: LastPlan) -> EstimateBasis {
        EstimateBasis { tables: txn.pin_tables(), views: txn.views.clone(), stats_mode, plan }
    }

    /// The optimizer's estimate for the statement's plan, from statistics
    /// already materialised only: a joinless query whose planning never
    /// consulted statistics must not pay a column scan for a diagnostic.
    /// 0 when the plan cannot be derived again.
    fn estimate(&self, plan_cache: &PlanCache) -> u64 {
        let view = TxnView { tables: &self.tables.tables, views: &self.views };
        let served;
        let plan = match &self.plan {
            LastPlan::Ran(plan) => plan,
            LastPlan::Served { memo, plan_key, opt_flags, use_plan } => {
                let stats = opt::ModedStats { inner: &view, mode: self.stats_mode };
                let template = use_plan
                    .then(|| plan_cache.peek_valid(plan_key, view.tables))
                    .flatten()
                    .and_then(|t| plan_cache::substitute_params(&t.plan, &memo.params));
                let plan = match template {
                    Some(p) => Ok(p),
                    None => plan_fresh(&view, &stats, *opt_flags, memo, *use_plan).map(|p| p.0),
                };
                match plan.and_then(opt::fold_constants) {
                    Ok(p) => served = p,
                    Err(_) => return 0,
                }
                &served
            }
        };
        let cached = CachedTxnStats(&view);
        let stats = opt::ModedStats { inner: &cached, mode: self.stats_mode };
        opt::estimate_rows(plan, &stats).round() as u64
    }
}

/// Plan `memo` without a stored template. With the plan cache on, bind
/// and optimize the parameterized statement and return the template with
/// this statement's literals substituted, plus the template itself; with
/// it off, bind and optimize the statement as written.
fn plan_fresh(
    view: &TxnView<'_>,
    stats: &dyn opt::Stats,
    flags: OptFlags,
    memo: &StmtMemo,
    use_plan: bool,
) -> Result<(plan::Plan, Option<plan::Plan>)> {
    if !use_plan {
        let p = Binder::new(view).bind_select(&memo.original_stmt())?;
        return Ok((opt::optimize(p, flags, stats, view)?, None));
    }
    let template =
        Binder::with_params(view, memo.params.clone()).bind_select(&memo.shape.template_stmt)?;
    let template = opt::optimize(template, flags, stats, view)?;
    let substituted =
        plan_cache::substitute_params(&template, &memo.params).unwrap_or_else(|| template.clone());
    Ok((substituted, Some(template)))
}

/// A connection: holds the per-query context and transaction state.
pub struct Connection {
    store: Arc<Store>,
    exec_opts: ExecOptions,
    opt_flags: OptFlags,
    stats_mode: opt::StatsMode,
    /// Cache-key component covering the three settings above; re-rendered
    /// by their setters, never per statement.
    fingerprint: Arc<Fingerprint>,
    txn: Option<ActiveTxn>,
    last: Option<LastSelect>,
    db_views: Arc<std::sync::Mutex<Arc<HashMap<String, ViewDef>>>>,
    views_epoch: Arc<AtomicU64>,
    plan_cache: Arc<PlanCache>,
    result_cache: Arc<ResultCache>,
    /// Cancellation token shared with [`InterruptHandle`]s; cleared at
    /// every statement start, polled at executor checkpoints.
    interrupt: Arc<std::sync::atomic::AtomicBool>,
}

/// A cheap cloneable, `Send` handle that cancels whatever statement its
/// [`Connection`] is running (the in-process analogue of a server's KILL
/// QUERY — an embedded runaway query would otherwise hold the host's
/// thread hostage). Interrupting an idle connection is a no-op: the flag
/// is cleared when the next statement starts.
#[derive(Clone, Debug)]
pub struct InterruptHandle {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl InterruptHandle {
    /// Request cancellation: the running statement fails with
    /// [`MlError::Interrupted`] at its next checkpoint (per operator /
    /// per spilled frame, so typically within a morsel).
    pub fn interrupt(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// The transaction's catalog view, usable by the binder, the optimizer's
/// stats and the executor.
struct TxnView<'a> {
    tables: &'a HashMap<String, Arc<TableMeta>>,
    views: &'a HashMap<String, ViewDef>,
}

impl CatalogAccess for TxnView<'_> {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|t| t.schema.clone())
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
    }

    fn view_def(&self, name: &str) -> Option<ViewDef> {
        self.views.get(name).cloned()
    }
}

impl TableProvider for TxnView<'_> {
    fn table_meta(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
    }
}

impl opt::Stats for TxnView<'_> {
    fn table_rows(&self, name: &str) -> usize {
        self.tables.get(&name.to_ascii_lowercase()).map_or(1000, |t| t.data.visible_rows().max(1))
    }

    fn physical_rows(&self, name: &str) -> usize {
        self.tables.get(&name.to_ascii_lowercase()).map_or(1000, |t| t.data.rows)
    }

    /// Real per-column statistics from the storage layer's summaries
    /// (cache → `.st` sidecar → one-pass build). Statistics are physical
    /// -row summaries: the NDV is clamped to the visible row count, and
    /// deletes leave the rest conservative — the zonemap discipline.
    fn column_stats(&self, name: &str, col: usize) -> Option<opt::ColStats> {
        self.column_stats_inner(name, col, false)
    }
}

impl TxnView<'_> {
    /// `cached_only`: serve statistics already materialised (in-memory or
    /// sidecar-loadable next time) without paying a column scan — the
    /// diagnostic `estimated_rows` counter uses this so a joinless query
    /// never builds statistics planning didn't need.
    fn column_stats_inner(
        &self,
        name: &str,
        col: usize,
        cached_only: bool,
    ) -> Option<opt::ColStats> {
        let meta = self.tables.get(&name.to_ascii_lowercase())?;
        let sc = meta.data.cols.get(col)?;
        let entry = sc.entry().ok()?;
        let st = if cached_only { entry.stats_opt()? } else { entry.stats().ok()? };
        let visible = meta.data.visible_rows() as f64;
        Some(opt::ColStats {
            null_frac: st.null_frac(),
            ndv: st.ndv().min(visible.max(1.0)),
            min_key: st.has_range.then_some(st.min_key),
            max_key: st.has_range.then_some(st.max_key),
        })
    }
}

/// [`opt::Stats`] over a [`TxnView`] that never *builds* statistics —
/// cache hits only.
struct CachedTxnStats<'a>(&'a TxnView<'a>);

impl opt::Stats for CachedTxnStats<'_> {
    fn table_rows(&self, name: &str) -> usize {
        self.0.table_rows(name)
    }

    fn column_stats(&self, name: &str, col: usize) -> Option<opt::ColStats> {
        self.0.column_stats_inner(name, col, true)
    }
}

impl Connection {
    /// Override execution options (threads, index flags, timeout...).
    pub fn set_exec_options(&mut self, opts: ExecOptions) {
        self.exec_opts = opts;
        self.refresh_fingerprint();
    }

    /// Current execution options.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec_opts
    }

    /// Override optimizer flags (ablation benches).
    pub fn set_opt_flags(&mut self, flags: OptFlags) {
        self.opt_flags = flags;
        self.refresh_fingerprint();
    }

    /// Control how the optimizer sees statistics (differential tests:
    /// wrong statistics may change plans, never results).
    pub fn set_stats_mode(&mut self, mode: opt::StatsMode) {
        self.stats_mode = mode;
        self.refresh_fingerprint();
    }

    fn refresh_fingerprint(&mut self) {
        self.fingerprint = Fingerprint::new(self.opt_flags, self.stats_mode, &self.exec_opts);
    }

    /// Execution counters of the last successful SELECT on this
    /// connection (`None` before the first one): tactical decisions,
    /// pipeline/morsel traffic, and — under a memory budget — spill
    /// activity (`spilled_partitions` / `spill_bytes`). The cardinality
    /// estimate is computed here, from the statement's plan and snapshot,
    /// so a statement nobody asks about does not pay for it.
    pub fn last_exec_counters(&self) -> Option<exec::CountersSnapshot> {
        let last = self.last.as_ref()?;
        Some(match &last.basis {
            Some(basis) => exec::CountersSnapshot {
                estimated_rows: basis.estimate(&self.plan_cache),
                ..last.counters
            },
            None => last.counters,
        })
    }

    /// A handle other threads can use to cancel this connection's running
    /// statement (see [`InterruptHandle`]).
    pub fn interrupt_handle(&self) -> InterruptHandle {
        InterruptHandle { flag: self.interrupt.clone() }
    }

    /// Execute one SQL statement, returning its full result
    /// (`monetdb_query`).
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        // Each statement starts un-interrupted: an interrupt delivered
        // while the connection was idle must not kill the next query.
        self.interrupt.store(false, std::sync::atomic::Ordering::SeqCst);
        if !(self.exec_opts.use_plan_cache || self.exec_opts.use_result_cache) {
            return self.run_statement(monetlite_sql::parse_statement(sql)?);
        }
        // Statement-text memo: a repeat of the exact text skips even the
        // lexer (the memo is a pure function of the text, never stale).
        if let Some(memo) = self.plan_cache.memo_get(sql) {
            return self.run_select_memo(&memo);
        }
        // A fresh text is lexed; when its skeleton is recorded, the memo
        // is built from the tokens and the parser is skipped.
        let budget = self.exec_opts.plan_cache_bytes;
        let tokens = monetlite_sql::lexer::tokenize(sql)?;
        let skeleton = Skeleton::of(&tokens);
        if let Some(memo) = skeleton.as_ref().and_then(|sk| self.plan_cache.skeleton_get(sk)) {
            let memo = Arc::new(memo);
            self.plan_cache.memo_put(sql, memo.clone(), budget);
            return self.run_select_memo(&memo);
        }
        match monetlite_sql::parse_tokens(&tokens)? {
            ast::Statement::Select(sel) => {
                let memo = Arc::new(self.plan_cache.normalize(*sel, budget));
                if let Some(sk) = &skeleton {
                    self.plan_cache.skeleton_put(sk, &memo, budget);
                }
                self.plan_cache.memo_put(sql, memo.clone(), budget);
                self.run_select_memo(&memo)
            }
            stmt => self.run_statement(stmt),
        }
    }

    /// Autocommit wrapper around the cached SELECT path (mirrors
    /// `run_statement`'s handling of a bare SELECT).
    fn run_select_memo(&mut self, memo: &Arc<StmtMemo>) -> Result<QueryResult> {
        let implicit = self.ensure_txn();
        let r = self.run_select_cached(memo);
        self.finish_implicit(implicit, r.is_ok())?;
        r
    }

    /// Execute one statement for its side effect; returns rows affected.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        Ok(self.query(sql)?.rows_affected())
    }

    /// Execute a `;`-separated script, returning the last statement's
    /// result.
    pub fn run_script(&mut self, sql: &str) -> Result<QueryResult> {
        self.interrupt.store(false, std::sync::atomic::Ordering::SeqCst);
        let stmts = monetlite_sql::parse_statements(sql)?;
        let mut last = QueryResult::empty(0);
        for s in stmts {
            last = self.run_statement(s)?;
        }
        Ok(last)
    }

    /// Bulk append host buffers to a table (`monetdb_append`, §3.2): one
    /// pass, no per-row INSERT parsing — "significant overhead involved in
    /// parsing individual INSERT INTO statements".
    ///
    /// Each byte of the host's data is read once. An owned `Vec` is
    /// adopted: its fixed-width arrays become the columns without a copy.
    /// A borrowed slice (`&cols`) leaves the host its arrays: strings are
    /// interned straight from the host's `&str`s and each fixed-width array
    /// is copied once — no clone of the host's data comes first.
    pub fn append<'a>(
        &mut self,
        table: &str,
        cols: impl Into<Cow<'a, [ColumnBuffer]>>,
    ) -> Result<()> {
        let implicit = self.ensure_txn();
        let r = self.append_inner(table, cols.into());
        self.finish_implicit(implicit, r.is_ok())?;
        r
    }

    fn append_inner(&mut self, table: &str, cols: Cow<'_, [ColumnBuffer]>) -> Result<()> {
        let table = table.to_ascii_lowercase();
        let schema = {
            let txn = self.txn.as_ref().expect("txn ensured");
            let view = txn.view();
            view.table_schema(&table)?
        };
        if cols.len() != schema.len() {
            return Err(MlError::Execution(format!(
                "append expects {} columns, got {}",
                schema.len(),
                cols.len()
            )));
        }
        for (f, c) in schema.fields().iter().zip(cols.iter()) {
            if !f.nullable && c.null_count() > 0 {
                return Err(MlError::Execution(format!("NULL in NOT NULL column '{}'", f.name)));
            }
        }
        let bats = match cols {
            Cow::Owned(cols) => cols.into_iter().map(|c| Arc::new(Bat::adopt(c))).collect(),
            Cow::Borrowed(cols) => cols.iter().map(|c| Arc::new(Bat::from_buffer(c))).collect(),
        };
        self.apply_write(WalRecord::Append { table, cols: bats })
    }

    /// BEGIN a transaction explicitly.
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.as_ref().is_some_and(|t| t.explicit) {
            return Err(MlError::TransactionState("transaction already open".into()));
        }
        self.start_txn(true);
        Ok(())
    }

    /// COMMIT the open transaction (optimistic validation happens here; a
    /// write-write conflict aborts with [`MlError::TransactionConflict`]).
    pub fn commit(&mut self) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| MlError::TransactionState("no transaction open".into()))?;
        self.store.commit(txn.writes)
    }

    /// ROLLBACK the open transaction.
    pub fn rollback(&mut self) -> Result<()> {
        if self.txn.take().is_none() {
            return Err(MlError::TransactionState("no transaction open".into()));
        }
        Ok(())
    }

    fn start_txn(&mut self, explicit: bool) {
        let snapshot = self.store.snapshot();
        // Read the epoch under the views lock so (views, epoch) is a
        // consistent pair — view DDL bumps the epoch while holding it.
        let (views, views_epoch) = {
            let g = self.db_views.lock().expect("views lock");
            (g.clone(), self.views_epoch.load(Ordering::SeqCst))
        };
        self.txn = Some(ActiveTxn {
            own_tables: None,
            base: snapshot,
            writes: TxWrites::default(),
            next_temp_id: monetlite_storage::store::TEMP_TABLE_ID_BASE,
            explicit,
            views,
            views_epoch,
        });
    }

    /// Ensure a transaction exists; returns true when an implicit one was
    /// opened (autocommit).
    fn ensure_txn(&mut self) -> bool {
        if self.txn.is_none() {
            self.start_txn(false);
            true
        } else {
            false
        }
    }

    fn finish_implicit(&mut self, implicit: bool, ok: bool) -> Result<()> {
        if !implicit {
            return Ok(());
        }
        let txn = self.txn.take().expect("implicit txn present");
        if ok {
            self.store.commit(txn.writes)
        } else {
            Ok(()) // failed statement: discard
        }
    }

    /// Record a write op: apply to the transaction-local view (so later
    /// statements see it) and queue for commit.
    fn apply_write(&mut self, op: WalRecord) -> Result<()> {
        // The data moves on: the last SELECT's snapshot is not kept past
        // the writes that would otherwise leave it the only holder of
        // their tables' old versions.
        if let Some(last) = &mut self.last {
            last.settle(&self.plan_cache);
        }
        let txn = self.txn.as_mut().expect("txn ensured");
        // Base-version bookkeeping for conflict detection.
        let target = match &op {
            WalRecord::Append { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::CreateOrderIndex { table, .. } => Some(table.clone()),
            WalRecord::DropTable { name } => Some(name.clone()),
            _ => None,
        };
        if let Some(t) = target {
            if let Some(meta) = txn.base.tables.get(&t) {
                txn.writes.base_versions.entry(t).or_insert(meta.version);
            }
        }
        let tables = txn.own_tables.get_or_insert_with(|| txn.base.tables.clone());
        monetlite_storage::store::apply_record(tables, &op, &mut txn.next_temp_id)?;
        txn.writes.ops.push(op);
        Ok(())
    }

    fn run_statement(&mut self, stmt: ast::Statement) -> Result<QueryResult> {
        match stmt {
            ast::Statement::Begin => {
                self.begin()?;
                Ok(QueryResult::empty(0))
            }
            ast::Statement::Commit => {
                self.commit()?;
                Ok(QueryResult::empty(0))
            }
            ast::Statement::Rollback => {
                self.rollback()?;
                Ok(QueryResult::empty(0))
            }
            other => {
                let implicit = self.ensure_txn();
                let r = self.run_in_txn(other);
                self.finish_implicit(implicit, r.is_ok())?;
                r
            }
        }
    }

    fn run_in_txn(&mut self, stmt: ast::Statement) -> Result<QueryResult> {
        match stmt {
            ast::Statement::Select(sel) => {
                if self.exec_opts.use_plan_cache || self.exec_opts.use_result_cache {
                    // Script / non-memoized entry: normalize here so the
                    // statement still shares plan and result entries.
                    let memo = self.plan_cache.normalize(*sel, self.exec_opts.plan_cache_bytes);
                    self.run_select_cached(&Arc::new(memo))
                } else {
                    self.run_select(&sel)
                }
            }
            ast::Statement::Explain(inner) => self.run_explain(*inner),
            ast::Statement::CreateTable { name, columns } => {
                let lname = name.to_ascii_lowercase();
                // Tables shadow views at name resolution, so a colliding
                // CREATE TABLE would silently hide an existing view —
                // reject it symmetrically with CREATE VIEW's check.
                if self.txn.as_ref().expect("txn").views.contains_key(&lname)
                    || self.db_views.lock().expect("views lock").contains_key(&lname)
                {
                    return Err(MlError::Catalog(format!("'{name}' already exists as a view")));
                }
                let fields: Vec<Field> = columns
                    .iter()
                    .map(|c| {
                        if c.nullable {
                            Field::new(&c.name, c.ty)
                        } else {
                            Field::not_null(&c.name, c.ty)
                        }
                    })
                    .collect();
                let schema = Schema::new(fields)?;
                self.apply_write(WalRecord::CreateTable { name: lname, schema })?;
                Ok(QueryResult::empty(0))
            }
            ast::Statement::DropTable { name, if_exists } => {
                let lname = name.to_ascii_lowercase();
                let exists = self.txn.as_ref().expect("txn").tables().contains_key(&lname);
                if !exists {
                    if if_exists {
                        return Ok(QueryResult::empty(0));
                    }
                    return Err(MlError::Catalog(format!("unknown table '{name}'")));
                }
                self.apply_write(WalRecord::DropTable { name: lname })?;
                Ok(QueryResult::empty(0))
            }
            ast::Statement::CreateView { name, columns, query } => {
                let lname = name.to_ascii_lowercase();
                let vd = ViewDef { columns, query: *query };
                {
                    let txn = self.txn.as_ref().expect("txn");
                    if txn.tables().contains_key(&lname) {
                        return Err(MlError::Catalog(format!(
                            "'{name}' already exists as a table"
                        )));
                    }
                    // Validate eagerly: the definition must bind, and a
                    // rename list must match the output width.
                    let view = txn.view();
                    let plan = Binder::new(&view).bind_select(&vd.query)?;
                    if let Some(cols) = &vd.columns {
                        if cols.len() != plan.schema().len() {
                            return Err(MlError::Bind(format!(
                                "view '{name}' selects {} column(s) but {} alias(es) were given",
                                plan.schema().len(),
                                cols.len()
                            )));
                        }
                    }
                }
                // Check-and-insert atomically against the *shared* map, so
                // two connections racing on the same name cannot both
                // succeed (the second would silently replace the first).
                {
                    let mut shared = self.db_views.lock().expect("views lock");
                    if shared.contains_key(&lname)
                        || self.txn.as_ref().expect("txn").views.contains_key(&lname)
                    {
                        return Err(MlError::Catalog(format!("view '{name}' already exists")));
                    }
                    Arc::make_mut(&mut shared).insert(lname.clone(), vd.clone());
                    // Move the cache-key epoch under the same lock: plan
                    // and result entries keyed under the old view catalog
                    // become unreachable.
                    let e = self.views_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                    self.txn.as_mut().expect("txn").views_epoch = e;
                }
                Arc::make_mut(&mut self.txn.as_mut().expect("txn").views).insert(lname, vd);
                Ok(QueryResult::empty(0))
            }
            ast::Statement::DropView { name, if_exists } => {
                let lname = name.to_ascii_lowercase();
                let txn = self.txn.as_mut().expect("txn");
                let known = txn.views.contains_key(&lname)
                    && Arc::make_mut(&mut txn.views).remove(&lname).is_some();
                let shared = {
                    let mut g = self.db_views.lock().expect("views lock");
                    let removed =
                        g.contains_key(&lname) && Arc::make_mut(&mut g).remove(&lname).is_some();
                    if removed || known {
                        let e = self.views_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                        self.txn.as_mut().expect("txn").views_epoch = e;
                    }
                    removed
                };
                if !known && !shared && !if_exists {
                    return Err(MlError::Catalog(format!("unknown view '{name}'")));
                }
                Ok(QueryResult::empty(0))
            }
            ast::Statement::Insert { table, columns, rows } => {
                self.run_insert(&table, columns.as_deref(), &rows)
            }
            ast::Statement::Delete { table, filter } => self.run_delete(&table, filter.as_ref()),
            ast::Statement::Update { table, sets, filter } => {
                self.run_update(&table, &sets, filter.as_ref())
            }
            ast::Statement::CreateIndex { table, column, ordered, .. } => {
                let lname = table.to_ascii_lowercase();
                let (col_idx, meta) = {
                    let txn = self.txn.as_ref().expect("txn");
                    let meta = txn.view().table_meta(&lname)?;
                    let idx = meta
                        .schema
                        .index_of(&column)
                        .ok_or_else(|| MlError::Catalog(format!("unknown column '{column}'")))?;
                    (idx, meta)
                };
                if ordered {
                    self.apply_write(WalRecord::CreateOrderIndex {
                        table: lname,
                        col: col_idx as u32,
                    })?;
                    // Build eagerly so later statements in this txn use it.
                    let entry = meta.data.cols[col_idx].entry()?;
                    let _ = entry.order_index()?;
                } else {
                    // Plain CREATE INDEX: MonetDB builds indexes
                    // automatically; treat as a hint and build the hash
                    // table now.
                    let entry = meta.data.cols[col_idx].entry()?;
                    let _ = entry.hash_index()?;
                }
                Ok(QueryResult::empty(0))
            }
            ast::Statement::Begin | ast::Statement::Commit | ast::Statement::Rollback => {
                unreachable!("handled in run_statement")
            }
        }
    }

    fn run_select(&mut self, sel: &ast::SelectStmt) -> Result<QueryResult> {
        let (chunk, names, types, last) = {
            let txn = self.txn.as_ref().expect("txn");
            let view = txn.view();
            let stats = opt::ModedStats { inner: &view, mode: self.stats_mode };
            let plan = Binder::new(&view).bind_select(sel)?;
            let plan = opt::optimize(plan, self.opt_flags, &stats, &view)?;
            // The store's paging manager supplies the memory budget when
            // ExecOptions leaves it unset: operator state competes with
            // resident columns for the same byte budget, and pipeline
            // breakers spill once it is exceeded.
            let ctx = ExecContext::new(&view, self.exec_opts)
                .with_vmem(self.store.vmem().clone())
                .with_interrupt(self.interrupt.clone());
            let chunk = exec::execute(&plan, &ctx)?;
            let (names, types) = plan_cache::header(&plan);
            let last = LastSelect::new(
                ctx.counters.snapshot(),
                EstimateBasis::new(txn, self.stats_mode, LastPlan::Ran(plan)),
            );
            (chunk, names, types, last)
        };
        self.last = Some(last);
        Ok(QueryResult { names, types, cols: chunk.cols, rows: chunk.rows, rows_affected: 0 })
    }

    /// SELECT through the caching tier (paper §1/§4.2: an embedded
    /// workload re-issues many small, often identical or merely
    /// re-parameterized queries, so per-query overheads dominate):
    /// 1. result-cache hit → return the stored columns, no execution;
    /// 2. plan-cache hit → substitute fresh literals into the stored
    ///    template, skipping bind + optimize;
    /// 3. miss → bind the parameterized statement, optimize once, store
    ///    the template, then execute.
    ///
    /// Consulting and populating the caches requires a transaction with
    /// no uncommitted writes and only committed input tables; everything
    /// else takes the plain `run_select` path.
    fn run_select_cached(&mut self, memo: &Arc<StmtMemo>) -> Result<QueryResult> {
        let started = Instant::now();
        let use_plan = self.exec_opts.use_plan_cache;
        let use_result = self.exec_opts.use_result_cache;
        let (result, last, store_result) = {
            let txn = self.txn.as_ref().expect("txn");
            let cacheable = txn.writes.is_empty();
            let rkey = CacheKey::new(&self.fingerprint, txn.views_epoch, &memo.result_key);
            let pkey = CacheKey::new(&self.fingerprint, txn.views_epoch, &memo.shape.plan_key);

            // 1. Result cache: a hit skips execution entirely, but must
            // still behave like a real statement — honour a pending
            // interrupt and the per-query timeout, and publish counters.
            if use_result && cacheable {
                if let Some(entry) = self.result_cache.get_valid(&rkey, txn.tables()) {
                    if self.interrupt.load(std::sync::atomic::Ordering::SeqCst) {
                        return Err(MlError::Interrupted);
                    }
                    if let Some(limit) = self.exec_opts.timeout {
                        if started.elapsed() >= limit {
                            return Err(MlError::Timeout {
                                elapsed_ms: started.elapsed().as_millis() as u64,
                                limit_ms: limit.as_millis() as u64,
                            });
                        }
                    }
                    self.result_cache.hits.fetch_add(1, Ordering::Relaxed);
                    self.last = Some(LastSelect::new(
                        exec::CountersSnapshot { result_cache_hits: 1, ..Default::default() },
                        EstimateBasis::new(
                            txn,
                            self.stats_mode,
                            LastPlan::Served {
                                memo: memo.clone(),
                                plan_key: pkey,
                                opt_flags: self.opt_flags,
                                use_plan,
                            },
                        ),
                    ));
                    return Ok(entry.result.clone());
                }
                self.result_cache.misses.fetch_add(1, Ordering::Relaxed);
            }

            let view = txn.view();
            let stats = opt::ModedStats { inner: &view, mode: self.stats_mode };

            // 2. Plan cache: reuse the optimized template, re-binding the
            // statement's literals into its parameter slots. A statement
            // planned through a template shares the template's output
            // header and dependency list rather than rebuilding them.
            let mut planned: Option<(plan::Plan, Option<Arc<PlanEntry>>)> = None;
            if use_plan && cacheable {
                if let Some(entry) = self.plan_cache.get_valid(&pkey, txn.tables()) {
                    // A failed coercion (literal cannot take the
                    // template's type) falls through to a full replan.
                    planned = plan_cache::substitute_params(&entry.plan, &memo.params)
                        .map(|p| (p, Some(entry)));
                }
            }
            let plan_hit = planned.is_some();
            let (plan, template) = match planned {
                Some(p) => p,
                None => {
                    // 3. Miss: bind + optimize the *parameterized*
                    // statement so the resulting plan is a reusable
                    // template, store it, then substitute this
                    // statement's own literals back in. With the plan
                    // cache off (result cache only), plain bind +
                    // optimize of the original statement.
                    if use_plan {
                        self.plan_cache.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    let (plan, template) =
                        plan_fresh(&view, &stats, self.opt_flags, memo, use_plan)?;
                    let entry = template
                        .filter(|_| cacheable)
                        .and_then(|t| Some((plan_cache::collect_deps(&t, txn.tables())?, t)))
                        .map(|(deps, t)| {
                            let entry = Arc::new(PlanEntry::new(t, deps));
                            self.plan_cache.put(
                                pkey,
                                entry.clone(),
                                self.exec_opts.plan_cache_bytes,
                            );
                            entry
                        });
                    (plan, entry)
                }
            };
            // Re-fold now that parameter slots are concrete literals, so
            // every literal-driven execution fast path (zonemap probes,
            // dictionary predicate compilation, imprints) sees the same
            // shapes as an uncached plan.
            let plan = opt::fold_constants(plan)?;

            let ctx = ExecContext::new(&view, self.exec_opts)
                .with_vmem(self.store.vmem().clone())
                .with_interrupt(self.interrupt.clone());
            let chunk = exec::execute(&plan, &ctx)?;
            let (names, types) = match &template {
                Some(t) => (t.names.clone(), t.types.clone()),
                None => plan_cache::header(&plan),
            };
            let mut counters = ctx.counters.snapshot();
            if plan_hit {
                counters.plan_cache_hits = 1;
                self.plan_cache.hits.fetch_add(1, Ordering::Relaxed);
            }
            let result =
                QueryResult { names, types, cols: chunk.cols, rows: chunk.rows, rows_affected: 0 };
            // Populate the result cache from this execution. The
            // template's dependencies (validated against this snapshot a
            // moment ago) cover whatever the folded plan still scans.
            let store_result = (use_result && cacheable)
                .then(|| match &template {
                    Some(t) => Some(t.deps.clone()),
                    None => plan_cache::collect_deps(&plan, txn.tables()),
                })
                .flatten()
                .map(|deps| (rkey, deps));
            let last = LastSelect::new(
                counters,
                EstimateBasis::new(txn, self.stats_mode, LastPlan::Ran(plan)),
            );
            (result, last, store_result)
        };
        self.last = Some(last);
        if let Some((rkey, deps)) = store_result {
            self.result_cache.put(
                rkey,
                ResultEntry { result: result.clone(), deps },
                self.exec_opts.result_cache_bytes,
            );
        }
        Ok(result)
    }

    fn run_explain(&mut self, stmt: ast::Statement) -> Result<QueryResult> {
        let ast::Statement::Select(sel) = stmt else {
            return Err(MlError::Unsupported("EXPLAIN is only supported for SELECT".into()));
        };
        let txn = self.txn.as_ref().expect("txn");
        let view = txn.view();
        let stats = opt::ModedStats { inner: &view, mode: self.stats_mode };
        let plan = Binder::new(&view).bind_select(&sel)?;
        let plan = opt::optimize(plan, self.opt_flags, &stats, &view)?;
        let mut text = mal::explain(&plan, &self.exec_opts, Some(&stats));
        // Cache status for the explained statement: tags appear only when
        // a valid cached artifact exists right now (EXPLAIN itself never
        // consults or populates the caches).
        if (self.exec_opts.use_plan_cache || self.exec_opts.use_result_cache)
            && txn.writes.is_empty()
        {
            let memo = self.plan_cache.normalize(*sel, self.exec_opts.plan_cache_bytes);
            let key = |statement| CacheKey::new(&self.fingerprint, txn.views_epoch, statement);
            let plan_cached = self.exec_opts.use_plan_cache
                && self.plan_cache.get_valid(&key(&memo.shape.plan_key), txn.tables()).is_some();
            let result_cached = self.exec_opts.use_result_cache
                && self.result_cache.get_valid(&key(&memo.result_key), txn.tables()).is_some();
            text.push_str(&mal::cache_tags(plan_cached, result_cached));
        }
        let lines: Vec<Option<String>> = text.lines().map(|l| Some(l.to_string())).collect();
        let rows = lines.len();
        Ok(QueryResult {
            names: Arc::new(["mal".into()]),
            types: Arc::new([LogicalType::Varchar]),
            cols: vec![Arc::new(Bat::from_buffer(&ColumnBuffer::Varchar(lines)))],
            rows,
            rows_affected: 0,
        })
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<ast::Expr>],
    ) -> Result<QueryResult> {
        let lname = table.to_ascii_lowercase();
        let schema = {
            let txn = self.txn.as_ref().expect("txn");
            txn.view().table_schema(&lname)?
        };
        // Map provided columns to schema positions.
        let positions: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| MlError::Catalog(format!("unknown column '{c}'")))
                })
                .collect::<Result<_>>()?,
        };
        let mut bats: Vec<Bat> = schema.fields().iter().map(|f| Bat::new(f.ty)).collect();
        let binder_scope = bind::Scope::default();
        let view_catalog = EmptyCatalog;
        let binder = Binder::new(&view_catalog);
        for row in rows {
            if row.len() != positions.len() {
                return Err(MlError::Execution(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    row.len()
                )));
            }
            let mut provided: HashMap<usize, Value> = HashMap::new();
            for (expr, &pos) in row.iter().zip(&positions) {
                let bound = binder.bind_expr(expr, &binder_scope)?;
                if !bound.is_const() {
                    return Err(MlError::Execution(
                        "INSERT values must be constant expressions".into(),
                    ));
                }
                let out = kernels::eval(&bound, &[], 1, None)?;
                provided.insert(pos, out.get(0));
            }
            for (i, f) in schema.fields().iter().enumerate() {
                let v = provided.remove(&i).unwrap_or(Value::Null);
                if v.is_null() && !f.nullable {
                    return Err(MlError::Execution(format!(
                        "NULL in NOT NULL column '{}'",
                        f.name
                    )));
                }
                let v = coerce_value(v, f.ty)?;
                bats[i].push(&v)?;
            }
        }
        let n = rows.len() as u64;
        let cols = bats.into_iter().map(Arc::new).collect();
        self.apply_write(WalRecord::Append { table: lname, cols })?;
        Ok(QueryResult::empty(n))
    }

    /// Physical ids (ascending) of the visible rows matching `filter`.
    /// Only the columns the predicate reads are consolidated and scanned;
    /// every other column of the table stays untouched.
    fn matching_rows(&self, meta: &TableMeta, filter: Option<&ast::Expr>) -> Result<Vec<u32>> {
        let deleted = meta.data.deleted.as_deref();
        let visible = |r: &u32| deleted.is_none_or(|d| !d[*r as usize]);
        let Some(filter) = filter else {
            return Ok((0..meta.data.rows as u32).filter(visible).collect());
        };
        let txn = self.txn.as_ref().expect("txn");
        let view = txn.view();
        let (pred, _) = Binder::new(&view).bind_table_expr(&meta.name, filter)?;
        let mut used = Vec::new();
        pred.collect_cols(&mut used);
        used.sort_unstable();
        used.dedup();
        let cols: Vec<Arc<Bat>> =
            used.iter().map(|&c| meta.data.cols[c].entry()?.bat()).collect::<Result<_>>()?;
        let pred = pred.remap_cols(&|c| used.binary_search(&c).expect("collected above"));
        let mask = kernels::eval(&pred, &cols, meta.data.rows, None)?;
        let mut sel = kernels::bool_to_sel(&mask, None)?;
        sel.retain(visible);
        Ok(sel)
    }

    fn run_delete(&mut self, table: &str, filter: Option<&ast::Expr>) -> Result<QueryResult> {
        let lname = table.to_ascii_lowercase();
        let meta = {
            let txn = self.txn.as_ref().expect("txn");
            txn.view().table_meta(&lname)?
        };
        let rows = self.matching_rows(&meta, filter)?;
        let n = rows.len() as u64;
        if n > 0 {
            self.apply_write(WalRecord::Delete { table: lname, rows })?;
        }
        Ok(QueryResult::empty(n))
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, ast::Expr)],
        filter: Option<&ast::Expr>,
    ) -> Result<QueryResult> {
        // UPDATE = DELETE + APPEND of the updated rows (MonetDB's
        // delta-based update model).
        let lname = table.to_ascii_lowercase();
        let meta = {
            let txn = self.txn.as_ref().expect("txn");
            txn.view().table_meta(&lname)?
        };
        let rows = self.matching_rows(&meta, filter)?;
        if rows.is_empty() {
            return Ok(QueryResult::empty(0));
        }
        // Bind assignment expressions over the full table scope.
        let mut set_exprs: HashMap<usize, expr::BExpr> = HashMap::new();
        {
            let txn = self.txn.as_ref().expect("txn");
            let view = txn.view();
            let binder = Binder::new(&view);
            for (col, e) in sets {
                let idx = meta
                    .schema
                    .index_of(col)
                    .ok_or_else(|| MlError::Catalog(format!("unknown column '{col}'")))?;
                let (bound, _) = binder.bind_table_expr(&meta.name, e)?;
                let coerced = bind::cast_to(bound, meta.schema.field_at(idx).ty)?;
                set_exprs.insert(idx, coerced);
            }
        }
        // Gather the changed rows of every column from the segments that
        // hold them — compact BATs, so the overlay, the commit and the WAL
        // frame all cost O(changed rows) — and compute the new values.
        let gathered: Vec<Arc<Bat>> =
            meta.data.cols.iter().map(|c| c.gather(&rows).map(Arc::new)).collect::<Result<_>>()?;
        let mut new_cols: Vec<Arc<Bat>> = Vec::with_capacity(meta.schema.len());
        for (i, f) in meta.schema.fields().iter().enumerate() {
            match set_exprs.get(&i) {
                Some(e) => {
                    let b = kernels::eval(e, &gathered, rows.len(), None)?;
                    if !f.nullable && b.null_count() > 0 {
                        return Err(MlError::Execution(format!(
                            "NULL in NOT NULL column '{}'",
                            f.name
                        )));
                    }
                    new_cols.push(Arc::new(b));
                }
                None => new_cols.push(gathered[i].clone()),
            }
        }
        let n = rows.len() as u64;
        self.apply_write(WalRecord::Delete { table: lname.clone(), rows })?;
        self.apply_write(WalRecord::Append { table: lname, cols: new_cols })?;
        Ok(QueryResult::empty(n))
    }
}

/// Catalog with no tables (INSERT literal binding).
struct EmptyCatalog;

impl CatalogAccess for EmptyCatalog {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        Err(MlError::Catalog(format!("unknown table '{name}'")))
    }
}

/// Coerce a literal value to a column type (INSERT path).
fn coerce_value(v: Value, ty: LogicalType) -> Result<Value> {
    use LogicalType as T;
    Ok(match (&v, ty) {
        (Value::Null, _) => Value::Null,
        (Value::Int(_), T::Int)
        | (Value::Bigint(_), T::Bigint)
        | (Value::Double(_), T::Double)
        | (Value::Str(_), T::Varchar)
        | (Value::Bool(_), T::Bool)
        | (Value::Date(_), T::Date)
        | (Value::Decimal(_), T::Decimal { .. }) => match (v, ty) {
            (Value::Decimal(d), T::Decimal { scale, .. }) => Value::Decimal(d.rescale(scale)?),
            (v, _) => v,
        },
        (Value::Int(x), T::Bigint) => Value::Bigint(*x as i64),
        (Value::Int(x), T::Double) => Value::Double(*x as f64),
        (Value::Int(x), T::Decimal { scale, .. }) => {
            Value::Decimal(monetlite_types::Decimal::new(*x as i64, 0).rescale(scale)?)
        }
        (Value::Bigint(x), T::Double) => Value::Double(*x as f64),
        (Value::Decimal(d), T::Double) => Value::Double(d.to_f64()),
        (Value::Str(s), T::Date) => Value::Date(monetlite_types::Date::parse(s)?),
        (v, ty) => return Err(MlError::TypeMismatch(format!("cannot store {v:?} in {ty} column"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_t() -> (Database, Connection) {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE t (a INT NOT NULL, b VARCHAR(20), p DECIMAL(10,2))").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'one', 1.50), (2, 'two', 2.50), (3, NULL, 3.00)")
            .unwrap();
        (db, conn)
    }

    #[test]
    fn end_to_end_select() {
        let (_db, mut conn) = db_with_t();
        let r = conn.query("SELECT a, b FROM t WHERE a >= 2 ORDER BY a DESC").unwrap();
        assert_eq!(r.nrows(), 2);
        assert_eq!(r.value(0, 0), Value::Int(3));
        assert_eq!(r.value(1, 1), Value::Str("two".into()));
        assert_eq!(r.names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn aggregates_end_to_end() {
        let (_db, mut conn) = db_with_t();
        let r = conn.query("SELECT count(*) AS c, sum(p) AS s, avg(a) AS m FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(3));
        assert_eq!(r.value(0, 1), Value::Decimal(monetlite_types::Decimal::new(700, 2)));
        assert_eq!(r.value(0, 2), Value::Double(2.0));
    }

    #[test]
    fn group_by_end_to_end() {
        let (_db, mut conn) = db_with_t();
        conn.execute("INSERT INTO t VALUES (4, 'one', 0.50)").unwrap();
        let r = conn.query("SELECT b, count(*) AS c FROM t GROUP BY b ORDER BY c DESC, b").unwrap();
        assert_eq!(r.nrows(), 3); // 'one' x2, 'two', NULL
        assert_eq!(r.value(0, 1), Value::Bigint(2));
        assert_eq!(r.value(0, 0), Value::Str("one".into()));
    }

    #[test]
    fn delete_and_update() {
        let (_db, mut conn) = db_with_t();
        assert_eq!(conn.execute("DELETE FROM t WHERE a = 2").unwrap(), 1);
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(2));
        assert_eq!(conn.execute("UPDATE t SET p = p * 2 WHERE a = 1").unwrap(), 1);
        let r = conn.query("SELECT p FROM t WHERE a = 1").unwrap();
        assert_eq!(r.value(0, 0).to_string(), "3.00");
    }

    #[test]
    fn not_null_enforced() {
        let (_db, mut conn) = db_with_t();
        assert!(conn.execute("INSERT INTO t VALUES (NULL, 'x', 1.0)").is_err());
        // Failed autocommit statement leaves no residue.
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(3));
    }

    #[test]
    fn explicit_transaction_rollback() {
        let (_db, mut conn) = db_with_t();
        conn.execute("BEGIN").unwrap();
        conn.execute("DELETE FROM t").unwrap();
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(0), "txn sees its own deletes");
        conn.execute("ROLLBACK").unwrap();
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(3), "rollback discards");
    }

    #[test]
    fn two_connections_conflict() {
        let (db, mut c1) = db_with_t();
        let mut c2 = db.connect();
        c1.execute("BEGIN").unwrap();
        c2.execute("BEGIN").unwrap();
        c1.execute("DELETE FROM t WHERE a = 1").unwrap();
        c2.execute("DELETE FROM t WHERE a = 3").unwrap();
        c1.commit().unwrap();
        match c2.commit() {
            Err(MlError::TransactionConflict(_)) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_isolation_between_connections() {
        let (db, mut c1) = db_with_t();
        let mut c2 = db.connect();
        c2.execute("BEGIN").unwrap();
        let before = c2.query("SELECT count(*) FROM t").unwrap();
        c1.execute("INSERT INTO t VALUES (9, 'nine', 9.00)").unwrap();
        let after = c2.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(before.value(0, 0), after.value(0, 0), "snapshot must not move");
        c2.commit().unwrap();
        let now = c2.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(now.value(0, 0), Value::Bigint(4));
    }

    #[test]
    fn explain_produces_mal() {
        let (_db, mut conn) = db_with_t();
        let r = conn.query("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap();
        let text: Vec<String> = (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("function user.main():void;"), "{joined}");
        assert!(joined.contains("sql.bind"), "{joined}");
    }

    #[test]
    fn zero_copy_shared_fetch() {
        let (_db, mut conn) = db_with_t();
        let r = conn.query("SELECT a FROM t").unwrap();
        let c1 = r.col_shared(0);
        let c2 = r.col_shared(0);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    fn append_api_bulk() {
        let (_db, mut conn) = db_with_t();
        conn.append(
            "t",
            vec![
                ColumnBuffer::Int(vec![10, 11]),
                ColumnBuffer::Varchar(vec![Some("x".into()), None]),
                ColumnBuffer::Decimal { data: vec![100, 200], scale: 2 },
            ],
        )
        .unwrap();
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint(5));
        // NOT NULL violation rejected.
        let e = conn.append(
            "t",
            vec![
                ColumnBuffer::Int(vec![monetlite_types::nulls::NULL_I32]),
                ColumnBuffer::Varchar(vec![None]),
                ColumnBuffer::Decimal { data: vec![0], scale: 2 },
            ],
        );
        assert!(e.is_err());
    }

    #[test]
    fn persistent_database_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        {
            let db = Database::open(dir.path()).unwrap();
            let mut conn = db.connect();
            conn.execute("CREATE TABLE p (x INT, y VARCHAR(5))").unwrap();
            conn.execute("INSERT INTO p VALUES (1, 'a'), (2, 'b')").unwrap();
            db.checkpoint().unwrap();
        }
        let db = Database::open(dir.path()).unwrap();
        let mut conn = db.connect();
        let r = conn.query("SELECT y FROM p WHERE x = 2").unwrap();
        assert_eq!(r.value(0, 0), Value::Str("b".into()));
    }

    #[test]
    fn create_order_index_and_query() {
        let (_db, mut conn) = db_with_t();
        conn.execute("CREATE ORDER INDEX oi ON t (a)").unwrap();
        let r = conn.query("SELECT b FROM t WHERE a = 2").unwrap();
        assert_eq!(r.value(0, 0), Value::Str("two".into()));
    }

    #[test]
    fn multiple_databases_same_process() {
        // The paper lists one-database-per-process as a limitation (§5);
        // the Rust design removes it.
        let db1 = Database::open_in_memory();
        let db2 = Database::open_in_memory();
        let mut c1 = db1.connect();
        let mut c2 = db2.connect();
        c1.execute("CREATE TABLE only1 (a INT)").unwrap();
        assert!(c2.query("SELECT * FROM only1").is_err());
    }

    #[test]
    fn tpch_like_join_query() {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script(
            "CREATE TABLE nation (n_key INT, n_name VARCHAR(25));
             CREATE TABLE customer (c_key INT, c_nation INT, c_acctbal DECIMAL(12,2));
             INSERT INTO nation VALUES (1, 'FRANCE'), (2, 'GERMANY');
             INSERT INTO customer VALUES (10, 1, 100.00), (11, 1, 50.00), (12, 2, 75.00);",
        )
        .unwrap();
        let r = conn
            .query(
                "SELECT n_name, sum(c_acctbal) AS total FROM customer, nation \
                 WHERE c_nation = n_key GROUP BY n_name ORDER BY total DESC",
            )
            .unwrap();
        assert_eq!(r.nrows(), 2);
        assert_eq!(r.value(0, 0), Value::Str("FRANCE".into()));
        assert_eq!(r.value(0, 1).to_string(), "150.00");
    }
}
