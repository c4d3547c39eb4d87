//! # monetlite-rowstore
//!
//! The traditional-RDBMS baseline of the paper's evaluation (§4): a
//! **row-store** with a **volcano** (tuple-at-a-time) execution model,
//! standing in for SQLite (nested-loop joins, in-process) and
//! PostgreSQL/MariaDB (hash joins, behind the socket simulation).
//!
//! Design axes reproduced deliberately:
//! * rows live **row-major** in fixed-size pages behind a B-tree row
//!   index — every scan deserialises entire rows even when one column is
//!   needed ("its row-wise storage layout forces it to always scan entire
//!   tables", §2);
//! * execution is tuple-at-a-time over dynamically typed values — the
//!   per-tuple interpretation overhead of the volcano model ("they invoke
//!   a lot of overhead for each tuple that passes through the pipeline",
//!   §4.2);
//! * pages beyond the configured cache budget spill to disk and are read
//!   back through real file I/O — the SF10 "entire dataset plus the
//!   constructed indices do not fit in memory anymore and have to be
//!   swapped to disk" effect.
//!
//! The SQL frontend (parser, binder, optimizer) is shared with
//! `monetlite`; only storage and execution differ — which is exactly the
//! comparison the paper makes.

#![forbid(unsafe_code)]

pub mod page;
pub mod scalar;
pub mod table;
pub mod volcano;

use monetlite::bind::{Binder, CatalogAccess, ViewDef};
use monetlite::opt::{self, OptFlags, Stats};
use monetlite_sql::ast;
use monetlite_types::{Field, LogicalType, MlError, Result, Schema, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use table::RowTable;

/// Join algorithm profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Block nested loops (SQLite-like): quadratic joins, the source of
    /// the paper's Q7–Q9 timeouts at SF10.
    NestedLoop,
    /// Classic hash join (PostgreSQL-like).
    Hash,
}

/// Row-store configuration.
#[derive(Debug, Clone)]
pub struct RowDbOptions {
    /// Join algorithm.
    pub join_strategy: JoinStrategy,
    /// Resident page budget (pages beyond it spill to disk).
    pub page_cache_pages: usize,
    /// Directory for the database/spill file (None = anonymous temp dir).
    pub path: Option<PathBuf>,
    /// Per-query timeout.
    pub timeout: Option<Duration>,
    /// Optimizer switches: the SQLite profile disables join ordering,
    /// reproducing its weak planner (the paper's Q8 timeout at SF1 comes
    /// from a bad plan, not a slow operator).
    pub opt_flags: OptFlags,
    /// Intermediate-result row ceiling; exceeding it aborts the query as a
    /// timeout (the real system would thrash swap until the 5-minute
    /// limit).
    pub max_intermediate_rows: usize,
}

impl Default for RowDbOptions {
    fn default() -> Self {
        RowDbOptions {
            join_strategy: JoinStrategy::Hash,
            page_cache_pages: usize::MAX,
            path: None,
            timeout: None,
            opt_flags: OptFlags::default(),
            max_intermediate_rows: usize::MAX,
        }
    }
}

/// A row-store database instance.
pub struct RowDb {
    inner: Mutex<Inner>,
    opts: RowDbOptions,
}

struct Inner {
    tables: HashMap<String, RowTable>,
    /// View definitions (database-lifetime, not persisted).
    views: HashMap<String, ViewDef>,
    /// Kept alive for anonymous spill files.
    _tmp: Option<tempfile::TempDir>,
}

/// A fully materialised row-wise result set.
#[derive(Debug, Clone)]
pub struct RowsResult {
    /// Column names.
    pub names: Vec<String>,
    /// Column types.
    pub types: Vec<LogicalType>,
    /// Rows.
    pub rows: Vec<Vec<Value>>,
    /// Rows affected by DML.
    pub rows_affected: u64,
}

struct CatalogView<'a> {
    tables: &'a HashMap<String, RowTable>,
    views: &'a HashMap<String, ViewDef>,
}

impl CatalogAccess for CatalogView<'_> {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .map(|t| t.schema().clone())
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
    }

    fn view_def(&self, name: &str) -> Option<ViewDef> {
        self.views.get(name).cloned()
    }
}

impl Stats for CatalogView<'_> {
    fn table_rows(&self, name: &str) -> usize {
        self.tables.get(&name.to_ascii_lowercase()).map_or(1000, |t| t.row_count().max(1))
    }
}

impl RowDb {
    /// In-memory database with default options (spills use a temp dir).
    pub fn in_memory() -> RowDb {
        Self::open_with(RowDbOptions::default()).expect("in-memory rowstore cannot fail")
    }

    /// SQLite-profile database: automatic-index (hash) joins but a weak
    /// planner that never reorders joins.
    pub fn sqlite_profile() -> RowDb {
        Self::open_with(RowDbOptions {
            join_strategy: JoinStrategy::Hash,
            opt_flags: OptFlags { join_order: false, ..OptFlags::default() },
            ..Default::default()
        })
        .expect("in-memory rowstore cannot fail")
    }

    /// MariaDB-profile database: block-nested-loop joins with a full
    /// optimizer (the slowest Table 1 system).
    pub fn mariadb_profile() -> RowDb {
        Self::open_with(RowDbOptions {
            join_strategy: JoinStrategy::NestedLoop,
            ..Default::default()
        })
        .expect("in-memory rowstore cannot fail")
    }

    /// Open with explicit options.
    pub fn open_with(opts: RowDbOptions) -> Result<RowDb> {
        let tmp = if opts.path.is_none() {
            Some(tempfile::tempdir().map_err(|e| MlError::Io(e.to_string()))?)
        } else {
            None
        };
        Ok(RowDb {
            inner: Mutex::new(Inner { tables: HashMap::new(), views: HashMap::new(), _tmp: tmp }),
            opts,
        })
    }

    /// The configured options.
    pub fn options(&self) -> &RowDbOptions {
        &self.opts
    }

    fn spill_dir(&self, inner: &Inner) -> PathBuf {
        match (&self.opts.path, &inner._tmp) {
            (Some(p), _) => p.clone(),
            (None, Some(t)) => t.path().to_path_buf(),
            (None, None) => std::env::temp_dir(),
        }
    }

    /// Execute one statement for its side effect.
    pub fn execute(&self, sql: &str) -> Result<u64> {
        Ok(self.query(sql)?.rows_affected)
    }

    /// Execute a `;`-separated script; returns the last result.
    pub fn run_script(&self, sql: &str) -> Result<RowsResult> {
        let stmts = monetlite_sql::parse_statements(sql)?;
        let mut last = RowsResult { names: vec![], types: vec![], rows: vec![], rows_affected: 0 };
        for s in stmts {
            last = self.run_statement(s)?;
        }
        Ok(last)
    }

    /// Execute one SQL statement.
    pub fn query(&self, sql: &str) -> Result<RowsResult> {
        let stmt = monetlite_sql::parse_statement(sql)?;
        self.run_statement(stmt)
    }

    fn run_statement(&self, stmt: ast::Statement) -> Result<RowsResult> {
        let empty =
            |n: u64| RowsResult { names: vec![], types: vec![], rows: vec![], rows_affected: n };
        match stmt {
            ast::Statement::Select(sel) => self.run_select(&sel),
            ast::Statement::CreateTable { name, columns } => {
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
                let mut g = self.inner.lock();
                let lname = name.to_ascii_lowercase();
                if g.tables.contains_key(&lname) {
                    return Err(MlError::Catalog(format!("table '{name}' already exists")));
                }
                if g.views.contains_key(&lname) {
                    return Err(MlError::Catalog(format!("'{name}' already exists as a view")));
                }
                let spill = self.spill_dir(&g).join(format!("{lname}.rsdb"));
                g.tables.insert(lname, RowTable::new(schema, spill, self.opts.page_cache_pages)?);
                Ok(empty(0))
            }
            ast::Statement::DropTable { name, if_exists } => {
                let mut g = self.inner.lock();
                let removed = g.tables.remove(&name.to_ascii_lowercase()).is_some();
                if !removed && !if_exists {
                    return Err(MlError::Catalog(format!("unknown table '{name}'")));
                }
                Ok(empty(0))
            }
            ast::Statement::Insert { table, columns, rows } => {
                let n = self.run_insert(&table, columns.as_deref(), &rows)?;
                Ok(empty(n))
            }
            ast::Statement::Delete { table, filter } => {
                let n = self.run_delete(&table, filter.as_ref())?;
                Ok(empty(n))
            }
            ast::Statement::Update { table, sets, filter } => {
                let n = self.run_update(&table, &sets, filter.as_ref())?;
                Ok(empty(n))
            }
            ast::Statement::CreateView { name, columns, query } => {
                let lname = name.to_ascii_lowercase();
                let vd = ViewDef { columns, query: *query };
                let mut g = self.inner.lock();
                if g.tables.contains_key(&lname) {
                    return Err(MlError::Catalog(format!("'{name}' already exists as a table")));
                }
                if g.views.contains_key(&lname) {
                    return Err(MlError::Catalog(format!("view '{name}' already exists")));
                }
                {
                    // Validate the definition eagerly, like the columnar
                    // engine does.
                    let view = CatalogView { tables: &g.tables, views: &g.views };
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
                g.views.insert(lname, vd);
                Ok(empty(0))
            }
            ast::Statement::DropView { name, if_exists } => {
                let mut g = self.inner.lock();
                let removed = g.views.remove(&name.to_ascii_lowercase()).is_some();
                if !removed && !if_exists {
                    return Err(MlError::Catalog(format!("unknown view '{name}'")));
                }
                Ok(empty(0))
            }
            ast::Statement::CreateIndex { .. } => Ok(empty(0)), // B-tree exists anyway
            ast::Statement::Begin | ast::Statement::Commit | ast::Statement::Rollback => {
                Ok(empty(0)) // autocommit engine: transaction statements are no-ops
            }
            ast::Statement::Explain(inner) => {
                let ast::Statement::Select(sel) = *inner else {
                    return Err(MlError::Unsupported("EXPLAIN requires SELECT".into()));
                };
                let g = self.inner.lock();
                let view = CatalogView { tables: &g.tables, views: &g.views };
                let plan = Binder::new(&view).bind_select(&sel)?;
                let plan = opt::optimize(plan, OptFlags::default(), &view, &view)?;
                let text = plan.render();
                Ok(RowsResult {
                    names: vec!["plan".into()],
                    types: vec![LogicalType::Varchar],
                    rows: text.lines().map(|l| vec![Value::Str(l.to_string())]).collect(),
                    rows_affected: 0,
                })
            }
        }
    }

    fn run_select(&self, sel: &ast::SelectStmt) -> Result<RowsResult> {
        let g = self.inner.lock();
        let view = CatalogView { tables: &g.tables, views: &g.views };
        let plan = Binder::new(&view).bind_select(sel)?;
        let plan = opt::optimize(plan, self.opts.opt_flags, &view, &view)?;
        let deadline = self.opts.timeout.map(|t| Instant::now() + t);
        let mut exec = volcano::VolcanoExec {
            tables: &g.tables,
            join_strategy: self.opts.join_strategy,
            deadline,
            timeout: self.opts.timeout,
            max_rows: self.opts.max_intermediate_rows,
        };
        let rows = exec.run(&plan)?;
        Ok(RowsResult {
            names: plan.schema().iter().map(|c| c.name.to_string()).collect(),
            types: plan.schema().iter().map(|c| c.ty).collect(),
            rows,
            rows_affected: 0,
        })
    }

    /// Programmatic row insertion (the netsim server's per-INSERT path and
    /// `dbWriteTable`).
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
        let mut g = self.inner.lock();
        let lname = table.to_ascii_lowercase();
        let t = g
            .tables
            .get_mut(&lname)
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
        let n = rows.len() as u64;
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }

    /// Read an entire table row-wise (`dbReadTable` over the baseline).
    pub fn read_table(&self, table: &str) -> Result<RowsResult> {
        let g = self.inner.lock();
        let lname = table.to_ascii_lowercase();
        let t = g
            .tables
            .get(&lname)
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
        let mut rows = Vec::with_capacity(t.row_count());
        t.scan(|row| {
            rows.push(row);
            Ok(true)
        })?;
        Ok(RowsResult {
            names: t.schema().fields().iter().map(|f| f.name.to_string()).collect(),
            types: t.schema().fields().iter().map(|f| f.ty).collect(),
            rows,
            rows_affected: 0,
        })
    }

    /// Flush all pages to disk (`dbWriteTable`'s durability step; the disk
    /// write is the bottleneck the paper identifies for embedded
    /// ingestion).
    pub fn sync(&self) -> Result<()> {
        let mut g = self.inner.lock();
        for t in g.tables.values_mut() {
            t.sync()?;
        }
        Ok(())
    }

    /// Total page reads from spill files (the swap traffic of Table 1
    /// SF10).
    pub fn io_reads(&self) -> u64 {
        let g = self.inner.lock();
        g.tables.values().map(|t| t.io_reads()).sum()
    }

    fn run_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<ast::Expr>],
    ) -> Result<u64> {
        let lname = table.to_ascii_lowercase();
        let schema = {
            let g = self.inner.lock();
            CatalogView { tables: &g.tables, views: &g.views }.table_schema(&lname)?
        };
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
        let mut materialized = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != positions.len() {
                return Err(MlError::Execution(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    row.len()
                )));
            }
            let mut vals = vec![Value::Null; schema.len()];
            for (e, &pos) in row.iter().zip(&positions) {
                vals[pos] = scalar::eval_const_ast(e)?;
            }
            for (i, f) in schema.fields().iter().enumerate() {
                if vals[i].is_null() && !f.nullable {
                    return Err(MlError::Execution(format!(
                        "NULL in NOT NULL column '{}'",
                        f.name
                    )));
                }
                vals[i] = scalar::coerce_to(std::mem::replace(&mut vals[i], Value::Null), f.ty)?;
            }
            materialized.push(vals);
        }
        self.insert_rows(&lname, materialized)
    }

    fn run_delete(&self, table: &str, filter: Option<&ast::Expr>) -> Result<u64> {
        let lname = table.to_ascii_lowercase();
        let pred = {
            let g = self.inner.lock();
            let view = CatalogView { tables: &g.tables, views: &g.views };
            filter
                .map(|f| Binder::new(&view).bind_table_expr(&lname, f))
                .transpose()?
                .map(|(b, _)| b)
        };
        let mut g = self.inner.lock();
        let t = g
            .tables
            .get_mut(&lname)
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
        t.delete_where(|row| match &pred {
            None => Ok(true),
            Some(p) => Ok(scalar::eval_row(p, row)? == Value::Bool(true)),
        })
    }

    fn run_update(
        &self,
        table: &str,
        sets: &[(String, ast::Expr)],
        filter: Option<&ast::Expr>,
    ) -> Result<u64> {
        let lname = table.to_ascii_lowercase();
        let (pred, set_bound, schema) = {
            let g = self.inner.lock();
            let view = CatalogView { tables: &g.tables, views: &g.views };
            let schema = view.table_schema(&lname)?;
            let binder = Binder::new(&view);
            let pred =
                filter.map(|f| binder.bind_table_expr(&lname, f)).transpose()?.map(|(b, _)| b);
            let mut bound = Vec::new();
            for (col, e) in sets {
                let idx = schema
                    .index_of(col)
                    .ok_or_else(|| MlError::Catalog(format!("unknown column '{col}'")))?;
                let (b, _) = binder.bind_table_expr(&lname, e)?;
                bound.push((idx, b));
            }
            (pred, bound, schema)
        };
        let mut g = self.inner.lock();
        let t = g
            .tables
            .get_mut(&lname)
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
        t.update_where(
            |row| match &pred {
                None => Ok(true),
                Some(p) => Ok(scalar::eval_row(p, row)? == Value::Bool(true)),
            },
            |row| {
                let mut new = row.to_vec();
                for (idx, e) in &set_bound {
                    let v = scalar::eval_row(e, row)?;
                    if v.is_null() && !schema.field_at(*idx).nullable {
                        return Err(MlError::Execution(format!(
                            "NULL in NOT NULL column '{}'",
                            schema.field_at(*idx).name
                        )));
                    }
                    new[*idx] = scalar::coerce_to(v, schema.field_at(*idx).ty)?;
                }
                Ok(new)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowDb {
        let db = RowDb::in_memory();
        db.run_script(
            "CREATE TABLE t (a INT NOT NULL, b VARCHAR(20), p DECIMAL(10,2));
             INSERT INTO t VALUES (1, 'one', 1.50), (2, 'two', 2.50), (3, NULL, 3.00);",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_order() {
        let db = sample();
        let r = db.query("SELECT a, b FROM t WHERE a >= 2 ORDER BY a DESC").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[1][1], Value::Str("two".into()));
    }

    #[test]
    fn aggregates() {
        let db = sample();
        let r = db.query("SELECT count(*), sum(p), avg(a) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Bigint(3));
        assert_eq!(r.rows[0][1].to_string(), "7.00");
        assert_eq!(r.rows[0][2], Value::Double(2.0));
    }

    #[test]
    fn group_by() {
        let db = sample();
        db.execute("INSERT INTO t VALUES (4, 'one', 0.50)").unwrap();
        let r = db.query("SELECT b, count(*) AS c FROM t GROUP BY b ORDER BY c DESC, b").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][1], Value::Bigint(2));
    }

    #[test]
    fn joins_both_strategies() {
        for db in [RowDb::in_memory(), RowDb::sqlite_profile()] {
            db.run_script(
                "CREATE TABLE n (k INT, name VARCHAR(10));
                 CREATE TABLE c (ck INT, nk INT, bal DECIMAL(8,2));
                 INSERT INTO n VALUES (1, 'FR'), (2, 'DE');
                 INSERT INTO c VALUES (10, 1, 5.00), (11, 2, 7.00), (12, 1, 3.00);",
            )
            .unwrap();
            let r = db
                .query(
                    "SELECT name, sum(bal) AS s FROM c, n WHERE nk = k \
                     GROUP BY name ORDER BY s DESC",
                )
                .unwrap();
            assert_eq!(r.rows.len(), 2);
            assert_eq!(r.rows[0][0], Value::Str("FR".into()));
            assert_eq!(r.rows[0][1].to_string(), "8.00");
        }
    }

    #[test]
    fn delete_update() {
        let db = sample();
        assert_eq!(db.execute("DELETE FROM t WHERE a = 2").unwrap(), 1);
        assert_eq!(db.query("SELECT a FROM t").unwrap().rows.len(), 2);
        assert_eq!(db.execute("UPDATE t SET p = p + 1.00 WHERE a = 1").unwrap(), 1);
        let r = db.query("SELECT p FROM t WHERE a = 1").unwrap();
        assert_eq!(r.rows[0][0].to_string(), "2.50");
    }

    #[test]
    fn insert_rows_and_read_table() {
        let db = sample();
        db.insert_rows(
            "t",
            vec![vec![
                Value::Int(9),
                Value::Null,
                Value::Decimal(monetlite_types::Decimal::new(900, 2)),
            ]],
        )
        .unwrap();
        let r = db.read_table("t").unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.names[2], "p");
    }

    #[test]
    fn not_null_enforced() {
        let db = sample();
        assert!(db.execute("INSERT INTO t VALUES (NULL, 'x', 0.00)").is_err());
    }

    #[test]
    fn timeout_fires_on_nested_loop_join() {
        let db = RowDb::open_with(RowDbOptions {
            join_strategy: JoinStrategy::NestedLoop,
            timeout: Some(Duration::from_millis(10)),
            ..Default::default()
        })
        .unwrap();
        db.execute("CREATE TABLE big (x INT)").unwrap();
        let rows: Vec<Vec<Value>> = (0..3000).map(|i| vec![Value::Int(i)]).collect();
        db.insert_rows("big", rows).unwrap();
        let r = db.query("SELECT count(*) FROM big a, big b WHERE a.x + b.x = 100000");
        assert!(matches!(r, Err(MlError::Timeout { .. })), "{r:?}");
    }

    #[test]
    fn spill_to_disk_and_read_back() {
        let db =
            RowDb::open_with(RowDbOptions { page_cache_pages: 2, ..Default::default() }).unwrap();
        db.execute("CREATE TABLE s (x INT, pad VARCHAR(100))").unwrap();
        let pad = "p".repeat(100);
        let rows: Vec<Vec<Value>> =
            (0..2000).map(|i| vec![Value::Int(i), Value::Str(pad.clone())]).collect();
        db.insert_rows("s", rows).unwrap();
        // Scanning must reload spilled pages from disk.
        let r = db.query("SELECT count(*) FROM s").unwrap();
        assert_eq!(r.rows[0][0], Value::Bigint(2000));
        assert!(db.io_reads() > 0, "expected page reads from spill file");
    }

    #[test]
    fn persistent_sync() {
        let dir = tempfile::tempdir().unwrap();
        let db = RowDb::open_with(RowDbOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        db.execute("CREATE TABLE k (x INT)").unwrap();
        db.insert_rows("k", vec![vec![Value::Int(42)]]).unwrap();
        db.sync().unwrap();
        assert!(dir.path().join("k.rsdb").exists());
    }
}
