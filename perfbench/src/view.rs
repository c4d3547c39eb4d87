//! The layered statement path: the same parse → bind → optimize →
//! execute sequence `Connection::query` runs for an uncached SELECT, but
//! driven from outside through each layer's public entry point with a
//! span around every call.

use crate::trace::Recorder;
use monetlite::bind::{Binder, CatalogAccess, ViewDef};
use monetlite::exec::{self, Chunk, CountersSnapshot, ExecContext, ExecOptions, TableProvider};
use monetlite::opt::{self, OptFlags, StatsMode};
use monetlite::storage::{CatalogSnapshot, TableMeta};
use monetlite::types::{MlError, Result, Schema};
use monetlite::Database;
use monetlite_sql::ast;
use std::collections::HashMap;
use std::sync::Arc;

/// Catalog, table and statistics provider over one committed snapshot,
/// mirroring the engine's private per-transaction view for a transaction
/// with no writes of its own.
pub struct SnapshotView<'a> {
    snapshot: Arc<CatalogSnapshot>,
    views: &'a HashMap<String, ViewDef>,
}

impl<'a> SnapshotView<'a> {
    /// View over the database's current committed state.
    pub fn new(db: &Database, views: &'a HashMap<String, ViewDef>) -> SnapshotView<'a> {
        SnapshotView { snapshot: db.store().snapshot(), views }
    }

    fn meta(&self, name: &str) -> Result<&Arc<TableMeta>> {
        self.snapshot
            .tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
    }
}

impl CatalogAccess for SnapshotView<'_> {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.meta(name)?.schema.clone())
    }

    fn view_def(&self, name: &str) -> Option<ViewDef> {
        self.views.get(name).cloned()
    }
}

impl TableProvider for SnapshotView<'_> {
    fn table_meta(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.meta(name).cloned()
    }
}

impl opt::Stats for SnapshotView<'_> {
    fn table_rows(&self, name: &str) -> usize {
        self.meta(name).map_or(1000, |t| t.data.visible_rows().max(1))
    }

    fn column_stats(&self, name: &str, col: usize) -> Option<opt::ColStats> {
        let meta = self.meta(name).ok()?;
        let st = meta.data.cols.get(col)?.entry().ok()?.stats().ok()?;
        let visible = meta.data.visible_rows() as f64;
        Some(opt::ColStats {
            null_frac: st.null_frac(),
            ndv: st.ndv().min(visible.max(1.0)),
            min_key: st.has_range.then_some(st.min_key),
            max_key: st.has_range.then_some(st.max_key),
        })
    }
}

/// Parse a `CREATE VIEW` statement into the definition the binder expands
/// (the engine keeps view definitions private to the `Database`).
pub fn view_def(create_view_sql: &str) -> Result<(String, ViewDef)> {
    match monetlite_sql::parse_statement(create_view_sql)? {
        ast::Statement::CreateView { name, columns, query } => {
            Ok((name.to_ascii_lowercase(), ViewDef { columns, query: *query }))
        }
        _ => Err(MlError::Unsupported("expected CREATE VIEW".into())),
    }
}

/// What one layered statement produced.
pub struct Layered {
    /// The materialised result.
    pub chunk: Chunk,
    /// Executor counters of this statement.
    pub counters: CountersSnapshot,
}

/// Run one SELECT layer by layer, recording spans `layered` ⊃ {`sql.parse`,
/// `bind.bind`, `opt.optimize`, `exec.execute`} under statement id `stmt`.
pub fn run_layered(
    db: &Database,
    views: &HashMap<String, ViewDef>,
    opts: ExecOptions,
    sql: &str,
    stmt: u64,
    rec: &mut Recorder,
) -> Result<Layered> {
    rec.span("layered", stmt, |rec| {
        let view = SnapshotView::new(db, views);
        let parsed = rec.span("sql.parse", stmt, |_| monetlite_sql::parse_statement(sql))?;
        let ast::Statement::Select(sel) = parsed else {
            return Err(MlError::Unsupported("layered path runs SELECT only".into()));
        };
        let plan = rec.span("bind.bind", stmt, |_| Binder::new(&view).bind_select(&sel))?;
        let stats = opt::ModedStats { inner: &view, mode: StatsMode::Real };
        let plan = rec.span("opt.optimize", stmt, |_| {
            opt::optimize(plan, OptFlags::default(), &stats, &view)
        })?;
        let ctx = ExecContext::new(&view, opts).with_vmem(db.store().vmem().clone());
        let chunk = rec.span("exec.execute", stmt, |_| exec::execute(&plan, &ctx))?;
        Ok(Layered { chunk, counters: ctx.counters.snapshot() })
    })
}
