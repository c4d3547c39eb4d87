//! The optimizer's work, counted exactly: how many times `opt::optimize`
//! asks its statistics provider for a table's row count
//! (`Stats::table_rows`) and for a column's statistics
//! (`Stats::column_stats`) while it plans each of the 22 TPC-H queries
//! over the golden corpus.
//!
//! A lookup goes through the catalog, so planning pays for each one. Within
//! one `optimize` call the snapshot does not change, and the optimizer asks
//! for each table's rows and each column's statistics once, however many
//! joins it costs. The counts below are pinned: a pass that starts asking
//! again shows up here as a number, not as a slower benchmark.

use monetlite::bind::{Binder, CatalogAccess, ViewDef};
use monetlite::opt::{self, ColStats, OptFlags, Stats};
use monetlite::storage::CatalogSnapshot;
use monetlite_sql::{parse_statement, Statement};
use monetlite_tests::tpch_db;
use monetlite_tpch::queries;
use monetlite_types::{Result, Schema};
use std::cell::Cell;
use std::sync::Arc;

/// The golden corpus's committed tables and Q15's view, as the engine's
/// transaction view presents them to the binder and the optimizer.
struct Snapshot {
    snap: Arc<CatalogSnapshot>,
    views: Vec<(String, ViewDef)>,
}

impl CatalogAccess for Snapshot {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.snap.table(name)?.schema.clone())
    }

    fn view_def(&self, name: &str) -> Option<ViewDef> {
        self.views.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone())
    }
}

impl Stats for Snapshot {
    fn table_rows(&self, name: &str) -> usize {
        self.snap.table(name).map_or(1000, |t| t.data.visible_rows().max(1))
    }

    fn column_stats(&self, name: &str, col: usize) -> Option<ColStats> {
        let meta = self.snap.table(name).ok()?;
        let st = meta.data.cols.get(col)?.entry().ok()?.stats().ok()?;
        let visible = meta.data.visible_rows() as f64;
        Some(ColStats {
            null_frac: st.null_frac(),
            ndv: st.ndv().min(visible.max(1.0)),
            min_key: st.has_range.then_some(st.min_key),
            max_key: st.has_range.then_some(st.max_key),
        })
    }
}

/// A [`Stats`] that counts the calls it passes on.
struct Counting<'a> {
    inner: &'a dyn Stats,
    table_rows: Cell<usize>,
    column_stats: Cell<usize>,
}

impl Stats for Counting<'_> {
    fn table_rows(&self, name: &str) -> usize {
        self.table_rows.set(self.table_rows.get() + 1);
        self.inner.table_rows(name)
    }

    fn physical_rows(&self, name: &str) -> usize {
        self.inner.physical_rows(name)
    }

    fn column_stats(&self, table: &str, col: usize) -> Option<ColStats> {
        self.column_stats.set(self.column_stats.get() + 1);
        self.inner.column_stats(table, col)
    }
}

/// `(table_rows, column_stats)` calls `opt::optimize` makes on Q1–Q22.
const CALLS: [(usize, usize); 22] = [
    (0, 0),
    (5, 10),
    (3, 7),
    (0, 0),
    (6, 13),
    (0, 0),
    (5, 11),
    (7, 16),
    (6, 10),
    (4, 8),
    (3, 5),
    (2, 2),
    (0, 0),
    (2, 1),
    (2, 2),
    (3, 6),
    (2, 2),
    (3, 4),
    (2, 6),
    (5, 10),
    (4, 8),
    (1, 0),
];

#[test]
fn optimize_looks_up_each_statistic_once_per_call() {
    let views = (1..=22)
        .filter_map(queries::setup_sql)
        .map(|sql| match parse_statement(sql).unwrap() {
            Statement::CreateView { name, columns, query } => {
                (name.to_ascii_lowercase(), ViewDef { columns, query: *query })
            }
            other => panic!("not a view: {other:?}"),
        })
        .collect();
    let view = Snapshot { snap: tpch_db().store().snapshot(), views };
    let mut got = Vec::new();
    for (n, sql) in queries::all() {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("Q{n} is not a SELECT");
        };
        let plan = Binder::new(&view).bind_select(&sel).unwrap_or_else(|e| panic!("Q{n}: {e}"));
        let stats = Counting { inner: &view, table_rows: Cell::new(0), column_stats: Cell::new(0) };
        opt::optimize(plan, OptFlags::default(), &stats, &view)
            .unwrap_or_else(|e| panic!("Q{n}: {e}"));
        got.push((stats.table_rows.get(), stats.column_stats.get()));
    }
    let diff: Vec<String> = got
        .iter()
        .zip(&CALLS)
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("Q{}: {g:?}, pinned {w:?}", i + 1))
        .collect();
    assert!(diff.is_empty(), "(table_rows, column_stats) calls moved:\n{}", diff.join("\n"));
}
