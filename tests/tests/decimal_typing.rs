//! A DECIMAL's width is a declaration, not a representation.
//!
//! A `Bat::Decimal` stores an i64 and a scale; two DECIMALs of one scale
//! hold the same bits whatever widths they declare
//! (`LogicalType::same_repr`). So the binder's implicit coercions —
//! comparisons, join keys, IN lists, scalar subqueries, CASE branches,
//! arithmetic operands and INSERT/UPDATE values — stop at the
//! representation: a DECIMAL(15,2) column meets a DECIMAL(18,2) literal as
//! a bare column, which every access path can read. A real change (a scale
//! change, INT → DECIMAL) still casts, and an explicit `CAST` keeps the
//! width it declares.
//!
//! The second half pins the literals a column's scale cannot hold: the
//! column is widened to the literal's scale, never the literal narrowed to
//! the column's (`Decimal::rescale` truncates toward zero, which would
//! turn `p >= 0.051` into `p >= 0.05`). Every lattice row and the plan
//! cache must give the row store's and a hand-computed answer.

use monetlite::bind::{cast_to, Binder, CatalogAccess, ViewDef};
use monetlite::exec::ExecOptions;
use monetlite::expr::BExpr;
use monetlite::opt::{self, NoStats, OptFlags};
use monetlite::plan::Plan;
use monetlite::Database;
use monetlite_sql::{parse_statement, Statement};
use monetlite_tests::{answer_image, connect_pinned, pinned, rows_of, Corpus, Twin};
use monetlite_tpch::queries;
use monetlite_types::nulls::{NULL_I32, NULL_I64};
use monetlite_types::{ColumnBuffer, Decimal, LogicalType, Result, Schema, Value};

/// The tables of a database and Q15's view, as the binder sees them.
struct Catalog {
    db: Database,
    views: Vec<(String, ViewDef)>,
}

impl CatalogAccess for Catalog {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.db.store().snapshot().table(name)?.schema.clone())
    }

    fn view_def(&self, name: &str) -> Option<ViewDef> {
        self.views.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone())
    }
}

/// Tables with DECIMALs of one scale and several widths (`p`, `q`, `r`),
/// of another scale (`s`), and an INT (`k`).
const DDL: &str = "CREATE TABLE d (k INT, p DECIMAL(15,2), q DECIMAL(12,2), r DECIMAL(18,2), \
                   s DECIMAL(15,3)); \
                   CREATE TABLE e (k INT, q DECIMAL(12,2))";

fn catalog() -> Catalog {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(queries::DDL).unwrap();
    conn.run_script(DDL).unwrap();
    let views = (1..=22)
        .filter_map(queries::setup_sql)
        .map(|sql| match parse_statement(sql).unwrap() {
            Statement::CreateView { name, columns, query } => {
                (name.to_ascii_lowercase(), ViewDef { columns, query: *query })
            }
            other => panic!("not a view: {other:?}"),
        })
        .collect();
    Catalog { db, views }
}

/// Bind and optimize a SELECT as the engine does.
fn plan(cat: &Catalog, sql: &str) -> Plan {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    let p = Binder::new(cat).bind_select(&sel).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    opt::optimize(p, OptFlags::default(), &NoStats, cat).unwrap()
}

/// Every expression of a plan and its subexpressions.
fn walk(p: &Plan, visit: &mut dyn FnMut(&BExpr)) {
    let mut all = |es: &[BExpr]| es.iter().for_each(|e| e.walk(visit));
    match p {
        Plan::Scan { filters, .. } => all(filters),
        Plan::Filter { input, pred } => {
            all(std::slice::from_ref(pred));
            walk(input, visit);
        }
        Plan::Project { input, exprs, .. } => {
            all(exprs);
            walk(input, visit);
        }
        Plan::Join { left, right, left_keys, right_keys, residual, .. } => {
            all(left_keys);
            all(right_keys);
            all(residual.as_slice());
            walk(left, visit);
            walk(right, visit);
        }
        Plan::Aggregate { input, groups, aggs, .. } => {
            all(groups);
            aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(|e| e.walk(visit));
            walk(input, visit);
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } | Plan::TopN { input, .. } => {
            walk(input, visit)
        }
        Plan::Values { rows, .. } => rows.iter().for_each(|r| r.iter().for_each(|e| e.walk(visit))),
    }
}

/// A cast that changes no representation: its input already stores the
/// target's bits. (A cast of an untyped NULL is what types it.)
fn width_only(e: &BExpr) -> bool {
    matches!(e, BExpr::Cast { input, ty }
        if input.ty().same_repr(*ty) && !matches!(**input, BExpr::Lit(ref v) if v.is_null()))
}

/// The target types of the casts in `p`.
fn cast_targets(p: &Plan) -> Vec<LogicalType> {
    let mut out = Vec::new();
    walk(p, &mut |e| {
        if let BExpr::Cast { ty, .. } = e {
            out.push(*ty);
        }
    });
    out
}

/// Comparisons, IN lists, a scalar subquery, join keys, CASE branches and
/// arithmetic over DECIMALs of one scale and several widths, and the real
/// changes that must still cast.
const CORPUS: [&str; 14] = [
    "SELECT k FROM d WHERE p >= 0.05 AND p <= 0.07",
    "SELECT k FROM d WHERE p BETWEEN 0.05 AND 0.07",
    "SELECT k FROM d WHERE p IN (0.05, 1.00, 2)",
    "SELECT k FROM d WHERE p = q OR q < r",
    "SELECT d.k FROM d, e WHERE d.p = e.q",
    "SELECT d.k FROM d JOIN e ON d.q = e.q AND d.p > e.q",
    "SELECT k FROM d WHERE p > (SELECT max(q) FROM e)",
    "SELECT k FROM d WHERE q IN (SELECT q FROM e)",
    "SELECT CASE WHEN k > 1 THEN p ELSE q END, CASE WHEN k > 2 THEN r ELSE 0.50 END FROM d",
    "SELECT p * (1 - q), p + r, p - 1.00, -p FROM d",
    "SELECT k, sum(p * q), sum(p) FROM d GROUP BY k HAVING sum(p) > 10.00",
    "SELECT k FROM d WHERE p = 0.123 OR p >= 0.051 OR s = p",
    "SELECT k FROM d WHERE k < 2.5 AND s < q",
    "SELECT k, p + s FROM d WHERE p IN (0.05, 0.051)",
];

#[test]
fn no_implicit_cast_changes_only_a_width() {
    let cat = catalog();
    let mut found = Vec::new();
    let sqls = queries::all().map(|(n, sql)| (format!("Q{n}"), sql));
    for (name, sql) in sqls.chain(CORPUS.iter().map(|s| (s.to_string(), *s))) {
        walk(&plan(&cat, sql), &mut |e| {
            if width_only(e) {
                found.push(format!("{name}: {e}"));
            }
        });
    }
    // UPDATE values are expressions coerced to the column's type by
    // `cast_to`, as the engine does: one of the column's scale is stored as
    // it is. (INSERT values are constants, coerced as values: no cast node
    // arises there.)
    let binder = Binder::new(&cat);
    let schema = cat.table_schema("d").unwrap();
    for (col, value) in [("p", "q"), ("q", "p * 1"), ("r", "p + q"), ("p", "0.05"), ("s", "p")] {
        let expr = match parse_statement(&format!("UPDATE d SET {col} = {value}")).unwrap() {
            Statement::Update { mut sets, .. } => sets.remove(0).1,
            other => panic!("not an UPDATE: {other:?}"),
        };
        let (bound, _) = binder.bind_table_expr("d", &expr).unwrap();
        let ty = schema.field_at(schema.index_of(col).unwrap()).ty;
        cast_to(bound, ty).unwrap().walk(&mut |e| {
            if width_only(e) {
                found.push(format!("SET {col} = {value}: {e}"));
            }
        });
    }
    assert!(found.is_empty(), "casts that change only a width:\n{}", found.join("\n"));

    // The real changes still cast: the scale changes of `s = p` and of
    // Q11's HAVING, and INT → DECIMAL in `k < 2.5`, Q11 and Q20.
    let dec = |scale| LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale };
    let casts = |sql| cast_targets(&plan(&cat, sql));
    assert!(casts(CORPUS[11]).contains(&dec(3)));
    assert!(casts(CORPUS[12]).contains(&dec(1)));
    assert!(casts(queries::sql(11)).contains(&dec(0)));
    assert!(casts(queries::sql(11)).contains(&dec(6)));
    assert!(casts(queries::sql(20)).contains(&dec(3)));
}

/// The corpus runs: unwidened DECIMALs of one scale meet in comparisons,
/// join keys, CASE branches and arithmetic on every lattice row as in the
/// row store.
#[test]
fn the_corpus_agrees_with_the_row_store_on_every_lattice_row() {
    let twin = Twin::default();
    twin.script(DDL);
    let dec = |n: i64, scale, f: fn(i64) -> i64| ColumnBuffer::Decimal {
        data: (0..n).map(|i| if i % 23 == 7 { NULL_I64 } else { f(i) }).collect(),
        scale,
    };
    twin.append(
        "d",
        vec![
            ColumnBuffer::Int((0..400).map(|i| i % 10).collect()),
            dec(400, 2, |i| i * 7 % 300 - 100),
            dec(400, 2, |i| i * 3 % 200 - 50),
            dec(400, 2, |i| i * 11 % 500),
            dec(400, 3, |i| i * 13 % 700 - 60),
        ],
    );
    twin.append("e", vec![ColumnBuffer::Int((0..60).collect()), dec(60, 2, |i| i * 5 % 200 - 50)]);
    twin.check(&CORPUS, Corpus::tiny(64));
}

#[test]
fn an_explicit_cast_reports_its_declared_width() {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(DDL).unwrap();
    conn.execute("INSERT INTO d VALUES (1, 1.25, 2.50, 3.75, 0.125)").unwrap();
    conn.execute("INSERT INTO d (k, q) VALUES (2, 12.5)").unwrap();
    conn.execute("UPDATE d SET p = q, r = q + p WHERE k = 1").unwrap();
    let r = conn.query("SELECT k, CAST(p AS DECIMAL(12,2)), p, r, q FROM d ORDER BY k").unwrap();
    assert_eq!(r.types()[1], LogicalType::Decimal { width: 12, scale: 2 });
    assert_eq!(r.types()[2], LogicalType::Decimal { width: 15, scale: 2 });
    let dec = |raw| Value::Decimal(Decimal::new(raw, 2));
    assert_eq!(r.row(0), [Value::Int(1), dec(250), dec(250), dec(375), dec(250)]);
    assert_eq!(r.row(1), [Value::Int(2), Value::Null, Value::Null, Value::Null, dec(1250)]);
    let cat = Catalog { db, views: Vec::new() };
    let p = plan(&cat, "SELECT CAST(p AS DECIMAL(12,2)) FROM d");
    assert_eq!(cast_targets(&p), [LogicalType::Decimal { width: 12, scale: 2 }]);
}

// ---------------------------------------------------------------------------
// Literals a column's scale cannot hold
// ---------------------------------------------------------------------------

const ROWS: i64 = 3000;

/// `p`'s raw value (hundredths) in row `i`, or `None` for NULL: -2.00 to
/// 2.00 in steps of 0.01, so 0.05, 0.06 and 0.07 and their negatives are
/// all present; every 13th row is NULL.
fn p_raw(i: i64) -> Option<i64> {
    (i % 13 != 5).then_some(i * 37 % 401 - 200)
}

/// `k` in row `i`: 0 to 9, every 17th row NULL.
fn k_of(i: i64) -> Option<i32> {
    (i % 17 != 3).then_some((i % 10) as i32)
}

/// A DECIMAL(15,2) column with NULLs and negative values, and an INT.
fn twin() -> Twin {
    let twin = Twin::default();
    twin.script("CREATE TABLE m (k INT, p DECIMAL(15,2))");
    twin.append(
        "m",
        vec![
            ColumnBuffer::Int((0..ROWS).map(|i| k_of(i).unwrap_or(NULL_I32)).collect()),
            ColumnBuffer::Decimal {
                data: (0..ROWS).map(|i| p_raw(i).unwrap_or(NULL_I64)).collect(),
                scale: 2,
            },
        ],
    );
    twin
}

/// Rows whose `p` (in thousandths) satisfies `keep`.
fn count_p(keep: impl Fn(i64) -> bool) -> usize {
    (0..ROWS).filter_map(p_raw).filter(|&raw| keep(raw * 10)).count()
}

/// Each statement with its hand-computed count (thousandths for `p`).
fn out_of_scale() -> Vec<(&'static str, usize)> {
    vec![
        ("SELECT count(*) FROM m WHERE p = 0.123", 0),
        ("SELECT count(*) FROM m WHERE p >= 0.051", count_p(|p| p >= 51)),
        ("SELECT count(*) FROM m WHERE p <= 0.075", count_p(|p| p <= 75)),
        ("SELECT count(*) FROM m WHERE p < -0.051", count_p(|p| p < -51)),
        ("SELECT count(*) FROM m WHERE NOT (p = 0.123)", count_p(|_| true)),
        ("SELECT count(*) FROM m WHERE p IN (0.05, 0.051)", count_p(|p| p == 50)),
        (
            "SELECT count(*) FROM m WHERE k < 2.5",
            (0..ROWS).filter_map(k_of).filter(|&k| k <= 2).count(),
        ),
    ]
}

/// Statements whose answer is more than a count: the comparison in the
/// select list, NULLs and negatives included.
const OUT_OF_SCALE_ROWS: [&str; 3] = [
    "SELECT p, p = 0.123, p >= 0.051, p < -0.051 FROM m WHERE k = 3",
    "SELECT k, count(*) FROM m WHERE p >= 0.051 OR p IS NULL GROUP BY k",
    "SELECT k, p FROM m WHERE p IN (0.05, 0.051) OR p = -0.06 ORDER BY k, p",
];

#[test]
fn out_of_scale_literals_agree_with_the_row_store_on_every_lattice_row() {
    let twin = twin();
    let corpus = Corpus::tiny(333);
    for (sql, want) in out_of_scale() {
        assert!(want > 0 || sql.contains("0.123"), "{sql}: the data must select rows");
        twin.expect(sql, corpus, &[&want.to_string()]);
    }
    twin.check(&OUT_OF_SCALE_ROWS, corpus);
}

#[test]
fn out_of_scale_literals_through_the_plan_cache_agree_with_uncached_answers() {
    let twin = twin();
    let answer = |conn: &mut monetlite::Connection, sql: &str| {
        let r = conn.query(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        answer_image(sql, &rows_of(&r))
    };
    let uncached = |sql: &str| answer(&mut connect_pinned(&twin.db, pinned(1, 1024)), sql);
    let opts = ExecOptions { use_plan_cache: true, plan_cache_bytes: 64 << 20, ..pinned(1, 1024) };
    // A representative, then fresh literals: of another scale (a shape of
    // its own) and of the same scale (a plan-cache hit).
    let mut hits = 0;
    for template in [
        "SELECT count(*) FROM m WHERE p = {}",
        "SELECT count(*) FROM m WHERE p >= {}",
        "SELECT count(*) FROM m WHERE p <= {}",
        "SELECT count(*) FROM m WHERE p < -{}",
        "SELECT count(*) FROM m WHERE NOT (p = {})",
        "SELECT p, p = {} FROM m WHERE k = 3",
        "SELECT count(*) FROM m WHERE p IN (0.05, {})",
    ] {
        let mut conn = connect_pinned(&twin.db, opts);
        for lit in ["0.05", "0.051", "0.052", "0.123", "0.075", "0.07"] {
            let sql = template.replace("{}", lit);
            assert_eq!(answer(&mut conn, &sql), uncached(&sql), "plan cache: {sql}");
            hits += conn.last_exec_counters().unwrap().plan_cache_hits;
        }
    }
    let mut conn = connect_pinned(&twin.db, opts);
    for lit in ["2", "2.5", "3.5", "-0.5"] {
        let sql = format!("SELECT count(*) FROM m WHERE k < {lit}");
        assert_eq!(answer(&mut conn, &sql), uncached(&sql), "plan cache: {sql}");
        hits += conn.last_exec_counters().unwrap().plan_cache_hits;
    }
    assert!(hits > 0, "no statement was served from the plan cache");
}
