//! Streaming-vs-materialized engine parity: the chunk-at-a-time pipeline
//! engine must produce exactly the results of the paper's
//! operator-at-a-time engine on every workload -- the full TPC-H Q1-Q22
//! suite under the thread/vector matrix and a 24kB spill budget -- at
//! every thread count, including chunk-boundary
//! edge cases (empty tables, sub-vector tables, NULL sentinels straddling
//! vector boundaries, LIMIT early-exit).

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite_tpch::{generate, load_monet, queries};
use monetlite_types::{ColumnBuffer, Value};

/// Run `sql` under the given options, returning all rows.
fn run(db: &monetlite::Database, sql: &str, opts: ExecOptions) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    (0..r.nrows()).map(|i| r.row(i)).collect()
}

/// Run `sql` and also return the execution counters (spill assertions).
fn run_counting(
    db: &monetlite::Database,
    sql: &str,
    opts: ExecOptions,
) -> (Vec<Vec<Value>>, monetlite::exec::CountersSnapshot) {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    let rows = (0..r.nrows()).map(|i| r.row(i)).collect();
    (rows, conn.last_exec_counters().expect("counters after query"))
}

/// Run per-query DDL (Q15's CREATE VIEW) around `f`. Views are
/// database-level, so one setup covers every engine-option variant run
/// inside `f`.
fn with_query_setup(db: &monetlite::Database, n: usize, f: impl FnOnce()) {
    if let Some(ddl) = queries::setup_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
    }
    f();
    if let Some(ddl) = queries::teardown_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
    }
}

fn materialized() -> ExecOptions {
    ExecOptions { mode: ExecMode::Materialized, ..Default::default() }
}

fn streaming(threads: usize, vector_size: usize) -> ExecOptions {
    ExecOptions { mode: ExecMode::Streaming, threads, vector_size, ..Default::default() }
}

/// Compare row-for-row (both engines must agree on order too: all the
/// compared queries either ORDER BY or aggregate to one row).
fn assert_rows_eq(sql: &str, a: &[Vec<Value>], b: &[Vec<Value>], label: &str) {
    assert_eq!(a.len(), b.len(), "row count for {sql} ({label})");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for (u, v) in x.iter().zip(y) {
            let ok = match (u, v) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(1.0) || (p.is_nan() && q.is_nan())
                }
                _ => u == v,
            };
            assert!(ok, "{sql} ({label}) row {i}: {u:?} vs {v:?}");
        }
    }
}

#[test]
fn tpch_queries_agree_across_engines_and_threads() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    for (n, sql) in queries::all() {
        with_query_setup(&db, n, || {
            let base = run(&db, sql, materialized());
            // Single-thread streaming must match row-for-row; tiny vectors
            // force many chunk boundaries.
            for (threads, vs) in [(1, 64 * 1024), (1, 1000), (4, 1000), (8, 512)] {
                let got = run(&db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("Q{n} t={threads} v={vs}"));
            }
        });
    }
}

#[test]
fn tpch_queries_agree_spilled_vs_unspilled() {
    // Out-of-core execution: an artificially tiny memory budget forces
    // the pipeline breakers (hash-aggregate group tables, hash-join build
    // sides, sort buffers) to spill partitions/runs to disk. Results must
    // match the unbounded run row for row on TPC-H Q1–Q10.
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let total_spilled = std::cell::Cell::new(0u64);
    for (n, sql) in queries::all() {
        with_query_setup(&db, n, || {
            let base = run(&db, sql, streaming(1, 1024));
            for threads in [1, 4] {
                let mut tiny = streaming(threads, 1024);
                tiny.memory_budget = 24 * 1024;
                let (got, counters) = run_counting(&db, sql, tiny);
                assert_rows_eq(sql, &base, &got, &format!("Q{n} spilled t={threads}"));
                total_spilled.set(total_spilled.get() + counters.spilled_partitions);
            }
        });
    }
    assert!(total_spilled.get() > 0, "a 24kB budget must force spilling somewhere in Q1–Q22");
}

#[test]
fn tpch_queries_agree_with_candidates_on_and_off() {
    // Candidate-list execution must be invisible in results: every TPC-H
    // query returns identical rows with selection pass-through + zonemap
    // skipping (streaming) and without either (the materialized engine,
    // which never carries a selection), across thread counts and vector
    // sizes that force many chunk boundaries.
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    for (n, sql) in queries::all() {
        with_query_setup(&db, n, || {
            let base = run(&db, sql, materialized());
            for (threads, vs) in [(1, 1024), (1, 333), (4, 1024)] {
                let got = run(&db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("Q{n} candidates t={threads} v={vs}"));
            }
        });
    }
}

/// Reorder a generated table's rows by the permutation (applied to every
/// column buffer) — used to simulate date-clustered ingest order.
fn permute_table(t: &mut monetlite_tpch::gen::Table, perm: &[usize]) {
    use monetlite_types::ColumnBuffer as C;
    for c in &mut t.cols {
        *c = match c {
            C::Bool(v) => C::Bool(perm.iter().map(|&i| v[i]).collect()),
            C::Int(v) => C::Int(perm.iter().map(|&i| v[i]).collect()),
            C::Bigint(v) => C::Bigint(perm.iter().map(|&i| v[i]).collect()),
            C::Double(v) => C::Double(perm.iter().map(|&i| v[i]).collect()),
            C::Decimal { data, scale } => {
                C::Decimal { data: perm.iter().map(|&i| data[i]).collect(), scale: *scale }
            }
            C::Varchar(v) => C::Varchar(perm.iter().map(|&i| v[i].clone()).collect()),
            C::Date(v) => C::Date(perm.iter().map(|&i| v[i]).collect()),
        };
    }
}

#[test]
fn q6_zonemap_skips_on_date_clustered_lineitem() {
    // The acceptance shape: lineitem ingested in ship-date order (the
    // canonical clustered fact table) lets Q6's one-year date range skip
    // whole vectors via zonemaps — with results identical to the
    // materialized engine at one thread, whose unranged scan cannot skip
    // a zone that holds a match. SF 0.02 gives ~120k lineitem rows, i.e.
    // many 8Ki-row zones.
    let mut data = generate(0.02, 7);
    let ship_col = data.lineitem.schema.index_of("l_shipdate").expect("lineitem has l_shipdate");
    let monetlite_types::ColumnBuffer::Date(dates) = &data.lineitem.cols[ship_col] else {
        panic!("l_shipdate must be DATE");
    };
    let mut perm: Vec<usize> = (0..dates.len()).collect();
    perm.sort_by_key(|&i| dates[i]);
    permute_table(&mut data.lineitem, &perm);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = queries::sql(6);
    let base = run(&db, sql, ExecOptions { threads: 1, ..materialized() });
    let (got, counters) = run_counting(&db, sql, streaming(1, 2048));
    assert_rows_eq(sql, &base, &got, "Q6 date-clustered");
    assert!(
        counters.vectors_skipped > 0,
        "Q6's shipdate range must skip zones on date-clustered lineitem (got {counters:?})"
    );
    assert!(counters.sel_vectors > 0, "Q6's selective filter must carry candidate lists");
}

#[test]
fn zonemap_skipping_correct_across_deletes_and_vector_boundaries() {
    // Deletes shrink the set of matches but never invalidate a zonemap
    // skip; probes landing exactly on zone / vector boundaries must not
    // lose rows. Compare against the materialized engine at one thread
    // (its unranged scan cannot skip a zone that holds a match) at
    // awkward vector sizes, over a clustered key with a deleted stripe.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
    let n: i32 = 40_000;
    conn.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    // Delete a stripe straddling the first 8Ki zone boundary and a few
    // scattered rows (every 97th).
    conn.execute("DELETE FROM t WHERE k >= 8000 AND k < 8500").unwrap();
    conn.execute("DELETE FROM t WHERE k % 97 = 0").unwrap();
    drop(conn);
    // Probes at and around zone boundaries (8192-row zones), including
    // empty ranges and ranges entirely within the deleted stripe.
    let queries = [
        "SELECT count(*), sum(v) FROM t WHERE k < 100".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k < 8192".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 8191 AND k <= 8193".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 8100 AND k < 8400".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 16384 AND k < 16390".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 39999".to_string(),
        "SELECT count(*), sum(v) FROM t WHERE k >= 40000".to_string(),
        "SELECT count(*) FROM t WHERE k = 8192".to_string(),
    ];
    let mut any_skipped = 0u64;
    for sql in &queries {
        let base = run(&db, sql, ExecOptions { threads: 1, ..materialized() });
        for vs in [512, 1000, 1024, 8192, 64 * 1024] {
            let (got, counters) = run_counting(&db, sql, streaming(1, vs));
            assert_rows_eq(sql, &base, &got, &format!("v={vs}"));
            any_skipped += counters.vectors_skipped;
        }
    }
    assert!(any_skipped > 0, "selective probes over clustered data must skip vectors");
}

#[test]
fn grouped_aggregate_and_join_spill_with_vmem_budget_smaller_than_state() {
    // The acceptance shape: a Vmem budget smaller than the query's
    // build/group state makes a grouped-aggregate + hash-join TPC-H query
    // spill (counters > 0) while returning results identical to the
    // unbounded run. Q10 groups by customer attributes (thousands of
    // groups with VARCHAR keys) on top of a three-way join; Q3 builds on
    // filtered orders and groups by l_orderkey.
    let data = generate(0.005, 42);
    let unbounded = monetlite::Database::open_in_memory();
    let mut conn = unbounded.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let budgeted = monetlite::Database::open_with(monetlite::DbOptions {
        vmem_budget: 8 * 1024,
        ..Default::default()
    })
    .unwrap();
    let mut conn = budgeted.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    // Pin the operator budget to "unset": this test exercises the *vmem
    // headroom* fallback, which an explicit MONETLITE_MEMORY_BUDGET from
    // the CI env matrix would otherwise pre-empt (24kB > the state these
    // queries build at this scale factor, so nothing would spill).
    let mut opts = streaming(1, 1024);
    opts.memory_budget = usize::MAX;
    for n in [3usize, 10] {
        let sql = queries::sql(n);
        let base = run(&unbounded, sql, opts);
        let (got, counters) = run_counting(&budgeted, sql, opts);
        assert_rows_eq(sql, &base, &got, &format!("Q{n} vmem-budgeted"));
        assert!(
            counters.spilled_partitions > 0,
            "Q{n}: group/build state exceeds the 8kB vmem budget, spill expected \
             (got {counters:?})"
        );
        assert!(counters.spill_bytes > 0, "Q{n}");
    }
}

#[test]
fn external_sort_spills_and_matches_unbounded_order() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
               ORDER BY l_extendedprice DESC, l_orderkey";
    let base = run(&db, sql, streaming(1, 1024));
    for threads in [1, 4] {
        let mut tiny = streaming(threads, 1024);
        tiny.memory_budget = 32 * 1024;
        let (got, counters) = run_counting(&db, sql, tiny);
        assert_rows_eq(sql, &base, &got, &format!("external sort t={threads}"));
        assert!(
            counters.spilled_partitions > 0,
            "lineitem sort must spill runs under a 32kB budget"
        );
    }
}

#[test]
fn acs_style_wide_aggregation_agrees() {
    // Grouped aggregation over a wider table with NULLs mixed in.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE p (st INT, age INT, wt DOUBLE, inc DOUBLE)").unwrap();
    let n = 10_000;
    let st: Vec<i32> = (0..n).map(|i| i % 7).collect();
    let age: Vec<Option<i32>> =
        (0..n).map(|i| if i % 97 == 0 { None } else { Some(i % 95) }).collect();
    let wt: Vec<f64> = (0..n).map(|i| 1.0 + (i % 200) as f64).collect();
    let inc: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 * 13.5).collect();
    let age_buf = ColumnBuffer::Int(
        age.iter().map(|v| v.unwrap_or(monetlite_types::nulls::NULL_I32)).collect(),
    );
    conn.append(
        "p",
        vec![ColumnBuffer::Int(st), age_buf, ColumnBuffer::Double(wt), ColumnBuffer::Double(inc)],
    )
    .unwrap();
    drop(conn);
    let sql = "SELECT st, count(*), count(age), sum(inc), avg(wt), min(age), max(inc), \
               median(inc) FROM p GROUP BY st ORDER BY st";
    let base = run(&db, sql, materialized());
    for (threads, vs) in [(1, 512), (4, 512), (4, 333)] {
        let got = run(&db, sql, streaming(threads, vs));
        assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
    }
}

#[test]
fn distinct_count_agrees_in_parallel() {
    // COUNT(DISTINCT) is mergeable in the streaming engine (sets union),
    // unlike mitosis which skips it.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (g INT, x INT)").unwrap();
    let n = 5_000;
    conn.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).map(|i| i % 3).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 41).collect()),
        ],
    )
    .unwrap();
    drop(conn);
    let sql = "SELECT g, count(DISTINCT x) FROM t GROUP BY g ORDER BY g";
    let base = run(&db, sql, materialized());
    let got = run(&db, sql, streaming(4, 256));
    assert_rows_eq(sql, &base, &got, "count distinct");
}

// ---------------------------------------------------------------------------
// Chunk-boundary edge cases
// ---------------------------------------------------------------------------

fn edge_db() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE empty_t (a INT, b VARCHAR(8))").unwrap();
    conn.execute("CREATE TABLE tiny (a INT, b VARCHAR(8))").unwrap();
    conn.execute("INSERT INTO tiny VALUES (1, 'x'), (2, NULL), (3, 'z')").unwrap();
    // A table whose NULL sentinels land exactly at vector boundaries when
    // vector_size divides the positions.
    conn.execute("CREATE TABLE edge (a INT, d DOUBLE)").unwrap();
    let n = 4_096;
    let a: Vec<i32> = (0..n)
        .map(|i| {
            // NULL at every multiple of 512: first/last row of each
            // 512-row vector.
            if i % 512 == 0 || i % 512 == 511 {
                monetlite_types::nulls::NULL_I32
            } else {
                i % 100
            }
        })
        .collect();
    let d: Vec<f64> = (0..n).map(|i| if i % 512 == 1 { f64::NAN } else { i as f64 }).collect();
    conn.append("edge", vec![ColumnBuffer::Int(a), ColumnBuffer::Double(d)]).unwrap();
    db
}

#[test]
fn empty_and_subvector_tables_agree() {
    let db = edge_db();
    for sql in [
        "SELECT * FROM empty_t",
        "SELECT a FROM empty_t WHERE a > 0",
        "SELECT count(*), sum(a), min(b) FROM empty_t",
        "SELECT b, count(*) FROM empty_t GROUP BY b",
        "SELECT DISTINCT a FROM empty_t",
        "SELECT * FROM empty_t ORDER BY a LIMIT 3",
        "SELECT t.a, e.b FROM tiny t, empty_t e WHERE t.a = e.a",
        "SELECT * FROM tiny ORDER BY a",
        "SELECT count(*) FROM tiny WHERE b IS NULL",
    ] {
        let base = run(&db, sql, materialized());
        for (threads, vs) in [(1, 2), (4, 2), (4, 64 * 1024)] {
            let got = run(&db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
        }
    }
}

#[test]
fn null_sentinels_straddling_vector_boundaries_agree() {
    let db = edge_db();
    for sql in [
        "SELECT count(*), count(a), sum(a) FROM edge",
        "SELECT count(*) FROM edge WHERE a IS NULL",
        "SELECT count(*) FROM edge WHERE a IS NOT NULL AND a < 50",
        "SELECT a, count(*) FROM edge GROUP BY a ORDER BY a",
        "SELECT sum(d) FROM edge WHERE d > 100.0",
    ] {
        let base = run(&db, sql, materialized());
        // vector=512 puts every sentinel at a chunk edge; 511/513 shift
        // them off-by-one in both directions.
        for vs in [512, 511, 513] {
            for threads in [1, 4] {
                let got = run(&db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deleted-rows visibility: streaming scans and the morsel cursor size
// morsels from *physical* table rows, so the deletion mask must be applied
// identically in every ranged morsel, including masks crossing vector
// boundaries, fully-deleted morsels, and deletes + LIMIT early-exit.
// ---------------------------------------------------------------------------

fn deletion_db() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE del_t (a INT, g INT, s VARCHAR(8))").unwrap();
    let n = 4_096;
    conn.append(
        "del_t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 7).collect()),
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("s{}", i % 13))).collect()),
        ],
    )
    .unwrap();
    // Masks straddling every 512-row vector boundary (first/last row of
    // each vector) ...
    conn.execute("DELETE FROM del_t WHERE a % 512 = 0 OR a % 512 = 511").unwrap();
    // ... plus one entire morsel deleted (rows 1024..1536 at vector=512).
    conn.execute("DELETE FROM del_t WHERE a >= 1024 AND a < 1536").unwrap();
    db
}

#[test]
fn deletion_masks_crossing_vector_boundaries_agree() {
    let db = deletion_db();
    for sql in [
        "SELECT count(*) FROM del_t",
        "SELECT count(*), sum(a), min(a), max(a) FROM del_t",
        "SELECT count(*) FROM del_t WHERE a % 512 = 0",
        "SELECT count(*) FROM del_t WHERE a >= 1000 AND a < 1600",
        "SELECT g, count(*), sum(a) FROM del_t GROUP BY g ORDER BY g",
        "SELECT s, count(*) FROM del_t GROUP BY s ORDER BY s",
        "SELECT a FROM del_t WHERE a < 600 ORDER BY a",
        "SELECT DISTINCT g FROM del_t ORDER BY g",
        "SELECT a FROM del_t ORDER BY a DESC LIMIT 9",
        "SELECT x.a, y.g FROM del_t x, del_t y WHERE x.a = y.a AND x.a < 700 ORDER BY 1",
    ] {
        let base = run(&db, sql, materialized());
        // vector=512 aligns morsels with the deletion pattern; 511/513
        // shift the mask off-by-one in both directions; 2 makes nearly
        // every morsel boundary interact with the mask.
        for vs in [512, 511, 513, 2, 64 * 1024] {
            for threads in [1, 4] {
                let got = run(&db, sql, streaming(threads, vs));
                assert_rows_eq(sql, &base, &got, &format!("deletes t={threads} v={vs}"));
            }
        }
    }
}

#[test]
fn fully_deleted_table_and_morsel_agree() {
    let db = deletion_db();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE gone (a INT)").unwrap();
    conn.append("gone", vec![ColumnBuffer::Int((0..2_000).collect())]).unwrap();
    conn.execute("DELETE FROM gone").unwrap();
    drop(conn);
    for sql in [
        "SELECT * FROM gone",
        "SELECT count(*), sum(a) FROM gone",
        "SELECT a, count(*) FROM gone GROUP BY a",
        "SELECT * FROM gone ORDER BY a LIMIT 3",
    ] {
        let base = run(&db, sql, materialized());
        for (threads, vs) in [(1, 512), (4, 512), (4, 64 * 1024)] {
            let got = run(&db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("all-deleted t={threads} v={vs}"));
        }
    }
}

#[test]
fn deletes_with_limit_early_exit_agree() {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE big_del (a INT, b INT)").unwrap();
    let n = 100_000;
    conn.append(
        "big_del",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    )
    .unwrap();
    // The first ~5 morsels (vector=1024) become fully deleted, so the
    // early-exit prefix logic must walk across empty morsels; a later
    // stripe is deleted mid-table.
    conn.execute("DELETE FROM big_del WHERE a < 5000").unwrap();
    conn.execute("DELETE FROM big_del WHERE a >= 50000 AND a < 51000").unwrap();
    drop(conn);
    for sql in [
        "SELECT a FROM big_del LIMIT 5",
        "SELECT a, b FROM big_del WHERE b = 3 LIMIT 7",
        "SELECT a FROM big_del ORDER BY a LIMIT 4",
        "SELECT a FROM big_del LIMIT 0",
    ] {
        let base = run(&db, sql, materialized());
        for (threads, vs) in [(1, 1024), (4, 1024), (1, 333)] {
            let got = run(&db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("del+limit t={threads} v={vs}"));
        }
    }
    // Early exit still happens despite the deleted prefix.
    let mut conn = db.connect();
    conn.set_exec_options(streaming(1, 1024));
    let r = conn.query("SELECT a FROM big_del LIMIT 5").unwrap();
    assert_eq!(r.nrows(), 5);
    assert_eq!(r.value(0, 0), Value::Int(5000));
    let counters = conn.last_exec_counters().unwrap();
    assert!(
        counters.morsels < 98,
        "limit must early-exit even when leading morsels are fully deleted \
         (dispatched {})",
        counters.morsels
    );
}

#[test]
fn limit_and_topn_agree_and_exit_early() {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE big (a INT, b INT)").unwrap();
    let n = 100_000;
    conn.append(
        "big",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    )
    .unwrap();
    drop(conn);
    for sql in [
        "SELECT a FROM big LIMIT 5",
        "SELECT a, b FROM big WHERE b = 3 LIMIT 7",
        "SELECT a, b FROM big ORDER BY b, a LIMIT 10",
        "SELECT a FROM big ORDER BY a DESC LIMIT 3",
        "SELECT a FROM big LIMIT 0",
    ] {
        let base = run(&db, sql, materialized());
        for (threads, vs) in [(1, 1024), (4, 1024)] {
            let got = run(&db, sql, streaming(threads, vs));
            assert_rows_eq(sql, &base, &got, &format!("t={threads} v={vs}"));
        }
    }
    // Early exit: LIMIT 5 over ~98 morsels must stop after a handful.
    let mut conn = db.connect();
    conn.set_exec_options(streaming(1, 1024));
    let r = conn.query("SELECT a FROM big LIMIT 5").unwrap();
    assert_eq!(r.nrows(), 5);
    // The counters live per-execution inside the connection; assert via
    // the plan-level API instead: a fresh context processing the same
    // shape dispatches far fewer morsels than the full scan would need.
    // (Covered more directly in crates/core pipeline unit tests.)
}

// ---------------------------------------------------------------------------
// Filter-only scan columns: a scan reads the columns its pushed filters
// test but emits only what its parent consumes — possibly nothing at all,
// when the chunk carries just a row count.
// ---------------------------------------------------------------------------

fn filter_only_db() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(
        "CREATE TABLE fo (a INT, b INT, s VARCHAR(8)); \
         CREATE TABLE fo_empty (a INT, b INT, s VARCHAR(8)); \
         CREATE TABLE fo_dim (k INT, name VARCHAR(8));",
    )
    .unwrap();
    let n = 6_000;
    conn.append(
        "fo",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 11).collect()),
            ColumnBuffer::Varchar(
                (0..n).map(|i| (i % 17 != 0).then(|| format!("s{}", i % 13))).collect(),
            ),
        ],
    )
    .unwrap();
    conn.append(
        "fo_dim",
        vec![
            ColumnBuffer::Int((0..11).collect()),
            ColumnBuffer::Varchar((0..11).map(|i| Some(format!("n{i}"))).collect()),
        ],
    )
    .unwrap();
    // Deletes straddle every vector size used below.
    conn.execute("DELETE FROM fo WHERE a % 97 = 0 OR (a >= 2048 AND a < 2600)").unwrap();
    db
}

#[test]
fn filter_only_scans_agree_across_engines_and_options() {
    let db = filter_only_db();
    // Scans whose outputs are a strict subset of what they read — down to
    // no output column at all (count(*)), on a table with deletes and on
    // an empty one, alone and on both sides of a join.
    let sqls = [
        "SELECT count(*) FROM fo WHERE a > 100",
        "SELECT count(*) FROM fo WHERE b = 3 AND s LIKE 's1%'",
        "SELECT sum(a) FROM fo WHERE b < 4 AND s IS NOT NULL",
        "SELECT count(*), sum(b) FROM fo WHERE s = 's5'",
        "SELECT count(*) FROM fo_empty WHERE a > 1",
        "SELECT sum(a) FROM fo_empty WHERE b = 2 AND s = 'x'",
        "SELECT count(*), sum(fo.a) FROM fo, fo_dim \
         WHERE fo.b = fo_dim.k AND fo_dim.name = 'n3' AND fo.s <> 's1'",
        "SELECT fo_dim.name, count(*) FROM fo, fo_dim \
         WHERE fo.b = fo_dim.k AND fo.s LIKE '%1%' GROUP BY fo_dim.name ORDER BY 1",
    ];
    let mut conn = db.connect();
    let plan = conn.query("EXPLAIN SELECT count(*) FROM fo WHERE a > 100").unwrap();
    let text: Vec<String> = (0..plan.nrows()).map(|i| plan.value(i, 0).to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("scan fo cols=[] filter-only=[0]")),
        "count(*) over a filtered scan emits no column:\n{}",
        text.join("\n")
    );
    let both = |mut o: ExecOptions, dict: bool| {
        o.use_dict = dict;
        o.use_result_cache = false;
        o
    };
    for sql in sqls {
        let base = run(&db, sql, both(materialized(), true));
        let mut legs = Vec::new();
        for threads in [1, 4] {
            let mut m = both(materialized(), true);
            m.threads = threads;
            m.mitosis_min_rows = 1000;
            legs.push((format!("materialized t={threads}"), m));
            for vs in [64 * 1024, 512, 333] {
                for dict in [true, false] {
                    legs.push((
                        format!("streaming t={threads} v={vs} dict={dict}"),
                        both(streaming(threads, vs), dict),
                    ));
                }
            }
        }
        for (label, opts) in legs {
            assert_rows_eq(sql, &base, &run(&db, sql, opts), &label);
        }
    }
    // The join paths the scan's output width feeds still fire: a filtered
    // dimension pushes its bloom into the probe scan, and an unfiltered
    // one is probed through its automatic hash index.
    let opts = both(streaming(1, 512), true);
    let (_, c) = run_counting(&db, sqls[6], ExecOptions { use_hash_index: false, ..opts });
    assert!(c.bloom_pruned > 0, "bloom into a scan with filter-only columns: {c:?}");
    let (_, c) = run_counting(&db, sqls[7], ExecOptions { use_hash_index: true, ..opts });
    assert!(c.hash_index_joins > 0, "index join beside a filter-only scan: {c:?}");
}

/// TPC-H keeps its tactical join paths once scans stop emitting
/// filter-only columns: Q17's filtered part build still prunes lineitem
/// through a bloom, and Q18 — its IN now probing orders alone — pushes a
/// bloom into lineitem and probes customer through the hash index.
#[test]
fn tpch_bloom_and_index_joins_fire_beside_filter_only_scans() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let opts = ExecOptions {
        use_dict: true,
        use_hash_index: true,
        use_result_cache: false,
        ..streaming(1, 1024)
    };
    for n in [17, 18] {
        let sql = queries::sql(n);
        let base = run(&db, sql, materialized());
        let (got, c) = run_counting(&db, sql, opts);
        assert_rows_eq(sql, &base, &got, &format!("Q{n}"));
        assert!(c.bloom_pruned > 0, "Q{n}: bloom must prune probe rows: {c:?}");
        if n == 18 {
            assert!(c.hash_index_joins > 0, "Q18: customer probed via its index: {c:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Bloom tracing: a probe's build-side bloom reaches the probe scan through
// column-permuting projections and earlier probes, and only when its key
// is a scan column all the way down.
// ---------------------------------------------------------------------------

/// A fact table `f` (NULL keys, deletes) with two dimensions: `d` joins on
/// `f.a`, `e` on `f.b` or on `d.v`.
fn bloom_trace_db() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(
        "CREATE TABLE f (a INT, b INT, c INT); \
         CREATE TABLE d (k INT, v INT, name VARCHAR(8)); \
         CREATE TABLE e (k INT, tag VARCHAR(8));",
    )
    .unwrap();
    let n = 6_000;
    let a = (0..n).map(|i| if i % 97 == 0 { monetlite_types::nulls::NULL_I32 } else { i % 500 });
    conn.append(
        "f",
        vec![
            ColumnBuffer::Int(a.collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 37).collect()),
            ColumnBuffer::Int((0..n).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "d",
        vec![
            ColumnBuffer::Int((0..500).collect()),
            ColumnBuffer::Int((0..500).map(|i| i % 40).collect()),
            ColumnBuffer::Varchar((0..500).map(|i| Some(format!("n{}", i % 50))).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "e",
        vec![
            ColumnBuffer::Int((0..40).collect()),
            ColumnBuffer::Varchar((0..40).map(|i| Some(format!("t{}", i % 8))).collect()),
        ],
    )
    .unwrap();
    conn.execute("DELETE FROM f WHERE c % 101 = 0").unwrap();
    db
}

/// A connection with `opts` and the optimizer flags pinned: the CI env
/// matrix (greedy join order, dictionary off) must not change the plan
/// shapes these tests assert on.
fn pinned(db: &monetlite::Database, opts: ExecOptions) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    conn.set_opt_flags(monetlite::opt::OptFlags { join_dp: true, ..Default::default() });
    conn
}

/// Rows and counters of `sql` on a [`pinned`] connection.
fn run_pinned(
    db: &monetlite::Database,
    sql: &str,
    opts: ExecOptions,
) -> (Vec<Vec<Value>>, monetlite::exec::CountersSnapshot) {
    let mut conn = pinned(db, opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    let rows = (0..r.nrows()).map(|i| r.row(i)).collect();
    (rows, conn.last_exec_counters().expect("counters after query"))
}

/// The EXPLAIN pipeline line whose source is `scan <table>`.
fn pipeline_line(db: &monetlite::Database, sql: &str, table: &str, opts: ExecOptions) -> String {
    let r = pinned(db, opts).query(&format!("EXPLAIN {sql}")).unwrap();
    (0..r.nrows())
        .map(|i| r.value(i, 0).to_string())
        .find(|l| l.starts_with('P') && l.contains(&format!(": scan {table} ")))
        .unwrap_or_else(|| panic!("no pipeline scans {table} for {sql}"))
}

/// Streaming options with the dictionary/bloom path on or off and the
/// hash index off (an index build pushes no bloom).
fn bloom_opts(threads: usize, vs: usize, dict: bool) -> ExecOptions {
    ExecOptions {
        use_dict: dict,
        use_hash_index: false,
        use_result_cache: false,
        ..streaming(threads, vs)
    }
}

#[test]
fn blooms_trace_through_permuting_projects_and_earlier_probes() {
    let db = bloom_trace_db();
    for sql in [
        // scan f -> project (c, b, a) -> probe(left, e) -> probe(inner, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f) x LEFT JOIN e ON x.b = e.k \
         JOIN d ON x.a = d.k WHERE d.name = 'n3'",
        // scan f -> probe(anti, e) -> project (c, a) -> probe(inner, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f WHERE NOT EXISTS \
         (SELECT * FROM e WHERE e.k = f.b AND e.tag = 't1')) x JOIN d ON x.a = d.k \
         WHERE d.name = 'n3'",
        // scan f -> project -> probe(left, e) -> probe(semi, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f) x LEFT JOIN e ON x.b = e.k \
         WHERE x.a IN (SELECT k FROM d WHERE name = 'n3')",
    ] {
        let line = pipeline_line(&db, sql, "f", bloom_opts(1, 512, true));
        assert!(line.contains("project[") && line.contains("[bloom]"), "{line}");
        let base = run(&db, sql, materialized());
        let (got, c) = run_pinned(&db, sql, bloom_opts(1, 512, true));
        assert_rows_eq(sql, &base, &got, "bloom");
        assert!(c.bloom_pruned > 0, "the traced bloom prunes f: {c:?} for {sql}");
        for (threads, vs) in [(1, 333), (4, 512), (4, 64 * 1024)] {
            for dict in [true, false] {
                let label = format!("t={threads} v={vs} dict={dict}");
                let (got, _) = run_pinned(&db, sql, bloom_opts(threads, vs, dict));
                assert_rows_eq(sql, &base, &got, &label);
            }
        }
    }
}

#[test]
fn a_key_traced_into_a_build_column_pushes_no_bloom() {
    let db = bloom_trace_db();
    // The inner probe's key `d.v` is a column of the LEFT probe's build
    // side: no scan row of f carries it, so nothing may be pruned there.
    let sql = "SELECT count(*), sum(f.c) FROM f LEFT JOIN d ON f.a = d.k \
               JOIN e ON d.v = e.k WHERE e.tag = 't1'";
    let line = pipeline_line(&db, sql, "f", bloom_opts(1, 512, true));
    assert!(line.contains("probe(left") && !line.contains("[bloom]"), "{line}");
    let base = run(&db, sql, materialized());
    let (got, c) = run_pinned(&db, sql, bloom_opts(1, 512, true));
    assert_rows_eq(sql, &base, &got, "build-column key");
    assert_eq!(c.bloom_pruned, 0, "{c:?}");
    let (got, _) = run_pinned(&db, sql, bloom_opts(4, 333, false));
    assert_rows_eq(sql, &base, &got, "dict off");
}

/// Q9's selective `part` build pushes its bloom through the projection
/// above the partsupp probe into lineitem.
#[test]
fn q9_part_bloom_reaches_lineitem() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = queries::sql(9);
    let on = ExecOptions { use_dict: true, use_result_cache: false, ..streaming(1, 1024) };
    let line = pipeline_line(&db, sql, "lineitem", on);
    assert!(line.contains("[bloom]") && line.contains("project["), "{line}");
    let (got, c) = run_pinned(&db, sql, on);
    assert!(c.bloom_pruned > 0, "{c:?}");
    let base = run(&db, sql, materialized());
    assert_rows_eq(sql, &base, &got, "Q9 dict on");
    for threads in [1, 4] {
        let (got, c) = run_pinned(&db, sql, ExecOptions { threads, use_dict: false, ..on });
        assert_rows_eq(sql, &base, &got, &format!("Q9 dict off t={threads}"));
        assert_eq!(c.bloom_pruned, 0, "dict off builds no bloom: {c:?}");
    }
}
