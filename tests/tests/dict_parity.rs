//! Dictionary-execution parity: `MONETLITE_DICT` must be invisible in
//! results. Every TPC-H golden answer is byte-identical with dictionary
//! encoding on and off (including the string-heavy Q16), the differential
//! holds under spill budgets and with candidate lists disabled, and the
//! dict-only fast paths (zone skipping on codes, dictionary-domain LIKE,
//! bloom pushdown) actually fire where the plan says they do.

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite_tests::fmt_golden_rows;
use monetlite_tpch::{generate, load_monet, queries};
use monetlite_types::{ColumnBuffer, Value};
use std::path::PathBuf;

/// Same corpus as the golden harness: answers must match the checked-in
/// files, not just each other.
const GOLDEN_SF: f64 = 0.02;
const GOLDEN_SEED: u64 = 20260727;

fn golden_path(n: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("q{n:02}.tbl"))
}

/// Every leg executes: with the result cache on, a leg whose options equal
/// an earlier leg's (e.g. the spilled leg under a CI-wide
/// `MONETLITE_MEMORY_BUDGET` equal to its budget) would be answered from
/// the cache, and nothing it claims to exercise would run.
fn streaming(threads: usize, vector_size: usize) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Streaming,
        threads,
        vector_size,
        use_result_cache: false,
        ..Default::default()
    }
}

fn dict(mut o: ExecOptions, on: bool) -> ExecOptions {
    o.use_dict = on;
    o
}

fn run(db: &monetlite::Database, sql: &str, opts: ExecOptions) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    (0..r.nrows()).map(|i| r.row(i)).collect()
}

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

fn with_query_setup(db: &monetlite::Database, n: usize, f: impl FnOnce()) {
    if let Some(ddl) = queries::setup_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
    }
    f();
    if let Some(ddl) = queries::teardown_sql(n) {
        db.connect().execute(ddl).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
    }
}

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

/// All 22 answer goldens byte-identical under both legs. This is the
/// strongest form of the differential: not only do the legs agree with
/// each other, both agree with the reviewed checked-in answers.
#[test]
fn tpch_goldens_byte_identical_with_dict_on_and_off() {
    if std::env::var("MONETLITE_BLESS").as_deref() == Ok("1") {
        return; // goldens are blessed by tpch_golden.rs
    }
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    for (n, sql) in queries::all() {
        let want = std::fs::read_to_string(golden_path(n)).expect("answer goldens checked in");
        with_query_setup(&db, n, || {
            for on in [true, false] {
                let mut c = db.connect();
                c.set_exec_options(dict(streaming(1, 2048), on));
                let r = c.query(sql).unwrap_or_else(|e| panic!("Q{n} dict={on}: {e}"));
                let got = fmt_golden_rows(&r);
                assert_eq!(got, want, "Q{n}: golden answer changed with dict={on}");
            }
        });
    }
}

/// The differential also holds out of core (coded group keys travel
/// through spill frames as plain integer columns) and with candidate
/// lists off — on the materialized engine, which gathers every selection
/// the dict row filter produces.
#[test]
fn tpch_queries_agree_dict_off_under_spill_and_candidates_off() {
    let data = generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let total_spilled = std::cell::Cell::new(0u64);
    for (n, sql) in queries::all() {
        with_query_setup(&db, n, || {
            let base = run(&db, sql, dict(streaming(1, 1024), false));
            // Plain leg, both thread counts.
            for threads in [1, 4] {
                let got = run(&db, sql, dict(streaming(threads, 1024), true));
                assert_rows_eq(sql, &base, &got, &format!("Q{n} dict t={threads}"));
            }
            // Spilled leg: a 24kB budget forces grace partitioning while
            // dictionary codes flow through the pipeline.
            let mut tiny = dict(streaming(1, 1024), true);
            tiny.memory_budget = 24 * 1024;
            let (got, counters) = run_counting(&db, sql, tiny);
            assert_rows_eq(sql, &base, &got, &format!("Q{n} dict spilled"));
            total_spilled.set(total_spilled.get() + counters.spilled_partitions);
            // Candidates-off leg: dict predicates still apply, but the
            // materialized engine gathers instead of carrying selection
            // vectors.
            let gather =
                ExecOptions { mode: ExecMode::Materialized, ..dict(streaming(1, 1024), true) };
            let got = run(&db, sql, gather);
            assert_rows_eq(sql, &base, &got, &format!("Q{n} dict materialized"));
        });
    }
    assert!(total_spilled.get() > 0, "the 24kB leg must spill somewhere in Q1–Q22");
}

/// The dict scan path and bloom pushdown must actually fire on TPC-H:
/// Q17 builds on a brand+container-filtered part table (a tiny fraction
/// of partkeys), so the pushed bloom must prune most lineitem rows.
#[test]
fn dict_and_bloom_counters_fire_on_q17() {
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let sql = queries::sql(17);
    // Index joins skip the bloom build (a pre-built index probe is
    // already O(1) per row); force the plain hash-join path so the
    // pushdown is the one being measured.
    let opts = |on| {
        let mut o = dict(streaming(1, 1024), on);
        o.use_hash_index = false;
        o
    };
    let base = run(&db, sql, opts(false));
    let (got, counters) = run_counting(&db, sql, opts(true));
    assert_rows_eq(sql, &base, &got, "Q17 dict leg");
    assert!(counters.dict_hits > 0, "Q17 string predicates must hit the dictionary: {counters:?}");
    assert!(
        counters.bloom_pruned > 0,
        "Q17 bloom from the filtered part build side must prune lineitem rows: {counters:?}"
    );
    // Dict off: neither counter moves.
    let (_, off) = run_counting(&db, sql, opts(false));
    assert_eq!(off.dict_hits, 0, "dict-off leg must not consult dictionaries");
    assert_eq!(off.bloom_pruned, 0, "dict-off leg must not build bloom filters");
}

/// Q12's `l_shipmode IN ('MAIL', 'SHIP')` and Q19's `l_shipmode IN (...)`
/// and `l_shipinstruct = ...` are filters over one string column each, so
/// the scan serves them from dictionaries. Options are pinned to literals
/// so no CI leg can turn the path off.
#[test]
fn q12_and_q19_string_filters_are_served_by_dictionaries() {
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    drop(conn);
    let pinned = ExecOptions {
        mode: ExecMode::Streaming,
        threads: 1,
        vector_size: 64 * 1024,
        mitosis_min_rows: 64 * 1024,
        use_imprints: true,
        use_hash_index: true,
        use_order_index: true,
        timeout: None,
        memory_budget: usize::MAX,
        spill_quota: usize::MAX,
        use_dict: true,
        use_plan_cache: false,
        use_result_cache: false,
        plan_cache_bytes: 0,
        result_cache_bytes: 0,
    };
    for n in [12, 19] {
        let sql = queries::sql(n);
        let (got, counters) = run_counting(&db, sql, pinned);
        assert!(counters.dict_hits > 0, "Q{n} filters must hit a dictionary: {counters:?}");
        let (off, _) = run_counting(&db, sql, dict(pinned, false));
        assert_rows_eq(sql, &off, &got, &format!("Q{n} pinned"));
    }
}

/// Satellite: dictionary-domain LIKE. On a low-NDV clustered string
/// column, a LIKE prefix plan compiles to a code range (evaluated once
/// per distinct dictionary entry, not once per row), and zone bounds on
/// codes skip whole morsels — with answers identical to the row-at-a-time
/// string kernel.
#[test]
fn like_over_dictionary_domain_matches_string_kernel_and_skips_zones() {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE ev (name VARCHAR(32), v INT)").unwrap();
    let n: i32 = 60_000;
    // Clustered: long runs of each category, so code zone bounds are
    // tight and the probe skips most morsels.
    let names: Vec<Option<String>> = (0..n)
        .map(|i| if i % 157 == 0 { None } else { Some(format!("cat{:02}-item", (i * 24) / n)) })
        .collect();
    conn.append(
        "ev",
        vec![ColumnBuffer::Varchar(names), ColumnBuffer::Int((0..n).map(|x| x % 101).collect())],
    )
    .unwrap();
    // Deletes interact with the dict row filter.
    conn.execute("DELETE FROM ev WHERE v = 7").unwrap();
    drop(conn);
    for sql in [
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE 'cat07%'",
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE 'cat1_-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE '%-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name NOT LIKE 'cat0%'",
        "SELECT count(*), sum(v) FROM ev WHERE name = 'cat03-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name > 'cat19' AND name <= 'cat21-item'",
        "SELECT name, count(*) FROM ev WHERE name LIKE 'cat2%' GROUP BY name ORDER BY name",
    ] {
        let base = run(&db, sql, dict(streaming(1, 2048), false));
        for (threads, vs) in [(1, 2048), (1, 509), (4, 2048)] {
            let (got, counters) = run_counting(&db, sql, dict(streaming(threads, vs), true));
            assert_rows_eq(sql, &base, &got, &format!("dict t={threads} v={vs}"));
            assert!(counters.dict_hits > 0, "{sql}: predicate must be served by the dictionary");
        }
    }
    // The prefix probe must skip zones on the clustered column.
    let (_, counters) = run_counting(
        &db,
        "SELECT count(*) FROM ev WHERE name LIKE 'cat07%'",
        dict(streaming(1, 2048), true),
    );
    assert!(
        counters.vectors_skipped > 0,
        "a selective LIKE prefix over clustered categories must skip morsels: {counters:?}"
    );
}

/// Satellite: string-heap accounting across the dedup-abandonment
/// threshold, end to end. A group-by over >64Ki distinct VARCHAR keys
/// crosses `DEFAULT_DEDUP_LIMIT` while a tiny memory budget forces the
/// aggregate out of core — the spill decision reads `mem_bytes`, so the
/// accounting bug (double-counting abandoned dedup maps) would change
/// when/what spills. Results must match the unbudgeted run exactly.
#[test]
fn budgeted_group_by_crossing_dedup_abandonment_matches_unbounded() {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE wide (s VARCHAR(24), v INT)").unwrap();
    let n: i32 = 80_000; // > DEFAULT_DEDUP_LIMIT (65536) distinct keys
    conn.append(
        "wide",
        vec![
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("key-{i:06}"))).collect()),
            ColumnBuffer::Int((0..n).map(|x| x % 13).collect()),
        ],
    )
    .unwrap();
    drop(conn);
    let sql = "SELECT count(*), count(DISTINCT s), sum(v), min(s), max(s) FROM \
               (SELECT s, sum(v) AS v FROM wide GROUP BY s) g";
    let base = run(&db, sql, streaming(1, 2048));
    for on in [true, false] {
        let mut tiny = dict(streaming(1, 2048), on);
        tiny.memory_budget = 256 * 1024;
        let (got, counters) = run_counting(&db, sql, tiny);
        assert_rows_eq(sql, &base, &got, &format!("dedup-crossing budgeted dict={on}"));
        assert!(
            counters.spilled_partitions > 0,
            "80k VARCHAR groups must exceed a 256kB budget (dict={on}): {counters:?}"
        );
    }
}
