//! Cache-parity suite for the plan/result caching tier.
//!
//! * Every lattice row with a cache on runs each statement of every
//!   corpus twice, and the repeat must match (`monetlite_tests::Config::run`);
//!   the TPC-H corpus checks both runs against the answer goldens.
//! * Counters prove the fast paths really fire: a plan-cache hit skips
//!   bind+optimize (`plan_cache_hits`), a result-cache hit skips
//!   execution entirely (`result_cache_hits`).
//! * Stale-plan coverage: DROP/CREATE of a same-named table or view,
//!   INSERTs bumping the table `version`, stats-mode flips, and
//!   `ExecOptions` changes must all prevent stale replays.
//! * Interrupt-then-cached-hit regression: a pending interrupt raised
//!   while the connection is idle must not poison a cached statement.
//! * Key space: every row of ARCHITECTURE.md's invalidation matrix that
//!   works by moving the key (options, stats mode, optimizer flags, view
//!   DDL, another connection's options) sees zero hits from the other
//!   key space, and the one-pass result key is injective — two
//!   statements share it exactly when their full canonical renderings
//!   agree.

use monetlite::exec::ExecOptions;
use monetlite::opt::{OptFlags, StatsMode};
use monetlite_sql::canon::{canon_select_full, normalize_select, restore_literals};
use monetlite_sql::{parse_statement, SelectStmt, Statement};
use monetlite_tests::{pinned, tpch_slice_matches_goldens, TpchTest};
use monetlite_tpch::queries;
use proptest::prelude::*;
use proptest::TestRng;

fn cached_opts() -> ExecOptions {
    ExecOptions {
        use_plan_cache: true,
        use_result_cache: true,
        plan_cache_bytes: 64 << 20,
        result_cache_bytes: 256 << 20,
        ..pinned(1, 64 * 1024)
    }
}

/// The goldens with the plan cache off and with the result cache off;
/// where a cache is on, each query runs twice and the repeat must be a
/// result-cache hit with the same answer.
#[test]
fn all_22_goldens_byte_identical_cache_on_off_and_hit() {
    tpch_slice_matches_goldens(TpchTest::Cache);
}

/// Fresh single-table corpus for the invalidation tests.
fn tiny_db() -> (monetlite::Database, monetlite::Connection) {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.set_exec_options(cached_opts());
    conn.execute("CREATE TABLE t (x INTEGER, s VARCHAR)").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'a'), (5, 'b'), (10, 'c'), (50, 'd')").unwrap();
    (db, conn)
}

fn one_col(conn: &mut monetlite::Connection, sql: &str) -> Vec<String> {
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect()
}

#[test]
fn plan_cache_hit_skips_bind_and_optimize_with_fresh_literals() {
    let (_db, mut conn) = tiny_db();
    // Cold: parse+bind+optimize, template stored.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 7 ORDER BY x"), ["10", "50"]);
    let cold = conn.last_exec_counters().unwrap();
    assert_eq!(cold.plan_cache_hits, 0);
    assert_eq!(cold.result_cache_hits, 0);
    // Same shape, different literal: the normalized template must be
    // replayed with the fresh binding — a plan hit, not a result hit,
    // and the answer must reflect the *new* literal.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 2 ORDER BY x"), ["5", "10", "50"]);
    let hit = conn.last_exec_counters().unwrap();
    assert_eq!(hit.plan_cache_hits, 1, "parameterized repeat must hit the plan cache");
    assert_eq!(hit.result_cache_hits, 0, "different literal must not hit the result cache");
}

#[test]
fn result_cache_hit_skips_execution_entirely() {
    let (db, mut conn) = tiny_db();
    let sql = "SELECT s FROM t WHERE x >= 5 ORDER BY s";
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 1, "identical repeat must be a result hit");
    // A result hit reports no fresh execution work besides the hit
    // itself (rows_scanned etc. stay zero in the snapshot).
    assert_eq!(c.plan_cache_hits, 0);
    assert!(!db.result_cache().is_empty());
}

#[test]
fn drop_create_same_named_table_is_not_stale() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 0 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["1", "5", "10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["1", "5", "10", "50"]); // primes both caches
    conn.execute("DROP TABLE t").unwrap();
    conn.execute("CREATE TABLE t (x INTEGER, s VARCHAR)").unwrap();
    conn.execute("INSERT INTO t VALUES (7, 'z')").unwrap();
    // Same name, new table id: both caches must miss, not replay.
    assert_eq!(one_col(&mut conn, sql), ["7"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 0, "stale result served after DROP/CREATE");
}

#[test]
fn drop_create_same_named_view_is_not_stale() {
    let (_db, mut conn) = tiny_db();
    conn.execute("CREATE VIEW v AS SELECT x FROM t WHERE x > 7").unwrap();
    let sql = "SELECT x FROM v ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    conn.execute("DROP VIEW v").unwrap();
    conn.execute("CREATE VIEW v AS SELECT x FROM t WHERE x < 7").unwrap();
    // Identical statement text, new view definition: the views epoch
    // moved, so the old entry must not answer.
    assert_eq!(one_col(&mut conn, sql), ["1", "5"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
}

#[test]
fn appends_bump_version_and_invalidate() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    conn.execute("INSERT INTO t VALUES (99, 'e')").unwrap();
    // The INSERT bumped the table version: the cached result is stale
    // and must be recomputed with the new row.
    assert_eq!(one_col(&mut conn, sql), ["10", "50", "99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
    // ...and the recomputed result is cacheable again.
    assert_eq!(one_col(&mut conn, sql), ["10", "50", "99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
}

#[test]
fn stats_mode_flip_moves_the_key_space() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // A stats flip can change the chosen plan; entries keyed under the
    // old mode must not answer.
    conn.set_stats_mode(StatsMode::TableRowsOnly);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    let c = conn.last_exec_counters().unwrap();
    assert_eq!(c.result_cache_hits, 0, "stats flip must not serve the old entry");
    assert_eq!(c.plan_cache_hits, 0, "stats flip must re-optimize");
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
}

#[test]
fn exec_options_change_moves_the_key_space() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    let vector_size = cached_opts().vector_size / 2;
    conn.set_exec_options(ExecOptions { vector_size, ..cached_opts() });
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(
        conn.last_exec_counters().unwrap().result_cache_hits,
        0,
        "an ExecOptions change must not serve entries from the old configuration"
    );
}

#[test]
fn interrupt_then_cached_hit_succeeds() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT s FROM t WHERE x >= 5 ORDER BY s";
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // An interrupt raised while the connection is idle targets no
    // statement; the next statement — even a pure cache hit — must
    // clear it and answer normally, like any real statement would.
    conn.interrupt_handle().interrupt();
    assert_eq!(one_col(&mut conn, sql), ["b", "c", "d"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    // And the flag really was consumed: a fresh (uncached) statement
    // afterwards is not interrupted either.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x = 1"), ["1"]);
}

#[test]
fn explain_reports_cache_status_tags() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    let explain = |conn: &mut monetlite::Connection| {
        let r = conn.query(&format!("EXPLAIN {sql}")).unwrap();
        (0..r.nrows()).map(|i| r.value(i, 0).to_string() + "\n").collect::<String>()
    };
    // Cold cache: no tags — the EXPLAIN text matches the uncached one.
    let cold = explain(&mut conn);
    assert!(!cold.contains("[plan-cache]"), "cold EXPLAIN must not claim a cached plan");
    assert!(!cold.contains("[result-cache]"), "cold EXPLAIN must not claim a cached result");
    // Prime both caches, then EXPLAIN again: both tags appear.
    conn.query(sql).unwrap();
    let hot = explain(&mut conn);
    assert!(hot.contains("[plan-cache]"), "primed EXPLAIN should report the cached template");
    assert!(hot.contains("[result-cache]"), "primed EXPLAIN should report the cached result");
    // EXPLAIN itself must not have populated or consumed the result
    // cache: the next real execution is still a hit.
    assert_eq!(one_col(&mut conn, sql), ["10", "50"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
}

#[test]
fn writes_in_open_transaction_are_never_cached() {
    let (db, mut conn) = tiny_db();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t VALUES (99, 'e')").unwrap();
    // Reads inside a writing transaction see the txn-local state and
    // must bypass both caches entirely.
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 50 ORDER BY x"), ["99"]);
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 0);
    assert_eq!(db.result_cache().len(), 0, "dirty read must not be published to the cache");
    conn.execute("ROLLBACK").unwrap();
    assert_eq!(one_col(&mut conn, "SELECT x FROM t WHERE x > 50 ORDER BY x"), Vec::<String>::new());
}

// -- key space ------------------------------------------------------------

/// (result hits, plan hits) of running `sql` once.
fn hits(conn: &mut monetlite::Connection, sql: &str) -> (u64, u64) {
    assert_eq!(one_col(conn, sql), ["10", "50"]);
    let c = conn.last_exec_counters().unwrap();
    (c.result_cache_hits, c.plan_cache_hits)
}

#[test]
fn every_keyed_setting_moves_the_key_space_and_moves_it_back() {
    // The fingerprint is rendered when a setting changes, not per
    // statement; each setter must still land the statement in a key space
    // of its own, and restoring the setting must find the old entries
    // again (keys compare fingerprints by content).
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    type Change = fn(&mut monetlite::Connection, bool);
    let changes: [(&str, Change); 3] = [
        ("set_opt_flags", |c, on| {
            c.set_opt_flags(OptFlags { topn: !on, ..Default::default() });
        }),
        ("set_stats_mode", |c, on| {
            c.set_stats_mode(if on { StatsMode::Adversarial(7) } else { StatsMode::Real });
        }),
        ("set_exec_options", |c, on| {
            let threads = if on { 3 } else { cached_opts().threads };
            c.set_exec_options(ExecOptions { threads, ..cached_opts() });
        }),
    ];
    for (name, change) in changes {
        let (_db, mut conn) = tiny_db();
        assert_eq!(hits(&mut conn, sql), (0, 0), "{name}: cold");
        assert_eq!(hits(&mut conn, sql), (1, 0), "{name}: primed");
        change(&mut conn, true);
        assert_eq!(hits(&mut conn, sql), (0, 0), "{name}: served from the other key space");
        assert_eq!(hits(&mut conn, sql), (1, 0), "{name}: new key space not populated");
        change(&mut conn, false);
        assert_eq!(hits(&mut conn, sql), (1, 0), "{name}: old key space lost");
    }
}

#[test]
fn view_ddl_moves_the_key_space_of_unrelated_statements() {
    let (_db, mut conn) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(hits(&mut conn, sql), (0, 0));
    assert_eq!(hits(&mut conn, sql), (1, 0));
    conn.execute("CREATE VIEW unrelated AS SELECT s FROM t").unwrap();
    assert_eq!(hits(&mut conn, sql), (0, 0), "CREATE VIEW must move the epoch");
    assert_eq!(hits(&mut conn, sql), (1, 0));
    conn.execute("DROP VIEW unrelated").unwrap();
    assert_eq!(hits(&mut conn, sql), (0, 0), "DROP VIEW must move the epoch");
}

#[test]
fn connections_with_different_options_do_not_share_entries() {
    let (db, mut a) = tiny_db();
    let sql = "SELECT x FROM t WHERE x > 7 ORDER BY x";
    assert_eq!(hits(&mut a, sql), (0, 0));
    assert_eq!(hits(&mut a, sql), (1, 0));
    // Same database, same statement, another vector size: nothing of
    // `a`'s may answer, neither its result nor its template.
    let mut b = db.connect();
    b.set_exec_options(ExecOptions { vector_size: cached_opts().vector_size / 2, ..cached_opts() });
    assert_eq!(hits(&mut b, sql), (0, 0));
    assert_eq!(hits(&mut b, sql), (1, 0));
    // A third connection with `a`'s options shares `a`'s entries, though
    // it rendered a fingerprint of its own.
    let mut c = db.connect();
    c.set_exec_options(cached_opts());
    assert_eq!(hits(&mut c, sql), (1, 0));
    assert_eq!(hits(&mut c, "SELECT x FROM t WHERE x > 9 ORDER BY x"), (0, 1));
}

fn select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        Statement::Select(s) => *s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

fn result_key(sql: &str) -> String {
    normalize_select(select(sql)).result_key()
}

#[test]
fn tpch_statements_survive_normalize_and_restore() {
    // The result-cache-only path binds `restore_literals(template,
    // params)`: it must be the statement the parser produced.
    let mut keys = std::collections::HashSet::new();
    for (n, sql) in queries::all() {
        let original = select(sql);
        let norm = normalize_select(original.clone());
        assert_eq!(restore_literals(&norm.stmt, &norm.params), original, "Q{n}");
        assert!(keys.insert(norm.result_key()), "Q{n} shares a result key");
    }
}

/// A statement from a small space, so that independent draws collide
/// often: seven shapes, literals of every type the parser produces (with
/// look-alikes across types and strings that imitate the key's own
/// syntax) in parameterized and unparameterized positions.
fn gen_select(rng: &mut TestRng) -> String {
    const LITS: [&str; 12] = [
        "5",
        "7",
        "3000000000",
        "5.0",
        "5.00",
        "'5'",
        "'a'",
        "'a''b'",
        "'a,int:5,'",
        "'?0:int'",
        "date '1994-01-01'",
        "date '1994-01-02'",
    ];
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let shape = pick(7);
    let upper = pick(3) == 0;
    let mut lit = || LITS[pick(LITS.len())];
    let sql = match shape {
        0 => format!("select x from t where x > {}", lit()),
        1 => format!(
            "select x, {} from t where s = {} and x between {} and {}",
            lit(),
            lit(),
            lit(),
            lit()
        ),
        2 => format!("select x from t where x in ({}, {}) order by 1 limit 3", lit(), lit()),
        3 => format!("select s from t where s like 'a%' and x <> {}", lit()),
        4 => format!(
            "select x from t where exists (select 1 from u where u.k = t.x and u.v < {})",
            lit()
        ),
        5 => format!("select x from t where x = {} or x = {}", lit(), lit()),
        _ => format!("select count(*) from t group by s having count(*) > {}", lit()),
    };
    // Identifier case folds; literal case does not.
    if upper {
        sql.replace("select x", "SELECT X").replace(" t ", " T ")
    } else {
        sql
    }
}

struct Selects;

impl Strategy for Selects {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        gen_select(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn result_key_is_shared_exactly_when_the_full_rendering_is(a in Selects, b in Selects) {
        let same_key = result_key(&a) == result_key(&b);
        let same_full = canon_select_full(&select(&a)) == canon_select_full(&select(&b));
        prop_assert_eq!(same_key, same_full, "{} / {}", a, b);
    }
}
