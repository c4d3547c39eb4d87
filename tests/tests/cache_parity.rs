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
//! * Token path ≡ parse path: a statement served from its recorded
//!   skeleton gets the memo the parser and normalizer would have built,
//!   and a skeleton never serves a literal of another type.
//! * Estimates on read: `estimated_rows`, computed when the counters are
//!   read, is what it was when every statement computed it, on every
//!   path through the caches.

use monetlite::exec::ExecOptions;
use monetlite::opt::{OptFlags, StatsMode};
use monetlite::plan_cache::{PlanCache, Skeleton, StmtMemo};
use monetlite_sql::canon::{canon_select_full, normalize_select, restore_literals};
use monetlite_sql::lexer::tokenize;
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
            c.set_opt_flags(OptFlags { join_dp: !on, ..Default::default() });
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

// ---------------------------------------------------------------------------
// Token path ≡ parse path
// ---------------------------------------------------------------------------

/// The statement shapes the skeleton memo is checked on, `{}` standing
/// for a literal: the twelve `adhoc_small` templates and the corpus of
/// [`gen_select`] (an IN list, a LIKE pattern, projection, LIMIT and
/// subquery literals).
const SHAPES: [&str; 19] = [
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {}",
    "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = {}",
    "SELECT p_name, p_brand, p_retailprice FROM part WHERE p_partkey = {}",
    "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = {}",
    "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
     WHERE l_orderkey = {} ORDER BY l_linenumber",
    "SELECT ps_suppkey, ps_availqty FROM partsupp WHERE ps_partkey = {}",
    "SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey AND o_orderkey = {}",
    "SELECT l_linenumber, p_name FROM lineitem, part WHERE l_partkey = p_partkey AND l_orderkey = {}",
    "SELECT count(*) FROM orders WHERE o_custkey = {}",
    "SELECT o_orderstatus, count(*) FROM orders WHERE o_custkey = {} \
     GROUP BY o_orderstatus ORDER BY o_orderstatus",
    "SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem WHERE l_partkey = {} \
     GROUP BY l_returnflag ORDER BY l_returnflag",
    "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_orderdate >= {} AND o_orderdate < {}",
    "select x from t where x > {}",
    "select x, {} from t where s = {} and x between {} and {}",
    "select x from t where x in ({}) order by 1 limit {}",
    "select s from t where s like {} and x <> {}",
    "select x from t where exists (select 1 from u where u.k = t.x and u.v < {})",
    "select x from t where x = {} or x = {}",
    "select count(*) from t group by s having count(*) > {}",
];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A literal of kind `kind` (random when `None`), drawn from small spaces
/// so that values and types collide often: integers (negative, beyond
/// `i32`), decimals of scale 0–4, strings with doubled quotes, dates, and
/// look-alikes of one value in four types.
fn literal(rng: &mut TestRng, kind: Option<usize>) -> String {
    let sign = if pick(rng, 4) == 0 { "-" } else { "" };
    match kind.unwrap_or_else(|| pick(rng, 7)) {
        0 => format!("{sign}{}", pick(rng, 12)),
        1 => format!("{sign}{}", [2_147_483_647u64, 2_147_483_648, 3_000_000_000][pick(rng, 3)]),
        2 => {
            let scale = pick(rng, 5);
            let int = pick(rng, 3);
            let frac: String = (0..scale).map(|_| char::from(b'0' + pick(rng, 3) as u8)).collect();
            if scale == 0 {
                format!("{sign}{int}")
            } else {
                format!("{sign}{int}.{frac}")
            }
        }
        3 => {
            let body: String = (0..pick(rng, 4))
                .map(|_| ["a", "''", "5", ",", "?0:int", "%"][pick(rng, 6)])
                .collect();
            format!("'{body}'")
        }
        4 => {
            let kw = ["date", "DATE", "Date"][pick(rng, 3)];
            format!("{kw} '199{}-0{}-1{}'", pick(rng, 3), 1 + pick(rng, 3), pick(rng, 3))
        }
        _ => ["5", "5.0", "5.00", "'5'"][pick(rng, 4)].to_string(),
    }
}

/// A statement of `shape` with random literals of `kind` (an IN list of
/// one to four), random identifier and keyword case, and its spaces
/// replaced by random whitespace and comments.
fn statement(rng: &mut TestRng, shape: &str, kind: Option<usize>) -> String {
    let code = |rng: &mut TestRng, piece: &str| -> String {
        let mut out = String::new();
        for (i, word) in piece.split(' ').enumerate() {
            if i > 0 {
                out.push_str([" ", "  ", "\n\t", " /* c */ ", " -- c\n"][pick(rng, 5)]);
            }
            match pick(rng, 3) {
                0 => out.push_str(&word.to_ascii_uppercase()),
                1 => out.push_str(&word.to_ascii_lowercase()),
                _ => out.push_str(word),
            }
        }
        out
    };
    let mut pieces = shape.split("{}");
    let mut before = pieces.next().unwrap_or_default();
    let mut sql = code(rng, before);
    for piece in pieces {
        // The grammar takes only an integer after LIMIT and only a
        // string after LIKE.
        if before.ends_with("in (") {
            let n = 1 + pick(rng, 4);
            let members: Vec<String> = (0..n).map(|_| literal(rng, kind)).collect();
            sql.push_str(&members.join(", "));
        } else if before.ends_with("limit ") {
            sql.push_str(&pick(rng, 4).to_string());
        } else if before.ends_with("like ") {
            sql.push_str(["'a%'", "'%''%'", "'b_'"][pick(rng, 3)]);
        } else {
            sql.push_str(&literal(rng, kind));
        }
        sql.push_str(&code(rng, piece));
        before = piece;
    }
    sql
}

const BUDGET: usize = 64 << 20;

/// The memo the token path serves for `sql`, if its skeleton is recorded.
fn token_path(cache: &PlanCache, sql: &str) -> Option<StmtMemo> {
    let tokens = tokenize(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    cache.skeleton_get(&Skeleton::of(&tokens).expect("a query with valid literals"))
}

/// The parse path: parse, normalize, and record the skeleton when the
/// token path reproduces the memo.
fn parse_path(cache: &PlanCache, sql: &str) -> StmtMemo {
    let memo = cache.normalize(select(sql), BUDGET);
    let tokens = tokenize(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    cache.skeleton_put(&Skeleton::of(&tokens).expect("a query"), &memo, BUDGET);
    memo
}

fn same_memo(a: &StmtMemo, b: &StmtMemo) -> bool {
    a.result_key == b.result_key && a.shape.plan_key == b.shape.plan_key && a.params == b.params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    // A session of statements over three shapes, with literals of one
    // kind or of every kind: every statement the token path serves gets
    // the parse path's memo, byte for byte.
    #[test]
    fn token_path_reproduces_the_parse_path(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let cache = PlanCache::default();
        let shapes: Vec<&str> = (0..3).map(|_| SHAPES[pick(&mut rng, SHAPES.len())]).collect();
        let kind = [None, Some(0), Some(3), Some(4), Some(5)][pick(&mut rng, 5)];
        let mut served = 0;
        for _ in 0..40 {
            let shape = shapes[pick(&mut rng, shapes.len())];
            let sql = statement(&mut rng, shape, kind);
            let token = token_path(&cache, &sql);
            let parsed = parse_path(&cache, &sql);
            if let Some(token) = token {
                served += 1;
                prop_assert_eq!(&token.result_key, &parsed.result_key, "{}", sql);
                prop_assert_eq!(&token.shape.plan_key, &parsed.shape.plan_key, "{}", sql);
                prop_assert_eq!(&token.params, &parsed.params, "{}", sql);
            }
        }
        // IN-list members stay in the keys, so a session of IN lists
        // alone may never repeat a skeleton's verbatim tokens.
        let lists = shapes.iter().all(|s| s.contains("in ({})"));
        prop_assert!(served > 0 || lists, "the token path never served: {:?}", shapes);
    }
}

/// `= 5`, `= 5.0`, `= 5.00` and `= '5'` bind and key differently, so no
/// skeleton recorded for one may serve another.
#[test]
fn a_skeleton_serves_only_its_own_literal_types() {
    let texts = ["5", "5.0", "5.00", "'5'"].map(|l| format!("select x from t where x = {l}"));
    let cache = PlanCache::default();
    parse_path(&cache, &texts[0]);
    for other in &texts[1..] {
        assert!(token_path(&cache, other).is_none(), "{other} served from `= 5`'s skeleton");
    }
    let memos: Vec<StmtMemo> = texts.iter().map(|t| parse_path(&cache, t)).collect();
    for (text, memo) in texts.iter().zip(&memos) {
        let token = token_path(&cache, text).unwrap_or_else(|| panic!("{text} not recorded"));
        assert!(same_memo(&token, memo), "{text}");
    }
    let keys: std::collections::HashSet<&str> = memos.iter().map(|m| &*m.shape.plan_key).collect();
    assert_eq!(keys.len(), 4);
}

/// The token path serves any spelling of a recorded skeleton — other
/// literal values, case, whitespace, comments — and refuses what it
/// cannot reproduce.
#[test]
fn skeletons_record_only_what_the_token_path_reproduces() {
    let cache = PlanCache::default();
    parse_path(&cache, "select x from t where x = 5 and s = 'a'");
    let variant = "SELECT X /* c */ FROM T\n WHERE x = 7 AND s = 'it''s' -- c";
    let token = token_path(&cache, variant).expect("a variant of a recorded skeleton");
    assert!(same_memo(&token, &parse_path(&cache, variant)));
    // A negated literal is a minus sign and a literal token.
    assert!(token_path(&cache, "select x from t where x = -7 and s = 'a'").is_none());
    parse_path(&cache, "select x from t where x = -5 and s = 'a'");
    let negated = "select x from t where x = -2147483647 and s = 'a'";
    let token = token_path(&cache, negated).expect("a negated literal is served");
    assert!(same_memo(&token, &parse_path(&cache, negated)));
    // -2147483648 is the minus sign and 2147483648, a BIGINT.
    assert!(token_path(&cache, "select x from t where x = -2147483648 and s = 'a'").is_none());

    // Which of two equal literals became the parameter is unknown: not
    // recorded.
    let cache = PlanCache::default();
    parse_path(&cache, "select x, 5 from t where x = 5");
    assert!(token_path(&cache, "select x, 5 from t where x = 7").is_none());
    assert!(token_path(&cache, "select x, 7 from t where x = 5").is_none());
    // With distinct values it is known; the projection literal stays
    // verbatim and must match.
    parse_path(&cache, "select x, 5 from t where x = 7");
    assert!(token_path(&cache, "select x, 6 from t where x = 7").is_none());
    let token = token_path(&cache, "select x, 5 from t where x = 5").expect("recorded");
    assert!(same_memo(&token, &parse_path(&cache, "select x, 5 from t where x = 5")));

    // IN-list members and LIKE patterns stay in the keys.
    parse_path(&cache, "select x from t where x in (1, 2) and s like 'a%'");
    assert!(token_path(&cache, "select x from t where x in (1, 3) and s like 'a%'").is_none());
    assert!(token_path(&cache, "select x from t where x in (1, 2) and s like 'b%'").is_none());
    assert!(token_path(&cache, "select x from t where x in (1, 2) and s like 'a%'").is_some());
}

// ---------------------------------------------------------------------------
// Estimates on read
// ---------------------------------------------------------------------------

/// `estimated_rows` read after each path a SELECT can take, in order:
/// uncached (filter, join), plan-cache miss, plan-cache hit, result-cache
/// hit (each for a filter and a join), a SELECT in a transaction that
/// wrote, and the same counters read again after the transaction wrote
/// more.
fn estimates_on_every_path() -> Vec<(&'static str, u64)> {
    use monetlite_types::ColumnBuffer;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE e (k INTEGER, v INTEGER)").unwrap();
    conn.append(
        "e",
        vec![
            ColumnBuffer::Int((0..20_000).map(|i| i % 100).collect()),
            ColumnBuffer::Int((0..20_000).map(|i| i % 7).collect()),
        ],
    )
    .unwrap();
    conn.execute("CREATE TABLE d (k INTEGER, name VARCHAR)").unwrap();
    let rows: Vec<String> = (0..40).map(|i| format!("({i}, 'n{i}')")).collect();
    conn.execute(&format!("INSERT INTO d VALUES {}", rows.join(", "))).unwrap();
    let filter = |k: i32| format!("SELECT v FROM e WHERE k = {k}");
    let join = |k: i32| format!("SELECT e.v, d.name FROM e, d WHERE e.k = d.k AND d.k < {k}");
    // Estimates read materialised statistics only; EXPLAIN builds them.
    conn.query(&format!("EXPLAIN {}", join(10))).unwrap();
    let mut out = Vec::new();
    let mut read = |conn: &mut monetlite::Connection, label, sql: &str| {
        conn.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        out.push((label, conn.last_exec_counters().unwrap().estimated_rows));
    };
    conn.set_exec_options(ExecOptions::default());
    read(&mut conn, "uncached filter", &filter(5));
    read(&mut conn, "uncached join", &join(10));
    let mut cached = db.connect();
    cached.set_exec_options(cached_opts());
    read(&mut cached, "plan miss filter", &filter(5));
    read(&mut cached, "plan hit filter", &filter(9));
    read(&mut cached, "result hit filter", &filter(5));
    read(&mut cached, "plan miss join", &join(10));
    read(&mut cached, "plan hit join", &join(30));
    read(&mut cached, "result hit join", &join(10));
    cached.execute("BEGIN").unwrap();
    cached.execute("INSERT INTO e VALUES (5, 1), (5, 2)").unwrap();
    read(&mut cached, "select after a write", &filter(5));
    cached
        .append(
            "e",
            vec![ColumnBuffer::Int(vec![5; 20_000]), ColumnBuffer::Int((0..20_000).collect())],
        )
        .unwrap();
    out.push(("read after another write", cached.last_exec_counters().unwrap().estimated_rows));
    cached.execute("ROLLBACK").unwrap();
    out
}

/// The values every statement computed eagerly before estimates moved to
/// the read, on this scenario.
#[test]
fn estimates_on_read_equal_the_eager_ones() {
    let want = [
        ("uncached filter", 212),
        ("uncached join", 2123),
        ("plan miss filter", 212),
        ("plan hit filter", 212),
        ("result hit filter", 212),
        ("plan miss join", 2123),
        ("plan hit join", 6369),
        ("result hit join", 2123),
        ("select after a write", 212),
        ("read after another write", 212),
    ];
    assert_eq!(estimates_on_every_path(), want);
}

/// A failed statement leaves the previous statement's counters, estimate
/// included, as they were.
#[test]
fn a_failed_statement_keeps_the_previous_counters() {
    let (_db, mut conn) = tiny_db();
    for opts in [cached_opts(), ExecOptions::default()] {
        conn.set_exec_options(opts);
        conn.query("SELECT x FROM t WHERE x > 4").unwrap();
        let before = conn.last_exec_counters();
        assert!(before.is_some_and(|c| c.estimated_rows > 0));
        assert!(conn.query("SELECT nope FROM t WHERE x > 4").is_err());
        assert!(conn.query("SELECT x FROM t WHERE x >").is_err());
        assert_eq!(conn.last_exec_counters(), before);
    }
}
