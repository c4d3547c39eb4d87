//! Three-valued-logic regression suite: the classic NULL traps of
//! `NOT IN`, `NOT EXISTS` and scalar subqueries, each asserted against
//! the SQL-standard answer — on every configuration of the lattice and on
//! the volcano row store.
//!
//! The trap matrix:
//! * `x NOT IN (empty)` is TRUE for every `x`, including NULL;
//! * `x NOT IN (S)` is never TRUE once S contains a NULL;
//! * `NULL NOT IN (non-empty S)` is UNKNOWN → the row drops;
//! * `EXISTS` cares about rows, not values: a subquery of all-NULL rows
//!   still exists;
//! * a scalar subquery over zero rows yields NULL — except COUNT, whose
//!   empty-group answer is 0;
//! * a scalar subquery yielding more than one row is an error.

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite_tests::{pinned, Corpus, Twin};
use monetlite_types::LogicalType;

const DDL: &str = "CREATE TABLE probe (x INT); \
     INSERT INTO probe VALUES (1), (2), (NULL); \
     CREATE TABLE sub_empty (y INT); \
     CREATE TABLE sub_nulls (y INT); \
     INSERT INTO sub_nulls VALUES (NULL), (NULL); \
     CREATE TABLE sub_mixed (y INT); \
     INSERT INTO sub_mixed VALUES (1), (NULL); \
     CREATE TABLE sub_plain (y INT); \
     INSERT INTO sub_plain VALUES (1), (3); \
     CREATE TABLE li (l_quantity DECIMAL(15,2), l_extendedprice DECIMAL(15,2), l_tax DOUBLE); \
     INSERT INTO li VALUES (17.00, 21168.23, 0.02), (NULL, 45983.16, NULL); \
     CREATE TABLE t (a INT, b BIGINT, s VARCHAR); \
     INSERT INTO t VALUES (1, 5, 'p'), (2, 7, 'q'), (NULL, NULL, NULL); \
     CREATE TABLE days (dt DATE); \
     INSERT INTO days VALUES ('1998-12-01'), (NULL);";

/// The trap tables hold two to four rows: two-row vectors split them.
const TRAPS: Corpus = Corpus::tiny(2);

/// Assert the SQL-standard answer on every engine.
fn expect(sql: &str, want: &[&str]) {
    Twin::default().script(DDL).expect(sql, TRAPS, want);
}

/// [`expect`], and the result columns' types on every engine.
fn expect_typed(sql: &str, types: &[LogicalType], want: &[&str]) {
    for a in Twin::default().script(DDL).expect(sql, TRAPS, want) {
        assert_eq!(a.types, types, "{}: result column types of {sql}", a.label);
    }
}

#[test]
fn not_in_empty_subquery_keeps_every_row() {
    // Vacuous NOT IN: TRUE for every probe value, including NULL.
    expect("SELECT x FROM probe WHERE x NOT IN (SELECT y FROM sub_empty)", &["1", "2", "NULL"]);
}

#[test]
fn not_in_all_null_subquery_keeps_nothing() {
    // x <> NULL is UNKNOWN for every x: nothing can prove non-membership.
    expect("SELECT x FROM probe WHERE x NOT IN (SELECT y FROM sub_nulls)", &[]);
}

#[test]
fn not_in_subquery_with_some_null_keeps_nothing() {
    // 1 is a member (FALSE); 2 vs {1, NULL} is UNKNOWN; NULL is UNKNOWN.
    expect("SELECT x FROM probe WHERE x NOT IN (SELECT y FROM sub_mixed)", &[]);
}

#[test]
fn not_in_plain_subquery_keeps_only_true_non_members() {
    // 1 is a member; NULL probe is UNKNOWN; 2 is a genuine non-member.
    expect("SELECT x FROM probe WHERE x NOT IN (SELECT y FROM sub_plain)", &["2"]);
}

#[test]
fn in_subquery_null_traps() {
    // IN: NULLs in the subquery can never make membership TRUE, and a
    // NULL probe is UNKNOWN.
    expect("SELECT x FROM probe WHERE x IN (SELECT y FROM sub_nulls)", &[]);
    expect("SELECT x FROM probe WHERE x IN (SELECT y FROM sub_mixed)", &["1"]);
    expect("SELECT x FROM probe WHERE x IN (SELECT y FROM sub_empty)", &[]);
}

#[test]
fn not_in_value_list_with_null_keeps_nothing() {
    // The desugared IN-list form hits the same trap.
    expect("SELECT x FROM probe WHERE x NOT IN (1, NULL)", &[]);
    expect("SELECT x FROM probe WHERE x NOT IN (1, 3)", &["2"]);
}

#[test]
fn exists_counts_rows_not_values() {
    // Two all-NULL rows still exist.
    expect("SELECT x FROM probe WHERE NOT EXISTS (SELECT * FROM sub_nulls)", &[]);
    expect("SELECT x FROM probe WHERE NOT EXISTS (SELECT * FROM sub_empty)", &["1", "2", "NULL"]);
    expect("SELECT x FROM probe WHERE EXISTS (SELECT * FROM sub_nulls)", &["1", "2", "NULL"]);
}

#[test]
fn correlated_not_exists_null_key_never_matches() {
    // A NULL outer key matches nothing, so NOT EXISTS is TRUE for it.
    expect(
        "SELECT x FROM probe WHERE NOT EXISTS (SELECT * FROM sub_mixed WHERE y = x)",
        &["2", "NULL"],
    );
    expect("SELECT x FROM probe WHERE EXISTS (SELECT * FROM sub_mixed WHERE y = x)", &["1"]);
}

#[test]
fn scalar_subquery_over_zero_rows_is_null() {
    // Aggregate over an empty table: NULL; the comparison is UNKNOWN.
    expect("SELECT x FROM probe WHERE x < (SELECT min(y) FROM sub_empty)", &[]);
    expect("SELECT x FROM probe WHERE x >= (SELECT max(y) FROM sub_empty)", &[]);
    // Non-aggregate scalar subquery over zero rows: also NULL.
    expect("SELECT x FROM probe WHERE x = (SELECT y FROM sub_empty)", &[]);
}

#[test]
fn scalar_count_over_zero_rows_is_zero_not_null() {
    // The COUNT exception: an empty (or absent, when correlated) group
    // answers 0, not NULL.
    expect("SELECT x FROM probe WHERE (SELECT count(*) FROM sub_empty) = 0", &["1", "2", "NULL"]);
    // Correlated: x = 2 and x = NULL have no matching sub_plain rows, so
    // their count is 0 — the classic decorrelation bug this guards.
    expect(
        "SELECT x FROM probe WHERE (SELECT count(*) FROM sub_plain WHERE y = x) = 0",
        &["2", "NULL"],
    );
    expect("SELECT x FROM probe WHERE (SELECT count(*) FROM sub_plain WHERE y = x) = 1", &["1"]);
}

#[test]
fn scalar_subquery_with_more_than_one_row_errors() {
    let sql = "SELECT x FROM probe WHERE x = (SELECT y FROM sub_plain)";
    let db = monetlite::Database::open_in_memory();
    db.connect().run_script(DDL).unwrap();
    for mode in [ExecMode::Materialized, ExecMode::Streaming] {
        let mut c = db.connect();
        c.set_exec_options(ExecOptions { mode, ..pinned(1, 64 * 1024) });
        let e = c.query(sql).expect_err("two-row scalar subquery must error");
        assert!(e.to_string().contains("scalar subquery"), "{mode:?}: {e}");
    }
    let rdb = monetlite_rowstore::RowDb::in_memory();
    rdb.run_script(DDL).unwrap();
    let e = rdb.query(sql).expect_err("two-row scalar subquery must error (rowstore)");
    assert!(e.to_string().contains("scalar subquery"), "rowstore: {e}");
}

#[test]
fn aggregates_ignore_nulls_but_count_star_does_not() {
    // Not a subquery trap, but the NULL-vs-aggregate contract everything
    // above builds on.
    expect("SELECT count(*), count(y), min(y), max(y) FROM sub_mixed", &["2|1|1|1"]);
    expect("SELECT count(*), count(y) FROM sub_nulls", &["2|0"]);
    expect("SELECT count(*), count(y), sum(y) FROM sub_empty", &["0|0|NULL"]);
}

/// Arithmetic with a NULL operand is NULL on every row, whatever the other
/// operand's type: the NULL literal takes its type from the expression
/// (an explicit cast of NULL folds to the same untyped literal) instead of
/// defaulting to INTEGER and failing the kernel's type check.
#[test]
fn arithmetic_with_a_null_operand_is_null() {
    for sql in [
        "SELECT l_quantity + NULL FROM li",
        "SELECT NULL - l_quantity FROM li",
        "SELECT l_extendedprice * cast(NULL as decimal(15,2)) FROM li",
        "SELECT l_quantity / NULL FROM li",
        "SELECT l_tax * NULL FROM li",
        "SELECT (l_quantity + NULL) * 2 FROM li",
    ] {
        expect(sql, &["NULL", "NULL"]);
    }
    expect("SELECT 1.5 + NULL", &["NULL"]);
    expect("SELECT NULL * 1.5", &["NULL"]);
    expect("SELECT l_quantity FROM li WHERE l_quantity + NULL > 1", &[]);
    expect("SELECT count(*) FROM li WHERE l_quantity + NULL IS NULL", &["2"]);
}

/// `-0.0 = 0.0` is true, so every hash-based operator must treat the two
/// as one key: one group, one DISTINCT row, a match in a join and in an
/// `IN` subquery — on both engines, with and without the automatic hash
/// index on a bare build column.
#[test]
fn negative_zero_and_zero_are_one_key_in_every_hash_operator() {
    use monetlite_types::ColumnBuffer;
    let db = monetlite::Database::open_in_memory();
    let mut setup = db.connect();
    setup.run_script("CREATE TABLE t (d DOUBLE); CREATE TABLE u (e DOUBLE);").unwrap();
    setup.append("t", vec![ColumnBuffer::Double(vec![0.0, 1.5, -0.0, -1.5])]).unwrap();
    setup.append("u", vec![ColumnBuffer::Double(vec![0.0])]).unwrap();
    for mode in [ExecMode::Materialized, ExecMode::Streaming] {
        for use_hash_index in [true, false] {
            let mut c = db.connect();
            c.set_exec_options(ExecOptions { mode, use_hash_index, ..pinned(1, 64 * 1024) });
            let mut rows = |sql: &str| {
                c.query(sql).unwrap_or_else(|e| panic!("{mode:?}/{use_hash_index}: {e}")).nrows()
            };
            let label = format!("{mode:?}, hash index {use_hash_index}");
            assert_eq!(rows("SELECT d FROM t WHERE d = 0.0"), 2, "{label}: the comparison");
            assert_eq!(rows("SELECT d, count(*) FROM t GROUP BY d"), 3, "{label}: GROUP BY");
            assert_eq!(rows("SELECT DISTINCT d FROM t"), 3, "{label}: DISTINCT");
            assert_eq!(rows("SELECT d FROM t JOIN u ON d = e"), 2, "{label}: t JOIN u");
            assert_eq!(rows("SELECT e FROM u JOIN t ON e = d"), 2, "{label}: u JOIN t");
            assert_eq!(rows("SELECT d FROM t WHERE d IN (SELECT e FROM u)"), 2, "{label}: IN");
        }
    }
}

/// A `THEN NULL` branch takes the CASE's type from the other branches,
/// like a NULL `ELSE` does, instead of typing the whole CASE as INTEGER.
#[test]
fn case_with_a_null_branch_takes_the_other_branches_type() {
    // b = 5 → NULL; b = 7 → 'x'; b NULL → the condition is UNKNOWN → 'x'.
    expect("SELECT CASE WHEN b = 5 THEN NULL ELSE 'x' END FROM t", &["NULL", "x", "x"]);
    // a = 1 → NULL; a = 2 → 'q'; a NULL → s, which is NULL there.
    expect("SELECT max(CASE WHEN a = 1 THEN NULL ELSE s END) FROM t", &["q"]);
    // All-NULL values keep today's type.
    expect("SELECT CASE WHEN a = 1 THEN NULL END FROM t", &["NULL", "NULL", "NULL"]);
}

/// A NULL literal compared with a VARCHAR or DATE value takes that
/// value's type instead of INTEGER, which has no common type with
/// either; and `NULL = NULL` is a BOOLEAN NULL, not an INTEGER one.
#[test]
fn null_literal_compared_with_any_type_is_unknown() {
    expect("SELECT s = NULL FROM t", &["NULL", "NULL", "NULL"]);
    expect("SELECT dt <> NULL FROM days", &["NULL", "NULL"]);
    // 'p' is a member; nothing else can be proven one.
    expect("SELECT a FROM t WHERE s IN (NULL, 'p')", &["1"]);
    expect("SELECT a FROM t WHERE substring(s, 1, 1) IN ('p', NULL)", &["1"]);
    expect("SELECT a FROM t WHERE s NOT IN (NULL, 'p')", &[]);
    // dt >= NULL is UNKNOWN for every row.
    expect("SELECT dt FROM days WHERE dt BETWEEN NULL AND DATE '1999-01-01'", &[]);
    expect("SELECT a FROM t WHERE NULL = NULL", &[]);
    expect("SELECT a FROM t WHERE NOT (NULL = NULL)", &[]);
}

/// `CAST(NULL AS t)` is a NULL of type `t`, not an INTEGER NULL: the
/// result column has type `t`, and a function of `t` accepts it.
#[test]
fn cast_null_keeps_its_type() {
    use LogicalType::{Date, Int, Varchar};
    expect_typed("SELECT CAST(NULL AS VARCHAR) FROM t", &[Varchar], &["NULL"; 3]);
    expect_typed("SELECT CAST(NULL AS DATE) FROM t", &[Date], &["NULL"; 3]);
    expect_typed("SELECT UPPER(CAST(NULL AS VARCHAR)) FROM t", &[Varchar], &["NULL"; 3]);
    expect_typed("SELECT a, CAST(NULL AS DATE) FROM t WHERE a = 1", &[Int, Date], &["1|NULL"]);
}

/// An untyped NULL argument of a scalar function takes the parameter's
/// type, as it takes the other operand's in a comparison: the call binds
/// and yields NULL.
#[test]
fn untyped_null_function_argument_takes_the_parameter_type() {
    use LogicalType::{Int, Varchar};
    expect_typed("SELECT UPPER(NULL), LOWER(NULL) FROM t", &[Varchar, Varchar], &["NULL|NULL"; 3]);
    expect_typed(
        "SELECT LENGTH(NULL), SUBSTRING(NULL, 1, 2) FROM t",
        &[Int, Varchar],
        &["NULL|NULL"; 3],
    );
    expect_typed(
        "SELECT EXTRACT(YEAR FROM NULL), year(NULL), month(NULL), day(NULL) FROM days",
        &[Int; 4],
        &["NULL|NULL|NULL|NULL"; 2],
    );
    expect("SELECT a FROM t WHERE LENGTH(NULL) > 1", &[]);
    expect("SELECT count(*) FROM t WHERE UPPER(NULL) IS NULL", &["3"]);
}

/// An untyped NULL where a BOOLEAN belongs — a predicate, an operand of
/// AND, OR or NOT, a CASE condition — is a BOOLEAN UNKNOWN, not an
/// INTEGER that fails to bind.
#[test]
fn untyped_null_boolean_operand_is_unknown() {
    use LogicalType::{Bigint, Bool, Int};
    expect_typed("SELECT a FROM t WHERE NULL", &[Int], &[]);
    expect_typed("SELECT count(*) FROM t WHERE NULL", &[Bigint], &["0"]);
    expect_typed("SELECT a FROM t WHERE a = 1 AND NULL", &[Int], &[]);
    expect_typed("SELECT a FROM t WHERE a = 1 OR NULL", &[Int], &["1"]);
    expect_typed("SELECT a FROM t WHERE NULL OR a = 2", &[Int], &["2"]);
    expect_typed("SELECT a FROM t WHERE NOT (a = 1 AND NULL)", &[Int], &["2"]);
    expect_typed("SELECT a = 1 AND NULL FROM t", &[Bool], &["NULL", "false", "NULL"]);
    expect_typed("SELECT CASE WHEN NULL THEN 1 ELSE 2 END FROM t", &[Int], &["2"; 3]);
}

/// The plan cache replays a template whose NULL operand became a BOOLEAN
/// parameter; an INTEGER in the NULL's place is no BOOLEAN, so it must
/// miss the template and fail to bind as it would uncached.
#[test]
fn a_cached_null_boolean_operand_admits_no_integer() {
    let db = monetlite::Database::open_in_memory();
    db.connect().run_script(DDL).unwrap();
    let mut c = db.connect();
    c.set_exec_options(ExecOptions {
        use_plan_cache: true,
        plan_cache_bytes: 64 << 20,
        ..pinned(1, 64 * 1024)
    });
    for (null, int) in [
        ("SELECT a FROM t WHERE NULL", "SELECT a FROM t WHERE 1"),
        ("SELECT a FROM t WHERE a = 1 AND NULL", "SELECT a FROM t WHERE a = 1 AND 1"),
        ("SELECT a FROM t WHERE NULL OR a = 2", "SELECT a FROM t WHERE 1 OR a = 2"),
        ("SELECT a FROM t WHERE NOT (a = 1 AND NULL)", "SELECT a FROM t WHERE NOT (a = 1 AND 1)"),
    ] {
        let first = c.query(null).unwrap_or_else(|e| panic!("{null}: {e}"));
        let again = c.query(null).unwrap_or_else(|e| panic!("{null} (cached): {e}"));
        assert_eq!(first.nrows(), again.nrows(), "{null}");
        assert_eq!(c.last_exec_counters().unwrap().plan_cache_hits, 1, "{null}: no plan hit");
        let e = c.query(int).expect_err(int);
        assert!(e.to_string().contains("BOOLEAN"), "{int}: {e}");
    }
}
