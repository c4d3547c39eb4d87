//! Engine robustness under runtime failures: a kernel error inside a
//! parallel morsel worker must surface as a plain [`MlError`] on the
//! issuing connection — never a panic that unwinds into (and kills) the
//! embedding host process — and the connection must stay usable for the
//! next query (paper §3.4: corrupt or failing state produces "a simple
//! error being thrown").

use monetlite_tests::{each_row, pinned, Corpus};
use monetlite_types::{MlError, Value};

/// A table whose `b` column is non-zero everywhere except deep inside a
/// late morsel, so `a % b` errors only after the fan-out has dispatched
/// work to every thread.
fn poisoned_db(rows: usize, zero_at: usize) -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let mut vals = Vec::with_capacity(rows);
    for i in 0..rows {
        let b = if i == zero_at { 0 } else { 1 + (i % 7) as i32 };
        vals.push(format!("({}, {})", i as i32, b));
    }
    // Batched inserts keep setup fast.
    for chunk in vals.chunks(512) {
        conn.execute(&format!("INSERT INTO t VALUES {}", chunk.join(", "))).unwrap();
    }
    db
}

/// The satellite regression: at threads=4 with many morsels, a kernel
/// forced to error mid-pipeline (modulo by zero in a late morsel) returns
/// `MlError::Execution` instead of panicking/poisoning, and the same
/// connection answers the next query normally.
#[test]
fn worker_error_mid_pipeline_keeps_connection_usable() {
    let rows = 4096;
    let db = poisoned_db(rows, rows - 100);
    let mut conn = db.connect();
    conn.set_exec_options(pinned(4, 256));
    match conn.query("SELECT a % b FROM t") {
        Err(MlError::Execution(m)) => {
            assert!(m.contains("division by zero"), "unexpected message: {m}")
        }
        other => panic!("expected division-by-zero execution error, got {other:?}"),
    }
    // The connection (and the shared database) must remain fully usable.
    let r = conn.query("SELECT COUNT(*), MIN(a), MAX(a) FROM t").unwrap();
    assert_eq!(
        r.row(0),
        vec![Value::Bigint(rows as i64), Value::Int(0), Value::Int(rows as i64 as i32 - 1)]
    );
}

/// Same failure under every configuration of the lattice, each with many
/// 64-row morsels: every engine shape degrades to the same error (twice,
/// when a cache is on) and stays usable.
#[test]
fn worker_error_consistent_across_engine_shapes() {
    let rows = 2048;
    let db = poisoned_db(rows, rows / 2);
    each_row(|row| {
        let mut conn = row.connect(&db, Corpus::tiny(64));
        assert!(
            matches!(row.run(&mut conn, "SELECT a % b FROM t"), Err(MlError::Execution(_))),
            "{}: the kernel error must surface",
            row.label
        );
        let r = conn.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.row(0), vec![Value::Bigint(rows as i64)], "{}", row.label);
    });
}

/// An error inside a pipeline *breaker* (aggregation over the failing
/// expression) takes the partial-aggregate merge path rather than the
/// plain collect path; it must degrade identically.
#[test]
fn worker_error_inside_aggregate_breaker() {
    let rows = 2048;
    let db = poisoned_db(rows, rows - 1);
    let mut conn = db.connect();
    conn.set_exec_options(pinned(4, 128));
    assert!(matches!(conn.query("SELECT SUM(a % b) FROM t"), Err(MlError::Execution(_))));
    let r = conn.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.row(0), vec![Value::Bigint(rows as i64)]);
}
