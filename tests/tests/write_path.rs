//! The write-path cost model, pinned as counts rather than timings: a
//! single-row UPDATE or DELETE logs O(changed rows) bytes whatever the
//! table size, copies no whole column its statement does not reference,
//! and the log format is the one earlier builds wrote.

use monetlite::{Connection, Database};
use monetlite_types::{ColumnBuffer, Decimal, Value};
use std::path::Path;

const N: usize = 50_000;

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

/// Rows `lo..hi` of the test table: key, low-NDV and high-NDV strings
/// (fixed width, so a row's frame has the same size at every `n`), amount.
fn batch(lo: usize, hi: usize) -> Vec<ColumnBuffer> {
    vec![
        ColumnBuffer::Int((lo..hi).map(|i| i as i32).collect()),
        ColumnBuffer::Varchar((lo..hi).map(|i| Some(format!("g{}", i % 7))).collect()),
        ColumnBuffer::Varchar((lo..hi).map(|i| Some(format!("note-{i:07}"))).collect()),
        ColumnBuffer::Decimal { data: (lo..hi).map(|i| i as i64 * 100).collect(), scale: 2 },
    ]
}

/// A persistent `n`-row table in three segments (60% + 20% + 20%: the
/// tail stays below the doubling policy's threshold).
fn build(dir: &Path, n: usize) -> (Database, Connection) {
    let db = Database::open(dir).unwrap();
    let mut conn = db.connect();
    conn.execute(
        "CREATE TABLE t (k INT NOT NULL, grp VARCHAR(4), note VARCHAR(16), amt DECIMAL(12,2))",
    )
    .unwrap();
    for (lo, hi) in [(0, n * 3 / 5), (n * 3 / 5, n * 4 / 5), (n * 4 / 5, n)] {
        conn.append("t", batch(lo, hi)).unwrap();
    }
    (db, conn)
}

/// Which columns of the current `t` hold a cached consolidation.
fn cached(db: &Database) -> Vec<bool> {
    let snap = db.store().snapshot();
    snap.table("t").unwrap().data.cols.iter().map(|c| c.has_cached_consolidation()).collect()
}

/// WAL bytes logged by a 1-row UPDATE, a 1-row DELETE, an explicit
/// single-UPDATE transaction, and a 1-row UPDATE after a checkpoint (the
/// whole table in one file-backed segment with one big heap per VARCHAR).
fn single_row_write_frames(n: usize) -> [u64; 4] {
    let dir = tempfile::tempdir().unwrap();
    let (db, mut conn) = build(dir.path(), n);
    let before = db.store().snapshot();
    let cols = &before.table("t").unwrap().data.cols;
    assert!(cols.iter().all(|c| c.depth() == 3), "fixture must be segmented");
    let (upd, del, txn, post) = (n / 2, n / 2 + 1, n / 2 + 2, n / 2 + 3);

    let w0 = wal_len(dir.path());
    assert_eq!(conn.execute(&format!("UPDATE t SET amt = amt + 1 WHERE k = {upd}")).unwrap(), 1);
    let w1 = wal_len(dir.path());
    // The statement read `k` and nothing else: only that column of the
    // version it ran against may have been consolidated.
    let touched: Vec<bool> = cols.iter().map(|c| c.has_cached_consolidation()).collect();
    assert_eq!(touched, [true, false, false, false], "UPDATE consolidated unreferenced columns");

    assert_eq!(conn.execute(&format!("DELETE FROM t WHERE k = {del}")).unwrap(), 1);
    let w2 = wal_len(dir.path());
    assert_eq!(
        cached(&db),
        [true, false, false, false],
        "DELETE consolidated unreferenced columns"
    );

    conn.begin().unwrap();
    assert_eq!(conn.execute(&format!("UPDATE t SET grp = 'zz' WHERE k = {txn}")).unwrap(), 1);
    // Read-your-writes inside the transaction.
    let r = conn.query(&format!("SELECT grp, note FROM t WHERE k = {txn}")).unwrap();
    assert_eq!(r.row(0), vec![Value::Str("zz".into()), Value::Str(format!("note-{txn:07}"))]);
    conn.commit().unwrap();
    let w3 = wal_len(dir.path());

    db.checkpoint().unwrap();
    assert_eq!(wal_len(dir.path()), 0);
    assert_eq!(conn.execute(&format!("UPDATE t SET amt = amt + 1 WHERE k = {post}")).unwrap(), 1);
    let w4 = wal_len(dir.path());

    // Everything above survives a restart that replays the last frame.
    drop(conn);
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    let mut conn = db.connect();
    let r = conn.query("SELECT count(*), sum(amt) FROM t").unwrap();
    let want: i64 = (0..n as i64).map(|i| i * 100).sum::<i64>() + 200 - del as i64 * 100;
    assert_eq!(r.row(0), vec![Value::Bigint(n as i64 - 1), Value::Decimal(Decimal::new(want, 2))]);
    let r = conn
        .query(&format!(
            "SELECT k, grp, note, amt FROM t WHERE k >= {upd} AND k <= {post} ORDER BY k"
        ))
        .unwrap();
    let row = |k: usize, grp: String, bump: i64| {
        vec![
            Value::Int(k as i32),
            Value::Str(grp),
            Value::Str(format!("note-{k:07}")),
            Value::Decimal(Decimal::new(k as i64 * 100 + bump, 2)),
        ]
    };
    assert_eq!(r.nrows(), 3);
    assert_eq!(r.row(0), row(upd, format!("g{}", upd % 7), 100));
    assert_eq!(r.row(1), row(txn, "zz".into(), 0));
    assert_eq!(r.row(2), row(post, format!("g{}", post % 7), 100));
    [w1 - w0, w2 - w1, w3 - w2, w4]
}

#[test]
fn single_row_writes_log_bytes_independent_of_table_size() {
    let small = single_row_write_frames(N);
    for (what, bytes) in
        ["UPDATE", "DELETE", "BEGIN/UPDATE/COMMIT", "UPDATE after checkpoint"].iter().zip(small)
    {
        assert!(bytes > 0 && bytes < 1024, "{what} of one row logged {bytes} bytes at N = {N}");
    }
    assert_eq!(small, single_row_write_frames(4 * N), "frame sizes must not depend on N");
}

#[test]
fn update_of_a_deleted_and_reinserted_key_touches_only_visible_rows() {
    // Row ids handed to the gather come from segments of every age and
    // skip deleted rows; the delta holds exactly the visible matches.
    let dir = tempfile::tempdir().unwrap();
    let (_db, mut conn) = build(dir.path(), 1000);
    assert_eq!(conn.execute("DELETE FROM t WHERE k = 10").unwrap(), 1);
    assert_eq!(conn.execute("INSERT INTO t VALUES (10, NULL, 'again', 1.00)").unwrap(), 1);
    assert_eq!(
        conn.execute("UPDATE t SET note = NULL WHERE k = 10 OR k = 999 OR k = 0").unwrap(),
        3
    );
    let r = conn.query("SELECT k, grp, note, amt FROM t WHERE note IS NULL ORDER BY k").unwrap();
    let d = |raw| Value::Decimal(Decimal::new(raw, 2));
    assert_eq!(r.nrows(), 3);
    assert_eq!(r.row(0), vec![Value::Int(0), Value::Str("g0".into()), Value::Null, d(0)]);
    assert_eq!(r.row(1), vec![Value::Int(10), Value::Null, Value::Null, d(100)]);
    assert_eq!(r.row(2), vec![Value::Int(999), Value::Str("g5".into()), Value::Null, d(99_900)]);
    assert_eq!(conn.query("SELECT count(*) FROM t").unwrap().value(0, 0), Value::Bigint(1000));
}

/// `fixtures/wal_parent_9952dd3.log` was written by the build before
/// copy-on-write heaps and compact deltas (commit 9952dd3): two INSERTs,
/// an UPDATE and a transaction whose `Append` frames carry the full heaps
/// of both VARCHAR columns, and two DELETEs. Same tags, same framing: it
/// must replay unchanged.
#[test]
fn log_written_by_the_previous_build_still_replays() {
    let dir = tempfile::tempdir().unwrap();
    std::fs::write(
        dir.path().join("wal.log"),
        include_bytes!("../fixtures/wal_parent_9952dd3.log"),
    )
    .unwrap();
    let s = |v: &str| Value::Str(v.into());
    let d = |raw| Value::Decimal(Decimal::new(raw, 2));
    let want = vec![
        vec![Value::Int(2), s("blue"), s("rewritten"), d(350)],
        vec![Value::Int(4), s("black"), s("fourth note"), d(450)],
        vec![Value::Int(5), s("black"), s("fifth note"), Value::Null],
    ];
    // Twice: once replaying the log, once from the checkpoint recovery wrote.
    for round in 0..2 {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = db.connect();
        let r = conn.query("SELECT k, tag, note, amt FROM w ORDER BY k").unwrap();
        let got: Vec<Vec<Value>> = (0..r.nrows()).map(|i| r.row(i)).collect();
        assert_eq!(got, want, "round {round}");
    }
}
