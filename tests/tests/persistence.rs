//! End-to-end durability: checkpointing, WAL recovery, vmem paging and
//! corruption handling across full engine restarts. Every test that reads
//! through the executor runs at 65,536- and at 1,024-row vectors
//! ([`VECTOR_SIZES`]).

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite::{Database, DbOptions};
use monetlite_tests::{connect_at, VECTOR_SIZES};
use monetlite_types::{MlError, Value};

#[test]
fn full_lifecycle_with_restart() {
    for v in VECTOR_SIZES {
        lifecycle_with_restart(v);
    }
}

fn lifecycle_with_restart(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.run_script(
            "CREATE TABLE t (k INT NOT NULL, v VARCHAR(16), d DECIMAL(8,2));
             INSERT INTO t VALUES (1, 'one', 1.00), (2, 'two', 2.00), (3, 'three', 3.00);",
        )
        .unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint writes live only in the WAL.
        conn.execute("DELETE FROM t WHERE k = 2").unwrap();
        conn.execute("INSERT INTO t VALUES (4, 'four', 4.00)").unwrap();
        conn.execute("UPDATE t SET d = d * 2 WHERE k = 1").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    let r = conn.query("SELECT k, v, d FROM t ORDER BY k").unwrap();
    assert_eq!(r.nrows(), 3);
    assert_eq!(
        r.row(0),
        vec![
            Value::Int(1),
            Value::Str("one".into()),
            Value::Decimal(monetlite_types::Decimal::new(200, 2))
        ]
    );
    assert_eq!(r.value(1, 0), Value::Int(3));
    assert_eq!(r.value(2, 0), Value::Int(4));
}

#[test]
fn uncommitted_transaction_lost_on_restart() {
    for v in VECTOR_SIZES {
        uncommitted_transaction_lost(v);
    }
}

fn uncommitted_transaction_lost(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (k INT)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t VALUES (2)").unwrap();
        // Dropped without COMMIT: must not survive.
    }
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    let r = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint(1));
}

/// A crash during the first commit after a checkpoint leaves a torn frame
/// at the tail of an otherwise empty log: nothing to replay, so recovery
/// neither checkpoints nor rewrites the log. It must still cut the torn
/// bytes off before the writer opens — commits appended *behind* them are
/// acknowledged now and invisible to the next replay, which stops at the
/// first bad frame.
#[test]
fn torn_wal_tail_with_nothing_to_replay_does_not_swallow_later_commits() {
    for v in VECTOR_SIZES {
        torn_tail_with_nothing_to_replay(v);
    }
}

fn torn_tail_with_nothing_to_replay(vector_size: usize) {
    use std::io::Write;
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        db.checkpoint().unwrap();
    }
    let wal = dir.path().join("wal.log");
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0, "checkpoint empties the log");
    std::fs::OpenOptions::new().append(true).open(&wal).unwrap().write_all(&[0xAB; 7]).unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        connect_at(&db, vector_size).execute("INSERT INTO t VALUES (2)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let r = connect_at(&db, vector_size).query("SELECT count(*), sum(k) FROM t").unwrap();
    assert_eq!(r.row(0), vec![Value::Bigint(2), Value::Bigint(3)], "acknowledged commit lost");
}

/// The same with committed transactions *before* the torn frame: those
/// replay (and recovery checkpoints them), the tail is dropped, and later
/// commits survive.
#[test]
fn torn_wal_tail_behind_committed_transactions_is_dropped_too() {
    for v in VECTOR_SIZES {
        torn_tail_behind_committed_transactions(v);
    }
}

fn torn_tail_behind_committed_transactions(vector_size: usize) {
    use std::io::Write;
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let wal = dir.path().join("wal.log");
    let whole = std::fs::metadata(&wal).unwrap().len();
    // Half a frame: a plausible length prefix, then nothing.
    std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .unwrap()
        .write_all(&[9, 0, 0, 0, 1, 2, 3])
        .unwrap();
    let log = monetlite_storage::wal::replay(&wal).unwrap();
    assert_eq!((log.txns.len(), log.valid_len, log.file_len), (2, whole, whole + 7));
    {
        let db = Database::open(dir.path()).unwrap();
        connect_at(&db, vector_size).execute("INSERT INTO t VALUES (2)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let r = connect_at(&db, vector_size).query("SELECT count(*), sum(k) FROM t").unwrap();
    assert_eq!(r.row(0), vec![Value::Bigint(2), Value::Bigint(3)]);
}

#[test]
fn corrupt_column_file_reports_error_not_crash() {
    for v in VECTOR_SIZES {
        corrupt_column_file_reports_error(v);
    }
}

fn corrupt_column_file_reports_error(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (k INT)").unwrap();
        conn.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
    }
    // Flip bytes in one *column* file (not a `.zm`/`.st` sidecar — those
    // are caches whose corruption is a silent rebuild, covered in the
    // storage crate's tests).
    let cols_dir = dir.path().join("cols");
    let victim = std::fs::read_dir(&cols_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "bat"))
        .expect("a column file exists");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    // Open succeeds (lazy loading); the query reports corruption.
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    match conn.query("SELECT * FROM t") {
        Err(MlError::Corrupt(_)) => {}
        other => panic!("expected Corrupt error, got {other:?}"),
    }
}

#[test]
fn column_stats_survive_restart_and_feed_the_optimizer() {
    for v in VECTOR_SIZES {
        column_stats_survive_restart(v);
    }
}

fn column_stats_survive_restart(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
        conn.append(
            "t",
            vec![monetlite_types::ColumnBuffer::Int((0..20_000).map(|i| i % 100).collect())],
        )
        .unwrap();
        db.checkpoint().unwrap();
        // The checkpoint wrote a `.st` sidecar next to the column file.
        let has_st = std::fs::read_dir(dir.path().join("cols"))
            .unwrap()
            .any(|e| e.unwrap().path().to_string_lossy().ends_with(".st"));
        assert!(has_st, "checkpoint must write stats sidecars");
    }
    // After restart the optimizer costs plans from the persisted stats:
    // EXPLAIN renders real estimates and a query records its estimate in
    // the counters. `k = 5` over 100 distinct values ⇒ ~1% of 20k rows.
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    let ex = conn.query("EXPLAIN SELECT k FROM t WHERE k = 5").unwrap();
    let text: Vec<String> = (0..ex.nrows()).map(|i| ex.value(i, 0).to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("-- stats"), "{joined}");
    let r = conn.query("SELECT k FROM t WHERE k = 5").unwrap();
    assert_eq!(r.nrows(), 200);
    let est = conn.last_exec_counters().unwrap().estimated_rows;
    assert!((100..=400).contains(&est), "estimate should be near 20000/ndv(100) = 200, got {est}");
}

#[test]
fn database_locked_second_open() {
    let dir = tempfile::tempdir().unwrap();
    let _db = Database::open(dir.path()).unwrap();
    match Database::open(dir.path()) {
        Err(MlError::Catalog(m)) => assert!(m.contains("database locked")),
        other => panic!("expected database locked, got {:?}", other.err()),
    }
}

#[test]
fn vmem_pressure_evicts_and_reloads_transparently() {
    for v in VECTOR_SIZES {
        vmem_pressure_evicts_and_reloads(v);
    }
}

fn vmem_pressure_evicts_and_reloads(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    let opts = DbOptions {
        path: Some(dir.path().to_path_buf()),
        vmem_budget: 100 * 1024, // 100 kB "RAM"
        ..Default::default()
    };
    let db = Database::open_with(opts).unwrap();
    let mut conn = connect_at(&db, vector_size);
    conn.execute("CREATE TABLE wide (a INT, b INT, c INT, d INT)").unwrap();
    let col: Vec<i32> = (0..50_000).collect();
    conn.append(
        "wide",
        vec![
            monetlite_types::ColumnBuffer::Int(col.clone()),
            monetlite_types::ColumnBuffer::Int(col.clone()),
            monetlite_types::ColumnBuffer::Int(col.clone()),
            monetlite_types::ColumnBuffer::Int(col),
        ],
    )
    .unwrap();
    db.checkpoint().unwrap();
    // Touch columns one after another: 200 kB each vs a 100 kB budget.
    for col in ["a", "b", "c", "d", "a", "b"] {
        let r = conn.query(&format!("SELECT sum({col}) FROM wide")).unwrap();
        assert_eq!(r.value(0, 0), Value::Bigint((0..50_000i64).sum()));
    }
    let stats = db.vmem_stats();
    assert!(stats.evictions > 0, "expected evictions under pressure: {stats:?}");
    assert!(stats.loads > 0, "expected reloads from column files: {stats:?}");
}

/// An exact order-index select is answered by the index alone: on an
/// evicted column it must not page the column in just to learn that its
/// type admits an order index.
#[test]
fn exact_order_index_select_on_an_evicted_column_loads_nothing() {
    for v in VECTOR_SIZES {
        exact_order_index_select_loads_nothing(v);
    }
}

fn exact_order_index_select_loads_nothing(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    let n: i32 = 200_000;
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = connect_at(&db, vector_size);
        conn.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        conn.append(
            "t",
            vec![
                monetlite_types::ColumnBuffer::Int((0..n).collect()),
                monetlite_types::ColumnBuffer::Int((0..n).map(|i| i % 7).collect()),
            ],
        )
        .unwrap();
        db.checkpoint().unwrap();
    }
    // Each column is 800,000 bytes: only one fits the budget.
    let opts = DbOptions {
        path: Some(dir.path().to_path_buf()),
        vmem_budget: 900 * 1024,
        ..Default::default()
    };
    let db = Database::open_with(opts).unwrap();
    let mut conn = connect_at(&db, vector_size);
    conn.execute("CREATE ORDER INDEX oi ON t (a)").unwrap();
    let r = conn.query("SELECT sum(b) FROM t").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint((0..n as i64).map(|i| i % 7).sum()));
    let before = db.vmem_stats();
    let r = conn.query("SELECT count(*) FROM t WHERE a = 15").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint(1));
    assert!(conn.last_exec_counters().unwrap().order_index_selects > 0, "order index not used");
    let after = db.vmem_stats();
    assert_eq!(after.loads, before.loads, "the select paged a column in: {before:?} -> {after:?}");
}

/// A scan holds each column it has read until it ends: under a budget
/// smaller than the columns one scan reads, LRU over the scan's cyclic
/// access would otherwise evict each column just before the next morsel
/// needs it, and every morsel would page it in again.
#[test]
fn a_scan_pages_each_column_in_once_under_a_budget_below_its_columns() {
    let dir = tempfile::tempdir().unwrap();
    let n: i32 = 200_000;
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE t (a INT, b INT, c INT)").unwrap();
        let col = |m: i32| monetlite_types::ColumnBuffer::Int((0..n).map(|i| i % m).collect());
        conn.append("t", vec![col(7), col(11), col(13)]).unwrap();
        db.checkpoint().unwrap();
    }
    // Each column is 800,000 bytes: only one fits the budget.
    let opts = DbOptions {
        path: Some(dir.path().to_path_buf()),
        vmem_budget: 900 * 1024,
        ..Default::default()
    };
    let db = Database::open_with(opts).unwrap();
    let sql = "SELECT sum(a), sum(b), sum(c) FROM t";
    let want: Vec<Value> =
        [7, 11, 13].iter().map(|&m| Value::Bigint((0..n as i64).map(|i| i % m).sum())).collect();
    // 65,536-row vectors make four morsels per scan, 1,024-row vectors 196.
    for (threads, vector_size) in [1, 2].into_iter().flat_map(|t| VECTOR_SIZES.map(|v| (t, v))) {
        let mut conn = db.connect();
        conn.set_exec_options(ExecOptions {
            mode: ExecMode::Streaming,
            threads,
            vector_size,
            use_result_cache: false,
            ..Default::default()
        });
        // The first run may also build statistics or zonemaps.
        conn.query(sql).unwrap();
        let before = db.vmem_stats();
        let r = conn.query(sql).unwrap();
        let got: Vec<Value> = (0..3).map(|c| r.value(0, c)).collect();
        assert_eq!(got, want, "threads {threads}, {vector_size}-row vectors");
        let after = db.vmem_stats();
        assert_eq!(
            after.loads - before.loads,
            3,
            "threads {threads}, {vector_size}-row vectors: one load per column read: \
             {before:?} -> {after:?}"
        );
    }
}
