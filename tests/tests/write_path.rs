//! The write-path cost model, pinned as counts rather than timings: a
//! single-row UPDATE or DELETE logs O(changed rows) bytes whatever the
//! table size, copies no whole column its statement does not reference;
//! a bulk append is O(batch) in the transaction overlay, at commit and at
//! replay (the first reader consolidates, once); a checkpoint persists the
//! dictionaries that exist and sorts nothing; and a log of an earlier
//! build still replays. Every read through the executor runs at 65,536-
//! and at 1,024-row vectors ([`VECTOR_SIZES`]); the byte and frame counts
//! do not depend on the vector size.

use monetlite::{Connection, Database};
use monetlite_storage::store::apply_record;
use monetlite_storage::wal::{self, WalRecord};
use monetlite_storage::{Bat, TableMeta};
use monetlite_tests::{connect_at, VECTOR_SIZES};
use monetlite_types::{ColumnBuffer, Decimal, Value};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

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

/// A persistent `n`-row table appended in three batches (60% + 20% + 20%)
/// that nobody has read yet, and a connection reading at
/// `vector_size`-row vectors.
fn build(dir: &Path, n: usize, vector_size: usize) -> (Database, Connection) {
    let db = Database::open(dir).unwrap();
    let mut conn = connect_at(&db, vector_size);
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
fn single_row_write_frames(n: usize, vector_size: usize) -> [u64; 4] {
    let dir = tempfile::tempdir().unwrap();
    let (db, mut conn) = build(dir.path(), n, vector_size);
    let before = db.store().snapshot();
    let cols = &before.table("t").unwrap().data.cols;
    assert!(cols.iter().all(|c| c.depth() == 4), "empty base + one segment per append");
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
    let mut conn = connect_at(&db, vector_size);
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
    let [full, small_vectors] = VECTOR_SIZES;
    let small = single_row_write_frames(N, full);
    for (what, bytes) in
        ["UPDATE", "DELETE", "BEGIN/UPDATE/COMMIT", "UPDATE after checkpoint"].iter().zip(small)
    {
        assert!(bytes > 0 && bytes < 1024, "{what} of one row logged {bytes} bytes at N = {N}");
    }
    assert_eq!(small, single_row_write_frames(4 * N, full), "frame sizes must not depend on N");
    assert_eq!(
        small,
        single_row_write_frames(N, small_vectors),
        "frame sizes must not depend on the vector size"
    );
}

#[test]
fn update_of_a_deleted_and_reinserted_key_touches_only_visible_rows() {
    // Row ids handed to the gather come from segments of every age and
    // skip deleted rows; the delta holds exactly the visible matches.
    for v in VECTOR_SIZES {
        let dir = tempfile::tempdir().unwrap();
        let (_db, mut conn) = build(dir.path(), 1000, v);
        assert_eq!(conn.execute("DELETE FROM t WHERE k = 10").unwrap(), 1);
        assert_eq!(conn.execute("INSERT INTO t VALUES (10, NULL, 'again', 1.00)").unwrap(), 1);
        assert_eq!(
            conn.execute("UPDATE t SET note = NULL WHERE k = 10 OR k = 999 OR k = 0").unwrap(),
            3
        );
        let r =
            conn.query("SELECT k, grp, note, amt FROM t WHERE note IS NULL ORDER BY k").unwrap();
        let d = |raw| Value::Decimal(Decimal::new(raw, 2));
        assert_eq!(r.nrows(), 3);
        assert_eq!(r.row(0), vec![Value::Int(0), Value::Str("g0".into()), Value::Null, d(0)]);
        assert_eq!(r.row(1), vec![Value::Int(10), Value::Null, Value::Null, d(100)]);
        let last = vec![Value::Int(999), Value::Str("g5".into()), Value::Null, d(99_900)];
        assert_eq!(r.row(2), last);
        assert_eq!(conn.query("SELECT count(*) FROM t").unwrap().value(0, 0), Value::Bigint(1000));
    }
}

/// `fixtures/wal_parent_9952dd3.log` was written by the build before
/// copy-on-write heaps and compact deltas (commit 9952dd3): two INSERTs,
/// an UPDATE and a transaction whose `Append` frames carry the full heaps
/// of both VARCHAR columns, and two DELETEs. Same tags, same framing: it
/// must replay unchanged.
#[test]
fn log_written_by_the_previous_build_still_replays() {
    let s = |v: &str| Value::Str(v.into());
    let d = |raw| Value::Decimal(Decimal::new(raw, 2));
    let want = vec![
        vec![Value::Int(2), s("blue"), s("rewritten"), d(350)],
        vec![Value::Int(4), s("black"), s("fourth note"), d(450)],
        vec![Value::Int(5), s("black"), s("fifth note"), Value::Null],
    ];
    for v in VECTOR_SIZES {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(
            dir.path().join("wal.log"),
            include_bytes!("../fixtures/wal_parent_9952dd3.log"),
        )
        .unwrap();
        // Twice: once replaying the log, once from the checkpoint recovery
        // wrote.
        for round in 0..2 {
            let db = Database::open(dir.path()).unwrap();
            let mut conn = connect_at(&db, v);
            let r = conn.query("SELECT k, tag, note, amt FROM w ORDER BY k").unwrap();
            let got: Vec<Vec<Value>> = (0..r.nrows()).map(|i| r.row(i)).collect();
            assert_eq!(got, want, "round {round}, {v}-row vectors");
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk appends are O(batch); consolidation belongs to the first reader.
// ---------------------------------------------------------------------------

const DDL: &str =
    "CREATE TABLE t (k INT NOT NULL, grp VARCHAR(4), note VARCHAR(16), amt DECIMAL(12,2))";

/// `(depth, has_cached_consolidation)` of every column of `t`.
fn shape(t: &TableMeta) -> Vec<(usize, bool)> {
    t.data.cols.iter().map(|c| (c.depth(), c.has_cached_consolidation())).collect()
}

#[test]
fn k_bulk_appends_leave_a_chain_of_k_plus_one_in_overlay_commit_and_replay() {
    for v in VECTOR_SIZES {
        k_bulk_appends_leave_a_chain(v);
    }
}

fn k_bulk_appends_leave_a_chain(vector_size: usize) {
    const K: usize = 5;
    let per = 2000;
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    conn.execute(DDL).unwrap();
    // Growing batches: under the old doubling rule every one of them (tail
    // >= base) made the writer consolidate, twice per autocommit append.
    let batches: Vec<(usize, usize)> =
        (0..K).map(|b| (b * b * per, (b + 1) * (b + 1) * per)).collect();
    for &(lo, hi) in &batches {
        conn.append("t", batch(lo, hi)).unwrap();
    }
    let lazy = vec![(K + 1, false); 4];

    // After commit: what `Store::commit` published.
    let snap = db.store().snapshot();
    assert_eq!(shape(snap.table("t").unwrap()), lazy, "commit consolidated");

    // The transaction overlay is `apply_record` on the transaction's own
    // table map (`Connection::apply_write`): same records, same shape.
    let mut overlay: HashMap<String, Arc<TableMeta>> = HashMap::new();
    let mut next_id = 1;
    let schema = snap.table("t").unwrap().schema.clone();
    apply_record(&mut overlay, &WalRecord::CreateTable { name: "t".into(), schema }, &mut next_id)
        .unwrap();
    for &(lo, hi) in &batches {
        let cols = batch(lo, hi).into_iter().map(|c| Arc::new(Bat::adopt(c))).collect();
        apply_record(&mut overlay, &WalRecord::Append { table: "t".into(), cols }, &mut next_id)
            .unwrap();
    }
    assert_eq!(shape(&overlay["t"]), lazy, "overlay consolidated");

    // ... and through a real transaction: K more appends inside BEGIN, a
    // read-your-writes query, COMMIT. Commit re-applies the K segments to
    // the published chain; only the overlay paid for the read.
    conn.begin().unwrap();
    let n = batches[K - 1].1;
    for b in 0..K {
        conn.append("t", batch(n + b * per, n + (b + 1) * per)).unwrap();
    }
    let r = conn.query("SELECT count(*), max(k) FROM t").unwrap();
    assert_eq!(
        r.row(0),
        vec![Value::Bigint((n + K * per) as i64), Value::Int((n + K * per) as i32 - 1)]
    );
    conn.commit().unwrap();
    let snap = db.store().snapshot();
    assert_eq!(shape(snap.table("t").unwrap()), vec![(2 * K + 1, false); 4]);

    // Replay of the same log applies the same records: a chain again, no
    // consolidation — recovery's checkpoint is its first full-width reader.
    drop(snap);
    drop(conn);
    drop(db);
    let log = wal::replay(&dir.path().join("wal.log")).unwrap();
    assert_eq!(log.valid_len, log.file_len);
    let mut replayed: HashMap<String, Arc<TableMeta>> = HashMap::new();
    let mut next_id = 1;
    for rec in log.txns.iter().flat_map(|(_, recs)| recs) {
        apply_record(&mut replayed, rec, &mut next_id).unwrap();
    }
    assert_eq!(shape(&replayed["t"]), vec![(2 * K + 1, false); 4], "replay consolidated");
    assert_eq!(replayed["t"].data.rows, n + K * per);

    // The real recovery then checkpoints: one backed segment per column.
    let db = Database::open(dir.path()).unwrap();
    let snap = db.store().snapshot();
    let t = snap.table("t").unwrap();
    assert!(t.data.cols.iter().all(|c| c.depth() == 1 && c.entry().unwrap().is_backed()));
    let r =
        connect_at(&db, vector_size).query("SELECT count(*), count(DISTINCT grp) FROM t").unwrap();
    assert_eq!(r.row(0), vec![Value::Bigint((n + K * per) as i64), Value::Bigint(7)]);
}

#[test]
fn an_autocommit_append_commits_the_arrays_the_host_handed_over() {
    for v in VECTOR_SIZES {
        an_autocommit_append_commits_the_host_arrays(v);
    }
}

fn an_autocommit_append_commits_the_host_arrays(vector_size: usize) {
    // `Connection::append` adopts the host's fixed-width arrays, and the
    // overlay, the commit and the WAL frame all share the BATs built from
    // them: the committed segment holds the host's own allocation.
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let mut conn = connect_at(&db, vector_size);
    conn.execute(DDL).unwrap();
    let cols = batch(0, 1000);
    let (ColumnBuffer::Int(k), ColumnBuffer::Decimal { data: amt, .. }) = (&cols[0], &cols[3])
    else {
        panic!("unexpected batch layout")
    };
    let host = (k.as_ptr(), amt.as_ptr());
    conn.append("t", cols).unwrap();
    let snap = db.store().snapshot();
    let seg = |c: usize| snap.table("t").unwrap().data.cols[c].last_segment().bat().unwrap();
    let (Bat::Int(k), Bat::Decimal { data: amt, .. }) = (&*seg(0), &*seg(3)) else {
        panic!("unexpected column types")
    };
    assert_eq!((k.as_ptr(), amt.as_ptr()), host, "the append copied a host array");
    assert_eq!(conn.query("SELECT sum(k) FROM t").unwrap().value(0, 0), Value::Bigint(499_500));
}

#[test]
fn single_row_insert_stream_keeps_the_chain_bounded() {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE s (k INT NOT NULL, tag VARCHAR(4))").unwrap();
    const N: usize = 20_000;
    let mut deepest = 0;
    for i in 0..N {
        conn.execute(&format!("INSERT INTO s VALUES ({i}, 't{}')", i % 3)).unwrap();
        if i % 512 == 0 || i == N - 1 {
            let snap = db.store().snapshot();
            deepest = deepest.max(snap.table("s").unwrap().data.cols[0].depth());
        }
    }
    let cap = monetlite_storage::catalog::MAX_CHAIN_DEPTH;
    assert!(deepest < cap, "chain grew to {deepest}");
    assert!(deepest > cap / 2, "the stream must have run into the cap (deepest {deepest})");
    let sum = (N * (N - 1) / 2) as i64;
    for v in VECTOR_SIZES {
        let r = connect_at(&db, v).query("SELECT count(*), sum(k), count(DISTINCT tag) FROM s");
        let r = r.unwrap();
        assert_eq!(r.row(0), vec![Value::Bigint(N as i64), Value::Bigint(sum), Value::Bigint(3)]);
    }
}

// ---------------------------------------------------------------------------
// A checkpoint persists the dictionaries that exist and builds none.
// ---------------------------------------------------------------------------

/// Names of the files under `cols/` with the given extension, sorted.
fn cols_files(dir: &Path, ext: &str) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir.join("cols"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(ext))
        .collect();
    v.sort();
    v
}

#[test]
fn checkpoint_writes_a_dict_sidecar_only_for_columns_that_hold_a_dictionary() {
    for v in VECTOR_SIZES {
        checkpoint_writes_a_dict_sidecar_only_where_a_dictionary_exists(v);
    }
}

fn checkpoint_writes_a_dict_sidecar_only_where_a_dictionary_exists(vector_size: usize) {
    let dir = tempfile::tempdir().unwrap();
    let (db, mut conn) = build(dir.path(), 6000, vector_size);
    // Nobody queried the table: `.zm`/`.st` are built eagerly, no `.dict`.
    db.checkpoint().unwrap();
    let count = |ext: &str| cols_files(dir.path(), ext).len();
    assert_eq!((count(".bat"), count(".st"), count(".zm"), count(".dict")), (4, 4, 2, 0));

    // A dictionary predicate on the (already backed) `grp` column builds
    // its dictionary; the next checkpoint writes the sidecar — for `grp`
    // only, next to the unchanged column file — and its GC keeps it.
    let grp_file = |db: &Database| {
        let snap = db.store().snapshot();
        let p = snap.table("t").unwrap().data.cols[1].entry().unwrap().backing_path().unwrap();
        p.file_name().unwrap().to_string_lossy().into_owned()
    };
    let before = grp_file(&db);
    let r = conn.query("SELECT count(*) FROM t WHERE grp = 'g3'").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint((0..6000).filter(|i| i % 7 == 3).count() as i64));
    if conn.exec_options().use_dict {
        assert!(
            conn.last_exec_counters().unwrap().dict_hits > 0,
            "predicate did not use a dictionary"
        );
        db.checkpoint().unwrap();
        assert_eq!(grp_file(&db), before, "column file must not be rewritten");
        assert_eq!(cols_files(dir.path(), ".dict"), vec![format!("{before}.dict")]);
        db.checkpoint().unwrap();
        assert_eq!(
            cols_files(dir.path(), ".dict"),
            vec![format!("{before}.dict")],
            "GC removed a live sidecar"
        );

        // A restart resolves the dictionary from the sidecar.
        drop(conn);
        drop(db);
        let db = Database::open(dir.path()).unwrap();
        let snap = db.store().snapshot();
        let entry = snap.table("t").unwrap().data.cols[1].entry().unwrap();
        assert_eq!(entry.dict().unwrap().len(), 7);
        assert_eq!(db.vmem_stats().loads, 0, "dictionary was rebuilt from the column");
        // A dictionary carried through consolidation is persisted with the
        // rewritten column.
        let mut conn = connect_at(&db, vector_size);
        conn.append("t", batch(6000, 6100)).unwrap();
        assert_eq!(
            conn.query("SELECT count(*) FROM t WHERE grp = 'g3'").unwrap().value(0, 0),
            Value::Bigint(871)
        );
        db.checkpoint().unwrap();
        let after = grp_file(&db);
        assert_ne!(after, before);
        assert_eq!(cols_files(dir.path(), ".dict"), vec![format!("{after}.dict")]);
    }
}

// ---------------------------------------------------------------------------
// Bulk ingest reads each byte once: a borrowed append writes what an owned
// one does, and a bulk-loaded segment is checkpointed as it is.
// ---------------------------------------------------------------------------

/// The contents of every file under `cols/`, sorted: file names carry
/// process-wide column ids, so two directories are compared by contents.
fn cols_contents(dir: &Path) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = std::fs::read_dir(dir.join("cols"))
        .unwrap()
        .map(|e| std::fs::read(e.unwrap().path()).unwrap())
        .collect();
    v.sort();
    v
}

#[test]
fn owned_and_borrowed_appends_write_identical_logs_and_column_files() {
    let data = monetlite_tpch::generate(0.01, 7);
    let load = |dir: &Path, borrowed: bool| {
        let db = Database::open(dir).unwrap();
        let mut conn = db.connect();
        conn.run_script(monetlite_tpch::queries::DDL).unwrap();
        for t in data.tables() {
            if borrowed {
                conn.append(t.name, &t.cols).unwrap();
            } else {
                conn.append(t.name, t.cols.clone()).unwrap();
            }
        }
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        db.checkpoint().unwrap();
        (wal, cols_contents(dir))
    };
    let (owned, borrowed) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
    let (owned_wal, owned_cols) = load(owned.path(), false);
    let (borrowed_wal, borrowed_cols) = load(borrowed.path(), true);
    assert!(owned_wal.len() > 1 << 20, "the load must log its data: {} bytes", owned_wal.len());
    assert!(owned_wal == borrowed_wal, "the WAL files differ");
    assert_eq!(owned_cols.len(), borrowed_cols.len());
    assert!(owned_cols == borrowed_cols, "the column files differ");
}

/// Bytes of every file under `cols/`.
fn cols_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("cols")).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
}

#[test]
fn checkpoint_after_replay_appends_and_deletes_writes_pinned_bytes() {
    // A heap replayed from the log does not deduplicate. Had the replayed
    // batch become the column as it is, the second batch's strings would be
    // appended to that heap without deduplication and the checkpoint would
    // write more bytes. The count is the one this sequence wrote before a
    // lone segment was checkpointed as it is.
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.connect().execute(DDL).unwrap();
        db.connect().append("t", batch(0, 3000)).unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let mut conn = db.connect();
    let r =
        conn.query("SELECT count(*), count(DISTINCT grp), min(note), sum(amt) FROM t WHERE k >= 0");
    assert_eq!(r.unwrap().value(0, 1), Value::Bigint(7));
    conn.append("t", batch(3000, 5000)).unwrap();
    conn.execute("DELETE FROM t WHERE k % 10 = 3").unwrap();
    db.checkpoint().unwrap();
    assert_eq!(cols_bytes(dir.path()), PINNED_COLS_BYTES);
    let r = conn.query("SELECT count(*), count(DISTINCT grp) FROM t").unwrap();
    assert_eq!(r.row(0), vec![Value::Bigint(4500), Value::Bigint(7)]);
}

const PINNED_COLS_BYTES: u64 = 174_561;

#[test]
fn checkpoint_after_deleting_most_rows_writes_only_the_surviving_strings() {
    // 100,000 unique 23-byte strings, 90 % deleted: the survivors' gather
    // shares the whole heap, so the checkpoint must rewrite it without the
    // deleted rows' strings to write what a fresh load of the survivors
    // writes.
    let rows = |keep: fn(usize) -> bool| {
        let ks: Vec<usize> = (0..100_000).filter(|&i| keep(i)).collect();
        vec![
            ColumnBuffer::Int(ks.iter().map(|&i| i as i32).collect()),
            ColumnBuffer::Varchar(ks.iter().map(|&i| Some(format!("string-{i:016}"))).collect()),
        ]
    };
    let load = |dir: &Path, keep: fn(usize) -> bool| {
        let db = Database::open(dir).unwrap();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE s (k INT NOT NULL, v VARCHAR(32))").unwrap();
        conn.append("s", rows(keep)).unwrap();
        (db, conn)
    };
    let (deleted, fresh) = (tempfile::tempdir().unwrap(), tempfile::tempdir().unwrap());
    let (db, mut conn) = load(deleted.path(), |_| true);
    assert_eq!(conn.execute("DELETE FROM s WHERE k % 10 <> 0").unwrap(), 90_000);
    db.checkpoint().unwrap();
    let (db_fresh, _conn) = load(fresh.path(), |i| i % 10 == 0);
    db_fresh.checkpoint().unwrap();
    let (got, want) = (cols_bytes(deleted.path()), cols_bytes(fresh.path()));
    assert!(
        got.abs_diff(want) * 100 <= want,
        "{got} column-file bytes, a fresh load writes {want}"
    );
    let r = conn.query("SELECT count(*), min(v), max(v) FROM s").unwrap();
    assert_eq!(
        r.row(0),
        vec![
            Value::Bigint(10_000),
            Value::Str("string-0000000000000000".into()),
            Value::Str("string-0000000000099990".into())
        ]
    );
}
