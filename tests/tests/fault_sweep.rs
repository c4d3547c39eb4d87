//! Deterministic I/O fault-injection sweeps — the robustness tentpole,
//! in the style of SQLite's I/O-error tests: run a workload under the
//! process-global injector in [`monetlite_storage::fault`], fail the
//! k-th wrapped I/O for *every* k until a run completes fault-free, and
//! after each faulted run assert the trifecta:
//!
//! 1. the failure surfaced as a clean, contextual [`MlError`] — never a
//!    panic — naming the operation, file and injection site;
//! 2. reopening the database with the injector disarmed recovers a
//!    consistent committed prefix: every acknowledged commit present,
//!    nothing partial, nothing beyond the attempted set;
//! 3. no temp or orphan file survives recovery plus one checkpoint.
//!
//! The file also pins the two real bugs the sweep found while it was
//! being built (a leaked `catalog.tmp` and a WAL writer that corrupted
//! commits *after* a failed append), sweeps recovery from a log with a
//! torn tail (the truncate-at-open failpoint), and exhaustively truncates
//! a WAL at every byte offset to prove recovery always yields an acked
//! prefix.

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite::{Connection, Database};
use monetlite_storage::fault::{self, FaultMode, FaultPolicy};
use monetlite_types::{ColumnBuffer, MlError, Result, Value};
use std::path::Path;

fn int_of(v: Value) -> i64 {
    match v {
        Value::Int(i) => i as i64,
        Value::Bigint(i) => i,
        other => panic!("expected an integer value, got {other:?}"),
    }
}

/// Every fault must surface with enough context to act on: the wrapped
/// sites embed `(site=...)` alongside the operation and path; the only
/// other acceptable shapes are the lock-collision and poisoned-writer
/// errors (which name their condition) and `Corrupt` (which names the
/// offending file).
fn assert_clean_error(e: &MlError) {
    let s = e.to_string();
    let contextual = s.contains("(site=")
        || s.contains("database locked")
        || s.contains("wal writer poisoned")
        || matches!(e, MlError::Corrupt(_));
    assert!(contextual, "fault surfaced without operation/file/site context: {e:?} ({s})");
}

// ---------------------------------------------------------------------------
// Workload A: full persistent lifecycle (inserts + checkpoint + UPDATE and
// DELETE + restart, so WAL append/flush of `Append` and `Delete` frames,
// catalog + column-file checkpointing with string heaps and dictionary
// sidecars, lock handling, replay and GC are all inside the swept window).
// ---------------------------------------------------------------------------

/// The lifecycle's transactions, one autocommit statement each. The
/// UPDATE and the DELETE both hit rows of the checkpointed image *and*
/// rows that live only in the WAL, so replay applies `Delete` row ids and
/// compact `Append` deltas on top of a checkpoint.
const LIFECYCLE: [&str; 7] = [
    "CREATE TABLE t (batch INT NOT NULL, v INT NOT NULL, tag VARCHAR(8))",
    "INSERT INTO t VALUES (0, 1, 'b0'), (0, 2, NULL)",
    "INSERT INTO t VALUES (1, 1, 'b1'), (1, 2, NULL)",
    "INSERT INTO t VALUES (2, 1, 'b2'), (2, 2, NULL)",
    "INSERT INTO t VALUES (3, 1, 'b3'), (3, 2, NULL)",
    "UPDATE t SET v = v + 10, tag = 'upd' WHERE batch = 0 OR batch = 2",
    "DELETE FROM t WHERE batch = 1 OR v = 2",
];
/// A checkpoint follows this many statements: everything later lives only
/// in the WAL, so the restart exercises replay.
const CHECKPOINT_AFTER: usize = 3;

type Row = (i64, i64, Option<String>);

/// Table contents (ordered by batch, v) after the first `n` statements of
/// [`LIFECYCLE`] — the host-side model the recovered database must match.
fn lifecycle_state(n: usize) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for step in 1..n {
        match step {
            1..=4 => {
                let b = step as i64 - 1;
                rows.extend([(b, 1, Some(format!("b{b}"))), (b, 2, None)]);
            }
            5 => {
                for r in rows.iter_mut().filter(|r| r.0 == 0 || r.0 == 2) {
                    *r = (r.0, r.1 + 10, Some("upd".into()));
                }
            }
            _ => rows.retain(|r| !(r.0 == 1 || r.1 == 2)),
        }
    }
    rows.sort();
    rows
}

/// Runs the lifecycle workload, returning how many of its statements were
/// acknowledged. Stops at the first error — each sweep ordinal fails a
/// different operation, so the union of runs still covers every path.
fn lifecycle_workload(dir: &Path) -> (usize, Result<()>) {
    let mut acked = 0;
    let res = (|| {
        let db = Database::open(dir)?;
        let mut conn = db.connect();
        for sql in LIFECYCLE {
            conn.execute(sql)?;
            acked += 1;
            if acked == CHECKPOINT_AFTER {
                db.checkpoint()?;
            }
        }
        drop(conn);
        drop(db);
        let db = Database::open(dir)?;
        let mut conn = db.connect();
        conn.query("SELECT COUNT(*) FROM t")?;
        db.checkpoint()?;
        Ok(())
    })();
    (acked, res)
}

/// After any faulted run: the db root and `cols/` hold only the files a
/// healthy database owns — no `*.tmp`/`*.zmtmp`/`*.sttmp` survivors, no
/// orphans outside the known layout.
fn assert_no_leaks(dir: &Path) {
    for e in std::fs::read_dir(dir).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            matches!(name.as_str(), "catalog.bin" | "wal.log" | "cols" | "db.lock"),
            "orphan file leaked into the db root: {name}"
        );
    }
    let cols = dir.join("cols");
    if cols.is_dir() {
        for e in std::fs::read_dir(&cols).unwrap() {
            let p = e.unwrap().path();
            let ext = p.extension().unwrap_or_default().to_string_lossy().into_owned();
            assert!(
                matches!(ext.as_str(), "bat" | "zm" | "st" | "dict"),
                "temp/orphan file leaked into cols/: {}",
                p.display()
            );
        }
    }
}

/// How many statements of [`LIFECYCLE`] the database's contents reflect:
/// they must equal the model's state after *some* prefix — no torn,
/// partial or reordered transaction.
fn surviving_prefix(conn: &mut Connection) -> usize {
    let r = match conn.query("SELECT batch, v, tag FROM t ORDER BY batch, v") {
        Ok(r) => r,
        // Not even the CREATE TABLE made it: the empty prefix.
        Err(MlError::Catalog(m)) if m.contains("unknown table") => return 0,
        Err(e) => panic!("recovered database failed the oracle query: {e:?}"),
    };
    let present: Vec<Row> = (0..r.nrows())
        .map(|i| {
            let tag = match r.value(i, 2) {
                Value::Null => None,
                Value::Str(s) => Some(s),
                other => panic!("expected a string tag, got {other:?}"),
            };
            (int_of(r.value(i, 0)), int_of(r.value(i, 1)), tag)
        })
        .collect();
    (1..=LIFECYCLE.len())
        .find(|&n| lifecycle_state(n) == present)
        .unwrap_or_else(|| panic!("recovered rows match no committed prefix: {present:?}"))
}

/// Disarmed recovery oracle: reopen, and check the surviving state is a
/// fully-committed prefix containing every acknowledged statement.
fn verify_recovery(dir: &Path, acked: usize) {
    // A fault during the workload's own `Drop` can leave the pid lock
    // behind — recovery after a "crash" starts by clearing it, exactly
    // as an embedding host restarting after a power loss would.
    let _ = std::fs::remove_file(dir.join("db.lock"));
    let db = Database::open(dir).expect("recovery open must succeed once faults stop");
    let mut conn = db.connect();
    let survived = surviving_prefix(&mut conn);
    // Durability: every acknowledged commit is in the recovered state.
    assert!(survived >= acked, "{acked} statements acked but only {survived} survived recovery");
    // One clean checkpoint must succeed and sweep all debris.
    db.checkpoint().expect("disarmed checkpoint after recovery");
    drop(conn);
    drop(db);
    assert_no_leaks(dir);
}

fn sweep_lifecycle(mode: FaultMode) {
    let _g = fault::test_lock();
    for k in 0u64.. {
        let dir = tempfile::tempdir().unwrap();
        fault::arm(FaultPolicy::Nth(k), mode);
        let (acked, res) = lifecycle_workload(dir.path());
        let rep = fault::disarm();
        if let Err(e) = &res {
            assert_clean_error(e);
        }
        verify_recovery(dir.path(), acked);
        if !rep.fired {
            assert!(res.is_ok(), "fault-free run must succeed: {:?}", res.err());
            assert!(rep.ios > 20, "suspiciously few injection points swept: {}", rep.ios);
            break;
        }
    }
}

#[test]
fn lifecycle_sweep_error_mode() {
    sweep_lifecycle(FaultMode::Error);
}

#[test]
fn lifecycle_sweep_short_write_mode() {
    sweep_lifecycle(FaultMode::ShortWrite);
}

#[test]
fn lifecycle_sweep_torn_write_mode() {
    sweep_lifecycle(FaultMode::TornWrite);
}

// ---------------------------------------------------------------------------
// Workload A': recovery from a log that ends in a torn frame. Opening it
// must cut the tail off (`wal.tail.truncate`) before the writer appends, with
// or without committed transactions in front of the tear; a fault at any
// I/O of that recovery must neither lose an acknowledged commit nor let a
// later one land behind the torn bytes.
// ---------------------------------------------------------------------------

/// Built disarmed: a checkpointed row, optionally a WAL-only row, then
/// seven bytes of a frame that never finished.
fn torn_tail_fixture(dir: &Path, committed_before_tear: bool) {
    use std::io::Write;
    let db = Database::open(dir).unwrap();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INT NOT NULL)").unwrap();
    conn.execute("INSERT INTO t VALUES (0)").unwrap();
    db.checkpoint().unwrap();
    if committed_before_tear {
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    drop(conn);
    drop(db);
    let mut wal = std::fs::OpenOptions::new().append(true).open(dir.join("wal.log")).unwrap();
    wal.write_all(&[200, 0, 0, 0, 5, 1, 2]).unwrap();
}

/// Recover, commit twice across a restart; returns the acknowledged keys.
fn torn_tail_workload(dir: &Path, first_key: i64) -> (Vec<i64>, Result<()>) {
    let mut acked = Vec::new();
    let res = (|| {
        for k in [first_key, first_key + 1] {
            let db = Database::open(dir)?;
            db.connect().execute(&format!("INSERT INTO t VALUES ({k})"))?;
            acked.push(k);
        }
        Ok(())
    })();
    (acked, res)
}

fn sweep_torn_tail(mode: FaultMode, committed_before_tear: bool) {
    let _g = fault::test_lock();
    let first_key = 1 + committed_before_tear as i64;
    for k in 0u64.. {
        let dir = tempfile::tempdir().unwrap();
        torn_tail_fixture(dir.path(), committed_before_tear);
        fault::arm(FaultPolicy::Nth(k), mode);
        let (acked, res) = torn_tail_workload(dir.path(), first_key);
        let rep = fault::disarm();
        if let Err(e) = &res {
            assert_clean_error(e);
        }
        let _ = std::fs::remove_file(dir.path().join("db.lock"));
        let db = Database::open(dir.path()).expect("recovery open must succeed once faults stop");
        let r = db.connect().query("SELECT k FROM t ORDER BY k").unwrap();
        let ks: Vec<i64> = (0..r.nrows()).map(|i| int_of(r.value(i, 0))).collect();
        // Everything committed before the tear, then a prefix of the
        // workload's keys that covers every acknowledged one.
        let want: Vec<i64> = (0..first_key + 2).collect();
        assert!(
            ks.len() >= first_key as usize + acked.len() && want.starts_with(&ks),
            "fault {k} ({mode:?}): acked {acked:?} but recovered {ks:?}"
        );
        db.checkpoint().expect("disarmed checkpoint after recovery");
        drop(db);
        assert_no_leaks(dir.path());
        if !rep.fired {
            assert!(res.is_ok(), "fault-free run must succeed: {:?}", res.err());
            assert_eq!(ks, want);
            break;
        }
    }
}

#[test]
fn torn_tail_recovery_sweep_error_mode() {
    sweep_torn_tail(FaultMode::Error, false);
    sweep_torn_tail(FaultMode::Error, true);
}

#[test]
fn torn_tail_recovery_sweep_torn_write_mode() {
    sweep_torn_tail(FaultMode::TornWrite, false);
    sweep_torn_tail(FaultMode::TornWrite, true);
}

/// The sweep above is only meaningful if recovery reaches the failpoint.
#[test]
fn torn_tail_recovery_passes_the_truncate_failpoint() {
    let _g = fault::test_lock();
    for committed_before_tear in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        torn_tail_fixture(dir.path(), committed_before_tear);
        fault::arm(FaultPolicy::SiteMatching("wal.tail.truncate".into()), FaultMode::Error);
        let err =
            Database::open(dir.path()).err().expect("open must not proceed past a failed truncate");
        assert!(fault::disarm().fired, "wal.tail.truncate was never reached");
        assert_clean_error(&err);
        assert!(!dir.path().join("db.lock").exists(), "failed open left the lock behind");
    }
}

// ---------------------------------------------------------------------------
// Workload B: spilled aggregation / join / sort. The engine's temp
// directories are pointed at a private observation root so every leaked
// spill file is visible; the connection must survive each abort.
// ---------------------------------------------------------------------------

const SPILL_ROWS: usize = 6_000;

fn spill_exec_opts() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Streaming,
        threads: 1,
        vector_size: 1024,
        memory_budget: 16 * 1024,
        // Index joins bypass the grace-hash spill path; the sweep wants
        // the out-of-core operators on the floor.
        use_hash_index: false,
        use_order_index: false,
        ..Default::default()
    }
}

fn build_spill_table(conn: &mut Connection) {
    conn.execute("CREATE TABLE big (k INT NOT NULL, v INT NOT NULL)").unwrap();
    let k: Vec<i32> = (0..SPILL_ROWS).map(|i| (i % 2000) as i32).collect();
    let v: Vec<i32> = (0..SPILL_ROWS).map(|i| ((i * 7919) % 100_000) as i32).collect();
    conn.append("big", vec![ColumnBuffer::Int(k), ColumnBuffer::Int(v)]).unwrap();
}

fn spilled_queries(conn: &mut Connection) -> Result<()> {
    conn.query("SELECT k, SUM(v) FROM big GROUP BY k")?;
    conn.query("SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k")?;
    conn.query("SELECT v FROM big ORDER BY v")?;
    Ok(())
}

fn sweep_spilled(mode: FaultMode) {
    let _g = fault::test_lock();
    // Redirect the engine's lazily created spill directories into a
    // private root so leaks are observable. `TMPDIR` is read at tempdir
    // creation time; every test in this binary holds the fault lock, so
    // nothing else allocates temp dirs while it is overridden.
    let obs = tempfile::tempdir().unwrap();
    let prev = std::env::var_os("TMPDIR");
    std::env::set_var("TMPDIR", obs.path());
    let outcome = std::panic::catch_unwind(|| {
        for k in 0u64.. {
            let db = Database::open_in_memory();
            let mut conn = db.connect();
            conn.set_exec_options(spill_exec_opts());
            build_spill_table(&mut conn); // in-memory: outside the swept window
            fault::arm(FaultPolicy::Nth(k), mode);
            let res = spilled_queries(&mut conn);
            let rep = fault::disarm();
            if let Err(e) = &res {
                assert_clean_error(e);
            }
            // The aborted query must not take the session down with it.
            let r = conn.query("SELECT 41 + 1").unwrap();
            assert_eq!(int_of(r.value(0, 0)), 42, "connection unusable after spill fault");
            drop(conn);
            drop(db);
            let leftovers: Vec<_> =
                std::fs::read_dir(obs.path()).unwrap().map(|e| e.unwrap().path()).collect();
            assert!(leftovers.is_empty(), "spill files leaked past the query: {leftovers:?}");
            if !rep.fired {
                assert!(res.is_ok(), "fault-free spilled run must succeed: {:?}", res.err());
                assert!(rep.ios > 10, "suspiciously few spill I/Os swept: {}", rep.ios);
                break;
            }
        }
    });
    match prev {
        Some(p) => std::env::set_var("TMPDIR", p),
        None => std::env::remove_var("TMPDIR"),
    }
    if let Err(p) = outcome {
        std::panic::resume_unwind(p);
    }
}

#[test]
fn spilled_query_sweep_error_mode() {
    sweep_spilled(FaultMode::Error);
}

#[test]
fn spilled_query_sweep_torn_write_mode() {
    sweep_spilled(FaultMode::TornWrite);
}

/// The sweep above is only meaningful if the workload actually spills:
/// pin that each of the three breaker shapes goes out of core under the
/// sweep's budget.
#[test]
fn spilled_workload_actually_spills() {
    let _g = fault::test_lock();
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.set_exec_options(spill_exec_opts());
    build_spill_table(&mut conn);
    for q in [
        "SELECT k, SUM(v) FROM big GROUP BY k",
        "SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k",
        "SELECT v FROM big ORDER BY v",
    ] {
        conn.query(q).unwrap();
        let c = conn.last_exec_counters().unwrap();
        assert!(c.spilled_partitions > 0, "workload query did not spill: {q}");
        assert!(c.spill_bytes > 0, "workload query wrote no spill bytes: {q}");
    }
}

// ---------------------------------------------------------------------------
// Pinned regressions: two real bugs found by the sweep while it was
// being built.
// ---------------------------------------------------------------------------

/// `catalog.tmp` lives in the db root, which the cols/ GC never sweeps:
/// before the fix, every failed checkpoint leaked one temp file forever.
#[test]
fn failed_catalog_write_leaves_no_temp_file() {
    let _g = fault::test_lock();
    let dir = tempfile::tempdir().unwrap();
    let db = Database::open(dir.path()).unwrap();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INT)").unwrap();
    conn.execute("INSERT INTO t VALUES (1)").unwrap();
    fault::arm(FaultPolicy::SiteMatching("catalog.sync".into()), FaultMode::Error);
    let err = db.checkpoint().unwrap_err();
    let rep = fault::disarm();
    assert!(rep.fired, "catalog.sync site was never reached");
    assert_clean_error(&err);
    assert!(!dir.path().join("catalog.tmp").exists(), "failed checkpoint leaked catalog.tmp");
    // The store stays fully usable: the next checkpoint succeeds.
    db.checkpoint().unwrap();
    let r = conn.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(int_of(r.value(0, 0)), 1);
}

/// Before the fix a failed append left its half-written frame in the
/// writer's buffer; the next commit appended *after* it, replay stopped
/// at the torn frame, and the later — acknowledged — commit silently
/// vanished on restart.
#[test]
fn failed_wal_append_does_not_corrupt_later_commits() {
    let _g = fault::test_lock();
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE t (k INT)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        fault::arm(FaultPolicy::SiteMatching("wal.append".into()), FaultMode::ShortWrite);
        let err = conn.execute("INSERT INTO t VALUES (2)").unwrap_err();
        let rep = fault::disarm();
        assert!(rep.fired, "wal.append site was never reached");
        assert_clean_error(&err);
        // Acknowledged *after* the fault: this is the commit the old
        // writer corrupted.
        conn.execute("INSERT INTO t VALUES (3)").unwrap();
    }
    let db = Database::open(dir.path()).unwrap();
    let mut conn = db.connect();
    let r = conn.query("SELECT k FROM t ORDER BY k").unwrap();
    let ks: Vec<i64> = (0..r.nrows()).map(|i| int_of(r.value(i, 0))).collect();
    assert_eq!(ks, vec![1, 3], "the commit acked after the failed append must survive restart");
}

// ---------------------------------------------------------------------------
// WAL torn-tail property: truncating the log at *every* byte offset
// recovers exactly a prefix of the acknowledged transactions.
// ---------------------------------------------------------------------------

#[test]
fn wal_torn_tail_recovers_exactly_an_acked_prefix() {
    let _g = fault::test_lock();
    let src = tempfile::tempdir().unwrap();
    {
        let db = Database::open(src.path()).unwrap();
        let mut conn = db.connect();
        for sql in LIFECYCLE {
            conn.execute(sql).unwrap();
        }
        // No checkpoint: every transaction — the `Delete` and compact
        // `Append` frames of the UPDATE included — lives only in the WAL.
        assert!(!src.path().join("catalog.bin").exists(), "workload must not checkpoint");
    }
    let wal = std::fs::read(src.path().join("wal.log")).unwrap();
    assert!(wal.len() > 100, "WAL unexpectedly small: {} bytes", wal.len());
    let mut last = 0;
    for cut in 0..=wal.len() {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("wal.log"), &wal[..cut]).unwrap();
        let db = Database::open(dir.path())
            .unwrap_or_else(|e| panic!("torn tail at byte {cut} must not fail recovery: {e:?}"));
        let survived = surviving_prefix(&mut db.connect());
        assert!(survived >= last, "cut at byte {cut}: a longer log recovered a shorter prefix");
        last = survived;
    }
    assert_eq!(last, LIFECYCLE.len(), "untruncated WAL must recover every transaction");
}

// ---------------------------------------------------------------------------
// Streamed `Append` frames: the payload goes out piece by piece from the
// column arrays, as one failpoint operation.
// ---------------------------------------------------------------------------

/// A short or torn write inside a streamed frame's payload tears the frame
/// as a whole, and the log is cut back to its last flushed length: at once
/// by the writer after a short write, by replay and `wal::truncate` after a
/// torn one (the simulated process died mid-frame).
#[test]
fn a_fault_inside_a_streamed_append_frame_truncates_the_log_to_the_last_flush() {
    use monetlite_storage::wal::{self, WalRecord, WalWriter};
    use monetlite_storage::Bat;
    use std::sync::Arc;
    let _g = fault::test_lock();
    // Larger than the writer's buffer, so pieces of the torn half reach the
    // file.
    let strs: Vec<Option<String>> =
        (0..20_000).map(|i| (i % 11 != 0).then(|| format!("s{i}"))).collect();
    let append = WalRecord::Append {
        table: "t".into(),
        cols: vec![
            Arc::new(Bat::Int((0..20_000).collect())),
            Arc::new(Bat::from_buffer(&ColumnBuffer::Varchar(strs))),
        ],
    };
    for mode in [FaultMode::ShortWrite, FaultMode::TornWrite] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Begin(1)).unwrap();
        w.append(&WalRecord::DropTable { name: "x".into() }).unwrap();
        w.append(&WalRecord::Commit(1)).unwrap();
        w.flush().unwrap();
        let synced = std::fs::metadata(&path).unwrap().len();
        // The frame's operations: its length, its payload, its checksum.
        fault::arm(FaultPolicy::Nth(1), mode);
        let res = w.append(&append);
        let rep = fault::disarm();
        assert!(rep.fired, "{mode:?}: the payload write was never reached");
        assert!(res.is_err(), "{mode:?}: a frame whose payload failed must not be acknowledged");
        match mode {
            FaultMode::ShortWrite => {
                assert_eq!(std::fs::metadata(&path).unwrap().len(), synced, "not cut back");
                w.append(&WalRecord::Begin(3)).unwrap();
                w.append(&append).unwrap();
                w.append(&WalRecord::Commit(3)).unwrap();
                w.flush().unwrap();
                let ids: Vec<u64> = wal::replay(&path).unwrap().txns.iter().map(|t| t.0).collect();
                assert_eq!(ids, vec![1, 3], "the commit after the fault must replay");
            }
            _ => {
                drop(w);
                let r = wal::replay(&path).unwrap();
                assert!(r.file_len > synced, "no torn bytes reached the file");
                assert_eq!(r.valid_len, synced, "replay must stop at the torn frame");
                assert_eq!(r.txns.len(), 1);
                wal::truncate(&path, r.valid_len).unwrap();
                assert_eq!(std::fs::metadata(&path).unwrap().len(), synced);
            }
        }
    }
}

/// A persistent session's wrapped I/O operations, counted by an armed
/// injector that never fires. Streaming a frame from its columns must not
/// change the count: the fault sweeps' length and the benchmark's
/// `store.io_ops_per_session` depend on it. The count is the one this
/// session made when every frame's payload was one assembled buffer.
#[test]
fn a_persistent_session_makes_a_pinned_number_of_io_operations() {
    let _g = fault::test_lock();
    let dir = tempfile::tempdir().unwrap();
    fault::arm(FaultPolicy::Nth(u64::MAX), FaultMode::Error);
    let res = (|| -> Result<()> {
        let db = Database::open(dir.path())?;
        let mut conn = db.connect();
        conn.execute("CREATE TABLE t (k INT NOT NULL, s VARCHAR(8), d DECIMAL(9,2))")?;
        let n = 5000;
        let cols = vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("v{}", i % 13))).collect()),
            ColumnBuffer::Decimal { data: (0..n as i64).collect(), scale: 2 },
        ];
        conn.append("t", &cols)?;
        conn.append("t", cols)?;
        conn.execute("INSERT INTO t VALUES (-1, 'x', 1.5)")?;
        conn.execute("UPDATE t SET s = 'y' WHERE k = 7")?;
        conn.execute("DELETE FROM t WHERE k % 9 = 0")?;
        db.checkpoint()?;
        conn.execute("INSERT INTO t VALUES (-2, NULL, NULL)")?;
        drop(conn);
        drop(db);
        let db = Database::open(dir.path())?;
        let r = db.connect().query("SELECT count(*), count(DISTINCT s) FROM t")?;
        assert_eq!(r.value(0, 1), Value::Bigint(15));
        Ok(())
    })();
    let rep = fault::disarm();
    res.unwrap();
    assert!(!rep.fired);
    assert_eq!(rep.ios, PINNED_SESSION_IOS);
}

const PINNED_SESSION_IOS: u64 = 253;
