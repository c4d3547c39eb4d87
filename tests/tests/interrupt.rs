//! Cross-thread query cancellation and disk-pressure degradation: the
//! paper's embedded setting (§3.4) demands that a misbehaving query can
//! be stopped — and a disk-hungry one capped — without taking the host
//! process or any other session down.
//!
//! Covers: interrupt latency and idempotence across thread counts and
//! spilled/unspilled shapes, cancelling a running spilled TPC-H query
//! from another thread, `ExecOptions::timeout` firing on the same
//! mid-morsel checkpoints, and `ExecOptions::spill_quota` aborting exactly
//! the offending query.

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite::Database;
use monetlite_types::{ColumnBuffer, MlError, Value};
use std::time::{Duration, Instant};

/// A join+sort heavy enough to run for seconds uninterrupted: 20k rows,
/// 100 distinct keys, so the self-join produces ~4M pairs to sort.
const HEAVY: &str = "SELECT a.v AS av FROM t a, t b WHERE a.k = b.k ORDER BY av";

fn heavy_db(rows: usize) -> Database {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL)").unwrap();
    let k: Vec<i32> = (0..rows).map(|i| (i % 100) as i32).collect();
    let v: Vec<i32> = (0..rows).map(|i| ((i * 7919) % 1_000_003) as i32).collect();
    conn.append("t", vec![ColumnBuffer::Int(k), ColumnBuffer::Int(v)]).unwrap();
    db
}

fn shaped(threads: usize, memory_budget: usize) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Streaming,
        threads,
        vector_size: 4096,
        memory_budget,
        ..Default::default()
    }
}

/// The satellite matrix: threads {1,4} × {unspilled, spilled}, several
/// interrupt delays. Each combination must cancel promptly (or finish
/// legitimately), and the same connection must answer the next query.
#[test]
fn interrupt_cancels_cross_thread_and_connection_survives() {
    let db = heavy_db(20_000);
    for threads in [1usize, 4] {
        for budget in [usize::MAX, 256 * 1024] {
            let mut conn = db.connect();
            conn.set_exec_options(shaped(threads, budget));
            let handle = conn.interrupt_handle();
            for delay_ms in [0u64, 5, 40] {
                let h = handle.clone();
                let started = Instant::now();
                let res = std::thread::scope(|s| {
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                        h.interrupt();
                        h.interrupt(); // idempotent: a second signal is harmless
                    });
                    conn.query(HEAVY)
                });
                let elapsed = started.elapsed();
                match res {
                    Err(MlError::Interrupted) => {
                        // Checkpoints are per-morsel and per-operator: the
                        // abort must land well before the query's natural
                        // multi-second runtime.
                        assert!(
                            elapsed < Duration::from_millis(delay_ms) + Duration::from_secs(2),
                            "interrupt latency {elapsed:?} at threads={threads} budget={budget}"
                        );
                    }
                    Ok(_) => {} // finished before the signal landed
                    Err(e) => panic!("expected Interrupted or completion, got {e:?}"),
                }
                // The session survives: the flag is cleared at the next
                // query's start, not left latched.
                let r = conn.query("SELECT 40 + 2").unwrap();
                assert_eq!(r.value(0, 0), Value::Int(42));
            }
        }
    }
}

/// An interrupt with no query in flight must not poison the connection:
/// the next query runs normally.
#[test]
fn idle_interrupt_is_a_no_op() {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    let h = conn.interrupt_handle();
    h.interrupt();
    h.interrupt();
    let r = conn.query("SELECT 1 + 1").unwrap();
    assert_eq!(r.value(0, 0), Value::Int(2));
}

/// Acceptance scenario: a running, *spilled* TPC-H query is cancelled
/// from another thread and the connection stays usable.
#[test]
fn interrupt_cancels_spilled_tpch_query() {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    let data = monetlite_tpch::generate(0.02, 20260727);
    monetlite_tpch::load_monet(&mut conn, &data).unwrap();
    // A budget small enough that Q18's group-by/join state spills.
    conn.set_exec_options(ExecOptions {
        mode: ExecMode::Streaming,
        threads: 2,
        vector_size: 1024,
        memory_budget: 32 * 1024,
        ..Default::default()
    });
    if let Some(s) = monetlite_tpch::queries::setup_sql(18) {
        conn.execute(s).unwrap();
    }
    let handle = conn.interrupt_handle();
    let res = std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            handle.interrupt();
        });
        conn.query(monetlite_tpch::queries::sql(18))
    });
    match res {
        Err(MlError::Interrupted) | Ok(_) => {}
        Err(e) => panic!("expected Interrupted or completion, got {e:?}"),
    }
    let r = conn.query("SELECT COUNT(*) FROM lineitem").unwrap();
    assert!(matches!(r.value(0, 0), Value::Bigint(n) if n > 0));
}

/// `ExecOptions::timeout` rides the same per-morsel/per-operator
/// checkpoints the interrupt uses, so it now fires mid-pipeline instead
/// of only between morsels.
#[test]
fn timeout_fires_mid_pipeline_and_connection_survives() {
    let db = heavy_db(20_000);
    let mut conn = db.connect();
    conn.set_exec_options(ExecOptions {
        timeout: Some(Duration::from_millis(5)),
        ..shaped(1, usize::MAX)
    });
    match conn.query(HEAVY) {
        Err(MlError::Timeout { elapsed_ms, limit_ms }) => {
            assert_eq!(limit_ms, 5);
            assert!(elapsed_ms >= 5);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    conn.set_exec_options(shaped(1, usize::MAX));
    let r = conn.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint(20_000));
}

/// Disk-pressure degradation: a query whose spill files exceed the quota
/// aborts with a precise error naming both numbers, while a concurrent
/// session on the same store keeps answering and the aborted connection
/// remains usable.
#[test]
fn spill_quota_aborts_only_the_offending_query() {
    let db = heavy_db(20_000);
    let mut c1 = db.connect();
    c1.set_exec_options(ExecOptions {
        mode: ExecMode::Streaming,
        threads: 1,
        vector_size: 1024,
        memory_budget: 8 * 1024, // force the sort out of core…
        spill_quota: 4 * 1024,   // …then cap its temp-disk appetite
        ..Default::default()
    });
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            let mut c2 = db.connect();
            for _ in 0..20 {
                let r = c2.query("SELECT COUNT(*) FROM t").unwrap();
                assert_eq!(r.value(0, 0), Value::Bigint(20_000));
            }
        });
        match c1.query("SELECT v FROM t ORDER BY v") {
            Err(MlError::SpillQuota { used, quota }) => {
                assert_eq!(quota, 4 * 1024);
                assert!(used > quota, "reported usage {used} must exceed the quota {quota}");
            }
            other => panic!("expected SpillQuota, got {other:?}"),
        }
        other.join().unwrap();
    });
    // The offender's connection is not poisoned.
    let r = c1.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.value(0, 0), Value::Bigint(20_000));
}
