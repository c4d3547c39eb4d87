//! Differential property test for DML over segmented, partly deleted
//! data: random histories of bulk appends, INSERT / UPDATE / DELETE,
//! explicit transactions (committed and rolled back), checkpoints and
//! drop-and-reopen on a persistent database, compared after every step —
//! including inside an open transaction (read-your-writes) — with the
//! row-store engine, which shares the SQL front end and nothing of the
//! storage or write path. Reading back after every step would consolidate
//! every chain at depth 2, so histories also go *quiet*: a run of writes
//! nobody reads, ended by a checkpoint or a restart, so that long unread
//! chains (and their WAL replay) are what gets compared.
//!
//! Each history runs under one row of the configuration lattice, every
//! connection it opens configured as that row: the rows take turns, so
//! each receives at least two of the histories.

use monetlite::{Connection, Database};
use monetlite_rowstore::RowDb;
use monetlite_tests::{Config, Corpus, LATTICE};
use monetlite_types::{ColumnBuffer, Decimal, Value};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const DDL: &str = "CREATE TABLE t (k INT NOT NULL, s VARCHAR(12), d DECIMAL(10,2))";
const DUMP: &str = "SELECT * FROM t ORDER BY k, s, d";
const KEYS: u64 = 40;
/// Histories per run: at least two per lattice row.
const CASES: u32 = 48;
const _: () = assert!(CASES as usize >= 2 * LATTICE.len());
/// The tiny vector class: a history's table grows to a few hundred rows,
/// so 7-row vectors end inside segments and deletion runs.
const CORPUS: Corpus = Corpus::tiny(7);

/// One replayable write, as the oracle needs it after a rollback.
enum Write {
    Sql(String),
    Append(Vec<Vec<Value>>),
}

/// The row-store oracle. It cannot roll back, so it remembers the
/// committed history and rebuilds itself from it.
struct Oracle {
    db: RowDb,
    committed: Vec<Write>,
    /// Writes of the open transaction (`None` = autocommit).
    pending: Option<Vec<Write>>,
}

impl Oracle {
    fn new() -> Oracle {
        let db = RowDb::in_memory();
        db.execute(DDL).unwrap();
        Oracle { db, committed: Vec::new(), pending: None }
    }

    /// Apply a write; returns rows affected.
    fn apply(&mut self, w: Write) -> u64 {
        let n = Self::run(&self.db, &w);
        self.pending.as_mut().unwrap_or(&mut self.committed).push(w);
        n
    }

    fn run(db: &RowDb, w: &Write) -> u64 {
        match w {
            Write::Sql(sql) => db.execute(sql).unwrap_or_else(|e| panic!("oracle: {e}\n{sql}")),
            Write::Append(rows) => db.insert_rows("t", rows.clone()).unwrap(),
        }
    }

    fn commit(&mut self) {
        self.committed.extend(self.pending.take().expect("open transaction"));
    }

    /// Forget the open transaction: replay the committed history.
    fn rollback(&mut self) {
        self.pending = None;
        self.db = RowDb::in_memory();
        self.db.execute(DDL).unwrap();
        for w in &self.committed {
            Self::run(&self.db, w);
        }
    }
}

/// A tiny deterministic stream over one generated word.
struct Bits(u64);

impl Bits {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(23) ^ 0x5851f42d4c957f2d;
        (self.0 >> 17) % n
    }
}

fn random_row(b: &mut Bits) -> (i32, Option<String>, Option<i64>) {
    let k = b.below(KEYS) as i32;
    let s = (b.below(4) != 0).then(|| format!("v{}", b.below(6)));
    let d = (b.below(5) != 0).then(|| b.below(10_000) as i64);
    (k, s, d)
}

/// A WHERE clause. `wide` admits the shapes that match most of the table
/// (or all of it: no clause); DELETE mostly stays narrow so the table
/// keeps growing into many segments with holes.
fn predicate(b: &mut Bits, wide: bool) -> String {
    let a = b.below(KEYS);
    match b.below(if wide { 7 } else { 3 }) {
        0 => format!(" WHERE k = {a}"),
        1 => format!(" WHERE k >= {a} AND k < {}", a + 1 + b.below(8)),
        2 => format!(" WHERE s = 'v{}'", b.below(6)),
        3 => " WHERE s IS NULL".into(),
        4 => format!(" WHERE d IS NULL OR k > {a}"),
        5 => format!(" WHERE d > {}.50 AND s <> 'v0'", b.below(100)),
        _ => String::new(),
    }
}

fn assignment(b: &mut Bits) -> String {
    match b.below(7) {
        0 => "d = d + 1".into(),
        1 => "d = NULL".into(),
        2 => format!("s = 'v{}'", b.below(6)),
        3 => "s = NULL".into(),
        4 => "k = k + 1, s = 'moved'".into(),
        5 => format!("d = {}.25, s = s", b.below(50)),
        _ => "d = d * 2, k = k".into(),
    }
}

fn dump(conn: &mut Connection) -> Vec<Vec<Value>> {
    let r = conn.query(DUMP).unwrap();
    (0..r.nrows()).map(|i| r.row(i)).collect()
}

fn open(dir: &Path, row: &Config) -> (Database, Connection) {
    let db = Database::open(dir).unwrap();
    let conn = row.connect(&db, CORPUS);
    (db, conn)
}

fn run_history(words: &[u64], row: &Config) {
    let dir = tempfile::tempdir().unwrap();
    let (mut db, mut conn) = open(dir.path(), row);
    conn.execute(DDL).unwrap();
    let mut oracle = Oracle::new();
    let mut trace: Vec<String> = Vec::new();
    // Steps left without a read-back, and how the quiet run ends.
    let (mut quiet, mut quiet_end) = (0u64, 0u64);

    for (step, &word) in words.iter().enumerate() {
        let mut b = Bits(word);
        let in_txn = oracle.pending.is_some();
        let what = match b.below(34) {
            // Bulk append through the host API: a new segment per call.
            0..=7 => {
                let rows: Vec<_> = (0..4 + b.below(20)).map(|_| random_row(&mut b)).collect();
                conn.append(
                    "t",
                    vec![
                        ColumnBuffer::Int(rows.iter().map(|r| r.0).collect()),
                        ColumnBuffer::Varchar(rows.iter().map(|r| r.1.clone()).collect()),
                        ColumnBuffer::Decimal {
                            data: rows.iter().map(|r| r.2.unwrap_or(i64::MIN)).collect(),
                            scale: 2,
                        },
                    ],
                )
                .unwrap();
                let values = rows
                    .iter()
                    .map(|(k, s, d)| {
                        vec![
                            Value::Int(*k),
                            s.clone().map_or(Value::Null, Value::Str),
                            d.map_or(Value::Null, |raw| Value::Decimal(Decimal::new(raw, 2))),
                        ]
                    })
                    .collect();
                oracle.apply(Write::Append(values));
                format!("append {} rows", rows.len())
            }
            op @ 8..=25 => {
                let sql = match op {
                    8..=11 => {
                        let tuples: Vec<String> = (0..1 + b.below(3))
                            .map(|_| {
                                let (k, s, d) = random_row(&mut b);
                                let s = s.map_or("NULL".into(), |s| format!("'{s}'"));
                                let d = d.map_or("NULL".into(), |d| Decimal::new(d, 2).to_string());
                                format!("({k}, {s}, {d})")
                            })
                            .collect();
                        format!("INSERT INTO t VALUES {}", tuples.join(", "))
                    }
                    12..=20 => {
                        format!("UPDATE t SET {}{}", assignment(&mut b), predicate(&mut b, true))
                    }
                    _ => {
                        let wide = b.below(8) == 0;
                        format!("DELETE FROM t{}", predicate(&mut b, wide))
                    }
                };
                let got = conn.execute(&sql).unwrap_or_else(|e| panic!("{e}\n{sql}\n{trace:#?}"));
                let want = oracle.apply(Write::Sql(sql.clone()));
                assert_eq!(got, want, "rows affected by step {step}: {sql}\n{trace:#?}");
                sql
            }
            26 | 27 if !in_txn => {
                conn.begin().unwrap();
                oracle.pending = Some(Vec::new());
                "BEGIN".into()
            }
            26..=28 if in_txn => {
                if b.below(3) == 0 {
                    conn.rollback().unwrap();
                    oracle.rollback();
                    "ROLLBACK".into()
                } else {
                    conn.commit().unwrap();
                    oracle.commit();
                    "COMMIT".into()
                }
            }
            // A checkpoint compacts deleted rows away, which conflicts
            // with an open transaction by design: only between them.
            29 if !in_txn => {
                db.checkpoint().unwrap();
                "checkpoint".into()
            }
            // Drop every handle and recover. An open transaction dies
            // with its connection.
            30 => {
                drop(conn);
                drop(db);
                if in_txn {
                    oracle.rollback();
                }
                (db, conn) = open(dir.path(), row);
                "reopen".into()
            }
            _ => {
                (quiet, quiet_end) = (3 + b.below(6), b.below(3));
                continue;
            }
        };
        trace.push(what);
        if quiet > 0 {
            quiet -= 1;
            if quiet > 0 {
                continue;
            }
            // The unread chains meet their first full-width reader: a
            // checkpoint, recovery's replay + checkpoint, or the dump.
            match quiet_end {
                1 if oracle.pending.is_none() => {
                    db.checkpoint().unwrap();
                    trace.push("checkpoint (after quiet run)".into());
                }
                2 => {
                    drop(conn);
                    drop(db);
                    if oracle.pending.is_some() {
                        oracle.rollback();
                    }
                    (db, conn) = open(dir.path(), row);
                    trace.push("reopen (after quiet run)".into());
                }
                _ => {}
            }
        }
        let got = dump(&mut conn);
        let want = oracle.db.query(DUMP).unwrap().rows;
        assert_eq!(got, want, "table contents after step {step}\n{trace:#?}");
    }
}

/// Histories run so far: the next one runs under row `n % LATTICE.len()`.
static HISTORIES: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn dml_histories_match_the_rowstore_oracle(words in collection::vec(any::<u64>(), 12..48)) {
        let n = HISTORIES.fetch_add(1, Ordering::Relaxed);
        let row = &LATTICE[n % LATTICE.len()];
        let run = std::panic::catch_unwind(|| run_history(&words, row));
        if let Err(panic) = run {
            eprintln!("history {n} failed under lattice row `{}`", row.label);
            std::panic::resume_unwind(panic);
        }
    }
}
