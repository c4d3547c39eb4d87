//! The native-language interface (paper §3.3): moving result sets into the
//! host "analytical environment" with zero-copy, eager, or lazy
//! conversion.
//!
//! The paper's three mechanisms map to safe Rust as follows (see
//! ARCHITECTURE.md "Host transfer" for the full argument):
//!
//! | paper                                   | here                        |
//! |-----------------------------------------|-----------------------------|
//! | share pointer + `mprotect` copy-on-write| [`SharedArray`] (`Arc` + clone-on-first-write) |
//! | header forgery (`mmap MAP_FIXED`)       | host metadata out-of-line — cost is O(1) either way |
//! | `PROT_NONE` + SIGSEGV-driven conversion | [`LazyColumn`] materialising on first access |
//!
//! Zero copy applies when the host can read the engine's representation
//! as it is. The paper's R host needs "contiguous C-style arrays", so
//! there every string converts. A Rust host reads a VARCHAR column as the
//! engine keeps it — offsets into a copy-on-write
//! [`StringHeap`](monetlite_storage::StringHeap), `&str` by row through
//! [`HostColumn::str_at`] — so every column type is shared. The one
//! exception protects the host's memory: a string column whose rows hold
//! only a small part of a large heap (a few rows gathered out of a long
//! comment column) is compacted into a heap of its own rather than keeping
//! the whole heap alive; see [`MAX_HEAP_PIN_RATIO`].

use monetlite_storage::heap::NULL_OFFSET;
use monetlite_storage::Bat;
use monetlite_types::{ColumnBuffer, LogicalType, MlError, Result, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::QueryResult;

/// How a result set crosses the embedding boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Share every column, strings included, copy-on-write (the
    /// MonetDBLite default). Only a string column that would pin a much
    /// larger heap is copied, compacted (see [`MAX_HEAP_PIN_RATIO`]).
    ZeroCopy,
    /// Convert every column up front (what a conventional driver does).
    Eager,
    /// Build empty facades; convert a column the first time it is read.
    Lazy,
}

/// A zero-copy string column may keep alive at most this many heap bytes
/// per byte its rows hold; a column beyond it is compacted at import
/// ([`Bat::compacted`]), and those bytes count as copied.
pub use monetlite_storage::bat::MAX_HEAP_PIN_RATIO;

/// Transfer statistics, the quantities Figures 5/6 measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Columns shared without copying.
    pub zero_copied: usize,
    /// Columns converted (copied) during import, compacted string columns
    /// included.
    pub converted: usize,
    /// Columns deferred for lazy conversion.
    pub deferred: usize,
    /// Bytes actually copied.
    pub bytes_copied: usize,
}

/// One column as seen by the host environment.
pub enum HostColumn {
    /// The engine's representation, read in place: shared with the engine
    /// until the first write clones it (copy-on-write — the `mprotect`
    /// discipline of §3.3 enforced by the type system instead of the MMU).
    Shared(SharedArray),
    /// Fully materialised native array.
    Native(ColumnBuffer),
    /// Facade that converts on first access (§3.3 *Lazy Conversion*).
    Lazy(LazyColumn),
}

impl HostColumn {
    /// Row count (of the host's copy once it has written one).
    pub fn len(&self) -> usize {
        match self {
            HostColumn::Shared(s) => s.view().len(),
            HostColumn::Native(b) => b.len(),
            HostColumn::Lazy(l) => l.bat.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one value (triggers lazy conversion).
    pub fn get(&self, row: usize) -> Value {
        match self {
            HostColumn::Shared(s) => s.view().get(row),
            HostColumn::Native(b) => b.get(row),
            HostColumn::Lazy(l) => l.materialized().get(row),
        }
    }

    /// Borrow the string at `row` (`None` for NULL) without allocating;
    /// a lazy column converts first. An error, never a panic, for a
    /// non-VARCHAR column or a row out of range.
    pub fn str_at(&self, row: usize) -> Result<Option<&str>> {
        match self {
            HostColumn::Shared(s) => s.str_at(row),
            HostColumn::Native(b) => buffer_str_at(b, row),
            HostColumn::Lazy(l) => buffer_str_at(l.materialized(), row),
        }
    }

    /// View as a fully native buffer (triggers conversion where needed).
    pub fn native(&self) -> ColumnBuffer {
        match self {
            HostColumn::Shared(s) => s.view().to_buffer(None),
            HostColumn::Native(b) => b.clone(),
            HostColumn::Lazy(l) => l.materialized().clone(),
        }
    }
}

fn buffer_str_at(b: &ColumnBuffer, row: usize) -> Result<Option<&str>> {
    match b {
        ColumnBuffer::Varchar(v) => match v.get(row) {
            Some(s) => Ok(s.as_deref()),
            None => Err(out_of_range(row, v.len())),
        },
        other => Err(not_varchar(other.logical_type())),
    }
}

fn out_of_range(row: usize, len: usize) -> MlError {
    MlError::Execution(format!("row {row} out of range for a column of {len} rows"))
}

fn not_varchar(ty: LogicalType) -> MlError {
    MlError::TypeMismatch(format!("string access to a {ty} column"))
}

/// A column in the engine's representation, held by the host with
/// copy-on-write.
pub struct SharedArray {
    bat: Arc<Bat>,
    /// Set by the first write (or at import for a compacted column): from
    /// then on `bat` is the host's own copy.
    owned: bool,
    cow_events: Arc<AtomicU64>,
}

impl SharedArray {
    /// Read-only view (no copy ever).
    pub fn view(&self) -> &Bat {
        &self.bat
    }

    /// True while still physically sharing the database's array.
    pub fn is_shared(&self) -> bool {
        !self.owned
    }

    fn str_at(&self, row: usize) -> Result<Option<&str>> {
        match self.view() {
            Bat::Varchar { offsets, heap } => match offsets.get(row) {
                Some(&NULL_OFFSET) => Ok(None),
                Some(&o) => Ok(Some(heap.get(o))),
                None => Err(out_of_range(row, offsets.len())),
            },
            other => Err(not_varchar(other.logical_type())),
        }
    }

    /// Mutable access: the first call copies the data into host-owned
    /// memory ("If code from the target environment attempts to write into
    /// the shared data area, the data should be copied within the target
    /// environment and only the copy modified", §3.3). The database's copy
    /// is never touched. For a string column the copy is the offsets; the
    /// heap stays shared until the host adds a string to it.
    pub fn make_mut(&mut self) -> &mut Bat {
        if !self.owned {
            self.owned = true;
            self.cow_events.fetch_add(1, Ordering::Relaxed);
        }
        Arc::make_mut(&mut self.bat)
    }
}

/// A lazily converted column: conversion cost is paid only if the host
/// actually touches the data.
pub struct LazyColumn {
    bat: Arc<Bat>,
    cache: OnceLock<ColumnBuffer>,
    conversions: Arc<AtomicU64>,
}

impl LazyColumn {
    /// Whether conversion has happened yet.
    pub fn is_materialized(&self) -> bool {
        self.cache.get().is_some()
    }

    fn materialized(&self) -> &ColumnBuffer {
        self.cache.get_or_init(|| {
            self.conversions.fetch_add(1, Ordering::Relaxed);
            self.bat.to_buffer(None)
        })
    }
}

/// A host-side data frame: what `dbReadTable`/`dbGetQuery` hand to R.
pub struct HostFrame {
    /// Column names.
    pub names: Vec<String>,
    /// Column data.
    pub cols: Vec<HostColumn>,
    /// Rows.
    pub rows: usize,
    /// What the import did.
    pub stats: TransferStats,
    /// Copy-on-write events observed on shared columns.
    pub cow_events: Arc<AtomicU64>,
    /// Lazy conversions performed so far.
    pub lazy_conversions: Arc<AtomicU64>,
}

impl HostFrame {
    /// Import a query result into the host environment.
    pub fn import(result: &QueryResult, mode: TransferMode) -> HostFrame {
        let cow_events = Arc::new(AtomicU64::new(0));
        let lazy_conversions = Arc::new(AtomicU64::new(0));
        let mut stats = TransferStats::default();
        let mut cols = Vec::with_capacity(result.ncols());
        for i in 0..result.ncols() {
            let bat = result.col_shared(i);
            let col = match mode {
                TransferMode::ZeroCopy => {
                    let (bat, owned) = match bat.compacted() {
                        None => {
                            stats.zero_copied += 1;
                            (bat, false)
                        }
                        Some(own) => {
                            stats.converted += 1;
                            stats.bytes_copied += own.size_bytes();
                            (Arc::new(own), true)
                        }
                    };
                    HostColumn::Shared(SharedArray { bat, owned, cow_events: cow_events.clone() })
                }
                TransferMode::Eager => {
                    stats.converted += 1;
                    let buf = bat.to_buffer(None);
                    stats.bytes_copied += buf.size_bytes();
                    HostColumn::Native(buf)
                }
                TransferMode::Lazy => {
                    stats.deferred += 1;
                    HostColumn::Lazy(LazyColumn {
                        bat,
                        cache: OnceLock::new(),
                        conversions: lazy_conversions.clone(),
                    })
                }
            };
            cols.push(col);
        }
        HostFrame {
            names: result.names().to_vec(),
            cols,
            rows: result.nrows(),
            stats,
            cow_events,
            lazy_conversions,
        }
    }

    /// Column by name.
    pub fn col(&self, name: &str) -> Option<&HostColumn> {
        self.names.iter().position(|n| n == name).map(|i| &self.cols[i])
    }

    /// Mutable column by index.
    pub fn col_mut(&mut self, i: usize) -> &mut HostColumn {
        &mut self.cols[i]
    }

    /// Number of lazy conversions that have fired.
    pub fn lazy_conversions(&self) -> u64 {
        self.lazy_conversions.load(Ordering::Relaxed)
    }

    /// Number of copy-on-write events.
    pub fn cow_count(&self) -> u64 {
        self.cow_events.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecOptions;
    use crate::Database;

    fn result() -> (Database, QueryResult) {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script(
            "CREATE TABLE t (a INT, b VARCHAR(10), c DOUBLE);
             INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), (3, NULL, 3.5);",
        )
        .unwrap();
        let r = conn.query("SELECT a, b, c FROM t").unwrap();
        (db, r)
    }

    fn shared(c: &mut HostColumn) -> &mut SharedArray {
        match c {
            HostColumn::Shared(s) => s,
            _ => panic!("expected a shared column"),
        }
    }

    #[test]
    fn zero_copy_shares_every_column() {
        let (_db, r) = result();
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!(f.stats.zero_copied, 3, "int, varchar and double share");
        assert_eq!((f.stats.converted, f.stats.bytes_copied), (0, 0));
        for i in 0..3 {
            let s = shared(f.col_mut(i));
            assert!(s.is_shared());
            assert!(Arc::ptr_eq(&s.bat, &r.col_shared(i)), "column {i} was copied");
        }
        assert_eq!(f.cols[1].get(0), Value::Str("x".into()));
    }

    #[test]
    fn zero_copy_is_o1_in_data_size() {
        // A long, high-NDV string column shares as cheaply as a short one.
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE s (v VARCHAR(40))").unwrap();
        let strs = (0..20_000).map(|i| Some(format!("a long enough comment, number {i}")));
        conn.append("s", vec![ColumnBuffer::Varchar(strs.collect())]).unwrap();
        let r = conn.query("SELECT v FROM s").unwrap();
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!((f.stats.zero_copied, f.stats.bytes_copied), (1, 0));
        assert_eq!(f.cols[0].str_at(19_999).unwrap(), Some("a long enough comment, number 19999"));
    }

    #[test]
    fn copy_on_write_isolates_the_database() {
        let (_db, r) = result();
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!(f.cow_count(), 0);
        // Host mutates column 0.
        let s = shared(f.col_mut(0));
        if let Bat::Int(v) = s.make_mut() {
            v[0] = 999;
        }
        assert!(!s.is_shared());
        assert_eq!(f.cow_count(), 1);
        // The host sees the change; the database copy is untouched.
        assert_eq!(f.cols[0].get(0), Value::Int(999));
        assert_eq!(r.value(0, 0), Value::Int(1), "database data must be unmodified");
        // A second write does not copy again.
        shared(f.col_mut(0)).make_mut();
        assert_eq!(f.cow_count(), 1);
    }

    #[test]
    fn copy_on_write_isolates_strings_for_an_edited_offset_and_a_new_string() {
        let (_db, r) = result();
        let heap_bytes = |b: &Bat| match b {
            Bat::Varchar { heap, .. } => heap.raw().to_vec(),
            _ => panic!("varchar expected"),
        };
        let db_heap = heap_bytes(&r.col_shared(1));
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        // An edited offset: row 2 (NULL) now reads row 0's string.
        let Bat::Varchar { offsets, .. } = shared(f.col_mut(1)).make_mut() else {
            panic!("varchar expected")
        };
        offsets[2] = offsets[0];
        assert_eq!(f.cols[1].str_at(2).unwrap(), Some("x"));
        assert_eq!(r.value(2, 1), Value::Null, "the database's offsets were written");
        // A new string: the heap the host shares is copied on insertion.
        let Bat::Varchar { offsets, heap } = shared(f.col_mut(1)).make_mut() else {
            panic!("varchar expected")
        };
        offsets[1] = heap.add("brand new");
        assert_eq!(f.cols[1].str_at(1).unwrap(), Some("brand new"));
        assert_eq!(r.value(1, 1), Value::Str("y".into()));
        assert_eq!(heap_bytes(&r.col_shared(1)), db_heap, "the database's heap was written");
        assert_eq!(f.cow_count(), 1);
    }

    #[test]
    fn len_follows_the_host_copy_after_a_write() {
        let (_db, r) = result();
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        shared(f.col_mut(0)).make_mut().push(&Value::Int(4)).unwrap();
        assert_eq!((f.cols[0].len(), f.cols[0].get(3)), (4, Value::Int(4)));
        assert_eq!((f.cols[2].len(), r.col_shared(0).len()), (3, 3));
    }

    #[test]
    fn str_at_reads_every_form_and_rejects_what_is_not_a_string() {
        let (_db, r) = result();
        for mode in [TransferMode::ZeroCopy, TransferMode::Eager, TransferMode::Lazy] {
            let f = HostFrame::import(&r, mode);
            let b = &f.cols[1];
            assert_eq!((b.str_at(0).unwrap(), b.str_at(1).unwrap()), (Some("x"), Some("y")));
            assert_eq!(b.str_at(2).unwrap(), None, "{mode:?}: NULL reads as None");
            assert!(matches!(b.str_at(3), Err(MlError::Execution(_))), "{mode:?}: past the end");
            assert!(matches!(f.cols[0].str_at(0), Err(MlError::TypeMismatch(_))), "{mode:?}");
        }
    }

    #[test]
    fn native_is_the_eager_buffer() {
        let (_db, r) = result();
        let eager = HostFrame::import(&r, TransferMode::Eager);
        for mode in [TransferMode::ZeroCopy, TransferMode::Lazy] {
            let f = HostFrame::import(&r, mode);
            for (c, e) in f.cols.iter().zip(&eager.cols) {
                let HostColumn::Native(want) = e else { panic!("eager columns are native") };
                assert_eq!(&c.native(), want, "{mode:?}");
            }
        }
    }

    #[test]
    fn eager_converts_everything() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::Eager);
        assert_eq!(f.stats.converted, 3);
        assert_eq!(f.stats.zero_copied, 0);
        assert!(f.stats.bytes_copied > 0);
        assert_eq!(f.cols[2].get(2), Value::Double(3.5));
    }

    #[test]
    fn lazy_pays_only_for_touched_columns() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::Lazy);
        assert_eq!(f.stats.deferred, 3);
        assert_eq!(f.lazy_conversions(), 0, "nothing converted yet");
        // Touch only column 0 (the SELECT * / use-one-column pattern).
        assert_eq!(f.cols[0].get(1), Value::Int(2));
        assert_eq!(f.lazy_conversions(), 1);
        match &f.cols[1] {
            HostColumn::Lazy(l) => assert!(!l.is_materialized()),
            _ => panic!(),
        }
        // Repeated access converts nothing further.
        assert_eq!(f.cols[0].get(2), Value::Int(3));
        assert_eq!(f.lazy_conversions(), 1);
    }

    #[test]
    fn a_host_write_does_not_reach_the_result_cache() {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.set_exec_options(ExecOptions { use_result_cache: true, ..Default::default() });
        conn.run_script("CREATE TABLE t (a INT, b VARCHAR(10)); INSERT INTO t VALUES (1, 'x');")
            .unwrap();
        let sql = "SELECT a, b FROM t";
        let first = conn.query(sql).unwrap();
        let mut f = HostFrame::import(&first, TransferMode::ZeroCopy);
        if let Bat::Int(v) = shared(f.col_mut(0)).make_mut() {
            v[0] = 7;
        }
        if let Bat::Varchar { offsets, heap } = shared(f.col_mut(1)).make_mut() {
            offsets[0] = heap.add("host");
        }
        let hits = db.result_cache().hits.load(Ordering::Relaxed);
        let again = conn.query(sql).unwrap();
        assert_eq!(db.result_cache().hits.load(Ordering::Relaxed), hits + 1, "not a cache hit");
        assert!(Arc::ptr_eq(&again.col_shared(1), &first.col_shared(1)));
        assert_eq!(again.row(0), vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(f.cols[0].get(0), Value::Int(7));
        assert_eq!(f.cols[1].str_at(0).unwrap(), Some("host"));
    }

    #[test]
    fn a_small_selection_over_a_large_heap_is_compacted_and_counted() {
        let db = Database::open_in_memory();
        let mut conn = db.connect();
        conn.execute("CREATE TABLE s (k INT, v VARCHAR(40))").unwrap();
        let n = 5000;
        conn.append(
            "s",
            vec![
                ColumnBuffer::Int((0..n).collect()),
                ColumnBuffer::Varchar((0..n).map(|i| Some(format!("comment {i:06}"))).collect()),
            ],
        )
        .unwrap();
        let r = conn.query("SELECT v FROM s WHERE k = 1234 OR k = 4321").unwrap();
        assert_eq!(r.nrows(), 2);
        let Bat::Varchar { heap, .. } = &*r.col_shared(0) else { panic!("varchar expected") };
        assert!(heap.size_bytes() > 1000 * 18, "the result shares the table's heap");
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!((f.stats.zero_copied, f.stats.converted), (0, 1));
        // Two offsets, the NULL marker byte, two 4 + 14 byte entries.
        assert_eq!(f.stats.bytes_copied, 2 * 4 + 1 + 2 * (4 + 14));
        assert_eq!(f.cols[0].str_at(1).unwrap(), Some("comment 004321"));
        let s = shared(f.col_mut(0));
        assert!(!s.is_shared() && !Arc::ptr_eq(&s.bat, &r.col_shared(0)));
        // The compacted column is the host's already: a write copies nothing.
        s.make_mut();
        assert_eq!(f.cow_count(), 0);
    }

    #[test]
    fn frame_lookup_by_name() {
        let (_db, r) = result();
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert!(f.col("b").is_some());
        assert!(f.col("zzz").is_none());
        assert_eq!(f.rows, 3);
    }
}
