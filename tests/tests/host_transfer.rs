//! The embedding boundary on real data (paper §3.3): a zero-copy import of
//! TPC-H lineitem read back from disk shares all sixteen columns — the
//! five VARCHAR columns included — copies no byte, reads strings in place,
//! isolates the database from host writes, and compacts a string column
//! only when its rows would pin a much larger heap.

use monetlite::exec::ExecOptions;
use monetlite::host::{HostColumn, HostFrame, TransferMode, MAX_HEAP_PIN_RATIO};
use monetlite::storage::Bat;
use monetlite::{Database, QueryResult};
use monetlite_types::{ColumnBuffer, Value};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

const SF: f64 = 0.002;

/// A persistent lineitem, checkpointed and reopened: its columns are read
/// back from their files on first touch.
fn lineitem(dir: &std::path::Path) -> Database {
    {
        let db = Database::open(dir).unwrap();
        let mut conn = db.connect();
        monetlite_tpch::load_monet(&mut conn, &monetlite_tpch::generate(SF, 7)).unwrap();
        db.checkpoint().unwrap();
    }
    Database::open(dir).unwrap()
}

fn shares(c: &HostColumn, r: &QueryResult, i: usize) -> bool {
    match c {
        HostColumn::Shared(s) => s.is_shared() && std::ptr::eq(s.view(), &*r.col_shared(i)),
        _ => false,
    }
}

fn strings(b: &ColumnBuffer) -> &[Option<String>] {
    match b {
        ColumnBuffer::Varchar(v) => v,
        _ => panic!("varchar expected"),
    }
}

#[test]
fn select_star_shares_every_column_and_reads_strings_in_place() {
    let dir = tempfile::tempdir().unwrap();
    let db = lineitem(dir.path());
    let mut conn = db.connect();
    let r = conn.query("SELECT * FROM lineitem").unwrap();
    assert_eq!(r.ncols(), 16);
    let f = HostFrame::import(&r, TransferMode::ZeroCopy);
    assert_eq!((f.stats.zero_copied, f.stats.converted, f.stats.bytes_copied), (16, 0, 0));
    let eager = HostFrame::import(&r, TransferMode::Eager);
    let mut varchar = 0;
    for (i, (c, e)) in f.cols.iter().zip(&eager.cols).enumerate() {
        assert!(shares(c, &r, i), "column {} was copied", f.names[i]);
        let HostColumn::Native(want) = e else { panic!("eager columns are native") };
        assert_eq!(&c.native(), want, "column {}", f.names[i]);
        if let ColumnBuffer::Varchar(want) = want {
            varchar += 1;
            for (row, s) in want.iter().enumerate() {
                assert_eq!(c.str_at(row).unwrap(), s.as_deref());
            }
        } else {
            assert!(c.str_at(0).is_err(), "string access to {}", f.names[i]);
        }
    }
    assert_eq!(varchar, 5);
    assert_eq!(f.cow_count(), 0, "reading never copies");
}

#[test]
fn lazy_import_converts_only_the_column_it_touches() {
    let dir = tempfile::tempdir().unwrap();
    let db = lineitem(dir.path());
    let r = db.connect().query("SELECT * FROM lineitem").unwrap();
    let f = HostFrame::import(&r, TransferMode::Lazy);
    assert_eq!((f.stats.deferred, f.stats.bytes_copied), (16, 0));
    let comment = f.names.iter().position(|n| n == "l_comment").unwrap();
    assert!(f.cols[comment].str_at(0).unwrap().is_some());
    assert!(f.cols[comment].str_at(r.nrows() - 1).unwrap().is_some());
    assert_eq!(f.lazy_conversions(), 1);
    let materialized =
        f.cols.iter().filter(|c| matches!(c, HostColumn::Lazy(l) if l.is_materialized()));
    assert_eq!(materialized.count(), 1);
}

#[test]
fn host_writes_to_shared_strings_stay_in_the_host_cached_or_not() {
    let dir = tempfile::tempdir().unwrap();
    let db = lineitem(dir.path());
    for cache in [false, true] {
        let mut conn = db.connect();
        conn.set_exec_options(ExecOptions { use_result_cache: cache, ..Default::default() });
        let sql = "SELECT l_orderkey, l_comment FROM lineitem";
        let r = conn.query(sql).unwrap();
        let before = r.to_buffers();
        let mut f = HostFrame::import(&r, TransferMode::ZeroCopy);
        let HostColumn::Shared(s) = f.col_mut(1) else { panic!("l_comment must be shared") };
        let Bat::Varchar { offsets, heap } = s.make_mut() else { panic!("varchar expected") };
        offsets[0] = offsets[1];
        offsets[2] = heap.add("a string only the host has");
        assert_eq!(f.cols[1].str_at(0).unwrap(), strings(&before[1])[1].as_deref());
        assert_eq!(f.cols[1].str_at(2).unwrap(), Some("a string only the host has"));
        assert_eq!(f.cow_count(), 1);
        let hits = db.result_cache().hits.load(Ordering::Relaxed);
        let again = conn.query(sql).unwrap();
        let hit = db.result_cache().hits.load(Ordering::Relaxed) > hits;
        assert_eq!(hit, cache, "cache {cache}: second query a hit");
        assert_eq!(again.to_buffers(), before, "cache {cache}: a host write reached the database");
        assert_eq!(r.to_buffers(), before);
    }
}

#[test]
fn a_small_selection_is_compacted_instead_of_pinning_the_whole_heap() {
    let dir = tempfile::tempdir().unwrap();
    let db = lineitem(dir.path());
    let mut conn = db.connect();
    let key = conn.query("SELECT min(l_orderkey) FROM lineitem").unwrap().value(0, 0);
    for sql in [
        format!("SELECT l_comment FROM lineitem WHERE l_orderkey = {key}"),
        "SELECT l_comment FROM lineitem LIMIT 3".to_string(),
    ] {
        let r = conn.query(&sql).unwrap();
        assert!(r.nrows() > 0, "{sql}");
        let Bat::Varchar { heap, .. } = &*r.col_shared(0) else { panic!("varchar expected") };
        let want = r.to_buffers();
        let want = strings(&want[0]);
        let held: usize = want.iter().flatten().map(|s| 4 + s.len()).sum();
        assert!(heap.size_bytes() > MAX_HEAP_PIN_RATIO * held, "{sql}: heap not pinned");
        let f = HostFrame::import(&r, TransferMode::ZeroCopy);
        assert_eq!((f.stats.zero_copied, f.stats.converted), (0, 1), "{sql}");
        // Offsets, the NULL marker byte, one entry per distinct string.
        let distinct: HashSet<&str> = want.iter().flatten().map(|s| s.as_str()).collect();
        let entries: usize = distinct.iter().map(|s| 4 + s.len()).sum();
        assert_eq!(f.stats.bytes_copied, 4 * want.len() + 1 + entries, "{sql}");
        for (row, s) in want.iter().enumerate() {
            assert_eq!(f.cols[0].str_at(row).unwrap(), s.as_deref());
        }
        let HostColumn::Shared(s) = &f.cols[0] else { panic!("compacted columns stay in place") };
        let Bat::Varchar { heap: own, .. } = s.view() else { panic!("varchar expected") };
        assert_eq!(own.size_bytes(), 1 + entries, "{sql}: the host holds only its strings");
        assert_eq!(r.value(0, 0), Value::Str(want[0].clone().unwrap()));
    }
}
