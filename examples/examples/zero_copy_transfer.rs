//! The three result-transfer modes of §3.3 side by side: zero-copy with
//! copy-on-write, eager conversion, and lazy conversion. The run asserts
//! the paper's headline property — a zero-copy import copies no byte,
//! strings included, and a host write never reaches the database — so it
//! doubles as a check.
//!
//! ```sh
//! cargo run --release -p monetlite-examples --example zero_copy_transfer
//! ```

use monetlite::host::{HostColumn, HostFrame, TransferMode};
use monetlite::storage::Bat;
use monetlite::Database;
use monetlite_types::{ColumnBuffer, Value};
use std::time::Instant;

fn main() -> monetlite::types::Result<()> {
    let n = 200_000;
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE big (a INTEGER NOT NULL, b DOUBLE, c VARCHAR(20))")?;
    conn.append(
        "big",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Double((0..n).map(|x| x as f64 / 3.0).collect()),
            ColumnBuffer::Varchar((0..n).map(|x| Some(format!("s{}", x % 100))).collect()),
        ],
    )?;
    let r = conn.query("SELECT * FROM big")?;

    for mode in [TransferMode::ZeroCopy, TransferMode::Eager, TransferMode::Lazy] {
        let t0 = Instant::now();
        let frame = HostFrame::import(&r, mode);
        println!(
            "{mode:?}: {:?} (shared {} / converted {} / deferred {}, {} bytes copied)",
            t0.elapsed(),
            frame.stats.zero_copied,
            frame.stats.converted,
            frame.stats.deferred,
            frame.stats.bytes_copied
        );
    }

    // Zero copy, strings included: the host reads the VARCHAR column as
    // `&str` straight out of the engine's heap, without a String per row.
    let mut frame = HostFrame::import(&r, TransferMode::ZeroCopy);
    assert_eq!(frame.stats.zero_copied, 3, "every column is shared");
    assert_eq!(frame.stats.bytes_copied, 0, "a zero-copy import copies nothing");
    let c = frame.col("c").expect("column c");
    let mut chars = 0;
    for row in 0..c.len() {
        chars += c.str_at(row)?.map_or(0, str::len);
    }
    println!("host read {chars} bytes of strings in place");

    // Copy-on-write: the host may mutate its view; the database data is
    // never touched (the paper used mprotect — here the type system).
    if let HostColumn::Shared(s) = frame.col_mut(0) {
        println!("before write: shared={}", s.is_shared());
        if let Bat::Int(v) = s.make_mut() {
            v[0] = -1;
        }
        println!("after write:  shared={}", s.is_shared());
    }
    if let HostColumn::Shared(s) = frame.col_mut(2) {
        if let Bat::Varchar { offsets, heap } = s.make_mut() {
            offsets[0] = heap.add("written by the host");
        }
    }
    println!("host sees {:?}, database still has {:?}", frame.cols[0].get(0), r.value(0, 0));
    assert_eq!(frame.cow_count(), 2);
    assert_eq!(frame.cols[0].get(0), Value::Int(-1));
    assert_eq!(frame.cols[2].str_at(0)?, Some("written by the host"));
    let again = conn.query("SELECT a, c FROM big WHERE a = 0")?;
    assert_eq!(again.row(0), vec![Value::Int(0), Value::Str("s0".into())]);
    assert_eq!((r.value(0, 0), r.value(0, 2)), (Value::Int(0), Value::Str("s0".into())));

    // Lazy conversion: pay only for the columns actually touched.
    let frame = HostFrame::import(&r, TransferMode::Lazy);
    let t0 = Instant::now();
    let _ = frame.cols[0].get(123);
    println!(
        "lazy touch of one column: {:?}, conversions performed: {}",
        t0.elapsed(),
        frame.lazy_conversions()
    );
    assert_eq!(frame.lazy_conversions(), 1);
    Ok(())
}
