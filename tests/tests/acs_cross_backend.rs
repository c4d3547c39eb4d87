//! The ACS survey statistics must be identical regardless of which
//! backend exported the columns (Figure 8's premise: the engines differ
//! in export cost, not in answers).

use monetlite_acs::survey::{self, BufferSource, ColumnSource};
use monetlite_types::{ColumnBuffer, Result};

struct MonetBacked {
    conn: monetlite::Connection,
}

impl ColumnSource for MonetBacked {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let r = self.conn.query(&format!("SELECT {} FROM acs", names.join(", ")))?;
        Ok(r.to_buffers())
    }
}

struct RowBacked {
    db: monetlite_rowstore::RowDb,
}

impl ColumnSource for RowBacked {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let r = self.db.query(&format!("SELECT {} FROM acs", names.join(", ")))?;
        let mut bufs: Vec<ColumnBuffer> =
            r.types.iter().map(|&t| ColumnBuffer::with_capacity(t, r.rows.len())).collect();
        for row in &r.rows {
            for (b, v) in bufs.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Ok(bufs)
    }
}

#[test]
fn statistics_identical_across_backends() {
    let d = monetlite_acs::wrangle(monetlite_acs::generate(800, 4)).unwrap();

    // Reference: direct in-memory buffers.
    let mut direct = BufferSource::from_data(&d);
    let expect = survey::analysis(&mut direct).unwrap();

    // Through the columnar engine.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute(&monetlite_acs::ddl(&d)).unwrap();
    conn.append("acs", &d.cols).unwrap();
    let mut monet = MonetBacked { conn };
    let got_m = survey::analysis(&mut monet).unwrap();

    // Through the row store.
    let rdb = monetlite_rowstore::RowDb::in_memory();
    rdb.execute(&monetlite_acs::ddl(&d)).unwrap();
    let rows: Vec<Vec<monetlite_types::Value>> =
        (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
    rdb.insert_rows("acs", rows).unwrap();
    let mut rowb = RowBacked { db: rdb };
    let got_r = survey::analysis(&mut rowb).unwrap();

    assert_eq!(expect.len(), got_m.len());
    assert_eq!(expect.len(), got_r.len());
    for ((le, ee), (lm, em)) in expect.iter().zip(&got_m) {
        assert_eq!(le, lm);
        assert!((ee.value - em.value).abs() <= 1e-6 * ee.value.abs().max(1.0), "{le}");
        assert!((ee.se - em.se).abs() <= 1e-6 * ee.se.abs().max(1.0), "{le} SE");
    }
    for ((le, ee), (lr, er)) in expect.iter().zip(&got_r) {
        assert_eq!(le, lr);
        assert!((ee.value - er.value).abs() <= 1e-6 * ee.value.abs().max(1.0), "{le}");
    }
}
