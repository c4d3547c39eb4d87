//! # monetlite-tpch
//!
//! The TPC-H substrate of the paper's §4.2 evaluation: a deterministic
//! `dbgen` equivalent ([`gen`]), the schema DDL and Q1–Q10 SQL
//! ([`queries`]), hand-optimised dataframe-library implementations of the
//! same queries ([`frames`]), and loaders into both database engines.

#![forbid(unsafe_code)]

pub mod frames;
pub mod gen;
pub mod queries;

pub use gen::{generate, Table, TpchData};

use monetlite_types::{Result, Value};

/// Load the dataset into a `monetlite` connection through the bulk append
/// API (`dbWriteTable`'s fast path).
pub fn load_monet(conn: &mut monetlite::Connection, data: &TpchData) -> Result<()> {
    conn.run_script(queries::DDL)?;
    for t in data.tables() {
        conn.append(t.name, &t.cols)?;
    }
    Ok(())
}

/// Load the dataset into a row store through its programmatic insert path
/// (rows materialised one at a time — the row-store ingest cost).
pub fn load_rowdb(db: &monetlite_rowstore::RowDb, data: &TpchData) -> Result<()> {
    db.run_script(queries::DDL)?;
    for t in data.tables() {
        let rows: Vec<Vec<Value>> =
            (0..t.rows()).map(|r| t.cols.iter().map(|c| c.get(r)).collect()).collect();
        db.insert_rows(t.name, rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_into_both_engines_and_counts_agree() {
        let data = generate(0.001, 99);
        let db = monetlite::Database::open_in_memory();
        let mut conn = db.connect();
        load_monet(&mut conn, &data).unwrap();
        let rdb = monetlite_rowstore::RowDb::in_memory();
        load_rowdb(&rdb, &data).unwrap();
        for t in data.tables() {
            let q = format!("SELECT count(*) FROM {}", t.name);
            let m = conn.query(&q).unwrap().value(0, 0);
            let r = rdb.query(&q).unwrap().rows[0][0].clone();
            assert_eq!(m, Value::Bigint(t.rows() as i64), "{} monet", t.name);
            assert_eq!(r, Value::Bigint(t.rows() as i64), "{} rowdb", t.name);
        }
    }
}
