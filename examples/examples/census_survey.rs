//! The paper's §4.3 scenario: a 274-column census table stored in the
//! embedded database, analysed with replicate-weight survey statistics.
//!
//! ```sh
//! cargo run --release -p monetlite-examples --example census_survey
//! ```

use monetlite::host::{HostFrame, TransferMode};
use monetlite::Database;
use monetlite_acs::survey::{self, ColumnSource};
use monetlite_types::{ColumnBuffer, Result};
use std::time::Instant;

struct Conn<'a>(&'a mut monetlite::Connection);

impl ColumnSource for Conn<'_> {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let r = self.0.query(&format!("SELECT {} FROM acs", names.join(", ")))?;
        let frame = HostFrame::import(&r, TransferMode::ZeroCopy);
        Ok(frame.cols.iter().map(|c| c.native()).collect())
    }
}

fn main() -> Result<()> {
    let rows = 30_000;
    println!("generating {rows} census person records (274 columns)...");
    let data = monetlite_acs::wrangle(monetlite_acs::generate(rows, 7))?;

    let db = Database::open_in_memory();
    let mut conn = db.connect();
    let t0 = Instant::now();
    conn.execute(&monetlite_acs::ddl(&data))?;
    conn.append("acs", &data.cols)?;
    println!("loaded into the database in {:?}", t0.elapsed());

    let t0 = Instant::now();
    let mut src = Conn(&mut conn);
    let stats = survey::analysis(&mut src)?;
    println!("survey statistics ({:?}):", t0.elapsed());
    for (label, est) in stats {
        println!("  {label:<22} {:>16.1} (SE {:.1})", est.value, est.se);
    }
    Ok(())
}
