//! Quickstart: the embedded database in five minutes.
//!
//! ```sh
//! cargo run --release -p monetlite-examples --example quickstart
//! ```

use monetlite::host::{HostFrame, TransferMode};
use monetlite::Database;

fn main() -> monetlite::types::Result<()> {
    // No server, no config, no dependencies: open an in-memory database
    // (pass a directory to Database::open for persistence).
    let db = Database::open_in_memory();
    let mut conn = db.connect();

    conn.run_script(
        "CREATE TABLE weather (city VARCHAR(20) NOT NULL, day DATE, temp_c DOUBLE);
         INSERT INTO weather VALUES
            ('Amsterdam', date '2018-10-22', 12.5),
            ('Amsterdam', date '2018-10-23', 11.0),
            ('Turin',     date '2018-10-22', 19.5),
            ('Turin',     date '2018-10-23', 21.0),
            ('Turin',     date '2018-10-24', NULL);",
    )?;

    let result = conn.query(
        "SELECT city, count(*) AS days, avg(temp_c) AS avg_temp
         FROM weather
         WHERE temp_c IS NOT NULL
         GROUP BY city
         ORDER BY avg_temp DESC",
    )?;
    println!("{:?}", result.names());
    for r in 0..result.nrows() {
        println!("{:?}", result.row(r));
    }

    // Zero-copy transfer into the "analytical environment": every column,
    // strings included, is shared, not copied (paper §3.3).
    let all = conn.query("SELECT * FROM weather")?;
    let frame = HostFrame::import(&all, TransferMode::ZeroCopy);
    println!(
        "host import: {} columns shared zero-copy, {} converted, {} bytes copied",
        frame.stats.zero_copied, frame.stats.converted, frame.stats.bytes_copied
    );

    // Explicit transactions with optimistic concurrency control.
    conn.execute("BEGIN")?;
    conn.execute("UPDATE weather SET temp_c = temp_c + 1.0 WHERE city = 'Turin'")?;
    conn.execute("COMMIT")?;
    let check =
        conn.query("SELECT temp_c FROM weather WHERE day = date '2018-10-23' AND city = 'Turin'")?;
    println!("after update: {:?}", check.value(0, 0));
    Ok(())
}
