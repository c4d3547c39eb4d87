//! Figure 1 in code: the same engine embedded (c) versus behind a socket
//! (a), showing why in-process transfer wins by an order of magnitude.
//!
//! ```sh
//! cargo run --release -p monetlite-examples --example client_server
//! ```

use monetlite::host::{HostFrame, TransferMode};
use monetlite::Database;
use monetlite_netsim::{RemoteClient, Server, ServerEngine};
use monetlite_types::ColumnBuffer;
use std::time::Instant;

fn main() -> monetlite::types::Result<()> {
    let n = 200_000;
    let cols = vec![
        ColumnBuffer::Int((0..n).collect()),
        ColumnBuffer::Double((0..n).map(|x| x as f64).collect()),
    ];
    let ddl = "CREATE TABLE t (a INTEGER NOT NULL, b DOUBLE)";

    // Embedded.
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute(ddl)?;
    conn.append("t", &cols)?;
    let t0 = Instant::now();
    let r = conn.query("SELECT * FROM t")?;
    let frame = HostFrame::import(&r, TransferMode::ZeroCopy);
    let embedded = t0.elapsed();
    println!(
        "embedded:  {} rows in {embedded:?} (zero-copy: {} cols)",
        frame.rows, frame.stats.zero_copied
    );

    // Same engine behind a TCP socket with a row-wise text protocol.
    let db2 = Database::open_in_memory();
    let mut c2 = db2.connect();
    c2.execute(ddl)?;
    c2.append("t", cols)?;
    drop(c2);
    let server = Server::start(ServerEngine::Monet(db2))?;
    let mut client = RemoteClient::connect(server.port())?;
    let t0 = Instant::now();
    let (_, bufs) = client.read_table("t")?;
    let socket = t0.elapsed();
    println!(
        "socket:    {} rows in {socket:?} ({} protocol bytes received)",
        bufs[0].len(),
        client.bytes_received
    );
    println!(
        "socket / embedded transfer ratio: {:.1}x",
        socket.as_secs_f64() / embedded.as_secs_f64().max(1e-9)
    );
    client.close();
    Ok(())
}
