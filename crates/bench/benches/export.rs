//! Criterion bench for Figure 6 (data export): zero-copy in-process vs
//! row-major conversion vs socket transfer.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::host::{HostFrame, TransferMode};
use monetlite_bench::lineitem_buffers;
use monetlite_netsim::{RemoteClient, Server, ServerEngine};
use monetlite_rowstore::RowDb;
use monetlite_types::{ColumnBuffer, Value};

fn bench_export(c: &mut Criterion) {
    let data = monetlite_tpch::generate(0.002, 1);
    let (schema, cols) = lineitem_buffers(&data);
    let coldefs: Vec<String> =
        schema.fields().iter().map(|f| format!("{} {}", f.name, f.ty)).collect();
    let ddl = format!("CREATE TABLE lineitem ({})", coldefs.join(", "));

    let mut g = c.benchmark_group("fig6_export");
    g.sample_size(10);

    let db = monetlite::Database::open_in_memory();
    // Caches off: each iteration re-issues the same SELECT.
    let mut conn = monetlite_bench::uncached_conn(&db);
    conn.execute(&ddl).unwrap();
    conn.append("lineitem", &cols).unwrap();
    g.bench_function("monetlite_zero_copy", |b| {
        b.iter(|| {
            let r = conn.query("SELECT * FROM lineitem").unwrap();
            let f = HostFrame::import(&r, TransferMode::ZeroCopy);
            std::hint::black_box(f.rows);
        })
    });

    let rdb = RowDb::in_memory();
    rdb.execute(&ddl).unwrap();
    let rows: Vec<Vec<Value>> =
        (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
    rdb.insert_rows("lineitem", rows).unwrap();
    g.bench_function("rowstore_row_to_column", |b| {
        b.iter(|| {
            let r = rdb.read_table("lineitem").unwrap();
            let mut bufs: Vec<ColumnBuffer> =
                r.types.iter().map(|&t| ColumnBuffer::with_capacity(t, r.rows.len())).collect();
            for row in &r.rows {
                for (bf, v) in bufs.iter_mut().zip(row) {
                    bf.push(v).unwrap();
                }
            }
            std::hint::black_box(bufs.len());
        })
    });

    let db2 = monetlite_bench::uncached_db();
    let mut conn2 = db2.connect();
    conn2.execute(&ddl).unwrap();
    conn2.append("lineitem", &cols).unwrap();
    drop(conn2);
    let server = Server::start(ServerEngine::Monet(db2)).unwrap();
    let mut client = RemoteClient::connect(server.port()).unwrap();
    g.bench_function("socket_text_protocol", |b| {
        b.iter(|| {
            let (_, bufs) = client.read_table("lineitem").unwrap();
            std::hint::black_box(bufs.len());
        })
    });
    g.finish();
}

criterion_group!(benches, bench_export);
criterion_main!(benches);
