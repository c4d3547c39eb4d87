//! Criterion bench for Figure 5 (data ingestion): embedded bulk append vs
//! row-at-a-time insert vs per-INSERT over the socket.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite_bench::lineitem_buffers;
use monetlite_netsim::{RemoteClient, Server, ServerEngine};
use monetlite_rowstore::RowDb;
use monetlite_types::Value;

fn bench_ingestion(c: &mut Criterion) {
    let data = monetlite_tpch::generate(0.002, 1);
    let (schema, cols) = lineitem_buffers(&data);
    let ddl = {
        let coldefs: Vec<String> =
            schema.fields().iter().map(|f| format!("{} {}", f.name, f.ty)).collect();
        format!("CREATE TABLE lineitem ({})", coldefs.join(", "))
    };
    let mut g = c.benchmark_group("fig5_ingestion");
    g.sample_size(10);
    g.bench_function("monetlite_append", |b| {
        b.iter(|| {
            let db = monetlite::Database::open_in_memory();
            let mut conn = db.connect();
            conn.execute(&ddl).unwrap();
            conn.append("lineitem", &cols).unwrap();
        })
    });
    g.bench_function("rowstore_insert", |b| {
        let rows: Vec<Vec<Value>> =
            (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
        b.iter(|| {
            let db = RowDb::in_memory();
            db.execute(&ddl).unwrap();
            db.insert_rows("lineitem", rows.clone()).unwrap();
        })
    });
    g.bench_function("socket_insert_statements", |b| {
        b.iter(|| {
            let server = Server::start(ServerEngine::Row(RowDb::in_memory())).unwrap();
            let mut client = RemoteClient::connect(server.port()).unwrap();
            client.write_table("lineitem", &schema, &cols).unwrap();
            client.close();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ingestion);
criterion_main!(benches);
