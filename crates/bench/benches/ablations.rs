//! Criterion benches for the paper's design-choice ablations (the same
//! set as `repro`'s `ablations`): imprints, automatic hash indexes, order
//! index, heap dedup, transfer modes.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite::host::{HostFrame, TransferMode};
use monetlite_storage::heap::StringHeap;

fn bench_ablations(c: &mut Criterion) {
    let data = monetlite_tpch::generate(0.01, 1);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    monetlite_tpch::load_monet(&mut conn, &data).unwrap();

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // Imprints on/off for a selective range count.
    let q = "SELECT count(*) FROM lineitem WHERE l_shipdate >= date '1998-06-01'";
    for (name, on) in [("imprints_on", true), ("imprints_off", false)] {
        conn.set_exec_options(ExecOptions {
            use_imprints: on,
            use_order_index: false,
            ..monetlite_bench::uncached_opts()
        });
        conn.query(q).unwrap(); // warm (index build)
        g.bench_function(name, |b| b.iter(|| conn.query(q).unwrap()));
    }

    // Automatic join hash index on/off.
    let qj = "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey";
    for (name, on) in [("join_hash_index_on", true), ("join_hash_index_off", false)] {
        conn.set_exec_options(ExecOptions {
            use_hash_index: on,
            ..monetlite_bench::uncached_opts()
        });
        conn.query(qj).unwrap();
        g.bench_function(name, |b| b.iter(|| conn.query(qj).unwrap()));
    }

    // Transfer modes.
    conn.set_exec_options(monetlite_bench::uncached_opts());
    let r = conn.query("SELECT * FROM lineitem").unwrap();
    g.bench_function("export_zero_copy", |b| {
        b.iter(|| HostFrame::import(&r, TransferMode::ZeroCopy).stats.zero_copied)
    });
    g.bench_function("export_eager", |b| {
        b.iter(|| HostFrame::import(&r, TransferMode::Eager).stats.bytes_copied)
    });

    // Heap dedup.
    let values: Vec<String> = (0..100_000).map(|i| format!("v{}", i % 500)).collect();
    g.bench_function("heap_dedup_on", |b| {
        b.iter(|| {
            let mut h = StringHeap::new();
            for v in &values {
                h.add(v);
            }
            h.size_bytes()
        })
    });
    g.bench_function("heap_dedup_off", |b| {
        b.iter(|| {
            let mut h = StringHeap::with_dedup_limit(0);
            for v in &values {
                h.add(v);
            }
            h.size_bytes()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
