//! Criterion bench for Figures 7/8: ACS load + survey statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite_bench::{MonetSource, RowSource};
use monetlite_types::Value;

fn bench_acs(c: &mut Criterion) {
    let rows = 5_000;
    let d = monetlite_acs::wrangle(monetlite_acs::generate(rows, 1)).unwrap();

    let mut g = c.benchmark_group("acs");
    g.sample_size(10);
    g.bench_function("fig7_load_monetlite", |b| {
        b.iter(|| {
            let db = monetlite::Database::open_in_memory();
            let mut conn = db.connect();
            conn.execute(&monetlite_acs::ddl(&d)).unwrap();
            conn.append("acs", &d.cols).unwrap();
        })
    });
    g.bench_function("fig7_load_rowstore", |b| {
        let rows: Vec<Vec<Value>> =
            (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
        b.iter(|| {
            let db = monetlite_rowstore::RowDb::in_memory();
            db.execute(&monetlite_acs::ddl(&d)).unwrap();
            db.insert_rows("acs", rows.clone()).unwrap();
        })
    });

    let db = monetlite::Database::open_in_memory();
    // Caches off: each iteration re-issues the same survey queries.
    let mut conn = monetlite_bench::uncached_conn(&db);
    conn.execute(&monetlite_acs::ddl(&d)).unwrap();
    conn.append("acs", &d.cols).unwrap();
    g.bench_function("fig8_stats_monetlite", |b| {
        b.iter(|| {
            let mut src = MonetSource { conn: &mut conn };
            monetlite_acs::survey::analysis(&mut src).unwrap()
        })
    });
    let rdb = monetlite_rowstore::RowDb::in_memory();
    rdb.execute(&monetlite_acs::ddl(&d)).unwrap();
    let rws: Vec<Vec<Value>> =
        (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
    rdb.insert_rows("acs", rws).unwrap();
    g.bench_function("fig8_stats_rowstore", |b| {
        b.iter(|| {
            let mut src = RowSource { db: &rdb };
            monetlite_acs::survey::analysis(&mut src).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_acs);
criterion_main!(benches);
