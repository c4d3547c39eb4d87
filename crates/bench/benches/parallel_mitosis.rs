//! Parallel-execution benches.
//!
//! * `fig2_mitosis` — the paper's Figure 2: the operator-at-a-time
//!   policy's mitosis on SELECT MEDIAN(SQRT(i*2)) FROM tbl
//!   (parallelizable prefix, blocking median).
//! * `pipeline` — the streaming policy's generalized morsel parallelism
//!   on a grouped aggregation, a shape mitosis cannot parallelise at all:
//!   the operator-at-a-time policy runs it single-threaded regardless of
//!   `threads`, the streaming policy scales with per-thread partial hash
//!   aggregation.
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_pipeline.json cargo bench
//! --bench parallel_mitosis` from the repository root to record results
//! into the root's copy (a relative path lands in `crates/bench/`, the
//! bench's working directory).

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::{ExecMode, ExecOptions};
use monetlite_types::ColumnBuffer;

fn bench_mitosis(c: &mut Criterion) {
    let n = 1_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE tbl (i INTEGER NOT NULL)").unwrap();
    conn.append("tbl", vec![ColumnBuffer::Int((0..n).map(|x| x % 65_536).collect())]).unwrap();
    let sql = "SELECT median(sqrt(i * 2)) FROM tbl";
    let mut g = c.benchmark_group("fig2_mitosis");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        conn.set_exec_options(ExecOptions {
            mode: ExecMode::Materialized,
            threads,
            vector_size: 16 * 1024,
            ..monetlite_bench::uncached_opts()
        });
        g.bench_function(format!("median_sqrt_{threads}threads"), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let n: i32 = 2_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE facts (g INTEGER NOT NULL, v INTEGER NOT NULL, d DOUBLE)").unwrap();
    conn.append(
        "facts",
        vec![
            ColumnBuffer::Int((0..n).map(|x| x % 1_000).collect()),
            ColumnBuffer::Int((0..n).map(|x| x % 10_000).collect()),
            ColumnBuffer::Double((0..n).map(|x| x as f64 * 0.5).collect()),
        ],
    )
    .unwrap();
    // Grouped aggregation over a filtered scan: outside the mitosis
    // parallelizable prefix, squarely inside morsel parallelism.
    let sql = "SELECT g, count(*), sum(v), avg(d) FROM facts WHERE v < 9000 GROUP BY g";
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);

    conn.set_exec_options(ExecOptions {
        mode: ExecMode::Materialized,
        ..monetlite_bench::uncached_opts()
    });
    g.bench_function("grouped_agg_materialized", |b| b.iter(|| conn.query(sql).unwrap()));
    for threads in [1usize, 2, 4, 8] {
        conn.set_exec_options(ExecOptions {
            mode: ExecMode::Streaming,
            threads,
            ..monetlite_bench::uncached_opts()
        });
        g.bench_function(format!("grouped_agg_streaming_{threads}threads"), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }

    // A join-probe pipeline: build on the small side, parallel probe.
    conn.execute("CREATE TABLE dim (g INTEGER NOT NULL, w INTEGER NOT NULL)").unwrap();
    conn.append(
        "dim",
        vec![
            ColumnBuffer::Int((0..1_000).collect()),
            ColumnBuffer::Int((0..1_000).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    let join_sql = "SELECT count(*), sum(w) FROM facts, dim WHERE facts.g = dim.g AND v < 5000";
    conn.set_exec_options(ExecOptions {
        mode: ExecMode::Materialized,
        ..monetlite_bench::uncached_opts()
    });
    g.bench_function("join_agg_materialized", |b| b.iter(|| conn.query(join_sql).unwrap()));
    for threads in [1usize, 4] {
        conn.set_exec_options(ExecOptions {
            mode: ExecMode::Streaming,
            threads,
            ..monetlite_bench::uncached_opts()
        });
        g.bench_function(format!("join_agg_streaming_{threads}threads"), |b| {
            b.iter(|| conn.query(join_sql).unwrap())
        });
    }

    // Limit early-exit: the materialized engine scans and filters all 2M
    // rows before slicing; the streaming engine stops after the first
    // few morsels — a structural win independent of core count.
    let limit_sql = "SELECT g, v FROM facts WHERE v < 5000 LIMIT 100";
    conn.set_exec_options(ExecOptions {
        mode: ExecMode::Materialized,
        ..monetlite_bench::uncached_opts()
    });
    g.bench_function("limit_scan_materialized", |b| b.iter(|| conn.query(limit_sql).unwrap()));
    conn.set_exec_options(ExecOptions {
        mode: ExecMode::Streaming,
        ..monetlite_bench::uncached_opts()
    });
    g.bench_function("limit_scan_streaming", |b| b.iter(|| conn.query(limit_sql).unwrap()));
    g.finish();
}

criterion_group!(benches, bench_mitosis, bench_pipeline);
criterion_main!(benches);
