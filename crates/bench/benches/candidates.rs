//! Candidate-list execution microbenchmarks: selective filter → aggregate
//! with selection pass-through and zonemap skipping, over two layouts of
//! the filter key at each selectivity (0.1% / 1% / 10% / 90%):
//!
//! * `clustered` — the filter key is ingest-ordered (a date-clustered
//!   fact table). Zonemaps prove most vectors empty before any kernel
//!   runs, and the surviving vectors ride their candidate lists into the
//!   aggregate.
//! * `scattered` — the key is scattered, so zonemaps cannot skip
//!   anything: every vector runs the filter kernel, and the gap to
//!   `clustered` is what zone skipping buys.
//!
//! Imprints and order indexes are disabled so the comparison isolates
//! the zonemaps. The 90% case exercises the density cutoff: a filter
//! that keeps almost everything gathers at the scan.
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_candidates.json cargo bench
//! --bench candidates` from the repository root to record results into
//! the root's copy (a relative path lands in `crates/bench/`, the bench's
//! working directory); CI runs `cargo bench --bench candidates --
//! --test` as a smoke check. The committed `BENCH_candidates.json` was
//! recorded against a gather-at-the-filter baseline that no longer
//! exists; its rows are not reproducible with this bench, and a new
//! record replaces them.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_types::ColumnBuffer;

const N: i32 = 1_000_000;

fn opts() -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 64 * 1024,
        use_imprints: false,
        use_order_index: false,
        ..monetlite_bench::uncached_opts()
    }
}

/// facts(k, v, w): `k` drives the filter (clustered or scattered), `v`
/// and `w` are payload columns the aggregate touches.
fn load(clustered: bool) -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE facts (k INTEGER NOT NULL, v INTEGER NOT NULL, w INTEGER NOT NULL)")
        .unwrap();
    let k: Vec<i32> = if clustered {
        (0..N).collect()
    } else {
        // Multiplicative scatter: every zone spans nearly the full domain.
        (0..N).map(|i| (i.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(N)).collect()
    };
    conn.append(
        "facts",
        vec![
            ColumnBuffer::Int(k),
            ColumnBuffer::Int((0..N).map(|i| i % 10_000).collect()),
            ColumnBuffer::Int((0..N).map(|i| i % 97).collect()),
        ],
    )
    .unwrap();
    db
}

fn bench_layouts(c: &mut Criterion) {
    let layouts = [("clustered", load(true)), ("scattered", load(false))];
    let mut conns: Vec<_> = layouts
        .iter()
        .map(|(name, db)| {
            let mut conn = db.connect();
            conn.set_exec_options(opts());
            (*name, conn)
        })
        .collect();
    let mut grp = c.benchmark_group("candidates");
    grp.sample_size(10);
    // Selectivity → filter bound over k ∈ [0, N).
    for (sel_label, bound) in
        [("0.1pct", N / 1000), ("1pct", N / 100), ("10pct", N / 10), ("90pct", N / 10 * 9)]
    {
        let sql = format!("SELECT sum(v), sum(w), count(*) FROM facts WHERE k < {bound}");
        for (layout, conn) in &mut conns {
            grp.bench_function(format!("filter_agg_{sel_label}_{layout}"), |b| {
                b.iter(|| conn.query(&sql).unwrap())
            });
        }
    }
    grp.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
