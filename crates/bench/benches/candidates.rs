//! Candidate-list execution microbenchmarks: selective filter → aggregate
//! with selection pass-through, zonemap skipping on versus off
//! (`use_zonemaps`). Both sides carry candidate lists.
//!
//! Two data layouts at selectivities 0.1% / 1% / 10% / 90%:
//!
//! * `candidates_clustered` — the filter key is ingest-ordered (a
//!   date-clustered fact table). Zonemaps prove most vectors empty before
//!   any kernel runs, and the surviving vectors ride their candidate
//!   lists into the aggregate.
//! * `candidates_scattered` — the key is scattered, so zonemaps cannot
//!   skip anything; the two sides should agree within noise (the cost of
//!   probing zonemaps that never skip).
//!
//! Imprints and order indexes are disabled for both sides so the
//! comparison isolates the zonemaps. The 90% case exercises the density
//! cutoff: a filter that keeps almost everything gathers at the scan.
//!
//! Run with `MONETLITE_BENCH_JSON=out.json cargo bench --bench
//! candidates` to record results; CI runs `cargo bench --bench
//! candidates -- --test` as a smoke check. `BENCH_candidates.json` was
//! recorded against a gather-at-the-filter baseline that no longer
//! exists; its `baseline` rows are not reproducible with this bench.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_types::ColumnBuffer;

const N: i32 = 1_000_000;

fn opts(zonemaps: bool) -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 64 * 1024,
        use_imprints: false,
        use_order_index: false,
        use_zonemaps: zonemaps,
        ..monetlite_bench::uncached_opts()
    }
}

fn label(zonemaps: bool) -> &'static str {
    if zonemaps {
        "zonemaps"
    } else {
        "no_zonemaps"
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

fn bench_layout(c: &mut Criterion, group: &str, clustered: bool) {
    let db = load(clustered);
    let mut conn = db.connect();
    let mut grp = c.benchmark_group(group);
    grp.sample_size(10);
    // Selectivity → filter bound over k ∈ [0, N).
    for (sel_label, bound) in
        [("0.1pct", N / 1000), ("1pct", N / 100), ("10pct", N / 10), ("90pct", N / 10 * 9)]
    {
        let sql = format!("SELECT sum(v), sum(w), count(*) FROM facts WHERE k < {bound}");
        for zonemaps in [false, true] {
            conn.set_exec_options(opts(zonemaps));
            grp.bench_function(format!("filter_agg_{sel_label}_{}", label(zonemaps)), |b| {
                b.iter(|| conn.query(&sql).unwrap())
            });
        }
    }
    grp.finish();
}

fn bench_clustered(c: &mut Criterion) {
    bench_layout(c, "candidates_clustered", true);
}

fn bench_scattered(c: &mut Criterion) {
    bench_layout(c, "candidates_scattered", false);
}

criterion_group!(benches, bench_clustered, bench_scattered);
criterion_main!(benches);
