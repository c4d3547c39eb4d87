//! Plan/result cache hot-loop benchmarks: the query-as-a-service
//! pattern the caching tier targets — the same parameterized TPC-H
//! shapes issued over and over.
//!
//! Legs per shape:
//! * `cold` — both caches off: every iteration pays parse + bind +
//!   optimize + execute (the pre-cache behaviour).
//! * `plan_hit` — plan cache on, result cache off, a fresh date literal
//!   every iteration: the normalized template is replayed with new
//!   bindings, so only parse/bind/optimize are skipped and execution
//!   still runs.
//! * `hot` — both caches on, cycling a small set of parameter variants
//!   (Q5's region): steady state serves Arc-shared results without
//!   re-execution.
//!
//! The `cache_lru` group measures the caching tier itself on point
//! lookups over a 1024-row table, where execution is a few microseconds:
//! * `executed_full_{1,16,64}k` — a never-seen literal with the result
//!   cache held full at that many entries, so every statement is a plan
//!   hit, an execution, an insert and an eviction. The LRU is a recency
//!   list, so the three must be flat (the victim scan it replaced made
//!   them linear in the population).
//! * `hit_exact_repeat` / `hit_fresh_text` — a result hit for a text the
//!   statement memo knows, and for a new text (a trailing comment) of the
//!   same statement, which pays the parser and the normalizer first.
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_cache.json cargo bench --bench
//! cache` from the repository root to record results into the root's
//! copy (a relative path lands in `crates/bench/`, the bench's working
//! directory); CI runs `cargo bench --bench cache -- --test` as a smoke
//! check.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite::types::ColumnBuffer;
use monetlite_tpch::{generate, load_monet, queries};
use std::sync::atomic::Ordering;

const REGIONS: [&str; 5] = ["ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"];

fn opts(plan: bool, result: bool) -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 64 * 1024,
        use_plan_cache: plan,
        use_result_cache: result,
        ..Default::default()
    }
}

fn connect(db: &monetlite::Database, plan: bool, result: bool) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(opts(plan, result));
    conn
}

fn q5_region(region: &str) -> String {
    queries::sql(5).replace("'ASIA'", &format!("'{region}'"))
}

fn q5_date(i: usize) -> String {
    // 72 distinct dates: every iteration binds a literal the caches have
    // not seen, so the plan cache hits but the result cache cannot.
    let (y, m) = (1992 + i % 6, 1 + (i / 6) % 12);
    queries::sql(5).replace("1994-01-01", &format!("{y}-{m:02}-01"))
}

fn bench_cache(c: &mut Criterion) {
    let data = generate(0.05, 1);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    drop(load_conn);

    let mut g = c.benchmark_group("cache_hot_loop");
    g.sample_size(10);

    // Cold baseline: the identical variant cycle with caches disabled.
    let mut cold = connect(&db, false, false);
    let mut i = 0usize;
    g.bench_function("q5_variants_cold", |b| {
        b.iter(|| {
            let sql = q5_region(REGIONS[i % REGIONS.len()]);
            i += 1;
            cold.query(&sql).unwrap()
        })
    });

    // Plan-cache-only: fresh literals every iteration, execution runs.
    let mut plan_only = connect(&db, true, false);
    plan_only.query(&q5_date(0)).unwrap(); // prime the template
    plan_only.query(&q5_date(1)).unwrap();
    let counters = plan_only.last_exec_counters().unwrap();
    assert_eq!(counters.plan_cache_hits, 1, "leg must measure plan-cache hits");
    assert_eq!(counters.result_cache_hits, 0, "fresh literals must not hit the result cache");
    let mut i = 2usize;
    g.bench_function("q5_fresh_params_plan_hit", |b| {
        b.iter(|| {
            let sql = q5_date(i);
            i += 1;
            plan_only.query(&sql).unwrap()
        })
    });

    // Hot loop: both caches on, cycling the five region variants. After
    // one warm pass every iteration is a result hit.
    let mut hot = connect(&db, true, true);
    for r in REGIONS {
        hot.query(&q5_region(r)).unwrap();
    }
    hot.query(&q5_region(REGIONS[0])).unwrap();
    assert_eq!(
        hot.last_exec_counters().unwrap().result_cache_hits,
        1,
        "leg must measure result-cache hits"
    );
    let mut i = 1usize;
    g.bench_function("q5_variants_hot", |b| {
        b.iter(|| {
            let sql = q5_region(REGIONS[i % REGIONS.len()]);
            i += 1;
            hot.query(&sql).unwrap()
        })
    });

    // Tiny corpus: execution is nearly free, so the cold leg is
    // dominated by parse + bind + DPsize join ordering — the work a
    // plan-cache hit elides.
    let tiny_data = generate(0.001, 1);
    let tiny_db = monetlite::Database::open_in_memory();
    let mut tiny_load = tiny_db.connect();
    load_monet(&mut tiny_load, &tiny_data).unwrap();
    drop(tiny_load);
    let mut tiny_cold = connect(&tiny_db, false, false);
    let mut i = 0usize;
    g.bench_function("q5_tiny_cold", |b| {
        b.iter(|| {
            let sql = q5_date(i);
            i += 1;
            tiny_cold.query(&sql).unwrap()
        })
    });
    let mut tiny_plan = connect(&tiny_db, true, false);
    tiny_plan.query(&q5_date(0)).unwrap();
    let mut i = 1usize;
    g.bench_function("q5_tiny_plan_hit", |b| {
        b.iter(|| {
            let sql = q5_date(i);
            i += 1;
            tiny_plan.query(&sql).unwrap()
        })
    });
    g.finish();
}

/// A point lookup that returns one row for every `i >= 1` and shares its
/// text with no other `i`.
fn point(i: usize) -> String {
    format!("SELECT v FROM kv WHERE k = {} AND v > -{i}", i % 1024)
}

fn bench_cache_lru(c: &mut Criterion) {
    let db = monetlite::Database::open_in_memory();
    let mut load = db.connect();
    load.execute("CREATE TABLE kv (k INTEGER, v INTEGER)").unwrap();
    load.append(
        "kv",
        vec![
            ColumnBuffer::Int((0..1024).collect()),
            ColumnBuffer::Int((0..1024).map(|k| 2 * k).collect()),
        ],
    )
    .unwrap();
    drop(load);

    let mut g = c.benchmark_group("cache_lru");
    g.sample_size(10);

    // What one cached lookup accounts for, to turn an entry count into a
    // byte budget.
    let mut next = 1usize;
    let mut fresh = |conn: &mut monetlite::Connection| {
        next += 1;
        conn.query(&point(next)).unwrap()
    };
    let mut probe = connect(&db, true, true);
    for _ in 0..64 {
        fresh(&mut probe);
    }
    let per_entry = db.result_cache().bytes() / db.result_cache().len();

    for population in [1_000usize, 16_000, 64_000] {
        let mut conn = db.connect();
        conn.set_exec_options(ExecOptions {
            result_cache_bytes: per_entry * population,
            ..opts(true, true)
        });
        // Fill past the budget: from here on every insert evicts.
        let before = db.result_cache().evictions.load(Ordering::Relaxed);
        while db.result_cache().evictions.load(Ordering::Relaxed) < before + 64 {
            fresh(&mut conn);
        }
        let held = db.result_cache().len();
        assert!(
            held > population - population / 8 && held <= population,
            "cache holds {held} entries, wanted ~{population}"
        );
        g.bench_function(format!("executed_full_{}k", population / 1000), |b| {
            b.iter(|| fresh(&mut conn))
        });
        let counters = conn.last_exec_counters().unwrap();
        assert_eq!((counters.plan_cache_hits, counters.result_cache_hits), (1, 0));
    }

    let mut conn = connect(&db, true, true);
    conn.query(&point(7)).unwrap();
    g.bench_function("hit_exact_repeat", |b| b.iter(|| conn.query(&point(7)).unwrap()));
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    let mut i = 0usize;
    g.bench_function("hit_fresh_text", |b| {
        b.iter(|| {
            i += 1;
            conn.query(&format!("{} -- {i}", point(7))).unwrap()
        })
    });
    assert_eq!(conn.last_exec_counters().unwrap().result_cache_hits, 1);
    g.finish();
}

criterion_group!(benches, bench_cache, bench_cache_lru);
criterion_main!(benches);
