//! Join-ordering benchmarks: cost-based DP enumeration over real column
//! statistics versus the greedy baseline.
//!
//! Axes per query: `dp` (DPsize enumeration) vs `greedy` (the connected
//! greedy fallback, `OptFlags::join_dp = false`), each with real statistics
//! (`stats`) and without column statistics (`nostats` — the
//! pre-statistics constant-selectivity model). `greedy_nostats` is the
//! closest stand-in for the pre-statistics optimizer and the baseline
//! the acceptance criterion measures against.
//!
//! Shapes:
//! * `joinorder_star` — a fact table with four dimensions, two of them
//!   filtered; ordering decides whether the fact shrinks early or late.
//! * `joinorder_chain` — a four-relation chain whose selective link sits
//!   at the far end from the syntactically first table.
//! * `joinorder_tpch` — TPC-H Q5 / Q7 / Q8 / Q9 / Q21 at SF 0.05, the
//!   join-heavy queries the issue names.
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_joinorder.json cargo bench
//! --bench joinorder` from the repository root to record results into
//! the root's copy (a relative path lands in `crates/bench/`, the bench's
//! working directory); CI runs `cargo bench --bench joinorder -- --test`
//! as a smoke check.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite::opt::{OptFlags, StatsMode};
use monetlite_tpch::{generate, load_monet, queries};
use monetlite_types::ColumnBuffer;

fn exec_opts() -> ExecOptions {
    ExecOptions { threads: 1, vector_size: 64 * 1024, ..monetlite_bench::uncached_opts() }
}

const LEGS: [(&str, bool, StatsMode); 4] = [
    ("dp_stats", true, StatsMode::Real),
    ("dp_nostats", true, StatsMode::TableRowsOnly),
    ("greedy_stats", false, StatsMode::Real),
    ("greedy_nostats", false, StatsMode::TableRowsOnly),
];

fn connect(db: &monetlite::Database, dp: bool, mode: StatsMode) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(exec_opts());
    conn.set_opt_flags(OptFlags { join_dp: dp, ..OptFlags::default() });
    conn.set_stats_mode(mode);
    conn
}

fn bench_sql(c: &mut Criterion, group: &str, db: &monetlite::Database, cases: &[(&str, &str)]) {
    let mut grp = c.benchmark_group(group);
    grp.sample_size(10);
    for (case, sql) in cases {
        for (leg, dp, mode) in LEGS {
            let mut conn = connect(db, dp, mode);
            // Warm the statistics / index caches outside the timer.
            conn.query(sql).unwrap();
            grp.bench_function(format!("{case}_{leg}"), |b| b.iter(|| conn.query(sql).unwrap()));
        }
    }
    grp.finish();
}

/// Star: fact(600k) referencing dim_a(10k), dim_b(1k), dim_c(100,
/// filtered to ~2%), dim_d(10k wide-keyed, filtered to one value).
fn load_star() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(
        "CREATE TABLE fact (ka INT NOT NULL, kb INT NOT NULL, kc INT NOT NULL, kd INT NOT NULL, val INT NOT NULL);
         CREATE TABLE dim_a (id INT NOT NULL, attr INT NOT NULL);
         CREATE TABLE dim_b (id INT NOT NULL, attr INT NOT NULL);
         CREATE TABLE dim_c (id INT NOT NULL, attr INT NOT NULL);
         CREATE TABLE dim_d (id INT NOT NULL, attr INT NOT NULL);",
    )
    .unwrap();
    let n = 600_000;
    let scatter = |i: i32, m: i32| (i.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(m);
    conn.append(
        "fact",
        vec![
            ColumnBuffer::Int((0..n).map(|i| scatter(i, 10_000)).collect()),
            ColumnBuffer::Int((0..n).map(|i| scatter(i + 1, 1000)).collect()),
            ColumnBuffer::Int((0..n).map(|i| scatter(i + 2, 100)).collect()),
            ColumnBuffer::Int((0..n).map(|i| scatter(i + 3, 10_000)).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 97).collect()),
        ],
    )
    .unwrap();
    for (name, m, attr_mod) in [
        ("dim_a", 10_000, 1000),
        ("dim_b", 1000, 100),
        ("dim_c", 100, 50),
        ("dim_d", 10_000, 10_000),
    ] {
        conn.append(
            name,
            vec![
                ColumnBuffer::Int((0..m).collect()),
                ColumnBuffer::Int((0..m).map(|i| i % attr_mod).collect()),
            ],
        )
        .unwrap();
    }
    db
}

fn bench_star(c: &mut Criterion) {
    let db = load_star();
    bench_sql(
        c,
        "joinorder_star",
        &db,
        &[(
            "star4",
            "SELECT sum(fact.val) FROM fact, dim_a, dim_b, dim_c, dim_d \
             WHERE fact.ka = dim_a.id AND fact.kb = dim_b.id \
               AND fact.kc = dim_c.id AND fact.kd = dim_d.id \
               AND dim_c.attr = 7 AND dim_d.attr = 3",
        )],
    );
}

/// Chain: t1(200k) — t2(20k) — t3(2k) — t4(2k, filtered to one value);
/// the only selective predicate sits at the far end of the chain.
fn load_chain() -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(
        "CREATE TABLE t1 (k INT NOT NULL, val INT NOT NULL);
         CREATE TABLE t2 (id INT NOT NULL, k INT NOT NULL);
         CREATE TABLE t3 (id INT NOT NULL, k INT NOT NULL);
         CREATE TABLE t4 (id INT NOT NULL, attr INT NOT NULL);",
    )
    .unwrap();
    let scatter = |i: i32, m: i32| (i.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(m);
    conn.append(
        "t1",
        vec![
            ColumnBuffer::Int((0..200_000).map(|i| scatter(i, 20_000)).collect()),
            ColumnBuffer::Int((0..200_000).map(|i| i % 89).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "t2",
        vec![
            ColumnBuffer::Int((0..20_000).collect()),
            ColumnBuffer::Int((0..20_000).map(|i| scatter(i, 2000)).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "t3",
        vec![
            ColumnBuffer::Int((0..2000).collect()),
            ColumnBuffer::Int((0..2000).map(|i| scatter(i, 2000)).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "t4",
        vec![
            ColumnBuffer::Int((0..2000).collect()),
            ColumnBuffer::Int((0..2000).collect()), // unique attr: eq keeps 1 row
        ],
    )
    .unwrap();
    db
}

fn bench_chain(c: &mut Criterion) {
    let db = load_chain();
    bench_sql(
        c,
        "joinorder_chain",
        &db,
        &[(
            "chain4",
            "SELECT sum(t1.val) FROM t1, t2, t3, t4 \
             WHERE t1.k = t2.id AND t2.k = t3.id AND t3.k = t4.id \
               AND t4.attr = 42",
        )],
    );
}

fn bench_tpch(c: &mut Criterion) {
    let data = generate(0.05, 20260727);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    let cases: Vec<(&str, &str)> = [(5, "q05"), (7, "q07"), (8, "q08"), (9, "q09"), (21, "q21")]
        .into_iter()
        .map(|(n, label)| (label, queries::sql(n)))
        .collect();
    bench_sql(c, "joinorder_tpch", &db, &cases);
}

criterion_group!(benches, bench_star, bench_chain, bench_tpch);
criterion_main!(benches);
