//! Out-of-core execution benches: pipeline breakers under a constrained
//! memory budget versus the unbounded in-memory path.
//!
//! * `spill_agg` — grouped aggregation with ~100k distinct groups, run
//!   unbounded and under two budgets, the smaller one spilling over a
//!   wider fan-out.
//! * `spill_join` — a hash join whose transient build side exceeds the
//!   budget (grace join: both sides partitioned to disk).
//! * `spill_sort` — ORDER BY over a wide value range (external merge
//!   sort: sorted runs + k-way merge).
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_spill.json cargo bench --bench
//! spill` from the repository root to record results into the root's
//! copy (a relative path lands in `crates/bench/`, the bench's working
//! directory).

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_types::ColumnBuffer;

const UNBOUNDED: usize = usize::MAX;

fn opts(budget: usize) -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 16 * 1024,
        memory_budget: budget,
        ..monetlite_bench::uncached_opts()
    }
}

fn budget_label(budget: usize) -> String {
    if budget == UNBOUNDED {
        "unbounded".into()
    } else {
        format!("{}kB", budget / 1024)
    }
}

fn bench_spill_agg(c: &mut Criterion) {
    let n: i32 = 1_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE facts (g INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
    conn.append(
        "facts",
        vec![
            ColumnBuffer::Int((0..n).map(|x| x % 100_000).collect()),
            ColumnBuffer::Int((0..n).collect()),
        ],
    )
    .unwrap();
    let sql = "SELECT g, count(*), sum(v) FROM facts GROUP BY g ORDER BY g LIMIT 5";
    let mut grp = c.benchmark_group("spill_agg");
    grp.sample_size(10);
    for budget in [UNBOUNDED, 4 << 20, 512 << 10] {
        conn.set_exec_options(opts(budget));
        grp.bench_function(format!("groupby_100k_groups_{}", budget_label(budget)), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    grp.finish();
}

fn bench_spill_join(c: &mut Criterion) {
    let nprobe: i32 = 1_000_000;
    let nbuild: i32 = 200_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE probe (k INTEGER NOT NULL)").unwrap();
    conn.execute("CREATE TABLE build (k INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
    conn.append("probe", vec![ColumnBuffer::Int((0..nprobe).map(|x| x % 400_000).collect())])
        .unwrap();
    conn.append(
        "build",
        vec![
            ColumnBuffer::Int((0..nbuild).collect()),
            ColumnBuffer::Int((0..nbuild).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    // The build-side filter keeps the build transient (no automatic hash
    // index), which is the spillable shape.
    let sql = "SELECT count(*), sum(b.v) FROM probe p, build b WHERE p.k = b.k AND b.v >= 0";
    let mut grp = c.benchmark_group("spill_join");
    grp.sample_size(10);
    for budget in [UNBOUNDED, 1 << 20] {
        conn.set_exec_options(opts(budget));
        grp.bench_function(format!("hash_join_200k_build_{}", budget_label(budget)), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    grp.finish();
}

fn bench_spill_sort(c: &mut Criterion) {
    let n: i32 = 1_000_000;
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE seq (a INTEGER NOT NULL, b INTEGER NOT NULL)").unwrap();
    conn.append(
        "seq",
        vec![
            ColumnBuffer::Int(
                (0..n)
                    .map(|x| (x.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(1_000_000))
                    .collect(),
            ),
            ColumnBuffer::Int((0..n).collect()),
        ],
    )
    .unwrap();
    // No LIMIT: ORDER BY + LIMIT fuses into top-n (per-morsel compaction
    // already bounds its memory); the full sort is the spillable breaker.
    let sql = "SELECT a, b FROM seq ORDER BY a";
    let mut grp = c.benchmark_group("spill_sort");
    grp.sample_size(10);
    for budget in [UNBOUNDED, 2 << 20] {
        conn.set_exec_options(opts(budget));
        grp.bench_function(format!("order_by_1m_rows_{}", budget_label(budget)), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_spill_agg, bench_spill_join, bench_spill_sort);
criterion_main!(benches);
