//! String-execution benchmarks: dictionary-encoded VARCHAR execution
//! (predicates compiled to code ranges/bitmaps, zone skipping on codes,
//! group-by over codes, join bloom pushdown) versus the plain
//! string-kernel baseline (`ExecOptions::use_dict = false`).
//!
//! Microbenchmark axes, each dict vs nodict:
//!
//! * `strings_clustered` — 1M rows, 24 categories ingested in category
//!   order (the clustered fact-table shape). Equality / LIKE-prefix /
//!   range predicates compile to code ranges and skip whole morsels by
//!   code zone bounds; group-by runs over dense `u32` codes.
//! * `strings_highndv` — 1M rows, ~262k distinct keys, scattered. No
//!   zones can be skipped and bitmap-shaped plans fall back to the
//!   string kernel, so this bounds the overhead of the dict path where
//!   it cannot win.
//! * `strings_join` — a selectively filtered dimension joined to the
//!   fact on its string key: the build side's bloom filter prunes fact
//!   rows at the scan, before they enter the pipeline (hash index off so
//!   the hash-join path under measurement is the one that runs).
//!
//! Plus the string-heavy TPC-H queries the issue names — Q2 (MIN
//! subquery + multi-way dimension join), Q9 (LIKE over part + 6-way
//! join), Q16 (NOT LIKE, COUNT DISTINCT group-by over brand/type/size)
//! — at SF 0.02, both legs.
//!
//! Run `MONETLITE_BENCH_JSON=$PWD/BENCH_strings.json cargo bench
//! --bench strings` from the repository root to record results into the
//! root's copy (a relative path lands in `crates/bench/`, the bench's
//! working directory); CI runs `cargo bench --bench strings -- --test`
//! as a smoke check.

use criterion::{criterion_group, criterion_main, Criterion};
use monetlite::exec::ExecOptions;
use monetlite_tpch::{generate, load_monet, queries};
use monetlite_types::ColumnBuffer;

const N: i32 = 1_000_000;

fn opts(dict: bool) -> ExecOptions {
    ExecOptions {
        threads: 1,
        vector_size: 64 * 1024,
        use_hash_index: false,
        use_dict: dict,
        ..monetlite_bench::uncached_opts()
    }
}

fn label(dict: bool) -> &'static str {
    if dict {
        "dict"
    } else {
        "nodict"
    }
}

/// facts(name, v): `name` is the string filter/group key, `v` a payload
/// the aggregates touch. Clustered = long runs of each category (24
/// categories); high-NDV = ~262k distinct keys, scattered.
fn load(clustered: bool) -> monetlite::Database {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE facts (name VARCHAR(32) NOT NULL, v INTEGER NOT NULL)").unwrap();
    let name: Vec<Option<String>> = if clustered {
        (0..N).map(|i| Some(format!("category-{:02}-label", (i * 24) / N))).collect()
    } else {
        (0..N)
            .map(|i| {
                let h = (i.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(1 << 18);
                Some(format!("key-{h:06x}"))
            })
            .collect()
    };
    conn.append(
        "facts",
        vec![ColumnBuffer::Varchar(name), ColumnBuffer::Int((0..N).map(|i| i % 97).collect())],
    )
    .unwrap();
    db
}

fn bench_layout(c: &mut Criterion, group: &str, clustered: bool) {
    let db = load(clustered);
    let mut conn = db.connect();
    let mut grp = c.benchmark_group(group);
    grp.sample_size(10);
    let filters: &[(&str, String)] = &[
        (
            "filter_eq",
            format!(
                "SELECT count(*), sum(v) FROM facts WHERE name = '{}'",
                if clustered { "category-07-label" } else { "key-00beef" }
            ),
        ),
        (
            "filter_like_prefix",
            format!(
                "SELECT count(*), sum(v) FROM facts WHERE name LIKE '{}%'",
                if clustered { "category-1" } else { "key-00b" }
            ),
        ),
        (
            "filter_range",
            format!(
                "SELECT count(*), sum(v) FROM facts WHERE name >= '{0}' AND name < '{1}'",
                if clustered { "category-05" } else { "key-040" },
                if clustered { "category-08" } else { "key-042" }
            ),
        ),
        (
            "group_by",
            "SELECT name, count(*), sum(v) FROM facts GROUP BY name ORDER BY 2 DESC LIMIT 5"
                .to_string(),
        ),
    ];
    for (name, sql) in filters {
        for dict in [false, true] {
            conn.set_exec_options(opts(dict));
            grp.bench_function(format!("{name}_{}", label(dict)), |b| {
                b.iter(|| conn.query(sql).unwrap())
            });
        }
    }
    grp.finish();
}

fn bench_clustered(c: &mut Criterion) {
    bench_layout(c, "strings_clustered", true);
}

fn bench_highndv(c: &mut Criterion) {
    bench_layout(c, "strings_highndv", false);
}

/// A 64-row filtered dimension joined to the 1M-row fact on the string
/// key: the bloom filter built from the dimension prunes ~97% of fact
/// rows at the scan.
fn bench_join(c: &mut Criterion) {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE fact (name VARCHAR(32) NOT NULL, v INTEGER NOT NULL)").unwrap();
    conn.execute("CREATE TABLE dim (name VARCHAR(32) NOT NULL, grp INTEGER NOT NULL)").unwrap();
    let ndim: i32 = 2048;
    conn.append(
        "fact",
        vec![
            ColumnBuffer::Varchar(
                (0..N)
                    .map(|i| {
                        let k = (i.wrapping_mul(0x9E37_79B9u32 as i32)).rem_euclid(ndim);
                        Some(format!("sku-{k:05}"))
                    })
                    .collect(),
            ),
            ColumnBuffer::Int((0..N).map(|i| i % 97).collect()),
        ],
    )
    .unwrap();
    conn.append(
        "dim",
        vec![
            ColumnBuffer::Varchar((0..ndim).map(|k| Some(format!("sku-{k:05}"))).collect()),
            ColumnBuffer::Int((0..ndim).collect()),
        ],
    )
    .unwrap();
    let sql = "SELECT count(*), sum(f.v) FROM fact f, dim d \
               WHERE f.name = d.name AND d.grp < 64";
    let mut grp = c.benchmark_group("strings_join");
    grp.sample_size(10);
    for dict in [false, true] {
        conn.set_exec_options(opts(dict));
        grp.bench_function(format!("bloom_probe_{}", label(dict)), |b| {
            b.iter(|| conn.query(sql).unwrap())
        });
    }
    grp.finish();
}

/// The string-heavy TPC-H queries at SF 0.02, dict on vs off.
fn bench_tpch(c: &mut Criterion) {
    let data = generate(0.02, 20260727);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    let mut grp = c.benchmark_group("strings_tpch");
    grp.sample_size(10);
    for n in [2usize, 9, 16] {
        let sql = queries::sql(n);
        for dict in [false, true] {
            conn.set_exec_options(opts(dict));
            grp.bench_function(format!("q{n:02}_{}", label(dict)), |b| {
                b.iter(|| conn.query(sql).unwrap())
            });
        }
    }
    grp.finish();
}

criterion_group!(benches, bench_clustered, bench_highndv, bench_join, bench_tpch);
criterion_main!(benches);
