//! Chunk-boundary edge cases and tactical paths of the engines.
//!
//! The edge databases — empty and sub-vector tables, NULL sentinels and
//! deletion masks straddling vector boundaries, LIMIT early exit,
//! filter-only scans, bloom tracing — run through every configuration of
//! the lattice against the row store, with the tiny vector class mapped
//! onto each database's own boundaries. The tactical paths (zonemap
//! skipping, spilling, blooms, index joins, early exit) run with pinned
//! options and are checked against the TPC-H answer goldens or answers
//! computed by hand.

use monetlite::exec::ExecOptions;
use monetlite_storage::index::{Zonemap, ZONE_ROWS};
use monetlite_storage::{Bat, NULL_CODE};
use monetlite_tests::{
    answer_image, connect_pinned, each_row, fmt_golden_rows, golden_answer, image, pinned, rows_of,
    run_pinned, tpch_data, tpch_db, tpch_slice_matches_goldens, Config, Corpus, TpchTest, Twin,
    LATTICE,
};
use monetlite_tpch::queries;
use monetlite_types::nulls::NULL_I32;
use monetlite_types::{ColumnBuffer, Value};
use proptest::prelude::*;

/// `cols` with their rows reordered by `perm`.
fn permuted(cols: &[ColumnBuffer], perm: &[usize]) -> Vec<ColumnBuffer> {
    use ColumnBuffer as C;
    let pick = |v: &[i32]| perm.iter().map(|&i| v[i]).collect();
    cols.iter()
        .map(|c| match c {
            C::Bool(v) => C::Bool(perm.iter().map(|&i| v[i]).collect()),
            C::Int(v) => C::Int(pick(v)),
            C::Bigint(v) => C::Bigint(perm.iter().map(|&i| v[i]).collect()),
            C::Double(v) => C::Double(perm.iter().map(|&i| v[i]).collect()),
            C::Decimal { data, scale } => {
                C::Decimal { data: perm.iter().map(|&i| data[i]).collect(), scale: *scale }
            }
            C::Varchar(v) => C::Varchar(perm.iter().map(|&i| v[i].clone()).collect()),
            C::Date(v) => C::Date(pick(v)),
        })
        .collect()
}

/// The TPC-H corpus under both engines and every thread count: the
/// streaming rows at 2 and 4 threads (one of them at vectors of 333
/// rows) and the materialized engine at 4 return the golden answers.
#[test]
fn tpch_queries_agree_across_engines_and_threads() {
    tpch_slice_matches_goldens(TpchTest::Threads);
}

/// Out of core: under a 24 KiB budget the pipeline breakers (grouping
/// tables, join build sides, sort buffers) spill, single- and
/// multi-threaded, and the answers are still the golden ones — as they
/// are on the materialized engine, which never spills, under the same
/// budget.
#[test]
fn tpch_queries_agree_spilled_vs_unspilled() {
    tpch_slice_matches_goldens(TpchTest::Spill);
}

/// Candidate lists are invisible in results: the streaming engine, which
/// carries selections and skips zones, and the materialized engine, which
/// never does, return the golden answers at vector sizes that end
/// mid-zone and mid-morsel, on one and two threads.
#[test]
fn tpch_queries_agree_with_candidates_on_and_off() {
    tpch_slice_matches_goldens(TpchTest::Candidates);
}

#[test]
fn q6_zonemap_skips_on_date_clustered_lineitem() {
    // The acceptance shape: lineitem ingested in ship-date order (the
    // canonical clustered fact table) lets Q6's one-year date range skip
    // whole vectors via zonemaps. Ingest order cannot change Q6's sum, so
    // the answer is still the golden one. The golden scale factor gives
    // ~120k lineitem rows, i.e. many 8Ki-row zones.
    let lineitem = &tpch_data().lineitem;
    let ship = lineitem.schema.index_of("l_shipdate").expect("lineitem has l_shipdate");
    let ColumnBuffer::Date(dates) = &lineitem.cols[ship] else { panic!("l_shipdate is a DATE") };
    let mut perm: Vec<usize> = (0..dates.len()).collect();
    perm.sort_by_key(|&i| dates[i]);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(queries::DDL).unwrap();
    conn.append("lineitem", permuted(&lineitem.cols, &perm)).unwrap();
    let (r, counters) = run_pinned(&db, queries::sql(6), pinned(1, 2048));
    assert_eq!(fmt_golden_rows(&r), golden_answer(6), "Q6 over date-clustered lineitem");
    assert!(
        counters.vectors_skipped > 0,
        "Q6's shipdate range must skip zones on date-clustered lineitem (got {counters:?})"
    );
    assert!(counters.sel_vectors > 0, "Q6's selective filter must carry candidate lists");
}

#[test]
fn zonemap_skipping_correct_across_deletes_and_vector_boundaries() {
    // Deletes shrink the set of matches but never invalidate a zonemap
    // skip; probes landing exactly on zone / vector boundaries must not
    // lose rows. Each probe's answer is counted by hand over a clustered
    // key with a deleted stripe, at awkward vector sizes.
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER NOT NULL)").unwrap();
    let n: i32 = 40_000;
    conn.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|x| x * 3).collect()),
        ],
    )
    .unwrap();
    // Delete a stripe straddling the first 8Ki zone boundary and a few
    // scattered rows (every 97th).
    conn.execute("DELETE FROM t WHERE k >= 8000 AND k < 8500").unwrap();
    conn.execute("DELETE FROM t WHERE k % 97 = 0").unwrap();
    drop(conn);
    let live = |k: &i32| !(8000..8500).contains(k) && k % 97 != 0;
    // Probes at and around zone boundaries (8192-row zones), including
    // empty ranges and ranges entirely within the deleted stripe: each
    // `WHERE` with the key range it selects.
    let probes = [
        ("k < 100", 0..100),
        ("k < 8192", 0..8192),
        ("k >= 8191 AND k <= 8193", 8191..8194),
        ("k >= 8100 AND k < 8400", 8100..8400),
        ("k >= 16384 AND k < 16390", 16384..16390),
        ("k >= 39999", 39999..n),
        ("k >= 40000", 40000..n),
        ("k = 8192", 8192..8193),
    ];
    let mut any_skipped = 0u64;
    for (pred, keys) in probes {
        let sql = format!("SELECT count(*), sum(v) FROM t WHERE {pred}");
        let (count, sum) =
            keys.filter(live).fold((0i64, 0i64), |(c, s), k| (c + 1, s + 3 * k as i64));
        let sum = if count == 0 { "NULL".to_string() } else { sum.to_string() };
        let want = vec![format!("{count}|{sum}")];
        for vs in [512, 1000, 1024, 8192, 64 * 1024] {
            let (r, counters) = run_pinned(&db, &sql, pinned(1, vs));
            assert_eq!(image(&rows_of(&r)), want, "{sql} at v={vs}");
            any_skipped += counters.vectors_skipped;
        }
    }
    assert!(any_skipped > 0, "selective probes over clustered data must skip vectors");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Both zonemap builders summarise each zone by exactly the extremes
    // of its non-NULL rows, and an all-NULL zone by the empty range: an
    // INT column and its dictionary codes (`(k + 500) / 10`), in runs of
    // equal keys — some 8191 rows long, so a run starts on zone 0's last
    // row — with NULL rows (keys below -500) and zone `null_zone` all NULL.
    #[test]
    fn zonemap_bounds_are_the_exact_extremes_of_each_zone(
        vals in proptest::collection::vec(-600i32..500, 1..12),
        run in 1usize..30_000,
        zone_edge in 0usize..2,
        null_zone in 0usize..8,
    ) {
        let run = if zone_edge == 1 { ZONE_ROWS - 1 } else { run };
        let mut keys: Vec<Option<i64>> = vals
            .iter()
            .flat_map(|&v| std::iter::repeat_n((v >= -500).then_some(v as i64), run))
            .collect();
        let n = keys.len();
        let z = (null_zone * ZONE_ROWS).min(n);
        keys[z..(z + ZONE_ROWS).min(n)].fill(None);
        let codes: Vec<Option<i64>> = keys.iter().map(|k| k.map(|k| (k + 500) / 10)).collect();
        let int = Bat::Int(keys.iter().map(|k| k.map_or(NULL_I32, |k| k as i32)).collect());
        let code_col: Vec<u32> = codes.iter().map(|c| c.map_or(NULL_CODE, |c| c as u32)).collect();
        for (what, zm, col) in [
            ("build", Zonemap::build(&int), &keys),
            ("of_codes", Zonemap::of_codes(&code_col), &codes),
        ] {
            let exact: Vec<(i64, i64)> = col
                .chunks(ZONE_ROWS)
                .map(|zone| {
                    let live = zone.iter().flatten();
                    (live.clone().min().copied(), live.max().copied())
                })
                .map(|(mn, mx)| (mn.unwrap_or(i64::MAX), mx.unwrap_or(i64::MIN)))
                .collect();
            let got: Vec<(i64, i64)> = zm.mins().iter().copied().zip(zm.maxs().iter().copied()).collect();
            prop_assert_eq!(got, exact, "{} zone bounds over {} rows", what, n);
        }
    }
}

#[test]
fn grouped_aggregate_and_join_spill_with_vmem_budget_smaller_than_state() {
    // The acceptance shape: a Vmem budget smaller than the query's
    // build/group state makes a grouped-aggregate + hash-join TPC-H query
    // spill (counters > 0) while returning the golden answer. Q10 groups
    // by customer attributes (thousands of groups with VARCHAR keys) on
    // top of a three-way join; Q3 builds on filtered orders and groups by
    // l_orderkey.
    let budgeted = monetlite::Database::open_with(monetlite::DbOptions {
        vmem_budget: 8 * 1024,
        ..Default::default()
    })
    .unwrap();
    monetlite_tpch::load_monet(&mut budgeted.connect(), tpch_data()).unwrap();
    // The operator budget stays unset: this test exercises the *vmem
    // headroom* fallback.
    for n in [3usize, 10] {
        let (r, counters) = run_pinned(&budgeted, queries::sql(n), pinned(1, 1024));
        assert_eq!(fmt_golden_rows(&r), golden_answer(n), "Q{n} vmem-budgeted");
        assert!(
            counters.spilled_partitions > 0,
            "Q{n}: group/build state exceeds the 8kB vmem budget, spill expected \
             (got {counters:?})"
        );
        assert!(counters.spill_bytes > 0, "Q{n}");
    }
}

#[test]
fn external_sort_spills_and_matches_unbounded_order() {
    let data = monetlite_tpch::generate(0.005, 42);
    let db = monetlite::Database::open_in_memory();
    monetlite_tpch::load_monet(&mut db.connect(), &data).unwrap();
    let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
               ORDER BY l_extendedprice DESC, l_orderkey";
    // The answer, sorted by hand from the generated columns.
    let col = |name: &str| &data.lineitem.cols[data.lineitem.schema.index_of(name).unwrap()];
    let (keys, prices) = (col("l_orderkey"), col("l_extendedprice"));
    let mut rows: Vec<Vec<Value>> =
        (0..keys.len()).map(|i| vec![keys.get(i), prices.get(i)]).collect();
    let key = |v: &Value| v.as_f64().unwrap();
    rows.sort_by(|a, b| key(&b[1]).total_cmp(&key(&a[1])).then(key(&a[0]).total_cmp(&key(&b[0]))));
    let want = image(&rows);
    for threads in [1, 4] {
        let opts = ExecOptions { memory_budget: 32 * 1024, ..pinned(threads, 1024) };
        let (r, counters) = run_pinned(&db, sql, opts);
        assert!(image(&rows_of(&r)) == want, "external sort t={threads}");
        assert!(
            counters.spilled_partitions > 0,
            "lineitem sort must spill runs under a 32kB budget"
        );
    }
}

#[test]
fn acs_style_wide_aggregation_agrees() {
    // Grouped aggregation over a wider table with NULLs mixed in.
    let twin = Twin::default();
    twin.script("CREATE TABLE p (st INT, age INT, wt DOUBLE, inc DOUBLE)");
    let n = 10_000;
    twin.append(
        "p",
        vec![
            ColumnBuffer::Int((0..n).map(|i| i % 7).collect()),
            ColumnBuffer::Int(
                (0..n).map(|i| if i % 97 == 0 { NULL_I32 } else { i % 95 }).collect(),
            ),
            ColumnBuffer::Double((0..n).map(|i| 1.0 + (i % 200) as f64).collect()),
            ColumnBuffer::Double((0..n).map(|i| (i % 1000) as f64 * 13.5).collect()),
        ],
    );
    twin.check(
        &["SELECT st, count(*), count(age), sum(inc), avg(wt), min(age), max(inc), \
         median(inc) FROM p GROUP BY st ORDER BY st"],
        Corpus::tiny(333),
    );
}

#[test]
fn distinct_count_agrees_in_parallel() {
    // COUNT(DISTINCT) is mergeable in the streaming engine (sets union),
    // unlike mitosis which skips it.
    let twin = Twin::default();
    twin.script("CREATE TABLE t (g INT, x INT)");
    let n = 5_000;
    twin.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).map(|i| i % 3).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 41).collect()),
        ],
    );
    twin.check(&["SELECT g, count(DISTINCT x) FROM t GROUP BY g ORDER BY g"], Corpus::tiny(256));
}

/// The six argument types COUNT(DISTINCT) reads, NULL-bearing.
const DISTINCT_COLS: [&str; 6] = ["i", "b", "m", "f", "dt", "s"];

/// A table of `words.len()` rows: a NULL-bearing group key over four
/// groups and one column per type in [`DISTINCT_COLS`] over a domain of
/// twelve values and NULL, so values repeat within a group. The DOUBLE
/// column holds both 0.0 and -0.0, which are one value.
fn distinct_table(words: &[u64]) -> Vec<ColumnBuffer> {
    // Byte `k` of each word picks column `k`'s value: 12 is NULL.
    let x = |k: u32| words.iter().map(move |&w| (w >> (8 * k)) as u8 % 13);
    let int = |k: u32| x(k).map(|v| if v == 12 { NULL_I32 } else { v as i32 * 7 - 30 });
    let wide = |k: u32| x(k).map(|v| if v == 12 { i64::MIN } else { v as i64 * 1_000_003 });
    vec![
        ColumnBuffer::Int(
            x(0).map(|v| if v % 5 == 4 { NULL_I32 } else { (v % 5) as i32 }).collect(),
        ),
        ColumnBuffer::Int(int(1).collect()),
        ColumnBuffer::Bigint(wide(2).collect()),
        ColumnBuffer::Decimal { data: wide(3).map(|v| v / 1_000).collect(), scale: 2 },
        ColumnBuffer::Double(
            x(4).map(|v| match v {
                12 => f64::NAN,
                0 => -0.0,
                v => (v % 6) as f64 * 0.25,
            })
            .collect(),
        ),
        ColumnBuffer::Date(int(5).map(|d| if d == NULL_I32 { d } else { 9_000 + d }).collect()),
        ColumnBuffer::Varchar(x(6).map(|v| (v != 12).then(|| format!("v{}", v % 11))).collect()),
    ]
}

/// Per group, keyed by its golden cell image: one count per column of
/// [`DISTINCT_COLS`].
type GroupCounts = Vec<(String, Vec<i64>)>;

/// `SELECT DISTINCT g, x` for each `x` of [`DISTINCT_COLS`].
fn distinct_pairs() -> Vec<String> {
    DISTINCT_COLS.iter().map(|c| format!("SELECT DISTINCT g, {c} FROM d")).collect()
}

/// Per group, `COUNT(DISTINCT x)` on `conn` for each of [`DISTINCT_COLS`]
/// — and the same counted from the [`distinct_pairs`] rows with `x` not
/// NULL, which must be the row store's (`want_pairs`, answer images).
fn distinct_counts(
    row: &Config,
    conn: &mut monetlite::Connection,
    want_pairs: &[Vec<String>],
) -> (GroupCounts, GroupCounts) {
    let list: Vec<String> = DISTINCT_COLS.iter().map(|c| format!("count(DISTINCT {c})")).collect();
    let sql = format!("SELECT g, {} FROM d GROUP BY g", list.join(", "));
    let (r, _) = row.run(conn, &sql).unwrap_or_else(|e| panic!("{}: {e}\n{sql}", row.label));
    let mut got: GroupCounts = rows_of(&r)
        .into_iter()
        .map(|cells| {
            let counts = cells[1..]
                .iter()
                .map(|v| match v {
                    Value::Bigint(n) => *n,
                    other => panic!("{}: COUNT(DISTINCT) returned {other:?}", row.label),
                })
                .collect();
            (image(&[vec![cells[0].clone()]]).remove(0), counts)
        })
        .collect();
    got.sort();
    let mut want: GroupCounts =
        got.iter().map(|(g, _)| (g.clone(), vec![0; DISTINCT_COLS.len()])).collect();
    for (c, (sql, want_pairs)) in distinct_pairs().iter().zip(want_pairs).enumerate() {
        let r = conn.query(sql).unwrap_or_else(|e| panic!("{}: {e}\n{sql}", row.label));
        let pairs = rows_of(&r);
        assert_eq!(&answer_image(sql, &pairs), want_pairs, "{} vs rowstore: {sql}", row.label);
        for cells in pairs.into_iter().filter(|cells| cells[1] != Value::Null) {
            let g = image(&[vec![cells[0].clone()]]).remove(0);
            let at = want.iter().position(|(w, _)| *w == g);
            let at = at.unwrap_or_else(|| panic!("{}: group {g} has no count", row.label));
            want[at].1[c] += 1;
        }
    }
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Per group, COUNT(DISTINCT x) is the number of distinct non-NULL x
    // that SELECT DISTINCT returns, for every argument type: on every
    // lattice row (the multi-threaded rows with the tiny vector class
    // merge partials interned by different workers), and with a budget so
    // small that the aggregate spills and merges its partitions. Both
    // are grouping tables, so the SELECT DISTINCT rows are also the row
    // store's.
    #[test]
    fn count_distinct_counts_the_rows_of_select_distinct(
        words in collection::vec(any::<u64>(), 0..240),
    ) {
        let twin = Twin::default();
        twin.script(
            "CREATE TABLE d (g INT, i INT, b BIGINT, m DECIMAL(12,2), f DOUBLE, dt DATE, \
             s VARCHAR(4))",
        );
        twin.append("d", distinct_table(&words));
        let want_pairs: Vec<Vec<String>> = distinct_pairs()
            .iter()
            .map(|sql| answer_image(sql, &twin.rows.query(sql).unwrap().rows))
            .collect();
        let db = &twin.db;
        each_row(|row| {
            let mut conn = row.connect(db, Corpus::tiny(5));
            let (got, want) = distinct_counts(row, &mut conn, &want_pairs);
            assert_eq!(got, want, "{}", row.label);
        });
        let spilled = Config {
            label: "spilled t2 v8",
            exec: ExecOptions { memory_budget: 256, ..pinned(2, 8) },
            ..LATTICE[0]
        };
        let mut conn = spilled.connect(db, Corpus::tiny(5));
        let (got, want) = distinct_counts(&spilled, &mut conn, &want_pairs);
        prop_assert_eq!(got, want);
        if words.len() > 64 {
            let (_, counters) = spilled.run(&mut conn, "SELECT g, count(DISTINCT s) FROM d GROUP BY g").unwrap();
            prop_assert!(counters.spilled_partitions > 0, "the aggregate did not spill");
        }
    }
}

// ---------------------------------------------------------------------------
// SELECT DISTINCT: a grouped aggregate that computes nothing
// ---------------------------------------------------------------------------

/// Rows of the `wide` table: more than one full vector, so every row
/// under the spilling budget ingests its DISTINCT in more than one
/// morsel, and the partial that outgrows its share routes the rest to
/// disk.
const WIDE_ROWS: i32 = 70_000;

/// A [`distinct_table`] of 600 rows, an empty table and the `wide` one.
fn distinct_db() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE d (g INT, i INT, b BIGINT, m DECIMAL(12,2), f DOUBLE, dt DATE, \
         s VARCHAR(4)); \
         CREATE TABLE d_empty (i INT, s VARCHAR(4)); \
         CREATE TABLE wide (k INT, v INT);",
    );
    let words: Vec<u64> = (1..=600u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    twin.append("d", distinct_table(&words));
    twin.append(
        "wide",
        vec![
            ColumnBuffer::Int((0..WIDE_ROWS).collect()),
            ColumnBuffer::Int((0..WIDE_ROWS).map(|i| i % 3).collect()),
        ],
    );
    twin
}

/// `SELECT DISTINCT` over keys of every type (NULLs, and 0.0 beside
/// -0.0, in each), over expressions, ordered, ordered with a limit and
/// over empty inputs returns the row store's rows on every lattice row;
/// and every row under the spilling budget spills it.
#[test]
fn select_distinct_agrees_with_the_row_store_and_spills() {
    let twin = distinct_db();
    let sqls = [
        "SELECT DISTINCT i FROM d",
        "SELECT DISTINCT b FROM d",
        "SELECT DISTINCT m FROM d",
        "SELECT DISTINCT f FROM d",
        "SELECT DISTINCT dt FROM d",
        "SELECT DISTINCT s FROM d",
        "SELECT DISTINCT g, f, s FROM d",
        "SELECT DISTINCT * FROM d",
        "SELECT DISTINCT i % 4, s FROM d",
        "SELECT DISTINCT f * 2.0, m + 1 FROM d WHERE g IS NOT NULL",
        "SELECT DISTINCT s, dt FROM d ORDER BY s, dt",
        "SELECT DISTINCT m, i FROM d ORDER BY m DESC, i LIMIT 7",
        "SELECT DISTINCT i, s FROM d WHERE i > 1000",
        "SELECT DISTINCT s FROM d_empty",
        "SELECT DISTINCT k / 2, v FROM wide",
    ];
    let answers = twin.check(&sqls, Corpus::tiny(37));
    for a in answers.last().expect("the wide statement") {
        let row = a.config.expect("a lattice answer");
        assert!(
            !row.must_spill() || a.counters.spilled_partitions > 0,
            "{}: the DISTINCT did not spill: {:?}",
            row.label,
            a.counters
        );
    }
}

// ---------------------------------------------------------------------------
// Chunk-boundary edge cases
// ---------------------------------------------------------------------------

fn edge_db() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE empty_t (a INT, b VARCHAR(8)); \
         CREATE TABLE tiny (a INT, b VARCHAR(8)); \
         INSERT INTO tiny VALUES (1, 'x'), (2, NULL), (3, 'z'); \
         CREATE TABLE edge (a INT, d DOUBLE);",
    );
    // A table whose NULL sentinels land exactly at vector boundaries when
    // the vector size divides the positions: NULL at the first and last
    // row of each 512-row vector, NaN (a NULL DOUBLE) on the second.
    let n = 4_096;
    let a = (0..n).map(|i| if i % 512 == 0 || i % 512 == 511 { NULL_I32 } else { i % 100 });
    let d = (0..n).map(|i| if i % 512 == 1 { f64::NAN } else { i as f64 });
    twin.append("edge", vec![ColumnBuffer::Int(a.collect()), ColumnBuffer::Double(d.collect())]);
    twin
}

#[test]
fn empty_and_subvector_tables_agree() {
    let twin = edge_db();
    let sqls = [
        "SELECT * FROM empty_t",
        "SELECT a FROM empty_t WHERE a > 0",
        "SELECT count(*), sum(a), min(b) FROM empty_t",
        "SELECT b, count(*) FROM empty_t GROUP BY b",
        "SELECT DISTINCT a FROM empty_t",
        "SELECT * FROM empty_t ORDER BY a LIMIT 3",
        "SELECT t.a, e.b FROM tiny t, empty_t e WHERE t.a = e.a",
        "SELECT * FROM tiny ORDER BY a",
        "SELECT count(*) FROM tiny WHERE b IS NULL",
    ];
    twin.check(&sqls, Corpus::tiny(2));
}

#[test]
fn null_sentinels_straddling_vector_boundaries_agree() {
    let twin = edge_db();
    let sqls = [
        "SELECT count(*), count(a), sum(a) FROM edge",
        "SELECT count(*) FROM edge WHERE a IS NULL",
        "SELECT count(*) FROM edge WHERE a IS NOT NULL AND a < 50",
        "SELECT a, count(*) FROM edge GROUP BY a ORDER BY a",
        "SELECT sum(d) FROM edge WHERE d > 100.0",
    ];
    // 512 puts every sentinel at a chunk edge; 511 and 513 shift them off
    // by one in both directions.
    for tiny in [512, 511, 513] {
        twin.check(&sqls, Corpus::tiny(tiny));
    }
}

// ---------------------------------------------------------------------------
// Deleted-rows visibility: streaming scans and the morsel cursor size
// morsels from *physical* table rows, so the deletion mask must be applied
// identically in every ranged morsel, including masks crossing vector
// boundaries, fully-deleted morsels, and deletes + LIMIT early-exit.
// ---------------------------------------------------------------------------

fn deletion_db() -> Twin {
    let twin = Twin::default();
    twin.script("CREATE TABLE del_t (a INT, g INT, s VARCHAR(8))");
    let n = 4_096;
    twin.append(
        "del_t",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 7).collect()),
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("s{}", i % 13))).collect()),
        ],
    );
    // Masks straddling every 512-row vector boundary (first/last row of
    // each vector), plus one entire morsel deleted (rows 1024..1536 at
    // vector=512).
    twin.script(
        "DELETE FROM del_t WHERE a % 512 = 0 OR a % 512 = 511; \
         DELETE FROM del_t WHERE a >= 1024 AND a < 1536;",
    );
    twin
}

#[test]
fn deletion_masks_crossing_vector_boundaries_agree() {
    let twin = deletion_db();
    let sqls = [
        "SELECT count(*) FROM del_t",
        "SELECT count(*), sum(a), min(a), max(a) FROM del_t",
        "SELECT count(*) FROM del_t WHERE a % 512 = 0",
        "SELECT count(*) FROM del_t WHERE a >= 1000 AND a < 1600",
        "SELECT g, count(*), sum(a) FROM del_t GROUP BY g ORDER BY g",
        "SELECT s, count(*) FROM del_t GROUP BY s ORDER BY s",
        "SELECT a FROM del_t WHERE a < 600 ORDER BY a",
        "SELECT DISTINCT g FROM del_t ORDER BY g",
        "SELECT a FROM del_t ORDER BY a DESC LIMIT 9",
        "SELECT x.a, y.g FROM del_t x, del_t y WHERE x.a = y.a AND x.a < 700 ORDER BY 1",
    ];
    // 512 aligns morsels with the deletion pattern; 511 and 513 shift the
    // mask off by one in both directions; 2 makes nearly every morsel
    // boundary interact with the mask. The self-join's cross product
    // would hold 16M rows.
    for tiny in [512, 511, 513, 2] {
        twin.check(&sqls, Corpus { tiny, seed: 0, cross_products: false });
    }
}

#[test]
fn fully_deleted_table_and_morsel_agree() {
    let twin = deletion_db();
    twin.script("CREATE TABLE gone (a INT)");
    twin.append("gone", vec![ColumnBuffer::Int((0..2_000).collect())]);
    twin.script("DELETE FROM gone");
    let sqls = [
        "SELECT * FROM gone",
        "SELECT count(*), sum(a) FROM gone",
        "SELECT a, count(*) FROM gone GROUP BY a",
        "SELECT * FROM gone ORDER BY a LIMIT 3",
    ];
    twin.check(&sqls, Corpus::tiny(512));
}

#[test]
fn deletes_with_limit_early_exit_agree() {
    let twin = Twin::default();
    twin.script("CREATE TABLE big_del (a INT, b INT)");
    let n = 100_000;
    twin.append(
        "big_del",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    );
    // The first ~5 morsels (vector=1024) become fully deleted, so the
    // early-exit prefix logic must walk across empty morsels; a later
    // stripe is deleted mid-table.
    twin.script(
        "DELETE FROM big_del WHERE a < 5000; \
         DELETE FROM big_del WHERE a >= 50000 AND a < 51000;",
    );
    let sqls = [
        "SELECT a FROM big_del LIMIT 5",
        "SELECT a, b FROM big_del WHERE b = 3 LIMIT 7",
        "SELECT a FROM big_del ORDER BY a LIMIT 4",
        "SELECT a FROM big_del LIMIT 0",
    ];
    twin.check(&sqls, Corpus::tiny(333));
    // Early exit still happens despite the deleted prefix.
    let (r, counters) = run_pinned(&twin.db, "SELECT a FROM big_del LIMIT 5", pinned(1, 1024));
    assert_eq!(r.nrows(), 5);
    assert_eq!(r.value(0, 0), Value::Int(5000));
    assert!(
        counters.morsels < 98,
        "limit must early-exit even when leading morsels are fully deleted \
         (dispatched {})",
        counters.morsels
    );
}

#[test]
fn limit_and_topn_agree_and_exit_early() {
    let twin = Twin::default();
    twin.script("CREATE TABLE big (a INT, b INT)");
    let n = 100_000;
    twin.append(
        "big",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 17).collect()),
        ],
    );
    let sqls = [
        "SELECT a FROM big LIMIT 5",
        "SELECT a, b FROM big WHERE b = 3 LIMIT 7",
        "SELECT a, b FROM big ORDER BY b, a LIMIT 10",
        "SELECT a FROM big ORDER BY a DESC LIMIT 3",
        "SELECT a FROM big LIMIT 0",
    ];
    twin.check(&sqls, Corpus::tiny(333));
    // Early exit: LIMIT 5 over ~98 morsels must stop after a handful.
    let (r, counters) = run_pinned(&twin.db, "SELECT a FROM big LIMIT 5", pinned(1, 1024));
    assert_eq!(r.nrows(), 5);
    assert!(counters.morsels < 98, "LIMIT 5 dispatched {} morsels", counters.morsels);
}

// ---------------------------------------------------------------------------
// The thread-sized cut: at more than one thread, a source of more than one
// vector is cut into zone-aligned morsels smaller than a vector, whose
// boundaries deletes, candidate lists and early exit must cross.
// ---------------------------------------------------------------------------

/// Three vectors and three rows.
const CUT_ROWS: i32 = 200_003;

/// Morsels of one pipeline over [`CUT_ROWS`] rows at vector 65536, per
/// thread count: a vector each at one thread; `rows / (4·threads)`
/// rounded up to whole 8Ki zones at two (32Ki rows: 7 morsels) and at
/// four (16Ki rows: 13 morsels).
const CUT_MORSELS: [(usize, u64); 3] = [(1, 4), (2, 7), (4, 13)];

#[test]
fn thread_sized_morsels_agree_with_one_thread_and_the_row_store() {
    let twin = Twin::default();
    twin.script("CREATE TABLE cut (a INT, g INT, v INT, s VARCHAR(8))");
    let n = CUT_ROWS;
    twin.append(
        "cut",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 11).collect()),
            ColumnBuffer::Int((0..n).map(|i| i * 7919 % 100_003).collect()),
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("s{}", i % 13))).collect()),
        ],
    );
    // Deletion masks over the first and last rows of every 16Ki stretch
    // (so across every morsel boundary at every thread count), and the
    // table's last three rows (the tail of its last morsel).
    twin.script(
        "DELETE FROM cut WHERE a % 16384 < 3 OR a % 16384 > 16380; \
         DELETE FROM cut WHERE a >= 200000",
    );
    let sqls = [
        // Ordered collect of a selective filter's candidate lists.
        "SELECT a, v FROM cut WHERE v < 2000",
        // A range across the 32Ki boundary.
        "SELECT a, s FROM cut WHERE a >= 32000 AND a < 33500 AND g <> 5",
        // A LIMIT that ends inside a morsel at every thread count.
        "SELECT a, g FROM cut WHERE g = 3 LIMIT 4000",
        "SELECT a, v FROM cut ORDER BY v DESC, a LIMIT 25",
        "SELECT g, count(*), sum(v), min(a), max(a) FROM cut WHERE v % 3 = 1 GROUP BY g \
         ORDER BY g",
        "SELECT s, count(*) FROM cut WHERE a % 7 = 2 GROUP BY s ORDER BY s",
        // Candidate lists into a global aggregate.
        "SELECT count(*), sum(a), min(v), max(v) FROM cut WHERE v < 50000",
    ];
    // Statements whose row order SQL leaves open and the engine does not
    // fix: groups (a DISTINCT's rows too) come out in the order the
    // workers' partials merge. Their rows are compared as multisets only.
    let any_order = ["SELECT DISTINCT v % 997 FROM cut WHERE a > 100"];
    for sql in sqls.iter().chain(&any_order) {
        let oracle = twin.rows.query(sql).unwrap_or_else(|e| panic!("rowstore: {e}\n{sql}"));
        let want = answer_image(sql, &oracle.rows);
        let mut one_thread: Option<Vec<String>> = None;
        for (threads, morsels) in CUT_MORSELS {
            let (r, c) = run_pinned(&twin.db, sql, pinned(threads, 64 * 1024));
            let got = image(&rows_of(&r));
            assert_eq!(answer_image(sql, &rows_of(&r)), want, "t={threads} vs rowstore: {sql}");
            // Not only the same rows: the same order as one thread gives.
            let first = one_thread.get_or_insert_with(|| got.clone());
            if sqls.contains(sql) {
                assert_eq!(&got, first, "t={threads} vs t=1: {sql}");
            }
            if *sql == sqls[0] {
                assert_eq!((c.pipelines, c.morsels), (1, morsels), "t={threads}: {c:?}");
            }
            if *sql == sqls[6] {
                assert!(c.sel_vectors > 0, "t={threads}: candidate lists expected: {c:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Filter-only scan columns: a scan reads the columns its pushed filters
// test but emits only what its parent consumes — possibly nothing at all,
// when the chunk carries just a row count.
// ---------------------------------------------------------------------------

fn filter_only_db() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE fo (a INT, b INT, s VARCHAR(8)); \
         CREATE TABLE fo_empty (a INT, b INT, s VARCHAR(8)); \
         CREATE TABLE fo_dim (k INT, name VARCHAR(8));",
    );
    let n = 6_000;
    twin.append(
        "fo",
        vec![
            ColumnBuffer::Int((0..n).collect()),
            ColumnBuffer::Int((0..n).map(|i| i % 11).collect()),
            ColumnBuffer::Varchar(
                (0..n).map(|i| (i % 17 != 0).then(|| format!("s{}", i % 13))).collect(),
            ),
        ],
    );
    twin.append(
        "fo_dim",
        vec![
            ColumnBuffer::Int((0..11).collect()),
            ColumnBuffer::Varchar((0..11).map(|i| Some(format!("n{i}"))).collect()),
        ],
    );
    // Deletes straddle every vector size used below.
    twin.script("DELETE FROM fo WHERE a % 97 = 0 OR (a >= 2048 AND a < 2600)");
    twin
}

#[test]
fn filter_only_scans_agree_across_engines_and_options() {
    let twin = filter_only_db();
    // Scans whose outputs are a strict subset of what they read — down to
    // no output column at all (count(*)), on a table with deletes and on
    // an empty one, alone and on both sides of a join.
    let sqls = [
        "SELECT count(*) FROM fo WHERE a > 100",
        "SELECT count(*) FROM fo WHERE b = 3 AND s LIKE 's1%'",
        "SELECT sum(a) FROM fo WHERE b < 4 AND s IS NOT NULL",
        "SELECT count(*), sum(b) FROM fo WHERE s = 's5'",
        "SELECT count(*) FROM fo_empty WHERE a > 1",
        "SELECT sum(a) FROM fo_empty WHERE b = 2 AND s = 'x'",
        "SELECT count(*), sum(fo.a) FROM fo, fo_dim \
         WHERE fo.b = fo_dim.k AND fo_dim.name = 'n3' AND fo.s <> 's1'",
        "SELECT fo_dim.name, count(*) FROM fo, fo_dim \
         WHERE fo.b = fo_dim.k AND fo.s LIKE '%1%' GROUP BY fo_dim.name ORDER BY 1",
    ];
    let mut conn = connect_pinned(&twin.db, pinned(1, 64 * 1024));
    let plan = conn.query("EXPLAIN SELECT count(*) FROM fo WHERE a > 100").unwrap();
    let text: Vec<String> = (0..plan.nrows()).map(|i| plan.value(i, 0).to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("scan fo cols=[] filter-only=[0]")),
        "count(*) over a filtered scan emits no column:\n{}",
        text.join("\n")
    );
    twin.check(&sqls, Corpus::tiny(333));
    // The join paths the scan's output width feeds still fire: a filtered
    // dimension pushes its bloom into the probe scan, and an unfiltered
    // one is probed through its automatic hash index.
    let opts = pinned(1, 512);
    let (_, c) = run_pinned(&twin.db, sqls[6], ExecOptions { use_hash_index: false, ..opts });
    assert!(c.bloom_pruned > 0, "bloom into a scan with filter-only columns: {c:?}");
    let (_, c) = run_pinned(&twin.db, sqls[7], opts);
    assert!(c.hash_index_joins > 0, "index join beside a filter-only scan: {c:?}");
}

/// TPC-H keeps its tactical join paths once scans stop emitting
/// filter-only columns. Q17's filtered part build and Q18's IN (a handful
/// of orders) are tiny beside the distinct keys of the bare scans they
/// join, so those scans are probed through their automatic hash indexes
/// (index nested-loop joins) and no probe row streams past a bloom; with
/// the hash index off the same builds prune through blooms. Q5's
/// builds are not tiny, and its bloom still prunes lineitem.
#[test]
fn tpch_bloom_and_index_joins_fire_beside_filter_only_scans() {
    for n in [17, 18] {
        let (r, c) = run_pinned(tpch_db(), queries::sql(n), pinned(1, 1024));
        assert_eq!(fmt_golden_rows(&r), golden_answer(n), "Q{n}");
        assert!(c.hash_index_joins > 0, "Q{n}: a tiny build probes the index: {c:?}");
        assert_eq!(c.bloom_pruned, 0, "Q{n}: the index join streams nothing: {c:?}");
        let off = ExecOptions { use_hash_index: false, ..pinned(1, 1024) };
        let (r, c) = run_pinned(tpch_db(), queries::sql(n), off);
        assert_eq!(fmt_golden_rows(&r), golden_answer(n), "Q{n} index off");
        assert!(c.bloom_pruned > 0, "Q{n} index off: bloom must prune probe rows: {c:?}");
        assert_eq!(c.hash_index_joins, 0, "Q{n} index off: {c:?}");
    }
    let (r, c) = run_pinned(tpch_db(), queries::sql(5), pinned(1, 1024));
    assert_eq!(fmt_golden_rows(&r), golden_answer(5), "Q5");
    assert!(c.bloom_pruned > 0, "Q5: bloom must prune probe rows: {c:?}");
}

// ---------------------------------------------------------------------------
// Bloom tracing: a probe's build-side bloom reaches the probe scan through
// column-permuting projections and earlier probes, and only when its key
// is a scan column all the way down.
// ---------------------------------------------------------------------------

/// A fact table `f` (NULL keys, deletes) with two dimensions: `d` joins on
/// `f.a`, `e` on `f.b` or on `d.v`.
fn bloom_trace_db() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE f (a INT, b INT, c INT); \
         CREATE TABLE d (k INT, v INT, name VARCHAR(8)); \
         CREATE TABLE e (k INT, tag VARCHAR(8));",
    );
    let n = 6_000;
    twin.append(
        "f",
        vec![
            ColumnBuffer::Int(
                (0..n).map(|i| if i % 97 == 0 { NULL_I32 } else { i % 500 }).collect(),
            ),
            ColumnBuffer::Int((0..n).map(|i| i % 37).collect()),
            ColumnBuffer::Int((0..n).collect()),
        ],
    );
    twin.append(
        "d",
        vec![
            ColumnBuffer::Int((0..500).collect()),
            ColumnBuffer::Int((0..500).map(|i| i % 40).collect()),
            ColumnBuffer::Varchar((0..500).map(|i| Some(format!("n{}", i % 50))).collect()),
        ],
    );
    twin.append(
        "e",
        vec![
            ColumnBuffer::Int((0..40).collect()),
            ColumnBuffer::Varchar((0..40).map(|i| Some(format!("t{}", i % 8))).collect()),
        ],
    );
    twin.script("DELETE FROM f WHERE c % 101 = 0");
    twin
}

/// The EXPLAIN pipeline line whose source is `scan <table>`.
fn pipeline_line(db: &monetlite::Database, sql: &str, table: &str, opts: ExecOptions) -> String {
    let r = connect_pinned(db, opts).query(&format!("EXPLAIN {sql}")).unwrap();
    (0..r.nrows())
        .map(|i| r.value(i, 0).to_string())
        .find(|l| l.starts_with('P') && l.contains(&format!(": scan {table} ")))
        .unwrap_or_else(|| panic!("no pipeline scans {table} for {sql}"))
}

/// Pinned options with the dictionary/bloom path on or off and the hash
/// index off (an index build pushes no bloom).
fn bloom_opts(dict: bool) -> ExecOptions {
    ExecOptions { use_dict: dict, use_hash_index: false, ..pinned(1, 512) }
}

#[test]
fn blooms_trace_through_permuting_projects_and_earlier_probes() {
    let twin = bloom_trace_db();
    let sqls = [
        // scan f -> project (c, b, a) -> probe(left, e) -> probe(inner, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f) x LEFT JOIN e ON x.b = e.k \
         JOIN d ON x.a = d.k WHERE d.name = 'n3'",
        // scan f -> probe(anti, e) -> project (c, a) -> probe(inner, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f WHERE NOT EXISTS \
         (SELECT * FROM e WHERE e.k = f.b AND e.tag = 't1')) x JOIN d ON x.a = d.k \
         WHERE d.name = 'n3'",
        // scan f -> project -> probe(left, e) -> probe(semi, d) on a
        "SELECT count(*), sum(x.c) FROM (SELECT c, b, a FROM f) x LEFT JOIN e ON x.b = e.k \
         WHERE x.a IN (SELECT k FROM d WHERE name = 'n3')",
    ];
    for sql in sqls {
        let line = pipeline_line(&twin.db, sql, "f", bloom_opts(true));
        assert!(line.contains("project[") && line.contains("[bloom]"), "{line}");
        let (_, c) = run_pinned(&twin.db, sql, bloom_opts(true));
        assert!(c.bloom_pruned > 0, "the traced bloom prunes f: {c:?} for {sql}");
    }
    twin.check(&sqls, Corpus::tiny(333));
}

#[test]
fn a_key_traced_into_a_build_column_pushes_no_bloom() {
    let twin = bloom_trace_db();
    // The inner probe's key `d.v` is a column of the LEFT probe's build
    // side: no scan row of f carries it, so nothing may be pruned there.
    let sql = "SELECT count(*), sum(f.c) FROM f LEFT JOIN d ON f.a = d.k \
               JOIN e ON d.v = e.k WHERE e.tag = 't1'";
    let line = pipeline_line(&twin.db, sql, "f", bloom_opts(true));
    assert!(line.contains("probe(left") && !line.contains("[bloom]"), "{line}");
    let (_, c) = run_pinned(&twin.db, sql, bloom_opts(true));
    assert_eq!(c.bloom_pruned, 0, "{c:?}");
    twin.check(&[sql], Corpus::tiny(333));
}

/// Q9's selective `part` build pushes its bloom through the projection
/// above the partsupp probe into lineitem; with the dictionary off no
/// bloom is built, and the answer is the golden one either way.
#[test]
fn q9_part_bloom_reaches_lineitem() {
    let sql = queries::sql(9);
    let line = pipeline_line(tpch_db(), sql, "lineitem", pinned(1, 1024));
    assert!(line.contains("[bloom]") && line.contains("project["), "{line}");
    let (r, c) = run_pinned(tpch_db(), sql, pinned(1, 1024));
    assert!(c.bloom_pruned > 0, "{c:?}");
    assert_eq!(fmt_golden_rows(&r), golden_answer(9), "Q9 dict on");
    for threads in [1, 4] {
        let (r, c) =
            run_pinned(tpch_db(), sql, ExecOptions { use_dict: false, ..pinned(threads, 1024) });
        assert_eq!(fmt_golden_rows(&r), golden_answer(9), "Q9 dict off t={threads}");
        assert_eq!(c.bloom_pruned, 0, "dict off builds no bloom: {c:?}");
    }
}
