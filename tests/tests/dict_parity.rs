//! Dictionary execution where it must fire: the dict scan path, bloom
//! pushdown, dictionary-domain LIKE with zone skipping on codes, and
//! string-heap accounting under a spill budget. Each runs with pinned
//! options and is checked against the TPC-H answer goldens, the row store
//! or an answer computed by hand. Three of the lattice rows that turn the
//! dictionary off run their TPC-H corpus here, against the answer goldens.

use monetlite::exec::ExecOptions;
use monetlite_tests::{
    fmt_golden_rows, golden_answer, image, pinned, rows_of, run_pinned, tpch_db,
    tpch_slice_matches_goldens, Corpus, TpchTest, Twin,
};
use monetlite_tpch::queries;
use monetlite_types::ColumnBuffer;

fn dict(o: ExecOptions, on: bool) -> ExecOptions {
    ExecOptions { use_dict: on, ..o }
}

/// All 22 answer goldens byte-identical with the dictionary off; every
/// other TPC-H row of the lattice runs with it on.
#[test]
fn tpch_goldens_byte_identical_with_dict_on_and_off() {
    tpch_slice_matches_goldens(TpchTest::Dict);
}

/// The dictionary off under the spilling budget and without candidate
/// lists — on the materialized engine, which gathers every selection the
/// dict row filter would produce — still returns the goldens.
#[test]
fn tpch_queries_agree_dict_off_under_spill_and_candidates_off() {
    tpch_slice_matches_goldens(TpchTest::DictSpill);
}

/// The dict scan path and bloom pushdown must actually fire on TPC-H:
/// Q17 builds on a brand+container-filtered part table (a tiny fraction
/// of partkeys), so the pushed bloom must prune most lineitem rows.
#[test]
fn dict_and_bloom_counters_fire_on_q17() {
    let sql = queries::sql(17);
    // Index joins skip the bloom build (a pre-built index probe is
    // already O(1) per row); force the plain hash-join path so the
    // pushdown is the one being measured.
    let opts = |on| dict(ExecOptions { use_hash_index: false, ..pinned(1, 1024) }, on);
    let (r, counters) = run_pinned(tpch_db(), sql, opts(true));
    assert_eq!(fmt_golden_rows(&r), golden_answer(17), "Q17 dict on");
    assert!(counters.dict_hits > 0, "Q17 string predicates must hit the dictionary: {counters:?}");
    assert!(
        counters.bloom_pruned > 0,
        "Q17 bloom from the filtered part build side must prune lineitem rows: {counters:?}"
    );
    // Dict off: neither counter moves.
    let (r, off) = run_pinned(tpch_db(), sql, opts(false));
    assert_eq!(fmt_golden_rows(&r), golden_answer(17), "Q17 dict off");
    assert_eq!(off.dict_hits, 0, "dict-off leg must not consult dictionaries");
    assert_eq!(off.bloom_pruned, 0, "dict-off leg must not build bloom filters");
}

/// Q12's `l_shipmode IN ('MAIL', 'SHIP')` and Q19's `l_shipmode IN (...)`
/// and `l_shipinstruct = ...` are filters over one string column each, so
/// the scan serves them from dictionaries (options pinned, dictionary
/// on).
#[test]
fn q12_and_q19_string_filters_are_served_by_dictionaries() {
    for n in [12, 19] {
        let (r, counters) = run_pinned(tpch_db(), queries::sql(n), pinned(1, 64 * 1024));
        assert!(counters.dict_hits > 0, "Q{n} filters must hit a dictionary: {counters:?}");
        assert_eq!(fmt_golden_rows(&r), golden_answer(n), "Q{n}");
    }
}

/// Dictionary-domain LIKE. On a low-NDV clustered string column, a LIKE
/// prefix plan compiles to a code range (evaluated once per distinct
/// dictionary entry, not once per row), and zone bounds on codes skip
/// whole morsels — with the row store's answers on every configuration.
#[test]
fn like_over_dictionary_domain_matches_string_kernel_and_skips_zones() {
    let twin = Twin::default();
    twin.script("CREATE TABLE ev (name VARCHAR(32), v INT)");
    let n: i32 = 60_000;
    // Clustered: long runs of each category, so code zone bounds are
    // tight and the probe skips most morsels.
    let names: Vec<Option<String>> = (0..n)
        .map(|i| if i % 157 == 0 { None } else { Some(format!("cat{:02}-item", (i * 24) / n)) })
        .collect();
    twin.append(
        "ev",
        vec![ColumnBuffer::Varchar(names), ColumnBuffer::Int((0..n).map(|x| x % 101).collect())],
    );
    // Deletes interact with the dict row filter.
    twin.script("DELETE FROM ev WHERE v = 7");
    let sqls = [
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE 'cat07%'",
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE 'cat1_-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name LIKE '%-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name NOT LIKE 'cat0%'",
        "SELECT count(*), sum(v) FROM ev WHERE name = 'cat03-item'",
        "SELECT count(*), sum(v) FROM ev WHERE name > 'cat19' AND name <= 'cat21-item'",
        "SELECT name, count(*) FROM ev WHERE name LIKE 'cat2%' GROUP BY name ORDER BY name",
    ];
    for sql in sqls {
        let (_, counters) = run_pinned(&twin.db, sql, pinned(1, 2048));
        assert!(counters.dict_hits > 0, "{sql}: predicate must be served by the dictionary");
    }
    twin.check(&sqls, Corpus::tiny(509));
    // The prefix probe must skip zones on the clustered column.
    let sql = "SELECT count(*) FROM ev WHERE name LIKE 'cat07%'";
    let (_, counters) = run_pinned(&twin.db, sql, pinned(1, 2048));
    assert!(
        counters.vectors_skipped > 0,
        "a selective LIKE prefix over clustered categories must skip morsels: {counters:?}"
    );
}

/// `SELECT DISTINCT` over dictionary-coded columns groups on the codes, as
/// `GROUP BY` does: the binder's projection of bare columns is folded into
/// the aggregate's groups, so the aggregate sits on the scan's Filter-only
/// spine. Answers match the row store on every lattice row.
#[test]
fn select_distinct_groups_on_dictionary_codes() {
    let twin = Twin::default();
    twin.script("CREATE TABLE ds (s VARCHAR(16), t VARCHAR(16), v INT)");
    let n: i32 = 20_000;
    let s = (0..n).map(|i| if i % 97 == 0 { None } else { Some(format!("s{:02}", i % 50)) });
    let t = (0..n).map(|i| Some(format!("t{}", i % 7)));
    twin.append(
        "ds",
        vec![
            ColumnBuffer::Varchar(s.collect()),
            ColumnBuffer::Varchar(t.collect()),
            ColumnBuffer::Int((0..n).map(|x| x % 101).collect()),
        ],
    );
    twin.script("DELETE FROM ds WHERE v = 3");
    let coded = [
        "SELECT DISTINCT s FROM ds",
        "SELECT DISTINCT t, s FROM ds WHERE v < 40",
        "SELECT DISTINCT s, v FROM ds WHERE t = 't3' ORDER BY s, v",
    ];
    for sql in coded {
        let (_, counters) = run_pinned(&twin.db, sql, pinned(1, 2048));
        assert!(counters.dict_hits > 0, "{sql}: must group on dictionary codes: {counters:?}");
    }
    let mut sqls = coded.to_vec();
    sqls.extend([
        "SELECT DISTINCT v % 7, t FROM ds",
        "SELECT count(*) FROM (SELECT DISTINCT s FROM ds) d",
    ]);
    twin.check(&sqls, Corpus::tiny(509));
}

/// String-heap accounting across the dedup-abandonment threshold, end to
/// end. A group-by over >64Ki distinct VARCHAR keys crosses
/// `DEFAULT_DEDUP_LIMIT` while a tiny memory budget forces the aggregate
/// out of core — the spill decision reads `mem_bytes`, so the accounting
/// bug (double-counting abandoned dedup maps) would change when/what
/// spills. The answer is known by construction.
#[test]
fn budgeted_group_by_crossing_dedup_abandonment_matches_unbounded() {
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE wide (s VARCHAR(24), v INT)").unwrap();
    let n: i32 = 80_000; // > DEFAULT_DEDUP_LIMIT (65536) distinct keys
    conn.append(
        "wide",
        vec![
            ColumnBuffer::Varchar((0..n).map(|i| Some(format!("key-{i:06}"))).collect()),
            ColumnBuffer::Int((0..n).map(|x| x % 13).collect()),
        ],
    )
    .unwrap();
    drop(conn);
    let sql = "SELECT count(*), count(DISTINCT s), sum(v), min(s), max(s) FROM \
               (SELECT s, sum(v) AS v FROM wide GROUP BY s) g";
    let sum: i64 = (0..n as i64).map(|x| x % 13).sum();
    let want = vec![format!("{n}|{n}|{sum}|key-000000|key-{:06}", n - 1)];
    for on in [true, false] {
        let opts = ExecOptions { memory_budget: 256 * 1024, ..dict(pinned(1, 2048), on) };
        let (r, counters) = run_pinned(&db, sql, opts);
        assert_eq!(image(&rows_of(&r)), want, "dedup-crossing budgeted dict={on}");
        assert!(
            counters.spilled_partitions > 0,
            "80k VARCHAR groups must exceed a 256kB budget (dict={on}): {counters:?}"
        );
    }
}
