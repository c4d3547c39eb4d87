//! Join payload parity: strings carried through joins as offsets into the
//! build and probe sides' shared heaps must read back as the row store's
//! values on every row of the configuration lattice.
//!
//! The corpus is a small TPC-H-shaped schema whose VARCHAR columns hold
//! multi-byte UTF-8, `''`, NULLs and heavy duplicates. It runs:
//! * a Q10-shape chain carrying five VARCHAR columns through three joins,
//!   with and without the grouping on top;
//! * LEFT joins whose unmatched probe rows pad the build side's VARCHAR,
//!   INT, DECIMAL, DOUBLE and DATE columns with NULL, with and without a
//!   residual;
//! * semi and anti joins with string residuals;
//! * GROUP BY, MIN/MAX and ORDER BY over the carried strings;
//! * an ORDER BY over inner and LEFT joins carrying build-side strings
//!   under a budget that makes the sort spill, with its spill volume
//!   pinned.

use monetlite::exec::ExecOptions;
use monetlite_tests::{image, pinned, rows_of, run_pinned, Corpus, Twin};
use monetlite_types::ColumnBuffer;

/// Vectors of 7 rows cut every table into many morsels; the comma joins
/// run with push-down (a four-way cross product is not affordable).
const PAYLOAD: Corpus = Corpus { tiny: 7, seed: 0x10ad, cross_products: false };

/// Strings from a pool of 1- to 4-byte characters, `''` included.
fn text(tag: &str, i: u64) -> String {
    const POOL: [&str; 10] = ["", "é", "naïve", "Ωmega", "日本", "😀x", "plain", "zz", "a", "ab"];
    let (a, b) = (POOL[(i % 10) as usize], POOL[(i / 10 % 10) as usize]);
    if i.is_multiple_of(13) {
        String::new()
    } else {
        format!("{a}{tag}{b}")
    }
}

/// A deterministic pseudo-random sequence.
fn lcg(seed: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(seed), |s| {
        Some(s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407))
    })
    .map(|s| s >> 33)
}

fn twin() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE nation (n_nationkey INT, n_name VARCHAR(25), n_comment VARCHAR(80)); \
         CREATE TABLE customer (c_custkey INT, c_name VARCHAR(25), c_address VARCHAR(40), \
           c_nationkey INT, c_phone VARCHAR(15), c_acctbal DECIMAL(15,2), c_score DOUBLE, \
           c_since DATE, c_comment VARCHAR(80)); \
         CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_orderdate DATE, \
           o_comment VARCHAR(80)); \
         CREATE TABLE lineitem (l_orderkey INT, l_linenumber INT, \
           l_extendedprice DECIMAL(15,2), l_discount DECIMAL(15,2), l_returnflag VARCHAR(1), \
           l_comment VARCHAR(80))",
    );
    let strs = |n: usize, f: &dyn Fn(u64) -> Option<String>| {
        ColumnBuffer::Varchar((0..n as u64).map(f).collect())
    };
    let nations = 25;
    twin.append(
        "nation",
        vec![
            ColumnBuffer::Int((0..nations as i32).collect()),
            strs(nations, &|i| (i != 24).then(|| text("N", i * 7))),
            strs(nations, &|i| Some(text("nc", i))),
        ],
    );
    // Customers 1..=300; a third of their strings repeat often.
    let customers = 300;
    let r: Vec<u64> = lcg(7).take(customers).collect();
    twin.append(
        "customer",
        vec![
            ColumnBuffer::Int((1..=customers as i32).collect()),
            strs(customers, &|i| Some(format!("Customer#{i:03}{}", text("", i % 17)))),
            strs(customers, &|i| (i % 11 != 5).then(|| text("addr", r[i as usize] % 40))),
            ColumnBuffer::Int((0..customers).map(|i| (r[i] % 26) as i32).collect()),
            strs(customers, &|i| Some(format!("{}-{}", 10 + r[i as usize] % 15, text("", i % 3)))),
            ColumnBuffer::Decimal {
                data: (0..customers).map(|i| (r[i] % 200_000) as i64 - 50_000).collect(),
                scale: 2,
            },
            ColumnBuffer::Double((0..customers).map(|i| (r[i] % 1000) as f64 / 8.0).collect()),
            ColumnBuffer::Date((0..customers).map(|i| 8000 + (r[i] % 3000) as i32).collect()),
            strs(customers, &|i| (i % 9 != 4).then(|| text("cc", r[i as usize] % 120))),
        ],
    );
    // Orders: some customers past 300 (no match), a few NULL.
    let orders = 900;
    let r: Vec<u64> = lcg(11).take(orders).collect();
    let o_custkey: Vec<i32> =
        (0..orders).map(|i| if i % 37 == 0 { i32::MIN } else { 1 + (r[i] % 340) as i32 }).collect();
    twin.append(
        "orders",
        vec![
            ColumnBuffer::Int((0..orders as i32).collect()),
            ColumnBuffer::Int(o_custkey),
            ColumnBuffer::Date((0..orders).map(|i| 8400 + (r[i] % 2400) as i32).collect()),
            strs(orders, &|i| Some(text("oc", r[i as usize] % 150))),
        ],
    );
    // Lineitems: one to five per order for most orders.
    let r: Vec<u64> = lcg(13).take(2_600).collect();
    let mut keys = (Vec::new(), Vec::new());
    for (o, &x) in (0..orders as i32).zip(&r) {
        for line in 0..(x % 6) as i32 {
            keys.0.push(o);
            keys.1.push(line + 1);
        }
    }
    let lines = keys.0.len();
    twin.append(
        "lineitem",
        vec![
            ColumnBuffer::Int(keys.0),
            ColumnBuffer::Int(keys.1),
            ColumnBuffer::Decimal {
                data: (0..lines).map(|i| 100_000 + (r[i % r.len()] % 900_000) as i64).collect(),
                scale: 2,
            },
            ColumnBuffer::Decimal { data: (0..lines).map(|i| (i % 11) as i64).collect(), scale: 2 },
            strs(lines, &|i| Some(["R", "A", "N"][(i % 3) as usize].to_string())),
            strs(lines, &|i| Some(text("lc", (i * 7) % 160))),
        ],
    );
    twin
}

/// Every lattice row gives the row store's answer to each of `sqls`, and
/// no answer is vacuously empty.
fn check(sqls: &[&str]) -> Vec<Vec<monetlite_tests::Answer>> {
    let answers = twin().check(sqls, PAYLOAD);
    for (sql, a) in sqls.iter().zip(&answers) {
        assert!(a[0].rows.len() > 1, "too few rows to compare: {sql}");
    }
    answers
}

#[test]
fn strings_carried_through_joins_match_the_row_store() {
    let sqls = [
        // Q10 shape: five VARCHAR columns through three joins, grouped.
        "SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue, \
           c_acctbal, n_name, c_address, c_phone, c_comment \
         FROM customer, orders, lineitem, nation \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
           AND o_orderdate >= DATE '1994-01-01' AND l_returnflag = 'R' \
           AND c_nationkey = n_nationkey \
         GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
         ORDER BY revenue DESC, c_custkey",
        // The same chain's payload, row by row.
        "SELECT o_orderkey, l_linenumber, c_name, c_address, c_phone, c_comment, n_name, \
           l_comment \
         FROM customer, orders, lineitem, nation \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND c_nationkey = n_nationkey",
        // GROUP BY and MIN/MAX over carried strings, ordered by them.
        "SELECT n_name, c_phone, count(*), min(c_comment), max(o_comment) \
         FROM customer, orders, nation \
         WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey \
         GROUP BY n_name, c_phone ORDER BY n_name, c_phone",
        "SELECT c_comment, o_orderkey, n_comment FROM customer, orders, nation \
         WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey \
         ORDER BY c_comment DESC, o_orderkey",
    ];
    check(&sqls);
}

#[test]
fn left_join_pads_every_build_type_with_null() {
    let sqls = [
        "SELECT o_orderkey, c_name, c_nationkey, c_acctbal, c_score, c_since, c_comment \
         FROM orders LEFT JOIN customer ON o_custkey = c_custkey",
        // A residual over strings: failing matches pad too.
        "SELECT o_orderkey, c_name, c_acctbal, c_score, c_address \
         FROM orders LEFT JOIN customer ON o_custkey = c_custkey AND c_comment < o_comment",
        // Padded strings sort first and group as one NULL.
        "SELECT c_comment, o_orderkey FROM orders LEFT JOIN customer ON o_custkey = c_custkey \
         ORDER BY c_comment, o_orderkey",
        "SELECT c_address, count(*), sum(c_acctbal), min(o_comment) \
         FROM orders LEFT JOIN customer ON o_custkey = c_custkey \
         GROUP BY c_address ORDER BY c_address",
    ];
    let answers = check(&sqls);
    // Unmatched and NULL customer keys are in the data: the padding ran.
    let padded = answers[0][0].rows.iter().filter(|r| r[1].is_null()).count();
    assert!(padded > 50, "expected padded rows, got {padded}");
}

#[test]
fn semi_and_anti_joins_with_string_residuals_match_the_row_store() {
    let sqls = [
        "SELECT o_orderkey, o_comment FROM orders WHERE EXISTS \
         (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_comment <> o_comment)",
        "SELECT o_orderkey, o_comment FROM orders WHERE NOT EXISTS \
         (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_comment > o_comment)",
        "SELECT c_name, c_comment FROM customer WHERE c_custkey IN \
         (SELECT o_custkey FROM orders WHERE o_comment LIKE '%é%')",
        "SELECT c_custkey, c_phone FROM customer WHERE NOT EXISTS \
         (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_comment <> c_name) \
         ORDER BY c_phone, c_custkey",
    ];
    check(&sqls);
}

#[test]
fn sorted_join_output_spills_only_the_strings_it_holds() {
    // ORDER BY over joins whose build side carries the customer table's
    // strings, under a budget that makes the sort spill runs. The build
    // columns share the table's heaps; a sort worker re-interns a column
    // that would pin more than `MAX_HEAP_PIN_RATIO` times its rows' bytes
    // and charges a shared heap once, and a spill frame re-interns by the
    // same rule. Without those rules every vector is charged, and every
    // frame writes, the tables' whole heaps, and the sort spills more
    // runs and more bytes than pinned here.
    let twin = twin();
    let cases = [
        (
            "SELECT o_orderkey, c_name, c_comment FROM orders, customer \
             WHERE o_custkey = c_custkey ORDER BY o_orderkey",
            (3, 55_544),
        ),
        (
            "SELECT o_orderkey, c_comment, c_address FROM orders \
             LEFT JOIN customer ON o_custkey = c_custkey ORDER BY o_orderkey",
            (1, 26_919),
        ),
    ];
    for (sql, pinned_spill) in cases {
        let (want, _) = run_pinned(&twin.db, sql, pinned(1, 64));
        let want = image(&rows_of(&want));
        for threads in [1, 2] {
            let opts = ExecOptions { memory_budget: 16 * 1024, ..pinned(threads, 64) };
            let (got, counters) = run_pinned(&twin.db, sql, opts);
            assert!(image(&rows_of(&got)) == want, "threads={threads}: {sql}");
            let spill = (counters.spilled_partitions, counters.spill_bytes);
            if threads == 1 {
                assert_eq!(spill, pinned_spill, "runs and bytes spilled: {sql}");
            } else {
                assert!(spill.0 > 0, "threads={threads}: the sort must spill: {sql}");
            }
        }
    }
}
