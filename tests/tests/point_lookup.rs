//! Point lookups through the automatic hash index ≡ the row store.
//!
//! Two access paths read a column's hash index, both decided at run time
//! from the column's statistics:
//! * a **point select** (`col = literal` on an INT, BIGINT, DATE or
//!   DECIMAL column) takes the rows of the key's hash chain, clipped to
//!   the morsel and verified, when the column averages at most 64 rows
//!   per distinct value;
//! * an **index nested-loop join** probes a bare probe scan's key column
//!   with the keys of a build side of at most one row per 64 distinct
//!   probe keys, and gathers only the matching probe rows; more pairs
//!   than 1/64 of the probe rows (a skewed key) fall back to the hash
//!   join.
//!
//! The corpus is the twelve statement shapes of the benchmark's ad-hoc
//! workload with fixed literals, over small TPC-H-like tables, plus
//! absent, NULL and duplicate keys, a skewed key, DATE, DECIMAL and
//! BIGINT keys, a table with a deleted row (no index path may serve it),
//! a join residual, and semi joins with and without one. Every lattice
//! row must give the row store's answer; the lattice's 1024-row rows and
//! the 333-row tiny class cut every table into several morsels, so
//! index candidates are clipped to each morsel.

use monetlite::opt::StatsMode;
use monetlite_tests::{Answer, Corpus, Twin, LATTICE};
use monetlite_types::nulls::{NULL_I32, NULL_I64};
use monetlite_types::ColumnBuffer;

/// Comma joins need push-down: without it `orders o1, orders o2` is a
/// nine-million-row cross product.
const CORPUS: Corpus = Corpus { tiny: 333, seed: 0, cross_products: false };

const CUSTOMERS: i32 = 1500;
const ORDERS: i32 = 3000;
const PARTS: i32 = 2000;
const SUPPLIERS: i32 = 100;

/// Days from 1970-01-01 to 1992-01-01.
const EPOCH_1992: i32 = 8035;

fn dec(data: Vec<i64>) -> ColumnBuffer {
    ColumnBuffer::Decimal { data, scale: 2 }
}

fn text(n: i32, f: impl Fn(i32) -> String) -> ColumnBuffer {
    ColumnBuffer::Varchar((0..n).map(|i| Some(f(i))).collect())
}

/// The customer table's columns. Every 97th key is NULL.
fn customer_cols() -> Vec<ColumnBuffer> {
    let n = CUSTOMERS;
    vec![
        ColumnBuffer::Int((0..n).map(|i| if i % 97 == 50 { NULL_I32 } else { i + 1 }).collect()),
        text(n, |i| format!("Customer#{i:09}")),
        dec((0..n).map(|i| (i as i64 * 7919) % 2_000_000 - 100_000).collect()),
        text(n, |i| ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD"][i as usize % 4].into()),
    ]
}

/// Tables shaped like TPC-H's: sparse order keys (4, 8, 12, ...), one to
/// seven lines per order, three or so orders per customer, every 89th
/// order without a customer, 500 duplicated order prices, and a fifth of
/// all lines on part 1 (the skewed key). `cust_del` is `customer` with
/// one row deleted. `o_totalprice` is DECIMAL(18,2), a literal's own
/// type; `c_acctbal` and `p_retailprice` are DECIMAL(15,2). A literal of
/// the column's scale compares with the bare column whatever its declared
/// width, so an index serves all three.
fn database() -> Twin {
    let twin = Twin::default();
    twin.script(
        "CREATE TABLE customer (c_custkey INT, c_name VARCHAR(25), c_acctbal DECIMAL(15,2), \
                                c_mktsegment VARCHAR(10)); \
         CREATE TABLE cust_del (c_custkey INT, c_name VARCHAR(25), c_acctbal DECIMAL(15,2), \
                                c_mktsegment VARCHAR(10)); \
         CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_totalprice DECIMAL(18,2), \
                              o_orderdate DATE, o_orderstatus VARCHAR(1), o_ref BIGINT); \
         CREATE TABLE part (p_partkey INT, p_name VARCHAR(55), p_brand VARCHAR(10), \
                            p_retailprice DECIMAL(15,2)); \
         CREATE TABLE supplier (s_suppkey INT, s_name VARCHAR(25), s_acctbal DECIMAL(15,2)); \
         CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_linenumber INT, \
                                l_quantity DECIMAL(15,2), l_extendedprice DECIMAL(15,2), \
                                l_returnflag VARCHAR(1), l_ref BIGINT); \
         CREATE TABLE partsupp (ps_partkey INT, ps_suppkey INT, ps_availqty INT);",
    );
    twin.append("customer", customer_cols());
    twin.append("cust_del", customer_cols());
    twin.script("DELETE FROM cust_del WHERE c_custkey = 7");

    let okey = |i: i32| 4 * (i + 1);
    let n = ORDERS;
    twin.append(
        "orders",
        vec![
            ColumnBuffer::Int((0..n).map(okey).collect()),
            ColumnBuffer::Int(
                (0..n).map(|i| if i % 89 == 0 { NULL_I32 } else { i * 7 % 1000 + 1 }).collect(),
            ),
            dec((0..n).map(|i| 100_000 + (i % 2500) as i64 * 7727).collect()),
            ColumnBuffer::Date((0..n).map(|i| EPOCH_1992 + i * 37 % 2400).collect()),
            text(n, |i| ["F", "O", "P"][i as usize % 3].into()),
            ColumnBuffer::Bigint((0..n).map(|i| okey(i) as i64 * 1_000_000_007).collect()),
        ],
    );

    let (mut lok, mut lpk, mut lln, mut lref) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        for line in 0..1 + i * 5 % 7 {
            let row = lok.len() as i32;
            lok.push(okey(i));
            lpk.push(if row % 5 == 0 { 1 } else { row * 13 % PARTS + 1 });
            lln.push(line + 1);
            lref.push(if row % 101 == 0 { NULL_I64 } else { okey(i) as i64 * 1_000_000_007 });
        }
    }
    let lines = lok.len() as i32;
    twin.append(
        "lineitem",
        vec![
            ColumnBuffer::Int(lok),
            ColumnBuffer::Int(lpk),
            ColumnBuffer::Int(lln),
            dec((0..lines).map(|r| (1 + r as i64 % 50) * 100).collect()),
            dec((0..lines).map(|r| (1 + r as i64 % 50) * 90_000 + r as i64 % 977).collect()),
            text(lines, |r| ["A", "N", "R"][r as usize % 3].into()),
            ColumnBuffer::Bigint(lref),
        ],
    );

    let n = PARTS;
    twin.append(
        "part",
        vec![
            ColumnBuffer::Int((1..=n).collect()),
            text(n, |i| format!("part {i}")),
            text(n, |i| format!("Brand#{}{}", i % 5 + 1, i % 3 + 1)),
            dec((0..n).map(|i| 90_000 + i as i64 * 10).collect()),
        ],
    );
    let n = SUPPLIERS;
    twin.append(
        "supplier",
        vec![
            ColumnBuffer::Int((1..=n).collect()),
            text(n, |i| format!("Supplier#{i:09}")),
            dec((0..n).map(|i| i as i64 * 1_234 - 50_000).collect()),
        ],
    );
    let n = 4 * PARTS;
    twin.append(
        "partsupp",
        vec![
            ColumnBuffer::Int((0..n).map(|i| i / 4 + 1).collect()),
            ColumnBuffer::Int((0..n).map(|i| (i / 4 + i % 4 * 25) % SUPPLIERS + 1).collect()),
            ColumnBuffer::Int((0..n).map(|i| i * 31 % 9999 + 1).collect()),
        ],
    );
    twin
}

/// The ad-hoc workload's twelve shapes, with present keys.
const TEMPLATES: [&str; 12] = [
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 40",
    "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = 77",
    "SELECT p_name, p_brand, p_retailprice FROM part WHERE p_partkey = 123",
    "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = 17",
    "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
     WHERE l_orderkey = 44 ORDER BY l_linenumber",
    "SELECT ps_suppkey, ps_availqty FROM partsupp WHERE ps_partkey = 123",
    "SELECT o_orderkey, c_name FROM orders, customer \
     WHERE o_custkey = c_custkey AND o_orderkey = 40",
    "SELECT l_linenumber, p_name FROM lineitem, part \
     WHERE l_partkey = p_partkey AND l_orderkey = 44",
    "SELECT count(*) FROM orders WHERE o_custkey = 77",
    "SELECT o_orderstatus, count(*) FROM orders WHERE o_custkey = 77 \
     GROUP BY o_orderstatus ORDER BY o_orderstatus",
    "SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem WHERE l_partkey = 123 \
     GROUP BY l_returnflag ORDER BY l_returnflag",
    "SELECT count(*), sum(o_totalprice) FROM orders \
     WHERE o_orderdate >= date '1994-03-01' AND o_orderdate < date '1994-03-08'",
];

/// Point selects the hash index serves (duplicate and in-range absent
/// keys, DATE, DECIMAL(18,2), DECIMAL(15,2) and BIGINT keys).
const HASH_SELECTS: [&str; 8] = [
    "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = 41",
    "SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_partkey = 1",
    "SELECT o_orderkey, o_orderstatus FROM orders WHERE o_orderdate = date '1992-01-01'",
    "SELECT o_orderkey, o_orderdate FROM orders WHERE o_totalprice = 1772.70",
    "SELECT p_partkey, p_name FROM part WHERE p_retailprice = 912.30",
    "SELECT c_custkey, c_name FROM customer WHERE c_acctbal = -604.05",
    "SELECT o_orderkey FROM orders WHERE o_ref = 40000000280",
    "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_ref = 44000000308",
];

/// Joins the index nested-loop join serves: absent and NULL build keys,
/// duplicate build and probe keys, DATE, DECIMAL and BIGINT keys, a
/// residual, and semi joins with and without one (orders 8 and 4008 share
/// customer 8: the semi join keeps it once).
const INDEX_JOINS: [&str; 11] = [
    "SELECT o_orderkey, c_name FROM orders, customer \
     WHERE o_custkey = c_custkey AND o_orderkey = 41",
    "SELECT o_orderkey, c_name FROM orders, customer \
     WHERE o_custkey = c_custkey AND o_orderkey = 4",
    "SELECT o_orderkey, o_totalprice, l_linenumber FROM orders, lineitem \
     WHERE o_orderkey = l_orderkey AND l_orderkey = 20",
    "SELECT o1.o_orderkey, o2.o_orderkey FROM orders o1, orders o2 \
     WHERE o1.o_orderdate = o2.o_orderdate AND o2.o_orderkey = 400",
    "SELECT o1.o_orderkey, o1.o_custkey FROM orders o1, orders o2 \
     WHERE o1.o_totalprice = o2.o_totalprice AND o2.o_orderkey = 44",
    "SELECT l_linenumber, o_totalprice FROM lineitem, orders \
     WHERE l_ref = o_ref AND o_orderkey = 44",
    "SELECT l_linenumber, l_quantity, o_totalprice FROM lineitem, orders \
     WHERE l_orderkey = o_orderkey AND o_orderkey = 40 AND l_extendedprice * 10 > o_totalprice",
    "SELECT count(*), sum(l_quantity) FROM lineitem, part \
     WHERE l_partkey = p_partkey AND p_name = 'part 5'",
    "SELECT c_custkey, c_name FROM customer WHERE c_custkey IN \
     (SELECT o_custkey FROM orders WHERE o_orderdate = date '1992-01-01')",
    "SELECT c_custkey, c_name FROM customer WHERE c_custkey IN \
     (SELECT o_custkey FROM orders WHERE o_orderkey = 8 OR o_orderkey = 4008)",
    "SELECT c_custkey, c_acctbal FROM customer WHERE EXISTS (SELECT * FROM orders \
     WHERE o_custkey = c_custkey AND o_orderkey < 60 AND o_totalprice > c_acctbal)",
];

/// Point selects the hash index may not serve: on the table with a
/// deleted row, with a NULL literal, on a low-cardinality column (seven
/// line numbers over 12k lines), and keys outside the column's range,
/// which the zonemap skips before any index is read.
const NO_HASH_SELECTS: [&str; 5] = [
    "SELECT c_name, c_acctbal FROM cust_del WHERE c_custkey = 77",
    "SELECT count(*) FROM orders WHERE o_custkey = NULL",
    "SELECT count(*) FROM lineitem WHERE l_linenumber = 3",
    "SELECT c_name FROM customer WHERE c_custkey = 5000",
    "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_partkey = 99999",
];

/// Joins the index nested-loop join may not serve: a probe table with a
/// deleted row, and the skewed key (a fifth of lineitem matches part 1,
/// so the pairs pass the bound and the hash join runs).
const NO_INDEX_JOINS: [&str; 2] = [
    "SELECT o_orderkey, c_name FROM orders, cust_del \
     WHERE o_custkey = c_custkey AND o_orderkey = 40",
    "SELECT count(*), sum(l_quantity) FROM lineitem, part \
     WHERE l_partkey = p_partkey AND p_name = 'part 0'",
];

/// The answers of one group of statements, and the sum of one counter
/// over the group per lattice row.
fn sums(answers: &[Vec<Answer>], counter: fn(&Answer) -> u64) -> Vec<u64> {
    (0..LATTICE.len()).map(|r| answers.iter().map(|a| counter(&a[r])).sum()).collect()
}

#[test]
fn point_lookups_agree_with_the_row_store_on_every_lattice_row() {
    let twin = database();
    let checked = |sqls: &[&str]| twin.check(sqls, CORPUS);
    let (templates, selects) = (checked(&TEMPLATES), checked(&HASH_SELECTS));
    let joins = checked(&INDEX_JOINS);
    let (no_selects, no_joins) = (checked(&NO_HASH_SELECTS), checked(&NO_INDEX_JOINS));
    let hash_selects = |a: &Answer| a.counters.hash_selects;
    let index_joins = |a: &Answer| a.counters.hash_index_joins;

    for (r, row) in LATTICE.iter().enumerate() {
        let on = row.exec.use_hash_index;
        let label = row.label;
        // No table here holds more than one 64Ki-row vector, so on the
        // rows with such vectors (at one, two and four threads) every
        // pipeline runs as one whole morsel: small sources never fan out.
        if row.exec.vector_size == 64 * 1024 {
            for (sql, answers) in TEMPLATES.iter().zip(&templates) {
                let c = &answers[r].counters;
                assert_eq!(c.morsels, c.pipelines, "{label}: {sql}: {c:?}");
            }
        }
        for (name, group) in [("templates", &templates), ("selects", &selects), ("joins", &joins)] {
            let (s, j) = (sums(group, hash_selects)[r], sums(group, index_joins)[r]);
            if !on {
                assert_eq!((s, j), (0, 0), "{label}: the hash index is off ({name})");
            }
        }
        if !on {
            continue;
        }
        assert!(sums(&templates, hash_selects)[r] > 0, "{label}: no template read the index");
        assert!(sums(&templates, index_joins)[r] > 0, "{label}: no template probed the index");
        // Every point select of the hash group reads the index; with real
        // statistics every join's tiny side is its build side, so every
        // join of the index group probes the index.
        for (sql, answers) in HASH_SELECTS.iter().zip(&selects) {
            assert!(answers[r].counters.hash_selects > 0, "{label}: {sql}");
            assert_eq!(answers[r].counters.imprint_selects, 0, "{label}: {sql}");
        }
        if matches!(row.stats, StatsMode::Real) {
            for (sql, answers) in INDEX_JOINS.iter().zip(&joins) {
                assert!(answers[r].counters.hash_index_joins > 0, "{label}: {sql}");
            }
        }
    }
    for (sql, answers) in NO_HASH_SELECTS.iter().zip(&no_selects) {
        for a in answers {
            assert_eq!(a.counters.hash_selects, 0, "{}: {sql}", a.label);
        }
    }
    for (sql, answers) in NO_INDEX_JOINS.iter().zip(&no_joins) {
        for a in answers {
            assert_eq!(a.counters.hash_index_joins, 0, "{}: {sql}", a.label);
        }
    }
}
