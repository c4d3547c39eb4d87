//! Randomised cross-engine parity: generated predicates/aggregations must
//! return the row store's results on every configuration of the lattice.

use monetlite_tests::{Corpus, Twin};
use monetlite_types::ColumnBuffer;
use proptest::prelude::*;

/// 300 rows: seven-row vectors split them into ~43 morsels, and the
/// self-join's cross product would hold 90k rows.
const CORPUS: Corpus = Corpus { tiny: 7, seed: 0, cross_products: false };

fn setup(seed: i32) -> Twin {
    let n = 300;
    let twin = Twin::default();
    twin.script("CREATE TABLE t (a INT, b VARCHAR(8), c DOUBLE)");
    twin.append(
        "t",
        vec![
            ColumnBuffer::Int((0..n).map(|i| (i * seed.wrapping_add(7)) % 50).collect()),
            ColumnBuffer::Varchar(
                (0..n)
                    .map(|i| if i % 11 == 0 { None } else { Some(format!("s{}", i % 13)) })
                    .collect(),
            ),
            ColumnBuffer::Double((0..n).map(|i| (i as f64) * 0.25).collect()),
        ],
    );
    twin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filters_agree(k in -10i32..60, op in 0usize..4, seed in 1i32..5) {
        let ops = ["<", "<=", ">", "="];
        let sql = format!("SELECT a, c FROM t WHERE a {} {} ORDER BY a, c", ops[op], k);
        setup(seed).check(&[&sql], CORPUS);
    }

    #[test]
    fn aggregates_agree(lo in 0i32..40, seed in 1i32..5) {
        let sql = format!(
            "SELECT b, count(*), sum(a), avg(c), min(a), max(c) FROM t \
             WHERE a >= {lo} GROUP BY b ORDER BY b"
        );
        setup(seed).check(&[&sql], CORPUS);
    }

    #[test]
    fn like_and_null_predicates_agree(pct in 0usize..3, seed in 1i32..5) {
        let pat = ["s1%", "%2", "s_"][pct];
        let sql = format!(
            "SELECT count(*) FROM t WHERE b LIKE '{pat}' OR b IS NULL"
        );
        setup(seed).check(&[&sql], CORPUS);
    }

    #[test]
    fn self_join_agrees(k in 0i32..20, seed in 1i32..4) {
        let sql = format!(
            "SELECT count(*) FROM t x, t y WHERE x.a = y.a AND x.a < {k}"
        );
        setup(seed).check(&[&sql], CORPUS);
    }
}

#[test]
fn distinct_and_topn_agree() {
    setup(3).check(
        &[
            "SELECT DISTINCT b FROM t ORDER BY b",
            "SELECT a, c FROM t ORDER BY c DESC, a LIMIT 7",
            "SELECT b, sum(a) AS s FROM t GROUP BY b HAVING sum(a) > 100 ORDER BY s DESC, b",
        ],
        CORPUS,
    );
}
