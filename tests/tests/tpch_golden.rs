//! Golden-answer harness and the TPC-H corpus of the configuration
//! lattice: all 22 TPC-H queries run at a fixed scale factor and seed,
//! under every lattice row, and their formatted output must match the
//! checked-in answer files byte for byte (`tests/golden/q01.tbl` …
//! `q22.tbl`). The rows are split between this file and the parity
//! suites of the axes they vary (each row's `tpch` column in
//! `monetlite_tests::LATTICE`).
//!
//! The files were generated once by this harness (Q1/Q6/Q14 reviewed by
//! hand against the spec's arithmetic — see `tpch_validation.rs` for the
//! straight-line recomputations) and lock the semantics in: any later
//! engine change (pipeline, spill, candidates, optimizer, caches) that
//! alters a result under any configuration fails here. Regeneration is
//! deliberately gated:
//!
//! ```sh
//! MONETLITE_BLESS=1 cargo test -p monetlite-tests --test tpch_golden
//! ```

use monetlite_tests::{
    blessing, check_shape, fmt_golden_rows, golden_answer, tpch_data, tpch_slice_matches_goldens,
    TpchTest,
};
use monetlite_tpch::{load_monet, queries};

/// The shipped defaults, and the row without column statistics, return
/// the golden answers; the defaults also check EXPLAIN and the spec's
/// shapes, and are what blessing writes.
#[test]
fn all_22_queries_match_golden_answers() {
    tpch_slice_matches_goldens(TpchTest::Golden);
}

#[test]
fn golden_corpus_is_nontrivial() {
    // The corpus must actually exercise the queries: most answers are
    // non-empty at the golden scale factor, so an engine regression that
    // silently returns nothing cannot hide behind an empty golden file.
    if blessing() {
        return;
    }
    let nonempty = queries::all().filter(|(n, _)| !golden_answer(*n).trim().is_empty()).count();
    assert!(nonempty >= 18, "only {nonempty}/22 golden answers are non-empty");
}

#[test]
fn inherited_operator_budget_keeps_spill_partitions_bounded() {
    // With `memory_budget` unset the executor inherits what the resident
    // columns leave of the vmem budget. After a few queries that can be
    // next to nothing, and a breaker whose budget is ~0 spills at the
    // widest fan-out, one tiny file per partition (when oversized
    // partitions were still split again, Q4 and Q7 wrote tens of
    // thousands of them). The inherited budget is floored at a share of
    // the vmem budget, so the same runs stay within a few hundred
    // partitions — and still return the golden answers.
    if blessing() {
        return;
    }
    let data = tpch_data();
    let dir = tempfile::tempdir().unwrap();
    {
        let db = monetlite::Database::open(dir.path()).unwrap();
        load_monet(&mut db.connect(), data).unwrap();
        db.checkpoint().unwrap();
    }
    for divisor in [8, 6] {
        let db = monetlite::Database::open_with(monetlite::DbOptions {
            path: Some(dir.path().to_path_buf()),
            vmem_budget: data.bytes() / divisor,
            ..Default::default()
        })
        .unwrap();
        // The shipped options set no operator budget: the executor
        // inherits one.
        let mut conn = db.connect();
        // In query order, so each query inherits its predecessors'
        // resident columns.
        for n in 1..=7 {
            let r = conn.query(queries::sql(n)).unwrap_or_else(|e| panic!("Q{n}: {e}"));
            if n == 4 || n == 7 {
                let c = conn.last_exec_counters().expect("counters");
                assert!(
                    c.spilled_partitions < 1_100,
                    "Q{n} at vmem_budget = bytes/{divisor}: {} spill partitions",
                    c.spilled_partitions
                );
                assert_eq!(
                    fmt_golden_rows(&r),
                    golden_answer(n),
                    "Q{n} at vmem_budget = bytes/{divisor}"
                );
            }
            check_shape(&mut conn, n, &r);
        }
    }
}
