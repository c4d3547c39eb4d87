//! Golden-answer harness: all 22 TPC-H queries run at a fixed scale
//! factor and seed, and their formatted output must match the checked-in
//! answer files byte for byte (`tests/golden/q01.tbl` … `q22.tbl`).
//!
//! The files were generated once by this harness (Q1/Q6/Q14 reviewed by
//! hand against the spec's arithmetic — see `tpch_validation.rs` for the
//! straight-line recomputations) and lock the semantics in: any later
//! engine change (pipeline, spill, candidates, optimizer) that alters a
//! result fails here. Regeneration is deliberately gated:
//!
//! ```sh
//! MONETLITE_BLESS=1 cargo test -p monetlite-tests --test tpch_golden
//! ```
//!
//! DOUBLE columns are formatted at 4 decimal places: enough to catch any
//! semantic change, while tolerating the last-bit float-sum reassociation
//! of morsel-parallel aggregation under the CI thread matrix.

use monetlite_tests::fmt_golden_rows;
use monetlite_tpch::{generate, load_monet, queries};
use std::path::PathBuf;

/// Fixed golden corpus parameters. Changing either invalidates every
/// answer file — regenerate with MONETLITE_BLESS=1 and re-review.
const GOLDEN_SF: f64 = 0.02;
const GOLDEN_SEED: u64 = 20260727;

fn golden_path(n: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("q{n:02}.tbl"))
}

fn run_query(conn: &mut monetlite::Connection, n: usize) -> String {
    if let Some(s) = queries::setup_sql(n) {
        conn.execute(s).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
    }
    // EXPLAIN must render every query's plan (MAL + pipelines section).
    let ex = conn
        .query(&format!("EXPLAIN {}", queries::sql(n)))
        .unwrap_or_else(|e| panic!("EXPLAIN Q{n}: {e}"));
    assert!(ex.nrows() > 0, "EXPLAIN Q{n} produced no output");
    let r = conn.query(queries::sql(n)).unwrap_or_else(|e| panic!("Q{n}: {e}"));
    if let Some(s) = queries::teardown_sql(n) {
        conn.execute(s).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
    }
    let shape = queries::shape(n);
    assert_eq!(r.ncols(), shape.cols, "Q{n}: output arity vs spec shape");
    if let Some(cap) = shape.limit {
        assert!(r.nrows() as u64 <= cap, "Q{n}: {} rows exceed LIMIT {cap}", r.nrows());
    }
    for key in shape.key_cols {
        assert!(
            r.names().iter().any(|c| c == key),
            "Q{n}: key column '{key}' missing from {:?}",
            r.names()
        );
    }
    fmt_golden_rows(&r)
}

#[test]
fn all_22_queries_match_golden_answers() {
    let bless = std::env::var("MONETLITE_BLESS").as_deref() == Ok("1");
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut conn = db.connect();
    load_monet(&mut conn, &data).unwrap();
    let mut failures = Vec::new();
    for (n, _) in queries::all() {
        let got = run_query(&mut conn, n);
        let path = golden_path(n);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            eprintln!("blessed {} ({} rows)", path.display(), got.lines().count());
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("Q{n}: missing golden file {} ({e}); run with MONETLITE_BLESS=1", path.display())
        });
        if got != want {
            let diff_at = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map(|i| {
                    format!(
                        "first diff at row {}:\n  got:  {}\n  want: {}",
                        i,
                        got.lines().nth(i).unwrap_or("<eof>"),
                        want.lines().nth(i).unwrap_or("<eof>")
                    )
                })
                .unwrap_or_else(|| {
                    format!(
                        "row counts differ: got {}, want {}",
                        got.lines().count(),
                        want.lines().count()
                    )
                });
            failures.push(format!("Q{n}: {diff_at}"));
        }
    }
    assert!(failures.is_empty(), "golden mismatches:\n{}", failures.join("\n"));
}

#[test]
fn golden_corpus_is_nontrivial() {
    // The corpus must actually exercise the queries: most answers are
    // non-empty at the golden scale factor, so an engine regression that
    // silently returns nothing cannot hide behind an empty golden file.
    if std::env::var("MONETLITE_BLESS").as_deref() == Ok("1") {
        return;
    }
    let mut nonempty = 0;
    for (n, _) in queries::all() {
        let want = std::fs::read_to_string(golden_path(n)).expect("golden files checked in");
        if !want.trim().is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 18, "only {nonempty}/22 golden answers are non-empty");
}

#[test]
fn inherited_operator_budget_keeps_spill_partitions_bounded() {
    // With `memory_budget` unset the executor inherits what the resident
    // columns leave of the vmem budget. After a few queries that can be
    // next to nothing, and a breaker whose budget is ~0 re-partitions
    // every partition down to the depth cap: Q4 and Q7 wrote tens of
    // thousands of tiny spill files this way. The inherited budget is
    // floored at a share of the vmem budget, so the same runs stay within
    // a few hundred partitions — and still return the golden answers.
    if std::env::var("MONETLITE_BLESS").as_deref() == Ok("1") {
        return;
    }
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let dir = tempfile::tempdir().unwrap();
    {
        let db = monetlite::Database::open(dir.path()).unwrap();
        load_monet(&mut db.connect(), &data).unwrap();
        db.checkpoint().unwrap();
    }
    for divisor in [8, 6] {
        let db = monetlite::Database::open_with(monetlite::DbOptions {
            path: Some(dir.path().to_path_buf()),
            vmem_budget: data.bytes() / divisor,
            ..Default::default()
        })
        .unwrap();
        let mut conn = db.connect();
        // Unset, whatever MONETLITE_MEMORY_BUDGET the CI matrix exports.
        conn.set_exec_options(monetlite::exec::ExecOptions {
            memory_budget: usize::MAX,
            ..Default::default()
        });
        // In query order, so each query inherits its predecessors'
        // resident columns.
        for n in 1..=7 {
            let got = run_query(&mut conn, n);
            if n == 4 || n == 7 {
                let c = conn.last_exec_counters().expect("counters");
                assert!(
                    c.spilled_partitions < 1_100,
                    "Q{n} at vmem_budget = bytes/{divisor}: {} spill partitions",
                    c.spilled_partitions
                );
                let want = std::fs::read_to_string(golden_path(n)).expect("goldens checked in");
                assert_eq!(got, want, "Q{n} at vmem_budget = bytes/{divisor}");
            }
        }
    }
}
