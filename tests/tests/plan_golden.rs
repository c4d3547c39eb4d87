//! Plan-snapshot golden tests: the full EXPLAIN text (relational tree,
//! `-- stats` estimates, pipeline decomposition, MAL program) of all 22
//! TPC-H queries is rendered over the fixed golden corpus and compared
//! byte-for-byte against `tests/golden/plans/qNN.txt`.
//!
//! Any optimizer change — join order, selectivity model, build-side
//! choice, push-down — now shows up as a reviewable plan diff instead of
//! silently altering execution. Regeneration is gated exactly like the
//! answer goldens:
//!
//! ```sh
//! MONETLITE_BLESS=1 cargo test -p monetlite-tests --test plan_golden
//! ```
//!
//! Execution options are pinned to literals (one thread, 65,536-row
//! vectors, caches off) and the optimizer runs with its default flags, so
//! the rendered plans do not depend on the shipped cache settings.

use monetlite::opt::OptFlags;
use monetlite_tests::{
    blessing, connect_pinned, golden_path, pinned, tpch_db, tpch_slice_matches_goldens,
    with_tpch_views, TpchTest,
};
use monetlite_tpch::queries;

/// EXPLAIN's morsel counts and spill annotations depend on the execution
/// shape, so it is pinned; the caches are off so cache-status tags never
/// reach the rendered plan snapshots.
fn connect() -> monetlite::Connection {
    connect_pinned(tpch_db(), pinned(1, 64 * 1024))
}

fn explain_text(conn: &mut monetlite::Connection, n: usize) -> String {
    let r = with_tpch_views(tpch_db(), || conn.query(&format!("EXPLAIN {}", queries::sql(n))))
        .unwrap_or_else(|e| panic!("EXPLAIN Q{n}: {e}"));
    let mut out = String::new();
    for i in 0..r.nrows() {
        out.push_str(&r.value(i, 0).to_string());
        out.push('\n');
    }
    out
}

#[test]
fn all_22_plans_match_golden_snapshots() {
    let bless = blessing();
    let mut conn = connect();
    let mut failures = Vec::new();
    for (n, _) in queries::all() {
        let got = explain_text(&mut conn, n);
        assert!(got.contains("-- relational plan"), "Q{n}: no plan section");
        assert!(got.contains("-- stats"), "Q{n}: no stats section");
        assert!(got.contains("est_rows="), "Q{n}: no estimates");
        let path = golden_path(&format!("plans/q{n:02}.txt"));
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            eprintln!("blessed {} ({} lines)", path.display(), got.lines().count());
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("Q{n}: missing plan golden {} ({e}); run with MONETLITE_BLESS=1", path.display())
        });
        if got != want {
            let at = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map(|i| {
                    format!(
                        "first diff at line {}:\n  got:  {}\n  want: {}",
                        i,
                        got.lines().nth(i).unwrap_or("<eof>"),
                        want.lines().nth(i).unwrap_or("<eof>")
                    )
                })
                .unwrap_or_else(|| {
                    format!(
                        "line counts differ: got {}, want {}",
                        got.lines().count(),
                        want.lines().count()
                    )
                });
            failures.push(format!("Q{n}: {at}"));
        }
    }
    assert!(failures.is_empty(), "plan golden mismatches:\n{}", failures.join("\n"));
}

/// The join-heavy queries must place the filtered small side first under
/// real statistics: with build-side selection disabled (it deliberately
/// re-roots the tree so facts stream through probes), the deepest-left
/// relation of the ordered join tree is the selective dimension, not a
/// fact table left to luck.
#[test]
fn join_heavy_queries_lead_with_the_filtered_small_side() {
    let mut conn = connect();
    conn.set_opt_flags(OptFlags { build_side: false, ..OptFlags::default() });
    for (n, lead, filter_frag) in [
        // Q5: r_name = 'ASIA' over the 5-row region table.
        (5, "region", "'ASIA'"),
        // Q8: the filtered region again (the part filter is 1/ndv-tight
        // but part is 200× larger).
        (8, "region", "'AMERICA'"),
    ] {
        let text = explain_text(&mut conn, n);
        let tree: Vec<&str> = text.lines().take_while(|l| !l.starts_with("-- stats")).collect();
        let first_scan = tree
            .iter()
            .find(|l| l.trim_start().starts_with("scan"))
            .unwrap_or_else(|| panic!("Q{n}: no scan in plan"));
        assert!(
            first_scan.contains(lead),
            "Q{n}: expected '{lead}' to lead the join tree, got: {first_scan}\n{}",
            tree.join("\n")
        );
        assert!(
            first_scan.contains(filter_frag),
            "Q{n}: leading scan should carry its filter: {first_scan}"
        );
    }
    // Q9 has no tiny filtered dimension — its selective anchors are the
    // LIKE-filtered part table and the two-key lineitem⋈partsupp join.
    // Lock in that part joins early (before supplier/nation) and that the
    // unfiltered orders table — which contributes nothing selective —
    // joins last instead of being left to luck.
    let text = explain_text(&mut conn, 9);
    let tree: Vec<&str> = text.lines().take_while(|l| !l.starts_with("-- stats")).collect();
    let scans: Vec<&&str> = tree.iter().filter(|l| l.trim_start().starts_with("scan")).collect();
    let pos = |t: &str| {
        scans.iter().position(|l| l.contains(t)).unwrap_or_else(|| panic!("Q9: no scan of {t}"))
    };
    assert!(
        scans[pos("part ")].contains("green"),
        "Q9: part scan should carry its LIKE filter: {}",
        scans[pos("part ")]
    );
    assert!(
        pos("part ") < pos("supplier") && pos("part ") < pos("nation"),
        "Q9: filtered part must join before the unfiltered dimensions:\n{}",
        tree.join("\n")
    );
    assert_eq!(
        pos("orders"),
        scans.len() - 1,
        "Q9: the unselective orders table must join last:\n{}",
        tree.join("\n")
    );
}

/// The early-reduction rewrites land where they pay, under real
/// statistics: Q18's selective `IN (… having sum > 300)` probes orders
/// alone, Q21's unselective EXISTS stays above its cluster (forced down,
/// it would probe all of l1 and drop nothing), Q7's nation-pair
/// disjunction filters
/// both nation scans, and Q13's `o_comment` is read by its filter only.
#[test]
fn early_reduction_shapes_on_q7_q13_q18_q21() {
    let mut conn = connect();
    let tree = |conn: &mut monetlite::Connection, n: usize| -> Vec<String> {
        explain_text(conn, n)
            .lines()
            .skip(1)
            .take_while(|l| !l.starts_with("--"))
            .map(str::to_string)
            .collect()
    };
    // The line right below a join is its probe (left) input.
    let probe_of = |tree: &[String], join: &str| -> String {
        let at = tree
            .iter()
            .position(|l| l.trim_start().starts_with(join))
            .unwrap_or_else(|| panic!("no '{join}' in:\n{}", tree.join("\n")));
        tree[at + 1].trim_start().to_string()
    };
    let q18 = tree(&mut conn, 18);
    assert!(
        probe_of(&q18, "semi join").starts_with("scan orders"),
        "Q18: the IN must probe orders alone:\n{}",
        q18.join("\n")
    );
    let q21 = tree(&mut conn, 21);
    assert!(
        !probe_of(&q21, "semi join").starts_with("scan"),
        "Q21: the EXISTS must stay above the join cluster:\n{}",
        q21.join("\n")
    );
    let q7 = tree(&mut conn, 7);
    let nations: Vec<&String> =
        q7.iter().filter(|l| l.trim_start().starts_with("scan nation")).collect();
    assert_eq!(nations.len(), 2, "Q7:\n{}", q7.join("\n"));
    for scan in nations {
        assert!(
            scan.contains("where") && scan.contains("'FRANCE'") && scan.contains("'GERMANY'"),
            "Q7: each nation scan must carry the derived filter: {scan}"
        );
    }
    let q13 = tree(&mut conn, 13);
    let orders = q13
        .iter()
        .find(|l| l.trim_start().starts_with("scan orders"))
        .unwrap_or_else(|| panic!("Q13:\n{}", q13.join("\n")));
    assert!(
        orders.contains("cols=[0, 1] filter-only=[8]"),
        "Q13: o_comment must be read by its filter only: {orders}"
    );
}

/// Answers with DP join ordering ablated: the greedy fallback must still
/// return the golden answers for all 22 queries (plans may differ,
/// results may not).
#[test]
fn greedy_fallback_matches_answer_goldens() {
    tpch_slice_matches_goldens(TpchTest::Greedy);
}
