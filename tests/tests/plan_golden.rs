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
//! Execution options and optimizer flags are pinned to literals (not
//! `Default::default()`) so the CI env matrix (threads / vector size /
//! candidates / join-order ablations) cannot change the rendered plans.

use monetlite::exec::{ExecMode, ExecOptions};
use monetlite::opt::OptFlags;
use monetlite_tpch::{generate, load_monet, queries};
use std::path::PathBuf;

const GOLDEN_SF: f64 = 0.02;
const GOLDEN_SEED: u64 = 20260727;

fn golden_path(n: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("plans")
        .join(format!("q{n:02}.txt"))
}

/// Fully pinned execution shape: EXPLAIN's morsel counts and spill
/// annotations depend on these, so they must not follow the environment.
fn pinned_exec() -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Streaming,
        threads: 1,
        vector_size: 64 * 1024,
        mitosis_min_rows: 64 * 1024,
        use_imprints: true,
        use_hash_index: true,
        use_order_index: true,
        timeout: None,
        memory_budget: usize::MAX,
        spill_quota: usize::MAX,
        use_dict: true,
        // Caches pinned off: cache-status tags must never reach the
        // rendered plan snapshots.
        use_plan_cache: false,
        use_result_cache: false,
        plan_cache_bytes: 0,
        result_cache_bytes: 0,
    }
}

/// Fully pinned optimizer flags (cost-based DP ordering on).
fn pinned_flags() -> OptFlags {
    OptFlags {
        pushdown: true,
        join_order: true,
        join_dp: true,
        topn: true,
        fold: true,
        build_side: true,
    }
}

fn explain_text(conn: &mut monetlite::Connection, n: usize) -> String {
    if let Some(s) = queries::setup_sql(n) {
        conn.execute(s).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
    }
    let r = conn
        .query(&format!("EXPLAIN {}", queries::sql(n)))
        .unwrap_or_else(|e| panic!("EXPLAIN Q{n}: {e}"));
    if let Some(s) = queries::teardown_sql(n) {
        conn.execute(s).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
    }
    let mut out = String::new();
    for i in 0..r.nrows() {
        out.push_str(&r.value(i, 0).to_string());
        out.push('\n');
    }
    out
}

fn connect_pinned(db: &monetlite::Database) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(pinned_exec());
    conn.set_opt_flags(pinned_flags());
    conn
}

#[test]
fn all_22_plans_match_golden_snapshots() {
    let bless = std::env::var("MONETLITE_BLESS").as_deref() == Ok("1");
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    let mut conn = connect_pinned(&db);
    let mut failures = Vec::new();
    for (n, _) in queries::all() {
        let got = explain_text(&mut conn, n);
        assert!(got.contains("-- relational plan"), "Q{n}: no plan section");
        assert!(got.contains("-- stats"), "Q{n}: no stats section");
        assert!(got.contains("est_rows="), "Q{n}: no estimates");
        let path = golden_path(n);
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
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    let mut conn = connect_pinned(&db);
    conn.set_opt_flags(OptFlags { build_side: false, ..pinned_flags() });
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
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    let mut conn = connect_pinned(&db);
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

/// Answer sweep with DP ordering ablated: the greedy fallback must still
/// produce byte-identical answers for all 22 queries (plans may differ —
/// results may not). Mirrors the `MONETLITE_JOINORDER=0` CI leg.
#[test]
fn greedy_fallback_matches_answer_goldens() {
    if std::env::var("MONETLITE_BLESS").as_deref() == Ok("1") {
        return; // answer goldens are blessed by tpch_golden.rs
    }
    let data = generate(GOLDEN_SF, GOLDEN_SEED);
    let db = monetlite::Database::open_in_memory();
    let mut load_conn = db.connect();
    load_monet(&mut load_conn, &data).unwrap();
    let mut conn = connect_pinned(&db);
    conn.set_opt_flags(OptFlags { join_dp: false, ..pinned_flags() });
    for (n, sql) in queries::all() {
        if let Some(s) = queries::setup_sql(n) {
            conn.execute(s).unwrap_or_else(|e| panic!("Q{n} setup: {e}"));
        }
        let r = conn.query(sql).unwrap_or_else(|e| panic!("Q{n} (greedy): {e}"));
        if let Some(s) = queries::teardown_sql(n) {
            conn.execute(s).unwrap_or_else(|e| panic!("Q{n} teardown: {e}"));
        }
        let got = monetlite_tests::fmt_golden_rows(&r);
        let want_path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("q{n:02}.tbl"));
        let want = std::fs::read_to_string(&want_path).expect("answer goldens checked in");
        assert_eq!(got, want, "Q{n}: greedy join order changed the answer");
    }
}
