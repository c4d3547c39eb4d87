//! MAL (Monet Assembly Language) program rendering for EXPLAIN.
//!
//! The engine executes the plan tree directly, but EXPLAIN presents it in
//! the shape MonetDB users know: a straight-line program of column-at-a-
//! time instructions over SSA registers (`X_n` value columns, `C_n`
//! candidate lists). The pipeline section before it marks where the
//! operator-at-a-time policy fans a pipeline out (paper §3.1 *Parallel
//! Execution*, Figure 2).

use crate::exec::ExecOptions;
use crate::expr::BExpr;
use crate::opt::Stats;
use crate::plan::{PJoinKind, Plan};
use std::fmt::Write;

/// Render the full EXPLAIN text: relational tree, per-operator
/// cardinality estimates (`-- stats`), the pipeline decomposition (with
/// morsel counts when `stats` are available), and the MAL program.
pub fn explain(plan: &Plan, opts: &ExecOptions, stats: Option<&dyn Stats>) -> String {
    let mut out = String::new();
    out.push_str("-- relational plan\n");
    out.push_str(&plan.render());
    if let Some(s) = stats {
        out.push_str("-- stats\n");
        render_estimates(plan, s, &mut out, 0);
    }
    out.push_str(&crate::pipeline::describe(plan, opts, stats));
    out.push_str("-- MAL program\n");
    out.push_str("function user.main():void;\n");
    let mut r = Renderer { next: 0, out: String::new() };
    let regs = r.node(plan);
    let _ = writeln!(r.out, "    sql.resultSet({});", regs.join(", "));
    out.push_str(&r.out);
    out.push_str("end user.main;\n");
    out
}

/// Cache-status trailer for EXPLAIN: one line per caching layer that
/// currently holds a valid artifact for the statement. Emitted only when
/// an artifact actually exists, so a cold cache explains identically to
/// caches-off (the plan goldens rely on that).
pub fn cache_tags(plan_cached: bool, result_cached: bool) -> String {
    let mut out = String::new();
    if plan_cached {
        out.push_str("-- [plan-cache] optimized template cached; bind+optimize skipped on hit\n");
    }
    if result_cached {
        out.push_str("-- [result-cache] result set cached; execution skipped on hit\n");
    }
    out
}

/// The `-- stats` section: one line per operator (same indentation as the
/// relational tree) with its estimated output cardinality, so a plan diff
/// shows *why* the optimizer picked a join order, not just that it did.
fn render_estimates(plan: &Plan, stats: &dyn Stats, out: &mut String, depth: usize) {
    let est = crate::opt::estimate_rows(plan, stats);
    let label = match plan {
        Plan::Scan { table, .. } => format!("scan {table}"),
        Plan::Filter { .. } => "filter".into(),
        Plan::Project { .. } => "project".into(),
        Plan::Join { kind, .. } => format!("{kind} join"),
        Plan::Aggregate { .. } => "aggregate".into(),
        Plan::Sort { .. } => "sort".into(),
        Plan::Limit { .. } => "limit".into(),
        Plan::TopN { .. } => "topn".into(),
        Plan::Values { .. } => "values".into(),
    };
    let _ = writeln!(out, "{}{label} est_rows={}", "  ".repeat(depth), est.round() as u64);
    let children: Vec<&Plan> = match plan {
        Plan::Scan { .. } | Plan::Values { .. } => vec![],
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopN { input, .. } => vec![input],
        Plan::Join { left, right, .. } => vec![left, right],
    };
    for c in children {
        render_estimates(c, stats, out, depth + 1);
    }
}

struct Renderer {
    next: usize,
    out: String,
}

impl Renderer {
    fn reg(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}_{}", self.next)
    }

    /// Emit instructions for a node; returns its output column registers.
    fn node(&mut self, plan: &Plan) -> Vec<String> {
        match plan {
            Plan::Scan { table, projected, filters, schema } => {
                let mut regs = Vec::new();
                for (i, col) in projected.iter().enumerate() {
                    let x = self.reg("X");
                    // Filter-only columns have no output name: they are
                    // bound by position and never projected.
                    let _ = match schema.get(i) {
                        Some(c) => writeln!(
                            self.out,
                            "    {x} := sql.bind(\"{table}\", \"{}\"); -- col {col}",
                            c.name
                        ),
                        None => writeln!(
                            self.out,
                            "    {x} := sql.bind(\"{table}\", {col}); -- col {col}, filter only"
                        ),
                    };
                    regs.push(x);
                }
                let mut cand: Option<String> = None;
                for f in filters {
                    let c = self.reg("C");
                    let src = cand.clone().unwrap_or_else(|| "nil".into());
                    // A select reads the first column its predicate reads
                    // (a constant predicate, the scan's first column).
                    let mut cols = Vec::new();
                    f.collect_cols(&mut cols);
                    let col = cols.first().map_or(regs.first(), |&i| regs.get(i));
                    let _ = writeln!(
                        self.out,
                        "    {c} := algebra.select({}, {src}, {});",
                        col.map_or("nil", String::as_str),
                        mal_expr(f)
                    );
                    cand = Some(c);
                }
                regs.truncate(schema.len());
                if let Some(c) = cand {
                    let mut fetched = Vec::new();
                    for r0 in &regs {
                        let x = self.reg("X");
                        let _ = writeln!(self.out, "    {x} := algebra.projection({c}, {r0});");
                        fetched.push(x);
                    }
                    regs = fetched;
                }
                regs
            }
            Plan::Filter { input, pred } => {
                let inregs = self.node(input);
                let c = self.reg("C");
                let _ = writeln!(self.out, "    {c} := algebra.select({});", mal_expr(pred));
                inregs
                    .iter()
                    .map(|r0| {
                        let x = self.reg("X");
                        let _ = writeln!(self.out, "    {x} := algebra.projection({c}, {r0});");
                        x
                    })
                    .collect()
            }
            Plan::Project { input, exprs, schema } => {
                let inregs = self.node(input);
                exprs
                    .iter()
                    .zip(schema)
                    .map(|(e, c)| {
                        let x = self.reg("X");
                        let _ = writeln!(
                            self.out,
                            "    {x} := batcalc.compute({}); -- {}",
                            mal_expr_over(e, &inregs),
                            c.name
                        );
                        x
                    })
                    .collect()
            }
            Plan::Join { left, right, kind, left_keys, right_keys, .. } => {
                let l = self.node(left);
                let r = self.node(right);
                let lc = self.reg("C");
                let rc = self.reg("C");
                let op = match kind {
                    PJoinKind::Inner => "algebra.join",
                    PJoinKind::Left => "algebra.leftjoin",
                    PJoinKind::Semi => "algebra.semijoin",
                    PJoinKind::Anti => "algebra.antijoin",
                    PJoinKind::Cross => "algebra.crossproduct",
                };
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(a, b)| format!("{}={}", mal_expr_over(a, &l), mal_expr_over(b, &r)))
                    .collect();
                let _ = writeln!(self.out, "    ({lc}, {rc}) := {op}({});", keys.join(", "));
                let mut regs = Vec::new();
                for r0 in &l {
                    let x = self.reg("X");
                    let _ = writeln!(self.out, "    {x} := algebra.projection({lc}, {r0});");
                    regs.push(x);
                }
                if !matches!(kind, PJoinKind::Semi | PJoinKind::Anti) {
                    for r0 in &r {
                        let x = self.reg("X");
                        let _ = writeln!(self.out, "    {x} := algebra.projection({rc}, {r0});");
                        regs.push(x);
                    }
                }
                regs
            }
            Plan::Aggregate { input, groups, aggs, .. } => {
                let inregs = self.node(input);
                let mut regs = Vec::new();
                let (g, e, h) = (self.reg("G"), self.reg("E"), self.reg("H"));
                if !groups.is_empty() {
                    let keys: Vec<String> =
                        groups.iter().map(|k| mal_expr_over(k, &inregs)).collect();
                    let _ = writeln!(
                        self.out,
                        "    ({g}, {e}, {h}) := group.groupdone({});",
                        keys.join(", ")
                    );
                    for k in groups {
                        let x = self.reg("X");
                        let _ = writeln!(
                            self.out,
                            "    {x} := algebra.projection({e}, {});",
                            mal_expr_over(k, &inregs)
                        );
                        regs.push(x);
                    }
                }
                for a in aggs {
                    let x = self.reg("X");
                    let blocking = matches!(a.func, crate::expr::PAggFunc::Median);
                    let _ = writeln!(
                        self.out,
                        "    {x} := aggr.{}({}{}{});{}",
                        a.func,
                        a.arg.as_ref().map(|e| mal_expr_over(e, &inregs)).unwrap_or_default(),
                        if groups.is_empty() { "" } else { ", " },
                        if groups.is_empty() { String::new() } else { format!("{g}, {e}") },
                        if blocking { " -- blocking" } else { "" }
                    );
                    regs.push(x);
                }
                regs
            }
            Plan::Sort { input, keys } => {
                let inregs = self.node(input);
                let o = self.reg("O");
                let _ = writeln!(self.out, "    {o} := algebra.sort({keys:?});");
                self.project_all(&inregs, &o)
            }
            Plan::TopN { input, keys, n } => {
                let inregs = self.node(input);
                let o = self.reg("O");
                let _ = writeln!(self.out, "    {o} := algebra.firstn({n}, {keys:?});");
                self.project_all(&inregs, &o)
            }
            Plan::Limit { input, n } => {
                let inregs = self.node(input);
                let o = self.reg("O");
                let _ = writeln!(self.out, "    {o} := algebra.slice(0, {n});");
                self.project_all(&inregs, &o)
            }
            Plan::Values { rows, schema } => schema
                .iter()
                .map(|c| {
                    let x = self.reg("X");
                    let _ = writeln!(
                        self.out,
                        "    {x} := bat.pack(\"{}\", {} row(s));",
                        c.name,
                        rows.len()
                    );
                    x
                })
                .collect(),
        }
    }

    fn project_all(&mut self, inregs: &[String], cand: &str) -> Vec<String> {
        inregs
            .iter()
            .map(|r0| {
                let x = self.reg("X");
                let _ = writeln!(self.out, "    {x} := algebra.projection({cand}, {r0});");
                x
            })
            .collect()
    }
}

fn mal_expr(e: &BExpr) -> String {
    e.to_string()
}

fn mal_expr_over(e: &BExpr, regs: &[String]) -> String {
    // Substitute register names for #n column references in the display.
    let mut s = e.to_string();
    for (i, r) in regs.iter().enumerate().rev() {
        s = s.replace(&format!("#{i}"), r);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecMode;

    /// Statistics that give every table `self.0` rows.
    struct FixedStats(usize);

    impl Stats for FixedStats {
        fn table_rows(&self, _n: &str) -> usize {
            self.0
        }
    }
    use crate::plan::OutCol;
    use monetlite_types::LogicalType;

    #[test]
    fn explain_contains_mal_sections() {
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let s = explain(&plan, &ExecOptions::default(), None);
        assert!(s.contains("-- relational plan"));
        assert!(s.contains("function user.main():void;"));
        assert!(s.contains("sql.bind(\"t\", \"a\")"));
        assert!(s.contains("end user.main;"));
        // Streaming mode renders the pipeline decomposition.
        assert!(s.contains("-- pipelines"), "{s}");
        assert!(s.contains("scan t [morsels=?]"), "{s}");
    }

    #[test]
    fn pipeline_section_shows_morsel_counts() {
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        // The morsel counts below are exact for 65,536-row vectors.
        let opts = ExecOptions { threads: 4, vector_size: 64 * 1024, ..Default::default() };
        let s = explain(&plan, &opts, Some(&FixedStats(200_000)));
        // 200_000 rows / (4·4) = 12_500, rounded up to two 8Ki zones:
        // 13 morsels of 16_384 rows.
        assert!(s.contains("scan t [morsels=13]"), "{s}");
        assert!(s.contains("threads=4"), "{s}");
        // One thread: 200_000 rows / 65_536-row vectors = 4 morsels.
        let one = explain(&plan, &ExecOptions { threads: 1, ..opts }, Some(&FixedStats(200_000)));
        assert!(one.contains("scan t [morsels=4]"), "{one}");
        // The operator-at-a-time policy passes a bare scan through as one
        // morsel, and announces no mitosis.
        let mat = ExecOptions { mode: ExecMode::Materialized, ..opts };
        let s2 = explain(&plan, &mat, Some(&FixedStats(200_000)));
        assert!(s2.contains("-- pipelines: operator-at-a-time policy"), "{s2}");
        assert!(s2.contains("scan t [morsels=1]"), "{s2}");
        assert!(!s2.contains("mitosis"), "{s2}");
    }

    /// EXPLAIN reports the streaming cut that `drive` makes at two
    /// threads: about four zone-aligned morsels per thread for a source of
    /// more than one vector, one whole morsel for a smaller one.
    #[test]
    fn explain_reports_the_thread_sized_cut() {
        let db = crate::Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script("CREATE TABLE big (a INT); CREATE TABLE small (a INT)").unwrap();
        for (table, n) in [("big", 200_000), ("small", 60_000)] {
            let rows = monetlite_types::ColumnBuffer::Int((0..n).map(|i| i % 100).collect());
            conn.append(table, vec![rows]).unwrap();
        }
        let opts = ExecOptions { threads: 2, vector_size: 64 * 1024, ..Default::default() };
        conn.set_exec_options(opts);
        // 200_000 / (4·2) = 25_000 rows, rounded up to four 8Ki zones:
        // 7 morsels of 32_768 rows.
        for (table, morsels) in [("big", 7), ("small", 1)] {
            let r = conn.query(&format!("EXPLAIN SELECT count(*) FROM {table} WHERE a < 50"));
            let r = r.unwrap();
            let text =
                (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect::<Vec<_>>().join("\n");
            assert!(text.contains(&format!("scan {table} [morsels={morsels}]")), "{text}");
        }
    }

    /// Deleted rows still occupy the morsels `drive` cuts, so EXPLAIN
    /// sizes its cut from the physical rows, not the visible ones the
    /// optimizer estimates with: 65,600 rows with 100 deleted are two
    /// 64Ki vectors at one thread, though 65,500 would fit in one.
    #[test]
    fn explain_morsels_count_deleted_rows_as_drive_does() {
        let db = crate::Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script("CREATE TABLE t (id INT, a INT)").unwrap();
        let ids = monetlite_types::ColumnBuffer::Int((0..65_600).collect());
        let vals = monetlite_types::ColumnBuffer::Int((0..65_600).map(|i| i % 100).collect());
        conn.append("t", vec![ids, vals]).unwrap();
        conn.query("DELETE FROM t WHERE id < 100").unwrap();
        // One pipeline, so the executed morsel count is the scan's.
        let sql = "SELECT id FROM t WHERE a < 50";
        for (threads, want) in [(1, Some(2)), (2, None)] {
            conn.set_exec_options(ExecOptions {
                threads,
                vector_size: 64 * 1024,
                ..Default::default()
            });
            let r = conn.query(&format!("EXPLAIN {sql}")).unwrap();
            let text =
                (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect::<Vec<_>>().join("\n");
            let explained: usize = text
                .split("scan t [morsels=")
                .nth(1)
                .and_then(|rest| rest.split(']').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no morsel count for t:\n{text}"));
            let r = conn.query(sql).unwrap();
            assert_eq!(r.nrows(), 32_750);
            let ran = conn.last_exec_counters().unwrap().morsels as usize;
            assert_eq!(explained, ran, "threads={threads}: EXPLAIN and the run disagree\n{text}");
            if let Some(want) = want {
                assert_eq!(ran, want, "threads={threads}");
            }
        }
    }

    /// EXPLAIN claims a mitosis exactly where the pipeline driver fans
    /// out: not for a table below two vectors, a probe pipeline or a
    /// DISTINCT aggregate.
    #[test]
    fn explain_claims_mitosis_only_where_a_pipeline_fans_out() {
        let db = crate::Database::open_in_memory();
        let mut conn = db.connect();
        conn.run_script(
            "CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE big (a INT);
             INSERT INTO t VALUES (1), (2), (3); INSERT INTO u VALUES (2), (3), (4)",
        )
        .unwrap();
        let rows: Vec<i32> = (0..40_000).map(|i| i % 100).collect();
        conn.append("big", vec![monetlite_types::ColumnBuffer::Int(rows)]).unwrap();
        let opts = ExecOptions { threads: 4, vector_size: 1024, ..Default::default() };
        conn.set_exec_options(ExecOptions { mode: ExecMode::Materialized, ..opts });
        let mut text = String::new();
        for (sql, fans_out) in [
            ("SELECT count(*) FROM t", false),
            ("SELECT count(*) FROM t, u WHERE a = b", false),
            ("SELECT count(DISTINCT a) FROM t", false),
            ("SELECT count(DISTINCT a) FROM big", false),
            ("SELECT a, count(*) FROM big GROUP BY a", false),
            ("SELECT count(*) FROM big, u WHERE a = b", false),
            ("SELECT count(*) FROM big", true),
        ] {
            let r = conn.query(&format!("EXPLAIN {sql}")).unwrap();
            text = (0..r.nrows()).map(|i| r.value(i, 0).to_string()).collect::<Vec<_>>().join("\n");
            assert_eq!(text.contains("-- mitosis"), fans_out, "{sql}\n{text}");
            conn.query(sql).unwrap();
            let c = conn.last_exec_counters().unwrap();
            assert_eq!(c.morsels > c.pipelines, fans_out, "{sql}: {c:?}");
        }
        // The last, 40_000 rows of 1024-row vectors: clamp(39, 2, 2·4) = 8
        // slices.
        assert!(text.contains("fans out into 8 slices over 4 threads"), "{text}");
        assert!(text.contains("scan big [morsels=8]"), "{text}");
    }

    #[test]
    fn stats_section_annotates_estimates() {
        let scan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let plan = Plan::Limit { input: Box::new(scan), n: 7 };
        let s = explain(&plan, &ExecOptions::default(), Some(&FixedStats(50_000)));
        assert!(s.contains("-- stats"), "{s}");
        assert!(s.contains("limit est_rows=7"), "{s}");
        assert!(s.contains("scan t est_rows=50000"), "{s}");
        // No stats provider, no section.
        let s2 = explain(&plan, &ExecOptions::default(), None);
        assert!(!s2.contains("-- stats"), "{s2}");
    }

    #[test]
    fn pipeline_section_tags_zonemap_eligible_scans() {
        use crate::expr::CmpOp;
        use monetlite_types::Value;
        let plan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![BExpr::Cmp {
                op: CmpOp::Lt,
                left: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                right: Box::new(BExpr::Lit(Value::Int(100))),
            }],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let s = explain(&plan, &ExecOptions::default(), None);
        assert!(s.contains("scan t [morsels=?] [zonemap]"), "{s}");
        // A LIKE filter is not a range probe: no tag either.
        let unprobed = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![BExpr::Like {
                input: Box::new(BExpr::ColRef { idx: 0, ty: LogicalType::Varchar }),
                pattern: "%x%".into(),
                negated: false,
            }],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Varchar }],
        };
        let s2 = explain(&unprobed, &ExecOptions::default(), None);
        assert!(!s2.contains("[zonemap]"), "{s2}");
    }

    #[test]
    fn explain_shows_memory_budget_and_spillable_breakers() {
        let scan = Plan::Scan {
            table: "t".into(),
            projected: vec![0],
            filters: vec![],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        let plan = Plan::Sort { input: Box::new(scan), keys: vec![(0, false)] };
        let opts = ExecOptions { memory_budget: 4096, ..Default::default() };
        let s = explain(&plan, &opts, None);
        assert!(s.contains("memory_budget=4096"), "{s}");
        assert!(s.contains("external merge [spillable]"), "{s}");
        // Without a budget the header stays clean and the sort is the
        // plain blocking operator.
        let s2 = explain(&plan, &ExecOptions::default(), None);
        assert!(!s2.contains("memory_budget"), "{s2}");
        assert!(s2.contains("(blocking)"), "{s2}");
    }

    #[test]
    fn mitosis_annotation_appears_with_threads() {
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Scan {
                table: "t".into(),
                projected: vec![0],
                filters: vec![],
                schema: vec![OutCol { name: "i".into(), ty: LogicalType::Int }],
            }),
            groups: vec![],
            aggs: vec![crate::expr::AggSpec {
                func: crate::expr::PAggFunc::Median,
                arg: Some(BExpr::ColRef { idx: 0, ty: LogicalType::Int }),
                distinct: false,
                ty: LogicalType::Double,
            }],
            schema: vec![OutCol { name: "m".into(), ty: LogicalType::Double }],
        };
        // Mitosis is the operator-at-a-time policy's fan-out; the
        // annotation only renders there, and needs the table's size.
        let mat = ExecOptions {
            mode: ExecMode::Materialized,
            threads: 8,
            vector_size: 64 * 1024,
            ..Default::default()
        };
        let par = explain(&plan, &mat, Some(&FixedStats(200_000)));
        assert!(par.contains("mitosis"), "{par}");
        assert!(par.contains("blocking"), "{par}");
        // One thread: a sequential plan announces no mitosis.
        let seq = explain(&plan, &ExecOptions { threads: 1, ..mat }, Some(&FixedStats(200_000)));
        assert!(!seq.contains("mitosis"));
        assert!(!explain(&plan, &mat, None).contains("mitosis"), "row count unknown");
        // Streaming EXPLAIN shows the aggregate as a pipeline sink instead.
        let stream = explain(&plan, &ExecOptions { threads: 8, ..Default::default() }, None);
        assert!(stream.contains("global-aggregate"), "{stream}");
    }
}
