//! Logical/physical relational plans.
//!
//! MonetDB parses SQL "into a relational algebra tree" (paper §3.1 *Query
//! Plan Execution*); high-level optimizations (filter push-down, join
//! ordering) run on this tree before it is lowered to the MAL-style
//! column-at-a-time program ([`crate::mal`]). We keep one plan type for
//! both phases — physical decisions (index use, parallelism) are taken by
//! the executor per the paper's "tactical decisions ... during execution".

use crate::expr::{AggSpec, BExpr};
use monetlite_types::LogicalType;
use std::fmt;
use std::sync::Arc;

/// Join kinds at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PJoinKind {
    /// Inner equi/θ join.
    Inner,
    /// Left outer join.
    Left,
    /// Left semi join (EXISTS / IN).
    Semi,
    /// Left anti join (NOT EXISTS / NOT IN).
    Anti,
    /// Cross product.
    Cross,
}

impl fmt::Display for PJoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PJoinKind::Inner => "inner",
            PJoinKind::Left => "left",
            PJoinKind::Semi => "semi",
            PJoinKind::Anti => "anti",
            PJoinKind::Cross => "cross",
        };
        write!(f, "{s}")
    }
}

/// One output column description.
#[derive(Debug, Clone, PartialEq)]
pub struct OutCol {
    /// Output name (alias or source column name). Shared, so the schema
    /// of every join, projection and rebuilt cluster copies a pointer per
    /// column rather than the text.
    pub name: Arc<str>,
    /// Type.
    pub ty: LogicalType,
}

/// A relational plan node. Every node knows its output schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan with optional projection (base column positions)
    /// and conjunctive filters over the columns it reads.
    ///
    /// `projected` is the **read list**: the output columns first (one per
    /// `schema` entry), then any *filter-only* columns — read because a
    /// pushed filter tests them, never emitted. A scan may emit zero
    /// columns (`SELECT count(*) … WHERE a > 5`); its chunks then carry
    /// only a row count.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Base-table column positions read: outputs, then filter-only
        /// columns.
        projected: Vec<usize>,
        /// Pushed-down conjuncts over the read list.
        filters: Vec<BExpr>,
        /// Output schema (a prefix of the read list).
        schema: Vec<OutCol>,
    },
    /// σ: keep rows satisfying the predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate over the input schema.
        pred: BExpr,
    },
    /// π: compute expressions over the input.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<BExpr>,
        /// Output schema (same length as `exprs`).
        schema: Vec<OutCol>,
    },
    /// ⋈: equi-join with optional residual predicate over the concatenated
    /// (left ++ right) schema.
    Join {
        /// Left input (probe side).
        left: Box<Plan>,
        /// Right input (build side).
        right: Box<Plan>,
        /// Join kind.
        kind: PJoinKind,
        /// Equi-key expressions over the left schema.
        left_keys: Vec<BExpr>,
        /// Equi-key expressions over the right schema.
        right_keys: Vec<BExpr>,
        /// Residual predicate over left ++ right outputs.
        residual: Option<BExpr>,
        /// Output schema (left ++ right; for semi/anti: left only).
        schema: Vec<OutCol>,
    },
    /// γ: grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-key expressions over the input (empty = one global
        /// group).
        groups: Vec<BExpr>,
        /// Aggregate computations.
        aggs: Vec<AggSpec>,
        /// Output schema: group columns then aggregate columns.
        schema: Vec<OutCol>,
    },
    /// Sort by output columns.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// (column index, descending) sort keys over the input schema.
        keys: Vec<(usize, bool)>,
    },
    /// First `n` rows (after any Sort below it).
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row budget.
        n: u64,
    },
    /// Sort fused with Limit (top-n).
    TopN {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<(usize, bool)>,
        /// Row budget.
        n: u64,
    },
    /// Literal rows (e.g. `SELECT 1`).
    Values {
        /// Row-major literal expressions (must be constant).
        rows: Vec<Vec<BExpr>>,
        /// Output schema.
        schema: Vec<OutCol>,
    },
}

impl Plan {
    /// Move the plan out of `slot`, leaving an empty `Values` (which owns
    /// no allocation) until the caller puts a plan back: how a pass
    /// rewrites a node in place without copying it.
    pub(crate) fn take(slot: &mut Plan) -> Plan {
        std::mem::replace(slot, Plan::Values { rows: Vec::new(), schema: Vec::new() })
    }

    /// Duplicate elimination over every output column of `input`: an
    /// aggregate grouped by each column, computing nothing (`SELECT
    /// DISTINCT`). Output columns keep their names and types.
    ///
    /// A projection of bare columns is folded into the groups (they are
    /// its expressions), so `SELECT DISTINCT s FROM t` is planned as
    /// `SELECT s FROM t GROUP BY s`: the aggregate sits on the scan's
    /// Filter-only spine, where a dictionary-coded VARCHAR groups on its
    /// codes.
    pub fn distinct(input: Plan) -> Plan {
        let schema = input.schema().to_vec();
        match input {
            Plan::Project { input, exprs, .. }
                if exprs.iter().all(|e| matches!(e, BExpr::ColRef { .. })) =>
            {
                Plan::Aggregate { input, groups: exprs, aggs: Vec::new(), schema }
            }
            input => {
                let groups = schema
                    .iter()
                    .enumerate()
                    .map(|(idx, c)| BExpr::ColRef { idx, ty: c.ty })
                    .collect();
                Plan::Aggregate { input: Box::new(input), groups, aggs: Vec::new(), schema }
            }
        }
    }

    /// Is this node a **pipeline breaker** — an operator that must see
    /// its whole input before emitting output? The pipeline engine
    /// ([`crate::pipeline`]) cuts plans at these nodes: breakers drain
    /// their input pipeline to completion, everything else streams
    /// vector-at-a-time. Joins are the half-breaking case — the build
    /// (right) side breaks, the probe (left) side streams — so `Join`
    /// reports `false` here; the break is on its right edge.
    pub fn is_pipeline_breaker(&self) -> bool {
        matches!(
            self,
            Plan::Aggregate { .. } | Plan::Sort { .. } | Plan::TopN { .. } | Plan::Limit { .. }
        )
    }

    /// The node's output schema.
    pub fn schema(&self) -> &[OutCol] {
        match self {
            Plan::Scan { schema, .. } => schema,
            Plan::Filter { input, .. } => input.schema(),
            Plan::Project { schema, .. } => schema,
            Plan::Join { schema, .. } => schema,
            Plan::Aggregate { schema, .. } => schema,
            Plan::Sort { input, .. } => input.schema(),
            Plan::Limit { input, .. } => input.schema(),
            Plan::TopN { input, .. } => input.schema(),
            Plan::Values { schema, .. } => schema,
        }
    }

    /// Render an indented tree (EXPLAIN's first section).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table, projected, filters, schema } => {
                let (outputs, filter_only) = projected.split_at(schema.len().min(projected.len()));
                let _ = write!(out, "{pad}scan {table} cols={outputs:?}");
                if !filter_only.is_empty() {
                    let _ = write!(out, " filter-only={filter_only:?}");
                }
                if !filters.is_empty() {
                    let _ = write!(out, " where ");
                    for (i, f) in filters.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, " and ");
                        }
                        let _ = write!(out, "{f}");
                    }
                }
                let _ = writeln!(out);
            }
            Plan::Filter { input, pred } => {
                let _ = writeln!(out, "{pad}filter {pred}");
                input.render_into(out, depth + 1);
            }
            Plan::Project { input, exprs, schema } => {
                let _ = write!(out, "{pad}project ");
                for (i, (e, c)) in exprs.iter().zip(schema).enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{e} as {}", c.name);
                }
                let _ = writeln!(out);
                input.render_into(out, depth + 1);
            }
            Plan::Join { left, right, kind, left_keys, right_keys, residual, .. } => {
                let _ = write!(out, "{pad}{kind} join on ");
                for (i, (l, r)) in left_keys.iter().zip(right_keys).enumerate() {
                    if i > 0 {
                        let _ = write!(out, " and ");
                    }
                    let _ = write!(out, "{l} = {r}");
                }
                if let Some(res) = residual {
                    let _ = write!(out, " residual {res}");
                }
                let _ = writeln!(out);
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
            Plan::Aggregate { input, groups, aggs, .. } => {
                let _ = write!(out, "{pad}aggregate by [");
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{g}");
                }
                let _ = write!(out, "] compute [");
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "{a}");
                }
                let _ = writeln!(out, "]");
                input.render_into(out, depth + 1);
            }
            Plan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}sort {keys:?}");
                input.render_into(out, depth + 1);
            }
            Plan::Limit { input, n } => {
                let _ = writeln!(out, "{pad}limit {n}");
                input.render_into(out, depth + 1);
            }
            Plan::TopN { input, keys, n } => {
                let _ = writeln!(out, "{pad}topn {n} by {keys:?}");
                input.render_into(out, depth + 1);
            }
            Plan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}values {} row(s)", rows.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::Value;

    fn scan() -> Plan {
        Plan::Scan {
            table: "t".into(),
            projected: vec![0, 1],
            filters: vec![],
            schema: vec![
                OutCol { name: "a".into(), ty: LogicalType::Int },
                OutCol { name: "b".into(), ty: LogicalType::Varchar },
            ],
        }
    }

    #[test]
    fn schema_passthrough() {
        let f = Plan::Filter { input: Box::new(scan()), pred: BExpr::Lit(Value::Bool(true)) };
        assert_eq!(f.schema().len(), 2);
        assert_eq!(&*f.schema()[1].name, "b");
    }

    #[test]
    fn breaker_classification() {
        let s = scan();
        assert!(!s.is_pipeline_breaker());
        assert!(!Plan::Filter { input: Box::new(scan()), pred: BExpr::Lit(Value::Bool(true)) }
            .is_pipeline_breaker());
        assert!(
            Plan::Sort { input: Box::new(scan()), keys: vec![(0, false)] }.is_pipeline_breaker()
        );
        assert!(Plan::Limit { input: Box::new(scan()), n: 1 }.is_pipeline_breaker());
        assert!(Plan::distinct(scan()).is_pipeline_breaker());
        // Joins break only on their build edge.
        assert!(!Plan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: PJoinKind::Cross,
            left_keys: vec![],
            right_keys: vec![],
            residual: None,
            schema: vec![],
        }
        .is_pipeline_breaker());
    }

    #[test]
    fn render_is_readable() {
        let p = Plan::Limit { input: Box::new(scan()), n: 5 };
        let s = p.render();
        assert!(s.contains("limit 5"));
        assert!(s.contains("scan t"));
    }

    #[test]
    fn render_separates_filter_only_columns() {
        // Reads columns 0 and 1, emits only column 0: the filter on #1
        // renders its column apart from the outputs.
        let p = Plan::Scan {
            table: "t".into(),
            projected: vec![0, 1],
            filters: vec![BExpr::IsNull {
                input: Box::new(BExpr::ColRef { idx: 1, ty: LogicalType::Varchar }),
                negated: false,
            }],
            schema: vec![OutCol { name: "a".into(), ty: LogicalType::Int }],
        };
        assert_eq!(p.schema().len(), 1);
        assert!(p.render().starts_with("scan t cols=[0] filter-only=[1] where"), "{}", p.render());
        assert!(!scan().render().contains("filter-only"), "{}", scan().render());
    }
}
