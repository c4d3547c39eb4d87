//! The binder: name resolution, type checking/coercion, aggregate
//! extraction and subquery decorrelation (AST → [`Plan`]).
//!
//! Correlated subqueries are flattened at bind time, the classic
//! MonetDB/relational approach (see ARCHITECTURE.md "Subquery flattening
//! and TPC-H coverage" for worked examples):
//! * `EXISTS (SELECT ... WHERE inner = outer AND p)` → left **semi** join
//!   on the correlated equality keys (NOT EXISTS → **anti** join);
//!   non-equality correlated predicates (Q21's `l2.l_suppkey <>
//!   l1.l_suppkey`) become the join's **residual**, applied per candidate
//!   match;
//! * `x IN (SELECT c ...)` → semi join on `x = c`; an uncorrelated
//!   subquery (including grouped ones, Q18) binds standalone first;
//! * `x NOT IN (SELECT c ...)` → anti join **plus** a count-based guard
//!   that restores SQL's three-valued NULL semantics (Q16): the row
//!   survives only when the subquery is empty, or `x` is not NULL and the
//!   subquery produced no NULL — implemented with existing operators
//!   (aggregate + cross/left join + filter), so every engine inherits it;
//! * `x = (SELECT MIN(c) ... WHERE inner = outer)` (Q2/Q17/Q20) → group
//!   the subquery by its correlated keys, **left join** the outer plan
//!   against the per-group aggregate, and rewrite the comparison to an
//!   expression over the joined aggregate columns (COUNT results are
//!   NULL-coalesced to 0, the empty-group answer);
//! * an **uncorrelated scalar subquery** (Q11's HAVING, Q15, Q22) →
//!   key-less LEFT join against the single-row subquery plan: zero rows
//!   pad NULL (the SQL answer), more than one row is a runtime error.
//!
//! `WITH` common table expressions and `CREATE VIEW` definitions expand
//! at bind time as named derived tables.

use crate::expr::{agg_output_type, AggSpec, ArithOp, BExpr, CmpOp, PAggFunc, ScalarFunc};
use crate::plan::{OutCol, PJoinKind, Plan};
use monetlite_sql::ast;
use monetlite_types::{Date, LogicalType, MlError, Result, Schema, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A stored view definition: the parsed query plus the optional output
/// column rename list. Expanded by the binder like a derived table.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// Optional output column renames.
    pub columns: Option<Vec<String>>,
    /// The defining query.
    pub query: ast::SelectStmt,
}

/// Catalog lookup used by the binder; implemented by the core engine's
/// transaction view and by the rowstore baseline's catalog.
pub trait CatalogAccess {
    /// Schema of a base table.
    fn table_schema(&self, name: &str) -> Result<Schema>;

    /// Definition of a view (lower-case name), if one exists. Consulted
    /// when `table_schema` fails; the default implementation knows no
    /// views.
    fn view_def(&self, _name: &str) -> Option<ViewDef> {
        None
    }
}

/// One visible column while binding.
#[derive(Debug, Clone)]
pub struct ScopeCol {
    /// Table alias / name qualifier (shared by the table's columns).
    pub qualifier: Option<Arc<str>>,
    /// Column name (shared with the plan's output schema).
    pub name: Arc<str>,
    /// Type.
    pub ty: LogicalType,
}

/// The columns visible to expression binding, aligned with the plan's
/// output positions.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Visible columns.
    pub cols: Vec<ScopeCol>,
}

impl Scope {
    /// The position and type of column `name`, qualified by `table` when
    /// given. Names match case-insensitively: the scope holds lower-case
    /// names, and the reference is folded as it is compared.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<(usize, LogicalType)> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            let qual_ok = match table {
                None => true,
                Some(t) => c.qualifier.as_deref().is_some_and(|q| is_folded(q, t)),
            };
            if qual_ok && is_folded(&c.name, name) {
                if found.is_some() {
                    let name = name.to_ascii_lowercase();
                    return Err(MlError::Bind(format!("ambiguous column '{name}'")));
                }
                found = Some((i, c.ty));
            }
        }
        found.ok_or_else(|| {
            let name = name.to_ascii_lowercase();
            match table {
                Some(t) => MlError::Bind(format!("unknown column '{t}.{name}'")),
                None => MlError::Bind(format!("unknown column '{name}'")),
            }
        })
    }
}

/// Is `stored` the ASCII lower-casing of `raw`? The comparison
/// `stored == raw.to_ascii_lowercase()` without building the folded copy.
fn is_folded(stored: &str, raw: &str) -> bool {
    stored.len() == raw.len()
        && stored.bytes().zip(raw.bytes()).all(|(s, r)| s == r.to_ascii_lowercase())
}

/// Binds statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a dyn CatalogAccess,
    /// CTEs currently in scope (statement `WITH` lists, innermost last).
    ctes: RefCell<Vec<ast::Cte>>,
    /// View-expansion depth guard (recursive views are rejected).
    view_depth: Cell<usize>,
    /// Representative values for `ast::Expr::Param` slots when binding a
    /// plan-cache template (empty otherwise — a bare Param is an error).
    params: Vec<Value>,
}

/// Maximum view-in-view expansion depth before the binder assumes a
/// recursive definition.
const MAX_VIEW_DEPTH: usize = 16;

impl<'a> Binder<'a> {
    /// New binder over a catalog view.
    pub fn new(catalog: &'a dyn CatalogAccess) -> Binder<'a> {
        Binder {
            catalog,
            ctes: RefCell::new(Vec::new()),
            view_depth: Cell::new(0),
            params: Vec::new(),
        }
    }

    /// New binder for a plan-cache template: `ast::Expr::Param { index }`
    /// binds to `BExpr::Param` carrying `params[index]` as its
    /// representative value.
    pub fn with_params(catalog: &'a dyn CatalogAccess, params: Vec<Value>) -> Binder<'a> {
        Binder { catalog, ctes: RefCell::new(Vec::new()), view_depth: Cell::new(0), params }
    }

    /// Run `f` with `ctes` pushed onto the in-scope stack.
    fn with_ctes<T>(&self, ctes: &[ast::Cte], f: impl FnOnce(&Self) -> Result<T>) -> Result<T> {
        self.ctes.borrow_mut().extend(ctes.iter().cloned());
        let r = f(self);
        let mut v = self.ctes.borrow_mut();
        let keep = v.len() - ctes.len();
        v.truncate(keep);
        r
    }

    /// Bind a SELECT statement to a plan.
    pub fn bind_select(&self, stmt: &ast::SelectStmt) -> Result<Plan> {
        self.bind_select_scoped(stmt, None).map(|(p, _)| p)
    }

    /// Bind a bare expression over a single table's columns (used by the
    /// engines for UPDATE/DELETE predicates).
    pub fn bind_table_expr(&self, table: &str, e: &ast::Expr) -> Result<(BExpr, Scope)> {
        let schema = self.catalog.table_schema(table)?;
        let scope = Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| ScopeCol {
                    qualifier: Some(table.to_ascii_lowercase().into()),
                    name: f.name.clone(),
                    ty: f.ty,
                })
                .collect(),
        };
        let b = self.bind_expr(e, &scope)?;
        Ok((b, scope))
    }

    fn bind_select_scoped(
        &self,
        stmt: &ast::SelectStmt,
        outer: Option<&Scope>,
    ) -> Result<(Plan, Scope)> {
        self.with_ctes(&stmt.ctes, |b| b.bind_select_inner(stmt, outer))
    }

    fn bind_select_inner(
        &self,
        stmt: &ast::SelectStmt,
        outer: Option<&Scope>,
    ) -> Result<(Plan, Scope)> {
        // 1. FROM clause.
        let (mut plan, scope) = if stmt.from.is_empty() {
            (Plan::Values { rows: vec![vec![]], schema: vec![] }, Scope::default())
        } else {
            self.bind_from_only(stmt)?
        };

        // 2. WHERE: split into conjuncts (factoring conjuncts common to
        // every branch out of OR groups, Q19's shape — the optimizer can
        // then extract the hoisted equalities as join keys), flatten
        // subqueries, filter.
        if let Some(w) = &stmt.where_clause {
            let mut raw = Vec::new();
            split_conjuncts(w, &mut raw);
            let mut conjuncts: Vec<Cow<'_, ast::Expr>> = Vec::new();
            for c in raw {
                match factor_or_common(c) {
                    Some(parts) => conjuncts.extend(parts.into_iter().map(Cow::Owned)),
                    None => conjuncts.push(Cow::Borrowed(c)),
                }
            }
            let mut plain = Vec::new();
            for c in &conjuncts {
                if !self.try_bind_subquery_conjunct(c, &mut plan, &scope)? {
                    plain.push(self.bind_expr_bool(c, &scope, outer)?);
                }
            }
            for pred in plain {
                plan = Plan::Filter { input: Box::new(plan), pred };
            }
        }

        // 3. Grouping & aggregates.
        let has_aggs =
            stmt.projections.iter().any(
                |p| matches!(p, ast::SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            ) || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());
        let grouped = !stmt.group_by.is_empty() || has_aggs;

        let (mut plan, out_names, out_exprs_schema) = if grouped {
            let group_bexprs: Vec<BExpr> =
                stmt.group_by.iter().map(|g| self.bind_expr(g, &scope)).collect::<Result<_>>()?;
            let mut aggs: Vec<AggSpec> = Vec::new();
            // Bind projections in aggregate context.
            let mut proj_exprs = Vec::new();
            let mut names = Vec::new();
            for (i, item) in stmt.projections.iter().enumerate() {
                match item {
                    ast::SelectItem::Wildcard | ast::SelectItem::QualifiedWildcard(_) => {
                        return Err(MlError::Bind(
                            "SELECT * is not allowed with GROUP BY/aggregates".into(),
                        ))
                    }
                    ast::SelectItem::Expr { expr, alias } => {
                        let b = self.bind_agg_expr(expr, &scope, &group_bexprs, &mut aggs)?;
                        names.push(output_name(alias.as_deref(), expr, i));
                        proj_exprs.push(b);
                    }
                }
            }
            // HAVING in aggregate context. Conjuncts comparing against an
            // uncorrelated scalar subquery (Q11's shape) are pre-bound
            // here — before the Aggregate node exists — so any aggregates
            // they mention register in `aggs`; the subquery itself joins
            // in after aggregation (phase B below).
            enum HavingPred {
                Plain(BExpr),
                Subquery { other: BExpr, op: ast::BinOp, flipped: bool, subplan: Plan },
            }
            let mut having_preds: Vec<HavingPred> = Vec::new();
            if let Some(h) = &stmt.having {
                let mut hconj = Vec::new();
                split_conjuncts(h, &mut hconj);
                for c in hconj {
                    if let Some((q, other, op, flipped)) = as_scalar_cmp(c) {
                        let (subplan, subscope) =
                            self.bind_select_scoped(q, None).map_err(|e| {
                                MlError::Unsupported(format!(
                                    "HAVING subquery `{c}` must be uncorrelated: {e}"
                                ))
                            })?;
                        if subscope.cols.len() != 1 {
                            return Err(MlError::Bind(format!(
                                "scalar subquery `{c}` must produce exactly one column"
                            )));
                        }
                        let other_b =
                            self.bind_agg_expr(other, &scope, &group_bexprs, &mut aggs)?;
                        having_preds.push(HavingPred::Subquery {
                            other: other_b,
                            op,
                            flipped,
                            subplan,
                        });
                    } else {
                        having_preds.push(HavingPred::Plain(self.bind_agg_expr(
                            c,
                            &scope,
                            &group_bexprs,
                            &mut aggs,
                        )?));
                    }
                }
            }
            // Build Aggregate node schema: groups then aggs.
            let mut agg_schema = Vec::new();
            for (i, g) in group_bexprs.iter().enumerate() {
                agg_schema.push(OutCol { name: format!("g{i}").into(), ty: g.ty() });
            }
            for (i, a) in aggs.iter().enumerate() {
                agg_schema.push(OutCol { name: format!("a{i}").into(), ty: a.ty });
            }
            let agg_width = agg_schema.len();
            let mut plan = Plan::Aggregate {
                input: Box::new(plan),
                groups: group_bexprs,
                aggs,
                schema: agg_schema,
            };
            // Phase B: apply HAVING predicates over the aggregate output.
            // Each subquery comparison joins the single-row subquery in
            // (key-less LEFT = scalar join), filters, and projects back to
            // the aggregate width so later predicates see stable columns.
            for hp in having_preds {
                match hp {
                    HavingPred::Plain(pred) => {
                        plan = Plan::Filter { input: Box::new(plan), pred };
                    }
                    HavingPred::Subquery { other, op, flipped, subplan } => {
                        let sub_ty = subplan.schema()[0].ty;
                        let mut schema = plan.schema().to_vec();
                        schema.push(OutCol { name: "subq".into(), ty: sub_ty });
                        plan = Plan::Join {
                            left: Box::new(plan),
                            right: Box::new(subplan),
                            kind: PJoinKind::Left,
                            left_keys: vec![],
                            right_keys: vec![],
                            residual: None,
                            schema,
                        };
                        let subref = BExpr::ColRef { idx: agg_width, ty: sub_ty };
                        let (l, r) = if flipped {
                            coerce_pair(subref, other)?
                        } else {
                            coerce_pair(other, subref)?
                        };
                        let pred = BExpr::Cmp {
                            op: bin_to_cmp(op)?,
                            left: Box::new(l),
                            right: Box::new(r),
                        };
                        plan = Plan::Filter { input: Box::new(plan), pred };
                        let exprs: Vec<BExpr> = (0..agg_width)
                            .map(|i| BExpr::ColRef { idx: i, ty: plan.schema()[i].ty })
                            .collect();
                        let schema = plan.schema()[..agg_width].to_vec();
                        plan = Plan::Project { input: Box::new(plan), exprs, schema };
                    }
                }
            }
            let schema: Vec<OutCol> = proj_exprs
                .iter()
                .zip(&names)
                .map(|(e, n)| OutCol { name: n.clone(), ty: e.ty() })
                .collect();
            plan =
                Plan::Project { input: Box::new(plan), exprs: proj_exprs, schema: schema.clone() };
            (plan, names, schema)
        } else {
            // Plain projection.
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for (i, item) in stmt.projections.iter().enumerate() {
                match item {
                    ast::SelectItem::Wildcard => {
                        for (j, c) in scope.cols.iter().enumerate() {
                            exprs.push(BExpr::ColRef { idx: j, ty: c.ty });
                            names.push(c.name.clone());
                        }
                    }
                    ast::SelectItem::QualifiedWildcard(q) => {
                        let q = q.to_ascii_lowercase();
                        let mut any = false;
                        for (j, c) in scope.cols.iter().enumerate() {
                            if c.qualifier.as_deref() == Some(q.as_str()) {
                                exprs.push(BExpr::ColRef { idx: j, ty: c.ty });
                                names.push(c.name.clone());
                                any = true;
                            }
                        }
                        if !any {
                            return Err(MlError::Bind(format!("unknown table alias '{q}'")));
                        }
                    }
                    ast::SelectItem::Expr { expr, alias } => {
                        let b = self.bind_expr_outer(expr, &scope, outer)?;
                        names.push(output_name(alias.as_deref(), expr, i));
                        exprs.push(b);
                    }
                }
            }
            let schema: Vec<OutCol> = exprs
                .iter()
                .zip(&names)
                .map(|(e, n)| OutCol { name: n.clone(), ty: e.ty() })
                .collect();
            let plan = Plan::Project { input: Box::new(plan), exprs, schema: schema.clone() };
            (plan, names, schema)
        };

        // 4. DISTINCT: an aggregate grouped by every output column.
        if stmt.distinct {
            plan = Plan::distinct(plan);
        }

        // 5. ORDER BY over the output columns (name, alias or ordinal).
        if !stmt.order_by.is_empty() {
            let mut keys = Vec::new();
            for item in &stmt.order_by {
                let idx = match &item.expr {
                    ast::Expr::Literal(Value::Int(n)) => {
                        let n = *n as usize;
                        if n == 0 || n > out_names.len() {
                            return Err(MlError::Bind(format!(
                                "ORDER BY ordinal {n} out of range"
                            )));
                        }
                        n - 1
                    }
                    ast::Expr::Column { table: None, name } => {
                        out_names.iter().position(|n| is_folded(n, name)).ok_or_else(|| {
                            MlError::Bind(format!("ORDER BY column '{name}' is not in the output"))
                        })?
                    }
                    other => {
                        return Err(MlError::Bind(format!(
                            "ORDER BY must reference an output column or ordinal, got {other:?}"
                        )))
                    }
                };
                keys.push((idx, item.desc));
            }
            plan = Plan::Sort { input: Box::new(plan), keys };
        }

        // 6. LIMIT.
        if let Some(n) = stmt.limit {
            plan = Plan::Limit { input: Box::new(plan), n };
        }

        let out_scope = Scope {
            cols: out_exprs_schema
                .iter()
                .map(|c| ScopeCol { qualifier: None, name: c.name.clone(), ty: c.ty })
                .collect(),
        };
        Ok((plan, out_scope))
    }

    fn bind_table_ref(&self, tr: &ast::TableRef) -> Result<(Plan, Scope)> {
        match tr {
            ast::TableRef::Table { name, alias } => {
                let lname = name.to_ascii_lowercase();
                // 1. CTEs shadow catalog objects. The definition sees only
                // CTEs declared before it (non-recursive WITH).
                let cte_pos =
                    self.ctes.borrow().iter().rposition(|c| c.name.to_ascii_lowercase() == lname);
                if let Some(i) = cte_pos {
                    let (cte, hidden_tail) = {
                        let mut v = self.ctes.borrow_mut();
                        let tail = v.split_off(i);
                        (tail[0].clone(), tail)
                    };
                    let result = self.bind_select_scoped(&cte.query, None);
                    self.ctes.borrow_mut().extend(hidden_tail);
                    let (plan, scope) = result?;
                    return rename_derived(
                        plan,
                        scope,
                        alias.as_deref().unwrap_or(name),
                        cte.columns.as_deref(),
                    );
                }
                // 2. Base table.
                let schema = match self.catalog.table_schema(name) {
                    Ok(s) => s,
                    Err(table_err) => {
                        // 3. View: expand like a derived table. A view's
                        // body must not see the statement's CTEs.
                        let Some(vd) = self.catalog.view_def(&lname) else {
                            return Err(table_err);
                        };
                        let depth = self.view_depth.get();
                        if depth >= MAX_VIEW_DEPTH {
                            return Err(MlError::Bind(format!(
                                "view '{name}' expands too deep (recursive view definition?)"
                            )));
                        }
                        self.view_depth.set(depth + 1);
                        let saved = std::mem::take(&mut *self.ctes.borrow_mut());
                        let result = self.bind_select_scoped(&vd.query, None);
                        *self.ctes.borrow_mut() = saved;
                        self.view_depth.set(depth);
                        let (plan, scope) = result?;
                        return rename_derived(
                            plan,
                            scope,
                            alias.as_deref().unwrap_or(name),
                            vd.columns.as_deref(),
                        );
                    }
                };
                let qualifier: Arc<str> =
                    alias.as_deref().unwrap_or(name).to_ascii_lowercase().into();
                let cols: Vec<ScopeCol> = schema
                    .fields()
                    .iter()
                    .map(|f| ScopeCol {
                        qualifier: Some(qualifier.clone()),
                        name: f.name.clone(),
                        ty: f.ty,
                    })
                    .collect();
                let plan = Plan::Scan {
                    table: name.to_ascii_lowercase(),
                    projected: (0..schema.len()).collect(),
                    filters: vec![],
                    schema: cols
                        .iter()
                        .map(|c| OutCol { name: c.name.clone(), ty: c.ty })
                        .collect(),
                };
                Ok((plan, Scope { cols }))
            }
            ast::TableRef::Subquery { query, alias, columns } => {
                let (plan, scope) = self.bind_select_scoped(query, None)?;
                rename_derived(plan, scope, alias, columns.as_deref())
            }
            ast::TableRef::Join { left, right, kind, on } => {
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let mut scope = ls;
                scope.cols.extend(rs.cols);
                let schema: Vec<OutCol> = lp.schema().iter().chain(rp.schema()).cloned().collect();
                let pkind = match kind {
                    ast::JoinKind::Inner => PJoinKind::Inner,
                    ast::JoinKind::Left => PJoinKind::Left,
                    ast::JoinKind::Cross => PJoinKind::Cross,
                };
                let residual =
                    on.as_ref().map(|e| self.bind_expr_bool(e, &scope, None)).transpose()?;
                // Keys are extracted from the residual by the optimizer.
                Ok((
                    Plan::Join {
                        left: Box::new(lp),
                        right: Box::new(rp),
                        kind: pkind,
                        left_keys: vec![],
                        right_keys: vec![],
                        residual,
                        schema,
                    },
                    scope,
                ))
            }
        }
    }

    /// If `conjunct` is a flattenable subquery predicate, rewrite `plan`
    /// in place (joining in the subquery) and return `true`; any other
    /// conjunct leaves `plan` untouched and returns `false`, so a plain
    /// predicate costs no copy of the plan. The rewrites preserve `plan`'s
    /// schema, so the caller's scope stays valid.
    fn try_bind_subquery_conjunct(
        &self,
        conjunct: &ast::Expr,
        plan: &mut Plan,
        scope: &Scope,
    ) -> Result<bool> {
        // On an error the statement fails, so the placeholder `Plan::take`
        // leaves in `plan` is never read.
        *plan = match conjunct {
            ast::Expr::Exists { query, negated } => {
                self.flatten_exists(query, *negated, Plan::take(plan), scope)?
            }
            ast::Expr::Not(inner) => match inner.as_ref() {
                ast::Expr::Exists { query, negated } => {
                    self.flatten_exists(query, !negated, Plan::take(plan), scope)?
                }
                ast::Expr::InSubquery { expr, query, negated } => {
                    self.flatten_in(expr, query, !negated, Plan::take(plan), scope)?
                }
                _ => return Ok(false),
            },
            ast::Expr::InSubquery { expr, query, negated } => {
                self.flatten_in(expr, query, *negated, Plan::take(plan), scope)?
            }
            _ => match as_scalar_cmp(conjunct) {
                Some((q, other, op, flip)) => {
                    self.flatten_scalar_cmp(q, other, op, flip, Plan::take(plan), scope)?
                }
                None => return Ok(false),
            },
        };
        Ok(true)
    }

    /// EXISTS/NOT EXISTS → semi/anti join on the correlated equality keys,
    /// with any non-equality correlated predicates as the join residual
    /// (Q21). An uncorrelated EXISTS desugars to a single-row COUNT(*)
    /// cross join plus a filter.
    fn flatten_exists(
        &self,
        query: &ast::SelectStmt,
        negated: bool,
        plan: Plan,
        scope: &Scope,
    ) -> Result<Plan> {
        // Uncorrelated: EXISTS(S) ⇔ (SELECT count(*) FROM S) > 0.
        let standalone_err = match self.bind_select_scoped(query, None) {
            Ok((subplan, _)) => {
                let n = plan.schema().len();
                let counts = count_aggregate(subplan, vec![], None);
                let mut schema = plan.schema().to_vec();
                schema.extend(counts.schema().iter().cloned());
                let joined = Plan::Join {
                    left: Box::new(plan),
                    right: Box::new(counts),
                    kind: PJoinKind::Cross,
                    left_keys: vec![],
                    right_keys: vec![],
                    residual: None,
                    schema,
                };
                let cnt = BExpr::ColRef { idx: n, ty: LogicalType::Bigint };
                let zero = BExpr::Lit(Value::Bigint(0));
                let pred = BExpr::Cmp {
                    op: if negated { CmpOp::Eq } else { CmpOp::Gt },
                    left: Box::new(cnt),
                    right: Box::new(zero),
                };
                return Ok(project_prefix(Plan::Filter { input: Box::new(joined), pred }, n));
            }
            Err(e) => e,
        };
        let sub = self
            .bind_subquery_relational(query, scope)
            .map_err(|e| with_standalone_context(e, &standalone_err))?;
        if sub.lkeys.is_empty() {
            return Err(MlError::Unsupported(format!(
                "EXISTS subquery `{}` has no correlated equality to join on; at least one is \
                 required (binding it standalone failed too: {standalone_err})",
                ast::Expr::Exists { query: Box::new(query.clone()), negated }
            )));
        }
        let schema = plan.schema().to_vec();
        Ok(Plan::Join {
            left: Box::new(plan),
            right: Box::new(sub.plan),
            kind: if negated { PJoinKind::Anti } else { PJoinKind::Semi },
            left_keys: sub.lkeys,
            right_keys: sub.rkeys,
            residual: sub.residual,
            schema,
        })
    }

    /// `x IN (SELECT c ...)` → semi join on x = c (+ correlated keys and
    /// residual). `x NOT IN (...)` → anti join plus the three-valued NULL
    /// guard (see the module docs): the anti join keeps unmatched and
    /// NULL-probe rows, and a count aggregate over the same subquery
    /// decides which of those SQL actually keeps.
    fn flatten_in(
        &self,
        expr: &ast::Expr,
        query: &ast::SelectStmt,
        negated: bool,
        plan: Plan,
        scope: &Scope,
    ) -> Result<Plan> {
        // Uncorrelated subqueries (including grouped ones, Q18) bind
        // standalone.
        let standalone = self.bind_select_scoped(query, None);
        if let Ok((subplan, subscope)) = standalone {
            if subscope.cols.len() != 1 {
                return Err(MlError::Bind(format!(
                    "IN subquery of `{expr} in (select ...)` must produce exactly one column, \
                     got {}",
                    subscope.cols.len()
                )));
            }
            let left_key = self.bind_expr(expr, scope)?;
            let right_key = BExpr::ColRef { idx: 0, ty: subscope.cols[0].ty };
            let (lk, rk) = coerce_pair(left_key, right_key)?;
            if !negated {
                let schema = plan.schema().to_vec();
                return Ok(Plan::Join {
                    left: Box::new(plan),
                    right: Box::new(subplan),
                    kind: PJoinKind::Semi,
                    left_keys: vec![lk],
                    right_keys: vec![rk],
                    residual: None,
                    schema,
                });
            }
            let counts = count_aggregate(
                subplan.clone(),
                vec![],
                Some(BExpr::ColRef { idx: 0, ty: subplan.schema()[0].ty }),
            );
            let n = plan.schema().len();
            let anti_schema = plan.schema().to_vec();
            let anti = Plan::Join {
                left: Box::new(plan),
                right: Box::new(subplan),
                kind: PJoinKind::Anti,
                left_keys: vec![lk.clone()],
                right_keys: vec![rk],
                residual: None,
                schema: anti_schema,
            };
            let mut schema = anti.schema().to_vec();
            schema.extend(counts.schema().iter().cloned());
            let joined = Plan::Join {
                left: Box::new(anti),
                right: Box::new(counts),
                kind: PJoinKind::Cross,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                schema,
            };
            let pred = not_in_guard(lk, n, false);
            return Ok(project_prefix(Plan::Filter { input: Box::new(joined), pred }, n));
        }
        // Correlated; a failure here is ambiguous with a plain broken
        // subquery, so carry the standalone attempt's error along.
        let standalone_err = standalone.expect_err("Ok returned above");
        let sub = self
            .bind_subquery_relational(query, scope)
            .map_err(|e| with_standalone_context(e, &standalone_err))?;
        let proj = single_projection(query, expr)?;
        let in_key = self
            .bind_expr(proj, &sub.scope)
            .map_err(|e| with_standalone_context(e, &standalone_err))?;
        let left_key = self.bind_expr(expr, scope)?;
        let (lk, rk) = coerce_pair(left_key, in_key)?;
        if !negated {
            let mut lkeys = sub.lkeys;
            let mut rkeys = sub.rkeys;
            lkeys.push(lk);
            rkeys.push(rk);
            let schema = plan.schema().to_vec();
            return Ok(Plan::Join {
                left: Box::new(plan),
                right: Box::new(sub.plan),
                kind: PJoinKind::Semi,
                left_keys: lkeys,
                right_keys: rkeys,
                residual: sub.residual,
                schema,
            });
        }
        if sub.residual.is_some() {
            return Err(MlError::Unsupported(format!(
                "NOT IN subquery of `{expr} not in (select ...)` combines non-equality \
                 correlated predicates with NOT IN's NULL semantics; rewrite with NOT EXISTS"
            )));
        }
        // Per-group NULL guard: counts grouped by the correlated keys,
        // LEFT-joined back (an absent group means an empty subquery for
        // that outer row — NOT IN is then TRUE).
        let nk = sub.lkeys.len();
        let n = plan.schema().len();
        let counts = count_aggregate(sub.plan.clone(), sub.rkeys.clone(), Some(rk.clone()));
        let anti_schema = plan.schema().to_vec();
        let mut lkeys = sub.lkeys.clone();
        let mut rkeys = sub.rkeys;
        lkeys.push(lk.clone());
        rkeys.push(rk);
        let anti = Plan::Join {
            left: Box::new(plan),
            right: Box::new(sub.plan),
            kind: PJoinKind::Anti,
            left_keys: lkeys,
            right_keys: rkeys,
            residual: None,
            schema: anti_schema,
        };
        let mut schema = anti.schema().to_vec();
        schema.extend(counts.schema().iter().cloned());
        let group_refs: Vec<BExpr> = counts.schema()[..nk]
            .iter()
            .enumerate()
            .map(|(i, c)| BExpr::ColRef { idx: i, ty: c.ty })
            .collect();
        let joined = Plan::Join {
            left: Box::new(anti),
            right: Box::new(counts),
            kind: PJoinKind::Left,
            left_keys: sub.lkeys,
            right_keys: group_refs,
            residual: None,
            schema,
        };
        let pred = not_in_guard(lk, n + nk, true);
        Ok(project_prefix(Plan::Filter { input: Box::new(joined), pred }, n))
    }

    /// `other <op> (SELECT expr-around-agg ... [WHERE correlated])`.
    /// Uncorrelated subqueries bind standalone and join in as a key-less
    /// LEFT (scalar) join; correlated ones group by the correlated keys
    /// and LEFT-join per group, recomputing the projected expression over
    /// the joined aggregate columns (COUNTs NULL-coalesce to 0 so an
    /// empty group gives the SQL answer).
    fn flatten_scalar_cmp(
        &self,
        query: &ast::SelectStmt,
        other: &ast::Expr,
        op: ast::BinOp,
        flipped: bool,
        plan: Plan,
        scope: &Scope,
    ) -> Result<Plan> {
        let n = plan.schema().len();
        // Uncorrelated: scalar join against the single-row plan.
        let standalone = self.bind_select_scoped(query, None);
        if let Ok((subplan, subscope)) = standalone {
            if subscope.cols.len() != 1 {
                return Err(MlError::Bind(format!(
                    "scalar subquery compared with `{other}` must produce exactly one column, \
                     got {}",
                    subscope.cols.len()
                )));
            }
            let sub_ty = subplan.schema()[0].ty;
            let mut schema = plan.schema().to_vec();
            schema.push(OutCol { name: "subq".into(), ty: sub_ty });
            let joined = Plan::Join {
                left: Box::new(plan),
                right: Box::new(subplan),
                kind: PJoinKind::Left,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                schema,
            };
            let other_b = self.bind_expr(other, scope)?;
            let subref = BExpr::ColRef { idx: n, ty: sub_ty };
            let (l, r) =
                if flipped { coerce_pair(subref, other_b)? } else { coerce_pair(other_b, subref)? };
            let pred = BExpr::Cmp { op: bin_to_cmp(op)?, left: Box::new(l), right: Box::new(r) };
            return Ok(project_prefix(Plan::Filter { input: Box::new(joined), pred }, n));
        }
        // Correlated: group the subquery by its correlated keys (carrying
        // the standalone attempt's error for the ambiguous-failure case).
        let standalone_err = standalone.expect_err("Ok returned above");
        let (grouped, outer_keys, inner_key_refs, val) = self
            .bind_correlated_subquery_grouped(query, scope)
            .map_err(|e| with_standalone_context(e, &standalone_err))?;
        let mut schema = plan.schema().to_vec();
        schema.extend(grouped.schema().iter().cloned());
        let joined = Plan::Join {
            left: Box::new(plan),
            right: Box::new(grouped),
            kind: PJoinKind::Left,
            left_keys: outer_keys,
            right_keys: inner_key_refs,
            residual: None,
            schema,
        };
        // The projected value, recomputed over the joined aggregate
        // columns (shifted by the outer width).
        let val = val.remap_cols(&|c| n + c);
        let other_b = self.bind_expr(other, scope)?;
        let (l, r) = if flipped { coerce_pair(val, other_b)? } else { coerce_pair(other_b, val)? };
        let pred = BExpr::Cmp { op: bin_to_cmp(op)?, left: Box::new(l), right: Box::new(r) };
        Ok(project_prefix(Plan::Filter { input: Box::new(joined), pred }, n))
    }

    /// Bind a (correlated) subquery's relational part: FROM + WHERE, with
    /// the WHERE split into inner conjuncts (filtered inside, including
    /// nested subquery predicates, Q20), correlated equality key pairs,
    /// and other correlated predicates bound over (outer ++ inner) — the
    /// enclosing join's residual.
    fn bind_subquery_relational(
        &self,
        query: &ast::SelectStmt,
        outer: &Scope,
    ) -> Result<BoundSubquery> {
        if !query.group_by.is_empty() || query.limit.is_some() {
            return Err(MlError::Unsupported(
                "GROUP BY/LIMIT inside correlated EXISTS/IN subqueries".into(),
            ));
        }
        self.with_ctes(&query.ctes, |b| {
            let (mut inner_plan, inner_scope) = b.bind_from_only(query)?;
            let mut lkeys = Vec::new();
            let mut rkeys = Vec::new();
            let mut residuals: Vec<BExpr> = Vec::new();
            if let Some(w) = &query.where_clause {
                let mut conjuncts = Vec::new();
                split_conjuncts(w, &mut conjuncts);
                for c in conjuncts {
                    // Nested subquery predicates flatten against the inner
                    // plan (the nested level treats this level as its
                    // outer scope).
                    if b.try_bind_subquery_conjunct(c, &mut inner_plan, &inner_scope)? {
                        continue;
                    }
                    match b.classify_conjunct(c, &inner_scope, outer)? {
                        Classified::Inner(pred) => {
                            inner_plan = Plan::Filter { input: Box::new(inner_plan), pred };
                        }
                        Classified::CorrelatedEq { outer_key, inner_key } => {
                            lkeys.push(outer_key);
                            rkeys.push(inner_key);
                        }
                        Classified::Residual(pred) => residuals.push(pred),
                    }
                }
            }
            let residual =
                residuals.into_iter().reduce(|a, b| BExpr::And(Box::new(a), Box::new(b)));
            Ok(BoundSubquery { plan: inner_plan, scope: inner_scope, lkeys, rkeys, residual })
        })
    }

    /// Correlated scalar aggregate subquery: returns the grouped plan
    /// (keys ++ raw aggregate columns), the outer-side keys, references to
    /// the key columns of the grouped output, and the projected value
    /// expression over the grouped output (with COUNT columns coalesced
    /// to 0 for absent groups).
    #[allow(clippy::type_complexity)]
    fn bind_correlated_subquery_grouped(
        &self,
        query: &ast::SelectStmt,
        outer: &Scope,
    ) -> Result<(Plan, Vec<BExpr>, Vec<BExpr>, BExpr)> {
        if query.projections.len() != 1 {
            return Err(MlError::Bind("scalar subquery must select exactly one expression".into()));
        }
        let agg_expr = match &query.projections[0] {
            ast::SelectItem::Expr { expr, .. } if expr.contains_aggregate() => expr,
            ast::SelectItem::Expr { expr, .. } => {
                return Err(MlError::Unsupported(format!(
                    "correlated scalar subquery `select {expr} ...` must be an aggregate \
                     expression"
                )))
            }
            _ => {
                return Err(MlError::Unsupported(
                    "correlated scalar subquery must select an aggregate expression, not `*`"
                        .into(),
                ))
            }
        };
        self.with_ctes(&query.ctes, |b| {
            let (mut inner_plan, inner_scope) = b.bind_from_only(query)?;
            let mut outer_keys = Vec::new();
            let mut inner_keys = Vec::new();
            if let Some(w) = &query.where_clause {
                let mut conjuncts = Vec::new();
                split_conjuncts(w, &mut conjuncts);
                for c in conjuncts {
                    if b.try_bind_subquery_conjunct(c, &mut inner_plan, &inner_scope)? {
                        continue;
                    }
                    match b.classify_conjunct(c, &inner_scope, outer)? {
                        Classified::Inner(pred) => {
                            inner_plan = Plan::Filter { input: Box::new(inner_plan), pred };
                        }
                        Classified::CorrelatedEq { outer_key, inner_key } => {
                            outer_keys.push(outer_key);
                            inner_keys.push(inner_key);
                        }
                        Classified::Residual(_) => {
                            return Err(MlError::Unsupported(format!(
                                "correlated scalar subquery predicate `{c}` must be an equality \
                                 (non-equality correlation cannot be grouped away)"
                            )))
                        }
                    }
                }
            }
            // The projected expression, bound in aggregate context with
            // the correlated inner keys as the group keys.
            let mut aggs: Vec<AggSpec> = Vec::new();
            let bound_val = b.bind_agg_expr(agg_expr, &inner_scope, &inner_keys, &mut aggs)?;
            let nk = inner_keys.len();
            let mut schema = Vec::new();
            for (i, k) in inner_keys.iter().enumerate() {
                schema.push(OutCol { name: format!("k{i}").into(), ty: k.ty() });
            }
            for (i, a) in aggs.iter().enumerate() {
                schema.push(OutCol { name: format!("a{i}").into(), ty: a.ty });
            }
            let grouped = Plan::Aggregate {
                input: Box::new(inner_plan),
                groups: inner_keys.clone(),
                aggs: aggs.clone(),
                schema,
            };
            let key_refs: Vec<BExpr> = inner_keys
                .iter()
                .enumerate()
                .map(|(i, k)| BExpr::ColRef { idx: i, ty: k.ty() })
                .collect();
            // Substitution table over the grouped output: keys pass
            // through; COUNT aggregates coalesce NULL (absent group after
            // the LEFT join) to 0 — COUNT over an empty set is 0, not
            // NULL; every other aggregate is NULL over an empty set, which
            // the pad already provides.
            let mut table: Vec<BExpr> = key_refs.clone();
            for (j, a) in aggs.iter().enumerate() {
                let col = BExpr::ColRef { idx: nk + j, ty: a.ty };
                table.push(if a.func == PAggFunc::Count {
                    BExpr::Case {
                        branches: vec![(
                            BExpr::IsNull { input: Box::new(col.clone()), negated: false },
                            BExpr::Lit(Value::Bigint(0)),
                        )],
                        else_expr: Some(Box::new(col)),
                        ty: LogicalType::Bigint,
                    }
                } else {
                    col
                });
            }
            let val = crate::opt::substitute(&bound_val, &table);
            Ok((grouped, outer_keys, key_refs, val))
        })
    }

    fn bind_from_only(&self, stmt: &ast::SelectStmt) -> Result<(Plan, Scope)> {
        let mut iter = stmt.from.iter();
        let first =
            iter.next().ok_or_else(|| MlError::Bind("subquery requires a FROM clause".into()))?;
        let (mut p, mut s) = self.bind_table_ref(first)?;
        for tr in iter {
            let (rp, rs) = self.bind_table_ref(tr)?;
            let schema: Vec<OutCol> = p.schema().iter().chain(rp.schema()).cloned().collect();
            p = Plan::Join {
                left: Box::new(p),
                right: Box::new(rp),
                kind: PJoinKind::Cross,
                left_keys: vec![],
                right_keys: vec![],
                residual: None,
                schema,
            };
            s.cols.extend(rs.cols);
        }
        Ok((p, s))
    }

    fn classify_conjunct(&self, e: &ast::Expr, inner: &Scope, outer: &Scope) -> Result<Classified> {
        // Pure inner predicate? (Innermost scope wins, the SQL rule.)
        if let Ok(b) = self.bind_expr(e, inner) {
            return Ok(Classified::Inner(b));
        }
        // Correlated equality?
        if let ast::Expr::Binary { op: ast::BinOp::Eq, left, right } = e {
            let l_inner = self.bind_expr(left, inner);
            let r_inner = self.bind_expr(right, inner);
            let l_outer = self.bind_expr(left, outer);
            let r_outer = self.bind_expr(right, outer);
            if let (Ok(ik), Ok(ok)) = (&l_inner, &r_outer) {
                let (ok2, ik2) = coerce_pair(ok.clone(), ik.clone())?;
                return Ok(Classified::CorrelatedEq { outer_key: ok2, inner_key: ik2 });
            }
            if let (Ok(ik), Ok(ok)) = (&r_inner, &l_outer) {
                let (ok2, ik2) = coerce_pair(ok.clone(), ik.clone())?;
                return Ok(Classified::CorrelatedEq { outer_key: ok2, inner_key: ik2 });
            }
        }
        // Any other correlated predicate binds over (outer ++ inner) and
        // becomes the enclosing join's residual — Q21's
        // `l2.l_suppkey <> l1.l_suppkey`.
        let mut combined = outer.clone();
        combined.cols.extend(inner.cols.iter().cloned());
        match self.bind_expr_bool(e, &combined, None) {
            Ok(b) => Ok(Classified::Residual(b)),
            Err(err) => Err(MlError::Unsupported(format!(
                "unsupported predicate `{e}` in WHERE clause of subquery: {err}"
            ))),
        }
    }

    // -- expressions -------------------------------------------------------

    fn bind_expr_outer(
        &self,
        e: &ast::Expr,
        scope: &Scope,
        _outer: Option<&Scope>,
    ) -> Result<BExpr> {
        self.bind_expr(e, scope)
    }

    fn bind_expr_bool(&self, e: &ast::Expr, scope: &Scope, outer: Option<&Scope>) -> Result<BExpr> {
        let b = self.bind_expr_outer(e, scope, outer)?;
        if b.ty() != LogicalType::Bool && !untyped_null(&b) {
            return Err(MlError::TypeMismatch(format!(
                "predicate must be BOOLEAN, got {}",
                b.ty()
            )));
        }
        typed_arg("a predicate", b, LogicalType::Bool)
    }

    /// Bind an expression in a plain scope.
    pub fn bind_expr(&self, e: &ast::Expr, scope: &Scope) -> Result<BExpr> {
        match e {
            ast::Expr::Column { table, name } => {
                let (idx, ty) = scope.resolve(table.as_deref(), name)?;
                Ok(BExpr::ColRef { idx, ty })
            }
            ast::Expr::Literal(v) => Ok(BExpr::Lit(v.clone())),
            ast::Expr::Param { index } => match self.params.get(*index) {
                Some(v) => Ok(BExpr::Param { idx: *index, value: v.clone() }),
                None => Err(MlError::Bind(
                    "bind parameters are only valid through the plan cache".into(),
                )),
            },
            ast::Expr::Interval { .. } => {
                Err(MlError::Bind("INTERVAL is only valid in date arithmetic".into()))
            }
            ast::Expr::Binary { op, left, right } => self.bind_binary(*op, left, right, scope),
            ast::Expr::Not(inner) => {
                let b = typed_arg("NOT", self.bind_expr(inner, scope)?, LogicalType::Bool)?;
                Ok(BExpr::Not(Box::new(b)))
            }
            ast::Expr::Neg(inner) => {
                let b = self.bind_expr(inner, scope)?;
                let ty = b.ty();
                if !ty.is_numeric() {
                    return Err(MlError::TypeMismatch("unary '-' requires a numeric".into()));
                }
                Ok(BExpr::Neg { input: Box::new(b), ty })
            }
            ast::Expr::IsNull { expr, negated } => {
                let b = self.bind_expr(expr, scope)?;
                Ok(BExpr::IsNull { input: Box::new(b), negated: *negated })
            }
            ast::Expr::Like { expr, pattern, negated } => {
                let b = self.bind_expr(expr, scope)?;
                if b.ty() != LogicalType::Varchar {
                    return Err(MlError::TypeMismatch("LIKE requires a VARCHAR operand".into()));
                }
                Ok(BExpr::Like { input: Box::new(b), pattern: pattern.clone(), negated: *negated })
            }
            ast::Expr::Between { expr, low, high, negated } => {
                // Desugar: x BETWEEN a AND b == x >= a AND x <= b.
                let ge = ast::Expr::Binary {
                    op: ast::BinOp::GtEq,
                    left: expr.clone(),
                    right: low.clone(),
                };
                let le = ast::Expr::Binary {
                    op: ast::BinOp::LtEq,
                    left: expr.clone(),
                    right: high.clone(),
                };
                let both = ast::Expr::Binary {
                    op: ast::BinOp::And,
                    left: Box::new(ge),
                    right: Box::new(le),
                };
                let b = self.bind_expr(&both, scope)?;
                Ok(if *negated { BExpr::Not(Box::new(b)) } else { b })
            }
            ast::Expr::InList { expr, list, negated } => {
                // An OR chain of equalities, `((x = a) OR (x = b)) OR ...`,
                // as binding that chain's syntax would give, with `x`
                // bound once.
                let mut items = list.iter();
                let Some(first) = items.next() else {
                    return Err(MlError::Bind("IN list must not be empty".into()));
                };
                let probe = self.bind_expr(expr, scope)?;
                let eq = |item: &ast::Expr| -> Result<BExpr> {
                    let (l, r) = coerce_pair(probe.clone(), self.bind_expr(item, scope)?)?;
                    Ok(BExpr::Cmp { op: CmpOp::Eq, left: Box::new(l), right: Box::new(r) })
                };
                let mut b = eq(first)?;
                for item in items {
                    b = BExpr::Or(Box::new(b), Box::new(eq(item)?));
                }
                Ok(if *negated { BExpr::Not(Box::new(b)) } else { b })
            }
            ast::Expr::InSubquery { .. } | ast::Expr::Exists { .. } => {
                Err(MlError::Unsupported(format!(
                    "subquery predicate `{e}` is only supported as a top-level AND-conjunct of \
                     WHERE (found in expression position, e.g. under OR or in a projection)"
                )))
            }
            ast::Expr::ScalarSubquery(_) => Err(MlError::Unsupported(format!(
                "scalar subquery `{e}` is only supported in top-level WHERE/HAVING comparisons \
                 (found in expression position)"
            ))),
            ast::Expr::Case { branches, else_expr } => {
                let mut bound: Vec<(BExpr, BExpr)> = Vec::new();
                for (c, v) in branches {
                    let bc = typed_arg("WHEN", self.bind_expr(c, scope)?, LogicalType::Bool)?;
                    bound.push((bc, self.bind_expr(v, scope)?));
                }
                let belse = else_expr.as_ref().map(|e| self.bind_expr(e, scope)).transpose()?;
                let ty = case_type(&bound, belse.as_ref())?;
                let branches = bound
                    .into_iter()
                    .map(|(c, v)| Ok((c, cast_to(v, ty)?)))
                    .collect::<Result<Vec<_>>>()?;
                let else_expr = belse.map(|e| cast_to(e, ty).map(Box::new)).transpose()?;
                Ok(BExpr::Case { branches, else_expr, ty })
            }
            ast::Expr::Agg { .. } => {
                Err(MlError::Bind("aggregate functions are not allowed here".into()))
            }
            ast::Expr::Extract { field, expr } => {
                let b = typed_arg("EXTRACT", self.bind_expr(expr, scope)?, LogicalType::Date)?;
                let func = match field {
                    ast::DateField::Year => ScalarFunc::Year,
                    ast::DateField::Month => ScalarFunc::Month,
                    ast::DateField::Day => ScalarFunc::Day,
                };
                Ok(BExpr::Func { func, args: vec![b], ty: LogicalType::Int })
            }
            ast::Expr::Cast { expr, ty } => {
                let b = self.bind_expr(expr, scope)?;
                declared_cast(b, *ty)
            }
            ast::Expr::Function { name, args } => self.bind_function(name, args, scope),
        }
    }

    fn bind_binary(
        &self,
        op: ast::BinOp,
        left: &ast::Expr,
        right: &ast::Expr,
        scope: &Scope,
    ) -> Result<BExpr> {
        use ast::BinOp as B;
        match op {
            B::And | B::Or => {
                let operand = |e| typed_arg("AND/OR", self.bind_expr(e, scope)?, LogicalType::Bool);
                let (l, r) = (operand(left)?, operand(right)?);
                Ok(if op == B::And {
                    BExpr::And(Box::new(l), Box::new(r))
                } else {
                    BExpr::Or(Box::new(l), Box::new(r))
                })
            }
            B::Eq | B::NotEq | B::Lt | B::LtEq | B::Gt | B::GtEq => {
                let l = self.bind_expr(left, scope)?;
                let r = self.bind_expr(right, scope)?;
                let (l, r) = coerce_pair(l, r)?;
                Ok(BExpr::Cmp { op: bin_to_cmp(op)?, left: Box::new(l), right: Box::new(r) })
            }
            B::Add | B::Sub | B::Mul | B::Div | B::Mod => {
                // Date ± INTERVAL and DATE - DATE first.
                if let ast::Expr::Interval { value, unit } = right {
                    let l = self.bind_expr(left, scope)?;
                    if l.ty() != LogicalType::Date {
                        return Err(MlError::TypeMismatch(
                            "INTERVAL arithmetic requires a DATE".into(),
                        ));
                    }
                    let signed = if op == B::Sub { -*value } else { *value };
                    if op != B::Add && op != B::Sub {
                        return Err(MlError::TypeMismatch(
                            "only + and - are defined on dates".into(),
                        ));
                    }
                    // Fold literal date ± interval at bind time.
                    if let BExpr::Lit(Value::Date(d)) = &l {
                        let nd = match unit {
                            ast::IntervalUnit::Day => d.add_days(signed),
                            ast::IntervalUnit::Month => d.add_months(signed),
                            ast::IntervalUnit::Year => d.add_years(signed),
                        };
                        return Ok(BExpr::Lit(Value::Date(nd)));
                    }
                    // Column date ± interval: dedicated date-shift function.
                    let func = match unit {
                        ast::IntervalUnit::Day => ScalarFunc::AddDays,
                        ast::IntervalUnit::Month => ScalarFunc::AddMonths,
                        ast::IntervalUnit::Year => ScalarFunc::AddYears,
                    };
                    return Ok(BExpr::Func {
                        func,
                        args: vec![l, BExpr::Lit(Value::Int(signed))],
                        ty: LogicalType::Date,
                    });
                }
                let l = self.bind_expr(left, scope)?;
                let r = self.bind_expr(right, scope)?;
                // DATE - DATE → days (INTEGER).
                if l.ty() == LogicalType::Date && r.ty() == LogicalType::Date && op == B::Sub {
                    return Ok(BExpr::Arith {
                        op: ArithOp::Sub,
                        left: Box::new(l),
                        right: Box::new(r),
                        ty: LogicalType::Int,
                    });
                }
                bind_arith(bin_to_arith(op), l, r)
            }
        }
    }

    fn bind_function(&self, name: &str, args: &[ast::Expr], scope: &Scope) -> Result<BExpr> {
        let bound: Vec<BExpr> =
            args.iter().map(|a| self.bind_expr(a, scope)).collect::<Result<_>>()?;
        let argc = bound.len();
        let wrong =
            |want: usize| MlError::Bind(format!("{name} expects {want} argument(s), got {argc}"));
        match name {
            "sqrt" | "floor" | "ceil" | "ceiling" => {
                if argc != 1 {
                    return Err(wrong(1));
                }
                let a = cast_to(bound.into_iter().next().unwrap(), LogicalType::Double)?;
                let func = match name {
                    "sqrt" => ScalarFunc::Sqrt,
                    "floor" => ScalarFunc::Floor,
                    _ => ScalarFunc::Ceil,
                };
                Ok(BExpr::Func { func, args: vec![a], ty: LogicalType::Double })
            }
            "abs" => {
                if argc != 1 {
                    return Err(wrong(1));
                }
                let a = bound.into_iter().next().unwrap();
                let ty = a.ty();
                if !ty.is_numeric() {
                    return Err(MlError::TypeMismatch("abs requires a numeric".into()));
                }
                Ok(BExpr::Func { func: ScalarFunc::Abs, args: vec![a], ty })
            }
            "upper" | "lower" => {
                if argc != 1 {
                    return Err(wrong(1));
                }
                let a = typed_arg(name, bound.into_iter().next().unwrap(), LogicalType::Varchar)?;
                let func = if name == "upper" { ScalarFunc::Upper } else { ScalarFunc::Lower };
                Ok(BExpr::Func { func, args: vec![a], ty: LogicalType::Varchar })
            }
            "length" => {
                if argc != 1 {
                    return Err(wrong(1));
                }
                let a = typed_arg(name, bound.into_iter().next().unwrap(), LogicalType::Varchar)?;
                Ok(BExpr::Func { func: ScalarFunc::Length, args: vec![a], ty: LogicalType::Int })
            }
            "substring" | "substr" => {
                if argc != 3 {
                    return Err(wrong(3));
                }
                let mut it = bound.into_iter();
                let s = typed_arg("substring", it.next().unwrap(), LogicalType::Varchar)?;
                let from = cast_to(it.next().unwrap(), LogicalType::Int)?;
                let len = cast_to(it.next().unwrap(), LogicalType::Int)?;
                Ok(BExpr::Func {
                    func: ScalarFunc::Substring,
                    args: vec![s, from, len],
                    ty: LogicalType::Varchar,
                })
            }
            "year" | "month" | "day" => {
                if argc != 1 {
                    return Err(wrong(1));
                }
                let a = typed_arg(name, bound.into_iter().next().unwrap(), LogicalType::Date)?;
                let func = match name {
                    "year" => ScalarFunc::Year,
                    "month" => ScalarFunc::Month,
                    _ => ScalarFunc::Day,
                };
                Ok(BExpr::Func { func, args: vec![a], ty: LogicalType::Int })
            }
            other => Err(MlError::Bind(format!("unknown function '{other}'"))),
        }
    }

    /// Bind an expression allowed to contain aggregates: aggregate calls
    /// become references into the Aggregate node's output; subexpressions
    /// equal to a GROUP BY key become group-column references.
    fn bind_agg_expr(
        &self,
        e: &ast::Expr,
        input: &Scope,
        groups: &[BExpr],
        aggs: &mut Vec<AggSpec>,
    ) -> Result<BExpr> {
        // A subexpression identical to a group key resolves to that key's
        // output column.
        if let Ok(b) = self.bind_expr(e, input) {
            if let Some(pos) = groups.iter().position(|g| *g == b) {
                return Ok(BExpr::ColRef { idx: pos, ty: b.ty() });
            }
            if b.is_const() {
                return Ok(b);
            }
        }
        match e {
            ast::Expr::Agg { func, arg, distinct } => {
                let arg_b = arg.as_ref().map(|a| self.bind_expr(a, input)).transpose()?;
                let pfunc = match func {
                    ast::AggFunc::Count => PAggFunc::Count,
                    ast::AggFunc::Sum => PAggFunc::Sum,
                    ast::AggFunc::Avg => PAggFunc::Avg,
                    ast::AggFunc::Min => PAggFunc::Min,
                    ast::AggFunc::Max => PAggFunc::Max,
                    ast::AggFunc::Median => PAggFunc::Median,
                };
                let ty = agg_output_type(pfunc, arg_b.as_ref().map(|a| a.ty()));
                let spec = AggSpec { func: pfunc, arg: arg_b, distinct: *distinct, ty };
                let pos = match aggs.iter().position(|a| *a == spec) {
                    Some(p) => p,
                    None => {
                        aggs.push(spec);
                        aggs.len() - 1
                    }
                };
                Ok(BExpr::ColRef { idx: groups.len() + pos, ty })
            }
            ast::Expr::Binary { op, left, right } => {
                // Rebind children in aggregate context, then re-run the
                // binary typing rules on the bound pieces.
                let l = self.bind_agg_expr(left, input, groups, aggs)?;
                let r = self.bind_agg_expr(right, input, groups, aggs)?;
                rebuild_binary(*op, l, r)
            }
            ast::Expr::Neg(inner) => {
                let b = self.bind_agg_expr(inner, input, groups, aggs)?;
                let ty = b.ty();
                Ok(BExpr::Neg { input: Box::new(b), ty })
            }
            ast::Expr::Case { branches, else_expr } => {
                let mut bound = Vec::new();
                for (c, v) in branches {
                    bound.push((
                        self.bind_agg_expr(c, input, groups, aggs)?,
                        self.bind_agg_expr(v, input, groups, aggs)?,
                    ));
                }
                let belse = else_expr
                    .as_ref()
                    .map(|e| self.bind_agg_expr(e, input, groups, aggs))
                    .transpose()?;
                let ty = case_type(&bound, belse.as_ref())?;
                let branches = bound
                    .into_iter()
                    .map(|(c, v)| Ok((c, cast_to(v, ty)?)))
                    .collect::<Result<Vec<_>>>()?;
                let else_expr = belse.map(|e| cast_to(e, ty).map(Box::new)).transpose()?;
                Ok(BExpr::Case { branches, else_expr, ty })
            }
            ast::Expr::Cast { expr, ty } => {
                let b = self.bind_agg_expr(expr, input, groups, aggs)?;
                declared_cast(b, *ty)
            }
            ast::Expr::Extract { .. } | ast::Expr::Function { .. } => {
                // Non-aggregate functions over group keys were handled by
                // the group-key match above; reaching here means the
                // argument is not a group key.
                Err(MlError::Bind(format!("expression {e:?} must appear in the GROUP BY clause")))
            }
            other => Err(MlError::Bind(format!(
                "expression {other:?} must appear in GROUP BY or be inside an aggregate"
            ))),
        }
    }
}

enum Classified {
    Inner(BExpr),
    CorrelatedEq {
        outer_key: BExpr,
        inner_key: BExpr,
    },
    /// A correlated non-equality predicate bound over (outer ++ inner):
    /// the enclosing semi/anti join's residual.
    Residual(BExpr),
}

/// Bound ingredients of a correlated subquery: the filtered inner plan
/// and scope, the correlated equality key pairs, and the join residual.
struct BoundSubquery {
    plan: Plan,
    scope: Scope,
    lkeys: Vec<BExpr>,
    rkeys: Vec<BExpr>,
    residual: Option<BExpr>,
}

/// Recognise `other <op> (SELECT ...)` / `(SELECT ...) <op> other`,
/// returning (query, other side, op, scalar-was-on-the-left).
fn as_scalar_cmp(e: &ast::Expr) -> Option<(&ast::SelectStmt, &ast::Expr, ast::BinOp, bool)> {
    let ast::Expr::Binary { op, left, right } = e else {
        return None;
    };
    if !matches!(
        op,
        ast::BinOp::Eq
            | ast::BinOp::NotEq
            | ast::BinOp::Lt
            | ast::BinOp::LtEq
            | ast::BinOp::Gt
            | ast::BinOp::GtEq
    ) {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (ast::Expr::ScalarSubquery(q), o) => Some((q, o, *op, true)),
        (o, ast::Expr::ScalarSubquery(q)) => Some((q, o, *op, false)),
        _ => None,
    }
}

/// The IN subquery's single projected expression (`x IN (SELECT c ...)`).
fn single_projection<'q>(query: &'q ast::SelectStmt, ctx: &ast::Expr) -> Result<&'q ast::Expr> {
    match query.projections.as_slice() {
        [ast::SelectItem::Expr { expr, .. }] => Ok(expr),
        _ => Err(MlError::Bind(format!(
            "IN subquery of `{ctx} in (select ...)` must select exactly one expression"
        ))),
    }
}

/// `COUNT(*)` (+ `COUNT(arg)` when `arg` is given) over `input`, grouped
/// by `groups`. Output schema: group columns, then the count(s). The
/// NOT-IN NULL guard and uncorrelated EXISTS build on this.
fn count_aggregate(input: Plan, groups: Vec<BExpr>, arg: Option<BExpr>) -> Plan {
    let mut schema: Vec<OutCol> = groups
        .iter()
        .enumerate()
        .map(|(i, g)| OutCol { name: format!("k{i}").into(), ty: g.ty() })
        .collect();
    let mut aggs = vec![AggSpec {
        func: PAggFunc::Count,
        arg: None,
        distinct: false,
        ty: agg_output_type(PAggFunc::Count, None),
    }];
    schema.push(OutCol { name: "cnt_all".into(), ty: LogicalType::Bigint });
    if let Some(a) = arg {
        let ty = agg_output_type(PAggFunc::Count, Some(a.ty()));
        aggs.push(AggSpec { func: PAggFunc::Count, arg: Some(a), distinct: false, ty });
        schema.push(OutCol { name: "cnt_nonnull".into(), ty: LogicalType::Bigint });
    }
    Plan::Aggregate { input: Box::new(input), groups, aggs, schema }
}

/// The NOT IN three-valued-logic guard over the (outer ++ counts) join
/// output: keep the anti-join survivor when the subquery group is absent
/// (`grouped` only) or empty, or when the probe value is not NULL and the
/// subquery produced no NULL values.
fn not_in_guard(probe: BExpr, counts_at: usize, grouped: bool) -> BExpr {
    let cnt_all = BExpr::ColRef { idx: counts_at, ty: LogicalType::Bigint };
    let cnt_nonnull = BExpr::ColRef { idx: counts_at + 1, ty: LogicalType::Bigint };
    let empty = BExpr::Cmp {
        op: CmpOp::Eq,
        left: Box::new(cnt_all.clone()),
        right: Box::new(BExpr::Lit(Value::Bigint(0))),
    };
    let probe_not_null = BExpr::IsNull { input: Box::new(probe), negated: true };
    let no_nulls =
        BExpr::Cmp { op: CmpOp::Eq, left: Box::new(cnt_nonnull), right: Box::new(cnt_all.clone()) };
    let ok = BExpr::Or(
        Box::new(empty),
        Box::new(BExpr::And(Box::new(probe_not_null), Box::new(no_nulls))),
    );
    if grouped {
        let absent = BExpr::IsNull { input: Box::new(cnt_all), negated: false };
        BExpr::Or(Box::new(absent), Box::new(ok))
    } else {
        ok
    }
}

/// Project a plan back to its first `n` columns (the flattening rewrites
/// preserve the outer schema this way).
fn project_prefix(plan: Plan, n: usize) -> Plan {
    let exprs: Vec<BExpr> =
        (0..n).map(|i| BExpr::ColRef { idx: i, ty: plan.schema()[i].ty }).collect();
    let schema = plan.schema()[..n].to_vec();
    Plan::Project { input: Box::new(plan), exprs, schema }
}

/// Apply a derived table's qualifier and optional column rename list to a
/// bound subquery/CTE/view.
fn rename_derived(
    plan: Plan,
    scope: Scope,
    qualifier: &str,
    columns: Option<&[String]>,
) -> Result<(Plan, Scope)> {
    if let Some(cols) = columns {
        if cols.len() != scope.cols.len() {
            return Err(MlError::Bind(format!(
                "'{qualifier}' has {} output column(s) but {} alias(es) were given",
                scope.cols.len(),
                cols.len()
            )));
        }
    }
    let q: Arc<str> = qualifier.to_ascii_lowercase().into();
    let cols = scope
        .cols
        .into_iter()
        .enumerate()
        .map(|(i, c)| ScopeCol {
            qualifier: Some(q.clone()),
            name: columns.map_or(c.name, |cs| cs[i].to_ascii_lowercase().into()),
            ty: c.ty,
        })
        .collect();
    Ok((plan, Scope { cols }))
}

/// Factor conjuncts common to every branch out of an OR expression
/// (Q19's `(p AND a1) OR (p AND a2) OR (p AND a3)` → `p AND (a1 OR a2 OR
/// a3)`), so the optimizer can extract the hoisted equalities as join
/// keys. Returns `None` when there is nothing to factor.
fn factor_or_common(e: &ast::Expr) -> Option<Vec<ast::Expr>> {
    let mut branches = Vec::new();
    split_disjuncts(e, &mut branches);
    if branches.len() < 2 {
        return None;
    }
    let branch_conjs: Vec<Vec<&ast::Expr>> = branches
        .iter()
        .map(|b| {
            let mut v = Vec::new();
            split_conjuncts(b, &mut v);
            v
        })
        .collect();
    let common: Vec<&ast::Expr> = branch_conjs[0]
        .iter()
        .copied()
        .filter(|c| branch_conjs[1..].iter().all(|b| b.iter().any(|x| x == c)))
        .collect();
    if common.is_empty() {
        return None;
    }
    let mut out: Vec<ast::Expr> = common.iter().map(|c| (*c).clone()).collect();
    // Rebuild each branch without the common conjuncts; a branch left
    // empty makes the whole OR implied by the common part.
    let mut residual_branches: Vec<ast::Expr> = Vec::new();
    for conjs in &branch_conjs {
        let rest: Vec<&ast::Expr> =
            conjs.iter().copied().filter(|c| !common.iter().any(|x| x == c)).collect();
        if rest.is_empty() {
            return Some(out);
        }
        let rebuilt = rest
            .into_iter()
            .cloned()
            .reduce(|a, b| ast::Expr::Binary {
                op: ast::BinOp::And,
                left: Box::new(a),
                right: Box::new(b),
            })
            .expect("nonempty branch");
        residual_branches.push(rebuilt);
    }
    let or = residual_branches
        .into_iter()
        .reduce(|a, b| ast::Expr::Binary {
            op: ast::BinOp::Or,
            left: Box::new(a),
            right: Box::new(b),
        })
        .expect("at least two branches");
    out.push(or);
    Some(out)
}

/// A correlated-path bind failure is ambiguous: the subquery may be
/// genuinely correlated, or simply broken (typo'd column, unknown
/// table). Append the standalone attempt's error so the diagnostic names
/// the real problem instead of a correlation-shaped red herring.
fn with_standalone_context(e: MlError, standalone: &MlError) -> MlError {
    let text = |msg: &dyn std::fmt::Display| {
        format!("{msg} (binding the subquery standalone failed: {standalone})")
    };
    match e {
        MlError::Bind(m) => MlError::Bind(text(&m)),
        MlError::Unsupported(m) => MlError::Unsupported(text(&m)),
        MlError::Catalog(m) => MlError::Catalog(text(&m)),
        MlError::TypeMismatch(m) => MlError::TypeMismatch(text(&m)),
        other => other,
    }
}

fn split_disjuncts<'e>(e: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    if let ast::Expr::Binary { op: ast::BinOp::Or, left, right } = e {
        split_disjuncts(left, out);
        split_disjuncts(right, out);
    } else {
        out.push(e);
    }
}

fn split_conjuncts<'e>(e: &'e ast::Expr, out: &mut Vec<&'e ast::Expr>) {
    if let ast::Expr::Binary { op: ast::BinOp::And, left, right } = e {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

fn bin_to_cmp(op: ast::BinOp) -> Result<CmpOp> {
    Ok(match op {
        ast::BinOp::Eq => CmpOp::Eq,
        ast::BinOp::NotEq => CmpOp::NotEq,
        ast::BinOp::Lt => CmpOp::Lt,
        ast::BinOp::LtEq => CmpOp::LtEq,
        ast::BinOp::Gt => CmpOp::Gt,
        ast::BinOp::GtEq => CmpOp::GtEq,
        other => return Err(MlError::Bind(format!("{other:?} is not a comparison"))),
    })
}

fn bin_to_arith(op: ast::BinOp) -> ArithOp {
    match op {
        ast::BinOp::Add => ArithOp::Add,
        ast::BinOp::Sub => ArithOp::Sub,
        ast::BinOp::Mul => ArithOp::Mul,
        ast::BinOp::Div => ArithOp::Div,
        _ => ArithOp::Mod,
    }
}

/// Re-apply binary typing rules to already-bound operands.
pub fn rebuild_binary(op: ast::BinOp, l: BExpr, r: BExpr) -> Result<BExpr> {
    use ast::BinOp as B;
    match op {
        B::And => Ok(BExpr::And(Box::new(l), Box::new(r))),
        B::Or => Ok(BExpr::Or(Box::new(l), Box::new(r))),
        B::Eq | B::NotEq | B::Lt | B::LtEq | B::Gt | B::GtEq => {
            let (l, r) = coerce_pair(l, r)?;
            Ok(BExpr::Cmp { op: bin_to_cmp(op)?, left: Box::new(l), right: Box::new(r) })
        }
        B::Add | B::Sub | B::Mul | B::Div | B::Mod => bind_arith(bin_to_arith(op), l, r),
    }
}

/// Numeric/typed arithmetic rules; inserts casts so kernels see one type.
pub fn bind_arith(op: ArithOp, l: BExpr, r: BExpr) -> Result<BExpr> {
    use LogicalType as T;
    // An untyped NULL takes the type of the other operand: its own type
    // would default to INTEGER and give the node the wrong result type
    // and scale.
    let (lt, rt) = match (untyped_null(&l), untyped_null(&r)) {
        (true, false) => (r.ty(), r.ty()),
        (false, true) => (l.ty(), l.ty()),
        _ => (l.ty(), r.ty()),
    };
    if !lt.is_numeric() || !rt.is_numeric() {
        return Err(MlError::TypeMismatch(format!(
            "arithmetic requires numeric operands, got {lt} and {rt}"
        )));
    }
    // Division always computes in double (MonetDB's decimal division
    // semantics differ; DOUBLE keeps every TPC-H aggregate exact enough
    // and avoids scale explosions).
    if op == ArithOp::Div {
        let l = cast_to(l, T::Double)?;
        let r = cast_to(r, T::Double)?;
        return Ok(BExpr::Arith { op, left: Box::new(l), right: Box::new(r), ty: T::Double });
    }
    let ty = LogicalType::common_super_type(lt, rt)?;
    match ty {
        T::Decimal { .. } => {
            let (ls, rs) = (scale_of(lt), scale_of(rt));
            match op {
                ArithOp::Mul => {
                    let s = ls + rs;
                    if s > 18 {
                        let l = cast_to(l, T::Double)?;
                        let r = cast_to(r, T::Double)?;
                        return Ok(BExpr::Arith {
                            op,
                            left: Box::new(l),
                            right: Box::new(r),
                            ty: T::Double,
                        });
                    }
                    // Operands keep their own scales; result scale = sum.
                    let l = to_decimal(l, ls)?;
                    let r = to_decimal(r, rs)?;
                    Ok(BExpr::Arith {
                        op,
                        left: Box::new(l),
                        right: Box::new(r),
                        ty: T::Decimal { width: T::DECIMAL_WIDTH, scale: s },
                    })
                }
                ArithOp::Add | ArithOp::Sub => {
                    let s = ls.max(rs);
                    let l = to_decimal(l, s)?;
                    let r = to_decimal(r, s)?;
                    Ok(BExpr::Arith {
                        op,
                        left: Box::new(l),
                        right: Box::new(r),
                        ty: T::Decimal { width: T::DECIMAL_WIDTH, scale: s },
                    })
                }
                ArithOp::Mod => Err(MlError::TypeMismatch("% is not defined on DECIMAL".into())),
                ArithOp::Div => unreachable!("handled above"),
            }
        }
        other => {
            let l = cast_to(l, other)?;
            let r = cast_to(r, other)?;
            Ok(BExpr::Arith { op, left: Box::new(l), right: Box::new(r), ty: other })
        }
    }
}

fn scale_of(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Decimal { scale, .. } => scale,
        _ => 0,
    }
}

fn to_decimal(e: BExpr, scale: u8) -> Result<BExpr> {
    cast_to(e, LogicalType::Decimal { width: LogicalType::DECIMAL_WIDTH, scale })
}

/// The result type of a CASE: the common super type of its branch values
/// and ELSE, skipping untyped NULLs (a NULL casts to any type). A CASE
/// whose values are all NULL keeps its first value's type.
fn case_type(branches: &[(BExpr, BExpr)], else_expr: Option<&BExpr>) -> Result<LogicalType> {
    let values = || branches.iter().map(|(_, v)| v).chain(else_expr);
    let mut typed = values().filter(|v| !untyped_null(v));
    let Some(first) = typed.next().or_else(|| values().next()) else {
        return Err(MlError::Bind("CASE without a branch".into()));
    };
    typed.try_fold(first.ty(), |ty, v| LogicalType::common_super_type(ty, v.ty()))
}

/// Coerce `e` implicitly to `ty`: an expression that already stores
/// `ty`'s representation is returned as it is (a DECIMAL(15,2) column
/// meets a DECIMAL(18,2) literal unwidened, so its access paths still see
/// the bare column); anything else is cast as [`declared_cast`] casts it.
pub fn cast_to(e: BExpr, ty: LogicalType) -> Result<BExpr> {
    if e.ty().same_repr(ty) {
        return Ok(e);
    }
    declared_cast(e, ty)
}

/// Cast `e` to `ty` as a `CAST(e AS ty)` asks, keeping a declared width:
/// a cast node unless the expression already has the target type; literal
/// casts fold immediately, except an untyped NULL's: the cast node is what
/// gives that NULL its type (the kernels evaluate it to a NULL of the
/// target type).
fn declared_cast(e: BExpr, ty: LogicalType) -> Result<BExpr> {
    if e.ty() == ty {
        return Ok(e);
    }
    if untyped_null(&e) {
        return Ok(BExpr::Cast { input: Box::new(e), ty });
    }
    if let BExpr::Lit(v) = &e {
        if let Some(folded) = fold_literal_cast(v, ty)? {
            return Ok(BExpr::Lit(folded));
        }
    }
    // A plan-cache parameter folds like a literal, but in place: the
    // representative value is cast and the slot kept, so substitution
    // later applies the same cast to each fresh value.
    if let BExpr::Param { idx, value } = &e {
        if let Some(folded) = fold_literal_cast(value, ty)? {
            return Ok(BExpr::Param { idx: *idx, value: folded });
        }
    }
    Ok(BExpr::Cast { input: Box::new(e), ty })
}

/// Re-apply the cast folding a template's representative went through to
/// a fresh parameter value: coerce `fresh` to `target`'s logical type.
/// Returns `None` when the fresh value cannot take the representative's
/// type (the caller falls back to a full replan).
pub fn coerce_param_value(fresh: &Value, target: &Value) -> Option<Value> {
    let Some(ty) = target.logical_type() else {
        return matches!(fresh, Value::Null).then_some(Value::Null);
    };
    if fresh.logical_type() == Some(ty) {
        return Some(fresh.clone());
    }
    fold_literal_cast(fresh, ty).ok().flatten()
}

fn fold_literal_cast(v: &Value, ty: LogicalType) -> Result<Option<Value>> {
    use LogicalType as T;
    Ok(match (v, ty) {
        (Value::Null, _) => Some(Value::Null),
        (Value::Int(x), T::Bigint) => Some(Value::Bigint(*x as i64)),
        (Value::Int(x), T::Double) => Some(Value::Double(*x as f64)),
        (Value::Int(x), T::Decimal { scale, .. }) => {
            Some(Value::Decimal(monetlite_types::Decimal::new(*x as i64, 0).rescale(scale)?))
        }
        (Value::Bigint(x), T::Double) => Some(Value::Double(*x as f64)),
        (Value::Decimal(d), T::Double) => Some(Value::Double(d.to_f64())),
        (Value::Decimal(d), T::Decimal { scale, .. }) => Some(Value::Decimal(d.rescale(scale)?)),
        (Value::Str(s), T::Date) => Some(Value::Date(Date::parse(s)?)),
        (Value::Str(s), T::Varchar) => Some(Value::Str(s.clone())),
        _ => None,
    })
}

/// An untyped NULL: a NULL literal or a plan-cache parameter standing for
/// one. It casts to any type, so it takes the type of whatever it meets;
/// [`BExpr::ty`] reports INTEGER for it only for want of another answer.
fn untyped_null(e: &BExpr) -> bool {
    matches!(e, BExpr::Lit(Value::Null) | BExpr::Param { value: Value::Null, .. })
}

/// An operand of type `ty` (a scalar function's parameter, a boolean
/// operator's operand or a predicate): an untyped NULL takes that type
/// (the call then yields NULL); any other operand must have it already.
fn typed_arg(func: &str, a: BExpr, ty: LogicalType) -> Result<BExpr> {
    if untyped_null(&a) {
        return cast_to(a, ty);
    }
    if a.ty() != ty {
        return Err(MlError::TypeMismatch(format!("{func} requires a {ty}")));
    }
    Ok(a)
}

/// Coerce a comparison pair to a common type. An untyped NULL takes the
/// other operand's type as it is: the comparison is NULL whatever it is
/// compared with, and the kernels read a NULL constant as such.
pub fn coerce_pair(l: BExpr, r: BExpr) -> Result<(BExpr, BExpr)> {
    let (lt, rt) = (l.ty(), r.ty());
    if lt == rt || untyped_null(&l) || untyped_null(&r) {
        return Ok((l, r));
    }
    // Date vs string literal: parse the literal.
    if lt == LogicalType::Date && rt == LogicalType::Varchar {
        let r = cast_to(r, LogicalType::Date)?;
        return Ok((l, r));
    }
    if rt == LogicalType::Date && lt == LogicalType::Varchar {
        let l = cast_to(l, LogicalType::Date)?;
        return Ok((l, r));
    }
    let common = LogicalType::common_super_type(lt, rt)?;
    // Decimal comparisons align scales.
    let common = match common {
        LogicalType::Decimal { width, .. } => {
            LogicalType::Decimal { width, scale: scale_of(lt).max(scale_of(rt)) }
        }
        other => other,
    };
    Ok((cast_to(l, common)?, cast_to(r, common)?))
}

fn output_name(alias: Option<&str>, expr: &ast::Expr, pos: usize) -> Arc<str> {
    if let Some(a) = alias {
        return a.to_ascii_lowercase().into();
    }
    match expr {
        ast::Expr::Column { name, .. } => name.to_ascii_lowercase().into(),
        ast::Expr::Agg { func, .. } => format!("{func:?}").to_ascii_lowercase().into(),
        _ => format!("col{pos}").into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::Field;
    use std::collections::HashMap;

    struct MockCatalog {
        tables: HashMap<String, Schema>,
    }

    impl CatalogAccess for MockCatalog {
        fn table_schema(&self, name: &str) -> Result<Schema> {
            self.tables
                .get(&name.to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
        }
    }

    fn catalog() -> MockCatalog {
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            Schema::new(vec![
                Field::not_null("a", LogicalType::Int),
                Field::new("b", LogicalType::Varchar),
                Field::new("d", LogicalType::Date),
                Field::new("p", LogicalType::Decimal { width: 15, scale: 2 }),
            ])
            .unwrap(),
        );
        tables.insert(
            "u".to_string(),
            Schema::new(vec![
                Field::not_null("a", LogicalType::Int),
                Field::new("x", LogicalType::Double),
            ])
            .unwrap(),
        );
        MockCatalog { tables }
    }

    fn bind(sql: &str) -> Result<Plan> {
        let stmt = monetlite_sql::parse_statement(sql)?;
        let cat = catalog();
        match stmt {
            monetlite_sql::Statement::Select(s) => Binder::new(&cat).bind_select(&s),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_projection_types() {
        let p = bind("SELECT a, b FROM t").unwrap();
        assert_eq!(p.schema()[0].ty, LogicalType::Int);
        assert_eq!(p.schema()[1].ty, LogicalType::Varchar);
    }

    #[test]
    fn wildcard_expansion() {
        let p = bind("SELECT * FROM t").unwrap();
        assert_eq!(p.schema().len(), 4);
        assert_eq!(&*p.schema()[3].name, "p");
    }

    #[test]
    fn unknown_column_is_bind_error() {
        assert!(matches!(bind("SELECT nope FROM t"), Err(MlError::Bind(_))));
        assert!(matches!(bind("SELECT z.a FROM t"), Err(MlError::Bind(_))));
    }

    #[test]
    fn ambiguity_detected() {
        assert!(matches!(bind("SELECT a FROM t, u"), Err(MlError::Bind(_))));
        assert!(bind("SELECT t.a FROM t, u").is_ok());
    }

    #[test]
    fn comparison_inserts_cast() {
        // int vs decimal literal → decimal comparison via cast.
        let p = bind("SELECT a FROM t WHERE a > 1.5").unwrap();
        let s = p.render();
        assert!(s.contains("cast"), "expected cast in {s}");
    }

    #[test]
    fn decimal_multiply_scales_add() {
        let p = bind("SELECT p * p AS sq FROM t").unwrap();
        assert_eq!(p.schema()[0].ty, LogicalType::Decimal { width: 18, scale: 4 });
    }

    #[test]
    fn division_is_double() {
        let p = bind("SELECT a / 2 AS h FROM t").unwrap();
        assert_eq!(p.schema()[0].ty, LogicalType::Double);
    }

    #[test]
    fn date_interval_folds_at_bind() {
        let p = bind("SELECT a FROM t WHERE d <= date '1998-12-01' - interval '90' day").unwrap();
        let s = p.render();
        assert!(s.contains("1998-09-02"), "interval should fold: {s}");
    }

    #[test]
    fn date_string_comparison_coerces() {
        let p = bind("SELECT a FROM t WHERE d = '1995-01-01'").unwrap();
        let s = p.render();
        assert!(s.contains("1995-01-01"));
    }

    #[test]
    fn group_by_and_aggregates() {
        let p = bind("SELECT b, sum(a) AS s, count(*) AS c FROM t GROUP BY b").unwrap();
        match &p {
            Plan::Project { input, .. } => match input.as_ref() {
                Plan::Aggregate { groups, aggs, .. } => {
                    assert_eq!(groups.len(), 1);
                    assert_eq!(aggs.len(), 2);
                    assert_eq!(aggs[0].ty, LogicalType::Bigint);
                }
                other => panic!("expected aggregate, got {other:?}"),
            },
            other => panic!("expected project, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_dedup() {
        // sum(a) referenced twice becomes one AggSpec.
        let p = bind("SELECT sum(a), sum(a) + 1 FROM t").unwrap();
        match &p {
            Plan::Project { input, .. } => match input.as_ref() {
                Plan::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 1),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_grouped_column_rejected() {
        assert!(matches!(bind("SELECT b, a, sum(a) FROM t GROUP BY b"), Err(MlError::Bind(_))));
    }

    #[test]
    fn having_binds_in_agg_context() {
        let p = bind("SELECT b FROM t GROUP BY b HAVING count(*) > 2").unwrap();
        // Filter sits between aggregate and project.
        match &p {
            Plan::Project { input, .. } => {
                assert!(matches!(input.as_ref(), Plan::Filter { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let p = bind("SELECT a AS x, b FROM t ORDER BY x DESC, 2").unwrap();
        match &p {
            Plan::Sort { keys, .. } => assert_eq!(keys, &vec![(0, true), (1, false)]),
            other => panic!("{other:?}"),
        }
        assert!(bind("SELECT a FROM t ORDER BY 5").is_err());
        assert!(bind("SELECT a FROM t ORDER BY nope").is_err());
    }

    #[test]
    fn exists_flattens_to_semi_join() {
        let p =
            bind("SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a AND u.x > 0.5)")
                .unwrap();
        let s = p.render();
        assert!(s.contains("semi join"), "{s}");
        assert!(s.contains("filter") || s.contains("where"), "inner filter retained: {s}");
    }

    #[test]
    fn not_exists_flattens_to_anti_join() {
        let p = bind("SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = t.a)").unwrap();
        assert!(p.render().contains("anti join"));
    }

    #[test]
    fn in_subquery_flattens_to_semi_join() {
        let p = bind("SELECT a FROM t WHERE a IN (SELECT a FROM u)").unwrap();
        assert!(p.render().contains("semi join"));
    }

    #[test]
    fn correlated_scalar_agg_flattens() {
        // Q2's shape.
        let p = bind("SELECT a FROM t WHERE p = (SELECT min(x) FROM u WHERE u.a = t.a)").unwrap();
        let s = p.render();
        assert!(s.contains("left join"), "{s}");
        assert!(s.contains("min"), "{s}");
    }

    #[test]
    fn case_types_unify() {
        let p = bind("SELECT sum(CASE WHEN b = 'x' THEN p ELSE 0 END) FROM t").unwrap();
        match &p {
            Plan::Project { input, .. } => match input.as_ref() {
                Plan::Aggregate { aggs, .. } => {
                    assert_eq!(aggs[0].ty, LogicalType::Decimal { width: 18, scale: 2 });
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_without_from() {
        let p = bind("SELECT 1 + 2 AS x").unwrap();
        assert_eq!(&*p.schema()[0].name, "x");
    }

    #[test]
    fn like_requires_string() {
        assert!(bind("SELECT a FROM t WHERE b LIKE '%x%'").is_ok());
        assert!(matches!(
            bind("SELECT a FROM t WHERE a LIKE '%x%'"),
            Err(MlError::TypeMismatch(_))
        ));
    }

    #[test]
    fn between_desugars() {
        let p = bind("SELECT a FROM t WHERE a BETWEEN 1 AND 5").unwrap();
        let s = p.render();
        assert!(s.contains(">=") && s.contains("<="), "{s}");
    }

    #[test]
    fn in_list_desugars_to_ors() {
        let p = bind("SELECT a FROM t WHERE b IN ('x', 'y')").unwrap();
        let s = p.render();
        assert!(s.contains("or"), "{s}");
    }

    #[test]
    fn explicit_join_keys_left_in_residual() {
        let p = bind("SELECT t.a FROM t JOIN u ON t.a = u.a").unwrap();
        let s = p.render();
        assert!(s.contains("residual"), "keys extracted later by optimizer: {s}");
    }

    #[test]
    fn uncorrelated_scalar_binds_as_keyless_left_join() {
        let p = bind("SELECT a FROM t WHERE a > (SELECT min(a) FROM u)").unwrap();
        let s = p.render();
        assert!(s.contains("left join on \n"), "key-less scalar join: {s}");
        assert!(s.contains("min"), "{s}");
    }

    #[test]
    fn having_scalar_subquery_joins_after_aggregation() {
        let p = bind(
            "SELECT b, sum(a) AS s FROM t GROUP BY b \
             HAVING sum(a) > (SELECT sum(a) FROM u)",
        )
        .unwrap();
        let s = p.render();
        // Two aggregates: the outer grouped one and the subquery's global
        // one, joined key-less and filtered.
        assert_eq!(s.matches("aggregate").count(), 2, "{s}");
        assert!(s.contains("left join"), "{s}");
    }

    #[test]
    fn not_in_subquery_plans_null_guard() {
        let p = bind("SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)").unwrap();
        let s = p.render();
        assert!(s.contains("anti join"), "{s}");
        // The three-valued guard: counts cross-joined and filtered.
        assert!(s.contains("count"), "{s}");
        assert!(s.contains("cross join"), "{s}");
    }

    #[test]
    fn exists_with_non_equality_correlation_becomes_residual() {
        // Q21's shape: one correlated equality (the key) plus a
        // correlated inequality (the residual).
        let p = bind(
            "SELECT a FROM t WHERE EXISTS \
             (SELECT * FROM u WHERE u.a = t.a AND u.x <> t.p)",
        )
        .unwrap();
        let s = p.render();
        assert!(s.contains("semi join"), "{s}");
        assert!(s.contains("residual"), "{s}");
    }

    #[test]
    fn uncorrelated_in_with_group_by_binds_standalone() {
        // Q18's shape: a grouped + HAVING subquery inside IN.
        let p = bind(
            "SELECT a FROM t WHERE a IN \
             (SELECT a FROM u GROUP BY a HAVING count(*) > 1)",
        )
        .unwrap();
        let s = p.render();
        assert!(s.contains("semi join"), "{s}");
        assert!(s.contains("aggregate"), "{s}");
    }

    #[test]
    fn correlated_scalar_with_expression_around_aggregate() {
        // Q17/Q20's shape: the subquery projects 0.5 * sum(...).
        let p = bind(
            "SELECT a FROM t WHERE p > \
             (SELECT 0.5 * min(x) FROM u WHERE u.a = t.a)",
        )
        .unwrap();
        let s = p.render();
        assert!(s.contains("left join"), "{s}");
        assert!(s.contains("0.5") || s.contains("0.50"), "value recomputed outside: {s}");
    }

    #[test]
    fn or_common_conjuncts_are_factored() {
        // Q19's shape: the shared equality hoists out of the OR.
        let p = bind(
            "SELECT t.a FROM t, u WHERE \
             (t.a = u.a AND t.b = 'x' AND u.x > 1.0) OR \
             (t.a = u.a AND t.b = 'y' AND u.x > 2.0)",
        )
        .unwrap();
        let s = p.render();
        let factored = factor_or_common(&match monetlite_sql::parse_statement(
            "SELECT 1 FROM t WHERE (a = 1 AND b = 'x') OR (a = 1 AND b = 'y')",
        )
        .unwrap()
        {
            monetlite_sql::Statement::Select(sel) => sel.where_clause.clone().unwrap(),
            _ => unreachable!(),
        });
        let factored = factored.expect("common conjunct found");
        assert_eq!(factored.len(), 2, "common + reduced OR: {factored:?}");
        // In the bound plan, the hoisted equality is a separate conjunct
        // the optimizer can later turn into a join key.
        assert!(s.contains("(#0 = #4)") || s.contains("filter"), "{s}");
    }

    #[test]
    fn cte_binds_like_a_derived_table() {
        let p = bind(
            "WITH big (k, total) AS (SELECT a, sum(p) FROM t GROUP BY a) \
             SELECT k FROM big WHERE total > 10",
        )
        .unwrap();
        assert_eq!(p.schema().len(), 1);
        assert_eq!(&*p.schema()[0].name, "k");
        // Later CTEs see earlier ones; a CTE shadows a base table.
        let p2 = bind(
            "WITH t (z) AS (SELECT a FROM u), second AS (SELECT z FROM t) \
             SELECT z FROM second",
        )
        .unwrap();
        assert_eq!(&*p2.schema()[0].name, "z");
    }

    #[test]
    fn derived_table_column_aliases_rename_scope() {
        // Q13's shape.
        let p = bind(
            "SELECT c, count(*) FROM \
             (SELECT a, b FROM t) AS d (k, c) GROUP BY c",
        )
        .unwrap();
        assert_eq!(&*p.schema()[0].name, "c");
        assert!(matches!(
            bind("SELECT 1 FROM (SELECT a, b FROM t) AS d (only_one)"),
            Err(MlError::Bind(_))
        ));
    }

    #[test]
    fn view_expands_at_bind_time() {
        struct ViewCat {
            inner: MockCatalog,
        }
        impl CatalogAccess for ViewCat {
            fn table_schema(&self, name: &str) -> Result<Schema> {
                self.inner.table_schema(name)
            }
            fn view_def(&self, name: &str) -> Option<ViewDef> {
                (name == "v").then(|| ViewDef {
                    columns: Some(vec!["k".into(), "total".into()]),
                    query: match monetlite_sql::parse_statement(
                        "SELECT a, sum(p) FROM t GROUP BY a",
                    )
                    .unwrap()
                    {
                        monetlite_sql::Statement::Select(s) => *s,
                        _ => unreachable!(),
                    },
                })
            }
        }
        let cat = ViewCat { inner: catalog() };
        let stmt =
            monetlite_sql::parse_statement("SELECT k, total FROM v WHERE total > 1").unwrap();
        let monetlite_sql::Statement::Select(s) = stmt else { unreachable!() };
        let p = Binder::new(&cat).bind_select(&s).unwrap();
        assert_eq!(p.schema().len(), 2);
        assert_eq!(&*p.schema()[1].name, "total");
    }

    #[test]
    fn unsupported_errors_name_the_sql_fragment() {
        // The diagnostic must quote SQL, not debug-print the AST.
        let e = bind("SELECT a FROM t WHERE b = 'x' OR a IN (SELECT a FROM u)").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("in (select ...)"), "fragment quoted as SQL: {msg}");
        assert!(!msg.contains("InSubquery"), "no AST debug dump: {msg}");
    }

    #[test]
    fn broken_subquery_reports_the_real_error_not_correlation() {
        // A typo'd column in an EXISTS subquery must not be misreported
        // as a correlation problem: the standalone bind failure is
        // carried into the diagnostic.
        let e = bind("SELECT a FROM t WHERE EXISTS (SELECT nosuch FROM u)").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("nosuch"), "names the unknown column: {msg}");
        let e2 = bind("SELECT a FROM t WHERE a IN (SELECT nosuch FROM u)").unwrap_err();
        assert!(e2.to_string().contains("nosuch"), "{e2}");
        let e3 = bind("SELECT a FROM t WHERE a > (SELECT min(nosuch) FROM u)").unwrap_err();
        assert!(e3.to_string().contains("nosuch"), "{e3}");
    }
}
