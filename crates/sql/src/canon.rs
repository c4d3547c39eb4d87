//! Canonical (injective) statement rendering and literal normalization
//! for the plan/result caches.
//!
//! The `Display` impls on [`crate::ast`] exist for *diagnostics*: they
//! elide subqueries (`(select ...)`) and render values without type
//! tags, so two distinct ASTs can print identically. Cache keys need
//! the opposite guarantee — distinct ASTs must render distinctly — so
//! this module renders every statement fully, case-folds identifiers,
//! and tags every literal with its type ([`canon_value`]).
//!
//! [`normalize_select`] additionally rewrites WHERE-clause literals
//! into [`Expr::Param`] placeholders so that the same query *shape*
//! with different constants shares one plan-cache template. The
//! parameterization is deliberately conservative (see the rules on
//! `walk_expr`); anything not parameterized simply stays in the key
//! text, which is always sound. The result-cache key is derived from the
//! same pass ([`NormalizedSelect::result_key`]): the parameterized
//! rendering plus the extracted literals.

use crate::ast::{Expr, IntervalUnit, OrderItem, SelectItem, SelectStmt, TableRef};
use monetlite_types::Value;
use std::fmt::Write as _;

/// Injective, type-tagged rendering of a [`Value`].
///
/// Distinct values — including equal-looking values of different types
/// (`Int(1)` vs `Bigint(1)` vs `Double(1.0)` vs `Decimal(1, 0)` vs
/// `Str("1")`) — always render to distinct strings. Doubles render via
/// their bit pattern, decimals as `raw.scale`, dates as the raw day
/// count, and strings with `''`-escaped quotes.
pub fn canon_value(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    let _ = match v {
        Value::Null => write!(out, "null"),
        Value::Bool(b) => write!(out, "bool:{b}"),
        Value::Int(i) => write!(out, "int:{i}"),
        Value::Bigint(i) => write!(out, "bigint:{i}"),
        Value::Double(d) => write!(out, "double:{:016x}", d.to_bits()),
        Value::Decimal(d) => write!(out, "dec:{}.{}", d.raw, d.scale),
        Value::Str(s) => {
            out.push_str("str:");
            write_quoted(out, s);
            Ok(())
        }
        Value::Date(d) => write!(out, "date:{}", d.0),
    };
}

/// `'...'` with embedded quotes doubled.
fn write_quoted(out: &mut String, s: &str) {
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
}

/// Short type tag for a parameter slot: the *type* of the extracted
/// literal is part of the template key (an `int` and a `decimal`
/// constant bind and cast differently), while its value is not.
pub fn write_param_tag(out: &mut String, v: &Value) {
    out.push_str(match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) => "int",
        Value::Bigint(_) => "bigint",
        Value::Double(_) => "double",
        Value::Decimal(d) => {
            let _ = write!(out, "dec{}", d.scale);
            return;
        }
        Value::Str(_) => "str",
        Value::Date(_) => "date",
    });
}

/// A SELECT normalized for the plan cache.
pub struct NormalizedSelect {
    /// Canonical rendering of the parameterized statement, with
    /// `?N:<type>` markers in place of extracted literals.
    pub key: String,
    /// Extracted literals, index-aligned with the `Expr::Param` slots.
    pub params: Vec<Value>,
    /// The parameterized AST (WHERE literals replaced by `Expr::Param`).
    pub stmt: SelectStmt,
}

impl NormalizedSelect {
    /// Result-cache key material: the parameterized rendering (which
    /// carries every literal that was *not* extracted, type-tagged) plus
    /// the canonical rendering of the extracted ones. Two statements
    /// share it exactly when [`canon_select_full`] renders them
    /// identically, without a second traversal of the statement. The
    /// length prefix makes the split between the two parts unambiguous
    /// whatever characters string literals contain.
    pub fn result_key(&self) -> String {
        result_key(&self.key, &self.params)
    }
}

/// [`NormalizedSelect::result_key`] of a statement whose plan key and
/// extracted literals are known without its AST (the plan cache's
/// token-level memo builds them from the tokens).
pub fn result_key(plan_key: &str, params: &[Value]) -> String {
    let mut out = String::with_capacity(plan_key.len() + 8 + 16 * params.len());
    let _ = write!(out, "{}:", plan_key.len());
    out.push_str(plan_key);
    for p in params {
        write_value(&mut out, p);
        out.push(',');
    }
    out
}

/// Normalize a SELECT for plan-cache keying: extract WHERE-clause
/// literals into a bind vector (in place — the statement is consumed,
/// not cloned) and render the residue canonically.
pub fn normalize_select(mut stmt: SelectStmt) -> NormalizedSelect {
    let mut params = Vec::new();
    walk_select(&mut stmt, &mut |e| {
        if let Expr::Literal(v) = e {
            // NULL and booleans stay: they fold into plan structure at
            // bind time (`WHERE false` prunes, `x = NULL` is 3VL-special).
            if !matches!(v, Value::Null | Value::Bool(_)) {
                let index = params.len();
                params.push(std::mem::replace(v, Value::Null));
                *e = Expr::Param { index };
            }
        }
    });
    let key = canon_select(&stmt, &params);
    NormalizedSelect { key, params, stmt }
}

/// Inverse of [`normalize_select`]: the statement with every parameter
/// slot holding its literal again (what the parser produced).
pub fn restore_literals(template: &SelectStmt, params: &[Value]) -> SelectStmt {
    let mut stmt = template.clone();
    walk_select(&mut stmt, &mut |e| {
        if let Expr::Param { index } = e {
            if let Some(v) = params.get(*index) {
                *e = Expr::Literal(v.clone());
            }
        }
    });
    stmt
}

/// Canonical rendering of a whole SELECT: no parameterization, literals
/// rendered in place via [`canon_value`]. The reference the result key
/// is tested against.
pub fn canon_select_full(stmt: &SelectStmt) -> String {
    canon_select(stmt, &[])
}

// ---------------------------------------------------------------------------
// Parameterization
// ---------------------------------------------------------------------------

/// Call `f` on every parameterizable leaf (literal or parameter slot) of
/// the statement tree, in rendering order: the leaves under every WHERE
/// clause (the top-level query, CTEs, derived tables, and subqueries
/// found in expression position). Only WHERE clauses: projection/GROUP
/// BY/HAVING/ORDER BY literals shape the output schema, ordinal
/// resolution, or aggregate folding, so they stay in the key text.
fn walk_select(s: &mut SelectStmt, f: &mut dyn FnMut(&mut Expr)) {
    for cte in &mut s.ctes {
        walk_select(&mut cte.query, f);
    }
    for item in &mut s.projections {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, false, f);
        }
    }
    for tr in &mut s.from {
        walk_table_ref(tr, f);
    }
    if let Some(w) = &mut s.where_clause {
        walk_expr(w, true, f);
    }
    for e in &mut s.group_by {
        walk_expr(e, false, f);
    }
    if let Some(h) = &mut s.having {
        walk_expr(h, false, f);
    }
}

fn walk_table_ref(tr: &mut TableRef, f: &mut dyn FnMut(&mut Expr)) {
    match tr {
        TableRef::Table { .. } => {}
        TableRef::Subquery { query, .. } => walk_select(query, f),
        TableRef::Join { left, right, on, .. } => {
            walk_table_ref(left, f);
            walk_table_ref(right, f);
            if let Some(on) = on {
                walk_expr(on, false, f);
            }
        }
    }
}

/// Under a WHERE clause (`in_where`) every literal is a parameterizable
/// leaf except (conservative by design — an unparameterized literal is
/// merely a more specific cache key, never unsound):
/// * IN-list members: the list length is already in the key and the
///   members feed a hash-set build that binds per-list;
/// * LIKE patterns, which are plain strings in the AST, not expressions.
///
/// Outside WHERE clauses literals are left alone, but the walk still
/// recurses into *subqueries* so their own WHERE clauses are reached.
fn walk_expr(e: &mut Expr, in_where: bool, f: &mut dyn FnMut(&mut Expr)) {
    match e {
        Expr::Literal(_) | Expr::Param { .. } => {
            if in_where {
                f(e);
            }
        }
        Expr::Column { .. } | Expr::Interval { .. } => {}
        Expr::Binary { left, right, .. } => {
            walk_expr(left, in_where, f);
            walk_expr(right, in_where, f);
        }
        Expr::Not(inner) | Expr::Neg(inner) => walk_expr(inner, in_where, f),
        Expr::IsNull { expr, .. }
        | Expr::Like { expr, .. }
        | Expr::Extract { expr, .. }
        | Expr::Cast { expr, .. } => walk_expr(expr, in_where, f),
        Expr::Between { expr, low, high, .. } => {
            walk_expr(expr, in_where, f);
            walk_expr(low, in_where, f);
            walk_expr(high, in_where, f);
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, in_where, f);
            if !in_where {
                for m in list {
                    walk_expr(m, false, f);
                }
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            walk_expr(expr, in_where, f);
            walk_select(query, f);
        }
        Expr::Exists { query, .. } => walk_select(query, f),
        Expr::ScalarSubquery(q) => walk_select(q, f),
        Expr::Case { branches, else_expr } => {
            for (c, v) in branches {
                walk_expr(c, in_where, f);
                walk_expr(v, in_where, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, in_where, f);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                walk_expr(a, in_where, f);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, in_where, f);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical rendering
// ---------------------------------------------------------------------------

fn canon_select(s: &SelectStmt, params: &[Value]) -> String {
    let mut out = String::new();
    write_select(&mut out, s, params);
    out
}

fn write_select(out: &mut String, s: &SelectStmt, params: &[Value]) {
    if !s.ctes.is_empty() {
        out.push_str("with ");
        for (i, cte) in s.ctes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_folded(out, &cte.name);
            if let Some(cols) = &cte.columns {
                write_column_list(out, cols);
            }
            out.push_str(" as (");
            write_select(out, &cte.query, params);
            out.push(')');
        }
        out.push(' ');
    }
    out.push_str("select ");
    if s.distinct {
        out.push_str("distinct ");
    }
    for (i, item) in s.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(t) => {
                push_folded(out, t);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                write_expr(out, expr, params);
                if let Some(a) = alias {
                    out.push_str(" as ");
                    push_folded(out, a);
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" from ");
        for (i, tr) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_table_ref(out, tr, params);
        }
    }
    if let Some(w) = &s.where_clause {
        out.push_str(" where ");
        write_expr(out, w, params);
    }
    if !s.group_by.is_empty() {
        out.push_str(" group by ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, e, params);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" having ");
        write_expr(out, h, params);
    }
    if !s.order_by.is_empty() {
        out.push_str(" order by ");
        for (i, OrderItem { expr, desc }) in s.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, expr, params);
            if *desc {
                out.push_str(" desc");
            }
        }
    }
    if let Some(l) = s.limit {
        let _ = write!(out, " limit {l}");
    }
}

fn write_table_ref(out: &mut String, tr: &TableRef, params: &[Value]) {
    match tr {
        TableRef::Table { name, alias } => {
            push_folded(out, name);
            if let Some(a) = alias {
                out.push_str(" as ");
                push_folded(out, a);
            }
        }
        TableRef::Subquery { query, alias, columns } => {
            out.push('(');
            write_select(out, query, params);
            out.push_str(") as ");
            push_folded(out, alias);
            if let Some(cols) = columns {
                write_column_list(out, cols);
            }
        }
        TableRef::Join { left, right, kind, on } => {
            out.push('(');
            write_table_ref(out, left, params);
            let _ = write!(out, " {:?} join ", kind);
            write_table_ref(out, right, params);
            if let Some(on) = on {
                out.push_str(" on ");
                write_expr(out, on, params);
            }
            out.push(')');
        }
    }
}

fn write_expr(out: &mut String, e: &Expr, params: &[Value]) {
    match e {
        Expr::Column { table, name } => {
            if let Some(t) = table {
                push_folded(out, t);
                out.push('.');
            }
            push_folded(out, name);
        }
        Expr::Literal(v) => write_value(out, v),
        Expr::Param { index } => {
            let _ = write!(out, "?{index}:");
            match params.get(*index) {
                Some(v) => write_param_tag(out, v),
                None => out.push('?'),
            }
        }
        Expr::Interval { value, unit } => {
            let u = match unit {
                IntervalUnit::Day => "day",
                IntervalUnit::Month => "month",
                IntervalUnit::Year => "year",
            };
            let _ = write!(out, "interval {value} {u}");
        }
        Expr::Binary { op, left, right } => {
            let _ = write!(out, "({:?} ", op);
            write_expr(out, left, params);
            out.push(' ');
            write_expr(out, right, params);
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("(not ");
            write_expr(out, inner, params);
            out.push(')');
        }
        Expr::Neg(inner) => {
            out.push_str("(neg ");
            write_expr(out, inner, params);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            let _ = write!(out, "(is{}null ", if *negated { "not" } else { "" });
            write_expr(out, expr, params);
            out.push(')');
        }
        Expr::Like { expr, pattern, negated } => {
            let _ = write!(out, "({}like ", if *negated { "not" } else { "" });
            write_expr(out, expr, params);
            out.push(' ');
            write_quoted(out, pattern);
            out.push(')');
        }
        Expr::Between { expr, low, high, negated } => {
            let _ = write!(out, "({}between ", if *negated { "not" } else { "" });
            write_expr(out, expr, params);
            out.push(' ');
            write_expr(out, low, params);
            out.push(' ');
            write_expr(out, high, params);
            out.push(')');
        }
        Expr::InList { expr, list, negated } => {
            let _ = write!(out, "({}in ", if *negated { "not" } else { "" });
            write_expr(out, expr, params);
            out.push_str(" [");
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, m, params);
            }
            out.push_str("])");
        }
        Expr::InSubquery { expr, query, negated } => {
            let _ = write!(out, "({}in ", if *negated { "not" } else { "" });
            write_expr(out, expr, params);
            out.push_str(" (");
            write_select(out, query, params);
            out.push_str("))");
        }
        Expr::Exists { query, negated } => {
            let _ = write!(out, "({}exists (", if *negated { "not" } else { "" });
            write_select(out, query, params);
            out.push_str("))");
        }
        Expr::ScalarSubquery(q) => {
            out.push_str("(scalar (");
            write_select(out, q, params);
            out.push_str("))");
        }
        Expr::Case { branches, else_expr } => {
            out.push_str("(case");
            for (c, v) in branches {
                out.push_str(" when ");
                write_expr(out, c, params);
                out.push_str(" then ");
                write_expr(out, v, params);
            }
            if let Some(e) = else_expr {
                out.push_str(" else ");
                write_expr(out, e, params);
            }
            out.push_str(" end)");
        }
        Expr::Agg { func, arg, distinct } => {
            let _ = write!(out, "({:?}", func);
            if *distinct {
                out.push_str(" distinct");
            }
            match arg {
                None => out.push_str(" *"),
                Some(a) => {
                    out.push(' ');
                    write_expr(out, a, params);
                }
            }
            out.push(')');
        }
        Expr::Extract { field, expr } => {
            let _ = write!(out, "(extract {:?} ", field);
            write_expr(out, expr, params);
            out.push(')');
        }
        Expr::Cast { expr, ty } => {
            out.push_str("(cast ");
            write_expr(out, expr, params);
            let _ = write!(out, " {ty})");
        }
        Expr::Function { name, args } => {
            out.push('(');
            push_folded(out, name);
            for a in args {
                out.push(' ');
                write_expr(out, a, params);
            }
            out.push(')');
        }
    }
}

/// Append the case-folded identifier.
fn push_folded(out: &mut String, ident: &str) {
    out.extend(ident.chars().map(|c| c.to_ascii_lowercase()));
}

fn write_column_list(out: &mut String, cols: &[String]) {
    out.push_str(" (");
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_folded(out, c);
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use monetlite_types::Decimal;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn canon_value_is_type_tagged() {
        // Same surface text, different types — the old Display rendered
        // all of these identically ("1" / "5").
        let collide = [
            Value::Int(5),
            Value::Bigint(5),
            Value::Double(5.0),
            Value::Decimal(Decimal::new(5, 0)),
            Value::Str("5".into()),
        ];
        for (i, a) in collide.iter().enumerate() {
            for b in &collide[i + 1..] {
                assert_ne!(canon_value(a), canon_value(b), "{a:?} vs {b:?}");
            }
        }
        assert_ne!(
            canon_value(&Value::Decimal(Decimal::new(10, 1))),
            canon_value(&Value::Decimal(Decimal::new(1, 0))),
            "1.0 vs 1 must not alias"
        );
        assert_ne!(canon_value(&Value::Str("a''b".into())), canon_value(&Value::Str("a'b".into())));
    }

    #[test]
    fn normalize_extracts_where_literals() {
        let n = normalize_select(sel("select a from t where b = 5 and c between 1 and 2"));
        assert_eq!(n.params, vec![Value::Int(5), Value::Int(1), Value::Int(2)]);
        assert!(n.key.contains("?0:int"), "{}", n.key);
        // Same shape, different constants → same key.
        let n2 = normalize_select(sel("select a from t where b = 7 and c between 3 and 4"));
        assert_eq!(n.key, n2.key);
        // Different shape → different key.
        let n3 = normalize_select(sel("select a from t where b = 7"));
        assert_ne!(n.key, n3.key);
    }

    #[test]
    fn normalize_keeps_structural_literals() {
        // IN-list members, projection literals, ORDER BY ordinals and
        // LIMIT stay in the key.
        let a = normalize_select(sel("select 1, a from t where x in (1, 2) order by 2 limit 3"));
        let b = normalize_select(sel("select 1, a from t where x in (1, 3) order by 2 limit 3"));
        assert_ne!(a.key, b.key, "IN members must stay in the key");
        assert!(a.params.is_empty());
        let c = normalize_select(sel("select 2, a from t where x in (1, 2) order by 2 limit 3"));
        assert_ne!(a.key, c.key, "projection literals must stay in the key");
    }

    #[test]
    fn normalize_reaches_subquery_where() {
        let a = normalize_select(sel(
            "select a from t where exists (select 1 from u where u.k = t.k and u.v > 10)",
        ));
        assert_eq!(a.params, vec![Value::Int(10)]);
        let b = normalize_select(sel(
            "select a from t where exists (select 1 from u where u.k = t.k and u.v > 99)",
        ));
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn canon_renders_subqueries_fully() {
        // The diagnostic Display elides subqueries; the canonical
        // rendering must not.
        let a = canon_select_full(&sel("select a from t where x in (select k from u)"));
        let b = canon_select_full(&sel("select a from t where x in (select k from v)"));
        assert_ne!(a, b);
        // Identifier case folds.
        let c = canon_select_full(&sel("SELECT A FROM T WHERE X IN (SELECT K FROM U)"));
        assert_eq!(a, c);
    }

    #[test]
    fn restore_literals_inverts_normalization() {
        for sql in [
            "select a from t where b = 5 and c between 1.5 and date '1994-01-01'",
            "select 1, a from t where x in (1, 2) and y like 'a%' and z < 9 order by 2 limit 3",
            "with w as (select k from u where v > 10) select a from t, w \
             where exists (select 1 from u where u.k = t.k and u.v > 'x''y') \
             group by a having count(*) > 3",
        ] {
            let original = sel(sql);
            let n = normalize_select(original.clone());
            assert_ne!(n.stmt, original, "{sql}: nothing was parameterized");
            assert_eq!(restore_literals(&n.stmt, &n.params), original, "{sql}");
        }
    }

    #[test]
    fn result_key_separates_what_the_plan_key_merges() {
        let a = normalize_select(sel("select a from t where b = 7 and s = 'x'"));
        let b = normalize_select(sel("select a from t where b = 2 and s = 'x'"));
        assert_eq!(a.key, b.key);
        assert_ne!(a.result_key(), b.result_key());
        // Identifier case folds, as in the full rendering.
        let c = normalize_select(sel("SELECT A FROM T WHERE B = 7 AND S = 'x'"));
        assert_eq!(a.result_key(), c.result_key());
        // A string that imitates the rendering of two literals is still
        // one quoted literal.
        let d = normalize_select(sel("select a from t where s = 'x'',int:7' and b = 7"));
        let e = normalize_select(sel("select a from t where s = 'x' and b = 7"));
        assert_ne!(d.result_key(), e.result_key());
    }

    #[test]
    fn typed_literals_key_differently() {
        // int 5 vs decimal 5.0 in WHERE → different param type tags.
        let a = normalize_select(sel("select a from t where b = 5"));
        let b = normalize_select(sel("select a from t where b = 5.0"));
        assert_ne!(a.key, b.key);
    }
}
